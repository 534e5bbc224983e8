//! Prometheus text-exposition (version 0.0.4) rendering.
//!
//! [`PromWriter`] builds the body of `GET /metrics`: `# HELP`/`# TYPE`
//! headers followed by samples, with histograms expanded into cumulative
//! `_bucket{le="..."}` series plus `_sum` and `_count`. The writer takes
//! *per-slot* bucket counts (the layout the serve-side atomic histograms
//! keep) and does the cumulative conversion itself, so callers can't get
//! the monotonicity invariant wrong.

use std::fmt::Write as _;

/// Streaming builder for one metrics exposition body.
#[derive(Debug, Default)]
pub struct PromWriter {
    out: String,
}

impl PromWriter {
    /// An empty exposition.
    pub fn new() -> Self {
        Self::default()
    }

    /// Writes the `# HELP` and `# TYPE` lines for a metric family. Must be
    /// called once per family, before its samples.
    pub fn family(&mut self, name: &str, kind: &str, help: &str) {
        let _ = writeln!(self.out, "# HELP {name} {}", escape_help(help));
        let _ = writeln!(self.out, "# TYPE {name} {kind}");
    }

    /// Writes one sample line with optional labels.
    pub fn sample(&mut self, name: &str, labels: &[(&str, &str)], value: f64) {
        self.out.push_str(name);
        self.push_labels(labels);
        self.out.push(' ');
        self.out.push_str(&format_value(value));
        self.out.push('\n');
    }

    /// Convenience: header plus single unlabeled sample for a gauge.
    pub fn gauge(&mut self, name: &str, help: &str, value: f64) {
        self.family(name, "gauge", help);
        self.sample(name, &[], value);
    }

    /// Expands one histogram series: cumulative `_bucket` lines for every
    /// bound plus `+Inf`, then `_sum` and `_count`. `slot_counts` holds
    /// per-slot (non-cumulative) counts, one per bound plus a final overflow
    /// slot. Call [`PromWriter::family`] for `name` (type `histogram`) once
    /// before the first series; several label sets may share the family.
    pub fn histogram(
        &mut self,
        name: &str,
        labels: &[(&str, &str)],
        bounds: &[f64],
        slot_counts: &[u64],
        sum: f64,
    ) {
        debug_assert_eq!(slot_counts.len(), bounds.len() + 1, "overflow slot");
        let mut cumulative = 0u64;
        for (index, bound) in bounds.iter().enumerate() {
            cumulative += slot_counts.get(index).copied().unwrap_or(0);
            let le = format_value(*bound);
            let mut with_le: Vec<(&str, &str)> = labels.to_vec();
            with_le.push(("le", &le));
            self.sample(&format!("{name}_bucket"), &with_le, cumulative as f64);
        }
        cumulative += slot_counts.last().copied().unwrap_or(0);
        let mut with_inf: Vec<(&str, &str)> = labels.to_vec();
        with_inf.push(("le", "+Inf"));
        self.sample(&format!("{name}_bucket"), &with_inf, cumulative as f64);
        self.sample(&format!("{name}_sum"), labels, sum);
        self.sample(&format!("{name}_count"), labels, cumulative as f64);
    }

    /// The finished exposition body.
    pub fn finish(self) -> String {
        self.out
    }

    fn push_labels(&mut self, labels: &[(&str, &str)]) {
        if labels.is_empty() {
            return;
        }
        self.out.push('{');
        for (index, (key, value)) in labels.iter().enumerate() {
            if index > 0 {
                self.out.push(',');
            }
            self.out.push_str(key);
            self.out.push_str("=\"");
            for c in value.chars() {
                match c {
                    '\\' => self.out.push_str("\\\\"),
                    '"' => self.out.push_str("\\\""),
                    '\n' => self.out.push_str("\\n"),
                    other => self.out.push(other),
                }
            }
            self.out.push('"');
        }
        self.out.push('}');
    }
}

/// Renders a sample value: integral values print without a decimal point,
/// everything else in plain decimal notation.
fn format_value(value: f64) -> String {
    if value.fract() == 0.0 && value.abs() < 9.0e15 {
        format!("{}", value as i64)
    } else {
        format!("{value}")
    }
}

fn escape_help(help: &str) -> String {
    help.replace('\\', "\\\\").replace('\n', "\\n")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges_render() {
        let mut writer = PromWriter::new();
        writer.family("mani_requests_total", "counter", "Requests served.");
        writer.sample("mani_requests_total", &[], 42.0);
        writer.gauge("mani_uptime_seconds", "Uptime.", 1.5);
        let out = writer.finish();
        assert!(out.contains("# HELP mani_requests_total Requests served.\n"));
        assert!(out.contains("# TYPE mani_requests_total counter\n"));
        assert!(out.contains("\nmani_requests_total 42\n"));
        assert!(out.contains("mani_uptime_seconds 1.5\n"));
    }

    #[test]
    fn histograms_are_cumulative_with_inf_and_count() {
        let mut writer = PromWriter::new();
        writer.family("mani_latency_seconds", "histogram", "Latency.");
        writer.histogram(
            "mani_latency_seconds",
            &[("endpoint", "consensus")],
            &[0.001, 0.01, 0.1],
            &[5, 3, 0, 2], // per-slot, last = overflow
            0.75,
        );
        let out = writer.finish();
        assert!(
            out.contains("mani_latency_seconds_bucket{endpoint=\"consensus\",le=\"0.001\"} 5\n")
        );
        assert!(out.contains("mani_latency_seconds_bucket{endpoint=\"consensus\",le=\"0.01\"} 8\n"));
        assert!(out.contains("mani_latency_seconds_bucket{endpoint=\"consensus\",le=\"0.1\"} 8\n"));
        assert!(
            out.contains("mani_latency_seconds_bucket{endpoint=\"consensus\",le=\"+Inf\"} 10\n")
        );
        assert!(out.contains("mani_latency_seconds_sum{endpoint=\"consensus\"} 0.75\n"));
        assert!(out.contains("mani_latency_seconds_count{endpoint=\"consensus\"} 10\n"));
    }

    #[test]
    fn label_values_are_escaped() {
        let mut writer = PromWriter::new();
        writer.sample("m", &[("path", "a\"b\\c")], 1.0);
        assert_eq!(writer.finish(), "m{path=\"a\\\"b\\\\c\"} 1\n");
    }
}
