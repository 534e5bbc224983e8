//! What one client records: latency samples per request kind, attempted and
//! failed requests, and the outcome of every correctness check.

use std::collections::BTreeMap;

/// Most error messages kept for the report.
const MAX_ERRORS: usize = 8;

#[derive(Debug, Default)]
pub struct Tally {
    /// Latency samples in milliseconds, by request kind.
    pub samples: BTreeMap<&'static str, Vec<f64>>,
    pub attempted: u64,
    pub failed: u64,
    /// `[passed, failed]` per check name.
    pub checks: BTreeMap<&'static str, [u64; 2]>,
    pub errors: Vec<String>,
    /// `(sequence number, text)` pairs folded into the run digest.
    pub digest: Vec<(u64, String)>,
}

impl Tally {
    pub fn sample(&mut self, kind: &'static str, ms: f64) {
        self.samples.entry(kind).or_default().push(ms);
    }

    pub fn error(&mut self, message: String) {
        if self.errors.len() < MAX_ERRORS {
            self.errors.push(message);
        }
    }

    /// A request that failed, was refused, or answered wrongly.
    pub fn fail(&mut self, message: String) {
        self.failed += 1;
        self.error(message);
    }

    /// Records one check; a failed check is an error but not a failed request
    /// (the request that carried the answer is failed separately).
    pub fn check(&mut self, name: &'static str, ok: bool, detail: impl FnOnce() -> String) -> bool {
        let entry = self.checks.entry(name).or_default();
        entry[usize::from(!ok)] += 1;
        if !ok {
            let message = format!("check {name} failed: {}", detail());
            self.error(message);
        }
        ok
    }

    pub fn merge(&mut self, other: Tally) {
        for (kind, samples) in other.samples {
            self.samples.entry(kind).or_default().extend(samples);
        }
        self.attempted += other.attempted;
        self.failed += other.failed;
        for (name, [passed, failed]) in other.checks {
            let entry = self.checks.entry(name).or_default();
            entry[0] += passed;
            entry[1] += failed;
        }
        for error in other.errors {
            self.error(error);
        }
        self.digest.extend(other.digest);
    }

    pub fn count(&self, kind: &str) -> usize {
        self.samples.get(kind).map_or(0, Vec::len)
    }

    pub fn percentile(&self, kind: &str, p: f64) -> Option<f64> {
        self.samples.get(kind).and_then(|s| percentile(s, p))
    }

    pub fn checks_passed(&self) -> bool {
        self.checks.values().all(|[_, failed]| *failed == 0)
    }
}

/// Percentile (`p` in 0..=100) of unsorted samples, linearly interpolated
/// between the two nearest ranks.
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let position = (p / 100.0).clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let (low, high) = (position.floor() as usize, position.ceil() as usize);
    Some(sorted[low] + (sorted[high] - sorted[low]) * (position - low as f64))
}

pub fn median(samples: &[f64]) -> Option<f64> {
    percentile(samples, 50.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interpolated_percentiles() {
        let samples: Vec<f64> = (1..=101).map(f64::from).collect();
        assert_eq!(percentile(&samples, 50.0), Some(51.0));
        assert_eq!(percentile(&samples, 90.0), Some(91.0));
        assert_eq!(percentile(&[1.0, 2.0], 50.0), Some(1.5));
        assert_eq!(percentile(&[3.0], 90.0), Some(3.0));
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn merge_adds_counts_and_checks() {
        let mut a = Tally::default();
        a.sample("x", 1.0);
        a.check("c", true, String::new);
        let mut b = Tally::default();
        b.sample("x", 2.0);
        b.check("c", false, || "boom".into());
        b.attempted = 2;
        a.merge(b);
        assert_eq!(a.count("x"), 2);
        assert_eq!(a.checks["c"], [1, 1]);
        assert_eq!(a.attempted, 2);
        assert!(!a.checks_passed());
    }
}
