//! The metric inventory: every name the benchmark prints, its unit, and (for
//! layer metrics) the end-to-end metric and workload it should move.
//! `BENCHMARK.json` lists the same names and units; the self-test checks
//! that they agree.

/// End-to-end metrics in the result line of every workload (`--trace 0`).
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("throughput_rps", "1/s"),
    ("consensus_p50_ms", "ms"),
    ("consensus_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
];

/// Workload-specific end-to-end latencies, printed in the report only on the
/// workloads that send such requests: `(name, request kind, percentile)`.
pub const REQUEST_LATENCIES: [(&str, &str, f64); 9] = [
    ("upload_json_p50_ms", "upload_json", 50.0),
    ("upload_json_p90_ms", "upload_json", 90.0),
    ("upload_col_p50_ms", "upload_col", 50.0),
    ("upload_col_p90_ms", "upload_col", 90.0),
    ("patch_p50_ms", "patch", 50.0),
    ("replay_p50_ms", "replay", 50.0),
    ("session_edit_p50_ms", "session_edit", 50.0),
    ("scrape_p50_ms", "scrape", 50.0),
    ("delete_p50_ms", "delete", 50.0),
];

/// Per-layer metrics of the traced run (`--trace 1`): name, unit, and what
/// the layer should move.
pub const PER_LAYER: [(&str, &str, &str); 27] = [
    (
        "core.make_mr_fair_ms",
        "ms",
        "consensus_p50_ms, throughput_rps on fair-solve; not ingest",
    ),
    (
        "core.make_mr_fair_swaps",
        "count",
        "consensus_p50_ms, throughput_rps on fair-solve; not ingest",
    ),
    (
        "core.evaluate_ms",
        "ms",
        "consensus_p50_ms, throughput_rps on fair-solve; not ingest",
    ),
    (
        "fairness.criteria_ms",
        "ms",
        "consensus_p50_ms, throughput_rps on fair-solve; not ingest",
    ),
    (
        "aggregation.borda_ms",
        "ms",
        "consensus_p50_ms on fair-solve; session_edit_p50_ms on what-if",
    ),
    (
        "aggregation.copeland_ms",
        "ms",
        "consensus_p50_ms on fair-solve; session_edit_p50_ms on what-if",
    ),
    (
        "aggregation.schulze_ms",
        "ms",
        "consensus_p50_ms on fair-solve (tiled); session_edit_p50_ms on what-if (flat)",
    ),
    (
        "serde_json.decode_ms",
        "ms",
        "upload_json_p50_ms on ingest; not fair-solve",
    ),
    (
        "serde_json.decode_mb_s",
        "MB/s",
        "upload_json_p50_ms on ingest; not fair-solve",
    ),
    (
        "service.parse_dataset_ms",
        "ms",
        "upload_json_p50_ms on ingest; not fair-solve",
    ),
    (
        "service.columnar_decode_ms",
        "ms",
        "upload_col_p50_ms on ingest",
    ),
    (
        "ranking.matrix_build_ms",
        "ms",
        "consensus_p50_ms on ingest; flat on fair-solve",
    ),
    (
        "engine.matrix_builds",
        "count",
        "consensus_p50_ms on ingest; flat on fair-solve",
    ),
    (
        "engine.matrix_build_ms",
        "ms",
        "consensus_p50_ms on ingest; flat on fair-solve",
    ),
    (
        "ranking.delta_append_ms",
        "ms",
        "patch_p50_ms, session_edit_p50_ms on what-if",
    ),
    (
        "engine.delta_derives",
        "count",
        "patch_p50_ms, session_edit_p50_ms on what-if",
    ),
    (
        "engine.delta_fallbacks",
        "count",
        "patch_p50_ms, session_edit_p50_ms on what-if",
    ),
    (
        "service.response_cache_hit_ratio",
        "ratio",
        "replay_p50_ms on what-if; 0 on fair-solve",
    ),
    ("service.consensus_ms", "ms", "consensus_p50_ms"),
    ("service.render_ms", "ms", "consensus_p50_ms"),
    (
        "service.metrics_render_ms",
        "ms",
        "scrape_p50_ms on what-if",
    ),
    (
        "serve.keepalive_floor_ms",
        "ms",
        "every small-request p50 on all workloads",
    ),
    (
        "serve.transport_ms",
        "ms",
        "every small-request p50 on all workloads",
    ),
    (
        "serve.reconnects",
        "count",
        "every small-request p50 on all workloads",
    ),
    (
        "engine.queue_wait_ms",
        "ms",
        "consensus_p90_ms on fair-solve",
    ),
    ("engine.solve_ms", "ms", "consensus_p90_ms on fair-solve"),
    (
        "trace.unattributed_ms",
        "ms",
        "share of consensus_p50_ms no layer accounts for",
    ),
];

pub fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .map(|(n, u)| (*n, *u))
        .chain(PER_LAYER.iter().map(|(n, u, _)| (*n, *u)))
        .find(|(n, _)| *n == name)
        .map_or("", |(_, u)| u)
}

/// Renders the result line: `{"correct":…,"attempted":…,"failed":…,"metrics":{…}}`.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[(&str, f64)]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value)| {
            let value = if value.is_finite() { *value } else { 0.0 };
            format!(r#""{name}":{{"value":{value},"unit":"{}"}}"#, unit_of(name))
        })
        .collect();
    format!(
        r#"{{"correct":{correct},"attempted":{},"failed":{failed},"metrics":{{{}}}}}"#,
        attempted.max(1),
        body.join(",")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_is_json_with_units() {
        let line = result_line(true, 3, 0, &[("setup_s", 0.5), ("serve.reconnects", 2.0)]);
        let doc = crate::json::parse(line.as_bytes()).unwrap();
        assert_eq!(
            doc.path("metrics/setup_s/unit").and_then(|u| u.as_str()),
            Some("s")
        );
        assert_eq!(doc.num("metrics/serve.reconnects/value"), 2.0);
        assert_eq!(doc.num("attempted"), 3.0);
    }

    #[test]
    fn names_are_unique() {
        let mut names: Vec<&str> = END_TO_END.iter().map(|(n, _)| *n).collect();
        names.extend(PER_LAYER.iter().map(|(n, _, _)| *n));
        let count = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), count);
    }
}
