//! `mani-bench` — JSON kernel-benchmark emitter and regression gate.
//!
//! ```text
//! cargo run -p mani-bench --release -- --json [--out BENCH_kernels.json] [--smoke]
//!     [--iters N] [--compare BASELINE.json [--max-slowdown 0.25]]
//! ```
//!
//! With `--compare`, the fresh run is diffed against a previously committed
//! baseline (same JSON format — any earlier `--out` file works): the gated
//! metrics are the `schulze_strongest_paths` **flat kernel** and **tiled
//! kernel** (`strongest_paths_matrix` under the auto tile policy, the call
//! the engine makes), **`matrix_build` throughput**, **Make-MR-Fair** and
//! **JSON dataset decoding** (the last two run on every fair-method request
//! and upload), and any slowdown beyond `--max-slowdown` (default 25%) exits
//! non-zero. CI runs the smoke grid against `BENCH_baseline_smoke.json`; to
//! re-baseline after an intentional change (or a runner-hardware change —
//! baselines are machine-specific), copy the fresh JSON over the committed
//! baseline.
//!
//! Measures the intra-request kernels the engine's hot path is made of —
//! precedence-matrix construction, Schulze strongest paths, the Fair-Kemeny
//! branch and bound, and the Make-MR-Fair correction — at a grid of `(n, |R|)`
//! points, serial versus parallel, and (for Schulze) against the legacy
//! nested-`Vec` kernel kept as the in-tree baseline; plus the wire codecs and
//! the `delta_update` row comparing an append-1 precedence delta against a
//! full rebuild. Results are written as JSON so successive PRs have a
//! trajectory to compare against; CI smoke-runs the tiny grid (`--smoke`) to
//! keep this harness compiling and running.
//!
//! All timings are best-of-`iters` wall-clock nanoseconds measured in the same
//! process run, so speedup ratios compare like with like.

use std::fmt::Write as _;
use std::time::Instant;

use mani_aggregation::{BordaAggregator, SchulzeAggregator};
use mani_bench::BenchFixture;
use mani_core::{make_mr_fair, FairKemeny, MfcrMethod};
use mani_engine::EngineDataset;
use mani_fairness::FairnessThresholds;
use mani_ranking::{available_threads, Parallelism, PrecedenceMatrix, Ranking};
use mani_service::{
    dataset_to_value, decode_dataset, encode_dataset, parse_body, parse_dataset, render,
};
use mani_solver::SolverConfig;

/// One benchmark row, rendered as a JSON object.
struct Entry {
    kernel: &'static str,
    n: usize,
    rankings: usize,
    fields: Vec<(String, String)>,
}

impl Entry {
    /// Integer value of a field (fields hold raw JSON tokens).
    fn field_u64(&self, name: &str) -> Option<u64> {
        self.fields
            .iter()
            .find(|(key, _)| key == name)
            .and_then(|(_, value)| value.parse().ok())
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut json = false;
    let mut smoke = false;
    let mut out = String::from("BENCH_kernels.json");
    let mut compare: Option<String> = None;
    let mut max_slowdown = 0.25f64;
    let mut iters_override: Option<usize> = None;
    let mut timestamp: Option<String> = None;
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        let mut value_of = |flag: &str| match iter.next() {
            Some(value) => value.clone(),
            None => {
                eprintln!("mani-bench: {flag} needs a value");
                std::process::exit(1);
            }
        };
        match arg.as_str() {
            "--json" => json = true,
            "--smoke" => smoke = true,
            "--out" => out = value_of("--out"),
            "--compare" => compare = Some(value_of("--compare")),
            "--timestamp" => timestamp = Some(value_of("--timestamp")),
            "--max-slowdown" => {
                let raw = value_of("--max-slowdown");
                max_slowdown = raw.parse().unwrap_or_else(|_| {
                    eprintln!("mani-bench: cannot parse --max-slowdown value `{raw}`");
                    std::process::exit(1);
                });
            }
            "--iters" => {
                let raw = value_of("--iters");
                iters_override = Some(raw.parse().unwrap_or_else(|_| {
                    eprintln!("mani-bench: cannot parse --iters value `{raw}`");
                    std::process::exit(1);
                }));
            }
            "--help" | "-h" => {
                eprintln!(
                    "usage: mani-bench --json [--out FILE] [--smoke] [--iters N]\n\
                     \x20                 [--timestamp STR] [--compare BASELINE [--max-slowdown F]]\n\
                     writes kernel throughput/latency for matrix-build, Schulze,\n\
                     Fair-Kemeny, Make-MR-Fair and the wire codecs at (n, |R|) grid points\n\
                     to FILE (default BENCH_kernels.json).\n\
                     --compare diffs the fresh run against a committed baseline and exits\n\
                     non-zero when the Schulze flat kernel, matrix-build throughput,\n\
                     Make-MR-Fair or JSON decoding regresses by more than --max-slowdown\n\
                     (default 0.25).\n\
                     --timestamp stamps an opaque run label into the output's `meta`\n\
                     header (the comparison gate ignores the header entirely)."
                );
                return;
            }
            other => {
                eprintln!("mani-bench: unknown flag `{other}` (try --help)");
                std::process::exit(1);
            }
        }
    }
    if !json {
        eprintln!("mani-bench: pass --json to run the kernel grid (see --help)");
        std::process::exit(1);
    }

    let threads = available_threads();
    let parallel = Parallelism::new(threads).with_min_candidates(0);
    let mut entries = Vec::new();

    // (n, |R|) grid points per kernel; the smoke grid keeps CI runs in
    // seconds while staying large enough (tens of microseconds per gated
    // kernel) that best-of-N timings are stable for the --compare gate. The
    // smoke grid carries one large-n Schulze point (n = 1000, iters capped by
    // `capped_iters`) so the regression gate exercises the tiled-kernel
    // regime, and the full grid extends to the CSRankings-scale points
    // n ∈ {1000, 2000, 5000}. The wire-codec grid sweeps ranking count (the
    // axis the two encodings diverge on) at a fixed candidate pool.
    let (
        matrix_grid,
        schulze_grid,
        kemeny_grid,
        correction_grid,
        codec_grid,
        delta_grid,
        mut iters,
    ) = if smoke {
        (
            vec![(48, 64)],
            vec![(48, 24), (1000, 16)],
            vec![(10, 8)],
            vec![(1000, 50)],
            vec![(32, 200)],
            vec![(48, 64)],
            3usize,
        )
    } else {
        (
            vec![(160, 400), (240, 240), (1000, 200), (2000, 100)],
            vec![
                (160, 40),
                (256, 40),
                (384, 40),
                (1000, 40),
                (2000, 40),
                (5000, 40),
            ],
            vec![(20, 12), (26, 12)],
            vec![(500, 50), (1000, 50), (2000, 50), (5000, 50)],
            vec![(50, 1000), (50, 10000)],
            vec![(160, 1000), (160, 10000)],
            3usize,
        )
    };
    if let Some(override_iters) = iters_override {
        iters = override_iters.max(1);
    }

    for &(n, r) in &matrix_grid {
        eprintln!("matrix-build n={n} |R|={r} ...");
        entries.push(bench_matrix_build(n, r, &parallel, capped_iters(n, iters)));
    }
    for &(n, r) in &schulze_grid {
        eprintln!("schulze n={n} |R|={r} ...");
        entries.push(bench_schulze(n, r, &parallel, capped_iters(n, iters)));
    }
    for &(n, r) in &kemeny_grid {
        eprintln!("fair-kemeny n={n} |R|={r} ...");
        entries.push(bench_fair_kemeny(n, r, &parallel, iters.min(2), smoke));
    }
    for &(n, r) in &correction_grid {
        eprintln!("make-mr-fair n={n} |R|={r} ...");
        entries.push(bench_make_mr_fair(n, r, iters));
    }
    for &(n, r) in &codec_grid {
        eprintln!("wire-codec n={n} |R|={r} ...");
        entries.push(bench_wire_codec(n, r, iters));
    }
    for &(n, r) in &delta_grid {
        eprintln!("delta-update n={n} |R|={r} ...");
        entries.push(bench_delta_update(n, r, iters));
    }

    let body = render_json(threads, iters, smoke, timestamp.as_deref(), &entries);
    if let Err(error) = std::fs::write(&out, &body) {
        eprintln!("mani-bench: cannot write {out}: {error}");
        std::process::exit(1);
    }
    eprintln!("wrote {} entries to {out}", entries.len());

    if let Some(baseline_path) = compare {
        let failures = compare_with_baseline(&baseline_path, &entries, max_slowdown, threads);
        if failures > 0 {
            eprintln!(
                "mani-bench: {failures} gated kernel metric(s) regressed more than {:.0}% \
                 against {baseline_path}",
                max_slowdown * 100.0
            );
            std::process::exit(1);
        }
        eprintln!(
            "mani-bench: all gated kernel metrics within {:.0}% of {baseline_path}",
            max_slowdown * 100.0
        );
    }
}

/// The metrics the regression gate guards: `(kernel, field, what)` triples
/// where `field` is a best-of-run latency in nanoseconds (lower is better —
/// for a fixed grid point, latency slowdown equals throughput slowdown).
const GATED_METRICS: [(&str, &str, &str); 5] = [
    (
        "schulze_strongest_paths",
        "flat_serial_ns",
        "Schulze flat kernel",
    ),
    (
        "schulze_strongest_paths",
        "tiled_serial_ns",
        "Schulze tiled kernel (the engine's path)",
    ),
    ("matrix_build", "serial_ns", "matrix-build throughput"),
    ("make_mr_fair", "ns", "Make-MR-Fair correction"),
    ("wire_codec", "json_decode_ns", "JSON dataset decode"),
];

/// Diffs `fresh` against the baseline file and reports every gated metric.
/// Returns the number of metrics that regressed beyond `max_slowdown`.
/// Nothing passes silently: a gated kernel that ends up with **zero actual
/// comparisons** — renamed label, dropped or moved grid point, missing field
/// — counts as a failure, so neither a fresh-side nor a baseline-side grid
/// change can hollow the gate out by accident (mismatched points are
/// reported individually; re-baseline with `--out` after intentional
/// changes).
fn compare_with_baseline(
    path: &str,
    fresh: &[Entry],
    max_slowdown: f64,
    current_threads: usize,
) -> usize {
    let baseline = match Baseline::load(path) {
        Ok(baseline) => baseline,
        Err(error) => {
            eprintln!("mani-bench: cannot use baseline {path}: {error}");
            return 1;
        }
    };
    // Non-fatal: serial latencies gate fine across machines, but parallel
    // speedup figures recorded at a different thread count are not comparable
    // — a 1-thread baseline never exercised the parallel kernels at all.
    match baseline.threads_available {
        Some(baseline_threads) if baseline_threads != current_threads as u64 => {
            eprintln!(
                "mani-bench: WARNING: baseline {path} was recorded with threads_available = \
                 {baseline_threads}, this run has {current_threads} — parallel speedup figures \
                 are not comparable (re-baseline with --out on this machine to fix)"
            );
        }
        None => {
            eprintln!(
                "mani-bench: WARNING: baseline {path} does not record threads_available; \
                 cannot check thread-count comparability"
            );
        }
        _ => {}
    }
    let mut failures = 0usize;
    for (kernel, field, what) in GATED_METRICS {
        let mut compared = 0usize;
        for entry in fresh.iter().filter(|entry| entry.kernel == kernel) {
            let Some(fresh_ns) = entry.field_u64(field) else {
                eprintln!(
                    "  MISSING {what} n={} |R|={}: fresh run lacks `{field}`",
                    entry.n, entry.rankings
                );
                continue;
            };
            let Some(baseline_ns) = baseline.field(kernel, entry.n, entry.rankings, field) else {
                eprintln!(
                    "  SKIP {what} n={} |R|={}: no matching baseline entry (grid changed? \
                     re-baseline with --out)",
                    entry.n, entry.rankings
                );
                continue;
            };
            compared += 1;
            // Latency ratio on a fixed grid point == inverse throughput ratio.
            let slowdown = fresh_ns as f64 / baseline_ns.max(1) as f64 - 1.0;
            let verdict = if slowdown > max_slowdown {
                failures += 1;
                "FAIL"
            } else {
                "ok"
            };
            eprintln!(
                "  {verdict:4} {what} n={} |R|={}: baseline {baseline_ns} ns -> fresh {fresh_ns} ns \
                 ({:+.1}%)",
                entry.n,
                entry.rankings,
                slowdown * 100.0
            );
        }
        if compared == 0 {
            eprintln!(
                "  FAIL {what}: no `{kernel}` grid point was compared against the baseline — \
                 the gate would be guarding nothing"
            );
            failures += 1;
        }
    }
    failures
}

/// A parsed baseline file (the output of an earlier `--json` run).
struct Baseline {
    entries: Vec<serde::Value>,
    /// Thread count the baseline was recorded with: read from
    /// `meta.threads_available` (current format) or the top-level
    /// `threads_available` (pre-`meta` files).
    threads_available: Option<u64>,
}

impl Baseline {
    fn load(path: &str) -> Result<Self, String> {
        let text = std::fs::read_to_string(path).map_err(|e| e.to_string())?;
        let parsed: serde::Value =
            serde_json::from_str(&text).map_err(|e| format!("invalid JSON: {e}"))?;
        let entries = parsed
            .get("entries")
            .and_then(serde::Value::as_array)
            .ok_or_else(|| "no `entries` array".to_string())?
            .to_vec();
        let threads_available = as_u64(
            parsed
                .get("meta")
                .and_then(|meta| meta.get("threads_available"))
                .or_else(|| parsed.get("threads_available")),
        );
        Ok(Self {
            entries,
            threads_available,
        })
    }

    /// The integer `field` of the baseline entry matching a grid point.
    fn field(&self, kernel: &str, n: usize, rankings: usize, field: &str) -> Option<u64> {
        self.entries
            .iter()
            .find(|entry| {
                entry.get("kernel").and_then(serde::Value::as_str) == Some(kernel)
                    && as_u64(entry.get("n")) == Some(n as u64)
                    && as_u64(entry.get("rankings")) == Some(rankings as u64)
            })
            .and_then(|entry| as_u64(entry.get(field)))
    }
}

/// Integer view of a shim JSON value.
fn as_u64(value: Option<&serde::Value>) -> Option<u64> {
    match value? {
        serde::Value::UInt(u) => Some(*u),
        serde::Value::Int(i) if *i >= 0 => Some(*i as u64),
        _ => None,
    }
}

/// Best-of-`iters` wall-clock nanoseconds for `work`, which must return a
/// value (kept alive so the optimiser cannot delete the computation).
fn time_best<R>(iters: usize, mut work: impl FnMut() -> R) -> (u64, R) {
    let mut best = u64::MAX;
    let mut last = None;
    for _ in 0..iters.max(1) {
        let started = Instant::now();
        let result = work();
        best = best.min(started.elapsed().as_nanos() as u64);
        last = Some(result);
    }
    (best, last.expect("at least one iteration"))
}

fn ratio(baseline: u64, candidate: u64) -> f64 {
    if candidate == 0 {
        0.0
    } else {
        baseline as f64 / candidate as f64
    }
}

/// Per-point iteration cap: the CSRankings-scale points run fewer iterations
/// so the full grid and the CI smoke run stay wall-clock bounded (an n = 5000
/// Schulze solve is tens of seconds on one core — best-of-1 is the budget).
fn capped_iters(n: usize, iters: usize) -> usize {
    if n >= 5000 {
        1
    } else if n >= 1000 {
        iters.min(2)
    } else {
        iters
    }
}

/// Largest `n` at which the legacy nested-`Vec` Schulze kernel is still timed
/// (and its bit-identity checked). Beyond this the O(n³) legacy kernel alone
/// would dominate the run's wall clock, so large-n entries compare the flat,
/// tiled and parallel kernels against each other only.
const LEGACY_SCHULZE_MAX_N: usize = 512;

fn bench_matrix_build(n: usize, r: usize, parallel: &Parallelism, iters: usize) -> Entry {
    let fixture = BenchFixture::low_fair(n, r, 0.6, 0xA11CE);
    let (serial_ns, serial) = time_best(iters, || fixture.profile.precedence_matrix());
    let (parallel_ns, sharded) =
        time_best(iters, || fixture.profile.precedence_matrix_with(parallel));
    assert_eq!(serial, sharded, "sharded build must be bit-identical");
    Entry {
        kernel: "matrix_build",
        n,
        rankings: r,
        fields: vec![
            ("serial_ns".into(), serial_ns.to_string()),
            ("parallel_ns".into(), parallel_ns.to_string()),
            ("threads".into(), parallel.max_threads().to_string()),
            (
                "speedup_parallel_vs_serial".into(),
                format!("{:.3}", ratio(serial_ns, parallel_ns)),
            ),
        ],
    }
}

fn bench_schulze(n: usize, r: usize, parallel: &Parallelism, iters: usize) -> Entry {
    let fixture = BenchFixture::low_fair(n, r, 0.6, 0xB0B);
    let matrix = fixture.profile.precedence_matrix();
    let aggregator = SchulzeAggregator::new();
    let serial = Parallelism::serial();
    // Un-tiled flat serial kernel: the gated `flat_serial_ns` metric and the
    // denominator for the tiled/parallel speedup figures.
    let (flat_ns, flat) = time_best(iters, || aggregator.strongest_paths_flat(&matrix));
    // Tiled serial kernel under the auto tile policy (untiled below the
    // FW_TILE_MIN_N threshold, in which case this times the same flat path).
    let (tiled_ns, tiled) = time_best(iters, || {
        aggregator.strongest_paths_matrix(&matrix, &serial)
    });
    let (parallel_ns, tiled_par) = time_best(iters, || {
        aggregator.strongest_paths_matrix(&matrix, parallel)
    });
    assert_eq!(tiled, flat, "tiled kernel must be bit-identical");
    assert_eq!(tiled_par, flat, "parallel kernel must be bit-identical");
    let mut fields = vec![
        ("flat_serial_ns".into(), flat_ns.to_string()),
        ("tiled_serial_ns".into(), tiled_ns.to_string()),
        ("parallel_ns".into(), parallel_ns.to_string()),
        (
            "tile_size".into(),
            serial.fw_tile_size(n.max(1)).to_string(),
        ),
        ("threads".into(), parallel.max_threads().to_string()),
        (
            "speedup_tiled_vs_flat".into(),
            format!("{:.3}", ratio(flat_ns, tiled_ns)),
        ),
        (
            "speedup_parallel_vs_flat".into(),
            format!("{:.3}", ratio(flat_ns, parallel_ns)),
        ),
    ];
    if n <= LEGACY_SCHULZE_MAX_N {
        let (legacy_ns, reference) = time_best(iters, || aggregator.strongest_paths(&matrix));
        assert_eq!(
            flat.to_nested(),
            reference,
            "flat kernel must be bit-identical"
        );
        fields.push(("legacy_serial_ns".into(), legacy_ns.to_string()));
        fields.push((
            "speedup_flat_vs_legacy".into(),
            format!("{:.3}", ratio(legacy_ns, flat_ns)),
        ));
        fields.push((
            "speedup_parallel_vs_legacy".into(),
            format!("{:.3}", ratio(legacy_ns, parallel_ns)),
        ));
    }
    Entry {
        kernel: "schulze_strongest_paths",
        n,
        rankings: r,
        fields,
    }
}

fn bench_fair_kemeny(
    n: usize,
    r: usize,
    parallel: &Parallelism,
    iters: usize,
    smoke: bool,
) -> Entry {
    let fixture = BenchFixture::low_fair(n, r, 1.0, 0xFA18);
    let ctx = fixture.context(0.25);
    let budget = if smoke { 20_000 } else { 250_000 };
    let serial_config = SolverConfig::with_max_nodes(budget);
    let parallel_config = SolverConfig::with_max_nodes(budget).with_parallelism(*parallel);
    let (serial_ns, serial) = time_best(iters, || {
        FairKemeny::with_config(serial_config.clone())
            .solve(&ctx)
            .expect("Fair-Kemeny solve")
    });
    let (parallel_ns, outcome) = time_best(iters, || {
        FairKemeny::with_config(parallel_config.clone())
            .solve(&ctx)
            .expect("Fair-Kemeny solve")
    });
    if serial.optimal && outcome.optimal {
        assert_eq!(
            serial.ranking, outcome.ranking,
            "completed searches must agree"
        );
    }
    Entry {
        kernel: "fair_kemeny",
        n,
        rankings: r,
        fields: vec![
            ("serial_ns".into(), serial_ns.to_string()),
            ("parallel_ns".into(), parallel_ns.to_string()),
            ("threads".into(), parallel.max_threads().to_string()),
            (
                "speedup_parallel_vs_serial".into(),
                format!("{:.3}", ratio(serial_ns, parallel_ns)),
            ),
            ("nodes_explored".into(), serial.nodes_explored.to_string()),
            ("optimal".into(), serial.optimal.to_string()),
        ],
    }
}

/// Make-MR-Fair on the Fair-Borda consensus at Δ = 0.1: the correction that
/// Fair-Borda, Fair-Copeland and Fair-Schulze all end with. `swaps` and
/// `fallback_used` record what the timed pass did, so a row that got faster by
/// doing different work shows. Iterations are not capped: the correction takes
/// milliseconds at every grid point.
fn bench_make_mr_fair(n: usize, r: usize, iters: usize) -> Entry {
    let fixture = BenchFixture::low_fair(n, r, 0.6, 0xFA1B);
    let consensus = BordaAggregator::new().consensus(&fixture.profile);
    let thresholds = FairnessThresholds::uniform(0.1);
    let (ns, report) = time_best(iters, || {
        make_mr_fair(&consensus, &fixture.groups, &thresholds)
    });
    Entry {
        kernel: "make_mr_fair",
        n,
        rankings: r,
        fields: vec![
            ("ns".into(), ns.to_string()),
            ("swaps".into(), report.swaps.to_string()),
            ("fallback_used".into(), report.fallback_used.to_string()),
        ],
    }
}

/// Wire-codec throughput: the JSON and binary columnar dataset encodings,
/// encode and decode, on the same dataset. Rankings are the axis the two
/// representations diverge on (JSON repeats every candidate name per ranking
/// entry; columnar stores u32 ids), so the grid sweeps `|R|` at a fixed pool.
/// Both decoders run their full validation (columnar additionally re-checks
/// the header fingerprint), so the rows compare end-to-end upload costs.
fn bench_wire_codec(n: usize, r: usize, iters: usize) -> Entry {
    let fixture = BenchFixture::low_fair(n, r, 0.6, 0xC0DEC);
    let dataset = EngineDataset::new("bench-codec", fixture.db, fixture.profile)
        .expect("bench fixture dataset");

    let (json_encode_ns, json_text) = time_best(iters, || render(&dataset_to_value(&dataset)));
    let (json_decode_ns, json_twin) = time_best(iters, || {
        parse_dataset(&parse_body(&json_text).expect("bench JSON parses"))
            .expect("bench JSON decodes")
    });
    let (col_encode_ns, col_bytes) = time_best(iters, || encode_dataset(&dataset));
    let (col_decode_ns, col_twin) = time_best(iters, || {
        decode_dataset(&col_bytes).expect("bench columnar decodes")
    });
    assert_eq!(
        json_twin.fingerprint(),
        col_twin.fingerprint(),
        "codec twins must decode to the same dataset"
    );

    let mb_s = |bytes: usize, ns: u64| format!("{:.1}", bytes as f64 / ns.max(1) as f64 * 1e3);
    Entry {
        kernel: "wire_codec",
        n,
        rankings: r,
        fields: vec![
            ("json_bytes".into(), json_text.len().to_string()),
            ("col_bytes".into(), col_bytes.len().to_string()),
            (
                "size_ratio_json_vs_col".into(),
                format!(
                    "{:.3}",
                    ratio(json_text.len() as u64, col_bytes.len() as u64)
                ),
            ),
            ("json_encode_ns".into(), json_encode_ns.to_string()),
            ("json_decode_ns".into(), json_decode_ns.to_string()),
            ("col_encode_ns".into(), col_encode_ns.to_string()),
            ("col_decode_ns".into(), col_decode_ns.to_string()),
            (
                "json_encode_mb_s".into(),
                mb_s(json_text.len(), json_encode_ns),
            ),
            (
                "json_decode_mb_s".into(),
                mb_s(json_text.len(), json_decode_ns),
            ),
            (
                "col_encode_mb_s".into(),
                mb_s(col_bytes.len(), col_encode_ns),
            ),
            (
                "col_decode_mb_s".into(),
                mb_s(col_bytes.len(), col_decode_ns),
            ),
        ],
    }
}

/// Incremental-update kernel: one appended ranking applied as an O(n²) delta
/// (`PrecedenceMatrix::apply_append` on a clone of the warm parent — the same
/// clone-then-apply shape the engine's versioned cache uses) against a full
/// `from_rankings` rebuild over the edited profile. Rankings are the axis a
/// delta wins on (the rebuild is O(|R|·n²), the delta O(n²)), so the grid
/// sweeps `|R|` at a fixed pool. Not a `--compare`-gated metric: the delta
/// row records the speedup trajectory the incremental API rests on.
fn bench_delta_update(n: usize, r: usize, iters: usize) -> Entry {
    let fixture = BenchFixture::low_fair(n, r, 0.6, 0xDE17A);
    let edit = fixture.profile.rankings()[0].clone();
    let mut edited: Vec<Ranking> = fixture.profile.rankings().to_vec();
    edited.push(edit.clone());
    let (rebuild_ns, rebuilt) = time_best(iters, || {
        PrecedenceMatrix::from_rankings(&edited).expect("bench rebuild")
    });
    let base = fixture.profile.precedence_matrix();
    let (delta_ns, derived) = time_best(iters, || {
        let mut matrix = base.clone();
        matrix.apply_append(&edit, 1).expect("bench append delta");
        matrix
    });
    assert_eq!(derived, rebuilt, "append delta must be bit-identical");
    Entry {
        kernel: "delta_update",
        n,
        rankings: r,
        fields: vec![
            ("delta_append_ns".into(), delta_ns.to_string()),
            ("rebuild_ns".into(), rebuild_ns.to_string()),
            (
                "speedup_delta_vs_rebuild".into(),
                format!("{:.3}", ratio(rebuild_ns, delta_ns)),
            ),
        ],
    }
}

/// Renders the run as JSON: a `meta` header describing how the numbers were
/// produced (the `--compare` gate reads only `entries`, so the header can
/// grow freely without invalidating committed baselines) plus the entry rows.
fn render_json(
    threads: usize,
    iters: usize,
    smoke: bool,
    timestamp: Option<&str>,
    entries: &[Entry],
) -> String {
    let mut out = String::from("{\n");
    let _ = writeln!(out, "  \"meta\": {{");
    let _ = writeln!(out, "    \"generated_by\": \"mani-bench --json\",");
    let _ = writeln!(out, "    \"version\": \"{}\",", env!("CARGO_PKG_VERSION"));
    let _ = match timestamp {
        Some(stamp) => writeln!(out, "    \"timestamp\": \"{}\",", json_escape(stamp)),
        None => writeln!(out, "    \"timestamp\": null,"),
    };
    let _ = writeln!(
        out,
        "    \"grid\": \"{}\",",
        if smoke { "smoke" } else { "full" }
    );
    let _ = writeln!(out, "    \"threads_available\": {threads},");
    let _ = writeln!(out, "    \"iters\": {iters}");
    let _ = writeln!(out, "  }},");
    let _ = writeln!(out, "  \"entries\": [");
    for (index, entry) in entries.iter().enumerate() {
        let _ = write!(
            out,
            "    {{\"kernel\": \"{}\", \"n\": {}, \"rankings\": {}",
            entry.kernel, entry.n, entry.rankings
        );
        for (key, value) in &entry.fields {
            let _ = write!(out, ", \"{key}\": {value}");
        }
        let _ = writeln!(
            out,
            "}}{}",
            if index + 1 < entries.len() { "," } else { "" }
        );
    }
    out.push_str("  ]\n}\n");
    out
}

/// Escapes a user-supplied string for embedding in a JSON string literal.
fn json_escape(raw: &str) -> String {
    let mut out = String::with_capacity(raw.len());
    for c in raw.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            other if other.is_control() => {
                let _ = write!(out, "\\u{:04x}", other as u32);
            }
            other => out.push(other),
        }
    }
    out
}
