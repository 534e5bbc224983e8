//! `mani-bench` — JSON kernel-benchmark emitter and regression gate.
//!
//! ```text
//! cargo run -p mani-bench --release -- --json [--out BENCH_kernels.json] [--smoke]
//!     [--iters N] [--compare BASELINE.json [--max-slowdown 0.25]]
//! ```
//!
//! With `--compare`, the fresh run is diffed against a previously committed
//! baseline (same JSON format — any earlier `--out` file works): the gated
//! metrics are the `schulze_strongest_paths` **flat kernel**, **tiled
//! kernel** (`strongest_paths_matrix` at one thread: tiled from 512
//! candidates, flat below) and
//! **consensus** (`consensus_from_matrix_with`, the call the engine makes),
//! the **one-component Schulze consensus** (its worst case),
//! **`matrix_build` throughput**, **Make-MR-Fair** and **JSON dataset
//! decoding** (the last two run on every fair-method request and upload),
//! and any slowdown beyond `--max-slowdown` (default 25%) exits
//! non-zero. CI runs the smoke grid against `BENCH_baseline_smoke.json`; to
//! re-baseline after an intentional change (or a runner-hardware change —
//! baselines are machine-specific), copy the fresh JSON over the committed
//! baseline.
//!
//! Measures the intra-request kernels the engine's hot path is made of —
//! precedence-matrix construction, Schulze strongest paths, the Fair-Kemeny
//! branch and bound, and the Make-MR-Fair correction — at a grid of `(n, |R|)`
//! points, serial versus parallel where a parallel kernel runs at that size;
//! plus the wire codecs and the `delta_update` row comparing an append-1
//! precedence delta against a full rebuild. Parallel columns use the plain
//! thread budget `Parallelism::new(threads)`, the configuration
//! `mani serve --kernel-threads` reaches. Results are written as JSON so
//! successive PRs have a trajectory to compare against; CI smoke-runs the
//! tiny grid (`--smoke`) to keep this harness compiling and running.
//!
//! All timings are per-call wall-clock nanoseconds, best of at least `iters`
//! samples measured in the same process run, so speedup ratios compare like
//! with like. A call shorter than 1 ms is timed in batches that last at least
//! 1 ms per sample, so a microsecond kernel's sample is not mostly timer and
//! allocator noise, and one figure's samples span at least 250 ms. The smoke
//! grid runs three passes and keeps each timing's best; the ratio columns
//! are computed from the kept timings.

use std::fmt::Write as _;
use std::hint::black_box;
use std::time::{Duration, Instant};

use mani_aggregation::schulze::{FW_TILE, FW_TILE_MIN_N};
use mani_aggregation::{BordaAggregator, PathMatrix, SchulzeAggregator};
use mani_bench::BenchFixture;
use mani_core::{make_mr_fair, FairKemeny, MfcrMethod};
use mani_datagen::MallowsModel;
use mani_engine::EngineDataset;
use mani_fairness::FairnessThresholds;
use mani_ranking::parallel::tile_edge;
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

    /// Appends the columns computed from the row's timings, once the final
    /// timings are known: speed-ups as `numerator / denominator`
    /// ([`SPEEDUPS`]), the one-component consensus's overhead over the
    /// full-matrix path, and codec throughputs in MB/s.
    fn derive_ratios(&mut self) {
        let mut derived = Vec::new();
        for (column, numerator, denominator) in SPEEDUPS {
            if let (Some(a), Some(b)) = (self.field_u64(numerator), self.field_u64(denominator)) {
                derived.push((column, format!("{:.3}", ratio(a, b))));
            }
        }
        if let (Some(consensus), Some(full)) = (
            self.field_u64("consensus_ns"),
            self.field_u64("full_matrix_ns"),
        ) {
            let overhead = ratio(consensus, full) - 1.0;
            derived.push(("overhead_vs_full_matrix", format!("{overhead:.3}")));
        }
        for (column, bytes, ns) in THROUGHPUTS {
            if let (Some(bytes), Some(ns)) = (self.field_u64(bytes), self.field_u64(ns)) {
                let mb_s = bytes as f64 / ns.max(1) as f64 * 1e3;
                derived.push((column, format!("{mb_s:.1}")));
            }
        }
        self.fields.extend(
            derived
                .into_iter()
                .map(|(column, value)| (column.to_string(), value)),
        );
    }
}

/// Speed-up columns: `(column, numerator, denominator)` timing fields.
const SPEEDUPS: [(&str, &str, &str); 4] = [
    ("speedup_parallel_vs_serial", "serial_ns", "parallel_ns"),
    ("speedup_tiled_vs_flat", "flat_serial_ns", "tiled_serial_ns"),
    ("speedup_parallel_vs_flat", "flat_serial_ns", "parallel_ns"),
    ("speedup_delta_vs_rebuild", "rebuild_ns", "delta_append_ns"),
];

/// Codec throughput columns: `(column, byte-count field, timing field)`.
const THROUGHPUTS: [(&str, &str, &str); 4] = [
    ("json_encode_mb_s", "json_bytes", "json_encode_ns"),
    ("json_decode_mb_s", "json_bytes", "json_decode_ns"),
    ("col_encode_mb_s", "col_bytes", "col_encode_ns"),
    ("col_decode_mb_s", "col_bytes", "col_decode_ns"),
];

/// Passes over the smoke grid; each timing keeps its best pass. A core of
/// a shared virtual machine can stay slow for seconds, longer than one
/// figure's sampling span, so the passes sample every figure again seconds
/// later.
const SMOKE_PASSES: usize = 3;

/// Folds another pass over the same grid into `entries`: every timing field
/// (`ns` or `*_ns`) keeps the smaller value; other fields keep the first
/// pass's value.
fn keep_best_timings(entries: &mut [Entry], pass: Vec<Entry>) {
    for (entry, other) in entries.iter_mut().zip(pass) {
        assert_eq!(
            (entry.kernel, entry.n, entry.rankings),
            (other.kernel, other.n, other.rankings),
            "passes run the same grid"
        );
        for ((key, value), (_, other_value)) in entry.fields.iter_mut().zip(other.fields) {
            if key == "ns" || key.ends_with("_ns") {
                let best = value
                    .parse::<u64>()
                    .ok()
                    .zip(other_value.parse::<u64>().ok())
                    .map(|(a, b)| a.min(b));
                if let Some(best) = best {
                    *value = best.to_string();
                }
            }
        }
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
                     non-zero when a Schulze kernel or consensus, matrix-build throughput,\n\
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
    let parallel = Parallelism::new(threads);

    // (n, |R|) grid points per kernel; the smoke grid keeps CI runs in
    // seconds, and `time_best` batches its microsecond kernels into samples
    // of at least 1 ms spread over at least 250 ms, so best-of-N timings are
    // stable for the --compare gate. The smoke grid carries one large-n
    // Schulze point (n = 1000, iters capped by `capped_iters`) so the
    // regression gate exercises the tiled-kernel regime, and the full grid
    // extends to the CSRankings-scale points n ∈ {1000, 2000, 5000}. The
    // one-component Schulze points are the consensus's worst case (no
    // decomposition to exploit). The wire-codec grid sweeps ranking count
    // (the axis the two encodings diverge on) at a fixed candidate pool.
    let (
        matrix_grid,
        schulze_grid,
        one_component_grid,
        kemeny_grid,
        correction_grid,
        codec_grid,
        delta_grid,
        mut iters,
    ) = if smoke {
        (
            vec![(48, 64)],
            vec![(48, 24), (1000, 16)],
            vec![(1000, 51)],
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
            vec![(300, 51), (1000, 51), (2000, 51)],
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

    let run_grid = || {
        let mut entries = Vec::new();
        for &(n, r) in &matrix_grid {
            eprintln!("matrix-build n={n} |R|={r} ...");
            entries.push(bench_matrix_build(n, r, &parallel, capped_iters(n, iters)));
        }
        for &(n, r) in &schulze_grid {
            eprintln!("schulze n={n} |R|={r} ...");
            entries.push(bench_schulze(n, r, &parallel, iters));
        }
        for &(n, r) in &one_component_grid {
            eprintln!("schulze one-component n={n} |R|={r} ...");
            entries.push(bench_schulze_one_component(n, r, capped_iters(n, iters)));
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
        entries
    };
    let passes = if smoke { SMOKE_PASSES } else { 1 };
    let mut entries = run_grid();
    for _ in 1..passes {
        keep_best_timings(&mut entries, run_grid());
    }
    entries.iter_mut().for_each(Entry::derive_ratios);

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
const GATED_METRICS: [(&str, &str, &str); 7] = [
    (
        "schulze_strongest_paths",
        "flat_serial_ns",
        "Schulze flat kernel",
    ),
    (
        "schulze_strongest_paths",
        "tiled_serial_ns",
        "Schulze tiled kernel",
    ),
    (
        "schulze_strongest_paths",
        "consensus_ns",
        "Schulze consensus (the engine's call)",
    ),
    (
        "schulze_one_component",
        "consensus_ns",
        "Schulze consensus, one component",
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

/// Shortest timed sample: calls faster than this are timed in batches.
const MIN_SAMPLE: Duration = Duration::from_millis(1);

/// Shortest span over which one figure's samples are drawn.
const MIN_SPAN: Duration = Duration::from_millis(250);

/// Shortest round of samples taken on one thread before sampling moves to
/// the other thread.
const MIN_ROUND: Duration = Duration::from_millis(25);

/// Per-call wall-clock nanoseconds for `work`, best of at least `iters`
/// samples, and the value of its last call (kept alive so the optimiser
/// cannot delete the computation).
///
/// A sample times a batch of calls and reports their mean. The batch starts
/// at one call and doubles until it lasts [`MIN_SAMPLE`]; that batch is the
/// first sample, and the other samples use its size, so a call of at least
/// [`MIN_SAMPLE`] is timed alone. Sampling goes on until `iters` samples are
/// taken and [`MIN_SPAN`] has passed, in rounds of at least [`MIN_ROUND`]
/// that alternate between the calling thread and a scoped thread, which the
/// scheduler starts on the other core. On a shared virtual machine a core's
/// speed changes in phases (a 2-vCPU cloud VM measured 1.5–1.8× between
/// phases lasting from tens of milliseconds to tens of seconds, on each core
/// independently), so back-to-back samples on one core often all land in
/// one slow phase; the best sample across a span and both cores catches a
/// fast one. Rounds rather than single samples alternate, so a kernel's data
/// moves between the cores' caches once per round.
fn time_best<R: Send>(iters: usize, mut work: impl FnMut() -> R + Send) -> (u64, R) {
    let mut sample = |batch: u64| {
        let started = Instant::now();
        let mut last = black_box(work());
        for _ in 1..batch {
            last = black_box(work());
        }
        (started.elapsed(), last)
    };
    let span = Instant::now();
    let mut batch = 1u64;
    let (mut elapsed, mut last) = sample(batch);
    while elapsed < MIN_SAMPLE {
        batch *= 2;
        (elapsed, last) = sample(batch);
    }
    let mut best = elapsed.as_nanos() as u64 / batch;
    let mut samples = 1;
    let mut round = |samples: &mut usize| {
        let started = Instant::now();
        let mut best = u64::MAX;
        let mut last = None;
        while last.is_none() || started.elapsed() < MIN_ROUND {
            let (elapsed, value) = sample(batch);
            best = best.min(elapsed.as_nanos() as u64 / batch);
            last = Some(value);
            *samples += 1;
        }
        (best, last.expect("a round takes at least one sample"))
    };
    let mut rounds = 0;
    while samples < iters.max(1) || span.elapsed() < MIN_SPAN {
        let (round_best, value) = if rounds % 2 == 0 {
            std::thread::scope(|scope| {
                scope
                    .spawn(|| round(&mut samples))
                    .join()
                    .expect("bench sample panicked")
            })
        } else {
            round(&mut samples)
        };
        best = best.min(round_best);
        last = value;
        rounds += 1;
    }
    (best, last)
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
        ],
    }
}

/// The full-matrix kernels take `capped_iters`; the consensus takes all
/// `iters`, because on these Mallows profiles it costs milliseconds where the
/// kernels cost seconds, and a best-of-2 of milliseconds is too noisy to gate.
/// `parallel_ns` is timed only from [`FW_TILE_MIN_N`] candidates, where the
/// tiled kernel runs and splits by tile-row blocks; below it every thread
/// count runs the flat serial kernel.
fn bench_schulze(n: usize, r: usize, parallel: &Parallelism, consensus_iters: usize) -> Entry {
    let iters = capped_iters(n, consensus_iters);
    let fixture = BenchFixture::low_fair(n, r, 0.6, 0xB0B);
    let matrix = fixture.profile.precedence_matrix();
    let aggregator = SchulzeAggregator::new();
    let serial = Parallelism::serial();
    // Un-tiled flat serial kernel: the gated `flat_serial_ns` metric and the
    // denominator for the tiled/parallel speedup figures.
    let (flat_ns, flat) = time_best(iters, || aggregator.strongest_paths_flat(&matrix));
    // The dispatcher at one thread: tiled from FW_TILE_MIN_N, else the same
    // flat path.
    let (tiled_ns, tiled) = time_best(iters, || {
        aggregator.strongest_paths_matrix(&matrix, &serial)
    });
    assert_eq!(tiled, flat, "tiled kernel must be bit-identical");
    // The engine's call at kernel_threads = 1: strongest paths closed per
    // strongly connected component of the majority graph.
    let (consensus_ns, consensus) = time_best(consensus_iters, || {
        aggregator.consensus_from_matrix_with(&matrix, &serial)
    });
    assert_eq!(
        consensus,
        flat.ranking(),
        "consensus must rank as the full-matrix beat counts do"
    );
    let tile_size = tile_edge(n, FW_TILE_MIN_N, FW_TILE);
    let mut fields = vec![
        ("flat_serial_ns".into(), flat_ns.to_string()),
        ("tiled_serial_ns".into(), tiled_ns.to_string()),
        ("consensus_ns".into(), consensus_ns.to_string()),
        ("components".into(), majority_components(&flat).to_string()),
        ("tile_size".into(), tile_size.to_string()),
    ];
    if n >= FW_TILE_MIN_N {
        let (parallel_ns, tiled_par) = time_best(iters, || {
            aggregator.strongest_paths_matrix(&matrix, parallel)
        });
        assert_eq!(tiled_par, flat, "parallel kernel must be bit-identical");
        fields.extend([
            ("parallel_ns".into(), parallel_ns.to_string()),
            ("threads".into(), parallel.max_threads().to_string()),
        ]);
    }
    Entry {
        kernel: "schulze_strongest_paths",
        n,
        rankings: r,
        fields,
    }
}

/// The consensus's worst case: a uniform-random profile (Mallows θ = 0)
/// with odd |R| has no ties, and its majority tournament is one strongly
/// connected component, so the consensus closes the whole matrix like the
/// path it replaced. `full_matrix_ns` times that path (`strongest_paths_matrix`
/// then beat counts); `consensus_ns` should differ from it by the O(n²)
/// component scan only.
fn bench_schulze_one_component(n: usize, r: usize, iters: usize) -> Entry {
    let profile = MallowsModel::new(Ranking::identity(n), 0.0).sample_profile(r, 0x0C0DE);
    let matrix = profile.precedence_matrix();
    let aggregator = SchulzeAggregator::new();
    let serial = Parallelism::serial();
    // Interleaved, so host drift between the two timings cannot pose as
    // overhead, and each side frees its n² buffer before the other runs.
    let (mut full_matrix_ns, mut consensus_ns) = (u64::MAX, u64::MAX);
    for _ in 0..iters.max(1) {
        let (ns, reference) = time_best(1, || {
            aggregator
                .strongest_paths_matrix(&matrix, &serial)
                .ranking()
        });
        full_matrix_ns = full_matrix_ns.min(ns);
        let (ns, consensus) = time_best(1, || {
            aggregator.consensus_from_matrix_with(&matrix, &serial)
        });
        consensus_ns = consensus_ns.min(ns);
        assert_eq!(
            consensus, reference,
            "consensus must rank as the full-matrix beat counts do"
        );
    }
    let paths = aggregator.strongest_paths_matrix(&matrix, &serial);
    Entry {
        kernel: "schulze_one_component",
        n,
        rankings: r,
        fields: vec![
            ("consensus_ns".into(), consensus_ns.to_string()),
            ("full_matrix_ns".into(), full_matrix_ns.to_string()),
            ("components".into(), majority_components(&paths).to_string()),
        ],
    }
}

/// Strongly connected components of the strict-majority graph, counted from
/// the closure: two candidates share one exactly when each reaches the other
/// (`p > 0` both ways), so a candidate opens a component when it shares none
/// with a lower id.
fn majority_components(paths: &PathMatrix) -> usize {
    (0..paths.num_candidates())
        .filter(|&a| (0..a).all(|b| paths.strength(a, b) == 0 || paths.strength(b, a) == 0))
        .count()
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
