//! End-to-end loopback benchmark for `mani serve`.
//!
//! ```text
//! perfbench --server PATH --workload fair-solve|ingest|what-if --seed N
//!           --seconds S --trace 0|1 [--scale full|tiny]
//! ```
//!
//! Starts the server binary as a child process (default configuration apart
//! from address and log level), drives it over loopback HTTP/1.1 keep-alive,
//! checks every answer, and prints a report followed by one JSON result line.
//! `--trace 0` measures the end-to-end metrics; `--trace 1` is the traced run
//! that prints the per-layer metrics. See `README.md` beside this package.

mod data;
mod http;
mod json;
mod metrics;
mod server;
mod tally;
mod traced;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use crate::data::Digest;
use crate::http::Client;
use crate::json::Json;
use crate::metrics::{result_line, END_TO_END, PER_LAYER, REQUEST_LATENCIES};
use crate::tally::{median, Tally};
use crate::workloads::{Inputs, Outcome, Ready, Scale, Workload, DIGEST_PREFIX};

/// Server set-ups per end-to-end run; `setup_s` is their median.
const SETUP_REPEATS: usize = 9;
/// Samples a p90 needs so that at least ten lie beyond it.
const P90_MIN_SAMPLES: usize = 100;

struct Args {
    server: PathBuf,
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    scale: Scale,
    scale_name: String,
}

impl Args {
    fn parse() -> Result<Self, String> {
        let mut args = std::env::args().skip(1);
        let (mut server, mut workload, mut seed, mut seconds, mut trace) =
            (None, None, 1, 10.0, false);
        let (mut scale, mut scale_name) = (Scale::FULL, "full".to_string());
        while let Some(flag) = args.next() {
            let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
            match flag.as_str() {
                "--server" => server = Some(PathBuf::from(value)),
                "--workload" => {
                    workload = Some(
                        Workload::parse(&value)
                            .ok_or_else(|| format!("unknown workload {value}"))?,
                    )
                }
                "--seed" => seed = value.parse().map_err(|_| format!("bad --seed {value}"))?,
                "--seconds" => {
                    seconds = value
                        .parse()
                        .map_err(|_| format!("bad --seconds {value}"))?
                }
                "--trace" => trace = value == "1",
                "--scale" => {
                    scale = match value.as_str() {
                        "full" => Scale::FULL,
                        "tiny" => Scale::TINY,
                        _ => return Err(format!("unknown scale {value}")),
                    };
                    scale_name = value;
                }
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        Ok(Self {
            server: server.ok_or("--server is required")?,
            workload: workload.ok_or("--workload is required")?,
            seed,
            seconds,
            trace,
            scale,
            scale_name,
        })
    }
}

fn main() -> ExitCode {
    let args = match Args::parse() {
        Ok(args) => args,
        Err(error) => {
            eprintln!("perfbench: {error}");
            return ExitCode::from(2);
        }
    };
    println!(
        "perfbench workload={} seed={} seconds={} trace={} scale={}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        args.scale_name,
    );
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(error) => {
            eprintln!("perfbench: {error}");
            ExitCode::from(2)
        }
    }
}

/// Runs one workload and prints its report; `Ok(false)` means a failed
/// request or a wrong answer.
fn run(args: &Args) -> Result<bool, String> {
    let inputs = Inputs::generate(args.workload, args.scale, args.seed);
    let mut setups = Vec::new();
    let repeats = if args.trace { 1 } else { SETUP_REPEATS };
    let mut ready = None;
    for _ in 0..repeats {
        // Each set-up starts a fresh server; the previous one stops first.
        drop(ready.take());
        let next = workloads::setup(&args.server, &inputs)?;
        setups.push(next.setup_s);
        ready = Some(next);
    }
    let ready = ready.expect("at least one set-up");
    print_header(&ready)?;

    let seconds = Duration::from_secs_f64(args.seconds);
    if args.trace {
        return run_traced(args, &inputs, ready, seconds);
    }
    let mut outcome = workloads::run(
        args.workload,
        &inputs,
        &ready,
        args.seed,
        args.scale,
        Instant::now() + seconds,
        None,
    );
    let rss_after = args.scale.rss_after[args.workload as usize];
    let peak_rss_mb = outcome.peak_rss_mb.unwrap_or_else(|| {
        println!("note peak_rss_mb read at the end: the pass ended before {rss_after} units");
        ready.server.peak_rss_mb()
    });
    workloads::verify(args.workload, &inputs, ready.server.addr, &mut outcome);
    drop(ready);

    let tally = &outcome.tally;
    let consensus = tally.count("consensus");
    let metrics = [
        ("setup_s", median(&setups).unwrap_or_default(), setups.len()),
        (
            "throughput_rps",
            outcome.completed as f64 / outcome.elapsed_s,
            outcome.completed as usize,
        ),
        (
            "consensus_p50_ms",
            tally.percentile("consensus", 50.0).unwrap_or_default(),
            consensus,
        ),
        (
            "consensus_p90_ms",
            tally.percentile("consensus", 90.0).unwrap_or_default(),
            consensus,
        ),
        ("peak_rss_mb", peak_rss_mb, 1),
    ];
    debug_assert!(metrics
        .iter()
        .map(|m| m.0)
        .eq(END_TO_END.iter().map(|m| m.0)));
    for (name, value, samples) in metrics {
        print_metric(name, value, metrics::unit_of(name), samples);
    }
    let error_rate = tally.failed as f64 / tally.attempted.max(1) as f64;
    print_metric("error_rate", error_rate, "ratio", tally.attempted as usize);
    for (name, kind, p) in REQUEST_LATENCIES {
        if let Some(value) = tally.percentile(kind, p) {
            print_metric(name, value, "ms", tally.count(kind));
        }
    }
    let correct = finish_checks(args.workload, &outcome);
    let values: Vec<(&str, f64)> = metrics.iter().map(|(n, v, _)| (*n, *v)).collect();
    println!(
        "{}",
        result_line(correct, tally.attempted, tally.failed, &values)
    );
    Ok(correct)
}

fn run_traced(
    args: &Args,
    inputs: &Inputs,
    ready: Ready,
    seconds: Duration,
) -> Result<bool, String> {
    // Idle connections hold a server connection worker, so the stats client
    // connects only around the measured pass.
    let before = traced::stats(&mut Client::new(ready.server.addr))?;
    let mut outcome = workloads::run(
        args.workload,
        inputs,
        &ready,
        args.seed,
        args.scale,
        Instant::now() + seconds / 2,
        Some(4),
    );
    let mut client = Client::new(ready.server.addr);
    let after = traced::stats(&mut client)?;
    let floor = traced::keepalive_floor(&mut client)?;
    workloads::verify(args.workload, inputs, ready.server.addr, &mut outcome);
    drop(client);
    drop(ready);

    let mut layers = traced::http_layers(&outcome, &before, &after, floor);
    layers.extend(traced::in_process_layers(
        inputs,
        args.workload.clients(),
        seconds / 24,
    ));
    let http_p50 = outcome
        .tally
        .percentile("consensus", 50.0)
        .unwrap_or_default();
    traced::derived_layers(http_p50, &mut layers);

    print_metric(
        "http.consensus_p50_ms",
        http_p50,
        "ms",
        outcome.tally.count("consensus"),
    );
    print_metric(
        "http.async_jobs",
        outcome.jobs.len() as f64,
        "count",
        outcome.jobs.len(),
    );
    for (name, unit, moves) in PER_LAYER {
        let value = layers.get(name).copied().unwrap_or_default();
        println!("metric {name} {value} {unit} moves=\"{moves}\"");
    }
    let correct = finish_checks(args.workload, &outcome);
    let values: Vec<(&str, f64)> = PER_LAYER
        .iter()
        .map(|(n, _, _)| (*n, layers.get(n).copied().unwrap_or_default()))
        .collect();
    let tally = &outcome.tally;
    println!(
        "{}",
        result_line(correct, tally.attempted, tally.failed, &values)
    );
    Ok(correct)
}

/// The run header: what the numbers ran on.
fn print_header(ready: &Ready) -> Result<(), String> {
    let mut client = Client::new(ready.server.addr);
    let stats = traced::stats(&mut client)?;
    let version = client
        .get("/v1/version")
        .map_err(|e| format!("/v1/version: {e}"))
        .and_then(|r| json::parse(&r.body))?;
    let field = |doc: &Json, key: &str| match doc.get(key) {
        Some(Json::Str(s)) => s.clone(),
        Some(Json::Null) | None => "none".into(),
        Some(other) => format!("{other:?}"),
    };
    println!(
        "header threads_available={} engine_workers={} kernel_threads={} conn_threads={} version=\"{} {} git={} profile={}\"",
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        stats.num("engine/threads"),
        stats.num("engine/kernel_threads"),
        stats.num("server/conn_threads"),
        field(&version, "name"),
        field(&version, "version"),
        field(&version, "git"),
        field(&version, "profile"),
    );
    Ok(())
}

fn print_metric(name: &str, value: f64, unit: &str, samples: usize) {
    let note = if name.ends_with("_p90_ms") && samples < P90_MIN_SAMPLES {
        " (fewer than 100 samples)"
    } else {
        ""
    };
    println!("metric {name} {value} {unit} n={samples}{note}");
}

/// The checks each workload must run.
fn required_checks(workload: Workload) -> &'static [&'static str] {
    match workload {
        Workload::FairSolve => &["permutation", "fair_satisfied", "in_process_equal"],
        Workload::Ingest => &[
            "permutation",
            "fair_satisfied",
            "in_process_equal",
            "fingerprint",
            "twin_fingerprint",
        ],
        Workload::WhatIf => &[
            "permutation",
            "fair_satisfied",
            "in_process_equal",
            "fingerprint",
            "replay_equal",
        ],
    }
}

/// Prints every check, the errors, and the ranking digest; returns whether
/// the run is correct.
fn finish_checks(workload: Workload, outcome: &Outcome) -> bool {
    let tally: &Tally = &outcome.tally;
    let mut correct = tally.failed == 0 && tally.checks_passed();
    for name in required_checks(workload) {
        let [passed, failed] = tally.checks.get(name).copied().unwrap_or_default();
        if passed + failed == 0 {
            println!("check {name} did not run");
            correct = false;
        }
    }
    for (name, [passed, failed]) in &tally.checks {
        println!("check {name} passed={passed} failed={failed}");
    }
    for error in &tally.errors {
        println!("error {error}");
    }
    let mut entries: Vec<&(u64, String)> = tally.digest.iter().collect();
    entries.sort();
    let mut digest = Digest::default();
    for (seq, text) in &entries {
        digest.add(format!("{seq} {text}").as_bytes());
    }
    let complete = entries
        .iter()
        .map(|(seq, _)| seq)
        .collect::<std::collections::BTreeSet<_>>();
    println!(
        "digest {} over requests 0..{} ({} rankings{})",
        digest.hex(),
        DIGEST_PREFIX,
        entries.len(),
        if complete.len() as u64 == DIGEST_PREFIX {
            ""
        } else {
            ", prefix incomplete"
        }
    );
    println!(
        "requests attempted={} failed={} reconnects={}",
        tally.attempted, tally.failed, outcome.reconnects
    );
    correct
}
