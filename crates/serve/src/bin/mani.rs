//! `mani` — command-line front-end for the MANI-Rank batch consensus engine.
//!
//! ```text
//! mani consensus --dataset name=cands.csv:ranks.csv [--dataset ...] \
//!                [--methods Fair-Borda,Fair-Copeland] [--delta 0.1] \
//!                [--threads N] [--budget NODES] [--audit]
//! mani audit     --candidates cands.csv --rankings ranks.csv [--per-ranking]
//! mani session   --candidates cands.csv --rankings ranks.csv \
//!                --append "a,b,c" [--retract "c,b,a"] ...
//! mani dataset patch --candidates cands.csv --rankings ranks.csv \
//!                --append "a,b,c@2" [--out-rankings edited.csv]
//! mani serve     [--addr 127.0.0.1:8080] [--threads N] [--queue-depth N] \
//!                [--cache-capacity N] [--budget NODES]
//! mani sample    --dir DIR [--candidates N] [--rankings M] [--theta T] [--seed S]
//! mani methods
//! ```

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::Arc;

use mani_core::{MethodKind, MfcrContext};
use mani_datagen::{binary_population, FairnessTarget, MallowsModel, ModalRankingBuilder};
use mani_engine::{
    attribute_labels, audit_table, csvio, response_table, EngineConfig, EngineDataset, EngineError,
};
use mani_fairness::{FairnessAudit, FairnessThresholds};
use mani_ranking::GroupIndex;
use mani_serve::{Server, ServerConfig};
use mani_service::{
    dataset_to_value, obj, parse_solve, query_fields, render, s, with_entry, ApiError,
    RequestContext, Service, StreamSink,
};
use serde::Value;

const USAGE: &str = "\
mani — MANI-Rank batch consensus engine

USAGE:
    mani consensus --dataset NAME=CANDIDATES.csv:RANKINGS.csv ...  run a consensus batch
    mani audit     --candidates FILE --rankings FILE               audit base rankings
    mani session   --candidates FILE --rankings FILE --append ...  what-if session: one
                                                                   NDJSON consensus line
                                                                   per edit, delta-derived
    mani dataset patch --candidates FILE --rankings FILE ...       apply ranking edits and
                                                                   print the new version
    mani serve     [--addr HOST:PORT]                              start the HTTP API server
    mani sample    --dir DIR                                       write a demo dataset
    mani methods                                                   list available methods

CONSENSUS OPTIONS:
    --dataset NAME=CANDS:RANKS   dataset to solve (repeatable; ':' separates the two files)
    --candidates FILE            with --rankings: shorthand for a single dataset
    --rankings FILE
    --methods A,B,C              methods to run (default: the four proposed MFCR methods)
    --delta D                    uniform fairness threshold (default 0.1)
    --threads N                  worker threads (default: one per core)
    --kernel-threads N           threads within one solve for large datasets
                                 (default 1 = serial; 0 = one per core)
    --budget NODES               branch-and-bound node budget for exact methods
    --audit                      also print a per-group fairness audit per method
    --stream                     print each dataset's results the moment its
                                 solve completes (as-completed order) instead
                                 of waiting for the whole batch

AUDIT OPTIONS:
    --per-ranking                audit every base ranking (each run of repeats once,
                                 with its weight), not just the profile consensus

SESSION / DATASET PATCH OPTIONS:
    --candidates FILE            candidate CSV of the base dataset
    --rankings FILE              ranking CSV of the base dataset
    --append \"a,b,c[@W]\"         append a full ranking (comma-separated candidate
                                 names, optional @W weight); repeatable — edits
                                 apply in the order the flags appear
    --retract \"a,b,c[@W]\"        retract W copies of a ranking the profile holds
    --methods A,B,C              session only: methods to re-solve per edit
                                 (default: the four proposed MFCR methods)
    --delta D                    session only: uniform fairness threshold (default 0.1)
    --budget NODES               session only: branch-and-bound node budget
    --out-rankings FILE          dataset patch only: write the edited profile as CSV

SERVE OPTIONS (see docs/API.md for the JSON wire format):
    --addr HOST:PORT             listen address (default 127.0.0.1:8080; port 0 picks a free port)
    --threads N                  engine worker threads (default: one per core)
    --kernel-threads N           threads within one solve for large datasets
                                 (default 1 = serial; 0 = one per core)
    --queue-depth N              max in-flight async jobs before 429 (default 256)
    --cache-capacity N           response-cache entries (default 1024)
    --budget NODES               default branch-and-bound budget for exact methods
    --max-connections N          connections in flight before the accept path
                                 answers 503 (default 256)
    --conn-threads N             connection worker threads (default: min(8, cores))
    --idle-timeout-ms MS         keep-alive idle timeout (default 5000)
    --max-requests-per-conn N    exchanges per connection before Connection: close
                                 (default 128)
    --log-level LEVEL            structured-log verbosity to stderr: off, error,
                                 warn, info, debug, trace (default: MANI_LOG
                                 env var, else info; debug adds access lines)

SAMPLE OPTIONS:
    --dir DIR                    output directory (created if missing)
    --candidates N               population size (default 20)
    --rankings M                 number of base rankings (default 12)
    --theta T                    Mallows dispersion (default 0.8)
    --seed S                     RNG seed (default 42)
";

/// Prints to stdout, exiting quietly when the reader went away (e.g. piping
/// into `head` closes the pipe early; that is not an error).
fn emit(text: impl std::fmt::Display) {
    use std::io::Write;
    if writeln!(std::io::stdout(), "{text}").is_err() {
        std::process::exit(0);
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = args.first() else {
        eprint!("{USAGE}");
        return ExitCode::FAILURE;
    };
    let result = match command.as_str() {
        "consensus" => cmd_consensus(&args[1..]),
        "audit" => cmd_audit(&args[1..]),
        "session" => cmd_session(&args[1..]),
        "dataset" => cmd_dataset(&args[1..]),
        "serve" => cmd_serve(&args[1..]),
        "sample" => cmd_sample(&args[1..]),
        "methods" => cmd_methods(),
        "help" | "--help" | "-h" => {
            emit(USAGE.trim_end());
            Ok(())
        }
        other => Err(EngineError::invalid(format!(
            "unknown command `{other}` (try `mani help`)"
        ))),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            mani_obs::error!("mani", "command failed", error = e);
            ExitCode::FAILURE
        }
    }
}

// ---------------------------------------------------------------------------
// Argument parsing helpers (hand-rolled; the engine has no CLI dependencies)
// ---------------------------------------------------------------------------

struct Flags {
    values: Vec<(String, String)>,
    switches: Vec<String>,
}

impl Flags {
    fn parse(
        args: &[String],
        value_flags: &[&str],
        switch_flags: &[&str],
    ) -> Result<Self, EngineError> {
        let mut values = Vec::new();
        let mut switches = Vec::new();
        let mut iter = args.iter().peekable();
        while let Some(arg) = iter.next() {
            let name = arg
                .strip_prefix("--")
                .ok_or_else(|| EngineError::invalid(format!("unexpected argument `{arg}`")))?;
            if switch_flags.contains(&name) {
                switches.push(name.to_string());
            } else if value_flags.contains(&name) {
                let value = iter
                    .next()
                    .ok_or_else(|| EngineError::invalid(format!("--{name} needs a value")))?;
                values.push((name.to_string(), value.clone()));
            } else {
                return Err(EngineError::invalid(format!("unknown flag `--{name}`")));
            }
        }
        Ok(Self { values, switches })
    }

    fn get(&self, name: &str) -> Option<&str> {
        self.values
            .iter()
            .rev()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    fn get_all<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a str> {
        self.values
            .iter()
            .filter(move |(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    fn has(&self, name: &str) -> bool {
        self.switches.iter().any(|s| s == name)
    }

    fn get_parsed<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, EngineError> {
        match self.get(name) {
            None => Ok(default),
            Some(raw) => raw
                .parse()
                .map_err(|_| EngineError::invalid(format!("cannot parse --{name} value `{raw}`"))),
        }
    }
}

// ---------------------------------------------------------------------------
// Commands
// ---------------------------------------------------------------------------

fn cmd_consensus(args: &[String]) -> Result<(), EngineError> {
    let flags = Flags::parse(
        args,
        &[
            "dataset",
            "candidates",
            "rankings",
            "methods",
            "delta",
            "threads",
            "kernel-threads",
            "budget",
        ],
        &["audit", "stream"],
    )?;

    // Collect datasets from --dataset specs and/or the --candidates/--rankings pair.
    let mut datasets: Vec<Arc<EngineDataset>> = Vec::new();
    for spec in flags.get_all("dataset") {
        datasets.push(Arc::new(load_dataset_spec(spec)?));
    }
    match (flags.get("candidates"), flags.get("rankings")) {
        (Some(cands), Some(ranks)) => {
            let db = csvio::load_candidates(Path::new(cands))?;
            let profile = csvio::load_rankings(Path::new(ranks), &db)?;
            let name = Path::new(cands)
                .file_stem()
                .map(|s| s.to_string_lossy().into_owned())
                .unwrap_or_else(|| "dataset".into());
            datasets.push(Arc::new(EngineDataset::new(name, db, profile)?));
        }
        (None, None) => {}
        _ => {
            return Err(EngineError::invalid(
                "--candidates and --rankings must be given together",
            ))
        }
    }
    if datasets.is_empty() {
        return Err(EngineError::invalid(
            "no datasets: pass --dataset NAME=CANDS:RANKS or --candidates/--rankings",
        ));
    }

    let threads: usize = flags.get_parsed("threads", 0)?;
    let kernel_threads: usize = flags.get_parsed("kernel-threads", 1)?;
    // Every request is read before any solve, by the reader the HTTP API
    // uses, so a bad option fails the whole run up front.
    let fields = solve_fields(&flags)?;
    let requests = datasets
        .iter()
        .map(|ds| parse_solve(Arc::clone(ds), &fields))
        .collect::<Result<Vec<_>, _>>()
        .map_err(service_error)?;

    // Local solves ride the same transport-agnostic service core the HTTP
    // front-end uses — one submission path, one cache stack, one stats story.
    let service = Service::new(
        EngineConfig {
            threads,
            kernel_threads,
            // Both CLI paths ride the async submission queue; size it to the
            // batch so a many-dataset run is never rejected for a capacity
            // bound meant for network backpressure.
            queue_depth: datasets.len(),
            ..EngineConfig::default()
        },
        0,
    );

    // Prints one dataset's response (and optional audits); returns its
    // failure count. Shared by the blocking and streaming paths.
    let print_response =
        |dataset: &EngineDataset, response: &mani_engine::ConsensusResponse| -> usize {
            emit(response_table(response, &attribute_labels(dataset.db())).render());
            if flags.has("audit") {
                let groups = GroupIndex::new(dataset.db());
                for result in response.successes() {
                    let audit = FairnessAudit::new(
                        result.outcome.method,
                        &result.outcome.ranking,
                        dataset.db(),
                        &groups,
                    );
                    emit(audit_table(&audit).render());
                }
            }
            response.results.iter().filter(|r| r.is_err()).count()
        };

    let started = std::time::Instant::now();
    let mut failures = 0usize;
    let mut method_runs = 0usize;
    if flags.has("stream") {
        // Streaming batch mode: each dataset's table prints the moment its
        // solve completes, in as-completed order — fast datasets are not
        // held hostage by the slowest exact solve in the batch.
        let mut batch = service.submit_streaming(&requests).map_err(service_error)?;
        let total = batch.len();
        let mut done = 0usize;
        while let Some(item) = batch.wait_next() {
            done += 1;
            let dataset = &datasets[item.index];
            emit(format!(
                "[{done}/{total}] {} ({}, {:.1} ms solve)",
                dataset.name(),
                item.id,
                item.response.total_solve_time.as_secs_f64() * 1e3,
            ));
            method_runs += item.response.results.len();
            failures += print_response(dataset, &item.response);
        }
    } else {
        let handles = service.submit(&requests).map_err(service_error)?;
        for (dataset, handle) in datasets.iter().zip(&handles) {
            let response = handle.wait();
            method_runs += response.results.len();
            failures += print_response(dataset, &response);
        }
    }
    let wall = started.elapsed();
    let engine = service.engine();
    let stats = engine.cache().stats();
    emit(format!("batch: {} dataset(s), {} method run(s), {} matrix build(s), {} cache hit(s), {:.1} ms wall on {} thread(s)",
        datasets.len(),
        method_runs,
        stats.builds,
        stats.hits,
        wall.as_secs_f64() * 1e3,
        engine.threads(),
    ));
    if failures > 0 {
        return Err(EngineError::invalid(format!(
            "{failures} method run(s) failed"
        )));
    }
    Ok(())
}

fn cmd_audit(args: &[String]) -> Result<(), EngineError> {
    let flags = Flags::parse(args, &["candidates", "rankings"], &["per-ranking"])?;
    let cands = flags
        .get("candidates")
        .ok_or_else(|| EngineError::invalid("--candidates is required"))?;
    let ranks = flags
        .get("rankings")
        .ok_or_else(|| EngineError::invalid("--rankings is required"))?;
    let db = csvio::load_candidates(Path::new(cands))?;
    let profile = csvio::load_rankings(Path::new(ranks), &db)?;
    let groups = GroupIndex::new(&db);

    if flags.has("per-ranking") {
        // One audit per run, labelled by the index of its first copy.
        let mut first = 0u64;
        for (ranking, weight) in profile.runs() {
            let label = match weight {
                1 => format!("ranking-{first}"),
                _ => format!("ranking-{first} (weight {weight})"),
            };
            first += u64::from(weight);
            emit(audit_table(&FairnessAudit::new(label, ranking, &db, &groups)).render());
        }
    }

    // Always audit the unconstrained pairwise consensus as the headline view.
    let ctx = MfcrContext::new(&db, &groups, &profile, FairnessThresholds::uniform(0.1));
    let outcome = MethodKind::FairCopeland
        .instantiate()
        .solve(&ctx)
        .map_err(EngineError::from)?;
    let consensus_audit = FairnessAudit::new("Fair-Copeland", &outcome.ranking, &db, &groups);
    emit(audit_table(&consensus_audit).render());
    let unfair = mani_aggregation::CopelandAggregator::new().consensus(&profile);
    let unfair_audit = FairnessAudit::new("Copeland (unconstrained)", &unfair, &db, &groups);
    emit(audit_table(&unfair_audit).render());
    Ok(())
}

/// Sink that prints each NDJSON line to stdout the moment it is emitted.
struct StdoutSink;

impl StreamSink for StdoutSink {
    type Error = std::convert::Infallible;

    fn emit_line(&mut self, line: &str) -> Result<(), Self::Error> {
        emit(line.trim_end_matches('\n'));
        Ok(())
    }
}

/// Loads the `--candidates`/`--rankings` pair as one engine dataset.
fn load_pair(flags: &Flags) -> Result<EngineDataset, EngineError> {
    let cands = flags
        .get("candidates")
        .ok_or_else(|| EngineError::invalid("--candidates is required"))?;
    let ranks = flags
        .get("rankings")
        .ok_or_else(|| EngineError::invalid("--rankings is required"))?;
    let db = csvio::load_candidates(Path::new(cands))?;
    let profile = csvio::load_rankings(Path::new(ranks), &db)?;
    let name = Path::new(cands)
        .file_stem()
        .map(|stem| stem.to_string_lossy().into_owned())
        .unwrap_or_else(|| "dataset".into());
    EngineDataset::new(name, db, profile)
}

/// Collects `--append`/`--retract` flags, in the order they appeared, as
/// edit-op objects: `NAMES[@WEIGHT]` where `NAMES` is the full candidate
/// list, comma-separated.
fn parse_edit_flags(flags: &Flags) -> Result<Vec<Value>, EngineError> {
    let mut ops = Vec::new();
    for (name, raw) in &flags.values {
        if name != "append" && name != "retract" {
            continue;
        }
        let (list, weight) = match raw.split_once('@') {
            Some((list, w)) => {
                let weight: u64 = w.parse().map_err(|_| {
                    EngineError::invalid(format!("cannot parse weight in --{name} `{raw}`"))
                })?;
                (list, weight)
            }
            None => (raw.as_str(), 1),
        };
        let ranking: Vec<Value> = list
            .split(',')
            .map(str::trim)
            .filter(|n| !n.is_empty())
            .map(s)
            .collect();
        if ranking.is_empty() {
            return Err(EngineError::invalid(format!(
                "--{name} needs a comma-separated candidate list, got `{raw}`"
            )));
        }
        ops.push(obj(vec![
            ("op", s(name.as_str())),
            ("ranking", Value::Array(ranking)),
            ("weight", Value::UInt(weight)),
        ]));
    }
    if ops.is_empty() {
        return Err(EngineError::invalid(
            "no edits: pass --append and/or --retract flags",
        ));
    }
    Ok(ops)
}

fn cmd_session(args: &[String]) -> Result<(), EngineError> {
    let flags = Flags::parse(
        args,
        &[
            "candidates",
            "rankings",
            "append",
            "retract",
            "methods",
            "delta",
            "threads",
            "kernel-threads",
            "budget",
        ],
        &[],
    )?;
    let dataset = load_pair(&flags)?;
    let ops = parse_edit_flags(&flags)?;
    let threads: usize = flags.get_parsed("threads", 0)?;
    let kernel_threads: usize = flags.get_parsed("kernel-threads", 1)?;

    let service = Service::new(
        EngineConfig {
            threads,
            kernel_threads,
            ..EngineConfig::default()
        },
        0,
    );
    // One edit per flag: the session streams one consensus line per op.
    let body = with_entry(
        with_entry(solve_fields(&flags)?, "dataset", dataset_to_value(&dataset)),
        "edits",
        Value::Array(ops),
    );
    let ctx = RequestContext::new(None);
    let session = service.session(&body, &ctx).map_err(service_error)?;
    match service.drive(session, &mut StdoutSink) {
        Ok(()) => Ok(()),
        Err(never) => match never {},
    }
}

fn cmd_dataset(args: &[String]) -> Result<(), EngineError> {
    match args.first().map(String::as_str) {
        Some("patch") => cmd_dataset_patch(&args[1..]),
        Some(other) => Err(EngineError::invalid(format!(
            "unknown dataset subcommand `{other}` (try `mani dataset patch`)"
        ))),
        None => Err(EngineError::invalid(
            "dataset needs a subcommand (try `mani dataset patch`)",
        )),
    }
}

fn cmd_dataset_patch(args: &[String]) -> Result<(), EngineError> {
    let flags = Flags::parse(
        args,
        &[
            "candidates",
            "rankings",
            "append",
            "retract",
            "out-rankings",
        ],
        &[],
    )?;
    let dataset = load_pair(&flags)?;
    let ops = parse_edit_flags(&flags)?;

    let service = Service::new(
        EngineConfig {
            threads: 1,
            ..EngineConfig::default()
        },
        0,
    );
    let registered = service
        .register_dataset(Arc::new(dataset))
        .map_err(service_error)?;
    let id = registered
        .get("id")
        .and_then(Value::as_str)
        .ok_or_else(|| EngineError::invalid("registration returned no id"))?
        .to_string();
    let body = obj(vec![("ops", Value::Array(ops))]);
    let patched = service.dataset_patch(&id, &body).map_err(service_error)?;
    emit(render(&patched));
    if let Some(out) = flags.get("out-rankings") {
        let current = service
            .datasets()
            .resolve_current(&id)
            .map_err(service_error)?;
        csvio::save_rankings(
            current.dataset.profile(),
            current.dataset.db(),
            Path::new(out),
        )?;
        emit(format!(
            "wrote {} rankings to {out}",
            current.dataset.num_rankings()
        ));
    }
    Ok(())
}

fn cmd_serve(args: &[String]) -> Result<(), EngineError> {
    let flags = Flags::parse(
        args,
        &[
            "addr",
            "threads",
            "kernel-threads",
            "queue-depth",
            "cache-capacity",
            "budget",
            "max-connections",
            "conn-threads",
            "idle-timeout-ms",
            "max-requests-per-conn",
            "log-level",
        ],
        &[],
    )?;
    if let Some(raw) = flags.get("log-level") {
        let level = mani_obs::Level::parse(raw).ok_or_else(|| {
            EngineError::invalid(format!(
                "cannot parse --log-level value `{raw}` (expected off, error, warn, info, debug, or trace)"
            ))
        })?;
        mani_obs::set_level(level);
    }
    let addr = flags.get("addr").unwrap_or("127.0.0.1:8080").to_string();
    let threads: usize = flags.get_parsed("threads", 0)?;
    let kernel_threads: usize = flags.get_parsed("kernel-threads", 1)?;
    let queue_depth: usize = flags.get_parsed("queue-depth", 0)?;
    let cache_capacity: usize = flags.get_parsed("cache-capacity", 0)?;
    let max_connections: usize = flags.get_parsed("max-connections", 0)?;
    let conn_threads: usize = flags.get_parsed("conn-threads", 0)?;
    let idle_timeout_ms: u64 = flags.get_parsed("idle-timeout-ms", 0)?;
    let max_requests_per_conn: usize = flags.get_parsed("max-requests-per-conn", 0)?;
    let budget: Option<u64> =
        match flags.get("budget") {
            Some(raw) => Some(raw.parse().map_err(|_| {
                EngineError::invalid(format!("cannot parse --budget value `{raw}`"))
            })?),
            None => None,
        };

    let server = Server::bind(
        &addr,
        ServerConfig {
            engine: EngineConfig {
                threads,
                default_budget: budget,
                queue_depth,
                kernel_threads,
            },
            cache_capacity,
            max_connections,
            conn_threads,
            idle_timeout: std::time::Duration::from_millis(idle_timeout_ms),
            max_requests_per_conn,
            ..ServerConfig::default()
        },
    )?;
    let local = server.local_addr()?;
    let engine = server.state().engine();
    emit(format!(
        "mani-serve listening on http://{local} — {} engine worker(s), queue depth {}, response cache {} entries, {} connection worker(s), {} connections max (keep-alive on)",
        engine.threads(),
        engine.queue_depth(),
        server.state().response_cache().capacity(),
        server.conn_threads(),
        server.max_connections(),
    ));
    emit("endpoints: POST /v1/consensus  POST /v1/audit  POST /v1/sessions  POST /v1/datasets  GET|PATCH|DELETE /v1/datasets/{id}  GET /v1/jobs/{id}  GET /v1/jobs/{id}/trace  GET /v1/methods  GET /v1/stats  GET /v1/version  GET /metrics");
    server.run().map_err(EngineError::from)
}

fn cmd_sample(args: &[String]) -> Result<(), EngineError> {
    let flags = Flags::parse(
        args,
        &["dir", "candidates", "rankings", "theta", "seed"],
        &[],
    )?;
    let dir = PathBuf::from(
        flags
            .get("dir")
            .ok_or_else(|| EngineError::invalid("--dir is required"))?,
    );
    let n: usize = flags.get_parsed("candidates", 20)?;
    let m: usize = flags.get_parsed("rankings", 12)?;
    let theta: f64 = flags.get_parsed("theta", 0.8)?;
    let seed: u64 = flags.get_parsed("seed", 42)?;

    let db = binary_population(n.max(4), 0.5, 0.5, seed);
    let modal = ModalRankingBuilder::new(&db).build(&FairnessTarget::low_fair(2));
    let profile = MallowsModel::new(modal, theta).sample_profile(m.max(1), seed ^ 0xC0FFEE);

    std::fs::create_dir_all(&dir)?;
    let cands_path = dir.join("candidates.csv");
    let ranks_path = dir.join("rankings.csv");
    csvio::save_candidates(&db, &cands_path)?;
    csvio::save_rankings(&profile, &db, &ranks_path)?;
    emit(format!(
        "wrote {} candidates to {} and {} rankings to {}",
        db.len(),
        cands_path.display(),
        profile.len(),
        ranks_path.display(),
    ));
    emit(format!(
        "try: mani consensus --candidates {} --rankings {} --delta 0.1",
        cands_path.display(),
        ranks_path.display(),
    ));
    Ok(())
}

fn cmd_methods() -> Result<(), EngineError> {
    emit("available methods (pass to --methods, comma-separated):");
    for kind in MethodKind::all() {
        emit(format!("  {:<22} {}", kind.name(), kind.paper_label()));
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Shared helpers
// ---------------------------------------------------------------------------

fn load_dataset_spec(spec: &str) -> Result<EngineDataset, EngineError> {
    let (name, files) = spec.split_once('=').ok_or_else(|| {
        EngineError::invalid(format!(
            "--dataset expects NAME=CANDIDATES.csv:RANKINGS.csv, got `{spec}`"
        ))
    })?;
    let (cands, ranks) = files.split_once(':').ok_or_else(|| {
        EngineError::invalid(format!(
            "--dataset expects NAME=CANDIDATES.csv:RANKINGS.csv, got `{spec}`"
        ))
    })?;
    let db = csvio::load_candidates(Path::new(cands))?;
    let profile = csvio::load_rankings(Path::new(ranks), &db)?;
    EngineDataset::new(name, db, profile)
}

/// The solve fields of `--methods`, `--delta` and `--budget`, read as the
/// service reads a columnar upload's query string.
fn solve_fields(flags: &Flags) -> Result<Value, EngineError> {
    let given = ["methods", "delta", "budget"]
        .into_iter()
        .filter_map(|name| flags.get(name).map(|raw| (name, raw)));
    query_fields(given).map_err(service_error)
}

/// Reports a service error as the CLI's error type.
fn service_error(error: ApiError) -> EngineError {
    EngineError::invalid(error.message)
}
