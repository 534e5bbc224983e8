//! The three closed-loop workloads over HTTP: each client sends its next
//! request only after the previous reply has arrived and been checked.

use std::collections::{BTreeMap, HashMap};
use std::net::SocketAddr;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::{Duration, Instant};

use mani_bench::BenchFixture;
use mani_engine::EngineDataset;
use mani_ranking::{Ranking, RankingProfile};

use crate::data::{consensus_body, derive_seed, session_body, Data, Rng, THETA};
use crate::http::{Client, Response};
use crate::json::{self, Json};
use crate::server::ServerProcess;
use crate::tally::Tally;

pub const JSON_TYPE: &str = "application/json";
pub const COLUMNAR_TYPE: &str = mani_service::COLUMNAR_CONTENT_TYPE;

/// The fair-solve rotation, one method per request.
pub const FAIR_METHODS: [&str; 3] = ["Fair-Borda", "Fair-Copeland", "Fair-Schulze"];
/// The what-if solve: both methods in one request.
pub const WHATIF_METHODS: [&str; 2] = ["Fair-Borda", "Fair-Schulze"];
/// Δ of every ingest and what-if solve.
pub const DELTA: f64 = 0.1;
/// Fair-solve datasets registered at set-up: request `k` solves dataset
/// `⌊k/3⌋ mod 4`, so a run's medians average over four datasets instead of
/// resting on one seed's Make-MR-Fair swap counts.
pub const FAIR_DATASETS: usize = 4;
/// Requests with a sequence number below this feed the ranking digest.
pub const DIGEST_PREFIX: u64 = 32;
/// A what-if session opens every this many iterations.
const SESSION_EVERY: u64 = 4;
/// Edits per what-if session.
const SESSION_EDITS: usize = 8;
/// Spare rankings generated beside the what-if base profile for edits.
const WHATIF_POOL: usize = 1024;
/// Seed streams, so each workload draws independent datasets.
const STREAM_INGEST: u64 = 1;
const STREAM_FAIR: u64 = 2;

/// Fair-solve Δ of request `k`: distinct per request, so the response cache
/// never hits while the precedence matrix stays warm.
pub fn fair_delta(k: u64) -> f64 {
    0.1 + k as f64 * 1e-6
}

/// Dataset sizes `(candidates, rankings)` per workload, and the units of work
/// of a pass (fair-solve requests, ingest cycles, what-if iterations) per
/// workload, indexed by [`Workload`].
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    pub fair_solve: (usize, usize),
    pub ingest: (usize, usize),
    pub what_if: (usize, usize),
    /// The unit whose completion reads the server's `VmHWM` for
    /// `peak_rss_mb`. The engine's precedence cache never evicts, so the
    /// high-water mark at the end of a pass grows with the units a faster
    /// server fits into it; read after a fixed count, it does not. At this
    /// scale the current server reaches it within the first quarter of a
    /// 30 s pass.
    pub rss_after: [u64; 3],
    /// The most units a pass runs, even before its deadline, so that a much
    /// faster server cannot grow that cache without bound (what-if adds about
    /// 3 MB per iteration).
    pub max_units: [u64; 3],
}

impl Scale {
    pub const FULL: Scale = Scale {
        fair_solve: (1000, 50),
        ingest: (100, 50),
        what_if: (300, 200),
        rss_after: [48, 64, 32],
        max_units: [4096, 2048, 192],
    };
    /// The self-test's scale: every path runs, in a fraction of a second.
    pub const TINY: Scale = Scale {
        fair_solve: (40, 10),
        ingest: (20, 10),
        what_if: (30, 20),
        rss_after: [2, 2, 2],
        max_units: [4096, 2048, 192],
    };
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    FairSolve = 0,
    Ingest = 1,
    WhatIf = 2,
}

impl Workload {
    pub fn parse(name: &str) -> Option<Self> {
        match name {
            "fair-solve" => Some(Self::FairSolve),
            "ingest" => Some(Self::Ingest),
            "what-if" => Some(Self::WhatIf),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Self::FairSolve => "fair-solve",
            Self::Ingest => "ingest",
            Self::WhatIf => "what-if",
        }
    }

    pub fn clients(self) -> usize {
        match self {
            Self::FairSolve | Self::Ingest => 2,
            Self::WhatIf => 1,
        }
    }
}

/// Phase timings of one async job, from `GET /v1/jobs/{id}/trace`, per
/// method where the engine ran several.
#[derive(Debug, Clone, Copy)]
pub struct JobTrace {
    pub queue_wait_ms: f64,
    pub solve_ms: f64,
    pub span_ms: f64,
}

/// One client: its connection, what it recorded, and (in the traced run)
/// the job traces of its async requests.
pub struct Agent {
    pub client: Client,
    pub tally: Tally,
    /// Every this-many-th consensus request is sent async and polled.
    pub async_every: Option<u64>,
    pub jobs: Vec<JobTrace>,
}

impl Agent {
    pub fn new(addr: SocketAddr, async_every: Option<u64>) -> Self {
        Self {
            client: Client::new(addr),
            tally: Tally::default(),
            async_every,
            jobs: Vec::new(),
        }
    }

    /// One request that must answer `expect`; its latency is recorded under
    /// `kind` when given.
    pub fn call(
        &mut self,
        kind: Option<&'static str>,
        method: &str,
        path: &str,
        content_type: &str,
        body: &[u8],
        expect: u16,
    ) -> Option<Response> {
        self.tally.attempted += 1;
        let started = Instant::now();
        match self.client.send(method, path, content_type, body) {
            Ok(response) if response.status == expect => {
                if let Some(kind) = kind {
                    self.tally
                        .sample(kind, started.elapsed().as_secs_f64() * 1e3);
                }
                Some(response)
            }
            Ok(response) => {
                let text = String::from_utf8_lossy(&response.body);
                let text: String = text.chars().take(200).collect();
                self.tally.fail(format!(
                    "{method} {path}: HTTP {} (expected {expect}): {text}",
                    response.status
                ));
                None
            }
            Err(error) => {
                self.tally.fail(format!("{method} {path}: {error}"));
                None
            }
        }
    }

    /// [`Agent::call`] plus parsing the JSON body.
    pub fn call_json(
        &mut self,
        kind: Option<&'static str>,
        method: &str,
        path: &str,
        content_type: &str,
        body: &[u8],
        expect: u16,
    ) -> Option<Json> {
        let response = self.call(kind, method, path, content_type, body, expect)?;
        match json::parse(&response.body) {
            Ok(doc) => Some(doc),
            Err(error) => {
                self.tally
                    .fail(format!("{method} {path}: unparsable body: {error}"));
                None
            }
        }
    }

    /// A consensus request; `body(wait)` renders it. Request `seq` goes async
    /// when the traced run samples it.
    pub fn solve(&mut self, seq: u64, body: impl Fn(bool) -> String) -> Option<Json> {
        if self
            .async_every
            .is_some_and(|every| seq.is_multiple_of(every))
        {
            return self.solve_async(&body(false));
        }
        self.call_json(
            Some("consensus"),
            "POST",
            "/v1/consensus",
            JSON_TYPE,
            body(true).as_bytes(),
            200,
        )
    }

    /// Submits without waiting, polls the job to completion, and records its
    /// phase trace. Returns the completed job document.
    fn solve_async(&mut self, body: &str) -> Option<Json> {
        let accepted = self.call_json(
            Some("consensus_async"),
            "POST",
            "/v1/consensus",
            JSON_TYPE,
            body.as_bytes(),
            202,
        )?;
        let Some(id) = accepted
            .get("id")
            .and_then(Json::as_str)
            .map(str::to_string)
        else {
            self.tally
                .fail(format!("async submission without a job id: {accepted:?}"));
            return None;
        };
        let done = loop {
            let doc =
                self.call_json(None, "GET", &format!("/v1/jobs/{id}"), JSON_TYPE, b"", 200)?;
            match doc.get("status").and_then(Json::as_str) {
                Some("done") => break doc,
                Some("queued" | "running") => std::thread::sleep(Duration::from_millis(1)),
                other => {
                    self.tally.fail(format!("job {id} in state {other:?}"));
                    return None;
                }
            }
        };
        let trace = self.call_json(
            None,
            "GET",
            &format!("/v1/jobs/{id}/trace"),
            JSON_TYPE,
            b"",
            200,
        )?;
        let phase = |name: &str| -> f64 {
            trace
                .get("phases")
                .and_then(Json::as_array)
                .unwrap_or_default()
                .iter()
                .find(|p| p.get("name").and_then(Json::as_str) == Some(name))
                .map_or(0.0, |p| p.num("duration_ms") / p.num("count").max(1.0))
        };
        self.jobs.push(JobTrace {
            queue_wait_ms: phase("queue_wait"),
            solve_ms: phase("solve"),
            span_ms: trace.num("span_ms"),
        });
        Some(done)
    }
}

/// Candidate name → index, for permutation checks.
pub fn name_index(data: &Data) -> HashMap<&str, usize> {
    data.names
        .iter()
        .enumerate()
        .map(|(i, n)| (n.as_str(), i))
        .collect()
}

/// Checks a consensus document: one result per method, in order, each a
/// permutation of the dataset's candidates with `satisfied: true`. Returns
/// each method's ranking, or `None` (a failed request) when malformed.
pub fn check_results(
    tally: &mut Tally,
    doc: &Json,
    methods: &[&str],
    names: &HashMap<&str, usize>,
) -> Option<Vec<Vec<String>>> {
    let results = doc
        .get("results")
        .and_then(Json::as_array)
        .unwrap_or_default();
    if results.len() != methods.len() {
        tally.fail(format!("expected {} results, got {doc:?}", methods.len()));
        return None;
    }
    let mut rankings = Vec::with_capacity(methods.len());
    for (result, method) in results.iter().zip(methods) {
        if result.get("method").and_then(Json::as_str) != Some(method) {
            tally.fail(format!("expected a {method} result, got {result:?}"));
            return None;
        }
        let ranking: Vec<String> = result
            .get("ranking")
            .and_then(Json::as_array)
            .unwrap_or_default()
            .iter()
            .filter_map(|n| n.as_str().map(str::to_string))
            .collect();
        let mut seen = vec![false; names.len()];
        let permutation = ranking.len() == names.len()
            && ranking.iter().all(|name| {
                names
                    .get(name.as_str())
                    .is_some_and(|&i| !std::mem::replace(&mut seen[i], true))
            });
        tally.check("permutation", permutation, || {
            format!(
                "{method} returned {} names for {} candidates",
                ranking.len(),
                names.len()
            )
        });
        let satisfied = result.get("satisfied").and_then(Json::as_bool) == Some(true);
        tally.check("fair_satisfied", satisfied, || {
            format!("{method} not satisfied")
        });
        if !(permutation && satisfied) {
            tally.failed += 1;
            return None;
        }
        rankings.push(ranking);
    }
    Some(rankings)
}

/// Removes timing, cache-status, and job-identity fields (an async job's
/// poll document carries its `id` and `request_id`) and sorts object keys
/// (the poll document orders them differently), recursively.
pub fn strip_timing(doc: &Json) -> Json {
    const VOLATILE: [&str; 5] = [
        "cached",
        "duration_ms",
        "total_solve_time_ms",
        "id",
        "request_id",
    ];
    match doc {
        Json::Obj(entries) => {
            let mut kept: Vec<(String, Json)> = entries
                .iter()
                .filter(|(k, _)| !VOLATILE.contains(&k.as_str()))
                .map(|(k, v)| (k.clone(), strip_timing(v)))
                .collect();
            kept.sort_by(|a, b| a.0.cmp(&b.0));
            Json::Obj(kept)
        }
        Json::Arr(items) => Json::Arr(items.iter().map(strip_timing).collect()),
        other => other.clone(),
    }
}

/// The path of the first difference between two documents with sorted keys.
fn first_difference(a: &Json, b: &Json) -> String {
    match (a, b) {
        (Json::Obj(x), Json::Obj(y)) => match x.iter().zip(y).find(|(p, q)| p != q) {
            Some(((k, v), (l, w))) if k == l => format!("{k}/{}", first_difference(v, w)),
            Some(((k, _), (l, _))) => format!("key {k} vs key {l}"),
            None => format!("{} vs {} keys", x.len(), y.len()),
        },
        (Json::Arr(x), Json::Arr(y)) => match x.iter().zip(y).position(|(p, q)| p != q) {
            Some(i) => format!("{i}/{}", first_difference(&x[i], &y[i])),
            None => format!("{} vs {} items", x.len(), y.len()),
        },
        _ => format!("{a:?} vs {b:?}").chars().take(120).collect(),
    }
}

/// The ranking a method produces in-process on the same inputs, set up the
/// way the engine sets up a solve (shared matrix, default kernel budget).
pub fn solve_in_process(
    data: &Data,
    profile: &RankingProfile,
    method: &str,
    delta: f64,
) -> Result<Vec<String>, String> {
    use mani_core::{MethodKind, MfcrContext};
    let kind = MethodKind::parse(method).ok_or_else(|| format!("unknown method {method}"))?;
    let kernel = mani_engine::EngineConfig::default().kernel_parallelism();
    let groups = mani_ranking::GroupIndex::new(&data.fixture.db);
    let matrix = profile.precedence_matrix_with(&kernel);
    let ctx = MfcrContext::new(
        &data.fixture.db,
        &groups,
        profile,
        mani_fairness::FairnessThresholds::uniform(delta),
    )
    .with_precedence(&matrix)
    .with_parallelism(kernel);
    let outcome = kind.instantiate().solve(&ctx).map_err(|e| e.to_string())?;
    Ok(data.ranking_names(&outcome.ranking))
}

/// Registers a dataset with a columnar upload and returns its id.
fn register_columnar(client: &mut Client, body: &[u8]) -> Result<String, String> {
    let response = client
        .send("POST", "/v1/datasets", COLUMNAR_TYPE, body)
        .map_err(|e| format!("registration: {e}"))?;
    let doc = json::parse(&response.body).map_err(|e| format!("registration: {e}"))?;
    match (response.status, doc.get("id").and_then(Json::as_str)) {
        (200, Some(id)) => Ok(id.to_string()),
        _ => Err(format!(
            "registration answered {}: {doc:?}",
            response.status
        )),
    }
}

fn expect_ok(client: &mut Client, path: &str, body: &str) -> Result<Json, String> {
    let response = client
        .send("POST", path, JSON_TYPE, body.as_bytes())
        .map_err(|e| format!("{path}: {e}"))?;
    let doc = json::parse(&response.body).map_err(|e| format!("{path}: {e}"))?;
    if response.status != 200 {
        return Err(format!("{path} answered {}: {doc:?}", response.status));
    }
    Ok(doc)
}

/// The inputs one workload needs before its server starts (one value per
/// run, so the variants' size difference costs nothing).
#[allow(clippy::large_enum_variant)]
pub enum Inputs {
    /// `FAIR_DATASETS` datasets and their columnar bodies.
    FairSolve {
        data: Vec<Data>,
        columnar: Vec<Vec<u8>>,
    },
    Ingest {
        scale: (usize, usize),
        seed: u64,
    },
    WhatIf {
        data: Data,
        columnar: Vec<u8>,
        pool: Vec<Ranking>,
    },
}

impl Inputs {
    pub fn generate(workload: Workload, scale: Scale, seed: u64) -> Self {
        match workload {
            Workload::FairSolve => {
                let (n, r) = scale.fair_solve;
                let data: Vec<Data> = (0..FAIR_DATASETS as u64)
                    .map(|d| Data::generate(n, r, derive_seed(seed, STREAM_FAIR, d)))
                    .collect();
                let columnar = data.iter().map(Data::columnar_body).collect();
                Inputs::FairSolve { data, columnar }
            }
            Workload::Ingest => Inputs::Ingest {
                scale: scale.ingest,
                seed,
            },
            Workload::WhatIf => {
                let (n, r) = scale.what_if;
                let fixture = BenchFixture::low_fair(n, r + WHATIF_POOL, THETA, seed);
                let pool = fixture.profile.rankings()[r..].to_vec();
                let data = Data::from_fixture(fixture, r);
                let columnar = data.columnar_body();
                Inputs::WhatIf {
                    data,
                    columnar,
                    pool,
                }
            }
        }
    }

    /// The dataset of one ingest upload.
    pub fn ingest_data(scale: (usize, usize), seed: u64, k: u64) -> Data {
        Data::generate(scale.0, scale.1, derive_seed(seed, STREAM_INGEST, k))
    }
}

/// A started server with the workload's registration and warm-up done.
pub struct Ready {
    pub server: ServerProcess,
    /// Ids of the datasets registered at set-up.
    pub dataset_ids: Vec<String>,
    /// The warm-up solve of a what-if dataset's first version.
    pub warm_doc: Option<Json>,
    pub setup_s: f64,
}

/// Server start through ready, registration, and warm-up.
pub fn setup(binary: &Path, inputs: &Inputs) -> Result<Ready, String> {
    let started = Instant::now();
    let server = ServerProcess::start(binary)?;
    let mut client = Client::new(server.addr);
    let (dataset_ids, warm_doc) = match inputs {
        Inputs::FairSolve { columnar, .. } => {
            let mut ids = Vec::new();
            for body in columnar {
                let id = register_columnar(&mut client, body)?;
                // Any solve builds the shared precedence matrix; this
                // baseline is the cheapest one.
                expect_ok(
                    &mut client,
                    "/v1/consensus",
                    &consensus_body(&id, None, &["Pick-Fairest-Perm"], DELTA, true),
                )?;
                ids.push(id);
            }
            (ids, None)
        }
        Inputs::Ingest { scale, seed } => {
            // One cycle per codec warms the connection workers and the
            // allocator; these datasets come from a stream the run never uses.
            for k in 0..2 {
                let data = Data::generate(scale.0, scale.1, derive_seed(*seed, u64::MAX, k));
                let id = if k == 0 {
                    let doc = expect_ok(&mut client, "/v1/datasets", &data.json_body())?;
                    doc.get("id")
                        .and_then(Json::as_str)
                        .unwrap_or_default()
                        .to_string()
                } else {
                    register_columnar(&mut client, &data.columnar_body())?
                };
                expect_ok(
                    &mut client,
                    "/v1/consensus",
                    &consensus_body(&id, None, &["Fair-Borda"], DELTA, true),
                )?;
                client
                    .send("DELETE", &format!("/v1/datasets/{id}"), JSON_TYPE, b"")
                    .map_err(|e| format!("warm-up delete: {e}"))?;
            }
            (Vec::new(), None)
        }
        Inputs::WhatIf { columnar, .. } => {
            let id = register_columnar(&mut client, columnar)?;
            let doc = expect_ok(
                &mut client,
                "/v1/consensus",
                &consensus_body(&id, None, &WHATIF_METHODS, DELTA, true),
            )?;
            (vec![id], Some(doc))
        }
    };
    Ok(Ready {
        server,
        dataset_ids,
        warm_doc,
        setup_s: started.elapsed().as_secs_f64(),
    })
}

/// The units of work of one pass, shared by its clients: each client takes
/// the next unit number until the deadline or the scale's unit cap.
struct Work<'a> {
    server: &'a ServerProcess,
    next: AtomicU64,
    deadline: Instant,
    max_units: u64,
    rss_after: u64,
    peak_rss_mb: OnceLock<f64>,
}

impl<'a> Work<'a> {
    fn new(server: &'a ServerProcess, workload: Workload, scale: Scale, deadline: Instant) -> Self {
        Self {
            server,
            next: AtomicU64::new(0),
            deadline,
            max_units: scale.max_units[workload as usize],
            rss_after: scale.rss_after[workload as usize],
            peak_rss_mb: OnceLock::new(),
        }
    }

    /// The next unit to run, or `None` once the pass is over.
    fn next(&self) -> Option<u64> {
        let unit = self.next.fetch_add(1, Ordering::Relaxed);
        (unit < self.max_units && Instant::now() < self.deadline).then_some(unit)
    }

    /// Marks `unit` done; the unit numbered `rss_after - 1` reads the
    /// server's memory high-water mark.
    fn done(&self, unit: u64) {
        if unit + 1 == self.rss_after {
            let _ = self.peak_rss_mb.set(self.server.peak_rss_mb());
        }
    }
}

/// What a measured pass produced, merged over its clients.
pub struct Outcome {
    pub tally: Tally,
    pub jobs: Vec<JobTrace>,
    pub reconnects: u64,
    pub elapsed_s: f64,
    /// Completed requests (attempted minus failed).
    pub completed: u64,
    pub kept: Vec<Kept>,
    /// The server's `VmHWM` in MiB once the scale's `rss_after` units were
    /// done; `None` when the pass ended first.
    pub peak_rss_mb: Option<f64>,
}

/// An HTTP ranking kept for the in-process comparison, with the request's
/// sequence number, method and Δ; what-if also keeps the profile it solved.
pub struct Kept {
    pub seq: u64,
    pub method: &'static str,
    pub delta: f64,
    pub ranking: Vec<String>,
    pub profile: Option<RankingProfile>,
}

/// Which request sequence numbers keep their rankings for the in-process
/// comparison: a few early ones, chosen by the seed.
pub fn sampled(seed: u64, count: usize, window: u64) -> Vec<u64> {
    let mut rng = Rng::new(seed ^ 0x5EED);
    let mut picks: Vec<u64> = Vec::new();
    while picks.len() < count.min(window as usize) {
        let k = rng.below(window);
        if !picks.contains(&k) {
            picks.push(k);
        }
    }
    picks
}

/// Runs the workload's closed loop until `deadline`, or until the scale's
/// unit cap when that comes first.
pub fn run(
    workload: Workload,
    inputs: &Inputs,
    ready: &Ready,
    seed: u64,
    scale: Scale,
    deadline: Instant,
    async_every: Option<u64>,
) -> Outcome {
    let addr = ready.server.addr;
    let work = Work::new(&ready.server, workload, scale, deadline);
    let started = Instant::now();
    let agents: Vec<(Agent, Vec<Kept>)> = match inputs {
        Inputs::FairSolve { data, .. } => {
            // One request per method, among the first 24.
            let picks: Vec<u64> = (0..3)
                .zip(sampled(seed, 3, 8))
                .map(|(m, k)| 3 * k + m)
                .collect();
            parallel(workload.clients(), |_| {
                fair_solve_client(addr, data, &ready.dataset_ids, &work, async_every, &picks)
            })
        }
        Inputs::Ingest { scale, seed } => {
            let picks = sampled(*seed, 3, 8);
            parallel(workload.clients(), |_| {
                ingest_client(addr, *scale, *seed, &work, async_every, &picks)
            })
        }
        Inputs::WhatIf { data, pool, .. } => {
            let id = &ready.dataset_ids[0];
            let warm = ready.warm_doc.as_ref().expect("warm-up solve at setup");
            let picks = sampled(seed, 3, 8);
            vec![what_if_client(
                addr,
                data,
                pool,
                id,
                warm,
                &work,
                async_every,
                &picks,
            )]
        }
    };
    let elapsed_s = started.elapsed().as_secs_f64();
    let mut outcome = Outcome {
        tally: Tally::default(),
        jobs: Vec::new(),
        reconnects: 0,
        elapsed_s,
        completed: 0,
        kept: Vec::new(),
        peak_rss_mb: work.peak_rss_mb.get().copied(),
    };
    for (agent, kept) in agents {
        outcome.reconnects += agent.client.reconnects;
        outcome.jobs.extend(agent.jobs);
        outcome.tally.merge(agent.tally);
        outcome.kept.extend(kept);
    }
    outcome.completed = outcome.tally.attempted.saturating_sub(outcome.tally.failed);
    outcome
}

/// Runs `clients` copies of `body` on their own threads and joins them.
pub fn parallel<T: Send>(clients: usize, body: impl Fn(usize) -> T + Sync) -> Vec<T> {
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                let body = &body;
                scope.spawn(move || body(c))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    })
}

/// Fair-solve request `k`: its method and dataset index. Each dataset gets
/// the whole method rotation before the next dataset's turn.
pub fn fair_request(k: u64) -> (&'static str, usize) {
    (
        FAIR_METHODS[(k % 3) as usize],
        (k / 3) as usize % FAIR_DATASETS,
    )
}

fn fair_solve_client(
    addr: SocketAddr,
    data: &[Data],
    ids: &[String],
    work: &Work,
    async_every: Option<u64>,
    picks: &[u64],
) -> (Agent, Vec<Kept>) {
    let mut agent = Agent::new(addr, async_every);
    let names: Vec<_> = data.iter().map(name_index).collect();
    let mut kept = Vec::new();
    while let Some(k) = work.next() {
        let (method, d) = fair_request(k);
        let delta = fair_delta(k);
        let Some(doc) = agent.solve(k, |wait| {
            consensus_body(&ids[d], None, &[method], delta, wait)
        }) else {
            continue;
        };
        let Some(mut rankings) = check_results(&mut agent.tally, &doc, &[method], &names[d]) else {
            continue;
        };
        let ranking = rankings.remove(0);
        if k < DIGEST_PREFIX {
            agent
                .tally
                .digest
                .push((k, format!("{method} {}", ranking.join(","))));
        }
        if picks.contains(&k) {
            kept.push(Kept {
                seq: k,
                method,
                delta,
                ranking,
                profile: None,
            });
        }
        work.done(k);
    }
    (agent, kept)
}

fn ingest_client(
    addr: SocketAddr,
    scale: (usize, usize),
    seed: u64,
    work: &Work,
    async_every: Option<u64>,
    picks: &[u64],
) -> (Agent, Vec<Kept>) {
    let mut agent = Agent::new(addr, async_every);
    let mut kept = Vec::new();
    while let Some(k) = work.next() {
        let data = Inputs::ingest_data(scale, seed, k);
        let (kind, content_type, body) = if k.is_multiple_of(2) {
            ("upload_json", JSON_TYPE, data.json_body().into_bytes())
        } else {
            ("upload_col", COLUMNAR_TYPE, data.columnar_body())
        };
        let Some(doc) =
            agent.call_json(Some(kind), "POST", "/v1/datasets", content_type, &body, 200)
        else {
            continue;
        };
        let fingerprint = doc
            .get("fingerprint")
            .and_then(Json::as_str)
            .unwrap_or_default();
        agent
            .tally
            .check("fingerprint", fingerprint == data.fingerprint, || {
                format!(
                    "{kind} fingerprint {fingerprint} != in-process {}",
                    data.fingerprint
                )
            });
        let id = doc
            .get("id")
            .and_then(Json::as_str)
            .unwrap_or_default()
            .to_string();
        if let Some(doc) = agent.solve(k, |wait| {
            consensus_body(&id, None, &["Fair-Borda"], DELTA, wait)
        }) {
            let names = name_index(&data);
            if let Some(mut rankings) =
                check_results(&mut agent.tally, &doc, &["Fair-Borda"], &names)
            {
                let ranking = rankings.remove(0);
                if k < DIGEST_PREFIX {
                    agent.tally.digest.push((k, ranking.join(",")));
                }
                if picks.contains(&k) {
                    kept.push(Kept {
                        seq: k,
                        method: "Fair-Borda",
                        delta: DELTA,
                        ranking,
                        profile: None,
                    });
                }
            }
        }
        agent.call(
            Some("delete"),
            "DELETE",
            &format!("/v1/datasets/{id}"),
            JSON_TYPE,
            b"",
            200,
        );
        work.done(k);
    }
    (agent, kept)
}

/// One `{"op": ..., "ranking": [...]}` edit.
fn edit_op(data: &Data, op: &str, ranking: &Ranking) -> String {
    let mut out = format!(r#"{{"op":"{op}","ranking":"#);
    data.write_ranking(&mut out, ranking);
    out.push('}');
    out
}

/// A one-op `PATCH` body.
pub fn patch_body(data: &Data, op: &str, ranking: &Ranking) -> String {
    format!(r#"{{"ops":[{}]}}"#, edit_op(data, op, ranking))
}

/// The what-if `PATCH` sequence: a sliding window over a stream of Mallows
/// rankings (the base profile, then the pool). Even steps append the next
/// pool ranking, odd steps retract the oldest ranking still in the window.
/// The profile stays the same size and distribution however long the run
/// lasts, and no version's content repeats within `2 × pool` steps, so
/// every solve of a new version misses the response cache.
#[derive(Debug, Default)]
pub struct EditPlan {
    appended: usize,
    retracted: usize,
}

impl EditPlan {
    pub fn next<'a>(
        &mut self,
        step: u64,
        base: &'a [Ranking],
        pool: &'a [Ranking],
    ) -> (&'static str, &'a Ranking) {
        if step.is_multiple_of(2) {
            self.appended += 1;
            ("append", &pool[(self.appended - 1) % pool.len()])
        } else {
            self.retracted += 1;
            let oldest = self.retracted - 1;
            let ranking = match base.get(oldest) {
                Some(ranking) => ranking,
                None => &pool[(oldest - base.len()) % pool.len()],
            };
            ("retract", ranking)
        }
    }
}

/// Applies one edit the way the server does (a retract removes the last
/// equal ranking).
fn apply_edit(rankings: &mut Vec<Ranking>, op: &str, ranking: &Ranking) {
    if op == "append" {
        rankings.push(ranking.clone());
    } else if let Some(position) = rankings.iter().rposition(|r| r == ranking) {
        rankings.remove(position);
    }
}

fn fingerprint_of(data: &Data, rankings: &[Ranking]) -> String {
    let profile = RankingProfile::new(rankings.to_vec()).expect("edits keep a valid profile");
    let dataset = EngineDataset::new("x", data.fixture.db.clone(), profile)
        .expect("edits keep the candidate set");
    format!("{:016x}", dataset.fingerprint())
}

#[allow(clippy::too_many_arguments)]
fn what_if_client(
    addr: SocketAddr,
    data: &Data,
    pool: &[Ranking],
    id: &str,
    warm: &Json,
    work: &Work,
    async_every: Option<u64>,
    picks: &[u64],
) -> (Agent, Vec<Kept>) {
    let mut agent = Agent::new(addr, async_every);
    let names = name_index(data);
    let base: Vec<Ranking> = data.dataset.profile().rankings().to_vec();
    let mut current = base.clone();
    let mut originals: BTreeMap<u64, Json> = BTreeMap::new();
    originals.insert(1, strip_timing(warm));
    let mut version = 1u64;
    let mut plan = EditPlan::default();
    let mut session_pool = 0usize;
    let mut kept = Vec::new();
    while let Some(i) = work.next() {
        let (op, ranking) = plan.next(i, &base, pool);
        let body = patch_body(data, op, ranking);
        let path = format!("/v1/datasets/{id}");
        let Some(doc) = agent.call_json(
            Some("patch"),
            "PATCH",
            &path,
            JSON_TYPE,
            body.as_bytes(),
            200,
        ) else {
            break;
        };
        apply_edit(&mut current, op, ranking);
        version += 1;
        let expected = fingerprint_of(data, &current);
        let fingerprint = doc
            .get("fingerprint")
            .and_then(Json::as_str)
            .unwrap_or_default();
        let same_version = doc.num("version") as u64 == version;
        agent.tally.check(
            "fingerprint",
            fingerprint == expected && same_version,
            || format!("patch gave {doc:?}, expected version {version} fingerprint {expected}"),
        );

        // Solve the new version (a response-cache miss).
        if let Some(doc) = agent.solve(i, |wait| {
            consensus_body(id, None, &WHATIF_METHODS, DELTA, wait)
        }) {
            if let Some(rankings) = check_results(&mut agent.tally, &doc, &WHATIF_METHODS, &names) {
                if i < DIGEST_PREFIX {
                    for (method, ranking) in WHATIF_METHODS.iter().zip(&rankings) {
                        agent
                            .tally
                            .digest
                            .push((i, format!("{method} {}", ranking.join(","))));
                    }
                }
                if picks.contains(&i) {
                    let profile = RankingProfile::new(current.clone()).expect("valid profile");
                    for (method, ranking) in WHATIF_METHODS.iter().zip(rankings) {
                        kept.push(Kept {
                            seq: i,
                            method,
                            delta: DELTA,
                            ranking,
                            profile: Some(profile.clone()),
                        });
                    }
                }
                originals.insert(version, strip_timing(&doc));
            }
        }
        originals.retain(|v, _| *v + 8 > version);

        // Replay a pinned version at most 7 versions old (a cache hit).
        let pinned = version.saturating_sub(i % 8).max(1);
        if let Some(doc) = agent.call_json(
            Some("replay"),
            "POST",
            "/v1/consensus",
            JSON_TYPE,
            consensus_body(id, Some(pinned), &WHATIF_METHODS, DELTA, true).as_bytes(),
            200,
        ) {
            if let Some(original) = originals.get(&pinned) {
                let cached = doc.get("cached").and_then(Json::as_bool) == Some(true);
                let replay = strip_timing(&doc);
                agent.tally.check("replay_equal", cached && replay == *original, || {
                    format!(
                        "replay of version {pinned} (cached: {cached}) differs from its original at {}",
                        first_difference(&replay, original)
                    )
                });
            }
        }

        if let Some(response) = agent.call(Some("scrape"), "GET", "/metrics", JSON_TYPE, b"", 200) {
            if !String::from_utf8_lossy(&response.body).contains("mani_") {
                agent.tally.fail("GET /metrics without mani_ series".into());
            }
        }

        if i % SESSION_EVERY == SESSION_EVERY - 1 {
            // Appends of reversed pool rankings (never sent by a PATCH), with
            // retracts of an earlier session append, so every state is new.
            let mut fresh = || {
                session_pool += 1;
                pool[(session_pool - 1) % pool.len()].reversed()
            };
            let (a, b, c, d, e, f) = (fresh(), fresh(), fresh(), fresh(), fresh(), fresh());
            let script = [
                ("append", &a),
                ("append", &b),
                ("retract", &a),
                ("append", &c),
                ("append", &d),
                ("retract", &b),
                ("append", &e),
                ("append", &f),
            ];
            debug_assert_eq!(script.len(), SESSION_EDITS);
            let edits: Vec<String> = script.iter().map(|(op, r)| edit_op(data, op, r)).collect();
            let body = session_body(id, &WHATIF_METHODS, DELTA, &edits);
            if let Some(response) = agent.call(
                Some("session"),
                "POST",
                "/v1/sessions",
                JSON_TYPE,
                body.as_bytes(),
                200,
            ) {
                check_session(&mut agent.tally, &response, &names);
            }
        }
        work.done(i);
    }
    (agent, kept)
}

/// Checks a what-if session stream and records the gaps between its edit
/// lines.
fn check_session(tally: &mut Tally, response: &Response, names: &HashMap<&str, usize>) {
    let mut edits = 0;
    let mut previous: Option<Instant> = None;
    for (arrived, line) in &response.lines {
        let Ok(doc) = json::parse(line) else {
            tally.fail("unparsable session line".into());
            return;
        };
        if doc.get("summary").is_some() {
            let ok = doc.num("edits") as usize == SESSION_EDITS && doc.num("errors") == 0.0;
            if !ok {
                tally.fail(format!("session summary {doc:?}"));
            }
            continue;
        }
        if check_results(tally, &doc, &WHATIF_METHODS, names).is_none() {
            return;
        }
        if let Some(previous) = previous {
            tally.sample(
                "session_edit",
                arrived.duration_since(previous).as_secs_f64() * 1e3,
            );
        }
        previous = Some(*arrived);
        edits += 1;
    }
    if edits != SESSION_EDITS {
        tally.fail(format!("session streamed {edits} edit lines"));
    }
}

/// Post-run checks that need no timing: in-process solves of the kept
/// requests, and (ingest) JSON/columnar twin uploads.
pub fn verify(workload: Workload, inputs: &Inputs, addr: SocketAddr, outcome: &mut Outcome) {
    let tally = &mut outcome.tally;
    for kept in &outcome.kept {
        let expected = match (inputs, &kept.profile) {
            (Inputs::FairSolve { data, .. }, _) => {
                let data = &data[fair_request(kept.seq).1];
                solve_in_process(data, data.dataset.profile(), kept.method, kept.delta)
            }
            (Inputs::WhatIf { data, .. }, Some(profile)) => {
                solve_in_process(data, profile, kept.method, kept.delta)
            }
            (Inputs::Ingest { scale, seed }, _) => {
                let data = Inputs::ingest_data(*scale, *seed, kept.seq);
                solve_in_process(&data, data.dataset.profile(), kept.method, kept.delta)
            }
            _ => Err("kept ranking without its profile".into()),
        };
        tally.check(
            "in_process_equal",
            expected.as_ref() == Ok(&kept.ranking),
            || {
                format!(
                    "{} request {} differs from MfcrMethod::solve",
                    kept.method, kept.seq
                )
            },
        );
    }
    if let (Workload::Ingest, Inputs::Ingest { scale, seed }) = (workload, inputs) {
        let mut agent = Agent::new(addr, None);
        for k in sampled(*seed, 2, 64) {
            let data = Inputs::ingest_data(*scale, *seed ^ 0x7717, k);
            let json = agent.call_json(
                None,
                "POST",
                "/v1/datasets",
                JSON_TYPE,
                data.json_body().as_bytes(),
                200,
            );
            let col = agent.call_json(
                None,
                "POST",
                "/v1/datasets",
                COLUMNAR_TYPE,
                &data.columnar_body(),
                200,
            );
            let (Some(json), Some(col)) = (json, col) else {
                continue;
            };
            let fp = |doc: &Json| {
                doc.get("fingerprint")
                    .and_then(Json::as_str)
                    .map(str::to_string)
            };
            agent.tally.check(
                "twin_fingerprint",
                fp(&json).is_some() && fp(&json) == fp(&col),
                || format!("JSON twin {:?} vs columnar twin {:?}", fp(&json), fp(&col)),
            );
            if let Some(id) = json.get("id").and_then(Json::as_str) {
                agent.call(
                    None,
                    "DELETE",
                    &format!("/v1/datasets/{id}"),
                    JSON_TYPE,
                    b"",
                    200,
                );
            }
        }
        tally.merge(agent.tally);
    }
}
