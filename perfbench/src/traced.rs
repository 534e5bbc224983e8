//! The traced run: per-layer numbers, measured from outside the program.
//!
//! 1. An HTTP pass of the workload in which every fourth consensus request is
//!    sent async, so `GET /v1/jobs/{id}/trace` gives its queue wait and solve
//!    time; `/v1/stats` is read before and after for counter deltas.
//! 2. The keep-alive floor: `GET /v1/methods` on a warm connection.
//! 3. In-process calls into each layer's public functions on the same seeded
//!    inputs, including an in-process `Service` fed the identical request
//!    sequence.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use mani_aggregation::{BordaAggregator, CopelandAggregator, SchulzeAggregator};
use mani_core::{make_mr_fair, MfcrContext, MfcrOutcome};
use mani_engine::{EngineConfig, EngineDataset};
use mani_fairness::{FairnessThresholds, ManiRankCriteria};
use mani_ranking::{GroupIndex, PrecedenceMatrix, Ranking};
use mani_service::{BuildInfo, ConsensusReply, RequestContext, Service, TransportStats};
use serde::Value;

use crate::data::{consensus_body, Data};
use crate::http::Client;
use crate::json::Json;
use crate::tally::median;
use crate::workloads::{
    fair_delta, fair_request, parallel, patch_body, EditPlan, Inputs, Outcome, DELTA, FAIR_METHODS,
    WHATIF_METHODS,
};

/// Exchanges on one connection before the keep-alive floor is sampled, so
/// the connection is past its first (fast) exchange.
const FLOOR_WARMUP: usize = 3;
const FLOOR_SAMPLES: usize = 30;
/// Ingest datasets the in-process layers cycle through.
const INGEST_DATASETS: u64 = 8;
/// What-if `PATCH` bodies the decode layer cycles through.
const PATCH_BODIES: u64 = 16;

const BUILD: BuildInfo = BuildInfo {
    name: "perfbench",
    version: env!("CARGO_PKG_VERSION"),
    git: None,
    profile: "release",
    features: &[],
};

pub type Layers = BTreeMap<&'static str, f64>;

/// `GET /v1/stats` as a document.
pub fn stats(client: &mut Client) -> Result<Json, String> {
    let response = client
        .get("/v1/stats")
        .map_err(|e| format!("/v1/stats: {e}"))?;
    crate::json::parse(&response.body).map_err(|e| format!("/v1/stats: {e}"))
}

/// Median latency of `GET /v1/methods` on a warm keep-alive connection.
pub fn keepalive_floor(client: &mut Client) -> Result<f64, String> {
    let mut samples = Vec::with_capacity(FLOOR_SAMPLES);
    for i in 0..FLOOR_WARMUP + FLOOR_SAMPLES {
        let started = Instant::now();
        let response = client
            .get("/v1/methods")
            .map_err(|e| format!("/v1/methods: {e}"))?;
        if response.status != 200 {
            return Err(format!("/v1/methods answered {}", response.status));
        }
        if i >= FLOOR_WARMUP {
            samples.push(started.elapsed().as_secs_f64() * 1e3);
        }
    }
    Ok(med(&samples))
}

/// Layer numbers from the HTTP pass: `/v1/stats` deltas, job traces, and
/// the client's reconnects.
pub fn http_layers(outcome: &Outcome, before: &Json, after: &Json, floor_ms: f64) -> Layers {
    let delta = |path: &str| after.num(path) - before.num(path);
    let builds = delta("precedence_cache/builds");
    let hits = delta("response_cache/hits");
    let lookups = hits + delta("response_cache/misses");
    let jobs = &outcome.jobs;
    let per_job =
        |f: fn(&crate::workloads::JobTrace) -> f64| med(&jobs.iter().map(f).collect::<Vec<_>>());
    let mut layers = Layers::new();
    layers.insert("engine.matrix_builds", builds);
    layers.insert(
        "engine.matrix_build_ms",
        if builds > 0.0 {
            delta("kernels/matrix_build_ns") / 1e6 / builds
        } else {
            0.0
        },
    );
    layers.insert(
        "engine.delta_derives",
        delta("precedence_cache/delta_appends") + delta("precedence_cache/delta_retracts"),
    );
    layers.insert(
        "engine.delta_fallbacks",
        delta("precedence_cache/delta_rebuild_fallbacks"),
    );
    layers.insert(
        "service.response_cache_hit_ratio",
        if lookups > 0.0 { hits / lookups } else { 0.0 },
    );
    layers.insert("serve.keepalive_floor_ms", floor_ms);
    layers.insert("serve.reconnects", outcome.reconnects as f64);
    layers.insert("engine.queue_wait_ms", per_job(|j| j.queue_wait_ms));
    layers.insert("engine.solve_ms", per_job(|j| j.solve_ms));
    layers.insert("job_span_ms", per_job(|j| j.span_ms));
    layers
}

/// Calls `f` on `inputs` round-robin until `budget` is spent and at least
/// `min` calls ran; returns each call's milliseconds.
fn time_each<T>(budget: Duration, min: usize, inputs: &[T], mut f: impl FnMut(&T)) -> Vec<f64> {
    let started = Instant::now();
    let mut samples = Vec::new();
    for input in inputs.iter().cycle() {
        if samples.len() >= min.max(1) && started.elapsed() >= budget {
            break;
        }
        let t = Instant::now();
        f(input);
        samples.push(t.elapsed().as_secs_f64() * 1e3);
    }
    samples
}

fn med(samples: &[f64]) -> f64 {
    median(samples).unwrap_or_default()
}

/// One dataset the in-process layers run on, with the methods and Δ the
/// workload solves it with and the ranking its next edit folds in.
struct Case<'a> {
    data: &'a Data,
    matrix: PrecedenceMatrix,
    groups: GroupIndex,
    methods: &'static [&'static str],
    delta: f64,
    edit: Ranking,
}

impl<'a> Case<'a> {
    fn new(data: &'a Data, methods: &'static [&'static str], delta: f64, edit: Ranking) -> Self {
        let kernel = EngineConfig::default().kernel_parallelism();
        Self {
            matrix: data.dataset.profile().precedence_matrix_with(&kernel),
            groups: GroupIndex::new(&data.fixture.db),
            data,
            methods,
            delta,
            edit,
        }
    }

    fn thresholds(&self) -> FairnessThresholds {
        FairnessThresholds::uniform(self.delta)
    }

    fn aggregate(&self, method: &str) -> Ranking {
        let kernel = EngineConfig::default().kernel_parallelism();
        match method {
            "Fair-Borda" => BordaAggregator::new().consensus(self.data.dataset.profile()),
            "Fair-Copeland" => {
                CopelandAggregator::new().consensus_from_matrix_with(&self.matrix, &kernel)
            }
            _ => SchulzeAggregator::new().consensus_from_matrix_with(&self.matrix, &kernel),
        }
    }
}

/// In-process layer numbers on the workload's inputs. `budget` is the time
/// each layer may take (each still runs a minimum number of calls).
pub fn in_process_layers(inputs: &Inputs, clients: usize, budget: Duration) -> Layers {
    let ingest: Vec<Data> = match inputs {
        Inputs::Ingest { scale, seed } => (0..INGEST_DATASETS)
            .map(|k| Inputs::ingest_data(*scale, *seed, k))
            .collect(),
        _ => Vec::new(),
    };
    let cases: Vec<Case> = match inputs {
        Inputs::FairSolve { data, .. } => data
            .iter()
            .map(|data| {
                let edit = data.dataset.profile().rankings()[0].clone();
                Case::new(data, &FAIR_METHODS, fair_delta(0), edit)
            })
            .collect(),
        Inputs::Ingest { .. } => ingest
            .iter()
            .map(|data| {
                let edit = data.dataset.profile().rankings()[0].clone();
                Case::new(data, &["Fair-Borda"], DELTA, edit)
            })
            .collect(),
        Inputs::WhatIf { data, pool, .. } => {
            vec![Case::new(data, &WHATIF_METHODS, DELTA, pool[0].clone())]
        }
    };
    let mut layers = Layers::new();
    kernel_layers(&cases, budget, &mut layers);
    wire_layers(inputs, &cases, budget, &mut layers);
    service_layers(inputs, clients, budget * 2, &mut layers);
    layers
}

fn kernel_layers(cases: &[Case], budget: Duration, layers: &mut Layers) {
    let kernel = EngineConfig::default().kernel_parallelism();
    let profile_of = |c: &Case| Arc::clone(c.data.dataset.profile());
    layers.insert(
        "ranking.matrix_build_ms",
        med(&time_each(budget, 3, cases, |c| {
            black_box(profile_of(c).precedence_matrix_with(&kernel));
        })),
    );
    for (name, method) in [
        ("aggregation.borda_ms", "Fair-Borda"),
        ("aggregation.copeland_ms", "Fair-Copeland"),
        ("aggregation.schulze_ms", "Fair-Schulze"),
    ] {
        layers.insert(
            name,
            med(&time_each(budget, 3, cases, |c| {
                black_box(c.aggregate(method));
            })),
        );
    }

    // Make-MR-Fair on each (dataset, method) consensus the workload solves;
    // the first pass keeps the corrected rankings for the evaluation layers.
    let consensus: Vec<(&Case, &'static str, Ranking)> = cases
        .iter()
        .flat_map(|c| c.methods.iter().map(move |m| (c, *m, c.aggregate(m))))
        .collect();
    let mut swaps = Vec::new();
    let mut corrected: Vec<(&Case, &'static str, Ranking, u64)> = Vec::new();
    let correct_ms = time_each(budget, consensus.len(), &consensus, |(c, m, ranking)| {
        let report = make_mr_fair(ranking, &c.groups, &c.thresholds());
        swaps.push(report.swaps as f64);
        if corrected.len() < consensus.len() {
            corrected.push((c, m, report.ranking, report.swaps));
        } else {
            black_box(report);
        }
    });
    layers.insert("core.make_mr_fair_ms", med(&correct_ms));
    layers.insert("core.make_mr_fair_swaps", med(&swaps));
    layers.insert(
        "core.evaluate_ms",
        med(&time_each(
            budget,
            3,
            &corrected,
            |(c, m, ranking, swaps)| {
                let ctx = MfcrContext::new(
                    &c.data.fixture.db,
                    &c.groups,
                    c.data.dataset.profile(),
                    c.thresholds(),
                )
                .with_precedence(&c.matrix)
                .with_parallelism(kernel);
                black_box(MfcrOutcome::evaluate(m, &ctx, ranking.clone(), *swaps, true).ok());
            },
        )),
    );
    layers.insert(
        "fairness.criteria_ms",
        med(&time_each(budget, 3, &corrected, |(c, _, ranking, _)| {
            black_box(ManiRankCriteria::evaluate(
                ranking,
                &c.groups,
                &c.thresholds(),
            ));
        })),
    );

    // One delta fold per call, on a fresh copy of the dataset's matrix.
    let started = Instant::now();
    let mut fold_ms = Vec::new();
    for c in cases.iter().cycle() {
        if fold_ms.len() >= 3 && started.elapsed() >= budget {
            break;
        }
        let mut matrix = c.matrix.clone();
        let t = Instant::now();
        matrix
            .apply_append(&c.edit, 1)
            .expect("edit ranks every candidate");
        fold_ms.push(t.elapsed().as_secs_f64() * 1e3);
        black_box(matrix);
    }
    layers.insert("ranking.delta_append_ms", med(&fold_ms));
}

fn wire_layers(inputs: &Inputs, cases: &[Case], budget: Duration, layers: &mut Layers) {
    let id_of = |data: &Data| mani_service::dataset_id(&data.dataset);
    let consensus_bodies: Vec<String> = (0..64)
        .map(|k| {
            consensus_body(
                &id_of(cases[0].data),
                None,
                &["Fair-Borda"],
                fair_delta(k),
                true,
            )
        })
        .collect();
    // The JSON bodies this workload decodes most: consensus requests on
    // fair-solve, dataset uploads on ingest, PATCH edits on what-if.
    let bodies: Vec<String> = match inputs {
        Inputs::FairSolve { .. } => consensus_bodies.clone(),
        Inputs::Ingest { .. } => cases
            .iter()
            .step_by(2)
            .map(|c| c.data.json_body())
            .collect(),
        Inputs::WhatIf { data, pool, .. } => {
            let base = data.dataset.profile().rankings();
            let mut plan = EditPlan::default();
            (0..PATCH_BODIES)
                .map(|i| {
                    let (op, ranking) = plan.next(i, base, pool);
                    patch_body(data, op, ranking)
                })
                .collect()
        }
    };
    let decode = |body: &String| {
        black_box(serde_json::from_str::<Value>(body).expect("benchmark bodies are valid JSON"));
    };
    let decode_ms = time_each(budget, bodies.len(), &bodies, decode);
    let bytes: f64 = (0..decode_ms.len())
        .map(|i| bodies[i % bodies.len()].len() as f64)
        .sum();
    let total_ms: f64 = decode_ms.iter().sum();
    layers.insert("serde_json.decode_ms", med(&decode_ms));
    layers.insert(
        "serde_json.decode_mb_s",
        bytes / 1e6 / (total_ms / 1e3).max(1e-9),
    );
    layers.insert(
        "consensus_decode_ms",
        med(&time_each(budget / 4, 16, &consensus_bodies, decode)),
    );

    let values: Vec<Value> = cases
        .iter()
        .map(|c| mani_service::dataset_to_value(&c.data.dataset))
        .collect();
    layers.insert(
        "service.parse_dataset_ms",
        med(&time_each(budget, 3, &values, |value| {
            black_box(mani_service::parse_dataset(value).expect("generated datasets are valid"));
        })),
    );
    let columnar: Vec<Vec<u8>> = cases.iter().map(|c| c.data.columnar_body()).collect();
    layers.insert(
        "service.columnar_decode_ms",
        med(&time_each(budget, 3, &columnar, |body| {
            black_box(mani_service::decode_dataset(body).expect("encoded by the service"));
        })),
    );
}

/// Replays the workload's request sequence through an in-process `Service`
/// with the same number of clients: the consensus operation's own time, the
/// response render, and the metrics exposition.
fn service_layers(inputs: &Inputs, clients: usize, budget: Duration, layers: &mut Layers) {
    let service = Service::new(EngineConfig::default(), 0);
    let register = |dataset: &Arc<EngineDataset>| -> String {
        let doc = service
            .register_dataset(Arc::clone(dataset))
            .expect("generated datasets register");
        doc.get("id")
            .and_then(Value::as_str)
            .expect("registration id")
            .to_string()
    };
    // Times one consensus call and the render of its document.
    let solve = |body: &str, out: &mut Vec<(f64, f64)>| {
        let value: Value = serde_json::from_str(body).expect("benchmark bodies are valid JSON");
        let t = Instant::now();
        let reply = service.consensus(&value, &RequestContext::new(None));
        let solved = t.elapsed().as_secs_f64() * 1e3;
        if let Ok(ConsensusReply::Complete(doc)) = reply {
            let t = Instant::now();
            black_box(mani_service::render(&doc));
            out.push((solved, t.elapsed().as_secs_f64() * 1e3));
        }
    };
    let deadline = Instant::now() + budget;
    let counter = AtomicU64::new(0);
    let samples: Vec<(f64, f64)> = match inputs {
        Inputs::FairSolve { data, .. } => {
            let ids: Vec<String> = data.iter().map(|d| register(&d.dataset)).collect();
            for id in &ids {
                let warm = consensus_body(id, None, &["Pick-Fairest-Perm"], DELTA, true);
                solve(&warm, &mut Vec::new());
            }
            parallel(clients, |_| {
                let mut out = Vec::new();
                while Instant::now() < deadline || out.len() < 2 {
                    let k = counter.fetch_add(1, Ordering::Relaxed);
                    let (method, d) = fair_request(k);
                    solve(
                        &consensus_body(&ids[d], None, &[method], fair_delta(k), true),
                        &mut out,
                    );
                }
                out
            })
            .concat()
        }
        Inputs::Ingest { scale, seed } => parallel(clients, |_| {
            let mut out = Vec::new();
            while Instant::now() < deadline || out.len() < 3 {
                let k = counter.fetch_add(1, Ordering::Relaxed);
                let data = Inputs::ingest_data(*scale, *seed, k);
                let id = register(&data.dataset);
                solve(
                    &consensus_body(&id, None, &["Fair-Borda"], DELTA, true),
                    &mut out,
                );
                let _ = service.dataset_delete(&id);
            }
            out
        })
        .concat(),
        Inputs::WhatIf { data, pool, .. } => {
            let id = register(&data.dataset);
            let body = consensus_body(&id, None, &WHATIF_METHODS, DELTA, true);
            solve(&body, &mut Vec::new());
            let base = data.dataset.profile().rankings();
            let mut plan = EditPlan::default();
            let mut out = Vec::new();
            let mut i = 0;
            while Instant::now() < deadline || out.len() < 3 {
                let (op, ranking) = plan.next(i, base, pool);
                let patch: Value = serde_json::from_str(&patch_body(data, op, ranking))
                    .expect("benchmark bodies are valid JSON");
                service
                    .dataset_patch(&id, &patch)
                    .expect("what-if edits apply");
                solve(&body, &mut out);
                i += 1;
            }
            out
        }
    };
    let (consensus_ms, render_ms): (Vec<f64>, Vec<f64>) = samples.into_iter().unzip();
    layers.insert("service.consensus_ms", med(&consensus_ms));
    layers.insert("service.render_ms", med(&render_ms));
    layers.insert(
        "service.metrics_render_ms",
        med(&time_each(budget / 4, 5, &[()], |_| {
            black_box(service.metrics_exposition(&BUILD, &TransportStats::default()));
        })),
    );
}

/// Transport time and the share of the consensus p50 no layer accounts for.
pub fn derived_layers(http_consensus_p50: f64, layers: &mut Layers) {
    let get = |name: &str| layers.get(name).copied().unwrap_or_default();
    let transport = http_consensus_p50 - get("service.consensus_ms");
    let unattributed = http_consensus_p50
        - (get("consensus_decode_ms")
            + get("job_span_ms")
            + get("service.render_ms")
            + get("serve.keepalive_floor_ms"));
    layers.insert("serve.transport_ms", transport);
    layers.insert("trace.unattributed_ms", unattributed);
}
