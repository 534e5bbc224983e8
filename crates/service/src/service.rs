//! The transport-agnostic service core.
//!
//! [`Service`] owns everything a MANI-Rank deployment shares across
//! transports — the consensus engine, the dataset registry, the response
//! cache, the async-job registry, the slow-request ring, and per-operation
//! latency histograms — and exposes one method per API operation. Methods
//! accept and return plain data ([`Value`] documents, [`ApiError`],
//! [`ConsensusReply`]); nothing in this crate names a socket, a wire status,
//! or an HTTP type, which is what lets an HTTP front-end, the CLI, and any
//! future RPC transport drive the same core (CI enforces the boundary with a
//! grep guard over this crate's sources).
//!
//! The consensus operation checks the [`ResponseCache`] first: a request
//! whose every method outcome is already cached is answered in `O(1)` without
//! touching the engine (no queue slot, no precedence build, no solve).
//! Anything else is submitted through the engine's bounded queue, so
//! admission backpressure surfaces as [`crate::ApiErrorKind::Overloaded`] and
//! each transport renders that however its wire vocabulary spells
//! "try again later".

use std::collections::HashMap;
use std::convert::Infallible;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use mani_aggregation::CopelandAggregator;
use mani_core::{MethodKind, MfcrContext};
use mani_engine::{
    BatchHandle, ConsensusEngine, ConsensusRequest, ConsensusResponse, EngineConfig, EngineDataset,
    EngineError, JobHandle, JobId, JobStatus, RankingDelta,
};
use mani_fairness::{FairnessAudit, FairnessThresholds};
use mani_obs::{PromWriter, SlowEntry, SlowRing, Span, TraceTimeline};
use mani_ranking::{CandidateDb, GroupIndex, Ranking, RankingProfile};
use serde::{Serialize, Value};

use crate::error::{ApiError, ApiErrorKind};
use crate::metrics::{EndpointMetrics, TransportStats, LATENCY_BUCKET_BOUNDS_US};
use crate::registry::{DatasetRegistry, RegisteredDataset};
use crate::response_cache::ResponseCache;
use crate::spec::{
    attribute_names_json, method_result_json, parse_consensus_spec, parse_dataset,
    resolve_spec_dataset, ConsensusSpec,
};
use crate::value::{as_f64, obj, render, s, with_entry};

/// Most jobs tracked by the registry before completed ones are pruned
/// (oldest first), bounding registry memory under sustained async traffic.
pub const MAX_TRACKED_JOBS: usize = 4096;

/// Worst requests kept in the in-memory slow-request ring (surfaced as
/// `"slow_requests"` by the stats operation).
pub const SLOW_RING_CAPACITY: usize = 16;

/// Transport build identity rendered by the version and metrics operations.
/// The binary that embeds the service fills this in (the service crate cannot
/// know which front-end it is running inside).
#[derive(Debug, Clone, Copy)]
pub struct BuildInfo {
    /// Binary name (e.g. `mani-serve`).
    pub name: &'static str,
    /// Crate version.
    pub version: &'static str,
    /// `git describe` output baked in at build time, when available.
    pub git: Option<&'static str>,
    /// Compile profile (`debug` or `release`).
    pub profile: &'static str,
    /// Advertised feature surface.
    pub features: &'static [&'static str],
}

/// Per-request observability context, created once per dispatched request:
/// the request id (a well-formed incoming correlation id, or freshly
/// generated) and the service-side phase timeline (`parse`, `cache_probe`,
/// `submit`, `wait`, `render`) feeding the access log and the slow-request
/// ring.
#[derive(Debug, Clone)]
pub struct RequestContext {
    id: String,
    trace: Arc<TraceTimeline>,
}

impl RequestContext {
    /// A context for one request. `incoming` is the client-supplied
    /// correlation id, if any; malformed ids are replaced with generated
    /// ones.
    pub fn new(incoming: Option<&str>) -> Self {
        Self {
            id: mani_obs::request_id_from_header(incoming),
            trace: Arc::new(TraceTimeline::new()),
        }
    }

    /// The id echoed back to the client for log correlation.
    pub fn id(&self) -> &str {
        &self.id
    }

    /// The request's phase timeline.
    pub fn trace(&self) -> &Arc<TraceTimeline> {
        &self.trace
    }
}

impl Default for RequestContext {
    fn default() -> Self {
        Self::new(None)
    }
}

/// Outcome of the consensus operation: a complete document, a document
/// acknowledging still-pending async jobs (transports signal the pending
/// state out-of-band — HTTP with an Accepted status, the CLI by polling), or
/// a stream delivering one line per result as solves finish.
#[derive(Debug)]
pub enum ConsensusReply {
    /// Every spec resolved (cached or awaited); the document is final.
    Complete(Value),
    /// At least one spec was submitted without waiting; the document carries
    /// poll targets for the pending jobs.
    Accepted(Value),
    /// A `"stream": true` batch: drive it with [`Service::stream_consensus`].
    Stream(ConsensusStream),
}

/// A destination for streamed NDJSON result lines. Transports adapt their
/// write path (a chunked socket body, a buffered string, a terminal) behind
/// this trait; the service never sees the wire.
pub trait StreamSink {
    /// The sink's write failure type.
    type Error;
    /// Accepts one newline-terminated NDJSON line.
    fn emit_line(&mut self, line: &str) -> Result<(), Self::Error>;
}

/// Collecting sink used by buffered transports and tests.
impl StreamSink for String {
    type Error = Infallible;

    fn emit_line(&mut self, line: &str) -> Result<(), Self::Error> {
        self.push_str(line);
        Ok(())
    }
}

/// How one spec of a consensus request is satisfied: replayed from the
/// response cache, or submitted to the engine (index into the submitted
/// subset).
#[derive(Debug)]
enum Disposition {
    Cached(Vec<Arc<Value>>),
    Submitted(usize),
}

/// A pending `"stream": true` consensus batch: the parsed specs, the cache
/// replays, and the engine [`BatchHandle`] for everything that needs solving.
///
/// Lines are emitted cached-first (those results exist before any solve),
/// then in engine completion order; the payload of each line is built by the
/// same rendering path as the buffered operation, so streamed and
/// non-streamed results are bit-identical and equally replayable through the
/// response cache.
#[derive(Debug)]
pub struct ConsensusStream {
    specs: Vec<ConsensusSpec>,
    dispositions: Vec<Disposition>,
    batch: BatchHandle,
    /// Maps engine batch index → spec index.
    batch_to_spec: Vec<usize>,
    started: Instant,
    request_id: String,
    /// The originating request's service-side timeline (parse/submit phases).
    trace: Arc<TraceTimeline>,
}

impl ConsensusStream {
    /// Number of requests in the batch.
    pub fn len(&self) -> usize {
        self.specs.len()
    }

    /// True for an (impossible via the API) empty batch.
    pub fn is_empty(&self) -> bool {
        self.specs.is_empty()
    }

    /// When the batch was admitted (transports time the drain from here).
    pub fn started(&self) -> Instant {
        self.started
    }

    /// Correlation id of the originating request.
    pub fn request_id(&self) -> &str {
        &self.request_id
    }

    /// The originating request's phase timeline.
    pub fn trace(&self) -> &Arc<TraceTimeline> {
        &self.trace
    }

    /// Drives the stream to completion, handing each NDJSON line (newline
    /// included) to `emit` the moment it is available.
    fn emit_lines<E>(
        mut self,
        service: &Service,
        emit: &mut dyn FnMut(&str) -> Result<(), E>,
    ) -> Result<(), E> {
        let total = self.specs.len();
        let mut completed = 0usize;
        let mut cached = 0usize;
        let mut errors = 0usize;
        let mut total_solve_ms = 0f64;

        // Cache replays are complete before any solve: emit them first, in
        // request order.
        for (index, (spec, disposition)) in self.specs.iter().zip(&self.dispositions).enumerate() {
            if let Disposition::Cached(values) = disposition {
                completed += 1;
                cached += 1;
                emit(&stream_line(
                    index,
                    None,
                    cached_response_json(spec.dataset.name(), values),
                ))?;
            }
        }

        // Engine results stream in as-completed order — the whole point: a
        // cheap Fair-Borda line goes out while a budgeted Fair-Kemeny in the
        // same batch is still searching.
        while let Some(item) = self.batch.wait_next() {
            let spec_index = self.batch_to_spec[item.index];
            let spec = &self.specs[spec_index];
            let job_trace = self.batch.handles()[item.index].trace();
            let payload = {
                let _render = Span::enter(&job_trace, "render");
                service.rendered_response(spec, &item.response)
            };
            completed += 1;
            if !item.response.is_complete() {
                errors += 1;
            }
            total_solve_ms += item.response.total_solve_time.as_secs_f64() * 1e3;
            emit(&stream_line(spec_index, Some(item.id), payload))?;
        }

        // Terminal summary line with batch totals.
        let summary = obj(vec![
            ("summary", Value::Bool(true)),
            ("requests", Value::UInt(total as u64)),
            ("completed", Value::UInt(completed as u64)),
            ("cached", Value::UInt(cached as u64)),
            ("errors", Value::UInt(errors as u64)),
            ("total_solve_time_ms", Value::Float(total_solve_ms)),
        ]);
        emit(&format!("{}\n", render(&summary)))
    }
}

/// One NDJSON result line: the per-request payload prefixed with its batch
/// `index` and `job_id` (`null` for cache replays, which never reach the
/// engine).
fn stream_line(index: usize, job: Option<JobId>, payload: Value) -> String {
    let mut entries = vec![
        ("index".to_string(), Value::UInt(index as u64)),
        (
            "job_id".to_string(),
            match job {
                Some(id) => Value::String(id.to_string()),
                None => Value::Null,
            },
        ),
    ];
    match payload {
        Value::Object(fields) => entries.extend(fields),
        other => entries.push(("payload".to_string(), other)),
    }
    format!("{}\n", render(&Value::Object(entries)))
}

/// The response object for a spec whose every method outcome came from the
/// response cache (shared by the buffered and streaming paths).
fn cached_response_json(dataset: &str, values: &[Arc<Value>]) -> Value {
    obj(vec![
        ("dataset", s(dataset)),
        ("status", s(JobStatus::Done.label())),
        ("cached", Value::Bool(true)),
        (
            "results",
            Value::Array(
                values
                    .iter()
                    .map(|v| with_entry((**v).clone(), "cached", Value::Bool(true)))
                    .collect(),
            ),
        ),
    ])
}

/// One validated what-if edit: the dataset state after the edit and the
/// ranking deltas that produced it from the previous state.
#[derive(Debug)]
struct SessionStep {
    dataset: Arc<EngineDataset>,
    deltas: Vec<RankingDelta>,
}

/// A live what-if session: a base dataset plus a validated edit script,
/// solved edit-by-edit with delta-derived precedence matrices and streamed
/// as one NDJSON line per edit (see [`Service::session`]).
#[derive(Debug)]
pub struct WhatIfSession {
    base: Arc<EngineDataset>,
    steps: Vec<SessionStep>,
    methods: Vec<MethodKind>,
    thresholds: FairnessThresholds,
    budget: Option<u64>,
    started: Instant,
    request_id: String,
    trace: Arc<TraceTimeline>,
}

impl WhatIfSession {
    /// Number of edits in the session.
    pub fn len(&self) -> usize {
        self.steps.len()
    }

    /// True for an (impossible via the API) empty session.
    pub fn is_empty(&self) -> bool {
        self.steps.is_empty()
    }

    /// When the session was admitted (transports time the drain from here).
    pub fn started(&self) -> Instant {
        self.started
    }

    /// Correlation id of the originating request.
    pub fn request_id(&self) -> &str {
        &self.request_id
    }

    /// The originating request's phase timeline.
    pub fn trace(&self) -> &Arc<TraceTimeline> {
        &self.trace
    }

    /// Drives the session to completion: per edit, derive the edited state's
    /// precedence matrix from its parent's (delta fold; a cold parent costs
    /// one full build, after which every subsequent edit derives), solve or
    /// replay from the response cache, and emit one NDJSON line.
    fn emit_lines<E>(
        self,
        service: &Service,
        emit: &mut dyn FnMut(&str) -> Result<(), E>,
    ) -> Result<(), E> {
        let total = self.steps.len();
        let mut derived = 0usize;
        let mut rebuilds = 0usize;
        let mut cached = 0usize;
        let mut errors = 0usize;
        let mut total_solve_ms = 0f64;
        let mut parent = Arc::clone(&self.base);
        for (index, step) in self.steps.into_iter().enumerate() {
            let (_, from_delta) = service.engine.cache().derive_with(
                &parent,
                &step.dataset,
                &step.deltas,
                &service.engine.kernel_parallelism(),
            );
            if from_delta {
                derived += 1;
            } else {
                rebuilds += 1;
            }
            let spec = ConsensusSpec {
                dataset: Arc::clone(&step.dataset),
                methods: self.methods.clone(),
                thresholds: self.thresholds.clone(),
                budget: self.budget,
            };
            // An edit state already solved (here or by any other request with
            // identical content) replays from the response cache.
            let mut hits = Vec::with_capacity(spec.methods.len());
            let all_cached = spec.methods.iter().all(|method| {
                match service.cache.get(&spec.cache_key(*method)) {
                    Some(value) => {
                        hits.push(value);
                        true
                    }
                    None => false,
                }
            });
            let payload = if all_cached {
                cached += 1;
                cached_response_json(spec.dataset.name(), &hits)
            } else {
                match service.submit(std::slice::from_ref(&spec)) {
                    Ok(handles) => {
                        let response = handles[0].wait();
                        if !response.is_complete() {
                            errors += 1;
                        }
                        total_solve_ms += response.total_solve_time.as_secs_f64() * 1e3;
                        service.rendered_response(&spec, &response)
                    }
                    Err(error) => {
                        // The stream head is already committed: an admission
                        // failure becomes an error line, not a failed
                        // request, and later edits still run.
                        errors += 1;
                        obj(vec![
                            ("error", s(error.message)),
                            ("kind", s(error.kind.label())),
                        ])
                    }
                }
            };
            emit(&session_line(index, &step.dataset, from_delta, payload))?;
            parent = step.dataset;
        }
        let summary = obj(vec![
            ("summary", Value::Bool(true)),
            ("edits", Value::UInt(total as u64)),
            ("derived", Value::UInt(derived as u64)),
            ("rebuilds", Value::UInt(rebuilds as u64)),
            ("cached", Value::UInt(cached as u64)),
            ("errors", Value::UInt(errors as u64)),
            ("total_solve_time_ms", Value::Float(total_solve_ms)),
        ]);
        emit(&format!("{}\n", render(&summary)))
    }
}

/// One NDJSON session line: the edit index, the edited state's content
/// fingerprint and profile size, whether its matrix was delta-derived, and
/// the solve payload.
fn session_line(index: usize, dataset: &EngineDataset, derived: bool, payload: Value) -> String {
    let mut entries = vec![
        ("edit".to_string(), Value::UInt(index as u64)),
        (
            "fingerprint".to_string(),
            Value::String(format!("{:016x}", dataset.fingerprint())),
        ),
        (
            "rankings".to_string(),
            Value::UInt(dataset.num_rankings() as u64),
        ),
        ("derived".to_string(), Value::Bool(derived)),
    ];
    match payload {
        Value::Object(fields) => entries.extend(fields),
        other => entries.push(("payload".to_string(), other)),
    }
    format!("{}\n", render(&Value::Object(entries)))
}

/// One tracked async job: its handle plus what is needed to render and cache
/// its response when a poll observes completion.
#[derive(Debug)]
struct JobEntry {
    handle: JobHandle,
    dataset: Arc<EngineDataset>,
    cache_keys: Vec<String>,
    cached: AtomicBool,
    /// Correlation id of the submitting request, surfaced by the job and
    /// trace operations so a poll can be matched with the original access
    /// log line.
    request_id: String,
}

/// Everything one MANI-Rank deployment shares across transports.
#[derive(Debug)]
pub struct Service {
    engine: ConsensusEngine,
    cache: ResponseCache,
    datasets: DatasetRegistry,
    metrics: EndpointMetrics,
    jobs: Mutex<HashMap<u64, JobEntry>>,
    slow: SlowRing,
    started: Instant,
}

impl Service {
    /// Builds the service: an engine with `engine_config` and a response
    /// cache bounded to `cache_capacity` entries (`0` = default).
    pub fn new(engine_config: EngineConfig, cache_capacity: usize) -> Self {
        Self {
            engine: ConsensusEngine::with_config(engine_config),
            cache: ResponseCache::new(cache_capacity),
            datasets: DatasetRegistry::default(),
            metrics: EndpointMetrics::new(),
            jobs: Mutex::new(HashMap::new()),
            slow: SlowRing::new(SLOW_RING_CAPACITY),
            started: Instant::now(),
        }
    }

    /// The underlying engine.
    pub fn engine(&self) -> &ConsensusEngine {
        &self.engine
    }

    /// The response cache.
    pub fn response_cache(&self) -> &ResponseCache {
        &self.cache
    }

    /// The persisted dataset registry behind the datasets operations.
    pub fn datasets(&self) -> &DatasetRegistry {
        &self.datasets
    }

    /// Per-operation request latency histograms (transports record into
    /// these when an exchange finishes).
    pub fn metrics(&self) -> &EndpointMetrics {
        &self.metrics
    }

    /// Emits the access-log line for one finished exchange and offers it to
    /// the slow-request ring. `status` is whatever code the transport put on
    /// the wire (already transport vocabulary, carried opaquely here).
    pub fn observe(
        &self,
        label: &'static str,
        target: String,
        request_id: String,
        trace: &TraceTimeline,
        status: u16,
        elapsed: Duration,
    ) {
        mani_obs::debug!(
            "http",
            "request",
            req_id = request_id,
            target = target,
            status = status,
            dur_ms = format!("{:.3}", elapsed.as_secs_f64() * 1e3),
        );
        self.slow.record(SlowEntry {
            request_id,
            endpoint: label,
            target,
            status,
            duration_ns: elapsed.as_nanos().min(u128::from(u64::MAX)) as u64,
            phases: trace
                .snapshot()
                .into_iter()
                .map(|phase| (phase.name, phase.duration_ns))
                .collect(),
        });
    }

    /// Submits already-parsed specs as async jobs (the CLI's local batch
    /// path). Admission failures map to service error kinds.
    pub fn submit(&self, specs: &[ConsensusSpec]) -> Result<Vec<JobHandle>, ApiError> {
        if specs.is_empty() {
            return Ok(Vec::new());
        }
        self.engine
            .submit_batch_async(specs.iter().map(ConsensusSpec::request).collect())
            .map_err(engine_error)
    }

    /// Submits already-parsed specs as a streaming batch whose results arrive
    /// in completion order (the CLI's `--stream` path).
    pub fn submit_streaming(&self, specs: &[ConsensusSpec]) -> Result<BatchHandle, ApiError> {
        if specs.is_empty() {
            return Ok(BatchHandle::new(Vec::new()));
        }
        self.engine
            .submit_batch_streaming(specs.iter().map(ConsensusSpec::request).collect())
            .map_err(engine_error)
    }

    /// The consensus operation over a parsed JSON document: single spec or
    /// `{"requests": [...]}` batch, buffered by default, streamed with
    /// `"stream": true`, async with `"wait": false`. Service-side phases
    /// (`parse`, `cache_probe`, `submit`, `wait`, `render`) are recorded into
    /// the context's timeline.
    pub fn consensus(
        &self,
        body: &Value,
        ctx: &RequestContext,
    ) -> Result<ConsensusReply, ApiError> {
        let parse_span = Span::enter(&ctx.trace, "parse");
        let (specs, single) = match body.get("requests") {
            Some(raw) => {
                let array = raw
                    .as_array()
                    .ok_or_else(|| ApiError::invalid("`requests` must be an array"))?;
                if array.is_empty() {
                    return Err(ApiError::invalid("`requests` must not be empty"));
                }
                (
                    array
                        .iter()
                        .map(|raw| parse_consensus_spec(raw, Some(&self.datasets)))
                        .collect::<Result<Vec<_>, _>>()?,
                    false,
                )
            }
            None => (
                vec![parse_consensus_spec(body, Some(&self.datasets))?],
                true,
            ),
        };
        let wait = parse_flag(body.get("wait"), "`wait` must be a boolean")?;
        let stream_mode = parse_flag(body.get("stream"), "`stream` must be a boolean")?;
        drop(parse_span);
        self.consensus_specs(specs, single, wait, stream_mode, ctx)
    }

    /// The consensus operation over already-parsed specs (the codec layer
    /// lands here directly for non-JSON representations such as columnar
    /// uploads). `single` controls whether a one-spec reply is rendered bare
    /// or wrapped in `{"responses": [...]}`.
    pub fn consensus_specs(
        &self,
        specs: Vec<ConsensusSpec>,
        single: bool,
        wait: bool,
        stream_mode: bool,
        ctx: &RequestContext,
    ) -> Result<ConsensusReply, ApiError> {
        if stream_mode && wait {
            return Err(ApiError::invalid(
                "`stream` and `wait` are mutually exclusive: a streamed batch \
                 delivers each result as it completes",
            ));
        }

        // Probe the response cache per spec: a spec whose every method
        // outcome is cached never reaches the engine.
        let probe_span = Span::enter(&ctx.trace, "cache_probe");
        let mut to_submit: Vec<ConsensusRequest> = Vec::new();
        let mut dispositions = Vec::with_capacity(specs.len());
        for spec in &specs {
            let mut hits = Vec::with_capacity(spec.methods.len());
            let all_cached = !spec.methods.is_empty()
                && spec.methods.iter().all(|method| {
                    match self.cache.get(&spec.cache_key(*method)) {
                        Some(value) => {
                            hits.push(value);
                            true
                        }
                        None => false,
                    }
                });
            if all_cached {
                dispositions.push(Disposition::Cached(hits));
            } else {
                dispositions.push(Disposition::Submitted(to_submit.len()));
                to_submit.push(spec.request());
            }
        }
        drop(probe_span);

        if stream_mode {
            // Admission happens before the transport commits to a response
            // head: an overloaded engine still answers a clean rejection,
            // never a truncated stream.
            let batch = if to_submit.is_empty() {
                BatchHandle::new(Vec::new())
            } else {
                let _submit = Span::enter(&ctx.trace, "submit");
                self.engine
                    .submit_batch_streaming(to_submit)
                    .map_err(engine_error)?
            };
            let mut batch_to_spec = Vec::with_capacity(batch.len());
            for (spec_index, disposition) in dispositions.iter().enumerate() {
                if let Disposition::Submitted(_) = disposition {
                    batch_to_spec.push(spec_index);
                }
            }
            // Every streamed job is also registered: a client that loses its
            // transport mid-stream can recover any line it missed from the
            // jobs operation using the `job_id` values it already saw (or
            // re-send the batch, which replays from the response cache).
            for (batch_index, handle) in batch.handles().iter().enumerate() {
                self.register_job(&specs[batch_to_spec[batch_index]], handle.clone(), &ctx.id);
            }
            return Ok(ConsensusReply::Stream(ConsensusStream {
                specs,
                dispositions,
                batch,
                batch_to_spec,
                started: Instant::now(),
                request_id: ctx.id.clone(),
                trace: Arc::clone(&ctx.trace),
            }));
        }

        let handles = if to_submit.is_empty() {
            Vec::new()
        } else {
            let _submit = Span::enter(&ctx.trace, "submit");
            self.engine
                .submit_batch_async(to_submit)
                .map_err(engine_error)?
        };

        let mut any_pending = false;
        let mut rendered = Vec::with_capacity(specs.len());
        for (spec, disposition) in specs.iter().zip(dispositions) {
            rendered.push(match disposition {
                Disposition::Cached(values) => cached_response_json(spec.dataset.name(), &values),
                Disposition::Submitted(index) => {
                    let handle = &handles[index];
                    if wait {
                        let response = {
                            let _wait = Span::enter(&ctx.trace, "wait");
                            handle.wait()
                        };
                        // Rendering counts against both the request timeline
                        // and the job's own trace (it is the job's last
                        // phase before the bytes leave).
                        let job_trace = handle.trace();
                        let _render_request = Span::enter(&ctx.trace, "render");
                        let _render_job = Span::enter(&job_trace, "render");
                        self.rendered_response(spec, &response)
                    } else {
                        any_pending = true;
                        self.register_job(spec, handle.clone(), &ctx.id);
                        obj(vec![
                            ("id", s(handle.id().to_string())),
                            ("status", s(handle.status().label())),
                            ("dataset", s(spec.dataset.name())),
                            ("poll", s(format!("/v1/jobs/{}", handle.id()))),
                        ])
                    }
                }
            });
        }

        let body = if single {
            rendered
                .into_iter()
                .next()
                .expect("one spec, one rendering")
        } else {
            obj(vec![("responses", Value::Array(rendered))])
        };
        Ok(if any_pending {
            ConsensusReply::Accepted(body)
        } else {
            ConsensusReply::Complete(body)
        })
    }

    /// Drives a [`ConsensusStream`] into `sink`, one line per completion.
    pub fn stream_consensus<S: StreamSink>(
        &self,
        stream: ConsensusStream,
        sink: &mut S,
    ) -> Result<(), S::Error> {
        stream.emit_lines(self, &mut |line| sink.emit_line(line))
    }

    /// Renders a completed response for `spec`, inserting every successful
    /// method outcome into the response cache.
    fn rendered_response(&self, spec: &ConsensusSpec, response: &ConsensusResponse) -> Value {
        let mut results = Vec::with_capacity(response.results.len());
        for (index, result) in response.results.iter().enumerate() {
            results.push(match result {
                Ok(result) => {
                    let value = method_result_json(result, spec.dataset.db());
                    if let Some(method) = spec.methods.get(index) {
                        self.cache
                            .insert(spec.cache_key(*method), Arc::new(value.clone()));
                    }
                    with_entry(value, "cached", Value::Bool(false))
                }
                Err(error) => obj(vec![("error", s(error.to_string()))]),
            });
        }
        obj(vec![
            ("dataset", s(&response.dataset)),
            ("status", s(JobStatus::Done.label())),
            ("cached", Value::Bool(false)),
            ("results", Value::Array(results)),
            (
                "total_solve_time_ms",
                Value::Float(response.total_solve_time.as_secs_f64() * 1e3),
            ),
        ])
    }

    /// Tracks an async job for the jobs operation, pruning completed entries
    /// once the registry outgrows [`MAX_TRACKED_JOBS`].
    fn register_job(&self, spec: &ConsensusSpec, handle: JobHandle, request_id: &str) {
        let entry = JobEntry {
            dataset: Arc::clone(&spec.dataset),
            cache_keys: spec
                .methods
                .iter()
                .map(|method| spec.cache_key(*method))
                .collect(),
            cached: AtomicBool::new(false),
            request_id: request_id.to_string(),
            handle,
        };
        let mut jobs = self.jobs.lock().expect("job registry lock poisoned");
        jobs.insert(entry.handle.id().as_u64(), entry);
        // Only completed jobs are evictable: a queued/running job's poll
        // target was just handed to a client and must keep resolving. When
        // every tracked job is still live the registry temporarily exceeds
        // the bound (its size is then already bounded by the engine queue
        // depth).
        while jobs.len() > MAX_TRACKED_JOBS {
            let oldest_done = jobs
                .iter()
                .filter(|(_, e)| e.handle.status() == JobStatus::Done)
                .map(|(id, _)| *id)
                .min();
            match oldest_done {
                Some(id) => jobs.remove(&id),
                None => break,
            };
        }
    }

    /// The job-poll operation: current status, or the rendered results of a
    /// completed job (also populating the response cache exactly once).
    pub fn job(&self, raw_id: &str) -> Result<Value, ApiError> {
        let id = parse_job_id(raw_id)?;
        let (handle, dataset, cache_keys, already_cached, request_id) = {
            let jobs = self.jobs.lock().expect("job registry lock poisoned");
            let entry = jobs
                .get(&id)
                .ok_or_else(|| ApiError::not_found(format!("no such job `job-{id}`")))?;
            (
                entry.handle.clone(),
                Arc::clone(&entry.dataset),
                entry.cache_keys.clone(),
                entry.cached.swap(true, Ordering::AcqRel),
                entry.request_id.clone(),
            )
        };
        // Read before the poll: `Done` is final and carries the response, so
        // a job that finishes between the two reads is reported as still
        // running, never as done without results.
        let status = handle.status();
        let Some(response) = handle.try_poll() else {
            // Not done yet: release the would-be cache claim for a later
            // poll.
            let jobs = self.jobs.lock().expect("job registry lock poisoned");
            if let Some(entry) = jobs.get(&id) {
                entry.cached.store(false, Ordering::Release);
            }
            return Ok(obj(vec![
                ("id", s(format!("job-{id}"))),
                ("status", s(status.label())),
                ("dataset", s(dataset.name())),
                ("request_id", s(&request_id)),
            ]));
        };

        let mut results = Vec::with_capacity(response.results.len());
        for (index, result) in response.results.iter().enumerate() {
            results.push(match result {
                Ok(result) => {
                    let value = method_result_json(result, dataset.db());
                    if !already_cached {
                        if let Some(key) = cache_keys.get(index) {
                            self.cache.insert(key.clone(), Arc::new(value.clone()));
                        }
                    }
                    with_entry(value, "cached", Value::Bool(false))
                }
                Err(error) => obj(vec![("error", s(error.to_string()))]),
            });
        }
        Ok(obj(vec![
            ("id", s(format!("job-{id}"))),
            ("status", s(JobStatus::Done.label())),
            ("dataset", s(&response.dataset)),
            ("request_id", s(&request_id)),
            ("results", Value::Array(results)),
            (
                "total_solve_time_ms",
                Value::Float(response.total_solve_time.as_secs_f64() * 1e3),
            ),
        ]))
    }

    /// The job-trace operation: the job's phase timeline — queue wait, cache
    /// lookup or matrix build, solve, and render, each phase exactly once
    /// (merged by name) — plus the submitting request's id for log
    /// correlation.
    pub fn job_trace(&self, raw_id: &str) -> Result<Value, ApiError> {
        let id = parse_job_id(raw_id)?;
        let (handle, dataset, request_id) = {
            let jobs = self.jobs.lock().expect("job registry lock poisoned");
            let entry = jobs
                .get(&id)
                .ok_or_else(|| ApiError::not_found(format!("no such job `job-{id}`")))?;
            (
                entry.handle.clone(),
                Arc::clone(&entry.dataset),
                entry.request_id.clone(),
            )
        };
        let trace = handle.trace();
        let phases = Value::Array(
            trace
                .snapshot()
                .into_iter()
                .map(|phase| {
                    obj(vec![
                        ("name", s(phase.name)),
                        ("start_ms", Value::Float(phase.start_ns as f64 / 1e6)),
                        ("duration_ms", Value::Float(phase.duration_ns as f64 / 1e6)),
                        ("count", Value::UInt(phase.count)),
                    ])
                })
                .collect(),
        );
        Ok(obj(vec![
            ("id", s(format!("job-{id}"))),
            ("request_id", s(&request_id)),
            ("dataset", s(dataset.name())),
            ("status", s(handle.status().label())),
            ("span_ms", Value::Float(trace.span_ns() as f64 / 1e6)),
            ("age_ms", Value::Float(trace.age().as_secs_f64() * 1e3)),
            ("phases", phases),
        ]))
    }

    /// The audit operation: a per-group FPR audit of a dataset — the
    /// Fair-Copeland consensus under `delta`, the unconstrained Copeland
    /// consensus, and optionally every base ranking. Runs inline on the
    /// calling thread (audits are `O(n²)`; they do not occupy the consensus
    /// queue).
    pub fn audit(&self, body: &Value) -> Result<Value, ApiError> {
        let dataset = resolve_spec_dataset(body, Some(&self.datasets))?;
        let delta = match body.get("delta") {
            None | Some(Value::Null) => 0.1,
            Some(raw) => as_f64(raw, "`delta`")?,
        };
        let per_ranking = matches!(body.get("per_ranking"), Some(Value::Bool(true)));

        let groups = GroupIndex::new(dataset.db());
        let ctx = MfcrContext::new(
            dataset.db(),
            &groups,
            dataset.profile(),
            FairnessThresholds::uniform(delta),
        );
        let outcome = MethodKind::FairCopeland
            .instantiate()
            .solve(&ctx)
            .map_err(|e| ApiError::internal(e.to_string()))?;
        let fair = FairnessAudit::new("Fair-Copeland", &outcome.ranking, dataset.db(), &groups);
        let unconstrained = CopelandAggregator::new().consensus(dataset.profile());
        let unfair = FairnessAudit::new(
            "Copeland (unconstrained)",
            &unconstrained,
            dataset.db(),
            &groups,
        );

        let mut entries = vec![
            ("dataset", s(dataset.name())),
            ("delta", Value::Float(delta)),
            ("consensus", fair.serialize_value()),
            ("unconstrained", unfair.serialize_value()),
        ];
        let base_audits;
        if per_ranking {
            base_audits = Value::Array(
                dataset
                    .profile()
                    .rankings()
                    .iter()
                    .enumerate()
                    .map(|(index, ranking)| {
                        FairnessAudit::new(
                            format!("ranking-{index}"),
                            ranking,
                            dataset.db(),
                            &groups,
                        )
                        .serialize_value()
                    })
                    .collect(),
            );
            entries.push(("rankings", base_audits));
        }
        Ok(obj(entries))
    }

    /// The dataset-registration operation over a parsed JSON document (a
    /// bare dataset object, or `{"dataset": {...}}`).
    pub fn dataset_create(&self, body: &Value) -> Result<Value, ApiError> {
        let dataset = match body.get("dataset") {
            Some(wrapped) => parse_dataset(wrapped)?,
            None => parse_dataset(body)?,
        };
        self.register_dataset(dataset)
    }

    /// Registers an already-decoded dataset (the codec layer lands here for
    /// non-JSON representations). Ids are content fingerprints (the
    /// precedence-cache key), so registration is idempotent and registered
    /// datasets share the engine's warm matrix with identical inline uploads
    /// in any representation.
    pub fn register_dataset(&self, dataset: Arc<EngineDataset>) -> Result<Value, ApiError> {
        let (registered, created) = self.datasets.register(dataset)?;
        Ok(dataset_value(
            &registered,
            vec![("created", Value::Bool(created))],
        ))
    }

    /// The dataset-metadata operation.
    pub fn dataset_get(&self, id: &str) -> Result<Value, ApiError> {
        let registered = self.datasets.resolve_current(id)?;
        let attributes = attribute_names_json(registered.dataset.db());
        Ok(with_entry(
            dataset_value(&registered, Vec::new()),
            "attributes",
            attributes,
        ))
    }

    /// The dataset-edit operation: applies an `ops` array of `append` /
    /// `retract` ranking edits to the id's current version and installs the
    /// result as the id's next version (the id itself is stable; the returned
    /// `version` and `fingerprint` identify the new current content). The
    /// edited version's precedence matrix is derived from the parent's by
    /// folding the deltas in — `O(edits · n²)` instead of a full
    /// `O(n² · |R|)` rebuild whenever the parent's matrix is warm.
    pub fn dataset_patch(&self, id: &str, body: &Value) -> Result<Value, ApiError> {
        let parent = self.datasets.resolve_current(id)?;
        let ops = body
            .get("ops")
            .and_then(Value::as_array)
            .filter(|ops| !ops.is_empty())
            .ok_or_else(|| ApiError::invalid("a patch needs a non-empty `ops` array"))?;
        let deltas = ops
            .iter()
            .enumerate()
            .map(|(index, op)| parse_edit_op(index, op, parent.dataset.db()))
            .collect::<Result<Vec<_>, _>>()?;
        let child = apply_ranking_deltas(&parent.dataset, &deltas)?;
        let (_, derived) = self.engine.cache().derive_with(
            &parent.dataset,
            &child,
            &deltas,
            &self.engine.kernel_parallelism(),
        );
        let (appends, retracts) = deltas
            .iter()
            .fold((0u64, 0u64), |(a, r), delta| match delta {
                RankingDelta::Append { weight, .. } => (a + u64::from(*weight), r),
                RankingDelta::Retract { weight, .. } => (a, r + u64::from(*weight)),
            });
        let updated = self.datasets.update(id, child)?;
        Ok(dataset_value(
            &updated,
            vec![
                ("appends", Value::UInt(appends)),
                ("retracts", Value::UInt(retracts)),
                ("derived", Value::Bool(derived)),
            ],
        ))
    }

    /// The dataset-removal operation.
    pub fn dataset_delete(&self, id: &str) -> Result<Value, ApiError> {
        match self.datasets.remove(id) {
            Some(_) => Ok(obj(vec![("id", s(id)), ("deleted", Value::Bool(true))])),
            None => Err(ApiError::not_found(format!("no such dataset `{id}`"))),
        }
    }

    /// The what-if session operation: a base dataset (inline, by id, or a
    /// pinned version) plus an `edits` array, each edit an op object or a
    /// list of ops applied on top of the previous edit's state. The whole
    /// script is validated here, before any solve; drive the returned session
    /// with [`Service::stream_session`] to get one NDJSON line of consensus +
    /// parity results per edit. Nothing is persisted — a session explores
    /// counterfactual edits without touching the id's version chain (use the
    /// dataset patch operation to commit an edit).
    pub fn session(&self, body: &Value, ctx: &RequestContext) -> Result<WhatIfSession, ApiError> {
        let _parse = Span::enter(&ctx.trace, "parse");
        let spec = parse_consensus_spec(body, Some(&self.datasets))?;
        let edits = body
            .get("edits")
            .and_then(Value::as_array)
            .filter(|edits| !edits.is_empty())
            .ok_or_else(|| ApiError::invalid("a session needs a non-empty `edits` array"))?;
        let mut steps = Vec::with_capacity(edits.len());
        let mut parent = Arc::clone(&spec.dataset);
        for (index, edit) in edits.iter().enumerate() {
            let deltas = match edit {
                Value::Object(_) => vec![parse_edit_op(index, edit, spec.dataset.db())?],
                Value::Array(ops) if !ops.is_empty() => ops
                    .iter()
                    .map(|op| parse_edit_op(index, op, spec.dataset.db()))
                    .collect::<Result<Vec<_>, _>>()?,
                _ => {
                    return Err(ApiError::invalid(format!(
                        "edit {index} must be an op object or a non-empty array of ops"
                    )));
                }
            };
            let child = apply_ranking_deltas(&parent, &deltas)
                .map_err(|e| ApiError::new(e.kind, format!("edit {index}: {}", e.message)))?;
            steps.push(SessionStep {
                dataset: Arc::clone(&child),
                deltas,
            });
            parent = child;
        }
        Ok(WhatIfSession {
            base: Arc::clone(&spec.dataset),
            steps,
            methods: spec.methods,
            thresholds: spec.thresholds,
            budget: spec.budget,
            started: Instant::now(),
            request_id: ctx.id.clone(),
            trace: Arc::clone(&ctx.trace),
        })
    }

    /// Drives a [`WhatIfSession`] into `sink`, one line per edit plus a
    /// terminal summary.
    pub fn stream_session<S: StreamSink>(
        &self,
        session: WhatIfSession,
        sink: &mut S,
    ) -> Result<(), S::Error> {
        session.emit_lines(self, &mut |line| sink.emit_line(line))
    }

    /// The stats operation: every counter surface as one JSON document.
    /// `transport` carries whatever connection-level counters the embedding
    /// transport tracks (zeros for transports without a connection pool).
    pub fn stats(&self, transport: &TransportStats) -> Value {
        let engine = self.engine.stats();
        let precedence = self.engine.cache().stats();
        let responses = self.cache.stats();
        let jobs_tracked = self.jobs.lock().expect("job registry lock poisoned").len();
        let latency = Value::Object(
            self.metrics
                .snapshots()
                .into_iter()
                .map(|(label, snap)| {
                    (
                        label.to_string(),
                        obj(vec![
                            ("count", Value::UInt(snap.count)),
                            ("total_ms", Value::Float(snap.total_ns as f64 / 1e6)),
                            (
                                "le_us",
                                Value::Array(
                                    LATENCY_BUCKET_BOUNDS_US
                                        .iter()
                                        .map(|b| Value::UInt(*b))
                                        .collect(),
                                ),
                            ),
                            (
                                "buckets",
                                Value::Array(
                                    snap.buckets.iter().map(|c| Value::UInt(*c)).collect(),
                                ),
                            ),
                        ]),
                    )
                })
                .collect(),
        );
        obj(vec![
            (
                "engine",
                obj(vec![
                    ("threads", Value::UInt(self.engine.threads() as u64)),
                    (
                        "kernel_threads",
                        Value::UInt(self.engine.kernel_parallelism().max_threads() as u64),
                    ),
                    ("queue_depth", Value::UInt(engine.queue_depth as u64)),
                    ("in_flight", Value::UInt(engine.in_flight as u64)),
                    ("submitted", Value::UInt(engine.submitted)),
                    ("completed", Value::UInt(engine.completed)),
                    ("rejected", Value::UInt(engine.rejected)),
                    ("pool_queued", Value::UInt(engine.pool_queued as u64)),
                    ("pool_busy", Value::UInt(engine.pool_busy as u64)),
                    (
                        "pool_tasks_executed",
                        Value::UInt(engine.pool_tasks_executed),
                    ),
                ]),
            ),
            (
                "kernels",
                obj(vec![
                    ("matrix_build_ns", Value::UInt(engine.matrix_build_ns)),
                    ("solve_ns", Value::UInt(engine.solve_ns)),
                    ("nodes_expanded", Value::UInt(engine.nodes_expanded)),
                    ("fw_blocked_solves", Value::UInt(engine.fw_blocked_solves)),
                    ("fw_tiles_relaxed", Value::UInt(engine.fw_tiles_relaxed)),
                    (
                        "ranking_shard_tasks",
                        Value::UInt(engine.ranking_shard_tasks),
                    ),
                ]),
            ),
            (
                "streaming",
                obj(vec![
                    ("batches_opened", Value::UInt(engine.batches_opened)),
                    ("batches_drained", Value::UInt(engine.batches_drained)),
                    ("results_yielded", Value::UInt(engine.batch_results_yielded)),
                ]),
            ),
            (
                "precedence_cache",
                obj(vec![
                    ("lookups", Value::UInt(precedence.lookups)),
                    ("hits", Value::UInt(precedence.hits)),
                    ("builds", Value::UInt(precedence.builds)),
                    ("delta_appends", Value::UInt(precedence.delta_appends)),
                    ("delta_retracts", Value::UInt(precedence.delta_retracts)),
                    (
                        "delta_rebuild_fallbacks",
                        Value::UInt(precedence.delta_rebuild_fallbacks),
                    ),
                    ("entries", Value::UInt(precedence.entries as u64)),
                ]),
            ),
            (
                "response_cache",
                obj(vec![
                    ("capacity", Value::UInt(responses.capacity as u64)),
                    ("entries", Value::UInt(responses.entries as u64)),
                    ("hits", Value::UInt(responses.hits)),
                    ("misses", Value::UInt(responses.misses)),
                    ("insertions", Value::UInt(responses.insertions)),
                    ("evictions", Value::UInt(responses.evictions)),
                ]),
            ),
            (
                "server",
                obj(vec![
                    ("max_connections", Value::UInt(transport.max_connections)),
                    ("conn_threads", Value::UInt(transport.conn_threads)),
                    ("connections_accepted", Value::UInt(transport.accepted)),
                    ("connections_rejected", Value::UInt(transport.rejected_busy)),
                    ("requests_served", Value::UInt(transport.requests)),
                    ("keepalive_reuses", Value::UInt(transport.keepalive_reuses)),
                ]),
            ),
            ("latency", latency),
            (
                "datasets_registered",
                Value::UInt(self.datasets.len() as u64),
            ),
            ("jobs_tracked", Value::UInt(jobs_tracked as u64)),
            (
                "slow_requests",
                Value::Array(
                    self.slow
                        .snapshot()
                        .into_iter()
                        .map(|entry| {
                            obj(vec![
                                ("request_id", s(&entry.request_id)),
                                ("endpoint", s(entry.endpoint)),
                                ("target", s(&entry.target)),
                                ("status", Value::UInt(u64::from(entry.status))),
                                ("duration_ms", Value::Float(entry.duration_ns as f64 / 1e6)),
                                (
                                    "phases",
                                    Value::Object(
                                        entry
                                            .phases
                                            .iter()
                                            .map(|(name, ns)| {
                                                (name.to_string(), Value::Float(*ns as f64 / 1e6))
                                            })
                                            .collect(),
                                    ),
                                ),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "uptime_seconds",
                Value::Float(self.started.elapsed().as_secs_f64()),
            ),
        ])
    }

    /// The metrics operation: the whole counter surface in Prometheus text
    /// exposition 0.0.4 — per-operation request counts and latency
    /// histograms, engine queue/job/kernel counters, worker-pool saturation,
    /// both cache layers, and the transport's connection counters.
    pub fn metrics_exposition(&self, build: &BuildInfo, transport: &TransportStats) -> String {
        let engine = self.engine.stats();
        let precedence = self.engine.cache().stats();
        let responses = self.cache.stats();
        let jobs_tracked = self.jobs.lock().expect("job registry lock poisoned").len();
        let snapshots = self.metrics.snapshots();

        let mut w = PromWriter::new();
        w.family("mani_build_info", "gauge", "Build identity (constant 1).");
        w.sample("mani_build_info", &[("version", build.version)], 1.0);
        w.gauge(
            "mani_uptime_seconds",
            "Seconds since this server state was created.",
            self.started.elapsed().as_secs_f64(),
        );

        w.family(
            "mani_http_requests_total",
            "counter",
            "HTTP requests dispatched, by endpoint label.",
        );
        for (label, snap) in &snapshots {
            w.sample(
                "mani_http_requests_total",
                &[("endpoint", *label)],
                snap.count as f64,
            );
        }
        w.family(
            "mani_http_request_duration_seconds",
            "histogram",
            "HTTP request latency, by endpoint label.",
        );
        let bounds: Vec<f64> = LATENCY_BUCKET_BOUNDS_US
            .iter()
            .map(|us| *us as f64 / 1e6)
            .collect();
        for (label, snap) in &snapshots {
            w.histogram(
                "mani_http_request_duration_seconds",
                &[("endpoint", *label)],
                &bounds,
                &snap.buckets,
                snap.total_ns as f64 / 1e9,
            );
        }

        w.counter(
            "mani_connections_accepted_total",
            "Connections handed to the worker pool.",
            transport.accepted,
        );
        w.counter(
            "mani_connections_rejected_total",
            "Connections turned away at the accept path.",
            transport.rejected_busy,
        );
        w.counter(
            "mani_requests_served_total",
            "HTTP exchanges served across all connections.",
            transport.requests,
        );
        w.counter(
            "mani_keepalive_reuses_total",
            "Exchanges served on an already-used keep-alive connection.",
            transport.keepalive_reuses,
        );
        w.gauge(
            "mani_connections_max",
            "Configured concurrent-connection bound.",
            transport.max_connections as f64,
        );
        w.gauge(
            "mani_connection_threads",
            "Configured connection worker threads.",
            transport.conn_threads as f64,
        );

        w.gauge(
            "mani_engine_queue_depth",
            "Configured engine job-queue bound.",
            engine.queue_depth as f64,
        );
        w.gauge(
            "mani_engine_jobs_in_flight",
            "Jobs admitted and not yet completed.",
            engine.in_flight as f64,
        );
        w.counter(
            "mani_engine_jobs_submitted_total",
            "Jobs admitted to the engine queue.",
            engine.submitted,
        );
        w.counter(
            "mani_engine_jobs_completed_total",
            "Jobs that finished solving.",
            engine.completed,
        );
        w.counter(
            "mani_engine_jobs_rejected_total",
            "Jobs refused because the queue was full.",
            engine.rejected,
        );
        w.family(
            "mani_engine_matrix_build_seconds_total",
            "counter",
            "Cumulative time spent building precedence matrices.",
        );
        w.sample(
            "mani_engine_matrix_build_seconds_total",
            &[],
            engine.matrix_build_ns as f64 / 1e9,
        );
        w.family(
            "mani_engine_solve_seconds_total",
            "counter",
            "Cumulative time spent inside method solvers.",
        );
        w.sample(
            "mani_engine_solve_seconds_total",
            &[],
            engine.solve_ns as f64 / 1e9,
        );
        w.counter(
            "mani_engine_nodes_expanded_total",
            "Exact-solver search nodes expanded.",
            engine.nodes_expanded,
        );
        w.counter(
            "mani_kernel_fw_blocked_solves_total",
            "Blocked (tiled) Floyd-Warshall solves, process-wide.",
            engine.fw_blocked_solves,
        );
        w.counter(
            "mani_kernel_fw_tiles_relaxed_total",
            "Tiles relaxed by blocked Floyd-Warshall solves, process-wide.",
            engine.fw_tiles_relaxed,
        );
        w.counter(
            "mani_kernel_ranking_shard_tasks_total",
            "Ranking shard tasks spawned by matrix build kernels, process-wide.",
            engine.ranking_shard_tasks,
        );
        w.counter(
            "mani_engine_batches_opened_total",
            "Streaming batches opened.",
            engine.batches_opened,
        );
        w.counter(
            "mani_engine_batches_drained_total",
            "Streaming batches fully drained.",
            engine.batches_drained,
        );
        w.counter(
            "mani_engine_batch_results_yielded_total",
            "Streaming results yielded in as-completed order.",
            engine.batch_results_yielded,
        );
        w.gauge(
            "mani_pool_queued",
            "Engine worker-pool jobs waiting for a thread.",
            engine.pool_queued as f64,
        );
        w.gauge(
            "mani_pool_busy",
            "Engine worker-pool threads currently running a job.",
            engine.pool_busy as f64,
        );
        w.counter(
            "mani_pool_tasks_executed_total",
            "Engine worker-pool jobs executed to completion.",
            engine.pool_tasks_executed,
        );

        w.counter(
            "mani_precedence_cache_lookups_total",
            "Precedence-cache lookups.",
            precedence.lookups,
        );
        w.counter(
            "mani_precedence_cache_hits_total",
            "Precedence-cache hits (matrix reused).",
            precedence.hits,
        );
        w.counter(
            "mani_precedence_cache_builds_total",
            "Precedence matrices built.",
            precedence.builds,
        );
        w.counter(
            "mani_precedence_cache_delta_appends_total",
            "Ranking appends folded into delta-derived precedence matrices.",
            precedence.delta_appends,
        );
        w.counter(
            "mani_precedence_cache_delta_retracts_total",
            "Ranking retracts folded into delta-derived precedence matrices.",
            precedence.delta_retracts,
        );
        w.counter(
            "mani_precedence_cache_delta_rebuilds_total",
            "Delta derivations that fell back to a full matrix rebuild.",
            precedence.delta_rebuild_fallbacks,
        );
        w.gauge(
            "mani_precedence_cache_entries",
            "Precedence-cache resident entries.",
            precedence.entries as f64,
        );

        w.gauge(
            "mani_response_cache_capacity",
            "Response-cache entry bound.",
            responses.capacity as f64,
        );
        w.gauge(
            "mani_response_cache_entries",
            "Response-cache resident entries.",
            responses.entries as f64,
        );
        w.counter(
            "mani_response_cache_hits_total",
            "Response-cache hits.",
            responses.hits,
        );
        w.counter(
            "mani_response_cache_misses_total",
            "Response-cache misses.",
            responses.misses,
        );
        w.counter(
            "mani_response_cache_insertions_total",
            "Response-cache insertions.",
            responses.insertions,
        );
        w.counter(
            "mani_response_cache_evictions_total",
            "Response-cache LRU evictions.",
            responses.evictions,
        );

        w.gauge(
            "mani_datasets_registered",
            "Datasets resident in the registry.",
            self.datasets.len() as f64,
        );
        w.gauge(
            "mani_jobs_tracked",
            "Async jobs tracked for polling.",
            jobs_tracked as f64,
        );

        w.finish()
    }
}

/// The version operation: build identity of the embedding transport.
pub fn version_value(build: &BuildInfo) -> Value {
    obj(vec![
        ("name", s(build.name)),
        ("version", s(build.version)),
        (
            "git",
            match build.git {
                Some(describe) => s(describe),
                None => Value::Null,
            },
        ),
        ("profile", s(build.profile)),
        (
            "features",
            Value::Array(build.features.iter().copied().map(s).collect()),
        ),
    ])
}

/// The methods operation: every supported aggregation method with its paper
/// label and whether the paper proposes it.
pub fn methods_value() -> Value {
    let methods = Value::Array(
        MethodKind::all()
            .iter()
            .map(|kind| {
                obj(vec![
                    ("name", s(kind.name())),
                    ("paper_label", s(kind.paper_label())),
                    ("proposed", Value::Bool(kind.is_proposed())),
                ])
            })
            .collect(),
    );
    obj(vec![("methods", methods)])
}

/// The canonical dataset resource object every dataset operation returns:
/// the stable `id`, the monotonic `version`, this version's content
/// `fingerprint`, and the dataset's shape, plus operation-specific entries.
fn dataset_value(registered: &RegisteredDataset, extra: Vec<(&str, Value)>) -> Value {
    let dataset = &registered.dataset;
    let mut entries = vec![
        ("id", s(&registered.id)),
        ("version", Value::UInt(registered.version)),
        ("fingerprint", s(registered.fingerprint_hex())),
        ("name", s(dataset.name())),
        ("candidates", Value::UInt(dataset.num_candidates() as u64)),
        ("rankings", Value::UInt(dataset.num_rankings() as u64)),
    ];
    entries.extend(extra);
    obj(entries)
}

/// Parses one edit op — `{"op": "append"|"retract", "ranking": [names],
/// "weight"?: W}` — into a ranking delta against `db`. The ranking must be a
/// full order over the dataset's candidates; `weight` (default 1) counts how
/// many copies the op adds or removes.
fn parse_edit_op(index: usize, op: &Value, db: &CandidateDb) -> Result<RankingDelta, ApiError> {
    let kind = op.get("op").and_then(Value::as_str).ok_or_else(|| {
        ApiError::invalid(format!("op {index} needs an `op` of `append` or `retract`"))
    })?;
    let weight = match op.get("weight") {
        None | Some(Value::Null) => 1u32,
        Some(Value::UInt(w)) if (1..=u64::from(u32::MAX)).contains(w) => *w as u32,
        Some(Value::Int(w)) if (1..=i64::from(u32::MAX)).contains(w) => *w as u32,
        Some(_) => {
            return Err(ApiError::invalid(format!(
                "op {index} `weight` must be a positive integer"
            )));
        }
    };
    let names = op.get("ranking").and_then(Value::as_array).ok_or_else(|| {
        ApiError::invalid(format!(
            "op {index} needs a `ranking` array of candidate names"
        ))
    })?;
    if names.len() != db.len() {
        return Err(ApiError::invalid(format!(
            "op {index} ranking must order all {} candidates (got {})",
            db.len(),
            names.len()
        )));
    }
    let mut order = Vec::with_capacity(names.len());
    for raw in names {
        let candidate = raw.as_str().ok_or_else(|| {
            ApiError::invalid(format!("op {index} ranking entries must be strings"))
        })?;
        let id = db.candidate_by_name(candidate).ok_or_else(|| {
            ApiError::invalid(format!("op {index} names unknown candidate `{candidate}`"))
        })?;
        order.push(id);
    }
    let ranking =
        Ranking::from_order(order).map_err(|e| ApiError::invalid(format!("op {index}: {e}")))?;
    match kind {
        "append" => Ok(RankingDelta::Append { ranking, weight }),
        "retract" => Ok(RankingDelta::Retract { ranking, weight }),
        other => Err(ApiError::invalid(format!(
            "op {index} has unknown `op` `{other}` (expected `append` or `retract`)"
        ))),
    }
}

/// Applies ranking deltas to a dataset's profile, producing the edited
/// dataset (same candidate database, same name, new profile). Retracting a
/// ranking the profile does not hold enough copies of is invalid and leaves
/// nothing changed; so is editing the profile down to zero rankings.
fn apply_ranking_deltas(
    parent: &EngineDataset,
    deltas: &[RankingDelta],
) -> Result<Arc<EngineDataset>, ApiError> {
    let mut rankings = parent.profile().rankings().to_vec();
    for (index, delta) in deltas.iter().enumerate() {
        match delta {
            RankingDelta::Append { ranking, weight } => {
                rankings.extend(std::iter::repeat_with(|| ranking.clone()).take(*weight as usize));
            }
            RankingDelta::Retract { ranking, weight } => {
                for removed in 0..*weight {
                    let position =
                        rankings.iter().rposition(|r| r == ranking).ok_or_else(|| {
                            ApiError::invalid(format!(
                                "op {index} retracts {weight} cop(ies) of a ranking the \
                             profile holds only {removed} of"
                            ))
                        })?;
                    rankings.remove(position);
                }
            }
        }
    }
    if rankings.is_empty() {
        return Err(ApiError::invalid(
            "the edits would leave the dataset with no rankings",
        ));
    }
    let profile = RankingProfile::for_database(parent.db(), rankings)
        .map_err(|e| ApiError::invalid(e.to_string()))?;
    EngineDataset::from_arcs(parent.name(), Arc::clone(parent.db()), Arc::new(profile))
        .map(Arc::new)
        .map_err(|e| ApiError::internal(e.to_string()))
}

/// Maps engine admission/solve failures onto service error kinds.
fn engine_error(error: EngineError) -> ApiError {
    let kind = match error {
        EngineError::Overloaded { .. } => ApiErrorKind::Overloaded,
        _ => ApiErrorKind::Internal,
    };
    ApiError::new(kind, error.to_string())
}

/// Parses an optional boolean flag field.
fn parse_flag(value: Option<&Value>, message: &str) -> Result<bool, ApiError> {
    match value {
        None | Some(Value::Null) => Ok(false),
        Some(Value::Bool(flag)) => Ok(*flag),
        Some(_) => Err(ApiError::invalid(message)),
    }
}

/// Parses a `job-N` (or bare `N`) job id.
fn parse_job_id(raw_id: &str) -> Result<u64, ApiError> {
    raw_id
        .strip_prefix("job-")
        .unwrap_or(raw_id)
        .parse()
        .map_err(|_| ApiError::invalid(format!("malformed job id `{raw_id}`")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::parse_body;

    fn demo_body(delta: f64, wait: bool) -> Value {
        parse_body(&format!(
            r#"{{
                "dataset": {{
                    "name": "demo",
                    "candidates": [
                        {{"name": "a", "attributes": {{"G": "x"}}}},
                        {{"name": "b", "attributes": {{"G": "y"}}}},
                        {{"name": "c", "attributes": {{"G": "x"}}}},
                        {{"name": "d", "attributes": {{"G": "y"}}}}
                    ],
                    "rankings": [["a","b","c","d"], ["d","c","b","a"], ["a","c","b","d"]]
                }},
                "methods": ["Fair-Borda"],
                "delta": {delta},
                "wait": {wait}
            }}"#
        ))
        .unwrap()
    }

    fn service() -> Service {
        Service::new(
            EngineConfig {
                threads: 2,
                ..EngineConfig::default()
            },
            16,
        )
    }

    #[test]
    fn consensus_wait_and_cache_replay() {
        let service = service();
        let ctx = RequestContext::new(None);
        let first = service.consensus(&demo_body(0.2, true), &ctx).unwrap();
        let ConsensusReply::Complete(body) = first else {
            panic!("waited solve must be complete");
        };
        let text = render(&body);
        assert!(text.contains("\"cached\":false"), "{text}");
        assert!(text.contains("\"ranking\""), "{text}");
        let builds_after_first = service.engine().cache().stats().builds;
        assert_eq!(builds_after_first, 1);

        let second = service
            .consensus(&demo_body(0.2, true), &RequestContext::new(None))
            .unwrap();
        let ConsensusReply::Complete(body) = second else {
            panic!("replay must be complete");
        };
        assert!(render(&body).contains("\"cached\":true"));
        assert_eq!(
            service.engine().cache().stats().builds,
            builds_after_first,
            "replay must not build another precedence matrix"
        );
        assert_eq!(
            service.engine().stats().submitted,
            1,
            "replay must not reach the engine queue"
        );
    }

    #[test]
    fn async_jobs_are_accepted_and_pollable() {
        let service = service();
        // Many short jobs, each polled in a tight loop, so polls land while
        // a job completes: a "done" answer must always carry its results.
        for job in 1..=200 {
            let delta = 0.25 + job as f64 * 1e-6;
            let reply = service
                .consensus(&demo_body(delta, false), &RequestContext::new(None))
                .unwrap();
            let ConsensusReply::Accepted(body) = reply else {
                panic!("async submit must be accepted-pending");
            };
            let poll = format!("\"poll\":\"/v1/jobs/job-{job}\"");
            assert!(render(&body).contains(&poll));

            let deadline = Instant::now() + Duration::from_secs(10);
            loop {
                let polled = service.job(&format!("job-{job}")).unwrap();
                let text = render(&polled);
                if text.contains("\"status\":\"done\"") {
                    assert!(text.contains("\"ranking\""), "{text}");
                    break;
                }
                assert!(Instant::now() < deadline, "job never completed");
                std::hint::spin_loop();
            }
        }
        let trace = render(&service.job_trace("job-1").unwrap());
        assert!(trace.contains("\"phases\""), "{trace}");
        assert_eq!(
            service.job("job-999").unwrap_err().kind,
            ApiErrorKind::NotFound
        );
        assert_eq!(
            service.job("banana").unwrap_err().kind,
            ApiErrorKind::InvalidArgument
        );
    }

    #[test]
    fn streams_emit_lines_into_a_sink() {
        let service = service();
        let mut body = demo_body(0.2, false);
        if let Value::Object(ref mut entries) = body {
            entries.retain(|(k, _)| k != "wait");
            entries.push(("stream".to_string(), Value::Bool(true)));
        }
        let reply = service
            .consensus(&body, &RequestContext::new(None))
            .unwrap();
        let ConsensusReply::Stream(stream) = reply else {
            panic!("stream mode must stream");
        };
        assert_eq!(stream.len(), 1);
        let mut collected = String::new();
        match service.stream_consensus(stream, &mut collected) {
            Ok(()) => {}
            Err(never) => match never {},
        }
        let lines: Vec<&str> = collected.lines().collect();
        assert_eq!(lines.len(), 2, "one result + summary: {collected}");
        assert!(lines[0].contains("\"job_id\""), "{}", lines[0]);
        assert!(lines[1].contains("\"summary\":true"), "{}", lines[1]);
    }

    #[test]
    fn stream_and_wait_are_mutually_exclusive() {
        let service = service();
        let mut body = demo_body(0.2, true);
        if let Value::Object(ref mut entries) = body {
            entries.push(("stream".to_string(), Value::Bool(true)));
        }
        let err = service
            .consensus(&body, &RequestContext::new(None))
            .unwrap_err();
        assert_eq!(err.kind, ApiErrorKind::InvalidArgument);
        assert!(err.message.contains("mutually exclusive"));
    }

    #[test]
    fn stats_carry_transport_counters_verbatim() {
        let service = service();
        let transport = TransportStats {
            max_connections: 7,
            conn_threads: 3,
            accepted: 11,
            rejected_busy: 1,
            requests: 29,
            keepalive_reuses: 13,
        };
        let text = render(&service.stats(&transport));
        assert!(text.contains("\"max_connections\":7"), "{text}");
        assert!(text.contains("\"requests_served\":29"), "{text}");
        assert!(text.contains("\"keepalive_reuses\":13"), "{text}");
        assert!(text.contains("\"uptime_seconds\""), "{text}");

        let build = BuildInfo {
            name: "mani-test",
            version: "0.0.0",
            git: None,
            profile: "debug",
            features: &["std-only"],
        };
        let exposition = service.metrics_exposition(&build, &transport);
        assert!(exposition.contains("mani_build_info{version=\"0.0.0\"} 1"));
        assert!(exposition.contains("mani_requests_served_total 29"));
        let version = render(&version_value(&build));
        assert!(version.contains("\"name\":\"mani-test\""), "{version}");
        assert!(version.contains("\"git\":null"), "{version}");
        let methods = render(&methods_value());
        assert!(methods.contains("\"Fair-Kemeny\""), "{methods}");
    }

    #[test]
    fn every_engine_counter_appears_on_both_stats_surfaces() {
        let service = service();
        // Destructured field by field, so a field added to or removed from
        // `EngineStats` fails to compile here until this table says where
        // it renders on both surfaces.
        let mani_engine::EngineStats {
            queue_depth,
            in_flight,
            submitted,
            completed,
            rejected,
            matrix_build_ns,
            delta_appends,
            delta_retracts,
            delta_rebuild_fallbacks,
            solve_ns,
            nodes_expanded,
            batches_opened,
            batches_drained,
            batch_results_yielded,
            pool_queued,
            pool_busy,
            pool_tasks_executed,
            fw_blocked_solves,
            fw_tiles_relaxed,
            ranking_shard_tasks,
        } = service.engine.stats();
        let surfaces = [
            (
                queue_depth as u64,
                "engine/queue_depth",
                "mani_engine_queue_depth",
            ),
            (
                in_flight as u64,
                "engine/in_flight",
                "mani_engine_jobs_in_flight",
            ),
            (
                submitted,
                "engine/submitted",
                "mani_engine_jobs_submitted_total",
            ),
            (
                completed,
                "engine/completed",
                "mani_engine_jobs_completed_total",
            ),
            (
                rejected,
                "engine/rejected",
                "mani_engine_jobs_rejected_total",
            ),
            (pool_queued as u64, "engine/pool_queued", "mani_pool_queued"),
            (pool_busy as u64, "engine/pool_busy", "mani_pool_busy"),
            (
                pool_tasks_executed,
                "engine/pool_tasks_executed",
                "mani_pool_tasks_executed_total",
            ),
            (
                matrix_build_ns,
                "kernels/matrix_build_ns",
                "mani_engine_matrix_build_seconds_total",
            ),
            (
                solve_ns,
                "kernels/solve_ns",
                "mani_engine_solve_seconds_total",
            ),
            (
                nodes_expanded,
                "kernels/nodes_expanded",
                "mani_engine_nodes_expanded_total",
            ),
            (
                fw_blocked_solves,
                "kernels/fw_blocked_solves",
                "mani_kernel_fw_blocked_solves_total",
            ),
            (
                fw_tiles_relaxed,
                "kernels/fw_tiles_relaxed",
                "mani_kernel_fw_tiles_relaxed_total",
            ),
            (
                ranking_shard_tasks,
                "kernels/ranking_shard_tasks",
                "mani_kernel_ranking_shard_tasks_total",
            ),
            (
                batches_opened,
                "streaming/batches_opened",
                "mani_engine_batches_opened_total",
            ),
            (
                batches_drained,
                "streaming/batches_drained",
                "mani_engine_batches_drained_total",
            ),
            (
                batch_results_yielded,
                "streaming/results_yielded",
                "mani_engine_batch_results_yielded_total",
            ),
            (
                delta_appends,
                "precedence_cache/delta_appends",
                "mani_precedence_cache_delta_appends_total",
            ),
            (
                delta_retracts,
                "precedence_cache/delta_retracts",
                "mani_precedence_cache_delta_retracts_total",
            ),
            (
                delta_rebuild_fallbacks,
                "precedence_cache/delta_rebuild_fallbacks",
                "mani_precedence_cache_delta_rebuilds_total",
            ),
        ];
        // Rendered after the snapshot, so every counter reads at least the
        // snapshot's value (process-wide kernel counters may move meanwhile).
        let stats = service.stats(&TransportStats::default());
        let build = BuildInfo {
            name: "mani-test",
            version: "0.0.0",
            git: None,
            profile: "debug",
            features: &[],
        };
        let exposition = service.metrics_exposition(&build, &TransportStats::default());
        for (snapshot, path, metric) in surfaces {
            let json = path
                .split('/')
                .try_fold(&stats, |value, key| value.get(key));
            match json {
                Some(Value::UInt(rendered)) => assert!(*rendered >= snapshot, "{path}"),
                other => panic!("/v1/stats has no integer at {path}: {other:?}"),
            }
            assert!(
                exposition.lines().any(|line| line
                    .strip_prefix(metric)
                    .is_some_and(|rest| rest.starts_with([' ', '{']))),
                "/metrics has no {metric} sample"
            );
        }
    }

    #[test]
    fn audit_compares_fair_and_unconstrained() {
        let service = service();
        let mut body = demo_body(0.2, true);
        if let Value::Object(ref mut entries) = body {
            entries.retain(|(k, _)| k == "dataset");
            entries.push(("per_ranking".to_string(), Value::Bool(true)));
        }
        let text = render(&service.audit(&body).unwrap());
        assert!(text.contains("\"consensus\""), "{text}");
        assert!(text.contains("\"unconstrained\""), "{text}");
        assert!(text.contains("ranking-0"), "{text}");
    }

    #[test]
    fn datasets_crud_round_trip() {
        let service = service();
        let body = demo_body(0.2, true);
        let dataset = body.get("dataset").unwrap();
        let created = service.dataset_create(dataset).unwrap();
        let text = render(&created);
        assert!(text.contains("\"created\":true"), "{text}");
        assert!(text.contains("\"version\":1"), "{text}");
        assert!(text.contains("\"fingerprint\":\""), "{text}");
        let id = created
            .get("id")
            .and_then(Value::as_str)
            .unwrap()
            .to_string();
        let fetched = render(&service.dataset_get(&id).unwrap());
        assert!(fetched.contains("\"attributes\":[\"G\"]"), "{fetched}");
        assert!(fetched.contains("\"version\":1"), "{fetched}");
        assert!(render(&service.dataset_delete(&id).unwrap()).contains("\"deleted\":true"));
        assert_eq!(
            service.dataset_get(&id).unwrap_err().kind,
            ApiErrorKind::NotFound
        );
    }

    /// Registers the demo dataset and returns its id.
    fn upload_demo(service: &Service) -> String {
        let body = demo_body(0.2, true);
        let created = service
            .dataset_create(body.get("dataset").unwrap())
            .unwrap();
        created
            .get("id")
            .and_then(Value::as_str)
            .unwrap()
            .to_string()
    }

    /// A waited Fair-Borda solve referencing the dataset by id.
    fn solve_by_id(id: &str) -> Value {
        parse_body(&format!(
            r#"{{"dataset": {{"id": "{id}"}}, "methods": ["Fair-Borda"], "delta": 0.2, "wait": true}}"#
        ))
        .unwrap()
    }

    #[test]
    fn dataset_patch_bumps_versions_and_derives_the_matrix() {
        let service = service();
        let id = upload_demo(&service);
        // Warm the base version's matrix.
        service
            .consensus(&solve_by_id(&id), &RequestContext::new(None))
            .unwrap();
        let builds = service.engine().cache().stats().builds;
        assert_eq!(builds, 1);

        let patch = parse_body(
            r#"{"ops": [{"op": "append", "ranking": ["d","a","b","c"], "weight": 2},
                        {"op": "retract", "ranking": ["a","c","b","d"]}]}"#,
        )
        .unwrap();
        let patched = render(&service.dataset_patch(&id, &patch).unwrap());
        assert!(patched.contains("\"version\":2"), "{patched}");
        assert!(patched.contains("\"derived\":true"), "{patched}");
        assert!(patched.contains("\"appends\":2"), "{patched}");
        assert!(patched.contains("\"retracts\":1"), "{patched}");
        assert!(patched.contains("\"rankings\":4"), "{patched}");

        // Solving the patched version reuses the delta-derived matrix: no
        // second full build, and the delta counters advanced.
        let ConsensusReply::Complete(body) = service
            .consensus(&solve_by_id(&id), &RequestContext::new(None))
            .unwrap()
        else {
            panic!("waited solve must be complete");
        };
        assert!(render(&body).contains("\"cached\":false"));
        let stats = service.engine().cache().stats();
        assert_eq!(
            stats.builds, builds,
            "patched solve must not rebuild the matrix"
        );
        assert_eq!(stats.delta_appends, 1);
        assert_eq!(stats.delta_retracts, 1);

        // Both versions stay addressable; retract of an absent ranking and
        // retracting everything are invalid and change nothing.
        assert_eq!(service.datasets().current(&id).unwrap().version, 2);
        assert_eq!(
            service
                .datasets()
                .resolve_version(&id, 1)
                .unwrap()
                .dataset
                .num_rankings(),
            3
        );
        let bad = parse_body(
            r#"{"ops": [{"op": "retract", "ranking": ["a","b","c","d"], "weight": 9}]}"#,
        )
        .unwrap();
        assert_eq!(
            service.dataset_patch(&id, &bad).unwrap_err().kind,
            ApiErrorKind::InvalidArgument
        );
        assert_eq!(service.datasets().current(&id).unwrap().version, 2);
    }

    #[test]
    fn patch_and_delete_never_replay_stale_cached_payloads() {
        let service = service();
        let id = upload_demo(&service);
        let ctx = || RequestContext::new(None);

        // Solve and replay: same content, replay is legitimate.
        let ConsensusReply::Complete(first) = service.consensus(&solve_by_id(&id), &ctx()).unwrap()
        else {
            panic!("waited solve must be complete");
        };
        assert!(render(&first).contains("\"cached\":false"));
        let ConsensusReply::Complete(replay) =
            service.consensus(&solve_by_id(&id), &ctx()).unwrap()
        else {
            panic!("replay must be complete");
        };
        assert!(render(&replay).contains("\"cached\":true"));

        // PATCH changes the content fingerprint: the next solve must miss the
        // response cache instead of replaying the pre-edit payload.
        let patch =
            parse_body(r#"{"ops": [{"op": "append", "ranking": ["d","c","b","a"], "weight": 5}]}"#)
                .unwrap();
        service.dataset_patch(&id, &patch).unwrap();
        let ConsensusReply::Complete(after_patch) =
            service.consensus(&solve_by_id(&id), &ctx()).unwrap()
        else {
            panic!("post-patch solve must be complete");
        };
        assert!(
            render(&after_patch).contains("\"cached\":false"),
            "a patched dataset must never replay its pre-edit payload: {}",
            render(&after_patch)
        );

        // DELETE: the id stops resolving entirely — no replay possible.
        service.dataset_delete(&id).unwrap();
        assert_eq!(
            service
                .consensus(&solve_by_id(&id), &ctx())
                .unwrap_err()
                .kind,
            ApiErrorKind::NotFound
        );
    }

    #[test]
    fn sessions_stream_consensus_per_edit_without_rebuilds() {
        let service = service();
        // Warm the base matrix with a plain solve so every edit derives.
        let ConsensusReply::Complete(_) = service
            .consensus(&demo_body(0.2, true), &RequestContext::new(None))
            .unwrap()
        else {
            panic!("waited solve must be complete");
        };
        let builds = service.engine().cache().stats().builds;
        assert_eq!(builds, 1);

        let mut body = demo_body(0.2, true);
        if let Value::Object(ref mut entries) = body {
            entries.retain(|(k, _)| k == "dataset" || k == "methods" || k == "delta");
            entries.push((
                "edits".to_string(),
                parse_body(
                    r#"[{"op": "append", "ranking": ["d","a","b","c"]},
                        [{"op": "retract", "ranking": ["d","a","b","c"]},
                         {"op": "append", "ranking": ["b","a","c","d"], "weight": 2}]]"#,
                )
                .unwrap(),
            ));
        }
        let session = service.session(&body, &RequestContext::new(None)).unwrap();
        assert_eq!(session.len(), 2);
        let mut collected = String::new();
        match service.stream_session(session, &mut collected) {
            Ok(()) => {}
            Err(never) => match never {},
        }
        let lines: Vec<&str> = collected.lines().collect();
        assert_eq!(lines.len(), 3, "two edits + summary: {collected}");
        assert!(lines[0].contains("\"edit\":0"), "{}", lines[0]);
        assert!(lines[0].contains("\"derived\":true"), "{}", lines[0]);
        assert!(lines[0].contains("\"ranking\""), "{}", lines[0]);
        assert!(lines[1].contains("\"edit\":1"), "{}", lines[1]);
        assert!(lines[1].contains("\"derived\":true"), "{}", lines[1]);
        assert!(lines[2].contains("\"summary\":true"), "{}", lines[2]);
        assert!(lines[2].contains("\"derived\":2"), "{}", lines[2]);
        assert!(lines[2].contains("\"rebuilds\":0"), "{}", lines[2]);

        let stats = service.engine().cache().stats();
        assert_eq!(
            stats.builds, builds,
            "what-if edits must derive, not rebuild"
        );
        assert_eq!(stats.delta_appends, 2, "one append per edit");
        assert_eq!(stats.delta_retracts, 1);
        assert_eq!(stats.delta_rebuild_fallbacks, 0);

        // Retracting a ranking the profile never held fails at parse time,
        // before any stream head is committed.
        let mut bad = demo_body(0.2, true);
        if let Value::Object(ref mut entries) = bad {
            entries.retain(|(k, _)| k == "dataset" || k == "methods" || k == "delta");
            entries.push((
                "edits".to_string(),
                parse_body(r#"[{"op": "retract", "ranking": ["b","d","a","c"], "weight": 3}]"#)
                    .unwrap(),
            ));
        }
        let err = service
            .session(&bad, &RequestContext::new(None))
            .unwrap_err();
        assert_eq!(err.kind, ApiErrorKind::InvalidArgument);
        assert!(err.message.contains("edit 0"), "{}", err.message);
    }
}
