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

use mani_core::{BaseAggregator, MethodKind, MfcrContext};
use mani_engine::{
    BatchHandle, CacheStats, ConsensusEngine, ConsensusRequest, ConsensusResponse, EngineConfig,
    EngineDataset, EngineError, EngineStats, JobHandle, JobStatus, RankingDelta,
};
use mani_fairness::{FairnessAudit, FairnessThresholds};
use mani_obs::{PromWriter, SlowEntry, SlowRing, Span, TraceTimeline};
use mani_ranking::{CandidateId, Ranking, RankingError};
use serde::{Serialize, Value};

use crate::error::{ApiError, ApiErrorKind};
use crate::metrics::{EndpointMetrics, TransportStats, LATENCY_BUCKET_BOUNDS_US};
use crate::registry::{DatasetRegistry, RegisteredDataset};
use crate::response_cache::{cache_key, ResponseCache, ResponseCacheStats};
use crate::spec::{
    attribute_names_json, method_result_json, parse_dataset, parse_solve, resolve_dataset,
    uniform_delta,
};
use crate::value::{obj, render, s, with_entry};

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
    /// Every request resolved (cached or awaited); the document is final.
    Complete(Value),
    /// At least one request was submitted without waiting; the document
    /// carries poll targets for the pending jobs.
    Accepted(Value),
    /// A `"stream": true` batch: drive it with [`Service::drive`].
    Stream(NdjsonStream),
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

/// How one request of a consensus batch is satisfied: replayed from the
/// response cache, or submitted to the engine (index into the submitted
/// subset).
#[derive(Debug)]
enum Disposition {
    Cached(Vec<Arc<Value>>),
    Submitted(usize),
}

/// An admitted NDJSON stream — a `"stream": true` consensus batch or a
/// what-if session — that [`Service::drive`] writes one line per result
/// into, then a summary line.
///
/// Each result line's payload is built by the same rendering path as the
/// buffered operation, so streamed and non-streamed results are
/// bit-identical and equally replayable through the response cache. The
/// public fields are what a transport records once the stream is drained.
#[derive(Debug)]
pub struct NdjsonStream {
    lines: StreamLines,
    /// The latency label the stream records under (`consensus_stream` or
    /// `session`).
    pub label: &'static str,
    /// The operation the access log names (`POST /v1/consensus` or
    /// `POST /v1/sessions`).
    pub target: &'static str,
    /// When the stream was admitted (transports time the drain from here).
    pub started: Instant,
    /// Correlation id of the originating request.
    pub request_id: String,
    /// The originating request's phase timeline.
    pub trace: Arc<TraceTimeline>,
}

/// What an [`NdjsonStream`] emits.
#[derive(Debug)]
enum StreamLines {
    /// A consensus batch: cache replays first, in request order, then
    /// engine results in completion order.
    Batch {
        requests: Vec<ConsensusRequest>,
        dispositions: Vec<Disposition>,
        batch: BatchHandle,
        /// Maps engine batch index → request index.
        batch_to_request: Vec<usize>,
    },
    /// A what-if session: the base request, then one line per edit, each
    /// state's matrix delta-derived from its predecessor's.
    Session {
        request: ConsensusRequest,
        steps: Vec<SessionStep>,
    },
}

impl NdjsonStream {
    fn new(
        label: &'static str,
        target: &'static str,
        lines: StreamLines,
        ctx: &RequestContext,
    ) -> Self {
        Self {
            lines,
            label,
            target,
            started: Instant::now(),
            request_id: ctx.id.clone(),
            trace: Arc::clone(&ctx.trace),
        }
    }
}

/// One NDJSON line: the `head` fields, then the payload object's fields.
fn ndjson_line(head: Vec<(&str, Value)>, payload: Value) -> String {
    let mut entries: Vec<(String, Value)> = head
        .into_iter()
        .map(|(key, value)| (key.to_string(), value))
        .collect();
    match payload {
        Value::Object(fields) => entries.extend(fields),
        other => entries.push(("payload".to_string(), other)),
    }
    format!("{}\n", render(&Value::Object(entries)))
}

/// The response object for a request whose every method outcome came from
/// the response cache (shared by the buffered and streaming paths).
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

/// One tracked async job: its handle plus what is needed to render and cache
/// its response when a poll observes completion.
#[derive(Debug)]
struct JobEntry {
    handle: JobHandle,
    request: ConsensusRequest,
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

    /// Submits already-read requests as async jobs (the CLI's local batch
    /// path). Admission failures map to service error kinds.
    pub fn submit(&self, requests: &[ConsensusRequest]) -> Result<Vec<JobHandle>, ApiError> {
        if requests.is_empty() {
            return Ok(Vec::new());
        }
        self.engine
            .submit_batch_async(requests.to_vec())
            .map_err(engine_error)
    }

    /// Submits already-read requests as a streaming batch whose results
    /// arrive in completion order (the CLI's `--stream` path).
    pub fn submit_streaming(&self, requests: &[ConsensusRequest]) -> Result<BatchHandle, ApiError> {
        if requests.is_empty() {
            return Ok(BatchHandle::new(Vec::new()));
        }
        self.engine
            .submit_batch_streaming(requests.to_vec())
            .map_err(engine_error)
    }

    /// The consensus operation over a parsed JSON document: single request
    /// or `{"requests": [...]}` batch, buffered by default, streamed with
    /// `"stream": true`, async with `"wait": false`. Service-side phases
    /// (`parse`, `cache_probe`, `submit`, `wait`, `render`) are recorded into
    /// the context's timeline.
    pub fn consensus(
        &self,
        body: &Value,
        ctx: &RequestContext,
    ) -> Result<ConsensusReply, ApiError> {
        let parse_span = Span::enter(&ctx.trace, "parse");
        let (requests, single) = match body.get("requests") {
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
                        .map(|raw| self.read_request(raw))
                        .collect::<Result<Vec<_>, _>>()?,
                    false,
                )
            }
            None => (vec![self.read_request(body)?], true),
        };
        let (wait, stream_mode) = reply_mode(body)?;
        drop(parse_span);
        self.consensus_requests(requests, single, wait, stream_mode, ctx)
    }

    /// The consensus operation over an already-decoded dataset and its solve
    /// fields (the codec layer lands here for non-JSON representations such
    /// as columnar uploads, whose fields ride the query string). The fields
    /// are read exactly as a JSON body's: see [`parse_solve`].
    pub fn consensus_upload(
        &self,
        dataset: Arc<EngineDataset>,
        fields: &Value,
        ctx: &RequestContext,
    ) -> Result<ConsensusReply, ApiError> {
        let parse_span = Span::enter(&ctx.trace, "parse");
        let request = parse_solve(dataset, fields)?;
        let (wait, stream_mode) = reply_mode(fields)?;
        drop(parse_span);
        self.consensus_requests(vec![request], true, wait, stream_mode, ctx)
    }

    /// One request body read through the registry: its dataset, then its
    /// solve options.
    fn read_request(&self, body: &Value) -> Result<ConsensusRequest, ApiError> {
        parse_solve(resolve_dataset(body, Some(&self.datasets))?, body)
    }

    /// The consensus operation over read requests. `single` controls whether
    /// a one-request reply is rendered bare or wrapped in
    /// `{"responses": [...]}`.
    fn consensus_requests(
        &self,
        requests: Vec<ConsensusRequest>,
        single: bool,
        wait: bool,
        stream_mode: bool,
        ctx: &RequestContext,
    ) -> Result<ConsensusReply, ApiError> {
        // Probe the response cache per request: a request whose every method
        // outcome is cached never reaches the engine.
        let probe_span = Span::enter(&ctx.trace, "cache_probe");
        let mut to_submit: Vec<ConsensusRequest> = Vec::new();
        let mut dispositions = Vec::with_capacity(requests.len());
        for request in &requests {
            if let Some(hits) = self.cached_results(request) {
                dispositions.push(Disposition::Cached(hits));
            } else {
                dispositions.push(Disposition::Submitted(to_submit.len()));
                to_submit.push(request.clone());
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
            let mut batch_to_request = Vec::with_capacity(batch.len());
            for (index, disposition) in dispositions.iter().enumerate() {
                if let Disposition::Submitted(_) = disposition {
                    batch_to_request.push(index);
                }
            }
            // Every streamed job is also registered: a client that loses its
            // transport mid-stream can recover any line it missed from the
            // jobs operation using the `job_id` values it already saw (or
            // re-send the batch, which replays from the response cache).
            for (batch_index, handle) in batch.handles().iter().enumerate() {
                self.register_job(
                    &requests[batch_to_request[batch_index]],
                    handle.clone(),
                    &ctx.id,
                );
            }
            let lines = StreamLines::Batch {
                requests,
                dispositions,
                batch,
                batch_to_request,
            };
            return Ok(ConsensusReply::Stream(NdjsonStream::new(
                "consensus_stream",
                "POST /v1/consensus",
                lines,
                ctx,
            )));
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
        let mut rendered = Vec::with_capacity(requests.len());
        for (request, disposition) in requests.iter().zip(dispositions) {
            rendered.push(match disposition {
                Disposition::Cached(values) => {
                    cached_response_json(request.dataset.name(), &values)
                }
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
                        self.rendered_response(request, &response)
                    } else {
                        any_pending = true;
                        self.register_job(request, handle.clone(), &ctx.id);
                        obj(vec![
                            ("id", s(handle.id().to_string())),
                            ("status", s(handle.status().label())),
                            ("dataset", s(request.dataset.name())),
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
                .expect("one request, one rendering")
        } else {
            obj(vec![("responses", Value::Array(rendered))])
        };
        Ok(if any_pending {
            ConsensusReply::Accepted(body)
        } else {
            ConsensusReply::Complete(body)
        })
    }

    /// Drives an [`NdjsonStream`] into `sink`: one line per result as it
    /// lands, then a summary line.
    pub fn drive<S: StreamSink>(&self, stream: NdjsonStream, sink: &mut S) -> Result<(), S::Error> {
        match stream.lines {
            StreamLines::Batch {
                requests,
                dispositions,
                batch,
                batch_to_request,
            } => self.emit_batch(&requests, &dispositions, batch, &batch_to_request, sink),
            StreamLines::Session { request, steps } => self.emit_session(request, steps, sink),
        }
    }

    /// Emits a streamed consensus batch: cache replays first, in request
    /// order (those results exist before any solve), then engine results in
    /// completion order, then the batch totals.
    fn emit_batch<S: StreamSink>(
        &self,
        requests: &[ConsensusRequest],
        dispositions: &[Disposition],
        mut batch: BatchHandle,
        batch_to_request: &[usize],
        sink: &mut S,
    ) -> Result<(), S::Error> {
        let mut completed = 0usize;
        let mut cached = 0usize;
        let mut errors = 0usize;
        let mut total_solve_ms = 0f64;
        for (index, (request, disposition)) in requests.iter().zip(dispositions).enumerate() {
            if let Disposition::Cached(values) = disposition {
                completed += 1;
                cached += 1;
                sink.emit_line(&ndjson_line(
                    vec![
                        ("index", Value::UInt(index as u64)),
                        ("job_id", Value::Null),
                    ],
                    cached_response_json(request.dataset.name(), values),
                ))?;
            }
        }

        // Engine results stream in as-completed order — the whole point: a
        // cheap Fair-Borda line goes out while a budgeted Fair-Kemeny in the
        // same batch is still searching.
        while let Some(item) = batch.wait_next() {
            let index = batch_to_request[item.index];
            let job_trace = batch.handles()[item.index].trace();
            let payload = {
                let _render = Span::enter(&job_trace, "render");
                self.rendered_response(&requests[index], &item.response)
            };
            completed += 1;
            if !item.response.is_complete() {
                errors += 1;
            }
            total_solve_ms += item.response.total_solve_time.as_secs_f64() * 1e3;
            sink.emit_line(&ndjson_line(
                vec![
                    ("index", Value::UInt(index as u64)),
                    ("job_id", s(item.id.to_string())),
                ],
                payload,
            ))?;
        }

        let summary = obj(vec![
            ("summary", Value::Bool(true)),
            ("requests", Value::UInt(requests.len() as u64)),
            ("completed", Value::UInt(completed as u64)),
            ("cached", Value::UInt(cached as u64)),
            ("errors", Value::UInt(errors as u64)),
            ("total_solve_time_ms", Value::Float(total_solve_ms)),
        ]);
        sink.emit_line(&format!("{}\n", render(&summary)))
    }

    /// Emits a what-if session: per edit, derive the edited state's
    /// precedence matrix from its parent's (delta fold; a cold parent costs
    /// one full build, after which every subsequent edit derives), solve or
    /// replay from the response cache, and emit one line; then the session
    /// totals.
    fn emit_session<S: StreamSink>(
        &self,
        base: ConsensusRequest,
        steps: Vec<SessionStep>,
        sink: &mut S,
    ) -> Result<(), S::Error> {
        let total = steps.len();
        let mut derived = 0usize;
        let mut rebuilds = 0usize;
        let mut cached = 0usize;
        let mut errors = 0usize;
        let mut total_solve_ms = 0f64;
        let mut parent = Arc::clone(&base.dataset);
        for (index, step) in steps.into_iter().enumerate() {
            let (_, from_delta) = self.engine.cache().derive_with(
                &parent,
                &step.dataset,
                &step.deltas,
                &self.engine.kernel_parallelism(),
            );
            if from_delta {
                derived += 1;
            } else {
                rebuilds += 1;
            }
            let request = ConsensusRequest {
                dataset: Arc::clone(&step.dataset),
                ..base.clone()
            };
            // An edit state already solved (here or by any other request with
            // identical content) replays from the response cache.
            let payload = if let Some(hits) = self.cached_results(&request) {
                cached += 1;
                cached_response_json(request.dataset.name(), &hits)
            } else {
                match self.submit(std::slice::from_ref(&request)) {
                    Ok(handles) => {
                        let response = handles[0].wait();
                        if !response.is_complete() {
                            errors += 1;
                        }
                        total_solve_ms += response.total_solve_time.as_secs_f64() * 1e3;
                        self.rendered_response(&request, &response)
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
            let dataset = &step.dataset;
            sink.emit_line(&ndjson_line(
                vec![
                    ("edit", Value::UInt(index as u64)),
                    ("fingerprint", s(format!("{:016x}", dataset.fingerprint()))),
                    ("rankings", Value::UInt(dataset.num_rankings() as u64)),
                    ("derived", Value::Bool(from_delta)),
                ],
                payload,
            ))?;
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
        sink.emit_line(&format!("{}\n", render(&summary)))
    }

    /// Every method outcome of `request` from the response cache, or `None`
    /// when one misses (the probe stops there) or the request names no
    /// method.
    fn cached_results(&self, request: &ConsensusRequest) -> Option<Vec<Arc<Value>>> {
        if request.methods.is_empty() {
            return None;
        }
        request
            .methods
            .iter()
            .map(|method| self.cache.get(&cache_key(request, *method)))
            .collect()
    }

    /// Renders a completed response for `request`, inserting every
    /// successful method outcome into the response cache.
    fn rendered_response(&self, request: &ConsensusRequest, response: &ConsensusResponse) -> Value {
        obj(vec![
            ("dataset", s(&response.dataset)),
            ("status", s(JobStatus::Done.label())),
            ("cached", Value::Bool(false)),
            ("results", self.rendered_results(request, response, true)),
            (
                "total_solve_time_ms",
                Value::Float(response.total_solve_time.as_secs_f64() * 1e3),
            ),
        ])
    }

    /// The `results` array of a completed response for `request`: each
    /// method outcome marked `"cached": false`, or its error. With `insert`,
    /// every successful outcome also goes into the response cache.
    fn rendered_results(
        &self,
        request: &ConsensusRequest,
        response: &ConsensusResponse,
        insert: bool,
    ) -> Value {
        let mut results = Vec::with_capacity(response.results.len());
        for (index, result) in response.results.iter().enumerate() {
            results.push(match result {
                Ok(result) => {
                    let value = method_result_json(result, request.dataset.db());
                    if let Some(method) = request.methods.get(index).filter(|_| insert) {
                        self.cache
                            .insert(cache_key(request, *method), Arc::new(value.clone()));
                    }
                    with_entry(value, "cached", Value::Bool(false))
                }
                Err(error) => obj(vec![("error", s(error.to_string()))]),
            });
        }
        Value::Array(results)
    }

    /// Tracks an async job for the jobs operation, pruning completed entries
    /// once the registry outgrows [`MAX_TRACKED_JOBS`].
    fn register_job(&self, request: &ConsensusRequest, handle: JobHandle, request_id: &str) {
        let entry = JobEntry {
            request: request.clone(),
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
        let (handle, request, already_cached, request_id) = {
            let jobs = self.jobs.lock().expect("job registry lock poisoned");
            let entry = jobs
                .get(&id)
                .ok_or_else(|| ApiError::not_found(format!("no such job `job-{id}`")))?;
            (
                entry.handle.clone(),
                entry.request.clone(),
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
                ("dataset", s(request.dataset.name())),
                ("request_id", s(&request_id)),
            ]));
        };
        let results = self.rendered_results(&request, &response, !already_cached);
        Ok(obj(vec![
            ("id", s(format!("job-{id}"))),
            ("status", s(JobStatus::Done.label())),
            ("dataset", s(&response.dataset)),
            ("request_id", s(&request_id)),
            ("results", results),
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
                Arc::clone(&entry.request.dataset),
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
    /// calling thread, outside the consensus queue, on the engine's cached
    /// artifacts: a dataset a consensus request already warmed costs
    /// Make-MR-Fair plus the audits, and a cold one pays the `O(n² · |R|)`
    /// matrix build here, once for every later request too. The
    /// unconstrained consensus is the memoised Copeland ranking Fair-Copeland
    /// corrected.
    pub fn audit(&self, body: &Value) -> Result<Value, ApiError> {
        let dataset = resolve_dataset(body, Some(&self.datasets))?;
        let delta = uniform_delta(body)?;
        let per_ranking = matches!(body.get("per_ranking"), Some(Value::Bool(true)));

        let kernel = self.engine.kernel_parallelism();
        let (artifacts, _) = self.engine.cache().get_or_build_with(&dataset, &kernel);
        let groups = &*artifacts.groups;
        let ctx = MfcrContext::new(
            dataset.db(),
            groups,
            dataset.profile(),
            FairnessThresholds::uniform(delta),
        )
        .with_precedence(&artifacts.precedence)
        .with_consensus_memo(&artifacts.consensus)
        .with_parallelism(kernel);
        let outcome = MethodKind::FairCopeland
            .instantiate()
            .solve(&ctx)
            .map_err(|e| ApiError::internal(e.to_string()))?;
        let fair = FairnessAudit::new("Fair-Copeland", &outcome.ranking, dataset.db(), groups);
        let unconstrained = ctx.base_consensus(BaseAggregator::Copeland);
        let unfair = FairnessAudit::new(
            "Copeland (unconstrained)",
            &unconstrained,
            dataset.db(),
            groups,
        );

        let mut entries = vec![
            ("dataset", s(dataset.name())),
            ("delta", Value::Float(delta)),
            ("consensus", fair.serialize_value()),
            ("unconstrained", unfair.serialize_value()),
        ];
        if per_ranking {
            // One audit per run, labelled by the index of its first copy.
            let mut first = 0u64;
            let audits = (dataset.profile().runs())
                .map(|(ranking, weight)| {
                    let label = format!("ranking-{first}");
                    first += u64::from(weight);
                    let audit = FairnessAudit::new(label, ranking, dataset.db(), groups);
                    with_entry(
                        audit.serialize_value(),
                        "weight",
                        Value::UInt(weight.into()),
                    )
                })
                .collect();
            entries.push(("rankings", Value::Array(audits)));
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
    ///
    /// Concurrent edits of one id apply one after another: when another edit
    /// installed a version first, the ops are applied again to that version.
    /// Ops name candidates of the id's database, which no edit changes, so
    /// they are parsed once.
    pub fn dataset_patch(&self, id: &str, body: &Value) -> Result<Value, ApiError> {
        let mut parent = self.datasets.resolve_current(id)?;
        let ops = body
            .get("ops")
            .and_then(Value::as_array)
            .filter(|ops| !ops.is_empty())
            .ok_or_else(|| ApiError::invalid("a patch needs a non-empty `ops` array"))?;
        let names = parent.dataset.db().name_index();
        let deltas = ops
            .iter()
            .enumerate()
            .map(|(index, op)| parse_edit_op(index, op, &names))
            .collect::<Result<Vec<_>, _>>()?;
        let (updated, derived) = loop {
            let child = apply_ranking_deltas(&parent.dataset, &deltas)?;
            let (_, derived) = self.engine.cache().derive_with(
                &parent.dataset,
                &child,
                &deltas,
                &self.engine.kernel_parallelism(),
            );
            match self.datasets.update(id, parent.version, child) {
                Ok(updated) => break (updated, derived),
                Err(moved) if moved.kind == ApiErrorKind::Conflict => {
                    parent = self.datasets.resolve_current(id)?;
                }
                Err(error) => return Err(error),
            }
        };
        let (appends, retracts) = deltas
            .iter()
            .fold((0u64, 0u64), |(a, r), delta| match delta {
                RankingDelta::Append { weight, .. } => (a + u64::from(*weight), r),
                RankingDelta::Retract { weight, .. } => (a, r + u64::from(*weight)),
            });
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
    /// script is validated here, before any solve; drive the returned stream
    /// with [`Service::drive`] to get one NDJSON line of consensus + parity
    /// results per edit. Nothing is persisted — a session explores
    /// counterfactual edits without touching the id's version chain (use the
    /// dataset patch operation to commit an edit).
    pub fn session(&self, body: &Value, ctx: &RequestContext) -> Result<NdjsonStream, ApiError> {
        let _parse = Span::enter(&ctx.trace, "parse");
        let request = self.read_request(body)?;
        let edits = body
            .get("edits")
            .and_then(Value::as_array)
            .filter(|edits| !edits.is_empty())
            .ok_or_else(|| ApiError::invalid("a session needs a non-empty `edits` array"))?;
        let names = request.dataset.db().name_index();
        let mut steps = Vec::with_capacity(edits.len());
        let mut parent = Arc::clone(&request.dataset);
        for (index, edit) in edits.iter().enumerate() {
            let deltas = match edit {
                Value::Object(_) => vec![parse_edit_op(index, edit, &names)?],
                Value::Array(ops) if !ops.is_empty() => ops
                    .iter()
                    .map(|op| parse_edit_op(index, op, &names))
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
        Ok(NdjsonStream::new(
            "session",
            "POST /v1/sessions",
            StreamLines::Session { request, steps },
            ctx,
        ))
    }

    /// The stats operation: every counter surface as one JSON document.
    /// `transport` carries whatever connection-level counters the embedding
    /// transport tracks (zeros for transports without a connection pool).
    pub fn stats(&self, transport: &TransportStats) -> Value {
        // The registry lists each section's rows together.
        let mut document: Vec<(String, Value)> = Vec::new();
        for row in self.stat_rows(transport) {
            let value = Value::UInt(row.value.json());
            match (row.path.split_once('/'), document.last_mut()) {
                (Some((section, key)), Some((name, Value::Object(fields)))) if name == section => {
                    fields.push((key.to_string(), value));
                }
                (Some((section, key)), _) => {
                    document.push((section.to_string(), obj(vec![(key, value)])))
                }
                (None, _) => document.push((row.path.to_string(), value)),
            }
        }
        let latency = self
            .metrics
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
                            Value::Array(snap.buckets.iter().map(|c| Value::UInt(*c)).collect()),
                        ),
                    ]),
                )
            })
            .collect();
        let slow_requests = self
            .slow
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
            .collect();
        document.push(("latency".into(), Value::Object(latency)));
        document.push(("slow_requests".into(), Value::Array(slow_requests)));
        let uptime = self.started.elapsed().as_secs_f64();
        document.push(("uptime_seconds".into(), Value::Float(uptime)));
        Value::Object(document)
    }

    /// The metrics operation: the whole counter surface in Prometheus text
    /// exposition 0.0.4 — per-operation request counts and latency
    /// histograms, engine queue/job/kernel counters, worker-pool saturation,
    /// both cache layers, and the transport's connection counters.
    pub fn metrics_exposition(&self, build: &BuildInfo, transport: &TransportStats) -> String {
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

        for row in self.stat_rows(transport) {
            let (kind, sample) = row.value.prom();
            w.family(row.family, kind, row.help);
            w.sample(row.family, &[], sample);
        }
        w.finish()
    }

    /// Every scalar of both stats surfaces, one row each, in `/v1/stats`
    /// order. Each stats struct is destructured field by field, so a field
    /// added to any of them fails to compile until it has a row here.
    fn stat_rows(&self, transport: &TransportStats) -> Vec<StatRow> {
        use StatValue::{Counter, Gauge, Nanos};
        let EngineStats {
            queue_depth,
            in_flight,
            submitted,
            completed,
            rejected,
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
        } = self.engine.stats();
        let CacheStats {
            lookups,
            hits,
            builds,
            build_ns,
            delta_appends,
            delta_retracts,
            delta_rebuild_fallbacks,
            consensus_hits,
            consensus_builds,
            entries,
            matrix_bytes,
        } = self.engine.cache().stats();
        let ResponseCacheStats {
            capacity,
            entries: response_entries,
            hits: response_hits,
            misses,
            insertions,
            evictions,
        } = self.cache.stats();
        let TransportStats {
            max_connections,
            conn_threads,
            accepted,
            rejected_busy,
            requests,
            keepalive_reuses,
        } = *transport;
        let jobs_tracked = self.jobs.lock().expect("job registry lock poisoned").len();
        vec![
            StatRow {
                path: "engine/threads",
                family: "mani_engine_threads",
                help: "Engine worker threads.",
                value: Gauge(self.engine.threads() as u64),
            },
            StatRow {
                path: "engine/kernel_threads",
                family: "mani_engine_kernel_threads",
                help: "Threads each solve's kernels may use.",
                value: Gauge(self.engine.kernel_parallelism().max_threads() as u64),
            },
            StatRow {
                path: "engine/queue_depth",
                family: "mani_engine_queue_depth",
                help: "Configured engine job-queue bound.",
                value: Gauge(queue_depth as u64),
            },
            StatRow {
                path: "engine/in_flight",
                family: "mani_engine_jobs_in_flight",
                help: "Jobs admitted and not yet completed.",
                value: Gauge(in_flight as u64),
            },
            StatRow {
                path: "engine/submitted",
                family: "mani_engine_jobs_submitted_total",
                help: "Jobs admitted to the engine queue.",
                value: Counter(submitted),
            },
            StatRow {
                path: "engine/completed",
                family: "mani_engine_jobs_completed_total",
                help: "Jobs that finished solving.",
                value: Counter(completed),
            },
            StatRow {
                path: "engine/rejected",
                family: "mani_engine_jobs_rejected_total",
                help: "Jobs refused because the queue was full.",
                value: Counter(rejected),
            },
            StatRow {
                path: "engine/pool_queued",
                family: "mani_pool_queued",
                help: "Engine worker-pool jobs waiting for a thread.",
                value: Gauge(pool_queued as u64),
            },
            StatRow {
                path: "engine/pool_busy",
                family: "mani_pool_busy",
                help: "Engine worker-pool threads currently running a job.",
                value: Gauge(pool_busy as u64),
            },
            StatRow {
                path: "engine/pool_tasks_executed",
                family: "mani_pool_tasks_executed_total",
                help: "Engine worker-pool jobs executed to completion.",
                value: Counter(pool_tasks_executed),
            },
            StatRow {
                path: "kernels/matrix_build_ns",
                family: "mani_engine_matrix_build_seconds_total",
                help: "Cumulative time spent building precedence matrices.",
                value: Nanos(build_ns),
            },
            StatRow {
                path: "kernels/solve_ns",
                family: "mani_engine_solve_seconds_total",
                help: "Cumulative time spent inside method solvers.",
                value: Nanos(solve_ns),
            },
            StatRow {
                path: "kernels/nodes_expanded",
                family: "mani_engine_nodes_expanded_total",
                help: "Exact-solver search nodes expanded.",
                value: Counter(nodes_expanded),
            },
            StatRow {
                path: "kernels/fw_blocked_solves",
                family: "mani_kernel_fw_blocked_solves_total",
                help: "Blocked (tiled) Floyd-Warshall solves, process-wide.",
                value: Counter(fw_blocked_solves),
            },
            StatRow {
                path: "kernels/fw_tiles_relaxed",
                family: "mani_kernel_fw_tiles_relaxed_total",
                help: "Tiles relaxed by blocked Floyd-Warshall solves, process-wide.",
                value: Counter(fw_tiles_relaxed),
            },
            StatRow {
                path: "kernels/ranking_shard_tasks",
                family: "mani_kernel_ranking_shard_tasks_total",
                help: "Row-block tasks spawned by parallel matrix builds, process-wide.",
                value: Counter(ranking_shard_tasks),
            },
            StatRow {
                path: "streaming/batches_opened",
                family: "mani_engine_batches_opened_total",
                help: "Streaming batches opened.",
                value: Counter(batches_opened),
            },
            StatRow {
                path: "streaming/batches_drained",
                family: "mani_engine_batches_drained_total",
                help: "Streaming batches fully drained.",
                value: Counter(batches_drained),
            },
            StatRow {
                path: "streaming/results_yielded",
                family: "mani_engine_batch_results_yielded_total",
                help: "Streaming results yielded in as-completed order.",
                value: Counter(batch_results_yielded),
            },
            StatRow {
                path: "precedence_cache/lookups",
                family: "mani_precedence_cache_lookups_total",
                help: "Precedence-cache lookups.",
                value: Counter(lookups),
            },
            StatRow {
                path: "precedence_cache/hits",
                family: "mani_precedence_cache_hits_total",
                help: "Precedence-cache hits (matrix reused).",
                value: Counter(hits),
            },
            StatRow {
                path: "precedence_cache/builds",
                family: "mani_precedence_cache_builds_total",
                help: "Precedence matrices built.",
                value: Counter(builds),
            },
            StatRow {
                path: "precedence_cache/delta_appends",
                family: "mani_precedence_cache_delta_appends_total",
                help: "Ranking appends folded into delta-derived precedence matrices.",
                value: Counter(delta_appends),
            },
            StatRow {
                path: "precedence_cache/delta_retracts",
                family: "mani_precedence_cache_delta_retracts_total",
                help: "Ranking retracts folded into delta-derived precedence matrices.",
                value: Counter(delta_retracts),
            },
            StatRow {
                path: "precedence_cache/delta_rebuild_fallbacks",
                family: "mani_precedence_cache_delta_rebuilds_total",
                help: "Delta derivations that fell back to a full matrix rebuild.",
                value: Counter(delta_rebuild_fallbacks),
            },
            StatRow {
                path: "precedence_cache/consensus_hits",
                family: "mani_consensus_memo_hits_total",
                help: "Base-consensus lookups answered from a cached dataset's memo.",
                value: Counter(consensus_hits),
            },
            StatRow {
                path: "precedence_cache/consensus_builds",
                family: "mani_consensus_memo_builds_total",
                help:
                    "Base consensus rankings aggregated (Borda, Copeland or Schulze) into a memo.",
                value: Counter(consensus_builds),
            },
            StatRow {
                path: "precedence_cache/entries",
                family: "mani_precedence_cache_entries",
                help: "Precedence-cache resident entries.",
                value: Gauge(entries as u64),
            },
            StatRow {
                path: "precedence_cache/matrix_bytes",
                family: "mani_precedence_cache_matrix_bytes",
                help: "Heap bytes of the precedence-cache resident matrices.",
                value: Gauge(matrix_bytes),
            },
            StatRow {
                path: "response_cache/capacity",
                family: "mani_response_cache_capacity",
                help: "Response-cache entry bound.",
                value: Gauge(capacity as u64),
            },
            StatRow {
                path: "response_cache/entries",
                family: "mani_response_cache_entries",
                help: "Response-cache resident entries.",
                value: Gauge(response_entries as u64),
            },
            StatRow {
                path: "response_cache/hits",
                family: "mani_response_cache_hits_total",
                help: "Response-cache hits.",
                value: Counter(response_hits),
            },
            StatRow {
                path: "response_cache/misses",
                family: "mani_response_cache_misses_total",
                help: "Response-cache misses.",
                value: Counter(misses),
            },
            StatRow {
                path: "response_cache/insertions",
                family: "mani_response_cache_insertions_total",
                help: "Response-cache insertions.",
                value: Counter(insertions),
            },
            StatRow {
                path: "response_cache/evictions",
                family: "mani_response_cache_evictions_total",
                help: "Response-cache LRU evictions.",
                value: Counter(evictions),
            },
            StatRow {
                path: "server/max_connections",
                family: "mani_connections_max",
                help: "Configured concurrent-connection bound.",
                value: Gauge(max_connections),
            },
            StatRow {
                path: "server/conn_threads",
                family: "mani_connection_threads",
                help: "Configured connection worker threads.",
                value: Gauge(conn_threads),
            },
            StatRow {
                path: "server/connections_accepted",
                family: "mani_connections_accepted_total",
                help: "Connections handed to the worker pool.",
                value: Counter(accepted),
            },
            StatRow {
                path: "server/connections_rejected",
                family: "mani_connections_rejected_total",
                help: "Connections turned away at the accept path.",
                value: Counter(rejected_busy),
            },
            StatRow {
                path: "server/requests_served",
                family: "mani_requests_served_total",
                help: "HTTP exchanges served across all connections.",
                value: Counter(requests),
            },
            StatRow {
                path: "server/keepalive_reuses",
                family: "mani_keepalive_reuses_total",
                help: "Exchanges served on an already-used keep-alive connection.",
                value: Counter(keepalive_reuses),
            },
            StatRow {
                path: "datasets_registered",
                family: "mani_datasets_registered",
                help: "Datasets resident in the registry.",
                value: Gauge(self.datasets.len() as u64),
            },
            StatRow {
                path: "jobs_tracked",
                family: "mani_jobs_tracked",
                help: "Async jobs tracked for polling.",
                value: Gauge(jobs_tracked as u64),
            },
        ]
    }
}

/// The value of a [`StatRow`], and how it renders on the two stats surfaces.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum StatValue {
    /// A monotone count: an integer in `/v1/stats`, a counter on `/metrics`.
    Counter(u64),
    /// A level that can fall: an integer in `/v1/stats`, a gauge on `/metrics`.
    Gauge(u64),
    /// Cumulative nanoseconds in `/v1/stats`, a seconds counter on `/metrics`.
    Nanos(u64),
}

impl StatValue {
    /// The integer `/v1/stats` renders.
    fn json(self) -> u64 {
        match self {
            StatValue::Counter(value) | StatValue::Gauge(value) | StatValue::Nanos(value) => value,
        }
    }

    /// The Prometheus `# TYPE` of the row's family, and its sample.
    fn prom(self) -> (&'static str, f64) {
        match self {
            StatValue::Counter(value) => ("counter", value as f64),
            StatValue::Gauge(value) => ("gauge", value as f64),
            StatValue::Nanos(ns) => ("counter", ns as f64 / 1e9),
        }
    }
}

/// One scalar of the stats registry ([`Service::stat_rows`]): where it sits
/// in `/v1/stats`, the `/metrics` family it renders as, and its value.
#[derive(Debug)]
struct StatRow {
    /// `section/key` in the `/v1/stats` document, or a top-level key.
    path: &'static str,
    /// Prometheus family name.
    family: &'static str,
    /// Prometheus `# HELP` text.
    help: &'static str,
    value: StatValue,
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
/// "weight"?: W}` — into a ranking delta, resolving names through the
/// dataset's [`mani_ranking::CandidateDb::name_index`]. The ranking must be
/// a full order over the dataset's candidates; `weight` (default 1) counts
/// how many copies the op adds or removes.
fn parse_edit_op(
    index: usize,
    op: &Value,
    names: &HashMap<&str, CandidateId>,
) -> Result<RankingDelta, ApiError> {
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
    let entries = op.get("ranking").and_then(Value::as_array).ok_or_else(|| {
        ApiError::invalid(format!(
            "op {index} needs a `ranking` array of candidate names"
        ))
    })?;
    if entries.len() != names.len() {
        return Err(ApiError::invalid(format!(
            "op {index} ranking must order all {} candidates (got {})",
            names.len(),
            entries.len()
        )));
    }
    let mut order = Vec::with_capacity(entries.len());
    for raw in entries {
        let candidate = raw.as_str().ok_or_else(|| {
            ApiError::invalid(format!("op {index} ranking entries must be strings"))
        })?;
        let id = names.get(candidate).ok_or_else(|| {
            ApiError::invalid(format!("op {index} names unknown candidate `{candidate}`"))
        })?;
        order.push(*id);
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
/// nothing changed; so is editing the profile down to zero rankings or past
/// the total-weight limit. The cost follows the ops, not their weights.
fn apply_ranking_deltas(
    parent: &EngineDataset,
    deltas: &[RankingDelta],
) -> Result<Arc<EngineDataset>, ApiError> {
    let profile = parent.profile().edited(deltas).map_err(|e| match e {
        RankingError::EmptyProfile => {
            ApiError::invalid("the edits would leave the dataset with no rankings")
        }
        other => ApiError::invalid(other.to_string()),
    })?;
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

/// Reads how a consensus reply is delivered: the `wait` and `stream` flags
/// of `fields`, which are mutually exclusive.
fn reply_mode(fields: &Value) -> Result<(bool, bool), ApiError> {
    let wait = parse_flag(fields.get("wait"), "`wait` must be a boolean")?;
    let stream = parse_flag(fields.get("stream"), "`stream` must be a boolean")?;
    if stream && wait {
        return Err(ApiError::invalid(
            "`stream` and `wait` are mutually exclusive: a streamed batch \
             delivers each result as it completes",
        ));
    }
    Ok((wait, stream))
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
    use std::collections::BTreeSet;

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
            let text = render(&poll_until_done(&service, &body));
            assert!(text.contains("\"ranking\""), "{text}");
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
        let mut collected = String::new();
        match service.drive(stream, &mut collected) {
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
        let transport = test_transport();
        let text = render(&service.stats(&transport));
        assert!(text.contains("\"max_connections\":7"), "{text}");
        assert!(text.contains("\"requests_served\":29"), "{text}");
        assert!(text.contains("\"keepalive_reuses\":13"), "{text}");
        assert!(text.contains("\"uptime_seconds\""), "{text}");

        let build = test_build();
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
    fn documented_metric_inventory_matches_the_stat_rows() {
        // Rendered by hand: build identity, uptime and the per-endpoint
        // request histograms.
        const HAND_RENDERED: [&str; 4] = [
            "mani_build_info",
            "mani_uptime_seconds",
            "mani_http_requests_total",
            "mani_http_request_duration_seconds",
        ];
        // | `family{labels}` | type | `/v1/stats path` | meaning |
        let documented: Vec<(&str, &str, &str)> = include_str!("../../../docs/OBSERVABILITY.md")
            .lines()
            .filter_map(|line| {
                let cells: Vec<&str> = line.split('|').map(str::trim).collect();
                let family = cells.get(1)?.strip_prefix('`')?.split(['`', '{']).next()?;
                let path = cells.get(3)?.trim_matches('`');
                (family.starts_with("mani_") && !HAND_RENDERED.contains(&family))
                    .then_some((family, cells[2], path))
            })
            .collect();
        let registry: Vec<(&str, &str, &str)> = service()
            .stat_rows(&TransportStats::default())
            .iter()
            .map(|row| (row.family, row.value.prom().0, row.path))
            .collect();
        assert_eq!(documented, registry);
    }

    #[test]
    fn every_stat_row_reads_alike_on_both_surfaces_after_traffic() {
        let service = service();
        let id = upload_demo(&service);
        let ctx = || RequestContext::new(None);
        // A solve and its cache replay, a PATCH that derives the next
        // version's matrix, and an async job on that version.
        for _ in 0..2 {
            service.consensus(&solve_by_id(&id), &ctx()).unwrap();
        }
        let patch =
            parse_body(r#"{"ops": [{"op": "append", "ranking": ["d","c","b","a"]}]}"#).unwrap();
        let patched = render(&service.dataset_patch(&id, &patch).unwrap());
        assert!(patched.contains("\"derived\":true"), "{patched}");
        let mut job = solve_by_id(&id);
        if let Value::Object(ref mut entries) = job {
            entries.retain(|(k, _)| k != "wait");
        }
        let ConsensusReply::Accepted(accepted) = service.consensus(&job, &ctx()).unwrap() else {
            panic!("async submit must be accepted-pending");
        };
        poll_until_done(&service, &accepted);
        // One pool task per method, so two here; the pool counts a task
        // just after the job's last statement.
        let deadline = Instant::now() + Duration::from_secs(10);
        while service.engine().stats().pool_tasks_executed < 2 {
            assert!(Instant::now() < deadline, "the pool stalled");
            std::thread::yield_now();
        }

        let transport = test_transport();
        let rows = service.stat_rows(&transport);
        let stats = service.stats(&transport);
        let exposition = service.metrics_exposition(&test_build(), &transport);
        let at = |path: &str| path.split('/').try_fold(&stats, |v, key| v.get(key));
        for row in &rows {
            let Some(Value::UInt(json)) = at(row.path) else {
                panic!("/v1/stats has no integer at {}", row.path);
            };
            let sample: f64 = exposition
                .lines()
                .find_map(|line| line.strip_prefix(row.family)?.strip_prefix(' '))
                .unwrap_or_else(|| panic!("/metrics has no {} sample", row.family))
                .parse()
                .unwrap();
            let expected = match row.value {
                StatValue::Nanos(_) => *json as f64 / 1e9,
                StatValue::Counter(_) | StatValue::Gauge(_) => *json as f64,
            };
            // Process-wide kernel counters move with every test's solves.
            if row.family.starts_with("mani_kernel_") {
                assert!(sample >= expected, "{}: {sample} < {expected}", row.family);
            } else {
                assert_eq!(sample, expected, "{}", row.family);
            }
            let counts = !matches!(row.value, StatValue::Gauge(_));
            assert_eq!(counts, row.family.ends_with("_total"), "{}", row.family);
        }
        // The traffic reached the counters.
        for (path, value) in [
            ("engine/submitted", 2),
            ("precedence_cache/delta_appends", 1),
            ("response_cache/hits", 1),
            ("jobs_tracked", 1),
        ] {
            assert_eq!(at(path), Some(&Value::UInt(value)), "{path}");
        }
        let paths: BTreeSet<&str> = rows.iter().map(|row| row.path).collect();
        let families: BTreeSet<&str> = rows.iter().map(|row| row.family).collect();
        assert_eq!((paths.len(), families.len()), (rows.len(), rows.len()));
    }

    #[test]
    fn a_polled_job_answers_as_a_waited_solve_and_replays_from_the_cache() {
        let service = service();
        let id = upload_demo(&service);
        let ctx = || RequestContext::new(None);
        let body = |delta: f64, wait: bool| {
            parse_body(&format!(
                r#"{{"dataset": {{"id": "{id}"}}, "methods": ["Fair-Borda", "Fair-Copeland"],
                    "delta": {delta}, "wait": {wait}}}"#
            ))
            .unwrap()
        };
        // Warm the matrix at another Δ, so both solves below hit it.
        service.consensus(&body(0.3, true), &ctx()).unwrap();
        // The job is submitted before the waited solve and polled after it,
        // so neither finds the other's results in the response cache.
        let ConsensusReply::Accepted(accepted) =
            service.consensus(&body(0.2, false), &ctx()).unwrap()
        else {
            panic!("async submit must be accepted-pending");
        };
        let ConsensusReply::Complete(waited) = service.consensus(&body(0.2, true), &ctx()).unwrap()
        else {
            panic!("waited solve must be complete");
        };
        let polled = poll_until_done(&service, &accepted);
        let results = |reply: &Value, strip: &[&str]| {
            let mut results = reply
                .get("results")
                .and_then(Value::as_array)
                .unwrap()
                .to_vec();
            for result in &mut results {
                if let Value::Object(fields) = result {
                    fields.retain(|(key, _)| !strip.contains(&key.as_str()));
                }
            }
            results
        };
        let timing = ["duration_ms"];
        assert_eq!(results(&polled, &timing), results(&waited, &timing));
        assert_eq!(results(&waited, &timing).len(), 2);

        let hits = service.response_cache().stats().hits;
        let ConsensusReply::Complete(replay) = service.consensus(&body(0.2, true), &ctx()).unwrap()
        else {
            panic!("replay must be complete");
        };
        assert_eq!(replay.get("cached"), Some(&Value::Bool(true)));
        assert_eq!(service.response_cache().stats().hits, hits + 2);
        let replayed = ["duration_ms", "cached"];
        assert_eq!(results(&replay, &replayed), results(&waited, &replayed));
    }

    /// Polls the job an accepted reply names until it reports done, and
    /// returns that answer.
    fn poll_until_done(service: &Service, accepted: &Value) -> Value {
        let id = accepted.get("id").and_then(Value::as_str).unwrap();
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            let polled = service.job(id).unwrap();
            if polled.get("status") == Some(&s("done")) {
                return polled;
            }
            assert!(Instant::now() < deadline, "job never completed");
            std::hint::spin_loop();
        }
    }

    fn test_transport() -> TransportStats {
        TransportStats {
            max_connections: 7,
            conn_threads: 3,
            accepted: 11,
            rejected_busy: 1,
            requests: 29,
            keepalive_reuses: 13,
        }
    }

    fn test_build() -> BuildInfo {
        BuildInfo {
            name: "mani-test",
            version: "0.0.0",
            git: None,
            profile: "debug",
            features: &[],
        }
    }

    #[test]
    fn matrix_bytes_gauge_counts_a_built_and_a_derived_triangle() {
        let service = service();
        let n = 300;
        let candidates: Vec<String> = (0..n)
            .map(|i| format!(r#"{{"name": "c{i}", "attributes": {{"G": "{}"}}}}"#, i % 2))
            .collect();
        let order = |ids: &mut dyn Iterator<Item = usize>| {
            let names: Vec<String> = ids.map(|i| format!(r#""c{i}""#)).collect();
            format!("[{}]", names.join(","))
        };
        let dataset = format!(
            r#"{{"name": "wide", "candidates": [{}], "rankings": [{}, {}]}}"#,
            candidates.join(","),
            order(&mut (0..n)),
            order(&mut (0..n).rev()),
        );
        let created = service
            .dataset_create(&parse_body(&dataset).unwrap())
            .unwrap();
        let id = created
            .get("id")
            .and_then(Value::as_str)
            .unwrap()
            .to_string();
        service
            .consensus(&solve_by_id(&id), &RequestContext::new(None))
            .unwrap();
        let patch = format!(
            r#"{{"ops": [{{"op": "append", "ranking": {}}}]}}"#,
            order(&mut (0..n).map(|i| (i * 7) % n))
        );
        let patched = render(
            &service
                .dataset_patch(&id, &parse_body(&patch).unwrap())
                .unwrap(),
        );
        assert!(patched.contains("\"derived\":true"), "{patched}");

        // One build and one derivation: two triangles of 300·299/2 u32 cells.
        let two_triangles = 2 * 300 * 299 / 2 * 4;
        let stats = service.stats(&TransportStats::default());
        assert_eq!(
            stats
                .get("precedence_cache")
                .and_then(|p| p.get("matrix_bytes")),
            Some(&Value::UInt(two_triangles))
        );
        let exposition = service.metrics_exposition(&test_build(), &TransportStats::default());
        assert!(
            exposition
                .lines()
                .any(|line| line == format!("mani_precedence_cache_matrix_bytes {two_triangles}")),
            "{exposition}"
        );
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

    /// The audit document as `audit` computed it before it read the
    /// engine's artifacts: its own group index and matrix, a plain
    /// Fair-Copeland solve and a separate Copeland aggregation.
    fn standalone_audit(dataset: &EngineDataset, delta: f64) -> Value {
        let db = dataset.db();
        let groups = mani_ranking::GroupIndex::new(db);
        let ctx = MfcrContext::new(
            db,
            &groups,
            dataset.profile(),
            FairnessThresholds::uniform(delta),
        );
        let fair = MethodKind::FairCopeland.instantiate().solve(&ctx).unwrap();
        let unconstrained =
            mani_aggregation::CopelandAggregator::new().consensus(dataset.profile());
        let rankings = dataset
            .profile()
            .rankings()
            .iter()
            .enumerate()
            .map(|(index, ranking)| {
                let audit = FairnessAudit::new(format!("ranking-{index}"), ranking, db, &groups);
                with_entry(audit.serialize_value(), "weight", Value::UInt(1))
            })
            .collect();
        obj(vec![
            ("dataset", s(dataset.name())),
            ("delta", Value::Float(delta)),
            (
                "consensus",
                FairnessAudit::new("Fair-Copeland", &fair.ranking, db, &groups).serialize_value(),
            ),
            (
                "unconstrained",
                FairnessAudit::new("Copeland (unconstrained)", &unconstrained, db, &groups)
                    .serialize_value(),
            ),
            ("rankings", Value::Array(rankings)),
        ])
    }

    #[test]
    fn audit_of_a_warm_dataset_reuses_its_artifacts_and_answers_as_before() {
        let service = service();
        let id = upload_demo(&service);
        service
            .consensus(&solve_by_id(&id), &RequestContext::new(None))
            .unwrap();
        let warm = service.engine().cache().stats();
        assert_eq!(warm.builds, 1);
        let dataset = service.datasets().resolve(&id).unwrap();
        let audit = |delta: f64| {
            let body = parse_body(&format!(
                r#"{{"dataset": {{"id": "{id}"}}, "delta": {delta}, "per_ranking": true}}"#
            ))
            .unwrap();
            render(&service.audit(&body).unwrap())
        };

        assert_eq!(audit(0.2), render(&standalone_audit(&dataset, 0.2)));
        let first = service.engine().cache().stats();
        assert_eq!(first.builds, warm.builds, "the warm matrix is reused");
        assert_eq!(first.hits, warm.hits + 1);
        // Fair-Copeland aggregates Copeland once; the unconstrained
        // consensus is the same memoised ranking.
        assert_eq!(first.consensus_builds, warm.consensus_builds + 1);
        assert_eq!(first.consensus_hits, warm.consensus_hits + 1);

        // Another Δ reads both from the memo.
        assert_eq!(audit(0.3), render(&standalone_audit(&dataset, 0.3)));
        let second = service.engine().cache().stats();
        assert_eq!(second.builds, warm.builds);
        assert_eq!(second.consensus_builds, first.consensus_builds);
        assert_eq!(second.consensus_hits, first.consensus_hits + 2);
    }

    #[test]
    fn fair_copeland_on_a_patched_version_matches_a_direct_solve_of_the_edit() {
        let service = service();
        let id = upload_demo(&service);
        let fair_copeland = || {
            let body = parse_body(&format!(
                r#"{{"dataset": {{"id": "{id}"}}, "methods": ["Fair-Copeland"], "delta": 0.2, "wait": true}}"#
            ))
            .unwrap();
            let ConsensusReply::Complete(reply) = service
                .consensus(&body, &RequestContext::new(None))
                .unwrap()
            else {
                panic!("waited solve must be complete");
            };
            reply.get("results").and_then(Value::as_array).unwrap()[0].clone()
        };
        // Version 1 fills its memo's Copeland slot.
        let before = fair_copeland();

        let patch =
            parse_body(r#"{"ops": [{"op": "append", "ranking": ["d","c","b","a"], "weight": 5}]}"#)
                .unwrap();
        let patched = render(&service.dataset_patch(&id, &patch).unwrap());
        assert!(patched.contains("\"derived\":true"), "{patched}");
        let after = fair_copeland();

        let edited = service.datasets().resolve(&id).unwrap();
        let groups = mani_ranking::GroupIndex::new(edited.db());
        let ctx = MfcrContext::new(
            edited.db(),
            &groups,
            edited.profile(),
            FairnessThresholds::uniform(0.2),
        );
        let direct = MethodKind::FairCopeland.instantiate().solve(&ctx).unwrap();
        assert_eq!(
            after.get("ranking"),
            Some(&crate::spec::ranking_names(&direct.ranking, edited.db()))
        );
        assert_eq!(after.get("pd_loss"), Some(&Value::Float(direct.pd_loss)));
        // The edit moves the consensus, so a memo carried over from version 1
        // would have answered `before`'s ranking.
        assert_ne!(after.get("ranking"), before.get("ranking"));
        assert_eq!(service.engine().cache().stats().consensus_builds, 2);
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
    fn concurrent_patches_of_one_id_apply_one_after_another() {
        const PATCHES: usize = 200;
        let service = service();
        let id = upload_demo(&service);
        let orders = [["b", "a", "d", "c"], ["c", "d", "a", "b"]];
        let start = std::sync::Barrier::new(orders.len());
        std::thread::scope(|scope| {
            for order in &orders {
                let (service, id, start) = (&service, &id, &start);
                scope.spawn(move || {
                    let patch = parse_body(&format!(
                        r#"{{"ops": [{{"op": "append", "ranking": ["{}","{}","{}","{}"]}}]}}"#,
                        order[0], order[1], order[2], order[3]
                    ))
                    .unwrap();
                    start.wait();
                    for _ in 0..PATCHES {
                        service.dataset_patch(id, &patch).unwrap();
                    }
                });
            }
        });
        let current = service.datasets().current(&id).unwrap();
        assert_eq!(current.version, 1 + (orders.len() * PATCHES) as u64);
        let profile = current.dataset.profile();
        assert_eq!(
            profile.len(),
            3 + orders.len() * PATCHES,
            "an edit was lost"
        );
        let names = current.dataset.db().name_index();
        for order in &orders {
            let ranking = Ranking::from_order(order.iter().map(|n| names[n]).collect()).unwrap();
            let copies: u32 = (profile.runs().filter(|(r, _)| **r == ranking))
                .map(|(_, weight)| weight)
                .sum();
            assert_eq!(copies as usize, PATCHES, "{order:?}");
        }
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
        let mut collected = String::new();
        match service.drive(session, &mut collected) {
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
