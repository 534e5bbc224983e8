//! HTTP adapter over the transport-agnostic [`mani_service::Service`] core.
//!
//! Everything behavioral — the response cache probe, engine submission and
//! backpressure, job tracking, dataset registration, stats and Prometheus
//! rendering — lives in `mani-service`. This module only does transport:
//! it resolves routes, negotiates body/response representations through
//! [`crate::codec`], maps [`ApiError`] kinds onto HTTP status codes, stamps
//! `x-request-id`, and frames streamed batches as chunked NDJSON.

use std::io::Write;
use std::sync::Arc;

use mani_engine::EngineConfig;
use mani_obs::Span;
pub use mani_service::ConsensusStream;
use mani_service::{
    decode_dataset, error_body, methods_value, parse_body, render, version_value, ApiError,
    ApiErrorKind, BuildInfo, ConsensusReply, EndpointMetrics, RequestContext, ResponseCache,
    Service, WhatIfSession,
};

use crate::codec::{
    api_error_response, check_accept, columnar_solve_params, negotiate_body, BodyCodec,
    JSON_CONTENT_TYPE, NDJSON_CONTENT_TYPE,
};
use crate::http::{ChunkedBody, ChunkedResponse, HttpError, HttpRequest, HttpResponse};
use crate::metrics::ServeCounters;
use crate::router::{route, Route, Routed};

/// Build identity this binary advertises on `/v1/version` and `/metrics`.
const BUILD_INFO: BuildInfo = BuildInfo {
    name: "mani-serve",
    version: env!("CARGO_PKG_VERSION"),
    git: option_env!("MANI_GIT_DESCRIBE"),
    profile: if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    },
    features: &[
        "std-only",
        "streaming-ndjson",
        "prometheus-metrics",
        "request-tracing",
    ],
};

/// The HTTP status an [`ApiError`] kind maps to. This is the single place
/// the service's transport-neutral error vocabulary meets HTTP's.
pub fn api_error_status(error: &ApiError) -> u16 {
    match error.kind {
        ApiErrorKind::InvalidArgument => 400,
        ApiErrorKind::NotFound => 404,
        ApiErrorKind::Conflict => 409,
        ApiErrorKind::UnsupportedMedia => 415,
        ApiErrorKind::NotAcceptable => 406,
        ApiErrorKind::Overloaded => 429,
        ApiErrorKind::Internal => 500,
    }
}

/// Outcome of dispatching one request: either a fully materialized response,
/// or a streaming consensus batch whose NDJSON lines are produced as jobs
/// complete (written with chunked framing by [`crate::server`]).
#[derive(Debug)]
pub enum Handled {
    /// A complete response, ready to serialize with a `Content-Length`.
    Response(HttpResponse),
    /// A `"stream": true` consensus batch: one NDJSON line per request, in
    /// completion order, plus a terminal summary line.
    Stream(ConsensusStream),
    /// A `POST /v1/sessions` what-if session: one NDJSON line per edit step
    /// (in order, each delta-derived from its predecessor), plus a terminal
    /// summary line.
    Session(WhatIfSession),
}

/// The HTTP front-end's per-server state: the shared [`Service`] core plus
/// the connection-pool counters only this transport tracks.
#[derive(Debug)]
pub struct AppState {
    service: Service,
    connections: ServeCounters,
}

/// Streamed NDJSON lines go straight to the chunked wire body, one flushed
/// chunk per line.
impl<W: Write> mani_service::StreamSink for ChunkedBody<'_, W> {
    type Error = std::io::Error;

    fn emit_line(&mut self, line: &str) -> Result<(), Self::Error> {
        self.write_chunk(line.as_bytes())
    }
}

impl AppState {
    /// Builds the state: a [`Service`] with `engine_config` and a response
    /// cache bounded to `cache_capacity` entries (`0` = default).
    pub fn new(engine_config: EngineConfig, cache_capacity: usize) -> Self {
        Self {
            service: Service::new(engine_config, cache_capacity),
            connections: ServeCounters::new(),
        }
    }

    /// The transport-agnostic service core.
    pub fn service(&self) -> &Service {
        &self.service
    }

    /// The underlying engine (used by tests and the server banner).
    pub fn engine(&self) -> &mani_engine::ConsensusEngine {
        self.service.engine()
    }

    /// The response cache (used by tests).
    pub fn response_cache(&self) -> &ResponseCache {
        self.service.response_cache()
    }

    /// The persisted dataset registry behind `/v1/datasets`.
    pub fn datasets(&self) -> &mani_service::DatasetRegistry {
        self.service.datasets()
    }

    /// Per-endpoint request latency histograms.
    pub fn metrics(&self) -> &EndpointMetrics {
        self.service.metrics()
    }

    /// Connection-pool counters (updated by [`crate::server`]).
    pub fn connections(&self) -> &ServeCounters {
        &self.connections
    }

    /// Dispatches one parsed HTTP request. Complete responses have their
    /// latency recorded immediately; a [`Handled::Stream`] records its
    /// latency (under `consensus_stream`) when the stream finishes, since its
    /// wall-clock spans the whole batch drain. Every response — buffered,
    /// streamed, or error — carries the request's `x-request-id` (accepted
    /// from the client or generated here).
    pub fn dispatch(&self, request: &HttpRequest) -> Handled {
        let ctx = RequestContext::new(request.header("x-request-id"));
        let routed = route(&request.method, &request.path);
        let label = match &routed {
            Routed::Found(found) => found.metrics_label(),
            Routed::NotFound | Routed::MethodNotAllowed => "other",
        };
        let outcome: Result<Handled, HttpResponse> = match routed {
            Routed::NotFound => Err(http_error_response(HttpError::new(
                404,
                format!("no such endpoint: {} {}", request.method, request.path),
            ))),
            Routed::MethodNotAllowed => Err(http_error_response(HttpError::new(
                405,
                format!("{} does not accept {}", request.path, request.method),
            ))),
            Routed::Found(Route::Consensus) => self.consensus(request, &ctx),
            Routed::Found(Route::Audit) => self.audit(request).map(Handled::Response),
            Routed::Found(Route::Job(id)) => json_outcome(self.service.job(&id)),
            Routed::Found(Route::JobTrace(id)) => json_outcome(self.service.job_trace(&id)),
            Routed::Found(Route::DatasetCreate) => {
                self.dataset_create(request).map(Handled::Response)
            }
            Routed::Found(Route::DatasetGet(id)) => json_outcome(self.service.dataset_get(&id)),
            Routed::Found(Route::DatasetPatch(id)) => self.dataset_patch(request, &id),
            Routed::Found(Route::DatasetDelete(id)) => {
                json_outcome(self.service.dataset_delete(&id))
            }
            Routed::Found(Route::SessionCreate) => self.session_create(request, &ctx),
            Routed::Found(Route::Methods) => Ok(Handled::Response(HttpResponse::json(
                200,
                render(&methods_value()),
            ))),
            Routed::Found(Route::Stats) => Ok(Handled::Response(HttpResponse::json(
                200,
                render(&self.service.stats(&self.connections.snapshot().into())),
            ))),
            Routed::Found(Route::Version) => Ok(Handled::Response(HttpResponse::json(
                200,
                render(&version_value(&BUILD_INFO)),
            ))),
            Routed::Found(Route::Metrics) => Ok(Handled::Response(HttpResponse {
                status: 200,
                content_type: "text/plain; version=0.0.4; charset=utf-8",
                extra_headers: Vec::new(),
                body: self
                    .service
                    .metrics_exposition(&BUILD_INFO, &self.connections.snapshot().into()),
            })),
        };
        let response = match outcome {
            // Streams carry their context; their latency, access-log line,
            // and header stamp happen when the drain finishes.
            Ok(Handled::Stream(stream)) => return Handled::Stream(stream),
            Ok(Handled::Session(session)) => return Handled::Session(session),
            Ok(Handled::Response(response)) => response,
            Err(response) => response,
        };
        Handled::Response(self.finish_request(request, label, &ctx, response))
    }

    /// Completes one buffered exchange: records its latency, emits the
    /// access-log line, offers it to the slow ring, and stamps
    /// `x-request-id` onto the response.
    fn finish_request(
        &self,
        request: &HttpRequest,
        label: &'static str,
        ctx: &RequestContext,
        response: HttpResponse,
    ) -> HttpResponse {
        let elapsed = ctx.trace().age();
        self.service.metrics().record(label, elapsed);
        self.service.observe(
            label,
            format!("{} {}", request.method, request.path),
            ctx.id().to_string(),
            ctx.trace(),
            response.status,
            elapsed,
        );
        response.with_header("x-request-id", ctx.id().to_string())
    }

    /// Dispatches one request to a fully buffered [`HttpResponse`]: a
    /// [`Handled::Stream`] is drained into one NDJSON body. Embedding callers
    /// (and unit tests) use this; the server's connection loop uses
    /// [`AppState::dispatch`] so streamed lines hit the wire incrementally.
    pub fn handle(&self, request: &HttpRequest) -> HttpResponse {
        match self.dispatch(request) {
            Handled::Response(response) => response,
            Handled::Stream(stream) => self.collect_stream(stream),
            Handled::Session(session) => self.collect_session(session),
        }
    }

    /// Writes a [`ConsensusStream`] as a chunked NDJSON response, one chunk
    /// per line as completions land, recording the stream's total latency.
    pub fn stream_ndjson<W: Write>(
        &self,
        stream: ConsensusStream,
        writer: &mut W,
        keep_alive: bool,
    ) -> std::io::Result<()> {
        let started = stream.started();
        let request_id = stream.request_id().to_string();
        let trace = Arc::clone(stream.trace());
        let result = (|| {
            let mut body = ChunkedResponse::ndjson(200)
                .with_header("x-request-id", request_id.clone())
                .begin(writer, keep_alive)?;
            self.service.stream_consensus(stream, &mut body)?;
            body.finish()
        })();
        let elapsed = started.elapsed();
        self.service.metrics().record("consensus_stream", elapsed);
        self.service.observe(
            "consensus_stream",
            "POST /v1/consensus".to_string(),
            request_id,
            &trace,
            200,
            elapsed,
        );
        result
    }

    /// Writes a [`WhatIfSession`] as a chunked NDJSON response, one chunk per
    /// edit step as its consensus lands, recording the session's total
    /// latency under the `session` label.
    pub fn stream_session_ndjson<W: Write>(
        &self,
        session: WhatIfSession,
        writer: &mut W,
        keep_alive: bool,
    ) -> std::io::Result<()> {
        let started = session.started();
        let request_id = session.request_id().to_string();
        let trace = Arc::clone(session.trace());
        let result = (|| {
            let mut body = ChunkedResponse::ndjson(200)
                .with_header("x-request-id", request_id.clone())
                .begin(writer, keep_alive)?;
            self.service.stream_session(session, &mut body)?;
            body.finish()
        })();
        let elapsed = started.elapsed();
        self.service.metrics().record("session", elapsed);
        self.service.observe(
            "session",
            "POST /v1/sessions".to_string(),
            request_id,
            &trace,
            200,
            elapsed,
        );
        result
    }

    /// Drains a [`WhatIfSession`] into one buffered NDJSON response.
    fn collect_session(&self, session: WhatIfSession) -> HttpResponse {
        let started = session.started();
        let request_id = session.request_id().to_string();
        let trace = Arc::clone(session.trace());
        let mut body = String::new();
        match self.service.stream_session(session, &mut body) {
            Ok(()) => {}
            Err(never) => match never {},
        }
        let elapsed = started.elapsed();
        self.service.metrics().record("session", elapsed);
        self.service.observe(
            "session",
            "POST /v1/sessions".to_string(),
            request_id.clone(),
            &trace,
            200,
            elapsed,
        );
        HttpResponse {
            status: 200,
            content_type: NDJSON_CONTENT_TYPE,
            extra_headers: vec![("x-request-id", request_id)],
            body,
        }
    }

    /// Drains a [`ConsensusStream`] into one buffered NDJSON response.
    fn collect_stream(&self, stream: ConsensusStream) -> HttpResponse {
        let started = stream.started();
        let request_id = stream.request_id().to_string();
        let trace = Arc::clone(stream.trace());
        let mut body = String::new();
        match self.service.stream_consensus(stream, &mut body) {
            Ok(()) => {}
            Err(never) => match never {},
        }
        let elapsed = started.elapsed();
        self.service.metrics().record("consensus_stream", elapsed);
        self.service.observe(
            "consensus_stream",
            "POST /v1/consensus".to_string(),
            request_id.clone(),
            &trace,
            200,
            elapsed,
        );
        HttpResponse {
            status: 200,
            content_type: NDJSON_CONTENT_TYPE,
            extra_headers: vec![("x-request-id", request_id)],
            body,
        }
    }

    /// `POST /v1/consensus` — single spec or `{"requests": [...]}` batch in
    /// JSON, or one columnar dataset body with solve parameters on the query
    /// string. Buffered by default, `202` for async submissions, streamed
    /// NDJSON when streaming is requested.
    fn consensus(
        &self,
        request: &HttpRequest,
        ctx: &RequestContext,
    ) -> Result<Handled, HttpResponse> {
        check_accept(request)?;
        let reply = match negotiate_body(request)? {
            BodyCodec::Json => {
                let text = request.body_utf8().map_err(http_error_response)?;
                let body = parse_body(text).map_err(|e| api_error_response(&e))?;
                self.service
                    .consensus(&body, ctx)
                    .map_err(|e| api_error_response(&e))?
            }
            BodyCodec::Columnar => {
                let params = {
                    let _parse = Span::enter(ctx.trace(), "parse");
                    let dataset =
                        decode_dataset(&request.body).map_err(|e| api_error_response(&e))?;
                    columnar_solve_params(dataset, request.query.as_deref())
                        .map_err(|e| api_error_response(&e))?
                };
                self.service
                    .consensus_specs(vec![params.spec], true, params.wait, params.stream, ctx)
                    .map_err(|e| api_error_response(&e))?
            }
        };
        Ok(match reply {
            ConsensusReply::Complete(body) => {
                Handled::Response(HttpResponse::json(200, render(&body)))
            }
            ConsensusReply::Accepted(body) => {
                Handled::Response(HttpResponse::json(202, render(&body)))
            }
            ConsensusReply::Stream(stream) => Handled::Stream(stream),
        })
    }

    /// `POST /v1/audit` — JSON only (an audit references a dataset by value
    /// or id; there is no columnar audit document).
    fn audit(&self, request: &HttpRequest) -> Result<HttpResponse, HttpResponse> {
        check_accept(request)?;
        if negotiate_body(request)? == BodyCodec::Columnar {
            return Err(api_error_response(&ApiError::new(
                ApiErrorKind::UnsupportedMedia,
                format!("audit accepts `{JSON_CONTENT_TYPE}` bodies only"),
            )));
        }
        let text = request.body_utf8().map_err(http_error_response)?;
        let body = parse_body(text).map_err(|e| api_error_response(&e))?;
        self.service
            .audit(&body)
            .map(|value| HttpResponse::json(200, render(&value)))
            .map_err(|e| api_error_response(&e))
    }

    /// `PATCH /v1/datasets/{id}` — apply ranking edits (appends/retracts) to
    /// the current version, delta-deriving the next version's precedence
    /// matrix. JSON only: an edit document is a list of ops, not a dataset.
    fn dataset_patch(&self, request: &HttpRequest, id: &str) -> Result<Handled, HttpResponse> {
        check_accept(request)?;
        if negotiate_body(request)? == BodyCodec::Columnar {
            return Err(api_error_response(&ApiError::new(
                ApiErrorKind::UnsupportedMedia,
                format!("dataset edits accept `{JSON_CONTENT_TYPE}` bodies only"),
            )));
        }
        let text = request.body_utf8().map_err(http_error_response)?;
        let body = parse_body(text).map_err(|e| api_error_response(&e))?;
        json_outcome(self.service.dataset_patch(id, &body))
    }

    /// `POST /v1/sessions` — a live what-if session: validates the base spec
    /// and every edit up front, then streams one consensus line per edit as
    /// chunked NDJSON. JSON only.
    fn session_create(
        &self,
        request: &HttpRequest,
        ctx: &RequestContext,
    ) -> Result<Handled, HttpResponse> {
        check_accept(request)?;
        if negotiate_body(request)? == BodyCodec::Columnar {
            return Err(api_error_response(&ApiError::new(
                ApiErrorKind::UnsupportedMedia,
                format!("sessions accept `{JSON_CONTENT_TYPE}` bodies only"),
            )));
        }
        let text = request.body_utf8().map_err(http_error_response)?;
        let body = parse_body(text).map_err(|e| api_error_response(&e))?;
        self.service
            .session(&body, ctx)
            .map(Handled::Session)
            .map_err(|e| api_error_response(&e))
    }

    /// `POST /v1/datasets` — register a dataset from a JSON document or a
    /// columnar body. Ids are content fingerprints, so the same rows register
    /// idempotently in either representation.
    fn dataset_create(&self, request: &HttpRequest) -> Result<HttpResponse, HttpResponse> {
        check_accept(request)?;
        let registered = match negotiate_body(request)? {
            BodyCodec::Json => {
                let text = request.body_utf8().map_err(http_error_response)?;
                let body = parse_body(text).map_err(|e| api_error_response(&e))?;
                self.service.dataset_create(&body)
            }
            BodyCodec::Columnar => decode_dataset(&request.body)
                .and_then(|dataset| self.service.register_dataset(dataset)),
        };
        registered
            .map(|value| HttpResponse::json(200, render(&value)))
            .map_err(|e| api_error_response(&e))
    }
}

/// Renders a transport-level [`HttpError`] as the JSON error envelope
/// (status `0` marks a closed connection and degrades to `400` here).
fn http_error_response(error: HttpError) -> HttpResponse {
    HttpResponse::json(
        if error.status == 0 { 400 } else { error.status },
        error_body(&error.message),
    )
}

/// Maps a service operation's result onto a buffered 200-or-error outcome.
fn json_outcome(result: Result<serde::Value, ApiError>) -> Result<Handled, HttpResponse> {
    result
        .map(|value| Handled::Response(HttpResponse::json(200, render(&value))))
        .map_err(|e| api_error_response(&e))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support::{delete, demo_consensus_body, demo_dataset_json, get, post};
    use mani_service::{dataset_to_value, encode_dataset, parse_dataset, COLUMNAR_CONTENT_TYPE};
    use serde::Value;
    use std::time::Instant;

    fn state() -> AppState {
        AppState::new(
            EngineConfig {
                threads: 2,
                ..EngineConfig::default()
            },
            16,
        )
    }

    /// A columnar-encoded POST carrying the demo dataset named `name`.
    fn columnar_post(path: &str, query: Option<&str>, name: &str) -> HttpRequest {
        let dataset = parse_dataset(&parse_body(&demo_dataset_json(name)).unwrap()).unwrap();
        HttpRequest {
            method: "POST".into(),
            path: path.into(),
            query: query.map(str::to_string),
            headers: vec![("content-type".into(), COLUMNAR_CONTENT_TYPE.into())],
            body: encode_dataset(&dataset),
            minor_version: 1,
        }
    }

    #[test]
    fn consensus_wait_and_cache_replay() {
        let state = state();
        let first = state.handle(&post("/v1/consensus", &demo_consensus_body(0.2, true)));
        assert_eq!(first.status, 200, "{}", first.body);
        assert!(first.body.contains("\"cached\":false"));
        assert!(first.body.contains("\"ranking\""));
        let builds_after_first = state.engine().cache().stats().builds;
        assert_eq!(builds_after_first, 1);

        let second = state.handle(&post("/v1/consensus", &demo_consensus_body(0.2, true)));
        assert_eq!(second.status, 200);
        assert!(second.body.contains("\"cached\":true"), "{}", second.body);
        assert_eq!(
            state.engine().cache().stats().builds,
            builds_after_first,
            "replay must not build another precedence matrix"
        );
        assert_eq!(
            state.engine().stats().submitted,
            1,
            "replay must not reach the engine queue"
        );
    }

    #[test]
    fn async_job_lifecycle_via_poll() {
        let state = state();
        let accepted = state.handle(&post("/v1/consensus", &demo_consensus_body(0.25, false)));
        assert_eq!(accepted.status, 202, "{}", accepted.body);
        assert!(accepted.body.contains("\"poll\":\"/v1/jobs/job-1\""));

        // Poll until done (tiny dataset: effectively immediate).
        let deadline = Instant::now() + std::time::Duration::from_secs(10);
        loop {
            let polled = state.handle(&get("/v1/jobs/job-1"));
            assert_eq!(polled.status, 200, "{}", polled.body);
            if polled.body.contains("\"status\":\"done\"") {
                assert!(polled.body.contains("\"ranking\""));
                break;
            }
            assert!(Instant::now() < deadline, "job never completed");
            std::thread::yield_now();
        }
        // Completion populated the response cache: replay is served cached.
        let replay = state.handle(&post("/v1/consensus", &demo_consensus_body(0.25, true)));
        assert_eq!(replay.status, 200);
        assert!(replay.body.contains("\"cached\":true"), "{}", replay.body);
    }

    #[test]
    fn stream_mode_emits_ndjson_lines_and_summary() {
        let state = state();
        let body = format!(
            r#"{{"requests": [{}, {}], "stream": true}}"#,
            crate::test_support::demo_dataset_consensus_spec("one", 0.2),
            crate::test_support::demo_dataset_consensus_spec("two", 0.3),
        );
        let response = state.handle(&post("/v1/consensus", &body));
        assert_eq!(response.status, 200, "{}", response.body);
        assert_eq!(response.content_type, "application/x-ndjson");
        let lines: Vec<&str> = response.body.lines().collect();
        assert_eq!(
            lines.len(),
            3,
            "two result lines + summary: {}",
            response.body
        );
        for line in &lines[..2] {
            let parsed = parse_body(line).unwrap();
            assert!(parsed.get("index").is_some(), "{line}");
            assert!(
                matches!(parsed.get("job_id"), Some(Value::String(_))),
                "solved lines carry a job id: {line}"
            );
            assert!(
                parsed.get("ranking").is_none(),
                "results nest under results"
            );
            assert!(parsed.get("results").is_some(), "{line}");
        }
        let summary = parse_body(lines[2]).unwrap();
        assert_eq!(summary.get("summary"), Some(&Value::Bool(true)));
        assert_eq!(summary.get("requests"), Some(&Value::UInt(2)));
        assert_eq!(summary.get("completed"), Some(&Value::UInt(2)));
        assert_eq!(summary.get("errors"), Some(&Value::UInt(0)));

        // Streamed results populated the response cache: the same batch
        // replayed non-streaming comes back cached, and a streamed replay
        // marks its lines cached with a null job id.
        let replayed = state.handle(&post("/v1/consensus", &body));
        assert_eq!(replayed.status, 200);
        let first = parse_body(replayed.body.lines().next().unwrap()).unwrap();
        assert_eq!(first.get("cached"), Some(&Value::Bool(true)));
        assert_eq!(first.get("job_id"), Some(&Value::Null));
        assert_eq!(
            state.engine().stats().submitted,
            2,
            "the replay must not resubmit jobs"
        );
        // Streaming batch counters surface in /v1/stats.
        let stats = state.handle(&get("/v1/stats"));
        assert!(stats.body.contains("\"streaming\""), "{}", stats.body);
        assert!(
            stats.body.contains("\"batches_opened\":1"),
            "{}",
            stats.body
        );
    }

    #[test]
    fn stream_and_wait_are_mutually_exclusive() {
        let state = state();
        let body = format!(
            r#"{{"requests": [{}], "stream": true, "wait": true}}"#,
            crate::test_support::demo_dataset_consensus_spec("x", 0.2),
        );
        let response = state.handle(&post("/v1/consensus", &body));
        assert_eq!(response.status, 400, "{}", response.body);
        assert!(response.body.contains("mutually exclusive"));
    }

    #[test]
    fn unknown_job_and_bad_ids_are_client_errors() {
        let state = state();
        assert_eq!(state.handle(&get("/v1/jobs/job-99")).status, 404);
        assert_eq!(state.handle(&get("/v1/jobs/banana")).status, 400);
    }

    #[test]
    fn methods_and_stats_render() {
        let state = state();
        let methods = state.handle(&get("/v1/methods"));
        assert_eq!(methods.status, 200);
        assert!(methods.body.contains("Fair-Borda"));
        assert!(methods.body.contains("(B1) Kemeny"));
        let stats = state.handle(&get("/v1/stats"));
        assert_eq!(stats.status, 200, "{}", stats.body);
        assert!(stats.body.contains("\"precedence_cache\""));
        assert!(stats.body.contains("\"response_cache\""));
        assert!(stats.body.contains("\"queue_depth\""));
        assert!(stats.body.contains("\"kernels\""));
        assert!(stats.body.contains("\"matrix_build_ns\""));
        assert!(stats.body.contains("\"nodes_expanded\""));
        assert!(stats.body.contains("\"kernel_threads\""));
        assert!(stats.body.contains("\"fw_blocked_solves\""));
        assert!(stats.body.contains("\"fw_tiles_relaxed\""));
        assert!(stats.body.contains("\"ranking_shard_tasks\""));
    }

    #[test]
    fn dataset_endpoints_round_trip() {
        let state = state();
        let up = state.handle(&post("/v1/datasets", &demo_dataset_json("reg")));
        assert_eq!(up.status, 200, "{}", up.body);
        let parsed = parse_body(&up.body).unwrap();
        let id = parsed
            .get("id")
            .and_then(Value::as_str)
            .expect("dataset id")
            .to_string();
        assert!(id.starts_with("ds-"), "{id}");
        assert!(up.body.contains("\"created\":true"));

        // Re-uploading identical content (wrapped form) is idempotent.
        let wrapped = format!(r#"{{"dataset": {}}}"#, demo_dataset_json("other-name"));
        let again = state.handle(&post("/v1/datasets", &wrapped));
        assert_eq!(again.status, 200);
        assert!(again.body.contains(&id), "{}", again.body);
        assert!(again.body.contains("\"created\":false"));

        let meta = state.handle(&get(&format!("/v1/datasets/{id}")));
        assert_eq!(meta.status, 200, "{}", meta.body);
        assert!(meta.body.contains("\"candidates\":4"));
        assert!(meta.body.contains("\"attributes\":[\"G\"]"));

        // Solve by reference instead of re-posting the rows.
        let by_id = format!(
            r#"{{"dataset_id": "{id}", "methods": ["Fair-Borda"], "delta": 0.2, "wait": true}}"#
        );
        let solved = state.handle(&post("/v1/consensus", &by_id));
        assert_eq!(solved.status, 200, "{}", solved.body);
        assert!(solved.body.contains("\"ranking\""));

        let gone = state.handle(&delete(&format!("/v1/datasets/{id}")));
        assert_eq!(gone.status, 200);
        assert!(gone.body.contains("\"deleted\":true"));
        assert_eq!(
            state.handle(&get(&format!("/v1/datasets/{id}"))).status,
            404
        );
        assert_eq!(
            state.handle(&delete(&format!("/v1/datasets/{id}"))).status,
            404
        );
        assert_eq!(state.handle(&post("/v1/consensus", &by_id)).status, 404);
    }

    #[test]
    fn stats_report_latency_histograms_and_server_counters() {
        let state = state();
        state.handle(&get("/v1/methods"));
        let first = state.handle(&post("/v1/consensus", &demo_consensus_body(0.2, true)));
        assert_eq!(first.status, 200);
        let stats = state.handle(&get("/v1/stats"));
        assert_eq!(stats.status, 200, "{}", stats.body);
        let parsed = parse_body(&stats.body).unwrap();
        let latency = parsed.get("latency").expect("latency section");
        let count = |endpoint: &str| match latency.get(endpoint).and_then(|h| h.get("count")) {
            Some(Value::UInt(u)) => *u,
            other => panic!("missing count for {endpoint}: {other:?}"),
        };
        assert_eq!(count("consensus"), 1);
        assert_eq!(count("methods"), 1);
        assert_eq!(count("stats"), 0, "recorded after the response renders");
        let buckets = latency
            .get("consensus")
            .and_then(|h| h.get("buckets"))
            .and_then(Value::as_array)
            .expect("bucket array");
        let total: u64 = buckets
            .iter()
            .map(|b| match b {
                Value::UInt(u) => *u,
                other => panic!("non-integer bucket {other:?}"),
            })
            .sum();
        assert_eq!(total, 1, "bucket counts must sum to the sample count");
        assert!(stats.body.contains("\"server\""));
        assert!(stats.body.contains("\"datasets_registered\":0"));
    }

    fn header_of<'a>(response: &'a HttpResponse, name: &str) -> Option<&'a str> {
        response
            .extra_headers
            .iter()
            .find(|(n, _)| n.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }

    #[test]
    fn request_ids_echo_and_generate() {
        let state = state();
        // A well-formed incoming id is echoed back verbatim.
        let mut request = get("/v1/methods");
        request
            .headers
            .push(("x-request-id".to_string(), "client-abc.1".to_string()));
        let response = state.handle(&request);
        assert_eq!(header_of(&response, "x-request-id"), Some("client-abc.1"));

        // Missing id: one is generated — also on error responses.
        let err = state.handle(&get("/nope"));
        assert_eq!(err.status, 404);
        let generated = header_of(&err, "x-request-id").expect("id on 404");
        assert!(generated.starts_with("req-"), "{generated}");

        // Malformed (spaces) id is replaced, not echoed.
        let mut bad = get("/v1/methods");
        bad.headers
            .push(("x-request-id".to_string(), "has spaces".to_string()));
        let replaced = state.handle(&bad);
        let id = header_of(&replaced, "x-request-id").expect("replacement id");
        assert!(id.starts_with("req-"), "{id}");
    }

    #[test]
    fn version_and_metrics_endpoints_render() {
        let state = state();
        let version = state.handle(&get("/v1/version"));
        assert_eq!(version.status, 200, "{}", version.body);
        assert!(version.body.contains("\"version\""), "{}", version.body);
        assert!(version.body.contains("\"profile\""), "{}", version.body);
        assert!(version.body.contains("\"features\""), "{}", version.body);

        let solved = state.handle(&post("/v1/consensus", &demo_consensus_body(0.2, true)));
        assert_eq!(solved.status, 200);
        let metrics = state.handle(&get("/metrics"));
        assert_eq!(metrics.status, 200);
        assert!(metrics.content_type.starts_with("text/plain"));
        assert!(
            metrics
                .body
                .contains("# TYPE mani_http_request_duration_seconds histogram"),
            "{}",
            metrics.body
        );
        assert!(
            metrics
                .body
                .contains("mani_http_requests_total{endpoint=\"consensus\"} 1"),
            "{}",
            metrics.body
        );
        assert!(
            metrics.body.contains("mani_engine_jobs_submitted_total 1"),
            "{}",
            metrics.body
        );
        assert!(metrics.body.contains("le=\"+Inf\""), "{}", metrics.body);
        assert!(metrics.body.contains("mani_uptime_seconds"));
        assert!(metrics.body.contains("mani_pool_tasks_executed_total"));
        assert!(metrics.body.contains("mani_kernel_fw_blocked_solves_total"));
        assert!(metrics.body.contains("mani_kernel_fw_tiles_relaxed_total"));
        assert!(metrics
            .body
            .contains("mani_kernel_ranking_shard_tasks_total"));
        assert!(metrics
            .body
            .contains("mani_precedence_cache_builds_total 1"));
    }

    #[test]
    fn job_trace_reports_each_phase_once_within_wall_time() {
        let state = state();
        let accepted = state.handle(&post("/v1/consensus", &demo_consensus_body(0.25, false)));
        assert_eq!(accepted.status, 202, "{}", accepted.body);
        let deadline = Instant::now() + std::time::Duration::from_secs(10);
        loop {
            let polled = state.handle(&get("/v1/jobs/job-1"));
            if polled.body.contains("\"status\":\"done\"") {
                break;
            }
            assert!(Instant::now() < deadline, "job never completed");
            std::thread::yield_now();
        }
        let trace = state.handle(&get("/v1/jobs/job-1/trace"));
        assert_eq!(trace.status, 200, "{}", trace.body);
        let parsed = parse_body(&trace.body).unwrap();
        assert!(
            matches!(parsed.get("request_id"), Some(Value::String(_))),
            "{}",
            trace.body
        );
        let as_f64 = |value: &Value| match value {
            Value::Float(f) => *f,
            Value::UInt(u) => *u as f64,
            Value::Int(i) => *i as f64,
            other => panic!("not a number: {other:?}"),
        };
        let age_ms = as_f64(parsed.get("age_ms").expect("age_ms"));
        let span_ms = as_f64(parsed.get("span_ms").expect("span_ms"));
        assert!(span_ms <= age_ms, "span {span_ms} > age {age_ms}");
        let phases = parsed
            .get("phases")
            .and_then(Value::as_array)
            .expect("phases");
        let mut names = Vec::new();
        let mut total_ms = 0.0;
        for phase in phases {
            names.push(
                phase
                    .get("name")
                    .and_then(Value::as_str)
                    .expect("phase name")
                    .to_string(),
            );
            total_ms += as_f64(phase.get("duration_ms").expect("duration"));
        }
        for expected in ["queue_wait", "solve"] {
            assert_eq!(
                names.iter().filter(|n| *n == expected).count(),
                1,
                "{names:?}"
            );
        }
        let unique: std::collections::HashSet<&String> = names.iter().collect();
        assert_eq!(unique.len(), names.len(), "each phase once: {names:?}");
        assert!(
            total_ms <= age_ms,
            "sequential phases exceed wall: {total_ms} > {age_ms}"
        );

        // Unknown and malformed ids behave like the job endpoint.
        assert_eq!(state.handle(&get("/v1/jobs/job-99/trace")).status, 404);
        assert_eq!(state.handle(&get("/v1/jobs/banana/trace")).status, 400);
    }

    #[test]
    fn stats_expose_slow_requests_with_phases() {
        let state = state();
        let solved = state.handle(&post("/v1/consensus", &demo_consensus_body(0.2, true)));
        assert_eq!(solved.status, 200);
        let stats = state.handle(&get("/v1/stats"));
        let parsed = parse_body(&stats.body).unwrap();
        let slow = parsed
            .get("slow_requests")
            .and_then(Value::as_array)
            .expect("slow_requests");
        assert!(!slow.is_empty(), "{}", stats.body);
        let consensus_entry = slow
            .iter()
            .find(|e| e.get("endpoint").and_then(Value::as_str) == Some("consensus"))
            .expect("consensus slow entry");
        assert_eq!(
            consensus_entry.get("target").and_then(Value::as_str),
            Some("POST /v1/consensus")
        );
        let phases = consensus_entry.get("phases").expect("phases");
        assert!(phases.get("parse").is_some(), "{}", stats.body);
        assert!(phases.get("wait").is_some(), "{}", stats.body);
        assert!(stats.body.contains("\"uptime_seconds\""), "{}", stats.body);
    }

    #[test]
    fn router_misses_map_to_http_statuses() {
        let state = state();
        assert_eq!(state.handle(&get("/nope")).status, 404);
        assert_eq!(state.handle(&get("/v1/consensus")).status, 405);
        let bad = state.handle(&post("/v1/consensus", "{not json"));
        assert_eq!(bad.status, 400);
        assert!(bad.body.contains("error"));
    }

    #[test]
    fn audit_reports_groups() {
        let state = state();
        let body = r#"{
            "dataset": {
                "name": "aud",
                "candidates": [
                    {"name": "a", "attributes": {"G": "x"}},
                    {"name": "b", "attributes": {"G": "y"}},
                    {"name": "c", "attributes": {"G": "x"}},
                    {"name": "d", "attributes": {"G": "y"}}
                ],
                "rankings": [["a","b","c","d"], ["b","a","d","c"]]
            },
            "per_ranking": true
        }"#;
        let response = state.handle(&post("/v1/audit", body));
        assert_eq!(response.status, 200, "{}", response.body);
        assert!(response.body.contains("\"consensus\""));
        assert!(response.body.contains("\"unconstrained\""));
        assert!(response.body.contains("ranking-1"));
    }

    #[test]
    fn unsupported_content_types_get_415_envelopes() {
        let state = state();
        for path in ["/v1/consensus", "/v1/datasets", "/v1/audit"] {
            let mut request = post(path, "<xml/>");
            request.headers.clear();
            request
                .headers
                .push(("content-type".to_string(), "text/xml".to_string()));
            let response = state.handle(&request);
            assert_eq!(response.status, 415, "{path}: {}", response.body);
            assert!(response.body.contains("\"error\""), "{}", response.body);
            assert!(
                response.body.contains("\"supported\""),
                "{path}: {}",
                response.body
            );
            assert!(
                header_of(&response, "x-request-id").is_some(),
                "415s still carry request ids"
            );
        }
        // Audit refuses columnar specifically (no columnar audit document).
        let columnar_audit = columnar_post("/v1/audit", None, "aud");
        let refused = state.handle(&columnar_audit);
        assert_eq!(refused.status, 415, "{}", refused.body);
        assert!(refused.body.contains("audit accepts"), "{}", refused.body);
    }

    #[test]
    fn unacceptable_accept_headers_get_406() {
        let state = state();
        let mut request = post("/v1/consensus", &demo_consensus_body(0.2, true));
        request
            .headers
            .push(("accept".to_string(), "text/html".to_string()));
        let response = state.handle(&request);
        assert_eq!(response.status, 406, "{}", response.body);
        assert!(response.body.contains("\"produces\""), "{}", response.body);
    }

    #[test]
    fn columnar_consensus_matches_json_bit_for_bit() {
        let state = state();
        // Solve the JSON twin first: its results land in the response cache
        // keyed by the dataset fingerprint.
        let json_solved = state.handle(&post(
            "/v1/consensus",
            &format!(
                r#"{{"dataset": {}, "methods": ["Fair-Borda"], "delta": 0.2, "wait": true}}"#,
                demo_dataset_json("demo")
            ),
        ));
        assert_eq!(json_solved.status, 200, "{}", json_solved.body);

        // The columnar upload of the same rows shares the fingerprint, so it
        // replays from the cache without touching the engine.
        let request = columnar_post(
            "/v1/consensus",
            Some("methods=Fair-Borda&delta=0.2&wait=true"),
            "demo",
        );
        let columnar_solved = state.handle(&request);
        assert_eq!(columnar_solved.status, 200, "{}", columnar_solved.body);
        assert!(
            columnar_solved.body.contains("\"cached\":true"),
            "columnar twin must replay the JSON-warmed cache: {}",
            columnar_solved.body
        );
        assert_eq!(
            state.engine().stats().submitted,
            1,
            "the columnar replay must not resubmit"
        );
        // And the method payloads are bit-identical modulo the cache flag.
        let strip = |body: &str| {
            body.replace("\"cached\":true", "")
                .replace("\"cached\":false", "")
        };
        let json_results = parse_body(&json_solved.body).unwrap();
        let columnar_results = parse_body(&columnar_solved.body).unwrap();
        let ranking_of = |v: &Value| {
            render(
                v.get("results")
                    .and_then(Value::as_array)
                    .and_then(|a| a.first())
                    .and_then(|r| r.get("ranking"))
                    .expect("ranking"),
            )
        };
        assert_eq!(ranking_of(&json_results), ranking_of(&columnar_results));
        let _ = strip;
    }

    #[test]
    fn columnar_dataset_upload_is_idempotent_with_json() {
        let state = state();
        let json_up = state.handle(&post("/v1/datasets", &demo_dataset_json("reg")));
        assert_eq!(json_up.status, 200, "{}", json_up.body);
        let id = parse_body(&json_up.body)
            .unwrap()
            .get("id")
            .and_then(Value::as_str)
            .unwrap()
            .to_string();

        let columnar_up = state.handle(&columnar_post("/v1/datasets", None, "reg"));
        assert_eq!(columnar_up.status, 200, "{}", columnar_up.body);
        assert!(
            columnar_up.body.contains(&id),
            "columnar twin registers under the same content id: {}",
            columnar_up.body
        );
        assert!(columnar_up.body.contains("\"created\":false"));
    }

    #[test]
    fn columnar_bodies_reject_hostile_and_unknown_params() {
        let state = state();
        // Truncated document.
        let mut request = columnar_post("/v1/consensus", Some("wait=true"), "demo");
        request.body.truncate(10);
        let response = state.handle(&request);
        assert_eq!(response.status, 400, "{}", response.body);

        // Unknown query parameter fails loudly.
        let response = state.handle(&columnar_post("/v1/consensus", Some("detla=0.2"), "demo"));
        assert_eq!(response.status, 400, "{}", response.body);
        assert!(
            response.body.contains("unknown query parameter"),
            "{}",
            response.body
        );
    }

    #[test]
    fn columnar_round_trips_through_dataset_to_value() {
        let dataset = parse_dataset(&parse_body(&demo_dataset_json("rt")).unwrap()).unwrap();
        let twin = parse_dataset(&dataset_to_value(&dataset)).unwrap();
        assert_eq!(dataset.fingerprint(), twin.fingerprint());
    }

    /// Uploads the demo dataset and returns its registered id.
    fn upload_demo(state: &AppState) -> String {
        let up = state.handle(&post("/v1/datasets", &demo_dataset_json("demo")));
        assert_eq!(up.status, 200, "{}", up.body);
        parse_body(&up.body)
            .unwrap()
            .get("id")
            .and_then(Value::as_str)
            .expect("dataset id")
            .to_string()
    }

    #[test]
    fn dataset_patch_bumps_versions_and_maps_conflicts_to_409() {
        let state = state();
        let id = upload_demo(&state);
        // Warm the precedence matrix so the patch delta-derives.
        let warm = state.handle(&post(
            "/v1/consensus",
            &format!(
                r#"{{"dataset": {{"id": "{id}"}}, "methods": ["Fair-Borda"], "delta": 0.2, "wait": true}}"#
            ),
        ));
        assert_eq!(warm.status, 200, "{}", warm.body);

        let edit = r#"{"ops": [{"op": "append", "ranking": ["d","a","b","c"], "weight": 2}]}"#;
        let patched = state.handle(&crate::test_support::patch(
            &format!("/v1/datasets/{id}"),
            edit,
        ));
        assert_eq!(patched.status, 200, "{}", patched.body);
        assert!(patched.body.contains("\"version\":2"), "{}", patched.body);
        assert!(
            patched.body.contains("\"derived\":true"),
            "{}",
            patched.body
        );
        assert!(patched.body.contains("\"appends\":2"), "{}", patched.body);

        // An over-weighted retract is a 400 and leaves the version alone.
        let bad = state.handle(&crate::test_support::patch(
            &format!("/v1/datasets/{id}"),
            r#"{"ops": [{"op": "retract", "ranking": ["a","b","c","d"], "weight": 99}]}"#,
        ));
        assert_eq!(bad.status, 400, "{}", bad.body);
        let meta = state.handle(&get(&format!("/v1/datasets/{id}")));
        assert!(meta.body.contains("\"version\":2"), "{}", meta.body);

        // Unknown ids and columnar bodies are refused.
        assert_eq!(
            state
                .handle(&crate::test_support::patch("/v1/datasets/ds-0000", edit))
                .status,
            404
        );
        let mut columnar = columnar_post(&format!("/v1/datasets/{id}"), None, "demo");
        columnar.method = "PATCH".into();
        assert_eq!(state.handle(&columnar).status, 415);

        // Edit past the retention window: pinning the evicted version 1 is a
        // 409 Conflict (it existed; its rankings are no longer addressable).
        for round in 0..mani_service::MAX_RETAINED_VERSIONS {
            let next = state.handle(&crate::test_support::patch(
                &format!("/v1/datasets/{id}"),
                r#"{"ops": [{"op": "append", "ranking": ["b","a","d","c"]}]}"#,
            ));
            assert_eq!(next.status, 200, "round {round}: {}", next.body);
        }
        let evicted = state.handle(&post(
            "/v1/consensus",
            &format!(
                r#"{{"dataset": {{"id": "{id}", "version": 1}}, "methods": ["Fair-Borda"], "delta": 0.2, "wait": true}}"#
            ),
        ));
        assert_eq!(evicted.status, 409, "{}", evicted.body);
        assert!(evicted.body.contains("evicted"), "{}", evicted.body);
    }

    #[test]
    fn sessions_stream_ndjson_per_edit() {
        let state = state();
        // Warm the base fingerprint so every step delta-derives.
        let warm = state.handle(&post(
            "/v1/consensus",
            &format!(
                r#"{{"dataset": {}, "methods": ["Fair-Borda"], "delta": 0.2, "wait": true}}"#,
                demo_dataset_json("demo")
            ),
        ));
        assert_eq!(warm.status, 200, "{}", warm.body);

        let body = format!(
            r#"{{
                "dataset": {},
                "methods": ["Fair-Borda"],
                "delta": 0.2,
                "edits": [
                    {{"op": "append", "ranking": ["d","a","b","c"]}},
                    [{{"op": "retract", "ranking": ["d","a","b","c"]}},
                     {{"op": "append", "ranking": ["b","a","c","d"], "weight": 2}}]
                ]
            }}"#,
            demo_dataset_json("demo")
        );
        let response = state.handle(&post("/v1/sessions", &body));
        assert_eq!(response.status, 200, "{}", response.body);
        assert_eq!(response.content_type, "application/x-ndjson");
        let lines: Vec<&str> = response.body.lines().collect();
        assert_eq!(
            lines.len(),
            3,
            "two edit lines + summary: {}",
            response.body
        );
        for (index, line) in lines[..2].iter().enumerate() {
            let parsed = parse_body(line).unwrap();
            assert_eq!(parsed.get("edit"), Some(&Value::UInt(index as u64)));
            assert_eq!(parsed.get("derived"), Some(&Value::Bool(true)), "{line}");
            assert!(parsed.get("results").is_some(), "{line}");
        }
        let summary = parse_body(lines[2]).unwrap();
        assert_eq!(summary.get("summary"), Some(&Value::Bool(true)));
        assert_eq!(summary.get("edits"), Some(&Value::UInt(2)));
        assert_eq!(summary.get("rebuilds"), Some(&Value::UInt(0)));

        // The session never rebuilt a matrix and recorded under its label.
        assert_eq!(state.engine().cache().stats().builds, 1);
        let stats = state.handle(&get("/v1/stats"));
        let parsed = parse_body(&stats.body).unwrap();
        let session_count = parsed
            .get("latency")
            .and_then(|l| l.get("session"))
            .and_then(|h| h.get("count"));
        assert_eq!(session_count, Some(&Value::UInt(1)), "{}", stats.body);

        // Invalid sessions fail before any stream head: plain JSON errors.
        let no_edits = state.handle(&post(
            "/v1/sessions",
            &format!(
                r#"{{"dataset": {}, "methods": ["Fair-Borda"], "delta": 0.2, "edits": []}}"#,
                demo_dataset_json("demo")
            ),
        ));
        assert_eq!(no_edits.status, 400, "{}", no_edits.body);
        assert_eq!(no_edits.content_type, JSON_CONTENT_TYPE);
    }
}
