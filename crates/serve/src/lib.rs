//! # mani-serve
//!
//! HTTP front-end for the MANI-Rank consensus engine: a std-only, hand-rolled
//! HTTP/1.1 server (same spirit as the engine's hand-rolled CSV parser) that
//! turns [`mani_engine::ConsensusEngine`] into a network service for
//! decision-makers issuing many small consensus and audit requests against the
//! same candidate pools.
//!
//! This crate is purely **transport**: all behavior — the response cache, the
//! dataset registry, job tracking, stats and Prometheus rendering — lives in
//! the transport-agnostic [`mani_service`] crate, and this one adapts it to
//! HTTP/1.1.
//!
//! * [`http`] — request parsing / response rendering over `TcpStream`,
//!   including HTTP/1.1 keep-alive negotiation and chunked NDJSON framing.
//! * [`router`] — `(method, path)` → typed [`router::Route`].
//! * [`codec`] — wire-codec negotiation: resolves `Content-Type` into a body
//!   representation (JSON or the binary columnar dataset encoding,
//!   `application/vnd.mani.columnar`) and checks `Accept` against the JSON /
//!   NDJSON responses this API produces.
//! * [`metrics`] — connection-pool counters (the one telemetry surface only
//!   this transport can observe; request latency histograms live in
//!   `mani-service`).
//! * [`handlers`] — the thin `v1` adapter: one [`handlers::AppState`] routing
//!   requests into [`mani_service::Service`] calls and mapping
//!   [`mani_service::ApiError`] kinds onto HTTP status codes.
//! * [`server`] — the accept loop, the bounded connection worker pool, and a
//!   stoppable background-server handle.
//!
//! ## Endpoints
//!
//! | Endpoint | Purpose |
//! |---|---|
//! | `POST /v1/consensus` | Submit one request or a batch; `"wait": true` blocks for results, `"stream": true` streams one NDJSON line per request in completion order, otherwise a job id is returned |
//! | `POST /v1/consensus` (columnar) | Same operation with a binary columnar dataset body; solve parameters ride the query string (`?methods=...&delta=...&wait=true`) |
//! | `GET /v1/jobs/{id}` | Poll an async job (`queued` / `running` / `done`) |
//! | `GET /v1/jobs/{id}/trace` | Per-phase timing timeline of a job (queue wait, cache lookup, matrix build, solve, render) |
//! | `POST /v1/audit` | Per-group FPR / ARP / IRP audit of a dataset |
//! | `POST /v1/datasets` | Register a dataset (JSON or columnar body); returns its content id for by-reference solves |
//! | `GET /v1/datasets/{id}` | Metadata of the current version of a registered dataset |
//! | `PATCH /v1/datasets/{id}` | Apply ranking edits (appends/retracts), creating the id's next version with a delta-derived precedence matrix |
//! | `DELETE /v1/datasets/{id}` | Unregister a dataset (all versions) |
//! | `POST /v1/sessions` | Live what-if session: one NDJSON consensus line per edit, each delta-derived from its predecessor |
//! | `GET /v1/methods` | The eight available consensus methods |
//! | `GET /v1/stats` | Queue, cache, connection-pool, and latency-histogram counters, plus the slowest recent requests |
//! | `GET /v1/version` | Build identity: crate version, git describe, profile, feature summary |
//! | `GET /metrics` | Every counter and histogram in Prometheus text exposition format 0.0.4 |
//!
//! ## Observability
//!
//! Every HTTP response carries an `x-request-id` header — the client's own
//! (if it sent a well-formed one) or a generated `req-...` id — stamped on
//! buffered, streamed, cached-replay, and error responses alike, logged in
//! the access line, and recorded on async job records. Structured logfmt
//! logs go to stderr, filtered by the `MANI_LOG` env var or `--log-level`
//! (access lines at `debug`). See `docs/OBSERVABILITY.md` for the log
//! schema, trace phase names, and the full metric inventory.
//!
//! ## Content negotiation
//!
//! POST bodies default to `application/json`; `POST /v1/consensus` and
//! `POST /v1/datasets` additionally decode `application/vnd.mani.columnar`
//! (see `docs/API.md` for the byte layout). Any other `Content-Type` is
//! refused with `415 Unsupported Media Type` and a structured JSON envelope
//! listing the supported representations; an `Accept` header that excludes
//! both JSON and NDJSON is refused with `406 Not Acceptable`.
//!
//! ## Connection model
//!
//! The accept loop hands each connection to a **bounded worker pool**
//! ([`ServerConfig::conn_threads`] workers, at most
//! [`ServerConfig::max_connections`] connections in flight). When the pool is
//! saturated — or a worker thread could not be spawned — the accept path
//! answers `503 Service Unavailable` with `Retry-After` instead of silently
//! dropping the connection. Within one connection, workers loop HTTP/1.1
//! keep-alive exchanges (idle timeout, per-connection request cap) before
//! closing. Every message the server sends leaves in one write, and every
//! socket has `TCP_NODELAY` set, so no exchange waits for the client's
//! delayed ACK.
//!
//! Backpressure: the engine's bounded submission queue rejects excess load
//! with [`mani_engine::EngineError::Overloaded`], which this layer reports as
//! HTTP `429 Too Many Requests`. See `docs/API.md` for the full wire format
//! and a curl quickstart.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod codec;
pub mod handlers;
pub mod http;
pub mod metrics;
pub mod router;
pub mod server;

pub use codec::{BodyCodec, JSON_CONTENT_TYPE, NDJSON_CONTENT_TYPE};
pub use handlers::{api_error_status, AppState, Handled, NdjsonStream};
pub use http::{ChunkedBody, ChunkedResponse, HttpError, HttpRequest, HttpResponse};
pub use metrics::ServeCounters;
pub use router::{route, Route, Routed};
pub use server::{Server, ServerConfig, ServerHandle};

// Re-exported service-core types, kept at their pre-refactor paths so
// existing integration tests and downstream users keep compiling.
pub use mani_service::{
    ApiError, ApiErrorKind, DatasetRegistry, EndpointMetrics, HistogramSnapshot, LatencyHistogram,
    ResponseCache, ResponseCacheStats, COLUMNAR_CONTENT_TYPE, DEFAULT_RESPONSE_CACHE_CAPACITY,
    LATENCY_BUCKET_BOUNDS_US, MAX_REGISTERED_DATASETS, MAX_RETAINED_VERSIONS,
};

/// Shared helpers for this crate's unit tests.
#[cfg(test)]
pub(crate) mod test_support {
    use crate::http::HttpRequest;
    use std::io::{Read, Write};
    use std::net::{SocketAddr, TcpStream};

    /// A parsed `POST` request carrying `body`.
    pub fn post(path: &str, body: &str) -> HttpRequest {
        HttpRequest {
            method: "POST".into(),
            path: path.into(),
            query: None,
            headers: vec![("content-type".into(), "application/json".into())],
            body: body.as_bytes().to_vec(),
            minor_version: 1,
        }
    }

    /// A parsed `GET` request.
    pub fn get(path: &str) -> HttpRequest {
        HttpRequest {
            method: "GET".into(),
            path: path.into(),
            query: None,
            headers: Vec::new(),
            body: Vec::new(),
            minor_version: 1,
        }
    }

    /// A parsed `PATCH` request carrying `body`.
    pub fn patch(path: &str, body: &str) -> HttpRequest {
        HttpRequest {
            method: "PATCH".into(),
            path: path.into(),
            query: None,
            headers: vec![("content-type".into(), "application/json".into())],
            body: body.as_bytes().to_vec(),
            minor_version: 1,
        }
    }

    /// A parsed `DELETE` request.
    pub fn delete(path: &str) -> HttpRequest {
        HttpRequest {
            method: "DELETE".into(),
            path: path.into(),
            query: None,
            headers: Vec::new(),
            body: Vec::new(),
            minor_version: 1,
        }
    }

    /// The four-candidate demo dataset object used across handler tests.
    pub fn demo_dataset_json(name: &str) -> String {
        format!(
            r#"{{
                "name": "{name}",
                "candidates": [
                    {{"name": "a", "attributes": {{"G": "x"}}}},
                    {{"name": "b", "attributes": {{"G": "y"}}}},
                    {{"name": "c", "attributes": {{"G": "x"}}}},
                    {{"name": "d", "attributes": {{"G": "y"}}}}
                ],
                "rankings": [["a","b","c","d"], ["d","c","b","a"], ["a","c","b","d"]]
            }}"#
        )
    }

    /// One consensus spec object (for embedding in a `"requests"` array).
    pub fn demo_dataset_consensus_spec(name: &str, delta: f64) -> String {
        format!(
            r#"{{"dataset": {}, "methods": ["Fair-Borda", "Fair-Copeland"], "delta": {delta}}}"#,
            demo_dataset_json(name)
        )
    }

    /// A small four-candidate consensus payload (Fair-Borda + Fair-Copeland).
    pub fn demo_consensus_body(delta: f64, wait: bool) -> String {
        format!(
            r#"{{
                "dataset": {},
                "methods": ["Fair-Borda", "Fair-Copeland"],
                "delta": {delta},
                "wait": {wait}
            }}"#,
            demo_dataset_json("demo")
        )
    }

    /// Sends one raw HTTP exchange (`Connection: close`) and returns
    /// `(status, body)`. The request leaves in one write.
    pub fn http_roundtrip(addr: SocketAddr, request_line: &str, body: &str) -> (u16, String) {
        let mut stream = TcpStream::connect(addr).expect("connect to test server");
        let request = format!(
            "{request_line}\r\nHost: test\r\nConnection: close\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        );
        stream.write_all(request.as_bytes()).expect("write request");
        let mut raw = String::new();
        stream.read_to_string(&mut raw).expect("read response");
        let status: u16 = raw
            .split_whitespace()
            .nth(1)
            .expect("status code")
            .parse()
            .expect("numeric status");
        let body = raw
            .split_once("\r\n\r\n")
            .map(|(_, b)| b.to_string())
            .unwrap_or_default();
        (status, body)
    }
}
