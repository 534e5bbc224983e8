//! mani-service — the transport-agnostic service core of MANI-Rank.
//!
//! This crate is the layer between the consensus engine and whatever wire
//! front-end a deployment runs: it owns the engine, the dataset registry,
//! the response cache, async-job tracking, and per-operation metrics, and
//! exposes one method per API operation on [`Service`]. Front-ends
//! (`mani-serve` over HTTP, the `mani` CLI in-process) translate their wire
//! formats into the typed values here and map [`ApiError`] kinds onto their
//! own status vocabulary.
//!
//! By design this crate contains **no transport code**: no sockets, no HTTP
//! types, no numeric wire statuses. The CI lint job greps these sources for
//! transport tokens and fails the build if any leak in.
//!
//! The [`columnar`] module defines `application/vnd.mani.columnar`, a compact
//! binary dataset representation that codec layers can negotiate as an
//! alternative to JSON uploads.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod columnar;
pub mod error;
pub mod metrics;
pub mod registry;
pub mod response_cache;
pub mod spec;
pub mod value;

mod service;

pub use columnar::{
    decode_dataset, encode_dataset, ColumnarDataset, COLUMNAR_CONTENT_TYPE, COLUMNAR_MAGIC,
};
pub use error::{ApiError, ApiErrorKind};
pub use metrics::{
    EndpointMetrics, HistogramSnapshot, LatencyHistogram, TransportStats, ENDPOINT_LABELS,
    LATENCY_BUCKETS, LATENCY_BUCKET_BOUNDS_US,
};
pub use registry::{
    dataset_id, DatasetRegistry, RegisteredDataset, MAX_REGISTERED_DATASETS, MAX_RETAINED_VERSIONS,
};
pub use response_cache::{
    cache_key, ResponseCache, ResponseCacheStats, DEFAULT_RESPONSE_CACHE_CAPACITY,
};
pub use service::{
    methods_value, version_value, BuildInfo, ConsensusReply, NdjsonStream, RequestContext, Service,
    StreamSink, MAX_TRACKED_JOBS, SLOW_RING_CAPACITY,
};
pub use spec::{
    attribute_names_json, dataset_to_value, method_result_json, parse_dataset, parse_solve,
    query_fields, ranking_names,
};
pub use value::{as_f64, error_body, obj, parse_body, render, s, with_entry};
