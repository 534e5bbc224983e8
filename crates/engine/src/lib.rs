//! # mani-engine
//!
//! A multi-threaded **batch consensus engine** on top of the MANI-Rank MFCR
//! library crates: the execution layer that turns per-call primitives into a
//! request-driven subsystem.
//!
//! * [`ConsensusRequest`] / [`ConsensusResponse`] — the typed job API: a
//!   dataset, a list of [`mani_core::MethodKind`]s, fairness thresholds Δ, and
//!   an optional exact-solver node budget in; evaluated
//!   [`mani_core::MfcrOutcome`]s with per-method timings out.
//! * [`ConsensusEngine`] — runs every request as a job, one task per method
//!   on a [`WorkerPool`] of `std` threads; the blocking
//!   [`ConsensusEngine::submit_batch`] waits on the jobs and returns their
//!   responses in request order.
//! * [`JobHandle`] — non-blocking submission: [`ConsensusEngine::submit_async`]
//!   returns a handle backed by a bounded queue ([`EngineConfig::queue_depth`])
//!   that can be polled, waited on, or registered by [`JobId`]; a full queue
//!   rejects with [`EngineError::Overloaded`] instead of growing without bound.
//! * [`BatchHandle`] — streaming batches:
//!   [`ConsensusEngine::submit_batch_streaming`] groups a batch's job handles
//!   and yields each response in **as-completed order** (condvar-signalled by
//!   the job completion transition, no polling), so consumers see cheap
//!   solves while expensive ones are still searching.
//! * [`PrecedenceCache`] — content-addressed sharing of the `O(n² · |R|)`
//!   precedence matrix and the [`mani_ranking::GroupIndex`] per dataset: a
//!   batch over `d` datasets builds exactly `d` matrices no matter how many
//!   methods and requests reference them (observable via [`CacheStats`]).
//! * [`csvio`] — a hand-rolled CSV front-end (candidate tables, ranking
//!   profiles) powering the `mani` CLI binary.
//! * [`report`] — aligned text tables for consensus runs and fairness audits.
//!
//! ## Quickstart
//!
//! ```
//! use std::sync::Arc;
//! use mani_engine::{ConsensusEngine, ConsensusRequest, EngineDataset};
//! use mani_core::MethodKind;
//! use mani_datagen::{binary_population, FairnessTarget, MallowsModel, ModalRankingBuilder};
//! use mani_fairness::FairnessThresholds;
//! use mani_ranking::GroupIndex;
//!
//! // Two datasets, three methods each: one batch, six results, two matrix builds.
//! let engine = ConsensusEngine::new();
//! let mut requests = Vec::new();
//! for seed in [1u64, 2] {
//!     let db = binary_population(16, 0.5, 0.5, seed);
//!     let modal = ModalRankingBuilder::new(&db).build(&FairnessTarget::low_fair(2));
//!     let profile = MallowsModel::new(modal, 0.8).sample_profile(10, seed);
//!     let dataset = Arc::new(EngineDataset::new(format!("d{seed}"), db, profile).unwrap());
//!     requests.push(ConsensusRequest::new(
//!         dataset,
//!         [MethodKind::FairBorda, MethodKind::FairCopeland, MethodKind::FairSchulze],
//!         FairnessThresholds::uniform(0.2),
//!     ));
//! }
//! let responses = engine.submit_batch(requests);
//! assert!(responses.iter().all(|r| r.is_complete()));
//! assert_eq!(engine.cache().stats().builds, 2);
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod batch;
pub mod cache;
pub mod csvio;
pub mod dataset;
#[allow(clippy::module_inception)]
pub mod engine;
pub mod error;
pub mod jobs;
pub mod pool;
pub mod report;
pub mod request;

pub use batch::{BatchHandle, BatchItem};
pub use cache::{CacheStats, PrecedenceCache, SharedArtifacts};
pub use dataset::EngineDataset;
pub use engine::{ConsensusEngine, EngineConfig, EngineStats, DEFAULT_QUEUE_DEPTH};
pub use error::EngineError;
pub use jobs::{JobHandle, JobId, JobStatus};
pub use mani_obs::{PhaseSnapshot, TraceTimeline};
pub use mani_ranking::{Parallelism, RankingDelta};
pub use pool::{PoolStats, WorkerPool};
pub use report::{attribute_labels, audit_table, response_table, ReportTable};
pub use request::{ConsensusRequest, ConsensusResponse, MethodResult};
