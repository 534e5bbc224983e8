//! # mani-rank
//!
//! Umbrella crate for the MANI-Rank reproduction: **M**ultiple **A**ttribute a**N**d
//! **I**ntersectional group fairness for consensus **Rank**ing (Cachel, Rundensteiner,
//! Harrison — ICDE 2022).
//!
//! This crate re-exports the workspace's public API so applications can depend on a single
//! crate:
//!
//! * [`ranking`] — candidate databases, protected attributes, rankings, Kendall tau,
//!   precedence matrices ([`mani_ranking`]).
//! * [`fairness`] — FPR / ARP / IRP metrics, the MANI-Rank criteria, PD loss, Price of
//!   Fairness, fairness audits ([`mani_fairness`]).
//! * [`aggregation`] — fairness-unaware consensus methods: Borda, Copeland, Schulze,
//!   Pick-A-Perm, weighted profiles, Kemeny local search ([`mani_aggregation`]).
//! * [`solver`] — exact branch-and-bound (Fair-)Kemeny solver ([`mani_solver`]).
//! * [`core`] — the MFCR algorithms: Make-MR-Fair, Fair-Kemeny, Fair-Copeland,
//!   Fair-Schulze, Fair-Borda, and the paper's baselines ([`mani_core`]).
//! * [`datagen`] — Mallows model workloads, fairness-targeted modal rankings, and the
//!   synthetic case-study datasets ([`mani_datagen`]).
//! * [`engine`] — the multi-threaded batch consensus engine: typed requests, async
//!   [`mani_engine::JobHandle`]s with bounded-queue backpressure, a worker pool, and
//!   per-dataset precedence caching ([`mani_engine`]).
//! * [`serve`] — the HTTP front-end over the engine: hand-rolled HTTP/1.1 server, JSON
//!   API, LRU response cache, and the `mani` CLI ([`mani_serve`]; see `docs/API.md`).
//! * [`tabular`] — the shared aligned-text/CSV table renderer ([`mani_tabular`]).
//! * [`experiments`] — the harness regenerating every table and figure of the paper
//!   ([`mani_experiments`]).
//!
//! ## Quickstart
//!
//! ```
//! use mani_rank::prelude::*;
//!
//! // A small committee-style problem: 12 candidates, two protected attributes.
//! let db = mani_rank::datagen::binary_population(12, 0.5, 0.5, 42);
//! let groups = GroupIndex::new(&db);
//! let modal = ModalRankingBuilder::new(&db).build(&FairnessTarget::low_fair(2));
//! let profile = MallowsModel::new(modal, 0.8).sample_profile(10, 7);
//!
//! // Ask for a consensus that is close to statistical parity on every attribute and on
//! // their intersection (Δ = 0.2), while representing the committee's preferences.
//! let ctx = MfcrContext::new(&db, &groups, &profile, FairnessThresholds::uniform(0.2));
//! let outcome = FairCopeland::new().solve(&ctx).unwrap();
//! assert!(outcome.criteria.is_satisfied());
//! assert!(outcome.pd_loss <= 1.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use mani_aggregation as aggregation;
pub use mani_core as core;
pub use mani_datagen as datagen;
pub use mani_engine as engine;
pub use mani_experiments as experiments;
pub use mani_fairness as fairness;
pub use mani_ranking as ranking;
pub use mani_serve as serve;
pub use mani_solver as solver;
pub use mani_tabular as tabular;

/// Commonly used items, importable with `use mani_rank::prelude::*`.
pub mod prelude {
    pub use mani_core::{
        make_mr_fair, CorrectFairestPerm, ExactKemeny, FairBorda, FairCopeland, FairKemeny,
        FairSchulze, KemenyWeighted, MethodKind, MfcrContext, MfcrMethod, MfcrOutcome,
        PickFairestPerm,
    };
    pub use mani_datagen::{
        binary_population, paper_population_90, CsRankingsDataset, ExamDataset, FairnessTarget,
        MallowsModel, ModalRankingBuilder,
    };
    pub use mani_engine::{
        ConsensusEngine, ConsensusRequest, ConsensusResponse, EngineConfig, EngineDataset,
        JobHandle, JobId, JobStatus, PrecedenceCache,
    };
    pub use mani_fairness::{
        attribute_rank_parity, intersectional_rank_parity, price_of_fairness, FairnessAudit,
        FairnessThresholds, ManiRankCriteria, ParityScores,
    };
    pub use mani_ranking::{
        kendall_tau, CandidateDb, CandidateDbBuilder, CandidateId, GroupIndex, GroupKey,
        PrecedenceMatrix, Ranking, RankingProfile,
    };
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn prelude_exposes_an_end_to_end_workflow() {
        let db = crate::datagen::binary_population(10, 0.5, 0.5, 1);
        let groups = GroupIndex::new(&db);
        let modal = ModalRankingBuilder::new(&db).build(&FairnessTarget::low_fair(2));
        let profile = MallowsModel::new(modal, 0.6).sample_profile(6, 2);
        let ctx = MfcrContext::new(&db, &groups, &profile, FairnessThresholds::uniform(0.25));
        let outcome = FairBorda::new().solve(&ctx).unwrap();
        assert!(outcome.criteria.is_satisfied());
    }
}
