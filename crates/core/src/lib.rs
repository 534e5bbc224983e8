//! # mani-core
//!
//! The MANI-Rank paper's primary contribution: algorithms for the Multi-attribute Fair
//! Consensus Ranking (MFCR) problem.
//!
//! Given a candidate database with multiple, multi-valued protected attributes, a profile
//! of base rankings, and a desired proximity-to-parity Δ, an MFCR method produces a
//! consensus ranking that (1) satisfies the MANI-Rank group fairness criteria and (2)
//! represents the base rankings' preferences with as little pairwise-disagreement loss as
//! possible.
//!
//! ## The method family
//!
//! | Method | Strategy | Paper section |
//! |---|---|---|
//! | [`FairKemeny`] | exact constrained Kemeny optimisation (via `mani-solver`) | III-A |
//! | [`FairCopeland`] | Copeland consensus + [`make_mr_fair()`] correction | III-B |
//! | [`FairSchulze`] | Schulze consensus + [`make_mr_fair()`] correction | III-B |
//! | [`FairBorda`] | Borda consensus + [`make_mr_fair()`] correction | III-B |
//!
//! plus the comparison baselines of Section IV-B in [`baselines`]: exact (unfair) Kemeny,
//! Kemeny-Weighted, Pick-Fairest-Perm, and Correct-Fairest-Perm.
//!
//! ## Quick example
//!
//! ```
//! use mani_core::{FairBorda, MfcrContext, MfcrMethod};
//! use mani_datagen::{paper_population_90, FairnessTarget, MallowsModel, ModalRankingBuilder};
//! use mani_fairness::FairnessThresholds;
//! use mani_ranking::GroupIndex;
//!
//! let db = paper_population_90();
//! let groups = GroupIndex::new(&db);
//! let builder = ModalRankingBuilder::new(&db);
//! let modal = builder.build(&FairnessTarget::low_fair(2));
//! let profile = MallowsModel::new(modal, 0.6).sample_profile(20, 7);
//!
//! let ctx = MfcrContext::new(&db, &groups, &profile, FairnessThresholds::uniform(0.1));
//! let outcome = FairBorda::default().solve(&ctx).unwrap();
//! assert!(outcome.criteria.is_satisfied());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod baselines;
pub mod context;
pub mod fair_borda;
pub mod fair_copeland;
pub mod fair_kemeny;
pub mod fair_schulze;
pub mod make_mr_fair;
pub mod methods;
pub mod report;
#[cfg(test)]
mod test_support;

pub use baselines::{CorrectFairestPerm, ExactKemeny, KemenyWeighted, PickFairestPerm};
pub use context::{BaseAggregator, ConsensusMemo, MemoCounters, MfcrContext};
pub use fair_borda::FairBorda;
pub use fair_copeland::FairCopeland;
pub use fair_kemeny::FairKemeny;
pub use fair_schulze::FairSchulze;
pub use make_mr_fair::{make_mr_fair, CorrectionReport};
pub use methods::{MethodKind, MfcrMethod};
pub use report::MfcrOutcome;
