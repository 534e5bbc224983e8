//! # mani-ranking
//!
//! Foundation data model for the MANI-Rank reproduction: candidate databases with
//! multiple, multi-valued protected attributes; strict rankings (permutations);
//! pairwise decompositions; Kendall tau distances; and the precedence matrix used
//! by every consensus-ranking algorithm in the workspace.
//!
//! The types in this crate are deliberately "database-shaped": candidates are dense
//! integer ids into a [`CandidateDb`], protected attributes and their values are
//! interned into small integer ids, and group membership is precomputed into a
//! [`GroupIndex`] so that downstream fairness metrics are simple linear scans.
//!
//! ## Quick tour
//!
//! ```
//! use mani_ranking::{CandidateDbBuilder, Ranking};
//!
//! // Two protected attributes: Gender (3 values) and Race (2 values).
//! let mut builder = CandidateDbBuilder::new();
//! let gender = builder.add_attribute("Gender", ["Man", "Woman", "NonBinary"]).unwrap();
//! let race = builder.add_attribute("Race", ["A", "B"]).unwrap();
//! for i in 0..6 {
//!     builder
//!         .add_candidate(format!("cand-{i}"), [(gender, i % 3), (race, i % 2)])
//!         .unwrap();
//! }
//! let db = builder.build().unwrap();
//! assert_eq!(db.len(), 6);
//!
//! // A ranking is a strict permutation of all candidates.
//! let ranking = Ranking::identity(db.len());
//! assert_eq!(ranking.position_of(db.candidate_ids().next().unwrap()), 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod attribute;
pub mod candidate;
pub mod error;
pub mod group;
pub mod kendall;
pub mod pairs;
pub mod parallel;
pub mod precedence;
pub mod profile;
pub mod ranking;

pub use attribute::{
    AttributeId, AttributeSchema, ProtectedAttribute, ValueId, MAX_INTERSECTION_GROUPS,
};
pub use candidate::{Candidate, CandidateDb, CandidateDbBuilder, CandidateId};
pub use error::RankingError;
pub use group::{GroupIndex, GroupKey, GroupMembership};
pub use kendall::{kendall_tau, kendall_tau_naive, normalized_kendall_tau};
pub use pairs::{mixed_pairs_for_group, total_mixed_pairs, total_pairs};
pub use parallel::{
    available_threads, kernel_counter_snapshot, run_parts, shard_ranges, KernelCounterSnapshot,
    Parallelism,
};
pub use precedence::PrecedenceMatrix;
pub use profile::{RankingDelta, RankingProfile};
pub use ranking::Ranking;

/// Convenience result alias used throughout the crate.
pub type Result<T> = std::result::Result<T, RankingError>;
