//! # mani-aggregation
//!
//! Fairness-unaware rank aggregation (consensus ranking) methods used by the MANI-Rank
//! reproduction, both as baselines and as the building blocks of the Fair-* algorithms:
//!
//! * [`borda`] — Borda count: rank candidates by total points across base rankings.
//! * [`copeland`] — Copeland: rank candidates by pairwise contests won (ties count as wins
//!   for both sides).
//! * [`schulze`] — Schulze: strongest-path (widest-path) ordering computed with a
//!   Floyd–Warshall variant over the pairwise support graph.
//! * [`pick_a_perm`] — Pick-A-Perm: return the base ranking that minimises total Kendall
//!   distance to the profile (a classic 2-approximation of Kemeny).
//! * [`local_search`] — adjacent-swap local search that refines any consensus towards the
//!   Kemeny objective; used as an anytime improver and as an incumbent generator for the
//!   exact solver.
//! * [`scoring`] — shared scoring helpers (Borda points, Copeland wins) on the precedence
//!   matrix.
//!
//! All methods implement the [`ConsensusMethod`] trait so experiment harnesses can treat
//! them uniformly.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod borda;
pub mod copeland;
pub mod local_search;
pub mod pick_a_perm;
pub mod schulze;
pub mod scoring;
pub mod traits;

pub use borda::BordaAggregator;
pub use copeland::CopelandAggregator;
pub use local_search::{kemeny_local_search, LocalSearchConfig};
pub use pick_a_perm::PickAPerm;
pub use schulze::{PathMatrix, SchulzeAggregator};
pub use traits::ConsensusMethod;
