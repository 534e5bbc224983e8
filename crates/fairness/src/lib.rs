//! # mani-fairness
//!
//! Group fairness metrics for rankings over candidates with multiple, multi-valued
//! protected attributes, as defined in the MANI-Rank paper (ICDE 2022):
//!
//! * [`fpr`] — Favored Pair Representation (Definition 4): a group's share of favored
//!   mixed pairs; `0.5` means perfect statistical parity for that group.
//! * [`parity`] — Attribute Rank Parity (ARP, Definition 5) and Intersectional Rank
//!   Parity (IRP, Definition 6): the largest FPR gap between any two groups of an
//!   attribute / of the intersection.
//! * [`criteria`] — the MANI-Rank criteria (Definition 7): `ARP_pk ≤ Δ` for every
//!   protected attribute and `IRP ≤ Δ`, with optional per-attribute thresholds.
//! * [`pof`] — Price of Fairness (Equation 13).
//! * [`audit`] — one-call fairness audits producing the per-group / per-attribute rows
//!   reported in the paper's Tables IV and V.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod audit;
pub mod criteria;
pub mod fpr;
pub mod parity;
pub mod pof;

pub use audit::{AttributeAudit, FairnessAudit, GroupAudit};
pub use criteria::{FairnessThresholds, ManiRankCriteria, Violation};
pub use fpr::{favored_pair_counts, group_fpr, group_fprs, FprScores};
pub use parity::{
    attribute_rank_parity, intersectional_rank_parity, max_parity_violation, ParityScores,
};
pub use pof::price_of_fairness;
