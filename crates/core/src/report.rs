//! MFCR method outcomes: the consensus ranking plus all its evaluation metrics.

use mani_fairness::{pairwise_disagreement_loss, FairnessAudit, ManiRankCriteria};
use mani_ranking::{Ranking, Result};
use serde::Serialize;

use crate::context::MfcrContext;

/// The result of running an MFCR method: the consensus ranking together with its fairness
/// and preference-representation metrics.
#[derive(Debug, Clone)]
pub struct MfcrOutcome {
    /// Name of the method that produced the ranking.
    pub method: &'static str,
    /// The consensus ranking.
    pub ranking: Ranking,
    /// Evaluation of the MANI-Rank criteria under the context's thresholds.
    pub criteria: ManiRankCriteria,
    /// Pairwise disagreement loss against the base rankings (Definition 9).
    pub pd_loss: f64,
    /// Number of pairwise swaps applied by Make-MR-Fair (zero for methods that do not use
    /// the correction subroutine).
    pub correction_swaps: u64,
    /// Whether the producing algorithm proved optimality (only meaningful for Fair-Kemeny
    /// and the exact Kemeny baseline; heuristic methods report `true`).
    pub optimal: bool,
    /// Branch-and-bound nodes expanded by the producing algorithm (zero for
    /// the polynomial methods, which do not search).
    pub nodes_explored: u64,
}

impl MfcrOutcome {
    /// Evaluates a consensus ranking produced by `method` in the given context.
    ///
    /// When the context carries a shared precedence matrix the PD loss is read
    /// off the matrix in `O(n²)` instead of re-walking all `|R|` base rankings;
    /// both paths compute the identical integer total, so the value is
    /// bit-for-bit the same.
    pub fn evaluate(
        method: &'static str,
        ctx: &MfcrContext<'_>,
        ranking: Ranking,
        correction_swaps: u64,
        optimal: bool,
    ) -> Result<Self> {
        let criteria = ManiRankCriteria::evaluate(&ranking, ctx.groups, &ctx.thresholds);
        let pd_loss = match ctx.shared_precedence() {
            Some(matrix) => {
                let total = matrix.total_disagreements(&ranking)?;
                let denom = mani_ranking::total_pairs(ctx.profile.num_candidates())
                    * ctx.profile.len() as u64;
                if denom == 0 {
                    0.0
                } else {
                    total as f64 / denom as f64
                }
            }
            None => pairwise_disagreement_loss(ctx.profile, &ranking)?,
        };
        Ok(Self {
            method,
            ranking,
            criteria,
            pd_loss,
            correction_swaps,
            optimal,
            nodes_explored: 0,
        })
    }

    /// Records how many search nodes the producing algorithm expanded (used by
    /// the exact solver methods; polynomial methods keep the zero default).
    pub fn with_nodes(mut self, nodes_explored: u64) -> Self {
        self.nodes_explored = nodes_explored;
        self
    }

    /// Full fairness audit of the consensus ranking (per-group FPR scores).
    pub fn audit(&self, ctx: &MfcrContext<'_>) -> FairnessAudit {
        FairnessAudit::new(self.method, &self.ranking, ctx.db, ctx.groups)
    }

    /// A serialisable summary row, used by the experiment harness.
    pub fn summary(&self) -> OutcomeSummary {
        OutcomeSummary {
            method: self.method.to_string(),
            pd_loss: self.pd_loss,
            arps: self.criteria.parity().arps().to_vec(),
            irp: self.criteria.parity().irp(),
            satisfied: self.criteria.is_satisfied(),
            correction_swaps: self.correction_swaps,
            optimal: self.optimal,
        }
    }
}

/// Flat summary of an [`MfcrOutcome`] for CSV/JSON output.
#[derive(Debug, Clone, Serialize)]
pub struct OutcomeSummary {
    /// Method name.
    pub method: String,
    /// Pairwise disagreement loss.
    pub pd_loss: f64,
    /// ARP per protected attribute, in schema order.
    pub arps: Vec<f64>,
    /// IRP of the intersection.
    pub irp: f64,
    /// Whether the MANI-Rank criteria were satisfied.
    pub satisfied: bool,
    /// Swaps performed by Make-MR-Fair.
    pub correction_swaps: u64,
    /// Whether the method proved optimality.
    pub optimal: bool,
}

#[cfg(test)]
mod tests {
    use super::*;
    use mani_fairness::FairnessThresholds;
    use mani_ranking::{CandidateDbBuilder, GroupIndex, RankingProfile};

    #[test]
    fn evaluate_computes_all_metrics() {
        let mut b = CandidateDbBuilder::new();
        let g = b.add_attribute("G", ["x", "y"]).unwrap();
        for i in 0..6usize {
            b.add_candidate(format!("c{i}"), [(g, i % 2)]).unwrap();
        }
        let db = b.build().unwrap();
        let groups = GroupIndex::new(&db);
        let base = Ranking::identity(6);
        let profile = RankingProfile::new(vec![base.clone(), base.clone()]).unwrap();
        let ctx = MfcrContext::new(&db, &groups, &profile, FairnessThresholds::uniform(0.5));

        let outcome = MfcrOutcome::evaluate("Test", &ctx, base.clone(), 3, true).unwrap();
        assert_eq!(outcome.method, "Test");
        assert_eq!(outcome.pd_loss, 0.0);
        assert!(outcome.criteria.is_satisfied());
        assert_eq!(outcome.correction_swaps, 3);
        assert!(outcome.optimal);

        let audit = outcome.audit(&ctx);
        assert_eq!(audit.label, "Test");

        let summary = outcome.summary();
        assert_eq!(summary.method, "Test");
        assert!(summary.satisfied);
        assert_eq!(summary.arps.len(), 1);
        let json = serde_json::to_string(&summary).unwrap();
        assert!(json.contains("pd_loss"));
    }
}
