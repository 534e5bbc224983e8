//! Fair-Borda (Section III-B): Borda aggregation followed by Make-MR-Fair correction.
//!
//! Borda is the fastest Kemeny approximation, so Fair-Borda is the paper's recommended
//! method for very large consensus problems (Tables II and III).

use mani_ranking::Result;

use crate::context::{BaseAggregator, MfcrContext};
use crate::methods::{correct_base_consensus, MfcrMethod};
use crate::report::MfcrOutcome;

/// The Fair-Borda MFCR method.
#[derive(Debug, Clone, Copy, Default)]
pub struct FairBorda;

impl FairBorda {
    /// Creates a Fair-Borda solver.
    pub fn new() -> Self {
        Self
    }
}

impl MfcrMethod for FairBorda {
    fn name(&self) -> &'static str {
        "Fair-Borda"
    }

    fn solve(&self, ctx: &MfcrContext<'_>) -> Result<MfcrOutcome> {
        correct_base_consensus(self.name(), BaseAggregator::Borda, ctx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support::{low_fair_context, TestFixture};

    #[test]
    fn fair_borda_satisfies_mani_rank() {
        let fixture = TestFixture::low_fair(60, 25, 0.6, 11);
        let ctx = low_fair_context(&fixture, 0.1);
        let outcome = FairBorda::new().solve(&ctx).unwrap();
        assert!(outcome.criteria.is_satisfied());
        assert!(
            outcome.correction_swaps > 0,
            "unfair profile needs correction"
        );
        outcome.ranking.check_invariants().unwrap();
    }

    #[test]
    fn fair_borda_pd_loss_is_bounded_by_correction() {
        // The fair ranking can lose preferences relative to plain Borda, but never more
        // than the theoretical maximum of 1.
        let fixture = TestFixture::low_fair(60, 25, 0.6, 13);
        let ctx = low_fair_context(&fixture, 0.1);
        let outcome = FairBorda::new().solve(&ctx).unwrap();
        assert!((0.0..=1.0).contains(&outcome.pd_loss));
    }

    #[test]
    fn unconstrained_thresholds_reduce_to_plain_borda() {
        let fixture = TestFixture::low_fair(30, 10, 0.8, 17);
        let ctx = crate::test_support::context_with(
            &fixture,
            mani_fairness::FairnessThresholds::unconstrained(),
        );
        let outcome = FairBorda::new().solve(&ctx).unwrap();
        let plain = mani_aggregation::BordaAggregator::new().consensus(ctx.profile);
        assert_eq!(outcome.ranking, plain);
        assert_eq!(outcome.correction_swaps, 0);
    }
}
