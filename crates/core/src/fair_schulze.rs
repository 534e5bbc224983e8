//! Fair-Schulze (Section III-B): Schulze aggregation followed by Make-MR-Fair correction.

use mani_ranking::Result;

use crate::context::{BaseAggregator, MfcrContext};
use crate::methods::{correct_base_consensus, MfcrMethod};
use crate::report::MfcrOutcome;

/// The Fair-Schulze MFCR method.
#[derive(Debug, Clone, Copy, Default)]
pub struct FairSchulze;

impl FairSchulze {
    /// Creates a Fair-Schulze solver.
    pub fn new() -> Self {
        Self
    }
}

impl MfcrMethod for FairSchulze {
    fn name(&self) -> &'static str {
        "Fair-Schulze"
    }

    fn solve(&self, ctx: &MfcrContext<'_>) -> Result<MfcrOutcome> {
        correct_base_consensus(self.name(), BaseAggregator::Schulze, ctx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support::{low_fair_context, TestFixture};

    #[test]
    fn fair_schulze_satisfies_mani_rank() {
        let fixture = TestFixture::low_fair(60, 25, 0.6, 29);
        let ctx = low_fair_context(&fixture, 0.1);
        let outcome = FairSchulze::new().solve(&ctx).unwrap();
        assert!(outcome.criteria.is_satisfied());
        outcome.ranking.check_invariants().unwrap();
    }

    #[test]
    fn schulze_and_copeland_agree_on_strong_consensus() {
        // With a strongly concentrated profile both Condorcet methods should produce very
        // similar fair consensus rankings (identical parity status).
        let fixture = TestFixture::low_fair(40, 30, 1.5, 31);
        let ctx = low_fair_context(&fixture, 0.1);
        let schulze = FairSchulze::new().solve(&ctx).unwrap();
        let copeland = crate::FairCopeland::new().solve(&ctx).unwrap();
        assert_eq!(
            schulze.criteria.is_satisfied(),
            copeland.criteria.is_satisfied()
        );
        assert!((schulze.pd_loss - copeland.pd_loss).abs() < 0.15);
    }
}
