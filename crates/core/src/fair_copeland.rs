//! Fair-Copeland (Section III-B): Copeland aggregation followed by Make-MR-Fair correction.

use mani_ranking::Result;

use crate::context::{BaseAggregator, MfcrContext};
use crate::methods::{correct_base_consensus, MfcrMethod};
use crate::report::MfcrOutcome;

/// The Fair-Copeland MFCR method.
#[derive(Debug, Clone, Copy, Default)]
pub struct FairCopeland;

impl FairCopeland {
    /// Creates a Fair-Copeland solver.
    pub fn new() -> Self {
        Self
    }
}

impl MfcrMethod for FairCopeland {
    fn name(&self) -> &'static str {
        "Fair-Copeland"
    }

    fn solve(&self, ctx: &MfcrContext<'_>) -> Result<MfcrOutcome> {
        correct_base_consensus(self.name(), BaseAggregator::Copeland, ctx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support::{low_fair_context, TestFixture};

    #[test]
    fn fair_copeland_satisfies_mani_rank() {
        let fixture = TestFixture::low_fair(60, 25, 0.6, 19);
        let ctx = low_fair_context(&fixture, 0.1);
        let outcome = FairCopeland::new().solve(&ctx).unwrap();
        assert!(outcome.criteria.is_satisfied());
        outcome.ranking.check_invariants().unwrap();
    }

    #[test]
    fn copeland_condorcet_structure_keeps_pd_loss_competitive() {
        // Fair-Copeland should represent preferences at least as well as Correct-Fairest-Perm
        // style corrections of arbitrary rankings; a loose sanity bound on PD loss.
        let fixture = TestFixture::low_fair(60, 25, 0.6, 23);
        let ctx = low_fair_context(&fixture, 0.1);
        let outcome = FairCopeland::new().solve(&ctx).unwrap();
        assert!(outcome.pd_loss < 0.6, "pd loss {}", outcome.pd_loss);
    }
}
