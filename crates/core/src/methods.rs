//! The [`MfcrMethod`] trait and the [`MethodKind`] registry used by experiments.

use mani_ranking::Result;
use serde::{Deserialize, Serialize};

use crate::baselines::{CorrectFairestPerm, ExactKemeny, KemenyWeighted, PickFairestPerm};
use crate::context::{BaseAggregator, MfcrContext};
use crate::fair_borda::FairBorda;
use crate::fair_copeland::FairCopeland;
use crate::fair_kemeny::FairKemeny;
use crate::fair_schulze::FairSchulze;
use crate::make_mr_fair::make_mr_fair;
use crate::report::MfcrOutcome;

/// A solution method for the MFCR problem (or one of the paper's baselines).
pub trait MfcrMethod {
    /// Method name used in experiment output.
    fn name(&self) -> &'static str;

    /// Produces a consensus ranking for the given context and evaluates it.
    fn solve(&self, ctx: &MfcrContext<'_>) -> Result<MfcrOutcome>;
}

/// The body of Fair-Borda, Fair-Copeland and Fair-Schulze (Section III-B):
/// take the context's `aggregator` consensus, correct it with Make-MR-Fair
/// (Algorithm 2) under the context's Δ, and evaluate the result.
pub(crate) fn correct_base_consensus(
    name: &'static str,
    aggregator: BaseAggregator,
    ctx: &MfcrContext<'_>,
) -> Result<MfcrOutcome> {
    let consensus = ctx.base_consensus(aggregator);
    let correction = make_mr_fair(&consensus, ctx.groups, &ctx.thresholds);
    MfcrOutcome::evaluate(name, ctx, correction.ranking, correction.swaps, true)
}

/// Identifier of every method evaluated in the paper, in the order used by its legends
/// (A1–A4 are the proposed MFCR methods, B1–B4 the baselines).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum MethodKind {
    /// (A1) Fair-Kemeny.
    FairKemeny,
    /// (A2) Fair-Schulze.
    FairSchulze,
    /// (A3) Fair-Borda.
    FairBorda,
    /// (A4) Fair-Copeland.
    FairCopeland,
    /// (B1) Traditional Kemeny.
    Kemeny,
    /// (B2) Kemeny-Weighted.
    KemenyWeighted,
    /// (B3) Pick-Fairest-Perm.
    PickFairestPerm,
    /// (B4) Correct-Fairest-Perm.
    CorrectFairestPerm,
}

impl MethodKind {
    /// All eight methods in the paper's legend order.
    pub fn all() -> [MethodKind; 8] {
        [
            MethodKind::FairKemeny,
            MethodKind::FairSchulze,
            MethodKind::FairBorda,
            MethodKind::FairCopeland,
            MethodKind::Kemeny,
            MethodKind::KemenyWeighted,
            MethodKind::PickFairestPerm,
            MethodKind::CorrectFairestPerm,
        ]
    }

    /// The four proposed MFCR methods.
    pub fn proposed() -> [MethodKind; 4] {
        [
            MethodKind::FairKemeny,
            MethodKind::FairSchulze,
            MethodKind::FairBorda,
            MethodKind::FairCopeland,
        ]
    }

    /// The four polynomial-time methods suitable for large-scale sweeps (everything except
    /// the two exact optimisation baselines and Fair-Kemeny).
    pub fn polynomial() -> [MethodKind; 5] {
        [
            MethodKind::FairSchulze,
            MethodKind::FairBorda,
            MethodKind::FairCopeland,
            MethodKind::PickFairestPerm,
            MethodKind::CorrectFairestPerm,
        ]
    }

    /// True for the paper's proposed methods (A1–A4).
    pub fn is_proposed(&self) -> bool {
        matches!(
            self,
            MethodKind::FairKemeny
                | MethodKind::FairSchulze
                | MethodKind::FairBorda
                | MethodKind::FairCopeland
        )
    }

    /// The label used in the paper's figures, e.g. `"(A1) Fair-Kemeny"`.
    pub fn paper_label(&self) -> &'static str {
        match self {
            MethodKind::FairKemeny => "(A1) Fair-Kemeny",
            MethodKind::FairSchulze => "(A2) Fair-Schulze",
            MethodKind::FairBorda => "(A3) Fair-Borda",
            MethodKind::FairCopeland => "(A4) Fair-Copeland",
            MethodKind::Kemeny => "(B1) Kemeny",
            MethodKind::KemenyWeighted => "(B2) Kemeny-Weighted",
            MethodKind::PickFairestPerm => "(B3) Pick-Fairest-Perm",
            MethodKind::CorrectFairestPerm => "(B4) Correct-Fairest-Perm",
        }
    }

    /// The plain method name.
    pub fn name(&self) -> &'static str {
        match self {
            MethodKind::FairKemeny => "Fair-Kemeny",
            MethodKind::FairSchulze => "Fair-Schulze",
            MethodKind::FairBorda => "Fair-Borda",
            MethodKind::FairCopeland => "Fair-Copeland",
            MethodKind::Kemeny => "Kemeny",
            MethodKind::KemenyWeighted => "Kemeny-Weighted",
            MethodKind::PickFairestPerm => "Pick-Fairest-Perm",
            MethodKind::CorrectFairestPerm => "Correct-Fairest-Perm",
        }
    }

    /// Instantiates the method with default configuration.
    pub fn instantiate(&self) -> Box<dyn MfcrMethod> {
        match self {
            MethodKind::FairKemeny => Box::new(FairKemeny::new()),
            MethodKind::FairSchulze => Box::new(FairSchulze::new()),
            MethodKind::FairBorda => Box::new(FairBorda::new()),
            MethodKind::FairCopeland => Box::new(FairCopeland::new()),
            MethodKind::Kemeny => Box::new(ExactKemeny::new()),
            MethodKind::KemenyWeighted => Box::new(KemenyWeighted::new()),
            MethodKind::PickFairestPerm => Box::new(PickFairestPerm::new()),
            MethodKind::CorrectFairestPerm => Box::new(CorrectFairestPerm::new()),
        }
    }

    /// Instantiates the method with an explicit branch-and-bound node budget for the
    /// exact-optimisation methods (Fair-Kemeny, Kemeny, Kemeny-Weighted); the polynomial
    /// methods ignore the budget.
    pub fn instantiate_with_nodes(&self, max_nodes: u64) -> Box<dyn MfcrMethod> {
        let config = mani_solver::SolverConfig::with_max_nodes(max_nodes);
        match self {
            MethodKind::FairKemeny => Box::new(FairKemeny::with_config(config)),
            MethodKind::Kemeny => Box::new(ExactKemeny::with_config(config)),
            MethodKind::KemenyWeighted => Box::new(KemenyWeighted::with_config(config)),
            _ => self.instantiate(),
        }
    }

    /// Parses a method name (either plain or paper-label form).
    pub fn parse(name: &str) -> Option<MethodKind> {
        MethodKind::all()
            .into_iter()
            .find(|k| k.name().eq_ignore_ascii_case(name) || k.paper_label() == name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support::{low_fair_context, TestFixture};

    #[test]
    fn registry_is_consistent() {
        assert_eq!(MethodKind::all().len(), 8);
        assert_eq!(MethodKind::proposed().len(), 4);
        for kind in MethodKind::all() {
            assert_eq!(kind.instantiate().name(), kind.name());
            assert_eq!(MethodKind::parse(kind.name()), Some(kind));
            assert_eq!(MethodKind::parse(kind.paper_label()), Some(kind));
            assert_eq!(kind.is_proposed(), MethodKind::proposed().contains(&kind));
        }
        assert_eq!(MethodKind::parse("nonsense"), None);
    }

    #[test]
    fn every_method_produces_a_valid_ranking() {
        let fixture = TestFixture::low_fair(12, 8, 0.6, 83);
        let ctx = low_fair_context(&fixture, 0.25);
        for kind in MethodKind::all() {
            let outcome = kind.instantiate().solve(&ctx).unwrap();
            outcome.ranking.check_invariants().unwrap();
            assert_eq!(outcome.ranking.len(), 12, "{}", kind.name());
        }
    }

    #[test]
    fn proposed_methods_satisfy_criteria_where_baselines_do_not() {
        // Strongly biased, strongly agreeing profile: the proposed methods must satisfy the
        // criteria; plain Kemeny and Pick-Fairest-Perm must not.
        let fixture = TestFixture::low_fair(16, 12, 1.5, 89);
        let ctx = low_fair_context(&fixture, 0.1);
        for kind in MethodKind::proposed() {
            let outcome = kind.instantiate().solve(&ctx).unwrap();
            assert!(
                outcome.criteria.is_satisfied(),
                "{} should satisfy MANI-Rank",
                kind.name()
            );
        }
        let kemeny = MethodKind::Kemeny.instantiate().solve(&ctx).unwrap();
        assert!(!kemeny.criteria.is_satisfied());
        let pick = MethodKind::PickFairestPerm
            .instantiate()
            .solve(&ctx)
            .unwrap();
        assert!(!pick.criteria.is_satisfied());
    }
}
