//! The comparison baselines of the paper's experimental study (Section IV-B):
//!
//! * [`ExactKemeny`] — traditional fairness-unaware Kemeny aggregation (exact, via the
//!   branch-and-bound solver).
//! * [`KemenyWeighted`] — orders the base rankings from least to most fair and weights the
//!   fairest by `|R|` down to 1 for the least fair, then solves weighted Kemeny.
//! * [`PickFairestPerm`] — returns the fairest base ranking (a fairness-aware variant of
//!   Pick-A-Perm).
//! * [`CorrectFairestPerm`] — applies Make-MR-Fair to the fairest base ranking.
//!
//! The first three do not satisfy MFCR's group-fairness criteria in general; the fourth
//! satisfies them but represents the base rankings poorly. They exist to reproduce
//! Figures 4–7.

use mani_aggregation::{kemeny_local_search, LocalSearchConfig};
use mani_fairness::ParityScores;
use mani_ranking::{PrecedenceMatrix, Ranking, RankingError, Result};
use mani_solver::{KemenyProblem, SolverConfig};

use crate::context::{solver_config_for_ctx, BaseAggregator, MfcrContext};
use crate::make_mr_fair::make_mr_fair;
use crate::methods::MfcrMethod;
use crate::report::MfcrOutcome;

/// Fairness score of a base ranking used to order rankings by fairness: the maximum parity
/// violation across all protected attributes and the intersection (lower is fairer).
fn unfairness(ranking: &Ranking, ctx: &MfcrContext<'_>) -> f64 {
    ParityScores::compute(ranking, ctx.groups).max_violation()
}

/// Index of the run holding the fairest base ranking (ties broken by profile order).
fn fairest_index(ctx: &MfcrContext<'_>) -> usize {
    let mut best = 0usize;
    let mut best_score = f64::INFINITY;
    for (i, ranking) in ctx.profile.rankings().iter().enumerate() {
        let score = unfairness(ranking, ctx);
        if score < best_score {
            best_score = score;
            best = i;
        }
    }
    best
}

/// Traditional (fairness-unaware) exact Kemeny aggregation.
#[derive(Debug, Clone, Default)]
pub struct ExactKemeny {
    solver_config: SolverConfig,
}

impl ExactKemeny {
    /// Creates an exact Kemeny baseline with the default node budget.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an exact Kemeny baseline with an explicit node budget.
    pub fn with_config(solver_config: SolverConfig) -> Self {
        Self { solver_config }
    }
}

impl MfcrMethod for ExactKemeny {
    fn name(&self) -> &'static str {
        "Kemeny"
    }

    fn solve(&self, ctx: &MfcrContext<'_>) -> Result<MfcrOutcome> {
        let matrix = ctx.precedence_matrix().into_owned();
        // Seed with a locally-optimal refinement of the Borda consensus.
        let borda = ctx.base_consensus(BaseAggregator::Borda);
        let (incumbent, _) = kemeny_local_search(&matrix, &borda, LocalSearchConfig::default())?;
        let problem = KemenyProblem::unconstrained(matrix);
        let config = solver_config_for_ctx(&self.solver_config, ctx);
        let outcome = mani_solver::solve(&problem, Some(&incumbent), &config);
        Ok(
            MfcrOutcome::evaluate(self.name(), ctx, outcome.ranking, 0, outcome.optimal)?
                .with_nodes(outcome.nodes_explored),
        )
    }
}

/// Kemeny-Weighted: the fairest base ranking gets weight `|R|`, the least fair weight 1.
#[derive(Debug, Clone, Default)]
pub struct KemenyWeighted {
    solver_config: SolverConfig,
}

impl KemenyWeighted {
    /// Creates a Kemeny-Weighted baseline with the default node budget.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a Kemeny-Weighted baseline with an explicit node budget.
    pub fn with_config(solver_config: SolverConfig) -> Self {
        Self { solver_config }
    }

    /// Computes each run's weight. The copies of the profile, sorted from least to most
    /// fair (ties by profile order), receive weights `1..=|R|`. A run's copies tie and sit
    /// next to each other, so a run of `w` copies at sorted ranks `k + 1 ..= k + w`
    /// weighs the sum of theirs, `w·k + w(w + 1)/2`.
    pub fn weights(ctx: &MfcrContext<'_>) -> Vec<u64> {
        let runs = ctx.profile.rankings();
        let scores: Vec<f64> = runs.iter().map(|r| unfairness(r, ctx)).collect();
        let mut order: Vec<usize> = (0..runs.len()).collect();
        // Sort by descending unfairness: position 0 = least fair -> weight 1.
        order.sort_by(|&a, &b| {
            scores[b]
                .partial_cmp(&scores[a])
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.cmp(&b))
        });
        let mut weights = vec![0u64; runs.len()];
        let mut k = 0u64;
        for idx in order {
            let w = u64::from(ctx.profile.weights()[idx]);
            weights[idx] = w * k + w * (w + 1) / 2;
            k += w;
        }
        weights
    }
}

impl MfcrMethod for KemenyWeighted {
    fn name(&self) -> &'static str {
        "Kemeny-Weighted"
    }

    fn solve(&self, ctx: &MfcrContext<'_>) -> Result<MfcrOutcome> {
        let weights = Self::weights(ctx);
        let narrowed: Option<Vec<u32>> = weights.iter().map(|&w| w.try_into().ok()).collect();
        let narrowed = narrowed.ok_or(RankingError::SupportOverflow {
            total_weight: weights.iter().sum(),
        })?;
        let matrix = PrecedenceMatrix::from_weighted_rankings(ctx.profile.rankings(), &narrowed)?;
        let borda = ctx.base_consensus(BaseAggregator::Borda);
        let (incumbent, _) = kemeny_local_search(&matrix, &borda, LocalSearchConfig::default())?;
        let problem = KemenyProblem::unconstrained(matrix);
        let config = solver_config_for_ctx(&self.solver_config, ctx);
        let outcome = mani_solver::solve(&problem, Some(&incumbent), &config);
        Ok(
            MfcrOutcome::evaluate(self.name(), ctx, outcome.ranking, 0, outcome.optimal)?
                .with_nodes(outcome.nodes_explored),
        )
    }
}

/// Pick-Fairest-Perm: return the fairest base ranking unchanged.
#[derive(Debug, Clone, Copy, Default)]
pub struct PickFairestPerm;

impl PickFairestPerm {
    /// Creates a Pick-Fairest-Perm baseline.
    pub fn new() -> Self {
        Self
    }
}

impl MfcrMethod for PickFairestPerm {
    fn name(&self) -> &'static str {
        "Pick-Fairest-Perm"
    }

    fn solve(&self, ctx: &MfcrContext<'_>) -> Result<MfcrOutcome> {
        let idx = fairest_index(ctx);
        let ranking = ctx.profile.rankings()[idx].clone();
        MfcrOutcome::evaluate(self.name(), ctx, ranking, 0, true)
    }
}

/// Correct-Fairest-Perm: apply Make-MR-Fair to the fairest base ranking.
#[derive(Debug, Clone, Copy, Default)]
pub struct CorrectFairestPerm;

impl CorrectFairestPerm {
    /// Creates a Correct-Fairest-Perm baseline.
    pub fn new() -> Self {
        Self
    }
}

impl MfcrMethod for CorrectFairestPerm {
    fn name(&self) -> &'static str {
        "Correct-Fairest-Perm"
    }

    fn solve(&self, ctx: &MfcrContext<'_>) -> Result<MfcrOutcome> {
        let idx = fairest_index(ctx);
        let fairest = ctx.profile.rankings()[idx].clone();
        let correction = make_mr_fair(&fairest, ctx.groups, &ctx.thresholds);
        MfcrOutcome::evaluate(self.name(), ctx, correction.ranking, correction.swaps, true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support::{low_fair_context, TestFixture};
    use mani_fairness::FairnessThresholds;
    use mani_ranking::RankingProfile;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn exact_kemeny_minimises_pd_loss_among_all_methods() {
        let fixture = TestFixture::low_fair(12, 12, 0.6, 61);
        let ctx = low_fair_context(&fixture, 0.1);
        let kemeny = ExactKemeny::new().solve(&ctx).unwrap();
        assert!(kemeny.optimal);
        for method in [
            Box::new(crate::FairBorda::new()) as Box<dyn MfcrMethod>,
            Box::new(crate::FairCopeland::new()),
            Box::new(PickFairestPerm::new()),
            Box::new(CorrectFairestPerm::new()),
        ] {
            let other = method.solve(&ctx).unwrap();
            assert!(
                kemeny.pd_loss <= other.pd_loss + 1e-12,
                "{} has lower PD loss than exact Kemeny",
                other.method
            );
        }
    }

    #[test]
    fn kemeny_weighted_weights_span_one_to_m() {
        let fixture = TestFixture::low_fair(20, 7, 0.4, 67);
        let ctx = low_fair_context(&fixture, 0.1);
        let weights = KemenyWeighted::weights(&ctx);
        assert_eq!(weights.len(), 7);
        let mut sorted = weights.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![1, 2, 3, 4, 5, 6, 7]);
        // the fairest ranking carries the largest weight
        let fairest = fairest_index(&ctx);
        assert_eq!(weights[fairest], 7);
    }

    /// Kemeny-Weighted's weights over a per-copy list: the copies sorted from
    /// least to most fair (ties by index) receive `1..=|R|`.
    fn per_copy_weights(copies: &[Ranking], ctx: &MfcrContext<'_>) -> Vec<u64> {
        let scores: Vec<f64> = copies.iter().map(|r| unfairness(r, ctx)).collect();
        let mut order: Vec<usize> = (0..copies.len()).collect();
        order.sort_by(|&a, &b| scores[b].partial_cmp(&scores[a]).unwrap().then(a.cmp(&b)));
        let mut weights = vec![0u64; copies.len()];
        for (rank, &idx) in order.iter().enumerate() {
            weights[idx] = rank as u64 + 1;
        }
        weights
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn prop_kemeny_weighted_weights_sum_their_copies(runs in 1usize..8, seed in any::<u64>()) {
            let fixture = TestFixture::low_fair(10, 4, 0.3, seed);
            let mut rng = StdRng::seed_from_u64(seed);
            let pool = fixture.profile.rankings();
            let runs: Vec<(Ranking, u32)> = (0..runs)
                .map(|_| (pool[rng.gen_range(0..pool.len())].clone(), rng.gen_range(1..5) as u32))
                .collect();
            let profile = RankingProfile::from_runs(runs).unwrap();
            let ctx = MfcrContext::new(
                &fixture.db,
                &fixture.groups,
                &profile,
                FairnessThresholds::uniform(0.1),
            );
            let per_copy = per_copy_weights(&profile.copies().cloned().collect::<Vec<_>>(), &ctx);
            let mut copies = per_copy.iter();
            let summed: Vec<u64> = profile
                .weights()
                .iter()
                .map(|&w| copies.by_ref().take(w as usize).sum())
                .collect();
            prop_assert_eq!(KemenyWeighted::weights(&ctx), summed);
        }
    }

    #[test]
    fn kemeny_weighted_total_weight_above_the_matrix_capacity_is_an_error() {
        let fixture = TestFixture::low_fair(6, 3, 0.4, 7);
        let heavy = RankingProfile::from_runs([
            (fixture.profile.rankings()[0].clone(), u32::MAX - 1),
            (fixture.profile.rankings()[0].reversed(), 1),
        ])
        .unwrap();
        let ctx = MfcrContext::new(
            &fixture.db,
            &fixture.groups,
            &heavy,
            FairnessThresholds::uniform(0.1),
        );
        assert!(matches!(
            KemenyWeighted::new().solve(&ctx),
            Err(RankingError::SupportOverflow { .. })
        ));
    }

    #[test]
    fn pick_fairest_perm_returns_a_base_ranking() {
        let fixture = TestFixture::low_fair(24, 9, 0.5, 71);
        let ctx = low_fair_context(&fixture, 0.1);
        let outcome = PickFairestPerm::new().solve(&ctx).unwrap();
        assert!(ctx.profile.rankings().contains(&outcome.ranking));
        // it is the fairest of the base rankings
        let picked_violation = unfairness(&outcome.ranking, &ctx);
        for r in ctx.profile.rankings() {
            assert!(picked_violation <= unfairness(r, &ctx) + 1e-12);
        }
    }

    #[test]
    fn correct_fairest_perm_satisfies_criteria_with_higher_loss() {
        let fixture = TestFixture::low_fair(40, 15, 0.6, 73);
        let ctx = low_fair_context(&fixture, 0.1);
        let corrected = CorrectFairestPerm::new().solve(&ctx).unwrap();
        assert!(corrected.criteria.is_satisfied());
        let picked = PickFairestPerm::new().solve(&ctx).unwrap();
        // correcting can only move away from the base rankings
        assert!(corrected.pd_loss >= picked.pd_loss - 1e-12);
    }

    #[test]
    fn unfair_baselines_violate_tight_delta_on_unfair_profiles() {
        let fixture = TestFixture::low_fair(40, 15, 1.2, 79);
        let ctx = low_fair_context(&fixture, 0.05);
        let kemeny = ExactKemeny::with_config(SolverConfig::with_max_nodes(200_000))
            .solve(&ctx)
            .unwrap();
        // A strongly-biased, strongly-agreeing profile forces the unconstrained consensus
        // to reproduce the bias.
        assert!(!kemeny.criteria.is_satisfied());
    }
}
