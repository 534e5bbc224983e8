//! Cross-crate property tests on the MFCR pipeline's key invariants.

use mani_rank::prelude::*;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn workload(
    n: usize,
    m: usize,
    theta: f64,
    seed: u64,
) -> (CandidateDb, GroupIndex, RankingProfile) {
    let db = mani_rank::datagen::binary_population(n.max(8), 0.5, 0.5, seed);
    let groups = GroupIndex::new(&db);
    let modal = ModalRankingBuilder::new(&db).build(&FairnessTarget::low_fair(2));
    let profile = MallowsModel::new(modal, theta).sample_profile(m.max(1), seed ^ 0x1234);
    (db, groups, profile)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Make-MR-Fair never invalidates the permutation and never worsens the worst parity
    /// violation it was asked to fix.
    #[test]
    fn correction_never_increases_the_max_violation(
        n in 8usize..28,
        seed in any::<u64>(),
        delta in 0.1f64..0.5,
    ) {
        let (db, groups, _) = workload(n, 1, 0.5, seed);
        let mut rng = StdRng::seed_from_u64(seed);
        let ranking = Ranking::random(db.len(), &mut rng);
        let thresholds = FairnessThresholds::uniform(delta);
        let before = ManiRankCriteria::evaluate(&ranking, &groups, &thresholds);
        let report = make_mr_fair(&ranking, &groups, &thresholds);
        let after = ManiRankCriteria::evaluate(&report.ranking, &groups, &thresholds);
        prop_assert!(report.ranking.check_invariants().is_ok());
        let before_violation = before.parity().max_violation();
        let after_violation = after.parity().max_violation();
        prop_assert!(after_violation <= before_violation + 1e-9 || after.is_satisfied());
    }

    /// Every polynomial-time MFCR method returns a valid ranking whose PD loss is within
    /// [0, 1] and no smaller than the Kemeny-optimal loss of the profile (checked against
    /// the unconstrained exact solver on small instances).
    #[test]
    fn fair_methods_never_beat_the_unconstrained_optimum(
        n in 8usize..14,
        m in 2usize..8,
        seed in any::<u64>(),
    ) {
        let (db, groups, profile) = workload(n, m, 0.6, seed);
        let unfair_ctx = MfcrContext::new(&db, &groups, &profile, FairnessThresholds::unconstrained());
        let optimum = ExactKemeny::new().solve(&unfair_ctx).unwrap();
        prop_assume!(optimum.optimal);
        let ctx = MfcrContext::new(&db, &groups, &profile, FairnessThresholds::uniform(0.25));
        for kind in [MethodKind::FairBorda, MethodKind::FairCopeland, MethodKind::FairSchulze, MethodKind::CorrectFairestPerm] {
            let outcome = kind.instantiate().solve(&ctx).unwrap();
            prop_assert!((0.0..=1.0).contains(&outcome.pd_loss));
            prop_assert!(outcome.pd_loss >= optimum.pd_loss - 1e-9, "{}", kind.name());
        }
    }

    /// The PD loss reported by an outcome always matches an independent recomputation.
    #[test]
    fn reported_pd_loss_matches_recomputation(n in 8usize..20, m in 2usize..6, seed in any::<u64>()) {
        let (db, groups, profile) = workload(n, m, 0.4, seed);
        let ctx = MfcrContext::new(&db, &groups, &profile, FairnessThresholds::uniform(0.2));
        let outcome = FairCopeland::new().solve(&ctx).unwrap();
        let recomputed = profile.pairwise_disagreement_loss(&outcome.ranking).unwrap();
        prop_assert!((outcome.pd_loss - recomputed).abs() < 1e-12);
    }

    /// Mallows profiles concentrate around their modal ranking: the average normalised
    /// Kendall distance decreases as theta increases.
    #[test]
    fn mallows_concentration_is_monotone_in_theta(seed in any::<u64>()) {
        let db = mani_rank::datagen::binary_population(20, 0.5, 0.5, seed);
        let modal = ModalRankingBuilder::new(&db).build(&FairnessTarget::low_fair(2));
        let mean_distance = |theta: f64| -> f64 {
            let profile = MallowsModel::new(modal.clone(), theta).sample_profile(30, seed ^ 0x77);
            profile
                .copies()
                .map(|r| mani_rank::ranking::normalized_kendall_tau(r, &modal).unwrap())
                .sum::<f64>()
                / 30.0
        };
        prop_assert!(mean_distance(0.1) + 1e-9 >= mean_distance(1.5));
    }
}
