//! Price of Fairness (Equation 13 of the paper).
//!
//! `PoF = PD_loss(R, π_C*) − PD_loss(R, π_C)`: the increase in pairwise disagreement loss
//! paid by the fair consensus ranking `π_C*` relative to the fairness-unaware consensus
//! `π_C`. It is non-negative whenever the unfair consensus optimises PD loss.

use mani_ranking::{Ranking, RankingProfile, Result};

/// Price of Fairness between a fair consensus and a fairness-unaware consensus.
pub fn price_of_fairness(
    profile: &RankingProfile,
    fair_consensus: &Ranking,
    unfair_consensus: &Ranking,
) -> Result<f64> {
    let fair = profile.pairwise_disagreement_loss(fair_consensus)?;
    let unfair = profile.pairwise_disagreement_loss(unfair_consensus)?;
    Ok(fair - unfair)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn identical_rankings_have_zero_pof() {
        let r = Ranking::identity(5);
        let profile = RankingProfile::new(vec![r.clone(), r.clone()]).unwrap();
        assert_eq!(price_of_fairness(&profile, &r, &r).unwrap(), 0.0);
    }

    #[test]
    fn pof_positive_when_fair_ranking_disagrees_more() {
        let base = Ranking::identity(6);
        let profile = RankingProfile::new(vec![base.clone(); 3]).unwrap();
        // "fair" ranking = reversal (maximally distant), "unfair" = the base itself.
        let pof = price_of_fairness(&profile, &base.reversed(), &base).unwrap();
        assert!((pof - 1.0).abs() < 1e-12);
    }

    #[test]
    fn pof_is_antisymmetric_in_its_arguments() {
        let mut rng = StdRng::seed_from_u64(1);
        let rankings: Vec<Ranking> = (0..4).map(|_| Ranking::random(7, &mut rng)).collect();
        let profile = RankingProfile::new(rankings).unwrap();
        let a = Ranking::random(7, &mut rng);
        let b = Ranking::random(7, &mut rng);
        let ab = price_of_fairness(&profile, &a, &b).unwrap();
        let ba = price_of_fairness(&profile, &b, &a).unwrap();
        assert!((ab + ba).abs() < 1e-12);
    }

    proptest! {
        #[test]
        fn prop_pof_bounded_by_unit_interval(n in 2usize..10, m in 1usize..5, seed in any::<u64>()) {
            let mut rng = StdRng::seed_from_u64(seed);
            let rankings: Vec<Ranking> = (0..m).map(|_| Ranking::random(n, &mut rng)).collect();
            let profile = RankingProfile::new(rankings).unwrap();
            let fair = Ranking::random(n, &mut rng);
            let unfair = Ranking::random(n, &mut rng);
            let pof = price_of_fairness(&profile, &fair, &unfair).unwrap();
            prop_assert!((-1.0..=1.0).contains(&pof));
        }
    }
}
