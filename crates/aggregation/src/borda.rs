//! Borda count aggregation (Borda 1784), the fastest Kemeny approximation used by the paper.
//!
//! Each candidate receives, from every base ranking, one point per candidate ranked below
//! it; candidates are ordered by descending total points. Ties are broken by candidate id.

use mani_ranking::{Ranking, RankingProfile, Result};

use crate::scoring::borda_points;
use crate::traits::ConsensusMethod;

/// The Borda count consensus method.
#[derive(Debug, Clone, Copy, Default)]
pub struct BordaAggregator;

impl BordaAggregator {
    /// Creates a Borda aggregator.
    pub fn new() -> Self {
        Self
    }

    /// Computes the Borda consensus for a profile.
    pub fn consensus(&self, profile: &RankingProfile) -> Ranking {
        let points = borda_points(profile);
        ranking_from_points(&points)
    }
}

/// Orders candidates by descending points, breaking ties by candidate id (ascending).
pub(crate) fn ranking_from_points(points: &[u64]) -> Ranking {
    let mut ids: Vec<u32> = (0..points.len() as u32).collect();
    ids.sort_by(|&a, &b| points[b as usize].cmp(&points[a as usize]).then(a.cmp(&b)));
    Ranking::from_ids(ids).expect("sorted ids form a permutation")
}

impl ConsensusMethod for BordaAggregator {
    fn name(&self) -> &'static str {
        "Borda"
    }

    fn aggregate(&self, profile: &RankingProfile) -> Result<Ranking> {
        Ok(self.consensus(profile))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn unanimous_profile_returns_the_common_ranking() {
        let r = Ranking::from_ids([3, 0, 2, 1]).unwrap();
        let profile = RankingProfile::new(vec![r.clone(); 5]).unwrap();
        assert_eq!(BordaAggregator::new().consensus(&profile), r);
    }

    #[test]
    fn majority_preference_dominates() {
        // Two rankings prefer 0 over 1, one prefers 1 over 0.
        let profile = RankingProfile::new(vec![
            Ranking::from_ids([0, 1, 2]).unwrap(),
            Ranking::from_ids([0, 1, 2]).unwrap(),
            Ranking::from_ids([1, 0, 2]).unwrap(),
        ])
        .unwrap();
        let consensus = BordaAggregator::new().consensus(&profile);
        assert!(consensus.prefers(0.into(), 1.into()));
        assert!(consensus.prefers(1.into(), 2.into()));
    }

    #[test]
    fn heavy_run_dominates_consensus() {
        let favourite = Ranking::from_ids([2, 1, 0]).unwrap();
        let other = favourite.reversed();
        // As copies, the two of `other` win; a run of 10 favourites flips it.
        let profile = RankingProfile::from_runs([(favourite, 10), (other, 2)]).unwrap();
        let consensus = BordaAggregator::new().consensus(&profile);
        assert_eq!(consensus.candidate_at(0), mani_ranking::CandidateId(2));
    }

    #[test]
    fn tie_broken_by_candidate_id() {
        // Symmetric profile: candidates 0 and 1 get identical points.
        let profile = RankingProfile::new(vec![
            Ranking::from_ids([0, 1]).unwrap(),
            Ranking::from_ids([1, 0]).unwrap(),
        ])
        .unwrap();
        let consensus = BordaAggregator::new().consensus(&profile);
        assert_eq!(consensus.candidate_at(0).0, 0);
    }

    #[test]
    fn trait_impl_matches_direct_call() {
        let mut rng = StdRng::seed_from_u64(9);
        let rankings: Vec<Ranking> = (0..4).map(|_| Ranking::random(6, &mut rng)).collect();
        let profile = RankingProfile::new(rankings).unwrap();
        let agg = BordaAggregator::new();
        assert_eq!(agg.aggregate(&profile).unwrap(), agg.consensus(&profile));
        assert_eq!(agg.name(), "Borda");
    }

    proptest! {
        #[test]
        fn prop_borda_is_valid_permutation(n in 1usize..25, m in 1usize..8, seed in any::<u64>()) {
            let mut rng = StdRng::seed_from_u64(seed);
            let rankings: Vec<Ranking> = (0..m).map(|_| Ranking::random(n, &mut rng)).collect();
            let profile = RankingProfile::new(rankings).unwrap();
            let consensus = BordaAggregator::new().consensus(&profile);
            prop_assert!(consensus.check_invariants().is_ok());
            prop_assert_eq!(consensus.len(), n);
        }

        #[test]
        fn prop_borda_no_worse_than_worst_base_ranking(n in 2usize..12, m in 1usize..6, seed in any::<u64>()) {
            // Sanity: the Borda consensus should represent the profile at least as well as the
            // *worst* base ranking does (a very weak but always-true statement).
            let mut rng = StdRng::seed_from_u64(seed);
            let rankings: Vec<Ranking> = (0..m).map(|_| Ranking::random(n, &mut rng)).collect();
            let profile = RankingProfile::new(rankings.clone()).unwrap();
            let consensus = BordaAggregator::new().consensus(&profile);
            let consensus_cost = profile.total_kendall_distance(&consensus).unwrap();
            let worst_base_cost = rankings
                .iter()
                .map(|r| profile.total_kendall_distance(r).unwrap())
                .max()
                .unwrap();
            let max_cost = mani_ranking::total_pairs(n) * m as u64;
            prop_assert!(consensus_cost <= max_cost);
            prop_assert!(worst_base_cost <= max_cost);
        }
    }
}
