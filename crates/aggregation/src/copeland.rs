//! Copeland aggregation (Copeland 1951): order candidates by pairwise contests won.
//!
//! A candidate "wins" a pairwise contest against another candidate when at least as many
//! base rankings prefer it (ties count as a win for both sides, following the paper's
//! Fair-Copeland description). Copeland is a Condorcet method and the fastest pairwise
//! consensus generator used in the paper.

use mani_ranking::{Parallelism, PrecedenceMatrix, Ranking, RankingProfile, Result};

use crate::borda::ranking_from_points;
use crate::traits::ConsensusMethod;

/// The Copeland consensus method.
#[derive(Debug, Clone, Copy, Default)]
pub struct CopelandAggregator;

impl CopelandAggregator {
    /// Creates a Copeland aggregator.
    pub fn new() -> Self {
        Self
    }

    /// Computes the Copeland consensus from a precomputed precedence matrix.
    pub fn consensus_from_matrix(&self, matrix: &PrecedenceMatrix) -> Ranking {
        let wins: Vec<u64> = matrix.copeland_wins().into_iter().map(u64::from).collect();
        ranking_from_points(&wins)
    }

    /// [`CopelandAggregator::consensus_from_matrix`] under a
    /// kernel-parallelism budget, which it ignores: the O(n²) win-count pass
    /// runs serially at every thread count, because sharding it did not pay
    /// off at n = 1000–2000. The parameter keeps the signature uniform with
    /// the other pairwise aggregators.
    pub fn consensus_from_matrix_with(
        &self,
        matrix: &PrecedenceMatrix,
        _parallelism: &Parallelism,
    ) -> Ranking {
        self.consensus_from_matrix(matrix)
    }

    /// Computes the Copeland consensus for a profile.
    pub fn consensus(&self, profile: &RankingProfile) -> Ranking {
        self.consensus_from_matrix(&profile.precedence_matrix())
    }
}

impl ConsensusMethod for CopelandAggregator {
    fn name(&self) -> &'static str {
        "Copeland"
    }

    fn aggregate(&self, profile: &RankingProfile) -> Result<Ranking> {
        Ok(self.consensus(profile))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mani_ranking::CandidateId;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn unanimous_profile_returns_the_common_ranking() {
        let r = Ranking::from_ids([1, 3, 0, 2]).unwrap();
        let profile = RankingProfile::new(vec![r.clone(); 3]).unwrap();
        assert_eq!(CopelandAggregator::new().consensus(&profile), r);
    }

    #[test]
    fn condorcet_winner_is_ranked_first() {
        // Candidate 2 beats every other candidate in a majority of rankings.
        let profile = RankingProfile::new(vec![
            Ranking::from_ids([2, 0, 1, 3]).unwrap(),
            Ranking::from_ids([2, 1, 3, 0]).unwrap(),
            Ranking::from_ids([0, 2, 1, 3]).unwrap(),
        ])
        .unwrap();
        let consensus = CopelandAggregator::new().consensus(&profile);
        assert_eq!(consensus.candidate_at(0), CandidateId(2));
    }

    #[test]
    fn matrix_and_profile_entry_points_agree() {
        let mut rng = StdRng::seed_from_u64(17);
        let rankings: Vec<Ranking> = (0..5).map(|_| Ranking::random(7, &mut rng)).collect();
        let profile = RankingProfile::new(rankings).unwrap();
        let agg = CopelandAggregator::new();
        assert_eq!(
            agg.consensus(&profile),
            agg.consensus_from_matrix(&profile.precedence_matrix())
        );
        assert_eq!(agg.name(), "Copeland");
    }

    #[test]
    fn parallel_scoring_matches_serial_consensus() {
        let mut rng = StdRng::seed_from_u64(31);
        let rankings: Vec<Ranking> = (0..6).map(|_| Ranking::random(9, &mut rng)).collect();
        let matrix = RankingProfile::new(rankings).unwrap().precedence_matrix();
        let agg = CopelandAggregator::new();
        for threads in [1usize, 2, 8] {
            let par = Parallelism::new(threads);
            assert_eq!(
                agg.consensus_from_matrix_with(&matrix, &par),
                agg.consensus_from_matrix(&matrix),
                "threads = {threads}"
            );
        }
    }

    proptest! {
        #[test]
        fn prop_copeland_is_valid_permutation(n in 1usize..25, m in 1usize..8, seed in any::<u64>()) {
            let mut rng = StdRng::seed_from_u64(seed);
            let rankings: Vec<Ranking> = (0..m).map(|_| Ranking::random(n, &mut rng)).collect();
            let profile = RankingProfile::new(rankings).unwrap();
            let consensus = CopelandAggregator::new().consensus(&profile);
            prop_assert!(consensus.check_invariants().is_ok());
        }

        #[test]
        fn prop_unanimous_pairwise_preferences_are_respected(n in 2usize..15, seed in any::<u64>()) {
            // When all base rankings are identical, Copeland must reproduce that ranking's
            // pairwise order for every pair (it is a Condorcet method).
            let mut rng = StdRng::seed_from_u64(seed);
            let base = Ranking::random(n, &mut rng);
            let profile = RankingProfile::new(vec![base.clone(), base.clone(), base.clone()]).unwrap();
            let consensus = CopelandAggregator::new().consensus(&profile);
            for i in 0..n as u32 {
                for j in 0..n as u32 {
                    if i == j { continue; }
                    let (a, b) = (CandidateId(i), CandidateId(j));
                    prop_assert_eq!(consensus.prefers(a, b), base.prefers(a, b));
                }
            }
        }
    }
}
