//! Shared scoring helpers over profiles and precedence matrices.

use mani_ranking::{PrecedenceMatrix, RankingProfile};

/// Borda points per candidate: the total number of candidates ranked below it, summed over
/// all base rankings, each run counted `weight` times. O(runs · n).
pub fn borda_points(profile: &RankingProfile) -> Vec<u64> {
    let n = profile.num_candidates();
    let mut points = vec![0u64; n];
    for (ranking, weight) in profile.runs() {
        for (pos, cand) in ranking.iter().enumerate() {
            points[cand.index()] += (n - 1 - pos) as u64 * u64::from(weight);
        }
    }
    points
}

/// Copeland wins per candidate (ties count for both), straight from the precedence matrix.
pub fn copeland_wins(matrix: &PrecedenceMatrix) -> Vec<u32> {
    matrix.copeland_wins()
}

#[cfg(test)]
mod tests {
    use super::*;
    use mani_ranking::{Ranking, RankingProfile};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn borda_points_single_ranking() {
        let profile = RankingProfile::new(vec![Ranking::identity(4)]).unwrap();
        // top candidate gets n-1 = 3 points, next 2, etc.
        assert_eq!(borda_points(&profile), vec![3, 2, 1, 0]);
    }

    #[test]
    fn borda_points_sum_is_invariant() {
        let profile = RankingProfile::new(vec![
            Ranking::from_ids([2, 0, 1, 3]).unwrap(),
            Ranking::from_ids([3, 1, 0, 2]).unwrap(),
        ])
        .unwrap();
        let total: u64 = borda_points(&profile).iter().sum();
        // each ranking distributes 0+1+2+3 = 6 points
        assert_eq!(total, 12);
    }

    proptest! {
        #[test]
        fn prop_borda_points_of_runs_match_their_copies(
            n in 1usize..10,
            m in 1usize..8,
            seed in any::<u64>(),
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let pool: Vec<Ranking> = (0..3).map(|_| Ranking::random(n, &mut rng)).collect();
            let runs: Vec<(Ranking, u32)> = (0..m)
                .map(|_| (pool[rng.gen_range(0..3)].clone(), rng.gen_range(1..5) as u32))
                .collect();
            let mut per_copy = vec![0u64; n];
            for (ranking, weight) in &runs {
                for _ in 0..*weight {
                    for (pos, cand) in ranking.iter().enumerate() {
                        per_copy[cand.index()] += (n - 1 - pos) as u64;
                    }
                }
            }
            let profile = RankingProfile::from_runs(runs).unwrap();
            prop_assert_eq!(borda_points(&profile), per_copy);
        }
    }

    #[test]
    fn weighted_borda_scales_contributions() {
        let r1 = Ranking::identity(3);
        let r2 = r1.reversed();
        let profile = RankingProfile::from_runs([(r1, 5), (r2, 1)]).unwrap();
        // candidate 0: 5*2 + 1*0 = 10; candidate 1: 5*1 + 1*1 = 6; candidate 2: 0 + 2 = 2
        assert_eq!(borda_points(&profile), vec![10, 6, 2]);
    }

    #[test]
    fn copeland_wins_delegates_to_matrix() {
        let profile = RankingProfile::new(vec![Ranking::identity(3)]).unwrap();
        let wins = copeland_wins(&profile.precedence_matrix());
        assert_eq!(wins, vec![2, 1, 0]);
    }
}
