//! Shared scoring helpers over profiles and precedence matrices.

use mani_ranking::{PrecedenceMatrix, RankingProfile};

/// Borda points per candidate: the total number of candidates ranked below it, summed over
/// all base rankings. O(|R| · n).
pub fn borda_points(profile: &RankingProfile) -> Vec<u64> {
    let n = profile.num_candidates();
    let mut points = vec![0u64; n];
    for ranking in profile.rankings() {
        for (pos, cand) in ranking.iter().enumerate() {
            points[cand.index()] += (n - 1 - pos) as u64;
        }
    }
    points
}

/// Borda points per candidate for a weighted profile: ranking `i` contributes its points
/// `weights[i]` times.
pub fn weighted_borda_points(profile: &RankingProfile, weights: &[u64]) -> Vec<u64> {
    let n = profile.num_candidates();
    let mut points = vec![0u64; n];
    for (ranking, &w) in profile.rankings().iter().zip(weights) {
        for (pos, cand) in ranking.iter().enumerate() {
            points[cand.index()] += (n - 1 - pos) as u64 * w;
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

    #[test]
    fn weighted_borda_scales_contributions() {
        let r1 = Ranking::identity(3);
        let r2 = r1.reversed();
        let profile = RankingProfile::new(vec![r1, r2]).unwrap();
        let unweighted = weighted_borda_points(&profile, &[1, 1]);
        assert_eq!(unweighted, borda_points(&profile));
        let weighted = weighted_borda_points(&profile, &[5, 1]);
        // candidate 0: 5*2 + 1*0 = 10; candidate 1: 5*1 + 1*1 = 6; candidate 2: 0 + 2 = 2
        assert_eq!(weighted, vec![10, 6, 2]);
    }

    #[test]
    fn copeland_wins_delegates_to_matrix() {
        let profile = RankingProfile::new(vec![Ranking::identity(3)]).unwrap();
        let wins = copeland_wins(&profile.precedence_matrix());
        assert_eq!(wins, vec![2, 1, 0]);
    }
}
