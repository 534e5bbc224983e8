//! Lower bounds for the branch-and-bound search.
//!
//! Every pair of candidates must appear in one of its two orders in the final ranking, so
//! each unresolved pair `{a, b}` contributes at least `min(W[a][b], W[b][a])` to the
//! objective. The sum of these minima over all pairs not yet fixed by the search prefix is
//! an admissible lower bound on the remaining cost. It is maintained incrementally: when a
//! candidate is placed, all its pairs with still-unplaced candidates become resolved, so
//! their minima are subtracted.

use mani_ranking::{CandidateId, PrecedenceMatrix};

/// Pairwise tables the search precomputes once per problem: the minima of
/// the incremental lower bound, and a dense copy of the supports, whose rows
/// the search reads as it places candidates.
#[derive(Debug, Clone)]
pub struct PairwiseMinima {
    n: usize,
    /// `min(W[a][b], W[b][a])` stored row-major (the table is symmetric).
    minima: Vec<u64>,
    /// `W[b][a]` (the support for `a` above `b`) at `a * n + b`: placing `a`
    /// takes it off the cost of placing each unplaced `b` next.
    support: Vec<u64>,
    /// For each candidate, the sum of minima against every other candidate.
    row_sums: Vec<u64>,
    /// Sum of minima over all unordered pairs.
    total: u64,
}

impl PairwiseMinima {
    /// Computes the tables from the matrix's triangle rows. O(n²).
    pub fn new(matrix: &PrecedenceMatrix) -> Self {
        let n = matrix.num_candidates();
        let weight = matrix.total_weight();
        let mut minima = vec![0u64; n * n];
        let mut support = vec![0u64; n * n];
        let mut row_sums = vec![0u64; n];
        let mut total = 0u64;
        for a in 0..n {
            for (b, &s) in (a + 1..n).zip(matrix.triangle_row(CandidateId(a as u32))) {
                let (s, against) = (s as u64, (weight - s) as u64);
                let m = s.min(against);
                (support[a * n + b], support[b * n + a]) = (s, against);
                (minima[a * n + b], minima[b * n + a]) = (m, m);
                row_sums[a] += m;
                row_sums[b] += m;
                total += m;
            }
        }
        Self {
            n,
            minima,
            support,
            row_sums,
            total,
        }
    }

    /// `min(W[a][b], W[b][a])` for one pair.
    pub fn pair_min(&self, a: CandidateId, b: CandidateId) -> u64 {
        self.minima[a.index() * self.n + b.index()]
    }

    /// `pair_min(a, b)` for every `b`, indexed by `b`.
    pub(crate) fn minima_row(&self, a: CandidateId) -> &[u64] {
        &self.minima[a.index() * self.n..][..self.n]
    }

    /// `W[b][a]`, the support for `a` above `b`, for every `b`, indexed by
    /// `b` (zero at `b = a`).
    pub(crate) fn support_row(&self, a: CandidateId) -> &[u64] {
        &self.support[a.index() * self.n..][..self.n]
    }

    /// Sum of minima of `a` against every other candidate.
    pub fn row_sum(&self, a: CandidateId) -> u64 {
        self.row_sums[a.index()]
    }

    /// Sum of minima over all unordered pairs (lower bound at the search root).
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Number of candidates.
    pub fn num_candidates(&self) -> usize {
        self.n
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mani_ranking::{Ranking, RankingProfile};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn matrix(rankings: Vec<Ranking>) -> PrecedenceMatrix {
        RankingProfile::new(rankings).unwrap().precedence_matrix()
    }

    #[test]
    fn unanimous_profile_has_zero_total() {
        let m = matrix(vec![Ranking::identity(5); 3]);
        let minima = PairwiseMinima::new(&m);
        assert_eq!(minima.total(), 0);
        assert_eq!(minima.row_sum(CandidateId(0)), 0);
    }

    #[test]
    fn split_profile_has_positive_minima() {
        let r = Ranking::identity(3);
        let m = matrix(vec![r.clone(), r.reversed()]);
        let minima = PairwiseMinima::new(&m);
        // Every pair has one ranking on each side: min = 1 per pair, 3 pairs.
        assert_eq!(minima.total(), 3);
        assert_eq!(minima.pair_min(CandidateId(0), CandidateId(1)), 1);
        assert_eq!(minima.row_sum(CandidateId(1)), 2);
        assert_eq!(minima.num_candidates(), 3);
    }

    proptest! {
        #[test]
        fn prop_total_is_admissible_lower_bound(n in 2usize..10, m_count in 1usize..6, seed in any::<u64>()) {
            let mut rng = StdRng::seed_from_u64(seed);
            let rankings: Vec<Ranking> = (0..m_count).map(|_| Ranking::random(n, &mut rng)).collect();
            let mat = matrix(rankings);
            let minima = PairwiseMinima::new(&mat);
            // The bound must not exceed the cost of any ranking.
            for _ in 0..5 {
                let candidate = Ranking::random(n, &mut rng);
                prop_assert!(minima.total() <= mat.total_disagreements(&candidate).unwrap());
            }
        }

        #[test]
        fn prop_row_sums_consistent_with_pair_minima(n in 2usize..8, seed in any::<u64>()) {
            let mut rng = StdRng::seed_from_u64(seed);
            let rankings: Vec<Ranking> = (0..3).map(|_| Ranking::random(n, &mut rng)).collect();
            let mat = matrix(rankings);
            let minima = PairwiseMinima::new(&mat);
            for a in 0..n as u32 {
                let expected: u64 = (0..n as u32)
                    .filter(|&b| b != a)
                    .map(|b| minima.pair_min(CandidateId(a), CandidateId(b)))
                    .sum();
                prop_assert_eq!(minima.row_sum(CandidateId(a)), expected);
            }
            let total_from_rows: u64 = (0..n as u32).map(|a| minima.row_sum(CandidateId(a))).sum();
            prop_assert_eq!(total_from_rows, 2 * minima.total());
        }
    }
}
