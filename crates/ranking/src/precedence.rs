//! Precedence matrix `W` over a set of base rankings (Definition 11 in the paper).
//!
//! `W[a][b]` counts how many base rankings place candidate `b` *above* candidate `a`
//! (i.e. `b ≺ a` in the paper's notation: entries represent pairwise disagreements with
//! the order `a ≺ b`). Every pairwise consensus method in the workspace (Kemeny,
//! Copeland, Schulze and their fair variants) operates on this matrix, so it is computed
//! once per profile and shared.

use serde::{Deserialize, Serialize};

use crate::candidate::CandidateId;
use crate::error::RankingError;
use crate::parallel::{record_ranking_shard_tasks, run_parts, shard_ranges, Parallelism};
use crate::ranking::Ranking;
use crate::Result;

/// Dense `n × n` precedence matrix.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct PrecedenceMatrix {
    n: usize,
    num_rankings: usize,
    /// Row-major storage; entry `(a, b)` at `a * n + b`.
    counts: Vec<u32>,
}

/// Validates that a profile is non-empty and square, returning `n`.
fn validated_len(rankings: &[Ranking]) -> Result<usize> {
    let Some(first) = rankings.first() else {
        return Err(RankingError::EmptyProfile);
    };
    let n = first.len();
    for r in rankings {
        if r.len() != n {
            return Err(RankingError::LengthMismatch {
                left: n,
                right: r.len(),
            });
        }
    }
    Ok(n)
}

/// Adds one ranking's pairwise precedences into `counts` with weight `w`.
///
/// For every pair (above, below) in the ranking, candidate `above` precedes
/// `below`, which is a disagreement against any consensus placing below ≺
/// above: increment `W[below][above]`. The `below` row is hoisted out of the
/// inner loop so each ranking touches `counts` one row slice at a time.
fn accumulate_ranking(counts: &mut [u32], n: usize, ranking: &Ranking, w: u32) {
    let order = ranking.as_slice();
    for (j, below) in order.iter().enumerate().skip(1) {
        let row = &mut counts[below.index() * n..][..n];
        for above in &order[..j] {
            row[above.index()] += w;
        }
    }
}

/// Builds the counts buffer for a shard of (ranking, weight) pairs.
fn build_shard(rankings: &[Ranking], weights: Option<&[u32]>, n: usize) -> Vec<u32> {
    let mut counts = vec![0u32; n * n];
    match weights {
        None => {
            for ranking in rankings {
                accumulate_ranking(&mut counts, n, ranking, 1);
            }
        }
        Some(weights) => {
            for (ranking, &w) in rankings.iter().zip(weights) {
                accumulate_ranking(&mut counts, n, ranking, w);
            }
        }
    }
    counts
}

/// `max(n, |R|)` below which a build stays serial: it finishes in about the
/// time threads take to spawn and join.
const PARALLEL_BUILD_MIN_SIZE: usize = 48;

/// Fewest rankings a build shard may get: with fewer, summing the shards'
/// `n²` partial matrices costs more than the shard's share of the build.
const RANKINGS_PER_SHARD: usize = 4;

/// Shard count for a build of `rankings` rankings over `n` candidates: one
/// (serial) below [`PARALLEL_BUILD_MIN_SIZE`], else up to the thread budget
/// with at least [`RANKINGS_PER_SHARD`] rankings per shard.
fn build_shards(n: usize, rankings: usize, parallelism: &Parallelism) -> usize {
    if n.max(rankings) < PARALLEL_BUILD_MIN_SIZE {
        1
    } else {
        parallelism
            .max_threads()
            .min(rankings / RANKINGS_PER_SHARD)
            .max(1)
    }
}

/// Builds counts across `shards` ranking shards: each shard accumulates a
/// disjoint slice of rankings into a private full matrix, and the partials
/// are summed element-wise. Precedence counts are additive per ranking and
/// integer addition is order-insensitive, so every shard count is
/// bit-identical to the serial build.
fn build_sharded(
    rankings: &[Ranking],
    weights: Option<&[u32]>,
    n: usize,
    shards: usize,
) -> Vec<u32> {
    if shards <= 1 {
        return build_shard(rankings, weights, n);
    }
    let parts: Vec<_> = shard_ranges(rankings.len(), shards)
        .into_iter()
        .map(|range| {
            let shard = &rankings[range.clone()];
            let shard_weights = weights.map(|w| &w[range]);
            move || build_shard(shard, shard_weights, n)
        })
        .collect();
    record_ranking_shard_tasks(parts.len() as u64);
    let mut partials = run_parts(shards, parts).into_iter();
    let mut counts = partials.next().expect("at least one shard");
    for partial in partials {
        for (total, part) in counts.iter_mut().zip(&partial) {
            *total += part;
        }
    }
    counts
}

/// Every support cell is bounded above by the total ranking weight, so one
/// `O(|R|)` bound check at build time guarantees no `u32` cell can wrap
/// during accumulation (and that downstream `u32` path-strength cells in the
/// Schulze kernel cannot overflow either).
fn check_support_capacity(total_weight: u64) -> Result<()> {
    if total_weight > u32::MAX as u64 {
        return Err(RankingError::SupportOverflow { total_weight });
    }
    Ok(())
}

impl PrecedenceMatrix {
    /// Builds the precedence matrix from a set of base rankings.
    ///
    /// All rankings must cover the same `n` candidates. Cost is `O(|R| · n²)`.
    pub fn from_rankings(rankings: &[Ranking]) -> Result<Self> {
        Self::from_rankings_parallel(rankings, &Parallelism::serial())
    }

    /// Builds the precedence matrix with up to [`Parallelism::max_threads`]
    /// shards building partial matrices that are summed — bit-identical to
    /// [`PrecedenceMatrix::from_rankings`] for every shard count.
    ///
    /// The size gate uses the larger of `n` and `|R|`: this kernel shards by
    /// rankings, so a short-but-wide profile (small `n`, huge `|R|`) is
    /// exactly as parallelisable as a tall one. A profile of fewer than four
    /// rankings per thread gets fewer shards, down to a serial build.
    pub fn from_rankings_parallel(rankings: &[Ranking], parallelism: &Parallelism) -> Result<Self> {
        let n = validated_len(rankings)?;
        check_support_capacity(rankings.len() as u64)?;
        let shards = build_shards(n, rankings.len(), parallelism);
        let counts = build_sharded(rankings, None, n, shards);
        Ok(Self {
            n,
            num_rankings: rankings.len(),
            counts,
        })
    }

    /// Builds a matrix with weighted rankings: ranking `i` contributes `weights[i]` votes.
    pub fn from_weighted_rankings(rankings: &[Ranking], weights: &[u32]) -> Result<Self> {
        Self::from_weighted_rankings_parallel(rankings, weights, &Parallelism::serial())
    }

    /// Weighted variant of [`PrecedenceMatrix::from_rankings_parallel`]:
    /// shards carry their weight slices, partial matrices are summed.
    pub fn from_weighted_rankings_parallel(
        rankings: &[Ranking],
        weights: &[u32],
        parallelism: &Parallelism,
    ) -> Result<Self> {
        if rankings.len() != weights.len() {
            return Err(RankingError::LengthMismatch {
                left: rankings.len(),
                right: weights.len(),
            });
        }
        let n = validated_len(rankings)?;
        let total_weight: u64 = weights.iter().map(|&w| w as u64).sum();
        check_support_capacity(total_weight)?;
        let shards = build_shards(n, rankings.len(), parallelism);
        let counts = build_sharded(rankings, Some(weights), n, shards);
        Ok(Self {
            n,
            num_rankings: total_weight as usize,
            counts,
        })
    }

    /// Folds one weighted ranking into the matrix in `O(n²)` — the
    /// incremental twin of rebuilding with the ranking appended.
    ///
    /// Precedence counts are order-insensitive integer sums, so appending is
    /// bit-identical to a full [`PrecedenceMatrix::from_weighted_rankings`]
    /// rebuild over the extended profile. The total-weight capacity check is
    /// re-applied before any cell is touched, so a failed append leaves the
    /// matrix unchanged.
    pub fn apply_append(&mut self, ranking: &Ranking, weight: u32) -> Result<()> {
        if ranking.len() != self.n {
            return Err(RankingError::LengthMismatch {
                left: self.n,
                right: ranking.len(),
            });
        }
        check_support_capacity(self.num_rankings as u64 + weight as u64)?;
        accumulate_ranking(&mut self.counts, self.n, ranking, weight);
        self.num_rankings += weight as usize;
        Ok(())
    }

    /// Removes one weighted ranking from the matrix in `O(n²)` — the inverse
    /// of [`PrecedenceMatrix::apply_append`].
    ///
    /// Every pairwise support cell the ranking touches is verified to hold at
    /// least `weight` *before* any subtraction, so retracting a ranking the
    /// matrix does not contain fails with
    /// [`RankingError::RetractUnderflow`] and leaves the matrix unchanged.
    /// Retracting the last ranking is allowed and yields the empty (all-zero)
    /// matrix.
    pub fn apply_retract(&mut self, ranking: &Ranking, weight: u32) -> Result<()> {
        if ranking.len() != self.n {
            return Err(RankingError::LengthMismatch {
                left: self.n,
                right: ranking.len(),
            });
        }
        if (self.num_rankings as u64) < weight as u64 {
            return Err(RankingError::RetractUnderflow { weight });
        }
        // Check pass: each (above, below) pair occurs exactly once per
        // ranking, so cell-wise `>= weight` here guarantees the subtraction
        // pass below cannot underflow.
        let order = ranking.as_slice();
        for (j, below) in order.iter().enumerate().skip(1) {
            let row = &self.counts[below.index() * self.n..][..self.n];
            for above in &order[..j] {
                if row[above.index()] < weight {
                    return Err(RankingError::RetractUnderflow { weight });
                }
            }
        }
        for (j, below) in order.iter().enumerate().skip(1) {
            let row = &mut self.counts[below.index() * self.n..][..self.n];
            for above in &order[..j] {
                row[above.index()] -= weight;
            }
        }
        self.num_rankings -= weight as usize;
        Ok(())
    }

    /// Number of candidates.
    pub fn num_candidates(&self) -> usize {
        self.n
    }

    /// Number of base rankings (or total weight for weighted construction).
    pub fn num_rankings(&self) -> usize {
        self.num_rankings
    }

    /// `W[a][b]`: number of base rankings ranking `b` above `a` — the disagreement cost of
    /// placing `a` above `b` in the consensus.
    pub fn disagreements_if_above(&self, a: CandidateId, b: CandidateId) -> u32 {
        self.counts[a.index() * self.n + b.index()]
    }

    /// Row `a` of the matrix: `row(a)[b]` is [`PrecedenceMatrix::disagreements_if_above`]
    /// `(a, b)`, equivalently the support for `b ≺ a` (so `support_for(a, b)`
    /// is `row(b)[a]`). Kernels iterate rows directly instead of paying a
    /// bounds-checked multiply per element.
    pub fn row(&self, a: CandidateId) -> &[u32] {
        &self.counts[a.index() * self.n..][..self.n]
    }

    /// Number of base rankings preferring `a` over `b` (support for `a ≺ b`).
    pub fn support_for(&self, a: CandidateId, b: CandidateId) -> u32 {
        self.counts[b.index() * self.n + a.index()]
    }

    /// Net pairwise margin of `a` over `b`: supporters of `a ≺ b` minus supporters of `b ≺ a`.
    pub fn margin(&self, a: CandidateId, b: CandidateId) -> i64 {
        self.support_for(a, b) as i64 - self.support_for(b, a) as i64
    }

    /// Total Kendall-tau cost of a consensus ranking against the base rankings,
    /// computed from the matrix in O(n²).
    pub fn total_disagreements(&self, consensus: &Ranking) -> Result<u64> {
        if consensus.len() != self.n {
            return Err(RankingError::LengthMismatch {
                left: consensus.len(),
                right: self.n,
            });
        }
        let order = consensus.as_slice();
        let mut cost = 0u64;
        for (i, &above) in order.iter().enumerate() {
            let row = self.row(above);
            for &below in &order[i + 1..] {
                cost += row[below.index()] as u64;
            }
        }
        Ok(cost)
    }

    /// Copeland wins for each candidate: the number of pairwise contests the candidate wins,
    /// counting ties as wins for both sides (as in the paper's Fair-Copeland description).
    pub fn copeland_wins(&self) -> Vec<u32> {
        // One pass over the upper triangle using two row slices per `a`:
        // support_for(a, b) = row(b)[a] and support_for(b, a) = row(a)[b].
        let mut wins = vec![0u32; self.n];
        for a in 0..self.n {
            let row_a = &self.counts[a * self.n..][..self.n];
            for b in a + 1..self.n {
                let sa = self.counts[b * self.n + a];
                let sb = row_a[b];
                if sa >= sb {
                    wins[a] += 1;
                }
                if sb >= sa {
                    wins[b] += 1;
                }
            }
        }
        wins
    }

    /// Borda-style score for each candidate derived from the matrix: total support the
    /// candidate receives across all pairwise contests.
    pub fn pairwise_support_scores(&self) -> Vec<u64> {
        // scores[a] = Σ_b support_for(a, b) = Σ_b row(b)[a]: a column sum,
        // computed as one cache-friendly sweep over the rows. The diagonal is
        // always zero, so no exclusion is needed.
        let mut scores = vec![0u64; self.n];
        for row in self.counts.chunks_exact(self.n) {
            for (score, &count) in scores.iter_mut().zip(row) {
                *score += count as u64;
            }
        }
        scores
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kendall::kendall_tau;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn sample_rankings() -> Vec<Ranking> {
        vec![
            Ranking::from_ids([0, 1, 2, 3]).unwrap(),
            Ranking::from_ids([1, 0, 2, 3]).unwrap(),
            Ranking::from_ids([3, 2, 1, 0]).unwrap(),
        ]
    }

    #[test]
    fn rejects_empty_and_mismatched_profiles() {
        assert!(matches!(
            PrecedenceMatrix::from_rankings(&[]),
            Err(RankingError::EmptyProfile)
        ));
        let rankings = vec![Ranking::identity(3), Ranking::identity(4)];
        assert!(matches!(
            PrecedenceMatrix::from_rankings(&rankings),
            Err(RankingError::LengthMismatch { .. })
        ));
    }

    #[test]
    fn support_and_disagreement_are_complementary() {
        let rankings = sample_rankings();
        let w = PrecedenceMatrix::from_rankings(&rankings).unwrap();
        for a in 0..4u32 {
            for b in 0..4u32 {
                if a == b {
                    continue;
                }
                let (ca, cb) = (CandidateId(a), CandidateId(b));
                assert_eq!(
                    w.support_for(ca, cb) + w.disagreements_if_above(ca, cb),
                    rankings.len() as u32
                );
            }
        }
    }

    #[test]
    fn support_counts_match_manual() {
        let rankings = sample_rankings();
        let w = PrecedenceMatrix::from_rankings(&rankings).unwrap();
        // candidate 0 above candidate 1 in rankings 0 and (not 1) and (not 2) => 1 actually:
        // r0: 0 before 1 -> yes; r1: 1 before 0 -> no; r2: 1 before 0 -> no.
        assert_eq!(w.support_for(CandidateId(0), CandidateId(1)), 1);
        assert_eq!(w.support_for(CandidateId(1), CandidateId(0)), 2);
        assert_eq!(w.margin(CandidateId(1), CandidateId(0)), 1);
        assert_eq!(w.margin(CandidateId(0), CandidateId(1)), -1);
    }

    #[test]
    fn total_disagreements_equals_sum_of_kendall_tau() {
        let rankings = sample_rankings();
        let w = PrecedenceMatrix::from_rankings(&rankings).unwrap();
        let consensus = Ranking::from_ids([1, 0, 3, 2]).unwrap();
        let expected: u64 = rankings
            .iter()
            .map(|r| kendall_tau(&consensus, r).unwrap())
            .sum();
        assert_eq!(w.total_disagreements(&consensus).unwrap(), expected);
    }

    #[test]
    fn total_disagreements_validates_length() {
        let w = PrecedenceMatrix::from_rankings(&sample_rankings()).unwrap();
        assert!(matches!(
            w.total_disagreements(&Ranking::identity(3)),
            Err(RankingError::LengthMismatch { .. })
        ));
    }

    #[test]
    fn weighted_matrix_counts_weights() {
        let rankings = vec![
            Ranking::from_ids([0, 1]).unwrap(),
            Ranking::from_ids([1, 0]).unwrap(),
        ];
        let w = PrecedenceMatrix::from_weighted_rankings(&rankings, &[3, 1]).unwrap();
        assert_eq!(w.support_for(CandidateId(0), CandidateId(1)), 3);
        assert_eq!(w.support_for(CandidateId(1), CandidateId(0)), 1);
        assert_eq!(w.num_rankings(), 4);
        assert!(matches!(
            PrecedenceMatrix::from_weighted_rankings(&rankings, &[1]),
            Err(RankingError::LengthMismatch { .. })
        ));
    }

    #[test]
    fn copeland_wins_unanimous_profile() {
        let rankings = vec![Ranking::identity(4), Ranking::identity(4)];
        let w = PrecedenceMatrix::from_rankings(&rankings).unwrap();
        assert_eq!(w.copeland_wins(), vec![3, 2, 1, 0]);
    }

    #[test]
    fn copeland_counts_ties_as_wins_for_both() {
        let rankings = vec![
            Ranking::from_ids([0, 1]).unwrap(),
            Ranking::from_ids([1, 0]).unwrap(),
        ];
        let w = PrecedenceMatrix::from_rankings(&rankings).unwrap();
        assert_eq!(w.copeland_wins(), vec![1, 1]);
    }

    #[test]
    fn row_accessor_matches_point_lookups() {
        let w = PrecedenceMatrix::from_rankings(&sample_rankings()).unwrap();
        for a in 0..4u32 {
            let row = w.row(CandidateId(a));
            assert_eq!(row.len(), 4);
            for b in 0..4u32 {
                assert_eq!(
                    row[b as usize],
                    w.disagreements_if_above(CandidateId(a), CandidateId(b))
                );
            }
        }
    }

    #[test]
    fn weighted_build_rejects_u32_support_overflow() {
        // Two identical rankings whose combined weight (2^31 + 1 each) sums to
        // 2^32 + 2 > u32::MAX: every cell would wrap, so the build must fail
        // with a structured error instead.
        let rankings = vec![
            Ranking::from_ids([0, 1]).unwrap(),
            Ranking::from_ids([0, 1]).unwrap(),
        ];
        let huge = (1u32 << 31) + 1;
        let err = PrecedenceMatrix::from_weighted_rankings(&rankings, &[huge, huge]).unwrap_err();
        assert_eq!(
            err,
            RankingError::SupportOverflow {
                total_weight: 2 * huge as u64
            }
        );

        // Exactly at capacity is fine: one ranking carrying the full u32 range.
        let one = vec![Ranking::from_ids([0, 1]).unwrap()];
        let w = PrecedenceMatrix::from_weighted_rankings(&one, &[u32::MAX]).unwrap();
        assert_eq!(w.support_for(CandidateId(0), CandidateId(1)), u32::MAX);
    }

    #[test]
    fn parallel_build_respects_min_candidates_gate() {
        // Below the size gate the parallel entry point must still produce the
        // same matrix (it just runs serially).
        let rankings = sample_rankings();
        let gated = Parallelism::new(8);
        assert_eq!(build_shards(4, rankings.len(), &gated), 1);
        assert_eq!(
            PrecedenceMatrix::from_rankings_parallel(&rankings, &gated).unwrap(),
            PrecedenceMatrix::from_rankings(&rankings).unwrap()
        );
        // At the gate every thread gets a shard of at least four rankings;
        // a wide profile with few rankings stays serial.
        assert_eq!(build_shards(4, PARALLEL_BUILD_MIN_SIZE, &gated), 8);
        assert_eq!(build_shards(4, PARALLEL_BUILD_MIN_SIZE - 1, &gated), 1);
        assert_eq!(build_shards(1000, 12, &gated), 3);
        assert_eq!(build_shards(1000, 4, &Parallelism::new(2)), 1);
        assert_eq!(build_shards(1000, 400, &Parallelism::serial()), 1);
    }

    #[test]
    fn append_matches_full_rebuild() {
        let mut rankings = sample_rankings();
        let mut w = PrecedenceMatrix::from_rankings(&rankings).unwrap();
        let extra = Ranking::from_ids([2, 3, 0, 1]).unwrap();
        w.apply_append(&extra, 1).unwrap();
        rankings.push(extra);
        assert_eq!(w, PrecedenceMatrix::from_rankings(&rankings).unwrap());
    }

    #[test]
    fn retract_matches_rebuild_without_the_ranking() {
        let rankings = sample_rankings();
        let mut w = PrecedenceMatrix::from_rankings(&rankings).unwrap();
        w.apply_retract(&rankings[1], 1).unwrap();
        let remaining = [rankings[0].clone(), rankings[2].clone()];
        assert_eq!(w, PrecedenceMatrix::from_rankings(&remaining).unwrap());
    }

    #[test]
    fn retract_to_empty_zeroes_the_matrix() {
        let only = vec![Ranking::from_ids([1, 0, 2]).unwrap()];
        let mut w = PrecedenceMatrix::from_rankings(&only).unwrap();
        w.apply_retract(&only[0], 1).unwrap();
        assert_eq!(w.num_rankings(), 0);
        for a in 0..3u32 {
            for b in 0..3u32 {
                assert_eq!(w.disagreements_if_above(CandidateId(a), CandidateId(b)), 0);
            }
        }
        // An empty matrix accepts appends again, round-tripping to a rebuild.
        let next = Ranking::from_ids([2, 1, 0]).unwrap();
        w.apply_append(&next, 3).unwrap();
        assert_eq!(
            w,
            PrecedenceMatrix::from_weighted_rankings(&[next], &[3]).unwrap()
        );
    }

    #[test]
    fn retract_of_absent_ranking_fails_and_leaves_matrix_unchanged() {
        // A unanimous profile has zero support for any reversed pair, so
        // retracting the reverse ranking must underflow a cell.
        let rankings = vec![Ranking::identity(4), Ranking::identity(4)];
        let mut w = PrecedenceMatrix::from_rankings(&rankings).unwrap();
        let before = w.clone();
        let absent = Ranking::from_ids([3, 2, 1, 0]).unwrap();
        assert_eq!(
            w.apply_retract(&absent, 1).unwrap_err(),
            RankingError::RetractUnderflow { weight: 1 }
        );
        // Present, but not with weight 3 (total weight is only 2).
        assert_eq!(
            w.apply_retract(&rankings[0], 3).unwrap_err(),
            RankingError::RetractUnderflow { weight: 3 }
        );
        assert_eq!(w, before, "failed retract must not touch the matrix");
    }

    #[test]
    fn delta_edits_validate_length_and_capacity() {
        let mut w = PrecedenceMatrix::from_rankings(&sample_rankings()).unwrap();
        let before = w.clone();
        assert!(matches!(
            w.apply_append(&Ranking::identity(3), 1),
            Err(RankingError::LengthMismatch { .. })
        ));
        assert!(matches!(
            w.apply_retract(&Ranking::identity(5), 1),
            Err(RankingError::LengthMismatch { .. })
        ));
        assert_eq!(
            w.apply_append(&Ranking::identity(4), u32::MAX).unwrap_err(),
            RankingError::SupportOverflow {
                total_weight: 3 + u32::MAX as u64
            }
        );
        assert_eq!(w, before);
    }

    proptest! {
        #[test]
        fn prop_append_and_retract_are_bit_identical_to_rebuild(
            n in 2usize..10,
            m in 1usize..8,
            edits in 1usize..12,
            seed in any::<u64>()
        ) {
            // A randomized edit script over a weighted profile: each step
            // either appends a fresh random ranking or retracts a surviving
            // one, and after every step the incrementally maintained matrix
            // must equal a from-scratch weighted rebuild of the survivors.
            let mut rng = StdRng::seed_from_u64(seed);
            let mut live: Vec<(Ranking, u32)> = (0..m)
                .map(|i| (Ranking::random(n, &mut rng), (i as u32 % 4) + 1))
                .collect();
            let rankings: Vec<Ranking> = live.iter().map(|(r, _)| r.clone()).collect();
            let weights: Vec<u32> = live.iter().map(|(_, w)| *w).collect();
            let mut matrix =
                PrecedenceMatrix::from_weighted_rankings(&rankings, &weights).unwrap();
            for step in 0..edits {
                if live.is_empty() || step % 3 != 2 {
                    let ranking = Ranking::random(n, &mut rng);
                    let weight = (step as u32 % 5) + 1;
                    matrix.apply_append(&ranking, weight).unwrap();
                    live.push((ranking, weight));
                } else {
                    let victim = live.remove(step % live.len());
                    matrix.apply_retract(&victim.0, victim.1).unwrap();
                }
                if live.is_empty() {
                    prop_assert_eq!(matrix.num_rankings(), 0);
                    continue;
                }
                let rankings: Vec<Ranking> = live.iter().map(|(r, _)| r.clone()).collect();
                let weights: Vec<u32> = live.iter().map(|(_, w)| *w).collect();
                let rebuilt =
                    PrecedenceMatrix::from_weighted_rankings(&rankings, &weights).unwrap();
                prop_assert_eq!(&matrix, &rebuilt);
            }
        }

        #[test]
        fn prop_delta_matches_parallel_rebuild_across_thread_counts(
            n in 2usize..10,
            m in 1usize..8,
            shards in 1usize..9,
            seed in any::<u64>()
        ) {
            // Appending onto a serially built matrix must equal the sharded
            // rebuild of the extended profile for every shard count (both are
            // bit-identical to the serial rebuild, hence to each other).
            let mut rng = StdRng::seed_from_u64(seed);
            let mut rankings: Vec<Ranking> =
                (0..m).map(|_| Ranking::random(n, &mut rng)).collect();
            let mut matrix = PrecedenceMatrix::from_rankings(&rankings).unwrap();
            let extra = Ranking::random(n, &mut rng);
            matrix.apply_append(&extra, 1).unwrap();
            rankings.push(extra);
            prop_assert_eq!(&matrix.counts, &build_sharded(&rankings, None, n, shards));
        }

        #[test]
        fn prop_sharded_build_is_bit_identical(
            n in 2usize..12,
            m in 1usize..20,
            shards in 1usize..9,
            seed in any::<u64>()
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let rankings: Vec<Ranking> = (0..m).map(|_| Ranking::random(n, &mut rng)).collect();
            let serial = PrecedenceMatrix::from_rankings(&rankings).unwrap();
            prop_assert_eq!(&serial.counts, &build_sharded(&rankings, None, n, shards));

            let weights: Vec<u32> = (0..m as u32).map(|i| (seed as u32 % 5) + i % 7 + 1).collect();
            let serial_w = PrecedenceMatrix::from_weighted_rankings(&rankings, &weights).unwrap();
            prop_assert_eq!(&serial_w.counts, &build_sharded(&rankings, Some(&weights), n, shards));
        }

        #[test]
        fn prop_total_disagreements_matches_kendall_sums(
            n in 2usize..15,
            m in 1usize..8,
            seed in any::<u64>()
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let rankings: Vec<Ranking> = (0..m).map(|_| Ranking::random(n, &mut rng)).collect();
            let consensus = Ranking::random(n, &mut rng);
            let w = PrecedenceMatrix::from_rankings(&rankings).unwrap();
            let expected: u64 = rankings.iter().map(|r| kendall_tau(&consensus, r).unwrap()).sum();
            prop_assert_eq!(w.total_disagreements(&consensus).unwrap(), expected);
        }
    }
}
