//! Precedence matrix `W` over a set of base rankings (Definition 11 in the paper).
//!
//! `W[a][b]` counts how many base rankings place candidate `b` *above* candidate `a`
//! (i.e. `b ≺ a` in the paper's notation: entries represent pairwise disagreements with
//! the order `a ≺ b`). Every pairwise consensus method in the workspace (Kemeny,
//! Copeland, Schulze and their fair variants) operates on this matrix, so it is computed
//! once per profile and shared.
//!
//! Every base ranking is a complete permutation, so `W[a][b] + W[b][a]` is the
//! total ranking weight for every pair. The matrix therefore stores one cell per
//! unordered pair: the packed upper triangle of supports
//! `s(a, b) = Σ_r w_r · [pos_r(a) < pos_r(b)]` for `a < b`, plus the total
//! weight. Every other entry is derived as the total minus a stored support.

use std::ops::{Add, Range, Sub};

use crate::candidate::CandidateId;
use crate::error::RankingError;
use crate::parallel::{record_ranking_shard_tasks, run_parts, Parallelism};
use crate::ranking::Ranking;
use crate::Result;

/// Precedence matrix stored as a packed upper triangle of pairwise supports.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PrecedenceMatrix {
    n: usize,
    /// Total ranking weight: the two supports of every pair sum to it.
    total: u32,
    /// Row `a` holds `s(a, b)` for `b = a + 1 .. n`; rows are stored back to
    /// back, so row `a` starts at [`row_start`]`(n, a)`.
    cells: Vec<u32>,
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

/// Cells of an `n`-candidate triangle: one per unordered pair.
fn num_cells(n: usize) -> usize {
    n * n.saturating_sub(1) / 2
}

/// Offset of row `a` in an `n`-candidate triangle: the cells of rows `0..a`.
fn row_start(n: usize, a: usize) -> usize {
    a * n - a * (a + 1) / 2
}

/// A ranking's positions as `u32`s, the width the kernels compare.
fn positions_u32(ranking: &Ranking) -> impl Iterator<Item = u32> + '_ {
    ranking.positions().iter().map(|&p| p as u32)
}

/// Rankings in one position table of the build: `BUILD_BLOCK × (n + PAD)`
/// `u32`s (129 KiB at n = 1000), whatever `|R|`.
const BUILD_BLOCK: usize = 32;

/// The row loop's scratch row is padded to a multiple of this many cells,
/// so the vectorised loop never ends in scalar steps.
const PAD: usize = 8;

/// Adds every ranking's weight into triangle rows `rows`, whose cells are
/// `cells`. Per block of rankings, a ranking-major table holds their `u32`
/// positions, each followed by [`PAD`] zeros. For each row `a`, every
/// ranking adds its weight to the L1-resident scratch cells `(a, b)` whose
/// `b` it places below `a`: a compare and an add along contiguous slices,
/// which the compiler vectorises. The padding compares zeros, which are
/// never below `a`, and is not written back.
fn accumulate_rows(
    cells: &mut [u32],
    rows: Range<usize>,
    n: usize,
    rankings: &[Ranking],
    weights: &[u32],
) {
    let stride = n + PAD;
    let mut table = vec![0u32; BUILD_BLOCK.min(rankings.len()) * stride];
    let mut scratch = vec![0u32; stride];
    for (block, block_weights) in rankings
        .chunks(BUILD_BLOCK)
        .zip(weights.chunks(BUILD_BLOCK))
    {
        let table = &mut table[..block.len() * stride];
        for (slots, ranking) in table.chunks_exact_mut(stride).zip(block) {
            slots
                .iter_mut()
                .zip(positions_u32(ranking))
                .for_each(|(slot, p)| *slot = p);
        }
        let mut rest = &mut *cells;
        for a in rows.clone() {
            let (row, tail) = rest.split_at_mut(n - 1 - a);
            rest = tail;
            let sums = &mut scratch[..row.len().next_multiple_of(PAD)];
            sums.fill(0);
            for (positions, &weight) in table.chunks_exact(stride).zip(block_weights) {
                let above = positions[a];
                for (sum, &below) in sums.iter_mut().zip(&positions[a + 1..]) {
                    *sum += if below > above { weight } else { 0 };
                }
            }
            for (cell, &sum) in row.iter_mut().zip(&*sums) {
                *cell += sum;
            }
        }
    }
}

/// Fewest cell updates (`n(n − 1)/2 · |R|`) a build must make before it
/// splits across threads. On a 2-vCPU AVX-512 host two threads first won
/// clearly at about 4M updates (0.5 ms serial); from 1M to 2.5M they won or
/// lost by turns, and at 1.1–1.5M they lost by up to 25%.
const PARALLEL_BUILD_MIN_UPDATES: usize = 1 << 22;

/// Splits rows `0..n` into at most `parts` contiguous blocks of about equal
/// cell count: block `k` starts at the first row with `k/parts` of the
/// cells before it.
fn row_blocks(n: usize, parts: usize) -> Vec<Range<usize>> {
    let parts = parts.clamp(1, n.saturating_sub(1).max(1));
    let mut starts = vec![0];
    for a in 1..n {
        if starts.len() < parts && row_start(n, a) * parts >= num_cells(n) * starts.len() {
            starts.push(a);
        }
    }
    starts.push(n);
    starts.windows(2).map(|w| w[0]..w[1]).collect()
}

/// Builds the triangle's cells with up to `threads` threads, each filling
/// one row block's own slice of cells. Every cell is summed by the same
/// loop whatever the split, so every thread count is bit-identical.
fn build_cells(rankings: &[Ranking], weights: &[u32], n: usize, threads: usize) -> Vec<u32> {
    let mut cells = vec![0u32; num_cells(n)];
    let mut rest = cells.as_mut_slice();
    let parts: Vec<_> = row_blocks(n, threads)
        .into_iter()
        .map(|rows| {
            let len = row_start(n, rows.end) - row_start(n, rows.start);
            let (block, tail) = std::mem::take(&mut rest).split_at_mut(len);
            rest = tail;
            move || accumulate_rows(block, rows, n, rankings, weights)
        })
        .collect();
    if parts.len() > 1 {
        record_ranking_shard_tasks(parts.len() as u64);
    }
    run_parts(threads, parts);
    cells
}

/// Threads a build of `rankings` rankings over `n` candidates uses: one
/// below [`PARALLEL_BUILD_MIN_UPDATES`], else the whole thread budget.
fn build_threads(n: usize, rankings: usize, parallelism: &Parallelism) -> usize {
    if num_cells(n).saturating_mul(rankings) < PARALLEL_BUILD_MIN_UPDATES {
        1
    } else {
        parallelism.max_threads()
    }
}

/// Every support cell is bounded above by the total ranking weight, so one
/// `O(|R|)` bound check at build time guarantees no `u32` cell can wrap
/// during accumulation (and that downstream `u32` path-strength cells in the
/// Schulze kernel cannot overflow either).
pub(crate) fn check_support_capacity(total_weight: u64) -> Result<()> {
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
    /// threads, each filling a block of rows of about equal cell count —
    /// bit-identical to [`PrecedenceMatrix::from_rankings`] for every thread
    /// count. A build of fewer than 2^22 cell updates (`n(n − 1)/2 · |R|`)
    /// stays serial.
    pub fn from_rankings_parallel(rankings: &[Ranking], parallelism: &Parallelism) -> Result<Self> {
        Self::from_weighted_rankings_parallel(rankings, &vec![1; rankings.len()], parallelism)
    }

    /// Builds a matrix with weighted rankings: ranking `i` contributes `weights[i]` votes.
    pub fn from_weighted_rankings(rankings: &[Ranking], weights: &[u32]) -> Result<Self> {
        Self::from_weighted_rankings_parallel(rankings, weights, &Parallelism::serial())
    }

    /// Weighted variant of [`PrecedenceMatrix::from_rankings_parallel`].
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
        let threads = build_threads(n, rankings.len(), parallelism);
        Ok(Self {
            n,
            total: total_weight as u32,
            cells: build_cells(rankings, weights, n, threads),
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
        self.check_len(ranking)?;
        check_support_capacity(self.total as u64 + weight as u64)?;
        self.fold(
            &positions_u32(ranking).collect::<Vec<_>>(),
            weight,
            u32::add,
        );
        self.total += weight;
        Ok(())
    }

    /// Removes one weighted ranking from the matrix in `O(n²)` — the inverse
    /// of [`PrecedenceMatrix::apply_append`].
    ///
    /// Both supports of every pair are verified to hold at least `weight`
    /// for the ranking's order of that pair *before* any subtraction, so
    /// retracting a ranking the matrix does not contain fails with
    /// [`RankingError::RetractUnderflow`] and leaves the matrix unchanged.
    /// Retracting the last ranking is allowed and yields the empty (all-zero)
    /// matrix.
    pub fn apply_retract(&mut self, ranking: &Ranking, weight: u32) -> Result<()> {
        self.check_len(ranking)?;
        if self.total < weight {
            return Err(RankingError::RetractUnderflow { weight });
        }
        let positions: Vec<u32> = positions_u32(ranking).collect();
        // Check pass: the ranking backs `s(a, b)` when it places a above b
        // and `W − s(a, b)` otherwise; each must cover its weight.
        let underflows = self.rows().any(|(a, row)| {
            let above = positions[a];
            row.iter()
                .zip(&positions[a + 1..])
                .any(|(&s, &below)| (if below > above { s } else { self.total - s }) < weight)
        });
        if underflows {
            return Err(RankingError::RetractUnderflow { weight });
        }
        self.fold(&positions, weight, u32::sub);
        self.total -= weight;
        Ok(())
    }

    /// Replaces each cell `(a, b)` whose pair the ranking at `positions`
    /// orders `a` above `b` by `op(cell, weight)`, one triangle row at a time.
    fn fold(&mut self, positions: &[u32], weight: u32, op: impl Fn(u32, u32) -> u32) {
        for a in 0..self.n {
            let row = &mut self.cells[row_start(self.n, a)..][..self.n - 1 - a];
            for (cell, &below) in row.iter_mut().zip(&positions[a + 1..]) {
                *cell = op(*cell, if below > positions[a] { weight } else { 0 });
            }
        }
    }

    fn check_len(&self, ranking: &Ranking) -> Result<()> {
        if ranking.len() != self.n {
            return Err(RankingError::LengthMismatch {
                left: self.n,
                right: ranking.len(),
            });
        }
        Ok(())
    }

    /// Number of candidates.
    pub fn num_candidates(&self) -> usize {
        self.n
    }

    /// Number of base rankings (or total weight for weighted construction).
    pub fn num_rankings(&self) -> usize {
        self.total as usize
    }

    /// The total ranking weight `W`: for every pair `a ≠ b`,
    /// `support_for(a, b) + support_for(b, a) == total_weight()`.
    pub fn total_weight(&self) -> u32 {
        self.total
    }

    /// Row `a` of the packed triangle: `triangle_row(a)[j]` is
    /// [`PrecedenceMatrix::support_for`]`(a, a + 1 + j)`, the weight of the
    /// rankings placing `a` above each later candidate. The opposite
    /// direction is [`PrecedenceMatrix::total_weight`] minus the cell.
    pub fn triangle_row(&self, a: CandidateId) -> &[u32] {
        let a = a.index();
        &self.cells[row_start(self.n, a)..][..self.n - 1 - a]
    }

    /// Every row of the triangle with its candidate index, in order.
    fn rows(&self) -> impl Iterator<Item = (usize, &[u32])> {
        (0..self.n).map(|a| (a, self.triangle_row(CandidateId(a as u32))))
    }

    /// Heap bytes held by the matrix's cells.
    pub fn heap_bytes(&self) -> usize {
        self.cells.capacity() * std::mem::size_of::<u32>()
    }

    /// `W[a][b]`: number of base rankings ranking `b` above `a` — the disagreement cost of
    /// placing `a` above `b` in the consensus.
    pub fn disagreements_if_above(&self, a: CandidateId, b: CandidateId) -> u32 {
        self.support_for(b, a)
    }

    /// Number of base rankings preferring `a` over `b` (support for `a ≺ b`).
    pub fn support_for(&self, a: CandidateId, b: CandidateId) -> u32 {
        let (i, j) = (a.index(), b.index());
        match i.cmp(&j) {
            std::cmp::Ordering::Less => self.cells[row_start(self.n, i) + j - i - 1],
            std::cmp::Ordering::Greater => {
                self.total - self.cells[row_start(self.n, j) + i - j - 1]
            }
            std::cmp::Ordering::Equal => 0,
        }
    }

    /// Net pairwise margin of `a` over `b`: supporters of `a ≺ b` minus supporters of `b ≺ a`.
    pub fn margin(&self, a: CandidateId, b: CandidateId) -> i64 {
        self.support_for(a, b) as i64 - self.support_for(b, a) as i64
    }

    /// Total Kendall-tau cost of a consensus ranking against the base rankings,
    /// computed from the matrix in O(n²).
    ///
    /// Each pair `a < b` costs `W − s(a, b)` when the consensus places `a`
    /// above `b` and `s(a, b)` otherwise. Both the triangle row and the `u32`
    /// positions are read contiguously, so the loop vectorises. Integer sums
    /// are order-insensitive, so the total is exact.
    pub fn total_disagreements(&self, consensus: &Ranking) -> Result<u64> {
        if consensus.len() != self.n {
            return Err(RankingError::LengthMismatch {
                left: consensus.len(),
                right: self.n,
            });
        }
        let positions: Vec<u32> = positions_u32(consensus).collect();
        let total = self.total;
        let cost = self
            .rows()
            .map(|(a, row)| {
                let above = positions[a];
                row.iter()
                    .zip(&positions[a + 1..])
                    .map(|(&s, &below)| u64::from(if below > above { total - s } else { s }))
                    .sum::<u64>()
            })
            .sum();
        Ok(cost)
    }

    /// Copeland wins for each candidate: the number of pairwise contests the candidate wins,
    /// counting ties as wins for both sides (as in the paper's Fair-Copeland description).
    pub fn copeland_wins(&self) -> Vec<u32> {
        // a beats b when s ≥ W − s, i.e. 2s ≥ W, and b beats a when 2s ≤ W.
        // 2s can exceed u32::MAX, so the comparison runs in u64.
        let total = self.total as u64;
        let mut wins = vec![0u32; self.n];
        for (a, row) in self.rows() {
            let (head, later) = wins.split_at_mut(a + 1);
            let mut won = 0;
            for (win_b, &s) in later.iter_mut().zip(row) {
                let twice = 2 * s as u64;
                won += u32::from(twice >= total);
                *win_b += u32::from(twice <= total);
            }
            head[a] += won;
        }
        wins
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kendall::kendall_tau;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn sample_rankings() -> Vec<Ranking> {
        vec![
            Ranking::from_ids([0, 1, 2, 3]).unwrap(),
            Ranking::from_ids([1, 0, 2, 3]).unwrap(),
            Ranking::from_ids([3, 2, 1, 0]).unwrap(),
        ]
    }

    /// The dense `n × n` build the triangle replaced, kept as the reference:
    /// for every pair (above, below) of each ranking, `W[below][above] += w`.
    fn dense_reference(rankings: &[Ranking], weights: &[u32]) -> Vec<u32> {
        let n = rankings[0].len();
        let mut counts = vec![0u32; n * n];
        for (ranking, &w) in rankings.iter().zip(weights) {
            let order = ranking.as_slice();
            for (j, below) in order.iter().enumerate().skip(1) {
                let row = &mut counts[below.index() * n..][..n];
                for above in &order[..j] {
                    row[above.index()] += w;
                }
            }
        }
        counts
    }

    /// Asserts that every accessor and scan of `matrix` agrees with the dense
    /// reference `w` (`w[a * n + b]` is `W[a][b]`) of total weight `total`.
    fn assert_matches_dense(matrix: &PrecedenceMatrix, w: &[u32], total: u64, consensus: &Ranking) {
        let n = matrix.num_candidates();
        assert_eq!(matrix.num_rankings() as u64, total);
        assert_eq!(matrix.total_weight() as u64, total);
        for a in 0..n {
            let ca = CandidateId(a as u32);
            let row = matrix.triangle_row(ca);
            assert_eq!(row.len(), n - 1 - a);
            for b in 0..n {
                let cb = CandidateId(b as u32);
                assert_eq!(matrix.disagreements_if_above(ca, cb), w[a * n + b]);
                assert_eq!(matrix.support_for(ca, cb), w[b * n + a]);
                assert_eq!(
                    matrix.margin(ca, cb),
                    w[b * n + a] as i64 - w[a * n + b] as i64
                );
                if b > a {
                    assert_eq!(row[b - a - 1], w[b * n + a]);
                }
            }
        }
        let positions = consensus.positions();
        let mut cost = 0u64;
        let mut wins = vec![0u32; n];
        for a in 0..n {
            for b in 0..n {
                if a == b {
                    continue;
                }
                if positions[a] < positions[b] {
                    cost += w[a * n + b] as u64;
                }
                if w[b * n + a] >= w[a * n + b] {
                    wins[a] += 1;
                }
            }
        }
        assert_eq!(matrix.total_disagreements(consensus).unwrap(), cost);
        assert_eq!(matrix.copeland_wins(), wins);
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
    fn copeland_compares_supports_beyond_u32() {
        let rankings = vec![
            Ranking::from_ids([0, 1]).unwrap(),
            Ranking::from_ids([1, 0]).unwrap(),
        ];
        // W = u32::MAX and s(0, 1) = 2^31: 2s wraps in u32 (to 0, which
        // would hand the contest to 1), yet candidate 0 wins by one vote.
        let w =
            PrecedenceMatrix::from_weighted_rankings(&rankings, &[1 << 31, (1 << 31) - 1]).unwrap();
        assert_eq!(w.total_weight(), u32::MAX);
        assert_eq!(w.copeland_wins(), vec![1, 0]);
        let w =
            PrecedenceMatrix::from_weighted_rankings(&rankings, &[(1 << 31) - 1, 1 << 31]).unwrap();
        assert_eq!(w.copeland_wins(), vec![0, 1]);
        // The largest exact tie: W = 2^32 − 2, both supports 2^31 − 1.
        let half = (1 << 31) - 1;
        let w = PrecedenceMatrix::from_weighted_rankings(&rankings, &[half, half]).unwrap();
        assert_eq!(w.copeland_wins(), vec![1, 1]);
    }

    #[test]
    fn one_candidate_has_no_pairs() {
        let rankings = vec![Ranking::identity(1); 3];
        let w = PrecedenceMatrix::from_rankings(&rankings).unwrap();
        assert_eq!(w.heap_bytes(), 0);
        assert!(w.triangle_row(CandidateId(0)).is_empty());
        assert_eq!(w.support_for(CandidateId(0), CandidateId(0)), 0);
        assert_eq!(w.copeland_wins(), vec![0]);
        assert_eq!(w.total_disagreements(&Ranking::identity(1)).unwrap(), 0);
    }

    #[test]
    fn triangle_row_matches_point_lookups() {
        let w = PrecedenceMatrix::from_rankings(&sample_rankings()).unwrap();
        for a in 0..4u32 {
            let row = w.triangle_row(CandidateId(a));
            assert_eq!(row.len(), 3 - a as usize);
            for (b, &s) in (a + 1..4).zip(row) {
                assert_eq!(s, w.support_for(CandidateId(a), CandidateId(b)));
                assert_eq!(
                    w.total_weight() - s,
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
    fn parallel_build_gates_on_cell_updates() {
        let gated = Parallelism::new(8);
        // 4 candidates have 6 pairs: far below the gate at any |R|.
        assert_eq!(build_threads(4, 3, &gated), 1);
        let rankings = sample_rankings();
        assert_eq!(
            PrecedenceMatrix::from_rankings_parallel(&rankings, &gated).unwrap(),
            PrecedenceMatrix::from_rankings(&rankings).unwrap()
        );
        // n = 2049 has 2,098,176 pairs: two rankings reach the gate, one
        // does not.
        assert_eq!(build_threads(2049, 1, &gated), 1);
        assert_eq!(build_threads(2049, 2, &gated), 8);
        assert_eq!(build_threads(2049, 2, &Parallelism::serial()), 1);
        // A short but wide profile is split by rows all the same: 16
        // candidates have 120 pairs.
        assert_eq!(build_threads(16, 34_953, &gated), 8);
        assert_eq!(build_threads(16, 34_952, &gated), 1);
    }

    #[test]
    fn parallel_build_above_the_gate_matches_the_dense_reference() {
        let (n, m) = (300, 96);
        let mut rng = StdRng::seed_from_u64(0x7A1);
        let (rankings, weights) = weighted_profile(n, m, 1 << 20, &mut rng);
        let consensus = Ranking::random(n, &mut rng);
        let total: u64 = weights.iter().map(|&w| w as u64).sum();
        let dense = dense_reference(&rankings, &weights);
        for threads in [2, 3, 8] {
            let par = Parallelism::new(threads);
            assert_eq!(build_threads(n, m, &par), threads);
            let matrix =
                PrecedenceMatrix::from_weighted_rankings_parallel(&rankings, &weights, &par)
                    .unwrap();
            assert_matches_dense(&matrix, &dense, total, &consensus);
        }
    }

    #[test]
    fn row_blocks_cover_every_row_with_balanced_cells() {
        for n in 0..80usize {
            for parts in 1..10usize {
                let blocks = row_blocks(n, parts);
                assert!(blocks.len() <= parts.max(1));
                let mut start = 0;
                for block in &blocks {
                    assert_eq!(block.start, start, "n={n} parts={parts}");
                    assert!(n == 0 || !block.is_empty(), "n={n} parts={parts}");
                    start = block.end;
                }
                assert_eq!(start, n);
                // Every block but the last holds at least its share of cells,
                // and none holds more than its share plus one row.
                let share = num_cells(n).div_ceil(blocks.len());
                for block in &blocks {
                    let cells = row_start(n, block.end) - row_start(n, block.start);
                    assert!(cells <= share + n, "n={n} parts={parts} {block:?}");
                }
            }
        }
        assert_eq!(row_blocks(1000, 2).len(), 2);
        // The first block of a two-way split ends near row n(1 − 1/√2).
        assert_eq!(row_blocks(1000, 2)[0].end, 293);
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
    fn retract_checks_the_derived_direction_too() {
        // s(0, 1) = 3 covers a weight-2 retract of [0, 1, 2], but its pair
        // (1, 2) is backed only by the weight-1 ranking: W − s(1, 2) = 1 < 2.
        let rankings = vec![
            Ranking::from_ids([0, 1, 2]).unwrap(),
            Ranking::from_ids([0, 2, 1]).unwrap(),
        ];
        let mut w = PrecedenceMatrix::from_weighted_rankings(&rankings, &[1, 2]).unwrap();
        let before = w.clone();
        assert_eq!(
            w.apply_retract(&rankings[0], 2).unwrap_err(),
            RankingError::RetractUnderflow { weight: 2 }
        );
        assert_eq!(w, before);
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

    /// A random profile of `m` rankings over `n` candidates with weights in
    /// `1..=max_weight`.
    fn weighted_profile(
        n: usize,
        m: usize,
        max_weight: u32,
        rng: &mut StdRng,
    ) -> (Vec<Ranking>, Vec<u32>) {
        let rankings = (0..m).map(|_| Ranking::random(n, &mut *rng)).collect();
        let weights = (0..m)
            .map(|_| rng.gen_range(1..max_weight as usize + 1) as u32)
            .collect();
        (rankings, weights)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]
        #[test]
        fn prop_triangle_matches_the_dense_reference(
            n in 1usize..72,
            m in 1usize..80,
            threads in 1usize..9,
            seed in any::<u64>()
        ) {
            // n and |R| cross the build block (32 rankings); thread counts
            // split the rows at every count, below the gate as well.
            let mut rng = StdRng::seed_from_u64(seed);
            // Weights up to 2^28, capped so the total stays inside u32.
            let (rankings, weights) =
                weighted_profile(n, m, (1 << 28).min(u32::MAX / m as u32), &mut rng);
            let consensus = Ranking::random(n, &mut rng);
            let total: u64 = weights.iter().map(|&w| w as u64).sum();
            let dense = dense_reference(&rankings, &weights);
            let matrix = PrecedenceMatrix::from_weighted_rankings(&rankings, &weights).unwrap();
            assert_matches_dense(&matrix, &dense, total, &consensus);
            prop_assert_eq!(&build_cells(&rankings, &weights, n, threads), &matrix.cells);
            let par = Parallelism::new(threads);
            prop_assert_eq!(
                &PrecedenceMatrix::from_weighted_rankings_parallel(&rankings, &weights, &par)
                    .unwrap(),
                &matrix
            );

            let ones = vec![1; m];
            let unweighted = PrecedenceMatrix::from_rankings_parallel(&rankings, &par).unwrap();
            assert_matches_dense(&unweighted, &dense_reference(&rankings, &ones), m as u64, &consensus);
            prop_assert_eq!(&build_cells(&rankings, &ones, n, threads), &unweighted.cells);
        }

        #[test]
        fn prop_full_u32_total_weight_matches_the_dense_reference(
            n in 1usize..40,
            m in 1usize..40,
            seed in any::<u64>()
        ) {
            // Weights summing to exactly u32::MAX: every cell and every
            // W − s stays in range, and 2s passes u32::MAX.
            let mut rng = StdRng::seed_from_u64(seed);
            let (rankings, mut weights) = weighted_profile(n, m, u32::MAX / m as u32, &mut rng);
            let rest: u64 = weights[1..].iter().map(|&w| w as u64).sum();
            weights[0] = (u32::MAX as u64 - rest) as u32;
            let consensus = Ranking::random(n, &mut rng);
            let matrix = PrecedenceMatrix::from_weighted_rankings(&rankings, &weights).unwrap();
            prop_assert_eq!(matrix.total_weight(), u32::MAX);
            assert_matches_dense(&matrix, &dense_reference(&rankings, &weights), u32::MAX as u64, &consensus);
        }

        #[test]
        fn prop_edit_script_matches_the_dense_reference(
            n in 1usize..40,
            m in 1usize..12,
            edits in 1usize..16,
            seed in any::<u64>()
        ) {
            // A random append/retract script over a weighted profile. After
            // every step the maintained matrix equals the dense reference of
            // the survivors; a retract of a ranking the profile lacks either
            // fails and leaves the matrix as it was, or succeeds exactly
            // when the dense reference can lose it without going negative.
            let mut rng = StdRng::seed_from_u64(seed);
            let (rankings, weights) = weighted_profile(n, m, 1 << 20, &mut rng);
            let mut live: Vec<(Ranking, u32)> = rankings.into_iter().zip(weights).collect();
            let (rankings, weights): (Vec<Ranking>, Vec<u32>) = live.iter().cloned().unzip();
            let mut matrix = PrecedenceMatrix::from_weighted_rankings(&rankings, &weights).unwrap();
            for _ in 0..edits {
                let before = matrix.clone();
                match rng.gen_range(0..3) {
                    0 => {
                        let ranking = Ranking::random(n, &mut rng);
                        let weight = rng.gen_range(1..(1 << 20) + 1) as u32;
                        matrix.apply_append(&ranking, weight).unwrap();
                        live.push((ranking, weight));
                    }
                    1 if !live.is_empty() => {
                        let (ranking, weight) = live.remove(rng.gen_range(0..live.len()));
                        matrix.apply_retract(&ranking, weight).unwrap();
                    }
                    _ => {
                        let stranger = Ranking::random(n, &mut rng);
                        let weight = rng.gen_range(1..(1 << 21) + 1) as u32;
                        let (rankings, weights): (Vec<Ranking>, Vec<u32>) =
                            live.iter().cloned().unzip();
                        let dense = if live.is_empty() {
                            vec![0; n * n]
                        } else {
                            dense_reference(&rankings, &weights)
                        };
                        let order = stranger.as_slice();
                        let covered = (0..n).all(|j| {
                            order[j + 1..].iter().all(|below| {
                                dense[below.index() * n + order[j].index()] >= weight
                            })
                        }) && matrix.num_rankings() as u64 >= weight as u64;
                        match matrix.apply_retract(&stranger, weight) {
                            Ok(()) => {
                                prop_assert!(covered);
                                matrix.apply_append(&stranger, weight).unwrap();
                                prop_assert_eq!(&matrix, &before);
                            }
                            Err(error) => {
                                prop_assert!(!covered);
                                prop_assert_eq!(error, RankingError::RetractUnderflow { weight });
                                prop_assert_eq!(&matrix, &before);
                            }
                        }
                    }
                }
                let consensus = Ranking::random(n, &mut rng);
                if live.is_empty() {
                    prop_assert_eq!(matrix.num_rankings(), 0);
                    assert_matches_dense(&matrix, &vec![0; n * n], 0, &consensus);
                    continue;
                }
                let (rankings, weights): (Vec<Ranking>, Vec<u32>) = live.iter().cloned().unzip();
                let total: u64 = weights.iter().map(|&w| w as u64).sum();
                assert_matches_dense(&matrix, &dense_reference(&rankings, &weights), total, &consensus);
                prop_assert_eq!(
                    &matrix,
                    &PrecedenceMatrix::from_weighted_rankings(&rankings, &weights).unwrap()
                );
            }
        }

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
            threads in 1usize..9,
            seed in any::<u64>()
        ) {
            // Appending onto a serially built matrix must equal the row-block
            // rebuild of the extended profile for every thread count (both
            // are bit-identical to the serial rebuild, hence to each other).
            let mut rng = StdRng::seed_from_u64(seed);
            let mut rankings: Vec<Ranking> =
                (0..m).map(|_| Ranking::random(n, &mut rng)).collect();
            let mut matrix = PrecedenceMatrix::from_rankings(&rankings).unwrap();
            let extra = Ranking::random(n, &mut rng);
            matrix.apply_append(&extra, 1).unwrap();
            rankings.push(extra);
            prop_assert_eq!(&matrix.cells, &build_cells(&rankings, &vec![1; m + 1], n, threads));
        }

        #[test]
        fn prop_sharded_build_is_bit_identical(
            n in 2usize..12,
            m in 1usize..20,
            threads in 1usize..9,
            seed in any::<u64>()
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let rankings: Vec<Ranking> = (0..m).map(|_| Ranking::random(n, &mut rng)).collect();
            let serial = PrecedenceMatrix::from_rankings(&rankings).unwrap();
            prop_assert_eq!(&serial.cells, &build_cells(&rankings, &vec![1; m], n, threads));

            let weights: Vec<u32> = (0..m as u32).map(|i| (seed as u32 % 5) + i % 7 + 1).collect();
            let serial_w = PrecedenceMatrix::from_weighted_rankings(&rankings, &weights).unwrap();
            prop_assert_eq!(&serial_w.cells, &build_cells(&rankings, &weights, n, threads));
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

        #[test]
        fn prop_weighted_total_disagreements_matches_weighted_kendall_sums(
            n in 1usize..15,
            m in 1usize..8,
            seed in any::<u64>()
        ) {
            // Weights up to 2^28 over at most 7 rankings keep every cell
            // inside u32 while row sums need the u64 accumulator.
            let mut rng = StdRng::seed_from_u64(seed);
            let rankings: Vec<Ranking> = (0..m).map(|_| Ranking::random(n, &mut rng)).collect();
            let weights: Vec<u32> = (0..m).map(|_| rng.gen_range(1..(1 << 28) + 1) as u32).collect();
            let consensus = Ranking::random(n, &mut rng);
            let w = PrecedenceMatrix::from_weighted_rankings(&rankings, &weights).unwrap();
            let expected: u64 = rankings
                .iter()
                .zip(&weights)
                .map(|(r, &weight)| kendall_tau(&consensus, r).unwrap() * weight as u64)
                .sum();
            prop_assert_eq!(w.total_disagreements(&consensus).unwrap(), expected);
        }
    }
}
