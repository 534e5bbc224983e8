//! Schulze method (Schulze 2018): strongest-path consensus ranking.
//!
//! The precedence matrix is treated as a weighted directed graph whose edge `a → b` carries
//! the number of base rankings preferring `a` over `b`. The *strength* of a path is the
//! weight of its weakest edge; `p[a][b]` is the strength of the strongest path from `a` to
//! `b`, computed with a Floyd–Warshall variant in O(n³). Candidates are then ordered by how
//! many opponents they beat in the strongest-path comparison (`p[a][b] > p[b][a]`), which
//! yields a complete, Condorcet-consistent order; ties are broken by candidate id.
//!
//! Two kernels implement the strongest-path computation:
//!
//! * [`SchulzeAggregator::strongest_paths_flat`] — the untiled flat serial
//!   kernel on `u32` cells: flat row-major [`PathMatrix`], rows read as
//!   slices, entire relaxation rows skipped when `p[a][k] == 0`.
//! * [`SchulzeAggregator::strongest_paths_matrix`] — the production
//!   dispatcher: the flat kernel below [`FW_TILE_MIN_N`] candidates, and from
//!   there cache-blocked (tiled) Floyd–Warshall on [`FW_TILE`]-wide tiles in
//!   the standard three-phase blocked order (diagonal tile, then the pivot
//!   row/column panels, then the remainder), parallelised by tile-row blocks
//!   when the thread budget allows. The flat kernel stays serial at every
//!   thread count.
//!
//! All kernels produce bit-identical strengths: the max–min (widest-path)
//! closure is unique, every relaxation uses genuine path strengths (so no
//! kernel can overshoot it), and each kernel performs a complete
//! Floyd–Warshall schedule (so none can undershoot it).
//!
//! Cells are `u32`: path strengths are bounded by the largest pairwise
//! support, and [`PrecedenceMatrix`] construction rejects profiles whose total
//! ranking weight exceeds `u32::MAX`, so the conversion is exact. Halving the
//! cell width halves memory bandwidth and doubles SIMD lanes in the
//! autovectorized inner loops.
//!
//! # Consensus by majority-graph components
//!
//! [`SchulzeAggregator::consensus_from_matrix_with`] never closes the full
//! matrix unless it must. One iterative Tarjan pass over the direct edges
//! finds the strongly connected components of the strict-majority graph
//! (`a → b` when support(a, b) > support(b, a)). The kernel dispatcher runs
//! only inside each component of two or more candidates; across components a
//! candidate beats exactly the candidates it reaches. This is exact, so beat
//! counts and rankings equal those of the full closure:
//!
//! * every edge weighs at least 1, so `p[a][b] > 0` exactly when `b` is
//!   reachable from `a`;
//! * a path between two members of one component never leaves it (a
//!   candidate on it would reach and be reached by both, so it is a member),
//!   so the closure of the component's sub-matrix equals the full closure on
//!   those pairs;
//! * across components at most one direction is reachable (both would merge
//!   them), so `p[a][b] > p[b][a]` exactly when `b` is reachable from `a`.
//!
//! Reachability comes out of the same Tarjan pass. Components complete sinks
//! first, and each keeps a bitset of its members and every candidate it
//! reaches; an edge into a component already reached is skipped a 64-bit
//! word at a time. The cost is O(n² + Σ kᵢ³) for components of kᵢ
//! candidates, instead of O(n³).
//! Mallows-like profiles split into hundreds of components and cost about
//! the O(n²) scans. A profile whose majority graph is one component, such as
//! a uniform-random one with odd |R|, runs the kernel in place on the full
//! buffer: the full-matrix path plus one Tarjan scan.

use std::cmp::Ordering;
use std::sync::{Barrier, Mutex};

use mani_ranking::parallel::{record_fw_blocked_solve, tile_edge};
use mani_ranking::{
    shard_ranges, CandidateId, Parallelism, PrecedenceMatrix, Ranking, RankingProfile, Result,
};

use crate::borda::ranking_from_points;
use crate::traits::ConsensusMethod;

/// Candidate count from which strongest paths are closed by the tiled
/// kernel. Below it the whole strength matrix (≤ 512² × 4 B = 1 MiB) sits in
/// L2 anyway and the blocked schedule's phase overhead is pure loss: on the
/// dev host the tiled kernel pulls ahead of the flat one only between
/// n = 384 (0.9×) and n = 1000 (1.5×).
pub const FW_TILE_MIN_N: usize = 512;

/// Tile edge of the tiled kernel. A 64×64 tile of `u32` cells is 16 KiB; the
/// three tiles a blocked phase touches (C, the A column panel, and the B row
/// panel) fit a 64 KiB L1 with room for the pivot-row scratch, and a whole
/// tile-row panel at CSRankings scale (64 × 5000 × 4 B ≈ 1.2 MiB) still fits
/// a mid-size L2.
pub const FW_TILE: usize = 64;

/// Flat row-major matrix of strongest path strengths.
///
/// Cells are `u32`: strengths are min/max combinations of pairwise supports,
/// which the precedence-matrix build guarantees fit in `u32`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PathMatrix {
    n: usize,
    strengths: Vec<u32>,
}

impl PathMatrix {
    /// Number of candidates.
    pub fn num_candidates(&self) -> usize {
        self.n
    }

    /// Strength of the strongest path from `a` to `b`.
    pub fn strength(&self, a: usize, b: usize) -> u32 {
        self.strengths[a * self.n + b]
    }

    /// Row `a`: strengths of the strongest paths from `a` to every candidate.
    pub fn row(&self, a: usize) -> &[u32] {
        &self.strengths[a * self.n..][..self.n]
    }

    /// The Schulze order of these strengths: candidates by the number of
    /// opponents they beat (`p[a][b] > p[b][a]`), ties broken by id. Reads all
    /// n² cells; [`SchulzeAggregator::consensus_from_matrix_with`] reaches the
    /// same order without closing the full matrix.
    pub fn ranking(&self) -> Ranking {
        ranking_from_points(&beat_counts(&self.strengths, self.n))
    }
}

/// The Schulze consensus method.
#[derive(Debug, Clone, Copy, Default)]
pub struct SchulzeAggregator;

impl SchulzeAggregator {
    /// Creates a Schulze aggregator.
    pub fn new() -> Self {
        Self
    }

    /// Computes strongest path strengths with the untiled flat serial kernel
    /// at any size.
    ///
    /// Kept public as the benchmark comparison point for the tiled kernel;
    /// production call sites use
    /// [`SchulzeAggregator::strongest_paths_matrix`].
    ///
    /// Every edge weighs at least 1 and only edges with positive margin exist
    /// (the "winning votes" variant: `a → b` when more rankings prefer `a` to
    /// `b` than vice versa).
    pub fn strongest_paths_flat(&self, matrix: &PrecedenceMatrix) -> PathMatrix {
        let n = matrix.num_candidates();
        let mut strengths = direct_edges(matrix);
        floyd_warshall_serial(&mut strengths, n);
        zero_diagonal(&mut strengths, n);
        PathMatrix { n, strengths }
    }

    /// Computes strongest path strengths into a flat [`PathMatrix`]: flat
    /// serial below [`FW_TILE_MIN_N`] candidates, tiled from there on up to
    /// [`Parallelism::max_threads`] threads.
    ///
    /// Bit-identical to [`SchulzeAggregator::strongest_paths_flat`] for every
    /// thread count: the widest-path closure is unique, so any complete
    /// Floyd–Warshall schedule — blocked or not, sharded or not — computes
    /// the same integers.
    pub fn strongest_paths_matrix(
        &self,
        matrix: &PrecedenceMatrix,
        parallelism: &Parallelism,
    ) -> PathMatrix {
        let n = matrix.num_candidates();
        let mut strengths = direct_edges(matrix);
        close_paths(&mut strengths, n, parallelism.max_threads());
        PathMatrix { n, strengths }
    }

    /// Computes the Schulze consensus from a precomputed precedence matrix.
    pub fn consensus_from_matrix(&self, matrix: &PrecedenceMatrix) -> Ranking {
        self.consensus_from_matrix_with(matrix, &Parallelism::serial())
    }

    /// Computes the Schulze consensus from a precedence matrix under an
    /// explicit kernel-parallelism budget.
    ///
    /// Strongest paths are closed only inside each strongly connected
    /// component of the strict-majority graph, with the kernel
    /// [`SchulzeAggregator::strongest_paths_matrix`] picks for that
    /// component's size; pairs in different components are decided by
    /// reachability (see the module docs). The ranking equals
    /// [`PathMatrix::ranking`] of the full closure for every thread count.
    pub fn consensus_from_matrix_with(
        &self,
        matrix: &PrecedenceMatrix,
        parallelism: &Parallelism,
    ) -> Ranking {
        let threads = parallelism.max_threads();
        consensus_by_components(matrix, |p, k| close_paths(p, k, threads))
    }

    /// Computes the Schulze consensus for a profile.
    pub fn consensus(&self, profile: &RankingProfile) -> Ranking {
        self.consensus_from_matrix(&profile.precedence_matrix())
    }
}

/// Initial direct edges: `p[a][b] = support(a, b)` when it beats the opposing
/// support `row(a)[b]`.
///
/// `support_for(a, b)` is `row(b)[a]` in the precedence layout, a column
/// read. The buffer is filled in [`EDGE_TILE`]² tiles: each tile's supports
/// are first transposed into an L1-resident scratch tile from row reads, so
/// the column walk never strides across the whole matrix.
fn direct_edges(matrix: &PrecedenceMatrix) -> Vec<u32> {
    let n = matrix.num_candidates();
    let mut strengths = vec![0u32; n * n];
    let mut support = [[0u32; EDGE_TILE]; EDGE_TILE];
    for a0 in (0..n).step_by(EDGE_TILE) {
        let a1 = (a0 + EDGE_TILE).min(n);
        for b0 in (0..n).step_by(EDGE_TILE) {
            let b1 = (b0 + EDGE_TILE).min(n);
            for (j, b) in (b0..b1).enumerate() {
                let column = &matrix.row(CandidateId(b as u32))[a0..a1];
                for (row, &s) in support.iter_mut().zip(column) {
                    row[j] = s;
                }
            }
            for (a, support_a) in (a0..a1).zip(&support) {
                let against = &matrix.row(CandidateId(a as u32))[b0..b1];
                let dst = &mut strengths[a * n + b0..a * n + b1];
                for ((slot, &s), &against) in dst.iter_mut().zip(support_a).zip(against) {
                    *slot = if s > against { s } else { 0 };
                }
            }
        }
    }
    // No candidate has an edge to itself, whatever the diagonal counts hold.
    zero_diagonal(&mut strengths, n);
    strengths
}

/// Tile edge of [`direct_edges`]: a 64 × 64 `u32` scratch tile is 16 KiB.
const EDGE_TILE: usize = 64;

/// The Schulze ranking of `matrix` with strongest paths closed by `close`
/// only inside each majority-graph component of two or more candidates
/// (see the module docs). `close(p, k)` must close a `k × k` direct-edge
/// buffer in place and zero its diagonal.
fn consensus_by_components(
    matrix: &PrecedenceMatrix,
    mut close: impl FnMut(&mut [u32], usize),
) -> Ranking {
    let n = matrix.num_candidates();
    let mut edges = direct_edges(matrix);
    let components = MajorityComponents::new(&edges, n);
    let beats = if components.len() <= 1 {
        close(&mut edges, n);
        beat_counts(&edges, n)
    } else {
        components.beat_counts(&edges, n, close)
    };
    ranking_from_points(&beats)
}

/// Closes the `n × n` direct-edge buffer `p` into strongest path strengths:
/// flat serial below [`FW_TILE_MIN_N`] candidates, where one tile would cover
/// the whole matrix, tiled on up to `threads` threads from there.
fn close_paths(p: &mut [u32], n: usize, threads: usize) {
    let tile = tile_edge(n, FW_TILE_MIN_N, FW_TILE);
    if tile < n {
        close_tiled(p, n, tile, threads);
    } else {
        floyd_warshall_serial(p, n);
        zero_diagonal(p, n);
    }
}

/// Closes `p` with the tiled kernel on `tile`-wide tiles, split by tile-row
/// blocks across up to `threads` threads, and records the solve in the
/// kernel counters.
fn close_tiled(p: &mut [u32], n: usize, tile: usize, threads: usize) {
    let nb = n.div_ceil(tile);
    if threads > 1 && nb > 1 {
        floyd_warshall_tiled_parallel(p, n, tile, threads);
    } else {
        floyd_warshall_tiled_serial(p, n, tile);
    }
    record_fw_blocked_solve((nb * nb * nb) as u64);
    zero_diagonal(p, n);
}

/// Beat counts of a closed `n × n` strength matrix: `beats[a]` is the number
/// of `b` with `p[a][b] > p[b][a]`. Each pair is compared once.
fn beat_counts(p: &[u32], n: usize) -> Vec<u64> {
    let mut beats = vec![0u64; n];
    for a in 0..n {
        let row_a = &p[a * n..][..n];
        for b in a + 1..n {
            match row_a[b].cmp(&p[b * n + a]) {
                Ordering::Greater => beats[a] += 1,
                Ordering::Less => beats[b] += 1,
                Ordering::Equal => {}
            }
        }
    }
    beats
}

/// Strongly connected components of the strict-majority graph
/// (`a → b` when `edges[a * n + b] > 0`), numbered in Tarjan's emission
/// order: sinks first, so every edge between two components points from a
/// later component to an earlier one.
struct MajorityComponents {
    /// Candidates grouped by component: component `c` is
    /// `members[starts[c]..starts[c + 1]]`.
    members: Vec<u32>,
    starts: Vec<usize>,
    /// Per component: how many candidates of other components it reaches.
    /// Every member beats exactly those.
    across: Vec<u64>,
}

impl MajorityComponents {
    /// Iterative Tarjan over the dense edge buffer, scanning every row once
    /// in 64-column words: O(n²) time and no recursion.
    ///
    /// Each DFS frame also collects, as a bitset over candidates, the
    /// candidates its candidate reaches in completed components. An edge
    /// into a completed component that the set does not hold yet ORs in that
    /// component's closed set (its members and everything they reach); the
    /// other edges into it are then already covered, a word at a time. A
    /// frame that is not a component root folds its set into its parent's,
    /// which lies in the same component. So a root's set is final for its
    /// component, and its popcount is the component's `across`.
    fn new(edges: &[u32], n: usize) -> Self {
        const UNSEEN: u32 = u32::MAX;
        let words = n.div_ceil(64);
        let mut index = vec![UNSEEN; n];
        let mut low = vec![0u32; n];
        let mut of = vec![0u32; n];
        // Bitsets: `live` holds candidates whose component is not complete,
        // `unseen` those not visited yet.
        let mut live = vec![u64::MAX; words];
        let mut unseen = vec![u64::MAX; words];
        let mut stack: Vec<usize> = Vec::new();
        // DFS frames: (candidate, next column of its row to scan), and
        // `words` words of reached candidates per frame in `acc`.
        let mut frames: Vec<(usize, usize)> = Vec::new();
        let mut acc: Vec<u64> = Vec::new();
        // Closed set of each completed component: members plus reach.
        let mut closed: Vec<u64> = Vec::new();
        let mut components = Self {
            members: Vec::with_capacity(n),
            starts: vec![0],
            across: Vec::new(),
        };
        let mut next = 0u32;
        for root in 0..n {
            if index[root] != UNSEEN {
                continue;
            }
            let mut visit = Some(root);
            loop {
                if let Some(v) = visit.take() {
                    index[v] = next;
                    low[v] = next;
                    next += 1;
                    unseen[v / 64] &= !(1 << (v % 64));
                    stack.push(v);
                    frames.push((v, 0));
                    acc.resize(acc.len() + words, 0);
                }
                let Some(frame) = frames.last_mut() else {
                    break;
                };
                let v = frame.0;
                let row = &edges[v * n..][..n];
                let frame_acc = acc.len() - words;
                let set = &mut acc[frame_acc..];
                let mut low_v = low[v];
                // No link goes below the stack's bottom: once `low_v` is
                // there, only unvisited neighbours still matter.
                let floor = index[stack[0]];
                'scan: while frame.1 < n {
                    let start = frame.1;
                    let word = start / 64;
                    let end = ((word + 1) * 64).min(n);
                    frame.1 = end;
                    let mask = nonzero_mask(&row[start..end]) << (start % 64);
                    let mut cross = mask & !live[word] & !set[word];
                    while cross != 0 {
                        let w = word * 64 + cross.trailing_zeros() as usize;
                        let reached = &closed[of[w] as usize * words..][..words];
                        for (dst, &src) in set.iter_mut().zip(reached) {
                            *dst |= src;
                        }
                        cross &= !set[word];
                    }
                    let mut open = mask & live[word];
                    while open != 0 {
                        if low_v == floor {
                            open &= unseen[word];
                            if open == 0 {
                                break;
                            }
                        }
                        let w = word * 64 + open.trailing_zeros() as usize;
                        open &= open - 1;
                        if index[w] == UNSEEN {
                            frame.1 = w + 1;
                            visit = Some(w);
                            break 'scan;
                        }
                        low_v = low_v.min(index[w]);
                    }
                }
                low[v] = low_v;
                if visit.is_some() {
                    continue;
                }
                frames.pop();
                if low[v] == index[v] {
                    let c = components.across.len();
                    let set = &acc[frame_acc..];
                    components
                        .across
                        .push(set.iter().map(|w| u64::from(w.count_ones())).sum());
                    closed.extend_from_slice(set);
                    let closed_c = &mut closed[c * words..];
                    loop {
                        let w = stack.pop().expect("a root's component is on the stack");
                        live[w / 64] &= !(1 << (w % 64));
                        closed_c[w / 64] |= 1 << (w % 64);
                        of[w] = c as u32;
                        components.members.push(w as u32);
                        if w == v {
                            break;
                        }
                    }
                    components.starts.push(components.members.len());
                    acc.truncate(frame_acc);
                    if !frames.is_empty() {
                        // The tree edge from the parent crosses into `c`.
                        let parent_set = &mut acc[frame_acc - words..];
                        if parent_set[v / 64] & (1 << (v % 64)) == 0 {
                            for (dst, &src) in parent_set.iter_mut().zip(&*closed_c) {
                                *dst |= src;
                            }
                        }
                    }
                } else {
                    let parent = frames.last().expect("a non-root has a parent").0;
                    low[parent] = low[parent].min(low[v]);
                    let (parent_set, set) = acc[frame_acc - words..].split_at_mut(words);
                    for (dst, &src) in parent_set.iter_mut().zip(&*set) {
                        *dst |= src;
                    }
                    acc.truncate(frame_acc);
                }
            }
        }
        components
    }

    /// Number of components.
    fn len(&self) -> usize {
        self.across.len()
    }

    /// Schulze beat counts: `across` for every member, plus, inside a
    /// component of two or more candidates, the beats of the component's own
    /// `k × k` closure from `close`.
    fn beat_counts(
        &self,
        edges: &[u32],
        n: usize,
        mut close: impl FnMut(&mut [u32], usize),
    ) -> Vec<u64> {
        let mut beats = vec![0u64; n];
        let mut sub = Vec::new();
        for (c, &across) in self.across.iter().enumerate() {
            let members = &self.members[self.starts[c]..self.starts[c + 1]];
            if let [single] = members {
                beats[*single as usize] = across;
                continue;
            }
            let k = members.len();
            sub.clear();
            for &a in members {
                let row_a = &edges[a as usize * n..][..n];
                sub.extend(members.iter().map(|&b| row_a[b as usize]));
            }
            close(&mut sub, k);
            for (&a, within) in members.iter().zip(beat_counts(&sub, k)) {
                beats[a as usize] = across + within;
            }
        }
        beats
    }
}

/// Bit `i` set where `cells[i] != 0`, for at most 64 cells.
fn nonzero_mask(cells: &[u32]) -> u64 {
    cells
        .iter()
        .enumerate()
        .fold(0, |mask, (i, &s)| mask | u64::from(s != 0) << i)
}

/// Restores `p[a][a] = 0` after a kernel run.
///
/// The kernels let diagonal cells grow during relaxation (a cycle strength is
/// a genuine path strength, so `min`-ing against it can never corrupt an
/// off-diagonal cell) and pay one cheap pass here instead of branching in the
/// O(n³) hot loop.
fn zero_diagonal(p: &mut [u32], n: usize) {
    for a in 0..n {
        p[a * n + a] = 0;
    }
}

/// One branchless widest-path relaxation of a full row: for every column `b`,
/// `row_a[b] = max(row_a[b], min(pak, row_k[b]))`. Equal-length zipped slices
/// with no bounds checks, so the loop autovectorizes (8 `u32` lanes per AVX2
/// op).
fn relax_full_row(row_a: &mut [u32], row_k: &[u32], pak: u32) {
    for (slot, &pkb) in row_a.iter_mut().zip(row_k) {
        *slot = (*slot).max(pak.min(pkb));
    }
}

/// Serial untiled Floyd–Warshall over the flat strength buffer: the
/// pivot-row closure of the tiled kernel, with every row a pivot row.
fn floyd_warshall_serial(p: &mut [u32], n: usize) {
    close_pivot_rows(p, n, 0, 0, n, &mut vec![0u32; n]);
}

/// Phase 1 + 2 (row panel) of a `k`-block: closes the pivot rows `k0..k1` —
/// full width, which covers the diagonal tile and the row panel together —
/// against their own pivots with a mini Floyd–Warshall (`k` ascending,
/// snapshot of the self-dependent pivot row per step).
///
/// `block` is a contiguous row block starting at matrix row `row_start` that
/// contains rows `k0..k1`; `row_k` is an `n`-cell scratch buffer.
fn close_pivot_rows(
    block: &mut [u32],
    n: usize,
    row_start: usize,
    k0: usize,
    k1: usize,
    row_k: &mut [u32],
) {
    for k in k0..k1 {
        // Row k is stable during step k (relaxing it through itself is a
        // no-op), so one snapshot lets every other row read it without
        // aliasing `block`.
        row_k.copy_from_slice(&block[(k - row_start) * n..][..n]);
        for a in k0..k1 {
            if a == k {
                continue;
            }
            let row_a = &mut block[(a - row_start) * n..][..n];
            let pak = row_a[k];
            if pak == 0 {
                // min(0, ·) can never improve a non-negative strength: the
                // whole relaxation row is a no-op. On realistic profiles this
                // skips roughly half of all (a, k) pairs.
                continue;
            }
            relax_full_row(row_a, row_k, pak);
        }
    }
}

/// Phase 2 (column panel) for one row: relaxes the pivot-column segment
/// `seg = p[a][k0..k1]` through pivots `k0..k1` in ascending order. The
/// segment is self-dependent — `p[a][k]` for a later pivot may be improved by
/// an earlier one — so `pak` is re-read from the segment each step.
fn relax_pivot_segment(seg: &mut [u32], panel: &[u32], n: usize, k0: usize) {
    for t in 0..seg.len() {
        let pak = seg[t];
        if pak == 0 {
            continue;
        }
        let brow = &panel[t * n + k0..][..seg.len()];
        for (slot, &pkb) in seg.iter_mut().zip(brow) {
            *slot = (*slot).max(pak.min(pkb));
        }
    }
}

/// SIMD-register width (in `u32` lanes) for the phase-3 accumulator: 64 bytes,
/// i.e. two AVX2 or one AVX-512 register's worth per accumulator block.
const PHASE3_LANES: usize = 32;

/// Phase 3 (remainder) for one row and one column tile: relaxes
/// `seg = p[a][j0..j0 + seg.len()]` through the block's pivots. `pa[t]` is the
/// final `p[a][k0 + t]` for this block (the column panel runs first), `panel`
/// the closed pivot rows, so no cell read here is concurrently written.
///
/// Because every `pa[t]` and panel cell is already final, the `t`-loop is a
/// pure `max` reduction — reorderable without changing a single bit. The
/// kernel exploits that by running `j`-outer / `t`-inner with a fixed-width
/// accumulator that the compiler keeps in vector registers: each relaxation
/// costs one panel load instead of the load + load + store of a `t`-outer
/// sweep. This register blocking is what the cache blocking buys — the flat
/// kernel's global `k` steps are sequentially dependent, so it cannot batch
/// pivots this way.
fn relax_segment(seg: &mut [u32], pa: &[u32], panel: &[u32], n: usize, j0: usize) {
    let mut chunks = seg.chunks_exact_mut(PHASE3_LANES);
    let mut j = j0;
    for chunk in &mut chunks {
        let mut acc = [0u32; PHASE3_LANES];
        acc.copy_from_slice(chunk);
        for (t, &pak) in pa.iter().enumerate() {
            if pak == 0 {
                continue;
            }
            let brow: &[u32; PHASE3_LANES] = panel[t * n + j..][..PHASE3_LANES]
                .try_into()
                .expect("panel tile chunk is PHASE3_LANES wide");
            for (slot, &pkb) in acc.iter_mut().zip(brow) {
                *slot = (*slot).max(pak.min(pkb));
            }
        }
        chunk.copy_from_slice(&acc);
        j += PHASE3_LANES;
    }
    let tail = chunks.into_remainder();
    for (t, &pak) in pa.iter().enumerate() {
        if pak == 0 {
            continue;
        }
        let brow = &panel[t * n + j..][..tail.len()];
        for (slot, &pkb) in tail.iter_mut().zip(brow) {
            *slot = (*slot).max(pak.min(pkb));
        }
    }
}

/// Rows relaxed together in phase 3: one panel load is shared by this many
/// row accumulators (GEMM-style register blocking in the row dimension), so
/// the per-relaxation cost drops from one load + one `min` + one `max` to
/// `1/ROW_GROUP` loads + one `min` + one `max`.
const ROW_GROUP: usize = 8;

/// Phase 3 for one column tile of a group of `ROW_GROUP` contiguous rows
/// (`group` is `ROW_GROUP × n`, `pa` is `ROW_GROUP × width` final
/// pivot-column strengths). Each loaded panel chunk feeds all `ROW_GROUP`
/// accumulators; the `pak == 0` skip is dropped here because a zero pivot
/// strength relaxes to `max(slot, 0) = slot` — a bit-exact no-op — and the
/// branchless form keeps the accumulators in vector registers.
fn relax_segment_group(
    group: &mut [u32],
    pa: &[u32],
    panel: &[u32],
    n: usize,
    width: usize,
    j0: usize,
    j1: usize,
) {
    let mut j = j0;
    while j + PHASE3_LANES <= j1 {
        let mut acc = [[0u32; PHASE3_LANES]; ROW_GROUP];
        for (r, acc_r) in acc.iter_mut().enumerate() {
            acc_r.copy_from_slice(&group[r * n + j..][..PHASE3_LANES]);
        }
        for t in 0..width {
            let brow: &[u32; PHASE3_LANES] = panel[t * n + j..][..PHASE3_LANES]
                .try_into()
                .expect("panel chunk is PHASE3_LANES wide");
            for (r, acc_r) in acc.iter_mut().enumerate() {
                let pak = pa[r * width + t];
                for (slot, &pkb) in acc_r.iter_mut().zip(brow) {
                    *slot = (*slot).max(pak.min(pkb));
                }
            }
        }
        for (r, acc_r) in acc.iter().enumerate() {
            group[r * n + j..][..PHASE3_LANES].copy_from_slice(acc_r);
        }
        j += PHASE3_LANES;
    }
    if j < j1 {
        for r in 0..ROW_GROUP {
            let seg = &mut group[r * n + j..][..j1 - j];
            relax_segment_tail(seg, &pa[r * width..][..width], panel, n, j);
        }
    }
}

/// Scalar (`t`-outer) phase-3 fallback for a sub-lane-width column tail.
fn relax_segment_tail(seg: &mut [u32], pa: &[u32], panel: &[u32], n: usize, j0: usize) {
    for (t, &pak) in pa.iter().enumerate() {
        if pak == 0 {
            continue;
        }
        let brow = &panel[t * n + j0..][..seg.len()];
        for (slot, &pkb) in seg.iter_mut().zip(brow) {
            *slot = (*slot).max(pak.min(pkb));
        }
    }
}

/// Column panel + remainder phases for a group of `ROW_GROUP` contiguous
/// non-pivot rows. Phase 2 (the self-dependent pivot-column segment) runs per
/// row; phase 3 runs over the whole group per column tile so panel loads are
/// shared.
fn relax_row_group(
    group: &mut [u32],
    panel: &[u32],
    pa: &mut [u32],
    n: usize,
    tile: usize,
    k0: usize,
    k1: usize,
) {
    let width = k1 - k0;
    for r in 0..ROW_GROUP {
        let row = &mut group[r * n..][..n];
        relax_pivot_segment(&mut row[k0..k1], panel, n, k0);
        pa[r * width..][..width].copy_from_slice(&row[k0..k1]);
    }
    let mut j0 = 0;
    while j0 < n {
        let j1 = (j0 + tile).min(n);
        if j0 != k0 {
            relax_segment_group(group, &pa[..ROW_GROUP * width], panel, n, width, j0, j1);
        }
        j0 = j1;
    }
}

/// Relaxes every row of a contiguous region against the closed pivot panel.
/// The region must contain no pivot row (callers split around the pivot
/// block). Full groups of [`ROW_GROUP`] rows take the register-blocked path;
/// the remainder rows fall back to the single-row kernel. `pa` is a
/// `ROW_GROUP × tile` scratch buffer.
fn relax_rows(
    region: &mut [u32],
    panel: &[u32],
    pa: &mut [u32],
    n: usize,
    tile: usize,
    k0: usize,
    k1: usize,
) {
    let width = k1 - k0;
    let mut groups = region.chunks_exact_mut(ROW_GROUP * n);
    for group in &mut groups {
        relax_row_group(group, panel, pa, n, tile, k0, k1);
    }
    for row in groups.into_remainder().chunks_exact_mut(n) {
        relax_row_blocked(row, panel, &mut pa[..width], n, tile, k0, k1);
    }
}

/// Column panel + remainder phases for one non-pivot row of a `k`-block.
fn relax_row_blocked(
    row_a: &mut [u32],
    panel: &[u32],
    pa: &mut [u32],
    n: usize,
    tile: usize,
    k0: usize,
    k1: usize,
) {
    relax_pivot_segment(&mut row_a[k0..k1], panel, n, k0);
    pa.copy_from_slice(&row_a[k0..k1]);
    let mut j0 = 0;
    while j0 < n {
        let j1 = (j0 + tile).min(n);
        if j0 != k0 {
            relax_segment(&mut row_a[j0..j1], pa, panel, n, j0);
        }
        j0 = j1;
    }
}

/// Serial cache-blocked Floyd–Warshall with `tile × tile` tiles.
///
/// Per `k`-block (pivots `k0..k1`) the standard three-phase blocked order
/// runs: the diagonal tile and pivot row panel are closed in place
/// ([`close_pivot_rows`]), the closed pivot rows are snapshotted into `panel`
/// (so every other row can read them without aliasing), then each remaining
/// row relaxes its pivot-column segment (phase 2) followed by the other
/// column tiles (phase 3). Working-set per phase-3 step: one `tile`-cell row
/// segment, a `tile`-cell pivot-strength cache, and one `tile × tile` panel
/// tile — sized for L1 at the default tile of 64 (16 KiB per tile).
fn floyd_warshall_tiled_serial(p: &mut [u32], n: usize, tile: usize) {
    let nb = n.div_ceil(tile);
    let mut panel = vec![0u32; tile * n];
    let mut row_k = vec![0u32; n];
    let mut pa = vec![0u32; ROW_GROUP * tile];
    for kb in 0..nb {
        let k0 = kb * tile;
        let k1 = (k0 + tile).min(n);
        let width = k1 - k0;
        close_pivot_rows(p, n, 0, k0, k1, &mut row_k);
        panel[..width * n].copy_from_slice(&p[k0 * n..k1 * n]);
        let (before, rest) = p.split_at_mut(k0 * n);
        let after = &mut rest[width * n..];
        relax_rows(before, &panel, &mut pa, n, tile, k0, k1);
        relax_rows(after, &panel, &mut pa, n, tile, k0, k1);
    }
}

/// Tile-row-parallel cache-blocked Floyd–Warshall.
///
/// Workers own contiguous blocks of *tile rows* (so every `k`-block's pivot
/// rows live inside exactly one worker). Per `k`-block the owner closes the
/// pivot rows (phases 1 + 2-row) and publishes them into a shared panel
/// buffer; after a barrier every worker copies the panel locally and runs the
/// column-panel and remainder phases on its own rows. A second barrier keeps
/// block `kb + 1`'s publish from racing block `kb`'s readers.
fn floyd_warshall_tiled_parallel(p: &mut [u32], n: usize, tile: usize, threads: usize) {
    let nb = n.div_ceil(tile);
    let tile_ranges = shard_ranges(nb, threads);
    if tile_ranges.len() <= 1 {
        floyd_warshall_tiled_serial(p, n, tile);
        return;
    }
    let barrier = Barrier::new(tile_ranges.len());
    let shared_panel = Mutex::new(vec![0u32; tile * n]);
    // Split the flat buffer into per-worker blocks of whole tile rows.
    let mut blocks: Vec<(usize, &mut [u32])> = Vec::with_capacity(tile_ranges.len());
    let mut rest = p;
    for range in &tile_ranges {
        let row_start = range.start * tile;
        let row_end = (range.end * tile).min(n);
        let (block, tail) = rest.split_at_mut((row_end - row_start) * n);
        blocks.push((row_start, block));
        rest = tail;
    }
    std::thread::scope(|scope| {
        for (row_start, block) in blocks {
            let barrier = &barrier;
            let shared_panel = &shared_panel;
            scope.spawn(move || {
                let rows = block.len() / n;
                let mut panel = vec![0u32; tile * n];
                let mut row_k = vec![0u32; n];
                let mut pa = vec![0u32; ROW_GROUP * tile];
                for kb in 0..nb {
                    let k0 = kb * tile;
                    let k1 = (k0 + tile).min(n);
                    let width = k1 - k0;
                    let owns_pivot = (row_start..row_start + rows).contains(&k0);
                    if owns_pivot {
                        close_pivot_rows(block, n, row_start, k0, k1, &mut row_k);
                        let mut shared = shared_panel.lock().expect("panel lock poisoned");
                        shared[..width * n]
                            .copy_from_slice(&block[(k0 - row_start) * n..(k1 - row_start) * n]);
                    }
                    // All workers see the closed pivot rows before relaxing.
                    barrier.wait();
                    panel[..width * n].copy_from_slice(
                        &shared_panel.lock().expect("panel lock poisoned")[..width * n],
                    );
                    if owns_pivot {
                        let (before, rest) = block.split_at_mut((k0 - row_start) * n);
                        let after = &mut rest[width * n..];
                        relax_rows(before, &panel, &mut pa, n, tile, k0, k1);
                        relax_rows(after, &panel, &mut pa, n, tile, k0, k1);
                    } else {
                        relax_rows(block, &panel, &mut pa, n, tile, k0, k1);
                    }
                    // Nobody may publish block kb + 1 while a worker still
                    // reads the shared panel for block kb.
                    barrier.wait();
                }
            });
        }
    });
}

impl ConsensusMethod for SchulzeAggregator {
    fn name(&self) -> &'static str {
        "Schulze"
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
        let r = Ranking::from_ids([2, 0, 3, 1]).unwrap();
        let profile = RankingProfile::new(vec![r.clone(); 4]).unwrap();
        assert_eq!(SchulzeAggregator::new().consensus(&profile), r);
    }

    #[test]
    fn condorcet_winner_is_ranked_first() {
        let profile = RankingProfile::new(vec![
            Ranking::from_ids([1, 0, 2]).unwrap(),
            Ranking::from_ids([1, 2, 0]).unwrap(),
            Ranking::from_ids([0, 1, 2]).unwrap(),
        ])
        .unwrap();
        let consensus = SchulzeAggregator::new().consensus(&profile);
        assert_eq!(consensus.candidate_at(0), CandidateId(1));
    }

    /// The reference every kernel must match: the widest-path closure by
    /// the textbook triple loop over nested rows, cell by cell.
    #[allow(clippy::needless_range_loop)] // Floyd-Warshall style: indices are the clearer idiom
    fn naive_strongest_paths(matrix: &PrecedenceMatrix) -> PathMatrix {
        let n = matrix.num_candidates();
        let support =
            |a: usize, b: usize| matrix.support_for(CandidateId(a as u32), CandidateId(b as u32));
        let mut p = vec![vec![0u32; n]; n];
        for a in 0..n {
            for b in 0..n {
                if a != b && support(a, b) > support(b, a) {
                    p[a][b] = support(a, b);
                }
            }
        }
        for k in 0..n {
            for a in 0..n {
                for b in 0..n {
                    if a != k && b != k && a != b {
                        p[a][b] = p[a][b].max(p[a][k].min(p[k][b]));
                    }
                }
            }
        }
        PathMatrix {
            n,
            strengths: p.concat(),
        }
    }

    /// Strongest paths from the tiled kernel at an explicit tile edge and
    /// thread count, whatever the size.
    fn tiled(matrix: &PrecedenceMatrix, tile: usize, threads: usize) -> PathMatrix {
        let n = matrix.num_candidates();
        let mut strengths = direct_edges(matrix);
        close_tiled(&mut strengths, n, tile, threads);
        PathMatrix { n, strengths }
    }

    fn random_matrix(n: usize, m: usize, rng: &mut StdRng) -> PrecedenceMatrix {
        let rankings: Vec<Ranking> = (0..m).map(|_| Ranking::random(n, &mut *rng)).collect();
        PrecedenceMatrix::from_rankings(&rankings).unwrap()
    }

    #[test]
    fn strongest_paths_classic_example() {
        // Wikipedia-style 3-candidate cycle check: A > B (2 of 3), B > C (2 of 3), C > A (2 of 3)
        // forms a majority cycle; strongest paths must still be computed consistently.
        let profile = RankingProfile::new(vec![
            Ranking::from_ids([0, 1, 2]).unwrap(),
            Ranking::from_ids([1, 2, 0]).unwrap(),
            Ranking::from_ids([2, 0, 1]).unwrap(),
        ])
        .unwrap();
        let matrix = profile.precedence_matrix();
        let p = SchulzeAggregator::new().strongest_paths_flat(&matrix);
        assert_eq!(p, naive_strongest_paths(&matrix));
        // Every direct majority edge has weight 2, and the cycle gives every pair a path of
        // strength 2 in both directions -> complete tie.
        for a in 0..3 {
            for b in 0..3 {
                if a != b {
                    assert_eq!(p.strength(a, b), 2, "p[{a}][{b}]");
                }
            }
        }
        // Ties are broken by id, so the consensus is the identity ranking.
        let consensus = SchulzeAggregator::new().consensus_from_matrix(&matrix);
        assert_eq!(consensus, Ranking::identity(3));
    }

    #[test]
    fn strongest_path_at_least_direct_support() {
        let mut rng = StdRng::seed_from_u64(23);
        let matrix = random_matrix(6, 7, &mut rng);
        let p = SchulzeAggregator::new().strongest_paths_flat(&matrix);
        for a in 0..6 {
            for b in 0..6 {
                if a == b {
                    continue;
                }
                let (ca, cb) = (CandidateId(a as u32), CandidateId(b as u32));
                let support = matrix.support_for(ca, cb);
                let against = matrix.support_for(cb, ca);
                if support > against {
                    assert!(p.strength(a, b) >= support);
                }
            }
        }
    }

    #[test]
    fn flat_kernel_matches_reference_across_thread_counts() {
        let mut rng = StdRng::seed_from_u64(77);
        for n in [1usize, 2, 3, 7, 12, 25] {
            let matrix = random_matrix(n, 9, &mut rng);
            let reference = naive_strongest_paths(&matrix);
            assert_eq!(
                SchulzeAggregator::new().strongest_paths_flat(&matrix),
                reference,
                "flat kernel, n = {n}"
            );
            for threads in [1usize, 2, 3, 8] {
                let par = Parallelism::new(threads);
                let flat = SchulzeAggregator::new().strongest_paths_matrix(&matrix, &par);
                assert_eq!(flat.num_candidates(), n);
                assert_eq!(flat, reference, "n = {n}, threads = {threads}");
                assert_eq!(
                    SchulzeAggregator::new().consensus_from_matrix_with(&matrix, &par),
                    SchulzeAggregator::new().consensus_from_matrix(&matrix),
                );
            }
        }
    }

    #[test]
    fn tiled_kernel_matches_reference_across_tile_sizes_and_threads() {
        let mut rng = StdRng::seed_from_u64(4242);
        let mut matrices: Vec<PrecedenceMatrix> = [2usize, 5, 13, 31, 64, 70]
            .into_iter()
            .map(|n| random_matrix(n, 7, &mut rng))
            .collect();
        // A weighted profile covering several partial and full tiles.
        let rankings: Vec<Ranking> = (0..9).map(|_| Ranking::random(70, &mut rng)).collect();
        let weights: Vec<u32> = (0..9u32).map(|w| (w % 5) + 1).collect();
        matrices.push(PrecedenceMatrix::from_weighted_rankings(&rankings, &weights).unwrap());
        for matrix in &matrices {
            let n = matrix.num_candidates();
            let reference = naive_strongest_paths(matrix);
            assert_eq!(
                SchulzeAggregator::new().strongest_paths_flat(matrix),
                reference
            );
            for tile in [1usize, 3, 8, 32, 64, n] {
                for threads in [1usize, 2, 8] {
                    assert_eq!(
                        tiled(matrix, tile, threads),
                        reference,
                        "n = {n}, tile = {tile}, threads = {threads}"
                    );
                }
            }
        }
    }

    #[test]
    fn tiled_solves_bump_kernel_counters() {
        let mut rng = StdRng::seed_from_u64(9);
        let matrix = random_matrix(20, 5, &mut rng);
        let before = mani_ranking::kernel_counter_snapshot();
        tiled(&matrix, 8, 1);
        let after = mani_ranking::kernel_counter_snapshot();
        assert!(after.fw_blocked_solves > before.fw_blocked_solves);
        // 20 candidates at tile 8 -> 3 tile rows -> 27 tile relaxations.
        assert!(after.fw_tiles_relaxed >= before.fw_tiles_relaxed + 27);
    }

    /// The full-matrix path that component decomposition replaced: rank by
    /// beat counts over the whole reference closure.
    fn full_matrix_consensus(matrix: &PrecedenceMatrix) -> Ranking {
        let p = naive_strongest_paths(matrix);
        let n = p.num_candidates();
        let scores: Vec<u64> = (0..n)
            .map(|a| {
                (0..n)
                    .filter(|&b| b != a && p.strength(a, b) > p.strength(b, a))
                    .count() as u64
            })
            .collect();
        ranking_from_points(&scores)
    }

    fn component_count(matrix: &PrecedenceMatrix) -> usize {
        MajorityComponents::new(&direct_edges(matrix), matrix.num_candidates()).len()
    }

    /// Blocks `[lo, hi)` of ids concatenated in block order, each block
    /// shuffled on its own.
    fn clustered_ranking(bounds: &[usize], rng: &mut StdRng) -> Ranking {
        let blocks = bounds.windows(2).filter(|block| block[0] < block[1]);
        let ids = blocks.flat_map(|block| {
            let (lo, hi) = (block[0], block[1]);
            let shuffled = Ranking::random(hi - lo, &mut *rng);
            shuffled.iter().map(|c| c.0 + lo as u32).collect::<Vec<_>>()
        });
        Ranking::from_ids(ids.collect::<Vec<_>>()).unwrap()
    }

    /// Profiles for the differential test, by `shape`: 0 uniform with odd
    /// |R| (one large component), 1 clustered into `blocks` fixed blocks,
    /// optionally with one cross-block swap (several non-trivial
    /// components), 2 weighted, 3 uniform with even |R| (ties, so some pairs
    /// reach neither way).
    fn differential_matrix(
        shape: u8,
        n: usize,
        m: usize,
        blocks: usize,
        cross_swap: bool,
        rng: &mut StdRng,
    ) -> PrecedenceMatrix {
        let uniform = |count: usize, rng: &mut StdRng| -> Vec<Ranking> {
            (0..count).map(|_| Ranking::random(n, rng)).collect()
        };
        match shape {
            0 => PrecedenceMatrix::from_rankings(&uniform(2 * m - 1, rng)).unwrap(),
            1 => {
                let bounds: Vec<usize> = (0..=blocks).map(|b| b * n / blocks).collect();
                let mut rankings: Vec<Ranking> = (0..2 * m - 1)
                    .map(|_| clustered_ranking(&bounds, rng))
                    .collect();
                let boundary = bounds[1];
                if cross_swap && boundary > 0 && boundary < n {
                    rankings[0].swap_positions(boundary - 1, boundary);
                }
                PrecedenceMatrix::from_rankings(&rankings).unwrap()
            }
            2 => {
                let rankings = uniform(m, rng);
                let weights: Vec<u32> = (0..m as u32).map(|i| i % 5 + 1).collect();
                PrecedenceMatrix::from_weighted_rankings(&rankings, &weights).unwrap()
            }
            _ => PrecedenceMatrix::from_rankings(&uniform(2 * m, rng)).unwrap(),
        }
    }

    #[test]
    fn cycle_above_cycle_ranks_the_upper_cycle_first() {
        // {0, 1, 2} and {3, 4, 5} are each a 2 : 1 majority cycle, and every
        // member of the first is above every member of the second everywhere.
        let rankings = [[0, 1, 2, 3, 4, 5], [1, 2, 0, 4, 5, 3], [2, 0, 1, 5, 3, 4]]
            .map(|ids| Ranking::from_ids(ids).unwrap());
        let matrix = PrecedenceMatrix::from_rankings(&rankings).unwrap();
        assert_eq!(component_count(&matrix), 2);
        let consensus = SchulzeAggregator::new().consensus_from_matrix(&matrix);
        assert_eq!(consensus, full_matrix_consensus(&matrix));
        assert_eq!(consensus, Ranking::identity(6));
    }

    #[test]
    fn components_with_no_path_either_way_beat_nobody_across() {
        // Both 3-cycles, once with each block on top: the blocks tie 3 : 3, so
        // no path joins them in either direction.
        let cycle = [[0, 1, 2], [1, 2, 0], [2, 0, 1]];
        let rankings: Vec<Ranking> = cycle
            .iter()
            .flat_map(|ids| {
                let upper: Vec<u32> = ids.to_vec();
                let lower: Vec<u32> = ids.iter().map(|&id| id + 3).collect();
                [
                    Ranking::from_ids(upper.iter().chain(&lower).copied()).unwrap(),
                    Ranking::from_ids(lower.iter().chain(&upper).copied()).unwrap(),
                ]
            })
            .collect();
        let matrix = PrecedenceMatrix::from_rankings(&rankings).unwrap();
        assert_eq!(component_count(&matrix), 2);
        let consensus = SchulzeAggregator::new().consensus_from_matrix(&matrix);
        assert_eq!(consensus, full_matrix_consensus(&matrix));
        assert_eq!(consensus, Ranking::identity(6));
    }

    #[test]
    fn one_and_two_candidates() {
        let single = PrecedenceMatrix::from_rankings(&[Ranking::identity(1)]).unwrap();
        assert_eq!(
            SchulzeAggregator::new().consensus_from_matrix(&single),
            Ranking::identity(1)
        );
        for (ids, expected) in [
            (vec![[1, 0], [1, 0], [0, 1]], [1, 0]),
            (vec![[0, 1], [1, 0]], [0, 1]),
        ] {
            let rankings: Vec<Ranking> = ids
                .into_iter()
                .map(|ids| Ranking::from_ids(ids).unwrap())
                .collect();
            let matrix = PrecedenceMatrix::from_rankings(&rankings).unwrap();
            let consensus = SchulzeAggregator::new().consensus_from_matrix(&matrix);
            assert_eq!(consensus, full_matrix_consensus(&matrix));
            assert_eq!(consensus, Ranking::from_ids(expected).unwrap());
        }
    }

    #[test]
    fn one_component_on_the_tiled_kernel_matches_full_path() {
        // The identity rotated by 0, 7 and 14: every pair is decided 2 : 1,
        // and 0 → 1 → … → 19 → 0 makes the majority graph one component.
        let rankings =
            [0, 7, 14].map(|shift| Ranking::from_ids((0..20).map(|i| (i + shift) % 20)).unwrap());
        let matrix = PrecedenceMatrix::from_rankings(&rankings).unwrap();
        assert_eq!(component_count(&matrix), 1);
        let reference = full_matrix_consensus(&matrix);
        for threads in [1usize, 2] {
            assert_eq!(
                consensus_by_components(&matrix, |p, k| close_tiled(p, k, 8, threads)),
                reference,
                "threads = {threads}"
            );
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn prop_consensus_matches_full_matrix_path(
            shape in 0u8..4,
            // A precedence matrix needs a non-empty ranking, so n starts at 1.
            n in 1usize..41,
            m in 1usize..8,
            blocks in 2usize..6,
            cross_swap in any::<bool>(),
            threads in 1usize..9,
            tile in 1usize..9,
            seed in any::<u64>()
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let matrix = differential_matrix(shape, n, m, blocks, cross_swap, &mut rng);
            let reference = full_matrix_consensus(&matrix);
            let par = Parallelism::new(threads);
            let aggregator = SchulzeAggregator::new();
            prop_assert_eq!(aggregator.consensus_from_matrix_with(&matrix, &par), reference.clone());
            prop_assert_eq!(
                consensus_by_components(&matrix, |p, k| close_tiled(p, k, tile, threads)),
                reference.clone()
            );
            prop_assert_eq!(aggregator.strongest_paths_matrix(&matrix, &par).ranking(), reference.clone());
            prop_assert_eq!(tiled(&matrix, tile, threads).ranking(), reference);
        }
    }

    proptest! {
        #[test]
        fn prop_flat_kernel_bit_identical_to_reference(
            n in 1usize..14,
            m in 1usize..8,
            threads in 1usize..9,
            seed in any::<u64>()
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let matrix = random_matrix(n, m, &mut rng);
            let reference = naive_strongest_paths(&matrix);
            let aggregator = SchulzeAggregator::new();
            prop_assert_eq!(&aggregator.strongest_paths_flat(&matrix), &reference);
            let par = Parallelism::new(threads);
            prop_assert_eq!(aggregator.strongest_paths_matrix(&matrix, &par), reference);
        }

        #[test]
        fn prop_tiled_kernel_bit_identical_to_flat(
            n in 1usize..24,
            m in 1usize..8,
            tile in 1usize..12,
            threads in 1usize..9,
            seed in any::<u64>()
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let matrix = random_matrix(n, m, &mut rng);
            let flat = SchulzeAggregator::new().strongest_paths_flat(&matrix);
            prop_assert_eq!(&tiled(&matrix, tile, threads), &flat, "tile = {}, threads = {}", tile, threads);
            prop_assert_eq!(flat, naive_strongest_paths(&matrix));
        }

        #[test]
        fn prop_schulze_is_valid_permutation(n in 1usize..15, m in 1usize..8, seed in any::<u64>()) {
            let mut rng = StdRng::seed_from_u64(seed);
            let rankings: Vec<Ranking> = (0..m).map(|_| Ranking::random(n, &mut rng)).collect();
            let profile = RankingProfile::new(rankings).unwrap();
            let consensus = SchulzeAggregator::new().consensus(&profile);
            prop_assert!(consensus.check_invariants().is_ok());
        }

        #[test]
        fn prop_unanimous_profile_is_reproduced(n in 2usize..12, seed in any::<u64>()) {
            let mut rng = StdRng::seed_from_u64(seed);
            let base = Ranking::random(n, &mut rng);
            let profile = RankingProfile::new(vec![base.clone(); 3]).unwrap();
            prop_assert_eq!(SchulzeAggregator::new().consensus(&profile), base);
        }
    }
}
