//! Kernel-level parallelism primitives shared by every compute kernel in the
//! workspace.
//!
//! Request-level parallelism (many jobs across a worker pool) lives in
//! `mani-engine`; this module provides the complementary *intra-kernel* layer:
//! splitting one large computation — a precedence-matrix build, a Schulze
//! Floyd–Warshall sweep, a branch-and-bound search — across short-lived scoped
//! threads that may borrow the caller's data. Scoped threads are used instead
//! of a long-lived pool because kernels operate on borrowed, request-local
//! buffers that cannot be sent to `'static` pool jobs without copying.
//!
//! The [`Parallelism`] config is a thread budget and nothing else. Each
//! kernel keeps its own size gate, a constant next to its code, below which
//! threading overhead outweighs the win and the kernel stays serial.
//!
//! Every kernel built on these primitives is **bit-identical** to its serial
//! counterpart: work is split so that either the per-shard results are summed
//! with integer arithmetic (order-insensitive) or the partition itself does not
//! change the arithmetic (tile-row-block Floyd–Warshall, index-ordered subtree
//! merges).

use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};

use serde::{Deserialize, Serialize};

/// Kernel parallelism budget: how many threads one solve may use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct Parallelism {
    /// Maximum worker threads a single kernel may occupy (minimum one).
    threads: usize,
}

// Manual impl rather than derive: wire payloads must not be able to bypass
// the `threads >= 1` invariant every constructor enforces, so the field is
// clamped on the way in exactly like `Parallelism::new` does. Payloads
// written when the budget also carried `min_candidates` and `tile_size`
// still deserialize; those fields are ignored.
impl Deserialize for Parallelism {
    fn deserialize_value(value: &serde::Value) -> std::result::Result<Self, serde::Error> {
        let threads = value
            .get("threads")
            .ok_or_else(|| serde::Error::new("Parallelism: missing field `threads`"))
            .and_then(usize::deserialize_value)?;
        Ok(Self::new(threads))
    }
}

impl Default for Parallelism {
    /// The default is **serial**: library callers opt in explicitly, and the
    /// engine layer decides how per-request threads compose with its batch
    /// pool.
    fn default() -> Self {
        Self::serial()
    }
}

impl Parallelism {
    /// Strictly serial execution (the default).
    pub fn serial() -> Self {
        Self::new(1)
    }

    /// Up to `threads` threads per kernel (clamped to at least one).
    pub fn new(threads: usize) -> Self {
        Self {
            threads: threads.max(1),
        }
    }

    /// One thread per available core.
    pub fn auto() -> Self {
        Self::new(available_threads())
    }

    /// The configured maximum thread count.
    pub fn max_threads(&self) -> usize {
        self.threads
    }

    /// True when this config never fans out.
    pub fn is_serial(&self) -> bool {
        self.threads <= 1
    }
}

/// Process-wide kernel activity counters (monotone, relaxed atomics).
///
/// Kernels record how work was partitioned — blocked Floyd–Warshall solves
/// and the tiles they relaxed, and ranking shard tasks — so operators can see
/// which kernel shape production traffic actually exercises. The counters are
/// process-global (kernels run on borrowed request-local buffers and carry no
/// per-engine handle); `mani-engine` snapshots them into `EngineStats` and
/// `mani-serve` exports them on `/metrics`.
static FW_BLOCKED_SOLVES: AtomicU64 = AtomicU64::new(0);
static FW_TILES_RELAXED: AtomicU64 = AtomicU64::new(0);
static RANKING_SHARD_TASKS: AtomicU64 = AtomicU64::new(0);

/// Snapshot of the process-wide kernel partitioning counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct KernelCounterSnapshot {
    /// Cache-blocked Floyd–Warshall solves completed.
    pub fw_blocked_solves: u64,
    /// Tiles relaxed across all blocked Floyd–Warshall solves.
    pub fw_tiles_relaxed: u64,
    /// Ranking shard tasks executed by matrix builds.
    pub ranking_shard_tasks: u64,
}

/// Reads the process-wide kernel counters.
pub fn kernel_counter_snapshot() -> KernelCounterSnapshot {
    KernelCounterSnapshot {
        fw_blocked_solves: FW_BLOCKED_SOLVES.load(Ordering::Relaxed),
        fw_tiles_relaxed: FW_TILES_RELAXED.load(Ordering::Relaxed),
        ranking_shard_tasks: RANKING_SHARD_TASKS.load(Ordering::Relaxed),
    }
}

/// Records one blocked Floyd–Warshall solve that relaxed `tiles` tiles
/// (observability hook for kernel implementations).
pub fn record_fw_blocked_solve(tiles: u64) {
    FW_BLOCKED_SOLVES.fetch_add(1, Ordering::Relaxed);
    FW_TILES_RELAXED.fetch_add(tiles, Ordering::Relaxed);
}

/// Records `tasks` ranking shard tasks (observability hook for kernel
/// implementations).
pub fn record_ranking_shard_tasks(tasks: u64) {
    RANKING_SHARD_TASKS.fetch_add(tasks, Ordering::Relaxed);
}

/// One worker per available core (minimum one).
pub fn available_threads() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// Splits `0..len` into at most `parts` contiguous, near-equal, non-empty
/// ranges (fewer when `len < parts`). The generic shard step of every
/// shard/merge kernel: shard boundaries never change results because merges
/// are order-insensitive integer sums.
pub fn shard_ranges(len: usize, parts: usize) -> Vec<Range<usize>> {
    let parts = parts.max(1).min(len);
    if parts == 0 {
        return Vec::new();
    }
    let base = len / parts;
    let extra = len % parts;
    let mut ranges = Vec::with_capacity(parts);
    let mut start = 0;
    for index in 0..parts {
        let size = base + usize::from(index < extra);
        ranges.push(start..start + size);
        start += size;
    }
    ranges
}

/// Tile edge of a blocked kernel over an `n`-wide problem whose tiled
/// schedule starts at `min_n` candidates: below that gate one tile covers the
/// whole problem (the kernel runs untiled), from it on `tile`, never wider
/// than the problem and never zero. Each kernel passes its own gate and tile
/// constants.
pub fn tile_edge(n: usize, min_n: usize, tile: usize) -> usize {
    if n < min_n {
        n.max(1)
    } else {
        tile.clamp(1, n.max(1))
    }
}

/// Runs every part and returns the outputs **in part order**, fanning the
/// parts out across up to `threads` scoped threads.
///
/// Unlike a pool, parts may borrow from the caller's stack — this is the
/// primitive kernels use to process shards of borrowed matrices and profiles.
/// With `threads <= 1` (or a single part) everything runs inline on the
/// calling thread, in order, with zero threading overhead.
///
/// # Panics
/// Propagates the first panic of any part after all threads have joined.
pub fn run_parts<T, F>(threads: usize, parts: Vec<F>) -> Vec<T>
where
    T: Send,
    F: FnOnce() -> T + Send,
{
    let threads = threads.max(1).min(parts.len());
    if threads <= 1 {
        return parts.into_iter().map(|part| part()).collect();
    }
    // Contiguous grouping keeps outputs trivially reorderable: group `g`
    // produces the results for its own slice of part indices.
    let ranges = shard_ranges(parts.len(), threads);
    let mut parts = parts.into_iter();
    let groups: Vec<Vec<F>> = ranges
        .iter()
        .map(|range| parts.by_ref().take(range.len()).collect())
        .collect();
    std::thread::scope(|scope| {
        let handles: Vec<_> = groups
            .into_iter()
            .map(|group| {
                scope.spawn(move || group.into_iter().map(|part| part()).collect::<Vec<T>>())
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|handle| handle.join().expect("run_parts worker panicked"))
            .collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serial_config_is_default_and_stays_serial() {
        let par = Parallelism::default();
        assert!(par.is_serial());
        assert_eq!(par.max_threads(), 1);
        assert_eq!(par, Parallelism::serial());
        assert!(!Parallelism::new(4).is_serial());
    }

    #[test]
    fn zero_threads_clamps_to_one() {
        assert_eq!(Parallelism::new(0).max_threads(), 1);
        assert!(available_threads() >= 1);
        assert!(Parallelism::auto().max_threads() >= 1);
    }

    #[test]
    fn auto_tile_policy_keeps_small_problems_untiled() {
        // The tiled Floyd–Warshall's gate and tile: 512 candidates, 64 wide.
        let (min_n, tile) = (512, 64);
        // Below the gate the tile covers the whole matrix (untiled); at and
        // above it the kernel's tile engages.
        assert_eq!(tile_edge(min_n - 1, min_n, tile), min_n - 1);
        assert_eq!(tile_edge(min_n, min_n, tile), tile);
        assert_eq!(tile_edge(5000, min_n, tile), tile);
        // Degenerate sizes stay sane.
        assert_eq!(tile_edge(0, min_n, tile), 1);
        assert_eq!(tile_edge(1, min_n, tile), 1);
        // A tile never exceeds the problem and is never zero.
        assert_eq!(tile_edge(10, 0, tile), 10);
        assert_eq!(tile_edge(10, 0, 0), 1);
    }

    #[test]
    fn deserialize_ignores_retired_fields_and_clamps_threads() {
        use serde::Value;
        let payload = |threads: u64| {
            Value::Object(vec![
                ("threads".to_string(), Value::UInt(threads)),
                ("min_candidates".to_string(), Value::UInt(0)),
                ("tile_size".to_string(), Value::UInt(8)),
            ])
        };
        let parsed = Parallelism::deserialize_value(&payload(3)).unwrap();
        assert_eq!(parsed, Parallelism::new(3));
        let clamped = Parallelism::deserialize_value(&payload(0)).unwrap();
        assert_eq!(clamped, Parallelism::serial());
        let round = Parallelism::deserialize_value(&parsed.serialize_value()).unwrap();
        assert_eq!(round, parsed);
        assert!(Parallelism::deserialize_value(&Value::Object(Vec::new())).is_err());
    }

    #[test]
    fn kernel_counters_are_monotone() {
        let before = kernel_counter_snapshot();
        record_fw_blocked_solve(27);
        record_ranking_shard_tasks(2);
        let after = kernel_counter_snapshot();
        assert!(after.fw_blocked_solves > before.fw_blocked_solves);
        assert!(after.fw_tiles_relaxed >= before.fw_tiles_relaxed + 27);
        assert!(after.ranking_shard_tasks >= before.ranking_shard_tasks + 2);
    }

    #[test]
    fn shard_ranges_cover_exactly_without_empties() {
        for len in 0..40usize {
            for parts in 1..10usize {
                let ranges = shard_ranges(len, parts);
                assert!(ranges.len() <= parts);
                let mut expected_start = 0;
                for range in &ranges {
                    assert_eq!(range.start, expected_start);
                    assert!(!range.is_empty(), "len={len} parts={parts}");
                    expected_start = range.end;
                }
                assert_eq!(expected_start, len);
                // Near-equal: sizes differ by at most one.
                if let (Some(first), Some(last)) = (ranges.first(), ranges.last()) {
                    assert!(first.len() - last.len() <= 1);
                }
            }
        }
    }

    #[test]
    fn run_parts_preserves_order_across_thread_counts() {
        for threads in [1usize, 2, 3, 8] {
            let parts: Vec<_> = (0..17usize).map(|i| move || i * 3).collect();
            let results = run_parts(threads, parts);
            assert_eq!(results, (0..17).map(|i| i * 3).collect::<Vec<_>>());
        }
    }

    #[test]
    fn run_parts_may_borrow_caller_data() {
        let data: Vec<u64> = (0..100).collect();
        let slices: Vec<&[u64]> = data.chunks(30).collect();
        let parts: Vec<_> = slices
            .iter()
            .map(|chunk| move || chunk.iter().sum::<u64>())
            .collect();
        let sums = run_parts(4, parts);
        assert_eq!(sums.iter().sum::<u64>(), data.iter().sum::<u64>());
    }

    #[test]
    fn run_parts_handles_empty_input() {
        let parts: Vec<fn() -> u32> = Vec::new();
        assert!(run_parts(4, parts).is_empty());
    }
}
