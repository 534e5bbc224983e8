//! The blocked Floyd–Warshall counters tick only for a strongly connected
//! component of the majority graph that reaches the tiled kernel, so
//! `/metrics` shows when a dataset paid the O(n³) closure. The counters are
//! process-wide, so this check has a test binary of its own: no other test
//! solves concurrently and moves them.

use mani_aggregation::schulze::{FW_TILE, FW_TILE_MIN_N};
use mani_aggregation::SchulzeAggregator;
use mani_ranking::{kernel_counter_snapshot, Parallelism, PrecedenceMatrix, Ranking};

/// Rankings of `blocks × size` candidates: the blocks in id order, each block
/// rotated by 0, 2 and 4 places. Every block is a 2 : 1 majority cycle (one
/// component) and sits above every later block.
fn blocked_cycles(blocks: usize, size: usize) -> PrecedenceMatrix {
    let rankings: Vec<Ranking> = [0, 2, 4]
        .iter()
        .map(|&shift| {
            let ids = (0..blocks).flat_map(|block| {
                (0..size).map(move |i| (block * size + (i + shift) % size) as u32)
            });
            Ranking::from_ids(ids).expect("rotations are permutations")
        })
        .collect();
    PrecedenceMatrix::from_rankings(&rankings).expect("equal-length rankings")
}

#[test]
fn blocked_solves_count_only_components_on_the_tiled_kernel() {
    let aggregator = SchulzeAggregator::new();
    let par = Parallelism::serial();
    assert_eq!((FW_TILE_MIN_N, FW_TILE), (512, 64));

    // Two components of 300 candidates: each is below the tiling gate, so
    // the flat kernel closes them and the counters stay put.
    let decomposable = blocked_cycles(2, 300);
    let before = kernel_counter_snapshot();
    aggregator.consensus_from_matrix_with(&decomposable, &par);
    let after = kernel_counter_snapshot();
    assert_eq!(after.fw_blocked_solves, before.fw_blocked_solves);
    assert_eq!(after.fw_tiles_relaxed, before.fw_tiles_relaxed);

    // 520 candidates as one component: a tiled solve of
    // ⌈520 / 64⌉³ = 729 tiles.
    let one_component = blocked_cycles(1, 520);
    aggregator.consensus_from_matrix_with(&one_component, &par);
    let last = kernel_counter_snapshot();
    assert_eq!(last.fw_blocked_solves, after.fw_blocked_solves + 1);
    assert_eq!(last.fw_tiles_relaxed, after.fw_tiles_relaxed + 729);
}
