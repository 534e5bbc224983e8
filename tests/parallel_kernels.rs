//! Cross-crate properties of the parallel consensus kernels: every parallel
//! kernel must be bit-identical to its serial counterpart for every thread
//! and shard count, from the public kernels up through the engine. Inputs
//! are sized above each kernel's own gate where the property needs the
//! parallel path; the tiled Floyd–Warshall at small sizes and explicit tiles
//! is covered by the unit tests in `mani-aggregation`'s `schulze.rs`.

use std::sync::Arc;

use mani_aggregation::schulze::{FW_TILE, FW_TILE_MIN_N};
use mani_aggregation::SchulzeAggregator;
use mani_core::{FairKemeny, MethodKind, MfcrContext, MfcrMethod};
use mani_datagen::{binary_population, FairnessTarget, MallowsModel, ModalRankingBuilder};
use mani_engine::{ConsensusEngine, ConsensusRequest, EngineConfig, EngineDataset};
use mani_fairness::FairnessThresholds;
use mani_ranking::{GroupIndex, Parallelism, PrecedenceMatrix, Ranking, RankingProfile};
use mani_solver::SolverConfig;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

const THREAD_COUNTS: [usize; 3] = [1, 2, 8];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]
    #[test]
    fn prop_sharded_matrix_equals_sequential(
        // Around the build's size gate of 2^22 cell updates
        // (n(n - 1)/2 · |R|): most cases split the rows across threads.
        n in 290usize..310,
        m in 94usize..110,
        shards in 1usize..9,
        seed in proptest::prelude::any::<u64>()
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let rankings: Vec<Ranking> = (0..m).map(|_| Ranking::random(n, &mut rng)).collect();
        let par = Parallelism::new(shards);
        let serial = PrecedenceMatrix::from_rankings(&rankings).unwrap();
        let sharded = PrecedenceMatrix::from_rankings_parallel(&rankings, &par).unwrap();
        prop_assert_eq!(&serial, &sharded);

        let weights: Vec<u32> = (1..=m as u32).map(|w| (w % 9) + 1).collect();
        let serial_w = PrecedenceMatrix::from_weighted_rankings(&rankings, &weights).unwrap();
        let sharded_w =
            PrecedenceMatrix::from_weighted_rankings_parallel(&rankings, &weights, &par).unwrap();
        prop_assert_eq!(&serial_w, &sharded_w);
    }

    #[test]
    fn prop_schulze_bit_identical_across_threads(
        n in 1usize..20,
        m in 1usize..8,
        seed in proptest::prelude::any::<u64>()
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let rankings: Vec<Ranking> = (0..m).map(|_| Ranking::random(n, &mut rng)).collect();
        let matrix = RankingProfile::new(rankings).unwrap().precedence_matrix();
        let aggregator = SchulzeAggregator::new();
        let reference = aggregator.strongest_paths_flat(&matrix);
        let serial_consensus = aggregator.consensus_from_matrix(&matrix);
        for threads in THREAD_COUNTS {
            let par = Parallelism::new(threads);
            prop_assert_eq!(
                aggregator.strongest_paths_matrix(&matrix, &par),
                reference.clone(),
                "strengths diverged at threads = {}", threads
            );
            prop_assert_eq!(
                aggregator.consensus_from_matrix_with(&matrix, &par),
                serial_consensus.clone(),
                "consensus diverged at threads = {}", threads
            );
        }
    }
}

proptest! {
    // Each case closes two matrices of 512+ candidates, ~134M relaxations
    // apiece, so a handful of cases already takes seconds in a debug build.
    #![proptest_config(ProptestConfig::with_cases(4))]
    /// Above its size gate the dispatcher runs the tiled kernel: for sizes
    /// across one tile period (a full or partial last tile row), random
    /// profiles and every thread count it closes the flat kernel's strengths.
    #[test]
    fn prop_tiled_fw_bit_identical(
        extra in 0usize..FW_TILE,
        m in 1usize..8,
        threads in 1usize..9,
        seed in proptest::prelude::any::<u64>()
    ) {
        let n = FW_TILE_MIN_N + extra;
        let mut rng = StdRng::seed_from_u64(seed);
        let rankings: Vec<Ranking> = (0..m).map(|_| Ranking::random(n, &mut rng)).collect();
        let matrix = RankingProfile::new(rankings).unwrap().precedence_matrix();
        let aggregator = SchulzeAggregator::new();
        let flat = aggregator.strongest_paths_flat(&matrix);
        let tiled = aggregator.strongest_paths_matrix(&matrix, &Parallelism::new(threads));
        prop_assert_eq!(&tiled, &flat, "n = {}, threads = {}", n, threads);
    }
}

/// The tiled Floyd–Warshall on a weighted profile above its size gate:
/// every thread count closes the same strengths as the flat kernel, and the
/// consensus ranks as the full closure does.
#[test]
fn tiled_fw_matches_flat_above_the_tile_gate() {
    let n = FW_TILE_MIN_N + 8;
    let mut rng = StdRng::seed_from_u64(0x7117ED);
    let rankings: Vec<Ranking> = (0..9).map(|_| Ranking::random(n, &mut rng)).collect();
    let weights: Vec<u32> = (0..9u32).map(|w| 2 * (w % 5) + 1).collect();
    let matrix = PrecedenceMatrix::from_weighted_rankings(&rankings, &weights).unwrap();
    let aggregator = SchulzeAggregator::new();
    let flat = aggregator.strongest_paths_flat(&matrix);
    for threads in THREAD_COUNTS {
        let par = Parallelism::new(threads);
        assert_eq!(
            aggregator.strongest_paths_matrix(&matrix, &par),
            flat,
            "tiled kernel diverged at threads = {threads}"
        );
        assert_eq!(
            aggregator.consensus_from_matrix_with(&matrix, &par),
            flat.ranking(),
            "consensus diverged at threads = {threads}"
        );
    }
}

#[test]
fn fair_kemeny_is_bit_identical_across_threads_and_shard_counts() {
    for (n, seed, delta) in [(10usize, 3u64, 0.3), (12, 7, 0.25), (14, 11, 0.4)] {
        let db = binary_population(n, 0.5, 0.5, seed);
        let groups = GroupIndex::new(&db);
        let modal = ModalRankingBuilder::new(&db).build(&FairnessTarget::low_fair(2));
        let profile = MallowsModel::new(modal, 0.7).sample_profile(8, seed ^ 0xD00D);
        let serial_ctx =
            MfcrContext::new(&db, &groups, &profile, FairnessThresholds::uniform(delta));
        let serial = FairKemeny::new().solve(&serial_ctx).unwrap();
        assert!(
            serial.optimal,
            "n = {n} must close within the default budget"
        );
        for threads in THREAD_COUNTS {
            let ctx = MfcrContext::new(&db, &groups, &profile, FairnessThresholds::uniform(delta))
                .with_parallelism(Parallelism::new(threads));
            let parallel = FairKemeny::new().solve(&ctx).unwrap();
            assert!(parallel.optimal);
            assert_eq!(parallel.ranking, serial.ranking, "threads = {threads}");
            assert_eq!(parallel.pd_loss, serial.pd_loss, "threads = {threads}");

            // An explicit solver config with its own parallelism must win too.
            let config = SolverConfig::default().with_parallelism(Parallelism::new(threads));
            let explicit = FairKemeny::with_config(config).solve(&serial_ctx).unwrap();
            assert_eq!(explicit.ranking, serial.ranking, "threads = {threads}");
        }
    }
}

#[test]
fn engine_results_are_bit_identical_across_kernel_thread_counts() {
    let make_dataset = || {
        let db = binary_population(18, 0.5, 0.5, 77);
        let modal = ModalRankingBuilder::new(&db).build(&FairnessTarget::low_fair(2));
        let profile = MallowsModel::new(modal, 0.8).sample_profile(10, 1234);
        Arc::new(EngineDataset::new("kernels", db, profile).unwrap())
    };
    let methods = [
        MethodKind::FairBorda,
        MethodKind::FairCopeland,
        MethodKind::FairSchulze,
        MethodKind::FairKemeny,
        MethodKind::Kemeny,
    ];
    let run = |kernel_threads: usize| {
        let engine = ConsensusEngine::with_config(EngineConfig {
            threads: 2,
            kernel_threads,
            ..EngineConfig::default()
        });
        engine.submit(ConsensusRequest::new(
            make_dataset(),
            methods,
            FairnessThresholds::uniform(0.2),
        ))
    };
    let baseline = run(1);
    assert!(baseline.is_complete());
    for kernel_threads in [2usize, 8] {
        let response = run(kernel_threads);
        assert!(response.is_complete());
        for (serial, parallel) in baseline.successes().zip(response.successes()) {
            assert_eq!(serial.method, parallel.method);
            assert_eq!(
                serial.outcome.ranking,
                parallel.outcome.ranking,
                "{} diverged at kernel_threads = {kernel_threads}",
                serial.method.name()
            );
        }
    }
}
