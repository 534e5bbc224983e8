//! The base-consensus memo beside each cached precedence matrix: a solve that
//! reads it is bit-identical to a direct solve without one, each
//! `(dataset, aggregator)` pair is aggregated once however many Δ are asked
//! for, and solves racing on a cold dataset share one aggregation.

use std::sync::{Arc, Barrier};

use mani_core::{MethodKind, MfcrContext, MfcrOutcome};
use mani_datagen::{binary_population, FairnessTarget, MallowsModel, ModalRankingBuilder};
use mani_engine::{ConsensusEngine, ConsensusRequest, EngineConfig, EngineDataset};
use mani_fairness::FairnessThresholds;
use mani_ranking::{GroupIndex, Parallelism};

/// A Low-Fair Mallows profile, so Make-MR-Fair has swaps to make.
fn dataset(n: usize, m: usize, seed: u64) -> Arc<EngineDataset> {
    let db = binary_population(n, 0.5, 0.5, seed);
    let modal = ModalRankingBuilder::new(&db).build(&FairnessTarget::low_fair(2));
    let profile = MallowsModel::new(modal, 0.6).sample_profile(m, seed ^ 0x5eed);
    Arc::new(EngineDataset::new(format!("memo-{n}-{seed}"), db, profile).unwrap())
}

/// Asserts an engine outcome equals a direct `MfcrMethod::solve` of the same
/// method on a context without a memo or a shared matrix.
fn assert_matches_direct_solve(
    ds: &EngineDataset,
    kind: MethodKind,
    delta: f64,
    kernel: Parallelism,
    outcome: &MfcrOutcome,
) {
    let groups = GroupIndex::new(ds.db());
    let ctx = MfcrContext::new(
        ds.db(),
        &groups,
        ds.profile(),
        FairnessThresholds::uniform(delta),
    )
    .with_parallelism(kernel);
    let direct = kind.instantiate().solve(&ctx).unwrap();
    let label = format!("{} at Δ = {delta}", kind.name());
    assert_eq!(outcome.ranking, direct.ranking, "{label}: ranking");
    assert_eq!(
        outcome.pd_loss.to_bits(),
        direct.pd_loss.to_bits(),
        "{label}: pd_loss"
    );
    assert_eq!(
        outcome.correction_swaps, direct.correction_swaps,
        "{label}: swaps"
    );
    assert_eq!(
        outcome.criteria.is_satisfied(),
        direct.criteria.is_satisfied(),
        "{label}: satisfied"
    );
    assert_eq!(outcome.optimal, direct.optimal, "{label}: optimal");
}

#[test]
fn delta_sweep_reads_the_memo_and_matches_direct_solves() {
    const DELTAS: [f64; 9] = [0.05, 0.08, 0.1, 0.12, 0.15, 0.2, 0.25, 0.3, 0.4];
    let correctable = [
        MethodKind::FairBorda,
        MethodKind::FairCopeland,
        MethodKind::FairSchulze,
    ];
    let large = dataset(60, 15, 3);
    // Fair-Kemeny's search must run to its end, so it gets a small dataset.
    let small = dataset(8, 9, 5);
    for kernel_threads in [1usize, 2] {
        let engine = ConsensusEngine::with_config(EngineConfig {
            threads: 2,
            kernel_threads,
            ..EngineConfig::default()
        });
        let kernel = engine.kernel_parallelism();
        let mut lookups = 0u64;
        let mut swaps = 0u64;
        for delta in DELTAS {
            let responses = engine.submit_batch(vec![
                ConsensusRequest::new(
                    Arc::clone(&large),
                    correctable,
                    FairnessThresholds::uniform(delta),
                ),
                ConsensusRequest::new(
                    Arc::clone(&small),
                    [MethodKind::FairKemeny],
                    FairnessThresholds::uniform(delta),
                ),
            ]);
            // One base-consensus lookup per Fair method; Fair-Kemeny's is the
            // Borda consensus under its Fair-Borda incumbent.
            lookups += 4;
            for (ds, response) in [&large, &small].into_iter().zip(&responses) {
                assert!(response.is_complete(), "{:?}", response.results);
                for result in response.successes() {
                    if result.method == MethodKind::FairKemeny {
                        // 8! = 40,320 orders: the search ends well inside the
                        // default 2,000,000-node budget, so its result does
                        // not depend on the thread count.
                        assert!(result.outcome.nodes_explored < 2_000_000);
                    }
                    swaps += result.outcome.correction_swaps;
                    assert_matches_direct_solve(ds, result.method, delta, kernel, &result.outcome);
                }
            }
        }
        assert!(swaps > 0, "the sweep must exercise Make-MR-Fair");
        let stats = engine.cache().stats();
        assert_eq!(
            stats.consensus_builds, 4,
            "Borda, Copeland and Schulze of the large dataset, Borda of the small one"
        );
        assert_eq!(stats.consensus_hits + stats.consensus_builds, lookups);
        assert_eq!(stats.builds, 2, "one matrix per dataset");
    }
}

#[test]
fn racing_first_solves_of_a_cold_dataset_aggregate_once() {
    const THREADS: usize = 8;
    let engine = Arc::new(ConsensusEngine::with_config(EngineConfig {
        threads: THREADS,
        ..EngineConfig::default()
    }));
    let ds = dataset(200, 21, 7);
    let start = Arc::new(Barrier::new(THREADS));
    let handles: Vec<_> = (0..THREADS)
        .map(|i| {
            let (engine, ds, start) = (engine.clone(), ds.clone(), start.clone());
            std::thread::spawn(move || {
                let delta = 0.05 + 0.01 * i as f64;
                start.wait();
                let response = engine.submit(ConsensusRequest::new(
                    ds,
                    [MethodKind::FairSchulze],
                    FairnessThresholds::uniform(delta),
                ));
                (delta, response)
            })
        })
        .collect();
    let kernel = engine.kernel_parallelism();
    for handle in handles {
        let (delta, response) = handle.join().unwrap();
        assert!(response.is_complete(), "{:?}", response.results);
        let outcome = response.outcome(MethodKind::FairSchulze).unwrap();
        assert_matches_direct_solve(&ds, MethodKind::FairSchulze, delta, kernel, outcome);
    }
    let stats = engine.cache().stats();
    assert_eq!(stats.consensus_builds, 1, "one Schulze aggregation");
    assert_eq!(stats.consensus_hits, THREADS as u64 - 1);
    assert_eq!(stats.builds, 1, "one matrix build");
}
