//! Integration tests for non-blocking submission: bit-identical equivalence
//! with blocking submission, and cache sharing across handles. The handle
//! lifecycle and bounded-queue backpressure are tested in `engine.rs`, which
//! can park the engine's worker.

use std::sync::Arc;

use mani_core::MethodKind;
use mani_engine::{ConsensusEngine, ConsensusRequest, EngineConfig, EngineDataset};
use mani_fairness::FairnessThresholds;
use mani_ranking::{CandidateDbBuilder, Ranking, RankingProfile};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn dataset(n: usize, m: usize, seed: u64) -> Arc<EngineDataset> {
    let mut builder = CandidateDbBuilder::new();
    let g = builder.add_attribute("G", ["x", "y"]).unwrap();
    let r = builder.add_attribute("R", ["p", "q", "r"]).unwrap();
    for i in 0..n {
        builder
            .add_candidate(format!("c{i}"), [(g, i % 2), (r, i % 3)])
            .unwrap();
    }
    let db = builder.build().unwrap();
    let mut rng = StdRng::seed_from_u64(seed);
    let rankings: Vec<Ranking> = (0..m).map(|_| Ranking::random(n, &mut rng)).collect();
    let profile = RankingProfile::new(rankings).unwrap();
    Arc::new(EngineDataset::new(format!("async-{n}-{seed}"), db, profile).unwrap())
}

const METHODS: [MethodKind; 4] = [
    MethodKind::FairBorda,
    MethodKind::FairCopeland,
    MethodKind::FairSchulze,
    MethodKind::PickFairestPerm,
];

#[test]
fn async_handle_is_bit_identical_to_blocking_submit() {
    let blocking_engine = ConsensusEngine::with_config(EngineConfig {
        threads: 2,
        ..EngineConfig::default()
    });
    let async_engine = ConsensusEngine::with_config(EngineConfig {
        threads: 4,
        ..EngineConfig::default()
    });
    let ds = dataset(18, 8, 42);
    let request =
        || ConsensusRequest::new(Arc::clone(&ds), METHODS, FairnessThresholds::uniform(0.15));

    let blocking = blocking_engine.submit(request());
    let handle = async_engine.submit_async(request()).expect("empty queue");
    let asynchronous = handle.wait();

    assert!(blocking.is_complete() && asynchronous.is_complete());
    assert_eq!(blocking.results.len(), asynchronous.results.len());
    for (b, a) in blocking.successes().zip(asynchronous.successes()) {
        assert_eq!(b.method, a.method, "methods must arrive in request order");
        assert_eq!(
            b.outcome.ranking,
            a.outcome.ranking,
            "{}: async ranking differs from blocking submit",
            b.method.name()
        );
        assert_eq!(
            b.outcome.pd_loss, a.outcome.pd_loss,
            "bit-identical PD loss"
        );
        assert_eq!(
            b.outcome.criteria.is_satisfied(),
            a.outcome.criteria.is_satisfied()
        );
        assert_eq!(b.outcome.correction_swaps, a.outcome.correction_swaps);
    }
}

#[test]
fn async_jobs_share_the_precedence_cache_across_handles() {
    let engine = ConsensusEngine::with_config(EngineConfig {
        threads: 4,
        ..EngineConfig::default()
    });
    let shared = dataset(16, 6, 99);
    let handles = engine
        .submit_batch_async(
            (0..4)
                .map(|i| {
                    ConsensusRequest::new(
                        Arc::clone(&shared),
                        [METHODS[i % METHODS.len()]],
                        FairnessThresholds::uniform(0.2),
                    )
                })
                .collect(),
        )
        .expect("four jobs fit the default queue");
    assert_eq!(handles.len(), 4);
    for handle in &handles {
        assert!(handle.wait().is_complete());
    }
    assert_eq!(
        engine.cache().stats().builds,
        1,
        "four async jobs over one dataset build one matrix"
    );
    let stats = engine.stats();
    assert_eq!(stats.submitted, 4);
    assert_eq!(stats.completed, 4);
    assert_eq!(stats.in_flight, 0);
}
