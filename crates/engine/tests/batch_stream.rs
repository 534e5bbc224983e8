//! Integration tests for streaming batch delivery: bit-identical equivalence
//! with the blocking batch path, and the engine's per-batch progress
//! counters. As-completed ordering is tested in `engine.rs`, which can park
//! the engine's worker.

use std::sync::Arc;

use mani_core::MethodKind;
use mani_engine::{ConsensusEngine, ConsensusRequest, EngineConfig, EngineDataset, EngineError};
use mani_fairness::FairnessThresholds;
use mani_ranking::{CandidateDbBuilder, Ranking, RankingProfile};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn dataset(n: usize, m: usize, seed: u64) -> Arc<EngineDataset> {
    let mut builder = CandidateDbBuilder::new();
    let g = builder.add_attribute("G", ["x", "y"]).unwrap();
    for i in 0..n {
        builder
            .add_candidate(format!("c{i}"), [(g, i % 2)])
            .unwrap();
    }
    let db = builder.build().unwrap();
    let mut rng = StdRng::seed_from_u64(seed);
    let rankings: Vec<Ranking> = (0..m).map(|_| Ranking::random(n, &mut rng)).collect();
    let profile = RankingProfile::new(rankings).unwrap();
    Arc::new(EngineDataset::new(format!("stream-{n}-{seed}"), db, profile).unwrap())
}

fn engine(threads: usize) -> ConsensusEngine {
    ConsensusEngine::with_config(EngineConfig {
        threads,
        ..EngineConfig::default()
    })
}

/// A request that finishes in microseconds.
fn cheap(seed: u64) -> ConsensusRequest {
    ConsensusRequest::new(
        dataset(8, 4, seed),
        [MethodKind::FairBorda],
        FairnessThresholds::uniform(0.2),
    )
}

#[test]
fn streamed_responses_are_bit_identical_to_blocking_batches() {
    let methods = [
        MethodKind::FairBorda,
        MethodKind::FairCopeland,
        MethodKind::FairSchulze,
    ];
    let requests = |engine_seed: u64| {
        vec![
            ConsensusRequest::new(
                dataset(12, 6, engine_seed),
                methods,
                FairnessThresholds::uniform(0.2),
            ),
            ConsensusRequest::new(
                dataset(10, 5, engine_seed + 1),
                methods,
                FairnessThresholds::uniform(0.1),
            ),
        ]
    };

    let blocking = engine(2).submit_batch(requests(7));
    let mut batch = engine(4)
        .submit_batch_streaming(requests(7))
        .expect("queue is empty");
    let mut streamed: Vec<Option<Arc<_>>> = vec![None, None];
    while let Some(item) = batch.wait_next() {
        streamed[item.index] = Some(item.response);
    }
    for (request_index, (b, s)) in blocking.iter().zip(&streamed).enumerate() {
        let s = s.as_ref().expect("every request streamed a response");
        assert_eq!(b.dataset, s.dataset);
        assert_eq!(b.results.len(), s.results.len());
        for (br, sr) in b.successes().zip(s.successes()) {
            assert_eq!(br.method, sr.method);
            assert_eq!(
                br.outcome.ranking,
                sr.outcome.ranking,
                "request {request_index}, method {} diverged",
                br.method.name()
            );
            assert_eq!(br.outcome.pd_loss, sr.outcome.pd_loss);
        }
    }
}

#[test]
fn engine_stats_track_streaming_batches() {
    let engine = engine(2);
    let before = engine.stats();
    assert_eq!(before.batches_opened, 0);

    let mut batch = engine
        .submit_batch_streaming(vec![cheap(21), cheap(22)])
        .expect("queue is empty");
    assert_eq!(engine.stats().batches_opened, 1);
    let first = batch.wait_next().expect("completions arrive");
    assert!(first.response.is_complete());
    let mid = engine.stats();
    assert_eq!(mid.batch_results_yielded, 1);
    assert_eq!(mid.batches_drained, 0, "one completion is still unyielded");
    batch.wait_next().expect("second completion");
    let after = engine.stats();
    assert_eq!(after.batch_results_yielded, 2);
    assert_eq!(after.batches_drained, 1);
    // Streaming jobs ride the same async queue and release their slots.
    assert_eq!(after.in_flight, 0);
    assert_eq!(after.submitted, 2);
    assert_eq!(after.completed, 2);
}

#[test]
fn streaming_batches_share_all_or_nothing_backpressure() {
    let engine = ConsensusEngine::with_config(EngineConfig {
        threads: 1,
        queue_depth: 1,
        ..EngineConfig::default()
    });
    let err = engine
        .submit_batch_streaming(vec![cheap(31), cheap(32)])
        .unwrap_err();
    assert!(matches!(err, EngineError::Overloaded { .. }));
    let stats = engine.stats();
    assert_eq!(stats.submitted, 0, "nothing enqueued on rejection");
    assert_eq!(stats.batches_opened, 0, "no handle for a rejected batch");
}

#[test]
fn invalid_requests_stream_error_responses_immediately() {
    let engine = engine(1);
    let mut batch = engine
        .submit_batch_streaming(vec![ConsensusRequest::new(
            dataset(8, 4, 41),
            [],
            FairnessThresholds::uniform(0.2),
        )])
        .expect("queue is empty");
    let item = batch
        .wait_next()
        .expect("validation failures complete without touching a worker");
    assert_eq!(item.index, 0);
    assert!(!item.response.is_complete());
    assert!(matches!(
        item.response.results[0],
        Err(EngineError::InvalidRequest(_))
    ));
}
