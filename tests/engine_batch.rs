//! Integration tests for the batch consensus engine, exercised through the
//! umbrella crate exactly as a downstream service would use it:
//!
//! * cache-hit equivalence — engine results are bit-identical to direct
//!   per-method `MfcrMethod::solve` calls,
//! * single-build sharing — a batch over `d` datasets computes exactly `d`
//!   precedence matrices (asserted via cache stats),
//! * deterministic ordering — responses and per-method results arrive in
//!   request order for any thread count,
//! * CSV round-trip for the CLI loader.

use std::sync::Arc;

use mani_rank::engine::{csvio, ConsensusEngine, ConsensusRequest, EngineConfig, EngineDataset};
use mani_rank::prelude::*;

fn workload(n: usize, m: usize, theta: f64, seed: u64) -> (CandidateDb, RankingProfile) {
    let db = mani_rank::datagen::binary_population(n, 0.5, 0.5, seed);
    let modal = ModalRankingBuilder::new(&db).build(&FairnessTarget::low_fair(2));
    let profile = MallowsModel::new(modal, theta).sample_profile(m, seed ^ 0x515);
    (db, profile)
}

fn dataset(n: usize, m: usize, theta: f64, seed: u64) -> Arc<EngineDataset> {
    let (db, profile) = workload(n, m, theta, seed);
    Arc::new(EngineDataset::new(format!("w{n}x{m}s{seed}"), db, profile).unwrap())
}

const METHODS: [MethodKind; 5] = [
    MethodKind::FairBorda,
    MethodKind::FairCopeland,
    MethodKind::FairSchulze,
    MethodKind::PickFairestPerm,
    MethodKind::CorrectFairestPerm,
];

#[test]
fn batched_results_are_bit_identical_to_direct_solve_with_one_build_per_dataset() {
    let engine = ConsensusEngine::with_config(EngineConfig {
        threads: 4,
        default_budget: None,
        ..EngineConfig::default()
    });
    let datasets = [dataset(24, 12, 0.8, 5), dataset(30, 15, 0.6, 9)];
    let delta = 0.15;

    let responses = engine.submit_batch(
        datasets
            .iter()
            .map(|ds| {
                ConsensusRequest::new(Arc::clone(ds), METHODS, FairnessThresholds::uniform(delta))
            })
            .collect(),
    );

    // The batch over two datasets and five methods built exactly two matrices.
    let stats = engine.cache().stats();
    assert_eq!(stats.builds, 2, "one precedence build per dataset");
    assert_eq!(stats.entries, 2);
    assert_eq!(
        stats.hits,
        stats.lookups - 2,
        "every lookup after the builds must hit"
    );

    // Every batched outcome equals the direct, single-threaded library call.
    for (ds, response) in datasets.iter().zip(&responses) {
        assert!(response.is_complete());
        let groups = GroupIndex::new(ds.db());
        for result in response.successes() {
            let ctx = MfcrContext::new(
                ds.db(),
                &groups,
                ds.profile(),
                FairnessThresholds::uniform(delta),
            );
            let direct = result.method.instantiate().solve(&ctx).unwrap();
            assert_eq!(
                direct.ranking,
                result.outcome.ranking,
                "{} on {}: batched ranking differs from direct solve",
                result.method.name(),
                response.dataset
            );
            assert_eq!(direct.pd_loss, result.outcome.pd_loss);
            assert_eq!(
                direct.criteria.is_satisfied(),
                result.outcome.criteria.is_satisfied()
            );
            assert_eq!(direct.correction_swaps, result.outcome.correction_swaps);
        }
    }
}

#[test]
fn batch_ordering_is_deterministic_across_thread_counts() {
    let datasets = [
        dataset(16, 8, 0.7, 21),
        dataset(20, 10, 0.5, 22),
        dataset(18, 6, 0.9, 23),
    ];
    let collect = |threads: usize| -> Vec<(String, Vec<String>)> {
        let engine = ConsensusEngine::with_config(EngineConfig {
            threads,
            default_budget: None,
            ..EngineConfig::default()
        });
        let responses = engine.submit_batch(
            datasets
                .iter()
                .map(|ds| {
                    ConsensusRequest::new(Arc::clone(ds), METHODS, FairnessThresholds::uniform(0.2))
                })
                .collect(),
        );
        responses
            .into_iter()
            .map(|response| {
                let methods: Vec<String> = response
                    .successes()
                    .map(|r| {
                        let order: Vec<u32> = r.outcome.ranking.iter().map(|c| c.0).collect();
                        format!("{}:{order:?}", r.method.name())
                    })
                    .collect();
                (response.dataset.clone(), methods)
            })
            .collect()
    };

    let single = collect(1);
    for threads in [2, 4, 8] {
        assert_eq!(
            collect(threads),
            single,
            "results must not depend on the worker count ({threads} threads)"
        );
    }
    // Responses come back in request order with methods in request order.
    assert_eq!(single[0].0, "w16x8s21");
    assert_eq!(single[1].0, "w20x10s22");
    assert!(single[0].1[0].starts_with("Fair-Borda:"));
    assert!(single[0].1[4].starts_with("Correct-Fairest-Perm:"));
}

#[test]
fn engine_handles_duplicate_datasets_and_mixed_thresholds() {
    let engine = ConsensusEngine::new();
    let shared = dataset(22, 10, 0.8, 31);
    let responses = engine.submit_batch(vec![
        ConsensusRequest::new(
            Arc::clone(&shared),
            [MethodKind::FairBorda],
            FairnessThresholds::uniform(0.05),
        ),
        ConsensusRequest::new(
            Arc::clone(&shared),
            [MethodKind::FairBorda],
            FairnessThresholds::unconstrained(),
        ),
    ]);
    assert_eq!(engine.cache().stats().builds, 1, "same dataset, one build");
    let tight = responses[0].outcome(MethodKind::FairBorda).unwrap();
    let loose = responses[1].outcome(MethodKind::FairBorda).unwrap();
    assert!(tight.criteria.is_satisfied());
    assert_eq!(
        loose.correction_swaps, 0,
        "unconstrained thresholds need no correction"
    );
    assert!(tight.pd_loss >= loose.pd_loss - 1e-12);
}

#[test]
fn csv_round_trip_preserves_database_and_profile() {
    let (db, profile) = workload(18, 7, 0.6, 77);
    let candidates_csv = csvio::render_candidates(&db);
    let rankings_csv = csvio::render_rankings(&profile, &db);

    let db2 = csvio::parse_candidates(&candidates_csv).unwrap();
    assert_eq!(db, db2, "candidate database must survive the round trip");
    let profile2 = csvio::parse_rankings(&rankings_csv, &db2).unwrap();
    assert_eq!(profile, profile2, "profile must survive the round trip");

    // And the round-tripped dataset produces identical consensus outcomes.
    let original = Arc::new(EngineDataset::new("orig", db, profile).unwrap());
    let reloaded = Arc::new(EngineDataset::new("reload", db2, profile2).unwrap());
    assert_eq!(original.fingerprint(), reloaded.fingerprint());

    let engine = ConsensusEngine::new();
    let responses = engine.submit_batch(vec![
        ConsensusRequest::new(original, METHODS, FairnessThresholds::uniform(0.1)),
        ConsensusRequest::new(reloaded, METHODS, FairnessThresholds::uniform(0.1)),
    ]);
    assert_eq!(
        engine.cache().stats().builds,
        1,
        "identical content shares one entry"
    );
    for (a, b) in responses[0].successes().zip(responses[1].successes()) {
        assert_eq!(a.outcome.ranking, b.outcome.ranking);
    }
}

#[test]
fn exact_methods_respect_request_budgets_in_batches() {
    let engine = ConsensusEngine::new();
    let ds = dataset(14, 8, 0.6, 91);
    let responses = engine.submit_batch(vec![
        ConsensusRequest::new(
            Arc::clone(&ds),
            [MethodKind::FairKemeny],
            FairnessThresholds::uniform(0.3),
        )
        .with_budget(3),
        ConsensusRequest::new(
            ds,
            [MethodKind::FairKemeny],
            FairnessThresholds::uniform(0.3),
        )
        .with_budget(2_000_000),
    ]);
    let starved = responses[0].outcome(MethodKind::FairKemeny).unwrap();
    let funded = responses[1].outcome(MethodKind::FairKemeny).unwrap();
    assert!(!starved.optimal, "3 nodes cannot close n = 14");
    assert!(funded.optimal, "2M nodes close n = 14");
    assert!(funded.pd_loss <= starved.pd_loss + 1e-12);
    assert!(funded.criteria.is_satisfied());
}
