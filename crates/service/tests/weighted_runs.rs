//! A profile whose rankings come in runs solves exactly as the per-copy
//! profile it stands for. The pinned lines were recorded when every weight
//! expanded into copies (a columnar `weights` column in the decoder, an op's
//! `weight` in a PATCH); the run-based profile must reproduce them bit for
//! bit: the ranking, `pd_loss`, `correction_swaps`, `optimal` and
//! `satisfied` of every method.

use std::sync::Arc;

use mani_core::{MethodKind, MfcrContext};
use mani_engine::{EngineConfig, EngineDataset};
use mani_fairness::FairnessThresholds;
use mani_ranking::GroupIndex;
use mani_service::{decode_dataset, parse_body, ColumnarDataset, Service};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::Value;

/// Candidate `i` of an `n`-candidate schema over two binary attributes.
fn candidate(i: usize) -> (String, [&'static str; 2]) {
    (
        format!("c{i}"),
        [["x", "y"][i % 2], ["p", "q"][(i / 2) % 2]],
    )
}

/// A uniformly random order of `0..n` (Fisher–Yates).
fn random_order(n: usize, rng: &mut StdRng) -> Vec<usize> {
    let mut ids: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        ids.swap(i, rng.gen_range(0..i + 1));
    }
    ids
}

/// Four random rows, the second repeated as the third (an adjacent repeat
/// split across rows), each with a weight in 1..=4, decoded from a columnar
/// body.
fn columnar_runs(n: usize, seed: u64) -> Arc<EngineDataset> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut rankings: Vec<Vec<u32>> = (0..4)
        .map(|_| {
            random_order(n, &mut rng)
                .into_iter()
                .map(|i| i as u32)
                .collect()
        })
        .collect();
    rankings.insert(2, rankings[1].clone());
    let weights = (0..rankings.len())
        .map(|_| rng.gen_range(1..5) as u32)
        .collect();
    let columns = ColumnarDataset {
        name: format!("columnar-{n}-{seed}"),
        attributes: vec![
            ("G".to_string(), vec!["x".to_string(), "y".to_string()]),
            ("R".to_string(), vec!["p".to_string(), "q".to_string()]),
        ],
        candidates: (0..n)
            .map(|i| {
                let (name, [g, r]) = candidate(i);
                (name, vec![u32::from(g == "y"), u32::from(r == "q")])
            })
            .collect(),
        rankings,
        weights: Some(weights),
    };
    decode_dataset(&columns.encode().expect("encode")).expect("decode")
}

/// JSON names of an order.
fn names(order: &[usize]) -> String {
    let names: Vec<String> = order.iter().map(|i| format!(r#""c{i}""#)).collect();
    format!("[{}]", names.join(","))
}

/// Three random rankings uploaded as JSON, then one PATCH of weighted ops:
/// two adjacent appends of one ranking, a third ranking, the first ranking
/// again, a retract that spans both of its runs and a retract of a base
/// ranking.
fn patched_runs(n: usize, seed: u64) -> Arc<EngineDataset> {
    let mut rng = StdRng::seed_from_u64(seed);
    let base: Vec<Vec<usize>> = (0..3).map(|_| random_order(n, &mut rng)).collect();
    let candidates: Vec<String> = (0..n)
        .map(|i| {
            let (name, [g, r]) = candidate(i);
            format!(r#"{{"name": "{name}", "attributes": {{"G": "{g}", "R": "{r}"}}}}"#)
        })
        .collect();
    let doc = format!(
        r#"{{"name": "patched-{n}-{seed}", "candidates": [{}], "rankings": [{}]}}"#,
        candidates.join(","),
        base.iter().map(|o| names(o)).collect::<Vec<_>>().join(",")
    );
    let service = Service::new(
        EngineConfig {
            threads: 1,
            ..EngineConfig::default()
        },
        16,
    );
    let created = service
        .dataset_create(&parse_body(&doc).unwrap())
        .expect("upload");
    let id = created
        .get("id")
        .and_then(Value::as_str)
        .unwrap()
        .to_string();
    let x = names(&random_order(n, &mut rng));
    let y = names(&random_order(n, &mut rng));
    let first = names(&base[0]);
    let patch = format!(
        r#"{{"ops": [
            {{"op": "append", "ranking": {x}, "weight": 3}},
            {{"op": "append", "ranking": {x}, "weight": 2}},
            {{"op": "append", "ranking": {y}, "weight": 2}},
            {{"op": "append", "ranking": {x}, "weight": 2}},
            {{"op": "retract", "ranking": {x}, "weight": 4}},
            {{"op": "retract", "ranking": {first}}}
        ]}}"#
    );
    service
        .dataset_patch(&id, &parse_body(&patch).unwrap())
        .expect("patch");
    service.datasets().current(&id).unwrap().dataset
}

/// One line per method: its ranking, `pd_loss`, swaps, `optimal` and
/// `satisfied`, solved without a shared matrix (the profile builds it and
/// sums Kendall distances) and checked against a solve that reads a shared
/// matrix.
fn solve_lines(dataset: &EngineDataset) -> Vec<String> {
    let groups = GroupIndex::new(dataset.db());
    let thresholds = FairnessThresholds::uniform(0.1);
    let ctx = MfcrContext::new(dataset.db(), &groups, dataset.profile(), thresholds);
    let matrix = dataset.profile().precedence_matrix();
    let shared = ctx.clone().with_precedence(&matrix);
    let mut lines = vec![format!("{} |R|={}", dataset.name(), dataset.num_rankings())];
    for kind in MethodKind::all() {
        let line = |ctx: &MfcrContext<'_>| {
            let outcome = kind.instantiate().solve(ctx).unwrap();
            let ids: Vec<u32> = outcome.ranking.iter().map(|c| c.0).collect();
            format!(
                "{} {ids:?} {:?} {} {} {}",
                outcome.method,
                outcome.pd_loss,
                outcome.correction_swaps,
                outcome.optimal,
                outcome.criteria.is_satisfied()
            )
        };
        let plain = line(&ctx);
        assert_eq!(plain, line(&shared), "shared matrix, {}", dataset.name());
        lines.push(plain);
    }
    lines
}

/// Recorded with every weight expanded into copies.
const GOLDEN: &[&str] = &[
    "columnar-4-11 |R|=12",
    "Fair-Kemeny [2, 1, 3, 0] 0.20833333333333334 0 false false",
    "Fair-Schulze [2, 1, 3, 0] 0.20833333333333334 36 true false",
    "Fair-Borda [2, 1, 3, 0] 0.20833333333333334 36 true false",
    "Fair-Copeland [2, 1, 3, 0] 0.20833333333333334 36 true false",
    "Kemeny [2, 1, 3, 0] 0.20833333333333334 0 true false",
    "Kemeny-Weighted [2, 1, 3, 0] 0.20833333333333334 0 true false",
    "Pick-Fairest-Perm [2, 1, 3, 0] 0.20833333333333334 0 true false",
    "Correct-Fairest-Perm [2, 1, 3, 0] 0.20833333333333334 36 true false",
    "columnar-6-12 |R|=9",
    "Fair-Kemeny [4, 5, 2, 1, 0, 3] 0.3111111111111111 0 false false",
    "Fair-Schulze [4, 5, 2, 1, 0, 3] 0.3111111111111111 90 true false",
    "Fair-Borda [4, 5, 2, 1, 0, 3] 0.3111111111111111 90 true false",
    "Fair-Copeland [4, 5, 2, 1, 0, 3] 0.3111111111111111 90 true false",
    "Kemeny [4, 2, 0, 5, 3, 1] 0.1925925925925926 0 true false",
    "Kemeny-Weighted [4, 2, 5, 3, 1, 0] 0.22962962962962963 0 true false",
    "Pick-Fairest-Perm [5, 4, 3, 2, 1, 0] 0.37037037037037035 0 true false",
    "Correct-Fairest-Perm [5, 4, 3, 0, 1, 2] 0.48148148148148145 90 true false",
    "columnar-8-13 |R|=14",
    "Fair-Kemeny [0, 7, 2, 1, 5, 6, 3, 4] 0.34438775510204084 0 true true",
    "Fair-Schulze [1, 6, 0, 7, 2, 3, 5, 4] 0.44642857142857145 168 true false",
    "Fair-Borda [0, 7, 6, 5, 1, 2, 3, 4] 0.36989795918367346 88 true true",
    "Fair-Copeland [0, 7, 5, 2, 6, 1, 3, 4] 0.3494897959183674 8 true true",
    "Kemeny [0, 6, 4, 7, 2, 1, 5, 3] 0.2627551020408163 0 true false",
    "Kemeny-Weighted [5, 7, 2, 0, 6, 3, 4, 1] 0.36989795918367346 0 true false",
    "Pick-Fairest-Perm [5, 7, 2, 0, 6, 3, 4, 1] 0.36989795918367346 0 true false",
    "Correct-Fairest-Perm [5, 7, 2, 0, 4, 6, 3, 1] 0.40561224489795916 2 true true",
    "patched-5-21 |R|=7",
    "Fair-Kemeny [4, 2, 1, 3, 0] 0.34285714285714286 0 false false",
    "Fair-Schulze [4, 2, 1, 3, 0] 0.34285714285714286 60 true false",
    "Fair-Borda [4, 2, 1, 3, 0] 0.34285714285714286 60 true false",
    "Fair-Copeland [4, 2, 1, 3, 0] 0.34285714285714286 60 true false",
    "Kemeny [2, 1, 3, 4, 0] 0.18571428571428572 0 true false",
    "Kemeny-Weighted [2, 1, 3, 4, 0] 0.18571428571428572 0 true false",
    "Pick-Fairest-Perm [2, 1, 0, 3, 4] 0.2714285714285714 0 true false",
    "Correct-Fairest-Perm [0, 2, 1, 3, 4] 0.4142857142857143 60 true false",
    "patched-7-22 |R|=7",
    "Fair-Kemeny [5, 4, 6, 3, 2, 0, 1] 0.36054421768707484 0 true true",
    "Fair-Schulze [5, 2, 4, 3, 0, 6, 1] 0.3673469387755102 6 true true",
    "Fair-Borda [5, 4, 2, 3, 6, 0, 1] 0.3673469387755102 14 true true",
    "Fair-Copeland [5, 2, 4, 3, 0, 6, 1] 0.3673469387755102 6 true true",
    "Kemeny [5, 4, 0, 2, 1, 6, 3] 0.23129251700680273 0 true false",
    "Kemeny-Weighted [5, 4, 2, 0, 1, 6, 3] 0.23809523809523808 0 true false",
    "Pick-Fairest-Perm [6, 1, 4, 5, 3, 0, 2] 0.43537414965986393 0 true false",
    "Correct-Fairest-Perm [6, 1, 4, 3, 0, 5, 2] 0.5306122448979592 2 true true",
    "patched-8-23 |R|=7",
    "Fair-Kemeny [3, 2, 0, 1, 5, 4, 6, 7] 0.3979591836734694 0 true true",
    "Fair-Schulze [3, 2, 0, 5, 6, 1, 7, 4] 0.3979591836734694 168 true false",
    "Fair-Borda [2, 3, 0, 1, 5, 4, 7, 6] 0.40816326530612246 3 true true",
    "Fair-Copeland [3, 2, 0, 1, 5, 4, 6, 7] 0.3979591836734694 4 true true",
    "Kemeny [3, 4, 2, 7, 0, 1, 5, 6] 0.3673469387755102 0 true false",
    "Kemeny-Weighted [3, 2, 7, 0, 5, 6, 1, 4] 0.37755102040816324 0 true false",
    "Pick-Fairest-Perm [3, 6, 4, 2, 7, 0, 1, 5] 0.40816326530612246 0 true false",
    "Correct-Fairest-Perm [3, 1, 4, 6, 2, 0, 5, 7] 0.46938775510204084 4 true true",
];

#[test]
fn runs_solve_exactly_as_their_copies_did() {
    let datasets = [
        columnar_runs(4, 11),
        columnar_runs(6, 12),
        columnar_runs(8, 13),
        patched_runs(5, 21),
        patched_runs(7, 22),
        patched_runs(8, 23),
    ];
    let lines: Vec<String> = datasets.iter().flat_map(|d| solve_lines(d)).collect();
    assert_eq!(lines, GOLDEN);
}
