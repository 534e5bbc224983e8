//! The content fingerprint a dataset stores when it is built. Its values are
//! pinned (registry ids and columnar headers are derived from them), and every
//! construction path — JSON, columnar, a PATCH, a session step, a clone —
//! must report the fingerprint a fresh [`EngineDataset::new`] computes over
//! the same rows.

use mani_engine::{EngineConfig, EngineDataset};
use mani_ranking::{Ranking, RankingProfile};
use mani_service::{
    dataset_id, decode_dataset, encode_dataset, parse_body, parse_dataset, ColumnarDataset,
    RequestContext, Service,
};
use serde::Value;

/// The committee example of `docs/API.md`.
const COMMITTEE: &str = r#"{
  "name": "committee",
  "candidates": [
    {"name": "alice", "attributes": {"Gender": "Woman", "Race": "GroupA"}},
    {"name": "bola",  "attributes": {"Gender": "Man",   "Race": "GroupB"}},
    {"name": "chen",  "attributes": {"Gender": "Woman", "Race": "GroupB"}},
    {"name": "dani",  "attributes": {"Gender": "Man",   "Race": "GroupA"}}
  ],
  "rankings": [
    ["alice", "bola", "chen", "dani"],
    ["dani", "chen", "bola", "alice"]
  ],
  "domains": {"Gender": ["Man", "Woman"]}
}"#;

/// The four-candidate demo dataset of the service's unit tests.
const DEMO: &str = r#"{
  "name": "demo",
  "candidates": [
    {"name": "a", "attributes": {"G": "x"}},
    {"name": "b", "attributes": {"G": "y"}},
    {"name": "c", "attributes": {"G": "x"}},
    {"name": "d", "attributes": {"G": "y"}}
  ],
  "rankings": [["a","b","c","d"], ["d","c","b","a"], ["a","c","b","d"]]
}"#;

fn parsed(doc: &str) -> std::sync::Arc<EngineDataset> {
    parse_dataset(&parse_body(doc).expect("valid JSON")).expect("valid dataset")
}

/// The fingerprint of a dataset built afresh from `dataset`'s rows.
fn fresh(dataset: &EngineDataset) -> u64 {
    EngineDataset::new(
        "fresh",
        (**dataset.db()).clone(),
        (**dataset.profile()).clone(),
    )
    .expect("same rows")
    .fingerprint()
}

fn service() -> Service {
    Service::new(
        EngineConfig {
            threads: 1,
            ..EngineConfig::default()
        },
        16,
    )
}

fn hex_field(value: &Value, key: &str) -> String {
    value
        .get(key)
        .and_then(Value::as_str)
        .unwrap_or_else(|| panic!("no `{key}` in {value:?}"))
        .to_string()
}

#[test]
fn fingerprints_of_the_documented_datasets_are_pinned() {
    let committee = parsed(COMMITTEE);
    assert_eq!(committee.fingerprint(), 0xe181_fba3_b10b_68ea);
    assert_eq!(dataset_id(&committee), "ds-e181fba3b10b68ea");
    let demo = parsed(DEMO);
    assert_eq!(demo.fingerprint(), 0x0147_f74b_a614_01d6);
    // The columnar header carries the same value.
    let header = &encode_dataset(&committee)[12..20];
    assert_eq!(header, 0xe181_fba3_b10b_68ea_u64.to_le_bytes());
}

#[test]
fn decoded_and_cloned_datasets_store_the_fingerprint_of_their_rows() {
    let json = parsed(COMMITTEE);
    assert_eq!(json.fingerprint(), fresh(&json));

    let columnar = decode_dataset(&encode_dataset(&json)).expect("round trip");
    assert_eq!(columnar.fingerprint(), fresh(&columnar));
    assert_eq!(columnar.fingerprint(), json.fingerprint());

    let mut columns = ColumnarDataset::from_dataset(&json);
    columns.weights = Some(vec![2, 3]);
    let weighted = decode_dataset(&columns.encode().expect("encode")).expect("decode");
    assert_eq!(weighted.num_rankings(), 5);
    assert_eq!(weighted.fingerprint(), fresh(&weighted));

    let renamed = EngineDataset::from_arcs("other", json.db().clone(), json.profile().clone())
        .expect("same rows");
    assert_eq!(renamed.fingerprint(), json.fingerprint());
    let cloned = (*json).clone();
    assert_eq!(cloned.fingerprint(), json.fingerprint());
}

#[test]
fn a_patched_version_stores_the_fingerprint_of_its_rows() {
    let service = service();
    let created = service
        .dataset_create(&parse_body(COMMITTEE).unwrap())
        .expect("upload");
    let id = hex_field(&created, "id");
    assert_eq!(id, "ds-e181fba3b10b68ea");
    let patch = parse_body(
        r#"{"ops": [
            {"op": "append",  "ranking": ["dani", "alice", "bola", "chen"], "weight": 2},
            {"op": "retract", "ranking": ["alice", "bola", "chen", "dani"]}
        ]}"#,
    )
    .unwrap();
    let patched = service.dataset_patch(&id, &patch).expect("patch");
    let current = service.datasets().current(&id).expect("registered");
    assert_eq!(current.version, 2);
    assert_eq!(current.dataset.fingerprint(), fresh(&current.dataset));
    assert_eq!(
        hex_field(&patched, "fingerprint"),
        format!("{:016x}", fresh(&current.dataset))
    );
    // The documented PATCH example answers this fingerprint. Its version
    // holds two adjacent copies of one ranking: one run of weight 2.
    assert_eq!(hex_field(&patched, "fingerprint"), "f701b8a9025ce8cb");
}

#[test]
fn every_session_step_stores_the_fingerprint_of_its_rows() {
    let service = service();
    let base = parsed(COMMITTEE);
    let body = parse_body(&format!(
        r#"{{"dataset": {COMMITTEE}, "methods": ["Fair-Borda"], "delta": 0.2,
            "edits": [
                {{"op": "append", "ranking": ["dani", "alice", "bola", "chen"]}},
                [{{"op": "append", "ranking": ["chen", "dani", "alice", "bola"], "weight": 2}},
                 {{"op": "retract", "ranking": ["alice", "bola", "chen", "dani"]}}]
            ]}}"#
    ))
    .unwrap();
    let session = service
        .session(&body, &RequestContext::new(None))
        .expect("session");
    let mut lines = String::new();
    match service.drive(session, &mut lines) {
        Ok(()) => {}
        Err(never) => match never {},
    }

    // The same states, built by hand: ids are alice 0, bola 1, chen 2, dani 3.
    let ranking = |ids: [u32; 4]| Ranking::from_ids(ids).unwrap();
    let mut rankings = base.profile().rankings().to_vec();
    rankings.push(ranking([3, 0, 1, 2]));
    let first = rankings.clone();
    rankings.extend([ranking([2, 3, 0, 1]), ranking([2, 3, 0, 1])]);
    rankings.remove(0);
    let second = rankings;
    let expected: Vec<u64> = [first, second]
        .into_iter()
        .map(|rankings| {
            let profile = RankingProfile::new(rankings).unwrap();
            EngineDataset::new("hand", (**base.db()).clone(), profile)
                .unwrap()
                .fingerprint()
        })
        .collect();

    let steps: Vec<Value> = lines
        .lines()
        .map(|line| parse_body(line).unwrap())
        .filter(|line| line.get("edit").is_some())
        .collect();
    assert_eq!(steps.len(), 2, "{lines}");
    for (step, expected) in steps.iter().zip(expected) {
        assert_eq!(hex_field(step, "fingerprint"), format!("{expected:016x}"));
    }
}
