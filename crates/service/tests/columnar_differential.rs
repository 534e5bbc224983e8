//! Differential tests for the binary columnar dataset codec: a columnar
//! encode → decode round trip must reproduce exactly the dataset the JSON
//! parser builds from the same rows — same fingerprint, same structure — and
//! consensus over the columnar twin must be bit-identical to the JSON twin.
//! Truncated and mutated bodies of both codecs decode to an error or to the
//! dataset their bytes describe, never to a panic.

use std::sync::Arc;

use mani_core::MethodKind;
use mani_engine::{ConsensusRequest, EngineConfig, EngineDataset};
use mani_fairness::FairnessThresholds;
use mani_service::{
    dataset_to_value, decode_dataset, encode_dataset, method_result_json, parse_body,
    parse_dataset, render, ColumnarDataset, Service,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::Value;

/// A random JSON dataset document: `n` candidates over one group attribute,
/// `m` random-permutation rankings.
fn random_dataset_json(n: usize, m: usize, seed: u64) -> String {
    let mut rng = StdRng::seed_from_u64(seed);
    let candidates: Vec<String> = (0..n)
        .map(|i| {
            // Alternate groups so the protected attribute always has two
            // distinct values (the parsers reject degenerate domains).
            let group = if i % 2 == 0 { "x" } else { "y" };
            let _ = &mut rng;
            format!(r#"{{"name": "cand-{i:03}", "attributes": {{"G": "{group}"}}}}"#)
        })
        .collect();
    let rankings: Vec<String> = (0..m)
        .map(|_| {
            let mut ids: Vec<usize> = (0..n).collect();
            // Fisher-Yates over candidate indexes.
            for i in (1..n).rev() {
                let j = rng.gen_range(0..i + 1);
                ids.swap(i, j);
            }
            let names: Vec<String> = ids.iter().map(|i| format!(r#""cand-{i:03}""#)).collect();
            format!("[{}]", names.join(","))
        })
        .collect();
    format!(
        r#"{{"name": "prop", "candidates": [{}], "rankings": [{}]}}"#,
        candidates.join(","),
        rankings.join(",")
    )
}

fn json_parsed(doc: &str) -> Arc<EngineDataset> {
    parse_dataset(&parse_body(doc).expect("valid JSON")).expect("valid dataset")
}

/// Structural equality via the canonical JSON rendering (name, attribute
/// schema, candidate rows, and every ranking in order).
fn canonical(dataset: &EngineDataset) -> String {
    render(&dataset_to_value(dataset))
}

proptest! {
    #[test]
    fn prop_columnar_round_trip_matches_json_parse(
        n in 2usize..24,
        m in 1usize..12,
        seed in any::<u64>(),
    ) {
        let doc = random_dataset_json(n, m, seed);
        let from_json = json_parsed(&doc);
        let decoded = decode_dataset(&encode_dataset(&from_json)).expect("round trip");
        prop_assert_eq!(from_json.fingerprint(), decoded.fingerprint());
        prop_assert_eq!(canonical(&from_json), canonical(&decoded));
    }

    #[test]
    fn prop_weighted_columnar_expands_like_repeated_json_rankings(
        n in 2usize..12,
        seed in any::<u64>(),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let weights: Vec<u32> = (0..3).map(|_| rng.gen_range(1..4) as u32).collect();
        let doc = random_dataset_json(n, weights.len(), seed);
        let base = json_parsed(&doc);

        // Weighted columnar document: each ranking carries a multiplicity.
        let mut columns = ColumnarDataset::from_dataset(&base);
        columns.weights = Some(weights.clone());
        let decoded = decode_dataset(&columns.encode().expect("encode")).expect("decode");

        // JSON twin: the same rankings repeated weight-many times.
        let parsed = parse_body(&doc).unwrap();
        let rankings = parsed.get("rankings").and_then(|v| v.as_array()).unwrap();
        let repeated: Vec<String> = rankings
            .iter()
            .zip(&weights)
            .flat_map(|(ranking, w)| std::iter::repeat_n(render(ranking), *w as usize))
            .collect();
        let twin_doc = format!(
            r#"{{"name": "prop", "candidates": {}, "rankings": [{}]}}"#,
            render(parsed.get("candidates").unwrap()),
            repeated.join(",")
        );
        let twin = json_parsed(&twin_doc);
        prop_assert_eq!(twin.fingerprint(), decoded.fingerprint());
        prop_assert_eq!(canonical(&twin), canonical(&decoded));
    }

    #[test]
    fn prop_consensus_is_bit_identical_across_codecs(seed in any::<u64>()) {
        let doc = random_dataset_json(6, 4, seed);
        let from_json = json_parsed(&doc);
        let from_columnar = decode_dataset(&encode_dataset(&from_json)).expect("round trip");

        let service = Service::new(
            EngineConfig { threads: 2, ..EngineConfig::default() },
            16,
        );
        let request = |dataset: Arc<EngineDataset>| ConsensusRequest::new(
            dataset,
            [MethodKind::FairBorda, MethodKind::FairCopeland],
            FairnessThresholds::uniform(0.2),
        );
        let handles = service
            .submit(&[request(Arc::clone(&from_json)), request(from_columnar)])
            .expect("submit");
        // Strip the volatile timing/cache fields; everything else — rankings,
        // losses, ARPs, satisfaction — must match byte for byte.
        let stable = |value: serde::Value| match value {
            serde::Value::Object(entries) => serde::Value::Object(
                entries
                    .into_iter()
                    .filter(|(k, _)| k != "duration_ms" && k != "precedence_cache_hit")
                    .collect(),
            ),
            other => other,
        };
        let rendered: Vec<Vec<String>> = handles
            .iter()
            .map(|handle| {
                let response = handle.wait();
                response
                    .results
                    .iter()
                    .map(|result| match result {
                        Ok(ok) => render(&stable(method_result_json(ok, from_json.db()))),
                        Err(e) => format!("error: {e}"),
                    })
                    .collect()
            })
            .collect();
        prop_assert_eq!(&rendered[0], &rendered[1], "codec twins must solve identically");
    }
}

/// Decodes `bytes`, which must fail with an `ApiError` or yield a dataset
/// whose fingerprint equals the header's and its rows'.
fn decode_checked(bytes: &[u8]) -> Result<(), TestCaseError> {
    if let Ok(dataset) = decode_dataset(bytes) {
        let header = u64::from_le_bytes(bytes[12..20].try_into().unwrap());
        prop_assert_eq!(dataset.fingerprint(), header);
        let fresh = EngineDataset::new(
            "fresh",
            (**dataset.db()).clone(),
            (**dataset.profile()).clone(),
        )
        .unwrap();
        prop_assert_eq!(dataset.fingerprint(), fresh.fingerprint());
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The columnar half of the decoder property test: truncated and
    /// single-byte-mutated bodies, weighted and unweighted, decode to a
    /// dataset that matches its header or to an `ApiError` — never a panic.
    #[test]
    fn prop_truncated_and_mutated_columnar_bodies_never_panic(
        n in 2usize..8,
        m in 1usize..5,
        weighted in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut columns = ColumnarDataset::from_dataset(&json_parsed(&random_dataset_json(n, m, seed)));
        if weighted {
            columns.weights = Some((0..m).map(|_| rng.gen_range(1..4) as u32).collect());
        }
        let body = columns.encode().expect("valid body");
        decode_checked(&body)?;
        prop_assert!(decode_dataset(&body).is_ok());
        for _ in 0..8 {
            decode_checked(&body[..rng.gen_range(0..body.len())])?;
        }
        for _ in 0..16 {
            let mut mutated = body.clone();
            let at = rng.gen_range(0..body.len());
            mutated[at] = rng.gen::<u32>() as u8;
            decode_checked(&mutated)?;
        }
    }
}

/// Bytes a mutation writes half of the time: JSON punctuation, digits and
/// the letters of its literals, so many mutants still parse as JSON and
/// reach the dataset and edit rules.
const JSON_BYTES: &[u8] = b"{}[]\":,0123456789-.eE truefalsn\\";

/// Eight truncations and sixteen single-byte mutations of `body`, parsed as
/// the JSON transport parses a body. Mutants that are not UTF-8 or not JSON
/// stop there, with an error, and are left out.
fn parsed_mutants(body: &str, rng: &mut StdRng) -> Vec<Value> {
    let bytes = body.as_bytes();
    let mut mutants: Vec<Vec<u8>> = (0..8)
        .map(|_| bytes[..rng.gen_range(0..bytes.len())].to_vec())
        .collect();
    for _ in 0..16 {
        let mut mutated = bytes.to_vec();
        mutated[rng.gen_range(0..bytes.len())] = if rng.gen_bool(0.5) {
            JSON_BYTES[rng.gen_range(0..JSON_BYTES.len())]
        } else {
            rng.gen::<u32>() as u8
        };
        mutants.push(mutated);
    }
    mutants
        .iter()
        .filter_map(|bytes| parse_body(std::str::from_utf8(bytes).ok()?).ok())
        .collect()
}

/// A PATCH body for the dataset document `doc`: append its first ranking
/// reversed, then retract its first ranking.
fn patch_json(doc: &str) -> String {
    let rankings = parse_body(doc).unwrap().get("rankings").cloned().unwrap();
    let first = rankings.as_array().unwrap()[0].clone();
    let mut reversed = first.as_array().unwrap().to_vec();
    reversed.reverse();
    format!(
        r#"{{"ops": [{{"op": "append", "ranking": {}}}, {{"op": "retract", "ranking": {}, "weight": 1}}]}}"#,
        render(&Value::Array(reversed)),
        render(&first)
    )
}

/// The rankings `parent` holds after the `ops` of a PATCH `body` the service
/// accepted, applied the way the API documents: an append adds `weight`
/// copies at the end, a retract removes the last `weight` copies.
fn patched_rankings(parent: &EngineDataset, body: &Value) -> Vec<Value> {
    let mut rankings = dataset_to_value(parent)
        .get("rankings")
        .and_then(Value::as_array)
        .unwrap()
        .to_vec();
    for op in body.get("ops").and_then(Value::as_array).unwrap() {
        let ranking = op.get("ranking").unwrap();
        let weight = match op.get("weight") {
            Some(Value::UInt(weight)) => *weight,
            Some(Value::Int(weight)) => *weight as u64,
            _ => 1,
        };
        for _ in 0..weight {
            if op.get("op").and_then(Value::as_str) == Some("append") {
                rankings.push(ranking.clone());
            } else {
                let last = rankings.iter().rposition(|r| r == ranking).unwrap();
                rankings.remove(last);
            }
        }
    }
    rankings
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The JSON half of the decoder property test: truncated and
    /// single-byte-mutated dataset uploads, bare or wrapped, and PATCH bodies
    /// go through `Service`. Each answers an `ApiError`, or `Ok` with the
    /// dataset a fresh `parse_dataset` of the same bytes builds (for a PATCH,
    /// of the parent's rows with the body's ops applied) — never a panic.
    #[test]
    fn prop_truncated_and_mutated_json_uploads_and_patches_never_panic(
        n in 2usize..8,
        m in 1usize..5,
        wrapped in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let service = Service::new(EngineConfig { threads: 1, ..EngineConfig::default() }, 16);
        let doc = random_dataset_json(n, m, seed);
        let upload = if wrapped { format!(r#"{{"dataset": {doc}}}"#) } else { doc.clone() };
        for body in parsed_mutants(&upload, &mut rng) {
            let Ok(created) = service.dataset_create(&body) else {
                continue;
            };
            let fresh = parse_dataset(body.get("dataset").unwrap_or(&body)).expect("accepted");
            let id = created.get("id").and_then(Value::as_str).unwrap();
            let stored = service.datasets().resolve_current(id).unwrap().dataset;
            prop_assert_eq!(stored.fingerprint(), fresh.fingerprint());
            prop_assert_eq!(canonical(&stored), canonical(&fresh));
            service.dataset_delete(id).unwrap();
        }

        let created = service.dataset_create(&parse_body(&doc).unwrap()).unwrap();
        let id = created.get("id").and_then(Value::as_str).unwrap();
        for body in parsed_mutants(&patch_json(&doc), &mut rng) {
            let parent = service.datasets().resolve_current(id).unwrap();
            if service.dataset_patch(id, &body).is_err() {
                continue;
            }
            let mut expected = dataset_to_value(&parent.dataset);
            if let Value::Object(entries) = &mut expected {
                for (key, value) in entries.iter_mut() {
                    if key == "rankings" {
                        *value = Value::Array(patched_rankings(&parent.dataset, &body));
                    }
                }
            }
            let fresh = parse_dataset(&expected).expect("the patched rows are a dataset");
            let current = service.datasets().resolve_current(id).unwrap();
            prop_assert_eq!(current.version, parent.version + 1);
            prop_assert_eq!(current.dataset.fingerprint(), fresh.fingerprint());
            prop_assert_eq!(canonical(&current.dataset), canonical(&fresh));
        }
    }
}

#[test]
fn a_twenty_thousand_candidate_body_decodes_alike_through_both_codecs() {
    let n = 20_000;
    let candidates: Vec<String> = (0..n)
        .map(|i| {
            let group = ["x", "y", "z"][i % 3];
            format!(r#"{{"name": "c{i}", "attributes": {{"G": "{group}"}}}}"#)
        })
        .collect();
    let ranking: Vec<String> = (0..n).rev().map(|i| format!(r#""c{i}""#)).collect();
    let doc = format!(
        r#"{{"name": "wide", "candidates": [{}], "rankings": [[{}]]}}"#,
        candidates.join(","),
        ranking.join(",")
    );
    let from_json = json_parsed(&doc);
    assert_eq!(from_json.num_candidates(), n);
    let twin = decode_dataset(&encode_dataset(&from_json)).expect("columnar twin");
    assert_eq!(twin.fingerprint(), from_json.fingerprint());
    assert_eq!(canonical(&twin), canonical(&from_json));
}

#[test]
fn single_candidate_dataset_is_rejected_by_both_codecs() {
    // One candidate cannot produce the two distinct protected-attribute
    // values the parsers require; the codecs must agree on the refusal.
    let doc = r#"{"name": "solo", "candidates": [{"name": "only", "attributes": {"G": "x"}}], "rankings": [["only"]]}"#;
    let json_err = parse_dataset(&parse_body(doc).unwrap()).expect_err("JSON refuses");
    let columns = ColumnarDataset {
        name: "solo".to_string(),
        attributes: vec![("G".to_string(), vec!["x".to_string()])],
        candidates: vec![("only".to_string(), vec![0])],
        rankings: vec![vec![0]],
        weights: None,
    };
    let columnar_err = columns.encode().expect_err("columnar refuses");
    assert!(
        json_err.message.contains("at least 2"),
        "{}",
        json_err.message
    );
    assert!(
        columnar_err.message.contains("at least 2"),
        "{}",
        columnar_err.message
    );
}

#[test]
fn max_u32_ranking_ids_are_rejected_not_wrapped() {
    let doc = random_dataset_json(4, 2, 7);
    let from_json = json_parsed(&doc);
    let mut encoded = encode_dataset(&from_json);
    // Unweighted layout puts the ranking items last: 4 candidates × 2
    // rankings of u32 ids. Splice u32::MAX over the first item.
    let first_item = encoded.len() - 4 * 4 * 2;
    encoded[first_item..first_item + 4].copy_from_slice(&u32::MAX.to_le_bytes());
    let error = decode_dataset(&encoded).expect_err("out-of-range id must not decode");
    assert!(
        error.message.contains("4294967295"),
        "error names the bad id: {}",
        error.message
    );
}
