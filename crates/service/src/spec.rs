//! Consensus request specs: parsing API payloads into engine types and
//! rendering engine results back out, all over the workspace's serde shim
//! [`Value`] data model.
//!
//! A consensus payload looks like:
//!
//! ```json
//! {
//!   "dataset": {
//!     "name": "committee",
//!     "candidates": [
//!       {"name": "alice", "attributes": {"Gender": "Woman", "Race": "GroupA"}},
//!       {"name": "bola",  "attributes": {"Gender": "Man",   "Race": "GroupB"}}
//!     ],
//!     "rankings": [["alice", "bola"], ["bola", "alice"]],
//!     "domains": {"Gender": ["Man", "Woman"]}
//!   },
//!   "methods": ["Fair-Borda", "Fair-Copeland"],
//!   "delta": 0.1,
//!   "attribute_deltas": {"Gender": 0.05},
//!   "intersection_delta": 0.2,
//!   "budget": 100000
//! }
//! ```
//!
//! Attribute value domains are inferred in first-appearance order across the
//! candidate list (like the CSV front-end); the optional `domains` object pins
//! an explicit order so group ids stay stable across clients.
//!
//! [`dataset_to_value`] is the inverse of [`parse_dataset`]: it renders a
//! dataset back into this JSON shape (used by the wire-codec bench and the
//! differential columnar-vs-JSON tests).

use std::collections::HashMap;
use std::sync::Arc;

use mani_core::MethodKind;
use mani_engine::{ConsensusRequest, EngineDataset, MethodResult};
use mani_fairness::FairnessThresholds;
use mani_ranking::{CandidateDb, CandidateDbBuilder, Ranking, RankingError, RankingProfile};
use serde::{Serialize, Value};

use crate::error::ApiError;
use crate::registry::DatasetRegistry;
use crate::value::{as_f64, obj, s};

/// One fully parsed consensus request spec, ready to submit or cache-key.
#[derive(Debug, Clone)]
pub struct ConsensusSpec {
    /// The parsed dataset.
    pub dataset: Arc<EngineDataset>,
    /// Methods to run, in response order.
    pub methods: Vec<MethodKind>,
    /// Fairness thresholds Δ.
    pub thresholds: FairnessThresholds,
    /// Optional exact-solver node budget.
    pub budget: Option<u64>,
}

impl ConsensusSpec {
    /// The engine request this spec describes.
    pub fn request(&self) -> ConsensusRequest {
        let mut request = ConsensusRequest::new(
            Arc::clone(&self.dataset),
            self.methods.iter().copied(),
            self.thresholds.clone(),
        );
        if let Some(budget) = self.budget {
            request = request.with_budget(budget);
        }
        request
    }

    /// Canonical response-cache key for one method of this spec: dataset
    /// content fingerprint + serialized thresholds + method + budget. Two
    /// requests with identical content collide on purpose, whatever their
    /// dataset display names.
    pub fn cache_key(&self, method: MethodKind) -> String {
        let thresholds = serde_json::to_string(&self.thresholds)
            .expect("shim serialization of thresholds cannot fail");
        format!(
            "{:016x}|{}|{}|{:?}",
            self.dataset.fingerprint(),
            thresholds,
            method.name(),
            self.budget
        )
    }
}

/// Resolves the dataset of a request body.
///
/// Three forms are accepted under `dataset`:
///
/// * an inline document (`{"name", "candidates", "rankings", ...}`);
/// * a registry reference `{"id": "ds-...", "version"?: N}` — distinguished
///   from the inline form by the presence of an `id` key. Omitting `version`
///   resolves the id's current version; pinning an evicted version is a
///   [`crate::ApiErrorKind::Conflict`].
/// * (legacy, deprecated) a flat string sibling `"dataset_id": "ds-..."`.
pub fn resolve_spec_dataset(
    value: &Value,
    registry: Option<&DatasetRegistry>,
) -> Result<Arc<EngineDataset>, ApiError> {
    match (value.get("dataset"), value.get("dataset_id")) {
        (Some(_), Some(_)) => Err(ApiError::invalid(
            "pass either `dataset` or `dataset_id`, not both",
        )),
        (Some(inline), None) => match inline.get("id") {
            Some(raw) => {
                let id = raw
                    .as_str()
                    .ok_or_else(|| ApiError::invalid("`dataset.id` must be a string"))?;
                let registry = require_registry(registry)?;
                match inline.get("version") {
                    None | Some(Value::Null) => registry.resolve(id),
                    Some(raw) => {
                        let version = match raw {
                            Value::UInt(u) => *u,
                            Value::Int(i) if *i > 0 => *i as u64,
                            _ => {
                                return Err(ApiError::invalid(
                                    "`dataset.version` must be a positive integer",
                                ))
                            }
                        };
                        registry.resolve_version(id, version).map(|r| r.dataset)
                    }
                }
            }
            None => parse_dataset(inline),
        },
        (None, Some(raw)) => {
            let id = raw
                .as_str()
                .ok_or_else(|| ApiError::invalid("`dataset_id` must be a string"))?;
            require_registry(registry)?.resolve(id)
        }
        (None, None) => Err(ApiError::invalid("missing `dataset` (or `dataset_id`)")),
    }
}

/// The registry, or the invalid-argument error contexts without one report.
fn require_registry(registry: Option<&DatasetRegistry>) -> Result<&DatasetRegistry, ApiError> {
    registry.ok_or_else(|| {
        ApiError::invalid("dataset references by id are not supported in this context")
    })
}

/// Parses one consensus spec (`dataset` or `dataset_id`, plus solve
/// options). `registry` resolves dataset references by id.
///
/// Solve options come in two equivalent shapes:
///
/// * **nested** — one `"options"` object:
///   `{"methods": [...], "thresholds": {"delta", "attribute_deltas",
///   "intersection_delta"}, "budget": N, "parallelism": K}`. `parallelism`
///   is an advisory worker-count hint: every kernel in the workspace is
///   bit-identical across thread counts, so it never changes results and the
///   engine's configured budget wins.
/// * **flat (legacy)** — `methods`, `delta`, `attribute_deltas`,
///   `intersection_delta`, `budget` as top-level siblings.
///
/// Mixing the two shapes in one request is rejected so clients cannot send
/// conflicting values.
pub fn parse_consensus_spec(
    value: &Value,
    registry: Option<&DatasetRegistry>,
) -> Result<ConsensusSpec, ApiError> {
    let dataset = resolve_spec_dataset(value, registry)?;
    let (methods, thresholds, budget) = match value.get("options") {
        None => (
            parse_methods(value.get("methods"))?,
            parse_thresholds(value, dataset.db())?,
            parse_budget(value.get("budget"))?,
        ),
        Some(options) => parse_solve_options(value, options, dataset.db())?,
    };
    Ok(ConsensusSpec {
        dataset,
        methods,
        thresholds,
        budget,
    })
}

/// Parses the nested `options` object (see [`parse_consensus_spec`]),
/// rejecting unknown option keys and any legacy flat sibling that would
/// shadow a nested value.
fn parse_solve_options(
    value: &Value,
    options: &Value,
    db: &CandidateDb,
) -> Result<(Vec<MethodKind>, FairnessThresholds, Option<u64>), ApiError> {
    let entries = options
        .as_object()
        .ok_or_else(|| ApiError::invalid("`options` must be an object"))?;
    for (key, _) in entries {
        match key.as_str() {
            "methods" | "thresholds" | "budget" | "parallelism" => {}
            other => {
                return Err(ApiError::invalid(format!(
                    "unknown `options` key `{other}` (expected methods, thresholds, \
                     budget, or parallelism)"
                )));
            }
        }
    }
    for flat in [
        "methods",
        "delta",
        "attribute_deltas",
        "intersection_delta",
        "budget",
    ] {
        if value.get(flat).is_some() {
            return Err(ApiError::invalid(format!(
                "pass `{flat}` either flat (legacy) or inside `options`, not both"
            )));
        }
    }
    let thresholds = match options.get("thresholds") {
        None | Some(Value::Null) => FairnessThresholds::uniform(0.1),
        Some(nested) => {
            nested
                .as_object()
                .ok_or_else(|| ApiError::invalid("`options.thresholds` must be an object"))?;
            parse_thresholds(nested, db)?
        }
    };
    if let Some(raw) = options.get("parallelism") {
        match raw {
            Value::Null => {}
            Value::UInt(u) if *u > 0 => {}
            Value::Int(i) if *i > 0 => {}
            _ => {
                return Err(ApiError::invalid(
                    "`options.parallelism` must be a positive integer",
                ));
            }
        }
    }
    Ok((
        parse_methods(options.get("methods"))?,
        thresholds,
        parse_budget(options.get("budget"))?,
    ))
}

/// Parses the optional exact-solver node budget.
pub fn parse_budget(value: Option<&Value>) -> Result<Option<u64>, ApiError> {
    match value {
        None | Some(Value::Null) => Ok(None),
        Some(Value::UInt(u)) => Ok(Some(*u)),
        Some(Value::Int(i)) if *i >= 0 => Ok(Some(*i as u64)),
        Some(_) => Err(ApiError::invalid("`budget` must be an integer")),
    }
}

/// Parses the `methods` list (default: the paper's four proposed methods).
pub fn parse_methods(value: Option<&Value>) -> Result<Vec<MethodKind>, ApiError> {
    let Some(value) = value else {
        return Ok(MethodKind::proposed().to_vec());
    };
    let names = value
        .as_array()
        .ok_or_else(|| ApiError::invalid("`methods` must be an array of method names"))?;
    if names.is_empty() {
        return Err(ApiError::invalid("`methods` must not be empty"));
    }
    let methods: Vec<MethodKind> = names
        .iter()
        .map(|name| {
            let name = name
                .as_str()
                .ok_or_else(|| ApiError::invalid("`methods` entries must be strings"))?;
            MethodKind::parse(name).ok_or_else(|| {
                ApiError::invalid(format!("unknown method `{name}` (see GET /v1/methods)"))
            })
        })
        .collect::<Result<_, _>>()?;
    // Reject duplicates here so the client gets a deterministic invalid-
    // argument error (the engine would reject them too, but only inside an
    // otherwise-successful response, and a response-cache hit would mask the
    // problem entirely).
    for (i, kind) in methods.iter().enumerate() {
        if methods[..i].contains(kind) {
            return Err(ApiError::invalid(format!(
                "method `{}` listed twice in `methods`",
                kind.name()
            )));
        }
    }
    Ok(methods)
}

/// Parses a comma-separated method list (the query-string form used by
/// columnar uploads, where the body is the dataset itself).
pub fn parse_methods_csv(raw: &str) -> Result<Vec<MethodKind>, ApiError> {
    let names: Vec<Value> = raw
        .split(',')
        .map(str::trim)
        .filter(|n| !n.is_empty())
        .map(s)
        .collect();
    parse_methods(Some(&Value::Array(names)))
}

/// Parses the threshold fields (`delta`, `attribute_deltas`, `intersection_delta`).
fn parse_thresholds(value: &Value, db: &CandidateDb) -> Result<FairnessThresholds, ApiError> {
    let delta = match value.get("delta") {
        None | Some(Value::Null) => 0.1,
        Some(raw) => as_f64(raw, "`delta`")?,
    };
    let mut thresholds = FairnessThresholds::uniform(delta);
    if let Some(overrides) = value.get("attribute_deltas") {
        let entries = overrides
            .as_object()
            .ok_or_else(|| ApiError::invalid("`attribute_deltas` must be an object"))?;
        for (attribute, raw) in entries {
            let id = db.schema().attribute_id(attribute).ok_or_else(|| {
                ApiError::invalid(format!(
                    "unknown attribute `{attribute}` in `attribute_deltas`"
                ))
            })?;
            thresholds =
                thresholds.with_attribute_delta(id, as_f64(raw, "`attribute_deltas` value")?);
        }
    }
    if let Some(raw) = value.get("intersection_delta") {
        if !matches!(raw, Value::Null) {
            thresholds = thresholds.with_intersection_delta(as_f64(raw, "`intersection_delta`")?);
        }
    }
    Ok(thresholds)
}

/// Parses an inline dataset: candidates with attribute assignments plus a
/// profile of rankings over them.
pub fn parse_dataset(value: &Value) -> Result<Arc<EngineDataset>, ApiError> {
    let name = match value.get("name") {
        Some(raw) => raw
            .as_str()
            .ok_or_else(|| ApiError::invalid("dataset `name` must be a string"))?
            .to_string(),
        None => "dataset".to_string(),
    };
    let candidates = value
        .get("candidates")
        .and_then(Value::as_array)
        .ok_or_else(|| ApiError::invalid("dataset needs a `candidates` array"))?;
    if candidates.is_empty() {
        return Err(ApiError::invalid("`candidates` must not be empty"));
    }

    // Pass 1: attribute order from the first candidate, then value domains in
    // declared-then-first-appearance order. Attribute names and values resolve
    // through hash maps, so the pass is linear in the body.
    let first = candidates[0]
        .get("attributes")
        .and_then(Value::as_object)
        .ok_or_else(|| ApiError::invalid("every candidate needs an `attributes` object"))?;
    let attribute_names: Vec<&str> = first.iter().map(|(k, _)| k.as_str()).collect();
    if attribute_names.is_empty() {
        return Err(ApiError::invalid(
            "candidates need at least one protected attribute",
        ));
    }
    let mut positions = HashMap::with_capacity(attribute_names.len());
    for (index, attribute) in attribute_names.iter().enumerate() {
        if positions.insert(*attribute, index).is_some() {
            let repeated = RankingError::DuplicateAttribute(attribute.to_string());
            return Err(ApiError::invalid(repeated.to_string()));
        }
    }
    let declared = declared_domains(value)?;
    let mut domains: Vec<Domain> = attribute_names
        .iter()
        .map(|attribute| Domain::declared(&declared, attribute))
        .collect::<Result<_, _>>()?;
    let mut rows: Vec<(&str, Vec<usize>)> = Vec::with_capacity(candidates.len());
    for candidate in candidates {
        let name = candidate
            .get("name")
            .and_then(Value::as_str)
            .ok_or_else(|| ApiError::invalid("every candidate needs a string `name`"))?;
        let attributes = candidate
            .get("attributes")
            .and_then(Value::as_object)
            .ok_or_else(|| ApiError::invalid("every candidate needs an `attributes` object"))?;
        // The first occurrence of a key wins, as `Value::get` would pick it.
        let mut found: Vec<Option<&Value>> = vec![None; attribute_names.len()];
        for (key, raw) in attributes {
            if let Some(&index) = positions.get(key.as_str()) {
                found[index].get_or_insert(raw);
            }
        }
        let mut assignment = Vec::with_capacity(attribute_names.len());
        for (index, attribute) in attribute_names.iter().enumerate() {
            let raw = found[index].ok_or_else(|| {
                ApiError::invalid(format!(
                    "candidate `{name}` is missing attribute `{attribute}`"
                ))
            })?;
            let label = raw.as_str().ok_or_else(|| {
                ApiError::invalid(format!(
                    "attribute `{attribute}` of `{name}` must be a string"
                ))
            })?;
            assignment.push(domains[index].index_of(label));
        }
        rows.push((name, assignment));
    }

    // Pass 2: build the database against the settled domains.
    let mut builder = CandidateDbBuilder::new();
    let mut attribute_ids = Vec::with_capacity(attribute_names.len());
    for (attribute, domain) in attribute_names.iter().zip(&domains) {
        if domain.values.len() < 2 {
            return Err(ApiError::invalid(format!(
                "attribute `{attribute}` has {} distinct value(s); protected attributes need at least 2",
                domain.values.len()
            )));
        }
        let id = builder
            .add_attribute(*attribute, domain.values.iter().copied())
            .map_err(|e| ApiError::invalid(e.to_string()))?;
        attribute_ids.push(id);
    }
    for (name, assignment) in rows {
        builder
            .add_candidate(name, attribute_ids.iter().copied().zip(assignment))
            .map_err(|e| ApiError::invalid(e.to_string()))?;
    }
    let db = builder
        .build()
        .map_err(|e| ApiError::invalid(e.to_string()))?;

    // Pass 3: the ranking profile over the built database.
    let rankings = value
        .get("rankings")
        .and_then(Value::as_array)
        .ok_or_else(|| ApiError::invalid("dataset needs a `rankings` array"))?;
    if rankings.is_empty() {
        return Err(ApiError::invalid("`rankings` must not be empty"));
    }
    let ids = db.name_index();
    let mut parsed = Vec::with_capacity(rankings.len());
    for (index, ranking) in rankings.iter().enumerate() {
        let names = ranking.as_array().ok_or_else(|| {
            ApiError::invalid(format!("ranking {index} must be an array of names"))
        })?;
        let mut order = Vec::with_capacity(names.len());
        for raw in names {
            let candidate = raw.as_str().ok_or_else(|| {
                ApiError::invalid(format!("ranking {index} entries must be strings"))
            })?;
            let id = ids.get(candidate).ok_or_else(|| {
                ApiError::invalid(format!(
                    "ranking {index} names unknown candidate `{candidate}`"
                ))
            })?;
            order.push(*id);
        }
        parsed.push(
            Ranking::from_order(order)
                .map_err(|e| ApiError::invalid(format!("ranking {index}: {e}")))?,
        );
    }
    let profile =
        RankingProfile::for_database(&db, parsed).map_err(|e| ApiError::invalid(e.to_string()))?;
    EngineDataset::new(name, db, profile)
        .map(Arc::new)
        .map_err(|e| ApiError::invalid(e.to_string()))
}

/// The optional `domains` object as attribute → declared value list (the
/// first occurrence of a key wins).
fn declared_domains(dataset: &Value) -> Result<HashMap<&str, &Value>, ApiError> {
    let Some(domains) = dataset.get("domains") else {
        return Ok(HashMap::new());
    };
    let entries = domains
        .as_object()
        .ok_or_else(|| ApiError::invalid("`domains` must be an object"))?;
    let mut declared = HashMap::with_capacity(entries.len());
    for (attribute, values) in entries {
        declared.entry(attribute.as_str()).or_insert(values);
    }
    Ok(declared)
}

/// One attribute's value domain while a dataset is parsed: its values in
/// order and each value's index.
struct Domain<'a> {
    values: Vec<&'a str>,
    index: HashMap<&'a str, usize>,
}

impl<'a> Domain<'a> {
    /// The domain `domains` pins for `attribute` (empty when none is
    /// declared). A repeated declared value is kept, so the schema refuses it.
    fn declared(declared: &HashMap<&str, &'a Value>, attribute: &str) -> Result<Self, ApiError> {
        let mut domain = Self {
            values: Vec::new(),
            index: HashMap::new(),
        };
        let Some(raw) = declared.get(attribute) else {
            return Ok(domain);
        };
        let values = raw
            .as_array()
            .ok_or_else(|| ApiError::invalid(format!("`domains.{attribute}` must be an array")))?;
        for value in values {
            let value = value.as_str().ok_or_else(|| {
                ApiError::invalid(format!("`domains.{attribute}` entries must be strings"))
            })?;
            domain.index.entry(value).or_insert(domain.values.len());
            domain.values.push(value);
        }
        Ok(domain)
    }

    /// The index of `value`, appending it when it is new.
    fn index_of(&mut self, value: &'a str) -> usize {
        let next = self.values.len();
        let index = *self.index.entry(value).or_insert(next);
        if index == next {
            self.values.push(value);
        }
        index
    }
}

/// Renders a dataset back into the JSON upload shape [`parse_dataset`]
/// accepts: `name`, `candidates` (with `attributes` objects), `rankings`
/// (name lists), and a `domains` object pinning every attribute's declared
/// value order so a round-trip rebuilds identical value ids (and therefore an
/// identical content fingerprint).
pub fn dataset_to_value(dataset: &EngineDataset) -> Value {
    let db = dataset.db();
    let schema = db.schema();
    let attributes: Vec<(String, Vec<String>)> = schema
        .attributes()
        .map(|(_, attribute)| {
            (
                attribute.name().to_string(),
                attribute.values().map(str::to_string).collect(),
            )
        })
        .collect();
    let candidates = Value::Array(
        db.candidates()
            .map(|(_, candidate)| {
                let assigned = Value::Object(
                    attributes
                        .iter()
                        .zip(candidate.values())
                        .map(|((name, domain), value)| {
                            (name.clone(), s(domain[value.index()].clone()))
                        })
                        .collect(),
                );
                obj(vec![
                    ("name", s(candidate.name())),
                    ("attributes", assigned),
                ])
            })
            .collect(),
    );
    let rankings = Value::Array(
        dataset
            .profile()
            .rankings()
            .iter()
            .map(|ranking| ranking_names(ranking, db))
            .collect(),
    );
    let domains = Value::Object(
        attributes
            .iter()
            .map(|(name, domain)| {
                (
                    name.clone(),
                    Value::Array(domain.iter().map(|v| s(v.clone())).collect()),
                )
            })
            .collect(),
    );
    obj(vec![
        ("name", s(dataset.name())),
        ("candidates", candidates),
        ("rankings", rankings),
        ("domains", domains),
    ])
}

/// Candidate names of a ranking, best first.
pub fn ranking_names(ranking: &Ranking, db: &CandidateDb) -> Value {
    Value::Array(
        ranking
            .iter()
            .map(|id| {
                s(db.candidate(id)
                    .map(|c| c.name().to_string())
                    .unwrap_or_else(|_| "?".to_string()))
            })
            .collect(),
    )
}

/// Attribute names of a database, in schema order.
pub fn attribute_names_json(db: &CandidateDb) -> Value {
    Value::Array(db.schema().attributes().map(|(_, a)| s(a.name())).collect())
}

/// Renders one successful method result (without the volatile `cached` flag,
/// which the caller appends when serving).
pub fn method_result_json(result: &MethodResult, db: &CandidateDb) -> Value {
    let summary = result.outcome.summary().serialize_value();
    let mut entries = match summary {
        Value::Object(entries) => entries,
        other => vec![("summary".to_string(), other)],
    };
    entries.push(("attributes".to_string(), attribute_names_json(db)));
    entries.push((
        "ranking".to_string(),
        ranking_names(&result.outcome.ranking, db),
    ));
    entries.push((
        "duration_ms".to_string(),
        Value::Float(result.duration.as_secs_f64() * 1e3),
    ));
    entries.push((
        "precedence_cache_hit".to_string(),
        Value::Bool(result.cache_hit),
    ));
    Value::Object(entries)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::ApiErrorKind;
    use crate::value::parse_body;

    pub(crate) fn demo_spec_value(delta: f64) -> Value {
        parse_body(&format!(
            r#"{{
                "dataset": {{
                    "name": "demo",
                    "candidates": [
                        {{"name": "a", "attributes": {{"G": "x"}}}},
                        {{"name": "b", "attributes": {{"G": "y"}}}},
                        {{"name": "c", "attributes": {{"G": "x"}}}},
                        {{"name": "d", "attributes": {{"G": "y"}}}}
                    ],
                    "rankings": [["a","b","c","d"], ["d","c","b","a"], ["a","c","b","d"]]
                }},
                "methods": ["Fair-Borda"],
                "delta": {delta}
            }}"#
        ))
        .unwrap()
    }

    #[test]
    fn parses_a_full_spec() {
        let spec = parse_consensus_spec(&demo_spec_value(0.2), None).unwrap();
        assert_eq!(spec.dataset.name(), "demo");
        assert_eq!(spec.dataset.num_candidates(), 4);
        assert_eq!(spec.dataset.num_rankings(), 3);
        assert_eq!(spec.methods, vec![MethodKind::FairBorda]);
        assert_eq!(spec.thresholds.default_delta(), 0.2);
        assert_eq!(spec.budget, None);
        let request = spec.request();
        assert!(request.validate().is_ok());
    }

    #[test]
    fn methods_default_to_the_proposed_four() {
        let methods = parse_methods(None).unwrap();
        assert_eq!(methods, MethodKind::proposed().to_vec());
        assert!(parse_methods(Some(&Value::Array(vec![]))).is_err());
        assert!(parse_methods(Some(&Value::Array(vec![s("Fair-Nope")]))).is_err());
        let duplicated = Value::Array(vec![s("Fair-Borda"), s("Fair-Borda")]);
        let err = parse_methods(Some(&duplicated)).unwrap_err();
        assert_eq!(err.kind, ApiErrorKind::InvalidArgument);
        assert!(err.message.contains("twice"), "{err}");
    }

    #[test]
    fn methods_parse_from_csv_form() {
        let methods = parse_methods_csv("Fair-Borda, Fair-Copeland").unwrap();
        assert_eq!(
            methods,
            vec![MethodKind::FairBorda, MethodKind::FairCopeland]
        );
        assert!(parse_methods_csv("Fair-Borda,Fair-Borda").is_err());
        assert!(parse_methods_csv("").is_err(), "empty list is invalid");
    }

    #[test]
    fn cache_key_sees_content_not_names() {
        let a = parse_consensus_spec(&demo_spec_value(0.2), None).unwrap();
        let mut renamed = demo_spec_value(0.2);
        if let Value::Object(ref mut entries) = renamed {
            if let Some((_, Value::Object(ref mut fields))) =
                entries.iter_mut().find(|(k, _)| k == "dataset")
            {
                for (key, value) in fields.iter_mut() {
                    if key == "name" {
                        *value = s("other-name");
                    }
                }
            }
        }
        let b = parse_consensus_spec(&renamed, None).unwrap();
        assert_eq!(
            a.cache_key(MethodKind::FairBorda),
            b.cache_key(MethodKind::FairBorda),
            "display names must not split the cache"
        );
        let c = parse_consensus_spec(&demo_spec_value(0.3), None).unwrap();
        assert_ne!(
            a.cache_key(MethodKind::FairBorda),
            c.cache_key(MethodKind::FairBorda),
            "thresholds must split the cache"
        );
        assert_ne!(
            a.cache_key(MethodKind::FairBorda),
            a.cache_key(MethodKind::FairCopeland),
            "methods must split the cache"
        );
    }

    #[test]
    fn dataset_errors_are_descriptive() {
        let missing = parse_body(r#"{"methods": ["Fair-Borda"]}"#).unwrap();
        assert!(parse_consensus_spec(&missing, None)
            .unwrap_err()
            .message
            .contains("dataset"));

        let unknown = parse_body(
            r#"{"dataset": {"candidates": [
                {"name": "a", "attributes": {"G": "x"}},
                {"name": "b", "attributes": {"G": "y"}}
            ], "rankings": [["a", "nope"]]}}"#,
        )
        .unwrap();
        assert!(parse_consensus_spec(&unknown, None)
            .unwrap_err()
            .message
            .contains("unknown candidate"));

        let single_valued = parse_body(
            r#"{"dataset": {"candidates": [
                {"name": "a", "attributes": {"G": "x"}},
                {"name": "b", "attributes": {"G": "x"}}
            ], "rankings": [["a", "b"]]}}"#,
        )
        .unwrap();
        assert!(parse_consensus_spec(&single_valued, None)
            .unwrap_err()
            .message
            .contains("at least 2"));
    }

    #[test]
    fn domains_pin_value_order() {
        let pinned = parse_body(
            r#"{"dataset": {
                "candidates": [
                    {"name": "a", "attributes": {"G": "y"}},
                    {"name": "b", "attributes": {"G": "x"}}
                ],
                "rankings": [["a", "b"]],
                "domains": {"G": ["x", "y"]}
            }}"#,
        )
        .unwrap();
        let spec = parse_consensus_spec(&pinned, None).unwrap();
        let db = spec.dataset.db();
        let g = db.schema().attribute_id("G").unwrap();
        let values: Vec<&str> = db.schema().attribute(g).unwrap().values().collect();
        assert_eq!(values, vec!["x", "y"], "declared order wins");
    }

    #[test]
    fn attribute_deltas_resolve_against_the_schema() {
        let mut value = demo_spec_value(0.2);
        if let Value::Object(ref mut entries) = value {
            entries.push((
                "attribute_deltas".to_string(),
                obj(vec![("G", Value::Float(0.05))]),
            ));
            entries.push(("intersection_delta".to_string(), Value::Float(0.4)));
        }
        let spec = parse_consensus_spec(&value, None).unwrap();
        let g = spec.dataset.db().schema().attribute_id("G").unwrap();
        assert_eq!(spec.thresholds.attribute_delta(g), Some(0.05));
        assert_eq!(spec.thresholds.intersection_delta(), Some(0.4));

        let mut bad = demo_spec_value(0.2);
        if let Value::Object(ref mut entries) = bad {
            entries.push((
                "attribute_deltas".to_string(),
                obj(vec![("Nope", Value::Float(0.05))]),
            ));
        }
        assert!(parse_consensus_spec(&bad, None)
            .unwrap_err()
            .message
            .contains("unknown attribute"));
    }

    #[test]
    fn dataset_id_resolves_through_the_registry() {
        let registry = DatasetRegistry::new(4);
        let inline = parse_consensus_spec(&demo_spec_value(0.2), None).unwrap();
        let (registered, _) = registry.register(Arc::clone(&inline.dataset)).unwrap();
        let id = registered.id;

        let mut by_id = demo_spec_value(0.2);
        if let Value::Object(ref mut entries) = by_id {
            entries.retain(|(k, _)| k != "dataset");
            entries.push(("dataset_id".to_string(), s(id.clone())));
        }
        let spec = parse_consensus_spec(&by_id, Some(&registry)).unwrap();
        assert_eq!(
            spec.dataset.fingerprint(),
            inline.dataset.fingerprint(),
            "registry resolution must hand back identical content"
        );
        assert_eq!(
            spec.cache_key(MethodKind::FairBorda),
            inline.cache_key(MethodKind::FairBorda),
            "dataset_id and inline specs must share the response cache"
        );

        // Unknown ids are not-found; missing registry support and
        // both-at-once are invalid arguments.
        let mut unknown = by_id.clone();
        if let Value::Object(ref mut entries) = unknown {
            entries.retain(|(k, _)| k != "dataset_id");
            entries.push(("dataset_id".to_string(), s("ds-nope")));
        }
        assert_eq!(
            parse_consensus_spec(&unknown, Some(&registry))
                .unwrap_err()
                .kind,
            ApiErrorKind::NotFound
        );
        assert_eq!(
            parse_consensus_spec(&by_id, None).unwrap_err().kind,
            ApiErrorKind::InvalidArgument
        );
        let mut both = demo_spec_value(0.2);
        if let Value::Object(ref mut entries) = both {
            entries.push(("dataset_id".to_string(), s(id)));
        }
        let err = parse_consensus_spec(&both, Some(&registry)).unwrap_err();
        assert!(err.message.contains("not both"), "{err}");
    }

    #[test]
    fn dataset_references_resolve_ids_and_pinned_versions() {
        let registry = DatasetRegistry::new(4);
        let inline = parse_consensus_spec(&demo_spec_value(0.2), None).unwrap();
        let (registered, _) = registry.register(Arc::clone(&inline.dataset)).unwrap();
        let id = registered.id;

        // `"dataset": {"id": ...}` resolves the current version.
        let by_ref = parse_body(&format!(
            r#"{{"dataset": {{"id": "{id}"}}, "methods": ["Fair-Borda"], "delta": 0.2}}"#
        ))
        .unwrap();
        let spec = parse_consensus_spec(&by_ref, Some(&registry)).unwrap();
        assert_eq!(spec.dataset.fingerprint(), inline.dataset.fingerprint());

        // An explicit version pin resolves the same content while retained.
        let pinned = parse_body(&format!(
            r#"{{"dataset": {{"id": "{id}", "version": 1}}, "methods": ["Fair-Borda"]}}"#
        ))
        .unwrap();
        let spec = parse_consensus_spec(&pinned, Some(&registry)).unwrap();
        assert_eq!(spec.dataset.fingerprint(), inline.dataset.fingerprint());

        // Unknown versions are not-found; malformed pins are invalid.
        let future = parse_body(&format!(
            r#"{{"dataset": {{"id": "{id}", "version": 9}}, "methods": ["Fair-Borda"]}}"#
        ))
        .unwrap();
        assert_eq!(
            parse_consensus_spec(&future, Some(&registry))
                .unwrap_err()
                .kind,
            ApiErrorKind::NotFound
        );
        let bad = parse_body(&format!(
            r#"{{"dataset": {{"id": "{id}", "version": "one"}}, "methods": ["Fair-Borda"]}}"#
        ))
        .unwrap();
        assert_eq!(
            parse_consensus_spec(&bad, Some(&registry))
                .unwrap_err()
                .kind,
            ApiErrorKind::InvalidArgument
        );
        // References need a registry, like `dataset_id`.
        assert_eq!(
            parse_consensus_spec(&by_ref, None).unwrap_err().kind,
            ApiErrorKind::InvalidArgument
        );
    }

    #[test]
    fn nested_options_are_equivalent_to_flat_fields() {
        // The same solve expressed flat (legacy) and nested under `options`
        // must produce identical specs — and identical response-cache keys.
        let mut flat = demo_spec_value(0.25);
        if let Value::Object(ref mut entries) = flat {
            entries.push((
                "attribute_deltas".to_string(),
                obj(vec![("G", Value::Float(0.05))]),
            ));
            entries.push(("intersection_delta".to_string(), Value::Float(0.4)));
            entries.push(("budget".to_string(), Value::UInt(5000)));
        }
        let nested = parse_body(
            r#"{
                "dataset": {
                    "name": "demo",
                    "candidates": [
                        {"name": "a", "attributes": {"G": "x"}},
                        {"name": "b", "attributes": {"G": "y"}},
                        {"name": "c", "attributes": {"G": "x"}},
                        {"name": "d", "attributes": {"G": "y"}}
                    ],
                    "rankings": [["a","b","c","d"], ["d","c","b","a"], ["a","c","b","d"]]
                },
                "options": {
                    "methods": ["Fair-Borda"],
                    "thresholds": {
                        "delta": 0.25,
                        "attribute_deltas": {"G": 0.05},
                        "intersection_delta": 0.4
                    },
                    "budget": 5000,
                    "parallelism": 4
                }
            }"#,
        )
        .unwrap();
        let flat_spec = parse_consensus_spec(&flat, None).unwrap();
        let nested_spec = parse_consensus_spec(&nested, None).unwrap();
        assert_eq!(flat_spec.methods, nested_spec.methods);
        assert_eq!(flat_spec.thresholds, nested_spec.thresholds);
        assert_eq!(flat_spec.budget, nested_spec.budget);
        assert_eq!(
            flat_spec.cache_key(MethodKind::FairBorda),
            nested_spec.cache_key(MethodKind::FairBorda),
            "equivalent shapes must share the response cache"
        );

        // Mixing shapes and unknown option keys fail loudly.
        let mut mixed = demo_spec_value(0.25);
        if let Value::Object(ref mut entries) = mixed {
            entries.push((
                "options".to_string(),
                obj(vec![("budget", Value::UInt(10))]),
            ));
        }
        let err = parse_consensus_spec(&mixed, None).unwrap_err();
        assert!(err.message.contains("not both"), "{err}");
        let unknown = parse_body(
            r#"{"dataset": {"candidates": [
                    {"name": "a", "attributes": {"G": "x"}},
                    {"name": "b", "attributes": {"G": "y"}}
                ], "rankings": [["a","b"]]},
                "options": {"banana": 1}}"#,
        )
        .unwrap();
        let err = parse_consensus_spec(&unknown, None).unwrap_err();
        assert!(err.message.contains("unknown `options` key"), "{err}");
        let bad_par = parse_body(
            r#"{"dataset": {"candidates": [
                    {"name": "a", "attributes": {"G": "x"}},
                    {"name": "b", "attributes": {"G": "y"}}
                ], "rankings": [["a","b"]]},
                "options": {"parallelism": 0}}"#,
        )
        .unwrap();
        assert!(parse_consensus_spec(&bad_par, None)
            .unwrap_err()
            .message
            .contains("parallelism"));
    }

    #[test]
    fn dataset_to_value_round_trips_bit_identically() {
        let spec = parse_consensus_spec(&demo_spec_value(0.2), None).unwrap();
        let encoded = dataset_to_value(&spec.dataset);
        let reparsed = parse_dataset(&encoded).unwrap();
        assert_eq!(
            reparsed.fingerprint(),
            spec.dataset.fingerprint(),
            "JSON round-trip must preserve the content fingerprint"
        );
        assert_eq!(reparsed.name(), "demo");
        // Round-tripping the rendered form again is a fixed point.
        let again = dataset_to_value(&reparsed);
        assert_eq!(crate::value::render(&encoded), crate::value::render(&again));
    }
}
