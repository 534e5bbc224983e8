//! Consensus requests: reading API payloads into engine requests and
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
//! [`parse_solve`] reads the solve options of every request into one
//! [`ConsensusRequest`]: a JSON body with flat fields or a nested `options`
//! object, a what-if session body, and the text parameters of a columnar
//! upload's query string or of `mani`'s flags (through [`query_fields`]). No
//! option reads differently by the way it arrived.
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

/// The uniform Δ of a request that names none.
const DEFAULT_DELTA: f64 = 0.1;

/// The flat solve fields, none of which may sit beside a nested `options`.
const FLAT_FIELDS: [&str; 5] = [
    "methods",
    "delta",
    "attribute_deltas",
    "intersection_delta",
    "budget",
];

/// Resolves the dataset of a request body.
///
/// Two forms are accepted under `dataset`:
///
/// * an inline document (`{"name", "candidates", "rankings", ...}`);
/// * a registry reference `{"id": "ds-...", "version"?: N}` — distinguished
///   from the inline form by the presence of an `id` key. Omitting `version`
///   resolves the id's current version; pinning an evicted version is a
///   [`crate::ApiErrorKind::Conflict`]. `registry` resolves the reference.
///
/// A body that still carries the removed flat id field is refused with an
/// error naming its replacement.
pub(crate) fn resolve_dataset(
    value: &Value,
    registry: Option<&DatasetRegistry>,
) -> Result<Arc<EngineDataset>, ApiError> {
    if value.get("dataset_id").is_some() {
        return Err(ApiError::invalid(
            "`dataset_id` is not accepted: reference a registered dataset as \
             `\"dataset\": {\"id\": ...}`",
        ));
    }
    let dataset = value
        .get("dataset")
        .ok_or_else(|| ApiError::invalid("missing `dataset`"))?;
    let Some(raw) = dataset.get("id") else {
        return parse_dataset(dataset);
    };
    let id = raw
        .as_str()
        .ok_or_else(|| ApiError::invalid("`dataset.id` must be a string"))?;
    let registry = registry.ok_or_else(|| {
        ApiError::invalid("dataset references by id are not supported in this context")
    })?;
    let version = match dataset.get("version") {
        None | Some(Value::Null) => return registry.resolve(id),
        Some(Value::UInt(u)) => *u,
        Some(Value::Int(i)) if *i > 0 => *i as u64,
        Some(_) => {
            return Err(ApiError::invalid(
                "`dataset.version` must be a positive integer",
            ))
        }
    };
    registry.resolve_version(id, version).map(|r| r.dataset)
}

/// Reads the solve options of one request into the engine request over
/// `dataset`. This is the one reader of solve options: `fields` is a JSON
/// consensus or session body, or the fields [`query_fields`] read from a
/// columnar upload's query string or from `mani`'s flags.
///
/// Options come in two equivalent shapes, and both are supported:
///
/// * **flat** — `methods`, `delta`, `attribute_deltas`,
///   `intersection_delta`, `budget` as top-level fields;
/// * **nested** — one `"options"` object:
///   `{"methods": [...], "thresholds": {"delta", "attribute_deltas",
///   "intersection_delta"}, "budget": N}`.
///
/// Mixing the two shapes in one request is rejected so clients cannot send
/// conflicting values. Every Δ must be a finite number ≥ 0.
pub fn parse_solve(
    dataset: Arc<EngineDataset>,
    fields: &Value,
) -> Result<ConsensusRequest, ApiError> {
    let (solve, thresholds) = match fields.get("options") {
        None => (fields, Some(fields)),
        Some(options) => (options, nested_thresholds(fields, options)?),
    };
    Ok(ConsensusRequest {
        methods: parse_methods(solve.get("methods"))?,
        thresholds: parse_thresholds(thresholds, dataset.db())?,
        budget: parse_budget(solve.get("budget"))?,
        dataset,
    })
}

/// Checks the nested `options` object (see [`parse_solve`]), rejecting
/// unknown option keys and any flat field that would shadow a nested value,
/// and returns its `thresholds` object, if any.
fn nested_thresholds<'a>(
    fields: &Value,
    options: &'a Value,
) -> Result<Option<&'a Value>, ApiError> {
    let entries = options
        .as_object()
        .ok_or_else(|| ApiError::invalid("`options` must be an object"))?;
    for (key, _) in entries {
        match key.as_str() {
            "methods" | "thresholds" | "budget" => {}
            other => {
                return Err(ApiError::invalid(format!(
                    "unknown `options` key `{other}` (expected methods, thresholds, or budget)"
                )));
            }
        }
    }
    if let Some(flat) = FLAT_FIELDS.iter().find(|flat| fields.get(flat).is_some()) {
        return Err(ApiError::invalid(format!(
            "pass `{flat}` either flat or inside `options`, not both"
        )));
    }
    match options.get("thresholds") {
        None | Some(Value::Null) => Ok(None),
        Some(nested) if nested.as_object().is_some() => Ok(Some(nested)),
        Some(_) => Err(ApiError::invalid("`options.thresholds` must be an object")),
    }
}

/// Reads solve parameters written as `key=value` text — a columnar upload's
/// query string, or the flags of `mani consensus` and `mani session` — into
/// the fields a JSON body carries, so [`parse_solve`] reads them exactly as
/// it reads a body: `methods` is a comma-separated list of names, `delta`
/// and `budget` are numbers in the JSON grammar (`.5`, `+5` and `NaN` are
/// not), and `wait` and `stream` are `true`, `false`, `1`, `0`, or empty for
/// true. A repeated parameter keeps its last value; an unknown one is
/// rejected, so typos fail loudly.
pub fn query_fields<'a>(
    params: impl IntoIterator<Item = (&'a str, &'a str)>,
) -> Result<Value, ApiError> {
    let mut fields: Vec<(String, Value)> = Vec::new();
    for (key, raw) in params {
        let value = match key {
            "methods" => Value::Array(
                raw.split(',')
                    .map(str::trim)
                    .filter(|name| !name.is_empty())
                    .map(s)
                    .collect(),
            ),
            "delta" | "budget" => match serde_json::from_str(raw) {
                Ok(number @ (Value::UInt(_) | Value::Int(_) | Value::Float(_))) => number,
                _ => {
                    return Err(ApiError::invalid(format!(
                        "cannot parse `{key}` value `{raw}` as a JSON number"
                    )));
                }
            },
            "wait" | "stream" => Value::Bool(match raw {
                "" | "true" | "1" => true,
                "false" | "0" => false,
                other => {
                    return Err(ApiError::invalid(format!(
                        "cannot parse `{key}` value `{other}` (expected true or false)"
                    )));
                }
            }),
            other => {
                return Err(ApiError::invalid(format!(
                    "unknown query parameter `{other}` (expected methods, delta, budget, \
                     wait, or stream)"
                )));
            }
        };
        fields.retain(|(name, _)| name != key);
        fields.push((key.to_string(), value));
    }
    Ok(Value::Object(fields))
}

/// Parses the optional exact-solver node budget.
fn parse_budget(value: Option<&Value>) -> Result<Option<u64>, ApiError> {
    match value {
        None | Some(Value::Null) => Ok(None),
        Some(Value::UInt(u)) => Ok(Some(*u)),
        Some(Value::Int(i)) if *i >= 0 => Ok(Some(*i as u64)),
        Some(_) => Err(ApiError::invalid("`budget` must be an integer")),
    }
}

/// Parses the `methods` list (default: the paper's four proposed methods).
fn parse_methods(value: Option<&Value>) -> Result<Vec<MethodKind>, ApiError> {
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
                ApiError::invalid(format!(
                    "unknown method `{name}` (`GET /v1/methods` and `mani methods` list them)"
                ))
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

/// Parses the threshold fields (`delta`, `attribute_deltas`,
/// `intersection_delta`) of `value`; `None` is the default uniform Δ.
fn parse_thresholds(
    value: Option<&Value>,
    db: &CandidateDb,
) -> Result<FairnessThresholds, ApiError> {
    let Some(value) = value else {
        return Ok(FairnessThresholds::uniform(DEFAULT_DELTA));
    };
    let mut thresholds = FairnessThresholds::uniform(uniform_delta(value)?);
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
                thresholds.with_attribute_delta(id, delta_value(raw, "`attribute_deltas` value")?);
        }
    }
    match value.get("intersection_delta") {
        None | Some(Value::Null) => {}
        Some(raw) => {
            thresholds =
                thresholds.with_intersection_delta(delta_value(raw, "`intersection_delta`")?)
        }
    }
    Ok(thresholds)
}

/// The uniform `delta` field of `fields` (default 0.1), read like every Δ.
pub(crate) fn uniform_delta(fields: &Value) -> Result<f64, ApiError> {
    match fields.get("delta") {
        None | Some(Value::Null) => Ok(DEFAULT_DELTA),
        Some(raw) => delta_value(raw, "`delta`"),
    }
}

/// Reads one fairness threshold Δ: a finite number ≥ 0. A Δ above 1 is
/// accepted (every axis then passes); NaN, ±∞ and negative values are not.
fn delta_value(raw: &Value, what: &str) -> Result<f64, ApiError> {
    let delta = as_f64(raw, what)?;
    if delta.is_finite() && delta >= 0.0 {
        Ok(delta)
    } else {
        Err(ApiError::invalid(format!(
            "{what} must be a finite number >= 0, got {delta}"
        )))
    }
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
/// (name lists, one per copy: JSON has no weights), and a `domains` object pinning every attribute's declared
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
        (dataset.profile().copies())
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
    use crate::response_cache::cache_key;
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

    /// Reads a whole consensus body: its dataset, then its solve options.
    fn parse(
        value: &Value,
        registry: Option<&DatasetRegistry>,
    ) -> Result<ConsensusRequest, ApiError> {
        parse_solve(resolve_dataset(value, registry)?, value)
    }

    #[test]
    fn parses_a_full_spec() {
        let request = parse(&demo_spec_value(0.2), None).unwrap();
        assert_eq!(request.dataset.name(), "demo");
        assert_eq!(request.dataset.num_candidates(), 4);
        assert_eq!(request.dataset.num_rankings(), 3);
        assert_eq!(request.methods, vec![MethodKind::FairBorda]);
        assert_eq!(request.thresholds.default_delta(), 0.2);
        assert_eq!(request.budget, None);
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
        let methods_of = |raw: &str| {
            let fields = query_fields([("methods", raw)])?;
            parse_methods(fields.get("methods"))
        };
        assert_eq!(
            methods_of("Fair-Borda, Fair-Copeland").unwrap(),
            vec![MethodKind::FairBorda, MethodKind::FairCopeland]
        );
        assert!(methods_of("Fair-Borda,Fair-Borda").is_err());
        assert!(methods_of("").is_err(), "empty list is invalid");
    }

    #[test]
    fn cache_key_sees_content_not_names() {
        let a = parse(&demo_spec_value(0.2), None).unwrap();
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
        let b = parse(&renamed, None).unwrap();
        assert_eq!(
            cache_key(&a, MethodKind::FairBorda),
            cache_key(&b, MethodKind::FairBorda),
            "display names must not split the cache"
        );
        let c = parse(&demo_spec_value(0.3), None).unwrap();
        assert_ne!(
            cache_key(&a, MethodKind::FairBorda),
            cache_key(&c, MethodKind::FairBorda),
            "thresholds must split the cache"
        );
        assert_ne!(
            cache_key(&a, MethodKind::FairBorda),
            cache_key(&a, MethodKind::FairCopeland),
            "methods must split the cache"
        );
    }

    #[test]
    fn dataset_errors_are_descriptive() {
        let missing = parse_body(r#"{"methods": ["Fair-Borda"]}"#).unwrap();
        assert!(parse(&missing, None)
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
        assert!(parse(&unknown, None)
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
        assert!(parse(&single_valued, None)
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
        let request = parse(&pinned, None).unwrap();
        let db = request.dataset.db();
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
        let request = parse(&value, None).unwrap();
        let g = request.dataset.db().schema().attribute_id("G").unwrap();
        assert_eq!(request.thresholds.attribute_delta(g), Some(0.05));
        assert_eq!(request.thresholds.intersection_delta(), Some(0.4));

        let mut bad = demo_spec_value(0.2);
        if let Value::Object(ref mut entries) = bad {
            entries.push((
                "attribute_deltas".to_string(),
                obj(vec![("Nope", Value::Float(0.05))]),
            ));
        }
        assert!(parse(&bad, None)
            .unwrap_err()
            .message
            .contains("unknown attribute"));
    }

    #[test]
    fn dataset_id_is_refused_naming_its_replacement() {
        let registry = DatasetRegistry::new(4);
        let inline = parse(&demo_spec_value(0.2), None).unwrap();
        let (registered, _) = registry.register(Arc::clone(&inline.dataset)).unwrap();

        // Alone, or beside an inline dataset: the removed field is an
        // invalid argument whose message names `"dataset": {"id": ...}`.
        let mut by_id = demo_spec_value(0.2);
        if let Value::Object(ref mut entries) = by_id {
            entries.retain(|(k, _)| k != "dataset");
            entries.push(("dataset_id".to_string(), s(registered.id.clone())));
        }
        let mut both = demo_spec_value(0.2);
        if let Value::Object(ref mut entries) = both {
            entries.push(("dataset_id".to_string(), s(registered.id)));
        }
        for body in [&by_id, &both] {
            let err = parse(body, Some(&registry)).unwrap_err();
            assert_eq!(err.kind, ApiErrorKind::InvalidArgument);
            assert!(err.message.contains(r#""dataset": {"id""#), "{err}");
        }
    }

    #[test]
    fn dataset_references_resolve_ids_and_pinned_versions() {
        let registry = DatasetRegistry::new(4);
        let inline = parse(&demo_spec_value(0.2), None).unwrap();
        let (registered, _) = registry.register(Arc::clone(&inline.dataset)).unwrap();
        let id = registered.id;

        // `"dataset": {"id": ...}` resolves the current version, to the
        // same content and the same response-cache key as the inline rows.
        let by_ref = parse_body(&format!(
            r#"{{"dataset": {{"id": "{id}"}}, "methods": ["Fair-Borda"], "delta": 0.2}}"#
        ))
        .unwrap();
        let request = parse(&by_ref, Some(&registry)).unwrap();
        assert_eq!(request.dataset.fingerprint(), inline.dataset.fingerprint());
        assert_eq!(
            cache_key(&request, MethodKind::FairBorda),
            cache_key(&inline, MethodKind::FairBorda),
            "by-reference and inline requests must share the response cache"
        );

        // An explicit version pin resolves the same content while retained.
        let pinned = parse_body(&format!(
            r#"{{"dataset": {{"id": "{id}", "version": 1}}, "methods": ["Fair-Borda"]}}"#
        ))
        .unwrap();
        let request = parse(&pinned, Some(&registry)).unwrap();
        assert_eq!(request.dataset.fingerprint(), inline.dataset.fingerprint());

        // Unknown ids and versions are not-found; malformed pins are invalid.
        let unknown = parse_body(
            r#"{"dataset": {"id": "ds-nope"}, "methods": ["Fair-Borda"], "delta": 0.2}"#,
        )
        .unwrap();
        assert_eq!(
            parse(&unknown, Some(&registry)).unwrap_err().kind,
            ApiErrorKind::NotFound
        );
        let future = parse_body(&format!(
            r#"{{"dataset": {{"id": "{id}", "version": 9}}, "methods": ["Fair-Borda"]}}"#
        ))
        .unwrap();
        assert_eq!(
            parse(&future, Some(&registry)).unwrap_err().kind,
            ApiErrorKind::NotFound
        );
        let bad = parse_body(&format!(
            r#"{{"dataset": {{"id": "{id}", "version": "one"}}, "methods": ["Fair-Borda"]}}"#
        ))
        .unwrap();
        assert_eq!(
            parse(&bad, Some(&registry)).unwrap_err().kind,
            ApiErrorKind::InvalidArgument
        );
        // References need a registry.
        assert_eq!(
            parse(&by_ref, None).unwrap_err().kind,
            ApiErrorKind::InvalidArgument
        );
    }

    #[test]
    fn nested_options_are_equivalent_to_flat_fields() {
        // The same solve expressed flat and nested under `options` must
        // produce identical requests — and identical response-cache keys.
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
                    "budget": 5000
                }
            }"#,
        )
        .unwrap();
        let flat_request = parse(&flat, None).unwrap();
        let nested_request = parse(&nested, None).unwrap();
        assert_eq!(flat_request.methods, nested_request.methods);
        assert_eq!(flat_request.thresholds, nested_request.thresholds);
        assert_eq!(flat_request.budget, nested_request.budget);
        assert_eq!(
            cache_key(&flat_request, MethodKind::FairBorda),
            cache_key(&nested_request, MethodKind::FairBorda),
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
        let err = parse(&mixed, None).unwrap_err();
        assert!(err.message.contains("not both"), "{err}");
        let unknown = parse_body(
            r#"{"dataset": {"candidates": [
                    {"name": "a", "attributes": {"G": "x"}},
                    {"name": "b", "attributes": {"G": "y"}}
                ], "rankings": [["a","b"]]},
                "options": {"banana": 1}}"#,
        )
        .unwrap();
        let err = parse(&unknown, None).unwrap_err();
        assert!(err.message.contains("unknown `options` key"), "{err}");
        // `parallelism` is not an option: a body that sends it is refused.
        let retired = parse_body(
            r#"{"dataset": {"candidates": [
                    {"name": "a", "attributes": {"G": "x"}},
                    {"name": "b", "attributes": {"G": "y"}}
                ], "rankings": [["a","b"]]},
                "options": {"parallelism": 4}}"#,
        )
        .unwrap();
        let err = parse(&retired, None).unwrap_err();
        assert!(
            err.message.contains("unknown `options` key `parallelism`"),
            "{err}"
        );
    }

    #[test]
    fn dataset_to_value_round_trips_bit_identically() {
        let request = parse(&demo_spec_value(0.2), None).unwrap();
        let encoded = dataset_to_value(&request.dataset);
        let reparsed = parse_dataset(&encoded).unwrap();
        assert_eq!(
            reparsed.fingerprint(),
            request.dataset.fingerprint(),
            "JSON round-trip must preserve the content fingerprint"
        );
        assert_eq!(reparsed.name(), "demo");
        // Round-tripping the rendered form again is a fixed point.
        let again = dataset_to_value(&reparsed);
        assert_eq!(crate::value::render(&encoded), crate::value::render(&again));
    }
}
