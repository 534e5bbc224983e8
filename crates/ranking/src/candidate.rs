//! Candidate database: the set `X` of candidates with their protected attribute values.

use std::collections::{HashMap, HashSet};

use serde::{Deserialize, Serialize};

use crate::attribute::{
    intersection_groups, AttributeId, AttributeSchema, ProtectedAttribute, ValueId,
};
use crate::error::RankingError;
use crate::Result;

/// Dense identifier of a candidate within a [`CandidateDb`].
///
/// Candidate ids are assigned in registration order starting at zero, so they can be
/// used directly as indexes into per-candidate arrays (positions, group membership, ...).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct CandidateId(pub u32);

impl CandidateId {
    /// The candidate id as a `usize` index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl From<u32> for CandidateId {
    fn from(v: u32) -> Self {
        CandidateId(v)
    }
}

/// A single candidate: a display name plus one value per protected attribute.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Candidate {
    name: String,
    values: Vec<ValueId>,
    intersection: usize,
}

impl Candidate {
    /// Display name supplied at registration time.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Value of the given protected attribute, `p_k(x_i)` in the paper.
    pub fn value(&self, attribute: AttributeId) -> Option<ValueId> {
        self.values.get(attribute.index()).copied()
    }

    /// All attribute values in schema order.
    pub fn values(&self) -> &[ValueId] {
        &self.values
    }

    /// Intersection code of the candidate, `Inter(x_i)` in the paper.
    pub fn intersection(&self) -> usize {
        self.intersection
    }
}

/// Builder for a [`CandidateDb`]; attributes must be declared before candidates.
#[derive(Debug, Default)]
pub struct CandidateDbBuilder {
    attributes: Vec<ProtectedAttribute>,
    candidates: Vec<(String, Vec<Option<ValueId>>)>,
    names: HashSet<String>,
}

impl CandidateDbBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Declares a protected attribute and its value domain; returns its id.
    ///
    /// Refuses an attribute that would take the intersection past
    /// [`crate::MAX_INTERSECTION_GROUPS`] groups, so the builder never holds
    /// more attributes or values than the schema's `u16` ids can name.
    pub fn add_attribute(
        &mut self,
        name: impl Into<String>,
        values: impl IntoIterator<Item = impl Into<String>>,
    ) -> Result<AttributeId> {
        let attr = ProtectedAttribute::new(name, values)?;
        if self.attributes.iter().any(|a| a.name() == attr.name()) {
            return Err(RankingError::DuplicateAttribute(attr.name().to_string()));
        }
        let sizes = self.attributes.iter().chain([&attr]);
        intersection_groups(sizes.map(ProtectedAttribute::domain_size))?;
        self.attributes.push(attr);
        Ok(AttributeId((self.attributes.len() - 1) as u16))
    }

    /// Registers a candidate with explicit `(attribute, value index)` assignments.
    ///
    /// `value index` is the index into the attribute's declared domain.
    pub fn add_candidate(
        &mut self,
        name: impl Into<String>,
        assignments: impl IntoIterator<Item = (AttributeId, usize)>,
    ) -> Result<CandidateId> {
        let name = name.into();
        if self.names.contains(&name) {
            return Err(RankingError::DuplicateCandidate(name));
        }
        let mut values: Vec<Option<ValueId>> = vec![None; self.attributes.len()];
        for (attr, value_index) in assignments {
            let Some(decl) = self.attributes.get(attr.index()) else {
                return Err(RankingError::UnknownAttribute(attr.index()));
            };
            if value_index >= decl.domain_size() {
                return Err(RankingError::UnknownValue {
                    attribute: decl.name().to_string(),
                    value_index,
                });
            }
            values[attr.index()] = Some(ValueId(value_index as u16));
        }
        self.names.insert(name.clone());
        self.candidates.push((name, values));
        Ok(CandidateId((self.candidates.len() - 1) as u32))
    }

    /// Registers a candidate with value *names* instead of indexes.
    pub fn add_candidate_named(
        &mut self,
        name: impl Into<String>,
        assignments: impl IntoIterator<Item = (AttributeId, impl AsRef<str>)>,
    ) -> Result<CandidateId> {
        let mut resolved = Vec::new();
        for (attr, value_name) in assignments {
            let Some(decl) = self.attributes.get(attr.index()) else {
                return Err(RankingError::UnknownAttribute(attr.index()));
            };
            let Some(value) = decl.value_id(value_name.as_ref()) else {
                return Err(RankingError::UnknownValue {
                    attribute: decl.name().to_string(),
                    value_index: usize::MAX,
                });
            };
            resolved.push((attr, value.index()));
        }
        self.add_candidate(name, resolved)
    }

    /// Finalises the database, validating that every candidate has every attribute set.
    pub fn build(self) -> Result<CandidateDb> {
        let schema = AttributeSchema::new(self.attributes)?;
        if self.candidates.is_empty() {
            return Err(RankingError::EmptyDatabase);
        }
        let mut candidates = Vec::with_capacity(self.candidates.len());
        for (name, values) in self.candidates {
            let mut resolved = Vec::with_capacity(schema.num_attributes());
            for (attr_id, attr) in schema.attributes() {
                match values.get(attr_id.index()).copied().flatten() {
                    Some(v) => resolved.push(v),
                    None => {
                        return Err(RankingError::MissingAttributeValue {
                            candidate: name,
                            attribute: attr.name().to_string(),
                        })
                    }
                }
            }
            let intersection = schema.intersection_code(&resolved)?;
            candidates.push(Candidate {
                name,
                values: resolved,
                intersection,
            });
        }
        Ok(CandidateDb { schema, candidates })
    }
}

/// The candidate database `X`: a schema of protected attributes plus all candidates.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CandidateDb {
    schema: AttributeSchema,
    candidates: Vec<Candidate>,
}

impl CandidateDb {
    /// Number of candidates `n = |X|`.
    pub fn len(&self) -> usize {
        self.candidates.len()
    }

    /// True if the database has no candidates (never true for a built database).
    pub fn is_empty(&self) -> bool {
        self.candidates.is_empty()
    }

    /// The protected attribute schema.
    pub fn schema(&self) -> &AttributeSchema {
        &self.schema
    }

    /// Candidate by id.
    pub fn candidate(&self, id: CandidateId) -> Result<&Candidate> {
        self.candidates
            .get(id.index())
            .ok_or(RankingError::CandidateOutOfRange {
                id: id.0,
                len: self.candidates.len(),
            })
    }

    /// Iterates over all candidate ids in registration order.
    pub fn candidate_ids(&self) -> impl Iterator<Item = CandidateId> + '_ {
        (0..self.candidates.len() as u32).map(CandidateId)
    }

    /// Iterates over `(CandidateId, &Candidate)` pairs.
    pub fn candidates(&self) -> impl Iterator<Item = (CandidateId, &Candidate)> {
        self.candidates
            .iter()
            .enumerate()
            .map(|(i, c)| (CandidateId(i as u32), c))
    }

    /// A name → id map over every candidate. Decoders build it once per
    /// dataset or request and resolve each ranking entry in O(1).
    pub fn name_index(&self) -> HashMap<&str, CandidateId> {
        self.candidates()
            .map(|(id, candidate)| (candidate.name(), id))
            .collect()
    }

    /// Value of attribute `attribute` for candidate `id`.
    pub fn value_of(&self, id: CandidateId, attribute: AttributeId) -> Result<ValueId> {
        let candidate = self.candidate(id)?;
        candidate
            .value(attribute)
            .ok_or(RankingError::UnknownAttribute(attribute.index()))
    }

    /// Intersection code of candidate `id`.
    pub fn intersection_of(&self, id: CandidateId) -> Result<usize> {
        Ok(self.candidate(id)?.intersection())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_db() -> CandidateDb {
        let mut b = CandidateDbBuilder::new();
        let gender = b.add_attribute("Gender", ["Man", "Woman"]).unwrap();
        let race = b.add_attribute("Race", ["A", "B", "C"]).unwrap();
        for i in 0..6u32 {
            b.add_candidate(
                format!("c{i}"),
                [(gender, (i % 2) as usize), (race, (i % 3) as usize)],
            )
            .unwrap();
        }
        b.build().unwrap()
    }

    #[test]
    fn builder_assigns_dense_ids() {
        let db = small_db();
        let ids: Vec<u32> = db.candidate_ids().map(|c| c.0).collect();
        assert_eq!(ids, vec![0, 1, 2, 3, 4, 5]);
        assert_eq!(db.len(), 6);
        assert!(!db.is_empty());
    }

    #[test]
    fn builder_rejects_duplicate_candidates() {
        let mut b = CandidateDbBuilder::new();
        let g = b.add_attribute("G", ["x", "y"]).unwrap();
        b.add_candidate("same", [(g, 0)]).unwrap();
        let err = b.add_candidate("same", [(g, 1)]).unwrap_err();
        assert!(matches!(err, RankingError::DuplicateCandidate(_)));
    }

    #[test]
    fn builder_rejects_missing_values() {
        // A candidate that does not supply a value for every declared attribute is rejected
        // at build time.
        let mut b = CandidateDbBuilder::new();
        let g = b.add_attribute("G", ["x", "y"]).unwrap();
        let _r = b.add_attribute("R", ["a", "b"]).unwrap();
        b.add_candidate("c", [(g, 0)]).unwrap();
        let err = b.build().unwrap_err();
        assert!(matches!(err, RankingError::MissingAttributeValue { .. }));
    }

    #[test]
    fn builder_rejects_unknown_value_index() {
        let mut b = CandidateDbBuilder::new();
        let g = b.add_attribute("G", ["x", "y"]).unwrap();
        let err = b.add_candidate("c", [(g, 7)]).unwrap_err();
        assert!(matches!(err, RankingError::UnknownValue { .. }));
    }

    #[test]
    fn builder_rejects_empty_database() {
        let mut b = CandidateDbBuilder::new();
        b.add_attribute("G", ["x", "y"]).unwrap();
        assert!(matches!(b.build(), Err(RankingError::EmptyDatabase)));
    }

    #[test]
    fn named_assignment_resolves_values() {
        let mut b = CandidateDbBuilder::new();
        let g = b.add_attribute("Gender", ["Man", "Woman"]).unwrap();
        let id = b.add_candidate_named("alice", [(g, "Woman")]).unwrap();
        let db = b.build().unwrap();
        assert_eq!(db.value_of(id, g).unwrap().index(), 1);
    }

    #[test]
    fn intersection_codes_follow_schema() {
        let db = small_db();
        let schema = db.schema();
        for (id, cand) in db.candidates() {
            let expected = schema.intersection_code(cand.values()).unwrap();
            assert_eq!(db.intersection_of(id).unwrap(), expected);
        }
    }

    #[test]
    fn candidate_lookup_by_name() {
        let db = small_db();
        let names = db.name_index();
        assert_eq!(names.len(), 6);
        let id = names["c3"];
        assert_eq!(id.0, 3);
        assert!(!names.contains_key("nope"));
        assert_eq!(db.candidate(id).unwrap().name(), "c3");
    }

    #[test]
    fn builder_refuses_attributes_past_the_group_bound() {
        let mut b = CandidateDbBuilder::new();
        let values = |k: usize| (0..k).map(|v| v.to_string()).collect::<Vec<_>>();
        b.add_attribute("A", values(256)).unwrap();
        b.add_attribute("B", values(256)).unwrap();
        let err = b.add_attribute("C", values(2)).unwrap_err();
        assert_eq!(
            err,
            RankingError::TooManyGroups {
                groups: Some(1 << 17)
            }
        );
        // The refused attribute was not declared: the builder still builds.
        let a = AttributeId(0);
        let bb = AttributeId(1);
        b.add_candidate("x", [(a, 255), (bb, 255)]).unwrap();
        let db = b.build().unwrap();
        assert_eq!(db.schema().num_attributes(), 2);
        assert_eq!(db.intersection_of(CandidateId(0)).unwrap(), (1 << 16) - 1);
    }

    #[test]
    fn out_of_range_candidate_errors() {
        let db = small_db();
        assert!(matches!(
            db.candidate(CandidateId(99)),
            Err(RankingError::CandidateOutOfRange { .. })
        ));
    }
}
