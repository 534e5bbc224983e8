//! Protected attribute schema: attributes, value domains, and intersection encoding.
//!
//! The paper (Section II-A) models a set `P = {p_1, ..., p_q}` of categorical protected
//! attributes, each with a finite value domain, and an *intersection* attribute whose
//! domain is the Cartesian product of all attribute domains. This module provides an
//! interned representation of that schema: attributes and values are small integer ids,
//! and intersection values are mixed-radix codes over the per-attribute value ids.

use std::collections::HashSet;

use serde::{Deserialize, Serialize};

use crate::error::RankingError;
use crate::Result;

/// Most intersectional groups a schema may define. Fairness metrics keep one
/// dense counter per group, so the bound caps that table at 2^16 entries. As
/// every attribute has at least two values, it also keeps every value id and
/// attribute id within `u16` and allows at most 16 attributes.
pub const MAX_INTERSECTION_GROUPS: usize = 1 << 16;

/// The number of intersectional groups that domains of the given sizes
/// define, or [`RankingError::TooManyGroups`] when it exceeds
/// [`MAX_INTERSECTION_GROUPS`].
pub(crate) fn intersection_groups(domain_sizes: impl IntoIterator<Item = usize>) -> Result<usize> {
    let groups = domain_sizes
        .into_iter()
        .try_fold(1usize, |product, size| product.checked_mul(size));
    match groups {
        Some(groups) if groups <= MAX_INTERSECTION_GROUPS => Ok(groups),
        _ => Err(RankingError::TooManyGroups { groups }),
    }
}

/// Identifier of a protected attribute within an [`AttributeSchema`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct AttributeId(pub(crate) u16);

impl AttributeId {
    /// Index of the attribute within the schema (registration order).
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Identifier of a value within one attribute's domain.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct ValueId(pub(crate) u16);

impl ValueId {
    /// Index of the value within the attribute domain (registration order).
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A single categorical protected attribute and its value domain.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ProtectedAttribute {
    name: String,
    values: Vec<String>,
}

impl ProtectedAttribute {
    /// Creates a protected attribute from a name and its domain of values.
    ///
    /// Returns an error if fewer than two values are supplied or if values repeat.
    pub fn new(
        name: impl Into<String>,
        values: impl IntoIterator<Item = impl Into<String>>,
    ) -> Result<Self> {
        let name = name.into();
        let values: Vec<String> = values.into_iter().map(Into::into).collect();
        if values.len() < 2 {
            return Err(RankingError::DegenerateAttribute(name));
        }
        let mut seen = HashSet::with_capacity(values.len());
        if let Some(repeated) = values.iter().find(|v| !seen.insert(v.as_str())) {
            return Err(RankingError::DuplicateValue {
                attribute: name,
                value: repeated.clone(),
            });
        }
        Ok(Self { name, values })
    }

    /// Attribute name (e.g. `"Gender"`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of values in the attribute's domain, `|dom(p_k)|` in the paper.
    pub fn domain_size(&self) -> usize {
        self.values.len()
    }

    /// Value names in registration order.
    pub fn values(&self) -> impl Iterator<Item = &str> {
        self.values.iter().map(String::as_str)
    }

    /// Name of a specific value.
    pub fn value_name(&self, value: ValueId) -> Option<&str> {
        self.values.get(value.index()).map(String::as_str)
    }

    /// Looks up a value id by name.
    pub fn value_id(&self, name: &str) -> Option<ValueId> {
        self.values
            .iter()
            .position(|v| v == name)
            .map(|i| ValueId(i as u16))
    }
}

/// The complete set of protected attributes declared for a candidate database.
///
/// The schema also defines the *intersection* attribute `Inter = p_1 × ... × p_q`
/// (Definition 2 in the paper). Intersection values are encoded as mixed-radix integers
/// over the per-attribute value ids so that intersectional groups can be indexed densely.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct AttributeSchema {
    attributes: Vec<ProtectedAttribute>,
    /// Mixed-radix place value of each attribute in the intersection code.
    radix_weights: Vec<usize>,
    intersection_cardinality: usize,
}

impl AttributeSchema {
    /// Builds a schema from a list of protected attributes. Refuses a schema
    /// whose intersection has more than [`MAX_INTERSECTION_GROUPS`] groups.
    pub fn new(attributes: Vec<ProtectedAttribute>) -> Result<Self> {
        if attributes.is_empty() {
            return Err(RankingError::EmptySchema);
        }
        let mut seen = HashSet::with_capacity(attributes.len());
        if let Some(repeated) = attributes.iter().find(|a| !seen.insert(a.name())) {
            return Err(RankingError::DuplicateAttribute(
                repeated.name().to_string(),
            ));
        }
        let intersection_cardinality =
            intersection_groups(attributes.iter().map(ProtectedAttribute::domain_size))?;
        let mut radix_weights = vec![0usize; attributes.len()];
        let mut weight = 1usize;
        for (i, attr) in attributes.iter().enumerate().rev() {
            radix_weights[i] = weight;
            weight *= attr.domain_size();
        }
        Ok(Self {
            radix_weights,
            intersection_cardinality,
            attributes,
        })
    }

    /// Number of protected attributes `q = |P|`.
    pub fn num_attributes(&self) -> usize {
        self.attributes.len()
    }

    /// Iterates over `(AttributeId, &ProtectedAttribute)` pairs.
    pub fn attributes(&self) -> impl Iterator<Item = (AttributeId, &ProtectedAttribute)> {
        self.attributes
            .iter()
            .enumerate()
            .map(|(i, a)| (AttributeId(i as u16), a))
    }

    /// Returns the attribute with the given id.
    pub fn attribute(&self, id: AttributeId) -> Option<&ProtectedAttribute> {
        self.attributes.get(id.index())
    }

    /// Looks up an attribute id by name.
    pub fn attribute_id(&self, name: &str) -> Option<AttributeId> {
        self.attributes
            .iter()
            .position(|a| a.name() == name)
            .map(|i| AttributeId(i as u16))
    }

    /// Cardinality of the intersection attribute, `|Inter| = |p_1| * ... * |p_q|`.
    pub fn intersection_cardinality(&self) -> usize {
        self.intersection_cardinality
    }

    /// Encodes a full assignment of per-attribute values into an intersection code.
    ///
    /// `values[i]` must be the value id of attribute `i`. Codes are dense in
    /// `0..intersection_cardinality()`.
    pub fn intersection_code(&self, values: &[ValueId]) -> Result<usize> {
        if values.len() != self.attributes.len() {
            return Err(RankingError::LengthMismatch {
                left: values.len(),
                right: self.attributes.len(),
            });
        }
        let mut code = 0usize;
        for (i, value) in values.iter().enumerate() {
            let attr = &self.attributes[i];
            if value.index() >= attr.domain_size() {
                return Err(RankingError::UnknownValue {
                    attribute: attr.name().to_string(),
                    value_index: value.index(),
                });
            }
            code += value.index() * self.radix_weights[i];
        }
        Ok(code)
    }

    /// Decodes an intersection code back into per-attribute value ids.
    pub fn decode_intersection(&self, mut code: usize) -> Vec<ValueId> {
        let mut out = Vec::with_capacity(self.attributes.len());
        for (i, _attr) in self.attributes.iter().enumerate() {
            let digit = code / self.radix_weights[i];
            out.push(ValueId(digit as u16));
            code %= self.radix_weights[i];
        }
        out
    }

    /// Human-readable label for an intersection code, e.g. `"Woman×Black"`.
    pub fn intersection_label(&self, code: usize) -> String {
        let values = self.decode_intersection(code);
        values
            .iter()
            .enumerate()
            .map(|(i, v)| {
                self.attributes[i]
                    .value_name(*v)
                    .unwrap_or("<invalid>")
                    .to_string()
            })
            .collect::<Vec<_>>()
            .join("×")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn schema() -> AttributeSchema {
        AttributeSchema::new(vec![
            ProtectedAttribute::new("Gender", ["Man", "Woman", "NonBinary"]).unwrap(),
            ProtectedAttribute::new("Race", ["A", "B", "C", "D", "E"]).unwrap(),
        ])
        .unwrap()
    }

    #[test]
    fn attribute_requires_two_values() {
        let err = ProtectedAttribute::new("Gender", ["OnlyOne"]).unwrap_err();
        assert!(matches!(err, RankingError::DegenerateAttribute(_)));
    }

    #[test]
    fn attribute_rejects_duplicate_values() {
        let err = ProtectedAttribute::new("Gender", ["X", "X"]).unwrap_err();
        assert!(matches!(err, RankingError::DuplicateValue { .. }));
    }

    #[test]
    fn value_lookup_roundtrips() {
        let attr = ProtectedAttribute::new("Race", ["A", "B", "C"]).unwrap();
        let b = attr.value_id("B").unwrap();
        assert_eq!(attr.value_name(b), Some("B"));
        assert_eq!(attr.value_id("Z"), None);
        assert_eq!(attr.domain_size(), 3);
    }

    #[test]
    fn schema_rejects_duplicate_attribute_names() {
        let err = AttributeSchema::new(vec![
            ProtectedAttribute::new("Gender", ["M", "W"]).unwrap(),
            ProtectedAttribute::new("Gender", ["X", "Y"]).unwrap(),
        ])
        .unwrap_err();
        assert!(matches!(err, RankingError::DuplicateAttribute(_)));
    }

    /// `k` binary attributes and one of `last` values.
    fn attributes(k: usize, last: usize) -> Vec<ProtectedAttribute> {
        let mut attributes: Vec<_> = (0..k)
            .map(|i| ProtectedAttribute::new(format!("B{i}"), ["0", "1"]).unwrap())
            .collect();
        let values = (0..last).map(|v| v.to_string());
        attributes.push(ProtectedAttribute::new("Last", values).unwrap());
        attributes
    }

    #[test]
    fn schema_accepts_exactly_the_group_bound() {
        let s = AttributeSchema::new(attributes(4, MAX_INTERSECTION_GROUPS >> 4)).unwrap();
        assert_eq!(s.intersection_cardinality(), MAX_INTERSECTION_GROUPS);
        let one = AttributeSchema::new(attributes(0, MAX_INTERSECTION_GROUPS)).unwrap();
        let last = ValueId((MAX_INTERSECTION_GROUPS - 1) as u16);
        assert_eq!(
            one.intersection_code(&[last]).unwrap(),
            MAX_INTERSECTION_GROUPS - 1
        );
        let sixteen = AttributeSchema::new(attributes(15, 2)).unwrap();
        assert_eq!(sixteen.num_attributes(), 16);
    }

    #[test]
    fn schema_refuses_one_group_more_than_the_bound() {
        // 2^16 + 1 values: one group past the bound.
        let err = AttributeSchema::new(attributes(0, MAX_INTERSECTION_GROUPS + 1)).unwrap_err();
        assert_eq!(
            err,
            RankingError::TooManyGroups {
                groups: Some(MAX_INTERSECTION_GROUPS + 1)
            }
        );
        assert!(err.to_string().contains("65537"), "{err}");
        // 17 binary attributes.
        assert!(matches!(
            AttributeSchema::new(attributes(16, 2)),
            Err(RankingError::TooManyGroups { .. })
        ));
        // Three domains of 2,000 values: 8e9 groups, named in full.
        let big: Vec<_> = ["A", "B", "C"]
            .iter()
            .map(|name| ProtectedAttribute::new(*name, (0..2000).map(|v| v.to_string())).unwrap())
            .collect();
        let err = AttributeSchema::new(big).unwrap_err();
        assert!(err.to_string().contains("8000000000"), "{err}");
    }

    #[test]
    fn group_count_overflow_is_refused() {
        let err = intersection_groups([usize::MAX, 2]).unwrap_err();
        assert_eq!(err, RankingError::TooManyGroups { groups: None });
        assert!(err.to_string().contains("more than"), "{err}");
    }

    #[test]
    fn schema_rejects_empty() {
        assert!(matches!(
            AttributeSchema::new(vec![]),
            Err(RankingError::EmptySchema)
        ));
    }

    #[test]
    fn intersection_cardinality_is_product_of_domains() {
        let s = schema();
        assert_eq!(s.intersection_cardinality(), 3 * 5);
    }

    #[test]
    fn intersection_codes_are_dense_and_unique() {
        let s = schema();
        let mut seen = vec![false; s.intersection_cardinality()];
        for g in 0..3u16 {
            for r in 0..5u16 {
                let code = s.intersection_code(&[ValueId(g), ValueId(r)]).unwrap();
                assert!(code < s.intersection_cardinality());
                assert!(!seen[code], "duplicate code {code}");
                seen[code] = true;
            }
        }
        assert!(seen.iter().all(|&b| b));
    }

    #[test]
    fn intersection_code_roundtrips() {
        let s = schema();
        for code in 0..s.intersection_cardinality() {
            let values = s.decode_intersection(code);
            assert_eq!(s.intersection_code(&values).unwrap(), code);
        }
    }

    #[test]
    fn intersection_code_validates_input() {
        let s = schema();
        assert!(matches!(
            s.intersection_code(&[ValueId(0)]),
            Err(RankingError::LengthMismatch { .. })
        ));
        assert!(matches!(
            s.intersection_code(&[ValueId(0), ValueId(99)]),
            Err(RankingError::UnknownValue { .. })
        ));
    }

    #[test]
    fn intersection_label_joins_value_names() {
        let s = schema();
        let code = s.intersection_code(&[ValueId(1), ValueId(2)]).unwrap();
        assert_eq!(s.intersection_label(code), "Woman×C");
    }

    #[test]
    fn schema_lookup_by_name() {
        let s = schema();
        let race = s.attribute_id("Race").unwrap();
        assert_eq!(s.attribute(race).unwrap().name(), "Race");
        assert!(s.attribute_id("Nationality").is_none());
    }

    #[test]
    fn serde_roundtrip() {
        let s = schema();
        let json = serde_json::to_string(&s).unwrap();
        let back: AttributeSchema = serde_json::from_str(&json).unwrap();
        assert_eq!(s, back);
    }
}
