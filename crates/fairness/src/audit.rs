//! Fairness audits: one-call summaries of a ranking's group treatment.
//!
//! The paper's case studies (Tables IV and V) report, for every ranking, the FPR of every
//! protected attribute group, the ARP of every attribute, and the IRP. [`FairnessAudit`]
//! produces exactly that structure, ready to be formatted as a table row.

use mani_ranking::{CandidateDb, GroupIndex, Ranking};
use serde::{Deserialize, Serialize};

use crate::parity::ParityScores;

/// FPR of one group, labelled with its attribute and value names.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GroupAudit {
    /// Attribute name (or `"Intersection"`).
    pub attribute: String,
    /// Group label (value name or intersection label).
    pub group: String,
    /// Number of candidates in the group.
    pub size: usize,
    /// FPR score, `None` when the group has no mixed pairs.
    pub fpr: Option<f64>,
}

/// Audit of one protected attribute: its groups' FPR scores and its ARP.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AttributeAudit {
    /// Attribute name.
    pub attribute: String,
    /// Per-group FPR scores.
    pub groups: Vec<GroupAudit>,
    /// Attribute Rank Parity.
    pub arp: f64,
}

/// Complete fairness audit of one ranking, mirroring a row of the paper's Tables IV/V.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FairnessAudit {
    /// Label identifying the audited ranking (e.g. `"Kemeny"` or `"Math"`).
    pub label: String,
    /// One audit per protected attribute, in schema order.
    pub attributes: Vec<AttributeAudit>,
    /// FPR scores of non-empty intersectional groups.
    pub intersection_groups: Vec<GroupAudit>,
    /// Intersectional Rank Parity.
    pub irp: f64,
}

impl FairnessAudit {
    /// Audits `ranking` against the database's protected attribute structure.
    pub fn new(
        label: impl Into<String>,
        ranking: &Ranking,
        db: &CandidateDb,
        groups: &GroupIndex,
    ) -> Self {
        let schema = db.schema();
        let parity = ParityScores::compute(ranking, groups);
        let mut attributes = Vec::with_capacity(schema.num_attributes());
        for (attr_id, attr) in schema.attributes() {
            let fprs = parity.attribute_fprs(attr_id);
            let group_audits = attr
                .values()
                .enumerate()
                .map(|(value_index, value_name)| GroupAudit {
                    attribute: attr.name().to_string(),
                    group: value_name.to_string(),
                    size: groups.attribute(attr_id).group_size(value_index),
                    fpr: fprs.score(value_index),
                })
                .collect();
            attributes.push(AttributeAudit {
                attribute: attr.name().to_string(),
                groups: group_audits,
                arp: parity.arp(attr_id),
            });
        }
        let inter_fprs = parity.intersection_fprs();
        let intersection_groups = groups
            .intersection()
            .non_empty_groups()
            .map(|code| GroupAudit {
                attribute: "Intersection".to_string(),
                group: schema.intersection_label(code),
                size: groups.intersection().group_size(code),
                fpr: inter_fprs.score(code),
            })
            .collect();
        Self {
            label: label.into(),
            attributes,
            intersection_groups,
            irp: parity.irp(),
        }
    }

    /// ARP of the named attribute, if present.
    pub fn arp_of(&self, attribute: &str) -> Option<f64> {
        self.attributes
            .iter()
            .find(|a| a.attribute == attribute)
            .map(|a| a.arp)
    }

    /// FPR of the named attribute value, if present and defined.
    pub fn fpr_of(&self, attribute: &str, group: &str) -> Option<f64> {
        self.attributes
            .iter()
            .find(|a| a.attribute == attribute)?
            .groups
            .iter()
            .find(|g| g.group == group)?
            .fpr
    }

    /// Largest parity violation (max over all ARPs and the IRP).
    pub fn max_violation(&self) -> f64 {
        self.attributes
            .iter()
            .map(|a| a.arp)
            .fold(self.irp, f64::max)
    }

    /// Formats the audit as a compact single-line summary.
    pub fn summary(&self) -> String {
        let mut parts = vec![format!("{}:", self.label)];
        for attr in &self.attributes {
            parts.push(format!("ARP({})={:.3}", attr.attribute, attr.arp));
        }
        parts.push(format!("IRP={:.3}", self.irp));
        parts.join(" ")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mani_ranking::CandidateDbBuilder;

    fn db() -> (CandidateDb, GroupIndex) {
        let mut b = CandidateDbBuilder::new();
        let g = b.add_attribute("Gender", ["Man", "Woman"]).unwrap();
        let l = b.add_attribute("Lunch", ["NoSub", "Sub"]).unwrap();
        for i in 0..8usize {
            b.add_candidate(format!("s{i}"), [(g, i % 2), (l, (i / 4) % 2)])
                .unwrap();
        }
        let db = b.build().unwrap();
        let idx = GroupIndex::new(&db);
        (db, idx)
    }

    #[test]
    fn audit_lists_every_attribute_and_group() {
        let (db, idx) = db();
        let audit = FairnessAudit::new("identity", &Ranking::identity(8), &db, &idx);
        assert_eq!(audit.attributes.len(), 2);
        assert_eq!(audit.attributes[0].groups.len(), 2);
        assert_eq!(audit.intersection_groups.len(), 4);
        assert_eq!(audit.label, "identity");
    }

    #[test]
    fn audit_lookups_by_name() {
        let (db, idx) = db();
        let audit = FairnessAudit::new("r", &Ranking::identity(8), &db, &idx);
        assert!(audit.arp_of("Gender").is_some());
        assert!(audit.arp_of("Missing").is_none());
        assert!(audit.fpr_of("Gender", "Man").is_some());
        assert!(audit.fpr_of("Gender", "Other").is_none());
        // binary attribute: FPRs sum to one
        let man = audit.fpr_of("Gender", "Man").unwrap();
        let woman = audit.fpr_of("Gender", "Woman").unwrap();
        assert!((man + woman - 1.0).abs() < 1e-12);
    }

    #[test]
    fn audit_matches_parity_scores() {
        let (db, idx) = db();
        let ranking = Ranking::identity(8).reversed();
        let audit = FairnessAudit::new("rev", &ranking, &db, &idx);
        let parity = ParityScores::compute(&ranking, &idx);
        let gender = db.schema().attribute_id("Gender").unwrap();
        assert!((audit.arp_of("Gender").unwrap() - parity.arp(gender)).abs() < 1e-12);
        assert!((audit.irp - parity.irp()).abs() < 1e-12);
        assert!(audit.max_violation() >= audit.irp);
    }

    #[test]
    fn audit_group_sizes_sum_to_population() {
        let (db, idx) = db();
        let audit = FairnessAudit::new("r", &Ranking::identity(8), &db, &idx);
        for attr in &audit.attributes {
            let total: usize = attr.groups.iter().map(|g| g.size).sum();
            assert_eq!(total, 8);
        }
        let total: usize = audit.intersection_groups.iter().map(|g| g.size).sum();
        assert_eq!(total, 8);
    }

    #[test]
    fn summary_mentions_every_attribute() {
        let (db, idx) = db();
        let audit = FairnessAudit::new("Kemeny", &Ranking::identity(8), &db, &idx);
        let s = audit.summary();
        assert!(s.contains("Kemeny"));
        assert!(s.contains("ARP(Gender)"));
        assert!(s.contains("ARP(Lunch)"));
        assert!(s.contains("IRP"));
    }

    #[test]
    fn serde_roundtrip() {
        let (db, idx) = db();
        let audit = FairnessAudit::new("r", &Ranking::identity(8), &db, &idx);
        let json = serde_json::to_string(&audit).unwrap();
        let back: FairnessAudit = serde_json::from_str(&json).unwrap();
        assert_eq!(audit, back);
    }
}
