//! Named, shareable consensus datasets: a candidate database plus a profile of
//! base rankings, wrapped in [`std::sync::Arc`] so worker threads can borrow
//! them without copies.

use std::hash::{DefaultHasher, Hash, Hasher};
use std::sync::Arc;

use mani_ranking::{CandidateDb, RankingProfile};

use crate::error::EngineError;

/// One consensus-ranking workload: candidates (with protected attributes) and
/// the base rankings ranked over them.
///
/// The content is immutable once built, so its fingerprint is computed once,
/// by the constructor, and every cache lookup reads the stored value.
#[derive(Debug, Clone)]
pub struct EngineDataset {
    name: String,
    db: Arc<CandidateDb>,
    profile: Arc<RankingProfile>,
    fingerprint: u64,
}

impl EngineDataset {
    /// Bundles a database and profile under a display name, validating that
    /// they cover the same candidates.
    pub fn new(
        name: impl Into<String>,
        db: CandidateDb,
        profile: RankingProfile,
    ) -> Result<Self, EngineError> {
        Self::from_arcs(name, Arc::new(db), Arc::new(profile))
    }

    /// Like [`EngineDataset::new`] but reuses existing shared handles.
    pub fn from_arcs(
        name: impl Into<String>,
        db: Arc<CandidateDb>,
        profile: Arc<RankingProfile>,
    ) -> Result<Self, EngineError> {
        if db.len() != profile.num_candidates() {
            return Err(EngineError::invalid(format!(
                "database has {} candidates but the profile ranks {}",
                db.len(),
                profile.num_candidates()
            )));
        }
        let fingerprint = content_fingerprint(&db, &profile);
        Ok(Self {
            name: name.into(),
            db,
            profile,
            fingerprint,
        })
    }

    /// Display name used in responses and reports.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The candidate database.
    pub fn db(&self) -> &Arc<CandidateDb> {
        &self.db
    }

    /// The base rankings.
    pub fn profile(&self) -> &Arc<RankingProfile> {
        &self.profile
    }

    /// Number of candidates `n`.
    pub fn num_candidates(&self) -> usize {
        self.db.len()
    }

    /// Number of base rankings `|R|`.
    pub fn num_rankings(&self) -> usize {
        self.profile.len()
    }

    /// Stable content fingerprint of `(db, profile)`, used as the precedence
    /// cache key: two datasets with identical candidates (names, attribute
    /// schema, attribute values) and identical base rankings collide on
    /// purpose, regardless of their display names. Computed once, when the
    /// dataset is built.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }
}

/// Hashes a dataset's content: the schema, every candidate and every run.
fn content_fingerprint(db: &CandidateDb, profile: &RankingProfile) -> u64 {
    let mut hasher = DefaultHasher::new();
    // Schema: attribute names and value domains in order.
    for (_, attribute) in db.schema().attributes() {
        attribute.name().hash(&mut hasher);
        for value in attribute.values() {
            value.hash(&mut hasher);
        }
    }
    // Candidates: names and value assignments in registration order.
    for (_, candidate) in db.candidates() {
        candidate.name().hash(&mut hasher);
        for value in candidate.values() {
            value.index().hash(&mut hasher);
        }
    }
    // Profile: every run's order. A run of one copy hashes as a lone
    // ranking; a heavier run adds a marker no candidate id takes, then its
    // weight, so profiles without adjacent repeats keep their fingerprints.
    profile.num_candidates().hash(&mut hasher);
    for (ranking, weight) in profile.runs() {
        for candidate in ranking.iter() {
            candidate.0.hash(&mut hasher);
        }
        if weight > 1 {
            (u32::MAX - 1).hash(&mut hasher);
            weight.hash(&mut hasher);
        }
        // Separate rankings so concatenations cannot collide.
        u32::MAX.hash(&mut hasher);
    }
    hasher.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use mani_ranking::{CandidateDbBuilder, Ranking};

    fn db(n: usize) -> CandidateDb {
        let mut b = CandidateDbBuilder::new();
        let g = b.add_attribute("Gender", ["M", "W"]).unwrap();
        for i in 0..n {
            b.add_candidate(format!("c{i}"), [(g, i % 2)]).unwrap();
        }
        b.build().unwrap()
    }

    fn profile(n: usize, m: usize) -> RankingProfile {
        RankingProfile::new(vec![Ranking::identity(n); m]).unwrap()
    }

    #[test]
    fn validates_candidate_counts() {
        assert!(EngineDataset::new("ok", db(4), profile(4, 2)).is_ok());
        let err = EngineDataset::new("bad", db(4), profile(5, 2)).unwrap_err();
        assert!(matches!(err, EngineError::InvalidRequest(_)));
    }

    #[test]
    fn accessors_expose_shape() {
        let ds = EngineDataset::new("committee", db(6), profile(6, 3)).unwrap();
        assert_eq!(ds.name(), "committee");
        assert_eq!(ds.num_candidates(), 6);
        assert_eq!(ds.num_rankings(), 3);
    }

    #[test]
    fn fingerprint_ignores_name_but_sees_content() {
        let a = EngineDataset::new("a", db(6), profile(6, 3)).unwrap();
        let b = EngineDataset::new("b", db(6), profile(6, 3)).unwrap();
        assert_eq!(a.fingerprint(), b.fingerprint(), "names must not matter");

        let fewer_rankings = EngineDataset::new("a", db(6), profile(6, 2)).unwrap();
        assert_ne!(a.fingerprint(), fewer_rankings.fingerprint());

        let reversed = RankingProfile::new(vec![
            Ranking::identity(6).reversed(),
            Ranking::identity(6),
            Ranking::identity(6),
        ])
        .unwrap();
        let different_order = EngineDataset::new("a", db(6), reversed).unwrap();
        assert_ne!(a.fingerprint(), different_order.fingerprint());
    }
}
