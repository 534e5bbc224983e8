//! The persisted dataset registry behind the datasets CRUD operations.
//!
//! Interactive clients (FairFuse-style threshold exploration) re-query the
//! same candidate pool with varied deltas and methods. Re-uploading a
//! multi-megabyte dataset per request wastes client bandwidth and server parse
//! time, so the registry lets a client upload once and reference the dataset
//! by id (`"dataset": {"id": ...}` in consensus, session and audit bodies)
//! for every later solve.
//!
//! Ids are **content fingerprints** ([`EngineDataset::fingerprint`] of the
//! originally uploaded content, the same key the engine's `PrecedenceCache`
//! uses), so a registered dataset shares the warm precedence matrix with
//! every inline request carrying identical content, and re-uploading
//! identical content is idempotent: same id back.
//!
//! # Versions
//!
//! Each id fronts a **version chain**: `PATCH /v1/datasets/{id}` edits append
//! a new [`EngineDataset`] under the same id with a monotonically increasing
//! `version` (the upload is version 1). The id stays stable across edits so
//! interactive sessions keep one handle, while every version has its own
//! content fingerprint — which is what keys both the precedence cache and
//! the response cache, so results for different versions can never alias.
//! A bounded number of historical versions is retained per id (oldest-first
//! eviction); resolving a pinned version that has been evicted is a
//! [`crate::ApiErrorKind::Conflict`], not a not-found, so clients can
//! distinguish "never existed" from "rotated away".

use std::collections::{HashMap, VecDeque};
use std::sync::{Arc, Mutex};

use mani_engine::EngineDataset;

use crate::error::ApiError;

/// Most datasets held at once; uploads beyond this answer
/// [`crate::ApiErrorKind::Overloaded`] until something is deleted. Bounds
/// worst-case registry memory the same way the response cache bounds outcome
/// memory.
pub const MAX_REGISTERED_DATASETS: usize = 1024;

/// Most historical versions retained per dataset id. Edits beyond this evict
/// the oldest retained version (the current version is never evicted).
pub const MAX_RETAINED_VERSIONS: usize = 8;

/// Canonical registry id for a dataset: its content fingerprint, hex-encoded.
pub fn dataset_id(dataset: &EngineDataset) -> String {
    format!("ds-{:016x}", dataset.fingerprint())
}

/// One resolved `(id, version)` pair: the stable handle plus the exact
/// dataset content it referred to at that version.
#[derive(Debug, Clone)]
pub struct RegisteredDataset {
    /// Stable registry id (content fingerprint of the original upload).
    pub id: String,
    /// Monotonic version under that id (the original upload is version 1).
    pub version: u64,
    /// The dataset content of this version.
    pub dataset: Arc<EngineDataset>,
}

impl RegisteredDataset {
    /// Hex-encoded content fingerprint of *this version's* content (differs
    /// from the id once the dataset has been patched).
    pub fn fingerprint_hex(&self) -> String {
        format!("{:016x}", self.dataset.fingerprint())
    }
}

/// The version chain behind one registry id.
#[derive(Debug)]
struct VersionChain {
    /// Retained `(version, dataset)` pairs, oldest first; the back is the
    /// current version.
    versions: VecDeque<(u64, Arc<EngineDataset>)>,
}

impl VersionChain {
    fn current(&self) -> &(u64, Arc<EngineDataset>) {
        self.versions.back().expect("version chain never empty")
    }
}

/// A bounded, thread-safe store of uploaded datasets keyed by content id,
/// each fronting a monotonic version chain.
#[derive(Debug)]
pub struct DatasetRegistry {
    inner: Mutex<HashMap<String, VersionChain>>,
    capacity: usize,
}

impl Default for DatasetRegistry {
    fn default() -> Self {
        Self::new(MAX_REGISTERED_DATASETS)
    }
}

impl DatasetRegistry {
    /// A registry bounded to `capacity` datasets (`0` means
    /// [`MAX_REGISTERED_DATASETS`]).
    pub fn new(capacity: usize) -> Self {
        Self {
            inner: Mutex::new(HashMap::new()),
            capacity: if capacity == 0 {
                MAX_REGISTERED_DATASETS
            } else {
                capacity
            },
        }
    }

    /// Registers a dataset, returning `(current version, created)`.
    /// Re-registering content whose id already exists is idempotent
    /// (`created == false`, the id's *current* version comes back); a full
    /// registry rejects *new* content as overloaded.
    pub fn register(
        &self,
        dataset: Arc<EngineDataset>,
    ) -> Result<(RegisteredDataset, bool), ApiError> {
        let id = dataset_id(&dataset);
        let mut inner = self.inner.lock().expect("dataset registry lock poisoned");
        if let Some(chain) = inner.get(&id) {
            let (version, dataset) = chain.current().clone();
            return Ok((
                RegisteredDataset {
                    id,
                    version,
                    dataset,
                },
                false,
            ));
        }
        if inner.len() >= self.capacity {
            return Err(ApiError::overloaded(format!(
                "dataset registry is full ({} entries); DELETE unused datasets first",
                self.capacity
            )));
        }
        inner.insert(
            id.clone(),
            VersionChain {
                versions: VecDeque::from([(1, Arc::clone(&dataset))]),
            },
        );
        Ok((
            RegisteredDataset {
                id,
                version: 1,
                dataset,
            },
            true,
        ))
    }

    /// Appends `dataset`, an edit of version `parent`, as the next version
    /// of `id`, returning the new current version. Refuses with a
    /// [`crate::ApiErrorKind::Conflict`], changing nothing, when `parent` is
    /// no longer the current version: another edit was installed since, and
    /// appending would drop it. Older versions beyond
    /// [`MAX_RETAINED_VERSIONS`] are evicted oldest-first.
    pub fn update(
        &self,
        id: &str,
        parent: u64,
        dataset: Arc<EngineDataset>,
    ) -> Result<RegisteredDataset, ApiError> {
        let mut inner = self.inner.lock().expect("dataset registry lock poisoned");
        let chain = inner
            .get_mut(id)
            .ok_or_else(|| Self::unknown_id_error(id))?;
        let current = chain.current().0;
        if current != parent {
            return Err(ApiError::conflict(format!(
                "dataset `{id}` is at version {current}, not the edited version {parent}"
            )));
        }
        let version = current + 1;
        chain.versions.push_back((version, Arc::clone(&dataset)));
        while chain.versions.len() > MAX_RETAINED_VERSIONS {
            chain.versions.pop_front();
        }
        Ok(RegisteredDataset {
            id: id.to_string(),
            version,
            dataset,
        })
    }

    /// Looks an id's current version up.
    pub fn get(&self, id: &str) -> Option<Arc<EngineDataset>> {
        self.inner
            .lock()
            .expect("dataset registry lock poisoned")
            .get(id)
            .map(|chain| Arc::clone(&chain.current().1))
    }

    /// The current `(id, version, dataset)` triple for an id.
    pub fn current(&self, id: &str) -> Option<RegisteredDataset> {
        self.inner
            .lock()
            .expect("dataset registry lock poisoned")
            .get(id)
            .map(|chain| {
                let (version, dataset) = chain.current().clone();
                RegisteredDataset {
                    id: id.to_string(),
                    version,
                    dataset,
                }
            })
    }

    /// Resolves an id's current version or reports a not-found error.
    pub fn resolve(&self, id: &str) -> Result<Arc<EngineDataset>, ApiError> {
        self.get(id).ok_or_else(|| Self::unknown_id_error(id))
    }

    /// Resolves an id's current `(id, version, dataset)` triple or reports
    /// the not-found error.
    pub fn resolve_current(&self, id: &str) -> Result<RegisteredDataset, ApiError> {
        self.current(id).ok_or_else(|| Self::unknown_id_error(id))
    }

    /// Resolves a specific pinned version of an id. A version newer than the
    /// current one (or `0`) never existed and is a not-found; a version older
    /// than the oldest retained one *did* exist but has been evicted from the
    /// version chain, which is a [`crate::ApiErrorKind::Conflict`].
    pub fn resolve_version(&self, id: &str, version: u64) -> Result<RegisteredDataset, ApiError> {
        let inner = self.inner.lock().expect("dataset registry lock poisoned");
        let chain = inner.get(id).ok_or_else(|| Self::unknown_id_error(id))?;
        let current = chain.current().0;
        if version == 0 || version > current {
            return Err(ApiError::not_found(format!(
                "dataset `{id}` has no version {version} (current version is {current})"
            )));
        }
        match chain.versions.iter().find(|(v, _)| *v == version) {
            Some((_, dataset)) => Ok(RegisteredDataset {
                id: id.to_string(),
                version,
                dataset: Arc::clone(dataset),
            }),
            None => Err(ApiError::conflict(format!(
                "version {version} of dataset `{id}` has been evicted \
                 (oldest retained is {}, current is {current}); drop the pin \
                 or re-solve against the current version",
                chain.versions.front().map(|(v, _)| *v).unwrap_or(current),
            ))),
        }
    }

    /// Removes an id with its whole version chain, returning the dataset the
    /// current version held.
    pub fn remove(&self, id: &str) -> Option<Arc<EngineDataset>> {
        self.inner
            .lock()
            .expect("dataset registry lock poisoned")
            .remove(id)
            .map(|chain| Arc::clone(&chain.current().1))
    }

    /// Number of datasets (ids, not versions) currently registered.
    pub fn len(&self) -> usize {
        self.inner
            .lock()
            .expect("dataset registry lock poisoned")
            .len()
    }

    /// True when nothing is registered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The not-found error every unknown-id path reports.
    fn unknown_id_error(id: &str) -> ApiError {
        ApiError::not_found(format!(
            "no such dataset `{id}` (upload via POST /v1/datasets)"
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::ApiErrorKind;
    use mani_ranking::{CandidateDbBuilder, Ranking, RankingDelta, RankingProfile};

    fn dataset(name: &str, n: usize) -> Arc<EngineDataset> {
        let mut b = CandidateDbBuilder::new();
        let g = b.add_attribute("G", ["x", "y"]).unwrap();
        for i in 0..n {
            b.add_candidate(format!("c{i}"), [(g, i % 2)]).unwrap();
        }
        let db = b.build().unwrap();
        let profile = RankingProfile::new(vec![Ranking::identity(n); 2]).unwrap();
        Arc::new(EngineDataset::new(name, db, profile).unwrap())
    }

    /// `base` with `extra` more identity rankings appended (a content edit).
    fn edited(base: &EngineDataset, extra: u32) -> Arc<EngineDataset> {
        let append = RankingDelta::Append {
            ranking: Ranking::identity(base.num_candidates()).reversed(),
            weight: extra,
        };
        let profile = base.profile().edited(&[append]).unwrap();
        Arc::new(
            EngineDataset::from_arcs(base.name(), Arc::clone(base.db()), Arc::new(profile))
                .unwrap(),
        )
    }

    #[test]
    fn register_is_idempotent_by_content() {
        let registry = DatasetRegistry::new(4);
        let (registered, created) = registry.register(dataset("a", 4)).unwrap();
        assert!(created);
        assert!(registered.id.starts_with("ds-"), "{}", registered.id);
        assert_eq!(registered.version, 1);
        // Same content, different display name: same id, not re-created.
        let (again, created) = registry.register(dataset("b", 4)).unwrap();
        assert_eq!(registered.id, again.id);
        assert_eq!(again.version, 1);
        assert!(!created);
        assert_eq!(registry.len(), 1);
        assert!(registry.get(&registered.id).is_some());
    }

    #[test]
    fn resolve_and_remove_round_trip() {
        let registry = DatasetRegistry::new(4);
        let (registered, _) = registry.register(dataset("a", 4)).unwrap();
        let id = registered.id;
        assert_eq!(registry.resolve(&id).unwrap().num_candidates(), 4);
        assert!(registry.remove(&id).is_some());
        assert!(registry.remove(&id).is_none());
        let err = registry.resolve(&id).unwrap_err();
        assert_eq!(err.kind, ApiErrorKind::NotFound);
        assert!(err.message.contains(&id));
        assert!(registry.is_empty());
    }

    #[test]
    fn full_registry_rejects_new_content_as_overloaded() {
        let registry = DatasetRegistry::new(2);
        registry.register(dataset("a", 4)).unwrap();
        registry.register(dataset("b", 6)).unwrap();
        let err = registry.register(dataset("c", 8)).unwrap_err();
        assert_eq!(err.kind, ApiErrorKind::Overloaded);
        // Existing content still registers idempotently at capacity.
        let (_, created) = registry.register(dataset("a2", 4)).unwrap();
        assert!(!created);
    }

    #[test]
    fn updates_bump_versions_under_a_stable_id() {
        let registry = DatasetRegistry::new(4);
        let base = dataset("a", 4);
        let (registered, _) = registry.register(Arc::clone(&base)).unwrap();
        let id = registered.id.clone();
        let v2 = registry.update(&id, 1, edited(&base, 1)).unwrap();
        assert_eq!(v2.id, id);
        assert_eq!(v2.version, 2);
        assert_ne!(v2.fingerprint_hex(), registered.fingerprint_hex());
        // The id resolves to the new current content.
        assert_eq!(registry.resolve(&id).unwrap().num_rankings(), 3);
        assert_eq!(registry.current(&id).unwrap().version, 2);
        // Both retained versions resolve by pin.
        assert_eq!(
            registry
                .resolve_version(&id, 1)
                .unwrap()
                .dataset
                .num_rankings(),
            2
        );
        assert_eq!(
            registry
                .resolve_version(&id, 2)
                .unwrap()
                .dataset
                .num_rankings(),
            3
        );
        // One id, however many versions.
        assert_eq!(registry.len(), 1);
        // Updating an unknown id fails with not-found.
        let err = registry.update("ds-nope", 1, edited(&base, 2)).unwrap_err();
        assert_eq!(err.kind, ApiErrorKind::NotFound);
    }

    #[test]
    fn a_stale_parent_version_is_refused_and_changes_nothing() {
        let registry = DatasetRegistry::new(4);
        let base = dataset("a", 4);
        let (registered, _) = registry.register(Arc::clone(&base)).unwrap();
        let id = registered.id;
        let v2 = registry.update(&id, 1, edited(&base, 1)).unwrap();
        // A second edit of version 1 lost the race to `v2`.
        let err = registry.update(&id, 1, edited(&base, 2)).unwrap_err();
        assert_eq!(err.kind, ApiErrorKind::Conflict);
        assert!(err.message.contains("version 2"), "{}", err.message);
        let current = registry.current(&id).unwrap();
        assert_eq!(current.version, 2);
        assert_eq!(current.fingerprint_hex(), v2.fingerprint_hex());
        assert!(registry.resolve_version(&id, 3).is_err());
        // A version that never existed is stale too.
        let err = registry.update(&id, 7, edited(&base, 2)).unwrap_err();
        assert_eq!(err.kind, ApiErrorKind::Conflict);
        // The edit of the current version goes in.
        assert_eq!(
            registry.update(&id, 2, edited(&base, 2)).unwrap().version,
            3
        );
    }

    #[test]
    fn evicted_versions_conflict_and_unknown_versions_are_not_found() {
        let registry = DatasetRegistry::new(4);
        let base = dataset("a", 4);
        let (registered, _) = registry.register(Arc::clone(&base)).unwrap();
        let id = registered.id;
        // Push enough edits to rotate version 1 out of the retained window.
        for extra in 1..=MAX_RETAINED_VERSIONS {
            registry
                .update(&id, extra as u64, edited(&base, extra as u32))
                .unwrap();
        }
        let current = registry.current(&id).unwrap().version;
        assert_eq!(current, (MAX_RETAINED_VERSIONS + 1) as u64);
        let evicted = registry.resolve_version(&id, 1).unwrap_err();
        assert_eq!(evicted.kind, ApiErrorKind::Conflict);
        assert!(evicted.message.contains("evicted"), "{}", evicted.message);
        let future = registry.resolve_version(&id, current + 1).unwrap_err();
        assert_eq!(future.kind, ApiErrorKind::NotFound);
        let zero = registry.resolve_version(&id, 0).unwrap_err();
        assert_eq!(zero.kind, ApiErrorKind::NotFound);
        let unknown = registry.resolve_version("ds-nope", 1).unwrap_err();
        assert_eq!(unknown.kind, ApiErrorKind::NotFound);
    }

    #[test]
    fn resolve_version_returns_the_pinned_content() {
        let registry = DatasetRegistry::new(4);
        let base = dataset("a", 4);
        let (registered, _) = registry.register(Arc::clone(&base)).unwrap();
        registry
            .update(&registered.id, 1, edited(&base, 3))
            .unwrap();
        let pinned = registry.resolve_version(&registered.id, 1).unwrap();
        assert_eq!(pinned.dataset.num_rankings(), 2);
        assert_eq!(pinned.fingerprint_hex(), registered.fingerprint_hex());
    }
}
