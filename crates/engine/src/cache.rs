//! Shared-artifact cache: one precedence matrix and one group index per
//! distinct `(db, profile)` pair, shared across every method and request in a
//! batch instead of being recomputed per method.
//!
//! The precedence matrix costs `O(n² · |R|)` to build — by far the dominant
//! shared cost of the pairwise methods — so building it once per dataset and
//! handing every worker an [`std::sync::Arc`] is the engine's core speedup.
//! Construction is guarded by a per-key [`OnceLock`], so concurrent workers
//! asking for the same dataset block on a single build instead of duplicating
//! it; [`CacheStats::builds`] therefore counts exactly one build per distinct
//! dataset, and every other lookup counts as a hit.
//!
//! Beside each matrix sits a [`ConsensusMemo`]: the dataset's Borda, Copeland
//! and Schulze consensus rankings, each computed on first use. They do not
//! depend on Δ, so a solve at a new Δ skips aggregation. Every build and
//! derivation creates a fresh memo, so a memo only ever serves the one
//! fingerprint its matrix belongs to.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

use mani_core::{ConsensusMemo, MemoCounters};
use mani_ranking::{GroupIndex, Parallelism, PrecedenceMatrix, RankingDelta};

use crate::dataset::EngineDataset;

/// The per-dataset artifacts every method shares.
#[derive(Debug, Clone)]
pub struct SharedArtifacts {
    /// Group index over the dataset's candidate database.
    pub groups: Arc<GroupIndex>,
    /// Precedence matrix of the dataset's profile.
    pub precedence: Arc<PrecedenceMatrix>,
    /// The profile's base consensus rankings, filled as methods ask for them.
    pub consensus: Arc<ConsensusMemo>,
}

/// Counters describing cache effectiveness.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheStats {
    /// Total `get_or_build` calls.
    pub lookups: u64,
    /// Calls that did not run a build themselves: they found the artifacts
    /// built, or waited for another caller's build of the same dataset. So
    /// `hits + builds == lookups` (a fingerprint-collision rebuild counts as
    /// a build, not a hit).
    pub hits: u64,
    /// Number of times artifacts were actually constructed (one per distinct
    /// dataset, however many threads raced on it).
    pub builds: u64,
    /// Total wall-clock nanoseconds spent building artifacts (matrix +
    /// group-index construction), summed over all builds.
    pub build_ns: u64,
    /// Rankings folded *into* warm matrices by delta derivation instead of a
    /// full rebuild.
    pub delta_appends: u64,
    /// Rankings folded *out of* warm matrices by delta derivation.
    pub delta_retracts: u64,
    /// Delta derivations that could not reuse a warm parent matrix (parent
    /// never built, fingerprint mismatch, or an inapplicable retract) and
    /// fell back to a full rebuild.
    pub delta_rebuild_fallbacks: u64,
    /// Base-consensus lookups answered from a dataset's memo, including
    /// those that waited for another task computing the same ranking.
    pub consensus_hits: u64,
    /// Base-consensus lookups that ran the aggregator: at most one per
    /// cached dataset and aggregator. `consensus_hits + consensus_builds` is
    /// the number of base-consensus lookups.
    pub consensus_builds: u64,
    /// Number of cached datasets.
    pub entries: usize,
    /// Heap bytes of the precedence matrices of every cached dataset.
    pub matrix_bytes: u64,
}

/// A cached build together with the exact inputs it was built from, so hash
/// collisions can be detected instead of silently serving foreign artifacts.
#[derive(Debug)]
struct CacheEntry {
    db: Arc<mani_ranking::CandidateDb>,
    profile: Arc<mani_ranking::RankingProfile>,
    artifacts: SharedArtifacts,
}

impl CacheEntry {
    /// True when this entry was built from content equal to `dataset`'s
    /// (pointer equality short-circuits the deep comparison).
    fn matches(&self, dataset: &EngineDataset) -> bool {
        (Arc::ptr_eq(&self.db, dataset.db()) || *self.db == **dataset.db())
            && (Arc::ptr_eq(&self.profile, dataset.profile())
                || *self.profile == **dataset.profile())
    }
}

/// Thread-safe cache keyed by [`EngineDataset::fingerprint`].
#[derive(Debug, Default)]
pub struct PrecedenceCache {
    entries: Mutex<HashMap<u64, Arc<OnceLock<CacheEntry>>>>,
    lookups: AtomicU64,
    hits: AtomicU64,
    builds: AtomicU64,
    build_ns: AtomicU64,
    delta_appends: AtomicU64,
    delta_retracts: AtomicU64,
    delta_rebuild_fallbacks: AtomicU64,
    consensus: Arc<MemoCounters>,
}

impl PrecedenceCache {
    /// Creates an empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns the dataset's shared artifacts, building them at most once per
    /// distinct dataset. The boolean is `true` (a cache hit) unless this call
    /// ran the build; a call that waited on a concurrent build is a hit.
    pub fn get_or_build(&self, dataset: &EngineDataset) -> (SharedArtifacts, bool) {
        self.get_or_build_with(dataset, &Parallelism::serial())
    }

    /// [`PrecedenceCache::get_or_build`] with a kernel-parallelism budget:
    /// misses build the precedence matrix with row-block parallel construction
    /// (bit-identical to the serial build, so mixed callers share entries
    /// safely).
    pub fn get_or_build_with(
        &self,
        dataset: &EngineDataset,
        parallelism: &Parallelism,
    ) -> (SharedArtifacts, bool) {
        self.lookups.fetch_add(1, Ordering::Relaxed);
        let key = dataset.fingerprint();
        let cell = {
            let mut entries = self.entries.lock().expect("cache lock poisoned");
            entries.entry(key).or_default().clone()
        };
        let mut built = false;
        let entry = cell.get_or_init(|| {
            built = true;
            CacheEntry {
                db: Arc::clone(dataset.db()),
                profile: Arc::clone(dataset.profile()),
                artifacts: self.build_artifacts(dataset, parallelism),
            }
        });
        // A 64-bit fingerprint can (astronomically rarely) collide; serving
        // another dataset's matrix would corrupt every downstream result, so
        // verify the content and fall back to an uncached build on mismatch.
        if !entry.matches(dataset) {
            return (self.build_artifacts(dataset, parallelism), false);
        }
        if !built {
            self.hits.fetch_add(1, Ordering::Relaxed);
        }
        (entry.artifacts.clone(), !built)
    }

    /// Derives and caches `child`'s artifacts from `parent`'s warm entry by
    /// folding `deltas` into a copy-on-write clone of the parent's precedence
    /// matrix — `O(n²)` per delta instead of the `O(n² · |R|)` full rebuild.
    ///
    /// `child` must be the dataset that results from applying `deltas` to
    /// `parent` (the caller edits the profile; this method maintains the
    /// matrix). When the parent has no warm entry, its fingerprint collides
    /// with foreign content, or a delta is inapplicable (e.g. retracting an
    /// absent ranking), the derivation falls back to a full
    /// [`PrecedenceCache::get_or_build_with`] build and charges
    /// [`CacheStats::delta_rebuild_fallbacks`]. The boolean is `true` when
    /// the artifacts were produced without a full matrix build.
    pub fn derive_with(
        &self,
        parent: &EngineDataset,
        child: &EngineDataset,
        deltas: &[RankingDelta],
        parallelism: &Parallelism,
    ) -> (SharedArtifacts, bool) {
        let parent_cell = {
            let entries = self.entries.lock().expect("cache lock poisoned");
            entries.get(&parent.fingerprint()).cloned()
        };
        let derived = parent_cell
            .as_ref()
            .and_then(|cell| cell.get())
            .filter(|entry| entry.matches(parent))
            .and_then(|entry| {
                let mut matrix = (*entry.artifacts.precedence).clone();
                let mut appends = 0u64;
                let mut retracts = 0u64;
                for delta in deltas {
                    match delta {
                        RankingDelta::Append { ranking, weight } => {
                            matrix.apply_append(ranking, *weight).ok()?;
                            appends += 1;
                        }
                        RankingDelta::Retract { ranking, weight } => {
                            matrix.apply_retract(ranking, *weight).ok()?;
                            retracts += 1;
                        }
                    }
                }
                // Ranking edits leave the candidate database untouched, so
                // the group index is shared with the parent, not rebuilt.
                let groups = if Arc::ptr_eq(parent.db(), child.db()) {
                    Arc::clone(&entry.artifacts.groups)
                } else {
                    Arc::new(GroupIndex::new(child.db()))
                };
                self.delta_appends.fetch_add(appends, Ordering::Relaxed);
                self.delta_retracts.fetch_add(retracts, Ordering::Relaxed);
                Some(SharedArtifacts {
                    groups,
                    precedence: Arc::new(matrix),
                    consensus: self.new_memo(),
                })
            });
        let Some(artifacts) = derived else {
            self.delta_rebuild_fallbacks.fetch_add(1, Ordering::Relaxed);
            return (self.get_or_build_with(child, parallelism).0, false);
        };
        // Install the derived entry under the child's fingerprint so
        // subsequent solves of the edited dataset hit a warm matrix.
        let cell = {
            let mut entries = self.entries.lock().expect("cache lock poisoned");
            entries.entry(child.fingerprint()).or_default().clone()
        };
        let entry = cell.get_or_init(|| CacheEntry {
            db: Arc::clone(child.db()),
            profile: Arc::clone(child.profile()),
            artifacts: artifacts.clone(),
        });
        if entry.matches(child) {
            (entry.artifacts.clone(), true)
        } else {
            (artifacts, true)
        }
    }

    /// Builds artifacts for a dataset, charging the build counters.
    fn build_artifacts(
        &self,
        dataset: &EngineDataset,
        parallelism: &Parallelism,
    ) -> SharedArtifacts {
        let started = Instant::now();
        self.builds.fetch_add(1, Ordering::Relaxed);
        let artifacts = SharedArtifacts {
            groups: Arc::new(GroupIndex::new(dataset.db())),
            precedence: Arc::new(dataset.profile().precedence_matrix_with(parallelism)),
            consensus: self.new_memo(),
        };
        self.build_ns
            .fetch_add(started.elapsed().as_nanos() as u64, Ordering::Relaxed);
        artifacts
    }

    /// An empty memo for a freshly built or derived matrix, counting into
    /// this cache's consensus counters.
    fn new_memo(&self) -> Arc<ConsensusMemo> {
        Arc::new(ConsensusMemo::with_counters(Arc::clone(&self.consensus)))
    }

    /// Current effectiveness counters.
    pub fn stats(&self) -> CacheStats {
        let entries = self.entries.lock().expect("cache lock poisoned");
        CacheStats {
            lookups: self.lookups.load(Ordering::Relaxed),
            hits: self.hits.load(Ordering::Relaxed),
            builds: self.builds.load(Ordering::Relaxed),
            build_ns: self.build_ns.load(Ordering::Relaxed),
            delta_appends: self.delta_appends.load(Ordering::Relaxed),
            delta_retracts: self.delta_retracts.load(Ordering::Relaxed),
            delta_rebuild_fallbacks: self.delta_rebuild_fallbacks.load(Ordering::Relaxed),
            consensus_hits: self.consensus.hits(),
            consensus_builds: self.consensus.builds(),
            entries: entries.len(),
            matrix_bytes: (entries.values().filter_map(|cell| cell.get()))
                .map(|entry| entry.artifacts.precedence.heap_bytes() as u64)
                .sum(),
        }
    }

    /// Drops every cached dataset (counters are preserved; `matrix_bytes`,
    /// which counts what is cached, drops to zero).
    pub fn clear(&self) {
        self.entries.lock().expect("cache lock poisoned").clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mani_ranking::{CandidateDbBuilder, Ranking, RankingProfile};

    fn dataset(n: usize, m: usize, name: &str) -> EngineDataset {
        let mut b = CandidateDbBuilder::new();
        let g = b.add_attribute("G", ["x", "y"]).unwrap();
        for i in 0..n {
            b.add_candidate(format!("c{i}"), [(g, i % 2)]).unwrap();
        }
        let db = b.build().unwrap();
        let profile = RankingProfile::new(vec![Ranking::identity(n); m]).unwrap();
        EngineDataset::new(name, db, profile).unwrap()
    }

    #[test]
    fn second_lookup_hits_and_shares_the_same_allocation() {
        let cache = PrecedenceCache::new();
        let ds = dataset(6, 3, "a");
        let (first, hit_first) = cache.get_or_build(&ds);
        assert!(!hit_first, "first lookup must build");
        // Same content under a different name: still a hit on the same entry.
        let renamed = dataset(6, 3, "same-content-different-name");
        let (second, hit_second) = cache.get_or_build(&renamed);
        assert!(hit_second, "second lookup must hit");
        assert!(Arc::ptr_eq(&first.precedence, &second.precedence));
        assert!(Arc::ptr_eq(&first.groups, &second.groups));
        assert!(Arc::ptr_eq(&first.consensus, &second.consensus));
        let stats = cache.stats();
        assert_eq!(stats.lookups, 2);
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.builds, 1);
        assert_eq!(stats.entries, 1);
    }

    #[test]
    fn distinct_datasets_get_distinct_entries() {
        let cache = PrecedenceCache::new();
        let (_, hit_a) = cache.get_or_build(&dataset(6, 3, "a"));
        let (_, hit_b) = cache.get_or_build(&dataset(8, 3, "b"));
        assert!(!hit_a && !hit_b);
        let stats = cache.stats();
        assert_eq!(stats.builds, 2);
        assert_eq!(stats.entries, 2);
        cache.clear();
        assert_eq!(cache.stats().entries, 0);
        assert_eq!(cache.stats().matrix_bytes, 0);
    }

    /// The dataset that results from appending `extra` to `parent`'s profile
    /// (sharing the candidate database Arc, as the service PATCH path does).
    fn appended(parent: &EngineDataset, extra: Ranking, name: &str) -> EngineDataset {
        let append = RankingDelta::Append {
            ranking: extra,
            weight: 1,
        };
        let profile = parent.profile().edited(&[append]).unwrap();
        EngineDataset::from_arcs(name, Arc::clone(parent.db()), Arc::new(profile)).unwrap()
    }

    #[test]
    fn derive_folds_appends_without_a_full_build() {
        let cache = PrecedenceCache::new();
        let parent = dataset(6, 3, "p");
        cache.get_or_build(&parent);
        let extra = Ranking::identity(6).reversed();
        let child = appended(&parent, extra.clone(), "p+1");
        let deltas = [RankingDelta::Append {
            ranking: extra,
            weight: 1,
        }];
        let (derived, warm) = cache.derive_with(&parent, &child, &deltas, &Parallelism::serial());
        assert!(warm, "derivation must not rebuild");
        let stats = cache.stats();
        assert_eq!(stats.builds, 1, "no full rebuild for the child");
        assert_eq!(stats.delta_appends, 1);
        assert_eq!(stats.delta_rebuild_fallbacks, 0);
        assert_eq!(stats.entries, 2);
        // Two installed triangles of 6·5/2 four-byte cells.
        assert_eq!(stats.matrix_bytes, 2 * 15 * 4);
        // Bit-identical to building the child's matrix from scratch, and the
        // group index is shared with the parent (same database).
        assert_eq!(
            *derived.precedence,
            child
                .profile()
                .precedence_matrix_with(&Parallelism::serial())
        );
        let (parent_artifacts, _) = cache.get_or_build(&parent);
        assert!(Arc::ptr_eq(&derived.groups, &parent_artifacts.groups));
        // The parent's base consensus rankings do not carry over.
        assert!(!Arc::ptr_eq(
            &derived.consensus,
            &parent_artifacts.consensus
        ));
        // The child entry is warm: the next lookup is a hit on the same Arcs.
        let (hit, was_hit) = cache.get_or_build(&child);
        assert!(was_hit);
        assert!(Arc::ptr_eq(&hit.precedence, &derived.precedence));
        assert!(Arc::ptr_eq(&hit.consensus, &derived.consensus));
    }

    #[test]
    fn derive_retract_round_trips_to_the_parent_matrix() {
        let cache = PrecedenceCache::new();
        let parent = dataset(6, 3, "p");
        let extra = Ranking::identity(6).reversed();
        let child = appended(&parent, extra.clone(), "p+1");
        let (child_artifacts, _) = cache.get_or_build(&child);
        let deltas = [RankingDelta::Retract {
            ranking: extra,
            weight: 1,
        }];
        let (derived, warm) = cache.derive_with(&child, &parent, &deltas, &Parallelism::serial());
        assert!(warm);
        assert_eq!(cache.stats().delta_retracts, 1);
        assert_eq!(cache.stats().builds, 1);
        assert_eq!(
            *derived.precedence,
            parent
                .profile()
                .precedence_matrix_with(&Parallelism::serial())
        );
        assert!(Arc::ptr_eq(&derived.groups, &child_artifacts.groups));
    }

    #[test]
    fn derive_without_a_warm_parent_falls_back_to_a_rebuild() {
        let cache = PrecedenceCache::new();
        let parent = dataset(6, 3, "cold");
        let extra = Ranking::identity(6).reversed();
        let child = appended(&parent, extra.clone(), "cold+1");
        let deltas = [RankingDelta::Append {
            ranking: extra,
            weight: 1,
        }];
        let (derived, warm) = cache.derive_with(&parent, &child, &deltas, &Parallelism::serial());
        assert!(!warm, "cold parent must fall back");
        let stats = cache.stats();
        assert_eq!(stats.delta_rebuild_fallbacks, 1);
        assert_eq!(stats.delta_appends, 0);
        assert_eq!(stats.builds, 1, "the fallback is a full build");
        assert_eq!(
            *derived.precedence,
            child
                .profile()
                .precedence_matrix_with(&Parallelism::serial())
        );
    }

    #[test]
    fn derive_with_an_inapplicable_retract_falls_back() {
        let cache = PrecedenceCache::new();
        let parent = dataset(6, 3, "p");
        cache.get_or_build(&parent);
        // Retracting a ranking the (unanimous identity) profile cannot cover
        // underflows the matrix, so the derivation must rebuild instead.
        let absent = Ranking::identity(6).reversed();
        let survivors = RankingProfile::new(vec![Ranking::identity(6); 2]).unwrap();
        let child =
            EngineDataset::from_arcs("p-1", Arc::clone(parent.db()), Arc::new(survivors)).unwrap();
        let deltas = [RankingDelta::Retract {
            ranking: absent,
            weight: 1,
        }];
        let (derived, warm) = cache.derive_with(&parent, &child, &deltas, &Parallelism::serial());
        assert!(!warm);
        assert_eq!(cache.stats().delta_rebuild_fallbacks, 1);
        assert_eq!(cache.stats().builds, 2);
        assert_eq!(
            *derived.precedence,
            child
                .profile()
                .precedence_matrix_with(&Parallelism::serial())
        );
    }

    #[test]
    fn concurrent_lookups_build_exactly_once() {
        let cache = Arc::new(PrecedenceCache::new());
        let ds = Arc::new(dataset(20, 10, "shared"));
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let cache = cache.clone();
                let ds = ds.clone();
                std::thread::spawn(move || cache.get_or_build(&ds).0)
            })
            .collect();
        let artifacts: Vec<SharedArtifacts> =
            handles.into_iter().map(|h| h.join().unwrap()).collect();
        assert_eq!(
            cache.stats().builds,
            1,
            "racing threads must share one build"
        );
        for pair in artifacts.windows(2) {
            assert!(Arc::ptr_eq(&pair[0].precedence, &pair[1].precedence));
            assert!(Arc::ptr_eq(&pair[0].groups, &pair[1].groups));
        }
    }

    #[test]
    fn racing_lookups_count_every_non_builder_as_a_hit() {
        const THREADS: usize = 8;
        let cache = Arc::new(PrecedenceCache::new());
        let ds = Arc::new(dataset(60, 40, "cold"));
        let start = Arc::new(std::sync::Barrier::new(THREADS));
        let handles: Vec<_> = (0..THREADS)
            .map(|_| {
                let (cache, ds, start) = (cache.clone(), ds.clone(), start.clone());
                std::thread::spawn(move || {
                    start.wait();
                    cache.get_or_build(&ds).1
                })
            })
            .collect();
        let hit_flags: Vec<bool> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        let stats = cache.stats();
        assert_eq!(stats.builds, 1, "racing threads must share one build");
        assert_eq!(stats.lookups, THREADS as u64);
        assert_eq!(stats.hits + stats.builds, stats.lookups);
        assert_eq!(
            hit_flags.iter().filter(|hit| !**hit).count(),
            1,
            "only the builder reports a miss: {hit_flags:?}"
        );
    }
}
