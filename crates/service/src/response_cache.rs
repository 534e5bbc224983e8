//! LRU response cache over `(dataset fingerprint, thresholds, method, budget)`.
//!
//! Sits *above* the engine's [`mani_engine::PrecedenceCache`]: the precedence
//! cache shares the `O(n²·|R|)` matrix between methods of one dataset, while
//! this cache memoizes entire **method outcomes** (as rendered JSON values), so
//! a replayed request is served in `O(1)` without touching the engine at all —
//! no queue slot, no worker task, no matrix build, no solve.
//!
//! Eviction is least-recently-used with a fixed entry capacity, implemented as
//! a hash map into a slab of nodes threaded on an intrusive doubly-linked
//! recency list — `get`, `insert`, and eviction are all `O(1)`. (The first
//! implementation evicted via an `O(capacity)` full-map minimum scan *while
//! holding the global mutex*: at the default 1024-entry capacity every miss
//! under churn stalled all concurrent connection workers behind that scan.)

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use mani_core::MethodKind;
use mani_engine::ConsensusRequest;
use serde::Value;

/// Entry capacity used when a [`ResponseCache`] is built with capacity `0`.
pub const DEFAULT_RESPONSE_CACHE_CAPACITY: usize = 1024;

/// Canonical response-cache key for one method of `request`: dataset
/// content fingerprint + serialized thresholds + method + budget. Two
/// requests with identical content collide on purpose, whatever their
/// dataset display names.
pub fn cache_key(request: &ConsensusRequest, method: MethodKind) -> String {
    let thresholds = serde_json::to_string(&request.thresholds)
        .expect("shim serialization of thresholds cannot fail");
    format!(
        "{:016x}|{}|{}|{:?}",
        request.dataset.fingerprint(),
        thresholds,
        method.name(),
        request.budget
    )
}

/// Effectiveness counters of a [`ResponseCache`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ResponseCacheStats {
    /// Maximum number of entries held at once.
    pub capacity: usize,
    /// Entries currently held.
    pub entries: usize,
    /// Lookups that found a value.
    pub hits: u64,
    /// Lookups that found nothing.
    pub misses: u64,
    /// Values stored.
    pub insertions: u64,
    /// Entries evicted to respect the capacity.
    pub evictions: u64,
}

/// Sentinel slab index meaning "no node".
const NIL: usize = usize::MAX;

/// One slab slot: the entry plus its recency-list neighbors.
#[derive(Debug)]
struct Node {
    key: String,
    value: Arc<Value>,
    prev: usize,
    next: usize,
}

/// Map + slab + intrusive recency list. `head` is most recent, `tail` least.
#[derive(Debug)]
struct Inner {
    map: HashMap<String, usize>,
    nodes: Vec<Option<Node>>,
    free: Vec<usize>,
    head: usize,
    tail: usize,
}

impl Inner {
    fn new() -> Self {
        Self {
            map: HashMap::new(),
            nodes: Vec::new(),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
        }
    }

    fn node(&self, slot: usize) -> &Node {
        self.nodes[slot].as_ref().expect("live LRU slot")
    }

    fn node_mut(&mut self, slot: usize) -> &mut Node {
        self.nodes[slot].as_mut().expect("live LRU slot")
    }

    /// Unlinks `slot` from the recency list (it stays in the slab).
    fn detach(&mut self, slot: usize) {
        let (prev, next) = {
            let node = self.node(slot);
            (node.prev, node.next)
        };
        match prev {
            NIL => self.head = next,
            p => self.node_mut(p).next = next,
        }
        match next {
            NIL => self.tail = prev,
            n => self.node_mut(n).prev = prev,
        }
    }

    /// Links `slot` in as the most-recently-used node.
    fn push_front(&mut self, slot: usize) {
        let old_head = self.head;
        {
            let node = self.node_mut(slot);
            node.prev = NIL;
            node.next = old_head;
        }
        match old_head {
            NIL => self.tail = slot,
            h => self.node_mut(h).prev = slot,
        }
        self.head = slot;
    }

    fn touch(&mut self, slot: usize) {
        if self.head != slot {
            self.detach(slot);
            self.push_front(slot);
        }
    }

    /// Removes the least-recently-used node, returning its slot to the free
    /// list. No-op on an empty cache.
    fn evict_tail(&mut self) -> bool {
        let slot = self.tail;
        if slot == NIL {
            return false;
        }
        self.detach(slot);
        let node = self.nodes[slot].take().expect("live LRU tail");
        self.map.remove(&node.key);
        self.free.push(slot);
        true
    }

    fn allocate(&mut self, node: Node) -> usize {
        match self.free.pop() {
            Some(slot) => {
                self.nodes[slot] = Some(node);
                slot
            }
            None => {
                self.nodes.push(Some(node));
                self.nodes.len() - 1
            }
        }
    }
}

/// A thread-safe LRU cache from canonical request keys to rendered outcomes.
#[derive(Debug)]
pub struct ResponseCache {
    inner: Mutex<Inner>,
    capacity: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    insertions: AtomicU64,
    evictions: AtomicU64,
}

impl ResponseCache {
    /// A cache bounded to `capacity` entries (`0` means
    /// [`DEFAULT_RESPONSE_CACHE_CAPACITY`]).
    pub fn new(capacity: usize) -> Self {
        let capacity = if capacity == 0 {
            DEFAULT_RESPONSE_CACHE_CAPACITY
        } else {
            capacity
        };
        Self {
            inner: Mutex::new(Inner::new()),
            capacity,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            insertions: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// The configured entry bound.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Looks a key up, refreshing its recency on a hit. `O(1)`.
    pub fn get(&self, key: &str) -> Option<Arc<Value>> {
        let mut inner = self.inner.lock().expect("response cache lock poisoned");
        match inner.map.get(key).copied() {
            Some(slot) => {
                inner.touch(slot);
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(Arc::clone(&inner.node(slot).value))
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Stores a value, evicting the least-recently-used entry when the
    /// capacity would be exceeded. `O(1)` — no scans under the lock.
    pub fn insert(&self, key: impl Into<String>, value: Arc<Value>) {
        let key = key.into();
        let mut inner = self.inner.lock().expect("response cache lock poisoned");
        self.insertions.fetch_add(1, Ordering::Relaxed);
        if let Some(slot) = inner.map.get(&key).copied() {
            inner.node_mut(slot).value = value;
            inner.touch(slot);
            return;
        }
        if inner.map.len() >= self.capacity && inner.evict_tail() {
            self.evictions.fetch_add(1, Ordering::Relaxed);
        }
        let slot = inner.allocate(Node {
            key: key.clone(),
            value,
            prev: NIL,
            next: NIL,
        });
        inner.map.insert(key, slot);
        inner.push_front(slot);
    }

    /// Current effectiveness counters.
    pub fn stats(&self) -> ResponseCacheStats {
        ResponseCacheStats {
            capacity: self.capacity,
            entries: self
                .inner
                .lock()
                .expect("response cache lock poisoned")
                .map
                .len(),
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            insertions: self.insertions.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn value(tag: u64) -> Arc<Value> {
        Arc::new(Value::UInt(tag))
    }

    #[test]
    fn hit_miss_and_stats() {
        let cache = ResponseCache::new(4);
        assert!(cache.get("a").is_none());
        cache.insert("a", value(1));
        let got = cache.get("a").expect("hit");
        assert_eq!(*got, Value::UInt(1));
        let stats = cache.stats();
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.insertions, 1);
        assert_eq!(stats.entries, 1);
        assert_eq!(stats.capacity, 4);
    }

    #[test]
    fn zero_capacity_uses_default() {
        assert_eq!(
            ResponseCache::new(0).capacity(),
            DEFAULT_RESPONSE_CACHE_CAPACITY
        );
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let cache = ResponseCache::new(2);
        cache.insert("a", value(1));
        cache.insert("b", value(2));
        // Touch `a` so `b` is the LRU entry.
        assert!(cache.get("a").is_some());
        cache.insert("c", value(3));
        assert!(cache.get("b").is_none(), "LRU entry was evicted");
        assert!(cache.get("a").is_some());
        assert!(cache.get("c").is_some());
        let stats = cache.stats();
        assert_eq!(stats.entries, 2);
        assert_eq!(stats.evictions, 1);
    }

    #[test]
    fn overwriting_a_key_refreshes_without_evicting() {
        let cache = ResponseCache::new(2);
        cache.insert("a", value(1));
        cache.insert("b", value(2));
        // Overwrite `a`: it becomes most recent; nothing is evicted.
        cache.insert("a", value(10));
        assert_eq!(cache.stats().entries, 2);
        assert_eq!(cache.stats().evictions, 0);
        assert_eq!(*cache.get("a").unwrap(), Value::UInt(10));
        // `b` is now least recent and goes first.
        cache.insert("c", value(3));
        assert!(cache.get("b").is_none());
        assert!(cache.get("a").is_some());
    }

    #[test]
    fn capacity_bounds_entries_under_churn() {
        let cache = ResponseCache::new(8);
        for i in 0..100u64 {
            cache.insert(format!("k{i}"), value(i));
            assert!(cache.stats().entries <= 8, "capacity must bound memory");
        }
        let stats = cache.stats();
        assert_eq!(stats.entries, 8);
        assert_eq!(stats.insertions, 100);
        assert_eq!(stats.evictions, 92);
        // The newest keys survived.
        assert!(cache.get("k99").is_some());
        assert!(cache.get("k0").is_none());
    }

    #[test]
    fn recency_list_survives_interleaved_churn() {
        // Exercise detach/push_front/evict/reuse across a mixed workload and
        // verify against a naive model.
        let capacity = 5usize;
        let cache = ResponseCache::new(capacity);
        let mut model: Vec<u64> = Vec::new(); // most recent first
        for round in 0..400u64 {
            let key = (round * 7 + round / 3) % 23;
            if round % 3 == 0 && model.contains(&key) {
                // Hit path.
                assert!(cache.get(&format!("k{key}")).is_some(), "round {round}");
                model.retain(|k| *k != key);
                model.insert(0, key);
            } else {
                cache.insert(format!("k{key}"), value(round));
                model.retain(|k| *k != key);
                model.insert(0, key);
                model.truncate(capacity);
            }
            // The model's members are exactly the cached members. Probing with
            // `get` perturbs recency identically in both (hits move to front).
            for k in 0..23u64 {
                let cached = cache.get(&format!("k{k}")).is_some();
                let expected = model.contains(&k);
                assert_eq!(cached, expected, "round {round}, key {k}");
                if expected {
                    model.retain(|m| *m != k);
                    model.insert(0, k);
                }
            }
        }
        assert_eq!(cache.stats().entries, capacity);
    }
}
