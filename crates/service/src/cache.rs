//! The `(version, source)`-keyed LRU result cache.
//!
//! ## Why the key is sound
//!
//! The cache maps `(snapshot version, source node) → Arc<QueryOutput>`.
//! Two store states with equal versions carry identical edge sets (the
//! `GraphStore` invariant, proven bit-for-bit by the churn tests), and a
//! query's execution is a pure function of `(edge set, config, seed,
//! source)`: the per-query RNG stream is derived from the source alone,
//! and every query kind computes the same sparse single-source scores.
//! `TopK` and `Threshold` are views over those scores
//! ([`QueryOutput::ranking`]), so one entry answers all three kinds for
//! its source. A hit is therefore **bit-identical to a fresh execution
//! of the requested query at the pinned version by construction**, not
//! by comparison; the soundness tests re-derive hits from scratch and
//! `to_bits`-compare anyway, cross-kind hits included.
//!
//! Queries are validated before the lookup (see the service), so an
//! invalid shape such as `TopK { k: 0 }` never reaches a shared entry.
//!
//! ## Invalidation
//!
//! Entries for a version never become *wrong* — the version pins them —
//! they become *unreachable*: once a version leaves the service's
//! snapshot-retention window, no request can resolve to it, so its
//! entries are dead weight. `QueryService::commit` calls
//! [`ResultCache::invalidate_below`] on every effective mutation, keyed
//! off the new version, so memory is bounded by `capacity` *live*
//! entries even under heavy churn. `Latest` consistency needs no
//! invalidation at all: a mutation bumps the version, and the bumped
//! version simply never matches a stale key.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use probesim_core::{Query, QueryOutput};
use probesim_graph::{FxHashMap, NodeId};

/// `(snapshot version, source node)`.
type Key = (u64, NodeId);

const NIL: usize = usize::MAX;

struct Entry {
    key: Key,
    value: Arc<QueryOutput>,
    prev: usize,
    next: usize,
}

#[derive(Default)]
struct LruInner {
    map: FxHashMap<Key, usize>,
    slots: Vec<Option<Entry>>,
    free: Vec<usize>,
    /// Most recently used.
    head: usize,
    /// Least recently used.
    tail: usize,
    /// Lower bound on the smallest resident version (`u64::MAX` when
    /// empty). Inserts lower it; removals never raise it, so it may be
    /// stale-low — which only costs an unnecessary scan, never a missed
    /// invalidation. [`ResultCache::invalidate_below`] early-returns on
    /// it, making the writer-side per-mutation call O(1) in the common
    /// case (nothing below the floor) and recomputes it exactly after a
    /// dropping scan.
    min_version: u64,
}

impl LruInner {
    fn new() -> LruInner {
        LruInner {
            map: FxHashMap::default(),
            slots: Vec::new(),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
            min_version: u64::MAX,
        }
    }

    fn detach(&mut self, i: usize) {
        let (prev, next) = {
            let e = self.slots[i]
                .as_ref()
                .expect("invariant: detached slots are live");
            (e.prev, e.next)
        };
        match prev {
            NIL => self.head = next,
            p => {
                self.slots[p]
                    .as_mut()
                    .expect("invariant: list prev points at a live slot")
                    .next = next
            }
        }
        match next {
            NIL => self.tail = prev,
            n => {
                self.slots[n]
                    .as_mut()
                    .expect("invariant: list next points at a live slot")
                    .prev = prev
            }
        }
    }

    fn push_front(&mut self, i: usize) {
        {
            let e = self.slots[i]
                .as_mut()
                .expect("invariant: pushed slots are live");
            e.prev = NIL;
            e.next = self.head;
        }
        match self.head {
            NIL => self.tail = i,
            h => {
                self.slots[h]
                    .as_mut()
                    .expect("invariant: list head points at a live slot")
                    .prev = i
            }
        }
        self.head = i;
    }

    fn remove_slot(&mut self, i: usize) -> Entry {
        self.detach(i);
        let entry = self.slots[i]
            .take()
            .expect("invariant: removed slots are live");
        self.map.remove(&entry.key);
        self.free.push(i);
        entry
    }
}

/// A thread-safe LRU cache of query outputs keyed by
/// `(snapshot version, source node)`.
///
/// Hit/miss/invalidation counters are lock-free reads; the map + recency
/// list sit behind one mutex (operations are O(1), the lock is held for
/// nanoseconds — contention is not a concern next to probe work).
pub struct ResultCache {
    capacity: usize,
    inner: Mutex<LruInner>,
    hits: AtomicU64,
    misses: AtomicU64,
    invalidated: AtomicU64,
}

impl std::fmt::Debug for ResultCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ResultCache")
            .field("capacity", &self.capacity)
            .field("len", &self.len())
            .field("hits", &self.hits())
            .field("misses", &self.misses())
            .field("invalidated", &self.invalidated())
            .finish()
    }
}

impl ResultCache {
    /// A cache holding at most `capacity` entries. `capacity == 0`
    /// disables caching entirely (every `get` misses, `insert` is a
    /// no-op) — the configuration the A/B benchmarks use.
    pub fn new(capacity: usize) -> ResultCache {
        ResultCache {
            capacity,
            inner: Mutex::new(LruInner::new()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            invalidated: AtomicU64::new(0),
        }
    }

    /// Maximum entry count.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Current entry count.
    pub fn len(&self) -> usize {
        self.inner.lock().expect("cache poisoned").map.len()
    }

    /// True when no entry is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Lookups that found an entry.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Lookups that found nothing.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Entries dropped by writer-side invalidation (not LRU eviction).
    pub fn invalidated(&self) -> u64 {
        self.invalidated.load(Ordering::Relaxed)
    }

    /// Answers `query` at `version` from the entry for its source,
    /// refreshing the entry's recency on a hit.
    ///
    /// When the entry was filled by `query` itself, the cached `Arc` is
    /// returned as is. Otherwise the run's scores and counters are
    /// rewrapped under `query`, so [`QueryOutput::query`] and
    /// [`QueryOutput::ranking`] always describe the request. The rewrap
    /// shares the cached scores ([`probesim_core::SparseScores`] clones
    /// are reference-count bumps), so no score is copied.
    pub fn get(&self, version: u64, query: &Query) -> Option<Arc<QueryOutput>> {
        let hit = self.get_hit(version, query);
        if hit.is_none() {
            self.misses.fetch_add(1, Ordering::Relaxed);
        }
        hit
    }

    /// [`ResultCache::get`] that counts a hit but never a miss: for a
    /// caller that, on a miss, goes on to a later `get` which counts it.
    /// The service's caller-side lookup uses it, so `hits + misses`
    /// still grows by exactly one per request.
    pub fn get_hit(&self, version: u64, query: &Query) -> Option<Arc<QueryOutput>> {
        let cached = self.lookup((version, query.node()))?;
        self.hits.fetch_add(1, Ordering::Relaxed);
        if cached.query == *query {
            return Some(cached);
        }
        Some(Arc::new(QueryOutput {
            query: *query,
            scores: cached.scores.clone(),
            stats: cached.stats,
        }))
    }

    fn lookup(&self, key: Key) -> Option<Arc<QueryOutput>> {
        if self.capacity == 0 {
            return None;
        }
        let mut inner = self.inner.lock().expect("cache poisoned");
        let i = inner.map.get(&key).copied()?;
        inner.detach(i);
        inner.push_front(i);
        Some(Arc::clone(
            &inner.slots[i]
                .as_ref()
                .expect("invariant: map hits point at live slots")
                .value,
        ))
    }

    /// Inserts (or refreshes) the entry for `value`'s source at
    /// `version`, evicting the least-recently-used entry when full.
    pub fn insert(&self, version: u64, value: Arc<QueryOutput>) {
        if self.capacity == 0 {
            return;
        }
        let key = (version, value.scores.query());
        let mut inner = self.inner.lock().expect("cache poisoned");
        if let Some(i) = inner.map.get(&key).copied() {
            inner.detach(i);
            inner.slots[i]
                .as_mut()
                .expect("invariant: refreshed keys point at live slots")
                .value = value;
            inner.push_front(i);
            return;
        }
        if inner.map.len() >= self.capacity {
            let lru = inner.tail;
            debug_assert_ne!(lru, NIL, "nonzero capacity with a full map has a tail");
            inner.remove_slot(lru);
        }
        let entry = Entry {
            key,
            value,
            prev: NIL,
            next: NIL,
        };
        let slot = match inner.free.pop() {
            Some(i) => {
                inner.slots[i] = Some(entry);
                i
            }
            None => {
                inner.slots.push(Some(entry));
                inner.slots.len() - 1
            }
        };
        inner.map.insert(key, slot);
        inner.push_front(slot);
        inner.min_version = inner.min_version.min(version);
    }

    /// Drops every entry whose version is below `floor` — the
    /// writer-side invalidation `QueryService::commit` runs after each
    /// effective mutation. Returns how many entries were dropped.
    pub fn invalidate_below(&self, floor: u64) -> usize {
        if self.capacity == 0 {
            return 0;
        }
        let mut inner = self.inner.lock().expect("cache poisoned");
        // Common case (the writer calls this on *every* effective mutation,
        // but the floor only reaches resident versions once they age out
        // of the retention window): nothing below the floor — O(1), no
        // scan, no allocation, mutex released in nanoseconds.
        if inner.min_version >= floor {
            return 0;
        }
        let mut stale: Vec<usize> = inner
            .map
            .iter()
            .filter(|(&(version, _), _)| version < floor)
            .map(|(_, &i)| i)
            .collect();
        // The map iterates in hash order; sort so the free list (and
        // therefore future slot reuse) is independent of it.
        stale.sort_unstable();
        let dropped = stale.len();
        for i in stale {
            inner.remove_slot(i);
        }
        inner.min_version = inner
            .map
            .keys()
            .map(|&(version, _)| version)
            .min()
            .unwrap_or(u64::MAX);
        self.invalidated
            .fetch_add(dropped as u64, Ordering::Relaxed);
        dropped
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use probesim_core::{ProbeSim, ProbeSimConfig};
    use probesim_graph::toy::{toy_graph, TOY_DECAY};

    /// A real single-source output for `node` under engine seed `seed`.
    fn run(node: NodeId, seed: u64) -> Arc<QueryOutput> {
        let engine = ProbeSim::new(ProbeSimConfig::new(TOY_DECAY, 0.2, 0.1).with_seed(seed));
        Arc::new(
            engine
                .session(&toy_graph())
                .run(Query::SingleSource { node: node % 8 })
                .unwrap(),
        )
    }

    fn output(node: NodeId) -> Arc<QueryOutput> {
        run(node, 1)
    }

    fn q(node: NodeId) -> Query {
        Query::SingleSource { node: node % 8 }
    }

    #[test]
    fn get_insert_roundtrip_and_counters() {
        let cache = ResultCache::new(4);
        assert!(cache.get(1, &q(0)).is_none());
        cache.insert(1, output(0));
        let hit = cache.get(1, &q(0)).expect("hit");
        assert_eq!(hit.scores.query(), 0);
        assert_eq!((cache.hits(), cache.misses()), (1, 1));
        assert_eq!(cache.len(), 1);
        assert!(!cache.is_empty());
    }

    #[test]
    fn version_is_part_of_the_key() {
        let cache = ResultCache::new(4);
        cache.insert(1, output(0));
        assert!(cache.get(2, &q(0)).is_none(), "bumped version never hits");
        assert!(cache.get(1, &q(0)).is_some());
    }

    #[test]
    fn query_kinds_of_one_source_share_one_entry() {
        let cache = ResultCache::new(8);
        let filled = output(0);
        cache.insert(1, Arc::clone(&filled));
        // The filling kind gets the cached Arc back untouched.
        let same = cache.get(1, &q(0)).expect("hit");
        assert!(Arc::ptr_eq(&same, &filled));
        // Every other kind and parameter hits the same entry, rewrapped
        // so the output describes the request.
        for query in [
            Query::TopK { node: 0, k: 3 },
            Query::TopK { node: 0, k: 6 },
            Query::Threshold { node: 0, tau: 0.0 },
            Query::Threshold { node: 0, tau: 0.25 },
        ] {
            let hit = cache.get(1, &query).expect("cross-kind hit");
            assert_eq!(hit.query, query);
            assert_eq!(hit.scores, filled.scores);
            assert_eq!(hit.stats, filled.stats);
        }
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.hits(), 5);
        // A different source is a different entry.
        assert!(cache.get(1, &Query::TopK { node: 1, k: 3 }).is_none());
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let cache = ResultCache::new(2);
        cache.insert(1, output(0));
        cache.insert(1, output(1));
        // Touch 0 so 1 becomes the LRU entry.
        assert!(cache.get(1, &q(0)).is_some());
        cache.insert(1, output(2));
        assert_eq!(cache.len(), 2);
        assert!(cache.get(1, &q(1)).is_none(), "LRU entry evicted");
        assert!(cache.get(1, &q(0)).is_some());
        assert!(cache.get(1, &q(2)).is_some());
    }

    #[test]
    fn reinsert_refreshes_value_and_recency() {
        let cache = ResultCache::new(2);
        cache.insert(1, output(0));
        cache.insert(1, output(1));
        let refreshed = run(0, 7);
        cache.insert(1, Arc::clone(&refreshed)); // refresh, not duplicate
        assert_eq!(cache.len(), 2);
        assert!(Arc::ptr_eq(&cache.get(1, &q(0)).unwrap(), &refreshed));
        cache.insert(1, output(2));
        assert!(cache.get(1, &q(1)).is_none(), "1 was the LRU after refresh");
    }

    #[test]
    fn invalidate_below_drops_old_versions_only() {
        let cache = ResultCache::new(8);
        for version in 1..=4 {
            cache.insert(version, output(0));
        }
        assert_eq!(cache.len(), 4);
        assert_eq!(cache.invalidate_below(3), 2);
        assert_eq!(cache.invalidated(), 2);
        assert_eq!(cache.len(), 2);
        assert!(cache.get(1, &q(0)).is_none());
        assert!(cache.get(2, &q(0)).is_none());
        assert!(cache.get(3, &q(0)).is_some());
        assert!(cache.get(4, &q(0)).is_some());
        // Eviction still consistent after invalidation freed slots.
        for node in 0..8 {
            cache.insert(5, output(node));
        }
        assert_eq!(cache.len(), 8);
    }

    #[test]
    fn invalidate_below_fast_path_tracks_the_version_floor() {
        let cache = ResultCache::new(8);
        cache.insert(5, output(0));
        cache.insert(7, output(1));
        // Floor at or below the minimum resident version: O(1) no-op.
        assert_eq!(cache.invalidate_below(5), 0);
        assert_eq!(cache.len(), 2);
        // A dropping scan recomputes the floor exactly, so the next
        // same-floor call is a no-op again.
        assert_eq!(cache.invalidate_below(6), 1);
        assert_eq!(cache.invalidate_below(7), 0);
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.invalidate_below(8), 1);
        assert_eq!(cache.len(), 0);
        assert_eq!(cache.invalidate_below(u64::MAX), 0, "empty cache no-op");
        // Inserting after a full purge restores tracking.
        cache.insert(9, output(2));
        assert_eq!(cache.invalidate_below(9), 0);
        assert_eq!(cache.invalidate_below(10), 1);
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let cache = ResultCache::new(0);
        cache.insert(1, output(0));
        assert!(cache.get(1, &q(0)).is_none());
        assert_eq!(cache.len(), 0);
        assert_eq!(cache.invalidate_below(10), 0);
        assert_eq!(cache.misses(), 1);
    }

    #[test]
    fn stress_interleaved_ops_keep_the_structure_consistent() {
        // Deterministic churn across insert/get/invalidate with a tiny
        // capacity: every operation must keep map, list and free-list in
        // agreement (exercised indirectly through len/hit behavior).
        let outputs: Vec<Arc<QueryOutput>> = (0..7).map(output).collect();
        let cache = ResultCache::new(3);
        for round in 0u64..50 {
            let version = round / 5;
            cache.insert(version, Arc::clone(&outputs[(round % 7) as usize]));
            let _ = cache.get(version, &q((round % 3) as NodeId));
            if round % 11 == 0 {
                cache.invalidate_below(version);
            }
            assert!(cache.len() <= 3);
        }
    }
}
