//! Reusable dense scratch space for PROBE traversals.
//!
//! A probe touches a per-level frontier of (node, score) pairs. The paper's
//! pseudo-code uses hash sets; we use the classic dense-array-with-
//! version-stamps trick instead: O(1) insert/lookup with no hashing and no
//! O(n) clearing between levels (clearing bumps a version counter). One
//! [`ProbeWorkspace`] is allocated per query (O(n)) and reused across all
//! `nr · E\[ℓ\]` probes, which is where most of ProbeSim's practical speed
//! over a naive hash-map implementation comes from.

use probesim_graph::NodeId;

use crate::budget::ProbeBudget;

/// One frontier level: a sparse set of nodes with f64 scores backed by
/// dense arrays.
#[derive(Debug, Clone)]
pub struct LevelBuf {
    score: Vec<f64>,
    stamp: Vec<u32>,
    version: u32,
    nodes: Vec<NodeId>,
}

impl LevelBuf {
    /// A buffer for node ids `0..n`.
    pub fn new(n: usize) -> Self {
        LevelBuf {
            score: vec![0.0; n],
            stamp: vec![0; n],
            version: 0,
            nodes: Vec::new(),
        }
    }

    /// Removes all entries in O(1) amortized (version bump).
    pub fn clear(&mut self) {
        self.nodes.clear();
        // On wrap-around, fall back to a real reset so stale stamps can
        // never alias the new version.
        if self.version == u32::MAX {
            self.version = 0;
            self.stamp.fill(0);
        }
        self.version += 1;
    }

    /// Adds `delta` to `v`'s score, inserting it if absent.
    #[inline]
    pub fn add(&mut self, v: NodeId, delta: f64) {
        let i = v as usize;
        if self.stamp[i] == self.version {
            self.score[i] += delta;
        } else {
            self.stamp[i] = self.version;
            self.score[i] = delta;
            self.nodes.push(v);
        }
    }

    /// Inserts `v` with an exact score, overwriting any previous value.
    #[inline]
    pub fn set(&mut self, v: NodeId, value: f64) {
        let i = v as usize;
        if self.stamp[i] != self.version {
            self.stamp[i] = self.version;
            self.nodes.push(v);
        }
        self.score[i] = value;
    }

    /// Membership test.
    #[inline]
    pub fn contains(&self, v: NodeId) -> bool {
        self.stamp[v as usize] == self.version
    }

    /// The score of `v`, or 0.0 when absent.
    #[inline]
    pub fn get(&self, v: NodeId) -> f64 {
        let i = v as usize;
        if self.stamp[i] == self.version {
            self.score[i]
        } else {
            0.0
        }
    }

    /// The nodes currently in the set, in insertion order. May contain
    /// entries whose score was later zeroed with [`LevelBuf::set`]; PROBE
    /// filters by score where that matters.
    #[inline]
    pub fn nodes(&self) -> &[NodeId] {
        &self.nodes
    }

    /// Number of entries.
    #[inline]
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when no entries are present.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Drops entries that fail `keep`, compacting the node list.
    pub fn retain<F: FnMut(NodeId, f64) -> bool>(&mut self, mut keep: F) {
        let score = &self.score;
        let stamp = &mut self.stamp;
        let version = self.version;
        self.nodes.retain(|&v| {
            let ok = keep(v, score[v as usize]);
            if !ok {
                // Un-stamp so `contains`/`get` agree with the node list.
                stamp[v as usize] = version.wrapping_sub(1);
            }
            ok
        });
    }
}

/// Pooled storage for the fused probe engine's per-trie-node frontiers
/// ([`crate::frontier`]).
///
/// A fused sweep stores one weighted frontier per trie node: the mass
/// that has propagated down to that trie position. Frontiers are spans
/// in one flat arena, indexed per trie node (`spans`), plus the
/// BFS-cursor scratch buffers ([`crate::trie::WalkTrie::bfs_levels`]
/// fills them). Storage is struct-of-arrays: node ids (`u32`) and
/// weights (`f64`) live in separate lanes so the merge loop streams a
/// dense 4-byte id lane instead of 16-byte padded tuples — half the
/// cache traffic on the id side, and the weight lane stays naturally
/// aligned. Everything is `clear()`-reused: after the first few queries
/// warm the capacities up, a query performs **zero heap allocation**
/// here — the same pooling contract as [`LevelBuf`] and the session's
/// sparse accumulator.
#[derive(Debug, Clone, Default)]
pub struct FrontierArena {
    /// Node-id lane of the flat frontier storage; each trie node's
    /// frontier is a contiguous span, parallel to `entry_weights`.
    entry_nodes: Vec<NodeId>,
    /// Weight lane, parallel to `entry_nodes`.
    entry_weights: Vec<f64>,
    /// Per trie node: `(offset, len)` into the entry lanes.
    spans: Vec<(usize, usize)>,
    /// BFS cursor scratch: trie nodes in level order (node lane,
    /// parallel to `order_parents`).
    pub order_nodes: Vec<u32>,
    /// BFS cursor scratch: parent of each entry in `order_nodes`.
    pub order_parents: Vec<u32>,
    /// BFS cursor scratch: level boundaries into the order lanes.
    pub level_starts: Vec<usize>,
}

impl FrontierArena {
    /// An empty arena; capacities grow on first use and are kept.
    pub fn new() -> Self {
        FrontierArena::default()
    }

    /// Resets the arena for a query over a trie with `trie_len` nodes.
    /// O(trie_len), no allocation once capacities are warm.
    pub fn begin_query(&mut self, trie_len: usize) {
        self.entry_nodes.clear();
        self.entry_weights.clear();
        self.spans.clear();
        self.spans.resize(trie_len, (0, 0));
    }

    /// The stored frontier of trie node `idx` as parallel node/weight
    /// lanes (both empty until stored).
    #[inline]
    pub fn span(&self, idx: u32) -> (&[NodeId], &[f64]) {
        let (offset, len) = self.spans[idx as usize];
        (
            &self.entry_nodes[offset..offset + len],
            &self.entry_weights[offset..offset + len],
        )
    }

    /// Stores `level`'s positive entries (in insertion order) as the
    /// frontier of trie node `idx`.
    pub fn store(&mut self, idx: u32, level: &LevelBuf) {
        let offset = self.entry_nodes.len();
        for &v in level.nodes() {
            let score = level.get(v);
            if score > 0.0 {
                self.entry_nodes.push(v);
                self.entry_weights.push(score);
            }
        }
        self.spans[idx as usize] = (offset, self.entry_nodes.len() - offset);
    }
}

/// Double-buffered frontier pair for a probe traversal.
#[derive(Debug, Clone)]
pub struct ProbeWorkspace {
    /// Current level `H_j`.
    pub current: LevelBuf,
    /// Next level `H_{j+1}`.
    pub next: LevelBuf,
    /// Per-trie-node frontier slabs for the fused probe engine; empty
    /// (and allocation-free) while only the per-prefix paths run.
    pub frontier: FrontierArena,
    /// The active query's cancellation budget, checked by the probe
    /// engines between expansions. Unlimited unless the caller armed one
    /// (`QuerySession::run_with_budget`); carrying it here keeps the
    /// probe signatures free of an extra threading parameter.
    pub budget: ProbeBudget,
}

impl ProbeWorkspace {
    /// Workspace for node ids `0..n`.
    pub fn new(n: usize) -> Self {
        ProbeWorkspace {
            current: LevelBuf::new(n),
            next: LevelBuf::new(n),
            frontier: FrontierArena::new(),
            budget: ProbeBudget::unlimited(),
        }
    }

    /// Clears both levels.
    pub fn reset(&mut self) {
        self.current.clear();
        self.next.clear();
    }

    /// Makes the freshly-built next level current and clears the old one.
    pub fn advance(&mut self) {
        std::mem::swap(&mut self.current, &mut self.next);
        self.next.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_accumulates() {
        let mut b = LevelBuf::new(4);
        b.clear();
        b.add(2, 0.5);
        b.add(2, 0.25);
        b.add(0, 1.0);
        assert_eq!(b.get(2), 0.75);
        assert_eq!(b.get(0), 1.0);
        assert_eq!(b.get(1), 0.0);
        assert_eq!(b.len(), 2);
    }

    #[test]
    fn clear_is_logical_not_physical() {
        let mut b = LevelBuf::new(2);
        b.clear();
        b.add(1, 3.0);
        b.clear();
        assert!(!b.contains(1));
        assert_eq!(b.get(1), 0.0);
        assert!(b.is_empty());
        b.add(1, 1.0);
        assert_eq!(b.get(1), 1.0);
    }

    #[test]
    fn set_overwrites() {
        let mut b = LevelBuf::new(3);
        b.clear();
        b.add(1, 0.5);
        b.set(1, 0.1);
        assert_eq!(b.get(1), 0.1);
        assert_eq!(b.len(), 1);
    }

    #[test]
    fn retain_filters_and_unstamps() {
        let mut b = LevelBuf::new(5);
        b.clear();
        for v in 0..5 {
            b.add(v, v as f64 / 10.0);
        }
        b.retain(|_, s| s >= 0.2);
        assert_eq!(b.len(), 3);
        assert!(!b.contains(0));
        assert!(!b.contains(1));
        assert!(b.contains(4));
        assert_eq!(b.get(1), 0.0);
    }

    #[test]
    fn workspace_advance_swaps_levels() {
        let mut ws = ProbeWorkspace::new(3);
        ws.reset();
        ws.next.add(1, 0.5);
        ws.advance();
        assert!(ws.current.contains(1));
        assert!(ws.next.is_empty());
    }

    #[test]
    fn frontier_arena_stores_and_reuses_spans() {
        let mut arena = FrontierArena::new();
        arena.begin_query(3);
        assert!(arena.span(0).0.is_empty());
        let mut buf = LevelBuf::new(8);
        buf.clear();
        buf.add(5, 0.5);
        buf.add(2, 0.25);
        buf.set(7, 0.0); // zeroed entries are dropped at store time
        arena.store(1, &buf);
        assert_eq!(arena.span(1), (&[5u32, 2][..], &[0.5f64, 0.25][..]));
        buf.clear();
        buf.add(3, 1.0);
        arena.store(2, &buf);
        assert_eq!(arena.span(2), (&[3u32][..], &[1.0f64][..]));
        assert_eq!(arena.span(1), (&[5u32, 2][..], &[0.5f64, 0.25][..]));
        // A new query resets every span.
        arena.begin_query(2);
        assert!(arena.span(1).0.is_empty());
    }

    #[test]
    fn version_wraparound_resets_cleanly() {
        let mut b = LevelBuf::new(2);
        b.version = u32::MAX - 1;
        b.clear(); // -> MAX
        b.add(0, 1.0);
        b.clear(); // wraps to 1 with full stamp reset
        assert!(!b.contains(0));
        b.add(1, 2.0);
        assert!(b.contains(1));
        assert_eq!(b.get(0), 0.0);
    }
}
