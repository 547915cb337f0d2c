//! The versioned graph store: single-writer updates, lock-free
//! multi-reader snapshots, inline compaction on the writer.
//!
//! ProbeSim is index-free: a query needs nothing but the current graph.
//! [`GraphStore`] is that graph, the one mutable tier in the workspace.
//! Scripts and tests query it directly between updates (it implements
//! [`GraphView`]); a service answering queries *while* updates stream in
//! needs **readers that never block on the writer**, so the store splits
//! the two roles:
//!
//! * the **writer** owns the store (`&mut self` for
//!   [`GraphStore::apply`] / [`GraphStore::apply_all`]) and mutates a
//!   per-node copy-on-write [`OverlayGraph`] over an immutable
//!   `Arc<CsrGraph>` base;
//! * **readers** hold [`GraphSnapshot`]s — immutable, versioned,
//!   `Arc`-cheap to clone, `Send + Sync`, implementing [`GraphView`] —
//!   published by [`GraphStore::snapshot`] and valid forever, no matter
//!   what the writer does next;
//! * when the touched fraction of the overlay crosses the
//!   [`CompactionPolicy`] threshold, [`GraphStore::apply`] runs
//!   [`GraphStore::compact`] inline, on the writer, which folds the
//!   overlay into a fresh CSR base through the
//!   [`CsrGraph::from_edge_iter`] streaming path. Compaction changes the
//!   representation, never the logical graph: published snapshots keep
//!   their old `Arc`s and the store's [version](GraphStore::version) is
//!   unchanged, so a reader cannot tell a compaction happened.
//!
//! The version is bumped on every *effective* mutation (an insert of a
//! present edge or a removal of an absent one is a no-op), so two
//! snapshots with equal versions carry identical edge sets — the
//! invariant the snapshot-isolation tests pin down bit-for-bit.
//!
//! Publishing freezes the touched rows, which the overlay keeps in
//! 32-row copy-on-write chunks, as two vectors of chunk pointers:
//! touched/32 `Arc` bumps, no row `Arc`s touched and no adjacency data
//! copied (0.3 µs per publish on perfbench's `commit_flood`, where
//! cloning every row `Arc` took 3.2–3.6 µs). A snapshot's first adjacency
//! read builds its dense read index — per node, the out-row slot and the
//! in-row slot with the in-degree, O(n + touched) once — and every later
//! read is a direct index load plus one chunk hop: no emptiness check,
//! no hash probe, and `in_degree` is one load. Snapshots that are never
//! read never pay for the index.

use std::sync::{Arc, OnceLock};

use crate::overlay::{FrozenRows, OverlayGraph};
use crate::view::GraphView;
use crate::{CsrGraph, Edge, NodeId};

/// One edge-level mutation of a [`GraphStore`].
///
/// Update streams — recorded workloads, the sliding-window generators in
/// `probesim-datasets`, benchmark scenarios, the fleet's update log — are
/// sequences of these events, applied with [`GraphStore::apply`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GraphUpdate {
    /// Insert the directed edge `u -> v`.
    Insert {
        /// Edge source.
        u: NodeId,
        /// Edge target.
        v: NodeId,
    },
    /// Remove the directed edge `u -> v`.
    Remove {
        /// Edge source.
        u: NodeId,
        /// Edge target.
        v: NodeId,
    },
}

impl GraphUpdate {
    /// The `(source, target)` endpoints of the affected edge.
    #[inline]
    pub fn edge(self) -> Edge {
        match self {
            GraphUpdate::Insert { u, v } | GraphUpdate::Remove { u, v } => (u, v),
        }
    }

    /// True for [`GraphUpdate::Insert`].
    #[inline]
    pub fn is_insert(self) -> bool {
        matches!(self, GraphUpdate::Insert { .. })
    }
}

/// When [`GraphStore`] folds its overlay back into a fresh CSR base.
///
/// Publishing a snapshot costs touched/32 chunk-pointer bumps and
/// building a read snapshot's index costs O(n + touched), and both grow
/// with the number of materialized adjacency lists; so does the
/// writer's own memory. A long-running writer should therefore
/// periodically pay one O(n + m) rebuild to fold the overlay back into
/// pure CSR. Compaction triggers after an effective update when
/// **both** bounds are exceeded:
///
/// * `touched_lists >= min_touched_lists` — tiny overlays are cheap no
///   matter the fraction; don't rebuild a 1M-node graph because 10 of
///   its lists were touched, and
/// * `touched_lists > max_touched_fraction * 2n` — the fraction of the
///   `2n` adjacency lists (out + in) that have been materialized.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CompactionPolicy {
    /// Fraction of the `2n` adjacency lists allowed to be materialized
    /// before a rebuild (default 0.25).
    pub max_touched_fraction: f64,
    /// Overlays smaller than this never trigger a rebuild (default 256
    /// lists).
    pub min_touched_lists: usize,
}

impl Default for CompactionPolicy {
    fn default() -> Self {
        CompactionPolicy {
            max_touched_fraction: 0.25,
            min_touched_lists: 256,
        }
    }
}

impl CompactionPolicy {
    /// A policy that never auto-compacts (explicit
    /// [`GraphStore::compact`] still works).
    pub fn disabled() -> Self {
        CompactionPolicy {
            max_touched_fraction: f64::INFINITY,
            min_touched_lists: usize::MAX,
        }
    }

    /// True when an overlay with `touched` materialized lists over an
    /// `n`-node base should be folded down.
    pub fn should_compact(&self, touched: usize, n: usize) -> bool {
        touched >= self.min_touched_lists
            && (touched as f64) > self.max_touched_fraction * (2 * n.max(1)) as f64
    }
}

/// A directed graph under single-writer edge updates, publishing
/// immutable versioned [`GraphSnapshot`]s that any number of reader
/// threads query concurrently.
///
/// # Example
///
/// ```
/// use probesim_graph::{GraphStore, GraphUpdate, GraphView};
///
/// let mut store = GraphStore::new(4);
/// store.apply_all([
///     GraphUpdate::Insert { u: 0, v: 1 },
///     GraphUpdate::Insert { u: 2, v: 1 },
/// ]);
/// let before = store.snapshot();
///
/// // The writer keeps going; `before` is frozen at its version.
/// store.apply(GraphUpdate::Remove { u: 0, v: 1 });
/// let after = store.snapshot();
///
/// assert_eq!(before.in_neighbors(1), &[0, 2]);
/// assert_eq!(after.in_neighbors(1), &[2]);
/// assert!(before.version() < after.version());
/// ```
pub struct GraphStore {
    overlay: OverlayGraph,
    version: u64,
    policy: CompactionPolicy,
    compactions: u64,
    /// The last published snapshot, handed back verbatim while no
    /// mutation or compaction intervenes: a version-unchanged
    /// `snapshot()` is one `Arc` bump instead of two map freezes (the
    /// read-heavy serving pattern publishes far more often than it
    /// writes). Behind a `Mutex` only so `snapshot(&self)` stays shared
    /// and the store stays `Sync`; the writer clears it with
    /// `get_mut` (no locking) before touching the overlay, which also
    /// releases the cache's `Arc`s so COW sees only real snapshot
    /// holders.
    published: std::sync::Mutex<Option<GraphSnapshot>>,
}

/// The receipt a mutation entry point returns (`QueryService::commit`,
/// `Fleet::commit`): the store version after the operation and how many
/// of its events were effective. `version`
/// identifies the exact edge set the write produced (equal version ⇒
/// identical edge set), so it slots directly into
/// `Consistency::AtLeastVersion(commit.version)` for read-your-writes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Commit {
    /// The store version after the operation (unchanged when nothing
    /// was effective).
    pub version: u64,
    /// How many events changed the graph (0 or 1 for single-update
    /// commits).
    pub effective: u64,
}

impl Commit {
    /// Whether at least one event changed the graph.
    pub fn was_effective(&self) -> bool {
        self.effective > 0
    }
}

impl std::fmt::Debug for GraphStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GraphStore")
            .field("overlay", &self.overlay)
            .field("version", &self.version)
            .field("policy", &self.policy)
            .field("compactions", &self.compactions)
            .finish_non_exhaustive()
    }
}

impl Clone for GraphStore {
    fn clone(&self) -> Self {
        GraphStore {
            overlay: self.overlay.clone(),
            version: self.version,
            policy: self.policy,
            compactions: self.compactions,
            // The clone republishes lazily.
            published: std::sync::Mutex::new(None),
        }
    }
}

impl GraphStore {
    /// An empty store with `n` nodes and the default
    /// [`CompactionPolicy`].
    pub fn new(n: usize) -> Self {
        Self::from_csr(CsrGraph::from_edges(n, &[]))
    }

    /// A store whose initial base is `base` (version 0).
    pub fn from_csr(base: CsrGraph) -> Self {
        Self::from_arc(Arc::new(base))
    }

    /// A store whose initial base is `base`, already representing the
    /// state reached at `version` — the checkpoint-recovery
    /// constructor. The next effective mutation produces
    /// `version + 1`, so a replica restored from a checkpoint at LSN
    /// `v` re-joins the log's LSN ≡ version lockstep without replaying
    /// the prefix.
    pub fn from_csr_at(base: CsrGraph, version: u64) -> Self {
        let mut store = Self::from_csr(base);
        store.version = version;
        store
    }

    /// A store sharing an already-`Arc`ed base.
    pub fn from_arc(base: Arc<CsrGraph>) -> Self {
        GraphStore {
            overlay: OverlayGraph::new(base),
            version: 0,
            policy: CompactionPolicy::default(),
            compactions: 0,
            published: std::sync::Mutex::new(None),
        }
    }

    /// Builds the initial base from an edge list (taken as-is, like
    /// [`CsrGraph::from_edges`]: duplicates are *not* removed, so pass
    /// distinct edges or clean them with [`crate::GraphBuilder`]).
    pub fn from_edges(n: usize, edges: &[Edge]) -> Self {
        Self::from_csr(CsrGraph::from_edges(n, edges))
    }

    /// Promotes any [`GraphView`] (a [`CsrGraph`], an [`OverlayGraph`],
    /// a [`GraphSnapshot`], …) to a store by streaming its adjacency into
    /// a fresh CSR base — no intermediate edge `Vec`.
    pub fn from_view<G: GraphView>(graph: &G) -> Self {
        Self::from_csr(CsrGraph::from_edge_iter(
            graph.num_nodes(),
            graph.edges_iter(),
        ))
    }

    /// Replaces the compaction policy.
    pub fn with_policy(mut self, policy: CompactionPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// The active compaction policy.
    pub fn policy(&self) -> CompactionPolicy {
        self.policy
    }

    /// The current version: the number of effective mutations applied
    /// since construction. Compaction does not change it.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// How many compactions have folded the overlay so far.
    pub fn compactions(&self) -> u64 {
        self.compactions
    }

    /// Materialized adjacency lists in the live overlay (see
    /// [`OverlayGraph::touched_lists`]).
    pub fn touched_lists(&self) -> usize {
        self.overlay.touched_lists()
    }

    /// Fraction of the `2n` adjacency lists materialized in the overlay.
    pub fn touched_fraction(&self) -> f64 {
        self.overlay.touched_fraction()
    }

    /// The current base CSR (changes identity on compaction — tests use
    /// this to observe that a fold happened).
    pub fn base(&self) -> &Arc<CsrGraph> {
        self.overlay.base()
    }

    /// Inserts the directed edge `u -> v`; `false` if already present.
    pub fn insert_edge(&mut self, u: NodeId, v: NodeId) -> bool {
        self.apply(GraphUpdate::Insert { u, v })
    }

    /// Removes the directed edge `u -> v`; `false` if absent.
    pub fn remove_edge(&mut self, u: NodeId, v: NodeId) -> bool {
        self.apply(GraphUpdate::Remove { u, v })
    }

    /// Applies one update event, bumping the version when it changed the
    /// graph and auto-compacting per the policy. Returns `true` when the
    /// event was effective.
    pub fn apply(&mut self, update: GraphUpdate) -> bool {
        let (u, v) = update.edge();
        let n = self.num_nodes();
        assert!(
            (u as usize) < n && (v as usize) < n,
            "edge ({u}, {v}) out of bounds for n = {n}"
        );
        // Decide effectiveness first: a no-op event (duplicate insert,
        // absent remove) must neither touch the overlay nor invalidate
        // the cached publication.
        if self.overlay.has_edge(u, v) == update.is_insert() {
            return false;
        }
        // Fully drop the cached publication *before* the overlay edit:
        // its `Arc` references would otherwise force `Arc::make_mut` to
        // copy lists no external snapshot holds.
        *self.published.get_mut().expect("snapshot cache poisoned") = None;
        let changed = if update.is_insert() {
            self.overlay.insert_edge(u, v)
        } else {
            self.overlay.remove_edge(u, v)
        };
        debug_assert!(changed, "effectiveness was just established");
        self.version += 1;
        if self
            .policy
            .should_compact(self.overlay.touched_lists(), self.num_nodes())
        {
            self.compact();
        }
        changed
    }

    /// Applies a sequence of updates, returning how many were effective.
    pub fn apply_all<I: IntoIterator<Item = GraphUpdate>>(&mut self, updates: I) -> usize {
        updates
            .into_iter()
            .filter(|&update| self.apply(update))
            .count()
    }

    /// Folds the overlay into a fresh CSR base via
    /// [`OverlayGraph::snapshot`]. The logical graph and the
    /// version are unchanged; published snapshots keep their old `Arc`s
    /// and are never stalled. Returns `false` (and does nothing) when the
    /// overlay is already empty.
    pub fn compact(&mut self) -> bool {
        if self.overlay.touched_lists() == 0 {
            return false;
        }
        // The cached publication points at the pre-fold representation;
        // republish from the fresh base so old overlay Arcs can drop.
        *self.published.get_mut().expect("snapshot cache poisoned") = None;
        let folded = self.overlay.snapshot();
        debug_assert_eq!(folded.num_edges(), self.num_edges());
        self.overlay = OverlayGraph::new(Arc::new(folded));
        self.compactions += 1;
        true
    }

    /// Publishes the current state as an immutable [`GraphSnapshot`].
    ///
    /// One `Arc` bump per 32 touched rows of each direction — no row
    /// `Arc`s and no adjacency data are copied — and only when
    /// something changed since the last publish: repeated
    /// `snapshot()` calls between mutations return the same cached
    /// publication for one `Arc` bump (the read-heavy serving pattern).
    /// The snapshot stays valid and bit-identical no matter how many
    /// updates or compactions follow.
    pub fn snapshot(&self) -> GraphSnapshot {
        let mut published = self.published.lock().expect("snapshot cache poisoned");
        if let Some(snapshot) = &*published {
            return snapshot.clone();
        }
        let (out, inn) = self.overlay.freeze();
        let snapshot = GraphSnapshot {
            inner: Arc::new(SnapshotState {
                version: self.version,
                base: Arc::clone(self.overlay.base()),
                out,
                inn,
                num_edges: self.num_edges(),
                index: OnceLock::new(),
            }),
        };
        *published = Some(snapshot.clone());
        snapshot
    }

    /// True when the directed edge exists in the current live state.
    #[inline]
    pub fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        self.overlay.has_edge(u, v)
    }

    /// Iterates the live edges in `(source, target)` order, sorted,
    /// without allocating.
    pub fn edges_iter(&self) -> impl Iterator<Item = Edge> + Clone + '_ {
        self.overlay.edges_iter()
    }
}

/// The writer-side live view: querying a `GraphStore` directly reads the
/// overlay (single-threaded convenience; concurrent readers use
/// [`GraphSnapshot`]s).
impl GraphView for GraphStore {
    #[inline]
    fn num_nodes(&self) -> usize {
        self.overlay.num_nodes()
    }

    #[inline]
    fn num_edges(&self) -> usize {
        self.overlay.num_edges()
    }

    #[inline]
    fn in_neighbors(&self, v: NodeId) -> &[NodeId] {
        self.overlay.in_neighbors(v)
    }

    #[inline]
    fn out_neighbors(&self, v: NodeId) -> &[NodeId] {
        self.overlay.out_neighbors(v)
    }
}

struct SnapshotState {
    version: u64,
    base: Arc<CsrGraph>,
    out: FrozenRows,
    inn: FrozenRows,
    num_edges: usize,
    /// Built on the first adjacency read; see [`ReadIndex`].
    index: OnceLock<ReadIndex>,
}

/// The slot value meaning "this node's row is the base's CSR row".
const BASE_ROW: u32 = u32::MAX;

/// A snapshot's dense read index: 12 bytes per node. `out[u]` is `u`'s
/// slot in the frozen out-rows, `inn[v]` is `v`'s slot in the frozen
/// in-rows paired with `|I(v)|` as of publication; a [`BASE_ROW`] slot
/// reads the base. Slots are below `n` and degrees at most `n`, and `n`
/// is at most `NodeId::MAX`, so both fit and no slot is the sentinel.
struct ReadIndex {
    out: Box<[u32]>,
    inn: Box<[(u32, u32)]>,
}

impl SnapshotState {
    #[inline]
    fn index(&self) -> &ReadIndex {
        self.index.get_or_init(|| self.build_index())
    }

    fn build_index(&self) -> ReadIndex {
        let base = &*self.base;
        let mut out = vec![BASE_ROW; base.num_nodes()];
        for (slot, (u, _)) in self.out.iter().enumerate() {
            out[u as usize] = slot as u32;
        }
        let mut inn: Vec<(u32, u32)> = base
            .nodes()
            .map(|v| (BASE_ROW, base.in_degree(v) as u32))
            .collect();
        for (slot, (v, list)) in self.inn.iter().enumerate() {
            inn[v as usize] = (slot as u32, list.len() as u32);
        }
        ReadIndex {
            out: out.into_boxed_slice(),
            inn: inn.into_boxed_slice(),
        }
    }
}

/// An immutable, versioned view of a [`GraphStore`] at one publish
/// point.
///
/// Cloning is one `Arc` bump, so a snapshot can be handed to any number
/// of reader threads (`Send + Sync`); each reads exactly the edge set
/// that existed at [`GraphSnapshot::version`], no matter what the writer
/// does afterwards. The node count is fixed at construction, so a
/// `probesim_core::QuerySession` bound to an owned snapshot can never
/// observe a resize.
#[derive(Clone)]
pub struct GraphSnapshot {
    inner: Arc<SnapshotState>,
}

impl GraphSnapshot {
    /// The store version this snapshot was published at.
    pub fn version(&self) -> u64 {
        self.inner.version
    }

    /// True when the directed edge exists in this snapshot.
    #[inline]
    pub fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        self.out_neighbors(u).binary_search(&v).is_ok()
    }

    /// Materializes this snapshot as a standalone [`CsrGraph`] (the
    /// scratch-rebuild the isolation tests compare against).
    pub fn to_csr(&self) -> CsrGraph {
        CsrGraph::from_edge_iter(self.num_nodes(), self.edges_iter())
    }
}

impl std::fmt::Debug for GraphSnapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GraphSnapshot")
            .field("version", &self.inner.version)
            .field("num_nodes", &self.num_nodes())
            .field("num_edges", &self.inner.num_edges)
            .field(
                "touched_lists",
                &(self.inner.out.len() + self.inner.inn.len()),
            )
            .finish()
    }
}

impl GraphView for GraphSnapshot {
    #[inline]
    fn num_nodes(&self) -> usize {
        self.inner.base.num_nodes()
    }

    #[inline]
    fn num_edges(&self) -> usize {
        self.inner.num_edges
    }

    #[inline]
    fn in_neighbors(&self, v: NodeId) -> &[NodeId] {
        let state = &*self.inner;
        match state.index().inn[v as usize].0 {
            BASE_ROW => state.base.in_neighbors(v),
            slot => state.inn.row(slot as usize),
        }
    }

    #[inline]
    fn out_neighbors(&self, v: NodeId) -> &[NodeId] {
        let state = &*self.inner;
        match state.index().out[v as usize] {
            BASE_ROW => state.base.out_neighbors(v),
            slot => state.out.row(slot as usize),
        }
    }

    #[inline]
    fn in_degree(&self, v: NodeId) -> usize {
        self.inner.index().inn[v as usize].1 as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn assert_same_graph<A: GraphView, B: GraphView>(a: &A, b: &B) {
        assert_eq!(a.num_nodes(), b.num_nodes());
        assert_eq!(a.num_edges(), b.num_edges());
        for v in a.nodes() {
            assert_eq!(a.out_neighbors(v), b.out_neighbors(v), "out({v})");
            assert_eq!(a.in_neighbors(v), b.in_neighbors(v), "in({v})");
        }
    }

    #[test]
    fn from_csr_at_seeds_the_version() {
        let mut store = GraphStore::from_csr_at(CsrGraph::from_edges(3, &[(0, 1)]), 17);
        assert_eq!(store.version(), 17);
        assert_eq!(store.snapshot().version(), 17);
        assert!(store.apply(GraphUpdate::Insert { u: 1, v: 2 }));
        assert_eq!(store.version(), 18);
        assert_eq!(store.snapshot().version(), 18);
    }

    #[test]
    fn snapshots_are_send_sync_and_cheap_to_clone() {
        fn assert_send_sync<T: Send + Sync + Clone>() {}
        assert_send_sync::<GraphSnapshot>();
        let store = GraphStore::from_edges(3, &[(0, 1), (1, 2)]);
        let snap = store.snapshot();
        let clone = snap.clone();
        assert!(Arc::ptr_eq(&snap.inner, &clone.inner));
    }

    #[test]
    fn unchanged_snapshots_are_republished_from_the_cache() {
        let mut store = GraphStore::from_edges(4, &[(0, 1), (1, 2)]);
        let a = store.snapshot();
        let b = store.snapshot();
        assert!(
            Arc::ptr_eq(&a.inner, &b.inner),
            "no mutation between publishes => same publication"
        );
        // A no-op event keeps the cached publication valid.
        store.insert_edge(0, 1);
        let still = store.snapshot();
        assert!(Arc::ptr_eq(&b.inner, &still.inner), "no-op kept the cache");
        store.insert_edge(2, 3);
        let c = store.snapshot();
        assert!(!Arc::ptr_eq(&b.inner, &c.inner));
        assert_eq!(c.num_edges(), 3);
        // Compaction republishes too (fresh base), same logical graph.
        store.compact();
        let d = store.snapshot();
        assert!(!Arc::ptr_eq(&c.inner, &d.inner));
        assert_eq!(d.version(), c.version());
        assert_same_graph(&c, &d);
        // The cache's own Arcs must not defeat COW: with every external
        // snapshot dropped, mutating a touched node twice between
        // publishes edits in place (observable only as correctness here).
        drop((a, b, c, d));
        store.insert_edge(0, 2);
        store.insert_edge(0, 3);
        assert_eq!(store.out_neighbors(0), &[1, 2, 3]);
    }

    #[test]
    fn version_counts_effective_mutations_only() {
        let mut store = GraphStore::new(3);
        assert_eq!(store.version(), 0);
        assert!(store.insert_edge(0, 1));
        assert!(!store.insert_edge(0, 1)); // duplicate: no version bump
        assert!(!store.remove_edge(1, 2)); // absent: no version bump
        assert!(store.remove_edge(0, 1));
        assert_eq!(store.version(), 2);
    }

    #[test]
    fn snapshot_isolation_under_continued_writes() {
        let mut store = GraphStore::from_edges(4, &[(0, 1), (1, 2)]);
        let v0 = store.snapshot();
        store.insert_edge(2, 3);
        let v1 = store.snapshot();
        store.remove_edge(0, 1);
        store.insert_edge(3, 0);
        let v2 = store.snapshot();

        assert_eq!(v0.num_edges(), 2);
        assert_eq!(v1.num_edges(), 3);
        assert_eq!(v2.num_edges(), 3);
        assert!(v0.version() < v1.version() && v1.version() < v2.version());
        assert!(v0.has_edge(0, 1) && v1.has_edge(0, 1) && !v2.has_edge(0, 1));
        assert!(!v0.has_edge(2, 3) && v1.has_edge(2, 3) && v2.has_edge(2, 3));
        // Each snapshot equals a scratch CSR of its own edge set.
        for snap in [&v0, &v1, &v2] {
            assert_same_graph(snap, &snap.to_csr());
        }
        // And the live store equals the latest snapshot.
        assert_same_graph(&store, &v2);
    }

    #[test]
    fn compaction_preserves_the_graph_and_snapshots() {
        let mut store = GraphStore::new(6).with_policy(CompactionPolicy::disabled());
        for (u, v) in [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0)] {
            store.insert_edge(u, v);
        }
        let before = store.snapshot();
        let version = store.version();
        let old_base = Arc::clone(store.base());
        assert!(store.touched_lists() > 0);

        assert!(store.compact());
        assert_eq!(store.compactions(), 1);
        assert_eq!(store.version(), version, "compaction is not a mutation");
        assert_eq!(store.touched_lists(), 0, "overlay folded");
        assert!(
            !Arc::ptr_eq(store.base(), &old_base),
            "base must be a fresh CSR"
        );
        // Logical graph unchanged; old snapshot still reads its version.
        assert_same_graph(&store, &before);
        let after = store.snapshot();
        assert_eq!(after.version(), before.version());
        assert_same_graph(&after, &before);
        // An empty overlay declines to compact again.
        assert!(!store.compact());
        assert_eq!(store.compactions(), 1);
    }

    #[test]
    fn auto_compaction_respects_the_policy() {
        let policy = CompactionPolicy {
            max_touched_fraction: 0.2,
            min_touched_lists: 4,
        };
        assert!(!policy.should_compact(3, 4)); // below min_touched_lists
        assert!(policy.should_compact(4, 4)); // 4 > 0.2 * 8
        assert!(!policy.should_compact(4, 100)); // 4 <= 0.2 * 200

        let mut store = GraphStore::new(8).with_policy(policy);
        let mut compacted_at = None;
        for i in 0..7u32 {
            store.insert_edge(i, i + 1);
            if store.compactions() > 0 && compacted_at.is_none() {
                compacted_at = Some(i);
            }
        }
        assert!(
            store.compactions() > 0,
            "policy should have auto-compacted (touched {} of 16 lists)",
            store.touched_lists()
        );
        // Still the right graph afterwards.
        let expect = CsrGraph::from_edge_iter(8, (0..7).map(|i| (i, i + 1)));
        assert_same_graph(&store, &expect);
    }

    #[test]
    fn store_matches_dynamic_graph_under_a_shared_update_stream() {
        let mut store =
            GraphStore::from_edges(5, &[(0, 1), (3, 4)]).with_policy(CompactionPolicy {
                max_touched_fraction: 0.1,
                min_touched_lists: 2,
            });
        // Reference model: a plain edge set, rebuilt into a scratch CSR.
        let mut model: BTreeSet<Edge> = [(0, 1), (3, 4)].into_iter().collect();
        let updates = [
            GraphUpdate::Insert { u: 1, v: 2 },
            GraphUpdate::Insert { u: 0, v: 1 }, // no-op
            GraphUpdate::Remove { u: 3, v: 4 },
            GraphUpdate::Insert { u: 4, v: 0 },
            GraphUpdate::Remove { u: 2, v: 2 }, // no-op
            GraphUpdate::Insert { u: 2, v: 3 },
        ];
        for update in updates {
            let expect = if update.is_insert() {
                model.insert(update.edge())
            } else {
                model.remove(&update.edge())
            };
            assert_eq!(store.apply(update), expect, "{update:?}");
        }
        assert_eq!(store.version(), 4);
        assert_same_graph(&store, &CsrGraph::from_edge_iter(5, model.iter().copied()));
        assert!(store.edges_iter().eq(model.iter().copied()));
        assert!(store.compactions() > 0, "aggressive policy must compact");
    }

    #[test]
    fn snapshot_taken_before_compaction_stays_bit_stable() {
        let mut store = GraphStore::new(5).with_policy(CompactionPolicy::disabled());
        store.apply_all((0..4).map(|i| GraphUpdate::Insert { u: i, v: i + 1 }));
        let snap = store.snapshot();
        let edges_before: Vec<Edge> = snap.edges_iter().collect();
        store.compact();
        store.apply_all((0..4).map(|i| GraphUpdate::Remove { u: i, v: i + 1 }));
        store.compact();
        assert_eq!(store.num_edges(), 0);
        let edges_after: Vec<Edge> = snap.edges_iter().collect();
        assert_eq!(edges_before, edges_after);
        assert_same_graph(&snap, &snap.to_csr());
    }

    /// SplitMix64: a seeded stream for the chunk-table tests below.
    fn splitmix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Toggles `u -> v` in both the store and the reference edge set, so
    /// every update is effective.
    fn toggle(store: &mut GraphStore, model: &mut BTreeSet<Edge>, u: NodeId, v: NodeId) {
        let update = if model.remove(&(u, v)) {
            GraphUpdate::Remove { u, v }
        } else {
            model.insert((u, v));
            GraphUpdate::Insert { u, v }
        };
        assert!(store.apply(update), "{update:?} must be effective");
    }

    #[test]
    fn chunked_rows_keep_every_retained_snapshot_exact() {
        const N: u32 = 300;
        const RETAINED: usize = 8;
        let mut store = GraphStore::new(N as usize).with_policy(CompactionPolicy::disabled());
        let mut model = BTreeSet::new();
        let mut retained: std::collections::VecDeque<(GraphSnapshot, CsrGraph)> =
            std::collections::VecDeque::new();
        let mut rng = 0x5EED_u64;
        let mut max_chunks = 0;
        for step in 0..900 {
            // Most updates hit the first 40 nodes, whose rows share the
            // leading chunks and are mutated again and again; the rest
            // spread touches past three chunks per direction.
            let hot = !splitmix(&mut rng).is_multiple_of(4);
            let span = if hot { 40 } else { N as u64 };
            let u = (splitmix(&mut rng) % span) as NodeId;
            let v = (splitmix(&mut rng) % span) as NodeId;
            toggle(&mut store, &mut model, u, v);
            if step == 600 {
                assert!(store.compact());
            }
            let snap = store.snapshot();
            max_chunks = max_chunks.max(snap.inner.out.num_chunks());
            let expect = CsrGraph::from_edge_iter(N as usize, model.iter().copied());
            retained.push_back((snap, expect));
            if retained.len() > RETAINED {
                retained.pop_front();
            }
            for (snap, expect) in &retained {
                assert_same_graph(snap, expect);
            }
        }
        assert_eq!(store.compactions(), 1);
        assert!(max_chunks > 3, "only {max_chunks} out-row chunks touched");
        let versions: Vec<u64> = retained.iter().map(|(snap, _)| snap.version()).collect();
        assert_eq!(versions, (893..=900).collect::<Vec<u64>>());
    }

    #[test]
    fn consecutive_publishes_share_all_but_the_touched_chunks() {
        const N: u32 = 400;
        let mut store = GraphStore::new(N as usize).with_policy(CompactionPolicy::disabled());
        let mut model = BTreeSet::new();
        // Touch 200 out-rows and 200 in-rows: 7 chunks per direction.
        for u in 0..200 {
            toggle(&mut store, &mut model, u, u + 200);
        }
        let mut prev = store.snapshot();
        assert_eq!(prev.inner.out.num_chunks(), 7);
        let mut rng = 7_u64;
        for _ in 0..200 {
            let u = (splitmix(&mut rng) % 260) as NodeId;
            let v = (splitmix(&mut rng) % 260) as NodeId + 140;
            toggle(&mut store, &mut model, u, v);
            let next = store.snapshot();
            let changed = prev.inner.out.chunks_not_shared_with(&next.inner.out)
                + prev.inner.inn.chunks_not_shared_with(&next.inner.inn);
            // One update edits one out-row and one in-row: each lives in
            // (or, when new, is appended to) exactly one chunk, which
            // `make_mut` copies because `prev` still holds it.
            assert!(
                (1..=2).contains(&changed),
                "{changed} chunks changed by one update"
            );
            prev = next;
        }
        assert_same_graph(
            &prev,
            &CsrGraph::from_edge_iter(N as usize, model.iter().copied()),
        );
    }

    #[test]
    fn empty_store_smoke() {
        let store = GraphStore::new(0);
        assert_eq!(store.num_nodes(), 0);
        assert_eq!(store.snapshot().num_edges(), 0);
        assert_eq!(store.touched_fraction(), 0.0);
        let store = GraphStore::new(3);
        let snap = store.snapshot();
        assert_eq!(snap.version(), 0);
        assert_eq!(snap.in_neighbors(2), &[] as &[NodeId]);
        assert_eq!(snap.edges_iter().count(), 0);
    }
}
