//! Per-node copy-on-write adjacency overlay over an immutable CSR base.
//!
//! [`OverlayGraph`] is the mutable half of the versioned store
//! ([`crate::store::GraphStore`]): it owns an `Arc<CsrGraph>` base plus,
//! per direction, the *touched* adjacency lists in touch order and a
//! hash map from node to its slot among them. On the writer, a node that
//! has never been mutated resolves straight to the base's CSR slice —
//! one emptiness check and one hash probe, no copying — while the first
//! mutation of a node materializes that one adjacency list as an owned
//! sorted `Vec` (wrapped in an `Arc` so published snapshots can keep the
//! old value alive for free). Published snapshots do not read through
//! the hash maps: they read through a dense per-node index of their own
//! (see [`crate::GraphSnapshot`]).
//!
//! The copy-on-write discipline is per node, per chunk *and* per
//! publish. Each direction keeps its touched rows in touch order in
//! fixed 32-row chunks, each chunk behind its own `Arc`. Snapshot
//! publication (`freeze`, crate-internal — reached through
//! [`crate::GraphStore::snapshot`]) clones only the chunk pointers:
//! touched/32 `Arc` bumps, no row `Arc`s and no adjacency data. The
//! next mutation of a row goes through [`Arc::make_mut`] twice: on the
//! one chunk that holds it (copying that chunk's 32 row pointers when a
//! snapshot still shares it), then on the row's `Vec` (copied only when
//! a snapshot still holds the list). A writer that mutates rows of the
//! same chunk repeatedly between publishes therefore pays each copy
//! once, then edits in place; retiring a snapshot frees only the chunk
//! versions that no other snapshot holds.
//!
//! Against one `Vec` of row `Arc`s cloned whole per publish, on a
//! 1000-node, 6000-edge store under random toggles with 8 snapshots
//! retained (medians, 2-vCPU VM): publish 3.3 → 0.28 µs, retiring the
//! 9th-oldest snapshot 2.8 → 0.67 µs, and `apply` 1.05 → 1.40 µs, the
//! price of the chunk copies.

use std::sync::Arc;

use crate::hash::FxHashMap;
use crate::view::GraphView;
use crate::{CsrGraph, NodeId};

/// One materialized adjacency list, shared between the live overlay and
/// any published snapshots.
pub(crate) type AdjArc = Arc<Vec<NodeId>>;

/// Rows per chunk of a [`FrozenRows`] table. A publish bumps
/// touched/`CHUNK` pointers and the first mutation of a shared chunk
/// copies `CHUNK` row pointers, so the best size grows with the touched
/// count. On perfbench's `commit_flood` (at most 500 touched lists) 16
/// commits ~15% faster, and on a 1000-node store 64 costs 3.4 µs per
/// apply + publish + retire against 32's 2.3 µs; 32 keeps publish at
/// half of 16's cost on the far larger overlays of big graphs.
const CHUNK: usize = 32;

/// [`CHUNK`] consecutive rows, each materialized list paired with its
/// node. A fixed array, so a read reaches its row straight from the
/// chunk's `Arc`; slots past the table's length hold `None`.
type Chunk = [(NodeId, Option<AdjArc>); CHUNK];

/// The touched rows of one direction, in touch order, in [`CHUNK`]-row
/// chunks behind their own `Arc`s: row `slot` lives at
/// `chunks[slot / CHUNK][slot % CHUNK]`. A snapshot freezes these as a
/// plain clone, which copies only the chunk pointers.
#[derive(Debug, Clone, Default)]
pub(crate) struct FrozenRows {
    chunks: Vec<Arc<Chunk>>,
    len: usize,
}

impl FrozenRows {
    /// Number of rows.
    #[inline]
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// True when no row has been touched.
    #[inline]
    pub(crate) fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The list in row `slot`. Panics when `slot` is past the last
    /// chunk; a slot past `len()` inside it reads as empty.
    #[inline]
    pub(crate) fn row(&self, slot: usize) -> &[NodeId] {
        let (chunk, at) = (slot / CHUNK, slot % CHUNK);
        self.chunks[chunk][at]
            .1
            .as_deref()
            .map_or(&[], Vec::as_slice)
    }

    /// `(node, list)` for every row, in touch (slot) order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (NodeId, &[NodeId])> {
        self.chunks
            .iter()
            .flat_map(|chunk| chunk.iter())
            .map_while(|(v, list)| Some((*v, list.as_deref()?.as_slice())))
    }

    /// Appends a row, returning its slot. Only the last chunk is
    /// copied-on-write; a full one starts a fresh chunk.
    fn push(&mut self, v: NodeId, list: AdjArc) -> u32 {
        let (chunk, at) = (self.len / CHUNK, self.len % CHUNK);
        if at == 0 {
            self.chunks
                .push(Arc::new(std::array::from_fn(|_| (NodeId::MAX, None))));
        }
        Arc::make_mut(&mut self.chunks[chunk])[at] = (v, Some(list));
        self.len += 1;
        (self.len - 1) as u32
    }

    /// The mutable list in row `slot`: `Arc::make_mut` on its chunk,
    /// then on the list, so each is copied only while a snapshot shares
    /// it.
    fn row_mut(&mut self, slot: u32) -> &mut Vec<NodeId> {
        let (chunk, at) = (slot as usize / CHUNK, slot as usize % CHUNK);
        let list = Arc::make_mut(&mut self.chunks[chunk])[at].1.as_mut();
        Arc::make_mut(list.expect("invariant: every slot below len holds a row"))
    }
}

/// One direction of the overlay: the touched rows and each touched
/// node's slot among them. Rows are only ever appended; compaction
/// starts a fresh overlay.
#[derive(Debug, Clone, Default)]
struct TouchedRows {
    slot: FxHashMap<NodeId, u32>,
    rows: FrozenRows,
}

impl TouchedRows {
    /// Overlay-or-base lookup. Cold path (no touched lists) is a single
    /// emptiness check straight to the base slice.
    #[inline]
    fn resolve<'a>(&'a self, v: NodeId, base: &'a [NodeId]) -> &'a [NodeId] {
        if self.rows.is_empty() {
            return base;
        }
        match self.slot.get(&v) {
            Some(&slot) => self.rows.row(slot as usize),
            None => base,
        }
    }

    /// Materializes (on first touch, from `base`) and returns the mutable
    /// list of `v`. Chunk and `Vec` are copied only when a published
    /// snapshot still shares them.
    fn touch(&mut self, v: NodeId, base: &[NodeId]) -> &mut Vec<NodeId> {
        let rows = &mut self.rows;
        let slot = *self
            .slot
            .entry(v)
            .or_insert_with(|| rows.push(v, Arc::new(base.to_vec())));
        rows.row_mut(slot)
    }
}

/// A mutable graph represented as an immutable [`CsrGraph`] base plus a
/// per-node copy-on-write delta.
///
/// Adjacency lists (both directions) stay sorted and deduplicated — the
/// same [`GraphView`] contract as [`CsrGraph`] — so every query algorithm
/// runs against an overlay unchanged, and answers are bit-for-bit
/// identical to a from-scratch CSR rebuild of the same edge set
/// ([`OverlayGraph::snapshot`]).
///
/// The node count is fixed at the base's `n`: the overlay mutates edges,
/// not the vertex set.
#[derive(Debug, Clone)]
pub struct OverlayGraph {
    base: Arc<CsrGraph>,
    out: TouchedRows,
    inn: TouchedRows,
    num_edges: usize,
}

impl OverlayGraph {
    /// An overlay with no touched nodes over `base`.
    pub fn new(base: Arc<CsrGraph>) -> Self {
        let num_edges = base.num_edges();
        OverlayGraph {
            base,
            out: TouchedRows::default(),
            inn: TouchedRows::default(),
            num_edges,
        }
    }

    /// The immutable base this overlay deltas against.
    pub fn base(&self) -> &Arc<CsrGraph> {
        &self.base
    }

    /// Number of materialized adjacency lists (out-lists + in-lists).
    /// Each is one touched `(node, direction)` pair; an untouched graph
    /// reports 0. The compaction policy thresholds on this against `2n`.
    pub fn touched_lists(&self) -> usize {
        self.out.rows.len() + self.inn.rows.len()
    }

    /// Fraction of the `2n` adjacency lists that have been materialized.
    pub fn touched_fraction(&self) -> f64 {
        let n = self.base.num_nodes();
        if n == 0 {
            0.0
        } else {
            self.touched_lists() as f64 / (2 * n) as f64
        }
    }

    /// The out-adjacency of `u`: the overlay's list if touched, else the
    /// base's CSR slice.
    #[inline]
    pub fn out_slice(&self, u: NodeId) -> &[NodeId] {
        self.out.resolve(u, self.base.out_neighbors(u))
    }

    /// The in-adjacency of `v`: overlay if touched, else base.
    #[inline]
    pub fn in_slice(&self, v: NodeId) -> &[NodeId] {
        self.inn.resolve(v, self.base.in_neighbors(v))
    }

    /// True when the directed edge `u -> v` exists. O(log deg(u)).
    #[inline]
    pub fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        self.out_slice(u).binary_search(&v).is_ok()
    }

    /// Inserts the directed edge `u -> v`. Returns `false` when it
    /// already existed (the graph stays simple). Panics on out-of-range
    /// endpoints.
    pub fn insert_edge(&mut self, u: NodeId, v: NodeId) -> bool {
        let n = self.num_nodes();
        assert!(
            (u as usize) < n && (v as usize) < n,
            "edge ({u}, {v}) out of bounds for n = {n}"
        );
        // Pre-check so a no-op duplicate insert does not materialize
        // (and permanently touch) the node's adjacency lists. The found
        // position stays valid after the touch: materialization copies
        // the identical content.
        let pos = match self.out_slice(u).binary_search(&v) {
            Ok(_) => return false,
            Err(pos) => pos,
        };
        self.out.touch(u, self.base.out_neighbors(u)).insert(pos, v);
        let in_v = self.inn.touch(v, self.base.in_neighbors(v));
        let ipos = in_v.binary_search(&u).unwrap_err();
        in_v.insert(ipos, u);
        self.num_edges += 1;
        true
    }

    /// Removes the directed edge `u -> v`. Returns `false` when absent.
    pub fn remove_edge(&mut self, u: NodeId, v: NodeId) -> bool {
        let n = self.num_nodes();
        assert!(
            (u as usize) < n && (v as usize) < n,
            "edge ({u}, {v}) out of bounds for n = {n}"
        );
        let pos = match self.out_slice(u).binary_search(&v) {
            Err(_) => return false,
            Ok(pos) => pos,
        };
        self.out.touch(u, self.base.out_neighbors(u)).remove(pos);
        let in_v = self.inn.touch(v, self.base.in_neighbors(v));
        let ipos = in_v
            .binary_search(&u)
            .expect("invariant: in/out adjacency stay synchronized");
        in_v.remove(ipos);
        self.num_edges -= 1;
        true
    }

    /// An immutable CSR copy of the current edge set: every row, touched
    /// or base, concatenated in node order by [`CsrGraph::from_view`]
    /// (rows are sorted already, so nothing is sorted again).
    /// Compaction folds the overlay through this.
    pub fn snapshot(&self) -> CsrGraph {
        CsrGraph::from_view(self)
    }

    /// The touched rows, for snapshot publication: one `Arc` bump per
    /// [`CHUNK`]-row chunk (touched/32), no row `Arc`s touched and no
    /// adjacency data copied. 0.3 µs on perfbench's `commit_flood`
    /// stream graph, where cloning every row `Arc` took 3.2–3.6 µs.
    pub(crate) fn freeze(&self) -> (FrozenRows, FrozenRows) {
        (self.out.rows.clone(), self.inn.rows.clone())
    }
}

impl GraphView for OverlayGraph {
    #[inline]
    fn num_nodes(&self) -> usize {
        self.base.num_nodes()
    }

    #[inline]
    fn num_edges(&self) -> usize {
        self.num_edges
    }

    #[inline]
    fn in_neighbors(&self, v: NodeId) -> &[NodeId] {
        self.in_slice(v)
    }

    #[inline]
    fn out_neighbors(&self, v: NodeId) -> &[NodeId] {
        self.out_slice(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Edge;
    use std::collections::BTreeSet;

    impl FrozenRows {
        /// How many of `newer`'s chunks are not shared with `self` at the
        /// same position.
        pub(crate) fn chunks_not_shared_with(&self, newer: &FrozenRows) -> usize {
            newer
                .chunks
                .iter()
                .enumerate()
                .filter(|&(i, chunk)| {
                    !self
                        .chunks
                        .get(i)
                        .is_some_and(|old| Arc::ptr_eq(old, chunk))
                })
                .count()
        }

        /// Number of chunks.
        pub(crate) fn num_chunks(&self) -> usize {
            self.chunks.len()
        }
    }

    fn base() -> Arc<CsrGraph> {
        // 0 -> 1, 0 -> 2, 1 -> 3, 2 -> 3
        Arc::new(CsrGraph::from_edges(4, &[(0, 1), (0, 2), (1, 3), (2, 3)]))
    }

    #[test]
    fn untouched_overlay_is_the_base() {
        let overlay = OverlayGraph::new(base());
        assert_eq!(overlay.num_nodes(), 4);
        assert_eq!(overlay.num_edges(), 4);
        assert_eq!(overlay.out_neighbors(0), &[1, 2]);
        assert_eq!(overlay.in_neighbors(3), &[1, 2]);
        assert_eq!(overlay.touched_lists(), 0);
        assert_eq!(overlay.touched_fraction(), 0.0);
        // The cold path returns the base's own slice, not a copy.
        assert!(std::ptr::eq(
            overlay.out_slice(0).as_ptr(),
            overlay.base().out_neighbors(0).as_ptr()
        ));
    }

    #[test]
    fn noop_updates_do_not_touch_the_overlay() {
        let mut overlay = OverlayGraph::new(base());
        // Duplicate insert of a base edge and removal of an absent edge:
        // neither may materialize an adjacency list.
        assert!(!overlay.insert_edge(0, 1));
        assert!(!overlay.remove_edge(3, 0));
        assert_eq!(overlay.touched_lists(), 0);
        assert_eq!(overlay.num_edges(), 4);
    }

    #[test]
    fn insert_and_remove_stay_sorted_and_counted() {
        let mut overlay = OverlayGraph::new(base());
        assert!(overlay.insert_edge(3, 0));
        assert!(!overlay.insert_edge(3, 0));
        assert!(overlay.insert_edge(3, 1));
        assert_eq!(overlay.num_edges(), 6);
        assert_eq!(overlay.out_neighbors(3), &[0, 1]);
        assert_eq!(overlay.in_neighbors(1), &[0, 3]);
        assert!(overlay.remove_edge(0, 1));
        assert!(!overlay.remove_edge(0, 1));
        assert_eq!(overlay.num_edges(), 5);
        assert_eq!(overlay.in_neighbors(1), &[3]);
        // Untouched node 2 still reads from the base.
        assert_eq!(overlay.out_neighbors(2), &[3]);
        assert_eq!(overlay.touched_lists(), 4); // out(3), in(0), in(1), out(0)
    }

    #[test]
    fn matches_dynamic_graph_under_the_same_updates() {
        // Reference model: a plain edge set, rebuilt into a scratch CSR.
        let edges = [(0u32, 1u32), (1, 2), (2, 0), (3, 1)];
        let mut overlay = OverlayGraph::new(Arc::new(CsrGraph::from_edges(5, &edges)));
        let mut model: BTreeSet<Edge> = edges.into_iter().collect();
        let script = [
            (true, 4, 0),
            (true, 0, 3),
            (false, 1, 2),
            (true, 1, 2),
            (false, 3, 1),
            (true, 2, 4),
        ];
        for (insert, u, v) in script {
            let a = if insert {
                overlay.insert_edge(u, v)
            } else {
                overlay.remove_edge(u, v)
            };
            let b = if insert {
                model.insert((u, v))
            } else {
                model.remove(&(u, v))
            };
            assert_eq!(a, b, "effect of ({insert}, {u}, {v}) diverged");
        }
        let expect = CsrGraph::from_edge_iter(5, model.iter().copied());
        assert_eq!(overlay.num_edges(), model.len());
        for v in expect.nodes() {
            assert_eq!(overlay.out_neighbors(v), expect.out_neighbors(v));
            assert_eq!(overlay.in_neighbors(v), expect.in_neighbors(v));
        }
        assert!(overlay.edges_iter().eq(model.iter().copied()));
        assert_eq!(overlay.snapshot(), expect);
    }

    #[test]
    fn frozen_lists_survive_later_mutation() {
        let mut overlay = OverlayGraph::new(base());
        overlay.insert_edge(3, 0);
        let (out, _inn) = overlay.freeze();
        let frozen = |out: &FrozenRows| out.iter().find(|&(v, _)| v == 3).unwrap().1.to_vec();
        assert_eq!(frozen(&out), &[0]);
        // Mutating after the freeze clones the shared chunk and Vec
        // (make_mut):
        overlay.insert_edge(3, 2);
        assert_eq!(overlay.out_neighbors(3), &[0, 2]);
        assert_eq!(frozen(&out), &[0], "frozen list mutated in place");
        // With the freeze dropped, further edits go in place again.
        drop(out);
        overlay.insert_edge(3, 1);
        assert_eq!(overlay.out_neighbors(3), &[0, 1, 2]);
    }

    #[test]
    fn edges_iter_feeds_csr_rebuild() {
        let mut overlay = OverlayGraph::new(base());
        overlay.insert_edge(3, 0);
        overlay.remove_edge(0, 2);
        let rebuilt = overlay.snapshot();
        assert_eq!(rebuilt.num_edges(), overlay.num_edges());
        for v in overlay.nodes() {
            assert_eq!(rebuilt.out_neighbors(v), overlay.out_neighbors(v));
            assert_eq!(rebuilt.in_neighbors(v), overlay.in_neighbors(v));
        }
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn insert_out_of_bounds_panics() {
        let mut overlay = OverlayGraph::new(base());
        overlay.insert_edge(0, 4);
    }
}
