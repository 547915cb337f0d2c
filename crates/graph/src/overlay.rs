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
//! The copy-on-write discipline is per node *and* per publish: snapshot
//! publication (`freeze`, crate-internal — reached through
//! [`crate::GraphStore::snapshot`]) clones the touched-row vectors,
//! which hold `Arc`s of the lists, and the next mutation of a frozen
//! list goes through [`Arc::make_mut`], which clones the `Vec` only when
//! a snapshot still holds it. A writer that mutates the same node
//! repeatedly between publishes therefore pays the clone once, then
//! edits in place.

use std::sync::Arc;

use crate::hash::FxHashMap;
use crate::view::GraphView;
use crate::{CsrGraph, NodeId};

/// One materialized adjacency list, shared between the live overlay and
/// any published snapshots.
pub(crate) type AdjArc = Arc<Vec<NodeId>>;

/// The touched rows of one direction, in touch order: each
/// materialized list paired with its node. A snapshot freezes these as a
/// plain clone.
pub(crate) type FrozenRows = Vec<(NodeId, AdjArc)>;

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
            Some(&slot) => &self.rows[slot as usize].1,
            None => base,
        }
    }

    /// Materializes (on first touch, from `base`) and returns the mutable
    /// list of `v`. `Arc::make_mut` clones the `Vec` only when a published
    /// snapshot still shares it.
    fn touch(&mut self, v: NodeId, base: &[NodeId]) -> &mut Vec<NodeId> {
        let rows = &mut self.rows;
        let slot = *self.slot.entry(v).or_insert_with(|| {
            rows.push((v, Arc::new(base.to_vec())));
            (rows.len() - 1) as u32
        });
        Arc::make_mut(&mut rows[slot as usize].1)
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

    /// An immutable CSR copy of the current edge set, streamed straight
    /// from the adjacency into the CSR builder — no intermediate edge
    /// `Vec`. Compaction folds the overlay through this.
    pub fn snapshot(&self) -> CsrGraph {
        CsrGraph::from_edge_iter(self.num_nodes(), self.edges_iter())
    }

    /// `Arc` clones of the touched rows, for snapshot publication.
    /// O(touched) pointer bumps; no adjacency data is copied.
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
        let frozen = Arc::clone(&out.iter().find(|(v, _)| *v == 3).unwrap().1);
        assert_eq!(frozen.as_slice(), &[0]);
        // Mutating after the freeze clones the shared Vec (make_mut):
        overlay.insert_edge(3, 2);
        assert_eq!(overlay.out_neighbors(3), &[0, 2]);
        assert_eq!(frozen.as_slice(), &[0], "frozen list mutated in place");
        // With the freeze dropped, further edits go in place again.
        drop(frozen);
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
