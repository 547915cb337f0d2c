//! The [`GraphView`] trait: the read interface every SimRank algorithm in
//! this workspace is generic over.
//!
//! The immutable [`crate::CsrGraph`], the mutable [`crate::GraphStore`]
//! (and its [`crate::OverlayGraph`]) and the store's published
//! [`crate::GraphSnapshot`]s all implement it, which is what lets
//! ProbeSim answer queries on a live, updating graph with zero
//! preprocessing.

use crate::{Edge, NodeId};

/// Read-only access to a directed graph with dense node ids `0..n`.
///
/// `in_neighbors(v)` are the sources of edges pointing *at* `v` (the set
/// `I(v)` in the paper); `out_neighbors(v)` are the targets of edges leaving
/// `v` (`O(v)`). Both are returned as slices so hot loops can iterate without
/// allocation or virtual dispatch (callers are generic, not trait objects).
pub trait GraphView {
    /// Number of nodes `n`. Valid ids are `0..n`.
    fn num_nodes(&self) -> usize;

    /// Number of directed edges `m`.
    fn num_edges(&self) -> usize;

    /// The in-neighbors `I(v)` of `v` (sources of incoming edges).
    fn in_neighbors(&self, v: NodeId) -> &[NodeId];

    /// The out-neighbors `O(v)` of `v` (targets of outgoing edges).
    fn out_neighbors(&self, v: NodeId) -> &[NodeId];

    /// `|I(v)|`.
    #[inline]
    fn in_degree(&self, v: NodeId) -> usize {
        self.in_neighbors(v).len()
    }

    /// `|O(v)|`.
    #[inline]
    fn out_degree(&self, v: NodeId) -> usize {
        self.out_neighbors(v).len()
    }

    /// True when `v` has at least one incoming edge. Query nodes in the
    /// paper's experiments are sampled "uniformly at random from those with
    /// nonzero in-degrees".
    #[inline]
    fn has_in_edges(&self, v: NodeId) -> bool {
        self.in_degree(v) > 0
    }

    /// Iterator over all node ids.
    #[inline]
    fn nodes(&self) -> std::ops::Range<NodeId> {
        0..self.num_nodes() as NodeId
    }

    /// Iterates all edges in `(source, target)` order, sorted by source
    /// then target (adjacency lists are sorted by contract), without
    /// allocating. Re-iterable (`Clone`), so it can feed
    /// [`crate::CsrGraph::from_edge_iter`]'s two passes; the workload
    /// fingerprints and edge-set hashes stream through it. Rebuilding a
    /// CSR from a view is cheaper through
    /// [`crate::CsrGraph::from_view`], which copies the sorted rows
    /// instead. (Concrete graph types may shadow this with an
    /// equivalent inherent method; the contract is the same.)
    fn edges_iter(&self) -> impl Iterator<Item = Edge> + Clone + '_ {
        (0..self.num_nodes() as NodeId)
            .flat_map(|u| self.out_neighbors(u).iter().map(move |&v| (u, v)))
    }
}

impl<G: GraphView + ?Sized> GraphView for &G {
    #[inline]
    fn num_nodes(&self) -> usize {
        (**self).num_nodes()
    }
    #[inline]
    fn num_edges(&self) -> usize {
        (**self).num_edges()
    }
    #[inline]
    fn in_neighbors(&self, v: NodeId) -> &[NodeId] {
        (**self).in_neighbors(v)
    }
    #[inline]
    fn out_neighbors(&self, v: NodeId) -> &[NodeId] {
        (**self).out_neighbors(v)
    }
    #[inline]
    fn in_degree(&self, v: NodeId) -> usize {
        (**self).in_degree(v)
    }
    #[inline]
    fn out_degree(&self, v: NodeId) -> usize {
        (**self).out_degree(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CsrGraph;

    #[test]
    fn blanket_ref_impl_forwards() {
        let g = CsrGraph::from_edges(3, &[(0, 1), (1, 2)]);
        let r: &CsrGraph = &g;
        fn takes_view<G: GraphView>(g: G) -> (usize, usize) {
            (g.num_nodes(), g.num_edges())
        }
        assert_eq!(takes_view(r), (3, 2));
        assert_eq!(takes_view(r), (3, 2)); // blanket impl also covers &&CsrGraph
    }

    #[test]
    fn nodes_iterates_all_ids() {
        let g = CsrGraph::from_edges(4, &[(0, 1)]);
        let ids: Vec<u32> = g.nodes().collect();
        assert_eq!(ids, vec![0, 1, 2, 3]);
    }
}
