//! Immutable compressed-sparse-row graph.
//!
//! [`CsrGraph`] stores both directions of adjacency: SimRank's √c-walks
//! follow *in*-edges, while ProbeSim's PROBE traversal and TSF's reversed
//! one-way graphs follow *out*-edges, so both must be O(1)-indexable.
//! Neighbor lists are sorted, enabling `has_edge` by binary search and
//! deterministic iteration order. There are two constructors: a two-pass
//! counting sort over any re-iterable edge source
//! ([`CsrGraph::from_edge_iter`]), for unsorted edge lists, and a
//! linear fold of a [`GraphView`]'s already-sorted rows
//! ([`CsrGraph::from_view`]), which is how compaction and snapshot
//! rebuilds turn the overlay into a fresh base.

use crate::view::GraphView;
use crate::{Edge, NodeId};

/// An immutable directed graph in CSR form with both out- and in-adjacency.
///
/// Construction is O(n + m) via counting sort. Memory is
/// `2m · 4 bytes + 2(n+1) · 8 bytes` — an index-free footprint, matching the
/// paper's point that ProbeSim "does not increase the size of an original
/// graph".
///
/// # Example
///
/// ```
/// use probesim_graph::{CsrGraph, GraphView};
///
/// // a -> b, a -> c, c -> b
/// let g = CsrGraph::from_edges(3, &[(0, 1), (0, 2), (2, 1)]);
/// assert_eq!(g.out_neighbors(0), &[1, 2]);
/// assert_eq!(g.in_neighbors(1), &[0, 2]);
/// assert!(g.has_edge(0, 1));
/// assert!(!g.has_edge(1, 0));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CsrGraph {
    num_nodes: usize,
    out_offsets: Vec<usize>,
    out_targets: Vec<NodeId>,
    in_offsets: Vec<usize>,
    in_sources: Vec<NodeId>,
}

impl CsrGraph {
    /// Builds a graph with `n` nodes from a directed edge list.
    ///
    /// Edges are taken as-is (no de-duplication; use
    /// [`crate::GraphBuilder`] for cleaning). Panics if an endpoint is
    /// `>= n`.
    pub fn from_edges(n: usize, edges: &[Edge]) -> Self {
        Self::from_edge_iter(n, edges.iter().copied())
    }

    /// Builds a graph with `n` nodes from any re-iterable edge source,
    /// without materializing an intermediate `Vec<Edge>` — the
    /// constructor behind [`CsrGraph::from_edges`] and the loaders. A
    /// source that is already a [`GraphView`] folds faster through
    /// [`CsrGraph::from_view`].
    ///
    /// The iterator is consumed twice (degree-counting pass, then fill
    /// pass), so it must be `Clone` and yield the same edges both times.
    /// Panics if an endpoint is `>= n`.
    pub fn from_edge_iter<I>(n: usize, edges: I) -> Self
    where
        I: IntoIterator<Item = Edge>,
        I::IntoIter: Clone,
    {
        let edges = edges.into_iter();
        let mut m = 0usize;
        let mut out_offsets = vec![0usize; n + 1];
        let mut in_offsets = vec![0usize; n + 1];
        for (u, v) in edges.clone() {
            assert!(
                (u as usize) < n && (v as usize) < n,
                "edge ({u}, {v}) out of bounds for n = {n}"
            );
            out_offsets[u as usize + 1] += 1;
            in_offsets[v as usize + 1] += 1;
            m += 1;
        }
        for i in 0..n {
            out_offsets[i + 1] += out_offsets[i];
            in_offsets[i + 1] += in_offsets[i];
        }
        let mut out_targets = vec![0 as NodeId; m];
        let mut in_sources = vec![0 as NodeId; m];
        // Cursor copies so we can fill in one pass.
        let mut out_cursor = out_offsets.clone();
        let mut in_cursor = in_offsets.clone();
        for (u, v) in edges {
            let (u_row, v_row) = (u as usize, v as usize);
            out_targets[out_cursor[u_row]] = v;
            out_cursor[u_row] += 1;
            in_sources[in_cursor[v_row]] = u;
            in_cursor[v_row] += 1;
        }
        // Sort each adjacency run for determinism and binary-search
        // lookups.
        for v in 0..n {
            out_targets[out_offsets[v]..out_offsets[v + 1]].sort_unstable();
            in_sources[in_offsets[v]..in_offsets[v + 1]].sort_unstable();
        }
        CsrGraph {
            num_nodes: n,
            out_offsets,
            out_targets,
            in_offsets,
            in_sources,
        }
    }

    /// The CSR copy of `graph`: each node's out-row is appended to the
    /// out lane and its in-row to the in lane, offsets recorded as it
    /// goes. By the [`GraphView`] contract both rows are already sorted
    /// and deduplicated, so there is no counting pass, scatter or
    /// per-row sort, and the result is `==` to
    /// [`CsrGraph::from_edge_iter`] over `graph.edges_iter()`. This is
    /// the fold behind compaction ([`crate::OverlayGraph::snapshot`]),
    /// [`crate::GraphSnapshot::to_csr`] and
    /// [`crate::GraphStore::from_view`].
    pub fn from_view<G: GraphView>(graph: &G) -> Self {
        let (n, m) = (graph.num_nodes(), graph.num_edges());
        let mut out_offsets = Vec::with_capacity(n + 1);
        let mut out_targets = Vec::with_capacity(m);
        let mut in_offsets = Vec::with_capacity(n + 1);
        let mut in_sources = Vec::with_capacity(m);
        out_offsets.push(0);
        in_offsets.push(0);
        for v in graph.nodes() {
            out_targets.extend_from_slice(graph.out_neighbors(v));
            out_offsets.push(out_targets.len());
            in_sources.extend_from_slice(graph.in_neighbors(v));
            in_offsets.push(in_sources.len());
        }
        debug_assert_eq!((out_targets.len(), in_sources.len()), (m, m));
        CsrGraph {
            num_nodes: n,
            out_offsets,
            out_targets,
            in_offsets,
            in_sources,
        }
    }

    /// True when the directed edge `u -> v` exists. O(log deg(u)).
    #[inline]
    pub fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        self.out_neighbors(u).binary_search(&v).is_ok()
    }

    /// All edges in `(source, target)` order, sorted by source then target.
    pub fn edges(&self) -> Vec<Edge> {
        self.edges_iter().collect()
    }

    /// Iterates all edges in `(source, target)` order (sorted by source
    /// then target) without allocating — the non-allocating counterpart
    /// of [`CsrGraph::edges`].
    pub fn edges_iter(&self) -> impl Iterator<Item = Edge> + Clone + '_ {
        (0..self.num_nodes as NodeId)
            .flat_map(move |u| self.out_neighbors(u).iter().map(move |&v| (u, v)))
    }

    /// The transpose graph (every edge reversed). O(n + m); reuses the
    /// already-sorted adjacency arrays by swapping directions.
    pub fn transpose(&self) -> CsrGraph {
        CsrGraph {
            num_nodes: self.num_nodes,
            out_offsets: self.in_offsets.clone(),
            out_targets: self.in_sources.clone(),
            in_offsets: self.out_offsets.clone(),
            in_sources: self.out_targets.clone(),
        }
    }

    /// Approximate resident memory of the structure in bytes. Used by the
    /// Table 4 space-overhead accounting.
    pub fn memory_bytes(&self) -> usize {
        self.out_offsets.len() * std::mem::size_of::<usize>()
            + self.in_offsets.len() * std::mem::size_of::<usize>()
            + self.out_targets.len() * std::mem::size_of::<NodeId>()
            + self.in_sources.len() * std::mem::size_of::<NodeId>()
    }
}

impl GraphView for CsrGraph {
    #[inline]
    fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    #[inline]
    fn num_edges(&self) -> usize {
        self.out_targets.len()
    }

    #[inline]
    fn in_neighbors(&self, v: NodeId) -> &[NodeId] {
        let v = v as usize;
        &self.in_sources[self.in_offsets[v]..self.in_offsets[v + 1]]
    }

    #[inline]
    fn out_neighbors(&self, v: NodeId) -> &[NodeId] {
        let v = v as usize;
        &self.out_targets[self.out_offsets[v]..self.out_offsets[v + 1]]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond() -> CsrGraph {
        // 0 -> 1, 0 -> 2, 1 -> 3, 2 -> 3
        CsrGraph::from_edges(4, &[(0, 1), (0, 2), (1, 3), (2, 3)])
    }

    #[test]
    fn sizes() {
        let g = diamond();
        assert_eq!(g.num_nodes(), 4);
        assert_eq!(g.num_edges(), 4);
    }

    #[test]
    fn adjacency_is_sorted_and_correct() {
        let g = CsrGraph::from_edges(4, &[(0, 2), (0, 1), (3, 1), (2, 1)]);
        assert_eq!(g.out_neighbors(0), &[1, 2]);
        assert_eq!(g.in_neighbors(1), &[0, 2, 3]);
        assert_eq!(g.in_neighbors(0), &[] as &[NodeId]);
        assert_eq!(g.out_neighbors(1), &[] as &[NodeId]);
    }

    #[test]
    fn degrees() {
        let g = diamond();
        assert_eq!(g.out_degree(0), 2);
        assert_eq!(g.in_degree(3), 2);
        assert_eq!(g.in_degree(0), 0);
        assert!(!g.has_in_edges(0));
        assert!(g.has_in_edges(3));
    }

    #[test]
    fn has_edge_lookup() {
        let g = diamond();
        assert!(g.has_edge(0, 1));
        assert!(g.has_edge(2, 3));
        assert!(!g.has_edge(3, 2));
        assert!(!g.has_edge(0, 3));
    }

    #[test]
    fn edges_round_trip() {
        let edges = vec![(0, 1), (0, 2), (1, 3), (2, 3)];
        let g = CsrGraph::from_edges(4, &edges);
        assert_eq!(g.edges(), edges);
        let g2 = CsrGraph::from_edges(4, &g.edges());
        assert_eq!(g, g2);
    }

    #[test]
    fn from_view_copies_a_csr_exactly() {
        let g = CsrGraph::from_edges(5, &[(3, 0), (0, 2), (0, 1), (4, 0), (2, 1)]);
        assert_eq!(CsrGraph::from_view(&g), g);
        assert_eq!(
            CsrGraph::from_view(&CsrGraph::from_edges(0, &[])).num_nodes(),
            0
        );
    }

    #[test]
    fn transpose_reverses_edges() {
        let g = diamond();
        let t = g.transpose();
        assert_eq!(t.out_neighbors(3), &[1, 2]);
        assert_eq!(t.in_neighbors(1), &[3]);
        assert_eq!(t.transpose(), g);
    }

    #[test]
    fn parallel_edges_preserved() {
        // CSR itself is permissive; cleaning lives in GraphBuilder.
        let g = CsrGraph::from_edges(2, &[(0, 1), (0, 1)]);
        assert_eq!(g.num_edges(), 2);
        assert_eq!(g.out_neighbors(0), &[1, 1]);
    }

    #[test]
    fn empty_graph() {
        let g = CsrGraph::from_edges(0, &[]);
        assert_eq!(g.num_nodes(), 0);
        assert_eq!(g.num_edges(), 0);
        let g = CsrGraph::from_edges(5, &[]);
        assert_eq!(g.num_nodes(), 5);
        assert_eq!(g.in_neighbors(4), &[] as &[NodeId]);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn out_of_bounds_edge_panics() {
        let _ = CsrGraph::from_edges(2, &[(0, 2)]);
    }

    #[test]
    fn memory_accounting_scales_with_m() {
        let small = CsrGraph::from_edges(10, &[(0, 1)]);
        let big = CsrGraph::from_edges(10, &(0..9).map(|i| (i, i + 1)).collect::<Vec<_>>());
        assert!(big.memory_bytes() > small.memory_bytes());
    }
}
