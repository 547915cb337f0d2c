//! Edge-list ingestion and cleaning.
//!
//! The paper evaluates on "directed simple graphs" (no self-loops, no
//! parallel edges); undirected datasets such as HepTh are symmetrized.
//! [`GraphBuilder`] performs that normalization once, so the query-time
//! structures can stay permissive and fast.

use crate::{CsrGraph, Edge, NodeId};

/// Builds a clean [`CsrGraph`] from raw edges.
///
/// # Example
///
/// ```
/// use probesim_graph::{GraphBuilder, GraphView};
///
/// let g = GraphBuilder::new(3)
///     .undirected(true)
///     .add_edge(0, 1)
///     .add_edge(1, 2)
///     .add_edge(1, 2) // duplicate, removed
///     .add_edge(2, 2) // self-loop, removed
///     .build_csr();
/// assert_eq!(g.num_edges(), 4); // 0<->1, 1<->2
/// ```
#[derive(Debug, Clone)]
pub struct GraphBuilder {
    num_nodes: usize,
    edges: Vec<Edge>,
    undirected: bool,
    keep_self_loops: bool,
    keep_duplicates: bool,
}

impl GraphBuilder {
    /// A builder for a graph with `n` nodes.
    pub fn new(n: usize) -> Self {
        GraphBuilder {
            num_nodes: n,
            edges: Vec::new(),
            undirected: false,
            keep_self_loops: false,
            keep_duplicates: false,
        }
    }

    /// When true, every added edge `(u, v)` also contributes `(v, u)`.
    /// Matches how the paper treats undirected datasets.
    pub fn undirected(mut self, yes: bool) -> Self {
        self.undirected = yes;
        self
    }

    /// When true, self-loops are kept (default: removed, per the "simple
    /// graph" assumption in the paper's problem definition).
    pub fn keep_self_loops(mut self, yes: bool) -> Self {
        self.keep_self_loops = yes;
        self
    }

    /// When true, parallel edges are kept (default: de-duplicated).
    pub fn keep_duplicates(mut self, yes: bool) -> Self {
        self.keep_duplicates = yes;
        self
    }

    /// Adds one directed edge. Endpoints must be `< n`.
    pub fn add_edge(mut self, u: NodeId, v: NodeId) -> Self {
        self.push_edge(u, v);
        self
    }

    /// Adds one directed edge through a mutable reference (loop-friendly).
    pub fn push_edge(&mut self, u: NodeId, v: NodeId) {
        assert!(
            (u as usize) < self.num_nodes && (v as usize) < self.num_nodes,
            "edge ({u}, {v}) out of bounds for n = {}",
            self.num_nodes
        );
        self.edges.push((u, v));
    }

    /// Adds many edges at once.
    pub fn extend_edges<I: IntoIterator<Item = Edge>>(mut self, iter: I) -> Self {
        for (u, v) in iter {
            self.push_edge(u, v);
        }
        self
    }

    /// Number of raw (pre-cleaning) edges accumulated so far.
    pub fn raw_edge_count(&self) -> usize {
        self.edges.len()
    }

    fn cleaned_edges(&self) -> Vec<Edge> {
        let mut edges: Vec<Edge> =
            Vec::with_capacity(self.edges.len() * if self.undirected { 2 } else { 1 });
        for &(u, v) in &self.edges {
            if u == v && !self.keep_self_loops {
                continue;
            }
            edges.push((u, v));
            if self.undirected && u != v {
                edges.push((v, u));
            }
        }
        if !self.keep_duplicates {
            edges.sort_unstable();
            edges.dedup();
        }
        edges
    }

    /// Finalizes into an immutable [`CsrGraph`].
    pub fn build_csr(&self) -> CsrGraph {
        CsrGraph::from_edges(self.num_nodes, &self.cleaned_edges())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GraphView;

    #[test]
    fn deduplicates_by_default() {
        let g = GraphBuilder::new(2)
            .add_edge(0, 1)
            .add_edge(0, 1)
            .build_csr();
        assert_eq!(g.num_edges(), 1);
    }

    #[test]
    fn keeps_duplicates_when_asked() {
        let g = GraphBuilder::new(2)
            .keep_duplicates(true)
            .add_edge(0, 1)
            .add_edge(0, 1)
            .build_csr();
        assert_eq!(g.num_edges(), 2);
    }

    #[test]
    fn removes_self_loops_by_default() {
        let g = GraphBuilder::new(2)
            .add_edge(1, 1)
            .add_edge(0, 1)
            .build_csr();
        assert_eq!(g.num_edges(), 1);
        assert!(!g.has_edge(1, 1));
    }

    #[test]
    fn keeps_self_loops_when_asked() {
        let g = GraphBuilder::new(2)
            .keep_self_loops(true)
            .add_edge(1, 1)
            .build_csr();
        assert!(g.has_edge(1, 1));
    }

    #[test]
    fn undirected_symmetrizes() {
        let g = GraphBuilder::new(3)
            .undirected(true)
            .add_edge(0, 1)
            .add_edge(1, 2)
            .build_csr();
        assert!(g.has_edge(0, 1) && g.has_edge(1, 0));
        assert!(g.has_edge(1, 2) && g.has_edge(2, 1));
        assert_eq!(g.num_edges(), 4);
    }

    #[test]
    fn undirected_dedup_of_both_orientations() {
        // (0,1) and (1,0) both given: symmetrization + dedup must yield 2.
        let g = GraphBuilder::new(2)
            .undirected(true)
            .add_edge(0, 1)
            .add_edge(1, 0)
            .build_csr();
        assert_eq!(g.num_edges(), 2);
    }

    #[test]
    fn extend_and_raw_count() {
        let b = GraphBuilder::new(4).extend_edges(vec![(0, 1), (1, 2), (2, 3)]);
        assert_eq!(b.raw_edge_count(), 3);
        assert_eq!(b.build_csr().num_edges(), 3);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn bad_edge_panics() {
        let _ = GraphBuilder::new(1).add_edge(0, 1);
    }
}
