//! Query-workload generation.
//!
//! The paper's protocol: "we select 100 nodes uniformly at random from
//! those with nonzero in-degrees" (20 on the large graphs). Nodes with no
//! in-edges have `s(u, v) = 0` for every `v`, so querying them is
//! uninteresting; the nonzero-in-degree restriction is what makes the
//! accuracy numbers meaningful.

use probesim_graph::{GraphView, NodeId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Samples `count` distinct query nodes uniformly from the nodes with
/// nonzero in-degree. Returns fewer when the graph has fewer eligible
/// nodes. Deterministic in `seed`.
pub fn sample_query_nodes<G: GraphView>(graph: &G, count: usize, seed: u64) -> Vec<NodeId> {
    let eligible: Vec<NodeId> = graph.nodes().filter(|&v| graph.has_in_edges(v)).collect();
    let mut rng = StdRng::seed_from_u64(seed);
    if eligible.len() <= count {
        return eligible;
    }
    // Partial Fisher–Yates over an index vector.
    let mut pool = eligible;
    for i in 0..count {
        let j = rng.gen_range(i..pool.len());
        pool.swap(i, j);
    }
    pool.truncate(count);
    pool
}

/// A Zipf-ish rank sampler over `0..distinct`: rank `r` is drawn with
/// probability proportional to `1/(r+1)` by inverse CDF over the
/// harmonic weights.
///
/// Repeat-heavy query streams (result-cache benchmarks, the
/// `serve-bench` CLI) share this so the skew definition cannot drift
/// between call sites. The draw source is a plain uniform `f64` in
/// `[0, 1)`, so callers bring their own RNG — the seeded `StdRng` shim
/// or a dependency-free bit mixer alike.
#[derive(Debug, Clone)]
pub struct ZipfRanks {
    /// Cumulative (unnormalized) harmonic weights; the last entry is the
    /// total mass.
    cumulative: Vec<f64>,
}

impl ZipfRanks {
    /// A sampler over ranks `0..distinct` (`distinct` is clamped to at
    /// least 1).
    pub fn new(distinct: usize) -> ZipfRanks {
        let mut acc = 0.0;
        let cumulative = (0..distinct.max(1))
            .map(|r| {
                acc += 1.0 / (r + 1) as f64;
                acc
            })
            .collect();
        ZipfRanks { cumulative }
    }

    /// Number of ranks.
    pub fn distinct(&self) -> usize {
        self.cumulative.len()
    }

    /// Maps a uniform draw `unit ∈ [0, 1)` to a rank.
    pub fn rank(&self, unit: f64) -> usize {
        let total = *self
            .cumulative
            .last()
            .expect("invariant: the table holds at least one rank");
        let draw = unit * total;
        self.cumulative.iter().position(|&c| draw <= c).unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use probesim_graph::CsrGraph;

    fn fringe_graph() -> CsrGraph {
        // Nodes 0..5 form a cycle (in-degree 1); nodes 5..20 have no
        // in-edges.
        let mut edges: Vec<(u32, u32)> = (0..5u32).map(|i| (i, (i + 1) % 5)).collect();
        edges.extend((5..20u32).map(|i| (i, i % 5)));
        CsrGraph::from_edges(20, &edges)
    }

    #[test]
    fn only_nonzero_in_degree_nodes_are_sampled() {
        let g = fringe_graph();
        let qs = sample_query_nodes(&g, 100, 1);
        assert!(!qs.is_empty());
        for &q in &qs {
            assert!(g.has_in_edges(q), "node {q} has no in-edges");
        }
    }

    #[test]
    fn requesting_more_than_eligible_returns_all() {
        let g = fringe_graph();
        let qs = sample_query_nodes(&g, 1000, 2);
        assert_eq!(qs.len(), 5);
    }

    #[test]
    fn samples_are_distinct_and_deterministic() {
        let g = fringe_graph();
        let a = sample_query_nodes(&g, 3, 42);
        let b = sample_query_nodes(&g, 3, 42);
        assert_eq!(a, b);
        let mut sorted = a.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), a.len(), "duplicates in sample");
    }

    #[test]
    fn different_seeds_vary() {
        let g = fringe_graph();
        let draws: std::collections::HashSet<Vec<u32>> =
            (0..20).map(|s| sample_query_nodes(&g, 3, s)).collect();
        assert!(draws.len() > 1);
    }

    #[test]
    fn zipf_ranks_follow_the_harmonic_skew() {
        let zipf = ZipfRanks::new(4);
        assert_eq!(zipf.distinct(), 4);
        // Harmonic CDF over 1, 1/2, 1/3, 1/4 (total 25/12): unit just
        // below each boundary maps to that rank.
        let total = 1.0 + 0.5 + 1.0 / 3.0 + 0.25;
        assert_eq!(zipf.rank(0.0), 0);
        assert_eq!(zipf.rank(0.9 / total), 0);
        assert_eq!(zipf.rank(1.1 / total), 1);
        assert_eq!(zipf.rank(1.6 / total), 2);
        assert_eq!(zipf.rank(1.9 / total), 3);
        // Empirically, rank 0 dominates a uniform sweep.
        let counts =
            (0..1000)
                .map(|i| zipf.rank(i as f64 / 1000.0))
                .fold([0usize; 4], |mut acc, r| {
                    acc[r] += 1;
                    acc
                });
        assert!(counts[0] > counts[1] && counts[1] > counts[2] && counts[2] > counts[3]);
        // Degenerate sizes stay usable.
        assert_eq!(ZipfRanks::new(0).distinct(), 1);
        assert_eq!(ZipfRanks::new(1).rank(0.999), 0);
    }
}
