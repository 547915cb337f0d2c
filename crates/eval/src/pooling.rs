//! Pooling-based evaluation for graphs too large for exact ground truth
//! (Section 6.2 of the paper — "the first empirical study that evaluates
//! the effectiveness of SimRank algorithms on graphs with billion edges").
//!
//! Exact SimRank on a large graph is unobtainable, so the paper borrows
//! *pooling* from IR evaluation: merge the top-k answers of all competing
//! algorithms into a candidate pool, have a high-precision "expert" (the
//! single-pair Monte Carlo estimator with error ≤ 1e-4 at 99.999%
//! confidence) score every pooled node, and use the expert's top-k as the
//! ground truth for Precision@k / NDCG@k / τk. The pooled truth is the
//! best answer any of the participating algorithms could have produced.

use probesim_baselines::MonteCarlo;
use probesim_graph::hash::FxHashMap;
use probesim_graph::{CsrGraph, NodeId};

/// The pooled ground truth for one query node.
#[derive(Debug, Clone)]
pub struct Pool {
    /// The query node.
    pub query: NodeId,
    /// Expert scores for every pooled candidate.
    pub expert_scores: FxHashMap<NodeId, f64>,
    /// The expert's top-k over the pool (descending, id tie-break).
    pub truth_top_k: Vec<(NodeId, f64)>,
}

impl Pool {
    /// Builds a pool for `query` from the top-k lists returned by the
    /// participating algorithms, scoring candidates with `expert`.
    pub fn build(
        graph: &CsrGraph,
        query: NodeId,
        candidate_lists: &[Vec<(NodeId, f64)>],
        expert: &MonteCarlo,
        k: usize,
    ) -> Pool {
        let mut pool_nodes: Vec<NodeId> = candidate_lists
            .iter()
            .flat_map(|list| list.iter().map(|&(v, _)| v))
            .filter(|&v| v != query)
            .collect();
        pool_nodes.sort_unstable();
        pool_nodes.dedup();
        // The expert is the dominant cost of pooling (a high-precision MC
        // estimate per candidate); fan it out over the machine's cores.
        let scores =
            crate::parallel::run_queries(&pool_nodes, probesim_core::par::default_threads(), |v| {
                expert.pair(graph, query, v)
            });
        let expert_scores: FxHashMap<NodeId, f64> =
            pool_nodes.iter().copied().zip(scores).collect();
        let mut ranked: Vec<(NodeId, f64)> = expert_scores.iter().map(|(&v, &s)| (v, s)).collect();
        ranked.sort_unstable_by(|a, b| {
            b.1.partial_cmp(&a.1)
                .expect("invariant: expert scores are never NaN")
                .then_with(|| a.0.cmp(&b.0))
        });
        ranked.truncate(k);
        Pool {
            query,
            expert_scores,
            truth_top_k: ranked,
        }
    }

    /// The truth list as bare node ids (for Precision@k).
    pub fn truth_ids(&self) -> Vec<NodeId> {
        self.truth_top_k.iter().map(|&(v, _)| v).collect()
    }

    /// Number of distinct pooled candidates.
    pub fn pool_size(&self) -> usize {
        self.expert_scores.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use probesim_graph::toy::{toy_graph, A, D, TABLE2, TOY_DECAY};

    fn expert() -> MonteCarlo {
        MonteCarlo::new(TOY_DECAY, 30_000).with_seed(99)
    }

    #[test]
    fn pool_merges_and_dedups_candidates() {
        let g = toy_graph();
        let lists = vec![vec![(3u32, 0.2), (4, 0.1)], vec![(3u32, 0.15), (5, 0.05)]];
        let pool = Pool::build(&g, A, &lists, &expert(), 3);
        assert_eq!(pool.pool_size(), 3); // {3, 4, 5}
        assert_eq!(pool.truth_top_k.len(), 3);
    }

    #[test]
    fn expert_ranking_matches_ground_truth_on_toy_graph() {
        // Pool everything; the expert's order must match Table 2's order.
        let g = toy_graph();
        let all: Vec<(NodeId, f64)> = (1..8u32).map(|v| (v, 0.0)).collect();
        let pool = Pool::build(&g, A, &[all], &expert(), 3);
        assert_eq!(pool.truth_top_k[0].0, D, "d is the true top-1");
        for &(v, s) in &pool.truth_top_k {
            assert!(
                (s - TABLE2[v as usize]).abs() < 0.01,
                "expert score for {v}: {s} vs {}",
                TABLE2[v as usize]
            );
        }
    }

    #[test]
    fn query_node_is_excluded_from_pool() {
        let g = toy_graph();
        let lists = vec![vec![(A, 1.0), (3u32, 0.2)]];
        let pool = Pool::build(&g, A, &lists, &expert(), 5);
        assert!(!pool.expert_scores.contains_key(&A));
    }

    #[test]
    fn truth_is_sorted_descending() {
        let g = toy_graph();
        let all: Vec<(NodeId, f64)> = (1..8u32).map(|v| (v, 0.0)).collect();
        let pool = Pool::build(&g, A, &[all], &expert(), 7);
        for w in pool.truth_top_k.windows(2) {
            assert!(w[0].1 >= w[1].1);
        }
    }
}
