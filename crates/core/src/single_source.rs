//! The single-source query drivers: Algorithm 1 (per-walk) and
//! Algorithm 3 (batched via the walk trie), with any PROBE strategy.
//!
//! [`ProbeSim`] holds only configuration; execution state (workspace,
//! accumulator, RNG stream) lives in a [`crate::session::QuerySession`].
//! The methods here are thin convenience wrappers that spin up a
//! throwaway session per call — repeated-query workloads should create a
//! session once and reuse it (see the crate docs).

use probesim_graph::{GraphView, NodeId};
use rand::Rng;

use crate::accum::ScoreSink;
use crate::budget::BudgetExceeded;
use crate::config::{ProbeSimConfig, ProbeStrategy};
use crate::probe::{self, ProbeParams};
use crate::result::{QueryStats, SingleSourceResult};
use crate::session::{Query, QueryError};
use crate::trie::WalkTrie;
use crate::walk;
use crate::workspace::ProbeWorkspace;

/// The ProbeSim query engine.
///
/// Holds only configuration — there is no index to build or maintain, so
/// the same engine answers queries against any [`GraphView`], including a
/// live [`probesim_graph::GraphStore`] between updates.
#[derive(Debug, Clone)]
pub struct ProbeSim {
    config: ProbeSimConfig,
}

impl ProbeSim {
    /// Creates an engine from a configuration.
    pub fn new(config: ProbeSimConfig) -> Self {
        ProbeSim { config }
    }

    /// The engine's configuration.
    pub fn config(&self) -> &ProbeSimConfig {
        &self.config
    }

    /// Answers an approximate single-source SimRank query (Definition 1):
    /// with probability ≥ 1 − δ, every returned estimate is within `εa` of
    /// the true SimRank.
    ///
    /// The RNG is seeded from `config.seed` and the query node, so repeated
    /// identical calls return identical estimates.
    ///
    /// Convenience wrapper over a throwaway [`crate::session::QuerySession`]; panics on an
    /// invalid query node — use [`ProbeSim::try_single_source`] for a
    /// fallible variant, and a long-lived session to amortize scratch
    /// allocation across queries.
    pub fn single_source<G: GraphView>(&self, graph: &G, u: NodeId) -> SingleSourceResult {
        self.try_single_source(graph, u)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible [`ProbeSim::single_source`]: rejects out-of-range nodes and
    /// empty graphs instead of panicking.
    pub fn try_single_source<G: GraphView>(
        &self,
        graph: &G,
        u: NodeId,
    ) -> Result<SingleSourceResult, QueryError> {
        let output = self.session(graph).run(Query::SingleSource { node: u })?;
        Ok(output.into_single_source())
    }

    /// Answers an approximate top-k SimRank query (Definition 2): the `k`
    /// nodes most similar to `u`, each true score within `εa` of the true
    /// i-th largest with probability ≥ 1 − δ.
    ///
    /// Convenience wrapper over a throwaway [`crate::session::QuerySession`]; panics on an
    /// invalid query — see [`ProbeSim::try_top_k`].
    pub fn top_k<G: GraphView>(&self, graph: &G, u: NodeId, k: usize) -> Vec<(NodeId, f64)> {
        self.try_top_k(graph, u, k)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible [`ProbeSim::top_k`]: rejects out-of-range nodes and empty
    /// graphs instead of panicking.
    ///
    /// `k = 0` keeps the legacy wrapper semantics and returns an empty
    /// ranking (the node is still validated); the strict session API
    /// ([`Query::TopK`]) rejects `k = 0` as [`QueryError::InvalidK`].
    pub fn try_top_k<G: GraphView>(
        &self,
        graph: &G,
        u: NodeId,
        k: usize,
    ) -> Result<Vec<(NodeId, f64)>, QueryError> {
        if k == 0 {
            crate::session::validate(graph, &Query::SingleSource { node: u })?;
            return Ok(Vec::new());
        }
        let output = self.session(graph).run(Query::TopK { node: u, k })?;
        Ok(output.ranking())
    }

    /// The paper-faithful reference implementation: a fresh dense `Vec<f64>`
    /// accumulator and a fresh [`ProbeWorkspace`] per call, exactly the
    /// allocation profile of the original one-shot API.
    ///
    /// Kept public (but hidden from docs) so the equivalence property tests
    /// can compare the pooled session path against it;
    /// `SparseScores::to_dense` must match this bit-for-bit.
    #[doc(hidden)]
    pub fn single_source_dense_reference<G: GraphView>(
        &self,
        graph: &G,
        u: NodeId,
    ) -> SingleSourceResult {
        let n = graph.num_nodes();
        assert!((u as usize) < n, "query node {u} out of range (n = {n})");
        let mut rng = crate::session::query_rng(self.config.seed, u);
        let budget = self.config.budget();
        let nr = self.config.num_walks(n).max(1);
        let params = ProbeParams {
            sqrt_c: self.config.sqrt_decay(),
            epsilon_p: budget.pruning,
        };
        let mut stats = QueryStats::default();
        let mut acc = vec![0.0f64; n];
        let mut ws = ProbeWorkspace::new(n);
        let run = if self.config.optimizations.batch_walks {
            self.run_batched(
                graph,
                u,
                nr,
                &params,
                budget.walk_cap,
                &mut ws,
                &mut acc,
                &mut stats,
                &mut rng,
            )
        } else {
            self.run_unbatched(
                graph,
                u,
                nr,
                &params,
                budget.walk_cap,
                &mut ws,
                &mut acc,
                &mut stats,
                &mut rng,
            )
        };
        run.expect("invariant: a fresh workspace carries an unlimited budget");
        acc[u as usize] = 1.0;
        SingleSourceResult {
            query: u,
            scores: acc,
            stats,
        }
    }

    /// Algorithm 1: probe every prefix of every walk independently.
    ///
    /// Returns [`BudgetExceeded`] when the workspace's armed
    /// [`crate::ProbeBudget`] trips between expansions (the caller — the
    /// session — resets the scratch and surfaces a typed
    /// [`QueryError`](crate::QueryError) with partial stats).
    // The flat list keeps the borrow splits (accumulator vs workspace
    // vs rng) visible at the call site; a struct would force them
    // through one &mut.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn run_unbatched<G: GraphView, A: ScoreSink + ?Sized, R: Rng>(
        &self,
        graph: &G,
        u: NodeId,
        nr: usize,
        params: &ProbeParams,
        walk_cap: usize,
        ws: &mut ProbeWorkspace,
        acc: &mut A,
        stats: &mut QueryStats,
        rng: &mut R,
    ) -> Result<(), BudgetExceeded> {
        let weight = 1.0 / nr as f64;
        let sqrt_c = self.config.sqrt_decay();
        let strategy = self.config.optimizations.strategy;
        let c0 = self.config.optimizations.hybrid_c0;
        let mut walk_buf: Vec<NodeId> = Vec::with_capacity(8);
        for _ in 0..nr {
            ws.budget.check(stats)?;
            walk_buf.clear();
            walk_buf.push(u);
            walk::extend_walk(graph, &mut walk_buf, sqrt_c, walk_cap, rng);
            stats.walks += 1;
            stats.walk_nodes += walk_buf.len();
            if walk_buf.len() == walk_cap {
                stats.truncated_walks += 1;
            }
            for i in 2..=walk_buf.len() {
                let path = &walk_buf[..i];
                match strategy {
                    ProbeStrategy::Deterministic => {
                        probe::deterministic(graph, path, params, weight, ws, acc, stats)?;
                    }
                    ProbeStrategy::Randomized => {
                        probe::randomized(graph, path, params, weight, ws, acc, stats, rng)?;
                    }
                    ProbeStrategy::Hybrid => {
                        probe::hybrid(graph, path, params, weight, 1, c0, ws, acc, stats, rng)?;
                    }
                }
            }
        }
        Ok(())
    }

    /// Algorithm 3: insert all walks into the reverse-reachability trie,
    /// then batch the probes over it. With `Optimizations::fuse_probes`
    /// (the default) the whole trie runs as one level-synchronous fused
    /// sweep ([`crate::frontier`]); otherwise each distinct prefix is
    /// probed independently with weight `w/nr` (the legacy per-prefix
    /// path, kept for A/B contrast and property tests).
    ///
    /// On the per-prefix path with the `Randomized` strategy, a prefix of
    /// weight `w` still needs `w` independent probes for unbiasedness
    /// (Section 4.4's motivating observation); the `Hybrid` strategy is
    /// what makes per-prefix batching pay off in the worst case. The
    /// fused path instead makes the single draw weight-proportional.
    // Same flat parameter list as run_unbatched, same borrow-split
    // reason.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn run_batched<G: GraphView, A: ScoreSink + ?Sized, R: Rng>(
        &self,
        graph: &G,
        u: NodeId,
        nr: usize,
        params: &ProbeParams,
        walk_cap: usize,
        ws: &mut ProbeWorkspace,
        acc: &mut A,
        stats: &mut QueryStats,
        rng: &mut R,
    ) -> Result<(), BudgetExceeded> {
        let sqrt_c = self.config.sqrt_decay();
        let strategy = self.config.optimizations.strategy;
        let mut trie = WalkTrie::new(u);
        let mut walk_buf: Vec<NodeId> = Vec::with_capacity(8);
        for _ in 0..nr {
            ws.budget.check(stats)?;
            walk_buf.clear();
            walk_buf.push(u);
            walk::extend_walk(graph, &mut walk_buf, sqrt_c, walk_cap, rng);
            stats.walks += 1;
            stats.walk_nodes += walk_buf.len();
            if walk_buf.len() == walk_cap {
                stats.truncated_walks += 1;
            }
            trie.insert(&walk_buf);
        }
        if self.config.optimizations.fuse_probes {
            return crate::frontier::run_fused(
                graph, &trie, nr, params, strategy, ws, acc, stats, rng,
            );
        }
        let c0 = self.config.optimizations.hybrid_c0;
        let inv_nr = 1.0 / nr as f64;
        trie.try_for_each_prefix(|path, w| {
            stats.trie_prefixes += 1;
            let weight = w as f64 * inv_nr;
            match strategy {
                ProbeStrategy::Deterministic => {
                    probe::deterministic(graph, path, params, weight, ws, acc, stats)?;
                }
                ProbeStrategy::Randomized => {
                    // w independent probes, each carrying weight/w.
                    let per = weight / w as f64;
                    for _ in 0..w {
                        probe::randomized(graph, path, params, per, ws, acc, stats, rng)?;
                    }
                }
                ProbeStrategy::Hybrid => {
                    probe::hybrid(
                        graph, path, params, weight, w as usize, c0, ws, acc, stats, rng,
                    )?;
                }
            }
            Ok(())
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Optimizations;
    use probesim_graph::toy::{toy_graph, A, D, TABLE2, TOY_DECAY};
    use probesim_graph::{CsrGraph, GraphStore};

    fn toy_config(epsilon: f64) -> ProbeSimConfig {
        ProbeSimConfig::new(TOY_DECAY, epsilon, 0.01).with_seed(0xBEEF)
    }

    #[test]
    fn toy_graph_single_source_matches_table2() {
        let g = toy_graph();
        let engine = ProbeSim::new(toy_config(0.05));
        let result = engine.single_source(&g, A);
        for (v, &expected) in TABLE2.iter().enumerate() {
            let err = (result.scores[v] - expected).abs();
            assert!(
                err <= 0.05,
                "node {v}: estimate {} vs table {expected} (err {err})",
                result.scores[v],
            );
        }
        assert_eq!(result.score(A), 1.0);
    }

    #[test]
    fn all_strategies_agree_within_epsilon() {
        let g = toy_graph();
        for strategy in [
            ProbeStrategy::Deterministic,
            ProbeStrategy::Randomized,
            ProbeStrategy::Hybrid,
        ] {
            let mut cfg = toy_config(0.06);
            cfg.optimizations.strategy = strategy;
            let result = ProbeSim::new(cfg).single_source(&g, A);
            for (v, &expected) in TABLE2.iter().enumerate() {
                let err = (result.scores[v] - expected).abs();
                assert!(err <= 0.06, "{strategy:?} node {v}: err {err}");
            }
        }
    }

    #[test]
    fn batched_and_unbatched_agree() {
        // Pinned to the legacy per-prefix path: this is the Algorithm 3
        // (trie batching) vs Algorithm 1 equivalence. The fused engine's
        // own equivalence properties live in tests/fused_probe.rs.
        let g = toy_graph();
        let mut cfg = toy_config(0.05);
        cfg.optimizations.strategy = ProbeStrategy::Deterministic;
        cfg.optimizations.batch_walks = true;
        cfg.optimizations.fuse_probes = false;
        let batched = ProbeSim::new(cfg.clone()).single_source(&g, A);
        cfg.optimizations.batch_walks = false;
        let unbatched = ProbeSim::new(cfg).single_source(&g, A);
        // Same seed => same walks => identical deterministic estimates.
        for v in 0..8 {
            assert!(
                (batched.scores[v] - unbatched.scores[v]).abs() < 1e-9,
                "node {v}: {} vs {}",
                batched.scores[v],
                unbatched.scores[v]
            );
        }
        assert!(batched.stats.trie_prefixes > 0);
        assert!(batched.stats.probes <= unbatched.stats.probes);
    }

    #[test]
    fn basic_unoptimized_configuration_works() {
        let g = toy_graph();
        let cfg = toy_config(0.08).with_optimizations(Optimizations::basic());
        let result = ProbeSim::new(cfg).single_source(&g, A);
        for (v, &expected) in TABLE2.iter().enumerate() {
            assert!((result.scores[v] - expected).abs() <= 0.08, "node {v}");
        }
        assert_eq!(result.stats.trie_prefixes, 0);
        assert_eq!(result.stats.truncated_walks, 0);
    }

    #[test]
    fn top_k_finds_d_first_on_toy_graph() {
        // Table 2: d (0.131) is the most similar node to a.
        let g = toy_graph();
        let top = ProbeSim::new(toy_config(0.03)).top_k(&g, A, 3);
        assert_eq!(top[0].0, D);
        assert_eq!(top.len(), 3);
        assert!(top[0].1 >= top[1].1 && top[1].1 >= top[2].1);
    }

    #[test]
    fn deterministic_given_same_seed() {
        let g = toy_graph();
        let engine = ProbeSim::new(toy_config(0.1));
        let a = engine.single_source(&g, A);
        let b = engine.single_source(&g, A);
        assert_eq!(a.scores, b.scores);
    }

    #[test]
    fn different_seeds_give_different_estimates() {
        let g = toy_graph();
        let a = ProbeSim::new(toy_config(0.1).with_seed(1)).single_source(&g, A);
        let b = ProbeSim::new(toy_config(0.1).with_seed(2)).single_source(&g, A);
        assert_ne!(a.scores, b.scores);
    }

    #[test]
    fn wrapper_matches_dense_reference_bitwise() {
        // The session-backed wrapper and the legacy dense path must be
        // indistinguishable, not merely close.
        let g = toy_graph();
        for strategy in [
            ProbeStrategy::Deterministic,
            ProbeStrategy::Randomized,
            ProbeStrategy::Hybrid,
        ] {
            for batch in [false, true] {
                let mut cfg = toy_config(0.06);
                cfg.optimizations.strategy = strategy;
                cfg.optimizations.batch_walks = batch;
                let engine = ProbeSim::new(cfg);
                let wrapped = engine.single_source(&g, A);
                let reference = engine.single_source_dense_reference(&g, A);
                assert_eq!(wrapped.scores, reference.scores, "{strategy:?}/{batch}");
                assert_eq!(wrapped.stats, reference.stats, "{strategy:?}/{batch}");
            }
        }
    }

    #[test]
    fn works_on_dynamic_graph_and_tracks_updates() {
        // Remove every edge into/out of g's community and verify scores
        // react: an isolated query node has similarity 0 to everyone.
        let mut g = GraphStore::from_edges(8, &probesim_graph::toy::toy_edges());
        let engine = ProbeSim::new(toy_config(0.05));
        let before = engine.single_source(&g, A);
        assert!(before.scores[D as usize] > 0.05);
        // Cut a's in-edges: s(a, v) = 0 for all v != a.
        g.remove_edge(probesim_graph::toy::B, A);
        g.remove_edge(probesim_graph::toy::C, A);
        let after = engine.single_source(&g, A);
        for v in 1..8 {
            assert!(
                after.scores[v] <= 0.02,
                "node {v} still has score {} after isolation",
                after.scores[v]
            );
        }
    }

    #[test]
    fn query_on_node_without_in_edges_returns_zeros() {
        let g = CsrGraph::from_edges(3, &[(0, 1), (0, 2)]);
        let result = ProbeSim::new(toy_config(0.1)).single_source(&g, 0);
        assert_eq!(result.scores[1], 0.0);
        assert_eq!(result.scores[2], 0.0);
        assert_eq!(result.scores[0], 1.0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_out_of_range_query() {
        let g = toy_graph();
        let _ = ProbeSim::new(toy_config(0.1)).single_source(&g, 99);
    }

    #[test]
    fn try_variants_return_errors_instead_of_panicking() {
        let g = toy_graph();
        let engine = ProbeSim::new(toy_config(0.1));
        assert!(matches!(
            engine.try_single_source(&g, 99),
            Err(QueryError::NodeOutOfRange {
                node: 99,
                num_nodes: 8
            })
        ));
        // k = 0 keeps legacy wrapper semantics: empty ranking, validated
        // node; the strict Query::TopK surface still rejects it.
        assert_eq!(engine.try_top_k(&g, A, 0), Ok(Vec::new()));
        assert!(engine.top_k(&g, A, 0).is_empty());
        assert!(matches!(
            engine.try_top_k(&g, 99, 0),
            Err(QueryError::NodeOutOfRange { node: 99, .. })
        ));
        assert!(engine.try_single_source(&g, A).is_ok());
    }
}
