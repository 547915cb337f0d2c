//! Uniform adapter layer over every SimRank engine in the workspace.
//!
//! The experiment harness (Figures 4–10, Table 4) drives six algorithms
//! through one interface: build (index construction, a no-op for the
//! index-free methods), single-source query, top-k query, and space
//! accounting. The adapters own per-algorithm state (e.g. the TSF index)
//! so a harness loop stays a few lines per figure.
//!
//! [`SimRankAlgorithm`] is generic over the graph representation
//! (`G: GraphView`, default [`CsrGraph`]), so the same roster runs against
//! an immutable CSR snapshot *or* a live
//! [`probesim_graph::GraphStore`] — the paper's dynamic-graph story can
//! be driven through the harness end-to-end. Every adapter implements the
//! trait for all `G: GraphView`.

use probesim_baselines::{
    FingerprintConfig, FingerprintIndex, MonteCarlo, TopSim, TopSimConfig, Tsf, TsfConfig,
};
use probesim_core::{ProbeSim, ProbeSimConfig, Query};
use probesim_graph::{CsrGraph, GraphView, NodeId};

/// A SimRank engine the harness can drive uniformly against any graph
/// representation implementing [`GraphView`].
pub trait SimRankAlgorithm<G: GraphView = CsrGraph> {
    /// Display name, matching the paper's figures where applicable.
    fn name(&self) -> String;

    /// One-time preparation against a fixed graph (index construction).
    /// Index-free algorithms do nothing.
    fn prepare(&mut self, _graph: &G) {}

    /// Answers a single-source query: `s̃(u, v)` for all `v`.
    fn single_source(&mut self, graph: &G, u: NodeId) -> Vec<f64>;

    /// Answers a top-k query; default: rank the single-source answer.
    fn top_k(&mut self, graph: &G, u: NodeId, k: usize) -> Vec<(NodeId, f64)> {
        let scores = self.single_source(graph, u);
        probesim_core::top_k_from_scores(&scores, u, k)
    }

    /// Bytes of auxiliary index state held between queries (Table 4's
    /// space-overhead column). Zero for index-free methods.
    fn index_bytes(&self) -> usize {
        0
    }
}

/// ProbeSim adapter, driven through the session API.
pub struct ProbeSimAlgo {
    engine: ProbeSim,
}

impl ProbeSimAlgo {
    /// Wraps a configured engine.
    pub fn new(config: ProbeSimConfig) -> Self {
        ProbeSimAlgo {
            engine: ProbeSim::new(config),
        }
    }

    /// Display name (inherent so callers need no graph-type annotation).
    pub fn name(&self) -> String {
        format!("ProbeSim(eps={})", self.engine.config().epsilon)
    }
}

impl<G: GraphView> SimRankAlgorithm<G> for ProbeSimAlgo {
    fn name(&self) -> String {
        ProbeSimAlgo::name(self)
    }

    fn single_source(&mut self, graph: &G, u: NodeId) -> Vec<f64> {
        self.engine
            .session(graph)
            .run(Query::SingleSource { node: u })
            .unwrap_or_else(|e| panic!("harness query invalid: {e}"))
            .scores
            .to_dense()
    }

    fn top_k(&mut self, graph: &G, u: NodeId, k: usize) -> Vec<(NodeId, f64)> {
        self.engine
            .session(graph)
            .run(Query::TopK { node: u, k })
            .unwrap_or_else(|e| panic!("harness query invalid: {e}"))
            .ranking()
    }
}

/// Monte Carlo adapter.
pub struct McAlgo {
    mc: MonteCarlo,
}

impl McAlgo {
    /// Wraps a configured estimator.
    pub fn new(mc: MonteCarlo) -> Self {
        McAlgo { mc }
    }

    /// Display name (inherent so callers need no graph-type annotation).
    pub fn name(&self) -> String {
        format!("MC(r={})", self.mc.num_walks)
    }
}

impl<G: GraphView> SimRankAlgorithm<G> for McAlgo {
    fn name(&self) -> String {
        McAlgo::name(self)
    }

    fn single_source(&mut self, graph: &G, u: NodeId) -> Vec<f64> {
        self.mc.single_source(graph, u)
    }
}

/// TSF adapter; owns the one-way-graph index.
pub struct TsfAlgo {
    config: TsfConfig,
    index: Option<Tsf>,
}

impl TsfAlgo {
    /// An adapter that will build its index on [`SimRankAlgorithm::prepare`].
    pub fn new(config: TsfConfig) -> Self {
        TsfAlgo {
            config,
            index: None,
        }
    }

    /// Display name (inherent so callers need no graph-type annotation).
    pub fn name(&self) -> String {
        format!("TSF(Rg={},Rq={})", self.config.rg, self.config.rq)
    }

    /// Index footprint in bytes (0 before the index is built).
    pub fn index_bytes(&self) -> usize {
        self.index.as_ref().map_or(0, Tsf::index_bytes)
    }
}

impl<G: GraphView> SimRankAlgorithm<G> for TsfAlgo {
    fn name(&self) -> String {
        TsfAlgo::name(self)
    }

    fn prepare(&mut self, graph: &G) {
        self.index = Some(Tsf::build(graph, self.config));
    }

    fn single_source(&mut self, graph: &G, u: NodeId) -> Vec<f64> {
        if self.index.is_none() {
            SimRankAlgorithm::<G>::prepare(self, graph);
        }
        self.index
            .as_ref()
            .expect("invariant: index built above")
            .single_source(graph, u)
    }

    fn index_bytes(&self) -> usize {
        TsfAlgo::index_bytes(self)
    }
}

/// Fingerprint-index adapter (Fogaras–Rácz precomputed walks); owns the
/// stored-walk index.
pub struct FingerprintAlgo {
    config: FingerprintConfig,
    index: Option<FingerprintIndex>,
}

impl FingerprintAlgo {
    /// An adapter that builds its index on [`SimRankAlgorithm::prepare`].
    pub fn new(config: FingerprintConfig) -> Self {
        FingerprintAlgo {
            config,
            index: None,
        }
    }

    /// Display name (inherent so callers need no graph-type annotation).
    pub fn name(&self) -> String {
        format!("Fingerprint(r={})", self.config.num_walks)
    }

    /// Index footprint in bytes (0 before the index is built).
    pub fn index_bytes(&self) -> usize {
        self.index.as_ref().map_or(0, FingerprintIndex::index_bytes)
    }
}

impl<G: GraphView> SimRankAlgorithm<G> for FingerprintAlgo {
    fn name(&self) -> String {
        FingerprintAlgo::name(self)
    }

    fn prepare(&mut self, graph: &G) {
        self.index = Some(FingerprintIndex::build(graph, self.config));
    }

    fn single_source(&mut self, graph: &G, u: NodeId) -> Vec<f64> {
        if self.index.is_none() {
            SimRankAlgorithm::<G>::prepare(self, graph);
        }
        self.index
            .as_ref()
            .expect("invariant: index built above")
            .single_source(u)
    }

    fn index_bytes(&self) -> usize {
        FingerprintAlgo::index_bytes(self)
    }
}

/// TopSim-family adapter.
pub struct TopSimAlgo {
    engine: TopSim,
}

impl TopSimAlgo {
    /// Wraps a configured engine.
    pub fn new(config: TopSimConfig) -> Self {
        TopSimAlgo {
            engine: TopSim::new(config),
        }
    }

    /// Display name (inherent so callers need no graph-type annotation).
    pub fn name(&self) -> String {
        self.engine.config().variant.name().to_string()
    }
}

impl<G: GraphView> SimRankAlgorithm<G> for TopSimAlgo {
    fn name(&self) -> String {
        TopSimAlgo::name(self)
    }

    fn single_source(&mut self, graph: &G, u: NodeId) -> Vec<f64> {
        self.engine.single_source(graph, u)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use probesim_baselines::TopSimVariant;
    use probesim_graph::toy::{toy_edges, toy_graph, A, D, TOY_DECAY};
    use probesim_graph::GraphStore;

    fn all_toy_algorithms<G: GraphView>() -> Vec<Box<dyn SimRankAlgorithm<G>>> {
        vec![
            Box::new(ProbeSimAlgo::new(
                ProbeSimConfig::new(TOY_DECAY, 0.05, 0.01).with_seed(1),
            )),
            Box::new(McAlgo::new(MonteCarlo::new(TOY_DECAY, 4000).with_seed(2))),
            Box::new(TsfAlgo::new(TsfConfig {
                decay: TOY_DECAY,
                rg: 200,
                rq: 10,
                depth: 8,
                seed: 3,
            })),
            Box::new(TopSimAlgo::new(TopSimConfig {
                decay: TOY_DECAY,
                depth: 4,
                variant: TopSimVariant::Exact,
            })),
            Box::new(TopSimAlgo::new(TopSimConfig {
                decay: TOY_DECAY,
                depth: 4,
                variant: TopSimVariant::paper_truncated(),
            })),
            Box::new(TopSimAlgo::new(TopSimConfig {
                decay: TOY_DECAY,
                depth: 4,
                variant: TopSimVariant::paper_priority(),
            })),
            Box::new(FingerprintAlgo::new(FingerprintConfig {
                decay: TOY_DECAY,
                num_walks: 4000,
                max_walk_nodes: 64,
                seed: 5,
            })),
        ]
    }

    #[test]
    fn every_algorithm_ranks_d_first_on_toy_graph() {
        let g = toy_graph();
        for mut algo in all_toy_algorithms() {
            algo.prepare(&g);
            let top = algo.top_k(&g, A, 1);
            assert_eq!(top[0].0, D, "{} ranked {:?} first", algo.name(), top[0]);
        }
    }

    #[test]
    fn every_algorithm_runs_on_a_dynamic_graph() {
        // The same roster, driven against a live GraphStore instead of a
        // CSR snapshot — the trait's graph-generality in one test.
        let g = GraphStore::from_edges(8, &toy_edges());
        for mut algo in all_toy_algorithms::<GraphStore>() {
            algo.prepare(&g);
            let top = algo.top_k(&g, A, 1);
            assert_eq!(top[0].0, D, "{} on GraphStore: {:?}", algo.name(), top[0]);
        }
    }

    #[test]
    fn names_are_distinct() {
        let names: Vec<String> = all_toy_algorithms::<CsrGraph>()
            .iter()
            .map(|a| a.name())
            .collect();
        let unique: std::collections::HashSet<&String> = names.iter().collect();
        assert_eq!(unique.len(), names.len(), "{names:?}");
    }

    #[test]
    fn only_indexed_methods_report_index_space() {
        let g = toy_graph();
        for mut algo in all_toy_algorithms() {
            algo.prepare(&g);
            let bytes = algo.index_bytes();
            let indexed = algo.name().starts_with("TSF") || algo.name().starts_with("Fingerprint");
            if indexed {
                assert!(bytes > 0, "{} must report index space", algo.name());
            } else {
                assert_eq!(bytes, 0, "{} should be index-free", algo.name());
            }
        }
    }

    #[test]
    fn tsf_lazily_builds_when_prepare_was_skipped() {
        let g = toy_graph();
        let mut tsf = TsfAlgo::new(TsfConfig {
            decay: TOY_DECAY,
            rg: 10,
            rq: 2,
            depth: 5,
            seed: 4,
        });
        let scores = tsf.single_source(&g, A);
        assert_eq!(scores.len(), 8);
        assert!(tsf.index_bytes() > 0);
    }
}
