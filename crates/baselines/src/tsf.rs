//! TSF — the two-stage random-walk sampling framework (Shao et al. \[24\]).
//!
//! TSF is the index-based competitor for dynamic graphs. Its index is `Rg`
//! **one-way graphs**: for every node, one in-neighbor sampled uniformly at
//! random, so each one-way graph is a functional graph encoding one
//! "frozen" reverse random walk per node. At query time each one-way graph
//! is reused `Rq` times: a fresh random walk is drawn for the query node
//! `u` while every other node `v` deterministically follows its one-way
//! pointer; whenever the two positions coincide at step `i`, `v` earns
//! `c^i`.
//!
//! Two deliberate approximations of the original system are reproduced
//! here because the ProbeSim paper's accuracy comparison hinges on them
//! (Section 2.3):
//!
//! 1. TSF sums meeting probabilities over *all* steps (not first
//!    meetings), over-estimating SimRank;
//! 2. walks through a one-way graph may traverse cycles, which the TSF
//!    correctness argument assumes away.
//!
//! The incremental maintenance story is also reproduced: inserting an edge
//! `(w, v)` re-points `v`'s sampled in-neighbor to `w` with probability
//! `1/|I(v)|` in each one-way graph, keeping every one-way graph uniformly
//! distributed without a rebuild.

use probesim_graph::{GraphView, NodeId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Sentinel for "no in-neighbor" in the parent arrays.
const NONE: NodeId = NodeId::MAX;

/// TSF configuration.
#[derive(Debug, Clone, Copy)]
pub struct TsfConfig {
    /// Decay factor `c`.
    pub decay: f64,
    /// Number of one-way graphs in the index (paper setting: 300).
    pub rg: usize,
    /// Reuses of each one-way graph per query (paper setting: 40).
    pub rq: usize,
    /// Random-walk depth `T`; contributions beyond it are below `c^T`.
    pub depth: usize,
    /// RNG seed for index construction.
    pub seed: u64,
}

impl Default for TsfConfig {
    fn default() -> Self {
        TsfConfig {
            decay: 0.6,
            rg: 300,
            rq: 40,
            depth: 10,
            seed: 0,
        }
    }
}

impl TsfConfig {
    /// The paper's experimental setting (`Rg = 300`, `Rq = 40`, `c = 0.6`).
    pub fn paper() -> Self {
        TsfConfig::default()
    }
}

/// One sampled one-way graph: each node's frozen in-neighbor pointer plus
/// the reversed adjacency (children) used for the query-time descent.
#[derive(Debug, Clone)]
struct OneWayGraph {
    parent: Vec<NodeId>,
    children: Vec<Vec<NodeId>>,
}

impl OneWayGraph {
    fn sample<G: GraphView, R: Rng + ?Sized>(graph: &G, rng: &mut R) -> Self {
        let n = graph.num_nodes();
        let mut parent = vec![NONE; n];
        let mut children: Vec<Vec<NodeId>> = vec![Vec::new(); n];
        for v in graph.nodes() {
            let in_nbrs = graph.in_neighbors(v);
            if in_nbrs.is_empty() {
                continue;
            }
            let p = in_nbrs[rng.gen_range(0..in_nbrs.len())];
            parent[v as usize] = p;
            children[p as usize].push(v);
        }
        OneWayGraph { parent, children }
    }

    fn repoint(&mut self, v: NodeId, new_parent: Option<NodeId>) {
        let old = self.parent[v as usize];
        if old != NONE {
            let kids = &mut self.children[old as usize];
            if let Some(pos) = kids.iter().position(|&c| c == v) {
                kids.swap_remove(pos);
            }
        }
        match new_parent {
            Some(p) => {
                self.parent[v as usize] = p;
                self.children[p as usize].push(v);
            }
            None => self.parent[v as usize] = NONE,
        }
    }
}

/// The TSF index plus query engine.
#[derive(Debug, Clone)]
pub struct Tsf {
    config: TsfConfig,
    one_way: Vec<OneWayGraph>,
    num_nodes: usize,
}

impl Tsf {
    /// Builds the index: `Rg` one-way graphs, O(Rg·n) time and space.
    /// This is the preprocessing ProbeSim does not need.
    pub fn build<G: GraphView>(graph: &G, config: TsfConfig) -> Self {
        let mut rng = StdRng::seed_from_u64(config.seed);
        let one_way = (0..config.rg)
            .map(|_| OneWayGraph::sample(graph, &mut rng))
            .collect();
        Tsf {
            config,
            one_way,
            num_nodes: graph.num_nodes(),
        }
    }

    /// The configuration used at build time.
    pub fn config(&self) -> &TsfConfig {
        &self.config
    }

    /// Index footprint in bytes: parent pointers plus reversed adjacency
    /// for each one-way graph. This is what Table 4's space column counts;
    /// at `Rg = 300` it is 1–2 orders of magnitude more than the graph,
    /// matching the paper's observation.
    pub fn index_bytes(&self) -> usize {
        let ptr = std::mem::size_of::<NodeId>();
        let vec_header = std::mem::size_of::<Vec<NodeId>>();
        self.one_way
            .iter()
            .map(|g| {
                g.parent.len() * ptr
                    + g.children.len() * vec_header
                    + g.children.iter().map(|c| c.len() * ptr).sum::<usize>()
            })
            .sum()
    }

    /// Answers a single-source query: `s̃(u, v)` for all `v`.
    ///
    /// For each one-way graph and each of the `Rq` reuses, a fresh random
    /// walk `u = u_0, u_1, …, u_T` is sampled from the *full* graph; the
    /// nodes meeting it at step `i` are exactly the depth-`i` descendants
    /// of `u_i` in the one-way graph's reversed adjacency, and each earns
    /// `c^i / (Rg·Rq)`.
    pub fn single_source<G: GraphView>(&self, graph: &G, u: NodeId) -> Vec<f64> {
        let n = self.num_nodes;
        assert!((u as usize) < n, "query node out of range");
        let mut scores = vec![0.0f64; n];
        let mut rng = StdRng::seed_from_u64(
            self.config.seed ^ (u as u64).wrapping_mul(0xff51_afd7_ed55_8ccd),
        );
        let norm = 1.0 / (self.config.rg * self.config.rq) as f64;
        // Reused BFS level buffers.
        let mut level: Vec<NodeId> = Vec::new();
        let mut next_level: Vec<NodeId> = Vec::new();
        for one_way in &self.one_way {
            for _ in 0..self.config.rq {
                let mut current = u;
                let mut weight = 1.0f64;
                level.clear();
                level.push(u);
                for _step in 1..=self.config.depth {
                    // Advance u's fresh walk one step.
                    let in_nbrs = graph.in_neighbors(current);
                    if in_nbrs.is_empty() {
                        break;
                    }
                    current = in_nbrs[rng.gen_range(0..in_nbrs.len())];
                    weight *= self.config.decay;
                    // Descend one level: nodes whose one-way walk sits at
                    // `current` this step are the children of the previous
                    // level… but the previous level tracked u's walk, not
                    // the one-way structure, so restart the descent from
                    // `current` down `_step` levels would be O(step²).
                    // Instead maintain the descendant frontier of u's walk
                    // prefix incrementally: impossible in general because
                    // the prefix changes head each step. Restart descent:
                    level.clear();
                    level.push(current);
                    for _ in 0.._step {
                        next_level.clear();
                        for &x in &level {
                            next_level.extend_from_slice(&one_way.children[x as usize]);
                        }
                        std::mem::swap(&mut level, &mut next_level);
                        if level.is_empty() {
                            break;
                        }
                    }
                    for &v in &level {
                        if v != u {
                            scores[v as usize] += weight * norm;
                        }
                    }
                    if weight < 1e-12 {
                        break;
                    }
                }
            }
        }
        scores[u as usize] = 1.0;
        scores
    }

    /// Top-k via the single-source scores.
    pub fn top_k<G: GraphView>(&self, graph: &G, u: NodeId, k: usize) -> Vec<(NodeId, f64)> {
        let scores = self.single_source(graph, u);
        probesim_core::top_k_from_scores(&scores, u, k)
    }

    /// Index maintenance for an edge insertion `(w, v)`, to be called
    /// *after* the graph itself was updated. Each one-way graph re-points
    /// `v` to `w` with probability `1/|I(v)|`, preserving uniformity.
    pub fn on_edge_inserted<G: GraphView, R: Rng + ?Sized>(
        &mut self,
        graph: &G,
        w: NodeId,
        v: NodeId,
        rng: &mut R,
    ) {
        let din = graph.in_degree(v);
        debug_assert!(din > 0, "edge ({w}, {v}) must already be in the graph");
        let p = 1.0 / din as f64;
        for one_way in &mut self.one_way {
            if one_way.parent[v as usize] == NONE || rng.gen::<f64>() < p {
                one_way.repoint(v, Some(w));
            }
        }
    }

    /// Index maintenance for an edge deletion `(w, v)`, called after the
    /// graph update. One-way graphs whose pointer used the deleted edge
    /// resample uniformly from the remaining in-neighbors.
    pub fn on_edge_removed<G: GraphView, R: Rng + ?Sized>(
        &mut self,
        graph: &G,
        w: NodeId,
        v: NodeId,
        rng: &mut R,
    ) {
        let in_nbrs = graph.in_neighbors(v);
        for one_way in &mut self.one_way {
            if one_way.parent[v as usize] == w {
                let new = if in_nbrs.is_empty() {
                    None
                } else {
                    Some(in_nbrs[rng.gen_range(0..in_nbrs.len())])
                };
                one_way.repoint(v, new);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use probesim_graph::toy::{toy_graph, A, D, TABLE2, TOY_DECAY};
    use probesim_graph::{CsrGraph, GraphStore};

    fn toy_tsf(rg: usize, rq: usize) -> (CsrGraph, Tsf) {
        let g = toy_graph();
        let tsf = Tsf::build(
            &g,
            TsfConfig {
                decay: TOY_DECAY,
                rg,
                rq,
                depth: 10,
                seed: 77,
            },
        );
        (g, tsf)
    }

    #[test]
    fn one_way_graphs_sample_real_in_edges() {
        let (g, tsf) = toy_tsf(20, 1);
        for ow in &tsf.one_way {
            for v in g.nodes() {
                let p = ow.parent[v as usize];
                if p != NONE {
                    assert!(g.in_neighbors(v).contains(&p));
                }
                for &child in &ow.children[v as usize] {
                    assert_eq!(ow.parent[child as usize], v);
                }
            }
        }
    }

    #[test]
    fn scores_correlate_with_ground_truth_but_overestimate() {
        // TSF sums all-step meeting probabilities, so estimates are biased
        // upward relative to SimRank — exactly the paper's criticism. The
        // top node (d) should still surface.
        let (g, tsf) = toy_tsf(300, 10);
        let scores = tsf.single_source(&g, A);
        let top = tsf.top_k(&g, A, 1);
        assert_eq!(top[0].0, D);
        // Over-estimation shows as mean signed error > 0 on nonzero nodes.
        let bias: f64 = (1..8).map(|v| scores[v] - TABLE2[v]).sum::<f64>() / 7.0;
        assert!(bias > -0.01, "unexpected underestimation, bias = {bias}");
    }

    #[test]
    fn index_size_scales_with_rg() {
        let (_, small) = toy_tsf(10, 1);
        let (_, big) = toy_tsf(100, 1);
        assert!(big.index_bytes() > 5 * small.index_bytes());
    }

    #[test]
    fn query_is_deterministic_per_seed() {
        let (g, tsf) = toy_tsf(50, 5);
        assert_eq!(tsf.single_source(&g, A), tsf.single_source(&g, A));
    }

    #[test]
    fn insertion_maintenance_matches_rebuild_distribution() {
        // After inserting an edge, the fraction of one-way graphs pointing
        // v at each in-neighbor should stay ≈ uniform.
        let mut g = GraphStore::from_edges(4, &[(0, 3), (1, 3)]);
        let mut tsf = Tsf::build(
            &g,
            TsfConfig {
                decay: 0.6,
                rg: 3000,
                rq: 1,
                depth: 5,
                seed: 5,
            },
        );
        let mut rng = StdRng::seed_from_u64(9);
        g.insert_edge(2, 3);
        tsf.on_edge_inserted(&g, 2, 3, &mut rng);
        let mut counts = [0usize; 3];
        for ow in &tsf.one_way {
            let p = ow.parent[3];
            assert!(p != NONE);
            counts[p as usize] += 1;
        }
        for (i, &c) in counts.iter().enumerate() {
            let frac = c as f64 / 3000.0;
            assert!(
                (frac - 1.0 / 3.0).abs() < 0.04,
                "parent {i} has fraction {frac}"
            );
        }
    }

    #[test]
    fn removal_maintenance_repoints_only_affected_graphs() {
        let mut g = GraphStore::from_edges(3, &[(0, 2), (1, 2)]);
        let mut tsf = Tsf::build(
            &g,
            TsfConfig {
                decay: 0.6,
                rg: 500,
                rq: 1,
                depth: 5,
                seed: 6,
            },
        );
        let mut rng = StdRng::seed_from_u64(10);
        g.remove_edge(0, 2);
        tsf.on_edge_removed(&g, 0, 2, &mut rng);
        for ow in &tsf.one_way {
            assert_eq!(
                ow.parent[2], 1,
                "must repoint to the only remaining in-edge"
            );
        }
        // Children lists stay consistent.
        for ow in &tsf.one_way {
            assert!(ow.children[1].contains(&2));
            assert!(!ow.children[0].contains(&2));
        }
    }

    #[test]
    fn removal_to_zero_in_degree_clears_pointer() {
        let mut g = GraphStore::from_edges(2, &[(0, 1)]);
        let mut tsf = Tsf::build(
            &g,
            TsfConfig {
                decay: 0.6,
                rg: 50,
                rq: 1,
                depth: 5,
                seed: 7,
            },
        );
        let mut rng = StdRng::seed_from_u64(11);
        g.remove_edge(0, 1);
        tsf.on_edge_removed(&g, 0, 1, &mut rng);
        for ow in &tsf.one_way {
            assert_eq!(ow.parent[1], NONE);
            assert!(ow.children[0].is_empty());
        }
    }

    #[test]
    fn zero_in_degree_query_returns_zeros() {
        let g = CsrGraph::from_edges(3, &[(0, 1), (0, 2)]);
        let tsf = Tsf::build(
            &g,
            TsfConfig {
                decay: 0.6,
                rg: 20,
                rq: 2,
                depth: 5,
                seed: 1,
            },
        );
        let scores = tsf.single_source(&g, 0);
        assert_eq!(scores[1], 0.0);
        assert_eq!(scores[2], 0.0);
    }
}
