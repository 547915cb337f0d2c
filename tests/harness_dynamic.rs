//! End-to-end: the `SimRankAlgorithm` evaluation harness driven against a
//! live `GraphStore` — the paper's dynamic-graph story through the same
//! adapter layer the figures use (possible since the trait went generic
//! over `GraphView`).

use probesim::prelude::*;
use probesim_datasets::gens;
use probesim_eval::{metrics, sample_query_nodes, McAlgo, ProbeSimAlgo, TopSimAlgo, TsfAlgo};

const DECAY: f64 = 0.6;

fn roster(seed: u64) -> Vec<Box<dyn SimRankAlgorithm<GraphStore>>> {
    vec![
        Box::new(ProbeSimAlgo::new(
            ProbeSimConfig::paper(0.05).with_seed(seed),
        )),
        Box::new(McAlgo::new(MonteCarlo::new(DECAY, 800).with_seed(seed ^ 1))),
        Box::new(TsfAlgo::new(TsfConfig {
            decay: DECAY,
            rg: 300,
            rq: 20,
            depth: 10,
            seed: seed ^ 2,
        })),
        Box::new(TopSimAlgo::new(TopSimConfig::paper(TopSimVariant::Exact))),
    ]
}

/// The full harness loop — prepare, single-source, top-k, metrics —
/// against a live GraphStore, with accuracy checked against the exact oracle
/// computed on the same live graph.
#[test]
fn harness_runs_end_to_end_on_a_dynamic_graph() {
    let base = gens::chung_lu(400, 2400, 2.3, 21);
    let mut graph = GraphStore::from_edges(400, &base.edges());
    // Churn the graph so it is genuinely a mutated dynamic structure, not
    // a CSR in disguise.
    for i in 0..200u32 {
        let u = (i * 7) % 400;
        let v = (i * 13 + 1) % 400;
        if u != v {
            if i % 4 == 0 {
                graph.remove_edge(u, v);
            } else {
                graph.insert_edge(u, v);
            }
        }
    }
    let truth = GroundTruth::compute_with_iterations(&graph, DECAY, 25);
    let queries = sample_query_nodes(&graph, 3, 5);
    assert!(!queries.is_empty());
    for mut algo in roster(9) {
        algo.prepare(&graph);
        for &u in &queries {
            let scores = algo.single_source(&graph, u);
            assert_eq!(scores.len(), 400, "{}", algo.name());
            let err = metrics::abs_error(truth.single_source(u), &scores, u);
            // Generous cap: every engine is at least roughly right on a
            // 400-node graph; ProbeSim's own bound is checked below.
            assert!(err <= 0.5, "{} query {u}: abs error {err}", algo.name());
            let top = algo.top_k(&graph, u, 5);
            assert!(top.len() <= 5);
            assert!(top.windows(2).all(|w| w[0].1 >= w[1].1), "{}", algo.name());
        }
    }
}

/// ProbeSim through the harness honors its error bound on the live graph
/// and matches a CSR snapshot of the same state exactly.
#[test]
fn probesim_adapter_is_snapshot_consistent_on_dynamic_graphs() {
    let base = gens::erdos_renyi(300, 1800, 4);
    let mut dynamic = GraphStore::from_edges(300, &base.edges());
    for i in 0..150u32 {
        dynamic.insert_edge((i * 11) % 300, (i * 17 + 2) % 300);
    }
    let snapshot = dynamic.snapshot().to_csr();
    let truth = GroundTruth::compute_with_iterations(&dynamic, DECAY, 25);
    let mut algo = ProbeSimAlgo::new(ProbeSimConfig::paper(0.05).with_seed(77));
    for &u in &sample_query_nodes(&dynamic, 4, 13) {
        let live: Vec<f64> = SimRankAlgorithm::<GraphStore>::single_source(&mut algo, &dynamic, u);
        let snap: Vec<f64> = SimRankAlgorithm::<CsrGraph>::single_source(&mut algo, &snapshot, u);
        assert_eq!(live, snap, "query {u} diverged between live and snapshot");
        let err = metrics::abs_error(truth.single_source(u), &live, u);
        assert!(err <= 0.05 * 1.3, "query {u}: abs error {err}");
    }
}
