//! Integration tests for the dynamic-graph story: index-free queries on a
//! live graph, snapshot equivalence, and TSF index maintenance.

use probesim::prelude::*;
use probesim_datasets::gens;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const DECAY: f64 = 0.6;

/// ProbeSim on a live GraphStore must give exactly the same answer as on
/// an immutable CSR copy of the same state (same seed => same walks).
#[test]
fn dynamic_and_snapshot_queries_agree() {
    let base = gens::erdos_renyi(300, 1500, 9);
    let mut dynamic = GraphStore::from_edges(300, &base.edges());
    let mut rng = StdRng::seed_from_u64(1);
    // Churn the graph a bit.
    for _ in 0..200 {
        let u = rng.gen_range(0..300u32);
        let v = rng.gen_range(0..300u32);
        if u != v {
            if rng.gen::<bool>() {
                dynamic.insert_edge(u, v);
            } else {
                dynamic.remove_edge(u, v);
            }
        }
    }
    let snapshot = dynamic.snapshot().to_csr();
    let engine = ProbeSim::new(ProbeSimConfig::paper(0.1).with_seed(5));
    for u in [0u32, 37, 123, 250] {
        let live = engine.single_source(&dynamic, u);
        let snap = engine.single_source(&snapshot, u);
        assert_eq!(live.scores, snap.scores, "query {u} diverged");
    }
}

/// After updates, queries must reflect the new structure: adding a shared
/// in-neighbor raises similarity; removing it lowers it again.
#[test]
fn queries_track_structure_changes() {
    // 1 -> 0 and 2 -> 3 initially: s(0, 3) = 0 (no shared ancestry).
    let mut g = GraphStore::from_edges(5, &[(1, 0), (2, 3)]);
    let engine = ProbeSim::new(ProbeSimConfig::new(DECAY, 0.02, 0.01).with_seed(13));
    let before = engine.single_source(&g, 0);
    assert!(before.score(3) < 0.03, "unrelated nodes must score ~0");

    // Node 4 becomes a common in-neighbor of both 0 and 3.
    g.insert_edge(4, 0);
    g.insert_edge(4, 3);
    let during = engine.single_source(&g, 0);
    // s(0,3) = c/4 · (s(1,2) + s(1,4) + s(4,2) + 1) = 0.15 exactly.
    assert!(
        (during.score(3) - DECAY / 4.0).abs() < 0.03,
        "shared parent should give s ≈ 0.15, got {}",
        during.score(3)
    );

    g.remove_edge(4, 0);
    g.remove_edge(4, 3);
    let after = engine.single_source(&g, 0);
    assert!(after.score(3) < 0.03, "similarity must drop after removal");
}

/// TSF's incremental maintenance must stay *distributionally* equivalent
/// to a fresh rebuild: query scores from a maintained index and a rebuilt
/// index agree within Monte Carlo noise.
#[test]
fn tsf_maintenance_tracks_rebuild() {
    let base = gens::chung_lu(400, 2400, 2.3, 33);
    let mut graph = GraphStore::from_edges(400, &base.edges());
    let config = TsfConfig {
        decay: DECAY,
        rg: 400,
        rq: 10,
        depth: 8,
        seed: 3,
    };
    let mut maintained = Tsf::build(&graph, config);
    let mut rng = StdRng::seed_from_u64(44);
    for _ in 0..300 {
        let u = rng.gen_range(0..400u32);
        let v = rng.gen_range(0..400u32);
        if u == v {
            continue;
        }
        if rng.gen::<f64>() < 0.7 {
            if graph.insert_edge(u, v) {
                maintained.on_edge_inserted(&graph, u, v, &mut rng);
            }
        } else if graph.remove_edge(u, v) {
            maintained.on_edge_removed(&graph, u, v, &mut rng);
        }
    }
    let rebuilt = Tsf::build(
        &graph,
        TsfConfig {
            seed: 999,
            ..config
        },
    );
    // Compare mean scores over queries: same distribution => close means.
    let mut diff_sum = 0.0f64;
    let mut count = 0usize;
    for u in [5u32, 50, 150, 333] {
        if !graph.has_in_edges(u) {
            continue;
        }
        let a = maintained.single_source(&graph, u);
        let b = rebuilt.single_source(&graph, u);
        for v in 0..400usize {
            diff_sum += (a[v] - b[v]).abs();
            count += 1;
        }
    }
    let mean_diff = diff_sum / count.max(1) as f64;
    assert!(
        mean_diff < 0.01,
        "maintained vs rebuilt TSF diverged: mean |Δ| = {mean_diff}"
    );
}
