//! Dynamic-graph correctness under churn: after an arbitrary
//! insert/remove stream, a session query on the live [`GraphStore`] is
//! **bit-for-bit identical** (same engine seed) to the same query on a
//! [`CsrGraph`] rebuilt from scratch from the surviving edges.
//!
//! This is the index-free contract the paper's dynamic-graph claim rests
//! on: a query depends on nothing but the current graph, so *how* the
//! graph got into its state — incremental mutation vs. fresh build — must
//! be unobservable, down to the last mantissa bit.

use probesim::prelude::*;
use probesim_datasets::SlidingWindowStream;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeSet;

/// Applies `ops` random insert/remove events to a fresh `n`-node graph.
fn churned_graph(n: usize, ops: usize, seed: u64) -> GraphStore {
    let mut graph = GraphStore::new(n);
    let mut rng = StdRng::seed_from_u64(seed);
    for _ in 0..ops {
        let u = rng.gen_range(0..n) as NodeId;
        let v = rng.gen_range(0..n) as NodeId;
        if u == v {
            continue;
        }
        // Bias toward insertion so the graph doesn't stay near-empty.
        if rng.gen_range(0u32..4) < 3 {
            graph.insert_edge(u, v);
        } else {
            graph.remove_edge(u, v);
        }
    }
    graph
}

/// Reference model: applies `update` to a plain edge set and reports
/// whether it changed, the contract `GraphStore::apply` must match.
fn apply_to_model(model: &mut BTreeSet<(NodeId, NodeId)>, update: GraphUpdate) -> bool {
    match update {
        GraphUpdate::Insert { u, v } => model.insert((u, v)),
        GraphUpdate::Remove { u, v } => model.remove(&(u, v)),
    }
}

/// Every touched score must agree to the bit, not within a tolerance.
fn assert_bit_identical(live: &SparseScores, rebuilt: &SparseScores) {
    assert_eq!(live.len(), rebuilt.len(), "touched sets differ");
    for ((lv, ls), (rv, rs)) in live.iter().zip(rebuilt.iter()) {
        assert_eq!(lv, rv, "touched node ids diverged");
        assert_eq!(
            ls.to_bits(),
            rs.to_bits(),
            "score for node {lv} diverged: {ls} vs {rs}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random churn, then every query kind, on the live graph vs. a
    /// from-scratch rebuild.
    #[test]
    fn live_graph_queries_match_rebuilt_csr(
        n in 4usize..=32,
        ops in 1usize..=160,
        graph_seed in any::<u64>(),
        engine_seed in any::<u64>(),
    ) {
        let live = churned_graph(n, ops, graph_seed);
        let rebuilt = CsrGraph::from_edge_iter(n, live.edges_iter());
        let engine = ProbeSim::new(ProbeSimConfig::new(0.6, 0.08, 0.01).with_seed(engine_seed));
        let mut live_session = engine.session(&live);
        let mut rebuilt_session = engine.session(&rebuilt);
        for node in 0..n as NodeId {
            let queries = [
                Query::SingleSource { node },
                Query::TopK { node, k: 5 },
                Query::Threshold { node, tau: 0.05 },
            ];
            for query in queries {
                let a = live_session.run(query).expect("valid query");
                let b = rebuilt_session.run(query).expect("valid query");
                assert_bit_identical(&a.scores, &b.scores);
                prop_assert_eq!(a.stats, b.stats, "work counters diverged");
                prop_assert_eq!(a.ranking(), b.ranking());
            }
        }
    }

    /// The same property driven by the sliding-window stream generator
    /// (the workload the dynamic benchmark scenarios replay), on a store
    /// that compacts aggressively. The generator's own live-edge set is
    /// the oracle: the store's edges must equal it, and the live store,
    /// its published snapshot and a CSR rebuilt from the oracle must
    /// answer bit-for-bit alike.
    #[test]
    fn sliding_window_stream_matches_rebuilt_csr(
        seed in any::<u64>(),
        events in 1usize..=200,
    ) {
        let n = 24;
        let mut live = GraphStore::new(n)
            .with_policy(CompactionPolicy { max_touched_fraction: 0.05, min_touched_lists: 8 });
        let mut stream = SlidingWindowStream::new(n, 40, seed);
        for update in stream.by_ref().take(events) {
            prop_assert!(live.apply(update));
        }
        let mut expected: Vec<(NodeId, NodeId)> = stream.live_edges().collect();
        expected.sort_unstable();
        prop_assert!(live.edges_iter().eq(expected.iter().copied()));
        let rebuilt = CsrGraph::from_edges(n, &expected);
        let engine = ProbeSim::new(ProbeSimConfig::new(0.6, 0.1, 0.01).with_seed(seed ^ 0xC0FFEE));
        let mut live_session = engine.session(&live);
        let mut snap_session = engine.session(live.snapshot());
        let mut rebuilt_session = engine.session(&rebuilt);
        for node in 0..n as NodeId {
            let a = live_session.run(Query::SingleSource { node }).expect("valid");
            let b = rebuilt_session.run(Query::SingleSource { node }).expect("valid");
            let c = snap_session.run(Query::SingleSource { node }).expect("valid");
            assert_bit_identical(&a.scores, &b.scores);
            assert_bit_identical(&c.scores, &b.scores);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The store path under snapshot isolation: apply a random
    /// `GraphUpdate` stream to a `GraphStore`, retaining a snapshot
    /// every few updates and forcing a compaction partway through. At
    /// the end, every retained snapshot must answer all three query
    /// kinds **bit-for-bit** identically to a `CsrGraph` rebuilt from
    /// the edge set that existed at that snapshot's version — proving
    /// that later updates and the compaction boundary leaked nothing
    /// into earlier versions.
    #[test]
    fn retained_snapshots_answer_like_scratch_rebuilds_across_compaction(
        n in 4usize..=24,
        ops in 8usize..=96,
        graph_seed in any::<u64>(),
        engine_seed in any::<u64>(),
    ) {
        let mut store = GraphStore::new(n);
        let mut rng = StdRng::seed_from_u64(graph_seed);
        let mut retained: Vec<(GraphSnapshot, CsrGraph)> = Vec::new();
        let compact_at = ops / 2;
        for i in 0..ops {
            let u = rng.gen_range(0..n) as NodeId;
            let v = rng.gen_range(0..n) as NodeId;
            if u != v {
                let update = if rng.gen_range(0u32..4) < 3 {
                    GraphUpdate::Insert { u, v }
                } else {
                    GraphUpdate::Remove { u, v }
                };
                store.apply(update);
            }
            if i % 7 == 0 {
                let snapshot = store.snapshot();
                // Record the version's edge set *now*, before any later
                // update can touch it.
                let scratch = snapshot.to_csr();
                retained.push((snapshot, scratch));
            }
            if i == compact_at {
                // Guarantee the overlay is non-empty so the compaction
                // boundary always exists (every edge lives in the overlay
                // until the first fold).
                store.apply(GraphUpdate::Insert { u: 0, v: 1 });
                prop_assert!(store.compact());
            }
        }
        prop_assert!(store.compactions() >= 1);
        retained.push((store.snapshot(), CsrGraph::from_edge_iter(n, store.edges_iter())));

        let engine = ProbeSim::new(ProbeSimConfig::new(0.6, 0.1, 0.01).with_seed(engine_seed));
        for (snapshot, scratch) in retained {
            prop_assert_eq!(snapshot.num_edges(), scratch.num_edges());
            let mut snap_session = engine.session(snapshot);
            let mut scratch_session = engine.session(&scratch);
            for node in 0..n as NodeId {
                let queries = [
                    Query::SingleSource { node },
                    Query::TopK { node, k: 5 },
                    Query::Threshold { node, tau: 0.05 },
                ];
                for query in queries {
                    let a = snap_session.run(query).expect("valid query");
                    let b = scratch_session.run(query).expect("valid query");
                    assert_bit_identical(&a.scores, &b.scores);
                    prop_assert_eq!(a.stats, b.stats, "work counters diverged");
                    prop_assert_eq!(a.ranking(), b.ranking());
                }
            }
        }
    }

    /// The store replaying the sliding-window stream (the workload the
    /// concurrent bench scenarios serve) from a warm-started base agrees
    /// with a reference edge-set model replaying the same events, and its
    /// snapshot with a CSR rebuilt from that model.
    #[test]
    fn store_and_dynamic_graph_agree_on_the_stream(
        seed in any::<u64>(),
        events in 1usize..=160,
    ) {
        let n = 24;
        let mut warm = SlidingWindowStream::new(n, 40, seed);
        let mut model: BTreeSet<(NodeId, NodeId)> = BTreeSet::new();
        for update in warm.by_ref().take(40) {
            apply_to_model(&mut model, update);
        }
        let base = CsrGraph::from_edge_iter(n, model.iter().copied());
        let mut store = GraphStore::from_view(&base)
            .with_policy(CompactionPolicy { max_touched_fraction: 0.05, min_touched_lists: 8 });
        for update in warm.take(events) {
            prop_assert_eq!(store.apply(update), apply_to_model(&mut model, update));
        }
        prop_assert_eq!(store.num_edges(), model.len());
        prop_assert!(store.edges_iter().eq(model.iter().copied()));
        let rebuilt = CsrGraph::from_edge_iter(n, model.iter().copied());
        let snapshot = store.snapshot();
        let engine = ProbeSim::new(ProbeSimConfig::new(0.6, 0.1, 0.01).with_seed(seed ^ 0xC0FFEE));
        let mut rebuilt_session = engine.session(&rebuilt);
        let mut snap_session = engine.session(snapshot);
        for node in 0..n as NodeId {
            let a = rebuilt_session.run(Query::SingleSource { node }).expect("valid");
            let b = snap_session.run(Query::SingleSource { node }).expect("valid");
            assert_bit_identical(&a.scores, &b.scores);
        }
    }
}

/// Non-proptest regression: a long stream with interleaved verification
/// points (rebuild + compare after every block of updates), mirroring how
/// the dynamic benchmark scenarios interleave updates and queries.
#[test]
fn interleaved_verification_points_along_a_stream() {
    let n = 40;
    let mut live = GraphStore::new(n);
    let mut stream = SlidingWindowStream::new(n, 80, 99);
    let engine = ProbeSim::new(ProbeSimConfig::new(0.6, 0.1, 0.01).with_seed(7));
    for block in 0..6 {
        for update in stream.by_ref().take(50) {
            live.apply(update);
        }
        let rebuilt = CsrGraph::from_edge_iter(n, live.edges_iter());
        let query = Query::SingleSource {
            node: (block * 7 % n) as NodeId,
        };
        let a = engine.session(&live).run(query).expect("valid");
        let b = engine.session(&rebuilt).run(query).expect("valid");
        assert_bit_identical(&a.scores, &b.scores);
        assert_eq!(a.stats, b.stats);
    }
}
