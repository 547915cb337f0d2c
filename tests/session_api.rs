//! Integration tests for the session-based query API: sparse/dense
//! equivalence (bit-for-bit), error surfacing, session reuse, and batch
//! execution in both sequential and parallel modes.

use probesim::prelude::*;
use probesim_core::ProbeSim;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Strategy: a random simple directed graph with 2..=24 nodes.
fn arb_graph() -> impl Strategy<Value = CsrGraph> {
    (2usize..=24, any::<u64>())
        .prop_flat_map(|(n, seed)| {
            let max_edges = n * (n - 1);
            (Just(n), Just(seed), 1usize..=max_edges.min(80))
        })
        .prop_map(|(n, seed, m)| {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut builder = GraphBuilder::new(n);
            for _ in 0..m {
                let u = rng.gen_range(0..n) as NodeId;
                let v = rng.gen_range(0..n) as NodeId;
                if u != v {
                    builder.push_edge(u, v);
                }
            }
            builder.build_csr()
        })
}

fn config_for(strategy: ProbeStrategy, batch_walks: bool, seed: u64) -> ProbeSimConfig {
    let mut cfg = ProbeSimConfig::new(0.6, 0.2, 0.05)
        .with_seed(seed)
        .with_num_walks(40);
    cfg.optimizations.strategy = strategy;
    cfg.optimizations.batch_walks = batch_walks;
    cfg
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// `SparseScores::to_dense` reproduces the legacy dense pipeline
    /// bit-for-bit, for every PROBE strategy and both batch modes.
    #[test]
    fn sparse_to_dense_matches_legacy_dense_path(
        g in arb_graph(),
        seed in any::<u64>(),
    ) {
        let u = (seed % g.num_nodes() as u64) as NodeId;
        for strategy in [
            ProbeStrategy::Deterministic,
            ProbeStrategy::Randomized,
            ProbeStrategy::Hybrid,
        ] {
            for batch_walks in [false, true] {
                let engine = ProbeSim::new(config_for(strategy, batch_walks, seed));
                let sparse = engine
                    .session(&g)
                    .run(Query::SingleSource { node: u })
                    .expect("u is in range");
                let reference = engine.single_source_dense_reference(&g, u);
                let dense = sparse.scores.to_dense();
                prop_assert_eq!(dense.len(), g.num_nodes());
                for (v, &score) in dense.iter().enumerate() {
                    prop_assert_eq!(
                        score.to_bits(),
                        reference.scores[v].to_bits(),
                        "{:?} batch={} node {}: {} vs {}",
                        strategy, batch_walks, v, score, reference.scores[v]
                    );
                }
                prop_assert_eq!(sparse.stats, reference.stats);
                // Sparse length == touched nodes in the dense output.
                let touched = reference
                    .scores
                    .iter()
                    .enumerate()
                    .filter(|&(v, &s)| v as NodeId != u && s != 0.0)
                    .count();
                prop_assert_eq!(sparse.scores.len(), touched);
            }
        }
    }

    /// Session reuse never changes answers: N queries on one session ==
    /// N queries on N fresh engines, including interleaved repeat queries.
    #[test]
    fn session_reuse_is_transparent(g in arb_graph(), seed in any::<u64>()) {
        let engine = ProbeSim::new(config_for(ProbeStrategy::Hybrid, true, seed));
        let n = g.num_nodes() as NodeId;
        let nodes = [0 % n, (n - 1).min(3), n / 2, 0 % n];
        let mut session = engine.session(&g);
        for &u in &nodes {
            let pooled = session
                .run(Query::SingleSource { node: u })
                .expect("in range");
            let fresh = engine.single_source(&g, u);
            prop_assert_eq!(pooled.scores.to_dense(), fresh.scores, "node {}", u);
        }
        prop_assert_eq!(session.queries_run(), nodes.len());
    }

    /// Sequential `run_batch` and parallel `par_batch` return identical
    /// outputs, in input order, with identical merged stats.
    #[test]
    fn batch_modes_agree(g in arb_graph(), seed in any::<u64>()) {
        let engine = ProbeSim::new(config_for(ProbeStrategy::Hybrid, true, seed));
        let n = g.num_nodes() as NodeId;
        let queries: Vec<Query> = (0..n)
            .map(|v| {
                if v % 3 == 0 {
                    Query::TopK { node: v, k: 3 }
                } else {
                    Query::SingleSource { node: v }
                }
            })
            .collect();
        let sequential = engine
            .session(&g)
            .run_batch(&queries)
            .expect("all queries valid");
        let parallel = engine.par_batch(&g, &queries, 4).expect("all queries valid");
        prop_assert_eq!(&sequential.outputs, &parallel.outputs);
        prop_assert_eq!(sequential.stats, parallel.stats);
        for (query, output) in queries.iter().zip(&sequential.outputs) {
            prop_assert_eq!(output.scores.query(), query.node());
        }
    }
}

#[test]
fn every_query_error_variant_is_reachable_through_the_public_api() {
    let g = toy();
    let empty = CsrGraph::from_edges(0, &[]);
    let engine = ProbeSim::new(ProbeSimConfig::paper(0.1));

    assert!(matches!(
        engine.session(&empty).run(Query::SingleSource { node: 0 }),
        Err(QueryError::EmptyGraph)
    ));
    assert!(matches!(
        engine.session(&g).run(Query::SingleSource { node: 100 }),
        Err(QueryError::NodeOutOfRange {
            node: 100,
            num_nodes: 8
        })
    ));
    assert!(matches!(
        engine.session(&g).run(Query::TopK { node: 0, k: 0 }),
        Err(QueryError::InvalidK { k: 0 })
    ));
    assert!(matches!(
        engine.session(&g).run(Query::Threshold {
            node: 0,
            tau: f64::INFINITY
        }),
        Err(QueryError::InvalidThreshold { .. })
    ));
    assert!(matches!(
        engine
            .session(&g)
            .run(Query::Threshold { node: 0, tau: -0.1 }),
        Err(QueryError::InvalidThreshold { .. })
    ));

    // The same errors flow through batch validation...
    assert!(engine
        .par_batch(&g, &[Query::TopK { node: 0, k: 0 }], 2)
        .is_err());
    // ...and through the try_ wrappers.
    assert!(matches!(
        engine.try_single_source(&g, 100),
        Err(QueryError::NodeOutOfRange { .. })
    ));
    // The legacy-shaped wrapper keeps the old k = 0 behavior (empty
    // ranking); only the strict Query surface rejects it.
    assert_eq!(engine.try_top_k(&g, 0, 0), Ok(Vec::new()));
    // QueryError is a real std error.
    let err: Box<dyn std::error::Error> = Box::new(QueryError::EmptyGraph);
    assert!(err.to_string().contains("empty graph"));
}

#[test]
fn threshold_queries_match_dense_filtering() {
    let g = toy();
    let engine = ProbeSim::new(ProbeSimConfig::new(0.25, 0.05, 0.01).with_seed(11));
    let output = engine
        .session(&g)
        .run(Query::Threshold { node: 0, tau: 0.05 })
        .unwrap();
    let dense = engine.single_source(&g, 0);
    let mut expected = dense.above_threshold(0.05);
    expected.sort_unstable_by(|a, b| b.1.partial_cmp(&a.1).unwrap().then(a.0.cmp(&b.0)));
    assert_eq!(output.ranking(), expected);
}

#[test]
fn empty_batch_is_fine_in_both_modes() {
    let g = toy();
    let engine = ProbeSim::new(ProbeSimConfig::paper(0.1));
    let sequential = engine.session(&g).run_batch(&[]).unwrap();
    assert!(sequential.outputs.is_empty());
    assert_eq!(sequential.stats, probesim_core::QueryStats::default());
    let parallel = engine.par_batch(&g, &[], 4).unwrap();
    assert!(parallel.outputs.is_empty());
}

fn toy() -> CsrGraph {
    probesim_graph::toy::toy_graph()
}
