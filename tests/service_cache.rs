//! Cache-soundness tests for the `QueryService` result cache.
//!
//! The contract: after any update/query interleaving, **every cache hit
//! equals a scratch re-execution of the requested query at the same
//! pinned version** (`to_bits`-compared), including hits on an entry
//! another query kind filled for the same source, and every mutation
//! bumps the version so `Latest` can never be served a stale entry.

use probesim::prelude::*;
use probesim_core::ProbeSim;
use proptest::prelude::*;
use proptest::TestCaseError;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn service_config(seed: u64) -> ProbeSimConfig {
    ProbeSimConfig::new(0.6, 0.2, 0.05)
        .with_seed(seed)
        .with_num_walks(40)
}

/// Bit-exact comparison of a served output against a scratch execution
/// of `query` on `oracle` (the edge set of the served version): the
/// output must describe `query`, and its scores, counters and ranking
/// must match bit for bit.
fn assert_bit_identical_to_scratch(
    engine: &ProbeSim,
    oracle: &CsrGraph,
    query: Query,
    served: &QueryOutput,
    context: &str,
) -> Result<(), TestCaseError> {
    let scratch = engine
        .session(oracle)
        .run(query)
        .expect("oracle accepts the query");
    let served_dense = served.scores.to_dense();
    let scratch_dense = scratch.scores.to_dense();
    prop_assert_eq!(served_dense.len(), scratch_dense.len(), "{}", context);
    for (v, (a, b)) in served_dense.iter().zip(&scratch_dense).enumerate() {
        prop_assert_eq!(
            a.to_bits(),
            b.to_bits(),
            "{}: node {} diverges ({} vs {})",
            context,
            v,
            a,
            b
        );
    }
    prop_assert_eq!(served.stats, scratch.stats, "{}", context);
    prop_assert_eq!(served.query, query, "{}", context);
    let bits = |ranking: Vec<(NodeId, f64)>| -> Vec<(NodeId, u64)> {
        ranking.into_iter().map(|(v, s)| (v, s.to_bits())).collect()
    };
    prop_assert_eq!(
        bits(served.ranking()),
        bits(scratch.ranking()),
        "{}: ranking",
        context
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random update/query interleavings over all three query kinds:
    /// every response — fresh, same-kind hit or cross-kind hit — equals
    /// a scratch re-execution at its reported version, and `Latest`
    /// always answers at the current store version.
    #[test]
    fn cache_hits_equal_scratch_reexecution_at_the_pinned_version(
        seed in any::<u64>(),
        n in 4usize..=16,
        rounds in 4usize..=10,
        capacity in prop::collection::vec(2usize..=32, 1),
    ) {
        let capacity = capacity[0];
        let mut rng = StdRng::seed_from_u64(seed);
        // Seed graph: a ring so every node has in-edges.
        let edges: Vec<(NodeId, NodeId)> =
            (0..n as NodeId).map(|v| (v, (v + 1) % n as NodeId)).collect();
        let mut oracle = DynamicGraph::from_edges(n, &edges);
        let engine = ProbeSim::new(service_config(seed));
        let service = ServiceBuilder::new(service_config(seed))
            .workers(1)
            .cache_capacity(capacity)
            .retained_versions(4)
            .build(GraphStore::from_view(&oracle));
        // version -> edge-set oracle for every version ever published.
        let mut versions: Vec<(u64, CsrGraph)> = vec![(0, oracle.snapshot())];

        let mut hits_checked = 0u64;
        let mut kind = 0usize;
        for round in 0..rounds {
            // A few random updates (some no-ops on purpose).
            for _ in 0..rng.gen_range(0..3) {
                let u = rng.gen_range(0..n) as NodeId;
                let v = rng.gen_range(0..n) as NodeId;
                if u == v {
                    continue;
                }
                let update = if rng.gen::<f64>() < 0.6 {
                    GraphUpdate::Insert { u, v }
                } else {
                    GraphUpdate::Remove { u, v }
                };
                let effective = service.commit(update).was_effective();
                prop_assert_eq!(effective, oracle.apply(update), "oracle diverged");
                if effective {
                    versions.push((service.version(), oracle.snapshot()));
                }
            }
            // A few queries: repeats (cache pressure) + mixed consistency.
            for _ in 0..rng.gen_range(1..4usize) {
                let node = rng.gen_range(0..n) as NodeId;
                // Rotate the kinds so one source's entry is filled by one
                // kind and hit by the others.
                kind += 1;
                let query = match kind % 3 {
                    0 => Query::SingleSource { node },
                    1 => Query::TopK {
                        node,
                        k: rng.gen_range(1..=n),
                    },
                    _ => Query::Threshold {
                        node,
                        tau: rng.gen_range(0.0..0.3),
                    },
                };
                let (request, expected_version) = if rng.gen::<f64>() < 0.3 {
                    // Pin a random retained version.
                    let newest = service.version();
                    let oldest = service.oldest_retained_version();
                    let pin = oldest + rng.gen_range(0..(newest - oldest + 1));
                    (
                        Request::new(query).with_consistency(Consistency::Pinned(pin)),
                        pin,
                    )
                } else {
                    (Request::new(query), service.version())
                };
                let response = service.call(request).expect("valid request");
                // Latest never serves a stale version: any mutation
                // bumped the version, so the response is pinned to the
                // version current at call time.
                prop_assert_eq!(response.version, expected_version, "round {}", round);
                let oracle_csr = &versions
                    .iter()
                    .rev()
                    .find(|(v, _)| *v == response.version)
                    .expect("every served version was recorded")
                    .1;
                if response.cache_hit {
                    hits_checked += 1;
                }
                let context = format!(
                    "round {round} {query:?} version {} hit {}",
                    response.version, response.cache_hit
                );
                assert_bit_identical_to_scratch(
                    &engine,
                    oracle_csr,
                    query,
                    &response.output,
                    &context,
                )?;
            }
        }
        // The interleaving must actually exercise the cache sometimes;
        // across all proptest cases repeats guarantee hits, but a single
        // case may have none — only sanity-check the counters.
        let stats = service.stats();
        prop_assert_eq!(stats.cache_hits >= hits_checked, true);
    }
}

/// The benchmark acceptance shape, pinned as a deterministic in-repo
/// test: a repeated query set against a quiescent service executes each
/// distinct query once — the second pass is all cache hits and adds
/// **zero** `total_work`.
#[test]
fn repeat_pass_is_all_hits_with_zero_work_delta() {
    let g = probesim_graph::toy::toy_graph();
    let service = ServiceBuilder::new(service_config(0xBEEF))
        .workers(2)
        .cache_capacity(64)
        .build(GraphStore::from_view(&g));
    let queries: Vec<Query> = (0..8).map(|v| Query::SingleSource { node: v }).collect();
    for &query in &queries {
        let response = service.call(Request::new(query)).unwrap();
        assert!(!response.cache_hit, "first pass must execute");
    }
    let work_after_first_pass = service.stats().executed_work;
    assert!(work_after_first_pass > 0);
    for &query in &queries {
        let response = service.call(Request::new(query)).unwrap();
        assert!(response.cache_hit, "second pass must hit");
    }
    let stats = service.stats();
    assert_eq!(
        stats.executed_work, work_after_first_pass,
        "cached path must record zero total_work delta"
    );
    assert_eq!(stats.cache_hits, 8);
    assert_eq!(stats.cache_misses, 8);
}

/// Writer-side invalidation bounds the cache: entries whose version
/// leaves the retention window are dropped inside `GraphStore::mutate`
/// (observable through the invalidation counter and entry count).
#[test]
fn writer_side_invalidation_prunes_unreachable_versions() {
    let g = probesim_graph::toy::toy_graph();
    let service = ServiceBuilder::new(service_config(1))
        .workers(1)
        .cache_capacity(64)
        .retained_versions(2)
        .build(GraphStore::from_view(&g));
    // Populate an entry at version 0.
    let first = service
        .call(Request::new(Query::SingleSource { node: 0 }))
        .unwrap();
    assert_eq!(first.version, 0);
    assert_eq!(service.stats().cache_entries, 1);
    // Two effective mutations push version 0 out of the 2-deep window;
    // the observer fires inside mutate and prunes the entry.
    assert!(service
        .commit(GraphUpdate::Remove { u: 1, v: 0 })
        .was_effective());
    assert!(service
        .commit(GraphUpdate::Remove { u: 2, v: 0 })
        .was_effective());
    assert_eq!(service.stats().cache_entries, 0, "stale entry pruned");
    // And the pruned version is indeed unreachable.
    let err = service
        .call(
            Request::new(Query::SingleSource { node: 0 }).with_consistency(Consistency::Pinned(0)),
        )
        .unwrap_err();
    assert!(matches!(err, ServiceError::VersionNotRetained { .. }));
}
