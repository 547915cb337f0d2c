//! Cache-soundness tests for the `QueryService` result cache.
//!
//! The contract: after any update/query interleaving, **every cache hit
//! equals a scratch re-execution of the requested query at the same
//! pinned version** (`to_bits`-compared), including hits on an entry
//! another query kind filled for the same source, and every mutation
//! bumps the version so `Latest` can never be served a stale entry.

use std::collections::BTreeSet;
use std::time::Duration;

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
        // Plain edge-set model of the served graph, rebuilt into a
        // scratch CSR per version.
        let mut oracle: BTreeSet<(NodeId, NodeId)> = edges.iter().copied().collect();
        let scratch = |oracle: &BTreeSet<(NodeId, NodeId)>| {
            CsrGraph::from_edge_iter(n, oracle.iter().copied())
        };
        let engine = ProbeSim::new(service_config(seed));
        let service = ServiceBuilder::new(service_config(seed))
            .workers(1)
            .cache_capacity(capacity)
            .retained_versions(4)
            .build(GraphStore::from_edges(n, &edges));
        // version -> edge-set oracle for every version ever published.
        let mut versions: Vec<(u64, CsrGraph)> = vec![(0, scratch(&oracle))];

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
                let expected = if update.is_insert() {
                    oracle.insert(update.edge())
                } else {
                    oracle.remove(&update.edge())
                };
                prop_assert_eq!(effective, expected, "oracle diverged");
                if effective {
                    versions.push((service.version(), scratch(&oracle)));
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
/// leaves the retention window are dropped inside `QueryService::commit`
/// (observable through the invalidation counter and entry count), and
/// only effective commits invalidate.
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
    // No-op commits (a duplicate insert, then an absent remove) change
    // neither the version nor the cache.
    for no_op in [
        GraphUpdate::Insert { u: 1, v: 0 },
        GraphUpdate::Remove { u: 0, v: 0 },
    ] {
        assert!(!service.commit(no_op).was_effective());
    }
    let stats = service.stats();
    assert_eq!(service.version(), 0);
    assert_eq!((stats.cache_entries, stats.cache_invalidated), (1, 0));
    // Two effective mutations push version 0 out of the 2-deep window;
    // the commit path prunes the entry.
    assert!(service
        .commit(GraphUpdate::Remove { u: 1, v: 0 })
        .was_effective());
    assert!(service
        .commit(GraphUpdate::Remove { u: 2, v: 0 })
        .was_effective());
    let stats = service.stats();
    assert_eq!(stats.cache_entries, 0, "stale entry pruned");
    assert_eq!(stats.cache_invalidated, 1);
    // And the pruned version is indeed unreachable.
    let err = service
        .call(
            Request::new(Query::SingleSource { node: 0 }).with_consistency(Consistency::Pinned(0)),
        )
        .unwrap_err();
    assert!(matches!(err, ServiceError::VersionNotRetained { .. }));
}

/// A 32-node ring with chords: enough distinct sources for one per
/// (consistency, filling kind) pair, and every node has in-edges.
fn chorded_ring() -> (usize, Vec<(NodeId, NodeId)>) {
    let n = 32usize;
    let mut edges: Vec<(NodeId, NodeId)> = (0..n as NodeId)
        .map(|v| (v, (v + 1) % n as NodeId))
        .collect();
    edges.extend(
        (0..n as NodeId)
            .step_by(3)
            .map(|v| (v, (v + 7) % n as NodeId)),
    );
    (n, edges)
}

/// The three query kinds on `node`.
fn kinds(node: NodeId) -> [Query; 3] {
    [
        Query::SingleSource { node },
        Query::TopK { node, k: 5 },
        Query::Threshold { node, tau: 0.01 },
    ]
}

/// Hits answered on the caller's thread, for every query kind under
/// every consistency level: each is bit-identical to the queued
/// execution that filled the entry (same scores and counters) and to a
/// fresh `QuerySession` at the answering version, describes the
/// request's own query, and spent no time queued.
#[test]
fn caller_side_hits_are_bit_identical_under_every_consistency() {
    let (n, edges) = chorded_ring();
    let engine = ProbeSim::new(service_config(11));
    let service = ServiceBuilder::new(service_config(11))
        .workers(2)
        .cache_capacity(64)
        .retained_versions(4)
        .build(GraphStore::from_edges(n, &edges));
    let mut snapshots = vec![service.snapshot()];
    for update in [
        GraphUpdate::Insert { u: 4, v: 20 },
        GraphUpdate::Remove { u: 9, v: 10 },
    ] {
        assert!(service.commit(update).was_effective());
        snapshots.push(service.snapshot());
    }
    let levels = [
        Consistency::Latest,
        Consistency::AtLeastVersion(2),
        Consistency::Pinned(1),
    ];
    let mut source: NodeId = 0;
    for level in levels {
        for fill_kind in 0..3 {
            source += 1;
            let fill_query = kinds(source)[fill_kind];
            let fill = service
                .call(Request::new(fill_query).with_consistency(level))
                .unwrap();
            assert!(
                !fill.cache_hit,
                "{level:?} {fill_query:?}: first call fills"
            );
            let snapshot = &snapshots[fill.version as usize];
            for query in kinds(source) {
                let submitted_before = service.stats().submitted;
                let hit = service
                    .call(Request::new(query).with_consistency(level))
                    .unwrap();
                let context = format!("{level:?} filled by {fill_query:?}, hit by {query:?}");
                assert!(hit.cache_hit, "{context}");
                assert_eq!(hit.version, fill.version, "{context}");
                assert_eq!(hit.queue_wait, Duration::ZERO, "{context}");
                assert_eq!(
                    service.stats().submitted,
                    submitted_before,
                    "{context}: a hit is not queued"
                );
                assert_eq!(hit.output.query, query, "{context}");
                assert_eq!(hit.output.scores, fill.output.scores, "{context}");
                assert_eq!(hit.output.stats, fill.output.stats, "{context}");
                assert_bit_identical_to_scratch(
                    &engine,
                    &snapshot.to_csr(),
                    query,
                    &hit.output,
                    &context,
                )
                .unwrap();
                let fresh = engine.session(snapshot.clone()).run(query).unwrap();
                assert_eq!(*hit.output, fresh, "{context}");
                // `submit` answers the same hit with an already-resolved
                // ticket.
                let ticket = service.submit(Request::new(query).with_consistency(level));
                let polled = ticket.poll().expect("a hit's ticket is resolved").unwrap();
                assert!(polled.cache_hit, "{context}");
                assert_eq!(*polled.output, fresh, "{context}");
            }
        }
    }
}

/// Every valid request counts exactly one cache hit or miss, whether
/// the hit was answered on the caller's thread or by a worker, so
/// `cache_hits + cache_misses` equals the request count; only misses
/// and errors are queued, and errors count neither.
#[test]
fn hits_plus_misses_equal_the_request_count() {
    let (n, edges) = chorded_ring();
    let service = ServiceBuilder::new(service_config(3))
        .workers(2)
        .cache_capacity(16)
        .build(GraphStore::from_edges(n, &edges));
    let mut rng = StdRng::seed_from_u64(3);
    let mut requests = 0u64;
    for round in 0..200u32 {
        if round % 50 == 49 {
            service.commit(GraphUpdate::Insert {
                u: round % n as u32,
                v: (round / 7) % n as u32,
            });
        }
        let node = rng.gen_range(0..8) as NodeId;
        let query = kinds(node)[rng.gen_range(0..3usize)];
        service.call(Request::new(query)).unwrap();
        requests += 1;
    }
    let stats = service.stats();
    assert_eq!(stats.cache_hits + stats.cache_misses, requests);
    assert!(stats.cache_hits > 0 && stats.cache_misses > 0);
    // Sequential calls: each miss was queued once and answered by a
    // worker; no hit was queued.
    assert_eq!(stats.submitted, stats.cache_misses);
    assert_eq!(stats.completed, stats.submitted);

    // The same holds with callers racing each other on shared sources,
    // where a queued request may also find an entry another worker just
    // filled.
    let before = service.stats();
    let per_thread = 300u64;
    std::thread::scope(|scope| {
        for t in 0..3u64 {
            let service = &service;
            scope.spawn(move || {
                let mut rng = StdRng::seed_from_u64(100 + t);
                for _ in 0..per_thread {
                    let node = rng.gen_range(0..12) as NodeId;
                    let query = kinds(node)[rng.gen_range(0..3usize)];
                    let ticket = service.submit(Request::new(query));
                    ticket.wait().unwrap();
                }
            });
        }
    });
    let after = service.stats();
    assert_eq!(
        (after.cache_hits + after.cache_misses) - (before.cache_hits + before.cache_misses),
        3 * per_thread
    );
    assert_eq!(after.submitted, after.completed);

    // Invalid shapes are queued and rejected there, counting neither.
    let err = service
        .call(Request::new(Query::TopK { node: 0, k: 0 }))
        .unwrap_err();
    assert_eq!(err, ServiceError::Query(QueryError::InvalidK { k: 0 }));
    let stats = service.stats();
    assert_eq!(
        stats.cache_hits + stats.cache_misses,
        after.cache_hits + after.cache_misses
    );
    assert_eq!(stats.submitted, after.submitted + 1);
}

/// An error request on a cached source takes the queue and fails there
/// exactly as it did before caller-side hits existed: an invalid shape,
/// an already-expired deadline (counted as a deadline abort), a version
/// not reached and a version no longer retained.
#[test]
fn error_requests_on_cached_sources_fail_as_before() {
    let (n, edges) = chorded_ring();
    let service = ServiceBuilder::new(service_config(5))
        .workers(1)
        .cache_capacity(16)
        .retained_versions(2)
        .build(GraphStore::from_edges(n, &edges));
    let source: NodeId = 3;
    service
        .call(Request::new(Query::SingleSource { node: source }))
        .unwrap();
    assert!(
        service
            .call(Request::new(Query::TopK { node: source, k: 2 }))
            .unwrap()
            .cache_hit
    );
    let before = service.stats();
    let cases: Vec<(Request, ServiceError)> = vec![
        (
            Request::new(Query::TopK { node: source, k: 0 }),
            ServiceError::Query(QueryError::InvalidK { k: 0 }),
        ),
        (
            Request::new(Query::Threshold {
                node: source,
                tau: -0.5,
            }),
            ServiceError::Query(QueryError::InvalidThreshold { tau: -0.5 }),
        ),
        (
            Request::new(Query::SingleSource { node: source }).with_deadline(Duration::ZERO),
            ServiceError::Query(QueryError::DeadlineExceeded {
                partial: QueryStats::default(),
            }),
        ),
        (
            Request::new(Query::SingleSource { node: source })
                .with_consistency(Consistency::AtLeastVersion(1)),
            ServiceError::VersionNotReached {
                requested: 1,
                newest: 0,
            },
        ),
    ];
    for (request, expected) in &cases {
        assert_eq!(
            service.call(*request).unwrap_err(),
            *expected,
            "{request:?}"
        );
        assert_eq!(service.submit(*request).wait().unwrap_err(), *expected);
    }
    let err = service
        .call(Request::new(Query::Threshold {
            node: source,
            tau: f64::NAN,
        }))
        .unwrap_err();
    assert!(matches!(
        err,
        ServiceError::Query(QueryError::InvalidThreshold { tau }) if tau.is_nan()
    ));
    let after = service.stats();
    let errors = 2 * cases.len() as u64 + 1;
    assert_eq!(
        after.submitted - before.submitted,
        errors,
        "errors are queued"
    );
    assert_eq!(after.completed, after.submitted);
    assert_eq!(after.cache_hits, before.cache_hits, "no error hit");
    assert_eq!(after.cache_misses, before.cache_misses);
    assert_eq!(after.deadline_exceeded - before.deadline_exceeded, 2);

    // Version 0 stays cached only while it is retained; once it leaves
    // the window a pin on it fails as not retained, not as a hit.
    for v in [20, 21] {
        assert!(service
            .commit(GraphUpdate::Insert { u: 0, v })
            .was_effective());
    }
    let err = service
        .call(
            Request::new(Query::SingleSource { node: source })
                .with_consistency(Consistency::Pinned(0)),
        )
        .unwrap_err();
    assert_eq!(
        err,
        ServiceError::VersionNotRetained {
            requested: 0,
            oldest_retained: 1,
            newest: 2
        }
    );
}

/// Hits never enter the queue: while callers hammer cached sources,
/// `queue_depth` stays 0, `submitted` does not move, and `drain`
/// returns without waiting on them.
#[test]
fn hits_are_never_queued_and_drain_does_not_wait_on_them() {
    use std::sync::atomic::{AtomicBool, Ordering};
    let (n, edges) = chorded_ring();
    let service = ServiceBuilder::new(service_config(9))
        .workers(1)
        .cache_capacity(16)
        .build(GraphStore::from_edges(n, &edges));
    for node in 0..4 {
        service
            .call(Request::new(Query::SingleSource { node }))
            .unwrap();
    }
    let queued = service.stats().submitted;
    let stop = AtomicBool::new(false);
    let (drained, drains) = std::sync::mpsc::channel();
    std::thread::scope(|scope| {
        for t in 0..2u32 {
            let (service, stop) = (&service, &stop);
            scope.spawn(move || {
                let mut round = 0u32;
                while !stop.load(Ordering::Relaxed) {
                    round += 1;
                    let query = kinds((round + t) % 4)[(round % 3) as usize];
                    assert!(service.call(Request::new(query)).unwrap().cache_hit);
                }
            });
        }
        let service = &service;
        scope.spawn(move || {
            for _ in 0..200 {
                assert_eq!(service.queue_depth(), 0);
                service.drain();
                drained.send(()).unwrap();
            }
        });
        // Stop the hitters before judging, so a failure cannot hang the
        // scope on them.
        let all_drained = (0..200).all(|_| drains.recv_timeout(Duration::from_secs(10)).is_ok());
        stop.store(true, Ordering::Relaxed);
        assert!(all_drained, "drain waited on hits");
    });
    let stats = service.stats();
    assert_eq!(stats.submitted, queued, "no hit was queued");
    assert_eq!(stats.queue_depth, 0);
    assert!(stats.cache_hits > 0);
}

/// Read-your-writes under a live writer: two readers send
/// `AtLeastVersion(last commit)` reads on a handful of sources while
/// one writer commits. Every answer, hit or fresh, is at or above its
/// floor and bit-identical to a scratch execution at its version.
#[test]
fn at_least_version_hits_race_a_writer_soundly() {
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
    let (n, edges) = chorded_ring();
    let engine = ProbeSim::new(service_config(13));
    let service = ServiceBuilder::new(service_config(13))
        .workers(2)
        .cache_capacity(64)
        .retained_versions(64)
        .build(GraphStore::from_edges(n, &edges));
    let floor = AtomicU64::new(0);
    let done = AtomicBool::new(false);
    let (snapshots, reads) = std::thread::scope(|scope| {
        let (service, floor, done) = (&service, &floor, &done);
        let writer = scope.spawn(move || {
            let mut snapshots = vec![service.snapshot()];
            for i in 0..40u32 {
                let (u, v) = (i % n as u32, (i * 5 + 11) % n as u32);
                let update = if i % 4 == 3 {
                    GraphUpdate::Remove { u, v }
                } else {
                    GraphUpdate::Insert { u, v }
                };
                let commit = service.commit(update);
                if commit.was_effective() {
                    snapshots.push(service.snapshot());
                    assert_eq!(snapshots.last().unwrap().version(), commit.version);
                }
                floor.store(commit.version, Ordering::SeqCst);
                std::thread::sleep(Duration::from_micros(500));
            }
            done.store(true, Ordering::SeqCst);
            snapshots
        });
        let readers: Vec<_> = (0..2u64)
            .map(|t| {
                scope.spawn(move || {
                    let mut rng = StdRng::seed_from_u64(t);
                    let mut reads = Vec::new();
                    while !done.load(Ordering::SeqCst) && reads.len() < 4000 {
                        let at_least = floor.load(Ordering::SeqCst);
                        let query = kinds(rng.gen_range(0..4u32))[rng.gen_range(0..3usize)];
                        let response = service
                            .call(
                                Request::new(query)
                                    .with_consistency(Consistency::AtLeastVersion(at_least)),
                            )
                            .unwrap();
                        reads.push((at_least, query, response));
                    }
                    reads
                })
            })
            .collect();
        let snapshots = writer.join().unwrap();
        let reads: Vec<_> = readers
            .into_iter()
            .flat_map(|reader| reader.join().unwrap())
            .collect();
        (snapshots, reads)
    });
    let mut hits = 0;
    for (at_least, query, response) in &reads {
        assert!(response.version >= *at_least, "{query:?} below its floor");
        let snapshot = snapshots
            .iter()
            .find(|s| s.version() == response.version)
            .expect("every answering version was published");
        let context = format!(
            "{query:?} at v{} hit {}",
            response.version, response.cache_hit
        );
        assert_bit_identical_to_scratch(
            &engine,
            &snapshot.to_csr(),
            *query,
            &response.output,
            &context,
        )
        .unwrap();
        hits += usize::from(response.cache_hit);
    }
    assert!(hits > 0, "the race exercised no hit");
    let stats = service.stats();
    assert_eq!(stats.cache_hits + stats.cache_misses, reads.len() as u64);
}
