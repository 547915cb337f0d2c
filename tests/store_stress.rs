//! Concurrent stress for the versioned graph store: one writer thread
//! streaming seeded updates (with compactions) against reader threads
//! that continuously pull snapshots and verify them.
//!
//! This is the property the whole store design rests on: a reader never
//! blocks on the writer, and every snapshot it pulls is **internally
//! consistent** — `num_edges` matches the iterated edge count, the
//! in/out adjacency directions mirror each other, every list is sorted
//! and deduplicated, and versions never move backwards — no matter how
//! the threads interleave.

use std::collections::BTreeSet;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;

use probesim::prelude::*;
use probesim_datasets::SlidingWindowStream;

/// Full internal-consistency audit of one snapshot.
fn assert_snapshot_consistent(snapshot: &GraphSnapshot) {
    let n = snapshot.num_nodes();
    let mut out_edges = 0usize;
    let mut in_edges = 0usize;
    for v in 0..n as NodeId {
        let out = snapshot.out_neighbors(v);
        assert!(
            out.windows(2).all(|w| w[0] < w[1]),
            "out({v}) not sorted/deduped: {out:?}"
        );
        let inn = snapshot.in_neighbors(v);
        assert!(
            inn.windows(2).all(|w| w[0] < w[1]),
            "in({v}) not sorted/deduped: {inn:?}"
        );
        out_edges += out.len();
        in_edges += inn.len();
        // Directions mirror each other: every out-edge is someone's
        // in-edge in the same snapshot.
        for &w in out {
            assert!(
                snapshot.in_neighbors(w).binary_search(&v).is_ok(),
                "edge ({v}, {w}) present in out but missing from in"
            );
        }
    }
    assert_eq!(
        out_edges,
        snapshot.num_edges(),
        "num_edges != Σ out-degrees"
    );
    assert_eq!(in_edges, snapshot.num_edges(), "num_edges != Σ in-degrees");
    assert_eq!(snapshot.edges_iter().count(), snapshot.num_edges());
}

#[test]
fn one_writer_four_readers_under_seeded_churn() {
    const N: usize = 64;
    const WINDOW: usize = 160;
    const UPDATES: usize = 1200;
    const READERS: usize = 4;

    // Warm the window so removals happen from the first event (the
    // first WINDOW events are distinct inserts).
    let mut stream = SlidingWindowStream::new(N, WINDOW, 0xC0DE);
    let warm: Vec<(NodeId, NodeId)> = stream.by_ref().take(WINDOW).map(|e| e.edge()).collect();
    let updates: Vec<GraphUpdate> = stream.take(UPDATES).collect();
    // Aggressive policy: many compactions while readers are live.
    let mut store = GraphStore::from_edges(N, &warm).with_policy(CompactionPolicy {
        max_touched_fraction: 0.05,
        min_touched_lists: 8,
    });
    // Scratch oracle replaying the same stream on the writer thread: a
    // plain edge set that shares no code with the overlay.
    let mut oracle: BTreeSet<(NodeId, NodeId)> = warm.into_iter().collect();

    let engine = ProbeSim::new(ProbeSimConfig::new(0.6, 0.15, 0.01).with_seed(77));
    let slot = Mutex::new(store.snapshot());
    let done = AtomicBool::new(false);

    // The readers loop until `done`; setting it from a drop guard means a
    // panicking writer still releases them, so the scope joins and the
    // panic propagates as a test failure instead of a deadlocked run.
    struct SetOnDrop<'a>(&'a AtomicBool);
    impl Drop for SetOnDrop<'_> {
        fn drop(&mut self) {
            self.0.store(true, Ordering::Release);
        }
    }
    let (store, oracle) = std::thread::scope(|scope| {
        let writer = scope.spawn(|| {
            let _release_readers = SetOnDrop(&done);
            for update in &updates {
                let a = store.apply(*update);
                let b = if update.is_insert() {
                    oracle.insert(update.edge())
                } else {
                    oracle.remove(&update.edge())
                };
                assert_eq!(a, b, "store and oracle disagreed on {update:?}");
                *slot.lock().unwrap() = store.snapshot();
            }
            (store, oracle)
        });

        let readers: Vec<_> = (0..READERS)
            .map(|r| {
                let slot = &slot;
                let done = &done;
                let engine = &engine;
                scope.spawn(move || {
                    let mut last_version = 0u64;
                    let mut pulls = 0usize;
                    let mut query_node: NodeId = r as NodeId;
                    loop {
                        let finished = done.load(Ordering::Acquire);
                        let snapshot = slot.lock().unwrap().clone();
                        assert!(
                            snapshot.version() >= last_version,
                            "version went backwards: {} after {last_version}",
                            snapshot.version()
                        );
                        last_version = snapshot.version();
                        assert_snapshot_consistent(&snapshot);
                        // And the snapshot is queryable from an owned
                        // session while the writer keeps going.
                        let out = engine
                            .session(snapshot)
                            .run(Query::SingleSource { node: query_node })
                            .expect("snapshot query failed");
                        assert!(out.scores.iter().all(|(_, s)| (0.0..=1.0).contains(&s)));
                        query_node = (query_node + READERS as NodeId) % N as NodeId;
                        pulls += 1;
                        if finished {
                            break;
                        }
                    }
                    pulls
                })
            })
            .collect();

        let (store, oracle) = writer.join().expect("writer panicked");
        for handle in readers {
            let pulls = handle.join().expect("reader panicked");
            assert!(pulls > 0, "a reader never pulled a snapshot");
        }
        (store, oracle)
    });

    assert!(
        store.compactions() > 0,
        "the aggressive policy must have compacted mid-run"
    );
    // Final state: the store, its last snapshot, a scratch CSR rebuilt
    // from the stream oracle, and a compacted fold all agree exactly.
    let rebuilt = CsrGraph::from_edge_iter(N, oracle.iter().copied());
    assert_eq!(store.num_edges(), rebuilt.num_edges());
    assert!(store.edges_iter().eq(rebuilt.edges_iter()));
    let mut store = store;
    store.compact();
    assert_eq!(
        store.base().as_ref(),
        &rebuilt,
        "compacted CSR != scratch rebuild"
    );
    let final_snapshot = store.snapshot();
    assert_snapshot_consistent(&final_snapshot);
    assert_eq!(final_snapshot.to_csr(), rebuilt);
}

/// A retained early snapshot is immune to everything that happens later:
/// heavy churn, compactions, store drop.
#[test]
fn early_snapshot_outlives_the_store() {
    let mut store = GraphStore::from_edges(8, &[(0, 1), (1, 2), (2, 3)]);
    let early = store.snapshot();
    let early_csr = early.to_csr();
    for round in 0..50u32 {
        let u = round % 8;
        let v = (round + 3) % 8;
        if u != v {
            store.insert_edge(u, v);
            store.remove_edge(u, v);
        }
        if round % 10 == 0 {
            store.compact();
        }
    }
    drop(store);
    // The snapshot still answers queries, bit-identical to its frozen
    // edge set, from another thread.
    let engine = ProbeSim::new(ProbeSimConfig::new(0.6, 0.1, 0.01).with_seed(5));
    let handle = std::thread::spawn(move || {
        let mut session = engine.session(early);
        let out = session.run(Query::SingleSource { node: 3 }).unwrap();
        (out.scores, session.graph().to_csr())
    });
    let (scores, csr_from_thread) = handle.join().unwrap();
    assert_eq!(csr_from_thread, early_csr);
    let engine = ProbeSim::new(ProbeSimConfig::new(0.6, 0.1, 0.01).with_seed(5));
    let reference = engine
        .session(&early_csr)
        .run(Query::SingleSource { node: 3 })
        .unwrap();
    assert_eq!(scores, reference.scores);
}

/// Several threads race the first read of each fresh snapshot, so the
/// lazily built read index is built under contention. Every thread must
/// see the adjacency and degrees of the snapshot's own `to_csr()`, which
/// also equals a scratch CSR of the oracle's edge set.
#[test]
fn racing_first_reads_see_the_published_graph() {
    const N: usize = 48;
    const WINDOW: usize = 120;
    const ROUNDS: usize = 40;
    const READERS: usize = 4;

    let mut stream = SlidingWindowStream::new(N, WINDOW, 0xF1257);
    let warm: Vec<(NodeId, NodeId)> = stream.by_ref().take(WINDOW).map(|e| e.edge()).collect();
    let mut store = GraphStore::from_edges(N, &warm).with_policy(CompactionPolicy {
        max_touched_fraction: 0.2,
        min_touched_lists: 8,
    });
    let mut oracle: BTreeSet<(NodeId, NodeId)> = warm.into_iter().collect();

    /// One thread's view of a snapshot: per node, its in-degree,
    /// out-degree, in-list and out-list.
    type View = Vec<(usize, usize, Vec<NodeId>, Vec<NodeId>)>;
    let read_all = |snapshot: &GraphSnapshot, first: usize| -> View {
        // Start at a different node per thread so the first read that
        // builds the index differs between threads.
        (0..N)
            .map(|i| ((first + i) % N) as NodeId)
            .map(|v| {
                (
                    snapshot.in_degree(v),
                    snapshot.out_degree(v),
                    snapshot.in_neighbors(v).to_vec(),
                    snapshot.out_neighbors(v).to_vec(),
                )
            })
            .collect()
    };

    let mut overlay_rounds = 0;
    for round in 0..ROUNDS {
        for update in stream.by_ref().take(5) {
            let changed = store.apply(update);
            let expect = if update.is_insert() {
                oracle.insert(update.edge())
            } else {
                oracle.remove(&update.edge())
            };
            assert_eq!(changed, expect, "store and oracle disagreed on {update:?}");
        }
        overlay_rounds += usize::from(store.touched_lists() > 0);
        let snapshot = store.snapshot();
        let barrier = std::sync::Barrier::new(READERS);
        let views: Vec<View> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..READERS)
                .map(|r| {
                    let (snapshot, barrier) = (&snapshot, &barrier);
                    scope.spawn(move || {
                        barrier.wait();
                        read_all(snapshot, r * N / READERS)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("reader panicked"))
                .collect()
        });
        let csr = snapshot.to_csr();
        assert_eq!(
            csr,
            CsrGraph::from_edge_iter(N, oracle.iter().copied()),
            "round {round}: snapshot != oracle"
        );
        for (r, view) in views.iter().enumerate() {
            let first = r * N / READERS;
            for (i, (in_deg, out_deg, inn, out)) in view.iter().enumerate() {
                let v = ((first + i) % N) as NodeId;
                assert_eq!(
                    *in_deg,
                    csr.in_degree(v),
                    "round {round}, reader {r}: in_degree({v})"
                );
                assert_eq!(
                    *out_deg,
                    csr.out_degree(v),
                    "round {round}, reader {r}: out_degree({v})"
                );
                assert_eq!(
                    inn,
                    csr.in_neighbors(v),
                    "round {round}, reader {r}: in({v})"
                );
                assert_eq!(
                    out,
                    csr.out_neighbors(v),
                    "round {round}, reader {r}: out({v})"
                );
            }
        }
    }
    // Most snapshots read through touched rows, and folds happened
    // between rounds.
    assert!(
        overlay_rounds > ROUNDS / 2,
        "only {overlay_rounds} overlay rounds"
    );
    assert!(store.compactions() > 0, "the policy must have compacted");
}
