//! End-to-end fleet properties.
//!
//! The load-bearing one: under a seeded writer stream with a randomly
//! lagging replica, every `AtLeastVersion(v)` response (a) reports a
//! version ≥ v and (b) is bit-identical (`f64::to_bits`) to the same
//! query answered on a scratch store rebuilt from exactly the log
//! prefix the response claims — the log really is the fleet's source of
//! truth, and replication lag is invisible to correctness. A second
//! property drives all three query kinds `Pinned` at the final version
//! against every endpoint and demands bit-exact cross-replica
//! agreement.

use std::time::Duration;

use probesim_core::{ProbeSimConfig, Query, QueryOutput};
use probesim_fleet::{FaultPlan, Fleet, FleetError, LogRecord, UpdateLog};
use probesim_graph::{CsrGraph, GraphStore, GraphUpdate, GraphView, NodeId};
use probesim_service::{Consistency, Request, ServiceBuilder, ServiceError};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const N: usize = 20;
const DECAY: f64 = 0.36;

/// A recorded read to re-check against the log: (answered version,
/// query, bit-exact ranking).
type Check = (u64, Query, Vec<(NodeId, u64)>);

fn config(seed: u64) -> ProbeSimConfig {
    ProbeSimConfig::new(DECAY, 0.1, 0.01).with_seed(seed)
}

fn base_graph(rng: &mut StdRng) -> (CsrGraph, Vec<(NodeId, NodeId)>) {
    let mut edges = Vec::new();
    for u in 0..N as NodeId {
        let out = 1 + rng.gen_range(0usize..3);
        for _ in 0..out {
            let v = rng.gen_range(0..N as NodeId);
            if v != u {
                edges.push((u, v));
            }
        }
    }
    edges.sort_unstable();
    edges.dedup();
    (CsrGraph::from_edges(N, &edges), edges)
}

fn random_update(rng: &mut StdRng) -> GraphUpdate {
    let u = rng.gen_range(0..N as NodeId);
    let mut v = rng.gen_range(0..N as NodeId);
    if v == u {
        v = (v + 1) % N as NodeId;
    }
    if rng.gen::<f64>() < 0.6 {
        GraphUpdate::Insert { u, v }
    } else {
        GraphUpdate::Remove { u, v }
    }
}

fn query_kind(rng: &mut StdRng) -> Query {
    let node = rng.gen_range(0..N as NodeId);
    match rng.gen_range(0u8..3) {
        0 => Query::SingleSource { node },
        1 => Query::TopK { node, k: 5 },
        _ => Query::Threshold { node, tau: 0.05 },
    }
}

/// The log's whole retained range, read in one piece: a supervisor
/// truncation between reading `first_lsn` and copying out moves the
/// range, so retry until both reads agree.
fn retained_records(log: &UpdateLog) -> Vec<LogRecord> {
    loop {
        if let Ok(records) = log.records_from(log.first_lsn()) {
            return records;
        }
    }
}

/// The log records this test's effective commits produced: LSN `i + 1`
/// carries `effective[i]`.
fn committed_records(effective: &[GraphUpdate]) -> Vec<LogRecord> {
    effective
        .iter()
        .zip(1..)
        .map(|(&update, lsn)| LogRecord { lsn, update })
        .collect()
}

fn ranking_bits(output: &QueryOutput) -> Vec<(NodeId, u64)> {
    output
        .ranking()
        .iter()
        .map(|&(node, score)| (node, score.to_bits()))
        .collect()
}

/// Replays the first `version` effective updates the test committed
/// onto a copy of the base graph and answers `query` on the result with a fresh, identically
/// seeded service.
fn scratch_answer(
    base_edges: &[(NodeId, NodeId)],
    effective: &[GraphUpdate],
    version: u64,
    query: Query,
    seed: u64,
) -> Vec<(NodeId, u64)> {
    let mut store = GraphStore::from_csr(CsrGraph::from_edges(N, base_edges));
    for &update in &effective[..version as usize] {
        assert!(
            store.apply(update),
            "log records are effective by construction"
        );
    }
    assert_eq!(store.version(), version, "log prefix rebuilds the version");
    let service = ServiceBuilder::new(config(seed)).workers(1).build(store);
    let response = service
        .call(Request::new(query))
        .expect("scratch service answers");
    assert_eq!(response.version, version);
    ranking_bits(&response.output)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Read-your-writes against lagging replicas, checked against a
    /// from-the-log scratch rebuild.
    #[test]
    fn at_least_version_reads_match_the_log_prefix(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let (base, base_edges) = base_graph(&mut rng);
        let fleet = Fleet::builder(config(seed))
            .replicas(3)
            .workers(1)
            .retained_versions(16)
            // One replica lags on every applied record; the router must
            // route around it (or wait it out) without ever serving a
            // stale read.
            .faults(FaultPlan::none().with_slow_apply(1, Duration::from_millis(2)))
            .build(base);

        let mut checks: Vec<Check> = Vec::new();
        let mut effective = Vec::new();
        for round in 0..32 {
            let update = random_update(&mut rng);
            let commit = fleet.commit(update);
            if commit.was_effective() {
                effective.push(update);
            }
            if round % 4 == 0 {
                // Read your own write: the response may never be older
                // than the commit token just returned.
                let query = query_kind(&mut rng);
                let response = fleet
                    .call(
                        Request::new(query)
                            .with_consistency(Consistency::AtLeastVersion(commit.version))
                            .with_deadline(Duration::from_secs(20)),
                    )
                    .expect("a caught-up replica answers within the deadline");
                prop_assert!(
                    response.version >= commit.version,
                    "AtLeastVersion({}) answered at {}",
                    commit.version,
                    response.version
                );
                checks.push((response.version, query, ranking_bits(&response.output)));
            }
        }

        let final_version = fleet.version();
        prop_assert_eq!(fleet.log().last_lsn(), final_version);
        prop_assert_eq!(effective.len() as u64, final_version);
        prop_assert!(fleet.wait_for_replication(final_version, Duration::from_secs(30)));

        // The log retains a tail of history (the supervisor truncates
        // what a checkpoint covers): exactly the tail of what this test
        // committed.
        let retained = retained_records(fleet.log());
        let committed = committed_records(&effective);
        prop_assert!(retained.len() <= committed.len());
        prop_assert_eq!(&retained[..], &committed[committed.len() - retained.len()..]);

        // Every response must equal the scratch rebuild of the log
        // prefix it claims, bit for bit.
        for (version, query, bits) in checks {
            let scratch = scratch_answer(&base_edges, &effective, version, query, seed);
            prop_assert_eq!(
                &bits, &scratch,
                "response at version {} diverged from its log prefix", version
            );
        }
    }

    /// Any two endpoints at the same version agree bit-exactly on all
    /// three query kinds.
    #[test]
    fn replicas_agree_bit_exactly_at_equal_versions(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let (base, _) = base_graph(&mut rng);
        let fleet = Fleet::builder(config(seed))
            .replicas(3)
            .workers(1)
            .retained_versions(64)
            .faults(FaultPlan::none().with_slow_apply(2, Duration::from_millis(1)))
            .build(base);

        for _ in 0..24 {
            fleet.commit(random_update(&mut rng));
        }
        let version = fleet.version();
        prop_assert!(fleet.wait_for_replication(version, Duration::from_secs(30)));

        let node = rng.gen_range(0..N as NodeId);
        for query in [
            Query::SingleSource { node },
            Query::TopK { node, k: 5 },
            Query::Threshold { node, tau: 0.05 },
        ] {
            let request = Request::new(query).with_consistency(Consistency::Pinned(version));
            let reference = fleet
                .primary()
                .call(request)
                .expect("the primary retains its newest version");
            let reference_bits = ranking_bits(&reference.output);
            prop_assert_eq!(reference.version, version);
            for replica in fleet.replicas() {
                let response = replica
                    .service()
                    .call(request)
                    .expect("a caught-up replica retains its newest version");
                prop_assert_eq!(response.version, version);
                prop_assert_eq!(
                    &ranking_bits(&response.output), &reference_bits,
                    "replica {} diverged on {:?}", replica.slot(), query
                );
            }
        }
    }
}

#[test]
fn commit_tokens_chain_into_reads_end_to_end() {
    let fleet = Fleet::builder(config(7))
        .replicas(2)
        .build(CsrGraph::from_edges(4, &[(0, 1), (1, 2), (2, 3)]));
    let commit = fleet.commit(GraphUpdate::Insert { u: 3, v: 0 });
    assert!(commit.was_effective());
    assert_eq!(commit.version, 1);
    // A duplicate insert is a no-op and appends nothing.
    let noop = fleet.commit(GraphUpdate::Insert { u: 3, v: 0 });
    assert!(!noop.was_effective());
    assert_eq!(noop.version, 1);
    assert_eq!(fleet.log().last_lsn(), 1);

    let response = fleet
        .call(
            Request::new(Query::SingleSource { node: 0 })
                .with_consistency(Consistency::AtLeastVersion(commit.version))
                .with_deadline(Duration::from_secs(10)),
        )
        .expect("read-your-writes");
    assert!(response.version >= commit.version);
}

#[test]
fn zero_admission_sheds_with_a_typed_overload_error() {
    let fleet = Fleet::builder(config(7))
        .replicas(1)
        .max_pending(0)
        .build(CsrGraph::from_edges(3, &[(0, 1), (1, 2)]));
    match fleet.call(Request::new(Query::SingleSource { node: 0 })) {
        Err(FleetError::Overloaded { queue_depth, limit }) => {
            assert_eq!((queue_depth, limit), (0, 0));
        }
        other => panic!("expected Overloaded, got {other:?}"),
    }
}

#[test]
fn auto_sized_workers_match_the_service() {
    let base = CsrGraph::from_edges(3, &[(0, 1), (1, 2)]);
    let service = ServiceBuilder::new(config(7))
        .workers(0)
        .build(GraphStore::from_csr(base.clone()));
    let fleet = Fleet::builder(config(7)).replicas(1).workers(0).build(base);
    assert_eq!(fleet.primary().workers(), service.workers());
}

#[test]
fn pinning_a_future_version_reports_not_reached() {
    let fleet = Fleet::builder(config(7))
        .replicas(1)
        .build(CsrGraph::from_edges(3, &[(0, 1), (1, 2)]));
    match fleet.call(
        Request::new(Query::SingleSource { node: 0 }).with_consistency(Consistency::Pinned(3)),
    ) {
        Err(FleetError::Service(ServiceError::VersionNotReached {
            requested: 3,
            newest: 0,
        })) => {}
        other => panic!("expected VersionNotReached, got {other:?}"),
    }
}

#[test]
fn hopelessly_lagging_replicas_produce_a_typed_error() {
    let fleet = Fleet::builder(config(7))
        .replicas(1)
        .faults(FaultPlan::none().with_slow_apply(0, Duration::from_millis(250)))
        .build(CsrGraph::from_edges(3, &[(0, 1), (1, 2)]));
    let commit = fleet.commit(GraphUpdate::Insert { u: 2, v: 0 });
    match fleet.call(
        Request::new(Query::SingleSource { node: 0 })
            .with_consistency(Consistency::AtLeastVersion(commit.version))
            .with_deadline(Duration::from_millis(1)),
    ) {
        Err(FleetError::LaggingReplicas {
            requested,
            newest_applied,
        }) => {
            assert_eq!(requested, commit.version);
            assert!(newest_applied < commit.version);
        }
        other => panic!("expected LaggingReplicas, got {other:?}"),
    }
    // With time to catch up the same read succeeds.
    assert!(fleet.wait_for_replication(commit.version, Duration::from_secs(30)));
    let response = fleet
        .call(
            Request::new(Query::SingleSource { node: 0 })
                .with_consistency(Consistency::AtLeastVersion(commit.version)),
        )
        .expect("caught-up replica serves the read");
    assert!(response.version >= commit.version);
}

#[test]
fn log_replay_reconstructs_the_primary_exactly() {
    let mut rng = StdRng::seed_from_u64(2017);
    let (base, _) = base_graph(&mut rng);
    let fleet = Fleet::builder(config(2017)).replicas(1).build(base);
    while fleet.version() < 40 {
        fleet.commit(random_update(&mut rng));
    }
    let version = fleet.version();
    assert!(fleet.wait_for_replication(version, Duration::from_secs(30)));
    // 40 versions pass the default 32-version cadence: the supervisor
    // checkpoints and truncates the log behind the caught-up replica.
    let deadline = std::time::Instant::now() + Duration::from_secs(30);
    while fleet.log().first_lsn() == 1 {
        assert!(
            std::time::Instant::now() < deadline,
            "the log was never truncated"
        );
        std::thread::sleep(Duration::from_millis(1));
    }
    // Serialize, corrupt-check, decode, then replay the latest
    // checkpoint plus the retained suffix: the rebuilt store's edge set
    // must equal the primary's snapshot bit for bit. The log is read
    // before the checkpoint, so the checkpoint can only be newer than
    // the log's truncation point.
    let encoded = fleet.log().encode();
    let decoded = probesim_fleet::decode_log(&encoded).expect("round trip");
    let checkpoint = fleet
        .latest_checkpoint()
        .expect("truncation follows a checkpoint");
    let first_lsn = decoded.first().map_or(version + 1, |record| record.lsn);
    assert!(first_lsn > 1 && first_lsn <= checkpoint.lsn() + 1);
    assert_eq!(decoded.len() as u64, version + 1 - first_lsn);
    let mut rebuilt = checkpoint.to_store();
    for record in decoded
        .iter()
        .filter(|record| record.lsn > checkpoint.lsn())
    {
        assert!(rebuilt.apply(record.update));
    }
    assert_eq!(rebuilt.version(), version);
    let mut replayed: Vec<_> = rebuilt.snapshot().edges_iter().collect();
    let mut primary: Vec<_> = fleet.primary().snapshot().edges_iter().collect();
    replayed.sort_unstable();
    primary.sort_unstable();
    assert_eq!(replayed, primary);
}
