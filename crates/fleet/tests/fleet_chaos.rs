//! Fault-tolerance properties: chaos convergence, checkpointed
//! suffix-only recovery, supervised respawn, quarantine failover and
//! salvage surfacing.
//!
//! The headline property: under a **seeded fault plan** (crashes,
//! stalls, slow applies, corrupt local-log reads — a pure function of
//! the seed), the supervised fleet still converges, and every surviving
//! `AtLeastVersion(v)` response is bit-identical to the same query
//! answered on a scratch store rebuilt from exactly the log prefix the
//! response claims. Crash recovery is not allowed to cost correctness —
//! only restarts, which the registry counts and the tests assert on.

use std::time::Duration;

use probesim_core::{ProbeSimConfig, Query, QueryOutput};
use probesim_fleet::{
    read_checkpoint_file, write_checkpoint_file, FaultPlan, Fleet, LogRecord, ReplicaHealth,
    UpdateLog,
};
use probesim_graph::{CsrGraph, GraphStore, GraphUpdate, GraphView, NodeId};
use probesim_service::{Consistency, Request, ServiceBuilder};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const N: usize = 20;
const DECAY: f64 = 0.36;

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
/// onto a copy of the base graph and answers `query` with a fresh, identically seeded service.
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

    /// The headline property (see the module docs): a seeded chaos run
    /// converges and every surviving read matches its claimed log
    /// prefix bit for bit, with restarts accounted for.
    #[test]
    fn chaos_runs_converge_and_reads_match_the_log_prefix(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let (base, base_edges) = base_graph(&mut rng);
        let plan = FaultPlan::seeded(seed, 3, 32);
        let fleet = Fleet::builder(config(seed))
            .replicas(3)
            .workers(1)
            .retained_versions(64)
            .faults(plan.clone())
            .supervision_tick(Duration::from_millis(1))
            .checkpoint_every(8)
            // Up to two lethal faults (crash + corrupt read) can fire
            // per replica over the fleet's lifetime.
            .restart_budget(4)
            .build(base);

        // (version floor, query, bit-exact ranking) per surviving read.
        #[allow(clippy::type_complexity)] // a 3-tuple accumulator, named by the comment above
        let mut checks: Vec<(u64, Query, Vec<(NodeId, u64)>)> = Vec::new();
        let mut effective = Vec::new();
        for round in 0..32 {
            let update = random_update(&mut rng);
            let commit = fleet.commit(update);
            if commit.was_effective() {
                effective.push(update);
            }
            if round % 4 == 0 {
                let query = match rng.gen_range(0u8..3) {
                    0 => Query::SingleSource { node: rng.gen_range(0..N as NodeId) },
                    1 => Query::TopK { node: rng.gen_range(0..N as NodeId), k: 5 },
                    _ => Query::Threshold { node: rng.gen_range(0..N as NodeId), tau: 0.05 },
                };
                let response = fleet
                    .call(
                        Request::new(query)
                            .with_consistency(Consistency::AtLeastVersion(commit.version))
                            .with_deadline(Duration::from_secs(20)),
                    )
                    .expect("the fleet survives its fault plan within the deadline");
                prop_assert!(response.version >= commit.version);
                checks.push((response.version, query, ranking_bits(&response.output)));
            }
        }

        let final_version = fleet.version();
        prop_assert_eq!(fleet.log().last_lsn(), final_version);
        prop_assert_eq!(effective.len() as u64, final_version);
        // Convergence: every routable replica reaches the head. With a
        // budget of 4 nothing gets retired, so this covers all three.
        prop_assert!(fleet.wait_for_replication(final_version, Duration::from_secs(30)));

        // Every lethal fault that provably blocked convergence demanded
        // a respawn. (A crash *at* the head publishes the head before
        // dying, so only strictly-earlier crashes are guaranteed to
        // have been respawned by the time the wait returns; a corrupt
        // read fires before applying its LSN, so `<=` suffices.)
        for slot in 0..3 {
            let faults = plan.for_slot(slot);
            let lethal_fired = faults.crash_after.is_some_and(|lsn| lsn < final_version)
                || faults.corrupt_read_at.is_some_and(|lsn| lsn <= final_version);
            if lethal_fired {
                prop_assert!(
                    fleet.registry().restarts(slot) >= 1,
                    "slot {} suffered a lethal fault but was never respawned",
                    slot
                );
            }
        }
        // The supervisor's recovery ledger agrees with the registry.
        let stats = fleet.supervisor_stats();
        prop_assert_eq!(
            stats.checkpoint_recoveries + stats.genesis_recoveries,
            fleet.registry().total_restarts()
        );

        // The supervisor truncates what a checkpoint covers, so the log
        // retains a tail of history: exactly the tail of what this test
        // committed.
        let retained = retained_records(fleet.log());
        let committed = committed_records(&effective);
        prop_assert!(retained.len() <= committed.len());
        prop_assert_eq!(&retained[..], &committed[committed.len() - retained.len()..]);

        // Bit-exactness survived the chaos: each response equals the
        // scratch rebuild of exactly the log prefix it claims.
        for (version, query, bits) in checks {
            let scratch = scratch_answer(&base_edges, &effective, version, query, seed);
            prop_assert_eq!(
                &bits, &scratch,
                "response at version {} diverged from its log prefix", version
            );
        }
    }
}

/// Ten distinct inserts, none present in `base_edges`, so every commit
/// is effective and versions advance deterministically.
fn distinct_inserts() -> Vec<GraphUpdate> {
    [
        (1, 2),
        (2, 3),
        (3, 4),
        (4, 5),
        (5, 0),
        (0, 2),
        (1, 3),
        (2, 4),
        (3, 5),
        (4, 0),
    ]
    .into_iter()
    .map(|(u, v)| GraphUpdate::Insert { u, v })
    .collect()
}

#[test]
fn recovery_from_a_checkpoint_replays_only_the_suffix() {
    let fleet = Fleet::builder(config(7))
        .replicas(2)
        // No cadence: the only checkpoint is the manual one below, so
        // the replayed suffix length is exactly knowable.
        .checkpoint_every(0)
        .build(CsrGraph::from_edges(6, &[(0, 1)]));
    let updates = distinct_inserts();

    for update in &updates[..6] {
        assert!(fleet.commit(*update).was_effective());
    }
    assert!(fleet.wait_for_replication(6, Duration::from_secs(30)));
    let checkpoint = fleet.checkpoint_now();
    assert_eq!(checkpoint.lsn(), 6);
    assert_eq!(fleet.latest_checkpoint().map(|cp| cp.lsn()), Some(6));
    assert_eq!(fleet.supervisor_stats().checkpoints_taken, 1);

    for update in &updates[6..] {
        assert!(fleet.commit(*update).was_effective());
    }
    assert_eq!(fleet.version(), 10);

    // Recover the replica from the LSN-6 checkpoint: it must come back
    // at version 10 having applied exactly the 4-record suffix — the
    // applied-record counter is the proof that recovery is O(suffix),
    // not O(history).
    let replica = &fleet.replicas()[0];
    replica
        .recover(&checkpoint, fleet.log())
        .expect("checkpoint matches the fleet base");
    assert!(fleet.wait_for_replication(10, Duration::from_secs(30)));
    assert_eq!(replica.applied_records(), 4);
    assert_eq!(replica.service().version(), 10);

    // And the recovered endpoint agrees with the primary bit for bit.
    let request =
        Request::new(Query::SingleSource { node: 0 }).with_consistency(Consistency::Pinned(10));
    let primary = fleet.primary().call(request).expect("primary answers");
    let recovered = replica.service().call(request).expect("replica answers");
    assert_eq!(
        ranking_bits(&primary.output),
        ranking_bits(&recovered.output)
    );

    // The same checkpoint through the file codec recovers the second
    // replica, which answers bit for bit like the in-memory recovery.
    let path = std::env::temp_dir().join(format!("probesim-chaos-{}.psck", std::process::id()));
    write_checkpoint_file(&path, &checkpoint).expect("checkpoint file written");
    let from_file = read_checkpoint_file(&path).expect("checkpoint file decodes");
    std::fs::remove_file(&path).ok();
    let file_replica = &fleet.replicas()[1];
    file_replica
        .recover(&from_file, fleet.log())
        .expect("same node count");
    assert!(fleet.wait_for_replication(10, Duration::from_secs(30)));
    assert_eq!(file_replica.applied_records(), 4);
    let from_bytes = file_replica
        .service()
        .call(request)
        .expect("replica answers");
    assert_eq!(
        ranking_bits(&from_bytes.output),
        ranking_bits(&recovered.output)
    );

    // A recovered-from-checkpoint store equals a scratch genesis store:
    // same edges, same version.
    let restored = checkpoint.to_store();
    assert_eq!(restored.version(), 6);
    let mut scratch = GraphStore::from_csr(CsrGraph::from_edges(6, &[(0, 1)]));
    for update in &updates[..6] {
        assert!(scratch.apply(*update));
    }
    let mut a: Vec<_> = restored.snapshot().edges_iter().collect();
    let mut b: Vec<_> = scratch.snapshot().edges_iter().collect();
    a.sort_unstable();
    b.sort_unstable();
    assert_eq!(a, b);
}

#[test]
fn crashed_replicas_are_respawned_and_converge() {
    let fleet = Fleet::builder(config(11))
        .replicas(2)
        .faults(FaultPlan::none().with_crash_after(0, 3))
        .supervision_tick(Duration::from_millis(1))
        .checkpoint_every(4)
        .restart_budget(3)
        .build(CsrGraph::from_edges(6, &[(0, 1)]));

    for update in distinct_inserts() {
        assert!(fleet.commit(update).was_effective());
    }
    assert!(fleet.wait_for_replication(10, Duration::from_secs(30)));

    // The crashed replica was respawned exactly once; the healthy one
    // never was.
    assert_eq!(fleet.registry().restarts(0), 1);
    assert_eq!(fleet.registry().restarts(1), 0);
    let stats = fleet.supervisor_stats();
    assert_eq!(stats.checkpoint_recoveries + stats.genesis_recoveries, 1);

    // Both replicas agree with the primary bit for bit after recovery.
    let request =
        Request::new(Query::SingleSource { node: 0 }).with_consistency(Consistency::Pinned(10));
    let reference = ranking_bits(&fleet.primary().call(request).expect("primary").output);
    for replica in fleet.replicas() {
        let response = replica.service().call(request).expect("replica answers");
        assert_eq!(ranking_bits(&response.output), reference);
    }
}

#[test]
fn budget_exhausted_replicas_are_quarantined_and_reads_fail_over() {
    let fleet = Fleet::builder(config(13))
        .replicas(2)
        .faults(FaultPlan::none().with_crash_after(0, 1))
        .supervision_tick(Duration::from_millis(1))
        // A zero budget retires the replica on its first crash.
        .restart_budget(0)
        .build(CsrGraph::from_edges(6, &[(0, 1)]));

    for update in distinct_inserts() {
        assert!(fleet.commit(update).was_effective());
    }
    // The convergence wait writes off the retired replica and returns
    // once the surviving one reaches the head.
    assert!(fleet.wait_for_replication(10, Duration::from_secs(30)));
    assert_eq!(fleet.registry().restarts(0), 0);
    assert_eq!(fleet.registry().health(0), ReplicaHealth::Quarantined);

    // Reads demanding the head still succeed: the router fails over to
    // the surviving replica instead of dispatching into quarantine.
    let response = fleet
        .call(
            Request::new(Query::SingleSource { node: 0 })
                .with_consistency(Consistency::AtLeastVersion(10))
                .with_deadline(Duration::from_secs(20)),
        )
        .expect("the surviving replica serves the read");
    assert!(response.version >= 10);

    // The status snapshot surfaces the quarantine.
    let status = fleet.status();
    assert_eq!(status[0].health, ReplicaHealth::Quarantined);
    assert_eq!(status[1].health, ReplicaHealth::Healthy);
    assert!(status[1].applied_version >= 10);
}

#[test]
fn corrupt_log_reads_salvage_and_respawn() {
    let fleet = Fleet::builder(config(17))
        .replicas(1)
        .faults(FaultPlan::none().with_corrupt_read(0, 3))
        .supervision_tick(Duration::from_millis(1))
        // No checkpoint cadence: the respawn must replay from genesis.
        .checkpoint_every(0)
        .restart_budget(2)
        .build(CsrGraph::from_edges(6, &[(0, 1)]));

    for update in distinct_inserts() {
        assert!(fleet.commit(update).was_effective());
    }
    assert!(fleet.wait_for_replication(10, Duration::from_secs(30)));

    // The replica detected "local corruption" at LSN 3: it salvaged up
    // to LSN 2, died for repair and was respawned from genesis.
    assert_eq!(fleet.registry().last_salvage_lsn(0), Some(2));
    assert_eq!(fleet.registry().restarts(0), 1);
    assert_eq!(fleet.supervisor_stats().genesis_recoveries, 1);
    assert_eq!(fleet.supervisor_stats().checkpoint_recoveries, 0);
    // The respawned incarnation replayed the whole log from genesis.
    assert_eq!(fleet.replicas()[0].applied_records(), 10);

    // The salvage position rides along in the status snapshot.
    let status = fleet.status();
    assert_eq!(status[0].last_salvage_lsn, Some(2));
    assert_eq!(status[0].restarts, 1);
}
