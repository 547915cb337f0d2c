//! The bounded update log: with a checkpoint cadence the supervisor
//! truncates what the latest checkpoint covers once every replica has
//! applied it. The log then holds O(cadence + lag) records instead of
//! all of history, the latest checkpoint plus the retained suffix still
//! rebuilds the primary exactly, and a replica that crashes after a
//! truncation comes back from the checkpoint and converges.

use std::collections::HashSet;
use std::time::{Duration, Instant};

use probesim_core::{ProbeSimConfig, Query, QueryOutput};
use probesim_fleet::{Checkpoint, FaultPlan, Fleet, LogTruncated, RecoveryError};
use probesim_graph::{CsrGraph, GraphStore, GraphUpdate, GraphView, NodeId};
use probesim_service::{Consistency, Request};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const N: usize = 50;

fn config(seed: u64) -> ProbeSimConfig {
    ProbeSimConfig::new(0.36, 0.1, 0.01).with_seed(seed)
}

/// Commits `count` edge toggles, each effective by construction (an
/// insert of an absent edge or a removal of a present one), keeping
/// `edges` equal to the primary's edge set.
fn flood(fleet: &Fleet, edges: &mut HashSet<(NodeId, NodeId)>, rng: &mut StdRng, count: usize) {
    for _ in 0..count {
        let u = rng.gen_range(0..N as NodeId);
        let v = (u + rng.gen_range(1..N as NodeId)) % N as NodeId;
        let update = if edges.remove(&(u, v)) {
            GraphUpdate::Remove { u, v }
        } else {
            edges.insert((u, v));
            GraphUpdate::Insert { u, v }
        };
        assert!(fleet.commit(update).was_effective());
    }
}

fn sorted_edges<G: GraphView>(graph: &G) -> Vec<(NodeId, NodeId)> {
    let mut edges: Vec<_> = graph.edges_iter().collect();
    edges.sort_unstable();
    edges
}

/// Polls `done` every millisecond for up to 30 s.
fn eventually(what: &str, mut done: impl FnMut() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(30);
    while !done() {
        assert!(Instant::now() < deadline, "timed out waiting until {what}");
        std::thread::sleep(Duration::from_millis(1));
    }
}

fn ranking_bits(output: &QueryOutput) -> Vec<(NodeId, u64)> {
    output
        .ranking()
        .iter()
        .map(|&(node, score)| (node, score.to_bits()))
        .collect()
}

#[test]
fn a_checkpointed_flood_keeps_the_log_bounded_and_replayable() {
    const EVERY: u64 = 64;
    const COMMITS: u64 = 10_000;
    let fleet = Fleet::builder(config(3))
        .replicas(2)
        .supervision_tick(Duration::from_millis(1))
        .checkpoint_every(EVERY)
        .build(CsrGraph::from_edges(N, &[]));
    let mut rng = StdRng::seed_from_u64(3);
    let mut edges = HashSet::new();
    flood(&fleet, &mut edges, &mut rng, COMMITS as usize);
    assert_eq!(fleet.version(), COMMITS);
    assert!(fleet.wait_for_replication(COMMITS, Duration::from_secs(30)));

    // Once the cadence has caught up with the head, truncation reaches
    // the latest checkpoint: the replicas are past it.
    eventually("the final checkpoint is taken", || {
        fleet
            .latest_checkpoint()
            .is_some_and(|checkpoint| checkpoint.lsn() + EVERY > COMMITS)
    });
    let checkpoint = fleet.latest_checkpoint().expect("checkpointed above");
    eventually("the log is truncated through it", || {
        fleet.log().first_lsn() == checkpoint.lsn() + 1
    });
    let log = fleet.log();
    let retained = log.last_lsn() + 1 - log.first_lsn();
    let largest_lag = fleet
        .status()
        .iter()
        .map(|status| COMMITS - status.applied_version)
        .max()
        .expect("two replicas");
    assert!(
        retained <= EVERY + largest_lag,
        "{retained} records retained with a {EVERY}-version cadence and lag {largest_lag}"
    );
    assert!(fleet.supervisor_stats().log_truncations > 0);
    assert_eq!(log.last_lsn(), COMMITS);

    // The latest checkpoint plus the retained suffix rebuilds the
    // primary's edge set exactly.
    let suffix = log
        .records_from(checkpoint.lsn() + 1)
        .expect("the suffix past the checkpoint is retained");
    let mut rebuilt = checkpoint.to_store();
    for record in &suffix {
        assert!(rebuilt.apply(record.update));
        assert_eq!(rebuilt.version(), record.lsn);
    }
    assert_eq!(rebuilt.version(), COMMITS);
    let primary = sorted_edges(&fleet.primary().snapshot());
    assert_eq!(sorted_edges(&rebuilt.snapshot()), primary);
    let mut expected: Vec<_> = edges.into_iter().collect();
    expected.sort_unstable();
    assert_eq!(primary, expected);

    // Everything below the retained range is a typed error.
    assert_eq!(
        log.records_from(1),
        Err(LogTruncated {
            requested: 1,
            first_lsn: checkpoint.lsn() + 1
        })
    );
}

#[test]
fn a_replica_crashed_after_truncation_respawns_from_the_checkpoint() {
    let base = CsrGraph::from_edges(N, &[(0, 1), (1, 2)]);
    let fleet = Fleet::builder(config(5))
        .replicas(2)
        .faults(FaultPlan::none().with_crash_after(0, 6_000))
        .supervision_tick(Duration::from_millis(1))
        .checkpoint_every(32)
        .restart_budget(3)
        .build(base.clone());
    let mut rng = StdRng::seed_from_u64(5);
    let mut edges: HashSet<_> = [(0, 1), (1, 2)].into_iter().collect();
    flood(&fleet, &mut edges, &mut rng, 100);
    assert!(fleet.wait_for_replication(100, Duration::from_secs(30)));
    let early = fleet.checkpoint_now();
    flood(&fleet, &mut edges, &mut rng, 4_900);
    assert!(fleet.wait_for_replication(5_000, Duration::from_secs(30)));
    eventually("the log is truncated past the early checkpoint", || {
        fleet.log().first_lsn() > early.lsn() + 1
    });

    // Restore points below the retained range are refused up front,
    // genesis included, and leave the replica running.
    let replica = &fleet.replicas()[1];
    match replica.recover(&early, fleet.log()) {
        Err(RecoveryError::Truncated(truncated)) => {
            assert_eq!(truncated.requested, early.lsn() + 1);
            assert!(truncated.first_lsn > early.lsn() + 1);
        }
        other => panic!("expected a truncated-log refusal, got {other:?}"),
    }
    let genesis = Checkpoint::from_snapshot(&GraphStore::from_csr(base).snapshot());
    assert!(matches!(
        replica.recover(&genesis, fleet.log()),
        Err(RecoveryError::Truncated(LogTruncated { requested: 1, .. }))
    ));
    assert!(replica.is_tailer_alive());

    // Crossing LSN 6000 crashes replica 0; the supervisor respawns it
    // from the latest checkpoint and it converges.
    flood(&fleet, &mut edges, &mut rng, 5_000);
    assert!(fleet.wait_for_replication(10_000, Duration::from_secs(30)));
    assert_eq!(fleet.registry().restarts(0), 1);
    assert_eq!(fleet.registry().restarts(1), 0);
    let stats = fleet.supervisor_stats();
    assert_eq!(
        (stats.checkpoint_recoveries, stats.genesis_recoveries),
        (1, 0)
    );
    assert!(fleet.replicas()[0].applied_records() < 10_000 - early.lsn());

    let request =
        Request::new(Query::SingleSource { node: 0 }).with_consistency(Consistency::Pinned(10_000));
    let reference = ranking_bits(&fleet.primary().call(request).expect("primary").output);
    for replica in fleet.replicas() {
        let response = replica.service().call(request).expect("replica answers");
        assert_eq!(ranking_bits(&response.output), reference);
        assert_eq!(
            sorted_edges(&replica.service().snapshot()),
            sorted_edges(&fleet.primary().snapshot())
        );
    }
}

#[test]
fn truncation_never_outruns_a_lagging_replica() {
    let fleet = Fleet::builder(config(9))
        .replicas(2)
        .faults(FaultPlan::none().with_slow_apply(1, Duration::from_millis(1)))
        .supervision_tick(Duration::from_millis(1))
        .checkpoint_every(4)
        .build(CsrGraph::from_edges(N, &[]));
    let mut rng = StdRng::seed_from_u64(9);
    let mut edges = HashSet::new();
    for _ in 0..40 {
        flood(&fleet, &mut edges, &mut rng, 5);
        // Read the truncation point before the slow replica's progress:
        // the replica only advances, so the bound holds at both reads.
        let first_lsn = fleet.log().first_lsn();
        let applied = fleet.registry().applied(1);
        assert!(
            first_lsn <= applied + 1,
            "log truncated to {first_lsn} under a replica at {applied}"
        );
    }
    assert!(fleet.wait_for_replication(200, Duration::from_secs(30)));
    eventually("the log is truncated", || fleet.log().first_lsn() > 1);
    // Nobody's cursor fell below the retained range, so nobody died.
    assert_eq!(fleet.registry().total_restarts(), 0);
}
