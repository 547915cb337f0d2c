//! A serving replica: a private `GraphStore` + `QueryService` kept
//! current by tailing the fleet's update log on a background thread.
//!
//! The tailer applies records strictly in LSN order. Because every log
//! record was effective on the primary and every replica starts from
//! the same base graph (or from a checkpoint of it), each record is
//! effective on the replica too, so the replica's store version after
//! applying record `lsn` is exactly `lsn` — the invariant the router's
//! version arithmetic rests on. The reached version is published to the
//! shared [`ReplicaRegistry`] after every applied record.
//!
//! The replica's serving state lives behind an interior-mutable
//! **seat** so the supervisor can respawn a dead tailer in place:
//! [`Replica::recover`] (and the supervisor's automatic respawn) stops
//! whatever incarnation is seated, rebuilds the store — from a
//! [`Checkpoint`] at LSN *v* when one is available — and spawns a fresh
//! tailer that resumes at *v + 1*, replaying only the log suffix. The
//! per-incarnation applied-record counter ([`Replica::applied_records`])
//! makes that suffix-only replay observable to tests.
//!
//! The log drops the prefix a checkpoint covers (see
//! [`UpdateLog::truncate_through`]), so a restore point older than the
//! retained range cannot be replayed from: recovery refuses it with
//! [`RecoveryError::Truncated`], and a tailer whose cursor falls below
//! the range exits, to be respawned from the latest checkpoint.
//!
//! Fault injection (crashes, stalls, slow applies, corrupt reads) is
//! driven by the replica's [`ReplicaFaults`] schedule from the fleet's
//! [`crate::FaultPlan`]; each scheduled fault fires once per fleet
//! lifetime, tracked across respawns.
//!
//! This file is on the analyzer's clock allowlist: the injected stalls
//! and slow-apply delays sleep between records, and the tailer's
//! shutdown poll bounds its condvar waits with a real timeout.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use probesim_graph::{CsrGraph, GraphStore, GraphView};
use probesim_service::QueryService;

use crate::chaos::ReplicaFaults;
use crate::checkpoint::Checkpoint;
use crate::log::{LogTruncated, UpdateLog};
use crate::registry::ReplicaRegistry;

/// How long the tailer blocks for new records before re-checking the
/// shutdown flag.
const TAIL_POLL: Duration = Duration::from_millis(5);

/// Why a replica could not be recovered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecoveryError {
    /// The checkpoint's node count differs from the fleet's base graph.
    NodeCountMismatch {
        /// Nodes in the checkpointed graph.
        checkpoint: usize,
        /// Nodes in the fleet's base graph.
        base: usize,
    },
    /// The log no longer holds the records past the restore point (LSN
    /// 0 for a genesis recovery): recover from a newer checkpoint.
    Truncated(LogTruncated),
}

impl std::fmt::Display for RecoveryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RecoveryError::NodeCountMismatch { checkpoint, base } => write!(
                f,
                "checkpoint has {checkpoint} nodes, fleet base has {base}"
            ),
            RecoveryError::Truncated(truncated) => truncated.fmt(f),
        }
    }
}

impl std::error::Error for RecoveryError {}

/// Builds one endpoint's `QueryService` over a seeded store; the fleet
/// builder captures its service configuration in here so respawns
/// reproduce the exact endpoint setup.
pub(crate) type EndpointFactory = Arc<dyn Fn(GraphStore) -> Arc<QueryService> + Send + Sync>;

/// One tailer incarnation's handles. Replaced wholesale on respawn.
struct Seat {
    service: Arc<QueryService>,
    shutdown: Arc<AtomicBool>,
    tailer: Option<JoinHandle<()>>,
}

/// Once-per-fleet-lifetime latches for the scheduled faults, shared
/// across incarnations so a respawned replica never re-fires a fault
/// it already suffered (a crash is a crash, not a crash loop).
#[derive(Default)]
struct FaultLatches {
    crash: AtomicBool,
    stall: AtomicBool,
    corrupt: AtomicBool,
}

pub(crate) struct ReplicaShared {
    slot: usize,
    base: CsrGraph,
    factory: EndpointFactory,
    log: UpdateLog,
    registry: ReplicaRegistry,
    faults: ReplicaFaults,
    fired: FaultLatches,
    /// Records applied by the **current** incarnation — reset to 0 on
    /// every respawn, so a recovery from a checkpoint at LSN *v*
    /// provably applies only the `> v` suffix.
    applied_records: AtomicU64,
    /// Lock order: `fleet::seat` is a leaf — incarnations are built
    /// and joined entirely outside it; the lock only swaps the seated
    /// handles.
    seat: Mutex<Seat>,
}

impl ReplicaShared {
    /// Whether the seated tailer thread exited without being asked to
    /// (a crash the supervisor should respawn).
    pub(crate) fn is_dead(&self) -> bool {
        let seat = self.seat.lock().expect("replica seat poisoned");
        !seat.shutdown.load(Ordering::Relaxed)
            && seat
                .tailer
                .as_ref()
                .map(JoinHandle::is_finished)
                .unwrap_or(true)
    }

    pub(crate) fn service(&self) -> Arc<QueryService> {
        let seat = self.seat.lock().expect("replica seat poisoned");
        Arc::clone(&seat.service)
    }

    pub(crate) fn slot(&self) -> usize {
        self.slot
    }

    pub(crate) fn applied_records(&self) -> u64 {
        self.applied_records.load(Ordering::Acquire)
    }

    pub(crate) fn log(&self) -> &UpdateLog {
        &self.log
    }

    /// Stops the seated incarnation (if any) and seats a fresh one,
    /// restored from `checkpoint` when given, from the genesis base
    /// otherwise. The new tailer resumes tailing `log` at the first
    /// LSN past the restored state, which `log` must still retain.
    pub(crate) fn respawn(
        self: &Arc<Self>,
        checkpoint: Option<&Checkpoint>,
        log: &UpdateLog,
    ) -> Result<(), RecoveryError> {
        if let Some(checkpoint) = checkpoint {
            if checkpoint.num_nodes() != self.base.num_nodes() {
                return Err(RecoveryError::NodeCountMismatch {
                    checkpoint: checkpoint.num_nodes(),
                    base: self.base.num_nodes(),
                });
            }
        }
        let resume_from = checkpoint.map_or(1, |checkpoint| checkpoint.lsn() + 1);
        let first_lsn = log.first_lsn();
        if resume_from < first_lsn {
            return Err(RecoveryError::Truncated(LogTruncated {
                requested: resume_from,
                first_lsn,
            }));
        }
        // Stop whatever is seated. The join happens outside the seat
        // lock so a slow exit never blocks concurrent seat readers.
        let old = {
            let mut seat = self.seat.lock().expect("replica seat poisoned");
            seat.shutdown.store(true, Ordering::Relaxed);
            seat.tailer.take()
        };
        if let Some(handle) = old {
            let _ = handle.join();
        }
        // Build the new incarnation entirely outside the seat lock.
        let store = match checkpoint {
            Some(checkpoint) => checkpoint.to_store(),
            None => GraphStore::from_csr(self.base.clone()),
        };
        let service = (self.factory)(store);
        self.applied_records.store(0, Ordering::Release);
        self.registry.publish_applied(self.slot, resume_from - 1);
        let shutdown = Arc::new(AtomicBool::new(false));
        let tailer = spawn_tailer(
            self,
            Arc::clone(&service),
            Arc::clone(&shutdown),
            log.tail(resume_from),
        );
        let mut seat = self.seat.lock().expect("replica seat poisoned");
        *seat = Seat {
            service,
            shutdown,
            tailer: Some(tailer),
        };
        Ok(())
    }
}

/// The tailer thread: waits for new log records, injects the scheduled
/// faults, applies each record and publishes progress. It exits when
/// its cursor falls below the log's retained range; the supervisor
/// respawns it from the latest checkpoint.
fn spawn_tailer(
    shared: &Arc<ReplicaShared>,
    service: Arc<QueryService>,
    stop: Arc<AtomicBool>,
    mut cursor: crate::log::LogCursor,
) -> JoinHandle<()> {
    let shared = Arc::clone(shared);
    std::thread::Builder::new()
        .name(format!("probesim-replica-{}", shared.slot))
        .spawn(move || {
            while !stop.load(Ordering::Relaxed) {
                let Ok(batch) = cursor.wait_next(TAIL_POLL) else {
                    return;
                };
                for record in batch {
                    let faults = shared.faults;
                    if let Some((lsn, delay)) = faults.stall {
                        if lsn == record.lsn && !shared.fired.stall.swap(true, Ordering::AcqRel) {
                            std::thread::sleep(delay);
                        }
                    }
                    if let Some(lsn) = faults.corrupt_read_at {
                        if lsn == record.lsn && !shared.fired.corrupt.swap(true, Ordering::AcqRel) {
                            // Simulated local log corruption at `lsn`:
                            // only the salvaged prefix can be trusted,
                            // so record it and die for repair.
                            shared.registry.record_salvage(shared.slot, record.lsn - 1);
                            return;
                        }
                    }
                    if let Some(delay) = faults.slow_apply {
                        std::thread::sleep(delay);
                    }
                    let commit = service.commit(record.update);
                    debug_assert_eq!(
                        commit.version, record.lsn,
                        "replica version diverged from the log LSN"
                    );
                    shared.applied_records.fetch_add(1, Ordering::AcqRel);
                    shared.registry.publish_applied(shared.slot, commit.version);
                    if let Some(lsn) = faults.crash_after {
                        if lsn == record.lsn && !shared.fired.crash.swap(true, Ordering::AcqRel) {
                            return;
                        }
                    }
                }
            }
        })
        .expect("invariant: the OS spawns replica tailer threads")
}

/// One log-tailing serving replica. Dropping it stops and joins the
/// current tailer incarnation.
pub struct Replica {
    shared: Arc<ReplicaShared>,
}

impl std::fmt::Debug for Replica {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Replica")
            .field("slot", &self.shared.slot)
            .field("applied", &self.service().version())
            .finish_non_exhaustive()
    }
}

impl Replica {
    /// Builds the replica's first incarnation from the genesis base and
    /// spawns its tailer, applying records from `log` and publishing
    /// progress to `registry` slot `slot`. `faults` is the replica's
    /// schedule from the fleet's fault plan.
    pub(crate) fn spawn(
        factory: EndpointFactory,
        base: CsrGraph,
        slot: usize,
        log: &UpdateLog,
        registry: ReplicaRegistry,
        faults: ReplicaFaults,
    ) -> Replica {
        let service = factory(GraphStore::from_csr(base.clone()));
        let shared = Arc::new(ReplicaShared {
            slot,
            base,
            factory,
            log: log.clone(),
            registry,
            faults,
            fired: FaultLatches::default(),
            applied_records: AtomicU64::new(0),
            seat: Mutex::new(Seat {
                service: Arc::clone(&service),
                shutdown: Arc::new(AtomicBool::new(false)),
                tailer: None,
            }),
        });
        let (shutdown, service) = {
            let seat = shared.seat.lock().expect("replica seat poisoned");
            (Arc::clone(&seat.shutdown), Arc::clone(&seat.service))
        };
        let handle = spawn_tailer(&shared, service, shutdown, log.tail(1));
        shared
            .seat
            .lock()
            .expect("replica seat poisoned")
            .tailer
            .replace(handle);
        Replica { shared }
    }

    /// The replica's current serving endpoint. Respawns swap the
    /// endpoint, so callers hold a consistent-but-possibly-retired
    /// service, never a dangling one.
    pub fn service(&self) -> Arc<QueryService> {
        self.shared.service()
    }

    /// The replica's registry slot.
    pub fn slot(&self) -> usize {
        self.shared.slot
    }

    /// Records applied by the current incarnation — 0 right after a
    /// recovery, then exactly the length of the replayed log suffix.
    pub fn applied_records(&self) -> u64 {
        self.shared.applied_records()
    }

    /// Whether the current tailer thread is still running.
    pub fn is_tailer_alive(&self) -> bool {
        let seat = self.shared.seat.lock().expect("replica seat poisoned");
        seat.tailer
            .as_ref()
            .map(|handle| !handle.is_finished())
            .unwrap_or(false)
    }

    /// Crash recovery: stops the current incarnation (dead or alive),
    /// restores the store from `checkpoint` — state **and** version, so
    /// the next applied record produces `checkpoint.lsn() + 1` — and
    /// resumes tailing `log` at the first LSN past the checkpoint,
    /// replaying only the suffix. Fails if the checkpoint's node count
    /// does not match the fleet's base graph, or if `log` no longer
    /// retains the records right after the checkpoint.
    pub fn recover(&self, checkpoint: &Checkpoint, log: &UpdateLog) -> Result<(), RecoveryError> {
        self.shared.respawn(Some(checkpoint), log)
    }

    pub(crate) fn shared(&self) -> &Arc<ReplicaShared> {
        &self.shared
    }
}

impl Drop for Replica {
    fn drop(&mut self) {
        let handle = {
            let mut seat = self.shared.seat.lock().expect("replica seat poisoned");
            seat.shutdown.store(true, Ordering::Relaxed);
            seat.tailer.take()
        };
        if let Some(handle) = handle {
            let _ = handle.join();
        }
    }
}
