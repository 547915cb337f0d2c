//! The fleet supervisor: checkpoint cadence, progress watchdog, and
//! crash respawn.
//!
//! One background thread per fleet ticks over three duties:
//!
//! 1. **Checkpoint cadence and log truncation** — when the primary has
//!    advanced `checkpoint_every` versions past the latest retained
//!    [`Checkpoint`], freeze a new one from the primary's snapshot into
//!    the shared [`CheckpointCell`]. Recoveries start from here instead
//!    of genesis, so restart cost is O(log suffix), not O(history).
//!    At the end of every tick the log is truncated through the latest
//!    checkpoint's LSN, but no further than any non-retired replica has
//!    applied: a respawn restores the latest checkpoint and a live
//!    tailer's cursor is past its applied LSN, so both still find every
//!    record they will read. The log therefore holds O(cadence + lag)
//!    records, not O(history). With the cadence disabled
//!    (`checkpoint_every` 0) the log keeps its full history.
//! 2. **Progress watchdog** — compare each replica's applied version
//!    against the log head; a replica that is behind and has not
//!    advanced for `DEGRADED_AFTER` turns [`ReplicaHealth::Degraded`],
//!    past `QUARANTINE_AFTER` it turns [`ReplicaHealth::Quarantined`]
//!    and the router stops dispatching into it. Progress (or catching
//!    up) heals the state back — quarantine is a routing decision, not
//!    a death sentence.
//! 3. **Crash respawn** — a tailer thread that exited without being
//!    asked to is respawned from the latest checkpoint (genesis when
//!    none exists yet) under a bounded restart budget; each respawn is
//!    published through the registry's restart counters. A replica
//!    whose budget is exhausted is retired: permanently quarantined,
//!    written off by convergence waits.
//!
//! This file is on the analyzer's clock allowlist: the supervision loop
//! sleeps between ticks and the watchdog measures real elapsed time
//! since each replica's last progress.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use probesim_service::QueryService;

use crate::checkpoint::Checkpoint;
use crate::log::UpdateLog;
use crate::registry::{ReplicaHealth, ReplicaRegistry};
use crate::replica::ReplicaShared;

/// No progress while behind for this long: `Degraded`.
const DEGRADED_AFTER: Duration = Duration::from_millis(200);
/// No progress while behind for this long: `Quarantined`.
const QUARANTINE_AFTER: Duration = Duration::from_secs(1);

/// The latest retained checkpoint, shared between the supervisor (which
/// refreshes it on cadence), recoveries (which restore from it) and
/// [`crate::Fleet::checkpoint_now`] (manual capture).
pub(crate) struct CheckpointCell {
    /// Lock order: `fleet::checkpoint` is a leaf — checkpoints are
    /// cloned in and out under it alone, never while holding or taking
    /// another lock.
    checkpoint: Mutex<Option<Checkpoint>>,
}

impl CheckpointCell {
    pub(crate) fn new() -> Arc<CheckpointCell> {
        Arc::new(CheckpointCell {
            checkpoint: Mutex::new(None),
        })
    }

    /// Retains `checkpoint` unless a newer one is already held.
    pub(crate) fn store(&self, checkpoint: Checkpoint) {
        let mut guard = self.checkpoint.lock().expect("checkpoint cell poisoned");
        if guard
            .as_ref()
            .is_none_or(|old| old.lsn() <= checkpoint.lsn())
        {
            *guard = Some(checkpoint);
        }
    }

    /// A clone of the latest retained checkpoint (an `Arc` bump).
    pub(crate) fn latest(&self) -> Option<Checkpoint> {
        self.checkpoint
            .lock()
            .expect("checkpoint cell poisoned")
            .clone()
    }
}

/// Supervision knobs, set through the fleet builder.
#[derive(Debug, Clone, Copy)]
pub(crate) struct SupervisorConfig {
    /// Supervision loop period.
    pub tick: Duration,
    /// Checkpoint the primary every this many versions (0 disables the
    /// cadence; manual checkpoints still work).
    pub checkpoint_every: u64,
    /// Respawns allowed per replica before it is retired.
    pub restart_budget: u64,
}

/// Cumulative supervisor activity, exposed via
/// [`crate::Fleet::supervisor_stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SupervisorStats {
    /// Checkpoints captured (cadence + manual).
    pub checkpoints_taken: u64,
    /// Respawns started from a checkpoint.
    pub checkpoint_recoveries: u64,
    /// Respawns started with no checkpoint, replaying from genesis.
    pub genesis_recoveries: u64,
    /// Ticks that truncated at least one record off the update log.
    pub log_truncations: u64,
}

#[derive(Default)]
pub(crate) struct SupervisorCounters {
    checkpoints_taken: AtomicU64,
    checkpoint_recoveries: AtomicU64,
    genesis_recoveries: AtomicU64,
    log_truncations: AtomicU64,
}

impl SupervisorCounters {
    pub(crate) fn note_checkpoint(&self) {
        self.checkpoints_taken.fetch_add(1, Ordering::AcqRel);
    }

    pub(crate) fn stats(&self) -> SupervisorStats {
        SupervisorStats {
            checkpoints_taken: self.checkpoints_taken.load(Ordering::Acquire),
            checkpoint_recoveries: self.checkpoint_recoveries.load(Ordering::Acquire),
            genesis_recoveries: self.genesis_recoveries.load(Ordering::Acquire),
            log_truncations: self.log_truncations.load(Ordering::Acquire),
        }
    }
}

/// Per-replica watchdog memory, local to the supervision thread.
struct WatchState {
    last_applied: u64,
    last_progress: Instant,
    /// Restart budget exhausted (or recovery failed): permanently
    /// quarantined, never respawned again.
    retired: bool,
}

/// The supervision thread handle. Dropping it stops and joins the
/// loop (but leaves the replicas as they are).
pub(crate) struct Supervisor {
    shutdown: Arc<AtomicBool>,
    thread: Option<JoinHandle<()>>,
}

impl Supervisor {
    pub(crate) fn spawn(
        config: SupervisorConfig,
        primary: Arc<QueryService>,
        log: UpdateLog,
        registry: ReplicaRegistry,
        replicas: Vec<Arc<ReplicaShared>>,
        cell: Arc<CheckpointCell>,
        counters: Arc<SupervisorCounters>,
    ) -> Supervisor {
        let shutdown = Arc::new(AtomicBool::new(false));
        let stop = Arc::clone(&shutdown);
        let thread = std::thread::Builder::new()
            .name("probesim-fleet-supervisor".into())
            .spawn(move || {
                let mut watch: Vec<WatchState> = replicas
                    .iter()
                    .map(|_| WatchState {
                        last_applied: 0,
                        last_progress: Instant::now(),
                        retired: false,
                    })
                    .collect();
                while !stop.load(Ordering::Relaxed) {
                    supervise_tick(
                        &config, &primary, &log, &registry, &replicas, &cell, &counters, &mut watch,
                    );
                    std::thread::sleep(config.tick);
                }
            })
            .expect("invariant: the OS spawns the fleet supervisor thread");
        Supervisor {
            shutdown,
            thread: Some(thread),
        }
    }
}

impl Drop for Supervisor {
    fn drop(&mut self) {
        self.shutdown.store(true, Ordering::Relaxed);
        if let Some(handle) = self.thread.take() {
            let _ = handle.join();
        }
    }
}

// One tick reads the whole fleet — knobs, primary, log, registry,
// replicas, checkpoint cell, counters, watchdog memory — and bundling
// them into a context struct used exactly once would only rename the
// arguments.
#[allow(clippy::too_many_arguments)]
fn supervise_tick(
    config: &SupervisorConfig,
    primary: &Arc<QueryService>,
    log: &UpdateLog,
    registry: &ReplicaRegistry,
    replicas: &[Arc<ReplicaShared>],
    cell: &CheckpointCell,
    counters: &SupervisorCounters,
    watch: &mut [WatchState],
) {
    // Checkpoint cadence: capture the snapshot first, then publish it
    // into the cell (the cell lock is a leaf; nothing else is held).
    if config.checkpoint_every > 0 {
        let version = primary.version();
        let last = cell.latest().map_or(0, |checkpoint| checkpoint.lsn());
        if version >= last + config.checkpoint_every {
            let checkpoint = Checkpoint::from_snapshot(&primary.snapshot());
            counters.note_checkpoint();
            cell.store(checkpoint);
        }
    }

    let target = log.last_lsn();
    for (replica, state) in replicas.iter().zip(watch.iter_mut()) {
        if state.retired {
            continue;
        }
        let slot = replica.slot();
        let applied = registry.applied(slot);
        if applied != state.last_applied {
            state.last_applied = applied;
            state.last_progress = Instant::now();
        }

        if replica.is_dead() {
            if registry.restarts(slot) >= config.restart_budget {
                state.retired = true;
                registry.set_health(slot, ReplicaHealth::Quarantined);
                continue;
            }
            let checkpoint = cell.latest();
            // Account before respawning: the new incarnation can catch
            // up and satisfy a convergence wait before this thread runs
            // again, and observers must see the restart by then.
            registry.record_restart(slot);
            let recovered = if checkpoint.is_some() {
                &counters.checkpoint_recoveries
            } else {
                &counters.genesis_recoveries
            };
            recovered.fetch_add(1, Ordering::AcqRel);
            match replica.respawn(checkpoint.as_ref(), replica.log()) {
                Ok(()) => {
                    state.last_applied = registry.applied(slot);
                    state.last_progress = Instant::now();
                    registry.set_health(slot, ReplicaHealth::Healthy);
                }
                Err(_) => {
                    // An incompatible checkpoint cannot heal this
                    // replica; write it off instead of retry-looping.
                    state.retired = true;
                    registry.set_health(slot, ReplicaHealth::Quarantined);
                }
            }
            continue;
        }

        let stalled_for = state.last_progress.elapsed();
        let health = if applied >= target {
            ReplicaHealth::Healthy
        } else if stalled_for >= QUARANTINE_AFTER {
            ReplicaHealth::Quarantined
        } else if stalled_for >= DEGRADED_AFTER {
            ReplicaHealth::Degraded
        } else {
            ReplicaHealth::Healthy
        };
        registry.set_health(slot, health);
    }

    // Log truncation (duty 1), after this tick's respawns have
    // published their restore points as applied versions.
    if config.checkpoint_every > 0 {
        if let Some(checkpoint) = cell.latest() {
            let through = replicas
                .iter()
                .zip(watch.iter())
                .filter(|(_, state)| !state.retired)
                .map(|(replica, _)| registry.applied(replica.slot()))
                .fold(checkpoint.lsn(), u64::min);
            if log.truncate_through(through) > 0 {
                counters.log_truncations.fetch_add(1, Ordering::AcqRel);
            }
        }
    }
}
