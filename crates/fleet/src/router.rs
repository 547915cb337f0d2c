//! The consistency-aware, self-healing router and the fleet facade.
//!
//! A [`Fleet`] owns one **primary** (the only store mutations enter),
//! the shared [`UpdateLog`], a set of log-tailing [`Replica`]s and a
//! supervisor thread that keeps them alive. The request lifecycle is
//! *append → replicate → route → answer*:
//!
//! 1. [`Fleet::commit`] applies the update to the primary and appends
//!    it to the log in one critical section, so the record's LSN equals
//!    the store version the update produced — the returned
//!    [`Commit`] token is immediately usable as
//!    `Consistency::AtLeastVersion(commit.version)`;
//! 2. replicas tail the log and publish their applied versions through
//!    the [`ReplicaRegistry`]; the supervisor checkpoints the primary
//!    on cadence (truncating the log behind the checkpoint once every
//!    replica has applied that prefix), watches replica progress
//!    (driving each slot's [`ReplicaHealth`]) and respawns dead tailers
//!    from the latest checkpoint under a bounded restart budget;
//! 3. [`Fleet::call`] routes by consistency level — `Latest` to the
//!    primary, `AtLeastVersion(v)` to any caught-up **routable**
//!    replica (blocking on replication lag up to the request's deadline
//!    budget), `Pinned(v)` to a replica still retaining `v` — picking
//!    the least-loaded eligible endpoint and shedding load with typed
//!    errors when the queue or the replication lag would blow the
//!    deadline. Quarantined replicas are never dispatched into. When an
//!    endpoint fails under the request (it was respawned mid-flight, or
//!    regressed during recovery), the router counts a failover and
//!    retries another endpoint with capped exponential backoff, every
//!    wait still charged against the deadline;
//! 4. the chosen `QueryService` answers against its own snapshot.
//!
//! This file is on the analyzer's clock allowlist: routing measures the
//! catch-up wait to shrink the deadline it forwards downstream.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use probesim_core::ProbeSimConfig;
use probesim_graph::{Commit, CsrGraph, GraphStore, GraphUpdate};
use probesim_service::{
    Consistency, QueryService, Request, Response, ServiceBuilder, ServiceError,
};

use crate::chaos::FaultPlan;
use crate::checkpoint::Checkpoint;
use crate::log::UpdateLog;
use crate::registry::{ReplicaHealth, ReplicaRegistry};
use crate::replica::{EndpointFactory, Replica};
use crate::supervisor::{
    CheckpointCell, Supervisor, SupervisorConfig, SupervisorCounters, SupervisorStats,
};

/// First failover retry pause; doubled per retry up to [`BACKOFF_CAP`].
const BACKOFF_BASE: Duration = Duration::from_millis(1);
/// Failover backoff ceiling.
const BACKOFF_CAP: Duration = Duration::from_millis(32);
/// How long an `AtLeastVersion` read without a deadline may block on
/// replication lag.
const CATCH_UP: Duration = Duration::from_millis(250);

/// Errors the fleet adds on top of [`ServiceError`].
#[derive(Debug)]
pub enum FleetError {
    /// The chosen endpoint failed the request (query error, version not
    /// retained, shutdown, …).
    Service(ServiceError),
    /// Every eligible endpoint's queue is at the admission limit; the
    /// request was shed instead of queued behind it.
    Overloaded {
        /// Queue depth of the least-loaded eligible endpoint.
        queue_depth: u64,
        /// The fleet's admission limit ([`FleetBuilder::max_pending`]).
        limit: u64,
    },
    /// No routable replica reached the requested version within the
    /// deadline budget.
    LaggingReplicas {
        /// The version the request demanded.
        requested: u64,
        /// The most advanced replica's applied version at give-up time.
        newest_applied: u64,
    },
}

impl std::fmt::Display for FleetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FleetError::Service(err) => write!(f, "service error: {err}"),
            FleetError::Overloaded { queue_depth, limit } => write!(
                f,
                "overloaded: least-loaded eligible endpoint has {queue_depth} queued (limit {limit})"
            ),
            FleetError::LaggingReplicas {
                requested,
                newest_applied,
            } => write!(
                f,
                "lagging replicas: requested version {requested}, newest applied {newest_applied}"
            ),
        }
    }
}

impl std::error::Error for FleetError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            FleetError::Service(err) => Some(err),
            _ => None,
        }
    }
}

impl From<ServiceError> for FleetError {
    fn from(err: ServiceError) -> FleetError {
        FleetError::Service(err)
    }
}

/// One row of [`Fleet::status`]: a cheap snapshot of a replica's
/// replication, health and load state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReplicaStatus {
    /// Registry slot / replica index.
    pub replica: usize,
    /// Store version the replica has applied up to.
    pub applied_version: u64,
    /// Requests submitted but not yet answered.
    pub queue_depth: u64,
    /// Oldest version the replica can still serve `Pinned` reads for.
    pub oldest_retained: u64,
    /// Routing health as last judged by the supervisor's watchdog.
    pub health: ReplicaHealth,
    /// How many times the supervisor has respawned this replica.
    pub restarts: u64,
    /// The LSN this replica last salvaged its local log up to, if it
    /// ever detected corruption.
    pub last_salvage_lsn: Option<u64>,
}

/// Builder for a [`Fleet`]. Every endpoint (primary and replicas) gets
/// an identically-configured `QueryService` over its own copy of the
/// base graph.
#[derive(Debug, Clone)]
pub struct FleetBuilder {
    /// The per-endpoint service configuration.
    service: ServiceBuilder,
    replicas: usize,
    max_pending: u64,
    faults: FaultPlan,
    supervision_tick: Duration,
    checkpoint_every: u64,
    restart_budget: u64,
}

impl FleetBuilder {
    /// A builder with 2 replicas, 1 worker per endpoint, a 256-entry
    /// cache, 8 retained versions, a 1024-deep admission limit, and
    /// supervision defaults of a 2 ms tick, a checkpoint every 32
    /// versions and a 3-respawn restart budget.
    pub fn new(config: ProbeSimConfig) -> FleetBuilder {
        FleetBuilder {
            service: ServiceBuilder::new(config)
                .workers(1)
                .cache_capacity(256)
                .retained_versions(8),
            replicas: 2,
            max_pending: 1024,
            faults: FaultPlan::none(),
            supervision_tick: Duration::from_millis(2),
            checkpoint_every: 32,
            restart_budget: 3,
        }
    }

    /// Number of log-tailing replicas (min 1).
    pub fn replicas(mut self, replicas: usize) -> FleetBuilder {
        self.replicas = replicas.max(1);
        self
    }

    /// Worker threads per endpoint ([`ServiceBuilder::workers`]: `0`
    /// auto-sizes).
    pub fn workers(mut self, workers: usize) -> FleetBuilder {
        self.service = self.service.workers(workers);
        self
    }

    /// Result-cache capacity per endpoint.
    pub fn cache_capacity(mut self, capacity: usize) -> FleetBuilder {
        self.service = self.service.cache_capacity(capacity);
        self
    }

    /// Pinned-read retention window per endpoint.
    pub fn retained_versions(mut self, retained: usize) -> FleetBuilder {
        self.service = self.service.retained_versions(retained);
        self
    }

    /// Default deadline forwarded to every endpoint.
    pub fn default_deadline(mut self, deadline: Duration) -> FleetBuilder {
        self.service = self.service.default_deadline(deadline);
        self
    }

    /// Admission limit: a request is shed with
    /// [`FleetError::Overloaded`] when the least-loaded eligible
    /// endpoint already has this many requests queued. Zero admits
    /// nothing.
    pub fn max_pending(mut self, limit: u64) -> FleetBuilder {
        self.max_pending = limit;
        self
    }

    /// Installs a deterministic [`FaultPlan`].
    pub fn faults(mut self, plan: FaultPlan) -> FleetBuilder {
        self.faults = plan;
        self
    }

    /// Supervision loop period: how quickly crashes are detected and
    /// health re-judged.
    pub fn supervision_tick(mut self, tick: Duration) -> FleetBuilder {
        self.supervision_tick = tick.max(Duration::from_micros(100));
        self
    }

    /// Checkpoint the primary every `versions` store versions (0
    /// disables the cadence; [`Fleet::checkpoint_now`] still works).
    pub fn checkpoint_every(mut self, versions: u64) -> FleetBuilder {
        self.checkpoint_every = versions;
        self
    }

    /// Respawns allowed per replica before it is retired (permanently
    /// quarantined). Zero disables respawn entirely.
    pub fn restart_budget(mut self, budget: u64) -> FleetBuilder {
        self.restart_budget = budget;
        self
    }

    /// Builds the fleet: one primary plus `replicas` tailing replicas,
    /// each seeded with its own copy of `base`, plus the supervision
    /// thread.
    pub fn build(self, base: CsrGraph) -> Fleet {
        let service = self.service;
        let factory: EndpointFactory =
            Arc::new(move |store: GraphStore| Arc::new(service.clone().build(store)));
        let log = UpdateLog::new();
        let registry = ReplicaRegistry::new(self.replicas);
        let primary = factory(GraphStore::from_csr(base.clone()));
        let replicas: Vec<Replica> = (0..self.replicas)
            .map(|slot| {
                Replica::spawn(
                    Arc::clone(&factory),
                    base.clone(),
                    slot,
                    &log,
                    registry.clone(),
                    self.faults.for_slot(slot),
                )
            })
            .collect();
        let cell = CheckpointCell::new();
        let counters = Arc::new(SupervisorCounters::default());
        let supervisor = Supervisor::spawn(
            SupervisorConfig {
                tick: self.supervision_tick,
                checkpoint_every: self.checkpoint_every,
                restart_budget: self.restart_budget,
            },
            Arc::clone(&primary),
            log.clone(),
            registry.clone(),
            replicas.iter().map(|r| Arc::clone(r.shared())).collect(),
            Arc::clone(&cell),
            Arc::clone(&counters),
        );
        Fleet {
            log,
            registry,
            primary,
            // Declared (and therefore dropped) before `replicas`: the
            // supervisor must stop before the replicas it respawns are
            // torn down.
            _supervisor: supervisor,
            replicas,
            cell,
            counters,
            failovers: AtomicU64::new(0),
            max_pending: self.max_pending,
        }
    }
}

/// A replicated, self-healing serving fleet (see the module docs for
/// the request lifecycle). Dropping it stops the supervisor and every
/// replica tailer.
pub struct Fleet {
    log: UpdateLog,
    registry: ReplicaRegistry,
    primary: Arc<QueryService>,
    _supervisor: Supervisor,
    replicas: Vec<Replica>,
    cell: Arc<CheckpointCell>,
    counters: Arc<SupervisorCounters>,
    failovers: AtomicU64,
    max_pending: u64,
}

impl std::fmt::Debug for Fleet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Fleet")
            .field("version", &self.version())
            .field("replicas", &self.registry.applied_versions())
            .field("health", &self.registry.health_states())
            .finish_non_exhaustive()
    }
}

impl Fleet {
    /// Starts a [`FleetBuilder`].
    pub fn builder(config: ProbeSimConfig) -> FleetBuilder {
        FleetBuilder::new(config)
    }

    /// Applies one update through the primary and, if effective,
    /// appends it to the log — atomically, under the log's append lock,
    /// so the record's LSN equals the produced store version. The
    /// returned token makes read-your-writes a one-liner:
    /// `fleet.call(request.with_consistency(Consistency::AtLeastVersion(commit.version)))`.
    ///
    /// All fleet mutations must go through here; writing to the primary
    /// service directly would desynchronize the log.
    pub fn commit(&self, update: GraphUpdate) -> Commit {
        let primary = &self.primary;
        let mut token = None;
        self.log.append_with(|next_lsn| {
            let commit = primary.commit(update);
            let effective = commit.was_effective();
            debug_assert!(
                !effective || commit.version == next_lsn,
                "primary version diverged from the log LSN"
            );
            token = Some(commit);
            effective.then_some(update)
        });
        token.expect("invariant: the append producer always runs")
    }

    /// Routes `request` by its consistency level and answers it.
    pub fn call(&self, request: Request) -> Result<Response, FleetError> {
        match request.consistency {
            Consistency::Latest => self.dispatch(&self.primary, request),
            Consistency::AtLeastVersion(version) => self.call_at_least(version, request),
            Consistency::Pinned(version) => self.call_pinned(version, request),
        }
    }

    /// Whether a dispatch error is worth retrying on another endpoint:
    /// the endpoint was torn down under the request (its replica got
    /// respawned) or regressed below the demanded floor (it restarted
    /// from a checkpoint and is re-catching up). Deterministic query
    /// errors, deadline exhaustion and load shedding are not.
    fn failover_worthy(err: &FleetError) -> bool {
        matches!(
            err,
            FleetError::Service(ServiceError::ShuttingDown)
                | FleetError::Service(ServiceError::VersionNotReached { .. })
        )
    }

    fn call_at_least(&self, version: u64, request: Request) -> Result<Response, FleetError> {
        // Block on replication lag, but never past the request's own
        // deadline (or the catch-up budget without one), and
        // charge every wait — catch-up and failover backoff alike —
        // against the deadline we forward.
        let budget = request.deadline.unwrap_or(CATCH_UP);
        let started = Instant::now();
        let mut backoff = BACKOFF_BASE;
        loop {
            let remaining = budget.saturating_sub(started.elapsed());
            if !self
                .registry
                .wait_for_any_routable_at_least(version, remaining)
            {
                return Err(FleetError::LaggingReplicas {
                    requested: version,
                    newest_applied: self.registry.newest_applied(),
                });
            }
            let least_loaded = self
                .caught_up(version)
                .min_by_key(|service| service.queue_depth());
            let Some(service) = least_loaded else {
                // Health or progress flipped between the wait and the
                // scan; re-wait unless the budget is gone.
                if budget.saturating_sub(started.elapsed()).is_zero() {
                    return Err(FleetError::LaggingReplicas {
                        requested: version,
                        newest_applied: self.registry.newest_applied(),
                    });
                }
                continue;
            };
            let forwarded = match request.deadline {
                Some(deadline) => request.with_deadline(deadline.saturating_sub(started.elapsed())),
                None => request,
            };
            match self.dispatch(&service, forwarded) {
                Err(err) if Self::failover_worthy(&err) => {
                    self.failovers.fetch_add(1, Ordering::AcqRel);
                    let remaining = budget.saturating_sub(started.elapsed());
                    if remaining.is_zero() {
                        return Err(err);
                    }
                    // Capped exponential backoff, bounded by the
                    // registry condvar so a publish or health change
                    // (a recovery landing) cuts the pause short.
                    self.registry.wait_for_event(backoff.min(remaining));
                    backoff = (backoff * 2).min(BACKOFF_CAP);
                }
                outcome => return outcome,
            }
        }
    }

    fn call_pinned(&self, version: u64, request: Request) -> Result<Response, FleetError> {
        let least_loaded = self
            .caught_up(version)
            .filter(|service| service.oldest_retained_version() <= version)
            .min_by_key(|service| service.queue_depth());
        let Some(service) = least_loaded else {
            // No replica retains it; the primary either serves the pin
            // or produces the typed `VersionNotRetained` error (a pin
            // below its window) or `VersionNotReached` (a pin above its
            // newest version).
            return self.dispatch(&self.primary, request);
        };
        match self.dispatch(&service, request) {
            Err(err)
                if Self::failover_worthy(&err)
                    || matches!(
                        err,
                        FleetError::Service(ServiceError::VersionNotRetained { .. })
                    ) =>
            {
                // The chosen replica was respawned (or its retention
                // window moved) under the request: fail over to the
                // primary, the endpoint of last resort for pins.
                self.failovers.fetch_add(1, Ordering::AcqRel);
                self.dispatch(&self.primary, request)
            }
            outcome => outcome,
        }
    }

    /// The services of the routable replicas that have applied
    /// `version`, in slot order: the candidates a read picks its
    /// least-loaded endpoint from, in place, without collecting them.
    fn caught_up(&self, version: u64) -> impl Iterator<Item = Arc<QueryService>> + '_ {
        self.replicas
            .iter()
            .filter(move |replica| {
                self.registry.health(replica.slot()).is_routable()
                    && self.registry.applied(replica.slot()) >= version
            })
            .map(Replica::service)
    }

    /// Admission control on the chosen endpoint, then a blocking call.
    fn dispatch(&self, service: &QueryService, request: Request) -> Result<Response, FleetError> {
        let queue_depth = service.queue_depth();
        if queue_depth >= self.max_pending {
            return Err(FleetError::Overloaded {
                queue_depth,
                limit: self.max_pending,
            });
        }
        service.call(request).map_err(FleetError::Service)
    }

    /// The primary's newest published version.
    pub fn version(&self) -> u64 {
        self.primary.version()
    }

    /// The update log (replay, serialization, external tailing).
    pub fn log(&self) -> &UpdateLog {
        &self.log
    }

    /// The shared applied-version and health registry.
    pub fn registry(&self) -> &ReplicaRegistry {
        &self.registry
    }

    /// The primary endpoint (all `Latest` reads; never write to it
    /// directly — use [`Fleet::commit`]).
    pub fn primary(&self) -> &Arc<QueryService> {
        &self.primary
    }

    /// The replicas, in slot order.
    pub fn replicas(&self) -> &[Replica] {
        &self.replicas
    }

    /// Captures a checkpoint of the primary right now, retains it for
    /// recoveries and returns it (the manual counterpart of the
    /// supervisor's cadence).
    pub fn checkpoint_now(&self) -> Checkpoint {
        let checkpoint = Checkpoint::from_snapshot(&self.primary.snapshot());
        self.counters.note_checkpoint();
        self.cell.store(checkpoint.clone());
        checkpoint
    }

    /// A clone of the latest retained checkpoint, if any was captured.
    pub fn latest_checkpoint(&self) -> Option<Checkpoint> {
        self.cell.latest()
    }

    /// Cumulative supervisor activity: checkpoints taken,
    /// checkpoint/genesis recoveries performed and log truncations.
    pub fn supervisor_stats(&self) -> SupervisorStats {
        self.counters.stats()
    }

    /// How many times the router failed over after an endpoint died or
    /// regressed under a dispatched request.
    pub fn failovers(&self) -> u64 {
        self.failovers.load(Ordering::Acquire)
    }

    /// A cheap per-replica snapshot of applied version, queue depth,
    /// retention floor, health, restart count and salvage position.
    pub fn status(&self) -> Vec<ReplicaStatus> {
        self.replicas
            .iter()
            .map(|replica| {
                let slot = replica.slot();
                let service = replica.service();
                ReplicaStatus {
                    replica: slot,
                    applied_version: self.registry.applied(slot),
                    queue_depth: service.queue_depth(),
                    oldest_retained: service.oldest_retained_version(),
                    health: self.registry.health(slot),
                    restarts: self.registry.restarts(slot),
                    last_salvage_lsn: self.registry.last_salvage_lsn(slot),
                }
            })
            .collect()
    }

    /// Blocks until every **routable** replica has applied `version`,
    /// up to `timeout` (replicas quarantined after exhausting their
    /// restart budget are written off). Returns whether replication
    /// caught up.
    pub fn wait_for_replication(&self, version: u64, timeout: Duration) -> bool {
        self.registry
            .wait_for_all_routable_at_least(version, timeout)
    }
}
