//! The serving facade: [`ServiceBuilder`] → [`QueryService`].

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex, RwLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use probesim_core::{ProbeBudget, ProbeSim, ProbeSimConfig, QueryError, QuerySession, QueryStats};
use probesim_graph::{Commit, GraphSnapshot, GraphStore, GraphUpdate};

use crate::cache::ResultCache;
use crate::request::{Consistency, Priority, Request, Response, ServiceError, Ticket};

/// Configures and constructs a [`QueryService`].
///
/// ```
/// use probesim_core::{ProbeSimConfig, Query};
/// use probesim_graph::GraphStore;
/// use probesim_service::{Request, ServiceBuilder};
/// use probesim_graph::toy::{toy_graph, A, D, TOY_DECAY};
///
/// let store = GraphStore::from_view(&toy_graph());
/// let service = ServiceBuilder::new(
///     ProbeSimConfig::new(TOY_DECAY, 0.05, 0.01).with_seed(7),
/// )
/// .workers(2)
/// .cache_capacity(64)
/// .build(store);
///
/// let response = service
///     .call(Request::new(Query::TopK { node: A, k: 1 }))
///     .unwrap();
/// assert_eq!(response.output.ranking()[0].0, D);
/// assert!(!response.cache_hit);
/// // Any query on the same source at the same version is served from
/// // the cache, bit-identical by construction.
/// let again = service
///     .call(Request::new(Query::TopK { node: A, k: 1 }))
///     .unwrap();
/// assert!(again.cache_hit);
/// assert_eq!(again.output.scores, response.output.scores);
/// ```
#[derive(Debug, Clone)]
pub struct ServiceBuilder {
    config: ProbeSimConfig,
    workers: usize,
    cache_capacity: usize,
    retained_versions: usize,
    default_deadline: Option<Duration>,
}

impl ServiceBuilder {
    /// A builder with the given engine configuration and defaults:
    /// auto-sized worker pool, 1024-entry cache, 8 retained versions, no
    /// default deadline.
    pub fn new(config: ProbeSimConfig) -> ServiceBuilder {
        ServiceBuilder {
            config,
            workers: 0,
            cache_capacity: 1024,
            retained_versions: 8,
            default_deadline: None,
        }
    }

    /// Fixed worker-thread count; `0` (the default) auto-sizes to the
    /// machine's available parallelism, capped at 8.
    pub fn workers(mut self, workers: usize) -> ServiceBuilder {
        self.workers = workers;
        self
    }

    /// Result-cache capacity in entries; `0` disables caching.
    pub fn cache_capacity(mut self, capacity: usize) -> ServiceBuilder {
        self.cache_capacity = capacity;
        self
    }

    /// How many published versions stay pinnable
    /// ([`Consistency::Pinned`]); at least 1 (the latest is always
    /// retained).
    pub fn retained_versions(mut self, versions: usize) -> ServiceBuilder {
        self.retained_versions = versions.max(1);
        self
    }

    /// Deadline applied to requests that do not carry their own.
    pub fn default_deadline(mut self, deadline: Duration) -> ServiceBuilder {
        self.default_deadline = Some(deadline);
        self
    }

    /// Builds the service around `store`, taking ownership: the store
    /// becomes the service's single-writer state and the worker pool
    /// starts immediately.
    pub fn build(self, store: GraphStore) -> QueryService {
        let workers = if self.workers == 0 {
            probesim_core::par::default_threads()
        } else {
            self.workers
        };
        let retained_versions = self.retained_versions.max(1);
        let first = store.snapshot();
        let shared = Arc::new(Shared {
            engine: ProbeSim::new(self.config),
            cache: ResultCache::new(self.cache_capacity),
            default_deadline: self.default_deadline,
            state: Mutex::new(ServeState {
                interactive: VecDeque::new(),
                batch: VecDeque::new(),
                shutdown: false,
                drainers: 0,
            }),
            queue_cv: Condvar::new(),
            done_cv: Condvar::new(),
            published: RwLock::new(Published {
                latest: first.clone(),
                retained: VecDeque::from([first]),
            }),
            submitted: AtomicU64::new(0),
            completed: AtomicU64::new(0),
            deadline_exceeded: AtomicU64::new(0),
            work_budget_exceeded: AtomicU64::new(0),
            executed_work: AtomicU64::new(0),
        });

        let handles = (0..workers.max(1))
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("probesim-worker-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("invariant: the OS spawns worker threads at service startup")
            })
            .collect();

        QueryService {
            shared,
            store: Mutex::new(store),
            retained_versions,
            workers: handles,
        }
    }
}

/// Aggregate serving counters ([`QueryService::stats`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ServiceStats {
    /// Requests `submit`/`call` queued for a worker. A cache hit is
    /// answered on the caller's thread and is not queued, so it is
    /// counted in `cache_hits` only.
    pub submitted: u64,
    /// Queued requests a worker answered (successfully or with an
    /// error).
    pub completed: u64,
    /// Responses served from the result cache.
    pub cache_hits: u64,
    /// Cache lookups that missed (fresh executions + disabled cache).
    pub cache_misses: u64,
    /// Requests aborted by their deadline (in queue or mid-probe).
    pub deadline_exceeded: u64,
    /// Requests aborted by their work cap.
    pub work_budget_exceeded: u64,
    /// Total `QueryStats::total_work` spent on fresh executions,
    /// including the partial work of aborted ones. Cache hits add
    /// **zero** here — that is the measurable "bypasses probe work
    /// entirely" guarantee the benchmarks gate.
    pub executed_work: u64,
    /// Live cache entries.
    pub cache_entries: usize,
    /// Cache entries dropped by writer-side invalidation (see
    /// [`ResultCache::invalidated`]).
    pub cache_invalidated: u64,
    /// Queued requests not yet answered (`submitted - completed`) — the
    /// router's load signal.
    pub queue_depth: u64,
    /// The newest published store version.
    pub applied_version: u64,
}

struct Published {
    latest: GraphSnapshot,
    /// The most recent versions, oldest first (`latest` is always the
    /// back); [`Consistency::Pinned`] resolves against this window.
    retained: VecDeque<GraphSnapshot>,
}

struct Job {
    request: Request,
    submitted_at: Instant,
    reply: mpsc::Sender<Result<Response, ServiceError>>,
}

struct ServeState {
    interactive: VecDeque<Job>,
    batch: VecDeque<Job>,
    shutdown: bool,
    /// `drain` callers blocked on `done_cv`. Workers notify only while
    /// it is nonzero: a futex condvar makes every notify a syscall, even
    /// with nobody waiting.
    drainers: usize,
}

impl ServeState {
    fn pop(&mut self) -> Option<Job> {
        self.interactive
            .pop_front()
            .or_else(|| self.batch.pop_front())
    }

    fn is_empty(&self) -> bool {
        self.interactive.is_empty() && self.batch.is_empty()
    }
}

struct Shared {
    engine: ProbeSim,
    cache: ResultCache,
    default_deadline: Option<Duration>,
    state: Mutex<ServeState>,
    queue_cv: Condvar,
    /// Signaled (with the state lock held) after a completed request
    /// while a `drain` waits, so `drain` can block instead of spinning.
    done_cv: Condvar,
    published: RwLock<Published>,
    submitted: AtomicU64,
    completed: AtomicU64,
    deadline_exceeded: AtomicU64,
    work_budget_exceeded: AtomicU64,
    executed_work: AtomicU64,
}

impl Shared {
    /// Steps 1–2 of a request plus validation: fails once the deadline
    /// (counted from `submitted_at`) has passed, resolves the snapshot
    /// the consistency level names and validates the query against it.
    /// Returns the snapshot and the absolute deadline, if any.
    fn admit(
        &self,
        request: &Request,
        submitted_at: Instant,
    ) -> Result<(GraphSnapshot, Option<Instant>), ServiceError> {
        let deadline_at = request
            .deadline
            .or(self.default_deadline)
            .map(|d| submitted_at + d);
        // Expired requests fail fast with zero partial work — the
        // deadline covers the whole request lifetime, not just execution.
        if deadline_at.is_some_and(|deadline| Instant::now() >= deadline) {
            return Err(QueryError::DeadlineExceeded {
                partial: QueryStats::default(),
            }
            .into());
        }
        let snapshot = self.resolve(request.consistency)?;
        // Validate before the lookup: entries are shared by every query
        // kind of a source, so an invalid shape (`k = 0`, a negative or
        // NaN `tau`) on a cached source would otherwise be answered as a
        // hit.
        probesim_core::session::validate(&snapshot, &request.query)?;
        Ok((snapshot, deadline_at))
    }

    /// The caller-side fast path: answers `request` from the result
    /// cache without queueing it. Anything else — a miss, an expired
    /// deadline, an unresolvable version, an invalid query — returns
    /// `None` and is left to the queue, where [`serve`] produces the
    /// answer or the error and counts it. A miss is not counted here:
    /// the queued lookup counts it, so each request counts exactly one
    /// hit or miss.
    fn answer_hit(&self, request: &Request, submitted_at: Instant) -> Option<Response> {
        if self.cache.capacity() == 0 {
            return None;
        }
        let (snapshot, _) = self.admit(request, submitted_at).ok()?;
        let version = snapshot.version();
        let lookup_start = Instant::now();
        let output = self.cache.get_hit(version, &request.query)?;
        Some(Response {
            output,
            version,
            cache_hit: true,
            queue_wait: Duration::ZERO,
            exec_time: lookup_start.elapsed(),
        })
    }

    fn resolve(&self, consistency: Consistency) -> Result<GraphSnapshot, ServiceError> {
        let published = self.published.read().expect("published slot poisoned");
        let newest = published.latest.version();
        match consistency {
            Consistency::Latest => Ok(published.latest.clone()),
            Consistency::AtLeastVersion(requested) => {
                if newest >= requested {
                    Ok(published.latest.clone())
                } else {
                    Err(ServiceError::VersionNotReached { requested, newest })
                }
            }
            Consistency::Pinned(requested) if requested > newest => {
                Err(ServiceError::VersionNotReached { requested, newest })
            }
            Consistency::Pinned(requested) => published
                .retained
                .iter()
                .rev()
                .find(|snapshot| snapshot.version() == requested)
                .cloned()
                .ok_or_else(|| ServiceError::VersionNotRetained {
                    requested,
                    oldest_retained: published
                        .retained
                        .front()
                        .map_or(newest, GraphSnapshot::version),
                    newest,
                }),
        }
    }
}

fn worker_loop(shared: &Shared) {
    // The pooled session survives across requests *and* versions: a
    // version change rebinds the session to the new snapshot while
    // keeping the O(n) scratch slabs (`QuerySession::rebind` — the
    // store's node count is pinned, so the slabs always fit).
    let mut session: Option<QuerySession<GraphSnapshot>> = None;
    loop {
        let (job, draining) = {
            let mut state = shared.state.lock().expect("serve state poisoned");
            loop {
                if let Some(job) = state.pop() {
                    break (job, state.shutdown);
                }
                if state.shutdown {
                    return;
                }
                state = shared.queue_cv.wait(state).expect("serve state poisoned");
            }
        };
        let result = if draining {
            Err(ServiceError::ShuttingDown)
        } else {
            serve(shared, &mut session, &job)
        };
        match &result {
            Err(ServiceError::Query(QueryError::DeadlineExceeded { .. })) => {
                shared.deadline_exceeded.fetch_add(1, Ordering::Relaxed);
            }
            Err(ServiceError::Query(QueryError::WorkBudgetExceeded { .. })) => {
                shared.work_budget_exceeded.fetch_add(1, Ordering::Relaxed);
            }
            _ => {}
        }
        // Publish completion under the state lock so a drainer cannot
        // miss the wakeup between its counter check and its wait.
        {
            let state = shared.state.lock().expect("serve state poisoned");
            shared.completed.fetch_add(1, Ordering::SeqCst);
            if state.drainers > 0 {
                shared.done_cv.notify_all();
            }
        }
        // A dropped ticket is fine — the response is simply discarded.
        let _ = job.reply.send(result);
    }
}

fn serve(
    shared: &Shared,
    session_slot: &mut Option<QuerySession<GraphSnapshot>>,
    job: &Job,
) -> Result<Response, ServiceError> {
    let queue_wait = job.submitted_at.elapsed();
    let (snapshot, deadline_at) = shared.admit(&job.request, job.submitted_at)?;
    let version = snapshot.version();
    let exec_start = Instant::now();
    // Looked up again although the caller's lookup missed: another
    // worker may have filled the entry since.
    if let Some(output) = shared.cache.get(version, &job.request.query) {
        // `(version, source)` hit: bit-identical to fresh execution at
        // this version by construction, zero probe work spent.
        return Ok(Response {
            output,
            version,
            cache_hit: true,
            queue_wait,
            exec_time: exec_start.elapsed(),
        });
    }
    let mut session = match session_slot.take() {
        Some(session) if session.graph().version() == version => session,
        Some(session) => session.rebind(snapshot),
        None => shared.engine.session(snapshot),
    };
    let mut budget = ProbeBudget::unlimited();
    if let Some(deadline) = deadline_at {
        budget = budget.with_deadline_at(deadline);
    }
    if let Some(cap) = job.request.work_cap {
        budget = budget.with_work_cap(cap);
    }
    let outcome = session.run_with_budget(job.request.query, budget);
    // The session goes back in the slot on *every* path: the abort-safety
    // contract (drain-to-clean) makes an aborted session as reusable as a
    // successful one.
    *session_slot = Some(session);
    match outcome {
        Ok(output) => {
            shared
                .executed_work
                .fetch_add(output.stats.total_work() as u64, Ordering::Relaxed);
            let output = Arc::new(output);
            shared.cache.insert(version, Arc::clone(&output));
            Ok(Response {
                output,
                version,
                cache_hit: false,
                queue_wait,
                exec_time: exec_start.elapsed(),
            })
        }
        Err(error) => {
            if let QueryError::DeadlineExceeded { partial }
            | QueryError::WorkBudgetExceeded { partial } = &error
            {
                // Aborted work was really spent; account for it.
                shared
                    .executed_work
                    .fetch_add(partial.total_work() as u64, Ordering::Relaxed);
            }
            Err(error.into())
        }
    }
}

/// The unified serving facade: owns the [`GraphStore`], the `ProbeSim`
/// engine, a fixed worker pool and the `(version, source)` result cache.
///
/// * **Readers** go through [`QueryService::submit`] (a [`Ticket`]) or
///   the blocking [`QueryService::call`]; requests carry deadlines,
///   priorities and consistency levels, and responses report the
///   answering version, the queue/exec latency split and whether the
///   cache served them. A cache hit is answered on the caller's thread;
///   only misses and errors are queued for the worker pool.
/// * **The writer** goes through [`QueryService::commit`]: each
///   effective update mutates the store, drops the cache entries that
///   left the retention window, publishes a fresh snapshot and extends
///   the pinned-version retention window. The returned [`Commit`] token
///   carries the reached version — the exact floor a read-your-writes
///   `AtLeastVersion` read needs.
///
/// Dropping the service shuts the pool down; queued requests resolve to
/// [`ServiceError::ShuttingDown`].
pub struct QueryService {
    shared: Arc<Shared>,
    /// The single-writer store. Behind a mutex so `commit(&self)` works
    /// from a writer thread while readers run; writer throughput is
    /// bounded by the store, not this lock (readers never take it).
    store: Mutex<GraphStore>,
    retained_versions: usize,
    workers: Vec<JoinHandle<()>>,
}

impl std::fmt::Debug for QueryService {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("QueryService")
            .field("workers", &self.workers.len())
            .field("retained_versions", &self.retained_versions)
            .field("version", &self.version())
            .field("stats", &self.stats())
            .finish_non_exhaustive()
    }
}

impl QueryService {
    /// Submits a request, returning a [`Ticket`] to wait on. A cache hit
    /// is answered on the calling thread and its ticket is already
    /// resolved; anything else is queued for a worker, interactive
    /// requests ahead of batch requests.
    pub fn submit(&self, request: Request) -> Ticket {
        let submitted_at = Instant::now();
        if let Some(response) = self.shared.answer_hit(&request, submitted_at) {
            let (tx, rx) = mpsc::channel();
            let _ = tx.send(Ok(response));
            return Ticket { rx };
        }
        self.enqueue(request, submitted_at)
    }

    /// Submits and blocks for the answer. A cache hit is answered on the
    /// calling thread: no queue, no worker wake-up, no reply channel.
    pub fn call(&self, request: Request) -> Result<Response, ServiceError> {
        let submitted_at = Instant::now();
        if let Some(response) = self.shared.answer_hit(&request, submitted_at) {
            return Ok(response);
        }
        self.enqueue(request, submitted_at).wait()
    }

    fn enqueue(&self, request: Request, submitted_at: Instant) -> Ticket {
        self.shared.submitted.fetch_add(1, Ordering::Relaxed);
        let (tx, rx) = mpsc::channel();
        let job = Job {
            request,
            submitted_at,
            reply: tx,
        };
        {
            let mut state = self.shared.state.lock().expect("serve state poisoned");
            if state.shutdown {
                let _ = job.reply.send(Err(ServiceError::ShuttingDown));
            } else {
                match request.priority {
                    Priority::Interactive => state.interactive.push_back(job),
                    Priority::Batch => state.batch.push_back(job),
                }
                self.shared.queue_cv.notify_one();
            }
        }
        Ticket { rx }
    }

    /// Applies one graph update through the service's writer path.
    /// Effective updates invalidate the cache entries that fell out of
    /// the retention window, publish a fresh snapshot and extend the
    /// retention ring; no-ops change nothing. The returned [`Commit`]
    /// token carries the published version, so
    /// `service.call(request.with_consistency(Consistency::AtLeastVersion(commit.version)))`
    /// is guaranteed to observe the write (read-your-writes).
    pub fn commit(&self, update: GraphUpdate) -> Commit {
        let mut store = self.store.lock().expect("store poisoned");
        let effective = store.apply(update);
        let version = store.version();
        if effective {
            // Writer-side invalidation, still under the store lock and
            // before the new version is published: drop the entries
            // whose version left the retention window. Versions are
            // contiguous under per-event publishing, so the floor is
            // exact.
            let window = self.retained_versions as u64;
            self.shared
                .cache
                .invalidate_below((version + 1).saturating_sub(window));
            let snapshot = store.snapshot();
            let mut published = self
                .shared
                .published
                .write()
                .expect("published slot poisoned");
            published.retained.push_back(snapshot.clone());
            // The ring grows by one per publish, so at most one version
            // leaves it. Dropping it frees whatever no newer snapshot
            // shares: do that after the guard is released, so
            // `snapshot()` and `version()` readers never wait for it.
            let evicted = if published.retained.len() > self.retained_versions {
                published.retained.pop_front()
            } else {
                None
            };
            published.latest = snapshot;
            drop(published);
            drop(evicted);
        }
        Commit {
            version,
            effective: u64::from(effective),
        }
    }

    /// The newest published version.
    pub fn version(&self) -> u64 {
        self.shared
            .published
            .read()
            .expect("published slot poisoned")
            .latest
            .version()
    }

    /// A clone of the newest published snapshot (one `Arc` bump).
    pub fn snapshot(&self) -> GraphSnapshot {
        self.shared
            .published
            .read()
            .expect("published slot poisoned")
            .latest
            .clone()
    }

    /// The oldest version still pinnable.
    pub fn oldest_retained_version(&self) -> u64 {
        let published = self.shared.published.read().expect("published poisoned");
        published
            .retained
            .front()
            .map_or_else(|| published.latest.version(), GraphSnapshot::version)
    }

    /// The engine configuration requests run with.
    pub fn config(&self) -> ProbeSimConfig {
        self.shared.engine.config().clone()
    }

    /// Worker-thread count.
    pub fn workers(&self) -> usize {
        self.workers.len()
    }

    /// Aggregate serving counters.
    pub fn stats(&self) -> ServiceStats {
        ServiceStats {
            submitted: self.shared.submitted.load(Ordering::Relaxed),
            completed: self.shared.completed.load(Ordering::Relaxed),
            cache_hits: self.shared.cache.hits(),
            cache_misses: self.shared.cache.misses(),
            deadline_exceeded: self.shared.deadline_exceeded.load(Ordering::Relaxed),
            work_budget_exceeded: self.shared.work_budget_exceeded.load(Ordering::Relaxed),
            executed_work: self.shared.executed_work.load(Ordering::Relaxed),
            cache_entries: self.shared.cache.len(),
            cache_invalidated: self.shared.cache.invalidated(),
            queue_depth: self.queue_depth(),
            applied_version: self.version(),
        }
    }

    /// Queued requests not yet answered — a cheap atomic read the fleet
    /// router uses for least-loaded selection and admission control.
    /// Cache hits are answered on the caller's thread and never counted.
    /// `completed` is loaded first so a concurrent completion can only
    /// make the result conservative (never negative).
    pub fn queue_depth(&self) -> u64 {
        let completed = self.shared.completed.load(Ordering::Relaxed);
        let submitted = self.shared.submitted.load(Ordering::Relaxed);
        submitted.saturating_sub(completed)
    }

    /// Blocks until every queued request has been answered (drains the
    /// queue without shutting down). Cache hits answered on callers'
    /// threads are never waited on. Intended for benchmarks that want a
    /// quiesced service before reading counters.
    pub fn drain(&self) {
        let mut state = self.shared.state.lock().expect("serve state poisoned");
        loop {
            // Queue empty and nothing in flight: workers increment
            // `completed` under this lock, so the check cannot race a
            // wakeup.
            if state.is_empty()
                && self.shared.submitted.load(Ordering::SeqCst)
                    == self.shared.completed.load(Ordering::SeqCst)
            {
                return;
            }
            state.drainers += 1;
            state = self
                .shared
                .done_cv
                .wait(state)
                .expect("serve state poisoned");
            state.drainers -= 1;
        }
    }
}

impl Drop for QueryService {
    fn drop(&mut self) {
        {
            let mut state = self.shared.state.lock().expect("serve state poisoned");
            state.shutdown = true;
            self.shared.queue_cv.notify_all();
        }
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
        // Anything still queued (racy submits) gets a ShuttingDown reply
        // through its dropped sender — Ticket::wait maps the disconnect.
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use probesim_core::Query;
    use probesim_graph::toy::{toy_graph, A, TOY_DECAY};

    fn toy_service(cache: usize) -> QueryService {
        ServiceBuilder::new(ProbeSimConfig::new(TOY_DECAY, 0.05, 0.01).with_seed(0xBEEF))
            .workers(2)
            .cache_capacity(cache)
            .retained_versions(4)
            .build(GraphStore::from_view(&toy_graph()))
    }

    #[test]
    fn call_answers_like_a_direct_session() {
        let service = toy_service(16);
        let response = service
            .call(Request::new(Query::SingleSource { node: A }))
            .unwrap();
        assert_eq!(response.version, 0);
        assert!(!response.cache_hit);
        let engine = ProbeSim::new(ProbeSimConfig::new(TOY_DECAY, 0.05, 0.01).with_seed(0xBEEF));
        let direct = engine
            .session(&toy_graph())
            .run(Query::SingleSource { node: A })
            .unwrap();
        assert_eq!(response.output.scores, direct.scores);
        assert_eq!(response.output.stats, direct.stats);
    }

    #[test]
    fn repeat_queries_hit_the_cache_with_zero_extra_work() {
        let service = toy_service(16);
        let request = Request::new(Query::TopK { node: A, k: 2 });
        let first = service.call(request).unwrap();
        let work_after_first = service.stats().executed_work;
        assert!(work_after_first > 0);
        let second = service.call(request).unwrap();
        assert!(second.cache_hit);
        assert_eq!(second.version, first.version);
        assert_eq!(second.output.scores, first.output.scores);
        assert!(Arc::ptr_eq(&second.output, &first.output));
        assert_eq!(
            service.stats().executed_work,
            work_after_first,
            "cache hit must add zero executed work"
        );
        assert_eq!(service.stats().cache_hits, 1);
    }

    #[test]
    fn mutation_bumps_version_so_latest_is_never_stale() {
        let service = toy_service(16);
        let before = service
            .call(Request::new(Query::SingleSource { node: A }))
            .unwrap();
        assert_eq!(before.version, 0);
        // Cut a's in-edges; Latest must re-execute at the new version.
        assert!(service
            .commit(GraphUpdate::Remove { u: 1, v: A })
            .was_effective());
        assert!(service
            .commit(GraphUpdate::Remove { u: 2, v: A })
            .was_effective());
        assert_eq!(service.version(), 2);
        let after = service
            .call(Request::new(Query::SingleSource { node: A }))
            .unwrap();
        assert_eq!(after.version, 2);
        assert!(!after.cache_hit, "version key prevents stale Latest hits");
        assert_ne!(after.output.scores, before.output.scores);
    }

    #[test]
    fn pinned_consistency_answers_at_the_pinned_version() {
        let service = toy_service(16);
        let v0 = service
            .call(Request::new(Query::SingleSource { node: A }))
            .unwrap();
        service.commit(GraphUpdate::Remove { u: 1, v: A });
        service.commit(GraphUpdate::Remove { u: 2, v: A });
        // Pinned(0) still answers the old edge set — and hits the cache
        // entry the first call populated.
        let pinned = service
            .call(
                Request::new(Query::SingleSource { node: A })
                    .with_consistency(Consistency::Pinned(0)),
            )
            .unwrap();
        assert_eq!(pinned.version, 0);
        assert!(pinned.cache_hit);
        assert_eq!(pinned.output.scores, v0.output.scores);
        // A version beyond the retention window errors.
        for i in 0..8u32 {
            service.commit(GraphUpdate::Remove {
                u: i,
                v: (i + 1) % 8,
            });
        }
        let err = service
            .call(
                Request::new(Query::SingleSource { node: A })
                    .with_consistency(Consistency::Pinned(0)),
            )
            .unwrap_err();
        assert!(matches!(
            err,
            ServiceError::VersionNotRetained { requested: 0, .. }
        ));
    }

    #[test]
    fn pinning_a_future_version_reports_not_reached() {
        let service = toy_service(16);
        assert_eq!(service.version(), 0);
        let err = service
            .call(
                Request::new(Query::SingleSource { node: A })
                    .with_consistency(Consistency::Pinned(3)),
            )
            .unwrap_err();
        assert_eq!(
            err,
            ServiceError::VersionNotReached {
                requested: 3,
                newest: 0
            }
        );
    }

    #[test]
    fn at_least_version_gates_on_the_published_clock() {
        let service = toy_service(16);
        let ok = service
            .call(
                Request::new(Query::SingleSource { node: A })
                    .with_consistency(Consistency::AtLeastVersion(0)),
            )
            .unwrap();
        assert_eq!(ok.version, 0);
        let err = service
            .call(
                Request::new(Query::SingleSource { node: A })
                    .with_consistency(Consistency::AtLeastVersion(5)),
            )
            .unwrap_err();
        assert_eq!(
            err,
            ServiceError::VersionNotReached {
                requested: 5,
                newest: 0
            }
        );
        service.commit(GraphUpdate::Insert { u: 0, v: 5 });
        let now = service
            .call(
                Request::new(Query::SingleSource { node: A })
                    .with_consistency(Consistency::AtLeastVersion(1)),
            )
            .unwrap();
        assert_eq!(now.version, 1);
    }

    #[test]
    fn invalid_queries_come_back_as_typed_errors() {
        let service = toy_service(16);
        let err = service
            .call(Request::new(Query::SingleSource { node: 99 }))
            .unwrap_err();
        assert!(matches!(
            err,
            ServiceError::Query(QueryError::NodeOutOfRange { node: 99, .. })
        ));
        let err = service
            .call(Request::new(Query::TopK { node: A, k: 0 }))
            .unwrap_err();
        assert_eq!(err, ServiceError::Query(QueryError::InvalidK { k: 0 }));
    }

    #[test]
    fn expired_deadline_fails_with_partial_stats_and_service_survives() {
        let service = toy_service(16);
        let err = service
            .call(Request::new(Query::SingleSource { node: A }).with_deadline(Duration::ZERO))
            .unwrap_err();
        assert!(matches!(
            err,
            ServiceError::Query(QueryError::DeadlineExceeded { .. })
        ));
        assert_eq!(service.stats().deadline_exceeded, 1);
        // The worker's pooled session survived the abort.
        let ok = service
            .call(Request::new(Query::SingleSource { node: A }))
            .unwrap();
        assert!(ok.output.stats.walks > 0);
    }

    #[test]
    fn work_cap_aborts_deterministically_and_reports_partial_work() {
        let service = toy_service(16);
        let err = service
            .call(Request::new(Query::SingleSource { node: A }).with_work_cap(10))
            .unwrap_err();
        let ServiceError::Query(QueryError::WorkBudgetExceeded { partial }) = err else {
            panic!("expected WorkBudgetExceeded, got {err:?}");
        };
        assert!(partial.total_work() > 0, "abort happened mid-execution");
        assert_eq!(service.stats().work_budget_exceeded, 1);
        assert_eq!(
            service.stats().executed_work,
            partial.total_work() as u64,
            "aborted partial work is accounted"
        );
        // Identical request aborts at the identical point.
        let again = service
            .call(Request::new(Query::SingleSource { node: A }).with_work_cap(10))
            .unwrap_err();
        assert_eq!(
            again,
            ServiceError::Query(QueryError::WorkBudgetExceeded { partial })
        );
    }

    #[test]
    fn invalid_queries_never_hit_a_cached_source() {
        let service = toy_service(16);
        service
            .call(Request::new(Query::SingleSource { node: A }))
            .unwrap();
        let hits = service.stats().cache_hits;
        let err = service
            .call(Request::new(Query::TopK { node: A, k: 0 }))
            .unwrap_err();
        assert_eq!(err, ServiceError::Query(QueryError::InvalidK { k: 0 }));
        let err = service
            .call(Request::new(Query::Threshold { node: A, tau: -1.0 }))
            .unwrap_err();
        assert_eq!(
            err,
            ServiceError::Query(QueryError::InvalidThreshold { tau: -1.0 })
        );
        let err = service
            .call(Request::new(Query::Threshold {
                node: A,
                tau: f64::NAN,
            }))
            .unwrap_err();
        assert!(matches!(
            err,
            ServiceError::Query(QueryError::InvalidThreshold { tau }) if tau.is_nan()
        ));
        assert_eq!(service.stats().cache_hits, hits, "no invalid query hit");
    }

    #[test]
    fn cross_kind_hits_describe_the_request() {
        let service = toy_service(16);
        let filled = service
            .call(Request::new(Query::SingleSource { node: A }))
            .unwrap();
        let query = Query::TopK { node: A, k: 3 };
        let hit = service.call(Request::new(query)).unwrap();
        assert!(hit.cache_hit);
        assert_eq!(hit.output.query, query);
        assert_eq!(hit.output.ranking().len(), 3);
        let engine = ProbeSim::new(ProbeSimConfig::new(TOY_DECAY, 0.05, 0.01).with_seed(0xBEEF));
        let direct = engine.session(&toy_graph()).run(query).unwrap();
        assert_eq!(hit.output.ranking(), direct.ranking());
        assert_eq!(*hit.output, direct);
        // The entry itself is untouched: its filler still gets its Arc.
        let again = service
            .call(Request::new(Query::SingleSource { node: A }))
            .unwrap();
        assert!(Arc::ptr_eq(&again.output, &filled.output));
    }

    #[test]
    fn submit_tickets_resolve_out_of_order_submissions() {
        let service = toy_service(64);
        let tickets: Vec<Ticket> = (0..8)
            .map(|v| service.submit(Request::new(Query::SingleSource { node: v })))
            .collect();
        for (v, ticket) in tickets.into_iter().enumerate() {
            let response = ticket.wait().unwrap();
            assert_eq!(response.output.scores.query(), v as u32);
        }
        let stats = service.stats();
        assert_eq!(stats.submitted, 8);
        assert_eq!(stats.completed, 8);
    }

    #[test]
    fn interactive_requests_preempt_queued_batch_requests() {
        // One worker, so queue order is observable: a batch flood
        // submitted first must not starve a later interactive request
        // beyond the single in-flight job.
        let service =
            ServiceBuilder::new(ProbeSimConfig::new(TOY_DECAY, 0.05, 0.01).with_seed(0xBEEF))
                .workers(1)
                .cache_capacity(0)
                .build(GraphStore::from_view(&toy_graph()));
        let batch_tickets: Vec<Ticket> = (0..6)
            .map(|v| {
                service.submit(
                    Request::new(Query::SingleSource { node: v }).with_priority(Priority::Batch),
                )
            })
            .collect();
        let interactive = service.submit(Request::new(Query::SingleSource { node: 7 }));
        let fast = interactive.wait().unwrap();
        // The interactive answer is correct and the batch lane still
        // completes afterwards.
        assert_eq!(fast.output.scores.query(), 7);
        for ticket in batch_tickets {
            assert!(ticket.wait().is_ok());
        }
    }

    #[test]
    fn drop_resolves_pending_tickets_to_shutting_down() {
        let service = toy_service(0);
        let tickets: Vec<Ticket> = (0..4)
            .map(|v| service.submit(Request::new(Query::SingleSource { node: v })))
            .collect();
        drop(service);
        let mut shutdowns = 0;
        for ticket in tickets {
            match ticket.wait() {
                Err(ServiceError::ShuttingDown) => shutdowns += 1,
                Ok(_) => {} // already executed before the drop — fine
                Err(other) => panic!("unexpected error {other:?}"),
            }
        }
        // At least nothing hung; racy counts are both acceptable.
        assert!(shutdowns <= 4);
    }

    #[test]
    fn drain_never_loses_a_wake_up() {
        // Ping-pong: each round stalls the worker behind the published
        // write lock, queues one request and starts a `drain` on another
        // thread, then releases the worker. The drain must return within
        // 1 s of the request's completion. On even rounds the release
        // waits until the drainer is counted (blocked on `done_cv`), on
        // odd rounds it races the drainer's check. The cache is off, so
        // `submit` queues without touching the stalled lock.
        const ROUNDS: u32 = 200;
        let service = Arc::new(
            ServiceBuilder::new(ProbeSimConfig::new(TOY_DECAY, 0.05, 0.01).with_seed(0xBEEF))
                .workers(1)
                .cache_capacity(0)
                .build(GraphStore::from_view(&toy_graph())),
        );
        let (start, starts) = mpsc::channel::<()>();
        let (drained, drains) = mpsc::channel();
        // Detached rather than scoped, so a lost wake-up fails the test
        // at its timeout instead of hanging it on the stuck drainer.
        let drainer = {
            let service = Arc::clone(&service);
            std::thread::spawn(move || {
                while starts.recv().is_ok() {
                    service.drain();
                    drained.send(()).unwrap();
                }
            })
        };
        for round in 0..ROUNDS {
            let stall = service.shared.published.write().unwrap();
            let ticket = service.submit(Request::new(Query::SingleSource { node: A }));
            start.send(()).unwrap();
            if round % 2 == 0 {
                while service.shared.state.lock().unwrap().drainers == 0 {
                    std::thread::yield_now();
                }
            }
            drop(stall);
            ticket.wait().unwrap();
            drains
                .recv_timeout(Duration::from_secs(1))
                .unwrap_or_else(|_| panic!("round {round}: completion did not wake drain"));
        }
        drop(start);
        drainer.join().unwrap();
        assert_eq!(service.shared.state.lock().unwrap().drainers, 0);
        let stats = service.stats();
        assert_eq!((stats.submitted, stats.completed), (200, 200));
    }

    #[test]
    fn drain_quiesces_the_queue() {
        let service = toy_service(8);
        for v in 0..6 {
            let _ = service.submit(Request::new(Query::SingleSource { node: v }));
        }
        service.drain();
        let stats = service.stats();
        assert_eq!(stats.submitted, stats.completed);
    }
}
