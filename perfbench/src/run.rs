//! One run of one workload: set-up, the timed phase, the accuracy audit
//! and, when traced, the replay of the same inputs layer by layer.
//!
//! Each timed phase is split into [`SEGMENTS`] segments, so that a
//! workload's secondary operation (the commits of `read_zipf`, the reads
//! of `commit_flood`) is sampled across the whole run, under the same
//! machine conditions as its primary one, without running beside it.

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use probesim_core::{ProbeSimConfig, Query};
use probesim_eval::metrics::{abs_error, precision_at_k};
use probesim_eval::GroundTruth;
use probesim_fleet::{Fleet, FleetError};
use probesim_graph::{CsrGraph, GraphStore, GraphView, NodeId};
use probesim_service::{Consistency, QueryService, Request, Response, ServiceBuilder};

use crate::gen::{edge_set_hash, Inputs, Workload, CHURN_RATE, ENGINE_SEED, EPSILON, TOP_K};
use crate::stats::{median, peak_rss_mb, Metric, Samples};
use crate::trace::{self, Layers, Tracer};

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 5;
/// Segments of a timed phase.
pub const SEGMENTS: usize = 20;
/// Blocks the commit tails are taken over (see [`Samples::tail`]).
const TAIL_BLOCKS: usize = 10;
/// Closed-loop clients of `read_zipf`.
const ZIPF_CLIENTS: usize = 2;
/// `churn_ryw` replays one read per this many updates when traced: the
/// ratio of the writer's rate to the reader's (~200/s to ~33/s).
pub const CHURN_READ_EVERY: usize = 6;
/// Versions every endpoint retains (the service default).
pub const RETAINED_VERSIONS: usize = 8;

pub fn config() -> ProbeSimConfig {
    ProbeSimConfig::paper(EPSILON).with_seed(ENGINE_SEED)
}

/// The stream workloads' fleet: one replica, one worker per endpoint,
/// everything else at the fleet defaults.
pub fn fleet_of(base: &CsrGraph) -> Fleet {
    Fleet::builder(config())
        .replicas(1)
        .workers(1)
        .build(base.clone())
}

pub fn service_of(base: &CsrGraph, workers: usize) -> QueryService {
    ServiceBuilder::new(config())
        .workers(workers)
        .build(GraphStore::from_csr(base.clone()))
}

/// What a run reports.
pub struct Outcome {
    pub fingerprint: u64,
    pub attempted: u64,
    pub failed: u64,
    pub problems: Vec<String>,
    pub end_to_end: Vec<Metric>,
    pub per_layer: Vec<Metric>,
}

/// Counters the untraced run reads through public APIs, reported next to
/// the traced spans.
#[derive(Default)]
struct Counters {
    cache_hit_rate: f64,
    deadline_exceeded: u64,
    lag: Samples,
    drain: Samples,
    checkpoints_per_s: f64,
    failovers: u64,
    late: Samples,
}

/// Reads sent by the load threads (or the audit).
#[derive(Default)]
struct Reads {
    latency: Samples,
    queue_wait: Samples,
    failed: u64,
    shed: u64,
}

impl Reads {
    fn record(
        &mut self,
        started: Instant,
        outcome: Result<Response, FleetError>,
    ) -> Option<Response> {
        self.latency.push(started.elapsed());
        match outcome {
            Ok(r) => {
                self.queue_wait.push(r.queue_wait);
                Some(r)
            }
            Err(e) => {
                self.failed += 1;
                if matches!(e, FleetError::Overloaded { .. }) {
                    self.shed += 1;
                }
                eprintln!("perfbench: read failed: {e}");
                None
            }
        }
    }

    fn merge(&mut self, other: Reads) {
        self.latency.extend(&other.latency);
        self.queue_wait.extend(&other.queue_wait);
        self.failed += other.failed;
        self.shed += other.shed;
    }
}

/// End-to-end figures gathered by a run's phases.
#[derive(Default)]
struct EndToEnd {
    reads: Reads,
    read_secs: f64,
    commits: Samples,
    commit_secs: f64,
    abs_err_max: f64,
    precision: f64,
    audit_calls: u64,
    audit_failed: u64,
    setup_s: f64,
    peak_rss_mb: f64,
}

impl EndToEnd {
    /// The bounded metrics: those whose run-to-run spread stays within
    /// the largest bound on every workload.
    fn metrics(&self) -> Vec<Metric> {
        let m = |name, value, unit| Metric { name, value, unit };
        vec![
            m(
                "query_per_s",
                self.reads.latency.len() as f64 / self.read_secs,
                "1/s",
            ),
            m("query_p95_ms", self.reads.latency.pct(0.95) * 1e3, "ms"),
            m(
                "commit_per_s",
                self.commits.len() as f64 / self.commit_secs,
                "1/s",
            ),
            m("commit_p50_us", self.commits.pct(0.50) * 1e6, "us"),
            m(
                "commit_p95_us",
                self.commits.tail(0.95, TAIL_BLOCKS) * 1e6,
                "us",
            ),
            m("abs_err_max", self.abs_err_max, "score"),
            m("precision_at_50", self.precision, "frac"),
            m("setup_s", self.setup_s, "s"),
            m("peak_rss_mb", self.peak_rss_mb, "MiB"),
        ]
    }
}

/// Builds inputs and stack [`SETUP_REPS`] times, timing each; returns
/// the last and the median time.
fn set_up<T>(
    workload: Workload,
    seed: u64,
    seconds: u64,
    build: impl Fn(&Inputs) -> T,
) -> (Inputs, T, f64) {
    let mut times = Vec::new();
    let mut last = None;
    for _ in 0..SETUP_REPS {
        drop(last.take());
        let started = Instant::now();
        let inputs = Inputs::generate(workload, seed, seconds);
        let stack = build(&inputs);
        times.push(started.elapsed().as_secs_f64());
        last = Some((inputs, stack));
    }
    let (inputs, stack) = last.expect("SETUP_REPS > 0");
    (inputs, stack, median(&times))
}

/// Runs one workload; `trace` adds the per-layer replay.
pub fn run(workload: Workload, seed: u64, seconds: u64, trace: Option<&mut Tracer>) -> Outcome {
    let budget = Duration::from_secs(seconds.clamp(1, 10));
    let mut problems = Vec::new();
    let mut counters = Counters::default();
    let (e2e, inputs, layers) = match workload {
        Workload::ReadZipf => read_zipf(seed, seconds, budget, trace, &mut counters, &mut problems),
        Workload::ChurnRyw | Workload::CommitFlood => stream(
            workload,
            seed,
            seconds,
            budget,
            trace,
            &mut counters,
            &mut problems,
        ),
    };
    if e2e.abs_err_max > EPSILON {
        problems.push(format!(
            "audit: abs_err_max {} exceeds epsilon {EPSILON}",
            e2e.abs_err_max
        ));
    }
    let attempted = (e2e.reads.latency.len() + e2e.commits.len()) as u64 + e2e.audit_calls;
    let failed = e2e.reads.failed + e2e.audit_failed;
    let per_layer = layers
        .map(|l| per_layer_metrics(&l, &counters, &e2e, attempted, failed))
        .unwrap_or_default();
    Outcome {
        fingerprint: inputs.fingerprint(),
        attempted,
        failed,
        problems,
        end_to_end: e2e.metrics(),
        per_layer,
    }
}

/// `clients` closed-loop threads sending `reads` in order through `call`.
fn closed_loop(
    clients: usize,
    reads: &[Query],
    call: &(dyn Fn(Query) -> Result<Response, FleetError> + Sync),
) -> Reads {
    let next = AtomicUsize::new(0);
    let mut merged = Reads::default();
    let logs: Vec<Reads> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..clients)
            .map(|_| {
                let next = &next;
                s.spawn(move || {
                    let mut log = Reads::default();
                    while let Some(&query) = reads.get(next.fetch_add(1, Ordering::Relaxed)) {
                        let t = Instant::now();
                        log.record(t, call(query));
                    }
                    log
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("load thread panicked"))
            .collect()
    });
    for log in logs {
        merged.merge(log);
    }
    merged
}

fn segments<T>(items: &[T]) -> std::slice::Chunks<'_, T> {
    items.chunks(items.len().div_ceil(SEGMENTS).max(1))
}

fn read_zipf(
    seed: u64,
    seconds: u64,
    budget: Duration,
    trace: Option<&mut Tracer>,
    counters: &mut Counters,
    problems: &mut Vec<String>,
) -> (EndToEnd, Inputs, Option<Layers>) {
    let mut e2e = EndToEnd::default();
    // The read path's service, and an identical one that takes the
    // commits: committing to the first would invalidate its cache.
    let (inputs, (service, writer), setup_s) =
        set_up(Workload::ReadZipf, seed, seconds, |inputs| {
            (service_of(&inputs.base, 2), service_of(&inputs.base, 1))
        });
    e2e.setup_s = setup_s;
    let call = |q: Query| service.call(Request::new(q)).map_err(FleetError::Service);

    // Untimed warm-up.
    let warm = closed_loop(ZIPF_CLIENTS, &inputs.warmup, &call);
    e2e.reads.failed += warm.failed;

    // Timed: each segment is a closed-loop read burst, then a closed-loop
    // commit burst on the writer service.
    let before = service.stats();
    for (reads, updates) in segments(&inputs.reads).zip(segments(&inputs.updates)) {
        let t = Instant::now();
        e2e.reads.merge(closed_loop(ZIPF_CLIENTS, reads, &call));
        e2e.read_secs += t.elapsed().as_secs_f64();
        let t = Instant::now();
        for &update in updates {
            let c = Instant::now();
            writer.commit(update);
            e2e.commits.push(c.elapsed());
        }
        e2e.commit_secs += t.elapsed().as_secs_f64();
    }
    e2e.peak_rss_mb = peak_rss_mb();
    let after = service.stats();
    let hits = after.cache_hits - before.cache_hits;
    let lookups = hits + after.cache_misses - before.cache_misses;
    counters.cache_hit_rate = hits as f64 / lookups.max(1) as f64;
    counters.deadline_exceeded = after.deadline_exceeded - before.deadline_exceeded;
    check_final_state(&inputs, inputs.updates.len(), &writer, &[], problems);

    let layers = trace.map(|tr| trace::read_zipf(tr, &inputs, budget, problems));

    audit(&mut e2e, &inputs.base, &inputs.audit, &call);
    (e2e, inputs, layers)
}

fn stream(
    workload: Workload,
    seed: u64,
    seconds: u64,
    budget: Duration,
    trace: Option<&mut Tracer>,
    counters: &mut Counters,
    problems: &mut Vec<String>,
) -> (EndToEnd, Inputs, Option<Layers>) {
    let mut e2e = EndToEnd::default();
    let (inputs, fleet, setup_s) = set_up(workload, seed, seconds, |inputs| fleet_of(&inputs.base));
    e2e.setup_s = setup_s;
    let checkpoints_before = fleet.supervisor_stats().checkpoints_taken;

    let phase_secs = if workload == Workload::ChurnRyw {
        churn_phase(&fleet, &inputs, &mut e2e, counters)
    } else {
        flood_phase(&fleet, &inputs, &mut e2e, counters, problems)
    };
    e2e.peak_rss_mb = peak_rss_mb();
    let final_version = fleet.version();
    let drain_started = Instant::now();
    if !fleet.wait_for_replication(final_version, Duration::from_secs(60)) {
        problems.push(format!("replica did not reach version {final_version}"));
    }
    if workload == Workload::ChurnRyw {
        counters.drain.push(drain_started.elapsed());
    }
    counters.checkpoints_per_s =
        (fleet.supervisor_stats().checkpoints_taken - checkpoints_before) as f64 / phase_secs;
    counters.failovers = fleet.failovers();
    let replicas: Vec<_> = fleet.replicas().iter().map(|r| r.service()).collect();
    let (mut hits, mut lookups) = (0, 0);
    for stats in replicas.iter().map(|s| s.stats()) {
        hits += stats.cache_hits;
        lookups += stats.cache_hits + stats.cache_misses;
        counters.deadline_exceeded += stats.deadline_exceeded;
    }
    counters.cache_hit_rate = hits as f64 / lookups.max(1) as f64;
    check_final_state(
        &inputs,
        inputs.updates.len(),
        fleet.primary(),
        &replicas,
        problems,
    );

    // The audit reads the final version through the router.
    let snapshot = fleet.primary().snapshot();
    let call = |q: Query| {
        fleet.call(Request::new(q).with_consistency(Consistency::AtLeastVersion(final_version)))
    };
    audit(&mut e2e, &snapshot, &inputs.audit, &call);
    drop(fleet);

    let layers = trace.map(|tr| {
        trace::stream(
            tr,
            &inputs,
            workload == Workload::ChurnRyw,
            budget,
            problems,
        )
    });
    (e2e, inputs, layers)
}

/// `churn_ryw`'s timed phase: an open-loop writer at [`CHURN_RATE`]
/// beside one closed-loop read-your-writes reader that samples the
/// replica's lag before each read. Returns the phase's length in seconds.
fn churn_phase(fleet: &Fleet, inputs: &Inputs, e2e: &mut EndToEnd, counters: &mut Counters) -> f64 {
    let watermark = AtomicU64::new(0);
    let done = AtomicBool::new(false);
    let started = Instant::now();
    let (commits, late, reads, lag) = std::thread::scope(|s| {
        let writer = s.spawn(|| {
            let (mut commits, mut late) = (Samples::default(), Samples::default());
            for (j, &update) in inputs.updates.iter().enumerate() {
                let due = started + Duration::from_secs_f64(j as f64 / CHURN_RATE);
                wait_until(due);
                let t = Instant::now();
                late.push(t.saturating_duration_since(due));
                let commit = fleet.commit(update);
                commits.push(t.elapsed());
                watermark.store(commit.version, Ordering::Release);
            }
            done.store(true, Ordering::Release);
            (commits, late)
        });
        let reader = s.spawn(|| {
            let (mut log, mut lag) = (Reads::default(), Samples::default());
            for &query in inputs.reads.iter().cycle() {
                if done.load(Ordering::Acquire) {
                    break;
                }
                let floor = watermark.load(Ordering::Acquire);
                lag.push_value(fleet.version().saturating_sub(fleet.registry().applied(0)) as f64);
                let request =
                    Request::new(query).with_consistency(Consistency::AtLeastVersion(floor));
                let t = Instant::now();
                log.record(t, fleet.call(request));
            }
            (log, lag)
        });
        let (commits, late) = writer.join().expect("writer panicked");
        let (reads, lag) = reader.join().expect("reader panicked");
        (commits, late, reads, lag)
    });
    let elapsed = started.elapsed().as_secs_f64();
    e2e.commit_secs = elapsed;
    e2e.read_secs = elapsed;
    e2e.commits = commits;
    counters.late = late;
    counters.lag = lag;
    e2e.reads = reads;
    elapsed
}

/// `commit_flood`'s timed phase: each segment is a closed-loop flood of
/// commits with no reads beside it; then, once the replica has applied
/// the segment's last commit, a few read-your-writes reads at that
/// version. Returns the flooding time in seconds.
fn flood_phase(
    fleet: &Fleet,
    inputs: &Inputs,
    e2e: &mut EndToEnd,
    counters: &mut Counters,
    problems: &mut Vec<String>,
) -> f64 {
    for (updates, reads) in segments(&inputs.updates).zip(segments(&inputs.reads)) {
        let started = Instant::now();
        let mut now = started;
        let mut version = 0;
        for &update in updates {
            version = fleet.commit(update).version;
            let after = Instant::now();
            e2e.commits.push(after - now);
            now = after;
        }
        e2e.commit_secs += (now - started).as_secs_f64();
        if !fleet.wait_for_replication(version, Duration::from_secs(60)) {
            problems.push(format!("replica did not reach version {version}"));
        }
        counters.drain.push(now.elapsed());
        let t = Instant::now();
        for &query in reads {
            let request =
                Request::new(query).with_consistency(Consistency::AtLeastVersion(version));
            let r = Instant::now();
            e2e.reads.record(r, fleet.call(request));
        }
        e2e.read_secs += t.elapsed().as_secs_f64();
    }
    e2e.commit_secs
}

/// Sleeps until shortly before `due`, then spins: `sleep` alone
/// overshoots by tens of microseconds.
fn wait_until(due: Instant) {
    const SPIN: Duration = Duration::from_micros(300);
    let now = Instant::now();
    if due > now + SPIN {
        std::thread::sleep(due - now - SPIN);
    }
    while Instant::now() < due {
        std::hint::spin_loop();
    }
}

/// Checks that `primary` holds exactly `base` plus the first `committed`
/// updates, at version `committed`, and that every replica holds the
/// same edge set.
fn check_final_state(
    inputs: &Inputs,
    committed: usize,
    primary: &QueryService,
    replicas: &[std::sync::Arc<QueryService>],
    problems: &mut Vec<String>,
) {
    let mut reference = GraphStore::from_csr(inputs.base.clone());
    reference.apply_all(inputs.updates[..committed].iter().copied());
    let n = inputs.base.num_nodes();
    let expected = edge_set_hash(n, reference.edges_iter());
    let snapshot = primary.snapshot();
    if snapshot.version() != committed as u64 {
        problems.push(format!(
            "primary at version {} after {committed} effective commits",
            snapshot.version()
        ));
    }
    if edge_set_hash(n, snapshot.edges_iter()) != expected {
        problems.push("primary edge set differs from the replayed stream".into());
    }
    for (slot, replica) in replicas.iter().enumerate() {
        if edge_set_hash(n, replica.snapshot().edges_iter()) != expected {
            problems.push(format!("replica {slot} edge set differs from the primary"));
        }
    }
}

/// Untimed: compares the served answers for every audit source with the
/// power method's, taking `abs_err_max` over the single-source answers
/// and the mean Precision@50 over the top-k answers.
fn audit<G: GraphView>(
    e2e: &mut EndToEnd,
    graph: &G,
    sources: &[NodeId],
    call: &dyn Fn(Query) -> Result<Response, FleetError>,
) {
    let truth = GroundTruth::compute(graph, config().decay);
    let mut reads = Reads::default();
    let (mut precision_sum, mut topk_answers) = (0.0, 0usize);
    for &u in sources {
        let t = Instant::now();
        if let Some(r) = reads.record(t, call(Query::SingleSource { node: u })) {
            let estimate = r.output.scores.to_dense();
            let err = abs_error(truth.single_source(u), &estimate, u);
            e2e.abs_err_max = e2e.abs_err_max.max(err);
        }
        let t = Instant::now();
        if let Some(r) = reads.record(t, call(Query::TopK { node: u, k: TOP_K })) {
            let returned: Vec<NodeId> = r.output.ranking().iter().map(|&(v, _)| v).collect();
            let expected: Vec<NodeId> = truth.top_k(u, TOP_K).iter().map(|&(v, _)| v).collect();
            precision_sum += precision_at_k(&returned, &expected, TOP_K);
            topk_answers += 1;
        }
    }
    e2e.precision = precision_sum / topk_answers.max(1) as f64;
    e2e.audit_calls = reads.latency.len() as u64;
    e2e.audit_failed = reads.failed;
}

fn per_layer_metrics(
    l: &Layers,
    c: &Counters,
    e2e: &EndToEnd,
    attempted: u64,
    failed: u64,
) -> Vec<Metric> {
    let m = |name, value, unit| Metric { name, value, unit };
    let us = |s: &Samples, p: f64| s.pct(p) * 1e6;
    let ms = |s: &Samples, p: f64| s.pct(p) * 1e3;
    let queries = l.core_queries.max(1) as f64;
    let work = l.work.total_work() as f64;
    let ns_per_work = |s: &Samples| {
        if work > 0.0 {
            s.sum() * 1e9 / work
        } else {
            0.0
        }
    };
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    vec![
        // Client-observed, from the untraced phase, but unbounded: the
        // cache-hit median and the open-loop commit tail hinge on thread
        // wake-ups, whose cost on a small VM varies too much between runs.
        m("query_p50_ms", e2e.reads.latency.pct(0.50) * 1e3, "ms"),
        m(
            "commit_p99_us",
            e2e.commits.tail(0.99, TAIL_BLOCKS) * 1e6,
            "us",
        ),
        m("graph.apply_us_p50", us(&l.apply, 0.50), "us"),
        m("graph.apply_us_p99", us(&l.apply, 0.99), "us"),
        m("graph.publish_us_p50", us(&l.publish, 0.50), "us"),
        m("graph.compactions", l.compactions as f64, "count"),
        m("graph.compact_ms_max", l.compact.max() * 1e3, "ms"),
        m("graph.touched_frac_mean", l.touched.mean(), "frac"),
        m(
            "graph.overlay_read_ratio",
            ratio(ns_per_work(&l.run_snapshot), ns_per_work(&l.run_csr)),
            "ratio",
        ),
        m("core.run_ms_p50", ms(&l.run_snapshot, 0.50), "ms"),
        m("core.run_ms_p95", ms(&l.run_snapshot, 0.95), "ms"),
        m("core.ns_per_work", ns_per_work(&l.run_snapshot), "ns"),
        m("core.work_per_query", work / queries, "count"),
        m(
            "core.walk_nodes_per_query",
            l.work.walk_nodes as f64 / queries,
            "count",
        ),
        m(
            "core.edges_expanded_per_query",
            l.work.edges_expanded as f64 / queries,
            "count",
        ),
        m(
            "core.nodes_sampled_per_query",
            l.work.nodes_sampled as f64 / queries,
            "count",
        ),
        m(
            "core.frontier_merges_per_query",
            l.work.frontier_merges as f64 / queries,
            "count",
        ),
        m("service.cache_hit_rate", c.cache_hit_rate, "frac"),
        m("service.hit_us_p50", us(&l.hit, 0.50), "us"),
        m(
            "service.queue_wait_ms_p50",
            ms(&e2e.reads.queue_wait, 0.50),
            "ms",
        ),
        m(
            "service.queue_wait_ms_p95",
            ms(&e2e.reads.queue_wait, 0.95),
            "ms",
        ),
        m("service.dispatch_us_p50", us(&l.dispatch, 0.50), "us"),
        m("service.self_ms_p50", ms(&l.service_self, 0.50), "ms"),
        m("service.commit_us_p50", us(&l.service_commit, 0.50), "us"),
        m("service.commit_us_p99", us(&l.service_commit, 0.99), "us"),
        m("service.observer_us_p50", us(&l.observer, 0.50), "us"),
        m(
            "service.deadline_exceeded",
            c.deadline_exceeded as f64,
            "count",
        ),
        m("fleet.log_append_us_p50", us(&l.log_append, 0.50), "us"),
        m("fleet.commit_us_p50", us(&l.fleet_commit, 0.50), "us"),
        m("fleet.commit_us_p99", us(&l.fleet_commit, 0.99), "us"),
        m(
            "fleet.commit_self_us_p50",
            us(&l.fleet_commit_self, 0.50),
            "us",
        ),
        m("fleet.route_ms_p50", ms(&l.route, 0.50), "ms"),
        m("fleet.self_ms_p50", ms(&l.fleet_self, 0.50), "ms"),
        m("fleet.replica_lag_p99", c.lag.pct(0.99), "versions"),
        m("fleet.drain_ms", ms(&c.drain, 0.50), "ms"),
        m("fleet.checkpoints_per_s", c.checkpoints_per_s, "1/s"),
        m("fleet.failovers", c.failovers as f64, "count"),
        m("fleet.shed", e2e.reads.shed as f64, "count"),
        m("gen.late_ms_p99", ms(&c.late, 0.99), "ms"),
        m("trace.overhead_frac", l.overhead_frac, "frac"),
        m(
            "failed_frac",
            ratio(failed as f64, attempted as f64),
            "frac",
        ),
    ]
}
