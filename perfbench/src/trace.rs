//! The traced replay: the run's generated inputs, fed one call at a time
//! through each layer's public entry point, one span per call.
//!
//! Every layer gets the same input sequence, so a layer's self time is
//! its span minus the span of the layer below for the same input:
//!
//! | layer     | entry points                                    |
//! |-----------|-------------------------------------------------|
//! | `graph`   | `GraphStore::apply`, `GraphStore::snapshot`     |
//! | `core`    | `QuerySession::run` on a snapshot and its CSR twin |
//! | `service` | `QueryService::commit`, `QueryService::call`    |
//! | `fleet`   | `UpdateLog::append`, `Fleet::commit`, `Fleet::call` |

use std::collections::VecDeque;
use std::io::Write;
use std::path::Path;
use std::time::{Duration, Instant};

use probesim_core::{ProbeSim, Query, QueryOutput, QuerySession, QueryStats};
use probesim_fleet::UpdateLog;
use probesim_graph::{CsrGraph, GraphSnapshot, GraphStore, GraphUpdate};
use probesim_service::{Consistency, Request, ServiceBuilder};

use crate::gen::Inputs;
use crate::run::{config, fleet_of, service_of, CHURN_READ_EVERY, RETAINED_VERSIONS};
use crate::stats::Samples;

/// Most inputs one replay feeds through the layers (bounds span memory
/// on the microsecond-scale write path).
const MAX_STEPS: usize = 50_000;

struct Span {
    layer: &'static str,
    entry: &'static str,
    input: usize,
    start: Duration,
    dur: Duration,
}

/// Spans kept in memory and written out when the run ends.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    /// Time inside traced calls, and time spent recording their spans.
    traced: Duration,
    recording: Duration,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            traced: Duration::ZERO,
            recording: Duration::ZERO,
        }
    }

    /// What tracing cost the traced calls: recording time over call time.
    pub fn overhead_frac(&self) -> f64 {
        if self.traced.is_zero() {
            0.0
        } else {
            self.recording.as_secs_f64() / self.traced.as_secs_f64()
        }
    }

    fn span<T>(
        &mut self,
        layer: &'static str,
        entry: &'static str,
        input: usize,
        f: impl FnOnce() -> T,
    ) -> (T, Duration) {
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        let dur = end - start;
        self.spans.push(Span {
            layer,
            entry,
            input,
            start: start - self.epoch,
            dur,
        });
        self.traced += dur;
        self.recording += end.elapsed();
        (out, dur)
    }

    /// Writes one tab-separated line per span:
    /// `layer entry input start_ns duration_ns`.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "layer\tentry\tinput\tstart_ns\tduration_ns")?;
        for s in &self.spans {
            writeln!(
                out,
                "{}\t{}\t{}\t{}\t{}",
                s.layer,
                s.entry,
                s.input,
                s.start.as_nanos(),
                s.dur.as_nanos()
            )?;
        }
        out.flush()
    }
}

/// What the replay measured, per layer. Empty samples report as 0.
#[derive(Default)]
pub struct Layers {
    pub apply: Samples,
    pub publish: Samples,
    pub compact: Samples,
    pub compactions: u64,
    pub touched: Samples,
    pub run_snapshot: Samples,
    pub run_csr: Samples,
    pub work: QueryStats,
    pub core_queries: u64,
    pub hit: Samples,
    pub dispatch: Samples,
    pub service_self: Samples,
    pub service_commit: Samples,
    pub observer: Samples,
    pub log_append: Samples,
    pub fleet_commit: Samples,
    pub fleet_commit_self: Samples,
    pub route: Samples,
    pub fleet_self: Samples,
    /// [`Tracer::overhead_frac`] at the end of the replay.
    pub overhead_frac: f64,
}

/// A layer's self time: its span minus the span below it for the same
/// input, in seconds. Signed: when a layer adds nothing measurable, noise
/// makes it negative as often as positive.
fn self_time(span: Duration, below: Duration) -> f64 {
    span.as_secs_f64() - below.as_secs_f64()
}

/// The `core` pair: one session on the live snapshot, one on its CSR
/// twin, answering the same query. Returns the snapshot run's output and
/// duration; a score mismatch between the twins is a problem.
struct CorePair {
    snapshot: Option<QuerySession<GraphSnapshot>>,
    csr: Option<QuerySession<CsrGraph>>,
}

impl CorePair {
    fn new(engine: &ProbeSim, snapshot: GraphSnapshot) -> CorePair {
        let twin = snapshot.to_csr();
        CorePair {
            snapshot: Some(engine.session(snapshot)),
            csr: Some(engine.session(twin)),
        }
    }

    fn rebind(&mut self, snapshot: GraphSnapshot) {
        let twin = snapshot.to_csr();
        self.snapshot = self.snapshot.take().map(|s| s.rebind(snapshot));
        self.csr = self.csr.take().map(|s| s.rebind(twin));
    }

    fn run(
        &mut self,
        tr: &mut Tracer,
        layers: &mut Layers,
        input: usize,
        query: Query,
        problems: &mut Vec<String>,
    ) -> Option<(QueryOutput, Duration)> {
        let snapshot = self.snapshot.as_mut().expect("session is bound");
        let csr = self.csr.as_mut().expect("session is bound");
        // Alternate which twin runs first so neither always finds the
        // caches warm.
        let (a, b) = if input.is_multiple_of(2) {
            let a = tr.span("core", "QuerySession::run@snapshot", input, || {
                snapshot.run(query)
            });
            let b = tr.span("core", "QuerySession::run@csr", input, || csr.run(query));
            (a, b)
        } else {
            let b = tr.span("core", "QuerySession::run@csr", input, || csr.run(query));
            let a = tr.span("core", "QuerySession::run@snapshot", input, || {
                snapshot.run(query)
            });
            (a, b)
        };
        match (a, b) {
            ((Ok(live), d_live), (Ok(twin), d_twin)) => {
                if live.scores != twin.scores {
                    problems.push(format!("core: snapshot and CSR twin disagree on {query:?}"));
                }
                layers.run_snapshot.push(d_live);
                layers.run_csr.push(d_twin);
                layers.work.merge(&live.stats);
                layers.core_queries += 1;
                Some((live, d_live))
            }
            ((Err(e), _), _) | (_, (Err(e), _)) => {
                problems.push(format!("core: {query:?} failed: {e}"));
                None
            }
        }
    }
}

/// `read_zipf`: the warm-up and timed read schedules, in order, through
/// a fresh service like the timed phase's, and every service miss through
/// the `core` pair on that service's snapshot. Then the commits through
/// a standalone store and another fresh service.
pub fn read_zipf(
    tr: &mut Tracer,
    inputs: &Inputs,
    budget: Duration,
    problems: &mut Vec<String>,
) -> Layers {
    let mut layers = Layers::default();
    let engine = ProbeSim::new(config());
    let service = service_of(&inputs.base, 2);
    let mut core = CorePair::new(&engine, service.snapshot());
    let started = Instant::now();
    let schedule = inputs.warmup.iter().chain(&inputs.reads);
    for (i, &query) in schedule.enumerate().take(MAX_STEPS) {
        if started.elapsed() >= budget {
            break;
        }
        let (outcome, d_call) = tr.span("service", "QueryService::call", i, || {
            service.call(Request::new(query))
        });
        let response = match outcome {
            Ok(r) => r,
            Err(e) => {
                problems.push(format!("service replay: {query:?} failed: {e}"));
                continue;
            }
        };
        if response.cache_hit {
            layers.hit.push(d_call);
            continue;
        }
        layers
            .dispatch
            .push(d_call.saturating_sub(response.exec_time));
        if let Some((live, d_core)) = core.run(tr, &mut layers, i, query, problems) {
            if live.scores != response.output.scores {
                problems.push(format!("service and core disagree on {query:?}"));
            }
            layers.service_self.push_value(self_time(d_call, d_core));
        }
    }

    // The post-read commits (writes, no reads): `graph` and `service`.
    let mut store = GraphStore::from_csr(inputs.base.clone());
    let fresh = service_of(&inputs.base, 1);
    let mut retained = VecDeque::new();
    for (j, &update) in inputs.updates.iter().enumerate().take(MAX_STEPS) {
        let (d_apply, d_publish) =
            graph_step(tr, &mut layers, &mut store, &mut retained, j, update);
        let (_, d_commit) = tr.span("service", "QueryService::commit", j, || {
            fresh.commit(update)
        });
        layers.service_commit.push(d_commit);
        layers
            .observer
            .push_value(self_time(d_commit, d_apply + d_publish));
    }
    layers.compactions = store.compactions();
    layers.overhead_frac = tr.overhead_frac();
    layers
}

/// `churn_ryw` (with reads) and `commit_flood` (without): the update
/// stream through a standalone store, service, log and fleet, one event
/// at a time; with reads, every [`CHURN_READ_EVERY`]-th event is followed
/// by the next scheduled read through the `core` pair, the service and
/// the fleet, each at the version it just committed.
pub fn stream(
    tr: &mut Tracer,
    inputs: &Inputs,
    with_reads: bool,
    budget: Duration,
    problems: &mut Vec<String>,
) -> Layers {
    let mut layers = Layers::default();
    let engine = ProbeSim::new(config());
    let mut store = GraphStore::from_csr(inputs.base.clone());
    let service = ServiceBuilder::new(config())
        .workers(1)
        .cache_capacity(256)
        .build(GraphStore::from_csr(inputs.base.clone()));
    let log = UpdateLog::new();
    let fleet = fleet_of(&inputs.base);
    let mut core = CorePair::new(&engine, store.snapshot());
    let mut retained = VecDeque::new();
    let started = Instant::now();
    for (j, &update) in inputs.updates.iter().enumerate().take(MAX_STEPS) {
        if started.elapsed() >= budget {
            break;
        }
        let (d_apply, d_publish) =
            graph_step(tr, &mut layers, &mut store, &mut retained, j, update);
        let (at_service, d_commit) = tr.span("service", "QueryService::commit", j, || {
            service.commit(update)
        });
        layers.service_commit.push(d_commit);
        layers
            .observer
            .push_value(self_time(d_commit, d_apply + d_publish));
        let (_, d_append) = tr.span("fleet", "UpdateLog::append", j, || log.append(update));
        layers.log_append.push(d_append);
        let (at_fleet, d_fleet) = tr.span("fleet", "Fleet::commit", j, || fleet.commit(update));
        layers.fleet_commit.push(d_fleet);
        layers
            .fleet_commit_self
            .push_value(self_time(d_fleet, d_commit + d_append));
        if !with_reads || j % CHURN_READ_EVERY != CHURN_READ_EVERY - 1 {
            continue;
        }
        let i = j / CHURN_READ_EVERY;
        let Some(&query) = inputs.reads.get(i) else {
            break;
        };
        layers.touched.push_value(store.touched_fraction());
        core.rebind(store.snapshot());
        let Some((live, d_core)) = core.run(tr, &mut layers, i, query, problems) else {
            continue;
        };
        let request = Request::new(query);
        let (outcome, d_call) = tr.span("service", "QueryService::call", i, || {
            service.call(request.with_consistency(Consistency::AtLeastVersion(at_service.version)))
        });
        let via_service = match outcome {
            Ok(r) => r,
            Err(e) => {
                problems.push(format!("service replay: {query:?} failed: {e}"));
                continue;
            }
        };
        if via_service.cache_hit {
            layers.hit.push(d_call);
        } else {
            layers
                .dispatch
                .push(d_call.saturating_sub(via_service.exec_time));
            layers.service_self.push_value(self_time(d_call, d_core));
        }
        let (outcome, d_route) = tr.span("fleet", "Fleet::call", i, || {
            fleet.call(request.with_consistency(Consistency::AtLeastVersion(at_fleet.version)))
        });
        match outcome {
            Ok(r) => {
                layers
                    .route
                    .push(d_route.saturating_sub(r.queue_wait + r.exec_time));
                layers.fleet_self.push_value(self_time(d_route, d_call));
                // All three answered at the same version: bit-identical.
                if r.output.scores != live.scores || via_service.output.scores != live.scores {
                    problems.push(format!("layers disagree on {query:?} at v{}", r.version));
                }
            }
            Err(e) => problems.push(format!("fleet replay: {query:?} failed: {e}")),
        }
    }
    layers.compactions = store.compactions();
    layers.overhead_frac = tr.overhead_frac();
    layers
}

/// One update through the `graph` layer: apply, then publish, keeping
/// the same number of published snapshots alive as a service retains
/// (their `Arc`s decide how much copy-on-write the next apply pays).
fn graph_step(
    tr: &mut Tracer,
    layers: &mut Layers,
    store: &mut GraphStore,
    retained: &mut VecDeque<GraphSnapshot>,
    input: usize,
    update: GraphUpdate,
) -> (Duration, Duration) {
    let before = store.compactions();
    let (_, d_apply) = tr.span("graph", "GraphStore::apply", input, || store.apply(update));
    layers.apply.push(d_apply);
    if store.compactions() > before {
        layers.compact.push(d_apply);
    }
    let (snapshot, d_publish) =
        tr.span("graph", "GraphStore::snapshot", input, || store.snapshot());
    layers.publish.push(d_publish);
    retained.push_back(snapshot);
    if retained.len() > RETAINED_VERSIONS {
        retained.pop_front();
    }
    (d_apply, d_publish)
}
