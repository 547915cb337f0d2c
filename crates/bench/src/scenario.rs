//! The workload scenario engine.
//!
//! A **scenario** is a named, seeded, self-describing workload: which
//! graph, which query mix, which execution mode, and — for dynamic
//! scenarios — how edge updates interleave with live queries. The engine
//! runs a scenario and returns its [`ScenarioReport`]: per-query (and
//! per-update) wall-clock latency summaries plus merged [`QueryStats`]
//! counters, which [`crate::report`] serializes into the
//! `BENCH_<scenario>.json` files the CI perf gate consumes.
//!
//! The catalog ([`catalog`]) covers the full query surface of the session
//! API — static single-source / top-k / threshold, sequential and
//! parallel batches, session reuse vs. per-query allocation — and the
//! regime the paper is actually *about* but classic benchmark tables
//! never measure: queries racing a stream of edge insertions and
//! deletions on the overlay-backed [`probesim_graph::GraphStore`] at
//! configurable update:query ratios, both interleaved on one thread
//! ([`ScenarioKind::DynamicInterleaved`]) and genuinely concurrent — one
//! writer thread vs. N client threads, against the store, the query
//! service or the replicated fleet, all driven by one shared harness —
//! (compare the evaluation
//! protocols of SLING/SimPush-style index-free systems and "Dynamical
//! SimRank Search on Time-Varying Networks").
//!
//! The timing primitives ([`Latencies`], [`time_per_item`]) are shared
//! with the paper-reproduction binaries, which report medians from the
//! same machinery instead of hand-rolled mean aggregates.

use std::hash::Hasher;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use probesim_core::{ProbeSim, ProbeSimConfig, Query, QueryError, QueryOutput, QueryStats};
use probesim_datasets::{sliding_window_workload, Dataset, Scale};
use probesim_eval::sample_query_nodes;
use probesim_fleet::{FaultPlan, Fleet, FleetError};
use probesim_graph::hash::FxHasher;
use probesim_graph::{
    CompactionPolicy, Edge, GraphStore, GraphUpdate, GraphView, NodeId, OverlayGraph,
};
use probesim_service::{Consistency, Priority, Request, Response, ServiceBuilder, ServiceError};

use crate::report::ScenarioReport;

/// A wall-clock latency recording with order statistics.
///
/// The scenario engine and the harness binaries both record per-item
/// timings here; medians and tail quantiles are what the reports emit
/// (mean-of-latencies hides exactly the tail a service cares about).
#[derive(Debug, Clone, Default)]
pub struct Latencies {
    samples: Vec<f64>,
}

impl Latencies {
    /// An empty recording.
    pub fn new() -> Latencies {
        Latencies::default()
    }

    /// Records one sample (seconds).
    pub fn push(&mut self, secs: f64) {
        self.samples.push(secs);
    }

    /// Times `f` and records the elapsed seconds, passing the value
    /// through.
    pub fn time<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let value = f();
        self.push(start.elapsed().as_secs_f64());
        value
    }

    /// Sample count.
    pub fn count(&self) -> usize {
        self.samples.len()
    }

    /// Mean seconds (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.samples.is_empty() {
            0.0
        } else {
            self.samples.iter().sum::<f64>() / self.samples.len() as f64
        }
    }

    /// Smallest sample (0.0 when empty).
    pub fn min(&self) -> f64 {
        if self.samples.is_empty() {
            0.0
        } else {
            self.samples.iter().copied().fold(f64::INFINITY, f64::min)
        }
    }

    /// Largest sample (0.0 when empty).
    pub fn max(&self) -> f64 {
        self.samples.iter().copied().fold(0.0, f64::max)
    }

    /// Nearest-rank quantile `q ∈ [0, 1]` (0.0 when empty): `q = 0.5` is
    /// the median, `q = 0.95` the p95.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        let mut sorted = self.samples.clone();
        sorted.sort_unstable_by(|a, b| {
            a.partial_cmp(b)
                .expect("invariant: latencies are never NaN")
        });
        let rank = ((sorted.len() - 1) as f64 * q.clamp(0.0, 1.0)).round() as usize;
        sorted[rank]
    }

    /// Median seconds.
    pub fn median(&self) -> f64 {
        self.quantile(0.5)
    }

    /// 95th-percentile seconds.
    pub fn p95(&self) -> f64 {
        self.quantile(0.95)
    }

    /// The raw samples, in recording order.
    pub fn samples(&self) -> &[f64] {
        &self.samples
    }
}

/// Runs `f` once per item, timing each call individually. Returns the
/// outputs and the latency recording — the shared measurement loop the
/// harness binaries use instead of private `for`-loops around `timed`.
pub fn time_per_item<I, T>(
    items: impl IntoIterator<Item = I>,
    mut f: impl FnMut(I) -> T,
) -> (Vec<T>, Latencies) {
    let mut latencies = Latencies::new();
    let outputs = items
        .into_iter()
        .map(|item| latencies.time(|| f(item)))
        .collect();
    (outputs, latencies)
}

/// What a scenario executes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ScenarioKind {
    /// Sequential queries of one shape through a single pooled session.
    Static {
        /// The query shape to issue.
        shape: QueryShape,
    },
    /// A whole query list executed with `QuerySession::run_batch`,
    /// repeated; each latency sample is one batch divided by its length
    /// (per-query cost in the batch regime).
    SequentialBatch,
    /// The same list through `ProbeSim::par_batch`.
    ParBatch {
        /// Worker threads (0 = auto).
        threads: usize,
    },
    /// A query stream revisiting a small node set on one long-lived
    /// session — the pooled steady state a query service runs in.
    SessionReuseStream {
        /// How many times the node set is swept.
        sweeps: usize,
    },
    /// The same stream with a fresh session (fresh `O(n)` scratch) per
    /// query — the allocation-bound contrast to
    /// [`ScenarioKind::SessionReuseStream`].
    FreshSessionPerQuery,
    /// Queries interleaved with a sliding-window update stream on a
    /// single thread: each round applies `updates_per_round` events to a
    /// [`probesim_graph::GraphStore`], then issues `queries_per_round`
    /// queries against a fresh snapshot of the mutated graph.
    DynamicInterleaved {
        /// Edge events applied per round.
        updates_per_round: usize,
        /// Queries issued per round.
        queries_per_round: usize,
    },
    /// One writer thread racing `readers` reader threads over a shared
    /// [`probesim_graph::GraphStore`]: the writer applies the seeded
    /// update stream (paced to the readers' progress at the configured
    /// update:query ratio) and publishes a snapshot after every update;
    /// readers continuously pull the latest snapshot and answer queries
    /// from owned, version-pinned sessions — never blocking on the
    /// writer. Readers record the snapshot versions they observe
    /// (per-version consistency: versions never go backwards within a
    /// reader).
    StoreConcurrent {
        /// Reader thread count.
        readers: usize,
        /// Updates in the update:query ratio (e.g. 1 in "1:8").
        updates_per_round: usize,
        /// Queries in the update:query ratio (e.g. 8 in "1:8").
        queries_per_round: usize,
    },
    /// The full serving facade under concurrent mixed-priority load:
    /// one writer thread streams updates through
    /// `QueryService::commit` (paced to the clients' progress at the
    /// configured ratio) while `clients` threads issue deadline-armed
    /// requests of alternating [`probesim_service::Priority`] through
    /// blocking `call`s. Latencies are client-observed (queue + exec);
    /// work is scheduling-dependent (which version a call answers at
    /// depends on the race), so only latency/fingerprint gate it.
    ServiceInteractiveMix {
        /// Client thread count.
        clients: usize,
        /// Updates in the update:query ratio.
        updates_per_round: usize,
        /// Queries in the update:query ratio.
        queries_per_round: usize,
    },
    /// The result-cache scenario: a Zipf-repeated query stream issued
    /// sequentially against a quiescent `QueryService`, so each distinct
    /// `(version, source)` executes exactly once and every repeat is a
    /// cache hit. Deterministic given the seed — the reported
    /// `cache_hit_rate` is gated tightly by the CI comparator, and
    /// `query_stats` counts fresh executions only (cache hits add zero
    /// work, which is exactly the claim under test).
    ServiceCacheRepeat {
        /// Distinct query nodes behind the repeats.
        distinct: usize,
    },
    /// The replicated serving fleet under mixed-consistency load: one
    /// writer streams updates through `Fleet::commit` — the durable-log
    /// append that also drives the log-tailing replicas — while
    /// `clients` threads rotate through `Latest`, read-your-writes
    /// `AtLeastVersion` (chained from the writer's freshest commit
    /// token, spelled in the shared `Consistency` wire form), and
    /// `Pinned` requests against the consistency-aware router.
    /// Latencies are client-observed; work is scheduling-dependent
    /// (which endpoint answers, and at which version, depends on the
    /// race), so latency, the final-state fingerprint and a
    /// cross-replica agreement check gate it.
    FleetReplicated {
        /// Log-tailing replica count behind the router.
        replicas: usize,
        /// Client thread count.
        clients: usize,
        /// Updates in the update:query ratio.
        updates_per_round: usize,
        /// Queries in the update:query ratio.
        queries_per_round: usize,
    },
    /// The fleet-replicated mix under a **seeded fault plan**: the same
    /// 1-writer + mixed-consistency-client workload, with deterministic
    /// chaos (crashes, stalls, slow applies, corrupt local-log reads
    /// derived from the run seed) injected into the replicas while a
    /// fast supervision loop checkpoints the primary and respawns dead
    /// tailers. Work and latency are scheduling-dependent; the gate
    /// runs on latency and the post-recovery replica-agreement
    /// fingerprint, and the run reports recoveries, restarts and router
    /// failovers as informational counters.
    FleetChaos {
        /// Log-tailing replica count behind the router.
        replicas: usize,
        /// Client thread count.
        clients: usize,
        /// Updates in the update:query ratio.
        updates_per_round: usize,
        /// Queries in the update:query ratio.
        queries_per_round: usize,
    },
    /// A query stream revisiting `distinct` sources under rotating query
    /// shapes, issued sequentially through a `QueryService`: the first
    /// visit to a source at a store version executes (full probe work),
    /// and every revisit at that version — whatever the query kind — is
    /// a `(version, source)` cache hit. With `updates_per_round > 0`
    /// each round first commits that many stream events, so every round
    /// re-executes each source once at the new version. Sequential, so
    /// hits and work are pure functions of the seed.
    CacheRevisit {
        /// Distinct query sources behind the rotating stream.
        distinct: usize,
        /// Edge events committed per round (0 on a static graph).
        updates_per_round: usize,
        /// Queries issued per round.
        queries_per_round: usize,
    },
}

/// The query shape a static scenario issues.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum QueryShape {
    /// `Query::SingleSource`.
    SingleSource,
    /// `Query::TopK` with this `k`.
    TopK(usize),
    /// `Query::Threshold` with this `tau`.
    Threshold(f64),
}

impl QueryShape {
    fn for_node(self, node: NodeId) -> Query {
        match self {
            QueryShape::SingleSource => Query::SingleSource { node },
            QueryShape::TopK(k) => Query::TopK { node, k },
            QueryShape::Threshold(tau) => Query::Threshold { node, tau },
        }
    }
}

/// Which graph a scenario runs on.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum GraphSource {
    /// A registry dataset at the run's [`Scale`].
    Dataset(Dataset),
    /// A warmed-up sliding-window stream graph (dynamic scenarios):
    /// `n` nodes, `window` live edges, both scaled down at CI scale.
    SlidingWindow {
        /// Node count at laptop scale.
        n: usize,
        /// Live-edge window at laptop scale.
        window: usize,
    },
}

/// A named, self-describing workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScenarioSpec {
    /// Unique name (the report file suffix and comparator join key).
    pub name: &'static str,
    /// One-line description of what the scenario measures.
    pub description: &'static str,
    /// The graph it runs on.
    pub graph: GraphSource,
    /// What it executes.
    pub kind: ScenarioKind,
    /// Engine accuracy parameter εa.
    pub epsilon: f64,
    /// Query-node sample size (for dynamic scenarios: per full run).
    pub queries: usize,
    /// Whether the engine runs the fused probe engine (the library
    /// default) or the legacy per-prefix path. The `*_fused`/`*_legacy`
    /// contrast pairs flip only this bit.
    pub fuse_probes: bool,
}

impl ScenarioSpec {
    /// True for workloads that apply edge updates (interleaved or
    /// concurrent).
    pub fn is_dynamic(&self) -> bool {
        matches!(
            self.kind,
            ScenarioKind::DynamicInterleaved { .. }
                | ScenarioKind::StoreConcurrent { .. }
                | ScenarioKind::ServiceInteractiveMix { .. }
                | ScenarioKind::FleetReplicated { .. }
                | ScenarioKind::FleetChaos { .. }
                | ScenarioKind::CacheRevisit {
                    updates_per_round: 1..,
                    ..
                }
        )
    }

    /// The report `kind` label.
    pub fn kind_name(&self) -> &'static str {
        match self.kind {
            ScenarioKind::DynamicInterleaved { .. } => "dynamic",
            ScenarioKind::StoreConcurrent { .. } => "concurrent",
            ScenarioKind::ServiceInteractiveMix { .. }
            | ScenarioKind::ServiceCacheRepeat { .. }
            | ScenarioKind::CacheRevisit { .. } => "service",
            ScenarioKind::FleetReplicated { .. } | ScenarioKind::FleetChaos { .. } => "fleet",
            _ => "static",
        }
    }

    /// False when per-run query work depends on thread scheduling (the
    /// concurrent store scenarios, the concurrent service mix and the
    /// replicated fleet: which snapshot version a reader sees is
    /// timing-dependent), so the `--compare` gate must not treat
    /// `total_work` as a deterministic signal.
    pub fn work_deterministic(&self) -> bool {
        !matches!(
            self.kind,
            ScenarioKind::StoreConcurrent { .. }
                | ScenarioKind::ServiceInteractiveMix { .. }
                | ScenarioKind::FleetReplicated { .. }
                | ScenarioKind::FleetChaos { .. }
        )
    }
}

/// The full scenario catalog, in a stable order.
///
/// Twenty-two scenarios: six static (query shapes × execution modes),
/// one allocation contrast, three update-interleaved dynamic workloads
/// at different update:query ratios, two concurrent 1-writer/N-reader
/// store workloads, four probe-engine scenarios forming two
/// fused-vs-legacy contrast pairs (one static, one dynamic), two
/// `QueryService` serving workloads (a concurrent mixed-priority
/// deadline mix and the deterministic cache-repeat stream), two
/// replicated-fleet workloads (1 writer
/// committing through the durable log, log-tailing replicas, and
/// mixed-consistency clients behind the consistency-aware router —
/// once fault-free, once under a seeded chaos plan with supervised
/// crash recovery), two source-revisit streams through the
/// `(version, source)` result cache (one static, contrasted against the
/// uncached `probe_static_fused` budget, one under churn, contrasted
/// against `dynamic_churn_balanced`).
pub fn catalog() -> Vec<ScenarioSpec> {
    vec![
        ScenarioSpec {
            name: "static_single_source",
            description: "sequential single-source queries, pooled session, HepTh-like graph",
            graph: GraphSource::Dataset(Dataset::HepTh),
            kind: ScenarioKind::Static {
                shape: QueryShape::SingleSource,
            },
            epsilon: 0.1,
            queries: 20,
            fuse_probes: true,
        },
        ScenarioSpec {
            name: "static_top_k",
            description: "sequential top-50 queries on the locally dense Wiki-Vote analogue",
            graph: GraphSource::Dataset(Dataset::WikiVote),
            kind: ScenarioKind::Static {
                shape: QueryShape::TopK(50),
            },
            epsilon: 0.1,
            queries: 20,
            fuse_probes: true,
        },
        ScenarioSpec {
            name: "static_threshold",
            description: "sequential threshold (s > 0.05) queries on the AS topology analogue",
            graph: GraphSource::Dataset(Dataset::As),
            kind: ScenarioKind::Static {
                shape: QueryShape::Threshold(0.05),
            },
            epsilon: 0.1,
            queries: 20,
            fuse_probes: true,
        },
        ScenarioSpec {
            name: "batch_sequential",
            description: "top-10 query list via run_batch on one session (per-query cost)",
            graph: GraphSource::Dataset(Dataset::HepTh),
            kind: ScenarioKind::SequentialBatch,
            epsilon: 0.1,
            queries: 16,
            fuse_probes: true,
        },
        ScenarioSpec {
            name: "batch_parallel",
            description: "the same query list via par_batch across per-thread sessions",
            graph: GraphSource::Dataset(Dataset::HepTh),
            kind: ScenarioKind::ParBatch { threads: 0 },
            epsilon: 0.1,
            queries: 16,
            fuse_probes: true,
        },
        ScenarioSpec {
            name: "session_reuse_stream",
            description: "8-node query stream swept repeatedly on one pooled session",
            graph: GraphSource::Dataset(Dataset::As),
            kind: ScenarioKind::SessionReuseStream { sweeps: 4 },
            epsilon: 0.1,
            queries: 8,
            fuse_probes: true,
        },
        ScenarioSpec {
            name: "fresh_session_per_query",
            description: "the same stream with fresh O(n) scratch per query (allocation cost)",
            graph: GraphSource::Dataset(Dataset::As),
            kind: ScenarioKind::FreshSessionPerQuery,
            epsilon: 0.1,
            queries: 8,
            fuse_probes: true,
        },
        ScenarioSpec {
            name: "dynamic_churn_balanced",
            description: "overlay-backed store, sliding-window stream, 1 update : 1 query",
            graph: GraphSource::SlidingWindow {
                n: 20_000,
                window: 120_000,
            },
            kind: ScenarioKind::DynamicInterleaved {
                updates_per_round: 1,
                queries_per_round: 1,
            },
            epsilon: 0.1,
            queries: 24,
            fuse_probes: true,
        },
        ScenarioSpec {
            name: "dynamic_update_heavy",
            description: "overlay-backed store, 10 updates : 1 query (write-dominated stream)",
            graph: GraphSource::SlidingWindow {
                n: 20_000,
                window: 120_000,
            },
            kind: ScenarioKind::DynamicInterleaved {
                updates_per_round: 10,
                queries_per_round: 1,
            },
            epsilon: 0.1,
            queries: 24,
            fuse_probes: true,
        },
        ScenarioSpec {
            name: "dynamic_read_heavy",
            description: "overlay-backed store, 1 update : 8 queries (read-dominated stream)",
            graph: GraphSource::SlidingWindow {
                n: 20_000,
                window: 120_000,
            },
            kind: ScenarioKind::DynamicInterleaved {
                updates_per_round: 1,
                queries_per_round: 8,
            },
            epsilon: 0.1,
            queries: 24,
            fuse_probes: true,
        },
        // Concurrent serving scenarios: 1 writer thread racing snapshot
        // readers over a GraphStore. Latencies are gated per role
        // (query_latency = readers, update_latency = writer); total_work
        // is reported but not gated — which snapshot version a reader
        // sees is timing-dependent.
        ScenarioSpec {
            name: "store_concurrent_balanced",
            description: "GraphStore: 1 writer vs 4 snapshot readers, 1 update : 1 query",
            graph: GraphSource::SlidingWindow {
                n: 20_000,
                window: 120_000,
            },
            kind: ScenarioKind::StoreConcurrent {
                readers: 4,
                updates_per_round: 1,
                queries_per_round: 1,
            },
            epsilon: 0.1,
            queries: 32,
            fuse_probes: true,
        },
        ScenarioSpec {
            name: "store_concurrent_read_heavy",
            description: "GraphStore: 1 writer vs 4 snapshot readers, 1 update : 8 queries",
            graph: GraphSource::SlidingWindow {
                n: 20_000,
                window: 120_000,
            },
            kind: ScenarioKind::StoreConcurrent {
                readers: 4,
                updates_per_round: 1,
                queries_per_round: 8,
            },
            epsilon: 0.1,
            queries: 48,
            fuse_probes: true,
        },
        // Fused-vs-legacy probe contrast pairs: identical workloads, only
        // the `fuse_probes` bit differs. `probesim-bench --contrast` pairs
        // them by the `_fused`/`_legacy` suffix and gates the minimum
        // deterministic work reduction.
        ScenarioSpec {
            name: "probe_static_fused",
            description: "probe-heavy single-source on dense Wiki-Vote, fused frontier engine",
            graph: GraphSource::Dataset(Dataset::WikiVote),
            kind: ScenarioKind::Static {
                shape: QueryShape::SingleSource,
            },
            epsilon: 0.1,
            queries: 12,
            fuse_probes: true,
        },
        ScenarioSpec {
            name: "probe_static_legacy",
            description: "the same probe-heavy workload on the legacy per-prefix path",
            graph: GraphSource::Dataset(Dataset::WikiVote),
            kind: ScenarioKind::Static {
                shape: QueryShape::SingleSource,
            },
            epsilon: 0.1,
            queries: 12,
            fuse_probes: false,
        },
        ScenarioSpec {
            name: "probe_dynamic_fused",
            description: "probe-heavy queries racing a live update stream, fused engine",
            graph: GraphSource::SlidingWindow {
                n: 20_000,
                window: 160_000,
            },
            kind: ScenarioKind::DynamicInterleaved {
                updates_per_round: 1,
                queries_per_round: 2,
            },
            epsilon: 0.1,
            queries: 12,
            fuse_probes: true,
        },
        ScenarioSpec {
            name: "probe_dynamic_legacy",
            description: "the same dynamic probe-heavy workload on the per-prefix path",
            graph: GraphSource::SlidingWindow {
                n: 20_000,
                window: 160_000,
            },
            kind: ScenarioKind::DynamicInterleaved {
                updates_per_round: 1,
                queries_per_round: 2,
            },
            epsilon: 0.1,
            queries: 12,
            fuse_probes: false,
        },
        // QueryService serving scenarios: the whole stack behind one
        // handle. The interactive mix races 1 writer against N clients
        // with deadlines armed (latency + fingerprint gated; work is
        // scheduling-dependent); the cache-repeat stream is sequential
        // and deterministic, so its cache_hit_rate and total_work are
        // gated tightly.
        ScenarioSpec {
            name: "service_interactive_mix",
            description: "QueryService: 1 writer + 3 clients, mixed priorities, deadlines armed",
            graph: GraphSource::SlidingWindow {
                n: 20_000,
                window: 120_000,
            },
            kind: ScenarioKind::ServiceInteractiveMix {
                clients: 3,
                updates_per_round: 1,
                queries_per_round: 4,
            },
            epsilon: 0.1,
            queries: 32,
            fuse_probes: true,
        },
        ScenarioSpec {
            name: "service_cache_repeat",
            description: "QueryService: Zipf-repeated query stream through the result cache",
            graph: GraphSource::Dataset(Dataset::HepTh),
            kind: ScenarioKind::ServiceCacheRepeat { distinct: 10 },
            epsilon: 0.1,
            queries: 40,
            fuse_probes: true,
        },
        // The replicated fleet: durable log + log-tailing replicas +
        // consistency-aware router as one serving surface. Work is
        // scheduling-dependent (which endpoint answers, at which
        // version), so the gate runs on latency, the final-state
        // fingerprint, and the in-run cross-replica agreement check.
        ScenarioSpec {
            name: "fleet_replicated_serving",
            description: "Fleet: 1 writer + 3 replicas, Latest/AtLeastVersion/Pinned client mix",
            graph: GraphSource::SlidingWindow {
                n: 20_000,
                window: 120_000,
            },
            kind: ScenarioKind::FleetReplicated {
                replicas: 3,
                clients: 3,
                updates_per_round: 1,
                queries_per_round: 4,
            },
            epsilon: 0.1,
            queries: 32,
            fuse_probes: true,
        },
        // The same fleet mix under a seeded fault plan: replicas crash,
        // stall and detect corrupt log reads mid-run while the
        // supervisor checkpoints and respawns them. The run must still
        // serve the client mix and end with every replica bit-agreeing
        // with the primary; recoveries/restarts/failovers ride along as
        // informational counters.
        ScenarioSpec {
            name: "fleet_chaos_recovery",
            description: "Fleet under seeded chaos: crashes + salvage + supervised recovery",
            graph: GraphSource::SlidingWindow {
                n: 20_000,
                window: 120_000,
            },
            kind: ScenarioKind::FleetChaos {
                replicas: 3,
                clients: 3,
                updates_per_round: 1,
                queries_per_round: 4,
            },
            epsilon: 0.1,
            queries: 32,
            fuse_probes: true,
        },
        // Source revisits through the (version, source) result cache:
        // 3 sources revisited under rotating query shapes, so each source
        // executes once per store version and every other visit is a
        // cross-kind hit. The static stream spends probe_static_fused's
        // 12-query budget on the same graph; the churn stream commits one
        // event per 8-query round on dynamic_churn_balanced's graph. Both
        // contrast pairs pin the work the cache saves.
        ScenarioSpec {
            name: "cache_revisit_static",
            description: "QueryService: 3 sources revisited under rotating shapes, static graph",
            graph: GraphSource::Dataset(Dataset::WikiVote),
            kind: ScenarioKind::CacheRevisit {
                distinct: 3,
                updates_per_round: 0,
                queries_per_round: 12,
            },
            epsilon: 0.1,
            queries: 12,
            fuse_probes: true,
        },
        ScenarioSpec {
            name: "cache_revisit_churn",
            description: "QueryService: 3 sources revisited under rotating shapes beside a writer",
            graph: GraphSource::SlidingWindow {
                n: 20_000,
                window: 120_000,
            },
            kind: ScenarioKind::CacheRevisit {
                distinct: 3,
                updates_per_round: 1,
                queries_per_round: 8,
            },
            epsilon: 0.1,
            queries: 24,
            fuse_probes: true,
        },
    ]
}

/// Looks a scenario up by name.
pub fn find(name: &str) -> Option<ScenarioSpec> {
    catalog().into_iter().find(|spec| spec.name == name)
}

/// Scale name for reports.
pub fn scale_name(scale: Scale) -> &'static str {
    match scale {
        Scale::Ci => "ci",
        Scale::Laptop => "laptop",
        Scale::Paper => "paper",
    }
}

/// Shrinks dynamic-scenario sizes the same way the dataset registry
/// shrinks its graphs: CI runs are ~20× smaller than laptop runs.
fn scaled(scale: Scale, size: usize) -> usize {
    match scale {
        Scale::Ci => (size / 20).max(64),
        Scale::Laptop | Scale::Paper => size,
    }
}

/// Executes one scenario. Deterministic in `(spec, scale, seed)`: the
/// graph, the update stream, the query nodes and the engine RNG are all
/// derived from `seed`, so the work counters in the report are exactly
/// reproducible (latencies, of course, are not).
pub fn run_scenario(spec: &ScenarioSpec, scale: Scale, seed: u64) -> ScenarioReport {
    let mut config = ProbeSimConfig::paper(spec.epsilon).with_seed(seed);
    config.optimizations.fuse_probes = spec.fuse_probes;
    let engine = ProbeSim::new(config);
    let runner = match spec.kind {
        ScenarioKind::DynamicInterleaved { .. } => run_dynamic,
        ScenarioKind::StoreConcurrent { .. } => run_store_concurrent,
        ScenarioKind::ServiceInteractiveMix { .. } => run_service_interactive_mix,
        ScenarioKind::ServiceCacheRepeat { .. } => run_service_cache_repeat,
        ScenarioKind::FleetReplicated { .. } | ScenarioKind::FleetChaos { .. } => {
            run_fleet_replicated
        }
        ScenarioKind::CacheRevisit { .. } => run_cache_revisit,
        _ => run_static,
    };
    runner(spec, scale, seed, &engine)
}

/// The warmed-up graph of a sliding-window scenario, the first `updates`
/// events of its stream, and the graph's report label.
fn sliding_window(
    spec: &ScenarioSpec,
    scale: Scale,
    seed: u64,
    updates: usize,
) -> (OverlayGraph, Vec<GraphUpdate>, String) {
    let GraphSource::SlidingWindow { n, window } = spec.graph else {
        panic!(
            "scenario {}: dynamic kinds require a SlidingWindow graph source",
            spec.name
        );
    };
    let (n, window) = (scaled(scale, n), scaled(scale, window));
    let (graph, stream) = sliding_window_workload(n, window, updates, seed ^ 0x5EED);
    let label = format!("sliding_window(n={n}, window={window})");
    (graph, stream, label)
}

/// The query node of request `i`: requests cycle through the sample.
fn cycled(nodes: &[NodeId], i: usize) -> NodeId {
    nodes
        .get(i % nodes.len().max(1))
        .copied()
        .expect("invariant: the query-node sample is non-empty")
}

/// Order-sensitive FxHash of a graph's sorted edge list, streamed
/// through a non-allocating `edges_iter`.
fn graph_state_hash(num_nodes: usize, edges: impl Iterator<Item = Edge>) -> u64 {
    let mut hasher = FxHasher::default();
    hasher.write_u64(num_nodes as u64);
    for (u, v) in edges {
        hasher.write_u32(u);
        hasher.write_u32(v);
    }
    hasher.finish()
}

/// One client's query-side record — or, for the sequential runners, the
/// whole run's: per-request latencies, counters merged over the executed
/// queries, the versions answers came from (in order), cache hits and
/// deadline misses.
#[derive(Debug, Default)]
struct Tally {
    latencies: Latencies,
    stats: QueryStats,
    versions: Vec<u64>,
    hits: u64,
    deadline_misses: u64,
}

impl Tally {
    /// Times one engine query and merges its counters.
    fn time_query(&mut self, run: impl FnOnce() -> Result<QueryOutput, QueryError>) {
        let output = self
            .latencies
            .time(run)
            .expect("invariant: sampled query nodes are valid, and edge churn keeps them so");
        self.stats.merge(&output.stats);
    }

    /// Records an answered request. Hits add zero work: `stats` counts
    /// fresh executions only.
    fn served(&mut self, response: &Response) {
        self.versions.push(response.version);
        if response.cache_hit {
            self.hits += 1;
        } else {
            self.stats.merge(&response.output.stats);
        }
    }

    /// The version this client was last answered at (0 before its first
    /// answer).
    fn last_version(&self) -> u64 {
        self.versions.last().copied().unwrap_or(0)
    }

    /// How many distinct versions answered requests.
    fn distinct_versions(&self) -> u64 {
        let mut versions = self.versions.clone();
        versions.sort_unstable();
        versions.dedup();
        versions.len() as u64
    }

    fn merge(&mut self, other: Tally) {
        self.latencies.samples.extend(other.latencies.samples);
        self.stats.merge(&other.stats);
        self.versions.extend(other.versions);
        self.hits += other.hits;
        self.deadline_misses += other.deadline_misses;
    }
}

/// How a concurrent run splits its work: `clients` threads share
/// `queries` requests while one writer applies `updates` events, paced
/// to the spec's `updates_per_round : queries_per_round` ratio.
struct Pacing {
    clients: usize,
    queries: usize,
    updates: usize,
    updates_per_round: usize,
    queries_per_round: usize,
}

impl Pacing {
    fn of(spec: &ScenarioSpec) -> Pacing {
        let (clients, updates_per_round, queries_per_round) = match spec.kind {
            ScenarioKind::StoreConcurrent {
                readers: clients,
                updates_per_round,
                queries_per_round,
            }
            | ScenarioKind::ServiceInteractiveMix {
                clients,
                updates_per_round,
                queries_per_round,
            }
            | ScenarioKind::FleetReplicated {
                clients,
                updates_per_round,
                queries_per_round,
                ..
            }
            | ScenarioKind::FleetChaos {
                clients,
                updates_per_round,
                queries_per_round,
                ..
            } => (clients, updates_per_round, queries_per_round),
            _ => unreachable!("only the concurrent kinds race a writer against clients"),
        };
        let clients = clients.max(1);
        let queries = spec.queries.max(clients);
        Pacing {
            clients,
            queries,
            updates: (queries * updates_per_round).div_ceil(queries_per_round.max(1)),
            updates_per_round,
            queries_per_round,
        }
    }
}

/// The concurrent harness the store, service and fleet runners share.
///
/// One writer thread applies `updates` in order through `write`; update
/// `j` waits until the clients have answered their share at the pacing
/// ratio, so the ratio holds across the whole run. `pacing.clients`
/// threads split the requests (client `c` issues `c`, `c + clients`, …)
/// and answer each through `request(i, tally)`, which records into the
/// client's own tally. Both closures time their own calls. A client
/// panic releases the writer's pacing loop and then propagates out of
/// the join, so a failing run fails instead of hanging. Returns the
/// writer's latencies and the clients' merged tally.
fn drive(
    pacing: &Pacing,
    updates: &[GraphUpdate],
    mut write: impl FnMut(GraphUpdate, &mut Latencies) + Send,
    request: impl Fn(usize, &mut Tally) + Sync,
) -> (Latencies, Tally) {
    let completed = AtomicUsize::new(0);
    let client_panicked = AtomicBool::new(false);
    struct PanicFlag<'a>(&'a AtomicBool);
    impl Drop for PanicFlag<'_> {
        fn drop(&mut self) {
            if std::thread::panicking() {
                self.0.store(true, Ordering::Release);
            }
        }
    }
    std::thread::scope(|scope| {
        let writer = scope.spawn(|| {
            let mut latencies = Latencies::new();
            for (j, &update) in updates.iter().enumerate() {
                let target = (j * pacing.queries_per_round / pacing.updates_per_round.max(1))
                    .min(pacing.queries.saturating_sub(1));
                // A short sleep, not a yield spin: on small machines a
                // busy writer would steal cycles from the clients it is
                // waiting for. Pacing precision is irrelevant here.
                while completed.load(Ordering::Acquire) < target {
                    if client_panicked.load(Ordering::Acquire) {
                        return latencies;
                    }
                    std::thread::sleep(Duration::from_micros(50));
                }
                write(update, &mut latencies);
            }
            latencies
        });
        let clients: Vec<_> = (0..pacing.clients)
            .map(|c| {
                let (completed, client_panicked, request) =
                    (&completed, &client_panicked, &request);
                scope.spawn(move || {
                    let _unblock_writer = PanicFlag(client_panicked);
                    let mut tally = Tally::default();
                    for i in (c..pacing.queries).step_by(pacing.clients) {
                        request(i, &mut tally);
                        completed.fetch_add(1, Ordering::Release);
                    }
                    tally
                })
            })
            .collect();
        let update_latency = writer
            .join()
            .expect("invariant: the writer thread joins cleanly (its panic propagates here)");
        let mut merged = Tally::default();
        for client in clients {
            merged.merge(
                client
                    .join()
                    .expect("invariant: client threads join cleanly (their panics propagate here)"),
            );
        }
        (update_latency, merged)
    })
}

/// Batch repetitions per batch scenario; each is one latency sample.
const BATCH_REPS: usize = 5;

fn run_static(spec: &ScenarioSpec, scale: Scale, seed: u64, engine: &ProbeSim) -> ScenarioReport {
    let GraphSource::Dataset(dataset) = spec.graph else {
        panic!(
            "scenario {}: static kinds require a Dataset graph source",
            spec.name
        );
    };
    let graph = dataset.generate(scale);
    let nodes = sample_query_nodes(&graph, spec.queries, seed);
    let mut tally = Tally::default();

    match spec.kind {
        ScenarioKind::Static { shape } => {
            let mut session = engine.session(&graph);
            for &u in &nodes {
                tally.time_query(|| session.run(shape.for_node(u)));
            }
        }
        ScenarioKind::SequentialBatch | ScenarioKind::ParBatch { .. } => {
            let queries: Vec<Query> = nodes
                .iter()
                .map(|&node| Query::TopK { node, k: 10 })
                .collect();
            // Each sample is one batch divided by its size, i.e. achieved
            // per-query cost in the batch regime.
            for rep in 0..BATCH_REPS {
                let start;
                let batch = match spec.kind {
                    ScenarioKind::ParBatch { threads } => {
                        start = Instant::now();
                        engine.par_batch(&graph, &queries, threads)
                    }
                    _ => {
                        // The session's scratch is bound outside the timer.
                        let mut session = engine.session(&graph);
                        start = Instant::now();
                        session.run_batch(&queries)
                    }
                };
                let elapsed = start.elapsed().as_secs_f64();
                tally.latencies.push(elapsed / queries.len().max(1) as f64);
                let batch = batch.expect("invariant: sampled query nodes are valid");
                if rep == 0 {
                    // Per-query RNG derivation makes every repetition
                    // identical work; count it once.
                    tally.stats.merge(&batch.stats);
                }
            }
        }
        ScenarioKind::SessionReuseStream { sweeps } => {
            let mut session = engine.session(&graph);
            for _ in 0..sweeps {
                for &node in &nodes {
                    tally.time_query(|| session.run(Query::SingleSource { node }));
                }
            }
        }
        ScenarioKind::FreshSessionPerQuery => {
            for _ in 0..4 {
                for &node in &nodes {
                    // Fresh O(n) scratch inside the timed region — the
                    // cost the pooled stream scenario avoids.
                    tally.time_query(|| engine.session(&graph).run(Query::SingleSource { node }));
                }
            }
        }
        _ => unreachable!("run_scenario sends the other kinds to their own runners"),
    }

    let mut report = ScenarioReport::new(
        spec,
        scale,
        seed,
        (
            dataset.name().to_string(),
            graph.num_nodes(),
            graph.num_edges(),
        ),
        &tally.latencies,
        &tally.stats,
        None,
    );
    if matches!(
        spec.kind,
        ScenarioKind::SequentialBatch | ScenarioKind::ParBatch { .. }
    ) {
        // One sample covers a whole batch; every query of every
        // repetition counts as executed.
        report.queries = BATCH_REPS * nodes.len();
    }
    report
}

/// The query shapes the revisit scenarios rotate through: every kind is
/// answered from the same `(version, source)` cache entry.
const REVISIT_SHAPES: [QueryShape; 3] = [
    QueryShape::SingleSource,
    QueryShape::TopK(10),
    QueryShape::Threshold(0.05),
];

/// The query for visit `i` of a revisit scenario: sources cycle fastest,
/// shapes rotate across revisits — so the first visit of each source at
/// a version executes and later visits hit its entry under a different
/// query kind.
fn revisit_query(sources: &[NodeId], i: usize) -> Query {
    REVISIT_SHAPES
        .get((i / sources.len().max(1)) % REVISIT_SHAPES.len())
        .expect("invariant: REVISIT_SHAPES is non-empty")
        .for_node(cycled(sources, i))
}

fn run_cache_revisit(
    spec: &ScenarioSpec,
    scale: Scale,
    seed: u64,
    engine: &ProbeSim,
) -> ScenarioReport {
    let ScenarioKind::CacheRevisit {
        distinct,
        updates_per_round,
        queries_per_round,
    } = spec.kind
    else {
        unreachable!("run_scenario sends only CacheRevisit here");
    };
    let rounds = spec.queries.div_ceil(queries_per_round.max(1));
    let (store, updates, label) = match spec.graph {
        GraphSource::Dataset(dataset) => (
            GraphStore::from_view(&dataset.generate(scale)),
            Vec::new(),
            dataset.name().to_string(),
        ),
        GraphSource::SlidingWindow { .. } => {
            let (graph, updates, label) =
                sliding_window(spec, scale, seed, rounds * updates_per_round);
            (GraphStore::from_view(&graph), updates, label)
        }
    };
    let (nodes, edges) = (store.num_nodes(), store.num_edges());
    let sources = sample_query_nodes(&store, distinct.max(1), seed);
    let service = ServiceBuilder::new(engine.config().clone())
        .workers(1)
        // Room for every (version, source) pair: the hit pattern is
        // exactly "seen at this version", independent of LRU order.
        .cache_capacity(sources.len() * (rounds + 1))
        .build(store);

    let mut tally = Tally::default();
    let mut update_latency = Latencies::new();
    let mut update_iter = updates.into_iter();
    let mut next_query = 0usize;
    for _ in 0..rounds {
        for update in update_iter.by_ref().take(updates_per_round) {
            update_latency.time(|| service.commit(update));
        }
        for _ in 0..queries_per_round.min(spec.queries - next_query) {
            let query = revisit_query(&sources, next_query);
            next_query += 1;
            let response = tally
                .latencies
                .time(|| service.call(Request::new(query)))
                .expect("invariant: sampled query nodes are valid");
            tally.served(&response);
        }
    }
    let dynamic = spec.is_dynamic();

    let mut report = ScenarioReport::new(
        spec,
        scale,
        seed,
        (label, nodes, edges),
        &tally.latencies,
        &tally.stats,
        dynamic.then_some(&update_latency),
    );
    report.final_state_hash =
        dynamic.then(|| graph_state_hash(nodes, service.snapshot().edges_iter()));
    report.cache_hits = Some(tally.hits);
    report.cache_hit_rate = Some(tally.hits as f64 / next_query.max(1) as f64);
    report
}

fn run_dynamic(spec: &ScenarioSpec, scale: Scale, seed: u64, engine: &ProbeSim) -> ScenarioReport {
    let ScenarioKind::DynamicInterleaved {
        updates_per_round,
        queries_per_round,
    } = spec.kind
    else {
        unreachable!("run_scenario sends only DynamicInterleaved here");
    };
    let rounds = spec.queries.div_ceil(queries_per_round.max(1));
    let (graph, updates, label) = sliding_window(spec, scale, seed, rounds * updates_per_round);
    // The overlay-backed store is the serving path: updates mutate the
    // copy-on-write overlay, every query binds a fresh published
    // snapshot. Identical edge sets mean identical estimates and work
    // counters to a scratch CSR rebuild, bit for bit.
    let mut store = GraphStore::from_view(&graph);
    drop(graph);
    let (n, start_edges) = (store.num_nodes(), store.num_edges());
    let query_nodes = sample_query_nodes(&store, spec.queries.max(queries_per_round), seed);

    let mut tally = Tally::default();
    let mut update_latency = Latencies::new();
    let mut update_iter = updates.into_iter();
    for round in 0..rounds {
        for update in update_iter.by_ref().take(updates_per_round) {
            update_latency.time(|| store.apply(update));
        }
        for i in round * queries_per_round..(round + 1) * queries_per_round {
            let node = cycled(&query_nodes, i);
            // Index-free means the query needs nothing but the current
            // graph: snapshot publication and scratch binding both happen
            // inside the timed region, exactly what a live service pays.
            tally.time_query(|| {
                engine
                    .session(store.snapshot())
                    .run(Query::SingleSource { node })
            });
        }
    }

    let mut report = ScenarioReport::new(
        spec,
        scale,
        seed,
        (label, n, start_edges),
        &tally.latencies,
        &tally.stats,
        Some(&update_latency),
    );
    report.final_state_hash = Some(graph_state_hash(n, store.edges_iter()));
    report
}

/// The 1-writer / N-reader concurrent serving benchmark.
///
/// The writer owns the [`GraphStore`], applies the seeded update stream
/// and publishes a snapshot after every update. Readers share only a
/// mutex-guarded slot holding the latest snapshot: each query clones it
/// (one `Arc` bump), then runs on an owned session — the writer is never
/// blocked by a query, and a query never waits for a writer.
///
/// Consistency recording: every reader keeps the versions it observed
/// and panics if they ever go backwards (snapshot publication must be
/// monotonic); the run reports how many distinct versions were served.
fn run_store_concurrent(
    spec: &ScenarioSpec,
    scale: Scale,
    seed: u64,
    engine: &ProbeSim,
) -> ScenarioReport {
    let pacing = Pacing::of(spec);
    let (graph, updates, label) = sliding_window(spec, scale, seed, pacing.updates);
    // Aggressive compaction so the run also exercises folds while
    // readers are live (the default policy would rarely trigger at CI
    // scale).
    let mut store = GraphStore::from_view(&graph).with_policy(CompactionPolicy {
        max_touched_fraction: 0.02,
        min_touched_lists: 32,
    });
    drop(graph);
    let (n, start_edges) = (store.num_nodes(), store.num_edges());
    let query_nodes = sample_query_nodes(&store, pacing.queries, seed);

    let slot = Mutex::new(store.snapshot());
    let (update_latency, tally) = drive(
        &pacing,
        &updates,
        |update, latencies| {
            // The writer's role cost is apply + publish: the O(touched)
            // freeze and the slot swap are what a serving writer pays
            // per update, so they belong in the sample.
            latencies.time(|| {
                store.apply(update);
                *slot.lock().expect("snapshot slot poisoned") = store.snapshot();
            });
        },
        |i, tally| {
            let snapshot = slot.lock().expect("snapshot slot poisoned").clone();
            assert!(
                snapshot.version() >= tally.last_version(),
                "snapshot versions went backwards: {} after {}",
                snapshot.version(),
                tally.last_version()
            );
            tally.versions.push(snapshot.version());
            let node = cycled(&query_nodes, i);
            tally.time_query(|| engine.session(snapshot).run(Query::SingleSource { node }));
        },
    );

    let label = format!("{label} x {} readers", pacing.clients);
    let mut report = ScenarioReport::new(
        spec,
        scale,
        seed,
        (label, n, start_edges),
        &tally.latencies,
        &tally.stats,
        Some(&update_latency),
    );
    report.final_state_hash = Some(graph_state_hash(n, store.edges_iter()));
    report.versions_observed = Some(tally.distinct_versions());
    report
}

/// Per-request deadline the interactive-mix scenario arms. Generous at
/// CI scale — the point is exercising the deadline plumbing end to end,
/// not measuring how often an overloaded runner trips it.
const SERVICE_MIX_DEADLINE: Duration = Duration::from_millis(500);

/// Alternating priorities, so both queue lanes serve under contention.
fn alternating_priority(i: usize) -> Priority {
    if i.is_multiple_of(2) {
        Priority::Interactive
    } else {
        Priority::Batch
    }
}

/// The full-facade serving benchmark: one writer thread streaming
/// updates through `QueryService::commit` while `clients` threads issue
/// deadline-armed, mixed-priority blocking `call`s.
///
/// Latencies are **client-observed** (queue wait + execution — what a
/// user of the facade actually experiences); update latency is the
/// writer's apply + publish + cache-invalidation cost. Work and cache
/// hits are scheduling-dependent (which version a call answers at
/// depends on the race), so the comparator gates latency and the final
/// workload fingerprint only.
fn run_service_interactive_mix(
    spec: &ScenarioSpec,
    scale: Scale,
    seed: u64,
    engine: &ProbeSim,
) -> ScenarioReport {
    let pacing = Pacing::of(spec);
    let (graph, updates, label) = sliding_window(spec, scale, seed, pacing.updates);
    // Half as many distinct nodes as queries: clients revisit the set,
    // so the cache is exercised *under churn* (hits only happen when no
    // effective update landed in between — scheduling-dependent, which
    // is why this scenario never reports a hit rate).
    let query_nodes = sample_query_nodes(&graph, pacing.queries.div_ceil(2), seed);
    let service = ServiceBuilder::new(engine.config().clone())
        .workers(pacing.clients)
        .cache_capacity(256)
        .retained_versions(8)
        .default_deadline(SERVICE_MIX_DEADLINE)
        .build(GraphStore::from_view(&graph));
    let n = graph.num_nodes();
    drop(graph);
    let start_edges = service.snapshot().num_edges();

    let (update_latency, tally) = drive(
        &pacing,
        &updates,
        |update, latencies| {
            // The writer's cost per event: store mutation + cache
            // invalidation + snapshot publication + retention-ring
            // maintenance.
            latencies.time(|| service.commit(update));
        },
        |i, tally| {
            let request = Request::new(Query::SingleSource {
                node: cycled(&query_nodes, i),
            })
            .with_priority(alternating_priority(i))
            .with_consistency(Consistency::Latest);
            match tally.latencies.time(|| service.call(request)) {
                Ok(response) => tally.served(&response),
                Err(ServiceError::Query(QueryError::DeadlineExceeded { partial })) => {
                    tally.deadline_misses += 1;
                    tally.stats.merge(&partial);
                }
                Err(other) => panic!("unexpected service error: {other}"),
            }
        },
    );

    let label = format!("{label} x {} clients", pacing.clients);
    let mut report = ScenarioReport::new(
        spec,
        scale,
        seed,
        (label, n, start_edges),
        &tally.latencies,
        &tally.stats,
        Some(&update_latency),
    );
    report.final_state_hash = Some(graph_state_hash(n, service.snapshot().edges_iter()));
    report.versions_observed = Some(tally.distinct_versions());
    // The hit rate is scheduling-dependent here and stays unreported,
    // so the tight CI gate on it stays armed only where it is
    // deterministic.
    report.cache_hits = Some(tally.hits);
    report.deadline_exceeded = Some(tally.deadline_misses);
    report
}

/// The replicated-fleet benchmark: the whole fifth tier behind one
/// handle. One writer commits the seeded update stream through
/// [`Fleet::commit`] — a durable-log append that the log-tailing
/// replicas replay — while clients rotate through the three consistency
/// levels against the router: `Latest` (primary), read-your-writes
/// `AtLeastVersion` chained from the writer's freshest commit token
/// (spelled in the shared wire form and parsed back, the same `FromStr`
/// the CLI uses), and `Pinned` at the client's last observed version.
/// Latencies are client-observed (routing + queue + exec); work is
/// scheduling-dependent, so the gate runs on latency, the final-state
/// fingerprint, and an in-run check that every replica's final edge set
/// hashes identically to the primary's.
///
/// The [`ScenarioKind::FleetChaos`] variant runs the same mix under a
/// seeded [`FaultPlan`]: replicas crash, stall, apply slowly and detect
/// corrupt log reads mid-run while a fast-ticking supervisor checkpoints
/// the primary and respawns the dead. The end-state agreement assert is
/// unchanged — recovery must reproduce the exact history — and the
/// report carries the recovery/restart/failover counters as
/// informational fields.
fn run_fleet_replicated(
    spec: &ScenarioSpec,
    scale: Scale,
    seed: u64,
    engine: &ProbeSim,
) -> ScenarioReport {
    let (replicas, chaos) = match spec.kind {
        ScenarioKind::FleetReplicated { replicas, .. } => (replicas, false),
        ScenarioKind::FleetChaos { replicas, .. } => (replicas, true),
        _ => unreachable!("run_scenario sends only the fleet kinds here"),
    };
    let pacing = Pacing::of(spec);
    let (graph, updates, label) = sliding_window(spec, scale, seed, pacing.updates);
    let query_nodes = sample_query_nodes(&graph, pacing.queries.div_ceil(2), seed);
    let mut builder = Fleet::builder(engine.config().clone())
        .replicas(replicas)
        .workers(2)
        .cache_capacity(256)
        // Generous ring: every version of the run stays pinnable on
        // every endpoint (the update count never exceeds it at any
        // scale).
        .retained_versions(64)
        .default_deadline(SERVICE_MIX_DEADLINE);
    if chaos {
        // A seeded fault plan over the whole commit horizon, plus a
        // fast supervisor: recovery latency is part of the measurement,
        // not an afterthought. Two faults are pinned on top of the
        // seeded draws — a mid-stream crash and a corrupt read — so
        // every seed exercises both recovery paths (checkpointed
        // respawn and salvage-then-respawn), not just the lucky ones.
        // The restart budget stays above the worst case (one crash +
        // one corrupt read per slot), so no replica retires and the
        // end-state agreement loop below keeps its full-fleet meaning.
        let horizon = pacing.updates as u64;
        let mid = (horizon / 2).max(1);
        builder = builder
            .faults(
                FaultPlan::seeded(seed ^ 0xC4A0_5EED, replicas, horizon)
                    .with_crash_after(0, mid)
                    .with_corrupt_read(1 % replicas, mid),
            )
            .supervision_tick(Duration::from_millis(1))
            .checkpoint_every(4)
            .restart_budget(4);
    }
    let fleet = builder.build(graph.snapshot());
    let n = graph.num_nodes();
    drop(graph);
    let start_edges = fleet.primary().snapshot().num_edges();

    // The writer's freshest commit token, published so clients can
    // chain read-your-writes requests from it.
    let watermark = AtomicU64::new(0);
    let (update_latency, tally) = drive(
        &pacing,
        &updates,
        |update, latencies| {
            // The writer's cost per event: primary mutation + snapshot
            // publication + the durable-log append the replicas tail.
            let commit = latencies.time(|| fleet.commit(update));
            watermark.store(commit.version, Ordering::Release);
        },
        |i, tally| {
            // Rotate through the consistency levels so the router
            // exercises all three resolution paths under one run.
            let consistency = match i % 3 {
                0 => Consistency::Latest,
                // Read the writer's write: spell the request in the
                // shared wire form and parse it back — the same round
                // trip a remote client would perform.
                1 => format!("at-least:{}", watermark.load(Ordering::Acquire))
                    .parse::<Consistency>()
                    .expect("invariant: the consistency wire form round-trips"),
                _ => Consistency::Pinned(tally.last_version()),
            };
            let request = Request::new(Query::SingleSource {
                node: cycled(&query_nodes, i),
            })
            .with_priority(alternating_priority(i))
            .with_consistency(consistency);
            match tally.latencies.time(|| fleet.call(request)) {
                Ok(response) => tally.served(&response),
                Err(FleetError::Service(ServiceError::Query(QueryError::DeadlineExceeded {
                    partial,
                }))) => {
                    tally.deadline_misses += 1;
                    tally.stats.merge(&partial);
                }
                // The catch-up budget ran out before any replica reached
                // the floor: the same deadline-pressure signal, shed with
                // a typed error instead of partial work.
                Err(FleetError::LaggingReplicas { .. }) => tally.deadline_misses += 1,
                // Under chaos an endpoint can die or regress while the
                // request is in flight and exhaust the deadline before
                // the router's failover finds a survivor — a transient
                // miss, not a protocol violation.
                Err(FleetError::Service(
                    ServiceError::ShuttingDown | ServiceError::VersionNotReached { .. },
                )) if chaos => tally.deadline_misses += 1,
                Err(other) => {
                    unreachable!("unexpected fleet error under an uncontended run: {other}")
                }
            }
        },
    );

    // The agreement check: once replication drains, every replica's
    // edge set must hash identically to the primary's — the log really
    // did fan the same history out to the whole fleet.
    let final_version = fleet.version();
    assert!(
        fleet.wait_for_replication(final_version, Duration::from_secs(30)),
        "replicas catch up to version {final_version} once the writer stops"
    );
    let final_hash = graph_state_hash(n, fleet.primary().snapshot().edges_iter());
    for replica in fleet.replicas() {
        let replica_hash = graph_state_hash(n, replica.service().snapshot().edges_iter());
        assert!(
            replica_hash == final_hash,
            "replica {} final state diverged from the primary",
            replica.slot()
        );
    }

    let faults = if chaos { " + seeded chaos" } else { "" };
    let label = format!(
        "{label} x {replicas} replicas x {} clients{faults}",
        pacing.clients
    );
    let mut report = ScenarioReport::new(
        spec,
        scale,
        seed,
        (label, n, start_edges),
        &tally.latencies,
        &tally.stats,
        Some(&update_latency),
    );
    report.final_state_hash = Some(final_hash);
    report.versions_observed = Some(tally.distinct_versions());
    // Scheduling-dependent hit pattern: counted, never reported as a rate.
    report.cache_hits = Some(tally.hits);
    report.deadline_exceeded = Some(tally.deadline_misses);
    if chaos {
        // Recovery accounting: how many respawns the run absorbed (split
        // by starting point) and how many dispatched requests the router
        // had to move off a dying or regressed endpoint.
        let stats = fleet.supervisor_stats();
        report.recoveries = Some(stats.checkpoint_recoveries + stats.genesis_recoveries);
        report.restarts = Some(fleet.registry().total_restarts());
        report.failovers = Some(fleet.failovers());
    }
    report
}

/// The result-cache benchmark: a Zipf-repeated query stream issued
/// sequentially, so the hit pattern — and therefore `cache_hit_rate`
/// and `total_work` — is a pure function of the seed. Cache hits add
/// **zero** work to the counters (only fresh executions are merged),
/// which is the measurable "cached path bypasses probe work entirely"
/// guarantee the comparator gates.
fn run_service_cache_repeat(
    spec: &ScenarioSpec,
    scale: Scale,
    seed: u64,
    engine: &ProbeSim,
) -> ScenarioReport {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    let ScenarioKind::ServiceCacheRepeat { distinct } = spec.kind else {
        unreachable!("run_scenario sends only ServiceCacheRepeat here");
    };
    let GraphSource::Dataset(dataset) = spec.graph else {
        panic!(
            "scenario {}: cache repeat requires a Dataset graph source",
            spec.name
        );
    };
    let graph = dataset.generate(scale);
    let nodes = sample_query_nodes(&graph, distinct.max(1), seed);
    let service = ServiceBuilder::new(engine.config().clone())
        .workers(1)
        // No eviction pressure: every distinct query stays resident, so
        // the hit pattern is exactly "seen before", independent of LRU
        // order — deterministic by construction.
        .cache_capacity(nodes.len().max(16) * 4)
        .build(GraphStore::from_view(&graph));
    let (num_nodes, num_edges) = (graph.num_nodes(), graph.num_edges());
    drop(graph);

    // Zipf-ish repetition, deterministic in the seed (shared sampler —
    // the serve-bench CLI uses the same skew).
    let zipf = probesim_eval::ZipfRanks::new(nodes.len());
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5EED_CAFE);
    let mut tally = Tally::default();
    for _ in 0..spec.queries {
        let rank = zipf.rank(rng.gen::<f64>());
        let response = tally
            .latencies
            .time(|| service.call(Request::new(Query::SingleSource { node: nodes[rank] })))
            .expect("invariant: sampled query nodes are valid");
        tally.served(&response);
    }

    let mut report = ScenarioReport::new(
        spec,
        scale,
        seed,
        (dataset.name().to_string(), num_nodes, num_edges),
        &tally.latencies,
        &tally.stats,
        None,
    );
    report.cache_hits = Some(tally.hits);
    report.cache_hit_rate = Some(tally.hits as f64 / spec.queries.max(1) as f64);
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latencies_order_statistics() {
        let mut lat = Latencies::new();
        for x in [5.0, 1.0, 4.0, 2.0, 3.0] {
            lat.push(x);
        }
        assert_eq!(lat.count(), 5);
        assert_eq!(lat.median(), 3.0);
        assert_eq!(lat.quantile(0.0), 1.0);
        assert_eq!(lat.quantile(1.0), 5.0);
        assert_eq!(lat.p95(), 5.0);
        assert_eq!(lat.min(), 1.0);
        assert_eq!(lat.max(), 5.0);
        assert!((lat.mean() - 3.0).abs() < 1e-12);
        let empty = Latencies::new();
        assert_eq!(empty.median(), 0.0);
        assert_eq!(empty.min(), 0.0);
        assert_eq!(empty.mean(), 0.0);
    }

    #[test]
    fn time_per_item_preserves_outputs_and_counts() {
        let (outputs, lat) = time_per_item([1, 2, 3], |x| x * 10);
        assert_eq!(outputs, vec![10, 20, 30]);
        assert_eq!(lat.count(), 3);
        assert!(lat.samples().iter().all(|&s| s >= 0.0));
    }

    #[test]
    fn catalog_meets_the_contract() {
        let specs = catalog();
        assert!(specs.len() >= 8, "catalog has {} scenarios", specs.len());
        let dynamic = specs.iter().filter(|s| s.is_dynamic()).count();
        assert!(dynamic >= 2, "only {dynamic} dynamic scenarios");
        // Names are unique and filesystem-safe (they become file names).
        let mut names: Vec<&str> = specs.iter().map(|s| s.name).collect();
        names.sort_unstable();
        let len = names.len();
        names.dedup();
        assert_eq!(names.len(), len, "duplicate scenario names");
        for spec in &specs {
            assert!(spec
                .name
                .chars()
                .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_'));
            assert!(!spec.description.is_empty());
            assert_eq!(find(spec.name), Some(*spec));
        }
        assert_eq!(find("no_such_scenario"), None);
    }

    #[test]
    fn static_scenario_runs_and_counts_queries() {
        let spec = find("static_top_k").unwrap();
        let report = run_scenario(&spec, Scale::Ci, 7);
        assert_eq!(report.query_latency.count, spec.queries);
        assert!(report.stat("walks") > 0);
        assert!(report.update_latency.is_none());
        assert!(report.nodes > 0 && report.edges > 0);
    }

    #[test]
    fn dynamic_scenario_interleaves_updates_and_queries() {
        let spec = find("dynamic_update_heavy").unwrap();
        let report = run_scenario(&spec, Scale::Ci, 7);
        assert_eq!(report.query_latency.count, spec.queries);
        let updates = report.update_latency.unwrap().count;
        assert_eq!(updates, spec.queries * 10, "10 updates per query");
        assert!(report.stat("walks") > 0);
    }

    #[test]
    fn cache_revisit_static_hits_across_kinds_and_beats_the_fused_budget() {
        let spec = find("cache_revisit_static").unwrap();
        assert_eq!(spec.kind_name(), "service");
        assert!(!spec.is_dynamic());
        let report = run_scenario(&spec, Scale::Ci, 2017);
        assert_eq!(report.queries, spec.queries);
        // One execution per distinct source; every revisit hits, whatever
        // the query kind.
        assert_eq!(report.cache_hits, Some(9));
        assert_eq!(report.cache_hit_rate, Some(0.75));
        assert!(report.update_latency.is_none());
        // The acceptance floor the CI contrast gate enforces: on the
        // same 12-query budget, same graph, same seed, the cached stream
        // must spend at least 30% less deterministic work than the
        // uncached fused engine.
        let fused = run_scenario(&find("probe_static_fused").unwrap(), Scale::Ci, 2017);
        let cached_work = report.total_work as f64;
        let fused_work = fused.total_work as f64;
        let reduction = 100.0 * (fused_work - cached_work) / fused_work;
        assert!(
            reduction >= 30.0,
            "the cache saved only {reduction:.1}% ({fused_work} -> {cached_work})"
        );
    }

    #[test]
    fn cache_revisit_churn_executes_each_source_once_per_version() {
        let spec = find("cache_revisit_churn").unwrap();
        assert!(spec.is_dynamic());
        assert!(spec.work_deterministic());
        let a = run_scenario(&spec, Scale::Ci, 2017);
        let b = run_scenario(&spec, Scale::Ci, 2017);
        assert_eq!(a.query_stats, b.query_stats);
        assert_eq!(a.final_state_hash, b.final_state_hash);
        assert!(a.final_state_hash.is_some());
        assert_eq!(a.queries, spec.queries);
        assert_eq!(a.update_latency.unwrap().count, 3);
        // 3 sources × 3 versions execute; the other 15 visits hit.
        assert_eq!(a.cache_hits, Some(15));
    }

    #[test]
    fn work_counters_are_seed_deterministic() {
        let spec = find("dynamic_churn_balanced").unwrap();
        let a = run_scenario(&spec, Scale::Ci, 42);
        let b = run_scenario(&spec, Scale::Ci, 42);
        assert_eq!(a.query_stats, b.query_stats);
        assert_eq!(a.total_work, b.total_work);
        let c = run_scenario(&spec, Scale::Ci, 43);
        assert_ne!(
            a.total_work, c.total_work,
            "different seed should vary the workload"
        );
    }

    #[test]
    fn contrast_pairs_flip_only_the_fuse_bit() {
        for base in ["probe_static", "probe_dynamic"] {
            let fused = find(&format!("{base}_fused")).unwrap();
            let legacy = find(&format!("{base}_legacy")).unwrap();
            assert!(fused.fuse_probes, "{base}_fused");
            assert!(!legacy.fuse_probes, "{base}_legacy");
            assert_eq!(fused.graph, legacy.graph, "{base}");
            assert_eq!(fused.kind, legacy.kind, "{base}");
            assert_eq!(fused.epsilon, legacy.epsilon, "{base}");
            assert_eq!(fused.queries, legacy.queries, "{base}");
        }
    }

    #[test]
    fn fused_engine_cuts_probe_work_by_a_quarter_at_ci_scale() {
        // The PR's headline acceptance criterion, asserted on the
        // committed seed: the work counters are deterministic, so this
        // either holds for everyone or for no one.
        let fused = run_scenario(&find("probe_static_fused").unwrap(), Scale::Ci, 2017);
        let legacy = run_scenario(&find("probe_static_legacy").unwrap(), Scale::Ci, 2017);
        assert_eq!(
            fused.stat("walks"),
            legacy.stat("walks"),
            "identical seed => identical walks"
        );
        let fused_work = fused.total_work as f64;
        let legacy_work = legacy.total_work as f64;
        let reduction = 100.0 * (legacy_work - fused_work) / legacy_work;
        assert!(
            reduction >= 25.0,
            "fused total_work reduction {reduction:.1}% < 25% \
             (fused {fused_work}, legacy {legacy_work})"
        );
        let fused_edges = fused.stat("edges_expanded") as f64;
        let legacy_edges = legacy.stat("edges_expanded") as f64;
        let edge_reduction = 100.0 * (legacy_edges - fused_edges) / legacy_edges;
        assert!(
            edge_reduction >= 25.0,
            "fused edges_expanded reduction {edge_reduction:.1}% < 25%"
        );
        assert!(fused.stat("frontier_merges") > 0);
        assert_eq!(legacy.stat("frontier_merges"), 0);
    }

    #[test]
    fn dynamic_final_state_hash_is_a_workload_witness() {
        let spec = find("dynamic_churn_balanced").unwrap();
        let a = run_scenario(&spec, Scale::Ci, 11);
        let b = run_scenario(&spec, Scale::Ci, 11);
        assert!(a.final_state_hash.is_some());
        assert_eq!(a.final_state_hash, b.final_state_hash);
        let c = run_scenario(&spec, Scale::Ci, 12);
        assert_ne!(a.final_state_hash, c.final_state_hash);
        let s = run_scenario(&find("static_single_source").unwrap(), Scale::Ci, 11);
        assert!(s.final_state_hash.is_none());
    }

    #[test]
    fn store_concurrent_scenario_runs_with_per_role_latencies() {
        let spec = find("store_concurrent_balanced").unwrap();
        assert!(spec.is_dynamic());
        assert_eq!(spec.kind_name(), "concurrent");
        assert!(!spec.work_deterministic());
        let report = run_scenario(&spec, Scale::Ci, 7);
        // Per-role latencies: one query sample per reader query, one
        // update sample per writer update.
        assert_eq!(report.query_latency.count, spec.queries);
        assert_eq!(report.queries, spec.queries);
        let updates = report.update_latency.unwrap().count;
        assert_eq!(
            updates, spec.queries,
            "1:1 ratio applies one update per query"
        );
        assert!(report.stat("walks") > 0);
        assert!(!report.work_deterministic);
        // Readers observed at least one published version; the writer
        // published one snapshot per update, so at most updates + 1.
        let versions = report.versions_observed.unwrap();
        assert!(
            (1..=updates as u64 + 1).contains(&versions),
            "versions_observed = {versions}"
        );
        // The final graph state is scheduling-independent: the writer
        // applies the whole seeded stream no matter how readers race it.
        let again = run_scenario(&spec, Scale::Ci, 7);
        assert_eq!(report.final_state_hash, again.final_state_hash);
    }

    #[test]
    fn store_concurrent_ratios_shape_the_update_stream() {
        let spec = find("store_concurrent_read_heavy").unwrap();
        let ScenarioKind::StoreConcurrent {
            readers,
            updates_per_round,
            queries_per_round,
        } = spec.kind
        else {
            panic!("wrong kind");
        };
        assert_eq!((readers, updates_per_round, queries_per_round), (4, 1, 8));
        let report = run_scenario(&spec, Scale::Ci, 11);
        let updates = report.update_latency.unwrap().count;
        assert_eq!(updates, spec.queries.div_ceil(8), "1:8 update:query ratio");
        assert_eq!(report.queries, spec.queries);
    }

    #[test]
    fn service_cache_repeat_is_deterministic_and_hits_bypass_work() {
        let spec = find("service_cache_repeat").unwrap();
        assert_eq!(spec.kind_name(), "service");
        assert!(spec.work_deterministic());
        assert!(!spec.is_dynamic());
        let a = run_scenario(&spec, Scale::Ci, 2017);
        let b = run_scenario(&spec, Scale::Ci, 2017);
        // The tight-gate contract: hit rate and work are pure functions
        // of the seed.
        assert_eq!(a.cache_hit_rate, b.cache_hit_rate);
        assert_eq!(a.cache_hits, b.cache_hits);
        assert_eq!(a.query_stats, b.query_stats);
        let hits = a.cache_hits.unwrap();
        assert!(hits > 0, "a Zipf-repeated stream must hit the cache");
        assert_eq!(a.queries, spec.queries);
        // Zero work delta for the cached path: the run's total work
        // equals executing each *distinct served* query exactly once —
        // misses — so it is strictly below a cache-less run of the same
        // stream, and repeats contribute nothing.
        let misses = spec.queries as u64 - hits;
        assert!(misses >= 1);
        assert!(a.stat("walks") > 0);
        // walks scale linearly with fresh executions: walks == nr *
        // misses for a fixed nr (every query is single-source on the
        // same graph/config).
        assert_eq!(
            a.stat("walks") % misses as usize,
            0,
            "walks {} not a multiple of misses {misses}",
            a.stat("walks")
        );
        let c = run_scenario(&spec, Scale::Ci, 99);
        assert_ne!(
            a.total_work, c.total_work,
            "different seed should vary the workload"
        );
    }

    #[test]
    fn service_interactive_mix_reports_per_role_latencies_and_fingerprint() {
        let spec = find("service_interactive_mix").unwrap();
        assert_eq!(spec.kind_name(), "service");
        assert!(spec.is_dynamic());
        assert!(!spec.work_deterministic());
        let report = run_scenario(&spec, Scale::Ci, 7);
        assert_eq!(report.queries, spec.queries);
        assert_eq!(report.query_latency.count, spec.queries);
        let updates = report.update_latency.unwrap().count;
        assert_eq!(
            updates,
            spec.queries / 4,
            "1:4 update:query ratio applies one update per four queries"
        );
        // Deadlines are generous at CI scale; queries that did execute
        // contributed work, and every call was answered one way or the
        // other.
        let served =
            report.cache_hits.unwrap() as usize + report.deadline_exceeded.unwrap() as usize;
        assert!(served <= spec.queries);
        assert!(report.stat("walks") > 0 || report.cache_hits.unwrap() > 0);
        // Hit rate is scheduling-dependent here and must NOT be reported
        // (it would arm the tight gate on a nondeterministic signal).
        assert_eq!(report.cache_hit_rate, None);
        assert!(report.versions_observed.unwrap() >= 1);
        // The writer applies the whole seeded stream regardless of the
        // race, so the final graph state is deterministic.
        let again = run_scenario(&spec, Scale::Ci, 7);
        assert_eq!(report.final_state_hash, again.final_state_hash);
        assert!(report.final_state_hash.is_some());
    }

    #[test]
    fn fleet_replicated_serves_the_mix_and_replicas_agree() {
        let spec = find("fleet_replicated_serving").unwrap();
        assert_eq!(spec.kind_name(), "fleet");
        assert!(spec.is_dynamic());
        assert!(!spec.work_deterministic());
        let report = run_scenario(&spec, Scale::Ci, 7);
        assert_eq!(report.queries, spec.queries);
        assert_eq!(report.query_latency.count, spec.queries);
        let updates = report.update_latency.unwrap().count;
        assert_eq!(
            updates,
            spec.queries / 4,
            "1:4 update:query ratio commits one update per four queries"
        );
        assert!(report.stat("walks") > 0 || report.cache_hits.unwrap() > 0);
        // Scheduling-dependent hit pattern: never reported as a rate.
        assert_eq!(report.cache_hit_rate, None);
        assert!(report.versions_observed.unwrap() >= 1);
        // The writer commits the whole seeded stream through the log
        // regardless of the race, so the final fingerprint — already
        // checked replica-by-replica inside the run — is deterministic.
        let again = run_scenario(&spec, Scale::Ci, 7);
        assert_eq!(report.final_state_hash, again.final_state_hash);
        assert!(report.final_state_hash.is_some());
    }

    #[test]
    fn batch_scenarios_record_per_query_samples() {
        for name in ["batch_sequential", "batch_parallel"] {
            let spec = find(name).unwrap();
            let report = run_scenario(&spec, Scale::Ci, 3);
            assert_eq!(report.query_latency.count, 5, "{name}: 5 batch reps");
            // One sample per batch, but every query of every rep counts
            // as executed.
            assert_eq!(report.queries, 5 * spec.queries, "{name}");
            assert!(report.stat("walks") > 0, "{name}");
        }
    }

    #[test]
    fn queries_executed_matches_samples_outside_batch_mode() {
        let spec = find("static_single_source").unwrap();
        let report = run_scenario(&spec, Scale::Ci, 3);
        assert_eq!(report.queries, report.query_latency.count);
        let spec = find("dynamic_churn_balanced").unwrap();
        let report = run_scenario(&spec, Scale::Ci, 3);
        assert_eq!(report.queries, report.query_latency.count);
    }

    #[test]
    fn driver_propagates_a_client_panic_instead_of_hanging_the_writer() {
        // Every client dies on its first request, so the writer's second
        // update waits for progress that never comes: only the panic
        // guard releases it.
        let pacing = Pacing {
            clients: 2,
            queries: 8,
            updates: 8,
            updates_per_round: 1,
            queries_per_round: 1,
        };
        let updates = vec![GraphUpdate::Insert { u: 0, v: 1 }; pacing.updates];
        let (done, finished) = std::sync::mpsc::channel();
        let runner = std::thread::spawn(move || {
            let outcome = std::panic::catch_unwind(|| {
                drive(&pacing, &updates, |_, _| {}, |_, _| panic!("client fails"))
            });
            done.send(outcome.is_err()).ok();
        });
        let panicked = finished
            .recv_timeout(Duration::from_secs(60))
            .expect("the driver returns instead of hanging the writer's pacing loop");
        runner.join().unwrap();
        assert!(panicked, "the client's panic propagates out of the driver");
    }

    #[test]
    fn concurrent_runs_apply_every_update_exactly_once() {
        // The final state must equal a sequential replay of the same
        // stream on a plain store — a run that dropped or repeated an
        // update would agree with itself but not with this.
        for name in ["store_concurrent_balanced", "service_interactive_mix"] {
            let spec = find(name).unwrap();
            let report = run_scenario(&spec, Scale::Ci, 2017);
            let GraphSource::SlidingWindow { n, window } = spec.graph else {
                panic!("{name} runs on a sliding window");
            };
            let (clients, updates_per_round, queries_per_round) = match spec.kind {
                ScenarioKind::StoreConcurrent {
                    readers,
                    updates_per_round,
                    queries_per_round,
                } => (readers, updates_per_round, queries_per_round),
                ScenarioKind::ServiceInteractiveMix {
                    clients,
                    updates_per_round,
                    queries_per_round,
                } => (clients, updates_per_round, queries_per_round),
                _ => panic!("{name} is a concurrent scenario"),
            };
            let queries = spec.queries.max(clients);
            let events = (queries * updates_per_round).div_ceil(queries_per_round);
            let (n, window) = (scaled(Scale::Ci, n), scaled(Scale::Ci, window));
            let (graph, stream) = sliding_window_workload(n, window, events, 2017 ^ 0x5EED);
            let mut replay = GraphStore::from_view(&graph);
            for update in stream {
                replay.apply(update);
            }
            assert_eq!(report.updates, events, "{name}");
            assert_eq!(
                report.final_state_hash,
                Some(graph_state_hash(n, replay.edges_iter())),
                "{name}"
            );
        }
    }
}
