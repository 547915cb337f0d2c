//! Machine-readable benchmark reports and the regression comparator.
//!
//! The scenario engine ([`crate::scenario`]) measures; this module
//! serializes. Each scenario run becomes a [`ScenarioReport`] written to
//! `BENCH_<scenario>.json`, and a set of runs becomes a combined baseline
//! file (`bench/baseline.json` in the repo) that `probesim-bench
//! --compare` diffs against. The comparator is what the CI `perf-smoke`
//! job gates on.
//!
//! Serialization goes through the workspace's one JSON codec,
//! [`probesim_json::Json`], re-exported here as [`Json`].
//!
//! ## Report schema (`schema_version` 1)
//!
//! ```json
//! {
//!   "schema_version": 1,
//!   "scenario": "dynamic_churn_balanced",
//!   "description": "...",
//!   "kind": "dynamic",
//!   "seed": 2017,
//!   "scale": "ci",
//!   "graph": {"dataset": "...", "nodes": 123, "edges": 456},
//!   "config": {"epsilon": 0.1, "delta": 0.01, "decay": 0.6},
//!   "workload": {"queries": 32, "updates": 320, "work_deterministic": true},
//!   "query_latency_secs": {"count": 32, "median": ..., "p95": ..., "mean": ..., "min": ..., "max": ...},
//!   "update_latency_secs": {...},            // dynamic scenarios only
//!   "query_stats": {"walks": ..., ...},      // QueryStats::fields()
//!   "total_work": 123456
//! }
//! ```
//!
//! ## Regression verdicts
//!
//! Scenarios are joined by name. Three measured signals gate against
//! thresholds:
//!
//! * **median query latency** — gated with a *generous* threshold
//!   (default 1.0 = fail beyond 2× the baseline), because wall-clock
//!   medians move across runner generations;
//! * **median update latency** (dynamic scenarios) — same threshold,
//!   plus a 2 µs noise floor: sub-microsecond update medians sit at
//!   timer resolution, so only regressions into measurable territory
//!   fail the gate (a real `insert_edge` slowdown clears the floor by
//!   orders of magnitude);
//! * **total work** ([`probesim_core::QueryStats::total_work`]) — gated
//!   tightly (default 0.10), because the counter is deterministic given
//!   seed + scenario and only moves when the algorithm does more work.
//!   Skipped when either side reports `work_deterministic: false` (the
//!   concurrent store, service and fleet scenarios, whose per-query work
//!   depends on which version a racing client happens to see).
//!
//! Three identity checks fail the gate outright, with no threshold:
//!
//! * **workload fingerprint** — a `final_state_hash` that differs from
//!   the baseline's, or vanished from the current run
//!   ([`Verdict::FingerprintMismatch`]);
//! * **disarmed work gate** — the current run stopped claiming
//!   deterministic work against a baseline that gates on it
//!   ([`Verdict::WorkGateDisarmed`]);
//! * **cache hit rate** — below the baseline's, or vanished from the
//!   current run, on the scenarios where it is seed-deterministic
//!   ([`Verdict::CacheHitRate`]).

use std::fmt;

pub use probesim_json::Json;

use probesim_core::QueryStats;
use probesim_datasets::Scale;

use crate::scenario::{scale_name, Latencies, ScenarioSpec};

/// Version stamp written into every report; bump when the schema changes
/// shape incompatibly.
pub const SCHEMA_VERSION: u64 = 1;

/// One scenario run. Returned by [`crate::scenario::run_scenario`],
/// written with [`ScenarioReport::to_json`], and re-read (for
/// `--compare`) with [`ScenarioReport::from_json`].
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioReport {
    /// Scenario name (the comparator's join key).
    pub scenario: String,
    /// Human-readable description of the workload.
    pub description: String,
    /// "static", "dynamic", "concurrent", "service" or "fleet" (see
    /// `ScenarioSpec::kind_name`).
    pub kind: String,
    /// RNG seed the run used.
    pub seed: u64,
    /// Dataset scale name ("ci" / "laptop" / "paper").
    pub scale: String,
    /// Dataset or generator name.
    pub dataset: String,
    /// Node count of the benchmarked graph.
    pub nodes: usize,
    /// Edge count of the benchmarked graph (at scenario start for dynamic
    /// workloads).
    pub edges: usize,
    /// Deterministic hash of the final edge list (dynamic scenarios
    /// only): baseline and current runs with the same seed must agree,
    /// or they did not replay the same workload.
    pub final_state_hash: Option<u64>,
    /// Engine accuracy parameter εa.
    pub epsilon: f64,
    /// Queries executed.
    pub queries: usize,
    /// Updates applied (0 for static scenarios).
    pub updates: usize,
    /// Per-query wall-clock latencies.
    pub query_latency: LatencySummary,
    /// Per-update wall-clock latencies (dynamic scenarios only).
    pub update_latency: Option<LatencySummary>,
    /// Merged `QueryStats` counters as `(name, value)` pairs.
    pub query_stats: Vec<(&'static str, usize)>,
    /// [`probesim_core::QueryStats::total_work`] over the whole run — the
    /// deterministic regression signal.
    pub total_work: usize,
    /// Whether `total_work` is a pure function of `(scenario, scale,
    /// seed)`. False for concurrent store scenarios (which snapshot
    /// version a reader sees is timing-dependent), where the comparator
    /// gates latency and workload identity but not work.
    pub work_deterministic: bool,
    /// Distinct snapshot versions served to readers (concurrent store
    /// scenarios only).
    pub versions_observed: Option<u64>,
    /// Responses served from the result cache (service scenarios only;
    /// informational).
    pub cache_hits: Option<u64>,
    /// Cache hit rate over the stream. Present only when deterministic
    /// given the seed (the sequential cache-repeat and cache-revisit
    /// scenarios) — the comparator then gates it tightly: a current rate
    /// below the baseline fails.
    pub cache_hit_rate: Option<f64>,
    /// Requests aborted by their deadline (service scenarios only;
    /// informational — wall-clock dependent).
    pub deadline_exceeded: Option<u64>,
    /// Supervisor recoveries — checkpoint + genesis respawns (chaos
    /// fleet scenario only; informational).
    pub recoveries: Option<u64>,
    /// Replica respawns recorded by the registry (chaos fleet scenario
    /// only; informational).
    pub restarts: Option<u64>,
    /// Router failovers off a dying or regressed endpoint (chaos fleet
    /// scenario only; informational).
    pub failovers: Option<u64>,
}

/// The five-number latency summary serialized per scenario.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LatencySummary {
    /// Sample count.
    pub count: usize,
    /// Median seconds.
    pub median: f64,
    /// 95th-percentile seconds.
    pub p95: f64,
    /// Mean seconds.
    pub mean: f64,
    /// Fastest sample.
    pub min: f64,
    /// Slowest sample.
    pub max: f64,
}

impl LatencySummary {
    /// Summarizes a latency recording.
    pub fn from_latencies(lat: &Latencies) -> LatencySummary {
        LatencySummary {
            count: lat.count(),
            median: lat.quantile(0.5),
            p95: lat.quantile(0.95),
            mean: lat.mean(),
            min: lat.min(),
            max: lat.max(),
        }
    }

    fn to_json(self) -> Json {
        Json::obj(vec![
            ("count", Json::uint(self.count)),
            ("median", Json::Num(self.median)),
            ("p95", Json::Num(self.p95)),
            ("mean", Json::Num(self.mean)),
            ("min", Json::Num(self.min)),
            ("max", Json::Num(self.max)),
        ])
    }

    fn from_json(value: &Json) -> Result<LatencySummary, String> {
        let field = |name: &str| -> Result<f64, String> {
            value
                .get(name)
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("latency summary missing numeric field {name:?}"))
        };
        Ok(LatencySummary {
            count: field("count")? as usize,
            median: field("median")?,
            p95: field("p95")?,
            mean: field("mean")?,
            min: field("min")?,
            max: field("max")?,
        })
    }
}

impl ScenarioReport {
    /// A run's report with the shared fields filled in; `graph` is the
    /// starting graph as `(dataset label, nodes, edges)`, and one query
    /// counts per latency sample. The optional per-kind fields start as
    /// `None`; each runner sets the ones it reports.
    pub(crate) fn new(
        spec: &ScenarioSpec,
        scale: Scale,
        seed: u64,
        (dataset, nodes, edges): (String, usize, usize),
        query_latency: &Latencies,
        query_stats: &QueryStats,
        update_latency: Option<&Latencies>,
    ) -> ScenarioReport {
        ScenarioReport {
            scenario: spec.name.to_string(),
            description: spec.description.to_string(),
            kind: spec.kind_name().to_string(),
            seed,
            scale: scale_name(scale).to_string(),
            dataset,
            nodes,
            edges,
            final_state_hash: None,
            epsilon: spec.epsilon,
            queries: query_latency.count(),
            updates: update_latency.map_or(0, Latencies::count),
            query_latency: LatencySummary::from_latencies(query_latency),
            update_latency: update_latency.map(LatencySummary::from_latencies),
            query_stats: query_stats.fields().collect(),
            total_work: query_stats.total_work(),
            work_deterministic: spec.work_deterministic(),
            versions_observed: None,
            cache_hits: None,
            cache_hit_rate: None,
            deadline_exceeded: None,
            recoveries: None,
            restarts: None,
            failovers: None,
        }
    }

    /// Serializes in the fixed `schema_version` 1 shape.
    pub fn to_json(&self) -> Json {
        let mut fields = vec![
            ("schema_version", Json::UInt(SCHEMA_VERSION)),
            ("scenario", Json::Str(self.scenario.clone())),
            ("description", Json::Str(self.description.clone())),
            ("kind", Json::Str(self.kind.clone())),
            ("seed", Json::UInt(self.seed)),
            ("scale", Json::Str(self.scale.clone())),
            ("graph", {
                let mut graph = vec![
                    ("dataset", Json::Str(self.dataset.clone())),
                    ("nodes", Json::uint(self.nodes)),
                    ("edges", Json::uint(self.edges)),
                ];
                if let Some(hash) = self.final_state_hash {
                    graph.push(("final_state_hash", Json::UInt(hash)));
                }
                Json::obj(graph)
            }),
            (
                "config",
                Json::obj(vec![("epsilon", Json::Num(self.epsilon))]),
            ),
            ("workload", {
                let mut workload = vec![
                    ("queries", Json::uint(self.queries)),
                    ("updates", Json::uint(self.updates)),
                    ("work_deterministic", Json::Bool(self.work_deterministic)),
                ];
                if let Some(versions) = self.versions_observed {
                    workload.push(("versions_observed", Json::UInt(versions)));
                }
                if let Some(hits) = self.cache_hits {
                    workload.push(("cache_hits", Json::UInt(hits)));
                }
                if let Some(rate) = self.cache_hit_rate {
                    workload.push(("cache_hit_rate", Json::Num(rate)));
                }
                if let Some(missed) = self.deadline_exceeded {
                    workload.push(("deadline_exceeded", Json::UInt(missed)));
                }
                if let Some(recoveries) = self.recoveries {
                    workload.push(("recoveries", Json::UInt(recoveries)));
                }
                if let Some(restarts) = self.restarts {
                    workload.push(("restarts", Json::UInt(restarts)));
                }
                if let Some(failovers) = self.failovers {
                    workload.push(("failovers", Json::UInt(failovers)));
                }
                Json::obj(workload)
            }),
            ("query_latency_secs", self.query_latency.to_json()),
        ];
        if let Some(update) = self.update_latency {
            fields.push(("update_latency_secs", update.to_json()));
        }
        fields.push((
            "query_stats",
            Json::Obj(
                self.query_stats
                    .iter()
                    .map(|&(name, value)| (name.to_string(), Json::uint(value)))
                    .collect(),
            ),
        ));
        fields.push(("total_work", Json::uint(self.total_work)));
        Json::obj(fields)
    }

    /// Deserializes a report (used by `--compare` on baseline files).
    /// Unknown fields are ignored; `query_stats` keys are matched against
    /// the current [`probesim_core::QueryStats::FIELD_NAMES`], so old
    /// baselines survive counter additions.
    pub fn from_json(value: &Json) -> Result<ScenarioReport, String> {
        let version = value
            .get("schema_version")
            .and_then(Json::as_u64)
            .ok_or("report missing schema_version")?;
        if version != SCHEMA_VERSION {
            return Err(format!(
                "unsupported schema_version {version} (this binary reads {SCHEMA_VERSION})"
            ));
        }
        let str_field = |name: &str| -> Result<String, String> {
            value
                .get(name)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("report missing string field {name:?}"))
        };
        let num_field = |obj: &Json, name: &str| -> Result<f64, String> {
            obj.get(name)
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("report missing numeric field {name:?}"))
        };
        let graph = value.get("graph").ok_or("report missing graph object")?;
        let workload = value
            .get("workload")
            .ok_or("report missing workload object")?;
        let stats_obj = value
            .get("query_stats")
            .ok_or("report missing query_stats object")?;
        let query_stats: Vec<(&'static str, usize)> = QueryStats::FIELD_NAMES
            .into_iter()
            .map(|name| {
                let counter = stats_obj.get(name).and_then(Json::as_f64).unwrap_or(0.0);
                (name, counter as usize)
            })
            .collect();
        Ok(ScenarioReport {
            scenario: str_field("scenario")?,
            description: str_field("description")?,
            kind: str_field("kind")?,
            seed: value
                .get("seed")
                .and_then(Json::as_u64)
                .ok_or("report missing integer field \"seed\"")?,
            scale: str_field("scale")?,
            dataset: graph
                .get("dataset")
                .and_then(Json::as_str)
                .unwrap_or("?")
                .to_string(),
            nodes: num_field(graph, "nodes")? as usize,
            edges: num_field(graph, "edges")? as usize,
            final_state_hash: graph.get("final_state_hash").and_then(Json::as_u64),
            epsilon: value
                .get("config")
                .map(|c| num_field(c, "epsilon"))
                .transpose()?
                .unwrap_or(f64::NAN),
            queries: num_field(workload, "queries")? as usize,
            updates: num_field(workload, "updates")? as usize,
            query_latency: LatencySummary::from_json(
                value
                    .get("query_latency_secs")
                    .ok_or("report missing query_latency_secs")?,
            )?,
            update_latency: value
                .get("update_latency_secs")
                .map(LatencySummary::from_json)
                .transpose()?,
            query_stats,
            total_work: num_field(value, "total_work")? as usize,
            // Absent in pre-store baselines: those scenarios were all
            // deterministic-work.
            work_deterministic: workload
                .get("work_deterministic")
                .and_then(Json::as_bool)
                .unwrap_or(true),
            versions_observed: workload.get("versions_observed").and_then(Json::as_u64),
            cache_hits: workload.get("cache_hits").and_then(Json::as_u64),
            cache_hit_rate: workload.get("cache_hit_rate").and_then(Json::as_f64),
            deadline_exceeded: workload.get("deadline_exceeded").and_then(Json::as_u64),
            recoveries: workload.get("recoveries").and_then(Json::as_u64),
            restarts: workload.get("restarts").and_then(Json::as_u64),
            failovers: workload.get("failovers").and_then(Json::as_u64),
        })
    }

    /// The counter value for `name` (0 when absent).
    pub fn stat(&self, name: &str) -> usize {
        self.query_stats
            .iter()
            .find(|&&(n, _)| n == name)
            .map_or(0, |&(_, v)| v)
    }
}

/// Serializes a set of reports as a combined baseline document
/// (`{"schema_version": 1, "scenarios": [...]}`).
pub fn baseline_json(reports: &[ScenarioReport]) -> Json {
    Json::obj(vec![
        ("schema_version", Json::UInt(SCHEMA_VERSION)),
        (
            "scenarios",
            Json::Arr(reports.iter().map(ScenarioReport::to_json).collect()),
        ),
    ])
}

/// Parses a baseline document: either the combined form produced by
/// [`baseline_json`] / `--write-baseline`, or a single `BENCH_*.json`
/// report.
pub fn parse_baseline(text: &str) -> Result<Vec<ScenarioReport>, String> {
    let value = Json::parse(text).map_err(|e| format!("baseline is not valid JSON: {e}"))?;
    match value.get("scenarios") {
        Some(list) => list
            .as_arr()
            .ok_or("baseline \"scenarios\" is not an array")?
            .iter()
            .map(ScenarioReport::from_json)
            .collect(),
        None => Ok(vec![ScenarioReport::from_json(&value)?]),
    }
}

/// Comparator thresholds (fractional slowdowns that trigger a failure).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CompareThresholds {
    /// Allowed fractional increase of median query latency before the
    /// gate fails (1.0 = up to 2× the baseline passes).
    pub latency: f64,
    /// Allowed fractional increase of deterministic total work
    /// (0.10 = up to 10% more walk/probe work passes).
    pub work: f64,
}

/// Tightened work threshold applied to `*_fused` scenarios: the fused
/// engine's whole reason to exist is its work reduction, so its
/// scenarios may not give back more than 5% of it without failing the
/// gate (the global `work` threshold still applies everywhere else,
/// and whichever is smaller wins on fused scenarios).
pub const FUSED_WORK_THRESHOLD: f64 = 0.05;

impl Default for CompareThresholds {
    fn default() -> Self {
        CompareThresholds {
            latency: 1.0,
            work: 0.10,
        }
    }
}

/// One comparator finding.
#[derive(Debug, Clone, PartialEq)]
pub enum Verdict {
    /// Current ≤ baseline × (1 + threshold) on both signals.
    Pass {
        /// Scenario name.
        scenario: String,
    },
    /// A signal regressed beyond its threshold.
    Regression {
        /// Scenario name.
        scenario: String,
        /// Which signal regressed ("median query latency" or
        /// "total work").
        signal: &'static str,
        /// Baseline value.
        baseline: f64,
        /// Current value.
        current: f64,
        /// The fractional threshold that was exceeded.
        threshold: f64,
    },
    /// The deterministic workload fingerprint (`final_state_hash`)
    /// differs: baseline and current did not replay the same update
    /// stream, so their counters compare different workloads. Always
    /// fails the gate; the fix is regenerating the baseline.
    FingerprintMismatch {
        /// Scenario name.
        scenario: String,
        /// Baseline fingerprint.
        baseline: u64,
        /// Current fingerprint; `None` when the current run stopped
        /// emitting one (itself a regression of the identity check).
        current: Option<u64>,
    },
    /// The current run stopped claiming deterministic work against a
    /// baseline that gates on it: the tight `total_work` check would be
    /// silently disarmed, so — like a vanished fingerprint — this fails
    /// loudly. (The intended path for a genuinely newly-nondeterministic
    /// scenario is regenerating the baseline.)
    WorkGateDisarmed {
        /// Scenario name.
        scenario: String,
    },
    /// The result-cache hit rate fell below the committed baseline (or
    /// the current run stopped reporting it against a gating baseline).
    /// The rate is deterministic given the seed on the scenarios that
    /// report it, so any decrease is a real caching regression — gated
    /// exactly, no threshold.
    CacheHitRate {
        /// Scenario name.
        scenario: String,
        /// Baseline hit rate.
        baseline: f64,
        /// Current hit rate; `None` when the current run stopped
        /// emitting one (itself a regression of the cache gate).
        current: Option<f64>,
    },
    /// The scenario exists on only one side; informational, never fails
    /// the gate (new scenarios must be able to land before their baseline
    /// does).
    Missing {
        /// Scenario name.
        scenario: String,
        /// Which side lacks it ("baseline" or "current run").
        side: &'static str,
    },
}

impl Verdict {
    /// True for the gate-failing verdicts: [`Verdict::Regression`],
    /// [`Verdict::FingerprintMismatch`], [`Verdict::WorkGateDisarmed`]
    /// and [`Verdict::CacheHitRate`].
    pub fn is_regression(&self) -> bool {
        matches!(
            self,
            Verdict::Regression { .. }
                | Verdict::FingerprintMismatch { .. }
                | Verdict::WorkGateDisarmed { .. }
                | Verdict::CacheHitRate { .. }
        )
    }
}

impl fmt::Display for Verdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Verdict::Pass { scenario } => write!(f, "PASS       {scenario}"),
            Verdict::Regression {
                scenario,
                signal,
                baseline,
                current,
                threshold,
            } => write!(
                f,
                "REGRESSION {scenario}: {signal} {current:.6} vs baseline {baseline:.6} \
                 ({:+.1}% > allowed +{:.0}%)",
                100.0 * (current / baseline - 1.0),
                100.0 * threshold
            ),
            Verdict::FingerprintMismatch {
                scenario,
                baseline,
                current,
            } => match current {
                Some(current) => write!(
                    f,
                    "REGRESSION {scenario}: workload fingerprint {current:#018x} vs baseline \
                     {baseline:#018x} — not the same workload, regenerate the baseline"
                ),
                None => write!(
                    f,
                    "REGRESSION {scenario}: workload fingerprint missing from the current run \
                     (baseline has {baseline:#018x}) — the identity check stopped being emitted"
                ),
            },
            Verdict::WorkGateDisarmed { scenario } => write!(
                f,
                "REGRESSION {scenario}: current run no longer reports deterministic work \
                 against a baseline that gates on it — the total-work check would be \
                 silently disarmed; regenerate the baseline if this is intentional"
            ),
            Verdict::CacheHitRate {
                scenario,
                baseline,
                current,
            } => match current {
                Some(current) => write!(
                    f,
                    "REGRESSION {scenario}: cache hit rate {current:.4} below baseline \
                     {baseline:.4} — the rate is seed-deterministic, so this is a real \
                     caching regression"
                ),
                None => write!(
                    f,
                    "REGRESSION {scenario}: cache hit rate missing from the current run \
                     (baseline has {baseline:.4}) — the cache gate stopped being emitted"
                ),
            },
            Verdict::Missing { scenario, side } => {
                write!(f, "SKIP       {scenario}: not present in {side}")
            }
        }
    }
}

/// Compares a current run against a baseline, scenario by scenario.
///
/// The gate fails (the binary exits nonzero) when any verdict
/// [`Verdict::is_regression`]. Scenarios present on one side only are
/// reported as [`Verdict::Missing`] and do not fail the gate.
pub fn compare(
    baseline: &[ScenarioReport],
    current: &[ScenarioReport],
    thresholds: CompareThresholds,
) -> Vec<Verdict> {
    let mut verdicts = Vec::new();
    for cur in current {
        let Some(base) = baseline.iter().find(|b| b.scenario == cur.scenario) else {
            verdicts.push(Verdict::Missing {
                scenario: cur.scenario.clone(),
                side: "baseline",
            });
            continue;
        };
        let mut regressed = false;
        let lat_base = base.query_latency.median;
        let lat_cur = cur.query_latency.median;
        // A zero baseline median (timer resolution on a trivial scenario)
        // cannot be meaningfully ratioed; only the work signal gates then.
        if lat_base > 0.0 && lat_cur > lat_base * (1.0 + thresholds.latency) {
            regressed = true;
            verdicts.push(Verdict::Regression {
                scenario: cur.scenario.clone(),
                signal: "median query latency",
                baseline: lat_base,
                current: lat_cur,
                threshold: thresholds.latency,
            });
        }
        // Dynamic scenarios also gate the update path: a GraphStore
        // insert/remove slowdown leaves query latency and work counters
        // untouched, so without this signal it would sail through. The
        // noise floor keeps sub-microsecond medians (timer resolution)
        // from flapping the gate.
        const UPDATE_NOISE_FLOOR_SECS: f64 = 2e-6;
        if let (Some(base_up), Some(cur_up)) = (base.update_latency, cur.update_latency) {
            if base_up.median > 0.0
                && cur_up.median > UPDATE_NOISE_FLOOR_SECS
                && cur_up.median
                    > base_up.median.max(UPDATE_NOISE_FLOOR_SECS) * (1.0 + thresholds.latency)
            {
                regressed = true;
                verdicts.push(Verdict::Regression {
                    scenario: cur.scenario.clone(),
                    signal: "median update latency",
                    baseline: base_up.median,
                    current: cur_up.median,
                    threshold: thresholds.latency,
                });
            }
        }
        // Workload identity: the final-state hash is a pure function of
        // (scenario, scale, seed). A mismatch means the update stream or
        // graph generator changed — the work numbers are then comparing
        // different workloads, which must fail loudly, not drift quietly.
        // Asymmetric on purpose: a baseline *without* a hash predates the
        // field and passes, but a current run that stopped emitting one
        // against a hash-carrying baseline has lost the identity check —
        // exactly the quiet drift this gate exists to catch.
        if let Some(base_hash) = base.final_state_hash {
            if cur.final_state_hash != Some(base_hash) {
                regressed = true;
                verdicts.push(Verdict::FingerprintMismatch {
                    scenario: cur.scenario.clone(),
                    baseline: base_hash,
                    current: cur.final_state_hash,
                });
            }
        }
        let work_base = base.total_work as f64;
        let work_cur = cur.total_work as f64;
        // Fused scenarios gate their work budget tighter: the reduction
        // they were introduced for is not allowed to erode silently.
        let work_threshold = if cur.scenario.ends_with("_fused") {
            thresholds.work.min(FUSED_WORK_THRESHOLD)
        } else {
            thresholds.work
        };
        // Scheduling-dependent work (concurrent store scenarios) is not
        // a regression signal: a reader racing a writer legitimately
        // sees different snapshot versions run to run. Latency and the
        // workload fingerprint above still gate those scenarios.
        // Asymmetric like the fingerprint check: a current run that
        // *stops* claiming deterministic work against a gating baseline
        // has disarmed the tightest signal and must fail loudly, not
        // quietly widen its own budget.
        if base.work_deterministic && !cur.work_deterministic {
            regressed = true;
            verdicts.push(Verdict::WorkGateDisarmed {
                scenario: cur.scenario.clone(),
            });
        }
        let work_gated = base.work_deterministic && cur.work_deterministic;
        if work_gated && work_base > 0.0 && work_cur > work_base * (1.0 + work_threshold) {
            regressed = true;
            verdicts.push(Verdict::Regression {
                scenario: cur.scenario.clone(),
                signal: "total work",
                baseline: work_base,
                current: work_cur,
                threshold: work_threshold,
            });
        }
        // Cache hit rate: reported only where deterministic, so it is
        // gated exactly — any decrease (or the field vanishing against a
        // gating baseline, mirroring the fingerprint/work asymmetry) is
        // a real caching regression. A small epsilon absorbs f64
        // round-trip noise through the JSON writer, nothing more.
        if let Some(base_rate) = base.cache_hit_rate {
            let failing = match cur.cache_hit_rate {
                Some(cur_rate) => cur_rate + 1e-9 < base_rate,
                None => true,
            };
            if failing {
                regressed = true;
                verdicts.push(Verdict::CacheHitRate {
                    scenario: cur.scenario.clone(),
                    baseline: base_rate,
                    current: cur.cache_hit_rate,
                });
            }
        }
        if !regressed {
            verdicts.push(Verdict::Pass {
                scenario: cur.scenario.clone(),
            });
        }
    }
    for base in baseline {
        if !current.iter().any(|c| c.scenario == base.scenario) {
            verdicts.push(Verdict::Missing {
                scenario: base.scenario.clone(),
                side: "current run",
            });
        }
    }
    verdicts
}

/// One candidate-vs-yardstick scenario pairing: either a
/// `<base>_fused` / `<base>_legacy` suffix pair, or an explicit row
/// from [`EXPLICIT_CONTRASTS`]. The `fused_*` fields hold the candidate
/// (the fused engine, or a cached revisit stream), the `legacy_*`
/// fields the yardstick — the field names keep the original suffix-pair
/// vocabulary so the emitted contrast JSON schema stays stable.
#[derive(Debug, Clone, PartialEq)]
pub struct ContrastPair {
    /// Pair label: the shared scenario-name prefix for suffix pairs
    /// (e.g. `probe_static`), the candidate scenario name for explicit
    /// pairs (e.g. `cache_revisit_static`).
    pub base: String,
    /// `total_work` of the candidate run.
    pub fused_total_work: usize,
    /// `total_work` of the yardstick run.
    pub legacy_total_work: usize,
    /// `edges_expanded` of the candidate run.
    pub fused_edges_expanded: usize,
    /// `edges_expanded` of the yardstick run.
    pub legacy_edges_expanded: usize,
    /// Per-pair minimum work-reduction floor (percent). `None` leaves
    /// the gate at the CLI-wide `--contrast-min`; `Some(f)` raises it to
    /// at least `f` for this pair (whichever is larger wins).
    pub floor_pct: Option<f64>,
}

/// Explicit contrast pairings the suffix convention cannot express:
/// `(candidate scenario, yardstick scenario, per-pair minimum
/// work-reduction floor in percent)`. The static revisit stream through
/// the `(version, source)` cache must beat the uncached fused engine by
/// at least 30%, while the churn pair gates at the CLI-wide floor (every
/// commit forces one re-execution per source, which eats into the
/// savings under write pressure).
pub const EXPLICIT_CONTRASTS: [(&str, &str, Option<f64>); 2] = [
    ("cache_revisit_static", "probe_static_fused", Some(30.0)),
    ("cache_revisit_churn", "dynamic_churn_balanced", None),
];

impl ContrastPair {
    /// Percentage of deterministic total work the fused engine saved
    /// (positive = fused did less work).
    pub fn work_reduction_pct(&self) -> f64 {
        reduction_pct(self.legacy_total_work, self.fused_total_work)
    }

    /// Percentage of deterministic edge expansions the fused engine
    /// saved.
    pub fn edges_reduction_pct(&self) -> f64 {
        reduction_pct(self.legacy_edges_expanded, self.fused_edges_expanded)
    }
}

fn reduction_pct(legacy: usize, fused: usize) -> f64 {
    if legacy == 0 {
        return 0.0;
    }
    100.0 * (legacy as f64 - fused as f64) / legacy as f64
}

/// Pairs `<base>_fused` / `<base>_legacy` reports from one run, then
/// appends the explicit [`EXPLICIT_CONTRASTS`] rows whose scenarios
/// are both present. Reports without a counterpart are skipped (the
/// contrast gate then simply has nothing to say about them).
pub fn contrast_pairs(reports: &[ScenarioReport]) -> Vec<ContrastPair> {
    let mut pairs = Vec::new();
    for fused in reports {
        let Some(base) = fused.scenario.strip_suffix("_fused") else {
            continue;
        };
        let legacy_name = format!("{base}_legacy");
        let Some(legacy) = reports.iter().find(|r| r.scenario == legacy_name) else {
            continue;
        };
        pairs.push(ContrastPair {
            base: base.to_string(),
            fused_total_work: fused.total_work,
            legacy_total_work: legacy.total_work,
            fused_edges_expanded: fused.stat("edges_expanded"),
            legacy_edges_expanded: legacy.stat("edges_expanded"),
            floor_pct: None,
        });
    }
    for &(candidate_name, yardstick_name, floor_pct) in &EXPLICIT_CONTRASTS {
        let candidate = reports.iter().find(|r| r.scenario == candidate_name);
        let yardstick = reports.iter().find(|r| r.scenario == yardstick_name);
        let (Some(candidate), Some(yardstick)) = (candidate, yardstick) else {
            continue;
        };
        pairs.push(ContrastPair {
            base: candidate_name.to_string(),
            fused_total_work: candidate.total_work,
            legacy_total_work: yardstick.total_work,
            fused_edges_expanded: candidate.stat("edges_expanded"),
            legacy_edges_expanded: yardstick.stat("edges_expanded"),
            floor_pct,
        });
    }
    pairs
}

/// Serializes contrast pairs as the one-line JSON summary CI uploads:
/// `{"schema_version": 1, "contrast": [{"scenario": "probe_static",
/// "work_reduction_pct": …, …}, …]}`.
pub fn contrast_json(pairs: &[ContrastPair]) -> Json {
    Json::obj(vec![
        ("schema_version", Json::UInt(SCHEMA_VERSION)),
        (
            "contrast",
            Json::Arr(
                pairs
                    .iter()
                    .map(|p| {
                        let mut fields = vec![
                            ("scenario", Json::Str(p.base.clone())),
                            ("fused_total_work", Json::uint(p.fused_total_work)),
                            ("legacy_total_work", Json::uint(p.legacy_total_work)),
                            ("work_reduction_pct", Json::Num(p.work_reduction_pct())),
                            ("fused_edges_expanded", Json::uint(p.fused_edges_expanded)),
                            ("legacy_edges_expanded", Json::uint(p.legacy_edges_expanded)),
                            ("edges_reduction_pct", Json::Num(p.edges_reduction_pct())),
                        ];
                        if let Some(floor) = p.floor_pct {
                            fields.push(("floor_pct", Json::Num(floor)));
                        }
                        Json::obj(fields)
                    })
                    .collect(),
            ),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn summary(median: f64) -> LatencySummary {
        LatencySummary {
            count: 10,
            median,
            p95: median * 2.0,
            mean: median * 1.1,
            min: median * 0.5,
            max: median * 3.0,
        }
    }

    fn report(name: &str, median: f64, work: usize) -> ScenarioReport {
        ScenarioReport {
            scenario: name.to_string(),
            description: "test".to_string(),
            kind: "static".to_string(),
            seed: 1,
            scale: "ci".to_string(),
            dataset: "toy".to_string(),
            nodes: 8,
            edges: 12,
            final_state_hash: None,
            epsilon: 0.1,
            queries: 10,
            updates: 0,
            query_latency: summary(median),
            update_latency: None,
            query_stats: vec![("walks", 5), ("walk_nodes", work)],
            total_work: work,
            work_deterministic: true,
            versions_observed: None,
            cache_hits: None,
            cache_hit_rate: None,
            deadline_exceeded: None,
            recoveries: None,
            restarts: None,
            failovers: None,
        }
    }

    #[test]
    fn report_round_trips_through_json() {
        let mut original = report("static_top_k", 0.0015, 42_000);
        original.update_latency = Some(summary(0.0001));
        original.updates = 100;
        original.kind = "dynamic".to_string();
        // from_json normalizes stats onto the full FIELD_NAMES schema.
        original.query_stats = probesim_core::QueryStats::FIELD_NAMES
            .into_iter()
            .map(|n| (n, if n == "walks" { 5 } else { 0 }))
            .collect();
        let text = original.to_json().to_string();
        let parsed = ScenarioReport::from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(parsed, original);
    }

    #[test]
    fn baseline_round_trips_and_single_report_is_accepted() {
        let reports = vec![report("a", 0.001, 100), report("b", 0.002, 200)];
        let text = baseline_json(&reports).to_string();
        let parsed = parse_baseline(&text).unwrap();
        assert_eq!(parsed.len(), 2);
        assert_eq!(parsed[0].scenario, "a");
        // A bare BENCH_<scenario>.json also parses as a 1-element baseline.
        let single = parse_baseline(&reports[1].to_json().to_string()).unwrap();
        assert_eq!(single.len(), 1);
        assert_eq!(single[0].scenario, "b");
    }

    #[test]
    fn schema_version_mismatch_is_rejected() {
        let mut text = report("a", 0.001, 100).to_json().to_string();
        text = text.replace("\"schema_version\": 1", "\"schema_version\": 99");
        assert!(parse_baseline(&text)
            .unwrap_err()
            .contains("schema_version"));
    }

    #[test]
    fn compare_passes_within_thresholds() {
        let baseline = vec![report("a", 0.001, 1000)];
        let current = vec![report("a", 0.0015, 1050)];
        let verdicts = compare(&baseline, &current, CompareThresholds::default());
        assert!(verdicts.iter().all(|v| !v.is_regression()), "{verdicts:?}");
    }

    #[test]
    fn compare_flags_latency_regression() {
        let baseline = vec![report("a", 0.001, 1000)];
        let current = vec![report("a", 0.0021, 1000)];
        let verdicts = compare(&baseline, &current, CompareThresholds::default());
        assert!(
            verdicts.iter().any(|v| matches!(
                v,
                Verdict::Regression {
                    signal: "median query latency",
                    ..
                }
            )),
            "{verdicts:?}"
        );
    }

    #[test]
    fn compare_flags_work_regression_even_when_latency_passes() {
        let baseline = vec![report("a", 0.001, 1000)];
        let current = vec![report("a", 0.001, 1200)];
        let verdicts = compare(&baseline, &current, CompareThresholds::default());
        assert!(
            verdicts.iter().any(|v| matches!(
                v,
                Verdict::Regression {
                    signal: "total work",
                    ..
                }
            )),
            "{verdicts:?}"
        );
    }

    #[test]
    fn concurrent_report_fields_round_trip_and_default_for_old_baselines() {
        let mut original = report("store_concurrent_balanced", 0.002, 9000);
        original.kind = "concurrent".to_string();
        original.work_deterministic = false;
        original.versions_observed = Some(17);
        original.update_latency = Some(summary(0.0002));
        original.updates = 32;
        original.query_stats = probesim_core::QueryStats::FIELD_NAMES
            .into_iter()
            .map(|n| (n, 0))
            .collect();
        let text = original.to_json().to_string();
        assert!(text.contains("\"work_deterministic\": false"));
        assert!(text.contains("\"versions_observed\": 17"));
        let parsed = ScenarioReport::from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(parsed, original);
        // A pre-store baseline (no work_deterministic field) parses as
        // deterministic — the gate stays armed for every old scenario.
        let legacy = report("a", 0.001, 100).to_json().to_string();
        assert!(!legacy.contains("versions_observed"));
        let parsed = ScenarioReport::from_json(&Json::parse(&legacy).unwrap()).unwrap();
        assert!(parsed.work_deterministic);
        assert_eq!(parsed.versions_observed, None);
    }

    #[test]
    fn compare_skips_the_work_gate_when_work_is_scheduling_dependent() {
        let mut baseline = report("store_concurrent_balanced", 0.001, 1000);
        baseline.work_deterministic = false;
        let mut current = report("store_concurrent_balanced", 0.001, 1900);
        current.work_deterministic = false;
        // +90% work would fail a deterministic scenario outright…
        let verdicts = compare(
            &[baseline.clone()],
            &[current.clone()],
            CompareThresholds::default(),
        );
        assert!(verdicts.iter().all(|v| !v.is_regression()), "{verdicts:?}");
        // …and still does when both sides claim determinism.
        current.work_deterministic = true;
        baseline.work_deterministic = true;
        let verdicts = compare(
            &[baseline.clone()],
            &[current.clone()],
            CompareThresholds::default(),
        );
        assert!(verdicts.iter().any(|v| v.is_regression()), "{verdicts:?}");
        // Latency stays gated regardless of work determinism.
        current.work_deterministic = false;
        baseline.work_deterministic = false;
        current.total_work = 1000;
        current.query_latency = summary(0.01);
        let verdicts = compare(
            &[baseline.clone()],
            &[current.clone()],
            CompareThresholds::default(),
        );
        assert!(
            verdicts.iter().any(|v| matches!(
                v,
                Verdict::Regression {
                    signal: "median query latency",
                    ..
                }
            )),
            "{verdicts:?}"
        );
        // And dropping the deterministic-work claim against a gating
        // baseline is itself a loud failure, not a quiet skip.
        baseline.work_deterministic = true;
        current.work_deterministic = false;
        current.query_latency = baseline.query_latency;
        let verdicts = compare(&[baseline], &[current], CompareThresholds::default());
        assert!(
            verdicts
                .iter()
                .any(|v| matches!(v, Verdict::WorkGateDisarmed { .. }) && v.is_regression()),
            "{verdicts:?}"
        );
    }

    #[test]
    fn service_report_fields_round_trip_and_default_for_old_baselines() {
        let mut original = report("service_cache_repeat", 0.002, 9000);
        original.kind = "service".to_string();
        original.cache_hits = Some(30);
        original.cache_hit_rate = Some(0.75);
        original.deadline_exceeded = Some(2);
        original.recoveries = Some(3);
        original.restarts = Some(3);
        original.failovers = Some(1);
        original.query_stats = probesim_core::QueryStats::FIELD_NAMES
            .into_iter()
            .map(|n| (n, 0))
            .collect();
        let text = original.to_json().to_string();
        assert!(text.contains("\"cache_hits\": 30"));
        assert!(text.contains("\"cache_hit_rate\": 0.75"));
        assert!(text.contains("\"deadline_exceeded\": 2"));
        assert!(text.contains("\"recoveries\": 3"));
        assert!(text.contains("\"restarts\": 3"));
        assert!(text.contains("\"failovers\": 1"));
        let parsed = ScenarioReport::from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(parsed, original);
        // Old baselines without the fields parse as None — no gate armed.
        let legacy = report("a", 0.001, 100).to_json().to_string();
        assert!(!legacy.contains("cache_hit_rate"));
        assert!(!legacy.contains("recoveries"));
        let parsed = ScenarioReport::from_json(&Json::parse(&legacy).unwrap()).unwrap();
        assert_eq!(parsed.cache_hit_rate, None);
        assert_eq!(parsed.cache_hits, None);
        assert_eq!(parsed.deadline_exceeded, None);
        assert_eq!(parsed.recoveries, None);
        assert_eq!(parsed.restarts, None);
        assert_eq!(parsed.failovers, None);
    }

    #[test]
    fn cache_hit_rate_gate_is_exact_and_asymmetric() {
        let mut baseline = report("service_cache_repeat", 0.001, 1000);
        baseline.cache_hit_rate = Some(0.75);
        // Equal or better passes.
        for better in [0.75, 0.80, 1.0] {
            let mut current = baseline.clone();
            current.cache_hit_rate = Some(better);
            let verdicts = compare(
                &[baseline.clone()],
                &[current],
                CompareThresholds::default(),
            );
            assert!(verdicts.iter().all(|v| !v.is_regression()), "{better}");
        }
        // Any decrease fails exactly (no threshold).
        let mut worse = baseline.clone();
        worse.cache_hit_rate = Some(0.70);
        let verdicts = compare(&[baseline.clone()], &[worse], CompareThresholds::default());
        let regression = verdicts
            .iter()
            .find(|v| matches!(v, Verdict::CacheHitRate { .. }))
            .expect("hit-rate regression");
        assert!(regression.is_regression());
        assert!(regression.to_string().contains("0.7000"), "{regression}");
        // The field vanishing against a gating baseline fails loudly.
        let mut vanished = baseline.clone();
        vanished.cache_hit_rate = None;
        let verdicts = compare(
            &[baseline.clone()],
            &[vanished],
            CompareThresholds::default(),
        );
        let gone = verdicts
            .iter()
            .find(|v| v.is_regression())
            .expect("missing-rate regression");
        assert!(gone.to_string().contains("missing from the current run"));
        // A baseline without the field never arms the gate.
        let mut old_baseline = baseline.clone();
        old_baseline.cache_hit_rate = None;
        let verdicts = compare(&[old_baseline], &[baseline], CompareThresholds::default());
        assert!(verdicts.iter().all(|v| !v.is_regression()));
    }

    #[test]
    fn huge_u64_seed_round_trips_exactly() {
        let mut original = report("a", 0.001, 100);
        original.seed = u64::MAX; // not representable in f64
        let text = original.to_json().to_string();
        assert!(text.contains(&format!("\"seed\": {}", u64::MAX)));
        let parsed = ScenarioReport::from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(parsed.seed, u64::MAX);
    }

    #[test]
    fn compare_flags_update_latency_regression_on_dynamic_scenarios() {
        let mut baseline = report("dyn", 0.001, 1000);
        baseline.update_latency = Some(summary(5e-6));
        let mut current = baseline.clone();
        // Queries and work identical; only the update path got 100x slower.
        current.update_latency = Some(summary(5e-4));
        let verdicts = compare(
            &[baseline.clone()],
            &[current],
            CompareThresholds::default(),
        );
        assert!(
            verdicts.iter().any(|v| matches!(
                v,
                Verdict::Regression {
                    signal: "median update latency",
                    ..
                }
            )),
            "{verdicts:?}"
        );
        // Sub-microsecond wiggle stays under the noise floor: no flapping.
        let mut noisy = baseline.clone();
        noisy.update_latency = Some(summary(0.9e-6));
        let mut tiny_base = baseline.clone();
        tiny_base.update_latency = Some(summary(0.2e-6));
        let verdicts = compare(&[tiny_base], &[noisy], CompareThresholds::default());
        assert!(verdicts.iter().all(|v| !v.is_regression()), "{verdicts:?}");
    }

    #[test]
    fn fused_scenarios_gate_work_tighter() {
        // +7% work: inside the global +10% budget, outside the fused +5%.
        let baseline = vec![report("probe_static_fused", 0.001, 1000)];
        let current = vec![report("probe_static_fused", 0.001, 1070)];
        let verdicts = compare(&baseline, &current, CompareThresholds::default());
        assert!(
            verdicts.iter().any(|v| matches!(
                v,
                Verdict::Regression {
                    signal: "total work",
                    threshold,
                    ..
                } if *threshold == FUSED_WORK_THRESHOLD
            )),
            "{verdicts:?}"
        );
        // The same +7% on a non-fused scenario passes.
        let baseline = vec![report("static_top_k", 0.001, 1000)];
        let current = vec![report("static_top_k", 0.001, 1070)];
        let verdicts = compare(&baseline, &current, CompareThresholds::default());
        assert!(verdicts.iter().all(|v| !v.is_regression()), "{verdicts:?}");
    }

    #[test]
    fn workload_fingerprint_mismatch_fails_the_gate() {
        // Hashes above 2^53 that differ only in low bits must still be
        // detected and displayed distinctly (they collide as f64).
        let mut baseline = report("dyn", 0.001, 1000);
        baseline.final_state_hash = Some(u64::MAX - 2);
        let mut current = baseline.clone();
        current.final_state_hash = Some(u64::MAX - 1);
        let verdicts = compare(
            &[baseline.clone()],
            &[current],
            CompareThresholds::default(),
        );
        let mismatch = verdicts
            .iter()
            .find(|v| matches!(v, Verdict::FingerprintMismatch { .. }))
            .expect("fingerprint mismatch verdict");
        assert!(mismatch.is_regression());
        let text = mismatch.to_string();
        assert!(text.contains("regenerate the baseline"), "{text}");
        assert!(
            text.contains(&format!("{:#018x}", u64::MAX - 1))
                && text.contains(&format!("{:#018x}", u64::MAX - 2)),
            "hashes must print exactly: {text}"
        );
        // Matching hashes (or a baseline predating the field) pass.
        let verdicts = compare(
            &[baseline.clone()],
            &[baseline.clone()],
            CompareThresholds::default(),
        );
        assert!(verdicts.iter().all(|v| !v.is_regression()));
        let mut old_baseline = baseline.clone();
        old_baseline.final_state_hash = None;
        let verdicts = compare(
            &[old_baseline],
            &[baseline.clone()],
            CompareThresholds::default(),
        );
        assert!(verdicts.iter().all(|v| !v.is_regression()));
        // Asymmetric: a current run that LOST the hash against a
        // hash-carrying baseline fails — the identity check went dark.
        let mut hashless_current = baseline.clone();
        hashless_current.final_state_hash = None;
        let verdicts = compare(
            &[baseline],
            &[hashless_current],
            CompareThresholds::default(),
        );
        let gone = verdicts
            .iter()
            .find(|v| v.is_regression())
            .expect("missing-hash regression");
        assert!(gone.to_string().contains("missing from the current run"));
    }

    #[test]
    fn final_state_hash_round_trips_through_json() {
        let mut original = report("dyn", 0.001, 100);
        original.final_state_hash = Some(u64::MAX - 1);
        // from_json normalizes stats onto the full FIELD_NAMES schema.
        original.query_stats = probesim_core::QueryStats::FIELD_NAMES
            .into_iter()
            .map(|n| (n, 0))
            .collect();
        let text = original.to_json().to_string();
        let parsed = ScenarioReport::from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(parsed, original);
        assert_eq!(parsed.final_state_hash, Some(u64::MAX - 1));
    }

    #[test]
    fn contrast_pairs_and_summary_json() {
        let mut fused = report("probe_static_fused", 0.001, 600);
        fused.query_stats = vec![("edges_expanded", 500)];
        let mut legacy = report("probe_static_legacy", 0.002, 1000);
        legacy.query_stats = vec![("edges_expanded", 900)];
        let unpaired = report("static_top_k", 0.001, 77);
        let pairs = contrast_pairs(&[fused, legacy, unpaired]);
        assert_eq!(pairs.len(), 1);
        assert_eq!(pairs[0].base, "probe_static");
        assert!((pairs[0].work_reduction_pct() - 40.0).abs() < 1e-12);
        assert!((pairs[0].edges_reduction_pct() - 400.0 / 9.0).abs() < 1e-9);
        let json = contrast_json(&pairs);
        let text = json.to_string();
        assert!(text.contains("\"work_reduction_pct\": 40"));
        let parsed = Json::parse(&text).unwrap();
        let list = parsed.get("contrast").unwrap().as_arr().unwrap();
        assert_eq!(list.len(), 1);
        assert_eq!(
            list[0].get("scenario").unwrap().as_str().unwrap(),
            "probe_static"
        );
        // No counterpart => no pair.
        assert!(contrast_pairs(&[report("x_fused", 0.1, 1)]).is_empty());
    }

    #[test]
    fn cross_engine_contrast_pairs_carry_their_floor() {
        let mut cached = report("cache_revisit_static", 0.001, 300);
        cached.kind = "service".to_string();
        let fused = report("probe_static_fused", 0.001, 1000);
        // Both halves present: one suffixless explicit pair with the 30%
        // floor (the fused report has no _legacy twin here).
        let pairs = contrast_pairs(&[cached.clone(), fused.clone()]);
        assert_eq!(pairs.len(), 1);
        assert_eq!(pairs[0].base, "cache_revisit_static");
        assert_eq!(pairs[0].fused_total_work, 300);
        assert_eq!(pairs[0].legacy_total_work, 1000);
        assert_eq!(pairs[0].floor_pct, Some(30.0));
        assert!((pairs[0].work_reduction_pct() - 70.0).abs() < 1e-12);
        let text = contrast_json(&pairs).to_string();
        assert!(text.contains("\"floor_pct\": 30"), "{text}");
        // A missing yardstick produces no pair rather than a bogus one.
        assert_eq!(contrast_pairs(&[cached]).len(), 0);
        // The churn pair rides at the CLI-wide floor.
        let mut churn = report("cache_revisit_churn", 0.001, 400);
        churn.kind = "service".to_string();
        let balanced = report("dynamic_churn_balanced", 0.001, 900);
        let pairs = contrast_pairs(&[churn, balanced]);
        assert_eq!(pairs.len(), 1);
        assert_eq!(pairs[0].floor_pct, None);
    }

    #[test]
    fn compare_reports_missing_scenarios_without_failing() {
        let baseline = vec![report("old", 0.001, 1000)];
        let current = vec![report("new", 0.001, 1000)];
        let verdicts = compare(&baseline, &current, CompareThresholds::default());
        assert_eq!(verdicts.iter().filter(|v| v.is_regression()).count(), 0);
        assert_eq!(
            verdicts
                .iter()
                .filter(|v| matches!(v, Verdict::Missing { .. }))
                .count(),
            2
        );
    }

    #[test]
    fn verdict_display_is_informative() {
        let v = Verdict::Regression {
            scenario: "a".to_string(),
            signal: "total work",
            baseline: 1000.0,
            current: 1500.0,
            threshold: 0.10,
        };
        let text = v.to_string();
        assert!(text.contains("REGRESSION"));
        assert!(text.contains("+50.0%"));
    }
}
