//! The `gen` layer: every input a run feeds the system, derived from the
//! seed alone. The system under test sees only what this module returns.

use std::hash::Hasher;

use probesim_core::Query;
use probesim_datasets::{sliding_window_workload, Dataset, Scale};
use probesim_eval::ZipfRanks;
use probesim_graph::{CsrGraph, FxHasher, GraphUpdate, GraphView, NodeId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The three workloads, by the names `BENCHMARK.json` gives them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    ReadZipf,
    ChurnRyw,
    CommitFlood,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::ReadZipf,
        Workload::ChurnRyw,
        Workload::CommitFlood,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::ReadZipf => "read_zipf",
            Workload::ChurnRyw => "churn_ryw",
            Workload::CommitFlood => "commit_flood",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// `εa` of every service in the benchmark, and the audit's failure bound.
pub const EPSILON: f64 = 0.1;
/// The engine seed: fixed, so an answer depends only on (graph, query).
pub const ENGINE_SEED: u64 = 2017;
/// `k` of the rotating `TopK` reads and of the audit's precision.
pub const TOP_K: usize = 50;
/// `τ` of the rotating `Threshold` reads.
pub const TAU: f64 = 0.05;

/// `read_zipf` reads per second of run time (a fixed count per run).
const ZIPF_READS_PER_S: usize = 400;
/// Requests `read_zipf` sends (untimed) before timing starts.
const ZIPF_WARMUP: usize = 600;
/// `read_zipf` commits per second of run time (a fixed count per run).
const ZIPF_COMMITS_PER_S: usize = 2_000;
/// Stream graph shape shared by `churn_ryw` and `commit_flood`.
const STREAM_NODES: usize = 1000;
const STREAM_WINDOW: usize = 6000;
/// The stream graph is a fixed dataset: the seed varies the reads.
const STREAM_SEED: u64 = 0x5EED;
/// The open-loop writer rate of `churn_ryw`, in commits per second.
pub const CHURN_RATE: f64 = 200.0;
/// `commit_flood` commits per second of run time (a fixed count per run).
const FLOOD_COMMITS_PER_S: usize = 100_000;
/// `commit_flood` reads per segment of its timed phase.
const FLOOD_READS_PER_SEGMENT: usize = 8;
/// Sources in the accuracy audit.
const AUDIT_SOURCES: usize = 16;

/// Everything one run replays.
pub struct Inputs {
    pub base: CsrGraph,
    /// Writes, in commit order. Every event is effective when applied in
    /// order to `base`.
    pub updates: Vec<GraphUpdate>,
    /// Untimed cache warm-up reads (`read_zipf` only).
    pub warmup: Vec<Query>,
    /// Timed reads, consumed in order by the load threads.
    pub reads: Vec<Query>,
    /// Audit sources: a fixed sample of the base graph's nodes with
    /// non-zero in-degree, the same for every seed on a given graph.
    pub audit: Vec<NodeId>,
}

impl Inputs {
    pub fn generate(workload: Workload, seed: u64, seconds: u64) -> Inputs {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x9E37_79B9_7F4A_7C15);
        let secs = seconds.max(1) as usize;
        match workload {
            Workload::ReadZipf => {
                let base = Dataset::HepTh.generate(Scale::Ci);
                // Source popularity: a seeded permutation of the
                // non-zero in-degree nodes, ranked Zipf.
                let mut ranked = eligible(&base);
                for i in (1..ranked.len()).rev() {
                    ranked.swap(i, rng.gen_range(0..=i));
                }
                let zipf = ZipfRanks::new(ranked.len());
                let draw = |rng: &mut StdRng| {
                    let node = ranked[zipf.rank(rng.gen::<f64>())];
                    query_of_kind(node, rng.gen_range(0..3usize))
                };
                let warmup = (0..ZIPF_WARMUP).map(|_| draw(&mut rng)).collect();
                let reads = (0..ZIPF_READS_PER_S * secs)
                    .map(|_| draw(&mut rng))
                    .collect();
                let updates = toggles(&base, ZIPF_COMMITS_PER_S * secs, &mut rng);
                let audit = probesim_eval::sample_query_nodes(&base, AUDIT_SOURCES, 7);
                Inputs {
                    base,
                    updates,
                    warmup,
                    reads,
                    audit,
                }
            }
            Workload::ChurnRyw | Workload::CommitFlood => {
                let events = if workload == Workload::ChurnRyw {
                    (CHURN_RATE as usize) * secs
                } else {
                    FLOOD_COMMITS_PER_S * secs
                };
                let (graph, updates) =
                    sliding_window_workload(STREAM_NODES, STREAM_WINDOW, events, STREAM_SEED);
                let base = graph.snapshot();
                // Churn's reader cycles through its schedule; the flood
                // reads a few times per segment.
                let count = if workload == Workload::ChurnRyw {
                    200 * secs
                } else {
                    FLOOD_READS_PER_SEGMENT * crate::run::SEGMENTS
                };
                let sources = eligible(&base);
                let reads = (0..count)
                    .map(|i| query_of_kind(sources[rng.gen_range(0..sources.len())], i % 3))
                    .collect();
                let audit = probesim_eval::sample_query_nodes(&base, AUDIT_SOURCES, 7);
                Inputs {
                    base,
                    updates,
                    warmup: Vec::new(),
                    reads,
                    audit,
                }
            }
        }
    }

    /// A hash of the generated update stream, read schedule and audit set:
    /// equal fingerprints mean two runs replayed identical inputs.
    pub fn fingerprint(&self) -> u64 {
        let mut h = FxHasher::default();
        h.write_u64(edge_set_hash(self.base.num_nodes(), self.base.edges_iter()));
        for update in &self.updates {
            let (u, v) = update.edge();
            h.write_u8(u8::from(update.is_insert()));
            h.write_u32(u);
            h.write_u32(v);
        }
        for query in self.warmup.iter().chain(&self.reads) {
            hash_query(&mut h, query);
        }
        for &node in &self.audit {
            h.write_u32(node);
        }
        h.finish()
    }
}

/// Order-sensitive hash of an edge set, as `(num_nodes, sorted edges)`.
pub fn edge_set_hash(num_nodes: usize, edges: impl Iterator<Item = (NodeId, NodeId)>) -> u64 {
    let mut h = FxHasher::default();
    h.write_u64(num_nodes as u64);
    for (u, v) in edges {
        h.write_u32(u);
        h.write_u32(v);
    }
    h.finish()
}

fn hash_query(h: &mut FxHasher, query: &Query) {
    match *query {
        Query::SingleSource { node } => {
            h.write_u8(0);
            h.write_u32(node);
        }
        Query::TopK { node, k } => {
            h.write_u8(1);
            h.write_u32(node);
            h.write_u64(k as u64);
        }
        Query::Threshold { node, tau } => {
            h.write_u8(2);
            h.write_u32(node);
            h.write_u64(tau.to_bits());
        }
    }
}

/// The read kinds rotate SingleSource / TopK(50) / Threshold(0.05).
fn query_of_kind(node: NodeId, kind: usize) -> Query {
    match kind {
        0 => Query::SingleSource { node },
        1 => Query::TopK { node, k: TOP_K },
        _ => Query::Threshold { node, tau: TAU },
    }
}

fn eligible(graph: &CsrGraph) -> Vec<NodeId> {
    graph.nodes().filter(|&v| graph.has_in_edges(v)).collect()
}

/// `count` effective updates over `base` that keep its edge count
/// steady: they alternate removing a random live edge and inserting a
/// random absent non-loop pair.
fn toggles(base: &CsrGraph, count: usize, rng: &mut StdRng) -> Vec<GraphUpdate> {
    let n = base.num_nodes();
    let mut live: Vec<(NodeId, NodeId)> = base.edges_iter().collect();
    let mut member: probesim_graph::FxHashSet<(NodeId, NodeId)> = live.iter().copied().collect();
    let mut updates = Vec::with_capacity(count);
    while updates.len() < count {
        if updates.len() % 2 == 0 {
            let (u, v) = live.swap_remove(rng.gen_range(0..live.len()));
            member.remove(&(u, v));
            updates.push(GraphUpdate::Remove { u, v });
        } else {
            let u = rng.gen_range(0..n) as NodeId;
            let v = rng.gen_range(0..n) as NodeId;
            if u != v && member.insert((u, v)) {
                live.push((u, v));
                updates.push(GraphUpdate::Insert { u, v });
            }
        }
    }
    updates
}
