//! `probesim` — command-line SimRank queries over edge-list graphs.
//!
//! ```text
//! probesim generate   <dataset> [--scale ci|laptop] [--out graph.psim]
//! probesim stats      <graph-file>
//! probesim query      <graph-file> --node N [--top K | --tau T] [--eps E] [--delta D]
//!                     [--decay C] [--seed S] [--probe-path fused|legacy]
//!                     [--store] [--output text|json]
//! probesim batch      <graph-file> --nodes A,B,C [--top K] [--threads T] [--store]
//!                     [--output text|json]
//! probesim serve-bench <graph-file> [--queries N] [--distinct D] [--workers W]
//!                     [--deadline-ms MS] [--work-cap W] [--cache-capacity C]
//!                     [--consistency latest|pinned|at-least] [--update-every K]
//!                     [--replicas R] [--eps E] [--seed S]
//! probesim pair       <graph-file> --u A --v B [--walks R] [--decay C]
//! ```
//!
//! Graph files are either the text edge-list format (`u v` per line, `#`
//! comments — the format of the paper's SNAP datasets) or this crate's
//! binary format (written by `generate --out file.psim`); the magic bytes
//! decide.
//!
//! Queries run through `probesim_core::QuerySession`; invalid input is
//! reported as a typed [`QueryError`] message, never a panic, and a flag
//! the subcommand does not accept is a usage error. With
//! `--output json`, results are serialized as one JSON object per query
//! (sparse scores + stats) for downstream tooling.
//!
//! `--store` routes the loaded graph through the versioned
//! [`GraphStore`]: queries then run against an owned, version-pinned
//! `GraphSnapshot` — the serving configuration where readers never block
//! a writer — and answers are bit-for-bit identical to the direct CSR
//! path. `batch --store --threads N` shards the batch across `N` threads
//! reading that one snapshot.
//!
//! `serve-bench` drives the full serving facade
//! (`probesim_service::QueryService`): a Zipf-repeated query stream with
//! deadlines, a consistency level and the `(version, source)` result cache,
//! printing the queue/exec/cache breakdown as one JSON object. With
//! `--replicas R` the same stream runs through the replicated fleet
//! (`probesim_fleet::Fleet`) instead — commits go through the durable
//! update log, reads through the consistency-aware router — and the
//! JSON gains a `fleet` object with per-endpoint health, restart counts
//! and last-salvage LSNs plus the supervisor's recovery counters.

// Printing is this target's entire job: stdout is the user interface.
#![allow(clippy::print_stdout)]

use std::process::ExitCode;

use probesim::prelude::*;
use probesim_baselines::MonteCarlo;
use probesim_graph::{io, CsrGraph, DegreeStats};
use probesim_json::Json;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("error: {message}");
            eprintln!();
            eprintln!("{USAGE}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "usage:
  probesim generate <dataset> [--scale ci|laptop] [--out FILE]
  probesim stats    <graph-file>
  probesim query    <graph-file> --node N [--top K | --tau T] [--eps E] [--delta D] [--decay C] [--seed S] [--probe-path fused|legacy] [--store] [--output text|json]
  probesim batch    <graph-file> --nodes A,B,C [--top K] [--threads T] [--eps E] [--seed S] [--probe-path fused|legacy] [--store] [--output text|json]
  probesim serve-bench <graph-file> [--queries N] [--distinct D] [--workers W] [--deadline-ms MS] [--work-cap W] [--cache-capacity C] [--consistency latest|pinned[:V]|at-least[:V]] [--update-every K] [--replicas R] [--eps E] [--seed S]
  probesim pair     <graph-file> --u A --v B [--walks R] [--decay C] [--seed S]

  --store      route the graph through the versioned GraphStore and query an
               owned snapshot (identical answers; the serving configuration)

serve-bench (drives the QueryService facade, prints one JSON object):
  --queries N          stream length (default 64)
  --distinct D         distinct query nodes behind the Zipf repeats (default 16)
  --workers W          service worker threads (default 0 = auto)
  --deadline-ms MS     per-request deadline in milliseconds (default: none)
  --work-cap W         per-request deterministic work cap (default: none)
  --cache-capacity C   result-cache entries, 0 disables (default 1024)
  --consistency X      the shared wire form: latest | pinned[:V] | at-least[:V]
                       (bare pinned/at-least pin the stream-start version 0)
  --update-every K     commit one random edge update every K queries (default 0);
                       each commit is chased by an AtLeastVersion read of its
                       own commit token (read-your-writes)
  --replicas R         serve through the replicated fleet instead: R log-tailing
                       replicas behind the consistency-aware router (default 0 =
                       single service); the JSON gains a \"fleet\" object with
                       per-endpoint health / restarts / last-salvage LSN and the
                       supervisor's recovery counters

datasets: Wiki-Vote HepTh AS HepPh LiveJournal IT-2004 Twitter Friendster";

/// The flags [`engine_from_flags`] reads.
const ENGINE_FLAGS: [&str; 5] = ["--eps", "--delta", "--decay", "--seed", "--probe-path"];

type Handler = fn(&[String]) -> Result<(), String>;

fn run(args: &[String]) -> Result<(), String> {
    let command = args.first().ok_or("missing command")?;
    let rest = &args[1..];
    // (handler, its own flags, whether it also reads ENGINE_FLAGS)
    let (handler, flags, engine_flags): (Handler, &[&str], bool) = match command.as_str() {
        "generate" => (generate, &["--scale", "--out"], false),
        "stats" => (stats, &[], false),
        "query" => (
            query,
            &["--node", "--top", "--tau", "--store", "--output"],
            true,
        ),
        "batch" => (
            batch,
            &["--nodes", "--top", "--threads", "--store", "--output"],
            true,
        ),
        "serve-bench" => (
            serve_bench,
            &[
                "--queries",
                "--distinct",
                "--workers",
                "--deadline-ms",
                "--work-cap",
                "--cache-capacity",
                "--consistency",
                "--update-every",
                "--replicas",
            ],
            true,
        ),
        "pair" => (pair, &["--u", "--v", "--walks", "--decay", "--seed"], false),
        "--help" | "-h" | "help" => {
            println!("{USAGE}");
            return Ok(());
        }
        other => return Err(format!("unknown command {other:?}")),
    };
    // A misspelt or retired flag is a usage error, never silently ignored.
    if let Some(unknown) = rest.iter().find(|arg| {
        arg.starts_with("--")
            && !flags.contains(&arg.as_str())
            && !(engine_flags && ENGINE_FLAGS.contains(&arg.as_str()))
    }) {
        return Err(format!("{command}: unknown flag {unknown:?}"));
    }
    handler(rest)
}

/// Fetches the value after a `--flag`, parsed, or the default.
fn flag<T: std::str::FromStr>(args: &[String], name: &str, default: T) -> Result<T, String> {
    match args.iter().position(|a| a == name) {
        None => Ok(default),
        Some(i) => args
            .get(i + 1)
            .ok_or_else(|| format!("{name} expects a value"))?
            .parse()
            .map_err(|_| format!("cannot parse value for {name}")),
    }
}

fn flag_str<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

/// True when a value-less `--flag` is present.
fn has_flag(args: &[String], name: &str) -> bool {
    args.iter().any(|a| a == name)
}

/// Output format selector shared by `query` and `batch`.
#[derive(Clone, Copy, PartialEq)]
enum OutputFormat {
    Text,
    Json,
}

fn output_format(args: &[String]) -> Result<OutputFormat, String> {
    match flag_str(args, "--output").unwrap_or("text") {
        "text" => Ok(OutputFormat::Text),
        "json" => Ok(OutputFormat::Json),
        other => Err(format!("--output expects text|json, got {other:?}")),
    }
}

fn load_graph(path: &str) -> Result<CsrGraph, String> {
    io::read_graph_file(path).map_err(|e| format!("cannot read {path}: {e}"))
}

fn generate(args: &[String]) -> Result<(), String> {
    let name = args.first().ok_or("generate: missing dataset name")?;
    let dataset = Dataset::parse(name).ok_or_else(|| format!("unknown dataset {name:?}"))?;
    let scale = match flag_str(args, "--scale").unwrap_or("ci") {
        "ci" => Scale::Ci,
        "laptop" => Scale::Laptop,
        other => return Err(format!("--scale expects ci|laptop, got {other:?}")),
    };
    let graph = dataset.generate(scale);
    let stats = DegreeStats::compute(&graph);
    eprintln!(
        "generated {}: n={} m={} mean_deg={:.1}",
        dataset.name(),
        graph.num_nodes(),
        graph.num_edges(),
        stats.mean_degree
    );
    match flag_str(args, "--out") {
        Some(path) if path.ends_with(".psim") => {
            io::write_binary_file(path, &graph).map_err(|e| e.to_string())?;
            eprintln!("wrote binary graph to {path}");
        }
        Some(path) => {
            let file = std::fs::File::create(path).map_err(|e| e.to_string())?;
            io::write_edge_list_text(std::io::BufWriter::new(file), &graph)
                .map_err(|e| e.to_string())?;
            eprintln!("wrote text edge list to {path}");
        }
        None => {
            io::write_edge_list_text(std::io::stdout().lock(), &graph)
                .map_err(|e| e.to_string())?;
        }
    }
    Ok(())
}

fn stats(args: &[String]) -> Result<(), String> {
    let path = args.first().ok_or("stats: missing graph file")?;
    let graph = load_graph(path)?;
    let s = DegreeStats::compute(&graph);
    println!("nodes            {}", s.num_nodes);
    println!("edges            {}", s.num_edges);
    println!("mean degree      {:.2}", s.mean_degree);
    println!("max in-degree    {}", s.max_in_degree);
    println!("max out-degree   {}", s.max_out_degree);
    println!(
        "zero in-degree   {} ({:.1}%)",
        s.zero_in_degree,
        100.0 * s.zero_in_degree as f64 / s.num_nodes.max(1) as f64
    );
    println!("in-degree gini   {:.3}", s.in_degree_gini);
    println!(
        "query-eligible   {:.1}%",
        100.0 * s.query_eligible_fraction()
    );
    Ok(())
}

fn engine_from_flags(args: &[String]) -> Result<ProbeSim, String> {
    let eps: f64 = flag(args, "--eps", 0.05)?;
    let delta: f64 = flag(args, "--delta", 0.01)?;
    let decay: f64 = flag(args, "--decay", 0.6)?;
    let seed: u64 = flag(args, "--seed", 2017)?;
    if !(0.0..1.0).contains(&decay) || decay <= 0.0 {
        return Err(format!("--decay must be in (0, 1), got {decay}"));
    }
    if !(0.0..1.0).contains(&eps) || eps <= 0.0 {
        return Err(format!("--eps must be in (0, 1), got {eps}"));
    }
    if !(0.0..1.0).contains(&delta) || delta <= 0.0 {
        return Err(format!("--delta must be in (0, 1), got {delta}"));
    }
    let mut config = ProbeSimConfig::new(decay, eps, delta).with_seed(seed);
    // A/B the probe engines from the CLI: the stats JSON then shows the
    // edges_expanded / frontier_merges difference directly.
    config.optimizations.fuse_probes = match flag_str(args, "--probe-path").unwrap_or("fused") {
        "fused" => true,
        "legacy" => false,
        other => return Err(format!("--probe-path expects fused|legacy, got {other:?}")),
    };
    Ok(ProbeSim::new(config))
}

fn query(args: &[String]) -> Result<(), String> {
    let path = args.first().ok_or("query: missing graph file")?;
    let graph = load_graph(path)?;
    let node: NodeId = flag(args, "--node", NodeId::MAX)?;
    if node == NodeId::MAX {
        return Err("query: --node is required".into());
    }
    let format = output_format(args)?;
    let engine = engine_from_flags(args)?;
    // --tau selects a threshold query; --top (default 10) a top-k query.
    let query = match flag_str(args, "--tau") {
        Some(raw) => {
            let tau: f64 = raw
                .parse()
                .map_err(|_| "cannot parse value for --tau".to_string())?;
            Query::Threshold { node, tau }
        }
        None => Query::TopK {
            node,
            k: flag(args, "--top", 10)?,
        },
    };
    // Session construction (O(n) scratch) stays outside the timed region
    // so the reported time measures the query alone, on both paths.
    fn timed_run<G: GraphView>(
        mut session: QuerySession<G>,
        query: Query,
    ) -> (Result<QueryOutput, QueryError>, f64) {
        let start = std::time::Instant::now();
        let output = session.run(query);
        (output, start.elapsed().as_secs_f64())
    }
    // Invalid input (out-of-range node, k = 0, bad tau) surfaces here as a
    // typed QueryError rather than a panic. With --store the session owns
    // a version-pinned snapshot (same answers, serving configuration).
    let (result, elapsed) = if has_flag(args, "--store") {
        let store = probesim_graph::GraphStore::from_csr(graph);
        timed_run(engine.session(store.snapshot()), query)
    } else {
        timed_run(engine.session(&graph), query)
    };
    let output = result.map_err(|e| e.to_string())?;
    match format {
        OutputFormat::Json => println!("{}", query_output_json(&output, Some(elapsed))),
        OutputFormat::Text => {
            let config = engine.config();
            match query {
                Query::TopK { k, .. } => println!(
                    "# top-{k} SimRank neighbors of node {node} (c={}, eps={}, delta={})",
                    config.decay, config.epsilon, config.delta
                ),
                Query::Threshold { tau, .. } => println!(
                    "# nodes with s > {tau} relative to node {node} (c={}, eps={}, delta={})",
                    config.decay, config.epsilon, config.delta
                ),
                Query::SingleSource { .. } => println!("# single-source scores of node {node}"),
            }
            for (rank, (v, score)) in output.ranking().iter().enumerate() {
                println!("{:>3}. node {:>8}  s = {:.5}", rank + 1, v, score);
            }
            eprintln!(
                "query time {elapsed:.3}s | {} walks, {} probes, {} edges expanded, {} nodes touched",
                output.stats.walks,
                output.stats.probes,
                output.stats.edges_expanded,
                output.scores.len()
            );
        }
    }
    Ok(())
}

fn batch(args: &[String]) -> Result<(), String> {
    let path = args.first().ok_or("batch: missing graph file")?;
    let graph = load_graph(path)?;
    let nodes_raw = flag_str(args, "--nodes").ok_or("batch: --nodes is required")?;
    let k: usize = flag(args, "--top", 10)?;
    let threads: usize = flag(args, "--threads", 0)?;
    let format = output_format(args)?;
    let engine = engine_from_flags(args)?;
    let queries: Vec<Query> = nodes_raw
        .split(',')
        .map(|tok| {
            tok.trim()
                .parse::<NodeId>()
                .map(|node| Query::TopK { node, k })
                .map_err(|_| format!("batch: cannot parse node id {tok:?}"))
        })
        .collect::<Result<_, _>>()?;
    let start = std::time::Instant::now();
    let batch = if has_flag(args, "--store") {
        // Every thread reads one published version; answers are
        // bit-identical to the direct CSR path.
        let store = probesim_graph::GraphStore::from_csr(graph);
        engine.par_batch(&store.snapshot(), &queries, threads)
    } else {
        engine.par_batch(&graph, &queries, threads)
    }
    .map_err(|e| e.to_string())?;
    let elapsed = start.elapsed().as_secs_f64();
    match format {
        OutputFormat::Json => {
            let outputs = batch
                .outputs
                .iter()
                .map(|o| query_output_json(o, None))
                .collect();
            let summary = Json::obj(vec![
                ("queries", Json::uint(batch.outputs.len())),
                ("elapsed_secs", Json::Num(elapsed)),
                (
                    "stats",
                    Json::Obj(
                        batch
                            .stats
                            .fields()
                            .map(|(name, n)| (name.to_string(), Json::uint(n)))
                            .collect(),
                    ),
                ),
                ("outputs", Json::Arr(outputs)),
            ]);
            println!("{summary}");
        }
        OutputFormat::Text => {
            for output in &batch.outputs {
                println!("# node {}", output.scores.query());
                for (rank, (v, score)) in output.ranking().iter().enumerate() {
                    println!("{:>3}. node {:>8}  s = {:.5}", rank + 1, v, score);
                }
            }
            eprintln!(
                "batch of {} queries in {elapsed:.3}s | {} walks, {} probes total",
                batch.outputs.len(),
                batch.stats.walks,
                batch.stats.probes
            );
        }
    }
    Ok(())
}

/// `splitmix64` — a tiny deterministic PRNG so the Zipf-repeated query
/// stream needs no RNG dependency in the binary.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Nearest-rank quantile of an unsorted sample set (local helper — the
/// binary does not depend on the bench crate).
fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_unstable_by(|a, b| a.partial_cmp(b).expect("latencies are never NaN"));
    sorted[((sorted.len() - 1) as f64 * q).round() as usize]
}

fn latency_json(samples: &[f64]) -> Json {
    Json::obj(vec![
        ("count", Json::uint(samples.len())),
        ("median", Json::Num(quantile(samples, 0.5))),
        ("p95", Json::Num(quantile(samples, 0.95))),
        (
            "max",
            Json::Num(samples.iter().copied().fold(0.0, f64::max)),
        ),
    ])
}

/// Drives the full serving facade over a Zipf-repeated query stream and
/// prints the queue/exec/cache breakdown as one JSON object.
fn serve_bench(args: &[String]) -> Result<(), String> {
    use probesim::fleet::Fleet;
    use probesim::prelude::{Commit, Consistency, Request, ServiceBuilder};
    use probesim::service::{QueryService, Response};
    use probesim_graph::GraphUpdate;

    /// The serving backend behind the stream: one `QueryService`, or —
    /// with `--replicas` — the replicated fleet behind its router.
    enum Serving {
        Single(QueryService),
        Fleet(Fleet),
    }

    impl Serving {
        fn commit(&self, update: GraphUpdate) -> Commit {
            match self {
                Serving::Single(service) => service.commit(update),
                Serving::Fleet(fleet) => fleet.commit(update),
            }
        }

        /// Dispatches one request; the error detail is discarded (the
        /// stream only counts errors).
        fn call(&self, request: Request) -> Result<Response, String> {
            match self {
                Serving::Single(service) => service.call(request).map_err(|e| e.to_string()),
                Serving::Fleet(fleet) => fleet.call(request).map_err(|e| e.to_string()),
            }
        }

        /// The writable endpoint (the single service, or the fleet's
        /// primary) — the source of version / stats / worker counts.
        fn primary(&self) -> &QueryService {
            match self {
                Serving::Single(service) => service,
                Serving::Fleet(fleet) => fleet.primary(),
            }
        }
    }

    let path = args.first().ok_or("serve-bench: missing graph file")?;
    let graph = load_graph(path)?;
    let queries: usize = flag(args, "--queries", 64)?;
    let distinct: usize = flag(args, "--distinct", 16)?;
    let workers: usize = flag(args, "--workers", 0)?;
    let cache_capacity: usize = flag(args, "--cache-capacity", 1024)?;
    let update_every: usize = flag(args, "--update-every", 0)?;
    let replicas: usize = flag(args, "--replicas", 0)?;
    let seed: u64 = flag(args, "--seed", 2017)?;
    let deadline_ms: Option<u64> = flag_str(args, "--deadline-ms")
        .map(|raw| {
            raw.parse()
                .map_err(|_| "cannot parse value for --deadline-ms".to_string())
        })
        .transpose()?;
    let work_cap: Option<u64> = flag_str(args, "--work-cap")
        .map(|raw| {
            raw.parse()
                .map_err(|_| "cannot parse value for --work-cap".to_string())
        })
        .transpose()?;
    let consistency_name = flag_str(args, "--consistency").unwrap_or("latest");
    let engine = engine_from_flags(args)?;
    let n = graph.num_nodes();
    if n == 0 {
        return Err("serve-bench: graph has no nodes".into());
    }

    let query_nodes = probesim_eval::sample_query_nodes(&graph, distinct.max(1), seed);
    let serving = if replicas > 0 {
        let mut builder = Fleet::builder(engine.config().clone())
            .replicas(replicas)
            .workers(workers)
            .cache_capacity(cache_capacity);
        if let Some(ms) = deadline_ms {
            builder = builder.default_deadline(std::time::Duration::from_millis(ms));
        }
        Serving::Fleet(builder.build(graph))
    } else {
        let mut builder = ServiceBuilder::new(engine.config().clone())
            .workers(workers)
            .cache_capacity(cache_capacity);
        if let Some(ms) = deadline_ms {
            builder = builder.default_deadline(std::time::Duration::from_millis(ms));
        }
        Serving::Single(builder.build(probesim_graph::GraphStore::from_csr(graph)))
    };
    // The shared wire form (the same `FromStr` the fleet config and
    // bench clients use): bare "pinned"/"at-least" resolve to version
    // 0, which IS the stream-start version of a freshly built store.
    let base_consistency: Consistency = consistency_name
        .parse()
        .map_err(|e| format!("--consistency: {e}"))?;

    // Zipf-ish repetition, deterministic in seed (the shared sampler
    // the cache-repeat bench scenario uses; the draws come from the
    // dependency-free splitmix64 above).
    let zipf = probesim_eval::ZipfRanks::new(query_nodes.len());
    let mut prng = seed ^ 0x5EED;
    let mut queue_secs = Vec::with_capacity(queries);
    let mut exec_secs = Vec::with_capacity(queries);
    let mut hits = 0u64;
    let mut errors = 0u64;
    let mut read_your_writes = 0u64;
    let mut last_commit: Option<u64> = None;
    let wall = std::time::Instant::now();
    for i in 0..queries {
        if update_every > 0 && i > 0 && i % update_every == 0 {
            // A random structural update: insert or remove a random edge
            // (whichever is effective first keeps the stream simple).
            let u = (splitmix64(&mut prng) % n as u64) as NodeId;
            let v = (splitmix64(&mut prng) % n as u64) as NodeId;
            if u != v {
                let mut commit = serving.commit(GraphUpdate::Insert { u, v });
                if !commit.was_effective() {
                    commit = serving.commit(GraphUpdate::Remove { u, v });
                }
                // The commit token is the exact floor the chasing
                // read must observe.
                last_commit = Some(commit.version);
            }
        }
        // Read-your-writes: the query right after a commit is floored
        // at that commit's own token; the rest of the stream uses the
        // requested base consistency.
        let consistency = match last_commit.take() {
            Some(version) => {
                read_your_writes += 1;
                Consistency::AtLeastVersion(version)
            }
            None => base_consistency,
        };
        let rank = zipf.rank(splitmix64(&mut prng) as f64 / u64::MAX as f64);
        let mut request = Request::new(Query::SingleSource {
            node: query_nodes[rank],
        })
        .with_consistency(consistency);
        if let Some(cap) = work_cap {
            request = request.with_work_cap(cap);
        }
        match serving.call(request) {
            Ok(response) => {
                queue_secs.push(response.queue_wait.as_secs_f64());
                exec_secs.push(response.exec_time.as_secs_f64());
                if response.cache_hit {
                    hits += 1;
                }
            }
            Err(_) => errors += 1,
        }
    }
    let elapsed = wall.elapsed().as_secs_f64();
    let stats = serving.primary().stats();
    let answered = queries as u64 - errors;
    let optional = |value: Option<u64>| value.map_or(Json::Null, Json::UInt);
    let mut summary = vec![
        ("queries", Json::uint(queries)),
        ("distinct", Json::uint(query_nodes.len())),
        ("workers", Json::uint(serving.primary().workers())),
        ("consistency", Json::Str(consistency_name.to_string())),
        ("deadline_ms", optional(deadline_ms)),
        ("work_cap", optional(work_cap)),
        ("version", Json::UInt(serving.primary().version())),
        ("applied_version", Json::UInt(stats.applied_version)),
        ("queue_depth", Json::UInt(stats.queue_depth)),
        ("read_your_writes", Json::UInt(read_your_writes)),
        ("elapsed_secs", Json::Num(elapsed)),
        (
            "cache",
            Json::obj(vec![
                ("capacity", Json::uint(cache_capacity)),
                ("hits", Json::UInt(hits)),
                ("misses", Json::UInt(answered - hits)),
                (
                    "hit_rate",
                    Json::Num(if answered > 0 {
                        hits as f64 / answered as f64
                    } else {
                        0.0
                    }),
                ),
                ("entries", Json::uint(stats.cache_entries)),
            ]),
        ),
        ("deadline_exceeded", Json::UInt(stats.deadline_exceeded)),
        (
            "work_budget_exceeded",
            Json::UInt(stats.work_budget_exceeded),
        ),
        ("errors", Json::UInt(errors)),
        ("executed_work", Json::UInt(stats.executed_work)),
        ("queue_secs", latency_json(&queue_secs)),
        ("exec_secs", latency_json(&exec_secs)),
    ];
    // Fleet mode appends a `fleet` object: per-endpoint health,
    // restart counts and last-salvage LSNs from the registry-backed
    // status snapshot, plus the supervisor's cumulative recovery and
    // truncation counters, the update log's retained LSN range and the
    // router's failover count.
    if let Serving::Fleet(fleet) = &serving {
        let supervisor = fleet.supervisor_stats();
        let endpoints = fleet
            .status()
            .iter()
            .map(|s| {
                Json::obj(vec![
                    ("replica", Json::uint(s.replica)),
                    ("applied_version", Json::UInt(s.applied_version)),
                    ("queue_depth", Json::UInt(s.queue_depth)),
                    ("oldest_retained", Json::UInt(s.oldest_retained)),
                    ("health", Json::Str(s.health.to_string())),
                    ("restarts", Json::UInt(s.restarts)),
                    ("last_salvage_lsn", optional(s.last_salvage_lsn)),
                ])
            })
            .collect();
        summary.push((
            "fleet",
            Json::obj(vec![
                ("replicas", Json::uint(replicas)),
                ("failovers", Json::UInt(fleet.failovers())),
                (
                    "checkpoints_taken",
                    Json::UInt(supervisor.checkpoints_taken),
                ),
                (
                    "checkpoint_recoveries",
                    Json::UInt(supervisor.checkpoint_recoveries),
                ),
                (
                    "genesis_recoveries",
                    Json::UInt(supervisor.genesis_recoveries),
                ),
                ("log_truncations", Json::UInt(supervisor.log_truncations)),
                ("log_first_lsn", Json::UInt(fleet.log().first_lsn())),
                ("log_last_lsn", Json::UInt(fleet.log().last_lsn())),
                ("endpoints", Json::Arr(endpoints)),
            ]),
        ));
    }
    println!("{}", Json::obj(summary));
    Ok(())
}

fn pair(args: &[String]) -> Result<(), String> {
    let path = args.first().ok_or("pair: missing graph file")?;
    let graph = load_graph(path)?;
    let u: NodeId = flag(args, "--u", NodeId::MAX)?;
    let v: NodeId = flag(args, "--v", NodeId::MAX)?;
    if u == NodeId::MAX || v == NodeId::MAX {
        return Err("pair: --u and --v are required".into());
    }
    let n = graph.num_nodes();
    if u as usize >= n || v as usize >= n {
        return Err(QueryError::NodeOutOfRange {
            node: u.max(v),
            num_nodes: n,
        }
        .to_string());
    }
    let walks: usize = flag(args, "--walks", 100_000)?;
    let decay: f64 = flag(args, "--decay", 0.6)?;
    let seed: u64 = flag(args, "--seed", 2017)?;
    let mc = MonteCarlo::new(decay, walks).with_seed(seed);
    let estimate = mc.pair(&graph, u, v);
    println!("s({u}, {v}) ≈ {estimate:.6}   ({walks} walk pairs, c = {decay})");
    Ok(())
}

/// Serializes one [`QueryOutput`] as a JSON object: query descriptor,
/// sparse scores (touched nodes only), ranked answer, and stats. Pass
/// `None` for `elapsed` to omit the timing field (batch mode times the
/// batch).
fn query_output_json(output: &QueryOutput, elapsed: Option<f64>) -> Json {
    let (kind, parameter) = match output.query {
        Query::SingleSource { .. } => ("single_source", None),
        Query::TopK { k, .. } => ("top_k", Some(("k", Json::uint(k)))),
        Query::Threshold { tau, .. } => ("threshold", Some(("tau", Json::Num(tau)))),
    };
    let mut query = vec![
        ("kind", Json::Str(kind.to_string())),
        ("node", Json::UInt(output.query.node().into())),
    ];
    query.extend(parameter);
    let scored = |pairs: &mut dyn Iterator<Item = (NodeId, f64)>| {
        Json::Arr(
            pairs
                .map(|(v, s)| {
                    Json::obj(vec![
                        ("node", Json::UInt(v.into())),
                        ("score", Json::Num(s)),
                    ])
                })
                .collect(),
        )
    };
    let mut fields = vec![
        ("query", Json::obj(query)),
        ("num_nodes", Json::uint(output.scores.num_nodes())),
        ("touched", Json::uint(output.scores.len())),
        ("scores", scored(&mut output.scores.iter())),
        ("ranking", scored(&mut output.ranking().into_iter())),
        (
            "stats",
            Json::Obj(
                output
                    .stats
                    .fields()
                    .map(|(name, n)| (name.to_string(), Json::uint(n)))
                    .collect(),
            ),
        ),
    ];
    if let Some(secs) = elapsed {
        fields.push(("elapsed_secs", Json::Num(secs)));
    }
    Json::obj(fields)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(tokens: &[&str]) -> Vec<String> {
        tokens.iter().map(|t| t.to_string()).collect()
    }

    #[test]
    fn unknown_flags_are_usage_errors_for_every_subcommand() {
        // The flag check runs before any file is read, so a missing graph
        // file cannot mask it.
        for command in ["generate", "stats", "query", "batch", "serve-bench", "pair"] {
            let err = run(&args(&[command, "missing.psim", "--bogus", "1"])).unwrap_err();
            assert_eq!(err, format!("{command}: unknown flag \"--bogus\""));
        }
        // Engine flags belong to the commands that build a ProbeSim engine.
        let err = run(&args(&["stats", "missing.psim", "--eps", "0.1"])).unwrap_err();
        assert!(err.contains("unknown flag"), "{err}");
        let err = run(&args(&[
            "query",
            "missing.psim",
            "--node",
            "1",
            "--eps",
            "0.1",
        ]))
        .unwrap_err();
        assert!(err.starts_with("cannot read"), "{err}");
    }
}
