//! The session-based query API: pooled execution contexts, sparse
//! results, fallible errors, and batch/parallel drivers.
//!
//! ProbeSim is index-free, so the only per-query state is *scratch*:
//! the PROBE workspace, the score accumulator and the RNG stream. The
//! original one-shot API allocated all of it — `O(n)` — on every call
//! and returned a dense length-`n` vector, which is exactly the wrong
//! shape for a query service on a web-scale graph where one query
//! touches a tiny neighborhood (compare SLING, arXiv:2002.08082, and
//! PRSim, arXiv:1905.02354, which both return sparse estimates).
//!
//! A [`QuerySession`] binds an engine to a graph and owns that scratch:
//!
//! * the [`crate::workspace::ProbeWorkspace`] frontier buffers and the
//!   [`SparseAccumulator`] score slab are allocated when the session is
//!   created and reset in O(touched) afterwards — repeated queries
//!   perform **zero heap allocation proportional to `n`**;
//! * results come back as [`SparseScores`] — only the touched
//!   `(node, score)` pairs, `O(touched)` memory — with dense
//!   ([`SparseScores::to_dense`]) and ranked ([`SparseScores::top_k`])
//!   views on demand;
//! * invalid queries surface as [`QueryError`] values instead of panics;
//! * [`QuerySession::run_batch`] executes a query list sequentially on
//!   one session, and [`ProbeSim::par_batch`] shards a list across
//!   per-thread sessions, returning outputs in input order with merged
//!   [`QueryStats`].
//!
//! Determinism: the RNG stream for a query is derived from
//! `(config.seed, query node)`, so a query's answer is identical whether
//! it runs on a fresh engine, a reused session, or any thread of a
//! parallel batch.

use probesim_graph::{GraphView, NodeId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::accum::SparseAccumulator;
use crate::budget::{BudgetExceeded, ProbeBudget};
use crate::probe::ProbeParams;
use crate::result::{QueryStats, SingleSourceResult};
use crate::single_source::ProbeSim;
use crate::workspace::ProbeWorkspace;
use crate::ProbeSimConfig;

/// The per-query RNG: seeded from the engine seed and the query node, so
/// repeated identical queries return identical estimates regardless of
/// execution order or thread placement.
pub(crate) fn query_rng(seed: u64, u: NodeId) -> StdRng {
    StdRng::seed_from_u64(seed ^ (u as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// A SimRank query against one graph.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Query {
    /// Estimate `s(u, v)` for every touched `v` (Definition 1).
    SingleSource {
        /// The query node `u`.
        node: NodeId,
    },
    /// The `k` nodes most similar to `u` (Definition 2).
    TopK {
        /// The query node `u`.
        node: NodeId,
        /// How many neighbors to return; must be ≥ 1.
        k: usize,
    },
    /// Every node with estimated similarity above `tau`.
    Threshold {
        /// The query node `u`.
        node: NodeId,
        /// The score cutoff; must be finite and ≥ 0.
        tau: f64,
    },
}

impl Query {
    /// The query node `u`.
    #[inline]
    pub fn node(&self) -> NodeId {
        match *self {
            Query::SingleSource { node }
            | Query::TopK { node, .. }
            | Query::Threshold { node, .. } => node,
        }
    }
}

/// Why a query was rejected before execution — or aborted cooperatively
/// mid-execution by an armed [`ProbeBudget`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum QueryError {
    /// The query node is not a valid id for this graph.
    NodeOutOfRange {
        /// The offending node id.
        node: NodeId,
        /// The graph's node count `n` (valid ids are `0..n`).
        num_nodes: usize,
    },
    /// The graph has no nodes at all.
    EmptyGraph,
    /// A top-k query asked for zero results.
    InvalidK {
        /// The rejected `k`.
        k: usize,
    },
    /// A threshold query passed a non-finite or negative cutoff.
    InvalidThreshold {
        /// The rejected `tau`.
        tau: f64,
    },
    /// The graph's node count changed after the session was created.
    ///
    /// A [`QuerySession`]'s workspace and accumulator slabs are sized for
    /// the node count at construction. Every graph type in this workspace
    /// fixes its node count (`CsrGraph`, `GraphStore` and its
    /// `GraphSnapshot`s mutate edges, never the vertex set), but a
    /// [`GraphView`] implemented elsewhere may grow `n` past that size
    /// behind a shared borrow (interior mutability); executing anyway
    /// would index out of bounds. Rebuild the session against the
    /// resized graph instead.
    GraphResized {
        /// Node count the session's scratch was sized for.
        session_nodes: usize,
        /// The graph's node count now.
        graph_nodes: usize,
    },
    /// The query's wall-clock deadline passed mid-execution
    /// ([`QuerySession::run_with_budget`] with an armed deadline).
    ///
    /// The abort is cooperative: the probe engines stop between level
    /// expansions, the session drains its pooled scratch back to the
    /// clean invariant, and the next query on the same session is
    /// bit-identical to one on a fresh session (property-tested). No
    /// partial scores are returned — a truncated estimate has no error
    /// guarantee — but the counters accumulated up to the abort are.
    DeadlineExceeded {
        /// Work counters at the abort point.
        partial: QueryStats,
    },
    /// The query's work cap ([`ProbeBudget::with_work_cap`], in
    /// [`QueryStats::total_work`] units) was exhausted mid-execution.
    ///
    /// Unlike [`QueryError::DeadlineExceeded`] this abort is
    /// **deterministic** given `(graph, config, seed)` — the same query
    /// aborts at the same expansion on every machine. Same abort-safety
    /// contract: the session stays reusable, `partial` carries the work
    /// done.
    WorkBudgetExceeded {
        /// Work counters at the abort point.
        partial: QueryStats,
    },
}

impl std::fmt::Display for QueryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            QueryError::NodeOutOfRange { node, num_nodes } => {
                write!(f, "query node {node} out of range (n = {num_nodes})")
            }
            QueryError::EmptyGraph => write!(f, "cannot query an empty graph (n = 0)"),
            QueryError::InvalidK { k } => {
                write!(f, "top-k query requires k >= 1 (got k = {k})")
            }
            QueryError::InvalidThreshold { tau } => {
                write!(
                    f,
                    "threshold query requires a finite, non-negative tau (got {tau})"
                )
            }
            QueryError::GraphResized {
                session_nodes,
                graph_nodes,
            } => {
                write!(
                    f,
                    "graph grew from {session_nodes} to {graph_nodes} nodes after the \
                     session was created; create a new session for the resized graph"
                )
            }
            QueryError::DeadlineExceeded { partial } => {
                write!(
                    f,
                    "query aborted: deadline exceeded after {} work units \
                     ({} walks, {} probes)",
                    partial.total_work(),
                    partial.walks,
                    partial.probes
                )
            }
            QueryError::WorkBudgetExceeded { partial } => {
                write!(
                    f,
                    "query aborted: work budget exhausted at {} work units \
                     ({} walks, {} probes)",
                    partial.total_work(),
                    partial.walks,
                    partial.probes
                )
            }
        }
    }
}

impl std::error::Error for QueryError {}

/// Checks a query against a graph without executing it.
pub fn validate<G: GraphView>(graph: &G, query: &Query) -> Result<(), QueryError> {
    let n = graph.num_nodes();
    if n == 0 {
        return Err(QueryError::EmptyGraph);
    }
    let node = query.node();
    if node as usize >= n {
        return Err(QueryError::NodeOutOfRange { node, num_nodes: n });
    }
    match *query {
        Query::TopK { k: 0, .. } => Err(QueryError::InvalidK { k: 0 }),
        Query::Threshold { tau, .. } if !tau.is_finite() || tau < 0.0 => {
            Err(QueryError::InvalidThreshold { tau })
        }
        _ => Ok(()),
    }
}

/// Single-source estimates as touched `(node, score)` pairs.
///
/// Only nodes actually reached by a probe are stored, so the memory
/// footprint is proportional to work done, not to `n`. Untouched nodes
/// implicitly score 0.0 and the query node scores 1.0 by definition.
///
/// Entries are sorted by node id; [`SparseScores::score`] is a binary
/// search. [`SparseScores::to_dense`] reproduces the legacy dense vector
/// bit-for-bit.
#[derive(Debug, Clone, PartialEq)]
pub struct SparseScores {
    query: NodeId,
    num_nodes: usize,
    /// Accumulated scores, sorted by node id, query node excluded.
    entries: Vec<(NodeId, f64)>,
}

impl SparseScores {
    pub(crate) fn new(query: NodeId, num_nodes: usize, entries: Vec<(NodeId, f64)>) -> Self {
        debug_assert!(entries.windows(2).all(|w| w[0].0 < w[1].0));
        SparseScores {
            query,
            num_nodes,
            entries,
        }
    }

    /// The query node `u`.
    #[inline]
    pub fn query(&self) -> NodeId {
        self.query
    }

    /// The graph's node count at query time.
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    /// Number of touched nodes (query node excluded).
    #[inline]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no node besides `u` was reached.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// `s̃(u, v)`. Panics when `v` is not a valid node id, mirroring dense
    /// indexing.
    pub fn score(&self, v: NodeId) -> f64 {
        assert!(
            (v as usize) < self.num_nodes,
            "node {v} out of range (n = {})",
            self.num_nodes
        );
        if v == self.query {
            return 1.0;
        }
        match self.entries.binary_search_by_key(&v, |e| e.0) {
            Ok(i) => self.entries[i].1,
            Err(_) => 0.0,
        }
    }

    /// Iterates the touched `(node, score)` pairs in ascending node order,
    /// query node excluded.
    pub fn iter(&self) -> impl Iterator<Item = (NodeId, f64)> + '_ {
        self.entries.iter().copied()
    }

    /// The `k` highest-scoring nodes (excluding `u`), descending, ties
    /// broken by node id — the same ranking
    /// [`crate::top_k_from_scores`] produces on the dense vector.
    pub fn top_k(&self, k: usize) -> Vec<(NodeId, f64)> {
        let k = k.min(self.num_nodes.saturating_sub(1));
        if k == 0 {
            return Vec::new();
        }
        let mut ranked: Vec<(NodeId, f64)> = self.iter().collect();
        ranked.sort_unstable_by(|a, b| {
            b.1.partial_cmp(&a.1)
                .expect("invariant: SimRank scores are never NaN")
                .then_with(|| a.0.cmp(&b.0))
        });
        if ranked.len() >= k {
            ranked.truncate(k);
            return ranked;
        }
        // Fewer touched nodes than k: pad with untouched nodes at score
        // 0.0, ascending id (the dense ranking's tie-break).
        let mut padded = ranked;
        for v in 0..self.num_nodes as NodeId {
            if padded.len() == k {
                break;
            }
            if v == self.query || self.entries.binary_search_by_key(&v, |e| e.0).is_ok() {
                continue;
            }
            padded.push((v, 0.0));
        }
        padded
    }

    /// Nodes with estimate strictly above `tau` (excluding `u`),
    /// unordered — the sparse counterpart of
    /// [`SingleSourceResult::above_threshold`]. Untouched nodes score 0.0
    /// and the validated `tau` is at least 0, so they never qualify.
    pub fn above_threshold(&self, tau: f64) -> Vec<(NodeId, f64)> {
        self.iter().filter(|&(_, s)| s > tau).collect()
    }

    /// Materializes the legacy dense vector: `scores[v] = s̃(u, v)` for
    /// every `v`, `scores[u] = 1.0`. Bit-for-bit identical to what the
    /// original dense pipeline produced.
    pub fn to_dense(&self) -> Vec<f64> {
        let mut dense = vec![0.0; self.num_nodes];
        for &(v, score) in &self.entries {
            dense[v as usize] = score;
        }
        dense[self.query as usize] = 1.0;
        dense
    }
}

/// The answer to one [`Query`].
#[derive(Debug, Clone, PartialEq)]
pub struct QueryOutput {
    /// The query that produced this output.
    pub query: Query,
    /// Sparse single-source estimates (every query kind computes them).
    pub scores: SparseScores,
    /// Execution counters for this query alone.
    pub stats: QueryStats,
}

impl QueryOutput {
    /// The ranked result list this query asked for:
    ///
    /// * `SingleSource` — every touched node, descending by score;
    /// * `TopK { k }` — the top `k`;
    /// * `Threshold { tau }` — every node above `tau`, descending.
    pub fn ranking(&self) -> Vec<(NodeId, f64)> {
        match self.query {
            Query::SingleSource { .. } => self.scores.top_k(self.scores.len()),
            Query::TopK { k, .. } => self.scores.top_k(k),
            Query::Threshold { tau, .. } => {
                let mut hits = self.scores.above_threshold(tau);
                hits.sort_unstable_by(|a, b| {
                    b.1.partial_cmp(&a.1)
                        .expect("invariant: SimRank scores are never NaN")
                        .then_with(|| a.0.cmp(&b.0))
                });
                hits
            }
        }
    }

    /// Converts into the legacy dense [`SingleSourceResult`] view.
    pub fn into_single_source(self) -> SingleSourceResult {
        SingleSourceResult {
            query: self.scores.query(),
            scores: self.scores.to_dense(),
            stats: self.stats,
        }
    }
}

/// The answer to a batch of queries.
#[derive(Debug, Clone)]
pub struct BatchOutput {
    /// One output per input query, in input order.
    pub outputs: Vec<QueryOutput>,
    /// Counters merged across the whole batch.
    pub stats: QueryStats,
}

/// A reusable, graph-bound execution context.
///
/// Owns the pooled [`ProbeWorkspace`], the sparse score accumulator and
/// the per-query RNG derivation. The first query allocates the `O(n)`
/// scratch; every later query resets it with a version-stamp bump —
/// no reallocation, no `O(n)` clearing.
///
/// The session holds its graph **by value**: `engine.session(&graph)`
/// binds a borrow (the classic mode), while
/// `engine.session(store.snapshot())` binds an *owned*
/// `GraphSnapshot` — an `'static` session that can move to another
/// thread and outlive the store that published it. A snapshot's node
/// count is fixed, so [`QueryError::GraphResized`] never fires on that
/// path.
///
/// ```
/// use probesim_core::{ProbeSim, ProbeSimConfig, Query};
/// use probesim_graph::toy::{toy_graph, A, D, TOY_DECAY};
/// use probesim_graph::GraphView;
///
/// let graph = toy_graph();
/// let engine = ProbeSim::new(ProbeSimConfig::new(TOY_DECAY, 0.05, 0.01).with_seed(7));
/// let mut session = engine.session(&graph);
/// let out = session.run(Query::TopK { node: A, k: 1 })?;
/// assert_eq!(out.ranking()[0].0, D);
/// // The next query on the same session reuses all scratch memory.
/// let again = session.run(Query::SingleSource { node: A })?;
/// assert!(again.scores.len() < graph.num_nodes());
/// # Ok::<(), probesim_core::QueryError>(())
/// ```
pub struct QuerySession<G: GraphView> {
    engine: ProbeSim,
    graph: G,
    /// Node count the scratch slabs were sized for; re-checked against the
    /// graph on every `run` (see [`QueryError::GraphResized`]).
    session_nodes: usize,
    ws: ProbeWorkspace,
    acc: SparseAccumulator,
    total_stats: QueryStats,
    queries_run: usize,
    /// Touched count of the previous query — capacity hint for the next
    /// drain, so steady-state queries do one exact output allocation.
    last_touched: usize,
}

impl<G: GraphView> QuerySession<G> {
    /// Binds `engine`'s configuration to `graph` (a borrow or an owned
    /// view — see [`ProbeSim::session`]). Scratch buffers are sized for
    /// the graph's current node count; if the graph's `n` changes
    /// afterwards (possible only for a [`GraphView`] implemented outside
    /// this workspace, through interior mutability), `run` reports
    /// [`QueryError::GraphResized`] instead of indexing out of bounds.
    pub fn new(engine: &ProbeSim, graph: G) -> Self {
        let n = graph.num_nodes();
        QuerySession {
            engine: engine.clone(),
            graph,
            session_nodes: n,
            ws: ProbeWorkspace::new(n),
            acc: SparseAccumulator::new(n),
            total_stats: QueryStats::default(),
            queries_run: 0,
            last_touched: 0,
        }
    }

    /// The graph this session queries.
    pub fn graph(&self) -> &G {
        &self.graph
    }

    /// The engine configuration this session runs with.
    pub fn config(&self) -> &ProbeSimConfig {
        self.engine.config()
    }

    /// How many queries this session has executed.
    pub fn queries_run(&self) -> usize {
        self.queries_run
    }

    /// Counters merged over every query this session has executed.
    pub fn total_stats(&self) -> &QueryStats {
        &self.total_stats
    }

    /// Executes one query.
    ///
    /// Estimates are identical to [`ProbeSim::single_source`] with the
    /// same seed: the RNG stream is derived per query, so session reuse
    /// never changes an answer.
    pub fn run(&mut self, query: Query) -> Result<QueryOutput, QueryError> {
        self.check_unresized()?;
        validate(&self.graph, &query)?;
        Ok(self.run_validated(query))
    }

    /// [`QuerySession::run`] under a cooperative [`ProbeBudget`]: the
    /// probe engines check the budget between level expansions, and an
    /// exceeded deadline or work cap surfaces as
    /// [`QueryError::DeadlineExceeded`] /
    /// [`QueryError::WorkBudgetExceeded`] carrying the partial counters.
    ///
    /// **Abort safety:** an aborted query leaves the session fully
    /// reusable — the pooled workspace and accumulator are drained back
    /// to their clean invariant before the error returns, so the next
    /// query on this session is bit-identical to one on a fresh session
    /// (the per-query RNG derivation never depended on session history).
    pub fn run_with_budget(
        &mut self,
        query: Query,
        budget: ProbeBudget,
    ) -> Result<QueryOutput, QueryError> {
        self.check_unresized()?;
        validate(&self.graph, &query)?;
        let mut rng = query_rng(self.engine.config().seed, query.node());
        self.execute_budgeted(query, &mut rng, budget)
    }

    /// Rebinds this session to another graph, **keeping the pooled
    /// scratch** when the node counts match (the serving fast path: a
    /// worker hopping between `GraphSnapshot` versions of one store pays
    /// zero reallocation, because a store's `n` is pinned to its base).
    /// A different node count re-allocates the slabs for the new size.
    ///
    /// Cumulative counters ([`QuerySession::total_stats`],
    /// [`QuerySession::queries_run`]) carry over — they describe the
    /// session, not the graph.
    pub fn rebind<H: GraphView>(self, graph: H) -> QuerySession<H> {
        let n = graph.num_nodes();
        let (ws, acc, last_touched) = if n == self.session_nodes {
            (self.ws, self.acc, self.last_touched)
        } else {
            (ProbeWorkspace::new(n), SparseAccumulator::new(n), 0)
        };
        QuerySession {
            engine: self.engine,
            graph,
            session_nodes: n,
            ws,
            acc,
            total_stats: self.total_stats,
            queries_run: self.queries_run,
            last_touched,
        }
    }

    /// Executes a batch sequentially on this session, reusing scratch
    /// across all queries. The whole batch is validated up front, so a
    /// bad query is reported before any work runs.
    pub fn run_batch(&mut self, queries: &[Query]) -> Result<BatchOutput, QueryError> {
        self.check_unresized()?;
        for query in queries {
            validate(&self.graph, query)?;
        }
        Ok(self.run_batch_validated(queries))
    }

    /// The scratch slabs index `0..session_nodes`; a graph that grew past
    /// that (only possible through interior mutability behind the shared
    /// borrow) must be rejected before execution, not caught as an
    /// out-of-bounds panic mid-probe. Shrinking cannot happen — the
    /// workspace stays valid for any `n ≤ session_nodes` and node-range
    /// validation uses the *current* count — but a changed count in either
    /// direction means the session no longer matches the graph, so both
    /// directions are rejected for predictability. One `num_nodes` call
    /// per run, against runs that take milliseconds.
    fn check_unresized(&self) -> Result<(), QueryError> {
        let graph_nodes = self.graph.num_nodes();
        if graph_nodes != self.session_nodes {
            return Err(QueryError::GraphResized {
                session_nodes: self.session_nodes,
                graph_nodes,
            });
        }
        Ok(())
    }

    /// Runs a pre-validated query (shared by `run` and `par_batch`).
    fn run_validated(&mut self, query: Query) -> QueryOutput {
        let mut rng = query_rng(self.engine.config().seed, query.node());
        self.execute(query, &mut rng)
    }

    fn run_batch_validated(&mut self, queries: &[Query]) -> BatchOutput {
        let mut stats = QueryStats::default();
        let outputs: Vec<QueryOutput> = queries
            .iter()
            .map(|&query| {
                let out = self.run_validated(query);
                stats.merge(&out.stats);
                out
            })
            .collect();
        BatchOutput { outputs, stats }
    }

    /// The core execution path: pooled workspace + sparse accumulator.
    fn execute<R: Rng>(&mut self, query: Query, rng: &mut R) -> QueryOutput {
        self.execute_budgeted(query, rng, ProbeBudget::unlimited())
            .expect("invariant: an unlimited budget cannot abort")
    }

    /// [`QuerySession::execute`] under a cancellation budget. On abort,
    /// the **drain-to-clean invariant survives**: the partial
    /// contributions the aborted probes left in the pooled accumulator
    /// and workspace are discarded in O(touched), restoring exactly the
    /// state a fresh query expects.
    fn execute_budgeted<R: Rng>(
        &mut self,
        query: Query,
        rng: &mut R,
        probe_budget: ProbeBudget,
    ) -> Result<QueryOutput, QueryError> {
        let u = query.node();
        let n = self.graph.num_nodes();
        let config = self.engine.config();
        let budget = config.budget();
        let nr = config.num_walks(n).max(1);
        let params = ProbeParams {
            sqrt_c: config.sqrt_decay(),
            epsilon_p: budget.pruning,
        };
        let mut stats = QueryStats::default();
        // Arm the budget for this query only; the workspace reverts to
        // unlimited below so a later plain `run` is never throttled.
        self.ws.budget = probe_budget;
        let run = if config.optimizations.batch_walks {
            self.engine.run_batched(
                &self.graph,
                u,
                nr,
                &params,
                budget.walk_cap,
                &mut self.ws,
                &mut self.acc,
                &mut stats,
                rng,
            )
        } else {
            self.engine.run_unbatched(
                &self.graph,
                u,
                nr,
                &params,
                budget.walk_cap,
                &mut self.ws,
                &mut self.acc,
                &mut stats,
                rng,
            )
        };
        self.ws.budget = ProbeBudget::unlimited();
        if let Err(exceeded) = run {
            // Abort cleanup: level buffers are version-stamp cleared and
            // the accumulator's partial scores drained away, restoring
            // the clean-slab invariant the next query relies on. Totals
            // still count the aborted work — it was really spent.
            self.ws.reset();
            self.acc.reset();
            self.total_stats.merge(&stats);
            return Err(match exceeded {
                BudgetExceeded::Deadline => QueryError::DeadlineExceeded { partial: stats },
                BudgetExceeded::Work => QueryError::WorkBudgetExceeded { partial: stats },
            });
        }
        // Drain extracts the touched entries in ascending node order and
        // restores the accumulator's clean invariant in the same pass.
        let mut entries: Vec<(NodeId, f64)> = Vec::with_capacity(self.last_touched);
        self.acc.drain_into(u, &mut entries);
        self.last_touched = entries.len();
        self.total_stats.merge(&stats);
        self.queries_run += 1;
        Ok(QueryOutput {
            query,
            scores: SparseScores::new(u, n, entries),
            stats,
        })
    }
}

impl<G: GraphView> std::fmt::Debug for QuerySession<G> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("QuerySession")
            .field("config", self.engine.config())
            .field("num_nodes", &self.graph.num_nodes())
            .field("queries_run", &self.queries_run)
            .finish_non_exhaustive()
    }
}

impl ProbeSim {
    /// Creates a reusable [`QuerySession`] bound to `graph`.
    ///
    /// `graph` is held by value, so both modes work through the one
    /// entry point:
    ///
    /// * `engine.session(&graph)` — borrow a `CsrGraph` /
    ///   `GraphStore` (the classic mode; the borrow checker keeps the
    ///   graph alive and un-mutated for the session's lifetime);
    /// * `engine.session(store.snapshot())` — own a
    ///   `GraphSnapshot`: the session is `'static`, can move across
    ///   threads, and can never observe [`QueryError::GraphResized`].
    pub fn session<G: GraphView>(&self, graph: G) -> QuerySession<G> {
        QuerySession::new(self, graph)
    }

    /// Executes a batch of queries across `threads` worker threads, each
    /// with its own pooled [`QuerySession`]; outputs come back in input
    /// order with merged [`QueryStats`].
    ///
    /// `threads = 0` picks the machine's available parallelism (capped at
    /// 8). Every query is validated before any work starts, and per-query
    /// RNG derivation makes the answers identical to sequential
    /// execution. Passing a `probesim_graph::GraphSnapshot` answers the
    /// whole batch against its one pinned version, even while a writer
    /// keeps updating the store that published it.
    pub fn par_batch<G: GraphView + Sync>(
        &self,
        graph: &G,
        queries: &[Query],
        threads: usize,
    ) -> Result<BatchOutput, QueryError> {
        for query in queries {
            validate(graph, query)?;
        }
        let threads = if threads == 0 {
            crate::par::default_threads()
        } else {
            threads
        };
        // One pooled session per worker: scratch is allocated once per
        // thread, not once per query.
        let outputs = crate::par::ordered_map_with(
            queries.len(),
            threads,
            || self.session(graph),
            |session, i| session.run_validated(queries[i]),
        );
        let mut stats = QueryStats::default();
        for output in &outputs {
            stats.merge(&output.stats);
        }
        Ok(BatchOutput { outputs, stats })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ProbeStrategy;
    use probesim_graph::toy::{toy_graph, A, D, TOY_DECAY};
    use probesim_graph::CsrGraph;

    fn engine(epsilon: f64) -> ProbeSim {
        ProbeSim::new(ProbeSimConfig::new(TOY_DECAY, epsilon, 0.01).with_seed(0xBEEF))
    }

    #[test]
    fn session_reuse_matches_fresh_engine() {
        let g = toy_graph();
        let e = engine(0.05);
        let mut session = e.session(&g);
        let first = session.run(Query::SingleSource { node: A }).unwrap();
        let second = session.run(Query::SingleSource { node: D }).unwrap();
        // Two sequential queries on one session == two fresh-engine queries.
        assert_eq!(first.scores.to_dense(), e.single_source(&g, A).scores);
        assert_eq!(second.scores.to_dense(), e.single_source(&g, D).scores);
        assert_eq!(session.queries_run(), 2);
        assert_eq!(
            session.total_stats().walks,
            first.stats.walks + second.stats.walks
        );
    }

    #[test]
    fn repeating_a_query_on_one_session_is_deterministic() {
        let g = toy_graph();
        let mut session = engine(0.1).session(&g);
        let a = session.run(Query::SingleSource { node: A }).unwrap();
        let b = session.run(Query::SingleSource { node: A }).unwrap();
        assert_eq!(a.scores, b.scores);
    }

    #[test]
    fn sparse_scores_are_sparse() {
        // Star graph: a query on a leaf touches few of the 100 nodes.
        let n = 100u32;
        let edges: Vec<(u32, u32)> = (1..n).map(|v| (0, v)).collect();
        let g = CsrGraph::from_edges(n as usize, &edges);
        let mut session =
            ProbeSim::new(crate::ProbeSimConfig::new(0.6, 0.1, 0.01).with_seed(3)).session(&g);
        let out = session.run(Query::SingleSource { node: 1 }).unwrap();
        assert!(out.scores.len() < n as usize);
        let dense = out.scores.to_dense();
        let touched = dense
            .iter()
            .enumerate()
            .filter(|&(v, &s)| v != 1 && s > 0.0)
            .count();
        assert_eq!(out.scores.len(), touched, "entry count == touched nodes");
    }

    #[test]
    fn sparse_accessors_agree_with_dense() {
        let g = toy_graph();
        let mut session = engine(0.05).session(&g);
        let out = session.run(Query::SingleSource { node: A }).unwrap();
        let dense = out.scores.to_dense();
        for v in 0..8u32 {
            assert_eq!(out.scores.score(v).to_bits(), dense[v as usize].to_bits());
        }
        assert_eq!(out.scores.score(A), 1.0);
        // iter() yields exactly the touched non-query entries.
        for (v, s) in out.scores.iter() {
            assert_eq!(dense[v as usize].to_bits(), s.to_bits());
            assert_ne!(v, A);
        }
        // top_k matches the dense ranking.
        assert_eq!(out.scores.top_k(3), crate::top_k_from_scores(&dense, A, 3));
    }

    #[test]
    fn top_k_pads_with_untouched_nodes() {
        // Node 0 has one in-neighbor; most nodes are unreachable, so a
        // large k must pad with zero-scored nodes like the dense path.
        let g = CsrGraph::from_edges(6, &[(1, 0), (1, 2)]);
        let mut session = engine(0.05).session(&g);
        let out = session.run(Query::TopK { node: 0, k: 5 }).unwrap();
        let ranking = out.ranking();
        assert_eq!(ranking.len(), 5);
        let dense = out.scores.to_dense();
        assert_eq!(ranking, crate::top_k_from_scores(&dense, 0, 5));
    }

    #[test]
    fn threshold_query_filters() {
        let g = toy_graph();
        let mut session = engine(0.03).session(&g);
        let out = session.run(Query::Threshold { node: A, tau: 0.1 }).unwrap();
        let ranking = out.ranking();
        assert!(ranking.iter().all(|&(_, s)| s > 0.1));
        // Table 2: d (0.131) is the only node above 0.1.
        assert_eq!(ranking[0].0, D);
        // And against the dense reference filter.
        let dense = out.clone().into_single_source();
        let mut reference = dense.above_threshold(0.1);
        reference
            .sort_unstable_by(|a, b| b.1.partial_cmp(&a.1).unwrap().then_with(|| a.0.cmp(&b.0)));
        assert_eq!(ranking, reference);
    }

    #[test]
    fn validation_covers_every_error_variant() {
        let g = toy_graph();
        let empty = CsrGraph::from_edges(0, &[]);
        assert_eq!(
            validate(&empty, &Query::SingleSource { node: 0 }),
            Err(QueryError::EmptyGraph)
        );
        assert_eq!(
            validate(&g, &Query::SingleSource { node: 8 }),
            Err(QueryError::NodeOutOfRange {
                node: 8,
                num_nodes: 8
            })
        );
        assert_eq!(
            validate(&g, &Query::TopK { node: A, k: 0 }),
            Err(QueryError::InvalidK { k: 0 })
        );
        assert!(matches!(
            validate(
                &g,
                &Query::Threshold {
                    node: A,
                    tau: f64::NAN
                }
            ),
            Err(QueryError::InvalidThreshold { tau }) if tau.is_nan()
        ));
        assert_eq!(
            validate(&g, &Query::Threshold { node: A, tau: -0.5 }),
            Err(QueryError::InvalidThreshold { tau: -0.5 })
        );
        assert!(validate(&g, &Query::SingleSource { node: A }).is_ok());
    }

    /// A graph whose node count can grow behind a shared borrow — a
    /// [`GraphView`] implemented outside the workspace that outruns a
    /// session's slab sizing (e.g. a service holding the graph in a lock
    /// and recreating sessions lazily). Atomic-backed so a shared borrow
    /// can grow it.
    struct GrowableGraph {
        inner: CsrGraph,
        extra_nodes: std::sync::atomic::AtomicUsize,
    }

    impl GraphView for GrowableGraph {
        fn num_nodes(&self) -> usize {
            self.inner.num_nodes() + self.extra_nodes.load(std::sync::atomic::Ordering::Relaxed)
        }
        fn num_edges(&self) -> usize {
            self.inner.num_edges()
        }
        fn in_neighbors(&self, v: NodeId) -> &[NodeId] {
            if (v as usize) < self.inner.num_nodes() {
                self.inner.in_neighbors(v)
            } else {
                &[]
            }
        }
        fn out_neighbors(&self, v: NodeId) -> &[NodeId] {
            if (v as usize) < self.inner.num_nodes() {
                self.inner.out_neighbors(v)
            } else {
                &[]
            }
        }
    }

    #[test]
    fn graph_growth_after_session_creation_is_an_error_not_oob() {
        let graph = GrowableGraph {
            inner: toy_graph(),
            extra_nodes: std::sync::atomic::AtomicUsize::new(0),
        };
        let e = engine(0.1);
        let mut session = e.session(&graph);
        assert!(session.run(Query::SingleSource { node: A }).is_ok());

        // The graph grows underneath the live session.
        graph
            .extra_nodes
            .store(4, std::sync::atomic::Ordering::Relaxed);
        let err = session.run(Query::SingleSource { node: A }).unwrap_err();
        assert_eq!(
            err,
            QueryError::GraphResized {
                session_nodes: 8,
                graph_nodes: 12,
            }
        );
        // Batches hit the same guard, before any per-query validation.
        assert_eq!(
            session
                .run_batch(&[Query::SingleSource { node: A }])
                .unwrap_err(),
            err
        );
        assert_eq!(session.queries_run(), 1, "no execution after the resize");

        // A fresh session sized for the grown graph works again — and can
        // query the new (isolated) nodes.
        let mut rebound = e.session(&graph);
        assert!(rebound.run(Query::SingleSource { node: A }).is_ok());
        let out = rebound.run(Query::SingleSource { node: 11 }).unwrap();
        assert!(out.scores.is_empty(), "isolated node touches nothing");
    }

    #[test]
    fn owned_snapshot_session_matches_borrowed_and_survives_writer_churn() {
        use probesim_graph::{GraphStore, GraphUpdate};
        let g = toy_graph();
        let mut store = GraphStore::from_view(&g);
        let e = engine(0.05);

        // Owned snapshot session == borrowed CsrGraph session, bit for bit.
        let snap = store.snapshot();
        let owned = e
            .session(snap)
            .run(Query::SingleSource { node: A })
            .unwrap();
        let borrowed = e.session(&g).run(Query::SingleSource { node: A }).unwrap();
        assert_eq!(owned.scores, borrowed.scores);
        assert_eq!(owned.stats, borrowed.stats);

        // A long-lived owned session keeps answering its pinned version
        // while the writer mutates and compacts underneath.
        let mut pinned = e.session(store.snapshot());
        let before = pinned.run(Query::SingleSource { node: A }).unwrap();
        store.apply_all((0..8u32).map(|v| GraphUpdate::Remove {
            u: v,
            v: (v + 1) % 8,
        }));
        store.compact();
        let after = pinned.run(Query::SingleSource { node: A }).unwrap();
        assert_eq!(before.scores, after.scores, "snapshot isolation broken");
        assert_eq!(pinned.queries_run(), 2);
    }

    #[test]
    fn par_batch_matches_sequential_on_snapshots() {
        use probesim_graph::GraphStore;
        let g = toy_graph();
        let store = GraphStore::from_view(&g);
        let snap = store.snapshot();
        let e = engine(0.08);
        let queries: Vec<Query> = (0..8).map(|v| Query::SingleSource { node: v }).collect();
        let sequential = e.session(&g).run_batch(&queries).unwrap();
        for threads in [0, 1, 2, 4] {
            let parallel = e.par_batch(&snap, &queries, threads).unwrap();
            assert_eq!(parallel.outputs, sequential.outputs, "threads = {threads}");
            assert_eq!(parallel.stats, sequential.stats);
        }
        // Validation still runs up front.
        let err = e
            .par_batch(&snap, &[Query::TopK { node: A, k: 0 }], 2)
            .unwrap_err();
        assert_eq!(err, QueryError::InvalidK { k: 0 });
    }

    #[test]
    fn query_error_display_is_actionable() {
        let messages = [
            QueryError::NodeOutOfRange {
                node: 9,
                num_nodes: 8,
            }
            .to_string(),
            QueryError::EmptyGraph.to_string(),
            QueryError::InvalidK { k: 0 }.to_string(),
            QueryError::InvalidThreshold { tau: -1.0 }.to_string(),
            QueryError::GraphResized {
                session_nodes: 8,
                graph_nodes: 12,
            }
            .to_string(),
        ];
        assert!(messages[0].contains("out of range"));
        assert!(messages[1].contains("empty graph"));
        assert!(messages[2].contains("k >= 1"));
        assert!(messages[3].contains("tau"));
        assert!(messages[4].contains("grew from 8 to 12"));
        assert!(messages[4].contains("new session"));
    }

    #[test]
    fn run_batch_matches_individual_runs_and_merges_stats() {
        let g = toy_graph();
        let e = engine(0.08);
        let queries = [
            Query::SingleSource { node: A },
            Query::TopK { node: D, k: 2 },
            Query::SingleSource { node: 3 },
        ];
        let batch = e.session(&g).run_batch(&queries).unwrap();
        assert_eq!(batch.outputs.len(), 3);
        let mut expected_stats = QueryStats::default();
        for (query, output) in queries.iter().zip(&batch.outputs) {
            let solo = e.session(&g).run(*query).unwrap();
            assert_eq!(&solo, output);
            expected_stats.merge(&solo.stats);
        }
        assert_eq!(batch.stats, expected_stats);
    }

    #[test]
    fn run_batch_rejects_before_running_anything() {
        let g = toy_graph();
        let mut session = engine(0.1).session(&g);
        let err = session
            .run_batch(&[
                Query::SingleSource { node: A },
                Query::SingleSource { node: 99 },
            ])
            .unwrap_err();
        assert!(matches!(err, QueryError::NodeOutOfRange { node: 99, .. }));
        assert_eq!(session.queries_run(), 0, "no partial execution");
    }

    #[test]
    fn par_batch_matches_sequential_in_input_order() {
        let g = toy_graph();
        let e = engine(0.08);
        let queries: Vec<Query> = (0..8).map(|v| Query::SingleSource { node: v }).collect();
        let sequential = e.session(&g).run_batch(&queries).unwrap();
        for threads in [0, 1, 2, 4] {
            let parallel = e.par_batch(&g, &queries, threads).unwrap();
            assert_eq!(parallel.outputs, sequential.outputs, "threads = {threads}");
            assert_eq!(parallel.stats, sequential.stats);
        }
    }

    #[test]
    fn par_batch_validates_up_front() {
        let g = toy_graph();
        let e = engine(0.1);
        let err = e
            .par_batch(
                &g,
                &[
                    Query::SingleSource { node: A },
                    Query::TopK { node: A, k: 0 },
                ],
                4,
            )
            .unwrap_err();
        assert_eq!(err, QueryError::InvalidK { k: 0 });
    }

    #[test]
    fn mixed_query_kinds_in_one_parallel_batch() {
        let g = toy_graph();
        let e = engine(0.05);
        let queries = [
            Query::TopK { node: A, k: 1 },
            Query::Threshold { node: A, tau: 0.1 },
            Query::SingleSource { node: D },
        ];
        let batch = e.par_batch(&g, &queries, 3).unwrap();
        assert_eq!(batch.outputs[0].ranking()[0].0, D);
        assert!(batch.outputs[1].ranking().iter().all(|&(_, s)| s > 0.1));
        assert_eq!(batch.outputs[2].scores.query(), D);
    }

    #[test]
    fn all_strategies_round_trip_through_sparse() {
        let g = toy_graph();
        for strategy in [
            ProbeStrategy::Deterministic,
            ProbeStrategy::Randomized,
            ProbeStrategy::Hybrid,
        ] {
            for batch_walks in [false, true] {
                let mut cfg = ProbeSimConfig::new(TOY_DECAY, 0.06, 0.01).with_seed(0xBEEF);
                cfg.optimizations.strategy = strategy;
                cfg.optimizations.batch_walks = batch_walks;
                let e = ProbeSim::new(cfg);
                let sparse = e
                    .session(&g)
                    .run(Query::SingleSource { node: A })
                    .unwrap()
                    .scores
                    .to_dense();
                let reference = e.single_source_dense_reference(&g, A).scores;
                assert_eq!(sparse, reference, "{strategy:?} batch={batch_walks}");
            }
        }
    }
}
