#![warn(missing_docs)]
//! # probesim-core
//!
//! The ProbeSim algorithm (Liu et al., PVLDB 2017): index-free approximate
//! single-source and top-k SimRank with an absolute-error guarantee.
//!
//! Given a query node `u`, an error bound `εa` and a failure probability
//! `δ`, ProbeSim returns estimates `s̃(u, v)` such that
//! `|s̃(u, v) − s(u, v)| ≤ εa` for all `v` simultaneously with probability
//! at least `1 − δ` — with **no precomputed index**, which is what makes
//! real-time queries on dynamic graphs possible.
//!
//! ## The session API
//!
//! The query surface is built around [`session::QuerySession`]: a
//! reusable, graph-bound execution context that owns the pooled scratch
//! memory (PROBE workspace + score accumulator) and the RNG stream.
//! Queries are [`Query`] values executed with
//! [`session::QuerySession::run`], which returns a [`QueryOutput`]
//! carrying [`SparseScores`] — only the touched `(node, score)` pairs,
//! `O(touched)` memory instead of `O(n)` — or a typed [`QueryError`] for
//! invalid input.
//!
//! ```
//! use probesim_core::{ProbeSim, ProbeSimConfig, Query};
//! use probesim_graph::toy::{toy_graph, A, TOY_DECAY};
//! use probesim_graph::GraphView;
//!
//! let graph = toy_graph();
//! let engine = ProbeSim::new(ProbeSimConfig::new(TOY_DECAY, 0.05, 0.01).with_seed(7));
//!
//! // One session, many queries: scratch memory is allocated once and
//! // reset in O(touched) between queries.
//! let mut session = engine.session(&graph);
//! let top = session.run(Query::TopK { node: A, k: 1 })?;
//! // d is the most similar node to a (Table 2 of the paper).
//! assert_eq!(top.ranking()[0].0, probesim_graph::toy::D);
//!
//! let sparse = session.run(Query::SingleSource { node: A })?;
//! assert!(sparse.scores.len() < graph.num_nodes()); // touched nodes only
//! assert_eq!(sparse.scores.score(A), 1.0);
//!
//! // Batches: sequential on one session, or parallel across per-thread
//! // sessions with outputs in input order.
//! let queries: Vec<Query> = (0..4).map(|v| Query::SingleSource { node: v }).collect();
//! let batch = engine.par_batch(&graph, &queries, 2)?;
//! assert_eq!(batch.outputs.len(), 4);
//! # Ok::<(), probesim_core::QueryError>(())
//! ```
//!
//! One-shot convenience wrappers ([`ProbeSim::single_source`],
//! [`ProbeSim::top_k`] and their fallible `try_` variants) spin up a
//! throwaway session and, for the dense view, materialize
//! [`SingleSourceResult`] — the paper-reproduction benches keep using
//! them.
//!
//! ## Cooperative cancellation
//!
//! Index-free queries decide their cost *while running*, so a serving
//! tier needs a way to bound one: [`session::QuerySession::run_with_budget`]
//! executes under a [`ProbeBudget`] — a wall-clock deadline and/or a
//! deterministic work cap — checked between level expansions in both
//! probe engines. An exceeded budget aborts cooperatively as
//! [`QueryError::DeadlineExceeded`] / [`QueryError::WorkBudgetExceeded`]
//! carrying the partial counters, and the session stays fully reusable:
//! the next query is bit-identical to one on a fresh session (the
//! abort-safety property tests pin this down for every engine tier and
//! backend).
//!
//! ## How it works
//!
//! SimRank equals the meeting probability of two √c-walks (random walks
//! along in-edges that die with probability `1 − √c` per step). ProbeSim
//! samples `nr = (3c/ε²)·ln(n/δ)` walks from `u` only; for each walk prefix
//! `(u1..ui)` it runs **PROBE** — a forward traversal from `ui` that computes
//! for *every* node `v` the exact probability that a √c-walk from `v` first
//! meets the prefix at `ui` ([`probe::deterministic`]). Summing probe scores
//! within a trial and averaging across trials yields an unbiased estimator
//! (Lemma 1 of the paper).
//!
//! ## Optimizations (Section 4 of the paper, plus the fused engine)
//!
//! * walk truncation and score pruning ([`config::ErrorBudget`],
//!   pruning rules 1 & 2),
//! * batching walks in a reverse-reachability trie so shared prefixes are
//!   probed once ([`trie::WalkTrie`]),
//! * a randomized O(n) PROBE ([`probe::randomized`]) and the
//!   deterministic→randomized hybrid ([`probe::hybrid`]) that gives the
//!   `O(n/εa²·log(n/δ))` worst case with deterministic speed on the
//!   common path.
//!
//! ### The three probe-batching tiers
//!
//! PROBE traversals dominate query cost, and three batching tiers trade
//! increasingly more shared work for them:
//!
//! 1. **Per walk** (Algorithm 1; `batch_walks = false`) — every prefix of
//!    every √c-walk runs an independent probe.
//! 2. **Per distinct prefix** (Algorithm 3; `batch_walks = true`,
//!    `fuse_probes = false`) — walks sharing a prefix are probed once,
//!    scaled by the prefix weight. A graph node reached at the same
//!    position by *different* prefixes is still re-expanded per prefix.
//! 3. **Fused frontiers** ([`frontier`]; `fuse_probes = true`, the
//!    default) — the whole query runs as one level-synchronous weighted
//!    sweep over the trie, expanding each distinct `(node, trie
//!    position)` at most once. Deterministic math is equivalent up to
//!    floating-point association; randomized draws get a
//!    weight-proportional trial budget so unbiasedness and concentration
//!    are preserved. [`QueryStats::frontier_merges`] counts the
//!    expansions tier 2 would have repeated.
//!
//! Tier 3 helps most on probe-heavy workloads — locally dense graphs,
//! tight `εa` (many walks → heavy prefix sharing), long walks — where the
//! same frontier regions are re-expanded by many prefixes; run
//! `probesim-bench --scenarios probe_static_fused,probe_static_legacy
//! --contrast out.json` (or the `probesim` CLI's `--probe-path
//! fused|legacy`) to A/B the tiers on identical seeds and compare
//! `edges_expanded`/`total_work`.
//!
//! ## One run answers every query kind
//!
//! The per-query RNG is keyed by `(seed, query node)` only, and every
//! query kind computes the same sparse single-source estimates: a
//! `TopK` or `Threshold` query is a `SingleSource` run plus a view over
//! its [`SparseScores`] ([`QueryOutput::ranking`]). The answer for a
//! source is therefore a pure function of `(edge set, config, seed,
//! source)`, which is what lets the serving tier cache one run per
//! `(store version, source)` and answer all three kinds from it,
//! bit-identical to a fresh execution. ProbeSim itself stays
//! index-free: nothing is precomputed, and nothing survives a graph
//! update except results pinned to an older version.

pub mod accum;
pub mod budget;
pub mod config;
pub mod frontier;
pub mod par;
pub mod probe;
pub mod result;
pub mod session;
pub mod single_source;
pub mod topk;
pub mod trie;
pub mod walk;
pub mod workspace;

pub use accum::ScoreSink;
pub use budget::{BudgetExceeded, ProbeBudget};
pub use config::{ErrorBudget, Optimizations, ProbeSimConfig, ProbeStrategy};
pub use result::{QueryStats, SingleSourceResult};
pub use session::{BatchOutput, Query, QueryError, QueryOutput, QuerySession, SparseScores};
pub use single_source::ProbeSim;
pub use topk::top_k_from_scores;
pub use trie::WalkTrie;
