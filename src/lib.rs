#![warn(missing_docs)]
//! # probesim
//!
//! A complete Rust implementation of **ProbeSim** (Liu, Zheng, He, Wei,
//! Xiao, Zheng, Lu — *Scalable Single-Source and Top-k SimRank Computations
//! on Dynamic Graphs*, PVLDB 11(1), 2017), together with every substrate
//! and baseline its evaluation depends on.
//!
//! This crate is a facade re-exporting the workspace:
//!
//! * [`graph`] — CSR + dynamic graph substrate ([`probesim_graph`])
//! * [`datasets`] — synthetic workload generators ([`probesim_datasets`])
//! * [`core`] — the ProbeSim algorithm and its session-based query API
//!   ([`probesim_core`])
//! * [`baselines`] — Power Method, Monte Carlo, TSF, TopSim family
//!   ([`probesim_baselines`])
//! * [`eval`] — metrics, ground truth, pooling ([`probesim_eval`])
//! * [`service`] — the serving facade: `QueryService` with deadlines,
//!   consistency levels and a `(version, source)` result cache
//!   ([`probesim_service`])
//! * [`fleet`] — the replicated serving fleet: a durable update log,
//!   log-tailing replicas and a consistency-aware router behind one
//!   `Fleet` handle, fault-tolerant via checkpointed crash recovery,
//!   log salvage, seeded fault injection and a supervising respawn
//!   loop ([`probesim_fleet`])
//!
//! ## Quick start
//!
//! Queries run through a [`QuerySession`](prelude::QuerySession): a
//! reusable, graph-bound context owning all scratch memory, returning
//! sparse `O(touched)` results and typed errors.
//!
//! ```
//! use probesim::prelude::*;
//!
//! // A small "who-follows-whom" graph.
//! let graph = GraphBuilder::new(5)
//!     .extend_edges(vec![(1, 0), (2, 0), (1, 3), (2, 3), (4, 1)])
//!     .build_csr();
//!
//! // Index-free single-source SimRank with |error| <= 0.05 w.p. 0.99.
//! let engine = ProbeSim::new(ProbeSimConfig::new(0.6, 0.05, 0.01));
//! let mut session = engine.session(&graph);
//!
//! // Nodes 0 and 3 share both in-neighbors => strongly similar
//! // (exact value c/2 = 0.3 here, since the shared parents are
//! // themselves dissimilar).
//! let result = session.run(Query::SingleSource { node: 0 })?;
//! assert!(result.scores.score(3) > 0.2);
//! assert!(result.scores.len() < graph.num_nodes()); // sparse: touched only
//!
//! // The same session answers more queries with zero reallocation.
//! let top = session.run(Query::TopK { node: 0, k: 1 })?;
//! assert_eq!(top.ranking()[0].0, 3);
//!
//! // Invalid input is an error value, not a panic.
//! assert!(matches!(
//!     session.run(Query::SingleSource { node: 99 }),
//!     Err(QueryError::NodeOutOfRange { node: 99, .. })
//! ));
//!
//! // Batches shard across per-thread sessions, outputs in input order.
//! let queries: Vec<Query> = (0..5).map(|v| Query::SingleSource { node: v }).collect();
//! let batch = engine.par_batch(&graph, &queries, 2)?;
//! assert_eq!(batch.outputs.len(), 5);
//! # Ok::<(), probesim::prelude::QueryError>(())
//! ```
//!
//! The one-shot wrappers `engine.single_source(&graph, u)` /
//! `engine.top_k(&graph, u, k)` remain for quick experiments and return
//! the legacy dense [`SingleSourceResult`](prelude::SingleSourceResult)
//! view.
//!
//! See `examples/` for runnable scenarios (recommendations, dynamic
//! streams, web-scale pooling) and `crates/bench` for the binaries that
//! regenerate every table and figure of the paper.

pub use probesim_baselines as baselines;
pub use probesim_core as core;
pub use probesim_datasets as datasets;
pub use probesim_eval as eval;
pub use probesim_fleet as fleet;
pub use probesim_graph as graph;
pub use probesim_service as service;

/// One-stop imports for applications.
pub mod prelude {
    pub use probesim_baselines::{
        MonteCarlo, PowerMethod, TopSim, TopSimConfig, TopSimVariant, Tsf, TsfConfig,
    };
    pub use probesim_core::{
        BatchOutput, Optimizations, ProbeBudget, ProbeSim, ProbeSimConfig, ProbeStrategy, Query,
        QueryError, QueryOutput, QuerySession, QueryStats, SingleSourceResult, SparseScores,
    };
    pub use probesim_datasets::{Dataset, Scale};
    pub use probesim_eval::{GroundTruth, Pool, SimRankAlgorithm};
    pub use probesim_fleet::{
        FaultPlan, Fleet, FleetBuilder, FleetError, LogCursor, LogRecord, ReplicaHealth,
        ReplicaRegistry, ReplicaStatus, SupervisorStats, UpdateLog,
    };
    pub use probesim_graph::{
        Commit, CompactionPolicy, CsrGraph, DynamicGraph, GraphBuilder, GraphSnapshot, GraphStore,
        GraphUpdate, GraphView, NodeId,
    };
    pub use probesim_service::{
        Consistency, Priority, Request, Response, ServiceBuilder, ServiceError, ServiceStats,
    };
}
