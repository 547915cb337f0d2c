#![warn(missing_docs)]
//! # probesim-eval
//!
//! The evaluation harness for the ProbeSim reproduction: everything
//! Section 6 of the paper needs that is not itself a SimRank algorithm.
//!
//! * [`metrics`] — AbsError, Precision@k, NDCG@k, Kendall τk, using the
//!   paper's exact formulas.
//! * [`groundtruth`] — exact SimRank oracle (Power Method) for the
//!   small-graph experiments.
//! * [`pooling`] — IR-style pooling with a Monte Carlo "expert" for the
//!   large-graph experiments.
//! * [`queries`] — query-node sampling (uniform over nonzero in-degree).
//! * [`algorithms`] — one trait, [`algorithms::SimRankAlgorithm`], adapting
//!   ProbeSim, MC, TSF and the TopSim family so a harness loop can sweep
//!   them uniformly.
//! * [`parallel`] — scoped-thread fan-out for query sweeps.
//! * [`runner`] — timing, aggregation and table-formatting helpers.

pub mod algorithms;
pub mod groundtruth;
pub mod metrics;
pub mod parallel;
pub mod pooling;
pub mod queries;
pub mod runner;

pub use algorithms::{
    FingerprintAlgo, McAlgo, ProbeSimAlgo, SimRankAlgorithm, TopSimAlgo, TsfAlgo,
};
pub use groundtruth::GroundTruth;
pub use parallel::run_queries;
pub use pooling::Pool;
pub use queries::{sample_query_nodes, ZipfRanks};
pub use runner::{human_bytes, human_secs, timed, Aggregate};
