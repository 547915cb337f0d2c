#![warn(missing_docs)]
//! # probesim-datasets
//!
//! Synthetic graph workloads for the ProbeSim reproduction.
//!
//! The paper evaluates on eight public datasets (Table 3: Wiki-Vote, HepTh,
//! AS, HepPh, LiveJournal, IT-2004, Twitter, Friendster). Those downloads are
//! not available in this environment, so this crate provides *seeded
//! synthetic analogues* that control the structural properties the SimRank
//! algorithms are sensitive to:
//!
//! * `n`, `m` and therefore average degree (drives walk and probe cost),
//! * in-degree skew (power-law graphs are where randomized PROBE shines),
//! * local density (the paper's "locally dense" Wiki-Vote/Twitter cases,
//!   where priority-based TopSim variants degrade),
//! * directedness (HepTh is undirected; everything else directed).
//!
//! Generators:
//!
//! * [`gens::erdos_renyi`] — the G(n, m) baseline with no skew.
//! * [`gens::preferential_attachment`] — Barabási–Albert-style citation /
//!   collaboration graphs (HepTh-, HepPh-like).
//! * [`gens::chung_lu`] — directed graphs with a prescribed power-law
//!   in-degree distribution (AS-, LiveJournal-, Friendster-like).
//! * [`gens::copying_model`] — Kleinberg copying model for web graphs
//!   (IT-2004-like).
//! * [`gens::locally_dense`] — planted dense blocks plus a zero-in-degree fringe
//!   (Wiki-Vote-, Twitter-like "locally dense" structure).
//!
//! [`registry`] maps each paper dataset to a generator configuration at a
//! configurable scale; the benchmark harness names datasets exactly as the
//! paper does.
//!
//! For dynamic workloads, [`stream`] generates seeded update streams
//! ([`stream::SlidingWindowStream`]) that the benchmark scenarios and
//! churn tests replay against a live `GraphStore`.

pub mod alias;
pub mod gens;
pub mod powerlaw;
pub mod registry;
pub mod stream;

pub use alias::AliasTable;
pub use registry::{Dataset, DatasetSpec, Scale};
pub use stream::{sliding_window_workload, SlidingWindowStream};
