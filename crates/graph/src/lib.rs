#![warn(missing_docs)]
//! # probesim-graph
//!
//! Graph substrate for the ProbeSim SimRank library.
//!
//! This crate provides everything the SimRank algorithms need from a graph:
//!
//! * [`CsrGraph`] — an immutable, cache-friendly compressed-sparse-row graph
//!   storing *both* out-adjacency and in-adjacency (SimRank walks follow
//!   in-edges; PROBE traversals follow out-edges).
//! * [`GraphStore`] — the mutable graph: an immutable CSR base plus a
//!   per-node copy-on-write [`OverlayGraph`] under [`GraphUpdate`]
//!   insertions and deletions. ProbeSim is index-free, so queries run
//!   directly against the live store, or against the `Arc`-cheap
//!   [`GraphSnapshot`]s it publishes to reader threads while the single
//!   writer keeps applying updates; threshold-driven compaction folds the
//!   overlay back into a fresh CSR.
//! * [`GraphView`] — the trait they all implement; every algorithm in
//!   the workspace is generic over it.
//! * [`GraphBuilder`] — edge-list ingestion with de-duplication, self-loop
//!   removal and undirected symmetrization.
//! * [`io`] — plain-text and binary edge-list readers/writers.
//! * [`toy`] — the 8-node running-example graph of the paper (Figure 1),
//!   reverse-engineered from the worked PROBE example and validated against
//!   Table 2.
//! * [`hash`] — an FxHash-style hasher used throughout the workspace
//!   (integer-keyed hash maps are on every hot path; SipHash would dominate
//!   the profile).
//!
//! ## Storage tiers
//!
//! Two representations cover the read/write spectrum; both implement
//! [`GraphView`], so every algorithm runs on either unchanged and
//! returns bit-for-bit identical estimates for identical edge sets:
//!
//! | Tier | Mutability | Concurrency | Use when |
//! |---|---|---|---|
//! | [`CsrGraph`] | immutable | share `&` freely | static workloads, maximum query throughput |
//! | [`GraphStore`] | single writer | query the store between updates, or hand readers [`GraphSnapshot`]s that never block | graphs under edge updates |
//!
//! Both fix the node count at construction: updates change edges, never
//! the vertex set.
//!
//! The store's overlay keeps untouched nodes on the base's CSR slices,
//! materializes a touched node's adjacency as its own sorted vec, and
//! folds back into a fresh CSR when the touched fraction crosses the
//! [`CompactionPolicy`] threshold — without invalidating any published
//! snapshot. A snapshot reads through a dense per-node index built on
//! its first read, so its reads cost about what CSR reads cost.
//!
//! ## Conventions
//!
//! Nodes are dense `u32` identifiers in `0..n`. An edge `(u, v)` is directed
//! from `u` to `v`: `u ∈ I(v)` (u is an in-neighbor of v) and `v ∈ O(u)`.

pub mod builder;
pub mod csr;
pub mod error;
pub mod hash;
pub mod io;
pub mod overlay;
pub mod stats;
pub mod store;
pub mod toy;
pub mod view;

pub use builder::GraphBuilder;
pub use csr::CsrGraph;
pub use error::GraphError;
pub use hash::{FxHashMap, FxHashSet, FxHasher};
pub use overlay::OverlayGraph;
pub use stats::DegreeStats;
pub use store::{Commit, CompactionPolicy, GraphSnapshot, GraphStore, GraphUpdate};
pub use view::GraphView;

/// Dense node identifier. Graphs in this workspace address nodes as
/// `0..n`; `u32` keeps adjacency arrays compact (the paper's largest graph
/// has 68M nodes, well within `u32`).
pub type NodeId = u32;

/// A directed edge `(source, target)`; the walk-generating algorithms treat
/// `source` as an in-neighbor of `target`.
pub type Edge = (NodeId, NodeId);
