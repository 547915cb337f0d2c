#![warn(missing_docs)]
//! # probesim-service
//!
//! The **fourth tier** of the ProbeSim stack — the serving facade that
//! composes the single-process system behind one handle (the fifth
//! tier, `probesim-fleet`, replicates this service behind a durable
//! update log and a consistency-aware router):
//!
//! 1. **storage** (`probesim-graph`): the versioned [`GraphStore`] — CSR
//!    base + copy-on-write overlay, snapshot isolation, compaction;
//! 2. **probe** (`probesim-core`): the index-free ProbeSim engines
//!    (legacy per-prefix and fused level-synchronous frontiers);
//! 3. **session** (`probesim-core`): pooled scratch, sparse results,
//!    typed errors;
//! 4. **service** (this crate): [`QueryService`] — worker pool, request
//!    queue with priorities, per-request deadlines and work caps,
//!    consistency levels, and a `(version, source)` result cache.
//!
//! ## The lifecycle of a request
//!
//! [`QueryService::submit`] timestamps the [`Request`] and enqueues it
//! (interactive ahead of batch); a worker dequeues it and:
//!
//! 1. **deadline** — if the request's deadline (queue wait included)
//!    already passed, it fails fast with
//!    `QueryError::DeadlineExceeded` and zero partial work;
//! 2. **resolve** — the [`Consistency`] level picks the snapshot:
//!    `Latest` takes the newest published version, `AtLeastVersion(v)`
//!    additionally demands the clock reached `v`, `Pinned(v)` resolves
//!    inside the retention window or fails;
//! 3. **cache** — the query is validated against the snapshot, then
//!    `(version, source)` is looked up in the LRU result cache. One
//!    entry answers every query kind for its source, because all three
//!    kinds run the same single-source estimate and differ only in the
//!    view over its scores. A hit returns immediately (`cache_hit:
//!    true`, bit-identical to fresh execution at that version by
//!    construction, zero probe work);
//! 4. **execute** — a miss runs on the worker's pooled session
//!    (rebound across versions without reallocating scratch) under a
//!    [`probesim_core::ProbeBudget`] armed with the remaining deadline
//!    and the work cap; a cooperative abort surfaces as
//!    `DeadlineExceeded`/`WorkBudgetExceeded` with partial counters and
//!    leaves the session reusable;
//! 5. **respond** — the [`Response`] reports the answering version, the
//!    queue/exec latency split and `cache_hit`.
//!
//! Writer side, [`QueryService::commit`] mutates the owned store — which
//! fires the cache-invalidation observer *inside* `GraphStore::mutate` —
//! then publishes a fresh snapshot and extends the pinned-version
//! retention ring, returning a [`Commit`] token whose `version` can be
//! handed straight to `Consistency::AtLeastVersion` for read-your-writes.
//! Because every effective mutation bumps the version, `Latest` can
//! never be served a stale cache entry: the stale entry's key simply no
//! longer matches.
//!
//! ```
//! use std::time::Duration;
//! use probesim_core::{ProbeSimConfig, Query};
//! use probesim_graph::{toy::toy_graph, GraphStore, GraphUpdate};
//! use probesim_service::{Consistency, Priority, Request, ServiceBuilder};
//!
//! let service = ServiceBuilder::new(ProbeSimConfig::new(0.36, 0.05, 0.01).with_seed(7))
//!     .workers(2)
//!     .cache_capacity(256)
//!     .retained_versions(4)
//!     .build(GraphStore::from_view(&toy_graph()));
//!
//! // A deadline-armed interactive query.
//! let response = service
//!     .call(
//!         Request::new(Query::TopK { node: 0, k: 3 })
//!             .with_deadline(Duration::from_millis(250))
//!             .with_priority(Priority::Interactive),
//!     )
//!     .unwrap();
//! assert_eq!(response.version, 0);
//!
//! // The writer keeps updating; a pinned request still reads version 0.
//! let commit = service.commit(GraphUpdate::Insert { u: 0, v: 5 });
//! assert!(commit.was_effective() && commit.version == 1);
//! let pinned = service
//!     .call(Request::new(Query::TopK { node: 0, k: 3 }).with_consistency(Consistency::Pinned(0)))
//!     .unwrap();
//! assert!(pinned.cache_hit, "same version + source => served from cache");
//! // Another kind on the same source shares the entry.
//! let threshold = service
//!     .call(
//!         Request::new(Query::Threshold { node: 0, tau: 0.1 })
//!             .with_consistency(Consistency::Pinned(0)),
//!     )
//!     .unwrap();
//! assert!(threshold.cache_hit);
//! assert_eq!(threshold.output.scores, pinned.output.scores);
//! ```

pub mod cache;
pub mod request;
pub mod service;

pub use cache::ResultCache;
pub use request::{
    Consistency, ParseConsistencyError, Priority, Request, Response, ServiceError, Ticket,
};
pub use service::{QueryService, ServiceBuilder, ServiceStats};

// Re-exported so service callers need no direct probesim-graph dep for
// the common writer-path types.
pub use probesim_graph::{Commit, GraphSnapshot, GraphStore, GraphUpdate};
