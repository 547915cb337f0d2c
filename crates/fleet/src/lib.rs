#![warn(missing_docs)]
//! # probesim-fleet
//!
//! The fifth tier of the ProbeSim stack — **storage → probe → session →
//! service → fleet** — turning the single-process
//! [`QueryService`](probesim_service::QueryService) into a replicated,
//! fault-tolerant serving group with one write path and
//! consistency-aware reads.
//!
//! The pieces:
//!
//! * [`UpdateLog`] — the replayable record of every effective mutation
//!   since the latest checkpoint, with blocking [`LogCursor`] tailing,
//!   a checksummed, truncation-detecting binary codec
//!   ([`encode_log`]/[`decode_log`]), and damage-tolerant **salvage**
//!   ([`salvage_log`], [`read_log_file_salvage`]) that recovers the
//!   longest valid prefix of a corrupted log with a typed
//!   [`SalvageReason`] for the cut. The supervisor truncates the prefix
//!   a checkpoint covers once every replica has applied it; a read
//!   below the retained range is the typed [`LogTruncated`] error;
//! * [`Checkpoint`] — a checksummed freeze of the store at an LSN, so
//!   recovery replays only the log suffix past it instead of all of
//!   history, and the log need not keep what it covers;
//! * [`Replica`] — a private store + service kept current by tailing
//!   the log in LSN order, publishing its applied version through the
//!   shared [`ReplicaRegistry`]; [`Replica::recover`] restores it from
//!   a checkpoint in place;
//! * a **supervisor** thread per fleet — checkpoint cadence and log
//!   truncation, a progress watchdog driving each replica's
//!   [`ReplicaHealth`], and bounded respawn of crashed tailers
//!   ([`SupervisorStats`] counts its work);
//! * [`FaultPlan`] — deterministic, seeded fault injection (crashes,
//!   stalls, slow applies, corrupt reads) for chaos-testing all of the
//!   above, reproducible from the seed alone;
//! * [`Fleet`] — the facade: [`Fleet::commit`] gives writers a
//!   [`Commit`] token (read-your-writes in one line), [`Fleet::call`]
//!   routes each request to an eligible, least-loaded, **routable**
//!   endpoint, retries with capped backoff when an endpoint dies under
//!   a request, and sheds load with typed [`FleetError`]s.
//!
//! The core invariant, inherited from the versioned store and enforced
//! on the write path: **LSN ≡ store version**. Every effective mutation
//! bumps exactly one log record and one store version, so "replica
//! applied LSN `v`" and "replica serves snapshot version `v`" are the
//! same statement, and any two endpoints at the same version return
//! bit-identical scores — before, during and after crash recovery.
//!
//! ```
//! use probesim_core::{ProbeSimConfig, Query};
//! use probesim_fleet::Fleet;
//! use probesim_graph::{CsrGraph, GraphUpdate};
//! use probesim_service::{Consistency, Request};
//!
//! let base = CsrGraph::from_edges(3, &[(0, 1), (1, 2)]);
//! let fleet = Fleet::builder(ProbeSimConfig::new(0.36, 0.05, 0.01).with_seed(7))
//!     .replicas(2)
//!     .build(base);
//!
//! // Write through the fleet, then read your own write.
//! let commit = fleet.commit(GraphUpdate::Insert { u: 2, v: 0 });
//! let response = fleet
//!     .call(
//!         Request::new(Query::SingleSource { node: 0 })
//!             .with_consistency(Consistency::AtLeastVersion(commit.version)),
//!     )
//!     .expect("a caught-up replica serves the read");
//! assert!(response.version >= commit.version);
//! ```

mod chaos;
mod checkpoint;
mod log;
mod registry;
mod replica;
mod router;
mod supervisor;

pub use crate::chaos::{FaultPlan, ReplicaFaults};
pub use crate::checkpoint::{
    decode_checkpoint, encode_checkpoint, read_checkpoint_file, write_checkpoint_file, Checkpoint,
};
pub use crate::log::{
    decode_log, encode_log, read_log_file, read_log_file_salvage, salvage_log, write_log_file,
    LogCursor, LogRecord, LogTruncated, Salvage, SalvageReason, UpdateLog,
};
pub use crate::registry::{ReplicaHealth, ReplicaRegistry};
pub use crate::replica::{RecoveryError, Replica};
pub use crate::router::{Fleet, FleetBuilder, FleetError, ReplicaStatus};
pub use crate::supervisor::SupervisorStats;

pub use probesim_graph::Commit;
