//! The service wire types: requests, responses, tickets and errors.

use std::sync::mpsc;
use std::sync::Arc;
use std::time::Duration;

use probesim_core::{Query, QueryError, QueryOutput};

/// Scheduling class of a request. Interactive requests are always
/// dequeued before batch requests (strict two-level priority, no aging —
/// a serving tier's batch lane is explicitly best-effort).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Priority {
    /// User-facing: jumps every queued batch request.
    #[default]
    Interactive,
    /// Best-effort: runs when no interactive request is waiting.
    Batch,
}

/// Which graph version a request is willing to be answered at.
///
/// Snapshot versions count *effective* mutations, and equal versions
/// carry identical edge sets (the store invariant proven bit-for-bit in
/// the churn tests) — which is exactly what makes `(version, source)` a
/// sound result-cache key.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Consistency {
    /// Answer at the newest published version.
    #[default]
    Latest,
    /// Answer at the newest published version, but fail with
    /// [`ServiceError::VersionNotReached`] if that version is older than
    /// the given one (read-your-writes across services sharing a
    /// version clock).
    AtLeastVersion(u64),
    /// Answer at exactly the given version. Fails with
    /// [`ServiceError::VersionNotRetained`] when the version has fallen
    /// out of the service's retention window, and with
    /// [`ServiceError::VersionNotReached`] when the store has not
    /// published it yet.
    Pinned(u64),
}

/// The canonical string form: `latest`, `pinned:V`, `at-least:V`. This
/// is the one spelling shared by the CLI's `--consistency` flag and the
/// fleet router's configuration; [`std::str::FromStr`] additionally
/// accepts the bare `pinned` / `at-least` (version 0) so a flag can
/// name the level before a stream has produced any version.
impl std::fmt::Display for Consistency {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Consistency::Latest => write!(f, "latest"),
            Consistency::AtLeastVersion(version) => write!(f, "at-least:{version}"),
            Consistency::Pinned(version) => write!(f, "pinned:{version}"),
        }
    }
}

/// The error [`Consistency`]'s `FromStr` returns: the rejected input
/// plus the accepted grammar.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseConsistencyError {
    /// The input that failed to parse.
    pub input: String,
}

impl std::fmt::Display for ParseConsistencyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "unknown consistency {:?} (expected latest, pinned[:V] or at-least[:V])",
            self.input
        )
    }
}

impl std::error::Error for ParseConsistencyError {}

impl std::str::FromStr for Consistency {
    type Err = ParseConsistencyError;

    fn from_str(s: &str) -> Result<Consistency, ParseConsistencyError> {
        let reject = || ParseConsistencyError {
            input: s.to_string(),
        };
        let (level, version) = match s.split_once(':') {
            Some((level, version)) => (level, Some(version.parse::<u64>().map_err(|_| reject())?)),
            None => (s, None),
        };
        match (level, version) {
            ("latest", None) => Ok(Consistency::Latest),
            ("latest", Some(_)) => Err(reject()),
            ("pinned", version) => Ok(Consistency::Pinned(version.unwrap_or(0))),
            ("at-least", version) => Ok(Consistency::AtLeastVersion(version.unwrap_or(0))),
            _ => Err(reject()),
        }
    }
}

/// One query plus its serving envelope.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Request {
    /// The SimRank query to answer.
    pub query: Query,
    /// Wall-clock latency bound, measured from `submit` — queue wait
    /// counts against it. `None` = no deadline.
    pub deadline: Option<Duration>,
    /// Deterministic work cap in `QueryStats::total_work` units.
    /// `None` = no cap.
    pub work_cap: Option<u64>,
    /// Scheduling class.
    pub priority: Priority,
    /// Version requirement.
    pub consistency: Consistency,
}

impl Request {
    /// A request with defaults: no deadline, no work cap, interactive,
    /// latest version.
    pub fn new(query: Query) -> Request {
        Request {
            query,
            deadline: None,
            work_cap: None,
            priority: Priority::default(),
            consistency: Consistency::default(),
        }
    }

    /// Arms a wall-clock deadline (measured from submission).
    pub fn with_deadline(mut self, deadline: Duration) -> Request {
        self.deadline = Some(deadline);
        self
    }

    /// Arms a deterministic work cap.
    pub fn with_work_cap(mut self, cap: u64) -> Request {
        self.work_cap = Some(cap);
        self
    }

    /// Sets the scheduling class.
    pub fn with_priority(mut self, priority: Priority) -> Request {
        self.priority = priority;
        self
    }

    /// Sets the version requirement.
    pub fn with_consistency(mut self, consistency: Consistency) -> Request {
        self.consistency = consistency;
        self
    }
}

/// A successfully answered request.
#[derive(Debug, Clone)]
pub struct Response {
    /// The query's answer (shared with the result cache — cloning a
    /// response never copies scores).
    pub output: Arc<QueryOutput>,
    /// The snapshot version the answer was computed at (for cache hits:
    /// the version the cached execution was pinned to, which is equal by
    /// key construction).
    pub version: u64,
    /// True when the answer came from the `(version, source)` result
    /// cache — bit-identical to a fresh execution of this request's query
    /// at `version` by construction, with zero probe work spent. The
    /// entry may have been filled by another query kind on the same
    /// source; `output.query` is always this request's query.
    pub cache_hit: bool,
    /// Time spent queued before a worker picked the request up. Zero
    /// for a hit answered on the caller's thread, which is never queued.
    pub queue_wait: Duration,
    /// Time spent resolving + executing (cache hits: lookup time only).
    pub exec_time: Duration,
}

/// Why the service could not answer a request.
#[derive(Debug, Clone, PartialEq)]
pub enum ServiceError {
    /// The query itself failed — validation
    /// (`QueryError::NodeOutOfRange`, …) or a cooperative abort
    /// (`QueryError::DeadlineExceeded` / `WorkBudgetExceeded` with
    /// partial stats).
    Query(QueryError),
    /// `Consistency::Pinned(v)` named a version outside the retention
    /// window.
    VersionNotRetained {
        /// The version the request pinned.
        requested: u64,
        /// Oldest version still retained.
        oldest_retained: u64,
        /// Newest published version.
        newest: u64,
    },
    /// `Consistency::AtLeastVersion(v)` or `Consistency::Pinned(v)`
    /// asked for a version the store has not reached.
    VersionNotReached {
        /// The version floor the request demanded.
        requested: u64,
        /// Newest published version.
        newest: u64,
    },
    /// The service is shutting down; the request was not executed.
    ShuttingDown,
}

impl From<QueryError> for ServiceError {
    fn from(e: QueryError) -> ServiceError {
        ServiceError::Query(e)
    }
}

impl std::fmt::Display for ServiceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServiceError::Query(e) => write!(f, "{e}"),
            ServiceError::VersionNotRetained {
                requested,
                oldest_retained,
                newest,
            } => write!(
                f,
                "pinned version {requested} is no longer retained \
                 (window: {oldest_retained}..={newest})"
            ),
            ServiceError::VersionNotReached { requested, newest } => write!(
                f,
                "version {requested} not reached yet (newest published: {newest})"
            ),
            ServiceError::ShuttingDown => write!(f, "service is shutting down"),
        }
    }
}

impl std::error::Error for ServiceError {}

/// A handle to an in-flight request ([`crate::QueryService::submit`]).
#[derive(Debug)]
pub struct Ticket {
    pub(crate) rx: mpsc::Receiver<Result<Response, ServiceError>>,
}

impl Ticket {
    /// Blocks until the request completes. A dropped service resolves
    /// pending tickets to [`ServiceError::ShuttingDown`].
    pub fn wait(self) -> Result<Response, ServiceError> {
        self.rx.recv().unwrap_or(Err(ServiceError::ShuttingDown))
    }

    /// Non-blocking poll: `Ok(Some(..))` when done, `Ok(None)` while
    /// still in flight.
    // The nested Option<Result<..>> IS the poll protocol; a named
    // alias would hide the shape callers must match on.
    #[allow(clippy::type_complexity)]
    pub fn poll(&self) -> Option<Result<Response, ServiceError>> {
        match self.rx.try_recv() {
            Ok(result) => Some(result),
            Err(mpsc::TryRecvError::Empty) => None,
            Err(mpsc::TryRecvError::Disconnected) => Some(Err(ServiceError::ShuttingDown)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use probesim_core::QueryStats;

    #[test]
    fn request_builder_sets_every_field() {
        let r = Request::new(Query::TopK { node: 3, k: 5 })
            .with_deadline(Duration::from_millis(20))
            .with_work_cap(1_000)
            .with_priority(Priority::Batch)
            .with_consistency(Consistency::Pinned(7));
        assert_eq!(r.deadline, Some(Duration::from_millis(20)));
        assert_eq!(r.work_cap, Some(1_000));
        assert_eq!(r.priority, Priority::Batch);
        assert_eq!(r.consistency, Consistency::Pinned(7));
        let d = Request::new(Query::SingleSource { node: 0 });
        assert_eq!(d.priority, Priority::Interactive);
        assert_eq!(d.consistency, Consistency::Latest);
        assert_eq!(d.deadline, None);
    }

    #[test]
    fn service_error_messages_are_actionable() {
        let messages = [
            ServiceError::Query(QueryError::DeadlineExceeded {
                partial: QueryStats::default(),
            })
            .to_string(),
            ServiceError::VersionNotRetained {
                requested: 3,
                oldest_retained: 10,
                newest: 17,
            }
            .to_string(),
            ServiceError::VersionNotReached {
                requested: 99,
                newest: 17,
            }
            .to_string(),
            ServiceError::ShuttingDown.to_string(),
        ];
        assert!(messages[0].contains("deadline"));
        assert!(messages[1].contains("no longer retained"));
        assert!(messages[1].contains("10..=17"));
        assert!(messages[2].contains("not reached"));
        assert!(messages[3].contains("shutting down"));
    }

    #[test]
    fn consistency_string_form_round_trips() {
        let levels = [
            Consistency::Latest,
            Consistency::AtLeastVersion(0),
            Consistency::AtLeastVersion(42),
            Consistency::Pinned(0),
            Consistency::Pinned(u64::MAX),
        ];
        for level in levels {
            assert_eq!(level.to_string().parse::<Consistency>(), Ok(level));
        }
    }

    #[test]
    fn consistency_parse_accepts_bare_levels_and_rejects_noise() {
        assert_eq!("latest".parse(), Ok(Consistency::Latest));
        assert_eq!("pinned".parse(), Ok(Consistency::Pinned(0)));
        assert_eq!("at-least".parse(), Ok(Consistency::AtLeastVersion(0)));
        assert_eq!("pinned:9".parse(), Ok(Consistency::Pinned(9)));
        for bad in [
            "",
            "newest",
            "latest:3",
            "pinned:",
            "pinned:x",
            "at-least:-1",
        ] {
            let err = bad.parse::<Consistency>().unwrap_err();
            assert_eq!(err.input, bad);
            assert!(err.to_string().contains("expected latest"), "{err}");
        }
    }
}
