//! The replayable update log.
//!
//! Every effective graph mutation the fleet accepts is recorded here as
//! a [`LogRecord`] before any replica sees it. LSNs and store versions
//! advance in lockstep (every effective mutation bumps exactly one of
//! each — see [`crate::Fleet::commit`]), so a replica restored to
//! version *v* — from the genesis base (*v* = 0) or from a
//! [`crate::Checkpoint`] at LSN *v* — that applies records *v + 1*, *v +
//! 2*, … in order reconstructs the primary's exact store state.
//!
//! The log holds only what someone can still read. Its **retained
//! range** runs from [`UpdateLog::first_lsn`] to [`UpdateLog::last_lsn`];
//! [`UpdateLog::truncate_through`] drops a prefix once a checkpoint
//! covers it and every replica has applied it (the supervisor does this
//! on cadence). A read that reaches below the retained range — a
//! cursor, [`UpdateLog::records_from`], a recovery whose restore point
//! is older than the range — is the typed [`LogTruncated`] error, never
//! a silent gap.
//!
//! Two halves:
//!
//! * an **in-memory segment** — the retained updates in a ring buffer
//!   behind a mutex, each [`LogRecord`] rebuilt from its position when
//!   it is copied out (the LSN is implicit, so a record costs the 12
//!   bytes of its update; truncation pops the front, so it costs what
//!   it drops, not what it keeps), with condvar-driven [`LogCursor`]s
//!   so tailing replicas block on new records instead of spinning (an
//!   append signals the condvar only while a cursor is blocked on it);
//! * a **binary file codec** ([`encode_log`] / [`decode_log`] and the
//!   `*_file` wrappers) built on `probesim_graph::io`'s shared codec:
//!   the `PSLG` header and a checksummed frame holding the first LSN
//!   and the record count, then one checksummed frame per record (`lsn
//!   | kind | u | v`). Decoding detects bad magic, format drift,
//!   truncated tails, flipped bits, and LSNs that do not run
//!   contiguously from the first LSN, reporting each as
//!   [`GraphError::Corrupt`].
//!
//! Strict decoding ([`decode_log`]) is all-or-nothing; **salvage**
//! ([`salvage_log`] / [`read_log_file_salvage`]) instead recovers the
//! longest valid checksummed prefix of a damaged stream, reporting the
//! typed [`SalvageReason`] the tail was cut — the startup path for a
//! node whose disk rotted under it. File writes go through a synced
//! temp sibling, an atomic rename and a synced directory, so neither a
//! crash nor a power loss mid-write leaves a half-written file.

use std::collections::VecDeque;
use std::fs::File;
use std::io::Write;
use std::path::Path;
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

use probesim_graph::io::{self, FrameError};
use probesim_graph::{GraphError, GraphUpdate};

/// One logged mutation: the log sequence number and the update itself.
///
/// LSNs start at 1 and are contiguous. By the fleet's write-path
/// construction, `lsn` also equals the store version a replica reaches
/// after applying the record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LogRecord {
    /// Log sequence number (1-based, contiguous).
    pub lsn: u64,
    /// The graph mutation to apply.
    pub update: GraphUpdate,
}

/// A read asked for records below the log's retained range: they were
/// truncated away after a checkpoint covered them. Recover from that
/// checkpoint instead.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LogTruncated {
    /// The LSN the read started at.
    pub requested: u64,
    /// The oldest LSN the log still holds.
    pub first_lsn: u64,
}

impl std::fmt::Display for LogTruncated {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "log truncated: LSN {} requested, oldest retained is {}",
            self.requested, self.first_lsn
        )
    }
}

impl std::error::Error for LogTruncated {}

/// Magic bytes opening every serialized log: "PSLG" (ProbeSim LoG).
const MAGIC: &[u8; 4] = b"PSLG";
/// Bump on any incompatible layout change. Version 1 framed records
/// with a `u32` length and a checksum that did not cover it; version 2
/// had no first LSN and an unchecksummed record count.
const VERSION: u32 = 3;
/// Framed payload size of the range header: first LSN (8) + count (8).
const RANGE_BYTES: usize = 16;
/// Framed payload size of one record: lsn (8) + kind (1) + u (4) +
/// v (4).
const RECORD_BYTES: usize = 17;

/// The retained range: `updates[i]` is the record with LSN
/// `first_lsn + i`.
struct Retained {
    /// LSN of `updates[0]`; every LSN below it was truncated away.
    first_lsn: u64,
    updates: VecDeque<GraphUpdate>,
    /// Cursors blocked in [`LogCursor::wait_next`]. An append wakes the
    /// condvar only when this is above 0: a futex `notify_all` makes a
    /// syscall even with nobody waiting (~250 ns against ~20 ns for the
    /// lock itself, on a 2-vCPU VM). It changes only under the
    /// `records` mutex, so an append either sees a waiter's count or
    /// lands before the waiter's predicate check.
    waiters: usize,
}

impl Retained {
    fn last_lsn(&self) -> u64 {
        self.first_lsn + self.updates.len() as u64 - 1
    }

    /// Every retained record with `lsn >= from_lsn`, in LSN order.
    fn records_from(&self, from_lsn: u64) -> Result<Vec<LogRecord>, LogTruncated> {
        let from_lsn = from_lsn.max(1);
        if from_lsn < self.first_lsn {
            return Err(LogTruncated {
                requested: from_lsn,
                first_lsn: self.first_lsn,
            });
        }
        let skip = (from_lsn - self.first_lsn).min(self.updates.len() as u64) as usize;
        Ok(self
            .updates
            .range(skip..)
            .zip(from_lsn..)
            .map(|(&update, lsn)| LogRecord { lsn, update })
            .collect())
    }
}

struct LogInner {
    /// Lock order: `fleet::records` may be held while acquiring the
    /// primary service's locks (the fleet's write path appends under it
    /// via [`UpdateLog::append_with`]); nothing that holds a service
    /// lock ever acquires it.
    records: Mutex<Retained>,
    /// Signaled (with `records` held) after an append while
    /// [`Retained::waiters`] is above 0, waking [`LogCursor::wait_next`].
    appended: Condvar,
}

/// The shared update log. Cloning is cheap (`Arc` bump) and every clone
/// views the same records.
#[derive(Clone)]
pub struct UpdateLog {
    inner: Arc<LogInner>,
}

impl Default for UpdateLog {
    fn default() -> Self {
        UpdateLog::new()
    }
}

impl std::fmt::Debug for UpdateLog {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("UpdateLog")
            .field("first_lsn", &self.first_lsn())
            .field("last_lsn", &self.last_lsn())
            .finish()
    }
}

impl UpdateLog {
    /// An empty log; the first appended record gets LSN 1.
    pub fn new() -> UpdateLog {
        UpdateLog::with_range(1, VecDeque::new())
    }

    /// A log whose retained range starts at `first_lsn` and holds
    /// `updates` in LSN order.
    fn with_range(first_lsn: u64, updates: VecDeque<GraphUpdate>) -> UpdateLog {
        UpdateLog {
            inner: Arc::new(LogInner {
                records: Mutex::new(Retained {
                    first_lsn,
                    updates,
                    waiters: 0,
                }),
                appended: Condvar::new(),
            }),
        }
    }

    /// A log pre-seeded with already-decoded records (replay /
    /// recovery). The first record's LSN starts the retained range (LSN
    /// 1 when `records` is empty).
    ///
    /// # Panics
    ///
    /// If the LSNs are not contiguous from an LSN of at least 1, which
    /// [`decode_log`] guarantees.
    pub fn from_records(records: Vec<LogRecord>) -> UpdateLog {
        let first_lsn = records.first().map_or(1, |record| record.lsn);
        assert!(
            first_lsn >= 1 && records.iter().zip(first_lsn..).all(|(r, lsn)| r.lsn == lsn),
            "from_records needs LSNs contiguous from at least 1"
        );
        UpdateLog::with_range(first_lsn, records.into_iter().map(|r| r.update).collect())
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Retained> {
        self.inner.records.lock().expect("log records poisoned")
    }

    /// Appends one update, assigning the next LSN. Returns the record.
    pub fn append(&self, update: GraphUpdate) -> LogRecord {
        self.append_with(|_| Some(update))
            .expect("invariant: an unconditional producer always appends")
    }

    /// Runs `produce` under the log's append lock with the LSN the next
    /// record would get. If it returns an update, the record is
    /// appended atomically (no other append can interleave) and any
    /// cursor blocked in [`LogCursor::wait_next`] is woken; `None`
    /// appends nothing. This is the fleet's write-path hook: the primary
    /// store mutation and the log append happen under one critical
    /// section, so LSNs and store versions cannot diverge.
    pub fn append_with<F>(&self, produce: F) -> Option<LogRecord>
    where
        F: FnOnce(u64) -> Option<GraphUpdate>,
    {
        let mut retained = self.lock();
        let next_lsn = retained.last_lsn() + 1;
        let update = produce(next_lsn)?;
        retained.updates.push_back(update);
        if retained.waiters > 0 {
            self.inner.appended.notify_all();
        }
        Some(LogRecord {
            lsn: next_lsn,
            update,
        })
    }

    /// The LSN of the newest record (0 when nothing was ever appended).
    /// Truncation never lowers it.
    pub fn last_lsn(&self) -> u64 {
        self.lock().last_lsn()
    }

    /// The oldest LSN the log still holds: 1 until the first
    /// truncation, `last_lsn() + 1` when everything appended so far was
    /// truncated away.
    pub fn first_lsn(&self) -> u64 {
        self.lock().first_lsn
    }

    /// Drops every record with `lsn <= through` (capped at
    /// [`UpdateLog::last_lsn`], so the next append keeps its LSN).
    /// Monotone and idempotent: a bound at or below the current
    /// truncation point drops nothing. Returns how many records were
    /// dropped.
    ///
    /// The caller vouches that nobody still needs the dropped records:
    /// the supervisor truncates only through the latest checkpoint and
    /// no further than any live replica has applied.
    pub fn truncate_through(&self, through: u64) -> u64 {
        let mut retained = self.lock();
        let through = through.min(retained.last_lsn());
        if through < retained.first_lsn {
            return 0;
        }
        let dropped = through + 1 - retained.first_lsn;
        retained.updates.drain(..dropped as usize);
        retained.first_lsn = through + 1;
        dropped
    }

    /// Copies out every record with `lsn >= from_lsn`, in LSN order.
    /// Fails when `from_lsn` lies below the retained range.
    pub fn records_from(&self, from_lsn: u64) -> Result<Vec<LogRecord>, LogTruncated> {
        self.lock().records_from(from_lsn)
    }

    /// A cursor positioned at `from_lsn` (1 tails the whole log).
    pub fn tail(&self, from_lsn: u64) -> LogCursor {
        LogCursor {
            log: self.clone(),
            next_lsn: from_lsn.max(1),
        }
    }

    /// Serializes the retained range (see [`encode_log`]).
    pub fn encode(&self) -> Vec<u8> {
        let retained = self.lock();
        let records = retained
            .records_from(retained.first_lsn)
            .expect("invariant: the first retained LSN is retained");
        encode_range(retained.first_lsn, &records)
    }
}

/// A tailing read position into an [`UpdateLog`]. Each call returns the
/// records the cursor has not yet seen, in LSN order, and advances. A
/// cursor that falls below the retained range gets [`LogTruncated`]
/// from then on.
#[derive(Debug)]
pub struct LogCursor {
    log: UpdateLog,
    next_lsn: u64,
}

impl LogCursor {
    /// The LSN the next returned record will have.
    pub fn position(&self) -> u64 {
        self.next_lsn
    }

    /// Returns all currently-available unseen records without blocking
    /// (empty when caught up).
    pub fn next_batch(&mut self) -> Result<Vec<LogRecord>, LogTruncated> {
        let batch = self.log.records_from(self.next_lsn)?;
        self.next_lsn += batch.len() as u64;
        Ok(batch)
    }

    /// Like [`LogCursor::next_batch`], but blocks up to `timeout` for
    /// at least one new record. Returns an empty batch on timeout.
    pub fn wait_next(&mut self, timeout: Duration) -> Result<Vec<LogRecord>, LogTruncated> {
        let inner = &self.log.inner;
        let mut retained = inner.records.lock().expect("log records poisoned");
        let want = self.next_lsn;
        retained.waiters += 1;
        let (mut retained, _timed_out) = inner
            .appended
            .wait_timeout_while(retained, timeout, |retained| retained.last_lsn() < want)
            .expect("log records poisoned");
        retained.waiters -= 1;
        let batch = retained.records_from(want)?;
        self.next_lsn += batch.len() as u64;
        Ok(batch)
    }
}

/// Serializes a record slice: `MAGIC | version`, a checksummed frame
/// holding the first LSN and the record count, then every record in its
/// own checksummed frame (see [`io::put_frame`]). The first record's
/// LSN is the first LSN (1 for an empty slice).
pub fn encode_log(records: &[LogRecord]) -> Vec<u8> {
    encode_range(records.first().map_or(1, |record| record.lsn), records)
}

fn encode_range(first_lsn: u64, records: &[LogRecord]) -> Vec<u8> {
    // Each frame adds a length and a checksum (8 bytes each).
    let mut buf = Vec::with_capacity(8 + (RANGE_BYTES + 16) + records.len() * (RECORD_BYTES + 16));
    io::put_header(&mut buf, MAGIC, VERSION);
    let mut payload = Vec::with_capacity(RECORD_BYTES);
    io::put_u64(&mut payload, first_lsn);
    io::put_u64(&mut payload, records.len() as u64);
    io::put_frame(&mut buf, &payload);
    for record in records {
        let (u, v) = record.update.edge();
        payload.clear();
        io::put_u64(&mut payload, record.lsn);
        payload.push(u8::from(record.update.is_insert()));
        io::put_u32(&mut payload, u);
        io::put_u32(&mut payload, v);
        io::put_frame(&mut buf, &payload);
    }
    buf
}

/// Parses a verified record payload; `None` for an unknown update kind.
fn decode_record(mut payload: &[u8]) -> Option<LogRecord> {
    let lsn = io::take_u64(&mut payload)?;
    let [kind] = io::take_array(&mut payload)?;
    let u = io::take_u32(&mut payload)?;
    let v = io::take_u32(&mut payload)?;
    let update = match kind {
        0 => GraphUpdate::Remove { u, v },
        1 => GraphUpdate::Insert { u, v },
        _ => return None,
    };
    Some(LogRecord { lsn, update })
}

/// Decodes a serialized log, validating magic, format version, the
/// header frame, record framing, per-record checksums and LSN
/// contiguity (records must run first LSN, first LSN + 1, … without
/// gaps). Any violation — including a log whose tail was cut off
/// mid-record — is [`GraphError::Corrupt`]: this is [`salvage_log`]
/// with every cut treated as fatal.
pub fn decode_log(bytes: &[u8]) -> Result<Vec<LogRecord>, GraphError> {
    let salvage = salvage_log(bytes)?;
    match salvage.cut {
        None => Ok(salvage.records),
        Some(reason) => Err(GraphError::Corrupt(format!(
            "log record {}: {reason}",
            salvage.last_lsn() + 1
        ))),
    }
}

/// Why salvage cut the tail of a damaged log stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SalvageReason {
    /// The stream ended mid-record: a torn write or a truncation.
    TruncatedRecord,
    /// A record's length prefix disagreed with the format.
    BadRecordLength,
    /// A record failed its payload checksum (flipped bits).
    ChecksumMismatch,
    /// A record decoded cleanly but carried a non-contiguous LSN.
    LsnGap,
    /// A record passed its checksum but carried an update kind the
    /// codec does not know.
    UnknownUpdateKind,
    /// Extra bytes followed the last record the header promised (the
    /// whole claimed prefix still decoded).
    TrailingBytes,
}

impl std::fmt::Display for SalvageReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let reason = match self {
            SalvageReason::TruncatedRecord => "stream ended mid-record",
            SalvageReason::BadRecordLength => "bad record length prefix",
            SalvageReason::ChecksumMismatch => "record checksum mismatch",
            SalvageReason::LsnGap => "LSN gap",
            SalvageReason::UnknownUpdateKind => "unknown update kind",
            SalvageReason::TrailingBytes => "trailing bytes after the last record",
        };
        f.write_str(reason)
    }
}

/// The result of salvaging a damaged log stream: the longest valid
/// checksummed prefix, plus why (and therefore where) the tail was cut.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Salvage {
    /// The first LSN the stream's header names.
    pub first_lsn: u64,
    /// The recovered prefix, contiguous from `first_lsn`.
    pub records: Vec<LogRecord>,
    /// Why the tail was cut; `None` when the whole stream decoded.
    pub cut: Option<SalvageReason>,
}

impl Salvage {
    /// LSN of the newest salvaged record (`first_lsn - 1` when nothing
    /// survived).
    pub fn last_lsn(&self) -> u64 {
        (self.first_lsn + self.records.len() as u64).saturating_sub(1)
    }

    /// Whether the stream decoded end to end with nothing cut.
    pub fn is_clean(&self) -> bool {
        self.cut.is_none()
    }

    /// Seeds an [`UpdateLog`] with the salvaged prefix; its retained
    /// range starts at `first_lsn` even when nothing survived.
    pub fn into_log(self) -> UpdateLog {
        UpdateLog::with_range(
            self.first_lsn,
            self.records.into_iter().map(|r| r.update).collect(),
        )
    }
}

/// Decodes as much of a damaged log stream as can be trusted: the
/// longest prefix of records that frame, checksum, and chain
/// contiguously from the header's first LSN. The header (magic, format
/// version, and the checksummed first LSN and count) must still be
/// intact — with the header gone nothing in the stream can be trusted,
/// and the result is a hard [`GraphError::Corrupt`] like
/// [`decode_log`]'s. Past the header, every defect merely cuts the tail
/// and is reported as the [`Salvage::cut`] reason.
pub fn salvage_log(mut bytes: &[u8]) -> Result<Salvage, GraphError> {
    let bytes = &mut bytes;
    io::take_header(bytes, MAGIC, VERSION)?;
    let mut header = io::take_frame(bytes, RANGE_BYTES)
        .map_err(|err| GraphError::Corrupt(format!("log header {err}")))?;
    let first_lsn =
        io::take_u64(&mut header).expect("invariant: a verified header frame holds the first LSN");
    let count =
        io::take_u64(&mut header).expect("invariant: a verified header frame holds the count");
    let end = match first_lsn.checked_add(count) {
        Some(end) if first_lsn >= 1 => end,
        _ => {
            return Err(GraphError::Corrupt(format!(
                "log header names {count} records from LSN {first_lsn}"
            )))
        }
    };
    let mut records = Vec::new();
    let mut cut = None;
    for expected_lsn in first_lsn..end {
        let payload = match io::take_frame(bytes, RECORD_BYTES) {
            Ok(payload) => payload,
            Err(err) => {
                cut = Some(match err {
                    FrameError::Truncated => SalvageReason::TruncatedRecord,
                    FrameError::Length => SalvageReason::BadRecordLength,
                    FrameError::Checksum => SalvageReason::ChecksumMismatch,
                });
                break;
            }
        };
        let Some(record) = decode_record(payload) else {
            cut = Some(SalvageReason::UnknownUpdateKind);
            break;
        };
        if record.lsn != expected_lsn {
            cut = Some(SalvageReason::LsnGap);
            break;
        }
        records.push(record);
    }
    if cut.is_none() && !bytes.is_empty() {
        cut = Some(SalvageReason::TrailingBytes);
    }
    Ok(Salvage {
        first_lsn,
        records,
        cut,
    })
}

/// The temp sibling a durable write stages into before the atomic
/// rename: `<name>.tmp` next to `path`.
pub(crate) fn tmp_sibling(path: &Path) -> std::path::PathBuf {
    let mut name = path.as_os_str().to_owned();
    name.push(".tmp");
    name.into()
}

/// Writes `bytes` to `path` through a temp sibling + atomic rename: a
/// crash mid-write leaves at worst a stale `.tmp` next to an intact
/// `path`, never a half-written file that fails decode on restart. The
/// temp file is synced before the rename, and (on Unix) the directory
/// after it, so the same holds across a power loss.
pub(crate) fn write_atomic(path: &Path, bytes: &[u8]) -> Result<(), GraphError> {
    let tmp = tmp_sibling(path);
    let mut file = File::create(&tmp)?;
    file.write_all(bytes)?;
    file.sync_all()?;
    drop(file);
    std::fs::rename(&tmp, path)?;
    #[cfg(unix)]
    {
        let dir = match path.parent() {
            Some(dir) if !dir.as_os_str().is_empty() => dir,
            _ => Path::new("."),
        };
        File::open(dir)?.sync_all()?;
    }
    Ok(())
}

/// Writes a serialized log to a file (temp sibling + atomic rename).
pub fn write_log_file<P: AsRef<Path>>(path: P, records: &[LogRecord]) -> Result<(), GraphError> {
    write_atomic(path.as_ref(), &encode_log(records))
}

/// Reads a serialized log from a file.
pub fn read_log_file<P: AsRef<Path>>(path: P) -> Result<Vec<LogRecord>, GraphError> {
    decode_log(&std::fs::read(path)?)
}

/// Reads a possibly-damaged log file, salvaging the longest valid
/// prefix (see [`salvage_log`]).
pub fn read_log_file_salvage<P: AsRef<Path>>(path: P) -> Result<Salvage, GraphError> {
    salvage_log(&std::fs::read(path)?)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_records() -> Vec<LogRecord> {
        vec![
            LogRecord {
                lsn: 1,
                update: GraphUpdate::Insert { u: 0, v: 1 },
            },
            LogRecord {
                lsn: 2,
                update: GraphUpdate::Insert { u: 1, v: 2 },
            },
            LogRecord {
                lsn: 3,
                update: GraphUpdate::Remove { u: 0, v: 1 },
            },
        ]
    }

    #[test]
    fn encode_decode_round_trip() {
        let records = sample_records();
        assert_eq!(decode_log(&encode_log(&records)).unwrap(), records);
        assert_eq!(decode_log(&encode_log(&[])).unwrap(), Vec::new());
    }

    #[test]
    fn bad_magic_is_corrupt() {
        let mut buf = encode_log(&sample_records());
        buf[0] = b'X';
        assert!(matches!(decode_log(&buf), Err(GraphError::Corrupt(_))));
    }

    #[test]
    fn wrong_version_is_corrupt() {
        let mut buf = encode_log(&sample_records());
        buf[4] = 9;
        let err = decode_log(&buf).unwrap_err();
        assert!(err.to_string().contains("version"), "{err}");
    }

    #[test]
    fn version_2_files_are_rejected_by_version() {
        let mut buf = encode_log(&sample_records());
        buf[4..8].copy_from_slice(&2u32.to_le_bytes());
        let err = decode_log(&buf).unwrap_err();
        assert!(matches!(err, GraphError::Corrupt(_)), "{err:?}");
        assert!(err.to_string().contains("PSLG format version 2"), "{err}");
    }

    #[test]
    fn header_names_the_first_lsn_and_records_must_run_from_it() {
        // A suffix starting past LSN 1 round-trips with its LSNs.
        let suffix = sample_records()
            .into_iter()
            .map(|r| LogRecord {
                lsn: r.lsn + 40,
                ..r
            })
            .collect::<Vec<_>>();
        let salvage = salvage_log(&encode_log(&suffix)).unwrap();
        assert_eq!((salvage.first_lsn, salvage.last_lsn()), (41, 43));
        assert_eq!(salvage.records, suffix);

        // Records that do not start at the header's first LSN are a gap.
        let mut bytes = encode_log(&suffix);
        let mut header = Vec::new();
        io::put_u64(&mut header, 40);
        io::put_u64(&mut header, 3);
        let mut sealed = bytes[..8].to_vec();
        io::put_frame(&mut sealed, &header);
        sealed.extend_from_slice(&bytes[8 + RANGE_BYTES + 16..]);
        let err = decode_log(&sealed).unwrap_err();
        assert!(err.to_string().contains("LSN gap"), "{err}");

        // A checksum-valid header naming LSN 0, or a range past the
        // LSN space, is corrupt.
        for (first, count) in [(0, 3), (u64::MAX, 3)] {
            header.clear();
            io::put_u64(&mut header, first);
            io::put_u64(&mut header, count);
            bytes.truncate(8);
            io::put_frame(&mut bytes, &header);
            let err = decode_log(&bytes).unwrap_err();
            assert!(err.to_string().contains("log header names"), "{err}");
        }
    }

    #[test]
    fn truncated_tail_is_detected() {
        let full = encode_log(&sample_records());
        // Every possible truncation point must fail — a cut-off tail
        // can never silently decode to a shorter log.
        for keep in 0..full.len() {
            let err = decode_log(&full[..keep]).unwrap_err();
            assert!(
                matches!(err, GraphError::Corrupt(_)),
                "truncation at {keep} gave {err:?}"
            );
        }
    }

    #[test]
    fn flipped_payload_bit_fails_checksum() {
        let mut buf = encode_log(&sample_records());
        let target = buf.len() - 13; // inside the last record's node ids
        buf[target] ^= 0x40;
        let err = decode_log(&buf).unwrap_err();
        assert!(err.to_string().contains("checksum"), "{err}");
    }

    #[test]
    fn lsn_gap_is_corrupt() {
        let mut records = sample_records();
        records[2].lsn = 7;
        let err = decode_log(&encode_log(&records)).unwrap_err();
        assert!(err.to_string().contains("LSN gap"), "{err}");
    }

    #[test]
    fn trailing_garbage_is_corrupt() {
        let mut buf = encode_log(&sample_records());
        buf.extend_from_slice(&[0, 1, 2]);
        let err = decode_log(&buf).unwrap_err();
        assert!(err.to_string().contains("trailing"), "{err}");
    }

    #[test]
    fn append_assigns_contiguous_lsns() {
        let log = UpdateLog::new();
        assert_eq!(log.last_lsn(), 0);
        let first = log.append(GraphUpdate::Insert { u: 0, v: 1 });
        let second = log.append(GraphUpdate::Insert { u: 1, v: 2 });
        assert_eq!((first.lsn, second.lsn), (1, 2));
        assert_eq!(log.last_lsn(), 2);
    }

    #[test]
    fn append_with_none_appends_nothing() {
        let log = UpdateLog::new();
        assert_eq!(log.append_with(|_| None), None);
        assert_eq!(log.last_lsn(), 0);
    }

    #[test]
    fn cursor_sees_records_in_order_and_only_once() {
        let log = UpdateLog::new();
        let mut cursor = log.tail(1);
        assert!(cursor.next_batch().unwrap().is_empty());
        log.append(GraphUpdate::Insert { u: 0, v: 1 });
        log.append(GraphUpdate::Insert { u: 1, v: 2 });
        let batch = cursor.next_batch().unwrap();
        assert_eq!(batch.len(), 2);
        assert_eq!(batch[0].lsn, 1);
        assert_eq!(batch[1].lsn, 2);
        assert!(cursor.next_batch().unwrap().is_empty());
        log.append(GraphUpdate::Remove { u: 0, v: 1 });
        let batch = cursor.wait_next(Duration::from_millis(50)).unwrap();
        assert_eq!(batch.len(), 1);
        assert_eq!(batch[0].lsn, 3);
    }

    #[test]
    fn wait_next_wakes_on_append() {
        let log = UpdateLog::new();
        let tail = log.clone();
        let (seen, recv) = std::sync::mpsc::channel();
        let handle = std::thread::spawn(move || {
            let mut cursor = tail.tail(1);
            seen.send(cursor.wait_next(Duration::from_secs(30)).unwrap())
                .unwrap();
        });
        // The cursor thread blocks until this append lands; the append
        // must wake it, long before its 30 s wait would time out.
        std::thread::sleep(Duration::from_millis(10));
        log.append(GraphUpdate::Insert { u: 2, v: 3 });
        let batch = recv
            .recv_timeout(Duration::from_secs(1))
            .expect("the append did not wake the cursor within 1 s");
        handle.join().unwrap();
        assert_eq!(batch.len(), 1);
        assert_eq!(batch[0].update, GraphUpdate::Insert { u: 2, v: 3 });
    }

    #[test]
    fn wait_next_at_the_head_never_loses_a_wake_up() {
        // Ping-pong: a cursor at the head waits (30 s) for each record in
        // turn; every append must reach it within 1 s. Appends race the
        // waiter's re-lock on some rounds and land while it is blocked
        // on others, so both sides of the waiter count are exercised.
        const ROUNDS: u32 = 200;
        let log = UpdateLog::new();
        let mut cursor = log.tail(1);
        let (seen, recv) = std::sync::mpsc::channel();
        let waiter = std::thread::spawn(move || {
            for _ in 0..ROUNDS {
                let batch = cursor.wait_next(Duration::from_secs(30)).unwrap();
                seen.send(batch).unwrap();
            }
        });
        for round in 1..=ROUNDS {
            if round % 2 == 0 {
                std::thread::sleep(Duration::from_micros(200));
            }
            let record = log.append(GraphUpdate::Insert { u: round, v: 0 });
            let batch = recv
                .recv_timeout(Duration::from_secs(1))
                .unwrap_or_else(|_| panic!("round {round}: append did not wake the cursor"));
            assert_eq!(batch, vec![record]);
        }
        waiter.join().unwrap();
        assert_eq!(log.lock().waiters, 0);
    }

    fn log_of(updates: u32) -> UpdateLog {
        let log = UpdateLog::new();
        for u in 0..updates {
            log.append(GraphUpdate::Insert { u, v: u + 1 });
        }
        log
    }

    #[test]
    fn truncate_through_is_monotone_and_idempotent() {
        let log = log_of(10);
        assert_eq!((log.first_lsn(), log.last_lsn()), (1, 10));
        assert_eq!(log.truncate_through(0), 0);
        assert_eq!(log.truncate_through(4), 4);
        assert_eq!((log.first_lsn(), log.last_lsn()), (5, 10));
        // Idempotent, and a lower bound never un-truncates.
        assert_eq!(log.truncate_through(4), 0);
        assert_eq!(log.truncate_through(2), 0);
        assert_eq!(log.first_lsn(), 5);
        // A bound past the head stops at the head.
        assert_eq!(log.truncate_through(99), 6);
        assert_eq!((log.first_lsn(), log.last_lsn()), (11, 10));
        assert_eq!(log.records_from(11).unwrap(), Vec::new());
        assert_eq!(log.truncate_through(99), 0);
    }

    #[test]
    fn lsns_stay_right_across_a_truncation() {
        let log = log_of(6);
        log.truncate_through(6);
        // The next append continues the LSN sequence, and records copied
        // out carry their LSNs, not their positions.
        let record = log.append(GraphUpdate::Remove { u: 0, v: 1 });
        assert_eq!(record.lsn, 7);
        log.append(GraphUpdate::Insert { u: 9, v: 8 });
        log.truncate_through(3);
        assert_eq!(
            log.records_from(7).unwrap(),
            vec![
                record,
                LogRecord {
                    lsn: 8,
                    update: GraphUpdate::Insert { u: 9, v: 8 }
                }
            ]
        );
        assert_eq!(log.records_from(8).unwrap()[0].lsn, 8);
        assert_eq!(
            log.append_with(|lsn| (lsn == 9).then_some(record.update)),
            Some(LogRecord { lsn: 9, ..record })
        );
    }

    #[test]
    fn reads_below_the_retained_range_are_typed_errors() {
        let log = log_of(8);
        let mut early = log.tail(1);
        let mut waiting = log.tail(3);
        log.truncate_through(5);
        let below = LogTruncated {
            requested: 1,
            first_lsn: 6,
        };
        assert_eq!(log.records_from(1), Err(below));
        assert_eq!(log.records_from(0), Err(below));
        assert_eq!(early.next_batch(), Err(below));
        assert_eq!(
            waiting.wait_next(Duration::from_millis(1)),
            Err(LogTruncated {
                requested: 3,
                first_lsn: 6
            })
        );
        // A failed read does not move the cursor.
        assert_eq!(early.position(), 1);
        assert!(below.to_string().contains("oldest retained is 6"));
        // Reads inside the range still work.
        assert_eq!(log.records_from(6).unwrap().len(), 3);
        assert_eq!(log.tail(6).next_batch().unwrap().len(), 3);
    }

    #[test]
    fn cursor_keeps_working_while_the_log_is_truncated_under_it() {
        let log = UpdateLog::new();
        let mut appended = Vec::new();
        let mut cursor = log.tail(1);
        let mut seen = Vec::new();
        // Round after round, truncate through everything the cursor has
        // read (as the supervisor truncates through what a replica
        // applied), append more, and read on.
        for round in 0..50u32 {
            for v in 0..=round % 5 {
                appended.push(log.append(GraphUpdate::Insert { u: round, v }));
            }
            seen.extend(cursor.next_batch().unwrap());
            assert_eq!(
                log.truncate_through(cursor.position() - 1) as u32,
                round % 5 + 1
            );
            assert_eq!(log.first_lsn(), cursor.position());
        }
        assert_eq!(seen, appended);

        // A cursor blocked in `wait_next` wakes to the next record even
        // when the log was truncated through its position meanwhile.
        let mut blocked = log.tail(cursor.position());
        let waiter = std::thread::spawn(move || blocked.wait_next(Duration::from_secs(10)));
        log.truncate_through(log.last_lsn());
        let next = log.append(GraphUpdate::Remove { u: 1, v: 2 });
        assert_eq!(waiter.join().unwrap(), Ok(vec![next]));
        assert_eq!(cursor.next_batch(), Ok(vec![next]));
    }

    #[test]
    fn a_truncated_log_round_trips_with_its_range() {
        let log = log_of(9);
        log.truncate_through(6);
        let salvage = salvage_log(&log.encode()).unwrap();
        assert!(salvage.is_clean());
        assert_eq!((salvage.first_lsn, salvage.last_lsn()), (7, 9));
        assert_eq!(salvage.records, log.records_from(7).unwrap());
        let restored = salvage.into_log();
        assert_eq!((restored.first_lsn(), restored.last_lsn()), (7, 9));
        assert_eq!(restored.append(GraphUpdate::Remove { u: 1, v: 2 }).lsn, 10);

        // A fully truncated log keeps its range through the codec.
        log.truncate_through(9);
        let empty = salvage_log(&log.encode()).unwrap().into_log();
        assert_eq!((empty.first_lsn(), empty.last_lsn()), (10, 9));
        assert_eq!(
            UpdateLog::from_records(log_of(3).records_from(2).unwrap()).first_lsn(),
            2
        );
    }

    /// Header bytes (magic + version + the framed first LSN and count)
    /// and the framed size of one record, used by the exhaustive
    /// salvage tests.
    const HEADER_BYTES: usize = 8 + RANGE_BYTES + 16;
    const FRAME_BYTES: usize = RECORD_BYTES + 16;

    #[test]
    fn salvage_of_an_intact_log_is_clean() {
        let records = sample_records();
        let salvage = salvage_log(&encode_log(&records)).unwrap();
        assert!(salvage.is_clean());
        assert_eq!(salvage.records, records);
        assert_eq!(salvage.last_lsn(), 3);
        assert_eq!(salvage.into_log().last_lsn(), 3);

        let empty = salvage_log(&encode_log(&[])).unwrap();
        assert!(empty.is_clean());
        assert_eq!(empty.last_lsn(), 0);
    }

    #[test]
    fn salvage_recovers_the_longest_prefix_for_every_truncation() {
        let records = sample_records();
        let full = encode_log(&records);
        for keep in 0..full.len() {
            let result = salvage_log(&full[..keep]);
            if keep < HEADER_BYTES {
                // With the header gone nothing can be trusted.
                assert!(
                    matches!(result, Err(GraphError::Corrupt(_))),
                    "truncation at {keep} inside the header gave {result:?}"
                );
                continue;
            }
            let salvage = result.unwrap();
            // The longest valid prefix is exactly the records whose
            // full frame survived the cut.
            let survivors = (keep - HEADER_BYTES) / FRAME_BYTES;
            assert_eq!(
                salvage.records,
                records[..survivors],
                "truncation at {keep}"
            );
            assert_eq!(salvage.cut, Some(SalvageReason::TruncatedRecord));
        }
    }

    #[test]
    fn salvage_recovers_the_longest_prefix_for_every_bit_flip() {
        let records = sample_records();
        let full = encode_log(&records);
        for target in 0..full.len() {
            let mut buf = full.clone();
            buf[target] ^= 0x10;
            let result = salvage_log(&buf);
            if target < HEADER_BYTES {
                // Magic, format version, or the checksummed first LSN
                // and count: a hard error, like decode.
                assert!(
                    matches!(result, Err(GraphError::Corrupt(_))),
                    "flip at {target} in the header gave {result:?}"
                );
                continue;
            }
            let salvage = result.unwrap();
            // A flip inside record j's frame cuts exactly before j.
            let damaged = (target - HEADER_BYTES) / FRAME_BYTES;
            assert_eq!(
                salvage.records,
                records[..damaged],
                "flip at {target} (record {damaged})"
            );
            assert!(salvage.cut.is_some(), "flip at {target} was not detected");
        }
    }

    #[test]
    fn salvage_reports_typed_cut_reasons() {
        let records = sample_records();
        let full = encode_log(&records);

        // Torn mid-record: TruncatedRecord.
        let torn = salvage_log(&full[..full.len() - 5]).unwrap();
        assert_eq!(torn.cut, Some(SalvageReason::TruncatedRecord));
        assert_eq!(torn.last_lsn(), 2);

        // Damaged length prefix: BadRecordLength.
        let mut bad_len = full.clone();
        bad_len[HEADER_BYTES] = 7;
        let salvage = salvage_log(&bad_len).unwrap();
        assert_eq!(salvage.cut, Some(SalvageReason::BadRecordLength));
        assert_eq!(salvage.last_lsn(), 0);

        // Flipped payload bit: ChecksumMismatch.
        let mut flipped = full.clone();
        let target = full.len() - 13; // inside the last record's node ids
        flipped[target] ^= 0x40;
        let salvage = salvage_log(&flipped).unwrap();
        assert_eq!(salvage.cut, Some(SalvageReason::ChecksumMismatch));
        assert_eq!(salvage.last_lsn(), 2);

        // Unknown kind byte under a valid checksum.
        let mut bad_kind = full[..HEADER_BYTES].to_vec();
        let mut payload = full[HEADER_BYTES + 8..][..RECORD_BYTES].to_vec();
        payload[8] = 9; // record 1's kind byte
        io::put_frame(&mut bad_kind, &payload);
        let salvage = salvage_log(&bad_kind).unwrap();
        assert_eq!(salvage.cut, Some(SalvageReason::UnknownUpdateKind));
        assert_eq!(salvage.last_lsn(), 0);

        // A record with a valid checksum but the wrong LSN: LsnGap.
        let mut gapped = records.clone();
        gapped[2].lsn = 7;
        let salvage = salvage_log(&encode_log(&gapped)).unwrap();
        assert_eq!(salvage.cut, Some(SalvageReason::LsnGap));
        assert_eq!(salvage.last_lsn(), 2);

        // Bytes past the promised count: TrailingBytes, full prefix.
        let mut trailing = full.clone();
        trailing.extend_from_slice(&[1, 2, 3]);
        let salvage = salvage_log(&trailing).unwrap();
        assert_eq!(salvage.cut, Some(SalvageReason::TrailingBytes));
        assert_eq!(salvage.records, records);
    }

    #[test]
    fn write_log_file_survives_a_torn_write() {
        let dir = std::env::temp_dir().join(format!("probesim-log-torn-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("updates.pslg");
        let records = sample_records();
        write_log_file(&path, &records).unwrap();

        // A writer that crashed mid-write leaves a half-written temp
        // sibling; the real file must still decode untouched.
        let tmp = tmp_sibling(&path);
        let full = encode_log(&records);
        std::fs::write(&tmp, &full[..full.len() / 2]).unwrap();
        assert_eq!(read_log_file(&path).unwrap(), records);

        // The next successful write atomically replaces the file and
        // consumes the stale temp sibling.
        let mut longer = records.clone();
        longer.push(LogRecord {
            lsn: 4,
            update: GraphUpdate::Insert { u: 2, v: 0 },
        });
        write_log_file(&path, &longer).unwrap();
        assert_eq!(read_log_file(&path).unwrap(), longer);
        assert!(!tmp.exists(), "the rename must consume the temp sibling");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn salvage_file_round_trip() {
        let dir = std::env::temp_dir().join(format!("probesim-log-salv-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("updates.pslg");
        let records = sample_records();
        let full = encode_log(&records);
        std::fs::write(&path, &full[..full.len() - 9]).unwrap();
        // Strict read rejects the damaged file outright…
        assert!(read_log_file(&path).is_err());
        // …salvage recovers the longest valid prefix with the reason.
        let salvage = read_log_file_salvage(&path).unwrap();
        assert_eq!(salvage.records, records[..2]);
        assert_eq!(salvage.cut, Some(SalvageReason::TruncatedRecord));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn file_round_trip() {
        let dir = std::env::temp_dir().join(format!(
            "probesim-log-{}-{}",
            std::process::id(),
            std::thread::current().name().unwrap_or("t").len()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("updates.pslg");
        let records = sample_records();
        write_log_file(&path, &records).unwrap();
        assert_eq!(read_log_file(&path).unwrap(), records);
        std::fs::remove_dir_all(&dir).ok();
    }
}
