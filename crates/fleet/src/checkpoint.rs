//! Checksummed, versioned store checkpoints.
//!
//! A [`Checkpoint`] is the full edge set of a replica's store at one
//! LSN — the recovery shortcut that makes restarts O(suffix) instead of
//! O(history): a replica restored from a checkpoint at LSN *v* resumes
//! tailing the update log at *v + 1* and never replays the prefix
//! (ROADMAP item 1's "catch-up from a log file snapshot").
//!
//! The binary codec follows the same discipline as the log codec in
//! [`crate::log`]: magic + format version header, little-endian fields,
//! and a trailing [`FxHasher`] checksum over every preceding byte, so
//! bad magic, format drift, truncations, trailing garbage and flipped
//! bits are all detected and reported as [`GraphError::Corrupt`]. File
//! writes go through the shared temp-sibling + atomic-rename path, so a
//! crash mid-checkpoint can never leave a half-written file.

use std::path::Path;

use probesim_graph::{
    CsrGraph, FxHasher, GraphError, GraphSnapshot, GraphStore, GraphView, NodeId,
};

use std::hash::Hasher;

use crate::log::{take, take_u32, take_u64, write_atomic};

/// Magic bytes opening every serialized checkpoint: "PSCK" (ProbeSim
/// ChecKpoint).
const MAGIC: &[u8; 4] = b"PSCK";
/// Bump on any incompatible layout change.
const VERSION: u32 = 1;
/// Fixed header size: magic (4) + version (4) + lsn (8) + nodes (8) +
/// edges (8).
const HEADER_BYTES: usize = 32;

/// A store state frozen at one LSN: the node count and the complete
/// sorted edge set. `lsn` equals the store version the edge set
/// represents (LSN ≡ store version, the fleet-wide invariant).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Checkpoint {
    lsn: u64,
    num_nodes: usize,
    edges: Vec<(NodeId, NodeId)>,
}

impl Checkpoint {
    /// A checkpoint from raw parts. The edges are taken as-is (like
    /// [`CsrGraph::from_edges`]); snapshots produce them sorted.
    pub fn new(lsn: u64, num_nodes: usize, edges: Vec<(NodeId, NodeId)>) -> Checkpoint {
        Checkpoint {
            lsn,
            num_nodes,
            edges,
        }
    }

    /// Freezes a published snapshot: the checkpoint's LSN is the
    /// snapshot's version.
    pub fn from_snapshot(snapshot: &GraphSnapshot) -> Checkpoint {
        Checkpoint {
            lsn: snapshot.version(),
            num_nodes: snapshot.num_nodes(),
            edges: snapshot.edges_iter().collect(),
        }
    }

    /// The LSN (≡ store version) this checkpoint represents.
    pub fn lsn(&self) -> u64 {
        self.lsn
    }

    /// Node count of the checkpointed graph.
    pub fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    /// The checkpointed edge set.
    pub fn edges(&self) -> &[(NodeId, NodeId)] {
        &self.edges
    }

    /// Rebuilds a store at this checkpoint's state **and version**:
    /// the next effective mutation produces version `lsn + 1`, so the
    /// store slots straight back into the log's LSN lockstep.
    pub fn to_store(&self) -> GraphStore {
        GraphStore::from_csr_at(CsrGraph::from_edges(self.num_nodes, &self.edges), self.lsn)
    }
}

fn put_u32(buf: &mut Vec<u8>, value: u32) {
    buf.extend_from_slice(&value.to_le_bytes());
}

fn put_u64(buf: &mut Vec<u8>, value: u64) {
    buf.extend_from_slice(&value.to_le_bytes());
}

/// Serializes a checkpoint: `MAGIC | version | lsn | nodes | edges`,
/// the edge pairs, then an [`FxHasher`] checksum over every preceding
/// byte.
pub fn encode_checkpoint(checkpoint: &Checkpoint) -> Vec<u8> {
    let mut buf = Vec::with_capacity(HEADER_BYTES + checkpoint.edges.len() * 8 + 8);
    buf.extend_from_slice(MAGIC);
    put_u32(&mut buf, VERSION);
    put_u64(&mut buf, checkpoint.lsn);
    put_u64(&mut buf, checkpoint.num_nodes as u64);
    put_u64(&mut buf, checkpoint.edges.len() as u64);
    for &(u, v) in &checkpoint.edges {
        put_u32(&mut buf, u);
        put_u32(&mut buf, v);
    }
    let mut hasher = FxHasher::default();
    hasher.write(&buf);
    put_u64(&mut buf, hasher.finish());
    buf
}

/// Decodes a serialized checkpoint, validating magic, format version,
/// framing, node bounds and the whole-payload checksum. Any violation —
/// a truncated file, trailing garbage, a single flipped bit — is
/// [`GraphError::Corrupt`].
pub fn decode_checkpoint(bytes: &[u8]) -> Result<Checkpoint, GraphError> {
    let truncated = || GraphError::Corrupt("truncated checkpoint header".into());
    if bytes.len() < HEADER_BYTES + 8 {
        return Err(truncated());
    }
    let mut cursor = bytes;
    let magic = take(&mut cursor, 4).ok_or_else(truncated)?;
    if magic != MAGIC {
        return Err(GraphError::Corrupt(format!(
            "bad magic {magic:?}, expected {MAGIC:?}"
        )));
    }
    let version = take_u32(&mut cursor).ok_or_else(truncated)?;
    if version != VERSION {
        return Err(GraphError::Corrupt(format!(
            "unsupported checkpoint format version {version}, expected {VERSION}"
        )));
    }
    let lsn = take_u64(&mut cursor).ok_or_else(truncated)?;
    let num_nodes = take_u64(&mut cursor).ok_or_else(truncated)?;
    let num_edges = take_u64(&mut cursor).ok_or_else(truncated)?;
    let edge_bytes = usize::try_from(num_edges)
        .ok()
        .and_then(|m| m.checked_mul(8))
        .ok_or_else(|| GraphError::Corrupt(format!("implausible edge count {num_edges}")))?;
    let expected = HEADER_BYTES
        .checked_add(edge_bytes)
        .and_then(|n| n.checked_add(8))
        .ok_or_else(|| GraphError::Corrupt(format!("implausible edge count {num_edges}")))?;
    if bytes.len() != expected {
        return Err(GraphError::Corrupt(format!(
            "checkpoint length {} does not match {num_edges} edges",
            bytes.len()
        )));
    }
    // Verify the whole-payload checksum before trusting any edge.
    // `cursor` sits at the edge block; the stored checksum is the 8
    // bytes past it.
    let mut checksum_cursor = cursor;
    let payload = take(&mut checksum_cursor, edge_bytes)
        .map(|_| bytes.len() - 8)
        .ok_or_else(truncated)?;
    let stored = take_u64(&mut checksum_cursor).ok_or_else(truncated)?;
    let mut hasher = FxHasher::default();
    hasher.write(&bytes[..payload]);
    if hasher.finish() != stored {
        return Err(GraphError::Corrupt("checkpoint checksum mismatch".into()));
    }
    // Node ids are `NodeId`s, so the count must fit one — the bound
    // `io::read_binary` enforces too. A larger count would decode here
    // and then blow up when `to_store` sizes the CSR.
    let num_nodes = usize::try_from(num_nodes)
        .ok()
        .filter(|&n| n <= NodeId::MAX as usize)
        .ok_or_else(|| {
            GraphError::Corrupt(format!(
                "node count {num_nodes} exceeds the {}-bit id space",
                NodeId::BITS
            ))
        })?;
    let mut edges = Vec::with_capacity(edge_bytes / 8);
    for _ in 0..edge_bytes / 8 {
        let u = take_u32(&mut cursor).ok_or_else(truncated)?;
        let v = take_u32(&mut cursor).ok_or_else(truncated)?;
        if (u as usize) >= num_nodes || (v as usize) >= num_nodes {
            return Err(GraphError::Corrupt(format!(
                "edge ({u}, {v}) out of range for {num_nodes} nodes"
            )));
        }
        edges.push((u, v));
    }
    Ok(Checkpoint {
        lsn,
        num_nodes,
        edges,
    })
}

/// Writes a serialized checkpoint to a file (temp sibling + atomic
/// rename, like [`crate::write_log_file`]).
pub fn write_checkpoint_file<P: AsRef<Path>>(
    path: P,
    checkpoint: &Checkpoint,
) -> Result<(), GraphError> {
    write_atomic(path.as_ref(), &encode_checkpoint(checkpoint))
}

/// Reads a serialized checkpoint from a file.
pub fn read_checkpoint_file<P: AsRef<Path>>(path: P) -> Result<Checkpoint, GraphError> {
    decode_checkpoint(&std::fs::read(path)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use probesim_graph::GraphUpdate;

    fn sample_checkpoint() -> Checkpoint {
        Checkpoint::new(42, 5, vec![(0, 1), (1, 2), (2, 3), (3, 0), (4, 2)])
    }

    #[test]
    fn encode_decode_round_trip() {
        let checkpoint = sample_checkpoint();
        assert_eq!(
            decode_checkpoint(&encode_checkpoint(&checkpoint)).unwrap(),
            checkpoint
        );
        let empty = Checkpoint::new(0, 3, Vec::new());
        assert_eq!(
            decode_checkpoint(&encode_checkpoint(&empty)).unwrap(),
            empty
        );
    }

    #[test]
    fn every_truncation_is_detected() {
        let full = encode_checkpoint(&sample_checkpoint());
        for keep in 0..full.len() {
            let err = decode_checkpoint(&full[..keep]).unwrap_err();
            assert!(
                matches!(err, GraphError::Corrupt(_)),
                "truncation at {keep} gave {err:?}"
            );
        }
    }

    #[test]
    fn every_flipped_byte_is_detected() {
        // The PR 7 log codec proves this property record by record;
        // the checkpoint's single whole-payload checksum must give the
        // same guarantee at every byte offset.
        let full = encode_checkpoint(&sample_checkpoint());
        for target in 0..full.len() {
            for bit in [0x01u8, 0x80u8] {
                let mut buf = full.clone();
                buf[target] ^= bit;
                let err = decode_checkpoint(&buf).unwrap_err();
                assert!(
                    matches!(err, GraphError::Corrupt(_)),
                    "flip {bit:#04x} at {target} gave {err:?}"
                );
            }
        }
    }

    #[test]
    fn trailing_garbage_is_detected() {
        let mut buf = encode_checkpoint(&sample_checkpoint());
        buf.push(0);
        let err = decode_checkpoint(&buf).unwrap_err();
        assert!(err.to_string().contains("length"), "{err}");
    }

    #[test]
    fn out_of_range_edges_are_detected() {
        // A hand-built checkpoint with a node id past the node count
        // and a recomputed (valid) checksum: the bounds check, not the
        // checksum, must reject it.
        let bogus = Checkpoint::new(1, 2, vec![(0, 5)]);
        let err = decode_checkpoint(&encode_checkpoint(&bogus)).unwrap_err();
        assert!(err.to_string().contains("out of range"), "{err}");
    }

    #[test]
    fn node_count_past_the_id_space_is_detected() {
        // Checksum-valid and edge-free: only the node-count bound can
        // reject it.
        let huge = Checkpoint::new(0, NodeId::MAX as usize + 2, vec![]);
        let err = decode_checkpoint(&encode_checkpoint(&huge)).unwrap_err();
        assert!(matches!(err, GraphError::Corrupt(_)), "{err:?}");
    }

    #[test]
    fn to_store_restores_state_and_version() {
        let mut store = GraphStore::from_edges(4, &[(0, 1), (1, 2)]);
        store.apply(GraphUpdate::Insert { u: 2, v: 3 });
        store.apply(GraphUpdate::Remove { u: 0, v: 1 });
        let snapshot = store.snapshot();
        let checkpoint = Checkpoint::from_snapshot(&snapshot);
        assert_eq!(checkpoint.lsn(), 2);
        assert_eq!(checkpoint.num_nodes(), 4);

        let restored = checkpoint.to_store();
        assert_eq!(restored.version(), 2);
        let mut restored_edges: Vec<_> = restored.snapshot().edges_iter().collect();
        let mut original_edges: Vec<_> = snapshot.edges_iter().collect();
        restored_edges.sort_unstable();
        original_edges.sort_unstable();
        assert_eq!(restored_edges, original_edges);

        // The restored store continues the version sequence.
        let mut restored = restored;
        assert!(restored.apply(GraphUpdate::Insert { u: 3, v: 0 }));
        assert_eq!(restored.version(), 3);
    }

    #[test]
    fn file_round_trip_is_atomic() {
        let dir = std::env::temp_dir().join(format!("probesim-ckpt-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("store.psck");
        let checkpoint = sample_checkpoint();
        write_checkpoint_file(&path, &checkpoint).unwrap();
        assert_eq!(read_checkpoint_file(&path).unwrap(), checkpoint);
        // A crashed writer's half-written temp sibling never shadows
        // the real file, and the next write consumes it.
        let tmp = crate::log::tmp_sibling(&path);
        std::fs::write(&tmp, b"torn").unwrap();
        assert_eq!(read_checkpoint_file(&path).unwrap(), checkpoint);
        write_checkpoint_file(&path, &checkpoint).unwrap();
        assert!(!tmp.exists());
        std::fs::remove_dir_all(&dir).ok();
    }
}
