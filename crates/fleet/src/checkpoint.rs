//! Checksummed, versioned store checkpoints.
//!
//! ProbeSim keeps no index, so a store's state is its graph: a
//! [`Checkpoint`] holds the [`GraphSnapshot`] published at one LSN
//! (capturing one is an `Arc` clone). A replica restored from a
//! checkpoint at LSN *v* resumes tailing the update log at *v + 1*, so
//! restarts cost O(suffix) instead of O(history).
//!
//! On disk a checkpoint is the `PSCK` header, then one checksummed frame
//! around the LSN and the bytes [`io::write_binary`] writes. Decoding
//! verifies the frame before [`io::read_binary`] bounds the node count,
//! the edge count and every endpoint, so bad magic, another format
//! version, truncations, trailing garbage and flipped bits are all
//! [`GraphError::Corrupt`]. Files are written through the log's synced
//! temp-sibling + atomic-rename path.

use std::path::Path;

use probesim_graph::{io, GraphError, GraphSnapshot, GraphStore, GraphView};

use crate::log::write_atomic;

/// Magic bytes opening every serialized checkpoint: "PSCK" (ProbeSim
/// ChecKpoint).
const MAGIC: &[u8; 4] = b"PSCK";
/// Bump on any incompatible layout change. Version 1 stored raw edge
/// pairs under a checksum that did not cover their length.
const VERSION: u32 = 2;
/// The frame's length and checksum fields around its payload.
const FRAME_OVERHEAD: usize = 16;

/// A store state frozen at one LSN. The LSN is the snapshot's version
/// (LSN ≡ store version, the fleet-wide invariant).
#[derive(Debug, Clone)]
pub struct Checkpoint {
    snapshot: GraphSnapshot,
}

impl Checkpoint {
    /// Freezes a published snapshot: the checkpoint's LSN is the
    /// snapshot's version.
    pub fn from_snapshot(snapshot: &GraphSnapshot) -> Checkpoint {
        Checkpoint {
            snapshot: snapshot.clone(),
        }
    }

    /// The LSN (≡ store version) this checkpoint represents.
    pub fn lsn(&self) -> u64 {
        self.snapshot.version()
    }

    /// Node count of the checkpointed graph.
    pub fn num_nodes(&self) -> usize {
        self.snapshot.num_nodes()
    }

    /// Rebuilds a store at this checkpoint's state **and version**:
    /// the next effective mutation produces version `lsn + 1`, so the
    /// store slots straight back into the log's LSN lockstep.
    pub fn to_store(&self) -> GraphStore {
        GraphStore::from_csr_at(self.snapshot.to_csr(), self.lsn())
    }
}

/// Serializes a checkpoint: the `PSCK` header, then one frame around
/// the LSN and the `PSIM` graph bytes.
pub fn encode_checkpoint(checkpoint: &Checkpoint) -> Vec<u8> {
    let mut payload = Vec::new();
    io::put_u64(&mut payload, checkpoint.lsn());
    io::write_binary(&mut payload, &checkpoint.snapshot)
        .expect("invariant: writing to a Vec cannot fail");
    let mut buf = Vec::with_capacity(8 + FRAME_OVERHEAD + payload.len());
    io::put_header(&mut buf, MAGIC, VERSION);
    io::put_frame(&mut buf, &payload);
    buf
}

/// Decodes a serialized checkpoint: header, then the frame's length and
/// checksum, then the graph through [`io::read_binary`]. Any violation —
/// a truncated file, trailing garbage, a single flipped bit — is a
/// typed error, [`GraphError::Corrupt`] for all damage to the bytes.
pub fn decode_checkpoint(bytes: &[u8]) -> Result<Checkpoint, GraphError> {
    let mut cursor = bytes;
    io::take_header(&mut cursor, MAGIC, VERSION)?;
    // The frame fills the rest of the file.
    let frame_bytes = cursor.len().saturating_sub(FRAME_OVERHEAD);
    let mut payload = io::take_frame(&mut cursor, frame_bytes)
        .map_err(|err| GraphError::Corrupt(format!("checkpoint {err}")))?;
    let lsn = io::take_u64(&mut payload)
        .ok_or_else(|| GraphError::Corrupt("checkpoint frame holds no LSN".into()))?;
    let graph = io::read_binary(payload)?;
    Ok(Checkpoint {
        snapshot: GraphStore::from_csr_at(graph, lsn).snapshot(),
    })
}

/// Writes a serialized checkpoint to a file (temp sibling + fsync +
/// atomic rename, like [`crate::write_log_file`]).
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
    use probesim_graph::{CsrGraph, GraphUpdate, NodeId};

    fn sample_checkpoint() -> Checkpoint {
        let graph = CsrGraph::from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 0), (4, 2)]);
        Checkpoint::from_snapshot(&GraphStore::from_csr_at(graph, 42).snapshot())
    }

    /// Recomputes the checksum of a checkpoint whose payload was edited.
    /// The payload's graph bytes start at offset 24, its node count at 32.
    fn reseal(bytes: &[u8]) -> Vec<u8> {
        let mut sealed = bytes[..8].to_vec();
        io::put_frame(&mut sealed, &bytes[16..bytes.len() - 8]);
        sealed
    }

    #[test]
    fn encode_decode_round_trip() {
        let empty = Checkpoint::from_snapshot(&GraphStore::new(3).snapshot());
        for checkpoint in [sample_checkpoint(), empty] {
            let bytes = encode_checkpoint(&checkpoint);
            let decoded = decode_checkpoint(&bytes).unwrap();
            assert_eq!(decoded.lsn(), checkpoint.lsn());
            assert_eq!(encode_checkpoint(&decoded), bytes);
        }
    }

    #[test]
    fn version_1_files_are_rejected_by_version() {
        let mut bytes = encode_checkpoint(&sample_checkpoint());
        bytes[4..8].copy_from_slice(&1u32.to_le_bytes());
        let err = decode_checkpoint(&bytes).unwrap_err();
        assert!(matches!(err, GraphError::Corrupt(_)), "{err:?}");
        assert!(err.to_string().contains("PSCK format version 1"), "{err}");
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
        // A node id past the node count under a valid checksum:
        // `read_binary`'s bounds check, not the checksum, must reject it.
        let mut bytes = encode_checkpoint(&sample_checkpoint());
        bytes[32] = 2; // 5 nodes -> 2, but the edge (1, 2) remains
        let err = decode_checkpoint(&reseal(&bytes)).unwrap_err();
        assert!(err.to_string().contains("out of range"), "{err}");
    }

    #[test]
    fn node_count_past_the_id_space_is_detected() {
        // Checksum-valid: only the node-count bound can reject it.
        let mut bytes = encode_checkpoint(&sample_checkpoint());
        bytes[32..40].copy_from_slice(&(NodeId::MAX as u64 + 2).to_le_bytes());
        let err = decode_checkpoint(&reseal(&bytes)).unwrap_err();
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
        let bytes = encode_checkpoint(&checkpoint);
        write_checkpoint_file(&path, &checkpoint).unwrap();
        assert_eq!(
            encode_checkpoint(&read_checkpoint_file(&path).unwrap()),
            bytes
        );
        // A crashed writer's half-written temp sibling never shadows
        // the real file, and the next write consumes it.
        let tmp = crate::log::tmp_sibling(&path);
        std::fs::write(&tmp, b"torn").unwrap();
        assert_eq!(
            encode_checkpoint(&read_checkpoint_file(&path).unwrap()),
            bytes
        );
        write_checkpoint_file(&path, &checkpoint).unwrap();
        assert!(!tmp.exists());
        std::fs::remove_dir_all(&dir).ok();
    }
}
