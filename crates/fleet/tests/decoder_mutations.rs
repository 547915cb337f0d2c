//! Decoder mutation property: every strict prefix, every one-byte change
//! and appended bytes make each decoder return `Ok` or a typed
//! `GraphError`, never panic. The two checksummed formats, checkpoints
//! and the update log, never strictly decode a mutated stream, and log
//! salvage only ever keeps a prefix of the written records, under the
//! first LSN the log was written with.

use probesim_fleet::{
    decode_checkpoint, decode_log, encode_checkpoint, encode_log, salvage_log, Checkpoint,
    LogRecord,
};
use probesim_graph::io::{read_binary, read_edge_list_text, write_binary, write_edge_list_text};
use probesim_graph::{CsrGraph, GraphStore, GraphUpdate, NodeId};
use proptest::prelude::*;

/// Every strict prefix of `bytes`, every one-byte change (XOR with a
/// nonzero byte drawn from `flips`) and `bytes` followed by `tail`.
fn mutations(bytes: &[u8], flips: &[u8], tail: &[u8]) -> Vec<Vec<u8>> {
    let mut all: Vec<_> = (0..bytes.len()).map(|cut| bytes[..cut].to_vec()).collect();
    for (at, flip) in flips.iter().cycle().take(bytes.len()).enumerate() {
        all.push(bytes.to_vec());
        all.last_mut().unwrap()[at] ^= flip;
    }
    all.push([bytes, tail].concat());
    all
}

/// `read_binary` trusts any node count inside the id space and sizes its
/// offsets by it, which is ROADMAP item 1's open allocation: a `PSIM`
/// stream whose count a change pushed past 2^16 is not decoded here.
fn huge_node_count(psim: &[u8]) -> bool {
    psim.get(8..16)
        .map(|n| u64::from_le_bytes(n.try_into().unwrap()))
        .is_some_and(|n| n > 1 << 16 && n <= NodeId::MAX as u64)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn mutated_streams_decode_to_ok_or_a_typed_error(
        n in 1u32..12,
        raw_edges in prop::collection::vec((any::<u32>(), any::<u32>()), 0..24),
        lsn in any::<u64>(),
        first_lsn in 1u64..u64::MAX / 2,
        flips in prop::collection::vec(1u8..=255, 1..8),
        tail in prop::collection::vec(any::<u8>(), 1..10),
    ) {
        let edges: Vec<_> = raw_edges.iter().map(|&(u, v)| (u % n, v % n)).collect();
        let graph = CsrGraph::from_edges(n as usize, &edges);
        let records: Vec<_> = edges
            .iter()
            .zip(first_lsn..)
            .map(|(&(u, v), lsn)| LogRecord {
                lsn,
                update: [GraphUpdate::Insert { u, v }, GraphUpdate::Remove { u, v }][lsn as usize % 2],
            })
            .collect();

        let mut psim = Vec::new();
        write_binary(&mut psim, &graph).unwrap();
        for bytes in mutations(&psim, &flips, &tail) {
            if !huge_node_count(&bytes) {
                let _ = read_binary(&bytes[..]);
            }
        }
        let mut text = Vec::new();
        write_edge_list_text(&mut text, &graph).unwrap();
        for bytes in mutations(&text, &flips, &tail) {
            let _ = read_edge_list_text(&bytes[..]);
        }

        let snapshot = GraphStore::from_csr_at(graph, lsn).snapshot();
        let checkpoint = encode_checkpoint(&Checkpoint::from_snapshot(&snapshot));
        for bytes in mutations(&checkpoint, &flips, &tail) {
            prop_assert!(decode_checkpoint(&bytes).is_err(), "{bytes:?}");
        }
        // `encode_log` starts an empty slice at LSN 1.
        let header_lsn = if records.is_empty() { 1 } else { first_lsn };
        let log = encode_log(&records);
        prop_assert_eq!(&decode_log(&log).unwrap(), &records);
        for bytes in mutations(&log, &flips, &tail) {
            prop_assert!(decode_log(&bytes).is_err(), "{bytes:?}");
            if let Ok(salvage) = salvage_log(&bytes) {
                prop_assert_eq!(salvage.first_lsn, header_lsn, "{:?}", bytes);
                prop_assert!(records.starts_with(&salvage.records), "{bytes:?}");
            }
        }
    }
}
