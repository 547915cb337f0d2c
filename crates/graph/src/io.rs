//! Graph readers and writers, and the binary codec every on-disk format
//! shares.
//!
//! * **Text edge lists** — the SNAP-style format of the paper's datasets:
//!   one `source target` pair per whitespace-separated line, `#` comments.
//!   Node ids may be arbitrary `u64` values; they are densified to `0..n`.
//! * **Binary** — a compact little-endian format (`PSIM` header, node/edge
//!   counts, then `u32` pairs) that caches generated datasets and is the
//!   payload of fleet checkpoints. [`read_binary`] is the one place that
//!   checks a graph payload's node count, edge count and endpoints.
//!
//! The fleet's checkpoint and update-log formats reuse the `put_*` /
//! `take_*` helpers, the magic-and-version header and the checksummed
//! frame `len: u64 | payload | checksum: u64`. The checksum hashes the
//! length too: FxHash alone misses leading all-zero words and a zero
//! byte dropped from a partial last word.

use std::fs::File;
use std::hash::Hasher;
use std::io::{BufRead, BufReader, BufWriter, Read, Write};
use std::path::Path;

use crate::hash::{FxHashMap, FxHasher};
use crate::view::GraphView;
use crate::{CsrGraph, Edge, GraphError, NodeId};

/// Magic bytes that open every binary graph file.
const MAGIC: &[u8; 4] = b"PSIM";
/// Format version, bumped on layout changes.
const VERSION: u32 = 1;

/// Reads a graph file in either format, told apart by its first bytes:
/// a file that opens with the binary `PSIM` magic reports the binary
/// reader's errors as they are (a truncated or padded `.psim` file is
/// `GraphError::Corrupt`, not a text parse failure), and any other file
/// is parsed as a text edge list (labels dropped).
pub fn read_graph_file<P: AsRef<Path>>(path: P) -> Result<CsrGraph, GraphError> {
    let mut file = File::open(path)?;
    let mut head = Vec::with_capacity(MAGIC.len());
    (&mut file)
        .take(MAGIC.len() as u64)
        .read_to_end(&mut head)?;
    let reader = head.as_slice().chain(file);
    if head == MAGIC {
        read_binary(reader)
    } else {
        read_edge_list_text(BufReader::new(reader)).map(|(graph, _labels)| graph)
    }
}

/// Appends `value` in little-endian byte order.
pub fn put_u32(buf: &mut Vec<u8>, value: u32) {
    buf.extend_from_slice(&value.to_le_bytes());
}

/// Appends `value` in little-endian byte order.
pub fn put_u64(buf: &mut Vec<u8>, value: u64) {
    buf.extend_from_slice(&value.to_le_bytes());
}

/// Splits the first `N` bytes off `bytes` as an array.
pub fn take_array<const N: usize>(bytes: &mut &[u8]) -> Option<[u8; N]> {
    let (head, rest) = bytes.split_first_chunk::<N>()?;
    *bytes = rest;
    Some(*head)
}

/// Takes a little-endian `u32` off the front of `bytes`.
pub fn take_u32(bytes: &mut &[u8]) -> Option<u32> {
    take_array(bytes).map(u32::from_le_bytes)
}

/// Takes a little-endian `u64` off the front of `bytes`.
pub fn take_u64(bytes: &mut &[u8]) -> Option<u64> {
    take_array(bytes).map(u64::from_le_bytes)
}

/// Appends a format header: the four magic bytes, then the format
/// version.
pub fn put_header(buf: &mut Vec<u8>, magic: &[u8; 4], version: u32) {
    buf.extend_from_slice(magic);
    put_u32(buf, version);
}

/// Takes a format header off the front of `bytes`. A short header, other
/// magic bytes or another version is [`GraphError::Corrupt`], and the
/// message names the version found.
pub fn take_header(bytes: &mut &[u8], magic: &[u8; 4], version: u32) -> Result<(), GraphError> {
    let truncated = || GraphError::Corrupt("truncated header".into());
    let found = take_array::<4>(bytes).ok_or_else(truncated)?;
    if &found != magic {
        return Err(GraphError::Corrupt(format!(
            "bad magic {found:?}, expected {magic:?}"
        )));
    }
    let found = take_u32(bytes).ok_or_else(truncated)?;
    if found != version {
        return Err(GraphError::Corrupt(format!(
            "unsupported {} format version {found}, expected {version}",
            String::from_utf8_lossy(magic)
        )));
    }
    Ok(())
}

/// Why [`take_frame`] rejected a frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameError {
    /// The bytes ended inside the frame.
    Truncated,
    /// The stored payload length is not the one the caller expects.
    Length,
    /// The payload or its stored length does not match the checksum.
    Checksum,
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            FrameError::Truncated => "frame truncated",
            FrameError::Length => "frame length mismatch",
            FrameError::Checksum => "frame checksum mismatch",
        })
    }
}

fn frame_checksum(payload: &[u8]) -> u64 {
    let mut hasher = FxHasher::default();
    hasher.write_u64(payload.len() as u64);
    hasher.write(payload);
    hasher.finish()
}

/// Appends `payload` sealed in a checksummed frame:
/// `len: u64 | payload | checksum: u64`.
pub fn put_frame(buf: &mut Vec<u8>, payload: &[u8]) {
    put_u64(buf, payload.len() as u64);
    buf.extend_from_slice(payload);
    put_u64(buf, frame_checksum(payload));
}

/// Takes one frame of an `expected`-byte payload off the front of
/// `bytes` and returns the payload once its checksum holds, so nothing
/// in it is parsed unverified.
pub fn take_frame<'a>(bytes: &mut &'a [u8], expected: usize) -> Result<&'a [u8], FrameError> {
    if take_u64(bytes).ok_or(FrameError::Truncated)? != expected as u64 {
        return Err(FrameError::Length);
    }
    let (payload, rest) = bytes
        .split_at_checked(expected)
        .ok_or(FrameError::Truncated)?;
    *bytes = rest;
    if take_u64(bytes).ok_or(FrameError::Truncated)? != frame_checksum(payload) {
        return Err(FrameError::Checksum);
    }
    Ok(payload)
}

/// Reads a whitespace-separated edge list, densifying arbitrary `u64` node
/// ids to `0..n` in first-appearance order.
///
/// Lines starting with `#` or `%` are comments; blank lines are skipped.
/// Returns the graph together with the original labels (index = dense id).
pub fn read_edge_list_text<R: BufRead>(reader: R) -> Result<(CsrGraph, Vec<u64>), GraphError> {
    let mut labels: Vec<u64> = Vec::new();
    let mut dense: FxHashMap<u64, NodeId> = FxHashMap::default();
    let mut edges: Vec<Edge> = Vec::new();
    let mut intern = |raw: u64, labels: &mut Vec<u64>| -> NodeId {
        *dense.entry(raw).or_insert_with(|| {
            let id = labels.len() as NodeId;
            labels.push(raw);
            id
        })
    };
    for (lineno, line) in reader.lines().enumerate() {
        let line = line?;
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') || trimmed.starts_with('%') {
            continue;
        }
        let mut it = trimmed.split_whitespace();
        let parse = |tok: Option<&str>| -> Result<u64, GraphError> {
            tok.and_then(|t| t.parse::<u64>().ok())
                .ok_or_else(|| GraphError::Parse {
                    line: lineno + 1,
                    content: trimmed.to_string(),
                })
        };
        let u = parse(it.next())?;
        let v = parse(it.next())?;
        let du = intern(u, &mut labels);
        let dv = intern(v, &mut labels);
        edges.push((du, dv));
    }
    Ok((CsrGraph::from_edges(labels.len(), &edges), labels))
}

/// Writes a graph as a text edge list (`u v` per line, dense ids).
pub fn write_edge_list_text<W: Write, G: GraphView>(
    mut writer: W,
    graph: &G,
) -> Result<(), GraphError> {
    writeln!(
        writer,
        "# probesim edge list: n={} m={}",
        graph.num_nodes(),
        graph.num_edges()
    )?;
    for u in graph.nodes() {
        for &v in graph.out_neighbors(u) {
            writeln!(writer, "{u}\t{v}")?;
        }
    }
    Ok(())
}

/// Serializes a graph into the binary format.
pub fn write_binary<W: Write, G: GraphView>(mut writer: W, graph: &G) -> Result<(), GraphError> {
    let mut buf = Vec::with_capacity(8 * 1024);
    put_header(&mut buf, MAGIC, VERSION);
    put_u64(&mut buf, graph.num_nodes() as u64);
    put_u64(&mut buf, graph.num_edges() as u64);
    for (u, v) in graph.edges_iter() {
        put_u32(&mut buf, u);
        put_u32(&mut buf, v);
        if buf.len() >= 8 * 1024 {
            writer.write_all(&buf)?;
            buf.clear();
        }
    }
    writer.write_all(&buf)?;
    Ok(writer.flush()?)
}

/// Deserializes a graph from the binary format.
pub fn read_binary<R: Read>(mut reader: R) -> Result<CsrGraph, GraphError> {
    let mut raw = Vec::new();
    reader.read_to_end(&mut raw)?;
    let mut cur = &raw[..];
    take_header(&mut cur, MAGIC, VERSION)?;
    let truncated = || GraphError::Corrupt("truncated header".into());
    let n = take_u64(&mut cur).ok_or_else(truncated)?;
    let m = take_u64(&mut cur).ok_or_else(truncated)?;
    // Node ids are `NodeId`s, so `n` must fit one: a larger count would
    // truncate in `n as NodeId` (or wrap `n + 1` when sizing offsets).
    if n > NodeId::MAX as u64 {
        return Err(GraphError::Corrupt(format!(
            "node count {n} exceeds the {}-bit id space",
            NodeId::BITS
        )));
    }
    let n = n as usize;
    // checked_mul: a corrupt header with a huge edge count must become a
    // Corrupt error, not an overflow panic (or a wrapped-to-0 size check
    // in release builds followed by a capacity-overflow abort).
    let edge_bytes = usize::try_from(m)
        .ok()
        .and_then(|m| m.checked_mul(8))
        .ok_or_else(|| GraphError::Corrupt(format!("edge count {m} overflows the format")))?;
    if cur.len() != edge_bytes {
        return Err(GraphError::Corrupt(format!(
            "expected {edge_bytes} edge bytes, found {}",
            cur.len()
        )));
    }
    let mut edges = Vec::with_capacity(edge_bytes / 8);
    while let (Some(u), Some(v)) = (take_u32(&mut cur), take_u32(&mut cur)) {
        if let Some(node) = [u, v].into_iter().find(|&node| node as usize >= n) {
            return Err(GraphError::NodeOutOfRange {
                node: node as u64,
                num_nodes: n,
            });
        }
        edges.push((u, v));
    }
    Ok(CsrGraph::from_edges(n, &edges))
}

/// Writes the binary format to a file path.
pub fn write_binary_file<P: AsRef<Path>, G: GraphView>(
    path: P,
    graph: &G,
) -> Result<(), GraphError> {
    let file = File::create(path)?;
    write_binary(BufWriter::new(file), graph)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn text_round_trip() {
        let g = CsrGraph::from_edges(4, &[(0, 1), (1, 2), (3, 0)]);
        let mut out = Vec::new();
        write_edge_list_text(&mut out, &g).unwrap();
        let (g2, labels) = read_edge_list_text(Cursor::new(out)).unwrap();
        assert_eq!(g2.num_edges(), 3);
        // Ids are re-densified in first-appearance order; edge multiset is
        // preserved up to relabeling.
        assert_eq!(labels.len(), 4);
        assert_eq!(g2.num_nodes(), 4);
    }

    #[test]
    fn text_parses_comments_and_blank_lines() {
        let text = "# header\n% also comment\n\n10 20\n20 30\n";
        let (g, labels) = read_edge_list_text(Cursor::new(text)).unwrap();
        assert_eq!(g.num_nodes(), 3);
        assert_eq!(g.num_edges(), 2);
        assert_eq!(labels, vec![10, 20, 30]);
        assert!(g.has_edge(0, 1)); // 10 -> 20
        assert!(g.has_edge(1, 2)); // 20 -> 30
    }

    #[test]
    fn text_rejects_garbage() {
        let text = "1 2\nnot an edge\n";
        let err = read_edge_list_text(Cursor::new(text)).unwrap_err();
        match err {
            GraphError::Parse { line, .. } => assert_eq!(line, 2),
            other => panic!("expected Parse, got {other:?}"),
        }
    }

    #[test]
    fn text_rejects_missing_target() {
        let err = read_edge_list_text(Cursor::new("5\n")).unwrap_err();
        assert!(matches!(err, GraphError::Parse { line: 1, .. }));
    }

    #[test]
    fn binary_round_trip() {
        let g = CsrGraph::from_edges(5, &[(0, 1), (1, 2), (4, 0), (2, 2)]);
        let mut buf = Vec::new();
        write_binary(&mut buf, &g).unwrap();
        let g2 = read_binary(Cursor::new(buf)).unwrap();
        assert_eq!(g, g2);
    }

    #[test]
    fn binary_rejects_bad_magic() {
        let err = read_binary(Cursor::new(b"NOPE00000000000000000000000".to_vec())).unwrap_err();
        assert!(matches!(err, GraphError::Corrupt(_)));
    }

    /// Byte-exhaustive: every strict prefix of a written graph — inside
    /// the header, at an edge boundary, mid-edge — is `Corrupt`.
    #[test]
    fn binary_rejects_truncation() {
        let g = CsrGraph::from_edges(4, &[(0, 1), (1, 2), (3, 3), (2, 0)]);
        let mut buf = Vec::new();
        write_binary(&mut buf, &g).unwrap();
        for cut in 0..buf.len() {
            let err = read_binary(Cursor::new(&buf[..cut])).unwrap_err();
            assert!(
                matches!(err, GraphError::Corrupt(_)),
                "prefix of {cut}/{} bytes: {err:?}",
                buf.len()
            );
        }
        assert_eq!(read_binary(Cursor::new(&buf[..])).unwrap(), g);
    }

    /// A header with `n` nodes, `m` edges and no edge payload.
    fn header(n: u64, m: u64) -> Vec<u8> {
        let mut buf = Vec::new();
        put_header(&mut buf, MAGIC, VERSION);
        put_u64(&mut buf, n);
        put_u64(&mut buf, m);
        buf
    }

    #[test]
    fn binary_rejects_overflowing_edge_count() {
        // Header claims m = 2^62 edges; the size check must fail cleanly
        // instead of wrapping.
        let err = read_binary(Cursor::new(header(1, 1u64 << 62))).unwrap_err();
        assert!(matches!(err, GraphError::Corrupt(_)), "{err:?}");
    }

    #[test]
    fn binary_rejects_wrapping_node_count() {
        // n + 1 wraps to 0 when sizing the offset arrays.
        let err = read_binary(Cursor::new(header(u64::MAX, 0))).unwrap_err();
        assert!(matches!(err, GraphError::Corrupt(_)), "{err:?}");
    }

    #[test]
    fn binary_rejects_node_count_beyond_the_id_space() {
        // 2^40 nodes cannot be addressed by NodeId (and would ask for
        // 8 TiB per offset array).
        let err = read_binary(Cursor::new(header(1 << 40, 0))).unwrap_err();
        assert!(matches!(err, GraphError::Corrupt(_)), "{err:?}");
    }

    #[test]
    fn binary_rejects_trailing_bytes() {
        let g = CsrGraph::from_edges(3, &[(0, 1), (1, 2)]);
        let mut buf = Vec::new();
        write_binary(&mut buf, &g).unwrap();
        put_u64(&mut buf, 0);
        let err = read_binary(Cursor::new(buf)).unwrap_err();
        assert!(matches!(err, GraphError::Corrupt(_)), "{err:?}");
    }

    #[test]
    fn binary_rejects_out_of_range_node() {
        // Hand-craft a file claiming n=1 but containing node id 7.
        let mut buf = header(1, 1);
        put_u32(&mut buf, 0);
        put_u32(&mut buf, 7);
        let err = read_binary(Cursor::new(buf)).unwrap_err();
        assert!(matches!(err, GraphError::NodeOutOfRange { node: 7, .. }));
    }

    /// Leading zero words and a dropped trailing zero byte keep FxHash's
    /// value; the hashed length makes the frame reject both.
    #[test]
    fn frame_checksum_covers_the_length() {
        let payload = [1u8, 2, 3, 0];
        let mut sealed = Vec::new();
        put_frame(&mut sealed, &payload);
        let checksum = &sealed[sealed.len() - 8..];
        for forged in [payload[..3].to_vec(), [&[0u8; 16][..], &payload].concat()] {
            let mut buf = Vec::new();
            put_u64(&mut buf, forged.len() as u64);
            buf.extend_from_slice(&forged);
            buf.extend_from_slice(checksum);
            let result = take_frame(&mut &buf[..], forged.len());
            assert_eq!(result, Err(FrameError::Checksum), "{forged:?}");
        }
    }

    /// Writes `bytes` to a fresh temp file and reads it back through the
    /// format-sniffing entry point.
    fn read_sniffed(name: &str, bytes: &[u8]) -> Result<CsrGraph, GraphError> {
        let dir = std::env::temp_dir().join("probesim_io_sniff_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(name);
        std::fs::write(&path, bytes).unwrap();
        let result = read_graph_file(&path);
        std::fs::remove_file(&path).ok();
        result
    }

    /// A binary file large enough to cut mid-payload at 200 bytes.
    fn binary_bytes() -> Vec<u8> {
        let edges: Vec<Edge> = (0..40).map(|i| (i, (i + 1) % 40)).collect();
        let mut buf = Vec::new();
        write_binary(&mut buf, &CsrGraph::from_edges(40, &edges)).unwrap();
        assert!(buf.len() > 200);
        buf
    }

    #[test]
    fn sniffing_reads_both_formats() {
        let bytes = binary_bytes();
        assert_eq!(read_sniffed("whole.psim", &bytes).unwrap().num_edges(), 40);
        let text = read_sniffed("g.txt", b"# comment\n10 20\n20 30\n").unwrap();
        assert_eq!((text.num_nodes(), text.num_edges()), (3, 2));
        // Too short to hold the magic: still text.
        assert_eq!(read_sniffed("tiny.txt", b"").unwrap().num_nodes(), 0);
    }

    #[test]
    fn sniffing_reports_a_truncated_binary_file_as_corrupt() {
        let mut bytes = binary_bytes();
        bytes.truncate(200);
        let err = read_sniffed("cut.psim", &bytes).unwrap_err();
        assert!(matches!(err, GraphError::Corrupt(_)), "{err:?}");
        assert!(err.to_string().starts_with("corrupt graph file"), "{err}");
    }

    #[test]
    fn sniffing_reports_a_padded_binary_file_as_corrupt() {
        let mut bytes = binary_bytes();
        bytes.extend_from_slice(&[0; 8]);
        let err = read_sniffed("padded.psim", &bytes).unwrap_err();
        assert!(matches!(err, GraphError::Corrupt(_)), "{err:?}");
        assert!(err.to_string().starts_with("corrupt graph file"), "{err}");
    }

    #[test]
    fn file_round_trip() {
        let dir = std::env::temp_dir().join("probesim_io_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("g.bin");
        let g = CsrGraph::from_edges(3, &[(0, 1), (2, 1)]);
        write_binary_file(&path, &g).unwrap();
        let g2 = read_graph_file(&path).unwrap();
        assert_eq!(g, g2);
        std::fs::remove_file(&path).ok();
    }
}
