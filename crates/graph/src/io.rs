//! Graph readers and writers.
//!
//! Two formats:
//!
//! * **Text edge lists** — the SNAP-style format of the paper's datasets:
//!   one `source target` pair per whitespace-separated line, `#` comments.
//!   Node ids may be arbitrary `u64` values; they are densified to `0..n`.
//! * **Binary** — a compact little-endian format (`PSIM` magic, node/edge
//!   counts, then `u32` pairs), used to cache generated datasets between
//!   benchmark runs.

use std::fs::File;
use std::io::{BufRead, BufReader, BufWriter, Read, Write};
use std::path::Path;

use crate::hash::FxHashMap;
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

/// Little-endian append helpers (the `bytes::BufMut` subset this file
/// needs, implemented on `Vec<u8>` so the format has no external deps).
trait PutExt {
    fn put_slice(&mut self, bytes: &[u8]);
    fn put_u32_le(&mut self, value: u32);
    fn put_u64_le(&mut self, value: u64);
}

impl PutExt for Vec<u8> {
    #[inline]
    fn put_slice(&mut self, bytes: &[u8]) {
        self.extend_from_slice(bytes);
    }
    #[inline]
    fn put_u32_le(&mut self, value: u32) {
        self.extend_from_slice(&value.to_le_bytes());
    }
    #[inline]
    fn put_u64_le(&mut self, value: u64) {
        self.extend_from_slice(&value.to_le_bytes());
    }
}

/// Little-endian consuming reads over a byte slice (the `bytes::Buf`
/// subset this file needs). Each `get_*` advances the slice; callers
/// check [`TakeExt::remaining`] before reading.
trait TakeExt {
    fn remaining(&self) -> usize;
    fn copy_to_slice(&mut self, dst: &mut [u8]);
    fn get_u32_le(&mut self) -> u32;
    fn get_u64_le(&mut self) -> u64;
}

impl TakeExt for &[u8] {
    #[inline]
    fn remaining(&self) -> usize {
        self.len()
    }
    #[inline]
    fn copy_to_slice(&mut self, dst: &mut [u8]) {
        let (head, tail) = self.split_at(dst.len());
        dst.copy_from_slice(head);
        *self = tail;
    }
    #[inline]
    fn get_u32_le(&mut self) -> u32 {
        let mut raw = [0u8; 4];
        self.copy_to_slice(&mut raw);
        u32::from_le_bytes(raw)
    }
    #[inline]
    fn get_u64_le(&mut self) -> u64 {
        let mut raw = [0u8; 8];
        self.copy_to_slice(&mut raw);
        u64::from_le_bytes(raw)
    }
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

/// Reads a text edge list from a file path. See [`read_edge_list_text`].
pub fn read_edge_list_file<P: AsRef<Path>>(path: P) -> Result<(CsrGraph, Vec<u64>), GraphError> {
    let file = File::open(path)?;
    read_edge_list_text(BufReader::new(file))
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
    let mut header = Vec::with_capacity(4 + 4 + 8 + 8);
    header.put_slice(MAGIC);
    header.put_u32_le(VERSION);
    header.put_u64_le(graph.num_nodes() as u64);
    header.put_u64_le(graph.num_edges() as u64);
    writer.write_all(&header)?;
    let mut buf = Vec::with_capacity(8 * 1024);
    for u in graph.nodes() {
        for &v in graph.out_neighbors(u) {
            buf.put_u32_le(u);
            buf.put_u32_le(v);
            if buf.len() >= 8 * 1024 {
                writer.write_all(&buf)?;
                buf.clear();
            }
        }
    }
    writer.write_all(&buf)?;
    Ok(())
}

/// Deserializes a graph from the binary format.
pub fn read_binary<R: Read>(mut reader: R) -> Result<CsrGraph, GraphError> {
    let mut raw = Vec::new();
    reader.read_to_end(&mut raw)?;
    let mut cur = &raw[..];
    if cur.remaining() < 24 {
        return Err(GraphError::Corrupt("truncated header".into()));
    }
    let mut magic = [0u8; 4];
    cur.copy_to_slice(&mut magic);
    if &magic != MAGIC {
        return Err(GraphError::Corrupt(format!("bad magic {magic:?}")));
    }
    let version = cur.get_u32_le();
    if version != VERSION {
        return Err(GraphError::Corrupt(format!(
            "unsupported version {version}"
        )));
    }
    let n = cur.get_u64_le();
    // Node ids are `NodeId`s, so `n` must fit one: a larger count would
    // truncate in `n as NodeId` (or wrap `n + 1` when sizing offsets).
    if n > NodeId::MAX as u64 {
        return Err(GraphError::Corrupt(format!(
            "node count {n} exceeds the {}-bit id space",
            NodeId::BITS
        )));
    }
    let n = n as usize;
    let m = cur.get_u64_le() as usize;
    // checked_mul: a corrupt header with a huge edge count must become a
    // Corrupt error, not an overflow panic (or a wrapped-to-0 size check
    // in release builds followed by a capacity-overflow abort).
    let edge_bytes = m
        .checked_mul(8)
        .ok_or_else(|| GraphError::Corrupt(format!("edge count {m} overflows the format")))?;
    if cur.remaining() != edge_bytes {
        return Err(GraphError::Corrupt(format!(
            "expected {edge_bytes} edge bytes, found {}",
            cur.remaining()
        )));
    }
    let mut edges = Vec::with_capacity(m);
    for _ in 0..m {
        let u = cur.get_u32_le();
        let v = cur.get_u32_le();
        if u as usize >= n {
            return Err(GraphError::NodeOutOfRange {
                node: u as u64,
                num_nodes: n,
            });
        }
        if v as usize >= n {
            return Err(GraphError::NodeOutOfRange {
                node: v as u64,
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

/// Reads the binary format from a file path.
pub fn read_binary_file<P: AsRef<Path>>(path: P) -> Result<CsrGraph, GraphError> {
    let file = File::open(path)?;
    read_binary(BufReader::new(file))
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
        buf.put_slice(MAGIC);
        buf.put_u32_le(VERSION);
        buf.put_u64_le(n);
        buf.put_u64_le(m);
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
        buf.put_u64_le(0);
        let err = read_binary(Cursor::new(buf)).unwrap_err();
        assert!(matches!(err, GraphError::Corrupt(_)), "{err:?}");
    }

    #[test]
    fn binary_rejects_out_of_range_node() {
        // Hand-craft a file claiming n=1 but containing node id 7.
        let mut buf = header(1, 1);
        buf.put_u32_le(0);
        buf.put_u32_le(7);
        let err = read_binary(Cursor::new(buf)).unwrap_err();
        assert!(matches!(err, GraphError::NodeOutOfRange { node: 7, .. }));
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
        let g2 = read_binary_file(&path).unwrap();
        assert_eq!(g, g2);
        std::fs::remove_file(&path).ok();
    }
}
