//! Update-stream generators for dynamic-graph workloads.
//!
//! ProbeSim is index-free, so its natural habitat is a graph under
//! continuous mutation ("real-time SimRank queries on graphs with frequent
//! updates", Section 1). The benchmark scenarios and churn tests need
//! *reproducible* mutation workloads; this module generates them as
//! sequences of [`GraphUpdate`] events, deterministic in their seed.
//!
//! The main generator is the **sliding window**: edges arrive one at a
//! time, stay live while they are among the `window` most recent, and are
//! evicted oldest-first — the standard model for timestamped edge streams
//! (each event after warm-up is one insertion plus one expiry, keeping the
//! live edge count constant, as in "Dynamical SimRank Search on
//! Time-Varying Networks").

use probesim_graph::{CsrGraph, GraphUpdate, NodeId, OverlayGraph};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use std::collections::VecDeque;
use std::sync::Arc;

/// A seeded sliding-window edge stream over `n` nodes.
///
/// Yields [`GraphUpdate`] events: pure insertions until `window` edges are
/// live, then each further insertion is preceded by the expiry
/// ([`GraphUpdate::Remove`]) of the oldest live edge. Generated edges are
/// simple (no self-loops) and never duplicate a currently-live edge, so
/// every event applied in order changes the graph.
///
/// # Example
///
/// ```
/// use probesim_datasets::stream::SlidingWindowStream;
/// use probesim_graph::{GraphStore, GraphView};
///
/// let mut graph = GraphStore::new(50);
/// let mut stream = SlidingWindowStream::new(50, 100, 7);
/// for update in stream.by_ref().take(300) {
///     assert!(graph.apply(update), "stream events always change the graph");
/// }
/// assert_eq!(graph.num_edges(), 100); // window is full and stays full
/// ```
#[derive(Debug, Clone)]
pub struct SlidingWindowStream {
    n: usize,
    window: usize,
    rng: StdRng,
    /// Live edges, oldest first.
    live: VecDeque<(NodeId, NodeId)>,
    /// Membership mirror of `live` for O(1) duplicate checks.
    member: probesim_graph::FxHashSet<(NodeId, NodeId)>,
    /// An expiry produced by the last `next()` whose paired insertion is
    /// still owed.
    pending_insert: bool,
}

impl SlidingWindowStream {
    /// A stream over nodes `0..n` keeping at most `window` edges live.
    ///
    /// Panics when `n < 2` (no simple edge exists) or `window == 0`.
    pub fn new(n: usize, window: usize, seed: u64) -> Self {
        assert!(n >= 2, "need at least 2 nodes to form an edge");
        assert!(window >= 1, "window must hold at least one edge");
        assert!(
            window <= n * (n - 1) / 2,
            "window {window} too large for n = {n}: rejection sampling needs \
             live edges to stay under half the n*(n-1) possible edges"
        );
        SlidingWindowStream {
            n,
            window,
            rng: StdRng::seed_from_u64(seed),
            live: VecDeque::with_capacity(window),
            member: probesim_graph::hash::fx_set_with_capacity(window * 2),
            pending_insert: false,
        }
    }

    /// Node count of the target graph.
    pub fn num_nodes(&self) -> usize {
        self.n
    }

    /// Maximum number of simultaneously-live edges.
    pub fn window(&self) -> usize {
        self.window
    }

    /// Currently-live edges, oldest first.
    pub fn live_edges(&self) -> impl Iterator<Item = (NodeId, NodeId)> + '_ {
        self.live.iter().copied()
    }

    /// Draws a fresh edge: simple, not currently live.
    fn draw_edge(&mut self) -> (NodeId, NodeId) {
        // `new` caps the window at half the possible edges, so each draw
        // succeeds with probability > 1/2 and rejection sampling
        // terminates quickly.
        loop {
            let u = self.rng.gen_range(0..self.n) as NodeId;
            let v = self.rng.gen_range(0..self.n) as NodeId;
            if u != v && !self.member.contains(&(u, v)) {
                return (u, v);
            }
        }
    }
}

impl Iterator for SlidingWindowStream {
    type Item = GraphUpdate;

    fn next(&mut self) -> Option<GraphUpdate> {
        if !self.pending_insert && self.live.len() >= self.window {
            // Window full: evict the oldest edge first; the paired
            // insertion comes on the next call.
            let (u, v) = self
                .live
                .pop_front()
                .expect("invariant: window >= 1 keeps the deque non-empty");
            self.member.remove(&(u, v));
            self.pending_insert = true;
            return Some(GraphUpdate::Remove { u, v });
        }
        self.pending_insert = false;
        let (u, v) = self.draw_edge();
        self.live.push_back((u, v));
        self.member.insert((u, v));
        Some(GraphUpdate::Insert { u, v })
    }
}

/// Materializes a warmed-up sliding-window workload: a graph filled to
/// the full `window`, plus the next `events` stream updates to replay
/// against it. The benchmark scenarios and churn tests both start from
/// this state so measurements cover the steady-state regime, not the
/// fill-up ramp.
///
/// The first `window` events are distinct non-loop inserts, so the warm
/// graph is built in one pass as an untouched overlay over their CSR —
/// [`OverlayGraph::snapshot`] or `GraphStore::from_view` turn it into
/// the form a caller queries or mutates.
pub fn sliding_window_workload(
    n: usize,
    window: usize,
    events: usize,
    seed: u64,
) -> (OverlayGraph, Vec<GraphUpdate>) {
    let mut stream = SlidingWindowStream::new(n, window, seed);
    let warm: Vec<(NodeId, NodeId)> = stream.by_ref().take(window).map(|e| e.edge()).collect();
    let graph = OverlayGraph::new(Arc::new(CsrGraph::from_edges(n, &warm)));
    let updates = stream.take(events).collect();
    (graph, updates)
}

#[cfg(test)]
mod tests {
    use super::*;
    use probesim_graph::{GraphStore, GraphView};

    #[test]
    fn stream_is_deterministic() {
        let a: Vec<GraphUpdate> = SlidingWindowStream::new(40, 60, 5).take(500).collect();
        let b: Vec<GraphUpdate> = SlidingWindowStream::new(40, 60, 5).take(500).collect();
        let c: Vec<GraphUpdate> = SlidingWindowStream::new(40, 60, 6).take(500).collect();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn every_event_changes_the_graph() {
        let mut graph = GraphStore::new(30);
        for update in SlidingWindowStream::new(30, 50, 11).take(400) {
            assert!(graph.apply(update), "no-op event {update:?}");
        }
    }

    #[test]
    fn window_bounds_live_edges() {
        let window = 25;
        let mut graph = GraphStore::new(20);
        let mut stream = SlidingWindowStream::new(20, window, 3);
        // 25 fill-up inserts + 100 full remove/insert pairs: ends full.
        for (i, update) in stream.by_ref().take(window + 200).enumerate() {
            graph.apply(update);
            assert!(graph.num_edges() <= window, "event {i} overflowed window");
        }
        assert_eq!(graph.num_edges(), window, "steady state keeps window full");
        // The generator's live set mirrors the applied graph exactly.
        for (u, v) in stream.live_edges() {
            assert!(graph.has_edge(u, v));
        }
    }

    #[test]
    fn removals_evict_oldest_first() {
        let mut stream = SlidingWindowStream::new(10, 3, 9);
        let inserts: Vec<GraphUpdate> = stream.by_ref().take(3).collect();
        assert!(inserts.iter().all(|e| e.is_insert()));
        // Next event must evict the first inserted edge.
        let evict = stream.next().unwrap();
        assert_eq!(
            evict,
            GraphUpdate::Remove {
                u: inserts[0].edge().0,
                v: inserts[0].edge().1
            }
        );
        // And the one after is its replacement insertion.
        assert!(stream.next().unwrap().is_insert());
    }

    #[test]
    fn no_self_loops_or_live_duplicates() {
        let mut live = std::collections::HashSet::new();
        for update in SlidingWindowStream::new(8, 10, 1).take(300) {
            let (u, v) = update.edge();
            assert_ne!(u, v, "self loop");
            if update.is_insert() {
                assert!(live.insert((u, v)), "duplicate live edge ({u}, {v})");
            } else {
                assert!(live.remove(&(u, v)), "removed a non-live edge");
            }
        }
    }

    #[test]
    fn workload_starts_warm() {
        let (graph, updates) = sliding_window_workload(50, 80, 120, 17);
        assert_eq!(graph.num_edges(), 80);
        assert_eq!(updates.len(), 120);
        // The one-pass warm graph equals replaying the first `window`
        // events of the same seeded stream one update at a time...
        let mut replayed = GraphStore::new(50);
        let mut stream = SlidingWindowStream::new(50, 80, 17);
        for update in stream.by_ref().take(80) {
            assert!(replayed.apply(update));
        }
        assert_eq!(graph.snapshot(), replayed.snapshot().to_csr());
        // ...and leaves the stream exactly where the replay left it.
        assert_eq!(updates, stream.take(120).collect::<Vec<_>>());
        // Steady state: every update is effective in order, replaying
        // alternates remove/insert and keeps the window full.
        let mut g = GraphStore::from_view(&graph);
        for &update in &updates {
            assert!(g.apply(update), "no-op event {update:?}");
            assert!(g.num_edges() == 80 || g.num_edges() == 79);
        }
        assert_eq!(g.num_edges(), 80);
    }
}
