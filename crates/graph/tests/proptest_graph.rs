//! Property tests for the graph substrate: store/CSR equivalence under
//! arbitrary update sequences, builder normalization laws, and I/O
//! round-trips.

use std::collections::BTreeSet;

use probesim_graph::{
    io, CompactionPolicy, CsrGraph, GraphBuilder, GraphStore, GraphUpdate, GraphView, NodeId,
};
use proptest::prelude::*;

/// An arbitrary sequence of edge operations on a fixed node range.
#[derive(Debug, Clone)]
enum Op {
    Insert(NodeId, NodeId),
    Remove(NodeId, NodeId),
}

fn arb_ops(n: u32, len: usize) -> impl Strategy<Value = Vec<Op>> {
    prop::collection::vec(
        (0..n, 0..n, any::<bool>()).prop_map(|(u, v, ins)| {
            if ins {
                Op::Insert(u, v)
            } else {
                Op::Remove(u, v)
            }
        }),
        0..len,
    )
}

/// The CSR a from-scratch build of `model` gives: what every fold
/// must equal, offsets included.
fn csr_of(n: usize, model: &BTreeSet<(NodeId, NodeId)>) -> CsrGraph {
    CsrGraph::from_edge_iter(n, model.iter().copied())
}

/// Applies `update` to the store and the model alike.
fn apply_both(store: &mut GraphStore, model: &mut BTreeSet<(NodeId, NodeId)>, update: GraphUpdate) {
    let effective = if update.is_insert() {
        model.insert(update.edge())
    } else {
        model.remove(&update.edge())
    };
    assert_eq!(store.apply(update), effective, "{update:?}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Compaction's linear fold equals a from-scratch counting-sort
    /// build, as whole structs: the base after every compaction, every
    /// snapshot's `to_csr()` (including snapshots over a base that was
    /// folded away after they were taken) and `GraphStore::from_view`.
    /// The stream runs from a random base (self-loops allowed) under an
    /// aggressive policy; the tail empties every row by removals, and a
    /// second store folds an overlay with all `2n` rows touched and one
    /// with none.
    #[test]
    fn compaction_fold_equals_a_scratch_build(
        base in prop::collection::vec((0u32..10, 0u32..10), 0..40),
        ops in arb_ops(10, 150),
    ) {
        let n = 10usize;
        let mut model: BTreeSet<(NodeId, NodeId)> = base.into_iter().collect();
        let initial = csr_of(n, &model);
        let promoted = GraphStore::from_view(&initial);
        prop_assert_eq!(promoted.base().as_ref(), &initial);
        let mut store = GraphStore::from_csr(initial).with_policy(CompactionPolicy {
            max_touched_fraction: 0.1,
            min_touched_lists: 3,
        });
        let mut taken = Vec::new();
        let step = |store: &mut GraphStore, model: &mut BTreeSet<_>, update, taken: &mut Vec<_>| {
            let before = store.compactions();
            apply_both(store, model, update);
            if store.compactions() > before {
                prop_assert_eq!(store.base().as_ref(), &csr_of(n, model));
                prop_assert_eq!(store.touched_lists(), 0);
            }
            if taken.len() < 12 && store.touched_lists() > 0 {
                taken.push((store.snapshot(), csr_of(n, model)));
            }
            Ok(())
        };
        for op in &ops {
            let update = match *op {
                Op::Insert(u, v) => GraphUpdate::Insert { u, v },
                Op::Remove(u, v) => GraphUpdate::Remove { u, v },
            };
            step(&mut store, &mut model, update, &mut taken)?;
        }
        // Empty every row through removals, folding on the way.
        let edges: Vec<_> = model.iter().copied().collect();
        for (u, v) in edges {
            step(&mut store, &mut model, GraphUpdate::Remove { u, v }, &mut taken)?;
        }
        store.compact();
        prop_assert_eq!(store.base().as_ref(), &csr_of(n, &model));
        prop_assert_eq!(store.num_edges(), 0);
        for (snapshot, expect) in &taken {
            prop_assert_eq!(&snapshot.to_csr(), expect);
            let promoted = GraphStore::from_view(snapshot);
            prop_assert_eq!(promoted.base().as_ref(), expect);
        }

        // Every one of the 2n rows touched, then folded: toggling the
        // ring edge v -> v + 1 touches out-row v and in-row v + 1.
        let start = csr_of(n, &model);
        let mut full = GraphStore::from_csr(start.clone()).with_policy(CompactionPolicy::disabled());
        // An overlay with no touched rows folds to its base.
        prop_assert_eq!(&full.snapshot().to_csr(), &start);
        prop_assert!(!full.compact());
        for v in 0..n as NodeId {
            let ring = (v, (v + 1) % n as NodeId);
            let update = if model.contains(&ring) {
                GraphUpdate::Remove { u: ring.0, v: ring.1 }
            } else {
                GraphUpdate::Insert { u: ring.0, v: ring.1 }
            };
            apply_both(&mut full, &mut model, update);
        }
        prop_assert_eq!(full.touched_lists(), 2 * n);
        let expect = csr_of(n, &model);
        let snapshot = full.snapshot();
        prop_assert!(full.compact());
        prop_assert_eq!(full.base().as_ref(), &expect);
        prop_assert_eq!(&snapshot.to_csr(), &expect);
        prop_assert_eq!(&full.snapshot().to_csr(), &expect);
    }

    /// A GraphStore under any op sequence equals a reference
    /// set-of-edges model, and its snapshot equals a CSR built from the
    /// final edge set. The compaction policy is aggressive, so the model
    /// also checks overlay edits made across folds.
    #[test]
    fn dynamic_graph_matches_reference_model(ops in arb_ops(12, 120)) {
        let n = 12usize;
        let mut g = GraphStore::new(n).with_policy(CompactionPolicy {
            max_touched_fraction: 0.1,
            min_touched_lists: 3,
        });
        let mut reference: std::collections::BTreeSet<(NodeId, NodeId)> = Default::default();
        for op in &ops {
            match *op {
                Op::Insert(u, v) if u != v => {
                    let inserted = g.insert_edge(u, v);
                    prop_assert_eq!(inserted, reference.insert((u, v)));
                }
                Op::Remove(u, v) => {
                    let removed = g.remove_edge(u, v);
                    prop_assert_eq!(removed, reference.remove(&(u, v)));
                }
                _ => {}
            }
        }
        prop_assert_eq!(g.num_edges(), reference.len());
        for v in g.nodes() {
            let in_ref: Vec<NodeId> = reference.iter()
                .filter(|&&(_, t)| t == v).map(|&(s, _)| s).collect();
            prop_assert_eq!(g.in_neighbors(v), &in_ref[..]);
            let out_ref: Vec<NodeId> = reference.iter()
                .filter(|&&(s, _)| s == v).map(|&(_, t)| t).collect();
            prop_assert_eq!(g.out_neighbors(v), &out_ref[..]);
        }
        let edge_vec: Vec<(NodeId, NodeId)> = reference.into_iter().collect();
        prop_assert_eq!(g.snapshot().to_csr(), CsrGraph::from_edges(n, &edge_vec));
    }

    /// Every published snapshot reads exactly its publish-time graph,
    /// whether it is first read at once or only after later writes and
    /// folds: neighbors and degrees equal the snapshot's own `to_csr()`
    /// and a CSR of the reference model at publish time. The degree
    /// index is built on first read, so the delayed half pins it to the
    /// publish-time state, not the writer's current one.
    #[test]
    fn snapshot_reads_match_publish_time_csr(ops in arb_ops(12, 120)) {
        let n = 12usize;
        let mut g = GraphStore::new(n).with_policy(CompactionPolicy {
            max_touched_fraction: 0.1,
            min_touched_lists: 3,
        });
        let mut reference: std::collections::BTreeSet<(NodeId, NodeId)> = Default::default();
        let mut delayed = Vec::new();
        let check = |snap: &probesim_graph::GraphSnapshot, expect: &CsrGraph| {
            // Degrees first, so a not-yet-read snapshot builds its index
            // through the degree path.
            for v in snap.nodes() {
                prop_assert_eq!(snap.in_degree(v), expect.in_degree(v), "in_degree({})", v);
                prop_assert_eq!(snap.out_degree(v), expect.out_degree(v), "out_degree({})", v);
                prop_assert_eq!(snap.in_neighbors(v), expect.in_neighbors(v), "in({})", v);
                prop_assert_eq!(snap.out_neighbors(v), expect.out_neighbors(v), "out({})", v);
            }
            prop_assert_eq!(&snap.to_csr(), expect);
            Ok(())
        };
        for (i, op) in ops.iter().enumerate() {
            match *op {
                Op::Insert(u, v) if u != v => {
                    g.insert_edge(u, v);
                    reference.insert((u, v));
                }
                Op::Remove(u, v) => {
                    g.remove_edge(u, v);
                    reference.remove(&(u, v));
                }
                _ => {}
            }
            let snap = g.snapshot();
            let expect = CsrGraph::from_edge_iter(n, reference.iter().copied());
            if i % 2 == 0 {
                check(&snap, &expect)?;
            } else {
                delayed.push((snap, expect));
            }
        }
        g.compact();
        for (snap, expect) in &delayed {
            check(snap, expect)?;
        }
    }

    /// Builder normalization is idempotent: rebuilding a cleaned graph
    /// from its own edges changes nothing.
    #[test]
    fn builder_is_idempotent(
        edges in prop::collection::vec((0u32..10, 0u32..10), 0..60),
        undirected in any::<bool>(),
    ) {
        let first = GraphBuilder::new(10)
            .undirected(undirected)
            .extend_edges(edges)
            .build_csr();
        let second = GraphBuilder::new(10)
            .extend_edges(first.edges())
            .build_csr();
        prop_assert_eq!(first, second);
    }

    /// Undirected builds are symmetric by construction.
    #[test]
    fn undirected_builds_are_symmetric(
        edges in prop::collection::vec((0u32..10, 0u32..10), 0..40),
    ) {
        let g = GraphBuilder::new(10).undirected(true).extend_edges(edges).build_csr();
        for u in g.nodes() {
            for &v in g.out_neighbors(u) {
                prop_assert!(g.has_edge(v, u), "missing reverse of ({u},{v})");
            }
            prop_assert_eq!(g.in_neighbors(u), g.out_neighbors(u));
        }
    }

    /// Transpose is an involution and swaps degrees.
    #[test]
    fn transpose_involution(
        edges in prop::collection::vec((0u32..9, 0u32..9), 0..40),
    ) {
        let g = GraphBuilder::new(9).extend_edges(edges).build_csr();
        let t = g.transpose();
        prop_assert_eq!(t.transpose(), g.clone());
        for v in g.nodes() {
            prop_assert_eq!(g.in_degree(v), t.out_degree(v));
            prop_assert_eq!(g.out_degree(v), t.in_degree(v));
        }
    }

    /// Text edge-list round trip preserves the edge multiset up to the
    /// dense relabeling (which is the identity when ids are already dense
    /// and appear in order).
    #[test]
    fn text_io_round_trip(
        edges in prop::collection::vec((0u32..8, 0u32..8), 1..40),
    ) {
        let g = GraphBuilder::new(8).extend_edges(edges).build_csr();
        prop_assume!(g.num_edges() > 0);
        let mut buf = Vec::new();
        io::write_edge_list_text(&mut buf, &g).expect("write");
        let (g2, labels) = io::read_edge_list_text(std::io::Cursor::new(buf)).expect("read");
        // Relabel g2 back through `labels` and compare edge sets.
        let mut original: Vec<(u64, u64)> = g.edges().iter()
            .map(|&(u, v)| (u as u64, v as u64)).collect();
        let mut relabeled: Vec<(u64, u64)> = g2.edges().iter()
            .map(|&(u, v)| (labels[u as usize], labels[v as usize])).collect();
        original.sort_unstable();
        relabeled.sort_unstable();
        prop_assert_eq!(original, relabeled);
    }
}
