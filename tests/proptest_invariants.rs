//! Property-based tests (proptest) over randomly generated graphs: the
//! structural invariants every component must hold regardless of input.

use probesim::prelude::*;
use probesim_core::probe::{self, ProbeParams};
use probesim_core::result::QueryStats;
use probesim_core::walk::sample_walk;
use probesim_core::workspace::ProbeWorkspace;
use probesim_core::WalkTrie;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Strategy: a random simple directed graph with 2..=24 nodes.
fn arb_graph() -> impl Strategy<Value = CsrGraph> {
    (2usize..=24, any::<u64>())
        .prop_flat_map(|(n, seed)| {
            let max_edges = n * (n - 1);
            (Just(n), Just(seed), 1usize..=max_edges.min(80))
        })
        .prop_map(|(n, seed, m)| {
            // Deterministic edge sampling from the seed.
            let mut rng = StdRng::seed_from_u64(seed);
            let mut builder = GraphBuilder::new(n);
            use rand::Rng;
            for _ in 0..m {
                let u = rng.gen_range(0..n) as NodeId;
                let v = rng.gen_range(0..n) as NodeId;
                if u != v {
                    builder.push_edge(u, v);
                }
            }
            builder.build_csr()
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// √c-walks always start at the query node and follow in-edges.
    #[test]
    fn walks_follow_in_edges(g in arb_graph(), seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let u = (seed % g.num_nodes() as u64) as NodeId;
        let walk = sample_walk(&g, u, 0.8, 32, &mut rng);
        prop_assert_eq!(walk[0], u);
        for pair in walk.windows(2) {
            prop_assert!(g.in_neighbors(pair[0]).contains(&pair[1]));
        }
    }

    /// Deterministic probe scores are per-node probabilities (each is the
    /// first-meeting probability of a *different* walk, so only the
    /// per-node bound holds — their sum across nodes may exceed 1) and the
    /// avoided diagonal nodes never receive score.
    #[test]
    fn probe_scores_are_probabilities(g in arb_graph(), seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let u = (seed % g.num_nodes() as u64) as NodeId;
        let walk = sample_walk(&g, u, 0.9, 8, &mut rng);
        prop_assume!(walk.len() >= 2);
        let n = g.num_nodes();
        let mut ws = ProbeWorkspace::new(n);
        let mut acc = vec![0.0f64; n];
        let mut stats = QueryStats::default();
        let params = ProbeParams { sqrt_c: 0.6f64.sqrt(), epsilon_p: 0.0 };
        probe::deterministic(&g, &walk, &params, 1.0, &mut ws, &mut acc, &mut stats).unwrap();
        for (v, &s) in acc.iter().enumerate() {
            prop_assert!((0.0..=1.0 + 1e-12).contains(&s), "score[{v}] = {s}");
        }
        // First-meeting definition: the walk start u1 never receives score.
        prop_assert_eq!(acc[walk[0] as usize], 0.0);
        // Per-node cap: a probe of a path of i nodes can contribute at most
        // (√c)^{i-1} to any single node (the full decayed path mass).
        let cap = 0.6f64.sqrt().powi(walk.len() as i32 - 1);
        for (v, &s) in acc.iter().enumerate() {
            prop_assert!(s <= cap + 1e-12, "score[{v}] = {s} exceeds path cap {cap}");
        }
    }

    /// Pruning is one-sided, and each probe of a path with i nodes loses at
    /// most (i−1)·εp per node — one εp per pruned level. (The paper's
    /// Lemma 7 states εp per probe, but its induction drops the compounding
    /// of freshly pruned mass; proptest found counterexamples slightly
    /// above εp, and the error budget in `config.rs` charges the corrected
    /// coefficient.)
    #[test]
    fn pruning_is_one_sided(g in arb_graph(), seed in any::<u64>(), eps_p in 0.001f64..0.2) {
        let mut rng = StdRng::seed_from_u64(seed);
        let u = (seed % g.num_nodes() as u64) as NodeId;
        let walk = sample_walk(&g, u, 0.9, 8, &mut rng);
        prop_assume!(walk.len() >= 2);
        let n = g.num_nodes();
        let mut ws = ProbeWorkspace::new(n);
        let mut stats = QueryStats::default();
        let sqrt_c = 0.6f64.sqrt();
        let mut exact = vec![0.0f64; n];
        probe::deterministic(&g, &walk, &ProbeParams { sqrt_c, epsilon_p: 0.0 }, 1.0, &mut ws, &mut exact, &mut stats).unwrap();
        let mut pruned = vec![0.0f64; n];
        probe::deterministic(&g, &walk, &ProbeParams { sqrt_c, epsilon_p: eps_p }, 1.0, &mut ws, &mut pruned, &mut stats).unwrap();
        let per_probe_bound = (walk.len() - 1) as f64 * eps_p;
        for v in 0..n {
            prop_assert!(pruned[v] <= exact[v] + 1e-12);
            prop_assert!(exact[v] - pruned[v] <= per_probe_bound + 1e-9,
                "node {v} lost {} > (i-1)·eps_p = {per_probe_bound}", exact[v] - pruned[v]);
        }
    }

    /// The walk trie preserves the multiset of walks: per-depth weights sum
    /// to the number of walks reaching that depth.
    #[test]
    fn trie_conserves_walk_counts(
        walks in prop::collection::vec(prop::collection::vec(0u32..6, 1..6), 1..30)
    ) {
        let mut trie = WalkTrie::new(0);
        let mut normalized: Vec<Vec<NodeId>> = Vec::new();
        for mut w in walks {
            w[0] = 0; // all walks share the root
            trie.insert(&w);
            normalized.push(w);
        }
        prop_assert_eq!(trie.total_walks() as usize, normalized.len());
        for depth in 2..=6usize {
            let expected: u32 = normalized.iter().filter(|w| w.len() >= depth).count() as u32;
            let mut actual = 0u32;
            trie.for_each_prefix(|path, w| {
                if path.len() == depth {
                    actual += w;
                }
            });
            prop_assert_eq!(actual, expected, "depth {}", depth);
        }
    }

    /// Batched and unbatched drivers produce identical deterministic
    /// estimates for the same seed. Pinned to the legacy per-prefix path:
    /// this is the Algorithm 1 vs Algorithm 3 equivalence, which holds
    /// probe by probe even under pruning. The fused engine makes pruning
    /// decisions on merged weighted frontiers (same guarantee, different
    /// cuts), so its equivalence properties — with pruning disabled —
    /// live in tests/fused_probe.rs.
    #[test]
    fn batching_is_transparent(g in arb_graph(), seed in any::<u64>()) {
        let u = (seed % g.num_nodes() as u64) as NodeId;
        prop_assume!(g.has_in_edges(u));
        let mut cfg = ProbeSimConfig::new(0.6, 0.25, 0.05).with_seed(seed).with_num_walks(60);
        cfg.optimizations.strategy = ProbeStrategy::Deterministic;
        cfg.optimizations.fuse_probes = false;
        cfg.optimizations.batch_walks = false;
        let unbatched = ProbeSim::new(cfg.clone()).single_source(&g, u);
        cfg.optimizations.batch_walks = true;
        let batched = ProbeSim::new(cfg).single_source(&g, u);
        for v in 0..g.num_nodes() {
            prop_assert!((unbatched.scores[v] - batched.scores[v]).abs() < 1e-9,
                "node {v}: {} vs {}", unbatched.scores[v], batched.scores[v]);
        }
    }

    /// SimRank symmetry survives the whole pipeline: power-method scores
    /// are symmetric and in [0, 1], with unit diagonal.
    #[test]
    fn power_method_is_a_valid_similarity(g in arb_graph()) {
        let s = PowerMethod::new(0.6, 12).all_pairs(&g);
        let n = g.num_nodes();
        for u in 0..n as NodeId {
            prop_assert_eq!(s.get(u, u), 1.0);
            for v in 0..n as NodeId {
                let val = s.get(u, v);
                prop_assert!((0.0..=1.0).contains(&val));
                prop_assert!((val - s.get(v, u)).abs() < 1e-12);
            }
        }
    }

    /// CSR round-trips through the binary format.
    #[test]
    fn binary_io_roundtrip(g in arb_graph()) {
        let mut buf = Vec::new();
        probesim_graph::io::write_binary(&mut buf, &g).expect("write");
        let g2 = probesim_graph::io::read_binary(std::io::Cursor::new(buf)).expect("read");
        prop_assert_eq!(g, g2);
    }
}
