//! Property tests for probesim-core internals: the error-budget calculus,
//! top-k selection, and workspace/trie behavior under arbitrary inputs.

use probesim_core::workspace::LevelBuf;
use probesim_core::{top_k_from_scores, ProbeSimConfig, WalkTrie};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// For every (c, εa, δ), the derived budget satisfies the corrected
    /// Theorem 2 inequality — the εa guarantee is never silently violated
    /// by parameter derivation.
    #[test]
    fn budget_always_satisfies_guarantee(
        decay in 0.05f64..0.95,
        epsilon in 0.005f64..0.5,
        delta in 0.001f64..0.2,
    ) {
        let cfg = ProbeSimConfig::new(decay, epsilon, delta);
        let budget = cfg.budget();
        let lhs = budget.guaranteed_error(cfg.sqrt_decay());
        prop_assert!(lhs <= epsilon + 1e-9, "lhs = {lhs}, eps = {epsilon}");
        prop_assert!(budget.sampling > 0.0);
        prop_assert!(budget.pruning >= 0.0);
        prop_assert!(budget.walk_cap >= 1);
    }

    /// The Chernoff walk count is monotone: more nodes or a tighter εa
    /// never means fewer walks.
    #[test]
    fn walk_count_is_monotone(
        n1 in 2usize..100_000,
        n2 in 2usize..100_000,
        eps in 0.01f64..0.3,
    ) {
        let cfg = ProbeSimConfig::paper(eps);
        let (lo, hi) = if n1 <= n2 { (n1, n2) } else { (n2, n1) };
        prop_assert!(cfg.num_walks(lo) <= cfg.num_walks(hi));
        let tighter = ProbeSimConfig::paper(eps / 2.0);
        prop_assert!(tighter.num_walks(lo) >= cfg.num_walks(lo));
    }

    /// top_k_from_scores returns a sorted prefix of the full ranking and
    /// never includes the query node.
    #[test]
    fn top_k_is_sorted_prefix(
        scores in prop::collection::vec(0.0f64..1.0, 2..120),
        k in 1usize..40,
    ) {
        let query = (scores.len() / 2) as u32;
        let top = top_k_from_scores(&scores, query, k);
        prop_assert!(top.len() <= k);
        prop_assert!(top.len() == k.min(scores.len() - 1));
        for pair in top.windows(2) {
            prop_assert!(pair[0].1 >= pair[1].1
                || (pair[0].1 == pair[1].1 && pair[0].0 < pair[1].0));
        }
        prop_assert!(top.iter().all(|&(v, _)| v != query));
        // Every omitted node scores no higher than the last kept node.
        if let Some(&(_, cutoff)) = top.last() {
            let kept: std::collections::HashSet<u32> = top.iter().map(|&(v, _)| v).collect();
            for (v, &s) in scores.iter().enumerate() {
                let v = v as u32;
                if v != query && !kept.contains(&v) {
                    prop_assert!(s <= cutoff + 1e-15, "omitted {v} with score {s} > cutoff {cutoff}");
                }
            }
        }
    }

    /// LevelBuf add/set/get/retain behave like a reference HashMap.
    #[test]
    fn levelbuf_matches_reference_map(
        ops in prop::collection::vec((0u32..16, 0.0f64..2.0, any::<bool>()), 0..200),
        threshold in 0.0f64..2.0,
    ) {
        let mut buf = LevelBuf::new(16);
        buf.clear();
        let mut reference: std::collections::HashMap<u32, f64> = Default::default();
        for (v, x, use_set) in ops {
            if use_set {
                buf.set(v, x);
                reference.insert(v, x);
            } else {
                buf.add(v, x);
                *reference.entry(v).or_insert(0.0) += x;
            }
        }
        for v in 0..16u32 {
            let expected = reference.get(&v).copied().unwrap_or(0.0);
            prop_assert!((buf.get(v) - expected).abs() < 1e-12, "node {v}");
            prop_assert_eq!(buf.contains(v), reference.contains_key(&v));
        }
        buf.retain(|_, s| s > threshold);
        reference.retain(|_, s| *s > threshold);
        prop_assert_eq!(buf.len(), reference.len());
        for (&v, &s) in &reference {
            prop_assert!((buf.get(v) - s).abs() < 1e-12);
        }
    }

    /// Trie node count never exceeds total inserted walk nodes plus the
    /// root, and total_walks is exact.
    #[test]
    fn trie_size_bounds(
        walks in prop::collection::vec(prop::collection::vec(0u32..8, 1..7), 0..40)
    ) {
        let mut trie = WalkTrie::new(0);
        let mut total_nodes = 1usize;
        for mut w in walks.clone() {
            w[0] = 0;
            total_nodes += w.len() - 1;
            trie.insert(&w);
        }
        prop_assert_eq!(trie.total_walks() as usize, walks.len());
        prop_assert!(trie.len() <= total_nodes);
        // Deduplication really happens when walks repeat.
        if walks.len() >= 2 && walks.iter().all(|w| w.len() == walks[0].len()) {
            // identical-shape walks may or may not collide; only the bound
            // above is guaranteed.
        }
    }
}
