//! Fused probe engine equivalence and unbiasedness properties.
//!
//! The fused engine (`probesim_core::frontier`) must be indistinguishable
//! from the legacy per-prefix batch driver wherever the math is exact,
//! and unbiased wherever it samples:
//!
//! * **Deterministic** strategy: expansion is linear, so the fused
//!   weight-merged sweep equals the per-prefix sum up to floating-point
//!   association — within 1e-9, on `CsrGraph` and on a live
//!   `GraphStore`. (Pruning is disabled for the exact comparisons: the
//!   fused path prunes merged frontiers against a weight-scaled
//!   threshold, which preserves the error guarantee but makes different
//!   cuts than the per-probe rule.)
//! * **Hybrid** strategy where the switch cannot trip (mean in-degree
//!   `m/n ≤ 1` on the fused path, `c0 = 1e12` on the legacy one) takes
//!   the deterministic path on both engines — same 1e-9 agreement.
//! * **Randomized** strategy (and hybrid sweeps that mix both): the
//!   weight-proportional draw budget keeps the estimator unbiased — the
//!   mean over independent seeds converges to exact SimRank (Table 2 of
//!   the paper) on the toy graph.
//!
//! Plus the counter plumbing: `frontier_merges`/`levels_expanded` are
//! nonzero exactly on the fused path and survive `run_batch`/`par_batch`
//! stat merging.

use probesim::prelude::*;
use probesim_graph::toy::{toy_edges, toy_graph, A, TABLE2, TOY_DECAY};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Strategy: a random simple directed graph with 2..=24 nodes.
fn arb_graph() -> impl Strategy<Value = CsrGraph> {
    arb_graph_within(|n| (n * (n - 1)).min(80))
}

/// Strategy: a random simple directed graph with 2..=24 nodes and at most
/// `n` edges, so its mean in-degree `m/n` is at most 1.
fn arb_sparse_graph() -> impl Strategy<Value = CsrGraph> {
    arb_graph_within(|n| n)
}

/// A random simple directed graph with 2..=24 nodes and 1..=`max_edges(n)`
/// edge draws (self-loops dropped, duplicates merged).
fn arb_graph_within(max_edges: fn(usize) -> usize) -> impl Strategy<Value = CsrGraph> {
    (2usize..=24, any::<u64>())
        .prop_flat_map(move |(n, seed)| (Just(n), Just(seed), 1usize..=max_edges(n)))
        .prop_map(|(n, seed, m)| {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut builder = GraphBuilder::new(n);
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

/// A batched config with pruning disabled (exact-comparison mode) and
/// the given strategy + fuse bit.
fn exact_config(seed: u64, strategy: ProbeStrategy, fuse: bool) -> ProbeSimConfig {
    let mut cfg = ProbeSimConfig::new(0.6, 0.25, 0.05)
        .with_seed(seed)
        .with_num_walks(60);
    cfg.optimizations.strategy = strategy;
    cfg.optimizations.prune_scores = false;
    cfg.optimizations.batch_walks = true;
    cfg.optimizations.fuse_probes = fuse;
    cfg
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Fused deterministic == legacy per-prefix deterministic within
    /// 1e-9, on CSR and on a live GraphStore (which must itself agree
    /// with CSR bit-for-bit).
    #[test]
    fn fused_deterministic_matches_legacy(g in arb_graph(), seed in any::<u64>()) {
        let u = (seed % g.num_nodes() as u64) as NodeId;
        prop_assume!(g.has_in_edges(u));
        let fused = ProbeSim::new(exact_config(seed, ProbeStrategy::Deterministic, true));
        let legacy = ProbeSim::new(exact_config(seed, ProbeStrategy::Deterministic, false));
        let fused_csr = fused.single_source(&g, u);
        let legacy_csr = legacy.single_source(&g, u);
        for v in 0..g.num_nodes() {
            prop_assert!(
                (fused_csr.scores[v] - legacy_csr.scores[v]).abs() < 1e-9,
                "node {v}: fused {} vs legacy {}",
                fused_csr.scores[v], legacy_csr.scores[v]
            );
        }
        // Same walks either way: the fused flag only changes probing.
        prop_assert_eq!(fused_csr.stats.walks, legacy_csr.stats.walks);
        prop_assert_eq!(fused_csr.stats.walk_nodes, legacy_csr.stats.walk_nodes);
        // Live GraphStore: bit-identical to the CSR run of the same engine.
        let live = GraphStore::from_edges(g.num_nodes(), &g.edges());
        let fused_live = fused.single_source(&live, u);
        for v in 0..g.num_nodes() {
            prop_assert_eq!(
                fused_live.scores[v].to_bits(), fused_csr.scores[v].to_bits(),
                "node {} differs between graph backends", v
            );
        }
        prop_assert_eq!(fused_live.stats, fused_csr.stats);
    }

    /// Hybrid whose switch never trips is deterministic on both engines:
    /// fused == legacy within 1e-9, and fused hybrid is bit-identical to
    /// fused deterministic. The fused switch needs a draw budget (≥ 1)
    /// below the mean in-degree, so it cannot fire when `m/n ≤ 1`; the
    /// legacy switch is held off by `c0 = 1e12`.
    #[test]
    fn fused_hybrid_without_switches_is_deterministic(g in arb_sparse_graph(), seed in any::<u64>()) {
        prop_assert!(g.num_edges() <= g.num_nodes());
        let u = (seed % g.num_nodes() as u64) as NodeId;
        prop_assume!(g.has_in_edges(u));
        let fused_cfg = exact_config(seed, ProbeStrategy::Hybrid, true);
        let mut legacy_cfg = exact_config(seed, ProbeStrategy::Hybrid, false);
        legacy_cfg.optimizations.hybrid_c0 = 1e12;
        let fused = ProbeSim::new(fused_cfg).single_source(&g, u);
        let legacy = ProbeSim::new(legacy_cfg).single_source(&g, u);
        prop_assert_eq!(fused.stats.hybrid_switches, 0);
        prop_assert_eq!(legacy.stats.hybrid_switches, 0);
        for v in 0..g.num_nodes() {
            prop_assert!(
                (fused.scores[v] - legacy.scores[v]).abs() < 1e-9,
                "node {v}: fused {} vs legacy {}", fused.scores[v], legacy.scores[v]
            );
        }
        let det = ProbeSim::new(exact_config(seed, ProbeStrategy::Deterministic, true))
            .single_source(&g, u);
        for v in 0..g.num_nodes() {
            prop_assert_eq!(fused.scores[v].to_bits(), det.scores[v].to_bits());
        }
    }

    /// The fused counters are nonzero exactly on the fused path, and the
    /// deterministic work counters never exceed the legacy path's.
    #[test]
    fn fused_counters_and_work(g in arb_graph(), seed in any::<u64>()) {
        let u = (seed % g.num_nodes() as u64) as NodeId;
        prop_assume!(g.has_in_edges(u));
        let fused = ProbeSim::new(exact_config(seed, ProbeStrategy::Deterministic, true))
            .single_source(&g, u);
        let legacy = ProbeSim::new(exact_config(seed, ProbeStrategy::Deterministic, false))
            .single_source(&g, u);
        if fused.stats.trie_prefixes > 0 {
            prop_assert!(fused.stats.levels_expanded > 0);
        }
        prop_assert_eq!(legacy.stats.levels_expanded, 0);
        prop_assert_eq!(legacy.stats.frontier_merges, 0);
        prop_assert_eq!(fused.stats.trie_prefixes, legacy.stats.trie_prefixes);
        prop_assert!(
            fused.stats.edges_expanded <= legacy.stats.edges_expanded,
            "fused expanded more edges ({}) than legacy ({})",
            fused.stats.edges_expanded, legacy.stats.edges_expanded
        );
        prop_assert!(fused.stats.total_work() <= legacy.stats.total_work());
    }
}

/// Mean over independent seeds of a randomized/hybrid fused engine vs the
/// exact Table 2 SimRank scores, with the summed stats of every run.
fn mean_abs_error_vs_table2<G: GraphView + Sync>(
    graph: &G,
    strategy: ProbeStrategy,
) -> (f64, QueryStats) {
    let seeds = 40u64;
    let mut mean = [0.0f64; 8];
    let mut stats = QueryStats::default();
    for seed in 0..seeds {
        let mut cfg = ProbeSimConfig::new(TOY_DECAY, 0.1, 0.01).with_seed(1000 + seed);
        cfg.optimizations.strategy = strategy;
        debug_assert!(cfg.optimizations.fuse_probes);
        let result = ProbeSim::new(cfg).single_source(graph, A);
        for (avg, &score) in mean.iter_mut().zip(&result.scores) {
            *avg += score / seeds as f64;
        }
        stats.merge(&result.stats);
    }
    let err = (0..8)
        .filter(|&v| v != A as usize)
        .map(|v| (mean[v] - TABLE2[v]).abs())
        .fold(0.0, f64::max);
    (err, stats)
}

#[test]
fn fused_randomized_is_unbiased_on_toy_graph() {
    // Weight-proportional randomized probing: the per-seed estimate is
    // noisy, but the mean over seeds must converge on exact SimRank.
    let g = toy_graph();
    let (err, _) = mean_abs_error_vs_table2(&g, ProbeStrategy::Randomized);
    assert!(err < 0.02, "mean-over-seeds error {err} vs Table 2");
}

#[test]
fn fused_hybrid_with_forced_switches_is_unbiased() {
    // The toy graph's mean in-degree is 20/8 = 2.5, so every group whose
    // draw budget is 1 or 2 walks expands randomized while the heavy
    // groups near the root stay deterministic: the estimator must stay
    // unbiased through these mixed sweeps.
    let g = toy_graph();
    let (err, stats) = mean_abs_error_vs_table2(&g, ProbeStrategy::Hybrid);
    assert!(stats.hybrid_switches > 0, "no group switched: {stats:?}");
    assert!(
        stats.hybrid_switches < stats.probes,
        "every group switched: {stats:?}"
    );
    assert!(err < 0.02, "mean-over-seeds error {err} vs Table 2");
}

#[test]
fn fused_randomized_is_unbiased_on_dynamic_graph() {
    let g = GraphStore::from_edges(8, &toy_edges());
    let (err, _) = mean_abs_error_vs_table2(&g, ProbeStrategy::Randomized);
    assert!(err < 0.02, "mean-over-seeds error {err} vs Table 2");
}

#[test]
fn fused_counters_flow_through_batch_and_par_batch() {
    // Satellite regression: QueryStats::merge must carry the new frontier
    // counters into run_batch and par_batch aggregates.
    let g = toy_graph();
    let engine = ProbeSim::new(ProbeSimConfig::new(TOY_DECAY, 0.08, 0.01).with_seed(7));
    let queries: Vec<Query> = (0..4).map(|node| Query::SingleSource { node }).collect();
    let sequential = engine.session(&g).run_batch(&queries).unwrap();
    let expected_levels: usize = sequential
        .outputs
        .iter()
        .map(|o| o.stats.levels_expanded)
        .sum();
    let expected_merges: usize = sequential
        .outputs
        .iter()
        .map(|o| o.stats.frontier_merges)
        .sum();
    assert!(expected_levels > 0, "fused default must sweep levels");
    assert_eq!(sequential.stats.levels_expanded, expected_levels);
    assert_eq!(sequential.stats.frontier_merges, expected_merges);
    let parallel = engine.par_batch(&g, &queries, 2).unwrap();
    assert_eq!(parallel.stats.levels_expanded, expected_levels);
    assert_eq!(parallel.stats.frontier_merges, expected_merges);
    assert_eq!(parallel.stats, sequential.stats);
}

#[test]
fn fused_pruned_run_stays_within_the_error_budget_of_exact() {
    // With pruning enabled the fused path makes different cuts than the
    // per-prefix rule, but both must stay inside the derived εp loss
    // bound of the *unpruned* deterministic scores (one-sided).
    let g = toy_graph();
    let mut pruned_cfg = ProbeSimConfig::new(TOY_DECAY, 0.1, 0.01).with_seed(99);
    pruned_cfg.optimizations.strategy = ProbeStrategy::Deterministic;
    let budget = pruned_cfg.budget();
    assert!(budget.pruning > 0.0, "pruning must be active");
    let mut exact_cfg = pruned_cfg.clone();
    exact_cfg.optimizations.prune_scores = false;
    let pruned = ProbeSim::new(pruned_cfg).single_source(&g, A);
    let exact = ProbeSim::new(exact_cfg).single_source(&g, A);
    let sqrt_c = TOY_DECAY.sqrt();
    let kappa = sqrt_c / ((1.0 - sqrt_c) * (1.0 - sqrt_c));
    let loss_bound = (1.0 + budget.sampling) * kappa.max(1.0) * budget.pruning;
    for v in 0..8 {
        if v == A as usize {
            continue;
        }
        assert!(
            pruned.scores[v] <= exact.scores[v] + 1e-12,
            "node {v}: pruning must be one-sided"
        );
        assert!(
            exact.scores[v] - pruned.scores[v] <= loss_bound + 1e-12,
            "node {v} lost {} > budgeted {loss_bound}",
            exact.scores[v] - pruned.scores[v]
        );
    }
}
