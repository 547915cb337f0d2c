//! The fused probe engine: level-synchronous weighted frontiers over the
//! walk trie.
//!
//! ## Why a third batching tier
//!
//! ProbeSim's cost is dominated by PROBE traversals. The repo implements
//! three tiers of probe batching:
//!
//! 1. **per walk** (Algorithm 1) — every prefix of every walk runs its
//!    own probe;
//! 2. **per distinct prefix** (Algorithm 3, [`crate::trie::WalkTrie`]) —
//!    walks sharing a prefix are probed once, scaled by the prefix
//!    weight;
//! 3. **fused frontiers** (this module) — *all* of a query's probes run
//!    as one level-synchronous sweep over the trie, so probe work is
//!    shared even across *different* prefixes.
//!
//! Tier 2 still re-expands shared graph regions: a probe for the prefix
//! ending at trie node `t` walks the trie positions `t → parent(t) → … →
//! root`, and every probe passing through a position applies the *same*
//! linear expansion operator (same avoid vertex — the position's parent —
//! and the same remaining avoid chain). The fused engine exploits that
//! linearity: it keeps one **weighted arrival frontier per trie
//! position** (the merged mass of every probe that has propagated down to
//! it) and, sweeping the trie's levels deepest-first, merges all sibling
//! frontiers and expands each **distinct graph node once per (node,
//! parent position)** — instead of once per contributing prefix. At the
//! final level every probe's mass converges on the root, so the whole
//! query performs exactly one expansion pass per trie position and emits
//! once. [`QueryStats::frontier_merges`](crate::QueryStats::frontier_merges)
//! counts the deduplicated contributions (expansions tier 2 would have
//! repeated) and
//! [`QueryStats::levels_expanded`](crate::QueryStats::levels_expanded)
//! the sweeps.
//!
//! ## Strategy semantics on the fused path
//!
//! * **Deterministic** — bit-equivalent math to tier 2: the expansion is
//!   linear, so expanding a weight-merged frontier equals summing the
//!   per-prefix expansions (identical up to floating-point association;
//!   the equivalence is property-tested to 1e-9).
//! * **Randomized** — each candidate node still draws one uniform
//!   in-edge per level, but an accepted candidate inherits the sampled
//!   source's *merged weight* instead of a unit flag (the private
//!   `probe::expand_level_randomized` emission site is shared between
//!   both paths). The draw is therefore weight-proportional and the estimator
//!   stays unbiased level by level; what changes is the variance
//!   structure (tier 2 runs `w` independent probes per weight-`w`
//!   prefix). Unbiasedness is covered by a mean-over-seeds test against
//!   exact SimRank.
//! * **Hybrid** — the switch is evaluated per (level, parent group),
//!   after the merge and the prune: a group whose draw budget `D` (the
//!   one the randomized arm would spend, see `draw_budget`) is below the
//!   graph's mean in-degree `m/n` expands that one level randomized,
//!   others stay deterministic. A randomized expansion reads at most `D`
//!   in-edges per candidate (exactly `|I(x)|` where the Rao–Blackwell
//!   cap applies) and keeps only the accepted candidates; a
//!   deterministic one reads about `m/n` in-edges per candidate and
//!   stores every node it reaches. Both sides are observed values, so
//!   the rule has no tuning constant (`hybrid_c0` only drives the legacy
//!   per-prefix switch). The choice depends only on the pre-expansion
//!   frontier, so the sweep stays unbiased level by level, and unlike
//!   tier 2's one-way switch a fused group can return to deterministic
//!   expansion at a shallower level.
//!
//! ## Pruning
//!
//! Fused frontiers carry weights (`Σ w_t/nr · score_t`), so pruning rule
//! 2 compares against a weight-scaled threshold `εp · W` with `W` the
//! group's walk share — the same condition as the legacy unweighted
//! `score · (√c)^r > εp` when a prefix is unshared, and an aggregate
//! analogue of it when mass is merged. Decisions can therefore differ
//! from tier 2 on shared prefixes (the error guarantee is preserved —
//! each dropped entry forfeits at most `εp·W ≤ εp` of any final score,
//! the same per-level loss bound the legacy path has); exact-equivalence
//! tests run with pruning disabled.

use probesim_graph::GraphView;
use rand::Rng;

use crate::accum::ScoreSink;
use crate::budget::BudgetExceeded;
use crate::config::ProbeStrategy;
use crate::probe::{self, ProbeParams};
use crate::result::QueryStats;
use crate::trie::WalkTrie;
use crate::workspace::{LevelBuf, ProbeWorkspace};

/// The weight-proportional draw budget of a randomized group expansion:
/// one independent in-edge trial per *alive walk equivalent* of the
/// merged frontier — `⌈nr · Σ_v H(v)⌉`, capped by the group's walk count.
///
/// The legacy path spends one trial per probe still alive at this
/// position; `nr · mass` is exactly that count in expectation (mass is
/// the merged per-walk survival probability), so the fused budget decays
/// with depth the way legacy probes die off instead of charging the full
/// group walk count to every candidate. The budget depends only on the
/// pre-expansion frontier, so the per-candidate averaged estimator stays
/// unbiased for any positive value.
#[inline]
fn draw_budget(group_walks: u64, frontier: &LevelBuf, nr: usize) -> u32 {
    let mass: f64 = frontier.nodes().iter().map(|&v| frontier.get(v)).sum();
    let alive = (mass * nr as f64).ceil() as u64;
    alive.clamp(1, group_walks.clamp(1, u32::MAX as u64)) as u32
}

/// Runs every probe of a batched single-source query as one fused
/// level-synchronous sweep over `trie`, adding each node's accumulated
/// score (already scaled by `1/nr`) into `acc`.
///
/// Equivalent in expectation to probing each trie prefix separately with
/// weight `w/nr` (see the module docs for the per-strategy guarantees);
/// the work is bounded by distinct touched `(node, trie position)` pairs
/// instead of touched nodes *per prefix*.
///
/// Cooperative cancellation: `ws.budget` is checked before every group
/// expansion; an exceeded budget aborts between groups with
/// [`BudgetExceeded`], restoring the arena's BFS scratch buffers so the
/// workspace stays pooled and reusable after the abort.
// The argument list mirrors the paper's probe-loop state; bundling it
// into a struct would obscure which pieces each phase mutates.
#[allow(clippy::too_many_arguments)]
pub fn run_fused<G: GraphView, A: ScoreSink + ?Sized, R: Rng + ?Sized>(
    graph: &G,
    trie: &WalkTrie,
    nr: usize,
    params: &ProbeParams,
    strategy: ProbeStrategy,
    ws: &mut ProbeWorkspace,
    acc: &mut A,
    stats: &mut QueryStats,
    rng: &mut R,
) -> Result<(), BudgetExceeded> {
    if trie.is_empty() {
        return Ok(());
    }
    // Take the BFS scratch buffers out of the arena so the level slices
    // can be borrowed while the arena stores new spans.
    let mut order_nodes = std::mem::take(&mut ws.frontier.order_nodes);
    let mut order_parents = std::mem::take(&mut ws.frontier.order_parents);
    let mut level_starts = std::mem::take(&mut ws.frontier.level_starts);
    trie.bfs_levels(&mut order_nodes, &mut order_parents, &mut level_starts);
    ws.frontier.begin_query(trie.len());
    stats.trie_prefixes += order_nodes.len();

    let result = fused_sweep(
        graph,
        trie,
        nr,
        params,
        strategy,
        ws,
        acc,
        stats,
        rng,
        &order_nodes,
        &order_parents,
        &level_starts,
    );
    // Hand the scratch buffers back on every exit path (success or
    // budget abort) so the pooled-capacity contract survives cancellation.
    ws.frontier.order_nodes = order_nodes;
    ws.frontier.order_parents = order_parents;
    ws.frontier.level_starts = level_starts;
    result
}

/// The sweep body of [`run_fused`], split out so the taken BFS buffers
/// are restored on the abort path too.
// Same flat parameter list as run_fused, for the same reason.
#[allow(clippy::too_many_arguments)]
fn fused_sweep<G: GraphView, A: ScoreSink + ?Sized, R: Rng + ?Sized>(
    graph: &G,
    trie: &WalkTrie,
    nr: usize,
    params: &ProbeParams,
    strategy: ProbeStrategy,
    ws: &mut ProbeWorkspace,
    acc: &mut A,
    stats: &mut QueryStats,
    rng: &mut R,
    order_nodes: &[u32],
    order_parents: &[u32],
    level_starts: &[usize],
) -> Result<(), BudgetExceeded> {
    let inv_nr = 1.0 / nr as f64;
    let mean_in_degree = graph.num_edges() as f64 / graph.num_nodes() as f64;
    let depth_count = level_starts.len() - 1;
    // Sweep deepest-first: consuming level `depth` produces the arrival
    // frontiers of level `depth - 1`, and the `depth == 1` sweep emits
    // into the accumulator (the mass has reached the root).
    for depth in (1..=depth_count).rev() {
        stats.levels_expanded += 1;
        let level_range = level_starts[depth - 1]..level_starts[depth];
        let level_nodes = &order_nodes[level_range.clone()];
        let level_parents = &order_parents[level_range];
        // Pruning rule 2: mass at depth `r` has `r` expansions left, so an
        // entry can grow by at most (√c)^r before emission.
        let bound = params.sqrt_c.powi(depth as i32);
        let mut group_start = 0;
        while group_start < level_nodes.len() {
            // Siblings are consecutive within a BFS level; one group =
            // all children of `parent`.
            let parent = level_parents[group_start];
            let mut group_end = group_start + 1;
            while group_end < level_nodes.len() && level_parents[group_end] == parent {
                group_end += 1;
            }
            let group = &level_nodes[group_start..group_end];
            group_start = group_end;

            let ProbeWorkspace {
                current,
                next,
                frontier,
                budget,
            } = ws;
            budget.check(stats)?;
            // Merge phase: every sibling's arrival frontier plus each
            // sibling's own probe start (H_0 = {vertex}, weight w/nr)
            // lands in one deduplicated weighted frontier.
            current.clear();
            let mut contributions = 0usize;
            let mut group_walks = 0u64;
            for &child in group {
                let (span_nodes, span_weights) = frontier.span(child);
                for (&v, &w) in span_nodes.iter().zip(span_weights) {
                    contributions += 1;
                    current.add(v, w);
                }
                contributions += 1;
                current.add(trie.vertex(child), trie.weight(child) as f64 * inv_nr);
                group_walks += trie.weight(child) as u64;
            }
            stats.frontier_merges += contributions - current.len();

            // The legacy randomized probe never prunes; mirror that.
            if params.epsilon_p > 0.0 && strategy != ProbeStrategy::Randomized {
                let tau = params.epsilon_p * (group_walks as f64 * inv_nr);
                current.retain(|_, s| s * bound > tau);
            }
            if current.is_empty() {
                continue;
            }

            // Every probe stepping from this group toward the root must
            // avoid the parent's vertex at this level (Definition 4).
            let avoid = trie.vertex(parent);
            stats.probes += 1;
            next.clear();
            let draws = match strategy {
                ProbeStrategy::Deterministic => None,
                ProbeStrategy::Randomized => Some(draw_budget(group_walks, current, nr)),
                ProbeStrategy::Hybrid => {
                    // Sample when the draws cost less than the `m/n`
                    // in-edges per candidate a deterministic push reads.
                    let draws = draw_budget(group_walks, current, nr);
                    let switch = (draws as f64) < mean_in_degree;
                    stats.hybrid_switches += switch as usize;
                    switch.then_some(draws)
                }
            };
            match draws {
                Some(draws) => {
                    stats.randomized_probes += 1;
                    probe::expand_level_randomized(
                        graph,
                        params.sqrt_c,
                        avoid,
                        current,
                        next,
                        draws,
                        stats,
                        rng,
                    );
                }
                None => {
                    probe::expand_level_deterministic(
                        graph,
                        params.sqrt_c,
                        avoid,
                        current,
                        next,
                        stats,
                    );
                }
            }
            if depth == 1 {
                // `parent` is the root: the frontier is fully expanded;
                // emit. (The root itself is not a probeable prefix.)
                for &v in next.nodes() {
                    let score = next.get(v);
                    if score > 0.0 {
                        acc.add(v, score);
                    }
                }
            } else {
                frontier.store(parent, next);
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use probesim_graph::toy::{toy_graph, A, B, C};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn fuse_det(trie: &WalkTrie, nr: usize, epsilon_p: f64) -> Vec<f64> {
        let g = toy_graph();
        let params = ProbeParams {
            sqrt_c: 0.5,
            epsilon_p,
        };
        let mut ws = ProbeWorkspace::new(8);
        let mut acc = vec![0.0; 8];
        let mut stats = QueryStats::default();
        let mut rng = StdRng::seed_from_u64(1);
        run_fused(
            &g,
            trie,
            nr,
            &params,
            ProbeStrategy::Deterministic,
            &mut ws,
            &mut acc,
            &mut stats,
            &mut rng,
        )
        .unwrap();
        acc
    }

    fn legacy_det(trie: &WalkTrie, nr: usize, epsilon_p: f64) -> Vec<f64> {
        let g = toy_graph();
        let params = ProbeParams {
            sqrt_c: 0.5,
            epsilon_p,
        };
        let mut ws = ProbeWorkspace::new(8);
        let mut acc = vec![0.0; 8];
        let mut stats = QueryStats::default();
        trie.for_each_prefix(|path, w| {
            probe::deterministic(
                &g,
                path,
                &params,
                w as f64 / nr as f64,
                &mut ws,
                &mut acc,
                &mut stats,
            )
            .unwrap();
        });
        acc
    }

    #[test]
    fn fused_matches_per_prefix_on_shared_trie() {
        // The paper's Figure 3 trie: three walks, two sharing a prefix.
        let mut trie = WalkTrie::new(A);
        trie.insert(&[A, B, 2]);
        trie.insert(&[A, 2, A]);
        trie.insert(&[A, B, A]);
        let fused = fuse_det(&trie, 3, 0.0);
        let legacy = legacy_det(&trie, 3, 0.0);
        for v in 0..8 {
            assert!(
                (fused[v] - legacy[v]).abs() < 1e-12,
                "node {v}: fused {} vs legacy {}",
                fused[v],
                legacy[v]
            );
        }
        assert!(fused.iter().sum::<f64>() > 0.0);
    }

    #[test]
    fn fused_counts_merges_and_levels() {
        let g = toy_graph();
        let mut trie = WalkTrie::new(A);
        // Two branches that overlap at the root group: expanding (A,B,A)
        // past position B yields {c}, expanding (A,C,A) past position C
        // yields {b} — each collides with the other branch's own probe
        // start (vertex b resp. c), so the root-level merge dedups two
        // contributions the per-prefix path would have expanded twice.
        for _ in 0..50 {
            trie.insert(&[A, B, A]);
            trie.insert(&[A, C, A]);
        }
        let params = ProbeParams {
            sqrt_c: 0.5,
            epsilon_p: 0.0,
        };
        let mut ws = ProbeWorkspace::new(8);
        let mut acc = vec![0.0; 8];
        let mut stats = QueryStats::default();
        let mut rng = StdRng::seed_from_u64(1);
        run_fused(
            &g,
            &trie,
            100,
            &params,
            ProbeStrategy::Deterministic,
            &mut ws,
            &mut acc,
            &mut stats,
            &mut rng,
        )
        .unwrap();
        assert_eq!(stats.levels_expanded, 2);
        assert_eq!(stats.trie_prefixes, 4);
        assert_eq!(
            stats.probes, 3,
            "two depth-2 parent groups, one fused root group"
        );
        assert!(stats.edges_expanded > 0);
        assert_eq!(stats.frontier_merges, 2, "b and c each merged once");
    }

    #[test]
    fn hybrid_switches_exactly_when_the_draw_budget_is_below_mean_in_degree() {
        // Complete digraph on three nodes: m/n = 6/3 = 2. A trie of `k`
        // copies of the walk (0, 1) is one depth-1 group of `k` walks with
        // mass k/nr, so its draw budget is exactly `k`.
        let g = probesim_graph::CsrGraph::from_edges(
            3,
            &[(0, 1), (1, 0), (0, 2), (2, 0), (1, 2), (2, 1)],
        );
        let params = ProbeParams {
            sqrt_c: 0.5,
            epsilon_p: 0.0,
        };
        for (k, randomized) in [(1, true), (2, false), (3, false)] {
            let mut trie = WalkTrie::new(0);
            for _ in 0..k {
                trie.insert(&[0, 1]);
            }
            let mut ws = ProbeWorkspace::new(3);
            let mut acc = vec![0.0; 3];
            let mut stats = QueryStats::default();
            let mut rng = StdRng::seed_from_u64(1);
            run_fused(
                &g,
                &trie,
                k,
                &params,
                ProbeStrategy::Hybrid,
                &mut ws,
                &mut acc,
                &mut stats,
                &mut rng,
            )
            .unwrap();
            assert_eq!(stats.probes, 1);
            let expected = randomized as usize;
            assert_eq!(stats.hybrid_switches, expected, "k = {k}");
            assert_eq!(stats.randomized_probes, expected, "k = {k}");
            assert_eq!(stats.nodes_sampled > 0, randomized, "k = {k}");
        }
    }

    #[test]
    fn empty_trie_is_a_no_op() {
        let trie = WalkTrie::new(A);
        let acc = fuse_det(&trie, 1, 0.0);
        assert!(acc.iter().all(|&s| s == 0.0));
    }

    #[test]
    fn fused_respects_the_avoid_rule() {
        // Mass converging on the root must never be emitted onto the
        // query node's avoid chain: probe (A,B) avoids A at its only
        // expansion, so A's score stays zero.
        let mut trie = WalkTrie::new(A);
        for _ in 0..10 {
            trie.insert(&[A, B]);
        }
        let acc = fuse_det(&trie, 10, 0.0);
        assert_eq!(acc[A as usize], 0.0);
        assert!(acc[3] > 0.0, "d gets first-meeting mass via b");
    }
}
