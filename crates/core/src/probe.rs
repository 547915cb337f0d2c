//! The PROBE primitives.
//!
//! Given a partial √c-walk `(u1, …, ui)` (a *reverse path*: each `u_{j+1}`
//! is an in-neighbor of `u_j`), a probe computes, for every node `v ≠ u1`,
//! the **first-meeting probability** `P(v, (u1..ui))`: the probability that
//! a fresh √c-walk from `v` is at `ui` after `i−1` steps while avoiding
//! `u_{i-1}, …, u_1` at the corresponding earlier steps (Definition 4).
//!
//! * [`deterministic`] — Algorithm 2: exact dynamic programming over
//!   forward (out-edge) frontiers, O(m) per level, with pruning rule 2.
//! * [`randomized`] — Algorithm 4: each level samples one in-edge per
//!   candidate node and keeps it with probability √c, giving a Bernoulli
//!   estimate whose expectation equals the deterministic score (Lemma 6).
//!   O(n) per level in the worst case.
//! * [`hybrid`] — Section 4.4: deterministic levels until the frontier's
//!   out-degree sum exceeds `c0·w·n`, then `w` independent randomized
//!   continuations seeded from the exact scores.
//!
//! All variants *emit* `weight · Score(v)` into a dense accumulator instead
//! of returning hash sets; the accumulator lives for the whole query.

use probesim_graph::{GraphView, NodeId};
use rand::Rng;

use crate::accum::ScoreSink;
use crate::budget::BudgetExceeded;
use crate::result::QueryStats;
use crate::workspace::{LevelBuf, ProbeWorkspace};

/// Shared probe parameters.
#[derive(Debug, Clone, Copy)]
pub struct ProbeParams {
    /// `√c`.
    pub sqrt_c: f64,
    /// Pruning rule 2 threshold `εp`; `0.0` disables pruning.
    pub epsilon_p: f64,
}

/// Runs the deterministic PROBE (Algorithm 2) on the partial walk `path` =
/// `(u1, …, ui)` and adds `weight · Score(v)` to `acc[v]` for every node in
/// the final frontier `H_{i-1}`.
///
/// `path.len()` must be ≥ 2 (a probe of a length-1 walk has no meeting
/// step).
///
/// Cooperative cancellation: `ws.budget` is checked before every level
/// expansion; an exceeded budget aborts between levels with
/// [`BudgetExceeded`] (never mid-expansion — partial level output stays
/// confined to the workspace, which the session resets on abort).
pub fn deterministic<G: GraphView, A: ScoreSink + ?Sized>(
    graph: &G,
    path: &[NodeId],
    params: &ProbeParams,
    weight: f64,
    ws: &mut ProbeWorkspace,
    acc: &mut A,
    stats: &mut QueryStats,
) -> Result<(), BudgetExceeded> {
    let i = path.len();
    debug_assert!(i >= 2, "probe needs a path of at least 2 nodes");
    stats.probes += 1;
    ws.reset();
    // H_0 = {(u_i, 1)}.
    ws.current.add(path[i - 1], 1.0);
    for j in 0..(i - 1) {
        ws.budget.check(stats)?;
        // Remaining levels after this expansion: (i-1) - (j+1); the score
        // of any node in H_j can grow by at most √c per remaining level, so
        // entries below εp / (√c)^{(i-1)-j} can never contribute more than
        // εp (pruning rule 2, with the paper's exponent i−j−1).
        if params.epsilon_p > 0.0 {
            let bound = params.sqrt_c.powi((i - 1 - j) as i32);
            ws.current.retain(|_, s| s * bound > params.epsilon_p);
        }
        if ws.current.is_empty() {
            return Ok(());
        }
        // The walk from v must avoid u_{i-j-1} at this position
        // (1-based u_{i-j-1} = 0-based path[i-j-2]).
        let avoid = path[i - j - 2];
        expand_level_deterministic(
            graph,
            params.sqrt_c,
            avoid,
            &ws.current,
            &mut ws.next,
            stats,
        );
        ws.advance();
    }
    for &v in ws.current.nodes() {
        acc.add(v, weight * ws.current.get(v));
    }
    Ok(())
}

/// One deterministic frontier expansion: `H_{j+1}[v] += √c/|I(v)| · H_j[x]`
/// for every out-edge `x → v` with `v ≠ avoid`.
///
/// This is the shared deterministic emission site: the per-prefix probes
/// drive it with a single probe's frontier, the fused engine
/// ([`crate::frontier`]) with a weight-merged multi-probe frontier —
/// linearity of the recurrence makes the two uses interchangeable.
#[inline]
pub(crate) fn expand_level_deterministic<G: GraphView>(
    graph: &G,
    sqrt_c: f64,
    avoid: NodeId,
    current: &LevelBuf,
    next: &mut LevelBuf,
    stats: &mut QueryStats,
) {
    for &x in current.nodes() {
        let score_x = current.get(x);
        if score_x <= 0.0 {
            continue;
        }
        for &v in graph.out_neighbors(x) {
            stats.edges_expanded += 1;
            if v == avoid {
                continue;
            }
            let contribution = sqrt_c / graph.in_degree(v) as f64 * score_x;
            next.add(v, contribution);
        }
    }
}

/// Out-degree sum of a frontier — the quantity the per-prefix hybrid
/// switch condition compares against `c0·w·n`, and the randomized
/// expansion's choice between walking out-edges and scanning all nodes.
#[inline]
fn frontier_out_degree_sum<G: GraphView>(graph: &G, frontier: &LevelBuf) -> usize {
    frontier.nodes().iter().map(|&x| graph.out_degree(x)).sum()
}

/// Runs the randomized PROBE (Algorithm 4) and adds `weight` to `acc[v]`
/// for every node selected into the final frontier.
///
/// Expectation over the sampling equals the deterministic scores (the
/// paper's Lemma 6 / Theorem 3), so the caller may mix deterministic and
/// randomized probes freely.
// The argument list mirrors the paper's probe-loop state; bundling it
// into a struct would obscure which pieces each phase mutates.
#[allow(clippy::too_many_arguments)]
pub fn randomized<G: GraphView, A: ScoreSink + ?Sized, R: Rng + ?Sized>(
    graph: &G,
    path: &[NodeId],
    params: &ProbeParams,
    weight: f64,
    ws: &mut ProbeWorkspace,
    acc: &mut A,
    stats: &mut QueryStats,
    rng: &mut R,
) -> Result<(), BudgetExceeded> {
    let i = path.len();
    debug_assert!(i >= 2);
    stats.probes += 1;
    stats.randomized_probes += 1;
    ws.reset();
    ws.current.add(path[i - 1], 1.0);
    for j in 0..(i - 1) {
        ws.budget.check(stats)?;
        if ws.current.is_empty() {
            return Ok(());
        }
        let avoid = path[i - j - 2];
        expand_level_randomized(
            graph,
            params.sqrt_c,
            avoid,
            &ws.current,
            &mut ws.next,
            1,
            stats,
            rng,
        );
        ws.advance();
    }
    for &v in ws.current.nodes() {
        acc.add(v, weight);
    }
    Ok(())
}

/// One randomized frontier expansion (the loop body of Algorithm 4).
///
/// Builds the candidate set `U` as the union of out-neighbors of `H_j` when
/// that is cheaper than `n`, otherwise scans all nodes; then, for each
/// candidate `x ≠ avoid`, samples one uniform in-edge `(v, x)` and keeps `x`
/// with probability `√c` when `v ∈ H_j`. Candidates reached from several
/// frontier nodes are processed once (the membership stamp dedups), keeping
/// the per-node selection probability exactly `√c·|I(x) ∩ H_j|/|I(x)|`…
/// with one subtlety: sampling an in-edge uniformly already weights by
/// `1/|I(x)|`, so the deduped single trial has the correct marginal.
///
/// This is the shared randomized emission site, generalized along two
/// axes for the fused engine ([`crate::frontier`]) while reproducing
/// Algorithm 4 verbatim for the per-prefix paths:
///
/// * an accepted draw inherits the *score of the sampled in-neighbor* —
///   exactly 1.0 on the per-prefix paths (the legacy unit flag), a
///   merged weight on the fused path;
/// * each candidate performs `draws` independent in-edge trials and
///   keeps the average — the **weight-proportional budget**. The
///   per-prefix paths pass `draws = 1` (each of their probes is its own
///   trial); the fused path passes the merged frontier's alive-walk
///   equivalent (`⌈nr·mass⌉`, capped at the group walk count — see
///   `frontier::draw_budget`), matching the trial count the legacy path
///   spends as separate unit probes, so the estimate concentrates
///   identically as `nr` grows.
///
/// Either way `E[H'(x)] = √c/|I(x)| · Σ_{v∈H} H(v)`, so the estimator
/// is unbiased level by level.
// Same flat probe-loop state as randomized, for the same reason.
#[allow(clippy::too_many_arguments)]
pub(crate) fn expand_level_randomized<G: GraphView, R: Rng + ?Sized>(
    graph: &G,
    sqrt_c: f64,
    avoid: NodeId,
    current: &LevelBuf,
    next: &mut LevelBuf,
    draws: u32,
    stats: &mut QueryStats,
    rng: &mut R,
) {
    let n = graph.num_nodes();
    let out_sum = frontier_out_degree_sum(graph, current);
    let draws = draws.max(1);
    let mut try_candidate = |x: NodeId, rng: &mut R, stats: &mut QueryStats| {
        if x == avoid || next.contains(x) {
            return;
        }
        let in_nbrs = graph.in_neighbors(x);
        if in_nbrs.is_empty() {
            // Inspected but nothing to draw: charge the single candidate
            // visit, not the full draw budget that never runs.
            stats.nodes_sampled += 1;
            return;
        }
        if draws > 1 && draws as usize >= in_nbrs.len() {
            // Rao–Blackwell shortcut (fused path only; legacy's
            // `draws = 1` keeps Algorithm 4 verbatim): once the budget
            // covers the candidate's in-degree, scanning the in-edges and
            // taking the exact conditional expectation is cheaper than
            // the draws it replaces and has zero variance — the estimator
            // it substitutes for is its own conditional mean, so
            // unbiasedness is untouched.
            stats.nodes_sampled += 1;
            stats.edges_expanded += in_nbrs.len();
            let mass: f64 = in_nbrs.iter().map(|&v| current.get(v)).sum();
            if mass > 0.0 {
                next.add(x, sqrt_c * mass / in_nbrs.len() as f64);
            } else {
                next.set(x, 0.0);
            }
            return;
        }
        stats.nodes_sampled += draws as usize;
        let mut kept = 0.0f64;
        for _ in 0..draws {
            let v = in_nbrs[rng.gen_range(0..in_nbrs.len())];
            let score_v = current.get(v);
            if score_v > 0.0 && rng.gen::<f64>() < sqrt_c {
                kept += score_v;
            }
        }
        if kept > 0.0 {
            next.add(x, kept / draws as f64);
        } else {
            // Mark as processed with a zero score so duplicate candidates
            // coming from other frontier nodes are not re-sampled.
            next.set(x, 0.0);
        }
    };
    if out_sum <= n {
        for &x in current.nodes() {
            if current.get(x) <= 0.0 {
                continue;
            }
            for &cand in graph.out_neighbors(x) {
                try_candidate(cand, rng, stats);
            }
        }
    } else {
        for cand in graph.nodes() {
            try_candidate(cand, rng, stats);
        }
    }
    // Compact away the zero-score "processed" markers so the next level
    // only iterates real members.
    next.retain(|_, s| s > 0.0);
}

/// Runs the hybrid PROBE (Section 4.4) for a batched prefix of weight
/// `walk_count` (the number of √c-walks sharing this prefix).
///
/// Levels are expanded deterministically while the frontier out-degree sum
/// stays ≤ `c0 · walk_count · n`. If the threshold trips at level `j`, the
/// exact scores of `H_j` seed `walk_count` independent randomized
/// continuations, each contributing `weight / walk_count`.
// Same flat probe-loop state as randomized, for the same reason.
#[allow(clippy::too_many_arguments)]
pub fn hybrid<G: GraphView, A: ScoreSink + ?Sized, R: Rng + ?Sized>(
    graph: &G,
    path: &[NodeId],
    params: &ProbeParams,
    weight: f64,
    walk_count: usize,
    c0: f64,
    ws: &mut ProbeWorkspace,
    acc: &mut A,
    stats: &mut QueryStats,
    rng: &mut R,
) -> Result<(), BudgetExceeded> {
    let i = path.len();
    debug_assert!(i >= 2);
    debug_assert!(walk_count >= 1);
    stats.probes += 1;
    ws.reset();
    ws.current.add(path[i - 1], 1.0);
    let n = graph.num_nodes();
    let switch_threshold = (c0 * walk_count as f64 * n as f64).max(1.0);
    for j in 0..(i - 1) {
        ws.budget.check(stats)?;
        if params.epsilon_p > 0.0 {
            let bound = params.sqrt_c.powi((i - 1 - j) as i32);
            ws.current.retain(|_, s| s * bound > params.epsilon_p);
        }
        if ws.current.is_empty() {
            return Ok(());
        }
        let out_sum = frontier_out_degree_sum(graph, &ws.current);
        if out_sum as f64 > switch_threshold {
            stats.hybrid_switches += 1;
            return randomized_continuations(
                graph, path, params, weight, walk_count, j, ws, acc, stats, rng,
            );
        }
        let avoid = path[i - j - 2];
        expand_level_deterministic(
            graph,
            params.sqrt_c,
            avoid,
            &ws.current,
            &mut ws.next,
            stats,
        );
        ws.advance();
    }
    for &v in ws.current.nodes() {
        acc.add(v, weight * ws.current.get(v));
    }
    Ok(())
}

/// Finishes a hybrid probe: `walk_count` independent randomized runs of the
/// remaining levels, each seeded by Bernoulli-sampling the exact frontier
/// scores of `H_j` (marginal inclusion probability = exact score, so
/// linearity keeps the estimator unbiased).
// Same flat probe-loop state as randomized, for the same reason.
#[allow(clippy::too_many_arguments)]
fn randomized_continuations<G: GraphView, A: ScoreSink + ?Sized, R: Rng + ?Sized>(
    graph: &G,
    path: &[NodeId],
    params: &ProbeParams,
    weight: f64,
    walk_count: usize,
    start_level: usize,
    ws: &mut ProbeWorkspace,
    acc: &mut A,
    stats: &mut QueryStats,
    rng: &mut R,
) -> Result<(), BudgetExceeded> {
    let i = path.len();
    // Snapshot the exact frontier (scores ∈ [0, 1]).
    let seed_frontier: Vec<(NodeId, f64)> = ws
        .current
        .nodes()
        .iter()
        .map(|&v| (v, ws.current.get(v)))
        .filter(|&(_, s)| s > 0.0)
        .collect();
    let per_run_weight = weight / walk_count as f64;
    for _ in 0..walk_count {
        ws.budget.check(stats)?;
        stats.randomized_probes += 1;
        ws.reset();
        for &(v, s) in &seed_frontier {
            // Scores can exceed 1 only through floating-point noise.
            if rng.gen::<f64>() < s {
                ws.current.add(v, 1.0);
            }
        }
        let mut alive = !ws.current.is_empty();
        if alive {
            for j in start_level..(i - 1) {
                ws.budget.check(stats)?;
                let avoid = path[i - j - 2];
                expand_level_randomized(
                    graph,
                    params.sqrt_c,
                    avoid,
                    &ws.current,
                    &mut ws.next,
                    1,
                    stats,
                    rng,
                );
                ws.advance();
                if ws.current.is_empty() {
                    alive = false;
                    break;
                }
            }
        }
        if alive {
            for &v in ws.current.nodes() {
                acc.add(v, per_run_weight);
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use probesim_graph::toy::{toy_graph, A, B, C, D, E, F, G, H};
    use probesim_graph::CsrGraph;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn run_det(path: &[NodeId], epsilon_p: f64) -> Vec<f64> {
        let g = toy_graph();
        let params = ProbeParams {
            sqrt_c: 0.5,
            epsilon_p,
        };
        let mut ws = ProbeWorkspace::new(8);
        let mut acc = vec![0.0; 8];
        let mut stats = QueryStats::default();
        deterministic(&g, path, &params, 1.0, &mut ws, &mut acc, &mut stats).unwrap();
        acc
    }

    #[test]
    fn probe_ab_matches_paper_s2() {
        // Paper: probe of W(u,2) = (a,b) gives S2 = {(c,0.167),(d,0.5),(e,0.25)}.
        let acc = run_det(&[A, B], 0.0);
        assert!((acc[C as usize] - 1.0 / 6.0).abs() < 1e-12);
        assert!((acc[D as usize] - 0.5).abs() < 1e-12);
        assert!((acc[E as usize] - 0.25).abs() < 1e-12);
        assert_eq!(acc[A as usize], 0.0, "avoided node a must get no score");
        assert_eq!(acc[F as usize], 0.0);
    }

    #[test]
    fn probe_aba_matches_paper_s3() {
        // Paper: S3 = {(f,0.021),(g,0.028),(h,0.028)}.
        let acc = run_det(&[A, B, A], 0.0);
        assert!((acc[F as usize] - 0.5 / 3.0 * 0.5 / 4.0).abs() < 1e-12);
        assert!((acc[G as usize] - 0.5 / 3.0 * 0.5 / 3.0).abs() < 1e-12);
        assert!((acc[H as usize] - 0.5 / 3.0 * 0.5 / 3.0).abs() < 1e-12);
        let rounded: Vec<f64> = acc.iter().map(|s| (s * 1000.0).round() / 1000.0).collect();
        assert_eq!(rounded[F as usize], 0.021);
        assert_eq!(rounded[G as usize], 0.028);
        assert_eq!(rounded[H as usize], 0.028);
    }

    #[test]
    fn probe_abab_matches_paper_s4() {
        // Paper: S4 = {(b,0.011),(c,0.033),(e,0.038),(f,0.019)}. The paper
        // prints values rounded from already-rounded intermediates (e.g.
        // Score(b,3) = 0.042·0.5/2 → 0.0105 → "0.011"); we assert the exact
        // fractions instead: b = 1/96 ≈ 0.0104, c = 14/432 ≈ 0.0324,
        // e = 11/288 ≈ 0.0382, f = 11/576 ≈ 0.0191.
        let acc = run_det(&[A, B, A, B], 0.0);
        assert!((acc[B as usize] - 1.0 / 96.0).abs() < 1e-12);
        assert!((acc[C as usize] - 14.0 / 432.0).abs() < 1e-12);
        assert!((acc[E as usize] - 11.0 / 288.0).abs() < 1e-12);
        assert!((acc[F as usize] - 11.0 / 576.0).abs() < 1e-12);
        // Paper-precision agreement: every entry within 0.001 of the print.
        for (v, paper) in [(B, 0.011), (C, 0.033), (E, 0.038), (F, 0.019)] {
            assert!((acc[v as usize] - paper).abs() < 1.1e-3, "node {v}");
        }
        assert_eq!(acc[A as usize], 0.0);
        assert_eq!(acc[D as usize], 0.0);
        assert_eq!(acc[G as usize], 0.0);
        assert_eq!(acc[H as usize], 0.0);
    }

    #[test]
    fn pruning_rule2_kills_c_subtree_as_in_paper() {
        // Paper, Section 4.1: with εp = 0.05 on probe (a,b,a,b), the c
        // branch of H1 (score 0.167, two levels left: 0.167·0.25 ≤ 0.05)
        // is pruned. d (0.5·0.25 = 0.125 > 0.05) survives.
        let pruned = run_det(&[A, B, A, B], 0.05);
        let exact = run_det(&[A, B, A, B], 0.0);
        // Pruning only lowers scores (one-sided error), losing at most
        // (i−1)·εp per node (εp per pruned level; see config.rs on why the
        // paper's per-probe εp claim is slightly optimistic).
        for v in 0..8 {
            assert!(pruned[v] <= exact[v] + 1e-15);
            assert!(exact[v] - pruned[v] <= 3.0 * 0.05 + 1e-12, "node {v}");
        }
        // The c-subtree loss must actually show up somewhere.
        assert!(pruned.iter().sum::<f64>() < exact.iter().sum::<f64>());
    }

    #[test]
    fn probe_scores_are_probabilities() {
        // Each score is an individual probability; the cross-node sum is
        // NOT bounded by 1 in general (each node's score lives in its own
        // walk's probability space), so only per-node bounds are asserted.
        let acc = run_det(&[A, B, A, B], 0.0);
        for (v, &s) in acc.iter().enumerate() {
            assert!((0.0..=1.0).contains(&s), "score[{v}] = {s}");
        }
    }

    #[test]
    fn weight_scales_linearly() {
        let g = toy_graph();
        let params = ProbeParams {
            sqrt_c: 0.5,
            epsilon_p: 0.0,
        };
        let mut ws = ProbeWorkspace::new(8);
        let mut acc = vec![0.0; 8];
        let mut stats = QueryStats::default();
        deterministic(&g, &[A, B], &params, 0.25, &mut ws, &mut acc, &mut stats).unwrap();
        assert!((acc[D as usize] - 0.125).abs() < 1e-12);
    }

    #[test]
    fn randomized_probe_is_unbiased_on_toy_graph() {
        let g = toy_graph();
        let params = ProbeParams {
            sqrt_c: 0.5,
            epsilon_p: 0.0,
        };
        let exact = run_det(&[A, B, A, B], 0.0);
        let mut ws = ProbeWorkspace::new(8);
        let mut acc = vec![0.0; 8];
        let mut stats = QueryStats::default();
        let mut rng = StdRng::seed_from_u64(42);
        let trials = 60_000;
        for _ in 0..trials {
            randomized(
                &g,
                &[A, B, A, B],
                &params,
                1.0 / trials as f64,
                &mut ws,
                &mut acc,
                &mut stats,
                &mut rng,
            )
            .unwrap();
        }
        for v in 0..8 {
            assert!(
                (acc[v] - exact[v]).abs() < 0.01,
                "node {v}: sampled {} vs exact {}",
                acc[v],
                exact[v]
            );
        }
    }

    #[test]
    fn randomized_probe_avoids_diagonal_nodes() {
        let g = toy_graph();
        let params = ProbeParams {
            sqrt_c: 0.9,
            epsilon_p: 0.0,
        };
        let mut ws = ProbeWorkspace::new(8);
        let mut stats = QueryStats::default();
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..2000 {
            let mut acc = vec![0.0; 8];
            randomized(
                &g,
                &[A, B],
                &params,
                1.0,
                &mut ws,
                &mut acc,
                &mut stats,
                &mut rng,
            )
            .unwrap();
            assert_eq!(acc[A as usize], 0.0, "avoided node a was emitted");
        }
    }

    #[test]
    fn hybrid_with_huge_threshold_equals_deterministic() {
        let g = toy_graph();
        let params = ProbeParams {
            sqrt_c: 0.5,
            epsilon_p: 0.0,
        };
        let exact = run_det(&[A, B, A, B], 0.0);
        let mut ws = ProbeWorkspace::new(8);
        let mut acc = vec![0.0; 8];
        let mut stats = QueryStats::default();
        let mut rng = StdRng::seed_from_u64(3);
        hybrid(
            &g,
            &[A, B, A, B],
            &params,
            1.0,
            1,
            1e9, // threshold never trips
            &mut ws,
            &mut acc,
            &mut stats,
            &mut rng,
        )
        .unwrap();
        assert_eq!(stats.hybrid_switches, 0);
        for v in 0..8 {
            assert!((acc[v] - exact[v]).abs() < 1e-12);
        }
    }

    #[test]
    fn hybrid_with_zero_threshold_is_unbiased() {
        // Force the randomized path immediately and check expectation.
        let g = toy_graph();
        let params = ProbeParams {
            sqrt_c: 0.5,
            epsilon_p: 0.0,
        };
        let exact = run_det(&[A, B, A, B], 0.0);
        let mut ws = ProbeWorkspace::new(8);
        let mut acc = vec![0.0; 8];
        let mut stats = QueryStats::default();
        let mut rng = StdRng::seed_from_u64(9);
        let trials = 30_000;
        for _ in 0..trials {
            hybrid(
                &g,
                &[A, B, A, B],
                &params,
                1.0 / trials as f64,
                1,
                0.0, // always switch
                &mut ws,
                &mut acc,
                &mut stats,
                &mut rng,
            )
            .unwrap();
        }
        assert!(stats.hybrid_switches > 0);
        for v in 0..8 {
            assert!(
                (acc[v] - exact[v]).abs() < 0.012,
                "node {v}: {} vs {}",
                acc[v],
                exact[v]
            );
        }
    }

    #[test]
    fn randomized_candidate_union_vs_full_scan_agree() {
        // A graph where one hub's out-degree exceeds n, forcing the U = V
        // branch; expectation must still match the deterministic scores.
        let mut edges = Vec::new();
        let n = 12u32;
        for v in 1..n {
            edges.push((0, v)); // hub 0 -> everyone
            edges.push((v, 0)); // everyone -> hub
        }
        let g = CsrGraph::from_edges(n as usize, &edges);
        let params = ProbeParams {
            sqrt_c: 0.5,
            epsilon_p: 0.0,
        };
        let path = [1u32, 0u32];
        let mut ws = ProbeWorkspace::new(n as usize);
        let mut exact = vec![0.0; n as usize];
        let mut stats = QueryStats::default();
        deterministic(&g, &path, &params, 1.0, &mut ws, &mut exact, &mut stats).unwrap();
        let mut acc = vec![0.0; n as usize];
        let mut rng = StdRng::seed_from_u64(5);
        let trials = 40_000;
        for _ in 0..trials {
            randomized(
                &g,
                &path,
                &params,
                1.0 / trials as f64,
                &mut ws,
                &mut acc,
                &mut stats,
                &mut rng,
            )
            .unwrap();
        }
        for v in 0..n as usize {
            assert!(
                (acc[v] - exact[v]).abs() < 0.02,
                "node {v}: {} vs {}",
                acc[v],
                exact[v]
            );
        }
    }
}
