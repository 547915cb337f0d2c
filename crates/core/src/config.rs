//! Configuration and the error-parameter budget (Theorem 2).
//!
//! ProbeSim's user-facing accuracy knob is a single absolute-error bound
//! `εa`, but internally that budget is split three ways:
//!
//! * `ε` — sampling error (drives the trial count `nr = (3c/ε²)·ln(n/δ)`),
//! * `εt` — walk-truncation error (pruning rule 1,
//!   `ℓt = ⌊log εt / log √c⌋`),
//! * `εp` — probe-pruning error (pruning rule 2).
//!
//! Theorem 2 requires `ε + (1+ε)/(1−√c)·εp + εt ≤ εa` (the paper's `εt/2`
//! assumes a one-sided truncation compensation this crate does not apply,
//! so the full `εt` must fit). [`ErrorBudget::derive`] performs that split.

/// Which PROBE implementation the query driver should use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ProbeStrategy {
    /// Algorithm 2: exact scores, O(m) per probe, batchable.
    Deterministic,
    /// Algorithm 4: Bernoulli scores, O(n) expected per probe. Cannot be
    /// batched (each batched walk needs an independent probe).
    Randomized,
    /// Section 4.4 "best of both worlds", per engine:
    /// * fused sweep (the default): each (level, parent group) expands
    ///   randomized iff its draw budget `⌈nr·mass⌉` is below the mean
    ///   in-degree `m/n`, otherwise deterministically
    ///   ([`crate::frontier`]);
    /// * legacy per-prefix path: the paper's switch — deterministic until
    ///   the frontier out-degree sum exceeds `c0·w·n`
    ///   ([`Optimizations::hybrid_c0`]), then randomized continuations.
    #[default]
    Hybrid,
}

/// Optimization toggles (Section 4). All default to on; the ablation
/// benchmarks flip them individually.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Optimizations {
    /// Pruning rule 1: truncate √c-walks at `ℓt` steps.
    pub truncate_walks: bool,
    /// Pruning rule 2: drop frontier entries whose best-case contribution
    /// `Score(x)·(√c)^(i−j−1)` is at most `εp`.
    pub prune_scores: bool,
    /// Batch √c-walks in a reverse-reachability trie (Algorithm 3) so each
    /// distinct prefix is probed once.
    pub batch_walks: bool,
    /// Fuse all of a query's probes into one level-synchronous weighted
    /// frontier sweep over the trie ([`crate::frontier`]), so a graph node
    /// reached at the same trie position by many prefixes is expanded at
    /// most once. Only effective together with `batch_walks`; the legacy
    /// per-prefix path is kept for A/B comparison and property tests.
    pub fuse_probes: bool,
    /// PROBE implementation.
    pub strategy: ProbeStrategy,
    /// The constant `c0` in the paper's hybrid switch condition
    /// `Σ|O(x)| > c0·w·n`. Legacy-only: it drives the per-prefix paths
    /// (`fuse_probes` off, or `batch_walks` off); the fused sweep's switch
    /// compares observed values and has no constant.
    pub hybrid_c0: f64,
}

impl Default for Optimizations {
    fn default() -> Self {
        Optimizations {
            truncate_walks: true,
            prune_scores: true,
            batch_walks: true,
            fuse_probes: true,
            strategy: ProbeStrategy::default(),
            hybrid_c0: 0.5,
        }
    }
}

impl Optimizations {
    /// The unoptimized Algorithm 1 + Algorithm 2 configuration.
    pub fn basic() -> Self {
        Optimizations {
            truncate_walks: false,
            prune_scores: false,
            batch_walks: false,
            fuse_probes: false,
            strategy: ProbeStrategy::Deterministic,
            hybrid_c0: 0.5,
        }
    }
}

/// Full ProbeSim configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct ProbeSimConfig {
    /// SimRank decay factor `c ∈ (0, 1)`; the paper's experiments use 0.6.
    pub decay: f64,
    /// Absolute error bound `εa`.
    pub epsilon: f64,
    /// Failure probability `δ`.
    pub delta: f64,
    /// Optimization toggles.
    pub optimizations: Optimizations,
    /// RNG seed, so experiments are reproducible.
    pub seed: u64,
    /// Optional hard override of the trial count (benchmarks sweep this;
    /// `None` uses the Chernoff-bound count).
    pub num_walks_override: Option<usize>,
}

impl ProbeSimConfig {
    /// A configuration with the given decay `c`, error `εa` and failure
    /// probability `δ`, default optimizations and seed 0.
    pub fn new(decay: f64, epsilon: f64, delta: f64) -> Self {
        assert!(
            (0.0..1.0).contains(&decay) && decay > 0.0,
            "decay must be in (0,1)"
        );
        assert!(epsilon > 0.0 && epsilon < 1.0, "epsilon must be in (0,1)");
        assert!(delta > 0.0 && delta < 1.0, "delta must be in (0,1)");
        ProbeSimConfig {
            decay,
            epsilon,
            delta,
            optimizations: Optimizations::default(),
            seed: 0,
            num_walks_override: None,
        }
    }

    /// The paper's experimental configuration: `c = 0.6`, `δ = 0.01`, all
    /// optimizations of Sections 4.1 and 4.3/4.4 enabled.
    pub fn paper(epsilon: f64) -> Self {
        ProbeSimConfig::new(0.6, epsilon, 0.01)
    }

    /// Replaces the RNG seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Replaces the optimization set.
    pub fn with_optimizations(mut self, optimizations: Optimizations) -> Self {
        self.optimizations = optimizations;
        self
    }

    /// Overrides the number of √c-walks (benchmark sweeps).
    pub fn with_num_walks(mut self, walks: usize) -> Self {
        self.num_walks_override = Some(walks);
        self
    }

    /// `√c`.
    #[inline]
    pub fn sqrt_decay(&self) -> f64 {
        self.decay.sqrt()
    }

    /// Derives the internal error split for a graph with `n` nodes.
    pub fn budget(&self) -> ErrorBudget {
        ErrorBudget::derive(self)
    }

    /// The Chernoff-bound trial count `nr = ⌈(3c/ε²)·ln(n/δ)⌉` for a graph
    /// with `n` nodes (or the override).
    pub fn num_walks(&self, n: usize) -> usize {
        if let Some(w) = self.num_walks_override {
            return w;
        }
        let eps = self.budget().sampling;
        let n = n.max(2) as f64;
        ((3.0 * self.decay / (eps * eps)) * (n / self.delta).ln()).ceil() as usize
    }
}

/// The derived `(ε, εt, εp, ℓt)` split satisfying Theorem 2.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ErrorBudget {
    /// Sampling error `ε`.
    pub sampling: f64,
    /// Truncation error `εt` (pruning rule 1). 0 disables truncation.
    pub truncation: f64,
    /// Probe-pruning threshold `εp` (pruning rule 2). 0 disables pruning.
    pub pruning: f64,
    /// Walk cap `ℓt` in nodes; `usize::MAX` when truncation is off.
    pub walk_cap: usize,
}

impl ErrorBudget {
    /// Splits `εa` as `ε = εa/2`, truncation share `εa/4`, pruning share
    /// `εa/4`, then back-solves `εt` and `εp` from their Theorem 2
    /// coefficients. Disabled optimizations return their full share to the
    /// guarantee (the bound just becomes slack).
    pub fn derive(cfg: &ProbeSimConfig) -> Self {
        let sqrt_c = cfg.sqrt_decay();
        let opts = &cfg.optimizations;
        let sampling = cfg.epsilon / 2.0;
        let (truncation, walk_cap) = if opts.truncate_walks {
            // Theorem 2 charges the full εt (no truncation compensation).
            let eps_t = cfg.epsilon / 4.0;
            let cap = (eps_t.ln() / sqrt_c.ln()).floor().max(1.0) as usize;
            (eps_t, cap)
        } else {
            (0.0, usize::MAX)
        };
        let pruning = if opts.prune_scores {
            // The paper's Theorem 2 charges pruning with (1+ε)/(1−√c)·εp,
            // resting on Lemma 7's claim that a single probe loses at most
            // εp. That lemma's induction drops the compounding of freshly
            // pruned mass: the provable per-probe bound is (i−1)·εp (one εp
            // per pruned level; see the `pruning_is_one_sided` property
            // test, whose counterexample exceeds εp). Summed over the
            // prefixes of one walk, the loss is Σ_{i=2..ℓ}(i−1) ≤ ℓ(ℓ−1)/2,
            // whose expectation for the geometric ℓ is √c/(1−√c)²; with
            // truncation it is also capped at ℓt(ℓt−1)/2. We charge that
            // corrected coefficient (with the paper's (1+ε) concentration
            // slack), keeping the εa guarantee sound at the cost of a
            // smaller εp than the paper would use.
            let expectation_bound = sqrt_c / ((1.0 - sqrt_c) * (1.0 - sqrt_c));
            let kappa = if walk_cap == usize::MAX {
                expectation_bound
            } else {
                let cap = walk_cap as f64;
                expectation_bound.min(cap * (cap - 1.0) / 2.0)
            };
            cfg.epsilon / (4.0 * kappa.max(1.0) * (1.0 + sampling))
        } else {
            0.0
        };
        ErrorBudget {
            sampling,
            truncation,
            pruning,
            walk_cap,
        }
    }

    /// The guaranteed worst-case absolute error of this split — the
    /// Theorem 2 inequality with the corrected pruning coefficient (see
    /// [`ErrorBudget::derive`]).
    pub fn guaranteed_error(&self, sqrt_c: f64) -> f64 {
        let expectation_bound = sqrt_c / ((1.0 - sqrt_c) * (1.0 - sqrt_c));
        let kappa = if self.walk_cap == usize::MAX {
            expectation_bound
        } else {
            let cap = self.walk_cap as f64;
            expectation_bound.min(cap * (cap - 1.0) / 2.0)
        };
        self.sampling + (1.0 + self.sampling) * kappa.max(1.0) * self.pruning + self.truncation
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_budget_satisfies_theorem2() {
        for eps in [0.0125, 0.025, 0.05, 0.1, 0.2] {
            let cfg = ProbeSimConfig::paper(eps);
            let b = cfg.budget();
            let lhs = b.guaranteed_error(cfg.sqrt_decay());
            assert!(
                lhs <= eps + 1e-12,
                "budget violates Theorem 2 at eps={eps}: lhs={lhs}"
            );
        }
    }

    #[test]
    fn walk_cap_matches_paper_example() {
        // Paper, Section 4.1 running example: √c = 0.5, εt = 0.05 gives a
        // walk truncated to 4 nodes.
        let mut cfg = ProbeSimConfig::new(0.25, 0.2, 0.01);
        cfg.optimizations.truncate_walks = true;
        let b = cfg.budget();
        assert!((b.truncation - 0.05).abs() < 1e-12);
        assert_eq!(b.walk_cap, 4);
    }

    #[test]
    fn disabling_optimizations_zeroes_their_budget() {
        let cfg = ProbeSimConfig::paper(0.1).with_optimizations(Optimizations::basic());
        let b = cfg.budget();
        assert_eq!(b.truncation, 0.0);
        assert_eq!(b.pruning, 0.0);
        assert_eq!(b.walk_cap, usize::MAX);
        // With pruning disabled the whole bound is the sampling error.
        assert!(b.guaranteed_error(cfg.sqrt_decay()) <= 0.1);
    }

    #[test]
    fn walk_count_matches_chernoff_formula() {
        let cfg = ProbeSimConfig::paper(0.1);
        let n = 10_000usize;
        let eps = cfg.budget().sampling;
        let expected = ((3.0 * 0.6 / (eps * eps)) * (n as f64 / 0.01).ln()).ceil() as usize;
        assert_eq!(cfg.num_walks(n), expected);
        assert_eq!(cfg.with_num_walks(42).num_walks(n), 42);
    }

    #[test]
    fn walk_count_grows_with_n_and_shrinks_with_eps() {
        let cfg = ProbeSimConfig::paper(0.1);
        assert!(cfg.num_walks(1_000_000) > cfg.num_walks(1_000));
        assert!(
            ProbeSimConfig::paper(0.05).num_walks(1000)
                > ProbeSimConfig::paper(0.1).num_walks(1000)
        );
    }

    #[test]
    #[should_panic(expected = "decay must be in (0,1)")]
    fn rejects_bad_decay() {
        let _ = ProbeSimConfig::new(1.5, 0.1, 0.01);
    }

    #[test]
    #[should_panic(expected = "epsilon must be in (0,1)")]
    fn rejects_bad_epsilon() {
        let _ = ProbeSimConfig::new(0.6, 0.0, 0.01);
    }
}
