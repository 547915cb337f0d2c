//! End-to-end accuracy tests: ProbeSim's Definition 1 / Definition 2
//! guarantees hold against exact SimRank on the CI-scale versions of the
//! paper's small datasets.

use probesim::prelude::*;
use probesim_datasets::sliding_window_workload;
use probesim_eval::{metrics, sample_query_nodes};

const DECAY: f64 = 0.6;

fn check_dataset(dataset: Dataset, epsilon: f64, queries: usize) {
    let graph = dataset.generate(Scale::Ci);
    let truth = GroundTruth::compute_with_iterations(&graph, DECAY, 30);
    let engine = ProbeSim::new(ProbeSimConfig::paper(epsilon).with_seed(4242));
    let query_nodes = sample_query_nodes(&graph, queries, 17);
    assert!(
        !query_nodes.is_empty(),
        "{}: no eligible queries",
        dataset.name()
    );
    for &u in &query_nodes {
        let result = engine.single_source(&graph, u);
        let err = metrics::abs_error(truth.single_source(u), &result.scores, u);
        // δ = 0.01 per query; across this many queries a single marginal
        // excursion is possible, so assert with 25% headroom.
        assert!(
            err <= epsilon * 1.25,
            "{} query {u}: abs error {err} > {epsilon}",
            dataset.name()
        );
    }
}

#[test]
fn single_source_error_bound_wiki_vote() {
    check_dataset(Dataset::WikiVote, 0.1, 5);
}

#[test]
fn single_source_error_bound_hepth() {
    check_dataset(Dataset::HepTh, 0.1, 5);
}

#[test]
fn single_source_error_bound_as() {
    check_dataset(Dataset::As, 0.1, 5);
}

#[test]
fn single_source_error_bound_hepph() {
    check_dataset(Dataset::HepPh, 0.1, 5);
}

/// The graph the `churn_ryw` serving workload reads: the warm window of a
/// 1000-node, 6000-edge sliding-window stream. Its mean in-degree (6)
/// makes the fused hybrid mix deterministic and randomized groups, and
/// every answer must stay within εa (measured: 0.001–0.006).
#[test]
fn single_source_error_bound_sliding_window_stream() {
    let (overlay, _) = sliding_window_workload(1000, 6000, 0, 0x5EED);
    let graph = overlay.snapshot();
    let truth = GroundTruth::compute(&graph, DECAY);
    let query_nodes = sample_query_nodes(&graph, 8, 7);
    assert_eq!(query_nodes.len(), 8);
    for epsilon in [0.05, 0.1, 0.2] {
        let engine = ProbeSim::new(ProbeSimConfig::paper(epsilon).with_seed(2017));
        let mut switches = 0;
        for &u in &query_nodes {
            let result = engine.single_source(&graph, u);
            switches += result.stats.hybrid_switches;
            let err = metrics::abs_error(truth.single_source(u), &result.scores, u);
            assert!(err <= epsilon, "εa = {epsilon}, query {u}: abs error {err}");
        }
        assert!(switches > 0, "εa = {epsilon}: no group expanded randomized");
    }
}

/// Tightening εa must not worsen accuracy (Figure 4's tradeoff axis).
#[test]
fn error_shrinks_with_epsilon() {
    let graph = Dataset::As.generate(Scale::Ci);
    let truth = GroundTruth::compute_with_iterations(&graph, DECAY, 30);
    let queries = sample_query_nodes(&graph, 4, 5);
    let mut errors = Vec::new();
    for eps in [0.2, 0.1, 0.05] {
        let engine = ProbeSim::new(ProbeSimConfig::paper(eps).with_seed(7));
        let mut worst = 0.0f64;
        for &u in &queries {
            let result = engine.single_source(&graph, u);
            worst = worst.max(metrics::abs_error(
                truth.single_source(u),
                &result.scores,
                u,
            ));
        }
        errors.push(worst);
    }
    assert!(
        errors[2] <= errors[0] + 0.02,
        "eps=0.05 not better than eps=0.2: {errors:?}"
    );
}

/// Definition 2: every returned top-k node's true score is within εa of
/// the true i-th largest.
#[test]
fn top_k_guarantee() {
    let graph = Dataset::HepTh.generate(Scale::Ci);
    let truth = GroundTruth::compute_with_iterations(&graph, DECAY, 30);
    let epsilon = 0.08;
    let k = 20;
    let engine = ProbeSim::new(ProbeSimConfig::paper(epsilon).with_seed(11));
    for &u in &sample_query_nodes(&graph, 4, 23) {
        let returned = engine.top_k(&graph, u, k);
        let ideal = truth.top_k(u, k);
        for (i, &(v, _)) in returned.iter().enumerate() {
            let true_score = truth.score(u, v);
            let ith_best = ideal[i].1;
            assert!(
                true_score >= ith_best - epsilon * 1.25,
                "query {u} rank {i}: returned {v} with true score {true_score}, i-th best {ith_best}"
            );
        }
    }
}

/// The estimator must be unbiased: averaged over many independent seeds,
/// the estimate converges to the truth well inside the single-run bound.
#[test]
fn estimates_are_unbiased_across_seeds() {
    let graph = Dataset::HepTh.generate(Scale::Ci);
    let truth = GroundTruth::compute_with_iterations(&graph, DECAY, 30);
    let u = sample_query_nodes(&graph, 1, 31)[0];
    let n = probesim_graph::GraphView::num_nodes(&graph);
    let runs = 16;
    let mut mean = vec![0.0f64; n];
    for seed in 0..runs {
        let engine = ProbeSim::new(
            ProbeSimConfig::paper(0.2)
                .with_seed(seed)
                .with_num_walks(120),
        );
        let result = engine.single_source(&graph, u);
        for (m, s) in mean.iter_mut().zip(&result.scores) {
            *m += s / runs as f64;
        }
    }
    let err = metrics::abs_error(truth.single_source(u), &mean, u);
    assert!(err < 0.1, "averaged estimate still off by {err}");
}
