//! Parallel query execution for experiment sweeps.
//!
//! A figure regeneration runs hundreds of independent `(algorithm, query)`
//! cells; [`run_queries`] fans the per-query work of one algorithm out
//! over a small pool of scoped threads (`std::thread::scope` — no
//! `'static` bounds needed, so the graph is borrowed, not cloned) and
//! returns the per-query results in input order.
//!
//! Per-query wall-clock numbers remain meaningful because each query is
//! timed inside its worker; only the *sweep* is parallel, never one query.
//!
//! The claim-counter pool itself lives in [`probesim_core::par`] — the
//! same primitive backs `ProbeSim::par_batch`, which additionally reuses
//! a per-thread `QuerySession` so worker-local scratch memory is
//! allocated once per thread instead of once per query.

use probesim_graph::NodeId;

/// Runs `f(query)` for every query node on `threads` worker threads,
/// returning results in the order of `queries`.
///
/// `f` must be `Sync` (it is shared across workers) — engines with
/// interior mutability should wrap state accordingly; the stateless
/// ProbeSim/TopSim engines qualify as-is. Thin wrapper over
/// [`probesim_core::par::ordered_map_with`], the workspace's one
/// work-stealing fan-out primitive.
pub fn run_queries<T, F>(queries: &[NodeId], threads: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(NodeId) -> T + Sync,
{
    probesim_core::par::ordered_map_with(queries.len(), threads, || (), |_, i| f(queries[i]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GroundTruth;
    use probesim_core::{ProbeSim, ProbeSimConfig};
    use probesim_graph::toy::{toy_graph, TOY_DECAY};

    #[test]
    fn preserves_input_order() {
        let queries: Vec<NodeId> = (0..50).collect();
        let out = run_queries(&queries, 4, |u| u * 2);
        assert_eq!(out, queries.iter().map(|&u| u * 2).collect::<Vec<_>>());
    }

    #[test]
    fn single_thread_path_matches_parallel() {
        let queries: Vec<NodeId> = (0..20).collect();
        let serial = run_queries(&queries, 1, |u| u + 1);
        let parallel = run_queries(&queries, 4, |u| u + 1);
        assert_eq!(serial, parallel);
    }

    #[test]
    fn empty_queries_is_fine() {
        let out: Vec<u32> = run_queries(&[], 4, |u| u);
        assert!(out.is_empty());
    }

    #[test]
    fn probesim_results_identical_serial_and_parallel() {
        // The engine derives per-query RNG seeds, so execution order must
        // not change any estimate.
        let g = toy_graph();
        let engine = ProbeSim::new(ProbeSimConfig::new(TOY_DECAY, 0.1, 0.01).with_seed(3));
        let queries: Vec<NodeId> = (0..8).collect();
        let serial = run_queries(&queries, 1, |u| engine.single_source(&g, u).scores);
        let parallel = run_queries(&queries, 4, |u| engine.single_source(&g, u).scores);
        assert_eq!(serial, parallel);
    }

    #[test]
    fn parallel_ground_truth_comparison_works() {
        // End-to-end sanity: parallel sweep + shared oracle borrow.
        let g = toy_graph();
        let truth = GroundTruth::compute(&g, TOY_DECAY);
        let engine = ProbeSim::new(ProbeSimConfig::new(TOY_DECAY, 0.1, 0.01).with_seed(5));
        let queries: Vec<NodeId> = (0..8).collect();
        let errors = run_queries(&queries, 2, |u| {
            let est = engine.single_source(&g, u);
            crate::metrics::abs_error(truth.single_source(u), &est.scores, u)
        });
        assert!(errors.iter().all(|&e| e <= 0.1 * 1.3));
    }

    #[test]
    fn owned_snapshot_sweep_matches_borrowed_csr_sweep() {
        use probesim_core::Query;
        use probesim_graph::GraphStore;
        // The runner accepts snapshots: every query owns a version-pinned
        // clone, and the sweep is bit-identical to the borrowed-CSR path.
        let g = toy_graph();
        let store = GraphStore::from_view(&g);
        let snapshot = store.snapshot();
        let engine = ProbeSim::new(ProbeSimConfig::new(TOY_DECAY, 0.1, 0.01).with_seed(9));
        let queries: Vec<NodeId> = (0..8).collect();
        let borrowed = run_queries(&queries, 4, |u| {
            engine
                .session(&g)
                .run(Query::SingleSource { node: u })
                .unwrap()
                .scores
        });
        let owned = run_queries(&queries, 4, |u| {
            engine
                .session(snapshot.clone())
                .run(Query::SingleSource { node: u })
                .unwrap()
                .scores
        });
        assert_eq!(borrowed, owned);
    }
}
