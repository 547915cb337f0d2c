//! Real-time SimRank on a dynamic graph — the headline scenario of the
//! paper: index-free queries interleaved with a stream of edge updates.
//!
//! The example maintains a live `GraphStore` under a stream of edge
//! insertions and deletions, answering top-k queries between batches with
//! two engines:
//!
//! * **ProbeSim** — nothing to maintain; every query reads the current
//!   graph through a fresh `QuerySession` and is immediately consistent.
//!   (A session borrows the graph, so the borrow checker itself enforces
//!   the query/update phases of the stream.)
//! * **TSF** — its one-way-graph index is maintained incrementally on each
//!   update (the best known index-based approach for dynamic graphs).
//!
//! ```text
//! cargo run --release --example dynamic_stream
//! ```

// Printing is this target's entire job: stdout is the user interface.
#![allow(clippy::print_stdout)]

use probesim::prelude::*;
use probesim_datasets::gens;
use probesim_eval::timed;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn main() -> Result<(), QueryError> {
    // Start from a mid-size power-law graph and evolve it.
    let initial = gens::chung_lu(5_000, 40_000, 2.3, 3);
    let mut graph = GraphStore::from_edges(initial.num_nodes(), &initial.edges());
    let n = graph.num_nodes() as NodeId;

    let probesim = ProbeSim::new(ProbeSimConfig::paper(0.1).with_seed(5));
    let (mut tsf, tsf_build_secs) = timed(|| {
        Tsf::build(
            &graph,
            TsfConfig {
                decay: 0.6,
                rg: 100,
                rq: 20,
                depth: 10,
                seed: 6,
            },
        )
    });
    println!(
        "initial graph: n={} m={} | TSF index built in {:.2}s ({} MiB)",
        graph.num_nodes(),
        graph.num_edges(),
        tsf_build_secs,
        tsf.index_bytes() >> 20
    );
    println!("ProbeSim needs no build step — it is index-free.\n");

    let mut rng = StdRng::seed_from_u64(8);
    let query_node = loop {
        let candidate = rng.gen_range(0..n);
        if graph.has_in_edges(candidate) {
            break candidate;
        }
    };

    let batches = 5;
    let updates_per_batch = 2_000;
    for batch in 1..=batches {
        // Apply a batch of random updates (75% insertions, 25% deletions).
        let (_, update_secs) = timed(|| {
            let mut applied = 0;
            while applied < updates_per_batch {
                let u = rng.gen_range(0..n);
                let v = rng.gen_range(0..n);
                if u == v {
                    continue;
                }
                if rng.gen::<f64>() < 0.75 {
                    if graph.insert_edge(u, v) {
                        tsf.on_edge_inserted(&graph, u, v, &mut rng);
                        applied += 1;
                    }
                } else if graph.remove_edge(u, v) {
                    tsf.on_edge_removed(&graph, u, v, &mut rng);
                    applied += 1;
                }
            }
        });

        // Query both engines against the *current* graph. The session is
        // scoped so its borrow ends before the next update batch.
        let (ps_output, ps_secs) = {
            let mut session = probesim.session(&graph);
            let (out, secs) = timed(|| {
                session.run(Query::TopK {
                    node: query_node,
                    k: 5,
                })
            });
            (out?, secs)
        };
        let ps_top = ps_output.ranking();
        let (tsf_top, tsf_secs) = timed(|| tsf.top_k(&graph, query_node, 5));
        let overlap = ps_top
            .iter()
            .filter(|(v, _)| tsf_top.iter().any(|(w, _)| w == v))
            .count();
        println!(
            "batch {batch}: {updates_per_batch} updates in {:.2}s | m = {} | \
             ProbeSim query {:.3}s ({} nodes touched), TSF query {:.3}s, top-5 overlap {overlap}/5",
            update_secs,
            graph.num_edges(),
            ps_secs,
            ps_output.scores.len(),
            tsf_secs
        );
        println!(
            "  ProbeSim top-5: {:?}",
            ps_top.iter().map(|&(v, _)| v).collect::<Vec<_>>()
        );
    }

    println!(
        "\nNote: ProbeSim's answers always reflect the live graph; TSF's index \
         stays consistent only because every update paid a maintenance cost."
    );
    Ok(())
}
