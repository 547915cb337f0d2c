#![warn(missing_docs)]
//! # probesim-bench
//!
//! Benchmark harness: the workload **scenario engine** behind the
//! `probesim-bench` runner, plus one experiment-regeneration binary per
//! table and figure of the paper's evaluation (Section 6).
//!
//! ## The scenario engine
//!
//! * [`scenario`] — named, seeded, self-describing workloads covering
//!   static queries, batch execution, session reuse, update-interleaved
//!   and concurrent streams on the versioned `GraphStore`, and the
//!   `QueryService` serving facade (mixed-priority deadline mix, result
//!   cache repeats); shared timing primitives ([`scenario::Latencies`],
//!   [`scenario::time_per_item`]) used by every binary in this crate.
//! * [`report`] — JSON serialization (through `probesim-json`) of scenario results
//!   (`BENCH_<scenario>.json`), baseline files, and the regression
//!   comparator the CI `perf-smoke` job gates on.
//! * [`cli`] — the `probesim-bench` driver (`--list`, `--out`,
//!   `--compare`, `--write-baseline`).
//!
//! ## Paper-reproduction binaries
//!
//! | Paper artifact | Binary | What it prints |
//! |---|---|---|
//! | Table 2 | `table2_toy` | exact + estimated `s(a, ·)` on the Figure 1 toy graph |
//! | Figure 4 | `fig4_abs_error` | AbsError vs. avg query time, 4 small graphs × 6+ algorithm points |
//! | Figures 5–7 | `fig5_7_topk_small` | Precision@k / NDCG@k / τk vs. query time on the small graphs |
//! | Table 4 | `table4_large` | avg query time and index space on the large graphs |
//! | Figures 8–10 | `fig8_10_pooling` | pooled Precision@k / NDCG@k / τk on the large graphs |
//! | (ours) | `ablation_opts` | effect of each Section 4 optimization |
//!
//! All binaries accept:
//!
//! ```text
//! --scale ci|laptop       dataset scale (default: ci for a fast run)
//! --queries N             query nodes per dataset
//! --k N                   top-k size (default 50, the paper's setting)
//! --seed N                RNG seed
//! --datasets a,b,c        restrict to named datasets (paper names)
//! ```

pub mod cli;
pub mod report;
pub mod scenario;

pub use report::{compare, CompareThresholds, Json, ScenarioReport, Verdict};
pub use scenario::{catalog, run_scenario, time_per_item, Latencies, ScenarioSpec};

use probesim_datasets::{Dataset, Scale};
use probesim_eval::runner::timed;
use probesim_graph::{CsrGraph, DegreeStats, GraphView};

/// Parsed command-line options shared by the harness binaries.
#[derive(Debug, Clone)]
pub struct HarnessArgs {
    /// Dataset scale.
    pub scale: Scale,
    /// Query nodes per dataset.
    pub queries: usize,
    /// Top-k size.
    pub k: usize,
    /// RNG seed.
    pub seed: u64,
    /// Datasets to run (None = the binary's default set).
    pub datasets: Option<Vec<Dataset>>,
    /// Memory budget for index-based methods; indexes whose estimated
    /// footprint exceeds it are reported as `N/A`, mirroring the paper's
    /// out-of-memory entries.
    pub mem_budget_bytes: usize,
}

impl HarnessArgs {
    /// Parses `std::env::args`, with a binary-specific default query count.
    pub fn parse(default_queries: usize) -> Self {
        let mut args = HarnessArgs {
            scale: Scale::Ci,
            queries: default_queries,
            k: 50,
            seed: 2017,
            datasets: None,
            mem_budget_bytes: 8 << 30,
        };
        let argv: Vec<String> = std::env::args().collect();
        let mut i = 1;
        while i < argv.len() {
            let flag = argv[i].as_str();
            let value = argv.get(i + 1);
            match flag {
                "--scale" => {
                    args.scale = match value.map(String::as_str) {
                        Some("ci") => Scale::Ci,
                        Some("laptop") => Scale::Laptop,
                        Some("paper") => Scale::Paper,
                        other => panic!("--scale expects ci|laptop|paper, got {other:?}"),
                    };
                    i += 2;
                }
                "--queries" => {
                    args.queries = value
                        .and_then(|v| v.parse().ok())
                        .unwrap_or_else(|| panic!("--queries expects a number"));
                    i += 2;
                }
                "--k" => {
                    args.k = value
                        .and_then(|v| v.parse().ok())
                        .unwrap_or_else(|| panic!("--k expects a number"));
                    i += 2;
                }
                "--seed" => {
                    args.seed = value
                        .and_then(|v| v.parse().ok())
                        .unwrap_or_else(|| panic!("--seed expects a number"));
                    i += 2;
                }
                "--datasets" => {
                    let list = value.unwrap_or_else(|| panic!("--datasets expects names"));
                    args.datasets = Some(
                        list.split(',')
                            .map(|name| {
                                Dataset::parse(name)
                                    .unwrap_or_else(|| panic!("unknown dataset {name:?}"))
                            })
                            .collect(),
                    );
                    i += 2;
                }
                "--mem-budget-gb" => {
                    let gb: usize = value
                        .and_then(|v| v.parse().ok())
                        .unwrap_or_else(|| panic!("--mem-budget-gb expects a number"));
                    args.mem_budget_bytes = gb << 30;
                    i += 2;
                }
                other => panic!("unknown flag {other:?} (see crate docs for usage)"),
            }
        }
        args
    }

    /// The dataset list to run: the explicit `--datasets` selection or the
    /// given default.
    pub fn datasets_or(&self, default: &[Dataset]) -> Vec<Dataset> {
        self.datasets.clone().unwrap_or_else(|| default.to_vec())
    }

    /// Scale name for table headers.
    pub fn scale_name(&self) -> &'static str {
        match self.scale {
            Scale::Ci => "ci",
            Scale::Laptop => "laptop",
            Scale::Paper => "paper",
        }
    }
}

/// Generates a dataset, printing its vitals (Table 3-style line).
// Progress line from dataset generation; every caller is a CLI target.
#[allow(clippy::print_stdout)]
pub fn load_dataset(dataset: Dataset, scale: Scale) -> CsrGraph {
    let (graph, secs) = timed(|| dataset.generate(scale));
    let stats = DegreeStats::compute(&graph);
    println!(
        "## dataset {}: n={} m={} mean_deg={:.1} max_in={} zero_in={:.0}% gini={:.2} (generated in {:.1}s)",
        dataset.name(),
        graph.num_nodes(),
        graph.num_edges(),
        stats.mean_degree,
        stats.max_in_degree,
        100.0 * stats.zero_in_degree as f64 / graph.num_nodes().max(1) as f64,
        stats.in_degree_gini,
        secs
    );
    graph
}

/// Prints a table row with fixed-width columns.
// Table rendering for the bench binaries; stdout is the report medium.
#[allow(clippy::print_stdout)]
pub fn print_row(cells: &[String], widths: &[usize]) {
    let mut line = String::new();
    for (cell, &w) in cells.iter().zip(widths) {
        line.push_str(&format!("{cell:<w$}  "));
    }
    println!("{}", line.trim_end());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn datasets_or_prefers_explicit_selection() {
        let mut args = HarnessArgs {
            scale: Scale::Ci,
            queries: 5,
            k: 50,
            seed: 1,
            datasets: None,
            mem_budget_bytes: 1 << 30,
        };
        assert_eq!(args.datasets_or(&Dataset::SMALL), Dataset::SMALL.to_vec());
        args.datasets = Some(vec![Dataset::As]);
        assert_eq!(args.datasets_or(&Dataset::SMALL), vec![Dataset::As]);
    }

    #[test]
    fn load_dataset_produces_nonempty_graph() {
        let g = load_dataset(Dataset::HepTh, Scale::Ci);
        assert!(g.num_nodes() > 0 && g.num_edges() > 0);
    }
}
