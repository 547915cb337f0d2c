//! `probesim-bench` — the workload scenario runner.
//!
//! Executes named, seeded scenarios (static query mixes, batch modes,
//! session-reuse streams, and update-interleaved dynamic workloads on a
//! live `GraphStore`), prints a summary table, writes machine-readable
//! `BENCH_<scenario>.json` reports, and gates against a committed
//! baseline:
//!
//! ```text
//! probesim-bench --list
//! probesim-bench --scale ci --out bench-out --compare bench/baseline.json
//! probesim-bench --write-baseline bench/baseline.json
//! ```
//!
//! Exit status: 0 on success, 1 when `--compare` finds a regression past
//! the thresholds, 2 on usage or I/O errors. See `probesim_bench::cli`
//! for the full flag reference and `probesim_bench::report` for the JSON
//! schema.

use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match probesim_bench::cli::run(&args) {
        Ok(code) => ExitCode::from(code as u8),
        Err(message) => {
            eprintln!("error: {message}");
            eprintln!();
            eprintln!("{}", probesim_bench::cli::USAGE);
            ExitCode::from(2)
        }
    }
}
