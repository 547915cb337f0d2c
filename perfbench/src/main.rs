//! Serving benchmark for the probesim workspace.
//!
//! One run:
//!
//! ```text
//! perfbench --workload <read_zipf|churn_ryw|commit_flood> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! builds its inputs from the seed, measures for `--seconds`, audits the
//! answers and prints, as its last line, one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics
//! untraced, the per-layer metrics with `--trace 1`. A traced run also
//! writes its spans next to the executable, under `perfbench-spans/`.
//!
//! The spread report runs every named workload (all by default) `k`
//! times, each run in its own process with the next seed, alternating
//! the workload order, and prints median, quartiles and relative spread
//! per end-to-end metric:
//!
//! ```text
//! perfbench --repeat <k> --seed <first> --seconds <s> [--workload <name>]...
//! ```

mod gen;
mod run;
mod stats;
mod trace;

use std::process::{Command, ExitCode};

use gen::Workload;
use stats::{median, parse_metrics, quartiles, result_json};

struct Args {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: u64,
    trace: bool,
    repeat: Option<usize>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workloads: Vec::new(),
        seed: 1,
        seconds: 10,
        trace: false,
        repeat: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                args.workloads
                    .push(Workload::parse(&name).ok_or(format!("unknown workload {name:?}"))?);
            }
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if args.seconds == 0 {
                    return Err("--seconds must be at least 1".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--repeat" => {
                let k: usize = value()?.parse().map_err(|e| format!("--repeat: {e}"))?;
                if k < 2 {
                    return Err("--repeat needs at least 2 runs".into());
                }
                args.repeat = Some(k);
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    match args.repeat {
        Some(k) => repeat(&args, k),
        None => match args.workloads.as_slice() {
            [workload] => single(*workload, &args),
            _ => {
                eprintln!("perfbench: a run needs exactly one --workload");
                ExitCode::from(2)
            }
        },
    }
}

fn single(workload: Workload, args: &Args) -> ExitCode {
    let mut tracer = args.trace.then(trace::Tracer::new);
    let outcome = run::run(workload, args.seed, args.seconds, tracer.as_mut());
    println!(
        "# {} seed {} inputs {:016x}",
        workload.name(),
        args.seed,
        outcome.fingerprint
    );
    if let Some(tracer) = &tracer {
        let path = std::env::current_exe()
            .ok()
            .and_then(|exe| exe.parent().map(|dir| dir.join("perfbench-spans")))
            .unwrap_or_else(|| "perfbench-spans".into())
            .join(format!("{}-{}.tsv", workload.name(), args.seed));
        match tracer.write(&path) {
            Ok(()) => println!("# spans {}", path.display()),
            Err(e) => eprintln!("perfbench: writing spans to {}: {e}", path.display()),
        }
    }
    let metrics = if args.trace {
        &outcome.per_layer
    } else {
        &outcome.end_to_end
    };
    for m in metrics {
        println!("# {:<34} {:>14.4} {}", m.name, m.value, m.unit);
    }
    for problem in &outcome.problems {
        eprintln!("perfbench: INCORRECT: {problem}");
    }
    println!(
        "{}",
        result_json(
            outcome.problems.is_empty(),
            outcome.attempted,
            outcome.failed,
            metrics
        )
    );
    ExitCode::SUCCESS
}

/// The spread report: `k` rounds, each running every workload once in
/// its own process (the order alternates between rounds), then median,
/// quartiles and `(q3 - q1) / median` per end-to-end metric.
fn repeat(args: &Args, k: usize) -> ExitCode {
    let workloads = if args.workloads.is_empty() {
        Workload::ALL.to_vec()
    } else {
        args.workloads.clone()
    };
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("perfbench: cannot locate own executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut results: Vec<Vec<(String, f64)>> = vec![Vec::new(); workloads.len()];
    let mut incorrect = 0;
    for round in 0..k {
        let seed = args.seed + round as u64;
        let mut order: Vec<usize> = (0..workloads.len()).collect();
        if round % 2 == 1 {
            order.reverse();
        }
        for w in order {
            let output = Command::new(&exe)
                .args(["--workload", workloads[w].name()])
                .args(["--seed", &seed.to_string()])
                .args(["--seconds", &args.seconds.to_string()])
                .args(["--trace", "0"])
                .output();
            let line = match &output {
                Ok(out) if out.status.success() => String::from_utf8_lossy(&out.stdout)
                    .lines()
                    .last()
                    .unwrap_or_default()
                    .to_string(),
                Ok(out) => {
                    eprintln!(
                        "perfbench: {} seed {seed} exited {}",
                        workloads[w].name(),
                        out.status
                    );
                    return ExitCode::FAILURE;
                }
                Err(e) => {
                    eprintln!("perfbench: spawning a run: {e}");
                    return ExitCode::FAILURE;
                }
            };
            if !line.contains("\"correct\": true") {
                incorrect += 1;
            }
            eprintln!("{} seed {seed}: {line}", workloads[w].name());
            results[w].extend(parse_metrics(&line));
        }
    }
    println!(
        "{:<14} {:<16} {:>12} {:>12} {:>12} {:>8}",
        "workload", "metric", "q1", "median", "q3", "spread"
    );
    for (w, values) in workloads.iter().zip(&results) {
        let mut names: Vec<&String> = values.iter().map(|(n, _)| n).collect();
        names.sort();
        names.dedup();
        for name in names {
            let series: Vec<f64> = values
                .iter()
                .filter(|(n, _)| n == name)
                .map(|&(_, v)| v)
                .collect();
            let [q1, _, q3] = quartiles(&series);
            let mid = median(&series);
            let spread = if mid != 0.0 { (q3 - q1) / mid } else { 0.0 };
            println!(
                "{:<14} {:<16} {:>12.4} {:>12.4} {:>12.4} {:>8.4}",
                w.name(),
                name,
                q1,
                mid,
                q3,
                spread
            );
        }
    }
    if incorrect > 0 {
        eprintln!("perfbench: {incorrect} runs reported incorrect output");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
