//! The `probesim-bench` driver: scenario selection, report emission and
//! the `--compare` regression gate.
//!
//! Lives in the library (the binary is a two-line wrapper) so the exit
//! behavior — in particular *nonzero on regression*, which CI depends on
//! — is covered by ordinary unit tests.

// Printing is this target's entire job: stdout is the user interface.
#![allow(clippy::print_stdout)]

use std::path::Path;

use probesim_datasets::Scale;

use crate::report::{
    baseline_json, compare, contrast_json, contrast_pairs, parse_baseline, CompareThresholds,
};
use crate::scenario::{catalog, find, run_scenario, scale_name, ScenarioSpec};

/// Usage text printed on flag errors.
pub const USAGE: &str = "usage:
  probesim-bench --list
  probesim-bench [--scenarios a,b,c] [--scale ci|laptop|paper] [--seed N]
                 [--out DIR] [--write-baseline FILE]
                 [--compare FILE] [--threshold F] [--work-threshold F]
                 [--contrast FILE] [--contrast-min PCT]

  --list                print the scenario catalog and exit
  --scenarios a,b,c     run only the named scenarios (default: all)
  --scale ci            dataset scale (default ci; laptop for real numbers)
  --seed N              RNG seed (default 2017)
  --out DIR             write one BENCH_<scenario>.json per scenario to DIR
  --write-baseline F    write all reports as a combined baseline file
  --compare F           diff this run against a baseline file; exit 1 when a
                        scenario regresses beyond the thresholds
  --threshold F         allowed fractional median-latency increase (default 1.0,
                        i.e. fail beyond 2x — wall clocks differ across machines)
  --work-threshold F    allowed fractional total-work increase (default 0.10 —
                        the work counters are deterministic, so this is tight;
                        *_fused scenarios are additionally capped at +5%)
  --contrast FILE       pair this run's <base>_fused/<base>_legacy scenarios
                        plus the explicit pairs (cached revisit streams vs
                        their uncached yardsticks), write a one-line JSON
                        summary (work_reduction_pct per pair) to FILE, and
                        exit 1 when a pair's deterministic work reduction
                        falls below its floor
  --contrast-min PCT    minimum percent work reduction every contrast pair
                        must deliver (default 25; pairs with a stricter
                        built-in floor gate at whichever is larger)";

/// Parsed driver options.
#[derive(Debug, Clone)]
pub struct Options {
    /// Print the catalog instead of running.
    pub list: bool,
    /// Scenario subset (None = full catalog).
    pub scenarios: Option<Vec<ScenarioSpec>>,
    /// Dataset scale.
    pub scale: Scale,
    /// RNG seed.
    pub seed: u64,
    /// Directory for per-scenario `BENCH_*.json` files.
    pub out_dir: Option<String>,
    /// Path for a combined baseline file.
    pub write_baseline: Option<String>,
    /// Baseline to compare against.
    pub compare: Option<String>,
    /// Comparator thresholds.
    pub thresholds: CompareThresholds,
    /// Path for the fused-vs-legacy contrast summary.
    pub contrast: Option<String>,
    /// Minimum percent work reduction every contrast pair must show.
    pub contrast_min: f64,
}

impl Options {
    /// Parses argv (without the program name).
    pub fn parse(args: &[String]) -> Result<Options, String> {
        let mut options = Options {
            list: false,
            scenarios: None,
            scale: Scale::Ci,
            seed: 2017,
            out_dir: None,
            write_baseline: None,
            compare: None,
            thresholds: CompareThresholds::default(),
            contrast: None,
            contrast_min: 25.0,
        };
        let mut i = 0;
        while i < args.len() {
            let flag = args[i].as_str();
            let value = |name: &str| -> Result<String, String> {
                args.get(i + 1)
                    .cloned()
                    .ok_or_else(|| format!("{name} expects a value"))
            };
            match flag {
                "--list" => {
                    options.list = true;
                    i += 1;
                }
                "--scenarios" => {
                    let list = value("--scenarios")?;
                    let specs = list
                        .split(',')
                        .map(|name| {
                            find(name.trim()).ok_or_else(|| {
                                format!(
                                    "unknown scenario {:?} (see --list for the catalog)",
                                    name.trim()
                                )
                            })
                        })
                        .collect::<Result<Vec<_>, _>>()?;
                    options.scenarios = Some(specs);
                    i += 2;
                }
                "--scale" => {
                    options.scale = match value("--scale")?.as_str() {
                        "ci" => Scale::Ci,
                        "laptop" => Scale::Laptop,
                        "paper" => Scale::Paper,
                        other => {
                            return Err(format!("--scale expects ci|laptop|paper, got {other:?}"))
                        }
                    };
                    i += 2;
                }
                "--seed" => {
                    options.seed = value("--seed")?
                        .parse()
                        .map_err(|_| "--seed expects a number".to_string())?;
                    i += 2;
                }
                "--out" => {
                    options.out_dir = Some(value("--out")?);
                    i += 2;
                }
                "--write-baseline" => {
                    options.write_baseline = Some(value("--write-baseline")?);
                    i += 2;
                }
                "--compare" => {
                    options.compare = Some(value("--compare")?);
                    i += 2;
                }
                "--threshold" => {
                    options.thresholds.latency = value("--threshold")?
                        .parse()
                        .map_err(|_| "--threshold expects a number".to_string())?;
                    i += 2;
                }
                "--work-threshold" => {
                    options.thresholds.work = value("--work-threshold")?
                        .parse()
                        .map_err(|_| "--work-threshold expects a number".to_string())?;
                    i += 2;
                }
                "--contrast" => {
                    options.contrast = Some(value("--contrast")?);
                    i += 2;
                }
                "--contrast-min" => {
                    options.contrast_min = value("--contrast-min")?
                        .parse()
                        .map_err(|_| "--contrast-min expects a number".to_string())?;
                    i += 2;
                }
                other => return Err(format!("unknown flag {other:?}")),
            }
        }
        Ok(options)
    }
}

/// Runs the driver. Returns the process exit code: 0 on success, 1 when
/// `--compare` found a regression. Flag/IO problems come back as `Err`.
pub fn run(args: &[String]) -> Result<i32, String> {
    let options = Options::parse(args)?;
    if options.list {
        print_catalog();
        return Ok(0);
    }

    let specs = options.scenarios.clone().unwrap_or_else(catalog);
    let mut reports = Vec::with_capacity(specs.len());
    println!(
        "# probesim-bench: {} scenario(s), scale={}, seed={}",
        specs.len(),
        scale_name(options.scale),
        options.seed
    );
    println!(
        "{:<28} {:>8} {:>12} {:>12} {:>8} {:>12} {:>14}",
        "scenario", "queries", "q_median", "q_p95", "updates", "u_median", "total_work"
    );
    for spec in &specs {
        let report = run_scenario(spec, options.scale, options.seed);
        println!(
            "{:<28} {:>8} {:>12} {:>12} {:>8} {:>12} {:>14}",
            report.scenario,
            report.queries,
            format_secs(report.query_latency.median),
            format_secs(report.query_latency.p95),
            report.updates,
            report
                .update_latency
                .map_or_else(|| "-".to_string(), |u| format_secs(u.median)),
            report.total_work,
        );
        reports.push(report);
    }

    if let Some(dir) = &options.out_dir {
        std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {dir}: {e}"))?;
        for report in &reports {
            let path = Path::new(dir).join(format!("BENCH_{}.json", report.scenario));
            let mut text = report.to_json().to_string();
            text.push('\n');
            std::fs::write(&path, text)
                .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        }
        println!("wrote {} BENCH_*.json file(s) to {dir}", reports.len());
    }
    if let Some(path) = &options.write_baseline {
        let mut text = baseline_json(&reports).to_string();
        text.push('\n');
        std::fs::write(path, text).map_err(|e| format!("cannot write {path}: {e}"))?;
        println!(
            "wrote baseline with {} scenario(s) to {path}",
            reports.len()
        );
    }

    let mut failed = false;
    if let Some(path) = &options.contrast {
        let pairs = contrast_pairs(&reports);
        // A contrast gate with nothing to gate must fail, not pass: a
        // scenario rename or a narrowed --scenarios selection would
        // otherwise switch the fused-regression check off silently.
        if pairs.is_empty() {
            return Err(format!(
                "--contrast {path}: no <base>_fused/<base>_legacy scenario pair in this run \
                 (include both halves of a pair, e.g. probe_static_fused,probe_static_legacy)"
            ));
        }
        let mut text = contrast_json(&pairs).to_string();
        text.push('\n');
        std::fs::write(path, text).map_err(|e| format!("cannot write {path}: {e}"))?;
        println!();
        println!(
            "# engine contrast ({} pair(s), minimum {:.0}% work reduction)",
            pairs.len(),
            options.contrast_min
        );
        for pair in &pairs {
            // A pair-specific floor can only tighten the CLI-wide one:
            // whichever is larger gates.
            let floor = pair
                .floor_pct
                .map_or(options.contrast_min, |f| f.max(options.contrast_min));
            let ok = pair.work_reduction_pct() >= floor;
            println!(
                "{} {:<22} work -{:.1}% ({} -> {}, floor {:.0}%), edges_expanded -{:.1}%",
                if ok { "PASS      " } else { "REGRESSION" },
                pair.base,
                pair.work_reduction_pct(),
                pair.legacy_total_work,
                pair.fused_total_work,
                floor,
                pair.edges_reduction_pct(),
            );
            if !ok {
                failed = true;
            }
        }
        if failed {
            println!("work reduction below the floor — failing the contrast gate");
        }
    }

    if let Some(path) = &options.compare {
        let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        let baseline = parse_baseline(&text).map_err(|e| format!("{path}: {e}"))?;
        let verdicts = compare(&baseline, &reports, options.thresholds);
        println!();
        println!(
            "# compare against {path} (latency +{:.0}%, work +{:.0}%)",
            100.0 * options.thresholds.latency,
            100.0 * options.thresholds.work
        );
        for verdict in &verdicts {
            println!("{verdict}");
        }
        let regressions = verdicts.iter().filter(|v| v.is_regression()).count();
        if regressions > 0 {
            println!("{regressions} regression(s) — failing the perf gate");
            failed = true;
        } else {
            println!("perf gate passed");
        }
    }
    Ok(if failed { 1 } else { 0 })
}

fn print_catalog() {
    let specs = catalog();
    println!("# scenario catalog ({} scenarios)", specs.len());
    for spec in specs {
        println!(
            "{:<28} [{}] {}",
            spec.name,
            spec.kind_name(),
            spec.description
        );
    }
}

fn format_secs(secs: f64) -> String {
    if secs < 1e-3 {
        format!("{:.1}us", secs * 1e6)
    } else if secs < 1.0 {
        format!("{:.2}ms", secs * 1e3)
    } else {
        format!("{secs:.2}s")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parse_accepts_the_full_flag_surface() {
        let options = Options::parse(&argv(&[
            "--scenarios",
            "static_top_k,dynamic_read_heavy",
            "--scale",
            "laptop",
            "--seed",
            "9",
            "--out",
            "bench-out",
            "--compare",
            "bench/baseline.json",
            "--threshold",
            "0.5",
            "--work-threshold",
            "0.2",
            "--contrast",
            "contrast.json",
            "--contrast-min",
            "30",
        ]))
        .unwrap();
        assert_eq!(options.scenarios.as_ref().unwrap().len(), 2);
        assert_eq!(options.scale, Scale::Laptop);
        assert_eq!(options.seed, 9);
        assert_eq!(options.out_dir.as_deref(), Some("bench-out"));
        assert_eq!(options.compare.as_deref(), Some("bench/baseline.json"));
        assert_eq!(options.thresholds.latency, 0.5);
        assert_eq!(options.thresholds.work, 0.2);
        assert_eq!(options.contrast.as_deref(), Some("contrast.json"));
        assert_eq!(options.contrast_min, 30.0);
    }

    #[test]
    fn parse_rejects_unknown_scenarios_and_flags() {
        assert!(Options::parse(&argv(&["--scenarios", "nope"]))
            .unwrap_err()
            .contains("unknown scenario"));
        assert!(Options::parse(&argv(&["--wat"]))
            .unwrap_err()
            .contains("unknown flag"));
        assert!(Options::parse(&argv(&["--scale", "huge"]))
            .unwrap_err()
            .contains("--scale"));
        assert!(Options::parse(&argv(&["--seed"]))
            .unwrap_err()
            .contains("expects a value"));
    }

    #[test]
    fn list_mode_exits_zero_without_running() {
        assert_eq!(run(&argv(&["--list"])).unwrap(), 0);
    }

    #[test]
    fn contrast_without_a_pair_is_an_error_not_a_silent_pass() {
        // `static_threshold` is the cheapest scenario; a --contrast run
        // over it alone has no fused/legacy pair and must error out
        // instead of writing an empty summary and exiting 0.
        let err = run(&argv(&[
            "--scenarios",
            "static_threshold",
            "--contrast",
            "/tmp/probesim-contrast-none.json",
        ]))
        .unwrap_err();
        assert!(err.contains("no <base>_fused/<base>_legacy"), "{err}");
        assert!(!std::path::Path::new("/tmp/probesim-contrast-none.json").exists());
    }
}
