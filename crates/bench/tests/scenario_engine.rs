//! End-to-end tests for the scenario engine and the `probesim-bench`
//! driver: catalog size, schema-stable report emission, and — the
//! property CI depends on — a nonzero exit when `--compare` meets an
//! injected regression.

use probesim_bench::cli;
use probesim_bench::report::{parse_baseline, Json, ScenarioReport, SCHEMA_VERSION};
use probesim_bench::scenario::{catalog, find, run_scenario};
use probesim_datasets::Scale;

fn argv(args: &[&str]) -> Vec<String> {
    args.iter().map(|s| s.to_string()).collect()
}

/// A scratch directory unique to this test process.
fn scratch_dir(tag: &str) -> std::path::PathBuf {
    let dir =
        std::env::temp_dir().join(format!("probesim_bench_test_{tag}_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

#[test]
fn catalog_names_enough_scenarios_including_dynamic_ones() {
    let specs = catalog();
    assert!(
        specs.len() >= 8,
        "--list must name >= 8 scenarios, got {}",
        specs.len()
    );
    let dynamic: Vec<&str> = specs
        .iter()
        .filter(|s| s.is_dynamic())
        .map(|s| s.name)
        .collect();
    assert!(
        dynamic.len() >= 2,
        "need >= 2 update-interleaved dynamic workloads, got {dynamic:?}"
    );
}

#[test]
fn out_emits_schema_stable_bench_json() {
    let dir = scratch_dir("out");
    let fast = "static_threshold,session_reuse_stream";
    let code = cli::run(&argv(&[
        "--scenarios",
        fast,
        "--scale",
        "ci",
        "--seed",
        "11",
        "--out",
        dir.to_str().unwrap(),
    ]))
    .expect("driver runs");
    assert_eq!(code, 0);

    for name in fast.split(',') {
        let path = dir.join(format!("BENCH_{name}.json"));
        let text = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("missing {}: {e}", path.display()));
        let value = Json::parse(&text).expect("emitted file is valid JSON");
        // Schema-stable: fixed version stamp, fixed top-level key order.
        assert_eq!(
            value.get("schema_version").and_then(Json::as_f64),
            Some(SCHEMA_VERSION as f64)
        );
        assert_eq!(value.get("scenario").and_then(Json::as_str), Some(name));
        let Json::Obj(fields) = &value else {
            panic!("report root must be an object")
        };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            [
                "schema_version",
                "scenario",
                "description",
                "kind",
                "seed",
                "scale",
                "graph",
                "config",
                "workload",
                "query_latency_secs",
                "query_stats",
                "total_work",
            ],
            "top-level key order changed — that's a schema break; bump SCHEMA_VERSION"
        );
        // And it round-trips through the reader `--compare` uses.
        let report = ScenarioReport::from_json(&value).expect("readable report");
        assert_eq!(report.scenario, name);
        assert!(report.query_latency.count > 0);
        assert!(report.total_work > 0);
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn dynamic_reports_carry_update_latencies() {
    let spec = find("dynamic_read_heavy").unwrap();
    let report = run_scenario(&spec, Scale::Ci, 5);
    let text = report.to_json().to_string();
    let value = Json::parse(&text).unwrap();
    assert_eq!(value.get("kind").and_then(Json::as_str), Some("dynamic"));
    assert!(
        value.get("update_latency_secs").is_some(),
        "dynamic reports must include update latencies"
    );
    assert!(report.updates > 0);
}

#[test]
fn compare_exits_nonzero_on_an_injected_regression() {
    let dir = scratch_dir("compare");
    let scenario = "static_threshold";
    let baseline_path = dir.join("baseline.json");

    // Write an honest baseline for one fast scenario...
    let code = cli::run(&argv(&[
        "--scenarios",
        scenario,
        "--scale",
        "ci",
        "--write-baseline",
        baseline_path.to_str().unwrap(),
    ]))
    .expect("baseline run");
    assert_eq!(code, 0);

    // ...a self-compare passes (identical seed => identical work, and the
    // latency threshold tolerates run-to-run noise)...
    let code = cli::run(&argv(&[
        "--scenarios",
        scenario,
        "--scale",
        "ci",
        "--compare",
        baseline_path.to_str().unwrap(),
    ]))
    .expect("self-compare");
    assert_eq!(code, 0, "self-compare must pass the gate");

    // ...then corrupt the baseline so the current run looks like a
    // regression on the deterministic work signal, and the gate must
    // exit nonzero.
    let text = std::fs::read_to_string(&baseline_path).unwrap();
    let honest = parse_baseline(&text).unwrap();
    let real_work = honest[0].total_work;
    assert!(real_work > 0);
    let doctored = text.replace(
        &format!("\"total_work\": {real_work}"),
        &format!("\"total_work\": {}", real_work / 2),
    );
    assert_ne!(doctored, text, "injection must change the baseline");
    std::fs::write(&baseline_path, doctored).unwrap();

    let code = cli::run(&argv(&[
        "--scenarios",
        scenario,
        "--scale",
        "ci",
        "--compare",
        baseline_path.to_str().unwrap(),
    ]))
    .expect("regression compare");
    assert_ne!(code, 0, "injected regression must fail the perf gate");
    assert_eq!(code, 1, "regressions exit with code 1 specifically");

    // A loosened work threshold lets the same diff pass again — the
    // threshold flag is live.
    let code = cli::run(&argv(&[
        "--scenarios",
        scenario,
        "--scale",
        "ci",
        "--compare",
        baseline_path.to_str().unwrap(),
        "--work-threshold",
        "2.0",
    ]))
    .expect("loose compare");
    assert_eq!(code, 0);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn compare_against_missing_or_malformed_baseline_is_an_error() {
    assert!(cli::run(&argv(&[
        "--scenarios",
        "static_threshold",
        "--compare",
        "/nonexistent/baseline.json",
    ]))
    .is_err());

    let dir = scratch_dir("badbase");
    let path = dir.join("bad.json");
    std::fs::write(&path, "{not json").unwrap();
    assert!(cli::run(&argv(&[
        "--scenarios",
        "static_threshold",
        "--compare",
        path.to_str().unwrap(),
    ]))
    .is_err());
    std::fs::remove_dir_all(&dir).ok();
}
