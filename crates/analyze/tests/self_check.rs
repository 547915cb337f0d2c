//! Self-check: the analyzer run against its own live workspace, plus
//! end-to-end CLI tests that seed real violations into a throwaway
//! mini-workspace and drive `--compare` / `--write-baseline` through
//! the same code path the CI gate uses.

use std::fs;
use std::path::{Path, PathBuf};

use probesim_analyze::cli;
use probesim_analyze::run_analyses;
use probesim_analyze::workspace::Workspace;

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// The shipped tree plus the committed baseline must compare clean —
/// exactly what the `static-analysis` CI job runs.
#[test]
fn live_workspace_is_clean_against_the_committed_baseline() {
    let root = repo_root();
    let baseline = root.join("analyze/baseline.json");
    assert!(
        baseline.exists(),
        "analyze/baseline.json must be committed next to the workspace"
    );
    let args: Vec<String> = [
        "--root",
        root.to_str().unwrap(),
        "--compare",
        baseline.to_str().unwrap(),
        "--quiet",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    let code = cli::run(&args).expect("invariant: the live tree parses");
    assert_eq!(code, 0, "live tree regressed against analyze/baseline.json");
}

/// The committed baseline must stay an honest ratchet: bounded total,
/// and no allowance for rules the tree no longer violates.
#[test]
fn committed_baseline_is_bounded_and_has_no_dead_allowances() {
    let root = repo_root();
    let text = fs::read_to_string(root.join("analyze/baseline.json")).unwrap();
    let baseline = probesim_analyze::report::parse_baseline(&text).unwrap();
    let total: usize = baseline.entries.values().sum();
    assert!(total < 120, "panic-surface baseline crept up to {total}");
    let ws = Workspace::load(&root).unwrap();
    let report = run_analyses(&ws);
    let live = report.counts_by_rule_file();
    for ((rule, file), allowed) in &baseline.entries {
        let found = live
            .get(&(rule.clone(), file.clone()))
            .copied()
            .unwrap_or(0);
        assert!(
            found >= *allowed,
            "dead allowance: baseline grants {allowed} for ({rule}, {file}) but the tree \
             has only {found} — run --write-baseline to ratchet down"
        );
    }
}

/// The documented intended order and the real serving-path lock edges
/// must both be present in the report's lock-order section.
#[test]
fn lock_order_section_documents_the_serving_path() {
    let ws = Workspace::load(&repo_root()).unwrap();
    let report = run_analyses(&ws);
    let section = &report.lock_order;
    assert_eq!(
        section.intended,
        vec![
            "fleet::registry",
            "fleet::records",
            "fleet::seat",
            "fleet::checkpoint",
            "service::state",
            "service::store",
            "service::inner",
            "service::published"
        ]
    );
    let edges: Vec<(&str, &str)> = section
        .edges
        .iter()
        .map(|e| (e.from.as_str(), e.to.as_str()))
        .collect();
    assert!(
        edges.contains(&("service::store", "service::published")),
        "apply/snapshot publish under the store lock: {edges:?}"
    );
    assert!(
        edges.contains(&("service::store", "graph::published")),
        "the store reaches the graph's published snapshot lock: {edges:?}"
    );
    // And the shipped tree holds the discipline: no ordering findings.
    for f in &report.findings {
        assert!(
            !f.rule.starts_with("lock-"),
            "unexpected lock finding in the live tree: {} {}:{} {}",
            f.rule,
            f.file,
            f.line,
            f.message
        );
    }
}

/// A scratch workspace directory keyed by pid + a caller tag, torn down
/// on drop. No clocks, no randomness: the analyzer forbids both.
struct Scratch {
    root: PathBuf,
}

impl Scratch {
    fn new(tag: &str) -> Scratch {
        let root = std::env::temp_dir().join(format!(
            "probesim-analyze-selfcheck-{}-{tag}",
            std::process::id()
        ));
        let _ = fs::remove_dir_all(&root);
        fs::create_dir_all(root.join("crates/demo/src")).unwrap();
        Scratch { root }
    }

    fn write(&self, rel: &str, src: &str) {
        let path = self.root.join(rel);
        fs::create_dir_all(path.parent().unwrap()).unwrap();
        fs::write(path, src).unwrap();
    }

    fn run(&self, extra: &[&str]) -> Result<i32, String> {
        let mut args = vec![
            "--root".to_string(),
            self.root.to_str().unwrap().to_string(),
        ];
        args.extend(extra.iter().map(|s| s.to_string()));
        args.push("--quiet".to_string());
        cli::run(&args)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.root);
    }
}

const EMPTY_BASELINE: &str =
    "{\n  \"schema\": \"probesim-analyze-baseline/v1\",\n  \"entries\": [\n  ]\n}\n";

/// Two functions acquiring the same two locks in opposite orders must
/// trip the gate: `--compare` against an empty baseline returns Ok(1).
#[test]
fn cli_flags_a_seeded_lock_inversion() {
    let scratch = Scratch::new("lock-inversion");
    scratch.write(
        "crates/demo/src/lib.rs",
        "use std::sync::Mutex;\n\
         pub struct S { a: Mutex<u32>, b: Mutex<u32> }\n\
         impl S {\n\
             pub fn forward(&self) -> u32 {\n\
                 let ga = self.a.lock().expect(\"invariant: not poisoned\");\n\
                 let gb = self.b.lock().expect(\"invariant: not poisoned\");\n\
                 *ga + *gb\n\
             }\n\
             pub fn backward(&self) -> u32 {\n\
                 let gb = self.b.lock().expect(\"invariant: not poisoned\");\n\
                 let ga = self.a.lock().expect(\"invariant: not poisoned\");\n\
                 *gb - *ga\n\
             }\n\
         }\n",
    );
    scratch.write("empty-baseline.json", EMPTY_BASELINE);
    let baseline = scratch.root.join("empty-baseline.json");
    let code = scratch
        .run(&["--compare", baseline.to_str().unwrap()])
        .expect("invariant: the seeded workspace parses");
    assert_eq!(code, 1, "a lock-order cycle must fail the gate");

    // The report names the cycle, not just some generic failure.
    let ws = Workspace::load(&scratch.root).unwrap();
    let report = run_analyses(&ws);
    assert!(
        report.findings.iter().any(|f| f.rule == "lock-cycle"),
        "expected a lock-cycle finding, got {:?}",
        report.findings
    );
}

/// `Instant::now()` outside the clock allowlist must trip the gate.
#[test]
fn cli_flags_a_seeded_off_allowlist_clock_read() {
    let scratch = Scratch::new("clock");
    scratch.write(
        "crates/demo/src/lib.rs",
        "use std::time::Instant;\n\
         pub fn spin() -> u64 {\n\
             let t0 = Instant::now();\n\
             t0.elapsed().as_nanos() as u64\n\
         }\n",
    );
    scratch.write("empty-baseline.json", EMPTY_BASELINE);
    let baseline = scratch.root.join("empty-baseline.json");
    let code = scratch
        .run(&["--compare", baseline.to_str().unwrap()])
        .expect("invariant: the seeded workspace parses");
    assert_eq!(code, 1, "an off-allowlist clock read must fail the gate");

    let ws = Workspace::load(&scratch.root).unwrap();
    let report = run_analyses(&ws);
    assert!(
        report.findings.iter().any(|f| f.rule == "det-clock"),
        "expected a det-clock finding, got {:?}",
        report.findings
    );
}

/// `--write-baseline` then `--compare` against the written file is the
/// ratchet bootstrap: it must come back clean (Ok(0)) even for a tree
/// with findings.
#[test]
fn write_baseline_then_compare_round_trips_to_clean() {
    let scratch = Scratch::new("roundtrip");
    scratch.write(
        "crates/demo/src/lib.rs",
        "pub fn risky(v: &[u32]) -> u32 {\n\
             *v.first().unwrap()\n\
         }\n",
    );
    let baseline = scratch.root.join("baseline.json");
    let code = scratch
        .run(&["--write-baseline", baseline.to_str().unwrap()])
        .expect("invariant: the seeded workspace parses");
    assert_eq!(code, 0, "--write-baseline itself never fails the gate");
    let code = scratch
        .run(&["--compare", baseline.to_str().unwrap()])
        .expect("invariant: the seeded workspace parses");
    assert_eq!(code, 0, "a freshly written baseline must compare clean");

    // Introduce one more unwrap: the ratchet must now reject the tree.
    scratch.write(
        "crates/demo/src/lib.rs",
        "pub fn risky(v: &[u32]) -> u32 {\n\
             *v.first().unwrap()\n\
         }\n\
         pub fn riskier(v: &[u32]) -> u32 {\n\
             *v.last().unwrap()\n\
         }\n",
    );
    let code = scratch
        .run(&["--compare", baseline.to_str().unwrap()])
        .expect("invariant: the seeded workspace parses");
    assert_eq!(code, 1, "one extra unwrap past the baseline must fail");
}
