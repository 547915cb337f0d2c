//! Project-specific static analysis for the probesim workspace.
//!
//! `probesim-analyze` is a pass over the workspace's own sources with no
//! external dependencies (its JSON goes through `probesim-json`). It lexes every non-shim `.rs` file (comment-, string-
//! and char-literal-aware), recovers items per file, and runs four
//! analyses:
//!
//! 1. **Lock discipline** ([`locks`]) — an intraprocedural
//!    lock-acquisition model plus a conservative call graph. Reports
//!    lock-order cycles, inversions of the documented intended order,
//!    guards held across blocking calls, and direct re-acquisition.
//! 2. **Determinism** ([`determinism`]) — wall-clock reads off the
//!    explicit allowlist and hash-order iteration leaking into
//!    results.
//! 3. **Panic surface** ([`panics`]) — `unwrap`/panic macros/
//!    unjustified `expect`s/computed slice indexes in library code,
//!    ratcheted against the committed `analyze/baseline.json`.
//! 4. **Hygiene** ([`hygiene`]) — every `#[allow(…)]` and `unsafe`
//!    must carry an adjacent justification comment.
//!
//! The pass emits a stable machine-readable JSON report plus human
//! diagnostics with `file:line` anchors, and its `--write-baseline` /
//! `--compare` flags mirror `probesim-bench`'s exit-code contract: 0
//! for clean, 1 for a regression against the baseline, `Err` for usage
//! or I/O problems.
//!
//! The analyses are heuristic token-level models, not a compiler: they
//! are tuned to be quiet on this codebase and loud on the specific
//! regressions its concurrency and reproducibility story cannot
//! afford. The ratchet absorbs the residual noise — pre-existing
//! findings are baselined per `(rule, file)` and may only shrink.

pub mod cli;
pub mod determinism;
pub mod hygiene;
pub mod lexer;
pub mod locks;
pub mod panics;
pub mod report;
pub mod scan;
pub mod workspace;

use report::Report;
use workspace::Workspace;

/// Runs all four analyses over a loaded workspace and assembles the
/// report, findings sorted by `(rule, file, line)`.
pub fn run_analyses(ws: &Workspace) -> Report {
    let mut report = Report {
        files_scanned: ws.files.len(),
        ..Report::default()
    };
    locks::run_into(ws, &mut report);
    report.findings.extend(determinism::analyze(ws));
    report.findings.extend(panics::analyze(ws));
    report.findings.extend(hygiene::analyze(ws));
    report.findings.sort_by(|a, b| {
        (a.rule, &a.file, a.line, &a.message).cmp(&(b.rule, &b.file, b.line, &b.message))
    });
    report
}
