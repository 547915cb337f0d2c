//! Findings, the stable JSON report, the committed baseline format, and
//! the ratchet comparator.
//!
//! ## The ratchet
//!
//! The baseline maps `(rule, file)` to an allowed violation count.
//! [`compare`] fails a run when any `(rule, file)` pair exceeds its
//! allowance — new violations can never land, anywhere, under any rule.
//! Counts are keyed without line numbers so unrelated edits (or a
//! function moving within its file) cannot trip CI, and a pair absent
//! from the baseline has allowance **zero**, so a brand-new file starts
//! clean by construction. Fixing a finding makes the run *better* than
//! the baseline; the comparator reports the improvement and CI stays
//! green, but regenerating via `--write-baseline` locks the better count
//! in — that is the ratchet's one-way direction.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use probesim_json::Json;

/// One violation, anchored to a file and line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Stable rule id (`panic-unwrap`, `det-clock`, …).
    pub rule: &'static str,
    /// Workspace-relative file path.
    pub file: String,
    /// 1-based source line.
    pub line: u32,
    /// Human diagnostic.
    pub message: String,
}

impl Finding {
    /// Builds a finding.
    pub fn new(rule: &'static str, file: &str, line: u32, message: String) -> Finding {
        Finding {
            rule,
            file: file.to_string(),
            line,
            message,
        }
    }
}

/// One observed lock-order edge: `from` was held while `to` was
/// acquired (directly, or transitively through `via`).
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct LockEdge {
    /// The lock already held, as `crate::field`.
    pub from: String,
    /// The lock acquired under it.
    pub to: String,
    /// Evidence location.
    pub file: String,
    /// Evidence line.
    pub line: u32,
    /// The callee carrying the acquisition for call-graph edges; empty
    /// for direct intraprocedural edges.
    pub via: String,
}

/// The structured lock-order section of the report: the documented
/// intended order plus every observed acquisition edge.
#[derive(Debug, Clone, Default)]
pub struct LockOrderSection {
    /// The workspace's documented intended acquisition order.
    pub intended: Vec<String>,
    /// Every lock discovered (declared `Mutex`/`RwLock` fields and
    /// bindings), as `crate::name`.
    pub locks: Vec<String>,
    /// Observed held→acquired edges, deduplicated, sorted.
    pub edges: Vec<LockEdge>,
}

/// A full analysis run: findings across all rules plus the lock-order
/// evidence, ready for JSON emission.
#[derive(Debug, Default)]
pub struct Report {
    /// All findings, sorted by (rule, file, line).
    pub findings: Vec<Finding>,
    /// The lock model's structured output.
    pub lock_order: LockOrderSection,
    /// Files scanned (lib + other), for the report header.
    pub files_scanned: usize,
}

impl Report {
    /// Violation counts per rule, sorted by rule id.
    pub fn counts_by_rule(&self) -> BTreeMap<&'static str, usize> {
        let mut counts = BTreeMap::new();
        for f in &self.findings {
            *counts.entry(f.rule).or_insert(0) += 1;
        }
        counts
    }

    /// Violation counts per `(rule, file)` — the baseline's key space.
    pub fn counts_by_rule_file(&self) -> BTreeMap<(String, String), usize> {
        let mut counts = BTreeMap::new();
        for f in &self.findings {
            *counts
                .entry((f.rule.to_string(), f.file.clone()))
                .or_insert(0) += 1;
        }
        counts
    }

    /// The machine-readable report. Key order, array order and number
    /// formatting are all deterministic, so identical trees produce
    /// byte-identical reports.
    pub fn to_json(&self) -> String {
        let strs = |items: &[String]| Json::Arr(items.iter().cloned().map(Json::Str).collect());
        let counts = self
            .counts_by_rule()
            .into_iter()
            .map(|(rule, n)| (rule.to_string(), Json::uint(n)))
            .collect();
        let edges = self
            .lock_order
            .edges
            .iter()
            .map(|e| {
                Json::obj(vec![
                    ("from", Json::Str(e.from.clone())),
                    ("to", Json::Str(e.to.clone())),
                    ("file", Json::Str(e.file.clone())),
                    ("line", Json::UInt(e.line.into())),
                    ("via", Json::Str(e.via.clone())),
                ])
            })
            .collect();
        let findings = self
            .findings
            .iter()
            .map(|f| {
                Json::obj(vec![
                    ("rule", Json::Str(f.rule.to_string())),
                    ("file", Json::Str(f.file.clone())),
                    ("line", Json::UInt(f.line.into())),
                    ("message", Json::Str(f.message.clone())),
                ])
            })
            .collect();
        document(&Json::obj(vec![
            ("schema", Json::Str(REPORT_SCHEMA.to_string())),
            ("files_scanned", Json::uint(self.files_scanned)),
            ("counts", Json::Obj(counts)),
            (
                "lock_order",
                Json::obj(vec![
                    ("intended", strs(&self.lock_order.intended)),
                    ("locks", strs(&self.lock_order.locks)),
                    ("edges", Json::Arr(edges)),
                ]),
            ),
            ("findings", Json::Arr(findings)),
        ]))
    }

    /// The baseline capturing this run's `(rule, file)` counts.
    pub fn baseline_json(&self) -> String {
        let entries = self
            .counts_by_rule_file()
            .into_iter()
            .map(|((rule, file), n)| {
                Json::obj(vec![
                    ("rule", Json::Str(rule)),
                    ("file", Json::Str(file)),
                    ("count", Json::uint(n)),
                ])
            })
            .collect();
        document(&Json::obj(vec![
            ("schema", Json::Str(BASELINE_SCHEMA.to_string())),
            ("entries", Json::Arr(entries)),
        ]))
    }
}

const REPORT_SCHEMA: &str = "probesim-analyze/v1";
const BASELINE_SCHEMA: &str = "probesim-analyze-baseline/v1";

/// A whole file: `value` laid out by [`pretty`], newline-terminated.
fn document(value: &Json) -> String {
    let mut out = String::new();
    pretty(value, 0, &mut out);
    out.push('\n');
    out
}

/// Writes a container that holds other containers one member per line,
/// and anything else compactly with `Json`'s `Display` — so every
/// finding and baseline entry sits on its own line and a baseline
/// refresh diffs line by line.
fn pretty(value: &Json, indent: usize, out: &mut String) {
    let members: Vec<(Option<&str>, &Json)> = match value {
        Json::Arr(items) => items.iter().map(|v| (None, v)).collect(),
        Json::Obj(fields) => fields.iter().map(|(k, v)| (Some(k.as_str()), v)).collect(),
        _ => Vec::new(),
    };
    if !members
        .iter()
        .any(|(_, v)| matches!(v, Json::Arr(_) | Json::Obj(_)))
    {
        let _ = write!(out, "{value}");
        return;
    }
    let (open, close) = match value {
        Json::Arr(_) => ('[', ']'),
        _ => ('{', '}'),
    };
    out.push(open);
    for (i, (key, member)) in members.into_iter().enumerate() {
        out.push_str(if i == 0 { "\n" } else { ",\n" });
        out.push_str(&" ".repeat(indent + 2));
        if let Some(key) = key {
            let _ = write!(out, "{}: ", Json::Str(key.to_string()));
        }
        pretty(member, indent + 2, out);
    }
    let _ = write!(out, "\n{}{close}", " ".repeat(indent));
}

/// A parsed baseline: allowed counts per `(rule, file)`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Baseline {
    /// Allowance per `(rule, file)`.
    pub entries: BTreeMap<(String, String), usize>,
}

/// Parses a baseline file previously written by
/// [`Report::baseline_json`]. The reader accepts any whitespace layout
/// but requires the exact schema tag — a truncated or hand-mangled
/// baseline fails loudly instead of silently gating nothing.
pub fn parse_baseline(text: &str) -> Result<Baseline, String> {
    let value = Json::parse(text).map_err(|e| format!("baseline is not valid JSON: {e}"))?;
    only_keys(&value, &["schema", "entries"], "baseline")?;
    match value.get("schema").and_then(Json::as_str) {
        Some(BASELINE_SCHEMA) => {}
        Some(other) => return Err(format!("unsupported baseline schema {other:?}")),
        None => return Err("baseline missing schema tag".to_string()),
    }
    let entries = value
        .get("entries")
        .and_then(Json::as_arr)
        .ok_or("baseline missing entries")?;
    let mut baseline = Baseline::default();
    for entry in entries {
        only_keys(entry, &["rule", "file", "count"], "entry")?;
        let text = |key: &str| entry.get(key).and_then(Json::as_str).map(str::to_string);
        let rule = text("rule").ok_or("entry missing rule")?;
        let file = text("file").ok_or("entry missing file")?;
        let count = entry
            .get("count")
            .and_then(Json::as_u64)
            .and_then(|n| usize::try_from(n).ok())
            .ok_or("entry missing count")?;
        baseline.entries.insert((rule, file), count);
    }
    Ok(baseline)
}

/// Rejects an object with a key outside `known` (and anything that is
/// not an object): a misspelled key must fail loudly, not silently drop
/// an allowance.
fn only_keys(value: &Json, known: &[&str], what: &str) -> Result<(), String> {
    let Json::Obj(fields) = value else {
        return Err(format!("{what} is not a JSON object"));
    };
    match fields
        .iter()
        .find(|(key, _)| !known.contains(&key.as_str()))
    {
        Some((key, _)) => Err(format!("unknown {what} key {key:?}")),
        None => Ok(()),
    }
}

/// One comparator verdict line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Verdict {
    /// `(rule, file)` exceeded its allowance — the lines list the
    /// finding locations so the log points straight at the new sites.
    Regression {
        /// Rule id.
        rule: String,
        /// File the count grew in.
        file: String,
        /// Allowed count.
        allowed: usize,
        /// Observed count.
        found: usize,
        /// The observed finding lines in that file.
        lines: Vec<u32>,
    },
    /// `(rule, file)` is now below its allowance — a fix landed;
    /// `--write-baseline` would lock it in.
    Improvement {
        /// Rule id.
        rule: String,
        /// File the count shrank in.
        file: String,
        /// Allowed count.
        allowed: usize,
        /// Observed count.
        found: usize,
    },
}

impl Verdict {
    /// True when this verdict must fail the gate.
    pub fn is_regression(&self) -> bool {
        matches!(self, Verdict::Regression { .. })
    }
}

impl std::fmt::Display for Verdict {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Verdict::Regression {
                rule,
                file,
                allowed,
                found,
                lines,
            } => {
                let lines = lines
                    .iter()
                    .map(|l| l.to_string())
                    .collect::<Vec<_>>()
                    .join(", ");
                write!(
                    f,
                    "REGRESSION {rule:<20} {file}: {found} violation(s), baseline allows {allowed} (lines {lines})"
                )
            }
            Verdict::Improvement {
                rule,
                file,
                allowed,
                found,
            } => write!(
                f,
                "IMPROVED   {rule:<20} {file}: {found} violation(s), baseline allowed {allowed} — run --write-baseline to ratchet down"
            ),
        }
    }
}

/// Diffs a run against the committed baseline. Regressions fail CI;
/// improvements are reported so the baseline can be ratcheted down.
pub fn compare(baseline: &Baseline, report: &Report) -> Vec<Verdict> {
    let current = report.counts_by_rule_file();
    let mut verdicts = Vec::new();
    for ((rule, file), &found) in &current {
        let allowed = baseline
            .entries
            .get(&(rule.clone(), file.clone()))
            .copied()
            .unwrap_or(0);
        if found > allowed {
            let lines = report
                .findings
                .iter()
                .filter(|f| f.rule == rule && &f.file == file)
                .map(|f| f.line)
                .collect();
            verdicts.push(Verdict::Regression {
                rule: rule.clone(),
                file: file.clone(),
                allowed,
                found,
                lines,
            });
        } else if found < allowed {
            verdicts.push(Verdict::Improvement {
                rule: rule.clone(),
                file: file.clone(),
                allowed,
                found,
            });
        }
    }
    // Entries that vanished entirely are improvements too.
    for ((rule, file), &allowed) in &baseline.entries {
        if allowed > 0 && !current.contains_key(&(rule.clone(), file.clone())) {
            verdicts.push(Verdict::Improvement {
                rule: rule.clone(),
                file: file.clone(),
                allowed,
                found: 0,
            });
        }
    }
    verdicts.sort_by(|a, b| {
        let key = |v: &Verdict| match v {
            Verdict::Regression { rule, file, .. } => (0, rule.clone(), file.clone()),
            Verdict::Improvement { rule, file, .. } => (1, rule.clone(), file.clone()),
        };
        key(a).cmp(&key(b))
    });
    verdicts
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(findings: Vec<Finding>) -> Report {
        Report {
            findings,
            lock_order: LockOrderSection::default(),
            files_scanned: 1,
        }
    }

    fn f(rule: &'static str, file: &str, line: u32) -> Finding {
        Finding::new(rule, file, line, format!("{rule} at {file}:{line}"))
    }

    #[test]
    fn baseline_round_trips_through_json() {
        let r = report(vec![
            f("panic-unwrap", "crates/a/src/lib.rs", 3),
            f("panic-unwrap", "crates/a/src/lib.rs", 9),
            f("det-clock", "crates/b/src/lib.rs", 1),
        ]);
        let text = r.baseline_json();
        let parsed = parse_baseline(&text).unwrap();
        assert_eq!(parsed.entries.len(), 2);
        assert_eq!(
            parsed.entries[&(
                "panic-unwrap".to_string(),
                "crates/a/src/lib.rs".to_string()
            )],
            2
        );
        // Stability: serializing twice is byte-identical.
        assert_eq!(text, report(r.findings.clone()).baseline_json());
        // Any path round-trips, non-ASCII and control characters included.
        let odd = "crates/é/src/\u{1}.rs";
        let parsed = parse_baseline(&report(vec![f("det-clock", odd, 1)]).baseline_json()).unwrap();
        assert_eq!(
            parsed.entries[&("det-clock".to_string(), odd.to_string())],
            1
        );
    }

    #[test]
    fn parse_rejects_mangled_baselines() {
        assert!(parse_baseline("{}").is_err(), "missing schema");
        assert!(parse_baseline("{\"schema\": \"other/v9\", \"entries\": []}").is_err());
        assert!(parse_baseline("not json").is_err());
        assert!(
            parse_baseline(
                "{\"schema\": \"probesim-analyze-baseline/v1\", \"entries\": [{\"rule\": \"r\"}]}"
            )
            .is_err(),
            "entry missing fields"
        );
        // Whitespace-insensitive on the happy path.
        let ok = parse_baseline(
            "{ \"schema\" : \"probesim-analyze-baseline/v1\" , \"entries\" : [ { \"rule\" : \"r\" , \"file\" : \"f\" , \"count\" : 3 } ] }",
        )
        .unwrap();
        assert_eq!(ok.entries[&("r".to_string(), "f".to_string())], 3);
    }

    #[test]
    fn ratchet_blocks_growth_and_new_files_but_allows_fixes() {
        let old = report(vec![
            f("panic-unwrap", "a.rs", 1),
            f("panic-unwrap", "a.rs", 2),
            f("panic-macro", "b.rs", 5),
        ]);
        let baseline = parse_baseline(&old.baseline_json()).unwrap();

        // Same counts: clean.
        assert!(compare(&baseline, &old).iter().all(|v| !v.is_regression()));

        // One more unwrap in a.rs: regression with the line anchors.
        let grown = report(vec![
            f("panic-unwrap", "a.rs", 1),
            f("panic-unwrap", "a.rs", 2),
            f("panic-unwrap", "a.rs", 40),
            f("panic-macro", "b.rs", 5),
        ]);
        let verdicts = compare(&baseline, &grown);
        assert_eq!(verdicts.iter().filter(|v| v.is_regression()).count(), 1);
        assert!(matches!(
            &verdicts[0],
            Verdict::Regression { allowed: 2, found: 3, lines, .. } if lines == &vec![1, 2, 40]
        ));

        // A brand-new file has allowance zero.
        let new_file = report(vec![f("panic-unwrap", "fresh.rs", 1)]);
        assert!(compare(&baseline, &new_file).iter().any(
            |v| matches!(v, Verdict::Regression { file, allowed: 0, .. } if file == "fresh.rs")
        ));

        // Fixing shrinks: improvement, not regression.
        let fixed = report(vec![
            f("panic-unwrap", "a.rs", 1),
            f("panic-macro", "b.rs", 5),
        ]);
        let verdicts = compare(&baseline, &fixed);
        assert!(verdicts.iter().all(|v| !v.is_regression()));
        assert_eq!(verdicts.len(), 1);

        // Fixing a whole file away is an improvement too.
        let gone = report(vec![f("panic-unwrap", "a.rs", 1)]);
        let verdicts = compare(&baseline, &gone);
        assert!(verdicts
            .iter()
            .any(|v| matches!(v, Verdict::Improvement { file, found: 0, .. } if file == "b.rs")));
    }

    #[test]
    fn report_json_is_stable_and_escaped() {
        let mut r = report(vec![Finding::new(
            "det-clock",
            "crates/x/src/a.rs",
            7,
            "message with \"quotes\" and\nnewline".to_string(),
        )]);
        r.lock_order.intended = vec!["service::state".to_string()];
        r.lock_order.edges = vec![LockEdge {
            from: "service::store".to_string(),
            to: "service::published".to_string(),
            file: "crates/service/src/service.rs".to_string(),
            line: 480,
            via: String::new(),
        }];
        let a = r.to_json();
        let b = r.to_json();
        assert_eq!(a, b);
        assert!(a.contains("\\\"quotes\\\""));
        assert!(a.contains("\\n"));
        assert!(a.contains("probesim-analyze/v1"));
        assert!(a.contains("\"intended\": [\"service::state\"]"));
        assert!(a.contains("\"from\": \"service::store\""));
    }
}
