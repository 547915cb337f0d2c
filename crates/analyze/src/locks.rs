//! Lock discipline: an intraprocedural lock-acquisition model plus a
//! conservative call graph, checking acquisition order, cycles, and
//! guards held across blocking calls.
//!
//! ## Model
//!
//! Locks are identified by `crate::field` — every `name: Mutex<…>`,
//! `name: RwLock<…>` or `name: Condvar` declaration in library code
//! declares a lock named `name` in its crate. An **acquisition** is a
//! `.lock()` / `.read()` / `.write()` call whose receiver's final path
//! segment matches a lock declared in the same crate; this crate-local
//! matching is what keeps `service::published` (the `RwLock` snapshot
//! the workers read) distinct from `graph::published` (the store's
//! `Mutex` snapshot cache) even though the fields share a name.
//!
//! Within one function body the simulation tracks a held set: guards
//! bound by `let` live until their enclosing block closes or a
//! `drop(binding)` releases them; guards created as expression
//! temporaries die at the end of their statement. Each acquisition made
//! while other locks are held records a `held → acquired` edge. A
//! conservative call graph (bare-name matching, lock summaries iterated
//! to a fixpoint) extends the edges across calls: holding `store` while
//! calling a function that somewhere acquires `published` records
//! `store → published` with the callee as evidence.
//!
//! ## Rules
//!
//! * `lock-cycle` — the merged edge graph has a strongly connected
//!   component: some interleaving can deadlock.
//! * `lock-inversion` — an edge contradicts the documented intended
//!   order ([`INTENDED_LOCK_ORDER`]).
//! * `lock-blocking` — a guard is held across `join`/`recv`/
//!   `thread::sleep`, or across a `Condvar` wait on a *different* lock
//!   (waiting on the guard you pass is the point of a condvar and is
//!   not flagged).
//! * `lock-recursive` — a function re-acquires a lock it already holds
//!   on the same path: guaranteed self-deadlock with `std::sync`.
//!
//! ## Known limits
//!
//! Bare-name call-graph merging conflates same-named methods across
//! types, so (a) summary-derived *self* edges are suppressed — common
//! names like `apply` or `len` would otherwise claim every lock flows
//! into itself — (b) ubiquitous std-shaped method names
//! ([`PROPAGATION_STOPLIST`]) do not propagate summaries at all: a
//! workspace `fn get` that locks the cache would otherwise taint every
//! `HashMap::get` call in the tree — and (c) `lock-recursive` only
//! fires on direct re-acquisition inside one body, never through the
//! call graph. The stoplist also means a *real* lock hidden behind one
//! of those generic names is missed; workspace-specific names (`apply`,
//! `snapshot`, `submit`, `resolve`, …) propagate normally. Closure
//! indirection (observer callbacks) is invisible to the call graph;
//! edges through it must be documented rather than inferred.

use std::collections::{BTreeMap, BTreeSet};

use crate::report::{Finding, LockEdge, LockOrderSection, Report};
use crate::scan::FileScan;
use crate::workspace::{SourceFile, Workspace};

/// The workspace's documented intended acquisition order, outermost
/// first. `fleet::records` heads the chain: the fleet's write path
/// appends to the update log and commits to the primary store in one
/// critical section (via the `append_with` closure, which the call
/// graph cannot see — the edge is documented here instead of inferred).
/// `fleet::registry`, `fleet::seat`, `fleet::checkpoint` and
/// `graph::published` are leaves (acquired alone, never held across
/// another acquisition): the registry mutex exists only to pair its
/// condvar, replica incarnations are built and joined entirely outside
/// the seat lock, and checkpoints are cloned in and out of the cell
/// with nothing else held.
pub const INTENDED_LOCK_ORDER: [&str; 8] = [
    "fleet::registry",
    "fleet::records",
    "fleet::seat",
    "fleet::checkpoint",
    "service::state",
    "service::store",
    "service::inner",
    "service::published",
];

/// What flavour of synchronisation primitive a declaration is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum LockKind {
    Mutex,
    RwLock,
    Condvar,
}

/// The blocking calls the model knows about.
const BLOCKING: [&str; 7] = [
    "join",
    "recv",
    "recv_timeout",
    "sleep",
    "wait",
    "wait_timeout",
    "wait_while",
];

fn is_wait_family(name: &str) -> bool {
    matches!(name, "wait" | "wait_timeout" | "wait_while")
}

/// Method names that never carry lock summaries through the call
/// graph. These are std container/Option/Result vocabulary; a
/// same-named workspace method (the cache's `get`, the service's
/// `drain`) would otherwise taint every collection call in the tree
/// with its locks and flood the edge graph with false inversions.
pub const PROPAGATION_STOPLIST: [&str; 40] = [
    "expect",
    "unwrap",
    "unwrap_or",
    "unwrap_or_else",
    "unwrap_or_default",
    "ok",
    "err",
    "map",
    "map_err",
    "and_then",
    "filter",
    "copied",
    "cloned",
    "collect",
    "clone",
    "get",
    "get_mut",
    "len",
    "is_empty",
    "insert",
    "remove",
    "push",
    "pop",
    "push_front",
    "push_back",
    "clear",
    "contains",
    "contains_key",
    "drain",
    "iter",
    "iter_mut",
    "into_iter",
    "keys",
    "values",
    "next",
    "peek",
    "new",
    "default",
    "version",
    "drop",
];

/// A currently-held guard during simulation.
#[derive(Debug, Clone)]
struct Guard {
    lock: String,
    binding: Option<String>,
    depth: i32,
}

/// The result of the lock analysis: findings plus the structured
/// lock-order report section.
#[derive(Debug, Default)]
pub struct LockAnalysis {
    /// `lock-*` findings.
    pub findings: Vec<Finding>,
    /// Intended order, discovered locks, observed edges.
    pub section: LockOrderSection,
}

/// Runs the lock-discipline analysis over the workspace's library files
/// against the given intended order.
pub fn analyze(ws: &Workspace, intended: &[&str]) -> LockAnalysis {
    let decls = collect_decls(ws);

    // Pass 1: per-function direct acquisitions and callees, merged by
    // bare name across the whole workspace.
    let mut direct: BTreeMap<String, BTreeSet<String>> = BTreeMap::new();
    let mut calls: BTreeMap<String, BTreeSet<String>> = BTreeMap::new();
    for file in ws.lib_files() {
        for f in &file.scan.fns {
            let Some((open, close)) = f.body else {
                continue;
            };
            if file.scan.excluded.get(open).copied().unwrap_or(false) {
                continue;
            }
            let (acqs, callees) = survey_body(file, &decls, open, close);
            direct.entry(f.name.clone()).or_default().extend(acqs);
            calls.entry(f.name.clone()).or_default().extend(callees);
        }
    }
    // Only calls to functions we know about participate, and generic
    // std-shaped names never carry summaries (see module docs).
    let known: BTreeSet<String> = direct.keys().cloned().collect();
    for callees in calls.values_mut() {
        callees.retain(|c| known.contains(c) && !PROPAGATION_STOPLIST.contains(&c.as_str()));
    }

    // Fixpoint: summary(f) = direct(f) ∪ ⋃ summary(callee).
    let mut summary = direct.clone();
    loop {
        let mut changed = false;
        for (name, callees) in &calls {
            let mut add: BTreeSet<String> = BTreeSet::new();
            for c in callees {
                if let Some(s) = summary.get(c) {
                    add.extend(s.iter().cloned());
                }
            }
            let own = summary.entry(name.clone()).or_default();
            for l in add {
                changed |= own.insert(l);
            }
        }
        if !changed {
            break;
        }
    }

    // Pass 2: full simulation with held-set tracking.
    let mut findings = Vec::new();
    let mut edges: BTreeMap<(String, String, String), (String, u32)> = BTreeMap::new();
    for file in ws.lib_files() {
        for f in &file.scan.fns {
            let Some((open, close)) = f.body else {
                continue;
            };
            if file.scan.excluded.get(open).copied().unwrap_or(false) {
                continue;
            }
            simulate_body(
                file,
                &decls,
                &summary,
                open,
                close,
                &mut findings,
                &mut edges,
            );
        }
    }

    let edge_list: Vec<LockEdge> = edges
        .iter()
        .map(|((from, to, via), (file, line))| LockEdge {
            from: from.clone(),
            to: to.clone(),
            file: file.clone(),
            line: *line,
            via: via.clone(),
        })
        .collect();

    // Cycles: any strongly connected component of size > 1 in the
    // deduplicated from→to graph.
    findings.extend(cycle_findings(&edge_list));

    // Inversions against the intended order.
    for e in &edge_list {
        let from_pos = intended.iter().position(|l| *l == e.from);
        let to_pos = intended.iter().position(|l| *l == e.to);
        if let (Some(fp), Some(tp)) = (from_pos, to_pos) {
            if fp > tp {
                findings.push(Finding::new(
                    "lock-inversion",
                    &e.file,
                    e.line,
                    format!(
                        "{} acquired while holding {}{} — contradicts the intended order {}",
                        e.to,
                        e.from,
                        if e.via.is_empty() {
                            String::new()
                        } else {
                            format!(" (via call to `{}`)", e.via)
                        },
                        intended.join(" -> ")
                    ),
                ));
            }
        }
    }

    findings.sort_by(|a, b| {
        (a.rule, &a.file, a.line, &a.message).cmp(&(b.rule, &b.file, b.line, &b.message))
    });

    let mut sorted_edges = edge_list;
    sorted_edges.sort();
    LockAnalysis {
        findings,
        section: LockOrderSection {
            intended: intended.iter().map(|s| s.to_string()).collect(),
            locks: decls.keys().cloned().collect(),
            edges: sorted_edges,
        },
    }
}

/// Finds every `name: Mutex<…>` / `RwLock<…>` / `Condvar` declaration
/// in library code, keyed `crate::name`.
fn collect_decls(ws: &Workspace) -> BTreeMap<String, LockKind> {
    let mut decls = BTreeMap::new();
    for file in ws.lib_files() {
        let toks = &file.scan.tokens;
        for i in 0..toks.len() {
            if file.scan.excluded.get(i).copied().unwrap_or(false) {
                continue;
            }
            if toks[i].kind != crate::lexer::TokKind::Ident
                || !toks.get(i + 1).is_some_and(|t| t.is_punct(':'))
                || toks.get(i + 2).is_some_and(|t| t.is_punct(':'))
            {
                continue;
            }
            // Look a short distance into the type for the primitive.
            // `Arc<Mutex<…>>` and `std::sync::Mutex<…>` both fit well
            // inside the window; `,`/`;`/`=`/`{` end the declaration.
            let mut kind = None;
            for j in (i + 2)..(i + 14).min(toks.len()) {
                let t = &toks[j];
                if t.is_punct(',') || t.is_punct(';') || t.is_punct('=') || t.is_punct('{') {
                    break;
                }
                if t.is_ident("Condvar") {
                    kind = Some(LockKind::Condvar);
                    break;
                }
                if (t.is_ident("Mutex") || t.is_ident("RwLock"))
                    && toks.get(j + 1).is_some_and(|n| n.is_punct('<'))
                {
                    kind = Some(if t.is_ident("Mutex") {
                        LockKind::Mutex
                    } else {
                        LockKind::RwLock
                    });
                    break;
                }
            }
            if let Some(kind) = kind {
                decls.insert(format!("{}::{}", file.crate_name, toks[i].text), kind);
            }
        }
    }
    decls
}

/// Resolves the receiver of the method call at `dot` (the `.` token):
/// the identifier immediately before it, looking through one trailing
/// index expression (`slots[i].lock()`). Returns `None` for chained
/// call receivers (`f().lock()`), which the model does not track.
fn receiver_name(scan: &FileScan, dot: usize) -> Option<String> {
    if dot == 0 {
        return None;
    }
    let mut i = dot - 1;
    if scan.tokens[i].is_punct(']') {
        // Walk back over the index group to the ident before `[`.
        let mut depth = 0i32;
        loop {
            if scan.tokens[i].is_punct(']') {
                depth += 1;
            } else if scan.tokens[i].is_punct('[') {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
            if i == 0 {
                return None;
            }
            i -= 1;
        }
        if i == 0 {
            return None;
        }
        i -= 1;
    }
    let t = &scan.tokens[i];
    (t.kind == crate::lexer::TokKind::Ident).then(|| t.text.clone())
}

/// Is token `i` an acquisition (`.lock()` / `.read()` / `.write()`) of
/// a declared same-crate lock? Returns the lock id.
fn acquisition_at(
    file: &SourceFile,
    decls: &BTreeMap<String, LockKind>,
    i: usize,
) -> Option<String> {
    let toks = &file.scan.tokens;
    let t = &toks[i];
    if !(t.is_ident("lock") || t.is_ident("read") || t.is_ident("write")) {
        return None;
    }
    if i == 0 || !toks[i - 1].is_punct('.') || !toks.get(i + 1).is_some_and(|n| n.is_punct('(')) {
        return None;
    }
    let recv = receiver_name(&file.scan, i - 1)?;
    let id = format!("{}::{recv}", file.crate_name);
    match decls.get(&id) {
        // `read`/`write` on a Mutex or `lock` on a RwLock would be a
        // type error in compiled code; accept any of the three on
        // either kind, but never treat a Condvar as acquirable.
        Some(LockKind::Mutex | LockKind::RwLock) => Some(id),
        _ => None,
    }
}

/// Pass 1: the body's direct acquisitions and outgoing calls.
fn survey_body(
    file: &SourceFile,
    decls: &BTreeMap<String, LockKind>,
    open: usize,
    close: usize,
) -> (BTreeSet<String>, BTreeSet<String>) {
    let toks = &file.scan.tokens;
    let mut acqs = BTreeSet::new();
    let mut callees = BTreeSet::new();
    for i in (open + 1)..close {
        if let Some(id) = acquisition_at(file, decls, i) {
            acqs.insert(id);
            continue;
        }
        let t = &toks[i];
        if t.kind == crate::lexer::TokKind::Ident
            && toks.get(i + 1).is_some_and(|n| n.is_punct('('))
            && !BLOCKING.contains(&t.text.as_str())
        {
            callees.insert(t.text.clone());
        }
    }
    (acqs, callees)
}

/// Pass 2: held-set simulation over one body, producing findings and
/// edges.
#[allow(clippy::too_many_arguments)] // internal walker; splitting the state into a struct would obscure the token loop
fn simulate_body(
    file: &SourceFile,
    decls: &BTreeMap<String, LockKind>,
    summary: &BTreeMap<String, BTreeSet<String>>,
    open: usize,
    close: usize,
    findings: &mut Vec<Finding>,
    edges: &mut BTreeMap<(String, String, String), (String, u32)>,
) {
    let toks = &file.scan.tokens;
    let mut held: Vec<Guard> = Vec::new();
    let mut depth: i32 = 0;
    let mut pending_let: Option<String> = None;

    let mut i = open + 1;
    while i < close {
        let t = &toks[i];
        if t.is_punct('{') {
            depth += 1;
        } else if t.is_punct('}') {
            held.retain(|g| g.depth < depth);
            depth -= 1;
        } else if t.is_punct(';') {
            // Expression-temporary guards die at the end of their
            // statement; `let` statements are complete here too.
            held.retain(|g| g.binding.is_some());
            pending_let = None;
        } else if t.is_ident("let") {
            pending_let = let_binding_name(toks, i, close);
        } else if t.is_ident("drop")
            && toks.get(i + 1).is_some_and(|n| n.is_punct('('))
            && toks
                .get(i + 2)
                .is_some_and(|n| n.kind == crate::lexer::TokKind::Ident)
        {
            let name = toks[i + 2].text.clone();
            held.retain(|g| g.binding.as_deref() != Some(name.as_str()));
        } else if let Some(id) = acquisition_at(file, decls, i) {
            for g in &held {
                if g.lock == id {
                    findings.push(Finding::new(
                        "lock-recursive",
                        &file.rel_path,
                        t.line,
                        format!(
                            "{id} re-acquired while already held — self-deadlock with std::sync"
                        ),
                    ));
                } else {
                    edges
                        .entry((g.lock.clone(), id.clone(), String::new()))
                        .or_insert((file.rel_path.clone(), t.line));
                }
            }
            held.push(Guard {
                lock: id,
                binding: pending_let.clone(),
                depth,
            });
        } else if t.kind == crate::lexer::TokKind::Ident
            && toks.get(i + 1).is_some_and(|n| n.is_punct('('))
        {
            let name = t.text.as_str();
            if BLOCKING.contains(&name)
                && (i > open + 1 && toks[i - 1].is_punct('.') || is_path_call(toks, i))
            {
                // A condvar wait releases the guard you pass it — only
                // the *other* held locks are held across the block.
                let excluded = if is_wait_family(name) {
                    toks.get(i + 2)
                        .filter(|a| a.kind == crate::lexer::TokKind::Ident)
                        .map(|a| a.text.clone())
                } else {
                    None
                };
                let held_over: Vec<&Guard> = held
                    .iter()
                    .filter(|g| g.binding != excluded || excluded.is_none())
                    .collect();
                if !held_over.is_empty() {
                    let locks: Vec<&str> = held_over.iter().map(|g| g.lock.as_str()).collect();
                    findings.push(Finding::new(
                        "lock-blocking",
                        &file.rel_path,
                        t.line,
                        format!(
                            "`{name}` called while holding {} — guard held across a blocking call",
                            locks.join(", ")
                        ),
                    ));
                }
            } else if !held.is_empty() && !PROPAGATION_STOPLIST.contains(&name) {
                if let Some(callee_locks) = summary.get(name) {
                    for l in callee_locks {
                        for g in &held {
                            // Self edges from bare-name merging are
                            // noise (see module docs) — skip them.
                            if &g.lock != l {
                                edges
                                    .entry((g.lock.clone(), l.clone(), name.to_string()))
                                    .or_insert((file.rel_path.clone(), t.line));
                            }
                        }
                    }
                }
            }
        }
        i += 1;
    }
}

/// Is the call at `i` written as a path call (`thread::sleep(…)`)?
fn is_path_call(toks: &[crate::lexer::Tok], i: usize) -> bool {
    i >= 2 && toks[i - 1].is_punct(':') && toks[i - 2].is_punct(':')
}

/// The binding name of the `let` at token `i`: the first identifier in
/// the pattern that is not `mut` or a constructor wrapper
/// (`let mut st = …` → `st`, `let Ok(g) = …` → `g`).
fn let_binding_name(toks: &[crate::lexer::Tok], i: usize, close: usize) -> Option<String> {
    for t in toks.iter().take(close.min(i + 10)).skip(i + 1) {
        if t.is_punct('=') || t.is_punct(';') || t.is_punct(':') {
            return None;
        }
        if t.kind == crate::lexer::TokKind::Ident
            && !matches!(t.text.as_str(), "mut" | "Ok" | "Some" | "Err")
        {
            return Some(t.text.clone());
        }
        // A `let NAME: Type = …` annotation: accept the name before
        // bailing at `:` — handled by ident-first ordering above.
    }
    None
}

/// One `lock-cycle` finding per strongly connected component of size
/// > 1 in the edge graph.
fn cycle_findings(edges: &[LockEdge]) -> Vec<Finding> {
    let mut nodes: BTreeSet<&str> = BTreeSet::new();
    let mut adj: BTreeMap<&str, BTreeSet<&str>> = BTreeMap::new();
    for e in edges {
        nodes.insert(&e.from);
        nodes.insert(&e.to);
        adj.entry(&e.from).or_default().insert(&e.to);
    }
    // Tarjan's algorithm, iterative to keep recursion off arbitrarily
    // shaped graphs.
    let index_of: BTreeMap<&str, usize> = nodes.iter().enumerate().map(|(i, n)| (*n, i)).collect();
    let names: Vec<&str> = nodes.into_iter().collect();
    let n = names.len();
    let succ: Vec<Vec<usize>> = names
        .iter()
        .map(|name| {
            adj.get(name)
                .map(|s| s.iter().map(|t| index_of[t]).collect())
                .unwrap_or_default()
        })
        .collect();
    let (mut index, mut low, mut on_stack) = (vec![usize::MAX; n], vec![0usize; n], vec![false; n]);
    let (mut stack, mut next_index) = (Vec::new(), 0usize);
    let mut sccs: Vec<Vec<usize>> = Vec::new();
    for start in 0..n {
        if index[start] != usize::MAX {
            continue;
        }
        // (node, next-successor position)
        let mut call: Vec<(usize, usize)> = vec![(start, 0)];
        while let Some(&mut (v, ref mut pos)) = call.last_mut() {
            if *pos == 0 {
                index[v] = next_index;
                low[v] = next_index;
                next_index += 1;
                stack.push(v);
                on_stack[v] = true;
            }
            if *pos < succ[v].len() {
                let w = succ[v][*pos];
                *pos += 1;
                if index[w] == usize::MAX {
                    call.push((w, 0));
                } else if on_stack[w] {
                    low[v] = low[v].min(index[w]);
                }
            } else {
                if low[v] == index[v] {
                    let mut comp = Vec::new();
                    loop {
                        let w = stack
                            .pop()
                            .expect("invariant: Tarjan stack holds the component");
                        on_stack[w] = false;
                        comp.push(w);
                        if w == v {
                            break;
                        }
                    }
                    if comp.len() > 1 {
                        sccs.push(comp);
                    }
                }
                call.pop();
                if let Some(&mut (u, _)) = call.last_mut() {
                    low[u] = low[u].min(low[v]);
                }
            }
        }
    }
    let mut findings = Vec::new();
    for mut comp in sccs {
        comp.sort_unstable();
        let cycle: Vec<&str> = comp.iter().map(|&i| names[i]).collect();
        // Anchor the finding at the evidence of some edge inside the
        // component.
        let anchor = edges
            .iter()
            .find(|e| cycle.contains(&e.from.as_str()) && cycle.contains(&e.to.as_str()));
        let (file, line) = anchor.map_or(("", 0), |e| (e.file.as_str(), e.line));
        findings.push(Finding::new(
            "lock-cycle",
            file,
            line,
            format!(
                "lock-order cycle between {} — opposite acquisition orders can deadlock",
                cycle.join(", ")
            ),
        ));
    }
    findings
}

/// Convenience: run the lock analysis and fold it into a report.
pub fn run_into(ws: &Workspace, report: &mut Report) {
    let analysis = analyze(ws, &INTENDED_LOCK_ORDER);
    report.findings.extend(analysis.findings);
    report.lock_order = analysis.section;
}

#[cfg(test)]
mod tests {
    use super::*;

    fn service_fixture(body: &str) -> Workspace {
        let src = format!(
            "use std::sync::{{Mutex, RwLock, Condvar}};\n\
             struct S {{ state: Mutex<u32>, store: Mutex<u32>, inner: Mutex<u32>, published: RwLock<u32>, queue_cv: Condvar }}\n\
             impl S {{\n{body}\n}}\n"
        );
        Workspace::from_sources(&[("crates/service/src/lib.rs", &src)])
    }

    #[test]
    fn declarations_are_crate_qualified() {
        let ws = Workspace::from_sources(&[
            (
                "crates/service/src/lib.rs",
                "use std::sync::RwLock; struct A { published: RwLock<u32> }",
            ),
            (
                "crates/graph/src/lib.rs",
                "use std::sync::Mutex; struct B { published: std::sync::Mutex<Option<u32>> }",
            ),
        ]);
        let decls = collect_decls(&ws);
        assert_eq!(decls.get("service::published"), Some(&LockKind::RwLock));
        assert_eq!(decls.get("graph::published"), Some(&LockKind::Mutex));
    }

    #[test]
    fn in_order_acquisition_produces_edges_but_no_findings() {
        let ws = service_fixture(
            "fn ok(&self) {\n\
                 let st = self.state.lock().expect(\"poisoned\");\n\
                 let g = self.store.lock().expect(\"poisoned\");\n\
                 drop(g);\n\
                 drop(st);\n\
             }",
        );
        let a = analyze(&ws, &INTENDED_LOCK_ORDER);
        assert!(a.findings.is_empty(), "{:?}", a.findings);
        assert!(a
            .section
            .edges
            .iter()
            .any(|e| e.from == "service::state" && e.to == "service::store"));
    }

    #[test]
    fn artificial_inversion_is_flagged_as_inversion_and_cycle() {
        // The regression fixture the satellite demands: two functions
        // acquiring `state`/`store` in opposite orders. The inversion
        // contradicts the intended order AND forms a cycle.
        let ws = service_fixture(
            "fn forward(&self) {\n\
                 let a = self.state.lock().expect(\"poisoned\");\n\
                 let b = self.store.lock().expect(\"poisoned\");\n\
                 let _ = (&a, &b);\n\
             }\n\
             fn backward(&self) {\n\
                 let b = self.store.lock().expect(\"poisoned\");\n\
                 let a = self.state.lock().expect(\"poisoned\");\n\
                 let _ = (&a, &b);\n\
             }",
        );
        let a = analyze(&ws, &INTENDED_LOCK_ORDER);
        assert!(
            a.findings.iter().any(|f| f.rule == "lock-inversion"
                && f.message.contains("service::state")
                && f.message.contains("service::store")),
            "{:?}",
            a.findings
        );
        assert!(
            a.findings.iter().any(|f| f.rule == "lock-cycle"),
            "{:?}",
            a.findings
        );
    }

    #[test]
    fn inversion_through_the_call_graph_is_flagged() {
        let ws = service_fixture(
            "fn helper_locks_state(&self) {\n\
                 let a = self.state.lock().expect(\"poisoned\");\n\
                 let _ = &a;\n\
             }\n\
             fn outer(&self) {\n\
                 let b = self.store.lock().expect(\"poisoned\");\n\
                 self.helper_locks_state();\n\
                 drop(b);\n\
             }",
        );
        let a = analyze(&ws, &INTENDED_LOCK_ORDER);
        let inv: Vec<_> = a
            .findings
            .iter()
            .filter(|f| f.rule == "lock-inversion")
            .collect();
        assert_eq!(inv.len(), 1, "{:?}", a.findings);
        assert!(inv[0].message.contains("helper_locks_state"));
    }

    #[test]
    fn condvar_wait_on_own_guard_is_fine_but_other_locks_are_not() {
        let ws = service_fixture(
            "fn worker(&self) {\n\
                 let mut st = self.state.lock().expect(\"poisoned\");\n\
                 st = self.queue_cv.wait(st).expect(\"poisoned\");\n\
                 let _ = &st;\n\
             }\n\
             fn bad(&self) {\n\
                 let g = self.store.lock().expect(\"poisoned\");\n\
                 let mut st = self.state.lock().expect(\"poisoned\");\n\
                 st = self.queue_cv.wait(st).expect(\"poisoned\");\n\
                 let _ = (&g, &st);\n\
             }",
        );
        let a = analyze(&ws, &INTENDED_LOCK_ORDER);
        let blocking: Vec<_> = a
            .findings
            .iter()
            .filter(|f| f.rule == "lock-blocking")
            .collect();
        assert_eq!(blocking.len(), 1, "{:?}", a.findings);
        assert!(blocking[0].message.contains("service::store"));
        assert!(!blocking[0].message.contains("service::state"));
    }

    #[test]
    fn sleep_and_join_under_a_guard_are_blocking() {
        let ws = service_fixture(
            "fn snoozes(&self) {\n\
                 let g = self.inner.lock().expect(\"poisoned\");\n\
                 std::thread::sleep(std::time::Duration::from_millis(1));\n\
                 drop(g);\n\
             }",
        );
        let a = analyze(&ws, &INTENDED_LOCK_ORDER);
        assert!(
            a.findings
                .iter()
                .any(|f| f.rule == "lock-blocking" && f.message.contains("sleep")),
            "{:?}",
            a.findings
        );
    }

    #[test]
    fn direct_reacquisition_is_recursive() {
        let ws = service_fixture(
            "fn oops(&self) {\n\
                 let a = self.state.lock().expect(\"poisoned\");\n\
                 let b = self.state.lock().expect(\"poisoned\");\n\
                 let _ = (&a, &b);\n\
             }",
        );
        let a = analyze(&ws, &INTENDED_LOCK_ORDER);
        assert!(
            a.findings.iter().any(|f| f.rule == "lock-recursive"),
            "{:?}",
            a.findings
        );
    }

    #[test]
    fn temporaries_release_at_statement_end_and_blocks_scope_guards() {
        let ws = service_fixture(
            "fn temp(&self) {\n\
                 *self.state.lock().expect(\"poisoned\") = 1;\n\
                 let b = self.store.lock().expect(\"poisoned\");\n\
                 let _ = &b;\n\
             }\n\
             fn scoped(&self) {\n\
                 { let a = self.store.lock().expect(\"poisoned\"); let _ = &a; }\n\
                 let b = self.state.lock().expect(\"poisoned\");\n\
                 let _ = &b;\n\
             }",
        );
        let a = analyze(&ws, &INTENDED_LOCK_ORDER);
        // Neither function ever holds two locks at once: no edges
        // between state and store in either direction, no findings.
        assert!(a.findings.is_empty(), "{:?}", a.findings);
        assert!(a.section.edges.is_empty(), "{:?}", a.section.edges);
    }

    #[test]
    fn test_code_is_invisible_to_the_lock_model() {
        let ws = service_fixture(
            "fn fine(&self) { let a = self.state.lock().expect(\"poisoned\"); let _ = &a; }\n\
             #[cfg(test)]\n\
             fn scrambled(&self) {\n\
                 let b = self.store.lock().unwrap();\n\
                 let a = self.state.lock().unwrap();\n\
                 let _ = (&a, &b);\n\
             }",
        );
        let a = analyze(&ws, &INTENDED_LOCK_ORDER);
        assert!(a.findings.is_empty(), "{:?}", a.findings);
    }
}
