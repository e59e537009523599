//! Concurrency rules over the per-function model (`cargo xtask analyze`).
//!
//! Rules (ids as they appear in diagnostics and `lint-allow.toml`):
//!
//! * `lock-order` — build the static lock-acquisition graph (edge `A → B`
//!   whenever a guard on `A` is live while `B` is acquired, directly or one
//!   call level down); any cycle is a potential deadlock.
//! * `no-guard-across-blocking` — a live `Mutex`/`RwLock` guard across
//!   `TcpStream`/`File` I/O, `accept`, a blocking channel `recv`, or
//!   `JoinHandle::join`. A worker parked on I/O while holding a shard or
//!   pool guard stalls every other worker that needs it.
//! * `no-guard-across-spawn` — a guard live across `thread::spawn` /
//!   `thread::scope` at a scatter site; the child's lifetime is unbounded
//!   from the guard's point of view.
//! * `no-unbounded-channel` — `mpsc::channel()` in the serving crate; the
//!   admission-controlled pool must stay bounded (`sync_channel` or
//!   `WorkerPool::try_submit` are fine).
//! * `no-blocking-in-reactor` — any blocking operation in a `*reactor.rs`
//!   file, guard or no guard. The reactor thread owns every connection;
//!   one blocking call stalls all of them, so its event loop must stay
//!   readiness-driven (the poll wait itself lives in `poller.rs`, outside
//!   this rule's file scope, deliberately).
//!
//! The model is textual (see [`crate::model`]): method calls resolve to
//! crate-local functions only when the bare name is unique in the crate,
//! inlining goes exactly one level deep, and acquisitions of the *same*
//! lock identity never form an edge (sharded locks share one identity).
//! `docs/ANALYSIS.md` documents the limits and how to read a cycle report.

use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;
use std::process::ExitCode;

use crate::allow::Allowlist;
use crate::model::{build_crate, CallEvent, CrateModel, Event, FnModel, LockDecl};
use crate::Violation;

/// Which rules run for one crate.
#[derive(Debug, Clone, Copy)]
pub struct CrateSpec {
    /// Crate directory name under `crates/`.
    pub name: &'static str,
    /// Contribute acquisitions to the global lock-order graph.
    pub lock_order: bool,
    /// Enforce `no-guard-across-blocking`.
    pub guard_blocking: bool,
    /// Enforce `no-guard-across-spawn`.
    pub guard_spawn: bool,
    /// Enforce `no-unbounded-channel`.
    pub unbounded_channel: bool,
    /// Enforce `no-blocking-in-reactor` (files ending `reactor.rs`).
    pub reactor_nonblocking: bool,
}

/// The production crate set: every crate that declares or touches a lock.
pub const DEFAULT_SPECS: &[CrateSpec] = &[
    CrateSpec {
        name: "core",
        lock_order: true,
        guard_blocking: false,
        guard_spawn: false,
        unbounded_channel: false,
        reactor_nonblocking: false,
    },
    CrateSpec {
        name: "exec",
        lock_order: true,
        guard_blocking: false,
        guard_spawn: false,
        unbounded_channel: false,
        reactor_nonblocking: false,
    },
    CrateSpec {
        name: "index",
        lock_order: true,
        guard_blocking: false,
        guard_spawn: true,
        unbounded_channel: false,
        reactor_nonblocking: false,
    },
    CrateSpec {
        name: "server",
        lock_order: true,
        guard_blocking: true,
        guard_spawn: true,
        unbounded_channel: true,
        reactor_nonblocking: true,
    },
    CrateSpec {
        name: "trace",
        lock_order: true,
        guard_blocking: false,
        guard_spawn: false,
        unbounded_channel: false,
        reactor_nonblocking: false,
    },
];

/// Whether one analyze rule is enabled for a crate spec.
type RuleFlag = fn(&CrateSpec) -> bool;

/// Prints which crates each analyze rule covers (`cargo xtask analyze
/// --crates`); CI greps this like it greps `lint --crates`.
pub fn print_coverage() {
    let rules: [(&str, RuleFlag); 5] = [
        ("lock-order", |s| s.lock_order),
        ("no-guard-across-blocking", |s| s.guard_blocking),
        ("no-guard-across-spawn", |s| s.guard_spawn),
        ("no-unbounded-channel", |s| s.unbounded_channel),
        ("no-blocking-in-reactor", |s| s.reactor_nonblocking),
    ];
    for (rule, enabled) in rules {
        let crates: Vec<&str> =
            DEFAULT_SPECS.iter().filter(|s| enabled(s)).map(|s| s.name).collect();
        println!("{rule}: {}", crates.join(" "));
    }
}

/// One observed lock-order edge with its first witness site.
#[derive(Debug, Clone)]
pub struct EdgeSite {
    /// Holding this lock …
    pub from: String,
    /// … while acquiring this one.
    pub to: String,
    /// Workspace-relative path of the witness.
    pub path: String,
    /// 1-based line of the witness acquisition/call.
    pub line: usize,
    /// Function the witness sits in (`via callee` for inlined edges).
    pub context: String,
}

/// Everything one analysis pass produced.
#[derive(Debug, Default)]
pub struct Analysis {
    /// Rule violations, sorted by (path, line).
    pub violations: Vec<Violation>,
    /// Lock declarations discovered.
    pub locks: Vec<LockDecl>,
    /// Lock-order edges with witness sites.
    pub edges: Vec<EdgeSite>,
    /// Functions modeled.
    pub functions: usize,
    /// Files scanned.
    pub files: usize,
    /// Acquisitions that could not be resolved to a declared lock.
    pub unresolved: usize,
}

/// A per-callee effect summary used for one level of inlining.
#[derive(Debug, Clone, Default)]
struct FnSummary {
    /// Locks acquired directly, as `Resolved(id)` or `Param(index)`.
    acqs: Vec<LockRef>,
    /// First blocking operation in the body, if any.
    blocking: Option<String>,
    /// First spawn in the body, if any.
    spawn: Option<String>,
    /// Whether the return type hands a guard to the caller.
    returns_guard: bool,
    /// Index into the crate's file list (for single-decl fallback).
    file: usize,
}

/// A lock reference before call-site resolution.
#[derive(Debug, Clone, PartialEq, Eq)]
enum LockRef {
    /// A declared lock identity.
    Resolved(String),
    /// The callee's n-th parameter (a `&Mutex`/`&RwLock`).
    Param(usize),
}

/// Runs the analysis over `specs` under `root` (no allowlist filtering —
/// the CLI driver applies it; tests call this directly).
pub fn analyze_tree(root: &Path, specs: &[CrateSpec]) -> Analysis {
    let models: Vec<(CrateSpec, CrateModel)> =
        specs.iter().map(|s| (*s, build_crate(root, s.name))).collect();
    let mut out = Analysis::default();
    let mut edges: BTreeMap<(String, String), EdgeSite> = BTreeMap::new();

    for (spec, model) in &models {
        out.files += model.files.len();
        out.locks.extend(model.decls().cloned());
        let decls: Vec<&LockDecl> = model.decls().collect();
        let summaries = summarize(model, &decls);
        for (fi, file) in model.files.iter().enumerate() {
            for f in &file.fns {
                out.functions += 1;
                walk_fn(spec, model, &decls, &summaries, fi, f, &mut edges, &mut out);
            }
        }
    }

    let edge_pairs: Vec<(String, String)> =
        edges.keys().map(|(a, b)| (a.clone(), b.clone())).collect();
    for cycle in find_cycles(&edge_pairs) {
        let mut parts = Vec::new();
        for w in cycle.windows(2) {
            if let Some(site) = edges.get(&(w[0].clone(), w[1].clone())) {
                parts.push(format!(
                    "{} -> {} at {}:{} ({})",
                    site.from, site.to, site.path, site.line, site.context
                ));
            }
        }
        let anchor =
            cycle.windows(2).find_map(|w| edges.get(&(w[0].clone(), w[1].clone()))).cloned();
        let (path, line) = anchor.map(|s| (s.path, s.line)).unwrap_or_default();
        out.violations.push(Violation {
            path,
            line,
            rule: "lock-order",
            message: format!(
                "potential deadlock: lock-order cycle {}; every thread must \
                 acquire these locks in one consistent order [{}]",
                cycle.join(" -> "),
                parts.join("; ")
            ),
        });
    }

    out.edges = edges.into_values().collect();
    out.violations
        .sort_by(|a, b| (&a.path, a.line, a.rule).cmp(&(&b.path, b.line, b.rule)));
    out
}

/// Builds per-function summaries for one crate. Names that appear more
/// than once are marked ambiguous and never resolved at call sites.
fn summarize<'m>(
    model: &'m CrateModel,
    decls: &[&LockDecl],
) -> BTreeMap<&'m str, Option<FnSummary>> {
    let mut summaries: BTreeMap<&str, Option<FnSummary>> = BTreeMap::new();
    // First pass: direct effects only.
    for (fi, file) in model.files.iter().enumerate() {
        for f in &file.fns {
            let mut s =
                FnSummary { returns_guard: f.returns_guard, file: fi, ..FnSummary::default() };
            for e in &f.events {
                match e {
                    Event::Acq(a) => {
                        if let Some(r) = resolve_receiver(&a.receiver, f, fi, model, decls) {
                            s.acqs.push(r);
                        }
                    }
                    Event::Blocking(b) if s.blocking.is_none() => {
                        s.blocking = Some(b.what.clone());
                    }
                    Event::Spawn(sp) if s.spawn.is_none() => s.spawn = Some(sp.what.clone()),
                    _ => {}
                }
            }
            match summaries.entry(f.name.as_str()) {
                std::collections::btree_map::Entry::Vacant(v) => {
                    v.insert(Some(s));
                }
                std::collections::btree_map::Entry::Occupied(mut o) => {
                    o.insert(None); // ambiguous name: never resolve
                }
            }
        }
    }
    // Second pass: fold in locks obtained through guard-returning helpers
    // (`let state = lock(&self.state)`) so callers one level up see them.
    let mut extra: BTreeMap<String, Vec<String>> = BTreeMap::new();
    for file in &model.files {
        for f in &file.fns {
            let mut locks = Vec::new();
            for e in &f.events {
                if let Event::Call(c) = e {
                    if c.qualified {
                        continue;
                    }
                    if let Some(Some(callee)) = summaries.get(c.callee.as_str()) {
                        if callee.returns_guard {
                            locks.extend(resolve_call_locks(callee, c, model, decls));
                        }
                    }
                }
            }
            if !locks.is_empty() {
                extra.entry(f.name.clone()).or_default().extend(locks);
            }
        }
    }
    for (name, locks) in extra {
        if let Some(Some(s)) = summaries.get_mut(name.as_str()) {
            for l in locks {
                let r = LockRef::Resolved(l);
                if !s.acqs.contains(&r) {
                    s.acqs.push(r);
                }
            }
        }
    }
    summaries
}

/// Resolves an acquisition receiver to a lock, in priority order: a decl
/// in the same file, a crate-unique decl, a lock-typed parameter of the
/// enclosing function, then the same-file single-decl fallback.
fn resolve_receiver(
    receiver: &str,
    f: &FnModel,
    file_idx: usize,
    model: &CrateModel,
    decls: &[&LockDecl],
) -> Option<LockRef> {
    let file = &model.files[file_idx];
    if let Some(d) = file.decls.iter().find(|d| d.name == receiver) {
        return Some(LockRef::Resolved(d.id.clone()));
    }
    let crate_matches: Vec<&&LockDecl> = decls.iter().filter(|d| d.name == receiver).collect();
    if crate_matches.len() == 1 {
        return Some(LockRef::Resolved(crate_matches[0].id.clone()));
    }
    if let Some(i) = f.params.iter().position(|p| p.is_lock && p.name == receiver) {
        return Some(LockRef::Param(i));
    }
    if file.decls.len() == 1 {
        return Some(LockRef::Resolved(file.decls[0].id.clone()));
    }
    None
}

/// Resolves a callee's acquisitions for one call site: `Resolved` ids pass
/// through; `Param(i)` binds via the i-th argument's identifiers, falling
/// back to the callee file's single declaration.
fn resolve_call_locks(
    callee: &FnSummary,
    call: &CallEvent,
    model: &CrateModel,
    decls: &[&LockDecl],
) -> Vec<String> {
    let mut out = Vec::new();
    for acq in &callee.acqs {
        match acq {
            LockRef::Resolved(id) => out.push(id.clone()),
            LockRef::Param(i) => {
                let by_arg = call.arg_idents.get(*i).and_then(|idents| {
                    idents.iter().find_map(|w| {
                        let matches: Vec<&&LockDecl> =
                            decls.iter().filter(|d| &d.name == w).collect();
                        (matches.len() == 1).then(|| matches[0].id.clone())
                    })
                });
                if let Some(id) = by_arg {
                    out.push(id);
                } else if let Some(file) = model.files.get(callee.file) {
                    if file.decls.len() == 1 {
                        out.push(file.decls[0].id.clone());
                    }
                }
            }
        }
    }
    out.sort();
    out.dedup();
    out
}

/// A guard currently live during the event walk.
#[derive(Debug, Clone)]
struct LiveGuard {
    lock: String,
    binding: Option<String>,
    live_end: usize,
}

/// Walks one function's events, recording edges and rule violations.
#[allow(clippy::too_many_arguments)]
fn walk_fn(
    spec: &CrateSpec,
    model: &CrateModel,
    decls: &[&LockDecl],
    summaries: &BTreeMap<&str, Option<FnSummary>>,
    file_idx: usize,
    f: &FnModel,
    edges: &mut BTreeMap<(String, String), EdgeSite>,
    out: &mut Analysis,
) {
    let path = &model.files[file_idx].path;
    let in_reactor = spec.reactor_nonblocking && path.ends_with("reactor.rs");
    let mut live: Vec<LiveGuard> = Vec::new();
    for e in &f.events {
        live.retain(|g| g.live_end > e.idx());
        match e {
            Event::Acq(a) => {
                match resolve_receiver(&a.receiver, f, file_idx, model, decls) {
                    Some(LockRef::Resolved(lock)) => {
                        if spec.lock_order {
                            for g in &live {
                                record_edge(edges, &g.lock, &lock, path, a.line, &f.name);
                            }
                        }
                        live.push(LiveGuard {
                            lock,
                            binding: a.binding.clone(),
                            live_end: a.live_end,
                        });
                    }
                    Some(LockRef::Param(_)) => {} // accounted at call sites
                    None => out.unresolved += 1,
                }
            }
            Event::Call(c) => {
                // `drop(guard)` ends a live range early.
                if c.callee == "drop" && !c.qualified && c.arg_idents.len() == 1 {
                    if let Some(name) = c.arg_idents[0].first() {
                        live.retain(|g| g.binding.as_deref() != Some(name.as_str()));
                    }
                    continue;
                }
                if spec.unbounded_channel
                    && c.callee == "channel"
                    && c.path_prefix.as_deref() == Some("mpsc")
                    && c.arg_idents.is_empty()
                {
                    out.violations.push(Violation {
                        path: path.clone(),
                        line: c.line,
                        rule: "no-unbounded-channel",
                        message: format!(
                            "`mpsc::channel()` in fn `{}` — an unbounded queue defeats \
                             the admission-controlled pool; use `mpsc::sync_channel` \
                             or `WorkerPool::try_submit`",
                            f.name
                        ),
                    });
                }
                if c.qualified {
                    continue;
                }
                let Some(Some(callee)) = summaries.get(c.callee.as_str()) else {
                    continue;
                };
                let callee_locks = resolve_call_locks(callee, c, model, decls);
                if spec.lock_order {
                    for g in &live {
                        for l in &callee_locks {
                            record_edge(
                                edges,
                                &g.lock,
                                l,
                                path,
                                c.line,
                                &format!("{} via {}", f.name, c.callee),
                            );
                        }
                    }
                }
                if in_reactor {
                    if let Some(what) = &callee.blocking {
                        out.violations.push(reactor_violation(
                            path,
                            c.line,
                            &f.name,
                            &format!("{what} (via `{}`)", c.callee),
                        ));
                    }
                }
                if !live.is_empty() {
                    if spec.guard_blocking {
                        if let Some(what) = &callee.blocking {
                            out.violations.push(blocking_violation(
                                path,
                                c.line,
                                &f.name,
                                &live,
                                &format!("{what} (via `{}`)", c.callee),
                            ));
                        }
                    }
                    if spec.guard_spawn {
                        if let Some(what) = &callee.spawn {
                            out.violations.push(spawn_violation(
                                path,
                                c.line,
                                &f.name,
                                &live,
                                &format!("{what} (via `{}`)", c.callee),
                            ));
                        }
                    }
                }
                if callee.returns_guard {
                    // The helper's acquisition happens at this call site;
                    // the returned guard lives in the caller's scope.
                    for l in callee_locks {
                        live.push(LiveGuard {
                            lock: l,
                            binding: c.binding.clone(),
                            live_end: c.live_end,
                        });
                    }
                }
            }
            Event::Blocking(b) => {
                if in_reactor {
                    out.violations.push(reactor_violation(path, b.line, &f.name, &b.what));
                }
                if spec.guard_blocking && !live.is_empty() {
                    out.violations.push(blocking_violation(path, b.line, &f.name, &live, &b.what));
                }
            }
            Event::Spawn(s) => {
                if spec.guard_spawn && !live.is_empty() {
                    out.violations.push(spawn_violation(path, s.line, &f.name, &live, &s.what));
                }
            }
        }
    }
}

/// Formats a `no-guard-across-blocking` violation.
fn blocking_violation(
    path: &str,
    line: usize,
    fn_name: &str,
    live: &[LiveGuard],
    what: &str,
) -> Violation {
    Violation {
        path: path.to_string(),
        line,
        rule: "no-guard-across-blocking",
        message: format!(
            "guard on {} held across blocking {what} in fn `{fn_name}` — \
             drop the guard (or clone what it protects) before blocking",
            held_list(live)
        ),
    }
}

/// Formats a `no-blocking-in-reactor` violation.
fn reactor_violation(path: &str, line: usize, fn_name: &str, what: &str) -> Violation {
    Violation {
        path: path.to_string(),
        line,
        rule: "no-blocking-in-reactor",
        message: format!(
            "blocking {what} in reactor fn `{fn_name}` — the reactor thread owns \
             every connection, so one blocking call stalls all of them; hand the \
             work to a worker or use a readiness-driven (WouldBlock) call"
        ),
    }
}

/// Formats a `no-guard-across-spawn` violation.
fn spawn_violation(
    path: &str,
    line: usize,
    fn_name: &str,
    live: &[LiveGuard],
    what: &str,
) -> Violation {
    Violation {
        path: path.to_string(),
        line,
        rule: "no-guard-across-spawn",
        message: format!(
            "guard on {} live across {what} in fn `{fn_name}` — the spawned \
             thread's lifetime is unbounded while the lock stays held",
            held_list(live)
        ),
    }
}

/// Renders the live-guard set for a diagnostic.
fn held_list(live: &[LiveGuard]) -> String {
    let names: BTreeSet<&str> = live.iter().map(|g| g.lock.as_str()).collect();
    names.into_iter().collect::<Vec<_>>().join(", ")
}

/// Records the first witness of an edge; self-edges are skipped (sharded
/// locks share one identity, and re-acquiring the same mutex is caught by
/// the debug-build registry instead).
fn record_edge(
    edges: &mut BTreeMap<(String, String), EdgeSite>,
    from: &str,
    to: &str,
    path: &str,
    line: usize,
    context: &str,
) {
    if from == to {
        return;
    }
    edges.entry((from.to_string(), to.to_string())).or_insert_with(|| EdgeSite {
        from: from.to_string(),
        to: to.to_string(),
        path: path.to_string(),
        line,
        context: context.to_string(),
    });
}

/// Finds cycles in a directed edge list. Returns one canonical cycle per
/// strongly connected component of size ≥ 2, as a node path whose first
/// and last elements are equal (`a -> b -> a` is `["a","b","a"]`), with
/// the smallest node first for determinism.
pub fn find_cycles(edges: &[(String, String)]) -> Vec<Vec<String>> {
    let mut adj: BTreeMap<&str, BTreeSet<&str>> = BTreeMap::new();
    let mut nodes: BTreeSet<&str> = BTreeSet::new();
    for (a, b) in edges {
        adj.entry(a).or_default().insert(b);
        nodes.insert(a);
        nodes.insert(b);
    }
    let sccs = tarjan(&nodes, &adj);
    let mut cycles = Vec::new();
    for scc in sccs {
        if scc.len() < 2 {
            continue;
        }
        let inside: BTreeSet<&str> = scc.iter().copied().collect();
        let start = *scc.iter().min().expect("non-empty SCC");
        // DFS within the SCC from `start` back to itself.
        if let Some(path) = cycle_path(start, &inside, &adj) {
            cycles.push(path.into_iter().map(str::to_string).collect());
        }
    }
    cycles
}

/// Iterative Tarjan SCC over string nodes.
fn tarjan<'a>(
    nodes: &BTreeSet<&'a str>,
    adj: &BTreeMap<&'a str, BTreeSet<&'a str>>,
) -> Vec<Vec<&'a str>> {
    #[derive(Default, Clone)]
    struct NodeState {
        index: Option<usize>,
        lowlink: usize,
        on_stack: bool,
    }
    let mut state: BTreeMap<&str, NodeState> = BTreeMap::new();
    let mut stack: Vec<&str> = Vec::new();
    let mut next_index = 0usize;
    let mut sccs: Vec<Vec<&str>> = Vec::new();
    let empty = BTreeSet::new();

    for &root in nodes {
        if state.get(root).and_then(|s| s.index).is_some() {
            continue;
        }
        // Explicit DFS stack: (node, neighbor iterator position).
        let mut dfs: Vec<(&str, Vec<&str>, usize)> = Vec::new();
        let neigh: Vec<&str> = adj.get(root).unwrap_or(&empty).iter().copied().collect();
        state.entry(root).or_default().index = Some(next_index);
        state.entry(root).or_default().lowlink = next_index;
        state.entry(root).or_default().on_stack = true;
        stack.push(root);
        next_index += 1;
        dfs.push((root, neigh, 0));
        while let Some((v, neighbors, mut pos)) = dfs.pop() {
            let mut descended = false;
            while pos < neighbors.len() {
                let w = neighbors[pos];
                pos += 1;
                let w_state = state.entry(w).or_default().clone();
                match w_state.index {
                    None => {
                        state.entry(w).or_default().index = Some(next_index);
                        state.entry(w).or_default().lowlink = next_index;
                        state.entry(w).or_default().on_stack = true;
                        stack.push(w);
                        next_index += 1;
                        let wn: Vec<&str> = adj.get(w).unwrap_or(&empty).iter().copied().collect();
                        dfs.push((v, neighbors, pos));
                        dfs.push((w, wn, 0));
                        descended = true;
                        break;
                    }
                    Some(wi) if w_state.on_stack => {
                        let vl = state.entry(v).or_default().lowlink;
                        state.entry(v).or_default().lowlink = vl.min(wi);
                    }
                    _ => {}
                }
            }
            if descended {
                continue;
            }
            // v is finished: pop an SCC if v is a root.
            let v_state = state.entry(v).or_default().clone();
            if Some(v_state.lowlink) == v_state.index {
                let mut scc = Vec::new();
                while let Some(w) = stack.pop() {
                    state.entry(w).or_default().on_stack = false;
                    scc.push(w);
                    if w == v {
                        break;
                    }
                }
                scc.sort_unstable();
                sccs.push(scc);
            }
            // Propagate lowlink to the parent.
            if let Some((p, _, _)) = dfs.last() {
                let pl = state.entry(p).or_default().lowlink;
                let vl = state.entry(v).or_default().lowlink;
                if vl < pl {
                    state.entry(p).or_default().lowlink = vl;
                }
            }
        }
    }
    sccs
}

/// A concrete cycle path from `start` back to itself within `inside`.
fn cycle_path<'a>(
    start: &'a str,
    inside: &BTreeSet<&'a str>,
    adj: &BTreeMap<&'a str, BTreeSet<&'a str>>,
) -> Option<Vec<&'a str>> {
    let mut path = vec![start];
    let mut visited: BTreeSet<&str> = BTreeSet::new();
    visited.insert(start);
    loop {
        let cur = *path.last()?;
        let next = adj
            .get(cur)?
            .iter()
            .filter(|n| inside.contains(*n))
            .find(|n| **n == start || !visited.contains(*n))?;
        if *next == start {
            path.push(start);
            return Some(path);
        }
        visited.insert(next);
        path.push(next);
    }
}

/// Output format for the CLI driver.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OutputFormat {
    /// `path:line: [rule] message` lines plus a summary on stderr.
    Text,
    /// A single JSON object on stdout (for CI artifact upload).
    Json,
}

/// CLI entry point: analyze the production crate set under `root`, filter
/// through `lint-allow.toml`, and report. Exits nonzero on violations.
pub fn run(root: &Path, format: OutputFormat, verbose: bool) -> ExitCode {
    let allow_path = root.join("crates/xtask/lint-allow.toml");
    let allowlist = Allowlist::load(&allow_path);
    if !allowlist.errors.is_empty() {
        eprintln!("error: malformed {}:", allow_path.display());
        for e in &allowlist.errors {
            eprintln!("  {e}");
        }
        return ExitCode::FAILURE;
    }

    let analysis = analyze_tree(root, DEFAULT_SPECS);

    // Allowlist filtering needs the flagged line's text; re-read lazily.
    let mut line_cache: BTreeMap<String, Vec<String>> = BTreeMap::new();
    let mut kept = Vec::new();
    let mut suppressed = 0usize;
    for v in &analysis.violations {
        let lines = line_cache.entry(v.path.clone()).or_insert_with(|| {
            std::fs::read_to_string(root.join(&v.path))
                .map(|t| t.lines().map(str::to_string).collect())
                .unwrap_or_default()
        });
        let raw = lines.get(v.line.saturating_sub(1)).map(String::as_str).unwrap_or("");
        match allowlist.matches(v.rule, &v.path, raw, raw) {
            Some(_) => suppressed += 1,
            None => kept.push(v.clone()),
        }
    }

    match format {
        OutputFormat::Text => {
            for v in &kept {
                println!("{}:{}: [{}] {}", v.path, v.line, v.rule, v.message);
            }
            if verbose {
                for d in &analysis.locks {
                    eprintln!("lock: {} ({}:{})", d.id, d.path, d.line);
                }
                for e in &analysis.edges {
                    eprintln!(
                        "edge: {} -> {} at {}:{} ({})",
                        e.from, e.to, e.path, e.line, e.context
                    );
                }
            }
            eprintln!(
                "xtask analyze: {} file(s), {} fn(s), {} lock(s), {} edge(s), \
                 {} violation(s), {} suppressed by allowlist, {} unresolved acquisition(s)",
                analysis.files,
                analysis.functions,
                analysis.locks.len(),
                analysis.edges.len(),
                kept.len(),
                suppressed,
                analysis.unresolved,
            );
        }
        OutputFormat::Json => {
            let mut out = String::from("{\"tool\":\"xtask-analyze\",\"violations\":[");
            for (i, v) in kept.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str(&format!(
                    "{{\"path\":{},\"line\":{},\"rule\":{},\"message\":{}}}",
                    json_str(&v.path),
                    v.line,
                    json_str(v.rule),
                    json_str(&v.message)
                ));
            }
            out.push_str("],\"locks\":[");
            for (i, d) in analysis.locks.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str(&json_str(&d.id));
            }
            out.push_str(&format!(
                "],\"summary\":{{\"files\":{},\"functions\":{},\"locks\":{},\"edges\":{},\
                 \"violations\":{},\"suppressed\":{},\"unresolved\":{}}}}}",
                analysis.files,
                analysis.functions,
                analysis.locks.len(),
                analysis.edges.len(),
                kept.len(),
                suppressed,
                analysis.unresolved,
            ));
            println!("{out}");
        }
    }

    if kept.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Minimal JSON string escaping (quotes, backslashes, control chars).
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn e(a: &str, b: &str) -> (String, String) {
        (a.to_string(), b.to_string())
    }

    #[test]
    fn two_cycle_detected() {
        let cycles = find_cycles(&[e("a", "b"), e("b", "a")]);
        assert_eq!(cycles, vec![vec!["a".to_string(), "b".to_string(), "a".to_string()]]);
    }

    #[test]
    fn three_cycle_detected() {
        let cycles = find_cycles(&[e("b", "c"), e("c", "a"), e("a", "b")]);
        assert_eq!(cycles.len(), 1);
        assert_eq!(cycles[0].first(), cycles[0].last());
        assert_eq!(cycles[0].len(), 4);
        assert_eq!(cycles[0][0], "a");
    }

    #[test]
    fn dag_has_no_cycles() {
        let cycles = find_cycles(&[e("a", "b"), e("b", "c"), e("a", "c")]);
        assert!(cycles.is_empty());
    }

    #[test]
    fn disjoint_cycles_both_reported() {
        let cycles = find_cycles(&[e("a", "b"), e("b", "a"), e("x", "y"), e("y", "x")]);
        assert_eq!(cycles.len(), 2);
    }

    #[test]
    fn diamond_with_back_edge_is_one_cycle() {
        // a -> b -> d, a -> c -> d, d -> a: one SCC containing all four.
        let cycles =
            find_cycles(&[e("a", "b"), e("b", "d"), e("a", "c"), e("c", "d"), e("d", "a")]);
        assert_eq!(cycles.len(), 1);
        let c = &cycles[0];
        assert_eq!(c.first(), c.last());
        assert_eq!(c[0], "a");
    }

    #[test]
    fn json_escaping() {
        assert_eq!(json_str("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
    }
}
