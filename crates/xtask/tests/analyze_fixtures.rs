//! End-to-end proof for every analyze rule: each one fires on its
//! fixture crate at the exact expected line, and the clean control stays
//! silent. Fixtures live under `tests/fixtures/crates/` in workspace
//! layout so [`analyze_tree`] walks them exactly as it walks the real
//! tree; they are never compiled.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::path::PathBuf;

use xtask::analyze::{analyze_tree, find_cycles, CrateSpec};

fn fixtures_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures")
}

fn spec(name: &'static str) -> CrateSpec {
    CrateSpec {
        name,
        lock_order: true,
        guard_blocking: true,
        guard_spawn: true,
        unbounded_channel: true,
        reactor_nonblocking: true,
    }
}

#[test]
fn deadcycle_fixture_reports_the_ab_ba_cycle() {
    let analysis = analyze_tree(&fixtures_root(), &[spec("deadcycle")]);
    assert_eq!(analysis.locks.len(), 2, "ALPHA and BETA must both be discovered");
    assert_eq!(analysis.unresolved, 0);

    let cycles: Vec<_> = analysis.violations.iter().filter(|v| v.rule == "lock-order").collect();
    assert_eq!(cycles.len(), 1, "exactly one cycle: {:?}", analysis.violations);
    let v = cycles[0];
    assert!(v.path.ends_with("deadcycle/src/lib.rs"), "got {}", v.path);
    // The canonical cycle starts at ALPHA, so the anchoring witness is the
    // ALPHA->BETA edge: BETA's acquisition inside `forward`.
    assert_eq!(v.line, 15, "witness must be BETA's acquisition in forward(): {v:?}");
    assert!(v.message.contains("deadcycle/lib.ALPHA"), "got {}", v.message);
    assert!(v.message.contains("deadcycle/lib.BETA"), "got {}", v.message);

    // Both directed edges are on the graph, each with a concrete witness.
    assert_eq!(analysis.edges.len(), 2, "edges: {:?}", analysis.edges);
    assert!(analysis.violations.iter().all(|v| v.rule == "lock-order"));
}

#[test]
fn guardio_fixture_fires_each_guard_rule_at_the_exact_line() {
    let analysis = analyze_tree(&fixtures_root(), &[spec("guardio")]);
    assert_eq!(analysis.unresolved, 0);

    let mut hits: Vec<(&str, usize)> =
        analysis.violations.iter().map(|v| (v.rule, v.line)).collect();
    hits.sort_unstable();
    assert_eq!(
        hits,
        vec![
            ("no-guard-across-blocking", 16),
            ("no-guard-across-spawn", 22),
            ("no-unbounded-channel", 28),
        ],
        "violations: {:#?}",
        analysis.violations
    );
    for v in &analysis.violations {
        assert!(v.path.ends_with("guardio/src/lib.rs"), "got {}", v.path);
    }
    let io = analysis
        .violations
        .iter()
        .find(|v| v.rule == "no-guard-across-blocking")
        .expect("blocking violation present");
    assert!(io.message.contains("guardio/lib.LOG"), "got {}", io.message);
}

#[test]
fn reactorblock_fixture_flags_blocking_only_inside_the_reactor_file() {
    let analysis = analyze_tree(&fixtures_root(), &[spec("reactorblock")]);
    let mut hits: Vec<(&str, usize)> =
        analysis.violations.iter().map(|v| (v.rule, v.line)).collect();
    hits.sort_unstable();
    assert_eq!(
        hits,
        vec![
            ("no-blocking-in-reactor", 9),
            ("no-blocking-in-reactor", 14),
            ("no-blocking-in-reactor", 19),
        ],
        "violations: {:#?}",
        analysis.violations
    );
    for v in &analysis.violations {
        assert!(
            v.path.ends_with("reactorblock/src/reactor.rs"),
            "the rule is file-scoped; lib.rs blocking must not fire: {v:?}"
        );
        assert!(v.message.contains("reactor"), "got {}", v.message);
    }
}

#[test]
fn clean_fixture_is_silent() {
    let analysis = analyze_tree(&fixtures_root(), &[spec("clean")]);
    assert_eq!(analysis.locks.len(), 2, "the control still declares two locks");
    assert_eq!(analysis.unresolved, 0);
    assert!(
        analysis.violations.is_empty(),
        "the control must not fire any rule: {:#?}",
        analysis.violations
    );
    // Consistent ordering produces the FIRST->SECOND edge — and only it.
    assert_eq!(analysis.edges.len(), 1, "edges: {:?}", analysis.edges);
    assert!(find_cycles(
        &analysis
            .edges
            .iter()
            .map(|e| (e.from.clone(), e.to.clone()))
            .collect::<Vec<_>>()
    )
    .is_empty());
}

#[test]
fn firing_and_control_fixtures_do_not_interfere() {
    // All three crates analyzed together: the union of findings is exactly
    // the union of the per-crate findings (crate-local call graphs must not
    // leak across fixture crates).
    let analysis =
        analyze_tree(&fixtures_root(), &[spec("clean"), spec("deadcycle"), spec("guardio")]);
    assert_eq!(analysis.violations.len(), 4, "violations: {:#?}", analysis.violations);
    assert_eq!(analysis.locks.len(), 5);
}
