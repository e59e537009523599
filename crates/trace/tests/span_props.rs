//! Property tests for span nesting: arbitrary open/close sequences must
//! produce a well-formed tree that mirrors the execution shape exactly, and
//! the global per-kind aggregates must advance by precisely the durations
//! recorded in the emitted trace.
//!
//! The tracer's sinks are process-global, so every property here serializes
//! on one mutex and runs in this dedicated integration binary — no other
//! test shares the process, which makes aggregate *deltas* exact.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use gks_trace::{histogram, recent_traces, reset, set_enabled, span, SpanKind, SpanNode};
use proptest::prelude::*;
use std::sync::{Mutex, MutexGuard, PoisonError};

/// A pure tree of span kinds — the shape we will execute and then expect
/// back from the tracer.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Shape {
    kind: SpanKind,
    children: Vec<Shape>,
}

fn arb_kind() -> impl Strategy<Value = SpanKind> {
    prop::sample::select(SpanKind::ALL.to_vec())
}

/// Arbitrary span trees up to depth 4 with ≤ 3 children per node. Kinds may
/// repeat anywhere (the tracer places no uniqueness constraints), which is
/// exactly what makes the aggregate-equality property interesting.
fn arb_shape() -> BoxedStrategy<Shape> {
    arb_kind().prop_map(|kind| Shape { kind, children: Vec::new() }).prop_recursive(
        4,
        24,
        3,
        |inner| {
            (arb_kind(), prop::collection::vec(inner, 0..3))
                .prop_map(|(kind, children)| Shape { kind, children })
        },
    )
}

/// Executes `shape` as nested RAII spans, strictly LIFO (children open and
/// close inside their parent's lifetime, in order).
fn execute(shape: &Shape) {
    let _guard = span(shape.kind);
    for child in &shape.children {
        execute(child);
    }
}

/// Does the completed node tree have the same kinds-and-structure as the
/// executed shape?
fn matches(node: &SpanNode, shape: &Shape) -> bool {
    node.kind == shape.kind
        && node.children.len() == shape.children.len()
        && node.children.iter().zip(&shape.children).all(|(n, s)| matches(n, s))
}

/// Spans of `kind` in the shape (what the aggregate count must grow by).
fn kind_count(shape: &Shape, kind: SpanKind) -> u64 {
    let own = u64::from(shape.kind == kind);
    own + shape.children.iter().map(|c| kind_count(c, kind)).sum::<u64>()
}

/// Child spans run inside their parent, so every node's duration must be at
/// least the sum of its children's durations (monotonic clock).
fn durations_nest(node: &SpanNode) -> bool {
    let child_sum: u64 = node.children.iter().map(|c| c.micros).sum();
    node.micros >= child_sum && node.children.iter().all(durations_nest)
}

static TEST_LOCK: Mutex<()> = Mutex::new(());

fn tracer_session() -> MutexGuard<'static, ()> {
    let guard = TEST_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
    reset();
    set_enabled(true);
    guard
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// One executed shape → one completed trace whose tree is structurally
    /// identical, with nesting-consistent durations and offsets.
    #[test]
    fn trace_tree_mirrors_execution(shape in arb_shape()) {
        let _session = tracer_session();
        execute(&shape);
        set_enabled(false);
        let traces = recent_traces(usize::MAX);
        prop_assert_eq!(traces.len(), 1, "exactly one root span → one trace");
        let root = &traces[0].root;
        prop_assert!(matches(root, &shape), "tree shape {root:?} != executed {shape:?}");
        prop_assert!(durations_nest(root), "child durations exceed parent in {root:?}");
        prop_assert_eq!(root.offset_micros, 0, "root starts at offset 0");
    }

    /// The global per-kind aggregates advance by exactly the durations the
    /// trace records: count delta = number of spans of that kind executed,
    /// sum delta = sum of those spans' durations in the emitted tree.
    #[test]
    fn aggregates_equal_trace_sums(shapes in prop::collection::vec(arb_shape(), 1..4)) {
        let _session = tracer_session();
        let before: Vec<(u64, u64)> =
            SpanKind::ALL.iter().map(|&k| (histogram(k).count(), histogram(k).sum())).collect();
        for shape in &shapes {
            execute(shape);
        }
        set_enabled(false);
        let traces = recent_traces(usize::MAX);
        prop_assert_eq!(traces.len(), shapes.len());
        for (i, &kind) in SpanKind::ALL.iter().enumerate() {
            let count_delta = histogram(kind).count() - before[i].0;
            let sum_delta = histogram(kind).sum() - before[i].1;
            let expected_count: u64 = shapes.iter().map(|s| kind_count(s, kind)).sum();
            let expected_sum: u64 = traces.iter().map(|t| t.root.kind_micros(kind)).sum();
            prop_assert_eq!(count_delta, expected_count, "count delta for {}", kind.label());
            prop_assert_eq!(sum_delta, expected_sum, "sum delta for {}", kind.label());
        }
    }

    /// Spans opened while tracing is disabled leave no trace even when other
    /// spans are being recorded around them.
    #[test]
    fn disabled_spans_are_invisible(shape in arb_shape()) {
        let _session = tracer_session();
        set_enabled(false);
        execute(&shape);
        prop_assert!(recent_traces(usize::MAX).is_empty());
        for kind in SpanKind::ALL {
            prop_assert_eq!(histogram(kind).count(), 0);
        }
    }
}
