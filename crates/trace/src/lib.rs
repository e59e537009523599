//! # gks-trace — end-to-end query tracing for the GKS pipeline
//!
//! The paper's evaluation (§7) attributes latency to distinct pipeline
//! stages — postings lookup, the sweep that finds nodes with ≥ s keywords,
//! potential-flow ranking, DI mining. This crate makes that attribution a
//! runtime facility instead of a one-off experiment: lightweight **spans**
//! wrap each stage, nest into per-query trees via a thread-local stack, and
//! feed two global sinks:
//!
//! * **per-kind aggregation** — a lock-free [`Histogram`] per [`SpanKind`],
//!   from which `/metrics` derives per-phase latency percentiles;
//! * **a bounded ring buffer** of recent completed traces, dumped by
//!   `GET /debug/traces` and mined by the slow-query log.
//!
//! Design constraints, in order:
//!
//! 1. **Near-zero cost when disabled.** [`span`] checks one relaxed atomic;
//!    when tracing is off it only captures the start instant (which callers
//!    need anyway for their own timings, e.g. a response's elapsed time) and
//!    touches no shared or thread-local state. Drop is a branch.
//! 2. **No locks on the hot path when enabled.** Open/close touch only the
//!    thread-local stack and relaxed atomics; the ring-buffer mutex is taken
//!    once per *completed trace* (i.e. once per query), not per span.
//! 3. **Std-only.** No external crates; the workspace builds offline.
//!
//! Spans are strictly RAII and thread-local: a [`Span`] must be dropped on
//! the thread that opened it (Rust's scoping makes this automatic for the
//! engine's straight-line pipeline). When the outermost span of a thread
//! closes, the assembled tree becomes a [`CompletedTrace`]: it is pushed to
//! the ring, and stashed in a thread-local slot that [`take_last_trace`]
//! drains — that is how the server attaches a `Server-Timing` header and a
//! slow-query log entry to the request that produced the trace.

pub mod hist;
pub mod lockorder;
pub mod tree;

pub use hist::{Histogram, LATENCY_BOUNDS_MICROS};
pub use tree::{CompletedTrace, SpanNode};

use std::cell::RefCell;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// The pipeline stages the tracer distinguishes. Labels (see
/// [`SpanKind::label`]) are part of the wire format: `/metrics` phase
/// labels, `/debug/traces` JSON, `Server-Timing` entries, and the query log
/// all use them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SpanKind {
    /// One whole request as the server sees it (root span per query).
    Request,
    /// Opening a persisted index (`GksIndex::load`).
    IndexOpen,
    /// One engine search call end to end (root when no request wraps it).
    Search,
    /// Query parsing and keyword normalization.
    Parse,
    /// Posting-list fetch plus the k-way merge into `SL`.
    Postings,
    /// Sliding-window candidates, LCE derivation, and the statistics sweep.
    Sweep,
    /// Hit assembly, SLCA-style pruning, and the final sort.
    Rank,
    /// Deeper-Analytical-Insight mining over a response.
    Di,
    /// Response-body serialization (the wire JSON rendering).
    Render,
    /// Parallel fan-out of one search across index shards; carries one
    /// child subtree per shard (captured on the shard's worker thread).
    Scatter,
    /// Merging per-shard answers into one ranked response: re-sort by
    /// potential flow, Dewey tie-break, top-k re-truncation, DI union.
    Gather,
    /// Building and committing one incremental delta: corpus scan, change
    /// detection, delta-shard build, manifest epoch bump.
    DeltaBuild,
    /// Folding accumulated deltas and tombstones back into base shards.
    Compaction,
}

impl SpanKind {
    /// Every kind, in display order.
    pub const ALL: [SpanKind; 13] = [
        SpanKind::Request,
        SpanKind::IndexOpen,
        SpanKind::Search,
        SpanKind::Parse,
        SpanKind::Postings,
        SpanKind::Sweep,
        SpanKind::Rank,
        SpanKind::Di,
        SpanKind::Render,
        SpanKind::Scatter,
        SpanKind::Gather,
        SpanKind::DeltaBuild,
        SpanKind::Compaction,
    ];

    /// The engine phases the acceptance criteria require `/metrics` to
    /// expose percentiles for (a subset of [`SpanKind::ALL`]). `scatter`
    /// and `gather` only occur on sharded indexes; unsharded ones keep a
    /// zero-sample (`-1` sentinel) quantile for them.
    pub const PHASES: [SpanKind; 7] = [
        SpanKind::Parse,
        SpanKind::Postings,
        SpanKind::Sweep,
        SpanKind::Rank,
        SpanKind::Di,
        SpanKind::Scatter,
        SpanKind::Gather,
    ];

    /// The stable wire label of this kind.
    pub fn label(self) -> &'static str {
        match self {
            SpanKind::Request => "request",
            SpanKind::IndexOpen => "index_open",
            SpanKind::Search => "search",
            SpanKind::Parse => "parse",
            SpanKind::Postings => "postings",
            SpanKind::Sweep => "sweep",
            SpanKind::Rank => "rank",
            SpanKind::Di => "di",
            SpanKind::Render => "render",
            SpanKind::Scatter => "scatter",
            SpanKind::Gather => "gather",
            SpanKind::DeltaBuild => "delta_build",
            SpanKind::Compaction => "compaction",
        }
    }

    /// The inverse of [`SpanKind::label`].
    pub fn from_label(label: &str) -> Option<SpanKind> {
        SpanKind::ALL.iter().copied().find(|k| k.label() == label)
    }

    fn index(self) -> usize {
        match self {
            SpanKind::Request => 0,
            SpanKind::IndexOpen => 1,
            SpanKind::Search => 2,
            SpanKind::Parse => 3,
            SpanKind::Postings => 4,
            SpanKind::Sweep => 5,
            SpanKind::Rank => 6,
            SpanKind::Di => 7,
            SpanKind::Render => 8,
            SpanKind::Scatter => 9,
            SpanKind::Gather => 10,
            SpanKind::DeltaBuild => 11,
            SpanKind::Compaction => 12,
        }
    }
}

const KIND_COUNT: usize = SpanKind::ALL.len();

/// Capacity of the completed-trace ring buffer: once it holds this many
/// traces, each new one evicts the oldest.
pub const DEFAULT_RING_CAPACITY: usize = 128;

static ENABLED: AtomicBool = AtomicBool::new(false);
static SEQ: AtomicU64 = AtomicU64::new(0);
static RING: Mutex<VecDeque<CompletedTrace>> = Mutex::new(VecDeque::new());

/// Head-sampling rate: a root span is *sampled* when its arrival number is a
/// multiple of this value (1 = keep every trace). Children inherit the root's
/// decision, so a trace is always kept or dropped whole.
static SAMPLE_EVERY: AtomicU64 = AtomicU64::new(1);
/// Arrival counter for root spans, used only for the sampling decision.
static SAMPLE_SEQ: AtomicU64 = AtomicU64::new(0);

struct SpanCounts {
    by_kind: [AtomicU64; KIND_COUNT],
}

/// Per-kind span totals, bumped on every span close while tracing is enabled
/// — including spans in sampled-out traces. This is what keeps aggregate
/// request accounting exact under head-sampling.
static SPAN_COUNTS: SpanCounts = {
    #[allow(clippy::declare_interior_mutable_const)]
    const ZERO: AtomicU64 = AtomicU64::new(0);
    SpanCounts { by_kind: [ZERO; KIND_COUNT] }
};

struct Aggregates {
    by_kind: [Histogram; KIND_COUNT],
}

static AGGREGATES: Aggregates = {
    #[allow(clippy::declare_interior_mutable_const)]
    const EMPTY: Histogram = Histogram::new();
    Aggregates { by_kind: [EMPTY; KIND_COUNT] }
};

struct OpenSpan {
    kind: SpanKind,
    started: Instant,
    offset_micros: u64,
    children: Vec<SpanNode>,
    /// Whether this span's trace survives head-sampling. Decided once at the
    /// root and inherited by every descendant.
    sampled: bool,
    label: Option<Box<str>>,
    /// Work counters annotated while the span was open (see [`annotate`]).
    counters: Vec<(&'static str, u64)>,
}

thread_local! {
    static STACK: RefCell<Vec<OpenSpan>> = const { RefCell::new(Vec::new()) };
    static LAST: RefCell<Option<CompletedTrace>> = const { RefCell::new(None) };
}

/// Turns span recording on or off process-wide. Spans already open keep
/// recording; spans opened while disabled stay no-ops even if tracing is
/// re-enabled before they close.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Whether span recording is currently enabled.
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Sets head-sampling to keep 1-in-`every` root spans (0 and 1 both mean
/// "keep everything"). Sampled-out traces skip the histogram, ring-buffer,
/// and last-trace sinks, but every span still bumps its [`span_count`] — so
/// aggregate counts remain exact while per-trace detail is thinned.
pub fn set_sample_every(every: u64) {
    SAMPLE_EVERY.store(every.max(1), Ordering::Relaxed);
}

/// Total spans of `kind` closed while tracing was enabled, including spans
/// whose trace was sampled out. Cleared by [`reset`].
pub fn span_count(kind: SpanKind) -> u64 {
    SPAN_COUNTS.by_kind[kind.index()].load(Ordering::Relaxed)
}

/// The global aggregate histogram for one span kind.
pub fn histogram(kind: SpanKind) -> &'static Histogram {
    &AGGREGATES.by_kind[kind.index()]
}

/// The most recent `n` completed traces, oldest first.
pub fn recent_traces(n: usize) -> Vec<CompletedTrace> {
    let ring = lock_ring();
    let skip = ring.len().saturating_sub(n);
    ring.iter().skip(skip).cloned().collect()
}

/// Takes the last trace completed **on this thread**, if any. The slot is
/// cleared both by this call and whenever a new root span opens, so a
/// request handler that opens a root span and drains this afterwards cannot
/// observe a stale trace from an earlier request on the same worker thread.
pub fn take_last_trace() -> Option<CompletedTrace> {
    LAST.with(|last| last.borrow_mut().take())
}

/// Clears every global sink: aggregates, span counts, ring buffer, and the
/// sequence and sampling counters (the sampling *rate* is kept). Benchmarks
/// call this between measurement runs so per-phase percentiles describe
/// exactly one run. Thread-local stacks are untouched (spans still open will
/// complete normally).
pub fn reset() {
    for kind in SpanKind::ALL {
        histogram(kind).reset();
    }
    for counter in &SPAN_COUNTS.by_kind {
        counter.store(0, Ordering::Relaxed);
    }
    lock_ring().clear();
    SEQ.store(0, Ordering::Relaxed);
    SAMPLE_SEQ.store(0, Ordering::Relaxed);
}

fn lock_ring() -> lockorder::Tracked<std::sync::MutexGuard<'static, VecDeque<CompletedTrace>>> {
    // A panic while holding this mutex can only come from allocation
    // failure; recover the data rather than poisoning every later query.
    lockorder::track(
        "trace/lib.RING",
        RING.lock().unwrap_or_else(std::sync::PoisonError::into_inner),
    )
}

fn micros_u64(d: std::time::Duration) -> u64 {
    u64::try_from(d.as_micros()).unwrap_or(u64::MAX)
}

/// An open span. Created by [`span`]; closing happens on drop. The start
/// instant is captured even when tracing is disabled so callers can reuse it
/// for their own timings via [`Span::elapsed_micros`] — this is what lets a
/// search report its elapsed time without a second clock read.
#[derive(Debug)]
pub struct Span {
    started: Instant,
    recording: bool,
}

/// Opens a span of `kind` on this thread. When tracing is enabled the span
/// joins the thread's span stack (nesting under any span already open);
/// when disabled this is one relaxed atomic load plus a clock read.
pub fn span(kind: SpanKind) -> Span {
    open_span(kind, None)
}

/// Like [`span`], but tags the span with a label (e.g. the catalog index
/// name on a request root). The label travels into the trace tree and its
/// JSON/text renderings.
pub fn span_labeled(kind: SpanKind, label: &str) -> Span {
    open_span(kind, Some(label))
}

fn open_span(kind: SpanKind, label: Option<&str>) -> Span {
    let started = Instant::now();
    if !ENABLED.load(Ordering::Relaxed) {
        return Span { started, recording: false };
    }
    STACK.with(|stack| {
        let mut stack = stack.borrow_mut();
        let (offset_micros, sampled) = match stack.first() {
            Some(root) => (micros_u64(root.started.elapsed()), root.sampled),
            None => {
                // A new root span invalidates the thread's last-trace slot:
                // whatever completes next belongs to this root. The root also
                // makes the trace's sampling decision.
                LAST.with(|last| last.borrow_mut().take());
                let every = SAMPLE_EVERY.load(Ordering::Relaxed).max(1);
                (0, SAMPLE_SEQ.fetch_add(1, Ordering::Relaxed).is_multiple_of(every))
            }
        };
        let label = if sampled { label.map(Box::from) } else { None };
        stack.push(OpenSpan {
            kind,
            started,
            offset_micros,
            children: Vec::new(),
            sampled,
            label,
            counters: Vec::new(),
        });
    });
    Span { started, recording: true }
}

/// Adds a work counter to the innermost span open on this thread: spans
/// carry *counters*, not just durations. Repeated keys accumulate, so a
/// stage recorded in pieces still reports one total. A no-op when tracing
/// is disabled, no span is open, or the current trace is sampled out —
/// callers annotate unconditionally and pay one relaxed load on the cold
/// path. Keys must be static identifiers (they are emitted unescaped into
/// the trace JSON).
pub fn annotate(key: &'static str, value: u64) {
    if !ENABLED.load(Ordering::Relaxed) {
        return;
    }
    STACK.with(|stack| {
        let mut stack = stack.borrow_mut();
        let Some(open) = stack.last_mut() else {
            return;
        };
        if !open.sampled {
            return;
        }
        match open.counters.iter_mut().find(|(k, _)| *k == key) {
            Some((_, v)) => *v += value,
            None => open.counters.push((key, value)),
        }
    });
}

impl Span {
    /// Microseconds since this span was opened (valid whether or not
    /// tracing is enabled).
    pub fn elapsed_micros(&self) -> u64 {
        micros_u64(self.started.elapsed())
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if !self.recording {
            return;
        }
        STACK.with(|stack| {
            let mut stack = stack.borrow_mut();
            let Some(open) = stack.pop() else {
                return; // stack cleared mid-span (e.g. by a test); drop quietly
            };
            SPAN_COUNTS.by_kind[open.kind.index()].fetch_add(1, Ordering::Relaxed);
            if !open.sampled {
                // Sampled-out: the count above is the only footprint. No
                // histogram sample, no tree node, no ring entry — and since
                // descendants inherited the decision, none of them pushed a
                // child node either.
                return;
            }
            let micros = micros_u64(open.started.elapsed());
            AGGREGATES.by_kind[open.kind.index()].record(micros);
            let node = SpanNode {
                kind: open.kind,
                label: open.label,
                offset_micros: open.offset_micros,
                micros,
                counters: open.counters,
                children: open.children,
            };
            match stack.last_mut() {
                Some(parent) => parent.children.push(node),
                None => complete_trace(node),
            }
        });
    }
}

/// Result of [`capture`]: the closure's output, its wall-clock duration,
/// and the span subtree recorded while it ran.
#[derive(Debug)]
pub struct Captured<T> {
    /// The closure's return value.
    pub output: T,
    /// Wall-clock duration of the closure, in µs (valid even when tracing
    /// is disabled).
    pub micros: u64,
    /// The recorded subtree, rooted at the captured span. `None` when
    /// tracing was disabled or the capture was not sampled.
    pub node: Option<SpanNode>,
}

/// Whether the innermost span open on this thread belongs to a trace that
/// survived head-sampling (`false` when tracing is disabled or no span is
/// open). Scatter fan-out passes this to [`capture`] on each shard worker
/// so per-shard subtrees follow the request root's sampling decision.
pub fn current_sampled() -> bool {
    if !ENABLED.load(Ordering::Relaxed) {
        return false;
    }
    STACK.with(|stack| stack.borrow().last().is_some_and(|s| s.sampled))
}

/// Runs `f` on the current thread under a span of `kind` whose subtree is
/// **returned** instead of completing a trace — the cross-thread half of
/// scatter/gather tracing. Intended for fresh worker threads with no span
/// open: spans `f` opens nest under the captured span with offsets relative
/// to the capture start, and the finished subtree never touches the ring
/// buffer or last-trace slot of the worker thread. The caller grafts it
/// onto the request trace with [`attach`]. Span counts and aggregate
/// histograms are still fed exactly as for ordinary spans.
pub fn capture<T>(
    kind: SpanKind,
    label: &str,
    sampled: bool,
    f: impl FnOnce() -> T,
) -> Captured<T> {
    let started = Instant::now();
    if !ENABLED.load(Ordering::Relaxed) {
        let output = f();
        return Captured { output, micros: micros_u64(started.elapsed()), node: None };
    }
    let depth = STACK.with(|stack| {
        let mut stack = stack.borrow_mut();
        let label = if sampled {
            Some(Box::from(label))
        } else {
            None
        };
        stack.push(OpenSpan {
            kind,
            started,
            offset_micros: 0,
            children: Vec::new(),
            sampled,
            label,
            counters: Vec::new(),
        });
        stack.len()
    });
    let output = f();
    let micros = micros_u64(started.elapsed());
    let node = STACK.with(|stack| {
        let mut stack = stack.borrow_mut();
        if stack.len() != depth {
            // A span leaked inside `f` (or the stack was cleared); abandon
            // the capture rather than pop someone else's span.
            return None;
        }
        let open = stack.pop()?;
        SPAN_COUNTS.by_kind[open.kind.index()].fetch_add(1, Ordering::Relaxed);
        if !open.sampled {
            return None;
        }
        AGGREGATES.by_kind[open.kind.index()].record(micros);
        Some(SpanNode {
            kind: open.kind,
            label: open.label,
            offset_micros: 0,
            micros,
            counters: open.counters,
            children: open.children,
        })
    });
    Captured { output, micros, node }
}

/// Attaches a subtree recorded by [`capture`] on another thread as a child
/// of the innermost span open on this thread. Offsets inside the subtree
/// (relative to the capture start) are shifted by the open span's own start
/// offset, placing the grafted spans at approximately the right point on
/// the request timeline. No-op when tracing is disabled, no span is open,
/// or the current trace is sampled out.
pub fn attach(node: SpanNode) {
    if !ENABLED.load(Ordering::Relaxed) {
        return;
    }
    STACK.with(|stack| {
        let mut stack = stack.borrow_mut();
        let Some(parent) = stack.last_mut() else {
            return;
        };
        if !parent.sampled {
            return;
        }
        let mut node = node;
        node.shift_offsets(parent.offset_micros);
        parent.children.push(node);
    });
}

fn complete_trace(root: SpanNode) {
    let seq = SEQ.fetch_add(1, Ordering::Relaxed) + 1;
    let trace = CompletedTrace { seq, root };
    LAST.with(|last| *last.borrow_mut() = Some(trace.clone()));
    let mut ring = lock_ring();
    while ring.len() >= DEFAULT_RING_CAPACITY {
        ring.pop_front();
    }
    ring.push_back(trace);
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Mutex, MutexGuard};

    /// Tests in this module mutate global tracer state; serialize them.
    static TEST_LOCK: Mutex<()> = Mutex::new(());

    fn exclusive() -> MutexGuard<'static, ()> {
        let guard = TEST_LOCK.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        set_enabled(false);
        set_sample_every(1);
        reset();
        guard
    }

    #[test]
    fn disabled_spans_record_nothing() {
        let _x = exclusive();
        {
            let s = span(SpanKind::Search);
            assert!(s.elapsed_micros() < 1_000_000, "clock still works while disabled");
        }
        assert_eq!(histogram(SpanKind::Search).count(), 0);
        assert!(recent_traces(10).is_empty());
        assert!(take_last_trace().is_none());
    }

    #[test]
    fn nested_spans_build_a_tree() {
        let _x = exclusive();
        set_enabled(true);
        {
            let _root = span(SpanKind::Request);
            {
                let _search = span(SpanKind::Search);
                let _postings = span(SpanKind::Postings);
            }
            let _di = span(SpanKind::Di);
        }
        set_enabled(false);
        let trace = take_last_trace().expect("a completed trace");
        assert_eq!(trace.root.kind, SpanKind::Request);
        assert_eq!(trace.root.children.len(), 2);
        // Drop order: postings closes before search; both nest under request.
        assert_eq!(trace.root.children[0].kind, SpanKind::Search);
        assert_eq!(trace.root.children[0].children[0].kind, SpanKind::Postings);
        assert_eq!(trace.root.children[1].kind, SpanKind::Di);
        assert_eq!(histogram(SpanKind::Request).count(), 1);
        assert_eq!(histogram(SpanKind::Postings).count(), 1);
        let ring = recent_traces(10);
        assert_eq!(ring.len(), 1);
        assert_eq!(ring[0], trace);
    }

    #[test]
    fn ring_is_bounded_and_ordered() {
        let _x = exclusive();
        set_enabled(true);
        for _ in 0..=DEFAULT_RING_CAPACITY {
            let _s = span(SpanKind::Search);
        }
        set_enabled(false);
        let traces = recent_traces(usize::MAX);
        assert_eq!(traces.len(), DEFAULT_RING_CAPACITY, "capacity bounds the ring");
        let seqs: Vec<u64> = traces.iter().map(|t| t.seq).collect();
        let kept: Vec<u64> = (2..=DEFAULT_RING_CAPACITY as u64 + 1).collect();
        assert_eq!(seqs, kept, "oldest evicted, order kept, newest last");
        assert_eq!(recent_traces(2).len(), 2, "n limits the dump");
        assert_eq!(recent_traces(2)[0].seq, DEFAULT_RING_CAPACITY as u64);
    }

    #[test]
    fn new_root_clears_stale_last_trace() {
        let _x = exclusive();
        set_enabled(true);
        {
            let _a = span(SpanKind::Search);
        }
        // A stale trace sits in the slot now. Opening a new root clears it
        // even if that root records nothing noteworthy and tracing is then
        // turned off before completion is read.
        {
            let _b = span(SpanKind::Request);
            assert!(LAST.with(|l| l.borrow().is_none()), "opening a root span must clear the slot");
        }
        set_enabled(false);
        let t = take_last_trace().expect("trace from the second root");
        assert_eq!(t.root.kind, SpanKind::Request);
    }

    #[test]
    fn head_sampling_keeps_one_in_n_but_counts_everything() {
        let _x = exclusive();
        set_enabled(true);
        set_sample_every(3);
        for _ in 0..7 {
            let _root = span(SpanKind::Request);
            let _child = span(SpanKind::Search);
        }
        set_enabled(false);
        // Roots 1, 4, and 7 (arrival numbers 0, 3, 6) survive sampling.
        let traces = recent_traces(10);
        assert_eq!(traces.len(), 3, "1-in-3 sampling keeps 3 of 7 traces");
        assert_eq!(histogram(SpanKind::Request).count(), 3);
        assert_eq!(histogram(SpanKind::Search).count(), 3);
        // Aggregate span counts stay exact: every request is counted even
        // when its trace was sampled out.
        assert_eq!(span_count(SpanKind::Request), 7);
        assert_eq!(span_count(SpanKind::Search), 7);
        for trace in traces {
            assert_eq!(trace.root.span_count(), 2, "sampled traces are kept whole");
        }
    }

    #[test]
    fn sampled_out_root_leaves_no_last_trace() {
        let _x = exclusive();
        set_enabled(true);
        set_sample_every(2);
        {
            let _kept = span(SpanKind::Request); // arrival 0: sampled
        }
        assert!(take_last_trace().is_some());
        {
            let _dropped = span(SpanKind::Request); // arrival 1: sampled out
        }
        set_enabled(false);
        assert!(take_last_trace().is_none(), "sampled-out trace must not fill the slot");
        assert_eq!(span_count(SpanKind::Request), 2);
    }

    #[test]
    fn span_labels_reach_the_trace_tree() {
        let _x = exclusive();
        set_enabled(true);
        {
            let _root = span_labeled(SpanKind::Request, "dblp");
            let _child = span(SpanKind::Search);
        }
        set_enabled(false);
        let trace = take_last_trace().expect("a completed trace");
        assert_eq!(trace.root.label.as_deref(), Some("dblp"));
        assert_eq!(trace.root.children[0].label, None, "unlabeled spans stay unlabeled");
    }

    #[test]
    fn captured_subtrees_attach_under_the_open_span() {
        let _x = exclusive();
        set_enabled(true);
        {
            let _root = span(SpanKind::Request);
            let sampled = current_sampled();
            assert!(sampled, "sample_every=1 keeps every trace");
            let scatter = span(SpanKind::Scatter);
            let cap = std::thread::scope(|scope| {
                scope
                    .spawn(|| {
                        capture(SpanKind::Search, "shard-1", sampled, || {
                            let _p = span(SpanKind::Postings);
                            42
                        })
                    })
                    .join()
                    .expect("shard worker")
            });
            assert_eq!(cap.output, 42);
            let node = cap.node.expect("sampled capture records a subtree");
            assert_eq!(node.kind, SpanKind::Search);
            assert_eq!(node.label.as_deref(), Some("shard-1"));
            assert_eq!(node.children[0].kind, SpanKind::Postings);
            attach(node);
            drop(scatter);
        }
        set_enabled(false);
        let trace = take_last_trace().expect("a completed trace");
        let scatter = &trace.root.children[0];
        assert_eq!(scatter.kind, SpanKind::Scatter);
        assert_eq!(scatter.children.len(), 1, "the captured subtree is grafted on");
        assert_eq!(scatter.children[0].kind, SpanKind::Search);
        assert_eq!(scatter.children[0].children[0].kind, SpanKind::Postings);
        assert_eq!(histogram(SpanKind::Search).count(), 1, "captures feed the aggregates");
        assert_eq!(span_count(SpanKind::Search), 1);
        assert!(recent_traces(10).len() == 1, "the worker thread completed no trace of its own");
    }

    #[test]
    fn unsampled_capture_counts_but_records_nothing() {
        let _x = exclusive();
        set_enabled(true);
        let cap = capture(SpanKind::Search, "shard-0", false, || 7);
        assert_eq!(cap.output, 7);
        assert!(cap.node.is_none(), "unsampled capture yields no subtree");
        set_enabled(false);
        assert_eq!(span_count(SpanKind::Search), 1, "counts stay exact");
        assert_eq!(histogram(SpanKind::Search).count(), 0);
        assert!(take_last_trace().is_none());
    }

    #[test]
    fn disabled_capture_still_times_the_closure() {
        let _x = exclusive();
        let cap = capture(SpanKind::Search, "shard-0", true, || "ok");
        assert_eq!(cap.output, "ok");
        assert!(cap.node.is_none());
        assert!(cap.micros < 1_000_000, "duration is measured even when disabled");
        assert_eq!(span_count(SpanKind::Search), 0);
    }

    #[test]
    fn annotations_land_on_the_innermost_span_and_accumulate() {
        let _x = exclusive();
        // Disabled: a pure no-op.
        annotate("postings_scanned", 5);
        set_enabled(true);
        {
            let _root = span(SpanKind::Request);
            {
                let _postings = span(SpanKind::Postings);
                annotate("postings_scanned", 3);
                annotate("postings_scanned", 4);
                annotate("heap_ops", 14);
            }
            annotate("rank_candidates", 2); // lands on the request span
        }
        set_enabled(false);
        let trace = take_last_trace().expect("a completed trace");
        assert_eq!(trace.root.counters, vec![("rank_candidates", 2)]);
        let postings = &trace.root.children[0];
        assert_eq!(postings.kind, SpanKind::Postings);
        assert_eq!(postings.counters, vec![("postings_scanned", 7), ("heap_ops", 14)]);
    }

    #[test]
    fn sampled_out_spans_ignore_annotations() {
        let _x = exclusive();
        set_enabled(true);
        set_sample_every(2);
        {
            let _kept = span(SpanKind::Request); // arrival 0: sampled
            annotate("postings_scanned", 1);
        }
        assert_eq!(take_last_trace().unwrap().root.counters, vec![("postings_scanned", 1)]);
        {
            let _dropped = span(SpanKind::Request); // arrival 1: sampled out
            annotate("postings_scanned", 1); // must not panic or leak
        }
        set_enabled(false);
        assert!(take_last_trace().is_none());
    }

    #[test]
    fn attach_shifts_offsets_by_the_parent_start() {
        let mut node = SpanNode {
            kind: SpanKind::Search,
            label: None,
            offset_micros: 5,
            micros: 10,
            counters: Vec::new(),
            children: vec![SpanNode {
                kind: SpanKind::Postings,
                label: None,
                offset_micros: 7,
                micros: 2,
                counters: Vec::new(),
                children: Vec::new(),
            }],
        };
        node.shift_offsets(100);
        assert_eq!(node.offset_micros, 105);
        assert_eq!(node.children[0].offset_micros, 107);
    }

    #[test]
    fn labels_round_trip() {
        for kind in SpanKind::ALL {
            assert_eq!(SpanKind::from_label(kind.label()), Some(kind));
        }
        assert_eq!(SpanKind::from_label("nope"), None);
    }
}
