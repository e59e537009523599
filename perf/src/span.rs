//! The benchmark's own span recorder, used only by traced runs.
//!
//! Spans are recorded from outside the engine, around calls into each
//! crate's public functions. Each span keeps its name, start, end, the
//! span that caused it and the id of the operation it belongs to. Spans
//! stay in memory and are written out when the workload ends. A span's
//! self time is its duration minus the part its child spans cover.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::{Duration, Instant};

use crate::stats::Samples;

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub op: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

#[derive(Debug)]
pub struct Recorder {
    /// Off in untraced runs: nothing is stored and `time` only times.
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    op: u64,
}

impl Recorder {
    pub fn new(enabled: bool) -> Recorder {
        Recorder { enabled, origin: Instant::now(), spans: Vec::new(), open: Vec::new(), op: 0 }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Starts the next operation: spans opened from here on carry its id.
    pub fn next_op(&mut self) -> u64 {
        self.op += 1;
        self.op
    }

    /// Opens a span under the innermost open span.
    pub fn enter(&mut self, name: &'static str) -> usize {
        if !self.enabled {
            return usize::MAX;
        }
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            op: self.op,
        });
        self.open.push(id);
        id
    }

    /// Closes span `id` (and any span still open inside it) and returns
    /// its duration.
    pub fn exit(&mut self, id: usize) -> Duration {
        if !self.enabled {
            return Duration::ZERO;
        }
        let end_ns = self.now_ns();
        while let Some(top) = self.open.pop() {
            self.spans[top].end_ns = end_ns;
            if top == id {
                break;
            }
        }
        Duration::from_nanos(self.spans[id].duration_ns())
    }

    /// Runs `f` inside a span and returns its result and the span's
    /// duration.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> (T, Duration) {
        if !self.enabled {
            let start = Instant::now();
            let out = f();
            return (out, start.elapsed());
        }
        let id = self.enter(name);
        let out = f();
        let took = self.exit(id);
        (out, took)
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span, by index: its duration minus the summed
    /// durations of its direct children (children of one span never
    /// overlap, since one thread records them in sequence).
    pub fn self_times_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(Span::duration_ns).collect();
        for span in &self.spans {
            if let Some(parent) = span.parent {
                own[parent] = own[parent].saturating_sub(span.duration_ns());
            }
        }
        own
    }

    /// Per span name: one sample per operation, the self time the name's
    /// spans took within that operation.
    pub fn self_time_per_op(&self) -> BTreeMap<&'static str, Samples> {
        let own = self.self_times_ns();
        let mut per_op: BTreeMap<(&'static str, u64), u64> = BTreeMap::new();
        for (span, own_ns) in self.spans.iter().zip(own) {
            *per_op.entry((span.name, span.op)).or_default() += own_ns;
        }
        let mut out: BTreeMap<&'static str, Samples> = BTreeMap::new();
        for ((name, _), ns) in per_op {
            out.entry(name).or_default().push(Duration::from_nanos(ns));
        }
        out
    }

    /// Where the time went, by span name: how many operations the name
    /// appears in, the median of its self time per operation, and its
    /// share of all recorded time. The shares sum to 1: self times
    /// partition the root spans.
    pub fn summary(&self) -> String {
        let mut per_name = self.self_time_per_op();
        let total: f64 = per_name.values().map(Samples::total_secs).sum();
        let mut out = String::new();
        for (name, samples) in &mut per_name {
            let share = samples.total_secs() / total.max(1e-12);
            out.push_str(&format!(
                "  ~ {name:<24} ops {:>7}  self p50 {:>12.3} us  share {:>6.2} %\n",
                samples.len(),
                samples.percentile_us(0.5),
                share * 100.0
            ));
        }
        out
    }

    /// Writes one JSON object per span.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                w,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"op\":{}}}",
                s.name, s.start_ns, s.end_ns, s.op
            )?;
        }
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn recorder_with(spans: Vec<Span>) -> Recorder {
        Recorder { spans, ..Recorder::new(true) }
    }

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>, op: u64) -> Span {
        Span { name, start_ns: start, end_ns: end, parent, op }
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        let r = recorder_with(vec![
            span("op", 0, 100, None, 1),
            span("search", 10, 70, Some(0), 1),
            span("sweep", 20, 50, Some(1), 1),
            span("wire", 70, 95, Some(0), 1),
        ]);
        assert_eq!(r.self_times_ns(), vec![15, 30, 30, 25]);
        // Self times partition the root's duration.
        assert_eq!(r.self_times_ns().iter().sum::<u64>(), 100);
    }

    #[test]
    fn per_op_samples_sum_same_named_spans_within_an_op() {
        let r = recorder_with(vec![
            span("op", 0, 50, None, 1),
            span("q", 0, 10, Some(0), 1),
            span("q", 10, 30, Some(0), 1),
            span("op", 50, 60, None, 2),
            span("q", 50, 55, Some(3), 2),
        ]);
        let mut per_op = r.self_time_per_op();
        let q = per_op.get_mut("q").unwrap();
        assert_eq!(q.len(), 2);
        assert_eq!(q.percentile_ns(1.0), 30.0);
        assert_eq!(q.percentile_ns(0.5), 5.0);
        let summary = r.summary();
        assert!(summary.contains("~ op") && summary.contains("~ q"), "{summary}");
        // op: 20 + 5 of 60 ns; q: 35 of 60 ns.
        assert!(summary.contains("41.67 %") && summary.contains("58.33 %"), "{summary}");
    }

    #[test]
    fn enter_exit_nest_and_tag_operations() {
        let mut r = Recorder::new(true);
        let op = r.next_op();
        let root = r.enter("op");
        r.time("child", || std::hint::black_box(1 + 1));
        let inner = r.enter("left open");
        r.exit(root);
        let spans = r.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[inner].parent, Some(0));
        assert!(spans.iter().all(|s| s.op == op));
        assert!(spans[0].end_ns >= spans[1].end_ns);
        assert_eq!(spans[inner].end_ns, spans[0].end_ns, "exit closes what is still open inside");
    }

    #[test]
    fn a_disabled_recorder_times_but_stores_nothing() {
        let mut r = Recorder::new(false);
        let root = r.enter("op");
        let (out, took) = r.time("child", || std::thread::sleep(Duration::from_millis(2)));
        r.exit(root);
        assert_eq!(out, ());
        assert!(took >= Duration::from_millis(2));
        assert!(r.spans().is_empty());
    }
}
