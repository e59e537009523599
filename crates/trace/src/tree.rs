//! Completed span trees: the shape a trace takes once every span in it has
//! closed, plus deterministic JSON and human-readable text renderings.
//!
//! JSON emission is hand-rolled (the workspace builds offline with no
//! serialization framework): span kinds are a closed set of identifier labels and the
//! timing fields are unsigned integers, so only the optional free-form span
//! label (an index name, typically) needs escaping — a minimal local escaper
//! handles it, since this crate sits below `gks-core` and cannot borrow its
//! JSON helpers. Field order is fixed and the label is emitted only when
//! present, making the output deterministic for a given tree — the
//! `/debug/traces` endpoint and the slow-query log rely on that.

use std::fmt::Write as _;

use crate::SpanKind;

/// One completed span: its kind, when it started relative to the root of
/// its trace, how long it ran, and the spans completed underneath it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanNode {
    /// What pipeline stage this span measured.
    pub kind: SpanKind,
    /// Optional free-form tag (the catalog index name on request roots).
    pub label: Option<Box<str>>,
    /// Start offset from the root span's start, in µs.
    pub offset_micros: u64,
    /// Wall-clock duration, in µs.
    pub micros: u64,
    /// Work counters annotated onto the span (see [`crate::annotate`]), in
    /// annotation order. Empty for purely timed spans — and omitted from
    /// the JSON rendering then, so counter-free trees keep their exact
    /// historical shape.
    pub counters: Vec<(&'static str, u64)>,
    /// Child spans, in completion order.
    pub children: Vec<SpanNode>,
}

/// Appends `s` as a JSON string literal, escaping quotes, backslashes, and
/// control characters.
fn push_escaped(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

impl SpanNode {
    /// Appends this node (and its subtree) as a JSON object. The `label`
    /// field appears only when set, so unlabeled trees keep their exact
    /// historical shape.
    pub fn write_json(&self, out: &mut String) {
        let _ = write!(out, "{{\"kind\":\"{}\",", self.kind.label());
        if let Some(label) = &self.label {
            out.push_str("\"label\":");
            push_escaped(out, label);
            out.push(',');
        }
        let _ = write!(out, "\"offset_micros\":{},\"micros\":{},", self.offset_micros, self.micros);
        if !self.counters.is_empty() {
            out.push_str("\"counters\":{");
            for (i, (key, value)) in self.counters.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                // Counter keys are static identifiers; no escaping needed.
                let _ = write!(out, "\"{key}\":{value}");
            }
            out.push_str("},");
        }
        out.push_str("\"children\":[");
        for (i, child) in self.children.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            child.write_json(out);
        }
        out.push_str("]}");
    }

    /// Sum of durations of every span of `kind` in this subtree (the node
    /// itself included).
    pub fn kind_micros(&self, kind: SpanKind) -> u64 {
        let own = if self.kind == kind { self.micros } else { 0 };
        own + self.children.iter().map(|c| c.kind_micros(kind)).sum::<u64>()
    }

    /// Number of spans in this subtree (the node itself included).
    pub fn span_count(&self) -> usize {
        1 + self.children.iter().map(SpanNode::span_count).sum::<usize>()
    }

    /// Shifts every start offset in this subtree forward by `base` µs —
    /// used when a subtree captured on another thread (offsets relative to
    /// its own capture start) is grafted onto a request trace.
    pub fn shift_offsets(&mut self, base: u64) {
        self.offset_micros = self.offset_micros.saturating_add(base);
        for child in &mut self.children {
            child.shift_offsets(base);
        }
    }

    fn render_into(&self, out: &mut String, depth: usize) {
        for _ in 0..depth {
            out.push_str("  ");
        }
        match &self.label {
            Some(label) => {
                let _ = write!(
                    out,
                    "{}[{label}] {}µs @{}µs",
                    self.kind.label(),
                    self.micros,
                    self.offset_micros
                );
            }
            None => {
                let _ = write!(
                    out,
                    "{} {}µs @{}µs",
                    self.kind.label(),
                    self.micros,
                    self.offset_micros
                );
            }
        }
        for (key, value) in &self.counters {
            let _ = write!(out, " {key}={value}");
        }
        out.push('\n');
        for child in &self.children {
            child.render_into(out, depth + 1);
        }
    }
}

/// A finished trace: the root span tree plus a global sequence number
/// (monotonically increasing across the process, so ring-buffer dumps have a
/// stable order even after wrap-around).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompletedTrace {
    /// Process-wide completion sequence number (1-based).
    pub seq: u64,
    /// The root span and everything nested under it.
    pub root: SpanNode,
}

impl CompletedTrace {
    /// Total wall-clock duration of the trace (the root span's duration).
    pub fn total_micros(&self) -> u64 {
        self.root.micros
    }

    /// Per-kind duration totals over the whole tree, in [`SpanKind::ALL`]
    /// order, skipping kinds that never occurred.
    pub fn phase_micros(&self) -> Vec<(SpanKind, u64)> {
        SpanKind::ALL
            .iter()
            .filter_map(|&kind| {
                let micros = self.root.kind_micros(kind);
                (self.root.has_kind(kind)).then_some((kind, micros))
            })
            .collect()
    }

    /// Appends this trace as a JSON object
    /// (`{"seq":…,"micros":…,"root":{…}}`).
    pub fn write_json(&self, out: &mut String) {
        let _ = write!(out, "{{\"seq\":{},\"micros\":{},\"root\":", self.seq, self.total_micros());
        self.root.write_json(out);
        out.push('}');
    }

    /// Renders the span tree as indented text, one span per line — the
    /// `gks search --trace` output.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "trace #{} ({}µs, {} spans)",
            self.seq,
            self.total_micros(),
            self.root.span_count()
        );
        self.root.render_into(&mut out, 1);
        out
    }
}

impl SpanNode {
    /// Whether any span of `kind` occurs in this subtree.
    pub fn has_kind(&self, kind: SpanKind) -> bool {
        self.kind == kind || self.children.iter().any(|c| c.has_kind(kind))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> CompletedTrace {
        CompletedTrace {
            seq: 7,
            root: SpanNode {
                kind: SpanKind::Request,
                label: None,
                offset_micros: 0,
                micros: 100,
                counters: Vec::new(),
                children: vec![
                    SpanNode {
                        kind: SpanKind::Search,
                        label: None,
                        offset_micros: 5,
                        micros: 80,
                        counters: Vec::new(),
                        children: vec![SpanNode {
                            kind: SpanKind::Postings,
                            label: None,
                            offset_micros: 10,
                            micros: 30,
                            counters: Vec::new(),
                            children: Vec::new(),
                        }],
                    },
                    SpanNode {
                        kind: SpanKind::Di,
                        label: None,
                        offset_micros: 90,
                        micros: 9,
                        counters: Vec::new(),
                        children: Vec::new(),
                    },
                ],
            },
        }
    }

    #[test]
    fn json_shape_is_deterministic() {
        let mut out = String::new();
        sample().write_json(&mut out);
        assert_eq!(
            out,
            "{\"seq\":7,\"micros\":100,\"root\":{\"kind\":\"request\",\"offset_micros\":0,\
             \"micros\":100,\"children\":[{\"kind\":\"search\",\"offset_micros\":5,\"micros\":80,\
             \"children\":[{\"kind\":\"postings\",\"offset_micros\":10,\"micros\":30,\
             \"children\":[]}]},{\"kind\":\"di\",\"offset_micros\":90,\"micros\":9,\
             \"children\":[]}]}}"
        );
    }

    #[test]
    fn labels_are_emitted_and_escaped() {
        let node = SpanNode {
            kind: SpanKind::Request,
            label: Some(r#"ix "a"\b"#.into()),
            offset_micros: 0,
            micros: 5,
            counters: Vec::new(),
            children: Vec::new(),
        };
        let mut out = String::new();
        node.write_json(&mut out);
        assert_eq!(
            out,
            "{\"kind\":\"request\",\"label\":\"ix \\\"a\\\"\\\\b\",\
             \"offset_micros\":0,\"micros\":5,\"children\":[]}"
        );
        let trace = CompletedTrace { seq: 1, root: node };
        assert!(trace.render_text().contains("request[ix \"a\"\\b] 5µs"));
    }

    #[test]
    fn counters_are_emitted_only_when_present() {
        let node = SpanNode {
            kind: SpanKind::Postings,
            label: None,
            offset_micros: 1,
            micros: 9,
            counters: vec![("postings_scanned", 42), ("heap_ops", 84)],
            children: Vec::new(),
        };
        let mut out = String::new();
        node.write_json(&mut out);
        assert_eq!(
            out,
            "{\"kind\":\"postings\",\"offset_micros\":1,\"micros\":9,\
             \"counters\":{\"postings_scanned\":42,\"heap_ops\":84},\"children\":[]}"
        );
        let trace = CompletedTrace { seq: 1, root: node };
        assert!(trace.render_text().contains("postings_scanned=42"), "{}", trace.render_text());
    }

    #[test]
    fn phase_totals_and_counts() {
        let t = sample();
        assert_eq!(t.total_micros(), 100);
        assert_eq!(t.root.span_count(), 4);
        let phases = t.phase_micros();
        assert!(phases.contains(&(SpanKind::Search, 80)));
        assert!(phases.contains(&(SpanKind::Di, 9)));
        assert!(!phases.iter().any(|(k, _)| *k == SpanKind::Rank), "absent kinds are skipped");
    }

    #[test]
    fn text_rendering_is_indented() {
        let text = sample().render_text();
        assert!(text.starts_with("trace #7 (100µs, 4 spans)"), "{text}");
        assert!(text.contains("\n  request 100µs @0µs"), "{text}");
        assert!(text.contains("\n      postings 30µs @10µs"), "{text}");
    }
}
