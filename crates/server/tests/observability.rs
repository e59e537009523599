//! End-to-end round-trip of the observability surface: queries handled by a
//! [`ServeState`] must leave parseable artifacts in every sink — the JSONL
//! query log, the slow-query log (span tree embedded), `/debug/traces`, the
//! `Server-Timing` header, and the per-phase `/metrics` histograms. All
//! parsing goes through `gks_core::json`, the same reader the CI smoke job
//! uses, so "deterministic JSON" is checked by an actual parser rather than
//! by string inspection.
//!
//! Everything here shares the process-global tracer, so the whole flow
//! lives in one test function.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::sync::Arc;
use std::time::{Duration, Instant};

use gks_core::engine::Engine;
use gks_core::json::Json;
use gks_index::{Corpus, IndexOptions};
use gks_server::http::{parse_request, HttpResponse};
use gks_server::metrics::metric_value;
use gks_server::{ServeConfig, ServeState};

fn small_engine() -> Arc<Engine> {
    let xml = "<dblp>\
        <article><title>Generic Keyword Search</title>\
            <author>Manoj Agarwal</author><author>Krithi Ramamritham</author>\
            <year>2016</year></article>\
        <article><title>Holistic Twig Joins</title>\
            <author>Nicolas Bruno</author><author>Divesh Srivastava</author>\
            <year>2002</year></article>\
    </dblp>";
    let corpus = Corpus::from_named_strs([("dblp", xml)]).unwrap();
    Arc::new(Engine::build(&corpus, IndexOptions::default()).unwrap())
}

fn get(state: &ServeState, target: &str) -> HttpResponse {
    let request = parse_request(&format!("GET {target} HTTP/1.1\r\n\r\n")).unwrap();
    state.handle(&request, Instant::now())
}

fn header<'r>(response: &'r HttpResponse, name: &str) -> Option<&'r str> {
    response.headers.iter().find(|(k, _)| *k == name).map(|(_, v)| v.as_str())
}

/// Recursively checks a `/debug/traces` span object: known kind label,
/// numeric timing fields, children well-formed, child durations within the
/// parent's.
fn assert_span_well_formed(span: &Json) {
    let kind = span.get("kind").and_then(Json::as_str).expect("span has kind");
    assert!(gks_trace::SpanKind::from_label(kind).is_some(), "unknown span kind {kind:?}");
    let micros = span.get("micros").and_then(Json::as_u64).expect("span has micros");
    span.get("offset_micros")
        .and_then(Json::as_u64)
        .expect("span has offset_micros");
    let children = span.get("children").and_then(Json::as_array).expect("span has children");
    let mut child_sum = 0u64;
    for child in children {
        assert_span_well_formed(child);
        child_sum += child.get("micros").and_then(Json::as_u64).unwrap_or(0);
    }
    assert!(child_sum <= micros, "children ({child_sum}µs) exceed parent ({micros}µs)");
}

#[test]
fn sinks_round_trip_through_the_json_parser() {
    let dir = std::env::temp_dir().join(format!("gks-observability-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let qlog_path = dir.join("query.jsonl");
    let slow_path = dir.join("slow.jsonl");
    let config = ServeConfig {
        query_log: Some(qlog_path.clone()),
        slow_log: Some(slow_path.clone()),
        // Threshold zero: every query is "slow", so the slow log is
        // exercised without needing an actually slow corpus.
        slow_threshold: Duration::from_micros(0),
        ..ServeConfig::default()
    };
    let state = ServeState::new(small_engine(), config).unwrap();

    let search = get(&state, "/search?q=twig+joins&s=2");
    assert_eq!(search.status, 200);
    let timing = header(&search, "Server-Timing").expect("Server-Timing header on /search");
    assert!(timing.contains("request;dur="), "{timing}");
    assert!(timing.contains("search;dur="), "{timing}");
    // A cache hit and a client error must be logged too.
    assert_eq!(header(&get(&state, "/search?q=twig+joins&s=2"), "x-gks-cache"), Some("hit"));
    assert_eq!(get(&state, "/search?q=%22unclosed").status, 400);
    let suggest = get(&state, "/suggest?q=agarwal");
    assert_eq!(suggest.status, 200);

    // Query log: every line parses, carries the required fields, and the
    // specific requests above are all present.
    let qlog_text = std::fs::read_to_string(&qlog_path).unwrap();
    let lines: Vec<Json> = qlog_text
        .lines()
        .map(|line| Json::parse(line).expect("query-log line parses as JSON"))
        .collect();
    assert_eq!(lines.len(), 4, "one line per /search|/suggest request:\n{qlog_text}");
    for v in &lines {
        for field in [
            "ts_ms", "endpoint", "index", "query", "s", "limit", "status", "micros", "cached",
        ] {
            assert!(v.get(field).is_some(), "query-log line missing {field}");
        }
    }
    assert_eq!(lines[0].get("query").and_then(Json::as_str), Some("twig joins"));
    assert_eq!(lines[0].get("cached"), Some(&Json::Bool(false)));
    assert_eq!(lines[1].get("cached"), Some(&Json::Bool(true)));
    assert_eq!(lines[2].get("status").and_then(Json::as_u64), Some(400));
    assert_eq!(lines[3].get("endpoint").and_then(Json::as_str), Some("suggest"));
    // Engine runs carry their cost ledger in the wide event; cache hits and
    // errors did no engine work, so theirs is null.
    let cost = lines[0].get("cost").expect("engine run logs its cost ledger");
    assert!(cost.get("postings_scanned").and_then(Json::as_u64).is_some(), "{cost:?}");
    assert!(cost.get("sweep_advances").and_then(Json::as_u64).is_some(), "{cost:?}");
    assert_eq!(lines[1].get("cost"), Some(&Json::Null), "cache hit carries no ledger");
    assert_eq!(lines[2].get("cost"), Some(&Json::Null), "parse error carries no ledger");
    let di_attrs = lines[3]
        .get("cost")
        .and_then(|c| c.get("di_attrs"))
        .and_then(Json::as_u64)
        .unwrap();
    assert!(di_attrs > 0, "suggest runs DI and accounts its attribute scans");

    // Slow log (threshold 0): same lines, each embedding a span tree whose
    // root is the request span.
    let slow_text = std::fs::read_to_string(&slow_path).unwrap();
    assert_eq!(slow_text.lines().count(), 4);
    for line in slow_text.lines() {
        let v = Json::parse(line).expect("slow-log line parses as JSON");
        let trace = v.get("trace").expect("slow-log line embeds trace");
        trace.get("seq").and_then(Json::as_u64).expect("trace has seq");
        let root = trace.get("root").expect("trace has root");
        assert_eq!(root.get("kind").and_then(Json::as_str), Some("request"));
        assert_span_well_formed(root);
    }

    // /debug/traces: deterministic JSON, well-formed spans, n= respected.
    let dump = get(&state, "/debug/traces?n=2");
    assert_eq!(dump.status, 200);
    let v = Json::parse(std::str::from_utf8(&dump.body).unwrap()).expect("traces dump parses");
    assert_eq!(v.get("enabled"), Some(&Json::Bool(true)));
    let traces = v.get("traces").and_then(Json::as_array).expect("traces array");
    assert!(traces.len() <= 2, "n=2 limits the dump");
    assert!(!traces.is_empty(), "queries above must have left traces");
    for t in traces {
        assert_span_well_formed(t.get("root").expect("trace root"));
    }
    assert_eq!(get(&state, "/debug/traces?n=wat").status, 400);

    // /metrics: per-phase percentiles exist and the postings phase has
    // recorded samples from the searches above.
    let metrics = get(&state, "/metrics");
    let text = String::from_utf8(metrics.body.to_vec()).unwrap();
    for phase in ["parse", "postings", "sweep", "rank", "di"] {
        let count =
            metric_value(&text, &format!("gks_phase_latency_micros_count{{phase=\"{phase}\"}}"))
                .expect("per-phase count line");
        let samples = metric_value(&text, &format!("gks_phase_samples_total{{phase=\"{phase}\"}}"))
            .expect("per-phase samples counter");
        assert_eq!(samples, count, "samples counter mirrors the histogram count");
        // Quantile lines exist exactly when the phase has samples — the
        // zero-sample `-1` sentinel was retired for this family.
        let p50 = metric_value(
            &text,
            &format!("gks_phase_latency_micros{{phase=\"{phase}\",quantile=\"0.5\"}}"),
        );
        if count > 0 {
            assert!(p50.is_some_and(|v| v >= 0), "phase {phase} has samples but no p50");
        } else {
            assert!(p50.is_none(), "phase {phase} has no samples, p50 must be omitted");
        }
    }
    let postings =
        metric_value(&text, "gks_phase_latency_micros_count{phase=\"postings\"}").unwrap();
    assert!(postings >= 2, "both engine searches recorded postings spans, got {postings}");
    assert!(metric_value(&text, "gks_slow_queries_total").unwrap() >= 4);

    let _ = std::fs::remove_dir_all(&dir);
}
