//! Trace head-sampling through a whole [`ServeState`]: with `--trace-sample
//! 1/N` only every Nth request writes a trace into the ring and the latency
//! histograms, yet the per-kind span *counters* still count every request —
//! so `gks_trace_spans_total` stays an accurate request tally.
//!
//! Sampling state (`set_sample_every`, the sampling sequence) is process
//! global, which is why this test owns its binary.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::sync::Arc;
use std::time::Instant;

use gks_core::engine::Engine;
use gks_core::json::Json;
use gks_index::{Corpus, IndexOptions};
use gks_server::http::{parse_request, HttpResponse};
use gks_server::metrics::metric_value;
use gks_server::{ServeConfig, ServeState};

fn small_engine() -> Arc<Engine> {
    let xml = "<r><rec><w>alpha</w><w>beta</w></rec><rec><w>gamma</w></rec></r>";
    let corpus = Corpus::from_named_strs([("t", xml)]).unwrap();
    Arc::new(Engine::build(&corpus, IndexOptions::default()).unwrap())
}

fn get(state: &ServeState, target: &str) -> HttpResponse {
    let request = parse_request(&format!("GET {target} HTTP/1.1\r\n\r\n")).unwrap();
    state.handle(&request, Instant::now())
}

#[test]
fn sampled_out_requests_still_count_in_span_totals() {
    let config = ServeConfig {
        trace: true,
        trace_sample: 4,
        // No cache: every request exercises the engine phases, so the
        // sampled share of histogram writes is exact.
        cache_bytes: 0,
        ..ServeConfig::default()
    };
    let state = ServeState::new(small_engine(), config).unwrap();
    // Clear counters/ring/sampling sequence; the 1-in-4 rate is kept.
    gks_trace::reset();

    // 40 requests, single-threaded: the deterministic 1-in-4 head sampler
    // keeps exactly requests 0, 4, 8, …, 36 — ten traces.
    for i in 0..40 {
        let response = get(&state, &format!("/search?q=alpha&limit={}", 1 + i % 5));
        assert_eq!(response.status, 200);
        let has_timing = response.headers.iter().any(|(k, _)| *k == "Server-Timing");
        assert_eq!(has_timing, i % 4 == 0, "request {i}: timing header only when sampled");
    }

    let text = String::from_utf8(get(&state, "/metrics").body.to_vec()).unwrap();
    // Aggregate span counts tally every request, sampled or not.
    assert_eq!(metric_value(&text, "gks_trace_spans_total{kind=\"request\"}"), Some(40));
    assert_eq!(metric_value(&text, "gks_requests{endpoint=\"search\"}"), Some(40));
    // Histograms only see the sampled share.
    let sampled =
        metric_value(&text, "gks_phase_latency_micros_count{phase=\"postings\"}").unwrap();
    assert_eq!(sampled, 10, "histograms record only 1-in-4 requests");

    // The ring holds the ten sampled traces, nothing more.
    let dump = get(&state, "/debug/traces?n=64");
    let v = Json::parse(std::str::from_utf8(&dump.body).unwrap()).unwrap();
    let traces = v.get("traces").and_then(Json::as_array).unwrap();
    assert_eq!(traces.len(), 10);
}
