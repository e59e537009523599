//! Every maintenance operation is recorded in `/metrics` exactly once: the
//! delta-build and compaction span histograms count what the per-index
//! commit and compaction totals count, and a no-op poll or compaction adds
//! to neither. A test binary of its own, because the span histograms are
//! process-wide and any other test's commits would land in them too.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::path::Path;
use std::time::Instant;

use gks_index::delta::index_directory;
use gks_index::IndexOptions;
use gks_server::http::parse_request;
use gks_server::metrics::metric_value;
use gks_server::{catalog::IndexSpec, ServeConfig, ServeState};

fn write_doc(corpus: &Path, name: &str, text: &str) {
    let xml = format!("<course><student>{text}</student></course>");
    std::fs::write(corpus.join(format!("{name}.xml")), xml).unwrap();
}

fn request(state: &ServeState, method: &str, target: &str) -> String {
    let request = parse_request(&format!("{method} {target} HTTP/1.1\r\n\r\n")).unwrap();
    String::from_utf8(state.handle(&request, Instant::now()).body.to_vec()).unwrap()
}

/// `(span count, operation total)` for delta builds and for compactions.
fn counts(state: &ServeState) -> [(Option<i64>, Option<i64>); 2] {
    let text = request(state, "GET", "/metrics");
    [
        (
            metric_value(&text, "gks_delta_build_micros_count"),
            metric_value(&text, "gks_delta_commits_total{index=\"live\"}"),
        ),
        (
            metric_value(&text, "gks_compaction_micros_count"),
            metric_value(&text, "gks_compactions_total{index=\"live\"}"),
        ),
    ]
}

#[test]
fn maintenance_spans_count_each_operation_once() {
    let root = std::env::temp_dir().join(format!("gks-maintenance-spans-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let corpus = root.join("corpus");
    std::fs::create_dir_all(&corpus).unwrap();
    write_doc(&corpus, "d0", "apple banana");
    write_doc(&corpus, "d1", "banana cherry");
    let manifest = root.join("live.shards");
    index_directory(&corpus, &manifest, 2, IndexOptions::default()).unwrap();
    let specs = vec![IndexSpec::with_manifest("live", &manifest).unwrap()];
    let state = ServeState::with_catalog(specs, Some("live"), ServeConfig::default()).unwrap();
    let resident = state.catalog().default_index();

    // An idle poll is not a delta build.
    assert!(resident.maintain(None).unwrap().is_none());
    assert_eq!(counts(&state), [(Some(0), Some(0)), (Some(0), Some(0))]);

    // One commit, then one compaction through the admin route.
    write_doc(&corpus, "d2", "elderberry fig");
    assert!(resident.maintain(None).unwrap().is_some());
    assert!(resident.maintain(None).unwrap().is_none());
    let body = request(&state, "POST", "/admin/compact");
    assert!(body.contains("\"compacted\":true"), "{body}");
    assert_eq!(counts(&state), [(Some(1), Some(1)), (Some(1), Some(1))]);

    // A compaction with nothing to fold is neither counted nor timed.
    let body = request(&state, "POST", "/admin/compact");
    assert!(body.contains("\"compacted\":false"), "{body}");
    assert_eq!(counts(&state), [(Some(1), Some(1)), (Some(1), Some(1))]);
    std::fs::remove_dir_all(&root).ok();
}
