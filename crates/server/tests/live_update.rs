//! End-to-end liveness of the incremental update path: a corpus mutation
//! becomes visible to `/search` without a restart, `POST /admin/compact`
//! folds the delta backlog while serving, the watcher thread picks up
//! changes on its own, and no request observes a 5xx through any of it.

use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use gks_index::delta::index_directory;
use gks_index::IndexOptions;
use gks_server::client::http_get;
use gks_server::error::ServeError;
use gks_server::http::parse_request;
use gks_server::metrics::metric_value;
use gks_server::{catalog::IndexSpec, serve_catalog, ServeConfig, ServeState};

fn write_doc(corpus: &Path, name: &str, words: &str) {
    let mut xml = String::from("<course><students>");
    for w in words.split_whitespace() {
        xml.push_str(&format!("<student>{w}</student>"));
    }
    xml.push_str("</students></course>");
    std::fs::write(corpus.join(format!("{name}.xml")), xml).unwrap();
}

/// Builds a corpus directory + a manifest over `base_shards` base shards;
/// returns the manifest path.
fn seed_corpus(root: &Path, base_shards: usize) -> PathBuf {
    let corpus = root.join("corpus");
    std::fs::create_dir_all(&corpus).unwrap();
    write_doc(&corpus, "d0", "apple banana");
    write_doc(&corpus, "d1", "banana cherry");
    write_doc(&corpus, "d2", "cherry durian");
    let manifest = root.join("corpus.shards");
    index_directory(&corpus, &manifest, base_shards, IndexOptions::default()).unwrap();
    manifest
}

fn get(state: &ServeState, target: &str) -> gks_server::http::HttpResponse {
    let request = parse_request(&format!("GET {target} HTTP/1.1\r\n\r\n")).unwrap();
    state.handle(&request, Instant::now())
}

fn post(state: &ServeState, target: &str) -> gks_server::http::HttpResponse {
    let request = parse_request(&format!("POST {target} HTTP/1.1\r\n\r\n")).unwrap();
    state.handle(&request, Instant::now())
}

fn body(state: &ServeState, target: &str) -> String {
    String::from_utf8(get(state, target).body).unwrap()
}

/// True when a search body reports at least one hit. The response echoes
/// the query keywords, so substring checks on the keyword are vacuous —
/// the `total_hits` counter is the real signal.
fn has_hits(body: &str) -> bool {
    !body.contains("\"total_hits\":0")
}

/// Mutations committed through `maintain` are served by `/search`
/// immediately — adds, modifies, and deletes alike — and `/admin/compact`
/// folds the backlog without changing what queries see.
#[test]
fn mutations_become_visible_without_restart() {
    let root = std::env::temp_dir().join(format!("gks-live-update-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let manifest = seed_corpus(&root, 2);
    let corpus = root.join("corpus");
    let specs = vec![IndexSpec::with_manifest("live", &manifest).unwrap()];
    let state = ServeState::with_catalog(specs, Some("live"), ServeConfig::default()).unwrap();
    let resident = state.catalog().default_index();

    assert_eq!(get(&state, "/search?q=apple").status, 200);
    assert!(has_hits(&body(&state, "/search?q=apple")));
    assert!(!has_hits(&body(&state, "/search?q=elderberry")));

    // Add a document: visible right after the poll commits the delta.
    write_doc(&corpus, "d3", "elderberry fig");
    let stats = resident.maintain(None).unwrap().expect("a delta was committed");
    assert_eq!(stats.added, 1);
    let response = get(&state, "/search?q=elderberry");
    assert_eq!(response.status, 200);
    let text = String::from_utf8(response.body).unwrap();
    assert!(has_hits(&text), "new doc is searchable: {text}");
    assert!(resident.delta_shards() >= 1, "the add lives in a delta shard");

    // Modify: the old content stops matching, the new content matches.
    write_doc(&corpus, "d0", "grape banana");
    resident.maintain(None).unwrap().expect("modify commits");
    assert!(has_hits(&body(&state, "/search?q=grape")), "modified content matches");
    assert!(!has_hits(&body(&state, "/search?q=apple")), "old content stops matching");

    // Delete: the document disappears from results.
    std::fs::remove_file(corpus.join("d2.xml")).unwrap();
    resident.maintain(None).unwrap().expect("delete commits");
    assert!(!has_hits(&body(&state, "/search?q=durian")), "deleted doc stops matching");

    // An unchanged corpus commits nothing.
    assert!(resident.maintain(None).unwrap().is_none(), "clean poll is a no-op");

    // Freshness is exported and small right after a commit.
    let text = String::from_utf8(get(&state, "/metrics").body).unwrap();
    let fresh = metric_value(&text, "gks_index_freshness_seconds{index=\"live\"}").unwrap();
    assert!((0..60).contains(&fresh), "freshness just after a commit: {fresh}");
    assert!(metric_value(&text, "gks_delta_shards{index=\"live\"}").unwrap() >= 1);
    assert!(metric_value(&text, "gks_delta_commits_total{index=\"live\"}").unwrap() >= 3);

    // Compaction folds the backlog; queries answer the same before/after.
    let grape_before = get(&state, "/search?q=grape+banana&s=1").body;
    let response = post(&state, "/admin/compact");
    assert_eq!(response.status, 200);
    let body = String::from_utf8(response.body).unwrap();
    assert!(body.contains("\"compacted\":true"), "{body}");
    assert_eq!(resident.delta_shards(), 0, "backlog folded");
    assert_eq!(
        get(&state, "/search?q=grape+banana&s=1").body,
        grape_before,
        "compaction preserves answers byte-for-byte"
    );
    // A second compaction has nothing to fold.
    let body = String::from_utf8(post(&state, "/admin/compact").body).unwrap();
    assert!(body.contains("\"compacted\":false"), "{body}");
    let text = String::from_utf8(get(&state, "/metrics").body).unwrap();
    assert_eq!(metric_value(&text, "gks_compactions_total{index=\"live\"}"), Some(1));
    assert_eq!(metric_value(&text, "gks_delta_shards{index=\"live\"}"), Some(0));

    // Method and target validation.
    assert_eq!(get(&state, "/admin/compact").status, 405, "compact requires POST");
    assert_eq!(post(&state, "/admin/compact?index=nope").status, 404);
    std::fs::remove_dir_all(&root).ok();
}

/// A delete committed as the **first** mutation — so the set carries only
/// tombstoned base shards, no delta slot — answers exactly like a fresh
/// rebuild of the same corpus directory, document ids included, whether
/// the manifest holds one base shard or two. One shard is the case where
/// the renumbering is easiest to forget: nothing else fans out.
#[test]
fn delete_first_equals_rebuild_for_one_and_two_base_shards() {
    for base_shards in [1usize, 2] {
        let root = std::env::temp_dir()
            .join(format!("gks-live-delete-{base_shards}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let manifest = seed_corpus(&root, base_shards);
        let corpus = root.join("corpus");
        let specs = vec![IndexSpec::with_manifest("live", &manifest).unwrap()];
        let live = ServeState::with_catalog(specs, None, ServeConfig::default()).unwrap();

        std::fs::remove_file(corpus.join("d0.xml")).unwrap();
        let stats = live.catalog().default_index().maintain(None).unwrap().expect("delete commits");
        assert_eq!((stats.added, stats.deleted), (0, 1));
        assert_eq!(live.catalog().default_index().shard_count(), base_shards, "no delta slot");

        let rebuilt_manifest = root.join("rebuilt.shards");
        index_directory(&corpus, &rebuilt_manifest, base_shards, IndexOptions::default()).unwrap();
        let specs = vec![IndexSpec::with_manifest("live", &rebuilt_manifest).unwrap()];
        let rebuilt = ServeState::with_catalog(specs, None, ServeConfig::default()).unwrap();

        for target in ["/search?q=cherry", "/search?q=banana+durian&s=1", "/suggest?q=cherry"] {
            let expected = body(&rebuilt, target);
            assert!(has_hits(&expected) || target.starts_with("/suggest"), "{target}: {expected}");
            assert_eq!(
                body(&live, target),
                expected,
                "{base_shards} base shard(s), {target}: tombstoned set must equal a rebuild"
            );
        }
        std::fs::remove_dir_all(&root).ok();
    }
}

/// Indexes without a manifest have no update path: compact is a 400.
#[test]
fn compact_without_manifest_is_rejected() {
    let corpus = gks_index::Corpus::from_named_strs([("x", "<r><a>word</a></r>")]).unwrap();
    let engine =
        Arc::new(gks_core::engine::Engine::build(&corpus, IndexOptions::default()).unwrap());
    let state = ServeState::new(engine, ServeConfig::default()).unwrap();
    assert_eq!(post(&state, "/admin/compact").status, 400);
}

/// `/doctor` on a manifest-backed index reports the manifest audit
/// `gks doctor` runs: an orphaned shard file next to the manifest makes
/// the entry unhealthy, with a `manifest:` finding naming the file.
#[test]
fn doctor_reports_manifest_findings() {
    let root = std::env::temp_dir().join(format!("gks-live-orphan-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let manifest = seed_corpus(&root, 1);
    let specs = vec![IndexSpec::with_manifest("live", &manifest).unwrap()];
    let state = ServeState::with_catalog(specs, None, ServeConfig::default()).unwrap();
    assert!(body(&state, "/ix/live/doctor").contains("\"healthy\":true"));

    let orphan = root.join("corpus.base7.0.gksix");
    std::fs::copy(root.join("corpus.base0.0.gksix"), &orphan).unwrap();
    for target in ["/ix/live/doctor", "/doctor"] {
        let sick = body(&state, target);
        assert!(sick.contains("\"healthy\":false"), "{target}: {sick}");
        assert!(sick.contains("\"manifest: orphaned shard file "), "{target}: {sick}");
        assert!(sick.contains("corpus.base7.0.gksix"), "{target}: {sick}");
    }
    std::fs::remove_file(&orphan).unwrap();
    assert!(body(&state, "/ix/live/doctor").contains("\"healthy\":true"));
    std::fs::remove_dir_all(&root).ok();
}

fn wait_for<F: Fn() -> bool>(what: &str, deadline: Duration, f: F) {
    let started = Instant::now();
    while !f() {
        assert!(started.elapsed() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(20));
    }
}

fn body_of(addr: SocketAddr, target: &str) -> String {
    http_get(addr, target, Duration::from_secs(5)).unwrap().body_text()
}

/// The full background loop over real sockets: `serve --watch` with a
/// compaction threshold picks up a corpus mutation on its own, serves it,
/// compacts the backlog down, and never answers 5xx while clients hammer
/// the index throughout.
#[test]
fn watcher_thread_picks_up_changes_under_load() {
    let root = std::env::temp_dir().join(format!("gks-live-watch-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let manifest = seed_corpus(&root, 2);
    let corpus = root.join("corpus");
    // Compaction runs on the watcher tick: a threshold without a watcher,
    // or of zero delta shards, is a configuration error.
    let watch = Some(Duration::from_millis(40));
    for (watch_interval, compact_threshold) in [(None, Some(1)), (watch, Some(0))] {
        let config = ServeConfig { watch_interval, compact_threshold, ..ServeConfig::default() };
        let specs = vec![IndexSpec::with_manifest("live", &manifest).unwrap()];
        let refused = serve_catalog(specs, None, config).map(|server| server.shutdown());
        assert!(matches!(refused, Err(ServeError::BadConfig(_))), "{watch_interval:?}");
    }
    let specs = vec![IndexSpec::with_manifest("live", &manifest).unwrap()];
    let config = ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        watch_interval: watch,
        compact_threshold: Some(1),
        ..ServeConfig::default()
    };
    let server = serve_catalog(specs, Some("live"), config).unwrap();
    let addr = server.local_addr();

    let stop = Arc::new(AtomicBool::new(false));
    let fivexx = Arc::new(AtomicU64::new(0));
    let hammer = {
        let stop = Arc::clone(&stop);
        let fivexx = Arc::clone(&fivexx);
        std::thread::spawn(move || {
            while !stop.load(Ordering::Relaxed) {
                if let Ok(r) = http_get(addr, "/search?q=banana", Duration::from_secs(5)) {
                    if r.status >= 500 {
                        fivexx.fetch_add(1, Ordering::Relaxed);
                    }
                }
            }
        })
    };

    write_doc(&corpus, "d9", "kumquat banana");
    wait_for("the watcher to serve the new doc", Duration::from_secs(30), || {
        !body_of(addr, "/search?q=kumquat").contains("\"total_hits\":0")
    });
    wait_for("the compactor to fold the backlog", Duration::from_secs(30), || {
        metric_value(&body_of(addr, "/metrics"), "gks_compactions_total{index=\"live\"}")
            .is_some_and(|n| n >= 1)
    });
    // Still serving the mutation after compaction folded the backlog.
    assert!(!body_of(addr, "/search?q=kumquat").contains("\"total_hits\":0"));
    let metrics = body_of(addr, "/metrics");
    assert!(metric_value(&metrics, "gks_delta_commits_total{index=\"live\"}").unwrap() >= 1);
    assert_eq!(metric_value(&metrics, "gks_delta_shards{index=\"live\"}"), Some(0));

    stop.store(true, Ordering::Relaxed);
    hammer.join().unwrap();
    server.shutdown();
    assert_eq!(fivexx.load(Ordering::Relaxed), 0, "no 5xx during live updates");
    std::fs::remove_dir_all(&root).ok();
}
