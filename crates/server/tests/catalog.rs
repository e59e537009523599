//! Catalog integration tests over real sockets plus a property test for the
//! hot-swap/cache contract: a multi-index server routes `/ix/<name>/…`
//! prefixes to isolated engines and caches, `/admin/reload` swaps a
//! path-backed index atomically under concurrent load with zero 5xx, and a
//! cache hit is never served across a generation change.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::sync::Arc;
use std::time::{Duration, Instant};

use gks_core::engine::Engine;
use gks_index::{Corpus, IndexOptions};
use gks_server::catalog::IndexSpec;
use gks_server::client::{http_get, http_post};
use gks_server::http::{parse_request, HttpResponse};
use gks_server::metrics::metric_value;
use gks_server::{serve_catalog, ServeConfig, ServeState};
use proptest::prelude::*;

const TIMEOUT: Duration = Duration::from_secs(10);

/// A tiny engine whose result bytes are distinguishable per `tag`: the tag
/// is both a document name (distinct identities) and an indexed term.
fn tagged_engine(tag: &str) -> Arc<Engine> {
    let xml = format!(
        "<catalog><item><name>{tag} alpha</name></item>\
         <item><name>{tag} beta gamma</name></item></catalog>"
    );
    let corpus = Corpus::from_named_strs([(tag, xml.as_str())]).unwrap();
    Arc::new(Engine::build(&corpus, IndexOptions::default()).unwrap())
}

fn ephemeral_config() -> ServeConfig {
    ServeConfig { addr: "127.0.0.1:0".to_string(), ..ServeConfig::default() }
}

#[test]
fn two_index_server_routes_and_isolates() {
    let specs = vec![
        IndexSpec::with_engine("nasa", tagged_engine("nasa")),
        IndexSpec::with_engine("dblp", tagged_engine("dblp")),
    ];
    let server = serve_catalog(specs, Some("nasa"), ephemeral_config()).unwrap();
    let addr = server.local_addr();

    // The same query against each prefix reaches a different engine: the
    // keyword "nasa" only exists in the nasa corpus, so the dblp response
    // reports it unmatched.
    let nasa = http_get(addr, "/ix/nasa/search?q=alpha+nasa", TIMEOUT).unwrap();
    let dblp = http_get(addr, "/ix/dblp/search?q=alpha+nasa", TIMEOUT).unwrap();
    assert_eq!(nasa.status, 200);
    assert_eq!(dblp.status, 200);
    assert_ne!(nasa.body, dblp.body, "indexes must serve distinct corpora");
    assert!(nasa.body_text().contains("\"missing\":[]"), "{}", nasa.body_text());
    assert!(dblp.body_text().contains("\"missing\":[\"nasa\"]"), "{}", dblp.body_text());

    // A bare path addresses the default index and shares its cache with the
    // prefixed route: the prefixed request above already warmed the key.
    let bare = http_get(addr, "/search?q=alpha+nasa", TIMEOUT).unwrap();
    assert_eq!(bare.body, nasa.body, "bare path must hit the default index");
    assert_eq!(bare.header("x-gks-cache"), Some("hit"));

    // Normalization: case/slash variants are the same route and cache key.
    let variant = http_get(addr, "/ix/DBLP//search/?q=alpha+nasa", TIMEOUT).unwrap();
    assert_eq!(variant.status, 200);
    assert_eq!(variant.body, dblp.body);
    assert_eq!(variant.header("x-gks-cache"), Some("hit"));

    // Unknown index names are a clean 404, not a fallback to the default.
    assert_eq!(http_get(addr, "/ix/imdb/search?q=alpha", TIMEOUT).unwrap().status, 404);

    // Both indexes surface in /metrics with their own counters.
    let text = http_get(addr, "/metrics", TIMEOUT).unwrap().body_text();
    let requests = |ix: &str| {
        metric_value(&text, &format!("gks_index_requests_total{{index=\"{ix}\"}}")).unwrap()
    };
    assert_eq!(requests("nasa"), 2);
    assert_eq!(requests("dblp"), 2);
    // Each index reports its own generation epoch; nothing has reloaded.
    assert_eq!(metric_value(&text, "gks_index_identity{index=\"nasa\"}"), Some(0));
    assert_eq!(metric_value(&text, "gks_index_identity{index=\"dblp\"}"), Some(0));

    // Per-index doctor answers on the prefix; the bare endpoint covers all.
    let doctor = http_get(addr, "/ix/dblp/doctor", TIMEOUT).unwrap();
    assert_eq!(doctor.status, 200);
    assert!(doctor.body_text().contains("\"index\":\"dblp\""));
    let all = http_get(addr, "/doctor", TIMEOUT).unwrap().body_text();
    assert!(
        all.contains("\"index\":\"nasa\"") && all.contains("\"index\":\"dblp\""),
        "{all}"
    );

    server.shutdown();
}

/// Saves a freshly built index generation at `path` (the reload source).
/// The item count varies per generation, so the result bytes for `q=alpha`
/// change across saves.
fn save_index(generation: usize, path: &std::path::Path) {
    let mut xml = String::from("<catalog>");
    for i in 0..=generation {
        xml.push_str(&format!("<item><name>alpha entry{i}</name></item>"));
    }
    xml.push_str("</catalog>");
    let name = format!("gen{generation}");
    let corpus = Corpus::from_named_strs([(name.as_str(), xml.as_str())]).unwrap();
    let engine = Engine::build(&corpus, IndexOptions::default()).unwrap();
    engine.index().save(path).unwrap();
}

#[test]
fn admin_reload_swaps_identity_and_invalidates_the_cache() {
    let dir = std::env::temp_dir().join(format!("gks-catalog-reload-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("live.gksix");
    save_index(0, &path);

    let specs = vec![
        IndexSpec::with_source("live", &path),
        IndexSpec::with_engine("static", tagged_engine("static")),
    ];
    let server = serve_catalog(specs, None, ephemeral_config()).unwrap();
    let addr = server.local_addr();

    // Method and lookup errors first: reload is POST-only and index-aware.
    assert_eq!(http_get(addr, "/admin/reload", TIMEOUT).unwrap().status, 405);
    assert_eq!(http_post(addr, "/admin/reload?index=nope", TIMEOUT).unwrap().status, 404);
    // An engine-backed index has no source path to re-read.
    assert_eq!(http_post(addr, "/admin/reload?index=static", TIMEOUT).unwrap().status, 400);

    // Warm the cache on the old generation, then swap the file underneath.
    let before = http_get(addr, "/ix/live/search?q=alpha&s=1", TIMEOUT).unwrap();
    assert_eq!(before.status, 200);
    save_index(1, &path);
    let reload = http_post(addr, "/admin/reload?index=live", TIMEOUT).unwrap();
    assert_eq!(reload.status, 200);
    let body = reload.body_text();
    assert!(body.contains("\"index\":\"live\""), "{body}");
    assert!(body.contains("\"changed\":true"), "{body}");

    // The warmed key must not replay the old generation's bytes: same
    // target, but the new generation holds one more matching document node.
    let after = http_get(addr, "/ix/live/search?q=alpha&s=1", TIMEOUT).unwrap();
    assert_eq!(after.status, 200);
    assert_eq!(after.header("x-gks-cache"), Some("miss"), "stale hit across reload");
    assert_ne!(after.body, before.body);

    // /metrics reports the new identity (the next epoch) and the reload count.
    let text = http_get(addr, "/metrics", TIMEOUT).unwrap().body_text();
    assert_eq!(metric_value(&text, "gks_index_identity{index=\"live\"}"), Some(1));
    assert_eq!(metric_value(&text, "gks_index_reloads_total{index=\"live\"}"), Some(1));

    // The path-backed index was loaded from a format-v3 file, so its
    // postings serve straight off the mmap; the in-memory engine maps
    // nothing. Both expose the same gauge set regardless.
    assert!(
        metric_value(&text, "gks_index_bytes_mapped{index=\"live\"}").unwrap() > 0,
        "v3 load must serve postings off the mmap: {text}"
    );
    assert_eq!(metric_value(&text, "gks_index_bytes_mapped{index=\"static\"}"), Some(0));
    assert!(metric_value(&text, "gks_index_open_millis{index=\"live\"}").is_some(), "{text}");

    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn reload_mid_flight_never_yields_5xx() {
    let dir = std::env::temp_dir().join(format!("gks-catalog-midflight-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("hot.gksix");
    save_index(0, &path);

    let config = ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 8,
        queue_depth: 256,
        ..ServeConfig::default()
    };
    let server = serve_catalog(vec![IndexSpec::with_source("hot", &path)], None, config).unwrap();
    let addr = server.local_addr();

    // 8 clients hammer the index while the main thread re-saves and reloads
    // it repeatedly. Every response must be 200 — never a 5xx, never a
    // malformed body — because requests pin their generation snapshot.
    let clients: Vec<_> = (0..8)
        .map(|c| {
            std::thread::spawn(move || {
                let mut statuses = Vec::with_capacity(30);
                for i in 0..30 {
                    let target = format!("/ix/hot/search?q=alpha&limit={}", 1 + (c + i) % 5);
                    let response = http_get(addr, &target, TIMEOUT).unwrap();
                    statuses.push(response.status);
                }
                statuses
            })
        })
        .collect();
    for round in 1..=5 {
        save_index(round, &path);
        let reload = http_post(addr, "/admin/reload?index=hot", TIMEOUT).unwrap();
        assert_eq!(reload.status, 200);
        std::thread::sleep(Duration::from_millis(20));
    }
    for client in clients {
        let statuses = client.join().unwrap();
        assert!(statuses.iter().all(|&s| s == 200), "non-200 under reload: {statuses:?}");
    }

    // The catalog/pool/cache locks are instrumented with the debug-build
    // lock-order registry; this storm of concurrent acquisitions must have
    // flowed through it (and any inversion would have panicked above).
    if cfg!(debug_assertions) {
        assert!(
            gks_trace::lockorder::acquisition_count() > 0,
            "the lock-order registry must observe the instrumented server locks"
        );
    }

    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

fn get(state: &ServeState, target: &str) -> HttpResponse {
    let request = parse_request(&format!("GET {target} HTTP/1.1\r\n\r\n")).unwrap();
    state.handle(&request, Instant::now())
}

/// Builds the two generations used by the swap property: same vocabulary,
/// different documents, therefore different result bytes and identities.
fn generation_engine(generation: bool) -> Arc<Engine> {
    let (name, xml) = if generation {
        (
            "gen-b",
            "<r><rec><w>alpha</w><w>beta</w></rec><rec><w>alpha</w><w>gamma</w></rec></r>",
        )
    } else {
        ("gen-a", "<r><rec><w>alpha</w></rec><rec><w>beta</w><w>gamma</w></rec></r>")
    };
    let corpus = Corpus::from_named_strs([(name, xml)]).unwrap();
    Arc::new(Engine::build(&corpus, IndexOptions::default()).unwrap())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// For any interleaving of queries and hot swaps, the bytes served —
    /// cached or not — always come from the *current* generation: a cache
    /// hit implies the entry's epoch tag matches the live generation's.
    #[test]
    fn served_bytes_always_match_the_live_generation(
        ops in prop::collection::vec(0u8..4, 1..40),
    ) {
        let engines = [generation_engine(false), generation_engine(true)];
        // Uncached reference states: ground truth per generation.
        let reference: Vec<ServeState> = engines
            .iter()
            .map(|e| {
                let config = ServeConfig { cache_bytes: 0, ..ServeConfig::default() };
                ServeState::new(Arc::clone(e), config).unwrap()
            })
            .collect();
        let state = ServeState::new(Arc::clone(&engines[0]), ServeConfig::default()).unwrap();
        let resident = state.catalog().default_index();
        let mut generation = 0usize;
        for op in ops {
            if op == 3 {
                generation = 1 - generation;
                let engine = Arc::clone(&engines[generation]);
                resident.swap_engine(engine);
                continue;
            }
            let target = format!("/search?q={}&s=1", ["alpha", "beta", "gamma"][op as usize]);
            let served = get(&state, &target);
            let fresh = get(&reference[generation], &target);
            prop_assert_eq!(served.status, 200);
            prop_assert_eq!(
                &served.body,
                &fresh.body,
                "served bytes must come from generation {}",
                generation
            );
        }
    }
}
