//! Sharded serving properties. The load-bearing one: a catalog index backed
//! by N shards over a document-partitioned corpus returns **byte-identical**
//! wire JSON to a single-engine index over the same corpus, for `/search`
//! and `/suggest` alike — the gather stage's merge is lossless. Further
//! tests hammer a sharded index while one shard hot-reloads under it and
//! assert no request ever fails or observes a mixed generation, and pin
//! down what a reload installs: a re-tiled generation on success, nothing
//! at all on failure.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use gks_core::engine::Engine;
use gks_index::{split_corpus, Corpus, GksIndex, IndexOptions, ShardManifest};
use gks_server::catalog::IndexSpec;
use gks_server::http::{parse_request, HttpResponse};
use gks_server::metrics::metric_value;
use gks_server::{ServeConfig, ServeState};
use proptest::prelude::*;

fn arb_word() -> impl Strategy<Value = String> {
    prop::sample::select(vec!["alpha", "beta", "gamma", "delta", "epsilon"])
        .prop_map(str::to_string)
}

fn arb_doc() -> impl Strategy<Value = String> {
    prop::collection::vec(prop::collection::vec(arb_word(), 1..4), 1..6).prop_map(|records| {
        let mut xml = String::from("<root>");
        for rec in records {
            xml.push_str("<rec>");
            for w in rec {
                xml.push_str(&format!("<w>{w}</w>"));
            }
            xml.push_str("</rec>");
        }
        xml.push_str("</root>");
        xml
    })
}

fn corpus_of(docs: &[String]) -> Corpus {
    let mut corpus = Corpus::new();
    for (i, xml) in docs.iter().enumerate() {
        corpus.push(format!("doc{i}"), xml.clone());
    }
    corpus
}

fn unsharded_state(corpus: &Corpus) -> ServeState {
    let engine = Arc::new(Engine::build(corpus, IndexOptions::default()).unwrap());
    ServeState::new(engine, ServeConfig::default()).unwrap()
}

fn sharded_state(corpus: &Corpus, shards: usize) -> ServeState {
    let engines: Vec<Arc<Engine>> = split_corpus(corpus, shards)
        .iter()
        .map(|part| Arc::new(Engine::build(part, IndexOptions::default()).unwrap()))
        .collect();
    let specs = vec![IndexSpec::with_shard_engines("default", engines)];
    ServeState::with_catalog(specs, None, ServeConfig::default()).unwrap()
}

fn get(state: &ServeState, target: &str) -> HttpResponse {
    let request = parse_request(&format!("GET {target} HTTP/1.1\r\n\r\n")).unwrap();
    state.handle(&request, Instant::now())
}

fn header<'a>(response: &'a HttpResponse, name: &str) -> Option<&'a str> {
    response.headers.iter().find(|(k, _)| *k == name).map(|(_, v)| v.as_str())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Sharded == unsharded, byte for byte, for N ∈ {2, 3, 4}.
    #[test]
    fn sharded_search_byte_equals_unsharded(
        docs in prop::collection::vec(arb_doc(), 2..8),
        kws in prop::collection::hash_set(arb_word(), 1..4),
        s in 1usize..3,
        shards in 2usize..5,
        suggest in prop::sample::select(vec![false, true]),
    ) {
        let words: Vec<String> = kws.into_iter().collect();
        let target = format!(
            "/{}?q={}&s={s}",
            if suggest { "suggest" } else { "search" },
            words.join("+"),
        );
        let corpus = corpus_of(&docs);
        let mono = unsharded_state(&corpus);
        let split = sharded_state(&corpus, shards);
        let expected = get(&mono, &target);
        let actual = get(&split, &target);
        prop_assert_eq!(expected.status, 200);
        prop_assert_eq!(actual.status, 200);
        prop_assert_eq!(
            &actual.body, &expected.body,
            "sharded wire bytes must equal unsharded"
        );
        // The scatter announces its width; a cached replay announces it too.
        let want = split.catalog().default_index().shard_count().to_string();
        prop_assert_eq!(header(&actual, "x-gks-shards"), Some(want.as_str()));
        let replay = get(&split, &target);
        prop_assert_eq!(header(&replay, "x-gks-cache"), Some("hit"));
        prop_assert_eq!(&replay.body, &expected.body, "cache hit must replay the merge");

        // Cost accounting must gather losslessly too: every ledger counter
        // is a per-document sum and shards partition documents, so the
        // field-wise sum of the per-shard ledgers equals the unsharded
        // ledger exactly. The summary header carries all scalar counters.
        let explain_target = format!("{target}&explain=1");
        let mono_explained = get(&mono, &explain_target);
        let split_explained = get(&split, &explain_target);
        prop_assert_eq!(mono_explained.status, 200);
        prop_assert_eq!(split_explained.status, 200);
        prop_assert_eq!(
            header(&mono_explained, "x-gks-cost"),
            header(&split_explained, "x-gks-cost"),
            "gathered cost summary must equal the unsharded one"
        );
        if !suggest {
            // The explained bodies agree on everything up to the per-shard
            // breakdown (`shard_costs` legitimately differs: [] vs N
            // entries) — the merged `cost` object itself is byte-identical.
            let mono_body = String::from_utf8(mono_explained.body.to_vec()).unwrap();
            let split_body = String::from_utf8(split_explained.body.to_vec()).unwrap();
            let up_to_shards = |body: &str| body.split("\"shard_costs\":").next().unwrap().to_string();
            prop_assert_eq!(
                up_to_shards(&mono_body),
                up_to_shards(&split_body),
                "merged cost object must byte-equal the unsharded one"
            );
            let shard_count = split.catalog().default_index().shard_count();
            let tail = split_body.split("\"shard_costs\":[").nth(1).unwrap();
            let per_shard = tail.matches("\"postings_scanned\":").count();
            prop_assert_eq!(per_shard, shard_count, "one ledger per shard in the breakdown");
        }
    }
}

/// Satellite checks on one deterministic sharded request: the
/// `Server-Timing` header covers the scatter/gather phases, `explain=1`
/// adds a parseable `x-gks-cost` summary and the in-body per-shard
/// breakdown, and the engine run lands in the `/debug/top` offender table.
#[test]
fn sharded_explain_carries_scatter_timing_cost_and_top_entry() {
    let corpus = {
        let mut c = Corpus::new();
        for i in 0..6 {
            c.push(format!("doc{i}"), format!("<r><a>alpha beta</a><b>gamma doc{i}</b></r>"));
        }
        c
    };
    let split = sharded_state(&corpus, 2);
    let response = get(&split, "/search?q=alpha+gamma&s=1&explain=1");
    assert_eq!(response.status, 200);
    let timing = header(&response, "Server-Timing").expect("sharded responses carry Server-Timing");
    assert!(timing.contains("scatter"), "scatter phase in Server-Timing: {timing}");
    assert!(timing.contains("gather"), "gather phase in Server-Timing: {timing}");
    let summary = header(&response, "x-gks-cost").expect("explain=1 adds the cost summary header");
    let ledger = gks_core::CostLedger::parse_summary_header(summary).expect("parseable summary");
    assert!(ledger.postings_scanned > 0, "work was accounted: {summary}");
    assert!(ledger.result_bytes > 0, "result bytes were accounted: {summary}");
    let body = String::from_utf8(response.body.to_vec()).unwrap();
    assert!(body.contains("\"cost\":{\"postings_scanned\":"), "{body}");
    assert!(body.contains("\"shard_costs\":[{"), "per-shard breakdown present: {body}");
    // Non-explain requests carry no cost header.
    let plain = get(&split, "/search?q=alpha+gamma&s=1");
    assert_eq!(header(&plain, "x-gks-cost"), None);
    // Both engine runs above aggregated into the offender table.
    let top = get(&split, "/debug/top?n=5");
    assert_eq!(top.status, 200);
    let top_body = String::from_utf8(top.body.to_vec()).unwrap();
    assert!(top_body.contains("\"query\":\"alpha gamma\""), "{top_body}");
    assert!(top_body.contains("\"count\":2"), "two engine runs aggregated: {top_body}");
    let filtered = get(&split, "/ix/default/debug/top?n=5");
    assert!(String::from_utf8(filtered.body.to_vec())
        .unwrap()
        .contains("\"index\":\"default\""));
    let bad = get(&split, "/debug/top?n=wat");
    assert_eq!(bad.status, 400);
}

/// The ISSUE's acceptance bar for the persistent shard executor: once the
/// resident index is warm, a sharded `/search` issues **zero** thread
/// spawns on the request path — scatter is a channel send into per-shard
/// lanes that already exist. The resident index's own executor counts
/// every lane thread it ever spawned (sibling tests' pools do not touch
/// it), so a flat count across a burst of cache-missing requests proves
/// the fan-out is spawn-free.
#[test]
fn sharded_search_spawns_no_threads_on_the_request_path() {
    let corpus = {
        let mut c = Corpus::new();
        for i in 0..8 {
            c.push(format!("doc{i}"), format!("<r><a>alpha beta</a><b>gamma doc{i}</b></r>"));
        }
        c
    };
    let split = sharded_state(&corpus, 4);
    // Warm-up: the first request may lazily grow executor lanes.
    assert_eq!(get(&split, "/search?q=alpha&s=1").status, 200);
    let executor = split.catalog().default_index().executor();
    let spawned_before = executor.threads_spawned();
    assert!(spawned_before >= 4, "a lane per shard exists before the burst");
    for i in 0..20 {
        // Distinct queries dodge the result cache, forcing a real scatter.
        let response = get(&split, &format!("/search?q=alpha+gamma+doc{i}&s=1"));
        assert_eq!(response.status, 200);
        assert_eq!(header(&response, "x-gks-shards"), Some("4"));
    }
    assert_eq!(
        executor.threads_spawned(),
        spawned_before,
        "warm sharded scatter must not spawn threads per request"
    );
}

/// One executor per catalog, not per index: two 2-shard indexes scatter
/// over the same two lanes, so a warm miss burst on both leaves exactly
/// `2 × workers` lane threads spawned — not that many per index.
#[test]
fn sharded_indexes_share_one_executor() {
    let mut corpus = Corpus::new();
    for i in 0..8 {
        corpus.push(format!("doc{i}"), format!("<r><a>alpha beta</a><b>gamma doc{i}</b></r>"));
    }
    let engines = || -> Vec<Arc<Engine>> {
        split_corpus(&corpus, 2)
            .iter()
            .map(|part| Arc::new(Engine::build(part, IndexOptions::default()).unwrap()))
            .collect()
    };
    let specs = vec![
        IndexSpec::with_shard_engines("left", engines()),
        IndexSpec::with_shard_engines("right", engines()),
    ];
    let config = ServeConfig::default();
    let workers = config.workers;
    let state = ServeState::with_catalog(specs, None, config).unwrap();
    let left = state.catalog().get("left").unwrap().executor();
    let right = state.catalog().get("right").unwrap().executor();
    assert!(std::ptr::eq(left, right), "both indexes share the catalog's executor");
    for i in 0..10 {
        for entry in ["left", "right"] {
            // Distinct queries dodge the result cache, forcing a real scatter.
            let response = get(&state, &format!("/ix/{entry}/search?q=alpha+gamma+doc{i}&s=1"));
            assert_eq!(response.status, 200);
            assert_eq!(header(&response, "x-gks-cache"), Some("miss"));
            assert_eq!(header(&response, "x-gks-shards"), Some("2"));
        }
    }
    assert_eq!(left.threads_spawned(), 2 * workers, "one lane per shard slot, catalog-wide");
}

/// Builds a 2-shard on-disk index set (plus manifest) for the reload test.
fn persist_shards(dir: &std::path::Path, corpus: &Corpus) -> std::path::PathBuf {
    std::fs::create_dir_all(dir).unwrap();
    let mut manifest = ShardManifest::default();
    let mut base = 0u32;
    for (i, part) in split_corpus(corpus, 2).iter().enumerate() {
        let index = GksIndex::build(part, IndexOptions::default()).unwrap();
        let path = dir.join(format!("shard-{i}.gksix"));
        index.save(&path).unwrap();
        let mut entry = ShardManifest::entry_for(&index, &path, base);
        entry.id = u64::try_from(i).unwrap();
        manifest.shards.push(entry);
        base += u32::try_from(part.len()).unwrap();
    }
    let manifest_path = dir.join("corpus.shards");
    manifest.save(&manifest_path).unwrap();
    manifest_path
}

/// `/doctor` audits every shard of the set, not just slot 0: posting bytes
/// sit outside the open-time checksum, so a shard-1 file with a trashed
/// posting region still opens and serves — only the doctor's forced decode
/// of every run can see it, and it must name the shard.
#[test]
fn doctor_audits_every_shard_of_the_set() {
    let dir = std::env::temp_dir().join(format!("gks-shard-doctor-{}", std::process::id()));
    let corpus = {
        let mut c = Corpus::new();
        for i in 0..6 {
            c.push(format!("doc{i}"), format!("<r><a>alpha beta</a><b>gamma doc{i}</b></r>"));
        }
        c
    };
    let manifest_path = persist_shards(&dir, &corpus);
    let serve = || {
        let specs = vec![IndexSpec::with_manifest("default", &manifest_path).unwrap()];
        ServeState::with_catalog(specs, None, ServeConfig::default()).unwrap()
    };
    let healthy = String::from_utf8(get(&serve(), "/doctor").body.to_vec()).unwrap();
    assert!(healthy.starts_with("{\"healthy\":true,"), "{healthy}");
    assert!(healthy.contains("\"violations\":[]"), "{healthy}");
    let whole = Engine::build(&corpus, IndexOptions::default()).unwrap();
    let nodes = whole.index().stats().total_nodes;
    assert!(
        healthy.contains(&format!("\"nodes\":{nodes},")),
        "counts sum over shards: {healthy}"
    );

    let shard1 = dir.join("shard-1.gksix");
    let sizes = gks_index::section_sizes(&shard1).unwrap();
    let mut bytes = std::fs::read(&shard1).unwrap();
    let end = usize::try_from(sizes.total - sizes.footer).unwrap();
    let start = end - usize::try_from(sizes.postings).unwrap();
    assert!(start < end, "shard 1 has posting bytes to corrupt");
    bytes[start..end].fill(0xff);
    std::fs::write(&shard1, bytes).unwrap();

    let state = serve();
    for target in ["/doctor", "/ix/default/doctor"] {
        let sick = String::from_utf8(get(&state, target).body.to_vec()).unwrap();
        assert!(sick.contains("\"healthy\":false"), "{target}: {sick}");
        assert!(!sick.contains("\"healthy\":true"), "{target}: {sick}");
        assert!(sick.contains("\"shard-1: a posting run failed to decode"), "{target}: {sick}");
        assert!(!sick.contains("\"shard-0:"), "shard 0 is clean: {sick}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Reloading one shard under concurrent query load never surfaces a 5xx
/// and never merges a mixed-generation answer: every response is
/// byte-identical to the quiescent answer (shard 1's file is replaced by a
/// copy of itself, so any deviation would be a torn merge).
#[test]
fn reload_one_shard_under_load_is_invisible() {
    let dir = std::env::temp_dir().join(format!("gks-shard-reload-{}", std::process::id()));
    let corpus = {
        let mut c = Corpus::new();
        for i in 0..6 {
            c.push(format!("doc{i}"), format!("<r><a>alpha beta</a><b>gamma doc{i}</b></r>"));
        }
        c
    };
    let manifest_path = persist_shards(&dir, &corpus);
    let specs = vec![IndexSpec::with_manifest("default", &manifest_path).unwrap()];
    // Cache off so every request exercises the scatter/gather path.
    let config = ServeConfig { cache_bytes: 0, ..ServeConfig::default() };
    let state = Arc::new(ServeState::with_catalog(specs, None, config).unwrap());

    let expected = get(&state, "/search?q=alpha+gamma&s=1").body;
    let stop = Arc::new(AtomicBool::new(false));
    let failures = Arc::new(AtomicU64::new(0));
    let requests = Arc::new(AtomicU64::new(0));

    std::thread::scope(|scope| {
        for _ in 0..3 {
            let state = Arc::clone(&state);
            let stop = Arc::clone(&stop);
            let failures = Arc::clone(&failures);
            let requests = Arc::clone(&requests);
            let expected = expected.clone();
            scope.spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    let response = get(&state, "/search?q=alpha+gamma&s=1");
                    requests.fetch_add(1, Ordering::Relaxed);
                    if response.status >= 500 || response.body != expected {
                        failures.fetch_add(1, Ordering::Relaxed);
                    }
                }
            });
        }
        // Replace shard 1's file and reload, repeatedly, while the query
        // threads hammer: each reload reopens shard 1 and reuses shard 0.
        let resident = Arc::clone(state.catalog().default_index());
        let (shard1, copy) = (dir.join("shard-1.gksix"), dir.join("shard-1.copy"));
        for _ in 0..25 {
            std::fs::copy(&shard1, &copy).unwrap();
            std::fs::rename(&copy, &shard1).unwrap();
            let (before, after) = resident.reload().unwrap();
            assert_ne!(before, after, "a replaced file is a new generation");
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        // Reloads with no file changed install nothing.
        for _ in 0..5 {
            let (before, after) = resident.reload().unwrap();
            assert_eq!(before, after, "unchanged files, same generation");
        }
        stop.store(true, Ordering::Relaxed);
    });

    assert!(requests.load(Ordering::Relaxed) > 0, "query threads made progress");
    assert_eq!(failures.load(Ordering::Relaxed), 0, "no 5xx, no torn merges");
    let text = {
        let request = parse_request("GET /metrics HTTP/1.1\r\n\r\n").unwrap();
        String::from_utf8(state.handle(&request, Instant::now()).body.to_vec()).unwrap()
    };
    assert!(
        !text.contains("generation_total"),
        "whole-generation swaps cannot mix shards, so there is nothing to count: {text}"
    );
    assert_eq!(metric_value(&text, "gks_index_shards{index=\"default\"}"), Some(2));
    assert_eq!(
        metric_value(&text, "gks_index_reloads_total{index=\"default\"}"),
        Some(25),
        "every reload of a replaced file was recorded, and only those"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// A manifest spec round-trips through the catalog (doc bases derived from
/// the loaded shards match the manifest's record), and reloading it with no
/// file changed keeps the generation.
#[test]
fn shard_reload_validation_and_manifest_spec() {
    let dir = std::env::temp_dir().join(format!("gks-shard-spec-{}", std::process::id()));
    let corpus = {
        let mut c = Corpus::new();
        for i in 0..5 {
            c.push(format!("doc{i}"), format!("<r><a>word{i}</a></r>"));
        }
        c
    };
    let manifest_path = persist_shards(&dir, &corpus);
    let specs = vec![IndexSpec::with_manifest("m", &manifest_path).unwrap()];
    let state = ServeState::with_catalog(specs, Some("m"), ServeConfig::default()).unwrap();
    let resident = state.catalog().default_index();
    assert_eq!(resident.shard_count(), 2);
    let set = resident.snapshot_all();
    let manifest = ShardManifest::load(&manifest_path).unwrap();
    let expected: Vec<gks_core::shard::DocMap> = manifest
        .shards
        .iter()
        .map(|s| gks_core::shard::DocMap::base(s.doc_base))
        .collect();
    assert_eq!(set.doc_maps, expected, "loaded doc maps match the manifest split");
    assert_eq!(set.epoch, resident.identity());
    let (before, after) = resident.reload().unwrap();
    assert_eq!(before, after, "same files on disk, same generation");
    std::fs::remove_dir_all(&dir).ok();
}

/// Saves one shard file over `docs` (name, XML) pairs.
fn save_shard(path: &std::path::Path, docs: &[(String, String)]) {
    let corpus =
        Corpus::from_named_strs(docs.iter().map(|(n, x)| (n.as_str(), x.as_str()))).unwrap();
    GksIndex::build(&corpus, IndexOptions::default()).unwrap().save(path).unwrap();
}

/// `count` documents named `{prefix}{i}`, each holding `words`.
fn shard_docs(prefix: &str, count: usize, words: &str) -> Vec<(String, String)> {
    (0..count)
        .map(|i| (format!("{prefix}{i}"), format!("<r><a>{words} {prefix}{i}</a></r>")))
        .collect()
}

fn post(state: &ServeState, target: &str) -> HttpResponse {
    let request = parse_request(&format!("POST {target} HTTP/1.1\r\n\r\n")).unwrap();
    state.handle(&request, Instant::now())
}

/// A path-list reload that fails part-way installs nothing: shard 0's file
/// changed and shard 1's vanished, so no single reload can produce a set,
/// and the index must keep serving the generation it had — not new shard 0
/// beside old shard 1.
#[test]
fn failed_path_list_reload_installs_nothing() {
    let dir = std::env::temp_dir().join(format!("gks-shard-failed-reload-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let paths = [dir.join("s0.gksix"), dir.join("s1.gksix")];
    save_shard(&paths[0], &shard_docs("a", 2, "alpha"));
    save_shard(&paths[1], &shard_docs("b", 2, "alpha beta"));
    let specs = vec![IndexSpec::with_shard_paths("default", paths.clone())];
    // Cache off: every search below is computed against the live generation.
    let config = ServeConfig { cache_bytes: 0, ..ServeConfig::default() };
    let state = ServeState::with_catalog(specs, None, config).unwrap();
    let before = get(&state, "/search?q=alpha&s=1");
    assert_eq!(before.status, 200);

    save_shard(&paths[0], &shard_docs("c", 3, "alpha gamma"));
    std::fs::remove_file(&paths[1]).unwrap();
    let reload = post(&state, "/admin/reload");
    assert_eq!(reload.status, 500, "{}", String::from_utf8_lossy(&reload.body));

    let after = get(&state, "/search?q=alpha&s=1");
    assert_eq!(after.status, 200);
    assert_eq!(after.body, before.body, "the pre-reload generation keeps serving");
    let text = String::from_utf8(get(&state, "/metrics").body.to_vec()).unwrap();
    assert_eq!(metric_value(&text, "gks_index_reloads_total{index=\"default\"}"), Some(0));
    std::fs::remove_dir_all(&dir).ok();
}

/// A path-list reload re-tiles the set's positional document bases: after
/// shard 0 grows by one document, shard 1's hits carry global ids shifted
/// by one, and the body equals a fresh catalog over the new files.
#[test]
fn reload_retiles_positional_bases() {
    let dir = std::env::temp_dir().join(format!("gks-shard-retile-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let paths = [dir.join("s0.gksix"), dir.join("s1.gksix")];
    save_shard(&paths[0], &shard_docs("a", 2, "alpha"));
    save_shard(&paths[1], &shard_docs("b", 2, "omega"));
    let serve = || {
        let specs = vec![IndexSpec::with_shard_paths("default", paths.clone())];
        ServeState::with_catalog(specs, None, ServeConfig::default()).unwrap()
    };
    let state = serve();
    let before = String::from_utf8(get(&state, "/search?q=omega&s=1").body.to_vec()).unwrap();
    assert!(before.contains("\"node\":\"2:") && before.contains("\"node\":\"3:"), "{before}");

    save_shard(&paths[0], &shard_docs("a", 3, "alpha"));
    let (old, new) = state.catalog().default_index().reload().unwrap();
    assert_ne!(old, new, "shard 0 changed, so the generation did");
    let after = String::from_utf8(get(&state, "/search?q=omega&s=1").body.to_vec()).unwrap();
    assert!(!after.contains("\"node\":\"2:"), "shard 1 no longer starts at 2: {after}");
    assert!(after.contains("\"node\":\"3:") && after.contains("\"node\":\"4:"), "{after}");
    let fresh = String::from_utf8(get(&serve(), "/search?q=omega&s=1").body.to_vec()).unwrap();
    assert_eq!(after, fresh, "re-tiled generation equals a fresh catalog over the new files");
    std::fs::remove_dir_all(&dir).ok();
}
