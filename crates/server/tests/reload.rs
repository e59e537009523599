//! What a reload installs: the answers of the files on disk, whatever the
//! files looked like before. A reload reopens exactly the shard files that
//! changed — a file rebuilt in place at the same path, or edited without
//! changing any count, included — and a reload that changes nothing keeps
//! the generation and its warm cache. Every answer below is compared with a
//! fresh catalog over the same files.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use gks_index::delta::index_directory;
use gks_index::{index_corpus, Corpus, GksIndex, IndexOptions};
use gks_server::catalog::IndexSpec;
use gks_server::http::{parse_request, HttpResponse};
use gks_server::metrics::metric_value;
use gks_server::{ServeConfig, ServeState};

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("gks-reload-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Four documents `doc0..doc3`, each holding `word`.
fn corpus_of(word: &str) -> Corpus {
    let mut corpus = Corpus::new();
    for i in 0..4 {
        corpus.push(format!("doc{i}"), format!("<r><a>{word} item{i}</a></r>"));
    }
    corpus
}

fn get(state: &ServeState, target: &str) -> HttpResponse {
    let request = parse_request(&format!("GET {target} HTTP/1.1\r\n\r\n")).unwrap();
    state.handle(&request, Instant::now())
}

fn post(state: &ServeState, target: &str) -> HttpResponse {
    let request = parse_request(&format!("POST {target} HTTP/1.1\r\n\r\n")).unwrap();
    state.handle(&request, Instant::now())
}

fn text(response: &HttpResponse) -> String {
    String::from_utf8(response.body.to_vec()).unwrap()
}

fn cache_header(response: &HttpResponse) -> Option<&str> {
    response
        .headers
        .iter()
        .find(|(k, _)| *k == "x-gks-cache")
        .map(|(_, v)| v.as_str())
}

fn manifest_state(manifest: &Path) -> ServeState {
    let specs = vec![IndexSpec::with_manifest("default", manifest).unwrap()];
    ServeState::with_catalog(specs, None, ServeConfig::default()).unwrap()
}

fn source_state(path: &Path) -> ServeState {
    let specs = vec![IndexSpec::with_source("default", path)];
    ServeState::with_catalog(specs, None, ServeConfig::default()).unwrap()
}

/// `gks index --shards 2` rewrites the same shard paths under the same
/// shard ids. The reload must reopen both files, not reuse the old maps.
#[test]
fn manifest_rebuilt_in_place_serves_the_new_files() {
    let dir = scratch_dir("rebuilt");
    let manifest = dir.join("corpus.shards");
    index_corpus(&corpus_of("alpha"), &manifest, 2, IndexOptions::default()).unwrap();
    let state = manifest_state(&manifest);
    assert!(text(&get(&state, "/search?q=omega&s=1")).contains("\"total_hits\":0"));
    assert!(!text(&get(&state, "/search?q=alpha&s=1")).contains("\"total_hits\":0"));

    index_corpus(&corpus_of("omega"), &manifest, 2, IndexOptions::default()).unwrap();
    let reload = text(&post(&state, "/admin/reload"));
    assert!(reload.contains("\"changed\":true"), "{reload}");

    let fresh = manifest_state(&manifest);
    for target in ["/search?q=omega&s=1", "/search?q=alpha&s=1", "/suggest?q=omega"] {
        let served = get(&state, target);
        assert_eq!(served.status, 200);
        assert_eq!(text(&served), text(&get(&fresh, target)), "{target}");
    }
    assert!(!text(&get(&state, "/search?q=omega&s=1")).contains("\"total_hits\":0"));
    std::fs::remove_dir_all(&dir).ok();
}

/// An edit that keeps every document name, node, term and posting count —
/// and the file length — is still a new file: the warmed key must miss and
/// answer from the edited file.
#[test]
fn same_count_edit_is_reloaded_and_never_a_stale_hit() {
    let dir = scratch_dir("same-count");
    let path = dir.join("live.gksix");
    GksIndex::build(&corpus_of("alpha"), IndexOptions::default())
        .unwrap()
        .save(&path)
        .unwrap();
    let len_before = std::fs::metadata(&path).unwrap().len();
    let state = source_state(&path);
    let warm = get(&state, "/search?q=omega&s=1");
    assert!(text(&warm).contains("\"total_hits\":0"));
    assert_eq!(cache_header(&get(&state, "/search?q=omega&s=1")), Some("hit"));

    GksIndex::build(&corpus_of("omega"), IndexOptions::default())
        .unwrap()
        .save(&path)
        .unwrap();
    assert_eq!(std::fs::metadata(&path).unwrap().len(), len_before, "same-size edit");
    let reload = text(&post(&state, "/admin/reload"));
    assert!(reload.contains("\"changed\":true"), "{reload}");

    let served = get(&state, "/search?q=omega&s=1");
    assert_eq!(cache_header(&served), Some("miss"), "stale hit across reload");
    assert_eq!(text(&served), text(&get(&source_state(&path), "/search?q=omega&s=1")));
    assert!(!text(&served).contains("\"total_hits\":0"));
    std::fs::remove_dir_all(&dir).ok();
}

/// A reload with no file changed installs nothing: the response says
/// `"changed":false` and the warmed key stays a hit.
#[test]
fn noop_reload_keeps_the_cache_warm() {
    let dir = scratch_dir("noop");
    let manifest = dir.join("corpus.shards");
    index_corpus(&corpus_of("alpha"), &manifest, 2, IndexOptions::default()).unwrap();
    let state = manifest_state(&manifest);
    let warm = get(&state, "/search?q=alpha&s=1");
    assert_eq!(cache_header(&warm), Some("miss"));

    let reload = text(&post(&state, "/admin/reload"));
    let expected =
        "{\"index\":\"default\",\"identity_before\":0,\"identity_after\":0,\"changed\":false}";
    assert_eq!(reload, expected, "the generation epoch did not move");
    let again = get(&state, "/search?q=alpha&s=1");
    assert_eq!(cache_header(&again), Some("hit"), "a no-op reload keeps the cache");
    assert_eq!(again.body, warm.body);
    let metrics = text(&get(&state, "/metrics"));
    assert_eq!(
        metric_value(&metrics, "gks_index_reloads_total{index=\"default\"}"),
        Some(0),
        "nothing was installed"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// A delta commit writes a new delta shard and a new manifest; every base
/// shard file is untouched, so the next generation shares their open
/// indexes with the previous one and opens only the delta.
#[test]
fn maintain_reuses_every_unchanged_base_shard() {
    let dir = scratch_dir("reuse");
    let corpus = dir.join("corpus");
    std::fs::create_dir_all(&corpus).unwrap();
    for i in 0..4 {
        std::fs::write(corpus.join(format!("d{i}.xml")), format!("<r><a>alpha d{i}</a></r>"))
            .unwrap();
    }
    let manifest = dir.join("corpus.shards");
    index_directory(&corpus, &manifest, 2, IndexOptions::default()).unwrap();
    let state = manifest_state(&manifest);
    let resident = state.catalog().default_index();
    let before = resident.snapshot_all();
    assert_eq!(before.shards.len(), 2);

    // One added document and one modified: a delta shard plus a tombstone
    // over a base shard, but no base shard file is rewritten.
    std::fs::write(corpus.join("d4.xml"), "<r><a>omega d4</a></r>").unwrap();
    std::fs::write(corpus.join("d0.xml"), "<r><a>omega d0</a></r>").unwrap();
    resident.maintain(None).unwrap().expect("a delta was committed");
    let after = resident.snapshot_all();
    assert_eq!(after.shards.len(), 3, "two base shards and one delta");
    assert!(after.epoch > before.epoch);
    for (old, new) in before.shards.iter().zip(&after.shards) {
        assert!(
            Arc::ptr_eq(&old.engine.index_shared(), &new.engine.index_shared()),
            "an unchanged base shard is reused, not reopened"
        );
    }
    let delta = after.shards[2].engine.index();
    assert!(before.shards.iter().all(|s| !std::ptr::eq(s.engine.index(), delta)));
    assert_eq!(
        text(&get(&state, "/search?q=omega&s=1")),
        text(&get(&manifest_state(&manifest), "/search?q=omega&s=1"))
    );
    std::fs::remove_dir_all(&dir).ok();
}
