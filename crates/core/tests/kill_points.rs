//! Kill points of the update path: a commit or a compaction whose manifest
//! write fails after its shard files are written leaves the old epoch
//! intact and serving, the new files as orphans the audit reports, and the
//! next attempt of the same step succeeds over them.
//!
//! The failure is forced by a directory at `<manifest>.tmp`, the sibling
//! file the manifest's atomic save writes before it renames.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::fs;
use std::path::{Path, PathBuf};

use gks_core::engine::Engine;
use gks_core::query::Query;
use gks_core::search::{SearchOptions, Threshold};
use gks_core::shard::{load_manifest_engines, sharded_search_mapped};
use gks_core::wire;
use gks_index::{
    audit_manifest, commit_delta, compact, index_directory, IndexOptions, ManifestViolation,
    ShardManifest,
};

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("gks-kill-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    dir
}

fn write(corpus: &Path, name: &str, xml: &str) {
    fs::write(corpus.join(format!("{name}.xml")), xml).unwrap();
}

/// Three documents over two base shards.
fn indexed(root: &Path) -> (PathBuf, PathBuf) {
    let corpus = root.join("corpus");
    fs::create_dir_all(&corpus).unwrap();
    write(&corpus, "a", "<course><name>apple pie</name><student>banana</student></course>");
    write(&corpus, "b", "<course><name>cherry</name><student>apple</student></course>");
    write(
        &corpus,
        "c",
        "<course><name>durian</name><student>apple banana</student></course>",
    );
    let manifest_path = root.join("live.shards");
    index_directory(&corpus, &manifest_path, 2, IndexOptions::default()).unwrap();
    (manifest_path, corpus)
}

/// The wire response of a fixed query through the manifest's shard set.
fn answer(manifest_path: &Path) -> String {
    let manifest = ShardManifest::load(manifest_path).unwrap();
    let loaded = load_manifest_engines(&manifest).unwrap();
    let engines: Vec<&Engine> = loaded.iter().map(|(e, _)| e).collect();
    let maps: Vec<_> = loaded.iter().map(|(_, m)| m.clone()).collect();
    let query = Query::from_keywords(["apple", "banana"].map(String::from)).unwrap();
    let options = SearchOptions { s: Threshold::Fixed(1), limit: 16 };
    let merged = sharded_search_mapped(&engines, &maps, &query, options).unwrap();
    wire::search_response_json_sharded(&engines, &merged)
}

/// The orphaned shard files the audit reports, by file name.
fn orphans(manifest_path: &Path) -> Vec<String> {
    let mut found: Vec<String> = audit_manifest(manifest_path)
        .unwrap()
        .1
        .into_iter()
        .map(|v| match v {
            ManifestViolation::OrphanShardFile { path } => {
                path.file_name().unwrap().to_string_lossy().into_owned()
            }
            other => panic!("unexpected finding {other}"),
        })
        .collect();
    found.sort();
    found
}

/// Runs `step` with the manifest write blocked, checks the old epoch is
/// untouched and `new_files` are reported as orphans, then unblocks and
/// runs it again.
fn killed_then_retried(manifest_path: &Path, step: &dyn Fn(&Path) -> bool, new_files: &[&str]) {
    let before = fs::read(manifest_path).unwrap();
    let answered = answer(manifest_path);
    let block = manifest_path.with_file_name("live.shards.tmp");
    fs::create_dir(&block).unwrap();
    assert!(!step(manifest_path), "the step must fail while the manifest write is blocked");
    assert!(fs::read(manifest_path).unwrap() == before, "the manifest changed");
    assert_eq!(answer(manifest_path), answered, "the old epoch answers differently");
    assert_eq!(orphans(manifest_path), new_files);
    fs::remove_dir(&block).unwrap();
    assert!(step(manifest_path), "the retried step must succeed");
    assert_eq!(orphans(manifest_path), Vec::<String>::new());
}

#[test]
fn a_commit_killed_at_the_manifest_write_leaves_the_old_epoch() {
    let root = scratch("commit");
    let (manifest_path, corpus) = indexed(&root);
    write(&corpus, "d", "<course><name>elder</name><student>apple</student></course>");
    killed_then_retried(
        &manifest_path,
        &|m| matches!(commit_delta(m), Ok(Some(_))),
        &["live.delta1.gksix"],
    );
    let committed = ShardManifest::load(&manifest_path).unwrap();
    assert_eq!(
        (committed.epoch, committed.docs.len(), committed.delta_shard_count()),
        (1, 4, 1)
    );
    fs::remove_dir_all(&root).ok();
}

#[test]
fn a_compaction_killed_at_the_manifest_write_leaves_the_old_epoch() {
    let root = scratch("compact");
    let (manifest_path, corpus) = indexed(&root);
    write(&corpus, "b", "<course><name>fig</name><student>apple banana</student></course>");
    commit_delta(&manifest_path).unwrap().unwrap();
    killed_then_retried(
        &manifest_path,
        &|m| matches!(compact(m), Ok(Some(_))),
        &["live.base2.0.gksix", "live.base2.1.gksix"],
    );
    let folded = ShardManifest::load(&manifest_path).unwrap();
    assert_eq!((folded.epoch, folded.delta_shard_count()), (2, 0));
    fs::remove_dir_all(&root).ok();
}
