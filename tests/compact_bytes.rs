//! Compaction merges the committed shards instead of re-reading the XML,
//! and the files it writes are the bytes a fresh `index_directory` writes
//! over the same directory — for every `ingest` shape: shared DBLP
//! vocabularies, deep TreeBank ids that spill, Mondial's lifted XML
//! attributes, SwissProt's and NASA's nested records.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::fs;
use std::path::{Path, PathBuf};

use gks_datagen::Dataset;
use gks_index::{commit_delta, compact, index_directory, IndexOptions, ShardManifest};

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("gks-compact-bytes-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    dir
}

/// Four documents of one shape over two base shards; one commit rewrites
/// one, deletes one and adds one; the fold's base files must equal a fresh
/// build's.
fn check(dataset: Dataset, scale: usize) {
    let root = scratch(dataset.name());
    let corpus = root.join("corpus");
    fs::create_dir_all(&corpus).unwrap();
    let doc = |name: &str, seed: u64| {
        fs::write(corpus.join(format!("{name}.xml")), dataset.generate(scale, seed)).unwrap();
    };
    for (name, seed) in [("a", 11), ("b", 12), ("c", 13), ("d", 14)] {
        doc(name, seed);
    }
    let manifest_path = root.join("live.shards");
    index_directory(&corpus, &manifest_path, 2, IndexOptions::default()).unwrap();
    doc("b", 21);
    fs::remove_file(corpus.join("c.xml")).unwrap();
    doc("e", 22);
    let commit = commit_delta(&manifest_path).unwrap().unwrap();
    assert_eq!((commit.added, commit.changed, commit.deleted), (1, 1, 1));
    compact(&manifest_path).unwrap().unwrap();

    let fresh_path = root.join("fresh.shards");
    let fresh = index_directory(&corpus, &fresh_path, 2, IndexOptions::default()).unwrap();
    let folded = ShardManifest::load(&manifest_path).unwrap();
    assert_eq!(folded.shards.len(), 2);
    for (got, want) in folded.shards.iter().zip(&fresh.shards) {
        let want_path: &Path = &root.join(&want.path);
        assert!(
            fs::read(&got.path).unwrap() == fs::read(want_path).unwrap(),
            "{}: {} differs from {}",
            dataset.name(),
            got.path.display(),
            want_path.display()
        );
    }
    fs::remove_dir_all(&root).ok();
}

#[test]
fn dblp_compaction_writes_the_rebuilt_bytes() {
    check(Dataset::Dblp, 300);
}

#[test]
fn treebank_compaction_writes_the_rebuilt_bytes() {
    check(Dataset::TreeBank, 100);
}

#[test]
fn mondial_compaction_writes_the_rebuilt_bytes() {
    check(Dataset::Mondial, 16);
}

#[test]
fn swissprot_compaction_writes_the_rebuilt_bytes() {
    check(Dataset::SwissProt, 60);
}

#[test]
fn nasa_compaction_writes_the_rebuilt_bytes() {
    check(Dataset::Nasa, 60);
}
