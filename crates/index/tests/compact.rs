//! Compaction as a merge of the committed shards: every base file it
//! writes is byte-identical to the file a fresh `index_directory` writes
//! over the same directory, it reads no XML, it keeps the committed hashes,
//! mtimes and commit time, and it refuses an inconsistent manifest without
//! writing anything.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, SystemTime};

use gks_index::{commit_delta, compact, index_directory, IndexError, IndexOptions, ShardManifest};
use proptest::prelude::*;

static CASE: AtomicUsize = AtomicUsize::new(0);

/// A fresh, empty scratch directory for one test or case.
fn scratch(tag: &str) -> PathBuf {
    let n = CASE.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("gks-compact-{tag}-{}-{n}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    dir
}

#[derive(Debug, Clone)]
enum Tree {
    Text(usize),
    Node {
        label: usize,
        attrs: Vec<(usize, usize)>,
        children: Vec<Tree>,
    },
}

/// Words repeat across documents, so values and norms are shared between
/// shards; some analyse to nothing, some to the same norm.
const WORDS: [&str; 8] = [
    "alpha",
    "beta",
    "Gamma ray",
    "of the",
    "searching",
    "Searched",
    "İstanbul",
    "delta",
];
const LABELS: [&str; 5] = ["rec", "name", "item", "grp", "x:Items"];
const KEYS: [&str; 2] = ["k1", "x:Key"];

fn arb_tree() -> impl Strategy<Value = Tree> {
    let leaf = (0..WORDS.len()).prop_map(Tree::Text);
    leaf.prop_recursive(3, 24, 4, |inner| {
        (
            0..LABELS.len(),
            prop::collection::vec((0..KEYS.len(), 0..WORDS.len()), 0..2),
            prop::collection::vec(inner, 0..4),
        )
            .prop_map(|(label, attrs, children)| Tree::Node { label, attrs, children })
    })
}

fn to_xml(tree: &Tree, out: &mut String) {
    match tree {
        Tree::Text(w) => out.push_str(WORDS[*w]),
        Tree::Node { label, attrs, children } => {
            out.push('<');
            out.push_str(LABELS[*label]);
            let mut keys = Vec::new();
            for &(k, v) in attrs {
                if !keys.contains(&k) {
                    keys.push(k);
                    out.push_str(&format!(" {}=\"{}\"", KEYS[k], WORDS[v]));
                }
            }
            out.push('>');
            for child in children {
                to_xml(child, out);
            }
            out.push_str(&format!("</{}>", LABELS[*label]));
        }
    }
}

/// A document: a root holding the generated subtrees.
fn doc_xml(trees: &[Tree]) -> String {
    let mut xml = String::from("<root>");
    for tree in trees {
        to_xml(tree, &mut xml);
    }
    xml.push_str("</root>");
    xml
}

fn arb_doc() -> impl Strategy<Value = String> {
    prop::collection::vec(arb_tree(), 1..4).prop_map(|trees| doc_xml(&trees))
}

#[derive(Debug, Clone)]
enum Op {
    Write { slot: usize, xml: String },
    Delete { slot: usize },
}

fn arb_op() -> impl Strategy<Value = Op> {
    (0usize..7, 0usize..5, arb_doc()).prop_map(|(slot, kind, xml)| {
        if kind == 0 {
            Op::Delete { slot }
        } else {
            Op::Write { slot, xml }
        }
    })
}

#[derive(Debug, Clone)]
struct Round {
    ops: Vec<Op>,
    compact_after: bool,
}

fn arb_round() -> impl Strategy<Value = Round> {
    (prop::collection::vec(arb_op(), 1..4), 0usize..10)
        .prop_map(|(ops, c)| Round { ops, compact_after: c < 3 })
}

fn doc_path(corpus: &Path, slot: usize) -> PathBuf {
    corpus.join(format!("d{slot}.xml"))
}

fn live_docs(corpus: &Path) -> usize {
    fs::read_dir(corpus).map(|d| d.flatten().count()).unwrap_or(0)
}

/// Applies one round's mutations, keeping at least one document.
fn apply(corpus: &Path, ops: &[Op]) {
    for op in ops {
        match op {
            Op::Write { slot, xml } => fs::write(doc_path(corpus, *slot), xml).unwrap(),
            Op::Delete { slot } => {
                if live_docs(corpus) > 1 {
                    let _ = fs::remove_file(doc_path(corpus, *slot));
                }
            }
        }
    }
}

/// Asserts that every base shard of the manifest at `manifest_path` holds
/// the bytes `index_directory` writes over `corpus` with as many shards,
/// and that the document tables agree.
fn assert_matches_a_rebuild(manifest_path: &Path, corpus: &Path, oracle_dir: &Path) {
    let compacted = ShardManifest::load(manifest_path).unwrap();
    assert_eq!(compacted.delta_shard_count(), 0);
    assert!(compacted.tombstones.is_empty());
    fs::create_dir_all(oracle_dir).unwrap();
    let oracle_path = oracle_dir.join("oracle.shards");
    let oracle =
        index_directory(corpus, &oracle_path, compacted.shards.len(), IndexOptions::default())
            .unwrap();
    assert_eq!(compacted.shards.len(), oracle.shards.len());
    for (got, want) in compacted.shards.iter().zip(&oracle.shards) {
        let got_bytes = fs::read(&got.path).unwrap();
        let want_bytes = fs::read(oracle_dir.join(&want.path)).unwrap();
        assert!(got_bytes == want_bytes, "{} differs from the rebuild", got.path.display());
        assert_eq!(
            (got.doc_base, got.doc_count, got.raw_bytes, got.total_nodes, got.distinct_terms),
            (
                want.doc_base,
                want.doc_count,
                want.raw_bytes,
                want.total_nodes,
                want.distinct_terms
            )
        );
    }
    assert_eq!(compacted.docs, oracle.docs, "document tables");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn compacted_shards_are_the_bytes_of_a_rebuild(
        initial in prop::collection::vec(arb_doc(), 1..5),
        rounds in prop::collection::vec(arb_round(), 1..4),
        shards in 1usize..4,
    ) {
        let root = scratch("props");
        let corpus = root.join("corpus");
        fs::create_dir_all(&corpus).unwrap();
        for (slot, xml) in initial.iter().enumerate() {
            fs::write(doc_path(&corpus, slot), xml).unwrap();
        }
        let manifest_path = root.join("live.shards");
        index_directory(&corpus, &manifest_path, shards, IndexOptions::default()).unwrap();
        for round in &rounds {
            apply(&corpus, &round.ops);
            commit_delta(&manifest_path).unwrap();
            if round.compact_after {
                compact(&manifest_path).unwrap();
            }
        }
        // The final fold runs with the corpus directory renamed away: it
        // reads only the committed shards.
        let away = root.join("corpus-away");
        fs::rename(&corpus, &away).unwrap();
        compact(&manifest_path).unwrap();
        assert_matches_a_rebuild(&manifest_path, &away, &root.join("oracle"));
        fs::remove_dir_all(&root).ok();
    }
}

fn write(corpus: &Path, name: &str, xml: &str) {
    fs::write(corpus.join(format!("{name}.xml")), xml).unwrap();
}

/// Four documents over two base shards, then one commit that adds,
/// rewrites and deletes: a manifest with a delta shard and tombstones.
fn committed_set(root: &Path) -> (PathBuf, PathBuf) {
    let corpus = root.join("corpus");
    fs::create_dir_all(&corpus).unwrap();
    write(
        &corpus,
        "a",
        r#"<rec k1="alpha"><name>Alpha</name><item>beta</item><item>x</item></rec>"#,
    );
    write(&corpus, "b", "<grp><item>beta</item><item>gamma</item></grp>");
    write(&corpus, "c", "<rec><name>gamma</name><grp><item>one</item></grp></rec>");
    write(&corpus, "d", "<rec><name>delta</name></rec>");
    let manifest_path = root.join("set.shards");
    index_directory(&corpus, &manifest_path, 2, IndexOptions::default()).unwrap();
    write(&corpus, "b", "<grp><item>rewritten</item><item>beta</item></grp>");
    fs::remove_file(corpus.join("c.xml")).unwrap();
    write(&corpus, "e", r#"<rec x:Key="epsilon"><name>Alpha</name></rec>"#);
    commit_delta(&manifest_path).unwrap().unwrap();
    (manifest_path, corpus)
}

#[test]
fn a_fold_matches_a_rebuild_of_the_committed_directory() {
    let root = scratch("fold");
    let (manifest_path, corpus) = committed_set(&root);
    let stats = compact(&manifest_path).unwrap().unwrap();
    assert_eq!((stats.base_shards, stats.docs), (2, 4));
    assert_matches_a_rebuild(&manifest_path, &corpus, &root.join("oracle"));
    fs::remove_dir_all(&root).ok();
}

/// Every file in `dir` with its bytes, sorted by name.
fn snapshot(dir: &Path) -> Vec<(String, Vec<u8>)> {
    let mut files: Vec<(String, Vec<u8>)> = fs::read_dir(dir)
        .unwrap()
        .flatten()
        .filter(|e| e.path().is_file())
        .map(|e| (e.file_name().to_string_lossy().into_owned(), fs::read(e.path()).unwrap()))
        .collect();
    files.sort();
    files
}

/// A named edit of a manifest and the refusal it must draw.
type Inconsistency<'a> = (&'a str, &'a dyn Fn(&mut ShardManifest), &'a str);

#[test]
fn an_inconsistent_manifest_is_refused_and_nothing_is_written() {
    let cases: [Inconsistency<'_>; 5] = [
        ("shard", &|m| m.docs[0].shard = 99, "missing shard 99"),
        ("local", &|m| m.docs[0].local = 50, "holds only"),
        (
            "name",
            &|m| {
                let first = m.docs[0].name.clone();
                m.docs[0].name = m.docs[1].name.clone();
                m.docs[1].name = first;
            },
            "but the shard stores",
        ),
        ("options", &|m| m.options.analyzer.stem = false, "other options"),
        (
            "order",
            &|m| {
                // `b` and `e` share the delta shard; swapping their entries
                // keeps each slot's name right and breaks the order.
                let (b, e) = (m.docs[1].clone(), m.docs[3].clone());
                assert_eq!((b.name.as_str(), e.name.as_str()), ("b", "e"));
                assert_eq!(b.shard, e.shard);
                m.docs[1] = e;
                m.docs[3] = b;
            },
            "out of table order",
        ),
    ];
    for (tag, tamper, why) in cases {
        let root = scratch(&format!("refuse-{tag}"));
        let (manifest_path, _) = committed_set(&root);
        let mut manifest =
            ShardManifest::parse(&fs::read_to_string(&manifest_path).unwrap()).unwrap();
        tamper(&mut manifest);
        manifest.save(&manifest_path).unwrap();
        let before = snapshot(&root);
        match compact(&manifest_path) {
            Err(IndexError::Corrupt(message)) => assert!(message.contains(why), "{tag}: {message}"),
            other => panic!("{tag}: expected a refusal, got {other:?}"),
        }
        assert!(snapshot(&root) == before, "{tag}: the refused fold wrote a file");
        fs::remove_dir_all(&root).ok();
    }
}

#[test]
fn a_fold_keeps_the_committed_hashes_mtimes_and_commit_time() {
    let root = scratch("keep");
    let corpus = root.join("corpus");
    fs::create_dir_all(&corpus).unwrap();
    write(&corpus, "a", "<r><t>apple</t></r>");
    write(&corpus, "b", "<r><t>banana</t></r>");
    // `a` was written 1.5 s before the first commit: within the 2 s margin
    // in which the commit hashes a file instead of trusting its mtime.
    let old = SystemTime::now() - Duration::from_millis(1_500);
    let set_mtime = |at: SystemTime| {
        fs::File::options()
            .write(true)
            .open(corpus.join("a.xml"))
            .unwrap()
            .set_modified(at)
    };
    set_mtime(old).unwrap();
    let manifest_path = root.join("keep.shards");
    index_directory(&corpus, &manifest_path, 1, IndexOptions::default()).unwrap();
    write(&corpus, "c", "<r><t>cherry</t></r>");
    commit_delta(&manifest_path).unwrap().unwrap();
    let committed = ShardManifest::load(&manifest_path).unwrap();

    // `a` is rewritten within the clock tick of its first write: same mtime.
    write(&corpus, "a", "<r><t>apricot</t></r>");
    set_mtime(old).unwrap();
    // Past the point where a fold that stamped the current time would put
    // the shared mtime more than 2 s before the commit and trust it.
    std::thread::sleep(Duration::from_millis(700));
    compact(&manifest_path).unwrap().unwrap();
    let folded = ShardManifest::load(&manifest_path).unwrap();
    assert_eq!(folded.committed_ms, committed.committed_ms);
    let kept = |m: &ShardManifest| -> Vec<(String, u64, u64)> {
        m.docs.iter().map(|d| (d.name.clone(), d.hash, d.mtime_ms)).collect()
    };
    assert_eq!(kept(&folded), kept(&committed));

    let next = commit_delta(&manifest_path).unwrap().expect("the rewrite must be committed");
    assert_eq!((next.added, next.changed, next.deleted), (0, 1, 0));
    fs::remove_dir_all(&root).ok();
}

#[test]
fn an_empty_document_table_is_refused() {
    let root = scratch("empty");
    let (manifest_path, _) = committed_set(&root);
    let mut manifest = ShardManifest::parse(&fs::read_to_string(&manifest_path).unwrap()).unwrap();
    manifest.docs.clear();
    manifest.tombstones.clear();
    manifest.save(&manifest_path).unwrap();
    let before = snapshot(&root);
    assert!(
        matches!(compact(&manifest_path), Err(IndexError::Corrupt(m)) if m.contains("no live"))
    );
    assert!(snapshot(&root) == before);
    fs::remove_dir_all(&root).ok();
}
