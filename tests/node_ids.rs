//! Node ids against an independent reference. `NodeTable::link` builds the
//! node table from row depths alone, and `NodeTable::id` reads a row's id
//! back off that shape; here every row's id and label are checked against
//! a Dewey labelling of the parsed document (§2.1: a node's id is its
//! parent's plus the count of its earlier element siblings), with each
//! element's XML attributes lifted to its first children, as the builder
//! lifts them. Every datagen shape — the nine datasets and the hybrid
//! DBLP + SIGMOD merge — is checked in a built index, the same index
//! reopened from its file, and the base shards a compaction folds.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::fs;
use std::path::{Path, PathBuf};

use gks_datagen::merge::{merge_under_root, MergePart};
use gks_datagen::Dataset;
use gks_dewey::{DeweyId, DocId};
use gks_index::{
    commit_delta, compact, index_directory, Corpus, GksIndex, IndexOptions, ShardManifest,
};
use gks_xml::{Document, Node};

/// The `(id, label)` of `node` and of everything below it, in pre-order.
fn label_subtree(node: &Node, doc: DocId, steps: &mut Vec<u32>, out: &mut Vec<(DeweyId, String)>) {
    out.push((DeweyId::new(doc, steps.clone()), node.name().to_string()));
    let attributes = node.attributes().iter().map(|(name, _)| (name.as_str(), None));
    let elements = node.children().iter().filter(|c| c.is_element()).map(|c| (c.name(), Some(c)));
    for (step, (name, element)) in (0u32..).zip(attributes.chain(elements)) {
        steps.push(step);
        match element {
            Some(child) => label_subtree(child, doc, steps, out),
            None => out.push((DeweyId::new(doc, steps.clone()), name.to_string())),
        }
        steps.pop();
    }
}

/// The reference labelling of `docs`, document `i` being `DocId(i)`.
fn reference(docs: &[&str]) -> Vec<(DeweyId, String)> {
    let mut out = Vec::new();
    for (doc, xml) in (0u32..).zip(docs) {
        let parsed = Document::parse(xml).unwrap();
        label_subtree(parsed.root(), DocId(doc), &mut Vec::new(), &mut out);
    }
    out
}

/// Every row of `ix`'s node table as `(id, label)`, in row order, each id
/// read back off the table's shape by `NodeTable::id`.
fn rows(ix: &GksIndex) -> Vec<(DeweyId, String)> {
    let table = ix.node_table();
    (0..table.len() as u32)
        .map(|row| {
            let meta = table.meta(row).unwrap();
            (table.id(row).unwrap(), table.labels().name(meta.label).to_string())
        })
        .collect()
}

fn scratch(tag: &str) -> PathBuf {
    let tag: String = tag.chars().filter(char::is_ascii_alphanumeric).collect();
    let dir = std::env::temp_dir().join(format!("gks-node-ids-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    dir
}

/// One document of `shape` at `seed`; the hybrid shape (`None`) merges a
/// DBLP and a padded SIGMOD Record document under one root.
fn documents(shape: Option<Dataset>, seed: u64) -> String {
    match shape {
        Some(dataset) => dataset.generate(8, seed),
        None => {
            let dblp = Dataset::Dblp.generate(8, seed);
            let sigmod = Dataset::SigmodRecord.generate(2, seed);
            merge_under_root(&[
                MergePart { wrapper: "dblp", xml: &dblp, pad_levels: 0 },
                MergePart { wrapper: "SigmodRecord", xml: &sigmod, pad_levels: 2 },
            ])
        }
    }
}

fn check(shape: Option<Dataset>) {
    let name = shape.map_or("hybrid", Dataset::name);
    let root = scratch(name);
    let corpus_dir = root.join("corpus");
    fs::create_dir_all(&corpus_dir).unwrap();
    let write = |stem: &str, seed: u64| {
        fs::write(corpus_dir.join(format!("{stem}.xml")), documents(shape, seed)).unwrap();
    };
    for (stem, seed) in [("a", 11), ("b", 12), ("c", 13), ("d", 14)] {
        write(stem, seed);
    }
    let xml_of = |stem: &str| fs::read_to_string(corpus_dir.join(format!("{stem}.xml"))).unwrap();

    // Built, and reopened from its file.
    let stems = ["a", "b", "c", "d"];
    let xmls: Vec<String> = stems.iter().map(|s| xml_of(s)).collect();
    let corpus = Corpus::from_named_strs(stems.iter().copied().zip(xmls.iter().cloned())).unwrap();
    let built = GksIndex::build(&corpus, IndexOptions::default()).unwrap();
    let want = reference(&xmls.iter().map(String::as_str).collect::<Vec<_>>());
    assert_eq!(rows(&built), want, "{name}: built");
    let file = root.join("built.gksix");
    built.save(&file).unwrap();
    assert_eq!(rows(&GksIndex::load(&file).unwrap()), want, "{name}: reopened");

    // Folded by a compaction: one document rewritten, one deleted, one added.
    let manifest_path = root.join("live.shards");
    index_directory(&corpus_dir, &manifest_path, 2, IndexOptions::default()).unwrap();
    write("b", 21);
    fs::remove_file(corpus_dir.join("c.xml")).unwrap();
    write("e", 22);
    commit_delta(&manifest_path).unwrap().unwrap();
    compact(&manifest_path).unwrap().unwrap();
    let folded = ShardManifest::load(&manifest_path).unwrap();
    let mut docs = 0;
    for shard in &folded.shards {
        let path: &Path = &shard.path;
        let ix = GksIndex::load(path).unwrap();
        let xmls: Vec<String> = ix.doc_names().iter().map(|stem| xml_of(stem)).collect();
        docs += xmls.len();
        let want = reference(&xmls.iter().map(String::as_str).collect::<Vec<_>>());
        assert_eq!(rows(&ix), want, "{name}: compacted {}", path.display());
    }
    assert_eq!(docs, 4, "{name}: the fold holds every live document");
    fs::remove_dir_all(&root).ok();
}

#[test]
fn every_dataset_shape_numbers_its_rows_as_a_pre_order_walk_does() {
    for dataset in Dataset::all() {
        check(Some(dataset));
    }
}

#[test]
fn the_hybrid_shape_numbers_its_rows_as_a_pre_order_walk_does() {
    check(None);
}
