//! Property tests of the index builder's structural invariants over random
//! documents.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use bytes::Mmap;
use gks_dewey::{DeweyId, DocId};
use gks_index::{Corpus, GksIndex, IndexOptions};
use gks_text::Analyzer;
use gks_xml::{Event, Reader};
use proptest::prelude::*;

#[derive(Debug, Clone)]
enum Tree {
    Leaf(String),
    Node {
        label: String,
        attrs: Vec<(String, String)>,
        children: Vec<Tree>,
    },
}

/// Words repeat across nodes, as real text does, so the builder's analysis
/// memo is hit; some are stop words, capitalised or not ASCII.
fn arb_word() -> impl Strategy<Value = String> {
    prop::sample::select(vec![
        "alpha",
        "beta",
        "gamma",
        "delta",
        "The Alpha",
        "Searching, searched",
        "of the",
        "İstanbul Straße",
    ])
    .prop_map(str::to_string)
}

fn arb_label() -> impl Strategy<Value = String> {
    prop::sample::select(vec!["item", "name", "grp", "rec", "x:Items", "the"])
        .prop_map(str::to_string)
}

fn arb_tree() -> impl Strategy<Value = Tree> {
    let leaf = arb_word().prop_map(Tree::Leaf);
    leaf.prop_recursive(4, 48, 4, |inner| {
        (
            arb_label(),
            prop::collection::vec(
                (prop::sample::select(vec!["k1", "k2", "x:Keys"]), arb_word()),
                0..2,
            ),
            prop::collection::vec(inner, 0..4),
        )
            .prop_map(|(label, attrs, children)| Tree::Node {
                label,
                attrs: attrs.into_iter().map(|(k, v)| (k.to_string(), v)).collect(),
                children,
            })
    })
}

fn to_xml(tree: &Tree, out: &mut String) {
    match tree {
        Tree::Leaf(w) => {
            out.push_str("<w>");
            out.push_str(w);
            out.push_str("</w>");
        }
        Tree::Node { label, attrs, children } => {
            out.push('<');
            out.push_str(label);
            for (k, v) in attrs {
                out.push_str(&format!(" {k}=\"{v}\""));
            }
            out.push('>');
            for c in children {
                to_xml(c, out);
            }
            out.push_str("</");
            out.push_str(label);
            out.push('>');
        }
    }
}

fn document(tree: &Tree) -> String {
    let mut xml = String::from("<root>");
    to_xml(tree, &mut xml);
    xml.push_str("</root>");
    xml
}

fn build(tree: &Tree) -> GksIndex {
    let corpus = Corpus::from_named_strs([("t", document(tree))]).unwrap();
    GksIndex::build(&corpus, IndexOptions::default()).unwrap()
}

/// Every term's posting set, computed straight from the reader's events:
/// an element (or a lifted XML attribute) posts its normalized local name
/// and the analysed terms of its own text. Shares no code with the builder.
fn oracle_postings(docs: &[String], options: &IndexOptions) -> BTreeMap<String, Vec<DeweyId>> {
    let analyzer = Analyzer::new(options.analyzer_options());
    let mut postings: BTreeMap<String, BTreeSet<DeweyId>> = BTreeMap::new();
    let mut post = |term: String, id: &DeweyId| {
        postings.entry(term).or_default().insert(id.clone());
    };
    let local = |name: &str| name.rsplit(':').next().unwrap_or(name).to_string();
    for (doc, xml) in docs.iter().enumerate() {
        // Open elements: the id and the number of children handed out.
        let mut open: Vec<(DeweyId, u32)> = Vec::new();
        let mut reader = Reader::new(xml);
        while let Some(event) = reader.next_event().unwrap() {
            match event {
                Event::Start { name, attributes } => {
                    let id = match open.last_mut() {
                        Some((parent, next)) => {
                            *next += 1;
                            parent.child(*next - 1)
                        }
                        None => DeweyId::root(DocId(doc as u32)),
                    };
                    analyzer.normalize_term(&local(name)).into_iter().for_each(|t| post(t, &id));
                    let mut next = 0;
                    for attr in &attributes {
                        let child = id.child(next);
                        next += 1;
                        analyzer
                            .normalize_term(&local(attr.name))
                            .into_iter()
                            .for_each(|t| post(t, &child));
                        analyzer.analyze(&attr.value).into_iter().for_each(|t| post(t, &child));
                    }
                    open.push((id, next));
                }
                Event::Text(text) => {
                    let (id, _) = open.last().unwrap();
                    let mut terms = Vec::new();
                    analyzer.analyze_into(&text, &mut terms);
                    terms.into_iter().for_each(|t| post(t, id));
                }
                Event::End { .. } => {
                    open.pop();
                }
                _ => {}
            }
        }
    }
    postings
        .into_iter()
        .map(|(term, ids)| (term, ids.into_iter().collect()))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Every term's posting list is exactly the oracle's, over documents
    /// that share their words.
    #[test]
    fn postings_match_an_event_oracle(trees in prop::collection::vec(arb_tree(), 1..3)) {
        let options = IndexOptions::default();
        let docs: Vec<String> = trees.iter().map(document).collect();
        let named = docs.iter().enumerate().map(|(i, xml)| (format!("d{i}"), xml.clone()));
        let ix = GksIndex::build(&Corpus::from_named_strs(named).unwrap(), options.clone()).unwrap();
        let built: BTreeMap<String, Vec<DeweyId>> =
            ix.inverted().iter().map(|(term, list)| (term.to_string(), list.to_vec())).collect();
        prop_assert_eq!(built, oracle_postings(&docs, &options));
    }

    /// Posting lists are sorted, deduplicated, and every posting's node is
    /// in the node table.
    #[test]
    fn postings_are_sorted_and_anchored(tree in arb_tree()) {
        let ix = build(&tree);
        for (term, list) in ix.inverted().iter() {
            prop_assert!(
                list.windows(2).all(|w| w[0] < w[1]),
                "{term} postings unsorted/duplicated"
            );
            for id in list {
                prop_assert!(
                    ix.node_table().get(id).is_some(),
                    "{term} posting {id} not in node table"
                );
            }
        }
    }

    /// The census counts every node exactly once, and the per-label census
    /// sums to the same total.
    #[test]
    fn census_is_a_partition(tree in arb_tree()) {
        let ix = build(&tree);
        let s = ix.stats();
        prop_assert_eq!(s.census.total(), s.total_nodes);
        prop_assert_eq!(s.total_nodes as usize, ix.node_table().len());
        let per_label: u64 = s.per_label.values().map(|c| c.total()).sum();
        prop_assert_eq!(per_label, s.total_nodes);
    }

    /// Every node's ancestors are present; child counts are ≥ 1; flags make
    /// sense (text-only nodes are AN or RN, never EN).
    #[test]
    fn node_table_is_closed_and_flagged(tree in arb_tree()) {
        let ix = build(&tree);
        let table = ix.node_table();
        for row in 0..table.len() as u32 {
            let (dewey, meta) = (table.id(row).unwrap(), table.meta(row).unwrap());
            prop_assert!(meta.child_count >= 1, "{dewey} child_count 0");
            for anc in dewey.ancestors() {
                prop_assert!(ix.node_table().get(&anc).is_some(), "{dewey} missing ancestor");
            }
            if meta.flags.is_text_only() {
                prop_assert!(!meta.flags.is_entity(), "{dewey} text-only entity");
                prop_assert!(
                    meta.flags.is_attribute() ^ meta.flags.is_repeating(),
                    "{dewey} text-only must be exactly AN or RN"
                );
            }
        }
    }

    /// Attribute-store entries only hang off entity-flagged nodes, with
    /// non-empty values and valid label paths.
    #[test]
    fn attr_store_is_consistent(tree in arb_tree()) {
        let ix = build(&tree);
        let label_count = ix.node_table().labels().len() as u32;
        for (row, entries) in ix.attr_store().iter() {
            let entity = ix.node_table().id(row).expect("entity row recorded");
            let meta = ix.node_table().get(&entity).expect("entity recorded");
            prop_assert!(meta.flags.is_entity(), "{entity} has attrs but is not EN");
            prop_assert_eq!(entries.label(), meta.label);
            prop_assert!(!entries.is_empty(), "{entity} recorded without entries");
            for e in entries.iter() {
                prop_assert!(!e.path.is_empty());
                prop_assert!(e.path.iter().all(|&l| l < label_count));
                prop_assert!(!e.value.is_empty());
            }
        }
    }

    /// Persistence round trip preserves the whole index.
    #[test]
    fn persistence_round_trip(tree in arb_tree()) {
        let ix = build(&tree);
        let bytes = ix.to_bytes_v3().unwrap();
        let loaded = GksIndex::from_mapped(Arc::new(Mmap::from(bytes.to_vec()))).unwrap();
        // The posting tier is copied, not decoded and re-encoded.
        prop_assert_eq!(loaded.to_bytes_v3().unwrap(), bytes);
        prop_assert_eq!(loaded.decoded_terms(), 0);
        prop_assert_eq!(loaded.node_table().len(), ix.node_table().len());
        prop_assert_eq!(loaded.stats().census, ix.stats().census);
        for (term, list) in ix.inverted().iter() {
            prop_assert_eq!(loaded.postings(term), list);
        }
        // The attribute tables come back as written: the same entries per
        // entity and, per value, the norm the builder computed.
        prop_assert_eq!(loaded.attr_store().len(), ix.attr_store().len());
        for (row, entries) in ix.attr_store().iter() {
            let entity = ix.node_table().id(row).expect("entity row recorded");
            let other = loaded.entries(&entity);
            prop_assert_eq!(other.label(), entries.label());
            prop_assert!(other.iter().eq(entries.iter()), "{entity} entries differ");
            for (a, b) in entries.ids().iter().zip(other.ids()) {
                let norm = |ix: &GksIndex, value: u32| {
                    ix.attr_store().norm(ix.attr_store().norm_of(value)).to_string()
                };
                prop_assert_eq!(norm(&ix, a.value), norm(&loaded, b.value));
            }
        }
        prop_assert!(loaded.doctor().is_empty());
    }

    /// The root of every document is recorded with DocId i.
    #[test]
    fn roots_are_recorded(trees in prop::collection::vec(arb_tree(), 1..4)) {
        let docs: Vec<(String, String)> = trees
            .iter()
            .enumerate()
            .map(|(i, t)| {
                let mut xml = String::from("<root>");
                to_xml(t, &mut xml);
                xml.push_str("</root>");
                (format!("d{i}"), xml)
            })
            .collect();
        let n = docs.len();
        let corpus = Corpus::from_named_strs(docs).unwrap();
        let ix = GksIndex::build(&corpus, IndexOptions::default()).unwrap();
        for i in 0..n {
            let root = DeweyId::root(DocId(i as u32));
            prop_assert!(ix.node_table().get(&root).is_some(), "missing root {i}");
        }
    }
}
