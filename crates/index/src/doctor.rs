//! The index doctor: end-to-end invariant checking over a built index.
//!
//! GKS correctness rests on structural invariants the paper assumes but
//! never re-checks at runtime: posting lists are document-ordered by Dewey
//! id (§2.4 — the stack-based sweep silently produces wrong SLCA/ELCA
//! answers on out-of-order postings), every posting names a recorded node,
//! and the AN/RN/EN/CN census of Table 5 must agree with the node table's
//! category flags. The doctor validates all of them plus the attribute
//! store, returning a typed [`Violation`] report instead of panicking, so it
//! is safe to run against untrusted persisted indexes (`gks doctor
//! <index.gksix>`).
//!
//! The §2.1 prefix algebra — every non-root node's parent is recorded — is
//! not audited here: a node table that breaks it cannot exist, because
//! linking the table ([`crate::node_table::NodeTable::link`]) derives every
//! id from its parent row's, and refuses rows whose depths skip a level, at
//! build, merge and open.
//!
//! The builder re-runs these checks under `#[cfg(debug_assertions)]` after
//! every build, so debug test runs exercise them continuously.

use std::fmt;

use gks_dewey::DeweyId;

use crate::builder::GksIndex;
use crate::categorize::NodeCategory;
use crate::fasthash::FastMap;
use crate::stats::CategoryCensus;

/// One violated index invariant, as found by [`GksIndex::doctor`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Violation {
    /// A posting list is not strictly sorted by Dewey document order at
    /// `position` (equal neighbours — duplicates — also violate strictness).
    UnsortedPostings {
        /// The term whose list is broken.
        term: String,
        /// Index of the first out-of-order posting within the list.
        position: usize,
    },
    /// A posting references a Dewey id with no node-table entry.
    PostingUnknownNode {
        /// The term whose list contains the dangling posting.
        term: String,
        /// The unresolvable Dewey id.
        node: DeweyId,
    },
    /// The node table holds a different number of nodes than the build
    /// statistics recorded.
    NodeCountMismatch {
        /// Nodes actually present in the table.
        in_table: u64,
        /// Nodes the statistics claim.
        in_stats: u64,
    },
    /// The census recomputed from node-table category flags disagrees with
    /// the recorded statistics for one category (a miscategorized node or a
    /// stale census).
    CensusMismatch {
        /// The category whose counts disagree.
        category: NodeCategory,
        /// Count recomputed from the node table's flags.
        in_table: u64,
        /// Count recorded in [`crate::stats::IndexStats`].
        in_stats: u64,
    },
    /// An attribute-store key is not an entity node in the node table
    /// (Def 2.3.1 attaches `R(e)` to entity nodes only).
    AttrEntityNotEntity {
        /// The offending attribute-store key.
        entity: DeweyId,
    },
    /// An attribute-store record names a different label for its entity than
    /// the node table does (DI would print the wrong entity type).
    AttrEntityLabelMismatch {
        /// The entity whose record is wrong.
        entity: DeweyId,
    },
    /// A path of the attribute store contains a label id the interner
    /// cannot resolve.
    AttrPathUnresolvable {
        /// The broken path's id.
        path: u32,
        /// The unresolvable label id.
        label: u32,
    },
    /// A path of the attribute store is empty (every path must name at least
    /// the attribute element itself).
    AttrPathEmpty {
        /// The broken path's id.
        path: u32,
    },
    /// A value's stored norm is not the id of `analyze(value).join(" ")`.
    /// The norm is computed at build time and trusted from disk thereafter,
    /// so a wrong one silently mis-groups insights.
    AttrNormMismatch {
        /// The raw value whose norm is wrong.
        value: String,
    },
    /// A posting run failed to decode (the open-path checksums cover the
    /// header, footer and eager sections but not the posting runs, so block
    /// corruption surfaces lazily; the doctor decodes every run and reports
    /// the first failure).
    PostingsCorrupt {
        /// Decoder error description.
        detail: String,
    },
    /// A term's dictionary posting count disagrees with its decoded run
    /// (counts are served straight from the dictionary, so a mismatch would
    /// skew cost accounting and scoring).
    PostingCountMismatch {
        /// The term whose count is broken.
        term: String,
        /// Count recorded in the term dictionary.
        in_dict: usize,
        /// Postings actually decoded from the run.
        decoded: usize,
    },
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Violation::UnsortedPostings { term, position } => write!(
                f,
                "posting list for {term:?} is not strictly Dewey-sorted at position {position}"
            ),
            Violation::PostingUnknownNode { term, node } => {
                write!(f, "posting list for {term:?} references unknown node {node}")
            }
            Violation::NodeCountMismatch { in_table, in_stats } => {
                write!(f, "node table holds {in_table} node(s) but statistics record {in_stats}")
            }
            Violation::CensusMismatch { category, in_table, in_stats } => write!(
                f,
                "census mismatch for {}: node table has {in_table}, statistics record {in_stats}",
                category.abbrev()
            ),
            Violation::AttrEntityNotEntity { entity } => {
                write!(f, "attribute store keyed by {entity}, which is not an entity node")
            }
            Violation::AttrEntityLabelMismatch { entity } => {
                write!(f, "attribute store and node table disagree on the label of {entity}")
            }
            Violation::AttrPathUnresolvable { path, label } => {
                write!(f, "attribute path {path} has unresolvable label id {label}")
            }
            Violation::AttrPathEmpty { path } => {
                write!(f, "attribute path {path} is empty")
            }
            Violation::AttrNormMismatch { value } => {
                write!(f, "attribute value {value:?} is stored with a norm that is not its analysis")
            }
            Violation::PostingsCorrupt { detail } => {
                write!(f, "a posting run failed to decode: {detail}")
            }
            Violation::PostingCountMismatch { term, in_dict, decoded } => write!(
                f,
                "term {term:?} records {in_dict} posting(s) in the dictionary but its run decodes to {decoded}"
            ),
        }
    }
}

/// Runs every invariant check against `index`, returning all violations in
/// a deterministic order (sorted by rendered message). An empty vector
/// means the index is healthy.
pub fn check(index: &GksIndex) -> Vec<Violation> {
    let mut violations = Vec::new();
    check_postings(index, &mut violations);
    check_census(index, &mut violations);
    check_attrs(index, &mut violations);
    // Hash-map iteration order is unspecified; sort so reports (and the
    // corrupted-fixture tests) are stable run to run.
    violations.sort_by_key(|v| v.to_string());
    violations
}

/// Posting lists must be strictly sorted by Dewey order (§2.4: "containing
/// the Dewey id of all the nodes which contain that keyword", document-
/// ordered and deduplicated), and every posting must resolve in the node
/// table. One violation per broken list keeps reports readable.
///
/// Each run is decoded into a local and dropped: the audit of a live index
/// leaves its posting slots as it found them.
fn check_postings(index: &GksIndex, out: &mut Vec<Violation>) {
    let mut corrupt = None;
    for (slot, (term, in_dict, run)) in index.inverted().audit().enumerate() {
        let list = run.unwrap_or_else(|e| {
            corrupt.get_or_insert(format!("posting run for term #{slot} failed to decode: {e}"));
            Vec::new()
        });
        if let Some(pos) = list.windows(2).position(|w| w[0] >= w[1]) {
            out.push(Violation::UnsortedPostings { term: term.to_string(), position: pos + 1 });
        }
        if let Some(node) = list.iter().find(|id| index.node_table().get(id).is_none()) {
            out.push(Violation::PostingUnknownNode { term: term.to_string(), node: node.clone() });
        }
        // Queries read counts from the term dictionary without decoding;
        // the audit cross-checks them against the decoded runs.
        if in_dict != list.len() {
            out.push(Violation::PostingCountMismatch {
                term: term.to_string(),
                in_dict,
                decoded: list.len(),
            });
        }
    }
    if let Some(detail) = corrupt {
        out.push(Violation::PostingsCorrupt { detail });
    }
}

/// The AN/RN/EN/CN census recorded during the build (Table 5) must agree
/// with a recount over the node table's category flags.
fn check_census(index: &GksIndex, out: &mut Vec<Violation>) {
    let stats = index.stats();
    if index.node_table().len() as u64 != stats.total_nodes {
        out.push(Violation::NodeCountMismatch {
            in_table: index.node_table().len() as u64,
            in_stats: stats.total_nodes,
        });
    }
    let mut recount = CategoryCensus::default();
    for (_, meta) in index.node_table().iter() {
        recount.add(meta.flags.primary());
    }
    for category in [
        NodeCategory::Attribute,
        NodeCategory::Repeating,
        NodeCategory::Entity,
        NodeCategory::Connecting,
    ] {
        let in_table = recount.get(category);
        let in_stats = stats.census.get(category);
        if in_table != in_stats {
            out.push(Violation::CensusMismatch { category, in_table, in_stats });
        }
    }
}

/// Attribute-store keys must be entity nodes carrying the label the node
/// table records; every distinct path must be non-empty and resolve through
/// the label interner (§2.3: the path from the entity to the attribute is
/// the keyword's semantics — an unresolvable path makes DI discovery produce
/// garbage); and every distinct value's norm must be the id of its analysis
/// under the index's own analyzer. Paths and values are checked once each,
/// not once per entry.
fn check_attrs(index: &GksIndex, out: &mut Vec<Violation>) {
    let table = index.node_table();
    let labels = table.labels();
    let store = index.attr_store();
    for (row, entries) in store.iter() {
        // Every row has an id: an open refuses an entity row past the table,
        // and a build or a merge records none.
        let Some(entity) = table.id(row) else {
            continue;
        };
        match table.meta(row) {
            Some(meta) if meta.flags.is_entity() => {
                if meta.label != entries.label() {
                    out.push(Violation::AttrEntityLabelMismatch { entity: entity.clone() });
                }
            }
            _ => out.push(Violation::AttrEntityNotEntity { entity: entity.clone() }),
        }
    }
    for (path, id) in store.paths().iter().zip(0u32..) {
        if path.is_empty() {
            out.push(Violation::AttrPathEmpty { path: id });
        } else if let Some(&label) = path.iter().find(|&&l| l as usize >= labels.len()) {
            out.push(Violation::AttrPathUnresolvable { path: id, label });
        }
    }
    // A norm string may sit in the table twice in a hostile file; grouping is
    // by id, so only the first id counts as "the" norm of that string.
    let mut norm_ids: FastMap<&str, u32> = FastMap::default();
    for (norm, id) in store.norms().zip(0u32..) {
        norm_ids.entry(norm).or_insert(id);
    }
    let analyzer = index.analyzer();
    let mut terms: Vec<String> = Vec::new();
    for (raw, norm) in store.values() {
        terms.clear();
        analyzer.analyze_into(raw, &mut terms);
        if norm_ids.get(terms.join(" ").as_str()) != Some(&norm) {
            out.push(Violation::AttrNormMismatch { value: raw.to_string() });
        }
    }
}

impl GksIndex {
    /// Runs the full invariant audit; see the [module docs](self) for the
    /// checks performed. Empty result = healthy index.
    pub fn doctor(&self) -> Vec<Violation> {
        check(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attrstore::{AttrIds, AttrSource};
    use crate::categorize::NodeFlags;
    use crate::corpus::Corpus;
    use crate::error::IndexError;
    use crate::node_table::NodeMeta;
    use crate::options::IndexOptions;
    use crate::postings::PostingStore;
    use bytes::Mmap;
    use gks_dewey::{DeweyId, DocId};
    use std::sync::Arc;

    /// Rewrites one term's posting list and re-encodes the store as handed.
    fn tamper(ix: &mut GksIndex, term: &str, edit: impl FnOnce(&mut Vec<DeweyId>)) {
        let mut lists: Vec<(String, Vec<DeweyId>)> =
            ix.inverted().iter().map(|(t, list)| (t.to_string(), list.to_vec())).collect();
        edit(&mut lists.iter_mut().find(|(t, _)| t == term).unwrap().1);
        ix.set_inverted(PostingStore::from_raw_lists(&lists).unwrap());
    }

    fn build() -> GksIndex {
        let xml = "<Area><Name>DB</Name><Courses>\
            <Course><Name>Data Mining</Name><Students>\
                <Student>Karen</Student><Student>Mike</Student></Students></Course>\
            <Course><Name>AI</Name><Students>\
                <Student>Karen</Student><Student>John</Student></Students></Course>\
        </Courses></Area>";
        let corpus = Corpus::from_named_strs([("uni", xml)]).unwrap();
        GksIndex::build(&corpus, IndexOptions::default()).unwrap()
    }

    #[test]
    fn fresh_index_is_healthy() {
        let ix = build();
        assert_eq!(ix.doctor(), Vec::new());
    }

    #[test]
    fn detects_unsorted_posting_list() {
        let mut ix = build();
        // Corrupt the "karen" list by swapping its (two) postings.
        tamper(&mut ix, "karen", |list| list.reverse());
        let violations = ix.doctor();
        assert!(
            violations.iter().any(|v| matches!(
                v,
                Violation::UnsortedPostings { term, position: 1 } if term == "karen"
            )),
            "{violations:?}"
        );
    }

    #[test]
    fn auditing_an_opened_index_decodes_into_no_slot() {
        let mut ix = build();
        tamper(&mut ix, "karen", |list| list.reverse());
        let bytes = ix.to_bytes_v3().unwrap().to_vec();
        let reopened = GksIndex::from_mapped(Arc::new(Mmap::from(bytes))).unwrap();
        let violations = reopened.doctor();
        assert_eq!(
            violations,
            vec![Violation::UnsortedPostings { term: "karen".into(), position: 1 }]
        );
        assert_eq!(violations, ix.doctor());
        for index in [&reopened, &ix] {
            assert_eq!(index.decoded_terms(), 0, "the audit must leave every run cold");
            assert_eq!(index.inverted().resident_bytes(), 0);
        }
    }

    /// An orphan row — a node whose depth skips a level, so it has no
    /// parent row — is refused when the file opens, before any audit could
    /// see it. The orphan here is the last row, at depth 6 after a
    /// `<Student>` at depth 4.
    #[test]
    fn an_orphan_row_is_refused_at_open() {
        let ix = build();
        let table = ix.node_table();
        let mut depths: Vec<u32> = table.ids().iter().map(|id| id.depth() as u32).collect();
        let mut metas: Vec<NodeMeta> = table.iter().map(|(_, meta)| *meta).collect();
        assert_eq!(depths.last(), Some(&4));
        depths.push(6);
        metas.push(NodeMeta { child_count: 1, flags: NodeFlags::empty(), label: 0 });
        let bytes = crate::persist::with_node_rows(&ix, &depths, &metas);
        match GksIndex::from_mapped(Arc::new(Mmap::from(bytes))) {
            Err(IndexError::Corrupt(message)) => {
                let orphan = format!("row {} at depth 6 skips a level", depths.len() - 1);
                assert!(message.contains(&orphan), "{message}");
            }
            other => panic!("expected Corrupt, got {other:?}"),
        }
    }

    #[test]
    fn detects_miscategorized_node() {
        let mut ix = build();
        // Flip one entity node's flags to empty (connecting): the recount
        // diverges from the recorded census in two categories.
        let row = ix
            .node_table()
            .iter()
            .position(|(_, m)| m.flags.is_entity() && m.flags.primary() == NodeCategory::Entity)
            .expect("built index has an entity node");
        ix.node_table_mut().meta_mut(row as u32).flags = NodeFlags::empty();
        let violations = ix.doctor();
        assert!(
            violations.iter().any(|v| matches!(
                v,
                Violation::CensusMismatch { category: NodeCategory::Entity, .. }
            )),
            "{violations:?}"
        );
    }

    #[test]
    fn detects_dangling_posting_and_bad_attr_entry() {
        let mut ix = build();
        // A posting beyond every real node, appended in order.
        tamper(&mut ix, "karen", |list| list.push(DeweyId::new(DocId(7), vec![1])));
        // An entity record on <Courses>, a connecting node.
        let entity = DeweyId::new(DocId(0), vec![1]);
        let row = ix.node_table().row(&entity).unwrap();
        let norm = ix.analyzer().analyze("x").join(" ");
        let attrs = ix.attrs_mut();
        let entry = AttrIds {
            path: attrs.paths().len() as u32,
            value: attrs.values().len() as u32,
            source: AttrSource::Attribute,
        };
        attrs.load_path(vec![u32::MAX]);
        let norm_id = attrs.norms().len() as u64;
        attrs.load_norm(&norm);
        attrs.load_value("x", norm_id).unwrap();
        attrs.insert(row, 0, &[entry]).unwrap();
        let violations = ix.doctor();
        assert!(
            violations.iter().any(
                |v| matches!(v, Violation::PostingUnknownNode { term, .. } if term == "karen")
            ),
            "{violations:?}"
        );
        // The row resolver the search runs on refuses the same posting.
        let dangling = DeweyId::new(DocId(7), vec![1]);
        assert_eq!(ix.node_table().rows_of(ix.postings("karen")), Err(&dangling));
        assert!(ix.node_table().rows_of(ix.postings("mike")).is_ok());
        assert!(
            violations
                .iter()
                .any(|v| matches!(v, Violation::AttrEntityNotEntity { entity: e } if *e == entity)),
            "{violations:?}"
        );
        assert!(
            violations
                .iter()
                .any(|v| matches!(v, Violation::AttrPathUnresolvable { label: u32::MAX, .. })),
            "{violations:?}"
        );
    }

    #[test]
    fn detects_a_norm_that_is_not_the_values_analysis() {
        let mut ix = build();
        // Point "Karen" at "Mike"'s norm: DI would merge the two students.
        let store = ix.attr_store();
        let id_of = |raw: &str| store.values().position(|(v, _)| v == raw).unwrap() as u32;
        let (karen, mike) = (id_of("Karen"), id_of("Mike"));
        let mikes_norm = store.norm_of(mike);
        ix.attrs_mut().set_norm_of(karen, mikes_norm);
        assert_eq!(
            ix.doctor(),
            vec![Violation::AttrNormMismatch { value: "Karen".into() }],
            "exactly the tampered value is flagged"
        );
    }

    #[test]
    fn detects_an_entity_record_with_the_wrong_label() {
        let mut ix = build();
        let (row, entries) = ix.attr_store().iter().next().unwrap();
        let entity = ix.node_table().ids()[row as usize].clone();
        let wrong = entries.label() + 1;
        ix.attrs_mut().set_entity_label(row, wrong);
        assert_eq!(ix.doctor(), vec![Violation::AttrEntityLabelMismatch { entity }]);
    }

    #[test]
    fn violations_render_with_context() {
        let v = Violation::UnsortedPostings { term: "karen".into(), position: 3 };
        let s = v.to_string();
        assert!(s.contains("karen") && s.contains('3'), "{s}");
    }
}
