//! The single-pass index builder and the [`GksIndex`] it produces.
//!
//! "Since XML nodes arrive pre-order (an ancestor of an XML node always
//! appears before it), the hash tables and the inverted index are created in
//! a single pass over XML data" (paper §2.4). The builder maintains a stack
//! of open elements; each closing element runs the categorization step
//! ([`crate::categorize::close_element`]), finalizes its children's
//! attribute/repeating status, fills in its children's node-table rows, and
//! reports a structural summary to its parent. Rows are appended at each
//! element's start with their depth, the height of the frame stack, so the
//! rows are in pre-order; [`NodeTable::link`] numbers them at the end, and
//! their id column — Dewey order — doubles as the ordinal → id map the
//! posting lists resolve through.

use std::time::Instant;

use gks_dewey::codec::DecodeError;
use gks_dewey::{DeweyId, DocId};
use gks_text::Analyzer;
use gks_xml::{Event, Reader};

use crate::attrstore::{AttrIds, AttrSource, AttrStore, Entries};
use crate::categorize::{
    close_element, finalize_child_flags, self_flags, ChildSummary, CloseScratch,
};
use crate::corpus::Corpus;
use crate::error::IndexError;
use crate::node_table::{NodeMeta, NodeTable};
use crate::options::IndexOptions;
use crate::postings::{InvertedIndex, PostingStore};
use crate::stats::{CategoryCensus, IndexStats};

/// A fully built GKS index over a corpus. Immutable: a build ends in one
/// (see [`IndexBuilder`]), and incremental growth is a new delta shard
/// ([`crate::delta`]), never a change to an index that exists.
#[derive(Debug)]
pub struct GksIndex {
    options: IndexOptions,
    analyzer: Analyzer,
    node_table: NodeTable,
    inverted: PostingStore,
    attrs: AttrStore,
    stats: IndexStats,
    doc_names: Vec<String>,
    /// XML byte length per document, parallel to `doc_names`.
    doc_bytes: Vec<u64>,
    /// Wall-clock milliseconds [`GksIndex::load`] spent opening this index.
    open_millis: u64,
}

/// Everything a closed element hands to its parent.
struct ChildInfo {
    /// Node-table row (pre-order ordinal).
    row: u32,
    label: u32,
    child_count: u32,
    text_only: bool,
    /// Materialized from an XML attribute (never a real element).
    synthetic: bool,
    is_entity: bool,
    has_attr_child: bool,
    /// The child's own raw text (attribute value when the child turns out to
    /// be an attribute / repeating text node).
    text: String,
    /// Qualifying attribute entries of the child's subtree, to be inherited
    /// by ancestors while no repeating node is crossed.
    attr_entries: Vec<PendingAttr>,
    summary: ChildSummary,
}

/// An attribute entry on its way up the frame stack. Indexes into the
/// document's [`AttrArena`] travel, not strings or label vectors: the store
/// interns a path or a value (and analyses the value) only when an entity
/// records it, so it never holds one no entity refers to.
#[derive(Clone, Copy)]
struct PendingAttr {
    path: u32,
    text: u32,
    source: AttrSource,
}

/// Per-document scratch behind [`PendingAttr`].
#[derive(Default)]
struct AttrArena {
    /// Attribute values, one per text-only child.
    texts: Vec<String>,
    /// Paths as cons cells `(label, rest)`; [`AttrArena::NIL`] ends a path.
    /// Inheriting an entry one level up is one push, whatever the depth.
    paths: Vec<(u32, u32)>,
}

impl AttrArena {
    const NIL: u32 = u32::MAX;

    fn text(&mut self, text: String) -> u32 {
        self.texts.push(text);
        (self.texts.len() - 1) as u32
    }

    fn prepend(&mut self, label: u32, rest: u32) -> u32 {
        self.paths.push((label, rest));
        (self.paths.len() - 1) as u32
    }

    /// Writes the labels of path `cell` into `out`.
    fn path_into(&self, mut cell: u32, out: &mut Vec<u32>) {
        out.clear();
        while let Some(&(label, rest)) = self.paths.get(cell as usize) {
            out.push(label);
            cell = rest;
        }
    }
}

/// Buffers [`IndexBuilder::close_frame`] reuses from one element to the next.
#[derive(Default)]
struct ElementScratch {
    summaries: Vec<ChildSummary>,
    close: CloseScratch,
}

/// One open element during the streaming pass.
struct OpenFrame {
    /// Node-table row, the pre-order ordinal: what the element's postings
    /// record.
    ordinal: u32,
    label: u32,
    has_text: bool,
    text: String,
    children: Vec<ChildInfo>,
}

impl GksIndex {
    /// Indexes a corpus sequentially.
    pub fn build(corpus: &Corpus, options: IndexOptions) -> Result<GksIndex, IndexError> {
        let start = Instant::now();
        let mut builder = IndexBuilder::new(options);
        for doc in corpus.docs() {
            builder.index_document(&doc.name, &doc.xml)?;
        }
        builder.finish(start)
    }

    // ----- accessors used by the search engine -----

    /// The options the index was built with.
    pub fn options(&self) -> &IndexOptions {
        &self.options
    }

    /// The analyzer matching the index's normalization (use it on query
    /// keywords).
    pub fn analyzer(&self) -> &Analyzer {
        &self.analyzer
    }

    /// Inverted-index lookup: the document-ordered posting list `S_i` of a
    /// normalized term. The first access decodes the term's blocked run and
    /// caches it; one that fails to decode reads as empty.
    pub fn postings(&self, term: &str) -> &[DeweyId] {
        self.inverted.postings(term)
    }

    /// [`Self::postings`], with a run that fails to decode an error: the
    /// search engine's fetch.
    pub fn try_postings(&self, term: &str) -> Result<&[DeweyId], DecodeError> {
        self.inverted.try_postings(term)
    }

    /// Posting-list length for a term without forcing a decode: the term
    /// dictionary's stored count. Always equals `self.postings(term).len()`.
    pub fn posting_count(&self, term: &str) -> usize {
        self.inverted.posting_count(term)
    }

    /// The node table (`entityHash` + `elementHash`).
    pub fn node_table(&self) -> &NodeTable {
        &self.node_table
    }

    /// The per-entity attribute store.
    pub fn attr_store(&self) -> &AttrStore {
        &self.attrs
    }

    /// `R(e)`: the qualifying attributes of entity `e` (empty for an unknown
    /// or attribute-less node), read from `e`'s node-table row.
    pub fn entries(&self, e: &DeweyId) -> Entries<'_> {
        let row = self.node_table.row(e);
        self.attrs.entries_at(row.unwrap_or(u32::MAX))
    }

    /// Build statistics (Tables 4 and 5).
    pub fn stats(&self) -> &IndexStats {
        &self.stats
    }

    /// Name of an indexed document.
    pub fn doc_name(&self, doc: DocId) -> Option<&str> {
        self.doc_names.get(doc.0 as usize).map(String::as_str)
    }

    /// Document names in id order.
    pub fn doc_names(&self) -> &[String] {
        &self.doc_names
    }

    /// XML byte length of each document, in id order; they sum to
    /// [`IndexStats::raw_bytes`].
    pub(crate) fn doc_bytes(&self) -> &[u64] {
        &self.doc_bytes
    }

    /// The posting store (persistence and diagnostics).
    pub fn inverted(&self) -> &PostingStore {
        &self.inverted
    }

    /// Wall-clock milliseconds [`GksIndex::load`] took (0 for in-memory
    /// builds). Measured here rather than by callers so the server's
    /// metrics never need raw timing outside the index crate.
    pub fn open_millis(&self) -> u64 {
        self.open_millis
    }

    /// Bytes of index file served straight off a kernel memory map (0 for an
    /// index built in memory, whose encoded runs sit in an owned buffer).
    pub fn bytes_mapped(&self) -> u64 {
        self.inverted.bytes_mapped()
    }

    /// Posting runs decoded so far — 0 right after a build or an open, grows
    /// as queries touch terms.
    pub fn decoded_terms(&self) -> usize {
        self.inverted.decoded_terms()
    }

    // ----- test-only mutators for the doctor's corrupted-index fixtures -----

    #[cfg(test)]
    pub(crate) fn set_inverted(&mut self, inverted: PostingStore) {
        self.inverted = inverted;
    }

    #[cfg(test)]
    pub(crate) fn node_table_mut(&mut self) -> &mut NodeTable {
        &mut self.node_table
    }

    #[cfg(test)]
    pub(crate) fn attrs_mut(&mut self) -> &mut AttrStore {
        &mut self.attrs
    }

    #[cfg(test)]
    pub(crate) fn stats_mut(&mut self) -> &mut IndexStats {
        &mut self.stats
    }

    /// Crate-internal constructor, for a finished build and for the
    /// persistence layer.
    pub(crate) fn from_parts(
        options: IndexOptions,
        node_table: NodeTable,
        inverted: PostingStore,
        attrs: AttrStore,
        stats: IndexStats,
        doc_names: Vec<String>,
        doc_bytes: Vec<u64>,
    ) -> GksIndex {
        let analyzer = Analyzer::new(options.analyzer_options());
        GksIndex {
            options,
            analyzer,
            node_table,
            inverted,
            attrs,
            stats,
            doc_names,
            doc_bytes,
            open_millis: 0,
        }
    }

    /// Records how long [`GksIndex::load`] took (persistence layer).
    pub(crate) fn set_open_millis(&mut self, open_millis: u64) {
        self.open_millis = open_millis;
    }
}

/// An index under construction: the tables a build fills, plus the posting
/// accumulator that [`IndexBuilder::finish`] encodes. Private, so the only
/// way to make a [`GksIndex`] outside [`crate::persist`] is to finish a
/// build.
struct IndexBuilder {
    options: IndexOptions,
    analyzer: Analyzer,
    node_table: NodeTable,
    inverted: InvertedIndex,
    attrs: AttrStore,
    stats: IndexStats,
    /// Census per label id, named into `stats.per_label` at finish.
    label_census: Vec<CategoryCensus>,
    doc_names: Vec<String>,
    doc_bytes: Vec<u64>,
}

impl IndexBuilder {
    fn new(options: IndexOptions) -> IndexBuilder {
        let analyzer = Analyzer::new(options.analyzer_options());
        IndexBuilder {
            options,
            analyzer,
            node_table: NodeTable::new(),
            inverted: InvertedIndex::default(),
            attrs: AttrStore::new(),
            stats: IndexStats::default(),
            label_census: Vec::new(),
            doc_names: Vec::new(),
            doc_bytes: Vec::new(),
        }
    }

    /// Ends the build: links the node table, which numbers its rows, then
    /// encodes the accumulated postings through those ids as blocked runs
    /// and opens them as the index's [`PostingStore`].
    fn finish(mut self, start: Instant) -> Result<GksIndex, IndexError> {
        for (name, census) in self.node_table.labels().names().iter().zip(&self.label_census) {
            if census.total() > 0 {
                self.stats.per_label.insert(name.clone(), *census);
            }
        }
        let IndexBuilder {
            options,
            mut node_table,
            inverted,
            mut attrs,
            mut stats,
            doc_names,
            doc_bytes,
            ..
        } = self;
        attrs.seal();
        node_table.link(doc_names.len())?;
        let inverted = inverted.finish(node_table.ids())?.open(&mut stats)?;
        stats.build_millis = start.elapsed().as_millis() as u64;
        let index =
            GksIndex::from_parts(options, node_table, inverted, attrs, stats, doc_names, doc_bytes);
        // Debug builds audit every freshly built index so the doctor's
        // invariants are exercised by the whole test suite for free.
        #[cfg(debug_assertions)]
        {
            let violations = crate::doctor::check(&index);
            debug_assert!(
                violations.is_empty(),
                "index doctor found violations in a fresh build: {violations:?}"
            );
        }
        Ok(index)
    }

    /// Streams the next document into the index.
    fn index_document(&mut self, name: &str, xml: &str) -> Result<(), IndexError> {
        self.doc_names.push(name.to_string());
        self.doc_bytes.push(xml.len() as u64);
        self.stats.doc_count += 1;
        self.stats.raw_bytes += xml.len() as u64;

        let mut reader = Reader::new(xml);
        let mut stack: Vec<OpenFrame> = Vec::new();
        let mut scratch = ElementScratch::default();
        let mut arena = AttrArena::default();

        loop {
            let event = reader
                .next_event()
                .map_err(|e| IndexError::Xml { document: name.to_string(), source: e })?;
            let Some(event) = event else { break };
            match event {
                Event::Start { name: tag, attributes } => {
                    let depth = stack.len() as u32;
                    self.stats.max_depth = self.stats.max_depth.max(depth);
                    let label = self.node_table.labels_mut().intern(tag);
                    let ordinal = self.node_table.push(depth, label)?;
                    self.inverted.post_label(label, tag, ordinal, &self.analyzer);
                    let mut frame = OpenFrame {
                        ordinal,
                        label,
                        has_text: false,
                        text: String::new(),
                        children: Vec::new(),
                    };
                    for attr in &attributes {
                        self.push_synthetic_attr_child(
                            &mut frame,
                            depth + 1,
                            attr.name,
                            &attr.value,
                        )?;
                    }
                    stack.push(frame);
                }
                Event::Text(text) => {
                    let frame = stack
                        .last_mut()
                        .ok_or(IndexError::Invariant("text event outside the root element"))?;
                    // Index the words at the containing element itself; the
                    // search engine applies the §2.1.1 parent-promotion rule
                    // for attribute nodes at candidate-generation time.
                    self.inverted.post_text(&text, frame.ordinal, &self.analyzer);
                    if !text.trim().is_empty() {
                        if frame.has_text {
                            frame.text.push(' ');
                        }
                        frame.text.push_str(text.trim());
                        frame.has_text = true;
                    }
                }
                Event::End { .. } => {
                    let frame = stack
                        .pop()
                        .ok_or(IndexError::Invariant("end event with no open element"))?;
                    let info = self.close_frame(frame, &mut scratch, &mut arena)?;
                    match stack.last_mut() {
                        Some(parent) => parent.children.push(info),
                        None => self.finalize_root(info),
                    }
                }
                Event::Comment(_) | Event::Pi(_) | Event::Declaration(_) | Event::Doctype(_) => {}
            }
        }
        Ok(())
    }

    /// Materializes an XML attribute `k="v"` as a text-only child element
    /// of `frame`, at `depth`.
    fn push_synthetic_attr_child(
        &mut self,
        frame: &mut OpenFrame,
        depth: u32,
        attr_name: &str,
        value: &str,
    ) -> Result<(), IndexError> {
        self.stats.max_depth = self.stats.max_depth.max(depth);
        let label = self.node_table.labels_mut().intern(attr_name);
        let ordinal = self.node_table.push(depth, label)?;
        self.inverted.post_label(label, attr_name, ordinal, &self.analyzer);
        self.inverted.post_text(value, ordinal, &self.analyzer);
        frame.children.push(ChildInfo {
            row: ordinal,
            label,
            child_count: 1,
            text_only: true,
            synthetic: true,
            is_entity: false,
            has_attr_child: false,
            text: value.to_string(),
            attr_entries: Vec::new(),
            summary: ChildSummary {
                label,
                text_only: true,
                qual_attr_inside: false,
                has_rep_inside: false,
            },
        });
        Ok(())
    }

    /// Runs categorization for a closing element: finalizes its children,
    /// records them in the node table, assembles qualifying attribute
    /// entries, and produces the element's own [`ChildInfo`].
    fn close_frame(
        &mut self,
        mut frame: OpenFrame,
        scratch: &mut ElementScratch,
        arena: &mut AttrArena,
    ) -> Result<ChildInfo, IndexError> {
        let ElementScratch { summaries, close } = scratch;
        summaries.clear();
        summaries.extend(frame.children.iter().map(|c| c.summary));
        let outcome = close_element(summaries, close);

        let mut attr_entries: Vec<PendingAttr> = Vec::new();
        for (child, &repeating) in frame.children.iter_mut().zip(outcome.child_repeating) {
            if child.text_only && !child.text.is_empty() {
                attr_entries.push(PendingAttr {
                    path: arena.prepend(child.label, AttrArena::NIL),
                    text: arena.text(std::mem::take(&mut child.text)),
                    source: if repeating {
                        AttrSource::RepeatingText
                    } else {
                        AttrSource::Attribute
                    },
                });
            }
            if !repeating {
                // Inherit the subtree's qualifying attributes: the path from
                // this element to them crosses no repeating node. Text-only
                // children contribute too: their XML attributes were lifted
                // into entries of their own.
                for entry in &child.attr_entries {
                    attr_entries.push(PendingAttr {
                        path: arena.prepend(child.label, entry.path),
                        ..*entry
                    });
                }
            }
        }

        // Synthetic attribute children do not make an element an interior
        // node: <author position="0">Name</author> still *directly contains
        // its value* and must classify as an attribute/repeating text node.
        let real_children = frame.children.iter().filter(|c| !c.synthetic).count();

        // Children are fully decided now: record them.
        for (child, &repeating) in frame.children.into_iter().zip(outcome.child_repeating) {
            let mut flags = self_flags(child.text_only, child.is_entity, child.has_attr_child);
            finalize_child_flags(&mut flags, repeating);
            self.record_node(
                child.row,
                NodeMeta { child_count: child.child_count, flags, label: child.label },
            );
        }

        if outcome.is_entity {
            let mut path = Vec::new();
            let entries: Vec<AttrIds> = attr_entries
                .iter()
                .map(|e| {
                    arena.path_into(e.path, &mut path);
                    let text = &arena.texts[e.text as usize];
                    AttrIds {
                        path: self.attrs.intern_path(&path),
                        value: self
                            .attrs
                            .intern_value(text, || self.inverted.norm(text, &self.analyzer)),
                        source: e.source,
                    }
                })
                .collect();
            self.attrs.insert(frame.ordinal, frame.label, &entries)?;
        }

        let element_children = outcome.child_repeating.len() as u32;
        let child_count = (element_children + u32::from(frame.has_text)).max(1);
        let text_only = real_children == 0;
        Ok(ChildInfo {
            summary: ChildSummary {
                label: frame.label,
                text_only,
                qual_attr_inside: outcome.summary_qual_attr_inside,
                has_rep_inside: outcome.summary_has_rep_inside,
            },
            row: frame.ordinal,
            label: frame.label,
            child_count,
            text_only,
            synthetic: false,
            is_entity: outcome.is_entity,
            has_attr_child: outcome.has_attr_child,
            text: frame.text,
            attr_entries,
        })
    }

    /// The document root has no parent to finalize it; it is never repeating.
    fn finalize_root(&mut self, info: ChildInfo) {
        let mut flags = self_flags(info.text_only, info.is_entity, info.has_attr_child);
        finalize_child_flags(&mut flags, false);
        self.record_node(
            info.row,
            NodeMeta { child_count: info.child_count, flags, label: info.label },
        );
    }

    fn record_node(&mut self, row: u32, meta: NodeMeta) {
        self.stats.total_nodes += 1;
        let primary = meta.flags.primary();
        self.stats.census.add(primary);
        let slot = meta.label as usize;
        if slot >= self.label_census.len() {
            self.label_census.resize(slot + 1, CategoryCensus::default());
        }
        self.label_census[slot].add(primary);
        self.node_table.set_meta(row, meta);
    }
}

/// One line per entity, in Dewey order, with every id resolved to names and
/// text — equal for two indexes over the same corpus however their tables
/// happen to be numbered.
#[cfg(test)]
pub(crate) fn resolved_attrs(ix: &GksIndex) -> Vec<String> {
    let table = ix.node_table();
    let labels = table.labels();
    let store = ix.attr_store();
    let mut entities: Vec<_> =
        store.iter().map(|(row, entries)| (table.id(row), entries)).collect();
    entities.sort_by(|a, b| a.0.cmp(&b.0));
    entities
        .iter()
        .map(|(entity, entries)| {
            let mut line = format!("{entity:?} <{}>", labels.name(entries.label()));
            for e in entries.ids() {
                let path: Vec<&str> = store.path(e.path).iter().map(|&l| labels.name(l)).collect();
                let norm = store.norm(store.norm_of(e.value));
                let value = store.value(e.value);
                line.push_str(&format!(" {}={value:?}~{norm:?}/{:?}", path.join("."), e.source));
            }
            line
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::categorize::NodeCategory;

    /// The paper's Figure 2(a) document (Dept → Area → Courses → Course →
    /// Students → Student), trimmed to the parts the tests assert on.
    pub(crate) const FIG2A: &str = r#"<Dept>
        <Dept_Name>CS</Dept_Name>
        <Area>
            <Name>Databases</Name>
            <Courses>
                <Course>
                    <Name>Data Mining</Name>
                    <Students>
                        <Student>Karen</Student>
                        <Student>Mike</Student>
                        <Student>Peter</Student>
                    </Students>
                </Course>
                <Course>
                    <Name>Algorithms</Name>
                    <Students>
                        <Student>Karen</Student>
                        <Student>John</Student>
                        <Student>Julie</Student>
                    </Students>
                </Course>
                <Course>
                    <Name>AI</Name>
                    <Students>
                        <Student>Karen</Student>
                        <Student>Mike</Student>
                        <Student>Serena</Student>
                    </Students>
                </Course>
            </Courses>
        </Area>
        <Area>
            <Name>Systems</Name>
            <Courses>
                <Course>
                    <Name>Networks</Name>
                    <Students>
                        <Student>Harry</Student>
                        <Student>Draco</Student>
                    </Students>
                </Course>
                <Course>
                    <Name>Compilers</Name>
                    <Students>
                        <Student>Luna</Student>
                        <Student>Neville</Student>
                    </Students>
                </Course>
            </Courses>
        </Area>
    </Dept>"#;

    fn build_fig2a() -> GksIndex {
        let corpus = Corpus::from_named_strs([("fig2a", FIG2A)]).unwrap();
        GksIndex::build(&corpus, IndexOptions::default()).unwrap()
    }

    fn d(steps: &[u32]) -> DeweyId {
        DeweyId::new(DocId(0), steps.to_vec())
    }

    #[test]
    fn fig2a_categorization_matches_paper() {
        let ix = build_fig2a();
        let t = ix.node_table();
        // <Area> (n0.1) is an entity node: attribute <Name> + repeating
        // <Course> nodes (paper Def 2.1.3 walk-through).
        assert!(t.is_entity(&d(&[1])).is_some(), "Area is an entity node");
        // <Course> nodes are entity nodes.
        assert!(t.is_entity(&d(&[1, 1, 0])).is_some(), "Course is an entity node");
        // <Courses> (n0.1.1) is a connecting node.
        let courses = t.get(&d(&[1, 1])).unwrap();
        assert_eq!(courses.flags.primary(), NodeCategory::Connecting);
        // <Name> (n0.1.0) is an attribute node.
        let name = t.get(&d(&[1, 0])).unwrap();
        assert_eq!(name.flags.primary(), NodeCategory::Attribute);
        // <Student> nodes are repeating (text) nodes.
        let student = t.get(&d(&[1, 1, 0, 1, 0])).unwrap();
        assert_eq!(student.flags.primary(), NodeCategory::Repeating);
        // <Dept> is an entity node (Dept_Name attribute + repeating Areas).
        assert!(t.is_entity(&d(&[])).is_some(), "Dept is an entity node");
        // <Course> is simultaneously an entity node and a repeating node.
        let course = t.get(&d(&[1, 1, 0])).unwrap();
        assert!(course.flags.is_entity() && course.flags.is_repeating());
    }

    #[test]
    fn fig2a_postings() {
        let ix = build_fig2a();
        // "Karen" appears in three courses, at the Student text elements
        // (Table 3 of the paper shows exactly these Dewey shapes).
        let karen = ix.postings("karen");
        assert_eq!(karen.len(), 3);
        assert_eq!(karen[0], d(&[1, 1, 0, 1, 0]));
        assert!(karen.windows(2).all(|w| w[0] < w[1]), "document order");
        // Element names are indexed: "student" (stemmed from Students and
        // Student) has postings.
        assert!(!ix.postings("student").is_empty());
        // Stop words are not.
        assert!(ix.postings("the").is_empty());
    }

    #[test]
    fn fig2a_attr_store_exposes_course_names() {
        let ix = build_fig2a();
        let entries = ix.entries(&d(&[1, 1, 0]));
        // The Data Mining course: attribute <Name> plus three repeating
        // Student text nodes.
        let names: Vec<&str> = entries
            .iter()
            .filter(|e| e.source == AttrSource::Attribute)
            .map(|e| e.value)
            .collect();
        assert_eq!(names, vec!["Data Mining"]);
        let students: Vec<&str> = entries
            .iter()
            .filter(|e| e.source == AttrSource::RepeatingText)
            .map(|e| e.value)
            .collect();
        assert_eq!(students, vec!["Karen", "Mike", "Peter"]);
        // Paths carry the semantics: students are reached via
        // Students/Student.
        let student_entry = entries.iter().find(|e| e.value == "Karen").expect("Karen entry");
        let path: Vec<&str> =
            student_entry.path.iter().map(|&l| ix.node_table().labels().name(l)).collect();
        assert_eq!(path, vec!["Students", "Student"]);
    }

    #[test]
    fn attributes_do_not_leak_across_repeating_boundaries() {
        let ix = build_fig2a();
        // Area's own attributes must not include course names (the path
        // crosses the repeating <Course> nodes).
        let entries = ix.entries(&d(&[1]));
        assert!(entries.iter().all(|e| e.value != "Data Mining"));
        assert!(entries.iter().any(|e| e.value == "Databases"));
    }

    #[test]
    fn child_counts_support_ranking() {
        let ix = build_fig2a();
        let t = ix.node_table();
        assert_eq!(t.child_count(&d(&[1])), Some(2)); // Area: Name + Courses
        assert_eq!(t.child_count(&d(&[1, 1])), Some(3)); // Courses: 3 Course
        assert_eq!(t.child_count(&d(&[1, 1, 0, 1])), Some(3)); // Students: 3
        assert_eq!(t.child_count(&d(&[1, 0])), Some(1)); // Name: its value
    }

    #[test]
    fn stats_census_counts_every_node() {
        let ix = build_fig2a();
        let s = ix.stats();
        assert_eq!(s.census.total(), s.total_nodes);
        // Dept, 2 Areas, 5 Courses are entities.
        assert_eq!(s.census.entity, 8);
        // 13 students are repeating text nodes.
        assert_eq!(s.census.repeating, 13);
        // Dept_Name + 2 Area Names + 5 Course Names are attributes.
        assert_eq!(s.census.attribute, 8);
        // 2 Courses containers + 5 Students containers are connecting.
        assert_eq!(s.census.connecting, 7);
        assert_eq!(s.max_depth, 5); // Dept/Area/Courses/Course/Students/Student
        assert_eq!(s.doc_count, 1);
        // Per-label census saw 13 Student nodes, all repeating.
        assert_eq!(s.per_label["Student"].repeating, 13);
    }

    #[test]
    fn xml_attributes_lifted_to_children() {
        let xml = r#"<mondial><country car_code="AL" name="Albania">
            <city><name>Tirana</name></city>
            <city><name>Durres</name></city>
        </country></mondial>"#;
        let corpus = Corpus::from_named_strs([("m", xml)]).unwrap();
        let ix = GksIndex::build(&corpus, IndexOptions::default()).unwrap();
        // The country's XML attributes become attribute-node children, so
        // "albania" is searchable…
        assert_eq!(ix.postings("albania").len(), 1);
        // …and the country (attrs + repeating cities) is an entity whose
        // attribute store carries the lifted values.
        let country = DeweyId::new(DocId(0), vec![0]);
        assert!(ix.node_table().is_entity(&country).is_some());
        let values: Vec<&str> = ix.entries(&country).iter().map(|e| e.value).collect();
        assert!(values.contains(&"Albania"));
    }

    #[test]
    fn multi_document_corpus_prefixes_doc_ids() {
        let corpus = Corpus::from_named_strs([
            ("one", "<r><x>shared</x></r>"),
            ("two", "<r><y>shared</y></r>"),
        ])
        .unwrap();
        let ix = GksIndex::build(&corpus, IndexOptions::default()).unwrap();
        let postings = ix.postings("share"); // stemmed
        assert_eq!(postings.len(), 2);
        assert_eq!(postings[0].doc(), DocId(0));
        assert_eq!(postings[1].doc(), DocId(1));
        assert_eq!(ix.doc_name(DocId(1)), Some("two"));
    }

    #[test]
    fn a_fresh_build_holds_encoded_runs_only() {
        let ix = build_fig2a();
        assert_eq!(ix.decoded_terms(), 0, "a build decodes no run, the debug audit included");
        assert_eq!(ix.inverted().resident_bytes(), 0);
        assert_eq!(ix.bytes_mapped(), 0, "the runs sit in an owned buffer, not a map");
        assert_eq!(ix.postings("karen").len(), 3);
        assert_eq!(ix.decoded_terms(), 1, "a query decodes the terms it touches");
    }

    #[test]
    fn malformed_document_reports_name() {
        let corpus = Corpus::from_named_strs([("bad", "<a><b></a>")]).unwrap();
        let err = GksIndex::build(&corpus, IndexOptions::default()).unwrap_err();
        match err {
            IndexError::Xml { document, .. } => assert_eq!(document, "bad"),
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn namespaced_element_names_index_by_local_part() {
        let xml = r#"<dblp:bib xmlns:dblp="http://example/ns">
            <dblp:article><dblp:author>Jane Roe</dblp:author></dblp:article>
        </dblp:bib>"#;
        let corpus = Corpus::from_named_strs([("ns", xml)]).unwrap();
        let ix = GksIndex::build(&corpus, IndexOptions::default()).unwrap();
        // The tag-name keyword is the local part…
        assert!(!ix.postings("author").is_empty());
        // …while labels keep the full prefixed name for display.
        let article = DeweyId::new(DocId(0), vec![1]);
        assert_eq!(ix.node_table().label_name(&article), Some("dblp:article"));
    }

    #[test]
    fn empty_element_gets_unit_child_count() {
        let corpus = Corpus::from_named_strs([("e", "<r><empty/><empty/></r>")]).unwrap();
        let ix = GksIndex::build(&corpus, IndexOptions::default()).unwrap();
        assert_eq!(ix.node_table().child_count(&d(&[0])), Some(1));
    }
}
