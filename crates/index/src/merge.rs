//! Merging indexes by document: the index [`GksIndex::build`] would make
//! over a chosen list of already-indexed documents, assembled from the
//! index files that hold them without reading any XML.
//!
//! The build is one pass in which every decision is local to a document:
//! an element is categorized from its own children (§2.4), its attribute
//! entries come from its own subtree, and a posting names a node of its own
//! document. Only the numbering is shared — document ids, and the label,
//! path, value and norm tables, which intern in first-seen order. So a
//! document's rows, entities and postings can be copied out of any index
//! that holds it, renumbered, and laid down in the order the build would
//! have produced them:
//!
//! * **rows** in pre-order, each with its depth, interning labels as the
//!   build does at each element start, and counting the census as the build
//!   does at each close; [`NodeTable::link`] links them as it links a
//!   build's;
//! * **entities** in the source's recording order for that document (the
//!   order the build's closes recorded them), each at the output document's
//!   first row plus its offset from the source document's, interning each
//!   entry's path and value the first time the walk meets it, with the
//!   source's norm rather than a fresh analysis;
//! * **postings** term by term in dictionary order, each source's run read
//!   straight off its bytes, blocks of dropped documents skipped, a kept
//!   document's rows moved by one constant (its output root row minus its
//!   source root row), and the list encoded by the build's own tier
//!   encoder.
//!
//! Sources are [`MergeSource`]s, not opened indexes: their node rows are
//! read forward off the mapped file, so no source holds a decoded node
//! table. The result is byte-identical to a build over the same documents
//! in the same order; compaction ([`crate::delta::compact`]) relies on that.

use std::cmp::Ordering;
use std::ops::Range;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use bytes::Mmap;
use gks_dewey::codec::read_varint;

use crate::attrstore::{AttrIds, AttrStore};
use crate::builder::GksIndex;
use crate::error::IndexError;
use crate::node_table::{NodeMeta, NodeTable};
use crate::options::IndexOptions;
use crate::persist::{
    read_attr_tables, read_doc_names, read_entities, read_frame, read_labels, read_row, read_stats,
    Frame,
};
use crate::postings::{EncodedTier, PostingStore, Tier};
use crate::stats::{CategoryCensus, IndexStats};

/// Marks a source id with no output id yet (labels, paths, values).
const UNSEEN: u32 = u32::MAX;

/// One source as the merge reads it.
struct Source<'a> {
    src: &'a MergeSource,
    rows: NodeRows<'a>,
    /// Documents the output keeps, in local order: each one's source rows
    /// and its output root row.
    kept_docs: Vec<(Range<u32>, u32)>,
    /// The next of the source's entities, in recording order, and the end
    /// of the source rows copied last: an entity listed later lies past it.
    entity: usize,
    copied_to: u32,
    labels: Vec<u32>,
    paths: Vec<u32>,
    values: Vec<u32>,
    /// Next dictionary slot of the posting merge.
    term: usize,
    /// The current term's kept postings, as output rows, and how many of
    /// them the join has taken.
    kept: Vec<u32>,
    taken: usize,
}

impl<'a> Source<'a> {
    fn new(src: &'a MergeSource) -> Source<'a> {
        Source {
            src,
            rows: src.rows(),
            kept_docs: Vec::new(),
            entity: 0,
            copied_to: 0,
            labels: vec![UNSEEN; src.labels.len()],
            paths: vec![UNSEEN; src.attrs.paths().len()],
            values: vec![UNSEEN; src.attrs.values().len()],
            term: 0,
            kept: Vec::new(),
            taken: 0,
        }
    }

    /// Refuses an entity the cursor has not reached in a document it copied
    /// already: the source recorded it after a later document's.
    fn check_entities_taken(&self) -> Result<(), IndexError> {
        let rest = self.src.entities.get(self.entity..).unwrap_or_default();
        match rest.iter().find(|&&(row, ..)| row < self.copied_to) {
            Some(&(row, ..)) => Err(entity_out_of_order(row)),
            None => Ok(()),
        }
    }

    /// True when a kept document has a row in `rows`.
    fn keeps_any(&self, rows: Range<u32>) -> bool {
        let next = self.kept_docs.partition_point(|(doc, _)| doc.end <= rows.start);
        self.kept_docs.get(next).is_some_and(|(doc, _)| doc.start < rows.end)
    }
}

/// The tables an output index fills, in the build's order.
#[derive(Default)]
struct Output {
    node_table: NodeTable,
    attrs: AttrStore,
    stats: IndexStats,
    label_census: Vec<CategoryCensus>,
    doc_names: Vec<String>,
    doc_bytes: Vec<u64>,
}

/// The output label of a source label, through the source's `remap`,
/// interning `names[label]` into `table` on first use.
fn remap_label(
    table: &mut NodeTable,
    remap: &mut [u32],
    names: &[String],
    label: u32,
) -> Result<u32, IndexError> {
    let slot = remap
        .get_mut(label as usize)
        .ok_or_else(|| corrupt(format!("merge: label id {label} out of range")))?;
    if *slot == UNSEEN {
        *slot = table.labels_mut().intern(&names[label as usize]);
    }
    Ok(*slot)
}

fn corrupt(what: String) -> IndexError {
    IndexError::Corrupt(what)
}

/// A source's entity at `row` recorded after an entity of a later document.
fn entity_out_of_order(row: u32) -> IndexError {
    corrupt(format!("merge: entity row {row} is recorded after a later document's"))
}

impl Output {
    /// The output label of `source`'s label `label`, interned on first use.
    fn label(&mut self, source: &mut Source<'_>, label: u32) -> Result<u32, IndexError> {
        remap_label(&mut self.node_table, &mut source.labels, &source.src.labels, label)
    }

    /// Appends document `local` of `source` as the next output document: its
    /// name and length, its rows, and its entities.
    fn push_document(&mut self, source: &mut Source<'_>, local: u32) -> Result<(), IndexError> {
        let src = source.src;
        let name = src.doc_names.get(local as usize).ok_or_else(|| {
            corrupt(format!("merge: document {local} is past its source's {}", src.doc_names.len()))
        })?;
        let bytes = src.doc_bytes.get(local as usize).copied().unwrap_or(0);
        self.doc_names.push(name.clone());
        self.doc_bytes.push(bytes);
        self.stats.doc_count += 1;
        self.stats.raw_bytes += bytes;

        let (labels, names) = (&mut source.labels, &src.labels);
        let first = self.node_table.len() as u32;
        let rows = source.rows.copy_doc(local, |depth, meta| {
            let label = remap_label(&mut self.node_table, labels, names, meta.label)?;
            self.stats.max_depth = self.stats.max_depth.max(depth);
            self.node_table.push_row(depth, NodeMeta { label, ..meta })?;
            let primary = meta.flags.primary();
            self.stats.total_nodes += 1;
            self.stats.census.add(primary);
            let slot = label as usize;
            if slot >= self.label_census.len() {
                self.label_census.resize(slot + 1, CategoryCensus::default());
            }
            self.label_census[slot].add(primary);
            Ok(())
        })?;
        source.kept_docs.push((rows.clone(), first));

        // The source recorded its entities document by document, so this
        // one's come next, after any of the dropped documents before it.
        let (mut path, mut entries) = (Vec::new(), Vec::new());
        while let Some((row, label, range)) = src.entities.get(source.entity) {
            if *row >= rows.end {
                break;
            }
            if *row < source.copied_to {
                return Err(entity_out_of_order(*row));
            }
            source.entity += 1;
            if *row < rows.start {
                continue;
            }
            entries.clear();
            for e in &src.entity_entries[range.clone()] {
                entries.push(AttrIds {
                    path: self.path(source, e.path, &mut path)?,
                    value: self.value(source, e.value)?,
                    source: e.source,
                });
            }
            let label = self.label(source, *label)?;
            self.attrs.insert(first + (row - rows.start), label, &entries)?;
        }
        source.copied_to = rows.end;
        Ok(())
    }

    /// The output path of `source`'s path `id`, its labels renumbered and
    /// interned as the build interns it.
    fn path(
        &mut self,
        source: &mut Source<'_>,
        id: u32,
        scratch: &mut Vec<u32>,
    ) -> Result<u32, IndexError> {
        match source.paths.get(id as usize) {
            Some(&out) if out != UNSEEN => return Ok(out),
            Some(_) => {}
            None => return Err(corrupt(format!("merge: attr path id {id} out of range"))),
        }
        scratch.clear();
        for &label in source.src.attrs.path(id) {
            scratch.push(self.label(source, label)?);
        }
        let out = self.attrs.intern_path(scratch);
        source.paths[id as usize] = out;
        Ok(out)
    }

    /// The output value of `source`'s value `id`, interned as the build
    /// interns it but with the norm the source stored instead of an
    /// analysis.
    fn value(&mut self, source: &mut Source<'_>, id: u32) -> Result<u32, IndexError> {
        match source.values.get(id as usize) {
            Some(&out) if out != UNSEEN => return Ok(out),
            Some(_) => {}
            None => return Err(corrupt(format!("merge: attr value id {id} out of range"))),
        }
        let attrs = &source.src.attrs;
        let norm = attrs.norm(attrs.norm_of(id));
        let out = self.attrs.intern_value(attrs.value(id), || norm.to_owned());
        source.values[id as usize] = out;
        Ok(out)
    }
}

impl GksIndex {
    /// The index over `docs`, output document `i` being local document
    /// `docs[i].1` of `sources[docs[i].0]` — byte for byte the index
    /// [`GksIndex::build`] makes over those documents' XML in that order.
    /// No XML is read and no text analysed; see the [module docs](self).
    ///
    /// The caller guarantees that the sources share their options and that
    /// each source's locals increase along `docs` (compaction checks both
    /// as it opens the sources); the output takes the first source's
    /// options. A source or local out of range is [`IndexError::Corrupt`].
    pub(crate) fn merge(
        sources: &[&MergeSource],
        docs: &[(usize, u32)],
    ) -> Result<GksIndex, IndexError> {
        let start = Instant::now();
        let options = sources
            .first()
            .map(|s| s.options.clone())
            .ok_or_else(|| corrupt("merge: no source index".into()))?;
        let mut sources: Vec<Source<'_>> = sources.iter().map(|src| Source::new(src)).collect();
        let mut used = vec![0usize; sources.len()];
        for &(s, local) in docs {
            let source = sources
                .get(s)
                .ok_or_else(|| corrupt(format!("merge: source {s} does not exist")))?;
            let count = source.src.doc_names.len();
            if local as usize >= count {
                return Err(corrupt(format!(
                    "merge: document {local} is past source {s}'s {count}"
                )));
            }
            used[s] += 1;
        }
        // About as many rows as the kept share of each source's documents.
        let rows: usize = sources
            .iter()
            .zip(&used)
            .map(|(source, &kept)| source.src.row_count * kept / source.src.doc_names.len().max(1))
            .sum();

        let mut out = Output::default();
        out.node_table.reserve(rows);
        for &(s, local) in docs {
            out.push_document(&mut sources[s], local)?;
        }
        for source in &sources {
            source.check_entities_taken()?;
        }
        let Output {
            mut node_table, mut attrs, mut stats, label_census, doc_names, doc_bytes, ..
        } = out;
        for (name, census) in node_table.labels().names().iter().zip(&label_census) {
            if census.total() > 0 {
                stats.per_label.insert(name.clone(), *census);
            }
        }
        let mut active: Vec<Source<'_>> = sources
            .into_iter()
            .zip(used)
            .filter_map(|(s, kept)| (kept > 0).then_some(s))
            .collect();
        let tier = merge_postings(&mut active, node_table.depths())?;
        node_table.link(doc_names.len())?;
        let inverted = tier.open(&mut stats)?;
        attrs.seal();
        stats.build_millis = start.elapsed().as_millis() as u64;
        let index =
            GksIndex::from_parts(options, node_table, inverted, attrs, stats, doc_names, doc_bytes);
        #[cfg(debug_assertions)]
        {
            let violations = crate::doctor::check(&index);
            debug_assert!(
                violations.is_empty(),
                "index doctor found violations in a merge: {violations:?}"
            );
        }
        Ok(index)
    }
}

/// Merges the sources' sorted term dictionaries into one tier: for each
/// term, every source's surviving postings moved to their output rows, in
/// document order. A term no kept document holds is dropped. `depths` are
/// the output rows' depths.
fn merge_postings(sources: &mut [Source<'_>], depths: &[u32]) -> Result<EncodedTier, IndexError> {
    let mut tier = EncodedTier::default();
    let mut list: Vec<u32> = Vec::new();
    let mut holders: Vec<usize> = Vec::new();
    let mut block: Vec<u32> = Vec::new();
    loop {
        // The smallest head term, and every source whose head it is.
        holders.clear();
        let mut least: Option<&str> = None;
        for (s, source) in sources.iter().enumerate() {
            let store = &source.src.inverted;
            if source.term >= store.term_count() {
                continue;
            }
            let term = store.term_str(source.term);
            match least.map(|l| term.as_bytes().cmp(l.as_bytes())) {
                Some(Ordering::Greater) => continue,
                Some(Ordering::Equal) => {}
                _ => {
                    holders.clear();
                    least = Some(term);
                }
            }
            holders.push(s);
        }
        let Some(term) = least else { break };
        let term = term.to_owned();
        for &s in &holders {
            sources[s].take_term(&mut block)?;
        }
        list.clear();
        join_by_document(sources, &holders, &mut list);
        if !list.is_empty() {
            tier.push(&term, &list, depths)?;
        }
    }
    Ok(tier)
}

impl Source<'_> {
    /// Reads the current term's run into `kept` — the postings of kept
    /// documents, each moved by its document's shift, every block that
    /// holds no kept row skipped — and moves on to the next term. Rows that
    /// do not increase, or that reach past the source's node section, are
    /// [`IndexError::Corrupt`].
    fn take_term(&mut self, block: &mut Vec<u32>) -> Result<(), IndexError> {
        let src = self.src;
        let reader = src.inverted.run_reader(self.term)?;
        self.term += 1;
        self.kept.clear();
        self.taken = 0;
        let skips = reader.skips();
        let row_count = u32::try_from(src.row_count).unwrap_or(u32::MAX);
        let (mut doc, mut prev) = (0, None);
        for (i, skip) in skips.iter().enumerate() {
            let end = skips.get(i + 1).map_or(row_count, |next| next.first);
            if end <= skip.first {
                return Err(corrupt(
                    "merge: posting blocks out of order or past the node rows".into(),
                ));
            }
            if !self.keeps_any(skip.first..end) {
                continue;
            }
            block.clear();
            reader.decode_block(i, block)?;
            for &row in block.iter() {
                if prev.is_some_and(|p| p >= row) || row >= row_count {
                    let what =
                        format!("merge: posting row {row} out of order or past the node rows");
                    return Err(corrupt(what));
                }
                prev = Some(row);
                while self.kept_docs.get(doc).is_some_and(|(rows, _)| rows.end <= row) {
                    doc += 1;
                }
                if let Some((rows, out)) =
                    self.kept_docs.get(doc).filter(|(rows, _)| rows.contains(&row))
                {
                    self.kept.push(out + (row - rows.start));
                }
            }
        }
        Ok(())
    }
}

/// Moves the holders' kept rows into `list` in order. Each source's rows
/// are sorted and no two sources share an output document, so a k-way
/// merge moves, at each step, the lowest source's rows below every other
/// source's head: at least one document's run at a time.
fn join_by_document(sources: &mut [Source<'_>], holders: &[usize], list: &mut Vec<u32>) {
    let mut filled = holders.iter().filter(|&&s| !sources[s].kept.is_empty());
    if let (Some(&only), None) = (filled.next(), filled.next()) {
        std::mem::swap(list, &mut sources[only].kept);
        return;
    }
    loop {
        // The source with the lowest head row, and the lowest other head.
        let mut next: Option<(usize, u32)> = None;
        let mut bound = u32::MAX;
        for &s in holders {
            let source = &sources[s];
            let Some(&head) = source.kept.get(source.taken) else {
                continue;
            };
            match next {
                Some((_, low)) if low <= head => bound = bound.min(head),
                _ => {
                    bound = next.map_or(bound, |(_, low)| bound.min(low));
                    next = Some((s, head));
                }
            }
        }
        let Some((s, _)) = next else { break };
        let source = &mut sources[s];
        let rest = &source.kept[source.taken..];
        let run = rest.partition_point(|&row| row < bound).max(1);
        list.extend_from_slice(&rest[..run]);
        source.taken += run;
    }
}

/// An index file opened for [`GksIndex::merge`]: the sections a merge
/// reads, at a fraction of an open index's heap. The node rows stay encoded
/// in the map, read in order by [`NodeRows`], and nothing is linked — so
/// there is no parent column and no child index.
pub(crate) struct MergeSource {
    pub(crate) options: IndexOptions,
    pub(crate) doc_names: Vec<String>,
    pub(crate) doc_bytes: Vec<u64>,
    pub(crate) labels: Vec<String>,
    /// The attribute tables (paths, values, norms), no entity recorded.
    pub(crate) attrs: AttrStore,
    /// Entities in recording order: node row, label and the range of
    /// `entity_entries` holding its entries.
    pub(crate) entities: Vec<(u32, u32, Range<usize>)>,
    pub(crate) entity_entries: Vec<AttrIds>,
    pub(crate) inverted: PostingStore,
    map: Arc<Mmap>,
    /// The node section's row count.
    pub(crate) row_count: usize,
    /// Where the node section's rows lie in `map`.
    rows: Range<usize>,
}

impl MergeSource {
    /// Maps and validates the index file at `path` as [`GksIndex::load`]
    /// does, decoding only what a merge reads up front.
    pub(crate) fn open(path: &Path) -> Result<MergeSource, IndexError> {
        let map = Arc::new(Mmap::open(path).map_err(IndexError::Io)?);
        let bytes = map.as_slice();
        let Frame { options, offsets, term_count, footer_off, .. } = read_frame(bytes)?;
        let [doc_off, lab_off, node_off, attr_off, stat_off, dict_off, offs_off, post_off] =
            offsets.map(|o| o as usize);
        let (doc_names, doc_bytes) = read_doc_names(&mut &bytes[doc_off..lab_off])?;
        let labels = read_labels(&mut &bytes[lab_off..node_off])?.labels().names().to_vec();
        let mut nodes = &bytes[node_off..attr_off];
        let row_count = read_varint(&mut nodes)? as usize;
        let rows = attr_off - nodes.len()..attr_off;
        let mut input = &bytes[attr_off..stat_off];
        let attrs = read_attr_tables(&mut input, labels.len())?;
        let count = read_varint(&mut input)? as usize;
        let mut entities = Vec::with_capacity(count.min(input.len() / 4));
        let mut entity_entries = Vec::new();
        read_entities(&mut input, count, labels.len(), row_count, |row, label, entries| {
            let start = entity_entries.len();
            entity_entries.extend_from_slice(entries);
            entities.push((row, label, start..entity_entries.len()));
            Ok(())
        })?;
        let stats = read_stats(&mut &bytes[stat_off..dict_off])?;
        let tier = Tier { dict: dict_off, offs: offs_off, post: post_off, end: footer_off };
        let inverted = PostingStore::open(Arc::clone(&map), tier, term_count, &stats)?;
        Ok(MergeSource {
            options,
            doc_names,
            doc_bytes,
            labels,
            attrs,
            entities,
            entity_entries,
            inverted,
            map,
            row_count,
            rows,
        })
    }

    /// A cursor over the node rows, in order.
    pub(crate) fn rows(&self) -> NodeRows<'_> {
        NodeRows {
            input: &self.map.as_slice()[self.rows.clone()],
            label_count: self.labels.len(),
            row: 0,
            roots: 0,
        }
    }
}

/// The node rows of a [`MergeSource`], read forward as `(depth, meta)`. A
/// document's rows run from its root, the `k`-th depth-0 row for document
/// `k`, to the next root.
pub(crate) struct NodeRows<'a> {
    input: &'a [u8],
    label_count: usize,
    /// Rows read so far, and the roots among them.
    row: u32,
    roots: u32,
}

impl NodeRows<'_> {
    /// Hands each row of document `doc` to `visit` as its depth and
    /// metadata, in order, and returns the document's source rows. Rows of
    /// earlier documents are read past, and the cursor stops at the next
    /// document's root. A document without rows, or rows before the first
    /// root, are [`IndexError::Corrupt`].
    pub(crate) fn copy_doc(
        &mut self,
        doc: u32,
        mut visit: impl FnMut(u32, NodeMeta) -> Result<(), IndexError>,
    ) -> Result<Range<u32>, IndexError> {
        let mut first = None;
        while !self.input.is_empty() {
            let mut rest = self.input;
            let (depth, meta) = read_row(&mut rest, self.label_count)?;
            if depth == 0 {
                if self.roots > doc {
                    break;
                }
                self.roots += 1;
            } else if self.roots == 0 {
                return Err(corrupt("merge: a node row before the first root".into()));
            }
            self.input = rest;
            if self.roots == doc + 1 {
                first.get_or_insert(self.row);
                visit(depth, meta)?;
            }
            self.row += 1;
        }
        let first = first.ok_or_else(|| corrupt(format!("merge: document {doc} has no rows")))?;
        Ok(first..self.row)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus::Corpus;

    /// A source whose entities are not recorded document by document is
    /// refused, whether the document whose entities come late is followed
    /// by a copied document or not.
    #[test]
    fn a_source_with_entities_out_of_document_order_is_refused() {
        let xml = "<dblp><article><title>System R</title><author>Jim Gray</author>\
            <author>Kapali Eswaran</author></article></dblp>";
        let corpus = Corpus::from_named_strs([("a", xml), ("b", xml)]).unwrap();
        let mut ix = GksIndex::build(&corpus, IndexOptions::default()).unwrap();
        let store = ix.attr_store();
        let mut reversed = AttrStore::new();
        for path in store.paths() {
            reversed.load_path(path.clone());
        }
        for norm in store.norms() {
            reversed.load_norm(norm);
        }
        for (raw, norm) in store.values() {
            reversed.load_value(raw, u64::from(norm)).unwrap();
        }
        let mut entities: Vec<_> = store.iter().collect();
        assert_eq!(entities.len(), 2, "one entity per document");
        entities.reverse();
        for (row, entries) in entities {
            reversed.insert(row, entries.label(), entries.ids()).unwrap();
        }
        *ix.attrs_mut() = reversed;
        let dir = std::env::temp_dir().join(format!("gks-merge-order-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("reversed.gksix");
        ix.save(&path).unwrap();
        let source = MergeSource::open(&path).unwrap();
        for docs in [&[(0, 0), (0, 1)][..], &[(0, 0)]] {
            match GksIndex::merge(&[&source], docs) {
                Err(IndexError::Corrupt(message)) => {
                    assert!(message.contains("after a later document's"), "{message}")
                }
                other => panic!("{docs:?}: expected Corrupt, got {other:?}"),
            }
        }
        assert!(GksIndex::merge(&[&source], &[(0, 1)]).is_ok(), "document b alone is in order");
        std::fs::remove_dir_all(&dir).ok();
    }
}
