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
//! * **rows** in pre-order, interning labels as the build does at each
//!   element start, and counting the census as the build does at each close;
//! * **entities** in the source's recording order for that document (the
//!   order the build's closes recorded them), interning each entry's path
//!   and value the first time the walk meets it, with the source's norm
//!   rather than a fresh analysis;
//! * **postings** term by term in dictionary order, each source's run read
//!   straight off its bytes, blocks of dropped documents skipped, and the
//!   list encoded by the build's own tier encoder.
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
use gks_dewey::codec::{read_varint, BlockedRunReader};
use gks_dewey::{DeweyId, DocId, Step};

use crate::attrstore::{AttrIds, AttrStore};
use crate::builder::GksIndex;
use crate::error::IndexError;
use crate::node_table::{NodeMeta, NodeTable};
use crate::options::IndexOptions;
use crate::persist::{
    read_attr_tables, read_doc_names, read_entities, read_frame, read_labels, read_meta,
    read_stats, split_node_run, Frame,
};
use crate::postings::{EncodedTier, PostingStore, Tier};
use crate::stats::{CategoryCensus, IndexStats};

/// Marks a source id with no output id yet (labels, paths, values) or a
/// source document the merge drops.
const UNSEEN: u32 = u32::MAX;

/// One source as the merge reads it.
struct Source<'a> {
    src: &'a MergeSource,
    rows: NodeRows<'a>,
    /// Local document → output document, [`UNSEEN`] when dropped.
    out_doc: Vec<u32>,
    /// `live_before[d]`: kept documents among locals `0..d`, so a block
    /// covering documents `a..=b` keeps nothing when the two counts match.
    live_before: Vec<u32>,
    /// Indexes of the source's entities sorted by document, in recording
    /// order within one.
    entities: Vec<usize>,
    labels: Vec<u32>,
    paths: Vec<u32>,
    values: Vec<u32>,
    /// Next dictionary slot of the posting merge.
    term: usize,
    /// The current term's kept postings, renumbered, and how many of them
    /// the join has taken.
    kept: Vec<DeweyId>,
    taken: usize,
}

impl<'a> Source<'a> {
    fn new(src: &'a MergeSource) -> Result<Source<'a>, IndexError> {
        Ok(Source {
            src,
            rows: src.rows()?,
            out_doc: vec![UNSEEN; src.doc_names.len()],
            live_before: Vec::new(),
            entities: Vec::new(),
            labels: vec![UNSEEN; src.labels.len()],
            paths: vec![UNSEEN; src.attrs.paths().len()],
            values: vec![UNSEEN; src.attrs.values().len()],
            term: 0,
            kept: Vec::new(),
            taken: 0,
        })
    }

    /// Readies a source that contributes documents: its block-skip counts
    /// and its entities grouped by document.
    fn prepare(&mut self) {
        let mut live = 0u32;
        self.live_before = std::iter::once(0)
            .chain(self.out_doc.iter().map(|&d| {
                live += u32::from(d != UNSEEN);
                live
            }))
            .collect();
        let entities = &self.src.entities;
        self.entities = (0..entities.len()).collect();
        // Stable: recording order survives within each document.
        self.entities.sort_by_key(|&i| entities[i].0.doc());
    }

    /// True when no document in `first..=last` is kept.
    fn all_dropped(&self, first: DocId, last: DocId) -> bool {
        let at = |doc: u32| self.live_before.get(doc as usize).copied();
        match (at(first.0), at(last.0.saturating_add(1))) {
            (Some(a), Some(b)) => a == b,
            _ => false,
        }
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
    /// Entities in recording order — id, label and their range of
    /// `entity_entries` — recorded once the rows are linked.
    entities: Vec<(DeweyId, u32, Range<usize>)>,
    entity_entries: Vec<AttrIds>,
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

impl Output {
    /// The output label of `source`'s label `label`, interned on first use.
    fn label(&mut self, source: &mut Source<'_>, label: u32) -> Result<u32, IndexError> {
        remap_label(&mut self.node_table, &mut source.labels, &source.src.labels, label)
    }

    /// Appends document `local` of `source` as output document `doc`: its
    /// name and length, its rows, and its entities.
    fn push_document(
        &mut self,
        source: &mut Source<'_>,
        local: u32,
        doc: DocId,
    ) -> Result<(), IndexError> {
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
        source.rows.copy_doc(DocId(local), |steps, meta| {
            let label = remap_label(&mut self.node_table, labels, names, meta.label)?;
            self.stats.max_depth = self.stats.max_depth.max(steps.len() as u32);
            let id = DeweyId::from_slice(doc, steps);
            self.node_table.push_row(id, NodeMeta { label, ..meta })?;
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

        let entities = &src.entities;
        let lo = source.entities.partition_point(|&i| entities[i].0.doc() < DocId(local));
        let hi = source.entities.partition_point(|&i| entities[i].0.doc() <= DocId(local));
        let mut path = Vec::new();
        for k in lo..hi {
            let (id, label, range) = &entities[source.entities[k]];
            let start = self.entity_entries.len();
            for e in &src.entity_entries[range.clone()] {
                let entry = AttrIds {
                    path: self.path(source, e.path, &mut path)?,
                    value: self.value(source, e.value)?,
                    source: e.source,
                };
                self.entity_entries.push(entry);
            }
            let label = self.label(source, *label)?;
            let id = DeweyId::from_slice(doc, id.steps());
            self.entities.push((id, label, start..self.entity_entries.len()));
        }
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
        let mut sources =
            sources.iter().map(|src| Source::new(src)).collect::<Result<Vec<_>, _>>()?;
        for (i, &(s, local)) in docs.iter().enumerate() {
            let source = sources
                .get_mut(s)
                .ok_or_else(|| corrupt(format!("merge: source {s} does not exist")))?;
            let count = source.out_doc.len();
            let slot = source.out_doc.get_mut(local as usize).ok_or_else(|| {
                corrupt(format!("merge: document {local} is past source {s}'s {count}"))
            })?;
            *slot = u32::try_from(i)
                .map_err(|_| corrupt("merge: more documents than the u32 id space".into()))?;
        }
        let mut used = vec![0usize; sources.len()];
        for &(s, _) in docs {
            used[s] += 1;
        }
        // About as many rows as the kept share of each source's documents.
        let mut rows = 0;
        for (source, &kept) in sources.iter_mut().zip(&used).filter(|(_, &kept)| kept > 0) {
            source.prepare();
            rows += source.src.row_count * kept / source.out_doc.len().max(1);
        }

        let mut out = Output::default();
        out.node_table.reserve(rows);
        for (i, &(s, local)) in docs.iter().enumerate() {
            out.push_document(&mut sources[s], local, DocId(i as u32))?;
        }
        let Output {
            mut node_table,
            mut attrs,
            mut stats,
            label_census,
            doc_names,
            doc_bytes,
            entities,
            entity_entries,
            ..
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
        let inverted = merge_postings(&mut active)?.open(&mut stats)?;
        node_table.link(doc_names.len())?;
        for (id, label, range) in entities {
            let row = node_table
                .row(&id)
                .ok_or_else(|| corrupt(format!("merge: attr entity {id} is not a node")))?;
            attrs.insert(row, label, &entity_entries[range])?;
        }
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
/// term, every source's surviving postings renumbered into output
/// documents, in document order. A term no kept document holds is dropped.
fn merge_postings(sources: &mut [Source<'_>]) -> Result<EncodedTier, IndexError> {
    let mut tier = EncodedTier::default();
    let mut list: Vec<DeweyId> = Vec::new();
    let mut holders: Vec<usize> = Vec::new();
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
            sources[s].take_term()?;
        }
        list.clear();
        join_by_document(sources, &holders, &mut list);
        if list.is_empty() {
            continue;
        }
        if !list.windows(2).all(|w| w[0] < w[1]) {
            return Err(IndexError::Invariant("merged posting list is not strictly increasing"));
        }
        tier.push(&term, &list)?;
    }
    Ok(tier)
}

impl Source<'_> {
    /// Reads the current term's run into `kept` — the postings of kept
    /// documents, renumbered, every block of dropped documents skipped —
    /// and moves on to the next term.
    fn take_term(&mut self) -> Result<(), IndexError> {
        let src = self.src;
        let reader = src.inverted.run_reader(self.term)?;
        self.term += 1;
        self.kept.clear();
        self.taken = 0;
        let mut unknown = None;
        for (i, skip) in reader.skip_entries().iter().enumerate() {
            if self.all_dropped(skip.first.doc(), skip.last_doc) {
                continue;
            }
            let (out_doc, kept) = (&self.out_doc, &mut self.kept);
            reader.for_each_in_block(i, |doc, steps| match out_doc.get(doc.0 as usize) {
                Some(&out) if out != UNSEEN => kept.push(DeweyId::from_slice(DocId(out), steps)),
                Some(_) => {}
                None => unknown = Some(doc),
            })?;
        }
        match unknown {
            Some(doc) => Err(corrupt(format!("merge: posting in unknown document {doc}"))),
            None => Ok(()),
        }
    }
}

/// Moves the holders' kept postings into `list` in document order. Each
/// source's postings are in document order and no two sources share an
/// output document, so a k-way merge on the head documents moves one
/// document's run at a time; the caller checks the order it produced.
fn join_by_document(sources: &mut [Source<'_>], holders: &[usize], list: &mut Vec<DeweyId>) {
    let mut filled = holders.iter().filter(|&&s| !sources[s].kept.is_empty());
    if let (Some(&only), None) = (filled.next(), filled.next()) {
        std::mem::swap(list, &mut sources[only].kept);
        return;
    }
    loop {
        let mut next: Option<(usize, DocId)> = None;
        for &s in holders {
            let source = &sources[s];
            let Some(head) = source.kept.get(source.taken).map(DeweyId::doc) else {
                continue;
            };
            match next {
                Some((_, doc)) if doc <= head => {}
                _ => next = Some((s, head)),
            }
        }
        let Some((s, doc)) = next else { break };
        let source = &mut sources[s];
        let rest = &source.kept[source.taken..];
        let run = rest.partition_point(|id| id.doc() <= doc).max(1);
        list.extend_from_slice(&rest[..run]);
        source.taken += run;
    }
}

/// An index file opened for [`GksIndex::merge`]: the sections a merge
/// reads, at a fraction of an open index's heap. The node rows stay encoded
/// in the map, read in order by [`NodeRows`], and the attribute entities
/// keep their Dewey ids instead of being resolved to rows — so there is no
/// decoded node table and no child index.
pub(crate) struct MergeSource {
    pub(crate) options: IndexOptions,
    pub(crate) doc_names: Vec<String>,
    pub(crate) doc_bytes: Vec<u64>,
    pub(crate) labels: Vec<String>,
    /// The attribute tables (paths, values, norms), no entity recorded.
    pub(crate) attrs: AttrStore,
    /// Entities in recording order: id, label and the range of
    /// `entity_entries` holding its entries.
    pub(crate) entities: Vec<(DeweyId, u32, Range<usize>)>,
    pub(crate) entity_entries: Vec<AttrIds>,
    pub(crate) inverted: PostingStore,
    map: Arc<Mmap>,
    /// The node section's row count.
    pub(crate) row_count: usize,
    /// Where the node section's blocked id run and the metadata rows after
    /// it lie in `map`.
    run: Range<usize>,
    metas: Range<usize>,
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
        let (run, row_count) = split_node_run(&mut nodes)?;
        // The metadata rows end the section and the run sits before them.
        let metas = attr_off - nodes.len()..attr_off;
        let run = metas.start - run.len()..metas.start;
        let mut input = &bytes[attr_off..stat_off];
        let attrs = read_attr_tables(&mut input, labels.len())?;
        let count = read_varint(&mut input)? as usize;
        let mut entities = Vec::with_capacity(count.min(input.len() / 4));
        let mut entity_entries = Vec::new();
        read_entities(&mut input, count, labels.len(), |entity, label, entries| {
            let start = entity_entries.len();
            entity_entries.extend_from_slice(entries);
            entities.push((entity, label, start..entity_entries.len()));
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
            run,
            metas,
        })
    }

    /// A cursor over the node rows, in order.
    pub(crate) fn rows(&self) -> Result<NodeRows<'_>, IndexError> {
        let bytes = self.map.as_slice();
        let mut run = &bytes[self.run.clone()];
        Ok(NodeRows {
            run: BlockedRunReader::parse(&mut run, self.row_count)?,
            metas: &bytes[self.metas.clone()],
            label_count: self.labels.len(),
            block: 0,
            docs: Vec::new(),
            steps: Vec::new(),
            ends: Vec::new(),
            at: 0,
        })
    }
}

/// The node rows of a [`MergeSource`], read forward a block at a time.
pub(crate) struct NodeRows<'a> {
    run: BlockedRunReader<'a>,
    metas: &'a [u8],
    label_count: usize,
    /// Next block of the run to decode.
    block: usize,
    /// The decoded block — each row's document, and its steps as the end
    /// of its span of `steps` — and the next row in it.
    docs: Vec<DocId>,
    steps: Vec<Step>,
    ends: Vec<usize>,
    at: usize,
}

impl NodeRows<'_> {
    /// Hands each row of document `doc` to `visit` as its steps and
    /// metadata, in order. Rows of earlier documents are passed over —
    /// whole blocks of them without decoding their ids — and the cursor
    /// stops at the first row of a later one.
    pub(crate) fn copy_doc(
        &mut self,
        doc: DocId,
        mut visit: impl FnMut(&[Step], NodeMeta) -> Result<(), IndexError>,
    ) -> Result<(), IndexError> {
        loop {
            if self.at == self.docs.len() && !self.fill(doc)? {
                return Ok(());
            }
            let at_doc = self.docs[self.at];
            if at_doc > doc {
                return Ok(());
            }
            let meta = read_meta(&mut self.metas, self.label_count)?;
            let start = self.at.checked_sub(1).map_or(0, |prev| self.ends[prev]);
            let steps = &self.steps[start..self.ends[self.at]];
            self.at += 1;
            if at_doc == doc {
                visit(steps, meta)?;
            }
        }
    }

    /// Decodes the next block that is not wholly before `doc`, reading past
    /// the metadata of the blocks it skips. False past the last block.
    fn fill(&mut self, doc: DocId) -> Result<bool, IndexError> {
        while let Some(skip) = self.run.skip_entries().get(self.block) {
            self.block += 1;
            if skip.last_doc < doc {
                for _ in 0..skip.count {
                    read_meta(&mut self.metas, self.label_count)?;
                }
                continue;
            }
            let (docs, steps, ends) = (&mut self.docs, &mut self.steps, &mut self.ends);
            docs.clear();
            steps.clear();
            ends.clear();
            self.at = 0;
            self.run.for_each_in_block(self.block - 1, |doc, row| {
                docs.push(doc);
                steps.extend_from_slice(row);
                ends.push(steps.len());
            })?;
            return Ok(true);
        }
        Ok(false)
    }
}
