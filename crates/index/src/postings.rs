//! The inverted keyword index (paper §2.4, Table 3).
//!
//! "For each unique text keyword that appears in the XML document repository,
//! we keep an inverted index list … containing the Dewey id of all the nodes
//! which contain that keyword", document-ordered. Postings point at the
//! *text element itself* (for keywords in text values) or the element (for
//! tag-name keywords); the §2.1.1 rule that an attribute node's parent is the
//! lowest meaningful ancestor is applied at candidate-generation time by the
//! search engine, which promotes attribute-node candidates to their parents.
//!
//! A list here holds each node's node-table row, its pre-order ordinal,
//! rather than its Dewey id: pre-order is Dewey order, so a sorted row list
//! is the paper's list, and the row is the form the build produces and the
//! search engine runs on. A Dewey id is read off the node table only where
//! one is handed out.
//!
//! There is one store, [`PostingStore`]: a sorted term dictionary, a
//! fixed-width offset table and the row runs ([`crate::row_run`]: LEB128
//! row gaps in 128-posting blocks), laid out as in a `.gksix` file. An
//! opened index reads that tier off its mapped file; a built one off an
//! owned buffer the builder's [`InvertedIndex`] accumulator encoded. Either
//! way a run stays encoded until a query first touches its term.
//!
//! A term's slot holds its rows once they are first fetched
//! (`GksIndex::try_rows`): the fetch decodes the gaps, checks that the rows
//! strictly increase and stay below the node count, and caches them; later
//! fetches borrow them. The same slot holds the term's Dewey ids only for
//! the adapters that hand out ids ([`PostingView`]: `postings`,
//! `try_postings`, `iter`), which build them from the rows.

use std::sync::{Arc, OnceLock};

use bytes::{Buf, BufMut, Mmap};
use gks_dewey::codec::{read_varint, write_varint, DecodeError};
use gks_dewey::DeweyId;
use gks_text::{tokenize_into, Analyzer};

use crate::error::IndexError;
use crate::fasthash::FastMap;
use crate::node_table::NodeTable;
use crate::row_run::{encode_row_run, RowRunReader};
use crate::stats::IndexStats;

/// Build-time accumulator of posting lists, by interned term. It does not
/// outlive the build: [`Self::finish`] turns it into an [`EncodedTier`].
///
/// A posting is a node's pre-order ordinal, a `u32`, which is the node's
/// row in the node table and what the file stores: pre-order is Dewey
/// order, so the lists sort and dedup as integers.
///
/// Analysis is memoised here too. An element name is normalized once per
/// label and a token is analysed once per distinct token, so the memos grow
/// with the vocabulary, as the term dictionary does, not with the corpus.
#[derive(Debug, Default)]
pub(crate) struct InvertedIndex {
    term_ids: FastMap<String, u32>,
    terms: Vec<String>,
    lists: Vec<Vec<u32>>,
    /// Element-name term per label id: `None` until the label's first
    /// node, then the term of its normalized local name, if it has one.
    label_terms: Vec<Option<Option<u32>>>,
    /// Token (as [`tokenize_into`] yields it) → term of its analysed form,
    /// `None` for a token the analyzer drops.
    token_terms: FastMap<Box<str>, Option<u32>>,
}

impl InvertedIndex {
    /// Interns `term` and returns its id.
    pub(crate) fn term_id(&mut self, term: &str) -> u32 {
        if let Some(&id) = self.term_ids.get(term) {
            return id;
        }
        let id = self.terms.len() as u32;
        self.terms.push(term.to_string());
        self.term_ids.insert(term.to_string(), id);
        self.lists.push(Vec::new());
        id
    }

    /// Appends a posting for `term_id` at node ordinal `ord`. Postings may
    /// arrive out of order and with duplicates; [`Self::finish`] sorts and
    /// dedups.
    pub(crate) fn push(&mut self, term_id: u32, ord: u32) {
        self.lists[term_id as usize].push(ord);
    }

    /// Posts the element-name term of label `label`, named `name`, at node
    /// `ord`. Namespace-prefixed names ("dblp:author") index by their local
    /// part.
    pub(crate) fn post_label(&mut self, label: u32, name: &str, ord: u32, analyzer: &Analyzer) {
        let slot = label as usize;
        if slot >= self.label_terms.len() {
            self.label_terms.resize(slot + 1, None);
        }
        let term = match self.label_terms[slot] {
            Some(term) => term,
            None => {
                let local = name.rsplit(':').next().unwrap_or(name);
                let term = analyzer.normalize_term(local).map(|t| self.term_id(&t));
                self.label_terms[slot] = Some(term);
                term
            }
        };
        if let Some(tid) = term {
            self.push(tid, ord);
        }
    }

    /// Posts every analysed term of `text` at node `ord`.
    pub(crate) fn post_text(&mut self, text: &str, ord: u32, analyzer: &Analyzer) {
        tokenize_into(text, |tok| {
            if let Some(tid) = self.token_term(tok, analyzer) {
                self.push(tid, ord);
            }
        });
    }

    fn token_term(&mut self, tok: &str, analyzer: &Analyzer) -> Option<u32> {
        if let Some(&term) = self.token_terms.get(tok) {
            return term;
        }
        let term = analyzer.analyze_token(tok).map(|t| self.term_id(&t));
        self.token_terms.insert(tok.into(), term);
        term
    }

    /// The analysed terms of `text`, space-joined: what
    /// `analyzer.analyze(text).join(" ")` returns, read off the token memo
    /// where it can be.
    pub(crate) fn norm(&self, text: &str, analyzer: &Analyzer) -> String {
        let mut norm = String::new();
        tokenize_into(text, |tok| {
            let analysed;
            let term = match self.token_terms.get(tok) {
                Some(term) => term.map(|tid| self.terms[tid as usize].as_str()),
                None => {
                    analysed = analyzer.analyze_token(tok);
                    analysed.as_deref()
                }
            };
            if let Some(term) = term {
                if !norm.is_empty() {
                    norm.push(' ');
                }
                norm.push_str(term);
            }
        });
        norm
    }

    /// Sorts every list into document order, removes duplicate postings (a
    /// node contains a keyword once no matter how many times the keyword
    /// occurs in one text value) and encodes the lists, in term-byte order,
    /// as one posting tier. `depths` holds the depth of every row pushed to
    /// the node table. Each list is freed as soon as it is encoded.
    ///
    /// Errors on an ordinal past `depths`, or if the term dictionary
    /// outgrows the fixed-width `u32` offset table (4GiB of term records —
    /// far past any real corpus).
    pub(crate) fn finish(self, depths: &[u32]) -> Result<EncodedTier, IndexError> {
        let InvertedIndex { terms, mut lists, .. } = self;
        let mut order: Vec<usize> = (0..terms.len()).collect();
        order.sort_unstable_by(|&a, &b| terms[a].as_bytes().cmp(terms[b].as_bytes()));
        let mut tier = EncodedTier::default();
        for i in order {
            let mut list = std::mem::take(&mut lists[i]);
            list.sort_unstable();
            list.dedup();
            tier.push(&terms[i], &list, depths)?;
        }
        Ok(tier)
    }
}

/// Heap bytes one decoded posting list holds: the id records plus whatever
/// each id spills ([`DeweyId::heap_bytes`] — nothing for an inline path).
fn list_bytes(list: &[DeweyId]) -> u64 {
    let spilled: usize = list.iter().map(DeweyId::heap_bytes).sum();
    (std::mem::size_of_val(list) + spilled) as u64
}

/// One term's decoded postings. Each form is filled on its first fetch and
/// kept; a fetch that fails fills nothing.
#[derive(Debug, Default)]
struct Slot {
    /// The postings as node-table rows, the search engine's form.
    rows: OnceLock<Box<[u32]>>,
    /// The postings as Dewey ids, built from the rows only for the adapters
    /// that hand out ids.
    ids: OnceLock<Box<[DeweyId]>>,
}

impl Slot {
    fn is_decoded(&self) -> bool {
        self.rows.get().is_some()
    }

    /// Heap bytes of both forms: 4 B a posting for the rows, the records
    /// and spills for the ids.
    fn resident_bytes(&self) -> u64 {
        let rows = self.rows.get().map_or(0, |rows| std::mem::size_of_val(&**rows) as u64);
        rows + self.ids.get().map_or(0, |ids| list_bytes(ids))
    }
}

/// Where a posting tier sits in its backing bytes: term records in
/// `dict..offs`, the `u32` record-offset table in `offs..post`, the row
/// runs in `post..end`. Everything inside is relative to `dict` (record
/// offsets) or `post` (run starts), so a tier can be copied anywhere.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Tier {
    pub dict: usize,
    pub offs: usize,
    pub post: usize,
    pub end: usize,
}

/// A posting tier being encoded: the three regions, still apart.
///
/// The dictionary is sorted by term bytes and the runs are packed tightly
/// in dictionary order. Each record stores only the term, the run's start
/// offset, and its posting count: the run's byte length is the gap to the
/// next record's start (or the region end), and the run itself carries no
/// framing of its own.
#[derive(Debug, Default)]
pub(crate) struct EncodedTier {
    dict: Vec<u8>,
    rec_offsets: Vec<u32>,
    runs: Vec<u8>,
    postings: u64,
    depth_sum: u64,
}

impl EncodedTier {
    /// Encodes the next term's rows (the caller brings terms in byte
    /// order). `depths` holds the depth of every row of the index being
    /// made; a row past it, or rows that do not strictly increase, are an
    /// [`IndexError::Invariant`].
    pub(crate) fn push(
        &mut self,
        term: &str,
        rows: &[u32],
        depths: &[u32],
    ) -> Result<(), IndexError> {
        let mut depth_sum = 0u64;
        for (k, &row) in rows.iter().enumerate() {
            if k > 0 && rows[k - 1] >= row {
                return Err(IndexError::Invariant("posting rows not strictly increasing"));
            }
            let depth = depths.get(row as usize).ok_or(IndexError::Invariant("unknown ordinal"))?;
            depth_sum += u64::from(*depth);
        }
        self.depth_sum += depth_sum;
        self.push_run(term, rows)
    }

    /// Encodes `rows` as the next term's run, unchecked.
    fn push_run(&mut self, term: &str, rows: &[u32]) -> Result<(), IndexError> {
        let rec = u32::try_from(self.dict.len())
            .map_err(|_| IndexError::Invariant("term dictionary exceeds 4GiB"))?;
        self.rec_offsets.push(rec);
        write_varint(&mut self.dict, term.len() as u64);
        self.dict.put_slice(term.as_bytes());
        write_varint(&mut self.dict, self.runs.len() as u64);
        write_varint(&mut self.dict, rows.len() as u64);
        encode_row_run(rows, &mut self.runs);
        self.postings += rows.len() as u64;
        Ok(())
    }

    /// Joins the regions into one owned `dict ‖ offsets ‖ runs` buffer,
    /// records the tier's totals in `stats` and opens it through the parser
    /// every opened file goes through.
    pub(crate) fn open(self, stats: &mut IndexStats) -> Result<PostingStore, IndexError> {
        let EncodedTier { dict: mut bytes, rec_offsets, runs, postings, depth_sum } = self;
        let offs = bytes.len();
        bytes.reserve_exact(rec_offsets.len() * 4 + runs.len());
        for rec in &rec_offsets {
            bytes.put_u32(*rec);
        }
        let post = bytes.len();
        bytes.put_slice(&runs);
        let tier = Tier { dict: 0, offs, post, end: bytes.len() };
        stats.distinct_terms = rec_offsets.len() as u64;
        stats.total_postings = postings;
        stats.posting_depth_sum = depth_sum;
        PostingStore::open(Arc::new(Mmap::from(bytes)), tier, stats.distinct_terms, stats)
    }
}

/// One term's dictionary record: byte ranges into the backing bytes plus the
/// posting count.
#[derive(Debug, Clone)]
struct TermEntry {
    /// Absolute byte range of the UTF-8 term.
    term_start: usize,
    term_len: usize,
    /// Absolute byte range of the term's row run.
    post_start: usize,
    post_len: usize,
    /// Posting count, known without decoding the run.
    count: usize,
}

/// The posting lists of an index, built or opened: a validated term
/// dictionary over lazily-decoded row runs.
///
/// The dictionary lives as byte ranges into the backing bytes — the mapped
/// index file, or the buffer a build encoded; each posting list stays
/// encoded until its term is first fetched, which decodes its row run
/// into the term's slot. Making an index therefore never touches posting
/// blocks, and a shard only pays decode cost (and heap residency) for the
/// terms queries actually hit. The engine borrows a term's rows from its
/// slot (`GksIndex::try_rows`) and masks tombstoned documents on them, so
/// the store has no mask.
pub struct PostingStore {
    map: Arc<Mmap>,
    tier: Tier,
    /// Dictionary records, sorted by term bytes for binary search.
    terms: Vec<TermEntry>,
    /// Decoded postings, one slot per term, filled on first access.
    slots: Vec<Slot>,
}

impl std::fmt::Debug for PostingStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "PostingStore({} terms, {} decoded, {} tier bytes)",
            self.terms.len(),
            self.decoded_terms(),
            self.tier.end - self.tier.dict
        )
    }
}

impl PostingStore {
    /// Parses and validates the term dictionary of the tier at `tier` in
    /// `map` — the one way a store is made, for an opened file and for the
    /// buffer a build just encoded alike. `tier` must be ordered and lie
    /// within `map` ([`crate::persist`] checks a file's footer before it
    /// trusts the offsets). No posting run is read: each run's byte length
    /// is the gap to the next record's run start, the last run ending at the
    /// tier's end.
    pub(crate) fn open(
        map: Arc<Mmap>,
        tier: Tier,
        term_count: u64,
        stats: &IndexStats,
    ) -> Result<PostingStore, IndexError> {
        let bytes = map.as_slice();
        let term_count = term_count as usize;
        if term_count.checked_mul(4) != Some(tier.post - tier.offs) {
            return Err(IndexError::Corrupt("term offset table length mismatch".into()));
        }
        if stats.distinct_terms != term_count as u64 {
            return Err(IndexError::Corrupt("term count disagrees with stats".into()));
        }
        let dict = &bytes[tier.dict..tier.offs];
        let post_section_len = tier.end - tier.post;
        let mut offs_cur = &bytes[tier.offs..tier.post];
        let mut terms: Vec<TermEntry> = Vec::with_capacity(term_count.min(1 << 20));
        let mut total: u64 = 0;
        let mut prev_term: &[u8] = &[];
        for _ in 0..term_count {
            let rec_off = offs_cur.get_u32() as usize;
            if rec_off >= dict.len() {
                return Err(IndexError::Corrupt("term record offset out of range".into()));
            }
            let mut cur = &dict[rec_off..];
            let before = cur.len();
            let term_len = read_varint(&mut cur)? as usize;
            let len_bytes = before - cur.len();
            if cur.len() < term_len {
                return Err(IndexError::Corrupt("truncated term".into()));
            }
            let term_bytes = &cur[..term_len];
            if std::str::from_utf8(term_bytes).is_err() {
                return Err(IndexError::Corrupt("invalid UTF-8 in term".into()));
            }
            if !terms.is_empty() && prev_term >= term_bytes {
                return Err(IndexError::Corrupt("term dictionary not sorted".into()));
            }
            prev_term = term_bytes;
            cur = &cur[term_len..];
            let run_start = read_varint(&mut cur)? as usize;
            let count = read_varint(&mut cur)? as usize;
            if run_start > post_section_len {
                return Err(IndexError::Corrupt("posting run out of range".into()));
            }
            if let Some(prev) = terms.last_mut() {
                let prev_start = prev.post_start - tier.post;
                if run_start < prev_start {
                    return Err(IndexError::Corrupt("posting runs out of order".into()));
                }
                prev.post_len = run_start - prev_start;
            } else if run_start != 0 {
                return Err(IndexError::Corrupt("first posting run not at offset 0".into()));
            }
            total += count as u64;
            terms.push(TermEntry {
                term_start: tier.dict + rec_off + len_bytes,
                term_len,
                post_start: tier.post + run_start,
                post_len: 0, // patched when the next record pins the run's end
                count,
            });
        }
        if let Some(last) = terms.last_mut() {
            last.post_len = tier.end - last.post_start;
        }
        if terms.iter().any(|t| (t.count == 0) != (t.post_len == 0)) {
            return Err(IndexError::Corrupt("empty run disagrees with its count".into()));
        }
        if total != stats.total_postings {
            return Err(IndexError::Corrupt("posting counts disagree with stats".into()));
        }
        let slots = terms.iter().map(|_| Slot::default()).collect();
        Ok(PostingStore { map, tier, terms, slots })
    }

    /// A store over exactly the row lists handed in — in term-byte order,
    /// but otherwise unchecked — for the corrupted-index fixtures. (Gaps
    /// wrap, so a falling list encodes too.)
    #[cfg(test)]
    pub(crate) fn from_raw_lists(lists: &[(String, Vec<u32>)]) -> Result<PostingStore, IndexError> {
        let mut tier = EncodedTier::default();
        for (term, rows) in lists {
            tier.push_run(term, rows)?;
        }
        tier.open(&mut IndexStats::default())
    }

    /// The encoded tier, `dict ‖ offsets ‖ runs`, and where the offset table
    /// and the runs start within it (persistence copies it verbatim).
    pub(crate) fn tier_bytes(&self) -> (&[u8], usize, usize) {
        let Tier { dict, offs, post, end } = self.tier;
        (&self.map.as_slice()[dict..end], offs - dict, post - dict)
    }

    fn term_bytes(&self, i: usize) -> &[u8] {
        let e = &self.terms[i];
        &self.map.as_slice()[e.term_start..e.term_start + e.term_len]
    }

    /// Term `i` of the dictionary, in sorted order.
    pub(crate) fn term_str(&self, i: usize) -> &str {
        // Term bytes were UTF-8 validated when the dictionary was parsed; a
        // stale map cannot change under MAP_PRIVATE.
        std::str::from_utf8(self.term_bytes(i)).unwrap_or("")
    }

    /// Binary search for a term's dictionary slot.
    fn lookup(&self, term: &str) -> Option<usize> {
        self.terms
            .binary_search_by(|e| {
                let bytes = &self.map.as_slice()[e.term_start..e.term_start + e.term_len];
                bytes.cmp(term.as_bytes())
            })
            .ok()
    }

    /// A reader over term `i`'s run, straight off the backing bytes. No
    /// slot is filled, so a caller that reads every run (a merge) leaves
    /// none of them resident.
    pub(crate) fn run_reader(&self, i: usize) -> Result<RowRunReader<'_>, DecodeError> {
        let e = &self.terms[i];
        RowRunReader::parse(&self.map.as_slice()[e.post_start..e.post_start + e.post_len], e.count)
    }

    /// The rows of term `i`'s postings, decoded and cached on first access.
    /// A run that fails to decode, or rows that do not strictly increase or
    /// reach past the `node_count` rows of the index's table, are
    /// [`IndexError::Corrupt`] naming the term, and cache nothing.
    fn rows_at(&self, i: usize, node_count: usize) -> Result<&[u32], IndexError> {
        let slot = &self.slots[i];
        if let Some(rows) = slot.rows.get() {
            return Ok(rows);
        }
        let mut rows = Vec::new();
        let term = || self.term_str(i);
        self.run_reader(i)
            .and_then(|run| run.decode_rows(&mut rows))
            .map_err(|e| IndexError::Corrupt(format!("the run of term {:?}: {e}", term())))?;
        if rows.windows(2).any(|w| w[0] >= w[1]) {
            let what = format!("the postings of term {:?} are not in document order", term());
            return Err(IndexError::Corrupt(what));
        }
        if rows.last().is_some_and(|&row| row as usize >= node_count) {
            return Err(IndexError::Corrupt(format!(
                "a posting of term {:?} names no node",
                term()
            )));
        }
        Ok(slot.rows.get_or_init(|| rows.into_boxed_slice()))
    }

    /// A term's postings as node-table rows, in document order: empty for an
    /// unknown term. This is the search engine's fetch, which
    /// [`GksIndex::try_rows`](crate::GksIndex::try_rows) makes with the
    /// index's own row count. The first fetch of a term decodes its run and
    /// caches the rows; later ones borrow them. A run that fails to decode,
    /// or rows out of order or past `node_count`, are an error, and the
    /// term stays as it was.
    pub(crate) fn try_rows(&self, term: &str, node_count: usize) -> Result<&[u32], IndexError> {
        match self.lookup(term) {
            Some(i) => self.rows_at(i, node_count),
            None => Ok(&[]),
        }
    }

    /// Posting count for a term, straight from the dictionary — no decode.
    pub fn posting_count(&self, term: &str) -> usize {
        self.lookup(term).map_or(0, |i| self.terms[i].count)
    }

    /// Number of distinct terms.
    pub fn term_count(&self) -> usize {
        self.terms.len()
    }

    /// Each term in sorted order with its dictionary count and a transient
    /// decode of its run, unchecked: the slots stay as they were, so
    /// auditing a live index makes none of its lists resident.
    pub(crate) fn audit(
        &self,
    ) -> impl Iterator<Item = (&str, usize, Result<Vec<u32>, DecodeError>)> {
        (0..self.terms.len()).map(move |i| {
            let mut rows = Vec::new();
            let run = self.run_reader(i).and_then(|r| r.decode_rows(&mut rows)).map(|()| rows);
            (self.term_str(i), self.terms[i].count, run)
        })
    }

    /// How many terms have had their run decoded so far (0 for an index
    /// just built or just opened).
    pub fn decoded_terms(&self) -> usize {
        self.slots.iter().filter(|slot| slot.is_decoded()).count()
    }

    /// Bytes of the backing view counted as kernel-mapped (0 for a built
    /// index's owned buffer, and when the read-the-file fallback was used).
    pub fn bytes_mapped(&self) -> u64 {
        if self.map.is_mapped() {
            self.map.len() as u64
        } else {
            0
        }
    }

    /// Estimated heap bytes held by decoded posting lists, rows and ids.
    pub fn resident_bytes(&self) -> u64 {
        self.slots.iter().map(Slot::resident_bytes).sum()
    }
}

/// A posting store read together with the node table of its index, as
/// [`GksIndex::inverted`](crate::GksIndex::inverted) hands it out: the
/// Dewey-id adapters live here, because an id is a row's, read off the
/// table. The search engine fetches rows instead
/// ([`GksIndex::try_rows`](crate::GksIndex::try_rows)).
#[derive(Debug, Clone, Copy)]
pub struct PostingView<'a> {
    store: &'a PostingStore,
    table: &'a NodeTable,
}

impl<'a> PostingView<'a> {
    pub(crate) fn new(store: &'a PostingStore, table: &'a NodeTable) -> Self {
        PostingView { store, table }
    }

    /// A term's postings as Dewey ids, by name: empty for an unknown term,
    /// an error for a run the row fetch refuses. The ids are built from
    /// the rows through [`NodeTable::id`] and cached in the term's slot
    /// beside them.
    pub fn try_postings(self, term: &str) -> Result<&'a [DeweyId], IndexError> {
        let Some(i) = self.store.lookup(term) else {
            return Ok(&[]);
        };
        let slot = &self.store.slots[i];
        if let Some(ids) = slot.ids.get() {
            return Ok(ids);
        }
        let rows = self.store.rows_at(i, self.table.len())?;
        let ids = rows
            .iter()
            .map(|&row| self.table.id(row))
            .collect::<Option<Box<[DeweyId]>>>()
            .ok_or(IndexError::Invariant("a checked row has no id"))?;
        Ok(slot.ids.get_or_init(|| ids))
    }

    /// [`Self::try_postings`] with a refused run read as an empty list, for
    /// callers that cannot take an error. The engine does not call it, and
    /// the doctor's audit reports such a run.
    pub fn postings(self, term: &str) -> &'a [DeweyId] {
        self.try_postings(term).unwrap_or(&[])
    }

    /// Iterates `(term, postings)` in sorted term order, building each
    /// list's ids into its slot (the borrowed slices need somewhere to
    /// live) as [`Self::postings`] does.
    pub fn iter(self) -> impl Iterator<Item = (&'a str, &'a [DeweyId])> + 'a {
        (0..self.store.terms.len()).map(move |i| {
            let term = self.store.term_str(i);
            (term, self.postings(term))
        })
    }

    /// Number of distinct terms.
    pub fn term_count(self) -> usize {
        self.store.term_count()
    }

    /// Estimated heap bytes held by decoded posting lists, rows and ids.
    pub fn resident_bytes(self) -> u64 {
        self.store.resident_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gks_dewey::DocId;

    fn d(doc: u32, steps: &[u32]) -> DeweyId {
        DeweyId::new(DocId(doc), steps.to_vec())
    }

    /// Finishes `acc` over rows of the given depths.
    fn finish(acc: InvertedIndex, depths: &[u32]) -> PostingStore {
        acc.finish(depths).unwrap().open(&mut IndexStats::default()).unwrap()
    }

    /// A linked table of one document: a root with `children` children.
    fn flat_table(children: u32) -> NodeTable {
        let mut table = NodeTable::new();
        table.push(0, 0).unwrap();
        for _ in 0..children {
            table.push(1, 0).unwrap();
        }
        table.link(1).unwrap();
        table
    }

    #[test]
    fn postings_sorted_and_deduped() {
        let mut acc = InvertedIndex::default();
        let karen = acc.term_id("karen");
        acc.push(karen, 2);
        acc.push(karen, 0);
        acc.push(karen, 0); // duplicate occurrence
        acc.push(karen, 3);
        let ix = finish(acc, &[0, 1, 1, 1]);
        assert_eq!(ix.try_rows("karen", 4).unwrap(), [0, 2, 3]);
        let table = flat_table(3);
        let view = PostingView::new(&ix, &table);
        assert_eq!(view.postings("karen"), &[d(0, &[]), d(0, &[1]), d(0, &[2])]);
    }

    #[test]
    fn an_ordinal_past_the_depth_column_is_an_error() {
        let mut acc = InvertedIndex::default();
        let a = acc.term_id("a");
        acc.push(a, 1);
        assert!(matches!(acc.finish(&[0]), Err(IndexError::Invariant(_))));
        let mut tier = EncodedTier::default();
        assert!(matches!(tier.push("a", &[1, 1], &[0, 1]), Err(IndexError::Invariant(_))));
    }

    #[test]
    fn memoised_analysis_posts_what_the_analyzer_yields() {
        let analyzer = Analyzer::default();
        let mut acc = InvertedIndex::default();
        acc.post_label(0, "dblp:Authors", 0, &analyzer);
        acc.post_label(0, "dblp:Authors", 2, &analyzer);
        acc.post_label(1, "the", 1, &analyzer); // a stop word: no term
        acc.post_text("Searching the Databases", 1, &analyzer);
        acc.post_text("databases SEARCHING", 2, &analyzer);
        for text in ["Searching the Databases", "unseen Words, searching"] {
            assert_eq!(acc.norm(text, &analyzer), analyzer.analyze(text).join(" "));
        }
        assert_eq!(acc.terms, ["author", "search", "databas"]);
        let ix = finish(acc, &[0, 1, 1]);
        assert_eq!(ix.try_rows("author", 3).unwrap(), [0, 2]);
        assert_eq!(ix.try_rows("search", 3).unwrap(), [1, 2]);
        assert_eq!(ix.try_rows("databas", 3).unwrap(), [1, 2]);
    }

    #[test]
    fn unknown_term_is_empty() {
        let ix = finish(InvertedIndex::default(), &[]);
        assert!(ix.try_rows("nothing", 0).unwrap().is_empty());
        assert!(PostingView::new(&ix, &NodeTable::new()).postings("nothing").is_empty());
        assert_eq!(ix.posting_count("nothing"), 0);
    }

    #[test]
    fn term_ids_are_stable() {
        let mut acc = InvertedIndex::default();
        let a = acc.term_id("a");
        let b = acc.term_id("b");
        assert_ne!(a, b);
        assert_eq!(acc.term_id("a"), a);
        assert_eq!(finish(acc, &[]).term_count(), 2);
    }

    #[test]
    fn a_run_that_fails_to_decode_is_an_error_and_is_not_cached() {
        // Two blocks: rows 0..=127, then 128 and 129. The last gap's byte
        // becomes a varint with no end.
        let rows: Vec<u32> = (0..130).collect();
        let mut tier = EncodedTier::default();
        tier.push_run("a", &rows[1..2]).unwrap();
        tier.push_run("z", &rows).unwrap();
        assert_eq!(tier.runs.last(), Some(&1));
        *tier.runs.last_mut().unwrap() = 0x81;
        let store = tier.open(&mut IndexStats::default()).unwrap();
        let table = flat_table(130);
        let view = PostingView::new(&store, &table);
        for _ in 0..2 {
            match view.try_postings("z") {
                Err(IndexError::Corrupt(message)) => {
                    assert!(message.contains("\"z\""), "{message}")
                }
                other => panic!("expected Corrupt, got {other:?}"),
            }
            assert!(view.postings("z").is_empty());
            assert!(matches!(store.try_rows("z", table.len()), Err(IndexError::Corrupt(_))));
            assert_eq!((store.decoded_terms(), store.resident_bytes()), (0, 0));
        }
        assert_eq!(view.try_postings("a").unwrap(), [d(0, &[0])]);
        assert_eq!(store.try_rows("a", table.len()).unwrap(), [1]);
        assert!(view.try_postings("nothing").unwrap().is_empty());
        assert_eq!(store.try_rows("nothing", table.len()).unwrap(), []);
        assert_eq!(store.decoded_terms(), 1, "`a` as rows and as ids is one term");
    }

    #[test]
    fn rows_out_of_order_or_past_the_table_are_errors_naming_the_term_and_not_cached() {
        // `b` repeats a row, `c` falls back, `d` names a row past the root's
        // two children.
        let lists = [
            ("a".to_string(), vec![0, 2]),
            ("b".to_string(), vec![1, 1]),
            ("c".to_string(), vec![2, 1]),
            ("d".to_string(), vec![0, 3]),
        ];
        let store = PostingStore::from_raw_lists(&lists).unwrap();
        let table = flat_table(2);
        for _ in 0..2 {
            for term in ["b", "c", "d"] {
                match store.try_rows(term, table.len()) {
                    Err(IndexError::Corrupt(message)) => {
                        assert!(message.contains(&format!("{term:?}")), "{message}")
                    }
                    other => panic!("{term}: expected Corrupt, got {other:?}"),
                }
            }
            assert_eq!((store.decoded_terms(), store.resident_bytes()), (0, 0));
        }
        assert_eq!(store.try_rows("a", table.len()).unwrap(), [0, 2]);
        assert_eq!(store.decoded_terms(), 1);
        // The audit reads what each run holds, checked or not.
        let audited: Vec<Vec<u32>> = store.audit().map(|(_, _, run)| run.unwrap()).collect();
        assert_eq!(audited, lists.map(|(_, rows)| rows));
    }

    #[test]
    fn rows_and_ids_share_one_slot_and_rows_cost_four_bytes_a_posting() {
        let rows: Vec<u32> = (1..=300).collect();
        let lists = [("a".to_string(), rows[..200].to_vec()), ("b".to_string(), rows.clone())];
        let store = PostingStore::from_raw_lists(&lists).unwrap();
        let table = flat_table(300);
        let view = PostingView::new(&store, &table);
        // The engine's fetch alone: rows, 4 B a posting, decoded once.
        let fetched = store.try_rows("b", table.len()).unwrap();
        assert_eq!(fetched, rows);
        assert_eq!((store.decoded_terms(), store.resident_bytes()), (1, 4 * 300));
        assert!(std::ptr::eq(fetched, store.try_rows("b", table.len()).unwrap()), "borrowed");
        // The Dewey adapter builds ids from the same slot's rows.
        let ids: Vec<DeweyId> = (0..300).map(|k| d(0, &[k])).collect();
        assert_eq!(view.postings("b"), ids);
        assert_eq!(store.decoded_terms(), 1);
        assert_eq!(store.resident_bytes(), 4 * 300 + list_bytes(&ids));
        // Ids first fills the rows too: one term again.
        assert_eq!(view.postings("a"), &ids[..200]);
        assert_eq!(store.try_rows("a", table.len()).unwrap(), &rows[..200]);
        assert_eq!(store.decoded_terms(), 2);
        assert_eq!(table.rows_of(&ids).unwrap(), rows);
    }

    #[test]
    fn counters() {
        let mut acc = InvertedIndex::default();
        let a = acc.term_id("a");
        acc.push(a, 1);
        acc.push(a, 2);
        let mut stats = IndexStats::default();
        let ix = acc.finish(&[0, 1, 2]).unwrap().open(&mut stats).unwrap();
        assert_eq!(
            (stats.distinct_terms, stats.total_postings, stats.posting_depth_sum),
            (1, 2, 3)
        );
        assert_eq!(ix.term_count(), 1);
        assert_eq!(ix.term_str(0), "a");
    }
}
