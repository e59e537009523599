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
//! There is one store, [`PostingStore`]: a sorted term dictionary, a
//! fixed-width offset table and the blocked runs
//! ([`gks_dewey::codec::encode_blocked_run`]), laid out as in a `.gksix`
//! file. An opened index reads that tier off its mapped file; a built one
//! off an owned buffer the builder's [`InvertedIndex`] accumulator encoded.
//! Either way a run stays encoded until a query first touches its term.
//!
//! A term's slot holds its postings as node-table rows, the form the search
//! engine runs on. The first fetch (`GksIndex::try_rows`) decodes the
//! run straight to rows: each posting's document and steps are walked down
//! the node table's child index from the rows of the prefix it shares with
//! the posting before it, and no Dewey id is built. Later fetches borrow
//! the rows. The same slot holds the term's Dewey ids only once they are
//! asked for ([`PostingStore::try_postings`], `postings`, `iter`): by a
//! phrase, which intersects ids, or by an adapter that hands out ids.

use std::sync::{Arc, OnceLock};

use bytes::{Buf, BufMut, Mmap};
use gks_dewey::codec::{
    encode_blocked_run, read_varint, write_varint, BlockedRunReader, DecodeError,
};
use gks_dewey::DeweyId;
use gks_text::{tokenize_into, Analyzer};

use crate::error::IndexError;
use crate::fasthash::FastMap;
use crate::node_table::NodeTable;
use crate::stats::IndexStats;

/// Build-time accumulator of posting lists, by interned term. It does not
/// outlive the build: [`Self::finish`] turns it into an [`EncodedTier`].
///
/// A posting is a node's pre-order ordinal, a `u32`, not its [`DeweyId`]:
/// pre-order is Dewey order, so the lists sort and dedup as integers, and
/// the node table's id column resolves each ordinal once, when its term is
/// encoded.
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
    /// as one posting tier, resolving ordinal `i` to `nodes[i]` (the node
    /// table's id column). Each list is freed as soon as it is encoded.
    ///
    /// Errors on an ordinal past `nodes`, or if the term dictionary outgrows
    /// the fixed-width `u32` offset table (4GiB of term records — far past
    /// any real corpus).
    pub(crate) fn finish(self, nodes: &[DeweyId]) -> Result<EncodedTier, IndexError> {
        let InvertedIndex { terms, mut lists, .. } = self;
        let mut order: Vec<usize> = (0..terms.len()).collect();
        order.sort_unstable_by(|&a, &b| terms[a].as_bytes().cmp(terms[b].as_bytes()));
        let mut tier = EncodedTier::default();
        let mut ids: Vec<DeweyId> = Vec::new();
        for i in order {
            let mut list = std::mem::take(&mut lists[i]);
            list.sort_unstable();
            list.dedup();
            ids.clear();
            for &ord in &list {
                let id = nodes.get(ord as usize).ok_or(IndexError::Invariant("unknown ordinal"))?;
                ids.push(id.clone());
            }
            tier.push(&terms[i], &ids)?;
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
    /// The postings as Dewey ids, filled only for the adapters that hand
    /// out ids.
    ids: OnceLock<Box<[DeweyId]>>,
}

impl Slot {
    fn is_decoded(&self) -> bool {
        self.rows.get().is_some() || self.ids.get().is_some()
    }

    /// Heap bytes of both forms: 4 B a posting for the rows, the records
    /// and spills for the ids.
    fn resident_bytes(&self) -> u64 {
        let rows = self.rows.get().map_or(0, |rows| std::mem::size_of_val(&**rows) as u64);
        rows + self.ids.get().map_or(0, |ids| list_bytes(ids))
    }
}

/// Where a posting tier sits in its backing bytes: term records in
/// `dict..offs`, the `u32` record-offset table in `offs..post`, the blocked
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
    /// Encodes the next term's list as handed (the caller brings terms in
    /// byte order).
    pub(crate) fn push(&mut self, term: &str, list: &[DeweyId]) -> Result<(), IndexError> {
        let rec = u32::try_from(self.dict.len())
            .map_err(|_| IndexError::Invariant("term dictionary exceeds 4GiB"))?;
        self.rec_offsets.push(rec);
        write_varint(&mut self.dict, term.len() as u64);
        self.dict.put_slice(term.as_bytes());
        write_varint(&mut self.dict, self.runs.len() as u64);
        write_varint(&mut self.dict, list.len() as u64);
        encode_blocked_run(list, &mut self.runs);
        self.postings += list.len() as u64;
        self.depth_sum += list.iter().map(|d| d.depth() as u64).sum::<u64>();
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
    /// Absolute byte range of the term's blocked posting run.
    post_start: usize,
    post_len: usize,
    /// Posting count, known without decoding the run.
    count: usize,
}

/// The posting lists of an index, built or opened: a validated term
/// dictionary over lazily-decoded blocked runs.
///
/// The dictionary lives as byte ranges into the backing bytes — the mapped
/// index file, or the buffer a build encoded; each posting list stays
/// encoded until its term is first fetched, which decodes its blocked run
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

    /// A store over exactly the lists handed in — in term-byte order, but
    /// otherwise unchecked — for the doctor's corrupted-index fixtures. (The
    /// block codec stores documents absolutely and steps by shared prefix,
    /// so an out-of-order list encodes.)
    #[cfg(test)]
    pub(crate) fn from_raw_lists(
        lists: &[(String, Vec<DeweyId>)],
    ) -> Result<PostingStore, IndexError> {
        let mut tier = EncodedTier::default();
        for (term, list) in lists {
            tier.push(term, list)?;
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

    /// A reader over term `i`'s blocked run, straight off the backing
    /// bytes. No slot is filled, so a caller that reads every run (a merge)
    /// leaves none of them resident.
    pub(crate) fn run_reader(&self, i: usize) -> Result<BlockedRunReader<'_>, DecodeError> {
        let e = &self.terms[i];
        let mut input = &self.map.as_slice()[e.post_start..e.post_start + e.post_len];
        BlockedRunReader::parse(&mut input, e.count)
    }

    /// The rows of term `i`'s postings, decoding the run straight to rows
    /// through `table` and caching them on first access. A run that fails
    /// to decode, or a posting that no row describes, is an error and
    /// caches nothing.
    fn rows_at(&self, i: usize, table: &NodeTable) -> Result<&[u32], IndexError> {
        let slot = &self.slots[i];
        if let Some(rows) = slot.rows.get() {
            return Ok(rows);
        }
        let reader = self.run_reader(i)?;
        // Every posting takes at least a byte of its run, so a count that a
        // corrupt dictionary inflated reserves no more than the run's size.
        let mut rows = Vec::with_capacity(reader.total().min(self.terms[i].post_len));
        let mut resolver = table.resolver();
        let mut dangling = false;
        for block in 0..reader.skip_entries().len() {
            reader.for_each_in_block(block, |doc, steps| match resolver.row(doc, steps) {
                Some(row) => rows.push(row),
                None => dangling = true,
            })?;
            if dangling {
                return Err(IndexError::Corrupt(format!(
                    "a posting of term {:?} names no node",
                    self.term_str(i)
                )));
            }
        }
        Ok(slot.rows.get_or_init(|| rows.into_boxed_slice()))
    }

    /// The Dewey ids of term `i`'s postings, decoding (and caching) the
    /// blocked run on first access. A run that fails to decode is an error
    /// and caches nothing.
    fn ids_at(&self, i: usize) -> Result<&[DeweyId], DecodeError> {
        let slot = &self.slots[i];
        if let Some(ids) = slot.ids.get() {
            return Ok(ids);
        }
        let ids = self.run_reader(i)?.decode_all()?;
        Ok(slot.ids.get_or_init(|| ids.into_boxed_slice()))
    }

    /// A term's postings as node-table rows of `table`, in document order:
    /// empty for an unknown term. This is the search engine's fetch, which
    /// [`GksIndex::try_rows`](crate::GksIndex::try_rows) makes with the
    /// index's own table. The first fetch of a term decodes its run
    /// straight to rows and caches them; later ones borrow them. A run
    /// that fails to decode, or a posting that no row of `table` describes,
    /// is an error, and the term stays as it was.
    pub(crate) fn try_rows(&self, term: &str, table: &NodeTable) -> Result<&[u32], IndexError> {
        match self.lookup(term) {
            Some(i) => self.rows_at(i, table),
            None => Ok(&[]),
        }
    }

    /// A term's postings as Dewey ids, by name: empty for an unknown term,
    /// an error for a run that fails to decode. The ids are decoded into
    /// the term's slot on first access, beside any rows already there.
    pub fn try_postings(&self, term: &str) -> Result<&[DeweyId], DecodeError> {
        match self.lookup(term) {
            Some(i) => self.ids_at(i),
            None => Ok(&[]),
        }
    }

    /// [`Self::try_postings`] with a run that fails to decode read as an
    /// empty list, for callers that cannot take an error. The engine does
    /// not call it, and the doctor's [`Self::audit`] reports such a run.
    pub fn postings(&self, term: &str) -> &[DeweyId] {
        self.try_postings(term).unwrap_or(&[])
    }

    /// Posting count for a term, straight from the dictionary — no decode.
    pub fn posting_count(&self, term: &str) -> usize {
        self.lookup(term).map_or(0, |i| self.terms[i].count)
    }

    /// Number of distinct terms.
    pub fn term_count(&self) -> usize {
        self.terms.len()
    }

    /// Iterates `(term, postings)` in sorted term order, decoding each list
    /// into its slot (the borrowed slices need somewhere to live) as
    /// [`Self::postings`] does.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &[DeweyId])> {
        (0..self.terms.len())
            .map(|i| self.term_str(i))
            .map(|term| (term, self.postings(term)))
    }

    /// Each term in sorted order with its dictionary count and a transient
    /// decode of its run: the slots stay as they were, so auditing a live
    /// index makes none of its lists resident.
    pub(crate) fn audit(
        &self,
    ) -> impl Iterator<Item = (&str, usize, Result<Vec<DeweyId>, DecodeError>)> {
        (0..self.terms.len()).map(move |i| {
            let run = self.run_reader(i).and_then(|r| r.decode_all());
            (self.term_str(i), self.terms[i].count, run)
        })
    }

    /// How many terms have had their run decoded so far, as rows, as ids
    /// or both (0 for an index just built or just opened).
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

#[cfg(test)]
mod tests {
    use super::*;
    use gks_dewey::DocId;

    fn d(doc: u32, steps: &[u32]) -> DeweyId {
        DeweyId::new(DocId(doc), steps.to_vec())
    }

    /// Finishes `acc` with `nodes` as its id column.
    fn finish(acc: InvertedIndex, nodes: &[DeweyId]) -> PostingStore {
        acc.finish(nodes).unwrap().open(&mut IndexStats::default()).unwrap()
    }

    #[test]
    fn postings_sorted_and_deduped() {
        let nodes = [d(0, &[0, 1, 1, 0]), d(0, &[0, 1, 1, 2]), d(1, &[0])];
        let mut acc = InvertedIndex::default();
        let karen = acc.term_id("karen");
        acc.push(karen, 1);
        acc.push(karen, 0);
        acc.push(karen, 0); // duplicate occurrence
        acc.push(karen, 2);
        let ix = finish(acc, &nodes);
        assert_eq!(ix.postings("karen"), &[d(0, &[0, 1, 1, 0]), d(0, &[0, 1, 1, 2]), d(1, &[0])]);
    }

    #[test]
    fn an_ordinal_past_the_id_column_is_an_error() {
        let mut acc = InvertedIndex::default();
        let a = acc.term_id("a");
        acc.push(a, 1);
        assert!(matches!(acc.finish(&[d(0, &[])]), Err(IndexError::Invariant(_))));
    }

    #[test]
    fn memoised_analysis_posts_what_the_analyzer_yields() {
        let analyzer = Analyzer::default();
        let nodes = [d(0, &[]), d(0, &[0]), d(0, &[1])];
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
        let ix = finish(acc, &nodes);
        assert_eq!(ix.postings("author"), &[d(0, &[]), d(0, &[1])]);
        assert_eq!(ix.postings("search"), &[d(0, &[0]), d(0, &[1])]);
        assert_eq!(ix.postings("databas"), &[d(0, &[0]), d(0, &[1])]);
    }

    #[test]
    fn unknown_term_is_empty() {
        let ix = finish(InvertedIndex::default(), &[]);
        assert!(ix.postings("nothing").is_empty());
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
    fn a_run_that_fails_to_decode_is_an_error_and_is_not_cached() {
        // Two blocks: [0]..[127], then [128] and [129]. The second block's
        // leader (doc 0, depth 1, step 128) ends the run; step 128 becomes
        // 129, so the leader disagrees with its skip entry.
        let ids: Vec<DeweyId> = (0..130).map(|k| d(0, &[k])).collect();
        let mut tier = EncodedTier::default();
        tier.push("a", &ids[..1]).unwrap();
        tier.push("z", &ids).unwrap();
        let block = [0x00, 0x01, 0x80, 0x01, 0x01, 0x01, 0x81, 0x01];
        assert!(tier.runs.ends_with(&block));
        let at = tier.runs.len() - block.len() + 2;
        tier.runs[at] = 0x81;
        let store = tier.open(&mut IndexStats::default()).unwrap();
        let table = flat_table(130);
        for _ in 0..2 {
            assert!(matches!(store.try_postings("z"), Err(DecodeError::BadBlockLayout(_))));
            assert!(store.postings("z").is_empty());
            assert!(matches!(store.try_rows("z", &table), Err(IndexError::Corrupt(_))));
            assert_eq!((store.decoded_terms(), store.resident_bytes()), (0, 0));
        }
        assert_eq!(store.try_postings("a"), Ok(&ids[..1]));
        assert_eq!(store.try_rows("a", &table).unwrap(), [1]);
        assert_eq!(store.try_postings("nothing"), Ok(&[][..]));
        assert_eq!(store.try_rows("nothing", &table).unwrap(), []);
        assert_eq!(store.decoded_terms(), 1, "`a` as ids and as rows is one term");
    }

    #[test]
    fn a_posting_no_row_describes_is_an_error_naming_the_term_and_is_not_cached() {
        // `b`'s second posting steps past the root's two children; `c`'s
        // names a document the table does not have.
        let lists = [
            ("a".to_string(), vec![d(0, &[]), d(0, &[1])]),
            ("b".to_string(), vec![d(0, &[0]), d(0, &[2])]),
            ("c".to_string(), vec![d(1, &[])]),
        ];
        let store = PostingStore::from_raw_lists(&lists).unwrap();
        let table = flat_table(2);
        for _ in 0..2 {
            for term in ["b", "c"] {
                match store.try_rows(term, &table) {
                    Err(IndexError::Corrupt(message)) => {
                        assert!(message.contains(&format!("{term:?}")), "{message}")
                    }
                    other => panic!("{term}: expected Corrupt, got {other:?}"),
                }
            }
            assert_eq!((store.decoded_terms(), store.resident_bytes()), (0, 0));
        }
        assert_eq!(store.try_rows("a", &table).unwrap(), [0, 2]);
        assert_eq!(store.decoded_terms(), 1);
    }

    #[test]
    fn rows_and_ids_share_one_slot_and_rows_cost_four_bytes_a_posting() {
        let ids: Vec<DeweyId> = (0..300).map(|k| d(0, &[k])).collect();
        let lists = [("a".to_string(), ids[..200].to_vec()), ("b".to_string(), ids.clone())];
        let store = PostingStore::from_raw_lists(&lists).unwrap();
        let table = flat_table(300);
        // The engine's fetch alone: rows, 4 B a posting, resolved once.
        let rows = store.try_rows("b", &table).unwrap();
        assert_eq!(rows, (1..=300).collect::<Vec<u32>>());
        assert_eq!((store.decoded_terms(), store.resident_bytes()), (1, 4 * 300));
        assert!(std::ptr::eq(rows, store.try_rows("b", &table).unwrap()), "borrowed again");
        // The Dewey adapter fills the same slot: still one term.
        assert_eq!(store.postings("b"), ids);
        assert_eq!(store.decoded_terms(), 1);
        assert_eq!(store.resident_bytes(), 4 * 300 + list_bytes(&ids));
        // Ids first, then rows: one term again.
        assert_eq!(store.postings("a"), &ids[..200]);
        assert_eq!(store.try_rows("a", &table).unwrap(), &rows[..200]);
        assert_eq!(store.decoded_terms(), 2);
        // The rows are the ones `NodeTable::rows_of` gives.
        assert_eq!(table.rows_of(&ids).unwrap(), rows);
    }

    #[test]
    fn counters() {
        let mut acc = InvertedIndex::default();
        let a = acc.term_id("a");
        acc.push(a, 0);
        acc.push(a, 1);
        let mut stats = IndexStats::default();
        let ix = acc.finish(&[d(0, &[0]), d(0, &[1])]).unwrap().open(&mut stats).unwrap();
        assert_eq!(
            (stats.distinct_terms, stats.total_postings, stats.posting_depth_sum),
            (1, 2, 2)
        );
        let pairs: Vec<_> = ix.iter().collect();
        assert_eq!(pairs.len(), 1);
        assert_eq!(pairs[0].0, "a");
    }
}
