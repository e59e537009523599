//! The inverted keyword index (paper §2.4, Table 3).
//!
//! "For each unique text keyword that appears in the XML document repository,
//! we keep an inverted index list … containing the Dewey id of all the nodes
//! which contain that keyword", document-ordered. Postings point at the
//! *text element itself* (for keywords in text values) or the element (for
//! tag-name keywords); the §2.1.1 rule that an attribute node's parent is the
//! lowest meaningful ancestor is applied at candidate-generation time by the
//! search engine, which promotes attribute-node candidates to their parents.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

use bytes::Mmap;
use gks_dewey::codec::BlockedRunReader;
use gks_dewey::DeweyId;

use crate::fasthash::FastMap;

/// Inverted index from normalized terms to document-ordered posting lists.
#[derive(Debug, Default, Clone)]
pub struct InvertedIndex {
    term_ids: FastMap<String, u32>,
    terms: Vec<String>,
    lists: Vec<Vec<DeweyId>>,
    finalized: bool,
}

impl InvertedIndex {
    /// An empty index.
    pub fn new() -> Self {
        InvertedIndex::default()
    }

    /// Interns `term` and returns its id.
    pub fn term_id(&mut self, term: &str) -> u32 {
        if let Some(&id) = self.term_ids.get(term) {
            return id;
        }
        let id = self.terms.len() as u32;
        self.terms.push(term.to_string());
        self.term_ids.insert(term.to_string(), id);
        self.lists.push(Vec::new());
        id
    }

    /// Appends a posting for `term_id`. Postings may arrive out of order and
    /// with duplicates; [`Self::finalize`] sorts and dedups.
    pub fn push(&mut self, term_id: u32, id: DeweyId) {
        self.lists[term_id as usize].push(id);
        self.finalized = false;
    }

    /// Sorts every list into document order and removes duplicate postings
    /// (a node contains a keyword once no matter how many times the keyword
    /// occurs in one text value).
    pub fn finalize(&mut self) {
        for list in &mut self.lists {
            list.sort_unstable();
            list.dedup();
            list.shrink_to_fit();
        }
        self.finalized = true;
    }

    /// The posting list for a term, by name. Empty slice for unknown terms.
    pub fn postings(&self, term: &str) -> &[DeweyId] {
        debug_assert!(self.finalized, "postings() before finalize()");
        match self.term_ids.get(term) {
            Some(&id) => &self.lists[id as usize],
            None => &[],
        }
    }

    /// Whether the term occurs anywhere in the corpus.
    pub fn contains_term(&self, term: &str) -> bool {
        self.term_ids.contains_key(term)
    }

    /// Number of distinct terms.
    pub fn term_count(&self) -> usize {
        self.terms.len()
    }

    /// Total postings across all lists.
    pub fn total_postings(&self) -> usize {
        self.lists.iter().map(Vec::len).sum()
    }

    /// Iterates `(term, postings)` in term-id order (for persistence).
    pub fn iter(&self) -> impl Iterator<Item = (&str, &[DeweyId])> {
        self.terms.iter().map(String::as_str).zip(self.lists.iter().map(Vec::as_slice))
    }

    /// Mutable access to one posting list, for crate-internal corruption in
    /// doctor tests. Deliberately not public: callers could break the
    /// sorted-list invariant.
    #[cfg(test)]
    pub(crate) fn list_mut(&mut self, term_id: u32) -> &mut Vec<DeweyId> {
        &mut self.lists[term_id as usize]
    }

    /// Bulk-loads a term with an already-sorted list (persistence path).
    pub fn load_term(&mut self, term: String, list: Vec<DeweyId>) {
        let id = self.terms.len() as u32;
        self.term_ids.insert(term.clone(), id);
        self.terms.push(term);
        self.lists.push(list);
        self.finalized = true;
    }

    /// Estimated heap bytes held by decoded posting lists.
    pub fn resident_bytes(&self) -> u64 {
        self.lists.iter().map(|l| list_bytes(l)).sum()
    }
}

/// Heap bytes one decoded posting list holds: the id records plus whatever
/// each id spills ([`DeweyId::heap_bytes`] — nothing for an inline path).
fn list_bytes(list: &[DeweyId]) -> u64 {
    let spilled: usize = list.iter().map(DeweyId::heap_bytes).sum();
    (std::mem::size_of_val(list) + spilled) as u64
}

/// One term's dictionary record in a mapped index: byte ranges
/// into the map plus the posting count from the skip header.
#[derive(Debug, Clone)]
pub(crate) struct TermEntry {
    /// Absolute byte range of the UTF-8 term in the map.
    pub term_start: usize,
    pub term_len: usize,
    /// Absolute byte range of the term's blocked posting run in the map.
    pub post_start: usize,
    pub post_len: usize,
    /// Posting count, known without decoding the run.
    pub count: usize,
}

/// Lazily-decoded posting lists over a memory-mapped index file.
///
/// The term dictionary (validated at open) lives as byte ranges into the
/// map; each posting list stays encoded until the first [`Self::postings`]
/// call, which decodes its blocked run into a per-term [`OnceLock`] slot.
/// Opening an index therefore never touches posting blocks, and a shard only
/// pays decode cost (and heap residency) for the terms queries actually hit.
pub struct MappedPostings {
    map: Arc<Mmap>,
    /// Dictionary records, sorted by term bytes for binary search.
    terms: Vec<TermEntry>,
    /// Decoded posting lists, filled on first access.
    slots: Vec<OnceLock<Vec<DeweyId>>>,
    /// Number of slots that have been decoded (posting blocks touched).
    decoded: AtomicUsize,
    /// First lazy-decode corruption observed, if any. Decode errors yield
    /// empty lists (the engine is panic-free past open) but are recorded
    /// here so `doctor` can surface them.
    corrupt: OnceLock<String>,
    total_postings: u64,
    /// Empty heap index handed out by [`PostingsReader::heap_mut`]'s
    /// impossible arm; keeps that projection total without a panic path.
    scratch: InvertedIndex,
}

impl std::fmt::Debug for MappedPostings {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "MappedPostings({} terms, {} decoded, {} mapped bytes)",
            self.terms.len(),
            self.decoded.load(Ordering::Relaxed),
            self.map.len()
        )
    }
}

impl MappedPostings {
    /// Assembles a reader from an open map and its validated dictionary.
    pub(crate) fn from_parts(map: Arc<Mmap>, terms: Vec<TermEntry>) -> MappedPostings {
        let total_postings = terms.iter().map(|t| t.count as u64).sum();
        let slots = terms.iter().map(|_| OnceLock::new()).collect();
        MappedPostings {
            map,
            terms,
            slots,
            decoded: AtomicUsize::new(0),
            corrupt: OnceLock::new(),
            total_postings,
            scratch: InvertedIndex::new(),
        }
    }

    fn term_bytes(&self, i: usize) -> &[u8] {
        let e = &self.terms[i];
        &self.map.as_slice()[e.term_start..e.term_start + e.term_len]
    }

    fn term_str(&self, i: usize) -> &str {
        // Term bytes were UTF-8 validated when the dictionary was parsed at
        // open; a stale map cannot change under MAP_PRIVATE.
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

    fn run_bytes(&self, i: usize) -> &[u8] {
        let e = &self.terms[i];
        &self.map.as_slice()[e.post_start..e.post_start + e.post_len]
    }

    fn record_corrupt(&self, term_slot: usize, err: &gks_dewey::codec::DecodeError) {
        let _ = self
            .corrupt
            .set(format!("posting run for term #{term_slot} failed to decode: {err}"));
    }

    /// The decoded posting list for slot `i`, decoding (and caching) the
    /// blocked run on first access.
    fn list_at(&self, i: usize) -> &[DeweyId] {
        self.slots[i].get_or_init(|| {
            self.decoded.fetch_add(1, Ordering::Relaxed);
            let mut input = self.run_bytes(i);
            match BlockedRunReader::parse(&mut input, self.terms[i].count)
                .and_then(|r| r.decode_all())
            {
                Ok(ids) => ids,
                Err(e) => {
                    self.record_corrupt(i, &e);
                    Vec::new()
                }
            }
        })
    }

    /// The posting list for a term, by name. Empty slice for unknown terms.
    pub fn postings(&self, term: &str) -> &[DeweyId] {
        match self.lookup(term) {
            Some(i) => self.list_at(i),
            None => &[],
        }
    }

    /// The posting list with documents in the sorted `dead` list masked out,
    /// plus the exact number of postings masked.
    ///
    /// A term whose run is already decoded filters the cached list. An
    /// untouched term consults the skip table first: if whole blocks fall
    /// inside dead documents they are skipped without decoding (the masked
    /// tally stays exact because skip entries carry posting counts);
    /// otherwise the run is decoded once into the cache — base shards with
    /// small tombstone sets keep their lists hot.
    pub fn postings_masked(&self, term: &str, dead: &[u32]) -> (Vec<DeweyId>, u64) {
        let Some(i) = self.lookup(term) else {
            return (Vec::new(), 0);
        };
        if dead.is_empty() {
            return (self.list_at(i).to_vec(), 0);
        }
        if self.slots[i].get().is_none() {
            let mut input = self.run_bytes(i);
            match BlockedRunReader::parse(&mut input, self.terms[i].count) {
                Ok(reader) if reader.any_block_skippable(dead) => {
                    return match reader.decode_masked(dead) {
                        Ok(out) => out,
                        Err(e) => {
                            self.record_corrupt(i, &e);
                            (Vec::new(), 0)
                        }
                    };
                }
                Err(e) => {
                    self.record_corrupt(i, &e);
                    return (Vec::new(), 0);
                }
                Ok(_) => {} // nothing skippable: decode into the cache below
            }
        }
        let list = self.list_at(i);
        let survivors: Vec<DeweyId> = list
            .iter()
            .filter(|id| dead.binary_search(&id.doc().0).is_err())
            .cloned()
            .collect();
        let masked = (list.len() - survivors.len()) as u64;
        (survivors, masked)
    }

    /// Posting count for a term, straight from the dictionary — no decode.
    pub fn posting_count(&self, term: &str) -> usize {
        self.lookup(term).map_or(0, |i| self.terms[i].count)
    }

    /// Whether the term occurs anywhere in the corpus.
    pub fn contains_term(&self, term: &str) -> bool {
        self.lookup(term).is_some()
    }

    /// Number of distinct terms.
    pub fn term_count(&self) -> usize {
        self.terms.len()
    }

    /// Total postings across all lists (from the dictionary, no decode).
    pub fn total_postings(&self) -> usize {
        self.total_postings as usize
    }

    /// Iterates `(term, postings)` in sorted term order, decoding each list.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &[DeweyId])> {
        (0..self.terms.len()).map(move |i| (self.term_str(i), self.list_at(i)))
    }

    /// How many posting runs have been decoded so far (0 right after open).
    pub fn decoded_terms(&self) -> usize {
        self.decoded.load(Ordering::Relaxed)
    }

    /// First corruption hit by a lazy decode, if any.
    pub fn corrupt(&self) -> Option<&str> {
        self.corrupt.get().map(String::as_str)
    }

    /// Bytes of the underlying file view counted as kernel-mapped (0 when
    /// the read-the-file fallback was used).
    pub fn bytes_mapped(&self) -> u64 {
        if self.map.is_mapped() {
            self.map.len() as u64
        } else {
            0
        }
    }

    /// Estimated heap bytes held by decoded posting lists.
    pub fn resident_bytes(&self) -> u64 {
        self.slots.iter().filter_map(OnceLock::get).map(|l| list_bytes(l)).sum()
    }

    /// Fully decodes into a heap [`InvertedIndex`] (mutation paths).
    pub fn to_inverted(&self) -> InvertedIndex {
        let mut inv = InvertedIndex::new();
        for i in 0..self.terms.len() {
            inv.load_term(self.term_str(i).to_string(), self.list_at(i).to_vec());
        }
        inv
    }
}

/// How a [`crate::GksIndex`] holds its posting lists: fully decoded on the
/// heap (fresh builds), or lazily decoded off a memory map (loaded
/// indexes). The engine only sees `&[DeweyId]` slices either way, so the
/// k-way merge, the sweep, tombstone masking and cost accounting run
/// unchanged over both representations. The slices are borrowed from the
/// reader; a caller that needs an owned list ([`Self::postings_masked`], the
/// engine's per-keyword fetch) copies the ids out once — a flat copy for
/// paths within the inline depth of [`DeweyId`], which own no heap memory.
#[derive(Debug)]
pub enum PostingsReader {
    /// Heap-resident lists (in-memory builds).
    Heap(InvertedIndex),
    /// Mapped, block-compressed lists decoded on first touch (loaded files).
    Mapped(MappedPostings),
}

impl Default for PostingsReader {
    fn default() -> Self {
        PostingsReader::Heap(InvertedIndex::new())
    }
}

impl PostingsReader {
    /// The posting list for a term, by name. Empty slice for unknown terms.
    pub fn postings(&self, term: &str) -> &[DeweyId] {
        match self {
            PostingsReader::Heap(inv) => inv.postings(term),
            PostingsReader::Mapped(m) => m.postings(term),
        }
    }

    /// Posting count for a term without forcing a decode.
    pub fn posting_count(&self, term: &str) -> usize {
        match self {
            PostingsReader::Heap(inv) => inv.postings(term).len(),
            PostingsReader::Mapped(m) => m.posting_count(term),
        }
    }

    /// The posting list with `dead` documents masked out, plus the number of
    /// postings masked. `dead` must be sorted.
    pub fn postings_masked(&self, term: &str, dead: &[u32]) -> (Vec<DeweyId>, u64) {
        match self {
            PostingsReader::Heap(inv) => {
                let list = inv.postings(term);
                if dead.is_empty() {
                    return (list.to_vec(), 0);
                }
                let survivors: Vec<DeweyId> = list
                    .iter()
                    .filter(|id| dead.binary_search(&id.doc().0).is_err())
                    .cloned()
                    .collect();
                let masked = (list.len() - survivors.len()) as u64;
                (survivors, masked)
            }
            PostingsReader::Mapped(m) => m.postings_masked(term, dead),
        }
    }

    /// Whether the term occurs anywhere in the corpus.
    pub fn contains_term(&self, term: &str) -> bool {
        match self {
            PostingsReader::Heap(inv) => inv.contains_term(term),
            PostingsReader::Mapped(m) => m.contains_term(term),
        }
    }

    /// Number of distinct terms.
    pub fn term_count(&self) -> usize {
        match self {
            PostingsReader::Heap(inv) => inv.term_count(),
            PostingsReader::Mapped(m) => m.term_count(),
        }
    }

    /// Total postings across all lists.
    pub fn total_postings(&self) -> usize {
        match self {
            PostingsReader::Heap(inv) => inv.total_postings(),
            PostingsReader::Mapped(m) => m.total_postings(),
        }
    }

    /// Iterates `(term, postings)` — term-id order for heap indexes, sorted
    /// term order for mapped ones (decoding every list).
    pub fn iter(&self) -> Box<dyn Iterator<Item = (&str, &[DeweyId])> + '_> {
        match self {
            PostingsReader::Heap(inv) => Box::new(inv.iter()),
            PostingsReader::Mapped(m) => Box::new(m.iter()),
        }
    }

    /// Posting runs decoded so far: equals [`Self::term_count`] for heap
    /// indexes (everything is resident), grows from 0 on mapped ones.
    pub fn decoded_terms(&self) -> usize {
        match self {
            PostingsReader::Heap(inv) => inv.term_count(),
            PostingsReader::Mapped(m) => m.decoded_terms(),
        }
    }

    /// Bytes served straight off a kernel memory map (0 for heap indexes).
    pub fn bytes_mapped(&self) -> u64 {
        match self {
            PostingsReader::Heap(_) => 0,
            PostingsReader::Mapped(m) => m.bytes_mapped(),
        }
    }

    /// Estimated heap bytes held by decoded posting lists.
    pub fn resident_bytes(&self) -> u64 {
        match self {
            PostingsReader::Heap(inv) => inv.resident_bytes(),
            PostingsReader::Mapped(m) => m.resident_bytes(),
        }
    }

    /// First lazy-decode corruption observed, if any (always `None` for
    /// heap indexes, which are built, not decoded).
    pub fn corrupt(&self) -> Option<&str> {
        match self {
            PostingsReader::Heap(_) => None,
            PostingsReader::Mapped(m) => m.corrupt(),
        }
    }

    /// Mutable heap access, converting a mapped reader into a fully decoded
    /// [`InvertedIndex`] first (append/merge paths mutate posting lists, so
    /// they give up zero-copy residency).
    pub fn heap_mut(&mut self) -> &mut InvertedIndex {
        if let PostingsReader::Mapped(m) = &*self {
            let inv = m.to_inverted();
            *self = PostingsReader::Heap(inv);
        }
        match self {
            PostingsReader::Heap(inv) => inv,
            // Unreachable — Mapped was just converted to Heap above — but the
            // projection stays total without a panic path: hand out the
            // reader's empty scratch index.
            PostingsReader::Mapped(m) => &mut m.scratch,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gks_dewey::DocId;

    fn d(doc: u32, steps: &[u32]) -> DeweyId {
        DeweyId::new(DocId(doc), steps.to_vec())
    }

    #[test]
    fn postings_sorted_and_deduped() {
        let mut ix = InvertedIndex::new();
        let karen = ix.term_id("karen");
        ix.push(karen, d(0, &[0, 1, 1, 2]));
        ix.push(karen, d(0, &[0, 1, 1, 0]));
        ix.push(karen, d(0, &[0, 1, 1, 0])); // duplicate occurrence
        ix.push(karen, d(1, &[0]));
        ix.finalize();
        assert_eq!(ix.postings("karen"), &[d(0, &[0, 1, 1, 0]), d(0, &[0, 1, 1, 2]), d(1, &[0])]);
    }

    #[test]
    fn unknown_term_is_empty() {
        let mut ix = InvertedIndex::new();
        ix.finalize();
        assert!(ix.postings("nothing").is_empty());
        assert!(!ix.contains_term("nothing"));
    }

    #[test]
    fn term_ids_are_stable() {
        let mut ix = InvertedIndex::new();
        let a = ix.term_id("a");
        let b = ix.term_id("b");
        assert_ne!(a, b);
        assert_eq!(ix.term_id("a"), a);
        assert_eq!(ix.term_count(), 2);
    }

    #[test]
    fn counters() {
        let mut ix = InvertedIndex::new();
        let a = ix.term_id("a");
        ix.push(a, d(0, &[0]));
        ix.push(a, d(0, &[1]));
        ix.finalize();
        assert_eq!(ix.total_postings(), 2);
        let pairs: Vec<_> = ix.iter().collect();
        assert_eq!(pairs.len(), 1);
        assert_eq!(pairs[0].0, "a");
    }
}
