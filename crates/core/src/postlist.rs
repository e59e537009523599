//! Per-keyword posting lists.
//!
//! A plain keyword's posting list comes straight from the inverted index. A
//! phrase keyword (`"Peter Buneman"`) matches the nodes that contain *all* of
//! its terms, i.e. the intersection of the terms' lists — an adequate phrase
//! model at text-node granularity, since author names, course titles, etc.
//! each live in one text node.
//!
//! Lists are node-table rows, which sort as the Dewey ids do and are what
//! the index file stores. A term's rows are decoded once, on its first
//! fetch, and cached in its posting slot ([`GksIndex::try_rows`]); every
//! later query borrows them, so a warm plain keyword decodes nothing.
//!
//! A phrase intersects its terms' cached rows with one merge-join kernel.
//! The terms are taken in order of their dictionary counts, which the index
//! answers without decoding, so an absent term ends the phrase before any
//! partner is decoded. The two shortest lists are joined straight into the
//! owned result: by a two-pointer walk while their lengths are comparable
//! (first and last names interleave across the whole list, so there is
//! nothing to skip), by galloping each short row through the long list once
//! the long one is [`GALLOP_RATIO`] times longer. Every later term filters
//! the already-small result with the same galloping seek.
//!
//! A keyword's rows are one fetch ([`keyword_rows`]): a single term's
//! cached rows, borrowed, or a phrase's owned intersection. The search then
//! drops each dead document's row range ([`NodeTable::doc_rows`]), which
//! copies the list only under a mask. A run that fails to decode, for any
//! term of a phrase too, or rows out of order or past the node table, are
//! [`QueryError::CorruptIndex`].

use std::borrow::Cow;

use gks_dewey::{DeweyId, DocId};
use gks_index::{GksIndex, NodeTable};

use crate::cost::CostLedger;
use crate::error::QueryError;
use crate::query::Keyword;

/// Long-to-short length ratio from which the first pair of a phrase is
/// joined by galloping rather than by a walk over both lists.
const GALLOP_RATIO: usize = 16;

/// The document-ordered list of nodes matching `keyword`, read back from
/// rows to ids; empty if any term is absent from the corpus, or if the
/// index is corrupt (which the search reports as
/// [`QueryError::CorruptIndex`]).
pub fn keyword_postings(index: &GksIndex, keyword: &Keyword) -> Vec<DeweyId> {
    let rows = keyword_rows(index, keyword).unwrap_or_default();
    ids_of(index.node_table(), &rows)
}

/// [`keyword_postings`] with tombstoned documents masked out — any posting
/// whose document id appears in `dead` (a sorted list of local doc ids) is
/// dropped — and cost accounting folded into `ledger`: `postings_scanned`
/// grows by the raw posting entries fetched (every term's list for a
/// phrase), `tombstone_masked` by the entries the mask dropped, and
/// `per_keyword` gains one lane holding the surviving list length. All
/// three are deterministic functions of the index and the keyword, so the
/// counts obey the same shard-sum and mask-equivalence laws as the answers.
/// Scan counts come from the term dictionary ([`GksIndex::posting_count`]),
/// which a format-v3 index answers without decoding any posting block.
///
/// The search's fetch, read back from rows to ids; on a corrupt index the
/// list is empty and `ledger` is left as it was.
pub fn keyword_postings_counted(
    index: &GksIndex,
    dead: &[u32],
    keyword: &Keyword,
    ledger: &mut CostLedger,
) -> Vec<DeweyId> {
    let rows = keyword_rows_counted(index, dead, keyword, ledger).unwrap_or_default();
    ids_of(index.node_table(), &rows)
}

/// The ids of `rows`.
fn ids_of(table: &NodeTable, rows: &[u32]) -> Vec<DeweyId> {
    rows.iter().filter_map(|&row| table.id(row)).collect()
}

/// [`keyword_postings_counted`] as node-table rows, the form the search
/// runs on: one fetch and one row mask. An unmasked single term borrows
/// its cached rows. Fails with [`QueryError::CorruptIndex`] when a term's
/// run fails to decode or holds rows out of order or past the node table.
pub(crate) fn keyword_rows_counted<'a>(
    index: &'a GksIndex,
    dead: &[u32],
    keyword: &Keyword,
    ledger: &mut CostLedger,
) -> Result<Cow<'a, [u32]>, QueryError> {
    let mut rows = keyword_rows(index, keyword)?;
    let mut masked = 0;
    if !dead.is_empty() {
        let live = mask_rows(index.node_table(), &rows, dead);
        masked = (rows.len() - live.len()) as u64;
        rows = Cow::Owned(live);
    }
    ledger.postings_scanned +=
        keyword.terms().iter().map(|t| index.posting_count(t) as u64).sum::<u64>();
    ledger.tombstone_masked += masked;
    ledger.per_keyword.push(rows.len() as u64);
    Ok(rows)
}

/// The rows of `keyword`, in document order: a single term's cached rows,
/// borrowed, or a phrase's intersection of its terms' cached rows,
/// shortest first (see the module docs).
fn keyword_rows<'a>(index: &'a GksIndex, keyword: &Keyword) -> Result<Cow<'a, [u32]>, QueryError> {
    let fetch = |term: &str| index.try_rows(term).map_err(|_| corrupt(term));
    match keyword.terms() {
        [] => Ok(Cow::Borrowed(&[])),
        [term] => fetch(term).map(Cow::Borrowed),
        terms => {
            let mut by_count: Vec<(usize, &str)> =
                terms.iter().map(|t| (index.posting_count(t), t.as_str())).collect();
            by_count.sort_unstable();
            intersect(by_count.into_iter().map(|(_, t)| fetch(t))).map(Cow::Owned)
        }
    }
}

fn corrupt(term: &str) -> QueryError {
    QueryError::CorruptIndex { term: term.to_string() }
}

/// The sorted `rows` without those of a document in the sorted `dead`
/// list: one merge of the rows against the dead documents' row ranges,
/// O(|rows| + |dead|).
fn mask_rows(table: &NodeTable, rows: &[u32], dead: &[u32]) -> Vec<u32> {
    let mut ranges = dead.iter().map(|&doc| table.doc_rows(DocId(doc))).peekable();
    rows.iter()
        .copied()
        .filter(|row| {
            while ranges.next_if(|range| range.end <= *row).is_some() {}
            !ranges.peek().is_some_and(|range| range.contains(row))
        })
        .collect()
}

/// Intersects sorted, deduplicated row lists, drawn shortest first. Lists
/// are pulled lazily: an empty first list or an empty running result stops
/// the join before the next list is fetched (and, from the index, decoded).
/// The first fetch that fails is the error.
fn intersect<'a, E>(mut lists: impl Iterator<Item = Result<&'a [u32], E>>) -> Result<Vec<u32>, E> {
    let first = match lists.next().transpose()? {
        Some(list) if !list.is_empty() => list,
        _ => return Ok(Vec::new()),
    };
    let Some(second) = lists.next().transpose()? else {
        return Ok(first.to_vec());
    };
    let (short, long) = if first.len() <= second.len() {
        (first, second)
    } else {
        (second, first)
    };
    if short.is_empty() {
        return Ok(Vec::new());
    }
    let mut common = if long.len() / short.len() < GALLOP_RATIO {
        walk_join(short, long)
    } else {
        gallop_join(short, long)
    };
    while !common.is_empty() {
        let Some(list) = lists.next().transpose()? else {
            break;
        };
        common = gallop_join(&common, list);
    }
    Ok(common)
}

/// The rows common to two lists of comparable length, by one pass over
/// both. Each step advances whichever side is lower, both on a match.
fn walk_join(a: &[u32], b: &[u32]) -> Vec<u32> {
    let mut out = Vec::new();
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        let (x, y) = (a[i], b[j]);
        if x == y {
            out.push(x);
        }
        i += usize::from(x <= y);
        j += usize::from(y <= x);
    }
    out
}

/// The rows of `short` that occur in `long`, each sought by galloping from
/// where the previous seek stopped: O(|short| · log gap) comparisons.
fn gallop_join(short: &[u32], long: &[u32]) -> Vec<u32> {
    let mut out = Vec::new();
    let mut at = 0;
    for &row in short {
        at = gallop(long, at, row);
        match long.get(at) {
            None => break,
            Some(&found) if found == row => {
                out.push(row);
                at += 1;
            }
            Some(_) => {}
        }
    }
    out
}

/// The first position at or after `from` whose row is not below `target`
/// (`list.len()` if none): doubling steps bracket it, a binary search
/// finds it inside the bracket.
fn gallop(list: &[u32], from: usize, target: u32) -> usize {
    let (mut lo, mut hi, mut step) = (from, from, 1);
    while hi < list.len() && list[hi] < target {
        lo = hi + 1;
        hi += step;
        step *= 2;
    }
    let hi = hi.min(list.len());
    lo + list[lo..hi].partition_point(|&row| row < target)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gks_dewey::DocId;
    use gks_index::{Corpus, IndexOptions};
    use proptest::prelude::*;
    use std::collections::BTreeSet;

    fn d(steps: &[u32]) -> DeweyId {
        DeweyId::new(DocId(0), steps.to_vec())
    }

    fn intersected(lists: &[&[u32]]) -> Vec<u32> {
        intersect(lists.iter().map(|&list| Ok::<_, ()>(list))).unwrap()
    }

    #[test]
    fn intersect_basics() {
        let a = vec![0, 1, 3, 7];
        let b = vec![1, 2, 3, 9];
        assert_eq!(intersected(&[&a, &b]), vec![1, 3]);
        assert_eq!(intersected(&[&b, &a]), vec![1, 3]);
        assert_eq!(intersected(&[&a, &[]]), vec![]);
        assert_eq!(intersected(&[&[], &b]), vec![]);
        assert_eq!(intersected(&[&a, &a]), a);
        assert_eq!(intersected(&[&a]), a);
        assert_eq!(intersected(&[]), vec![]);
    }

    #[test]
    fn intersect_large_gallop() {
        let long: Vec<u32> = (0..1000).collect();
        let short = vec![0, 500, 999, 2000];
        assert!(long.len() / short.len() >= GALLOP_RATIO);
        let want = vec![0, 500, 999];
        assert_eq!(intersected(&[&short, &long]), want);
        assert_eq!(gallop_join(&short, &long), want);
    }

    #[test]
    fn walk_and_gallop_agree_on_disjoint_ranges() {
        let low: Vec<u32> = (0..40).collect();
        let high: Vec<u32> = (100..140).collect();
        assert!(walk_join(&low, &high).is_empty());
        assert!(gallop_join(&low, &high).is_empty());
        assert!(gallop_join(&high, &low).is_empty());
    }

    #[test]
    fn gallop_seeks_the_first_row_not_below_the_target() {
        let list: Vec<u32> = (0..100).map(|i| 2 * i).collect();
        assert_eq!(gallop(&list, 0, 0), 0);
        assert_eq!(gallop(&list, 0, 1), 1);
        assert_eq!(gallop(&list, 10, 20), 10);
        assert_eq!(gallop(&list, 10, 151), 76);
        assert_eq!(gallop(&list, 0, 198), 99);
        assert_eq!(gallop(&list, 0, 199), 100);
        assert_eq!(gallop(&list, 100, 0), 100);
        assert_eq!(gallop(&[], 0, 0), 0);
    }

    /// A sorted, deduplicated list of exactly `len` rows below `rows`, about
    /// half of them drawn from `pool` so that independently drawn lists
    /// overlap.
    fn random_list(rng: &mut proptest::TestRng, pool: &[u32], rows: usize, len: usize) -> Vec<u32> {
        let mut set = BTreeSet::new();
        while set.len() < len {
            set.insert(match rng.below(2) {
                0 => pool[rng.below(pool.len())],
                _ => rng.below(rows) as u32,
            });
        }
        set.into_iter().collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The kernel equals a `BTreeSet` intersection for 2–4 lists, with
        /// the first pair on both sides of [`GALLOP_RATIO`].
        #[test]
        fn intersect_matches_btreeset(
            seed in 0u64..u64::MAX,
            long_len in 0usize..400,
            ratio in prop::sample::select(vec![1usize, 15, 16, 17, 200]),
            extra in 0usize..3,
            spread in 1usize..4,
        ) {
            let mut rng = proptest::TestRng::deterministic(&seed.to_string());
            let rows = 800 * spread;
            let pool: Vec<u32> = (0..64).map(|_| rng.below(rows) as u32).collect();
            let mut lists = vec![
                random_list(&mut rng, &pool, rows, long_len / ratio),
                random_list(&mut rng, &pool, rows, long_len),
            ];
            for _ in 0..extra {
                let len = rng.below(400);
                lists.push(random_list(&mut rng, &pool, rows, len));
            }
            lists.sort_by_key(Vec::len);
            let want: Vec<u32> = lists
                .iter()
                .map(|l| l.iter().copied().collect::<BTreeSet<_>>())
                .reduce(|acc, s| acc.intersection(&s).copied().collect())
                .map(|s| s.into_iter().collect())
                .unwrap_or_default();
            let got = intersect(lists.iter().map(|l| Ok::<_, ()>(l.as_slice()))).unwrap();
            prop_assert_eq!(got, want);
            // Both joins are exact whatever the ratio; it only picks the cheaper.
            prop_assert_eq!(walk_join(&lists[0], &lists[1]), gallop_join(&lists[0], &lists[1]));
        }
    }

    #[test]
    fn phrase_postings_require_cooccurrence() {
        let xml = r#"<dblp>
            <article><author>Peter Buneman</author></article>
            <article><author>Peter Chen</author></article>
            <article><author>Mary Buneman</author></article>
        </dblp>"#;
        let corpus = Corpus::from_named_strs([("d", xml)]).unwrap();
        let ix = GksIndex::build(&corpus, IndexOptions::default()).unwrap();
        let q = crate::query::Query::parse(r#""Peter Buneman""#).unwrap();
        let kw = &q.normalized(ix.analyzer())[0];
        let postings = keyword_postings(&ix, kw);
        // Only the first article's author node has both terms.
        assert_eq!(postings.len(), 1);
        assert_eq!(postings[0], d(&[0, 0]));
    }

    #[test]
    fn absent_term_kills_phrase() {
        let xml = "<r><a>Peter</a></r>";
        let corpus = Corpus::from_named_strs([("d", xml)]).unwrap();
        let ix = GksIndex::build(&corpus, IndexOptions::default()).unwrap();
        let q = crate::query::Query::parse(r#""Peter Nosuch""#).unwrap();
        let kw = &q.normalized(ix.analyzer())[0];
        assert!(keyword_postings(&ix, kw).is_empty());
    }

    #[test]
    fn absent_term_decodes_no_partner() {
        let xml = "<r><a>Peter Buneman</a><a>Peter Chen</a></r>";
        let corpus = Corpus::from_named_strs([("d", xml)]).unwrap();
        let ix = GksIndex::build(&corpus, IndexOptions::default()).unwrap();
        let decoded = ix.decoded_terms();
        let q = crate::query::Query::parse(r#""Peter Buneman Nosuch""#).unwrap();
        let kw = &q.normalized(ix.analyzer())[0];
        assert!(keyword_postings(&ix, kw).is_empty());
        assert_eq!(ix.decoded_terms(), decoded, "no term of a dead phrase is decoded");
        // A live phrase does decode its terms.
        let q = crate::query::Query::parse(r#""Peter Buneman""#).unwrap();
        let kw = &q.normalized(ix.analyzer())[0];
        assert_eq!(keyword_postings(&ix, kw), vec![d(&[0])]);
        assert_eq!(ix.decoded_terms(), decoded + 2);
    }

    #[test]
    fn counted_postings_track_scans_and_mask_drops() {
        let xml = "<r><a>ka</a><a>ka</a><a>kb</a></r>";
        let corpus = Corpus::from_named_strs([("d", xml)]).unwrap();
        let ix = GksIndex::build(&corpus, IndexOptions::default()).unwrap();
        let q = crate::query::Query::parse("ka").unwrap();
        let kw = &q.normalized(ix.analyzer())[0];
        let mut ledger = crate::cost::CostLedger::default();
        let list = keyword_postings_counted(&ix, &[], kw, &mut ledger);
        assert_eq!(list, keyword_postings(&ix, kw));
        assert_eq!(ledger.postings_scanned, 2);
        assert_eq!(ledger.tombstone_masked, 0);
        assert_eq!(ledger.per_keyword, vec![2]);
        // Masking the whole document drops every entry — and counts it.
        let mut masked = crate::cost::CostLedger::default();
        let none = keyword_postings_counted(&ix, &[0], kw, &mut masked);
        assert!(none.is_empty());
        assert_eq!(masked.postings_scanned, 2);
        assert_eq!(masked.tombstone_masked, 2);
        assert_eq!(masked.per_keyword, vec![0]);
    }

    #[test]
    fn counted_phrase_masks_only_the_intersection() {
        let docs = [("d0", "<r><a>ka kb</a><a>ka</a></r>"), ("d1", "<r><a>ka kb</a><a>kb</a></r>")];
        let corpus = Corpus::from_named_strs(docs).unwrap();
        let ix = GksIndex::build(&corpus, IndexOptions::default()).unwrap();
        let q = crate::query::Query::parse(r#""ka kb""#).unwrap();
        let kw = &q.normalized(ix.analyzer())[0];
        let mut ledger = crate::cost::CostLedger::default();
        let list = keyword_postings_counted(&ix, &[1], kw, &mut ledger);
        assert_eq!(list, vec![DeweyId::new(DocId(0), vec![0])]);
        assert_eq!(ledger.postings_scanned, 6, "the dictionary counts of both terms");
        assert_eq!(ledger.tombstone_masked, 1, "only the dead intersection entry");
        assert_eq!(ledger.per_keyword, vec![1]);
    }

    #[test]
    fn empty_keyword_has_no_postings() {
        let xml = "<r><a>x</a></r>";
        let corpus = Corpus::from_named_strs([("d", xml)]).unwrap();
        let ix = GksIndex::build(&corpus, IndexOptions::default()).unwrap();
        let q = crate::query::Query::parse("the").unwrap(); // stop word
        let kw = &q.normalized(ix.analyzer())[0];
        assert!(keyword_postings(&ix, kw).is_empty());
    }

    /// Three documents whose roots and last nodes carry "ka", so a dead
    /// range one row too short or too long changes the masked count.
    fn three_documents() -> GksIndex {
        let docs = [
            ("d0", "<ka><a>kb</a><a>ka kb</a></ka>"),
            ("d1", "<ka><a>ka kb</a></ka>"),
            ("d2", "<ka><b><a>ka</a></b><a>kb ka</a></ka>"),
        ];
        let corpus = Corpus::from_named_strs(docs).unwrap();
        GksIndex::build(&corpus, IndexOptions::default()).unwrap()
    }

    #[test]
    fn the_row_mask_drops_each_dead_documents_rows_and_counts_them() {
        let ix = three_documents();
        let table = ix.node_table();
        for text in ["ka", r#""ka kb""#] {
            let q = crate::query::Query::parse(text).unwrap();
            let kw = &q.normalized(ix.analyzer())[0];
            let rows = keyword_rows(&ix, kw).unwrap().into_owned();
            assert_eq!(ids_of(table, &rows), keyword_postings(&ix, kw));
            if text == "ka" {
                let ends = (0..3).flat_map(|doc| {
                    let range = table.doc_rows(DocId(doc));
                    [range.start, range.end - 1]
                });
                assert!(ends.into_iter().all(|row| rows.contains(&row)), "{rows:?}");
            }
            // Dead first, middle and last documents, pairs, all three, a
            // document id past the count, and no mask at all.
            let masks: [&[u32]; 9] =
                [&[], &[0], &[1], &[2], &[0, 2], &[0, 1], &[0, 1, 2], &[3], &[1, 9]];
            for dead in masks {
                let masked_rows = mask_rows(table, &rows, dead);
                // Expected: the rows filtered by their ids' documents.
                let live: Vec<u32> = rows
                    .iter()
                    .copied()
                    .filter(|&row| !dead.contains(&table.id(row).unwrap().doc().0))
                    .collect();
                assert_eq!(masked_rows, live, "{text} {dead:?}");
                let mut ledger = CostLedger::default();
                let counted = keyword_postings_counted(&ix, dead, kw, &mut ledger);
                assert_eq!(counted, ids_of(table, &live));
                assert_eq!(ledger.tombstone_masked as usize, rows.len() - live.len());
                assert_eq!(ledger.per_keyword, vec![live.len() as u64]);
            }
        }
    }

    #[test]
    fn an_unmasked_term_borrows_its_cached_rows() {
        let ix = three_documents();
        let q = crate::query::Query::parse(r#"ka "ka kb""#).unwrap();
        let kws = q.normalized(ix.analyzer());
        let mut ledger = CostLedger::default();
        let term = keyword_rows_counted(&ix, &[], &kws[0], &mut ledger).unwrap();
        assert!(matches!(term, Cow::Borrowed(rows) if rows == ix.try_rows("ka").unwrap()));
        let phrase = keyword_rows_counted(&ix, &[], &kws[1], &mut ledger).unwrap();
        assert!(matches!(phrase, Cow::Owned(_)));
        let masked = keyword_rows_counted(&ix, &[1], &kws[0], &mut ledger).unwrap();
        assert!(matches!(masked, Cow::Owned(_)));
    }

    #[test]
    fn a_warm_repeat_decodes_nothing() {
        use crate::search::{search, SearchOptions};
        let ix = three_documents();
        let plain = crate::query::Query::parse("ka kb nosuch").unwrap();
        let first = search(&ix, &plain, SearchOptions::default()).unwrap();
        let warm = (ix.decoded_terms(), ix.inverted().resident_bytes());
        assert_eq!(warm.0, 2, "ka and kb, each once");
        // Plain keywords hold rows only: 4 B a posting.
        let postings = ix.posting_count("ka") + ix.posting_count("kb");
        assert_eq!(warm.1, 4 * postings as u64);
        let again = search(&ix, &plain, SearchOptions::default()).unwrap();
        assert_eq!((ix.decoded_terms(), ix.inverted().resident_bytes()), warm);
        assert_eq!(format!("{:?}", first.hits()), format!("{:?}", again.hits()));
        // A phrase joins the same cached rows and adds nothing to the slots.
        let phrase = crate::query::Query::parse(r#"ka "ka kb""#).unwrap();
        let first = search(&ix, &phrase, SearchOptions::default()).unwrap();
        let warm = (ix.decoded_terms(), ix.inverted().resident_bytes());
        assert_eq!(warm, (2, 4 * postings as u64), "still ka and kb, 4 B a posting");
        let again = search(&ix, &phrase, SearchOptions::default()).unwrap();
        assert_eq!((ix.decoded_terms(), ix.inverted().resident_bytes()), warm);
        assert_eq!(format!("{:?}", first.hits()), format!("{:?}", again.hits()));
    }

    /// `<r><a>ka</a><a>zzz</a></r>` saved with the bytes of the last
    /// posting run, `zzz`'s, handed to `tamper`. That run is the single
    /// posting at row 2, the second `<a>`: one byte.
    fn tampered(tamper: impl FnOnce(&mut [u8])) -> GksIndex {
        let corpus = Corpus::from_named_strs([("d", "<r><a>ka</a><a>zzz</a></r>")]).unwrap();
        let built = GksIndex::build(&corpus, IndexOptions::default()).unwrap();
        assert_eq!(built.try_rows("zzz").unwrap(), [2]);
        let mut bytes = built.to_bytes_v3().unwrap().to_vec();
        // The runs end where the fixed-size footer starts.
        const FOOTER_LEN: usize = 8 * 12 + 4;
        let end = bytes.len() - FOOTER_LEN;
        let run = &mut bytes[end - 1..end];
        assert_eq!(run, [2]);
        tamper(run);
        GksIndex::from_mapped(std::sync::Arc::new(bytes::Mmap::from(bytes))).unwrap()
    }

    #[test]
    fn a_corrupt_run_or_a_dangling_posting_is_corrupt_index_and_caches_nothing() {
        use crate::search::{search, SearchOptions};
        // A varint with no end; a row past the table's three. A phrase
        // joins the rows its terms' fetches checked, so it meets both.
        fn undecodable(run: &mut [u8]) {
            run[0] = 0x80;
        }
        fn dangling(run: &mut [u8]) {
            run[0] = 9;
        }
        type Tamper = fn(&mut [u8]);
        let cases: [(&str, Tamper, &str); 6] = [
            ("decode", undecodable, "zzz"),
            ("decode", undecodable, "ka zzz"),
            ("decode", undecodable, r#""ka zzz""#),
            ("row", dangling, "zzz"),
            ("row", dangling, "ka zzz"),
            ("row", dangling, r#""ka zzz""#),
        ];
        for (what, tamper, text) in cases {
            let ix = tampered(tamper);
            let q = crate::query::Query::parse(text).unwrap();
            let kw = q.normalized(ix.analyzer()).pop().unwrap();
            let mut slots = None;
            for _ in 0..2 {
                match search(&ix, &q, SearchOptions::default()) {
                    Err(QueryError::CorruptIndex { term }) => assert_eq!(term, "zzz"),
                    other => panic!("{what} {text}: expected CorruptIndex, got {other:?}"),
                }
                let mut ledger = CostLedger::default();
                assert!(keyword_postings_counted(&ix, &[], &kw, &mut ledger).is_empty());
                assert_eq!(ledger, CostLedger::default(), "{what} {text}");
                assert!(keyword_postings(&ix, &kw).is_empty(), "{what} {text}");
                assert!(ix.try_rows("zzz").is_err());
                // At most `ka`, fetched before `zzz` failed, is decoded, and
                // a second failure leaves the slots as the first did.
                let now = (ix.decoded_terms(), ix.inverted().resident_bytes());
                assert!(now.0 <= 1, "{what} {text}: {now:?}");
                assert_eq!(*slots.get_or_insert(now), now, "{what} {text}");
            }
        }
        // The Dewey adapter builds ids from checked rows only.
        for tamper in [undecodable as Tamper, dangling] {
            let ix = tampered(tamper);
            assert!(ix.try_postings("zzz").is_err());
            assert!(ix.postings("zzz").is_empty());
        }
    }

    #[test]
    fn built_and_reopened_indexes_answer_masked_searches_alike() {
        use crate::search::{search_masked, SearchOptions};
        let built = three_documents();
        let map = bytes::Mmap::from(built.to_bytes_v3().unwrap().to_vec());
        let reopened = GksIndex::from_mapped(std::sync::Arc::new(map)).unwrap();
        let answer = |ix: &GksIndex, dead: &[u32], text: &str| {
            let q = crate::query::Query::parse(text).unwrap();
            let r = search_masked(ix, dead, &q, SearchOptions::default()).unwrap();
            format!("{:?} {:?} {:?}", r.hits(), r.missing_keyword_indices(), r.cost())
        };
        let masks: [&[u32]; 4] = [&[], &[0], &[1], &[0, 2]];
        for dead in masks {
            for text in ["ka", "kb", "ka kb", r#""ka kb""#, r#"ka "kb ka""#, "ka nosuch"] {
                let (b, r) = (answer(&built, dead, text), answer(&reopened, dead, text));
                assert_eq!(b, r, "{text} {dead:?}");
            }
        }
    }
}
