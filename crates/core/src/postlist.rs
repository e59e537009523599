//! Per-keyword posting lists.
//!
//! A plain keyword's posting list comes straight from the inverted index. A
//! phrase keyword (`"Peter Buneman"`) matches the nodes that contain *all* of
//! its terms, i.e. the intersection of the terms' lists — an adequate phrase
//! model at text-node granularity, since author names, course titles, etc.
//! each live in one text node.
//!
//! The index hands out borrowed `&[DeweyId]` slices; the merge consumes owned
//! lists. Each keyword's list is therefore materialised exactly once, after
//! any intersection and masking have run over the borrowed slices.

use gks_dewey::DeweyId;
use gks_index::GksIndex;

use crate::cost::CostLedger;
use crate::query::Keyword;

/// The document-ordered list of nodes matching `keyword`, empty if any term
/// is absent from the corpus.
pub fn keyword_postings(index: &GksIndex, keyword: &Keyword) -> Vec<DeweyId> {
    keyword_postings_masked(index, &[], keyword)
}

/// [`keyword_postings`] with tombstoned documents masked out: any posting
/// whose document id appears in `dead` (a sorted list of local doc ids) is
/// dropped. With an empty mask nothing is filtered.
pub fn keyword_postings_masked(index: &GksIndex, dead: &[u32], keyword: &Keyword) -> Vec<DeweyId> {
    masked_keyword_postings(index, dead, keyword).0
}

/// [`keyword_postings_masked`] with cost accounting folded into `ledger`:
/// `postings_scanned` grows by the raw posting entries fetched (every term's
/// list for a phrase), `tombstone_masked` by the entries the mask dropped,
/// and `per_keyword` gains one lane holding the surviving list length. All
/// three are deterministic functions of the index and the keyword, so the
/// counts obey the same shard-sum and mask-equivalence laws as the answers.
/// Scan counts come from the term dictionary ([`GksIndex::posting_count`]),
/// which a format-v3 index answers without decoding any posting block.
pub fn keyword_postings_counted(
    index: &GksIndex,
    dead: &[u32],
    keyword: &Keyword,
    ledger: &mut CostLedger,
) -> Vec<DeweyId> {
    ledger.postings_scanned +=
        keyword.terms().iter().map(|t| index.posting_count(t) as u64).sum::<u64>();
    let (list, masked) = masked_keyword_postings(index, dead, keyword);
    ledger.tombstone_masked += masked;
    ledger.per_keyword.push(list.len() as u64);
    list
}

/// Shared fetch-and-mask: returns the surviving list and how many postings
/// the mask dropped. A single-term keyword goes through
/// [`GksIndex::postings_masked`], which on a format-v3 index can skip
/// fully-tombstoned blocks without decoding them. A phrase intersects its
/// terms' lists as borrowed slices first and masks the (smaller)
/// intersection, preserving the ledger algebra of the eager path; only the
/// survivors are copied, once.
fn masked_keyword_postings(
    index: &GksIndex,
    dead: &[u32],
    keyword: &Keyword,
) -> (Vec<DeweyId>, u64) {
    match keyword.terms() {
        [] => (Vec::new(), 0),
        [term] => index.postings_masked(term, dead),
        terms => {
            // Intersect starting from the shortest list.
            let mut lists: Vec<&[DeweyId]> = terms.iter().map(|t| index.postings(t)).collect();
            lists.sort_by_key(|l| l.len());
            let mut common: Vec<&DeweyId> = lists[0].iter().collect();
            for list in &lists[1..] {
                if common.is_empty() {
                    break;
                }
                intersect(&mut common, list);
            }
            let live: Vec<DeweyId> = common
                .iter()
                .filter(|id| dead.binary_search(&id.doc().0).is_err())
                .map(|&id| id.clone())
                .collect();
            let masked = (common.len() - live.len()) as u64;
            (live, masked)
        }
    }
}

/// Keeps the elements of the sorted `short` that also occur in the sorted
/// `long`: binary-search each in the not-yet-consumed tail of `long`.
fn intersect(short: &mut Vec<&DeweyId>, long: &[DeweyId]) {
    let mut lo = 0usize;
    short.retain(|id| match long[lo..].binary_search(id) {
        Ok(pos) => {
            lo += pos + 1;
            true
        }
        Err(pos) => {
            lo += pos;
            false
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use gks_dewey::DocId;
    use gks_index::{Corpus, IndexOptions};

    fn d(steps: &[u32]) -> DeweyId {
        DeweyId::new(DocId(0), steps.to_vec())
    }

    fn intersected(short: &[DeweyId], long: &[DeweyId]) -> Vec<DeweyId> {
        let mut common: Vec<&DeweyId> = short.iter().collect();
        intersect(&mut common, long);
        common.into_iter().cloned().collect()
    }

    #[test]
    fn intersect_basics() {
        let a = vec![d(&[0]), d(&[1]), d(&[3]), d(&[7])];
        let b = vec![d(&[1]), d(&[2]), d(&[3]), d(&[9])];
        assert_eq!(intersected(&a, &b), vec![d(&[1]), d(&[3])]);
        assert_eq!(intersected(&a, &[]), vec![]);
        assert_eq!(intersected(&[], &b), vec![]);
        assert_eq!(intersected(&a, &a), a);
    }

    #[test]
    fn intersect_large_gallop() {
        let long: Vec<DeweyId> = (0..1000).map(|i| d(&[i])).collect();
        let short = vec![d(&[0]), d(&[500]), d(&[999]), d(&[2000])];
        assert_eq!(intersected(&short, &long), vec![d(&[0]), d(&[500]), d(&[999])]);
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
    fn empty_keyword_has_no_postings() {
        let xml = "<r><a>x</a></r>";
        let corpus = Corpus::from_named_strs([("d", xml)]).unwrap();
        let ix = GksIndex::build(&corpus, IndexOptions::default()).unwrap();
        let q = crate::query::Query::parse("the").unwrap(); // stop word
        let kw = &q.normalized(ix.analyzer())[0];
        assert!(keyword_postings(&ix, kw).is_empty());
    }
}
