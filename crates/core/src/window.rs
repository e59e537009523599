//! Candidate generation: sliding window over `SL` → Longest Common Prefix
//! list (paper §4.1, Figures 4–5).
//!
//! A block of `s` entries of the sorted merged list containing `s` *unique*
//! keywords has, as the Dewey id of its lowest common ancestor, the longest
//! common prefix of the block — and by Lemma 6 that is the common prefix of
//! just the first and last entry. The two-pointer sweep below ("while
//! !sU(l, r, s) shift r; if sU(l, r, s) shift l, r") enumerates every minimal
//! such block and collects the LCP of each.
//!
//! Candidates that land on an attribute node are promoted to their parent,
//! implementing Def 2.1.1's "the parent node of an attribute node is
//! considered the lowest ancestor for keyword(s) in its value".
//!
//! The window runs on `SL` as pre-order rows of the node table: a block's
//! LCP is the deepest ancestor of its last row that does not follow its
//! first row, reached by parent steps, and promotion is a flag read plus a
//! parent step. No id is read; candidates are sorted and deduplicated as
//! `u32` rows.

use gks_dewey::DeweyId;
use gks_index::{GksIndex, NodeTable};

use crate::merge::{sl_rows, SlEntry, SlRow};

/// Enumerates LCP candidates for blocks of `s` unique keywords, with
/// attribute-node promotion, returning them sorted and deduplicated. An
/// `SL` id that no node-table row describes (a corrupt index) yields no
/// candidates; the search reports it as
/// [`QueryError::CorruptIndex`](crate::QueryError::CorruptIndex).
pub fn lcp_candidates(
    index: &GksIndex,
    sl: &[SlEntry],
    s: usize,
    n_keywords: usize,
) -> Vec<DeweyId> {
    let table = index.node_table();
    let Some(sl) = sl_rows(table, sl) else {
        return Vec::new();
    };
    lcp_rows(table, &sl, s, n_keywords)
        .into_iter()
        .filter_map(|row| table.id(row))
        .collect()
}

/// [`lcp_candidates`] on rows: the candidates' rows, sorted and
/// deduplicated.
pub(crate) fn lcp_rows(table: &NodeTable, sl: &[SlRow], s: usize, n_keywords: usize) -> Vec<u32> {
    assert!(s >= 1, "threshold must be ≥ 1");
    let mut counts = vec![0u32; n_keywords];
    let mut unique = 0usize;
    let mut out: Vec<u32> = Vec::new();
    let mut r = 0usize;

    for l in 0..sl.len() {
        // Extend the right edge until the window holds s unique keywords.
        while unique < s && r < sl.len() {
            let kw = sl[r].1 as usize;
            if counts[kw] == 0 {
                unique += 1;
            }
            counts[kw] += 1;
            r += 1;
        }
        if unique < s {
            break; // no block starting at or after l can reach s uniques
        }
        // Lemma 6: the LCP of the sorted block is the common prefix of its
        // first and last entries. A cross-document block has no common
        // ancestor and yields no candidate.
        if let Some(lcp) = common_ancestor(table, sl[l].0, sl[r - 1].0) {
            let promoted = promote_row(table, lcp);
            if out.last() != Some(&promoted) {
                out.push(promoted);
            }
        }
        // Slide the left edge.
        let kw = sl[l].1 as usize;
        counts[kw] -= 1;
        if counts[kw] == 0 {
            unique -= 1;
        }
    }

    out.sort_unstable();
    out.dedup();
    out
}

/// The row of the longest common prefix of rows `first <= last`: the
/// deepest ancestor-or-self of `last` at or before `first` in pre-order (an
/// ancestor of `last` past `first` that does not contain `first` would end
/// before it), reached by parent steps. `None` across documents, where the
/// steps pass `last`'s root.
fn common_ancestor(table: &NodeTable, first: u32, last: u32) -> Option<u32> {
    let mut row = last;
    while row > first {
        row = table.parent(row)?;
    }
    Some(row)
}

/// Promotes an attribute-node candidate to its parent (Def 2.1.1). Keywords
/// matching inside one attribute value have the attribute's parent as their
/// lowest meaningful ancestor.
fn promote_row(table: &NodeTable, mut row: u32) -> u32 {
    while table.meta(row).is_some_and(|m| m.flags.is_attribute()) {
        match table.parent(row) {
            Some(parent) => row = parent,
            None => break,
        }
    }
    row
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::merge::merge_posting_lists;
    use gks_dewey::DocId;
    use gks_index::{Corpus, IndexOptions};

    fn d(steps: &[u32]) -> DeweyId {
        DeweyId::new(DocId(0), steps.to_vec())
    }

    fn fig2a_index() -> GksIndex {
        let xml = r#"<Dept><Dept_Name>CS</Dept_Name><Area><Name>Databases</Name><Courses>
            <Course><Name>Data Mining</Name><Students>
                <Student>Karen</Student><Student>Mike</Student></Students></Course>
            <Course><Name>Algorithms</Name><Students>
                <Student>Karen</Student><Student>John</Student></Students></Course>
        </Courses></Area></Dept>"#;
        let corpus = Corpus::from_named_strs([("f", xml)]).unwrap();
        GksIndex::build(&corpus, IndexOptions::default()).unwrap()
    }

    #[test]
    fn window_finds_common_ancestors() {
        let ix = fig2a_index();
        // karen (2 postings) + mike (1 posting).
        let sl =
            merge_posting_lists(vec![ix.postings("karen").to_vec(), ix.postings("mike").to_vec()]);
        let cands = lcp_candidates(&ix, &sl, 2, 2);
        // Blocks: (karen@c0, mike@c0) → Students of course 0;
        // (mike@c0, karen@c1) → Courses.
        assert!(cands.contains(&d(&[1, 1, 0, 1])), "Students of Data Mining");
        assert!(cands.contains(&d(&[1, 1])), "Courses spans the two courses");
    }

    #[test]
    fn s_equal_one_yields_each_posting_node() {
        let ix = fig2a_index();
        let karen = ix.postings("karen").to_vec();
        let sl = merge_posting_lists(vec![karen.clone()]);
        let cands = lcp_candidates(&ix, &sl, 1, 1);
        // Student text nodes are repeating (not attribute) nodes, so no
        // promotion happens and each posting is its own candidate.
        assert_eq!(cands, karen);
    }

    #[test]
    fn attribute_candidates_promoted_to_parent() {
        let ix = fig2a_index();
        // "data" and "mining" both live in the <Name> attribute node of the
        // first course; their 2-block LCP is the Name node itself, which must
        // be promoted to the Course (Def 2.1.1: ancestor of 'Databases' is
        // the Area, not the Name).
        let sl = merge_posting_lists(vec![
            ix.postings("data").to_vec(),
            ix.postings("mine").to_vec(), // "mining" stems to "mine"
        ]);
        let cands = lcp_candidates(&ix, &sl, 2, 2);
        assert_eq!(cands, vec![d(&[1, 1, 0])], "promoted to the Course node");
    }

    #[test]
    fn unreachable_threshold_gives_no_candidates() {
        let ix = fig2a_index();
        let sl = merge_posting_lists(vec![ix.postings("karen").to_vec(), Vec::new()]);
        assert!(lcp_candidates(&ix, &sl, 2, 2).is_empty());
    }

    #[test]
    fn duplicate_keyword_occurrences_do_not_fake_uniqueness() {
        let ix = fig2a_index();
        // Two karen postings with s=2 over a single keyword can never form a
        // valid block of 2 *unique* keywords.
        let sl = merge_posting_lists(vec![ix.postings("karen").to_vec()]);
        assert!(lcp_candidates(&ix, &sl, 2, 1).is_empty());
    }
}
