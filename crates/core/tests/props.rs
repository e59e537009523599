//! Property tests of the search pipeline's internal invariants, checked
//! directly against posting lists (no oracle needed).

#![allow(clippy::unwrap_used, clippy::expect_used)]

use gks_core::merge::merge_posting_lists;
use gks_core::query::Query;
use gks_core::search::{search, SearchOptions};
use gks_core::window::lcp_candidates;
use gks_dewey::DeweyId;
use gks_index::{Corpus, GksIndex, IndexOptions};
use proptest::prelude::*;

fn arb_word() -> impl Strategy<Value = String> {
    prop::sample::select(vec!["alpha", "beta", "gamma", "delta"]).prop_map(str::to_string)
}

/// Random flat-ish documents: groups of records with word leaves.
fn arb_doc() -> impl Strategy<Value = String> {
    prop::collection::vec(prop::collection::vec(arb_word(), 1..4), 1..8).prop_map(|records| {
        let mut xml = String::from("<root>");
        for rec in records {
            xml.push_str("<rec>");
            for w in rec {
                xml.push_str(&format!("<w>{w}</w>"));
            }
            xml.push_str("</rec>");
        }
        xml.push_str("</root>");
        xml
    })
}

/// Does `list` have a posting inside `node`'s subtree?
fn contains(list: &[DeweyId], node: &DeweyId) -> bool {
    let lo = list.partition_point(|x| x < node);
    let ub = node.subtree_upper_bound();
    list.get(lo).is_some_and(|x| *x < ub)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The merged list is sorted and complete.
    #[test]
    fn merged_list_is_sorted_and_complete(xml in arb_doc(), kws in prop::collection::hash_set(arb_word(), 1..4)) {
        let corpus = Corpus::from_named_strs([("t", xml)]).unwrap();
        let ix = GksIndex::build(&corpus, IndexOptions::default()).unwrap();
        let query = Query::from_keywords(kws.iter().cloned()).unwrap();
        let lists: Vec<Vec<DeweyId>> = query
            .normalized(ix.analyzer())
            .iter()
            .map(|k| gks_core::postlist::keyword_postings(&ix, k))
            .collect();
        let total: usize = lists.iter().map(Vec::len).sum();
        let sl = merge_posting_lists(lists.clone());
        prop_assert_eq!(sl.len(), total);
        prop_assert!(sl.windows(2).all(|w| w[0].0 <= w[1].0), "SL unsorted");
        // Each entry really is a posting of its keyword.
        for (dewey, kw) in &sl {
            prop_assert!(lists[*kw as usize].binary_search(dewey).is_ok());
        }
    }

    /// Every window candidate's subtree contains at least s distinct
    /// keywords (soundness of the LCP generation + attribute promotion).
    #[test]
    fn candidates_contain_s_unique_keywords(
        xml in arb_doc(),
        kws in prop::collection::hash_set(arb_word(), 2..4),
        s in 1usize..3,
    ) {
        let corpus = Corpus::from_named_strs([("t", xml)]).unwrap();
        let ix = GksIndex::build(&corpus, IndexOptions::default()).unwrap();
        let query = Query::from_keywords(kws.iter().cloned()).unwrap();
        let normalized = query.normalized(ix.analyzer());
        let lists: Vec<Vec<DeweyId>> = normalized
            .iter()
            .map(|k| gks_core::postlist::keyword_postings(&ix, k))
            .collect();
        let s = s.min(normalized.len());
        let sl = merge_posting_lists(lists.clone());
        for cand in lcp_candidates(&ix, &sl, s, normalized.len()) {
            let unique = lists.iter().filter(|l| contains(l, &cand)).count();
            prop_assert!(unique >= s, "candidate {cand} has {unique} < {s} keywords");
        }
    }

    /// Response invariants: ranks are positive and finite; hits are unique;
    /// hit counts respect s; the order is by non-increasing rank.
    #[test]
    fn response_is_well_formed(
        xml in arb_doc(),
        kws in prop::collection::hash_set(arb_word(), 1..4),
        s in 1usize..3,
    ) {
        let corpus = Corpus::from_named_strs([("t", xml)]).unwrap();
        let ix = GksIndex::build(&corpus, IndexOptions::default()).unwrap();
        let query = Query::from_keywords(kws.iter().cloned()).unwrap();
        let resp = search(&ix, &query, SearchOptions::with_s(s)).unwrap();
        let mut seen = std::collections::HashSet::new();
        let mut prev_rank = f64::INFINITY;
        for hit in resp.hits() {
            prop_assert!(hit.rank.is_finite() && hit.rank > 0.0, "rank {}", hit.rank);
            prop_assert!(hit.rank <= prev_rank + 1e-9, "ranks not sorted");
            prev_rank = hit.rank;
            prop_assert!(hit.keyword_count as usize >= resp.s());
            prop_assert!(seen.insert(hit.node.clone()), "duplicate hit {}", hit.node);
            prop_assert_eq!(hit.keyword_count, hit.keyword_mask.count_ones());
        }
    }

    /// Lemma 2, generalized: hit counts are non-increasing in s.
    #[test]
    fn lemma2_hit_counts_monotone(
        xml in arb_doc(),
        kws in prop::collection::hash_set(arb_word(), 2..4),
    ) {
        let corpus = Corpus::from_named_strs([("t", xml)]).unwrap();
        let ix = GksIndex::build(&corpus, IndexOptions::default()).unwrap();
        let query = Query::from_keywords(kws.iter().cloned()).unwrap();
        let mut prev = usize::MAX;
        for s in 1..=query.len() {
            let resp = search(&ix, &query, SearchOptions::with_s(s)).unwrap();
            prop_assert!(resp.hits().len() <= prev, "s={s}");
            prev = resp.hits().len();
        }
    }
}
