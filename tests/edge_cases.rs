//! Edge-case and failure-injection tests across the public API.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use gks::prelude::*;
use gks_core::error::QueryError;
use gks_core::search::Threshold;

fn engine_of(xml: &str) -> Engine {
    let corpus = Corpus::from_named_strs([("t", xml)]).unwrap();
    Engine::build(&corpus, IndexOptions::default()).unwrap()
}

#[test]
fn duplicate_keywords_in_query_are_distinct_mask_bits() {
    // A query can repeat a keyword; both bits match wherever the one term
    // matches, and s counts *unique keyword slots* — so s=2 is satisfiable
    // by a single occurrence region.
    let e = engine_of("<r><a>needle</a><b>other</b></r>");
    let q = Query::parse("needle needle").unwrap();
    let r = e.search(&q, SearchOptions::with_s(2)).unwrap();
    assert!(!r.hits().is_empty());
    assert_eq!(r.hits()[0].keyword_count, 2);
}

#[test]
fn all_stopword_query_yields_no_hits_not_an_error() {
    let e = engine_of("<r><a>the and of</a></r>");
    let q = Query::parse("the of").unwrap();
    let r = e.search(&q, SearchOptions::with_s(1)).unwrap();
    assert!(r.hits().is_empty());
    assert_eq!(r.missing_keyword_indices(), &[0, 1]);
}

#[test]
fn zero_threshold_is_rejected() {
    let e = engine_of("<r><a>x</a></r>");
    let q = Query::parse("x").unwrap();
    let err = e
        .search(&q, SearchOptions { s: Threshold::Fixed(0), ..Default::default() })
        .unwrap_err();
    assert_eq!(err, QueryError::ZeroThreshold);
}

#[test]
fn s_larger_than_query_clamps_to_all() {
    let e = engine_of("<r><a>alpha</a><a>beta</a></r>");
    let q = Query::parse("alpha beta").unwrap();
    let clamped = e.search(&q, SearchOptions::with_s(99)).unwrap();
    let all = e.search(&q, SearchOptions { s: Threshold::All, ..Default::default() }).unwrap();
    assert_eq!(clamped.s(), 2);
    assert_eq!(clamped.hits().len(), all.hits().len());
}

#[test]
fn single_node_document() {
    let e = engine_of("<only>gold word</only>");
    let q = Query::parse("gold word").unwrap();
    let r = e.search(&q, SearchOptions { s: Threshold::All, ..Default::default() }).unwrap();
    assert_eq!(r.hits().len(), 1);
    assert!(r.hits()[0].node.steps().is_empty(), "the root itself");
}

#[test]
fn unicode_content_is_searchable() {
    let e = engine_of("<r><città>Müller straße</città></r>");
    let q = Query::parse("müller").unwrap();
    let r = e.search(&q, SearchOptions::with_s(1)).unwrap();
    assert_eq!(r.hits().len(), 1);
}

#[test]
fn numeric_keywords_work() {
    let e = engine_of("<r><y>2001</y><y>2002</y></r>");
    let r = e.search(&Query::parse("2001").unwrap(), SearchOptions::with_s(1)).unwrap();
    assert_eq!(r.hits().len(), 1);
}

#[test]
fn sixty_four_keywords_is_the_cap() {
    let words: Vec<String> = (0..64).map(|i| format!("w{i}")).collect();
    assert!(Query::from_keywords(words.clone()).is_ok());
    let mut too_many = words;
    too_many.push("extra".into());
    assert!(matches!(Query::from_keywords(too_many), Err(QueryError::TooManyKeywords(65))));
}

#[test]
fn max_width_query_searches() {
    // 64 keywords, some present — masks must not overflow.
    let mut xml = String::from("<r>");
    for i in 0..10 {
        xml.push_str(&format!("<k>w{i}</k>"));
    }
    xml.push_str("</r>");
    let e = engine_of(&xml);
    let words: Vec<String> = (0..64).map(|i| format!("w{i}")).collect();
    let q = Query::from_keywords(words).unwrap();
    let r = e.search(&q, SearchOptions::with_s(1)).unwrap();
    // s=1 returns the lowest matching nodes: one <k> per present keyword.
    assert_eq!(r.hits().len(), 10);
    assert!(r.hits().iter().all(|h| h.keyword_count == 1));
    assert_eq!(r.missing_keyword_indices().len(), 54);
    // At s=2 the common ancestor <r> carries all ten keywords.
    let r2 = e.search(&q, SearchOptions::with_s(2)).unwrap();
    assert_eq!(r2.max_keyword_count(), 10);
}

#[test]
fn empty_elements_and_whitespace_only_text() {
    let e = engine_of("<r><a/><b>   </b><c>real</c></r>");
    let r = e.search(&Query::parse("real").unwrap(), SearchOptions::with_s(1)).unwrap();
    assert_eq!(r.hits().len(), 1);
}

#[test]
fn mixed_content_indexes_both_text_runs() {
    let e = engine_of("<r><p>alpha <em>beta</em> gamma</p></r>");
    for kw in ["alpha", "beta", "gamma"] {
        let r = e.search(&Query::parse(kw).unwrap(), SearchOptions::with_s(1)).unwrap();
        assert!(!r.hits().is_empty(), "{kw} not found");
    }
    // alpha and gamma live at <p> itself; the phrase co-occurs there.
    let r = e
        .search(
            &Query::parse("alpha gamma").unwrap(),
            SearchOptions { s: Threshold::All, ..Default::default() },
        )
        .unwrap();
    assert!(!r.hits().is_empty());
}

#[test]
fn deep_document_search_works() {
    // 200 levels deep; keyword at the bottom.
    let mut xml = String::new();
    for _ in 0..200 {
        xml.push_str("<d>");
    }
    xml.push_str("needle");
    for _ in 0..200 {
        xml.push_str("</d>");
    }
    let e = engine_of(&xml);
    let r = e.search(&Query::parse("needle").unwrap(), SearchOptions::with_s(1)).unwrap();
    assert_eq!(r.hits().len(), 1);
    // The innermost <d> is an attribute node, so the hit is its parent
    // (Def 2.1.1 promotion).
    assert_eq!(r.hits()[0].node.depth(), 198);
}

#[test]
fn query_parse_and_from_keywords_agree() {
    let a = Query::parse(r#""Peter Buneman" xml"#).unwrap();
    let b = Query::from_keywords(["Peter Buneman".to_string(), "xml".to_string()]).unwrap();
    assert_eq!(a, b);
}
