//! §7.6: hybrid queries over a merged DBLP + SIGMOD Record corpus.
//!
//! The paper merges the two datasets under a common root (padding the SIGMOD
//! side with two extra connecting nodes to skew depths), then runs a query
//! whose keywords target two *different* entity types: two authors that
//! co-publish only in DBLP `<inproceedings>` and two that co-publish only in
//! SIGMOD `<article>`s. GKS must return exactly the records of both types,
//! and rank by keyword distribution, not by absolute depth.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use gks::prelude::*;
use gks_core::search::Threshold;

/// Builds the merged corpus: common root, DBLP subtree, SIGMOD subtree
/// nested two connecting levels deeper.
fn merged_corpus() -> Corpus {
    let dblp_records = r#"
        <inproceedings><title>Proofs One</title>
            <author>Jean-Marc Meynadier</author><author>Patrick Behm</author></inproceedings>
        <inproceedings><title>Proofs Two</title>
            <author>Jean-Marc Meynadier</author><author>Patrick Behm</author>
            <author>Third Person</author><author>Fourth Person</author>
            <author>Fifth Person</author><author>Sixth Person</author>
            <author>Seventh Person</author><author>Eighth Person</author>
            <author>Ninth Person</author></inproceedings>
        <inproceedings><title>Proofs Three</title>
            <author>Jean-Marc Meynadier</author><author>Patrick Behm</author></inproceedings>
        <inproceedings><title>Unrelated</title>
            <author>Somebody Else</author><author>Another One</author></inproceedings>"#;
    let mut sigmod_articles = String::new();
    for i in 0..5 {
        sigmod_articles.push_str(&format!(
            "<article><title>Interface Design {i}</title><initPage>{}</initPage>\
             <endPage>{}</endPage><authors>\
             <author>Lawrence A. Rowe</author><author>Michael Stonebraker</author>\
             </authors></article>",
            i * 10 + 1,
            i * 10 + 9
        ));
    }
    let xml = format!(
        "<merged>\
            <dblp>{dblp_records}</dblp>\
            <pad1><pad2><SigmodRecord><issue><volume>11</volume>\
                <articles>{sigmod_articles}</articles>\
            </issue></SigmodRecord></pad2></pad1>\
        </merged>"
    );
    Corpus::from_named_strs([("merged", xml)]).unwrap()
}

const QUERY: &str =
    r#""Jean-Marc Meynadier" "Patrick Behm" "Lawrence A. Rowe" "Michael Stonebraker""#;

#[test]
fn hybrid_query_returns_both_entity_types() {
    let engine = Engine::build(&merged_corpus(), IndexOptions::default()).unwrap();
    let resp = engine
        .search(
            &Query::parse(QUERY).unwrap(),
            SearchOptions { s: Threshold::Fixed(2), ..Default::default() },
        )
        .unwrap();
    // Exactly 3 <inproceedings> (first two authors) + 5 <article> (last two):
    // the paper's "only these 8 nodes were returned".
    assert_eq!(resp.hits().len(), 8, "{:#?}", resp.hits());
    let mut inproceedings = 0;
    let mut articles = 0;
    for h in resp.hits() {
        match engine.index().node_table().label_name(&h.node) {
            Some("inproceedings") => inproceedings += 1,
            Some("article") => articles += 1,
            other => panic!("unexpected hit type {other:?} at {}", h.node),
        }
        assert!(h.keyword_count >= 2);
    }
    assert_eq!(inproceedings, 3);
    assert_eq!(articles, 5);
}

#[test]
fn ranking_ignores_absolute_depth() {
    // The paper: the two-author <article>s rank above the deep-but-pure…
    // precisely, articles with ONLY the two queried authors outrank
    // inproceedings that carry extra co-authors, despite the articles being
    // buried two connecting levels deeper.
    let engine = Engine::build(&merged_corpus(), IndexOptions::default()).unwrap();
    let resp = engine
        .search(
            &Query::parse(QUERY).unwrap(),
            SearchOptions { s: Threshold::Fixed(2), ..Default::default() },
        )
        .unwrap();
    let label =
        |h: &gks_core::Hit| engine.index().node_table().label_name(&h.node).unwrap().to_string();
    // Find the best-ranked article and the inproceedings with many extra
    // co-authors ("Proofs Two" has 7 extras diluting its potential flow).
    let best_article_pos = resp.hits().iter().position(|h| label(h) == "article").unwrap();
    let diluted_pos = resp
        .hits()
        .iter()
        .position(|h| {
            label(h) == "inproceedings"
                && engine.index().node_table().child_count(&h.node).unwrap_or(0) >= 8
        })
        .unwrap();
    assert!(
        best_article_pos < diluted_pos,
        "pure 2-author article (pos {best_article_pos}) must outrank diluted \
         3-author inproceedings (pos {diluted_pos}) regardless of depth"
    );
}

#[test]
fn hybrid_zero_overlap_between_clusters() {
    // Sanity: with s = 3 nothing qualifies — no node holds 3 of the 4
    // keywords (the pairs never mix).
    let engine = Engine::build(&merged_corpus(), IndexOptions::default()).unwrap();
    let resp = engine
        .search(
            &Query::parse(QUERY).unwrap(),
            SearchOptions { s: Threshold::Fixed(3), ..Default::default() },
        )
        .unwrap();
    // Only ancestors (pad nodes, root) could hold ≥3, and those are pruned
    // as less specific, except genuinely-combining containers.
    for h in resp.hits() {
        let label = engine.index().node_table().label_name(&h.node).unwrap();
        assert!(
            !matches!(label, "article" | "inproceedings"),
            "no single record holds 3 keywords"
        );
    }
}
