//! Reproduces the paper's Table 1: GKS vs ELCA vs SLCA on the Figure 1 tree
//! for queries Q1–Q3 — the motivating example of the whole paper.
//!
//! The Figure 1 reconstruction (see DESIGN.md): keyword instances are `<v>`
//! text leaves; `ka..kf` stand for the paper's `a..f` (single letters are
//! stop words).
//!
//! ```text
//! r ── x1 ── ka kb kc kf x2(ka kb kc)
//!   ── x3 ── ka kb x5(kd kf)
//!   ── x4 ── kc kd
//! ```

#![allow(clippy::unwrap_used, clippy::expect_used)]

use gks::prelude::*;
use gks_baselines::{elca::elca, query_posting_lists, slca::slca_ca_map};
use gks_core::search::Threshold;
use gks_dewey::{DeweyId, DocId};

const FIG1: &str = "<r>\
    <x1><v>ka</v><v>kb</v><v>kc</v><v>kf</v>\
        <x2><v>ka</v><v>kb</v><v>kc</v></x2></x1>\
    <x3><v>ka</v><v>kb</v><x5><v>kd</v><v>kf</v></x5></x3>\
    <x4><v>kc</v><v>kd</v></x4>\
</r>";

fn d(steps: &[u32]) -> DeweyId {
    DeweyId::new(DocId(0), steps.to_vec())
}

fn engine() -> Engine {
    let corpus = Corpus::from_named_strs([("fig1", FIG1)]).unwrap();
    Engine::build(&corpus, IndexOptions::default()).unwrap()
}

fn gks_nodes(e: &Engine, q: &str, s: usize) -> Vec<DeweyId> {
    let resp = e
        .search(
            &Query::parse(q).unwrap(),
            SearchOptions { s: Threshold::Fixed(s), ..Default::default() },
        )
        .unwrap();
    resp.hits().iter().map(|h| h.node.clone()).collect()
}

fn baseline_lists(e: &Engine, q: &str) -> Vec<Vec<DeweyId>> {
    query_posting_lists(e.index(), &Query::parse(q).unwrap())
}

const X1: &[u32] = &[0];
const X2: &[u32] = &[0, 4];
const X3: &[u32] = &[1];
const X4: &[u32] = &[2];
const R: &[u32] = &[];

#[test]
fn table1_row_q1() {
    // Q1 = {a, b, c}, s = |Q1|.
    let e = engine();
    assert_eq!(gks_nodes(&e, "ka kb kc", 3), vec![d(X2)], "GKS column");
    let lists = baseline_lists(&e, "ka kb kc");
    assert_eq!(slca_ca_map(&lists), vec![d(X2)], "SLCA column");
    let el = elca(&lists);
    // Paper: ELCA = {x1, x2}. The reconstruction places x4's stray `kc`
    // under the root, which makes r a textbook ELCA as well (documented
    // deviation in DESIGN.md) — x1 and x2 must be present regardless.
    assert!(el.contains(&d(X1)), "ELCA contains x1: {el:?}");
    assert!(el.contains(&d(X2)), "ELCA contains x2: {el:?}");
}

#[test]
fn table1_row_q2() {
    // Q2 = {a, b, e}, s = 2: 'ke' does not occur anywhere.
    let e = engine();
    assert_eq!(gks_nodes(&e, "ka kb ke", 2), vec![d(X2), d(X3)], "GKS column");
    let lists = baseline_lists(&e, "ka kb ke");
    assert!(slca_ca_map(&lists).is_empty(), "SLCA column is NULL");
    assert!(elca(&lists).is_empty(), "ELCA column is NULL");
}

#[test]
fn table1_row_q3() {
    // Q3 = {a, b, c, d}, s = 2.
    let e = engine();
    assert_eq!(
        gks_nodes(&e, "ka kb kc kd", 2),
        vec![d(X2), d(X3), d(X4)],
        "GKS column, ranked x2 > x3 > x4"
    );
    let lists = baseline_lists(&e, "ka kb kc kd");
    assert_eq!(slca_ca_map(&lists), vec![d(R)], "SLCA column: the root");
    assert_eq!(elca(&lists), vec![d(R)], "ELCA column: the root");
}

#[test]
fn example5_rank_values() {
    let e = engine();
    let resp = e
        .search(&Query::parse("ka kb kc kd").unwrap(), SearchOptions::with_s(2))
        .unwrap();
    let ranks: Vec<f64> = resp.hits().iter().map(|h| h.rank).collect();
    assert!((ranks[0] - 3.0).abs() < 1e-9, "rank(x2) = {}", ranks[0]);
    assert!((ranks[1] - 2.5).abs() < 1e-9, "rank(x3) = {}", ranks[1]);
    assert!((ranks[2] - 2.0).abs() < 1e-9, "rank(x4) = {}", ranks[2]);
}

#[test]
fn section61_query_refinement_for_q3() {
    // §6.1: the Q3 response exposes that the keywords split into {a,b,c} and
    // {a,b,d}.
    let e = engine();
    let resp = e
        .search(&Query::parse("ka kb kc kd").unwrap(), SearchOptions::with_s(2))
        .unwrap();
    let refinement = e.refine(&resp, &[]);
    assert_eq!(refinement.sub_queries[0], vec!["ka", "kb", "kc"]);
    assert_eq!(refinement.sub_queries[1], vec!["ka", "kb", "kd"]);
    assert_eq!(refinement.partition.len(), 2);
}
