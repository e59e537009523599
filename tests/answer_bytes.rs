//! Golden answers: fixed queries over one fixed-seed corpus per `ingest`
//! shape must render exactly the bytes they did when these values were
//! recorded — the `search_response_json` body followed by the display form
//! of every DI insight. A change to search, DI or the wire renderer that is
//! meant to be invisible (a faster accumulator, a different buffer
//! strategy) keeps every value; a change to what is answered updates them
//! and says so. `build_bytes.rs` pins the index files the same way.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use gks_core::di::DiOptions;
use gks_core::engine::Engine;
use gks_core::query::Query;
use gks_core::search::SearchOptions;
use gks_core::wire::search_response_json;
use gks_datagen::Dataset;
use gks_index::{Corpus, IndexOptions};

/// FNV-1a over `bytes`.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |state, &b| {
        (state ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The corpus `build_bytes.rs` pins: two documents of one shape, so hits
/// and DI groups cross a document boundary.
fn engine(dataset: Dataset, scale: usize) -> Engine {
    let corpus = Corpus::from_named_strs([
        ("a", dataset.generate(scale, 11)),
        ("b", dataset.generate(scale, 12)),
    ])
    .unwrap();
    Engine::build(&corpus, IndexOptions::default()).unwrap()
}

/// `(fnv1a, length)` of the answer to `query` at threshold `s`: the wire
/// body, then one line per insight (top 8).
fn answer_digest(engine: &Engine, query: &str, s: usize) -> (u64, usize) {
    let query = Query::parse(query).unwrap();
    let response = engine.search(&query, SearchOptions::with_s(s)).unwrap();
    let mut answer = search_response_json(engine, &response);
    for insight in engine.discover_di(&response, &DiOptions { top_m: 8 }) {
        answer.push('\n');
        answer.push_str(&insight.display());
    }
    (fnv1a(answer.as_bytes()), answer.len())
}

fn check(dataset: Dataset, scale: usize, queries: [(&str, usize, (u64, usize)); 2]) {
    let engine = engine(dataset, scale);
    let got = queries.map(|(query, s, _)| (query, s, answer_digest(&engine, query, s)));
    assert_eq!(got, queries, "{}: (fnv1a, length) of each answer", dataset.name());
}

#[test]
fn dblp_answer_bytes_are_golden() {
    check(
        Dataset::Dblp,
        300,
        [
            ("keyword search", 1, (0x2263_7642_f2ba_a010, 13_237)),
            ("provenance semantic fan zzzmissing", 2, (0xb290_e757_60a3_e5f7, 2_217)),
        ],
    );
}

#[test]
fn treebank_answer_bytes_are_golden() {
    check(
        Dataset::TreeBank,
        100,
        [
            ("day death", 1, (0xe329_18e6_9d5e_f4c0, 7_115)),
            ("shadow poison time", 2, (0x4c11_b5a8_1bf5_ef97, 1_118)),
        ],
    );
}

#[test]
fn mondial_answer_bytes_are_golden() {
    check(
        Dataset::Mondial,
        16,
        [
            ("sherpa hinduism", 1, (0xaed1_8f47_ebfe_e6a3, 2_104)),
            ("hinduism polish zzzmissing", 2, (0xf157_81fd_e91c_f8b2, 854)),
        ],
    );
}

#[test]
fn swissprot_answer_bytes_are_golden() {
    check(
        Dataset::SwissProt,
        60,
        [
            ("join optimization", 1, (0xfdc5_8314_34e0_8f27, 6_020)),
            ("pepsin bacteria lamport", 2, (0x8d9f_08da_146b_13e8, 1_881)),
        ],
    );
}

#[test]
fn nasa_answer_bytes_are_golden() {
    check(
        Dataset::Nasa,
        60,
        [
            ("probabilistic xml", 1, (0x2bc9_4f31_5917_0834, 3_163)),
            ("vardi photometry nuclear", 2, (0x15ee_f907_6a32_37db, 1_314)),
        ],
    );
}
