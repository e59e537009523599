//! Property test of the incremental update path: after any sequence of
//! add/modify/delete commits (with occasional compactions), searching the
//! base+delta shard set through the manifest must be **byte-identical on
//! the wire** to a full rebuild of the mutated corpus.
//!
//! This is the equivalence that makes delta shards safe to serve: masked
//! per-shard search plus the document-table renumbering reproduces exactly
//! the response a monolithic `gks index` of the current directory would
//! give, keywords, ranks, node ids, paths and all.
//!
//! Text nodes hold one to three words and some query keywords are two-word
//! phrases, so the masked phrase path (intersect, then mask) is held to the
//! same byte-for-byte standard as single terms.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};

use gks_core::engine::Engine;
use gks_core::query::Query;
use gks_core::search::{SearchOptions, Threshold};
use gks_core::shard::{load_manifest_engines, sharded_search_mapped};
use gks_core::wire;
use gks_index::delta::{commit_delta, compact, index_directory};
use gks_index::{Corpus, IndexOptions, ShardManifest};
use proptest::prelude::*;

static CASE: AtomicUsize = AtomicUsize::new(0);

const WORDS: [&str; 6] = ["apple", "banana", "cherry", "durian", "elder", "fig"];

/// One `<student>` per inner list, its text the list's words.
fn doc_xml(students: &[Vec<usize>]) -> String {
    let mut xml = String::from("<course><students>");
    for words in students {
        let text: Vec<&str> = words.iter().map(|&w| WORDS[w % WORDS.len()]).collect();
        xml.push_str(&format!("<student>{}</student>", text.join(" ")));
    }
    xml.push_str("</students></course>");
    xml
}

/// A document's students, each with 1–3 words.
fn arb_students() -> impl Strategy<Value = Vec<Vec<usize>>> {
    prop::collection::vec(prop::collection::vec(0usize..6, 1..=3), 1..5)
}

/// A single word or, as often, a two-word phrase.
fn arb_keyword() -> impl Strategy<Value = String> {
    prop_oneof![
        (0usize..6).prop_map(|w| WORDS[w].to_string()),
        (0usize..6, 0usize..6).prop_map(|(a, b)| format!("{} {}", WORDS[a], WORDS[b])),
    ]
}

/// One corpus mutation: which doc slot it touches and what happens to it.
#[derive(Debug, Clone)]
enum Op {
    /// (Re)write slot `slot` with the given students — an add if the file
    /// is absent, a modify otherwise.
    Write {
        slot: usize,
        students: Vec<Vec<usize>>,
    },
    /// Delete slot `slot` (no-op if absent).
    Delete { slot: usize },
}

fn arb_op() -> impl Strategy<Value = Op> {
    // kind 0 deletes (1 in 5); anything else writes.
    (0usize..6, 0usize..5, arb_students()).prop_map(|(slot, kind, students)| {
        if kind == 0 {
            Op::Delete { slot }
        } else {
            Op::Write { slot, students }
        }
    })
}

/// One round of mutations followed by a commit; `compact_after` folds the
/// deltas down afterwards.
#[derive(Debug, Clone)]
struct Round {
    ops: Vec<Op>,
    compact_after: bool,
}

fn arb_round() -> impl Strategy<Value = Round> {
    (prop::collection::vec(arb_op(), 1..4), 0usize..10)
        .prop_map(|(ops, c)| Round { ops, compact_after: c < 3 })
}

fn doc_path(corpus: &Path, slot: usize) -> PathBuf {
    corpus.join(format!("d{slot}.xml"))
}

fn live_docs(corpus: &Path) -> usize {
    fs::read_dir(corpus)
        .map(|d| d.flatten().filter(|e| e.path().extension().is_some_and(|x| x == "xml")).count())
        .unwrap_or(0)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn base_plus_deltas_match_full_rebuild_on_the_wire(
        initial in prop::collection::vec(arb_students(), 1..4),
        rounds in prop::collection::vec(arb_round(), 1..4),
        shards in 1usize..4,
        keywords in prop::collection::hash_set(arb_keyword(), 1..3),
    ) {
        let case = CASE.fetch_add(1, Ordering::Relaxed);
        let root = std::env::temp_dir()
            .join(format!("gks-delta-props-{}-{case}", std::process::id()));
        let _ = fs::remove_dir_all(&root);
        let corpus = root.join("corpus");
        fs::create_dir_all(&corpus).unwrap();
        for (slot, students) in initial.iter().enumerate() {
            fs::write(doc_path(&corpus, slot), doc_xml(students)).unwrap();
        }
        let manifest_path = root.join("corpus.shards");
        index_directory(&corpus, &manifest_path, shards, IndexOptions::default()).unwrap();

        for round in &rounds {
            for op in &round.ops {
                match op {
                    Op::Write { slot, students } => {
                        fs::write(doc_path(&corpus, *slot), doc_xml(students)).unwrap();
                    }
                    Op::Delete { slot } => {
                        // Keep at least one live document so the rebuild
                        // oracle stays well-defined.
                        if live_docs(&corpus) > 1 {
                            let _ = fs::remove_file(doc_path(&corpus, *slot));
                        }
                    }
                }
            }
            commit_delta(&manifest_path).unwrap();
            if round.compact_after {
                compact(&manifest_path).unwrap();
            }
        }

        // Oracle: a monolithic rebuild of the directory as it stands now.
        let rebuilt = Corpus::from_directory(&corpus).unwrap();
        let whole = Engine::build(&rebuilt, IndexOptions::default()).unwrap();
        let query = Query::from_keywords(keywords.iter().cloned()).unwrap();
        let options = SearchOptions { s: Threshold::Fixed(1), limit: 16 };
        let expected = whole.search(&query, options).unwrap();
        let expected_json = wire::search_response_json(&whole, &expected);

        // Subject: the manifest's base+delta shard set, masked and mapped.
        let manifest = ShardManifest::load(&manifest_path).unwrap();
        let loaded = load_manifest_engines(&manifest).unwrap();
        let engines: Vec<&Engine> = loaded.iter().map(|(e, _)| e).collect();
        let maps: Vec<_> = loaded.iter().map(|(_, m)| m.clone()).collect();
        let merged = sharded_search_mapped(&engines, &maps, &query, options).unwrap();
        let got_json = wire::search_response_json_sharded(&engines, &merged);

        prop_assert_eq!(
            got_json,
            expected_json,
            "wire divergence after {} rounds (shards={})",
            rounds.len(),
            shards
        );

        // Cost equivalence modulo masking: the work that survives the
        // tombstone mask is identical to the rebuild's — per-keyword
        // surviving posting counts, heap ops (2× survivors), sweep
        // advances, and rank candidates all agree exactly. Only the raw
        // scan counters legitimately differ: base+delta shards fetch (and
        // then mask) dead postings the rebuild never stores, so
        // `postings_scanned` ≥ the rebuild's. For single terms the excess is
        // precisely `tombstone_masked`; a phrase scans every term's dead
        // postings but masks only its dead intersection, so there the
        // excess is at least that.
        let got_cost = merged.response().cost();
        let want_cost = expected.cost();
        prop_assert_eq!(&got_cost.per_keyword, &want_cost.per_keyword);
        prop_assert_eq!(got_cost.heap_ops, want_cost.heap_ops);
        prop_assert_eq!(got_cost.sweep_advances, want_cost.sweep_advances);
        prop_assert_eq!(got_cost.rank_candidates, want_cost.rank_candidates);
        prop_assert_eq!(want_cost.tombstone_masked, 0, "a rebuild has no tombstones");
        prop_assert!(got_cost.postings_scanned >= want_cost.postings_scanned);
        let excess = got_cost.postings_scanned - want_cost.postings_scanned;
        if keywords.iter().any(|k| k.contains(' ')) {
            prop_assert!(excess >= got_cost.tombstone_masked, "masked ≤ the scan excess");
        } else {
            prop_assert_eq!(
                excess,
                got_cost.tombstone_masked,
                "masked-out postings are exactly the scan excess"
            );
        }
        fs::remove_dir_all(&root).ok();
    }
}
