//! The search wire body against a reference: `wire::search_response_json`
//! and its sharded variant write straight into one buffer, and must equal,
//! byte for byte, the renderer they replaced — which collected each hit's
//! path as a `Vec<String>`, its node id and matched keywords as owned
//! values, and escaped strings one character at a time. Covered: random
//! corpora in 1–4 shards, nodes deeper than a `DeweyId` holds inline,
//! keywords that need escaping, both hit kinds, and missing keywords.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::fmt::Write as _;

use gks_core::engine::Engine;
use gks_core::query::Query;
use gks_core::search::{Hit, HitKind, Response, SearchOptions, Threshold};
use gks_core::shard::{sharded_search, ShardedResponse};
use gks_core::wire::search_response_json_sharded;
use gks_core::wire::{push_json_f64, push_json_str, search_response_json};
use gks_dewey::DeweyId;
use gks_index::{split_corpus, Corpus, IndexOptions};
use proptest::prelude::*;

/// The reference string literal: one `char` at a time.
fn ref_push_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

fn ref_push_array(out: &mut String, items: impl IntoIterator<Item = impl AsRef<str>>) {
    out.push('[');
    for (i, item) in items.into_iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        ref_push_str(out, item.as_ref());
    }
    out.push(']');
}

/// The reference body: every hit's path, id and matched keywords built as
/// owned values before they are written.
fn reference_body(
    response: &Response,
    mut path_of: impl FnMut(usize, &Hit) -> Vec<String>,
) -> String {
    let mut out = String::new();
    out.push_str("{\"query\":");
    ref_push_array(&mut out, response.keywords().iter().map(|k| k.raw()));
    let _ = write!(out, ",\"s\":{}", response.s());
    let _ = write!(out, ",\"sl_len\":{}", response.sl_len());
    let _ = write!(out, ",\"total_hits\":{}", response.hits().len());
    out.push_str(",\"hits\":[");
    for (i, hit) in response.hits().iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"node\":");
        ref_push_str(&mut out, &hit.node.to_string());
        out.push_str(",\"path\":");
        ref_push_array(&mut out, path_of(i, hit));
        out.push_str(",\"kind\":");
        ref_push_str(
            &mut out,
            match hit.kind {
                HitKind::Lce => "lce",
                HitKind::Lcp => "lcp",
            },
        );
        out.push_str(",\"rank\":");
        push_json_f64(&mut out, hit.rank);
        let _ = write!(out, ",\"keywords\":{}", hit.keyword_count);
        out.push_str(",\"matched\":");
        let matched: Vec<&str> = response
            .keywords()
            .iter()
            .enumerate()
            .filter(|&(i, _)| (hit.keyword_mask >> i) & 1 == 1)
            .map(|(_, k)| k.raw())
            .collect();
        ref_push_array(&mut out, matched);
        out.push('}');
    }
    out.push_str("],\"missing\":");
    let missing: Vec<&str> = response
        .missing_keyword_indices()
        .iter()
        .filter_map(|&i| response.keywords().get(i).map(|k| k.raw()))
        .collect();
    ref_push_array(&mut out, missing);
    out.push('}');
    out
}

/// The reference path: the labels the node table records along `node`'s
/// steps, padded with `"?"` (or cut) to one per depth.
fn reference_path(engine: &Engine, node: &DeweyId) -> Vec<String> {
    let table = engine.index().node_table();
    let mut path: Vec<String> = table
        .path(node)
        .map(|meta| table.labels().name(meta.label).to_string())
        .collect();
    path.resize(node.depth() + 1, "?".to_string());
    path
}

fn reference_json(engine: &Engine, response: &Response) -> String {
    reference_body(response, |_, hit| reference_path(engine, &hit.node))
}

fn reference_json_sharded(shards: &[&Engine], sharded: &ShardedResponse) -> String {
    reference_body(sharded.response(), |i, _| {
        shards
            .get(sharded.origin(i))
            .map(|engine| reference_path(engine, &sharded.local_node(i)))
            .unwrap_or_default()
    })
}

const LABELS: [&str; 4] = ["a", "item", "note", "été"];
const WORDS: [&str; 5] = ["xml", "graph", "café", "data", "tree"];

/// One element of a generated document: open a child, write a text leaf,
/// or close the open child.
#[derive(Debug, Clone, Copy)]
enum Op {
    Open(usize),
    Leaf(usize, usize),
    Close,
}

fn arb_op() -> impl Strategy<Value = Op> {
    (0usize..3, 0usize..LABELS.len(), 0usize..WORDS.len()).prop_map(
        |(kind, label, word)| match kind {
            0 => Op::Open(label),
            1 => Op::Leaf(label, word),
            _ => Op::Close,
        },
    )
}

/// A document: a chain nine elements deep whose bottom element holds two
/// repeating leaves and an attribute — an entity eight steps down, so hits
/// deeper than six steps occur — then `ops`.
fn doc_xml(deep_word: usize, ops: &[Op]) -> String {
    let mut xml = String::from("<lib>");
    for level in 0..8 {
        let _ = write!(xml, "<c{level}>");
    }
    let word = WORDS[deep_word % WORDS.len()];
    let _ = write!(xml, "<v>{word}</v><v>{word} tree</v><t>deep</t>");
    for level in (0..8).rev() {
        let _ = write!(xml, "</c{level}>");
    }
    let mut open = Vec::new();
    for &op in ops {
        match op {
            Op::Open(label) => {
                let _ = write!(xml, "<{}>", LABELS[label]);
                open.push(label);
            }
            Op::Leaf(label, word) => {
                let _ = write!(xml, "<{0}>{1}</{0}>", LABELS[label], WORDS[word]);
            }
            Op::Close => {
                if let Some(label) = open.pop() {
                    let _ = write!(xml, "</{}>", LABELS[label]);
                }
            }
        }
    }
    while let Some(label) = open.pop() {
        let _ = write!(xml, "</{}>", LABELS[label]);
    }
    xml.push_str("</lib>");
    xml
}

fn arb_corpus() -> impl Strategy<Value = Corpus> {
    prop::collection::vec((0usize..WORDS.len(), prop::collection::vec(arb_op(), 0..40)), 1..6)
        .prop_map(|docs| {
            let mut corpus = Corpus::new();
            for (i, (deep_word, ops)) in docs.iter().enumerate() {
                corpus.push(format!("doc{i}"), doc_xml(*deep_word, ops));
            }
            corpus
        })
}

/// Keywords a client may send: plain terms, terms with a quote, a
/// backslash or control characters around them, non-ASCII text, one that
/// analyses to nothing and one that occurs nowhere.
const KEYWORDS: [&str; 10] = [
    "xml",
    "graph",
    "café",
    "tree",
    "xml\"q",
    "back\\slash data",
    "tab\tgraph\r\n",
    "bell\u{7}x\u{1f}",
    "\"\\",
    "zzzmissing",
];

/// Both renderers over the same corpus, whole and in `shards` shards.
fn check(corpus: &Corpus, keywords: &[&str], s: usize, shards: usize) -> Result<(), TestCaseError> {
    let whole = Engine::build(corpus, IndexOptions::default()).unwrap();
    let query = Query::from_keywords(keywords.iter().map(|k| k.to_string())).unwrap();
    let options = SearchOptions { s: Threshold::Fixed(s.min(keywords.len())), limit: usize::MAX };
    let response = whole.search(&query, options).unwrap();
    prop_assert_eq!(search_response_json(&whole, &response), reference_json(&whole, &response));

    let parts = split_corpus(corpus, shards);
    let engines: Vec<Engine> = parts
        .iter()
        .map(|p| Engine::build(p, IndexOptions::default()).unwrap())
        .collect();
    let refs: Vec<&Engine> = engines.iter().collect();
    let mut bases = Vec::new();
    let mut base = 0u32;
    for p in &parts {
        bases.push(base);
        base += p.len() as u32;
    }
    let merged = sharded_search(&refs, &bases, &query, options).unwrap();
    prop_assert_eq!(
        search_response_json_sharded(&refs, &merged),
        reference_json_sharded(&refs, &merged),
        "{} shard(s)",
        parts.len()
    );
    Ok(())
}

#[test]
fn deep_hits_of_both_kinds_and_escaped_keywords_render_as_the_reference() {
    // The deep chain (an entity hit below depth six), and a document with
    // no repeating group, so no entity: only an LCP answers there.
    let mut corpus = Corpus::new();
    corpus.push("deep", doc_xml(0, &[]));
    corpus.push("plain", "<r><a><b>graph</b></a></r>".to_string());
    let keywords = ["xml", "graph", "tab\tgraph\r\n", "xml\"q", "zzzmissing"];
    let engine = Engine::build(&corpus, IndexOptions::default()).unwrap();
    let query = Query::from_keywords(keywords).unwrap();
    let response = engine.search(&query, SearchOptions::with_s(1)).unwrap();
    let hits = response.hits();
    assert!(hits.iter().any(|h| h.kind == HitKind::Lce && h.node.depth() > 6), "{hits:?}");
    assert!(hits.iter().any(|h| h.kind == HitKind::Lcp), "{hits:?}");
    assert!(!response.missing_keyword_indices().is_empty());
    check(&corpus, &keywords, 1, 2).unwrap();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn search_bodies_equal_the_owned_value_reference(
        corpus in arb_corpus(),
        keywords in prop::collection::hash_set(prop::sample::select(KEYWORDS.to_vec()), 1..5),
        s in 1usize..3,
        shards in 1usize..5,
    ) {
        let keywords: Vec<&str> = keywords.into_iter().collect();
        check(&corpus, &keywords, s, shards)?;
    }

    #[test]
    fn string_literals_equal_the_char_by_char_reference(
        chars in prop::collection::vec(
            prop::sample::select(vec!['a', 'é', '"', '\\', '\n', '\r', '\t', '\u{0}', '\u{1f}', ' ', '€']),
            0..24,
        ),
    ) {
        let s: String = chars.into_iter().collect();
        let (mut got, mut expected) = (String::from("x"), String::from("x"));
        push_json_str(&mut got, &s);
        ref_push_str(&mut expected, &s);
        prop_assert_eq!(got, expected);
    }
}
