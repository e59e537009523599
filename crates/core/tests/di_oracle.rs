//! DI against a reference: the id-keyed aggregation of `gks_core::di` must
//! equal the plain string-keyed group-by it replaced — which analyses every
//! attribute value at query time and so also checks the norms the builder
//! stored — on one index and on the same corpus split into shards.

use std::collections::{HashMap, HashSet};

use gks_core::di::{discover_di_counted, DiOptions, Insight};
use gks_core::shard::{discover_di_sharded_counted, sharded_search};
use gks_core::{Engine, HitKind, Query, Response, SearchOptions, Threshold};
use gks_index::{split_corpus, AttrSource, Corpus, GksIndex, IndexOptions};
use proptest::prelude::*;

/// The reference: one `(path names, analysed value)`-keyed map of insights
/// filled in response rank order, sorted by (weight desc, support desc,
/// value asc, path asc) and cut to the top-m.
fn reference_di(index: &GksIndex, response: &Response, options: &DiOptions) -> (Vec<Insight>, u64) {
    let query_terms: HashSet<&str> = response
        .keywords()
        .iter()
        .flat_map(|k| k.terms().iter().map(String::as_str))
        .collect();
    let labels = index.node_table().labels();
    let mut agg: HashMap<(Vec<String>, String), Insight> = HashMap::new();
    let mut attrs_evaluated = 0u64;
    for hit in response.hits().iter().take(options.max_hits) {
        if hit.kind != HitKind::Lce {
            continue;
        }
        let entity_label = index.node_table().label_name(&hit.node).unwrap_or("?");
        for entry in index.entries(&hit.node).iter() {
            attrs_evaluated += 1;
            if entry.source == AttrSource::RepeatingText && !options.include_repeating_text {
                continue;
            }
            let value_terms = index.analyzer().analyze(entry.value);
            if value_terms.is_empty()
                || value_terms.iter().any(|t| query_terms.contains(t.as_str()))
            {
                continue;
            }
            let mut path = vec![entity_label.to_string()];
            path.extend(entry.path.iter().map(|&l| labels.name(l).to_string()));
            let insight = agg.entry((path.clone(), value_terms.join(" "))).or_insert_with(|| {
                Insight { value: entry.value.to_string(), path, weight: 0.0, support: 0 }
            });
            insight.weight += hit.rank;
            insight.support += 1;
        }
    }
    let mut insights: Vec<Insight> = agg.into_values().collect();
    insights.sort_by(|a, b| {
        b.weight
            .partial_cmp(&a.weight)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then_with(|| b.support.cmp(&a.support))
            .then_with(|| a.value.cmp(&b.value))
            .then_with(|| a.path.cmp(&b.path))
    });
    insights.truncate(options.top_m);
    (insights, attrs_evaluated)
}

/// What must agree, weights to the bit.
fn comparable(insights: &[Insight]) -> Vec<(&str, &[String], usize, u64)> {
    insights
        .iter()
        .map(|i| (i.value.as_str(), i.path.as_slice(), i.support, i.weight.to_bits()))
        .collect()
}

#[derive(Debug, Clone)]
struct Record {
    kind: &'static str,
    title: Vec<&'static str>,
    topic: &'static str,
    authors: Vec<&'static str>,
    year: &'static str,
}

fn arb_record() -> impl Strategy<Value = Record> {
    (
        prop::sample::select(vec!["book", "paper"]),
        prop::collection::vec(prop::sample::select(vec!["xml", "graph", "index", "mining"]), 1..4),
        // Two spellings that normalise identically, a value that restates a
        // possible query term, and one that analyses to nothing.
        prop::sample::select(vec![
            "Data Mining",
            "data-mining",
            "Databases",
            "XML Search",
            "of the",
        ]),
        prop::collection::vec(
            prop::sample::select(vec!["Ann Lee", "Bob Ray", "Cy Young", "ann lee"]),
            2..4,
        ),
        prop::sample::select(vec!["2001", "2002"]),
    )
        .prop_map(|(kind, title, topic, authors, year)| Record {
            kind,
            title,
            topic,
            authors,
            year,
        })
}

fn arb_corpus() -> impl Strategy<Value = Corpus> {
    prop::collection::vec(prop::collection::vec(arb_record(), 1..6), 1..6).prop_map(|docs| {
        let mut corpus = Corpus::new();
        for (i, records) in docs.iter().enumerate() {
            let mut xml = String::from("<lib>");
            for r in records {
                xml.push_str(&format!("<{}><title>{}</title>", r.kind, r.title.join(" ")));
                xml.push_str(&format!("<topic>{}</topic>", r.topic));
                for a in &r.authors {
                    xml.push_str(&format!("<author>{a}</author>"));
                }
                xml.push_str(&format!("<year>{}</year></{}>", r.year, r.kind));
            }
            xml.push_str("</lib>");
            corpus.push(format!("doc{i}"), xml);
        }
        corpus
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn id_keyed_di_equals_the_string_keyed_reference(
        corpus in arb_corpus(),
        keywords in prop::collection::hash_set(
            prop::sample::select(vec!["xml", "graph", "index", "mining", "lee"]),
            1..4,
        ),
        s in 1usize..3,
        top_m in 1usize..9,
        include_repeating_text in prop::sample::select(vec![true, false]),
        max_hits in prop::sample::select(vec![1usize, 3, usize::MAX]),
        shards in 1usize..5,
    ) {
        let whole = Engine::build(&corpus, IndexOptions::default()).unwrap();
        let query = Query::from_keywords(keywords.iter().map(|k| k.to_string())).unwrap();
        let search_options =
            SearchOptions { s: Threshold::Fixed(s.min(keywords.len())), limit: usize::MAX };
        let response = whole.search(&query, search_options).unwrap();
        let options = DiOptions { top_m, include_repeating_text, max_hits };

        let (expected, expected_attrs) = reference_di(whole.index(), &response, &options);
        let (got, got_attrs) = discover_di_counted(whole.index(), &response, &options);
        prop_assert_eq!(comparable(&got), comparable(&expected));
        prop_assert_eq!(got_attrs, expected_attrs);

        // The same corpus in 1–4 shards: each shard numbers its labels,
        // paths, values and norms on its own, and groups met in several
        // shards must still sum into one slot in rank order.
        let parts = split_corpus(&corpus, shards);
        let engines: Vec<Engine> =
            parts.iter().map(|p| Engine::build(p, IndexOptions::default()).unwrap()).collect();
        let refs: Vec<&Engine> = engines.iter().collect();
        let mut bases = Vec::new();
        let mut base = 0u32;
        for p in &parts {
            bases.push(base);
            base += p.len() as u32;
        }
        let merged = sharded_search(&refs, &bases, &query, search_options).unwrap();
        let indexes: Vec<&GksIndex> = engines.iter().map(Engine::index).collect();
        let (sharded, sharded_attrs) = discover_di_sharded_counted(&indexes, &merged, &options);
        prop_assert_eq!(comparable(&sharded), comparable(&expected), "{} shard(s)", parts.len());
        prop_assert_eq!(sharded_attrs, expected_attrs);
    }
}
