//! Cross-crate integration: generate a synthetic corpus, index it, search
//! it, mine DI, refine — the full Figure-3 pipeline.

use gks::prelude::*;
use gks_core::search::Threshold;
use gks_datagen::{dblp, mondial};

#[test]
fn dblp_pipeline_example2_style() {
    // Generate DBLP with known co-author clusters; query four authors, three
    // of whom co-publish.
    let out = dblp::generate(&dblp::Config { articles: 300, ..Default::default() }, 42);
    let corpus = Corpus::from_named_strs([("dblp", out.xml.clone())]).unwrap();
    let engine = Engine::build(&corpus, IndexOptions::default()).unwrap();

    // Pick three authors from one cluster and one from another.
    let cluster = &out.clusters[0];
    let outsider = &out.clusters[1][0];
    let query_authors = [&cluster[0], &cluster[1], &cluster[2], outsider];
    let q = Query::from_keywords(query_authors.iter().map(|a| a.to_string())).unwrap();

    let resp = engine.search(&q, SearchOptions::with_s(1)).unwrap();
    assert!(!resp.hits().is_empty());

    // Every record by any queried author must be covered; count ground truth
    // from the manifest.
    let expected: usize = out
        .records
        .iter()
        .filter(|r| query_authors.iter().any(|qa| r.authors.contains(qa)))
        .count();
    assert_eq!(resp.hits().len(), expected, "s=1 returns all matching records");

    // The top hit has at least as many matched authors as any hit.
    let top = resp.hits()[0].keyword_count;
    assert!(resp.hits().iter().all(|h| h.keyword_count <= top));

    // DI exposes venues/years, never the query authors.
    let di = engine.discover_di(&resp, &DiOptions { top_m: 8, ..Default::default() });
    for insight in &di {
        for qa in &query_authors {
            assert_ne!(&insight.value, *qa);
        }
    }
}

#[test]
fn mondial_attribute_queries() {
    // QM1-style: {country, <religion>} — tag-name keyword + text keyword.
    let out = mondial::generate(&mondial::Config { countries: 15, ..Default::default() }, 7);
    let corpus = Corpus::from_named_strs([("mondial", out.xml.clone())]).unwrap();
    let engine = Engine::build(&corpus, IndexOptions::default()).unwrap();

    let (_, religion) = &out.religions[0];
    let q = Query::from_keywords(["country".to_string(), religion.clone()]).unwrap();
    let resp = engine
        .search(&q, SearchOptions { s: Threshold::All, ..Default::default() })
        .unwrap();
    assert!(!resp.hits().is_empty(), "countries practising {religion} exist");
    // Hits should be country nodes (depth 1), not the root.
    for h in resp.hits() {
        assert!(h.node.depth() >= 1, "root must not be a hit: {}", h.node);
    }
}

#[test]
fn lemma2_monotonicity_on_synthetic_data() {
    let out = dblp::generate(&dblp::Config { articles: 120, ..Default::default() }, 3);
    let corpus = Corpus::from_named_strs([("dblp", out.xml)]).unwrap();
    let engine = Engine::build(&corpus, IndexOptions::default()).unwrap();
    let cluster = &out.clusters[2];
    let q = Query::from_keywords(cluster.iter().take(4).cloned()).unwrap();
    let mut prev = usize::MAX;
    for s in 1..=4usize {
        let resp = engine.search(&q, SearchOptions::with_s(s)).unwrap();
        assert!(
            resp.hits().len() <= prev,
            "|RQ({s})| = {} > |RQ({})| = {prev}",
            resp.hits().len(),
            s - 1
        );
        prev = resp.hits().len();
    }
}

#[test]
fn persistence_round_trip_preserves_search() {
    let out = dblp::generate(&dblp::Config { articles: 80, ..Default::default() }, 5);
    let corpus = Corpus::from_named_strs([("dblp", out.xml)]).unwrap();
    let engine = Engine::build(&corpus, IndexOptions::default()).unwrap();

    let dir = std::env::temp_dir().join("gks-e2e-persist");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("dblp.gksix");
    engine.index().save(&path).unwrap();
    let loaded = Engine::from_index(gks::index::GksIndex::load(&path).unwrap());
    std::fs::remove_file(&path).ok();

    let author = &out.clusters[0][0];
    let q = Query::from_keywords([author.clone()]).unwrap();
    let a = engine.search(&q, SearchOptions::with_s(1)).unwrap();
    let b = loaded.search(&q, SearchOptions::with_s(1)).unwrap();
    assert_eq!(a.hits().len(), b.hits().len());
    for (x, y) in a.hits().iter().zip(b.hits()) {
        assert_eq!(x.node, y.node);
        assert_eq!(x.keyword_mask, y.keyword_mask);
        assert!((x.rank - y.rank).abs() < 1e-9);
    }
}

#[test]
fn recursive_di_terminates_and_links_rounds() {
    let out = dblp::generate(&dblp::Config { articles: 150, ..Default::default() }, 9);
    let corpus = Corpus::from_named_strs([("dblp", out.xml)]).unwrap();
    let engine = Engine::build(&corpus, IndexOptions::default()).unwrap();
    let author = out.clusters[0][0].clone();
    let q = Query::from_keywords([author]).unwrap();
    let rounds = engine
        .recursive_di(
            &q,
            SearchOptions::with_s(1),
            &DiOptions { top_m: 3, ..Default::default() },
            3,
        )
        .unwrap();
    assert!(!rounds.is_empty());
    assert!(rounds.len() <= 4);
    for window in rounds.windows(2) {
        let values: Vec<&str> = window[0].insights.iter().map(|i| i.value.as_str()).collect();
        for kw in window[1].query.keywords() {
            assert!(values.contains(&kw.raw()), "round queries come from prior DI");
        }
    }
}
