//! The engine is shared-state-free after construction: concurrent searches
//! from many threads must be safe and deterministic.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::sync::Arc;

use gks::prelude::*;
use gks_datagen::dblp;

#[test]
fn concurrent_searches_agree_with_serial_results() {
    let out = dblp::generate(&dblp::Config { articles: 400, ..Default::default() }, 17);
    let corpus = Corpus::from_named_strs([("dblp", out.xml)]).unwrap();
    let engine = Arc::new(Engine::build(&corpus, IndexOptions::default()).unwrap());

    // One query per cluster, run serially first.
    let queries: Vec<Query> = out
        .clusters
        .iter()
        .map(|c| Query::from_keywords(c.iter().take(3).cloned()).unwrap())
        .collect();
    let serial: Vec<Vec<(String, u64)>> = queries
        .iter()
        .map(|q| {
            engine
                .search(q, SearchOptions::with_s(1))
                .unwrap()
                .hits()
                .iter()
                .map(|h| (h.node.to_string(), h.keyword_mask))
                .collect()
        })
        .collect();

    let handles: Vec<_> = queries
        .iter()
        .cloned()
        .enumerate()
        .map(|(i, q)| {
            let engine = Arc::clone(&engine);
            std::thread::spawn(move || {
                // Hammer the same query a few times per thread.
                let mut last = Vec::new();
                for _ in 0..5 {
                    last = engine
                        .search(&q, SearchOptions::with_s(1))
                        .unwrap()
                        .hits()
                        .iter()
                        .map(|h| (h.node.to_string(), h.keyword_mask))
                        .collect();
                }
                (i, last)
            })
        })
        .collect();

    for handle in handles {
        let (i, concurrent) = handle.join().expect("search thread");
        assert_eq!(concurrent, serial[i], "query {i} differs under concurrency");
    }
}

#[test]
fn engine_is_send_and_sync() {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Engine>();
    assert_send_sync::<gks::index::GksIndex>();
}
