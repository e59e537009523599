//! Equivalence property for the persistent shard executor: fanning a
//! sharded search out over [`ShardExecutor`] lanes must be **byte-identical
//! on the wire** to the `thread::scope` spawn-per-shard scatter it
//! replaces, on 1, 2 and 4 shards — same hits, same ranks, same costs,
//! same JSON. The whole run also proves lane reuse: after warm-up, no
//! thread is spawned no matter how many scatters execute.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::sync::{Arc, OnceLock};

use gks_core::engine::Engine;
use gks_core::query::Query;
use gks_core::search::{Response, SearchOptions, Threshold};
use gks_core::shard::{merge_responses, DocMap};
use gks_core::{wire, QueryError, ShardExecutor};
use gks_index::{Corpus, IndexOptions};
use proptest::prelude::*;

const WORDS: [&str; 5] = ["alpha", "beta", "gamma", "delta", "omega"];

fn doc_xml(words: &[usize]) -> String {
    let mut xml = String::from("<course><students>");
    for &w in words {
        xml.push_str(&format!("<student>{}</student>", WORDS[w % WORDS.len()]));
    }
    xml.push_str("</students></course>");
    xml
}

/// Per shard: a non-empty list of documents, each a non-empty word list.
fn arb_shard_docs() -> impl Strategy<Value = Vec<Vec<usize>>> {
    prop::collection::vec(prop::collection::vec(0usize..WORDS.len(), 1..6), 1..4)
}

fn build_shard(docs: &[Vec<usize>]) -> Engine {
    let named: Vec<(String, String)> = docs
        .iter()
        .enumerate()
        .map(|(i, words)| (format!("d{i}"), doc_xml(words)))
        .collect();
    let corpus = Corpus::from_named_strs(named).unwrap();
    Engine::build(&corpus, IndexOptions::default()).unwrap()
}

/// The executor under test, shared across all cases so the run as a whole
/// demonstrates lane reuse.
fn executor() -> &'static ShardExecutor {
    static EXEC: OnceLock<ShardExecutor> = OnceLock::new();
    EXEC.get_or_init(|| {
        let exec = ShardExecutor::new(1);
        exec.ensure_lanes(4).expect("spawn executor lanes");
        exec
    })
}

/// The scatter the server used before the executor existed: one scoped
/// thread per shard, joined in shard order.
fn scope_scatter(
    shards: &[Arc<Engine>],
    query: &Query,
    options: SearchOptions,
) -> Vec<Result<Response, QueryError>> {
    std::thread::scope(|s| {
        let handles: Vec<_> = shards
            .iter()
            .map(|engine| s.spawn(move || engine.search(query, options)))
            .collect();
        handles.into_iter().map(|h| h.join().expect("shard thread panicked")).collect()
    })
}

/// The same fan-out through the persistent lanes.
fn pooled_scatter(
    shards: &[Arc<Engine>],
    query: &Query,
    options: SearchOptions,
) -> Vec<Result<Response, QueryError>> {
    let query = Arc::new(query.clone());
    let tasks: Vec<_> = shards
        .iter()
        .map(|engine| {
            let engine = Arc::clone(engine);
            let query = Arc::clone(&query);
            move || engine.search(&query, options)
        })
        .collect();
    executor()
        .scatter(tasks)
        .into_iter()
        .map(|slot| slot.expect("executor slot must resolve to the task result"))
        .collect()
}

fn merge(
    shards: &[Arc<Engine>],
    answers: Vec<Result<Response, QueryError>>,
    limit: usize,
) -> String {
    let mut base = 0u32;
    let mut paired = Vec::with_capacity(answers.len());
    for (engine, answer) in shards.iter().zip(answers) {
        paired.push((DocMap::base(base), answer.expect("search failed")));
        base += engine.index().doc_names().len() as u32;
    }
    let sharded = merge_responses(paired, limit).expect("merge failed");
    let refs: Vec<&Engine> = shards.iter().map(Arc::as_ref).collect();
    wire::search_response_json_sharded(&refs, &sharded)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Pooled scatter/gather is byte-identical to the `thread::scope`
    /// scatter on 1, 2 and 4 shards, for random corpora and thresholds.
    #[test]
    fn pooled_scatter_matches_thread_scope(
        shard_docs in prop::collection::vec(arb_shard_docs(), 4),
        kws in prop::collection::hash_set(0usize..WORDS.len(), 1..4),
        s in 1usize..3,
        limit in prop::sample::select(vec![1usize, 5, usize::MAX]),
    ) {
        let engines: Vec<Arc<Engine>> =
            shard_docs.iter().map(|docs| Arc::new(build_shard(docs))).collect();
        let query =
            Query::from_keywords(kws.iter().map(|&k| WORDS[k].to_string())).unwrap();
        let options = SearchOptions { s: Threshold::Fixed(s.min(kws.len())), limit };

        for count in [1usize, 2, 4] {
            let shards = &engines[..count];
            // Warm the lanes, then prove the pooled path spawns nothing.
            let _ = pooled_scatter(shards, &query, options);
            let spawned_before = executor().threads_spawned();
            let via_scope = merge(shards, scope_scatter(shards, &query, options), limit);
            let via_pool = merge(shards, pooled_scatter(shards, &query, options), limit);
            prop_assert_eq!(executor().threads_spawned(), spawned_before,
                "pooled scatter must not spawn threads");
            prop_assert_eq!(via_scope, via_pool, "wire JSON diverged on {} shards", count);
        }
    }
}
