//! Property: the result cache is invisible. For any document and query, the
//! bytes a cache hit returns are identical to the bytes a fresh computation
//! returns — which holds only because the wire format is deterministic
//! (timing travels in a header, never the body). A second family of
//! properties checks the LRU bookkeeping under random workloads.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::sync::Arc;
use std::time::Instant;

use gks_core::engine::Engine;
use gks_index::{Corpus, IndexOptions};
use gks_server::cache::{ResultCache, ENTRY_OVERHEAD};
use gks_server::http::{parse_request, HttpResponse};
use gks_server::{ServeConfig, ServeState};
use proptest::prelude::*;

fn arb_word() -> impl Strategy<Value = String> {
    prop::sample::select(vec!["alpha", "beta", "gamma", "delta", "epsilon"])
        .prop_map(str::to_string)
}

fn arb_doc() -> impl Strategy<Value = String> {
    prop::collection::vec(prop::collection::vec(arb_word(), 1..4), 1..8).prop_map(|records| {
        let mut xml = String::from("<root>");
        for rec in records {
            xml.push_str("<rec>");
            for w in rec {
                xml.push_str(&format!("<w>{w}</w>"));
            }
            xml.push_str("</rec>");
        }
        xml.push_str("</root>");
        xml
    })
}

fn state_for(xml: &str, cache_bytes: usize) -> ServeState {
    let corpus = Corpus::from_named_strs([("t", xml)]).unwrap();
    let engine = Arc::new(Engine::build(&corpus, IndexOptions::default()).unwrap());
    let config = ServeConfig { cache_bytes, ..ServeConfig::default() };
    ServeState::new(engine, config).unwrap()
}

fn get(state: &ServeState, target: &str) -> HttpResponse {
    let request = parse_request(&format!("GET {target} HTTP/1.1\r\n\r\n")).unwrap();
    state.handle(&request, Instant::now())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Cached bytes == fresh bytes, for /search and /suggest alike.
    #[test]
    fn cached_response_byte_equals_fresh(
        xml in arb_doc(),
        kws in prop::collection::hash_set(arb_word(), 1..4),
        s in 1usize..3,
        suggest in prop::sample::select(vec![false, true]),
    ) {
        let words: Vec<String> = kws.into_iter().collect();
        let target = format!(
            "/{}?q={}&s={s}",
            if suggest { "suggest" } else { "search" },
            words.join("+"),
        );
        let cached = state_for(&xml, 1 << 20);
        let miss = get(&cached, &target);
        let hit = get(&cached, &target);
        let uncached = state_for(&xml, 0);
        let fresh = get(&uncached, &target);
        prop_assert_eq!(miss.status, 200);
        prop_assert_eq!(hit.status, 200);
        prop_assert_eq!(&miss.body, &hit.body, "hit must replay the miss bytes");
        prop_assert_eq!(&miss.body, &fresh.body, "cache must be invisible");
    }

    /// LRU invariants under random put/get interleavings: accounted bytes
    /// never exceed capacity, a fitting insert is immediately readable at
    /// its exact length, and an oversized insert is skipped.
    #[test]
    fn lru_accounting_holds_under_random_workloads(
        ops in prop::collection::vec((0u8..16, 0usize..200), 1..200),
    ) {
        let capacity = ENTRY_OVERHEAD * 8;
        let cache = ResultCache::new(capacity, 1, 0);
        for (key_id, value_len) in ops {
            let key = format!("k{key_id:02}");
            let value: Arc<[u8]> = vec![b'x'; value_len].into();
            cache.put(key.clone(), value);
            let stats = cache.stats();
            prop_assert!(stats.bytes <= capacity, "{} > {capacity}", stats.bytes);
            let charge = key.len() + value_len + ENTRY_OVERHEAD;
            if charge <= capacity {
                prop_assert!(cache.get(&key).is_some(), "fitting insert must be readable");
                prop_assert_eq!(cache.get(&key).map(|v| v.len()), Some(value_len));
            } else {
                prop_assert!(cache.get(&key).is_none(), "oversized insert must be skipped");
            }
        }
    }
}
