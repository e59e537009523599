//! Experiment harness for the GKS paper's evaluation (§7).
//!
//! Every table and figure of the paper has a corresponding experiment module
//! that regenerates it over the synthetic corpora (see DESIGN.md §4 for the
//! per-experiment index):
//!
//! | paper artifact | module |
//! |---|---|
//! | Table 1 (+Example 5)        | [`experiments::table1`] |
//! | Table 4 (index size/time)   | [`experiments::table4`] |
//! | Table 5 (node census)       | [`experiments::table5`] |
//! | Figure 8 (RT vs \|SL\|)     | [`experiments::fig8`] |
//! | Figure 9 (RT vs n)          | [`experiments::fig9`] |
//! | Figure 10 (RT vs data size) | [`experiments::fig10`] |
//! | Table 7 (GKS vs SLCA)       | [`experiments::table7`] |
//! | Table 8 (DI)                | [`experiments::table8`] |
//! | §7.5 (crowd feedback)       | [`experiments::feedback`] |
//! | §7.6 (hybrid queries)       | [`experiments::hybrid`] |
//! | Lemma 3 (naive blow-up)     | [`experiments::lemma3`] |
//!
//! Beyond the paper, quality numbers: [`experiments::ablation`] (ranking
//! models incl. the §3 XRank/TF-IDF baselines), [`experiments::quality`]
//! (precision/recall vs generator ground truth), [`experiments::analyzer`]
//! (stemming/stop-word ablation), [`experiments::di_quality`] (DI vs true
//! co-author ranking). Engineering performance — latency, throughput,
//! memory, per-layer cost — is measured by the `perf/` benchmark, not here.
//!
//! Run them with `cargo run --release -p gks-bench --bin experiments -- all`.

// Not an engine library crate: unwrap/expect on deterministic, known-good
// data is acceptable here. The hard panic-free rule is scoped to the
// engine crates and enforced by `cargo xtask lint` (see docs/ANALYSIS.md).
#![allow(clippy::unwrap_used, clippy::expect_used)]

pub mod assessor;
pub mod experiments;
pub mod rankscore;
pub mod table;
pub mod workloads;

use std::time::Instant;

use gks_core::engine::Engine;
use gks_core::query::Query;
use gks_core::search::{Response, SearchOptions};

/// Runs a search `reps` times and returns (median wall-clock µs, response).
/// The response's own `elapsed_micros` covers a single run; the median over
/// repetitions is what the RT experiments report (it also absorbs the
/// first-touch decode of each term's posting run, which the first
/// repetition over a fresh index pays).
pub fn timed_search(
    engine: &Engine,
    query: &Query,
    options: SearchOptions,
    reps: usize,
) -> (u64, Response) {
    let mut times: Vec<u64> = Vec::with_capacity(reps.max(1));
    let mut response = None;
    for _ in 0..reps.max(1) {
        let start = Instant::now();
        let r = engine.search(query, options).expect("search");
        times.push(start.elapsed().as_micros() as u64);
        response = Some(r);
    }
    times.sort_unstable();
    (times[times.len() / 2], response.expect("at least one rep"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use gks_index::{Corpus, IndexOptions};

    #[test]
    fn timed_search_returns_median_and_response() {
        let corpus = Corpus::from_named_strs([("t", "<r><a>xray</a></r>")]).unwrap();
        let e = Engine::build(&corpus, IndexOptions::default()).unwrap();
        let q = Query::parse("xray").unwrap();
        let (us, resp) = timed_search(&e, &q, SearchOptions::with_s(1), 5);
        assert!(us < 1_000_000);
        assert_eq!(resp.hits().len(), 1);
    }
}
