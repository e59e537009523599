//! # gks-core — Generic Keyword Search over XML data
//!
//! The paper's primary contribution (Agarwal, Ramamritham, Agarwal, *Generic
//! Keyword Search over XML Data*, EDBT 2016): for a keyword query
//! `Q = {k1 … kn}` and a threshold `s ≤ n`, return **every** XML node whose
//! subtree contains at least `s` distinct query keywords — not just the
//! lowest common ancestors of all of them — organized around *Least Common
//! Entity* nodes, ranked with a potential-flow model, and analyzed for
//! *Deeper Analytical Insights* that drive query refinement.
//!
//! Modules, following the paper's structure:
//!
//! * [`query`] — keyword queries (terms and quoted phrases);
//! * [`postlist`] / [`merge`] — per-keyword posting lists and the merged
//!   document-ordered list `SL` (§4.1);
//! * [`window`] — the sliding window of `s` unique keywords → LCP candidate
//!   list (§4.1, Figures 4–5);
//! * [`sweep`] — exact matched-keyword sets, potential-flow ranks (§5) and
//!   entity witnesses (§4.2) in one pass over `SL`;
//! * [`search`] — the full GKS search pipeline (Figure 6);
//! * [`shard`] — the gather half of sharded search: lossless merge of
//!   per-shard answers from a document-partitioned corpus;
//! * [`di`] — Deeper Analytical Insights, plain and recursive (§2.3, §6.2);
//! * [`refine`] — query refinement suggestions (§6.1);
//! * [`analytics`] — response analytics: group-bys and facets over the
//!   answer set (the paper's "analytics over raw XML data" future work);
//! * [`cost`] — per-request work accounting: the [`cost::CostLedger`]
//!   every response carries and the explain surfaces render;
//! * [`wire`] — the deterministic JSON wire format shared by the CLI's
//!   `--json` mode and the `gks-serve` HTTP endpoints;
//! * [`json`] — the matching JSON reader used by round-trip tests and the
//!   smoke tooling;
//! * [`engine`] — the [`engine::Engine`] facade tying it all together;
//! * [`executor`] — the persistent per-shard worker lanes the server's
//!   scatter rides on (spawn threads once, fan out over queues).

pub mod analytics;
pub mod chunk;
pub mod cost;
pub mod di;
pub mod engine;
pub mod error;
pub mod executor;
pub mod json;
pub mod merge;
pub mod postlist;
pub mod query;
pub mod refine;
pub mod search;
pub mod shard;
pub mod sweep;
pub mod window;
pub mod wire;

pub use analytics::ResponseAnalytics;
pub use cost::CostLedger;
pub use di::{DiOptions, Insight};
pub use engine::Engine;
pub use error::QueryError;
pub use executor::ShardExecutor;
pub use query::Query;
pub use search::{Hit, HitKind, Response, SearchOptions, Threshold};
pub use shard::{
    discover_di_sharded, discover_di_sharded_counted, load_manifest_engines, merge_responses,
    sharded_search, sharded_search_mapped, DocMap, ShardedResponse,
};
