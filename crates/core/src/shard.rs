//! The gather half of sharded search: merging per-shard answers into one
//! response that is byte-identical, on the wire, to the unsharded engine's.
//!
//! A corpus split by document (see `gks_index::shard`) yields shards whose
//! local answers compose losslessly: no corpus-global statistic enters the
//! potential-flow rank (§5), the sweep, or SLCA-style pruning — every
//! quantity a hit carries is a function of the hit's own subtree and the
//! query. A node's rank in its shard therefore equals its rank in the
//! monolithic index, and gathering reduces to:
//!
//! 1. **remap** each shard-local [`DocId`] to its global id by adding the
//!    shard's document base; a hit's node-table row stays the shard's;
//! 2. **re-sort** the union of per-shard hits with the exact final
//!    comparator of [`crate::search`] (rank desc, keyword count desc,
//!    document order) and re-truncate to the request's limit — per-shard
//!    top-k lists are supersets of their slice of the global top-k;
//! 3. **union** the bookkeeping: `sl_len` sums, `missing` keywords are the
//!    per-index intersection (a keyword is absent globally iff absent from
//!    every shard), and DI observation walks the merged rank order against
//!    each hit's owning shard so refinement terms match the unsharded
//!    engine (see [`crate::di::DiAccumulator`]).

use std::sync::Arc;

use gks_dewey::{DeweyId, DocId};
use gks_index::{GksIndex, IndexError, ShardEntry, ShardManifest, ShardView, DEAD_DOC};
use gks_trace::{span, SpanKind};

use crate::cost::CostLedger;
use crate::di::{DiAccumulator, DiOptions, Insight};
use crate::engine::Engine;
use crate::error::QueryError;
use crate::query::Query;
use crate::search::{Hit, Response, SearchOptions};

/// How one shard's local document ids renumber into global ids.
///
/// A frozen, contiguous shard set (PR 5's `gks index --shards`) uses plain
/// [`DocMap::Base`] offsets. Once a manifest carries deltas and tombstones
/// the tiling has holes — a shard's live documents map to the *manifest
/// document table's* numbering (which tracks what a full rebuild would
/// assign) — and each shard carries an explicit [`DocMap::Table`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DocMap {
    /// `global = local + base`: the dense, nothing-deleted case.
    Base(u32),
    /// Explicit per-local mapping, with an inverse for gather lookups.
    Table {
        /// `forward[local] = global`, or `gks_index::DEAD_DOC` for a
        /// tombstoned local id (which can never appear in a masked
        /// engine's answer).
        forward: Vec<u32>,
        /// `(global, local)` pairs sorted by global id.
        inverse: Vec<(u32, u32)>,
    },
}

impl DocMap {
    /// A dense base-offset map.
    pub fn base(base: u32) -> DocMap {
        DocMap::Base(base)
    }

    /// An explicit map from a `forward[local] = global` table (dead locals
    /// hold `gks_index::DEAD_DOC`); builds the inverse index.
    pub fn table(forward: Vec<u32>) -> DocMap {
        let mut inverse: Vec<(u32, u32)> = forward
            .iter()
            .enumerate()
            .filter(|&(_, &g)| g != DEAD_DOC)
            .map(|(local, &g)| (g, u32::try_from(local).unwrap_or(DEAD_DOC)))
            .collect();
        inverse.sort_unstable();
        DocMap::Table { forward, inverse }
    }

    /// The global id of shard-local document `local`, if it is live.
    pub fn to_global(&self, local: u32) -> Option<u32> {
        match self {
            DocMap::Base(base) => local.checked_add(*base),
            DocMap::Table { forward, .. } => {
                forward.get(local as usize).copied().filter(|&g| g != DEAD_DOC)
            }
        }
    }

    /// The shard-local id of global document `global`, if this shard owns
    /// it.
    pub fn to_local(&self, global: u32) -> Option<u32> {
        match self {
            DocMap::Base(base) => global.checked_sub(*base),
            DocMap::Table { inverse, .. } => inverse
                .binary_search_by_key(&global, |&(g, _)| g)
                .ok()
                .and_then(|i| inverse.get(i).map(|&(_, l)| l)),
        }
    }
}

/// A merged (gathered) response plus the per-hit shard provenance the wire
/// and DI layers need to resolve paths and attributes in the owning shard.
#[derive(Debug, Clone)]
pub struct ShardedResponse {
    response: Response,
    /// `origins[i]` is the shard ordinal that produced `response.hits()[i]`.
    origins: Vec<usize>,
    /// Local→global document renumbering of each shard, by shard ordinal.
    doc_maps: Vec<DocMap>,
    /// Each shard's own cost ledger, by shard ordinal (the merged response
    /// carries their sum).
    shard_costs: Vec<CostLedger>,
}

impl ShardedResponse {
    /// The merged response. Hits carry **global** document ids and are
    /// ranked exactly as the unsharded engine would rank them.
    pub fn response(&self) -> &Response {
        &self.response
    }

    /// Mutable access to the merged response — the server folds
    /// request-level cost (DI attributes, cache probes, rendered bytes)
    /// into the gathered ledger through this.
    pub fn response_mut(&mut self) -> &mut Response {
        &mut self.response
    }

    /// The shard ordinal that produced hit `i` (0 for out-of-range `i`).
    pub fn origin(&self, i: usize) -> usize {
        self.origins.get(i).copied().unwrap_or(0)
    }

    /// Hit `i`'s id in its owning shard's own document numbering — what
    /// node-table and attribute-store lookups against that shard expect.
    pub fn local_node(&self, i: usize) -> DeweyId {
        let Some(hit) = self.response.hits().get(i) else {
            return DeweyId::root(DocId(0));
        };
        let local = self
            .doc_maps
            .get(self.origin(i))
            .and_then(|m| m.to_local(hit.node.doc().0))
            .unwrap_or(0);
        DeweyId::from_slice(DocId(local), hit.node.steps())
    }

    /// Number of shards that contributed to the scatter.
    pub fn fan_out(&self) -> usize {
        self.doc_maps.len()
    }

    /// Each shard's own cost ledger, in shard order — the per-shard
    /// breakdown the explain surface renders. Their field-wise sum is the
    /// merged response's ledger.
    pub fn shard_costs(&self) -> &[CostLedger] {
        &self.shard_costs
    }
}

fn remap_hit(hit: &Hit, map: &DocMap) -> Hit {
    Hit {
        // A masked engine cannot emit a dead document, so the lookup only
        // misses on a corrupted map; `DEAD_DOC` keeps the hit visible (and
        // sorted last) rather than silently dropped.
        node: DeweyId::new(
            DocId(map.to_global(hit.node.doc().0).unwrap_or(DEAD_DOC)),
            hit.node.steps().to_vec(),
        ),
        row: hit.row,
        kind: hit.kind,
        keyword_mask: hit.keyword_mask,
        keyword_count: hit.keyword_count,
        rank: hit.rank,
    }
}

/// Merges per-shard answers (each paired with its shard's [`DocMap`], in
/// shard order) into one [`ShardedResponse`] truncated to `limit`. All
/// answers must come from the same query against shards of one corpus; the
/// first answer supplies the keyword list and resolved `s` (identical
/// across shards by construction). Errors only on an empty answer set.
pub fn merge_responses(
    answers: Vec<(DocMap, Response)>,
    limit: usize,
) -> Result<ShardedResponse, QueryError> {
    if answers.is_empty() {
        return Err(QueryError::Empty);
    }
    let shard_count = answers.len();
    let keywords = answers[0].1.keywords().to_vec();
    let s = answers[0].1.s();
    let n = keywords.len();

    // A keyword is missing globally iff it is missing from every shard.
    let mut missing_counts = vec![0usize; n];
    let mut sl_len = 0usize;
    let mut elapsed_micros = 0u64;
    let mut cost = CostLedger::default();
    let mut shard_costs = Vec::with_capacity(shard_count);
    for (_, r) in &answers {
        for &i in r.missing_keyword_indices() {
            if let Some(c) = missing_counts.get_mut(i) {
                *c += 1;
            }
        }
        sl_len += r.sl_len();
        // Shards search in parallel: merged wall-clock is the straggler's.
        elapsed_micros = elapsed_micros.max(r.elapsed_micros());
        // Every ledger counter is a per-document sum and shards partition
        // the documents, so the gathered ledger is the plain field-wise sum
        // — and equals the unsharded engine's ledger exactly.
        cost.add(r.cost());
        shard_costs.push(r.cost().clone());
    }
    let missing: Vec<usize> = missing_counts
        .iter()
        .enumerate()
        .filter(|&(_, &c)| c == shard_count)
        .map(|(i, _)| i)
        .collect();

    let mut doc_maps = Vec::with_capacity(shard_count);
    let mut merged: Vec<(Hit, usize)> = Vec::new();
    for (ordinal, (map, r)) in answers.iter().enumerate() {
        merged.extend(r.hits().iter().map(|h| (remap_hit(h, map), ordinal)));
        doc_maps.push(map.clone());
    }
    // The exact final comparator of crate::search — shards cover disjoint
    // document ranges, so the document-order tie-break stays total.
    merged.sort_by(|(a, _), (b, _)| {
        b.rank
            .partial_cmp(&a.rank)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then_with(|| b.keyword_count.cmp(&a.keyword_count))
            .then_with(|| a.node.cmp(&b.node))
    });
    merged.truncate(limit);

    let mut hits = Vec::with_capacity(merged.len());
    let mut origins = Vec::with_capacity(merged.len());
    for (hit, ordinal) in merged {
        hits.push(hit);
        origins.push(ordinal);
    }
    let response = Response::from_parts(keywords, s, hits, sl_len, elapsed_micros, missing, cost);
    Ok(ShardedResponse { response, origins, doc_maps, shard_costs })
}

/// Runs a sharded search sequentially: one search per shard engine, then a
/// gather under a [`SpanKind::Gather`] span. `doc_bases[i]` is shard `i`'s
/// global document base (the dense, nothing-deleted tiling; see
/// [`sharded_search_mapped`] for delta-carrying shard sets). The parallel
/// scatter lives in the server; this entry point serves the CLI,
/// benchmarks, and equivalence tests.
pub fn sharded_search(
    shards: &[&Engine],
    doc_bases: &[u32],
    query: &Query,
    options: SearchOptions,
) -> Result<ShardedResponse, QueryError> {
    let maps: Vec<DocMap> = (0..shards.len())
        .map(|i| DocMap::base(doc_bases.get(i).copied().unwrap_or(0)))
        .collect();
    sharded_search_mapped(shards, &maps, query, options)
}

/// [`sharded_search`] with explicit per-shard [`DocMap`]s — the entry
/// point for manifest-backed shard sets carrying deltas and tombstones.
pub fn sharded_search_mapped(
    shards: &[&Engine],
    doc_maps: &[DocMap],
    query: &Query,
    options: SearchOptions,
) -> Result<ShardedResponse, QueryError> {
    let mut answers = Vec::with_capacity(shards.len());
    for (i, engine) in shards.iter().enumerate() {
        let map = doc_maps.get(i).cloned().unwrap_or(DocMap::Base(0));
        answers.push((map, engine.search(query, options)?));
    }
    let _gather = span(SpanKind::Gather);
    merge_responses(answers, options.limit)
}

/// One shard of a manifest as queries see it: its index — `open` when the
/// caller already holds the index of the file now at `entry.path`, loaded
/// from `entry.path` otherwise — behind the view's tombstone mask, paired
/// with the view's [`DocMap`].
pub fn shard_engine(
    entry: &ShardEntry,
    view: ShardView,
    open: Option<Arc<GksIndex>>,
) -> Result<(Engine, DocMap), IndexError> {
    let index = match open {
        Some(index) => index,
        None => Arc::new(GksIndex::load(&entry.path)?),
    };
    let map = match view.doc_map {
        Some(forward) => DocMap::table(forward),
        None => DocMap::base(view.doc_base),
    };
    Ok((Engine::from_shared(index, view.tombstones), map))
}

/// Loads every shard of a manifest into a tombstone-masked [`Engine`]
/// paired with its [`DocMap`], in shard order — the read side of the
/// incremental update path. Shard paths must already be resolved (see
/// `ShardManifest::load`).
pub fn load_manifest_engines(
    manifest: &ShardManifest,
) -> Result<Vec<(Engine, DocMap)>, IndexError> {
    load_manifest_engines_with(manifest, |_| None)
}

/// [`load_manifest_engines`] reusing indexes the caller already holds:
/// `reuse(entry)` must return the open index only while the file at
/// `entry.path` is the one it was opened from (a shard path can be
/// rewritten in place, e.g. by `gks index --shards N`), and only entries it
/// declines are read from disk. A manifest re-read after a delta commit
/// then opens the new delta shard and re-wraps every other shard with the
/// new tombstone mask and document map.
pub fn load_manifest_engines_with(
    manifest: &ShardManifest,
    reuse: impl Fn(&ShardEntry) -> Option<Arc<GksIndex>>,
) -> Result<Vec<(Engine, DocMap)>, IndexError> {
    manifest
        .shards
        .iter()
        .zip(manifest.shard_views())
        .map(|(entry, view)| shard_engine(entry, view, reuse(entry)))
        .collect()
}

/// DI over a merged response: observes hits in global rank order, each
/// read in its owning shard through its shard-local row, so insight
/// values, weights, supports, and order match [`crate::di::discover_di`] on
/// the unsharded engine.
pub fn discover_di_sharded(
    shards: &[&GksIndex],
    sharded: &ShardedResponse,
    options: &DiOptions,
) -> Vec<Insight> {
    discover_di_sharded_counted(shards, sharded, options).0
}

/// [`discover_di_sharded`] plus the number of attribute entries evaluated —
/// the `di_attrs` term of the request's [`CostLedger`]. Hits are observed in
/// the same global rank order as the unsharded pipeline, so the count equals
/// [`crate::di::discover_di_counted`]'s on the equivalent monolithic engine.
pub fn discover_di_sharded_counted(
    shards: &[&GksIndex],
    sharded: &ShardedResponse,
    options: &DiOptions,
) -> (Vec<Insight>, u64) {
    let _di_span = span(SpanKind::Di);
    let mut acc = DiAccumulator::new(sharded.response(), options);
    for (i, hit) in sharded.response().hits().iter().enumerate() {
        if let Some(index) = shards.get(sharded.origin(i)) {
            acc.observe(index, hit);
        }
    }
    let attrs = acc.attrs_evaluated();
    gks_trace::annotate("di_attrs", attrs);
    (acc.finish(), attrs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::search::Threshold;
    use crate::wire;
    use gks_index::{split_corpus, Corpus, IndexOptions};

    fn corpus() -> Corpus {
        let mut c = Corpus::new();
        for i in 0..6 {
            let who = if i % 2 == 0 { "Karen" } else { "Mike" };
            c.push(
                format!("doc{i}"),
                format!(
                    "<course><name>Course {i}</name><students>\
                     <student>{who}</student><student>Alex</student></students></course>"
                ),
            );
        }
        c
    }

    fn engines_for(parts: &[Corpus]) -> Vec<Engine> {
        parts
            .iter()
            .map(|p| Engine::build(p, IndexOptions::default()).unwrap())
            .collect()
    }

    fn bases_for(parts: &[Corpus]) -> Vec<u32> {
        let mut bases = Vec::new();
        let mut base = 0u32;
        for p in parts {
            bases.push(base);
            base += p.len() as u32;
        }
        bases
    }

    #[test]
    fn sharded_search_matches_unsharded_wire_bytes() {
        let c = corpus();
        let whole = Engine::build(&c, IndexOptions::default()).unwrap();
        let query = Query::parse("karen alex").unwrap();
        let options = SearchOptions { s: Threshold::Fixed(1), limit: 4 };
        let expected = whole.search(&query, options).unwrap();
        let expected_json = wire::search_response_json(&whole, &expected);

        for shards in [2, 3] {
            let parts = split_corpus(&c, shards);
            let engines = engines_for(&parts);
            let refs: Vec<&Engine> = engines.iter().collect();
            let merged = sharded_search(&refs, &bases_for(&parts), &query, options).unwrap();
            assert_eq!(merged.fan_out(), shards);
            let got_json = wire::search_response_json_sharded(&refs, &merged);
            assert_eq!(got_json, expected_json, "{shards} shards");
        }
    }

    #[test]
    fn missing_is_the_intersection_across_shards() {
        let c = corpus();
        let parts = split_corpus(&c, 2);
        let engines = engines_for(&parts);
        let refs: Vec<&Engine> = engines.iter().collect();
        // "karen" only appears in even documents — present in both shards'
        // slices; "zzz" appears nowhere.
        let query = Query::parse("karen zzz").unwrap();
        let options = SearchOptions { s: Threshold::Fixed(1), limit: usize::MAX };
        let merged = sharded_search(&refs, &bases_for(&parts), &query, options).unwrap();
        assert_eq!(merged.response().missing_keyword_indices(), &[1]);
        let whole = Engine::build(&c, IndexOptions::default()).unwrap();
        let expected = whole.search(&query, options).unwrap();
        assert_eq!(merged.response().missing_keyword_indices(), expected.missing_keyword_indices());
        assert_eq!(merged.response().sl_len(), expected.sl_len());
    }

    #[test]
    fn local_nodes_round_trip_through_the_doc_base() {
        let c = corpus();
        let parts = split_corpus(&c, 3);
        let engines = engines_for(&parts);
        let refs: Vec<&Engine> = engines.iter().collect();
        let query = Query::parse("karen").unwrap();
        let options = SearchOptions { s: Threshold::Fixed(1), limit: usize::MAX };
        let merged = sharded_search(&refs, &bases_for(&parts), &query, options).unwrap();
        assert!(!merged.response().hits().is_empty());
        let bases = bases_for(&parts);
        for (i, hit) in merged.response().hits().iter().enumerate() {
            let local = merged.local_node(i);
            let base = bases[merged.origin(i)];
            assert_eq!(local.doc().0 + base, hit.node.doc().0);
            assert_eq!(local.steps(), hit.node.steps());
        }
    }

    #[test]
    fn sharded_di_matches_unsharded() {
        // Documents 3–5 spell the shared student differently, so the group
        // <course: students: student: alex> is opened under one shard's ids
        // and continued under another's, and its displayed value is
        // whichever spelling ranks first globally.
        let mut c = Corpus::new();
        for i in 0..6 {
            let who = if i % 2 == 0 { "Karen" } else { "Mike" };
            let alex = if i < 3 { "Alex" } else { "ALEX" };
            c.push(
                format!("doc{i}"),
                format!(
                    "<course><name>Course {i}</name><students>\
                     <student>{who}</student><student>{alex}</student></students></course>"
                ),
            );
        }
        let whole = Engine::build(&c, IndexOptions::default()).unwrap();
        let query = Query::parse("karen mike").unwrap();
        let options = SearchOptions { s: Threshold::Fixed(1), limit: usize::MAX };
        let expected = whole.search(&query, options).unwrap();
        let di_options = DiOptions { top_m: 20 };
        let (expected_di, expected_attrs) =
            crate::di::discover_di_counted(whole.index(), &expected, &di_options);
        assert!(expected_di.iter().any(|i| i.support == 6), "alex spans every shard");

        // One shard too: a set of one goes through the same entry point.
        for shards in 1..=4 {
            let parts = split_corpus(&c, shards);
            let engines = engines_for(&parts);
            let refs: Vec<&Engine> = engines.iter().collect();
            let merged = sharded_search(&refs, &bases_for(&parts), &query, options).unwrap();
            let indexes: Vec<&GksIndex> = engines.iter().map(Engine::index).collect();
            let (got_di, got_attrs) = discover_di_sharded_counted(&indexes, &merged, &di_options);
            assert_eq!(got_attrs, expected_attrs, "{shards} shards");
            assert_eq!(got_di.len(), expected_di.len(), "{shards} shards");
            for (g, e) in got_di.iter().zip(&expected_di) {
                assert_eq!(g.value, e.value, "{shards} shards");
                assert_eq!(g.path, e.path, "{shards} shards");
                assert_eq!(g.support, e.support, "{shards} shards");
                // One slot per group, summed in rank order: not close, equal.
                assert_eq!(g.weight.to_bits(), e.weight.to_bits(), "{shards} shards");
            }
        }
    }

    #[test]
    fn gathered_ledger_equals_unsharded_ledger() {
        let c = corpus();
        let whole = Engine::build(&c, IndexOptions::default()).unwrap();
        let query = Query::parse("karen alex").unwrap();
        let options = SearchOptions { s: Threshold::Fixed(1), limit: usize::MAX };
        let expected = whole.search(&query, options).unwrap();
        for shards in [2, 3] {
            let parts = split_corpus(&c, shards);
            let engines = engines_for(&parts);
            let refs: Vec<&Engine> = engines.iter().collect();
            let merged = sharded_search(&refs, &bases_for(&parts), &query, options).unwrap();
            assert_eq!(merged.response().cost(), expected.cost(), "{shards} shards");
            let mut summed = CostLedger::default();
            for ledger in merged.shard_costs() {
                summed.add(ledger);
            }
            assert_eq!(&summed, merged.response().cost(), "shard ledgers sum to the gather");
        }
    }

    #[test]
    fn merge_of_nothing_is_an_error() {
        assert!(merge_responses(Vec::new(), 10).is_err());
    }
}
