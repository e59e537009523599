//! Search against a reference: `Engine::search` runs the window, the LCE
//! derivation, the statistics sweep and the assembly on node-table rows.
//! This file keeps those steps in the Dewey-id form they were first written
//! in — attribute promotion by walking ids from the document root, LCEs by
//! `lowest_entity_ancestor_or_self`, the sweep's root path rebuilt from
//! `ancestor_at_depth` ids, statistics found by a binary search over sorted
//! ids, pruning bounded by `subtree_upper_bound` — and checks that both give
//! the same hits, ranks to the bit, and the same cost ledger.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use gks_core::merge::{merge_posting_lists_counted, SlEntry};
use gks_core::postlist::keyword_postings_counted;
use gks_core::shard::sharded_search;
use gks_core::{CostLedger, Engine, HitKind, Query, Response, SearchOptions, Threshold};
use gks_dewey::DeweyId;
use gks_index::{split_corpus, Corpus, GksIndex, IndexOptions, NodeTable};
use proptest::prelude::*;

/// One hit as the comparison sees it: node, kind, mask, rank bits.
type HitKey = (DeweyId, HitKind, u64, u64);

/// Everything a search answers that must agree.
#[derive(Debug, PartialEq)]
struct Answer {
    hits: Vec<HitKey>,
    sl_len: usize,
    missing: Vec<usize>,
    cost: CostLedger,
}

impl Answer {
    fn of(response: &Response) -> Answer {
        for h in response.hits() {
            assert_eq!(h.keyword_count, h.keyword_mask.count_ones(), "count of {}", h.node);
        }
        Answer {
            hits: response
                .hits()
                .iter()
                .map(|h| (h.node.clone(), h.kind, h.keyword_mask, h.rank.to_bits()))
                .collect(),
            sl_len: response.sl_len(),
            missing: response.missing_keyword_indices().to_vec(),
            cost: response.cost().clone(),
        }
    }
}

/// Statistics of one node: mask, rank, witnessed.
#[derive(Debug, Clone, Copy)]
struct Stats {
    mask: u64,
    rank: f64,
    witnessed: bool,
}

/// The search, steps 3–6 on Dewey ids.
fn reference_search(
    index: &GksIndex,
    dead: &[u32],
    query: &Query,
    options: SearchOptions,
) -> Answer {
    let table = index.node_table();
    let keywords = query.normalized(index.analyzer());
    let n = keywords.len();
    let s = options.s.resolve(n).unwrap();
    let mut cost = CostLedger::default();
    let lists: Vec<Vec<DeweyId>> = keywords
        .iter()
        .map(|k| keyword_postings_counted(index, dead, k, &mut cost))
        .collect();
    let missing: Vec<usize> =
        lists.iter().enumerate().filter(|(_, l)| l.is_empty()).map(|(i, _)| i).collect();
    let (sl, heap_ops) = merge_posting_lists_counted(lists);
    cost.heap_ops = heap_ops;

    let candidates = window(table, &sl, s, n);
    let lce_of: Vec<Option<DeweyId>> =
        candidates.iter().map(|c| table.lowest_entity_ancestor_or_self(c)).collect();
    let mut lces: Vec<DeweyId> = lce_of.iter().flatten().cloned().collect();
    lces.sort_unstable();
    lces.dedup();
    let mut stat_nodes: Vec<DeweyId> = candidates.iter().chain(&lces).cloned().collect();
    stat_nodes.sort();
    stat_nodes.dedup();
    let (stats, advances) = sweep(table, &sl, &stat_nodes, n);
    cost.sweep_advances = advances;
    cost.rank_candidates = stat_nodes.len() as u64;

    let stat_of = |node: &DeweyId| stat_nodes.binary_search(node).ok().map(|i| stats[i]);
    let count = |st: &Stats| st.mask.count_ones() as usize;
    let survives = |st: &Stats| st.witnessed && count(st) >= s;
    let mut hits: Vec<(DeweyId, HitKind, Stats)> = Vec::new();
    for lce in &lces {
        if let Some(st) = stat_of(lce).filter(survives) {
            hits.push((lce.clone(), HitKind::Lce, st));
        }
    }
    for (c, lce) in candidates.iter().zip(&lce_of) {
        if lce.as_ref().and_then(stat_of).is_some_and(|st| survives(&st)) {
            continue;
        }
        if let Some(st) = stat_of(c).filter(|st| count(st) >= s) {
            hits.push((c.clone(), HitKind::Lcp, st));
        }
    }
    hits.sort_by(|a, b| a.0.cmp(&b.0));
    let mut keep = vec![true; hits.len()];
    for i in 0..hits.len() {
        if hits[i].1 != HitKind::Lcp {
            continue;
        }
        let upper = hits[i].0.subtree_upper_bound();
        let mut union = 0u64;
        let mut any = false;
        for h in hits.iter().skip(i + 1).take_while(|h| h.0 < upper) {
            union |= h.2.mask;
            any = true;
        }
        if any && union & hits[i].2.mask == hits[i].2.mask {
            keep[i] = false;
        }
    }
    let mut hits: Vec<(DeweyId, HitKind, Stats)> =
        hits.into_iter().zip(keep).filter(|(_, k)| *k).map(|(h, _)| h).collect();
    hits.sort_by(|a, b| {
        b.2.rank
            .partial_cmp(&a.2.rank)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then_with(|| b.2.mask.count_ones().cmp(&a.2.mask.count_ones()))
            .then_with(|| a.0.cmp(&b.0))
    });
    hits.truncate(options.limit);
    Answer {
        hits: hits
            .into_iter()
            .map(|(node, kind, st)| (node, kind, st.mask, st.rank.to_bits()))
            .collect(),
        sl_len: sl.len(),
        missing,
        cost,
    }
}

/// The sliding window over Dewey ids, promoting each block's LCP past
/// attribute nodes by id.
fn window(table: &NodeTable, sl: &[SlEntry], s: usize, n: usize) -> Vec<DeweyId> {
    let mut counts = vec![0u32; n];
    let mut unique = 0usize;
    let mut out: Vec<DeweyId> = Vec::new();
    let mut r = 0usize;
    for l in 0..sl.len() {
        while unique < s && r < sl.len() {
            let kw = sl[r].1 as usize;
            if counts[kw] == 0 {
                unique += 1;
            }
            counts[kw] += 1;
            r += 1;
        }
        if unique < s {
            break;
        }
        if let Some(prefix) = sl[l].0.common_prefix(&sl[r - 1].0) {
            out.push(promote_attribute(table, prefix));
        }
        let kw = sl[l].1 as usize;
        counts[kw] -= 1;
        if counts[kw] == 0 {
            unique -= 1;
        }
    }
    out.sort_unstable();
    out.dedup();
    out
}

/// Promotes an attribute-node candidate to its parent (Def 2.1.1).
fn promote_attribute(table: &NodeTable, mut id: DeweyId) -> DeweyId {
    while table.get(&id).is_some_and(|m| m.flags.is_attribute()) {
        match id.parent() {
            Some(parent) => id = parent,
            None => break,
        }
    }
    id
}

/// The statistics sweep over Dewey ids: the active candidate stack by
/// `is_ancestor_or_self`, and each new root-path prefix looked up from the
/// document root as an `ancestor_at_depth` id.
fn sweep(table: &NodeTable, sl: &[SlEntry], nodes: &[DeweyId], n: usize) -> (Vec<Stats>, u64) {
    let mut mask = vec![0u64; nodes.len()];
    let mut min_depth = vec![u32::MAX; nodes.len() * n];
    let mut prod_sum = vec![0f64; nodes.len() * n];
    let mut witnessed = vec![false; nodes.len()];
    let mut stack: Vec<usize> = Vec::new();
    let mut next = 0usize;
    let mut advances = 0u64;
    let mut prods: Vec<f64> = vec![1.0];
    let mut entity_depth: Vec<Option<usize>> = Vec::new();
    let mut described: Option<&DeweyId> = None;
    for (entry, kw) in sl {
        let kw = *kw as usize;
        while next < nodes.len() && nodes[next] <= *entry {
            while stack.last().is_some_and(|&t| !nodes[t].is_ancestor_or_self(&nodes[next])) {
                stack.pop();
            }
            stack.push(next);
            next += 1;
        }
        while stack.last().is_some_and(|&t| !nodes[t].is_ancestor_or_self(entry)) {
            stack.pop();
        }
        if stack.is_empty() {
            continue;
        }
        let keep = described.and_then(|p| p.common_prefix_len(entry)).map_or(0, |k| k + 1);
        prods.truncate(keep + 1);
        entity_depth.truncate(keep);
        for t in keep..=entry.depth() {
            let meta = table.get(&entry.ancestor_at_depth(t));
            let children = meta.map_or(1, |m| m.child_count).max(1);
            let last = *prods.last().unwrap();
            prods.push(last / children as f64);
            let enclosing = entity_depth.last().copied().flatten();
            entity_depth.push(if meta.is_some_and(|m| m.flags.is_entity()) {
                Some(t)
            } else {
                enclosing
            });
        }
        described = Some(entry);
        let d_entry = entry.depth();
        advances += stack.len() as u64;
        for &idx in &stack {
            mask[idx] |= 1 << kw;
            let p = prods[d_entry] / prods[nodes[idx].depth()];
            let slot = idx * n + kw;
            let depth = d_entry as u32;
            match depth.cmp(&min_depth[slot]) {
                std::cmp::Ordering::Less => {
                    min_depth[slot] = depth;
                    prod_sum[slot] = p;
                }
                std::cmp::Ordering::Equal => prod_sum[slot] += p,
                std::cmp::Ordering::Greater => {}
            }
        }
        if let Some(nearest) = entity_depth[d_entry] {
            if let Some(&idx) = stack.iter().rev().find(|&&i| nodes[i].depth() == nearest) {
                witnessed[idx] = true;
            }
        }
    }
    let stats = (0..nodes.len())
        .map(|i| {
            let sum: f64 = prod_sum[i * n..(i + 1) * n].iter().sum();
            Stats {
                mask: mask[i],
                rank: mask[i].count_ones() as f64 * sum,
                witnessed: witnessed[i],
            }
        })
        .collect();
    (stats, advances)
}

const WORDS: [&str; 5] = ["alpha", "beta", "gamma", "delta", "omega"];

/// One random document from an instruction stream: repeating `<w>` leaves
/// of one or two words, `<name>` leaves and XML attributes (attribute nodes,
/// which make their parents entities), nested groups, and eight-deep
/// `<c>` chains that push ids past the six inline steps.
fn random_doc(ops: &[(u8, u8)]) -> String {
    const GROUPS: [&str; 3] = ["rec", "grp", "item"];
    let mut xml = String::from("<top>");
    let mut open: Vec<&str> = Vec::new();
    for &(op, arg) in ops {
        let word = WORDS[arg as usize % WORDS.len()];
        let other = WORDS[(arg as usize / WORDS.len()) % WORDS.len()];
        match op % 9 {
            0 | 1 => xml.push_str(&format!("<w>{word}</w>")),
            2 => xml.push_str(&format!("<w>{word} {other}</w>")),
            3 => xml.push_str(&format!("<name>{word} {other}</name>")),
            4 | 5 => {
                let tag = GROUPS[arg as usize % GROUPS.len()];
                if arg % 2 == 0 {
                    xml.push_str(&format!("<{tag} kind=\"{other}\">"));
                } else {
                    xml.push_str(&format!("<{tag}>"));
                }
                open.push(tag);
            }
            6 | 7 => {
                if let Some(tag) = open.pop() {
                    xml.push_str(&format!("</{tag}>"));
                }
            }
            _ => {
                xml.push_str(&"<c>".repeat(8));
                open.resize(open.len() + 8, "c");
            }
        }
    }
    while let Some(tag) = open.pop() {
        xml.push_str(&format!("</{tag}>"));
    }
    xml.push_str("</top>");
    xml
}

fn corpus_of(docs: &[String]) -> Corpus {
    Corpus::from_named_strs(docs.iter().enumerate().map(|(i, x)| (format!("d{i}"), x.as_str())))
        .unwrap()
}

fn build(docs: &[String]) -> GksIndex {
    GksIndex::build(&corpus_of(docs), IndexOptions::default()).unwrap()
}

/// Keywords: the words, tag names (a tag keyword posts the element, so the
/// same node can post for two keywords) and two-word phrases.
const POOL: [&str; 11] = [
    "alpha",
    "beta",
    "gamma",
    "delta",
    "omega",
    "w",
    "name",
    "rec",
    "c",
    "alpha beta",
    "gamma delta",
];

/// Checks the engine against the reference for every `s` in `1..=|Q|`.
fn check(engine: &Engine, query: &Query, limit: usize) -> Result<(), TestCaseError> {
    for s in 1..=query.len() {
        let options = SearchOptions { s: Threshold::Fixed(s), limit };
        let got = Answer::of(&engine.search(query, options).unwrap());
        let want = reference_search(engine.index(), engine.tombstones(), query, options);
        prop_assert_eq!(got, want, "query {} s={} limit={}", query, s, limit);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Multi-document corpora, ids deeper than six steps, attribute nodes,
    /// phrases, tag keywords, tombstone masks, every `s` and a limit that
    /// sometimes cuts the ranking.
    #[test]
    fn search_on_rows_equals_the_dewey_reference(
        docs in prop::collection::vec(prop::collection::vec((0u8..9, 0u8..25), 0..50), 1..5),
        picks in prop::collection::vec(0usize..POOL.len(), 1..=6),
        dead_bits in 0u8..16,
        limit in prop::sample::select(vec![usize::MAX, usize::MAX, 1, 3, 8]),
    ) {
        let xmls: Vec<String> = docs.iter().map(|ops| random_doc(ops)).collect();
        let index = Arc::new(build(&xmls));
        let query = Query::from_keywords(picks.iter().map(|&i| POOL[i])).unwrap();
        let dead: Vec<u32> = (0..xmls.len() as u32).filter(|d| dead_bits & (1 << d) != 0).collect();
        check(&Engine::from_shared(Arc::clone(&index), Vec::new()), &query, limit)?;
        check(&Engine::from_shared(index, dead), &query, limit)?;
    }
}

/// Every hit's row names its id in the engine that answered, for every `s`.
fn check_rows(engine: &Engine, query: &Query) -> Result<(), TestCaseError> {
    for s in 1..=query.len() {
        let response = engine.search(query, SearchOptions::with_s(s)).unwrap();
        for hit in response.hits() {
            let id = engine.index().node_table().id(hit.row);
            prop_assert_eq!(id.as_ref(), Some(&hit.node), "row {} s={}", hit.row, s);
        }
    }
    Ok(())
}

static CASE: AtomicUsize = AtomicUsize::new(0);

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// `Hit::row` and `Hit::node` name the same node: built, reopened from
    /// disk, behind a tombstone mask, and in a gathered response, where the
    /// row is local to the hit's shard and the id global.
    #[test]
    fn hit_rows_name_the_hit_ids(
        docs in prop::collection::vec(prop::collection::vec((0u8..9, 0u8..25), 0..50), 1..5),
        picks in prop::collection::vec(0usize..POOL.len(), 1..=4),
        dead_bits in 0u8..16,
        shards in 2usize..4,
    ) {
        let xmls: Vec<String> = docs.iter().map(|ops| random_doc(ops)).collect();
        let query = Query::from_keywords(picks.iter().map(|&i| POOL[i])).unwrap();
        let dead: Vec<u32> = (0..xmls.len() as u32).filter(|d| dead_bits & (1 << d) != 0).collect();
        let built = Arc::new(build(&xmls));
        let path = std::env::temp_dir().join(format!(
            "gks-hit-rows-{}-{}.gksix",
            std::process::id(),
            CASE.fetch_add(1, Ordering::Relaxed)
        ));
        built.save(&path).unwrap();
        let reopened = Arc::new(GksIndex::load(&path).unwrap());
        std::fs::remove_file(&path).unwrap();
        for index in [built, reopened] {
            check_rows(&Engine::from_shared(Arc::clone(&index), Vec::new()), &query)?;
            check_rows(&Engine::from_shared(index, dead.clone()), &query)?;
        }

        let parts = split_corpus(&corpus_of(&xmls), shards);
        let engines: Vec<Engine> =
            parts.iter().map(|p| Engine::build(p, IndexOptions::default()).unwrap()).collect();
        let refs: Vec<&Engine> = engines.iter().collect();
        let bases: Vec<u32> = parts
            .iter()
            .scan(0u32, |base, p| {
                let this = *base;
                *base += p.len() as u32;
                Some(this)
            })
            .collect();
        let merged = sharded_search(&refs, &bases, &query, SearchOptions::with_s(1)).unwrap();
        for (i, hit) in merged.response().hits().iter().enumerate() {
            let id = refs[merged.origin(i)].index().node_table().id(hit.row);
            prop_assert_eq!(id, Some(merged.local_node(i)), "hit {}", i);
        }
    }
}

/// Fixed corpora whose answers include a hit deeper than six steps and an
/// attribute candidate lifted to its parent, so the inputs the proptest
/// draws from are known to reach both.
#[test]
fn deep_and_attribute_hits_agree() {
    let deep = format!(
        "<top><rec kind=\"omega\"><w>alpha</w><w>beta</w></rec>{}<grp kind=\"delta\"><w>alpha</w><w>gamma</w>\
         <w>beta</w></grp>{}</top>",
        "<c>".repeat(8),
        "</c>".repeat(8)
    );
    let engine = Engine::from_index(build(&[deep]));
    let query = Query::parse("alpha beta gamma omega").unwrap();
    let hits = Answer::of(&engine.search(&query, SearchOptions::with_s(3)).unwrap()).hits;
    assert!(hits.iter().any(|h| h.0.depth() > 6), "a hit past the inline steps: {hits:?}");
    check(&engine, &query, usize::MAX).unwrap();

    // `<name>` is an attribute node and `<top>` no entity (it has no
    // repeating group), so the block inside the name value is answered by
    // `<top>` itself, as a plain LCP hit.
    let attr =
        Engine::from_index(build(&["<top><name>alpha beta</name><t>gamma</t></top>".into()]));
    let query = Query::parse("alpha beta").unwrap();
    let hits = Answer::of(&attr.search(&query, SearchOptions::with_s(2)).unwrap()).hits;
    let root = DeweyId::root(gks_dewey::DocId(0));
    assert_eq!(
        hits.iter().map(|h| (&h.0, h.1)).collect::<Vec<_>>(),
        vec![(&root, HitKind::Lcp)]
    );
    check(&attr, &query, usize::MAX).unwrap();
}
