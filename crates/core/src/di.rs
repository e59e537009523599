//! Deeper Analytical Insights (paper §2.3, §6.2).
//!
//! For the LCE nodes in a response `RQ(s)`, GKS assembles the weighted
//! keyword set `Sw_Q`: every attribute value of every LCE node, weighted by
//! the sum of the ranks of the LCE nodes that carry it. "Each attribute node
//! is assigned a weight equal to the rank of its LCE node" — rank-weighting
//! (rather than raw popularity) is what makes `<journal: SIGMOD Record>`
//! beat `<booktitle: ICPP>` in the paper's Example 2 discussion. The top-m
//! weighted keywords, each with the element path that gives it its
//! *semantics* (`<ip: year: 2001>`), are the DI.
//!
//! DI can be applied recursively: the top-m insight values are fed back as a
//! query, producing `R^r_Q(s)` and deeper insights (§2.3 steps i–iii).
//!
//! # How it is computed
//!
//! The aggregation key is (entity label, element path, normalised value).
//! All three are ids in the index's attribute store
//! (`gks_index::attrstore`): the value was analysed once, at build time,
//! and its norm id stands for its analysed terms. So the rank-weighted
//! group-by is integer work — one hash lookup on four `u32`s and one
//! `weight += rank` per attribute entry — and no string is built until the
//! top-m survivors are known.
//!
//! Each group accumulates into a single slot, in response rank order. A
//! sharded gather feeds hits from several indexes, whose ids are unrelated;
//! a key first seen in a second index is matched to an existing slot by
//! hashing and comparing the strings the ids stand for, after which its ids
//! map straight to that slot. Per-shard partial sums merged at the end
//! would be simpler, but `f64` addition is not associative: the weights
//! would differ in the last bits from the unsharded engine's, and the
//! sharded ≡ unsharded byte equality the gather promises would be lost.

use std::cmp::Ordering;
use std::collections::hash_map::Entry;
use std::hash::Hasher;

use gks_dewey::DeweyId;
use gks_index::attrstore::AttrSource;
use gks_index::fasthash::{FastMap, FxHasher};
use gks_index::GksIndex;

use crate::error::QueryError;
use crate::query::{Keyword, Query};
use crate::search::{search, Hit, HitKind, Response, SearchOptions};

/// Options for DI extraction.
#[derive(Debug, Clone)]
pub struct DiOptions {
    /// How many top-weighted insights to return (`m`; "m is tunable").
    pub top_m: usize,
    /// Include repeating text nodes (author lists etc.) as insight sources,
    /// as the paper's DBLP examples do. When `false`, only true attribute
    /// nodes contribute.
    pub include_repeating_text: bool,
    /// Consider at most this many top-ranked LCE hits (caps DI cost on huge
    /// responses; `usize::MAX` = all).
    pub max_hits: usize,
}

impl Default for DiOptions {
    fn default() -> Self {
        DiOptions { top_m: 5, include_repeating_text: true, max_hits: usize::MAX }
    }
}

/// One discovered insight: a data keyword plus its schema semantics.
#[derive(Debug, Clone)]
pub struct Insight {
    /// The attribute value, as written in the data (e.g. `SIGMOD Record`).
    pub value: String,
    /// Element names from the LCE node down to the value (e.g.
    /// `["inproceedings", "journal"]`) — the keyword's semantics.
    pub path: Vec<String>,
    /// Aggregated weight: sum of the ranks of the LCE hits carrying this
    /// value under this path.
    pub weight: f64,
    /// In how many LCE hits the value occurred.
    pub support: usize,
}

impl Insight {
    /// The paper's display form: `<entity: path: value>`.
    pub fn display(&self) -> String {
        let mut out = String::from("<");
        for p in &self.path {
            out.push_str(p);
            out.push_str(": ");
        }
        out.push_str(&self.value);
        out.push('>');
        out
    }
}

/// One index a [`DiAccumulator`] has been fed hits from.
#[derive(Debug)]
struct Source<'a> {
    index: &'a GksIndex,
    /// Per norm id of this index: `None` until a value with that norm is
    /// met, then whether such values are kept (non-empty after analysis and
    /// not restating the query).
    kept: Vec<Option<bool>>,
}

/// One aggregation group.
#[derive(Debug)]
struct Slot {
    /// Ordinal (into `DiAccumulator::sources`) of the index the group was
    /// first seen in; the ids below are that index's.
    source: u32,
    /// The first-seen raw value — what the insight displays.
    value: u32,
    label: u32,
    path: u32,
    norm: u32,
    weight: f64,
    support: usize,
}

/// Incremental DI aggregation — the body of [`discover_di`], factored so a
/// sharded gather (see [`crate::shard`]) can feed hits resolved against
/// several shard indexes while preserving the exact aggregation, first-seen
/// raw-value choice, and ordering of the unsharded path. It borrows the
/// response and every index it is fed; see the [module docs](self) for the
/// algorithm.
#[derive(Debug)]
pub struct DiAccumulator<'a> {
    /// Normalized query terms, to exclude query keywords from Sw_Q ("if a
    /// keyword in the attribute node is part of the user query Q, it is not
    /// included").
    query_terms: Vec<&'a str>,
    sources: Vec<Source<'a>>,
    slots: Vec<Slot>,
    /// (source ordinal, entity label id, path id, norm id) → the group's
    /// slot, or `None` for a norm that is not kept.
    by_ids: FastMap<(u32, u32, u32, u32), Option<u32>>,
    /// Hash of a group's label, path and norm *strings* → slot. Filled only
    /// once a second index is observed; colliding groups probe linearly
    /// through the hash space.
    by_text: FastMap<u64, u32>,
    top_m: usize,
    include_repeating_text: bool,
    max_hits: usize,
    observed: usize,
    attrs_evaluated: u64,
}

/// The element names of a group's path, entity label first.
fn path_names(index: &GksIndex, label: u32, path: u32) -> impl Iterator<Item = &str> {
    let labels = index.node_table().labels();
    std::iter::once(label)
        .chain(index.attr_store().path(path).iter().copied())
        .map(move |l| labels.name(l))
}

/// The raw value a slot displays, in the index it was first seen in.
fn slot_value<'s>(sources: &'s [Source<'_>], slot: &Slot) -> &'s str {
    sources
        .get(slot.source as usize)
        .map_or("", |s| s.index.attr_store().value(slot.value))
}

/// [`path_names`] of a slot, in the index it was first seen in.
fn slot_path<'s>(sources: &'s [Source<'_>], slot: &'s Slot) -> impl Iterator<Item = &'s str> {
    let source = sources.get(slot.source as usize);
    source.into_iter().flat_map(move |s| path_names(s.index, slot.label, slot.path))
}

fn text_hash(index: &GksIndex, label: u32, path: u32, norm: u32) -> u64 {
    let mut hasher = FxHasher::default();
    for name in path_names(index, label, path) {
        hasher.write(name.as_bytes());
        hasher.write_u8(0xff);
    }
    hasher.write(index.attr_store().norm(norm).as_bytes());
    hasher.finish()
}

impl<'a> DiAccumulator<'a> {
    /// Starts an accumulation for `response`'s query under `options`.
    pub fn new(response: &'a Response, options: &DiOptions) -> DiAccumulator<'a> {
        DiAccumulator {
            query_terms: response
                .keywords()
                .iter()
                .flat_map(|k| k.terms().iter().map(String::as_str))
                .collect(),
            sources: Vec::new(),
            slots: Vec::new(),
            by_ids: FastMap::default(),
            by_text: FastMap::default(),
            top_m: options.top_m,
            include_repeating_text: options.include_repeating_text,
            max_hits: options.max_hits,
            observed: 0,
            attrs_evaluated: 0,
        }
    }

    /// How many attribute-store entries [`observe`](Self::observe) has
    /// inspected so far — the DI term of the request's
    /// [`CostLedger`](crate::CostLedger). Counted per entry *considered*
    /// (before the repeating-text and query-restating filters), so the
    /// number reflects work done, not insights kept.
    pub fn attrs_evaluated(&self) -> u64 {
        self.attrs_evaluated
    }

    /// The ordinal of `index` among the indexes observed so far, by
    /// identity. Observing a second index starts the text table: from then
    /// on a new group may already have a slot under another index's ids.
    fn source_of(&mut self, index: &'a GksIndex) -> u32 {
        if let Some(i) = self.sources.iter().position(|s| std::ptr::eq(s.index, index)) {
            return i as u32;
        }
        self.sources
            .push(Source { index, kept: vec![None; index.attr_store().norms().len()] });
        if self.sources.len() == 2 {
            let first = self.sources[0].index;
            for (slot, i) in self.slots.iter().zip(0u32..) {
                let mut hash = text_hash(first, slot.label, slot.path, slot.norm);
                // Slots of one index differ in their ids, and an index's
                // tables hold each string once, so no two share a text.
                while self.by_text.contains_key(&hash) {
                    hash = hash.wrapping_add(1);
                }
                self.by_text.insert(hash, i);
            }
        }
        (self.sources.len() - 1) as u32
    }

    /// Feeds one hit, resolved against `index` via `node` — the hit's id in
    /// `index`'s own document numbering (shard-local for sharded search,
    /// `hit.node` itself otherwise). Hits must arrive in response rank
    /// order; every call counts toward `max_hits`, matching the unsharded
    /// pipeline where non-LCE hits consume budget without contributing.
    pub fn observe(&mut self, index: &'a GksIndex, hit: &Hit, node: &DeweyId) {
        if self.observed >= self.max_hits {
            return;
        }
        self.observed += 1;
        if hit.kind != HitKind::Lce {
            return;
        }
        let store = index.attr_store();
        let entries = index.entries(node);
        if entries.is_empty() {
            return;
        }
        let source = self.source_of(index);
        let label = entries.label();
        for entry in entries.ids() {
            self.attrs_evaluated += 1;
            if entry.source == AttrSource::RepeatingText && !self.include_repeating_text {
                continue;
            }
            let norm = store.norm_of(entry.value);
            let slot = match self.by_ids.entry((source, label, entry.path, norm)) {
                Entry::Occupied(seen) => *seen.get(),
                Entry::Vacant(unseen) => *unseen.insert(new_group(
                    &self.query_terms,
                    &mut self.sources,
                    &mut self.slots,
                    &mut self.by_text,
                    Slot {
                        source,
                        value: entry.value,
                        label,
                        path: entry.path,
                        norm,
                        weight: 0.0,
                        support: 0,
                    },
                )),
            };
            if let Some(slot) = slot.and_then(|i| self.slots.get_mut(i as usize)) {
                slot.weight += hit.rank;
                slot.support += 1;
            }
        }
    }

    /// Finishes the accumulation: selects the top-m by (weight desc, support
    /// desc, value asc, path asc) and builds only those insights. Distinct
    /// groups differ in value or path, so the order is total — a function
    /// of the data, not of hash-map capacity or observation order.
    pub fn finish(self) -> Vec<Insight> {
        let DiAccumulator { sources, mut slots, top_m, .. } = self;
        if top_m == 0 {
            return Vec::new();
        }
        let by_rank = |a: &Slot, b: &Slot| {
            b.weight
                .partial_cmp(&a.weight)
                .unwrap_or(Ordering::Equal)
                .then_with(|| b.support.cmp(&a.support))
                .then_with(|| slot_value(&sources, a).cmp(slot_value(&sources, b)))
                .then_with(|| slot_path(&sources, a).cmp(slot_path(&sources, b)))
        };
        if slots.len() > top_m {
            slots.select_nth_unstable_by(top_m - 1, by_rank);
            slots.truncate(top_m);
        }
        slots.sort_unstable_by(by_rank);
        slots
            .iter()
            .map(|slot| Insight {
                value: slot_value(&sources, slot).to_string(),
                path: slot_path(&sources, slot).map(str::to_string).collect(),
                weight: slot.weight,
                support: slot.support,
            })
            .collect()
    }
}

/// Resolves a key met for the first time under `new`'s ids: `None` when its
/// norm is not kept, an existing slot when another index already opened the
/// same group, otherwise a fresh slot.
fn new_group(
    query_terms: &[&str],
    sources: &mut [Source<'_>],
    slots: &mut Vec<Slot>,
    by_text: &mut FastMap<u64, u32>,
    new: Slot,
) -> Option<u32> {
    let sharded = sources.len() > 1;
    let source = sources.get_mut(new.source as usize)?;
    let index = source.index;
    // The query-restating test runs once per distinct norm per query.
    let kept = *source.kept.get_mut(new.norm as usize)?.get_or_insert_with(|| {
        let norm = index.attr_store().norm(new.norm);
        !norm.is_empty() && !norm.split(' ').any(|term| query_terms.contains(&term))
    });
    if !kept {
        return None;
    }
    let id = u32::try_from(slots.len()).ok()?;
    if sharded {
        let mut hash = text_hash(index, new.label, new.path, new.norm);
        while let Some(&other) = by_text.get(&hash) {
            let same = slots.get(other as usize).is_some_and(|slot| {
                slot_path(sources, slot).eq(path_names(index, new.label, new.path))
                    && sources.get(slot.source as usize).is_some_and(|s| {
                        s.index.attr_store().norm(slot.norm) == index.attr_store().norm(new.norm)
                    })
            });
            if same {
                return Some(other);
            }
            hash = hash.wrapping_add(1);
        }
        by_text.insert(hash, id);
    }
    slots.push(new);
    Some(id)
}

/// Extracts DI from a response's LCE hits.
pub fn discover_di(index: &GksIndex, response: &Response, options: &DiOptions) -> Vec<Insight> {
    discover_di_counted(index, response, options).0
}

/// [`discover_di`] plus the number of attribute entries evaluated — the
/// `di_attrs` term of the request's [`CostLedger`](crate::CostLedger).
pub fn discover_di_counted(
    index: &GksIndex,
    response: &Response,
    options: &DiOptions,
) -> (Vec<Insight>, u64) {
    let _di_span = gks_trace::span(gks_trace::SpanKind::Di);
    let mut acc = DiAccumulator::new(response, options);
    for hit in response.hits() {
        acc.observe(index, hit, &hit.node);
    }
    let attrs = acc.attrs_evaluated();
    gks_trace::annotate("di_attrs", attrs);
    (acc.finish(), attrs)
}

/// One round of recursive DI.
#[derive(Debug, Clone)]
pub struct DiRound {
    /// The query this round searched (round 0 = the user query).
    pub query: Query,
    /// The response it produced.
    pub response: Response,
    /// The insights extracted from it.
    pub insights: Vec<Insight>,
}

/// Recursive DI (§2.3): run the query, extract DI, feed the top-m insight
/// values back as the next query, `rounds` times. Stops early when a round
/// yields no insights.
pub fn recursive_di(
    index: &GksIndex,
    query: &Query,
    search_options: SearchOptions,
    di_options: &DiOptions,
    rounds: usize,
) -> Result<Vec<DiRound>, QueryError> {
    let mut out = Vec::new();
    let mut current = query.clone();
    for _ in 0..=rounds {
        let response = search(index, &current, search_options)?;
        let insights = discover_di(index, &response, di_options);
        let next_keywords: Vec<String> = insights.iter().map(|i| i.value.clone()).collect();
        out.push(DiRound { query: current.clone(), response, insights });
        if next_keywords.is_empty() || out.len() > rounds {
            break;
        }
        current = Query::from_keywords(next_keywords)?;
    }
    Ok(out)
}

/// Convenience: the raw spellings of keywords matched nowhere, used by
/// refinement messages.
pub fn missing_keywords(response: &Response) -> Vec<&Keyword> {
    response
        .missing_keyword_indices()
        .iter()
        .map(|&i| &response.keywords()[i])
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use gks_index::{Corpus, IndexOptions};

    fn dblp_index() -> GksIndex {
        // Mirrors the Example 2 situation: three authors co-publish in
        // SIGMOD Record 2001; a fourth (Banerjee) publishes a lot in ICPP,
        // alone.
        let mut xml = String::from("<dblp>");
        for i in 0..3 {
            xml.push_str(&format!(
                "<inproceedings><title>Joint {i}</title>\
                 <author>Peter Buneman</author><author>Wenfei Fan</author>\
                 <author>Scott Weinstein</author>\
                 <journal>SIGMOD Record</journal><year>2001</year></inproceedings>"
            ));
        }
        for i in 0..6 {
            xml.push_str(&format!(
                "<inproceedings><title>Solo {i}</title>\
                 <author>Prithviraj Banerjee</author><author>Filler Person</author>\
                 <booktitle>ICPP</booktitle><year>1999</year></inproceedings>"
            ));
        }
        xml.push_str("</dblp>");
        let corpus = Corpus::from_named_strs([("dblp", xml)]).unwrap();
        GksIndex::build(&corpus, IndexOptions::default()).unwrap()
    }

    fn example2_response(ix: &GksIndex) -> Response {
        let q =
            Query::parse(r#""Peter Buneman" "Wenfei Fan" "Scott Weinstein" "Prithviraj Banerjee""#)
                .unwrap();
        search(ix, &q, SearchOptions::with_s(1)).unwrap()
    }

    #[test]
    fn rank_weighting_prefers_sigmod_over_icpp() {
        // ICPP is the most *popular* attribute (6 articles) but SIGMOD
        // Record is relevant to three query authors at once — rank-weighted
        // DI must put SIGMOD Record above ICPP (paper §6.2's central
        // example).
        let ix = dblp_index();
        let r = example2_response(&ix);
        let di = discover_di(&ix, &r, &DiOptions { top_m: 10, ..Default::default() });
        let pos = |needle: &str| {
            di.iter()
                .position(|i| i.value.contains(needle))
                .unwrap_or_else(|| panic!("{needle} not in DI: {di:?}"))
        };
        assert!(pos("SIGMOD") < pos("ICPP"), "{di:#?}");
    }

    #[test]
    fn di_excludes_query_keywords() {
        let ix = dblp_index();
        let r = example2_response(&ix);
        let di = discover_di(&ix, &r, &DiOptions { top_m: 50, ..Default::default() });
        assert!(di.iter().all(|i| !i.value.contains("Buneman")));
        assert!(di.iter().all(|i| !i.value.contains("Banerjee")));
    }

    #[test]
    fn di_paths_expose_semantics() {
        let ix = dblp_index();
        let r = example2_response(&ix);
        let di = discover_di(&ix, &r, &DiOptions { top_m: 20, ..Default::default() });
        let year = di.iter().find(|i| i.value == "2001").expect("year insight");
        assert_eq!(year.path, vec!["inproceedings", "year"]);
        assert_eq!(year.display(), "<inproceedings: year: 2001>");
    }

    #[test]
    fn repeating_text_sources_can_be_excluded() {
        let ix = dblp_index();
        let r = example2_response(&ix);
        let opts = DiOptions { top_m: 50, include_repeating_text: false, ..Default::default() };
        let di = discover_di(&ix, &r, &opts);
        // Co-author names come from repeating <author> nodes.
        assert!(di.iter().all(|i| i.path.last().map(String::as_str) != Some("author")));
        // Attribute-node insights (journal, year, title) remain.
        assert!(di.iter().any(|i| i.value == "2001"));
    }

    #[test]
    fn recursive_di_runs_multiple_rounds() {
        let ix = dblp_index();
        let q = Query::parse(r#""Peter Buneman""#).unwrap();
        let rounds = recursive_di(
            &ix,
            &q,
            SearchOptions::with_s(1),
            &DiOptions { top_m: 2, ..Default::default() },
            2,
        )
        .unwrap();
        assert!(rounds.len() >= 2, "initial round plus at least one recursion");
        assert_eq!(rounds[0].query, q);
        // The second round queries the first round's insight values.
        let first_values: Vec<&str> = rounds[0].insights.iter().map(|i| i.value.as_str()).collect();
        for kw in rounds[1].query.keywords() {
            assert!(first_values.contains(&kw.raw()));
        }
    }

    #[test]
    fn di_counts_attribute_entries_evaluated() {
        let ix = dblp_index();
        let r = example2_response(&ix);
        let (di, attrs) = discover_di_counted(&ix, &r, &DiOptions::default());
        assert!(!di.is_empty());
        // Every LCE hit carries at least title/journal-or-booktitle/year
        // attribute entries, and evaluation counts filtered entries too, so
        // the count strictly exceeds the kept-insight count.
        assert!(attrs as usize >= di.len(), "{attrs} evaluated vs {} kept", di.len());
        assert!(attrs > 0);
        let q = Query::parse("zzznothing").unwrap();
        let empty = search(&ix, &q, SearchOptions::with_s(1)).unwrap();
        assert_eq!(discover_di_counted(&ix, &empty, &DiOptions::default()).1, 0);
    }

    #[test]
    fn insights_tying_at_the_top_m_cut_are_ordered_by_path() {
        // The same year and authors under two entity types, each matching
        // the query once with the same rank: every insight ties on weight
        // and support, and `2001` ties on value too. Which `2001` survives
        // the cut must not depend on which document DI met first.
        let publication = |tag: &str| {
            format!(
                "<{tag}><title>xml</title><author>Ann Lee</author>\
                 <author>Bob Ray</author><year>2001</year></{tag}>"
            )
        };
        let di_for = |first: &str, second: &str, top_m: usize| {
            let xml = format!("<dblp>{}{}</dblp>", publication(first), publication(second));
            let corpus = Corpus::from_named_strs([("dblp", xml)]).unwrap();
            let ix = GksIndex::build(&corpus, IndexOptions::default()).unwrap();
            let q = Query::parse("xml").unwrap();
            let r = search(&ix, &q, SearchOptions::with_s(1)).unwrap();
            assert_eq!(r.hits().len(), 2);
            assert_eq!(r.hits()[0].rank.to_bits(), r.hits()[1].rank.to_bits(), "a real tie");
            let di = discover_di(&ix, &r, &DiOptions { top_m, ..Default::default() });
            di.iter().map(Insight::display).collect::<Vec<_>>()
        };
        for (first, second) in [("article", "inproceedings"), ("inproceedings", "article")] {
            assert_eq!(di_for(first, second, 1), ["<article: year: 2001>"]);
            assert_eq!(
                di_for(first, second, 3),
                [
                    "<article: year: 2001>",
                    "<inproceedings: year: 2001>",
                    "<article: author: Ann Lee>"
                ]
            );
        }
    }

    #[test]
    fn empty_response_yields_no_di() {
        let ix = dblp_index();
        let q = Query::parse("zzz").unwrap();
        let r = search(&ix, &q, SearchOptions::with_s(1)).unwrap();
        assert!(discover_di(&ix, &r, &DiOptions::default()).is_empty());
    }
}
