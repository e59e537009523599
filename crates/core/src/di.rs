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
//! and its norm id stands for its analysed terms. The store numbers each
//! distinct key of the index as a *group* and gives every attribute entry
//! its group id. So the rank-weighted group-by is integer work that reads
//! no string: each index fed has a dense array from its group ids to
//! slots, and an attribute entry costs one read of that array and one
//! `weight += rank`. A hit names its entity by node-table row
//! ([`Hit::row`]), so no id is walked either, and no string is built until
//! the top-m survivors are known.
//!
//! The group column is derived in one pass over the whole attribute slab,
//! which an index reopened for a handful of queries would pay for on every
//! reopen. So an index whose column is not derived yet is read by key: a
//! per-query hash map from (label, path, norm) to slot, the norm read from
//! the entry's value. The store counts those reads and derives the column
//! once they add up to its slab (`AttrStore::groups_ready`), when reading
//! by key has cost about what deriving does. Both ways name the same
//! groups, so they give the same insights to the bit.
//!
//! A value that analyses to nothing, or one of whose terms is a query
//! term, is left out of `Sw_Q`. That test reads the norm's text, so it is
//! deferred to [`DiAccumulator::finish`]: the best m groups are selected,
//! the restating ones dropped, and the next best fill the gap until m are
//! kept. The test depends on the norm alone and the order is total, so the
//! result is the one filtering every entry first would give.
//!
//! Each group accumulates into a single slot, in response rank order. A
//! sharded gather feeds hits from several indexes, whose ids are unrelated;
//! a group first seen in a second index is matched to an existing slot by
//! hashing and comparing the strings its key stands for, after which its
//! group id leads straight to that slot. As that reads the norm's text
//! anyway, the restating test runs there at first sight: once a second
//! index is observed, a new group that restates the query is marked
//! dropped and never hashed. Per-shard partial sums merged at the end would
//! be simpler, but `f64` addition is not associative: the weights would
//! differ in the last bits from the unsharded engine's, and the sharded ≡
//! unsharded byte equality the gather promises would be lost.

use std::cmp::Ordering;
use std::hash::Hasher;

use gks_index::fasthash::{FastMap, FxHasher};
use gks_index::{GksIndex, GroupKey};

use crate::error::QueryError;
use crate::query::Query;
use crate::search::{search, Hit, HitKind, Response, SearchOptions};

/// Options for DI extraction.
#[derive(Debug, Clone)]
pub struct DiOptions {
    /// How many top-weighted insights to return (`m`; "m is tunable").
    pub top_m: usize,
}

impl Default for DiOptions {
    fn default() -> Self {
        DiOptions { top_m: 5 }
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

/// One observed index's groups → slots: a slot id, [`UNSEEN`] or
/// [`DROPPED`] per group.
#[derive(Debug)]
enum SlotMap {
    /// By group id, once the index's group column is derived.
    ByGroup(Vec<u32>),
    /// By key, while it is not (see `AttrStore::groups_ready`): an index
    /// that answers only a few queries never pays for the derivation.
    ByKey(FastMap<GroupKey, u32>),
}

/// A group not met yet in a [`SlotMap`].
const UNSEEN: u32 = u32::MAX;

/// The slot of a group left out at first sight; no slot has this id.
const DROPPED: u32 = u32::MAX - 1;

/// One aggregation group.
#[derive(Debug)]
struct Slot {
    /// Ordinal (into `DiAccumulator::sources`) of the index the group was
    /// first seen in; the ids below are that index's.
    source: u32,
    /// The first-seen raw value — what the insight displays.
    value: u32,
    key: GroupKey,
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
    /// Every index observed so far, in order of first sight.
    sources: Vec<&'a GksIndex>,
    /// Per observed index: its groups' slots.
    slot_maps: Vec<SlotMap>,
    slots: Vec<Slot>,
    /// Hash of a group's label, path and norm *strings* → slot. Filled only
    /// once a second index is observed; colliding groups probe linearly
    /// through the hash space.
    by_text: FastMap<u64, u32>,
    top_m: usize,
    attrs_evaluated: u64,
}

/// The element names of a group's path, entity label first.
fn path_names(index: &GksIndex, key: GroupKey) -> impl Iterator<Item = &str> {
    let labels = index.node_table().labels();
    std::iter::once(key.label)
        .chain(index.attr_store().path(key.path).iter().copied())
        .map(move |l| labels.name(l))
}

/// The raw value a slot displays, in the index it was first seen in.
fn slot_value<'s>(sources: &[&'s GksIndex], slot: &Slot) -> &'s str {
    sources
        .get(slot.source as usize)
        .map_or("", |s| s.attr_store().value(slot.value))
}

/// [`path_names`] of a slot, in the index it was first seen in.
fn slot_path<'s>(sources: &[&'s GksIndex], slot: &Slot) -> impl Iterator<Item = &'s str> {
    let source = sources.get(slot.source as usize).copied();
    let key = slot.key;
    source.into_iter().flat_map(move |s| path_names(s, key))
}

fn text_hash(index: &GksIndex, key: GroupKey) -> u64 {
    let mut hasher = FxHasher::default();
    for name in path_names(index, key) {
        hasher.write(name.as_bytes());
        hasher.write_u8(0xff);
    }
    hasher.write(index.attr_store().norm(key.norm).as_bytes());
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
            slot_maps: Vec::new(),
            slots: Vec::new(),
            by_text: FastMap::default(),
            top_m: options.top_m,
            attrs_evaluated: 0,
        }
    }

    /// How many attribute-store entries [`observe`](Self::observe) has
    /// inspected so far — the DI term of the request's
    /// [`CostLedger`](crate::CostLedger). Counted per entry *considered*
    /// (before the query-restating filter), so the number reflects work
    /// done, not insights kept.
    pub fn attrs_evaluated(&self) -> u64 {
        self.attrs_evaluated
    }

    /// The ordinal of `index` among the indexes observed so far, by
    /// identity. Observing a second index starts the text table: from then
    /// on a new group may already have a slot under another index's ids.
    fn source_of(&mut self, index: &'a GksIndex) -> u32 {
        if let Some(i) = self.sources.iter().position(|&s| std::ptr::eq(s, index)) {
            return i as u32;
        }
        let store = index.attr_store();
        self.slot_maps.push(if store.groups_ready() {
            SlotMap::ByGroup(vec![UNSEEN; store.group_count()])
        } else {
            SlotMap::ByKey(FastMap::default())
        });
        self.sources.push(index);
        if self.sources.len() == 2 {
            let first = self.sources[0];
            for (slot, i) in self.slots.iter().zip(0u32..) {
                let mut hash = text_hash(first, slot.key);
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

    /// Feeds one hit of `index`'s: its [`Hit::row`] names the entity in
    /// `index`'s node table (a shard's, for a gathered hit). Hits must
    /// arrive in response rank order; only LCE hits contribute.
    pub fn observe(&mut self, index: &'a GksIndex, hit: &Hit) {
        if hit.kind != HitKind::Lce {
            return;
        }
        let store = index.attr_store();
        let entries = store.entries_at(hit.row);
        if entries.is_empty() {
            return;
        }
        self.attrs_evaluated += entries.len() as u64;
        let source = self.source_of(index);
        let Some(slot_map) = self.slot_maps.get_mut(source as usize) else {
            return;
        };
        // A group's slot is opened the first time the group is met; with
        // the column derived, its key is read only then.
        match slot_map {
            SlotMap::ByGroup(slot_of) => {
                for (entry, &group) in entries.ids().iter().zip(entries.groups()) {
                    let Some(known) = slot_of.get_mut(group as usize) else {
                        continue;
                    };
                    if *known == UNSEEN {
                        let Some(key) = store.group(group) else {
                            continue;
                        };
                        let new = Slot { source, value: entry.value, key, weight: 0.0, support: 0 };
                        *known = new_group(
                            &self.query_terms,
                            &self.sources,
                            &mut self.slots,
                            &mut self.by_text,
                            new,
                        );
                    }
                    credit(&mut self.slots, *known, hit.rank);
                }
            }
            SlotMap::ByKey(slot_of) => {
                let label = entries.label();
                for entry in entries.ids() {
                    let norm = store.norm_of(entry.value);
                    let key = GroupKey { label, path: entry.path, norm };
                    let known = slot_of.entry(key).or_insert(UNSEEN);
                    if *known == UNSEEN {
                        let new = Slot { source, value: entry.value, key, weight: 0.0, support: 0 };
                        *known = new_group(
                            &self.query_terms,
                            &self.sources,
                            &mut self.slots,
                            &mut self.by_text,
                            new,
                        );
                    }
                    credit(&mut self.slots, *known, hit.rank);
                }
                store.count_keyed_reads(entries.len());
            }
        }
    }

    /// Finishes the accumulation: selects the top-m by (weight desc, support
    /// desc, value asc, path asc) among the groups whose norm is non-empty
    /// and does not restate the query, and builds only those insights.
    /// Distinct groups differ in value or path, so the order is total — a
    /// function of the data, not of hash-map capacity or observation order.
    ///
    /// The selection cuts on the numbers first and reads strings only for
    /// the groups that tie at the cut (`select_shown`). The restating test
    /// reads the norm's text, so it runs on candidates only: the best `m`
    /// slots are selected, the restating ones dropped, and the best of the
    /// rest fill the gap until `m` are kept or none remain. As the test
    /// depends on the norm alone, the kept groups are the ones filtering
    /// before aggregating would have kept.
    pub fn finish(self) -> Vec<Insight> {
        let DiAccumulator { query_terms, sources, mut slots, top_m, .. } = self;
        let by_numbers = |a: &Slot, b: &Slot| {
            b.weight
                .partial_cmp(&a.weight)
                .unwrap_or(Ordering::Equal)
                .then_with(|| b.support.cmp(&a.support))
        };
        let by_rank = |a: &Slot, b: &Slot| {
            by_numbers(a, b)
                .then_with(|| slot_value(&sources, a).cmp(slot_value(&sources, b)))
                .then_with(|| slot_path(&sources, a).cmp(slot_path(&sources, b)))
        };
        let is_shown = |slot: &Slot| {
            sources
                .get(slot.source as usize)
                .is_some_and(|s| shown(&query_terms, s.attr_store().norm(slot.key.norm)))
        };
        let kept = select_shown(&mut slots, top_m, by_numbers, by_rank, is_shown);
        slots.truncate(kept);
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

/// Moves the best `m` items under `by_rank` among those `is_shown` accepts
/// to the front of `items`, in no particular order, and returns how many
/// there are (fewer than `m` when fewer are shown). `by_rank` must refine
/// `by_numbers`: items that `by_numbers` orders, `by_rank` orders the same
/// way.
///
/// Each round selects the best `need` of the items not yet seen, tests
/// them, and keeps the shown ones; the next round fills the gap. A round
/// selects on `by_numbers` alone, then gathers every unseen item that ties
/// with the cut into the front region and runs `by_rank` only there. That
/// is exact: an item of the true best `need` either beats the cut on the
/// numbers, and is in front already, or ties with it, and is gathered.
fn select_shown<T>(
    items: &mut [T],
    m: usize,
    by_numbers: impl Fn(&T, &T) -> Ordering,
    by_rank: impl Fn(&T, &T) -> Ordering,
    is_shown: impl Fn(&T) -> bool,
) -> usize {
    // items[..kept] are kept, items[kept..seen] dropped, the rest unseen.
    let (mut kept, mut seen) = (0, 0);
    while kept < m && seen < items.len() {
        let need = m - kept;
        let unseen = &mut items[seen..];
        if unseen.len() > need {
            unseen.select_nth_unstable_by(need - 1, &by_numbers);
            let mut tied = need;
            for i in need..unseen.len() {
                if by_numbers(&unseen[i], &unseen[need - 1]) == Ordering::Equal {
                    unseen.swap(tied, i);
                    tied += 1;
                }
            }
            if tied > need {
                unseen[..tied].select_nth_unstable_by(need - 1, &by_rank);
            }
        }
        let end = seen + need.min(unseen.len());
        for i in seen..end {
            if items.get(i).is_some_and(&is_shown) {
                items.swap(kept, i);
                kept += 1;
            }
        }
        seen = end;
    }
    kept
}

/// Whether a group with analysed value `norm` may be shown: it analyses to
/// something, and none of its terms is a query term ("if a keyword in the
/// attribute node is part of the user query Q, it is not included").
fn shown(query_terms: &[&str], norm: &str) -> bool {
    !norm.is_empty() && !norm.split(' ').any(|term| query_terms.contains(&term))
}

/// Adds one LCE hit's rank to `slot` (nothing for [`DROPPED`]).
fn credit(slots: &mut [Slot], slot: u32, rank: f64) {
    if let Some(slot) = slots.get_mut(slot as usize) {
        slot.weight += rank;
        slot.support += 1;
    }
}

/// The slot of a group met for the first time under `new`'s ids. With one
/// index that is always a fresh slot. Once several indexes are observed, a
/// group that restates the query is [`DROPPED`] at first sight, and one
/// another index already opened continues that index's slot.
fn new_group(
    query_terms: &[&str],
    sources: &[&GksIndex],
    slots: &mut Vec<Slot>,
    by_text: &mut FastMap<u64, u32>,
    new: Slot,
) -> u32 {
    let id = match u32::try_from(slots.len()) {
        Ok(id) if id < DROPPED => id,
        _ => return DROPPED,
    };
    if sources.len() > 1 {
        // The group is hashed by its text anyway, so the restating test
        // costs one more scan of a string already read.
        let Some(&index) = sources.get(new.source as usize) else {
            return DROPPED;
        };
        let norm = index.attr_store().norm(new.key.norm);
        if !shown(query_terms, norm) {
            return DROPPED;
        }
        let mut hash = text_hash(index, new.key);
        while let Some(&other) = by_text.get(&hash) {
            let same = slots.get(other as usize).is_some_and(|slot| {
                slot_path(sources, slot).eq(path_names(index, new.key))
                    && sources
                        .get(slot.source as usize)
                        .is_some_and(|s| s.attr_store().norm(slot.key.norm) == norm)
            });
            if same {
                return other;
            }
            hash = hash.wrapping_add(1);
        }
        by_text.insert(hash, id);
    }
    slots.push(new);
    id
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
        acc.observe(index, hit);
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
        let di = discover_di(&ix, &r, &DiOptions { top_m: 10 });
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
        let di = discover_di(&ix, &r, &DiOptions { top_m: 50 });
        assert!(di.iter().all(|i| !i.value.contains("Buneman")));
        assert!(di.iter().all(|i| !i.value.contains("Banerjee")));
    }

    #[test]
    fn di_paths_expose_semantics() {
        let ix = dblp_index();
        let r = example2_response(&ix);
        let di = discover_di(&ix, &r, &DiOptions { top_m: 20 });
        let year = di.iter().find(|i| i.value == "2001").expect("year insight");
        assert_eq!(year.path, vec!["inproceedings", "year"]);
        assert_eq!(year.display(), "<inproceedings: year: 2001>");
    }

    #[test]
    fn repeating_text_and_attribute_sources_both_contribute() {
        let ix = dblp_index();
        let r = example2_response(&ix);
        let di = discover_di(&ix, &r, &DiOptions { top_m: 50 });
        // Co-author names come from repeating <author> nodes.
        assert!(di.iter().any(|i| i.path.last().map(String::as_str) == Some("author")));
        // Attribute-node insights (journal, year, title) too.
        assert!(di.iter().any(|i| i.value == "2001"));
    }

    #[test]
    fn recursive_di_runs_multiple_rounds() {
        let ix = dblp_index();
        let q = Query::parse(r#""Peter Buneman""#).unwrap();
        let rounds =
            recursive_di(&ix, &q, SearchOptions::with_s(1), &DiOptions { top_m: 2 }, 2).unwrap();
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
            let di = discover_di(&ix, &r, &DiOptions { top_m });
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
    fn the_numeric_cut_selects_what_a_full_sort_does() {
        // (weight, support, value, shown): few distinct numbers, so many
        // items tie at every cut, and about a third restate the query.
        type Item = (f64, usize, String, bool);
        let by_numbers = |a: &Item, b: &Item| {
            b.0.partial_cmp(&a.0).unwrap_or(Ordering::Equal).then_with(|| b.1.cmp(&a.1))
        };
        let by_rank = |a: &Item, b: &Item| by_numbers(a, b).then_with(|| a.2.cmp(&b.2));
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = |below: u64| {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            (state >> 33) % below
        };
        let mut crowded_cuts = 0;
        for round in 0..200 {
            let len = next(40) as usize;
            let items: Vec<Item> = (0..len)
                .map(|i| {
                    let weight = [0.5, 1.0, 1.5][next(3) as usize];
                    (
                        weight,
                        1 + next(2) as usize,
                        format!("v{:02}", (i * 7 + round) % 40),
                        next(3) != 0,
                    )
                })
                .collect();
            let mut reference = items.clone();
            reference.sort_by(by_rank);
            for top_m in 1..=8 {
                let want: Vec<&Item> = reference.iter().filter(|item| item.3).take(top_m).collect();
                let cut = want.last().map(|item| (item.0, item.1));
                let tied = items.iter().filter(|item| Some((item.0, item.1)) == cut).count();
                crowded_cuts += usize::from(tied > top_m);
                let mut got = items.clone();
                let kept = select_shown(&mut got, top_m, by_numbers, by_rank, |item| item.3);
                got.truncate(kept);
                got.sort_by(by_rank);
                assert_eq!(
                    got.iter().collect::<Vec<_>>(),
                    want,
                    "round {round}, top_m {top_m}, {tied} tied"
                );
            }
        }
        assert!(crowded_cuts > 100, "more items than m tie at the cut: {crowded_cuts}");
    }

    #[test]
    fn reading_by_key_and_by_group_id_agree() {
        let ix = dblp_index();
        let r = example2_response(&ix);
        let options = DiOptions { top_m: 50 };
        let bits = |di: &[Insight]| -> Vec<(String, Vec<String>, u64, usize)> {
            di.iter()
                .map(|i| (i.value.clone(), i.path.clone(), i.weight.to_bits(), i.support))
                .collect()
        };
        assert!(!ix.attr_store().groups_ready(), "a fresh index is read by key");
        let (by_key, by_key_attrs) = discover_di_counted(&ix, &r, &options);
        assert!(ix.attr_store().group_count() > 0);
        assert!(ix.attr_store().groups_ready());
        let (by_group, by_group_attrs) = discover_di_counted(&ix, &r, &options);
        assert!(!by_key.is_empty());
        assert_eq!(bits(&by_key), bits(&by_group));
        assert_eq!(by_key_attrs, by_group_attrs);
    }

    #[test]
    fn empty_response_yields_no_di() {
        let ix = dblp_index();
        let q = Query::parse("zzz").unwrap();
        let r = search(&ix, &q, SearchOptions::with_s(1)).unwrap();
        assert!(discover_di(&ix, &r, &DiOptions::default()).is_empty());
    }
}
