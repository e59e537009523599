//! GKS search (paper §4): retrieve every node containing at least `s` of the
//! query keywords, organized around LCE nodes, ranked by potential flow.
//!
//! Pipeline (Figure 6 of the paper, with the exact-statistics refinement
//! described in DESIGN.md):
//!
//! 1. fetch each keyword's posting list as node-table rows (a term's rows
//!    are decoded on its first fetch and cached) and k-way merge them into
//!    `SL`;
//! 2. slide a window of `s` unique keywords over `SL`, collecting the longest
//!    common prefix of each minimal block → candidate GKS nodes;
//! 3. derive each candidate's *Least Common Entity* (nearest entity
//!    ancestor-or-self, via `entityHash`) by parent rows;
//! 4. sweep `SL` once to compute exact matched-keyword sets, potential-flow
//!    ranks, and entity witnesses for all candidates and LCEs;
//! 5. assemble `RQ(s)`: witnessed LCE nodes, plus LCP candidates with no
//!    surviving LCE, pruned SLCA-style (an LCP hit strictly containing
//!    another hit is dropped — "the nodes in GKS response set follow the
//!    semantics of SLCA");
//! 6. rank: descending potential-flow rank, then keyword count, then
//!    document order.
//!
//! Steps 1–6 run on `u32` pre-order rows of the node table, which sort as
//! the Dewey ids do (see `gks_index::node_table`); the pruning's ancestor
//! test is a row-range test against `NodeTable::subtree_end`. A Dewey id is
//! built only for an emitted [`Hit`]. A posting run that fails to decode, or
//! rows out of order or past the node table, are a corrupt index, reported
//! as [`QueryError::CorruptIndex`] rather than answered from.

use gks_dewey::DeweyId;
use gks_index::{GksIndex, NodeTable};
use gks_trace::{span, SpanKind};

use crate::cost::CostLedger;
use crate::error::QueryError;
use crate::merge::{heap_ops, merge_sorted};
use crate::postlist::keyword_rows_counted;
use crate::query::{Keyword, Query};
use crate::sweep::{sweep_rows, RowStats};
use crate::window::lcp_rows;

/// How the minimum keyword count `s` is chosen for a query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Threshold {
    /// A fixed `s`; effectively `min(s, |Q|)` per the problem definition.
    Fixed(usize),
    /// `s = |Q|` — every keyword must appear (the paper's `s=|Q|` rows).
    All,
    /// `s = max(1, |Q|/2)` — the paper's `s = |Q|/2` configuration.
    HalfQuery,
}

impl Threshold {
    /// Parses the user-facing spelling shared by the CLI (`-s`) and the
    /// server (`?s=`): a positive integer, `all`, or `half`. Returns `None`
    /// for anything else (including `0`, which [`Threshold::resolve`] would
    /// reject anyway).
    pub fn parse(value: &str) -> Option<Threshold> {
        match value {
            "all" => Some(Threshold::All),
            "half" => Some(Threshold::HalfQuery),
            v => match v.parse::<usize>() {
                Ok(s) if s > 0 => Some(Threshold::Fixed(s)),
                _ => None,
            },
        }
    }

    /// Resolves to a concrete `s` for a query of `n` keywords.
    pub fn resolve(self, n: usize) -> Result<usize, QueryError> {
        let s = match self {
            Threshold::Fixed(0) => return Err(QueryError::ZeroThreshold),
            Threshold::Fixed(s) => s.min(n),
            Threshold::All => n,
            Threshold::HalfQuery => (n / 2).max(1),
        };
        Ok(s.max(1))
    }
}

/// Search-time options.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SearchOptions {
    /// The keyword threshold `s`.
    pub s: Threshold,
    /// Cap on returned hits (`usize::MAX` = unlimited).
    pub limit: usize,
}

impl Default for SearchOptions {
    fn default() -> Self {
        SearchOptions { s: Threshold::Fixed(1), limit: usize::MAX }
    }
}

impl SearchOptions {
    /// Options with a fixed `s`.
    pub fn with_s(s: usize) -> Self {
        SearchOptions { s: Threshold::Fixed(s), ..Default::default() }
    }
}

/// How a hit entered the response.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HitKind {
    /// A Least Common Entity node (Def 2.2.1) with an independent witness.
    Lce,
    /// An LCP candidate with no surviving entity ancestor.
    Lcp,
}

/// One node of the GKS response `RQ(s)`.
#[derive(Debug, Clone)]
pub struct Hit {
    /// The node.
    pub node: DeweyId,
    /// The node's row in the node table of the index that answered — for a
    /// gathered hit, its shard's ([`crate::shard::ShardedResponse::origin`]),
    /// not a global row. DI and the wire body read attributes and paths
    /// through it, so they build no id.
    pub row: u32,
    /// LCE or plain LCP.
    pub kind: HitKind,
    /// Bit `i` set iff query keyword `i` occurs in the subtree.
    pub keyword_mask: u64,
    /// Number of distinct query keywords in the subtree.
    pub keyword_count: u32,
    /// Potential-flow rank (§5).
    pub rank: f64,
}

impl Hit {
    /// The raw spellings of the matched keywords, in query order.
    pub fn matched_keywords<'q>(&self, keywords: &'q [Keyword]) -> Vec<&'q str> {
        self.matched(keywords).collect()
    }

    /// [`matched_keywords`](Self::matched_keywords) without collecting them.
    pub(crate) fn matched<'q>(&self, keywords: &'q [Keyword]) -> impl Iterator<Item = &'q str> {
        let mask = self.keyword_mask;
        keywords
            .iter()
            .enumerate()
            .filter(move |(i, _)| mask & (1 << i) != 0)
            .map(|(_, k)| k.raw())
    }
}

/// The response to a GKS search.
#[derive(Debug, Clone)]
pub struct Response {
    /// Normalized query keywords (index order = mask bit order).
    keywords: Vec<Keyword>,
    /// The resolved threshold.
    s: usize,
    /// Ranked hits.
    hits: Vec<Hit>,
    /// |SL| — drives the paper's response-time analysis (Figure 8).
    sl_len: usize,
    /// Wall-clock search time.
    elapsed_micros: u64,
    /// Keywords (by index) with zero postings — candidates for refinement.
    missing: Vec<usize>,
    /// Work performed: the per-request resource ledger.
    cost: CostLedger,
}

impl Response {
    /// Ranked hits, best first.
    pub fn hits(&self) -> &[Hit] {
        &self.hits
    }

    /// The normalized keywords the search matched against.
    pub fn keywords(&self) -> &[Keyword] {
        &self.keywords
    }

    /// The resolved threshold `s`.
    pub fn s(&self) -> usize {
        self.s
    }

    /// Size of the merged posting list `SL`.
    pub fn sl_len(&self) -> usize {
        self.sl_len
    }

    /// Search latency in microseconds.
    pub fn elapsed_micros(&self) -> u64 {
        self.elapsed_micros
    }

    /// Indices of query keywords absent from the corpus.
    pub fn missing_keyword_indices(&self) -> &[usize] {
        &self.missing
    }

    /// The work this search performed, in index-and-query-determined units
    /// (see [`crate::cost`]).
    pub fn cost(&self) -> &CostLedger {
        &self.cost
    }

    /// Mutable ledger access, for layers above the engine (DI discovery,
    /// cache probes, rendered bytes) to fold their own work in.
    pub fn cost_mut(&mut self) -> &mut CostLedger {
        &mut self.cost
    }

    /// The highest keyword count among hits (the paper's "Max keywords in a
    /// GKS node", Table 7).
    pub fn max_keyword_count(&self) -> u32 {
        self.hits.iter().map(|h| h.keyword_count).max().unwrap_or(0)
    }

    /// Assembles a response from already-ranked parts — the gather half of a
    /// sharded search (see [`crate::shard`]). No searching or re-ranking
    /// happens here: `hits` must already be sorted by the final comparator
    /// (rank desc, keyword count desc, document order) and truncated to the
    /// caller's limit.
    pub fn from_parts(
        keywords: Vec<Keyword>,
        s: usize,
        hits: Vec<Hit>,
        sl_len: usize,
        elapsed_micros: u64,
        missing: Vec<usize>,
        cost: CostLedger,
    ) -> Response {
        Response { keywords, s, hits, sl_len, elapsed_micros, missing, cost }
    }
}

/// Runs a GKS search against an index.
pub fn search(
    index: &GksIndex,
    query: &Query,
    options: SearchOptions,
) -> Result<Response, QueryError> {
    search_masked(index, &[], query, options)
}

/// [`search`] with tombstoned documents masked out of the posting lists
/// before the merge: `dead` is a sorted list of local document ids whose
/// postings must not contribute to the answer (documents deleted or
/// superseded by a delta shard — see `gks_index::delta`). Each keyword's
/// rows lose those in a dead document's row range before the merge, which
/// keeps everything downstream — `missing`, the merged
/// `SL`, the sweep statistics, and the ranks — identical to an index that
/// never contained those documents, because no corpus-global statistic
/// enters the potential-flow rank. An empty mask is free.
pub fn search_masked(
    index: &GksIndex,
    dead: &[u32],
    query: &Query,
    options: SearchOptions,
) -> Result<Response, QueryError> {
    let search_span = span(SpanKind::Search);
    let mut cost = CostLedger::default();

    let parse_span = span(SpanKind::Parse);
    let keywords = query.normalized(index.analyzer());
    if keywords.is_empty() {
        return Err(QueryError::Empty);
    }
    let n = keywords.len();
    let s = options.s.resolve(n)?;
    drop(parse_span);

    // 1.–2. Posting lists as node-table rows, borrowed from the posting
    // slots where no mask or phrase makes them owned, merged into SL.
    let table = index.node_table();
    let postings_span = span(SpanKind::Postings);
    let lists = keywords
        .iter()
        .map(|k| keyword_rows_counted(index, dead, k, &mut cost))
        .collect::<Result<Vec<_>, QueryError>>()?;
    let missing: Vec<usize> =
        lists.iter().enumerate().filter(|(_, l)| l.is_empty()).map(|(i, _)| i).collect();
    cost.heap_ops = heap_ops(&lists);
    let sl = merge_sorted(lists.iter().map(|l| l.iter().copied()));
    let sl_len = sl.len();
    gks_trace::annotate("postings_scanned", cost.postings_scanned);
    gks_trace::annotate("tombstone_masked", cost.tombstone_masked);
    gks_trace::annotate("heap_ops", cost.heap_ops);
    drop(postings_span);

    // 3. Window → LCP candidates (already promoted past attribute nodes).
    let sweep_span = span(SpanKind::Sweep);
    let candidates = lcp_rows(table, &sl, s, n);

    // 4. LCE derivation: `lce_of[i]` belongs to `candidates[i]`.
    let lce_of: Vec<Option<u32>> = candidates.iter().map(|&c| lowest_entity(table, c)).collect();
    let mut lces: Vec<u32> = lce_of.iter().flatten().copied().collect();
    lces.sort_unstable();
    lces.dedup();

    // 5. Exact statistics for candidates ∪ LCEs.
    let (stat_nodes, candidate_at, lce_at) = union(&candidates, &lces);
    let (stats, advances) = sweep_rows(table, &sl, &stat_nodes, n);
    cost.sweep_advances = advances;
    cost.rank_candidates = stat_nodes.len() as u64;
    gks_trace::annotate("sweep_advances", cost.sweep_advances);
    gks_trace::annotate("rank_candidates", cost.rank_candidates);
    drop(sweep_span);
    let rank_span = span(SpanKind::Rank);

    // 6. Assemble hits. `stats` is parallel to `stat_nodes`, and the union
    // recorded where each candidate and each LCE sits there. No node is
    // emitted twice: LCEs are distinct, candidates are distinct, and a
    // candidate equal to an emitted LCE is an entity — its own, surviving,
    // LCE — and is skipped.
    let survives = |st: &RowStats| st.witnessed && st.keyword_count() as usize >= s;
    let hit = |row: u32, kind: HitKind, st: &RowStats| RowHit {
        row,
        kind,
        keyword_mask: st.mask,
        keyword_count: st.keyword_count(),
        rank: st.rank,
    };
    let mut hits: Vec<RowHit> = Vec::new();
    // Witnessed LCE nodes with enough keywords.
    for (&lce, &at) in lces.iter().zip(&lce_at) {
        if survives(&stats[at]) {
            hits.push(hit(lce, HitKind::Lce, &stats[at]));
        }
    }
    // Candidates whose LCE is absent or did not survive fall back to plain
    // LCP hits ("those nodes in LCP list for which no corresponding LCE node
    // exist", §4.2). A candidate that is an entity is its own LCE.
    for ((&c, &lce), &at) in candidates.iter().zip(&lce_of).zip(&candidate_at) {
        let lce_at = match lce {
            Some(lce) if lce == c => Some(at),
            Some(lce) => stat_nodes.binary_search(&lce).ok(),
            None => None,
        };
        if lce_at.is_some_and(|i| survives(&stats[i])) {
            continue;
        }
        if stats[at].keyword_count() as usize >= s {
            hits.push(hit(c, HitKind::Lcp, &stats[at]));
        }
    }

    // SLCA-style pruning of LCP hits: drop an LCP hit whose contained hits
    // jointly cover its keyword set — its information is more specifically
    // available below (Table 1: x1 and r are dropped in favour of x2). An
    // ancestor carrying a keyword its descendants do not cover survives, so
    // no query keyword region is lost.
    // Two sorted runs: the stable sort merges them in one pass.
    hits.sort_by_key(|h| h.row);
    debug_assert!(hits.windows(2).all(|w| w[0].row < w[1].row), "a node emitted twice");
    let mut keep = vec![true; hits.len()];
    for i in 0..hits.len() {
        if hits[i].kind != HitKind::Lcp {
            continue;
        }
        // Rows are in document order: contained hits follow i contiguously,
        // up to the end of its subtree's row range. Pruned descendants may
        // be counted too — their masks are covered by their own
        // descendants, so the union over all contained hits equals the
        // union over survivors.
        let end = table.subtree_end(hits[i].row);
        let mut contained_union = 0u64;
        let mut any_contained = false;
        for h in hits[i + 1..].iter().take_while(|h| h.row < end) {
            contained_union |= h.keyword_mask;
            any_contained = true;
        }
        if any_contained && contained_union & hits[i].keyword_mask == hits[i].keyword_mask {
            keep[i] = false;
        }
    }
    let mut hits: Vec<RowHit> =
        hits.into_iter().zip(keep).filter(|(_, k)| *k).map(|(h, _)| h).collect();

    // 7. Final ranking; only the hits kept get their ids.
    rank_top(&mut hits, options.limit);
    let hits = hits
        .into_iter()
        .filter_map(|h| {
            Some(Hit {
                node: table.id(h.row)?,
                row: h.row,
                kind: h.kind,
                keyword_mask: h.keyword_mask,
                keyword_count: h.keyword_count,
                rank: h.rank,
            })
        })
        .collect();
    drop(rank_span);

    Ok(Response {
        keywords,
        s,
        hits,
        sl_len,
        elapsed_micros: search_span.elapsed_micros(),
        missing,
        cost,
    })
}

/// The nearest entity row among `row` and its ancestors (§4.1's LCE
/// derivation: "we check if it is an entity node or any of its ancestors is
/// an entity node").
fn lowest_entity(table: &NodeTable, mut row: u32) -> Option<u32> {
    loop {
        if table.meta(row)?.flags.is_entity() {
            return Some(row);
        }
        row = table.parent(row)?;
    }
}

/// The sorted union of two sorted, deduplicated row lists, with the
/// position in it of each entry of `a` and of `b`.
fn union(a: &[u32], b: &[u32]) -> (Vec<u32>, Vec<usize>, Vec<usize>) {
    let mut all = Vec::with_capacity(a.len() + b.len());
    let (mut a_at, mut b_at) = (Vec::with_capacity(a.len()), Vec::with_capacity(b.len()));
    let (mut i, mut j) = (0, 0);
    loop {
        let next = match (a.get(i), b.get(j)) {
            (Some(&x), Some(&y)) => x.min(y),
            (Some(&x), None) | (None, Some(&x)) => x,
            (None, None) => break,
        };
        if a.get(i) == Some(&next) {
            a_at.push(all.len());
            i += 1;
        }
        if b.get(j) == Some(&next) {
            b_at.push(all.len());
            j += 1;
        }
        all.push(next);
    }
    (all, a_at, b_at)
}

/// A [`Hit`] before its id is read: the node as its node-table row.
#[derive(Debug, Clone, Copy)]
struct RowHit {
    row: u32,
    kind: HitKind,
    keyword_mask: u64,
    keyword_count: u32,
    rank: f64,
}

/// Final ranking order: higher rank first, then more keywords, then
/// document order (row order is Dewey order). Total over hits with distinct
/// rows and comparable ranks.
fn rank_order(a: &RowHit, b: &RowHit) -> std::cmp::Ordering {
    b.rank
        .partial_cmp(&a.rank)
        .unwrap_or(std::cmp::Ordering::Equal)
        .then_with(|| b.keyword_count.cmp(&a.keyword_count))
        .then_with(|| a.row.cmp(&b.row))
}

/// Sorts `hits` by [`rank_order`] and keeps the first `limit`. When fewer
/// than all are kept, a selection moves the best `limit` to the front
/// first, so only they are sorted; the order is total, so the result is
/// what sorting everything and truncating gives.
fn rank_top(hits: &mut Vec<RowHit>, limit: usize) {
    if limit < hits.len() {
        hits.select_nth_unstable_by(limit, rank_order);
        hits.truncate(limit);
    }
    hits.sort_by(rank_order);
}

#[cfg(test)]
mod tests {
    use super::*;
    use gks_dewey::DocId;
    use gks_index::{Corpus, IndexOptions};

    fn d(steps: &[u32]) -> DeweyId {
        DeweyId::new(DocId(0), steps.to_vec())
    }

    fn index_of(xml: &str) -> GksIndex {
        let corpus = Corpus::from_named_strs([("t", xml)]).unwrap();
        GksIndex::build(&corpus, IndexOptions::default()).unwrap()
    }

    /// The Figure 1 tree (see DESIGN.md for the reconstruction).
    fn fig1() -> GksIndex {
        index_of(
            "<r>\
                <x1><v>ka</v><v>kb</v><v>kc</v><v>kf</v>\
                    <x2><v>ka</v><v>kb</v><v>kc</v></x2></x1>\
                <x3><v>ka</v><v>kb</v><x5><v>kd</v><v>kf</v></x5></x3>\
                <x4><v>kc</v><v>kd</v></x4>\
            </r>",
        )
    }

    fn run(ix: &GksIndex, q: &str, s: usize) -> Response {
        search(ix, &Query::parse(q).unwrap(), SearchOptions::with_s(s)).unwrap()
    }

    fn hit_nodes(r: &Response) -> Vec<DeweyId> {
        r.hits().iter().map(|h| h.node.clone()).collect()
    }

    const X1: &[u32] = &[0];
    const X2: &[u32] = &[0, 4];
    const X3: &[u32] = &[1];
    const X4: &[u32] = &[2];

    #[test]
    fn table1_q1_all_keywords() {
        // Q1 = {a,b,c}, s = |Q1|: GKS returns {x2} — x1 and r have no
        // information that is not more specifically in x2.
        let ix = fig1();
        let r = run(&ix, "ka kb kc", 3);
        assert_eq!(hit_nodes(&r), vec![d(X2)]);
        assert!((r.hits()[0].rank - 3.0).abs() < 1e-9);
    }

    #[test]
    fn table1_q2_missing_keyword() {
        // Q2 = {a,b,e}, s=2: 'ke' is absent; GKS still returns {x2},{x3}
        // while SLCA/ELCA would return NULL.
        let ix = fig1();
        let r = run(&ix, "ka kb ke", 2);
        let nodes = hit_nodes(&r);
        assert_eq!(nodes, vec![d(X2), d(X3)]);
        assert_eq!(r.missing_keyword_indices(), &[2]);
    }

    #[test]
    fn table1_q3_ranked_x2_x3_x4() {
        // Q3 = {a,b,c,d}, s=2: ranked {x2} > {x3} > {x4} (Example 5 ranks
        // 3 > 2.5 > 2).
        let ix = fig1();
        let r = run(&ix, "ka kb kc kd", 2);
        assert_eq!(hit_nodes(&r), vec![d(X2), d(X3), d(X4)]);
        let ranks: Vec<f64> = r.hits().iter().map(|h| h.rank).collect();
        assert!((ranks[0] - 3.0).abs() < 1e-9);
        assert!((ranks[1] - 2.5).abs() < 1e-9);
        assert!((ranks[2] - 2.0).abs() < 1e-9);
        assert_eq!(r.max_keyword_count(), 3);
    }

    #[test]
    fn x1_excluded_despite_qualifying() {
        // x1 contains a, b, c (its own copies and x2's) but every hit it
        // could justify is more specifically x2.
        let ix = fig1();
        let r = run(&ix, "ka kb kc", 3);
        assert!(!hit_nodes(&r).contains(&d(X1)));
    }

    #[test]
    fn example3_lce_response() {
        // Fig 2(a)-style data; Q4 = {student, karen, mike, john}, s=2 → the
        // three course entity nodes, ranked.
        let xml = r#"<Dept><Dept_Name>CS</Dept_Name><Area><Name>Databases</Name><Courses>
            <Course><Name>Data Mining</Name><Students>
                <Student>Karen</Student><Student>Mike</Student><Student>Peter</Student></Students></Course>
            <Course><Name>Algorithms</Name><Students>
                <Student>Karen</Student><Student>John</Student><Student>Julie</Student></Students></Course>
            <Course><Name>AI</Name><Students>
                <Student>Karen</Student><Student>Mike</Student><Student>Serena</Student></Students></Course>
        </Courses></Area></Dept>"#;
        let ix = index_of(xml);
        let r = run(&ix, "student karen mike john", 2);
        // All hits are LCE (entity) hits on Course nodes.
        for h in r.hits() {
            assert_eq!(h.kind, HitKind::Lce, "{:?}", h.node);
        }
        let nodes = hit_nodes(&r);
        assert!(nodes.contains(&d(&[1, 1, 0])), "Data Mining course");
        assert!(nodes.contains(&d(&[1, 1, 1])), "Algorithms course");
        assert!(nodes.contains(&d(&[1, 1, 2])), "AI course");
        // Courses with student+karen+mike (3 kws) outrank student+karen+john
        // … Data Mining and AI have {student,karen,mike}; all three courses
        // have ≥ 3 matched keywords? Algorithms has {student,karen,john}.
        assert!(r.hits()[0].keyword_count >= r.hits().last().unwrap().keyword_count);
    }

    #[test]
    fn dblp_example2_any_author() {
        // Example 2: s=1 returns every article by any queried author, ranked
        // so articles with more queried co-authors come first.
        let xml = r#"<dblp>
            <inproceedings><title>Joint Work</title>
                <author>Peter Buneman</author><author>Wenfei Fan</author><author>Scott Weinstein</author></inproceedings>
            <inproceedings><title>Pair Work</title>
                <author>Peter Buneman</author><author>Wenfei Fan</author></inproceedings>
            <inproceedings><title>Solo A</title><author>Peter Buneman</author><author>Someone Else</author></inproceedings>
            <inproceedings><title>Unrelated</title><author>Prithviraj Banerjee</author><author>Other Guy</author></inproceedings>
        </dblp>"#;
        let ix = index_of(xml);
        let q = r#""Peter Buneman" "Wenfei Fan" "Scott Weinstein" "Prithviraj Banerjee""#;
        let r = run(&ix, q, 1);
        assert_eq!(r.hits().len(), 4, "all four articles match s=1");
        // The three-author article ranks first, the two-author second.
        assert_eq!(r.hits()[0].node, d(&[0]));
        assert_eq!(r.hits()[0].keyword_count, 3);
        assert_eq!(r.hits()[1].node, d(&[1]));
        // An LCA-based technique would have returned the DBLP root; GKS must
        // not.
        assert!(!hit_nodes(&r).contains(&d(&[])));
    }

    #[test]
    fn threshold_resolution() {
        assert_eq!(Threshold::Fixed(3).resolve(5).unwrap(), 3);
        assert_eq!(Threshold::Fixed(9).resolve(5).unwrap(), 5, "min(s, |Q|)");
        assert_eq!(Threshold::All.resolve(5).unwrap(), 5);
        assert_eq!(Threshold::HalfQuery.resolve(5).unwrap(), 2);
        assert_eq!(Threshold::HalfQuery.resolve(1).unwrap(), 1);
        assert!(Threshold::Fixed(0).resolve(3).is_err());
    }

    #[test]
    fn threshold_parsing() {
        assert_eq!(Threshold::parse("3"), Some(Threshold::Fixed(3)));
        assert_eq!(Threshold::parse("all"), Some(Threshold::All));
        assert_eq!(Threshold::parse("half"), Some(Threshold::HalfQuery));
        assert_eq!(Threshold::parse("0"), None);
        assert_eq!(Threshold::parse("-1"), None);
        assert_eq!(Threshold::parse("many"), None);
    }

    #[test]
    fn lemma2_monotonicity_on_fig1() {
        // |RQ(s1)| ≤ |RQ(s2)| for s1 > s2 (Lemma 2).
        let ix = fig1();
        let mut prev = usize::MAX;
        for s in 1..=4 {
            let r = run(&ix, "ka kb kc kd", s);
            assert!(r.hits().len() <= prev, "s={s}: {} > {prev}", r.hits().len());
            prev = r.hits().len();
        }
    }

    #[test]
    fn no_hits_when_nothing_matches() {
        let ix = fig1();
        let r = run(&ix, "zz yy", 1);
        assert!(r.hits().is_empty());
        assert_eq!(r.missing_keyword_indices(), &[0, 1]);
    }

    #[test]
    fn limit_truncates() {
        let ix = fig1();
        let mut opts = SearchOptions::with_s(1);
        opts.limit = 2;
        let r = search(&ix, &Query::parse("ka kb kc kd").unwrap(), opts).unwrap();
        assert_eq!(r.hits().len(), 2);
    }

    #[test]
    fn cost_ledger_counts_the_pipeline_work() {
        let ix = fig1();
        let r = run(&ix, "ka kb kc kd", 2);
        let c = r.cost();
        assert_eq!(c.per_keyword.len(), 4, "one lane per keyword");
        // Plain keywords, no mask: scans equal surviving lengths, and every
        // scanned entry is pushed and popped once by the merge.
        assert_eq!(c.postings_scanned, c.per_keyword.iter().sum::<u64>());
        assert_eq!(c.heap_ops, 2 * r.sl_len() as u64);
        assert_eq!(c.tombstone_masked, 0);
        assert!(c.sweep_advances >= r.sl_len() as u64, "every entry hits ≥1 candidate here");
        assert!(c.rank_candidates > 0);
        // Engine-level ledgers know nothing of caches, DI, or rendering.
        assert_eq!(c.cache_probes, 0);
        assert_eq!(c.di_attrs, 0);
        assert_eq!(c.result_bytes, 0);
    }

    #[test]
    fn matched_keywords_reports_raw_spellings() {
        let ix = fig1();
        let r = run(&ix, "ka kb kc kd", 2);
        let matched = r.hits()[0].matched_keywords(r.keywords());
        assert_eq!(matched, vec!["ka", "kb", "kc"]);
    }

    #[test]
    fn union_records_each_side_s_positions() {
        let (all, a_at, b_at) = union(&[1, 4, 6, 9], &[0, 4, 9, 12]);
        assert_eq!(all, vec![0, 1, 4, 6, 9, 12]);
        assert_eq!(a_at, vec![1, 2, 3, 4]);
        assert_eq!(b_at, vec![0, 2, 4, 5]);
        assert_eq!(union(&[], &[3]), (vec![3], vec![], vec![0]));
        assert_eq!(union(&[], &[]), (vec![], vec![], vec![]));
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        /// Selecting the top `limit` and sorting them equals sorting every
        /// hit and truncating, on hits whose ranks and keyword counts tie
        /// often.
        #[test]
        fn rank_top_is_sort_and_truncate(
            hits in proptest::collection::vec((0u8..4, 1u32..3, 0u32..200), 0..60),
            limit in 0usize..70,
        ) {
            let mut hits: Vec<RowHit> = hits
                .into_iter()
                .map(|(rank, keyword_count, row)| RowHit {
                    row,
                    kind: HitKind::Lce,
                    keyword_mask: 1,
                    keyword_count,
                    rank: f64::from(rank) / 2.0,
                })
                .collect();
            hits.sort_by_key(|h| h.row);
            hits.dedup_by_key(|h| h.row);
            let mut expected = hits.clone();
            expected.sort_by(rank_order);
            expected.truncate(limit);
            rank_top(&mut hits, limit);
            let key = |hits: &[RowHit]| -> Vec<(u32, u32, f64)> {
                hits.iter().map(|h| (h.row, h.keyword_count, h.rank)).collect()
            };
            proptest::prop_assert_eq!(key(&hits), key(&expected));
        }
    }
}
