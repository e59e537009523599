//! The statistics sweep: one pass over `SL` computing, for every candidate
//! node, its exact matched-keyword set, its potential-flow rank (§5), and —
//! for entity nodes — whether it has an *independent witness* (Def 2.2.1,
//! Lemmas 4–5).
//!
//! The sweep maintains a stack of "active" candidate nodes (exactly the
//! candidates whose subtree contains the current `SL` entry — candidates are
//! sorted, so this is the classic Dewey ancestor stack). Each entry updates
//! every active candidate:
//!
//! * the keyword bit joins the candidate's mask;
//! * if the entry is the shallowest occurrence of its keyword seen so far in
//!   the candidate's subtree, it becomes a *terminal point* and contributes
//!   the potential-flow path product `Π 1/children(v)` along the path from
//!   the candidate down to the entry's parent (ties at the same depth all
//!   contribute — "each of its occurrences is considered a terminal point");
//! * the entry's lowest entity ancestor-or-self is marked witnessed: a
//!   keyword occurrence is an independent witness for exactly the nearest
//!   enclosing entity node.
//!
//! The final rank is `P|e × Σ_k (terminal path products of k)` with
//! `P|e = |matched keywords|`, reproducing the paper's Example 5 numbers.
//!
//! The sweep runs on pre-order rows of the node table. The root path of the
//! current entry is kept as rows with its running path products; a new entry
//! walks parent rows up to the depth it shares with the path, and reads the
//! child counts and entity flags of only the rows below that by row. A
//! candidate contains the entry exactly when it is the path's row at its
//! depth.

use gks_dewey::DeweyId;
use gks_index::{GksIndex, NodeTable};

use crate::merge::{sl_rows, SlEntry, SlRow};

/// Per-candidate results of the sweep.
#[derive(Debug, Clone)]
pub struct NodeStats {
    /// The candidate node.
    pub dewey: DeweyId,
    /// Bit `i` set iff query keyword `i` occurs in the subtree.
    pub mask: u64,
    /// Potential-flow rank (§5).
    pub rank: f64,
    /// Whether some keyword occurrence has this node as its nearest
    /// enclosing entity (only meaningful for entity nodes).
    pub witnessed: bool,
}

impl NodeStats {
    /// Number of distinct query keywords in the subtree (`P|e`).
    pub fn keyword_count(&self) -> u32 {
        self.mask.count_ones()
    }
}

/// [`NodeStats`] of a candidate row, which the row is the key of.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct RowStats {
    /// Bit `i` set iff query keyword `i` occurs in the subtree.
    pub mask: u64,
    /// Potential-flow rank (§5).
    pub rank: f64,
    /// Whether some keyword occurrence has this node as its nearest
    /// enclosing entity.
    pub witnessed: bool,
}

impl RowStats {
    /// Number of distinct query keywords in the subtree (`P|e`).
    pub fn keyword_count(&self) -> u32 {
        self.mask.count_ones()
    }
}

/// Runs the sweep. `nodes` must be sorted and deduplicated; `n_keywords` is
/// `|Q|`. Returns stats in the same order as `nodes`, and the advance count
/// for the cost ledger: the sum over `SL` entries of the active candidate
/// stack size — each unit is one candidate-update step (mask join +
/// terminal check), the dominant term of the §4.2 sweep cost. The stack
/// only ever holds ancestors of the current entry, so the count is a
/// per-document quantity and sums exactly across shards of a
/// document-partitioned corpus.
///
/// When an `SL` id or a node has no node-table row (a corrupt index), every
/// statistic stays empty and the count is 0; the search reports such an id
/// as [`QueryError::CorruptIndex`](crate::QueryError::CorruptIndex).
pub fn sweep_counted(
    index: &GksIndex,
    sl: &[SlEntry],
    nodes: &[DeweyId],
    n_keywords: usize,
) -> (Vec<NodeStats>, u64) {
    let table = index.node_table();
    let resolved = sl_rows(table, sl).zip(table.rows_of(nodes).ok());
    let (stats, advances) = match resolved {
        Some((sl, rows)) => sweep_rows(table, &sl, &rows, n_keywords),
        None => (vec![RowStats::default(); nodes.len()], 0),
    };
    let stats = nodes
        .iter()
        .zip(stats)
        .map(|(dewey, st)| NodeStats {
            dewey: dewey.clone(),
            mask: st.mask,
            rank: st.rank,
            witnessed: st.witnessed,
        })
        .collect();
    (stats, advances)
}

/// [`sweep_counted`] on rows: `nodes` are sorted, deduplicated rows, and
/// the stats come back in their order.
pub(crate) fn sweep_rows(
    table: &NodeTable,
    sl: &[SlRow],
    nodes: &[u32],
    n_keywords: usize,
) -> (Vec<RowStats>, u64) {
    debug_assert!(nodes.windows(2).all(|w| w[0] < w[1]), "nodes sorted+deduped");
    let n_nodes = nodes.len();
    let mut mask = vec![0u64; n_nodes];
    // Terminal tracking, flattened [node][keyword].
    let mut min_depth = vec![u32::MAX; n_nodes * n_keywords];
    let mut prod_sum = vec![0f64; n_nodes * n_keywords];
    let mut witnessed = vec![false; n_nodes];

    // The candidates containing the current entry, shallowest first, each
    // with its depth.
    let mut stack: Vec<(usize, usize)> = Vec::new();
    let mut next_node = 0usize;
    let mut advances = 0u64;
    let mut path = RootPath::default();

    for &(entry, kw) in sl {
        let kw = kw as usize;
        // With no candidate active and none left at or before the entry,
        // nothing contains it: nothing to update and nothing to witness.
        let pending = nodes.get(next_node).is_some_and(|&c| c <= entry);
        if stack.is_empty() && !pending {
            continue;
        }
        path.describe(table, entry);
        // Keep the active candidates that contain the entry, then activate
        // those up to it that do; candidates before the entry that do not
        // contain it end before it, so they never contain a later entry.
        while stack.last().is_some_and(|&(i, depth)| path.rows.get(depth) != Some(&nodes[i])) {
            stack.pop();
        }
        while next_node < n_nodes && nodes[next_node] <= entry {
            // The root path is in pre-order, so it is sorted.
            if let Ok(depth) = path.rows.binary_search(&nodes[next_node]) {
                stack.push((next_node, depth));
            }
            next_node += 1;
        }
        if stack.is_empty() {
            continue;
        }

        let d_entry = path.rows.len() - 1;
        let prods = &path.prods;
        advances += stack.len() as u64;
        for &(idx, d_node) in &stack {
            mask[idx] |= 1 << kw;
            let p = prods[d_entry] / prods[d_node];
            let slot = idx * n_keywords + kw;
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

        // Witness marking: this occurrence independently witnesses its
        // nearest enclosing entity node. Stacked candidates are prefixes of
        // the entry, so depth alone identifies the entity among them.
        if let Some(nearest) = path.entity_depth[d_entry] {
            if let Some(&(idx, _)) = stack.iter().rev().find(|&&(_, depth)| depth == nearest) {
                witnessed[idx] = true;
            }
        }
    }

    let stats = (0..n_nodes)
        .map(|i| {
            let sum: f64 = prod_sum[i * n_keywords..(i + 1) * n_keywords].iter().sum();
            let p = mask[i].count_ones() as f64;
            RowStats { mask: mask[i], rank: p * sum, witnessed: witnessed[i] }
        })
        .collect();
    (stats, advances)
}

/// The root path of the entry the sweep is at, by depth: `rows[t]` is its
/// prefix of depth `t`, `prods[t] = Π_{u<t} 1/children(rows[u])` (so the
/// product from a candidate at depth `a` down to the entry's parent is
/// `prods[d] / prods[a]`), and `entity_depth[t]` is the depth of the
/// deepest entity among `rows[..=t]`.
#[derive(Debug)]
struct RootPath {
    rows: Vec<u32>,
    prods: Vec<f64>,
    entity_depth: Vec<Option<usize>>,
    /// The rows a [`Self::describe`] adds, deepest first.
    fresh: Vec<u32>,
}

impl Default for RootPath {
    fn default() -> Self {
        RootPath { rows: Vec::new(), prods: vec![1.0], entity_depth: Vec::new(), fresh: Vec::new() }
    }
}

impl RootPath {
    /// Moves the path to `entry`: parent steps up from it to the deepest row
    /// the path already holds, then one metadata read per row below that
    /// (consecutive `SL` entries are pre-order neighbours, so most of the
    /// path is unchanged). The path is in pre-order, so the rows it holds
    /// past an ancestor of the entry are not ancestors of it. Across
    /// documents not even the roots coincide.
    fn describe(&mut self, table: &NodeTable, entry: u32) {
        self.fresh.clear();
        let mut row = Some(entry);
        while let Some(r) = row {
            while self.rows.last().is_some_and(|&last| last > r) {
                self.rows.pop();
            }
            if self.rows.last() == Some(&r) {
                break;
            }
            self.fresh.push(r);
            row = table.parent(r);
        }
        if row.is_none() {
            self.rows.clear();
        }
        let keep = self.rows.len();
        self.prods.truncate(keep + 1);
        self.entity_depth.truncate(keep);
        for &r in self.fresh.iter().rev() {
            let meta = table.meta(r);
            let children = meta.map_or(1, |m| m.child_count).max(1);
            // `prods` always holds its 1.0 seed; fall back to it so an empty
            // vector degrades gracefully instead of panicking.
            let last = self.prods.last().copied().unwrap_or(1.0);
            self.prods.push(last / children as f64);
            let enclosing = self.entity_depth.last().copied().flatten();
            let t = self.rows.len();
            self.entity_depth.push(if meta.is_some_and(|m| m.flags.is_entity()) {
                Some(t)
            } else {
                enclosing
            });
            self.rows.push(r);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::merge::merge_posting_lists;
    use gks_dewey::DocId;
    use gks_index::{Corpus, GksIndex, IndexOptions};

    fn d(steps: &[u32]) -> DeweyId {
        DeweyId::new(DocId(0), steps.to_vec())
    }

    /// The Figure 1 tree as reconstructed in DESIGN.md: leaves are `<v>`
    /// elements holding one keyword each.
    fn fig1_index() -> GksIndex {
        let xml = "<r>\
            <x1><v>ka</v><v>kb</v><v>kc</v><v>kf</v>\
                <x2><v>ka</v><v>kb</v><v>kc</v></x2></x1>\
            <x3><v>ka</v><v>kb</v><x5><v>kd</v><v>kf</v></x5></x3>\
            <x4><v>kc</v><v>kd</v></x4>\
        </r>";
        let corpus = Corpus::from_named_strs([("fig1", xml)]).unwrap();
        GksIndex::build(&corpus, IndexOptions::default()).unwrap()
    }

    fn sl_for(ix: &GksIndex, kws: &[&str]) -> Vec<SlEntry> {
        merge_posting_lists(kws.iter().map(|k| ix.postings(k).to_vec()).collect())
    }

    #[test]
    fn example5_ranks() {
        // Q3 = {a, b, c, d}: the paper's Example 5 computes rank(x2) = 3,
        // rank(x3) = 2.5, rank(x4) = 2.
        let ix = fig1_index();
        let sl = sl_for(&ix, &["ka", "kb", "kc", "kd"]);
        let x2 = d(&[0, 4]);
        let x3 = d(&[1]);
        let x4 = d(&[2]);
        let stats = sweep_counted(&ix, &sl, &[x2.clone(), x3.clone(), x4.clone()], 4).0;
        let by_node: std::collections::HashMap<_, _> =
            stats.iter().map(|s| (s.dewey.clone(), s)).collect();

        let s2 = by_node[&x2];
        assert_eq!(s2.keyword_count(), 3); // a, b, c
        assert!((s2.rank - 3.0).abs() < 1e-9, "rank(x2) = {}", s2.rank);

        let s3 = by_node[&x3];
        assert_eq!(s3.keyword_count(), 3); // a, b, d
        assert!((s3.rank - 2.5).abs() < 1e-9, "rank(x3) = {}", s3.rank);

        let s4 = by_node[&x4];
        assert_eq!(s4.keyword_count(), 2); // c, d
        assert!((s4.rank - 2.0).abs() < 1e-9, "rank(x4) = {}", s4.rank);
    }

    #[test]
    fn masks_are_exact() {
        let ix = fig1_index();
        let sl = sl_for(&ix, &["ka", "kd"]);
        let stats = sweep_counted(&ix, &sl, &[d(&[]), d(&[0, 4]), d(&[1, 2])], 2).0;
        assert_eq!(stats[0].mask, 0b11); // root sees both
        assert_eq!(stats[1].mask, 0b01); // x2 has a only
        assert_eq!(stats[2].mask, 0b10); // x5 has d only
    }

    #[test]
    fn highest_occurrence_is_the_terminal() {
        // For x1 and keyword 'ka': occurrences at depth 2 (direct v child) and
        // depth 3 (inside x2). Only the depth-2 one is a terminal.
        let ix = fig1_index();
        let sl = sl_for(&ix, &["ka"]);
        let x1 = d(&[0]);
        let stats = sweep_counted(&ix, &sl, &[x1], 1).0;
        // x1 has 5 children; the direct <v>ka</v> receives 1/5 of potential 1.
        assert!((stats[0].rank - 0.2).abs() < 1e-9, "rank = {}", stats[0].rank);
    }

    #[test]
    fn duplicate_terminals_at_same_depth_all_count() {
        let xml = "<r><v>ka</v><v>ka</v><v>kb</v></r>";
        let corpus = Corpus::from_named_strs([("t", xml)]).unwrap();
        let ix = GksIndex::build(&corpus, IndexOptions::default()).unwrap();
        let sl = sl_for(&ix, &["ka", "kb"]);
        let stats = sweep_counted(&ix, &sl, &[d(&[])], 2).0;
        // P = 2; terminals: two 'a' at 1/3 each, one 'b' at 1/3 → rank 2.
        assert!((stats[0].rank - 2.0).abs() < 1e-9, "rank = {}", stats[0].rank);
    }

    #[test]
    fn witness_marks_nearest_entity_only() {
        // Courses with students: each Course is an entity; the Area above
        // them gets no witness from keywords that live inside courses.
        let xml = r#"<Area><Name>DB</Name><Courses>
            <Course><Name>Mining</Name><Students>
                <Student>Karen</Student><Student>Mike</Student></Students></Course>
            <Course><Name>AI</Name><Students>
                <Student>Karen</Student><Student>John</Student></Students></Course>
        </Courses></Area>"#;
        let corpus = Corpus::from_named_strs([("w", xml)]).unwrap();
        let ix = GksIndex::build(&corpus, IndexOptions::default()).unwrap();
        let sl = sl_for(&ix, &["karen", "mike"]);
        let area = d(&[]);
        let course0 = d(&[1, 0]);
        let stats = sweep_counted(&ix, &sl, &[area, course0], 2).0;
        assert!(!stats[0].witnessed, "Area's keywords all live inside courses");
        assert!(stats[1].witnessed, "Course 0 directly contains karen & mike");
        // Both masks are full nonetheless.
        assert_eq!(stats[0].mask, 0b11);
        assert_eq!(stats[1].mask, 0b11);
    }

    #[test]
    fn advance_count_sums_active_stack_sizes() {
        let ix = fig1_index();
        let sl = sl_for(&ix, &["ka", "kd"]);
        // Candidates root, x2, x5: every entry updates the root; entries
        // inside x2 / x5 update two candidates.
        let nodes = [d(&[]), d(&[0, 4]), d(&[1, 2])];
        let (stats, advances) = sweep_counted(&ix, &sl, &nodes, 2);
        assert_eq!(stats.len(), 3);
        let mut expected = 0u64;
        for (entry, _) in &sl {
            expected += nodes.iter().filter(|n| n.is_ancestor_or_self(entry)).count() as u64;
        }
        assert_eq!(advances, expected);
        assert!(advances > sl.len() as u64, "nested candidates multi-count");
    }

    /// The sweep as first written, kept as the reference the differential
    /// proptest below compares against: per-entry `lea_cache`, an upward
    /// `lowest_entity_ancestor_or_self` walk, and a binary search of `nodes`
    /// for the witness.
    fn sweep_reference(
        index: &GksIndex,
        sl: &[SlEntry],
        nodes: &[DeweyId],
        n_keywords: usize,
    ) -> (Vec<NodeStats>, u64) {
        fn update_prods(
            index: &GksIndex,
            prods: &mut Vec<f64>,
            prev: Option<&DeweyId>,
            entry: &DeweyId,
        ) {
            let keep = prev.and_then(|p| p.common_prefix_len(entry)).unwrap_or(0);
            prods.truncate(keep + 1);
            for t in keep..entry.depth() {
                let prefix = entry.ancestor_at_depth(t);
                let children = index.node_table().child_count(&prefix).unwrap_or(1).max(1);
                let last = prods.last().copied().unwrap_or(1.0);
                prods.push(last / children as f64);
            }
        }

        let n_nodes = nodes.len();
        let mut mask = vec![0u64; n_nodes];
        let mut min_depth = vec![u32::MAX; n_nodes * n_keywords];
        let mut prod_sum = vec![0f64; n_nodes * n_keywords];
        let mut witnessed = vec![false; n_nodes];
        let mut stack: Vec<usize> = Vec::new();
        let mut next_node = 0usize;
        let mut advances = 0u64;
        let mut prods: Vec<f64> = vec![1.0];
        let mut prev_entry: Option<DeweyId> = None;
        let mut lea_cache: std::collections::HashMap<DeweyId, Option<DeweyId>> = Default::default();

        for (entry, kw) in sl {
            let kw = *kw as usize;
            while next_node < n_nodes && nodes[next_node] <= *entry {
                while stack
                    .last()
                    .is_some_and(|&t| !nodes[t].is_ancestor_or_self(&nodes[next_node]))
                {
                    stack.pop();
                }
                stack.push(next_node);
                next_node += 1;
            }
            while stack.last().is_some_and(|&t| !nodes[t].is_ancestor_or_self(entry)) {
                stack.pop();
            }
            if !stack.is_empty() {
                update_prods(index, &mut prods, prev_entry.as_ref(), entry);
                prev_entry = Some(entry.clone());
                let d_entry = entry.depth();
                advances += stack.len() as u64;
                for &idx in &stack {
                    mask[idx] |= 1 << kw;
                    let p = prods[d_entry] / prods[nodes[idx].depth()];
                    let slot = idx * n_keywords + kw;
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
            }
            let lea = lea_cache
                .entry(entry.clone())
                .or_insert_with(|| index.node_table().lowest_entity_ancestor_or_self(entry))
                .clone();
            if let Some(idx) = lea.and_then(|entity| nodes.binary_search(&entity).ok()) {
                witnessed[idx] = true;
            }
        }

        let stats = (0..n_nodes)
            .map(|i| {
                let sum: f64 = prod_sum[i * n_keywords..(i + 1) * n_keywords].iter().sum();
                NodeStats {
                    dewey: nodes[i].clone(),
                    mask: mask[i],
                    rank: mask[i].count_ones() as f64 * sum,
                    witnessed: witnessed[i],
                }
            })
            .collect();
        (stats, advances)
    }

    /// One random document from an instruction stream: text leaves (`<w>`
    /// repeats, `<name>` tends to be an attribute node, so their parents
    /// become entities), nested groups, and eight-deep chains of `<c>`
    /// connecting nodes that push postings past the inline id depth and put
    /// entity-free stretches on root paths.
    fn random_doc(ops: &[(u8, u8)]) -> String {
        const WORDS: [&str; 4] = ["alpha", "beta", "gamma", "delta"];
        const GROUPS: [&str; 3] = ["rec", "grp", "item"];
        let mut xml = String::from("<root>");
        let mut open: Vec<&str> = Vec::new();
        for &(op, arg) in ops {
            let word = WORDS[arg as usize % WORDS.len()];
            match op % 8 {
                0..=2 => xml.push_str(&format!("<w>{word}</w>")),
                3 => xml.push_str(&format!("<name>{word}</name>")),
                4 | 5 => {
                    let tag = GROUPS[arg as usize % GROUPS.len()];
                    xml.push_str(&format!("<{tag}>"));
                    open.push(tag);
                }
                6 => {
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
        xml.push_str("</root>");
        xml
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(192))]

        /// The stack-carried sweep equals the reference bit for bit: masks,
        /// ranks, witnesses and the advance count, over multi-document
        /// corpora, |Q| in 1..=8 with tag-name keywords (the same node posts
        /// for its tag and its text), and candidate sets that include
        /// arbitrary nodes beside the window's own.
        #[test]
        fn sweep_matches_reference(
            docs in proptest::collection::vec(proptest::collection::vec((0u8..8, 0u8..12), 0..60), 1..4),
            picks in proptest::collection::vec(0usize..8, 1..=8),
            s in 1usize..4,
            extra in proptest::collection::vec(0usize..10_000, 0..12),
        ) {
            const POOL: [&str; 8] = ["alpha", "beta", "gamma", "delta", "w", "name", "rec", "c"];
            let xmls: Vec<String> = docs.iter().map(|ops| random_doc(ops)).collect();
            let corpus =
                Corpus::from_named_strs(xmls.iter().enumerate().map(|(i, x)| (format!("d{i}"), x.as_str())))
                    .unwrap();
            let ix = GksIndex::build(&corpus, IndexOptions::default()).unwrap();
            let kws: Vec<&str> = picks.iter().map(|&i| POOL[i]).collect();
            let n = kws.len();
            let sl = sl_for(&ix, &kws);

            let mut nodes = crate::window::lcp_candidates(&ix, &sl, s.min(n), n);
            let lces: Vec<DeweyId> = nodes
                .iter()
                .filter_map(|c| ix.node_table().lowest_entity_ancestor_or_self(c))
                .collect();
            nodes.extend(lces);
            let table = ix.node_table();
            nodes.extend(extra.iter().map(|&i| table.id((i % table.len()) as u32).unwrap()));
            nodes.sort();
            nodes.dedup();

            let (got, got_advances) = sweep_counted(&ix, &sl, &nodes, n);
            let (want, want_advances) = sweep_reference(&ix, &sl, &nodes, n);
            proptest::prop_assert_eq!(got_advances, want_advances);
            proptest::prop_assert_eq!(got.len(), want.len());
            for (g, w) in got.iter().zip(&want) {
                proptest::prop_assert_eq!(&g.dewey, &w.dewey);
                proptest::prop_assert_eq!(g.mask, w.mask, "mask of {}", g.dewey);
                proptest::prop_assert_eq!(g.rank.to_bits(), w.rank.to_bits(), "rank of {}", g.dewey);
                proptest::prop_assert_eq!(g.witnessed, w.witnessed, "witness of {}", g.dewey);
            }
        }
    }

    #[test]
    fn empty_inputs() {
        let ix = fig1_index();
        assert!(sweep_counted(&ix, &[], &[], 1).0.is_empty());
        let stats = sweep_counted(&ix, &[], &[d(&[])], 1).0;
        assert_eq!(stats[0].mask, 0);
        assert_eq!(stats[0].rank, 0.0);
    }
}
