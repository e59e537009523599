//! XRank-style ranking (Guo et al., SIGMOD 2003) — the LCA-world ranking
//! baseline the paper positions itself against in §3 ("XRank takes into
//! account the keyword proximity in the XML nodes").
//!
//! Two components, simplified to document trees without hyperlinks:
//!
//! * **ElemRank** — a PageRank-flavoured importance score propagated along
//!   containment edges in both directions:
//!   `e(v) = (1−d_f−d_b)/N + d_f·e(parent)/children(parent) + d_b·Σ_c e(c)`,
//!   computed by power iteration over the node table.
//! * **Decayed result ranking** — a result node scores, per query keyword,
//!   the best `ElemRank(occurrence) · decay^(depth(occurrence)−depth(v))`
//!   over its occurrences, summed over keywords.
//!
//! GKS rejects this family because it "works by using aggregated statistical
//! information for the entire XML repository" over a *fixed* keyword set
//! (§5); the ablation experiment quantifies the difference.

use gks_dewey::DeweyId;
use gks_index::fasthash::FastMap;
use gks_index::GksIndex;

/// ElemRank scores for every element node of an index.
#[derive(Debug)]
pub struct ElemRank {
    scores: FastMap<DeweyId, f64>,
}

/// Parameters of the ElemRank iteration.
#[derive(Debug, Clone, Copy)]
pub struct ElemRankParams {
    /// Forward (parent → child) damping, the paper's `d1`.
    pub forward: f64,
    /// Backward (child → parent) damping.
    pub backward: f64,
    /// Power-iteration rounds (the tree diameter bounds useful work).
    pub iterations: usize,
}

impl Default for ElemRankParams {
    fn default() -> Self {
        ElemRankParams { forward: 0.35, backward: 0.25, iterations: 30 }
    }
}

impl ElemRank {
    /// Computes ElemRank over all nodes of the index.
    pub fn compute(index: &GksIndex, params: ElemRankParams) -> ElemRank {
        let table = index.node_table();
        let n = table.len().max(1);
        let base = (1.0 - params.forward - params.backward) / n as f64;

        // Parent pointers and fan-outs by row, for fast iteration.
        let rows = 0..table.len() as u32;
        let parent: Vec<Option<usize>> =
            rows.clone().map(|row| table.parent(row).map(|p| p as usize)).collect();
        let child_count: Vec<f64> = rows
            .clone()
            .map(|row| f64::from(table.meta(row).map_or(1, |m| m.child_count).max(1)))
            .collect();

        let mut score = vec![1.0 / n as f64; parent.len()];
        let mut next = vec![0.0f64; parent.len()];
        for _ in 0..params.iterations {
            next.fill(base);
            for i in 0..parent.len() {
                if let Some(p) = parent[i] {
                    // Forward: parent's score splits over its children.
                    next[i] += params.forward * score[p] / child_count[p];
                    // Backward: child's score flows to the parent.
                    next[p] += params.backward * score[i];
                }
            }
            std::mem::swap(&mut score, &mut next);
        }
        let scores = rows
            .zip(score)
            .filter_map(|(row, score)| Some((table.id(row)?, score)))
            .collect::<FastMap<_, _>>();
        ElemRank { scores }
    }

    /// The score of one node (0 for unknown nodes).
    pub fn score(&self, node: &DeweyId) -> f64 {
        self.scores.get(node).copied().unwrap_or(0.0)
    }

    /// Number of scored nodes.
    pub fn len(&self) -> usize {
        self.scores.len()
    }

    /// True when nothing was scored.
    pub fn is_empty(&self) -> bool {
        self.scores.is_empty()
    }
}

/// Ranks result nodes XRank-style: per keyword, the best decayed ElemRank of
/// an occurrence inside the node; summed over keywords. `lists` are the
/// per-keyword posting lists; `decay` ∈ (0, 1].
pub fn rank_results(
    elem_rank: &ElemRank,
    results: &[DeweyId],
    lists: &[Vec<DeweyId>],
    decay: f64,
) -> Vec<f64> {
    results
        .iter()
        .map(|v| {
            let ub = v.subtree_upper_bound();
            lists
                .iter()
                .map(|list| {
                    // Occurrences inside v form a contiguous sorted range.
                    let lo = list.partition_point(|x| x < v);
                    list[lo..]
                        .iter()
                        .take_while(|x| **x < ub)
                        .map(|occ| {
                            let dist = (occ.depth() - v.depth()) as i32;
                            elem_rank.score(occ) * decay.powi(dist)
                        })
                        .fold(0.0f64, f64::max)
                })
                .sum()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query_posting_lists;
    use gks_core::query::Query;
    use gks_dewey::DocId;
    use gks_index::{Corpus, IndexOptions};

    fn index_of(xml: &str) -> GksIndex {
        let corpus = Corpus::from_named_strs([("t", xml)]).unwrap();
        GksIndex::build(&corpus, IndexOptions::default()).unwrap()
    }

    fn d(steps: &[u32]) -> DeweyId {
        DeweyId::new(DocId(0), steps.to_vec())
    }

    #[test]
    fn elemrank_mass_is_conserved_approximately() {
        let ix = index_of("<r><a><w>x</w><w>y</w></a><b><w>z</w></b></r>");
        let er = ElemRank::compute(&ix, ElemRankParams::default());
        assert_eq!(er.len(), ix.node_table().len());
        let table = ix.node_table();
        let ids: Vec<DeweyId> = (0..table.len() as u32).map(|row| table.id(row).unwrap()).collect();
        let total: f64 = ids.iter().map(|dw| er.score(dw)).sum();
        // The walk leaks a little mass at the root/leaf boundaries; it must
        // stay in the same ballpark as a distribution.
        assert!(total > 0.3 && total < 1.5, "total mass {total}");
        for dw in &ids {
            assert!(er.score(dw) > 0.0, "{dw} has no score");
        }
    }

    #[test]
    fn hub_nodes_score_higher_than_leaves() {
        // A root with many children accumulates backward flow.
        let ix = index_of("<r><w>a1</w><w>a2</w><w>a3</w><w>a4</w><w>a5</w></r>");
        let er = ElemRank::compute(&ix, ElemRankParams::default());
        let root = er.score(&d(&[]));
        let leaf = er.score(&d(&[0]));
        assert!(root > leaf, "root {root} vs leaf {leaf}");
    }

    #[test]
    fn decay_prefers_shallow_occurrences() {
        // Same keyword once shallow, once deep; the shallow result node must
        // outrank the deep-occurrence one.
        let ix = index_of(
            "<r><shallow><w>needle</w></shallow>\
             <deep><l1><l2><l3><w>needle</w></l3></l2></l1></deep></r>",
        );
        let er = ElemRank::compute(&ix, ElemRankParams::default());
        let q = Query::parse("needle").unwrap();
        let lists = query_posting_lists(&ix, &q);
        let results = vec![d(&[0]), d(&[1])]; // <shallow>, <deep>
        let scores = rank_results(&er, &results, &lists, 0.5);
        assert!(scores[0] > scores[1], "shallow {} should beat deep {}", scores[0], scores[1]);
    }

    #[test]
    fn results_without_occurrences_score_zero() {
        let ix = index_of("<r><a><w>needle</w></a><b><w>other</w></b></r>");
        let er = ElemRank::compute(&ix, ElemRankParams::default());
        let q = Query::parse("needle").unwrap();
        let lists = query_posting_lists(&ix, &q);
        let scores = rank_results(&er, &[d(&[1])], &lists, 0.8);
        assert_eq!(scores, vec![0.0]);
    }
}
