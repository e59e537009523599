//! K-way merge of posting lists into the merged list `SL` (paper §4.1).
//!
//! "For the query keywords ki ∈ Q, we first merge their respective inverted
//! index lists such that in the merged list, keywords follow their arrival
//! order in the XML document" — i.e. `SL` is sorted by Dewey id (document
//! order), each entry tagged with the keyword it came from. The merge is the
//! classic heap-based k-way merge, O(|SL|·log n). The search merges the
//! lists as pre-order rows (`SlRow`); the Dewey form is the same merge.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use gks_dewey::DeweyId;
use gks_index::NodeTable;

/// One entry of the merged list: a node and the query keyword (by index)
/// found at it.
pub type SlEntry = (DeweyId, u8);

/// [`SlEntry`] on the node table's pre-order rows, which sort as the ids
/// do: the form the search runs on.
pub(crate) type SlRow = (u32, u8);

/// [`merge_posting_lists`] plus the heap-operation count for the cost
/// ledger: every input entry is pushed and popped exactly once, so the
/// count is `2 × Σ|list|` — a deterministic function of the inputs, equal
/// to the actual number of `BinaryHeap` operations performed.
pub fn merge_posting_lists_counted(lists: Vec<Vec<DeweyId>>) -> (Vec<SlEntry>, u64) {
    let heap_ops = heap_ops(&lists);
    (merge_posting_lists(lists), heap_ops)
}

/// Merges the per-keyword lists (each already document-ordered) into `SL`.
pub fn merge_posting_lists(lists: Vec<Vec<DeweyId>>) -> Vec<SlEntry> {
    merge_sorted(lists.into_iter().map(Vec::into_iter))
}

/// `sl` on rows, or `None` when some entry's id has no row.
pub(crate) fn sl_rows(table: &NodeTable, sl: &[SlEntry]) -> Option<Vec<SlRow>> {
    let rows = table.rows_of(sl.iter().map(|(id, _)| id)).ok()?;
    Some(rows.into_iter().zip(sl).map(|(row, &(_, kw))| (row, kw)).collect())
}

/// `2 × Σ|list|`: the heap operations [`merge_sorted`] performs.
pub(crate) fn heap_ops<T>(lists: &[impl AsRef<[T]>]) -> u64 {
    lists.iter().map(|l| 2 * l.as_ref().len() as u64).sum()
}

/// The k-way merge of sorted lists, each entry tagged with its list's
/// index. Equal entries come out in list order. The lists come as
/// iterators, so the search merges the rows it borrows from the posting
/// slots without copying them first, and the Dewey form moves its ids.
pub(crate) fn merge_sorted<T: Ord, I: ExactSizeIterator<Item = T>>(
    lists: impl IntoIterator<Item = I>,
) -> Vec<(T, u8)> {
    let mut iters: Vec<I> = lists.into_iter().collect();
    let mut out = Vec::with_capacity(iters.iter().map(ExactSizeIterator::len).sum());
    // Heap of (next entry, list index); Reverse for a min-heap.
    let mut heap: BinaryHeap<Reverse<(T, usize)>> = BinaryHeap::with_capacity(iters.len());
    for (k, it) in iters.iter_mut().enumerate() {
        if let Some(first) = it.next() {
            heap.push(Reverse((first, k)));
        }
    }
    while let Some(Reverse((entry, k))) = heap.pop() {
        out.push((entry, k as u8));
        if let Some(next) = iters[k].next() {
            heap.push(Reverse((next, k)));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use gks_dewey::DocId;

    fn d(steps: &[u32]) -> DeweyId {
        DeweyId::new(DocId(0), steps.to_vec())
    }

    #[test]
    fn merge_interleaves_in_document_order() {
        let a = vec![d(&[0, 0]), d(&[2])];
        let b = vec![d(&[0, 1]), d(&[1]), d(&[3])];
        let sl = merge_posting_lists(vec![a, b]);
        let ids: Vec<&DeweyId> = sl.iter().map(|(id, _)| id).collect();
        assert!(ids.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(
            sl,
            vec![(d(&[0, 0]), 0), (d(&[0, 1]), 1), (d(&[1]), 1), (d(&[2]), 0), (d(&[3]), 1),]
        );
    }

    #[test]
    fn same_node_for_two_keywords_keeps_both_entries() {
        // An element-name keyword and a text keyword can hit the same node.
        let a = vec![d(&[1])];
        let b = vec![d(&[1])];
        let sl = merge_posting_lists(vec![a, b]);
        assert_eq!(sl.len(), 2);
        assert_eq!(sl[0].0, sl[1].0);
    }

    #[test]
    fn counted_merge_reports_two_ops_per_entry() {
        let a = vec![d(&[0, 0]), d(&[2])];
        let b = vec![d(&[0, 1]), d(&[1]), d(&[3])];
        let plain = merge_posting_lists(vec![a.clone(), b.clone()]);
        let (sl, heap_ops) = merge_posting_lists_counted(vec![a, b]);
        assert_eq!(sl, plain, "counting wrapper changes nothing");
        assert_eq!(heap_ops, 10, "5 entries × (push + pop)");
        assert_eq!(merge_posting_lists_counted(vec![]).1, 0);
    }

    #[test]
    fn empty_lists_are_fine() {
        assert!(merge_posting_lists(vec![]).is_empty());
        assert!(merge_posting_lists(vec![vec![], vec![]]).is_empty());
        let sl = merge_posting_lists(vec![vec![], vec![d(&[0])]]);
        assert_eq!(sl, vec![(d(&[0]), 1)]);
    }
}
