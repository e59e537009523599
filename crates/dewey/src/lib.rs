//! Dewey identifiers for ordered XML trees.
//!
//! Every node of an XML document is labelled with a *Dewey id* ([`DeweyId`]):
//! the sequence of sibling ordinals on the path from the document root to the
//! node, prefixed by the identifier of the document it belongs to
//! ([`DocId`]). A node with Dewey id `0.2.3` is the fourth child of its parent
//! node `0.2` (GKS paper, §2.1). Dewey ids have two properties every GKS
//! algorithm relies on:
//!
//! 1. **Document order.** Sorting Dewey ids lexicographically (document id
//!    first, then path steps, with a shorter prefix ordering before its
//!    extensions) recovers the pre-order traversal of the forest. This is how
//!    the merged posting list `SL` of §4.1 is ordered.
//! 2. **Prefix algebra.** `v` is an ancestor of `u` iff `v`'s id is a strict
//!    prefix of `u`'s id, so lowest-common-ancestor computations reduce to
//!    longest-common-prefix computations (Lemma 6 of the paper: in a sorted
//!    block, the LCP of the first and last id is the LCP of the whole block).
//!
//! The crate also provides a compact varint codec ([`codec`]) used by the
//! index persistence layer, so that on-disk index size (Table 4 of the paper)
//! reflects a realistic encoding rather than in-memory layout.
//!
//! In memory a [`DeweyId`] is one 32-byte value: a path of up to six steps
//! is stored in the id itself, a deeper one spills to a single heap slice.

pub mod codec;
mod id;

pub use id::{DeweyId, DocId, Step};

#[cfg(test)]
mod tests {
    use super::*;

    fn d(doc: u32, steps: &[u32]) -> DeweyId {
        DeweyId::new(DocId(doc), steps.to_vec())
    }

    #[test]
    fn document_order_matches_preorder() {
        // Pre-order of a small tree in document 0, then a root in document 1.
        let order = vec![
            d(0, &[]),
            d(0, &[0]),
            d(0, &[0, 0]),
            d(0, &[0, 1]),
            d(0, &[1]),
            d(0, &[1, 0, 5]),
            d(0, &[2]),
            d(1, &[]),
            d(1, &[0]),
        ];
        let mut shuffled = order.clone();
        shuffled.reverse();
        shuffled.sort();
        assert_eq!(shuffled, order);
    }

    #[test]
    fn ancestor_is_strict_prefix_same_document() {
        let root = d(0, &[]);
        let a = d(0, &[0, 1]);
        let b = d(0, &[0, 1, 2]);
        assert!(root.is_ancestor_of(&a));
        assert!(a.is_ancestor_of(&b));
        assert!(!b.is_ancestor_of(&a));
        assert!(!a.is_ancestor_of(&a), "ancestor is strict");
        assert!(a.is_ancestor_or_self(&a));
        // Different documents never relate.
        assert!(!d(1, &[]).is_ancestor_of(&a));
    }

    #[test]
    fn common_prefix_is_lca() {
        let a = d(0, &[0, 1, 2]);
        let b = d(0, &[0, 1, 5, 7]);
        assert_eq!(a.common_prefix(&b), Some(d(0, &[0, 1])));
        // LCA with an ancestor is the ancestor itself.
        let anc = d(0, &[0]);
        assert_eq!(a.common_prefix(&anc), Some(anc));
        // Cross-document pairs have no common ancestor.
        assert_eq!(a.common_prefix(&d(1, &[0])), None);
    }

    #[test]
    fn parent_child_depth() {
        let n = d(3, &[0, 2, 3]);
        assert_eq!(n.depth(), 3);
        assert_eq!(n.parent(), Some(d(3, &[0, 2])));
        assert_eq!(n.child(4), d(3, &[0, 2, 3, 4]));
        assert_eq!(d(3, &[]).parent(), None);
        assert_eq!(d(3, &[]).depth(), 0);
    }

    #[test]
    fn subtree_upper_bound_brackets_descendants() {
        let n = d(0, &[1, 2]);
        let ub = n.subtree_upper_bound();
        // Everything in the subtree sorts in [n, ub).
        for inside in [d(0, &[1, 2]), d(0, &[1, 2, 0]), d(0, &[1, 2, 99, 4])] {
            assert!(n <= inside && inside < ub, "{inside} should be in range");
        }
        for outside in [d(0, &[1, 3]), d(0, &[2]), d(1, &[]), d(0, &[1])] {
            assert!(outside < n || outside >= ub, "{outside} should be outside");
        }
    }

    #[test]
    fn subtree_upper_bound_carries_at_max_step() {
        // A final step of Step::MAX must carry into the parent position.
        let n = d(0, &[1, Step::MAX]);
        let ub = n.subtree_upper_bound();
        assert_eq!(ub, d(0, &[2]));
        // Root of the last representable subtree: bound moves to next document.
        let deep = d(0, &[Step::MAX]);
        assert_eq!(deep.subtree_upper_bound(), d(1, &[]));
    }

    #[test]
    fn display_and_parse_round_trip() {
        let n = d(7, &[0, 12, 3]);
        let s = n.to_string();
        assert_eq!(s, "7:0.12.3");
        assert_eq!(s.parse::<DeweyId>().unwrap(), n);
        let root = d(2, &[]);
        assert_eq!(root.to_string(), "2:");
        assert_eq!("2:".parse::<DeweyId>().unwrap(), root);
        assert!("x:1".parse::<DeweyId>().is_err());
        assert!("1:a.b".parse::<DeweyId>().is_err());
    }

    #[test]
    fn steps_accessors() {
        let n = d(0, &[5, 6]);
        assert_eq!(n.steps(), &[5, 6]);
        assert_eq!(n.doc(), DocId(0));
        assert_eq!(n.last_step(), Some(6));
        assert_eq!(d(0, &[]).last_step(), None);
    }

    #[test]
    fn ancestors_iterator_walks_to_root() {
        let n = d(0, &[1, 2, 3]);
        let anc: Vec<DeweyId> = n.ancestors().collect();
        assert_eq!(anc, vec![d(0, &[1, 2]), d(0, &[1]), d(0, &[])]);
        assert_eq!(d(0, &[]).ancestors().count(), 0);
    }
}
