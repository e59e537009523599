//! The GKS node categorization model (paper §2.2).
//!
//! Nodes are placed in four categories, *at the instance level*, from the
//! structure of their subtrees alone (no schema needed):
//!
//! * **Attribute node (AN)** — Def 2.1.1: a node whose only child is its
//!   value. A text-only node that has a same-label sibling is a *repeating*
//!   node instead ("a node that directly contains its value and also has
//!   siblings with the same XML tag is considered a repeating node").
//! * **Repeating node (RN)** — Def 2.1.2: a node with same-label siblings.
//!   Every example in the paper (Students, Courses, Areas, authors) is a
//!   sibling group, so sibling repetition is the operational rule here.
//! * **Entity node (EN)** — Def 2.1.3: the lowest common ancestor of a
//!   repeating group and at least one attribute node whose path from the
//!   entity crosses no repeating node (such attributes "define the context of
//!   the repeating nodes in its sub-tree").
//! * **Connecting node (CN)** — everything else.
//!
//! Because "XML documents follow pre-order arrival of nodes … different node
//! types are identified in a single pass": a node's EN status is decided when
//! its end tag arrives (all children summaries are known), and its AN/RN
//! status is decided when its *parent's* end tag arrives (siblings are then
//! known). [`close_element`] implements exactly that hand-off.
//!
//! A node can hold several flags at once — "a node can be an entity node and
//! at the same time a repeating node for another entity node higher up in the
//! hierarchy" — so flags are a bit set ([`NodeFlags`]) and Table-5-style
//! censuses use the single *primary* category ([`NodeFlags::primary`]): text
//! nodes are RN if repeating else AN; element nodes are EN if the entity rule
//! holds, else RN if repeating *and without attribute children* (this is what
//! makes the paper's single-author `<article>` instances count as CN), else
//! CN.

use crate::fasthash::FastMap;

/// The four categories of §2.2, used for censuses and display.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NodeCategory {
    /// Attribute node (AN).
    Attribute,
    /// Repeating node (RN).
    Repeating,
    /// Entity node (EN).
    Entity,
    /// Connecting node (CN).
    Connecting,
}

impl NodeCategory {
    /// Short display form used in experiment tables.
    pub fn abbrev(self) -> &'static str {
        match self {
            NodeCategory::Attribute => "AN",
            NodeCategory::Repeating => "RN",
            NodeCategory::Entity => "EN",
            NodeCategory::Connecting => "CN",
        }
    }
}

/// Bit-set of category memberships plus structural facts about a node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct NodeFlags(u8);

impl NodeFlags {
    const ATTRIBUTE: u8 = 1 << 0;
    const REPEATING: u8 = 1 << 1;
    const ENTITY: u8 = 1 << 2;
    const CONNECTING: u8 = 1 << 3;
    /// The node has no element children (it directly contains its value).
    const TEXT_ONLY: u8 = 1 << 4;
    /// The node has at least one direct attribute-node child.
    const HAS_ATTR_CHILD: u8 = 1 << 5;

    /// No flags set.
    pub fn empty() -> Self {
        NodeFlags(0)
    }

    /// Raw bits, for persistence.
    pub fn bits(self) -> u8 {
        self.0
    }

    /// Rebuilds from persisted bits.
    pub fn from_bits(bits: u8) -> Self {
        NodeFlags(bits)
    }

    /// Is the attribute-node flag set?
    pub fn is_attribute(self) -> bool {
        self.0 & Self::ATTRIBUTE != 0
    }

    /// Is the repeating-node flag set?
    pub fn is_repeating(self) -> bool {
        self.0 & Self::REPEATING != 0
    }

    /// Is the entity-node flag set?
    pub fn is_entity(self) -> bool {
        self.0 & Self::ENTITY != 0
    }

    /// Is the connecting-node flag set?
    pub fn is_connecting(self) -> bool {
        self.0 & Self::CONNECTING != 0
    }

    /// Does the node directly contain its value (no element children)?
    pub fn is_text_only(self) -> bool {
        self.0 & Self::TEXT_ONLY != 0
    }

    /// Does the node have a direct attribute-node child?
    pub fn has_attr_child(self) -> bool {
        self.0 & Self::HAS_ATTR_CHILD != 0
    }

    fn set(&mut self, bit: u8, on: bool) {
        if on {
            self.0 |= bit;
        } else {
            self.0 &= !bit;
        }
    }

    /// The single category used in Table-5-style censuses (see module docs
    /// for the priority policy).
    pub fn primary(self) -> NodeCategory {
        if self.is_text_only() {
            if self.is_repeating() {
                NodeCategory::Repeating
            } else {
                NodeCategory::Attribute
            }
        } else if self.is_entity() {
            NodeCategory::Entity
        } else if self.is_repeating() && !self.has_attr_child() {
            NodeCategory::Repeating
        } else {
            NodeCategory::Connecting
        }
    }
}

/// What a closed element reports to its parent. The parent finalizes the
/// child's AN/RN status (sibling repetition is a parent-level fact) and uses
/// the structural summaries for its own entity decision.
#[derive(Debug, Clone, Copy)]
pub struct ChildSummary {
    /// Interned label of the child element.
    pub label: u32,
    /// The child directly contains its value (no element children).
    pub text_only: bool,
    /// The child's subtree contains an attribute node reachable from the
    /// child without crossing a repeating node.
    pub qual_attr_inside: bool,
    /// The child's subtree contains a repeating sibling group.
    pub has_rep_inside: bool,
}

/// The outcome of closing an element, produced by [`close_element`].
#[derive(Debug, Clone)]
pub struct CloseOutcome<'s> {
    /// Whether this element satisfies the entity rule (Def 2.1.3).
    pub is_entity: bool,
    /// Whether this element has at least one direct attribute-node child.
    pub has_attr_child: bool,
    /// Per-child: is the child part of a repeating sibling group?
    pub child_repeating: &'s [bool],
    /// Summary this element reports to *its* parent.
    pub summary_qual_attr_inside: bool,
    /// Summary: repeating group anywhere in this element's subtree.
    pub summary_has_rep_inside: bool,
}

/// Buffers [`close_element`] reuses from one element to the next.
#[derive(Debug, Default)]
pub struct CloseScratch {
    /// Sibling count per label id.
    label_counts: FastMap<u32, u32>,
    /// Backs [`CloseOutcome::child_repeating`].
    child_repeating: Vec<bool>,
}

/// Runs the categorization step for one closing element, given the summaries
/// of its element children (in order). Linear in the number of children.
pub fn close_element<'s>(
    children: &[ChildSummary],
    scratch: &'s mut CloseScratch,
) -> CloseOutcome<'s> {
    let CloseScratch { label_counts, child_repeating } = scratch;
    label_counts.clear();
    for c in children {
        *label_counts.entry(c.label).or_insert(0) += 1;
    }
    child_repeating.clear();
    child_repeating.extend(children.iter().map(|c| label_counts[&c.label] >= 2));
    let rep_at_v = child_repeating.contains(&true);
    let rep_inside = children.iter().filter(|c| c.has_rep_inside).count();

    // A child grants "qualifying attribute" reachability when it is itself an
    // attribute node (text-only, non-repeating) or a non-repeating element
    // whose subtree has one.
    //
    // Entity rule: a qualifying attribute and a repeating group whose joint
    // LCA is this node. A group formed by this node's own repeating children
    // has its LCA here, so any qualifying attribute works (case A). Otherwise
    // the attribute and a group buried in a subtree must come from *distinct*
    // children (case B) — if both witnesses live inside one child, that child
    // (or something below it) is the LCA, not this node. Case B holds for a
    // reaching child iff some *other* child has a group inside.
    let mut qual_attr_total = false;
    let mut has_attr_child = false;
    let mut case_b = false;
    for (c, &rep) in children.iter().zip(child_repeating.iter()) {
        let attr_reach = !rep && (c.text_only || c.qual_attr_inside);
        qual_attr_total |= attr_reach;
        has_attr_child |= c.text_only && !rep;
        case_b |= attr_reach && rep_inside > usize::from(c.has_rep_inside);
    }

    CloseOutcome {
        is_entity: (rep_at_v && qual_attr_total) || case_b,
        has_attr_child,
        child_repeating,
        summary_qual_attr_inside: qual_attr_total,
        summary_has_rep_inside: rep_at_v || rep_inside > 0,
    }
}

/// Sets the flags a parent decides for its child: repetition, and thereby
/// AN-vs-RN for text-only children.
pub fn finalize_child_flags(flags: &mut NodeFlags, repeating: bool) {
    flags.set(NodeFlags::REPEATING, repeating);
    if flags.is_text_only() {
        flags.set(NodeFlags::ATTRIBUTE, !repeating);
    } else if !flags.is_entity() {
        flags.set(NodeFlags::CONNECTING, true);
    }
}

/// Sets the flags an element decides for itself at close time.
pub fn self_flags(text_only: bool, is_entity: bool, has_attr_child: bool) -> NodeFlags {
    let mut f = NodeFlags::empty();
    f.set(NodeFlags::TEXT_ONLY, text_only);
    f.set(NodeFlags::ENTITY, is_entity && !text_only);
    f.set(NodeFlags::HAS_ATTR_CHILD, has_attr_child);
    f
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn child(label: u32, text_only: bool, qual: bool, rep: bool) -> ChildSummary {
        ChildSummary { label, text_only, qual_attr_inside: qual, has_rep_inside: rep }
    }

    /// [`close_element`] as first written, every field owned: the entity
    /// rule checks every (attribute child, other child) pair, which is
    /// quadratic. Kept only to test the linear rule against.
    fn reference_close(children: &[ChildSummary]) -> (bool, bool, Vec<bool>, bool, bool) {
        let mut counts: FastMap<u32, u32> = FastMap::default();
        for c in children {
            *counts.entry(c.label).or_insert(0) += 1;
        }
        let child_repeating: Vec<bool> = children.iter().map(|c| counts[&c.label] >= 2).collect();
        let rep_at_v = child_repeating.iter().any(|&r| r);
        let attr_reach: Vec<bool> = children
            .iter()
            .zip(&child_repeating)
            .map(|(c, &rep)| !rep && (c.text_only || c.qual_attr_inside))
            .collect();
        let qual_attr_total = attr_reach.iter().any(|&a| a);
        let has_attr_child =
            children.iter().zip(&child_repeating).any(|(c, &rep)| c.text_only && !rep);
        let is_entity = if rep_at_v && qual_attr_total {
            true
        } else {
            let rep_in: Vec<bool> = children.iter().map(|c| c.has_rep_inside).collect();
            (0..children.len())
                .any(|i| attr_reach[i] && (0..children.len()).any(|j| j != i && rep_in[j]))
        };
        let summary_has_rep_inside = rep_at_v || children.iter().any(|c| c.has_rep_inside);
        (
            is_entity,
            has_attr_child,
            child_repeating,
            qual_attr_total,
            summary_has_rep_inside,
        )
    }

    fn arb_children() -> impl Strategy<Value = Vec<ChildSummary>> {
        // Few labels, so sibling groups form; up to 12 children.
        let summary =
            (0u32..6, 0u32..2, 0u32..2, 0u32..2).prop_map(|(label, t, q, r)| ChildSummary {
                label,
                text_only: t == 1,
                qual_attr_inside: q == 1,
                has_rep_inside: r == 1,
            });
        prop::collection::vec(summary, 0..12)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2048))]

        /// The linear rule decides exactly what the pairwise rule does, and
        /// one scratch serves any sequence of elements.
        #[test]
        fn linear_entity_rule_matches_pairwise(
            first in arb_children(),
            second in arb_children(),
        ) {
            let mut scratch = CloseScratch::default();
            for children in [&first, &second] {
                let out = close_element(children, &mut scratch);
                let linear = (
                    out.is_entity,
                    out.has_attr_child,
                    out.child_repeating.to_vec(),
                    out.summary_qual_attr_inside,
                    out.summary_has_rep_inside,
                );
                prop_assert_eq!(linear, reference_close(children), "{children:?}");
            }
        }
    }

    #[test]
    fn entity_case_a_direct_group_plus_attribute() {
        // <course><name>…</name><student/><student/></course> — wait,
        // students here are direct repeating children; name is a direct AN.
        let children = [
            child(0, true, false, false),
            child(1, true, false, false),
            child(1, true, false, false),
        ];
        let mut scratch = CloseScratch::default();
        let out = close_element(&children, &mut scratch);
        assert!(out.is_entity);
        assert_eq!(out.child_repeating, &[false, true, true]);
        assert!(out.has_attr_child);
        assert!(out.summary_qual_attr_inside);
        assert!(out.summary_has_rep_inside);
    }

    #[test]
    fn entity_case_b_attribute_and_group_in_distinct_children() {
        // <area><name>…</name><courses>(course*)</courses></area>: the group
        // lives inside <courses>, the attribute is direct — LCA is <area>.
        let children = [child(0, true, false, false), child(1, false, false, true)];
        let mut scratch = CloseScratch::default();
        let out = close_element(&children, &mut scratch);
        assert!(out.is_entity);
    }

    #[test]
    fn connecting_node_group_without_attribute() {
        // <courses><course/><course/></courses> with no attribute anywhere:
        // a repeating group but nothing to define its context.
        let children = [child(0, false, false, true), child(0, false, false, true)];
        let mut scratch = CloseScratch::default();
        let out = close_element(&children, &mut scratch);
        assert!(!out.is_entity);
        assert!(out.summary_has_rep_inside);
    }

    #[test]
    fn witnesses_inside_one_child_do_not_make_parent_entity() {
        // Both the attribute and the group are inside the same single child:
        // the LCA is (at or below) that child, not this node.
        let children = [child(0, false, true, true)];
        let mut scratch = CloseScratch::default();
        let out = close_element(&children, &mut scratch);
        assert!(!out.is_entity);
        // But both facts propagate upward.
        assert!(out.summary_qual_attr_inside);
        assert!(out.summary_has_rep_inside);
    }

    #[test]
    fn attribute_inside_repeating_child_is_not_qualifying() {
        // <courses><course>(has attrs)</course><course>…</course></courses>:
        // the courses repeat, so their attributes define *their* context, not
        // the parent's.
        let children = [child(0, false, true, false), child(0, false, true, false)];
        let mut scratch = CloseScratch::default();
        let out = close_element(&children, &mut scratch);
        // There IS a repeating group at v, but no qualifying attribute.
        assert!(!out.is_entity);
        assert!(!out.summary_qual_attr_inside);
    }

    #[test]
    fn single_author_article_is_not_entity() {
        // <article><title/><author/><year/></article>: all children are
        // attribute nodes; no repeating group → CN (paper §7.2 discussion).
        let children = [
            child(0, true, false, false),
            child(1, true, false, false),
            child(2, true, false, false),
        ];
        let mut scratch = CloseScratch::default();
        let out = close_element(&children, &mut scratch);
        assert!(!out.is_entity);
        assert!(out.has_attr_child);
    }

    #[test]
    fn multi_author_article_is_entity() {
        // <article><title/><author/><author/></article>: repeating author
        // group + title attribute → EN.
        let children = [
            child(0, true, false, false),
            child(1, true, false, false),
            child(1, true, false, false),
        ];
        let mut scratch = CloseScratch::default();
        let out = close_element(&children, &mut scratch);
        assert!(out.is_entity);
    }

    #[test]
    fn primary_category_policies() {
        // Text-only, not repeating → AN.
        let mut f = self_flags(true, false, false);
        finalize_child_flags(&mut f, false);
        assert_eq!(f.primary(), NodeCategory::Attribute);

        // Text-only, repeating → RN.
        let mut f = self_flags(true, false, false);
        finalize_child_flags(&mut f, true);
        assert_eq!(f.primary(), NodeCategory::Repeating);

        // Entity stays EN even when repeating.
        let mut f = self_flags(false, true, true);
        finalize_child_flags(&mut f, true);
        assert_eq!(f.primary(), NodeCategory::Entity);
        assert!(f.is_repeating(), "flag overlap is preserved");

        // Repeating element with attribute children (single-author article)
        // → CN under the census policy.
        let mut f = self_flags(false, false, true);
        finalize_child_flags(&mut f, true);
        assert_eq!(f.primary(), NodeCategory::Connecting);

        // Repeating element without attribute children → RN.
        let mut f = self_flags(false, false, false);
        finalize_child_flags(&mut f, true);
        assert_eq!(f.primary(), NodeCategory::Repeating);

        // Plain interior element → CN.
        let mut f = self_flags(false, false, false);
        finalize_child_flags(&mut f, false);
        assert_eq!(f.primary(), NodeCategory::Connecting);
    }

    #[test]
    fn flags_round_trip_bits() {
        let mut f = self_flags(false, true, true);
        finalize_child_flags(&mut f, true);
        let g = NodeFlags::from_bits(f.bits());
        assert_eq!(f, g);
    }
}
