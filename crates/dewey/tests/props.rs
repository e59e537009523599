//! Property tests for the Dewey id algebra and codecs.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use gks_dewey::{codec, DeweyId, DocId};
use proptest::prelude::*;

fn arb_id() -> impl Strategy<Value = DeweyId> {
    (0u32..4, proptest::collection::vec(0u32..8, 0..6))
        .prop_map(|(doc, steps)| DeweyId::new(DocId(doc), steps))
}

/// Ids for the blocked-run codec: documents from a small pool (so runs pack
/// many postings per document and masks overlap) plus a few at the top of
/// the u32 range, and steps spanning the full varint width at depths well
/// past anything the tree builder emits.
fn arb_deep_id() -> impl Strategy<Value = DeweyId> {
    let doc = (0u32..16).prop_map(|d| if d < 12 { d } else { u32::MAX - (d - 12) });
    (doc, proptest::collection::vec(0u32..u32::MAX, 0..24))
        .prop_map(|(doc, steps)| DeweyId::new(DocId(doc), steps))
}

proptest! {
    /// Ancestor iff strict prefix, and prefix-order sorts ancestors first.
    #[test]
    fn ancestor_implies_order(a in arb_id(), b in arb_id()) {
        if a.is_ancestor_of(&b) {
            prop_assert!(a < b);
            prop_assert!(a.depth() < b.depth());
            prop_assert!(a.subtree_upper_bound() > b);
        }
    }

    /// The common prefix is the lowest common ancestor: it is an
    /// ancestor-or-self of both, and no deeper id is.
    #[test]
    fn common_prefix_is_lowest(a in arb_id(), b in arb_id()) {
        match a.common_prefix(&b) {
            None => prop_assert_ne!(a.doc(), b.doc()),
            Some(p) => {
                prop_assert!(p.is_ancestor_or_self(&a));
                prop_assert!(p.is_ancestor_or_self(&b));
                // Any strictly deeper ancestor-or-self of a is not one of b
                // (unless a == b == p handles equality).
                if p != a && p != b {
                    let deeper = a.ancestor_at_depth(p.depth() + 1);
                    prop_assert!(!deeper.is_ancestor_or_self(&b));
                }
            }
        }
    }

    /// Subtree interval: x in [id, ub) iff id ⪯a x... the forward direction:
    /// descendants always land inside, non-descendants outside.
    #[test]
    fn subtree_interval_contains_exactly_descendants(a in arb_id(), b in arb_id()) {
        let ub = a.subtree_upper_bound();
        let inside = a <= b && b < ub;
        prop_assert_eq!(inside, a.is_ancestor_or_self(&b));
    }

    /// Display/parse round trip.
    #[test]
    fn display_parse_round_trip(a in arb_id()) {
        let s = a.to_string();
        prop_assert_eq!(s.parse::<DeweyId>().unwrap(), a);
    }

    /// Standalone codec round trip.
    #[test]
    fn codec_id_round_trip(a in arb_id()) {
        let mut buf = bytes::BytesMut::new();
        codec::encode_id(&a, &mut buf);
        let mut slice = buf.freeze();
        prop_assert_eq!(codec::decode_id(&mut slice).unwrap(), a);
    }

    /// Blocked-run codec round trip over arbitrary sorted runs of shallow
    /// ids from a small pool: long enough to span several blocks, and not
    /// deduplicated, so equal neighbours (an entry sharing its whole
    /// predecessor) land inside blocks and across block boundaries.
    #[test]
    fn codec_run_round_trip(mut ids in proptest::collection::vec(arb_id(), 0..400)) {
        ids.sort();
        let mut buf = bytes::BytesMut::new();
        codec::encode_blocked_run(&ids, &mut buf);
        let frozen = buf.freeze();
        let mut slice = frozen.as_ref();
        let reader = codec::BlockedRunReader::parse(&mut slice, ids.len()).unwrap();
        prop_assert!(slice.is_empty(), "parse must consume the run exactly");
        prop_assert_eq!(reader.decode_all().unwrap(), ids);
    }

    /// Parent/child are inverses.
    #[test]
    fn parent_child_inverse(a in arb_id(), ord in 0u32..16) {
        prop_assert_eq!(a.child(ord).parent().unwrap(), a);
    }

    /// Blocked-run codec round trip, over runs long enough to span several
    /// blocks and ids at extreme depth and step values (full-width varints).
    /// Beyond the round trip itself, the skip table must cohere with the
    /// blocks it indexes: each entry names its block's first id, last
    /// document, and posting count. The length-1 case covers single-posting
    /// terms, whose skip entry is reconstructed from the block leader.
    #[test]
    fn codec_blocked_run_round_trip(mut ids in proptest::collection::vec(arb_deep_id(), 0..300)) {
        ids.sort();
        ids.dedup();
        let mut buf = bytes::BytesMut::new();
        codec::encode_blocked_run(&ids, &mut buf);
        let frozen = buf.freeze();
        let mut slice = frozen.as_ref();
        let reader = codec::BlockedRunReader::parse(&mut slice, ids.len()).unwrap();
        prop_assert!(slice.is_empty(), "parse must consume the run exactly");
        prop_assert_eq!(reader.total(), ids.len());
        prop_assert_eq!(reader.decode_all().unwrap(), ids.clone());
        prop_assert_eq!(reader.skip_entries().len(), ids.len().div_ceil(codec::BLOCK_SIZE));
        for (i, entry) in reader.skip_entries().iter().enumerate() {
            let mut block = Vec::new();
            reader
                .for_each_in_block(i, |doc, steps| block.push(DeweyId::from_slice(doc, steps)))
                .unwrap();
            prop_assert_eq!(&entry.first, block.first().unwrap());
            prop_assert_eq!(entry.last_doc, block.last().unwrap().doc());
            prop_assert_eq!(entry.count, block.len());
        }
    }

    /// Masked block decode equals decode-then-filter, and reports exactly
    /// the number of postings it dropped, whole skipped blocks included —
    /// the same tally the search's row mask keeps in `tombstone_masked`.
    #[test]
    fn codec_blocked_masked_equals_filter(
        mut ids in proptest::collection::vec(arb_deep_id(), 0..260),
        mut dead in proptest::collection::vec(0u32..12, 0..8),
    ) {
        ids.sort();
        ids.dedup();
        dead.sort();
        dead.dedup();
        let mut buf = bytes::BytesMut::new();
        codec::encode_blocked_run(&ids, &mut buf);
        let frozen = buf.freeze();
        let mut slice = frozen.as_ref();
        let reader = codec::BlockedRunReader::parse(&mut slice, ids.len()).unwrap();
        let expected: Vec<DeweyId> = ids
            .iter()
            .filter(|id| dead.binary_search(&id.doc().0).is_err())
            .cloned()
            .collect();
        let (masked, dropped) = reader.decode_masked(&dead).unwrap();
        prop_assert_eq!(dropped, (ids.len() - expected.len()) as u64);
        prop_assert_eq!(masked, expected);
    }
}

// ---------------------------------------------------------------------------
// Representation boundary: an id stores up to six steps in the value and
// spills deeper paths to the heap. Everything below runs on depths 0..=40,
// on both sides of that limit, against a plain `(doc, Vec<Step>)` model.
// ---------------------------------------------------------------------------

type Model = (u32, Vec<u32>);

/// Steps from a tiny alphabet (so independent paths share prefixes) that
/// includes `Step::MAX` (so upper bounds carry).
fn arb_step() -> impl Strategy<Value = u32> {
    (0u32..5).prop_map(|s| if s == 4 { u32::MAX } else { s })
}

fn arb_model() -> impl Strategy<Value = Model> {
    (0u32..3, proptest::collection::vec(arb_step(), 0..=40))
}

/// A second path related to `a`: a truncation, an extension, or a sibling
/// branch at some depth — the shapes prefix algebra distinguishes.
fn arb_related() -> impl Strategy<Value = (Model, Model)> {
    (arb_model(), 0usize..=40, proptest::collection::vec(arb_step(), 0..=8), 0u32..4).prop_map(
        |((doc, a), cut, tail, other_doc)| {
            let mut b = a[..cut.min(a.len())].to_vec();
            b.extend(tail);
            let b_doc = if other_doc == 3 { doc + 1 } else { doc };
            ((doc, a), (b_doc, b))
        },
    )
}

fn id_of((doc, steps): &Model) -> DeweyId {
    DeweyId::new(DocId(*doc), steps.clone())
}

fn hash_of<T: std::hash::Hash>(id: &T) -> u64 {
    use std::hash::{BuildHasher, BuildHasherDefault};
    BuildHasherDefault::<std::collections::hash_map::DefaultHasher>::default().hash_one(id)
}

fn model_upper_bound((doc, steps): &Model) -> Model {
    let mut steps = steps.clone();
    while let Some(s) = steps.pop() {
        if s < u32::MAX {
            steps.push(s + 1);
            return (*doc, steps);
        }
    }
    (doc + 1, Vec::new())
}

/// A posting-list-like run at TreeBank depth: a pre-order walk that climbs
/// and descends by a few levels per step, so neighbours share long prefixes
/// across the inline limit.
fn arb_deep_run() -> impl Strategy<Value = Vec<DeweyId>> {
    proptest::collection::vec((0u32..12, 0usize..=40, arb_step()), 0..300).prop_map(|moves| {
        let mut ids = Vec::new();
        let mut path: Vec<u32> = Vec::new();
        for (doc, depth, step) in moves {
            path.truncate(depth.min(path.len()));
            path.push(step);
            ids.push(DeweyId::from_slice(DocId(doc / 4), &path));
        }
        ids.sort();
        ids.dedup();
        ids
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Constructors, accessors and the unary prefix operations agree with
    /// the model at every depth.
    #[test]
    fn boundary_unary_ops_match_model(m in arb_model(), ord in arb_step(), cut in 0usize..=40) {
        let (doc, steps) = &m;
        let id = id_of(&m);
        prop_assert_eq!(&id, &DeweyId::from_slice(DocId(*doc), steps));
        prop_assert_eq!(id.doc(), DocId(*doc));
        prop_assert_eq!(id.steps(), steps.as_slice());
        prop_assert_eq!(id.depth(), steps.len());
        prop_assert_eq!(id.last_step(), steps.last().copied());
        prop_assert_eq!(id.heap_bytes(), if steps.len() <= 6 { 0 } else { 4 * steps.len() });
        // The hash is the one `{ doc, steps: Vec<Step> }` derived, so tables
        // keyed by ids (node table, entity map) iterate in the order they did
        // before ids went inline — no output ordering hangs on this change.
        prop_assert_eq!(hash_of(&id), hash_of(&(DocId(*doc), steps.clone())));

        let child = id.child(ord);
        let mut child_steps = steps.clone();
        child_steps.push(ord);
        prop_assert_eq!(child.steps(), child_steps.as_slice());
        prop_assert_eq!(child.doc(), id.doc());

        match id.parent() {
            None => prop_assert!(steps.is_empty()),
            Some(p) => prop_assert_eq!(p.steps(), &steps[..steps.len() - 1]),
        }
        let cut = cut.min(steps.len());
        prop_assert_eq!(id.ancestor_at_depth(cut), DeweyId::from_slice(id.doc(), &steps[..cut]));
        let ancestors: Vec<DeweyId> = id.ancestors().collect();
        prop_assert_eq!(ancestors.len(), steps.len());
        for (i, a) in ancestors.iter().enumerate() {
            prop_assert_eq!(a.steps(), &steps[..steps.len() - 1 - i]);
            prop_assert_eq!(a.doc(), id.doc());
        }

        prop_assert_eq!(id.subtree_upper_bound(), id_of(&model_upper_bound(&m)));
        prop_assert_eq!(id.to_string().parse::<DeweyId>().unwrap(), id);
    }

    /// Order, equality, hash and the binary prefix operations read
    /// `(doc, steps)` and nothing else.
    #[test]
    fn boundary_binary_ops_match_model((ma, mb) in arb_related()) {
        let (a, b) = (id_of(&ma), id_of(&mb));
        prop_assert_eq!(a.cmp(&b), ma.cmp(&mb));
        prop_assert_eq!(a == b, ma == mb);
        if a == b {
            prop_assert_eq!(hash_of(&a), hash_of(&b));
        }
        let shared = ma.1.iter().zip(&mb.1).take_while(|(x, y)| x == y).count();
        if ma.0 == mb.0 {
            prop_assert_eq!(a.common_prefix_len(&b), Some(shared));
            prop_assert_eq!(a.common_prefix(&b), Some(DeweyId::from_slice(DocId(ma.0), &ma.1[..shared])));
        } else {
            prop_assert_eq!(a.common_prefix_len(&b), None);
            prop_assert_eq!(a.common_prefix(&b), None);
        }
        let a_prefixes_b = ma.0 == mb.0 && shared == ma.1.len();
        prop_assert_eq!(a.is_ancestor_or_self(&b), a_prefixes_b);
        prop_assert_eq!(a.is_ancestor_of(&b), a_prefixes_b && ma.1.len() < mb.1.len());
    }

    /// An id reached by walking `parent()` up from a spilled descendant is
    /// indistinguishable from the same path built directly.
    #[test]
    fn boundary_parent_walk_equals_direct(m in arb_model(), tail in proptest::collection::vec(arb_step(), 7..=12)) {
        let direct = id_of(&m);
        let mut deep_steps = m.1.clone();
        deep_steps.extend(&tail);
        let mut walked = DeweyId::new(DocId(m.0), deep_steps);
        prop_assert!(walked.heap_bytes() > 0, "starts spilled");
        for _ in 0..tail.len() {
            walked = walked.parent().unwrap();
        }
        prop_assert_eq!(&walked, &direct);
        prop_assert_eq!(walked.cmp(&direct), std::cmp::Ordering::Equal);
        prop_assert_eq!(hash_of(&walked), hash_of(&direct));
        prop_assert_eq!(walked.heap_bytes(), direct.heap_bytes());
    }

    /// The blocked run codec round-trips TreeBank-depth runs, and the
    /// masked decode still equals decode-then-filter there.
    #[test]
    fn boundary_codecs_round_trip_deep_runs(
        ids in arb_deep_run(),
        mut dead in proptest::collection::vec(0u32..3, 0..3),
    ) {
        dead.sort();
        dead.dedup();
        let mut blocked = bytes::BytesMut::new();
        codec::encode_blocked_run(&ids, &mut blocked);
        let frozen = blocked.freeze();
        let mut slice = frozen.as_ref();
        let reader = codec::BlockedRunReader::parse(&mut slice, ids.len()).unwrap();
        prop_assert_eq!(reader.decode_all().unwrap(), ids.clone());
        let live: Vec<DeweyId> =
            ids.iter().filter(|id| dead.binary_search(&id.doc().0).is_err()).cloned().collect();
        let (masked, dropped) = reader.decode_masked(&dead).unwrap();
        prop_assert_eq!(dropped, (ids.len() - live.len()) as u64);
        prop_assert_eq!(masked, live);
    }
}
