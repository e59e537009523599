//! The node table: the paper's `entityHash` + `elementHash`, unified.
//!
//! §2.4 keeps two hash tables over Dewey ids — entity nodes in one, repeating
//! and connecting nodes in the other — both storing "the number of direct
//! children each node has … used while computing the rank of a node". This
//! implementation stores one row per element node (attribute nodes
//! included, since the potential-flow ranking needs child counts along whole
//! root-to-terminal paths) with the category flags attached, and exposes the
//! paper's two lookup functions, [`NodeTable::is_entity`] and
//! [`NodeTable::is_element`], on top.
//!
//! # Layout
//!
//! The rows are columns in Dewey order, which is pre-order: `ids[r]` and
//! `metas[r]` describe row `r`. A child index in compressed-sparse-row form
//! sits beside them: `roots[doc]` is the document's root row, and the
//! element children of row `r` are `children[child_start[r]..child_start[r
//! + 1]]`, in step order. Sibling steps are dense (the `k`-th element child
//! has step `k`), so a Dewey id *is* a path through this index: a lookup
//! starts at the document's root row and reads one child slot per step,
//! and a step past the child count means the node is absent. No id is
//! hashed, compared or allocated to find its row; the cost is one `u32`
//! offset per row and one `u32` per non-root row.
//!
//! `parents[r]` is row `r`'s parent row (`NO_ROW` for a document root),
//! 4 B per row. `NodeTable::link` computes it to build the child index and
//! keeps it, so the search engine walks up a root path by rows: a keyword's
//! posting list is resolved to rows once ([`NodeTable::rows_of`]), and the
//! window, LCE derivation and statistics sweep then step through
//! [`NodeTable::parent`] and [`NodeTable::meta`] without touching an id.
//!
//! [`NodeTable::link`] is the one place a row gets its Dewey id. A build,
//! a merge and an open each append rows as `(depth, meta)` in pre-order,
//! and `link` numbers them as §2.1 does: a root is the next document's, and
//! any other row is the next child of the open row one level up. The
//! shape alone fixes every id, so only a depth that skips a level and a
//! root count other than the document count can be refused.

use std::ops::Range;

use gks_dewey::{DeweyId, DocId};

use crate::categorize::NodeFlags;
use crate::error::IndexError;
use crate::fasthash::FastMap;

/// The parent of a document root in [`NodeTable::parents`].
const NO_ROW: u32 = u32::MAX;

/// Everything the search engine needs to know about one XML node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NodeMeta {
    /// Number of direct children: element children plus one for a non-empty
    /// text value (never zero for a node that exists — an empty element
    /// counts its missing value as one child so potentials stay finite).
    pub child_count: u32,
    /// Category flags (§2.2).
    pub flags: NodeFlags,
    /// Interned element label.
    pub label: u32,
}

/// Label interner shared by the node table and the attribute store.
#[derive(Debug, Default, Clone)]
pub struct LabelInterner {
    names: Vec<String>,
    ids: FastMap<String, u32>,
}

impl LabelInterner {
    /// Interns `name`, returning its stable id.
    pub fn intern(&mut self, name: &str) -> u32 {
        if let Some(&id) = self.ids.get(name) {
            return id;
        }
        let id = self.names.len() as u32;
        self.names.push(name.to_string());
        self.ids.insert(name.to_string(), id);
        id
    }

    /// The name for an id. Panics on an unknown id (ids only come from
    /// [`Self::intern`]).
    pub fn name(&self, id: u32) -> &str {
        &self.names[id as usize]
    }

    /// Looks up an existing label by name.
    pub fn lookup(&self, name: &str) -> Option<u32> {
        self.ids.get(name).copied()
    }

    /// Number of distinct labels.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// True when no labels are interned.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// All names in id order (for persistence).
    pub fn names(&self) -> &[String] {
        &self.names
    }
}

/// Per-node metadata table over the whole corpus; see the
/// [module docs](self) for the layout.
#[derive(Debug, Default, Clone)]
pub struct NodeTable {
    /// Row depths in pre-order, pushed before [`NodeTable::link`] and
    /// consumed by it.
    depths: Vec<u32>,
    /// Row ids in Dewey order, assigned by [`NodeTable::link`].
    ids: Vec<DeweyId>,
    /// Row metadata, one per row pushed.
    metas: Vec<NodeMeta>,
    /// Root row per document id.
    roots: Vec<u32>,
    /// Row `r`'s element children are `children[child_start[r]..child_start[r + 1]]`.
    child_start: Vec<u32>,
    /// Child rows, grouped by parent, in step order.
    children: Vec<u32>,
    /// Parent row per row ([`NO_ROW`] for a document root).
    parents: Vec<u32>,
    labels: LabelInterner,
}

/// The rows along a Dewey id's path, root first: see [`NodeTable::path`].
struct Walk<'a> {
    table: &'a NodeTable,
    /// The row yielded last; `None` before the root.
    row: Option<u32>,
    steps: std::slice::Iter<'a, u32>,
    doc: usize,
}

impl Iterator for Walk<'_> {
    type Item = u32;

    fn next(&mut self) -> Option<u32> {
        let t = self.table;
        let next = match self.row {
            None => *t.roots.get(self.doc)?,
            Some(row) => {
                let step = *self.steps.next()?;
                let Some(child) = t.child(row, step) else {
                    self.steps = [].iter();
                    return None;
                };
                child
            }
        };
        self.row = Some(next);
        Some(next)
    }
}

impl NodeTable {
    /// An empty table.
    pub fn new() -> Self {
        NodeTable::default()
    }

    /// The label interner.
    pub fn labels(&self) -> &LabelInterner {
        &self.labels
    }

    /// Mutable access to the interner (used by the builder).
    pub fn labels_mut(&mut self) -> &mut LabelInterner {
        &mut self.labels
    }

    /// Appends the next node in pre-order, at `depth`, and returns its row.
    /// Its metadata is a placeholder until [`Self::set_meta`]; its id and
    /// the child index come with [`Self::link`].
    pub(crate) fn push(&mut self, depth: u32, label: u32) -> Result<u32, IndexError> {
        self.push_row(depth, NodeMeta { child_count: 0, flags: NodeFlags::empty(), label })
    }

    /// Makes room for `additional` more rows, so a caller that knows the
    /// count pushes without regrowing the columns.
    pub(crate) fn reserve(&mut self, additional: usize) {
        self.depths.reserve_exact(additional);
        self.metas.reserve_exact(additional);
    }

    /// Appends the next node in pre-order, at `depth`, with its metadata,
    /// and returns its row.
    pub(crate) fn push_row(&mut self, depth: u32, meta: NodeMeta) -> Result<u32, IndexError> {
        let row = row_after(self.metas.len())?;
        self.depths.push(depth);
        self.metas.push(meta);
        Ok(row)
    }

    /// Sets the metadata of row `row` (a no-op for a row never pushed).
    pub(crate) fn set_meta(&mut self, row: u32, meta: NodeMeta) {
        if let Some(slot) = self.metas.get_mut(row as usize) {
            *slot = meta;
        }
    }

    /// Numbers the pushed rows and builds the child index over them, in
    /// one pass over their depths: a depth-0 row is the root of the next
    /// document, and any other row is the next child of the last row one
    /// level up, its id that row's id plus the count of its earlier
    /// children (§2.1). Refuses, with [`IndexError::Corrupt`], a depth more
    /// than one greater than the previous row's (the first row's must be 0)
    /// and a root count other than `doc_count`. Linear in the rows.
    pub(crate) fn link(&mut self, doc_count: usize) -> Result<(), IndexError> {
        let depths = std::mem::take(&mut self.depths);
        let rows = depths.len();
        let mut ids: Vec<DeweyId> = Vec::with_capacity(rows);
        let mut roots: Vec<u32> = Vec::with_capacity(doc_count.min(rows));
        // Each row's child count lands in `child_start[row + 1]`.
        let mut child_start = vec![0u32; rows + 1];
        let mut parents: Vec<u32> = Vec::with_capacity(rows);
        // Rows of the previous row's ancestors-or-self, by depth.
        let mut open: Vec<u32> = Vec::new();
        for (row, &depth) in (0u32..).zip(&depths) {
            if depth as usize > open.len() {
                return Err(IndexError::Corrupt(format!(
                    "node row {row} at depth {depth} skips a level"
                )));
            }
            open.truncate(depth as usize);
            let (parent, id) = match open.last() {
                None if roots.len() < doc_count => {
                    let doc = DocId(roots.len() as u32);
                    roots.push(row);
                    (NO_ROW, DeweyId::root(doc))
                }
                None => {
                    return Err(root_count(depths.iter().filter(|&&d| d == 0).count(), doc_count))
                }
                Some(&parent) => {
                    let seen = &mut child_start[parent as usize + 1];
                    let id = ids[parent as usize].child(*seen);
                    *seen += 1;
                    (parent, id)
                }
            };
            open.push(row);
            parents.push(parent);
            ids.push(id);
        }
        if roots.len() != doc_count {
            return Err(root_count(roots.len(), doc_count));
        }
        // Prefix sums turn the counts into each row's first child slot; the
        // fill advances that slot past each child it places, leaving it at
        // the next row's start, and the shift moves the starts back.
        let mut total = 0u32;
        for slot in &mut child_start {
            total += *slot;
            *slot = total;
        }
        let mut children = vec![0u32; total as usize];
        for (row, &parent) in (0u32..).zip(&parents) {
            if let Some(next) = child_start.get_mut(parent as usize) {
                children[*next as usize] = row;
                *next += 1;
            }
        }
        child_start.copy_within(0..rows, 1);
        child_start[0] = 0;
        self.ids = ids;
        self.roots = roots;
        self.child_start = child_start;
        self.children = children;
        self.parents = parents;
        Ok(())
    }

    /// The row of `row`'s element child with step `step`, if it has one.
    fn child(&self, row: u32, step: u32) -> Option<u32> {
        let start = *self.child_start.get(row as usize)? as usize;
        let end = *self.child_start.get(row as usize + 1)? as usize;
        let slot = start.checked_add(step as usize).filter(|&slot| slot < end)?;
        self.children.get(slot).copied()
    }

    /// The rows of `ids`, in order. Each id starts from the rows of the
    /// prefix it shares with the id before it, so a sorted list costs one
    /// child read per step it does not share with its predecessor. Fails
    /// with the first id that no row describes.
    pub fn rows_of<'a>(
        &self,
        ids: impl IntoIterator<Item = &'a DeweyId>,
    ) -> Result<Vec<u32>, &'a DeweyId> {
        let ids = ids.into_iter();
        let mut rows = Vec::with_capacity(ids.size_hint().0);
        // The rows of the previous id's prefixes, root first.
        let mut path: Vec<u32> = Vec::new();
        let mut prev: Option<&DeweyId> = None;
        for id in ids {
            path.truncate(prev.and_then(|p| p.common_prefix_len(id)).map_or(0, |k| k + 1));
            if path.is_empty() {
                match self.roots.get(id.doc().0 as usize) {
                    Some(&root) => path.push(root),
                    None => return Err(id),
                }
            }
            for &step in id.steps().get(path.len() - 1..).unwrap_or_default() {
                match path.last().and_then(|&row| self.child(row, step)) {
                    Some(child) => path.push(child),
                    None => return Err(id),
                }
            }
            rows.extend(path.last());
            prev = Some(id);
        }
        Ok(rows)
    }

    /// The parent row of `row`; `None` for a document root.
    pub fn parent(&self, row: u32) -> Option<u32> {
        self.parents.get(row as usize).copied().filter(|&parent| parent != NO_ROW)
    }

    /// The id of `row`.
    pub fn id(&self, row: u32) -> Option<&DeweyId> {
        self.ids.get(row as usize)
    }

    /// All rows of document `doc`, pre-order being document order: its root
    /// row up to the next document's. Empty for a document past the count.
    pub fn doc_rows(&self, doc: DocId) -> Range<u32> {
        let end = self.ids.len() as u32;
        let root = |doc: usize| self.roots.get(doc).copied().unwrap_or(end);
        root(doc.0 as usize)..root(doc.0 as usize + 1)
    }

    /// The rows along `id`'s path, root first: the prefix of depth `k` is
    /// the `k`-th item. Ends at the first prefix that is not recorded, so
    /// `id` itself is the last item exactly when it is recorded.
    fn walk<'a>(&'a self, id: &'a DeweyId) -> Walk<'a> {
        Walk { table: self, row: None, steps: id.steps().iter(), doc: id.doc().0 as usize }
    }

    /// The row of `id`, found by walking its steps from the document's
    /// root row.
    pub fn row(&self, id: &DeweyId) -> Option<u32> {
        self.walk(id).nth(id.depth())
    }

    /// The metadata of `row`.
    pub fn meta(&self, row: u32) -> Option<&NodeMeta> {
        self.metas.get(row as usize)
    }

    /// Full metadata for a node.
    pub fn get(&self, id: &DeweyId) -> Option<&NodeMeta> {
        self.row(id).and_then(|row| self.meta(row))
    }

    /// The metadata of every recorded prefix of `id`, root first, `id`
    /// itself last when recorded — one walk down the path.
    pub fn path<'a>(&'a self, id: &'a DeweyId) -> impl Iterator<Item = &'a NodeMeta> + 'a {
        self.walk(id).filter_map(|row| self.meta(row))
    }

    /// Paper API: `isEntity(DeweyId)` — "returns the number of direct
    /// children the given node has if true, null otherwise".
    pub fn is_entity(&self, id: &DeweyId) -> Option<u32> {
        self.get(id).filter(|m| m.flags.is_entity()).map(|m| m.child_count)
    }

    /// Paper API: `isElement(DeweyId)` — repeating or connecting nodes.
    pub fn is_element(&self, id: &DeweyId) -> Option<u32> {
        self.get(id)
            .filter(|m| m.flags.is_repeating() || m.flags.is_connecting())
            .map(|m| m.child_count)
    }

    /// Child count of any recorded node.
    pub fn child_count(&self, id: &DeweyId) -> Option<u32> {
        self.get(id).map(|m| m.child_count)
    }

    /// The element name of a recorded node.
    pub fn label_name(&self, id: &DeweyId) -> Option<&str> {
        self.get(id).map(|m| self.labels.name(m.label))
    }

    /// The nearest entity node on `id`'s path, `id` itself included, per
    /// the LCE derivation of §4.1: "we check if it is an entity node or any
    /// of its ancestors is an entity node". One walk down the path.
    pub fn lowest_entity_ancestor_or_self(&self, id: &DeweyId) -> Option<DeweyId> {
        let row = self
            .walk(id)
            .filter(|&row| self.meta(row).is_some_and(|m| m.flags.is_entity()))
            .last()?;
        self.id(row).cloned()
    }

    /// Number of recorded nodes.
    pub fn len(&self) -> usize {
        self.metas.len()
    }

    /// True when no nodes are recorded.
    pub fn is_empty(&self) -> bool {
        self.metas.is_empty()
    }

    /// The row ids, in Dewey order.
    pub fn ids(&self) -> &[DeweyId] {
        &self.ids
    }

    /// Iterates all `(id, meta)` pairs in Dewey order.
    pub fn iter(&self) -> impl Iterator<Item = (&DeweyId, &NodeMeta)> {
        self.ids.iter().zip(&self.metas)
    }

    /// Test-only access to one row's metadata, for corrupted-index fixtures.
    #[cfg(test)]
    pub(crate) fn meta_mut(&mut self, row: u32) -> &mut NodeMeta {
        &mut self.metas[row as usize]
    }
}

/// The row after `count` others; [`NO_ROW`] and past are an error.
fn row_after(count: usize) -> Result<u32, IndexError> {
    u32::try_from(count)
        .ok()
        .filter(|&row| row != NO_ROW)
        .ok_or(IndexError::Invariant("more than 2^32 - 1 nodes in one table"))
}

/// [`NodeTable::link`]'s refusal of `roots` document roots for `doc_count`
/// documents.
#[cold]
fn root_count(roots: usize, doc_count: usize) -> IndexError {
    IndexError::Corrupt(format!("node table has {roots} root row(s) for {doc_count} document(s)"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::categorize::{finalize_child_flags, self_flags};

    fn d(steps: &[u32]) -> DeweyId {
        DeweyId::new(DocId(0), steps.to_vec())
    }

    fn entity_meta(label: u32, children: u32) -> NodeMeta {
        let mut flags = self_flags(false, true, true);
        finalize_child_flags(&mut flags, false);
        NodeMeta { child_count: children, flags, label }
    }

    fn connecting_meta(label: u32, children: u32) -> NodeMeta {
        let mut flags = self_flags(false, false, false);
        finalize_child_flags(&mut flags, false);
        NodeMeta { child_count: children, flags, label }
    }

    /// A linked table over `rows`, given in Dewey order: each is pushed at
    /// its depth, and `link` numbers it back to its steps.
    fn table(rows: &[(&[u32], NodeMeta)]) -> NodeTable {
        let mut t = NodeTable::new();
        for (steps, meta) in rows {
            t.push_row(steps.len() as u32, *meta).unwrap();
        }
        t.link(1).unwrap();
        let ids: Vec<DeweyId> = rows.iter().map(|(steps, _)| d(steps)).collect();
        assert_eq!(t.ids(), ids);
        t
    }

    #[test]
    fn is_entity_mirrors_paper_api() {
        // <course><title/><students/></course>
        let mut labels = LabelInterner::default();
        let (course, title, students) =
            (labels.intern("course"), labels.intern("title"), labels.intern("students"));
        let mut t = table(&[
            (&[], entity_meta(course, 2)),
            (&[0], connecting_meta(title, 1)),
            (&[1], connecting_meta(students, 3)),
        ]);
        *t.labels_mut() = labels;
        assert_eq!(t.is_entity(&d(&[])), Some(2));
        assert_eq!(t.is_entity(&d(&[1])), None);
        assert_eq!(t.is_element(&d(&[1])), Some(3));
        assert_eq!(t.is_element(&d(&[])), None);
        assert_eq!(t.label_name(&d(&[1])), Some("students"));
        // A step past the child count, a deeper id and another document.
        assert_eq!(t.is_entity(&d(&[2])), None);
        assert_eq!(t.get(&d(&[0, 0])), None);
        assert_eq!(t.get(&DeweyId::root(DocId(1))), None);
        assert_eq!(t.row(&d(&[1])), Some(2));
        assert_eq!(t.ids()[2], d(&[1]));
    }

    #[test]
    fn lowest_entity_ancestor_walks_up() {
        // [] entity → [0] connecting → [0, 0] entity → [0, 0, 0] connecting,
        // and [1] connecting beside them.
        let t = table(&[
            (&[], entity_meta(0, 2)),
            (&[0], connecting_meta(0, 1)),
            (&[0, 0], entity_meta(0, 1)),
            (&[0, 0, 0], connecting_meta(0, 1)),
            (&[1], connecting_meta(0, 1)),
        ]);
        // Node itself is an entity → returned as-is.
        assert_eq!(t.lowest_entity_ancestor_or_self(&d(&[0, 0])), Some(d(&[0, 0])));
        // Connecting node → nearest entity ancestor.
        assert_eq!(t.lowest_entity_ancestor_or_self(&d(&[0, 0, 0])), Some(d(&[0, 0])));
        assert_eq!(t.lowest_entity_ancestor_or_self(&d(&[1])), Some(d(&[])));
        // Deep unrecorded node → still walks its recorded ancestors.
        assert_eq!(t.lowest_entity_ancestor_or_self(&d(&[0, 0, 5, 2])), Some(d(&[0, 0])));
        assert_eq!(t.lowest_entity_ancestor_or_self(&d(&[0, 3])), Some(d(&[])));
        // No entity on the path → None.
        assert_eq!(t.lowest_entity_ancestor_or_self(&DeweyId::root(DocId(4))), None);
        let path: Vec<u32> = t.path(&d(&[0, 0, 7])).map(|m| m.child_count).collect();
        assert_eq!(path, vec![2, 1, 1]);
    }

    #[test]
    fn rows_resolve_ids_and_step_to_parents() {
        let t = table(&[
            (&[], entity_meta(0, 2)),
            (&[0], connecting_meta(0, 1)),
            (&[0, 0], entity_meta(0, 1)),
            (&[0, 0, 0], connecting_meta(0, 1)),
            (&[1], connecting_meta(0, 1)),
        ]);
        let ids = t.ids().to_vec();
        assert_eq!(t.rows_of(&ids), Ok(vec![0, 1, 2, 3, 4]));
        // Repeated and unsorted ids resolve too, each by its own path.
        let mixed = [d(&[1]), d(&[0, 0]), d(&[0, 0]), d(&[0, 0, 0]), d(&[])];
        assert_eq!(t.rows_of(&mixed), Ok(vec![4, 2, 2, 3, 0]));
        // The first id no row describes is the error: a step past the child
        // count, a step below a leaf, a document without a root.
        let absent = d(&[0, 1]);
        assert_eq!(t.rows_of(&[d(&[0]), absent.clone(), d(&[9])]), Err(&absent));
        let below = d(&[1, 0]);
        assert_eq!(t.rows_of(std::slice::from_ref(&below)), Err(&below));
        let other = DeweyId::root(DocId(3));
        assert_eq!(t.rows_of(&[d(&[]), other.clone()]), Err(&other));
        assert_eq!(t.rows_of(&[]), Ok(Vec::new()));

        let parents: Vec<Option<u32>> = (0..6).map(|row| t.parent(row)).collect();
        assert_eq!(parents, vec![None, Some(0), Some(1), Some(2), Some(0), None]);
        assert_eq!(t.id(3), Some(&d(&[0, 0, 0])));
        assert_eq!(t.id(5), None);
        assert!(t.meta(2).is_some_and(|m| m.flags.is_entity()));
        assert_eq!(t.meta(5), None);
    }

    /// A linked table over `(doc, steps)` rows, given in Dewey order.
    fn docs_table(rows: &[(u32, &[u32])], doc_count: usize) -> NodeTable {
        let mut t = NodeTable::new();
        for &(_, steps) in rows {
            t.push(steps.len() as u32, 0).unwrap();
        }
        t.link(doc_count).unwrap();
        let ids: Vec<DeweyId> = rows
            .iter()
            .map(|&(doc, steps)| DeweyId::new(DocId(doc), steps.to_vec()))
            .collect();
        assert_eq!(t.ids(), ids);
        t
    }

    #[test]
    fn doc_rows_span_each_documents_pre_order_block() {
        // Three documents of two, one and three rows.
        let t = docs_table(&[(0, &[]), (0, &[0]), (1, &[]), (2, &[]), (2, &[0]), (2, &[1])], 3);
        let ranges: Vec<Range<u32>> = (0..3).map(|doc| t.doc_rows(DocId(doc))).collect();
        assert_eq!(ranges, vec![0..2, 2..3, 3..6]);
        for (row, id) in (0u32..).zip(t.ids()) {
            assert!(t.doc_rows(id.doc()).contains(&row), "row {row} of {id}");
        }
        // A document id past the count has no rows.
        assert!(t.doc_rows(DocId(3)).is_empty());
        assert!(t.doc_rows(DocId(u32::MAX)).is_empty());
        assert!(NodeTable::new().doc_rows(DocId(0)).is_empty());
    }

    #[test]
    fn link_numbers_rows_by_depth_and_refuses_a_skipped_level_or_a_wrong_root_count() {
        let mut t = NodeTable::new();
        for depth in [0, 1, 2, 1, 0, 1, 1] {
            t.push(depth, 0).unwrap();
        }
        t.link(2).unwrap();
        let second = |steps: &[u32]| DeweyId::new(DocId(1), steps.to_vec());
        let ids = [d(&[]), d(&[0]), d(&[0, 0]), d(&[1]), second(&[]), second(&[0]), second(&[1])];
        assert_eq!(t.ids(), ids);

        let refused = |depths: &[u32], doc_count: usize, what: &str| {
            let mut t = NodeTable::new();
            for &depth in depths {
                t.push(depth, 0).unwrap();
            }
            match t.link(doc_count) {
                Err(IndexError::Corrupt(message)) => assert!(message.contains(what), "{message}"),
                other => panic!("{depths:?}: expected Corrupt, got {other:?}"),
            }
        };
        refused(&[1, 2], 1, "row 0 at depth 1 skips a level");
        refused(&[0, 1, 3], 1, "row 2 at depth 3 skips a level");
        refused(&[0, 1, 0, 0], 1, "3 root row(s) for 1 document(s)");
        refused(&[0, 1], 2, "1 root row(s) for 2 document(s)");
        refused(&[], 1, "0 root row(s) for 1 document(s)");
    }

    #[test]
    fn a_row_past_u32_is_an_error() {
        assert_eq!(row_after(NO_ROW as usize - 1).unwrap(), NO_ROW - 1);
        assert!(matches!(row_after(NO_ROW as usize), Err(IndexError::Invariant(_))));
    }

    #[test]
    fn interner_is_stable() {
        let mut i = LabelInterner::default();
        let a = i.intern("author");
        let b = i.intern("title");
        assert_eq!(i.intern("author"), a);
        assert_eq!(i.name(a), "author");
        assert_eq!(i.name(b), "title");
        assert_eq!(i.lookup("title"), Some(b));
        assert_eq!(i.lookup("nope"), None);
        assert_eq!(i.len(), 2);
    }
}
