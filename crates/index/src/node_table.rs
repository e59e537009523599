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
//! The columns are closed under parents by construction: [`NodeTable::link`]
//! refuses ids that are not strictly increasing, a non-root id whose parent
//! is not the open ancestor before it, and a sibling step that does not
//! follow the previous one. A build and an open both end in it.

use gks_dewey::DeweyId;

use crate::categorize::NodeFlags;
use crate::error::IndexError;
use crate::fasthash::FastMap;

/// Marks a document without a root row in [`NodeTable::roots`].
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
    /// Row ids in Dewey order.
    ids: Vec<DeweyId>,
    /// Row metadata, parallel to `ids`.
    metas: Vec<NodeMeta>,
    /// Root row per document id ([`NO_ROW`] for a document without one).
    roots: Vec<u32>,
    /// Row `r`'s element children are `children[child_start[r]..child_start[r + 1]]`.
    child_start: Vec<u32>,
    /// Child rows, grouped by parent, in step order.
    children: Vec<u32>,
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
            None => *t.roots.get(self.doc).filter(|&&r| r != NO_ROW)?,
            Some(row) => {
                let step = *self.steps.next()? as usize;
                let start = *t.child_start.get(row as usize)? as usize;
                let end = *t.child_start.get(row as usize + 1)? as usize;
                if step >= end - start {
                    self.steps = [].iter();
                    return None;
                }
                t.children[start + step]
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

    /// Appends the next node in Dewey order and returns its row. Its
    /// metadata is a placeholder until [`Self::set_meta`]; the child index
    /// covers it once [`Self::link`] runs.
    pub(crate) fn push(&mut self, id: DeweyId, label: u32) -> Result<u32, IndexError> {
        let row = row_after(self.ids.len())?;
        self.ids.push(id);
        self.metas.push(NodeMeta { child_count: 0, flags: NodeFlags::empty(), label });
        Ok(row)
    }

    /// Sets the metadata of row `row` (a no-op for a row never pushed).
    pub(crate) fn set_meta(&mut self, row: u32, meta: NodeMeta) {
        if let Some(slot) = self.metas.get_mut(row as usize) {
            *slot = meta;
        }
    }

    /// Takes the id and metadata columns whole (index open), replacing any
    /// rows; [`Self::link`] must follow.
    pub(crate) fn set_columns(&mut self, ids: Vec<DeweyId>, metas: Vec<NodeMeta>) {
        self.ids = ids;
        self.metas = metas;
    }

    /// Checks that the rows are in Dewey order and closed under parents, and
    /// builds the child index over them. `doc_count` bounds the document
    /// ids. Linear in the rows; refuses, with [`IndexError::Corrupt`], ids
    /// that are not strictly increasing, a document id past `doc_count`, a
    /// non-root id whose parent is not the open ancestor before it, and a
    /// sibling step that does not follow the previous one.
    pub(crate) fn link(&mut self, doc_count: usize) -> Result<(), IndexError> {
        let rows = self.ids.len();
        self.roots.clear();
        // The first pass checks each id against the one before it, records
        // its parent row and counts it into `child_start[parent + 1]`.
        let mut child_start = vec![0u32; rows + 1];
        let mut parents: Vec<u32> = Vec::with_capacity(rows);
        // Rows of the previous id's ancestors-or-self, by depth.
        let mut open: Vec<u32> = Vec::new();
        let mut prev: Option<&DeweyId> = None;
        for (row, id) in (0u32..).zip(&self.ids) {
            let parent = match id.steps().split_last() {
                None => {
                    let doc = id.doc().0 as usize;
                    if prev.is_some_and(|p| p.doc() >= id.doc()) || doc >= doc_count {
                        return Err(refusal(prev, id, "node id past the document count"));
                    }
                    self.roots.resize(doc + 1, NO_ROW);
                    self.roots[doc] = row;
                    open.clear();
                    NO_ROW
                }
                Some((&step, parent_steps)) => {
                    // The parent is open iff the previous id runs through it;
                    // then it sits at its depth on the stack.
                    let depth = parent_steps.len();
                    let through = prev.filter(|p| {
                        p.doc() == id.doc() && p.steps().get(..depth) == Some(parent_steps)
                    });
                    open.truncate(depth + 1);
                    let Some(parent) = through.and(open.get(depth).copied()) else {
                        return Err(refusal(prev, id, "node parent absent"));
                    };
                    let seen = &mut child_start[parent as usize + 1];
                    if step != *seen {
                        return Err(refusal(
                            prev,
                            id,
                            "node sibling step does not follow the previous one",
                        ));
                    }
                    *seen += 1;
                    parent
                }
            };
            open.push(row);
            parents.push(parent);
            prev = Some(id);
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
        self.child_start = child_start;
        self.children = children;
        Ok(())
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

    fn meta(&self, row: u32) -> Option<&NodeMeta> {
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
        self.deepest_entity(id, id.depth() + 1)
    }

    /// Nearest strict-ancestor entity of `id`.
    pub fn ancestors_entity(&self, id: &DeweyId) -> Option<DeweyId> {
        self.deepest_entity(id, id.depth())
    }

    /// The deepest entity row among the first `prefixes` rows of `id`'s
    /// path, as an id.
    fn deepest_entity(&self, id: &DeweyId, prefixes: usize) -> Option<DeweyId> {
        let row = self
            .walk(id)
            .take(prefixes)
            .filter(|&row| self.meta(row).is_some_and(|m| m.flags.is_entity()))
            .last()?;
        self.ids.get(row as usize).cloned()
    }

    /// Number of recorded nodes.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// True when no nodes are recorded.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
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

/// Why [`NodeTable::link`] refuses `id`, read after `prev`: out of order
/// if it does not follow `prev`, else `otherwise`.
#[cold]
fn refusal(prev: Option<&DeweyId>, id: &DeweyId, otherwise: &str) -> IndexError {
    let what = match prev {
        Some(prev) if prev >= id => "node ids not strictly increasing",
        _ => otherwise,
    };
    IndexError::Corrupt(format!("{what} at {id}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::categorize::{finalize_child_flags, self_flags};
    use gks_dewey::DocId;

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

    /// A linked table over `rows`, given in Dewey order.
    fn table(rows: &[(&[u32], NodeMeta)]) -> NodeTable {
        let mut t = NodeTable::new();
        for (steps, meta) in rows {
            let row = t.push(d(steps), meta.label).unwrap();
            t.set_meta(row, *meta);
        }
        t.link(1).unwrap();
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
        assert_eq!(t.ancestors_entity(&d(&[0, 0])), Some(d(&[])));
        // Connecting node → nearest entity ancestor.
        assert_eq!(t.lowest_entity_ancestor_or_self(&d(&[0, 0, 0])), Some(d(&[0, 0])));
        assert_eq!(t.lowest_entity_ancestor_or_self(&d(&[1])), Some(d(&[])));
        // Deep unrecorded node → still walks its recorded ancestors.
        assert_eq!(t.lowest_entity_ancestor_or_self(&d(&[0, 0, 5, 2])), Some(d(&[0, 0])));
        assert_eq!(t.lowest_entity_ancestor_or_self(&d(&[0, 3])), Some(d(&[])));
        // No entity on the path → None.
        assert_eq!(t.ancestors_entity(&d(&[])), None);
        assert_eq!(t.lowest_entity_ancestor_or_self(&DeweyId::root(DocId(4))), None);
        let path: Vec<u32> = t.path(&d(&[0, 0, 7])).map(|m| m.child_count).collect();
        assert_eq!(path, vec![2, 1, 1]);
    }

    #[test]
    fn link_refuses_rows_that_are_not_a_closed_pre_order() {
        let refused = |rows: &[&[u32]], what: &str| {
            let mut t = NodeTable::new();
            for steps in rows {
                t.push(d(steps), 0).unwrap();
            }
            match t.link(1) {
                Err(IndexError::Corrupt(message)) => assert!(message.contains(what), "{message}"),
                other => panic!("{rows:?}: expected Corrupt, got {other:?}"),
            }
        };
        refused(&[&[], &[0], &[1], &[0, 0]], "not strictly increasing");
        refused(&[&[], &[0], &[0]], "not strictly increasing");
        refused(&[&[], &[0], &[2]], "sibling step");
        refused(&[&[], &[0], &[1, 0]], "parent absent");
        refused(&[&[0]], "parent absent");
        let mut other_doc = NodeTable::new();
        other_doc.push(DeweyId::root(DocId(1)), 0).unwrap();
        assert!(matches!(other_doc.link(1), Err(IndexError::Corrupt(_))));
        assert!(other_doc.link(2).is_ok());
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
