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
//! The rows are columns in Dewey order, which is pre-order: `depths[r]`
//! and `metas[r]` describe row `r`. A child index in compressed-sparse-row
//! form sits beside them: `roots[doc]` is the document's root row, and the
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
//! keeps it, so the search engine walks up a root path by rows. A posting
//! is a row already, as the index file stores it, so the window, LCE
//! derivation and statistics sweep step through [`NodeTable::parent`] and
//! [`NodeTable::meta`] without touching an id. A row's descendants are the
//! rows after it up to [`NodeTable::subtree_end`], so containment is a
//! range test on rows too. The frozen Dewey-id adapters go from ids to rows
//! through [`NodeTable::rows_of`].
//!
//! No row stores its Dewey id. A build, a merge and an open each append
//! rows as `(depth, meta)` in pre-order, and `link` builds the parent
//! column and the child index from the depths: a root is the next
//! document's, and any other row is the next child of the open row one
//! level up. The shape alone fixes every id (§2.1), so only a depth that
//! skips a level and a root count other than the document count can be
//! refused. [`NodeTable::id`] reads an id back off that shape, for what
//! leaves the engine: the hits kept, doctor messages and the adapters.

use std::ops::Range;

use gks_dewey::{DeweyId, DocId, Step};

use crate::categorize::NodeFlags;
use crate::error::IndexError;
use crate::fasthash::FastMap;

/// The parent of a document root in [`NodeTable::parents`].
const NO_ROW: u32 = u32::MAX;

/// The steps a [`DeweyId`] holds without a heap allocation.
const INLINE_STEPS: usize = 6;

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
    /// Row depths in pre-order: the shape [`NodeTable::link`] reads and
    /// the file stores.
    depths: Vec<u32>,
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
    /// Its metadata is a placeholder until [`Self::set_meta`]; its parent
    /// and the child index come with [`Self::link`].
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

    /// The row depths in pre-order: what a build's posting encoder sums
    /// per posting and the file stores.
    pub(crate) fn depths(&self) -> &[u32] {
        &self.depths
    }

    /// Every row as `(depth, meta)`, in pre-order: the node section's rows.
    pub(crate) fn rows(&self) -> impl Iterator<Item = (u32, &NodeMeta)> {
        self.depths.iter().copied().zip(&self.metas)
    }

    /// Sets the metadata of row `row` (a no-op for a row never pushed).
    pub(crate) fn set_meta(&mut self, row: u32, meta: NodeMeta) {
        if let Some(slot) = self.metas.get_mut(row as usize) {
            *slot = meta;
        }
    }

    /// Builds the parent column and the child index over the pushed rows,
    /// in one pass over their depths: a depth-0 row is the root of the
    /// next document, and any other row is the next child of the last row
    /// one level up (§2.1). Refuses, with [`IndexError::Corrupt`], a depth
    /// more than one greater than the previous row's (the first row's must
    /// be 0) and a root count other than `doc_count`. Linear in the rows.
    pub(crate) fn link(&mut self, doc_count: usize) -> Result<(), IndexError> {
        let rows = self.depths.len();
        let mut roots: Vec<u32> = Vec::with_capacity(doc_count.min(rows));
        // Each row's child count lands in `child_start[row + 1]`.
        let mut child_start = vec![0u32; rows + 1];
        let mut parents: Vec<u32> = Vec::with_capacity(rows);
        // Rows of the previous row's ancestors-or-self, by depth.
        let mut open: Vec<u32> = Vec::new();
        for (row, &depth) in (0u32..).zip(&self.depths) {
            if depth as usize > open.len() {
                return Err(IndexError::Corrupt(format!(
                    "node row {row} at depth {depth} skips a level"
                )));
            }
            open.truncate(depth as usize);
            let parent = match open.last() {
                None if roots.len() < doc_count => {
                    roots.push(row);
                    NO_ROW
                }
                None => {
                    let roots = self.depths.iter().filter(|&&d| d == 0).count();
                    return Err(root_count(roots, doc_count));
                }
                Some(&parent) => {
                    child_start[parent as usize + 1] += 1;
                    parent
                }
            };
            open.push(row);
            parents.push(parent);
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
        self.roots = roots;
        self.child_start = child_start;
        self.children = children;
        self.parents = parents;
        Ok(())
    }

    /// The element children of `row`, in step order: empty for a leaf and
    /// for a row past the table.
    fn children_of(&self, row: u32) -> &[u32] {
        let slot = |row: usize| self.child_start.get(row).map(|&s| s as usize);
        match (slot(row as usize), slot(row as usize + 1)) {
            (Some(start), Some(end)) => self.children.get(start..end).unwrap_or_default(),
            _ => &[],
        }
    }

    /// The row of `row`'s element child with step `step`, if it has one.
    fn child(&self, row: u32, step: u32) -> Option<u32> {
        self.children_of(row).get(step as usize).copied()
    }

    /// The rows of `ids`, in order, each resolved by one `RowResolver`
    /// that starts each id from the rows of the prefix it shares with the
    /// one before it: a sorted list costs one child read per step an id
    /// does not share with its predecessor. Fails with the first id that no
    /// row describes.
    pub fn rows_of<'a>(
        &self,
        ids: impl IntoIterator<Item = &'a DeweyId>,
    ) -> Result<Vec<u32>, &'a DeweyId> {
        let mut resolver =
            RowResolver { table: self, doc: None, steps: Vec::new(), path: Vec::new() };
        ids.into_iter().map(|id| resolver.row(id.doc(), id.steps()).ok_or(id)).collect()
    }

    /// The parent row of `row`; `None` for a document root.
    pub fn parent(&self, row: u32) -> Option<u32> {
        self.parents.get(row as usize).copied().filter(|&parent| parent != NO_ROW)
    }

    /// The id of `row`, read off the tree's shape: each step is the row's
    /// position among its parent's children, and the document is the
    /// root's position among the roots. One binary search per level; an id
    /// of up to six steps allocates nothing. `None` for a row past the
    /// table.
    pub fn id(&self, row: u32) -> Option<DeweyId> {
        let depth = *self.depths.get(row as usize)? as usize;
        let mut inline = [0; INLINE_STEPS];
        let mut spilled = Vec::new();
        let steps = match inline.get_mut(..depth) {
            Some(steps) => steps,
            None => {
                spilled.resize(depth, 0);
                &mut spilled[..]
            }
        };
        let mut row = row;
        for step in steps.iter_mut().rev() {
            let parent = self.parent(row)?;
            *step = self.children_of(parent).binary_search(&row).ok()? as Step;
            row = parent;
        }
        let doc = self.roots.binary_search(&row).ok()?;
        Some(DeweyId::from_slice(DocId(doc as u32), steps))
    }

    /// The end of `row`'s pre-order range: its descendants are exactly the
    /// rows `row + 1..subtree_end(row)`. Found by following last children
    /// down to a leaf, so it costs one read per level below `row`. A row
    /// past the table has no descendants.
    pub fn subtree_end(&self, mut row: u32) -> u32 {
        while let Some(&last) = self.children_of(row).last() {
            row = last;
        }
        row.saturating_add(1)
    }

    /// All rows of document `doc`, pre-order being document order: its root
    /// row up to the next document's. Empty for a document past the count.
    pub fn doc_rows(&self, doc: DocId) -> Range<u32> {
        let end = self.metas.len() as u32;
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
        self.id(row)
    }

    /// Number of recorded nodes.
    pub fn len(&self) -> usize {
        self.metas.len()
    }

    /// True when no nodes are recorded.
    pub fn is_empty(&self) -> bool {
        self.metas.is_empty()
    }

    /// Test-only access to one row's metadata, for corrupted-index fixtures.
    #[cfg(test)]
    pub(crate) fn meta_mut(&mut self, row: u32) -> &mut NodeMeta {
        &mut self.metas[row as usize]
    }
}

/// Resolves a sequence of ids, given as a document and its steps, to rows.
/// It keeps the previous id and the rows of its prefixes, so an id reads
/// one child slot only for each step it does not share with the id before
/// it: a sorted list resolves in about one read per id. Only
/// [`NodeTable::rows_of`] resolves through it.
#[derive(Debug)]
struct RowResolver<'a> {
    table: &'a NodeTable,
    /// The previous id's document; `None` before the first id and after a
    /// failed one.
    doc: Option<DocId>,
    /// The previous id's steps.
    steps: Vec<Step>,
    /// The rows of the previous id's prefixes, root first: one more than
    /// `steps`.
    path: Vec<u32>,
}

impl RowResolver<'_> {
    /// The row of the id `doc`/`steps`, or `None` if no row describes it.
    fn row(&mut self, doc: DocId, steps: &[Step]) -> Option<u32> {
        let shared = match self.doc {
            Some(prev) if prev == doc => {
                self.steps.iter().zip(steps).take_while(|(a, b)| a == b).count() + 1
            }
            _ => 0,
        };
        self.path.truncate(shared);
        self.steps.truncate(shared.saturating_sub(1));
        self.doc = None;
        if self.path.is_empty() {
            self.path.push(*self.table.roots.get(doc.0 as usize)?);
        }
        for &step in steps.get(self.steps.len()..).unwrap_or_default() {
            let child = self.path.last().and_then(|&row| self.table.child(row, step))?;
            self.path.push(child);
            self.steps.push(step);
        }
        self.doc = Some(doc);
        self.path.last().copied()
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

    /// Every row's id, in row order.
    fn ids(t: &NodeTable) -> Vec<DeweyId> {
        (0..t.len() as u32).map(|row| t.id(row).unwrap()).collect()
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
    /// its depth, and `id` reads its steps back.
    fn table(rows: &[(&[u32], NodeMeta)]) -> NodeTable {
        let mut t = NodeTable::new();
        for (steps, meta) in rows {
            t.push_row(steps.len() as u32, *meta).unwrap();
        }
        t.link(1).unwrap();
        let want: Vec<DeweyId> = rows.iter().map(|(steps, _)| d(steps)).collect();
        assert_eq!(ids(&t), want);
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
        assert_eq!(t.id(2), Some(d(&[1])));
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
        assert_eq!(t.rows_of(&ids(&t)), Ok(vec![0, 1, 2, 3, 4]));
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
        assert_eq!(t.id(3), Some(d(&[0, 0, 0])));
        assert_eq!(t.id(5), None);
        // Each row's descendants run up to its subtree end.
        let ends: Vec<u32> = (0..6).map(|row| t.subtree_end(row)).collect();
        assert_eq!(ends, vec![5, 4, 4, 4, 5, 6]);
        assert_eq!(t.subtree_end(u32::MAX), u32::MAX);
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
        let want: Vec<DeweyId> = rows
            .iter()
            .map(|&(doc, steps)| DeweyId::new(DocId(doc), steps.to_vec()))
            .collect();
        assert_eq!(ids(&t), want);
        t
    }

    #[test]
    fn doc_rows_span_each_documents_pre_order_block() {
        // Three documents of two, one and three rows.
        let t = docs_table(&[(0, &[]), (0, &[0]), (1, &[]), (2, &[]), (2, &[0]), (2, &[1])], 3);
        let ranges: Vec<Range<u32>> = (0..3).map(|doc| t.doc_rows(DocId(doc))).collect();
        assert_eq!(ranges, vec![0..2, 2..3, 3..6]);
        for (row, id) in (0u32..).zip(ids(&t)) {
            assert!(t.doc_rows(id.doc()).contains(&row), "row {row} of {id}");
        }
        // A document id past the count has no rows.
        assert!(t.doc_rows(DocId(3)).is_empty());
        assert!(t.doc_rows(DocId(u32::MAX)).is_empty());
        assert!(NodeTable::new().doc_rows(DocId(0)).is_empty());
    }

    #[test]
    fn ids_follow_the_depths_and_link_refuses_a_skipped_level_or_a_wrong_root_count() {
        let mut t = NodeTable::new();
        for depth in [0, 1, 2, 1, 0, 1, 1] {
            t.push(depth, 0).unwrap();
        }
        t.link(2).unwrap();
        let second = |steps: &[u32]| DeweyId::new(DocId(1), steps.to_vec());
        let want = [d(&[]), d(&[0]), d(&[0, 0]), d(&[1]), second(&[]), second(&[0]), second(&[1])];
        assert_eq!(ids(&t), want);

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

    /// The depths of one document from `moves`: a root, then one row per
    /// move, a child of the previous row for a move below 3 (so about half
    /// the cases go deeper than an id holds inline) and otherwise at a
    /// depth from 1 to one below the previous row's.
    fn doc_depths(moves: &[u32]) -> Vec<u32> {
        let mut depths = vec![0];
        for &m in moves {
            let prev = depths.last().copied().unwrap_or(0);
            depths.push(if m < 3 { prev + 1 } else { 1 + m % (prev + 1) });
        }
        depths
    }

    /// §2.1's numbering run over pre-order depths: a root starts the next
    /// document, and any other row is the next child of the open row one
    /// level up.
    fn reference_ids(depths: &[u32]) -> Vec<DeweyId> {
        let (mut doc, mut roots) = (0, 0);
        let mut steps: Vec<u32> = Vec::new();
        // Children seen so far under the open row at each depth.
        let mut seen: Vec<u32> = Vec::new();
        let mut out = Vec::new();
        for &depth in depths {
            let depth = depth as usize;
            if depth == 0 {
                (doc, roots) = (roots, roots + 1);
                steps.clear();
                seen.clear();
            } else {
                steps.truncate(depth - 1);
                seen.truncate(depth);
                steps.push(seen[depth - 1]);
                seen[depth - 1] += 1;
            }
            seen.push(0);
            out.push(DeweyId::new(DocId(doc), steps.clone()));
        }
        out
    }

    proptest::proptest! {
        /// Over random forests, some deeper than an id holds inline: every
        /// row's id is the reference numbering's and leads back to the row,
        /// and a row range test is the ancestor test on ids.
        #[test]
        fn ids_and_subtree_ends_match_a_dewey_counter(
            docs in proptest::collection::vec(proptest::collection::vec(0u32..8, 0..40), 1..4),
        ) {
            let depths: Vec<u32> = docs.iter().flat_map(|moves| doc_depths(moves)).collect();
            let mut t = NodeTable::new();
            for &depth in &depths {
                t.push(depth, 0).unwrap();
            }
            t.link(docs.len()).unwrap();
            let want = reference_ids(&depths);
            let rows = want.len() as u32;
            for (row, id) in (0u32..).zip(&want) {
                proptest::prop_assert_eq!(t.id(row), Some(id.clone()));
                proptest::prop_assert_eq!(t.row(id), Some(row));
            }
            proptest::prop_assert_eq!(t.id(rows), None);
            for a in 0..rows {
                let end = t.subtree_end(a);
                for b in 0..rows {
                    proptest::prop_assert_eq!(
                        a < b && b < end,
                        want[a as usize].is_ancestor_of(&want[b as usize]),
                        "rows {} and {}", a, b
                    );
                }
            }
        }
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
