//! The node table: the paper's `entityHash` + `elementHash`, unified.
//!
//! §2.4 keeps two hash tables over Dewey ids — entity nodes in one, repeating
//! and connecting nodes in the other — both storing "the number of direct
//! children each node has … used while computing the rank of a node". This
//! implementation stores one entry per element node (attribute nodes
//! included, since the potential-flow ranking needs child counts along whole
//! root-to-terminal paths) with the category flags attached, and exposes the
//! paper's two lookup functions, [`NodeTable::is_entity`] and
//! [`NodeTable::is_element`], on top.

use gks_dewey::DeweyId;

use crate::categorize::NodeFlags;
use crate::fasthash::FastMap;

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

/// Per-node metadata table over the whole corpus.
#[derive(Debug, Default, Clone)]
pub struct NodeTable {
    map: FastMap<DeweyId, NodeMeta>,
    labels: LabelInterner,
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

    /// Makes room for `additional` more nodes, so a bulk load (index open)
    /// inserts without rehashing.
    pub fn reserve(&mut self, additional: usize) {
        self.map.reserve(additional);
    }

    /// Records a node.
    pub fn insert(&mut self, id: DeweyId, meta: NodeMeta) {
        self.map.insert(id, meta);
    }

    /// Full metadata for a node.
    pub fn get(&self, id: &DeweyId) -> Option<&NodeMeta> {
        self.map.get(id)
    }

    /// Paper API: `isEntity(DeweyId)` — "returns the number of direct
    /// children the given node has if true, null otherwise".
    pub fn is_entity(&self, id: &DeweyId) -> Option<u32> {
        self.map.get(id).filter(|m| m.flags.is_entity()).map(|m| m.child_count)
    }

    /// Paper API: `isElement(DeweyId)` — repeating or connecting nodes.
    pub fn is_element(&self, id: &DeweyId) -> Option<u32> {
        self.map
            .get(id)
            .filter(|m| m.flags.is_repeating() || m.flags.is_connecting())
            .map(|m| m.child_count)
    }

    /// Child count of any recorded node.
    pub fn child_count(&self, id: &DeweyId) -> Option<u32> {
        self.map.get(id).map(|m| m.child_count)
    }

    /// The element name of a recorded node.
    pub fn label_name(&self, id: &DeweyId) -> Option<&str> {
        self.map.get(id).map(|m| self.labels.name(m.label))
    }

    /// Walks from `id` upward (self first) to the nearest entity node, per
    /// the LCE derivation of §4.1: "we check if it is an entity node or any
    /// of its ancestors is an entity node".
    pub fn lowest_entity_ancestor_or_self(&self, id: &DeweyId) -> Option<DeweyId> {
        if self.is_entity(id).is_some() {
            return Some(id.clone());
        }
        self.ancestors_entity(id)
    }

    /// Nearest strict-ancestor entity of `id`.
    pub fn ancestors_entity(&self, id: &DeweyId) -> Option<DeweyId> {
        id.ancestors().find(|anc| self.is_entity(anc).is_some())
    }

    /// Number of recorded nodes.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True when no nodes are recorded.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Iterates all `(id, meta)` pairs (unspecified order; used by persist
    /// and the census).
    pub fn iter(&self) -> impl Iterator<Item = (&DeweyId, &NodeMeta)> {
        self.map.iter()
    }
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

    #[test]
    fn is_entity_mirrors_paper_api() {
        let mut t = NodeTable::new();
        let course = t.labels_mut().intern("course");
        let students = t.labels_mut().intern("students");
        t.insert(d(&[0]), entity_meta(course, 2));
        t.insert(d(&[0, 1]), connecting_meta(students, 3));
        assert_eq!(t.is_entity(&d(&[0])), Some(2));
        assert_eq!(t.is_entity(&d(&[0, 1])), None);
        assert_eq!(t.is_element(&d(&[0, 1])), Some(3));
        assert_eq!(t.is_element(&d(&[0])), None);
        assert_eq!(t.is_entity(&d(&[9])), None);
    }

    #[test]
    fn lowest_entity_ancestor_walks_up() {
        let mut t = NodeTable::new();
        let l = t.labels_mut().intern("x");
        t.insert(d(&[0]), entity_meta(l, 2));
        t.insert(d(&[0, 1]), connecting_meta(l, 1));
        // Node itself is an entity → returned as-is.
        assert_eq!(t.lowest_entity_ancestor_or_self(&d(&[0])), Some(d(&[0])));
        // Connecting node → nearest entity ancestor.
        assert_eq!(t.lowest_entity_ancestor_or_self(&d(&[0, 1])), Some(d(&[0])));
        // Deep unrecorded node → still walks ancestors.
        assert_eq!(t.lowest_entity_ancestor_or_self(&d(&[0, 1, 5, 2])), Some(d(&[0])));
        // No entity on the path → None.
        assert_eq!(t.lowest_entity_ancestor_or_self(&d(&[3, 0])), None);
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
