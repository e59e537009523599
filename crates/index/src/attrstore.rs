//! The attribute store: per-entity context attributes for DI discovery.
//!
//! For an entity node `e`, `R(e)` is "a subset of text keywords, extracted
//! from attribute nodes of e" (paper Table 2); §2.3 additionally associates
//! with every DI keyword "the XML elements in the path from node e till
//! keyword k" — the *semantics* of the keyword (`<Course: Name: Data
//! Mining>`). This store records, for every entity node, its qualifying
//! attribute entries: the element path from the entity to the attribute, the
//! attribute's text, and whether the source was a true attribute node or a
//! repeating text node.
//!
//! Repeating text nodes are included (flagged [`AttrSource::RepeatingText`])
//! because the paper's own DI examples surface them — `<ip: author: Alok N
//! Choudhary>` comes from an `<author>` list, which repeats in multi-author
//! articles — even though Def 2.3.1 speaks only of attribute nodes. DI
//! extraction filters by source according to its options.
//!
//! # Layout
//!
//! Attribute data repeats heavily (a 6 MB DBLP corpus has 135 647 entries
//! but 24 462 distinct values and 7 distinct paths), so every string and
//! every path is stored once and entries are ids:
//!
//! * **paths** — `path id → [label id]`, the elements from the entity's
//!   child down to the attribute element itself (inclusive), e.g.
//!   `[students, student]` or `[name]`;
//! * **values** — `value id → (raw text, norm id)`;
//! * **norms** — `norm id →` the value's analysed terms joined by one space
//!   (tokens are alphanumeric, so the join loses nothing). §2.4 puts stop-word
//!   removal and stemming at index-creation time: a value is analysed once,
//!   when it is first interned, with the index's own analyzer, and the norm
//!   is persisted — DI groups by norm id and never calls the analyzer;
//! * **slab** — every entity's [`AttrIds`], one contiguous run per entity;
//! * **entities** — `(node-table row, entity label id, run of the slab)` in
//!   recording order, with a row-indexed column pointing back into them;
//! * **groups** — DI's aggregation key, `group id → (entity label, path id,
//!   norm id)`, and each slab entry's group id. A group is a property of the
//!   index, not of a query, so DI adds a hit's rank into its entries' groups
//!   instead of rebuilding the key entry by entry. The column is derived from
//!   the tables above in one hashed pass over the slab, once DI has read as
//!   many entries by key as the slab holds ([`AttrStore::groups_ready`]):
//!   from then on reading by key would cost more than the derivation did,
//!   while an index reopened for a few queries never pays for a whole pass.
//!   It is not persisted, because 4 B an entry would grow the file by about
//!   a seventh, and not derived at open, because an index that never runs
//!   DI (a plain search server) would pay for it.
//!
//! An entity is named by its node-table row
//! ([`crate::node_table::NodeTable::row`]), never by a hashed Dewey id:
//! [`crate::GksIndex::entries`] walks the id to its row and reads the
//! column.
//!
//! The string → id maps interning needs exist only while a store is being
//! built (or appended to); a finished or loaded store carries the tables
//! alone.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

use crate::error::IndexError;
use crate::fasthash::FastMap;

/// Where an attribute entry came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AttrSource {
    /// A true attribute node (Def 2.1.1) on a repetition-free path.
    Attribute,
    /// A repeating text node (e.g. one `<author>` of several).
    RepeatingText,
}

/// One qualifying attribute of an entity node, as ids into the store's
/// tables — the form DI aggregates over.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AttrIds {
    /// Path id; resolve with [`AttrStore::path`].
    pub path: u32,
    /// Value id; resolve with [`AttrStore::value`] / [`AttrStore::norm_of`].
    pub value: u32,
    /// Attribute node or repeating text node.
    pub source: AttrSource,
}

/// One qualifying attribute of an entity node, resolved to borrowed data.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AttrView<'a> {
    /// Interned labels of the elements from the entity's child down to the
    /// attribute element itself (inclusive).
    pub path: &'a [u32],
    /// The attribute's raw text value.
    pub value: &'a str,
    /// Attribute node or repeating text node.
    pub source: AttrSource,
}

/// DI's aggregation key for one attribute entry: the label of the entity
/// carrying it, its path id and its value's norm id. Two entries of one
/// index share a group exactly when all three agree.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct GroupKey {
    /// The entity's own interned label.
    pub label: u32,
    /// Path id; resolve with [`AttrStore::path`].
    pub path: u32,
    /// Norm id; resolve with [`AttrStore::norm`].
    pub norm: u32,
}

/// `R(e)`: the qualifying attributes of one entity, in document order.
#[derive(Debug, Clone, Copy)]
pub struct Entries<'a> {
    store: &'a AttrStore,
    label: u32,
    /// Where the run starts in the slab.
    start: usize,
    ids: &'a [AttrIds],
}

impl<'a> Entries<'a> {
    /// The entity's own interned label.
    pub fn label(&self) -> u32 {
        self.label
    }

    /// The entries as table ids.
    pub fn ids(&self) -> &'a [AttrIds] {
        self.ids
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// True for an unknown or attribute-less entity.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// The group id of each entry, in entry order; derives the store's
    /// group column if [`AttrStore::groups_ready`] has not.
    pub fn groups(&self) -> &'a [u32] {
        let groups = &self.store.groups().of_entry;
        groups.get(self.start..self.start + self.ids.len()).unwrap_or(&[])
    }

    /// The entries resolved to borrowed paths and values.
    pub fn iter(&self) -> impl Iterator<Item = AttrView<'a>> + 'a {
        let store = self.store;
        self.ids.iter().map(move |e| AttrView {
            path: store.path(e.path),
            value: store.value(e.value),
            source: e.source,
        })
    }
}

#[derive(Debug, Clone)]
struct Value {
    raw: Arc<str>,
    norm: u32,
}

#[derive(Debug, Clone, Copy)]
struct EntityRecord {
    row: u32,
    label: u32,
    start: u32,
    len: u32,
}

/// The group column: each slab entry's group id and each group's key.
#[derive(Debug, Clone, Default)]
struct Groups {
    /// Slab position → group id.
    of_entry: Vec<u32>,
    /// Group id → key, ids in order of first occurrence in the slab.
    keys: Vec<GroupKey>,
}

/// The group column, once derived, and the reads that lead up to it.
#[derive(Debug, Default)]
struct GroupColumn {
    derived: OnceLock<Groups>,
    /// Entries DI has read by key while the column was not derived.
    keyed_reads: AtomicUsize,
}

impl Clone for GroupColumn {
    fn clone(&self) -> Self {
        GroupColumn {
            derived: self.derived.clone(),
            keyed_reads: AtomicUsize::new(self.keyed_reads.load(Ordering::Relaxed)),
        }
    }
}

/// The string → id direction of the tables, needed only to intern.
#[derive(Debug, Clone, Default)]
struct Interner {
    paths: FastMap<Vec<u32>, u32>,
    values: FastMap<Arc<str>, u32>,
    norms: FastMap<Arc<str>, u32>,
}

/// Per-entity attribute entries over interned paths, values and norms; see
/// the [module docs](self) for the layout.
#[derive(Debug, Default, Clone)]
pub struct AttrStore {
    paths: Vec<Vec<u32>>,
    values: Vec<Value>,
    norms: Vec<Arc<str>>,
    slab: Vec<AttrIds>,
    /// One record per entity, in recording order (the slab's).
    entities: Vec<EntityRecord>,
    /// Node-table row → index into `entities`, [`NO_ENTITY`] for a row
    /// without a record; ends at the last row that has one.
    by_row: Vec<u32>,
    /// Derived from the slab when DI has read enough; reset by every insert.
    groups: GroupColumn,
    /// Present between the first interning call and [`AttrStore::seal`].
    interner: Option<Interner>,
}

/// Marks a row without an entity record in [`AttrStore::by_row`].
const NO_ENTITY: u32 = u32::MAX;

fn id_of(len: usize) -> u32 {
    u32::try_from(len).unwrap_or(u32::MAX)
}

impl AttrStore {
    /// An empty store.
    pub fn new() -> Self {
        AttrStore::default()
    }

    /// `R(e)` for the entity at node-table row `row`: its qualifying
    /// attributes (empty for a row without any). [`crate::GksIndex::entries`]
    /// finds the row of a Dewey id.
    pub fn entries_at(&self, row: u32) -> Entries<'_> {
        let record = self.by_row.get(row as usize).and_then(|&i| self.entities.get(i as usize));
        match record {
            Some(record) => self.run(record),
            None => Entries { store: self, label: 0, start: 0, ids: &[] },
        }
    }

    fn run(&self, record: &EntityRecord) -> Entries<'_> {
        let start = record.start as usize;
        let ids = self.slab.get(start..start + record.len as usize).unwrap_or(&[]);
        Entries { store: self, label: record.label, start, ids }
    }

    /// The group column, derived on first call: one pass over every
    /// entity's run, hashing each entry's key once.
    fn groups(&self) -> &Groups {
        self.groups.derived.get_or_init(|| {
            // Most values occur under one entity label and path, so there
            // are about as many groups as values.
            let mut ids: FastMap<GroupKey, u32> =
                FastMap::with_capacity_and_hasher(self.values.len(), Default::default());
            let mut groups = Groups { of_entry: vec![0; self.slab.len()], keys: Vec::new() };
            for record in &self.entities {
                let run = self.run(record);
                let Some(of_entry) = groups.of_entry.get_mut(run.start..run.start + run.len())
                else {
                    continue;
                };
                for (group, entry) in of_entry.iter_mut().zip(run.ids) {
                    let key = GroupKey {
                        label: record.label,
                        path: entry.path,
                        norm: self.norm_of(entry.value),
                    };
                    *group = *ids.entry(key).or_insert_with(|| {
                        groups.keys.push(key);
                        id_of(groups.keys.len() - 1)
                    });
                }
            }
            groups
        })
    }

    /// Whether DI should read this store by group id, which is once the
    /// group column is derived. Until then DI reads entries by key and
    /// counts them ([`AttrStore::count_keyed_reads`]); once they add up to
    /// the slab's length, this call derives the column. Reading by key has
    /// then cost about what one derivation does, so a query stream never
    /// pays much more than the cheaper of the two.
    pub fn groups_ready(&self) -> bool {
        if self.groups.derived.get().is_some() {
            return true;
        }
        if self.groups.keyed_reads.load(Ordering::Relaxed) < self.slab.len() {
            return false;
        }
        self.groups();
        true
    }

    /// Counts `entries` entries DI read by key toward deriving the group
    /// column (see [`AttrStore::groups_ready`]).
    pub fn count_keyed_reads(&self, entries: usize) {
        self.groups.keyed_reads.fetch_add(entries, Ordering::Relaxed);
    }

    /// Number of distinct groups (see [`GroupKey`]); derives the group
    /// column on first call.
    pub fn group_count(&self) -> usize {
        self.groups().keys.len()
    }

    /// The key of group `id` (`None` for an unknown id); derives the group
    /// column on first call.
    pub fn group(&self, id: u32) -> Option<GroupKey> {
        self.groups().keys.get(id as usize).copied()
    }

    /// Number of entities with at least one recorded attribute.
    pub fn len(&self) -> usize {
        self.entities.len()
    }

    /// True when nothing is recorded.
    pub fn is_empty(&self) -> bool {
        self.entities.is_empty()
    }

    /// Iterates all `(entity row, entries)` pairs in the order they were
    /// recorded — the slab's order, so a whole-store scan (persist, doctor)
    /// is sequential in memory and repeats exactly run to run.
    pub fn iter(&self) -> impl Iterator<Item = (u32, Entries<'_>)> {
        self.entities.iter().map(|record| (record.row, self.run(record)))
    }

    /// The label ids of path `id` (empty for an unknown id).
    pub fn path(&self, id: u32) -> &[u32] {
        self.paths.get(id as usize).map_or(&[], Vec::as_slice)
    }

    /// The raw text of value `id` (empty for an unknown id).
    pub fn value(&self, id: u32) -> &str {
        self.values.get(id as usize).map_or("", |v| &v.raw)
    }

    /// The norm id of value `id` (`u32::MAX` for an unknown id).
    pub fn norm_of(&self, value: u32) -> u32 {
        self.values.get(value as usize).map_or(u32::MAX, |v| v.norm)
    }

    /// The analysed, space-joined terms of norm `id` (empty for an unknown
    /// id, as for a value the analyzer reduces to nothing).
    pub fn norm(&self, id: u32) -> &str {
        self.norms.get(id as usize).map_or("", |n| n)
    }

    /// All distinct paths in id order.
    pub fn paths(&self) -> &[Vec<u32>] {
        &self.paths
    }

    /// All distinct norms in id order.
    pub fn norms(&self) -> impl ExactSizeIterator<Item = &str> {
        self.norms.iter().map(|n| &**n)
    }

    /// All distinct values in id order, each with its norm id.
    pub fn values(&self) -> impl ExactSizeIterator<Item = (&str, u32)> {
        self.values.iter().map(|v| (&*v.raw, v.norm))
    }

    // ----- building -----

    /// The reverse maps, created empty by the first interning call. Only a
    /// build or a merge interns, into a fresh store: a sealed or loaded store has no
    /// maps and is never interned into.
    fn interner(&mut self) -> &mut Interner {
        debug_assert!(
            self.interner.is_some() || (self.paths.is_empty() && self.values.is_empty()),
            "interning into a sealed or loaded attribute store"
        );
        self.interner.get_or_insert_with(Interner::default)
    }

    /// Drops the interning maps once a build or merge is complete.
    pub(crate) fn seal(&mut self) {
        self.interner = None;
    }

    /// Interns a label path, returning its id.
    pub(crate) fn intern_path(&mut self, path: &[u32]) -> u32 {
        if let Some(&id) = self.interner().paths.get(path) {
            return id;
        }
        let id = id_of(self.paths.len());
        self.paths.push(path.to_vec());
        self.interner().paths.insert(path.to_vec(), id);
        id
    }

    /// Interns a raw attribute value, returning its id. `norm` gives the
    /// value's analysed terms, space-joined; it runs only for a value seen
    /// for the first time — the only time a value is ever analysed.
    pub(crate) fn intern_value(&mut self, raw: &str, norm: impl FnOnce() -> String) -> u32 {
        if let Some(&id) = self.interner().values.get(raw) {
            return id;
        }
        let norm = norm();
        let norm_id = match self.interner().norms.get(norm.as_str()) {
            Some(&id) => id,
            None => {
                let id = id_of(self.norms.len());
                let norm: Arc<str> = norm.into();
                self.norms.push(norm.clone());
                self.interner().norms.insert(norm, id);
                id
            }
        };
        let id = id_of(self.values.len());
        let raw: Arc<str> = raw.into();
        self.values.push(Value { raw: raw.clone(), norm: norm_id });
        self.interner().values.insert(raw, id);
        id
    }

    /// Makes room for `additional` more entities (index open knows the count
    /// before it inserts).
    pub(crate) fn reserve_entities(&mut self, additional: usize) {
        self.entities.reserve(additional);
    }

    /// Records the qualifying attributes of the entity at node-table row
    /// `row`, whose own label is `label`. An empty entry list records
    /// nothing; a row already recorded is an error.
    pub(crate) fn insert(
        &mut self,
        row: u32,
        label: u32,
        entries: &[AttrIds],
    ) -> Result<(), IndexError> {
        if entries.is_empty() {
            return Ok(());
        }
        let slot = row as usize;
        if self.by_row.get(slot).is_some_and(|&i| i != NO_ENTITY) {
            return Err(IndexError::Corrupt(format!("attr entity row {row} recorded twice")));
        }
        if slot >= self.by_row.len() {
            self.by_row.resize(slot + 1, NO_ENTITY);
        }
        self.by_row[slot] = id_of(self.entities.len());
        self.groups = GroupColumn::default();
        let record =
            EntityRecord { row, label, start: id_of(self.slab.len()), len: id_of(entries.len()) };
        self.slab.extend_from_slice(entries);
        self.entities.push(record);
        Ok(())
    }

    // ----- loading (persistence layer) -----

    /// Appends a path read from disk as the next path id.
    pub(crate) fn load_path(&mut self, path: Vec<u32>) {
        self.paths.push(path);
    }

    /// Appends a norm read from disk as the next norm id.
    pub(crate) fn load_norm(&mut self, norm: &str) {
        self.norms.push(norm.into());
    }

    /// Appends a value read from disk as the next value id; its norm must
    /// already be loaded.
    pub(crate) fn load_value(&mut self, raw: &str, norm: u64) -> Result<(), IndexError> {
        if norm >= self.norms.len() as u64 {
            return Err(IndexError::Corrupt(format!("attr norm id {norm} out of range")));
        }
        self.values.push(Value { raw: raw.into(), norm: norm as u32 });
        Ok(())
    }

    /// Records an entity read from disk at node-table row `row`; every
    /// path and value id must already be loaded.
    pub(crate) fn load_entity(
        &mut self,
        row: u32,
        label: u32,
        entries: &[AttrIds],
    ) -> Result<(), IndexError> {
        for entry in entries {
            if entry.path as usize >= self.paths.len() {
                return Err(IndexError::Corrupt(format!(
                    "attr path id {} out of range",
                    entry.path
                )));
            }
            if entry.value as usize >= self.values.len() {
                return Err(IndexError::Corrupt(format!(
                    "attr value id {} out of range",
                    entry.value
                )));
            }
        }
        if u32::try_from(self.slab.len() + entries.len()).is_err() {
            return Err(IndexError::Corrupt("attr slab exceeds u32 entries".into()));
        }
        self.insert(row, label, entries)
    }

    // ----- test-only mutators for corrupted-index fixtures -----

    #[cfg(test)]
    pub(crate) fn set_norm_of(&mut self, value: u32, norm: u32) {
        self.values[value as usize].norm = norm;
    }

    #[cfg(test)]
    pub(crate) fn slab_mut(&mut self) -> &mut Vec<AttrIds> {
        &mut self.slab
    }

    #[cfg(test)]
    pub(crate) fn set_entity_label(&mut self, row: u32, label: u32) {
        let i = self.by_row[row as usize];
        self.entities[i as usize].label = label;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gks_text::Analyzer;

    fn one_entry(s: &mut AttrStore, label: u32, raw: &str) -> AttrIds {
        AttrIds {
            path: s.intern_path(&[label]),
            value: s.intern_value(raw, || Analyzer::default().analyze(raw).join(" ")),
            source: AttrSource::Attribute,
        }
    }

    #[test]
    fn entries_round_trip() {
        let mut s = AttrStore::new();
        let entry = one_entry(&mut s, 3, "Data Mining");
        s.insert(4, 7, &[entry]).unwrap();
        let entries = s.entries_at(4);
        assert_eq!(entries.label(), 7);
        let views: Vec<AttrView<'_>> = entries.iter().collect();
        assert_eq!(
            views,
            vec![AttrView { path: &[3], value: "Data Mining", source: AttrSource::Attribute }]
        );
        assert!(s.entries_at(9).is_empty());
        assert!(s.entries_at(3).is_empty());
        assert_eq!(s.len(), 1);
        assert!(matches!(s.insert(4, 7, &[entry]), Err(IndexError::Corrupt(_))));
        let rows: Vec<u32> = s.iter().map(|(row, _)| row).collect();
        assert_eq!(rows, [4]);
    }

    #[test]
    fn empty_entry_lists_not_stored() {
        let mut s = AttrStore::new();
        s.insert(0, 0, &[]).unwrap();
        assert!(s.is_empty());
    }

    #[test]
    fn values_normalising_identically_share_a_norm() {
        let mut s = AttrStore::new();
        let a = one_entry(&mut s, 1, "Data Mining");
        let b = one_entry(&mut s, 1, "data-mining");
        let again = one_entry(&mut s, 1, "Data Mining");
        assert_eq!(a, again, "interning is idempotent");
        assert_ne!(a.value, b.value);
        assert_eq!(s.norm_of(a.value), s.norm_of(b.value));
        assert_eq!(s.norm(s.norm_of(a.value)), "data mine");
        assert_eq!((s.paths().len(), s.values().len(), s.norms().len()), (1, 2, 1));
        // A value of stop words only analyses to the empty norm.
        let stop = one_entry(&mut s, 1, "of the");
        assert_eq!(s.norm(s.norm_of(stop.value)), "");
    }

    #[test]
    fn entries_share_a_group_exactly_when_label_path_and_norm_agree() {
        let mut s = AttrStore::new();
        let title = s.intern_path(&[3]);
        let entry = |s: &mut AttrStore, path: u32, raw: &str| AttrIds {
            path,
            value: s.intern_value(raw, || Analyzer::default().analyze(raw).join(" ")),
            source: AttrSource::Attribute,
        };
        // Two spellings of one norm under one label and path; the same path
        // under a second entity label; another norm; another path.
        let mining = entry(&mut s, title, "Data Mining");
        let spelled = entry(&mut s, title, "data-mining");
        let other = entry(&mut s, title, "Databases");
        let year = s.intern_path(&[4]);
        let in_year = entry(&mut s, year, "data mining");
        s.insert(1, 7, &[mining, spelled, other, in_year]).unwrap();
        s.insert(5, 8, &[spelled]).unwrap();
        s.insert(9, 7, &[mining]).unwrap();

        let groups = |row: u32| s.entries_at(row).groups().to_vec();
        let first = groups(1);
        assert_eq!(first.len(), 4);
        assert_eq!(first[0], first[1], "two raw spellings with one norm share a group");
        assert_ne!(first[0], first[2], "another norm is another group");
        assert_ne!(first[0], first[3], "another path is another group");
        assert_ne!(groups(5)[0], first[0], "one path under two entity labels: two groups");
        assert_eq!(groups(9), [first[0]], "the same key under another entity of the label");
        assert_eq!(s.group_count(), 4);
        let norm = s.norm_of(mining.value);
        assert_eq!(s.group(first[0]), Some(GroupKey { label: 7, path: title, norm }));
        assert_eq!(s.group(groups(5)[0]), Some(GroupKey { label: 8, path: title, norm }));
        assert_eq!(s.group(4), None);
        for (_, entries) in s.iter() {
            for (entry, &group) in entries.ids().iter().zip(entries.groups()) {
                let key = s.group(group).unwrap();
                assert_eq!(
                    key,
                    GroupKey {
                        label: entries.label(),
                        path: entry.path,
                        norm: s.norm_of(entry.value)
                    }
                );
            }
        }

        // Keyed reads derive the column once they reach the slab's length.
        let mut t = AttrStore::new();
        let a = entry(&mut t, title, "Data Mining");
        t.insert(2, 7, &[a, a, a]).unwrap();
        assert!(!t.groups_ready());
        t.count_keyed_reads(2);
        assert!(!t.groups_ready());
        t.count_keyed_reads(1);
        assert!(t.groups_ready());
        assert_eq!(t.group_count(), 1);

        // An insert after the column was derived resets it.
        let late = entry(&mut s, year, "Databases");
        s.insert(11, 7, &[late]).unwrap();
        assert_eq!(s.group_count(), 5);
        assert!(s.entries_at(3).groups().is_empty());
    }
}
