//! Binary persistence for [`GksIndex`].
//!
//! "For a given XML data repository, we first prepare an index on it. This is
//! a onetime activity" (paper §2.4); Table 4 then reports on-disk index sizes
//! comparable to the raw data.
//!
//! One layout: eager sections for options, document names, labels, node
//! table, attribute store and stats (strings are length-prefixed UTF-8,
//! integers LEB128 varints; a node row is its depth and metadata, and an
//! entity names its node-table row — no Dewey id is stored outside the
//! posting tier, since [`NodeTable::link`] derives every one from the
//! depths), followed by the posting tier exactly as the index's
//! [`PostingStore`](crate::postings::PostingStore) holds it: a **sorted term
//! dictionary** (term bytes + posting-run offset/count per term), a
//! fixed-width offset table for binary search straight off the file, and a
//! postings region of blocked delta-prefix runs
//! ([`gks_dewey::codec::encode_blocked_run`]). Saving copies that tier
//! verbatim — no run is decoded or re-encoded, whether the index was built
//! or opened. A fixed footer carries the section offsets and two
//! checksums ([`checksum`]): one over the eager sections, which an open
//! reads whole anyway, and one over the header and the footer. Loading
//! `mmap`s the file, validates the header, footer, eager sections and
//! dictionary, and hands the engine lazily-decoded posting cursors —
//! posting blocks are never read at open, and the map stays alive inside
//! the store.
//!
//! The version number in the header moves whenever a section changes shape,
//! and a file carrying any other number is refused with
//! [`IndexError::VersionMismatch`] before anything else is read.

use std::fs;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use bytes::{Buf, BufMut, Bytes, BytesMut, Mmap};
use gks_dewey::codec::{read_varint, write_varint};
use gks_text::AnalyzerOptions;

use crate::attrstore::{AttrIds, AttrSource, AttrStore};
use crate::builder::GksIndex;
use crate::categorize::NodeFlags;
use crate::error::IndexError;
use crate::node_table::{NodeMeta, NodeTable};
use crate::options::IndexOptions;
use crate::postings::{PostingStore, Tier};
use crate::stats::{CategoryCensus, IndexStats};

const MAGIC: &[u8; 5] = b"GKSIX";
/// The one file version (6 → 7 when the node ids became one blocked run,
/// 7 → 8 when the header kept only the two analyzer option bytes, 8 → 9
/// when each document name gained its XML byte length and the stats section
/// lost the corpus total those lengths sum to, 9 → 10 when each node row
/// stored its depth instead of its Dewey id, each entity its node-table row
/// instead of its id, and the footer gained the eager sections' checksum).
const VERSION: u32 = 10;
/// Trailing magic of the footer; lets the doctor tell "not an index file"
/// from "index file with a torn footer".
const TAIL_MAGIC: &[u8; 4] = b"GKS3";
/// Footer: 8 section offsets + term count + file length + eager-section
/// checksum + header/footer checksum (u64 big-endian each), then
/// [`TAIL_MAGIC`].
const FOOTER_LEN: usize = 12 * 8 + TAIL_MAGIC.len();

/// On-disk format selector for [`GksIndex::save_as`]. There is one layout;
/// the enum survives only because the frozen `perf/` benchmark names
/// `IndexFormat::V3`, until the next `[benchmark]` PR can drop that call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IndexFormat {
    /// Blocked postings + term dictionary + footer; opens via `mmap`.
    V3,
}

/// Per-section byte breakdown of an index file (`gks doctor`).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SectionSizes {
    /// On-disk version number.
    pub version: u32,
    /// Total file bytes.
    pub total: u64,
    /// Magic + version + options.
    pub header: u64,
    /// Document-name section bytes.
    pub doc_names: u64,
    /// Label-name section bytes.
    pub labels: u64,
    /// Node-table bytes (one depth and metadata row per node).
    pub node_table: u64,
    /// Attribute-store bytes.
    pub attr_store: u64,
    /// Stats section bytes.
    pub stats: u64,
    /// Term-dictionary bytes (records + offset table).
    pub term_dict: u64,
    /// Posting bytes (blocked runs).
    pub postings: u64,
    /// Footer bytes.
    pub footer: u64,
}

/// The file's checksum over a sequence of byte slices, eight bytes a step:
/// each little-endian word (a part's short tail zero-padded) is xored into
/// the state, which is then rotated and multiplied by an odd constant, and
/// the total length goes in last. Each step is a bijection of the state, so
/// any one changed word changes the sum. Defined here rather than borrowed
/// from a hasher, so a persisted sum never moves with a hash-table tweak.
fn checksum(parts: &[&[u8]]) -> u64 {
    fn step(state: u64, word: u64) -> u64 {
        (state ^ word).rotate_left(29).wrapping_mul(0x9e37_79b9_7f4a_7c15)
    }
    let mut state: u64 = 0xcbf2_9ce4_8422_2325;
    let mut len = 0u64;
    for part in parts {
        let mut words = part.chunks_exact(8);
        for word in &mut words {
            state = step(state, u64::from_le_bytes(word.try_into().unwrap_or_default()));
        }
        let tail = words.remainder();
        if !tail.is_empty() {
            let mut word = [0u8; 8];
            word[..tail.len()].copy_from_slice(tail);
            state = step(state, u64::from_le_bytes(word));
        }
        len += part.len() as u64;
    }
    step(state, len)
}

fn write_str(out: &mut BytesMut, s: &str) {
    write_varint(out, s.len() as u64);
    out.put_slice(s.as_bytes());
}

/// Borrows a length-prefixed string straight from the input.
fn read_str<'a>(input: &mut &'a [u8]) -> Result<&'a str, IndexError> {
    let len = read_varint(input)? as usize;
    if input.len() < len {
        return Err(IndexError::Corrupt("truncated string".into()));
    }
    let (head, rest) = input.split_at(len);
    let s = std::str::from_utf8(head)
        .map_err(|_| IndexError::Corrupt("invalid UTF-8 in string".into()))?;
    *input = rest;
    Ok(s)
}

fn write_census(out: &mut BytesMut, c: &CategoryCensus) {
    write_varint(out, c.attribute);
    write_varint(out, c.repeating);
    write_varint(out, c.entity);
    write_varint(out, c.connecting);
}

fn read_census(input: &mut impl Buf) -> Result<CategoryCensus, IndexError> {
    Ok(CategoryCensus {
        attribute: read_varint(input)?,
        repeating: read_varint(input)?,
        entity: read_varint(input)?,
        connecting: read_varint(input)?,
    })
}

/// Reads the magic and version prefix.
fn sniff_version(bytes: &[u8]) -> Result<u32, IndexError> {
    if bytes.len() < MAGIC.len() + 4 {
        return Err(IndexError::Corrupt("header too short".into()));
    }
    if &bytes[..MAGIC.len()] != MAGIC {
        return Err(IndexError::Corrupt("bad magic".into()));
    }
    let mut v = [0u8; 4];
    v.copy_from_slice(&bytes[MAGIC.len()..MAGIC.len() + 4]);
    Ok(u32::from_be_bytes(v))
}

// ----- section codecs -----

fn write_options(out: &mut BytesMut, o: &IndexOptions) {
    out.put_u8(u8::from(o.analyzer.remove_stopwords));
    out.put_u8(u8::from(o.analyzer.stem));
}

fn read_options(input: &mut &[u8]) -> Result<IndexOptions, IndexError> {
    if input.len() < 2 {
        return Err(IndexError::Corrupt("truncated options".into()));
    }
    let remove_stopwords = input.get_u8() != 0;
    let stem = input.get_u8() != 0;
    Ok(IndexOptions { analyzer: AnalyzerOptions { remove_stopwords, stem } })
}

/// Document section: `count · (name · XML byte length)*`. The lengths are
/// the one record of how much XML each document was, so a shard merged from
/// others states its `raw_bytes` exactly.
fn write_doc_names(out: &mut BytesMut, ix: &GksIndex) {
    write_varint(out, ix.doc_names().len() as u64);
    for (name, &bytes) in ix.doc_names().iter().zip(ix.doc_bytes()) {
        write_str(out, name);
        write_varint(out, bytes);
    }
}

pub(crate) fn read_doc_names(input: &mut &[u8]) -> Result<(Vec<String>, Vec<u64>), IndexError> {
    let doc_count = read_varint(input)? as usize;
    let mut doc_names = Vec::with_capacity(doc_count.min(1 << 16));
    let mut doc_bytes = Vec::with_capacity(doc_count.min(1 << 16));
    for _ in 0..doc_count {
        doc_names.push(read_str(input)?.to_string());
        doc_bytes.push(read_varint(input)?);
    }
    Ok((doc_names, doc_bytes))
}

fn write_labels(out: &mut BytesMut, ix: &GksIndex) {
    let labels = ix.node_table().labels().names();
    write_varint(out, labels.len() as u64);
    for name in labels {
        write_str(out, name);
    }
}

/// Node-table section: `count · (depth · child count · flags · label id)*`,
/// the rows in pre-order. The depths are the trees' shape, from which
/// [`NodeTable::link`] numbers the rows again at open.
fn write_node_table(out: &mut BytesMut, ix: &GksIndex) {
    let table = ix.node_table();
    write_node_rows(out, table.len(), table.iter().map(|(id, meta)| (id.depth() as u32, meta)));
}

/// The node-table section over `count` rows given as `(depth, meta)`.
fn write_node_rows<'a>(
    out: &mut BytesMut,
    count: usize,
    rows: impl Iterator<Item = (u32, &'a NodeMeta)>,
) {
    write_varint(out, count as u64);
    for (depth, meta) in rows {
        write_varint(out, u64::from(depth));
        write_varint(out, u64::from(meta.child_count));
        out.put_u8(meta.flags.bits());
        write_varint(out, u64::from(meta.label));
    }
}

/// Reads the label section into a fresh `NodeTable` (the node rows follow in
/// [`read_nodes`]).
pub(crate) fn read_labels(input: &mut &[u8]) -> Result<NodeTable, IndexError> {
    let label_count = read_varint(input)? as usize;
    let mut node_table = NodeTable::new();
    for _ in 0..label_count {
        node_table.labels_mut().intern(read_str(input)?);
    }
    Ok(node_table)
}

/// Reads the node rows into `table`'s columns and links them, which
/// numbers the rows and refuses a shape that is not a pre-order forest of
/// `doc_count` trees (see [`NodeTable::link`]).
fn read_nodes(
    input: &mut &[u8],
    table: &mut NodeTable,
    doc_count: usize,
) -> Result<(), IndexError> {
    let label_count = table.labels().len();
    let count = read_varint(input)? as usize;
    // A row takes at least four bytes, which bounds a hostile count.
    table.reserve(count.min(input.len() / 4));
    for _ in 0..count {
        let (depth, meta) = read_row(input, label_count)?;
        table.push_row(depth, meta)?;
    }
    table.link(doc_count)
}

/// One node row, its depth and metadata, the label checked against
/// `label_count`. A depth past `u32` saturates, for `link` to refuse.
pub(crate) fn read_row(
    input: &mut &[u8],
    label_count: usize,
) -> Result<(u32, NodeMeta), IndexError> {
    let depth = u32::try_from(read_varint(input)?).unwrap_or(u32::MAX);
    let child_count = read_varint(input)? as u32;
    if !input.has_remaining() {
        return Err(IndexError::Corrupt("truncated node meta".into()));
    }
    let flags = NodeFlags::from_bits(input.get_u8());
    let label = read_varint(input)? as u32;
    if label as usize >= label_count {
        return Err(IndexError::Corrupt(format!("label id {label} out of range")));
    }
    Ok((depth, NodeMeta { child_count, flags, label }))
}

/// Attribute section: the three interned tables, then the entities with
/// their entries inline.
///
/// ```text
/// paths:    count · (len · label id*)*
/// norms:    count · str*
/// values:   count · (str · norm id)*
/// entities: count · (row · entity label id · count · (tag · value id)*)*
///           where tag = path id << 1 | (1 if repeating text)
/// ```
///
/// Slab ranges are not stored: the reader lays the runs out in file order
/// from the per-entity counts, so no range can point outside the slab.
fn write_attrs(out: &mut BytesMut, ix: &GksIndex) {
    let store = ix.attr_store();
    write_varint(out, store.paths().len() as u64);
    for path in store.paths() {
        write_varint(out, path.len() as u64);
        for &l in path {
            write_varint(out, u64::from(l));
        }
    }
    write_varint(out, store.norms().len() as u64);
    for norm in store.norms() {
        write_str(out, norm);
    }
    write_varint(out, store.values().len() as u64);
    for (raw, norm) in store.values() {
        write_str(out, raw);
        write_varint(out, u64::from(norm));
    }
    // Recording order, not hash-map order: the bytes are a function of the
    // corpus and the build (CI `cmp`s two builds).
    write_varint(out, store.len() as u64);
    for (row, entries) in store.iter() {
        write_varint(out, u64::from(row));
        write_varint(out, u64::from(entries.label()));
        write_varint(out, entries.len() as u64);
        for e in entries.ids() {
            let repeating = u64::from(e.source == AttrSource::RepeatingText);
            write_varint(out, u64::from(e.path) << 1 | repeating);
            write_varint(out, u64::from(e.value));
        }
    }
}

/// Reads the attribute section. Every id is range-checked here — entity
/// rows against `table`'s rows, label ids against its labels, path, value
/// and norm ids against their tables — so a hostile file ends in
/// [`IndexError::Corrupt`] at open and later lookups cannot miss.
fn read_attrs(input: &mut &[u8], table: &NodeTable) -> Result<AttrStore, IndexError> {
    let label_count = table.labels().len();
    let mut attrs = read_attr_tables(input, label_count)?;
    let count = read_varint(input)? as usize;
    // An entity takes at least four bytes, which bounds a hostile count.
    attrs.reserve_entities(count.min(input.len() / 4));
    read_entities(input, count, label_count, table.len(), |row, label, entries| {
        attrs.load_entity(row, label, entries)
    })?;
    Ok(attrs)
}

/// An attribute label id, checked against `label_count`.
fn check_label(label: u64, label_count: usize) -> Result<u32, IndexError> {
    if label < label_count as u64 {
        Ok(label as u32)
    } else {
        Err(IndexError::Corrupt(format!("attr label id {label} out of range")))
    }
}

/// The attribute section's three interned tables, into a store with no
/// entity recorded yet.
pub(crate) fn read_attr_tables(
    input: &mut &[u8],
    label_count: usize,
) -> Result<AttrStore, IndexError> {
    let check_label = |label: u64| check_label(label, label_count);
    let mut attrs = AttrStore::new();
    let path_count = read_varint(input)? as usize;
    for _ in 0..path_count {
        let len = read_varint(input)? as usize;
        let mut path = Vec::with_capacity(len.min(1 << 8));
        for _ in 0..len {
            path.push(check_label(read_varint(input)?)?);
        }
        attrs.load_path(path);
    }
    let norm_count = read_varint(input)? as usize;
    for _ in 0..norm_count {
        attrs.load_norm(read_str(input)?);
    }
    let value_count = read_varint(input)? as usize;
    for _ in 0..value_count {
        let raw = read_str(input)?;
        attrs.load_value(raw, read_varint(input)?)?;
    }
    Ok(attrs)
}

/// The `count` entities that follow the attribute tables and their count:
/// each one's row, label and entries handed to `visit` in recording order.
/// A row is checked against `row_count` and a label against `label_count`;
/// path and value ids are the visitor's to check, and out-of-range ones
/// saturate.
pub(crate) fn read_entities(
    input: &mut &[u8],
    count: usize,
    label_count: usize,
    row_count: usize,
    mut visit: impl FnMut(u32, u32, &[AttrIds]) -> Result<(), IndexError>,
) -> Result<(), IndexError> {
    let mut entries: Vec<AttrIds> = Vec::new();
    for _ in 0..count {
        let row = read_varint(input)?;
        if row >= row_count as u64 {
            return Err(IndexError::Corrupt(format!(
                "attr entity row {row} is past the {row_count} node rows"
            )));
        }
        let label = check_label(read_varint(input)?, label_count)?;
        let entry_count = read_varint(input)? as usize;
        entries.clear();
        for _ in 0..entry_count {
            let tag = read_varint(input)?;
            let value = read_varint(input)?;
            // Out-of-range ids saturate and are rejected by `load_entity`.
            entries.push(AttrIds {
                path: u32::try_from(tag >> 1).unwrap_or(u32::MAX),
                value: u32::try_from(value).unwrap_or(u32::MAX),
                source: if tag & 1 == 1 {
                    AttrSource::RepeatingText
                } else {
                    AttrSource::Attribute
                },
            });
        }
        visit(row as u32, label, &entries)?;
    }
    Ok(())
}

/// Everything in [`IndexStats`] but `build_millis`, which would make the
/// bytes a function of the clock (CI `cmp`s two builds), and `raw_bytes`,
/// which the reader sums from the document section.
fn write_stats(out: &mut BytesMut, ix: &GksIndex) {
    let s = ix.stats();
    write_varint(out, s.doc_count);
    write_varint(out, s.total_nodes);
    write_census(out, &s.census);
    // Sorted, not hash-map order (which depends on insertion history): an
    // index reopened from these bytes writes the same bytes again.
    let mut per_label: Vec<_> = s.per_label.iter().collect();
    per_label.sort_unstable_by_key(|(label, _)| label.as_str());
    write_varint(out, per_label.len() as u64);
    for (label, census) in per_label {
        write_str(out, label);
        write_census(out, census);
    }
    write_varint(out, u64::from(s.max_depth));
    write_varint(out, s.distinct_terms);
    write_varint(out, s.total_postings);
    write_varint(out, s.posting_depth_sum);
}

pub(crate) fn read_stats(input: &mut &[u8]) -> Result<IndexStats, IndexError> {
    let mut stats = IndexStats {
        doc_count: read_varint(input)?,
        total_nodes: read_varint(input)?,
        census: read_census(input)?,
        ..Default::default()
    };
    let per_label_count = read_varint(input)? as usize;
    for _ in 0..per_label_count {
        let label = read_str(input)?.to_string();
        let census = read_census(input)?;
        stats.per_label.insert(label, census);
    }
    stats.max_depth = read_varint(input)? as u32;
    stats.distinct_terms = read_varint(input)?;
    stats.total_postings = read_varint(input)?;
    stats.posting_depth_sum = read_varint(input)?;
    Ok(stats)
}

/// The validated frame of an index file: everything [`GksIndex::from_mapped`],
/// the merge's source reader and [`section_sizes`] need before they read a
/// section.
pub(crate) struct Frame {
    pub(crate) options: IndexOptions,
    /// Magic + version + options; the first section starts here.
    header_len: usize,
    /// Section starts in file order — doc names, labels, node table,
    /// attribute store, stats, term dictionary, term offset table, postings
    /// — non-decreasing, the first at `header_len`, the last at most
    /// `footer_off`.
    pub(crate) offsets: [u64; 8],
    pub(crate) term_count: u64,
    /// End of the postings region, start of the footer.
    pub(crate) footer_off: usize,
}

/// Parses and validates header and footer: magic, version, tail magic,
/// recorded file length, the header/footer checksum, section-offset order
/// and the eager sections' checksum. The one place a footer is trusted, so
/// no caller subtracts offsets it has not checked, and the one place the
/// eager sections are checksummed, so an open, a merge source and
/// [`section_sizes`] all refuse a flipped byte in them.
pub(crate) fn read_frame(bytes: &[u8]) -> Result<Frame, IndexError> {
    let version = sniff_version(bytes)?;
    if version != VERSION {
        return Err(IndexError::VersionMismatch { found: version, expected: VERSION });
    }
    let mut header_cur = &bytes[MAGIC.len() + 4..];
    let before = header_cur.len();
    let options = read_options(&mut header_cur)?;
    let header_len = MAGIC.len() + 4 + (before - header_cur.len());

    if bytes.len() < header_len + FOOTER_LEN {
        return Err(IndexError::Corrupt("file too short for footer".into()));
    }
    let footer_off = bytes.len() - FOOTER_LEN;
    let footer = &bytes[footer_off..];
    if &footer[FOOTER_LEN - TAIL_MAGIC.len()..] != TAIL_MAGIC {
        return Err(IndexError::Corrupt("bad footer magic".into()));
    }
    let mut fcur = footer;
    let mut offsets = [0u64; 8];
    for f in &mut offsets {
        *f = fcur.get_u64();
    }
    let (term_count, file_len) = (fcur.get_u64(), fcur.get_u64());
    let (eager_sum, frame_sum) = (fcur.get_u64(), fcur.get_u64());
    if file_len != bytes.len() as u64 {
        return Err(IndexError::Corrupt(format!(
            "file length mismatch: footer says {file_len}, file is {}",
            bytes.len()
        )));
    }
    let framed = checksum(&[&bytes[..header_len], &footer[..FOOTER_LEN - TAIL_MAGIC.len() - 8]]);
    if framed != frame_sum {
        return Err(IndexError::Corrupt("header/footer checksum mismatch".into()));
    }
    if offsets[0] != header_len as u64
        || offsets.windows(2).any(|w| w[0] > w[1])
        || offsets[7] > footer_off as u64
    {
        return Err(IndexError::Corrupt("section offsets out of order".into()));
    }
    if checksum(&[&bytes[header_len..offsets[5] as usize]]) != eager_sum {
        return Err(IndexError::Corrupt("eager section checksum mismatch".into()));
    }
    Ok(Frame { options, header_len, offsets, term_count, footer_off })
}

impl GksIndex {
    /// Serializes the index: eager sections, then the posting tier (sorted
    /// term dictionary, its offset table, the blocked postings region)
    /// copied verbatim from the store, and the checksummed footer. (The
    /// `_v3` suffix is the name the frozen `perf/` benchmark calls, and the
    /// `Result` the type it unwraps; nothing here fails.)
    pub fn to_bytes_v3(&self) -> Result<Bytes, IndexError> {
        Ok(self.serialize(write_node_table))
    }

    /// The file bytes, with the node-table section written by `nodes`.
    fn serialize(&self, nodes: impl FnOnce(&mut BytesMut, &GksIndex)) -> Bytes {
        let mut out = BytesMut::new();
        out.put_slice(MAGIC);
        out.put_u32(VERSION);
        write_options(&mut out, self.options());
        let header_len = out.len();

        let doc_off = out.len() as u64;
        write_doc_names(&mut out, self);
        let lab_off = out.len() as u64;
        write_labels(&mut out, self);
        let node_off = out.len() as u64;
        nodes(&mut out, self);
        let attr_off = out.len() as u64;
        write_attrs(&mut out, self);
        let stat_off = out.len() as u64;
        write_stats(&mut out, self);
        let eager_sum = checksum(&[&out.as_ref()[header_len..]]);

        let (tier, offs, post) = self.inverted().tier_bytes();
        let dict_off = out.len() as u64;
        out.put_slice(tier);
        let (offs_off, post_off) = (dict_off + offs as u64, dict_off + post as u64);

        // Footer: offsets + term count + file length + the eager sections'
        // checksum, checksummed together with the header, so a truncated or
        // resected file or a flipped eager byte fails at open — without
        // ever checksumming (= reading) the posting blocks.
        let mut footer = BytesMut::new();
        for v in [doc_off, lab_off, node_off, attr_off, stat_off, dict_off, offs_off, post_off] {
            footer.put_u64(v);
        }
        footer.put_u64(self.inverted().term_count() as u64);
        footer.put_u64(out.len() as u64 + FOOTER_LEN as u64);
        footer.put_u64(eager_sum);
        footer.put_u64(checksum(&[&out.as_ref()[..header_len], footer.as_ref()]));
        footer.put_slice(TAIL_MAGIC);
        out.put_slice(footer.as_ref());
        out.freeze()
    }

    /// Opens an index over a mapped file: validates the header, both
    /// checksums, section offsets and term dictionary, decodes the eager
    /// sections, and leaves every posting run encoded in the map.
    pub fn from_mapped(map: Arc<Mmap>) -> Result<GksIndex, IndexError> {
        let bytes = map.as_slice();
        let Frame { options, offsets, term_count, footer_off, .. } = read_frame(bytes)?;
        let [doc_off, lab_off, node_off, attr_off, stat_off, dict_off, offs_off, post_off] =
            offsets;

        let section = |from: u64, to: u64| &bytes[from as usize..to as usize];
        let (doc_names, doc_bytes) = read_doc_names(&mut section(doc_off, lab_off))?;
        let mut node_table = read_labels(&mut section(lab_off, node_off))?;
        read_nodes(&mut section(node_off, attr_off), &mut node_table, doc_names.len())?;
        let attrs = read_attrs(&mut section(attr_off, stat_off), &node_table)?;
        let mut stats = read_stats(&mut section(stat_off, dict_off))?;
        stats.raw_bytes = doc_bytes.iter().fold(0u64, |sum, &b| sum.saturating_add(b));

        let tier = Tier {
            dict: dict_off as usize,
            offs: offs_off as usize,
            post: post_off as usize,
            end: footer_off,
        };
        let inverted = PostingStore::open(map, tier, term_count, &stats)?;
        Ok(GksIndex::from_parts(
            options, node_table, inverted, attrs, stats, doc_names, doc_bytes,
        ))
    }

    /// Writes the index to a file. Survives only because the frozen `perf/`
    /// benchmark calls it, until the next `[benchmark]` PR can drop the call.
    pub fn save_as(&self, path: impl AsRef<Path>, _format: IndexFormat) -> Result<u64, IndexError> {
        self.save(path)
    }

    /// Writes the index to a file, returning the number of bytes written
    /// (the "Index Size" of Table 4). The write is atomic — bytes land in a
    /// sibling temp file renamed into place — so a concurrent reader (the
    /// server's per-shard reload, the delta commit protocol) never observes
    /// a torn index file.
    pub fn save(&self, path: impl AsRef<Path>) -> Result<u64, IndexError> {
        let path = path.as_ref();
        let bytes = self.to_bytes_v3()?;
        let tmp = crate::shard::sibling_tmp_path(path);
        fs::write(&tmp, &bytes)?;
        if let Err(e) = fs::rename(&tmp, path) {
            let _ = fs::remove_file(&tmp);
            return Err(IndexError::Io(e));
        }
        Ok(bytes.len() as u64)
    }

    /// Loads an index written by [`Self::save`].
    ///
    /// The file is mapped, never slurped, and stays mapped for the index's
    /// lifetime with posting blocks untouched until queried.
    pub fn load(path: impl AsRef<Path>) -> Result<GksIndex, IndexError> {
        let _open_span = gks_trace::span(gks_trace::SpanKind::IndexOpen);
        let start = Instant::now();
        let map = Mmap::open(path.as_ref()).map_err(IndexError::Io)?;
        let mut ix = GksIndex::from_mapped(Arc::new(map))?;
        ix.set_open_millis(start.elapsed().as_millis() as u64);
        Ok(ix)
    }
}

/// `ix`'s file bytes with its node rows replaced by `depths` and `metas`: a
/// hand-built node section, framed and checksummed as a real one is.
#[cfg(test)]
pub(crate) fn with_node_rows(ix: &GksIndex, depths: &[u32], metas: &[NodeMeta]) -> Vec<u8> {
    ix.serialize(|out, _| write_node_rows(out, depths.len(), depths.iter().copied().zip(metas)))
        .to_vec()
}

/// Measures the per-section byte breakdown of an index file from its
/// validated footer, without materializing any section.
pub fn section_sizes(path: impl AsRef<Path>) -> Result<SectionSizes, IndexError> {
    let map = Mmap::open(path.as_ref()).map_err(IndexError::Io)?;
    let Frame { header_len, offsets, footer_off, .. } = read_frame(map.as_slice())?;
    let [doc, lab, node, attr, stat, dict, _offs, post] = offsets;
    Ok(SectionSizes {
        version: VERSION,
        total: map.len() as u64,
        header: header_len as u64,
        doc_names: lab - doc,
        labels: node - lab,
        node_table: attr - node,
        attr_store: stat - attr,
        stats: dict - stat,
        term_dict: post - dict,
        postings: footer_off as u64 - post,
        footer: FOOTER_LEN as u64,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::resolved_attrs;
    use crate::corpus::Corpus;
    use crate::doctor::Violation;
    use gks_dewey::DeweyId;

    const XML: &str = r#"<dblp>
        <article><title>System R</title><author>Jim Gray</author><author>Kapali Eswaran</author></article>
        <article><title>INGRES</title><author>Michael Stonebraker</author></article>
    </dblp>"#;

    fn sample_index() -> GksIndex {
        let corpus = Corpus::from_named_strs([("dblp", XML)]).unwrap();
        GksIndex::build(&corpus, IndexOptions::default()).unwrap()
    }

    /// Rewrites both footer checksums of `bytes` to match what it holds, so
    /// an edit inside a section reaches that section's reader.
    fn reseal(bytes: &mut [u8]) {
        let footer_off = bytes.len() - FOOTER_LEN;
        let field = |at: usize| {
            u64::from_be_bytes(bytes[footer_off + at..footer_off + at + 8].try_into().unwrap())
        };
        let (header_len, dict_off) = (field(0) as usize, field(5 * 8) as usize);
        let eager = checksum(&[&bytes[header_len..dict_off]]);
        bytes[footer_off + 10 * 8..footer_off + 11 * 8].copy_from_slice(&eager.to_be_bytes());
        let frame = checksum(&[&bytes[..header_len], &bytes[footer_off..footer_off + 11 * 8]]);
        bytes[footer_off + 11 * 8..footer_off + 12 * 8].copy_from_slice(&frame.to_be_bytes());
    }

    /// Opens serialized bytes through the real open path, off the heap.
    fn open_bytes(bytes: &[u8]) -> Result<GksIndex, IndexError> {
        GksIndex::from_mapped(Arc::new(Mmap::from(bytes.to_vec())))
    }

    fn assert_indexes_equal(loaded: &GksIndex, ix: &GksIndex) {
        assert_eq!(loaded.options(), ix.options());
        assert_eq!(loaded.doc_names(), ix.doc_names());
        assert_eq!(loaded.doc_bytes(), ix.doc_bytes());
        assert_eq!(loaded.stats().raw_bytes, ix.stats().raw_bytes);
        assert_eq!(loaded.stats().total_nodes, ix.stats().total_nodes);
        assert_eq!(loaded.stats().census, ix.stats().census);
        assert_eq!(loaded.stats().max_depth, ix.stats().max_depth);
        assert_eq!(loaded.stats().per_label, ix.stats().per_label);
        assert_eq!(loaded.inverted().term_count(), ix.inverted().term_count());
        for (term, list) in ix.inverted().iter() {
            assert_eq!(loaded.postings(term), list, "postings for {term}");
            assert_eq!(loaded.posting_count(term), list.len(), "count for {term}");
        }
        assert_eq!(loaded.node_table().len(), ix.node_table().len());
        for (dewey, meta) in ix.node_table().iter() {
            let other = loaded.node_table().get(dewey).unwrap();
            assert_eq!(other.child_count, meta.child_count);
            assert_eq!(other.flags, meta.flags);
            assert_eq!(
                loaded.node_table().labels().name(other.label),
                ix.node_table().labels().name(meta.label)
            );
        }
        assert_eq!(resolved_attrs(loaded), resolved_attrs(ix));
        let (a, b) = (loaded.attr_store(), ix.attr_store());
        assert_eq!(a.paths().len(), b.paths().len());
        assert_eq!(a.values().len(), b.values().len());
        assert_eq!(a.norms().len(), b.norms().len());
    }

    #[test]
    fn round_trip_preserves_everything() {
        let ix = sample_index();
        let loaded = open_bytes(&ix.to_bytes_v3().unwrap()).unwrap();
        assert_indexes_equal(&loaded, &ix);
    }

    #[test]
    fn save_load_via_filesystem() {
        let ix = sample_index();
        let dir = std::env::temp_dir().join(format!("gks-persist-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("sample.gksix");
        let written = ix.save(&path).unwrap();
        assert_eq!(written, std::fs::metadata(&path).unwrap().len());
        let loaded = GksIndex::load(&path).unwrap();
        assert_indexes_equal(&loaded, &ix);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn two_builds_of_one_corpus_serialize_identically() {
        // Whatever the clock said while each was built.
        let (a, mut b) = (sample_index(), sample_index());
        b.stats_mut().build_millis = a.stats().build_millis + 1_000;
        assert_eq!(a.to_bytes_v3().unwrap(), b.to_bytes_v3().unwrap());
        let loaded = open_bytes(&b.to_bytes_v3().unwrap()).unwrap();
        assert_eq!(loaded.stats().build_millis, 0, "build time is not persisted");
    }

    #[test]
    fn v3_open_decodes_no_posting_blocks() {
        let ix = sample_index();
        let dir = std::env::temp_dir().join(format!("gks-persist-lazy-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("lazy.gksix");
        ix.save(&path).unwrap();
        let loaded = GksIndex::load(&path).unwrap();
        // Open touches the dictionary but no posting run.
        assert_eq!(loaded.decoded_terms(), 0, "open must not decode postings");
        assert!(loaded.bytes_mapped() > 0, "a loaded index is served off the map");
        // First query decodes exactly the terms it touches.
        let mut terms = ix.inverted().iter().map(|(t, _)| t.to_string());
        let (first, second) = (terms.next().unwrap(), terms.next().unwrap());
        assert!(!loaded.postings(&first).is_empty());
        assert_eq!(loaded.decoded_terms(), 1);
        // Counts come from the dictionary without decoding.
        assert_eq!(loaded.posting_count(&second), ix.posting_count(&second));
        assert_eq!(loaded.decoded_terms(), 1, "posting_count must not decode");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn bad_magic_rejected() {
        let err = open_bytes(b"NOTIX\0\0\0\0rest").unwrap_err();
        assert!(matches!(err, IndexError::Corrupt(_)));
    }

    #[test]
    fn version_mismatch_rejected() {
        let ix = sample_index();
        let mut bytes = ix.to_bytes_v3().unwrap().to_vec();
        bytes[5..9].copy_from_slice(&99u32.to_be_bytes());
        let err = open_bytes(&bytes).unwrap_err();
        assert!(matches!(err, IndexError::VersionMismatch { found: 99, .. }));
    }

    #[test]
    fn files_of_the_previous_versions_are_refused_by_number() {
        // Versions 2 and 3 carried one string and one path per attribute
        // entry, 4 was the eager single-stream layout, 5 had one more stats
        // field, 6 stored the node ids in the older sorted-run codec, 7 had
        // three more header bytes, 8 stored names without byte lengths, 9
        // stored node and entity ids and one footer checksum; reading one as
        // the current layout would mis-parse, so the number — checked before
        // anything else — is what refuses it.
        let ix = sample_index();
        let dir = std::env::temp_dir().join(format!("gks-persist-old-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        for old in [2u32, 3, 4, 5, 6, 7, 8, 9] {
            let mut bytes = ix.to_bytes_v3().unwrap().to_vec();
            bytes[5..9].copy_from_slice(&old.to_be_bytes());
            let path = dir.join(format!("v{old}.gksix"));
            std::fs::write(&path, &bytes).unwrap();
            let err = GksIndex::load(&path).unwrap_err();
            assert!(matches!(
                err,
                IndexError::VersionMismatch { found, expected: VERSION } if found == old
            ));
            let message = err.to_string();
            assert!(message.contains(&format!("version {old}")), "{message}");
            assert!(message.contains("re-run `gks index`"), "{message}");
            assert!(matches!(
                section_sizes(&path),
                Err(IndexError::VersionMismatch { found, expected: VERSION }) if found == old
            ));
            std::fs::remove_file(&path).ok();
        }
    }

    #[test]
    fn flipped_norm_id_opens_and_the_doctor_flags_it() {
        let mut ix = sample_index();
        let store = ix.attr_store();
        let id_of = |raw: &str| store.values().position(|(v, _)| v == raw).unwrap() as u32;
        let (title, gray) = (id_of("System R"), id_of("Jim Gray"));
        let grays_norm = store.norm_of(gray);
        ix.attrs_mut().set_norm_of(title, grays_norm);
        let loaded = open_bytes(&ix.to_bytes_v3().unwrap()).unwrap();
        assert_eq!(loaded.doctor(), vec![Violation::AttrNormMismatch { value: "System R".into() }]);
    }

    #[test]
    fn out_of_range_attr_ids_are_typed_errors_at_open() {
        let corrupt = |tamper: &dyn Fn(&mut GksIndex), what: &str| {
            let mut ix = sample_index();
            tamper(&mut ix);
            match open_bytes(&ix.to_bytes_v3().unwrap()) {
                Err(IndexError::Corrupt(message)) => assert!(message.contains(what), "{message}"),
                other => panic!("{what}: expected Corrupt, got {other:?}"),
            }
        };
        corrupt(
            &|ix| {
                let past = ix.attr_store().values().len() as u32;
                ix.attrs_mut().slab_mut()[0].value = past;
            },
            "attr value id",
        );
        corrupt(
            &|ix| {
                let past = ix.attr_store().paths().len() as u32;
                ix.attrs_mut().slab_mut()[0].path = past;
            },
            "attr path id",
        );
        corrupt(
            &|ix| {
                let past = ix.attr_store().norms().len() as u32;
                ix.attrs_mut().set_norm_of(0, past);
            },
            "attr norm id",
        );
        corrupt(
            &|ix| {
                let past = ix.node_table().labels().len() as u32;
                ix.attrs_mut().load_path(vec![past]);
            },
            "attr label id",
        );
    }

    #[test]
    fn non_utf8_attr_value_is_a_typed_error_at_open() {
        let ix = sample_index();
        // The raw title occurs only in the value table (the dictionary holds
        // analysed terms); with the checksums resealed, the flipped byte
        // reaches the attribute reader.
        let mut bytes = ix.to_bytes_v3().unwrap().to_vec();
        let at = bytes.windows(8).position(|w| w == b"System R").unwrap();
        bytes[at] = 0xff;
        assert!(open_bytes(&bytes).unwrap_err().to_string().contains("checksum"));
        reseal(&mut bytes);
        match open_bytes(&bytes) {
            Err(IndexError::Corrupt(message)) => assert!(message.contains("UTF-8"), "{message}"),
            other => panic!("expected Corrupt, got {other:?}"),
        }
    }

    #[test]
    fn v3_truncation_and_checksum_rejected() {
        let ix = sample_index();
        let good = ix.to_bytes_v3().unwrap().to_vec();
        let dir = std::env::temp_dir().join(format!("gks-persist-corrupt-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();

        // Truncated file: the footer length check fires.
        let path = dir.join("trunc.gksix");
        std::fs::write(&path, &good[..good.len() / 2]).unwrap();
        assert!(GksIndex::load(&path).is_err());

        // Flipped header byte: checksum mismatch.
        let mut flipped = good.clone();
        flipped[10] ^= 0xff;
        let path2 = dir.join("flip.gksix");
        std::fs::write(&path2, &flipped).unwrap();
        let err = GksIndex::load(&path2).unwrap_err();
        assert!(matches!(err, IndexError::Corrupt(_)), "got {err:?}");

        std::fs::remove_file(&path).ok();
        std::fs::remove_file(&path2).ok();
    }

    #[test]
    fn corrupt_footer_offset_is_a_typed_error_for_open_and_section_sizes() {
        let good = sample_index().to_bytes_v3().unwrap().to_vec();
        let dir = std::env::temp_dir().join(format!("gks-persist-footer-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("footer.gksix");
        let footer_off = good.len() - FOOTER_LEN;
        let check = |bytes: &[u8], what: &str| {
            std::fs::write(&path, bytes).unwrap();
            for err in [GksIndex::load(&path).unwrap_err(), section_sizes(&path).unwrap_err()] {
                match err {
                    IndexError::Corrupt(message) => assert!(message.contains(what), "{message}"),
                    other => panic!("{what}: expected Corrupt, got {other:?}"),
                }
            }
        };

        // The label-section offset points far past the file: the checksum
        // catches it ...
        let mut bytes = good.clone();
        bytes[footer_off + 8] = 0x7f;
        check(&bytes, "checksum");

        // ... and when the checksums are recomputed to match, the order check.
        reseal(&mut bytes);
        check(&bytes, "offsets out of order");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn section_sizes_cover_the_file() {
        let ix = sample_index();
        let dir = std::env::temp_dir().join(format!("gks-persist-sizes-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("sizes.gksix");
        let written = ix.save(&path).unwrap();
        let s = section_sizes(&path).unwrap();
        assert_eq!(s.total, written);
        let sum = s.header
            + s.doc_names
            + s.labels
            + s.node_table
            + s.attr_store
            + s.stats
            + s.term_dict
            + s.postings
            + s.footer;
        assert_eq!(sum, s.total, "sections must tile the file");
        assert!(s.postings > 0 && s.term_dict > 0 && s.node_table > 0);
        std::fs::remove_file(&path).ok();
    }

    /// Re-serialising an opened index copies its posting tier: the bytes
    /// come back as written, and no run was decoded to produce them.
    #[test]
    fn an_opened_index_serializes_to_the_bytes_it_was_opened_from() {
        let bytes = sample_index().to_bytes_v3().unwrap();
        let reopened = open_bytes(&bytes).unwrap();
        assert_eq!(reopened.to_bytes_v3().unwrap(), bytes);
        assert_eq!(reopened.decoded_terms(), 0, "serializing must not decode postings");
    }

    /// A node table with ids deep enough to spill out of the inline Dewey
    /// form reopens to the rows it was built with and re-serializes to the
    /// bytes it was opened from.
    #[test]
    fn a_deep_node_table_reopens_to_the_built_rows() {
        // TreeBank-shaped: nested phrases down to depth 12, with one to
        // three children per node and a word at each leaf.
        fn phrase(xml: &mut String, depth: u32, seed: &mut u32) {
            *seed = seed.wrapping_mul(1_103_515_245).wrapping_add(12_345);
            let tag = ["S", "NP", "VP", "PP"][(*seed >> 16) as usize % 4];
            xml.push_str(&format!("<{tag}>"));
            if depth == 12 {
                xml.push_str(&format!("word{}", *seed % 97));
            } else {
                for _ in 0..1 + (*seed >> 20) % 3 {
                    phrase(xml, depth + 1, seed);
                }
            }
            xml.push_str(&format!("</{tag}>"));
        }
        let mut xml = String::from("<treebank>");
        let mut seed = 7;
        while xml.len() < 20_000 {
            phrase(&mut xml, 1, &mut seed);
        }
        xml.push_str("</treebank>");
        let corpus = Corpus::from_named_strs([("treebank", xml)]).unwrap();
        let built = GksIndex::build(&corpus, IndexOptions::default()).unwrap();
        assert!(built.stats().max_depth >= 12);

        let bytes = built.to_bytes_v3().unwrap();
        let reopened = open_bytes(&bytes).unwrap();
        let rows = |ix: &GksIndex| -> Vec<(DeweyId, NodeMeta)> {
            ix.node_table().iter().map(|(id, meta)| (id.clone(), *meta)).collect()
        };
        assert_eq!(rows(&reopened), rows(&built));
        assert_eq!(reopened.to_bytes_v3().unwrap(), bytes);
    }

    /// Two documents of the sample, so a root count can fall short.
    fn two_document_index() -> GksIndex {
        let corpus = Corpus::from_named_strs([("a", XML), ("b", XML)]).unwrap();
        GksIndex::build(&corpus, IndexOptions::default()).unwrap()
    }

    /// `ix`'s node rows as depth and metadata columns.
    fn node_rows(ix: &GksIndex) -> (Vec<u32>, Vec<NodeMeta>) {
        let table = ix.node_table();
        table.iter().map(|(id, meta)| (id.depth() as u32, *meta)).unzip()
    }

    /// Hand-built node sections whose depths are not a pre-order forest of
    /// one tree per document, and entity rows past the table, are refused
    /// at open, each with its own reason.
    #[test]
    fn a_node_section_out_of_pre_order_is_refused_at_open() {
        let ix = two_document_index();
        let refused = |edit: &dyn Fn(&mut Vec<u32>, &mut Vec<NodeMeta>), what: &str| {
            let (mut depths, mut metas) = node_rows(&ix);
            edit(&mut depths, &mut metas);
            match open_bytes(&with_node_rows(&ix, &depths, &metas)) {
                Err(IndexError::Corrupt(message)) => assert!(message.contains(what), "{message}"),
                other => panic!("{what}: expected Corrupt, got {other:?}"),
            }
        };
        let (depths, metas) = node_rows(&ix);
        assert!(
            open_bytes(&with_node_rows(&ix, &depths, &metas)).is_ok(),
            "the unedited rows open"
        );
        // <dblp> 0 · <article> 1 · <title> 2 · <author> 2 · <author> 2 ·
        // <article> 1 · <title> 2 · <author> 2, twice.
        assert_eq!(depths, [0, 1, 2, 2, 2, 1, 2, 2, 0, 1, 2, 2, 2, 1, 2, 2]);
        refused(&|depths, _| depths[0] = 1, "row 0 at depth 1 skips a level");
        refused(&|depths, _| depths[5] = 4, "row 5 at depth 4 skips a level");
        refused(&|depths, _| depths[7] = 0, "3 root row(s) for 2 document(s)");
        refused(&|depths, _| depths[8] = 1, "1 root row(s) for 2 document(s)");
        // The second document cut to its root: the rows still link, but the
        // attribute section names the second document's articles.
        refused(
            &|depths, metas| {
                depths.truncate(9);
                metas.truncate(9);
            },
            "attr entity row 9 is past the 9 node rows",
        );
    }

    /// Byte mutations across a saved index's node section, at a fixed seed:
    /// the eager checksum refuses every one at open with a typed error.
    #[test]
    fn mutated_node_sections_fail_typed_or_open_auditably() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let good = sample_index().to_bytes_v3().unwrap().to_vec();
        let Frame { offsets, .. } = read_frame(&good).unwrap();
        let (node_off, attr_off) = (offsets[2] as usize, offsets[3] as usize);
        let mut rng = StdRng::seed_from_u64(41);
        let mut refused = 0;
        for _ in 0..2_000 {
            let mut bytes = good.clone();
            for _ in 0..rng.gen_range(1..4usize) {
                let at = rng.gen_range(node_off..attr_off);
                bytes[at] = rng.gen_range(0..256u32) as u8;
            }
            if bytes == good {
                continue;
            }
            match open_bytes(&bytes) {
                Err(IndexError::Corrupt(message)) => {
                    assert!(message.contains("checksum"), "{message}");
                    refused += 1;
                }
                other => panic!("a mutated node section must be refused, got {other:?}"),
            }
        }
        assert!(refused > 1_900, "refused {refused}");
    }

    /// One byte flipped anywhere in any eager section — document names,
    /// labels, node rows, attributes, stats — at a fixed seed, is refused
    /// at open with a typed error: none opens to changed answers.
    #[test]
    fn a_flipped_byte_in_any_eager_section_is_refused_at_open() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let good = sample_index().to_bytes_v3().unwrap().to_vec();
        let Frame { offsets, .. } = read_frame(&good).unwrap();
        let mut rng = StdRng::seed_from_u64(48);
        for section in offsets[..6].windows(2) {
            let (from, to) = (section[0] as usize, section[1] as usize);
            assert!(from < to, "every eager section holds bytes");
            for _ in 0..64 {
                let mut bytes = good.clone();
                bytes[rng.gen_range(from..to)] ^= 1 << rng.gen_range(0..8u32);
                match open_bytes(&bytes) {
                    Err(IndexError::Corrupt(message)) => {
                        assert!(message.contains("eager section checksum"), "{message}")
                    }
                    other => panic!("flip in {from}..{to}: expected Corrupt, got {other:?}"),
                }
            }
        }
    }

    /// A fresh build and the same index reopened (node table, attribute
    /// store and tier all decoded from bytes) answer every posting query
    /// alike, down to the rows the search masks document 0 by.
    #[test]
    fn built_and_reopened_search_surfaces_agree() {
        let built = sample_index();
        let reopened = open_bytes(&built.to_bytes_v3().unwrap()).unwrap();
        let dead = |ix: &GksIndex| ix.node_table().doc_rows(gks_dewey::DocId(0));
        assert_eq!(dead(&built), dead(&reopened));
        assert!(!dead(&built).is_empty());
        for (term, _) in built.inverted().iter() {
            assert_eq!(
                built.try_postings(term),
                reopened.try_postings(term),
                "postings for {term}"
            );
            assert_eq!(built.posting_count(term), reopened.posting_count(term));
            let rows = |ix: &GksIndex| ix.node_table().rows_of(ix.postings(term)).unwrap();
            assert_eq!(rows(&built), rows(&reopened), "rows for {term}");
        }
    }
}
