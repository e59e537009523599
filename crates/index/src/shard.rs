//! Document-granular corpus sharding: splitting a corpus into contiguous
//! document ranges and the manifest that records the split.
//!
//! GKS answers are per-node and no corpus-global statistic enters the
//! potential-flow rank (§5), so a corpus partitioned **by document** yields
//! shards whose local answers merge losslessly: a node's score in shard `i`
//! equals its score in the monolithic index, and the only cross-shard work
//! is remapping each shard-local [`DocId`] back to its global id.
//!
//! The manifest is a line-based text file (the workspace has no JSON
//! parser). Besides the shard list, format v2 carries the state an
//! incremental update path needs:
//!
//! * an **epoch** — bumped by every committed change; the manifest file is
//!   replaced atomically (write-to-temp + rename), so the rename *is* the
//!   commit point and readers only ever observe a whole epoch;
//! * per-shard **ids** (stable across commits), a **kind** (`base` or
//!   `delta`), and the epoch the shard was **born** in;
//! * a **document table**: every live document with its content hash, mtime
//!   and owning `(shard, local id)` — the table's order *is* the global
//!   document numbering, so a gather stage can renumber shard-local hits
//!   into exactly the ids a monolithic rebuild would assign;
//! * **tombstones**: documents deleted (or superseded by a delta copy)
//!   whose postings must be masked out of their owning shard at query time;
//! * the indexing **options** and optional **corpus directory**, so a delta
//!   build five epochs later indexes new documents identically.
//!
//! A v2 manifest built from a corpus *file list* (not a directory) has an
//! empty document table, which downstream layers treat as "plain
//! base-offset doc numbering, nothing masked". The shard-list-only v1
//! format is no longer read: nothing has written it since `gks index
//! --shards` moved to v2, and [`ShardManifest::parse`] answers a v1 header
//! with a typed error that says to re-run `gks index`.

use std::fmt::Write as _;
use std::fs;
use std::io::Read as _;
use std::path::{Path, PathBuf};

use gks_dewey::DocId;

use crate::builder::GksIndex;
use crate::corpus::Corpus;
use crate::error::IndexError;
use crate::options::IndexOptions;

/// Magic first line of a current-format shard manifest file.
pub const MANIFEST_HEADER: &str = "gks-shard-manifest v2";

/// Version-agnostic prefix shared by every manifest format version — what a
/// file-type sniff should match instead of a specific header.
pub const MANIFEST_MAGIC: &str = "gks-shard-manifest v";

/// True when `path` holds a shard manifest of any format version rather
/// than a single index: its first bytes are [`MANIFEST_MAGIC`]. Reads only
/// that prefix, so sniffing a large index file costs one short read.
pub fn is_manifest_file(path: impl AsRef<Path>) -> bool {
    let mut head = [0u8; MANIFEST_MAGIC.len()];
    fs::File::open(path).and_then(|mut file| file.read_exact(&mut head)).is_ok()
        && head.as_slice() == MANIFEST_MAGIC.as_bytes()
}

/// Sentinel in a shard view's local→global table marking a dead (tombstoned)
/// local document id.
pub const DEAD_DOC: u32 = u32::MAX;

/// Whether a shard is part of the compacted base or an incremental delta.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ShardKind {
    /// A compacted base shard.
    #[default]
    Base,
    /// A small incremental shard holding new/changed documents only.
    Delta,
}

impl ShardKind {
    /// The stable manifest spelling of this kind.
    pub fn label(self) -> &'static str {
        match self {
            ShardKind::Base => "base",
            ShardKind::Delta => "delta",
        }
    }

    /// The inverse of [`ShardKind::label`].
    pub fn parse(s: &str) -> Option<ShardKind> {
        match s {
            "base" => Some(ShardKind::Base),
            "delta" => Some(ShardKind::Delta),
            _ => None,
        }
    }
}

/// One shard of a sharded index: where its self-contained `.gksix` file
/// lives and which contiguous global document range it covers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardEntry {
    /// Stable shard identifier, unique within the manifest across commits.
    pub id: u64,
    /// Base or delta.
    pub kind: ShardKind,
    /// The manifest epoch this shard was committed in.
    pub born: u64,
    /// Path to the shard's index file.
    pub path: PathBuf,
    /// Global [`DocId`] of the shard's first document; the shard itself
    /// numbers its documents from zero.
    pub doc_base: u32,
    /// Number of documents in the shard (including any later tombstoned).
    pub doc_count: u32,
    /// Raw XML bytes of the shard's slice of the corpus.
    pub raw_bytes: u64,
    /// Total nodes in the shard's index.
    pub total_nodes: u64,
    /// Distinct indexed terms in the shard's index.
    pub distinct_terms: u64,
}

/// One live document in the manifest's document table. The table's order is
/// the global document numbering.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DocEntry {
    /// Id of the shard holding the document's current copy.
    pub shard: u64,
    /// The document's id inside that shard's own numbering.
    pub local: u32,
    /// Content hash of the document's XML (see `delta::content_hash`).
    pub hash: u64,
    /// File mtime in ms at index time (0 = unknown; forces re-hash).
    pub mtime_ms: u64,
    /// Document name (file stem).
    pub name: String,
}

/// A dead document: its copy in `shard` must be masked out at query time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Tombstone {
    /// Id of the shard holding the dead copy.
    pub shard: u64,
    /// The dead copy's local document id in that shard.
    pub local: u32,
    /// Document name, for diagnostics and referential-integrity checks.
    pub name: String,
}

/// The record of one corpus split across N self-contained shard indexes,
/// plus the incremental-update state described in the [module docs](self).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ShardManifest {
    /// Commit counter; bumped by every delta commit and compaction.
    pub epoch: u64,
    /// Wall-clock ms of the last commit (0 = unknown) — the numerator of
    /// the `gks_index_freshness_seconds` metric.
    pub committed_ms: u64,
    /// The corpus directory deltas are scanned from, when known. Relative
    /// paths are resolved against the manifest's directory on load.
    pub corpus_dir: Option<PathBuf>,
    /// Indexing options every shard (and every future delta) is built with.
    pub options: IndexOptions,
    /// The shards, in global document order (ascending `doc_base`).
    pub shards: Vec<ShardEntry>,
    /// The live-document table, in global document order. Empty for
    /// manifests built from a corpus file list (downstream layers then use
    /// plain base-offset numbering).
    pub docs: Vec<DocEntry>,
    /// Dead document copies to mask at query time.
    pub tombstones: Vec<Tombstone>,
}

/// Per-shard query-time view derived from the manifest: which local
/// documents are dead, and how live locals renumber into global ids.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardView {
    /// The shard's stable id.
    pub id: u64,
    /// The shard's global document base (full-count tiling).
    pub doc_base: u32,
    /// Sorted local document ids that are tombstoned.
    pub tombstones: Vec<u32>,
    /// `table[local] = global` for live locals, [`DEAD_DOC`] for dead ones;
    /// `None` when the manifest has no document table: numbering is then
    /// the plain `doc_base` offset and nothing is masked.
    pub doc_map: Option<Vec<u32>>,
}

impl ShardManifest {
    /// Builds a manifest entry for `index` persisted at `path`, covering
    /// the global document range starting at `doc_base`. The caller assigns
    /// `id`/`kind`/`born` (they default to `0`/base/`0`).
    pub fn entry_for(index: &GksIndex, path: impl Into<PathBuf>, doc_base: u32) -> ShardEntry {
        let stats = index.stats();
        ShardEntry {
            id: 0,
            kind: ShardKind::Base,
            born: 0,
            path: path.into(),
            doc_base,
            doc_count: u32::try_from(stats.doc_count).unwrap_or(u32::MAX),
            raw_bytes: stats.raw_bytes,
            total_nodes: stats.total_nodes,
            distinct_terms: stats.distinct_terms,
        }
    }

    /// The smallest shard id not yet used by any entry.
    pub fn next_shard_id(&self) -> u64 {
        self.shards.iter().map(|s| s.id.saturating_add(1)).max().unwrap_or(0)
    }

    /// The entry with shard id `id`, if present.
    pub fn shard_by_id(&self, id: u64) -> Option<&ShardEntry> {
        self.shards.iter().find(|s| s.id == id)
    }

    /// Number of delta shards currently carried by the manifest.
    pub fn delta_shard_count(&self) -> usize {
        self.shards.iter().filter(|s| s.kind == ShardKind::Delta).count()
    }

    /// Documents living in delta shards (the compactor's backlog).
    pub fn delta_doc_count(&self) -> u64 {
        let delta_ids: Vec<u64> = self
            .shards
            .iter()
            .filter(|s| s.kind == ShardKind::Delta)
            .map(|s| s.id)
            .collect();
        self.docs.iter().filter(|d| delta_ids.contains(&d.shard)).count() as u64
    }

    /// Renders the manifest in its line-based v2 text format.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "{MANIFEST_HEADER}");
        let _ = writeln!(out, "epoch {}", self.epoch);
        let _ = writeln!(out, "committed-ms {}", self.committed_ms);
        let a = &self.options.analyzer;
        let _ = writeln!(
            out,
            "options remove_stopwords={} stem={} min_term_len={} attrs_as_elements={} \
             element_names={}",
            u8::from(a.remove_stopwords),
            u8::from(a.stem),
            a.min_term_len,
            u8::from(self.options.xml_attributes_as_elements),
            u8::from(self.options.index_element_names),
        );
        if let Some(dir) = &self.corpus_dir {
            let _ = writeln!(out, "corpus {}", dir.display());
        }
        let _ = writeln!(out, "shards {}", self.shards.len());
        for s in &self.shards {
            let _ = writeln!(
                out,
                "shard {}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}",
                s.id,
                s.kind.label(),
                s.born,
                s.doc_base,
                s.doc_count,
                s.raw_bytes,
                s.total_nodes,
                s.distinct_terms,
                s.path.display()
            );
        }
        let _ = writeln!(out, "docs {}", self.docs.len());
        for d in &self.docs {
            let _ = writeln!(
                out,
                "doc {}\t{}\t{}\t{}\t{}",
                d.shard, d.local, d.hash, d.mtime_ms, d.name
            );
        }
        let _ = writeln!(out, "tombstones {}", self.tombstones.len());
        for t in &self.tombstones {
            let _ = writeln!(out, "tombstone {}\t{}\t{}", t.shard, t.local, t.name);
        }
        out
    }

    /// Parses a manifest from its text format. The inverse of
    /// [`ShardManifest::render`]; shard paths are kept verbatim (see
    /// [`ShardManifest::load`] for relative-path resolution). Any other
    /// manifest version (the retired v1 included) is a typed error naming
    /// the version found and the fix.
    pub fn parse(text: &str) -> Result<ShardManifest, IndexError> {
        let mut lines = text.lines().filter(|l| !l.trim().is_empty());
        let header = lines.next().unwrap_or("").trim();
        if header != MANIFEST_HEADER {
            return Err(IndexError::Corrupt(match header.strip_prefix(MANIFEST_MAGIC) {
                Some(version) => format!(
                    "shard manifest format v{version} is not supported (this build reads \
                     {MANIFEST_HEADER:?}); re-run `gks index --shards N` to rebuild it"
                ),
                None => {
                    format!("not a shard manifest (expected {MANIFEST_HEADER:?}, found {header:?})")
                }
            }));
        }
        let manifest = parse_v2(lines)?;
        validate_shard_list(&manifest.shards)?;
        Ok(manifest)
    }

    /// Writes the manifest to `path` **atomically**: the text is written to
    /// a sibling temp file and renamed into place, so a reader (or a crash)
    /// sees either the old manifest or the new one, never a torn write.
    /// The rename is the delta-commit protocol's commit point.
    pub fn save(&self, path: impl AsRef<Path>) -> Result<(), IndexError> {
        let path = path.as_ref();
        let tmp = sibling_tmp_path(path);
        fs::write(&tmp, self.render())?;
        if let Err(e) = fs::rename(&tmp, path) {
            let _ = fs::remove_file(&tmp);
            return Err(IndexError::Io(e));
        }
        Ok(())
    }

    /// Reads and parses a manifest from `path`, resolving relative shard
    /// (and corpus-directory) paths against the manifest's own directory.
    pub fn load(path: impl AsRef<Path>) -> Result<ShardManifest, IndexError> {
        let path = path.as_ref();
        let text = fs::read_to_string(path)?;
        let mut manifest = ShardManifest::parse(&text)?;
        if let Some(dir) = path.parent() {
            manifest.resolve_paths(dir);
        }
        Ok(manifest)
    }

    /// Resolves relative shard and corpus-directory paths against `dir`.
    pub fn resolve_paths(&mut self, dir: &Path) {
        for shard in &mut self.shards {
            if shard.path.is_relative() {
                shard.path = dir.join(&shard.path);
            }
        }
        if let Some(corpus) = &self.corpus_dir {
            if corpus.is_relative() {
                self.corpus_dir = Some(dir.join(corpus));
            }
        }
    }

    /// Total documents across all shards (including tombstoned copies).
    pub fn doc_count(&self) -> u64 {
        self.shards.iter().map(|s| u64::from(s.doc_count)).sum()
    }

    /// Live documents: the document table's length when present, otherwise
    /// every document (nothing can be tombstoned without a table).
    pub fn live_doc_count(&self) -> u64 {
        if self.docs.is_empty() && self.tombstones.is_empty() {
            self.doc_count()
        } else {
            self.docs.len() as u64
        }
    }

    /// The global [`DocId`] bases of the shards, in shard order — the
    /// offsets a gather stage adds to shard-local document ids.
    pub fn doc_bases(&self) -> Vec<DocId> {
        self.shards.iter().map(|s| DocId(s.doc_base)).collect()
    }

    /// The query-time view of each shard (in shard order): tombstoned local
    /// ids and the local→global renumbering table. See [`ShardView`].
    pub fn shard_views(&self) -> Vec<ShardView> {
        let has_table = !self.docs.is_empty();
        self.shards
            .iter()
            .map(|entry| {
                let mut tombstones: Vec<u32> = self
                    .tombstones
                    .iter()
                    .filter(|t| t.shard == entry.id)
                    .map(|t| t.local)
                    .collect();
                let doc_map = if has_table {
                    let mut table = vec![DEAD_DOC; entry.doc_count as usize];
                    for (global, doc) in self.docs.iter().enumerate() {
                        if doc.shard == entry.id {
                            if let Some(slot) = table.get_mut(doc.local as usize) {
                                *slot = u32::try_from(global).unwrap_or(DEAD_DOC);
                            }
                        }
                    }
                    // Locals absent from the table are dead even without an
                    // explicit tombstone line.
                    for (local, slot) in table.iter().enumerate() {
                        if *slot == DEAD_DOC {
                            tombstones.push(u32::try_from(local).unwrap_or(DEAD_DOC));
                        }
                    }
                    Some(table)
                } else {
                    None
                };
                tombstones.sort_unstable();
                tombstones.dedup();
                ShardView { id: entry.id, doc_base: entry.doc_base, tombstones, doc_map }
            })
            .collect()
    }
}

/// `"<name>.tmp"` next to `path` — same filesystem, so the rename in
/// [`ShardManifest::save`] is atomic.
pub(crate) fn sibling_tmp_path(path: &Path) -> PathBuf {
    let mut name = path.file_name().map(|n| n.to_os_string()).unwrap_or_default();
    name.push(".tmp");
    path.with_file_name(name)
}

/// Duplicate-id and range validation of a parsed shard list — the typed
/// errors name the offending entries.
fn validate_shard_list(shards: &[ShardEntry]) -> Result<(), IndexError> {
    if shards.is_empty() {
        return Err(IndexError::Corrupt("shard manifest lists no shards".into()));
    }
    for (i, s) in shards.iter().enumerate() {
        if let Some(first) = shards[..i].iter().find(|p| p.id == s.id) {
            return Err(IndexError::DuplicateShardId {
                id: s.id,
                first: first.path.display().to_string(),
                second: s.path.display().to_string(),
            });
        }
    }
    let mut expected_base = 0u32;
    for s in shards {
        if s.doc_base != expected_base {
            return Err(IndexError::ShardRange {
                shard: s.path.display().to_string(),
                expected_base,
                found_base: s.doc_base,
            });
        }
        if s.doc_count == 0 {
            return Err(IndexError::Corrupt(format!(
                "shard {} covers no documents",
                s.path.display()
            )));
        }
        expected_base = expected_base.saturating_add(s.doc_count);
    }
    Ok(())
}

fn parse_count(line: &str, prefix: &str) -> Result<usize, IndexError> {
    line.strip_prefix(prefix)
        .and_then(|n| n.trim().parse().ok())
        .ok_or_else(|| IndexError::Corrupt(format!("bad count line: {line:?}")))
}

fn parse_num(field: &str, line: &str) -> Result<u64, IndexError> {
    field
        .trim()
        .parse()
        .map_err(|_| IndexError::Corrupt(format!("bad number {field:?} in {line:?}")))
}

fn parse_v2<'a>(lines: impl Iterator<Item = &'a str>) -> Result<ShardManifest, IndexError> {
    let mut manifest = ShardManifest::default();
    let mut declared_shards: Option<usize> = None;
    let mut declared_docs: Option<usize> = None;
    let mut declared_tombstones: Option<usize> = None;
    for line in lines {
        if let Some(rest) = line.strip_prefix("epoch ") {
            manifest.epoch = parse_num(rest, line)?;
        } else if let Some(rest) = line.strip_prefix("committed-ms ") {
            manifest.committed_ms = parse_num(rest, line)?;
        } else if let Some(rest) = line.strip_prefix("options ") {
            parse_options(rest, &mut manifest.options);
        } else if let Some(rest) = line.strip_prefix("corpus ") {
            manifest.corpus_dir = Some(PathBuf::from(rest.trim()));
        } else if line.starts_with("shards ") {
            declared_shards = Some(parse_count(line, "shards ")?);
        } else if line.starts_with("docs ") {
            declared_docs = Some(parse_count(line, "docs ")?);
        } else if line.starts_with("tombstones ") {
            declared_tombstones = Some(parse_count(line, "tombstones ")?);
        } else if let Some(body) = line.strip_prefix("shard ") {
            let fields: Vec<&str> = body.splitn(9, '\t').collect();
            if fields.len() != 9 {
                return Err(IndexError::Corrupt(format!(
                    "shard line has {} fields, expected 9: {line:?}",
                    fields.len()
                )));
            }
            let num = |i: usize| parse_num(fields[i], line);
            let kind = ShardKind::parse(fields[1].trim()).ok_or_else(|| {
                IndexError::Corrupt(format!("unknown shard kind {:?} in {line:?}", fields[1]))
            })?;
            manifest.shards.push(ShardEntry {
                id: num(0)?,
                kind,
                born: num(2)?,
                doc_base: u32::try_from(num(3)?).unwrap_or(u32::MAX),
                doc_count: u32::try_from(num(4)?).unwrap_or(u32::MAX),
                raw_bytes: num(5)?,
                total_nodes: num(6)?,
                distinct_terms: num(7)?,
                path: PathBuf::from(fields[8]),
            });
        } else if let Some(body) = line.strip_prefix("doc ") {
            let fields: Vec<&str> = body.splitn(5, '\t').collect();
            if fields.len() != 5 {
                return Err(IndexError::Corrupt(format!(
                    "doc line has {} fields, expected 5: {line:?}",
                    fields.len()
                )));
            }
            let num = |i: usize| parse_num(fields[i], line);
            manifest.docs.push(DocEntry {
                shard: num(0)?,
                local: u32::try_from(num(1)?).unwrap_or(u32::MAX),
                hash: num(2)?,
                mtime_ms: num(3)?,
                name: fields[4].to_string(),
            });
        } else if let Some(body) = line.strip_prefix("tombstone ") {
            let fields: Vec<&str> = body.splitn(3, '\t').collect();
            if fields.len() != 3 {
                return Err(IndexError::Corrupt(format!(
                    "tombstone line has {} fields, expected 3: {line:?}",
                    fields.len()
                )));
            }
            let num = |i: usize| parse_num(fields[i], line);
            manifest.tombstones.push(Tombstone {
                shard: num(0)?,
                local: u32::try_from(num(1)?).unwrap_or(u32::MAX),
                name: fields[2].to_string(),
            });
        } else {
            return Err(IndexError::Corrupt(format!("unexpected manifest line: {line:?}")));
        }
    }
    for (label, declared, found) in [
        ("shards", declared_shards, manifest.shards.len()),
        ("docs", declared_docs, manifest.docs.len()),
        ("tombstones", declared_tombstones, manifest.tombstones.len()),
    ] {
        if let Some(declared) = declared {
            if declared != found {
                return Err(IndexError::Corrupt(format!(
                    "manifest declares {declared} {label} but lists {found}"
                )));
            }
        }
    }
    Ok(manifest)
}

/// Parses the `options` line's `key=value` list. Unknown keys are ignored
/// and missing keys keep their defaults, so the line can grow fields.
fn parse_options(rest: &str, options: &mut IndexOptions) {
    for pair in rest.split_whitespace() {
        let Some((key, value)) = pair.split_once('=') else {
            continue;
        };
        match key {
            "remove_stopwords" => options.analyzer.remove_stopwords = value == "1",
            "stem" => options.analyzer.stem = value == "1",
            "min_term_len" => {
                if let Ok(v) = value.parse() {
                    options.analyzer.min_term_len = v;
                }
            }
            "attrs_as_elements" => options.xml_attributes_as_elements = value == "1",
            "element_names" => options.index_element_names = value == "1",
            _ => {}
        }
    }
}

/// Splits a corpus into at most `shards` contiguous document ranges, in
/// global document order. Every returned corpus is non-empty: when the
/// corpus has fewer documents than `shards`, one single-document corpus is
/// returned per document. Sizes differ by at most one document (the first
/// `len % shards` ranges take the extra), so shard `i` starts at the global
/// document id equal to the sum of the earlier range sizes.
pub fn split_corpus(corpus: &Corpus, shards: usize) -> Vec<Corpus> {
    let docs = corpus.docs();
    let shards = shards.clamp(1, docs.len().max(1));
    let base_size = docs.len() / shards;
    let remainder = docs.len() % shards;
    let mut out = Vec::with_capacity(shards);
    let mut start = 0usize;
    for i in 0..shards {
        let size = base_size + usize::from(i < remainder);
        let slice = &docs[start..start + size];
        let mut part = Corpus::new();
        for d in slice {
            part.push(d.name.clone(), d.xml.clone());
        }
        out.push(part);
        start += size;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::options::IndexOptions;

    fn corpus(n: usize) -> Corpus {
        let mut c = Corpus::new();
        for i in 0..n {
            c.push(format!("doc{i}"), format!("<r><a>term{i}</a></r>"));
        }
        c
    }

    #[test]
    fn split_is_contiguous_and_balanced() {
        let c = corpus(7);
        let parts = split_corpus(&c, 3);
        assert_eq!(parts.len(), 3);
        let sizes: Vec<usize> = parts.iter().map(Corpus::len).collect();
        assert_eq!(sizes, vec![3, 2, 2]);
        // Contiguity: concatenating the parts reproduces the corpus order.
        let names: Vec<&str> =
            parts.iter().flat_map(|p| p.docs().iter().map(|d| d.name.as_str())).collect();
        let expected: Vec<String> = (0..7).map(|i| format!("doc{i}")).collect();
        assert_eq!(names, expected.iter().map(String::as_str).collect::<Vec<_>>());
    }

    #[test]
    fn split_never_produces_empty_shards() {
        let c = corpus(2);
        let parts = split_corpus(&c, 5);
        assert_eq!(parts.len(), 2, "more shards than documents collapses to len");
        assert!(parts.iter().all(|p| !p.is_empty()));
        assert_eq!(split_corpus(&c, 0).len(), 1, "zero shards means one");
    }

    #[test]
    fn manifest_round_trips_through_text() {
        let c = corpus(5);
        let parts = split_corpus(&c, 2);
        let mut manifest = ShardManifest {
            epoch: 3,
            committed_ms: 17,
            corpus_dir: Some(PathBuf::from("corpus")),
            ..ShardManifest::default()
        };
        let mut base = 0u32;
        for (i, part) in parts.iter().enumerate() {
            let ix = GksIndex::build(part, IndexOptions::default()).unwrap();
            let mut entry = ShardManifest::entry_for(&ix, format!("shard-{i}.gksix"), base);
            entry.id = i as u64;
            manifest.shards.push(entry);
            for (local, doc) in part.docs().iter().enumerate() {
                manifest.docs.push(DocEntry {
                    shard: i as u64,
                    local: local as u32,
                    hash: 42 + local as u64,
                    mtime_ms: 7,
                    name: doc.name.clone(),
                });
            }
            base += part.len() as u32;
        }
        manifest.tombstones.push(Tombstone { shard: 0, local: 1, name: "doc1".into() });
        assert_eq!(manifest.doc_count(), 5);
        assert_eq!(manifest.doc_bases(), vec![DocId(0), DocId(3)]);
        let text = manifest.render();
        assert!(text.starts_with(MANIFEST_HEADER));
        let parsed = ShardManifest::parse(&text).unwrap();
        assert_eq!(parsed, manifest);
    }

    #[test]
    fn retired_v1_header_is_a_typed_error_with_the_fix() {
        let v1 = "gks-shard-manifest v1\nshards 1\nshard 0\t2\t9\t9\t9\ta.gksix\n";
        match ShardManifest::parse(v1) {
            Err(IndexError::Corrupt(message)) => {
                assert!(message.contains("format v1 is not supported"), "{message}");
                assert!(message.contains("re-run `gks index"), "{message}");
            }
            other => panic!("expected a typed version error, got {other:?}"),
        }
    }

    #[test]
    fn malformed_manifests_are_rejected() {
        assert!(ShardManifest::parse("").is_err(), "empty");
        assert!(ShardManifest::parse("nope\nshards 0\n").is_err(), "bad header");
        assert!(
            ShardManifest::parse(&format!("{MANIFEST_HEADER}\nshards 2\n")).is_err(),
            "count mismatch"
        );
        let empty_shard =
            format!("{MANIFEST_HEADER}\nshards 1\nshard 0\tbase\t0\t0\t0\t9\t9\t9\ta.gksix\n");
        assert!(ShardManifest::parse(&empty_shard).is_err(), "zero-doc shard");
    }

    #[test]
    fn duplicate_ids_and_bad_ranges_are_typed_errors() {
        let dup = format!(
            "{MANIFEST_HEADER}\nshards 2\n\
             shard 7\tbase\t0\t0\t2\t9\t9\t9\ta.gksix\n\
             shard 7\tbase\t0\t2\t2\t9\t9\t9\tb.gksix\n"
        );
        match ShardManifest::parse(&dup) {
            Err(IndexError::DuplicateShardId { id: 7, first, second }) => {
                assert_eq!(first, "a.gksix");
                assert_eq!(second, "b.gksix");
            }
            other => panic!("expected DuplicateShardId, got {other:?}"),
        }
        let overlap = format!(
            "{MANIFEST_HEADER}\nshards 2\n\
             shard 0\tbase\t0\t0\t2\t9\t9\t9\ta.gksix\n\
             shard 1\tbase\t0\t1\t2\t9\t9\t9\tb.gksix\n"
        );
        match ShardManifest::parse(&overlap) {
            Err(IndexError::ShardRange { shard, expected_base: 2, found_base: 1 }) => {
                assert_eq!(shard, "b.gksix");
            }
            other => panic!("expected ShardRange, got {other:?}"),
        }
        let gap = format!(
            "{MANIFEST_HEADER}\nshards 2\n\
             shard 0\tbase\t0\t0\t2\t9\t9\t9\ta.gksix\n\
             shard 1\tbase\t0\t5\t2\t9\t9\t9\tb.gksix\n"
        );
        assert!(matches!(
            ShardManifest::parse(&gap),
            Err(IndexError::ShardRange { expected_base: 2, found_base: 5, .. })
        ));
    }

    #[test]
    fn shard_views_mask_and_renumber() {
        // Two shards of 2 docs each; doc1 (shard 0, local 1) was deleted
        // and doc3 (shard 1, local 1) was superseded by a delta — here we
        // just drop it from the table to exercise the implicit-dead path.
        let text = format!(
            "{MANIFEST_HEADER}\nepoch 2\nshards 2\n\
             shard 0\tbase\t0\t0\t2\t9\t9\t9\ta.gksix\n\
             shard 1\tbase\t0\t2\t2\t9\t9\t9\tb.gksix\n\
             docs 2\n\
             doc 0\t0\t11\t0\tdoc0\n\
             doc 1\t0\t13\t0\tdoc2\n\
             tombstones 1\n\
             tombstone 0\t1\tdoc1\n"
        );
        let manifest = ShardManifest::parse(&text).unwrap();
        assert_eq!(manifest.live_doc_count(), 2);
        let views = manifest.shard_views();
        assert_eq!(views[0].tombstones, vec![1]);
        assert_eq!(views[0].doc_map, Some(vec![0, DEAD_DOC]));
        // Shard 1 local 1 is absent from the table → implicitly dead.
        assert_eq!(views[1].tombstones, vec![1]);
        assert_eq!(views[1].doc_map, Some(vec![1, DEAD_DOC]));
    }

    #[test]
    fn load_resolves_relative_paths() {
        let dir = std::env::temp_dir().join(format!("gks-manifest-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let manifest = ShardManifest {
            corpus_dir: Some(PathBuf::from("xmls")),
            shards: vec![ShardEntry {
                id: 0,
                kind: ShardKind::Base,
                born: 0,
                path: PathBuf::from("s0.gksix"),
                doc_base: 0,
                doc_count: 1,
                raw_bytes: 4,
                total_nodes: 2,
                distinct_terms: 1,
            }],
            ..ShardManifest::default()
        };
        let path = dir.join("corpus.shards");
        manifest.save(&path).unwrap();
        let loaded = ShardManifest::load(&path).unwrap();
        assert_eq!(loaded.shards[0].path, dir.join("s0.gksix"));
        assert_eq!(loaded.corpus_dir, Some(dir.join("xmls")));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn manifest_sniff_reads_only_the_header() {
        let dir = std::env::temp_dir().join(format!("gks-manifest-sniff-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let manifest = dir.join("m.shards");
        std::fs::write(&manifest, format!("{MANIFEST_HEADER}\nshards 0\n")).unwrap();
        assert!(is_manifest_file(&manifest));
        let short = dir.join("short");
        std::fs::write(&short, &MANIFEST_MAGIC.as_bytes()[..5]).unwrap();
        assert!(!is_manifest_file(&short), "shorter than the header");
        let index = dir.join("x.gksix");
        GksIndex::build(&corpus(2), IndexOptions::default())
            .unwrap()
            .save(&index)
            .unwrap();
        assert!(!is_manifest_file(&index), "a real index");
        std::fs::remove_dir_all(&dir).ok();
    }
}
