//! Incremental indexing: change detection, delta-shard commits, and
//! compaction over a [`ShardManifest`].
//!
//! The update path is LSM-flavored. A **commit** scans the corpus
//! directory recorded in the manifest, detects added/changed/deleted
//! documents (mtime fast path, content hash on mismatch), builds one small
//! self-contained delta shard over the new/changed documents only, writes
//! tombstones for every superseded or deleted copy, and replaces the
//! manifest atomically with the epoch bumped by one. **Compaction** folds
//! everything back down: it rebuilds the base shard set from the corpus
//! directory, clears the tombstones, and atomically installs the new
//! manifest before deleting the superseded shard files.
//!
//! Crash safety hangs entirely on the manifest rename being the commit
//! point: shard files are written (atomically, see `GksIndex::save`)
//! *before* the manifest that references them, so a crash mid-commit
//! leaves the old epoch fully intact plus, at worst, orphaned shard files
//! that [`audit_manifest`] reports and the next compaction sweeps away.
//!
//! The policy lives here, not in its callers: [`maintain`] is the one
//! watcher tick (commit, then compact once the on-disk backlog reaches a
//! threshold) that `gks watch` and `serve --watch` both run, and
//! [`audit_manifest`] is the one manifest audit behind `gks doctor` and
//! the server's `/doctor`. Relative manifest and corpus paths resolve
//! against the working directory, as every other path argument does.
//!
//! Document numbering is the invariant that keeps delta search
//! byte-identical to a full rebuild: the manifest's document table is kept
//! in corpus-scan order (the order [`Corpus::from_directory`] would assign
//! ids in), so a gather stage renumbering shard-local hits through the
//! table produces exactly the global ids a monolithic rebuild would.

use std::collections::HashMap;
use std::fmt;
use std::fs;
use std::path::{Path, PathBuf};
use std::time::{SystemTime, UNIX_EPOCH};

use crate::builder::GksIndex;
use crate::corpus::Corpus;
use crate::error::IndexError;
use crate::options::IndexOptions;
use crate::shard::{split_corpus, DocEntry, ShardKind, ShardManifest, Tombstone};

/// Milliseconds since the Unix epoch, saturating at zero on a clock set
/// before 1970. The manifest's `committed-ms` field and the server's
/// `gks_index_freshness_seconds` metric are both derived from this.
pub fn wall_clock_ms() -> u64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| u64::try_from(d.as_millis()).unwrap_or(u64::MAX))
        .unwrap_or(0)
}

/// How far a file's mtime must predate the last commit before the mtime
/// fast path may skip hashing it. Covers the gap between the kernel's
/// coarse file-timestamp clock (tick granularity, up to ~10ms) and the
/// precise clock behind [`wall_clock_ms`], plus filesystems that truncate
/// mtimes to whole seconds (FAT stores two-second resolution).
const MTIME_SLACK_MS: u64 = 2_000;

/// Stable 64-bit FNV-1a content hash used for change detection. Not a
/// collision-resistant digest — it only has to distinguish "this document
/// changed" from "it did not" across commits, and it must stay stable
/// across platforms and program runs (unlike the seeded query-path hash).
pub fn content_hash(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// One `.xml` file found by [`scan_corpus_dir`]: its stem name, full path,
/// and mtime (0 when the filesystem refuses to say).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScannedDoc {
    /// Document name (file stem), matching corpus/document-table naming.
    pub name: String,
    /// Full path to the `.xml` file.
    pub path: PathBuf,
    /// File mtime in ms since the Unix epoch, 0 if unavailable.
    pub mtime_ms: u64,
}

/// Lists the `.xml` files directly inside `dir`, sorted by path — the same
/// order (and the same stem naming) [`Corpus::from_directory`] indexes in,
/// which is what keeps delta numbering identical to a full rebuild.
pub fn scan_corpus_dir(dir: &Path) -> Result<Vec<ScannedDoc>, IndexError> {
    let mut paths: Vec<PathBuf> = fs::read_dir(dir)?
        .collect::<Result<Vec<_>, _>>()?
        .into_iter()
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|e| e.eq_ignore_ascii_case("xml")))
        .collect();
    paths.sort();
    Ok(paths
        .into_iter()
        .map(|path| {
            let name = path
                .file_stem()
                .map(|s| s.to_string_lossy().into_owned())
                .unwrap_or_else(|| path.display().to_string());
            let mtime_ms = fs::metadata(&path)
                .and_then(|m| m.modified())
                .ok()
                .and_then(|t| t.duration_since(UNIX_EPOCH).ok())
                .map(|d| u64::try_from(d.as_millis()).unwrap_or(u64::MAX))
                .unwrap_or(0);
            ScannedDoc { name, path, mtime_ms }
        })
        .collect())
}

/// One live document in a [`DeltaPlan`], in corpus-scan order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PlannedEntry {
    /// Unchanged: carried over from the current document table.
    Keep(DocEntry),
    /// New or changed: goes into the delta shard being built.
    Upsert {
        /// Document name (file stem).
        name: String,
        /// The document's current XML, read at scan time.
        xml: String,
        /// Content hash of `xml`.
        hash: u64,
        /// File mtime at scan time.
        mtime_ms: u64,
    },
}

/// The outcome of change detection: what the next commit would do.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct DeltaPlan {
    /// Every live document in corpus-scan order — the next epoch's
    /// document table, with upserts destined for the delta shard.
    pub docs: Vec<PlannedEntry>,
    /// Tombstones for the superseded copies of changed documents and the
    /// copies of deleted ones.
    pub tombstones: Vec<Tombstone>,
    /// Documents not present in the previous epoch.
    pub added: usize,
    /// Documents whose content hash changed.
    pub changed: usize,
    /// Documents present in the previous epoch but gone from disk.
    pub deleted: usize,
}

impl DeltaPlan {
    /// True when a commit of this plan would be a no-op.
    pub fn is_clean(&self) -> bool {
        self.added == 0 && self.changed == 0 && self.deleted == 0
    }
}

/// Scans `corpus_dir` and diffs it against `manifest`'s document table.
///
/// Unchanged documents are detected by mtime first (no read) and content
/// hash second, so a `touch` without a content change stays a no-op.
/// Requires a manifest with a document table — one built from explicit
/// file lists cannot support incremental updates because document identity
/// is not recorded.
pub fn plan_delta(manifest: &ShardManifest, corpus_dir: &Path) -> Result<DeltaPlan, IndexError> {
    if manifest.docs.is_empty() {
        return Err(IndexError::Corrupt(
            "manifest has no document table; rebuild with `gks index --shards` over a corpus \
             directory to enable incremental updates"
                .into(),
        ));
    }
    let old: HashMap<&str, &DocEntry> =
        manifest.docs.iter().map(|d| (d.name.as_str(), d)).collect();
    let mut plan = DeltaPlan::default();
    let mut seen: Vec<&str> = Vec::new();
    for scanned in scan_corpus_dir(corpus_dir)? {
        if let Some(&entry) = old.get(scanned.name.as_str()) {
            seen.push(entry.name.as_str());
            // The mtime fast path is only trusted when the mtime predates
            // the last commit by a clear margin. Strict `<` is not enough:
            // file mtimes come from the kernel's coarse (tick-granularity)
            // clock while `committed-ms` reads the precise one, so a
            // rewrite landing in the same tick as the original write gets
            // an identical mtime that still sorts before the commit — the
            // hash check below is what catches it.
            if entry.mtime_ms != 0
                && entry.mtime_ms == scanned.mtime_ms
                && scanned.mtime_ms.saturating_add(MTIME_SLACK_MS) < manifest.committed_ms
            {
                plan.docs.push(PlannedEntry::Keep(entry.clone()));
                continue;
            }
            let xml = fs::read_to_string(&scanned.path)?;
            let hash = content_hash(xml.as_bytes());
            if hash == entry.hash {
                plan.docs.push(PlannedEntry::Keep(entry.clone()));
                continue;
            }
            plan.changed += 1;
            plan.tombstones.push(Tombstone {
                shard: entry.shard,
                local: entry.local,
                name: entry.name.clone(),
            });
            plan.docs.push(PlannedEntry::Upsert {
                name: scanned.name,
                xml,
                hash,
                mtime_ms: scanned.mtime_ms,
            });
        } else {
            let xml = fs::read_to_string(&scanned.path)?;
            let hash = content_hash(xml.as_bytes());
            plan.added += 1;
            plan.docs.push(PlannedEntry::Upsert {
                name: scanned.name,
                xml,
                hash,
                mtime_ms: scanned.mtime_ms,
            });
        }
    }
    for doc in &manifest.docs {
        if !seen.contains(&doc.name.as_str()) {
            plan.deleted += 1;
            plan.tombstones.push(Tombstone {
                shard: doc.shard,
                local: doc.local,
                name: doc.name.clone(),
            });
        }
    }
    Ok(plan)
}

/// What a committed delta did, for logs and admin responses.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CommitStats {
    /// The epoch the commit installed.
    pub epoch: u64,
    /// Documents added / changed / deleted by this commit.
    pub added: usize,
    /// See `added`.
    pub changed: usize,
    /// See `added`.
    pub deleted: usize,
    /// Path of the delta shard written, if any (pure deletions write none).
    pub delta_path: Option<PathBuf>,
}

/// Resolves `p` against `dir` when relative.
fn resolve_in(dir: &Path, p: &Path) -> PathBuf {
    if p.is_relative() {
        dir.join(p)
    } else {
        p.to_path_buf()
    }
}

/// The directory a manifest's relative entries resolve against: its
/// parent, or the working directory for a bare file name (whose parent is
/// the empty path, which `read_dir` refuses).
fn manifest_dir(manifest_path: &Path) -> PathBuf {
    match manifest_path.parent() {
        Some(dir) if !dir.as_os_str().is_empty() => dir.to_path_buf(),
        _ => PathBuf::from("."),
    }
}

fn manifest_stem(manifest_path: &Path) -> String {
    manifest_path
        .file_stem()
        .map(|s| s.to_string_lossy().into_owned())
        .unwrap_or_else(|| "index".into())
}

/// The corpus directory a manifest's update path scans, resolved against
/// the manifest's own directory.
fn corpus_dir_of(manifest: &ShardManifest, manifest_path: &Path) -> Option<PathBuf> {
    manifest
        .corpus_dir
        .as_ref()
        .map(|dir| resolve_in(&manifest_dir(manifest_path), dir))
}

/// Scans the manifest's corpus directory and, if anything changed, commits
/// one delta: a new delta shard over added/changed documents (none for
/// pure deletions), tombstones for superseded copies, an updated document
/// table, and an atomic epoch bump. Returns `None` when the corpus is
/// unchanged (the idempotent watcher poll). The manifest file itself is
/// the unit of atomicity — see the [module docs](self).
pub fn commit_delta(manifest_path: &Path) -> Result<Option<CommitStats>, IndexError> {
    // Parse the raw text rather than `load` so stored paths stay verbatim
    // (relative entries stay relocatable when we re-render the manifest).
    let text = fs::read_to_string(manifest_path)?;
    let mut manifest = ShardManifest::parse(&text)?;
    let dir = manifest_dir(manifest_path);
    let corpus_dir = corpus_dir_of(&manifest, manifest_path).ok_or_else(|| {
        IndexError::Corrupt(
            "manifest records no corpus directory; re-index with `gks index --shards` over a \
             directory to enable incremental updates"
                .into(),
        )
    })?;
    let plan = plan_delta(&manifest, &corpus_dir)?;
    if plan.is_clean() {
        return Ok(None);
    }
    // Opened past the no-op return, so the span count is the commit count.
    let _span = gks_trace::span(gks_trace::SpanKind::DeltaBuild);
    let new_epoch = manifest.epoch.saturating_add(1);
    let upserts: Vec<(&str, &str)> = plan
        .docs
        .iter()
        .filter_map(|d| match d {
            PlannedEntry::Upsert { name, xml, .. } => Some((name.as_str(), xml.as_str())),
            PlannedEntry::Keep(_) => None,
        })
        .collect();
    let mut delta_path = None;
    let new_shard_id = manifest.next_shard_id();
    if !upserts.is_empty() {
        let corpus = Corpus::from_named_strs(upserts)?;
        let ix = GksIndex::build(&corpus, manifest.options.clone())?;
        let file = format!("{}.delta{new_epoch}.gksix", manifest_stem(manifest_path));
        let full = dir.join(&file);
        ix.save(&full)?;
        let doc_base = u32::try_from(manifest.doc_count())
            .map_err(|_| IndexError::Corrupt("corpus exceeds the u32 document-id space".into()))?;
        let mut entry = ShardManifest::entry_for(&ix, PathBuf::from(&file), doc_base);
        entry.id = new_shard_id;
        entry.kind = ShardKind::Delta;
        entry.born = new_epoch;
        manifest.shards.push(entry);
        delta_path = Some(full);
    }
    let mut next_local = 0u32;
    manifest.docs = plan
        .docs
        .into_iter()
        .map(|d| match d {
            PlannedEntry::Keep(entry) => entry,
            PlannedEntry::Upsert { name, hash, mtime_ms, .. } => {
                let local = next_local;
                next_local = next_local.saturating_add(1);
                DocEntry { shard: new_shard_id, local, hash, mtime_ms, name }
            }
        })
        .collect();
    manifest.tombstones.extend(plan.tombstones);
    manifest.epoch = new_epoch;
    manifest.committed_ms = wall_clock_ms();
    manifest.save(manifest_path)?;
    Ok(Some(CommitStats {
        epoch: new_epoch,
        added: plan.added,
        changed: plan.changed,
        deleted: plan.deleted,
        delta_path,
    }))
}

/// What a compaction did.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompactStats {
    /// The epoch the compaction installed.
    pub epoch: u64,
    /// Number of base shards in the compacted set.
    pub base_shards: usize,
    /// Live documents in the compacted set.
    pub docs: usize,
    /// Superseded shard files deleted after the commit.
    pub removed_files: usize,
    /// Wall-clock milliseconds the fold took, rebuild and sweep included.
    pub elapsed_ms: u64,
}

/// Folds all deltas and tombstones back into a fresh base shard set.
///
/// Compaction is a rebuild from the corpus directory: every live document
/// is re-read from source, split into as many base shards as the previous
/// epoch had, indexed, and committed under new shard files — then the
/// superseded files are deleted. (Re-reading from source also absorbs any
/// corpus change that raced the compaction; the result always matches the
/// directory at scan time.) Returns `None` when there is nothing to fold —
/// no delta shards and no tombstones.
pub fn compact(manifest_path: &Path) -> Result<Option<CompactStats>, IndexError> {
    let text = fs::read_to_string(manifest_path)?;
    let old = ShardManifest::parse(&text)?;
    if old.delta_shard_count() == 0 && old.tombstones.is_empty() {
        return Ok(None);
    }
    // Opened past the no-op return, so the span count is the compaction count.
    let span = gks_trace::span(gks_trace::SpanKind::Compaction);
    let dir = manifest_dir(manifest_path);
    let corpus_dir = corpus_dir_of(&old, manifest_path).ok_or_else(|| {
        IndexError::Corrupt("manifest records no corpus directory; cannot compact".into())
    })?;
    let base_shards = old.shards.iter().filter(|s| s.kind == ShardKind::Base).count().max(1);
    let new_epoch = old.epoch.saturating_add(1);
    let manifest = build_base_set(
        manifest_path,
        &corpus_dir,
        old.corpus_dir.clone(),
        old.options.clone(),
        base_shards,
        new_epoch,
    )?;
    manifest.save(manifest_path)?;
    // Only now is it safe to drop the superseded files. A crash between
    // the rename and these deletes leaves orphans, which `gks doctor`
    // reports and the next compaction removes.
    let keep: Vec<PathBuf> = manifest.shards.iter().map(|s| resolve_in(&dir, &s.path)).collect();
    let mut removed_files = 0usize;
    for shard in &old.shards {
        let full = resolve_in(&dir, &shard.path);
        if !keep.contains(&full) && fs::remove_file(&full).is_ok() {
            removed_files += 1;
        }
    }
    Ok(Some(CompactStats {
        epoch: manifest.epoch,
        base_shards: manifest.shards.len(),
        docs: manifest.docs.len(),
        removed_files,
        elapsed_ms: span.elapsed_micros() / 1000,
    }))
}

/// What one [`maintain`] tick did. Each step reports on its own, so a
/// failed commit does not hide the compaction check that followed it.
#[derive(Debug)]
pub struct MaintenanceOutcome {
    /// The delta commit; `Ok(None)` when the corpus was unchanged.
    pub commit: Result<Option<CommitStats>, IndexError>,
    /// The compaction; `Ok(None)` when the backlog was below the threshold
    /// or there was nothing to fold.
    pub compaction: Result<Option<CompactStats>, IndexError>,
}

impl MaintenanceOutcome {
    /// True when either step changed the manifest.
    pub fn changed(&self) -> bool {
        matches!(self.commit, Ok(Some(_))) || matches!(self.compaction, Ok(Some(_)))
    }
}

/// One tick of the update policy `gks watch` and `serve --watch` share:
/// commit a delta for whatever changed in the corpus directory, then fold
/// the backlog once the manifest **on disk** carries at least `compact_at`
/// delta shards (`None` never compacts). The compaction check runs even
/// when the commit failed: a mid-mutation scan is retried next tick, while
/// a backlog committed earlier can still be folded now.
pub fn maintain(manifest_path: &Path, compact_at: Option<u64>) -> MaintenanceOutcome {
    let commit = commit_delta(manifest_path);
    let compaction = match compact_at {
        None => Ok(None),
        Some(at) => ShardManifest::load(manifest_path).and_then(|m| {
            if u64::try_from(m.delta_shard_count()).unwrap_or(u64::MAX) >= at {
                compact(manifest_path)
            } else {
                Ok(None)
            }
        }),
    };
    MaintenanceOutcome { commit, compaction }
}

/// Builds a complete sharded index over `corpus_dir` and writes a fresh v2
/// manifest (epoch 0) with a document table and corpus pointer, enabling
/// the incremental update path. Shard files are written next to
/// `manifest_path` as `{stem}.base0.{i}.gksix`.
pub fn index_directory(
    corpus_dir: &Path,
    manifest_path: &Path,
    shards: usize,
    options: IndexOptions,
) -> Result<ShardManifest, IndexError> {
    // Store the corpus dir relative to the manifest when it lives inside
    // the manifest's directory (keeps the pair relocatable), else absolute.
    let dir = std::path::absolute(manifest_dir(manifest_path))?;
    let corpus_dir = std::path::absolute(corpus_dir)?;
    let stored = corpus_dir
        .strip_prefix(&dir)
        .map(Path::to_path_buf)
        .unwrap_or(corpus_dir.clone());
    let manifest = build_base_set(manifest_path, &corpus_dir, Some(stored), options, shards, 0)?;
    manifest.save(manifest_path)?;
    Ok(manifest)
}

/// Builds a sharded index over an in-memory corpus (`gks index --shards N`
/// over a file list) with the same shard files and manifest fields as
/// [`index_directory`], minus the corpus directory and document table: a
/// file list records nothing to re-scan, so the set has no update path.
pub fn index_corpus(
    corpus: &Corpus,
    manifest_path: &Path,
    shards: usize,
    options: IndexOptions,
) -> Result<ShardManifest, IndexError> {
    let manifest = write_base_set(manifest_path, corpus, options, shards, 0)?;
    manifest.save(manifest_path)?;
    Ok(manifest)
}

/// Shared by [`index_directory`] and [`compact`]: scans `corpus_dir` and
/// writes it as a base shard set ([`write_base_set`]), returning the
/// manifest (not yet saved) with a full document table.
fn build_base_set(
    manifest_path: &Path,
    corpus_dir: &Path,
    stored_corpus_dir: Option<PathBuf>,
    options: IndexOptions,
    shards: usize,
    epoch: u64,
) -> Result<ShardManifest, IndexError> {
    let scanned = scan_corpus_dir(corpus_dir)?;
    if scanned.is_empty() {
        return Err(IndexError::Corrupt(format!(
            "no .xml files in {} — refusing to build an empty index",
            corpus_dir.display()
        )));
    }
    let mut corpus = Corpus::new();
    let mut table = Vec::with_capacity(scanned.len());
    for doc in scanned {
        let xml = fs::read_to_string(&doc.path)?;
        let hash = content_hash(xml.as_bytes());
        let name = doc.name.clone();
        table.push(DocEntry { shard: 0, local: 0, hash, mtime_ms: doc.mtime_ms, name });
        corpus.push(doc.name, xml);
    }
    let mut manifest = write_base_set(manifest_path, &corpus, options, shards, epoch)?;
    // The split is contiguous, so scan order walks the shards in order.
    let mut table = table.into_iter();
    for shard in &manifest.shards {
        for (local, mut doc) in (0..shard.doc_count).zip(table.by_ref()) {
            (doc.shard, doc.local) = (shard.id, local);
            manifest.docs.push(doc);
        }
    }
    manifest.corpus_dir = stored_corpus_dir;
    Ok(manifest)
}

/// The one base-shard writer: splits `corpus` into `shards` contiguous
/// parts, builds and saves each as `{stem}.base{epoch}.{i}.gksix` next to
/// the manifest, and returns the manifest (not yet saved, no document
/// table) stamped with the current wall clock.
fn write_base_set(
    manifest_path: &Path,
    corpus: &Corpus,
    options: IndexOptions,
    shards: usize,
    epoch: u64,
) -> Result<ShardManifest, IndexError> {
    let dir = manifest_dir(manifest_path);
    let stem = manifest_stem(manifest_path);
    let mut manifest = ShardManifest {
        epoch,
        committed_ms: wall_clock_ms(),
        options: options.clone(),
        ..ShardManifest::default()
    };
    let mut doc_base = 0u32;
    for (i, part) in split_corpus(corpus, shards).iter().enumerate() {
        let ix = GksIndex::build(part, options.clone())?;
        let file = format!("{stem}.base{epoch}.{i}.gksix");
        ix.save(dir.join(&file))?;
        let mut entry = ShardManifest::entry_for(&ix, PathBuf::from(&file), doc_base);
        entry.id = i as u64;
        entry.born = epoch;
        doc_base = doc_base.saturating_add(entry.doc_count);
        manifest.shards.push(entry);
    }
    Ok(manifest)
}

/// One problem found while validating a manifest's incremental-update
/// state. Mirrors the index-level `doctor::Violation` idiom: a typed,
/// printable finding rather than a hard error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ManifestViolation {
    /// A shard claims it was born in a later epoch than the manifest's.
    BornAfterEpoch {
        /// Shard id.
        shard: u64,
        /// The shard's recorded birth epoch.
        born: u64,
        /// The manifest's epoch.
        epoch: u64,
    },
    /// Shard birth epochs go backwards along the shard list.
    BornNotMonotonic {
        /// Shard id.
        shard: u64,
        /// The shard's recorded birth epoch.
        born: u64,
        /// The preceding shard's birth epoch.
        prev: u64,
    },
    /// A document-table entry points at a shard id the manifest lacks.
    DocShardMissing {
        /// Document name.
        name: String,
        /// The missing shard id.
        shard: u64,
    },
    /// A document-table entry's local id exceeds its shard's doc count.
    DocLocalOutOfRange {
        /// Document name.
        name: String,
        /// Shard id.
        shard: u64,
        /// The out-of-range local id.
        local: u32,
        /// The shard's document count.
        doc_count: u32,
    },
    /// The same name appears twice in the document table.
    DuplicateDocName {
        /// The repeated name.
        name: String,
    },
    /// Two document-table entries map to the same `(shard, local)` slot.
    DuplicateDocSlot {
        /// Shard id.
        shard: u64,
        /// The doubly-claimed local id.
        local: u32,
    },
    /// A tombstone points at a shard id the manifest lacks.
    TombstoneShardMissing {
        /// Tombstoned document name.
        name: String,
        /// The missing shard id.
        shard: u64,
    },
    /// A tombstone's local id exceeds its shard's doc count.
    TombstoneLocalOutOfRange {
        /// Tombstoned document name.
        name: String,
        /// Shard id.
        shard: u64,
        /// The out-of-range local id.
        local: u32,
        /// The shard's document count.
        doc_count: u32,
    },
    /// A tombstone masks a slot the document table still lists as live.
    TombstoneLive {
        /// Document name.
        name: String,
        /// Shard id.
        shard: u64,
        /// Local id claimed both dead and live.
        local: u32,
    },
    /// A tombstone points into a shard born in the current epoch — a doc
    /// cannot be committed and superseded by the same commit.
    TombstoneTooNew {
        /// Tombstoned document name.
        name: String,
        /// Shard id.
        shard: u64,
    },
    /// A shard file referenced by the manifest does not exist on disk.
    MissingShardFile {
        /// The resolved path.
        path: PathBuf,
    },
    /// A shard file referenced by the manifest exists but does not open as
    /// an index (truncated, bit-flipped, wrong format version).
    UnreadableShardFile {
        /// The resolved path.
        path: PathBuf,
        /// The load error.
        error: String,
    },
    /// A `{stem}.*.gksix` file next to the manifest is referenced by no
    /// shard entry — debris from a crashed commit or compaction.
    OrphanShardFile {
        /// The orphaned file.
        path: PathBuf,
    },
    /// A loaded shard's document name disagrees with the manifest (the
    /// referential-integrity check: every tombstone and table entry must
    /// name the document actually stored at its `(shard, local)` slot).
    NameMismatch {
        /// Name recorded in the manifest.
        name: String,
        /// Shard id.
        shard: u64,
        /// Local id.
        local: u32,
        /// Name the shard itself stores at that slot (empty if none).
        actual: String,
    },
}

impl fmt::Display for ManifestViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ManifestViolation::BornAfterEpoch { shard, born, epoch } => {
                write!(f, "shard {shard} born in epoch {born}, after the manifest epoch {epoch}")
            }
            ManifestViolation::BornNotMonotonic { shard, born, prev } => write!(
                f,
                "shard {shard} born in epoch {born}, earlier than the preceding shard's {prev}"
            ),
            ManifestViolation::DocShardMissing { name, shard } => {
                write!(f, "doc {name:?} points at missing shard {shard}")
            }
            ManifestViolation::DocLocalOutOfRange { name, shard, local, doc_count } => write!(
                f,
                "doc {name:?} claims local id {local} in shard {shard}, which holds only \
                 {doc_count} documents"
            ),
            ManifestViolation::DuplicateDocName { name } => {
                write!(f, "doc {name:?} appears twice in the document table")
            }
            ManifestViolation::DuplicateDocSlot { shard, local } => {
                write!(f, "two documents claim slot (shard {shard}, local {local})")
            }
            ManifestViolation::TombstoneShardMissing { name, shard } => {
                write!(f, "tombstone {name:?} points at missing shard {shard}")
            }
            ManifestViolation::TombstoneLocalOutOfRange { name, shard, local, doc_count } => {
                write!(
                    f,
                    "tombstone {name:?} claims local id {local} in shard {shard}, which holds \
                     only {doc_count} documents"
                )
            }
            ManifestViolation::TombstoneLive { name, shard, local } => write!(
                f,
                "tombstone {name:?} masks (shard {shard}, local {local}), which the document \
                 table still lists as live"
            ),
            ManifestViolation::TombstoneTooNew { name, shard } => {
                write!(f, "tombstone {name:?} points into shard {shard}, born in the current epoch")
            }
            ManifestViolation::MissingShardFile { path } => {
                write!(f, "shard file {} is missing on disk", path.display())
            }
            ManifestViolation::UnreadableShardFile { path, error } => {
                write!(f, "shard file {} does not open: {error}", path.display())
            }
            ManifestViolation::OrphanShardFile { path } => {
                write!(
                    f,
                    "orphaned shard file {} is referenced by no manifest entry",
                    path.display()
                )
            }
            ManifestViolation::NameMismatch { name, shard, local, actual } => write!(
                f,
                "manifest names (shard {shard}, local {local}) as {name:?} but the shard \
                 stores {actual:?}"
            ),
        }
    }
}

/// Structural validation of a manifest's incremental-update state: epoch
/// monotonicity and document-table / tombstone referential integrity.
/// Purely in-memory; [`audit_manifest`] adds the disk checks and sorts.
fn validate_manifest(manifest: &ShardManifest) -> Vec<ManifestViolation> {
    let mut out = Vec::new();
    let mut prev_born = 0u64;
    for s in &manifest.shards {
        if s.born > manifest.epoch {
            out.push(ManifestViolation::BornAfterEpoch {
                shard: s.id,
                born: s.born,
                epoch: manifest.epoch,
            });
        }
        if s.born < prev_born {
            out.push(ManifestViolation::BornNotMonotonic {
                shard: s.id,
                born: s.born,
                prev: prev_born,
            });
        }
        prev_born = s.born;
    }
    let mut slots: Vec<(u64, u32)> = Vec::with_capacity(manifest.docs.len());
    for (i, d) in manifest.docs.iter().enumerate() {
        if manifest.docs[..i].iter().any(|p| p.name == d.name) {
            out.push(ManifestViolation::DuplicateDocName { name: d.name.clone() });
        }
        if slots.contains(&(d.shard, d.local)) {
            out.push(ManifestViolation::DuplicateDocSlot { shard: d.shard, local: d.local });
        }
        slots.push((d.shard, d.local));
        match manifest.shard_by_id(d.shard) {
            None => out
                .push(ManifestViolation::DocShardMissing { name: d.name.clone(), shard: d.shard }),
            Some(s) if d.local >= s.doc_count => {
                out.push(ManifestViolation::DocLocalOutOfRange {
                    name: d.name.clone(),
                    shard: d.shard,
                    local: d.local,
                    doc_count: s.doc_count,
                });
            }
            Some(_) => {}
        }
    }
    for t in &manifest.tombstones {
        match manifest.shard_by_id(t.shard) {
            None => {
                out.push(ManifestViolation::TombstoneShardMissing {
                    name: t.name.clone(),
                    shard: t.shard,
                });
                continue;
            }
            Some(s) => {
                if t.local >= s.doc_count {
                    out.push(ManifestViolation::TombstoneLocalOutOfRange {
                        name: t.name.clone(),
                        shard: t.shard,
                        local: t.local,
                        doc_count: s.doc_count,
                    });
                }
                if s.born == manifest.epoch && manifest.epoch > 0 {
                    out.push(ManifestViolation::TombstoneTooNew {
                        name: t.name.clone(),
                        shard: t.shard,
                    });
                }
            }
        }
        if manifest.docs.iter().any(|d| d.shard == t.shard && d.local == t.local) {
            out.push(ManifestViolation::TombstoneLive {
                name: t.name.clone(),
                shard: t.shard,
                local: t.local,
            });
        }
    }
    out
}

/// The manifest audit `gks doctor` and the server's `/doctor` both report:
/// parses the manifest once, resolves its paths once against the
/// manifest's (absolute) directory, and returns the resolved manifest with
/// every finding sorted by rendered message — the structural ones (epoch
/// order, document-table and tombstone integrity) plus the disk checks:
/// missing, unreadable and orphaned
/// (`{stem}.*.gksix`, referenced by no entry) shard files, and document
/// names that disagree with what the shard stores at their slot.
pub fn audit_manifest(
    manifest_path: &Path,
) -> Result<(ShardManifest, Vec<ManifestViolation>), IndexError> {
    let mut manifest = ShardManifest::parse(&fs::read_to_string(manifest_path)?)?;
    let dir = std::path::absolute(manifest_dir(manifest_path))?;
    manifest.resolve_paths(&dir);
    let mut out = validate_manifest(&manifest);
    let orphan_prefix = format!("{}.", manifest_stem(manifest_path));
    for entry in fs::read_dir(&dir)?.flatten() {
        let path = entry.path();
        let name = entry.file_name().to_string_lossy().into_owned();
        if name.starts_with(&orphan_prefix)
            && name.ends_with(".gksix")
            && !manifest.shards.iter().any(|s| s.path == path)
        {
            out.push(ManifestViolation::OrphanShardFile { path });
        }
    }
    for s in &manifest.shards {
        if !s.path.exists() {
            out.push(ManifestViolation::MissingShardFile { path: s.path.clone() });
            continue;
        }
        let ix = match GksIndex::load(&s.path) {
            Ok(ix) => ix,
            Err(e) => {
                let error = e.to_string();
                out.push(ManifestViolation::UnreadableShardFile { path: s.path.clone(), error });
                continue;
            }
        };
        for d in manifest.docs.iter().filter(|d| d.shard == s.id) {
            let actual = ix.doc_name(gks_dewey::DocId(d.local)).unwrap_or("");
            if actual != d.name {
                out.push(ManifestViolation::NameMismatch {
                    name: d.name.clone(),
                    shard: d.shard,
                    local: d.local,
                    actual: actual.to_string(),
                });
            }
        }
        for t in manifest.tombstones.iter().filter(|t| t.shard == s.id) {
            let actual = ix.doc_name(gks_dewey::DocId(t.local)).unwrap_or("");
            if actual != t.name {
                out.push(ManifestViolation::NameMismatch {
                    name: t.name.clone(),
                    shard: t.shard,
                    local: t.local,
                    actual: actual.to_string(),
                });
            }
        }
    }
    out.sort_by_key(ManifestViolation::to_string);
    Ok((manifest, out))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shard::DEAD_DOC;

    fn temp_root(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("gks-delta-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn write_doc(dir: &Path, name: &str, body: &str) {
        fs::write(dir.join(format!("{name}.xml")), body).unwrap();
    }

    fn fresh(root: &Path, shards: usize) -> PathBuf {
        let corpus = root.join("corpus");
        fs::create_dir_all(&corpus).unwrap();
        write_doc(&corpus, "alpha", "<r><t>apple banana</t></r>");
        write_doc(&corpus, "beta", "<r><t>cherry banana</t></r>");
        write_doc(&corpus, "gamma", "<r><t>durian apple</t></r>");
        let manifest_path = root.join("corpus.shards");
        index_directory(&corpus, &manifest_path, shards, IndexOptions::default()).unwrap();
        manifest_path
    }

    fn findings(manifest_path: &Path) -> Vec<ManifestViolation> {
        audit_manifest(manifest_path).unwrap().1
    }

    #[test]
    fn content_hash_is_stable_and_discriminating() {
        assert_eq!(content_hash(b"abc"), content_hash(b"abc"));
        assert_ne!(content_hash(b"abc"), content_hash(b"abd"));
        assert_eq!(content_hash(b""), 0xcbf2_9ce4_8422_2325);
    }

    #[test]
    fn index_directory_writes_table_and_corpus_pointer() {
        let root = temp_root("fresh");
        let manifest_path = fresh(&root, 2);
        let m = ShardManifest::load(&manifest_path).unwrap();
        assert_eq!(m.epoch, 0);
        assert_eq!(m.shards.len(), 2);
        assert_eq!(m.docs.len(), 3);
        assert!(m.tombstones.is_empty());
        assert_eq!(m.corpus_dir, Some(root.join("corpus")));
        let names: Vec<&str> = m.docs.iter().map(|d| d.name.as_str()).collect();
        assert_eq!(names, ["alpha", "beta", "gamma"], "table follows scan order");
        assert_eq!(findings(&manifest_path), []);
        fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn clean_corpus_commits_nothing() {
        let root = temp_root("clean");
        let manifest_path = fresh(&root, 1);
        assert_eq!(commit_delta(&manifest_path).unwrap(), None);
        assert_eq!(ShardManifest::load(&manifest_path).unwrap().epoch, 0);
        fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn add_modify_delete_commits_one_delta() {
        let root = temp_root("amd");
        let manifest_path = fresh(&root, 2);
        let corpus = root.join("corpus");
        write_doc(&corpus, "delta", "<r><t>elderberry</t></r>"); // add
        write_doc(&corpus, "alpha", "<r><t>apricot banana</t></r>"); // modify
        fs::remove_file(corpus.join("beta.xml")).unwrap(); // delete
        let stats = commit_delta(&manifest_path).unwrap().expect("dirty corpus must commit");
        assert_eq!((stats.added, stats.changed, stats.deleted), (1, 1, 1));
        assert_eq!(stats.epoch, 1);
        assert!(stats.delta_path.as_ref().unwrap().exists());

        let m = ShardManifest::load(&manifest_path).unwrap();
        assert_eq!(m.epoch, 1);
        assert_eq!(m.delta_shard_count(), 1);
        assert_eq!(m.delta_doc_count(), 2, "added + changed live in the delta");
        // beta deleted, alpha superseded: two tombstones.
        assert_eq!(m.tombstones.len(), 2);
        let names: Vec<&str> = m.docs.iter().map(|d| d.name.as_str()).collect();
        assert_eq!(names, ["alpha", "delta", "gamma"], "scan order = rebuild order");
        assert_eq!(findings(&manifest_path), []);

        // The shard views mask exactly the superseded/deleted locals.
        let views = m.shard_views();
        let dead: usize = views.iter().map(|v| v.tombstones.len()).sum();
        assert_eq!(dead, 2);
        for v in &views {
            let map = v.doc_map.as_ref().unwrap();
            for &t in &v.tombstones {
                assert_eq!(map[t as usize], DEAD_DOC);
            }
        }
        fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn pure_deletion_writes_no_delta_shard() {
        let root = temp_root("del");
        let manifest_path = fresh(&root, 1);
        fs::remove_file(root.join("corpus/gamma.xml")).unwrap();
        let stats = commit_delta(&manifest_path).unwrap().unwrap();
        assert_eq!((stats.added, stats.changed, stats.deleted), (0, 0, 1));
        assert!(stats.delta_path.is_none());
        let m = ShardManifest::load(&manifest_path).unwrap();
        assert_eq!(m.shards.len(), 1, "no new shard for a pure deletion");
        assert_eq!(m.docs.len(), 2);
        assert_eq!(m.tombstones.len(), 1);
        fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn touch_without_content_change_is_clean() {
        let root = temp_root("touch");
        let manifest_path = fresh(&root, 1);
        // Rewrite a doc with identical bytes: mtime moves, hash does not.
        let path = root.join("corpus/alpha.xml");
        let bytes = fs::read(&path).unwrap();
        fs::write(&path, &bytes).unwrap();
        assert_eq!(commit_delta(&manifest_path).unwrap(), None);
        fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn compaction_folds_deltas_and_sweeps_files() {
        let root = temp_root("compact");
        let manifest_path = fresh(&root, 2);
        let corpus = root.join("corpus");
        write_doc(&corpus, "delta", "<r><t>elderberry</t></r>");
        fs::remove_file(corpus.join("beta.xml")).unwrap();
        commit_delta(&manifest_path).unwrap().unwrap();
        let stats = compact(&manifest_path).unwrap().expect("deltas present, must compact");
        assert_eq!(stats.epoch, 2);
        assert_eq!(stats.base_shards, 2);
        assert_eq!(stats.docs, 3);
        assert!(stats.removed_files >= 3, "old bases + delta swept");
        let m = ShardManifest::load(&manifest_path).unwrap();
        assert_eq!(m.delta_shard_count(), 0);
        assert!(m.tombstones.is_empty());
        assert_eq!(m.epoch, 2);
        assert_eq!(findings(&manifest_path), []);
        // Nothing left to fold: compaction is now a no-op.
        assert!(compact(&manifest_path).unwrap().is_none());
        fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn validator_flags_integrity_breaks() {
        let root = temp_root("validate");
        let manifest_path = fresh(&root, 1);
        let mut m = ShardManifest::load(&manifest_path).unwrap();
        m.tombstones.push(Tombstone { shard: 9, local: 0, name: "ghost".into() });
        m.tombstones.push(Tombstone { shard: 0, local: 99, name: "far".into() });
        m.tombstones.push(Tombstone { shard: 0, local: 0, name: "alpha".into() });
        m.docs.push(m.docs[0].clone());
        m.shards[0].born = m.epoch + 5;
        let rendered: Vec<String> =
            validate_manifest(&m).iter().map(ManifestViolation::to_string).collect();
        assert!(rendered.iter().any(|v| v.contains("missing shard 9")), "{rendered:?}");
        assert!(rendered.iter().any(|v| v.contains("holds only")), "{rendered:?}");
        assert!(rendered.iter().any(|v| v.contains("still lists as live")), "{rendered:?}");
        assert!(rendered.iter().any(|v| v.contains("appears twice")), "{rendered:?}");
        assert!(rendered.iter().any(|v| v.contains("after the manifest epoch")), "{rendered:?}");
        fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn orphaned_shard_files_are_reported() {
        let root = temp_root("orphan");
        let manifest_path = fresh(&root, 1);
        fs::write(root.join("corpus.delta9.gksix"), b"debris").unwrap();
        let found = findings(&manifest_path);
        assert!(
            found
                .iter()
                .any(|v| matches!(v, ManifestViolation::OrphanShardFile { path } if path.ends_with("corpus.delta9.gksix"))),
            "{found:?}"
        );
        fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn maintain_compacts_at_the_threshold_even_after_a_failed_commit() {
        let root = temp_root("maintain");
        let manifest_path = fresh(&root, 1);
        let corpus = root.join("corpus");
        write_doc(&corpus, "delta", "<r><t>elderberry</t></r>");
        let tick = maintain(&manifest_path, Some(2));
        assert!(tick.changed() && matches!(tick.compaction, Ok(None)), "one delta, below 2");
        assert!(maintain(&manifest_path, Some(1)).compaction.unwrap().is_some(), "1 reaches 1");
        // A commit that fails (unparsable XML) does not skip the check: the
        // fold is attempted over the same broken corpus and fails too.
        write_doc(&corpus, "epsilon", "<r><t>fig</t></r>");
        assert!(maintain(&manifest_path, None).commit.unwrap().is_some());
        write_doc(&corpus, "broken", "<r><unclosed></r>");
        let tick = maintain(&manifest_path, Some(1));
        assert!(tick.commit.is_err() && tick.compaction.is_err(), "{tick:?}");
        fs::remove_dir_all(&root).ok();
    }
}
