//! The manifest audit behind `gks doctor` and the server's `/doctor`, and
//! the structural validation compaction runs before it trusts a document
//! table.
//!
//! A finding is a typed, printable [`ManifestViolation`], never a hard
//! error: [`audit_manifest`] reports every one it sees. The structural
//! checks ([`validate_manifest`]) are in memory and linear in the manifest;
//! the disk checks open each shard once.

use std::fmt;
use std::fs;
use std::path::{Path, PathBuf};

use crate::builder::GksIndex;
use crate::delta::{manifest_dir, manifest_stem};
use crate::error::IndexError;
use crate::fasthash::FastSet;
use crate::shard::ShardManifest;

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
pub(crate) fn validate_manifest(manifest: &ShardManifest) -> Vec<ManifestViolation> {
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
    // Hash sets keep the duplicate and liveness checks linear in the table.
    let mut names: FastSet<&str> = FastSet::default();
    let mut slots: FastSet<(u64, u32)> = FastSet::default();
    names.reserve(manifest.docs.len());
    slots.reserve(manifest.docs.len());
    for d in &manifest.docs {
        if !names.insert(d.name.as_str()) {
            out.push(ManifestViolation::DuplicateDocName { name: d.name.clone() });
        }
        if !slots.insert((d.shard, d.local)) {
            out.push(ManifestViolation::DuplicateDocSlot { shard: d.shard, local: d.local });
        }
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
        if slots.contains(&(t.shard, t.local)) {
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
    use crate::shard::{DocEntry, ShardEntry, ShardKind};

    /// An in-memory manifest of `count` documents over two base shards.
    fn manifest(count: u32) -> ShardManifest {
        let half = count / 2;
        let shard = |id: u64, doc_base: u32, doc_count: u32| ShardEntry {
            id,
            kind: ShardKind::Base,
            born: 0,
            path: PathBuf::from(format!("m.base0.{id}.gksix")),
            doc_base,
            doc_count,
            raw_bytes: 0,
            total_nodes: 0,
            distinct_terms: 0,
        };
        let docs = (0..count)
            .map(|i| DocEntry {
                shard: u64::from(i >= half),
                local: if i >= half { i - half } else { i },
                hash: u64::from(i),
                mtime_ms: 0,
                name: format!("doc{i:06}"),
            })
            .collect();
        ShardManifest {
            shards: vec![shard(0, 0, half), shard(1, half, count - half)],
            docs,
            ..ShardManifest::default()
        }
    }

    #[test]
    fn duplicates_far_apart_are_each_found_once() {
        let mut m = manifest(2_000);
        assert_eq!(validate_manifest(&m), []);
        // The last entry repeats the first one's name, and one in the middle
        // claims the slot of an entry near the start.
        let last = m.docs.len() - 1;
        m.docs[last].name = m.docs[0].name.clone();
        let (shard, local) = (m.docs[3].shard, m.docs[3].local);
        m.docs[1_000].shard = shard;
        m.docs[1_000].local = local;
        assert_eq!(
            validate_manifest(&m),
            [
                ManifestViolation::DuplicateDocSlot { shard, local },
                ManifestViolation::DuplicateDocName { name: "doc000000".into() },
            ]
        );
    }
}
