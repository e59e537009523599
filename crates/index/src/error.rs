//! Error type for index construction and persistence.

use std::fmt;
use std::io;

use gks_dewey::codec::DecodeError;
use gks_xml::XmlError;

/// Anything that can go wrong while building, saving or loading an index.
#[derive(Debug)]
pub enum IndexError {
    /// The underlying XML failed to parse; carries the document name.
    Xml { document: String, source: XmlError },
    /// Filesystem error while reading a corpus or persisting an index.
    Io(io::Error),
    /// A persisted index failed to decode.
    Corrupt(String),
    /// A persisted index has an incompatible format version: it was written
    /// by another build of this program and must be rebuilt from the XML.
    VersionMismatch { found: u32, expected: u32 },
    /// A shard manifest lists the same shard id twice.
    DuplicateShardId {
        /// The repeated id.
        id: u64,
        /// Path of the entry that claimed the id first.
        first: String,
        /// Path of the entry that repeated it.
        second: String,
    },
    /// A shard manifest's `doc_base` ranges overlap or leave a gap.
    ShardRange {
        /// Path of the offending shard entry.
        shard: String,
        /// The base the contiguous tiling requires at this position.
        expected_base: u32,
        /// The base the entry declares.
        found_base: u32,
    },
    /// An internal invariant did not hold during construction — a bug in
    /// this crate, reported as a typed error rather than a panic.
    Invariant(&'static str),
}

impl fmt::Display for IndexError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IndexError::Xml { document, source } => {
                write!(f, "in document {document:?}: {source}")
            }
            IndexError::Io(e) => write!(f, "I/O error: {e}"),
            IndexError::Corrupt(msg) => write!(f, "corrupt index: {msg}"),
            IndexError::VersionMismatch { found, expected } => {
                write!(f, "index format version {found}, expected {expected}; re-run `gks index`")
            }
            IndexError::DuplicateShardId { id, first, second } => {
                write!(f, "shard manifest repeats shard id {id}: first {first:?}, again {second:?}")
            }
            IndexError::ShardRange { shard, expected_base, found_base } => {
                write!(
                    f,
                    "shard {shard:?} declares doc_base {found_base} where the contiguous \
                     tiling requires {expected_base} (ranges overlap or leave a gap)"
                )
            }
            IndexError::Invariant(what) => {
                write!(f, "internal invariant violated: {what}")
            }
        }
    }
}

impl std::error::Error for IndexError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            IndexError::Xml { source, .. } => Some(source),
            IndexError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for IndexError {
    fn from(e: io::Error) -> Self {
        IndexError::Io(e)
    }
}

impl From<DecodeError> for IndexError {
    fn from(e: DecodeError) -> Self {
        IndexError::Corrupt(e.to_string())
    }
}
