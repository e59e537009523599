//! Error types for query parsing and search.

use std::fmt;

/// Maximum keywords per query: matched-keyword sets are tracked as `u64`
/// bit masks. The paper's largest query has 16 keywords.
pub const MAX_KEYWORDS: usize = 64;

/// Errors from [`crate::query::Query::parse`] and search entry points.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QueryError {
    /// The query has no keywords after normalization (empty input, or all
    /// terms were stop words).
    Empty,
    /// More than [`MAX_KEYWORDS`] keywords.
    TooManyKeywords(usize),
    /// An unterminated quoted phrase.
    UnclosedQuote,
    /// `s` was 0 — the threshold must be at least 1.
    ZeroThreshold,
    /// The run of `term` fails to decode, or a posting names a node that no
    /// node-table row describes: the index is corrupt (`gks doctor` reports
    /// the run, or the unknown node).
    CorruptIndex {
        /// The normalized term, or a phrase's terms joined by spaces.
        term: String,
    },
}

impl fmt::Display for QueryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QueryError::Empty => write!(f, "query has no keywords after normalization"),
            QueryError::TooManyKeywords(n) => {
                write!(f, "query has {n} keywords; at most {MAX_KEYWORDS} are supported")
            }
            QueryError::UnclosedQuote => write!(f, "unterminated quoted phrase in query"),
            QueryError::ZeroThreshold => write!(f, "threshold s must be at least 1"),
            QueryError::CorruptIndex { term } => {
                write!(f, "the postings of {term:?} are unreadable: the index is corrupt")
            }
        }
    }
}

impl std::error::Error for QueryError {}
