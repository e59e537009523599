//! The [`DeweyId`] type and its prefix algebra.

use std::cmp::Ordering;
use std::fmt;
use std::str::FromStr;

/// A sibling ordinal within a Dewey path.
pub type Step = u32;

/// Identifier of one document within a corpus.
///
/// GKS search "is seamlessly expanded over multiple documents by prefixing
/// Dewey ids with corresponding document id" (paper §2.4); `DocId` is that
/// prefix.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct DocId(pub u32);

impl fmt::Display for DocId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// A Dewey identifier: a document id plus the path of sibling ordinals from
/// the document root down to the node.
///
/// The document root itself has an empty path. Ordering is document order:
/// first by [`DocId`], then lexicographically by path, with a prefix sorting
/// before all of its extensions — i.e. an ancestor sorts immediately before
/// its first descendant.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct DeweyId {
    doc: DocId,
    steps: Vec<Step>,
}

impl DeweyId {
    /// Creates an id from a document id and a path of sibling ordinals.
    pub fn new(doc: DocId, steps: Vec<Step>) -> Self {
        DeweyId { doc, steps }
    }

    /// The root of document `doc` (empty path).
    pub fn root(doc: DocId) -> Self {
        DeweyId { doc, steps: Vec::new() }
    }

    /// The document this node belongs to.
    pub fn doc(&self) -> DocId {
        self.doc
    }

    /// The sibling-ordinal path from the document root.
    pub fn steps(&self) -> &[Step] {
        &self.steps
    }

    /// Depth of the node: number of edges from the document root (the root
    /// has depth 0).
    pub fn depth(&self) -> usize {
        self.steps.len()
    }

    /// The last sibling ordinal, or `None` for a document root.
    pub fn last_step(&self) -> Option<Step> {
        self.steps.last().copied()
    }

    /// The parent id, or `None` for a document root.
    pub fn parent(&self) -> Option<DeweyId> {
        if self.steps.is_empty() {
            None
        } else {
            Some(DeweyId { doc: self.doc, steps: self.steps[..self.steps.len() - 1].to_vec() })
        }
    }

    /// The id of this node's `ordinal`-th child.
    pub fn child(&self, ordinal: Step) -> DeweyId {
        let mut steps = Vec::with_capacity(self.steps.len() + 1);
        steps.extend_from_slice(&self.steps);
        steps.push(ordinal);
        DeweyId { doc: self.doc, steps }
    }

    /// Returns `true` iff `self` is a **strict** ancestor of `other`
    /// (`self ≺a other` in the paper's notation).
    pub fn is_ancestor_of(&self, other: &DeweyId) -> bool {
        self.doc == other.doc
            && self.steps.len() < other.steps.len()
            && other.steps[..self.steps.len()] == self.steps[..]
    }

    /// Returns `true` iff `self` is an ancestor of `other` or equal to it
    /// (`self ⪯a other`).
    pub fn is_ancestor_or_self(&self, other: &DeweyId) -> bool {
        self == other || self.is_ancestor_of(other)
    }

    /// Longest common prefix of two ids — the Dewey id of their lowest common
    /// ancestor. `None` when the ids belong to different documents.
    pub fn common_prefix(&self, other: &DeweyId) -> Option<DeweyId> {
        if self.doc != other.doc {
            return None;
        }
        let n = self.steps.iter().zip(other.steps.iter()).take_while(|(a, b)| a == b).count();
        Some(DeweyId { doc: self.doc, steps: self.steps[..n].to_vec() })
    }

    /// Number of leading path steps shared with `other` in the same document,
    /// or `None` across documents. Cheaper than [`Self::common_prefix`] when
    /// only the length is needed.
    pub fn common_prefix_len(&self, other: &DeweyId) -> Option<usize> {
        if self.doc != other.doc {
            return None;
        }
        Some(self.steps.iter().zip(other.steps.iter()).take_while(|(a, b)| a == b).count())
    }

    /// The smallest id that sorts strictly after **every** node in the
    /// subtree rooted at `self`, so that the subtree occupies the half-open
    /// interval `[self, self.subtree_upper_bound())` in document order.
    ///
    /// Used to binary-search the contiguous subtree range of a candidate node
    /// within the sorted merged list `SL` (§4.1).
    pub fn subtree_upper_bound(&self) -> DeweyId {
        let mut steps = self.steps.clone();
        // Increment the last step; on overflow carry into the parent, and if
        // the carry escapes the root, move to the next document.
        loop {
            match steps.pop() {
                Some(s) if s < Step::MAX => {
                    steps.push(s + 1);
                    return DeweyId { doc: self.doc, steps };
                }
                Some(_) => continue, // carry
                None => {
                    return DeweyId { doc: DocId(self.doc.0 + 1), steps: Vec::new() };
                }
            }
        }
    }

    /// Iterates over the strict ancestors of this node, from the parent up to
    /// the document root.
    pub fn ancestors(&self) -> Ancestors<'_> {
        Ancestors { doc: self.doc, steps: &self.steps, len: self.steps.len() }
    }

    /// The ancestor-or-self at the given depth. Panics if `depth` exceeds the
    /// node's own depth.
    pub fn ancestor_at_depth(&self, depth: usize) -> DeweyId {
        assert!(depth <= self.steps.len(), "depth {depth} exceeds node depth");
        DeweyId { doc: self.doc, steps: self.steps[..depth].to_vec() }
    }
}

/// Iterator over strict ancestors, nearest first. See [`DeweyId::ancestors`].
#[derive(Debug)]
pub struct Ancestors<'a> {
    doc: DocId,
    steps: &'a [Step],
    len: usize,
}

impl Iterator for Ancestors<'_> {
    type Item = DeweyId;

    fn next(&mut self) -> Option<DeweyId> {
        if self.len == 0 {
            return None;
        }
        self.len -= 1;
        Some(DeweyId { doc: self.doc, steps: self.steps[..self.len].to_vec() })
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.len, Some(self.len))
    }
}

impl ExactSizeIterator for Ancestors<'_> {}

impl Ord for DeweyId {
    fn cmp(&self, other: &Self) -> Ordering {
        self.doc.cmp(&other.doc).then_with(|| self.steps.cmp(&other.steps))
    }
}

impl PartialOrd for DeweyId {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl fmt::Display for DeweyId {
    /// Formats as `doc:step.step.step`, e.g. `0:0.1.1.0`; a document root is
    /// `doc:` with an empty path.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:", self.doc)?;
        for (i, s) in self.steps.iter().enumerate() {
            if i > 0 {
                write!(f, ".")?;
            }
            write!(f, "{s}")?;
        }
        Ok(())
    }
}

/// Error produced when parsing a malformed Dewey id string.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseDeweyIdError(String);

impl fmt::Display for ParseDeweyIdError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid Dewey id: {}", self.0)
    }
}

impl std::error::Error for ParseDeweyIdError {}

impl FromStr for DeweyId {
    type Err = ParseDeweyIdError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let (doc, path) = s
            .split_once(':')
            .ok_or_else(|| ParseDeweyIdError(format!("missing ':' in {s:?}")))?;
        let doc: u32 = doc
            .parse()
            .map_err(|_| ParseDeweyIdError(format!("bad document id in {s:?}")))?;
        let steps = if path.is_empty() {
            Vec::new()
        } else {
            path.split('.')
                .map(|p| {
                    p.parse::<Step>()
                        .map_err(|_| ParseDeweyIdError(format!("bad step {p:?} in {s:?}")))
                })
                .collect::<Result<Vec<_>, _>>()?
        };
        Ok(DeweyId { doc: DocId(doc), steps })
    }
}
