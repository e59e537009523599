//! The [`DeweyId`] type and its prefix algebra.

use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};
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

/// Steps an id stores in the value itself; a deeper path spills to one heap
/// slice. Six covers every posting and node of the flat corpora (DBLP,
/// SwissProt, Mondial, NASA; see DESIGN.md for the depth census) and is the
/// most that fits beside the document id in 32 bytes — the size the
/// `Vec`-backed id had. TreeBank-deep paths (~31 steps) spill.
const INLINE_STEPS: usize = 6;

/// Cap on the capacity reserved for a step count read from a file.
const MAX_PREALLOC_STEPS: usize = 1 << 8;

/// The two spellings of a path. Constructors store every path of at most
/// [`INLINE_STEPS`] steps inline, but nothing relies on that: equality,
/// order and hash read `(doc, steps())` only.
#[derive(Clone)]
enum Repr {
    Inline {
        doc: DocId,
        len: u8,
        steps: [Step; INLINE_STEPS],
    },
    Spilled {
        doc: DocId,
        steps: Box<[Step]>,
    },
}

/// A Dewey identifier: a document id plus the path of sibling ordinals from
/// the document root down to the node.
///
/// The document root itself has an empty path. Ordering is document order:
/// first by [`DocId`], then lexicographically by path, with a prefix sorting
/// before all of its extensions — i.e. an ancestor sorts immediately before
/// its first descendant.
///
/// Paths of up to six steps live in the value (no heap allocation to build,
/// clone, or take a prefix of one); deeper paths own one boxed slice.
#[derive(Clone)]
pub struct DeweyId(Repr);

const _: () = assert!(std::mem::size_of::<DeweyId>() <= 32);

impl DeweyId {
    /// Creates an id from a document id and a path of sibling ordinals.
    pub fn new(doc: DocId, steps: Vec<Step>) -> Self {
        if steps.len() <= INLINE_STEPS {
            Self::from_slice(doc, &steps)
        } else {
            DeweyId(Repr::Spilled { doc, steps: steps.into_boxed_slice() })
        }
    }

    /// Creates an id from a borrowed path, allocating only when the path is
    /// deeper than the inline capacity.
    pub fn from_slice(doc: DocId, steps: &[Step]) -> Self {
        match u8::try_from(steps.len()) {
            Ok(len) if steps.len() <= INLINE_STEPS => {
                let mut inline = [0; INLINE_STEPS];
                inline[..steps.len()].copy_from_slice(steps);
                DeweyId(Repr::Inline { doc, len, steps: inline })
            }
            _ => DeweyId(Repr::Spilled { doc, steps: steps.into() }),
        }
    }

    /// Builds an id of `len` steps drawn one at a time from `next`, failing
    /// with its first error. `len` may come from untrusted bytes: the spill
    /// buffer grows as steps actually arrive.
    pub(crate) fn try_from_fn<E>(
        doc: DocId,
        len: usize,
        mut next: impl FnMut() -> Result<Step, E>,
    ) -> Result<Self, E> {
        if len <= INLINE_STEPS {
            let mut inline = [0; INLINE_STEPS];
            for slot in &mut inline[..len] {
                *slot = next()?;
            }
            return Ok(Self::from_slice(doc, &inline[..len]));
        }
        let mut steps = Vec::with_capacity(len.min(MAX_PREALLOC_STEPS));
        for _ in 0..len {
            steps.push(next()?);
        }
        Ok(Self::new(doc, steps))
    }

    /// The root of document `doc` (empty path).
    pub fn root(doc: DocId) -> Self {
        Self::from_slice(doc, &[])
    }

    /// The document this node belongs to.
    pub fn doc(&self) -> DocId {
        match &self.0 {
            Repr::Inline { doc, .. } | Repr::Spilled { doc, .. } => *doc,
        }
    }

    /// The sibling-ordinal path from the document root.
    pub fn steps(&self) -> &[Step] {
        match &self.0 {
            // `min` keeps the slice in bounds without a panic path.
            Repr::Inline { len, steps, .. } => &steps[..usize::from(*len).min(INLINE_STEPS)],
            Repr::Spilled { steps, .. } => steps,
        }
    }

    /// Heap bytes owned beyond `size_of::<DeweyId>()`: zero for an inline
    /// path, four per step for a spilled one.
    pub fn heap_bytes(&self) -> usize {
        match &self.0 {
            Repr::Inline { .. } => 0,
            Repr::Spilled { steps, .. } => std::mem::size_of_val::<[Step]>(steps),
        }
    }

    /// Depth of the node: number of edges from the document root (the root
    /// has depth 0).
    pub fn depth(&self) -> usize {
        self.steps().len()
    }

    /// The last sibling ordinal, or `None` for a document root.
    pub fn last_step(&self) -> Option<Step> {
        self.steps().last().copied()
    }

    /// The parent id, or `None` for a document root.
    pub fn parent(&self) -> Option<DeweyId> {
        let (_, rest) = self.steps().split_last()?;
        Some(Self::from_slice(self.doc(), rest))
    }

    /// The id of this node's `ordinal`-th child.
    pub fn child(&self, ordinal: Step) -> DeweyId {
        let parent = self.steps();
        let n = parent.len();
        if n < INLINE_STEPS {
            let mut inline = [0; INLINE_STEPS];
            inline[..n].copy_from_slice(parent);
            inline[n] = ordinal;
            Self::from_slice(self.doc(), &inline[..=n])
        } else {
            let mut steps = Vec::with_capacity(n + 1);
            steps.extend_from_slice(parent);
            steps.push(ordinal);
            Self::new(self.doc(), steps)
        }
    }

    /// Returns `true` iff `self` is a **strict** ancestor of `other`
    /// (`self ≺a other` in the paper's notation).
    pub fn is_ancestor_of(&self, other: &DeweyId) -> bool {
        self.depth() < other.depth() && self.is_ancestor_or_self(other)
    }

    /// Returns `true` iff `self` is an ancestor of `other` or equal to it
    /// (`self ⪯a other`).
    pub fn is_ancestor_or_self(&self, other: &DeweyId) -> bool {
        self.doc() == other.doc() && other.steps().starts_with(self.steps())
    }

    /// Longest common prefix of two ids — the Dewey id of their lowest common
    /// ancestor. `None` when the ids belong to different documents.
    pub fn common_prefix(&self, other: &DeweyId) -> Option<DeweyId> {
        let n = self.common_prefix_len(other)?;
        Some(Self::from_slice(self.doc(), &self.steps()[..n]))
    }

    /// Number of leading path steps shared with `other` in the same document,
    /// or `None` across documents. Cheaper than [`Self::common_prefix`] when
    /// only the length is needed.
    pub fn common_prefix_len(&self, other: &DeweyId) -> Option<usize> {
        if self.doc() != other.doc() {
            return None;
        }
        Some(self.steps().iter().zip(other.steps()).take_while(|(a, b)| a == b).count())
    }

    /// The smallest id that sorts strictly after **every** node in the
    /// subtree rooted at `self`, so that the subtree occupies the half-open
    /// interval `[self, self.subtree_upper_bound())` in document order.
    ///
    /// Used to binary-search the contiguous subtree range of a candidate node
    /// within the sorted merged list `SL` (§4.1).
    pub fn subtree_upper_bound(&self) -> DeweyId {
        // Increment the last step; on overflow carry into the parent, and if
        // the carry escapes the root, move to the next document.
        let steps = self.steps();
        match steps.iter().rposition(|&s| s < Step::MAX) {
            Some(i) => Self::from_slice(self.doc(), &steps[..i]).child(steps[i] + 1),
            None => Self::root(DocId(self.doc().0 + 1)),
        }
    }

    /// Iterates over the strict ancestors of this node, from the parent up to
    /// the document root.
    pub fn ancestors(&self) -> Ancestors<'_> {
        Ancestors { doc: self.doc(), steps: self.steps() }
    }

    /// The ancestor-or-self at the given depth. Panics if `depth` exceeds the
    /// node's own depth.
    pub fn ancestor_at_depth(&self, depth: usize) -> DeweyId {
        assert!(depth <= self.depth(), "depth {depth} exceeds node depth");
        Self::from_slice(self.doc(), &self.steps()[..depth])
    }
}

impl fmt::Debug for DeweyId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("DeweyId")
            .field("doc", &self.doc())
            .field("steps", &self.steps())
            .finish()
    }
}

impl PartialEq for DeweyId {
    fn eq(&self, other: &Self) -> bool {
        self.doc() == other.doc() && self.steps() == other.steps()
    }
}

impl Eq for DeweyId {}

impl Hash for DeweyId {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.doc().hash(state);
        self.steps().hash(state);
    }
}

/// Iterator over strict ancestors, nearest first. See [`DeweyId::ancestors`].
#[derive(Debug)]
pub struct Ancestors<'a> {
    doc: DocId,
    /// The path of the last id yielded (initially the node's own).
    steps: &'a [Step],
}

impl Iterator for Ancestors<'_> {
    type Item = DeweyId;

    fn next(&mut self) -> Option<DeweyId> {
        let (_, rest) = self.steps.split_last()?;
        self.steps = rest;
        Some(DeweyId::from_slice(self.doc, rest))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.steps.len(), Some(self.steps.len()))
    }
}

impl ExactSizeIterator for Ancestors<'_> {}

impl Ord for DeweyId {
    fn cmp(&self, other: &Self) -> Ordering {
        self.doc().cmp(&other.doc()).then_with(|| self.steps().cmp(other.steps()))
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
        write!(f, "{}:", self.doc())?;
        for (i, s) in self.steps().iter().enumerate() {
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
        Ok(DeweyId::new(DocId(doc), steps))
    }
}
