//! DOM-based ground truth for property and integration tests.
//!
//! Independently of the index and the search engine, the oracle walks a
//! document tree and computes, for every element node, the exact set of
//! query keywords contained in its subtree — using the same Dewey ordinal
//! assignment, text analysis, and phrase (co-occurrence within one text
//! element) semantics as the indexer. Tests then check GKS responses against
//! these masks.

use gks_core::query::{Keyword, Query};
use gks_dewey::{DeweyId, DocId};
use gks_index::fasthash::{FastMap, FastSet};
use gks_index::{Corpus, IndexOptions};
use gks_text::Analyzer;
use gks_xml::{Document, Node};

/// Exact matched-keyword masks for every element node of a corpus.
#[derive(Debug)]
pub struct GroundTruth {
    /// Subtree keyword mask per node.
    pub masks: FastMap<DeweyId, u64>,
    /// Number of query keywords.
    pub n_keywords: usize,
}

impl GroundTruth {
    /// Computes ground truth for `query` over `corpus` under the same
    /// options the index was built with.
    pub fn compute(corpus: &Corpus, query: &Query, options: &IndexOptions) -> GroundTruth {
        let analyzer = Analyzer::new(options.analyzer_options());
        let keywords = query.normalized(&analyzer);
        let mut masks: FastMap<DeweyId, u64> = FastMap::default();
        for (i, doc) in corpus.docs().iter().enumerate() {
            let parsed = Document::parse(&doc.xml).expect("oracle corpus must be well-formed");
            walk(parsed.root(), DeweyId::root(DocId(i as u32)), &analyzer, &keywords, &mut masks);
        }
        GroundTruth { masks, n_keywords: keywords.len() }
    }

    /// Nodes whose subtree contains at least `s` distinct keywords, document
    /// order.
    pub fn qualifying(&self, s: usize) -> Vec<DeweyId> {
        let mut out: Vec<DeweyId> = self
            .masks
            .iter()
            .filter(|(_, m)| m.count_ones() as usize >= s)
            .map(|(d, _)| d.clone())
            .collect();
        out.sort_unstable();
        out
    }

    /// The mask of one node (0 for unknown nodes).
    pub fn mask(&self, node: &DeweyId) -> u64 {
        self.masks.get(node).copied().unwrap_or(0)
    }
}

/// Returns the subtree mask of `node`, filling `masks` for it and all
/// descendants.
fn walk(
    node: &Node,
    dewey: DeweyId,
    analyzer: &Analyzer,
    keywords: &[Keyword],
    masks: &mut FastMap<DeweyId, u64>,
) -> u64 {
    let mut mask = 0u64;

    // Element-name keyword.
    if let Some(term) = analyzer.normalize_term(node.name()) {
        mask |= match_units(keywords, &[term]);
    }

    // Direct text of this element, as one co-occurrence unit.
    let own_text: String = node
        .children()
        .iter()
        .filter(|c| !c.is_element())
        .map(|c| c.text())
        .collect::<Vec<_>>()
        .join(" ");
    let own_terms = analyzer.analyze(&own_text);
    if !own_terms.is_empty() {
        mask |= match_units(keywords, &own_terms);
    }

    let mut ordinal = 0u32;
    // Synthetic XML-attribute children come first, as in the indexer.
    for (name, value) in node.attributes() {
        let child_dewey = dewey.child(ordinal);
        ordinal += 1;
        let mut child_mask = 0u64;
        if let Some(term) = analyzer.normalize_term(name) {
            child_mask |= match_units(keywords, &[term]);
        }
        let terms = analyzer.analyze(value);
        if !terms.is_empty() {
            child_mask |= match_units(keywords, &terms);
        }
        masks.insert(child_dewey, child_mask);
        mask |= child_mask;
    }
    for child in node.children() {
        if child.is_element() {
            let child_dewey = dewey.child(ordinal);
            ordinal += 1;
            mask |= walk(child, child_dewey, analyzer, keywords, masks);
        }
    }

    masks.insert(dewey, mask);
    mask
}

/// Bit mask of keywords whose terms all appear in `unit_terms`.
fn match_units(keywords: &[Keyword], unit_terms: &[String]) -> u64 {
    let set: FastSet<&str> = unit_terms.iter().map(String::as_str).collect();
    let mut mask = 0u64;
    for (i, kw) in keywords.iter().enumerate() {
        if !kw.terms().is_empty() && kw.terms().iter().all(|t| set.contains(t.as_str())) {
            mask |= 1 << i;
        }
    }
    mask
}

#[cfg(test)]
mod tests {
    use super::*;
    use gks_core::search::{search, SearchOptions};
    use gks_index::GksIndex;

    const XML: &str = r#"<dblp>
        <article><title>Keyword Search</title>
            <author>Peter Buneman</author><author>Wenfei Fan</author></article>
        <article><title>Other Work</title><author>Peter Chen</author></article>
    </dblp>"#;

    fn setup(q: &str) -> (Corpus, GksIndex, Query, GroundTruth) {
        let corpus = Corpus::from_named_strs([("d", XML)]).unwrap();
        let options = IndexOptions::default();
        let ix = GksIndex::build(&corpus, options.clone()).unwrap();
        let query = Query::parse(q).unwrap();
        let gt = GroundTruth::compute(&corpus, &query, &options);
        (corpus, ix, query, gt)
    }

    #[test]
    fn masks_match_engine_hits() {
        let (_c, ix, q, gt) = setup(r#""Peter Buneman" "Wenfei Fan" search"#);
        let r = search(&ix, &q, SearchOptions::with_s(1)).unwrap();
        assert!(!r.hits().is_empty());
        for hit in r.hits() {
            assert_eq!(hit.keyword_mask, gt.mask(&hit.node), "mask for {}", hit.node);
        }
    }

    #[test]
    fn phrase_requires_same_text_unit() {
        // "Peter Fan" never co-occurs in one text node even though both
        // terms exist in the document.
        let (_c, _ix, _q, gt) = setup(r#""Peter Fan""#);
        let root = DeweyId::root(DocId(0));
        assert_eq!(gt.mask(&root), 0);
    }

    #[test]
    fn qualifying_is_upward_closed() {
        let (_c, _ix, _q, gt) = setup("peter buneman fan");
        for node in gt.qualifying(2) {
            if let Some(parent) = node.parent() {
                assert!(
                    gt.mask(&parent).count_ones() >= gt.mask(&node).count_ones(),
                    "parent mask shrank at {node}"
                );
            }
        }
    }
}
