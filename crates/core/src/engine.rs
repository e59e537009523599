//! The [`Engine`] facade: the three GKS modules of Figure 3 — indexing
//! engine, search engine, search-analysis engine — behind one handle.

use std::sync::Arc;

use gks_dewey::{DeweyId, DocId};
use gks_index::{Corpus, GksIndex, IndexError, IndexOptions};

use crate::analytics::{analyze, ResponseAnalytics};
use crate::chunk::render_xml_chunk;
use crate::di::{discover_di, recursive_di, DiOptions, DiRound, Insight};
use crate::error::QueryError;
use crate::query::Query;
use crate::refine::{refine, Refinement};
use crate::search::{search_masked, Hit, Response, SearchOptions};

/// A GKS engine over one indexed corpus.
///
/// ```
/// use gks_core::engine::Engine;
/// use gks_core::query::Query;
/// use gks_core::search::SearchOptions;
/// use gks_index::{Corpus, IndexOptions};
///
/// let xml = "<courses>\
///     <course><name>Mining</name><students>\
///         <student>Karen</student><student>Mike</student></students></course>\
///     <course><name>AI</name><students>\
///         <student>Karen</student><student>John</student></students></course>\
/// </courses>";
/// let corpus = Corpus::from_named_strs([("uni", xml)]).unwrap();
/// let engine = Engine::build(&corpus, IndexOptions::default()).unwrap();
/// let resp = engine
///     .search(&Query::parse("karen mike").unwrap(), SearchOptions::with_s(2))
///     .unwrap();
/// assert_eq!(engine.describe_node(&resp.hits()[0].node), "uni/course");
/// ```
#[derive(Debug)]
pub struct Engine {
    index: Arc<GksIndex>,
    /// Sorted local document ids masked out of every search — documents
    /// deleted or superseded by a delta shard (see `gks_index::delta`).
    /// Empty for an engine over a frozen index, and free when empty.
    tombstones: Vec<u32>,
}

impl Engine {
    /// Indexes a corpus (single-threaded) and wraps it.
    pub fn build(corpus: &Corpus, options: IndexOptions) -> Result<Engine, IndexError> {
        Ok(Engine::from_index(GksIndex::build(corpus, options)?))
    }

    /// Wraps an existing index (e.g. loaded via [`GksIndex::load`]).
    pub fn from_index(index: GksIndex) -> Engine {
        Engine { index: Arc::new(index), tombstones: Vec::new() }
    }

    /// Wraps a shared index with a tombstone mask: `tombstones` lists the
    /// local document ids to hide from every search. Sharing the `Arc`
    /// makes re-masking cheap — when a delta commit adds tombstones to an
    /// unchanged shard, the server builds a new `Engine` over the same
    /// loaded index instead of re-reading it from disk. The list is
    /// sorted/deduped here so searches can binary-search it.
    pub fn from_shared(index: Arc<GksIndex>, mut tombstones: Vec<u32>) -> Engine {
        tombstones.sort_unstable();
        tombstones.dedup();
        Engine { index, tombstones }
    }

    /// The underlying index.
    pub fn index(&self) -> &GksIndex {
        &self.index
    }

    /// The underlying index, shareable with another engine (re-masking).
    pub fn index_shared(&self) -> Arc<GksIndex> {
        Arc::clone(&self.index)
    }

    /// The sorted local document ids this engine masks out of searches.
    pub fn tombstones(&self) -> &[u32] {
        &self.tombstones
    }

    /// Runs a GKS search (§4), with this engine's tombstones masked out.
    pub fn search(&self, query: &Query, options: SearchOptions) -> Result<Response, QueryError> {
        search_masked(&self.index, &self.tombstones, query, options)
    }

    /// Extracts DI from a response (§6.2).
    pub fn discover_di(&self, response: &Response, options: &DiOptions) -> Vec<Insight> {
        discover_di(&self.index, response, options)
    }

    /// Recursive DI (§2.3): search → DI → re-query, `rounds` times.
    pub fn recursive_di(
        &self,
        query: &Query,
        search_options: SearchOptions,
        di_options: &DiOptions,
        rounds: usize,
    ) -> Result<Vec<DiRound>, QueryError> {
        recursive_di(&self.index, query, search_options, di_options, rounds)
    }

    /// Refinement suggestions from a response and its DI (§6.1).
    pub fn refine(&self, response: &Response, insights: &[Insight]) -> Refinement {
        refine(response, insights, 5)
    }

    /// Response analytics: entity-type group-bys and attribute facets over
    /// the answer set.
    pub fn analyze(&self, response: &Response) -> ResponseAnalytics {
        analyze(&self.index, response)
    }

    /// Human-readable node description: `docname/label`.
    pub fn describe_node(&self, node: &DeweyId) -> String {
        let doc = self.index.doc_name(node.doc()).unwrap_or("?");
        let label = self.index.node_table().label_name(node).unwrap_or("?");
        format!("{doc}/{label}")
    }

    /// The element labels along the path from the document root to `node`
    /// (inclusive) — an XPath-like location such as
    /// `["dblp", "inproceedings", "author"]`, with `"?"` for each depth the
    /// index does not record. One walk down the node table.
    pub fn node_path(&self, node: &DeweyId) -> Vec<String> {
        let table = self.index.node_table();
        table
            .path(node)
            .map(|meta| table.labels().name(meta.label))
            .chain(std::iter::repeat("?"))
            .take(node.depth() + 1)
            .map(str::to_string)
            .collect()
    }

    /// A short rendering of a hit: node description, Dewey id, matched
    /// keyword count, rank, and (for entity hits) up to three context
    /// attributes.
    pub fn render_hit(&self, hit: &Hit, response: &Response) -> String {
        let table = self.index.node_table();
        let doc = self.index.doc_name(hit.node.doc()).unwrap_or("?");
        let label = table.meta(hit.row).map_or("?", |meta| table.labels().name(meta.label));
        let mut out =
            format!("{doc}/{label} [{}] kws={} rank={:.3}", hit.node, hit.keyword_count, hit.rank);
        let attrs = self.index.attr_store().entries_at(hit.row);
        if !attrs.is_empty() {
            let shown: Vec<String> = attrs
                .iter()
                .take(3)
                .map(|e| {
                    let path: Vec<&str> = e.path.iter().map(|&l| table.labels().name(l)).collect();
                    format!("{}={}", path.join("."), e.value)
                })
                .collect();
            out.push_str(&format!(" {{{}}}", shown.join(", ")));
        }
        let matched = hit.matched_keywords(response.keywords());
        out.push_str(&format!(" matched={matched:?}"));
        out
    }

    /// Renders a hit as a well-constructed XML fragment (the paper's
    /// Figure 2(b) response shape). The writer error arm is unreachable for
    /// indexes built by this crate; see [`crate::chunk::render_xml_chunk`].
    pub fn render_xml_chunk(&self, hit: &Hit) -> Result<String, gks_xml::WriterError> {
        render_xml_chunk(&self.index, hit)
    }

    /// Name of an indexed document.
    pub fn doc_name(&self, doc: DocId) -> Option<&str> {
        self.index.doc_name(doc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::search::Threshold;
    use bytes::Mmap;

    fn engine() -> Engine {
        let xml = r#"<dblp>
            <article><title>Generic Keyword Search</title>
                <author>Manoj Agarwal</author><author>Krithi Ramamritham</author>
                <year>2016</year></article>
            <article><title>Holistic Twig Joins</title>
                <author>Nicolas Bruno</author><author>Divesh Srivastava</author>
                <year>2002</year></article>
        </dblp>"#;
        let corpus = Corpus::from_named_strs([("dblp", xml)]).unwrap();
        Engine::build(&corpus, IndexOptions::default()).unwrap()
    }

    #[test]
    fn end_to_end_search_di_refine() {
        let e = engine();
        let q = Query::parse(r#""Manoj Agarwal" "Divesh Srivastava""#).unwrap();
        let r = e
            .search(&q, SearchOptions { s: Threshold::Fixed(1), ..Default::default() })
            .unwrap();
        assert_eq!(r.hits().len(), 2, "one article per author");
        let di = e.discover_di(&r, &DiOptions::default());
        assert!(!di.is_empty());
        let refinement = e.refine(&r, &di);
        assert_eq!(refinement.sub_queries.len(), 2);
    }

    #[test]
    fn node_path_walks_labels() {
        let e = engine();
        let q = Query::parse("2016").unwrap();
        let r = e.search(&q, SearchOptions::default()).unwrap();
        assert_eq!(e.node_path(&r.hits()[0].node), vec!["dblp", "article"]);
    }

    #[test]
    fn describe_and_render() {
        let e = engine();
        let q = Query::parse("2016").unwrap();
        let r = e.search(&q, SearchOptions::default()).unwrap();
        let hit = &r.hits()[0];
        assert_eq!(e.describe_node(&hit.node), "dblp/article");
        let rendered = e.render_hit(hit, &r);
        assert!(rendered.contains("dblp/article"), "{rendered}");
        assert!(rendered.contains("2016"), "{rendered}");
    }

    #[test]
    fn from_index_round_trip() {
        let e = engine();
        let bytes = e.index().to_bytes_v3().unwrap().to_vec();
        let e2 = Engine::from_index(GksIndex::from_mapped(Arc::new(Mmap::from(bytes))).unwrap());
        let q = Query::parse("twig").unwrap();
        let r1 = e.search(&q, SearchOptions::default()).unwrap();
        let r2 = e2.search(&q, SearchOptions::default()).unwrap();
        assert_eq!(r1.hits().len(), r2.hits().len());
        assert_eq!(r1.hits()[0].node, r2.hits()[0].node);
    }
}
