//! XML chunk rendering for hits.
//!
//! "GKS returns a well-constructed XML chunk" (paper §1.2, Example 2): an
//! entity hit is presented as an XML fragment rooted at the entity's label,
//! containing its context attributes with their full element paths — the
//! response shape of the paper's Figure 2(b). Entries sharing path prefixes
//! are merged, so three `<Student>` values render under one `<Students>`
//! wrapper.

use gks_index::GksIndex;
use gks_xml::{Writer, WriterError};

use crate::search::Hit;

/// Renders an entity hit as a pretty-printed XML fragment. Non-entity hits
/// (no stored attributes) render as an empty element with a comment noting
/// the matched node.
///
/// The writer calls are balanced by construction, so the `Err` arm is
/// unreachable in practice; it is propagated rather than unwrapped so a
/// future bug surfaces as a typed error, not a panic mid-search.
pub fn render_xml_chunk(index: &GksIndex, hit: &Hit) -> Result<String, WriterError> {
    let table = index.node_table();
    let label = table.meta(hit.row).map_or("node", |meta| table.labels().name(meta.label));
    let mut entries: Vec<(Vec<&str>, &str)> = index
        .attr_store()
        .entries_at(hit.row)
        .iter()
        .map(|e| {
            let path: Vec<&str> = e.path.iter().map(|&l| table.labels().name(l)).collect();
            (path, e.value)
        })
        .collect();
    // Stable order groups shared prefixes together; the sort is stable on
    // the original order for equal paths, preserving document order of
    // repeated values.
    entries.sort_by(|a, b| a.0.cmp(&b.0));

    let mut w = Writer::pretty();
    w.start(label, &[])?;
    // Open-element stack below the entity root, merged across entries.
    let mut open: Vec<&str> = Vec::new();
    for (path, value) in &entries {
        let (wrappers, leaf) = match path.split_last() {
            Some((leaf, wrappers)) => (wrappers, *leaf),
            None => continue,
        };
        // Close elements that diverge, open the missing ones.
        let shared = open.iter().zip(wrappers.iter()).take_while(|(a, b)| a == b).count();
        for _ in shared..open.len() {
            open.pop();
            w.end()?;
        }
        for name in &wrappers[shared..] {
            w.start(name, &[])?;
            open.push(name);
        }
        w.element_text(leaf, &[], value)?;
    }
    for _ in 0..open.len() {
        w.end()?;
    }
    w.end()?;
    w.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::Query;
    use crate::search::{search, SearchOptions};
    use gks_index::{Corpus, IndexOptions};

    fn course_hit() -> (GksIndex, Hit) {
        let xml = r#"<Area><Name>DB</Name><Courses>
            <Course><Name>Data Mining</Name><Students>
                <Student>Karen</Student><Student>Mike</Student></Students></Course>
            <Course><Name>AI</Name><Students>
                <Student>Karen</Student><Student>John</Student></Students></Course>
        </Courses></Area>"#;
        let corpus = Corpus::from_named_strs([("uni", xml)]).unwrap();
        let ix = GksIndex::build(&corpus, IndexOptions::default()).unwrap();
        let q = Query::parse("karen mike").unwrap();
        let r = search(&ix, &q, SearchOptions::with_s(2)).unwrap();
        let hit = r.hits()[0].clone();
        (ix, hit)
    }

    #[test]
    fn chunk_matches_figure_2b_shape() {
        let (ix, hit) = course_hit();
        let chunk = render_xml_chunk(&ix, &hit).unwrap();
        // Must be well-formed…
        let doc = gks_xml::Document::parse(&chunk).unwrap();
        assert_eq!(doc.root().name(), "Course");
        // …with the Name attribute and a single merged Students wrapper.
        assert_eq!(doc.root().find_all("Name").count(), 1);
        assert_eq!(doc.root().find_all("Students").count(), 1);
        let students: Vec<String> = doc.root().find_all("Student").map(|s| s.text()).collect();
        assert_eq!(students, vec!["Karen", "Mike"]);
    }

    #[test]
    fn chunk_for_attributeless_hit_is_still_well_formed() {
        let xml = "<r><a><w>solo</w><x><w>solo</w></x></a></r>";
        let corpus = Corpus::from_named_strs([("t", xml)]).unwrap();
        let ix = GksIndex::build(&corpus, IndexOptions::default()).unwrap();
        let q = Query::parse("solo").unwrap();
        let r = search(&ix, &q, SearchOptions::with_s(1)).unwrap();
        for hit in r.hits() {
            let chunk = render_xml_chunk(&ix, hit).unwrap();
            gks_xml::Document::parse(&chunk).unwrap();
        }
    }
}
