//! Index construction options.

use gks_text::AnalyzerOptions;

/// Options controlling how a corpus is indexed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IndexOptions {
    /// Text normalization applied to text-node content, element names and
    /// (at query time, by the engine) query keywords.
    pub analyzer: AnalyzerOptions,
    /// Treat each XML attribute `k="v"` as a child element `<k>v</k>`.
    /// Data-oriented repositories like Mondial carry most of their payload in
    /// XML attributes; the paper's tree model has only elements and text, so
    /// this lifting (on by default) makes such data searchable.
    pub xml_attributes_as_elements: bool,
    /// Index element tag names as keywords. The paper's queries mix tag
    /// names and text keywords (e.g. QM2 = `{Laos, country, name}`).
    pub index_element_names: bool,
}

impl Default for IndexOptions {
    fn default() -> Self {
        IndexOptions {
            analyzer: AnalyzerOptions::default(),
            xml_attributes_as_elements: true,
            index_element_names: true,
        }
    }
}

impl IndexOptions {
    /// An owned copy of the analyzer options, ready for `Analyzer::new`.
    pub fn analyzer_options(&self) -> AnalyzerOptions {
        self.analyzer.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper_pipeline() {
        let o = IndexOptions::default();
        assert!(o.analyzer.remove_stopwords);
        assert!(o.analyzer.stem);
        assert!(o.xml_attributes_as_elements);
        assert!(o.index_element_names);
    }

    #[test]
    fn analyzer_options_mirror() {
        let o = IndexOptions::default();
        let a = o.analyzer_options();
        assert_eq!(a, AnalyzerOptions::default());
    }
}
