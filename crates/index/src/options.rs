//! Index construction options.

use gks_text::AnalyzerOptions;

/// Options controlling how a corpus is indexed.
///
/// Two behaviours are fixed rather than optional: each XML attribute `k="v"`
/// becomes a child element `<k>v</k>` (data-oriented repositories like
/// Mondial carry most of their payload in attributes; the paper's tree model
/// has only elements and text), and element tag names are indexed as
/// keywords (the paper's queries mix tag names and text keywords, e.g.
/// QM2 = `{Laos, country, name}`).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct IndexOptions {
    /// Text normalization applied to text-node content, element names and
    /// (at query time, by the engine) query keywords.
    pub analyzer: AnalyzerOptions,
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
    }

    #[test]
    fn analyzer_options_mirror() {
        let o = IndexOptions::default();
        let a = o.analyzer_options();
        assert_eq!(a, AnalyzerOptions::default());
    }
}
