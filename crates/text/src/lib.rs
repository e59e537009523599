//! Text analysis pipeline for GKS.
//!
//! The GKS indexing engine creates "a separate index entry … for each of the
//! keywords after stop words removal and stemming" (paper §2.4). This crate
//! provides the three stages of that pipeline:
//!
//! * [`tokenize`] — splits raw text-node content into lower-cased alphanumeric
//!   terms;
//! * [`stopwords`] — the classical English stop-word list used to drop
//!   non-discriminating terms;
//! * [`stem`] — a faithful implementation of the Porter stemming algorithm
//!   (Porter, 1980), the stemmer of choice of the era's XML keyword search
//!   prototypes;
//! * [`Analyzer`] — the composed pipeline with a configurable policy, used by
//!   both the indexer and the query parser so that query terms and indexed
//!   terms always normalize identically.

pub mod porter;
pub mod stopwords;
pub mod token;

pub use porter::stem;
pub use token::{tokenize, tokenize_into};

/// Configuration of the analysis pipeline.
///
/// Defaults mirror the paper: lower-casing, stop-word removal, Porter
/// stemming. Phrase keywords (quoted multi-word author names such as
/// `"Peter Buneman"` in the paper's queries) are handled one level up, by the
/// query parser; the analyzer always works term-by-term.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AnalyzerOptions {
    /// Drop terms found in the stop-word list.
    pub remove_stopwords: bool,
    /// Apply the Porter stemmer to each surviving term.
    pub stem: bool,
}

impl Default for AnalyzerOptions {
    fn default() -> Self {
        AnalyzerOptions { remove_stopwords: true, stem: true }
    }
}

/// The composed tokenize → stop → stem pipeline.
#[derive(Debug, Clone, Default)]
pub struct Analyzer {
    options: AnalyzerOptions,
}

impl Analyzer {
    /// Creates an analyzer with the given options.
    pub fn new(options: AnalyzerOptions) -> Self {
        Analyzer { options }
    }

    /// The options this analyzer was built with.
    pub fn options(&self) -> &AnalyzerOptions {
        &self.options
    }

    /// Normalizes a single already-isolated term (e.g. an XML element name or
    /// one word of a phrase keyword). Returns `None` if the term is filtered
    /// out by the stop list.
    pub fn normalize_term(&self, term: &str) -> Option<String> {
        let lowered = term.to_lowercase();
        let cleaned: String = lowered.chars().filter(|c| c.is_alphanumeric()).collect();
        if cleaned.is_empty() {
            return None;
        }
        self.analyze_token(&cleaned)
    }

    /// Analyses one token as [`tokenize_into`] yields it: `None` for a stop
    /// word, else the (stemmed) term. [`Self::analyze_into`] applies exactly
    /// this rule to every token, so an indexer may analyse each distinct
    /// token once.
    pub fn analyze_token(&self, tok: &str) -> Option<String> {
        if self.options.remove_stopwords && stopwords::is_stopword(tok) {
            return None;
        }
        Some(if self.options.stem {
            stem(tok)
        } else {
            tok.to_string()
        })
    }

    /// Runs the full pipeline over free text, returning the surviving terms
    /// in document order (duplicates preserved — the indexer decides whether
    /// to dedup per node).
    pub fn analyze(&self, text: &str) -> Vec<String> {
        let mut out = Vec::new();
        self.analyze_into(text, &mut out);
        out
    }

    /// Like [`Self::analyze`] but pushes into the caller's buffer, per the
    /// "workhorse collection" idiom.
    pub fn analyze_into(&self, text: &str, out: &mut Vec<String>) {
        tokenize_into(text, |tok| out.extend(self.analyze_token(tok)));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_pipeline_stops_and_stems() {
        let a = Analyzer::default();
        assert_eq!(
            a.analyze("The Databases are searched by the students"),
            vec!["databas", "search", "student"]
        );
    }

    #[test]
    fn pipeline_without_stemming() {
        let a = Analyzer::new(AnalyzerOptions { stem: false, ..Default::default() });
        assert_eq!(a.analyze("Efficient Keyword Search"), vec!["efficient", "keyword", "search"]);
    }

    #[test]
    fn pipeline_without_stopword_removal_keeps_the() {
        let a = Analyzer::new(AnalyzerOptions { remove_stopwords: false, ..Default::default() });
        assert!(a.analyze("the cat").contains(&"the".to_string()));
    }

    #[test]
    fn normalize_term_strips_punctuation_and_case() {
        let a = Analyzer::default();
        assert_eq!(a.normalize_term("Buneman,").as_deref(), Some("buneman"));
        assert_eq!(a.normalize_term("2001").as_deref(), Some("2001"));
        assert_eq!(a.normalize_term("the"), None);
        assert_eq!(a.normalize_term("—"), None);
    }

    #[test]
    fn numbers_and_mixed_tokens_survive() {
        let a = Analyzer::default();
        assert_eq!(a.analyze("SIGMOD 2001 vldb99"), vec!["sigmod", "2001", "vldb99"]);
    }

    #[test]
    fn query_and_index_normalization_agree() {
        // The indexer analyzes text nodes; the query parser normalizes each
        // query keyword. The two must meet on the same form.
        let a = Analyzer::default();
        let indexed = a.analyze("Relational Databases");
        let q1 = a.normalize_term("relational").unwrap();
        let q2 = a.normalize_term("Databases").unwrap();
        assert!(indexed.contains(&q1));
        assert!(indexed.contains(&q2));
    }
}
