//! Property tests for the text pipeline.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use gks_text::{stem, stopwords, tokenize, tokenize_into, Analyzer, AnalyzerOptions};
use proptest::prelude::*;

/// Text drawn from the whole of Unicode, weighted towards separators, digits
/// and chars whose lower case is several chars ('İ', 'ẞ' is one, 'ǅ' a
/// title-case one) or depends on context in `str::to_lowercase` ('Σ').
fn arb_text() -> impl Strategy<Value = String> {
    let piece = (0u32..3, 0u32..0x11_0000, "[aZ İΣẞΩǄǅﬁ,.'0-9]").prop_map(|(pick, code, class)| {
        match (pick, char::from_u32(code)) {
            (0, Some(c)) => c.to_string(),
            _ => class,
        }
    });
    prop::collection::vec(piece, 0..48).prop_map(|pieces| pieces.concat())
}

/// The analyser options of `flags` (bit 0: stop words, bit 1: stemming).
fn options(flags: u32) -> AnalyzerOptions {
    AnalyzerOptions { remove_stopwords: flags & 1 != 0, stem: flags & 2 != 0 }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// The Porter stemmer never panics, never grows a word, and keeps the
    /// alphabet: lowercase ASCII in → lowercase ASCII out.
    #[test]
    fn stem_shrinks_and_stays_ascii(word in "[a-z]{1,24}") {
        let out = stem(&word);
        prop_assert!(out.len() <= word.len(), "{word} -> {out}");
        prop_assert!(!out.is_empty());
        prop_assert!(out.bytes().all(|b| b.is_ascii_lowercase()));
    }

    /// Non-ASCII and mixed inputs pass through unchanged (the stemmer only
    /// touches pure lowercase ASCII words).
    #[test]
    fn stem_passes_through_non_ascii(word in "[a-z0-9éü]{1,12}") {
        if !word.bytes().all(|b| b.is_ascii_lowercase()) {
            prop_assert_eq!(stem(&word), word);
        }
    }

    /// Tokenization never panics and produces lower-case alphanumeric
    /// tokens only.
    #[test]
    fn tokenize_output_is_clean(text in ".{0,80}") {
        for tok in tokenize(&text) {
            prop_assert!(!tok.is_empty());
            prop_assert!(tok.chars().all(char::is_alphanumeric), "{tok:?}");
            prop_assert_eq!(tok.to_lowercase(), tok.clone());
        }
    }

    /// Analyzer output is a subset-in-order of the tokenizer output after
    /// stemming — stop-word removal only deletes, never reorders.
    #[test]
    fn analyzer_preserves_order(text in "[a-zA-Z ,.;]{0,80}") {
        let analyzer = Analyzer::default();
        let analyzed = analyzer.analyze(&text);
        let all_stemmed: Vec<String> = tokenize(&text).iter().map(|t| stem(t)).collect();
        // `analyzed` must be a subsequence of `all_stemmed`.
        let mut it = all_stemmed.iter();
        for term in &analyzed {
            prop_assert!(
                it.any(|t| t == term),
                "{term:?} out of order: {analyzed:?} vs {all_stemmed:?}"
            );
        }
    }

    /// Normalizing a term twice is a no-op (queries can be re-normalized
    /// safely).
    #[test]
    fn normalize_term_idempotent_on_survivors(word in "[a-zA-Z]{1,16}") {
        let analyzer = Analyzer::default();
        if let Some(once) = analyzer.normalize_term(&word) {
            if let Some(twice) = analyzer.normalize_term(&once) {
                // Stemming may shrink again (Porter is not idempotent for
                // every word), but the result must be stable from there.
                let thrice = analyzer.normalize_term(&twice);
                prop_assert_eq!(thrice.as_deref(), Some(twice.as_str()));
            }
        }
    }

    /// Analysing token by token is analysing the text: an indexer that
    /// memoises `analyze_token` per distinct token posts exactly the terms
    /// `analyze_into` yields, under every option set.
    #[test]
    fn analyze_token_per_token_is_analyze_into(text in arb_text(), flags in 0u32..4) {
        let analyzer = Analyzer::new(options(flags));
        let mut whole = Vec::new();
        analyzer.analyze_into(&text, &mut whole);
        let mut per_token = Vec::new();
        tokenize_into(&text, |tok| per_token.extend(analyzer.analyze_token(tok)));
        prop_assert_eq!(&per_token, &whole);
        // The rule itself, spelled out independently.
        let spelled: Vec<String> = tokenize(&text)
            .into_iter()
            .filter(|t| !(flags & 1 != 0 && stopwords::is_stopword(t)))
            .map(|t| if flags & 2 != 0 { stem(&t) } else { t })
            .collect();
        prop_assert_eq!(per_token, spelled);
    }

    /// The tokenizer hands out the same tokens whether or not it copies:
    /// maximal alphanumeric runs, each char lower-cased on its own.
    #[test]
    fn tokenize_matches_per_char_lowering(text in arb_text()) {
        let mut expected = Vec::new();
        let mut run = String::new();
        for c in text.chars().chain(std::iter::once(' ')) {
            if c.is_alphanumeric() {
                run.extend(c.to_lowercase());
            } else if !run.is_empty() {
                expected.push(std::mem::take(&mut run));
            }
        }
        prop_assert_eq!(tokenize(&text), expected);
    }
}
