//! Tokenizer: splits raw text into lower-cased alphanumeric terms.
//!
//! A token is a maximal run of alphanumeric characters; everything else
//! (whitespace, punctuation, symbols) is a separator. Tokens are lower-cased
//! as they are produced. This matches how the paper's prototype treats the
//! text of a text node that "comprises multiple keywords" (§2.4).

use std::cell::Cell;

/// Calls `f` once per token, in order. Tokens are lower-cased.
///
/// The callback form avoids allocating a `Vec` for the common one-token case
/// in the indexer's inner loop. A token already in lower case is handed out
/// as a slice of `text`; only one with a char that lower-cases to something
/// else is copied, into a buffer each thread keeps across calls.
pub fn tokenize_into(text: &str, mut f: impl FnMut(&str)) {
    // Byte offset of the current token, and whether it needs lowering.
    let mut start: Option<usize> = None;
    let mut lower = false;
    for (i, c) in text.char_indices() {
        if c.is_alphanumeric() {
            if start.is_none() {
                start = Some(i);
                lower = false;
            }
            lower = lower || changes_case(c);
        } else if let Some(s) = start.take() {
            emit(&text[s..i], lower, &mut f);
        }
    }
    if let Some(s) = start {
        emit(&text[s..], lower, &mut f);
    }
}

thread_local! {
    static LOWERED: Cell<String> = const { Cell::new(String::new()) };
}

/// Does lower-casing change `c`? (It may also expand it, e.g. 'İ'.)
fn changes_case(c: char) -> bool {
    if c.is_ascii() {
        return c.is_ascii_uppercase();
    }
    let mut lower = c.to_lowercase();
    !(lower.next() == Some(c) && lower.next().is_none())
}

fn emit(token: &str, lower: bool, f: &mut impl FnMut(&str)) {
    if !lower {
        return f(token);
    }
    // Taken, not borrowed, so a callback that tokenizes again finds an
    // empty buffer instead of a conflict.
    let mut buf = LOWERED.take();
    buf.clear();
    buf.extend(token.chars().flat_map(char::to_lowercase));
    f(&buf);
    LOWERED.set(buf);
}

/// Returns all tokens of `text`, lower-cased, in order.
pub fn tokenize(text: &str) -> Vec<String> {
    let mut out = Vec::new();
    tokenize_into(text, |t| out.push(t.to_string()));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splits_on_punctuation_and_whitespace() {
        assert_eq!(
            tokenize("Third-Generation Database System Manifesto!"),
            vec!["third", "generation", "database", "system", "manifesto"]
        );
    }

    #[test]
    fn lowercases() {
        assert_eq!(tokenize("SIGMOD Record"), vec!["sigmod", "record"]);
    }

    #[test]
    fn keeps_digits_and_mixed_tokens() {
        assert_eq!(tokenize("year 2001, vldb99"), vec!["year", "2001", "vldb99"]);
    }

    #[test]
    fn empty_and_separator_only_inputs() {
        assert!(tokenize("").is_empty());
        assert!(tokenize("  ,;--  ").is_empty());
    }

    #[test]
    fn unicode_terms_survive() {
        assert_eq!(tokenize("Müller's Straße"), vec!["müller", "s", "straße"]);
    }

    #[test]
    fn a_callback_may_tokenize_again() {
        let mut inner = Vec::new();
        tokenize_into("Outer Words", |tok| {
            tokenize_into("Inner", |t| inner.push(t.to_string()));
            inner.push(tok.to_string());
        });
        assert_eq!(inner, vec!["inner", "outer", "inner", "words"]);
    }

    #[test]
    fn token_boundaries_at_string_edges() {
        assert_eq!(tokenize("a b"), vec!["a", "b"]);
        assert_eq!(tokenize("a"), vec!["a"]);
        assert_eq!(tokenize(" a "), vec!["a"]);
    }
}
