//! Failure-injection tests: the parser must never panic, whatever bytes it
//! is fed — malformed input yields `Err`, never UB or a crash.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use gks_xml::{Document, Reader};
use proptest::prelude::*;

/// Drains the reader fully, returning whether parsing succeeded.
fn drain(input: &str) -> bool {
    let mut r = Reader::new(input);
    loop {
        match r.next_event() {
            Ok(Some(_)) => {}
            Ok(None) => return true,
            Err(_) => return false,
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Arbitrary junk never panics the pull parser.
    #[test]
    fn arbitrary_input_never_panics(input in ".{0,200}") {
        let _ = drain(&input);
    }

    /// Markup-flavoured junk (lots of angle brackets and quotes) never
    /// panics either — this hits the tag/attribute parsing paths hard.
    #[test]
    fn markupish_input_never_panics(input in "[<>/=\"'a-z !\\[\\]\\-?&;#x0-9]{0,200}") {
        let _ = drain(&input);
        let _ = Document::parse(&input);
    }

    /// Truncating a valid document at any byte boundary yields a clean
    /// error or a clean prefix parse, never a panic.
    #[test]
    fn truncations_never_panic(cut in 0usize..120) {
        let xml = r#"<a x="1&amp;2"><!--c--><b><![CDATA[zz]]>text &#65;</b><c/></a>"#;
        let cut = cut.min(xml.len());
        // Only cut at a char boundary (ASCII here, so always true).
        let _ = drain(&xml[..cut]);
    }
}

#[test]
fn pathological_nesting_is_handled() {
    // 10_000 levels of nesting: must parse without stack overflow (the pull
    // parser's state is an explicit Vec, not recursion).
    let mut xml = String::new();
    for _ in 0..10_000 {
        xml.push_str("<d>");
    }
    xml.push('x');
    for _ in 0..10_000 {
        xml.push_str("</d>");
    }
    assert!(drain(&xml));
    // NOTE: Document::parse materializes a tree recursively in Drop, so the
    // DOM is only exercised at moderate depth here.
    let mut xml = String::new();
    for _ in 0..500 {
        xml.push_str("<d>");
    }
    for _ in 0..500 {
        xml.push_str("</d>");
    }
    assert!(Document::parse(&xml).is_ok());
}

#[test]
fn long_attribute_and_text_runs() {
    let big = "y".repeat(1 << 16);
    let xml = format!("<a k=\"{big}\">{big}</a>");
    assert!(drain(&xml));
}

#[test]
fn deeply_broken_entities_are_errors_not_panics() {
    for bad in ["<a>&;</a>", "<a>&#;</a>", "<a>&#xZZ;</a>", "<a>&unterminated", "<a k=\"&\"/>"] {
        assert!(!drain(bad), "{bad} should fail");
    }
}
