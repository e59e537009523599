//! The pull parser.

use std::borrow::Cow;
use std::fmt;

use crate::escape::{unescape, EscapeError};

/// One parsed attribute of a start tag.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Attribute<'a> {
    /// Attribute name as written.
    pub name: &'a str,
    /// Attribute value with entities decoded.
    pub value: Cow<'a, str>,
}

/// A pull-parser event.
///
/// Self-closing tags (`<a/>`) are reported as a [`Event::Start`] immediately
/// followed by the matching [`Event::End`], so consumers never need a special
/// case.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Event<'a> {
    /// `<name attr="v" …>`
    Start {
        name: &'a str,
        attributes: Vec<Attribute<'a>>,
    },
    /// `</name>`
    End { name: &'a str },
    /// Character data (entities decoded, CDATA passed through verbatim).
    Text(Cow<'a, str>),
    /// `<!-- … -->` (content without the delimiters).
    Comment(&'a str),
    /// `<?target …?>` — processing instruction, excluding the XML declaration.
    Pi(&'a str),
    /// `<?xml version=…?>`
    Declaration(&'a str),
    /// `<!DOCTYPE …>` (skipped, not validated).
    Doctype(&'a str),
}

/// Parse error with the 1-based line and column where it was detected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct XmlError {
    /// What went wrong.
    pub kind: XmlErrorKind,
    /// 1-based line of the error.
    pub line: usize,
    /// 1-based column (in characters) of the error.
    pub column: usize,
}

/// The kinds of error the parser reports.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum XmlErrorKind {
    /// Input ended inside a construct.
    UnexpectedEof(&'static str),
    /// `</b>` closed `<a>`.
    MismatchedTag { expected: String, found: String },
    /// An end tag with no matching open element.
    UnmatchedEndTag(String),
    /// Tags still open at end of input.
    UnclosedTags(usize),
    /// A second element at the top level.
    MultipleRoots,
    /// Non-whitespace character data outside the root element.
    TextOutsideRoot,
    /// No root element at all.
    EmptyDocument,
    /// A malformed construct (tag syntax, attribute syntax, bad name, …).
    Malformed(String),
    /// Bad entity/character reference in text or attribute value.
    Escape(EscapeError),
}

impl fmt::Display for XmlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "XML error at {}:{}: ", self.line, self.column)?;
        match &self.kind {
            XmlErrorKind::UnexpectedEof(what) => write!(f, "unexpected end of input in {what}"),
            XmlErrorKind::MismatchedTag { expected, found } => {
                write!(f, "mismatched end tag: expected </{expected}>, found </{found}>")
            }
            XmlErrorKind::UnmatchedEndTag(name) => write!(f, "end tag </{name}> with no open tag"),
            XmlErrorKind::UnclosedTags(n) => write!(f, "{n} element(s) left open at end of input"),
            XmlErrorKind::MultipleRoots => write!(f, "more than one root element"),
            XmlErrorKind::TextOutsideRoot => write!(f, "character data outside the root element"),
            XmlErrorKind::EmptyDocument => write!(f, "no root element"),
            XmlErrorKind::Malformed(msg) => write!(f, "{msg}"),
            XmlErrorKind::Escape(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for XmlError {}

/// Streaming pull parser over an in-memory document.
///
/// ```
/// use gks_xml::{Event, Reader};
///
/// let mut r = Reader::new("<a><b>hi</b></a>");
/// assert!(matches!(r.next_event().unwrap(), Some(Event::Start { name: "a", .. })));
/// assert!(matches!(r.next_event().unwrap(), Some(Event::Start { name: "b", .. })));
/// assert!(matches!(r.next_event().unwrap(), Some(Event::Text(t)) if t == "hi"));
/// ```
#[derive(Debug)]
pub struct Reader<'a> {
    input: &'a str,
    pos: usize,
    /// Open-element stack for well-formedness checking.
    stack: Vec<&'a str>,
    /// Name of a self-closed element whose `End` is still owed.
    pending_end: Option<&'a str>,
    seen_root: bool,
    finished: bool,
}

impl<'a> Reader<'a> {
    /// Creates a reader over `input`. Whitespace-only text events are
    /// suppressed and other text is trimmed at both ends — the right
    /// behaviour for data-oriented XML with pretty-printing indentation.
    pub fn new(input: &'a str) -> Self {
        Reader {
            input,
            pos: 0,
            stack: Vec::new(),
            pending_end: None,
            seen_root: false,
            finished: false,
        }
    }

    /// Current depth of open elements.
    pub fn depth(&self) -> usize {
        self.stack.len()
    }

    /// Builds an [`XmlError`] of the given kind at the reader's current
    /// position — for callers layering structural checks on the event
    /// stream (e.g. the DOM builder).
    pub fn error_here(&self, kind: XmlErrorKind) -> XmlError {
        self.error(kind)
    }

    fn error(&self, kind: XmlErrorKind) -> XmlError {
        self.error_at(self.pos, kind)
    }

    fn error_at(&self, offset: usize, kind: XmlErrorKind) -> XmlError {
        let prefix = &self.input[..offset.min(self.input.len())];
        let line = prefix.bytes().filter(|&b| b == b'\n').count() + 1;
        let column = prefix.chars().rev().take_while(|&c| c != '\n').count() + 1;
        XmlError { kind, line, column }
    }

    fn rest(&self) -> &'a str {
        &self.input[self.pos..]
    }

    /// Pulls the next event, or `Ok(None)` at a well-formed end of input.
    #[allow(clippy::should_implement_trait)] // fallible, so not Iterator::next
    pub fn next_event(&mut self) -> Result<Option<Event<'a>>, XmlError> {
        if let Some(name) = self.pending_end.take() {
            self.stack.pop();
            return Ok(Some(Event::End { name }));
        }
        loop {
            if self.pos >= self.input.len() {
                return self.at_eof();
            }
            if self.rest().starts_with('<') {
                return self.parse_markup().map(Some);
            }
            // Character data up to the next markup.
            let start = self.pos;
            let end = self.rest().find('<').map_or(self.input.len(), |i| self.pos + i);
            self.pos = end;
            let slice = self.input[start..end].trim();
            if slice.is_empty() {
                continue; // inter-element whitespace
            }
            if self.stack.is_empty() {
                return Err(self.error_at(start, XmlErrorKind::TextOutsideRoot));
            }
            let text =
                unescape(slice).map_err(|e| self.error_at(start, XmlErrorKind::Escape(e)))?;
            return Ok(Some(Event::Text(text)));
        }
    }

    fn at_eof(&mut self) -> Result<Option<Event<'a>>, XmlError> {
        if !self.stack.is_empty() {
            return Err(self.error(XmlErrorKind::UnclosedTags(self.stack.len())));
        }
        if !self.seen_root && !self.finished {
            return Err(self.error(XmlErrorKind::EmptyDocument));
        }
        self.finished = true;
        Ok(None)
    }

    fn parse_markup(&mut self) -> Result<Event<'a>, XmlError> {
        let rest = self.rest();
        if let Some(body) = rest.strip_prefix("<!--") {
            let end = body
                .find("-->")
                .ok_or_else(|| self.error(XmlErrorKind::UnexpectedEof("comment")))?;
            let content = &body[..end];
            self.pos += 4 + end + 3;
            return Ok(Event::Comment(content));
        }
        if let Some(body) = rest.strip_prefix("<![CDATA[") {
            let end = body
                .find("]]>")
                .ok_or_else(|| self.error(XmlErrorKind::UnexpectedEof("CDATA section")))?;
            let content = &body[..end];
            self.pos += 9 + end + 3;
            if self.stack.is_empty() {
                return Err(self.error(XmlErrorKind::TextOutsideRoot));
            }
            return Ok(Event::Text(Cow::Borrowed(content)));
        }
        if rest.starts_with("<!DOCTYPE") || rest.starts_with("<!doctype") {
            return self.parse_doctype();
        }
        if let Some(body) = rest.strip_prefix("<?") {
            let end = body
                .find("?>")
                .ok_or_else(|| self.error(XmlErrorKind::UnexpectedEof("processing instruction")))?;
            let content = &body[..end];
            self.pos += 2 + end + 2;
            return Ok(if content.starts_with("xml") {
                Event::Declaration(content)
            } else {
                Event::Pi(content)
            });
        }
        if rest.starts_with("</") {
            return self.parse_end_tag();
        }
        self.parse_start_tag()
    }

    /// Skips `<!DOCTYPE …>`, honouring a bracketed internal subset.
    fn parse_doctype(&mut self) -> Result<Event<'a>, XmlError> {
        let body_start = self.pos + "<!DOCTYPE".len();
        let mut depth = 0usize;
        let bytes = self.input.as_bytes();
        let mut i = body_start;
        while i < bytes.len() {
            match bytes[i] {
                b'[' => depth += 1,
                b']' => depth = depth.saturating_sub(1),
                b'>' if depth == 0 => {
                    let content = self.input[body_start..i].trim();
                    self.pos = i + 1;
                    return Ok(Event::Doctype(content));
                }
                _ => {}
            }
            i += 1;
        }
        Err(self.error(XmlErrorKind::UnexpectedEof("DOCTYPE")))
    }

    fn parse_end_tag(&mut self) -> Result<Event<'a>, XmlError> {
        let body = &self.rest()[2..];
        let end = body
            .find('>')
            .ok_or_else(|| self.error(XmlErrorKind::UnexpectedEof("end tag")))?;
        let name = body[..end].trim_end();
        if !is_valid_name(name) {
            return Err(self.error(XmlErrorKind::Malformed(format!("bad end-tag name {name:?}"))));
        }
        self.pos += 2 + end + 1;
        match self.stack.pop() {
            Some(open) if open == name => Ok(Event::End { name }),
            Some(open) => Err(self.error(XmlErrorKind::MismatchedTag {
                expected: open.to_string(),
                found: name.to_string(),
            })),
            None => Err(self.error(XmlErrorKind::UnmatchedEndTag(name.to_string()))),
        }
    }

    fn parse_start_tag(&mut self) -> Result<Event<'a>, XmlError> {
        let tag_start = self.pos;
        let body = &self.rest()[1..]; // past '<'
                                      // Find the closing '>' respecting quoted attribute values.
        let bytes = body.as_bytes();
        let mut i = 0;
        let mut quote: Option<u8> = None;
        let tag_len = loop {
            if i >= bytes.len() {
                return Err(self.error(XmlErrorKind::UnexpectedEof("start tag")));
            }
            match (quote, bytes[i]) {
                (None, b'>') => break i,
                (None, b'"') => quote = Some(b'"'),
                (None, b'\'') => quote = Some(b'\''),
                (Some(q), b) if b == q => quote = None,
                _ => {}
            }
            i += 1;
        };
        let mut tag = &body[..tag_len];
        let self_closing = tag.ends_with('/');
        if self_closing {
            tag = &tag[..tag.len() - 1];
        }
        // Element name: up to the first whitespace.
        let name_end = tag.find(|c: char| c.is_whitespace()).unwrap_or(tag.len());
        let name = &tag[..name_end];
        if !is_valid_name(name) {
            return Err(self.error_at(
                tag_start,
                XmlErrorKind::Malformed(format!("bad element name {name:?}")),
            ));
        }
        let attributes = self.parse_attributes(&tag[name_end..], tag_start)?;
        if self.stack.is_empty() {
            if self.seen_root {
                return Err(self.error_at(tag_start, XmlErrorKind::MultipleRoots));
            }
            self.seen_root = true;
        }
        self.pos += 1 + tag_len + 1;
        self.stack.push(name);
        if self_closing {
            self.pending_end = Some(name);
        }
        Ok(Event::Start { name, attributes })
    }

    fn parse_attributes(
        &self,
        mut rest: &'a str,
        tag_start: usize,
    ) -> Result<Vec<Attribute<'a>>, XmlError> {
        let mut attrs = Vec::new();
        loop {
            rest = rest.trim_start();
            if rest.is_empty() {
                return Ok(attrs);
            }
            let eq = rest.find('=').ok_or_else(|| {
                self.error_at(
                    tag_start,
                    XmlErrorKind::Malformed(format!("attribute without '=': {rest:?}")),
                )
            })?;
            let name = rest[..eq].trim();
            if !is_valid_name(name) {
                return Err(self.error_at(
                    tag_start,
                    XmlErrorKind::Malformed(format!("bad attribute name {name:?}")),
                ));
            }
            let after_eq = rest[eq + 1..].trim_start();
            let quote = after_eq.chars().next().ok_or_else(|| {
                self.error_at(tag_start, XmlErrorKind::UnexpectedEof("attribute value"))
            })?;
            if quote != '"' && quote != '\'' {
                return Err(self.error_at(
                    tag_start,
                    XmlErrorKind::Malformed("attribute value must be quoted".to_string()),
                ));
            }
            let value_body = &after_eq[1..];
            let close = value_body.find(quote).ok_or_else(|| {
                self.error_at(tag_start, XmlErrorKind::UnexpectedEof("attribute value"))
            })?;
            let raw = &value_body[..close];
            let value =
                unescape(raw).map_err(|e| self.error_at(tag_start, XmlErrorKind::Escape(e)))?;
            attrs.push(Attribute { name, value });
            rest = &value_body[close + 1..];
        }
    }
}

/// A permissive XML `Name` check: letters/`_`/`:` first, then letters,
/// digits, `_`, `-`, `.`, `:`.
fn is_valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    match chars.next() {
        Some(c) if c.is_alphabetic() || c == '_' || c == ':' => {}
        _ => return false,
    }
    chars.all(|c| c.is_alphanumeric() || matches!(c, '_' | '-' | '.' | ':'))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn events(xml: &str) -> Result<Vec<Event<'_>>, XmlError> {
        let mut r = Reader::new(xml);
        let mut out = Vec::new();
        while let Some(ev) = r.next_event()? {
            out.push(ev);
        }
        Ok(out)
    }

    fn start(name: &str) -> Event<'_> {
        Event::Start { name, attributes: vec![] }
    }

    fn end(name: &str) -> Event<'_> {
        Event::End { name }
    }

    #[test]
    fn simple_document() {
        assert_eq!(
            events("<a><b>hi</b><c/></a>").unwrap(),
            vec![
                start("a"),
                start("b"),
                Event::Text("hi".into()),
                end("b"),
                start("c"),
                end("c"),
                end("a"),
            ]
        );
    }

    #[test]
    fn attributes_parsed_and_unescaped() {
        let evs = events(r#"<country car_code="AL" name='Alb &amp; ania'/>"#).unwrap();
        match &evs[0] {
            Event::Start { name, attributes } => {
                assert_eq!(*name, "country");
                assert_eq!(attributes[0].name, "car_code");
                assert_eq!(attributes[0].value, "AL");
                assert_eq!(attributes[1].name, "name");
                assert_eq!(attributes[1].value, "Alb & ania");
            }
            other => panic!("expected start, got {other:?}"),
        }
    }

    #[test]
    fn text_entities_decoded() {
        let evs = events("<t>a &lt; b &amp;&#x41;</t>").unwrap();
        assert_eq!(evs[1], Event::Text("a < b &A".into()));
    }

    #[test]
    fn whitespace_only_text_skipped() {
        let evs = events("<a>\n  <b>x</b>\n</a>").unwrap();
        assert_eq!(evs, vec![start("a"), start("b"), Event::Text("x".into()), end("b"), end("a")]);
    }

    #[test]
    fn text_is_trimmed_at_both_ends() {
        let mut r = Reader::new("<a> x </a>");
        r.next_event().unwrap();
        assert_eq!(r.next_event().unwrap(), Some(Event::Text("x".into())));
    }

    #[test]
    fn declaration_comment_doctype_pi() {
        let xml = "<?xml version=\"1.0\"?><!DOCTYPE dblp SYSTEM \"dblp.dtd\" [<!ENTITY x \"y\">]>\
                   <!-- hello --><a><?php echo ?></a>";
        let evs = events(xml).unwrap();
        assert!(matches!(evs[0], Event::Declaration(_)));
        assert!(matches!(evs[1], Event::Doctype(_)));
        assert_eq!(evs[2], Event::Comment(" hello "));
        assert!(matches!(&evs[4], Event::Pi(p) if p.starts_with("php")));
    }

    #[test]
    fn cdata_passes_verbatim() {
        let evs = events("<a><![CDATA[<not> & markup]]></a>").unwrap();
        assert_eq!(evs[1], Event::Text("<not> & markup".into()));
    }

    #[test]
    fn mismatched_tag_reported_with_position() {
        let err = events("<a>\n<b></a>").unwrap_err();
        assert!(matches!(err.kind, XmlErrorKind::MismatchedTag { .. }));
        assert_eq!(err.line, 2);
    }

    #[test]
    fn unclosed_tags_detected() {
        assert!(matches!(events("<a><b>").unwrap_err().kind, XmlErrorKind::UnclosedTags(2)));
    }

    #[test]
    fn unmatched_end_tag_detected() {
        assert!(matches!(
            events("<a></a></b>").unwrap_err().kind,
            XmlErrorKind::UnmatchedEndTag(_)
        ));
    }

    #[test]
    fn multiple_roots_rejected() {
        assert!(matches!(events("<a/><b/>").unwrap_err().kind, XmlErrorKind::MultipleRoots));
    }

    #[test]
    fn text_outside_root_rejected() {
        assert!(matches!(events("hello<a/>").unwrap_err().kind, XmlErrorKind::TextOutsideRoot));
        assert!(matches!(events("<a/>bye").unwrap_err().kind, XmlErrorKind::TextOutsideRoot));
    }

    #[test]
    fn empty_document_rejected() {
        assert!(matches!(events("").unwrap_err().kind, XmlErrorKind::EmptyDocument));
        assert!(matches!(events("<!-- only -->").unwrap_err().kind, XmlErrorKind::EmptyDocument));
    }

    #[test]
    fn bad_names_rejected() {
        assert!(matches!(events("<1a/>").unwrap_err().kind, XmlErrorKind::Malformed(_)));
        assert!(matches!(events("<a 1x=\"v\"/>").unwrap_err().kind, XmlErrorKind::Malformed(_)));
    }

    #[test]
    fn unquoted_attribute_rejected() {
        assert!(matches!(events("<a x=v/>").unwrap_err().kind, XmlErrorKind::Malformed(_)));
    }

    #[test]
    fn gt_inside_attribute_value_is_fine() {
        let evs = events(r#"<a x="1 > 0"/>"#).unwrap();
        match &evs[0] {
            Event::Start { attributes, .. } => assert_eq!(attributes[0].value, "1 > 0"),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn depth_tracks_open_elements() {
        let mut r = Reader::new("<a><b/></a>");
        r.next_event().unwrap();
        assert_eq!(r.depth(), 1);
        r.next_event().unwrap(); // <b> (self-closing start)
        assert_eq!(r.depth(), 2);
        r.next_event().unwrap(); // </b>
        assert_eq!(r.depth(), 1);
    }
}
