//! A minimal recursive-descent JSON parser for test assertions and tooling.
//!
//! The engine *emits* JSON through hand-rolled writers ([`crate::wire`],
//! `gks-trace`, the server's query log); this module is the matching
//! *reader*, so round-trip tests and the smoke tooling can verify that every
//! emitted line is well-formed and carries the required fields without an
//! external crate (the workspace builds offline).
//!
//! Scope: full JSON syntax as consumed by our own emitters — objects,
//! arrays, strings with `\uXXXX` and the short escapes, numbers (parsed as
//! `f64`), booleans, null. Not a general-purpose validator: numbers outside
//! `f64` range and duplicate object keys are accepted (last key wins), which
//! is fine for output we generate ourselves.

use std::collections::BTreeMap;

/// A parsed JSON value. Object keys are kept in a [`BTreeMap`] — emitted
/// documents are small and deterministic ordering helps test diffs.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number (integers included).
    Number(f64),
    /// A string, unescaped.
    String(String),
    /// An array.
    Array(Vec<Json>),
    /// An object.
    Object(BTreeMap<String, Json>),
}

impl Json {
    /// Parses one JSON document; trailing non-whitespace is an error.
    pub fn parse(input: &str) -> Result<Json, JsonError> {
        let bytes = input.as_bytes();
        let mut pos = 0;
        let value = parse_value(bytes, &mut pos)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(JsonError { at: pos, what: "trailing characters after document" });
        }
        Ok(value)
    }

    /// The value at `key` if this is an object containing it.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Object(map) => map.get(key),
            _ => None,
        }
    }

    /// This value as a string, if it is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::String(s) => Some(s),
            _ => None,
        }
    }

    /// This value as a number, if it is one.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Number(n) => Some(*n),
            _ => None,
        }
    }

    /// This value as a non-negative integer, if it is a number with no
    /// fractional part representable in `u64`.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Number(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= u64::MAX as f64 => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// This value as an array, if it is one.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Array(items) => Some(items),
            _ => None,
        }
    }

    /// This value as an object, if it is one.
    pub fn as_object(&self) -> Option<&BTreeMap<String, Json>> {
        match self {
            Json::Object(map) => Some(map),
            _ => None,
        }
    }
}

/// A parse failure: byte offset plus a static description.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset of the failure.
    pub at: usize,
    /// What went wrong.
    pub what: &'static str,
}

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "JSON parse error at byte {}: {}", self.at, self.what)
    }
}

impl std::error::Error for JsonError {}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while let Some(b) = bytes.get(*pos) {
        match b {
            b' ' | b'\t' | b'\n' | b'\r' => *pos += 1,
            _ => break,
        }
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize) -> Result<Json, JsonError> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        Some(b'{') => parse_object(bytes, pos),
        Some(b'[') => parse_array(bytes, pos),
        Some(b'"') => parse_string(bytes, pos).map(Json::String),
        Some(b't') => parse_literal(bytes, pos, b"true", Json::Bool(true)),
        Some(b'f') => parse_literal(bytes, pos, b"false", Json::Bool(false)),
        Some(b'n') => parse_literal(bytes, pos, b"null", Json::Null),
        Some(b'-' | b'0'..=b'9') => parse_number(bytes, pos),
        Some(_) => Err(JsonError { at: *pos, what: "unexpected character" }),
        None => Err(JsonError { at: *pos, what: "unexpected end of input" }),
    }
}

fn parse_literal(
    bytes: &[u8],
    pos: &mut usize,
    lit: &'static [u8],
    value: Json,
) -> Result<Json, JsonError> {
    if bytes[*pos..].starts_with(lit) {
        *pos += lit.len();
        Ok(value)
    } else {
        Err(JsonError { at: *pos, what: "invalid literal" })
    }
}

fn parse_object(bytes: &[u8], pos: &mut usize) -> Result<Json, JsonError> {
    *pos += 1; // '{'
    let mut map = BTreeMap::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Json::Object(map));
    }
    loop {
        skip_ws(bytes, pos);
        if bytes.get(*pos) != Some(&b'"') {
            return Err(JsonError { at: *pos, what: "expected object key" });
        }
        let key = parse_string(bytes, pos)?;
        skip_ws(bytes, pos);
        if bytes.get(*pos) != Some(&b':') {
            return Err(JsonError { at: *pos, what: "expected ':' after object key" });
        }
        *pos += 1;
        let value = parse_value(bytes, pos)?;
        map.insert(key, value);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Json::Object(map));
            }
            _ => return Err(JsonError { at: *pos, what: "expected ',' or '}' in object" }),
        }
    }
}

fn parse_array(bytes: &[u8], pos: &mut usize) -> Result<Json, JsonError> {
    *pos += 1; // '['
    let mut items = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Json::Array(items));
    }
    loop {
        items.push(parse_value(bytes, pos)?);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Json::Array(items));
            }
            _ => return Err(JsonError { at: *pos, what: "expected ',' or ']' in array" }),
        }
    }
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, JsonError> {
    *pos += 1; // opening '"'
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => return Err(JsonError { at: *pos, what: "unterminated string" }),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match bytes.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'u') => {
                        let code = parse_hex4(bytes, *pos + 1)?;
                        // Surrogate pairs: a high surrogate must be followed
                        // by an escaped low surrogate.
                        if (0xD800..0xDC00).contains(&code) {
                            if bytes.get(*pos + 5) == Some(&b'\\')
                                && bytes.get(*pos + 6) == Some(&b'u')
                            {
                                let low = parse_hex4(bytes, *pos + 7)?;
                                if !(0xDC00..0xE000).contains(&low) {
                                    return Err(JsonError {
                                        at: *pos,
                                        what: "invalid low surrogate",
                                    });
                                }
                                let c = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
                                out.push(char::from_u32(c).ok_or(JsonError {
                                    at: *pos,
                                    what: "invalid surrogate pair",
                                })?);
                                *pos += 10; // uXXXX\uXXXX
                                continue;
                            }
                            return Err(JsonError { at: *pos, what: "lone high surrogate" });
                        }
                        if (0xDC00..0xE000).contains(&code) {
                            return Err(JsonError { at: *pos, what: "lone low surrogate" });
                        }
                        out.push(
                            char::from_u32(code)
                                .ok_or(JsonError { at: *pos, what: "invalid \\u escape" })?,
                        );
                        *pos += 4; // the XXXX; 'u' advances below
                    }
                    _ => return Err(JsonError { at: *pos, what: "invalid escape" }),
                }
                *pos += 1;
            }
            Some(&b) if b < 0x20 => {
                return Err(JsonError { at: *pos, what: "raw control character in string" })
            }
            Some(_) => {
                // Copy one UTF-8 scalar (input is a &str, so boundaries are
                // valid by construction).
                let start = *pos;
                *pos += 1;
                while *pos < bytes.len() && bytes[*pos] & 0xC0 == 0x80 {
                    *pos += 1;
                }
                out.push_str(
                    std::str::from_utf8(&bytes[start..*pos])
                        .map_err(|_| JsonError { at: start, what: "invalid UTF-8 in string" })?,
                );
            }
        }
    }
}

fn parse_hex4(bytes: &[u8], at: usize) -> Result<u32, JsonError> {
    let mut code = 0u32;
    for i in 0..4 {
        let digit = bytes
            .get(at + i)
            .and_then(|b| char::from(*b).to_digit(16))
            .ok_or(JsonError { at: at + i, what: "bad \\u escape digits" })?;
        code = code * 16 + digit;
    }
    Ok(code)
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Json, JsonError> {
    let start = *pos;
    if bytes.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    while matches!(bytes.get(*pos), Some(b'0'..=b'9')) {
        *pos += 1;
    }
    if bytes.get(*pos) == Some(&b'.') {
        *pos += 1;
        while matches!(bytes.get(*pos), Some(b'0'..=b'9')) {
            *pos += 1;
        }
    }
    if matches!(bytes.get(*pos), Some(b'e' | b'E')) {
        *pos += 1;
        if matches!(bytes.get(*pos), Some(b'+' | b'-')) {
            *pos += 1;
        }
        while matches!(bytes.get(*pos), Some(b'0'..=b'9')) {
            *pos += 1;
        }
    }
    let text = std::str::from_utf8(&bytes[start..*pos])
        .map_err(|_| JsonError { at: start, what: "invalid number" })?;
    text.parse::<f64>()
        .map(Json::Number)
        .map_err(|_| JsonError { at: start, what: "invalid number" })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_nested_document() {
        let doc = r#"{"a":[1,2.5,-3],"b":{"c":true,"d":null},"e":"x\"y\né"}"#;
        let v = Json::parse(doc).unwrap();
        assert_eq!(v.get("a").and_then(Json::as_array).map(<[Json]>::len), Some(3));
        assert_eq!(v.get("a").unwrap().as_array().unwrap()[1].as_f64(), Some(2.5));
        assert_eq!(v.get("b").and_then(|b| b.get("c")), Some(&Json::Bool(true)));
        assert_eq!(v.get("b").and_then(|b| b.get("d")), Some(&Json::Null));
        assert_eq!(v.get("e").and_then(Json::as_str), Some("x\"y\né"));
    }

    #[test]
    fn u64_accessor_is_strict() {
        assert_eq!(Json::parse("42").unwrap().as_u64(), Some(42));
        assert_eq!(Json::parse("-1").unwrap().as_u64(), None);
        assert_eq!(Json::parse("1.5").unwrap().as_u64(), None);
        assert_eq!(Json::parse("\"42\"").unwrap().as_u64(), None);
    }

    #[test]
    fn surrogate_pairs_decode() {
        let v = Json::parse(r#""😀""#).unwrap();
        assert_eq!(v.as_str(), Some("😀"));
        assert!(Json::parse(r#""\ud83d""#).is_err(), "lone high surrogate");
        assert!(Json::parse(r#""\ude00""#).is_err(), "lone low surrogate");
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in ["", "{", "[1,", "{\"a\"}", "tru", "1 2", "\"\u{1}\"", "{\"a\":}", "nul"] {
            assert!(Json::parse(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn round_trips_wire_output() {
        // The wire writer escapes exactly what this parser unescapes.
        let mut out = String::new();
        crate::wire::push_json_str(&mut out, "a\"b\\c\nd\té\u{1}");
        let v = Json::parse(&out).unwrap();
        assert_eq!(v.as_str(), Some("a\"b\\c\nd\té\u{1}"));
    }
}
