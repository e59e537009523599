//! A deliberately minimal HTTP/1.1 subset on `std::net`, sufficient for the
//! query service: `GET` requests with query strings, fixed-length responses,
//! persistent connections with HTTP/1.1 keep-alive defaults (`Connection:
//! close` honored per message). No TLS, no chunked bodies — requests are
//! framed by the head terminator plus an optional `Content-Length`.
//!
//! Parsing is separated from socket I/O: the reactor frames a request with
//! `find_head_end` and [`head_content_length`] and hands the head to
//! [`parse_request`], so the router, the connection state machine and their
//! tests never need a socket. Routing ([`route_path`]) lives here too.

use std::sync::Arc;

use crate::metrics::Endpoint;

/// Largest accepted request head (request line + headers), in bytes.
/// Anything longer is rejected before buffering more — a resident service
/// must bound memory per connection.
pub const MAX_REQUEST_BYTES: usize = 16 * 1024;

/// A parsed HTTP request: method, decoded path, decoded query parameters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// Request method (`GET`, `HEAD`, …), uppercased by the parser.
    pub method: String,
    /// Percent-decoded path without the query string, e.g. `/search`.
    pub path: String,
    /// Percent-decoded query parameters in request order.
    pub params: Vec<(String, String)>,
    /// Whether the connection may carry another request after this one:
    /// the HTTP/1.1 default unless the client sent `Connection: close`
    /// (HTTP/1.0 inverts the default, opting in via `keep-alive`).
    pub keep_alive: bool,
}

impl Request {
    /// The first value of query parameter `name`, if present.
    pub fn param(&self, name: &str) -> Option<&str> {
        self.params.iter().find(|(k, _)| k == name).map(|(_, v)| v.as_str())
    }
}

/// Why a request could not be parsed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HttpError {
    /// The request line or headers are not valid HTTP.
    Malformed(&'static str),
}

impl std::fmt::Display for HttpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HttpError::Malformed(m) => write!(f, "malformed request: {m}"),
        }
    }
}

/// Decodes `%XX` escapes and `+`-as-space in a URL component. Invalid
/// escapes are passed through literally (never an error — a query keyword
/// containing a stray `%` should search for it, not fail the request).
pub fn percent_decode(s: &str) -> String {
    let bytes = s.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'+' => {
                out.push(b' ');
                i += 1;
            }
            b'%' => {
                let hex = bytes.get(i + 1..i + 3).and_then(|h| {
                    let hi = bytes_hex(h[0])?;
                    let lo = bytes_hex(h[1])?;
                    Some(hi * 16 + lo)
                });
                match hex {
                    Some(b) => {
                        out.push(b);
                        i += 3;
                    }
                    None => {
                        out.push(b'%');
                        i += 1;
                    }
                }
            }
            b => {
                out.push(b);
                i += 1;
            }
        }
    }
    String::from_utf8_lossy(&out).into_owned()
}

fn bytes_hex(b: u8) -> Option<u8> {
    match b {
        b'0'..=b'9' => Some(b - b'0'),
        b'a'..=b'f' => Some(b - b'a' + 10),
        b'A'..=b'F' => Some(b - b'A' + 10),
        _ => None,
    }
}

/// Percent-encodes a URL query component (RFC 3986 unreserved characters
/// pass through; everything else, including space, is `%XX`-escaped).
pub fn percent_encode(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for b in s.bytes() {
        match b {
            b'A'..=b'Z' | b'a'..=b'z' | b'0'..=b'9' | b'-' | b'.' | b'_' | b'~' => {
                out.push(b as char);
            }
            _ => {
                out.push('%');
                out.push(HEX_UPPER[usize::from(b >> 4)]);
                out.push(HEX_UPPER[usize::from(b & 0x0f)]);
            }
        }
    }
    out
}

const HEX_UPPER: [char; 16] =
    ['0', '1', '2', '3', '4', '5', '6', '7', '8', '9', 'A', 'B', 'C', 'D', 'E', 'F'];

/// Parses a raw request head (`GET /path?a=1 HTTP/1.1\r\n…`). Only the
/// `Connection` header is interpreted (for keep-alive); the rest are
/// accepted and discarded — the service keys off method, path, and query
/// string.
pub fn parse_request(head: &str) -> Result<Request, HttpError> {
    let request_line = head.lines().next().ok_or(HttpError::Malformed("empty request"))?;
    let mut parts = request_line.split_whitespace();
    let method = parts.next().ok_or(HttpError::Malformed("missing method"))?;
    let target = parts.next().ok_or(HttpError::Malformed("missing request target"))?;
    let version = parts.next().ok_or(HttpError::Malformed("missing HTTP version"))?;
    if !version.starts_with("HTTP/1.") {
        return Err(HttpError::Malformed("unsupported HTTP version"));
    }
    let (raw_path, raw_query) = match target.split_once('?') {
        Some((p, q)) => (p, Some(q)),
        None => (target, None),
    };
    let params = raw_query
        .map(|q| {
            q.split('&')
                .filter(|kv| !kv.is_empty())
                .map(|kv| match kv.split_once('=') {
                    Some((k, v)) => (percent_decode(k), percent_decode(v)),
                    None => (percent_decode(kv), String::new()),
                })
                .collect()
        })
        .unwrap_or_default();
    let http_11 = version != "HTTP/1.0";
    let keep_alive = match header_value(head, "connection") {
        Some(v) if v.eq_ignore_ascii_case("close") => false,
        Some(v) if v.eq_ignore_ascii_case("keep-alive") => true,
        _ => http_11,
    };
    Ok(Request {
        method: method.to_ascii_uppercase(),
        path: percent_decode(raw_path),
        params,
        keep_alive,
    })
}

/// The trimmed value of header `name` (ASCII case-insensitive) in a raw
/// request or response head, if present.
fn header_value<'h>(head: &'h str, name: &str) -> Option<&'h str> {
    head.lines().skip(1).find_map(|line| {
        let (k, v) = line.split_once(':')?;
        k.trim().eq_ignore_ascii_case(name).then(|| v.trim())
    })
}

/// The head's declared `Content-Length`, if any — how many body bytes
/// follow the head terminator (the reactor frames requests and
/// [`crate::client::HttpClient`] frames responses by it). Unparsable values
/// read as `None` (a request body, if real, then bleeds into the next
/// message and fails parsing there — acceptable for a GET-only service).
pub fn head_content_length(head: &str) -> Option<usize> {
    header_value(head, "content-length").and_then(|v| v.parse().ok())
}

/// Offset one past the head's final header line (i.e. up to and including
/// its closing `\r\n`, excluding the blank line); the full terminator ends
/// two bytes later and any body starts at `p + 2` beyond the returned
/// offset.
pub(crate) fn find_head_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n").map(|p| p + 2)
}

/// Normalizes a request path into its route form: duplicate slashes
/// collapse, trailing slashes drop (except the root itself), and ASCII case
/// folds — `/ix/DBLP//search/` and `/ix/dblp/search` are the same route and
/// therefore reach the same index and cache. Percent-decoding happened
/// upstream in the HTTP parser.
pub fn normalize_path(path: &str) -> String {
    let mut out = String::with_capacity(path.len() + 1);
    out.push('/');
    for segment in path.split('/').filter(|s| !s.is_empty()) {
        if !out.ends_with('/') {
            out.push('/');
        }
        for c in segment.chars() {
            out.push(c.to_ascii_lowercase());
        }
    }
    out
}

/// A routed request: which endpoint, and which index it explicitly
/// addressed (`None` means the catalog default).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Route {
    /// The endpoint the (suffix) path names.
    pub endpoint: Endpoint,
    /// Route key from an `/ix/<name>/…` prefix, if one was present.
    pub index: Option<String>,
}

/// Parses a request path into a [`Route`]: `/ix/<name>/<endpoint>` selects
/// index `<name>`, any other path addresses the default index. The path is
/// normalized first ([`normalize_path`]).
pub fn route_path(path: &str) -> Route {
    let normalized = normalize_path(path);
    if let Some(rest) = normalized.strip_prefix("/ix/") {
        return match rest.split_once('/') {
            Some((name, suffix)) if !name.is_empty() => Route {
                endpoint: Endpoint::of_path(&format!("/{suffix}")),
                index: Some(name.into()),
            },
            // `/ix/<name>` with no endpoint suffix, or `/ix//…`: addressed
            // an index but not an endpoint.
            _ => Route { endpoint: Endpoint::Other, index: None },
        };
    }
    Route { endpoint: Endpoint::of_path(&normalized), index: None }
}

/// An HTTP response ready to be written to a socket.
#[derive(Debug, Clone)]
pub struct HttpResponse {
    /// Status code, e.g. `200`.
    pub status: u16,
    /// `Content-Type` header value.
    pub content_type: &'static str,
    /// Response body bytes. Shared, so a result-cache body is copied only
    /// once, into the serialized buffer.
    pub body: Arc<[u8]>,
    /// Additional headers (name, value).
    pub headers: Vec<(&'static str, String)>,
}

impl HttpResponse {
    /// A JSON response.
    pub fn json(status: u16, body: impl Into<Vec<u8>>) -> HttpResponse {
        HttpResponse::shared_json(status, Arc::from(body.into()))
    }

    /// A JSON response over bytes someone else also holds — a result-cache
    /// entry goes out without a copy of its own.
    pub fn shared_json(status: u16, body: Arc<[u8]>) -> HttpResponse {
        HttpResponse { status, content_type: "application/json", body, headers: Vec::new() }
    }

    /// A plain-text response.
    pub fn text(status: u16, body: impl Into<Vec<u8>>) -> HttpResponse {
        HttpResponse {
            status,
            content_type: "text/plain; charset=utf-8",
            body: Arc::from(body.into()),
            headers: Vec::new(),
        }
    }

    /// A JSON error body `{"error": <message>}` with the given status.
    pub fn error(status: u16, message: &str) -> HttpResponse {
        let mut body = String::with_capacity(message.len() + 12);
        body.push_str("{\"error\":");
        gks_core::wire::push_json_str(&mut body, message);
        body.push('}');
        HttpResponse::json(status, body)
    }

    /// Adds a header, builder-style.
    pub fn with_header(mut self, name: &'static str, value: String) -> HttpResponse {
        self.headers.push((name, value));
        self
    }

    /// Serializes status line, headers, and body into one buffer, with an
    /// exact `Content-Length` and `Connection: keep-alive` or `close` as
    /// requested — the form the reactor's write path consumes.
    pub fn serialize(&self, keep_alive: bool) -> Vec<u8> {
        let mut head = format!(
            "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: {}\r\n",
            self.status,
            status_reason(self.status),
            self.content_type,
            self.body.len(),
            if keep_alive { "keep-alive" } else { "close" }
        );
        for (name, value) in &self.headers {
            head.push_str(name);
            head.push_str(": ");
            head.push_str(value);
            head.push_str("\r\n");
        }
        head.push_str("\r\n");
        let mut out = head.into_bytes();
        out.extend_from_slice(&self.body);
        out
    }
}

/// The canonical reason phrase for the status codes this service emits.
pub fn status_reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_request_line_and_params() {
        let r = parse_request("GET /search?q=karen+mike&s=2&limit=10 HTTP/1.1\r\nHost: x\r\n\r\n")
            .unwrap();
        assert_eq!(r.method, "GET");
        assert_eq!(r.path, "/search");
        assert_eq!(r.param("q"), Some("karen mike"));
        assert_eq!(r.param("s"), Some("2"));
        assert_eq!(r.param("limit"), Some("10"));
        assert_eq!(r.param("nope"), None);
    }

    #[test]
    fn percent_round_trip() {
        let raw = "\"Peter Buneman\" & co + 100%";
        assert_eq!(percent_decode(&percent_encode(raw)), raw);
        assert_eq!(percent_decode("a%20b%2Bc"), "a b+c");
        // Invalid escapes pass through instead of erroring.
        assert_eq!(percent_decode("100%zz"), "100%zz");
        assert_eq!(percent_decode("dangling%2"), "dangling%2");
    }

    #[test]
    fn keep_alive_defaults_follow_the_http_version() {
        let r = parse_request("GET / HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
        assert!(r.keep_alive, "HTTP/1.1 defaults to keep-alive");
        let r = parse_request("GET / HTTP/1.1\r\nConnection: close\r\n\r\n").unwrap();
        assert!(!r.keep_alive);
        let r = parse_request("GET / HTTP/1.1\r\nconnection:  CLOSE \r\n\r\n").unwrap();
        assert!(!r.keep_alive, "header name and value are case-insensitive");
        let r = parse_request("GET / HTTP/1.0\r\nHost: x\r\n\r\n").unwrap();
        assert!(!r.keep_alive, "HTTP/1.0 defaults to close");
        let r = parse_request("GET / HTTP/1.0\r\nConnection: keep-alive\r\n\r\n").unwrap();
        assert!(r.keep_alive, "HTTP/1.0 opts in explicitly");
    }

    #[test]
    fn content_length_framing() {
        assert_eq!(head_content_length("GET / HTTP/1.1\r\nContent-Length: 12\r\n"), Some(12));
        assert_eq!(head_content_length("GET / HTTP/1.1\r\ncontent-length:0\r\n"), Some(0));
        assert_eq!(head_content_length("GET / HTTP/1.1\r\nHost: x\r\n"), None);
        assert_eq!(head_content_length("GET / HTTP/1.1\r\nContent-Length: nope\r\n"), None);
    }

    #[test]
    fn serialize_controls_the_connection_header() {
        let keep = String::from_utf8(HttpResponse::json(200, "{}").serialize(true)).unwrap();
        assert!(keep.contains("Connection: keep-alive\r\n"), "{keep}");
        let close = String::from_utf8(HttpResponse::json(200, "{}").serialize(false)).unwrap();
        assert!(close.contains("Connection: close\r\n"), "{close}");
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse_request("").is_err());
        assert!(parse_request("GET /x").is_err());
        assert!(parse_request("GET /x SPDY/3\r\n\r\n").is_err());
    }

    #[test]
    fn response_serialization() {
        let out = HttpResponse::json(200, "{}")
            .with_header("x-gks-cache", "hit".to_string())
            .serialize(false);
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"), "{text}");
        assert!(text.contains("Content-Length: 2\r\n"), "{text}");
        assert!(text.contains("x-gks-cache: hit\r\n"), "{text}");
        assert!(text.ends_with("\r\n\r\n{}"), "{text}");
    }

    #[test]
    fn normalizer_collapses_slashes_case_and_trailers() {
        assert_eq!(normalize_path("/ix/dblp/search"), "/ix/dblp/search");
        assert_eq!(normalize_path("/ix/dblp//search"), "/ix/dblp/search");
        assert_eq!(normalize_path("/ix/DBLP/Search/"), "/ix/dblp/search");
        assert_eq!(normalize_path("//ix///dblp///search//"), "/ix/dblp/search");
        assert_eq!(normalize_path("/"), "/");
        assert_eq!(normalize_path(""), "/");
        assert_eq!(normalize_path("/debug/traces"), "/debug/traces");
    }

    #[test]
    fn routes_resolve_prefix_and_default() {
        let r = route_path("/ix/dblp/search");
        assert_eq!(r.endpoint, Endpoint::Search);
        assert_eq!(r.index.as_deref(), Some("dblp"));
        // Normalization variants are the same route.
        assert_eq!(route_path("/ix/DBLP//search/"), r);
        assert_eq!(route_path("/search"), Route { endpoint: Endpoint::Search, index: None });
        assert_eq!(
            route_path("/ix/nasa/debug/traces"),
            Route { endpoint: Endpoint::DebugTraces, index: Some("nasa".into()) }
        );
        assert_eq!(
            route_path("/ix/dblp/admin/compact"),
            Route { endpoint: Endpoint::AdminCompact, index: Some("dblp".into()) }
        );
        assert_eq!(route_path("/ix/dblp/nope").endpoint, Endpoint::Other);
        assert_eq!(route_path("/ix/dblp").endpoint, Endpoint::Other);
        assert_eq!(route_path("/ix//search").endpoint, Endpoint::Other);
    }

    #[test]
    fn error_body_is_json() {
        let r = HttpResponse::error(400, "no \"q\"");
        assert_eq!(String::from_utf8(r.body.to_vec()).unwrap(), "{\"error\":\"no \\\"q\\\"\"}");
    }
}
