//! A minimal blocking HTTP/1.1 client (GET, plus body-less POST for admin
//! endpoints) — just enough for the load generator, the CI smoke check, and
//! tests to talk to a running server without external dependencies.
//! [`http_get`]/[`http_post`] use one connection per request
//! (`Connection: close`); [`HttpClient`] holds a keep-alive connection and
//! frames responses by `Content-Length`, so many requests ride one socket.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

use crate::http::head_content_length;

/// A parsed response: status code, headers, body bytes.
#[derive(Debug)]
pub struct ClientResponse {
    /// HTTP status code.
    pub status: u16,
    /// Header name/value pairs, names lowercased.
    pub headers: Vec<(String, String)>,
    /// Response body.
    pub body: Vec<u8>,
}

impl ClientResponse {
    /// First value of `name` (case-insensitive), if present.
    pub fn header(&self, name: &str) -> Option<&str> {
        let name = name.to_ascii_lowercase();
        self.headers.iter().find(|(k, _)| *k == name).map(|(_, v)| v.as_str())
    }

    /// Body decoded as UTF-8 (lossy).
    pub fn body_text(&self) -> String {
        String::from_utf8_lossy(&self.body).into_owned()
    }
}

/// Issues `GET {target}` against `addr` and reads the full response.
/// `target` is the path + query string, e.g. `/search?q=twig&s=1`.
pub fn http_get(
    addr: SocketAddr,
    target: &str,
    timeout: Duration,
) -> std::io::Result<ClientResponse> {
    http_request("GET", addr, target, timeout)
}

/// Issues a body-less `POST {target}` against `addr` (the shape the
/// `/admin/reload` endpoint expects) and reads the full response.
pub fn http_post(
    addr: SocketAddr,
    target: &str,
    timeout: Duration,
) -> std::io::Result<ClientResponse> {
    http_request("POST", addr, target, timeout)
}

fn http_request(
    method: &str,
    addr: SocketAddr,
    target: &str,
    timeout: Duration,
) -> std::io::Result<ClientResponse> {
    let mut stream = TcpStream::connect_timeout(&addr, timeout)?;
    stream.set_read_timeout(Some(timeout))?;
    stream.set_write_timeout(Some(timeout))?;
    let request = format!(
        "{method} {target} HTTP/1.1\r\nHost: gks\r\nContent-Length: 0\r\nConnection: close\r\n\r\n"
    );
    stream.write_all(request.as_bytes())?;
    let mut raw = Vec::with_capacity(4096);
    stream.read_to_end(&mut raw)?;
    parse_response(&raw)
        .ok_or_else(|| std::io::Error::new(std::io::ErrorKind::InvalidData, "malformed response"))
}

/// A persistent keep-alive connection: requests are sent without
/// `Connection: close` and responses are framed by their `Content-Length`,
/// so the socket stays open across calls. A transport error poisons the
/// connection — drop it and connect again.
#[derive(Debug)]
pub struct HttpClient {
    stream: TcpStream,
    /// Bytes read past the last framed response (the start of the next one).
    buf: Vec<u8>,
}

impl HttpClient {
    /// Connects to `addr` with `timeout` applied to the connect and to
    /// every subsequent read/write.
    pub fn connect(addr: SocketAddr, timeout: Duration) -> std::io::Result<HttpClient> {
        let stream = TcpStream::connect_timeout(&addr, timeout)?;
        stream.set_read_timeout(Some(timeout))?;
        stream.set_write_timeout(Some(timeout))?;
        stream.set_nodelay(true)?;
        Ok(HttpClient { stream, buf: Vec::new() })
    }

    /// Issues `GET {target}` on the persistent connection and reads exactly
    /// one `Content-Length`-framed response.
    pub fn get(&mut self, target: &str) -> std::io::Result<ClientResponse> {
        let request = format!("GET {target} HTTP/1.1\r\nHost: gks\r\nContent-Length: 0\r\n\r\n");
        self.stream.write_all(request.as_bytes())?;
        self.read_response()
    }

    fn read_response(&mut self) -> std::io::Result<ClientResponse> {
        let mut chunk = [0u8; 4096];
        loop {
            if let Some(split) = self.buf.windows(4).position(|w| w == b"\r\n\r\n") {
                let content_length = std::str::from_utf8(&self.buf[..split])
                    .ok()
                    .and_then(head_content_length)
                    .ok_or_else(|| {
                        std::io::Error::new(
                            std::io::ErrorKind::InvalidData,
                            "keep-alive response lacks a content-length",
                        )
                    })?;
                let total = split + 4 + content_length;
                if self.buf.len() >= total {
                    let frame: Vec<u8> = self.buf.drain(..total).collect();
                    return parse_response(&frame).ok_or_else(|| {
                        std::io::Error::new(std::io::ErrorKind::InvalidData, "malformed response")
                    });
                }
            }
            let n = self.stream.read(&mut chunk)?;
            if n == 0 {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "server closed the keep-alive connection",
                ));
            }
            self.buf.extend_from_slice(&chunk[..n]);
        }
    }
}

/// Splits a raw HTTP/1.1 response into status, headers, and body. Returns
/// `None` when the status line or header block is malformed.
pub fn parse_response(raw: &[u8]) -> Option<ClientResponse> {
    let split = raw.windows(4).position(|w| w == b"\r\n\r\n")?;
    let head = std::str::from_utf8(&raw[..split]).ok()?;
    let body = raw[split + 4..].to_vec();
    let mut lines = head.split("\r\n");
    let status_line = lines.next()?;
    // "HTTP/1.1 200 OK" — the code is the second token.
    let status = status_line.split(' ').nth(1)?.parse().ok()?;
    let mut headers = Vec::new();
    for line in lines {
        let (name, value) = line.split_once(':')?;
        headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
    }
    Some(ClientResponse { status, headers, body })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_a_response() {
        let raw = b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nx-gks-cache: hit\r\n\r\n{\"a\":1}";
        let r = parse_response(raw).unwrap();
        assert_eq!(r.status, 200);
        assert_eq!(r.header("Content-Type"), Some("application/json"));
        assert_eq!(r.header("X-GKS-Cache"), Some("hit"));
        assert_eq!(r.body_text(), "{\"a\":1}");
    }

    #[test]
    fn content_length_is_read_from_the_head() {
        assert_eq!(head_content_length("HTTP/1.1 200 OK\r\nContent-Length: 12"), Some(12));
        assert_eq!(head_content_length("HTTP/1.1 200 OK\r\ncontent-length:3"), Some(3));
        assert_eq!(head_content_length("HTTP/1.1 200 OK\r\nX-Other: 1"), None);
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse_response(b"not http").is_none());
        assert!(parse_response(b"HTTP/1.1 abc\r\n\r\n").is_none());
    }
}
