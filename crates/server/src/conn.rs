//! Per-connection state for the reactor: nonblocking read/write driving
//! and HTTP/1.1 request framing, with **no** timestamps or blocking calls
//! of its own — deadlines are enforced by the reactor, which passes every
//! `Instant` in, and all I/O here is single-shot against a socket already
//! in nonblocking mode (`WouldBlock` parks the connection instead of
//! pinning a thread).
//!
//! A connection is either [`ConnState::Reading`] (accumulating request
//! bytes; the framing is head terminator plus optional `Content-Length`)
//! or [`ConnState::Writing`] (flushing a serialized response). Fully-read
//! requests leave the reactor as [`WorkItem`]s; workers hand sockets back
//! as [`Retired`] values for the reactor to re-adopt.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Instant;

use crate::http::{self, Request};

/// How many body bytes may follow a request head. Heads and bodies share
/// one bound: [`http::MAX_REQUEST_BYTES`] caps the whole message.
fn total_message_len(head_end: usize, head: &str) -> usize {
    head_end + 2 + http::head_content_length(head).unwrap_or(0)
}

/// One reactor-owned connection's progress.
#[derive(Debug)]
pub(crate) enum ConnState {
    /// Accumulating a request. `started` is the reactor-stamped arrival of
    /// the first byte — the request's deadline anchor; `None` while the
    /// connection sits idle between keep-alive requests.
    Reading {
        buf: Vec<u8>,
        started: Option<Instant>,
    },
    /// Flushing a serialized response; `written` bytes are already out.
    Writing {
        buf: Vec<u8>,
        written: usize,
        /// Park back into `Reading` (with `residual`) after the flush, or
        /// close.
        keep_alive: bool,
        /// Bytes past the current request (pipelined follow-up) to seed the
        /// next `Reading` state.
        residual: Vec<u8>,
        /// Whether finishing this flush should count into `served` (false
        /// when a worker already counted it, or for admission rejects —
        /// which were never served requests).
        count_served: bool,
    },
}

/// What one readiness-driven read pass concluded.
#[derive(Debug)]
pub(crate) enum ReadOutcome {
    /// No full request yet; the socket would block.
    NeedMore,
    /// A complete request was framed; `residual` holds any bytes beyond it.
    Complete { request: Request, residual: Vec<u8> },
    /// The message exceeded [`http::MAX_REQUEST_BYTES`].
    TooLarge,
    /// The head arrived but is not parseable HTTP.
    Malformed(&'static str),
    /// The peer closed (EOF) or the socket failed.
    Closed,
}

/// Reads until a full request is framed, the socket would block, or the
/// connection dies. `buf` carries partial (and pipelined) bytes across
/// readiness events.
pub(crate) fn drive_read(stream: &mut TcpStream, buf: &mut Vec<u8>) -> ReadOutcome {
    let mut chunk = [0u8; 4096];
    loop {
        // Frame before reading: a keep-alive residual may already hold a
        // whole pipelined request.
        if let Some(end) = http::find_head_end(buf) {
            let head = String::from_utf8_lossy(&buf[..end]).into_owned();
            let total = total_message_len(end, &head);
            if total > http::MAX_REQUEST_BYTES {
                return ReadOutcome::TooLarge;
            }
            if buf.len() >= total {
                return match http::parse_request(&head) {
                    Ok(request) => {
                        ReadOutcome::Complete { request, residual: buf.split_off(total) }
                    }
                    Err(http::HttpError::Malformed(m)) => ReadOutcome::Malformed(m),
                };
            }
        } else if buf.len() >= http::MAX_REQUEST_BYTES {
            return ReadOutcome::TooLarge;
        }
        match stream.read(&mut chunk) {
            Ok(0) => return ReadOutcome::Closed,
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return ReadOutcome::NeedMore,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(_) => return ReadOutcome::Closed,
        }
    }
}

/// What one readiness-driven write pass concluded.
#[derive(Debug, PartialEq, Eq)]
pub(crate) enum WriteOutcome {
    /// Everything in the buffer is out.
    Done,
    /// The socket would block; `written` records the progress.
    Blocked,
    /// The peer is gone.
    Closed,
}

/// Writes as much of `buf[*written..]` as the socket accepts right now.
pub(crate) fn write_some(stream: &mut TcpStream, buf: &[u8], written: &mut usize) -> WriteOutcome {
    while *written < buf.len() {
        match stream.write(&buf[*written..]) {
            Ok(0) => return WriteOutcome::Closed,
            Ok(n) => *written += n,
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return WriteOutcome::Blocked,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(_) => return WriteOutcome::Closed,
        }
    }
    WriteOutcome::Done
}

/// A fully-read request leaving the reactor for the worker pool. The
/// worker owns the socket while it computes and writes the response, then
/// hands it back as a [`Retired`] (or drops it for `Connection: close`).
#[derive(Debug)]
pub(crate) struct WorkItem {
    pub stream: TcpStream,
    pub request: Request,
    /// Deadline anchor: when the request's first byte arrived.
    pub accepted_at: Instant,
    /// Pipelined bytes past this request, returned to the reactor with the
    /// socket.
    pub residual: Vec<u8>,
    /// How many requests this connection completed before this one (drives
    /// the keep-alive reuse counter).
    pub requests_served: u64,
}

/// A socket a worker hands back to the reactor.
#[derive(Debug)]
pub(crate) struct Retired {
    pub stream: TcpStream,
    pub kind: RetiredKind,
    /// Requests completed on this connection so far (including the one the
    /// worker just answered).
    pub requests_served: u64,
}

/// Why the socket came back.
#[derive(Debug)]
pub(crate) enum RetiredKind {
    /// Response fully written; park for the next keep-alive request.
    Idle { residual: Vec<u8> },
    /// Response partially written (the worker's nonblocking write hit
    /// `WouldBlock`); the reactor finishes the flush.
    Flush {
        buf: Vec<u8>,
        written: usize,
        keep_alive: bool,
        residual: Vec<u8>,
    },
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    /// A connected nonblocking socket pair over loopback.
    fn pair() -> (TcpStream, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (server, _) = listener.accept().unwrap();
        server.set_nonblocking(true).unwrap();
        (client, server)
    }

    #[test]
    fn frames_a_request_and_keeps_the_residual() {
        let (mut client, mut server) = pair();
        client
            .write_all(b"GET /a HTTP/1.1\r\n\r\nGET /b HTTP/1.1\r\nConnection: close\r\n\r\n")
            .unwrap();
        let mut buf = Vec::new();
        // Wait for the bytes to arrive on the nonblocking side.
        let deadline = Instant::now() + std::time::Duration::from_secs(2);
        loop {
            match drive_read(&mut server, &mut buf) {
                ReadOutcome::Complete { request, residual } => {
                    assert_eq!(request.path, "/a");
                    assert!(request.keep_alive);
                    let mut buf = residual;
                    match drive_read(&mut server, &mut buf) {
                        ReadOutcome::Complete { request, residual } => {
                            assert_eq!(request.path, "/b");
                            assert!(!request.keep_alive);
                            assert!(residual.is_empty());
                        }
                        other => panic!("pipelined request not framed: {other:?}"),
                    }
                    return;
                }
                ReadOutcome::NeedMore if Instant::now() < deadline => {
                    std::thread::sleep(std::time::Duration::from_millis(1));
                }
                other => panic!("unexpected outcome: {other:?}"),
            }
        }
    }

    #[test]
    fn partial_reads_park_and_resume() {
        let (mut client, mut server) = pair();
        client.write_all(b"GET /slow HT").unwrap();
        let mut buf = Vec::new();
        let deadline = Instant::now() + std::time::Duration::from_secs(2);
        // Drain what's there: must end in NeedMore, never an error.
        loop {
            match drive_read(&mut server, &mut buf) {
                ReadOutcome::NeedMore => break,
                ReadOutcome::Complete { .. } => panic!("framed a partial request"),
                other => {
                    assert!(Instant::now() < deadline, "stuck: {other:?}");
                }
            }
        }
        client.write_all(b"TP/1.1\r\n\r\n").unwrap();
        loop {
            match drive_read(&mut server, &mut buf) {
                ReadOutcome::Complete { request, .. } => {
                    assert_eq!(request.path, "/slow");
                    return;
                }
                ReadOutcome::NeedMore if Instant::now() < deadline => {
                    std::thread::sleep(std::time::Duration::from_millis(1));
                }
                other => panic!("unexpected outcome: {other:?}"),
            }
        }
    }

    #[test]
    fn oversized_messages_are_rejected() {
        let mut buf = vec![b'x'; http::MAX_REQUEST_BYTES];
        let (_client, mut server) = pair();
        match drive_read(&mut server, &mut buf) {
            ReadOutcome::TooLarge => {}
            other => panic!("expected TooLarge, got {other:?}"),
        }
        // A small head declaring an enormous body is equally rejected.
        let mut buf = b"GET / HTTP/1.1\r\nContent-Length: 999999\r\n\r\n".to_vec();
        let (_client, mut server) = pair();
        match drive_read(&mut server, &mut buf) {
            ReadOutcome::TooLarge => {}
            other => panic!("expected TooLarge, got {other:?}"),
        }
    }

    #[test]
    fn eof_reads_as_closed() {
        let (client, mut server) = pair();
        drop(client);
        let mut buf = Vec::new();
        let deadline = Instant::now() + std::time::Duration::from_secs(2);
        loop {
            match drive_read(&mut server, &mut buf) {
                ReadOutcome::Closed => return,
                ReadOutcome::NeedMore if Instant::now() < deadline => {
                    std::thread::sleep(std::time::Duration::from_millis(1));
                }
                other => panic!("unexpected outcome: {other:?}"),
            }
        }
    }
}
