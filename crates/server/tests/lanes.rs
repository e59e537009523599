//! The two request lanes over real sockets. A `/search` whose body the
//! result cache holds is answered on the reactor thread; a miss crosses the
//! admission queue to a worker. Whichever lane answers, the client sees the
//! same bytes in request order, and every sink counts the request once.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::io::{Read as _, Write as _};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

use gks_core::engine::Engine;
use gks_core::query::Query;
use gks_core::search::{SearchOptions, Threshold};
use gks_core::wire;
use gks_index::{split_corpus, Corpus, IndexOptions};
use gks_server::catalog::IndexSpec;
use gks_server::client::{parse_response, ClientResponse, HttpClient};
use gks_server::http::parse_request;
use gks_server::metrics::metric_value;
use gks_server::{serve_catalog, ServeConfig, Server, DEFAULT_LIMIT};

const TIMEOUT: Duration = Duration::from_secs(10);
const ENTRIES: [&str; 2] = ["flat", "sharded"];

/// The reference engine over the whole corpus, and a server with two
/// entries over the same corpus: `flat` (one engine) and `sharded` (two).
fn serve_entries(config: ServeConfig) -> (Arc<Engine>, Server) {
    let xml = gks_datagen::Dataset::Dblp.generate(200, 2016);
    let corpus = Corpus::from_named_strs([("a", xml.clone()), ("b", xml)]).unwrap();
    let flat = Arc::new(Engine::build(&corpus, IndexOptions::default()).unwrap());
    let shards: Vec<Arc<Engine>> = split_corpus(&corpus, 2)
        .iter()
        .map(|part| Arc::new(Engine::build(part, IndexOptions::default()).unwrap()))
        .collect();
    let specs = vec![
        IndexSpec::with_engine("flat", Arc::clone(&flat)),
        IndexSpec::with_shard_engines("sharded", shards),
    ];
    let config = ServeConfig { addr: "127.0.0.1:0".to_string(), ..config };
    (flat, serve_catalog(specs, None, config).unwrap())
}

/// What the in-memory engine answers for `/search?q=<q>&s=1` at the
/// server's default limit.
fn expected_body(engine: &Engine, q: &str) -> Vec<u8> {
    let options = SearchOptions { s: Threshold::parse("1").unwrap(), limit: DEFAULT_LIMIT };
    let response = engine.search(&Query::parse(q).unwrap(), options).unwrap();
    wire::search_response_json(engine, &response).into_bytes()
}

fn target(entry: &str, q: &str) -> String {
    format!("/ix/{entry}/search?q={}&s=1", q.replace(' ', "+"))
}

/// Sends every request in one `write`, then reads one
/// `Content-Length`-framed response per request.
fn pipeline(addr: SocketAddr, targets: &[String]) -> Vec<ClientResponse> {
    let mut stream = TcpStream::connect_timeout(&addr, TIMEOUT).unwrap();
    stream.set_read_timeout(Some(TIMEOUT)).unwrap();
    let heads: String = targets
        .iter()
        .map(|t| format!("GET {t} HTTP/1.1\r\nHost: gks\r\n\r\n"))
        .collect();
    stream.write_all(heads.as_bytes()).unwrap();
    let mut buf = Vec::new();
    let mut responses = Vec::new();
    let mut chunk = [0u8; 4096];
    while responses.len() < targets.len() {
        if let Some(end) = buf.windows(4).position(|w| w == b"\r\n\r\n") {
            let head = parse_response(&buf[..end + 4]).expect("response head parses");
            let total = end + 4 + head.header("content-length").unwrap().parse::<usize>().unwrap();
            if buf.len() >= total {
                let frame: Vec<u8> = buf.drain(..total).collect();
                responses.push(parse_response(&frame).unwrap());
                continue;
            }
        }
        let n = stream.read(&mut chunk).unwrap();
        assert!(n > 0, "connection closed after {} responses", responses.len());
        buf.extend_from_slice(&chunk[..n]);
    }
    responses
}

/// `/metrics` rendered in process: the scrape itself is no socket request,
/// so it adds nothing to the status, latency or `served` counts it reports.
fn metrics_text(server: &Server) -> String {
    let request = parse_request("GET /metrics HTTP/1.1\r\n\r\n").unwrap();
    String::from_utf8(server.state().handle(&request, Instant::now()).body.to_vec()).unwrap()
}

fn metric(text: &str, name: &str) -> i64 {
    metric_value(text, name).unwrap_or_else(|| panic!("{name} missing from:\n{text}"))
}

#[test]
fn pipelined_hits_and_misses_answer_in_order_across_lanes() {
    let (engine, server) = serve_entries(ServeConfig::default());
    let addr = server.local_addr();
    let (a, b) = ("keyword search", "xml data");
    for entry in ENTRIES {
        let warm = HttpClient::connect(addr, TIMEOUT).unwrap().get(&target(entry, a)).unwrap();
        assert_eq!(warm.header("x-gks-cache"), Some("miss"));

        // A is answered inline; B crosses to a worker, which retires the
        // socket with [A, B] still buffered; the reactor answers both.
        let targets = [target(entry, a), target(entry, b), target(entry, a), target(entry, b)];
        let responses = pipeline(addr, &targets);
        let expected = [a, b, a, b].map(|q| expected_body(&engine, q));
        let lanes: Vec<_> = responses.iter().map(|r| r.header("x-gks-cache")).collect();
        assert_eq!(lanes, [Some("hit"), Some("miss"), Some("hit"), Some("hit")], "{entry}");
        for (response, body) in responses.iter().zip(&expected) {
            assert_eq!(response.status, 200);
            assert_eq!(&response.body, body, "{entry}: HTTP body differs from the engine");
            assert_eq!(response.header("connection"), Some("keep-alive"));
            let shards = if entry == "sharded" { Some("2") } else { None };
            assert_eq!(response.header("x-gks-shards"), shards, "{entry}");
        }
    }
    let text = metrics_text(&server);
    assert_eq!(metric(&text, "gks_conn_reactor_hits_total"), 6, "three inline hits per entry");
    // Requests 2..=4 of each pipeline reused the socket, whichever lane
    // answered the one before.
    assert_eq!(metric(&text, "gks_conn_keepalive_requests_total"), 6);

    // A pipeline longer than one pass's inline budget: the overflow takes
    // the worker lane and the answers still arrive complete and in order.
    let responses = pipeline(addr, &vec![target("flat", a); 40]);
    let expected = expected_body(&engine, a);
    for response in &responses {
        assert_eq!(response.header("x-gks-cache"), Some("hit"));
        assert_eq!(response.body, expected);
    }
    server.shutdown();
}

/// K hits and M misses, spread over both entries, both lanes, fresh and
/// keep-alive connections. Returns (K, M).
fn drive_mix(addr: SocketAddr) -> (i64, i64) {
    let (mut hits, mut misses) = (0, 0);
    let mut keep_alive = HttpClient::connect(addr, TIMEOUT).unwrap();
    for entry in ENTRIES {
        for (i, q) in ["keyword search", "xml data", "query processing"].iter().enumerate() {
            for round in 0..3 {
                let path = target(entry, q);
                let response = if (i + round) % 2 == 0 {
                    keep_alive.get(&path).unwrap()
                } else {
                    gks_server::client::http_get(addr, &path, TIMEOUT).unwrap()
                };
                assert_eq!(response.status, 200);
                let timing = response.header("server-timing").unwrap_or_default();
                assert!(timing.contains("request;dur="), "request span on every answer");
                assert!(response.header("x-gks-micros").is_some());
                match response.header("x-gks-cache") {
                    Some("hit") => hits += 1,
                    Some("miss") => misses += 1,
                    other => panic!("x-gks-cache {other:?}"),
                }
            }
        }
    }
    (hits, misses)
}

#[test]
fn every_sink_counts_each_request_once_whichever_lane_answers() {
    let (_, server) = serve_entries(ServeConfig::default());
    let (k, m) = drive_mix(server.local_addr());
    assert_eq!((k, m), (12, 6), "first sight of each query misses, repeats hit");
    let text = metrics_text(&server);
    assert_eq!(metric(&text, "gks_requests{endpoint=\"search\"}"), k + m);
    assert_eq!(metric(&text, "gks_cache_hits_total"), k);
    assert_eq!(metric(&text, "gks_cache_misses_total"), m);
    assert_eq!(metric(&text, "gks_responses{class=\"2xx\"}"), k + m);
    assert_eq!(metric(&text, "gks_latency_micros_count"), k + m);
    assert_eq!(metric(&text, "gks_conn_reactor_hits_total"), k, "every hit answered inline");
    for entry in ENTRIES {
        assert_eq!(metric(&text, &format!("gks_index_requests_total{{index=\"{entry}\"}}")), 9);
        assert_eq!(metric(&text, &format!("gks_index_cache_hits_total{{index=\"{entry}\"}}")), 6);
    }
    assert_eq!(server.shutdown().served, (k + m) as u64);
}

#[test]
fn a_query_log_keeps_every_request_on_the_worker_lane() {
    let dir = std::env::temp_dir().join(format!("gks-lanes-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let log = dir.join("query.jsonl");
    let _ = std::fs::remove_file(&log);
    let config = ServeConfig { query_log: Some(log.clone()), ..ServeConfig::default() };
    let (_, server) = serve_entries(config);
    let (k, m) = drive_mix(server.local_addr());
    let text = metrics_text(&server);
    assert_eq!(metric(&text, "gks_conn_reactor_hits_total"), 0, "the lane rule");
    assert_eq!(metric(&text, "gks_cache_hits_total"), k);
    assert_eq!(server.shutdown().served, (k + m) as u64);
    let lines = std::fs::read_to_string(&log).unwrap().lines().count();
    assert_eq!(lines as i64, k + m, "one log line per request");
    let _ = std::fs::remove_dir_all(&dir);
}
