//! End-to-end smoke tests over a real in-process server: concurrent load
//! through actual sockets, admission-control overload behaviour, and a
//! clean drain. This is the test the CI serve-smoke job mirrors with curl.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::sync::Arc;
use std::time::Duration;

use gks_core::engine::Engine;
use gks_index::{Corpus, IndexOptions};
use gks_server::client::http_get;
use gks_server::loadgen::{self, LoadgenConfig, WorkloadEntry};
use gks_server::metrics::metric_value;
use gks_server::{serve, ServeConfig};

fn dblp_engine() -> Arc<Engine> {
    let xml = gks_datagen::Dataset::Dblp.generate(300, 2016);
    let corpus = Corpus::from_named_strs([("dblp", xml)]).unwrap();
    Arc::new(Engine::build(&corpus, IndexOptions::default()).unwrap())
}

fn ephemeral_config() -> ServeConfig {
    ServeConfig { addr: "127.0.0.1:0".to_string(), ..ServeConfig::default() }
}

const TIMEOUT: Duration = Duration::from_secs(10);

#[test]
fn concurrent_load_is_clean_and_drains() {
    let server = serve(dblp_engine(), ephemeral_config()).unwrap();
    let addr = server.local_addr();

    // A skewed workload: a few hot queries dominate, so the LRU cache
    // must produce a majority of hits (the ISSUE's acceptance bar).
    let workload: Vec<WorkloadEntry> = [
        ("keyword search", "1"),
        ("xml data", "2"),
        ("query processing", "1"),
        ("agarwal", "1"),
        ("database systems", "half"),
        ("index structures", "1"),
        ("information retrieval", "2"),
        ("semistructured", "1"),
    ]
    .iter()
    .map(|(q, s)| WorkloadEntry { query: (*q).to_string(), s: (*s).to_string() })
    .collect();

    let config = LoadgenConfig {
        addr,
        clients: 8,
        requests_per_client: 50,
        zipf_s: 1.1,
        seed: 42,
        timeout: TIMEOUT,
        pacing: loadgen::Pacing::Closed,
        targets: Vec::new(),
        explain: true,
        keep_alive: false,
        connections: 0,
        slow_clients: 0,
    };
    let report = loadgen::run(&config, &workload);

    assert_eq!(report.total, 400);
    assert_eq!(report.transport_errors, 0, "no dropped connections under load");
    assert_eq!(report.server_errors, 0, "no unexpected 5xx: {report:?}");
    assert_eq!(report.client_errors, 0, "workload queries are all valid");
    assert_eq!(report.ok, 400);
    assert!(
        report.hit_rate() > 0.5,
        "zipf-skewed workload must be >50% cache hits, got {:.2}",
        report.hit_rate()
    );
    assert!(report.percentile(0.99) > 0, "latencies were recorded");
    // --explain: every engine run (cache miss) reported its cost summary,
    // so the report can state work per query alongside QPS.
    assert_eq!(
        report.work_postings.len() as u64,
        400 - report.cache_hits,
        "one work sample per engine run"
    );
    assert!(report.work_percentile(0.5) > 0, "queries scanned postings");
    assert!(report.render().contains("work p50"), "{}", report.render());

    // Metrics surface agrees with the client-side tally and is monotonic.
    let text = http_get(addr, "/metrics", TIMEOUT).unwrap().body_text();
    let searches = metric_value(&text, "gks_requests{endpoint=\"search\"}").unwrap();
    assert_eq!(searches, 400);
    let hits = metric_value(&text, "gks_cache_hits_total").unwrap();
    let misses = metric_value(&text, "gks_cache_misses_total").unwrap();
    assert_eq!(hits, i64::try_from(report.cache_hits).unwrap());
    assert_eq!(hits + misses, 400);
    assert_eq!(metric_value(&text, "gks_responses{class=\"5xx\"}"), Some(0));
    assert!(metric_value(&text, "gks_latency_micros_count").unwrap() >= 400);

    let later = http_get(addr, "/metrics", TIMEOUT).unwrap().body_text();
    let total_before = metric_value(&text, "gks_requests_total").unwrap();
    let total_after = metric_value(&later, "gks_requests_total").unwrap();
    assert!(total_after > total_before, "counters only move forward");

    let report = server.shutdown();
    assert!(report.accepted >= 402, "400 queries + 2 metrics scrapes");
    assert_eq!(report.rejected, 0);
    assert!(report.served >= 402);
}

#[test]
fn open_loop_paces_and_reports_send_lag() {
    let server = serve(dblp_engine(), ephemeral_config()).unwrap();
    let addr = server.local_addr();
    let workload = vec![WorkloadEntry { query: "keyword search".to_string(), s: "1".to_string() }];
    let config = LoadgenConfig {
        addr,
        clients: 4,
        requests_per_client: 25,
        zipf_s: 0.0,
        seed: 7,
        timeout: TIMEOUT,
        pacing: loadgen::Pacing::Open { rate_qps: 400.0 },
        targets: Vec::new(),
        explain: false,
        keep_alive: false,
        connections: 0,
        slow_clients: 0,
    };
    let report = loadgen::run(&config, &workload);
    assert_eq!(report.total, 100);
    assert_eq!(report.transport_errors, 0);
    assert_eq!(report.ok, 100);
    assert_eq!(report.send_lags_micros.len(), 100, "every request records its send lag");
    // 100 requests at 400 qps occupy a 250ms schedule; pacing must actually
    // stretch the run to roughly that (closed loop on localhost would
    // finish far faster).
    assert!(
        report.elapsed >= Duration::from_millis(200),
        "open loop must honour the schedule, finished in {:?}",
        report.elapsed
    );
    assert!(report.render().contains("send lag p50"));
    server.shutdown();
}

#[test]
fn overload_rejects_with_503_and_retry_after() {
    // One worker, one queue slot. Under the old blocking design an *idle*
    // connection wedged the worker; the reactor now parks those for free,
    // so overload means a burst of COMPLETE requests outrunning the pool.
    let config = ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 1,
        queue_depth: 1,
        deadline: Duration::from_secs(2),
        ..ServeConfig::default()
    };
    let server = serve(dblp_engine(), config).unwrap();
    let addr = server.local_addr();

    // Slowloris immunity first: connections that never finish their request
    // head used to consume the worker; now a real request sails past them.
    let _idle = std::net::TcpStream::connect_timeout(&addr, TIMEOUT).unwrap();
    let mut slow = std::net::TcpStream::connect_timeout(&addr, TIMEOUT).unwrap();
    use std::io::Write as _;
    slow.write_all(b"GET /search?q=stall HTTP/1.1\r\nHost: gks\r\n").unwrap();
    let healthy = http_get(addr, "/healthz", TIMEOUT).unwrap();
    assert_eq!(healthy.status, 200, "parked readers must not starve the worker");

    // Now saturate for real: bursts of simultaneous requests against a
    // worker+queue capacity of 2. Distinct queries dodge the result cache,
    // and the reactor dispatches a whole poll round before the single
    // worker runs, so some dispatch must fail admission with a 503.
    let mut rejected = 0u64;
    'rounds: for round in 0..5 {
        let probes: Vec<_> = (0..24)
            .map(|i| {
                std::thread::spawn(move || {
                    http_get(addr, &format!("/search?q=burst{round}x{i}&s=1"), TIMEOUT)
                })
            })
            .collect();
        for probe in probes {
            if let Ok(Ok(response)) = probe.join() {
                if response.status == 503 {
                    assert_eq!(response.header("retry-after"), Some("1"));
                    rejected += 1;
                }
            }
        }
        if rejected > 0 {
            break 'rounds;
        }
    }
    assert!(rejected > 0, "admission control must shed load");

    // Once the burst clears, service recovers.
    let ok = (0..20).any(|_| {
        std::thread::sleep(Duration::from_millis(100));
        http_get(addr, "/healthz", TIMEOUT).is_ok_and(|r| r.status == 200)
    });
    assert!(ok, "server must recover after overload");

    let report = server.shutdown();
    assert!(report.rejected >= rejected, "rejects show up in the drain report");
}

#[test]
fn admission_sheds_misses_but_answers_hits() {
    // The shape of the overload test: a burst of distinct misses outruns a
    // worker+queue capacity of 2. A warmed query needs no queue slot — the
    // reactor answers it from the cache even while the queue is full.
    let config = ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 1,
        queue_depth: 1,
        deadline: Duration::from_secs(2),
        ..ServeConfig::default()
    };
    let server = serve(dblp_engine(), config).unwrap();
    let addr = server.local_addr();
    let warmed = "/search?q=keyword+search&s=1";
    assert_eq!(http_get(addr, warmed, TIMEOUT).unwrap().header("x-gks-cache"), Some("miss"));

    let mut rejected = 0u64;
    for round in 0..5 {
        let probes: Vec<_> = (0..24)
            .map(|i| {
                let path = if i % 3 == 0 {
                    warmed.to_string()
                } else {
                    format!("/search?q=shed{round}x{i}&s=1")
                };
                std::thread::spawn(move || (i % 3 == 0, http_get(addr, &path, TIMEOUT)))
            })
            .collect();
        for probe in probes {
            let (warm, response) = probe.join().unwrap();
            let response = response.expect("every request is answered");
            if warm {
                assert_eq!(response.status, 200, "a hit is never shed");
                assert_eq!(response.header("x-gks-cache"), Some("hit"));
            } else if response.status == 503 {
                assert_eq!(response.header("retry-after"), Some("1"));
                rejected += 1;
            }
        }
        if rejected > 0 {
            break;
        }
    }
    assert!(rejected > 0, "admission control must still shed misses");
    let text = http_get(addr, "/metrics", TIMEOUT).unwrap().body_text();
    assert!(metric_value(&text, "gks_conn_reactor_hits_total").unwrap() >= 8, "{text}");
    server.shutdown();
}

#[test]
fn keep_alive_connections_are_reused_and_counted() {
    let server = serve(dblp_engine(), ephemeral_config()).unwrap();
    let addr = server.local_addr();

    let mut client = gks_server::client::HttpClient::connect(addr, TIMEOUT).unwrap();
    for _ in 0..5 {
        let response = client.get("/search?q=keyword+search&s=1").unwrap();
        assert_eq!(response.status, 200);
    }

    let text = http_get(addr, "/metrics", TIMEOUT).unwrap().body_text();
    // Requests 2..=5 rode the same socket as request 1.
    assert!(
        metric_value(&text, "gks_conn_keepalive_requests_total").unwrap() >= 4,
        "keep-alive reuse must be visible in metrics: {text}"
    );
    assert!(
        metric_value(&text, "gks_conn_accept_to_dispatch_micros_count").unwrap() >= 5,
        "dispatch histogram samples every request"
    );
    server.shutdown();
}

#[test]
fn slow_readers_are_evicted_with_408_and_healthz_reports_connections() {
    let config = ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        deadline: Duration::from_millis(200),
        ..ServeConfig::default()
    };
    let server = serve(dblp_engine(), config).unwrap();
    let addr = server.local_addr();

    // A partial request head, then silence: the reactor must 408 it once
    // the read deadline passes rather than hold the parked buffer forever.
    let mut slow = std::net::TcpStream::connect_timeout(&addr, TIMEOUT).unwrap();
    slow.set_read_timeout(Some(TIMEOUT)).unwrap();
    use std::io::{Read as _, Write as _};
    slow.write_all(b"GET /search?q=late HTTP/1.1\r\nHost: gks\r\n").unwrap();
    let mut raw = Vec::new();
    slow.read_to_end(&mut raw).unwrap();
    let response = gks_server::client::parse_response(&raw).unwrap();
    assert_eq!(response.status, 408, "stalled reads time out");

    // While another partial connection is parked, /healthz stays 200 and
    // its body carries the live connection summary.
    let mut parked = std::net::TcpStream::connect_timeout(&addr, TIMEOUT).unwrap();
    parked.write_all(b"GET /x HTTP/1.1\r\n").unwrap();
    let healthy = http_get(addr, "/healthz", TIMEOUT).unwrap();
    assert_eq!(healthy.status, 200);
    let body = healthy.body_text();
    assert!(body.starts_with("ok\n"), "first line stays `ok`: {body}");
    assert!(body.contains("connections: open="), "{body}");

    let text = http_get(addr, "/metrics", TIMEOUT).unwrap().body_text();
    assert!(metric_value(&text, "gks_conn_evictions_total").unwrap() >= 1, "{text}");
    server.shutdown();
}

#[test]
fn drain_finishes_cleanly_with_parked_connections() {
    let server = serve(dblp_engine(), ephemeral_config()).unwrap();
    let addr = server.local_addr();

    // Park connections in every off-worker state: idle keep-alive sockets
    // and half-written request heads. None of these may stall shutdown or
    // turn an in-flight request into a 5xx.
    let mut keep_alive = gks_server::client::HttpClient::connect(addr, TIMEOUT).unwrap();
    assert_eq!(keep_alive.get("/search?q=keyword&s=1").unwrap().status, 200);
    let _idle: Vec<_> = (0..8)
        .map(|_| std::net::TcpStream::connect_timeout(&addr, TIMEOUT).unwrap())
        .collect();
    use std::io::Write as _;
    let mut partial = std::net::TcpStream::connect_timeout(&addr, TIMEOUT).unwrap();
    partial.write_all(b"GET /search?q=half HTTP/1.1\r\n").unwrap();

    // Cache hits answered on the reactor are in flight too: keep-alive
    // clients repeat the warmed query until the server closes on them.
    let started = Arc::new(std::sync::Barrier::new(4));
    let hitters: Vec<_> = (0..3)
        .map(|_| {
            let started = Arc::clone(&started);
            std::thread::spawn(move || {
                let mut client = gks_server::client::HttpClient::connect(addr, TIMEOUT).unwrap();
                let mut answered = Vec::new();
                while let Ok(response) = client.get("/search?q=keyword&s=1") {
                    let close = response.header("connection") == Some("close");
                    answered.push(response);
                    if answered.len() == 1 {
                        started.wait();
                    }
                    if close {
                        break;
                    }
                }
                answered
            })
        })
        .collect();
    started.wait();

    // In-flight traffic racing the shutdown must either complete cleanly or
    // fail at the transport layer (connect refused after the listener
    // closes) — never a 5xx. The shutdown itself must not hang on the
    // parked sockets above.
    let probes: Vec<_> = (0..4)
        .map(|i| {
            std::thread::spawn(move || {
                http_get(addr, &format!("/search?q=drain{i}&s=1"), TIMEOUT)
                    .map(|r| r.status)
                    .unwrap_or(0)
            })
        })
        .collect();
    let report = std::thread::spawn(move || server.shutdown()).join().unwrap();
    for probe in probes {
        let status = probe.join().unwrap();
        assert!(status == 200 || status == 0, "no 5xx during drain, got {status}");
    }
    let mut hits = 0;
    for hitter in hitters {
        // Each loop ended on `Connection: close` (answered after stop) or
        // on the server closing the idle socket; every answer was a 200.
        let answered = hitter.join().unwrap();
        assert!(!answered.is_empty());
        for response in &answered {
            assert_eq!(response.status, 200, "no 5xx during drain");
            assert_eq!(response.header("x-gks-cache"), Some("hit"));
        }
        hits += answered.len() as u64;
    }
    assert!(report.served > hits, "the warm-up and every hit were served");
}

#[test]
fn doctor_and_suggest_round_trip_over_sockets() {
    let server = serve(dblp_engine(), ephemeral_config()).unwrap();
    let addr = server.local_addr();

    let doctor = http_get(addr, "/doctor", TIMEOUT).unwrap();
    assert_eq!(doctor.status, 200);
    assert!(doctor.body_text().contains("\"healthy\":true"), "{}", doctor.body_text());

    let suggest = http_get(addr, "/suggest?q=keyword+zzznothing", TIMEOUT).unwrap();
    assert_eq!(suggest.status, 200);
    assert!(
        suggest.body_text().contains("\"unmatched\":[\"zzznothing\"]"),
        "{}",
        suggest.body_text()
    );

    let bad = http_get(addr, "/search?q=x&limit=nope", TIMEOUT).unwrap();
    assert_eq!(bad.status, 400);
    assert!(bad.header("x-gks-micros").is_some(), "even errors report timing");

    server.shutdown();
}
