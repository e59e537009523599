//! `serve`: an in-process `gks_server::serve_catalog` on a loopback port,
//! default configuration apart from the address and two workers, serving
//! two catalog entries over one corpus — `flat` (one v3 file) and
//! `sharded` (a 2-shard manifest) — at 1:1 traffic.
//!
//! Leg A is a closed loop: two client threads on two keep-alive
//! connections draw selective queries by Zipf rank and, on 5 % of draws,
//! one of the six lightest heavy queries. Leg B is an open loop at one
//! fixed rate, timed from each request's scheduled send; it checks the
//! same answers and the latency limit, but its percentiles are per-layer
//! numbers, because on a two-core sandbox the generator's own wake-up lag
//! makes up most of its tail. This is the only workload where `server`,
//! `exec` and the shard gather do most of the work; a median request is a
//! cache hit.

use std::hint::black_box;
use std::net::SocketAddr;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use gks_core::engine::Engine;
use gks_core::shard::{load_manifest_engines, merge_responses};
use gks_core::{wire, ShardExecutor};
use gks_index::{index_directory, GksIndex, IndexOptions, ShardManifest};
use gks_server::cache::ResultCache;
use gks_server::catalog::IndexSpec;
use gks_server::client::HttpClient;
use gks_server::http::{parse_request, percent_encode};
use gks_server::{serve_catalog, ServeConfig, Server};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use super::{open_engine_sampled, save_v3, set_up, timed, BuildFacts, EndToEnd, Finished, Run};
use crate::inputs::{
    corpus_of, dblp_corpus, heavy_queries, selective_keywords, selective_queries, sub_seed,
    term_counts, QuerySpec, Zipf,
};
use crate::metrics::Outcome;
use crate::span::Recorder;
use crate::stats::{self, Samples};

const DOCS: usize = 8;
const ARTICLES_PER_DOC: usize = 3_000;
const SELECTIVE_QUERIES: usize = 2_000;
const HEAVY_QUERIES: usize = 6;
/// Share of draws that pick a heavy query.
const HEAVY_PERCENT: u32 = 5;
const CLIENTS: usize = 2;
const ENTRIES: [&str; 2] = ["flat", "sharded"];
/// `limit` the server applies when a request names none.
const DEFAULT_LIMIT: usize = 20;
/// Leg A's share of the window; leg B takes the rest.
const CLOSED_SHARE: f64 = 0.6;
/// Leg B's offered rate over both connections, requests per second: about
/// two fifths of what leg A sustains at the commit that added the
/// benchmark.
pub const OPEN_LOOP_RATE: f64 = 8_000.0;
/// A leg B reply slower than this (from its scheduled send) has failed.
const OPEN_LOOP_LIMIT: Duration = Duration::from_millis(250);
const CLIENT_TIMEOUT: Duration = Duration::from_secs(5);

/// One request the clients may send and the body it must return.
struct Target {
    path: String,
    body_digest: u64,
}

struct Product {
    server: Option<Server>,
    reference: Engine,
    queries: Vec<QuerySpec>,
    manifest: std::path::PathBuf,
}

impl Drop for Product {
    fn drop(&mut self) {
        if let Some(server) = self.server.take() {
            server.shutdown();
        }
    }
}

pub fn run(run: &Run) -> Finished {
    let mut outcome = Outcome::default();
    let mut facts = BuildFacts::default();
    let (product, setup_secs) = set_up(&run.dir, |dir| set_up_once(run, dir, &mut facts));
    let server = product.server.as_ref().expect("server is up until the product drops");
    let addr = server.local_addr();
    outcome.check(product.reference.index().doctor().is_empty(), || {
        "built index fails doctor()".into()
    });

    // What each request must return: the in-memory engine's wire body at
    // the server's default limit, whichever entry answers.
    let bodies: Vec<String> = product
        .queries
        .iter()
        .map(|spec| {
            let response = product
                .reference
                .search(&spec.parse(), spec.options(DEFAULT_LIMIT))
                .expect("reference search");
            wire::search_response_json(&product.reference, &response)
        })
        .collect();
    let targets: Vec<Target> = product
        .queries
        .iter()
        .zip(&bodies)
        .flat_map(|(spec, body)| {
            ENTRIES.iter().map(move |entry| Target {
                path: format!("/ix/{entry}/search?q={}&s={}", percent_encode(&spec.text), spec.s),
                body_digest: stats::digest(body.as_bytes()),
            })
        })
        .collect();
    let targets = Arc::new(targets);

    // Fixed verification sample, both entries, whole bodies compared.
    let mut digest = stats::FNV_OFFSET;
    let mut client = HttpClient::connect(addr, CLIENT_TIMEOUT).expect("connect to the server");
    let step = (product.queries.len() / 120).max(1);
    let sample = (0..product.queries.len())
        .filter(|q| q % step == 0 || *q >= product.queries.len() - HEAVY_QUERIES);
    for q in sample {
        for e in 0..ENTRIES.len() {
            let target = &targets[q * ENTRIES.len() + e];
            let got = client.get(&target.path).ok().filter(|r| r.status == 200).map(|r| r.body);
            outcome.check(got.as_deref() == Some(bodies[q].as_bytes()), || {
                format!("HTTP body differs from the in-memory engine: {}", target.path)
            });
            digest = stats::fnv1a(digest, got.as_deref().unwrap_or_default());
        }
    }
    drop(client);
    outcome.answers_digest = digest;

    let closed_window = run.window().mul_f64(CLOSED_SHARE);
    let open_window = run.window() - closed_window;
    let selective = product.queries.len() - HEAVY_QUERIES;
    let mut closed = run_leg(run.seed, addr, &targets, selective, closed_window, None);
    let rate = OPEN_LOOP_RATE * run.scale.min(1.0);
    let mut open = run_leg(run.seed + 1, addr, &targets, selective, open_window, Some(rate));
    for leg in [&closed, &open] {
        outcome.attempted += leg.attempted;
        outcome.failed += leg.failed;
        outcome.failures.extend(leg.failures.iter().take(3).cloned());
    }

    outcome.note("closed-loop requests", closed.latency.len());
    outcome.note("closed-loop seconds", format!("{:.3}", closed.wall.as_secs_f64()));
    outcome.note("open-loop requests", open.latency.len());
    outcome.note("open-loop rate 1/s", rate);
    outcome.note("open-loop max us", format!("{:.0}", open.latency.max_us()));
    outcome.note("open-loop p99 us", format!("{:.0}", open.latency.percentile_us(0.99)));
    outcome.note("open-loop send lag p99 us", format!("{:.0}", open.send_lag.percentile_us(0.99)));
    outcome.note_tail(closed.latency.len(), 0.99);
    outcome.note("cache hit share", format!("{:.4}", closed.hit_share()));
    outcome.note("clients", CLIENTS);
    let mut rec = Recorder::new(run.traced);
    if run.traced {
        let closed_p50 = closed.latency.percentile_us(0.5);
        outcome.set("server.cache_hit_share", closed.hit_share());
        outcome.set("server.open_p50_us", open.latency.percentile_us(0.5));
        outcome.set("server.open_p99_us", open.latency.percentile_us(0.99));
        outcome.set("server.send_lag_p99_us", open.send_lag.percentile_us(0.99));
        outcome.set("server.status_5xx", (closed.status_5xx + open.status_5xx) as f64);
        outcome.set(
            "server.transport_errors",
            (closed.transport_errors + open.transport_errors) as f64,
        );
        outcome.set("server.shard_fanout", closed.fanout_mean());
        let replay_wall =
            replay_in_process(&mut rec, server, &product, &targets, closed_p50, &mut outcome);
        outcome.set(
            "bench.trace_overhead_share",
            replay_wall.as_secs_f64() / (closed.wall + open.wall).as_secs_f64().max(1e-9),
        );
        outcome.set("bench.ops", (closed.latency.len() + open.latency.len()) as f64);
        outcome.set("index.open_ms", stats::median(&facts.open_ms));
        outcome.set("index.build_mb_per_s", stats::median(&facts.build_mb_per_s));
    } else {
        let ops_per_s = closed.latency.len() as f64 / closed.wall.as_secs_f64();
        EndToEnd {
            setup_secs: &setup_secs,
            latency: &mut closed.latency,
            tail: 0.99,
            ops_per_s,
            facts: &facts,
        }
        .report(&mut outcome);
    }
    drop(product);
    Finished::new(outcome, rec, run)
}

/// Generates the corpus, builds and saves both catalog entries, reopens
/// the flat one (that is `open_ms`) and starts the server.
fn set_up_once(run: &Run, dir: &Path, facts: &mut BuildFacts) -> Product {
    let (docs, authors) = dblp_corpus(run.seed, DOCS, run.scaled(ARTICLES_PER_DOC));
    let corpus = corpus_of(&docs);
    let xml_bytes = corpus.total_bytes();
    let options = IndexOptions::default();
    let (index, build) = timed(|| GksIndex::build(&corpus, options.clone()).expect("build index"));
    let flat = dir.join("flat.gksix");
    let file_bytes = save_v3(&index, &flat);
    drop(open_engine_sampled(&flat, &mut facts.open_ms));
    facts.build_mb_per_s.push(xml_bytes as f64 / 1e6 / build.as_secs_f64());
    facts.bytes_per_xml_byte = file_bytes as f64 / xml_bytes as f64;

    let corpus_dir = dir.join("corpus");
    std::fs::create_dir_all(&corpus_dir).expect("create corpus directory");
    for (name, xml) in &docs {
        std::fs::write(corpus_dir.join(format!("{name}.xml")), xml).expect("write document");
    }
    let manifest = dir.join("sharded.manifest");
    index_directory(&corpus_dir, &manifest, 2, options).expect("build the sharded entry");

    let terms = term_counts(&index);
    let pool = selective_keywords(&index, &terms, &authors);
    let mut queries = selective_queries(&pool, run.seed, run.scaled(SELECTIVE_QUERIES).max(64));
    queries.extend(
        heavy_queries(&terms, run.scaled(5_000), run.scaled(100_000))
            .into_iter()
            .take(HEAVY_QUERIES),
    );

    let specs = vec![
        IndexSpec::with_source(ENTRIES[0], &flat),
        IndexSpec::with_manifest(ENTRIES[1], &manifest).expect("register the sharded entry"),
    ];
    let config = ServeConfig { addr: "127.0.0.1:0".into(), workers: 2, ..ServeConfig::default() };
    let server = serve_catalog(specs, Some(ENTRIES[0]), config).expect("start the server");
    Product { server: Some(server), reference: Engine::from_index(index), queries, manifest }
}

/// What one leg's clients saw.
#[derive(Default)]
struct Leg {
    latency: Samples,
    send_lag: Samples,
    wall: Duration,
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
    cache_hits: u64,
    sharded: u64,
    fanout_sum: u64,
    status_5xx: u64,
    transport_errors: u64,
}

impl Leg {
    fn hit_share(&self) -> f64 {
        self.cache_hits as f64 / self.latency.len().max(1) as f64
    }

    fn fanout_mean(&self) -> f64 {
        self.fanout_sum as f64 / self.sharded.max(1) as f64
    }

    fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.failures.len() < 3 {
            self.failures.push(what);
        }
    }

    fn absorb(&mut self, other: Leg) {
        self.latency.extend(&other.latency);
        self.send_lag.extend(&other.send_lag);
        self.wall = self.wall.max(other.wall);
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.failures.extend(other.failures);
        self.cache_hits += other.cache_hits;
        self.sharded += other.sharded;
        self.fanout_sum += other.fanout_sum;
        self.status_5xx += other.status_5xx;
        self.transport_errors += other.transport_errors;
    }
}

/// Runs one leg on [`CLIENTS`] threads, each with its own keep-alive
/// connection and seeded draw sequence. With `rate` the leg is an open
/// loop: each thread sends on a fixed schedule at its share of the rate
/// and times every request from its scheduled send.
fn run_leg(
    seed: u64,
    addr: SocketAddr,
    targets: &Arc<Vec<Target>>,
    selective: usize,
    window: Duration,
    rate: Option<f64>,
) -> Leg {
    let handles: Vec<_> = (0..CLIENTS)
        .map(|c| {
            let targets = Arc::clone(targets);
            let seed = sub_seed(seed, c as u64);
            let interval = rate.map(|r| Duration::from_secs_f64(CLIENTS as f64 / r));
            std::thread::spawn(move || {
                client_loop(seed, addr, &targets, selective, window, interval)
            })
        })
        .collect();
    let mut leg = Leg::default();
    for handle in handles {
        leg.absorb(handle.join().expect("client thread panicked"));
    }
    leg
}

fn client_loop(
    seed: u64,
    addr: SocketAddr,
    targets: &[Target],
    selective: usize,
    window: Duration,
    interval: Option<Duration>,
) -> Leg {
    let mut leg = Leg::default();
    let mut rng = StdRng::seed_from_u64(seed);
    let zipf = Zipf::new(selective);
    let heavy = targets.len() / ENTRIES.len() - selective;
    let mut client = match HttpClient::connect(addr, CLIENT_TIMEOUT) {
        Ok(client) => client,
        Err(e) => {
            leg.attempted = 1;
            leg.transport_errors = 1;
            leg.fail(format!("connect: {e}"));
            return leg;
        }
    };
    let start = Instant::now();
    let mut sent = 0u32;
    loop {
        let query = if heavy > 0 && rng.gen_range(0..100u32) < HEAVY_PERCENT {
            selective + rng.gen_range(0..heavy)
        } else {
            zipf.sample(&mut rng)
        };
        let target = &targets[query * ENTRIES.len() + rng.gen_range(0..ENTRIES.len())];
        let from = match interval {
            Some(interval) => {
                let due = start + interval * sent;
                if due.duration_since(start) >= window {
                    break;
                }
                if let Some(wait) = due.checked_duration_since(Instant::now()) {
                    std::thread::sleep(wait);
                }
                leg.send_lag.push(due.elapsed());
                due
            }
            None => {
                let now = Instant::now();
                if now.duration_since(start) >= window {
                    break;
                }
                now
            }
        };
        sent += 1;
        leg.attempted += 1;
        match client.get(&target.path) {
            Ok(response) => {
                let took = from.elapsed();
                leg.latency.push(took);
                if response.header("x-gks-cache") == Some("hit") {
                    leg.cache_hits += 1;
                }
                if let Some(width) =
                    response.header("x-gks-shards").and_then(|v| v.parse::<u64>().ok())
                {
                    leg.sharded += 1;
                    leg.fanout_sum += width;
                }
                if response.status >= 500 {
                    leg.status_5xx += 1;
                }
                if response.status != 200 {
                    leg.fail(format!("status {}: {}", response.status, target.path));
                } else if stats::digest(&response.body) != target.body_digest {
                    leg.fail(format!("wrong body: {}", target.path));
                } else if interval.is_some() && took > OPEN_LOOP_LIMIT {
                    leg.fail(format!("over the latency limit ({took:?}): {}", target.path));
                }
            }
            Err(e) => {
                leg.transport_errors += 1;
                leg.fail(format!("transport: {e}: {}", target.path));
                match HttpClient::connect(addr, CLIENT_TIMEOUT) {
                    Ok(fresh) => client = fresh,
                    Err(_) => break,
                }
            }
        }
    }
    leg.wall = start.elapsed();
    leg
}

/// Splits a request's time by replaying the same mix in-process: the
/// calls the server makes for one request — `parse_request`,
/// `ServeState::handle`, `HttpResponse::serialize` — each under a span,
/// with the cache, the gather and the scatter timed on their own beside
/// them. What the client saw beyond `handle` is the socket's share.
fn replay_in_process(
    rec: &mut Recorder,
    server: &Server,
    product: &Product,
    targets: &[Target],
    client_p50_us: f64,
    outcome: &mut Outcome,
) -> Duration {
    let start = Instant::now();
    let state = server.state();
    let (mut parse, mut hit, mut miss, mut serialize) =
        (Samples::default(), Samples::default(), Samples::default(), Samples::default());
    // Every eighth request asks for a limit nobody used, so it misses.
    for (i, target) in targets.iter().enumerate().take(4_000) {
        let path = if i % 8 == 7 {
            format!("{}&limit=19", target.path)
        } else {
            target.path.clone()
        };
        let head = format!("GET {path} HTTP/1.1\r\nHost: gks\r\nContent-Length: 0\r\n\r\n");
        rec.next_op();
        let root = rec.enter("request");
        let (request, took) = rec.time("server.parse_request", || parse_request(black_box(&head)));
        parse.push(took);
        let Ok(request) = request else {
            outcome.check(false, || format!("replayed head does not parse: {path}"));
            rec.exit(root);
            continue;
        };
        let (response, took) = rec.time("server.handle", || state.handle(&request, Instant::now()));
        let was_hit = response.headers.iter().any(|(k, v)| *k == "x-gks-cache" && v == "hit");
        if was_hit { &mut hit } else { &mut miss }.push(took);
        let (bytes, took) = rec.time("server.serialize", || response.serialize(true));
        serialize.push(took);
        black_box(bytes);
        rec.exit(root);
        outcome.check(response.status == 200, || format!("replayed request failed: {path}"));
    }
    outcome.set("server.parse_request_ns", parse.percentile_ns(0.5));
    outcome.set("server.handle_hit_us", hit.percentile_us(0.5));
    outcome.set("server.handle_miss_us", miss.percentile_us(0.5));
    outcome.set("server.serialize_ns", serialize.percentile_ns(0.5));
    outcome.set("server.socket_residual_us", client_p50_us - hit.percentile_us(0.5));
    outcome.note("replayed hits", hit.len());
    outcome.note("replayed misses", miss.len());

    // The result cache on its own, at the server's default geometry.
    let defaults = ServeConfig::default();
    let cache = ResultCache::new(defaults.cache_bytes, defaults.cache_shards, 1);
    let body: Arc<[u8]> = Arc::from(vec![b'x'; 2_048]);
    let (mut put, mut get) = (Samples::default(), Samples::default());
    for target in targets.iter().take(4_000) {
        rec.next_op();
        let key = target.path.clone();
        put.push(rec.time("server.cache_put", || cache.put(key, Arc::clone(&body))).1);
    }
    for target in targets.iter().take(4_000) {
        rec.next_op();
        get.push(rec.time("server.cache_get", || black_box(cache.get(&target.path))).1);
    }
    outcome.set("server.cache_put_ns", put.percentile_ns(0.5));
    outcome.set("server.cache_get_ns", get.percentile_ns(0.5));

    // The gather: per-shard answers merged as the server merges them.
    let manifest = ShardManifest::load(&product.manifest).expect("load the manifest");
    let shards = load_manifest_engines(&manifest).expect("open the shards");
    let mut gather = Samples::default();
    for spec in product.queries.iter().rev().take(200) {
        let query = spec.parse();
        let answers: Vec<_> = shards
            .iter()
            .filter_map(|(engine, map)| {
                engine
                    .search(&query, spec.options(DEFAULT_LIMIT))
                    .ok()
                    .map(|r| (map.clone(), r))
            })
            .collect();
        rec.next_op();
        let (merged, took) = rec.time("core.gather", || merge_responses(answers, DEFAULT_LIMIT));
        gather.push(took);
        black_box(merged).ok();
    }
    outcome.set("core.gather_us", gather.percentile_us(0.5));

    // The scatter: empty tasks through a two-lane executor, so what is
    // left is the hand-off and the wait.
    let executor = ShardExecutor::new(1);
    executor.ensure_lanes(2).expect("spawn executor lanes");
    let mut scatter = Samples::default();
    for _ in 0..2_000 {
        rec.next_op();
        let tasks: Vec<fn() -> u8> = vec![|| 0, || 1];
        scatter.push(rec.time("exec.scatter", || black_box(executor.scatter(tasks))).1);
    }
    outcome.set("exec.scatter_us", scatter.percentile_us(0.5));
    start.elapsed()
}
