//! # gks-serve — a resident, concurrent query service over a GKS index
//!
//! The paper's headline claim is *interactive* keyword search: sub-second
//! queries and a DI-driven refinement loop in which a user issues several
//! related queries against the same corpus. That only makes sense with a
//! long-lived index whose per-query setup cost is amortized away — so this
//! crate keeps a **catalog** of resident [`Engine`]s ([`catalog`]) and
//! serves them over HTTP/1.1, std-only (the workspace vendors its
//! dependencies; the listener is a hand-rolled subset on `std::net`).
//! `/ix/<name>/search` addresses a specific index; bare `/search` goes to
//! the catalog's default. Each index can be hot-swap reloaded
//! (`POST /admin/reload?index=<name>`, or SIGHUP for the default) without
//! dropping in-flight requests.
//!
//! Architecture, front to back:
//!
//! * **reactor** — one event-driven thread owns every client socket
//!   (nonblocking, multiplexed with poll(2) on Unix) and does all the
//!   accepting, request reading, and keep-alive parking. Slow readers and
//!   writers cost a poll-set entry, not a thread. Only **fully-read**
//!   requests cross the *admission control* boundary: a **bounded** queue
//!   ([`pool::BoundedQueue`]); when it is full the request is answered
//!   `503 + Retry-After` immediately instead of queueing unboundedly.
//! * **worker pool** — a fixed number of threads pop parsed requests,
//!   route them ([`ServeState::handle`]), and write the response,
//!   handing the socket back to the reactor if the write would block or
//!   the connection is keep-alive. Each request carries a **deadline**
//!   from its first byte; work still pending past the deadline
//!   (including time spent queued) is aborted with `503` and counted.
//! * **query pipeline** — every resident index is a *shard set*; an
//!   unsharded index is a set of one. `/search` and `/suggest` run one
//!   pipeline ([`ServeState::handle`]): pin a consistent set, probe the
//!   cache under the set's identity, search every shard, gather, render.
//!   A set of more than one scatters over a persistent per-shard worker
//!   pool ([`gks_core::ShardExecutor`]) — a channel send, never a thread
//!   spawn on the request path; a set of one searches on the calling
//!   worker.
//! * **result cache** — one sharded LRU per index ([`cache::ResultCache`])
//!   keyed on the normalized `(endpoint, query, s, limit)` tuple, storing
//!   the exact response bytes; the deterministic wire format
//!   (`gks_core::wire`) makes a hit byte-identical to recomputation. Every
//!   entry is tagged with the index identity ([`index_identity`]) it was
//!   computed against, so a hot-swap can never serve stale bytes.
//! * **metrics** — lock-free counters and a latency histogram
//!   ([`metrics::Metrics`]) exposed at `GET /metrics`.
//! * **graceful shutdown** — [`Server::shutdown`] stops accepting, drains
//!   queued and in-flight requests, joins every thread, and reports totals;
//!   the CLI wires SIGTERM/ctrl-c ([`signal`]) to it so `kill` never drops
//!   accepted work.
//!
//! * **observability** — every query runs under a `gks-trace` root span
//!   ([`qlog`]): per-phase percentiles join `/metrics`, the completed-trace
//!   ring is dumped by `GET /debug/traces?n=`, `/search` responses carry a
//!   `Server-Timing` header, and the server can write a JSONL query log plus
//!   a threshold-gated slow-query log embedding the full span tree.
//!
//! * **live updates** — an index registered from a shard manifest follows
//!   the incremental update path (`gks_index::delta`): an optional watcher
//!   thread runs `delta::maintain` — the same tick as `gks watch` — on
//!   every interval, committing a delta shard for whatever changed and
//!   folding the backlog once it reaches `--compact-threshold` delta
//!   shards (`POST /admin/compact` folds on demand). Both publish through
//!   the same hot-swap protocol, so a mutation becomes visible to
//!   `/search` without a restart and without a dropped request;
//!   `gks_index_freshness_seconds` tracks the corpus-to-serving lag.
//!
//! * **cost accounting** — every engine run carries a
//!   [`gks_core::CostLedger`] of the work it did (postings scanned, heap
//!   ops, sweep advances, …). `?explain=1` splices the per-phase /
//!   per-shard breakdown into the response body and adds an `x-gks-cost`
//!   summary header; `/metrics` exposes `gks_cost_*` totals and
//!   work-per-query histograms per index; the query log gains a `cost`
//!   field; and `GET /debug/top?n=` serves a rolling top-K
//!   most-expensive-query table ([`topk`]).
//!
//! Endpoints: `GET /search`, `GET /suggest`, `GET /doctor`, `GET /healthz`,
//! `GET /metrics`, `GET /debug/traces`, `GET /debug/top`,
//! `POST /admin/reload`, `POST /admin/compact` — each of the first three
//! also under an `/ix/<name>/` prefix. See [`ServeState::handle`] for
//! parameters.

pub mod cache;
pub mod catalog;
pub mod client;
pub mod error;
pub mod http;
pub mod loadgen;
pub mod metrics;
pub mod pool;
pub mod qlog;
pub mod signal;
pub mod topk;

mod conn;
mod poller;
mod reactor;

use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use gks_core::di::DiOptions;
use gks_core::engine::Engine;
use gks_core::query::Query;
use gks_core::search::{Response, SearchOptions, Threshold};
use gks_core::wire;
use gks_index::{audit_manifest, GksIndex};
use gks_trace::SpanKind;

use crate::catalog::{EngineCatalog, IndexSpec, ResidentIndex, ShardSet};
use crate::error::ServeError;
use crate::http::{HttpResponse, Request};
use crate::metrics::{Endpoint, Metrics};
use crate::pool::BoundedQueue;

/// Server tuning knobs. `Default` matches the CLI's defaults.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Listen address, e.g. `127.0.0.1:7070` (port 0 picks an ephemeral
    /// port — used by tests).
    pub addr: String,
    /// Worker threads executing queries.
    pub workers: usize,
    /// Bounded queue depth between the reactor and the workers; the
    /// admission-control limit.
    pub queue_depth: usize,
    /// Per-request deadline measured from the request's first byte
    /// (read and queueing time included).
    pub deadline: Duration,
    /// Upper bound on concurrently open client connections; at the cap the
    /// reactor stops polling the listener (new connects wait in the
    /// kernel backlog) until a slot frees.
    pub max_connections: usize,
    /// How long a keep-alive connection may sit idle between requests
    /// before the reactor closes it.
    pub idle_timeout: Duration,
    /// Threads per shard lane of the persistent scatter executor backing
    /// sharded indexes (0 = match `workers`, preserving the peak shard
    /// concurrency of the old spawn-per-request scatter).
    pub shard_workers: usize,
    /// Result-cache capacity in bytes (0 disables caching).
    pub cache_bytes: usize,
    /// Result-cache shard count (rounded up to a power of two).
    pub cache_shards: usize,
    /// `limit` applied to `/search` when the request does not pass one.
    pub default_limit: usize,
    /// Upper bound on the `limit` a request may ask for.
    pub max_limit: usize,
    /// Enable `gks-trace` span recording (per-phase metrics, the
    /// `/debug/traces` ring, `Server-Timing` headers, slow-log span trees).
    pub trace: bool,
    /// Capacity of the completed-trace ring buffer.
    pub trace_ring: usize,
    /// Trace head-sampling rate: keep 1-in-N root spans (1 = keep all).
    /// Sampled-out requests still count in `gks_trace_spans_total`, but skip
    /// the histogram/ring/slow-log-tree writes.
    pub trace_sample: u64,
    /// JSONL query log path (`None` disables it).
    pub query_log: Option<PathBuf>,
    /// JSONL slow-query log path (`None` disables it).
    pub slow_log: Option<PathBuf>,
    /// Queries at least this slow count as slow (logged with their span
    /// tree when `slow_log` is set).
    pub slow_threshold: Duration,
    /// Watcher poll interval for manifest-backed indexes: every interval
    /// the corpus directory is scanned and changes are committed as a
    /// delta shard, then hot-swapped in. `None` disables watching.
    pub watch_interval: Option<Duration>,
    /// Compaction trigger for the watcher tick (`gks_index::delta::maintain`):
    /// once a manifest on disk carries at least this many delta shards, the
    /// tick folds them into the base shards. `None` leaves compaction
    /// manual (`POST /admin/compact` or `gks compact`). Needs
    /// `watch_interval` and must be ≥ 1: [`serve_catalog`] rejects anything
    /// else.
    pub compact_threshold: Option<u64>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:7070".to_string(),
            workers: 4,
            queue_depth: 64,
            deadline: Duration::from_millis(2_000),
            max_connections: 8_192,
            idle_timeout: Duration::from_secs(30),
            shard_workers: 0,
            cache_bytes: 32 * 1024 * 1024,
            cache_shards: 8,
            default_limit: 20,
            max_limit: 1_000,
            trace: true,
            trace_ring: gks_trace::DEFAULT_RING_CAPACITY,
            trace_sample: 1,
            query_log: None,
            slow_log: None,
            slow_threshold: Duration::from_millis(500),
            watch_interval: None,
            compact_threshold: None,
        }
    }
}

/// A stable fingerprint of an index's identity, used to invalidate the
/// result cache when the resident index changes. FNV-1a over the document
/// names and the structural counts — two indexes over different corpora (or
/// rebuilt over changed data) collide only if every one of these agrees.
pub fn index_identity(index: &GksIndex) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut mix = |bytes: &[u8]| {
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        h ^= 0xff;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    };
    for name in index.doc_names() {
        mix(name.as_bytes());
    }
    let stats = index.stats();
    for v in [
        stats.doc_count,
        stats.total_nodes,
        stats.distinct_terms,
        stats.total_postings,
        stats.raw_bytes,
    ] {
        mix(&v.to_le_bytes());
    }
    h
}

/// Shared per-server state: the engine catalog, metrics, config. Routing
/// lives here ([`ServeState::handle`]) so tests and the property suite can
/// drive the service without sockets.
#[derive(Debug)]
pub struct ServeState {
    catalog: EngineCatalog,
    metrics: Metrics,
    config: ServeConfig,
    pub(crate) accepted: AtomicU64,
    pub(crate) served: AtomicU64,
    query_log: Option<qlog::LogFile>,
    slow_log: Option<qlog::LogFile>,
}

impl ServeState {
    /// Builds single-index state for `engine` under `config` — the
    /// historical entry point, now a catalog of one index named
    /// [`catalog::DEFAULT_INDEX_NAME`].
    pub fn new(engine: Arc<Engine>, config: ServeConfig) -> Result<ServeState, ServeError> {
        let specs = vec![IndexSpec::with_engine(catalog::DEFAULT_INDEX_NAME, engine)];
        ServeState::with_catalog(specs, None, config)
    }

    /// Builds the state for a whole catalog of indexes, opening the query
    /// and slow-query logs if configured. `default` names the index bare
    /// `/search` addresses (`None` → the first spec). Tracing is enabled
    /// process-wide when `config.trace` is set (it is never force-disabled
    /// here — another in-process consumer, e.g. a test harness, may also
    /// depend on it).
    pub fn with_catalog(
        specs: Vec<IndexSpec>,
        default: Option<&str>,
        config: ServeConfig,
    ) -> Result<ServeState, ServeError> {
        let catalog = EngineCatalog::build(specs, default, &config)?;
        let query_log = config.query_log.as_deref().map(qlog::LogFile::open).transpose()?;
        let slow_log = config.slow_log.as_deref().map(qlog::LogFile::open).transpose()?;
        if config.trace {
            gks_trace::set_ring_capacity(config.trace_ring);
            gks_trace::set_enabled(true);
            gks_trace::set_sample_every(config.trace_sample);
        }
        Ok(ServeState {
            catalog,
            metrics: Metrics::default(),
            config,
            accepted: AtomicU64::new(0),
            served: AtomicU64::new(0),
            query_log,
            slow_log,
        })
    }

    /// The service counters.
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// The active configuration.
    pub fn config(&self) -> &ServeConfig {
        &self.config
    }

    /// The engine catalog.
    pub fn catalog(&self) -> &EngineCatalog {
        &self.catalog
    }

    /// Hot-swap reloads the default index (the SIGHUP action). Returns
    /// `(identity_before, identity_after)`.
    pub fn reload_default(&self) -> Result<(u64, u64), ServeError> {
        self.catalog.default_index().reload()
    }

    /// Resolves a route's index reference against the catalog: `None`
    /// addresses the default, a name must exist (else 404).
    fn resolve(&self, index: Option<&str>) -> Result<&Arc<ResidentIndex>, HttpResponse> {
        match index {
            None => Ok(self.catalog.default_index()),
            Some(name) => self
                .catalog
                .get(name)
                .ok_or_else(|| HttpResponse::error(404, &format!("unknown index {name:?}"))),
        }
    }

    /// Routes one parsed request. `accepted_at` anchors the per-request
    /// deadline (time spent queued counts against the budget).
    pub fn handle(&self, request: &Request, accepted_at: Instant) -> HttpResponse {
        let route = catalog::route_path(&request.path);
        self.metrics.record_request(route.endpoint);
        if route.endpoint == Endpoint::AdminReload {
            if request.method != "POST" {
                return HttpResponse::error(405, "reload requires POST");
            }
            return self.handle_reload(request, route.index.as_deref());
        }
        if route.endpoint == Endpoint::AdminCompact {
            if request.method != "POST" {
                return HttpResponse::error(405, "compact requires POST");
            }
            return self.handle_compact(request, route.index.as_deref());
        }
        if request.method != "GET" {
            return HttpResponse::error(405, "only GET is supported");
        }
        let resident = match self.resolve(route.index.as_deref()) {
            Ok(resident) => resident,
            Err(response) => return response,
        };
        match route.endpoint {
            Endpoint::Healthz => {
                // First line stays exactly "ok" for existing probes; the
                // second line summarizes the connection layer.
                let body = format!(
                    "ok\nconnections: open={} parked={} queued={} in_flight={}\n",
                    self.metrics.conn_open.load(Ordering::Relaxed),
                    self.metrics.conn_parked.load(Ordering::Relaxed),
                    self.metrics.conn_queue_depth.load(Ordering::Relaxed),
                    self.metrics.in_flight.load(Ordering::Relaxed),
                );
                HttpResponse::text(200, body)
            }
            Endpoint::Metrics => HttpResponse::text(200, self.render_metrics()),
            Endpoint::Doctor => self.handle_doctor(route.index.as_deref(), resident),
            Endpoint::DebugTraces => self.handle_debug_traces(request),
            Endpoint::DebugTop => self.handle_debug_top(request, route.index.as_deref()),
            Endpoint::Search => self.handle_query(request, accepted_at, false, resident),
            Endpoint::Suggest => self.handle_query(request, accepted_at, true, resident),
            Endpoint::AdminReload | Endpoint::AdminCompact | Endpoint::Other => {
                HttpResponse::error(404, "unknown path")
            }
        }
    }

    /// `POST /admin/reload?index=<name>` (or `POST /ix/<name>/admin/reload`):
    /// hot-swaps the named index — default when unnamed — and reports the
    /// identity transition. Sharded indexes swap their shards one at a time;
    /// `&shard=<i>` reloads only that shard slot. `400` for engine-backed
    /// (unreloadable) indexes, `404` for unknown names, `500` when
    /// re-reading a source fails.
    fn handle_reload(&self, request: &Request, route_index: Option<&str>) -> HttpResponse {
        let named = request.param("index").map(|s| s.to_ascii_lowercase());
        let name = named.as_deref().or(route_index);
        let resident = match self.resolve(name) {
            Ok(resident) => resident,
            Err(response) => return response,
        };
        let outcome = match request.param("shard") {
            None => resident.reload(),
            Some(raw) => match raw.parse::<usize>() {
                Ok(i) => resident.reload_shard(i),
                Err(_) => return HttpResponse::error(400, &format!("bad shard value {raw:?}")),
            },
        };
        match outcome {
            Ok((before, after)) => {
                HttpResponse::json(200, wire::reload_response_json(resident.name(), before, after))
            }
            Err(ServeError::BadConfig(message)) => HttpResponse::error(400, &message),
            Err(e) => HttpResponse::error(500, &format!("reload failed: {e}")),
        }
    }

    /// `POST /admin/compact?index=<name>` (or `POST /ix/<name>/admin/compact`):
    /// folds the named index's delta shards into its base shards and
    /// hot-swaps the compacted generation in. Reports `"compacted":false`
    /// when there was no delta backlog. `400` for indexes without a manifest
    /// (no update path), `404` for unknown names, `500` when the fold itself
    /// fails.
    fn handle_compact(&self, request: &Request, route_index: Option<&str>) -> HttpResponse {
        let named = request.param("index").map(|s| s.to_ascii_lowercase());
        let name = named.as_deref().or(route_index);
        let resident = match self.resolve(name) {
            Ok(resident) => resident,
            Err(response) => return response,
        };
        match resident.compact_now() {
            Ok(stats) => HttpResponse::json(
                200,
                wire::compact_response_json(
                    resident.name(),
                    stats.map(|s| (s.epoch, s.base_shards, s.docs, s.removed_files)),
                ),
            ),
            Err(ServeError::BadConfig(message)) => HttpResponse::error(400, &message),
            Err(e) => HttpResponse::error(500, &format!("compact failed: {e}")),
        }
    }

    /// Pins a consistent snapshot of every shard of `resident`; `Err` is the
    /// ready-to-send `503` for the one case that cannot be served — the
    /// epoch kept moving across every snapshot attempt, so no set that
    /// coexisted at one instant could be pinned at all.
    fn pin(&self, resident: &ResidentIndex) -> Result<ShardSet, HttpResponse> {
        resident.snapshot_all().ok_or_else(|| {
            self.metrics.shard_mixed_generation_total.fetch_add(1, Ordering::Relaxed);
            HttpResponse::error(503, "index reloading, retry shortly")
                .with_header("Retry-After", "1".to_string())
        })
    }

    /// `GET /doctor` audits every shard of every resident index; under an
    /// `/ix/<name>/` prefix it reports just that index. A manifest-backed
    /// index also reports `gks_index::audit_manifest`'s findings — the ones
    /// `gks doctor <manifest>` prints — prefixed `manifest:`.
    fn handle_doctor(&self, route_index: Option<&str>, resident: &ResidentIndex) -> HttpResponse {
        let entry = |r: &ResidentIndex| {
            let set = self.pin(r)?;
            let findings: Vec<String> = match r.manifest_path().map(audit_manifest) {
                None => Vec::new(),
                Some(Ok((_, found))) => found.iter().map(|v| format!("manifest: {v}")).collect(),
                Some(Err(e)) => vec![format!("manifest: cannot be read: {e}")],
            };
            Ok(wire::doctor_entry_json(r.name(), &set.engines(), &findings))
        };
        let body = if route_index.is_some() {
            entry(resident)
        } else {
            self.catalog
                .iter()
                .map(|r| entry(r))
                .collect::<Result<Vec<String>, HttpResponse>>()
                .map(|entries| wire::catalog_doctor_json(&entries))
        };
        match body {
            Ok(body) => HttpResponse::json(200, body),
            Err(response) => response,
        }
    }

    /// Renders `/metrics`: global counters plus one labeled section per
    /// resident index.
    fn render_metrics(&self) -> String {
        let views: Vec<_> = self.catalog.iter().map(|r| r.metrics_view()).collect();
        self.metrics.render(&views)
    }

    /// `GET /debug/traces?n=` — dumps the most recent `n` completed traces
    /// (default 32) from the `gks-trace` ring buffer as deterministic JSON,
    /// oldest first.
    fn handle_debug_traces(&self, request: &Request) -> HttpResponse {
        let n = match request.param("n") {
            None => 32,
            Some(v) => match v.parse::<usize>() {
                Ok(n) => n,
                Err(_) => return HttpResponse::error(400, &format!("bad n value {v:?}")),
            },
        };
        let traces = gks_trace::recent_traces(n);
        let mut body = String::with_capacity(64 + traces.len() * 128);
        body.push_str("{\"enabled\":");
        body.push_str(if gks_trace::enabled() {
            "true"
        } else {
            "false"
        });
        body.push_str(",\"traces\":[");
        for (i, trace) in traces.iter().enumerate() {
            if i > 0 {
                body.push(',');
            }
            trace.write_json(&mut body);
        }
        body.push_str("]}");
        HttpResponse::json(200, body)
    }

    /// `GET /debug/top?n=` — renders the rolling top-K most-expensive-query
    /// table (default 10 rows) as deterministic JSON, most work first.
    /// Under an `/ix/<name>/` prefix only that index's entries are listed.
    fn handle_debug_top(&self, request: &Request, route_index: Option<&str>) -> HttpResponse {
        let n = match request.param("n") {
            None => 10,
            Some(v) => match v.parse::<usize>() {
                Ok(n) => n,
                Err(_) => return HttpResponse::error(400, &format!("bad n value {v:?}")),
            },
        };
        HttpResponse::json(200, self.metrics.top_queries.render_json(n, route_index))
    }

    /// Remaining budget before `accepted_at + deadline`, or `None` if the
    /// deadline already passed.
    fn budget_left(&self, accepted_at: Instant) -> Option<Duration> {
        self.config.deadline.checked_sub(accepted_at.elapsed())
    }

    fn deadline_abort(&self) -> HttpResponse {
        self.metrics.deadline_aborts_total.fetch_add(1, Ordering::Relaxed);
        HttpResponse::error(503, "deadline exceeded").with_header("Retry-After", "1".to_string())
    }

    /// `/search` and `/suggest`: runs the query under a `request` root span
    /// labeled with the index's route key, then fans the outcome out to
    /// every observability sink — the `Server-Timing` header, the query log,
    /// the per-index phase histograms, and (over the threshold) the
    /// slow-query log with the full span tree.
    fn handle_query(
        &self,
        request: &Request,
        accepted_at: Instant,
        suggest: bool,
        resident: &ResidentIndex,
    ) -> HttpResponse {
        resident.counters().requests_total.fetch_add(1, Ordering::Relaxed);
        let request_span = gks_trace::span_labeled(SpanKind::Request, resident.name());
        let mut record = qlog::QueryRecord::new(if suggest { "suggest" } else { "search" });
        record.index = resident.name().to_string();
        record.query = request.param("q").unwrap_or_default().to_string();
        record.s = request.param("s").unwrap_or("1").to_string();
        let mut response = self.run_query(request, accepted_at, suggest, resident, &mut record);
        record.status = response.status;
        record.micros = request_span.elapsed_micros();
        // Engine runs (cache hits and errors carry no ledger) feed the
        // per-index cost totals and the top-K offender table.
        if let Some(cost) = &record.cost {
            resident.record_cost(cost);
            self.metrics.top_queries.record(
                resident.name(),
                &topk::normalize_query(&record.query),
                cost.total_work(),
            );
        }
        drop(request_span);
        // The root span just closed on this thread; its completed tree (if
        // tracing is on and the root was sampled) is waiting in the
        // thread-local slot.
        let trace = gks_trace::take_last_trace();
        if let Some(trace) = &trace {
            response = response.with_header("Server-Timing", qlog::server_timing(trace));
            resident.record_phases(trace);
        }
        if let Some(log) = &self.query_log {
            log.append(&record.to_json(None));
        }
        if Duration::from_micros(record.micros) >= self.config.slow_threshold {
            self.metrics.slow_queries_total.fetch_add(1, Ordering::Relaxed);
            if let Some(log) = &self.slow_log {
                log.append(&record.to_json(trace.as_ref()));
            }
        }
        response
    }

    /// Parses and validates the `q`, `s`, and `limit` parameters shared by
    /// `/search` and `/suggest`; `Err` is the ready-to-send 400 response.
    fn parse_query_params(&self, request: &Request) -> Result<QueryParams, HttpResponse> {
        let Some(q) = request.param("q") else {
            return Err(HttpResponse::error(400, "missing query parameter q"));
        };
        let query = match Query::parse(q) {
            Ok(query) => query,
            Err(e) => return Err(HttpResponse::error(400, &format!("bad query: {e}"))),
        };
        let s_raw = request.param("s").unwrap_or("1");
        let Some(s) = Threshold::parse(s_raw) else {
            return Err(HttpResponse::error(400, &format!("bad s value {s_raw:?}")));
        };
        let limit = match request.param("limit") {
            None => self.config.default_limit,
            Some(v) => match v.parse::<usize>() {
                Ok(n) if n > 0 => n.min(self.config.max_limit),
                _ => return Err(HttpResponse::error(400, &format!("bad limit value {v:?}"))),
            },
        };
        let explain = matches!(request.param("explain"), Some("1") | Some("true"));
        Ok(QueryParams { query, s, s_raw: s_raw.to_string(), limit, explain })
    }

    /// The query pipeline — the only one. Pin a consistent shard set, probe
    /// the cache under the set's identity, search every shard
    /// ([`ServeState::search_set`]), gather — merge the per-shard answers
    /// losslessly by potential-flow score, renumber documents through each
    /// shard's [`gks_core::shard::DocMap`], re-truncate to the limit — and
    /// render against the owning shards. An unsharded index is a set of one
    /// and takes exactly this path. Fills `record` as facts about the
    /// request become known.
    ///
    /// One pinned set serves the whole request — search, render, and cache
    /// tagging — so a concurrent hot-swap can never mix engine output with
    /// the wrong cache identity, and a mixed-generation answer is never
    /// merged: the set is taken under an epoch double-read
    /// ([`ResidentIndex::snapshot_all`]), so every search runs against
    /// shards that coexisted at one instant. If the epoch moved while the
    /// searches ran, the first race re-runs once on the new generation
    /// (freshness, not correctness — the pinned set is still internally
    /// consistent); a second race serves the pinned answer.
    ///
    /// `x-gks-shards`, `x-gks-gather-micros`, the gather span, and the
    /// per-shard `shard_costs` breakdown describe a fan-out, so they appear
    /// only when the set has more than one shard; bodies are byte-identical
    /// across fan-outs.
    fn run_query(
        &self,
        request: &Request,
        accepted_at: Instant,
        suggest: bool,
        resident: &ResidentIndex,
        record: &mut qlog::QueryRecord,
    ) -> HttpResponse {
        let params = match self.parse_query_params(request) {
            Ok(params) => params,
            Err(response) => return response,
        };
        record.limit = params.limit;
        let key = cache_key(suggest, &params);
        let options = SearchOptions { s: params.s, limit: params.limit };

        for attempt in 0..2u32 {
            let set = match self.pin(resident) {
                Ok(set) => set,
                Err(response) => return response,
            };
            let fanned = set.shards.len() > 1;
            if attempt == 0 && self.config.cache_bytes > 0 {
                // Lookup pinned to the set's combined identity: a hit can
                // only ever return bytes computed against this exact
                // generation set.
                if let Some(body) = resident.cache().get_for(&key, set.identity) {
                    self.metrics.cache_hits_total.fetch_add(1, Ordering::Relaxed);
                    resident.counters().cache_hits_total.fetch_add(1, Ordering::Relaxed);
                    record.cached = true;
                    let hit = HttpResponse::json(200, body.to_vec())
                        .with_header("x-gks-cache", "hit".to_string());
                    return if fanned {
                        hit.with_header("x-gks-shards", set.shards.len().to_string())
                    } else {
                        hit
                    };
                }
                self.metrics.cache_misses_total.fetch_add(1, Ordering::Relaxed);
                resident.counters().cache_misses_total.fetch_add(1, Ordering::Relaxed);
            }
            // Admission + queueing may already have consumed the budget; do
            // not start a search we are not allowed to finish.
            if self.budget_left(accepted_at).is_none() {
                return self.deadline_abort();
            }
            let responses = match self.search_set(resident, &set, &params.query, options) {
                Ok(responses) => responses,
                Err(response) => return response,
            };
            // Freshness guard: the pinned set is internally consistent by
            // construction, but if a reload landed during the search the
            // answer describes the previous generation. Re-run once on the
            // new generation; if the epoch races again, serve the pinned
            // (consistent) answer rather than fail.
            if attempt == 0 && resident.epoch() != set.epoch {
                self.metrics.shard_retries_total.fetch_add(1, Ordering::Relaxed);
                continue;
            }
            // Gather: lossless merge — exact re-sort by (rank, keyword
            // count, Dewey order), re-truncate, DI keyword re-aggregation.
            let gather_span = fanned.then(|| gks_trace::span(SpanKind::Gather));
            let answers = set.doc_maps.iter().cloned().zip(responses).collect();
            let mut merged = match gks_core::merge_responses(answers, params.limit) {
                Ok(merged) => merged,
                Err(e) => return HttpResponse::error(400, &format!("gather failed: {e}")),
            };
            let gather_micros = gather_span.map(|span| span.elapsed_micros());
            record.hits = Some(merged.response().hits().len());
            record.sl_len = Some(merged.response().sl_len());
            // The deadline gates result *rendering*: a search that returns
            // with an exhausted budget is aborted before serialization
            // (rendering ranks, paths, and attributes dominates for large
            // limits).
            if self.budget_left(accepted_at).is_none() {
                return self.deadline_abort();
            }
            let render_span = gks_trace::span(SpanKind::Render);
            let engines = set.engines();
            let Some(first_engine) = engines.first() else {
                return HttpResponse::error(500, "index has no shards");
            };
            let mut body = if suggest {
                let indexes: Vec<&GksIndex> = engines.iter().map(|e| e.index()).collect();
                let (di, di_attrs) =
                    gks_core::discover_di_sharded_counted(&indexes, &merged, &DiOptions::default());
                merged.response_mut().cost_mut().di_attrs = di_attrs;
                let refinement = first_engine.refine(merged.response(), &di);
                wire::suggest_response_json(merged.response(), &refinement, &di)
            } else {
                wire::search_response_json_sharded(&engines, &merged)
            };
            drop(render_span);
            if self.budget_left(accepted_at).is_none() {
                return self.deadline_abort();
            }
            // An engine run implies the cache was probed and missed (hits
            // return above). `result_bytes` is the plain body — the explain
            // splice is accounting, not payload.
            {
                let cost = merged.response_mut().cost_mut();
                if self.config.cache_bytes > 0 {
                    cost.cache_probes = 1;
                }
                cost.result_bytes = body.len() as u64;
            }
            if params.explain && !suggest {
                let shard_costs = if fanned { merged.shard_costs() } else { &[] };
                wire::append_cost_explain(&mut body, merged.response(), shard_costs);
            }
            record.cost = Some(merged.response().cost().clone());
            if self.config.cache_bytes > 0 {
                // Tagged with the pinned set's identity, not the live one:
                // if a swap landed mid-request this entry is already stale
                // and must stay invisible to post-swap readers.
                resident.cache().put_for(key, Arc::from(body.as_bytes()), set.identity);
            }
            let mut http =
                HttpResponse::json(200, body).with_header("x-gks-cache", "miss".to_string());
            if let Some(micros) = gather_micros {
                http = http
                    .with_header("x-gks-shards", set.shards.len().to_string())
                    .with_header("x-gks-gather-micros", micros.to_string());
            }
            return if params.explain {
                http.with_header("x-gks-cost", merged.response().cost().summary_header())
            } else {
                http
            };
        }
        // Unreachable: both loop iterations return on every path; the
        // second never takes the `continue` branch.
        HttpResponse::error(503, "index reloading, retry shortly")
    }

    /// The search stage: one [`Engine::search`] per shard of the pinned
    /// set, answers in shard order. A set of one has nothing to fan out —
    /// its search runs right here on the calling worker, with no lane hop.
    /// Wider sets scatter: every shard searches concurrently on its own
    /// lane of the resident index's persistent executor — a channel send
    /// per shard, no thread spawn on the request path — and each task
    /// captures its span subtree (timed even when the request is sampled
    /// out) so the shard trees can be grafted under the scatter span.
    fn search_set(
        &self,
        resident: &ResidentIndex,
        set: &ShardSet,
        query: &Query,
        options: SearchOptions,
    ) -> Result<Vec<Response>, HttpResponse> {
        let outputs = if let [only] = set.shards.as_slice() {
            vec![only.engine.search(query, options)]
        } else {
            let sampled = gks_trace::current_sampled();
            let _scatter_span = gks_trace::span(SpanKind::Scatter);
            let query = Arc::new(query.clone());
            let tasks: Vec<_> = set
                .shards
                .iter()
                .enumerate()
                .map(|(i, loaded)| {
                    let engine = Arc::clone(&loaded.engine);
                    let query = Arc::clone(&query);
                    move || {
                        let label = format!("shard-{i}");
                        gks_trace::capture(SpanKind::Search, &label, sampled, || {
                            engine.search(&query, options)
                        })
                    }
                })
                .collect();
            // A slot only fails when the shard task panicked (or the
            // executor is shutting down).
            let caps = resident
                .executor()
                .scatter(tasks)
                .into_iter()
                .collect::<Result<Vec<_>, String>>()
                .map_err(|_| HttpResponse::error(500, "shard worker failed"))?;
            let fastest = caps.iter().map(|c| c.micros).min().unwrap_or(0);
            let slowest = caps.iter().map(|c| c.micros).max().unwrap_or(0);
            self.metrics.shard_fanout.record(caps.len() as u64);
            self.metrics.shard_straggler_micros.record(slowest.saturating_sub(fastest));
            caps.into_iter()
                .map(|cap| {
                    if let Some(node) = cap.node {
                        gks_trace::attach(node);
                    }
                    cap.output
                })
                .collect()
        };
        outputs
            .into_iter()
            .map(|output| {
                output.map_err(|e| HttpResponse::error(400, &format!("search failed: {e}")))
            })
            .collect()
    }
}

/// Parsed, validated `/search`-`/suggest` parameters.
#[derive(Debug)]
struct QueryParams {
    query: Query,
    s: Threshold,
    s_raw: String,
    limit: usize,
    explain: bool,
}

/// The normalized cache key: endpoint + parsed keywords (whitespace
/// collapsed by the parser) + s + limit + explain. Raw keyword spellings
/// are kept — they are echoed in the response body, so they are part of
/// the cached bytes' identity; `explain` changes the body (the spliced
/// cost breakdown), so it is part of the key too.
fn cache_key(suggest: bool, params: &QueryParams) -> String {
    use std::fmt::Write as _;
    let mut key = String::with_capacity(params.s_raw.len() + 24);
    key.push_str(if suggest { "suggest" } else { "search" });
    for kw in params.query.keywords() {
        key.push('\u{1}');
        key.push_str(kw.raw());
    }
    key.push('\u{2}');
    key.push_str(&params.s_raw);
    key.push('\u{2}');
    let _ = write!(key, "{}", params.limit);
    key.push('\u{2}');
    key.push(if params.explain { '1' } else { '0' });
    key
}

/// Totals reported by [`Server::shutdown`] after the drain completes.
#[derive(Debug, Clone, Copy)]
pub struct DrainReport {
    /// Connections accepted over the server's lifetime.
    pub accepted: u64,
    /// Requests fully served (a response was written).
    pub served: u64,
    /// Connections rejected by admission control.
    pub rejected: u64,
}

/// A running server: reactor thread + worker pool over a [`ServeState`].
#[derive(Debug)]
pub struct Server {
    state: Arc<ServeState>,
    addr: SocketAddr,
    queue: Arc<BoundedQueue<conn::WorkItem>>,
    shared: Arc<reactor::ReactorShared>,
    stop: Arc<AtomicBool>,
    reactor: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
    maintenance: Option<JoinHandle<()>>,
}

/// Binds `config.addr` and spawns the accept loop and worker pool over a
/// single-index catalog. The returned [`Server`] is live until
/// [`Server::shutdown`].
pub fn serve(engine: Arc<Engine>, config: ServeConfig) -> Result<Server, ServeError> {
    let specs = vec![IndexSpec::with_engine(catalog::DEFAULT_INDEX_NAME, engine)];
    serve_catalog(specs, None, config)
}

/// Binds `config.addr` and spawns the accept loop and worker pool over a
/// catalog built from `specs` (`default` names the index bare `/search`
/// addresses; `None` → the first spec). The returned [`Server`] is live
/// until [`Server::shutdown`].
pub fn serve_catalog(
    specs: Vec<IndexSpec>,
    default: Option<&str>,
    config: ServeConfig,
) -> Result<Server, ServeError> {
    if config.workers == 0 {
        return Err(ServeError::BadConfig("workers must be > 0".into()));
    }
    if config.max_connections == 0 {
        return Err(ServeError::BadConfig("max-connections must be > 0".into()));
    }
    if config
        .compact_threshold
        .is_some_and(|n| n == 0 || config.watch_interval.is_none())
    {
        return Err(ServeError::BadConfig(
            "compact-threshold must be >= 1 and needs a watch interval (it runs on the watcher \
             tick)"
                .into(),
        ));
    }
    let listener = TcpListener::bind(&config.addr)
        .map_err(|e| ServeError::Bind { addr: config.addr.clone(), source: e })?;
    listener.set_nonblocking(true).map_err(ServeError::Io)?;
    let addr = listener.local_addr().map_err(ServeError::Io)?;
    let state = Arc::new(ServeState::with_catalog(specs, default, config.clone())?);
    let queue: Arc<BoundedQueue<conn::WorkItem>> = Arc::new(BoundedQueue::new(config.queue_depth));
    let stop = Arc::new(AtomicBool::new(false));
    // The reactor's wake channel is a loopback self-pipe: workers write a
    // byte to pop it out of poll(). Built here — blocking connect/accept
    // are fine outside the reactor.
    let (wake_tx, wake_rx) = {
        let pipe = TcpListener::bind("127.0.0.1:0").map_err(ServeError::Io)?;
        let pipe_addr = pipe.local_addr().map_err(ServeError::Io)?;
        let tx = TcpStream::connect(pipe_addr).map_err(ServeError::Io)?;
        let (rx, _) = pipe.accept().map_err(ServeError::Io)?;
        tx.set_nonblocking(true).map_err(ServeError::Io)?;
        let _ = tx.set_nodelay(true);
        rx.set_nonblocking(true).map_err(ServeError::Io)?;
        (tx, rx)
    };
    let shared = Arc::new(reactor::ReactorShared::new(wake_tx));

    let reactor_handle = {
        let reactor = reactor::Reactor {
            listener,
            wake_rx,
            shared: Arc::clone(&shared),
            queue: Arc::clone(&queue),
            stop: Arc::clone(&stop),
            state: Arc::clone(&state),
        };
        std::thread::Builder::new()
            .name("gks-reactor".to_string())
            .spawn(move || reactor.run())
            .map_err(ServeError::Io)?
    };
    let workers = (0..config.workers)
        .map(|i| {
            let state = Arc::clone(&state);
            let queue = Arc::clone(&queue);
            let shared = Arc::clone(&shared);
            let stop = Arc::clone(&stop);
            std::thread::Builder::new()
                .name(format!("gks-worker-{i}"))
                .spawn(move || worker_loop(&state, &queue, &shared, &stop))
                .map_err(ServeError::Io)
        })
        .collect::<Result<Vec<_>, _>>()?;
    // The maintenance thread exists only when there is update-path work to
    // do: a watcher interval and at least one manifest-backed index.
    let maintenance = match config.watch_interval {
        Some(interval) if state.catalog().iter().any(|r| r.manifest_path().is_some()) => {
            let state = Arc::clone(&state);
            let stop = Arc::clone(&stop);
            Some(
                std::thread::Builder::new()
                    .name("gks-maintenance".to_string())
                    .spawn(move || maintenance_loop(&state, interval, &stop))
                    .map_err(ServeError::Io)?,
            )
        }
        _ => None,
    };

    Ok(Server {
        state,
        addr,
        queue,
        shared,
        stop,
        reactor: Some(reactor_handle),
        workers,
        maintenance,
    })
}

/// The background update loop: every `interval`, one
/// [`ResidentIndex::maintain`] tick per manifest-backed index — the
/// `gks watch` policy, publishing through the hot-swap protocol. Errors
/// are deliberately non-fatal: a mid-mutation corpus scan or a transient
/// I/O failure is retried on the next tick, and the serving set is never
/// left inconsistent because every publish goes through the manifest's
/// atomic epoch bump. Sleeps in short slices so shutdown stays prompt.
fn maintenance_loop(state: &ServeState, interval: Duration, stop: &AtomicBool) {
    while !stop.load(Ordering::SeqCst) {
        for resident in state.catalog().iter().filter(|r| r.manifest_path().is_some()) {
            let _ = resident.maintain(state.config.compact_threshold);
        }
        let mut slept = Duration::ZERO;
        while slept < interval && !stop.load(Ordering::SeqCst) {
            let slice = (interval - slept).min(Duration::from_millis(10));
            std::thread::sleep(slice);
            slept += slice;
        }
    }
}

/// Pops fully-read requests off the admission queue, routes them, and
/// writes the response with nonblocking single shots. The socket's final
/// disposition goes back to the reactor: idle for the next keep-alive
/// request, a partial flush to finish, or dropped on close. The pending
/// decrement is strictly last — the reactor's drain barrier counts on it
/// coming after the retired socket is visible.
fn worker_loop(
    state: &ServeState,
    queue: &BoundedQueue<conn::WorkItem>,
    shared: &reactor::ReactorShared,
    stop: &AtomicBool,
) {
    while let Some(item) = queue.pop() {
        let conn::WorkItem { mut stream, request, accepted_at, residual, requests_served } = item;
        state.metrics.in_flight.fetch_add(1, Ordering::Relaxed);
        let response = state.handle(&request, accepted_at);
        let micros = u64::try_from(accepted_at.elapsed().as_micros()).unwrap_or(u64::MAX);
        state.metrics.record_status(response.status);
        state.metrics.latency.record(micros);
        let response = response.with_header("x-gks-micros", micros.to_string());
        // A drain closes keep-alive connections after their in-flight
        // response: honoring `keep_alive` would park them forever.
        let keep_alive = request.keep_alive && !stop.load(Ordering::SeqCst);
        let buf = response.serialize(keep_alive);
        let mut written = 0;
        match conn::write_some(&mut stream, &buf, &mut written) {
            conn::WriteOutcome::Done => {
                state.served.fetch_add(1, Ordering::Relaxed);
                if keep_alive {
                    shared.retire(conn::Retired {
                        stream,
                        kind: conn::RetiredKind::Idle { residual },
                        requests_served: requests_served + 1,
                    });
                }
            }
            conn::WriteOutcome::Blocked => {
                // Slow reader: park the remaining bytes on the reactor
                // instead of pinning this worker (it counts `served` when
                // the flush completes).
                shared.retire(conn::Retired {
                    stream,
                    kind: conn::RetiredKind::Flush { buf, written, keep_alive, residual },
                    requests_served: requests_served + 1,
                });
            }
            conn::WriteOutcome::Closed => {}
        }
        state.metrics.in_flight.fetch_sub(1, Ordering::Relaxed);
        shared.pending.fetch_sub(1, Ordering::SeqCst);
        // `retire()` above wakes the reactor when a socket went back; a
        // closed socket needs no wake — except during a drain, where the
        // reactor may be parked in poll waiting for pending to hit zero.
        if stop.load(Ordering::SeqCst) {
            shared.wake();
        }
    }
}

impl Server {
    /// The bound address (resolves port 0 to the actual ephemeral port).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The shared state (metrics, cache) — e.g. for in-process inspection.
    pub fn state(&self) -> &Arc<ServeState> {
        &self.state
    }

    /// Graceful shutdown: stop accepting, drain queued and in-flight
    /// requests, join all threads, and report totals. Idempotent by
    /// construction (consumes the server).
    pub fn shutdown(mut self) -> DrainReport {
        self.stop.store(true, Ordering::SeqCst);
        // No more admissions; workers drain the backlog, then exit.
        self.queue.shutdown();
        // Pop the reactor out of poll() so it sees the stop flag; it exits
        // once every dispatched request has been answered and every
        // in-progress response flush has completed.
        self.shared.wake();
        if let Some(handle) = self.reactor.take() {
            let _ = handle.join();
        }
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
        if let Some(handle) = self.maintenance.take() {
            let _ = handle.join();
        }
        DrainReport {
            accepted: self.state.accepted.load(Ordering::Relaxed),
            served: self.state.served.load(Ordering::Relaxed),
            rejected: self.state.metrics.rejected_total.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gks_index::{Corpus, IndexOptions};

    fn small_engine() -> Arc<Engine> {
        let xml = "<dblp>\
            <article><title>Generic Keyword Search</title>\
                <author>Manoj Agarwal</author><author>Krithi Ramamritham</author>\
                <year>2016</year></article>\
            <article><title>Holistic Twig Joins</title>\
                <author>Nicolas Bruno</author><author>Divesh Srivastava</author>\
                <year>2002</year></article>\
        </dblp>";
        let corpus = Corpus::from_named_strs([("dblp", xml)]).unwrap();
        Arc::new(Engine::build(&corpus, IndexOptions::default()).unwrap())
    }

    fn get(state: &ServeState, target: &str) -> HttpResponse {
        let request = http::parse_request(&format!("GET {target} HTTP/1.1\r\n\r\n")).unwrap();
        state.handle(&request, Instant::now())
    }

    #[test]
    fn routes_and_shapes() {
        let state = ServeState::new(small_engine(), ServeConfig::default()).unwrap();
        assert_eq!(get(&state, "/healthz").status, 200);
        assert_eq!(get(&state, "/nope").status, 404);

        let search = get(&state, "/search?q=keyword+search&s=2");
        assert_eq!(search.status, 200);
        let body = String::from_utf8(search.body).unwrap();
        assert!(body.starts_with("{\"query\":[\"keyword\",\"search\"]"), "{body}");

        let suggest = get(&state, "/suggest?q=agarwal");
        assert_eq!(suggest.status, 200);
        assert!(String::from_utf8(suggest.body).unwrap().contains("\"sub_queries\""));

        let doctor = get(&state, "/doctor");
        assert!(String::from_utf8(doctor.body).unwrap().contains("\"healthy\":true"));

        let metrics = get(&state, "/metrics");
        let text = String::from_utf8(metrics.body).unwrap();
        assert!(metrics::metric_value(&text, "gks_requests_total").unwrap() >= 4);
        assert!(
            metrics::metric_value(&text, "gks_index_requests_total{index=\"default\"}").is_some(),
            "per-index section present: {text}"
        );
    }

    #[test]
    fn prefixed_routes_reach_the_default_catalog_entry() {
        let state = ServeState::new(small_engine(), ServeConfig::default()).unwrap();
        let bare = get(&state, "/search?q=twig&s=1");
        let prefixed = get(&state, "/ix/default/search?q=twig&s=1");
        assert_eq!(prefixed.status, 200);
        assert_eq!(bare.body, prefixed.body, "same index, same bytes");
        assert_eq!(get(&state, "/ix/nope/search?q=twig").status, 404, "unknown index");
        assert_eq!(get(&state, "/ix/default/doctor").status, 200);

        // Engine-backed indexes have no source path: reload is a 400.
        let request = http::parse_request("POST /admin/reload HTTP/1.1\r\n\r\n").unwrap();
        assert_eq!(state.handle(&request, Instant::now()).status, 400);
        // …and reload over GET is a 405.
        let request = http::parse_request("GET /admin/reload HTTP/1.1\r\n\r\n").unwrap();
        assert_eq!(state.handle(&request, Instant::now()).status, 405);
        // Unknown ?index= names 404 before any reload is attempted.
        let request =
            http::parse_request("POST /admin/reload?index=nope HTTP/1.1\r\n\r\n").unwrap();
        assert_eq!(state.handle(&request, Instant::now()).status, 404);
    }

    #[test]
    fn parameter_validation() {
        let state = ServeState::new(small_engine(), ServeConfig::default()).unwrap();
        assert_eq!(get(&state, "/search").status, 400, "missing q");
        assert_eq!(get(&state, "/search?q=x&s=zero").status, 400, "bad s");
        assert_eq!(get(&state, "/search?q=x&limit=wat").status, 400, "bad limit");
        assert_eq!(get(&state, "/search?q=%22unclosed").status, 400, "unclosed phrase");
        let request = http::parse_request("POST /search?q=x HTTP/1.1\r\n\r\n").unwrap();
        assert_eq!(state.handle(&request, Instant::now()).status, 405);
    }

    #[test]
    fn cache_hits_return_identical_bytes() {
        let state = ServeState::new(small_engine(), ServeConfig::default()).unwrap();
        let first = get(&state, "/search?q=twig&s=1");
        let second = get(&state, "/search?q=twig&s=1");
        assert_eq!(first.body, second.body);
        let hdr = |r: &HttpResponse| {
            r.headers.iter().find(|(k, _)| *k == "x-gks-cache").map(|(_, v)| v.clone())
        };
        assert_eq!(hdr(&first).as_deref(), Some("miss"));
        assert_eq!(hdr(&second).as_deref(), Some("hit"));
        assert_eq!(state.metrics.cache_hits_total.load(Ordering::Relaxed), 1);
        assert_eq!(state.metrics.cache_misses_total.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn explain_splices_cost_and_feeds_the_sinks() {
        let state = ServeState::new(small_engine(), ServeConfig::default()).unwrap();
        let plain = get(&state, "/search?q=twig+joins&s=1");
        let explained = get(&state, "/search?q=twig+joins&s=1&explain=1");
        assert_eq!(explained.status, 200);
        let plain_body = String::from_utf8(plain.body).unwrap();
        let body = String::from_utf8(explained.body).unwrap();
        // Strict superset: the explain splice extends the plain body.
        assert!(body.starts_with(plain_body.trim_end_matches('}')), "{body}");
        assert!(body.contains("\"cost\":{\"postings_scanned\":"), "{body}");
        assert!(body.contains("\"cost_keywords\":[{\"keyword\":\"twig\""), "{body}");
        assert!(body.ends_with("\"shard_costs\":[]}"), "unsharded breakdown is empty: {body}");
        let summary = explained
            .headers
            .iter()
            .find(|(k, _)| *k == "x-gks-cost")
            .map(|(_, v)| v.clone())
            .expect("x-gks-cost behind explain=1");
        let ledger = gks_core::CostLedger::parse_summary_header(&summary).unwrap();
        assert!(ledger.postings_scanned > 0 && ledger.result_bytes > 0, "{summary}");
        assert_eq!(ledger.result_bytes as usize, plain_body.len(), "plain body is the payload");
        assert!(
            !plain.headers.iter().any(|(k, _)| *k == "x-gks-cost"),
            "header gated on explain"
        );
        // Both keys cache independently and replay their own bytes.
        let replay = get(&state, "/search?q=twig+joins&s=1&explain=1");
        assert_eq!(String::from_utf8(replay.body).unwrap(), body);
        // The engine runs fed the per-index cost counters and the top-K table.
        let metrics = get(&state, "/metrics");
        let text = String::from_utf8(metrics.body).unwrap();
        assert!(
            metrics::metric_value(&text, "gks_cost_postings_scanned_total{index=\"default\"}")
                .is_some_and(|v| v > 0),
            "{text}"
        );
        assert!(
            metrics::metric_value(&text, "gks_cost_postings_per_query_count{index=\"default\"}")
                .is_some_and(|v| v >= 2),
            "{text}"
        );
        let top = get(&state, "/debug/top");
        let top_body = String::from_utf8(top.body).unwrap();
        assert!(top_body.contains("\"query\":\"twig joins\""), "{top_body}");
    }

    #[test]
    fn zero_deadline_aborts() {
        let config = ServeConfig { deadline: Duration::from_nanos(0), ..Default::default() };
        let state = ServeState::new(small_engine(), config).unwrap();
        let response = get(&state, "/search?q=twig");
        assert_eq!(response.status, 503);
        assert_eq!(state.metrics.deadline_aborts_total.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn identity_differs_across_corpora() {
        let other = {
            let corpus = Corpus::from_named_strs([("x", "<r><a>hi</a><a>ho</a></r>")]).unwrap();
            Arc::new(Engine::build(&corpus, IndexOptions::default()).unwrap())
        };
        assert_ne!(index_identity(small_engine().index()), index_identity(other.index()),);
    }
}
