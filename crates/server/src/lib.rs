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
//!   writers cost a poll-set entry, not a thread. A `/search` or `/suggest`
//!   whose answer the result cache holds is answered right there
//!   (`ServeState::inline_hit`); only **misses** (and every other
//!   request) cross the *admission control* boundary: the worker pool's
//!   **bounded** queue ([`gks_exec::WorkerPool::try_submit`]); when it is
//!   full the request is answered `503 + Retry-After` immediately instead
//!   of queueing unboundedly.
//! * **worker pool** — a fixed number of `gks-exec` threads run parsed
//!   requests, route them ([`ServeState::handle`]), and write the response,
//!   handing the socket back to the reactor if the write would block or
//!   the connection is keep-alive. Each request carries a **deadline**
//!   from its first byte; work still pending past the deadline
//!   (including time spent queued) is aborted with `503` and counted.
//! * **query pipeline** — every resident index is a *shard set*; an
//!   unsharded index is a set of one. `/search` and `/suggest` run one
//!   pipeline ([`ServeState::handle`]): pin a consistent set, probe the
//!   cache under the set's epoch, search every shard, gather, render.
//!   A set of more than one scatters over the catalog's persistent
//!   per-shard worker lanes ([`gks_core::ShardExecutor`], one per server)
//!   — a queue push, never a thread spawn on the request path; a set of
//!   one searches on the calling worker.
//! * **result cache** — one sharded LRU per index ([`cache::ResultCache`])
//!   keyed on the normalized `(endpoint, query, s, limit)` tuple, storing
//!   the exact response bytes; the deterministic wire format
//!   (`gks_core::wire`) makes a hit byte-identical to recomputation. Every
//!   entry is tagged with the epoch of the generation it was computed
//!   against, and every hot-swap installs a fresh epoch, so a swap can
//!   never serve stale bytes.
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
pub mod qlog;
pub mod signal;
pub mod topk;

mod config;
mod conn;
mod lifecycle;
mod poller;
mod reactor;

pub use config::{ServeConfig, DEFAULT_LIMIT, MAX_LIMIT};
pub use lifecycle::{serve, serve_catalog, DrainReport, Server};

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
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
    /// `(epoch_before, epoch_after)`.
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
        let route = http::route_path(&request.path);
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
            Endpoint::Search => self.handle_query(request, accepted_at, false, resident, None),
            Endpoint::Suggest => self.handle_query(request, accepted_at, true, resident, None),
            Endpoint::AdminReload | Endpoint::AdminCompact | Endpoint::Other => {
                HttpResponse::error(404, "unknown path")
            }
        }
    }

    /// `POST /admin/reload?index=<name>` (or `POST /ix/<name>/admin/reload`):
    /// hot-swaps the named index — default when unnamed — and reports the
    /// identity transition: the generation epoch before and after. Every
    /// changed shard file is re-read into one new generation, swapped in
    /// whole; when no file changed nothing is installed and the response
    /// says `"changed":false`. `400` for engine-backed (unreloadable)
    /// indexes, `404` for unknown names, `500` when re-reading a source
    /// fails — the index then keeps serving the generation it had.
    fn handle_reload(&self, request: &Request, route_index: Option<&str>) -> HttpResponse {
        let named = request.param("index").map(|s| s.to_ascii_lowercase());
        let name = named.as_deref().or(route_index);
        let resident = match self.resolve(name) {
            Ok(resident) => resident,
            Err(response) => return response,
        };
        match resident.reload() {
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

    /// `GET /doctor` audits every shard of every resident index; under an
    /// `/ix/<name>/` prefix it reports just that index. A manifest-backed
    /// index also reports `gks_index::audit_manifest`'s findings — the ones
    /// `gks doctor <manifest>` prints — prefixed `manifest:`.
    fn handle_doctor(&self, route_index: Option<&str>, resident: &ResidentIndex) -> HttpResponse {
        let entry = |r: &ResidentIndex| {
            let findings: Vec<String> = match r.manifest_path().map(audit_manifest) {
                None => Vec::new(),
                Some(Ok((_, found))) => found.iter().map(|v| format!("manifest: {v}")).collect(),
                Some(Err(e)) => vec![format!("manifest: cannot be read: {e}")],
            };
            wire::doctor_entry_json(r.name(), &r.snapshot_all().engines(), &findings)
        };
        let body = if route_index.is_some() {
            entry(resident)
        } else {
            let entries: Vec<String> = self.catalog.iter().map(|r| entry(r)).collect();
            wire::catalog_doctor_json(&entries)
        };
        HttpResponse::json(200, body)
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

    /// The reactor lane's entry: the result-cache hit for a `GET /search`
    /// or `/suggest` request, or `None` — then the request takes the worker
    /// lane, which handles everything. Side-effect free like
    /// [`ServeState::probe`], which it calls.
    ///
    /// The lane rule: while a query log or a slow-query log is configured,
    /// every request takes the worker lane — those sinks write files, and
    /// the reactor never blocks.
    pub(crate) fn inline_hit(&self, request: &Request) -> Option<CacheHit<'_>> {
        let logging = self.query_log.is_some() || self.slow_log.is_some();
        if logging || self.config.cache_bytes == 0 || request.method != "GET" {
            return None;
        }
        let route = http::route_path(&request.path);
        let suggest = match route.endpoint {
            Endpoint::Search => false,
            Endpoint::Suggest => true,
            _ => return None,
        };
        let resident = self.resolve(route.index.as_deref()).ok()?;
        let probe = self.probe(request, suggest, resident).ok()?;
        probe
            .hit
            .is_some()
            .then_some(CacheHit { endpoint: route.endpoint, resident, probe })
    }

    /// Answers a hit found by [`ServeState::inline_hit`] through the same
    /// pipeline [`ServeState::handle`] runs — request counters, the
    /// `request` span and every sink behind it — minus the second probe.
    pub(crate) fn answer_hit(
        &self,
        request: &Request,
        accepted_at: Instant,
        hit: CacheHit<'_>,
    ) -> HttpResponse {
        self.metrics.record_request(hit.endpoint);
        let suggest = hit.endpoint == Endpoint::Suggest;
        self.handle_query(request, accepted_at, suggest, hit.resident, Some(hit.probe))
    }

    /// The response tail every answered request shares, whichever thread
    /// answers it: status and latency recorded, `x-gks-micros` attached,
    /// serialized with `Connection: keep-alive` or `close`.
    pub(crate) fn finish(&self, response: HttpResponse, micros: u64, keep_alive: bool) -> Vec<u8> {
        self.metrics.record_status(response.status);
        self.metrics.latency.record(micros);
        response.with_header("x-gks-micros", micros.to_string()).serialize(keep_alive)
    }

    /// `/search` and `/suggest`: runs the query under a `request` root span
    /// labeled with the index's route key, then fans the outcome out to
    /// every observability sink — the `Server-Timing` header, the query log,
    /// the per-index phase histograms, and (over the threshold) the
    /// slow-query log with the full span tree. `probed` is a probe the
    /// caller already made; `None` probes here.
    fn handle_query(
        &self,
        request: &Request,
        accepted_at: Instant,
        suggest: bool,
        resident: &ResidentIndex,
        probed: Option<Probe>,
    ) -> HttpResponse {
        resident.counters().requests_total.fetch_add(1, Ordering::Relaxed);
        let request_span = gks_trace::span_labeled(SpanKind::Request, resident.name());
        let mut record = qlog::QueryRecord::new(if suggest { "suggest" } else { "search" });
        record.index = resident.name().to_string();
        record.query = request.param("q").unwrap_or_default().to_string();
        record.s = request.param("s").unwrap_or("1").to_string();
        let mut response =
            self.run_query(request, accepted_at, suggest, resident, &mut record, probed);
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
            None => DEFAULT_LIMIT,
            Some(v) => match v.parse::<usize>() {
                Ok(n) if n > 0 => n.min(MAX_LIMIT),
                _ => return Err(HttpResponse::error(400, &format!("bad limit value {v:?}"))),
            },
        };
        let explain = matches!(request.param("explain"), Some("1") | Some("true"));
        Ok(QueryParams { query, s, s_raw: s_raw.to_string(), limit, explain })
    }

    /// The cache probe — the only one: parse the parameters, build the key,
    /// pin the current generation and look the key up under the set's
    /// epoch, so a hit can only ever return bytes computed against this
    /// exact generation. No counter, span, record or log: the reactor runs
    /// it too, and a hit's sinks are fed once, by [`ServeState::run_query`].
    /// `Err` is the ready-to-send 400 response.
    fn probe(
        &self,
        request: &Request,
        suggest: bool,
        resident: &ResidentIndex,
    ) -> Result<Probe, HttpResponse> {
        let params = self.parse_query_params(request)?;
        let key = cache_key(suggest, &params);
        let set = resident.snapshot_all();
        let hit = if self.config.cache_bytes > 0 {
            resident.cache().get_for(&key, set.epoch)
        } else {
            None
        };
        Ok(Probe { params, key, set, hit })
    }

    /// The query pipeline — the only one. Probe the cache under the pinned
    /// generation ([`ServeState::probe`]), search every shard
    /// ([`ServeState::search_set`]), gather — merge the per-shard answers
    /// losslessly by potential-flow score, renumber documents through each
    /// shard's [`gks_core::shard::DocMap`], re-truncate to the limit — and
    /// render against the owning shards. An unsharded index is a set of one
    /// and takes exactly this path. Fills `record` as facts about the
    /// request become known.
    ///
    /// One pinned generation serves the whole request — search, render, and
    /// cache tagging — so a concurrent hot-swap can never mix engine output
    /// with the wrong cache epoch, and a mixed-generation answer is
    /// never merged: [`ResidentIndex::snapshot_all`] hands out a whole
    /// generation, which some single build produced. If the epoch moved
    /// while the searches ran, the first race re-runs once on the new
    /// generation (freshness, not correctness — the pinned set is still
    /// internally consistent); a second race serves the pinned answer.
    ///
    /// `x-gks-shards`, `x-gks-gather-micros`, the gather span, and the
    /// per-shard `shard_costs` breakdown describe a fan-out, so they appear
    /// only when the set has more than one shard (a hit carries
    /// `x-gks-shards` alone); bodies are byte-identical across fan-outs.
    fn run_query(
        &self,
        request: &Request,
        accepted_at: Instant,
        suggest: bool,
        resident: &ResidentIndex,
        record: &mut qlog::QueryRecord,
        probed: Option<Probe>,
    ) -> HttpResponse {
        let probe = match probed.map_or_else(|| self.probe(request, suggest, resident), Ok) {
            Ok(probe) => probe,
            Err(response) => return response,
        };
        let Probe { params, key, mut set, hit } = probe;
        record.limit = params.limit;
        if let Some(body) = hit {
            self.metrics.cache_hits_total.fetch_add(1, Ordering::Relaxed);
            resident.counters().cache_hits_total.fetch_add(1, Ordering::Relaxed);
            record.cached = true;
            let hit =
                HttpResponse::shared_json(200, body).with_header("x-gks-cache", "hit".to_string());
            return if set.shards.len() > 1 {
                hit.with_header("x-gks-shards", set.shards.len().to_string())
            } else {
                hit
            };
        }
        if self.config.cache_bytes > 0 {
            self.metrics.cache_misses_total.fetch_add(1, Ordering::Relaxed);
            resident.counters().cache_misses_total.fetch_add(1, Ordering::Relaxed);
        }
        let options = SearchOptions { s: params.s, limit: params.limit };
        let mut retried = false;
        loop {
            let fanned = set.shards.len() > 1;
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
            if !retried && resident.epoch() != set.epoch {
                self.metrics.shard_retries_total.fetch_add(1, Ordering::Relaxed);
                retried = true;
                set = resident.snapshot_all();
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
            let body: Arc<[u8]> = Arc::from(body.into_bytes());
            if self.config.cache_bytes > 0 {
                // Tagged with the pinned set's epoch, not the live one: if
                // a swap landed mid-request this entry is already stale and
                // must stay invisible to post-swap readers.
                resident.cache().put_for(key, Arc::clone(&body), set.epoch);
            }
            let mut http =
                HttpResponse::shared_json(200, body).with_header("x-gks-cache", "miss".to_string());
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
    }

    /// The search stage: one [`Engine::search`] per shard of the pinned
    /// set, answers in shard order. A set of one has nothing to fan out —
    /// its search runs right here on the calling worker, with no lane hop.
    /// Wider sets scatter: every shard searches concurrently on its own
    /// lane of the catalog's persistent executor — a queue push per
    /// shard, no thread spawn on the request path — and each task
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

/// What [`ServeState::probe`] found for one `/search`-`/suggest` request.
#[derive(Debug)]
struct Probe {
    params: QueryParams,
    key: String,
    /// The generation the lookup was pinned to; a miss searches it first.
    set: Arc<ShardSet>,
    /// The cached body, when the pinned generation's cache holds one.
    hit: Option<Arc<[u8]>>,
}

/// A result-cache hit the reactor answers inline ([`ServeState::inline_hit`]).
#[derive(Debug)]
pub(crate) struct CacheHit<'s> {
    endpoint: Endpoint,
    resident: &'s ResidentIndex,
    probe: Probe,
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

/// Whole microseconds from `since` to now, saturating.
pub(crate) fn micros_since(since: Instant) -> u64 {
    u64::try_from(since.elapsed().as_micros()).unwrap_or(u64::MAX)
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
        let body = String::from_utf8(search.body.to_vec()).unwrap();
        assert!(body.starts_with("{\"query\":[\"keyword\",\"search\"]"), "{body}");

        let suggest = get(&state, "/suggest?q=agarwal");
        assert_eq!(suggest.status, 200);
        assert!(String::from_utf8(suggest.body.to_vec()).unwrap().contains("\"sub_queries\""));

        let doctor = get(&state, "/doctor");
        assert!(String::from_utf8(doctor.body.to_vec()).unwrap().contains("\"healthy\":true"));

        let metrics = get(&state, "/metrics");
        let text = String::from_utf8(metrics.body.to_vec()).unwrap();
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
        let plain_body = String::from_utf8(plain.body.to_vec()).unwrap();
        let body = String::from_utf8(explained.body.to_vec()).unwrap();
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
        assert_eq!(String::from_utf8(replay.body.to_vec()).unwrap(), body);
        // The engine runs fed the per-index cost counters and the top-K table.
        let metrics = get(&state, "/metrics");
        let text = String::from_utf8(metrics.body.to_vec()).unwrap();
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
        let top_body = String::from_utf8(top.body.to_vec()).unwrap();
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
}
