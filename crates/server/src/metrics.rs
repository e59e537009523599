//! Atomic service counters rendered as a Prometheus-style `text/plain`
//! exposition on `GET /metrics`.
//!
//! The latency histogram lives in `gks-trace` ([`Histogram`]) so the
//! end-to-end request histogram and the per-phase engine aggregates share
//! bucket semantics; this module re-exports the bucket bounds for backward
//! compatibility. Everything is lock-free (`AtomicU64` with relaxed ordering
//! — the counters are statistics, not synchronization), so recording adds
//! nanoseconds to the request path. Quantiles are derived from cumulative
//! bucket counts: the reported value is the upper bound of the bucket
//! containing the target rank, i.e. an over-estimate by at most one bucket
//! width. A histogram with **zero samples** never renders a bucket bound,
//! `NaN` or a negative stand-in: every family **omits** its quantile lines
//! and relies on its always-present `_count` (plus, for engine phases,
//! `gks_phase_samples_total`) to distinguish "no traffic" from "sub-50µs
//! traffic" — see the wire-format note in DESIGN.md.

use std::sync::atomic::{AtomicU64, Ordering};

use gks_core::CostLedger;
use gks_trace::SpanKind;
pub use gks_trace::{Histogram, LATENCY_BOUNDS_MICROS};

use crate::cache::CacheStats;
use crate::catalog::PHASE_COUNT;
use crate::topk::TopQueries;

/// The endpoints the service distinguishes in its counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Endpoint {
    /// `GET /search`
    Search,
    /// `GET /suggest`
    Suggest,
    /// `GET /doctor`
    Doctor,
    /// `GET /healthz`
    Healthz,
    /// `GET /metrics`
    Metrics,
    /// `GET /debug/traces`
    DebugTraces,
    /// `GET /debug/top`
    DebugTop,
    /// `POST /admin/reload`
    AdminReload,
    /// `POST /admin/compact`
    AdminCompact,
    /// Anything else (404s, bad paths).
    Other,
}

/// Number of distinct [`Endpoint`] variants.
const ENDPOINT_COUNT: usize = 10;

impl Endpoint {
    /// Classifies a request path.
    pub fn of_path(path: &str) -> Endpoint {
        match path {
            "/search" => Endpoint::Search,
            "/suggest" => Endpoint::Suggest,
            "/doctor" => Endpoint::Doctor,
            "/healthz" => Endpoint::Healthz,
            "/metrics" => Endpoint::Metrics,
            "/debug/traces" => Endpoint::DebugTraces,
            "/debug/top" => Endpoint::DebugTop,
            "/admin/reload" => Endpoint::AdminReload,
            "/admin/compact" => Endpoint::AdminCompact,
            _ => Endpoint::Other,
        }
    }

    const ALL: [Endpoint; ENDPOINT_COUNT] = [
        Endpoint::Search,
        Endpoint::Suggest,
        Endpoint::Doctor,
        Endpoint::Healthz,
        Endpoint::Metrics,
        Endpoint::DebugTraces,
        Endpoint::DebugTop,
        Endpoint::AdminReload,
        Endpoint::AdminCompact,
        Endpoint::Other,
    ];

    fn label(self) -> &'static str {
        match self {
            Endpoint::Search => "search",
            Endpoint::Suggest => "suggest",
            Endpoint::Doctor => "doctor",
            Endpoint::Healthz => "healthz",
            Endpoint::Metrics => "metrics",
            Endpoint::DebugTraces => "debug_traces",
            Endpoint::DebugTop => "debug_top",
            Endpoint::AdminReload => "admin_reload",
            Endpoint::AdminCompact => "admin_compact",
            Endpoint::Other => "other",
        }
    }

    fn index(self) -> usize {
        match self {
            Endpoint::Search => 0,
            Endpoint::Suggest => 1,
            Endpoint::Doctor => 2,
            Endpoint::Healthz => 3,
            Endpoint::Metrics => 4,
            Endpoint::DebugTraces => 5,
            Endpoint::DebugTop => 6,
            Endpoint::AdminReload => 7,
            Endpoint::AdminCompact => 8,
            Endpoint::Other => 9,
        }
    }
}

/// All service counters. Every field is monotonically non-decreasing except
/// `in_flight` (a gauge).
#[derive(Debug, Default)]
pub struct Metrics {
    /// Requests fully parsed and routed (rejected connections excluded).
    pub requests_total: AtomicU64,
    /// Per-endpoint request counts.
    pub by_endpoint: [AtomicU64; ENDPOINT_COUNT],
    /// Responses by status class.
    pub responses_2xx: AtomicU64,
    /// 4xx responses (bad query, unknown path).
    pub responses_4xx: AtomicU64,
    /// 5xx responses (overload inside a worker, deadline aborts).
    pub responses_5xx: AtomicU64,
    /// Connections rejected at admission (queue full) with 503.
    pub rejected_total: AtomicU64,
    /// Requests aborted because the per-request deadline expired.
    pub deadline_aborts_total: AtomicU64,
    /// Result-cache hits.
    pub cache_hits_total: AtomicU64,
    /// Result-cache misses.
    pub cache_misses_total: AtomicU64,
    /// Queries slower than the slow-query threshold (logged in full).
    pub slow_queries_total: AtomicU64,
    /// Requests currently being processed by workers (gauge).
    pub in_flight: AtomicU64,
    /// End-to-end request latency (accept → response written), µs.
    pub latency: Histogram,
    /// Scatter width of sharded searches (shards fanned out per request).
    pub shard_fanout: Histogram,
    /// Straggler overhead per sharded search: slowest shard minus fastest
    /// shard, µs — the wall-clock cost of waiting for the last shard.
    pub shard_straggler_micros: Histogram,
    /// Searches re-run once because a new generation was installed
    /// mid-flight.
    pub shard_retries_total: AtomicU64,
    /// Connections currently owned by the reactor (gauge; a socket being
    /// handled by a worker is counted by `in_flight` instead).
    pub conn_open: AtomicU64,
    /// Reactor-owned connections parked mid-request — reading a request
    /// that has started arriving, or flushing a response (gauge).
    pub conn_parked: AtomicU64,
    /// Fully-read requests waiting in the dispatch queue (gauge).
    pub conn_queue_depth: AtomicU64,
    /// Requests dispatched on a connection that had already served at
    /// least one response (keep-alive reuse).
    pub conn_keepalive_requests_total: AtomicU64,
    /// Connections evicted by the reactor: request deadline while reading
    /// (answered 408), idle timeout between requests, or a stalled flush.
    pub conn_evictions_total: AtomicU64,
    /// Requests the reactor answered itself from the result cache, without
    /// a worker (the hit lane).
    pub conn_reactor_hits_total: AtomicU64,
    /// First byte of a request to the reactor's decision on it — answered
    /// inline (a cache hit) or handed off to the worker queue — in µs: the
    /// read-side wait the reactor absorbed before anyone computed.
    pub conn_accept_to_dispatch_micros: Histogram,
    /// Rolling top-K most-expensive-query table (`GET /debug/top?n=`).
    pub top_queries: TopQueries,
}

/// Point-in-time view of one catalog index for `/metrics` rendering —
/// produced by `ResidentIndex::metrics_view`, consumed by
/// [`Metrics::render`].
#[derive(Debug)]
pub struct IndexMetricsView<'a> {
    /// The index's route key (the `index="…"` label value).
    pub name: &'a str,
    /// Cache occupancy of this index's result cache.
    pub cache: CacheStats,
    /// Result-cache identity of the resident generation: its epoch, bumped
    /// by every install.
    pub identity: u64,
    /// Number of shards backing this index (1 when unsharded).
    pub shard_count: usize,
    /// Queries routed to this index.
    pub requests_total: u64,
    /// Result-cache hits for this index.
    pub cache_hits_total: u64,
    /// Result-cache misses for this index.
    pub cache_misses_total: u64,
    /// Completed hot-swap reloads of this index.
    pub reloads_total: u64,
    /// Delta shards currently serving (0 for non-manifest indexes).
    pub delta_shards: u64,
    /// Documents living in delta shards.
    pub delta_docs: u64,
    /// Seconds since the serving manifest generation was committed; `None`
    /// (and no `gks_index_freshness_seconds` line) for an index without an
    /// update path.
    pub freshness_seconds: Option<u64>,
    /// Delta commits synced into the serving set.
    pub delta_commits_total: u64,
    /// Compactions completed.
    pub compactions_total: u64,
    /// Total wall-clock milliseconds spent compacting.
    pub compaction_millis_total: u64,
    /// Index-file bytes served straight from the mmap across all shard
    /// slots — zero for indexes built in process rather than loaded.
    pub bytes_mapped: u64,
    /// Milliseconds spent opening the shard files currently serving,
    /// summed across slots.
    pub open_millis: u64,
    /// Per-phase latency histograms, in `SpanKind::PHASES` order.
    pub phases: &'a [Histogram; PHASE_COUNT],
    /// Summed cost ledgers of this index's engine runs (cache hits do no
    /// engine work and are excluded; `per_keyword` is not aggregated).
    pub cost: CostLedger,
    /// Distribution of postings scanned per engine run.
    pub work_postings: &'a Histogram,
    /// Distribution of sweep advances per engine run.
    pub work_advances: &'a Histogram,
}

/// The quantiles `/metrics` reports for every histogram.
const QUANTILES: [(f64, &str); 3] = [(0.5, "0.5"), (0.95, "0.95"), (0.99, "0.99")];

/// Appends `hist`'s quantile lines — none at zero samples: the family's
/// always-present `_count` (and, for engine phases,
/// `gks_phase_samples_total`) distinguishes "no traffic" from "fast traffic"
/// without a nonstandard negative sample (wire-format note in DESIGN.md).
/// `labels` is empty or a label block ending in `,`.
fn write_quantiles(out: &mut String, name: &str, labels: &str, hist: &Histogram) {
    use std::fmt::Write as _;
    for (q, q_label) in QUANTILES {
        if let Some(v) = hist.quantile(q) {
            let _ = writeln!(out, "{name}{{{labels}quantile=\"{q_label}\"}} {v}");
        }
    }
}

/// Appends one labeled histogram as quantile lines plus `_sum`/`_count`.
/// `labels` must be a non-empty label block ending in `,`.
fn write_sampled_histogram(out: &mut String, name: &str, labels: &str, hist: &Histogram) {
    use std::fmt::Write as _;
    write_quantiles(out, name, labels, hist);
    let bare = labels.trim_end_matches(',');
    let _ = writeln!(out, "{name}_sum{{{bare}}} {}", hist.sum());
    let _ = writeln!(out, "{name}_count{{{bare}}} {}", hist.count());
}

impl Metrics {
    /// Bumps the counter for one routed request on `endpoint`.
    pub fn record_request(&self, endpoint: Endpoint) {
        self.requests_total.fetch_add(1, Ordering::Relaxed);
        self.by_endpoint[endpoint.index()].fetch_add(1, Ordering::Relaxed);
    }

    /// Classifies a response status into its class counter.
    pub fn record_status(&self, status: u16) {
        let counter = match status {
            200..=299 => &self.responses_2xx,
            400..=499 => &self.responses_4xx,
            _ => &self.responses_5xx,
        };
        counter.fetch_add(1, Ordering::Relaxed);
    }

    /// Renders the Prometheus-style exposition. Global lines aggregate over
    /// the whole catalog (cache occupancy sums across indexes;
    /// `gks_index_identity` reports the first — default — index, keeping the
    /// single-index exposition backward compatible); every `indexes` entry
    /// additionally gets an `index="…"`-labeled section with its own cache,
    /// reload, and per-phase stats. Process-global per-phase aggregates and
    /// span totals come from `gks-trace`.
    pub fn render(&self, indexes: &[IndexMetricsView<'_>]) -> String {
        use std::fmt::Write as _;
        let mut cache = CacheStats::default();
        for view in indexes {
            cache.entries += view.cache.entries;
            cache.bytes += view.cache.bytes;
            cache.capacity += view.cache.capacity;
        }
        let default_identity = indexes.first().map_or(0, |v| v.identity);
        let mut out = String::with_capacity(2048 + indexes.len() * 1024);
        let load = |a: &AtomicU64| a.load(Ordering::Relaxed);
        let _ = writeln!(out, "gks_requests_total {}", load(&self.requests_total));
        for endpoint in Endpoint::ALL {
            let _ = writeln!(
                out,
                "gks_requests{{endpoint=\"{}\"}} {}",
                endpoint.label(),
                load(&self.by_endpoint[endpoint.index()])
            );
        }
        let _ = writeln!(out, "gks_responses{{class=\"2xx\"}} {}", load(&self.responses_2xx));
        let _ = writeln!(out, "gks_responses{{class=\"4xx\"}} {}", load(&self.responses_4xx));
        let _ = writeln!(out, "gks_responses{{class=\"5xx\"}} {}", load(&self.responses_5xx));
        let _ = writeln!(out, "gks_rejected_total {}", load(&self.rejected_total));
        let _ = writeln!(out, "gks_deadline_aborts_total {}", load(&self.deadline_aborts_total));
        let _ = writeln!(out, "gks_cache_hits_total {}", load(&self.cache_hits_total));
        let _ = writeln!(out, "gks_cache_misses_total {}", load(&self.cache_misses_total));
        let _ = writeln!(out, "gks_cache_entries {}", cache.entries);
        let _ = writeln!(out, "gks_cache_bytes {}", cache.bytes);
        let _ = writeln!(out, "gks_cache_capacity_bytes {}", cache.capacity);
        let _ = writeln!(out, "gks_slow_queries_total {}", load(&self.slow_queries_total));
        let _ = writeln!(out, "gks_in_flight {}", load(&self.in_flight));
        write_quantiles(&mut out, "gks_latency_micros", "", &self.latency);
        let _ = writeln!(out, "gks_latency_micros_sum {}", self.latency.sum());
        let _ = writeln!(out, "gks_latency_micros_count {}", self.latency.count());
        // Scatter/gather fan-out stats for sharded indexes.
        write_quantiles(&mut out, "gks_shard_fanout", "", &self.shard_fanout);
        let _ = writeln!(out, "gks_shard_fanout_count {}", self.shard_fanout.count());
        write_quantiles(&mut out, "gks_shard_straggler_micros", "", &self.shard_straggler_micros);
        let _ =
            writeln!(out, "gks_shard_straggler_micros_sum {}", self.shard_straggler_micros.sum());
        let _ = writeln!(
            out,
            "gks_shard_straggler_micros_count {}",
            self.shard_straggler_micros.count()
        );
        let _ = writeln!(out, "gks_shard_retries_total {}", load(&self.shard_retries_total));
        // Connection-layer stats from the reactor. The histogram follows
        // the sampled convention: quantile lines omitted at zero samples,
        // `_count` always present.
        let _ = writeln!(out, "gks_conn_open {}", load(&self.conn_open));
        let _ = writeln!(out, "gks_conn_parked {}", load(&self.conn_parked));
        let _ = writeln!(out, "gks_conn_queue_depth {}", load(&self.conn_queue_depth));
        let _ = writeln!(
            out,
            "gks_conn_keepalive_requests_total {}",
            load(&self.conn_keepalive_requests_total)
        );
        let _ = writeln!(out, "gks_conn_evictions_total {}", load(&self.conn_evictions_total));
        let _ =
            writeln!(out, "gks_conn_reactor_hits_total {}", load(&self.conn_reactor_hits_total));
        let dispatch = &self.conn_accept_to_dispatch_micros;
        if dispatch.count() > 0 {
            for (q, label) in QUANTILES {
                if let Some(v) = dispatch.quantile(q) {
                    let _ = writeln!(
                        out,
                        "gks_conn_accept_to_dispatch_micros{{quantile=\"{label}\"}} {v}"
                    );
                }
            }
        }
        let _ = writeln!(out, "gks_conn_accept_to_dispatch_micros_sum {}", dispatch.sum());
        let _ = writeln!(out, "gks_conn_accept_to_dispatch_micros_count {}", dispatch.count());
        // Per-phase engine latency, aggregated by gks-trace across every
        // span of that kind recorded process-wide (CLI-triggered searches
        // included, though in the server they all come from requests).
        // Quantile lines are omitted at zero samples; the samples counter
        // below is the "did this phase run at all" signal.
        for kind in SpanKind::PHASES {
            let hist = gks_trace::histogram(kind);
            let labels = format!("phase=\"{}\",", kind.label());
            write_sampled_histogram(&mut out, "gks_phase_latency_micros", &labels, hist);
            let _ = writeln!(
                out,
                "gks_phase_samples_total{{phase=\"{}\"}} {}",
                kind.label(),
                hist.count()
            );
        }
        // Maintenance (update-path) latency: delta builds and compactions,
        // aggregated process-wide by gks-trace.
        for (kind, name) in [
            (SpanKind::DeltaBuild, "gks_delta_build_micros"),
            (SpanKind::Compaction, "gks_compaction_micros"),
        ] {
            let hist = gks_trace::histogram(kind);
            write_quantiles(&mut out, name, "", hist);
            let _ = writeln!(out, "{name}_sum {}", hist.sum());
            let _ = writeln!(out, "{name}_count {}", hist.count());
        }
        // Process-global span totals: exact request accounting even under
        // trace head-sampling (sampled-out spans still count here).
        for kind in SpanKind::ALL {
            let _ = writeln!(
                out,
                "gks_trace_spans_total{{kind=\"{}\"}} {}",
                kind.label(),
                gks_trace::span_count(kind)
            );
        }
        let _ = writeln!(out, "gks_index_identity {default_identity}");
        // Per-index sections: one block per resident catalog index.
        for view in indexes {
            let _ = writeln!(
                out,
                "gks_index_requests_total{{index=\"{}\"}} {}",
                view.name, view.requests_total
            );
            let _ = writeln!(
                out,
                "gks_index_cache_hits_total{{index=\"{}\"}} {}",
                view.name, view.cache_hits_total
            );
            let _ = writeln!(
                out,
                "gks_index_cache_misses_total{{index=\"{}\"}} {}",
                view.name, view.cache_misses_total
            );
            let _ = writeln!(
                out,
                "gks_index_cache_entries{{index=\"{}\"}} {}",
                view.name, view.cache.entries
            );
            let _ = writeln!(
                out,
                "gks_index_cache_bytes{{index=\"{}\"}} {}",
                view.name, view.cache.bytes
            );
            let _ = writeln!(
                out,
                "gks_index_reloads_total{{index=\"{}\"}} {}",
                view.name, view.reloads_total
            );
            let _ =
                writeln!(out, "gks_index_identity{{index=\"{}\"}} {}", view.name, view.identity);
            let _ =
                writeln!(out, "gks_index_shards{{index=\"{}\"}} {}", view.name, view.shard_count);
            // Update-path gauges and counters. Non-manifest indexes expose
            // the same lines with zeros (freshness, which has no zero, is
            // left out) so dashboards need no per-deployment templating.
            let _ =
                writeln!(out, "gks_delta_shards{{index=\"{}\"}} {}", view.name, view.delta_shards);
            let _ = writeln!(out, "gks_delta_docs{{index=\"{}\"}} {}", view.name, view.delta_docs);
            if let Some(seconds) = view.freshness_seconds {
                let _ = writeln!(
                    out,
                    "gks_index_freshness_seconds{{index=\"{}\"}} {seconds}",
                    view.name
                );
            }
            let _ = writeln!(
                out,
                "gks_delta_commits_total{{index=\"{}\"}} {}",
                view.name, view.delta_commits_total
            );
            let _ = writeln!(
                out,
                "gks_compactions_total{{index=\"{}\"}} {}",
                view.name, view.compactions_total
            );
            let _ = writeln!(
                out,
                "gks_compaction_millis_total{{index=\"{}\"}} {}",
                view.name, view.compaction_millis_total
            );
            // Zero-copy tier gauges: how much of the index stays on the
            // mmap instead of the heap, and what opening the serving
            // shard files cost. An index built in memory, not opened from
            // a file, reports 0 mapped bytes.
            let _ = writeln!(
                out,
                "gks_index_bytes_mapped{{index=\"{}\"}} {}",
                view.name, view.bytes_mapped
            );
            let _ = writeln!(
                out,
                "gks_index_open_millis{{index=\"{}\"}} {}",
                view.name, view.open_millis
            );
            for (i, kind) in SpanKind::PHASES.iter().enumerate() {
                let hist = &view.phases[i];
                let labels = format!("index=\"{}\",phase=\"{}\",", view.name, kind.label());
                write_sampled_histogram(&mut out, "gks_index_phase_latency_micros", &labels, hist);
            }
            // Per-index cost accounting: total engine work (cache hits do
            // no engine work and are excluded) plus work-per-query
            // distributions, all pure counters — never wall-clock.
            for (name, v) in [
                ("gks_cost_postings_scanned_total", view.cost.postings_scanned),
                ("gks_cost_tombstone_masked_total", view.cost.tombstone_masked),
                ("gks_cost_heap_ops_total", view.cost.heap_ops),
                ("gks_cost_sweep_advances_total", view.cost.sweep_advances),
                ("gks_cost_rank_candidates_total", view.cost.rank_candidates),
                ("gks_cost_di_attrs_total", view.cost.di_attrs),
                ("gks_cost_result_bytes_total", view.cost.result_bytes),
            ] {
                let _ = writeln!(out, "{name}{{index=\"{}\"}} {v}", view.name);
            }
            let labels = format!("index=\"{}\",", view.name);
            write_sampled_histogram(
                &mut out,
                "gks_cost_postings_per_query",
                &labels,
                view.work_postings,
            );
            write_sampled_histogram(
                &mut out,
                "gks_cost_advances_per_query",
                &labels,
                view.work_advances,
            );
        }
        out
    }
}

/// Extracts the value of a metric line (`name value` or `name{…} value`)
/// from a rendered exposition. Used by the load generator and tests to read
/// hit rates back without a metrics client.
pub fn metric_value(exposition: &str, name: &str) -> Option<i64> {
    for line in exposition.lines() {
        let Some(rest) = line.strip_prefix(name) else {
            continue;
        };
        // Exact name match: next char must be a space (plain counter) only —
        // `gks_requests` must not match `gks_requests_total` or a labeled
        // variant unless the caller included the label block in `name`.
        if let Some(value) = rest.strip_prefix(' ') {
            return value.trim().parse().ok();
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn empty_phases() -> [Histogram; PHASE_COUNT] {
        #[allow(clippy::declare_interior_mutable_const)]
        const EMPTY: Histogram = Histogram::new();
        [EMPTY; PHASE_COUNT]
    }

    #[test]
    fn render_and_parse_round_trip() {
        let m = Metrics::default();
        m.record_request(Endpoint::Search);
        m.record_request(Endpoint::Search);
        m.record_request(Endpoint::Healthz);
        m.record_status(200);
        m.record_status(400);
        m.cache_hits_total.fetch_add(3, Ordering::Relaxed);
        m.latency.record(120);
        let cache = CacheStats { entries: 2, bytes: 400, capacity: 1000 };
        let phases = empty_phases();
        phases[1].record(250); // postings
        let work_postings = Histogram::new();
        let work_advances = Histogram::new();
        work_postings.record(9);
        work_advances.record(31);
        let view = IndexMetricsView {
            name: "dblp",
            cache,
            identity: 42,
            shard_count: 2,
            requests_total: 2,
            cache_hits_total: 3,
            cache_misses_total: 1,
            reloads_total: 1,
            delta_shards: 2,
            delta_docs: 17,
            freshness_seconds: Some(3),
            delta_commits_total: 4,
            compactions_total: 1,
            compaction_millis_total: 250,
            bytes_mapped: 7340032,
            open_millis: 12,
            phases: &phases,
            cost: CostLedger {
                postings_scanned: 9,
                tombstone_masked: 2,
                heap_ops: 18,
                sweep_advances: 31,
                rank_candidates: 6,
                di_attrs: 4,
                result_bytes: 512,
                ..CostLedger::default()
            },
            work_postings: &work_postings,
            work_advances: &work_advances,
        };
        let text = m.render(&[view]);
        assert_eq!(metric_value(&text, "gks_requests_total"), Some(3));
        assert_eq!(metric_value(&text, "gks_requests{endpoint=\"search\"}"), Some(2));
        assert_eq!(metric_value(&text, "gks_responses{class=\"2xx\"}"), Some(1));
        assert_eq!(metric_value(&text, "gks_cache_hits_total"), Some(3));
        assert_eq!(metric_value(&text, "gks_cache_entries"), Some(2));
        assert_eq!(metric_value(&text, "gks_latency_micros_count"), Some(1));
        assert_eq!(metric_value(&text, "gks_index_identity"), Some(42));
        // Per-index section.
        assert_eq!(metric_value(&text, "gks_index_requests_total{index=\"dblp\"}"), Some(2));
        assert_eq!(metric_value(&text, "gks_index_cache_hits_total{index=\"dblp\"}"), Some(3));
        assert_eq!(metric_value(&text, "gks_index_cache_misses_total{index=\"dblp\"}"), Some(1));
        assert_eq!(metric_value(&text, "gks_index_reloads_total{index=\"dblp\"}"), Some(1));
        assert_eq!(metric_value(&text, "gks_index_identity{index=\"dblp\"}"), Some(42));
        assert_eq!(metric_value(&text, "gks_index_shards{index=\"dblp\"}"), Some(2));
        // Update-path lines.
        assert_eq!(metric_value(&text, "gks_delta_shards{index=\"dblp\"}"), Some(2));
        assert_eq!(metric_value(&text, "gks_delta_docs{index=\"dblp\"}"), Some(17));
        assert_eq!(metric_value(&text, "gks_index_freshness_seconds{index=\"dblp\"}"), Some(3));
        assert_eq!(metric_value(&text, "gks_delta_commits_total{index=\"dblp\"}"), Some(4));
        assert_eq!(metric_value(&text, "gks_compactions_total{index=\"dblp\"}"), Some(1));
        assert_eq!(metric_value(&text, "gks_compaction_millis_total{index=\"dblp\"}"), Some(250));
        // Zero-copy tier gauges.
        assert_eq!(metric_value(&text, "gks_index_bytes_mapped{index=\"dblp\"}"), Some(7340032));
        assert_eq!(metric_value(&text, "gks_index_open_millis{index=\"dblp\"}"), Some(12));
        assert!(metric_value(&text, "gks_compaction_micros_count").is_some());
        assert!(metric_value(&text, "gks_delta_build_micros_count").is_some());
        assert_eq!(
            metric_value(
                &text,
                "gks_index_phase_latency_micros_count{index=\"dblp\",phase=\"postings\"}"
            ),
            Some(1)
        );
        // Cost families: per-index work totals and per-query distributions.
        assert_eq!(metric_value(&text, "gks_cost_postings_scanned_total{index=\"dblp\"}"), Some(9));
        assert_eq!(metric_value(&text, "gks_cost_tombstone_masked_total{index=\"dblp\"}"), Some(2));
        assert_eq!(metric_value(&text, "gks_cost_heap_ops_total{index=\"dblp\"}"), Some(18));
        assert_eq!(metric_value(&text, "gks_cost_sweep_advances_total{index=\"dblp\"}"), Some(31));
        assert_eq!(metric_value(&text, "gks_cost_rank_candidates_total{index=\"dblp\"}"), Some(6));
        assert_eq!(metric_value(&text, "gks_cost_di_attrs_total{index=\"dblp\"}"), Some(4));
        assert_eq!(metric_value(&text, "gks_cost_result_bytes_total{index=\"dblp\"}"), Some(512));
        assert_eq!(
            metric_value(&text, "gks_cost_postings_per_query_count{index=\"dblp\"}"),
            Some(1)
        );
        assert_eq!(
            metric_value(&text, "gks_cost_postings_per_query{index=\"dblp\",quantile=\"0.5\"}"),
            Some(10),
            "9 postings land in the ≤10 bucket"
        );
        assert_eq!(
            metric_value(&text, "gks_cost_advances_per_query_sum{index=\"dblp\"}"),
            Some(31)
        );
        assert_eq!(metric_value(&text, "gks_nope"), None);
    }

    #[test]
    fn multi_index_sections_and_cache_aggregation() {
        let m = Metrics::default();
        let phases_a = empty_phases();
        let phases_b = empty_phases();
        let empty_work = Histogram::new();
        let a = IndexMetricsView {
            name: "a",
            cache: CacheStats { entries: 1, bytes: 100, capacity: 500 },
            identity: 7,
            shard_count: 1,
            requests_total: 4,
            cache_hits_total: 2,
            cache_misses_total: 2,
            reloads_total: 0,
            delta_shards: 0,
            delta_docs: 0,
            freshness_seconds: None,
            delta_commits_total: 0,
            compactions_total: 0,
            compaction_millis_total: 0,
            bytes_mapped: 0,
            open_millis: 0,
            phases: &phases_a,
            cost: CostLedger::default(),
            work_postings: &empty_work,
            work_advances: &empty_work,
        };
        let b = IndexMetricsView {
            name: "b",
            cache: CacheStats { entries: 2, bytes: 300, capacity: 500 },
            identity: 9,
            shard_count: 4,
            requests_total: 6,
            cache_hits_total: 1,
            cache_misses_total: 5,
            reloads_total: 2,
            delta_shards: 3,
            delta_docs: 9,
            freshness_seconds: Some(0),
            delta_commits_total: 5,
            compactions_total: 2,
            compaction_millis_total: 40,
            bytes_mapped: 0,
            open_millis: 3,
            phases: &phases_b,
            cost: CostLedger::default(),
            work_postings: &empty_work,
            work_advances: &empty_work,
        };
        let text = m.render(&[a, b]);
        // Globals aggregate the per-index caches; the bare identity is the
        // default (first) index's.
        assert_eq!(metric_value(&text, "gks_cache_entries"), Some(3));
        assert_eq!(metric_value(&text, "gks_cache_bytes"), Some(400));
        assert_eq!(metric_value(&text, "gks_cache_capacity_bytes"), Some(1000));
        assert_eq!(metric_value(&text, "gks_index_identity"), Some(7));
        assert_eq!(metric_value(&text, "gks_index_identity{index=\"a\"}"), Some(7));
        assert_eq!(metric_value(&text, "gks_index_identity{index=\"b\"}"), Some(9));
        assert_eq!(metric_value(&text, "gks_index_requests_total{index=\"b\"}"), Some(6));
        assert_eq!(metric_value(&text, "gks_index_reloads_total{index=\"b\"}"), Some(2));
        assert_eq!(metric_value(&text, "gks_index_shards{index=\"a\"}"), Some(1));
        assert_eq!(metric_value(&text, "gks_index_shards{index=\"b\"}"), Some(4));
    }

    #[test]
    fn zero_sample_quantiles_are_omitted() {
        let m = Metrics::default();
        let text = m.render(&[]);
        // No latency samples recorded → no quantile line at all (not a
        // bucket bound, not NaN, not a negative stand-in); `_count` says so.
        assert!(!text.contains("gks_latency_micros{"), "{text}");
        assert_eq!(metric_value(&text, "gks_latency_micros_count"), Some(0));
        assert!(!text.contains("NaN") && !text.contains(" -1"));
        m.latency.record(70);
        let text = m.render(&[]);
        assert_eq!(metric_value(&text, "gks_latency_micros{quantile=\"0.5\"}"), Some(100));
    }

    #[test]
    fn per_phase_lines_are_exposed() {
        let m = Metrics::default();
        let text = m.render(&[]);
        // Phase quantile lines are *omitted* at zero samples; `_count` and
        // the explicit samples counter are always present. The global trace
        // histograms are
        // process-wide shared state, so other tests may have recorded into
        // them — assert only the unconditional lines here.
        for phase in ["parse", "postings", "sweep", "rank", "di", "scatter", "gather"] {
            let count = format!("gks_phase_latency_micros_count{{phase=\"{phase}\"}}");
            assert!(metric_value(&text, &count).is_some(), "missing {count}");
            let samples = format!("gks_phase_samples_total{{phase=\"{phase}\"}}");
            assert!(metric_value(&text, &samples).is_some(), "missing {samples}");
        }
        // The scatter/gather families follow the same convention.
        assert!(
            !text.contains("gks_shard_fanout{") && !text.contains("gks_shard_straggler_micros{")
        );
        assert_eq!(metric_value(&text, "gks_shard_fanout_count"), Some(0));
        assert_eq!(metric_value(&text, "gks_shard_straggler_micros_count"), Some(0));
        assert_eq!(metric_value(&text, "gks_shard_retries_total"), Some(0));
    }

    #[test]
    fn per_index_phase_quantiles_omitted_until_sampled() {
        let m = Metrics::default();
        let phases = empty_phases();
        let empty_work = Histogram::new();
        let mut view = IndexMetricsView {
            name: "dblp",
            cache: CacheStats { entries: 0, bytes: 0, capacity: 0 },
            identity: 1,
            shard_count: 1,
            requests_total: 0,
            cache_hits_total: 0,
            cache_misses_total: 0,
            reloads_total: 0,
            delta_shards: 0,
            delta_docs: 0,
            freshness_seconds: None,
            delta_commits_total: 0,
            compactions_total: 0,
            compaction_millis_total: 0,
            bytes_mapped: 0,
            open_millis: 0,
            phases: &phases,
            cost: CostLedger::default(),
            work_postings: &empty_work,
            work_advances: &empty_work,
        };
        let text = m.render(std::slice::from_ref(&view));
        // Zero samples: no quantile lines, but _count and cost counters exist.
        assert!(
            !text.contains(
                "gks_index_phase_latency_micros{index=\"dblp\",phase=\"sweep\",quantile="
            ),
            "zero-sample per-index quantiles must be omitted:\n{text}"
        );
        assert_eq!(
            metric_value(
                &text,
                "gks_index_phase_latency_micros_count{index=\"dblp\",phase=\"sweep\"}"
            ),
            Some(0)
        );
        assert!(
            !text.contains("gks_cost_postings_per_query{index=\"dblp\",quantile="),
            "zero-sample work quantiles must be omitted:\n{text}"
        );
        // One sample: the quantile lines appear.
        let sampled = empty_phases();
        sampled[2].record(123); // sweep
        let work = Histogram::new();
        work.record(42);
        view.phases = &sampled;
        view.work_postings = &work;
        let text = m.render(std::slice::from_ref(&view));
        assert!(
            metric_value(
                &text,
                "gks_index_phase_latency_micros{index=\"dblp\",phase=\"sweep\",quantile=\"0.5\"}"
            )
            .is_some_and(|v| v > 0),
            "sampled per-index quantiles must appear:\n{text}"
        );
        assert!(
            metric_value(&text, "gks_cost_postings_per_query{index=\"dblp\",quantile=\"0.5\"}")
                .is_some(),
            "sampled work quantiles must appear:\n{text}"
        );
    }

    #[test]
    fn debug_traces_endpoint_classifies() {
        assert_eq!(Endpoint::of_path("/debug/traces"), Endpoint::DebugTraces);
        assert_eq!(Endpoint::of_path("/debug/top"), Endpoint::DebugTop);
        assert_eq!(Endpoint::of_path("/debug/other"), Endpoint::Other);
        assert_eq!(Endpoint::of_path("/admin/reload"), Endpoint::AdminReload);
        assert_eq!(Endpoint::of_path("/admin/compact"), Endpoint::AdminCompact);
    }
}
