//! Server tuning: [`ServeConfig`] and the `limit` bounds every `/search`
//! request is held to.

use std::path::PathBuf;
use std::time::Duration;

/// `limit` applied to `/search` when the request does not pass one.
pub const DEFAULT_LIMIT: usize = 20;

/// Upper bound on the `limit` a request may ask for.
pub const MAX_LIMIT: usize = 1_000;

/// Server tuning knobs. `Default` matches the CLI's defaults.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Listen address, e.g. `127.0.0.1:7070` (port 0 picks an ephemeral
    /// port — used by tests).
    pub addr: String,
    /// Worker threads executing queries.
    pub workers: usize,
    /// Requests that may wait for a worker — the worker pool's capacity,
    /// and so the admission-control limit. Must be ≥ 1.
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
    /// Result-cache capacity in bytes (0 disables caching).
    pub cache_bytes: usize,
    /// Result-cache shard count (rounded up to a power of two).
    pub cache_shards: usize,
    /// Enable `gks-trace` span recording (per-phase metrics, the
    /// `/debug/traces` ring, `Server-Timing` headers, slow-log span trees).
    pub trace: bool,
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
    /// delta shard, then hot-swapped in. `None` disables watching; a zero
    /// interval is rejected by [`crate::serve_catalog`].
    pub watch_interval: Option<Duration>,
    /// Compaction trigger for the watcher tick (`gks_index::delta::maintain`):
    /// once a manifest on disk carries at least this many delta shards, the
    /// tick folds them into the base shards. `None` leaves compaction
    /// manual (`POST /admin/compact` or `gks compact`). Needs
    /// `watch_interval` and must be ≥ 1: [`crate::serve_catalog`] rejects
    /// anything else.
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
            cache_bytes: 32 * 1024 * 1024,
            cache_shards: 8,
            trace: true,
            trace_sample: 1,
            query_log: None,
            slow_log: None,
            slow_threshold: Duration::from_millis(500),
            watch_interval: None,
            compact_threshold: None,
        }
    }
}
