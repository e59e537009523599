//! The engine catalog: many resident indexes in one process, each
//! independently hot-swappable and — when manifest-backed — incrementally
//! updatable without a restart.
//!
//! The paper evaluates GKS over several corpora (DBLP, IMDB, Wikipedia);
//! serving them from one process requires replacing the single-engine
//! assumption with a registry. The catalog maps a **route key** (the
//! `/ix/<name>/…` URL prefix, with a configurable default for bare
//! `/search`) to a [`ResidentIndex`] bundling the engine generation, its
//! result cache, and per-index counters.
//!
//! **Hot-swap protocol.** Each resident index holds **one immutable
//! generation**, a [`ShardSet`] behind `RwLock<Arc<…>>`: every shard's
//! engine (an unsharded index is a set of one), its resolved document
//! renumbering and an epoch, all computed once when the generation is
//! built. A request pins the current generation with one `Arc` clone under
//! one read lock ([`ResidentIndex::snapshot_all`]), then runs entirely
//! against it — search, render, cache tagging. Every change builds a
//! complete new generation off that lock and installs it through one
//! private function (pointer swap, epoch bump, lane growth, cache rebind,
//! reload count), so a pinned set never mixes shards from two builds, and
//! a failed build installs nothing. In-flight requests finish on the old
//! generation, which is freed when the last pin drops. The epoch is the
//! generation's cache identity: every cache entry is tagged with the epoch
//! it was computed against ([`crate::cache::ResultCache::get_for`]) and
//! every install takes a fresh one, so a stale hit across an install is
//! impossible by construction; an install also bulk-clears the superseded
//! generation's entries.
//!
//! **Reloads.** [`ResidentIndex::reload`] re-reads the manifest of a
//! manifest-backed index, or else the list of shard paths, and reopens
//! exactly the files that changed: an open index is reused only while its
//! file is at the version (length, modification time and, on Unix, device
//! and inode) recorded when it was opened. A reload that changes nothing
//! installs nothing, so the epoch and the warm cache stay as they were.
//!
//! **Manifest-backed indexes and the update path.** An index registered
//! from a shard manifest ([`IndexSpec::with_manifest`]) tracks the
//! manifest's **epoch**: delta commits (`gks_index::delta`) append delta
//! shards and tombstones, compactions fold them back into base shards, and
//! a re-read of the manifest installs the new shard set. Unchanged shard
//! files are **reused** through
//! [`gks_core::shard::load_manifest_engines_with`]: the loaded index is
//! shared via `Arc` and only re-wrapped with the new tombstone mask and
//! document map, so a delta commit touching one shard re-reads one file,
//! not N. [`ResidentIndex::maintain`] (the watcher tick,
//! `gks_index::maintain` — the policy `gks watch` runs) and
//! [`ResidentIndex::compact_now`] (`POST /admin/compact`) share one locked
//! body behind the maintenance mutex, which every generation build holds,
//! so at most one build runs per index at a time and each starts from the
//! generation it replaces.
//!
//! Lock order within this module: `catalog.maintenance` →
//! `catalog.slots` (the generation lock; checked statically by
//! `cargo xtask analyze` and dynamically by the debug-build
//! `gks_trace::lockorder` registry).
//!
//! Route keys are normalized ([`crate::http::normalize_path`]) — duplicate
//! slashes, trailing slashes, and ASCII case differences all resolve to the
//! same index and therefore the same cache.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, RwLock};
use std::time::SystemTime;

use gks_core::engine::Engine;
use gks_core::shard::{load_manifest_engines_with, DocMap};
use gks_core::{CostLedger, ShardExecutor};
use gks_index::delta::{compact, wall_clock_ms, CommitStats, CompactStats, MaintenanceOutcome};
use gks_index::{GksIndex, IndexError, ShardEntry, ShardManifest};
use gks_trace::{CompletedTrace, Histogram, SpanKind};

use crate::cache::ResultCache;
use crate::error::ServeError;
use crate::metrics::IndexMetricsView;
use crate::ServeConfig;

/// Route key used for an index registered without an explicit name (the
/// single positional `gks serve` path).
pub const DEFAULT_INDEX_NAME: &str = "default";

/// One shard of a generation: the engine and the file it was opened from.
/// Only ever handed out inside a [`ShardSet`], which pairs it with its
/// resolved document renumbering — there is no way to reach a shard's
/// engine without its set.
#[derive(Debug, Clone)]
pub struct Loaded {
    /// The resident engine of this shard (tombstone-masked when the
    /// manifest carries tombstones for it).
    pub engine: Arc<Engine>,
    /// The file reloads re-read and its version when it was opened — the
    /// reuse key of every reload; `None` for an engine-backed shard.
    source: Option<(PathBuf, FileVersion)>,
}

/// What a file was when its index was opened: length and modification
/// time, plus device and inode on Unix. `save` renames a fresh file into
/// place and a mapped inode cannot be recycled, so a rewritten shard file
/// always shows a new version. It is taken *before* the file is opened: a
/// file replaced in between costs an extra reopen on the next reload,
/// never a stale reuse.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct FileVersion {
    len: u64,
    modified: Option<SystemTime>,
    inode: (u64, u64),
}

impl FileVersion {
    fn of(path: &Path) -> std::io::Result<FileVersion> {
        let meta = std::fs::metadata(path)?;
        Ok(FileVersion { len: meta.len(), modified: meta.modified().ok(), inode: inode(&meta) })
    }
}

#[cfg(unix)]
fn inode(meta: &std::fs::Metadata) -> (u64, u64) {
    use std::os::unix::fs::MetadataExt;
    (meta.dev(), meta.ino())
}

#[cfg(not(unix))]
fn inode(_: &std::fs::Metadata) -> (u64, u64) {
    (0, 0)
}

#[derive(Debug)]
enum IndexSource {
    /// Already-built shard engines in global document order (tests,
    /// benches). Not reloadable.
    Engines(Vec<Arc<Engine>>),
    /// Self-contained `.gksix` shard files over a document-partitioned
    /// corpus, in global document order; a reload re-reads every path.
    Paths(Vec<PathBuf>),
    /// A shard manifest file: the live-update source. Reloads re-read the
    /// manifest and install the shard set it describes (delta shards,
    /// tombstones, compactions — see `gks_index::delta`).
    Manifest(PathBuf),
}

/// How an index enters the catalog: a route key plus a shard set — prebuilt
/// engines, paths to load (and later reload) them from, or a manifest. An
/// unsharded index is the one-element case of the first two.
#[derive(Debug)]
pub struct IndexSpec {
    name: String,
    source: IndexSource,
}

impl IndexSpec {
    /// A spec wrapping an already-built engine. The index will serve but
    /// cannot be hot-swap reloaded (there is no source to re-read).
    pub fn with_engine(name: impl Into<String>, engine: Arc<Engine>) -> IndexSpec {
        IndexSpec::with_shard_engines(name, [engine])
    }

    /// A spec loading the engine from a persisted `.gksix` file; the same
    /// path is re-read on every reload.
    pub fn with_source(name: impl Into<String>, path: impl Into<PathBuf>) -> IndexSpec {
        IndexSpec::with_shard_paths(name, [path.into()])
    }

    /// A spec registering one logical index backed by `paths.len()` shard
    /// index files, in global document order. A reload re-reads every
    /// path into a new generation.
    pub fn with_shard_paths(
        name: impl Into<String>,
        paths: impl IntoIterator<Item = impl Into<PathBuf>>,
    ) -> IndexSpec {
        let paths = paths.into_iter().map(Into::into).collect();
        IndexSpec { name: name.into(), source: IndexSource::Paths(paths) }
    }

    /// A spec wrapping already-built shard engines in global document order
    /// (tests, benches). Serves sharded but cannot be hot-swap reloaded.
    pub fn with_shard_engines(
        name: impl Into<String>,
        engines: impl IntoIterator<Item = Arc<Engine>>,
    ) -> IndexSpec {
        IndexSpec { name: name.into(), source: IndexSource::Engines(engines.into_iter().collect()) }
    }

    /// A spec serving the shard set recorded in a shard manifest file
    /// (written by `gks index --shards N`); relative shard paths resolve
    /// against the manifest's directory. Manifest-backed indexes follow
    /// the incremental update path: delta commits and compactions are
    /// picked up by [`ResidentIndex::reload`] and the watcher tick
    /// ([`ResidentIndex::maintain`]) without a restart.
    pub fn with_manifest(
        name: impl Into<String>,
        path: impl AsRef<Path>,
    ) -> Result<IndexSpec, ServeError> {
        let name = name.into();
        // Validate eagerly so a bad manifest fails at registration, not at
        // first sync.
        ShardManifest::load(path.as_ref())
            .map_err(|e| ServeError::Index { name: name.clone(), message: e.to_string() })?;
        Ok(IndexSpec { name, source: IndexSource::Manifest(path.as_ref().to_path_buf()) })
    }

    /// The route key this spec registers under.
    pub fn name(&self) -> &str {
        &self.name
    }
}

/// The number of engine phases tracked per index (`SpanKind::PHASES`).
pub const PHASE_COUNT: usize = SpanKind::PHASES.len();

/// Per-index counters: request and cache totals plus per-phase latency
/// histograms, all lock-free.
#[derive(Debug)]
pub struct IndexCounters {
    /// Queries (`/search` + `/suggest`) routed to this index.
    pub requests_total: AtomicU64,
    /// Result-cache hits for this index.
    pub cache_hits_total: AtomicU64,
    /// Result-cache misses for this index.
    pub cache_misses_total: AtomicU64,
    /// Completed hot-swap reloads (manifest syncs included).
    pub reloads_total: AtomicU64,
    /// Delta commits observed (watcher ticks or `gks watch` processes)
    /// and synced into the serving set.
    pub delta_commits_total: AtomicU64,
    /// Compactions completed for this index.
    pub compactions_total: AtomicU64,
    /// Total wall-clock milliseconds spent compacting.
    pub compaction_millis_total: AtomicU64,
    /// Per-phase latency histograms, in [`SpanKind::PHASES`] order.
    pub phases: [Histogram; PHASE_COUNT],
    /// Summed cost-ledger counters across this index's engine runs.
    pub cost: CostCounters,
    /// Distribution of postings scanned per engine run.
    pub work_postings: Histogram,
    /// Distribution of sweep advances per engine run.
    pub work_advances: Histogram,
}

impl IndexCounters {
    fn new() -> IndexCounters {
        #[allow(clippy::declare_interior_mutable_const)]
        const EMPTY: Histogram = Histogram::new();
        IndexCounters {
            requests_total: AtomicU64::new(0),
            cache_hits_total: AtomicU64::new(0),
            cache_misses_total: AtomicU64::new(0),
            reloads_total: AtomicU64::new(0),
            delta_commits_total: AtomicU64::new(0),
            compactions_total: AtomicU64::new(0),
            compaction_millis_total: AtomicU64::new(0),
            phases: [EMPTY; PHASE_COUNT],
            cost: CostCounters::new(),
            work_postings: EMPTY,
            work_advances: EMPTY,
        }
    }
}

/// Lock-free accumulators for the per-request [`CostLedger`] counters —
/// one `fetch_add` per field per engine run, snapshotted for `/metrics`.
/// `per_keyword` is request-shaped and is not aggregated here.
#[derive(Debug)]
pub struct CostCounters {
    postings_scanned: AtomicU64,
    tombstone_masked: AtomicU64,
    heap_ops: AtomicU64,
    sweep_advances: AtomicU64,
    rank_candidates: AtomicU64,
    di_attrs: AtomicU64,
    result_bytes: AtomicU64,
}

impl CostCounters {
    fn new() -> CostCounters {
        CostCounters {
            postings_scanned: AtomicU64::new(0),
            tombstone_masked: AtomicU64::new(0),
            heap_ops: AtomicU64::new(0),
            sweep_advances: AtomicU64::new(0),
            rank_candidates: AtomicU64::new(0),
            di_attrs: AtomicU64::new(0),
            result_bytes: AtomicU64::new(0),
        }
    }

    /// Folds one request's ledger into the totals.
    pub fn record(&self, ledger: &CostLedger) {
        self.postings_scanned.fetch_add(ledger.postings_scanned, Ordering::Relaxed);
        self.tombstone_masked.fetch_add(ledger.tombstone_masked, Ordering::Relaxed);
        self.heap_ops.fetch_add(ledger.heap_ops, Ordering::Relaxed);
        self.sweep_advances.fetch_add(ledger.sweep_advances, Ordering::Relaxed);
        self.rank_candidates.fetch_add(ledger.rank_candidates, Ordering::Relaxed);
        self.di_attrs.fetch_add(ledger.di_attrs, Ordering::Relaxed);
        self.result_bytes.fetch_add(ledger.result_bytes, Ordering::Relaxed);
    }

    /// Point-in-time totals as a ledger (with an empty `per_keyword`).
    pub fn snapshot(&self) -> CostLedger {
        CostLedger {
            postings_scanned: self.postings_scanned.load(Ordering::Relaxed),
            tombstone_masked: self.tombstone_masked.load(Ordering::Relaxed),
            heap_ops: self.heap_ops.load(Ordering::Relaxed),
            sweep_advances: self.sweep_advances.load(Ordering::Relaxed),
            rank_candidates: self.rank_candidates.load(Ordering::Relaxed),
            di_attrs: self.di_attrs.load(Ordering::Relaxed),
            result_bytes: self.result_bytes.load(Ordering::Relaxed),
            ..CostLedger::default()
        }
    }
}

/// One immutable generation of a resident index: every shard in global
/// document order with its resolved document renumbering, the manifest
/// backlog it was read from, and the epoch it was installed at — all
/// computed once, when the generation is built. A
/// request pins one ([`ResidentIndex::snapshot_all`]) and runs entirely
/// against it; every change builds a whole new generation and installs it
/// in one pointer swap, so a pinned set never mixes shards from two builds.
/// Never empty.
#[derive(Debug)]
pub struct ShardSet {
    /// The shards, in global document order.
    pub shards: Vec<Loaded>,
    /// The reload epoch this generation was installed at — also its
    /// result-cache identity.
    pub epoch: u64,
    /// Per-shard local→global document renumbering, in shard order:
    /// explicit maps for manifest-backed sets, dense positional bases
    /// otherwise.
    pub doc_maps: Vec<DocMap>,
    /// Backlog of the manifest this generation was read from (zero when
    /// the index is not manifest-backed).
    backlog: Backlog,
}

/// The `/metrics` backlog gauges of one manifest generation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Backlog {
    delta_shards: u64,
    delta_docs: u64,
    /// `committed-ms` of the manifest.
    committed_ms: u64,
}

impl ShardSet {
    /// A generation tiled positionally: each shard's document base is the
    /// sum of the preceding shards' document counts.
    /// [`ResidentIndex::install`] stamps the epoch.
    fn positional(shards: Vec<Loaded>) -> ShardSet {
        let mut next = 0u32;
        let doc_maps = shards
            .iter()
            .map(|s| {
                let map = DocMap::base(next);
                let count = u32::try_from(s.engine.index().stats().doc_count).unwrap_or(u32::MAX);
                next = next.saturating_add(count);
                map
            })
            .collect();
        ShardSet { shards, epoch: 0, doc_maps, backlog: Backlog::default() }
    }

    /// The generation `manifest` describes, reusing `current`'s open index
    /// for every shard file still at the version it was opened at, so a
    /// delta commit touching one shard re-reads one file, not N.
    fn from_manifest(
        name: &str,
        manifest: &ShardManifest,
        current: Option<&ShardSet>,
    ) -> Result<ShardSet, ServeError> {
        if manifest.shards.is_empty() {
            return Err(ServeError::BadConfig(format!("manifest for {name:?} lists no shards")));
        }
        // Every version is taken before any file is opened.
        let sources = manifest
            .shards
            .iter()
            .map(|entry| Ok((entry.path.clone(), FileVersion::of(&entry.path)?)))
            .collect::<std::io::Result<Vec<_>>>()
            .map_err(|e| index_error(name, e.into()))?;
        let reuse = |entry: &ShardEntry| {
            let source = sources.iter().find(|(path, _)| *path == entry.path)?;
            let open = current?.shards.iter().find(|s| s.source.as_ref() == Some(source))?;
            Some(open.engine.index_shared())
        };
        let opened =
            load_manifest_engines_with(manifest, reuse).map_err(|e| index_error(name, e))?;
        let (shards, doc_maps) = sources
            .into_iter()
            .zip(opened)
            .map(|(source, (engine, map))| {
                (Loaded { engine: Arc::new(engine), source: Some(source) }, map)
            })
            .unzip();
        let backlog = Backlog {
            delta_shards: manifest.delta_shard_count() as u64,
            delta_docs: manifest.delta_doc_count(),
            committed_ms: manifest.committed_ms,
        };
        Ok(ShardSet { shards, epoch: 0, doc_maps, backlog })
    }

    /// True when this generation serves exactly what `other` does: the
    /// same open indexes behind the same tombstone masks, the same
    /// document maps and the same backlog.
    fn serves_as(&self, other: &ShardSet) -> bool {
        let same_shard = |(a, b): (&Loaded, &Loaded)| {
            std::ptr::eq(a.engine.index(), b.engine.index())
                && a.engine.tombstones() == b.engine.tombstones()
        };
        self.shards.len() == other.shards.len()
            && self.shards.iter().zip(&other.shards).all(same_shard)
            && self.doc_maps == other.doc_maps
            && self.backlog == other.backlog
    }

    /// The pinned engines, in shard order.
    pub fn engines(&self) -> Vec<&Engine> {
        self.shards.iter().map(|loaded| loaded.engine.as_ref()).collect()
    }
}

fn index_error(name: &str, e: IndexError) -> ServeError {
    ServeError::Index { name: name.to_string(), message: e.to_string() }
}

/// Opens one self-contained `.gksix` shard file, taking its version first.
fn open_shard(name: &str, path: &Path) -> Result<Loaded, ServeError> {
    let version = FileVersion::of(path).map_err(|e| index_error(name, e.into()))?;
    let index = GksIndex::load(path).map_err(|e| index_error(name, e))?;
    let source = Some((path.to_path_buf(), version));
    Ok(Loaded { engine: Arc::new(Engine::from_index(index)), source })
}

/// Grows `executor`'s scatter lanes to `shards` — at build and after every
/// install, so the request path never spawns. A set of one searches on the
/// calling worker and gets no lane.
fn grow_lanes(executor: &ShardExecutor, shards: usize) -> std::io::Result<()> {
    if shards > 1 {
        executor.ensure_lanes(shards)?;
    }
    Ok(())
}

/// One resident (logical) index: its current generation, the
/// epoch-keyed result cache shared by all shards, per-index counters,
/// the catalog's scatter executor and — for manifest-backed indexes — the
/// manifest path.
#[derive(Debug)]
pub struct ResidentIndex {
    name: String,
    /// The current generation, replaced whole by
    /// [`ResidentIndex::install`]. Ordered after `maintenance`.
    slots: RwLock<Arc<ShardSet>>,
    /// Manifest path, for manifest-backed indexes.
    manifest: Option<PathBuf>,
    /// Serializes generation builds (reloads, delta commits, compactions),
    /// so each build starts from the generation it replaces. Ordered
    /// before `slots`; never taken on the request path.
    maintenance: Mutex<()>,
    cache: ResultCache,
    counters: IndexCounters,
    /// The catalog's persistent per-shard worker lanes for the scatter
    /// path, shared by every index: shard fan-out is a queue push to a
    /// long-lived lane, never a thread spawn per request. Lanes grow to the
    /// widest set (manifest syncs can add delta shards) and never shrink; a
    /// set of one searches on the calling worker and needs none.
    executor: Arc<ShardExecutor>,
}

impl ResidentIndex {
    fn from_spec(
        spec: IndexSpec,
        config: &ServeConfig,
        executor: &Arc<ShardExecutor>,
    ) -> Result<ResidentIndex, ServeError> {
        let name = spec.name.to_ascii_lowercase();
        if name.is_empty() || name.contains('/') || name.chars().any(char::is_whitespace) {
            return Err(ServeError::BadConfig(format!(
                "index name {:?} is not a usable route key (must be non-empty, \
                 without '/' or whitespace)",
                spec.name
            )));
        }
        let mut manifest = None;
        let set = match spec.source {
            IndexSource::Engines(engines) => ShardSet::positional(
                engines.into_iter().map(|engine| Loaded { engine, source: None }).collect(),
            ),
            IndexSource::Paths(paths) => ShardSet::positional(
                paths.iter().map(|path| open_shard(&name, path)).collect::<Result<_, _>>()?,
            ),
            IndexSource::Manifest(path) => {
                let loaded = ShardManifest::load(&path).map_err(|e| index_error(&name, e))?;
                manifest = Some(path);
                ShardSet::from_manifest(&name, &loaded, None)?
            }
        };
        if set.shards.is_empty() {
            return Err(ServeError::BadConfig(format!("index {name:?} lists no shards")));
        }
        grow_lanes(executor, set.shards.len()).map_err(ServeError::Io)?;
        Ok(ResidentIndex {
            name,
            manifest,
            maintenance: Mutex::new(()),
            cache: ResultCache::new(config.cache_bytes, config.cache_shards, set.epoch),
            slots: RwLock::new(Arc::new(set)),
            counters: IndexCounters::new(),
            executor: Arc::clone(executor),
        })
    }

    /// The normalized route key of this index.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The manifest path for a manifest-backed index.
    pub fn manifest_path(&self) -> Option<&Path> {
        self.manifest.as_deref()
    }

    /// Number of shards backing this index (1 for unsharded; never 0:
    /// construction and every manifest sync reject an empty shard set).
    pub fn shard_count(&self) -> usize {
        self.snapshot_all().shards.len()
    }

    /// The persistent scatter executor backing this index's fanned-out
    /// searches — the catalog's one executor, shared by every index.
    pub fn executor(&self) -> &ShardExecutor {
        &self.executor
    }

    /// The current reload epoch (bumped by every install).
    pub fn epoch(&self) -> u64 {
        self.snapshot_all().epoch
    }

    /// Delta shards currently serving (the `/metrics` backlog gauge).
    pub fn delta_shards(&self) -> u64 {
        self.snapshot_all().backlog.delta_shards
    }

    /// Seconds since the serving manifest generation was committed, or
    /// `None` when this index is not manifest-backed. This is the freshness
    /// lag a scrape observes: it grows between commits and drops to ~0
    /// right after every delta commit or compaction is synced in.
    pub fn freshness_seconds(&self) -> Option<u64> {
        self.freshness_of(&self.snapshot_all())
    }

    fn freshness_of(&self, set: &ShardSet) -> Option<u64> {
        self.manifest.as_ref()?;
        Some(wall_clock_ms().saturating_sub(set.backlog.committed_ms) / 1000)
    }

    /// Pins the current generation: one `Arc` clone under one read lock.
    /// Later installs do not affect the pinned set, and its engines are
    /// freed when the last pin holding them drops.
    pub fn snapshot_all(&self) -> Arc<ShardSet> {
        let current = gks_trace::lockorder::track(
            "server/catalog.slots",
            self.slots.read().unwrap_or_else(std::sync::PoisonError::into_inner),
        );
        Arc::clone(&current)
    }

    /// The result-cache identity of the current generation: its epoch.
    pub fn identity(&self) -> u64 {
        self.epoch()
    }

    /// This index's result cache.
    pub fn cache(&self) -> &ResultCache {
        &self.cache
    }

    /// This index's counters.
    pub fn counters(&self) -> &IndexCounters {
        &self.counters
    }

    /// Takes the maintenance mutex. Holding it across a build's I/O is the
    /// point: at most one build per index is in flight.
    fn maintenance(&self) -> gks_trace::lockorder::Tracked<MutexGuard<'_, ()>> {
        gks_trace::lockorder::track(
            "server/catalog.maintenance",
            self.maintenance.lock().unwrap_or_else(std::sync::PoisonError::into_inner),
        )
    }

    /// Installs `next` as the current generation — the one place a
    /// generation changes: pointer swap under the write lock (held for the
    /// swap only), epoch bump, scatter-lane growth, cache rebind and reload
    /// count. The caller holds the maintenance mutex, so `next` was built
    /// from the generation it replaces. A `next` that serves exactly what
    /// the current generation does installs nothing, keeping the epoch and
    /// the warm cache. Returns the `(epoch_before, epoch_after)`.
    fn install(&self, _maintenance: &MutexGuard<'_, ()>, mut next: ShardSet) -> (u64, u64) {
        let before = self.snapshot_all();
        if next.serves_as(&before) {
            return (before.epoch, before.epoch);
        }
        let (shards, after) = (next.shards.len(), before.epoch.wrapping_add(1));
        next.epoch = after;
        {
            let mut current = gks_trace::lockorder::track(
                "server/catalog.slots",
                self.slots.write().unwrap_or_else(std::sync::PoisonError::into_inner),
            );
            **current = Arc::new(next);
        }
        // A sync can widen the set (new delta shards). Best-effort — the
        // scatter falls back to round-robin over the existing lanes.
        let _ = grow_lanes(&self.executor, shards);
        // Bulk-evict the superseded generation's entries. Correctness does
        // not depend on this — per-entry epoch tags already make stale
        // entries unservable — it just reclaims the memory eagerly.
        self.cache.ensure_identity(after);
        self.counters.reloads_total.fetch_add(1, Ordering::Relaxed);
        (before.epoch, after)
    }

    /// Builds the next generation from the current one under the
    /// maintenance mutex — off the generation lock, so readers keep
    /// serving the current one meanwhile — and installs it. A failed build
    /// installs nothing.
    fn rebuild(
        &self,
        build: impl FnOnce(&ShardSet) -> Result<ShardSet, ServeError>,
    ) -> Result<(u64, u64), ServeError> {
        let maintenance = self.maintenance();
        let next = build(&self.snapshot_all())?;
        Ok(self.install(&maintenance, next))
    }

    /// Hot-swap reload: a new generation from the manifest of a
    /// manifest-backed index, or else from every shard's source path,
    /// reopening only the files whose version changed. In-flight requests
    /// finish on the generation they pinned. Returns the
    /// `(epoch_before, epoch_after)`; they are equal when nothing changed.
    pub fn reload(&self) -> Result<(u64, u64), ServeError> {
        self.rebuild(|current| match &self.manifest {
            Some(path) => self.read_manifest(path, current),
            None => {
                let shards = current.shards.iter().map(|shard| {
                    let Some((path, version)) = &shard.source else {
                        return Err(ServeError::BadConfig(format!(
                            "index {:?} was registered without a source path and cannot be \
                             reloaded",
                            self.name
                        )));
                    };
                    match FileVersion::of(path) {
                        Ok(now) if now == *version => Ok(shard.clone()),
                        _ => open_shard(&self.name, path),
                    }
                });
                Ok(ShardSet::positional(shards.collect::<Result<_, _>>()?))
            }
        })
    }

    /// Installs `engine` as the whole generation — a set of one (tests
    /// substitute in-memory engines this way). Returns the
    /// `(epoch_before, epoch_after)`.
    pub fn swap_engine(&self, engine: Arc<Engine>) -> (u64, u64) {
        let shard = Loaded { engine, source: None };
        self.install(&self.maintenance(), ShardSet::positional(vec![shard]))
    }

    /// The generation the manifest at `path` describes now, reusing
    /// `current`'s open shard files.
    fn read_manifest(&self, path: &Path, current: &ShardSet) -> Result<ShardSet, ServeError> {
        let manifest = ShardManifest::load(path).map_err(|e| self.index_error(e))?;
        ShardSet::from_manifest(&self.name, &manifest, Some(current))
    }

    /// One watcher tick of the shared update policy
    /// ([`gks_index::maintain`], what `gks watch` runs): commit a delta for
    /// whatever changed in the corpus directory, fold the backlog once the
    /// manifest on disk carries `compact_at` delta shards, and sync the new
    /// generation in — once, whatever the tick did. Returns the delta the
    /// tick committed (`None` for an unchanged corpus). Both steps always
    /// run; the error is the first one that failed.
    pub fn maintain(&self, compact_at: Option<u64>) -> Result<Option<CommitStats>, ServeError> {
        let MaintenanceOutcome { commit, compaction } =
            self.mutate_manifest("watch a corpus", |path| gks_index::maintain(path, compact_at))?;
        let commit = commit.map_err(|e| self.index_error(e))?;
        compaction.map_err(|e| self.index_error(e))?;
        Ok(commit)
    }

    /// Folds this index's delta shards back into its base shards
    /// (`POST /admin/compact`) and syncs the compacted generation in.
    /// Returns `Ok(None)` when there was nothing to fold.
    pub fn compact_now(&self) -> Result<Option<CompactStats>, ServeError> {
        let outcome = self.mutate_manifest("compact", |path| MaintenanceOutcome {
            commit: Ok(None),
            compaction: compact(path),
        })?;
        outcome.compaction.map_err(|e| self.index_error(e))
    }

    /// The locked body of [`ResidentIndex::maintain`] and
    /// [`ResidentIndex::compact_now`]: runs one manifest mutation under the
    /// maintenance mutex, counts what it did, and installs the manifest's
    /// new generation if anything changed.
    fn mutate_manifest(
        &self,
        what: &str,
        step: impl FnOnce(&Path) -> MaintenanceOutcome,
    ) -> Result<MaintenanceOutcome, ServeError> {
        let Some(path) = self.manifest.as_deref() else {
            return Err(ServeError::BadConfig(format!(
                "index {:?} is not manifest-backed and cannot {what}",
                self.name
            )));
        };
        let maintenance = self.maintenance();
        let outcome = step(path);
        if let Ok(Some(_)) = &outcome.commit {
            self.counters.delta_commits_total.fetch_add(1, Ordering::Relaxed);
        }
        if let Ok(Some(stats)) = &outcome.compaction {
            self.counters.compactions_total.fetch_add(1, Ordering::Relaxed);
            self.counters
                .compaction_millis_total
                .fetch_add(stats.elapsed_ms, Ordering::Relaxed);
        }
        if outcome.changed() {
            let next = self.read_manifest(path, &self.snapshot_all())?;
            self.install(&maintenance, next);
        }
        Ok(outcome)
    }

    fn index_error(&self, e: IndexError) -> ServeError {
        index_error(&self.name, e)
    }

    /// Folds one engine run's cost ledger into this index's totals and
    /// work-per-query histograms. Cache hits do no engine work and are
    /// never recorded here.
    pub fn record_cost(&self, ledger: &CostLedger) {
        self.counters.cost.record(ledger);
        self.counters.work_postings.record(ledger.postings_scanned);
        self.counters.work_advances.record(ledger.sweep_advances);
    }

    /// Folds the phase spans of a completed request trace into this index's
    /// per-phase histograms.
    pub fn record_phases(&self, trace: &CompletedTrace) {
        for (i, kind) in SpanKind::PHASES.iter().enumerate() {
            if trace.root.has_kind(*kind) {
                self.counters.phases[i].record(trace.root.kind_micros(*kind));
            }
        }
    }

    /// Point-in-time view of this index for `/metrics` rendering; every
    /// generation-derived gauge comes from one pinned generation.
    pub fn metrics_view(&self) -> IndexMetricsView<'_> {
        let set = self.snapshot_all();
        let index_sum = |f: fn(&GksIndex) -> u64| -> u64 {
            set.shards.iter().map(|s| f(s.engine.index())).sum()
        };
        IndexMetricsView {
            name: &self.name,
            cache: self.cache.stats(),
            identity: set.epoch,
            shard_count: set.shards.len(),
            requests_total: self.counters.requests_total.load(Ordering::Relaxed),
            cache_hits_total: self.counters.cache_hits_total.load(Ordering::Relaxed),
            cache_misses_total: self.counters.cache_misses_total.load(Ordering::Relaxed),
            reloads_total: self.counters.reloads_total.load(Ordering::Relaxed),
            delta_shards: set.backlog.delta_shards,
            delta_docs: set.backlog.delta_docs,
            freshness_seconds: self.freshness_of(&set),
            delta_commits_total: self.counters.delta_commits_total.load(Ordering::Relaxed),
            compactions_total: self.counters.compactions_total.load(Ordering::Relaxed),
            compaction_millis_total: self.counters.compaction_millis_total.load(Ordering::Relaxed),
            // Index-file bytes served straight from the mmap (zero for
            // indexes built in process), and milliseconds spent opening
            // the shard files currently serving.
            bytes_mapped: index_sum(GksIndex::bytes_mapped),
            open_millis: index_sum(GksIndex::open_millis),
            phases: &self.counters.phases,
            cost: self.counters.cost.snapshot(),
            work_postings: &self.counters.work_postings,
            work_advances: &self.counters.work_advances,
        }
    }
}

/// The registry of resident indexes, in registration order, with one of
/// them designated the default for un-prefixed endpoint paths.
#[derive(Debug)]
pub struct EngineCatalog {
    indexes: Vec<Arc<ResidentIndex>>,
    default: usize,
}

impl EngineCatalog {
    /// Builds the catalog, loading every path-backed spec. `default` names
    /// the index bare `/search` addresses; `None` picks the first spec.
    pub fn build(
        specs: Vec<IndexSpec>,
        default: Option<&str>,
        config: &ServeConfig,
    ) -> Result<EngineCatalog, ServeError> {
        if specs.is_empty() {
            return Err(ServeError::BadConfig("the catalog needs at least one index".into()));
        }
        // One executor for the whole catalog. Only request workers scatter,
        // each runs one request at a time, and a request puts at most one
        // job on each lane: a lane of `workers` threads never queues one
        // index's shard behind another's.
        let executor = Arc::new(ShardExecutor::new(config.workers));
        let mut indexes: Vec<Arc<ResidentIndex>> = Vec::with_capacity(specs.len());
        for spec in specs {
            let resident = ResidentIndex::from_spec(spec, config, &executor)?;
            if indexes.iter().any(|r| r.name == resident.name) {
                return Err(ServeError::BadConfig(format!(
                    "duplicate index name {:?} (route keys are case-insensitive)",
                    resident.name
                )));
            }
            indexes.push(Arc::new(resident));
        }
        let default = match default {
            None => 0,
            Some(name) => {
                let key = name.to_ascii_lowercase();
                indexes.iter().position(|r| r.name == key).ok_or_else(|| {
                    ServeError::BadConfig(format!("default index {name:?} is not in the catalog"))
                })?
            }
        };
        Ok(EngineCatalog { indexes, default })
    }

    /// Looks up an index by its (already normalized) route key.
    pub fn get(&self, name: &str) -> Option<&Arc<ResidentIndex>> {
        self.indexes.iter().find(|r| r.name == name)
    }

    /// The index bare (un-prefixed) endpoint paths address.
    pub fn default_index(&self) -> &Arc<ResidentIndex> {
        // `default` is a validated position into a non-empty vector.
        &self.indexes[self.default]
    }

    /// All resident indexes, in registration order.
    pub fn iter(&self) -> impl Iterator<Item = &Arc<ResidentIndex>> {
        self.indexes.iter()
    }

    /// Number of resident indexes (always ≥ 1).
    pub fn len(&self) -> usize {
        self.indexes.len()
    }

    /// Never true — construction rejects an empty catalog. Present because
    /// `len` without `is_empty` trips clippy.
    pub fn is_empty(&self) -> bool {
        self.indexes.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gks_index::{Corpus, IndexOptions};

    fn tiny_engine(tag: &str) -> Arc<Engine> {
        let xml = format!("<r><a>{tag}</a><a>shared words</a></r>");
        let corpus = Corpus::from_named_strs([(tag, xml.as_str())]).unwrap();
        Arc::new(Engine::build(&corpus, IndexOptions::default()).unwrap())
    }

    #[test]
    fn catalog_registers_looks_up_and_defaults() {
        let config = ServeConfig::default();
        let specs = vec![
            IndexSpec::with_engine("Alpha", tiny_engine("alpha")),
            IndexSpec::with_engine("beta", tiny_engine("beta")),
        ];
        let catalog = EngineCatalog::build(specs, Some("beta"), &config).unwrap();
        assert_eq!(catalog.len(), 2);
        assert!(!catalog.is_empty());
        assert_eq!(catalog.default_index().name(), "beta");
        // Registration lowercased "Alpha"; lookups use normalized keys.
        assert!(catalog.get("alpha").is_some());
        assert!(catalog.get("nope").is_none());
    }

    #[test]
    fn catalog_rejects_bad_configurations() {
        let config = ServeConfig::default();
        let empty: Vec<IndexSpec> = Vec::new();
        assert!(EngineCatalog::build(empty, None, &config).is_err());
        let dup = vec![
            IndexSpec::with_engine("a", tiny_engine("x")),
            IndexSpec::with_engine("A", tiny_engine("y")),
        ];
        assert!(EngineCatalog::build(dup, None, &config).is_err(), "case-insensitive duplicate");
        let missing_default = vec![IndexSpec::with_engine("a", tiny_engine("x"))];
        assert!(EngineCatalog::build(missing_default, Some("b"), &config).is_err());
        let bad_name = vec![IndexSpec::with_engine("a/b", tiny_engine("x"))];
        assert!(EngineCatalog::build(bad_name, None, &config).is_err());
        let missing_path = vec![IndexSpec::with_source("a", "/nonexistent/x.gksix")];
        assert!(matches!(
            EngineCatalog::build(missing_path, None, &config),
            Err(ServeError::Index { .. })
        ));
    }

    #[test]
    fn swap_engine_changes_identity_and_clears_cache() {
        let config = ServeConfig::default();
        let specs = vec![IndexSpec::with_engine("a", tiny_engine("one"))];
        let catalog = EngineCatalog::build(specs, None, &config).unwrap();
        let resident = catalog.get("a").unwrap();
        let old = resident.snapshot_all();
        resident.cache().put("k".into(), Arc::from(&b"v"[..]));
        assert!(resident.cache().get("k").is_some());
        assert!(resident.reload().is_err(), "engine-backed indexes cannot reload");
        assert!(resident.maintain(None).is_err(), "engine-backed indexes cannot watch");
        assert!(resident.compact_now().is_err(), "engine-backed indexes cannot compact");
        assert_eq!(resident.freshness_seconds(), None, "freshness is manifest-only");

        let (before, after) = resident.swap_engine(tiny_engine("two"));
        assert_eq!(before, old.epoch);
        assert_eq!(old.doc_maps, vec![DocMap::base(0)], "a set of one tiles from zero");
        assert_eq!(after, before + 1, "every install takes a fresh epoch");
        assert_eq!(resident.identity(), after);
        assert_eq!(resident.counters().reloads_total.load(Ordering::Relaxed), 1);
        assert!(resident.cache().get("k").is_none(), "swap clears the old generation");
        // The pre-swap snapshot still works: old generation pinned.
        assert_eq!(old.epoch, before);
        assert!(Arc::strong_count(&old.shards[0].engine) >= 1);

        // Re-installing the engine already serving changes nothing.
        resident.cache().put("k".into(), Arc::from(&b"v"[..]));
        let same = Arc::clone(&resident.snapshot_all().shards[0].engine);
        assert_eq!(resident.swap_engine(same), (after, after));
        assert!(resident.cache().get("k").is_some(), "a no-op install keeps the cache");
        assert_eq!(resident.counters().reloads_total.load(Ordering::Relaxed), 1);
    }
}
