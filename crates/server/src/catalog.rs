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
//! **Hot-swap protocol.** Each resident index is a **shard set**: one or
//! more shard slots behind a `RwLock<Vec<…>>` (an unsharded index is a set
//! of one), each slot carrying its current generation as
//! `RwLock<Arc<Loaded>>`. A request pins a [`ShardSet`] (`Arc` clones
//! under read locks) once, then runs entirely against that generation set
//! — search, render, cache tagging. Replacement engines are
//! always built *before* any write lock is taken, so locks are held only
//! for pointer swaps; in-flight requests finish on the old engines, which
//! are freed when the last snapshot drops. Stale cache entries are
//! impossible by construction: every cache entry is tagged with the
//! (combined) identity it was computed against
//! ([`crate::cache::ResultCache::get_for`]), and a swap additionally
//! bulk-clears the superseded generation's entries.
//!
//! **Reloads.** A resident index backed by N shards (a
//! document-partitioned corpus, see `gks_index::shard`) reloads its shards
//! one at a time. A monotonically increasing **epoch** counter is bumped
//! after every swap; [`ResidentIndex::snapshot_all`] reads the epoch on
//! both sides of the slot sweep and retries until both reads agree, so a
//! scatter can never be handed shards from two different reload sweeps.
//!
//! **Manifest-backed indexes and the update path.** An index registered
//! from a shard manifest ([`IndexSpec::with_manifest`]) tracks the
//! manifest's **epoch**: delta commits (`gks_index::delta`) append delta
//! shards and tombstones, compactions fold them back into base shards, and
//! [`ResidentIndex::sync_manifest`] re-reads the manifest and installs the
//! new shard set. Slots whose shard file is unchanged (same shard id, same
//! path — shard files are immutable once written) are **reused**: the
//! loaded index is shared via `Arc` and only re-wrapped with the new
//! tombstone mask and document map, so a delta commit touching one shard
//! re-reads one file, not N. [`ResidentIndex::maintain`] (the watcher tick,
//! `gks_index::maintain` — the policy `gks watch` runs) and
//! [`ResidentIndex::compact_now`] (`POST /admin/compact`) share one locked
//! body behind a maintenance mutex, so at most one manifest mutation runs
//! per index at a time and each syncs the new generation in once.
//!
//! Lock order within this module: `catalog.maintenance` →
//! `catalog.slots` → `catalog.loaded` (checked statically by
//! `cargo xtask analyze` and dynamically by the debug-build
//! `gks_trace::lockorder` registry).
//!
//! Route keys are normalized ([`normalize_path`]) — duplicate slashes,
//! trailing slashes, and ASCII case differences all resolve to the same
//! index and therefore the same cache.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};

use gks_core::engine::Engine;
use gks_core::shard::{shard_engine, DocMap};
use gks_core::{CostLedger, ShardExecutor};
use gks_index::delta::{compact, wall_clock_ms, CommitStats, CompactStats, MaintenanceOutcome};
use gks_index::{GksIndex, IndexError, ShardManifest};
use gks_trace::{CompletedTrace, Histogram, SpanKind};

use crate::cache::ResultCache;
use crate::error::ServeError;
use crate::metrics::{Endpoint, IndexMetricsView};
use crate::{index_identity, ServeConfig};

/// Route key used for an index registered without an explicit name (the
/// single positional `gks serve` path).
pub const DEFAULT_INDEX_NAME: &str = "default";

/// One engine generation of one shard: the engine plus the identity
/// fingerprint of the index it was built from. Only ever handed out inside
/// a [`ShardSet`], which pairs it with its resolved document renumbering —
/// there is no way to reach a shard's engine without its set.
#[derive(Debug)]
pub struct Loaded {
    /// The resident engine of this generation (tombstone-masked when the
    /// manifest carries tombstones for this shard).
    pub engine: Arc<Engine>,
    /// Identity fingerprint of the engine's index, mixed with the
    /// tombstone mask and document map when present ([`index_identity`]
    /// alone for a plain frozen shard).
    pub identity: u64,
    /// Local→global document renumbering of this shard; `None` means the
    /// positional dense tiling (global = local + sum of preceding shard
    /// sizes), which is what frozen shard sets use. Private: readers get
    /// the resolved map from [`ShardSet::doc_maps`].
    doc_map: Option<DocMap>,
}

#[derive(Debug)]
enum IndexSource {
    /// Already-built shard engines in global document order (tests,
    /// benches). Not reloadable.
    Engines(Vec<Arc<Engine>>),
    /// Self-contained `.gksix` shard files over a document-partitioned
    /// corpus, in global document order; each shard reloads by re-reading
    /// its own path.
    Paths(Vec<PathBuf>),
    /// A shard manifest file: the live-update source. Reloads re-read the
    /// manifest and sync the slot set to it (delta shards, tombstones,
    /// compactions — see `gks_index::delta`).
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
    /// index files, in global document order. Each shard is re-read from
    /// its own path on reload (one slot at a time).
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
    /// picked up by [`ResidentIndex::sync_manifest`] without a restart.
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

/// One shard slot of a resident index: the shard's current engine
/// generation plus the path reloads re-read (absent for engine-backed
/// shards) and the manifest shard id — the slot-reuse key for manifest
/// syncs.
#[derive(Debug)]
struct ShardSlot {
    /// Manifest shard id, when this slot came from a manifest.
    shard_id: Option<u64>,
    source: Option<PathBuf>,
    loaded: RwLock<Arc<Loaded>>,
}

/// A consistent point-in-time snapshot of every shard of a resident index,
/// produced by [`ResidentIndex::snapshot_all`] — the only way a reader
/// reaches an engine. The `Arc`s pin the generations; `epoch` is the reload
/// epoch both sides of the slot sweep agreed on, so the set never mixes
/// shards from two reload sweeps. Never empty.
#[derive(Debug)]
pub struct ShardSet {
    /// The pinned shard generations, in global document order.
    pub shards: Vec<Arc<Loaded>>,
    /// The reload epoch the snapshot was taken at.
    pub epoch: u64,
    /// Combined identity of the snapshot (equals the single shard's
    /// identity for an unsharded index).
    pub identity: u64,
    /// Per-shard local→global document renumbering, in shard order:
    /// explicit maps for manifest-backed sets, dense positional bases
    /// otherwise.
    pub doc_maps: Vec<DocMap>,
}

impl ShardSet {
    /// The pinned engines, in shard order.
    pub fn engines(&self) -> Vec<&Engine> {
        self.shards.iter().map(|loaded| loaded.engine.as_ref()).collect()
    }
}

/// Folds per-shard identity fingerprints into one logical-index identity.
/// A single shard keeps its raw identity (so an unsharded index fingerprints
/// exactly as before sharding existed); N > 1 shards FNV-fold theirs, mixing
/// in the count so a prefix subset can never collide with the full set.
fn combined_identity(identities: &[u64]) -> u64 {
    match identities {
        [one] => *one,
        many => {
            let mut h: u64 = 0xcbf2_9ce4_8422_2325;
            mix64(&mut h, many.len() as u64);
            for &id in many {
                mix64(&mut h, id);
            }
            h
        }
    }
}

/// FNV-folds one value into a running hash.
fn mix64(h: &mut u64, v: u64) {
    for b in v.to_le_bytes() {
        *h ^= u64::from(b);
        *h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

/// Identity of one slot generation: the raw [`index_identity`] for a plain
/// frozen shard, additionally folding the tombstone mask and explicit
/// document map when present — re-masking an unchanged shard file must
/// change the identity, or a post-commit cache lookup could replay bytes
/// computed before the mask existed.
fn slot_identity(engine: &Engine, doc_map: Option<&DocMap>) -> u64 {
    let base = index_identity(engine.index());
    let table = match doc_map {
        Some(DocMap::Table { forward, .. }) => Some(forward),
        _ => None,
    };
    if engine.tombstones().is_empty() && table.is_none() {
        return base;
    }
    let mut h = base;
    mix64(&mut h, 0x6d61_736b); // domain tag: masked/mapped generation
    mix64(&mut h, engine.tombstones().len() as u64);
    for &t in engine.tombstones() {
        mix64(&mut h, u64::from(t));
    }
    if let Some(forward) = table {
        mix64(&mut h, forward.len() as u64);
        for &g in forward {
            mix64(&mut h, u64::from(g));
        }
    }
    h
}

/// Derives the per-shard document maps of a snapshot: a slot's explicit
/// map when it has one, otherwise the dense positional base computed from
/// the preceding shards' document counts.
fn doc_maps_of(shards: &[Arc<Loaded>]) -> Vec<DocMap> {
    let mut maps = Vec::with_capacity(shards.len());
    let mut next = 0u32;
    for loaded in shards {
        match &loaded.doc_map {
            Some(map) => maps.push(map.clone()),
            None => maps.push(DocMap::base(next)),
        }
        let count = u32::try_from(loaded.engine.index().stats().doc_count).unwrap_or(u32::MAX);
        next = next.saturating_add(count);
    }
    maps
}

/// One resident (logical) index: shard slots each holding their current
/// engine generation behind a `RwLock`, the identity-keyed result cache
/// shared by all shards, a reload epoch, per-index counters, and — for
/// manifest-backed indexes — the manifest path plus delta backlog gauges.
#[derive(Debug)]
pub struct ResidentIndex {
    name: String,
    /// The shard slots, swapped wholesale by manifest syncs (the slot
    /// *count* changes when delta shards appear or compaction folds them
    /// away). Never empty. Lock order: `slots` before any slot's `loaded`.
    slots: RwLock<Vec<Arc<ShardSlot>>>,
    /// Manifest path, for manifest-backed indexes.
    manifest: Option<PathBuf>,
    /// Serializes manifest mutations (delta commits, compactions) and the
    /// syncs they trigger. Ordered before `slots`.
    maintenance: Mutex<()>,
    /// Bumped after every swap; lets readers detect a reload racing their
    /// slot sweep (see [`ResidentIndex::snapshot_all`]).
    epoch: AtomicU64,
    /// Delta shards currently serving (the `/metrics` backlog gauge).
    delta_shards: AtomicU64,
    /// Documents living in delta shards.
    delta_docs: AtomicU64,
    /// `committed-ms` of the manifest generation currently serving.
    committed_ms: AtomicU64,
    cache: ResultCache,
    counters: IndexCounters,
    /// Persistent per-shard worker lanes for the scatter path: shard
    /// fan-out is a channel send to a long-lived lane, never a thread
    /// spawn per request. Lanes grow with the shard count (manifest syncs
    /// can add delta shards) and never shrink; a set of one searches on
    /// the calling worker and has none.
    executor: Arc<ShardExecutor>,
}

fn load_engine(name: &str, path: &Path) -> Result<Arc<Engine>, ServeError> {
    let index = GksIndex::load(path)
        .map_err(|e| ServeError::Index { name: name.to_string(), message: e.to_string() })?;
    Ok(Arc::new(Engine::from_index(index)))
}

fn slot_of(engine: Arc<Engine>, source: Option<PathBuf>) -> Arc<ShardSlot> {
    let identity = index_identity(engine.index());
    Arc::new(ShardSlot {
        shard_id: None,
        source,
        loaded: RwLock::new(Arc::new(Loaded { engine, identity, doc_map: None })),
    })
}

/// Reads a slot's current generation (`Arc` clone under the read lock).
fn slot_loaded(slot: &ShardSlot) -> Arc<Loaded> {
    let guard = gks_trace::lockorder::track(
        "server/catalog.loaded",
        slot.loaded.read().unwrap_or_else(std::sync::PoisonError::into_inner),
    );
    Arc::clone(&guard)
}

/// Builds the slot set for one manifest generation, reusing `current`
/// slots whose shard file is unchanged. Shard files are immutable once
/// written (commits and compactions write new epoch-stamped files), so
/// (shard id, path) identifies the bytes; a reused slot shares the loaded
/// index via `Arc` and is re-wrapped with the new tombstone mask and
/// document map.
fn build_manifest_slots(
    name: &str,
    manifest: &ShardManifest,
    current: &[Arc<ShardSlot>],
) -> Result<Vec<Arc<ShardSlot>>, ServeError> {
    if manifest.shards.is_empty() {
        return Err(ServeError::BadConfig(format!("manifest for {name:?} lists no shards")));
    }
    let mut slots = Vec::with_capacity(manifest.shards.len());
    for (entry, view) in manifest.shards.iter().zip(manifest.shard_views()) {
        let reused = current
            .iter()
            .find(|s| {
                s.shard_id == Some(entry.id) && s.source.as_deref() == Some(entry.path.as_path())
            })
            .map(|slot| slot_loaded(slot).engine.index_shared());
        let (engine, doc_map) = shard_engine(entry, view, reused)
            .map_err(|e| ServeError::Index { name: name.to_string(), message: e.to_string() })?;
        let (engine, doc_map) = (Arc::new(engine), Some(doc_map));
        let identity = slot_identity(&engine, doc_map.as_ref());
        slots.push(Arc::new(ShardSlot {
            shard_id: Some(entry.id),
            source: Some(entry.path.clone()),
            loaded: RwLock::new(Arc::new(Loaded { engine, identity, doc_map })),
        }));
    }
    Ok(slots)
}

impl ResidentIndex {
    fn from_spec(spec: IndexSpec, config: &ServeConfig) -> Result<ResidentIndex, ServeError> {
        let name = spec.name.to_ascii_lowercase();
        if name.is_empty() || name.contains('/') || name.chars().any(char::is_whitespace) {
            return Err(ServeError::BadConfig(format!(
                "index name {:?} is not a usable route key (must be non-empty, \
                 without '/' or whitespace)",
                spec.name
            )));
        }
        let mut manifest_path = None;
        let mut manifest_loaded: Option<ShardManifest> = None;
        let slots: Vec<Arc<ShardSlot>> = match spec.source {
            IndexSource::Engines(engines) => {
                engines.into_iter().map(|engine| slot_of(engine, None)).collect()
            }
            IndexSource::Paths(paths) => paths
                .into_iter()
                .map(|path| Ok(slot_of(load_engine(&name, &path)?, Some(path))))
                .collect::<Result<_, ServeError>>()?,
            IndexSource::Manifest(path) => {
                let manifest = ShardManifest::load(&path).map_err(|e| ServeError::Index {
                    name: name.clone(),
                    message: e.to_string(),
                })?;
                let slots = build_manifest_slots(&name, &manifest, &[])?;
                manifest_path = Some(path);
                manifest_loaded = Some(manifest);
                slots
            }
        };
        if slots.is_empty() {
            return Err(ServeError::BadConfig(format!("index {name:?} lists no shards")));
        }
        let per_lane = if config.shard_workers == 0 {
            config.workers
        } else {
            config.shard_workers
        };
        let executor = Arc::new(ShardExecutor::new(per_lane));
        let resident = ResidentIndex {
            name,
            slots: RwLock::new(slots),
            manifest: manifest_path,
            maintenance: Mutex::new(()),
            epoch: AtomicU64::new(0),
            delta_shards: AtomicU64::new(0),
            delta_docs: AtomicU64::new(0),
            committed_ms: AtomicU64::new(0),
            cache: ResultCache::new(config.cache_bytes, config.cache_shards, 0),
            counters: IndexCounters::new(),
            executor,
        };
        resident.grow_lanes().map_err(ServeError::Io)?;
        if let Some(manifest) = &manifest_loaded {
            resident.record_manifest_stats(manifest);
        }
        resident.cache.ensure_identity(resident.identity());
        Ok(resident)
    }

    /// The normalized route key of this index.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The manifest path for a manifest-backed index.
    pub fn manifest_path(&self) -> Option<&Path> {
        self.manifest.as_deref()
    }

    /// Number of shard slots backing this index (1 for unsharded; never 0:
    /// construction and every manifest sync reject an empty shard set).
    pub fn shard_count(&self) -> usize {
        self.slots_snapshot().len()
    }

    /// The persistent scatter executor backing this index's fanned-out
    /// searches.
    pub fn executor(&self) -> &ShardExecutor {
        &self.executor
    }

    /// Grows the scatter lanes to the current shard count — at build and
    /// after every manifest sync, so the request path never spawns. A set
    /// of one searches on the calling worker and gets no lane.
    fn grow_lanes(&self) -> std::io::Result<()> {
        let shards = self.shard_count();
        if shards > 1 {
            self.executor.ensure_lanes(shards)?;
        }
        Ok(())
    }

    /// The current reload epoch (bumped after every slot swap).
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Acquire)
    }

    /// Delta shards currently serving (the `/metrics` backlog gauge).
    pub fn delta_shards(&self) -> u64 {
        self.delta_shards.load(Ordering::Relaxed)
    }

    /// Documents currently living in delta shards.
    pub fn delta_docs(&self) -> u64 {
        self.delta_docs.load(Ordering::Relaxed)
    }

    /// Index-file bytes served straight from the mmap, summed across all
    /// shard slots. Zero for indexes built in process (heap postings, no
    /// file), so the gauge shows whether the zero-copy tier is engaged.
    pub fn bytes_mapped(&self) -> u64 {
        self.slots_snapshot()
            .iter()
            .map(|s| slot_loaded(s).engine.index().bytes_mapped())
            .sum()
    }

    /// Milliseconds spent opening the shard files currently serving,
    /// summed across slots. Format-v3 opens skip posting decode, so this
    /// stays near-constant as the corpus grows.
    pub fn open_millis(&self) -> u64 {
        self.slots_snapshot()
            .iter()
            .map(|s| slot_loaded(s).engine.index().open_millis())
            .sum()
    }

    /// Seconds since the serving manifest generation was committed, or
    /// `None` when this index is not manifest-backed. This is the freshness
    /// lag a scrape observes: it grows between commits and drops to ~0
    /// right after every delta commit or compaction is synced in.
    pub fn freshness_seconds(&self) -> Option<u64> {
        self.manifest.as_ref()?;
        let committed = self.committed_ms.load(Ordering::Relaxed);
        Some(wall_clock_ms().saturating_sub(committed) / 1000)
    }

    fn record_manifest_stats(&self, manifest: &ShardManifest) {
        self.delta_shards.store(manifest.delta_shard_count() as u64, Ordering::Relaxed);
        self.delta_docs.store(manifest.delta_doc_count(), Ordering::Relaxed);
        self.committed_ms.store(manifest.committed_ms, Ordering::Relaxed);
    }

    /// The current slot list (`Arc` clones under the read lock).
    fn slots_snapshot(&self) -> Vec<Arc<ShardSlot>> {
        let slots = gks_trace::lockorder::track(
            "server/catalog.slots",
            self.slots.read().unwrap_or_else(std::sync::PoisonError::into_inner),
        );
        slots.iter().map(Arc::clone).collect()
    }

    /// A consistent snapshot of **every** shard, or `None` if a reload
    /// storm kept invalidating the sweep. The returned `Arc`s pin the
    /// generations: a reload swapping a slot does not affect the set, and
    /// an old engine is freed when the last set holding it drops. The epoch
    /// is read on both sides of the slot sweep and the sweep retries until
    /// both reads agree, so a returned set never mixes shards from two
    /// reload sweeps — the precondition for the gather stage's lossless
    /// merge. `None` is the only mixed-generation outcome and requires ~64
    /// reload sweeps to land inside one snapshot attempt each; callers turn
    /// it into a `503`.
    pub fn snapshot_all(&self) -> Option<ShardSet> {
        for _ in 0..64 {
            let before = self.epoch.load(Ordering::Acquire);
            let slots = self.slots_snapshot();
            let shards: Vec<Arc<Loaded>> = slots.iter().map(|s| slot_loaded(s)).collect();
            if self.epoch.load(Ordering::Acquire) == before {
                let identity =
                    combined_identity(&shards.iter().map(|l| l.identity).collect::<Vec<u64>>());
                let doc_maps = doc_maps_of(&shards);
                return Some(ShardSet { shards, epoch: before, identity, doc_maps });
            }
            std::hint::spin_loop();
        }
        None
    }

    /// Combined identity fingerprint of the current generation set (the raw
    /// shard identity when unsharded).
    pub fn identity(&self) -> u64 {
        let ids: Vec<u64> = self.slots_snapshot().iter().map(|s| slot_loaded(s).identity).collect();
        combined_identity(&ids)
    }

    /// This index's result cache.
    pub fn cache(&self) -> &ResultCache {
        &self.cache
    }

    /// This index's counters.
    pub fn counters(&self) -> &IndexCounters {
        &self.counters
    }

    /// Swaps slot `i` to a new generation and bumps the epoch. The write
    /// lock is held only for the pointer swap.
    fn swap_slot(&self, i: usize, replacement: Arc<Loaded>) {
        let slots = self.slots_snapshot();
        if let Some(slot) = slots.get(i) {
            let mut guard = gks_trace::lockorder::track(
                "server/catalog.loaded",
                slot.loaded.write().unwrap_or_else(std::sync::PoisonError::into_inner),
            );
            **guard = replacement;
        }
        self.epoch.fetch_add(1, Ordering::Release);
    }

    /// Hot-swap reload. Manifest-backed indexes delegate to
    /// [`ResidentIndex::sync_manifest`]; path-backed indexes re-read every
    /// shard's source into a fresh engine (the expensive part, done without
    /// any lock held) and swap the slots in **one at a time**, bumping the
    /// epoch after each swap so concurrent scatters detect the sweep.
    /// In-flight requests holding old snapshots finish undisturbed. Returns
    /// the combined `(identity_before, identity_after)`.
    pub fn reload(&self) -> Result<(u64, u64), ServeError> {
        if self.manifest.is_some() {
            return self.sync_manifest();
        }
        let slots = self.slots_snapshot();
        if slots.iter().any(|s| s.source.is_none()) {
            return Err(ServeError::BadConfig(format!(
                "index {:?} was registered without a source path and cannot be reloaded",
                self.name
            )));
        }
        let before = self.identity();
        for (i, slot) in slots.iter().enumerate() {
            let Some(path) = slot.source.clone() else {
                continue;
            };
            let engine = load_engine(&self.name, &path)?;
            let identity = index_identity(engine.index());
            self.swap_slot(i, Arc::new(Loaded { engine, identity, doc_map: None }));
            // Re-bind the cache after every swap: entries tagged with a
            // mid-sweep combined identity are unservable either way, this
            // just reclaims them eagerly.
            self.cache.ensure_identity(self.identity());
        }
        self.counters.reloads_total.fetch_add(1, Ordering::Relaxed);
        Ok((before, self.identity()))
    }

    /// Reloads only shard `i` from its source path — the shard-granular
    /// counterpart of [`ResidentIndex::reload`]
    /// (`POST /admin/reload?index=<name>&shard=<i>`). The replacement
    /// generation keeps the slot's tombstone mask and document map, so a
    /// manifest-backed shard re-reads its bytes without losing its masking.
    /// Returns the combined `(identity_before, identity_after)`.
    pub fn reload_shard(&self, i: usize) -> Result<(u64, u64), ServeError> {
        let slots = self.slots_snapshot();
        let Some(slot) = slots.get(i) else {
            return Err(ServeError::BadConfig(format!(
                "index {:?} has {} shards; shard {i} does not exist",
                self.name,
                slots.len()
            )));
        };
        let Some(path) = slot.source.clone() else {
            return Err(ServeError::BadConfig(format!(
                "shard {i} of index {:?} was registered without a source path and cannot \
                 be reloaded",
                self.name
            )));
        };
        let before = self.identity();
        let old = slot_loaded(slot);
        let index = GksIndex::load(&path).map_err(|e| self.index_error(e))?;
        let engine =
            Arc::new(Engine::from_shared(Arc::new(index), old.engine.tombstones().to_vec()));
        let identity = slot_identity(&engine, old.doc_map.as_ref());
        self.swap_slot(i, Arc::new(Loaded { engine, identity, doc_map: old.doc_map.clone() }));
        let after = self.identity();
        self.counters.reloads_total.fetch_add(1, Ordering::Relaxed);
        self.cache.ensure_identity(after);
        Ok((before, after))
    }

    /// Installs a replacement engine generation in the **first** shard slot
    /// (the tail of [`ResidentIndex::reload`] for unsharded indexes, also
    /// usable directly by tests). The write lock is held only for the
    /// pointer swap. Returns the combined
    /// `(identity_before, identity_after)`.
    pub fn swap_engine(&self, engine: Arc<Engine>, identity: u64) -> (u64, u64) {
        let before = self.identity();
        self.swap_slot(0, Arc::new(Loaded { engine, identity, doc_map: None }));
        let after = self.identity();
        self.counters.reloads_total.fetch_add(1, Ordering::Relaxed);
        // Bulk-evict the superseded generation's entries. Correctness does
        // not depend on this — per-entry identity tags already make stale
        // entries unservable — it just reclaims the memory eagerly.
        self.cache.ensure_identity(after);
        (before, after)
    }

    /// Re-reads the manifest and installs its shard set: the read side of
    /// the incremental update path. Unchanged shard files are reused (the
    /// loaded index is shared and only re-masked); new delta shards are
    /// loaded; slots whose shard vanished (compaction) drop off. The slot
    /// list is swapped wholesale under the write lock — held only for the
    /// pointer swap — and the epoch bump makes concurrent scatters retry
    /// on the new set. Returns `(identity_before, identity_after)`.
    pub fn sync_manifest(&self) -> Result<(u64, u64), ServeError> {
        let Some(path) = self.manifest.clone() else {
            return Err(ServeError::BadConfig(format!(
                "index {:?} is not manifest-backed and cannot sync",
                self.name
            )));
        };
        let manifest = ShardManifest::load(&path).map_err(|e| self.index_error(e))?;
        let before = self.identity();
        let current = self.slots_snapshot();
        let replacement = build_manifest_slots(&self.name, &manifest, &current)?;
        {
            let mut guard = gks_trace::lockorder::track(
                "server/catalog.slots",
                self.slots.write().unwrap_or_else(std::sync::PoisonError::into_inner),
            );
            **guard = replacement;
        }
        self.epoch.fetch_add(1, Ordering::Release);
        self.record_manifest_stats(&manifest);
        // A sync can widen the shard set (new delta shards); grow the
        // scatter lanes to match. Best-effort — scatter falls back to
        // round-robin over the existing lanes until the next sync.
        let _ = self.grow_lanes();
        let after = self.identity();
        self.counters.reloads_total.fetch_add(1, Ordering::Relaxed);
        self.cache.ensure_identity(after);
        Ok((before, after))
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
    /// maintenance mutex, counts what it did, and syncs the new generation
    /// in if anything changed. The mutex keeps at most one mutation per
    /// index in flight; holding it across the I/O is the point, and it is
    /// never taken on the request path.
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
        let _maintenance = gks_trace::lockorder::track(
            "server/catalog.maintenance",
            self.maintenance.lock().unwrap_or_else(std::sync::PoisonError::into_inner),
        );
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
            self.sync_manifest()?;
        }
        Ok(outcome)
    }

    fn index_error(&self, e: IndexError) -> ServeError {
        ServeError::Index { name: self.name.clone(), message: e.to_string() }
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

    /// Point-in-time view of this index for `/metrics` rendering.
    pub fn metrics_view(&self) -> IndexMetricsView<'_> {
        IndexMetricsView {
            name: &self.name,
            cache: self.cache.stats(),
            identity: self.identity(),
            shard_count: self.shard_count(),
            requests_total: self.counters.requests_total.load(Ordering::Relaxed),
            cache_hits_total: self.counters.cache_hits_total.load(Ordering::Relaxed),
            cache_misses_total: self.counters.cache_misses_total.load(Ordering::Relaxed),
            reloads_total: self.counters.reloads_total.load(Ordering::Relaxed),
            delta_shards: self.delta_shards(),
            delta_docs: self.delta_docs(),
            freshness_seconds: self.freshness_seconds(),
            delta_commits_total: self.counters.delta_commits_total.load(Ordering::Relaxed),
            compactions_total: self.counters.compactions_total.load(Ordering::Relaxed),
            compaction_millis_total: self.counters.compaction_millis_total.load(Ordering::Relaxed),
            bytes_mapped: self.bytes_mapped(),
            open_millis: self.open_millis(),
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
        let mut indexes: Vec<Arc<ResidentIndex>> = Vec::with_capacity(specs.len());
        for spec in specs {
            let resident = ResidentIndex::from_spec(spec, config)?;
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

/// Normalizes a request path into its route form: duplicate slashes
/// collapse, trailing slashes drop (except the root itself), and ASCII case
/// folds — `/ix/DBLP//search/` and `/ix/dblp/search` are the same route and
/// therefore reach the same index and cache. Percent-decoding happened
/// upstream in the HTTP parser.
pub fn normalize_path(path: &str) -> String {
    let mut out = String::with_capacity(path.len() + 1);
    out.push('/');
    for segment in path.split('/').filter(|s| !s.is_empty()) {
        if !out.ends_with('/') {
            out.push('/');
        }
        for c in segment.chars() {
            out.push(c.to_ascii_lowercase());
        }
    }
    out
}

/// A routed request: which endpoint, and which index it explicitly
/// addressed (`None` means the catalog default).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Route {
    /// The endpoint the (suffix) path names.
    pub endpoint: Endpoint,
    /// Route key from an `/ix/<name>/…` prefix, if one was present.
    pub index: Option<String>,
}

/// Parses a request path into a [`Route`]: `/ix/<name>/<endpoint>` selects
/// index `<name>`, any other path addresses the default index. The path is
/// normalized first ([`normalize_path`]).
pub fn route_path(path: &str) -> Route {
    let normalized = normalize_path(path);
    if let Some(rest) = normalized.strip_prefix("/ix/") {
        return match rest.split_once('/') {
            Some((name, suffix)) if !name.is_empty() => Route {
                endpoint: Endpoint::of_path(&format!("/{suffix}")),
                index: Some(name.into()),
            },
            // `/ix/<name>` with no endpoint suffix, or `/ix//…`: addressed
            // an index but not an endpoint.
            _ => Route { endpoint: Endpoint::Other, index: None },
        };
    }
    Route { endpoint: Endpoint::of_path(&normalized), index: None }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gks_index::{Corpus, IndexOptions};

    fn tiny_engine(tag: &str) -> Arc<Engine> {
        let xml = format!("<r><a>{tag}</a><a>shared words</a></r>");
        // The tag doubles as the document name: the identity fingerprint
        // mixes doc names, so distinct tags guarantee distinct identities
        // even when the structural stats coincide.
        let corpus = Corpus::from_named_strs([(tag, xml.as_str())]).unwrap();
        Arc::new(Engine::build(&corpus, IndexOptions::default()).unwrap())
    }

    #[test]
    fn normalizer_collapses_slashes_case_and_trailers() {
        assert_eq!(normalize_path("/ix/dblp/search"), "/ix/dblp/search");
        assert_eq!(normalize_path("/ix/dblp//search"), "/ix/dblp/search");
        assert_eq!(normalize_path("/ix/DBLP/Search/"), "/ix/dblp/search");
        assert_eq!(normalize_path("//ix///dblp///search//"), "/ix/dblp/search");
        assert_eq!(normalize_path("/"), "/");
        assert_eq!(normalize_path(""), "/");
        assert_eq!(normalize_path("/debug/traces"), "/debug/traces");
    }

    #[test]
    fn routes_resolve_prefix_and_default() {
        let r = route_path("/ix/dblp/search");
        assert_eq!(r.endpoint, Endpoint::Search);
        assert_eq!(r.index.as_deref(), Some("dblp"));
        // Normalization variants are the same route.
        assert_eq!(route_path("/ix/DBLP//search/"), r);
        assert_eq!(route_path("/search"), Route { endpoint: Endpoint::Search, index: None });
        assert_eq!(
            route_path("/ix/nasa/debug/traces"),
            Route { endpoint: Endpoint::DebugTraces, index: Some("nasa".into()) }
        );
        assert_eq!(
            route_path("/ix/dblp/admin/compact"),
            Route { endpoint: Endpoint::AdminCompact, index: Some("dblp".into()) }
        );
        assert_eq!(route_path("/ix/dblp/nope").endpoint, Endpoint::Other);
        assert_eq!(route_path("/ix/dblp").endpoint, Endpoint::Other);
        assert_eq!(route_path("/ix//search").endpoint, Endpoint::Other);
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
        assert_ne!(
            catalog.get("alpha").unwrap().identity(),
            catalog.get("beta").unwrap().identity()
        );
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
        let old = resident.snapshot_all().unwrap();
        resident.cache().put("k".into(), Arc::from(&b"v"[..]));
        assert!(resident.cache().get("k").is_some());
        assert!(resident.reload().is_err(), "engine-backed indexes cannot reload");
        assert!(resident.maintain(None).is_err(), "engine-backed indexes cannot watch");
        assert!(resident.compact_now().is_err(), "engine-backed indexes cannot compact");
        assert_eq!(resident.freshness_seconds(), None, "freshness is manifest-only");

        let replacement = tiny_engine("two");
        let new_identity = index_identity(replacement.index());
        let (before, after) = resident.swap_engine(replacement, new_identity);
        assert_eq!(before, old.identity);
        assert_eq!(old.doc_maps, vec![DocMap::base(0)], "a set of one tiles from zero");
        assert_eq!(after, new_identity);
        assert_ne!(before, after);
        assert_eq!(resident.identity(), new_identity);
        assert_eq!(resident.counters().reloads_total.load(Ordering::Relaxed), 1);
        assert!(resident.cache().get("k").is_none(), "swap clears the old generation");
        // The pre-swap snapshot still works: old generation pinned.
        assert_eq!(old.identity, before);
        assert!(Arc::strong_count(&old.shards[0].engine) >= 1);
    }

    #[test]
    fn masked_identity_differs_from_plain() {
        let engine = tiny_engine("mask");
        let plain = slot_identity(&engine, None);
        assert_eq!(plain, index_identity(engine.index()), "no mask, raw identity");
        let masked = Engine::from_shared(engine.index_shared(), vec![0]);
        assert_ne!(slot_identity(&masked, None), plain, "tombstones change the identity");
        let mapped = DocMap::table(vec![3, 7]);
        assert_ne!(slot_identity(&engine, Some(&mapped)), plain, "a doc map changes it too");
        assert_eq!(
            slot_identity(&engine, Some(&DocMap::base(0))),
            plain,
            "a dense base map is the plain case"
        );
    }
}
