//! Sharded LRU cache for serialized query responses.
//!
//! Keys are the normalized request form `(endpoint, query, s, limit)` built
//! by the router; values are the exact JSON bytes previously sent, shared as
//! `Arc<[u8]>` so a hit never copies the body. Because the wire format is
//! deterministic (`gks_core::wire` excludes timings), a cached body is
//! byte-identical to recomputation — the property test in
//! `tests/cache_props.rs` enforces this end to end.
//!
//! Capacity is accounted in **bytes** (key + value + bookkeeping overhead),
//! split evenly across shards. Each shard is an intrusive doubly-linked LRU
//! list over a slot vector, so `get`/`put`/evict are O(1). The cache is tied
//! to an **identity** — the resident index passes its generation's epoch,
//! and every install takes a fresh one — at two levels: every entry is
//! tagged with the identity it was computed against, and a hit is returned
//! only when the tag matches the reader's identity
//! ([`ResultCache::get_for`]) — so a hot-swapped index can never serve stale
//! bytes even while old-generation requests are still in flight.
//! [`ResultCache::ensure_identity`] is the bulk complement: it drops every
//! entry when the resident identity changes, reclaiming memory that the
//! per-entry tags would otherwise only retire lazily through LRU pressure.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

/// Fixed per-entry bookkeeping charge added to `key.len() + value.len()`
/// when accounting capacity (map entry, slot, `Arc` header — an estimate,
/// deliberately conservative).
pub const ENTRY_OVERHEAD: usize = 96;

const NIL: usize = usize::MAX;

#[derive(Debug)]
struct Slot {
    key: String,
    value: Arc<[u8]>,
    /// Index identity the value was computed against; hits require an exact
    /// match with the reader's identity.
    identity: u64,
    charge: usize,
    prev: usize,
    next: usize,
}

#[derive(Debug, Default)]
struct Shard {
    map: HashMap<String, usize>,
    slots: Vec<Option<Slot>>,
    free: Vec<usize>,
    /// Most recently used slot index, or `NIL`.
    head: usize,
    /// Least recently used slot index, or `NIL`.
    tail: usize,
    bytes: usize,
    capacity: usize,
}

impl Shard {
    fn new(capacity: usize) -> Shard {
        Shard { head: NIL, tail: NIL, capacity, ..Shard::default() }
    }

    fn detach(&mut self, idx: usize) {
        let (prev, next) = match &self.slots[idx] {
            Some(s) => (s.prev, s.next),
            None => return,
        };
        match prev {
            NIL => self.head = next,
            p => {
                if let Some(Some(s)) = self.slots.get_mut(p) {
                    s.next = next;
                }
            }
        }
        match next {
            NIL => self.tail = prev,
            n => {
                if let Some(Some(s)) = self.slots.get_mut(n) {
                    s.prev = prev;
                }
            }
        }
    }

    fn push_front(&mut self, idx: usize) {
        let old_head = self.head;
        if let Some(Some(s)) = self.slots.get_mut(idx) {
            s.prev = NIL;
            s.next = old_head;
        }
        match old_head {
            NIL => self.tail = idx,
            h => {
                if let Some(Some(s)) = self.slots.get_mut(h) {
                    s.prev = idx;
                }
            }
        }
        self.head = idx;
    }

    fn get(&mut self, key: &str, identity: u64) -> Option<Arc<[u8]>> {
        let idx = *self.map.get(key)?;
        let slot = self.slots.get(idx).and_then(|s| s.as_ref())?;
        if slot.identity != identity {
            // An entry from a different engine generation. Leave it in place
            // — it may still be valid for readers on that generation — but
            // never serve it across generations.
            return None;
        }
        let value = Arc::clone(&slot.value);
        self.detach(idx);
        self.push_front(idx);
        Some(value)
    }

    fn remove_slot(&mut self, idx: usize) {
        self.detach(idx);
        if let Some(slot) = self.slots.get_mut(idx).and_then(Option::take) {
            self.bytes = self.bytes.saturating_sub(slot.charge);
            self.map.remove(&slot.key);
            self.free.push(idx);
        }
    }

    fn evict_to_capacity(&mut self) {
        while self.bytes > self.capacity && self.tail != NIL {
            let victim = self.tail;
            self.remove_slot(victim);
        }
    }

    fn put(&mut self, key: String, value: Arc<[u8]>, identity: u64) {
        let charge = key.len() + value.len() + ENTRY_OVERHEAD;
        if charge > self.capacity {
            return; // would evict the whole shard for one oversized entry
        }
        if let Some(&idx) = self.map.get(&key) {
            self.remove_slot(idx); // replace: simplest way to re-account bytes
        }
        let idx = match self.free.pop() {
            Some(i) => i,
            None => {
                self.slots.push(None);
                self.slots.len() - 1
            }
        };
        self.slots[idx] =
            Some(Slot { key: key.clone(), value, identity, charge, prev: NIL, next: NIL });
        self.map.insert(key, idx);
        self.push_front(idx);
        self.bytes += charge;
        self.evict_to_capacity();
    }

    fn clear(&mut self) {
        self.map.clear();
        self.slots.clear();
        self.free.clear();
        self.head = NIL;
        self.tail = NIL;
        self.bytes = 0;
    }

    /// Keys from most- to least-recently used (test/debug aid).
    #[cfg(test)]
    fn keys_mru_to_lru(&self) -> Vec<String> {
        let mut out = Vec::with_capacity(self.map.len());
        let mut cur = self.head;
        while cur != NIL {
            match self.slots.get(cur).and_then(|s| s.as_ref()) {
                Some(s) => {
                    out.push(s.key.clone());
                    cur = s.next;
                }
                None => break,
            }
        }
        out
    }
}

/// Point-in-time occupancy of the cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Live entries across all shards.
    pub entries: usize,
    /// Accounted bytes across all shards (keys + values + overhead).
    pub bytes: usize,
    /// Total capacity in bytes across all shards.
    pub capacity: usize,
}

/// A sharded, byte-capacity-bounded LRU cache of serialized responses.
#[derive(Debug)]
pub struct ResultCache {
    shards: Vec<Mutex<Shard>>,
    identity: AtomicU64,
    mask: u64,
}

fn lock_shard(m: &Mutex<Shard>) -> gks_trace::lockorder::Tracked<MutexGuard<'_, Shard>> {
    // A poisoned shard only means a panicking thread died mid-operation;
    // the shard data is a cache and safe to keep using (worst case: drop it).
    gks_trace::lockorder::track(
        "server/cache.shards",
        m.lock().unwrap_or_else(std::sync::PoisonError::into_inner),
    )
}

impl ResultCache {
    /// Creates a cache with `capacity_bytes` split over `shards` shards
    /// (rounded up to a power of two, minimum 1), bound to index `identity`.
    pub fn new(capacity_bytes: usize, shards: usize, identity: u64) -> ResultCache {
        let shard_count = shards.max(1).next_power_of_two();
        let per_shard = (capacity_bytes / shard_count).max(ENTRY_OVERHEAD * 4);
        ResultCache {
            shards: (0..shard_count).map(|_| Mutex::new(Shard::new(per_shard))).collect(),
            identity: AtomicU64::new(identity),
            mask: (shard_count as u64) - 1,
        }
    }

    fn shard_for(&self, key: &str) -> &Mutex<Shard> {
        let h = fnv1a(key.as_bytes());
        // Index comes from a masked hash, always in range.
        &self.shards[(h & self.mask) as usize]
    }

    /// Looks up `key` against the cache's current identity, refreshing its
    /// recency on a hit.
    pub fn get(&self, key: &str) -> Option<Arc<[u8]>> {
        self.get_for(key, self.identity())
    }

    /// Looks up `key` for a reader pinned to `identity` (the engine
    /// generation its request snapshot holds). Returns a hit only when the
    /// entry was computed against that same identity — the load-bearing
    /// guarantee that a hot-swap can never surface stale bytes.
    pub fn get_for(&self, key: &str, identity: u64) -> Option<Arc<[u8]>> {
        lock_shard(self.shard_for(key)).get(key, identity)
    }

    /// Inserts `key → value` tagged with the cache's current identity,
    /// evicting least-recently-used entries from the target shard until it
    /// fits. Values larger than one shard's capacity are silently not
    /// cached.
    pub fn put(&self, key: String, value: Arc<[u8]>) {
        self.put_for(key, value, self.identity());
    }

    /// Inserts `key → value` tagged with the writer's engine-generation
    /// `identity`. A late writer on a superseded generation only inserts an
    /// entry current readers will ignore (and LRU pressure will retire).
    pub fn put_for(&self, key: String, value: Arc<[u8]>, identity: u64) {
        lock_shard(self.shard_for(&key)).put(key, value, identity);
    }

    /// Drops every entry.
    pub fn clear(&self) {
        for shard in &self.shards {
            lock_shard(shard).clear();
        }
    }

    /// The index identity this cache is currently valid for.
    pub fn identity(&self) -> u64 {
        self.identity.load(Ordering::Acquire)
    }

    /// Re-binds the cache to `identity`, clearing everything if it differs
    /// from the identity the cached entries were computed against. Cheap
    /// when the identity is unchanged (one atomic load).
    pub fn ensure_identity(&self, identity: u64) {
        if self.identity.load(Ordering::Acquire) == identity {
            return;
        }
        self.identity.store(identity, Ordering::Release);
        self.clear();
    }

    /// Current occupancy.
    pub fn stats(&self) -> CacheStats {
        let mut stats = CacheStats { entries: 0, bytes: 0, capacity: 0 };
        for shard in &self.shards {
            let s = lock_shard(shard);
            stats.entries += s.map.len();
            stats.bytes += s.bytes;
            stats.capacity += s.capacity;
        }
        stats
    }

    /// Number of shards (always a power of two).
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }
}

/// FNV-1a over `bytes` — stable, dependency-free shard selector.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    fn single_shard(capacity: usize) -> ResultCache {
        ResultCache::new(capacity, 1, 1)
    }

    fn val(n: usize) -> Arc<[u8]> {
        vec![0u8; n].into()
    }

    fn charge(key: &str, n: usize) -> usize {
        key.len() + n + ENTRY_OVERHEAD
    }

    #[test]
    fn hit_miss_and_recency() {
        let c = single_shard(10_000);
        assert!(c.get("a").is_none());
        c.put("a".into(), val(10));
        c.put("b".into(), val(10));
        assert!(c.get("a").is_some());
        let shard = lock_shard(&c.shards[0]);
        assert_eq!(shard.keys_mru_to_lru(), vec!["a", "b"], "get must refresh recency");
    }

    #[test]
    fn evicts_in_lru_order() {
        // Capacity for exactly three 1-byte entries.
        let cap = 3 * charge("k1", 1);
        let c = single_shard(cap);
        c.put("k1".into(), val(1));
        c.put("k2".into(), val(1));
        c.put("k3".into(), val(1));
        // Touch k1 so k2 becomes the LRU.
        assert!(c.get("k1").is_some());
        c.put("k4".into(), val(1));
        assert!(c.get("k2").is_none(), "k2 was least recently used");
        assert!(c.get("k1").is_some());
        assert!(c.get("k3").is_some());
        assert!(c.get("k4").is_some());
        assert_eq!(c.stats().entries, 3);
    }

    #[test]
    fn capacity_accounting_is_exact() {
        let c = single_shard(100_000);
        c.put("alpha".into(), val(100));
        c.put("beta".into(), val(200));
        let expect = charge("alpha", 100) + charge("beta", 200);
        assert_eq!(c.stats().bytes, expect);
        // Replacement re-accounts instead of double-counting.
        c.put("alpha".into(), val(50));
        let expect = charge("alpha", 50) + charge("beta", 200);
        assert_eq!(c.stats().bytes, expect);
        assert_eq!(c.stats().entries, 2);
        c.clear();
        assert_eq!(c.stats().bytes, 0);
        assert_eq!(c.stats().entries, 0);
    }

    #[test]
    fn oversized_value_is_not_cached() {
        let c = single_shard(ENTRY_OVERHEAD * 4);
        c.put("big".into(), val(ENTRY_OVERHEAD * 8));
        assert!(c.get("big").is_none());
        assert_eq!(c.stats().entries, 0);
    }

    #[test]
    fn eviction_stops_at_capacity() {
        let cap = 5 * charge("k00", 10);
        let c = single_shard(cap);
        for i in 0..50 {
            c.put(format!("k{i:02}"), val(10));
            assert!(c.stats().bytes <= cap, "over capacity after insert {i}");
        }
        assert_eq!(c.stats().entries, 5);
        // The five newest survive.
        for i in 45..50 {
            assert!(c.get(&format!("k{i:02}")).is_some(), "k{i} should be resident");
        }
    }

    #[test]
    fn identity_change_invalidates() {
        let c = ResultCache::new(100_000, 4, 7);
        c.put("q".into(), val(10));
        c.ensure_identity(7);
        assert!(c.get("q").is_some(), "same identity keeps entries");
        c.ensure_identity(8);
        assert!(c.get("q").is_none(), "new identity must clear");
        assert_eq!(c.identity(), 8);
    }

    #[test]
    fn entries_are_pinned_to_their_identity() {
        let c = ResultCache::new(100_000, 1, 7);
        c.put_for("q".into(), val(10), 7);
        assert!(c.get_for("q", 7).is_some());
        assert!(c.get_for("q", 8).is_none(), "a new generation must never see old bytes");
        // The mismatched read leaves the entry alone: generation-7 readers
        // still in flight keep their hit.
        assert!(c.get_for("q", 7).is_some());
        // A late put from a superseded generation is invisible to readers on
        // the current one.
        c.put_for("late".into(), val(10), 6);
        assert!(c.get_for("late", 7).is_none());
        assert!(c.get_for("late", 6).is_some());
    }

    #[test]
    fn shards_round_up_to_power_of_two() {
        assert_eq!(ResultCache::new(1000, 3, 0).shard_count(), 4);
        assert_eq!(ResultCache::new(1000, 0, 0).shard_count(), 1);
        // Keys spread across shards.
        let c = ResultCache::new(1_000_000, 8, 0);
        for i in 0..256 {
            c.put(format!("key-{i}"), val(8));
        }
        let occupied = c.shards.iter().filter(|s| !lock_shard(s).map.is_empty()).count();
        assert!(occupied >= 4, "FNV should spread keys over shards, got {occupied}");
    }
}
