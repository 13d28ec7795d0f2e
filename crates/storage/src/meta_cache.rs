//! Shared footer/schema cache and the bounded chunk-data cache.
//!
//! Opening a Pixels file costs ranged GETs (magic check plus the speculative
//! tail read, see [`crate::reader::PixelsReader::open`]). Under morsel-driven
//! execution and across queries the same object is opened many times, so the
//! parsed footer is cached here keyed by path and validated by object size
//! *and* write generation — the generation plays the role of an HTTP etag,
//! catching the case where a rewritten object happens to keep its old size.
//! A cache hit transfers zero bytes from the store, and the billing
//! consequence is deliberate: footer bytes are metered only on the first
//! fetch, never again on a hit.
//!
//! [`ChunkCache`] extends the same idea to column-chunk payloads: a bounded
//! byte budget with admission control and LRU-style eviction. Unlike the
//! footer cache, chunk-cache hits do **not** change what the user is billed —
//! `bytes_scanned` is computed from chunk metadata per morsel, so a scan
//! bills the same whether its chunk bytes came from the store or the cache.
//! The cache buys latency and decode work, never a discount.

use bytes::Bytes;
use parking_lot::RwLock;
use pixels_common::SchemaRef;
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::format::Footer;

/// Everything `PixelsReader::open` learns about a file, plus what it cost to
/// learn it.
#[derive(Debug)]
pub struct FileMeta {
    pub footer: Arc<Footer>,
    pub schema: SchemaRef,
    /// Object size when the footer was fetched; entries whose size no longer
    /// matches the live object are stale and evicted on lookup.
    pub size: u64,
    /// Object write generation when the footer was fetched. Validated on
    /// lookup alongside `size`, so a same-size rewrite cannot serve a stale
    /// footer. Stores without generation tracking report 0 everywhere,
    /// degrading to the old size-only validation.
    pub generation: u64,
    /// Bytes transferred from the store to open the file (magic + tail +
    /// any footer spill). Billed once, on the fetch that populated the cache.
    pub open_bytes: u64,
}

/// Concurrent footer cache, shared via `Arc` between execution contexts and
/// worker threads.
#[derive(Debug, Default)]
pub struct FooterCache {
    entries: RwLock<HashMap<String, Arc<FileMeta>>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl FooterCache {
    pub fn new() -> FooterCache {
        FooterCache::default()
    }

    /// Convenience constructor returning a shared handle.
    pub fn shared() -> Arc<FooterCache> {
        Arc::new(FooterCache::new())
    }

    /// Cached metadata for `path`, provided the live object still has `size`
    /// bytes and write generation `generation`. A mismatch on either means
    /// the object was replaced: the stale entry is evicted and the lookup
    /// counts as a miss.
    pub fn lookup(&self, path: &str, size: u64, generation: u64) -> Option<Arc<FileMeta>> {
        let cached = self.entries.read().get(path).cloned();
        match cached {
            Some(meta) if meta.size == size && meta.generation == generation => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(meta)
            }
            Some(_) => {
                self.entries.write().remove(path);
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    pub fn insert(&self, path: &str, meta: Arc<FileMeta>) {
        self.entries.write().insert(path.to_string(), meta);
    }

    /// Drop the entry for `path` (e.g. after deleting the object).
    pub fn invalidate(&self, path: &str) {
        self.entries.write().remove(path);
    }

    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    pub fn len(&self) -> usize {
        self.entries.read().len()
    }

    pub fn is_empty(&self) -> bool {
        self.entries.read().is_empty()
    }
}

/// Where one cached chunk lives within its file: `(write generation, chunk
/// offset)`. The generation is part of the key, so a rewritten object's
/// chunks can never be confused with the original's even at identical
/// offsets.
type ChunkSlot = (u64, u64);

#[derive(Debug)]
struct ChunkEntry {
    data: Bytes,
    /// Logical timestamp of the last hit or insert; this entry's key in
    /// [`ChunkCacheInner::lru`].
    last_used: u64,
}

#[derive(Debug, Default)]
struct ChunkCacheInner {
    /// path → slot → entry. Two levels so a probe borrows the caller's
    /// `&str` instead of building an owned key, and invalidating a path is
    /// one removal. A path with no resident chunk has no entry here.
    files: HashMap<Arc<str>, HashMap<ChunkSlot, ChunkEntry>>,
    /// `last_used` tick → key, oldest first: the eviction order. Ticks are
    /// unique (one per lookup or insert), so this holds exactly one entry
    /// per cached chunk.
    lru: BTreeMap<u64, (Arc<str>, ChunkSlot)>,
    resident_bytes: u64,
    tick: u64,
}

impl ChunkCacheInner {
    /// Remove one chunk's entry and its share of the byte budget; the
    /// caller has already taken it out of `lru`.
    fn remove_entry(&mut self, path: &str, slot: ChunkSlot) {
        let Some(chunks) = self.files.get_mut(path) else {
            return;
        };
        if let Some(e) = chunks.remove(&slot) {
            self.resident_bytes -= e.data.len() as u64;
        }
        if chunks.is_empty() {
            self.files.remove(path);
        }
    }
}

/// A bounded cache of raw (still-encoded) column-chunk bytes.
///
/// Policy:
/// - **Admission**: an entry larger than 1/4 of the capacity is never
///   admitted — one giant chunk must not wipe the whole cache.
/// - **Eviction**: least-recently-used entries are evicted until the new
///   entry fits. "Recently used" is a logical tick bumped on every hit and
///   insert; victims come off the front of a tick-ordered index.
///
/// Billing: the cache sits *below* the billing layer. `bytes_scanned` is
/// computed from chunk metadata, not from store counters, so hits change
/// only latency and the store's own `get_requests`/`bytes_read` telemetry.
#[derive(Debug)]
pub struct ChunkCache {
    inner: RwLock<ChunkCacheInner>,
    capacity_bytes: u64,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

impl ChunkCache {
    pub fn new(capacity_bytes: u64) -> ChunkCache {
        ChunkCache {
            inner: RwLock::new(ChunkCacheInner::default()),
            capacity_bytes,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// Convenience constructor returning a shared handle.
    pub fn shared(capacity_bytes: u64) -> Arc<ChunkCache> {
        Arc::new(ChunkCache::new(capacity_bytes))
    }

    pub fn capacity_bytes(&self) -> u64 {
        self.capacity_bytes
    }

    /// Cached payload for the chunk at `offset` of `path`'s generation
    /// `generation`, if resident.
    pub fn lookup(&self, path: &str, generation: u64, offset: u64) -> Option<Bytes> {
        let mut guard = self.inner.write();
        let inner = &mut *guard;
        inner.tick += 1;
        let tick = inner.tick;
        let entry = inner
            .files
            .get_mut(path)
            .and_then(|chunks| chunks.get_mut(&(generation, offset)));
        let Some(entry) = entry else {
            self.misses.fetch_add(1, Ordering::Relaxed);
            return None;
        };
        let key = inner
            .lru
            .remove(&entry.last_used)
            .expect("every cached chunk is indexed by its tick");
        inner.lru.insert(tick, key);
        entry.last_used = tick;
        self.hits.fetch_add(1, Ordering::Relaxed);
        Some(entry.data.clone())
    }

    /// Whether every chunk of `path`'s generation `generation` at `offsets`
    /// is resident. A planning probe, not an access: it takes the shared
    /// lock, leaves the LRU order alone and counts neither hits nor misses.
    pub fn contains_all(
        &self,
        path: &str,
        generation: u64,
        mut offsets: impl Iterator<Item = u64>,
    ) -> bool {
        let inner = self.inner.read();
        match inner.files.get(path) {
            Some(chunks) => offsets.all(|offset| chunks.contains_key(&(generation, offset))),
            None => offsets.next().is_none(),
        }
    }

    /// Offer a chunk payload to the cache. Returns `true` if admitted.
    pub fn insert(&self, path: &str, generation: u64, offset: u64, data: Bytes) -> bool {
        let len = data.len() as u64;
        if len > self.capacity_bytes / 4 {
            return false;
        }
        let slot = (generation, offset);
        let mut guard = self.inner.write();
        let inner = &mut *guard;
        inner.tick += 1;
        let tick = inner.tick;
        let replaced = inner
            .files
            .get(path)
            .and_then(|chunks| chunks.get(&slot))
            .map(|old| old.last_used);
        if let Some(old_tick) = replaced {
            inner.lru.remove(&old_tick);
            inner.remove_entry(path, slot);
        }
        while inner.resident_bytes + len > self.capacity_bytes {
            let Some((_, (victim_path, victim_slot))) = inner.lru.pop_first() else {
                break;
            };
            inner.remove_entry(&victim_path, victim_slot);
            self.evictions.fetch_add(1, Ordering::Relaxed);
        }
        // One shared path allocation per file, however many chunks it has.
        let path: Arc<str> = match inner.files.get_key_value(path) {
            Some((shared, _)) => shared.clone(),
            None => Arc::from(path),
        };
        inner.resident_bytes += len;
        inner.lru.insert(tick, (path.clone(), slot));
        inner.files.entry(path).or_default().insert(
            slot,
            ChunkEntry {
                data,
                last_used: tick,
            },
        );
        true
    }

    /// Drop every cached chunk of `path` (any generation).
    pub fn invalidate_path(&self, path: &str) {
        let mut guard = self.inner.write();
        let inner = &mut *guard;
        for entry in inner
            .files
            .remove(path)
            .into_iter()
            .flat_map(HashMap::into_values)
        {
            inner.lru.remove(&entry.last_used);
            inner.resident_bytes -= entry.data.len() as u64;
        }
    }

    pub fn resident_bytes(&self) -> u64 {
        self.inner.read().resident_bytes
    }

    pub fn len(&self) -> usize {
        self.inner.read().lru.len()
    }

    pub fn is_empty(&self) -> bool {
        self.inner.read().lru.is_empty()
    }

    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    pub fn evictions(&self) -> u64 {
        self.evictions.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pixels_common::Schema;

    fn meta(size: u64, generation: u64) -> Arc<FileMeta> {
        Arc::new(FileMeta {
            footer: Arc::new(Footer {
                version: 1,
                schema: Schema::empty(),
                row_groups: vec![],
            }),
            schema: Arc::new(Schema::empty()),
            size,
            generation,
            open_bytes: 42,
        })
    }

    #[test]
    fn hit_miss_and_size_validation() {
        let cache = FooterCache::new();
        assert!(cache.lookup("a", 10, 1).is_none());
        cache.insert("a", meta(10, 1));
        assert!(cache.lookup("a", 10, 1).is_some());
        // Size change evicts the stale entry.
        assert!(cache.lookup("a", 11, 1).is_none());
        assert!(cache.is_empty());
        assert_eq!(cache.hits(), 1);
        assert_eq!(cache.misses(), 2);
    }

    #[test]
    fn generation_change_evicts_same_size_entry() {
        // A rewritten object of identical size must not serve a stale footer.
        let cache = FooterCache::new();
        cache.insert("a", meta(10, 1));
        assert!(cache.lookup("a", 10, 1).is_some());
        assert!(cache.lookup("a", 10, 2).is_none());
        assert!(cache.is_empty());
    }

    #[test]
    fn invalidate_removes_entry() {
        let cache = FooterCache::new();
        cache.insert("a", meta(10, 1));
        assert_eq!(cache.len(), 1);
        cache.invalidate("a");
        assert!(cache.lookup("a", 10, 1).is_none());
    }

    fn chunk(n: usize) -> Bytes {
        Bytes::from(vec![0xABu8; n])
    }

    #[test]
    fn chunk_cache_hit_miss_and_counters() {
        let cache = ChunkCache::new(1024);
        assert!(cache.lookup("f", 1, 0).is_none());
        assert!(cache.insert("f", 1, 0, chunk(100)));
        assert_eq!(cache.lookup("f", 1, 0).unwrap().len(), 100);
        // Different generation at the same offset is a distinct entry.
        assert!(cache.lookup("f", 2, 0).is_none());
        assert_eq!(cache.hits(), 1);
        assert_eq!(cache.misses(), 2);
        assert_eq!(cache.resident_bytes(), 100);
    }

    #[test]
    fn chunk_cache_admission_rejects_oversized() {
        let cache = ChunkCache::new(1024);
        // > capacity/4 is never admitted.
        assert!(!cache.insert("f", 1, 0, chunk(512)));
        assert!(cache.is_empty());
        assert!(cache.insert("f", 1, 0, chunk(256)));
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn chunk_cache_evicts_lru_within_budget() {
        let cache = ChunkCache::new(1000);
        assert!(cache.insert("f", 1, 0, chunk(250)));
        assert!(cache.insert("f", 1, 1, chunk(250)));
        assert!(cache.insert("f", 1, 2, chunk(250)));
        assert!(cache.insert("f", 1, 3, chunk(250)));
        // Touch offset 0 so offset 1 becomes the LRU victim.
        assert!(cache.lookup("f", 1, 0).is_some());
        assert!(cache.insert("f", 1, 4, chunk(250)));
        assert!(cache.lookup("f", 1, 1).is_none(), "LRU entry survived");
        assert!(cache.lookup("f", 1, 0).is_some());
        assert_eq!(cache.evictions(), 1);
        assert!(cache.resident_bytes() <= 1000);
    }

    #[test]
    fn chunk_cache_evicts_oldest_first_across_files() {
        // Victims leave in tick order whichever file they belong to, a
        // touched entry moves to the back, and a file whose last chunk left
        // is forgotten entirely.
        let cache = ChunkCache::new(1000);
        for (i, path) in ["a", "b", "a", "c"].into_iter().enumerate() {
            assert!(cache.insert(path, 1, i as u64, chunk(250)));
        }
        assert!(cache.lookup("a", 1, 0).is_some()); // order is now b, a@2, c, a@0
        assert!(cache.insert("d", 1, 0, chunk(250)));
        assert!(cache.insert("d", 1, 1, chunk(250)));
        assert_eq!(cache.evictions(), 2);
        assert!(!cache.contains_all("b", 1, [1].into_iter()));
        assert!(!cache.contains_all("a", 1, [2].into_iter()));
        assert!(cache.contains_all("a", 1, [0].into_iter()));
        assert!(cache.contains_all("c", 1, [3].into_iter()));
        assert_eq!(cache.len(), 4);
        assert_eq!(cache.resident_bytes(), 1000);
        assert_eq!(cache.inner.read().files.len(), 3, "`b` is forgotten");
    }

    #[test]
    fn chunk_cache_probe_is_not_an_access() {
        let cache = ChunkCache::new(1000);
        for offset in 0..4 {
            assert!(cache.insert("f", 1, offset, chunk(250)));
        }
        assert!(cache.contains_all("f", 1, 0..4));
        assert!(!cache.contains_all("f", 1, 0..5));
        assert!(!cache.contains_all("f", 2, 0..1), "other generation");
        assert!(!cache.contains_all("g", 1, 0..1), "unknown path");
        assert!(cache.contains_all("g", 1, 0..0), "nothing asked for");
        assert_eq!((cache.hits(), cache.misses()), (0, 0));
        // Probing offset 0 did not refresh it: it is still the LRU victim.
        assert!(cache.insert("f", 1, 9, chunk(250)));
        assert!(!cache.contains_all("f", 1, 0..1));
    }

    #[test]
    fn chunk_cache_reinsert_replaces_without_double_count() {
        let cache = ChunkCache::new(1000);
        assert!(cache.insert("f", 1, 0, chunk(200)));
        assert!(cache.insert("f", 1, 0, chunk(100)));
        assert_eq!(cache.resident_bytes(), 100);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn chunk_cache_invalidate_path() {
        let cache = ChunkCache::new(1000);
        assert!(cache.insert("f", 1, 0, chunk(100)));
        assert!(cache.insert("g", 1, 0, chunk(100)));
        cache.invalidate_path("f");
        assert!(cache.lookup("f", 1, 0).is_none());
        assert!(cache.lookup("g", 1, 0).is_some());
        assert_eq!(cache.resident_bytes(), 100);
    }
}
