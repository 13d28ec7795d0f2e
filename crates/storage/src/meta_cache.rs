//! Shared footer/schema cache and the bounded chunk-data cache.
//!
//! Opening a Pixels file costs ranged GETs (magic check plus the speculative
//! tail read, see [`crate::reader::PixelsReader::open`]). Under morsel-driven
//! execution and across queries the same object is opened many times, so the
//! parsed footer is cached here keyed by path and validated by object size
//! *and* write generation — the generation plays the role of an HTTP etag,
//! catching the case where a rewritten object happens to keep its old size.
//! A cache hit transfers zero bytes from the store. Neither a hit nor a miss
//! changes a bill: footer bytes are store traffic, never billed.
//!
//! [`ChunkCache`] extends the same idea to column chunks: a bounded byte
//! budget with admission control and LRU-style eviction over parsed chunks.
//! An entry is an [`EncodedChunk`] — payload, parsed validity, and the memo
//! that holds its checked dictionary or its RLE runs once a query has parsed
//! them — so a warm scan re-parses nothing, and the budget counts the memo's
//! bytes as it fills. Like the footer cache, chunk-cache hits do **not**
//! change what the user is billed — `bytes_scanned` is computed from chunk
//! metadata per morsel, so a scan bills the same whether its chunk came from
//! the store, the cache, or the cache with its memo filled. Both caches buy
//! latency and decode work, never a discount.

use parking_lot::RwLock;
use pixels_common::SchemaRef;
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Weak};

use crate::encoded::EncodedChunk;
use crate::encoding::Encoding;
use crate::format::Footer;

/// Everything `PixelsReader::open` learns about a file.
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
    chunk: EncodedChunk,
    /// What this entry counts against the budget: the chunk's
    /// [`EncodedChunk::resident_bytes`] when last measured.
    bytes: u64,
    /// Logical timestamp of the last hit or insert; this entry's key in
    /// [`ChunkCacheInner::lru`].
    last_used: u64,
}

#[derive(Debug, Default)]
struct ChunkCacheInner {
    capacity_bytes: u64,
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
    evictions: u64,
}

impl ChunkCacheInner {
    /// Remove one chunk's entry and its share of the byte budget; the
    /// caller has already taken it out of `lru`.
    fn remove_entry(&mut self, path: &str, slot: ChunkSlot) {
        let Some(chunks) = self.files.get_mut(path) else {
            return;
        };
        if let Some(e) = chunks.remove(&slot) {
            self.resident_bytes -= e.bytes;
        }
        if chunks.is_empty() {
            self.files.remove(path);
        }
    }

    /// Evict least-recently-used entries until the budget holds.
    fn evict_to_fit(&mut self) {
        while self.resident_bytes > self.capacity_bytes {
            let Some((_, (path, slot))) = self.lru.pop_first() else {
                break;
            };
            self.remove_entry(&path, slot);
            self.evictions += 1;
        }
    }

    /// Count what `chunk`, cached at `slot` of `path`, holds now that its
    /// memo has grown, and restore the budget: the entry leaves if it alone
    /// is now past the admission limit, else older entries make room.
    fn remeasure(&mut self, path: &str, slot: ChunkSlot, chunk: &EncodedChunk) {
        let entry = self
            .files
            .get_mut(path)
            .and_then(|chunks| chunks.get_mut(&slot));
        // Evicted, or replaced by a newer fetch, since `chunk` was cached.
        let Some(entry) = entry.filter(|e| e.chunk.same(chunk)) else {
            return;
        };
        let bytes = chunk.resident_bytes();
        let (old, tick) = (std::mem::replace(&mut entry.bytes, bytes), entry.last_used);
        self.resident_bytes = self.resident_bytes - old + bytes;
        if bytes > self.capacity_bytes / 4 {
            self.lru.remove(&tick);
            self.remove_entry(path, slot);
            self.evictions += 1;
        }
        self.evict_to_fit();
    }
}

/// The cache entry a chunk was admitted as, kept with the chunk: when its
/// memo fills a slot, the entry is measured again, so what the memo holds
/// counts against the budget of the cache that holds it. Refers to
/// the cache weakly: a chunk outliving its cache changes nothing.
#[derive(Debug)]
pub(crate) struct CachedAt {
    cache: Weak<RwLock<ChunkCacheInner>>,
    path: Arc<str>,
    slot: ChunkSlot,
}

impl CachedAt {
    pub(crate) fn remeasure(&self, chunk: &EncodedChunk) {
        if let Some(cache) = self.cache.upgrade() {
            cache.write().remeasure(&self.path, self.slot, chunk);
        }
    }
}

/// A bounded cache of parsed column chunks ([`EncodedChunk`]): each entry
/// is a chunk's payload, its parsed validity, and its memo — the checked
/// dictionary of a dictionary chunk, the runs of an RLE chunk — which the
/// first query to need it fills and every later query borrows.
///
/// Policy:
/// - **Budget**: an entry costs its fetched bytes plus what its validity and
///   memo hold ([`EncodedChunk::resident_bytes`]); a memo that fills is
///   counted at once, and [`ChunkCache::resident_bytes`] never exceeds the
///   capacity.
/// - **Admission**: an entry larger than 1/4 of the capacity is never
///   admitted — one giant chunk must not wipe the whole cache — and one
///   whose memo grows past that leaves.
/// - **Eviction**: least-recently-used entries are evicted until the new
///   entry (or the grown one) fits. "Recently used" is a logical tick bumped
///   on every hit and insert; victims come off the front of a tick-ordered
///   index.
///
/// Billing: the cache sits *below* the billing layer. `bytes_scanned` is
/// computed from chunk metadata, not from store counters, so hits — memo
/// included — change only latency and the store's own
/// `get_requests`/`bytes_read` telemetry.
#[derive(Debug)]
pub struct ChunkCache {
    inner: Arc<RwLock<ChunkCacheInner>>,
    hits: AtomicU64,
    misses: AtomicU64,
    dictionary_memo_hits: AtomicU64,
    rle_memo_hits: AtomicU64,
}

impl ChunkCache {
    pub fn new(capacity_bytes: u64) -> ChunkCache {
        ChunkCache {
            inner: Arc::new(RwLock::new(ChunkCacheInner {
                capacity_bytes,
                ..ChunkCacheInner::default()
            })),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            dictionary_memo_hits: AtomicU64::new(0),
            rle_memo_hits: AtomicU64::new(0),
        }
    }

    /// Convenience constructor returning a shared handle.
    pub fn shared(capacity_bytes: u64) -> Arc<ChunkCache> {
        Arc::new(ChunkCache::new(capacity_bytes))
    }

    pub fn capacity_bytes(&self) -> u64 {
        self.inner.read().capacity_bytes
    }

    /// The cached chunk at `offset` of `path`'s generation `generation`, if
    /// resident. A hit on a chunk whose memo is filled is also a memo hit.
    pub fn lookup(&self, path: &str, generation: u64, offset: u64) -> Option<EncodedChunk> {
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
        if entry.chunk.memo_filled() {
            match entry.chunk.encoding() {
                Encoding::Dictionary => &self.dictionary_memo_hits,
                _ => &self.rle_memo_hits,
            }
            .fetch_add(1, Ordering::Relaxed);
        }
        Some(entry.chunk.clone())
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

    /// Offer a parsed chunk to the cache. Returns `true` if admitted. A
    /// chunk is admitted to one cache entry at most: offering one that a
    /// cache holds already returns `false`.
    pub fn insert(&self, path: &str, generation: u64, offset: u64, chunk: EncodedChunk) -> bool {
        let mut guard = self.inner.write();
        let inner = &mut *guard;
        if chunk.resident_bytes() > inner.capacity_bytes / 4 {
            return false;
        }
        let slot = (generation, offset);
        // One shared path allocation per file, however many chunks it has.
        let path: Arc<str> = match inner.files.get_key_value(path) {
            Some((shared, _)) => shared.clone(),
            None => Arc::from(path),
        };
        let at = CachedAt {
            cache: Arc::downgrade(&self.inner),
            path: path.clone(),
            slot,
        };
        if !chunk.cache_at(at) {
            return false;
        }
        inner.tick += 1;
        let tick = inner.tick;
        let replaced = inner
            .files
            .get(&path)
            .and_then(|chunks| chunks.get(&slot))
            .map(|old| old.last_used);
        if let Some(old_tick) = replaced {
            inner.lru.remove(&old_tick);
            inner.remove_entry(&path, slot);
        }
        // Measured only now that the chunk knows its entry: a memo slot
        // filled from here on re-measures it under this same lock.
        let bytes = chunk.resident_bytes();
        inner.resident_bytes += bytes;
        inner.lru.insert(tick, (path.clone(), slot));
        inner.files.entry(path).or_default().insert(
            slot,
            ChunkEntry {
                chunk,
                bytes,
                last_used: tick,
            },
        );
        // The new entry is the most recently used: older ones make room.
        inner.evict_to_fit();
        true
    }

    /// Drop every cached chunk of `path` (any generation), memo included.
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
            inner.resident_bytes -= entry.bytes;
        }
    }

    /// Bytes the resident entries hold, memos included.
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
        self.inner.read().evictions
    }

    /// Hits on a chunk of `encoding` whose memo was already filled: the
    /// dictionary or the runs a query borrowed instead of parsing. Always 0
    /// for plain chunks.
    pub fn memo_hits(&self, encoding: Encoding) -> u64 {
        match encoding {
            Encoding::Plain => 0,
            Encoding::Dictionary => self.dictionary_memo_hits.load(Ordering::Relaxed),
            Encoding::Rle => self.rle_memo_hits.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::Writer;
    use crate::encoding;
    use bytes::Bytes;
    use pixels_common::{ColumnData, DataType, Schema};

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

    /// A chunk of `n` bytes as fetched with nothing to memoize: a header
    /// byte (no validity) and `n - 1` plain payload bytes.
    fn chunk(n: usize) -> EncodedChunk {
        EncodedChunk::parse(
            Bytes::from(vec![0u8; n]),
            DataType::Int64,
            Encoding::Plain,
            0,
        )
        .unwrap()
    }

    /// An RLE chunk of 50 two-row runs of 64-bit integers: 601 bytes as
    /// fetched, and 600 more once its runs are parsed (a 4-byte count and
    /// an 8-byte value per run).
    fn rle_chunk() -> EncodedChunk {
        let mut w = Writer::new();
        w.put_u8(0);
        let data = ColumnData::Int64((0..100).map(|i| i / 2).collect());
        encoding::encode(&data, Encoding::Rle, &mut w).unwrap();
        let chunk = EncodedChunk::parse(
            Bytes::from(w.into_bytes()),
            DataType::Int64,
            Encoding::Rle,
            100,
        )
        .unwrap();
        assert_eq!(chunk.resident_bytes(), 601);
        chunk
    }

    #[test]
    fn chunk_cache_hit_miss_and_counters() {
        let cache = ChunkCache::new(1024);
        assert!(cache.lookup("f", 1, 0).is_none());
        assert!(cache.insert("f", 1, 0, chunk(100)));
        assert_eq!(cache.lookup("f", 1, 0).unwrap().resident_bytes(), 100);
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

    /// A memo that fills counts against the budget at once, and older
    /// entries make room in LRU order: the chunk just read stays.
    #[test]
    fn memo_bytes_count_against_the_budget_and_evict_lru() {
        let cache = ChunkCache::new(6000);
        assert!(cache.insert("f", 1, 0, chunk(1000)));
        assert!(cache.insert("f", 1, 1, chunk(1000)));
        assert!(cache.insert("f", 1, 2, rle_chunk()));
        for offset in 3..6 {
            assert!(cache.insert("f", 1, offset, chunk(1000)));
        }
        assert_eq!((cache.resident_bytes(), cache.evictions()), (5601, 0));
        let runs = cache.lookup("f", 1, 2).unwrap();
        assert!(!runs.memo_filled());
        assert_eq!(runs.rle_runs().unwrap().counts.len(), 50);
        // 5601 + 600 > 6000: the oldest entry, offset 0, made room.
        assert_eq!(
            (cache.resident_bytes(), cache.evictions()),
            (5601 - 1000 + 600, 1)
        );
        assert!(!cache.contains_all("f", 1, 0..1));
        assert!(cache.contains_all("f", 1, 1..6));
        // Reading the memo again fills nothing and moves no byte.
        runs.rle_runs().unwrap();
        assert_eq!(cache.resident_bytes(), 5201);
        // The next query borrows the runs: a memo hit.
        let again = cache.lookup("f", 1, 2).unwrap();
        assert!(again.memo_filled());
        assert_eq!(cache.memo_hits(Encoding::Rle), 1);
        assert_eq!(cache.memo_hits(Encoding::Dictionary), 0);
    }

    /// An entry whose memo grows past the admission limit leaves the cache;
    /// the reader that filled it keeps its memo for as long as it holds it.
    #[test]
    fn memo_past_the_admission_limit_leaves() {
        let cache = ChunkCache::new(4000);
        assert!(cache.insert("f", 1, 0, chunk(500)));
        assert!(cache.insert("f", 1, 1, rle_chunk()));
        let held = cache.lookup("f", 1, 1).unwrap();
        held.rle_runs().unwrap();
        assert_eq!((cache.resident_bytes(), cache.evictions()), (500, 1));
        assert!(cache.lookup("f", 1, 1).is_none());
        assert!(held.memo_filled());
        // Too large to be admitted again.
        let refetched = rle_chunk();
        refetched.rle_runs().unwrap();
        assert!(!cache.insert("f", 1, 1, refetched));
    }

    /// A failed parse fills no memo and charges no byte, and a chunk is
    /// admitted to one entry at most.
    #[test]
    fn failed_memo_build_charges_nothing() {
        let cache = ChunkCache::new(1 << 20);
        let mut w = Writer::new();
        w.put_u8(0);
        w.put_u32(5); // a run of 5 rows of a 3-row chunk
        w.put_i64(1);
        let corrupt = EncodedChunk::parse(
            Bytes::from(w.into_bytes()),
            DataType::Int64,
            Encoding::Rle,
            3,
        )
        .unwrap();
        assert!(cache.insert("f", 1, 0, corrupt.clone()));
        let before = cache.resident_bytes();
        for _ in 0..2 {
            assert!(cache.lookup("f", 1, 0).unwrap().rle_runs().is_err());
        }
        assert_eq!(cache.resident_bytes(), before);
        assert!(!corrupt.memo_filled());
        assert_eq!(cache.memo_hits(Encoding::Rle), 0);
        assert!(!cache.insert("g", 1, 0, corrupt), "already cached");
    }

    /// Invalidating a path drops its memos with its chunks; a memo filled
    /// afterwards, by a reader still holding a dropped chunk, is not charged.
    #[test]
    fn invalidate_path_drops_memos() {
        let cache = ChunkCache::new(1 << 20);
        assert!(cache.insert("f", 1, 0, rle_chunk()));
        assert!(cache.insert("f", 1, 1, rle_chunk()));
        cache.lookup("f", 1, 0).unwrap().rle_runs().unwrap();
        let held = cache.lookup("f", 1, 1).unwrap();
        assert_eq!(cache.resident_bytes(), 601 + 600 + 601);
        cache.invalidate_path("f");
        assert_eq!(cache.resident_bytes(), 0);
        held.rle_runs().unwrap();
        assert_eq!((cache.resident_bytes(), cache.len()), (0, 0));
        assert!(cache.lookup("f", 1, 0).is_none());
    }

    /// A rewritten object has a new generation, so its chunks are new
    /// entries with empty memos, whatever the old generation's held.
    #[test]
    fn new_generation_never_sees_the_old_memo() {
        let cache = ChunkCache::new(1 << 20);
        assert!(cache.insert("f", 1, 0, rle_chunk()));
        cache.lookup("f", 1, 0).unwrap().rle_runs().unwrap();
        assert!(cache.lookup("f", 2, 0).is_none());
        assert!(cache.insert("f", 2, 0, rle_chunk()));
        assert!(!cache.lookup("f", 2, 0).unwrap().memo_filled());
        assert!(cache.lookup("f", 1, 0).unwrap().memo_filled());
        assert_eq!(cache.memo_hits(Encoding::Rle), 1);
    }

    /// Whatever mix of inserts, hits and memo fills, the resident bytes
    /// never exceed the capacity and always equal the entries' own sizes.
    #[test]
    fn resident_bytes_never_exceed_capacity() {
        let cache = ChunkCache::new(5000);
        let mut held = Vec::new();
        for step in 0..200u64 {
            let offset = (step * 7) % 13;
            match step % 4 {
                0 => {
                    cache.insert("f", 1, offset, rle_chunk());
                }
                1 => {
                    cache.insert("f", 1, offset, chunk(300 + (step as usize * 37) % 900));
                }
                2 => {
                    if let Some(c) = cache.lookup("f", 1, offset) {
                        held.push(c);
                    }
                }
                _ => {
                    if let Some(c) = held.pop() {
                        let _ = c.rle_runs();
                    }
                }
            }
            let inner = cache.inner.read();
            let sum: u64 = (inner.files.values())
                .flat_map(HashMap::values)
                .map(|e| e.chunk.resident_bytes())
                .sum();
            assert!(inner.resident_bytes <= 5000, "step {step}");
            assert_eq!(inner.resident_bytes, sum, "step {step}");
        }
        assert!(cache.evictions() > 0);
    }
}
