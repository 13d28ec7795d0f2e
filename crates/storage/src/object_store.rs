//! Cloud object storage abstraction and the in-memory store used in tests,
//! examples, and experiments.
//!
//! PixelsDB stores base tables and CF-produced intermediate results in object
//! storage (the paper uses AWS S3). The trait below captures the operations
//! the engine needs — whole-object and ranged GETs matter because the reader
//! fetches only the footer plus the projected column chunks, which is what
//! makes the $/TB-*scanned* price model meaningful.

use bytes::Bytes;
use parking_lot::RwLock;
use pixels_common::{Error, Result};
use pixels_obs::MetricsRegistry;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Counters every store keeps. All counters are cumulative.
#[derive(Debug, Default)]
pub struct StoreMetrics {
    pub get_requests: AtomicU64,
    pub put_requests: AtomicU64,
    pub bytes_read: AtomicU64,
    pub bytes_written: AtomicU64,
    /// GETs that failed or were aborted. Failed GETs transfer nothing the
    /// engine can scan, so they are *never* added to `bytes_read` — the
    /// billed-bytes totals count only successful reads.
    pub gets_failed: AtomicU64,
    /// GET attempts repeated after a transient failure (retry wrappers).
    pub retries: AtomicU64,
}

/// A point-in-time copy of [`StoreMetrics`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StoreMetricsSnapshot {
    pub get_requests: u64,
    pub put_requests: u64,
    pub bytes_read: u64,
    pub bytes_written: u64,
    pub gets_failed: u64,
    pub retries: u64,
}

impl StoreMetrics {
    pub fn snapshot(&self) -> StoreMetricsSnapshot {
        StoreMetricsSnapshot {
            get_requests: self.get_requests.load(Ordering::Relaxed),
            put_requests: self.put_requests.load(Ordering::Relaxed),
            bytes_read: self.bytes_read.load(Ordering::Relaxed),
            bytes_written: self.bytes_written.load(Ordering::Relaxed),
            gets_failed: self.gets_failed.load(Ordering::Relaxed),
            retries: self.retries.load(Ordering::Relaxed),
        }
    }
}

impl StoreMetricsSnapshot {
    /// Metrics accumulated since an earlier snapshot.
    pub fn delta_since(&self, earlier: &StoreMetricsSnapshot) -> StoreMetricsSnapshot {
        StoreMetricsSnapshot {
            get_requests: self.get_requests - earlier.get_requests,
            put_requests: self.put_requests - earlier.put_requests,
            bytes_read: self.bytes_read - earlier.bytes_read,
            bytes_written: self.bytes_written - earlier.bytes_written,
            gets_failed: self.gets_failed - earlier.gets_failed,
            retries: self.retries - earlier.retries,
        }
    }

    /// Set the `pixels_storage_*` families, and the storage site of
    /// `pixels_retries_total`, to these totals.
    pub fn export(&self, registry: &MetricsRegistry) {
        for (name, help, total) in [
            (
                "pixels_storage_get_requests_total",
                "GET requests issued to object storage",
                self.get_requests,
            ),
            (
                "pixels_storage_put_requests_total",
                "PUT requests issued to object storage",
                self.put_requests,
            ),
            (
                "pixels_storage_bytes_read_total",
                "Bytes read from object storage",
                self.bytes_read,
            ),
            (
                "pixels_storage_bytes_written_total",
                "Bytes written to object storage",
                self.bytes_written,
            ),
            (
                "pixels_storage_gets_failed_total",
                "GET requests that failed (never added to billed bytes)",
                self.gets_failed,
            ),
        ] {
            registry.counter(name, help).advance_to(total);
        }
        registry
            .counter_with(
                "pixels_retries_total",
                "Operations retried after transient failures",
                &[("site", "storage_get")],
            )
            .advance_to(self.retries);
    }
}

/// Object storage operations used by the engine.
pub trait ObjectStore: Send + Sync {
    /// Store an object, replacing any existing object at `path`.
    fn put(&self, path: &str, data: Bytes) -> Result<()>;
    /// Fetch a whole object.
    fn get(&self, path: &str) -> Result<Bytes>;
    /// Fetch `len` bytes starting at `offset`.
    fn get_range(&self, path: &str, offset: u64, len: u64) -> Result<Bytes>;
    /// Size of an object in bytes.
    fn size(&self, path: &str) -> Result<u64>;
    /// Paths with the given prefix, sorted.
    fn list(&self, prefix: &str) -> Result<Vec<String>>;
    /// Remove an object. Deleting a missing object is an error.
    fn delete(&self, path: &str) -> Result<()>;
    /// Write generation of the object at `path` — the stand-in for an HTTP
    /// etag. Every `put` to a path must yield a distinct generation, so a
    /// rewritten object is distinguishable from the original even when the
    /// sizes coincide. Stores that cannot track generations return 0 for
    /// every path (callers must then fall back to size-only validation).
    fn generation(&self, path: &str) -> Result<u64> {
        let _ = path;
        Ok(0)
    }
    /// Cumulative access metrics.
    fn metrics(&self) -> StoreMetricsSnapshot;
}

/// Shared handle to a store.
pub type ObjectStoreRef = Arc<dyn ObjectStore>;

/// An in-memory object store with S3-like semantics (immutable whole-object
/// puts, ranged gets) and exact byte accounting.
#[derive(Debug, Default)]
pub struct InMemoryObjectStore {
    objects: RwLock<BTreeMap<String, Bytes>>,
    /// Monotonic write generation per path, bumped on every `put` and kept
    /// across `delete` so a delete-then-recreate is still a new generation.
    generations: RwLock<BTreeMap<String, u64>>,
    metrics: StoreMetrics,
}

impl InMemoryObjectStore {
    pub fn new() -> Self {
        InMemoryObjectStore::default()
    }

    /// Convenience constructor returning a shared handle.
    pub fn shared() -> ObjectStoreRef {
        Arc::new(InMemoryObjectStore::new())
    }

    /// Number of stored objects.
    pub fn object_count(&self) -> usize {
        self.objects.read().len()
    }

    /// Total bytes stored.
    pub fn total_bytes(&self) -> u64 {
        self.objects.read().values().map(|b| b.len() as u64).sum()
    }
}

impl ObjectStore for InMemoryObjectStore {
    fn put(&self, path: &str, data: Bytes) -> Result<()> {
        if path.is_empty() {
            return Err(Error::Storage("object path cannot be empty".into()));
        }
        self.metrics.put_requests.fetch_add(1, Ordering::Relaxed);
        self.metrics
            .bytes_written
            .fetch_add(data.len() as u64, Ordering::Relaxed);
        self.objects.write().insert(path.to_string(), data);
        *self
            .generations
            .write()
            .entry(path.to_string())
            .or_insert(0) += 1;
        Ok(())
    }

    fn get(&self, path: &str) -> Result<Bytes> {
        let objects = self.objects.read();
        let Some(data) = objects.get(path).cloned() else {
            self.metrics.gets_failed.fetch_add(1, Ordering::Relaxed);
            return Err(Error::NotFound(format!("object not found: {path}")));
        };
        self.metrics.get_requests.fetch_add(1, Ordering::Relaxed);
        self.metrics
            .bytes_read
            .fetch_add(data.len() as u64, Ordering::Relaxed);
        Ok(data)
    }

    fn get_range(&self, path: &str, offset: u64, len: u64) -> Result<Bytes> {
        let objects = self.objects.read();
        let Some(data) = objects.get(path) else {
            self.metrics.gets_failed.fetch_add(1, Ordering::Relaxed);
            return Err(Error::NotFound(format!("object not found: {path}")));
        };
        let end = match offset.checked_add(len) {
            Some(end) if end <= data.len() as u64 => end,
            _ => {
                self.metrics.gets_failed.fetch_add(1, Ordering::Relaxed);
                return Err(Error::Storage(format!(
                    "range [{offset}, +{len}) out of bounds for object {path} of {} bytes",
                    data.len()
                )));
            }
        };
        self.metrics.get_requests.fetch_add(1, Ordering::Relaxed);
        self.metrics.bytes_read.fetch_add(len, Ordering::Relaxed);
        Ok(data.slice(offset as usize..end as usize))
    }

    fn size(&self, path: &str) -> Result<u64> {
        self.objects
            .read()
            .get(path)
            .map(|d| d.len() as u64)
            .ok_or_else(|| Error::NotFound(format!("object not found: {path}")))
    }

    fn list(&self, prefix: &str) -> Result<Vec<String>> {
        Ok(self
            .objects
            .read()
            .keys()
            .filter(|k| k.starts_with(prefix))
            .cloned()
            .collect())
    }

    fn delete(&self, path: &str) -> Result<()> {
        self.objects
            .write()
            .remove(path)
            .map(|_| ())
            .ok_or_else(|| Error::NotFound(format!("object not found: {path}")))
    }

    fn generation(&self, path: &str) -> Result<u64> {
        if !self.objects.read().contains_key(path) {
            return Err(Error::NotFound(format!("object not found: {path}")));
        }
        Ok(self.generations.read().get(path).copied().unwrap_or(0))
    }

    fn metrics(&self) -> StoreMetricsSnapshot {
        self.metrics.snapshot()
    }
}

/// Latency model for a remote object store, used by the simulator's cost
/// model (the in-memory store itself runs at memory speed).
///
/// Defaults approximate S3 from a same-region VM: ~15 ms first-byte latency
/// and ~90 MB/s single-stream throughput.
#[derive(Debug, Clone, Copy)]
pub struct LatencyModel {
    /// Fixed cost per request, in microseconds.
    pub per_request_us: u64,
    /// Transfer cost per megabyte, in microseconds.
    pub per_mb_us: u64,
}

impl Default for LatencyModel {
    fn default() -> Self {
        LatencyModel {
            per_request_us: 15_000,
            per_mb_us: 11_000,
        }
    }
}

impl LatencyModel {
    /// Modeled latency for transferring `bytes` in one request, in µs.
    /// Saturates instead of overflowing: the transfer term is computed in
    /// u128 (u64 byte counts × per-MB cost exceeds u64 near `u64::MAX`) and
    /// clamped, so absurd sizes model "forever", not a tiny wrapped value.
    pub fn request_latency_us(&self, bytes: u64) -> u64 {
        let transfer = (bytes as u128 * self.per_mb_us as u128) / 1_000_000;
        self.per_request_us
            .saturating_add(u64::try_from(transfer).unwrap_or(u64::MAX))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn put_get_roundtrip() {
        let s = InMemoryObjectStore::new();
        s.put("a/b.pxl", Bytes::from_static(b"hello")).unwrap();
        assert_eq!(s.get("a/b.pxl").unwrap(), Bytes::from_static(b"hello"));
        assert_eq!(s.size("a/b.pxl").unwrap(), 5);
        assert_eq!(s.object_count(), 1);
        assert_eq!(s.total_bytes(), 5);
    }

    #[test]
    fn missing_object_is_not_found() {
        let s = InMemoryObjectStore::new();
        assert!(matches!(s.get("nope"), Err(Error::NotFound(_))));
        assert!(s.delete("nope").is_err());
        assert!(s.size("nope").is_err());
    }

    #[test]
    fn ranged_reads() {
        let s = InMemoryObjectStore::new();
        s.put("x", Bytes::from_static(b"0123456789")).unwrap();
        assert_eq!(s.get_range("x", 2, 3).unwrap(), Bytes::from_static(b"234"));
        assert_eq!(s.get_range("x", 0, 0).unwrap().len(), 0);
        assert!(s.get_range("x", 8, 5).is_err());
    }

    #[test]
    fn list_by_prefix_sorted() {
        let s = InMemoryObjectStore::new();
        s.put("t/b", Bytes::new()).unwrap();
        s.put("t/a", Bytes::new()).unwrap();
        s.put("u/c", Bytes::new()).unwrap();
        assert_eq!(
            s.list("t/").unwrap(),
            vec!["t/a".to_string(), "t/b".to_string()]
        );
        assert_eq!(s.list("").unwrap().len(), 3);
    }

    #[test]
    fn metrics_account_exact_bytes() {
        let s = InMemoryObjectStore::new();
        s.put("x", Bytes::from(vec![0u8; 100])).unwrap();
        s.get("x").unwrap();
        s.get_range("x", 0, 10).unwrap();
        let m = s.metrics();
        assert_eq!(m.put_requests, 1);
        assert_eq!(m.get_requests, 2);
        assert_eq!(m.bytes_written, 100);
        assert_eq!(m.bytes_read, 110);
    }

    #[test]
    fn metrics_delta() {
        let s = InMemoryObjectStore::new();
        s.put("x", Bytes::from(vec![0u8; 10])).unwrap();
        let before = s.metrics();
        s.get("x").unwrap();
        let delta = s.metrics().delta_since(&before);
        assert_eq!(delta.get_requests, 1);
        assert_eq!(delta.bytes_read, 10);
        assert_eq!(delta.put_requests, 0);
    }

    #[test]
    fn overwrite_replaces() {
        let s = InMemoryObjectStore::new();
        s.put("x", Bytes::from_static(b"one")).unwrap();
        s.put("x", Bytes::from_static(b"two")).unwrap();
        assert_eq!(s.get("x").unwrap(), Bytes::from_static(b"two"));
        assert_eq!(s.object_count(), 1);
    }

    #[test]
    fn generations_advance_on_every_put() {
        let s = InMemoryObjectStore::new();
        assert!(s.generation("x").is_err());
        s.put("x", Bytes::from_static(b"one")).unwrap();
        assert_eq!(s.generation("x").unwrap(), 1);
        // A same-size rewrite still gets a fresh generation.
        s.put("x", Bytes::from_static(b"two")).unwrap();
        assert_eq!(s.generation("x").unwrap(), 2);
        // Delete-then-recreate does not reuse old generations.
        s.delete("x").unwrap();
        assert!(s.generation("x").is_err());
        s.put("x", Bytes::from_static(b"ter")).unwrap();
        assert_eq!(s.generation("x").unwrap(), 3);
    }

    #[test]
    fn empty_path_rejected() {
        let s = InMemoryObjectStore::new();
        assert!(s.put("", Bytes::new()).is_err());
    }

    #[test]
    fn latency_model() {
        let m = LatencyModel::default();
        assert_eq!(m.request_latency_us(0), 15_000);
        // 1 MB ≈ 15ms + 11ms
        assert_eq!(m.request_latency_us(1_000_000), 26_000);
    }

    #[test]
    fn latency_model_saturates_on_huge_sizes() {
        let m = LatencyModel::default();
        // Near-u64::MAX byte counts used to overflow `bytes * per_mb_us` and
        // wrap to a tiny latency; they must saturate instead.
        for bytes in [u64::MAX, u64::MAX - 1, u64::MAX / 2] {
            let us = m.request_latency_us(bytes);
            assert!(
                us >= m.request_latency_us(1 << 40),
                "latency for {bytes} bytes ({us} us) regressed below the 1 TiB latency"
            );
        }
        // ~18.4 EB at 11 s/GB is on the order of 2e17 µs — enormous, not
        // a wrapped small number.
        assert!(m.request_latency_us(u64::MAX) > 200_000_000_000_000_000);
        // A model with extreme per-MB cost saturates to u64::MAX rather
        // than panicking or wrapping.
        let worst = LatencyModel {
            per_request_us: u64::MAX,
            per_mb_us: u64::MAX,
        };
        assert_eq!(worst.request_latency_us(u64::MAX), u64::MAX);
    }

    #[test]
    fn failed_gets_counted_but_never_billed() {
        // Regression: failed/aborted GETs must land in `gets_failed`, and
        // must not contribute to billed byte totals or the GET counter.
        let s = InMemoryObjectStore::new();
        s.put("x", Bytes::from(vec![0u8; 64])).unwrap();
        assert!(s.get("missing").is_err());
        assert!(s.get_range("missing", 0, 8).is_err());
        assert!(s.get_range("x", 60, 10).is_err()); // out of bounds
        assert!(s.get_range("x", u64::MAX, 2).is_err()); // range overflow
        let m = s.metrics();
        assert_eq!(m.gets_failed, 4);
        assert_eq!(m.get_requests, 0);
        assert_eq!(m.bytes_read, 0);
        // A successful read still bills exactly its bytes.
        s.get_range("x", 0, 16).unwrap();
        let m = s.metrics();
        assert_eq!(m.get_requests, 1);
        assert_eq!(m.bytes_read, 16);
        assert_eq!(m.gets_failed, 4);
    }

    #[test]
    fn concurrent_access() {
        let s = Arc::new(InMemoryObjectStore::new());
        s.put("x", Bytes::from(vec![1u8; 1000])).unwrap();
        let mut handles = Vec::new();
        for _ in 0..8 {
            let s = s.clone();
            handles.push(std::thread::spawn(move || {
                for _ in 0..100 {
                    assert_eq!(s.get("x").unwrap().len(), 1000);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(s.metrics().get_requests, 800);
    }
}
