//! Execution context and per-query metrics.

use pixels_obs::{Span, TraceCtx};
use pixels_storage::{ChunkCache, FetchStats, FooterCache, ObjectStoreRef};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

/// Worker threads to use when the caller does not say: every available core.
/// Asked of the OS once per process — the answer comes from cgroup and
/// `/proc` files, which is too much to read again for every query.
pub fn default_parallelism() -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    *CORES.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// Rows per output batch unless a caller overrides `ExecContext::batch_size`.
/// The CF finish stage chunks its MV by this same value, which is what keeps
/// a shuffled plan's MV bytes identical to the single-stage path's.
pub const DEFAULT_BATCH_SIZE: usize = 8192;

/// Shared state an executing plan needs: the object store, a metrics sink,
/// and the parallelism/caching knobs. Cheap to clone.
#[derive(Clone)]
pub struct ExecContext {
    pub store: ObjectStoreRef,
    pub metrics: Arc<ExecMetrics>,
    /// Maximum rows per output batch produced by operators.
    pub batch_size: usize,
    /// Worker threads for morsel-driven operators (scan, filter, project,
    /// partial aggregation). `1` forces the serial path, which reproduces
    /// single-threaded execution exactly; the default is every core.
    pub parallelism: usize,
    /// Footer/schema cache shared by every reader this context opens (and,
    /// when the caller shares one context-to-context, across queries).
    pub footer_cache: Arc<FooterCache>,
    /// Optional bounded cache of raw chunk bytes. Cache hits skip the store
    /// GET (and its latency) but bill exactly like a fetch — `bytes_scanned`
    /// is metered from chunk metadata, never from store counters.
    pub chunk_cache: Option<Arc<ChunkCache>>,
    /// How many morsels the scan may have fetched or be fetching ahead of
    /// the decoding workers, which is also how many fetches it keeps in
    /// flight (default 4). `0` fetches on the workers themselves.
    pub prefetch_depth: usize,
    /// Where in the query's trace this context executes: operators open
    /// child spans under it. Disabled by default — a disabled context makes
    /// every span operation a no-op.
    pub trace: TraceCtx,
}

impl ExecContext {
    pub fn new(store: ObjectStoreRef) -> Self {
        ExecContext {
            store,
            metrics: Arc::new(ExecMetrics::default()),
            batch_size: DEFAULT_BATCH_SIZE,
            parallelism: default_parallelism(),
            footer_cache: FooterCache::shared(),
            chunk_cache: None,
            prefetch_depth: 4,
            trace: TraceCtx::disabled(),
        }
    }

    /// Same context with a different worker count (`1` = serial).
    pub fn with_parallelism(mut self, parallelism: usize) -> Self {
        self.parallelism = parallelism.max(1);
        self
    }

    /// Same context sharing `cache` instead of a private footer cache.
    pub fn with_footer_cache(mut self, cache: Arc<FooterCache>) -> Self {
        self.footer_cache = cache;
        self
    }

    /// Same context sharing a chunk-data cache.
    pub fn with_chunk_cache(mut self, cache: Arc<ChunkCache>) -> Self {
        self.chunk_cache = Some(cache);
        self
    }

    /// Same context with a different prefetch depth (`0` = no prefetch).
    pub fn with_prefetch_depth(mut self, depth: usize) -> Self {
        self.prefetch_depth = depth;
        self
    }

    /// Same context opening spans under `trace`.
    pub fn with_trace(mut self, trace: TraceCtx) -> Self {
        self.trace = trace;
        self
    }

    /// Same context with spans parented under `span` — how the engine nests
    /// an operator's children beneath the operator's own span.
    pub fn under(&self, span: &Span) -> Self {
        let mut ctx = self.clone();
        ctx.trace = span.ctx();
        ctx
    }
}

/// Counters describing what a query actually did. `bytes_scanned` is the
/// exact number of footer and column-chunk bytes fetched from object storage
/// — the quantity the query server bills at $/TB. Footer-cache hits fetch
/// nothing and therefore bill nothing; they are counted separately.
#[derive(Debug, Default)]
pub struct ExecMetrics {
    pub bytes_scanned: AtomicU64,
    /// The subset of `bytes_scanned` fetched at file open (footer/metadata
    /// bytes). On a warm reopen the footer cache absorbs these bytes — so
    /// `bytes_scanned - open_bytes` is exactly what a repeat of this query
    /// against warm caches would bill. The shared-work result cache bills
    /// repeats that amount.
    pub open_bytes: AtomicU64,
    pub rows_scanned: AtomicU64,
    pub rows_produced: AtomicU64,
    pub row_groups_total: AtomicU64,
    pub row_groups_read: AtomicU64,
    pub footer_cache_hits: AtomicU64,
    // Scan-pipeline counters. Kept out of [`ExecMetricsSnapshot`] on
    // purpose: that snapshot participates in engine-vs-simulator and
    // fault-vs-fault-free equality comparisons, and pipeline behaviour
    // (prefetch overlap, cache residency) legitimately varies without the
    // query's answer or bill changing. See [`ScanPipelineSnapshot`].
    pub prefetch_issued: AtomicU64,
    pub prefetch_hits: AtomicU64,
    pub prefetch_wasted: AtomicU64,
    pub chunk_cache_hits: AtomicU64,
    pub chunk_cache_misses: AtomicU64,
    pub coalesced_gets: AtomicU64,
    pub gap_bytes: AtomicU64,
    pub join_filter_rows: AtomicU64,
    pub join_filter_dropped: AtomicU64,
}

/// Point-in-time copy of the scan-pipeline counters (prefetcher, chunk
/// cache, vectored GETs, join key filters). Telemetry only: none of these
/// affect results or billing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ScanPipelineSnapshot {
    /// Morsel fetches started by the prefetcher.
    pub prefetch_issued: u64,
    /// Morsels whose data was already resident when a worker asked.
    pub prefetch_hits: u64,
    /// Prefetched morsels never consumed (abort after an error).
    pub prefetch_wasted: u64,
    pub chunk_cache_hits: u64,
    pub chunk_cache_misses: u64,
    /// Ranged GETs issued for chunk data, one per run of merged chunks.
    pub coalesced_gets: u64,
    /// Bytes transferred between merged chunks: store traffic the provider
    /// pays for, never part of `bytes_scanned`.
    pub gap_bytes: u64,
    /// Probe-scan rows that passed the scan's own conjuncts and were tested
    /// against a hash join's key filter.
    pub join_filter_rows: u64,
    /// How many of those the key filter dropped before they were decoded.
    pub join_filter_dropped: u64,
}

/// Point-in-time copy of [`ExecMetrics`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ExecMetricsSnapshot {
    pub bytes_scanned: u64,
    /// Footer/open bytes included in `bytes_scanned` (zero on warm reopens).
    pub open_bytes: u64,
    pub rows_scanned: u64,
    pub rows_produced: u64,
    pub row_groups_total: u64,
    pub row_groups_read: u64,
    pub footer_cache_hits: u64,
}

impl ExecMetricsSnapshot {
    /// Field-wise sum — used to combine the CF sub-plan's metrics with the
    /// top-level plan's into one per-query snapshot.
    pub fn merged(&self, other: &ExecMetricsSnapshot) -> ExecMetricsSnapshot {
        ExecMetricsSnapshot {
            bytes_scanned: self.bytes_scanned + other.bytes_scanned,
            open_bytes: self.open_bytes + other.open_bytes,
            rows_scanned: self.rows_scanned + other.rows_scanned,
            rows_produced: self.rows_produced + other.rows_produced,
            row_groups_total: self.row_groups_total + other.row_groups_total,
            row_groups_read: self.row_groups_read + other.row_groups_read,
            footer_cache_hits: self.footer_cache_hits + other.footer_cache_hits,
        }
    }

    /// Structured JSON form, served per query by the server API.
    pub fn to_json(&self) -> pixels_common::Json {
        use pixels_common::Json;
        Json::object([
            ("bytes_scanned", Json::number(self.bytes_scanned as f64)),
            ("open_bytes", Json::number(self.open_bytes as f64)),
            ("rows_scanned", Json::number(self.rows_scanned as f64)),
            ("rows_produced", Json::number(self.rows_produced as f64)),
            (
                "row_groups_total",
                Json::number(self.row_groups_total as f64),
            ),
            ("row_groups_read", Json::number(self.row_groups_read as f64)),
            (
                "footer_cache_hits",
                Json::number(self.footer_cache_hits as f64),
            ),
        ])
    }
}

impl ExecMetrics {
    pub fn add_scan(&self, bytes: u64, rows: u64) {
        self.bytes_scanned.fetch_add(bytes, Ordering::Relaxed);
        self.rows_scanned.fetch_add(rows, Ordering::Relaxed);
    }

    pub fn add_row_groups(&self, total: u64, read: u64) {
        self.row_groups_total.fetch_add(total, Ordering::Relaxed);
        self.row_groups_read.fetch_add(read, Ordering::Relaxed);
    }

    pub fn add_produced(&self, rows: u64) {
        self.rows_produced.fetch_add(rows, Ordering::Relaxed);
    }

    pub fn add_footer_cache_hit(&self) {
        self.footer_cache_hits.fetch_add(1, Ordering::Relaxed);
    }

    /// Record footer/open bytes (already included in `bytes_scanned` by the
    /// accompanying [`ExecMetrics::add_scan`] call).
    pub fn add_open(&self, bytes: u64) {
        self.open_bytes.fetch_add(bytes, Ordering::Relaxed);
    }

    pub fn add_prefetch(&self, issued: u64, hits: u64, wasted: u64) {
        self.prefetch_issued.fetch_add(issued, Ordering::Relaxed);
        self.prefetch_hits.fetch_add(hits, Ordering::Relaxed);
        self.prefetch_wasted.fetch_add(wasted, Ordering::Relaxed);
    }

    /// Record how one row group's chunks were obtained.
    pub fn add_fetch(&self, f: &FetchStats) {
        self.chunk_cache_hits
            .fetch_add(f.cache_hits, Ordering::Relaxed);
        self.chunk_cache_misses
            .fetch_add(f.cache_misses, Ordering::Relaxed);
        self.coalesced_gets.fetch_add(f.gets, Ordering::Relaxed);
        self.gap_bytes.fetch_add(f.gap_bytes, Ordering::Relaxed);
    }

    /// Record what a join's key filter did to one probe-scan morsel.
    pub fn add_join_filter(&self, rows: u64, dropped: u64) {
        self.join_filter_rows.fetch_add(rows, Ordering::Relaxed);
        self.join_filter_dropped
            .fetch_add(dropped, Ordering::Relaxed);
    }

    /// Snapshot of the scan-pipeline counters (separate from
    /// [`ExecMetrics::snapshot`], which feeds billing-equality checks).
    pub fn pipeline_snapshot(&self) -> ScanPipelineSnapshot {
        ScanPipelineSnapshot {
            prefetch_issued: self.prefetch_issued.load(Ordering::Relaxed),
            prefetch_hits: self.prefetch_hits.load(Ordering::Relaxed),
            prefetch_wasted: self.prefetch_wasted.load(Ordering::Relaxed),
            chunk_cache_hits: self.chunk_cache_hits.load(Ordering::Relaxed),
            chunk_cache_misses: self.chunk_cache_misses.load(Ordering::Relaxed),
            coalesced_gets: self.coalesced_gets.load(Ordering::Relaxed),
            gap_bytes: self.gap_bytes.load(Ordering::Relaxed),
            join_filter_rows: self.join_filter_rows.load(Ordering::Relaxed),
            join_filter_dropped: self.join_filter_dropped.load(Ordering::Relaxed),
        }
    }

    pub fn snapshot(&self) -> ExecMetricsSnapshot {
        ExecMetricsSnapshot {
            bytes_scanned: self.bytes_scanned.load(Ordering::Relaxed),
            open_bytes: self.open_bytes.load(Ordering::Relaxed),
            rows_scanned: self.rows_scanned.load(Ordering::Relaxed),
            rows_produced: self.rows_produced.load(Ordering::Relaxed),
            row_groups_total: self.row_groups_total.load(Ordering::Relaxed),
            row_groups_read: self.row_groups_read.load(Ordering::Relaxed),
            footer_cache_hits: self.footer_cache_hits.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pixels_storage::InMemoryObjectStore;

    #[test]
    fn metrics_accumulate() {
        let ctx = ExecContext::new(InMemoryObjectStore::shared());
        ctx.metrics.add_scan(100, 10);
        ctx.metrics.add_scan(50, 5);
        ctx.metrics.add_row_groups(4, 2);
        ctx.metrics.add_produced(7);
        ctx.metrics.add_footer_cache_hit();
        let s = ctx.metrics.snapshot();
        assert_eq!(s.bytes_scanned, 150);
        assert_eq!(s.rows_scanned, 15);
        assert_eq!(s.row_groups_total, 4);
        assert_eq!(s.row_groups_read, 2);
        assert_eq!(s.rows_produced, 7);
        assert_eq!(s.footer_cache_hits, 1);
    }

    #[test]
    fn context_clone_shares_metrics() {
        let ctx = ExecContext::new(InMemoryObjectStore::shared());
        let ctx2 = ctx.clone();
        ctx2.metrics.add_produced(3);
        assert_eq!(ctx.metrics.snapshot().rows_produced, 3);
    }

    #[test]
    fn parallelism_defaults_and_clamps() {
        let ctx = ExecContext::new(InMemoryObjectStore::shared());
        assert!(ctx.parallelism >= 1);
        let ctx = ctx.with_parallelism(0);
        assert_eq!(ctx.parallelism, 1);
        let ctx = ctx.with_parallelism(4);
        assert_eq!(ctx.parallelism, 4);
    }
}
