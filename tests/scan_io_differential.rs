//! Differential tests for scan I/O: how chunk bytes reach a scan — fetched
//! on the workers or ahead of them by several I/O threads, one GET per chunk
//! or one per run of neighbours, from the store or from the chunk cache —
//! must be invisible in rows, row order, billed bytes and prices. Every
//! TPC-H and web-log template runs at `prefetch_depth` {0, 1, 4} × chunk
//! cache {off, 2 MiB, 64 MiB} × parallelism {1, 4} against one reference
//! run, over a store wrapper that counts what the engine asks of it — which
//! also shows that a wrapper knowing only the `ObjectStore` trait sees the
//! vectored reads.

use bytes::Bytes;
use pixelsdb::catalog::Catalog;
use pixelsdb::common::{RecordBatch, Result, Value};
use pixelsdb::exec::{execute, ExecContext, ExecMetricsSnapshot};
use pixelsdb::planner::plan_query;
use pixelsdb::server::{PriceSchedule, QueryServer, QueryStatus, QuerySubmission, ServiceLevel};
use pixelsdb::storage::{
    ChunkCache, InMemoryObjectStore, ObjectStore, ObjectStoreRef, StoreMetricsSnapshot,
    COALESCE_GAP_BYTES,
};
use pixelsdb::turbo::{EngineConfig, TurboEngine};
use pixelsdb::workload::{
    all_queries, load_tpch, load_weblog, QueryTemplate, TpchConfig, WeblogConfig,
};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Counts ranged GETs and the bytes they return; everything else passes
/// through.
#[derive(Default)]
struct CountingStore {
    inner: InMemoryObjectStore,
    ranged_gets: AtomicU64,
    ranged_bytes: AtomicU64,
}

impl CountingStore {
    fn counts(&self) -> (u64, u64) {
        (
            self.ranged_gets.load(Ordering::SeqCst),
            self.ranged_bytes.load(Ordering::SeqCst),
        )
    }
}

impl ObjectStore for CountingStore {
    fn put(&self, path: &str, data: Bytes) -> Result<()> {
        self.inner.put(path, data)
    }
    fn get(&self, path: &str) -> Result<Bytes> {
        self.inner.get(path)
    }
    fn get_range(&self, path: &str, offset: u64, len: u64) -> Result<Bytes> {
        let data = self.inner.get_range(path, offset, len)?;
        self.ranged_gets.fetch_add(1, Ordering::SeqCst);
        self.ranged_bytes
            .fetch_add(data.len() as u64, Ordering::SeqCst);
        Ok(data)
    }
    fn size(&self, path: &str) -> Result<u64> {
        self.inner.size(path)
    }
    fn list(&self, prefix: &str) -> Result<Vec<String>> {
        self.inner.list(prefix)
    }
    fn delete(&self, path: &str) -> Result<()> {
        self.inner.delete(path)
    }
    fn generation(&self, path: &str) -> Result<u64> {
        self.inner.generation(path)
    }
    fn metrics(&self) -> StoreMetricsSnapshot {
        self.inner.metrics()
    }
}

fn fixture(scale: f64, log_rows: usize) -> (Arc<Catalog>, Arc<CountingStore>) {
    let catalog = Catalog::shared();
    let store = Arc::new(CountingStore::default());
    load_tpch(
        &catalog,
        store.as_ref(),
        "tpch",
        &TpchConfig {
            scale,
            seed: 7,
            row_group_rows: 256,
            files_per_table: 2,
        },
    )
    .unwrap();
    load_weblog(
        &catalog,
        store.as_ref(),
        "logs",
        &WeblogConfig {
            rows: log_rows,
            seed: 7,
            row_group_rows: 256,
        },
    )
    .unwrap();
    (catalog, store)
}

/// Rows in output order, floats by bit pattern.
fn ordered_rows(batches: &[RecordBatch]) -> Vec<Vec<Value>> {
    batches.iter().flat_map(|b| b.to_rows()).collect()
}

fn identical(a: &[Vec<Value>], b: &[Vec<Value>]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| {
            x.len() == y.len()
                && x.iter().zip(y).all(|(u, v)| match (u, v) {
                    (Value::Float64(p), Value::Float64(q)) => p.to_bits() == q.to_bits(),
                    _ => std::mem::discriminant(u) == std::mem::discriminant(v) && u == v,
                })
        })
}

fn run(
    catalog: &Catalog,
    store: &Arc<CountingStore>,
    q: &QueryTemplate,
    depth: usize,
    parallelism: usize,
    cache: Option<&Arc<ChunkCache>>,
) -> (Vec<Vec<Value>>, ExecMetricsSnapshot) {
    let plan = plan_query(catalog, q.database, q.sql).unwrap();
    let mut ctx = ExecContext::new(store.clone() as ObjectStoreRef)
        .with_parallelism(parallelism)
        .with_prefetch_depth(depth);
    if let Some(cache) = cache {
        ctx = ctx.with_chunk_cache(cache.clone());
    }
    let rows = ordered_rows(&execute(&plan, &ctx).unwrap());
    (rows, ctx.metrics.snapshot())
}

#[test]
fn every_template_is_identical_at_every_depth_cache_and_parallelism() {
    // Large enough that the 2 MiB cache cannot hold what the scans read.
    let (catalog, store) = fixture(0.01, 20_000);
    let queries = all_queries();
    assert!(queries.iter().any(|q| q.database == "tpch"));
    assert!(queries.iter().any(|q| q.database == "logs"));

    // One cache per size for the whole matrix: later runs meet it warm, and
    // the small one evicts throughout.
    let caches = [
        None,
        Some(ChunkCache::shared(2 << 20)),
        Some(ChunkCache::shared(64 << 20)),
    ];
    for q in &queries {
        // Parallelism is part of the reference: float aggregates merge
        // partial sums per worker partition.
        for parallelism in [1usize, 4] {
            let (want_rows, want) = run(&catalog, &store, q, 0, parallelism, None);
            for depth in [0usize, 1, 4] {
                for cache in &caches {
                    let label = format!(
                        "{} p{parallelism} depth {depth} cache {:?}",
                        q.id,
                        cache.as_ref().map(|c| c.capacity_bytes())
                    );
                    let (rows, got) = run(&catalog, &store, q, depth, parallelism, cache.as_ref());
                    assert!(identical(&rows, &want_rows), "{label}: rows diverged");
                    assert_eq!(got, want, "{label}: billed bytes or counters diverged");
                }
            }
        }
    }
    let [_, small, large] = caches.map(|c| c.map(|c| (c.hits(), c.evictions())));
    assert!(small.unwrap().1 > 0, "the 2 MiB cache never evicted");
    assert!(large.unwrap().0 > 0, "the 64 MiB cache was never hit");
}

/// Billed bytes, price and rows of one query.
type Bill = (u64, f64, Vec<Vec<Value>>);

#[test]
fn bills_do_not_depend_on_depth_or_cache() {
    // The same through the server: one deployment per (depth, cache), every
    // template at the immediate level, each priced like the first.
    let (catalog, store) = fixture(0.002, 4000);
    let queries = all_queries();
    let mut reference: Option<Vec<Bill>> = None;
    for depth in [0usize, 1, 4] {
        for chunk_cache_bytes in [0u64, 2 << 20, 64 << 20] {
            let engine = Arc::new(TurboEngine::new(
                catalog.clone(),
                store.clone() as ObjectStoreRef,
                EngineConfig {
                    prefetch_depth: depth,
                    chunk_cache_bytes,
                    ..EngineConfig::default()
                },
            ));
            let server = QueryServer::new(engine, PriceSchedule::default());
            let bills: Vec<Bill> = queries
                .iter()
                .map(|q| {
                    let id = server.submit(QuerySubmission {
                        database: q.database.into(),
                        sql: q.sql.into(),
                        level: ServiceLevel::Immediate,
                        result_limit: None,
                        tenant: None,
                        deadline_us: None,
                    });
                    let info = server.wait(id).unwrap();
                    assert_eq!(info.status, QueryStatus::Finished, "{}", q.id);
                    let rows = info.result.as_ref().map_or(vec![], |b| b.to_rows());
                    (info.scan_bytes, info.price, rows)
                })
                .collect();
            match &reference {
                None => reference = Some(bills),
                Some(want) => {
                    for ((q, got), want) in queries.iter().zip(&bills).zip(want) {
                        let label = format!("{} depth {depth} cache {chunk_cache_bytes}", q.id);
                        assert_eq!(got.0, want.0, "{label}: billed bytes");
                        assert_eq!(got.1.to_bits(), want.1.to_bits(), "{label}: price");
                        assert!(identical(&got.2, &want.2), "{label}: rows");
                    }
                }
            }
        }
    }
}

#[test]
fn a_cold_scan_merges_gets_and_a_warm_one_starts_no_prefetcher() {
    let (catalog, store) = fixture(0.002, 4000);
    let plan = plan_query(
        &catalog,
        "tpch",
        "SELECT l_orderkey, l_quantity, l_extendedprice, l_shipdate FROM lineitem \
         WHERE l_discount > 0.05",
    )
    .unwrap();
    let cache = ChunkCache::shared(64 << 20);
    let footers = pixelsdb::storage::FooterCache::shared();
    let ctx = || {
        ExecContext::new(store.clone() as ObjectStoreRef)
            .with_parallelism(2)
            .with_footer_cache(footers.clone())
            .with_chunk_cache(cache.clone())
    };

    // Cold: every chunk comes from the store, in fewer GETs than chunks, and
    // what is transferred beyond the billed bytes is gap bytes.
    let cold = ctx();
    let before = store.counts();
    let cold_rows = ordered_rows(&execute(&plan, &cold).unwrap());
    let after = store.counts();
    let (m, p) = (cold.metrics.snapshot(), cold.metrics.pipeline_snapshot());
    assert_eq!(p.chunk_cache_hits, 0);
    assert!(p.prefetch_issued > 1, "the cold scan pipelines: {p:?}");
    assert!(
        p.coalesced_gets < p.chunk_cache_misses,
        "neighbouring chunks share a GET: {p:?}"
    );
    let opens = 2 * 2; // two files, two GETs each
    assert_eq!(after.0 - before.0, p.coalesced_gets + opens);
    assert_eq!(after.1 - before.1, m.bytes_scanned + p.gap_bytes);
    assert!(p.gap_bytes <= p.coalesced_gets * 4 * COALESCE_GAP_BYTES);

    // Warm: the probe finds every chunk resident, so no I/O thread starts
    // and nothing reaches the store — yet the bill is the cold one less the
    // footer bytes the footer cache absorbed.
    let warm = ctx();
    let before = store.counts();
    let warm_rows = ordered_rows(&execute(&plan, &warm).unwrap());
    assert_eq!(store.counts(), before, "a warm scan touched the store");
    let (wm, wp) = (warm.metrics.snapshot(), warm.metrics.pipeline_snapshot());
    assert_eq!(wp.prefetch_issued, 0, "{wp:?}");
    assert_eq!((wp.coalesced_gets, wp.gap_bytes), (0, 0));
    assert_eq!(wp.chunk_cache_hits, p.chunk_cache_misses);
    assert_eq!(wm.bytes_scanned, m.bytes_scanned - m.open_bytes);
    assert!(identical(&warm_rows, &cold_rows));

    // Without a cache there is nothing to probe: the scan pipelines again.
    let uncached = ExecContext::new(store.clone() as ObjectStoreRef).with_parallelism(2);
    execute(&plan, &uncached).unwrap();
    assert!(uncached.metrics.pipeline_snapshot().prefetch_issued > 1);
}
