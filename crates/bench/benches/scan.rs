//! Microbenchmarks for the encoded scan pipeline: executing on encoded
//! chunks (dictionary-code predicates, RLE-run aggregation, late
//! materialization), with and without the chunk cache serving the bytes,
//! and a plain chunk decoded under a mask that keeps 99 % of its rows.
//! (The decode-everything scan these were once measured against is gone;
//! EXPERIMENTS.md keeps the PR 14 ratios.)
//! The `string_chunks` group times the string column itself — `decode_filtered`
//! of dictionary and plain chunks at 1 % / 50 % / 100 % selectivity, and
//! `concat` of 16 decoded row groups — below any operator.
//! The `remote_scan` group runs a lineitem scan over a store that sleeps per
//! request, at prefetch depths 0, 1 and 4: the depth sweep of the vectored,
//! overlapped fetch. Headline ratios are recorded in EXPERIMENTS.md.

use bytes::Bytes;
use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use pixels_catalog::{Catalog, CatalogRef, CreateTable};
use pixels_common::{Column, DataType, Field, RecordBatch, Result, Schema, Value};
use pixels_exec::{execute, ExecContext};
use pixels_planner::{plan_query, PhysicalPlan};
use pixels_storage::{
    ChunkCache, EncodedChunk, Encoding, InMemoryObjectStore, LatencyModel, ObjectStore,
    ObjectStoreRef, PixelsReader, PixelsWriter, StoreMetricsSnapshot,
};
use pixels_workload::{load_tpch, TpchConfig};
use std::sync::Arc;
use std::time::Duration;

const ROWS: usize = 1 << 18;
const ROW_GROUP_ROWS: usize = 4096;
const WIDE_PATH: &str = "bench/wide/part-0.pxl";

/// A table built to exercise the encoded kernels:
/// - `tag`: 64 distinct values in 16-row runs → Dictionary; `tag = 'v7'`
///   selects ~1/64 of the rows, so late materialization skips almost all
///   payload decoding.
/// - `grade`: 16-row runs of Int64 → RLE; grand-total COUNT/SUM/MIN/MAX
///   fold whole runs without expansion.
/// - `payload_a`/`payload_b`: distinct per row → Plain; the columns a
///   selective filter should *not* have to decode.
fn scan_fixture() -> (CatalogRef, ObjectStoreRef) {
    let catalog = Catalog::shared();
    let store: ObjectStoreRef = InMemoryObjectStore::shared();
    catalog.create_database("bench");
    let schema = Arc::new(Schema::new(vec![
        Field::required("tag", DataType::Utf8),
        Field::required("grade", DataType::Int64),
        Field::required("payload_a", DataType::Int64),
        Field::required("payload_b", DataType::Float64),
    ]));
    catalog
        .create_table(CreateTable {
            database: "bench".into(),
            name: "wide".into(),
            schema: schema.clone(),
            primary_key: None,
            foreign_keys: vec![],
            comment: None,
        })
        .expect("create table");
    let path = WIDE_PATH;
    let mut w =
        PixelsWriter::with_row_group_rows(store.as_ref(), path, schema.clone(), ROW_GROUP_ROWS);
    let mut rows: Vec<Vec<Value>> = Vec::with_capacity(8192);
    let mut written = 0usize;
    while written < ROWS {
        rows.clear();
        for _ in 0..8192.min(ROWS - written) {
            let i = written as i64;
            rows.push(vec![
                Value::Utf8(format!("v{}", (i / 16) % 64)),
                Value::Int64(i / 16),
                Value::Int64(i * 2654435761 % 1_000_003),
                Value::Float64(i as f64 * 0.25),
            ]);
            written += 1;
        }
        let batch = RecordBatch::from_rows(schema.clone(), &rows).expect("batch");
        w.write_batch(&batch).expect("write");
    }
    let size = w.finish().expect("finish");
    let reader = PixelsReader::open(store.as_ref(), path).expect("open");
    catalog
        .register_data_file("bench", "wide", path, reader.footer(), size)
        .expect("register");
    (catalog, store)
}

fn run(plan: &PhysicalPlan, ctx: &ExecContext) -> usize {
    execute(plan, ctx)
        .expect("execute")
        .iter()
        .map(|b| b.num_rows())
        .sum()
}

fn bench_scan_pipeline(c: &mut Criterion) {
    let (catalog, store) = scan_fixture();
    let mut g = c.benchmark_group("scan_pipeline");
    g.sample_size(20);
    g.throughput(Throughput::Elements(ROWS as u64));

    // Selective dictionary filter with fat payload projection.
    let dict_plan = plan_query(
        &catalog,
        "bench",
        "SELECT payload_a, payload_b FROM wide WHERE tag = 'v7'",
    )
    .expect("plan");
    g.bench_function("dict_filter/encoded", |b| {
        b.iter(|| run(&dict_plan, &ExecContext::new(store.clone())))
    });

    // Grand-total aggregation over RLE runs.
    let agg_plan = plan_query(
        &catalog,
        "bench",
        "SELECT COUNT(*), SUM(grade), MIN(grade), MAX(grade) FROM wide",
    )
    .expect("plan");
    g.bench_function("rle_count_sum/encoded", |b| {
        b.iter(|| run(&agg_plan, &ExecContext::new(store.clone())))
    });

    // Chunk cache: cold (no cache) vs warm (pre-warmed shared cache).
    let warm = ChunkCache::shared(256 << 20);
    run(
        &dict_plan,
        &ExecContext::new(store.clone()).with_chunk_cache(warm.clone()),
    );
    g.bench_function("dict_filter/encoded_cold_cache", |b| {
        b.iter(|| {
            let cold = ChunkCache::shared(256 << 20);
            run(
                &dict_plan,
                &ExecContext::new(store.clone()).with_chunk_cache(cold),
            )
        })
    });
    g.bench_function("dict_filter/encoded_warm_cache", |b| {
        b.iter(|| {
            run(
                &dict_plan,
                &ExecContext::new(store.clone()).with_chunk_cache(warm.clone()),
            )
        })
    });

    // A lax filter's late materialization: `payload_b`'s plain Float64
    // chunks with 99 % of the rows kept, so most 32-row blocks are kept whole.
    let reader = PixelsReader::open(store.as_ref(), WIDE_PATH).expect("open");
    let payload_b: Vec<EncodedChunk> = (0..reader.footer().row_groups.len())
        .map(|rg| {
            let mut chunks = reader
                .fetch_row_group(rg, None, None)
                .expect("fetch")
                .chunks;
            chunks.swap_remove(3)
        })
        .collect();
    assert_eq!(payload_b[0].encoding(), Encoding::Plain);
    let lax: Vec<bool> = (0..ROW_GROUP_ROWS).map(|i| i % 100 != 0).collect();
    g.bench_function("plain_f64/decode_filtered_99pct", |b| {
        b.iter(|| {
            (payload_b.iter())
                .map(|c| c.decode_filtered(&lax).expect("decode").len())
                .sum::<usize>()
        })
    });
    g.finish();
}

/// 16 row groups of two string columns: `status` (16 distinct values →
/// Dictionary) and `comment` (distinct per row → Plain), as fetched chunks.
fn string_chunks() -> Vec<Vec<EncodedChunk>> {
    const GROUPS: usize = 16;
    let schema = Arc::new(Schema::new(vec![
        Field::required("status", DataType::Utf8),
        Field::required("comment", DataType::Utf8),
    ]));
    let rows: Vec<Vec<Value>> = (0..GROUPS * ROW_GROUP_ROWS)
        .map(|i| {
            vec![
                Value::Utf8(format!("status-{}", (i * 7) % 16)),
                Value::Utf8(format!(
                    "comment {i}: carefully final deposits detect slyly"
                )),
            ]
        })
        .collect();
    let batch = RecordBatch::from_rows(schema.clone(), &rows).expect("batch");
    let store = InMemoryObjectStore::new();
    let mut w = PixelsWriter::with_row_group_rows(&store, "s.pxl", schema, ROW_GROUP_ROWS);
    w.write_batch(&batch).expect("write");
    w.finish().expect("finish");
    let reader = PixelsReader::open(&store, "s.pxl").expect("open");
    (0..GROUPS)
        .map(|rg| {
            reader
                .fetch_row_group(rg, None, None)
                .expect("fetch")
                .chunks
        })
        .collect()
}

fn bench_string_chunks(c: &mut Criterion) {
    let groups = string_chunks();
    assert_eq!(groups[0][0].encoding(), Encoding::Dictionary);
    assert_eq!(groups[0][1].encoding(), Encoding::Plain);
    let mut g = c.benchmark_group("string_chunks");
    g.sample_size(20);
    g.throughput(Throughput::Elements((groups.len() * ROW_GROUP_ROWS) as u64));
    for (name, col) in [("dictionary", 0), ("plain", 1)] {
        for (selectivity, every) in [("1pct", 100), ("50pct", 2), ("100pct", 1)] {
            let mask: Vec<bool> = (0..ROW_GROUP_ROWS).map(|i| i % every == 0).collect();
            g.bench_function(&format!("{name}/decode_filtered_{selectivity}"), |b| {
                b.iter(|| {
                    groups
                        .iter()
                        .map(|rg| rg[col].decode_filtered(&mask).expect("decode").len())
                        .sum::<usize>()
                })
            });
        }
        let decoded: Vec<Column> = groups
            .iter()
            .map(|rg| rg[col].decode().expect("decode"))
            .collect();
        g.bench_function(&format!("{name}/concat_16_row_groups"), |b| {
            b.iter(|| Column::concat(&decoded).expect("concat").len())
        });
    }
    g.finish();
}

/// A store one network hop away: every GET sleeps for what `model` says the
/// request costs. Knows nothing but the `ObjectStore` trait.
struct RemoteStore {
    inner: InMemoryObjectStore,
    model: LatencyModel,
}

impl RemoteStore {
    fn delayed(&self, data: Bytes) -> Bytes {
        let micros = self.model.request_latency_us(data.len() as u64);
        std::thread::sleep(Duration::from_micros(micros));
        data
    }
}

impl ObjectStore for RemoteStore {
    fn put(&self, path: &str, data: Bytes) -> Result<()> {
        self.inner.put(path, data)
    }
    fn get(&self, path: &str) -> Result<Bytes> {
        self.inner.get(path).map(|d| self.delayed(d))
    }
    fn get_range(&self, path: &str, offset: u64, len: u64) -> Result<Bytes> {
        self.inner
            .get_range(path, offset, len)
            .map(|d| self.delayed(d))
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

fn bench_remote_scan(c: &mut Criterion) {
    // The benchmark's `remote_cold` store: 0.5 ms a request, 11 ms a MB.
    let store = Arc::new(RemoteStore {
        inner: InMemoryObjectStore::new(),
        model: LatencyModel {
            per_request_us: 500,
            per_mb_us: 11_000,
        },
    });
    let catalog = Catalog::shared();
    load_tpch(
        &catalog,
        store.as_ref(),
        "tpch",
        &TpchConfig {
            scale: 0.02,
            seed: 42,
            row_group_rows: ROW_GROUP_ROWS,
            files_per_table: 1,
        },
    )
    .expect("load TPC-H");
    let store: ObjectStoreRef = store;
    let plan = plan_query(
        &catalog,
        "tpch",
        "SELECT l_orderkey, l_quantity, l_extendedprice, l_shipdate FROM lineitem \
         WHERE l_discount > 0.05",
    )
    .expect("plan");

    let mut g = c.benchmark_group("remote_scan");
    g.sample_size(10);
    // No chunk cache: every iteration is cold, as under a cache much
    // smaller than the table.
    for depth in [0usize, 1, 4] {
        g.bench_function(&format!("lineitem/depth_{depth}"), |b| {
            b.iter(|| {
                run(
                    &plan,
                    &ExecContext::new(store.clone())
                        .with_parallelism(1)
                        .with_prefetch_depth(depth),
                )
            })
        });
    }
    g.finish();
}

criterion_group!(
    scan,
    bench_scan_pipeline,
    bench_string_chunks,
    bench_remote_scan
);
criterion_main!(scan);
