//! Differential tests for the encoded scan pipeline: executing on encoded
//! chunks (dictionary-code predicates, RLE-run aggregation, zone shortcuts,
//! late materialization) behind an async prefetcher and an optional chunk
//! cache must be invisible in every observable except latency. Every TPC-H
//! template is compared against the row-at-a-time scalar reference
//! (`exec::scalar`, which decodes every projected chunk) at parallelism 1 and
//! 4, with the chunk cache off, cold, and warm. Rows, row order, float bit
//! patterns, billed `bytes_scanned`, and user-facing prices must all be
//! identical.
//!
//! A cold engine, the same engine's second run — chunks cached with their
//! dictionaries and runs already parsed — and an engine without a chunk
//! cache must agree run for run; a corrupt dictionary code or a truncated
//! RLE chunk fails every query that reads it, the first and the second.
//!
//! Also covers the encoding edge cases end-to-end: NULL runs in dictionary
//! and RLE chunks, single-value chunks, predicates on non-dictionary
//! columns, flipped literal comparisons, IS NULL / IS NOT NULL, always-false
//! predicates (schema-carrying empty batch), all-pruned scans, empty
//! tables, SUM overflow parity, a data file narrower than its table, and a
//! chunk whose validity flag is corrupt. Multi-conjunct filters, sparse and
//! dense, and key-filtered probe scans are compared against the oracle too.

use pixelsdb::catalog::{Catalog, CreateTable};
use pixelsdb::common::{DataType, Field, RecordBatch, Result, Schema, Value};
use pixelsdb::exec::{execute, scalar, ExecContext};
use pixelsdb::planner::plan_query;
use pixelsdb::server::{PriceSchedule, QueryServer, QueryStatus, QuerySubmission, ServiceLevel};
use pixelsdb::storage::{
    ChunkCache, Encoding, FooterCache, InMemoryObjectStore, ObjectStoreRef, PixelsReader,
    PixelsWriter,
};
use pixelsdb::turbo::{EngineConfig, TurboEngine};
use pixelsdb::workload::{all_queries, load_tpch, TpchConfig};
use std::sync::Arc;

fn tpch_fixture() -> (Arc<Catalog>, ObjectStoreRef) {
    let catalog = Catalog::shared();
    let store: ObjectStoreRef = InMemoryObjectStore::shared();
    load_tpch(
        &catalog,
        store.as_ref(),
        "tpch",
        &TpchConfig {
            scale: 0.002,
            seed: 7,
            row_group_rows: 256,
            files_per_table: 2,
        },
    )
    .unwrap();
    (catalog, store)
}

/// Bit-identity: same variant and, for floats, the exact bit pattern.
fn values_identical(a: &Value, b: &Value) -> bool {
    match (a, b) {
        (Value::Float64(x), Value::Float64(y)) => x.to_bits() == y.to_bits(),
        _ => std::mem::discriminant(a) == std::mem::discriminant(b) && a == b,
    }
}

fn ordered_rows(batches: &[RecordBatch]) -> Vec<Vec<Value>> {
    batches.iter().flat_map(|b| b.to_rows()).collect()
}

fn assert_rows_identical(enc: &[Vec<Value>], oracle: &[Vec<Value>], label: &str) {
    assert_eq!(
        enc.len(),
        oracle.len(),
        "{label}: row count diverged (encoded {} vs oracle {})",
        enc.len(),
        oracle.len()
    );
    for (i, (er, or)) in enc.iter().zip(oracle).enumerate() {
        assert!(
            er.len() == or.len()
                && er
                    .iter()
                    .zip(or.iter())
                    .all(|(a, b)| values_identical(a, b)),
            "{label}: row {i} diverged:\n  encoded: {er:?}\n  oracle:  {or:?}"
        );
    }
}

/// Run `sql` on the production path (optionally with a chunk cache) and on
/// the oracle, asserting identical rows, order, and billed bytes.
fn assert_differential(
    catalog: &Catalog,
    store: &ObjectStoreRef,
    db: &str,
    sql: &str,
    parallelism: usize,
    cache: Option<Arc<ChunkCache>>,
    label: &str,
) {
    let plan = plan_query(catalog, db, sql).unwrap();

    let mut enc_ctx = ExecContext::new(store.clone()).with_parallelism(parallelism);
    if let Some(c) = cache {
        enc_ctx = enc_ctx.with_chunk_cache(c);
    }
    let enc = execute(&plan, &enc_ctx).unwrap();

    let ref_ctx = ExecContext::new(store.clone()).with_parallelism(parallelism);
    let refb = scalar::execute(&plan, &ref_ctx).unwrap();

    assert_rows_identical(&ordered_rows(&enc), &ordered_rows(&refb), label);

    let (em, rm) = (enc_ctx.metrics.snapshot(), ref_ctx.metrics.snapshot());
    assert_eq!(
        em.bytes_scanned, rm.bytes_scanned,
        "{label}: billed bytes diverged from scalar path"
    );
    assert_eq!(em.rows_scanned, rm.rows_scanned, "{label}: rows scanned");
}

#[test]
fn tpch_templates_bit_identical_across_pipeline_modes() {
    let (catalog, store) = tpch_fixture();
    let queries: Vec<_> = all_queries()
        .into_iter()
        .filter(|q| q.database == "tpch")
        .collect();
    assert!(queries.len() >= 5, "expected several TPC-H templates");

    // One shared cache reused across all templates: later templates run
    // against a warm (and eventually evicting) cache, which must never show
    // up in results or bills.
    let shared_cache = ChunkCache::shared(4 << 20);
    for q in &queries {
        for parallelism in [1usize, 4] {
            let label = format!("{} @p{parallelism}", q.id);
            assert_differential(
                &catalog,
                &store,
                "tpch",
                q.sql,
                parallelism,
                None,
                &format!("{label} cache=off"),
            );
            assert_differential(
                &catalog,
                &store,
                "tpch",
                q.sql,
                parallelism,
                Some(shared_cache.clone()),
                &format!("{label} cache=shared"),
            );
        }
    }
    // The cache must have actually been exercised for the warm runs to mean
    // anything.
    assert!(
        shared_cache.hits() > 0,
        "differential never hit the chunk cache"
    );
}

/// One engine's caches, as a `TurboEngine` holds them: every context it
/// makes shares one footer cache and, unless off, one chunk cache.
struct Engine {
    store: ObjectStoreRef,
    footers: Arc<FooterCache>,
    chunks: Option<Arc<ChunkCache>>,
}

impl Engine {
    fn new(store: &ObjectStoreRef, chunk_cache_bytes: u64) -> Engine {
        Engine {
            store: store.clone(),
            footers: FooterCache::shared(),
            chunks: (chunk_cache_bytes > 0).then(|| ChunkCache::shared(chunk_cache_bytes)),
        }
    }

    fn ctx(&self, parallelism: usize) -> ExecContext {
        let ctx = ExecContext::new(self.store.clone())
            .with_parallelism(parallelism)
            .with_footer_cache(self.footers.clone());
        match &self.chunks {
            Some(cache) => ctx.with_chunk_cache(cache.clone()),
            None => ctx,
        }
    }

    /// Rows in order and billed bytes of one run of `sql`, or its error.
    fn run(
        &self,
        catalog: &Catalog,
        db: &str,
        sql: &str,
        p: usize,
    ) -> Result<(Vec<Vec<Value>>, u64)> {
        let plan = plan_query(catalog, db, sql)?;
        let ctx = self.ctx(p);
        let batches = execute(&plan, &ctx)?;
        Ok((ordered_rows(&batches), ctx.metrics.snapshot().bytes_scanned))
    }
}

/// A cold engine, the same engine's second run — every chunk now cached
/// with its dictionary or runs parsed — and an engine without a chunk cache
/// agree run for run in rows, order and billed bytes, for every TPC-H
/// template at parallelism 1 and 4; and the cold run agrees with the
/// oracle.
#[test]
fn encoded_scan_differential() {
    let (catalog, store) = tpch_fixture();
    let (mut dictionary_hits, mut rle_hits) = (0, 0);
    for q in all_queries().iter().filter(|q| q.database == "tpch") {
        for p in [1usize, 4] {
            let cached = Engine::new(&store, 64 << 20);
            let off = Engine::new(&store, 0);
            let label = format!("{} @p{p}", q.id);
            let cold = cached.run(&catalog, "tpch", q.sql, p).unwrap();
            let warm = cached.run(&catalog, "tpch", q.sql, p).unwrap();
            let off_first = off.run(&catalog, "tpch", q.sql, p).unwrap();
            let off_second = off.run(&catalog, "tpch", q.sql, p).unwrap();
            assert_rows_identical(&cold.0, &off_first.0, &format!("{label} cold vs off"));
            assert_rows_identical(&warm.0, &off_second.0, &format!("{label} warm vs off"));
            assert_rows_identical(&warm.0, &cold.0, &format!("{label} warm vs cold"));
            assert_eq!(cold.1, off_first.1, "{label}: cold bill");
            assert_eq!(warm.1, off_second.1, "{label}: warm bill");
            assert_differential(&catalog, &store, "tpch", q.sql, p, None, &label);
            let cache = cached.chunks.as_ref().unwrap();
            dictionary_hits += cache.memo_hits(Encoding::Dictionary);
            rle_hits += cache.memo_hits(Encoding::Rle);
        }
    }
    // The warm runs must have borrowed memos for the comparison to mean
    // anything.
    assert!(
        dictionary_hits > 0 && rle_hits > 0,
        "{dictionary_hits} {rle_hits}"
    );
}

/// A table `bad` of one 64-row row group whose dictionary chunk (`tag`)
/// holds a code past its dictionary and whose RLE chunk (`grade`) ends
/// before its runs cover its rows.
fn corrupt_fixture() -> (Arc<Catalog>, ObjectStoreRef) {
    let catalog = Catalog::shared();
    let store: ObjectStoreRef = InMemoryObjectStore::shared();
    catalog.create_database("edge");
    let schema = Arc::new(Schema::new(vec![
        Field::required("tag", DataType::Utf8),
        Field::required("grade", DataType::Int64),
    ]));
    catalog
        .create_table(CreateTable {
            database: "edge".into(),
            name: "bad".into(),
            schema: schema.clone(),
            primary_key: None,
            foreign_keys: vec![],
            comment: None,
        })
        .unwrap();
    let rows: Vec<Vec<Value>> = (0..64i64)
        .map(|i| {
            let tag = ["alpha", "beta", "gamma"][i as usize % 3];
            vec![Value::Utf8(tag.into()), Value::Int64(i / 8)]
        })
        .collect();
    let path = "edge/bad/part-0.pxl";
    let mut w = PixelsWriter::new(store.as_ref(), path, schema.clone());
    w.write_batch(&RecordBatch::from_rows(schema, &rows).unwrap())
        .unwrap();
    let size = w.finish().unwrap();
    let reader = PixelsReader::open(store.as_ref(), path).unwrap();
    let [tag, grade] = &reader.footer().row_groups[0].columns[..] else {
        panic!("two chunks");
    };
    assert_eq!(tag.encoding, Encoding::Dictionary);
    assert_eq!(grade.encoding, Encoding::Rle);
    let mut bytes = store.get(path).unwrap().to_vec();
    // The last byte of the 2-bit codes: rows 60..64 name entry 3 of 3.
    bytes[(tag.offset + tag.len - 1) as usize] = 0xFF;
    // Eight runs of 8 rows, each a 4-byte count and an 8-byte value after
    // the validity flag: the last run now covers 4, so the payload ends 4
    // rows short.
    let last_count = (grade.offset + 1 + 7 * 12) as usize;
    assert_eq!(bytes[last_count..last_count + 4], 8u32.to_le_bytes());
    bytes[last_count..last_count + 4].copy_from_slice(&4u32.to_le_bytes());
    store.put(path, bytes.into()).unwrap();
    catalog
        .register_data_file("edge", "bad", path, reader.footer(), size)
        .unwrap();
    (catalog, store)
}

/// A corrupt dictionary code and a truncated RLE chunk fail the first and
/// the second query on one engine alike, with the text a decode has always
/// given them: a failed parse leaves no memo behind, so the second query
/// parses again and fails again, and the cache charges no memo bytes.
#[test]
fn corrupt_dictionary_and_rle_chunks_fail_every_query() {
    let (catalog, store) = corrupt_fixture();
    let dictionary = "storage error: dictionary code 3 out of range (3 entries)";
    let truncated = "storage error: truncated data: needed 4 bytes, 0 remaining";
    let queries = [
        ("SELECT tag FROM bad", dictionary),
        ("SELECT COUNT(*) FROM bad WHERE tag = 'beta'", dictionary),
        ("SELECT grade FROM bad WHERE grade < 100", truncated),
        ("SELECT grade FROM bad", truncated),
        ("SELECT SUM(grade) FROM bad", truncated),
    ];
    for (sql, expected) in queries {
        for p in [1usize, 4] {
            let engine = Engine::new(&store, 1 << 20);
            let cache = engine.chunks.as_ref().unwrap();
            let mut resident = None;
            for round in 0..2 {
                let err = engine.run(&catalog, "edge", sql, p).unwrap_err();
                assert_eq!(err.to_string(), expected, "{sql} @p{p} round {round}");
                // The chunk is cached as fetched, and stays so.
                assert_eq!(
                    *resident.get_or_insert(cache.resident_bytes()),
                    cache.resident_bytes()
                );
            }
            assert!(cache.hits() > 0, "{sql}: the second query read the cache");
            let memo_hits = cache.memo_hits(Encoding::Dictionary) + cache.memo_hits(Encoding::Rle);
            assert_eq!(memo_hits, 0, "{sql}");
            let plan = plan_query(&catalog, "edge", sql).unwrap();
            let oracle = scalar::execute(&plan, &engine.ctx(p)).unwrap_err();
            assert_eq!(oracle.to_string(), expected, "{sql}, oracle");
        }
    }
}

/// Several conjuncts narrowing one morsel's selection words, then a join's
/// key filter narrowing them further: sparse (q6's ≈ 2 %) and dense (≈ 97 %)
/// selections, conjuncts over plain, RLE and dictionary chunks in either
/// literal orientation and at mixed integer widths, a decoded-batch fallback
/// that errors only on rows an earlier conjunct rejected, and probe scans
/// whose own conjuncts come before the build side's keys.
#[test]
fn multi_conjunct_selections_and_key_filtered_probes_match_the_oracle() {
    let (catalog, store) = tpch_fixture();
    let cache = ChunkCache::shared(4 << 20);
    let queries = [
        // Sparse: q6's four conjuncts (a date range, a float range, a bound).
        "SELECT l_orderkey, l_extendedprice, l_returnflag, l_shipdate FROM lineitem \
         WHERE l_shipdate >= DATE '1994-01-01' AND l_shipdate < DATE '1995-01-01' \
         AND l_discount >= 0.05 AND l_discount <= 0.07 AND l_quantity < 24",
        // Dense: nearly every row passes every conjunct.
        "SELECT l_orderkey, l_quantity, l_tax, l_linestatus FROM lineitem \
         WHERE l_shipdate <= DATE '1998-09-01' AND l_quantity > 1 AND l_returnflag <> 'X'",
        // Flipped literals, an Int32 column against an integer literal, a
        // dictionary equality and a float inequality.
        "SELECT l_linenumber, l_discount, l_receiptdate FROM lineitem \
         WHERE 10 < l_quantity AND DATE '1997-01-01' > l_shipdate \
         AND l_linenumber <= 4 AND l_linestatus = 'F' AND l_discount <> 0.0",
        // A kernel fails on `l_linenumber = 1` rows, which the first conjunct
        // rejected: the row loop then runs on the rows still kept, and the
        // decoded-batch fallback (`LIKE`) on what is left after it.
        "SELECT l_orderkey, l_linenumber FROM lineitem \
         WHERE l_linenumber > 1 AND 100 / (l_linenumber - 1) > 20 \
         AND l_returnflag LIKE 'R%' AND l_extendedprice > 1000",
        // Key-filtered probes: the build side's exact key set after the
        // probe scan's own conjuncts, sparse and dense.
        "SELECT l_orderkey, l_extendedprice, l_discount FROM lineitem \
         JOIN orders ON l_orderkey = o_orderkey \
         WHERE o_orderdate < DATE '1993-01-01' AND l_quantity < 30",
        "SELECT l_orderkey, l_linenumber, o_totalprice FROM lineitem \
         JOIN orders ON l_orderkey = o_orderkey \
         WHERE o_orderpriority = '1-URGENT' AND l_shipdate > DATE '1992-03-01'",
        "SELECT c_name, o_orderkey FROM orders JOIN customer ON o_custkey = c_custkey \
         WHERE c_mktsegment = 'BUILDING' AND o_totalprice > 1000",
        // Negative floats compared in place: `f64::total_cmp` order, not the
        // order of their bits as integers.
        "SELECT c_custkey, c_acctbal FROM customer WHERE c_acctbal < -500.0",
        "SELECT c_custkey FROM customer WHERE c_acctbal >= -0.0 AND -250.5 < c_acctbal",
    ];
    for sql in queries {
        for parallelism in [1usize, 4] {
            for (label, cache) in [("off", None), ("shared", Some(cache.clone()))] {
                assert_differential(
                    &catalog,
                    &store,
                    "tpch",
                    sql,
                    parallelism,
                    cache,
                    &format!("{sql} @p{parallelism} cache={label}"),
                );
            }
        }
    }
}

/// A key filter on a plain 32-bit key (a date) reads the key in place and
/// drops rows, and what it keeps joins exactly as the oracle's full scan.
#[test]
fn a_date_key_filter_drops_rows_read_in_place() {
    let (catalog, store) = tpch_fixture();
    let sql = "SELECT l_orderkey, l_shipdate, o_orderkey FROM lineitem \
               JOIN orders ON l_shipdate = o_orderdate WHERE o_orderkey < 200";
    assert_differential(&catalog, &store, "tpch", sql, 1, None, sql);
    let plan = plan_query(&catalog, "tpch", sql).unwrap();
    let ctx = ExecContext::new(store.clone());
    execute(&plan, &ctx).unwrap();
    let pipeline = ctx.metrics.pipeline_snapshot();
    assert!(
        0 < pipeline.join_filter_dropped
            && pipeline.join_filter_dropped < pipeline.join_filter_rows,
        "{pipeline:?}"
    );
}

/// A chunk whose validity flag is neither 0 nor 1 is corrupt on every path
/// that reads it: the table scan with and without a filter, the encoded
/// grand total, the oracle's decode-everything read and the reader's own.
/// (A flag of 2 used to mean "no validity", and a plain Int64 chunk then
/// read its bitmap byte as the first byte of its values, with no error.)
#[test]
fn corrupt_validity_flag_fails_every_scan_path() {
    let catalog = Catalog::shared();
    let store: ObjectStoreRef = InMemoryObjectStore::shared();
    catalog.create_database("edge");
    let schema = Arc::new(Schema::new(vec![
        Field::nullable("v", DataType::Int64),
        Field::required("w", DataType::Int64),
    ]));
    catalog
        .create_table(CreateTable {
            database: "edge".into(),
            name: "t".into(),
            schema: schema.clone(),
            primary_key: None,
            foreign_keys: vec![],
            comment: None,
        })
        .unwrap();
    let rows: Vec<Vec<Value>> = (0..64i64)
        .map(|i| {
            let v = if i % 9 == 0 {
                Value::Null
            } else {
                Value::Int64(i * 7919 % 1009)
            };
            vec![v, Value::Int64(i)]
        })
        .collect();
    let path = "edge/t/part-0.pxl";
    let mut w = PixelsWriter::new(store.as_ref(), path, schema.clone());
    w.write_batch(&RecordBatch::from_rows(schema, &rows).unwrap())
        .unwrap();
    let size = w.finish().unwrap();
    let reader = PixelsReader::open(store.as_ref(), path).unwrap();
    let chunk = &reader.footer().row_groups[0].columns[0];
    assert_eq!(chunk.encoding, Encoding::Plain);
    let mut bytes = store.get(path).unwrap().to_vec();
    assert_eq!(bytes[chunk.offset as usize], 1, "a validity bitmap follows");
    bytes[chunk.offset as usize] = 2;
    store.put(path, bytes.into()).unwrap();
    catalog
        .register_data_file("edge", "t", path, reader.footer(), size)
        .unwrap();

    let expected = "storage error: corrupt validity flag 2 in a chunk header";
    let reader = PixelsReader::open(store.as_ref(), path).unwrap();
    assert_eq!(
        reader.read_row_group(0, None).unwrap_err().to_string(),
        expected
    );
    for sql in [
        "SELECT v FROM t",
        "SELECT v, w FROM t WHERE w > 3",
        "SELECT w FROM t WHERE v > 100",
        "SELECT COUNT(v), SUM(v) FROM t",
    ] {
        let plan = plan_query(&catalog, "edge", sql).unwrap();
        for parallelism in [1usize, 4] {
            let ctx = || ExecContext::new(store.clone()).with_parallelism(parallelism);
            let err = execute(&plan, &ctx()).expect_err(sql);
            assert_eq!(err.to_string(), expected, "{sql}");
            let err = scalar::execute(&plan, &ctx()).expect_err(sql);
            assert_eq!(err.to_string(), expected, "{sql}, oracle");
        }
    }
}

#[test]
fn warm_chunk_cache_changes_neither_bills_nor_results_across_service_levels() {
    // Two engines over the same data: one with the chunk cache, one without.
    // After warming, every service level must price a query identically on
    // both — cache hits skip GETs, never billing.
    let catalog = Catalog::shared();
    let store: ObjectStoreRef = InMemoryObjectStore::shared();
    load_tpch(
        &catalog,
        store.as_ref(),
        "tpch",
        &TpchConfig {
            scale: 0.001,
            seed: 11,
            row_group_rows: 128,
            files_per_table: 1,
        },
    )
    .unwrap();
    let mk_server = |chunk_cache_bytes: u64| {
        QueryServer::new(
            Arc::new(TurboEngine::new(
                catalog.clone(),
                store.clone(),
                EngineConfig {
                    chunk_cache_bytes,
                    ..EngineConfig::default()
                },
            )),
            PriceSchedule::default(),
        )
    };
    let cached = mk_server(16 << 20);
    let uncached = mk_server(0);

    let sql = "SELECT o_orderstatus, COUNT(*) FROM orders \
               WHERE o_totalprice > 1000 GROUP BY o_orderstatus ORDER BY o_orderstatus";
    let run = |server: &QueryServer, level: ServiceLevel| {
        let id = server.submit(QuerySubmission {
            database: "tpch".into(),
            sql: sql.into(),
            level,
            result_limit: None,
            tenant: None,
            deadline_us: None,
        });
        let info = server.wait(id).unwrap();
        assert_eq!(info.status, QueryStatus::Finished, "{:?}", info.error);
        (info.result.unwrap(), info.scan_bytes, info.price)
    };

    for level in [
        ServiceLevel::Immediate,
        ServiceLevel::Relaxed,
        ServiceLevel::BestEffort,
    ] {
        // First runs warm the footer caches (and, on `cached`, the chunk
        // cache); the comparison runs are footer-warm on both sides, so the
        // only difference left is chunk-cache residency.
        run(&cached, level);
        run(&uncached, level);
        let (warm_batch, warm_bytes, warm_price) = run(&cached, level);
        let (cold_batch, cold_bytes, cold_price) = run(&uncached, level);
        assert_eq!(
            warm_bytes, cold_bytes,
            "{level:?}: chunk-cache hits changed bytes_scanned"
        );
        assert!(
            (warm_price - cold_price).abs() < 1e-12,
            "{level:?}: chunk-cache hits changed the bill ({warm_price} vs {cold_price})"
        );
        assert_rows_identical(
            &ordered_rows(std::slice::from_ref(&warm_batch)),
            &ordered_rows(std::slice::from_ref(&cold_batch)),
            &format!("{level:?} warm-vs-cold"),
        );
    }
}

// ---------------------------------------------------------------------------
// Encoding edge cases on a purpose-built table.
// ---------------------------------------------------------------------------

/// A table whose columns hit every encoding the reader supports:
/// - `tag`: low-cardinality nullable Utf8 → Dictionary, with NULL runs
/// - `grade`: runs of equal Int64 values, nullable → RLE with NULL runs
/// - `uniq`: distinct Int64 per row → Plain (the non-dictionary column)
/// - `temp`: Float64 with runs, NaN and signed zeros → RLE or Plain
/// - `flat`: the same single value in every row → single-value chunks
/// - `seq`: the row's index, so a filter can keep whole 64-row morsels
fn edge_fixture() -> (Arc<Catalog>, ObjectStoreRef) {
    let catalog = Catalog::shared();
    let store: ObjectStoreRef = InMemoryObjectStore::shared();
    catalog.create_database("edge");
    let schema = Arc::new(Schema::new(vec![
        Field::nullable("tag", DataType::Utf8),
        Field::nullable("grade", DataType::Int64),
        Field::required("uniq", DataType::Int64),
        Field::nullable("temp", DataType::Float64),
        Field::required("flat", DataType::Int64),
        Field::required("seq", DataType::Int64),
    ]));
    let mut rows: Vec<Vec<Value>> = Vec::new();
    for i in 0..400i64 {
        let tag = match (i / 16) % 4 {
            0 => Value::Utf8("alpha".into()),
            1 => Value::Null, // a 16-row NULL run inside dictionary chunks
            2 => Value::Utf8("beta".into()),
            _ => Value::Utf8("gamma".into()),
        };
        let grade = if (i / 32) % 3 == 2 {
            Value::Null // 32-row NULL runs inside RLE chunks
        } else {
            Value::Int64(i / 8) // 8-row value runs
        };
        let temp = match i % 64 {
            63 => Value::Float64(f64::NAN),
            62 => Value::Float64(-0.0),
            61 => Value::Null,
            _ => Value::Float64((i / 4) as f64 * 0.5),
        };
        rows.push(vec![
            tag,
            grade,
            Value::Int64(i * 7919 % 10007), // distinct-ish: Plain
            temp,
            Value::Int64(42),
            Value::Int64(i),
        ]);
    }
    let batch = RecordBatch::from_rows(schema.clone(), &rows).unwrap();
    catalog
        .create_table(CreateTable {
            database: "edge".into(),
            name: "mix".into(),
            schema: schema.clone(),
            primary_key: None,
            foreign_keys: vec![],
            comment: None,
        })
        .unwrap();
    let path = "edge/mix/part-0.pxl";
    let mut w = PixelsWriter::with_row_group_rows(store.as_ref(), path, schema, 64);
    w.write_batch(&batch).unwrap();
    let size = w.finish().unwrap();
    let reader = PixelsReader::open(store.as_ref(), path).unwrap();
    catalog
        .register_data_file("edge", "mix", path, reader.footer(), size)
        .unwrap();

    // An empty table, for schema-preserving empty scans.
    let empty_schema = Arc::new(Schema::new(vec![
        Field::required("a", DataType::Int64),
        Field::nullable("b", DataType::Utf8),
    ]));
    catalog
        .create_table(CreateTable {
            database: "edge".into(),
            name: "vacant".into(),
            schema: empty_schema.clone(),
            primary_key: None,
            foreign_keys: vec![],
            comment: None,
        })
        .unwrap();
    let path = "edge/vacant/part-0.pxl";
    let w = PixelsWriter::new(store.as_ref(), path, empty_schema);
    let size = w.finish().unwrap();
    let reader = PixelsReader::open(store.as_ref(), path).unwrap();
    catalog
        .register_data_file("edge", "vacant", path, reader.footer(), size)
        .unwrap();

    (catalog, store)
}

/// Verify the fixture actually produced the encodings the tests assume.
#[test]
fn edge_fixture_hits_dictionary_rle_and_plain() {
    let (_, store) = edge_fixture();
    let reader = PixelsReader::open(store.as_ref(), "edge/mix/part-0.pxl").unwrap();
    let encoding_of = |col: usize| reader.footer().row_groups[0].columns[col].encoding;
    assert_eq!(encoding_of(0), Encoding::Dictionary, "tag");
    assert_eq!(encoding_of(1), Encoding::Rle, "grade");
    assert_eq!(encoding_of(2), Encoding::Plain, "uniq");
    assert_eq!(encoding_of(4), Encoding::Rle, "flat (single value)");
}

#[test]
fn encoding_edge_cases_match_the_oracle() {
    let (catalog, store) = edge_fixture();
    let cache = ChunkCache::shared(1 << 20);
    let queries = [
        // Dictionary predicates, both literal orientations, on NULL runs.
        "SELECT tag, uniq FROM mix WHERE tag = 'beta'",
        "SELECT tag, uniq FROM mix WHERE 'beta' <= tag",
        "SELECT tag, uniq FROM mix WHERE tag <> 'alpha'",
        "SELECT tag, uniq FROM mix WHERE tag < 'b'",
        "SELECT COUNT(*) FROM mix WHERE tag IS NULL",
        "SELECT COUNT(*) FROM mix WHERE tag IS NOT NULL",
        // RLE predicates and run-level aggregation over NULL runs.
        "SELECT grade, uniq FROM mix WHERE grade = 10",
        "SELECT grade FROM mix WHERE grade >= 40",
        "SELECT COUNT(*), COUNT(grade), SUM(grade), MIN(grade), MAX(grade), AVG(grade) FROM mix",
        // Predicate on the Plain (non-dictionary) column.
        "SELECT uniq FROM mix WHERE uniq < 500",
        "SELECT SUM(uniq), MIN(uniq), MAX(uniq) FROM mix",
        // Float aggregates over NaN / -0.0 / NULLs (bit-identical order).
        "SELECT SUM(temp), MIN(temp), MAX(temp), AVG(temp), COUNT(temp) FROM mix",
        "SELECT temp FROM mix WHERE temp > 20.0",
        "SELECT temp FROM mix WHERE temp = 0.0",
        // Single-value chunks: zone shortcut (must_match) and equality.
        "SELECT COUNT(*) FROM mix WHERE flat = 42",
        "SELECT COUNT(*) FROM mix WHERE flat > 0",
        "SELECT SUM(flat), MIN(flat), MAX(flat) FROM mix",
        // Always-false residual and all-pruned zone ranges.
        "SELECT tag, uniq FROM mix WHERE tag = 'delta'",
        "SELECT uniq FROM mix WHERE uniq > 1000000",
        "SELECT COUNT(*), SUM(grade) FROM mix WHERE uniq > 1000000",
        // Mixed conjunctions across encodings.
        "SELECT tag, grade, uniq FROM mix WHERE tag = 'alpha' AND grade >= 2 AND uniq < 9000",
        // Empty table.
        "SELECT a, b FROM vacant",
        "SELECT COUNT(*), SUM(a), MIN(b) FROM vacant",
        // Aggregates fed by the scan a morsel at a time: a filter that keeps
        // every row of morsels 1, 3 and 5 and none of the others, which the
        // zone maps cannot prune.
        "SELECT tag, COUNT(*), COUNT(grade), SUM(temp), AVG(grade), MIN(uniq), MAX(tag) \
         FROM mix WHERE seq % 128 >= 64 GROUP BY tag",
        "SELECT SUM(temp), COUNT(tag), AVG(uniq) FROM mix WHERE seq % 128 >= 64",
        // A filter that keeps no row of any scanned morsel: still one row.
        "SELECT COUNT(*), COUNT(tag), SUM(temp), MIN(tag), AVG(grade) FROM mix WHERE seq % 7 = 9",
        "SELECT tag, COUNT(*) FROM mix WHERE seq % 7 = 9 GROUP BY tag",
        // A filtered grand total over an RLE column: not the unfiltered fold.
        "SELECT COUNT(grade), SUM(grade), MIN(grade), MAX(grade), AVG(grade) FROM mix \
         WHERE seq % 3 = 0",
        // COUNT of a column with NULLs, COUNT(DISTINCT), MIN/MAX of a string
        // and AVG, with and without group keys.
        "SELECT COUNT(tag), MIN(tag), MAX(tag), AVG(temp), COUNT(temp), AVG(grade) FROM mix",
        "SELECT COUNT(tag), COUNT(DISTINCT tag), COUNT(DISTINCT grade), MIN(tag), AVG(temp) \
         FROM mix",
        "SELECT flat, COUNT(tag), COUNT(DISTINCT tag), MIN(tag), MAX(tag), AVG(temp) FROM mix \
         GROUP BY flat",
        "SELECT grade, COUNT(*), SUM(temp), MAX(tag) FROM mix WHERE uniq > 100 GROUP BY grade",
    ];
    for sql in queries {
        for parallelism in [1usize, 2, 4] {
            let label = format!("{sql} @p{parallelism}");
            assert_differential(
                &catalog,
                &store,
                "edge",
                sql,
                parallelism,
                None,
                &format!("{label} cache=off"),
            );
            assert_differential(
                &catalog,
                &store,
                "edge",
                sql,
                parallelism,
                Some(cache.clone()),
                &format!("{label} cache=shared"),
            );
        }
    }
}

#[test]
fn all_pruned_and_always_false_scans_keep_schema() {
    let (catalog, store) = edge_fixture();
    for sql in [
        "SELECT uniq, tag FROM mix WHERE uniq > 1000000", // all row groups pruned
        "SELECT uniq, tag FROM mix WHERE tag = 'delta'",  // residual kills every row
        "SELECT a, b FROM vacant",                        // zero-row file
    ] {
        let plan = plan_query(&catalog, "edge", sql).unwrap();
        let ctx = ExecContext::new(store.clone());
        let batches = execute(&plan, &ctx).unwrap();
        assert_eq!(batches.len(), 1, "{sql}: one schema-carrying batch");
        assert_eq!(batches[0].num_rows(), 0, "{sql}");
        assert_eq!(
            batches[0].schema().len(),
            plan.schema().len(),
            "{sql}: schema preserved"
        );
    }
}

#[test]
fn sum_overflow_errors_on_both_paths() {
    let catalog = Catalog::shared();
    let store: ObjectStoreRef = InMemoryObjectStore::shared();
    catalog.create_database("edge");
    let schema = Arc::new(Schema::new(vec![Field::required("big", DataType::Int64)]));
    // Runs of i64::MAX/2: the second run element overflows the sum, on the
    // RLE fast path (i128 endpoint check) and the per-row path alike.
    let rows: Vec<Vec<Value>> = (0..64).map(|_| vec![Value::Int64(i64::MAX / 2)]).collect();
    let batch = RecordBatch::from_rows(schema.clone(), &rows).unwrap();
    catalog
        .create_table(CreateTable {
            database: "edge".into(),
            name: "huge".into(),
            schema: schema.clone(),
            primary_key: None,
            foreign_keys: vec![],
            comment: None,
        })
        .unwrap();
    let path = "edge/huge/part-0.pxl";
    let mut w = PixelsWriter::with_row_group_rows(store.as_ref(), path, schema, 64);
    w.write_batch(&batch).unwrap();
    let size = w.finish().unwrap();
    let reader = PixelsReader::open(store.as_ref(), path).unwrap();
    catalog
        .register_data_file("edge", "huge", path, reader.footer(), size)
        .unwrap();

    let plan = plan_query(&catalog, "edge", "SELECT SUM(big) FROM huge").unwrap();
    let enc = execute(&plan, &ExecContext::new(store.clone())).unwrap_err();
    let oracle = scalar::execute(&plan, &ExecContext::new(store.clone())).unwrap_err();
    assert!(enc.to_string().contains("SUM overflow"), "{enc}");
    assert!(oracle.to_string().contains("SUM overflow"), "{oracle}");
}

/// The scan's errors come before the aggregate's, as if the whole scan had
/// run first: a table whose first row group overflows an Int64 SUM and
/// whose second holds a truncated RLE chunk fails every grouped or filtered
/// SUM over it with the storage error, on the engine and on the oracle, at
/// every parallelism.
#[test]
fn a_later_scan_error_beats_an_earlier_sum_overflow() {
    let catalog = Catalog::shared();
    let store: ObjectStoreRef = InMemoryObjectStore::shared();
    catalog.create_database("edge");
    let schema = Arc::new(Schema::new(vec![
        Field::required("k", DataType::Int64),
        Field::required("big", DataType::Int64),
    ]));
    catalog
        .create_table(CreateTable {
            database: "edge".into(),
            name: "t".into(),
            schema: schema.clone(),
            primary_key: None,
            foreign_keys: vec![],
            comment: None,
        })
        .unwrap();
    // Row group 0: one run of i64::MAX / 2, which overflows on its third
    // row. Row group 1: eight runs of 8 rows.
    let rows: Vec<Vec<Value>> = (0..128i64)
        .map(|i| {
            let big = if i < 64 { i64::MAX / 2 } else { i / 8 };
            vec![Value::Int64(i % 2), Value::Int64(big)]
        })
        .collect();
    let path = "edge/t/part-0.pxl";
    let mut w = PixelsWriter::with_row_group_rows(store.as_ref(), path, schema.clone(), 64);
    w.write_batch(&RecordBatch::from_rows(schema, &rows).unwrap())
        .unwrap();
    let size = w.finish().unwrap();
    let reader = PixelsReader::open(store.as_ref(), path).unwrap();
    let big = &reader.footer().row_groups[1].columns[1];
    assert_eq!(big.encoding, Encoding::Rle);
    let mut bytes = store.get(path).unwrap().to_vec();
    // The last of eight 12-byte runs after the validity flag now covers 4
    // rows, so the payload ends 4 rows short.
    let last_count = (big.offset + 1 + 7 * 12) as usize;
    assert_eq!(bytes[last_count..last_count + 4], 8u32.to_le_bytes());
    bytes[last_count..last_count + 4].copy_from_slice(&4u32.to_le_bytes());
    store.put(path, bytes.into()).unwrap();
    catalog
        .register_data_file("edge", "t", path, reader.footer(), size)
        .unwrap();

    let expected = "storage error: truncated data: needed 4 bytes, 0 remaining";
    for sql in [
        "SELECT k, SUM(big) FROM t GROUP BY k",
        "SELECT SUM(big) FROM t WHERE k >= 0",
        "SELECT SUM(big + 1) FROM t",
    ] {
        let plan = plan_query(&catalog, "edge", sql).unwrap();
        for parallelism in [1usize, 2, 4] {
            let ctx = || ExecContext::new(store.clone()).with_parallelism(parallelism);
            let err = execute(&plan, &ctx()).expect_err(sql);
            assert_eq!(err.to_string(), expected, "{sql} @p{parallelism}");
            let err = scalar::execute(&plan, &ctx()).expect_err(sql);
            assert_eq!(err.to_string(), expected, "{sql} @p{parallelism}, oracle");
        }
    }
}

/// A registered data file overwritten by one with fewer columns than the
/// catalog lists: the plan's column indices no longer fit the file. Every
/// scan shape reports that as an error — through `execute`, through the
/// oracle, and through the server, where the query must reach `Failed`
/// rather than stay `Running` behind a dead thread.
#[test]
fn narrower_file_than_catalog_is_an_error_not_a_panic() {
    let catalog = Catalog::shared();
    let store: ObjectStoreRef = InMemoryObjectStore::shared();
    catalog.create_database("edge");
    let wide = Arc::new(Schema::new(vec![
        Field::required("a", DataType::Int64),
        Field::required("b", DataType::Int64),
    ]));
    catalog
        .create_table(CreateTable {
            database: "edge".into(),
            name: "t".into(),
            schema: wide.clone(),
            primary_key: None,
            foreign_keys: vec![],
            comment: None,
        })
        .unwrap();
    let path = "edge/t/part-0.pxl";
    let rows: Vec<Vec<Value>> = (0..8)
        .map(|i| vec![Value::Int64(i), Value::Int64(i)])
        .collect();
    let mut w = PixelsWriter::new(store.as_ref(), path, wide.clone());
    w.write_batch(&RecordBatch::from_rows(wide, &rows).unwrap())
        .unwrap();
    let size = w.finish().unwrap();
    let reader = PixelsReader::open(store.as_ref(), path).unwrap();
    catalog
        .register_data_file("edge", "t", path, reader.footer(), size)
        .unwrap();

    let narrow = Arc::new(Schema::new(vec![Field::required("a", DataType::Int64)]));
    let rows: Vec<Vec<Value>> = (0..8).map(|i| vec![Value::Int64(i)]).collect();
    let mut w = PixelsWriter::new(store.as_ref(), path, narrow.clone());
    w.write_batch(&RecordBatch::from_rows(narrow, &rows).unwrap())
        .unwrap();
    w.finish().unwrap();

    let queries = [
        "SELECT b FROM t",
        "SELECT b FROM t WHERE b > 1",
        "SELECT SUM(b) FROM t",
    ];
    for sql in queries {
        let plan = plan_query(&catalog, "edge", sql).unwrap();
        for parallelism in [1usize, 4] {
            let ctx = || ExecContext::new(store.clone()).with_parallelism(parallelism);
            let err = execute(&plan, &ctx()).expect_err(sql);
            assert!(err.to_string().contains("column 1"), "{sql}: {err}");
            scalar::execute(&plan, &ctx()).expect_err(sql);
        }
    }

    let server = QueryServer::new(
        Arc::new(TurboEngine::new(
            catalog.clone(),
            store.clone(),
            EngineConfig::default(),
        )),
        PriceSchedule::default(),
    );
    for sql in queries {
        let id = server.submit(QuerySubmission {
            database: "edge".into(),
            sql: sql.into(),
            level: ServiceLevel::Immediate,
            result_limit: None,
            tenant: None,
            deadline_us: None,
        });
        let info = server.wait(id).unwrap();
        assert_eq!(info.status, QueryStatus::Failed, "{sql}");
        assert!(info.error.is_some(), "{sql}");
    }
}
