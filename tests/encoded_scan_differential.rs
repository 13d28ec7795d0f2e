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
//! Also covers the encoding edge cases end-to-end: NULL runs in dictionary
//! and RLE chunks, single-value chunks, predicates on non-dictionary
//! columns, flipped literal comparisons, IS NULL / IS NOT NULL, always-false
//! predicates (schema-carrying empty batch), all-pruned scans, empty
//! tables, SUM overflow parity, and a data file narrower than its table.

use pixelsdb::catalog::{Catalog, CreateTable};
use pixelsdb::common::{DataType, Field, RecordBatch, Schema, Value};
use pixelsdb::exec::{execute, scalar, ExecContext};
use pixelsdb::planner::plan_query;
use pixelsdb::server::{PriceSchedule, QueryServer, QueryStatus, QuerySubmission, ServiceLevel};
use pixelsdb::storage::{
    ChunkCache, InMemoryObjectStore, ObjectStoreRef, PixelsReader, PixelsWriter,
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
    use pixelsdb::storage::encoding::Encoding;
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
    ];
    for sql in queries {
        for parallelism in [1usize, 4] {
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
