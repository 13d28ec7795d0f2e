//! Differential tests for morsel-driven parallel execution: at every
//! parallelism level the engine must produce the same rows as serial
//! execution AND bill the same number of scanned bytes — parallelism is a
//! latency knob, never a correctness or pricing knob.
//!
//! Rows are compared after a canonical sort (aggregation group order is
//! preserved by the chunk-ordered partial merge, but ORDER BY-less queries
//! make no ordering promise). Float aggregates are compared with a tiny
//! relative tolerance because partial aggregation reassociates additions;
//! everything else must match exactly. A DISTINCT is held to more: its rows
//! come out in first-appearance order at every parallelism, as the scalar
//! oracle has them, unsorted.

use pixelsdb::catalog::Catalog;
use pixelsdb::common::{RecordBatch, Value};
use pixelsdb::exec::{execute, scalar, ExecContext, ExecMetricsSnapshot};
use pixelsdb::planner::plan_query;
use pixelsdb::storage::{InMemoryObjectStore, ObjectStoreRef};
use pixelsdb::workload::{all_queries, load_tpch, TpchConfig};
use std::cmp::Ordering;
use std::sync::Arc;

/// Small scale but many row groups and multiple files per table, so scans
/// produce enough morsels for real fan-out.
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

fn canonical_rows(batches: &[RecordBatch]) -> Vec<Vec<Value>> {
    let mut rows: Vec<Vec<Value>> = batches.iter().flat_map(|b| b.to_rows()).collect();
    rows.sort_by(|a, b| {
        a.iter()
            .zip(b.iter())
            .map(|(x, y)| x.total_cmp(y))
            .find(|o| *o != Ordering::Equal)
            .unwrap_or(Ordering::Equal)
    });
    rows
}

/// Exact equality, except floats may differ by a relative 1e-9 (partial
/// sums reassociate float additions).
fn values_equivalent(a: &Value, b: &Value) -> bool {
    match (a, b) {
        (Value::Float64(x), Value::Float64(y)) => {
            let scale = x.abs().max(y.abs()).max(1.0);
            (x - y).abs() <= 1e-9 * scale
        }
        _ => a == b,
    }
}

fn run_at(
    catalog: &Catalog,
    store: &ObjectStoreRef,
    sql: &str,
    parallelism: usize,
) -> (Vec<Vec<Value>>, ExecMetricsSnapshot) {
    let plan = plan_query(catalog, "tpch", sql).unwrap();
    // Fresh context (and thus fresh footer cache) per run: bytes metered
    // from a cold cache must agree at every parallelism level.
    let ctx = ExecContext::new(store.clone()).with_parallelism(parallelism);
    let batches = execute(&plan, &ctx).unwrap();
    (canonical_rows(&batches), ctx.metrics.snapshot())
}

#[test]
fn parallel_execution_matches_serial_rows_and_billing() {
    let (catalog, store) = tpch_fixture();
    let queries: Vec<_> = all_queries()
        .into_iter()
        .filter(|q| q.database == "tpch")
        .collect();
    assert!(queries.len() >= 5, "expected several TPC-H templates");

    for q in queries {
        let (serial_rows, serial_m) = run_at(&catalog, &store, q.sql, 1);
        for parallelism in [2, 4, 8] {
            let (par_rows, par_m) = run_at(&catalog, &store, q.sql, parallelism);
            assert_eq!(
                serial_rows.len(),
                par_rows.len(),
                "{}: row count diverged at parallelism {parallelism}",
                q.id
            );
            for (i, (sr, pr)) in serial_rows.iter().zip(&par_rows).enumerate() {
                assert!(
                    sr.len() == pr.len()
                        && sr.iter().zip(pr.iter()).all(|(a, b)| values_equivalent(a, b)),
                    "{}: row {i} diverged at parallelism {parallelism}:\n  serial:   {sr:?}\n  parallel: {pr:?}",
                    q.id
                );
            }
            assert_eq!(
                serial_m.bytes_scanned, par_m.bytes_scanned,
                "{}: billed bytes diverged at parallelism {parallelism}",
                q.id
            );
            assert_eq!(
                serial_m.rows_scanned, par_m.rows_scanned,
                "{}: rows scanned diverged at parallelism {parallelism}",
                q.id
            );
            assert_eq!(
                (serial_m.row_groups_total, serial_m.row_groups_read),
                (par_m.row_groups_total, par_m.row_groups_read),
                "{}: pruning diverged at parallelism {parallelism}",
                q.id
            );
        }
    }
}

/// A DISTINCT over a scan and one over a join: at parallelism 1, 2, 4 and 8
/// the same rows in the same (first-appearance) order as the scalar oracle,
/// and the same billed bytes as at parallelism 1.
#[test]
fn distinct_keeps_first_appearance_order_at_every_parallelism() {
    let (catalog, store) = tpch_fixture();
    for sql in [
        "SELECT DISTINCT l_returnflag, l_linestatus, l_linenumber FROM lineitem",
        "SELECT DISTINCT o_orderpriority, c_mktsegment \
         FROM orders JOIN customer ON o_custkey = c_custkey",
    ] {
        let plan = plan_query(&catalog, "tpch", sql).unwrap();
        let rows = |batches: Vec<RecordBatch>| -> Vec<Vec<Value>> {
            batches.iter().flat_map(|b| b.to_rows()).collect()
        };
        let oracle = rows(scalar::execute(&plan, &ExecContext::new(store.clone())).unwrap());
        assert!(oracle.len() > 1, "{sql}: {} rows", oracle.len());
        let mut serial: Option<ExecMetricsSnapshot> = None;
        for parallelism in [1, 2, 4, 8] {
            let ctx = ExecContext::new(store.clone()).with_parallelism(parallelism);
            let got = rows(execute(&plan, &ctx).unwrap());
            assert_eq!(got, oracle, "{sql} at parallelism {parallelism}");
            let m = ctx.metrics.snapshot();
            let serial = serial.get_or_insert(m);
            assert_eq!(
                (m.bytes_scanned, m.rows_scanned),
                (serial.bytes_scanned, serial.rows_scanned),
                "{sql}: billed bytes diverged at parallelism {parallelism}"
            );
        }
    }
}

#[test]
fn footer_cache_shared_across_queries_is_not_double_billed() {
    let (catalog, store) = tpch_fixture();
    let sql = "SELECT COUNT(*) FROM lineitem";
    let plan = plan_query(&catalog, "tpch", sql).unwrap();

    let cold_ctx = ExecContext::new(store.clone());
    execute(&plan, &cold_ctx).unwrap();
    let cold = cold_ctx.metrics.snapshot();
    assert_eq!(cold.footer_cache_hits, 0);

    // Second query shares the first context's footer cache: zero footer
    // GETs against the store, and only chunk bytes are billed.
    let warm_ctx = ExecContext::new(store.clone()).with_footer_cache(cold_ctx.footer_cache.clone());
    let store_before = store.metrics();
    execute(&plan, &warm_ctx).unwrap();
    let warm = warm_ctx.metrics.snapshot();
    let gets = store.metrics().delta_since(&store_before).get_requests;

    assert!(warm.footer_cache_hits > 0, "expected cache hits on reopen");
    assert!(
        warm.bytes_scanned < cold.bytes_scanned,
        "warm run must not re-bill footer bytes: {} vs {}",
        warm.bytes_scanned,
        cold.bytes_scanned
    );
    // Every GET in the warm run is a column chunk; footer ranges were
    // served from the cache. lineitem at this scale: 2 files, each with
    // several row groups of 1 projected... COUNT(*) projects one column.
    let row_groups = warm.row_groups_read;
    assert_eq!(
        gets, row_groups,
        "warm run must issue only chunk GETs (one per projected chunk)"
    );
}
