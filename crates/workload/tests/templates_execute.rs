//! Every query template must execute successfully (and sensibly) against
//! freshly generated data — this pins the generator, the SQL dialect, and
//! the engine together.

use pixels_catalog::Catalog;
use pixels_exec::run_query;
use pixels_storage::InMemoryObjectStore;
use pixels_workload::{all_queries, load_tpch, load_weblog, QueryClass, TpchConfig, WeblogConfig};

fn setup() -> (Catalog, pixels_storage::ObjectStoreRef) {
    let catalog = Catalog::new();
    let store = InMemoryObjectStore::shared();
    load_tpch(
        &catalog,
        store.as_ref(),
        "tpch",
        &TpchConfig {
            scale: 0.001,
            seed: 42,
            row_group_rows: 1024,
            files_per_table: 1,
        },
    )
    .unwrap();
    load_weblog(
        &catalog,
        store.as_ref(),
        "logs",
        &WeblogConfig {
            rows: 2000,
            seed: 7,
            row_group_rows: 512,
        },
    )
    .unwrap();
    (catalog, store)
}

#[test]
fn every_template_executes() {
    let (catalog, store) = setup();
    for q in all_queries() {
        let result = run_query(&catalog, store.clone(), q.database, q.sql);
        let batch = result.unwrap_or_else(|e| panic!("{} failed: {e}", q.id));
        // Aggregation queries must produce at least one row; lookups may be
        // empty but must keep their declared column count.
        assert!(batch.num_columns() > 0, "{} produced no columns", q.id);
    }
}

#[test]
fn q1_is_consistent_with_manual_aggregation() {
    let (catalog, store) = setup();
    let q1 = pixels_workload::query_by_id("q1_pricing_summary").unwrap();
    let result = run_query(&catalog, store.clone(), "tpch", q1.sql).unwrap();
    assert!(
        result.num_rows() >= 3,
        "expected several flag/status groups"
    );

    // COUNT across groups == total qualifying rows.
    let total: i64 = result
        .to_rows()
        .iter()
        .map(|r| r.last().unwrap().as_i64().unwrap())
        .sum();
    let check = run_query(
        &catalog,
        store,
        "tpch",
        "SELECT COUNT(*) FROM lineitem WHERE l_shipdate <= DATE '1998-09-02'",
    )
    .unwrap();
    assert_eq!(total, check.row(0)[0].as_i64().unwrap());
}

#[test]
fn join_queries_respect_filters() {
    let (catalog, store) = setup();
    let r = run_query(
        &catalog,
        store,
        "tpch",
        "SELECT COUNT(*) FROM customer JOIN nation ON c_nationkey = n_nationkey \
         JOIN region ON n_regionkey = r_regionkey WHERE r_name = 'ASIA'",
    )
    .unwrap();
    let asia = r.row(0)[0].as_i64().unwrap();
    assert!(asia > 0, "some customers should be in ASIA");
    assert!(asia < 150, "but not all of them");
}

#[test]
fn classes_cover_all_levels() {
    let qs = all_queries();
    for class in QueryClass::ALL {
        assert!(
            qs.iter().any(|q| q.class == class),
            "no template with class {class:?}"
        );
    }
}

#[test]
fn multi_file_tables_scan_identically() {
    // The same data split across 4 files per table must give identical
    // query results and register all paths.
    let single = {
        let catalog = Catalog::new();
        let store = InMemoryObjectStore::shared();
        load_tpch(
            &catalog,
            store.as_ref(),
            "tpch",
            &TpchConfig {
                scale: 0.001,
                seed: 42,
                row_group_rows: 512,
                files_per_table: 1,
            },
        )
        .unwrap();
        run_query(&catalog, store, "tpch",
            "SELECT o_orderstatus, COUNT(*), SUM(o_totalprice) FROM orders GROUP BY o_orderstatus ORDER BY o_orderstatus")
            .unwrap()
    };
    let multi = {
        let catalog = Catalog::new();
        let store = InMemoryObjectStore::shared();
        load_tpch(
            &catalog,
            store.as_ref(),
            "tpch",
            &TpchConfig {
                scale: 0.001,
                seed: 42,
                row_group_rows: 512,
                files_per_table: 4,
            },
        )
        .unwrap();
        let t = catalog.get_table("tpch", "orders").unwrap();
        assert_eq!(t.paths.len(), 4, "orders split into 4 files");
        run_query(&catalog, store, "tpch",
            "SELECT o_orderstatus, COUNT(*), SUM(o_totalprice) FROM orders GROUP BY o_orderstatus ORDER BY o_orderstatus")
            .unwrap()
    };
    // Keys and counts are exact. Partial sums fold per row group, so the
    // float sum may differ in the last ulps between file layouts (DESIGN.md:
    // bit-identical ints, ulp-bounded float sums); 1e-9 relative is the
    // tolerance `benchmark/golden` uses.
    assert_eq!(single.schema(), multi.schema());
    let (single, multi) = (single.to_rows(), multi.to_rows());
    assert_eq!(single.len(), multi.len());
    for (s, m) in single.iter().zip(&multi) {
        assert_eq!(s[..2], m[..2], "status and count");
        let (s, m) = (s[2].as_f64().unwrap(), m[2].as_f64().unwrap());
        assert!(
            (s - m).abs() <= 1e-9 * s.abs(),
            "SUM(o_totalprice): {s} vs {m}"
        );
    }
}

#[test]
fn weblog_error_rate_query_matches_generator() {
    let (catalog, store) = setup();
    let errors = run_query(
        &catalog,
        store.clone(),
        "logs",
        "SELECT COUNT(*) FROM requests WHERE status >= 500",
    )
    .unwrap()
    .row(0)[0]
        .as_i64()
        .unwrap();
    let total = run_query(&catalog, store, "logs", "SELECT COUNT(*) FROM requests")
        .unwrap()
        .row(0)[0]
        .as_i64()
        .unwrap();
    assert_eq!(total, 2000);
    let frac = errors as f64 / total as f64;
    assert!(frac > 0.005 && frac < 0.06, "5xx fraction {frac}");
}
