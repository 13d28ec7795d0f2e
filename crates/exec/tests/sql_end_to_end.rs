//! End-to-end SQL correctness tests: parse → bind → optimize → execute over
//! real Pixels files in an in-memory object store.

use pixels_catalog::{Catalog, CreateTable, ForeignKey};
use pixels_common::{DataType, Field, RecordBatch, Schema, Value};
use pixels_exec::{run_query, ExecContext};
use pixels_storage::{InMemoryObjectStore, ObjectStoreRef, PixelsReader, PixelsWriter};
use std::sync::Arc;

fn v_i(v: i64) -> Value {
    Value::Int64(v)
}
fn v_f(v: f64) -> Value {
    Value::Float64(v)
}
fn v_s(s: &str) -> Value {
    Value::Utf8(s.into())
}

/// A small sales database: customers and orders with known contents.
fn setup() -> (Arc<Catalog>, ObjectStoreRef) {
    let store: ObjectStoreRef = InMemoryObjectStore::shared();
    let catalog = Catalog::shared();

    let customer_schema = Arc::new(Schema::new(vec![
        Field::required("c_id", DataType::Int64),
        Field::required("c_name", DataType::Utf8),
        Field::required("c_nation", DataType::Utf8),
    ]));
    let order_schema = Arc::new(Schema::new(vec![
        Field::required("o_id", DataType::Int64),
        Field::required("o_cid", DataType::Int64),
        Field::required("o_total", DataType::Float64),
        Field::required("o_status", DataType::Utf8),
        Field::nullable("o_note", DataType::Utf8),
        Field::required("o_date", DataType::Date),
    ]));

    catalog
        .create_table(CreateTable {
            database: "sales".into(),
            name: "customer".into(),
            schema: customer_schema.clone(),
            primary_key: Some("c_id".into()),
            foreign_keys: vec![],
            comment: None,
        })
        .unwrap();
    catalog
        .create_table(CreateTable {
            database: "sales".into(),
            name: "orders".into(),
            schema: order_schema.clone(),
            primary_key: Some("o_id".into()),
            foreign_keys: vec![ForeignKey {
                column: "o_cid".into(),
                ref_table: "customer".into(),
                ref_column: "c_id".into(),
            }],
            comment: None,
        })
        .unwrap();

    let customers = RecordBatch::from_rows(
        customer_schema.clone(),
        &[
            vec![v_i(1), v_s("alice"), v_s("FR")],
            vec![v_i(2), v_s("bob"), v_s("DE")],
            vec![v_i(3), v_s("carol"), v_s("FR")],
            vec![v_i(4), v_s("dave"), v_s("US")],
        ],
    )
    .unwrap();
    let d = |s: &str| Value::Date(pixels_common::value::parse_date(s).unwrap());
    let orders = RecordBatch::from_rows(
        order_schema.clone(),
        &[
            vec![
                v_i(100),
                v_i(1),
                v_f(50.0),
                v_s("OPEN"),
                Value::Null,
                d("2024-01-05"),
            ],
            vec![
                v_i(101),
                v_i(1),
                v_f(75.5),
                v_s("DONE"),
                v_s("gift"),
                d("2024-02-11"),
            ],
            vec![
                v_i(102),
                v_i(2),
                v_f(20.0),
                v_s("DONE"),
                Value::Null,
                d("2024-02-20"),
            ],
            vec![
                v_i(103),
                v_i(3),
                v_f(10.0),
                v_s("OPEN"),
                v_s("rush"),
                d("2024-03-02"),
            ],
            vec![
                v_i(104),
                v_i(3),
                v_f(90.0),
                v_s("DONE"),
                Value::Null,
                d("2024-03-15"),
            ],
            vec![
                v_i(105),
                v_i(9),
                v_f(5.0),
                v_s("LOST"),
                Value::Null,
                d("2024-04-01"),
            ],
        ],
    )
    .unwrap();

    for (name, schema, batch) in [
        ("customer", customer_schema, customers),
        ("orders", order_schema, orders),
    ] {
        let path = format!("sales/{name}/0.pxl");
        let mut w = PixelsWriter::with_row_group_rows(store.as_ref(), &path, schema.clone(), 2);
        w.write_batch(&batch).unwrap();
        let size = w.finish().unwrap();
        let reader = PixelsReader::open(store.as_ref(), &path).unwrap();
        catalog
            .register_data_file("sales", name, &path, reader.footer(), size)
            .unwrap();
    }
    (catalog, store)
}

fn run(sql: &str) -> RecordBatch {
    let (catalog, store) = setup();
    run_query(&catalog, store, "sales", sql).unwrap()
}

fn rows(sql: &str) -> Vec<Vec<Value>> {
    run(sql).to_rows()
}

#[test]
fn select_star() {
    let b = run("SELECT * FROM customer");
    assert_eq!(b.num_rows(), 4);
    assert_eq!(b.num_columns(), 3);
    assert_eq!(b.schema().field(0).name, "c_id");
}

#[test]
fn projection_and_alias() {
    let r = rows("SELECT c_name AS who, c_id * 10 AS tens FROM customer WHERE c_id <= 2");
    assert_eq!(
        r,
        vec![vec![v_s("alice"), v_i(10)], vec![v_s("bob"), v_i(20)],]
    );
}

#[test]
fn where_with_and_or() {
    let r = rows("SELECT o_id FROM orders WHERE o_total > 40 AND o_status = 'DONE' OR o_id = 103");
    let ids: Vec<i64> = r.iter().map(|x| x[0].as_i64().unwrap()).collect();
    assert_eq!(ids, vec![101, 103, 104]);
}

#[test]
fn is_null_and_not_null() {
    assert_eq!(
        rows("SELECT COUNT(*) FROM orders WHERE o_note IS NULL"),
        vec![vec![v_i(4)]]
    );
    assert_eq!(
        rows("SELECT COUNT(*) FROM orders WHERE o_note IS NOT NULL"),
        vec![vec![v_i(2)]]
    );
}

#[test]
fn like_and_in() {
    assert_eq!(
        rows("SELECT c_name FROM customer WHERE c_name LIKE '%a%' AND c_nation IN ('FR', 'US')"),
        vec![vec![v_s("alice")], vec![v_s("carol")], vec![v_s("dave")]]
    );
}

#[test]
fn between_dates() {
    let r = rows(
        "SELECT o_id FROM orders WHERE o_date BETWEEN DATE '2024-02-01' AND DATE '2024-03-01'",
    );
    let ids: Vec<i64> = r.iter().map(|x| x[0].as_i64().unwrap()).collect();
    assert_eq!(ids, vec![101, 102]);
}

#[test]
fn extract_year_month() {
    let r = rows("SELECT o_id, EXTRACT(MONTH FROM o_date) FROM orders WHERE EXTRACT(YEAR FROM o_date) = 2024 ORDER BY o_id LIMIT 2");
    assert_eq!(r, vec![vec![v_i(100), v_i(1)], vec![v_i(101), v_i(2)]]);
}

#[test]
fn global_aggregates() {
    let r =
        rows("SELECT COUNT(*), SUM(o_total), MIN(o_total), MAX(o_total), AVG(o_total) FROM orders");
    assert_eq!(r.len(), 1);
    assert_eq!(r[0][0], v_i(6));
    assert_eq!(r[0][1], v_f(250.5));
    assert_eq!(r[0][2], v_f(5.0));
    assert_eq!(r[0][3], v_f(90.0));
    assert_eq!(r[0][4], v_f(250.5 / 6.0));
}

#[test]
fn aggregate_empty_input() {
    let r = rows("SELECT COUNT(*), SUM(o_total) FROM orders WHERE o_id > 9999");
    assert_eq!(r, vec![vec![v_i(0), Value::Null]]);
}

#[test]
fn group_by_with_having_and_order() {
    let r = rows(
        "SELECT o_status, COUNT(*) AS n, SUM(o_total) AS total FROM orders \
         GROUP BY o_status HAVING COUNT(*) > 1 ORDER BY total DESC",
    );
    assert_eq!(
        r,
        vec![
            vec![v_s("DONE"), v_i(3), v_f(185.5)],
            vec![v_s("OPEN"), v_i(2), v_f(60.0)],
        ]
    );
}

#[test]
fn group_by_expression() {
    let r = rows(
        "SELECT EXTRACT(MONTH FROM o_date) AS m, COUNT(*) FROM orders GROUP BY EXTRACT(MONTH FROM o_date) ORDER BY m",
    );
    assert_eq!(
        r,
        vec![
            vec![v_i(1), v_i(1)],
            vec![v_i(2), v_i(2)],
            vec![v_i(3), v_i(2)],
            vec![v_i(4), v_i(1)],
        ]
    );
}

#[test]
fn count_distinct() {
    let r = rows("SELECT COUNT(DISTINCT c_nation) FROM customer");
    assert_eq!(r, vec![vec![v_i(3)]]);
    let r = rows("SELECT COUNT(DISTINCT o_cid), COUNT(o_cid) FROM orders");
    assert_eq!(r, vec![vec![v_i(4), v_i(6)]]);
}

#[test]
fn inner_join() {
    let r = rows(
        "SELECT c_name, o_total FROM customer JOIN orders ON c_id = o_cid \
         WHERE o_status = 'DONE' ORDER BY o_total",
    );
    assert_eq!(
        r,
        vec![
            vec![v_s("bob"), v_f(20.0)],
            vec![v_s("alice"), v_f(75.5)],
            vec![v_s("carol"), v_f(90.0)],
        ]
    );
}

#[test]
fn comma_join_becomes_equi_join() {
    // FROM a, b WHERE a.x = b.y must execute as a hash join and return the
    // same rows as the explicit JOIN.
    let explicit =
        rows("SELECT c_name, o_id FROM customer JOIN orders ON c_id = o_cid ORDER BY o_id");
    let comma = rows("SELECT c_name, o_id FROM customer, orders WHERE c_id = o_cid ORDER BY o_id");
    assert_eq!(explicit, comma);
    assert_eq!(explicit.len(), 5, "order 105 references a missing customer");
}

#[test]
fn left_join_null_extends() {
    let r = rows(
        "SELECT c_name, o_id FROM customer LEFT JOIN orders ON c_id = o_cid AND o_status = 'OPEN' \
         ORDER BY c_name, o_id",
    );
    assert_eq!(
        r,
        vec![
            vec![v_s("alice"), v_i(100)],
            vec![v_s("bob"), Value::Null],
            vec![v_s("carol"), v_i(103)],
            vec![v_s("dave"), Value::Null],
        ]
    );
}

#[test]
fn right_join() {
    let r =
        rows("SELECT c_name, o_id FROM customer RIGHT JOIN orders ON c_id = o_cid ORDER BY o_id");
    assert_eq!(r.len(), 6);
    // Order 105 (customer 9) has no match: c_name is NULL.
    assert_eq!(r[5], vec![Value::Null, v_i(105)]);
}

#[test]
fn cross_join_counts() {
    let r = rows("SELECT COUNT(*) FROM customer CROSS JOIN orders");
    assert_eq!(r, vec![vec![v_i(24)]]);
}

#[test]
fn join_with_aggregation() {
    let r = rows(
        "SELECT c_nation, SUM(o_total) AS t FROM customer JOIN orders ON c_id = o_cid \
         GROUP BY c_nation ORDER BY t DESC",
    );
    assert_eq!(
        r,
        vec![vec![v_s("FR"), v_f(225.5)], vec![v_s("DE"), v_f(20.0)],]
    );
}

#[test]
fn order_by_multiple_keys_and_desc() {
    let r = rows("SELECT o_status, o_total FROM orders ORDER BY o_status, o_total DESC");
    assert_eq!(r[0], vec![v_s("DONE"), v_f(90.0)]);
    assert_eq!(r[2], vec![v_s("DONE"), v_f(20.0)]);
    assert_eq!(r[3], vec![v_s("LOST"), v_f(5.0)]);
}

#[test]
fn order_by_hidden_column() {
    // o_date is not in the select list.
    let r = rows("SELECT o_id FROM orders ORDER BY o_date DESC LIMIT 2");
    assert_eq!(r, vec![vec![v_i(105)], vec![v_i(104)]]);
}

#[test]
fn limit_and_offset() {
    let r = rows("SELECT o_id FROM orders ORDER BY o_id LIMIT 2 OFFSET 3");
    assert_eq!(r, vec![vec![v_i(103)], vec![v_i(104)]]);
    let r = rows("SELECT o_id FROM orders ORDER BY o_id LIMIT 0");
    assert!(r.is_empty());
}

#[test]
fn distinct_rows() {
    let r = rows("SELECT DISTINCT c_nation FROM customer ORDER BY c_nation");
    assert_eq!(r, vec![vec![v_s("DE")], vec![v_s("FR")], vec![v_s("US")]]);
}

#[test]
fn case_expression() {
    let r = rows(
        "SELECT o_id, CASE WHEN o_total >= 50 THEN 'big' ELSE 'small' END AS size \
         FROM orders ORDER BY o_id LIMIT 3",
    );
    assert_eq!(
        r,
        vec![
            vec![v_i(100), v_s("big")],
            vec![v_i(101), v_s("big")],
            vec![v_i(102), v_s("small")],
        ]
    );
}

#[test]
fn scalar_functions_in_query() {
    let r = rows("SELECT UPPER(c_name), LENGTH(c_name) FROM customer WHERE c_id = 1");
    assert_eq!(r, vec![vec![v_s("ALICE"), v_i(5)]]);
    let r = rows("SELECT SUBSTR(c_name, 1, 3) FROM customer WHERE c_id = 3");
    assert_eq!(r, vec![vec![v_s("car")]]);
    let r = rows("SELECT COALESCE(o_note, 'none') FROM orders WHERE o_id = 100");
    assert_eq!(r, vec![vec![v_s("none")]]);
}

#[test]
fn cast_in_query() {
    let r = rows("SELECT CAST(o_total AS BIGINT) FROM orders WHERE o_id = 101");
    assert_eq!(r, vec![vec![v_i(75)]]);
}

#[test]
fn derived_table() {
    let r = rows(
        "SELECT nation, cnt FROM (SELECT c_nation AS nation, COUNT(*) AS cnt \
         FROM customer GROUP BY c_nation) AS sub WHERE cnt > 1",
    );
    assert_eq!(r, vec![vec![v_s("FR"), v_i(2)]]);
}

#[test]
fn select_without_from() {
    assert_eq!(rows("SELECT 1 + 2 AS x"), vec![vec![v_i(3)]]);
    assert_eq!(rows("SELECT 'a' || 'b'"), vec![vec![v_s("ab")]]);
}

#[test]
fn date_arithmetic_in_query() {
    let r = rows("SELECT o_id FROM orders WHERE o_date < DATE '2024-03-01' + 5 ORDER BY o_id");
    let ids: Vec<i64> = r.iter().map(|x| x[0].as_i64().unwrap()).collect();
    assert_eq!(ids, vec![100, 101, 102, 103]);
}

#[test]
fn qualified_columns_and_aliases() {
    let r = rows(
        "SELECT c.c_name, o.o_id FROM customer AS c JOIN orders AS o ON c.c_id = o.o_cid \
         WHERE c.c_nation = 'DE'",
    );
    assert_eq!(r, vec![vec![v_s("bob"), v_i(102)]]);
}

#[test]
fn group_by_ordinal() {
    let r = rows("SELECT c_nation, COUNT(*) FROM customer GROUP BY 1 ORDER BY 1");
    assert_eq!(r.len(), 3);
    assert_eq!(r[1], vec![v_s("FR"), v_i(2)]);
}

#[test]
fn errors_surface_properly() {
    let (catalog, store) = setup();
    for (sql, kind) in [
        ("SELECT nope FROM customer", "plan"),
        ("SELECT * FROM missing_table", "not_found"),
        ("SELECT c_id FROM customer WHERE c_name > 5", "plan"),
        ("SELECT c_name FROM customer GROUP BY c_nation", "plan"),
        ("SELECT SUM(c_name) FROM customer", "plan"),
        ("SELECT 1 +", "parse"),
    ] {
        let err = run_query(&catalog, store.clone(), "sales", sql).unwrap_err();
        assert_eq!(err.kind(), kind, "{sql} -> {err}");
    }
}

#[test]
fn runtime_division_by_zero() {
    let (catalog, store) = setup();
    let err = run_query(&catalog, store, "sales", "SELECT c_id / 0 FROM customer").unwrap_err();
    assert_eq!(err.kind(), "exec");
}

#[test]
fn projection_pruning_reduces_bytes_scanned() {
    let (catalog, store) = setup();
    let plan_narrow =
        pixels_planner::plan_query(&catalog, "sales", "SELECT o_id FROM orders").unwrap();
    let plan_wide = pixels_planner::plan_query(&catalog, "sales", "SELECT * FROM orders").unwrap();

    let ctx1 = ExecContext::new(store.clone());
    pixels_exec::execute(&plan_narrow, &ctx1).unwrap();
    let narrow = ctx1.metrics.snapshot().bytes_scanned;

    let ctx2 = ExecContext::new(store);
    pixels_exec::execute(&plan_wide, &ctx2).unwrap();
    let wide = ctx2.metrics.snapshot().bytes_scanned;

    assert!(
        narrow < wide,
        "narrow scan should read fewer bytes: {narrow} vs {wide}"
    );
}

#[test]
fn zone_map_pruning_skips_row_groups() {
    let (catalog, store) = setup();
    // Row groups of 2 rows; o_id = 105 lives in the last group.
    let plan = pixels_planner::plan_query(
        &catalog,
        "sales",
        "SELECT o_total FROM orders WHERE o_id = 105",
    )
    .unwrap();
    let ctx = ExecContext::new(store);
    let batches = pixels_exec::execute(&plan, &ctx).unwrap();
    let all = RecordBatch::concat(&batches).unwrap();
    assert_eq!(all.num_rows(), 1);
    let m = ctx.metrics.snapshot();
    assert_eq!(m.row_groups_total, 3);
    assert_eq!(m.row_groups_read, 1, "zone maps should prune 2 of 3 groups");
}

#[test]
fn explain_physical_plan_shows_pushdown() {
    let (catalog, _) = setup();
    let plan = pixels_planner::plan_query(
        &catalog,
        "sales",
        "SELECT c_name FROM customer WHERE c_id > 2",
    )
    .unwrap();
    let text = plan.explain();
    assert!(text.contains("PixelsScan"), "{text}");
    assert!(text.contains("zone_preds=1"), "{text}");
}

#[test]
fn explain_prints_a_join_residual() {
    let (catalog, _) = setup();
    let plan = pixels_planner::plan_query(
        &catalog,
        "sales",
        "SELECT c_name, o_total FROM customer JOIN orders ON c_id = o_cid AND o_id > c_id",
    )
    .unwrap();
    let text = plan.explain();
    let join = text.lines().find(|l| l.contains("HashJoin(Inner)"));
    let join = join.unwrap_or_else(|| panic!("no hash join: {text}"));
    assert!(join.contains(" residual=(o_id#"), "{text}");
    assert!(join.contains(" > c_id#"), "{text}");
}

#[test]
fn split_plan_produces_identical_results() {
    use pixels_exec::{execute_collect, materialize};
    let (catalog, store) = setup();
    let sql = "SELECT c_nation, SUM(o_total) AS t FROM customer JOIN orders ON c_id = o_cid \
               GROUP BY c_nation ORDER BY t DESC LIMIT 1";
    let plan = pixels_planner::plan_query(&catalog, "sales", sql).unwrap();

    // Direct execution.
    let ctx = ExecContext::new(store.clone());
    let direct = execute_collect(&plan, &ctx).unwrap();

    // Split execution: sub-plan materialized (as CF workers would), top plan
    // reads it back.
    let split = pixels_planner::split_for_acceleration(&plan, "intermediate/q1.pxl").unwrap();
    let ctx_sub = ExecContext::new(store.clone());
    let sub_result = pixels_exec::execute(&split.sub_plan, &ctx_sub).unwrap();
    materialize(
        store.as_ref(),
        &split.mv_path,
        split.sub_plan.schema(),
        &sub_result,
    )
    .unwrap();
    let ctx_top = ExecContext::new(store);
    let via_split = execute_collect(&split.top_plan, &ctx_top).unwrap();

    assert_eq!(direct, via_split);
    assert_eq!(direct.num_rows(), 1);
    assert_eq!(direct.row(0)[0], v_s("FR"));
    // One bill: the sub-plan's table scans bill what the direct run does,
    // and reading the MV back bills nothing.
    let billed = |ctx: &ExecContext| ctx.metrics.snapshot().bytes_scanned;
    assert!(billed(&ctx) > 0);
    assert_eq!(billed(&ctx_sub), billed(&ctx));
    assert_eq!(billed(&ctx_top), 0);
}

/// Two integers are compared as integers: through `f64`, 2^53 + 1 rounds
/// onto 2^53 and the order whose sum is exactly one above the literal was
/// not counted.
#[test]
fn integer_comparison_is_exact_past_2_pow_53() {
    let all = rows("SELECT COUNT(*) FROM orders")[0][0].clone();
    // o_id starts at 100: 100 + (2^53 - 100) is the literal itself, every
    // later order lies above it.
    let above =
        rows("SELECT COUNT(*) FROM orders WHERE o_id + 9007199254740892 > 9007199254740992");
    assert_eq!(above[0][0], v_i(all.as_i64().unwrap() - 1));
    let equal = rows("SELECT o_id FROM orders WHERE o_id + 9007199254740892 = 9007199254740993");
    assert_eq!(equal, vec![vec![v_i(101)]]);
}

/// TPC-H at scale 0.002: 25 nations, 3,000 orders of three statuses.
fn tpch_rows(sqls: &[&str]) -> Vec<Vec<Vec<Value>>> {
    let (catalog, store) = (Catalog::shared(), InMemoryObjectStore::shared());
    let cfg = pixels_workload::TpchConfig {
        scale: 0.002,
        ..Default::default()
    };
    pixels_workload::load_tpch(&catalog, store.as_ref(), "tpch", &cfg).unwrap();
    (sqls.iter())
        .map(|sql| {
            run_query(&catalog, store.clone(), "tpch", sql)
                .unwrap()
                .to_rows()
        })
        .collect()
}

/// AVG, like SUM, takes only a numeric argument, and says so when the query
/// is planned — not when a row reaches it, and not never, when none does.
#[test]
fn avg_of_a_non_numeric_argument_is_a_plan_error() {
    let (catalog, store) = (Catalog::shared(), InMemoryObjectStore::shared());
    let cfg = pixels_workload::TpchConfig {
        scale: 0.002,
        ..Default::default()
    };
    pixels_workload::load_tpch(&catalog, store.as_ref(), "tpch", &cfg).unwrap();
    for sql in [
        "SELECT AVG(o_orderdate) FROM orders",
        "SELECT AVG(c_name) FROM customer WHERE c_custkey < 0",
        "SELECT c_mktsegment, AVG(c_mktsegment) FROM customer GROUP BY c_mktsegment",
    ] {
        let err = run_query(&catalog, store.clone(), "tpch", sql).unwrap_err();
        assert_eq!(err.kind(), "plan", "{sql} -> {err}");
        assert!(
            err.to_string().contains("AVG requires a numeric argument"),
            "{err}"
        );
    }
}

/// A projection none of whose columns the outer query reads still has all
/// its input's rows to count.
#[test]
fn count_over_a_derived_table_counts_its_rows() {
    let got = tpch_rows(&[
        "SELECT COUNT(*) FROM (SELECT * FROM nation) t",
        "SELECT COUNT(*) FROM (SELECT o_orderstatus FROM orders GROUP BY o_orderstatus) t",
        "SELECT COUNT(*), SUM(1) FROM (SELECT o_orderkey FROM orders LIMIT 10) t",
    ]);
    assert_eq!(got[0], [[v_i(25)]]);
    assert_eq!(got[1], [[v_i(3)]]);
    assert_eq!(got[2], [[v_i(10), v_i(10)]]);
}

/// Join, group and DISTINCT keys are exact integers: shifted by `i64::MAX`,
/// the 3,000 order keys stay 3,000 keys. As `f64`s they were 4 keys, and
/// the self-join 2,552,756 rows.
#[test]
fn integer_keys_past_2_pow_53_stay_distinct() {
    let k = "o_orderkey - 9223372036854775807";
    let got = tpch_rows(&[
        &format!("SELECT COUNT(*) FROM orders a JOIN orders b ON a.{k} = b.{k}"),
        &format!("SELECT COUNT(*) FROM (SELECT {k} AS k FROM orders GROUP BY {k}) t"),
        &format!("SELECT COUNT(*) FROM (SELECT DISTINCT {k} FROM orders) t"),
    ]);
    for rows in got {
        assert_eq!(rows, [[v_i(3_000)]]);
    }
}
