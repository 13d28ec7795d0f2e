//! Edge-case behaviour of executor operators via end-to-end SQL: NULL
//! ordering, empty inputs, boundary limits, and join corner cases.

use pixels_catalog::{Catalog, CreateTable};
use pixels_common::{DataType, Field, RecordBatch, Schema, Value};
use pixels_exec::run_query;
use pixels_storage::{InMemoryObjectStore, ObjectStoreRef, PixelsReader, PixelsWriter};
use std::sync::Arc;

fn v_i(v: i64) -> Value {
    Value::Int64(v)
}

fn setup(rows: &[(Option<i64>, Option<&str>)]) -> (Arc<Catalog>, ObjectStoreRef) {
    let catalog = Catalog::shared();
    let store: ObjectStoreRef = InMemoryObjectStore::shared();
    let schema = Arc::new(Schema::new(vec![
        Field::nullable("a", DataType::Int64),
        Field::nullable("s", DataType::Utf8),
    ]));
    catalog
        .create_table(CreateTable {
            database: "d".into(),
            name: "t".into(),
            schema: schema.clone(),
            primary_key: None,
            foreign_keys: vec![],
            comment: None,
        })
        .unwrap();
    let data: Vec<Vec<Value>> = rows
        .iter()
        .map(|(a, s)| {
            vec![
                a.map_or(Value::Null, Value::Int64),
                s.map_or(Value::Null, |x| Value::Utf8(x.into())),
            ]
        })
        .collect();
    let batch = RecordBatch::from_rows(schema.clone(), &data).unwrap();
    let mut w = PixelsWriter::with_row_group_rows(store.as_ref(), "d/t/0.pxl", schema, 4);
    w.write_batch(&batch).unwrap();
    let size = w.finish().unwrap();
    let reader = PixelsReader::open(store.as_ref(), "d/t/0.pxl").unwrap();
    catalog
        .register_data_file("d", "t", "d/t/0.pxl", reader.footer(), size)
        .unwrap();
    (catalog, store)
}

#[test]
fn nulls_order_first_ascending_last_descending() {
    let (c, s) = setup(&[(Some(2), None), (None, None), (Some(1), None)]);
    let asc = run_query(&c, s.clone(), "d", "SELECT a FROM t ORDER BY a").unwrap();
    assert_eq!(
        asc.to_rows()
            .iter()
            .map(|r| r[0].clone())
            .collect::<Vec<_>>(),
        vec![Value::Null, v_i(1), v_i(2)]
    );
    let desc = run_query(&c, s, "d", "SELECT a FROM t ORDER BY a DESC").unwrap();
    assert_eq!(
        desc.to_rows()
            .iter()
            .map(|r| r[0].clone())
            .collect::<Vec<_>>(),
        vec![v_i(2), v_i(1), Value::Null]
    );
}

#[test]
fn topk_matches_full_sort_with_nulls() {
    let rows: Vec<(Option<i64>, Option<&str>)> = (0..40)
        .map(|i| {
            if i % 7 == 0 {
                (None, None)
            } else {
                (Some((i * 13) % 17), None)
            }
        })
        .collect();
    let (c, s) = setup(&rows);
    let full = run_query(&c, s.clone(), "d", "SELECT a FROM t ORDER BY a DESC").unwrap();
    let topk = run_query(&c, s, "d", "SELECT a FROM t ORDER BY a DESC LIMIT 5").unwrap();
    assert_eq!(topk.to_rows(), full.to_rows()[..5].to_vec());
}

#[test]
fn offset_beyond_end_and_limit_zero() {
    let (c, s) = setup(&[(Some(1), None), (Some(2), None)]);
    let r = run_query(
        &c,
        s.clone(),
        "d",
        "SELECT a FROM t ORDER BY a LIMIT 5 OFFSET 10",
    )
    .unwrap();
    assert_eq!(r.num_rows(), 0);
    let r = run_query(&c, s, "d", "SELECT a FROM t LIMIT 0").unwrap();
    assert_eq!(r.num_rows(), 0);
}

#[test]
fn aggregates_over_empty_and_all_null() {
    let (c, s) = setup(&[(None, None), (None, None)]);
    let r = run_query(
        &c,
        s.clone(),
        "d",
        "SELECT COUNT(*), COUNT(a), SUM(a), MIN(a), AVG(a) FROM t",
    )
    .unwrap();
    assert_eq!(
        r.row(0),
        vec![v_i(2), v_i(0), Value::Null, Value::Null, Value::Null]
    );
    // Filter removes everything: global aggregate still emits one row.
    let r = run_query(&c, s, "d", "SELECT COUNT(*) FROM t WHERE a > 100").unwrap();
    assert_eq!(r.row(0), vec![v_i(0)]);
}

#[test]
fn group_by_null_keys_form_one_group() {
    let (c, s) = setup(&[(None, Some("x")), (None, Some("y")), (Some(1), Some("z"))]);
    let r = run_query(
        &c,
        s,
        "d",
        "SELECT a, COUNT(*) FROM t GROUP BY a ORDER BY a",
    )
    .unwrap();
    assert_eq!(r.num_rows(), 2);
    assert_eq!(r.row(0), vec![Value::Null, v_i(2)], "NULLs group together");
    assert_eq!(r.row(1), vec![v_i(1), v_i(1)]);
}

#[test]
fn self_join_null_keys_never_match() {
    let (c, s) = setup(&[
        (None, Some("n1")),
        (None, Some("n2")),
        (Some(1), Some("one")),
    ]);
    let r = run_query(
        &c,
        s,
        "d",
        "SELECT COUNT(*) FROM t AS l JOIN t AS r ON l.a = r.a",
    )
    .unwrap();
    // Only the a=1 row matches itself; NULL keys never join.
    assert_eq!(r.row(0), vec![v_i(1)]);
}

#[test]
fn count_distinct_ignores_nulls() {
    let (c, s) = setup(&[
        (Some(1), None),
        (Some(1), None),
        (None, None),
        (Some(2), None),
    ]);
    let r = run_query(&c, s, "d", "SELECT COUNT(DISTINCT a) FROM t").unwrap();
    assert_eq!(r.row(0), vec![v_i(2)]);
}

#[test]
fn distinct_treats_null_rows_as_equal() {
    let (c, s) = setup(&[(None, None), (None, None), (Some(1), None)]);
    let r = run_query(&c, s, "d", "SELECT DISTINCT a FROM t").unwrap();
    assert_eq!(r.num_rows(), 2);
}

#[test]
fn like_patterns_with_special_rows() {
    let (c, s) = setup(&[
        (Some(1), Some("abc")),
        (Some(2), Some("a%c")),
        (Some(3), None),
    ]);
    // `\`-free dialect: % and _ are wildcards; NULL never matches.
    let r = run_query(
        &c,
        s.clone(),
        "d",
        "SELECT a FROM t WHERE s LIKE 'a%c' ORDER BY a",
    )
    .unwrap();
    assert_eq!(r.num_rows(), 2, "wildcard matches both strings");
    let r = run_query(&c, s, "d", "SELECT a FROM t WHERE s NOT LIKE 'a%'").unwrap();
    assert_eq!(r.num_rows(), 0, "NULL is excluded by NOT LIKE as well");
}

#[test]
fn case_with_null_operand_takes_else() {
    let (c, s) = setup(&[(None, None)]);
    let r = run_query(
        &c,
        s,
        "d",
        "SELECT CASE a WHEN 1 THEN 'one' ELSE 'other' END FROM t",
    )
    .unwrap();
    assert_eq!(r.row(0), vec![Value::Utf8("other".into())]);
}

#[test]
fn cross_join_with_empty_side_is_empty() {
    let (c, s) = setup(&[(Some(1), None)]);
    let r = run_query(
        &c,
        s,
        "d",
        "SELECT COUNT(*) FROM t AS a CROSS JOIN (SELECT * FROM t WHERE a > 99) AS b",
    )
    .unwrap();
    assert_eq!(r.row(0), vec![v_i(0)]);
}

#[test]
fn date_overflow_from_sql_text_is_an_error_not_a_panic() {
    // Literal date arithmetic reaches `eval_binary` twice: in the constant
    // folder while planning, and per row at run time when a column is
    // involved. Both used to add in `i32` unchecked.
    let (c, s) = setup(&[(Some(1), None), (Some(i64::MAX), None)]);
    for sql in [
        "SELECT DATE '1995-01-01' + 9223372036854775807 FROM t",
        "SELECT DATE '1995-01-01' - a FROM t",
        "SELECT a FROM t WHERE DATE '1995-01-01' + a > DATE '1995-01-01'",
    ] {
        let err = run_query(&c, s.clone(), "d", sql).unwrap_err().to_string();
        assert!(err.contains("date overflow"), "{sql}: {err}");
    }
    // In range, the same shapes are dates.
    let ok = run_query(
        &c,
        s,
        "d",
        "SELECT DATE '1970-01-01' + a FROM t WHERE a = 1",
    )
    .unwrap();
    assert_eq!(ok.to_rows(), vec![vec![Value::Date(1)]]);
}
