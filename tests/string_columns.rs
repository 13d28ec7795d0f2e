//! The pooled string column against a `Vec<Option<String>>` model, and the
//! lifetime rule of its pool at the result edge.
//!
//! A `Utf8` column is a shared string pool plus one `u32` per row. Every
//! row-selection operation must read exactly like the same operation on a
//! plain vector of optional strings, whichever pools the operands share, and
//! a retained result must hold no more text than it shows.

use pixelsdb::catalog::{Catalog, CreateTable};
use pixelsdb::common::{
    Column, ColumnBuilder, ColumnData, DataType, Field, RecordBatch, Schema, Value,
};
use pixelsdb::exec::run_query;
use pixelsdb::storage::{InMemoryObjectStore, ObjectStoreRef, PixelsReader, PixelsWriter};
use proptest::prelude::*;
use std::sync::Arc;

type Model = Vec<Option<String>>;

fn column(model: &[Option<String>]) -> Column {
    let mut b = ColumnBuilder::new(DataType::Utf8);
    for v in model {
        match v {
            Some(s) => b.push(&Value::Utf8(s.clone())).unwrap(),
            None => b.push_null(),
        }
    }
    b.finish()
}

fn model_of(col: &Column) -> Model {
    (0..col.len())
        .map(|i| match col.value(i) {
            Value::Null => None,
            Value::Utf8(s) => Some(s),
            other => panic!("not a string: {other:?}"),
        })
        .collect()
}

/// `col` reads as `expected`, equals a column built from scratch (which has
/// its own pool), and `==` agrees with model equality either way.
fn assert_reads_as(col: &Column, expected: &[Option<String>], what: &str) {
    assert_eq!(model_of(col), expected, "{what}: value()");
    assert_eq!(col, &column(expected), "{what}: == across pools");
    assert_eq!(
        col.null_count(),
        expected.iter().filter(|v| v.is_none()).count()
    );
}

fn pool_entries(col: &Column) -> usize {
    match col.data() {
        ColumnData::Utf8(v) => v.pool().len(),
        other => panic!("not a string column: {other:?}"),
    }
}

fn model_strategy() -> impl Strategy<Value = Model> {
    let string = prop_oneof![
        2 => "[ab]{0,2}",            // few distinct values: repeats
        2 => "[aé日🙂 ]{0,6}",       // multi-byte
        1 => "\\PC{10,40}",          // longer
        1 => Just(String::new()),    // empty, distinct from NULL
    ];
    let cell = prop_oneof![3 => string.prop_map(Some), 1 => Just(None)];
    prop_oneof![
        6 => prop::collection::vec(cell, 0..40),
        1 => prop::collection::vec(Just(None), 0..8), // all NULL
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn string_column_operations_match_the_model(
        model in model_strategy(),
        other in model_strategy(),
        mask in prop::collection::vec(any::<bool>(), 40),
        picks in prop::collection::vec(any::<u16>(), 0..60),
        cut in any::<u16>(),
    ) {
        let n = model.len();
        let col = column(&model);
        assert_reads_as(&col, &model, "builder");
        prop_assert_eq!(col == column(&other), model == other);

        // filter
        let mask = &mask[..n];
        let kept: Model = model.iter().zip(mask).filter(|(_, &m)| m).map(|(v, _)| v.clone()).collect();
        let filtered = col.filter(mask).unwrap();
        assert_reads_as(&filtered, &kept, "filter");

        // gather: repeats and reorders
        let idx: Vec<usize> = if n == 0 { vec![] } else { picks.iter().map(|&p| p as usize % n).collect() };
        let gathered = col.gather(&idx).unwrap();
        let expected: Model = idx.iter().map(|&i| model[i].clone()).collect();
        assert_reads_as(&gathered, &expected, "gather");

        // gather_or_null: every third pick (and every pick into an empty
        // column) is the "no matching row" index
        let idx: Vec<i64> = picks
            .iter()
            .map(|&p| if n == 0 || p % 3 == 0 { -1 } else { (p as usize % n) as i64 })
            .collect();
        let extended = col.gather_or_null(&idx).unwrap();
        let expected: Model = idx.iter().map(|&i| if i < 0 { None } else { model[i as usize].clone() }).collect();
        assert_reads_as(&extended, &expected, "gather_or_null");

        // slice
        let at = if n == 0 { 0 } else { cut as usize % (n + 1) };
        let (head, tail) = (col.slice(0, at).unwrap(), col.slice(at, n - at).unwrap());
        assert_reads_as(&head, &model[..at], "slice head");
        assert_reads_as(&tail, &model[at..], "slice tail");
        prop_assert!(col.slice(at, n - at + 1).is_err());

        // concat of parts that share a pool, of parts that do not, and of a
        // single small selection of a larger pool
        let rejoined = Column::concat(&[head, tail]).unwrap();
        assert_reads_as(&rejoined, &model, "concat, one pool");
        let mixed = Column::concat(&[&filtered, &column(&other), &extended]).unwrap();
        let all: Model = kept.iter().chain(&other).chain(&expected).cloned().collect();
        assert_reads_as(&mixed, &all, "concat, three pools");
        let alone = Column::concat(&[&filtered]).unwrap();
        assert_reads_as(&alone, &kept, "concat of one");
        // The lifetime rule: what concat returns never names a pool with
        // more entries than it has rows.
        for c in [&rejoined, &mixed, &alone] {
            prop_assert!(pool_entries(c) <= c.len(), "{} entries for {} rows", pool_entries(c), c.len());
        }
    }
}

/// A one-row result over a plain (all-distinct) string chunk holds that
/// row's text, not the chunk's — whether the filter ran inside the scan
/// (`decode_filtered`) or in an operator above it.
#[test]
fn a_one_row_result_does_not_retain_the_chunk() {
    let catalog = Catalog::shared();
    let store: ObjectStoreRef = InMemoryObjectStore::shared();
    catalog.create_database("d");
    let schema = Arc::new(Schema::new(vec![
        Field::required("id", DataType::Int64),
        Field::required("note", DataType::Utf8),
    ]));
    let rows: Vec<Vec<Value>> = (0..4096i64)
        .map(|i| {
            vec![
                Value::Int64(i),
                Value::Utf8(format!("note {i:05} {}", "x".repeat(40))),
            ]
        })
        .collect();
    let batch = RecordBatch::from_rows(schema.clone(), &rows).unwrap();
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
    let mut w = PixelsWriter::with_row_group_rows(store.as_ref(), "d/t/0.pxl", schema, 4096);
    w.write_batch(&batch).unwrap();
    let size = w.finish().unwrap();
    let reader = PixelsReader::open(store.as_ref(), "d/t/0.pxl").unwrap();
    let chunk_bytes = reader.footer().row_groups[0].columns[1].len as usize;
    catalog
        .register_data_file("d", "t", "d/t/0.pxl", reader.footer(), size)
        .unwrap();

    for sql in [
        "SELECT note FROM t WHERE id = 7",
        // The predicate reads the string itself, through the scalar path.
        "SELECT note FROM t WHERE note LIKE 'note 00007%'",
        // Selected above the scan: LIMIT/OFFSET gathers from a full decode.
        "SELECT note FROM t ORDER BY id LIMIT 1 OFFSET 7",
    ] {
        let result = run_query(&catalog, store.clone(), "d", sql).unwrap();
        assert_eq!(result.num_rows(), 1, "{sql}");
        let Value::Utf8(text) = result.column(0).value(0) else {
            panic!("{sql}: not a string");
        };
        assert!(text.starts_with("note 00007"), "{sql}: {text}");
        let ColumnData::Utf8(strings) = result.column(0).data() else {
            panic!("{sql}: not a string column");
        };
        let held = strings.pool().byte_len();
        assert!(
            held <= 2 * text.len() && held < chunk_bytes / 100,
            "{sql}: result of {} bytes retains a {held}-byte pool (chunk: {chunk_bytes})",
            text.len()
        );
    }
}
