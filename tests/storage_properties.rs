//! Property-based tests for the storage layer: arbitrary batches round-trip
//! bit-exactly through the Pixels format, and zone-map pruning is always
//! sound (never drops a matching row group).

use pixelsdb::common::{DataType, Field, RecordBatch, Schema, Value};
use pixelsdb::storage::{
    ColumnPredicate, InMemoryObjectStore, PixelsReader, PixelsWriter, PredicateOp,
};
use proptest::prelude::*;
use std::sync::Arc;

fn value_strategy(ty: DataType) -> BoxedStrategy<Value> {
    match ty {
        DataType::Int64 => prop_oneof![
            3 => any::<i64>().prop_map(Value::Int64),
            1 => Just(Value::Null),
        ]
        .boxed(),
        DataType::Float64 => prop_oneof![
            3 => (-1e9f64..1e9).prop_map(Value::Float64),
            1 => Just(Value::Null),
        ]
        .boxed(),
        DataType::Utf8 => prop_oneof![
            3 => "[a-z]{0,12}".prop_map(Value::Utf8),
            // Few distinct values (dictionary chunks), multi-byte, and long.
            2 => "[xy]{0,1}".prop_map(Value::Utf8),
            1 => "[aé日🙂 ]{0,8}".prop_map(Value::Utf8),
            1 => "\\PC{20,80}".prop_map(Value::Utf8),
            1 => Just(Value::Null),
        ]
        .boxed(),
        DataType::Boolean => prop_oneof![
            3 => any::<bool>().prop_map(Value::Boolean),
            1 => Just(Value::Null),
        ]
        .boxed(),
        DataType::Date => prop_oneof![
            3 => (-100_000i32..100_000).prop_map(Value::Date),
            1 => Just(Value::Null),
        ]
        .boxed(),
        _ => Just(Value::Null).boxed(),
    }
}

fn schema() -> Arc<Schema> {
    Arc::new(Schema::new(vec![
        Field::nullable("i", DataType::Int64),
        Field::nullable("f", DataType::Float64),
        Field::nullable("s", DataType::Utf8),
        Field::nullable("b", DataType::Boolean),
        Field::nullable("d", DataType::Date),
    ]))
}

fn rows_strategy(max: usize) -> impl Strategy<Value = Vec<Vec<Value>>> {
    prop::collection::vec(
        (
            value_strategy(DataType::Int64),
            value_strategy(DataType::Float64),
            value_strategy(DataType::Utf8),
            value_strategy(DataType::Boolean),
            value_strategy(DataType::Date),
        )
            .prop_map(|(a, b, c, d, e)| vec![a, b, c, d, e]),
        0..max,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn roundtrip_is_exact(rows in rows_strategy(200), rg_rows in 1usize..64) {
        let store = InMemoryObjectStore::new();
        let schema = schema();
        let batch = RecordBatch::from_rows(schema.clone(), &rows).unwrap();
        let mut w = PixelsWriter::with_row_group_rows(&store, "p.pxl", schema, rg_rows);
        w.write_batch(&batch).unwrap();
        w.finish().unwrap();

        let reader = PixelsReader::open(&store, "p.pxl").unwrap();
        prop_assert_eq!(reader.num_rows(), rows.len() as u64);
        let back = reader.read_all(None, &[]).unwrap();
        if rows.is_empty() {
            prop_assert!(back.is_empty());
        } else {
            let all = RecordBatch::concat(&back).unwrap();
            // Float NaN never generated, so PartialEq equality is exact.
            prop_assert_eq!(all.to_rows(), rows);
        }
    }

    #[test]
    fn projection_matches_full_read(rows in rows_strategy(100), cols in prop::collection::btree_set(0usize..5, 1..5)) {
        let store = InMemoryObjectStore::new();
        let schema = schema();
        let batch = RecordBatch::from_rows(schema.clone(), &rows).unwrap();
        let mut w = PixelsWriter::with_row_group_rows(&store, "p.pxl", schema, 16);
        w.write_batch(&batch).unwrap();
        w.finish().unwrap();

        let projection: Vec<usize> = cols.into_iter().collect();
        let reader = PixelsReader::open(&store, "p.pxl").unwrap();
        let projected = reader.read_all(Some(&projection), &[]).unwrap();
        let full = reader.read_all(None, &[]).unwrap();
        if !rows.is_empty() {
            let p = RecordBatch::concat(&projected).unwrap();
            let f = RecordBatch::concat(&full).unwrap().project(&projection).unwrap();
            prop_assert_eq!(p, f);
        }
    }

    #[test]
    fn zone_map_pruning_is_sound(rows in rows_strategy(150), threshold in any::<i64>()) {
        let store = InMemoryObjectStore::new();
        let schema = schema();
        let batch = RecordBatch::from_rows(schema.clone(), &rows).unwrap();
        let mut w = PixelsWriter::with_row_group_rows(&store, "p.pxl", schema, 9);
        w.write_batch(&batch).unwrap();
        w.finish().unwrap();

        let reader = PixelsReader::open(&store, "p.pxl").unwrap();
        let preds = [ColumnPredicate {
            column: 0,
            op: PredicateOp::GtEq,
            value: Value::Int64(threshold),
        }];
        let pruned = reader.read_all(None, &preds).unwrap();
        // Count of actually matching rows must be identical whether or not
        // pruning ran (pruning only drops provably-empty row groups).
        let count_match = |batches: &[RecordBatch]| -> usize {
            batches
                .iter()
                .flat_map(|b| b.to_rows())
                .filter(|r| r[0].as_i64().is_some_and(|v| v >= threshold))
                .count()
        };
        let full = reader.read_all(None, &[]).unwrap();
        prop_assert_eq!(count_match(&pruned), count_match(&full));
    }
}
