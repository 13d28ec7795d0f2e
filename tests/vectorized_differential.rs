//! Differential tests for the vectorized operator kernels: every TPC-H
//! template must produce *bit-identical* output — rows, row order, and
//! billed bytes — between the vectorized engine (`exec::execute`: encoded
//! join/aggregate keys, permutation sort, gather-materialized output, fused
//! filter masks) and the retained row-at-a-time reference path
//! (`exec::scalar::execute`), at parallelism 1 and 4. Unlike the
//! parallelism differential (which tolerates float ulps across *different*
//! parallelism levels), both paths here share the same partition order at
//! equal parallelism, so even float aggregates must match to the bit.
//!
//! Also covers the key-encoding edge cases end-to-end: NULL keys never
//! match in joins, Int32/Int64 widening keys, -0.0 vs 0.0 group keys
//! (distinct groups under `Value::eq`'s total_cmp), and empty-string vs
//! NULL under DISTINCT; and aggregate lists whose accumulators share a
//! running sum, must not share one, keep cells, or overflow.

use pixelsdb::catalog::Catalog;
use pixelsdb::common::{DataType, Field, RecordBatch, Schema, Value};
use pixelsdb::exec::{execute, scalar, ExecContext};
use pixelsdb::planner::{plan_query, AggExpr, AggFunc, BoundExpr};
use pixelsdb::sql::ast::{BinaryOp, JoinType};
use pixelsdb::storage::{InMemoryObjectStore, ObjectStoreRef};
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

/// Bit-identity: same variant (no silent Int32/Int64 widening differences)
/// and, for floats, the exact same bit pattern — NaNs and signed zeros
/// included.
fn values_identical(a: &Value, b: &Value) -> bool {
    match (a, b) {
        (Value::Float64(x), Value::Float64(y)) => x.to_bits() == y.to_bits(),
        _ => std::mem::discriminant(a) == std::mem::discriminant(b) && a == b,
    }
}

/// Flatten batches to rows *in emission order* — row order is part of the
/// contract being verified.
fn ordered_rows(batches: &[RecordBatch]) -> Vec<Vec<Value>> {
    batches.iter().flat_map(|b| b.to_rows()).collect()
}

fn assert_rows_identical(vec_rows: &[Vec<Value>], ref_rows: &[Vec<Value>], label: &str) {
    assert_eq!(
        vec_rows.len(),
        ref_rows.len(),
        "{label}: row count diverged (vectorized {} vs scalar {})",
        vec_rows.len(),
        ref_rows.len()
    );
    for (i, (vr, rr)) in vec_rows.iter().zip(ref_rows).enumerate() {
        assert!(
            vr.len() == rr.len()
                && vr
                    .iter()
                    .zip(rr.iter())
                    .all(|(a, b)| values_identical(a, b)),
            "{label}: row {i} diverged:\n  vectorized: {vr:?}\n  scalar:     {rr:?}"
        );
    }
}

#[test]
fn tpch_templates_bit_identical_to_scalar_reference() {
    let (catalog, store) = tpch_fixture();
    let queries: Vec<_> = all_queries()
        .into_iter()
        .filter(|q| q.database == "tpch")
        .collect();
    assert!(queries.len() >= 5, "expected several TPC-H templates");

    for q in queries {
        let plan = plan_query(&catalog, "tpch", q.sql).unwrap();
        for parallelism in [1usize, 4] {
            let vec_ctx = ExecContext::new(store.clone()).with_parallelism(parallelism);
            let vec_batches = execute(&plan, &vec_ctx).unwrap();
            let ref_ctx = ExecContext::new(store.clone()).with_parallelism(parallelism);
            let ref_batches = scalar::execute(&plan, &ref_ctx).unwrap();

            let label = format!("{} @p{parallelism}", q.id);
            assert_rows_identical(
                &ordered_rows(&vec_batches),
                &ordered_rows(&ref_batches),
                &label,
            );

            let (vm, rm) = (vec_ctx.metrics.snapshot(), ref_ctx.metrics.snapshot());
            assert_eq!(
                vm.bytes_scanned, rm.bytes_scanned,
                "{label}: billed bytes diverged"
            );
            assert_eq!(
                vm.rows_scanned, rm.rows_scanned,
                "{label}: rows scanned diverged"
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Key-encoding edge cases, run through both kernel implementations.
// ---------------------------------------------------------------------------

fn schema(fields: Vec<Field>) -> Arc<Schema> {
    Arc::new(Schema::new(fields))
}

fn batch(s: &Arc<Schema>, rows: &[Vec<Value>]) -> RecordBatch {
    RecordBatch::from_rows(s.clone(), rows).unwrap()
}

fn col(i: usize, ty: DataType) -> BoundExpr {
    BoundExpr::column(i, ty, format!("c{i}"))
}

fn join_both_ways(
    left: &RecordBatch,
    right: &RecordBatch,
    join_type: JoinType,
    left_key: BoundExpr,
    right_key: BoundExpr,
    label: &str,
) -> Vec<Vec<Value>> {
    let out_fields: Vec<Field> = left
        .schema()
        .fields()
        .iter()
        .chain(right.schema().fields())
        .cloned()
        .collect();
    let out_schema = schema(out_fields);
    let left_width = left.schema().len();
    let vec_out = pixelsdb::exec::join::execute_join(
        std::slice::from_ref(left),
        std::slice::from_ref(right),
        join_type,
        std::slice::from_ref(&left_key),
        std::slice::from_ref(&right_key),
        None,
        &out_schema,
        left_width,
        3, // tiny batch size to exercise chunked gather output
    )
    .unwrap();
    let ref_out = scalar::execute_join(
        std::slice::from_ref(left),
        std::slice::from_ref(right),
        join_type,
        std::slice::from_ref(&left_key),
        std::slice::from_ref(&right_key),
        None,
        &out_schema,
        left_width,
        3,
    )
    .unwrap();
    let (v, r) = (ordered_rows(&vec_out), ordered_rows(&ref_out));
    assert_rows_identical(&v, &r, label);
    v
}

#[test]
fn null_keys_never_match_in_any_join_type() {
    let ls = schema(vec![
        Field::nullable("lk", DataType::Int64),
        Field::required("lv", DataType::Utf8),
    ]);
    let rs = schema(vec![
        Field::nullable("rk", DataType::Int64),
        Field::required("rv", DataType::Utf8),
    ]);
    let left = batch(
        &ls,
        &[
            vec![Value::Int64(1), Value::Utf8("a".into())],
            vec![Value::Null, Value::Utf8("b".into())],
            vec![Value::Int64(2), Value::Utf8("c".into())],
        ],
    );
    let right = batch(
        &rs,
        &[
            vec![Value::Null, Value::Utf8("x".into())],
            vec![Value::Int64(1), Value::Utf8("y".into())],
            vec![Value::Null, Value::Utf8("z".into())],
        ],
    );
    for (jt, expected_rows) in [
        // Inner: only the 1↔1 match — never NULL↔NULL.
        (JoinType::Inner, 1),
        // Left: the NULL-key and unmatched left rows survive null-extended.
        (JoinType::Left, 3),
        // Right: both NULL-key right rows survive null-extended.
        (JoinType::Right, 3),
    ] {
        let rows = join_both_ways(
            &left,
            &right,
            jt,
            col(0, DataType::Int64),
            col(0, DataType::Int64),
            &format!("null-keys {jt:?}"),
        );
        assert_eq!(rows.len(), expected_rows, "{jt:?}");
        for r in &rows {
            // A row with both keys NULL must be null-extended on at least
            // one side — NULL keys never match each other.
            if r[0].is_null() && r[2].is_null() {
                assert!(
                    r[1].is_null() || r[3].is_null(),
                    "NULL keys matched each other: {r:?}"
                );
            }
        }
    }
}

#[test]
fn int32_int64_widening_keys_match_across_sides() {
    let ls = schema(vec![Field::required("lk", DataType::Int32)]);
    let rs = schema(vec![
        Field::required("rk", DataType::Int64),
        Field::required("rv", DataType::Utf8),
    ]);
    let left = batch(
        &ls,
        &[
            vec![Value::Int32(7)],
            vec![Value::Int32(9)],
            vec![Value::Int32(7)],
        ],
    );
    let right = batch(
        &rs,
        &[
            vec![Value::Int64(7), Value::Utf8("seven".into())],
            vec![Value::Int64(8), Value::Utf8("eight".into())],
        ],
    );
    let rows = join_both_ways(
        &left,
        &right,
        JoinType::Inner,
        col(0, DataType::Int32),
        col(0, DataType::Int64),
        "int32-int64 widening",
    );
    // Int32(7) == Int64(7) under Value::eq; both probe rows with key 7 hit.
    assert_eq!(rows.len(), 2);
    assert!(rows.iter().all(|r| r[2] == Value::Utf8("seven".into())));
}

#[test]
fn negative_zero_groups_stay_distinct_and_match_scalar() {
    let s = schema(vec![
        Field::required("g", DataType::Float64),
        Field::required("v", DataType::Int64),
    ]);
    let input = vec![batch(
        &s,
        &[
            vec![Value::Float64(0.0), Value::Int64(1)],
            vec![Value::Float64(-0.0), Value::Int64(10)],
            vec![Value::Float64(0.0), Value::Int64(100)],
        ],
    )];
    let out_schema = schema(vec![
        Field::required("g", DataType::Float64),
        Field::required("s", DataType::Int64),
    ]);
    let group = vec![col(0, DataType::Float64)];
    let aggs = vec![AggExpr {
        func: AggFunc::Sum,
        arg: Some(col(1, DataType::Int64)),
        distinct: false,
        output_type: DataType::Int64,
    }];
    for parallelism in [1usize, 4] {
        let v = pixelsdb::exec::aggregate::execute_aggregate(
            &input,
            &group,
            &aggs,
            &out_schema,
            parallelism,
        )
        .unwrap();
        let r = scalar::execute_aggregate(&input, &group, &aggs, &out_schema, parallelism).unwrap();
        let (vr, rr) = (ordered_rows(&v), ordered_rows(&r));
        assert_rows_identical(&vr, &rr, "signed-zero grouping");
        // Value::eq compares floats with total_cmp: -0.0 and 0.0 are
        // *different* groups, in first-appearance order.
        assert_eq!(vr.len(), 2);
        assert_eq!(vr[0][1], Value::Int64(101));
        assert_eq!(vr[1][1], Value::Int64(10));
        assert_eq!(vr[0][0], Value::Float64(0.0));
        assert!(matches!(vr[1][0], Value::Float64(f) if f.to_bits() == (-0.0f64).to_bits()));
    }
}

/// Rows for the aggregate lists below, in five batches so that four workers
/// merge partials: a string key (with NULLs, and a group `z` whose Float64
/// values are all NULL), Float64 with NULLs, Float64 without, Int64 with
/// NULLs, strings and dates, and Int64s whose sum overflows.
fn aggregate_fixture() -> Vec<RecordBatch> {
    let s = schema(vec![
        Field::nullable("g", DataType::Utf8),
        Field::nullable("f", DataType::Float64),
        Field::required("f_nn", DataType::Float64),
        Field::nullable("i", DataType::Int64),
        Field::nullable("s", DataType::Utf8),
        Field::nullable("d", DataType::Date),
        Field::required("big", DataType::Int64),
    ]);
    let rows: Vec<Vec<Value>> = (0..40usize)
        .map(|i| {
            let null_f = i % 5 == 3;
            vec![
                match (null_f, i % 4) {
                    (true, _) => Value::Utf8("z".into()),
                    (_, 3) => Value::Null,
                    (_, k) => Value::Utf8(["a", "b", "c"][k].into()),
                },
                if null_f {
                    Value::Null
                } else {
                    // Magnitudes far apart, so any reassociation shows.
                    Value::Float64(((i * 37) % 11) as f64 * 0.1 + [1e15, 0.0, -3.3][i % 3])
                },
                Value::Float64((i as f64).sqrt() * 1.1),
                if i % 6 == 4 {
                    Value::Null
                } else {
                    Value::Int64((i as i64 - 17) * 1_000_003)
                },
                if i % 9 == 8 {
                    Value::Null
                } else {
                    Value::Utf8(format!("s{}", (i * 7) % 13))
                },
                if i % 8 == 7 {
                    Value::Null
                } else {
                    Value::Date(18_000 + ((i * 11) % 50) as i32)
                },
                Value::Int64(i64::MAX / 4 + i as i64),
            ]
        })
        .collect();
    rows.chunks(8).map(|r| batch(&s, r)).collect()
}

/// The aggregate lists the fixture runs: accumulators that share a running
/// sum, ones that must not, cells, and an overflow.
fn aggregate_lists() -> Vec<(&'static str, Vec<AggExpr>)> {
    use DataType::{Date, Float64, Int64, Utf8};
    let agg = |func: AggFunc, arg: Option<(usize, DataType)>, distinct: bool| AggExpr {
        func,
        arg: arg.map(|(i, ty)| col(i, ty)),
        distinct,
        output_type: func.output_type(arg.map(|a| a.1)).unwrap(),
    };
    let (f, f_nn, i) = (Some((1, Float64)), Some((2, Float64)), Some((3, Int64)));
    vec![
        (
            "SUM, AVG and COUNT of one Float64 argument with NULLs",
            vec![
                agg(AggFunc::Sum, f, false),
                agg(AggFunc::Avg, f, false),
                agg(AggFunc::Count, f, false),
                agg(AggFunc::Count, None, false),
            ],
        ),
        (
            "COUNT, AVG and SUM of one Float64 argument without NULLs",
            vec![
                agg(AggFunc::Count, f_nn, false),
                agg(AggFunc::Avg, f_nn, false),
                agg(AggFunc::Sum, f_nn, false),
            ],
        ),
        (
            "five Float64 sums without NULLs, folded four and one per pass",
            (1..=5)
                .map(|k| {
                    let scaled = BoundExpr::BinaryOp {
                        left: Box::new(col(2, Float64)),
                        op: BinaryOp::Multiply,
                        right: Box::new(BoundExpr::literal(Value::Float64(k as f64 + 0.1))),
                        data_type: Float64,
                    };
                    let func = if k == 3 { AggFunc::Avg } else { AggFunc::Sum };
                    AggExpr {
                        func,
                        arg: Some(scaled),
                        distinct: false,
                        output_type: Float64,
                    }
                })
                .collect(),
        ),
        (
            "DISTINCT aggregates beside plain ones of the same argument",
            vec![
                agg(AggFunc::Sum, f, true),
                agg(AggFunc::Sum, f, false),
                agg(AggFunc::Avg, f, true),
                agg(AggFunc::Count, i, true),
                agg(AggFunc::Count, i, false),
            ],
        ),
        (
            "SUM and AVG of one Int64 argument",
            vec![
                agg(AggFunc::Sum, i, false),
                agg(AggFunc::Avg, i, false),
                agg(AggFunc::Count, i, false),
            ],
        ),
        (
            "MIN and MAX of strings and dates",
            vec![
                agg(AggFunc::Min, Some((4, Utf8)), false),
                agg(AggFunc::Max, Some((4, Utf8)), false),
                agg(AggFunc::Min, Some((5, Date)), false),
                agg(AggFunc::Max, Some((5, Date)), false),
            ],
        ),
        (
            "a SUM that overflows",
            vec![
                agg(AggFunc::Count, None, false),
                agg(AggFunc::Sum, Some((6, Int64)), false),
            ],
        ),
    ]
}

/// The output schema of `aggs` grouped by `group`.
fn aggregate_schema(group: &[BoundExpr], aggs: &[AggExpr]) -> Arc<Schema> {
    let keys = group.iter().map(|g| Field::nullable("g", g.data_type()));
    let values = aggs
        .iter()
        .map(|a| Field::nullable(a.to_string(), a.output_type));
    schema(keys.chain(values).collect())
}

/// Every aggregate list, grouped and global, over the fixture and over zero
/// rows, at parallelism 1 and 4: the same rows to the bit as the scalar
/// oracle, or the same error.
#[test]
fn aggregate_lists_match_scalar_bit_for_bit() {
    let input = aggregate_fixture();
    let zero = vec![input[0].slice(0, 0).unwrap()];
    let mut overflowed = 0;
    for (list, aggs) in aggregate_lists() {
        for group in [vec![col(0, DataType::Utf8)], vec![]] {
            let out_schema = aggregate_schema(&group, &aggs);
            for (rows, input) in [("rows", &input), ("zero rows", &zero)] {
                for parallelism in [1usize, 4] {
                    let label = format!("{list}, {} keys, {rows} @p{parallelism}", group.len());
                    let v = pixelsdb::exec::aggregate::execute_aggregate(
                        input,
                        &group,
                        &aggs,
                        &out_schema,
                        parallelism,
                    );
                    let r =
                        scalar::execute_aggregate(input, &group, &aggs, &out_schema, parallelism);
                    match (v, r) {
                        (Ok(v), Ok(r)) => {
                            let (vr, rr) = (ordered_rows(&v), ordered_rows(&r));
                            assert_rows_identical(&vr, &rr, &label);
                            if rows == "zero rows" {
                                // A global aggregate still yields its row.
                                assert_eq!(vr.len(), usize::from(group.is_empty()), "{label}");
                            }
                        }
                        (Err(v), Err(r)) => {
                            assert_eq!(v.to_string(), r.to_string(), "{label}");
                            overflowed += 1;
                        }
                        (v, r) => panic!("{label}: {v:?} vs {r:?}"),
                    }
                }
            }
        }
    }
    // The overflowing list, grouped and global, at both parallelisms.
    assert_eq!(overflowed, 4);
}

#[test]
fn empty_string_and_null_distinct_rows_match_scalar() {
    let s = schema(vec![Field::nullable("s", DataType::Utf8)]);
    let input = vec![
        batch(
            &s,
            &[
                vec![Value::Utf8(String::new())],
                vec![Value::Null],
                vec![Value::Utf8(String::new())],
            ],
        ),
        batch(&s, &[vec![Value::Null], vec![Value::Utf8("x".into())]]),
    ];
    let v = pixelsdb::exec::aggregate::execute_distinct(&input).unwrap();
    let r = scalar::execute_distinct(&input).unwrap();
    let (vr, rr) = (ordered_rows(&v), ordered_rows(&r));
    assert_rows_identical(&vr, &rr, "distinct empty-string vs NULL");
    // Empty string and NULL are distinct values; NULL deduplicates with
    // NULL. First-appearance order: "", NULL, "x".
    assert_eq!(vr.len(), 3);
    assert_eq!(vr[0][0], Value::Utf8(String::new()));
    assert!(vr[1][0].is_null());
    assert_eq!(vr[2][0], Value::Utf8("x".into()));
}

#[test]
fn sort_and_topk_with_nulls_desc_and_ties_match_scalar() {
    let s = schema(vec![
        Field::nullable("k", DataType::Int64),
        Field::required("seq", DataType::Int64),
    ]);
    let rows: Vec<Vec<Value>> = vec![
        vec![Value::Int64(3), Value::Int64(0)],
        vec![Value::Null, Value::Int64(1)],
        vec![Value::Int64(1), Value::Int64(2)],
        vec![Value::Int64(3), Value::Int64(3)], // tie with row 0
        vec![Value::Null, Value::Int64(4)],     // tie with row 1
        vec![Value::Int64(2), Value::Int64(5)],
    ];
    // Two batches to exercise coalescing; batch_size 2 to exercise chunked
    // gather output.
    let input = vec![batch(&s, &rows[..3]), batch(&s, &rows[3..])];
    for asc in [true, false] {
        let keys = vec![(col(0, DataType::Int64), asc)];
        let v = pixelsdb::exec::sort::execute_sort(&input, &keys, 2).unwrap();
        let r = scalar::execute_sort(&input, &keys, 2).unwrap();
        assert_rows_identical(&ordered_rows(&v), &ordered_rows(&r), "sort");
        for fetch in [0usize, 1, 3, 100] {
            let v = pixelsdb::exec::sort::execute_topk(&input, &keys, fetch, 2).unwrap();
            let r = scalar::execute_topk(&input, &keys, fetch, 2).unwrap();
            assert_rows_identical(
                &ordered_rows(&v),
                &ordered_rows(&r),
                &format!("topk fetch={fetch} asc={asc}"),
            );
        }
    }
    // Stability spot-check: ascending ties keep arrival order.
    let keys = vec![(col(0, DataType::Int64), true)];
    let sorted = ordered_rows(&pixelsdb::exec::sort::execute_sort(&input, &keys, 2).unwrap());
    let seqs: Vec<i64> = sorted
        .iter()
        .map(|r| match r[1] {
            Value::Int64(x) => x,
            _ => unreachable!(),
        })
        .collect();
    assert_eq!(seqs, vec![1, 4, 2, 5, 0, 3], "NULLs first, ties stable");
}
