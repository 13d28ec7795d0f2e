//! The column-at-a-time evaluator against the row loop it replaces.
//!
//! `pixels_exec::evaluate` computes an expression a column at a time and
//! promises to be indistinguishable from `pixels_exec::scalar::evaluate`,
//! which computes it one `Value` at a time through `pixels_planner::eval`:
//! the same column type, the same validity, the same bit pattern in every
//! row — NULL rows' payload included — or the same error text. This suite
//! generates typed `BoundExpr` trees (every node kind that has a kernel, with
//! `LIKE`/`IN`/`CASE`/`COALESCE`/`||` subtrees that have none mixed in) over
//! batches full of the values kernels get wrong: NULLs, `i32`/`i64` extremes,
//! zero divisors, `-0.0`, NaN, infinities, dates at the edge of `i32`.

use pixelsdb::common::{
    Column, ColumnBuilder, ColumnData, DataType, Field, RecordBatch, Schema, Value,
};
use pixelsdb::exec::{evaluate, fused_filter_mask, predicate_mask, scalar};
use pixelsdb::planner::{BoundExpr, ScalarFunc};
use pixelsdb::sql::ast::BinaryOp;
use proptest::prelude::*;
use std::sync::Arc;

// ---------------------------------------------------------------------------
// Batches
// ---------------------------------------------------------------------------

/// Column layout of every generated batch: two of each numeric type (one
/// nullable), then a date, a string and a boolean column.
const COLUMNS: [(DataType, bool); 9] = [
    (DataType::Int32, true),
    (DataType::Int32, false),
    (DataType::Int64, true),
    (DataType::Int64, false),
    (DataType::Float64, true),
    (DataType::Float64, false),
    (DataType::Date, true),
    (DataType::Utf8, true),
    (DataType::Boolean, true),
];

fn columns_of(ty: DataType) -> Vec<usize> {
    (0..COLUMNS.len()).filter(|&i| COLUMNS[i].0 == ty).collect()
}

fn pick<T: Clone>(runner: &mut TestRunner, from: &[T]) -> T {
    from[runner.below(from.len() as u64) as usize].clone()
}

/// A value of `ty`, biased towards the edges of its domain.
fn edge_value(runner: &mut TestRunner, ty: DataType) -> Value {
    let small = runner.below(7) as i32 - 3;
    match ty {
        DataType::Int32 => Value::Int32(pick(
            runner,
            &[0, 1, -1, 2, small, i32::MAX, i32::MIN, i32::MAX - 1, 46341],
        )),
        DataType::Int64 => Value::Int64(pick(
            runner,
            &[
                0,
                1,
                -1,
                small as i64,
                i64::MAX,
                i64::MIN,
                i64::MAX - 1,
                (1 << 53) + 1,
                1 << 53,
                i32::MAX as i64 + 1,
                3_037_000_500,
            ],
        )),
        DataType::Float64 => Value::Float64(pick(
            runner,
            &[
                0.0,
                -0.0,
                1.0,
                -1.5,
                small as f64,
                f64::NAN,
                f64::INFINITY,
                f64::NEG_INFINITY,
                f64::MAX,
                f64::MIN_POSITIVE,
                1e19,
                0.1,
            ],
        )),
        DataType::Date => Value::Date(pick(
            runner,
            &[0, 1, -1, 9_000 + small, i32::MAX, i32::MIN, i32::MAX - 2],
        )),
        DataType::Utf8 => Value::Utf8(pick(runner, &["", "a", "ab", "b%", "日本", "a_c"]).into()),
        DataType::Boolean => Value::Boolean(runner.below(2) == 0),
        DataType::Timestamp => Value::Timestamp(small as i64),
    }
}

#[derive(Debug, Clone)]
struct Batches;

impl Strategy for Batches {
    type Value = RecordBatch;

    fn new_value(&self, runner: &mut TestRunner) -> RecordBatch {
        let rows = pick(runner, &[0usize, 1, 2, 7, 19, 33]);
        let null_one_in = pick(runner, &[2u64, 4, 1_000_000]);
        let fields = (COLUMNS.iter().enumerate())
            .map(|(i, &(ty, nullable))| Field {
                name: format!("c{i}"),
                data_type: ty,
                nullable,
            })
            .collect();
        let columns = COLUMNS
            .iter()
            .map(|&(ty, nullable)| {
                let mut b = ColumnBuilder::new(ty);
                for _ in 0..rows {
                    if nullable && runner.below(null_one_in) == 0 {
                        b.push_null();
                    } else {
                        b.push(&edge_value(runner, ty)).unwrap();
                    }
                }
                b.finish()
            })
            .collect();
        RecordBatch::try_new(Arc::new(Schema::new(fields)), columns).unwrap()
    }
}

// ---------------------------------------------------------------------------
// Expressions
// ---------------------------------------------------------------------------

fn column(index: usize) -> BoundExpr {
    BoundExpr::column(index, COLUMNS[index].0, format!("c{index}"))
}

fn binary(l: BoundExpr, op: BinaryOp, r: BoundExpr, data_type: DataType) -> BoundExpr {
    BoundExpr::BinaryOp {
        left: Box::new(l),
        op,
        right: Box::new(r),
        data_type,
    }
}

const NUMERIC: [DataType; 3] = [DataType::Int32, DataType::Int64, DataType::Float64];

/// Generates an expression whose declared type is `ty`. Declared types follow
/// the binder (`common_numeric` for arithmetic and for the branches of a
/// `CASE`/`COALESCE`), so the runtime type of a value can be narrower than
/// the declared one — the situation the evaluator's fallback rule is about.
fn expr_of(runner: &mut TestRunner, ty: DataType, depth: u32) -> BoundExpr {
    let leaf = depth == 0 || runner.below(4) == 0;
    if leaf {
        return match runner.below(8) {
            0 => BoundExpr::literal(Value::Null),
            1 | 2 => BoundExpr::literal(edge_value(runner, ty)),
            _ => column(pick(runner, &columns_of(ty))),
        };
    }
    let d = depth - 1;
    // Node kinds without a kernel, for every type.
    match runner.below(10) {
        0 => {
            let (a, b) = (narrower(runner, ty), narrower(runner, ty));
            return BoundExpr::Case {
                operand: None,
                branches: vec![(expr_of(runner, DataType::Boolean, d), expr_of(runner, a, d))],
                else_expr: (runner.below(4) != 0).then(|| Box::new(expr_of(runner, b, d))),
                data_type: ty,
            };
        }
        1 => {
            let (a, b) = (narrower(runner, ty), narrower(runner, ty));
            return BoundExpr::ScalarFn {
                func: ScalarFunc::Coalesce,
                args: vec![expr_of(runner, a, d), expr_of(runner, b, d)],
                data_type: ty,
            };
        }
        _ => {}
    }
    match ty {
        DataType::Boolean => match runner.below(10) {
            0 | 1 => {
                let op = pick(runner, &[BinaryOp::And, BinaryOp::Or]);
                let (l, r) = (expr_of(runner, ty, d), expr_of(runner, ty, d));
                binary(l, op, r, ty)
            }
            2 => BoundExpr::Not(Box::new(expr_of(runner, ty, d))),
            3 => BoundExpr::IsNull {
                expr: Box::new({
                    let of = pick(runner, &COLUMNS).0;
                    expr_of(runner, of, d)
                }),
                negated: runner.below(2) == 0,
            },
            4 => BoundExpr::Like {
                expr: Box::new(expr_of(runner, DataType::Utf8, d)),
                pattern: Box::new(BoundExpr::literal(Value::Utf8(
                    pick(runner, &["a%", "%", "_b", "b\\%", ""]).into(),
                ))),
                negated: runner.below(2) == 0,
            },
            5 => {
                let of = pick(runner, &NUMERIC);
                BoundExpr::InList {
                    expr: Box::new(expr_of(runner, of, d)),
                    list: (0..runner.below(4))
                        .map(|_| {
                            let item = pick(runner, &NUMERIC);
                            expr_of(runner, item, 0)
                        })
                        .collect(),
                    negated: runner.below(2) == 0,
                }
            }
            _ => {
                let ops = [
                    BinaryOp::Eq,
                    BinaryOp::NotEq,
                    BinaryOp::Lt,
                    BinaryOp::LtEq,
                    BinaryOp::Gt,
                    BinaryOp::GtEq,
                ];
                // Mostly comparable pairs; now and then one the scalar
                // semantics reject ("cannot compare").
                let (lt, rt) = match runner.below(12) {
                    0 => (DataType::Int32, DataType::Utf8),
                    1 => (DataType::Date, DataType::Int64),
                    2 | 3 => (DataType::Date, DataType::Date),
                    4 => (DataType::Utf8, DataType::Utf8),
                    5 => (DataType::Boolean, DataType::Boolean),
                    _ => (pick(runner, &NUMERIC), pick(runner, &NUMERIC)),
                };
                let (l, r) = (expr_of(runner, lt, d), expr_of(runner, rt, d));
                binary(l, pick(runner, &ops), r, ty)
            }
        },
        DataType::Date => {
            let offset = pick(runner, &[DataType::Int32, DataType::Int64]);
            let days = expr_of(runner, offset, d);
            let date = expr_of(runner, ty, d);
            match runner.below(3) {
                0 => binary(date, BinaryOp::Plus, days, ty),
                1 => binary(days, BinaryOp::Plus, date, ty),
                _ => binary(date, BinaryOp::Minus, days, ty),
            }
        }
        DataType::Utf8 => {
            let (l, r) = (expr_of(runner, ty, d), expr_of(runner, ty, d));
            binary(l, BinaryOp::Concat, r, ty)
        }
        DataType::Timestamp => column(pick(runner, &columns_of(ty))),
        numeric => match runner.below(8) {
            0 => BoundExpr::Negate(Box::new(expr_of(runner, numeric, d))),
            1 | 2 => {
                let from = pick(runner, &NUMERIC);
                BoundExpr::Cast {
                    expr: Box::new(expr_of(runner, from, d)),
                    to: numeric,
                }
            }
            3 if numeric == DataType::Int64 => {
                let (l, r) = (
                    expr_of(runner, DataType::Date, d),
                    expr_of(runner, DataType::Date, d),
                );
                binary(l, BinaryOp::Minus, r, numeric)
            }
            _ => {
                let ops = [
                    BinaryOp::Plus,
                    BinaryOp::Minus,
                    BinaryOp::Multiply,
                    BinaryOp::Divide,
                    BinaryOp::Modulo,
                ];
                // Two operand types whose common type is `numeric`.
                let (lt, rt) = (numeric, narrower(runner, numeric));
                let (lt, rt) = if runner.below(2) == 0 {
                    (lt, rt)
                } else {
                    (rt, lt)
                };
                let (l, r) = (expr_of(runner, lt, d), expr_of(runner, rt, d));
                binary(l, pick(runner, &ops), r, numeric)
            }
        },
    }
}

/// `ty`, or for a numeric type one that widens to it.
fn narrower(runner: &mut TestRunner, ty: DataType) -> DataType {
    match ty {
        DataType::Int64 => pick(runner, &[DataType::Int32, DataType::Int64]),
        DataType::Float64 => pick(runner, &NUMERIC),
        other => other,
    }
}

#[derive(Debug, Clone)]
struct Exprs(Option<DataType>);

impl Strategy for Exprs {
    type Value = BoundExpr;

    fn new_value(&self, runner: &mut TestRunner) -> BoundExpr {
        let ty = self.0.unwrap_or_else(|| pick(runner, &COLUMNS).0);
        expr_of(runner, ty, 4)
    }
}

// ---------------------------------------------------------------------------
// Comparison
// ---------------------------------------------------------------------------

/// A column as `(type, per-row validity, per-row payload bits)` — payload of
/// NULL rows included, since it reaches spill files and their byte counts.
fn image(col: &Column) -> (DataType, Vec<bool>, Vec<Vec<u8>>) {
    let n = col.len();
    let bytes: Vec<Vec<u8>> = match col.data() {
        ColumnData::Boolean(v) => v.iter().map(|&x| vec![x as u8]).collect(),
        ColumnData::Int32(v) | ColumnData::Date(v) => {
            v.iter().map(|x| x.to_le_bytes().to_vec()).collect()
        }
        ColumnData::Int64(v) | ColumnData::Timestamp(v) => {
            v.iter().map(|x| x.to_le_bytes().to_vec()).collect()
        }
        ColumnData::Float64(v) => v
            .iter()
            .map(|x| x.to_bits().to_le_bytes().to_vec())
            .collect(),
        ColumnData::Utf8(v) => v.iter().map(|s| s.as_bytes().to_vec()).collect(),
    };
    let validity = (0..n).map(|i| !col.is_null(i)).collect();
    (col.data_type(), validity, bytes)
}

fn outcome<T>(r: pixelsdb::common::Result<T>, show: impl Fn(&T) -> String) -> String {
    match r {
        Ok(v) => format!("Ok({})", show(&v)),
        Err(e) => format!("Err({e})"),
    }
}

fn assert_same_column(expr: &BoundExpr, batch: &RecordBatch) {
    let show = |c: &Column| format!("{:?}", image(c));
    let fast = outcome(evaluate(expr, batch), show);
    let slow = outcome(scalar::evaluate(expr, batch), show);
    assert_eq!(fast, slow, "evaluate({expr})");
}

fn assert_same_mask(expr: &BoundExpr, batch: &RecordBatch) {
    let show = |m: &Vec<bool>| format!("{m:?}");
    let fast = outcome(predicate_mask(expr, batch), show);
    let slow = outcome(scalar::predicate_mask(expr, batch), show);
    assert_eq!(fast, slow, "predicate_mask({expr})");
}

/// The conjuncts of a filter list, flattened the way the fused mask flattens
/// them: the scalar chain the fused mask reproduces is the one with a filter
/// per conjunct, where a row reaches a conjunct only if every earlier one
/// was TRUE for it.
fn conjuncts(filters: &[BoundExpr]) -> Vec<BoundExpr> {
    fn walk(e: &BoundExpr, out: &mut Vec<BoundExpr>) {
        match e {
            BoundExpr::BinaryOp {
                left,
                op: BinaryOp::And,
                right,
                ..
            } => {
                walk(left, out);
                walk(right, out);
            }
            other => out.push(other.clone()),
        }
    }
    let mut out = Vec::new();
    filters.iter().for_each(|f| walk(f, &mut out));
    out
}

fn assert_same_filter_chain(filters: &[BoundExpr], batch: &RecordBatch) {
    let show = |b: &RecordBatch| {
        let cols: Vec<_> = b.columns().iter().map(image).collect();
        format!("{cols:?}")
    };
    let fused = fused_filter_mask(filters, batch).and_then(|mask| batch.filter(&mask));
    let chain = scalar::apply_filters(&conjuncts(filters), batch.clone());
    assert_eq!(
        outcome(fused, show),
        outcome(chain, show),
        "filters {filters:?}"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1500))]

    #[test]
    fn evaluate_matches_the_row_loop(expr in Exprs(None), batch in Batches) {
        assert_same_column(&expr, &batch);
        assert_same_mask(&expr, &batch);
    }

    #[test]
    fn filter_masks_match_the_scalar_chain(
        filters in prop::collection::vec(Exprs(Some(DataType::Boolean)), 1..4),
        batch in Batches,
    ) {
        assert_same_mask(&filters[0], &batch);
        assert_same_filter_chain(&filters, &batch);
    }
}

// ---------------------------------------------------------------------------
// The cases the generator is there to find, pinned
// ---------------------------------------------------------------------------

fn int_batch(a: &[Option<i32>], b: &[Option<i64>]) -> RecordBatch {
    let schema = Arc::new(Schema::new(vec![
        Field::nullable("a", DataType::Int32),
        Field::nullable("b", DataType::Int64),
    ]));
    let col = |ty, vals: Vec<Value>| Column::from_values(ty, &vals).unwrap();
    let a = a.iter().map(|v| v.map_or(Value::Null, Value::Int32));
    let b = b.iter().map(|v| v.map_or(Value::Null, Value::Int64));
    RecordBatch::try_new(
        schema,
        vec![
            col(DataType::Int32, a.collect()),
            col(DataType::Int64, b.collect()),
        ],
    )
    .unwrap()
}

fn lit(v: i32) -> BoundExpr {
    BoundExpr::literal(Value::Int32(v))
}

#[test]
fn a_conjunct_that_errors_only_on_rejected_rows_is_not_an_error() {
    let batch = int_batch(&[Some(2), Some(0), None, Some(5)], &[Some(1); 4]);
    let a = || BoundExpr::column(0, DataType::Int32, "a");
    let nonzero = binary(a(), BinaryOp::NotEq, lit(0), DataType::Boolean);
    let quotient = binary(
        binary(lit(10), BinaryOp::Divide, a(), DataType::Int32),
        BinaryOp::Gt,
        lit(2),
        DataType::Boolean,
    );
    // `a <> 0` first: the division never sees the zero (nor the NULL).
    let guarded = [nonzero.clone(), quotient.clone()];
    assert_eq!(
        fused_filter_mask(&guarded, &batch).unwrap(),
        [true, false, false, false]
    );
    assert_same_filter_chain(&guarded, &batch);
    // The same two as one `AND`: flattened to the same conjuncts.
    let anded = [binary(
        nonzero.clone(),
        BinaryOp::And,
        quotient.clone(),
        DataType::Boolean,
    )];
    assert_eq!(
        fused_filter_mask(&anded, &batch).unwrap(),
        [true, false, false, false]
    );
    // Division first: row 1 is an error on both paths, with the same text.
    let unguarded = [quotient.clone(), nonzero];
    let err = fused_filter_mask(&unguarded, &batch).unwrap_err();
    assert_eq!(err.to_string(), "exec error: division by zero");
    assert_same_filter_chain(&unguarded, &batch);
    // As a value, not a filter: the kernel gives up and the row loop decides.
    assert_same_column(&quotient, &batch);
    assert!(evaluate(&quotient, &batch).is_err());
}

#[test]
fn a_null_rows_placeholder_is_neither_an_error_nor_visible() {
    // Row 1 of `b` is NULL: its payload (a zero) is not a zero divisor, and
    // the quotient's payload there is the builder's zero again.
    let batch = int_batch(&[Some(7), Some(7), Some(7)], &[Some(2), None, Some(-7)]);
    let quotient = binary(
        BoundExpr::column(0, DataType::Int32, "a"),
        BinaryOp::Divide,
        BoundExpr::column(1, DataType::Int64, "b"),
        DataType::Int64,
    );
    let col = evaluate(&quotient, &batch).unwrap();
    assert_eq!(col.data(), &ColumnData::Int64(vec![3, 0, -1]));
    assert_eq!(col.validity(), Some(&[true, false, true][..]));
    assert_same_column(&quotient, &batch);
}

#[test]
fn int32_arithmetic_narrows_and_int64_overflow_is_an_error() {
    let batch = int_batch(&[Some(i32::MAX), Some(1)], &[Some(i64::MAX), Some(1)]);
    let a = BoundExpr::column(0, DataType::Int32, "a");
    let b = BoundExpr::column(1, DataType::Int64, "b");
    // Int32 + Int32 is computed in i64 and narrowed: it wraps, as the row
    // loop's does.
    let wrapped = binary(a.clone(), BinaryOp::Plus, lit(1), DataType::Int32);
    assert_eq!(
        evaluate(&wrapped, &batch).unwrap().data(),
        &ColumnData::Int32(vec![i32::MIN, 2])
    );
    assert_same_column(&wrapped, &batch);
    // Int64 + Int32 is checked.
    let overflow = binary(b, BinaryOp::Plus, a, DataType::Int64);
    let err = evaluate(&overflow, &batch).unwrap_err().to_string();
    assert!(err.contains("integer overflow"), "{err}");
    assert_same_column(&overflow, &batch);
}

#[test]
fn a_case_with_a_narrower_branch_is_not_widened_before_its_parent_sees_it() {
    // CASE WHEN b = 1 THEN a ELSE b END is declared Int64, but the THEN
    // branch yields Int32 values; `+ 1` on those wraps at i32 in the row
    // loop. Evaluating the CASE into an Int64 column first would not.
    let batch = int_batch(&[Some(i32::MAX), Some(3)], &[Some(1), Some(40)]);
    let a = BoundExpr::column(0, DataType::Int32, "a");
    let b = || BoundExpr::column(1, DataType::Int64, "b");
    let case = BoundExpr::Case {
        operand: None,
        branches: vec![(binary(b(), BinaryOp::Eq, lit(1), DataType::Boolean), a)],
        else_expr: Some(Box::new(b())),
        data_type: DataType::Int64,
    };
    let sum = binary(case, BinaryOp::Plus, lit(1), DataType::Int64);
    assert_eq!(
        evaluate(&sum, &batch).unwrap().data(),
        &ColumnData::Int64(vec![i32::MIN as i64, 41])
    );
    assert_same_column(&sum, &batch);
}
