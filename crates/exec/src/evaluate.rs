//! Vectorized-interface expression evaluation over record batches.
//!
//! Semantics live in `pixels_planner::eval`; this module adapts them to
//! columns, with fast paths for the comparison shapes that dominate scan
//! filters and join residuals (`column <op> literal`, `column <op> column`,
//! `IS [NOT] NULL`) and a fused-conjunction mask that evaluates an AND
//! chain into a single selection vector without materializing intermediate
//! filtered batches.

use pixels_common::{Column, ColumnBuilder, ColumnData, DataType, RecordBatch, Result, Value};
use pixels_planner::eval::{eval_expr, RowAccess};
use pixels_planner::BoundExpr;
use pixels_sql::ast::BinaryOp;

/// One row of a batch, viewed through [`RowAccess`].
pub struct BatchRow<'a> {
    pub batch: &'a RecordBatch,
    pub row: usize,
}

impl RowAccess for BatchRow<'_> {
    fn column_value(&self, index: usize) -> Value {
        self.batch.column(index).value(self.row)
    }
}

/// True when `v` can be appended to a builder of type `target` without a
/// cast — exactly the combinations [`ColumnBuilder::push`] accepts. Checked
/// before pushing so the mismatch case never pays `push`'s formatted-error
/// allocation (it used to be paid once per mismatched row).
fn value_fits(target: DataType, v: &Value) -> bool {
    matches!(
        (target, v),
        (DataType::Boolean, Value::Boolean(_))
            | (DataType::Int32, Value::Int32(_))
            | (DataType::Int64, Value::Int64(_) | Value::Int32(_))
            | (
                DataType::Float64,
                Value::Float64(_) | Value::Int32(_) | Value::Int64(_)
            )
            | (DataType::Utf8, Value::Utf8(_))
            | (DataType::Date, Value::Date(_))
            | (DataType::Timestamp, Value::Timestamp(_))
    )
}

/// Like [`evaluate`], but borrows the batch's column when the expression is
/// a bare column reference instead of cloning its payload — the common case
/// for join/group/sort keys and aggregate arguments.
pub fn evaluate_ref<'a>(
    expr: &BoundExpr,
    batch: &'a RecordBatch,
) -> Result<std::borrow::Cow<'a, Column>> {
    if let BoundExpr::ColumnRef { index, .. } = expr {
        return Ok(std::borrow::Cow::Borrowed(batch.column(*index)));
    }
    evaluate(expr, batch).map(std::borrow::Cow::Owned)
}

/// Evaluate `expr` for every row of `batch`, producing a column of the
/// expression's output type.
pub fn evaluate(expr: &BoundExpr, batch: &RecordBatch) -> Result<Column> {
    // Fast path: bare column reference.
    if let BoundExpr::ColumnRef { index, .. } = expr {
        return Ok(batch.column(*index).clone());
    }
    // The cast decision is resolved per value-type up front (`value_fits`):
    // rows whose runtime type mismatches the expression type (e.g. an Int32
    // literal flowing into an Int64 expression) cast directly instead of
    // attempting a push that fails with a freshly formatted error.
    let out_ty = expr.data_type();
    let mut builder = ColumnBuilder::with_capacity(out_ty, batch.num_rows());
    for row in 0..batch.num_rows() {
        let v = eval_expr(expr, &BatchRow { batch, row })?;
        if v.is_null() {
            builder.push_null();
        } else if value_fits(out_ty, &v) {
            builder.push(&v)?;
        } else {
            builder.push(&v.cast_to(out_ty)?)?;
        }
    }
    Ok(builder.finish())
}

/// Evaluate a boolean predicate into a selection mask. SQL semantics: NULL
/// counts as not-selected.
pub fn predicate_mask(expr: &BoundExpr, batch: &RecordBatch) -> Result<Vec<bool>> {
    if let Some(mask) = vector_mask(expr, batch)? {
        return Ok(mask);
    }
    let mut mask = Vec::with_capacity(batch.num_rows());
    for row in 0..batch.num_rows() {
        let v = eval_expr(expr, &BatchRow { batch, row })?;
        mask.push(matches!(v, Value::Boolean(true)));
    }
    Ok(mask)
}

/// Evaluate a conjunction of predicates into one selection mask without
/// materializing intermediate filtered batches.
///
/// Top-level `AND` chains inside each predicate are flattened and each
/// conjunct is evaluated against the *original* batch: vectorizable
/// conjuncts (comparisons, `IS NULL`) produce whole masks that are ANDed
/// in, and scalar-fallback conjuncts are only evaluated on rows still
/// selected — preserving the short-circuit evaluation order the sequential
/// filter chain had (a row rejected by an earlier conjunct never reaches a
/// later, possibly erroring, expression).
pub fn fused_filter_mask(filters: &[BoundExpr], batch: &RecordBatch) -> Result<Vec<bool>> {
    let n = batch.num_rows();
    let mut mask = vec![true; n];
    let mut conjuncts = Vec::new();
    for f in filters {
        collect_conjuncts(f, &mut conjuncts);
    }
    for conj in conjuncts {
        if let Some(m) = vector_mask(conj, batch)? {
            for (acc, v) in mask.iter_mut().zip(m) {
                *acc &= v;
            }
        } else {
            for (row, acc) in mask.iter_mut().enumerate() {
                if *acc {
                    let v = eval_expr(conj, &BatchRow { batch, row })?;
                    *acc = matches!(v, Value::Boolean(true));
                }
            }
        }
    }
    Ok(mask)
}

/// Flatten nested `a AND b AND c` into its conjuncts, in evaluation order.
pub(crate) fn collect_conjuncts<'a>(expr: &'a BoundExpr, out: &mut Vec<&'a BoundExpr>) {
    if let BoundExpr::BinaryOp {
        left,
        op: BinaryOp::And,
        right,
        ..
    } = expr
    {
        collect_conjuncts(left, out);
        collect_conjuncts(right, out);
    } else {
        out.push(expr);
    }
}

/// Fully vectorized mask evaluation for the supported predicate shapes;
/// `None` when the shape has no fast path. Every path here is infallible
/// per-row (no casts, no incomparable types), so evaluating rows that a
/// fused conjunction already rejected is safe.
pub(crate) fn vector_mask(expr: &BoundExpr, batch: &RecordBatch) -> Result<Option<Vec<bool>>> {
    if let Some(mask) = is_null_fast_path(expr, batch) {
        return Ok(Some(mask));
    }
    if let Some(mask) = compare_fast_path(expr, batch)? {
        return Ok(Some(mask));
    }
    Ok(Some(match compare_columns_fast_path(expr, batch) {
        Some(mask) => mask,
        None => return Ok(None),
    }))
}

/// `col IS [NOT] NULL` straight off the validity vector.
fn is_null_fast_path(expr: &BoundExpr, batch: &RecordBatch) -> Option<Vec<bool>> {
    let BoundExpr::IsNull {
        expr: inner,
        negated,
    } = expr
    else {
        return None;
    };
    let BoundExpr::ColumnRef { index, .. } = inner.as_ref() else {
        return None;
    };
    let col = batch.column(*index);
    Some(match col.validity() {
        Some(bits) => bits.iter().map(|&valid| valid == *negated).collect(),
        None => vec![*negated; batch.num_rows()],
    })
}

/// Numeric column payload viewed as f64, the widening `Value::sql_cmp`
/// applies before comparing mixed numeric types. Shared with the sort
/// kernel so permutation sorts reproduce `Value::total_cmp` exactly.
#[derive(Clone, Copy)]
pub(crate) enum NumSlice<'a> {
    I32(&'a [i32]),
    I64(&'a [i64]),
    F64(&'a [f64]),
}

impl<'a> NumSlice<'a> {
    pub(crate) fn of(data: &'a ColumnData) -> Option<NumSlice<'a>> {
        match data {
            ColumnData::Int32(v) => Some(NumSlice::I32(v)),
            ColumnData::Int64(v) => Some(NumSlice::I64(v)),
            ColumnData::Float64(v) => Some(NumSlice::F64(v)),
            _ => None,
        }
    }

    #[inline]
    pub(crate) fn get(&self, i: usize) -> f64 {
        match self {
            NumSlice::I32(v) => v[i] as f64,
            NumSlice::I64(v) => v[i] as f64,
            NumSlice::F64(v) => v[i],
        }
    }
}

/// Vectorized `left_col <op> right_col` for same-class column pairs
/// (numeric×numeric via f64 widening, and Utf8/Date/Timestamp/Boolean
/// against themselves) — the shape join residuals and self-filters take.
/// Mismatched classes fall back to the scalar path so its per-row
/// "cannot compare" error semantics are preserved.
fn compare_columns_fast_path(expr: &BoundExpr, batch: &RecordBatch) -> Option<Vec<bool>> {
    let BoundExpr::BinaryOp {
        left, op, right, ..
    } = expr
    else {
        return None;
    };
    if !op.is_comparison() {
        return None;
    }
    let (BoundExpr::ColumnRef { index: li, .. }, BoundExpr::ColumnRef { index: ri, .. }) =
        (left.as_ref(), right.as_ref())
    else {
        return None;
    };
    let (lc, rc) = (batch.column(*li), batch.column(*ri));
    let n = batch.num_rows();
    let mut mask: Vec<bool> = match (lc.data(), rc.data()) {
        (ColumnData::Utf8(a), ColumnData::Utf8(b)) => (0..n)
            .map(|i| ord_matches(a.get(i).cmp(b.get(i)), *op, false))
            .collect(),
        (ColumnData::Date(a), ColumnData::Date(b)) => (0..n)
            .map(|i| ord_matches(a[i].cmp(&b[i]), *op, false))
            .collect(),
        (ColumnData::Timestamp(a), ColumnData::Timestamp(b)) => (0..n)
            .map(|i| ord_matches(a[i].cmp(&b[i]), *op, false))
            .collect(),
        (ColumnData::Boolean(a), ColumnData::Boolean(b)) => (0..n)
            .map(|i| ord_matches(a[i].cmp(&b[i]), *op, false))
            .collect(),
        (a, b) => {
            let (na, nb) = (NumSlice::of(a)?, NumSlice::of(b)?);
            (0..n)
                .map(|i| ord_matches(na.get(i).total_cmp(&nb.get(i)), *op, false))
                .collect()
        }
    };
    // NULL on either side compares to NULL, which a mask renders as false.
    for col in [lc, rc] {
        if let Some(validity) = col.validity() {
            for (m, &valid) in mask.iter_mut().zip(validity) {
                *m &= valid;
            }
        }
    }
    Some(mask)
}

/// Vectorized evaluation of `col <op> literal` over i64-representable and
/// f64 columns; returns `None` when the shape doesn't match.
fn compare_fast_path(expr: &BoundExpr, batch: &RecordBatch) -> Result<Option<Vec<bool>>> {
    let BoundExpr::BinaryOp {
        left, op, right, ..
    } = expr
    else {
        return Ok(None);
    };
    if !op.is_comparison() {
        return Ok(None);
    }
    let (col_idx, lit, flipped) = match (left.as_ref(), right.as_ref()) {
        (BoundExpr::ColumnRef { index, .. }, BoundExpr::Literal(v)) => (*index, v, false),
        (BoundExpr::Literal(v), BoundExpr::ColumnRef { index, .. }) => (*index, v, true),
        _ => return Ok(None),
    };
    Ok(compare_literal_mask(
        batch.column(col_idx),
        *op,
        lit,
        flipped,
    ))
}

/// The kernel behind [`compare_fast_path`], shared with the encoded scan
/// path so dictionary/RLE shortcut masks reproduce these exact semantics.
/// `None` when the column-type/literal combination has no fast path (mixed
/// numeric widths fall back to the scalar path for exact widening).
pub(crate) fn compare_literal_mask(
    col: &Column,
    op: BinaryOp,
    lit: &Value,
    flipped: bool,
) -> Option<Vec<bool>> {
    if lit.is_null() {
        return Some(vec![false; col.len()]);
    }
    let cmp_i64 = |target: i64, data: &[i64], small: Option<&[i32]>| -> Vec<bool> {
        let check = |x: i64| ord_matches(x.cmp(&target), op, flipped);
        match small {
            Some(s) => s.iter().map(|&x| check(x as i64)).collect(),
            None => data.iter().map(|&x| check(x)).collect(),
        }
    };
    let mut mask = match (col.data(), lit) {
        (ColumnData::Int64(v), _) if lit.as_i64().is_some() => {
            cmp_i64(lit.as_i64().unwrap(), v, None)
        }
        (ColumnData::Timestamp(v), Value::Timestamp(t)) => cmp_i64(*t, v, None),
        (ColumnData::Int32(v), _) if lit.as_i64().is_some() => {
            cmp_i64(lit.as_i64().unwrap(), &[], Some(v))
        }
        (ColumnData::Date(v), Value::Date(d)) => cmp_i64(*d as i64, &[], Some(v)),
        (ColumnData::Float64(v), _) if lit.as_f64().is_some() => {
            let target = lit.as_f64().unwrap();
            v.iter()
                .map(|x| ord_matches(x.total_cmp(&target), op, flipped))
                .collect()
        }
        (ColumnData::Utf8(v), Value::Utf8(s)) => {
            let verdict = |x: &str| ord_matches(x.cmp(s.as_str()), op, flipped);
            let pool = v.pool();
            if pool.len() < v.len() {
                // Fewer pool entries than rows (a dictionary): one comparison
                // per entry, mapped over the rows' indices.
                let by_entry: Vec<bool> = pool.iter().map(verdict).collect();
                let no_entry = verdict("");
                (v.indices().iter())
                    .map(|&i| by_entry.get(i as usize).copied().unwrap_or(no_entry))
                    .collect()
            } else {
                v.iter().map(verdict).collect()
            }
        }
        // Mixed-type comparisons (e.g. Int32 column vs Float64 literal) fall
        // back to the scalar path for exact widening semantics.
        _ => return None,
    };
    if let Some(validity) = col.validity() {
        for (m, &valid) in mask.iter_mut().zip(validity) {
            *m &= valid;
        }
    }
    Some(mask)
}

/// Whether [`compare_literal_mask`] has a fast path for this column type and
/// (non-null) literal — i.e. whether the comparison is infallible per row.
pub(crate) fn literal_comparable(ty: DataType, lit: &Value) -> bool {
    matches!(
        (ty, lit),
        (DataType::Int64, _) if lit.as_i64().is_some()
    ) || matches!(
        (ty, lit),
        (DataType::Int32, _) if lit.as_i64().is_some()
    ) || matches!(
        (ty, lit),
        (DataType::Float64, _) if lit.as_f64().is_some()
    ) || matches!(
        (ty, lit),
        (DataType::Timestamp, Value::Timestamp(_))
            | (DataType::Date, Value::Date(_))
            | (DataType::Utf8, Value::Utf8(_))
    )
}

pub(crate) fn ord_matches(ord: std::cmp::Ordering, op: BinaryOp, flipped: bool) -> bool {
    let ord = if flipped { ord.reverse() } else { ord };
    match op {
        BinaryOp::Eq => ord.is_eq(),
        BinaryOp::NotEq => ord.is_ne(),
        BinaryOp::Lt => ord.is_lt(),
        BinaryOp::LtEq => ord.is_le(),
        BinaryOp::Gt => ord.is_gt(),
        BinaryOp::GtEq => ord.is_ge(),
        _ => unreachable!(),
    }
}

/// Evaluate an expression against a single materialized row (used by join
/// residuals). Exposed for operator implementations.
pub fn eval_row(expr: &BoundExpr, row: &[Value]) -> Result<Value> {
    eval_expr(expr, &row.to_vec())
}

#[cfg(test)]
mod tests {
    use super::*;
    use pixels_common::{DataType, Field, Schema};
    use std::sync::Arc;

    fn batch() -> RecordBatch {
        let schema = Arc::new(Schema::new(vec![
            Field::required("a", DataType::Int64),
            Field::nullable("b", DataType::Int64),
            Field::required("s", DataType::Utf8),
        ]));
        RecordBatch::from_rows(
            schema,
            &[
                vec![Value::Int64(1), Value::Int64(10), Value::Utf8("x".into())],
                vec![Value::Int64(2), Value::Null, Value::Utf8("y".into())],
                vec![Value::Int64(3), Value::Int64(30), Value::Utf8("z".into())],
            ],
        )
        .unwrap()
    }

    fn col_ref(i: usize, ty: DataType) -> BoundExpr {
        BoundExpr::column(i, ty, format!("c{i}"))
    }

    fn cmp(l: BoundExpr, op: BinaryOp, r: BoundExpr) -> BoundExpr {
        BoundExpr::BinaryOp {
            left: Box::new(l),
            op,
            right: Box::new(r),
            data_type: DataType::Boolean,
        }
    }

    #[test]
    fn evaluate_arithmetic() {
        let b = batch();
        let expr = BoundExpr::BinaryOp {
            left: Box::new(BoundExpr::column(0, DataType::Int64, "a")),
            op: BinaryOp::Multiply,
            right: Box::new(BoundExpr::literal(Value::Int64(2))),
            data_type: DataType::Int64,
        };
        let col = evaluate(&expr, &b).unwrap();
        assert_eq!(col.value(0), Value::Int64(2));
        assert_eq!(col.value(2), Value::Int64(6));
    }

    #[test]
    fn evaluate_with_nulls() {
        let b = batch();
        let expr = BoundExpr::BinaryOp {
            left: Box::new(BoundExpr::column(1, DataType::Int64, "b")),
            op: BinaryOp::Plus,
            right: Box::new(BoundExpr::literal(Value::Int64(1))),
            data_type: DataType::Int64,
        };
        let col = evaluate(&expr, &b).unwrap();
        assert_eq!(col.value(0), Value::Int64(11));
        assert_eq!(col.value(1), Value::Null);
    }

    #[test]
    fn evaluate_casts_mismatched_widths_once_per_row_type() {
        // An Int32 literal under an Int64-typed expression exercises the
        // resolved-cast path (value_fits short-circuits the old
        // push-Err-cast retry).
        let b = batch();
        let expr = BoundExpr::BinaryOp {
            left: Box::new(BoundExpr::literal(Value::Int32(5))),
            op: BinaryOp::Plus,
            right: Box::new(BoundExpr::literal(Value::Int32(1))),
            data_type: DataType::Int64,
        };
        let col = evaluate(&expr, &b).unwrap();
        assert_eq!(col.data_type(), DataType::Int64);
        assert_eq!(col.value(0), Value::Int64(6));
    }

    #[test]
    fn fast_path_mask_matches_scalar_path() {
        let b = batch();
        // a >= 2 via the fast path...
        let fast = cmp(
            BoundExpr::column(0, DataType::Int64, "a"),
            BinaryOp::GtEq,
            BoundExpr::literal(Value::Int64(2)),
        );
        assert_eq!(predicate_mask(&fast, &b).unwrap(), vec![false, true, true]);
        // ... flipped literal side: 2 >= a  <=>  a <= 2.
        let flipped = cmp(
            BoundExpr::literal(Value::Int64(2)),
            BinaryOp::GtEq,
            BoundExpr::column(0, DataType::Int64, "a"),
        );
        assert_eq!(
            predicate_mask(&flipped, &b).unwrap(),
            vec![true, true, false]
        );
    }

    #[test]
    fn null_column_rows_not_selected() {
        let b = batch();
        let pred = cmp(
            BoundExpr::column(1, DataType::Int64, "b"),
            BinaryOp::Gt,
            BoundExpr::literal(Value::Int64(5)),
        );
        assert_eq!(predicate_mask(&pred, &b).unwrap(), vec![true, false, true]);
    }

    #[test]
    fn string_comparison_fast_path() {
        let b = batch();
        let pred = cmp(
            BoundExpr::column(2, DataType::Utf8, "s"),
            BinaryOp::Gt,
            BoundExpr::literal(Value::Utf8("x".into())),
        );
        assert_eq!(predicate_mask(&pred, &b).unwrap(), vec![false, true, true]);
    }

    #[test]
    fn column_column_fast_path_matches_scalar() {
        let b = batch();
        // a < b (b nullable): fast path and scalar loop must agree row by
        // row, including the NULL row.
        let pred = cmp(
            col_ref(0, DataType::Int64),
            BinaryOp::Lt,
            col_ref(1, DataType::Int64),
        );
        let fast = predicate_mask(&pred, &b).unwrap();
        let scalar: Vec<bool> = (0..b.num_rows())
            .map(|row| {
                matches!(
                    eval_expr(&pred, &BatchRow { batch: &b, row }).unwrap(),
                    Value::Boolean(true)
                )
            })
            .collect();
        assert_eq!(fast, scalar);
        assert_eq!(fast, vec![true, false, true]);
    }

    #[test]
    fn is_null_fast_path_matches_scalar() {
        let b = batch();
        for negated in [false, true] {
            let pred = BoundExpr::IsNull {
                expr: Box::new(col_ref(1, DataType::Int64)),
                negated,
            };
            let fast = predicate_mask(&pred, &b).unwrap();
            let scalar: Vec<bool> = (0..b.num_rows())
                .map(|row| {
                    matches!(
                        eval_expr(&pred, &BatchRow { batch: &b, row }).unwrap(),
                        Value::Boolean(true)
                    )
                })
                .collect();
            assert_eq!(fast, scalar, "negated={negated}");
            // A column with no validity vector: IS NULL is all-false.
            let pred0 = BoundExpr::IsNull {
                expr: Box::new(col_ref(0, DataType::Int64)),
                negated,
            };
            assert_eq!(
                predicate_mask(&pred0, &b).unwrap(),
                vec![negated; b.num_rows()]
            );
        }
    }

    #[test]
    fn fused_mask_equals_sequential_filtering() {
        let b = batch();
        let f1 = cmp(
            col_ref(0, DataType::Int64),
            BinaryOp::GtEq,
            BoundExpr::literal(Value::Int64(2)),
        );
        let f2 = cmp(
            col_ref(2, DataType::Utf8),
            BinaryOp::NotEq,
            BoundExpr::literal(Value::Utf8("y".into())),
        );
        // Fused AND-chain in one predicate...
        let anded = BoundExpr::BinaryOp {
            left: Box::new(f1.clone()),
            op: BinaryOp::And,
            right: Box::new(f2.clone()),
            data_type: DataType::Boolean,
        };
        let fused = fused_filter_mask(std::slice::from_ref(&anded), &b).unwrap();
        // ... must equal the two-pass sequential filter chain.
        let m1 = predicate_mask(&f1, &b).unwrap();
        let filtered = b.filter(&m1).unwrap();
        let m2 = predicate_mask(&f2, &filtered).unwrap();
        let mut sequential = Vec::new();
        let mut fi = 0;
        for selected in m1 {
            if selected {
                sequential.push(m2[fi]);
                fi += 1;
            } else {
                sequential.push(false);
            }
        }
        assert_eq!(fused, sequential);
        assert_eq!(fused, vec![false, false, true]);
        // The filter-list form (two separate conjuncts) agrees too.
        assert_eq!(fused_filter_mask(&[f1, f2], &b).unwrap(), fused);
    }
}
