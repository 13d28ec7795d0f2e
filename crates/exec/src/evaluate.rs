//! Column-at-a-time expression evaluation over record batches.
//!
//! `pixels_planner::eval` is the single definition of expression semantics;
//! this module reproduces it a column at a time. [`evaluate`] walks the
//! [`BoundExpr`] tree bottom-up, each node producing a whole column from its
//! children's columns through a typed kernel:
//!
//! - `+ - * / %` with `eval_binary`'s widening (Float64 if either side is,
//!   else checked `i64`, narrowed back when both sides are Int32), Date ±
//!   integer and Date − Date;
//! - `Negate`, numeric `Cast`, the six comparisons, three-valued
//!   `AND`/`OR`/`NOT`, `IS [NOT] NULL`.
//!
//! A literal operand stays a scalar (it is never broadcast), validity is
//! combined once per node, and a NULL row's payload is the builder's
//! placeholder (zero), as the row loop would have written it.
//!
//! Two rules keep the result indistinguishable from the row loop
//! ([`crate::scalar::evaluate`]):
//!
//! - **Fallback rule.** A node without a kernel (`LIKE`, `IN`, `CASE`, scalar
//!   functions, `||`, a literal-only subtree, operand types the kernels do
//!   not cover) is evaluated by a row loop *for that subtree only*, and only
//!   when every row's value has exactly the subtree's declared type.
//! - **Error rule.** A kernel never produces error text. Whenever one meets a
//!   row the scalar semantics would reject (overflow, division by zero, a
//!   failing cast, an error inside a fallback subtree) the whole attempt is
//!   dropped and the caller runs the row loop instead — over every row for
//!   [`evaluate`] and [`predicate_mask`], over the still-selected rows for a
//!   conjunct of a filter chain — and returns what *it* returns. A kernel
//!   evaluates eagerly what `AND`/`OR`/`CASE`/`COALESCE` evaluate lazily, so
//!   it can fail where the row loop succeeds; it can never succeed where the
//!   row loop fails.

use crate::scalar;
use pixels_common::{Column, ColumnBuilder, ColumnData, DataType, RecordBatch, Result, Value};
use pixels_planner::eval::{eval_expr, RowAccess};
use pixels_planner::BoundExpr;
use pixels_sql::ast::BinaryOp;
use std::borrow::Cow;

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

/// Like [`evaluate`], but borrows the batch's column when the expression is
/// a bare column reference instead of cloning its payload — the common case
/// for join/group/sort keys and aggregate arguments.
pub fn evaluate_ref<'a>(expr: &BoundExpr, batch: &'a RecordBatch) -> Result<Cow<'a, Column>> {
    if let BoundExpr::ColumnRef { index, .. } = expr {
        return Ok(Cow::Borrowed(batch.column(*index)));
    }
    evaluate(expr, batch).map(Cow::Owned)
}

/// Evaluate `expr` for every row of `batch`, producing a column of the
/// expression's output type.
pub fn evaluate(expr: &BoundExpr, batch: &RecordBatch) -> Result<Column> {
    match evaluate_columnar(expr, batch) {
        Some(col) => Ok(col),
        None => scalar::evaluate(expr, batch),
    }
}

/// The kernels' answer for `expr`, adapted to its declared type the way the
/// row loop adapts each value; `None` sends the caller to the row loop.
fn evaluate_columnar(expr: &BoundExpr, batch: &RecordBatch) -> Option<Column> {
    let Operand::Col(col) = eval_node(expr, batch)? else {
        return None;
    };
    if col.data_type() == expr.data_type() {
        Some(col.into_owned())
    } else {
        cast(&col, expr.data_type()).ok()
    }
}

/// Evaluate a boolean predicate into a selection mask. SQL semantics: NULL
/// counts as not-selected.
pub fn predicate_mask(expr: &BoundExpr, batch: &RecordBatch) -> Result<Vec<bool>> {
    match columnar_mask(expr, batch) {
        Some(mask) => Ok(mask),
        None => scalar::predicate_mask(expr, batch),
    }
}

/// The kernels' mask for a predicate: true where the value is a valid `true`.
fn columnar_mask(expr: &BoundExpr, batch: &RecordBatch) -> Option<Vec<bool>> {
    let Operand::Col(col) = eval_node(expr, batch)? else {
        return None;
    };
    let (ColumnData::Boolean(mut mask), validity) = col.into_owned().into_parts() else {
        return None;
    };
    if let Some(validity) = validity {
        and_into(&mut mask, &validity);
    }
    Some(mask)
}

/// Evaluate a conjunction of predicates into one selection mask without
/// materializing intermediate filtered batches.
///
/// Top-level `AND` chains inside each predicate are flattened and each
/// conjunct is evaluated against the *original* batch, see [`and_conjunct`].
pub fn fused_filter_mask(filters: &[BoundExpr], batch: &RecordBatch) -> Result<Vec<bool>> {
    let mut mask = vec![true; batch.num_rows()];
    let mut conjuncts = Vec::new();
    for f in filters {
        collect_conjuncts(f, &mut conjuncts);
    }
    for conj in conjuncts {
        and_conjunct(conj, batch, &mut mask)?;
    }
    Ok(mask)
}

/// AND one conjunct's verdict into `mask`. The kernels evaluate it over the
/// whole batch; when they cannot, the row loop evaluates it on the rows still
/// selected — the short-circuit order of a sequential filter chain, where a
/// row rejected by an earlier conjunct never reaches a later, possibly
/// erroring, expression.
pub(crate) fn and_conjunct(conj: &BoundExpr, batch: &RecordBatch, mask: &mut [bool]) -> Result<()> {
    if let Some(m) = columnar_mask(conj, batch) {
        and_into(mask, &m);
        return Ok(());
    }
    for (row, acc) in mask.iter_mut().enumerate() {
        if *acc {
            let v = eval_expr(conj, &BatchRow { batch, row })?;
            *acc = matches!(v, Value::Boolean(true));
        }
    }
    Ok(())
}

pub(crate) fn and_into(mask: &mut [bool], m: &[bool]) {
    for (acc, &v) in mask.iter_mut().zip(m) {
        *acc &= v;
    }
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

// ---------------------------------------------------------------------------
// The tree walk
// ---------------------------------------------------------------------------

/// What a node evaluates to: a column, or a non-NULL literal kept as a scalar.
enum Operand<'a> {
    Col(Cow<'a, Column>),
    Lit(&'a Value),
}

impl Operand<'_> {
    fn data_type(&self) -> DataType {
        match self {
            Operand::Col(c) => c.data_type(),
            Operand::Lit(v) => v.data_type().expect("a literal operand is not NULL"),
        }
    }

    fn validity(&self) -> Option<&[bool]> {
        match self {
            Operand::Col(c) => c.validity(),
            Operand::Lit(_) => None,
        }
    }
}

/// Why a kernel produced no column.
enum Miss {
    /// Nothing covers this node kind or these operand types: the subtree
    /// goes to the row loop.
    NoKernel,
    /// A row the scalar semantics reject: the whole expression goes to the
    /// row loop, which decides what the error is — or that there is none.
    Failed,
}

type Kernel<T> = std::result::Result<T, Miss>;

/// Evaluate one node over the whole batch; `None` means [`Miss::Failed`]
/// somewhere beneath it.
fn eval_node<'a>(expr: &'a BoundExpr, batch: &'a RecordBatch) -> Option<Operand<'a>> {
    let kernel = match expr {
        BoundExpr::ColumnRef { index, .. } => {
            return Some(Operand::Col(Cow::Borrowed(batch.column(*index))))
        }
        BoundExpr::Literal(v) if !v.is_null() => return Some(Operand::Lit(v)),
        BoundExpr::BinaryOp {
            left, op, right, ..
        } if *op != BinaryOp::Concat => {
            let (l, r) = (eval_node(left, batch)?, eval_node(right, batch)?);
            match op {
                BinaryOp::And | BinaryOp::Or => logical(*op, &l, &r),
                op if op.is_comparison() => compare(*op, &l, &r),
                op => arithmetic(*op, &l, &r),
            }
        }
        BoundExpr::Negate(e) => negate(&eval_node(e, batch)?),
        BoundExpr::Not(e) => not(&eval_node(e, batch)?),
        BoundExpr::IsNull { expr: e, negated } => is_null(&eval_node(e, batch)?, *negated),
        BoundExpr::Cast { expr: e, to } => match eval_node(e, batch)? {
            Operand::Col(col) => cast(&col, *to),
            Operand::Lit(_) => Err(Miss::NoKernel),
        },
        _ => Err(Miss::NoKernel),
    };
    match kernel {
        Ok(col) => Some(Operand::Col(Cow::Owned(col))),
        Err(Miss::NoKernel) => subtree_row_loop(expr, batch),
        Err(Miss::Failed) => None,
    }
}

/// The fallback rule: `expr` one row at a time, kept only when every value is
/// NULL or exactly of `expr`'s declared type — a column holds one type, and a
/// value the row loop would have carried upward as another (an Int32 branch of
/// an Int64 `CASE`) must not be widened before its parent sees it.
fn subtree_row_loop<'a>(expr: &BoundExpr, batch: &RecordBatch) -> Option<Operand<'a>> {
    let ty = expr.data_type();
    let mut out = ColumnBuilder::with_capacity(ty, batch.num_rows());
    for row in 0..batch.num_rows() {
        let v = eval_expr(expr, &BatchRow { batch, row }).ok()?;
        if v.data_type().is_some_and(|t| t != ty) {
            return None;
        }
        out.push(&v).ok()?;
    }
    Some(Operand::Col(Cow::Owned(out.finish())))
}

// ---------------------------------------------------------------------------
// Kernels
// ---------------------------------------------------------------------------

/// One side of a binary kernel: a column's values, or a literal.
#[derive(Clone, Copy)]
enum Arg<'a, T> {
    Slice(&'a [T]),
    Const(T),
}

/// `f` over the rows of `a` and `b`, one tight loop per operand shape. Two
/// literals are not a shape: a node over literals alone has no kernel.
fn zip_with<A: Copy, B: Copy, T>(
    a: Arg<'_, A>,
    b: Arg<'_, B>,
    mut f: impl FnMut(A, B) -> T,
) -> Vec<T> {
    match (a, b) {
        (Arg::Slice(a), Arg::Slice(b)) => a.iter().zip(b).map(|(&x, &y)| f(x, y)).collect(),
        (Arg::Slice(a), Arg::Const(y)) => a.iter().map(|&x| f(x, y)).collect(),
        (Arg::Const(x), Arg::Slice(b)) => b.iter().map(|&y| f(x, y)).collect(),
        (Arg::Const(_), Arg::Const(_)) => unreachable!("a kernel has a column operand"),
    }
}

/// [`zip_with`] for an operation that can fail: `f` returns `None` where the
/// scalar semantics return an error. The loop only notes that some row
/// failed; whether a *valid* row did (a NULL row's payload is a placeholder
/// and fails nothing) is looked at only then.
fn checked<A: Copy, B: Copy, T: Copy + Default>(
    a: Arg<'_, A>,
    b: Arg<'_, B>,
    validity: Option<&[bool]>,
    f: impl Fn(A, B) -> Option<T>,
) -> Kernel<Vec<T>> {
    let mut failed = false;
    let out = zip_with(a, b, |x, y| {
        let v = f(x, y);
        failed |= v.is_none();
        v.unwrap_or_default()
    });
    if failed {
        let validity = validity.ok_or(Miss::Failed)?;
        let fails = zip_with(a, b, |x, y| f(x, y).is_none());
        if fails
            .iter()
            .zip(validity)
            .any(|(&fail, &valid)| fail && valid)
        {
            return Err(Miss::Failed);
        }
    }
    Ok(out)
}

/// Validity of a node with two operands: a row is valid when both are.
fn both_valid(a: Option<&[bool]>, b: Option<&[bool]>) -> Option<Vec<bool>> {
    match (a, b) {
        (None, None) => None,
        (Some(v), None) | (None, Some(v)) => Some(v.to_vec()),
        (Some(a), Some(b)) => Some(a.iter().zip(b).map(|(&x, &y)| x & y).collect()),
    }
}

/// A kernel's output as a column: NULL rows get the payload the row loop's
/// builder would have pushed for them.
fn finish(mut data: ColumnData, validity: Option<Vec<bool>>) -> Column {
    fn clear<T: Copy + Default>(v: &mut [T], validity: &[bool]) {
        for (x, &valid) in v.iter_mut().zip(validity) {
            *x = if valid { *x } else { T::default() };
        }
    }
    if let Some(validity) = &validity {
        match &mut data {
            ColumnData::Boolean(v) => clear(v, validity),
            ColumnData::Int32(v) | ColumnData::Date(v) => clear(v, validity),
            ColumnData::Int64(v) | ColumnData::Timestamp(v) => clear(v, validity),
            ColumnData::Float64(v) => clear(v, validity),
            ColumnData::Utf8(_) => unreachable!("no kernel produces strings"),
        }
    }
    Column::with_validity(data, validity).expect("a kernel keeps the batch's row count")
}

/// A numeric operand as `f64`s; an integer column is widened into `buf`.
fn f64_arg<'a>(operand: &'a Operand<'_>, buf: &'a mut Vec<f64>) -> Kernel<Arg<'a, f64>> {
    Ok(match operand {
        Operand::Lit(v) => Arg::Const(v.as_f64().ok_or(Miss::NoKernel)?),
        Operand::Col(col) => match col.data() {
            ColumnData::Float64(v) => Arg::Slice(v),
            ColumnData::Int32(v) => {
                buf.extend(v.iter().map(|&x| x as f64));
                Arg::Slice(buf)
            }
            ColumnData::Int64(v) => {
                buf.extend(v.iter().map(|&x| x as f64));
                Arg::Slice(buf)
            }
            _ => return Err(Miss::NoKernel),
        },
    })
}

/// An integer or date operand as `i64`s; a 32-bit column is widened into
/// `buf`.
fn i64_arg<'a>(operand: &'a Operand<'_>, buf: &'a mut Vec<i64>) -> Kernel<Arg<'a, i64>> {
    Ok(match operand {
        Operand::Lit(v) => Arg::Const(v.as_i64().ok_or(Miss::NoKernel)?),
        Operand::Col(col) => match col.data() {
            ColumnData::Int64(v) => Arg::Slice(v),
            ColumnData::Int32(v) | ColumnData::Date(v) => {
                buf.extend(v.iter().map(|&x| i64::from(x)));
                Arg::Slice(buf)
            }
            _ => return Err(Miss::NoKernel),
        },
    })
}

/// `+ - * / %`, following `eval_binary` case by case: date arithmetic first,
/// then the common numeric type of the two sides.
fn arithmetic(op: BinaryOp, l: &Operand<'_>, r: &Operand<'_>) -> Kernel<Column> {
    use BinaryOp::{Divide, Minus, Modulo, Multiply, Plus};
    use DataType::{Date, Float64, Int32, Int64};
    if let (Operand::Lit(_), Operand::Lit(_)) = (l, r) {
        return Err(Miss::NoKernel);
    }
    let validity = both_valid(l.validity(), r.validity());
    let valid = validity.as_deref();
    let (mut lf, mut rf) = (Vec::new(), Vec::new());
    let (mut li, mut ri) = (Vec::new(), Vec::new());
    let data = match (op, l.data_type(), r.data_type()) {
        (Plus, Date, Int32 | Int64)
        | (Plus, Int32 | Int64, Date)
        | (Minus, Date, Int32 | Int64) => {
            let (a, b) = (i64_arg(l, &mut li)?, i64_arg(r, &mut ri)?);
            let day = |days: Option<i64>| days.and_then(|d| i32::try_from(d).ok());
            ColumnData::Date(if op == Plus {
                checked(a, b, valid, |x, y| day(x.checked_add(y)))?
            } else {
                checked(a, b, valid, |x, y| day(x.checked_sub(y)))?
            })
        }
        (Minus, Date, Date) => {
            let (a, b) = (i64_arg(l, &mut li)?, i64_arg(r, &mut ri)?);
            ColumnData::Int64(zip_with(a, b, |x, y| x - y))
        }
        (_, lt, rt) => match DataType::common_numeric(lt, rt).ok_or(Miss::NoKernel)? {
            Float64 => {
                let (a, b) = (f64_arg(l, &mut lf)?, f64_arg(r, &mut rf)?);
                ColumnData::Float64(match op {
                    Plus => zip_with(a, b, |x, y| x + y),
                    Minus => zip_with(a, b, |x, y| x - y),
                    Multiply => zip_with(a, b, |x, y| x * y),
                    Divide => checked(a, b, valid, |x, y| (y != 0.0).then(|| x / y))?,
                    Modulo => checked(a, b, valid, |x, y| (y != 0.0).then(|| x % y))?,
                    _ => return Err(Miss::NoKernel),
                })
            }
            common => {
                let (a, b) = (i64_arg(l, &mut li)?, i64_arg(r, &mut ri)?);
                // `checked_div`/`checked_rem` are `None` for a zero divisor
                // and for `MIN / -1`: both are errors in `eval_binary`.
                let wide = match op {
                    Plus => checked(a, b, valid, i64::checked_add)?,
                    Minus => checked(a, b, valid, i64::checked_sub)?,
                    Multiply => checked(a, b, valid, i64::checked_mul)?,
                    Divide => checked(a, b, valid, i64::checked_div)?,
                    Modulo => checked(a, b, valid, i64::checked_rem)?,
                    _ => return Err(Miss::NoKernel),
                };
                if common == Int32 {
                    ColumnData::Int32(wide.into_iter().map(|v| v as i32).collect())
                } else {
                    ColumnData::Int64(wide)
                }
            }
        },
    };
    Ok(finish(data, validity))
}

fn negate(operand: &Operand<'_>) -> Kernel<Column> {
    let Operand::Col(col) = operand else {
        return Err(Miss::NoKernel);
    };
    let data = match col.data() {
        ColumnData::Int32(v) => ColumnData::Int32(v.iter().map(|x| x.wrapping_neg()).collect()),
        ColumnData::Int64(v) => ColumnData::Int64(v.iter().map(|x| x.wrapping_neg()).collect()),
        ColumnData::Float64(v) => ColumnData::Float64(v.iter().map(|x| -x).collect()),
        _ => return Err(Miss::NoKernel),
    };
    Ok(finish(data, col.validity().map(<[bool]>::to_vec)))
}

/// Lossless numeric widening — the pairs `ColumnBuilder::push` accepts a
/// value of one type into a column of another for. `None` for any other pair.
pub(crate) fn widen(col: &Column, to: DataType) -> Option<Column> {
    let data = match (col.data(), to) {
        (ColumnData::Int32(v), DataType::Int64) => {
            ColumnData::Int64(v.iter().map(|&x| i64::from(x)).collect())
        }
        (ColumnData::Int32(v), DataType::Float64) => {
            ColumnData::Float64(v.iter().map(|&x| f64::from(x)).collect())
        }
        (ColumnData::Int64(v), DataType::Float64) => {
            ColumnData::Float64(v.iter().map(|&x| x as f64).collect())
        }
        _ => return None,
    };
    Some(finish(data, col.validity().map(<[bool]>::to_vec)))
}

/// `CAST` between numeric types, value by value what `Value::cast_to` does.
fn cast(col: &Column, to: DataType) -> Kernel<Column> {
    let validity = || col.validity().map(<[bool]>::to_vec);
    if col.data_type() == to && to.is_numeric() {
        return Ok(finish(col.data().clone(), validity()));
    }
    if let Some(wider) = widen(col, to) {
        return Ok(wider);
    }
    let data = match (col.data(), to) {
        (ColumnData::Int64(v), DataType::Int32) => {
            let narrow = |x: i64, ()| i32::try_from(x).ok();
            let unit = Arg::Const(());
            ColumnData::Int32(checked(Arg::Slice(v), unit, col.validity(), narrow)?)
        }
        (ColumnData::Float64(v), DataType::Int32) => {
            ColumnData::Int32(v.iter().map(|&x| x as i32).collect())
        }
        (ColumnData::Float64(v), DataType::Int64) => {
            ColumnData::Int64(v.iter().map(|&x| x as i64).collect())
        }
        _ => return Err(Miss::NoKernel),
    };
    Ok(finish(data, validity()))
}

/// A Boolean column operand's values and validity.
fn bools<'a>(operand: &'a Operand<'_>) -> Kernel<(&'a [bool], Option<&'a [bool]>)> {
    match operand {
        Operand::Col(col) => match col.data() {
            ColumnData::Boolean(v) => Ok((v, col.validity())),
            _ => Err(Miss::NoKernel),
        },
        Operand::Lit(_) => Err(Miss::NoKernel),
    }
}

/// Three-valued `AND`/`OR`: FALSE (for `OR`: TRUE) on either side decides the
/// row even when the other side is NULL.
fn logical(op: BinaryOp, l: &Operand<'_>, r: &Operand<'_>) -> Kernel<Column> {
    let ((a, a_valid), (b, b_valid)) = (bools(l)?, bools(r)?);
    let and = op == BinaryOp::And;
    if a_valid.is_none() && b_valid.is_none() {
        let values = zip_with(Arg::Slice(a), Arg::Slice(b), |x, y| {
            if and {
                x & y
            } else {
                x | y
            }
        });
        return Ok(Column::new(ColumnData::Boolean(values)));
    }
    let (mut values, mut validity) = (Vec::with_capacity(a.len()), Vec::with_capacity(a.len()));
    for i in 0..a.len() {
        let (xv, yv) = (a_valid.is_none_or(|v| v[i]), b_valid.is_none_or(|v| v[i]));
        // Each side as "valid and true" / "valid and false".
        let (xt, xf, yt, yf) = (xv & a[i], xv & !a[i], yv & b[i], yv & !b[i]);
        let (value, valid) = if and {
            (xt & yt, (xv & yv) | xf | yf)
        } else {
            (xt | yt, (xv & yv) | xt | yt)
        };
        values.push(value);
        validity.push(valid);
    }
    Ok(finish(ColumnData::Boolean(values), Some(validity)))
}

fn not(operand: &Operand<'_>) -> Kernel<Column> {
    let (values, validity) = bools(operand)?;
    let data = ColumnData::Boolean(values.iter().map(|&x| !x).collect());
    Ok(finish(data, validity.map(<[bool]>::to_vec)))
}

/// `IS [NOT] NULL` straight off the validity vector.
fn is_null(operand: &Operand<'_>, negated: bool) -> Kernel<Column> {
    let Operand::Col(col) = operand else {
        return Err(Miss::NoKernel);
    };
    Ok(Column::new(ColumnData::Boolean(match col.validity() {
        Some(bits) => bits.iter().map(|&valid| valid == negated).collect(),
        None => vec![negated; col.len()],
    })))
}

/// The six comparisons between two columns or a column and a literal.
fn compare(op: BinaryOp, l: &Operand<'_>, r: &Operand<'_>) -> Kernel<Column> {
    let (values, validity) = match (l, r) {
        (Operand::Col(col), Operand::Lit(lit)) => (
            compare_literal(col.data(), op, lit, false),
            col.validity().map(<[bool]>::to_vec),
        ),
        (Operand::Lit(lit), Operand::Col(col)) => (
            compare_literal(col.data(), op, lit, true),
            col.validity().map(<[bool]>::to_vec),
        ),
        (Operand::Col(a), Operand::Col(b)) => (
            compare_columns(a.data(), b.data(), op),
            both_valid(a.validity(), b.validity()),
        ),
        (Operand::Lit(_), Operand::Lit(_)) => (None, None),
    };
    let values = values.ok_or(Miss::NoKernel)?;
    Ok(finish(ColumnData::Boolean(values), validity))
}

/// Numeric column payload viewed as f64, the widening `Value::sql_cmp`
/// applies before comparing an integer with a float. Shared with the sort
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

    /// `Value::sql_cmp` of elements `a` and `b`: integers exactly, floats
    /// by `f64::total_cmp`.
    #[inline]
    pub(crate) fn compare(&self, a: usize, b: usize) -> std::cmp::Ordering {
        match self {
            NumSlice::I32(v) => v[a].cmp(&v[b]),
            NumSlice::I64(v) => v[a].cmp(&v[b]),
            NumSlice::F64(v) => v[a].total_cmp(&v[b]),
        }
    }
}

/// Which orderings of `left` against `right` satisfy a comparison operator,
/// as three flags so that a kernel's loop carries no branch on the operator.
#[derive(Clone, Copy)]
struct Accept {
    less: bool,
    equal: bool,
    greater: bool,
}

impl Accept {
    /// The flags of `left <op> right`; with `flipped`, of `right <op> left`.
    fn new(op: BinaryOp, flipped: bool) -> Accept {
        let (less, equal, greater) = match op {
            BinaryOp::Eq => (false, true, false),
            BinaryOp::NotEq => (true, false, true),
            BinaryOp::Lt => (true, false, false),
            BinaryOp::LtEq => (true, true, false),
            BinaryOp::Gt => (false, false, true),
            BinaryOp::GtEq => (false, true, true),
            _ => unreachable!("not a comparison: {op:?}"),
        };
        let (less, greater) = if flipped {
            (greater, less)
        } else {
            (less, greater)
        };
        Accept {
            less,
            equal,
            greater,
        }
    }

    /// Whether `left <op> right` holds, for fixed-width values: three
    /// comparisons and no branch.
    #[inline]
    fn test<T: PartialOrd>(self, left: &T, right: &T) -> bool {
        (self.less & (left < right))
            | (self.equal & (left == right))
            | (self.greater & (left > right))
    }

    /// Whether an already computed ordering satisfies the operator.
    #[inline]
    fn of(self, ord: std::cmp::Ordering) -> bool {
        match ord {
            std::cmp::Ordering::Less => self.less,
            std::cmp::Ordering::Equal => self.equal,
            std::cmp::Ordering::Greater => self.greater,
        }
    }
}

/// An `f64` as an integer that orders like `f64::total_cmp` — the order
/// `Value::sql_cmp` gives numerics, where `-0.0 < 0.0` and NaN equals itself.
#[inline]
fn total_order(x: f64) -> i64 {
    let bits = x.to_bits() as i64;
    bits ^ (((bits >> 63) as u64) >> 1) as i64
}

/// `a <op> b` per row for the pairs `Value::sql_cmp` orders — integer with
/// integer exactly, any other numeric pair through `f64::total_cmp`, and
/// Utf8/Date/Timestamp/Boolean against themselves — ignoring validity.
/// `None` for any other pair, which the scalar semantics reject row by row.
fn compare_columns(a: &ColumnData, b: &ColumnData, op: BinaryOp) -> Option<Vec<bool>> {
    let accept = Accept::new(op, false);
    fn zip<T: PartialOrd>(accept: Accept, a: &[T], b: &[T]) -> Vec<bool> {
        a.iter().zip(b).map(|(x, y)| accept.test(x, y)).collect()
    }
    Some(match (a, b) {
        (ColumnData::Utf8(a), ColumnData::Utf8(b)) => a
            .iter()
            .zip(b.iter())
            .map(|(x, y)| accept.of(x.cmp(y)))
            .collect(),
        (ColumnData::Date(a), ColumnData::Date(b)) => zip(accept, a, b),
        (ColumnData::Timestamp(a), ColumnData::Timestamp(b)) => zip(accept, a, b),
        (ColumnData::Boolean(a), ColumnData::Boolean(b)) => zip(accept, a, b),
        (ColumnData::Int32(a), ColumnData::Int32(b)) => zip(accept, a, b),
        (ColumnData::Int64(a), ColumnData::Int64(b)) => zip(accept, a, b),
        (ColumnData::Int32(a), ColumnData::Int64(b)) => (a.iter().zip(b))
            .map(|(&x, y)| accept.test(&i64::from(x), y))
            .collect(),
        (ColumnData::Int64(a), ColumnData::Int32(b)) => (a.iter().zip(b))
            .map(|(x, &y)| accept.test(x, &i64::from(y)))
            .collect(),
        (a, b) => {
            let (na, nb) = (NumSlice::of(a)?, NumSlice::of(b)?);
            (0..a.len())
                .map(|i| accept.test(&total_order(na.get(i)), &total_order(nb.get(i))))
                .collect()
        }
    })
}

/// `data <op> lit` per element (`lit <op> data` when `flipped`) for the same
/// pairs as [`compare_columns`], ignoring validity; `lit` is not NULL. Shared
/// with the encoded scan, which runs it over a dictionary's entries or an RLE
/// chunk's run values.
pub(crate) fn compare_literal(
    data: &ColumnData,
    op: BinaryOp,
    lit: &Value,
    flipped: bool,
) -> Option<Vec<bool>> {
    let accept = Accept::new(op, flipped);
    fn each<T: PartialOrd>(accept: Accept, v: &[T], t: &T) -> Vec<bool> {
        v.iter().map(|x| accept.test(x, t)).collect()
    }
    Some(match (data, lit) {
        (ColumnData::Date(v), Value::Date(t)) => each(accept, v, t),
        (ColumnData::Timestamp(v), Value::Timestamp(t)) => each(accept, v, t),
        (ColumnData::Boolean(v), Value::Boolean(t)) => each(accept, v, t),
        (ColumnData::Utf8(v), Value::Utf8(s)) => {
            let verdict = |x: &str| accept.of(x.cmp(s.as_str()));
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
        // Integer against integer, exactly, like `sql_cmp`.
        (ColumnData::Int32(v), Value::Int32(t)) => each(accept, v, t),
        (ColumnData::Int64(v), Value::Int64(t)) => each(accept, v, t),
        (ColumnData::Int64(v), Value::Int32(t)) => each(accept, v, &i64::from(*t)),
        (ColumnData::Int32(v), Value::Int64(t)) => {
            v.iter().map(|&x| accept.test(&i64::from(x), t)).collect()
        }
        // A float on either side: both widened to f64, like `sql_cmp`.
        (data, lit) => {
            let t = total_order(lit.as_f64()?);
            let verdict = |x: f64| accept.test(&total_order(x), &t);
            match data {
                ColumnData::Int32(v) => v.iter().map(|&x| verdict(f64::from(x))).collect(),
                ColumnData::Int64(v) => v.iter().map(|&x| verdict(x as f64)).collect(),
                ColumnData::Float64(v) => v.iter().map(|&x| verdict(x)).collect(),
                _ => return None,
            }
        }
    })
}

/// [`compare_literal`] as a selection mask over a column: a NULL row, and
/// every row against a NULL literal, is not selected. `None` when the pair
/// has no kernel.
pub(crate) fn compare_literal_mask(
    col: &Column,
    op: BinaryOp,
    lit: &Value,
    flipped: bool,
) -> Option<Vec<bool>> {
    if lit.is_null() {
        return Some(vec![false; col.len()]);
    }
    let mut mask = compare_literal(col.data(), op, lit, flipped)?;
    if let Some(validity) = col.validity() {
        and_into(&mut mask, validity);
    }
    Some(mask)
}

/// Whether [`compare_literal`] covers this column type and (non-null)
/// literal — i.e. whether the comparison is infallible per row.
pub(crate) fn literal_comparable(ty: DataType, lit: &Value) -> bool {
    lit.data_type().is_some_and(|lt| ty.comparable_with(lt))
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
        // Int32 literals under an Int64-typed expression: a literal-only
        // subtree has no kernel, its values are not of the declared type, so
        // the row loop evaluates it and casts each value.
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
    fn literal_comparison_mask_either_orientation() {
        let b = batch();
        // a >= 2 ...
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
    fn string_comparison_mask() {
        let b = batch();
        let pred = cmp(
            BoundExpr::column(2, DataType::Utf8, "s"),
            BinaryOp::Gt,
            BoundExpr::literal(Value::Utf8("x".into())),
        );
        assert_eq!(predicate_mask(&pred, &b).unwrap(), vec![false, true, true]);
    }

    #[test]
    fn column_column_comparison_matches_row_loop() {
        let b = batch();
        // a < b (b nullable): kernel and row loop must agree row by
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
    fn is_null_matches_row_loop() {
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

    /// Integer against integer is compared exactly — by the kernels, and by
    /// the row loop they must agree with — where `f64` rounds neighbours
    /// together: around ±2^53 and at the ends of `i64`.
    #[test]
    fn integer_comparisons_are_exact_past_2_pow_53() {
        const P: i64 = 1 << 53;
        let edges = [i64::MIN, -P - 1, -P, -P + 1, 0, P - 1, P, P + 1, i64::MAX];
        let narrow = [i32::MIN, -1, 0, 7, i32::MAX];
        // Every pair of edges in one row: columns `a` and `b` (Int64), and
        // `c` (Int32) cycling through its own edges.
        let pairs: Vec<(i64, i64)> = (edges.iter())
            .flat_map(|&a| edges.iter().map(move |&b| (a, b)))
            .collect();
        let schema = Arc::new(Schema::new(vec![
            Field::required("a", DataType::Int64),
            Field::required("b", DataType::Int64),
            Field::required("c", DataType::Int32),
        ]));
        let rows: Vec<Vec<Value>> = (pairs.iter().enumerate())
            .map(|(i, &(a, b))| {
                vec![
                    Value::Int64(a),
                    Value::Int64(b),
                    Value::Int32(narrow[i % narrow.len()]),
                ]
            })
            .collect();
        let batch = RecordBatch::from_rows(schema, &rows).unwrap();
        let holds = |ord: std::cmp::Ordering, op: BinaryOp| match op {
            BinaryOp::Eq => ord.is_eq(),
            BinaryOp::NotEq => ord.is_ne(),
            BinaryOp::Lt => ord.is_lt(),
            BinaryOp::LtEq => ord.is_le(),
            BinaryOp::Gt => ord.is_gt(),
            _ => ord.is_ge(),
        };
        let (a, b, c) = (
            col_ref(0, DataType::Int64),
            col_ref(1, DataType::Int64),
            col_ref(2, DataType::Int32),
        );
        for op in [
            BinaryOp::Eq,
            BinaryOp::NotEq,
            BinaryOp::Lt,
            BinaryOp::LtEq,
            BinaryOp::Gt,
            BinaryOp::GtEq,
        ] {
            let check = |expr: BoundExpr, exact: Vec<bool>| {
                let kernel = predicate_mask(&expr, &batch).unwrap();
                let row_loop = scalar::predicate_mask(&expr, &batch).unwrap();
                assert_eq!(kernel, exact, "kernel, {expr}");
                assert_eq!(row_loop, exact, "row loop, {expr}");
            };
            // Column against column, both widths.
            let exact = pairs.iter().map(|&(x, y)| holds(x.cmp(&y), op)).collect();
            check(cmp(a.clone(), op, b.clone()), exact);
            let exact = (pairs.iter().enumerate())
                .map(|(i, &(x, _))| holds(x.cmp(&i64::from(narrow[i % narrow.len()])), op))
                .collect();
            check(cmp(a.clone(), op, c.clone()), exact);
            // Column against literal, either side, both widths.
            for &lit in &edges {
                let exact = pairs.iter().map(|&(x, _)| holds(x.cmp(&lit), op)).collect();
                check(
                    cmp(a.clone(), op, BoundExpr::literal(Value::Int64(lit))),
                    exact,
                );
                let exact = pairs.iter().map(|&(x, _)| holds(lit.cmp(&x), op)).collect();
                check(
                    cmp(BoundExpr::literal(Value::Int64(lit)), op, a.clone()),
                    exact,
                );
                let exact = (0..pairs.len())
                    .map(|i| holds(i64::from(narrow[i % narrow.len()]).cmp(&lit), op))
                    .collect();
                check(
                    cmp(c.clone(), op, BoundExpr::literal(Value::Int64(lit))),
                    exact,
                );
            }
            let exact = pairs.iter().map(|&(x, _)| holds(x.cmp(&7), op)).collect();
            check(
                cmp(a.clone(), op, BoundExpr::literal(Value::Int32(7))),
                exact,
            );
        }
    }
}
