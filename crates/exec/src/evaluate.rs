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
//! A literal operand stays a scalar (it is never broadcast), validity (a
//! [`Selection`]) is combined a word at a time once per node, and a NULL
//! row's payload is the builder's placeholder (zero), as the row loop would
//! have written it. A predicate's verdict is a [`Selection`] too: its Boolean
//! column's valid rows, refined by its values.
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

use crate::compare::{compare_columns, compare_literal, CmpOp, Lanes};
use crate::scalar;
use pixels_common::{
    Column, ColumnBuilder, ColumnData, DataType, RecordBatch, Result, Selection, Value,
};
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

/// Evaluate a boolean predicate into the selection of the rows it keeps. SQL
/// semantics: NULL counts as not-selected.
pub fn predicate_mask(expr: &BoundExpr, batch: &RecordBatch) -> Result<Selection> {
    let mut mask = Selection::all(batch.num_rows());
    if and_verdict(expr, batch, &mut mask) {
        return Ok(mask);
    }
    scalar::predicate_mask(expr, batch)
}

/// AND the kernels' verdict for a predicate into `selection`: keep the rows
/// whose value is a valid `true`. False, with `selection` untouched, when
/// the kernels cannot finish it.
fn and_verdict(expr: &BoundExpr, batch: &RecordBatch, selection: &mut Selection) -> bool {
    let Some(Operand::Col(col)) = eval_node(expr, batch) else {
        return false;
    };
    let ColumnData::Boolean(values) = col.data() else {
        return false;
    };
    selection.refine_flags(values, |keep| keep);
    if let Some(valid) = col.validity() {
        selection.and(valid);
    }
    true
}

/// Evaluate a conjunction of predicates into one [`Selection`] without
/// materializing intermediate filtered batches; the `Filter` operator
/// gathers its batch with it ([`RecordBatch::select`]).
///
/// Top-level `AND` chains inside each predicate are flattened and each
/// conjunct is evaluated against the *original* batch, see [`and_conjunct`].
pub fn fused_filter_selection(filters: &[BoundExpr], batch: &RecordBatch) -> Result<Selection> {
    let mut selection = Selection::all(batch.num_rows());
    let mut conjuncts = Vec::new();
    for f in filters {
        collect_conjuncts(f, &mut conjuncts);
    }
    for conj in conjuncts {
        and_conjunct(conj, batch, &mut selection)?;
    }
    Ok(selection)
}

/// AND one conjunct's verdict into `selection`. The kernels evaluate it over
/// the whole batch; when they cannot, the row loop evaluates it on the rows
/// still selected — the short-circuit order of a sequential filter chain,
/// where a row rejected by an earlier conjunct never reaches a later,
/// possibly erroring, expression.
pub(crate) fn and_conjunct(
    conj: &BoundExpr,
    batch: &RecordBatch,
    selection: &mut Selection,
) -> Result<()> {
    if and_verdict(conj, batch, selection) {
        return Ok(());
    }
    selection.try_retain(|row| {
        let v = eval_expr(conj, &BatchRow { batch, row })?;
        Ok(matches!(v, Value::Boolean(true)))
    })
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

    fn validity(&self) -> Option<&Selection> {
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

impl<T: Copy> Arg<'_, T> {
    fn get(self, row: usize) -> T {
        match self {
            Arg::Slice(v) => v[row],
            Arg::Const(x) => x,
        }
    }
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
    validity: Option<&Selection>,
    f: impl Fn(A, B) -> Option<T>,
) -> Kernel<Vec<T>> {
    let mut failed = false;
    let out = zip_with(a, b, |x, y| {
        let v = f(x, y);
        failed |= v.is_none();
        v.unwrap_or_default()
    });
    if failed {
        let valid = validity.ok_or(Miss::Failed)?;
        if (0..out.len()).any(|row| valid.contains(row) && f(a.get(row), b.get(row)).is_none()) {
            return Err(Miss::Failed);
        }
    }
    Ok(out)
}

/// Validity of a node with two operands: a row is valid when both are.
fn both_valid(a: Option<&Selection>, b: Option<&Selection>) -> Option<Selection> {
    let mut both = a.or(b)?.clone();
    if let (Some(_), Some(b)) = (a, b) {
        both.and(b);
    }
    Some(both)
}

/// A kernel's output as a column: NULL rows get the payload the row loop's
/// builder would have pushed for them.
fn finish(mut data: ColumnData, validity: Option<Selection>) -> Column {
    // The NULL rows are the gaps between the valid rows' ranges.
    fn clear<T: Copy + Default>(v: &mut [T], validity: &Selection) {
        let mut from = 0;
        validity.for_each_range(|rows| {
            v[from..rows.start].fill(T::default());
            from = rows.end;
        });
        v[from..].fill(T::default());
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
    let valid = validity.as_ref();
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
    Ok(finish(data, col.validity().cloned()))
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
    Some(finish(data, col.validity().cloned()))
}

/// `CAST` between numeric types, value by value what `Value::cast_to` does.
fn cast(col: &Column, to: DataType) -> Kernel<Column> {
    let validity = || col.validity().cloned();
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
fn bools<'a>(operand: &'a Operand<'_>) -> Kernel<(&'a [bool], Option<&'a Selection>)> {
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
    // Each side as the rows where it is valid and TRUE, and where it is
    // valid and FALSE, a word at a time.
    let n = a.len();
    let sides = |values: &[bool], valid: Option<&Selection>| {
        let mut t = valid.cloned().unwrap_or_else(|| Selection::all(n));
        let mut f = t.clone();
        t.refine_flags(values, |x| x);
        f.refine_flags(values, |x| !x);
        (t, f)
    };
    let ((mut t, mut f), (yt, yf)) = (sides(a, a_valid), sides(b, b_valid));
    // AND is TRUE where both sides are and FALSE where either is; OR is TRUE
    // where either is and FALSE where both are. Decided either way is valid.
    if and {
        t.and(&yt);
        f.or(&yf);
    } else {
        t.or(&yt);
        f.and(&yf);
    }
    let values = (0..n).map(|i| t.contains(i)).collect();
    t.or(&f);
    Ok(finish(ColumnData::Boolean(values), Some(t)))
}

fn not(operand: &Operand<'_>) -> Kernel<Column> {
    let (values, validity) = bools(operand)?;
    let data = ColumnData::Boolean(values.iter().map(|&x| !x).collect());
    Ok(finish(data, validity.cloned()))
}

/// `IS [NOT] NULL` straight off the validity words.
fn is_null(operand: &Operand<'_>, negated: bool) -> Kernel<Column> {
    let Operand::Col(col) = operand else {
        return Err(Miss::NoKernel);
    };
    let values = (0..col.len()).map(|row| col.is_null(row) != negated);
    Ok(Column::new(ColumnData::Boolean(values.collect())))
}

/// The six comparisons between two columns or a column and a literal, by
/// the kernels of [`crate::compare`].
fn compare(op: BinaryOp, l: &Operand<'_>, r: &Operand<'_>) -> Kernel<Column> {
    let against_literal = |col: &Column, lit: &Value, flipped: bool| {
        let mut values = Vec::new();
        compare_literal(
            &mut values,
            Lanes::Column(col.data()),
            CmpOp::of(op, flipped),
            lit,
        )
        .then_some(values)
    };
    let values = match (l, r) {
        (Operand::Col(col), Operand::Lit(lit)) => against_literal(col, lit, false),
        (Operand::Lit(lit), Operand::Col(col)) => against_literal(col, lit, true),
        (Operand::Col(a), Operand::Col(b)) => {
            compare_columns(a.data(), b.data(), CmpOp::of(op, false))
        }
        (Operand::Lit(_), Operand::Lit(_)) => None,
    };
    let values = values.ok_or(Miss::NoKernel)?;
    let validity = both_valid(l.validity(), r.validity());
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

    fn flags(s: &Selection) -> Vec<bool> {
        (0..s.len()).map(|row| s.contains(row)).collect()
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
        assert_eq!(
            flags(&predicate_mask(&fast, &b).unwrap()),
            vec![false, true, true]
        );
        // ... flipped literal side: 2 >= a  <=>  a <= 2.
        let flipped = cmp(
            BoundExpr::literal(Value::Int64(2)),
            BinaryOp::GtEq,
            BoundExpr::column(0, DataType::Int64, "a"),
        );
        assert_eq!(
            flags(&predicate_mask(&flipped, &b).unwrap()),
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
        assert_eq!(
            flags(&predicate_mask(&pred, &b).unwrap()),
            vec![true, false, true]
        );
    }

    #[test]
    fn string_comparison_mask() {
        let b = batch();
        let pred = cmp(
            BoundExpr::column(2, DataType::Utf8, "s"),
            BinaryOp::Gt,
            BoundExpr::literal(Value::Utf8("x".into())),
        );
        assert_eq!(
            flags(&predicate_mask(&pred, &b).unwrap()),
            vec![false, true, true]
        );
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
        let fast = flags(&predicate_mask(&pred, &b).unwrap());
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
            let fast = flags(&predicate_mask(&pred, &b).unwrap());
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
                flags(&predicate_mask(&pred0, &b).unwrap()),
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
        let fused = flags(&fused_filter_selection(std::slice::from_ref(&anded), &b).unwrap());
        // ... must equal the two-pass sequential filter chain.
        let m1 = predicate_mask(&f1, &b).unwrap();
        let filtered = b.select(&m1).unwrap();
        let m2 = flags(&predicate_mask(&f2, &filtered).unwrap());
        let mut sequential = Vec::new();
        let mut fi = 0;
        for selected in flags(&m1) {
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
        assert_eq!(
            flags(&fused_filter_selection(&[f1, f2], &b).unwrap()),
            fused
        );
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
                let kernel = flags(&predicate_mask(&expr, &batch).unwrap());
                let row_loop = flags(&scalar::predicate_mask(&expr, &batch).unwrap());
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
