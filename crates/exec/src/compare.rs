//! Comparison kernels: `a <op> b` for the pairs `Value::sql_cmp` orders,
//! with one loop per operator.
//!
//! Every comparison the executor runs without a row loop comes through here:
//! the evaluator's comparison nodes ([`crate::evaluate`], and with them the
//! `Filter` operator, join residuals and the scan's decoded-batch fallback)
//! and the scan's own `col <op> literal` conjuncts ([`crate::encoded`]),
//! which compare a plain chunk's payload bytes in place, a dictionary's
//! entries or an RLE chunk's run values. The operator is matched once,
//! outside the loop (`for_op!`), so that each loop is one comparison per
//! element with no branch, which LLVM vectorises on the default x86-64
//! target. What a loop writes is a [`Sink`]: one `bool` per element, or the
//! words of a [`Selection`], 64 rows to a word.
//!
//! The order is `Value::sql_cmp`'s: integers (Int32, Int64) against each
//! other exactly, any other numeric pair through `f64::total_cmp` — NaN
//! equals itself and `-0.0 < 0.0` — as an integer comparison of
//! [`total_order`] keys, and Utf8, Date, Timestamp and Boolean against
//! themselves.

use crate::evaluate::NumSlice;
use pixels_common::{ColumnData, DataType, Selection, StrVec, Value};
use pixels_sql::ast::BinaryOp;

/// A comparison operator, `left <op> right`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub(crate) enum CmpOp {
    Eq,
    NotEq,
    Lt,
    LtEq,
    Gt,
    GtEq,
}

impl CmpOp {
    /// The operator of `left <op> right`; with `flipped`, the one that reads
    /// `right <op> left` with the operands swapped back (`3 < x` is `x > 3`).
    pub(crate) fn of(op: BinaryOp, flipped: bool) -> CmpOp {
        let cmp = match op {
            BinaryOp::Eq => CmpOp::Eq,
            BinaryOp::NotEq => CmpOp::NotEq,
            BinaryOp::Lt => CmpOp::Lt,
            BinaryOp::LtEq => CmpOp::LtEq,
            BinaryOp::Gt => CmpOp::Gt,
            BinaryOp::GtEq => CmpOp::GtEq,
            _ => unreachable!("not a comparison: {op:?}"),
        };
        match (cmp, flipped) {
            (CmpOp::Lt, true) => CmpOp::Gt,
            (CmpOp::LtEq, true) => CmpOp::GtEq,
            (CmpOp::Gt, true) => CmpOp::Lt,
            (CmpOp::GtEq, true) => CmpOp::LtEq,
            (cmp, _) => cmp,
        }
    }
}

/// `a <OP> b`, `OP` a [`CmpOp`] as `u8`. A constant, so that a loop that
/// calls it holds one comparison and no branch on the operator.
#[inline(always)]
fn holds<const OP: u8, T: PartialOrd>(a: T, b: T) -> bool {
    const EQ: u8 = CmpOp::Eq as u8;
    const NE: u8 = CmpOp::NotEq as u8;
    const LT: u8 = CmpOp::Lt as u8;
    const LE: u8 = CmpOp::LtEq as u8;
    const GT: u8 = CmpOp::Gt as u8;
    match OP {
        EQ => a == b,
        NE => a != b,
        LT => a < b,
        LE => a <= b,
        GT => a > b,
        _ => a >= b,
    }
}

/// `$body` with `$OP` the constant of `$cmp`: one copy of `$body`, and of
/// the loop inside it, per operator.
macro_rules! for_op {
    ($cmp:expr, $OP:ident => $body:expr) => {
        for_op!($cmp, $OP => $body; Eq NotEq Lt LtEq Gt GtEq)
    };
    ($cmp:expr, $OP:ident => $body:expr; $($op:ident)*) => {
        match $cmp {
            $(CmpOp::$op => {
                const $OP: u8 = CmpOp::$op as u8;
                $body
            })*
        }
    };
}

/// Where a kernel's verdicts go: one per element of `src`, `flag(element)`.
pub(crate) trait Sink {
    fn flags<S: Copy>(&mut self, src: &[S], flag: impl Fn(S) -> bool);
}

/// One `bool` per element.
impl Sink for Vec<bool> {
    fn flags<S: Copy>(&mut self, src: &[S], flag: impl Fn(S) -> bool) {
        self.clear();
        self.extend(src.iter().map(|&s| flag(s)));
    }
}

/// ANDed into the words, one row per element; words that keep nothing are
/// skipped ([`Selection::refine_flags`]).
impl Sink for Selection {
    fn flags<S: Copy>(&mut self, src: &[S], flag: impl Fn(S) -> bool) {
        self.refine_flags(src, flag);
    }
}

/// An `f64` as an integer that orders like `f64::total_cmp` — the order
/// `Value::sql_cmp` gives numerics, where `-0.0 < 0.0` and NaN equals itself.
#[inline]
pub(crate) fn total_order(x: f64) -> i64 {
    let bits = x.to_bits() as i64;
    bits ^ (((bits >> 63) as u64) >> 1) as i64
}

/// The values of a literal comparison: a decoded payload, or a plain
/// chunk's fixed-width payload bytes in place.
#[derive(Clone, Copy)]
pub(crate) enum Lanes<'a> {
    Column(&'a ColumnData),
    /// A plain Int32 or Date chunk: little-endian `i32`s.
    Le4(DataType, &'a [[u8; 4]]),
    /// A plain Int64, Timestamp or Float64 chunk: little-endian `i64`s, or
    /// `f64` bits.
    Le8(DataType, &'a [[u8; 8]]),
}

impl Lanes<'_> {
    fn data_type(&self) -> DataType {
        match self {
            Lanes::Column(data) => data.data_type(),
            Lanes::Le4(ty, _) | Lanes::Le8(ty, _) => *ty,
        }
    }
}

/// `map(element) <cmp> t` for every element of `src`, into `sink`.
fn against<K: Sink, S: Copy, T: PartialOrd + Copy>(
    sink: &mut K,
    cmp: CmpOp,
    src: &[S],
    map: impl Fn(S) -> T,
    t: T,
) {
    for_op!(cmp, OP => sink.flags(src, |s| holds::<OP, T>(map(s), t)))
}

/// `values <cmp> lit` per row into `sink`, ignoring validity; `lit` is not
/// NULL. False, with `sink` untouched, for a pair `sql_cmp` does not order.
pub(crate) fn compare_literal<K: Sink>(
    sink: &mut K,
    values: Lanes<'_>,
    cmp: CmpOp,
    lit: &Value,
) -> bool {
    use DataType as D;
    match (values.data_type(), lit) {
        // Integer against integer, exactly, each at its own width.
        (D::Int32, Value::Int32(t)) | (D::Date, Value::Date(t)) => {
            narrow(sink, cmp, values, |x| x, *t)
        }
        (D::Int32, Value::Int64(t)) => narrow(sink, cmp, values, i64::from, *t),
        (D::Int64, Value::Int64(t)) | (D::Timestamp, Value::Timestamp(t)) => {
            wide(sink, cmp, values, |x| x, *t)
        }
        (D::Int64, Value::Int32(t)) => wide(sink, cmp, values, |x| x, i64::from(*t)),
        // A float on either side: both widened to f64.
        (D::Int32, Value::Float64(t)) => narrow(
            sink,
            cmp,
            values,
            |x| total_order(f64::from(x)),
            total_order(*t),
        ),
        (D::Int64, Value::Float64(t)) => wide(
            sink,
            cmp,
            values,
            |x| total_order(x as f64),
            total_order(*t),
        ),
        (D::Float64, lit) => {
            let Some(t) = lit.as_f64() else {
                return false;
            };
            match values {
                Lanes::Column(ColumnData::Float64(v)) => {
                    against(sink, cmp, v, total_order, total_order(t))
                }
                Lanes::Le8(_, v) => against(
                    sink,
                    cmp,
                    v,
                    |b| total_order(f64::from_le_bytes(b)),
                    total_order(t),
                ),
                _ => return false,
            }
        }
        (D::Boolean, Value::Boolean(t)) => match values {
            Lanes::Column(ColumnData::Boolean(v)) => against(sink, cmp, v, |x| x, *t),
            _ => return false,
        },
        (D::Utf8, Value::Utf8(s)) => match values {
            Lanes::Column(ColumnData::Utf8(v)) => strings(sink, cmp, v, s),
            _ => return false,
        },
        _ => return false,
    }
    true
}

/// Whether [`compare_literal`] covers this column type and (non-null)
/// literal — i.e. whether the comparison is infallible per row.
pub(crate) fn literal_comparable(ty: DataType, lit: &Value) -> bool {
    lit.data_type().is_some_and(|lt| ty.comparable_with(lt))
}

/// An Int32 or Date source's `i32`s, through `map`, against `t`.
fn narrow<K: Sink, T: PartialOrd + Copy>(
    sink: &mut K,
    cmp: CmpOp,
    values: Lanes<'_>,
    map: impl Fn(i32) -> T,
    t: T,
) {
    match values {
        Lanes::Column(ColumnData::Int32(v) | ColumnData::Date(v)) => against(sink, cmp, v, map, t),
        Lanes::Le4(_, v) => against(sink, cmp, v, |b| map(i32::from_le_bytes(b)), t),
        _ => unreachable!("an Int32 or Date source"),
    }
}

/// An Int64 or Timestamp source's `i64`s, through `map`, against `t`.
fn wide<K: Sink, T: PartialOrd + Copy>(
    sink: &mut K,
    cmp: CmpOp,
    values: Lanes<'_>,
    map: impl Fn(i64) -> T,
    t: T,
) {
    match values {
        Lanes::Column(ColumnData::Int64(v) | ColumnData::Timestamp(v)) => {
            against(sink, cmp, v, map, t)
        }
        Lanes::Le8(_, v) => against(sink, cmp, v, |b| map(i64::from_le_bytes(b)), t),
        _ => unreachable!("an Int64 or Timestamp source"),
    }
}

/// Strings against `s`. With fewer pool entries than rows (a dictionary),
/// one comparison per entry, then each row's verdict looked up by its index.
fn strings<K: Sink>(sink: &mut K, cmp: CmpOp, v: &StrVec, s: &str) {
    let pool = v.pool();
    if pool.len() < v.len() {
        let by_entry: Vec<bool> =
            for_op!(cmp, OP => pool.iter().map(|e| holds::<OP, &str>(e, s)).collect());
        let no_entry = for_op!(cmp, OP => holds::<OP, &str>("", s));
        sink.flags(v.indices(), |i| {
            by_entry.get(i as usize).copied().unwrap_or(no_entry)
        });
    } else {
        against(sink, cmp, v.indices(), |i| v.entry(i), s);
    }
}

/// `a <cmp> b` per row for the pairs `sql_cmp` orders, ignoring validity.
/// `None` for any other pair, which the scalar semantics reject row by row.
pub(crate) fn compare_columns(a: &ColumnData, b: &ColumnData, cmp: CmpOp) -> Option<Vec<bool>> {
    fn zip<S: Copy, U: Copy, T: PartialOrd>(
        cmp: CmpOp,
        a: &[S],
        b: &[U],
        fa: impl Fn(S) -> T,
        fb: impl Fn(U) -> T,
    ) -> Vec<bool> {
        for_op!(cmp, OP => (a.iter().zip(b))
            .map(|(&x, &y)| holds::<OP, T>(fa(x), fb(y)))
            .collect())
    }
    use ColumnData as C;
    Some(match (a, b) {
        (C::Utf8(a), C::Utf8(b)) => zip(
            cmp,
            a.indices(),
            b.indices(),
            |i| a.entry(i),
            |i| b.entry(i),
        ),
        (C::Int32(a), C::Int32(b)) | (C::Date(a), C::Date(b)) => zip(cmp, a, b, |x| x, |y| y),
        (C::Int64(a), C::Int64(b)) | (C::Timestamp(a), C::Timestamp(b)) => {
            zip(cmp, a, b, |x| x, |y| y)
        }
        (C::Boolean(a), C::Boolean(b)) => zip(cmp, a, b, |x| x, |y| y),
        (C::Int32(a), C::Int64(b)) => zip(cmp, a, b, i64::from, |y| y),
        (C::Int64(a), C::Int32(b)) => zip(cmp, a, b, |x| x, i64::from),
        (a, b) => {
            let (na, nb) = (NumSlice::of(a)?, NumSlice::of(b)?);
            for_op!(cmp, OP => (0..a.len())
                .map(|i| holds::<OP, i64>(total_order(na.get(i)), total_order(nb.get(i))))
                .collect())
        }
    })
}
