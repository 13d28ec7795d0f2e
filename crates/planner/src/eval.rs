//! Scalar evaluation of bound expressions.
//!
//! This is the single source of truth for expression semantics: the
//! optimizer's constant folder and the executor both evaluate through
//! [`eval_expr`], so folded plans can never disagree with runtime results.
//! SQL three-valued logic is implemented faithfully (NULL AND FALSE = FALSE,
//! NULL OR TRUE = TRUE, comparisons with NULL yield NULL).

use crate::expr::{BoundExpr, ScalarFunc};
use pixels_common::{DataType, Error, Result, Value};
use pixels_sql::ast::BinaryOp;

/// Row-shaped input to the evaluator.
pub trait RowAccess {
    fn column_value(&self, index: usize) -> Value;
}

/// A row backed by a slice of values (used in tests and the VALUES operator).
impl RowAccess for [Value] {
    fn column_value(&self, index: usize) -> Value {
        self[index].clone()
    }
}

impl RowAccess for Vec<Value> {
    fn column_value(&self, index: usize) -> Value {
        self[index].clone()
    }
}

/// A row accessor that rejects all column references; evaluating a constant
/// expression against it succeeds iff the expression is truly constant.
pub struct NoRow;

impl RowAccess for NoRow {
    fn column_value(&self, _: usize) -> Value {
        Value::Null
    }
}

/// Evaluate `expr` against one row.
pub fn eval_expr(expr: &BoundExpr, row: &(impl RowAccess + ?Sized)) -> Result<Value> {
    match expr {
        BoundExpr::ColumnRef { index, .. } => Ok(row.column_value(*index)),
        BoundExpr::Literal(v) => Ok(v.clone()),
        BoundExpr::BinaryOp {
            left, op, right, ..
        } => {
            // AND/OR need lazy three-valued logic.
            if matches!(op, BinaryOp::And | BinaryOp::Or) {
                return eval_logical(left, *op, right, row);
            }
            let l = eval_expr(left, row)?;
            let r = eval_expr(right, row)?;
            eval_binary(*op, &l, &r)
        }
        BoundExpr::Negate(e) => match eval_expr(e, row)? {
            Value::Null => Ok(Value::Null),
            Value::Int32(v) => Ok(Value::Int32(v.wrapping_neg())),
            Value::Int64(v) => Ok(Value::Int64(v.wrapping_neg())),
            Value::Float64(v) => Ok(Value::Float64(-v)),
            other => Err(Error::Exec(format!("cannot negate {other}"))),
        },
        BoundExpr::Not(e) => match eval_expr(e, row)? {
            Value::Null => Ok(Value::Null),
            Value::Boolean(b) => Ok(Value::Boolean(!b)),
            other => Err(Error::Exec(format!("NOT requires a boolean, got {other}"))),
        },
        BoundExpr::ScalarFn { func, args, .. } => eval_scalar_fn(*func, args, row),
        BoundExpr::IsNull { expr, negated } => {
            let v = eval_expr(expr, row)?;
            Ok(Value::Boolean(v.is_null() != *negated))
        }
        BoundExpr::InList {
            expr,
            list,
            negated,
        } => {
            let v = eval_expr(expr, row)?;
            if v.is_null() {
                return Ok(Value::Null);
            }
            let mut saw_null = false;
            for item in list {
                let iv = eval_expr(item, row)?;
                if iv.is_null() {
                    saw_null = true;
                    continue;
                }
                if v.sql_cmp(&iv) == Some(std::cmp::Ordering::Equal) {
                    return Ok(Value::Boolean(!*negated));
                }
            }
            if saw_null {
                // SQL: x IN (..., NULL) is NULL when no match.
                Ok(Value::Null)
            } else {
                Ok(Value::Boolean(*negated))
            }
        }
        BoundExpr::Like {
            expr,
            pattern,
            negated,
        } => {
            let v = eval_expr(expr, row)?;
            let p = eval_expr(pattern, row)?;
            match (v, p) {
                (Value::Null, _) | (_, Value::Null) => Ok(Value::Null),
                (Value::Utf8(s), Value::Utf8(pat)) => {
                    Ok(Value::Boolean(like_match(&s, &pat) != *negated))
                }
                (a, b) => Err(Error::Exec(format!("LIKE requires strings, got {a}, {b}"))),
            }
        }
        BoundExpr::Case {
            operand,
            branches,
            else_expr,
            ..
        } => {
            let operand_val = operand.as_ref().map(|o| eval_expr(o, row)).transpose()?;
            for (when, then) in branches {
                let matched = match &operand_val {
                    Some(ov) => {
                        let wv = eval_expr(when, row)?;
                        !ov.is_null() && ov.sql_cmp(&wv) == Some(std::cmp::Ordering::Equal)
                    }
                    None => matches!(eval_expr(when, row)?, Value::Boolean(true)),
                };
                if matched {
                    return eval_expr(then, row);
                }
            }
            match else_expr {
                Some(e) => eval_expr(e, row),
                None => Ok(Value::Null),
            }
        }
        BoundExpr::Cast { expr, to } => eval_expr(expr, row)?.cast_to(*to),
    }
}

fn eval_logical(
    left: &BoundExpr,
    op: BinaryOp,
    right: &BoundExpr,
    row: &(impl RowAccess + ?Sized),
) -> Result<Value> {
    let as_bool3 = |v: Value| -> Result<Option<bool>> {
        match v {
            Value::Null => Ok(None),
            Value::Boolean(b) => Ok(Some(b)),
            other => Err(Error::Exec(format!(
                "logical operator requires booleans, got {other}"
            ))),
        }
    };
    let l = as_bool3(eval_expr(left, row)?)?;
    // Short circuit where the result is already determined.
    match (op, l) {
        (BinaryOp::And, Some(false)) => return Ok(Value::Boolean(false)),
        (BinaryOp::Or, Some(true)) => return Ok(Value::Boolean(true)),
        _ => {}
    }
    let r = as_bool3(eval_expr(right, row)?)?;
    let result = match op {
        BinaryOp::And => match (l, r) {
            (Some(false), _) | (_, Some(false)) => Some(false),
            (Some(true), Some(true)) => Some(true),
            _ => None,
        },
        BinaryOp::Or => match (l, r) {
            (Some(true), _) | (_, Some(true)) => Some(true),
            (Some(false), Some(false)) => Some(false),
            _ => None,
        },
        _ => unreachable!(),
    };
    Ok(result.map_or(Value::Null, Value::Boolean))
}

/// Evaluate a non-logical binary operator on two scalars.
pub fn eval_binary(op: BinaryOp, l: &Value, r: &Value) -> Result<Value> {
    if matches!(op, BinaryOp::Concat) {
        // CONCAT treats NULL as NULL (SQL standard for ||).
        if l.is_null() || r.is_null() {
            return Ok(Value::Null);
        }
        return Ok(Value::Utf8(format!("{l}{r}")));
    }
    if l.is_null() || r.is_null() {
        return Ok(Value::Null);
    }
    if op.is_comparison() {
        let ord = l
            .sql_cmp(r)
            .ok_or_else(|| Error::Exec(format!("cannot compare {l} with {r}")))?;
        let b = match op {
            BinaryOp::Eq => ord.is_eq(),
            BinaryOp::NotEq => ord.is_ne(),
            BinaryOp::Lt => ord.is_lt(),
            BinaryOp::LtEq => ord.is_le(),
            BinaryOp::Gt => ord.is_gt(),
            BinaryOp::GtEq => ord.is_ge(),
            _ => unreachable!(),
        };
        return Ok(Value::Boolean(b));
    }
    // Date arithmetic: whole days, checked (a date is an `i32` of days).
    let date_overflow = || Error::Exec(format!("date overflow in {l} {} {r}", op.sql()));
    let shifted = |d: i32, n: Option<i64>| {
        n.and_then(|n| i64::from(d).checked_add(n))
            .and_then(|days| i32::try_from(days).ok())
            .map(Value::Date)
            .ok_or_else(date_overflow)
    };
    match (op, l, r) {
        (BinaryOp::Plus, Value::Date(d), other) | (BinaryOp::Plus, other, Value::Date(d)) => {
            if let Some(n) = other.as_i64() {
                return shifted(*d, Some(n));
            }
        }
        (BinaryOp::Minus, Value::Date(d), other) if !matches!(other, Value::Date(_)) => {
            if let Some(n) = other.as_i64() {
                return shifted(*d, n.checked_neg());
            }
        }
        (BinaryOp::Minus, Value::Date(a), Value::Date(b)) => {
            return Ok(Value::Int64(i64::from(*a) - i64::from(*b)));
        }
        _ => {}
    }
    // Numeric arithmetic with Int32 -> Int64 -> Float64 widening.
    let lt = l.data_type().unwrap_or(DataType::Int64);
    let rt = r.data_type().unwrap_or(DataType::Int64);
    let common = DataType::common_numeric(lt, rt)
        .ok_or_else(|| Error::Exec(format!("cannot apply {} to {l} and {r}", op.sql())))?;
    if common == DataType::Float64 {
        let (a, b) = (l.as_f64().unwrap(), r.as_f64().unwrap());
        let v = match op {
            BinaryOp::Plus => a + b,
            BinaryOp::Minus => a - b,
            BinaryOp::Multiply => a * b,
            BinaryOp::Divide => {
                if b == 0.0 {
                    return Err(Error::Exec("division by zero".into()));
                }
                a / b
            }
            BinaryOp::Modulo => {
                if b == 0.0 {
                    return Err(Error::Exec("division by zero".into()));
                }
                a % b
            }
            _ => unreachable!(),
        };
        Ok(Value::Float64(v))
    } else {
        let (a, b) = (l.as_i64().unwrap(), r.as_i64().unwrap());
        let v = match op {
            BinaryOp::Plus => a.checked_add(b),
            BinaryOp::Minus => a.checked_sub(b),
            BinaryOp::Multiply => a.checked_mul(b),
            BinaryOp::Divide => {
                if b == 0 {
                    return Err(Error::Exec("division by zero".into()));
                }
                a.checked_div(b)
            }
            BinaryOp::Modulo => {
                if b == 0 {
                    return Err(Error::Exec("division by zero".into()));
                }
                a.checked_rem(b)
            }
            _ => unreachable!(),
        }
        .ok_or_else(|| Error::Exec(format!("integer overflow in {} {} {}", a, op.sql(), b)))?;
        let out = if common == DataType::Int32 {
            Value::Int32(v as i32)
        } else {
            Value::Int64(v)
        };
        Ok(out)
    }
}

fn eval_scalar_fn(
    func: ScalarFunc,
    args: &[BoundExpr],
    row: &(impl RowAccess + ?Sized),
) -> Result<Value> {
    // COALESCE is lazy; everything else evaluates its arguments eagerly.
    if func == ScalarFunc::Coalesce {
        for a in args {
            let v = eval_expr(a, row)?;
            if !v.is_null() {
                return Ok(v);
            }
        }
        return Ok(Value::Null);
    }
    let vals: Vec<Value> = args
        .iter()
        .map(|a| eval_expr(a, row))
        .collect::<Result<_>>()?;
    // NULL in, NULL out (except CONCAT of any non-null parts and COALESCE).
    if func != ScalarFunc::Concat && vals.iter().any(Value::is_null) {
        return Ok(Value::Null);
    }
    Ok(match func {
        ScalarFunc::Abs => match &vals[0] {
            Value::Int32(v) => Value::Int32(v.wrapping_abs()),
            Value::Int64(v) => Value::Int64(v.wrapping_abs()),
            Value::Float64(v) => Value::Float64(v.abs()),
            other => return Err(Error::Exec(format!("ABS on non-numeric {other}"))),
        },
        ScalarFunc::Upper => Value::Utf8(expect_str(&vals[0])?.to_uppercase()),
        ScalarFunc::Lower => Value::Utf8(expect_str(&vals[0])?.to_lowercase()),
        ScalarFunc::Length => Value::Int64(expect_str(&vals[0])?.chars().count() as i64),
        ScalarFunc::Substr => {
            let s = expect_str(&vals[0])?;
            let start = vals[1]
                .as_i64()
                .ok_or_else(|| Error::Exec("SUBSTR start must be an integer".into()))?;
            let chars: Vec<char> = s.chars().collect();
            // SQL semantics: 1-based start, clamped.
            let begin = (start.max(1) - 1) as usize;
            let len = match vals.get(2) {
                Some(v) => v
                    .as_i64()
                    .ok_or_else(|| Error::Exec("SUBSTR length must be an integer".into()))?
                    .max(0) as usize,
                None => chars.len(),
            };
            let out: String = chars.iter().skip(begin).take(len).collect();
            Value::Utf8(out)
        }
        ScalarFunc::Round => {
            let x = vals[0]
                .as_f64()
                .ok_or_else(|| Error::Exec("ROUND on non-numeric value".into()))?;
            let digits = match vals.get(1) {
                Some(v) => v
                    .as_i64()
                    .ok_or_else(|| Error::Exec("ROUND digits must be an integer".into()))?,
                None => 0,
            };
            let factor = 10f64.powi(digits as i32);
            Value::Float64((x * factor).round() / factor)
        }
        ScalarFunc::Floor => Value::Float64(
            vals[0]
                .as_f64()
                .ok_or_else(|| Error::Exec("FLOOR on non-numeric value".into()))?
                .floor(),
        ),
        ScalarFunc::Ceil => Value::Float64(
            vals[0]
                .as_f64()
                .ok_or_else(|| Error::Exec("CEIL on non-numeric value".into()))?
                .ceil(),
        ),
        ScalarFunc::Sqrt => {
            let x = vals[0]
                .as_f64()
                .ok_or_else(|| Error::Exec("SQRT on non-numeric value".into()))?;
            if x < 0.0 {
                return Err(Error::Exec("SQRT of a negative number".into()));
            }
            Value::Float64(x.sqrt())
        }
        ScalarFunc::Coalesce => unreachable!("handled above"),
        ScalarFunc::Concat => {
            let mut out = String::new();
            for v in &vals {
                if !v.is_null() {
                    out.push_str(&v.to_string());
                }
            }
            Value::Utf8(out)
        }
        ScalarFunc::ExtractYear | ScalarFunc::ExtractMonth | ScalarFunc::ExtractDay => {
            let days = match &vals[0] {
                Value::Date(d) => *d,
                Value::Timestamp(t) => (t.div_euclid(86_400_000)) as i32,
                other => return Err(Error::Exec(format!("EXTRACT on non-date value {other}"))),
            };
            let text = pixels_common::value::format_date(days);
            let mut parts = text.split('-');
            let year: i64 = parts.next().unwrap().parse().unwrap();
            let month: i64 = parts.next().unwrap().parse().unwrap();
            let day: i64 = parts.next().unwrap().parse().unwrap();
            Value::Int64(match func {
                ScalarFunc::ExtractYear => year,
                ScalarFunc::ExtractMonth => month,
                _ => day,
            })
        }
    })
}

fn expect_str(v: &Value) -> Result<&str> {
    v.as_str()
        .ok_or_else(|| Error::Exec(format!("expected a string, got {v}")))
}

/// SQL LIKE matching with `%` (any run) and `_` (any single char).
pub fn like_match(s: &str, pattern: &str) -> bool {
    let s: Vec<char> = s.chars().collect();
    let p: Vec<char> = pattern.chars().collect();
    // Iterative wildcard matcher with backtracking over the last `%`.
    let (mut si, mut pi) = (0usize, 0usize);
    let (mut star_p, mut star_s) = (usize::MAX, 0usize);
    while si < s.len() {
        // '%' must be treated as a wildcard before the literal-equality
        // check, or a '%' in the *subject* would consume it literally.
        if pi < p.len() && p[pi] == '%' {
            star_p = pi;
            star_s = si;
            pi += 1;
        } else if pi < p.len() && (p[pi] == '_' || p[pi] == s[si]) {
            si += 1;
            pi += 1;
        } else if star_p != usize::MAX {
            star_s += 1;
            si = star_s;
            pi = star_p + 1;
        } else {
            return false;
        }
    }
    while pi < p.len() && p[pi] == '%' {
        pi += 1;
    }
    pi == p.len()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::BoundExpr as E;

    fn lit(v: Value) -> E {
        E::Literal(v)
    }

    fn eval(e: &E) -> Value {
        eval_expr(e, &NoRow).unwrap()
    }

    fn bin(l: Value, op: BinaryOp, r: Value) -> Value {
        eval_binary(op, &l, &r).unwrap()
    }

    #[test]
    fn arithmetic_widening() {
        assert_eq!(
            bin(Value::Int32(2), BinaryOp::Plus, Value::Int32(3)),
            Value::Int32(5)
        );
        assert_eq!(
            bin(Value::Int32(2), BinaryOp::Multiply, Value::Int64(3)),
            Value::Int64(6)
        );
        assert_eq!(
            bin(Value::Int64(7), BinaryOp::Divide, Value::Int64(2)),
            Value::Int64(3),
            "integer division truncates"
        );
        assert_eq!(
            bin(Value::Float64(7.0), BinaryOp::Divide, Value::Int64(2)),
            Value::Float64(3.5)
        );
    }

    #[test]
    fn division_by_zero_is_an_error() {
        assert!(eval_binary(BinaryOp::Divide, &Value::Int64(1), &Value::Int64(0)).is_err());
        assert!(eval_binary(BinaryOp::Modulo, &Value::Float64(1.0), &Value::Float64(0.0)).is_err());
    }

    #[test]
    fn overflow_detected() {
        assert!(eval_binary(BinaryOp::Plus, &Value::Int64(i64::MAX), &Value::Int64(1)).is_err());
    }

    #[test]
    fn null_propagation() {
        assert_eq!(
            bin(Value::Null, BinaryOp::Plus, Value::Int64(1)),
            Value::Null
        );
        assert_eq!(bin(Value::Null, BinaryOp::Eq, Value::Null), Value::Null);
    }

    #[test]
    fn three_valued_logic() {
        let t = lit(Value::Boolean(true));
        let f = lit(Value::Boolean(false));
        let n = lit(Value::Null);
        let and = |a: &E, b: &E| {
            eval_expr(
                &E::BinaryOp {
                    left: Box::new(a.clone()),
                    op: BinaryOp::And,
                    right: Box::new(b.clone()),
                    data_type: DataType::Boolean,
                },
                &NoRow,
            )
            .unwrap()
        };
        let or = |a: &E, b: &E| {
            eval_expr(
                &E::BinaryOp {
                    left: Box::new(a.clone()),
                    op: BinaryOp::Or,
                    right: Box::new(b.clone()),
                    data_type: DataType::Boolean,
                },
                &NoRow,
            )
            .unwrap()
        };
        assert_eq!(and(&n, &f), Value::Boolean(false));
        assert_eq!(and(&f, &n), Value::Boolean(false));
        assert_eq!(and(&n, &t), Value::Null);
        assert_eq!(or(&n, &t), Value::Boolean(true));
        assert_eq!(or(&t, &n), Value::Boolean(true));
        assert_eq!(or(&n, &f), Value::Null);
    }

    #[test]
    fn date_arithmetic() {
        assert_eq!(
            bin(Value::Date(100), BinaryOp::Plus, Value::Int64(5)),
            Value::Date(105)
        );
        assert_eq!(
            bin(Value::Date(100), BinaryOp::Minus, Value::Int32(1)),
            Value::Date(99)
        );
        assert_eq!(
            bin(Value::Date(100), BinaryOp::Minus, Value::Date(90)),
            Value::Int64(10)
        );
    }

    #[test]
    fn date_arithmetic_is_checked() {
        // A day count past `i32`, an offset that does not fit `i32` at all,
        // and the one offset that cannot be negated: each was a truncating
        // `as i32` plus an unchecked `i32` add (a panic in a debug build, a
        // wrapped date in release).
        let overflows = [
            (Value::Date(i32::MAX), BinaryOp::Plus, Value::Int32(1)),
            (Value::Int64(1), BinaryOp::Plus, Value::Date(i32::MAX)),
            (Value::Date(0), BinaryOp::Plus, Value::Int64(1 << 32)),
            (Value::Date(7), BinaryOp::Plus, Value::Int64(i64::MAX)),
            (Value::Date(i32::MIN), BinaryOp::Minus, Value::Int32(1)),
            (Value::Date(0), BinaryOp::Minus, Value::Int64(-(1 << 32))),
            (Value::Date(-1), BinaryOp::Minus, Value::Int64(i64::MIN)),
        ];
        for (l, op, r) in overflows {
            let err = eval_binary(op, &l, &r).unwrap_err().to_string();
            assert!(err.contains("date overflow"), "{l} {op:?} {r}: {err}");
        }
        // The edges themselves are dates.
        assert_eq!(
            bin(Value::Date(i32::MAX - 1), BinaryOp::Plus, Value::Int64(1)),
            Value::Date(i32::MAX)
        );
        assert_eq!(
            bin(
                Value::Date(0),
                BinaryOp::Minus,
                Value::Int64(-i64::from(i32::MAX))
            ),
            Value::Date(i32::MAX)
        );
        // A difference of dates is widened before subtracting.
        assert_eq!(
            bin(
                Value::Date(i32::MIN),
                BinaryOp::Minus,
                Value::Date(i32::MAX)
            ),
            Value::Int64(i64::from(i32::MIN) - i64::from(i32::MAX))
        );
        // The constant folder evaluates literal arithmetic through this
        // function; an overflow there must be an `Err` it can leave unfolded,
        // not a panic while planning.
        let folded = E::BinaryOp {
            left: Box::new(lit(Value::Date(9_000))),
            op: BinaryOp::Plus,
            right: Box::new(lit(Value::Int64(i64::MAX))),
            data_type: DataType::Date,
        };
        assert!(eval_expr(&folded, &NoRow).is_err());
    }

    #[test]
    fn comparisons() {
        assert_eq!(
            bin(
                Value::Utf8("a".into()),
                BinaryOp::Lt,
                Value::Utf8("b".into())
            ),
            Value::Boolean(true)
        );
        assert_eq!(
            bin(Value::Int32(3), BinaryOp::GtEq, Value::Float64(3.0)),
            Value::Boolean(true)
        );
        assert!(eval_binary(BinaryOp::Lt, &Value::Int32(1), &Value::Utf8("x".into())).is_err());
    }

    #[test]
    fn like_patterns() {
        assert!(like_match("hello", "hello"));
        assert!(like_match("hello", "h%"));
        assert!(like_match("hello", "%llo"));
        assert!(like_match("hello", "%ell%"));
        assert!(like_match("hello", "h_llo"));
        assert!(like_match("hello", "%"));
        assert!(!like_match("hello", "h_llo_"));
        assert!(!like_match("hello", "world"));
        assert!(!like_match("", "_"));
        assert!(like_match("", "%"));
        assert!(like_match("a%b", "a%b"));
        assert!(
            like_match("a%c", "a%"),
            "subject '%' must not eat the wildcard"
        );
        assert!(like_match("100%", "100%"));
        assert!(like_match("100% done", "100%"));
        assert!(like_match("special", "s%_l"));
    }

    #[test]
    fn in_list_with_null_semantics() {
        let e = E::InList {
            expr: Box::new(lit(Value::Int64(5))),
            list: vec![lit(Value::Int64(1)), lit(Value::Null)],
            negated: false,
        };
        assert_eq!(eval(&e), Value::Null, "no match but NULL present => NULL");
        let e = E::InList {
            expr: Box::new(lit(Value::Int64(1))),
            list: vec![lit(Value::Int64(1)), lit(Value::Null)],
            negated: false,
        };
        assert_eq!(eval(&e), Value::Boolean(true));
        let e = E::InList {
            expr: Box::new(lit(Value::Int64(5))),
            list: vec![lit(Value::Int64(1))],
            negated: true,
        };
        assert_eq!(eval(&e), Value::Boolean(true));
    }

    #[test]
    fn case_expressions() {
        // Searched CASE with no match and no ELSE -> NULL.
        let e = E::Case {
            operand: None,
            branches: vec![(lit(Value::Boolean(false)), lit(Value::Int64(1)))],
            else_expr: None,
            data_type: DataType::Int64,
        };
        assert_eq!(eval(&e), Value::Null);
        // Operand CASE.
        let e = E::Case {
            operand: Some(Box::new(lit(Value::Utf8("b".into())))),
            branches: vec![
                (lit(Value::Utf8("a".into())), lit(Value::Int64(1))),
                (lit(Value::Utf8("b".into())), lit(Value::Int64(2))),
            ],
            else_expr: Some(Box::new(lit(Value::Int64(0)))),
            data_type: DataType::Int64,
        };
        assert_eq!(eval(&e), Value::Int64(2));
    }

    #[test]
    fn scalar_functions() {
        let call = |func, args: Vec<E>| {
            eval_expr(
                &E::ScalarFn {
                    func,
                    args,
                    data_type: DataType::Utf8,
                },
                &NoRow,
            )
            .unwrap()
        };
        assert_eq!(
            call(ScalarFunc::Upper, vec![lit(Value::Utf8("abc".into()))]),
            Value::Utf8("ABC".into())
        );
        assert_eq!(
            call(ScalarFunc::Length, vec![lit(Value::Utf8("héllo".into()))]),
            Value::Int64(5)
        );
        assert_eq!(
            call(
                ScalarFunc::Substr,
                vec![
                    lit(Value::Utf8("hello".into())),
                    lit(Value::Int64(2)),
                    lit(Value::Int64(3))
                ]
            ),
            Value::Utf8("ell".into())
        );
        assert_eq!(
            call(
                ScalarFunc::Round,
                vec![lit(Value::Float64(2.567)), lit(Value::Int64(2))]
            ),
            Value::Float64(2.57)
        );
        assert_eq!(
            call(
                ScalarFunc::Coalesce,
                vec![lit(Value::Null), lit(Value::Int64(7))]
            ),
            Value::Int64(7)
        );
        assert_eq!(
            call(ScalarFunc::Abs, vec![lit(Value::Int64(-3))]),
            Value::Int64(3)
        );
    }

    #[test]
    fn extract_fields() {
        let d = pixels_common::value::parse_date("1995-03-15").unwrap();
        let call = |func| {
            eval_expr(
                &E::ScalarFn {
                    func,
                    args: vec![lit(Value::Date(d))],
                    data_type: DataType::Int64,
                },
                &NoRow,
            )
            .unwrap()
        };
        assert_eq!(call(ScalarFunc::ExtractYear), Value::Int64(1995));
        assert_eq!(call(ScalarFunc::ExtractMonth), Value::Int64(3));
        assert_eq!(call(ScalarFunc::ExtractDay), Value::Int64(15));
    }

    #[test]
    fn column_access_through_row() {
        let e = E::column(1, DataType::Int64, "x");
        let row = vec![Value::Int64(1), Value::Int64(42)];
        assert_eq!(eval_expr(&e, &row).unwrap(), Value::Int64(42));
    }
}
