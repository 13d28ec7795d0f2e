//! Bound (resolved and typed) expressions.
//!
//! The binder turns `pixels_sql::ast::Expr` into `BoundExpr`, resolving
//! column names to input-schema indices and checking types. Bound
//! expressions are what the optimizer rewrites and what the executor
//! evaluates.

use pixels_common::{DataType, Error, Result, Value};
use pixels_sql::ast::BinaryOp;
use std::fmt;

/// A scalar function resolved by name during binding.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScalarFunc {
    Abs,
    Upper,
    Lower,
    Length,
    /// `SUBSTR(s, start [, len])`, 1-based start.
    Substr,
    /// `ROUND(x [, digits])`.
    Round,
    Coalesce,
    ExtractYear,
    ExtractMonth,
    ExtractDay,
    /// String concatenation (also reached via `||`).
    Concat,
    Floor,
    Ceil,
    Sqrt,
}

impl ScalarFunc {
    pub fn by_name(name: &str) -> Option<ScalarFunc> {
        Some(match name.to_ascii_lowercase().as_str() {
            "abs" => ScalarFunc::Abs,
            "upper" => ScalarFunc::Upper,
            "lower" => ScalarFunc::Lower,
            "length" | "char_length" => ScalarFunc::Length,
            "substr" | "substring" => ScalarFunc::Substr,
            "round" => ScalarFunc::Round,
            "coalesce" => ScalarFunc::Coalesce,
            "concat" => ScalarFunc::Concat,
            "floor" => ScalarFunc::Floor,
            "ceil" | "ceiling" => ScalarFunc::Ceil,
            "sqrt" => ScalarFunc::Sqrt,
            _ => return None,
        })
    }

    pub fn name(self) -> &'static str {
        match self {
            ScalarFunc::Abs => "abs",
            ScalarFunc::Upper => "upper",
            ScalarFunc::Lower => "lower",
            ScalarFunc::Length => "length",
            ScalarFunc::Substr => "substr",
            ScalarFunc::Round => "round",
            ScalarFunc::Coalesce => "coalesce",
            ScalarFunc::ExtractYear => "extract_year",
            ScalarFunc::ExtractMonth => "extract_month",
            ScalarFunc::ExtractDay => "extract_day",
            ScalarFunc::Concat => "concat",
            ScalarFunc::Floor => "floor",
            ScalarFunc::Ceil => "ceil",
            ScalarFunc::Sqrt => "sqrt",
        }
    }
}

/// An aggregate function.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggFunc {
    Count,
    Sum,
    Avg,
    Min,
    Max,
}

impl AggFunc {
    pub fn by_name(name: &str) -> Option<AggFunc> {
        Some(match name.to_ascii_lowercase().as_str() {
            "count" => AggFunc::Count,
            "sum" => AggFunc::Sum,
            "avg" | "mean" => AggFunc::Avg,
            "min" => AggFunc::Min,
            "max" => AggFunc::Max,
            _ => return None,
        })
    }

    pub fn name(self) -> &'static str {
        match self {
            AggFunc::Count => "count",
            AggFunc::Sum => "sum",
            AggFunc::Avg => "avg",
            AggFunc::Min => "min",
            AggFunc::Max => "max",
        }
    }

    /// Output type given the input type (`None` input = `COUNT(*)`).
    pub fn output_type(self, input: Option<DataType>) -> Result<DataType> {
        let numeric =
            |what: &str| Error::Plan(format!("{what} requires a numeric argument, got {input:?}"));
        Ok(match self {
            AggFunc::Count => DataType::Int64,
            AggFunc::Avg => match input {
                Some(DataType::Int32 | DataType::Int64 | DataType::Float64) => DataType::Float64,
                _ => return Err(numeric("AVG")),
            },
            AggFunc::Sum => match input {
                Some(DataType::Int32) | Some(DataType::Int64) => DataType::Int64,
                Some(DataType::Float64) => DataType::Float64,
                _ => return Err(numeric("SUM")),
            },
            AggFunc::Min | AggFunc::Max => {
                input.ok_or_else(|| Error::Plan(format!("{} requires an argument", self.name())))?
            }
        })
    }
}

/// One aggregate in an Aggregate node.
#[derive(Debug, Clone, PartialEq)]
pub struct AggExpr {
    pub func: AggFunc,
    /// `None` for `COUNT(*)`.
    pub arg: Option<BoundExpr>,
    pub distinct: bool,
    pub output_type: DataType,
}

impl fmt::Display for AggExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}(", self.func.name())?;
        if self.distinct {
            f.write_str("DISTINCT ")?;
        }
        match &self.arg {
            Some(a) => write!(f, "{a})"),
            None => f.write_str("*)"),
        }
    }
}

/// A typed, resolved scalar expression over an input schema.
#[derive(Debug, Clone, PartialEq)]
pub enum BoundExpr {
    /// Reference to input column `index`.
    ColumnRef {
        index: usize,
        data_type: DataType,
        name: String,
    },
    Literal(Value),
    BinaryOp {
        left: Box<BoundExpr>,
        op: BinaryOp,
        right: Box<BoundExpr>,
        data_type: DataType,
    },
    Negate(Box<BoundExpr>),
    Not(Box<BoundExpr>),
    ScalarFn {
        func: ScalarFunc,
        args: Vec<BoundExpr>,
        data_type: DataType,
    },
    IsNull {
        expr: Box<BoundExpr>,
        negated: bool,
    },
    InList {
        expr: Box<BoundExpr>,
        list: Vec<BoundExpr>,
        negated: bool,
    },
    Like {
        expr: Box<BoundExpr>,
        pattern: Box<BoundExpr>,
        negated: bool,
    },
    Case {
        operand: Option<Box<BoundExpr>>,
        branches: Vec<(BoundExpr, BoundExpr)>,
        else_expr: Option<Box<BoundExpr>>,
        data_type: DataType,
    },
    Cast {
        expr: Box<BoundExpr>,
        to: DataType,
    },
}

impl BoundExpr {
    pub fn literal(v: Value) -> BoundExpr {
        BoundExpr::Literal(v)
    }

    pub fn column(index: usize, data_type: DataType, name: impl Into<String>) -> BoundExpr {
        BoundExpr::ColumnRef {
            index,
            data_type,
            name: name.into(),
        }
    }

    /// The expression's output type. Literal NULL reports `Boolean`
    /// arbitrarily (it adapts at evaluation time).
    pub fn data_type(&self) -> DataType {
        match self {
            BoundExpr::ColumnRef { data_type, .. } => *data_type,
            BoundExpr::Literal(v) => v.data_type().unwrap_or(DataType::Boolean),
            BoundExpr::BinaryOp { data_type, .. } => *data_type,
            BoundExpr::Negate(e) => e.data_type(),
            BoundExpr::Not(_) => DataType::Boolean,
            BoundExpr::ScalarFn { data_type, .. } => *data_type,
            BoundExpr::IsNull { .. } => DataType::Boolean,
            BoundExpr::InList { .. } => DataType::Boolean,
            BoundExpr::Like { .. } => DataType::Boolean,
            BoundExpr::Case { data_type, .. } => *data_type,
            BoundExpr::Cast { to, .. } => *to,
        }
    }

    /// Collect the input-column indices this expression references.
    pub fn collect_columns(&self, out: &mut Vec<usize>) {
        match self {
            BoundExpr::ColumnRef { index, .. } => out.push(*index),
            BoundExpr::Literal(_) => {}
            BoundExpr::BinaryOp { left, right, .. } => {
                left.collect_columns(out);
                right.collect_columns(out);
            }
            BoundExpr::Negate(e) | BoundExpr::Not(e) => e.collect_columns(out),
            BoundExpr::ScalarFn { args, .. } => {
                for a in args {
                    a.collect_columns(out);
                }
            }
            BoundExpr::IsNull { expr, .. } => expr.collect_columns(out),
            BoundExpr::InList { expr, list, .. } => {
                expr.collect_columns(out);
                for e in list {
                    e.collect_columns(out);
                }
            }
            BoundExpr::Like { expr, pattern, .. } => {
                expr.collect_columns(out);
                pattern.collect_columns(out);
            }
            BoundExpr::Case {
                operand,
                branches,
                else_expr,
                ..
            } => {
                if let Some(o) = operand {
                    o.collect_columns(out);
                }
                for (w, t) in branches {
                    w.collect_columns(out);
                    t.collect_columns(out);
                }
                if let Some(e) = else_expr {
                    e.collect_columns(out);
                }
            }
            BoundExpr::Cast { expr, .. } => expr.collect_columns(out),
        }
    }

    /// The set of referenced columns, deduplicated and sorted.
    pub fn referenced_columns(&self) -> Vec<usize> {
        let mut cols = Vec::new();
        self.collect_columns(&mut cols);
        cols.sort_unstable();
        cols.dedup();
        cols
    }

    /// Rewrite every column reference through `f` (used when pushing
    /// expressions through projections or re-rooting them after a split).
    pub fn map_columns(&self, f: &impl Fn(usize) -> usize) -> BoundExpr {
        let map_box = |e: &BoundExpr| Box::new(e.map_columns(f));
        match self {
            BoundExpr::ColumnRef {
                index,
                data_type,
                name,
            } => BoundExpr::ColumnRef {
                index: f(*index),
                data_type: *data_type,
                name: name.clone(),
            },
            BoundExpr::Literal(v) => BoundExpr::Literal(v.clone()),
            BoundExpr::BinaryOp {
                left,
                op,
                right,
                data_type,
            } => BoundExpr::BinaryOp {
                left: map_box(left),
                op: *op,
                right: map_box(right),
                data_type: *data_type,
            },
            BoundExpr::Negate(e) => BoundExpr::Negate(map_box(e)),
            BoundExpr::Not(e) => BoundExpr::Not(map_box(e)),
            BoundExpr::ScalarFn {
                func,
                args,
                data_type,
            } => BoundExpr::ScalarFn {
                func: *func,
                args: args.iter().map(|a| a.map_columns(f)).collect(),
                data_type: *data_type,
            },
            BoundExpr::IsNull { expr, negated } => BoundExpr::IsNull {
                expr: map_box(expr),
                negated: *negated,
            },
            BoundExpr::InList {
                expr,
                list,
                negated,
            } => BoundExpr::InList {
                expr: map_box(expr),
                list: list.iter().map(|e| e.map_columns(f)).collect(),
                negated: *negated,
            },
            BoundExpr::Like {
                expr,
                pattern,
                negated,
            } => BoundExpr::Like {
                expr: map_box(expr),
                pattern: map_box(pattern),
                negated: *negated,
            },
            BoundExpr::Case {
                operand,
                branches,
                else_expr,
                data_type,
            } => BoundExpr::Case {
                operand: operand.as_ref().map(|o| map_box(o)),
                branches: branches
                    .iter()
                    .map(|(w, t)| (w.map_columns(f), t.map_columns(f)))
                    .collect(),
                else_expr: else_expr.as_ref().map(|e| map_box(e)),
                data_type: *data_type,
            },
            BoundExpr::Cast { expr, to } => BoundExpr::Cast {
                expr: map_box(expr),
                to: *to,
            },
        }
    }

    /// True when the expression contains no column references.
    pub fn is_constant(&self) -> bool {
        self.referenced_columns().is_empty()
    }
}

impl fmt::Display for BoundExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BoundExpr::ColumnRef { name, index, .. } => write!(f, "{name}#{index}"),
            BoundExpr::Literal(v) => match v {
                Value::Utf8(s) => write!(f, "'{s}'"),
                other => write!(f, "{other}"),
            },
            BoundExpr::BinaryOp {
                left, op, right, ..
            } => write!(f, "({left} {} {right})", op.sql()),
            BoundExpr::Negate(e) => write!(f, "(-{e})"),
            BoundExpr::Not(e) => write!(f, "(NOT {e})"),
            BoundExpr::ScalarFn { func, args, .. } => {
                write!(f, "{}(", func.name())?;
                for (i, a) in args.iter().enumerate() {
                    if i > 0 {
                        f.write_str(", ")?;
                    }
                    write!(f, "{a}")?;
                }
                f.write_str(")")
            }
            BoundExpr::IsNull { expr, negated } => {
                write!(f, "{expr} IS {}NULL", if *negated { "NOT " } else { "" })
            }
            BoundExpr::InList {
                expr,
                list,
                negated,
            } => {
                write!(f, "{expr} {}IN (", if *negated { "NOT " } else { "" })?;
                for (i, e) in list.iter().enumerate() {
                    if i > 0 {
                        f.write_str(", ")?;
                    }
                    write!(f, "{e}")?;
                }
                f.write_str(")")
            }
            BoundExpr::Like {
                expr,
                pattern,
                negated,
            } => write!(
                f,
                "{expr} {}LIKE {pattern}",
                if *negated { "NOT " } else { "" }
            ),
            BoundExpr::Case { .. } => f.write_str("CASE(..)"),
            BoundExpr::Cast { expr, to } => write!(f, "CAST({expr} AS {to})"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn col(i: usize) -> BoundExpr {
        BoundExpr::column(i, DataType::Int64, format!("c{i}"))
    }

    #[test]
    fn function_resolution() {
        assert_eq!(ScalarFunc::by_name("UPPER"), Some(ScalarFunc::Upper));
        assert_eq!(ScalarFunc::by_name("substring"), Some(ScalarFunc::Substr));
        assert_eq!(ScalarFunc::by_name("nope"), None);
        assert_eq!(AggFunc::by_name("SUM"), Some(AggFunc::Sum));
        assert_eq!(AggFunc::by_name("avg"), Some(AggFunc::Avg));
        assert_eq!(AggFunc::by_name("median"), None);
    }

    #[test]
    fn agg_output_types() {
        assert_eq!(AggFunc::Count.output_type(None).unwrap(), DataType::Int64);
        assert_eq!(
            AggFunc::Sum.output_type(Some(DataType::Int32)).unwrap(),
            DataType::Int64
        );
        assert_eq!(
            AggFunc::Avg.output_type(Some(DataType::Int64)).unwrap(),
            DataType::Float64
        );
        assert_eq!(
            AggFunc::Min.output_type(Some(DataType::Utf8)).unwrap(),
            DataType::Utf8
        );
        assert!(AggFunc::Sum.output_type(Some(DataType::Utf8)).is_err());
        for ty in [DataType::Utf8, DataType::Date, DataType::Boolean] {
            assert!(AggFunc::Avg.output_type(Some(ty)).is_err(), "AVG of {ty}");
        }
        assert!(AggFunc::Max.output_type(None).is_err());
    }

    #[test]
    fn referenced_columns_dedup_sorted() {
        let e = BoundExpr::BinaryOp {
            left: Box::new(col(3)),
            op: BinaryOp::Plus,
            right: Box::new(BoundExpr::BinaryOp {
                left: Box::new(col(1)),
                op: BinaryOp::Multiply,
                right: Box::new(col(3)),
                data_type: DataType::Int64,
            }),
            data_type: DataType::Int64,
        };
        assert_eq!(e.referenced_columns(), vec![1, 3]);
        assert!(!e.is_constant());
        assert!(BoundExpr::literal(Value::Int64(1)).is_constant());
    }

    #[test]
    fn map_columns_rewrites() {
        let e = BoundExpr::BinaryOp {
            left: Box::new(col(0)),
            op: BinaryOp::Lt,
            right: Box::new(col(2)),
            data_type: DataType::Boolean,
        };
        let mapped = e.map_columns(&|i| i + 10);
        assert_eq!(mapped.referenced_columns(), vec![10, 12]);
    }

    #[test]
    fn display_is_readable() {
        let e = BoundExpr::BinaryOp {
            left: Box::new(col(0)),
            op: BinaryOp::Gt,
            right: Box::new(BoundExpr::literal(Value::Int64(5))),
            data_type: DataType::Boolean,
        };
        assert_eq!(e.to_string(), "(c0#0 > 5)");
        let agg = AggExpr {
            func: AggFunc::Count,
            arg: None,
            distinct: false,
            output_type: DataType::Int64,
        };
        assert_eq!(agg.to_string(), "count(*)");
    }
}
