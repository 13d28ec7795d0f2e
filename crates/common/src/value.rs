//! Scalar values and their data types.
//!
//! `DataType` describes the logical type of a column; `Value` is a single
//! (possibly NULL) scalar. Values support the comparison and arithmetic
//! semantics needed by the expression evaluator: NULL propagates through
//! arithmetic, comparisons against NULL yield NULL (represented as `None`
//! at the evaluation layer), and numeric types widen `Int32 -> Int64 ->
//! Float64`.

use crate::error::{Error, Result};
use std::cmp::Ordering;
use std::fmt;

/// Logical data type of a column or expression.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DataType {
    Boolean,
    Int32,
    Int64,
    Float64,
    /// UTF-8 string.
    Utf8,
    /// Days since the Unix epoch.
    Date,
    /// Milliseconds since the Unix epoch.
    Timestamp,
}

impl DataType {
    /// True for the numeric types that participate in arithmetic.
    pub fn is_numeric(self) -> bool {
        matches!(self, DataType::Int32 | DataType::Int64 | DataType::Float64)
    }

    /// The widened type two numeric operands promote to, or `None` when the
    /// pair cannot be combined arithmetically.
    pub fn common_numeric(a: DataType, b: DataType) -> Option<DataType> {
        use DataType::*;
        match (a, b) {
            (Float64, x) | (x, Float64) if x.is_numeric() => Some(Float64),
            (Int64, x) | (x, Int64) if x.is_numeric() => Some(Int64),
            (Int32, Int32) => Some(Int32),
            _ => None,
        }
    }

    /// Whether values of `self` can be compared with values of `other`.
    pub fn comparable_with(self, other: DataType) -> bool {
        if self == other {
            return true;
        }
        self.is_numeric() && other.is_numeric()
    }

    /// Fixed-width size of one value in bytes, used by the storage cost
    /// model. Strings report an estimated average width.
    pub fn byte_width(self) -> usize {
        match self {
            DataType::Boolean => 1,
            DataType::Int32 | DataType::Date => 4,
            DataType::Int64 | DataType::Float64 | DataType::Timestamp => 8,
            DataType::Utf8 => 16,
        }
    }

    /// Parse the SQL type name used in DDL (`INT`, `BIGINT`, `VARCHAR`, ...).
    pub fn parse_sql(name: &str) -> Result<DataType> {
        match name.to_ascii_uppercase().as_str() {
            "BOOL" | "BOOLEAN" => Ok(DataType::Boolean),
            "INT" | "INTEGER" | "INT4" => Ok(DataType::Int32),
            "BIGINT" | "INT8" | "LONG" => Ok(DataType::Int64),
            "DOUBLE" | "FLOAT" | "FLOAT8" | "REAL" | "DECIMAL" | "NUMERIC" => Ok(DataType::Float64),
            "VARCHAR" | "CHAR" | "TEXT" | "STRING" => Ok(DataType::Utf8),
            "DATE" => Ok(DataType::Date),
            "TIMESTAMP" | "DATETIME" => Ok(DataType::Timestamp),
            other => Err(Error::Parse(format!("unknown SQL type: {other}"))),
        }
    }

    /// The canonical SQL spelling of this type.
    pub fn sql_name(self) -> &'static str {
        match self {
            DataType::Boolean => "BOOLEAN",
            DataType::Int32 => "INTEGER",
            DataType::Int64 => "BIGINT",
            DataType::Float64 => "DOUBLE",
            DataType::Utf8 => "VARCHAR",
            DataType::Date => "DATE",
            DataType::Timestamp => "TIMESTAMP",
        }
    }
}

impl fmt::Display for DataType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.sql_name())
    }
}

/// A single scalar value, possibly NULL.
#[derive(Debug, Clone)]
pub enum Value {
    Null,
    Boolean(bool),
    Int32(i32),
    Int64(i64),
    Float64(f64),
    Utf8(String),
    /// Days since the Unix epoch.
    Date(i32),
    /// Milliseconds since the Unix epoch.
    Timestamp(i64),
}

impl Value {
    /// The data type of this value, or `None` for NULL (which is typeless).
    pub fn data_type(&self) -> Option<DataType> {
        match self {
            Value::Null => None,
            Value::Boolean(_) => Some(DataType::Boolean),
            Value::Int32(_) => Some(DataType::Int32),
            Value::Int64(_) => Some(DataType::Int64),
            Value::Float64(_) => Some(DataType::Float64),
            Value::Utf8(_) => Some(DataType::Utf8),
            Value::Date(_) => Some(DataType::Date),
            Value::Timestamp(_) => Some(DataType::Timestamp),
        }
    }

    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Numeric view as f64; `None` for NULL and non-numeric values.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int32(v) => Some(*v as f64),
            Value::Int64(v) => Some(*v as f64),
            Value::Float64(v) => Some(*v),
            _ => None,
        }
    }

    /// Integer view as i64; `None` for NULL and non-integer values.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Int32(v) => Some(*v as i64),
            Value::Int64(v) => Some(*v),
            Value::Date(v) => Some(*v as i64),
            Value::Timestamp(v) => Some(*v),
            _ => None,
        }
    }

    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Boolean(b) => Some(*b),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Utf8(s) => Some(s),
            _ => None,
        }
    }

    /// Cast this value to `ty`, following SQL CAST semantics. NULL casts to
    /// NULL for every target type.
    pub fn cast_to(&self, ty: DataType) -> Result<Value> {
        if self.is_null() {
            return Ok(Value::Null);
        }
        let err = || {
            Error::Invalid(format!(
                "cannot cast {} to {}",
                self.data_type().map(|t| t.sql_name()).unwrap_or("NULL"),
                ty.sql_name()
            ))
        };
        Ok(match ty {
            DataType::Boolean => match self {
                Value::Boolean(b) => Value::Boolean(*b),
                Value::Utf8(s) => match s.to_ascii_lowercase().as_str() {
                    "true" | "t" | "1" => Value::Boolean(true),
                    "false" | "f" | "0" => Value::Boolean(false),
                    _ => return Err(err()),
                },
                Value::Int32(v) => Value::Boolean(*v != 0),
                Value::Int64(v) => Value::Boolean(*v != 0),
                _ => return Err(err()),
            },
            DataType::Int32 => match self {
                Value::Int32(v) => Value::Int32(*v),
                Value::Int64(v) => Value::Int32(i32::try_from(*v).map_err(|_| err())?),
                Value::Float64(v) => Value::Int32(*v as i32),
                Value::Boolean(b) => Value::Int32(*b as i32),
                Value::Utf8(s) => Value::Int32(s.trim().parse().map_err(|_| err())?),
                Value::Date(d) => Value::Int32(*d),
                _ => return Err(err()),
            },
            DataType::Int64 => match self {
                Value::Int32(v) => Value::Int64(*v as i64),
                Value::Int64(v) => Value::Int64(*v),
                Value::Float64(v) => Value::Int64(*v as i64),
                Value::Boolean(b) => Value::Int64(*b as i64),
                Value::Utf8(s) => Value::Int64(s.trim().parse().map_err(|_| err())?),
                Value::Date(d) => Value::Int64(*d as i64),
                Value::Timestamp(t) => Value::Int64(*t),
                Value::Null => unreachable!("NULL handled above"),
            },
            DataType::Float64 => match self {
                Value::Int32(v) => Value::Float64(*v as f64),
                Value::Int64(v) => Value::Float64(*v as f64),
                Value::Float64(v) => Value::Float64(*v),
                Value::Utf8(s) => Value::Float64(s.trim().parse().map_err(|_| err())?),
                Value::Boolean(b) => Value::Float64(*b as i32 as f64),
                _ => return Err(err()),
            },
            DataType::Utf8 => Value::Utf8(self.to_string()),
            DataType::Date => match self {
                Value::Date(d) => Value::Date(*d),
                Value::Int32(v) => Value::Date(*v),
                Value::Utf8(s) => Value::Date(parse_date(s)?),
                Value::Timestamp(t) => Value::Date((*t / 86_400_000) as i32),
                _ => return Err(err()),
            },
            DataType::Timestamp => match self {
                Value::Timestamp(t) => Value::Timestamp(*t),
                Value::Int64(v) => Value::Timestamp(*v),
                Value::Date(d) => Value::Timestamp(*d as i64 * 86_400_000),
                Value::Utf8(s) => Value::Timestamp(parse_timestamp(s)?),
                _ => return Err(err()),
            },
        })
    }

    /// SQL comparison: NULLs are incomparable (`None`); two integers compare
    /// as integers, exactly; an integer and a float compare after widening
    /// to `f64`; other types compare only against themselves.
    pub fn sql_cmp(&self, other: &Value) -> Option<Ordering> {
        use Value::*;
        match (self, other) {
            (Null, _) | (_, Null) => None,
            (Boolean(a), Boolean(b)) => Some(a.cmp(b)),
            (Utf8(a), Utf8(b)) => Some(a.cmp(b)),
            (Date(a), Date(b)) => Some(a.cmp(b)),
            (Timestamp(a), Timestamp(b)) => Some(a.cmp(b)),
            // Through `f64` two integers past 2^53 that round together
            // would compare equal.
            (Int32(_) | Int64(_), Int32(_) | Int64(_)) => {
                Some(self.as_i64()?.cmp(&other.as_i64()?))
            }
            _ => {
                let (a, b) = (self.as_f64()?, other.as_f64()?);
                Some(a.total_cmp(&b))
            }
        }
    }

    /// Total ordering used for sorting: NULLs sort first, then by value.
    /// Cross-type numeric values compare after widening; any other cross-type
    /// pair orders by type tag (stable but arbitrary).
    pub fn total_cmp(&self, other: &Value) -> Ordering {
        match (self.is_null(), other.is_null()) {
            (true, true) => return Ordering::Equal,
            (true, false) => return Ordering::Less,
            (false, true) => return Ordering::Greater,
            _ => {}
        }
        if let Some(ord) = self.sql_cmp(other) {
            return ord;
        }
        self.type_tag().cmp(&other.type_tag())
    }

    fn type_tag(&self) -> u8 {
        match self {
            Value::Null => 0,
            Value::Boolean(_) => 1,
            Value::Int32(_) => 2,
            Value::Int64(_) => 3,
            Value::Float64(_) => 4,
            Value::Utf8(_) => 5,
            Value::Date(_) => 6,
            Value::Timestamp(_) => 7,
        }
    }
}

impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (Value::Null, Value::Null) => true,
            _ => self.sql_cmp(other) == Some(Ordering::Equal),
        }
    }
}

impl Eq for Value {}

impl std::hash::Hash for Value {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        // Hash must agree with `eq`, under which an integer can equal a
        // float: hash every numeric through its f64 bit pattern. Two
        // integers past 2^53 that round together are unequal and hash
        // alike, which a hash may.
        match self {
            Value::Null => state.write_u8(0),
            Value::Boolean(b) => {
                state.write_u8(1);
                state.write_u8(*b as u8);
            }
            Value::Int32(_) | Value::Int64(_) | Value::Float64(_) => {
                state.write_u8(2);
                let f = self.as_f64().unwrap();
                // Normalize -0.0 to 0.0 so equal values hash equally.
                let f = if f == 0.0 { 0.0 } else { f };
                state.write_u64(f.to_bits());
            }
            Value::Utf8(s) => {
                state.write_u8(5);
                state.write(s.as_bytes());
            }
            Value::Date(d) => {
                state.write_u8(6);
                state.write_i32(*d);
            }
            Value::Timestamp(t) => {
                state.write_u8(7);
                state.write_i64(*t);
            }
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => f.write_str("NULL"),
            Value::Boolean(b) => write!(f, "{b}"),
            Value::Int32(v) => write!(f, "{v}"),
            Value::Int64(v) => write!(f, "{v}"),
            Value::Float64(v) => {
                if v.fract() == 0.0 && v.abs() < 1e15 {
                    write!(f, "{v:.1}")
                } else {
                    write!(f, "{v}")
                }
            }
            Value::Utf8(s) => f.write_str(s),
            Value::Date(d) => f.write_str(&format_date(*d)),
            Value::Timestamp(t) => {
                let days = t.div_euclid(86_400_000);
                let ms = t.rem_euclid(86_400_000);
                let (h, m, s) = (ms / 3_600_000, ms % 3_600_000 / 60_000, ms % 60_000 / 1000);
                write!(f, "{} {h:02}:{m:02}:{s:02}", format_date(days as i32))
            }
        }
    }
}

/// Parse `YYYY-MM-DD` into days since the Unix epoch.
pub fn parse_date(s: &str) -> Result<i32> {
    let parts: Vec<&str> = s.trim().splitn(3, '-').collect();
    let err = || Error::Invalid(format!("invalid date literal: {s:?}"));
    if parts.len() != 3 {
        return Err(err());
    }
    let year: i64 = parts[0].parse().map_err(|_| err())?;
    let month: i64 = parts[1].parse().map_err(|_| err())?;
    let day: i64 = parts[2].parse().map_err(|_| err())?;
    if !(1..=12).contains(&month) || !(1..=31).contains(&day) {
        return Err(err());
    }
    Ok(days_from_civil(year, month as u32, day as u32))
}

/// Parse `YYYY-MM-DD[ HH:MM[:SS]]` into milliseconds since the Unix epoch.
pub fn parse_timestamp(s: &str) -> Result<i64> {
    let s = s.trim();
    let (date_part, time_part) = match s.split_once([' ', 'T']) {
        Some((d, t)) => (d, Some(t)),
        None => (s, None),
    };
    let days = parse_date(date_part)? as i64;
    let mut ms = days * 86_400_000;
    if let Some(t) = time_part {
        let err = || Error::Invalid(format!("invalid timestamp literal: {s:?}"));
        let fields: Vec<&str> = t.splitn(3, ':').collect();
        if fields.len() < 2 {
            return Err(err());
        }
        let h: i64 = fields[0].parse().map_err(|_| err())?;
        let m: i64 = fields[1].parse().map_err(|_| err())?;
        let sec: f64 = if fields.len() == 3 {
            fields[2].parse().map_err(|_| err())?
        } else {
            0.0
        };
        if !(0..24).contains(&h) || !(0..60).contains(&m) || !(0.0..60.0).contains(&sec) {
            return Err(err());
        }
        ms += h * 3_600_000 + m * 60_000 + (sec * 1000.0) as i64;
    }
    Ok(ms)
}

/// Days since the Unix epoch for a civil date (Howard Hinnant's algorithm).
fn days_from_civil(y: i64, m: u32, d: u32) -> i32 {
    let y = if m <= 2 { y - 1 } else { y };
    let era = if y >= 0 { y } else { y - 399 } / 400;
    let yoe = y - era * 400;
    let mp = ((m + 9) % 12) as i64;
    let doy = (153 * mp + 2) / 5 + d as i64 - 1;
    let doe = yoe * 365 + yoe / 4 - yoe / 100 + doy;
    (era * 146_097 + doe - 719_468) as i32
}

/// Civil date for days since the Unix epoch.
fn civil_from_days(z: i32) -> (i64, u32, u32) {
    let z = z as i64 + 719_468;
    let era = if z >= 0 { z } else { z - 146_096 } / 146_097;
    let doe = z - era * 146_097;
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365;
    let y = yoe + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let d = (doy - (153 * mp + 2) / 5 + 1) as u32;
    let m = if mp < 10 { mp + 3 } else { mp - 9 } as u32;
    (if m <= 2 { y + 1 } else { y }, m, d)
}

/// Format days-since-epoch as `YYYY-MM-DD`.
pub fn format_date(days: i32) -> String {
    let (y, m, d) = civil_from_days(days);
    format!("{y:04}-{m:02}-{d:02}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn numeric_widening() {
        assert_eq!(
            DataType::common_numeric(DataType::Int32, DataType::Int64),
            Some(DataType::Int64)
        );
        assert_eq!(
            DataType::common_numeric(DataType::Int64, DataType::Float64),
            Some(DataType::Float64)
        );
        assert_eq!(
            DataType::common_numeric(DataType::Int32, DataType::Int32),
            Some(DataType::Int32)
        );
        assert_eq!(
            DataType::common_numeric(DataType::Utf8, DataType::Int32),
            None
        );
    }

    #[test]
    fn sql_cmp_widens_numerics() {
        assert_eq!(
            Value::Int32(3).sql_cmp(&Value::Float64(3.0)),
            Some(Ordering::Equal)
        );
        assert_eq!(
            Value::Int64(4).sql_cmp(&Value::Int32(3)),
            Some(Ordering::Greater)
        );
        assert_eq!(Value::Null.sql_cmp(&Value::Int32(1)), None);
    }

    #[test]
    fn integers_compare_exactly_past_2_pow_53() {
        const P: i64 = 1 << 53;
        let ints = [i64::MIN, -P - 1, -P, -P + 1, P - 1, P, P + 1, i64::MAX];
        for (i, &a) in ints.iter().enumerate() {
            for (j, &b) in ints.iter().enumerate() {
                assert_eq!(
                    Value::Int64(a).sql_cmp(&Value::Int64(b)),
                    Some(i.cmp(&j)),
                    "{a} vs {b}"
                );
                assert_eq!(Value::Int64(a) == Value::Int64(b), i == j, "{a} vs {b}");
            }
        }
        assert_eq!(
            Value::Int32(i32::MAX).sql_cmp(&Value::Int64(i64::from(i32::MAX) + 1)),
            Some(Ordering::Less)
        );
        assert_eq!(
            Value::Int64(i64::from(i32::MIN) - 1).sql_cmp(&Value::Int32(i32::MIN)),
            Some(Ordering::Less)
        );
        // Against a float an integer still widens: 2^53 + 1 rounds onto 2^53.
        assert_eq!(Value::Int64(P + 1), Value::Float64(P as f64));
        // Equal values hash equally; the unequal P and P + 1 may collide.
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        let hash = |v: &Value| {
            let mut h = DefaultHasher::new();
            v.hash(&mut h);
            h.finish()
        };
        assert_eq!(hash(&Value::Int64(P)), hash(&Value::Float64(P as f64)));
    }

    #[test]
    fn eq_and_hash_agree_across_numeric_types() {
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        let a = Value::Int32(42);
        let b = Value::Int64(42);
        assert_eq!(a, b);
        let mut ha = DefaultHasher::new();
        let mut hb = DefaultHasher::new();
        a.hash(&mut ha);
        b.hash(&mut hb);
        assert_eq!(ha.finish(), hb.finish());
    }

    #[test]
    fn nulls_sort_first_in_total_order() {
        let mut v = [Value::Int32(2), Value::Null, Value::Int32(1)];
        v.sort_by(|a, b| a.total_cmp(b));
        assert!(v[0].is_null());
        assert_eq!(v[1], Value::Int32(1));
    }

    #[test]
    fn date_roundtrip() {
        for s in [
            "1970-01-01",
            "1992-02-29",
            "2026-07-06",
            "1969-12-31",
            "2000-01-01",
        ] {
            let days = parse_date(s).unwrap();
            assert_eq!(format_date(days), s, "roundtrip of {s}");
        }
        assert_eq!(parse_date("1970-01-01").unwrap(), 0);
        assert_eq!(parse_date("1970-01-02").unwrap(), 1);
        assert_eq!(parse_date("1969-12-31").unwrap(), -1);
    }

    #[test]
    fn date_rejects_garbage() {
        assert!(parse_date("not-a-date").is_err());
        assert!(parse_date("1992-13-01").is_err());
        assert!(parse_date("1992-00-10").is_err());
        assert!(parse_date("1992-01-40").is_err());
    }

    #[test]
    fn timestamp_parse() {
        assert_eq!(parse_timestamp("1970-01-01 00:00:01").unwrap(), 1000);
        assert_eq!(parse_timestamp("1970-01-02").unwrap(), 86_400_000);
        assert_eq!(
            parse_timestamp("1970-01-01T01:30").unwrap(),
            3_600_000 + 30 * 60_000
        );
        assert!(parse_timestamp("1970-01-01 25:00:00").is_err());
    }

    #[test]
    fn casts() {
        assert_eq!(
            Value::Utf8("42".into()).cast_to(DataType::Int64).unwrap(),
            Value::Int64(42)
        );
        assert_eq!(
            Value::Int32(1).cast_to(DataType::Boolean).unwrap(),
            Value::Boolean(true)
        );
        assert_eq!(
            Value::Float64(3.9).cast_to(DataType::Int32).unwrap(),
            Value::Int32(3)
        );
        assert!(Value::Utf8("xyz".into()).cast_to(DataType::Int32).is_err());
        assert_eq!(Value::Null.cast_to(DataType::Utf8).unwrap(), Value::Null);
        assert_eq!(
            Value::Utf8("1995-03-15".into())
                .cast_to(DataType::Date)
                .unwrap(),
            Value::Date(parse_date("1995-03-15").unwrap())
        );
    }

    #[test]
    fn display_formats() {
        assert_eq!(Value::Float64(2.0).to_string(), "2.0");
        assert_eq!(Value::Float64(2.5).to_string(), "2.5");
        assert_eq!(Value::Null.to_string(), "NULL");
        assert_eq!(Value::Date(0).to_string(), "1970-01-01");
        assert_eq!(Value::Timestamp(1000).to_string(), "1970-01-01 00:00:01");
    }

    #[test]
    fn sql_type_parsing() {
        assert_eq!(DataType::parse_sql("varchar").unwrap(), DataType::Utf8);
        assert_eq!(DataType::parse_sql("BIGINT").unwrap(), DataType::Int64);
        assert!(DataType::parse_sql("blob").is_err());
    }
}
