//! Zone-map statistics kept per column chunk and per row group.
//!
//! Statistics power two things: row-group pruning during scans (skip a row
//! group whose `[min, max]` cannot satisfy a predicate) and cardinality
//! estimation in the planner's cost model.

use crate::codec::{Reader, Writer};
use pixels_common::{Column, ColumnData, Result, Value};

/// Min/max/null statistics for one column chunk.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnStats {
    /// Smallest non-null value, `None` when the chunk is all-null or empty.
    pub min: Option<Value>,
    /// Largest non-null value, `None` when the chunk is all-null or empty.
    pub max: Option<Value>,
    pub null_count: u64,
    pub row_count: u64,
}

impl ColumnStats {
    pub fn empty() -> Self {
        ColumnStats {
            min: None,
            max: None,
            null_count: 0,
            row_count: 0,
        }
    }

    /// Compute statistics by scanning a column.
    pub fn from_column(col: &Column) -> Self {
        let mut stats = ColumnStats::empty();
        stats.row_count = col.len() as u64;
        if let ColumnData::Utf8(strings) = col.data() {
            // Compare in place; a `String` is built for the two extremes only.
            let valid = || {
                (0..col.len())
                    .filter(|&i| !col.is_null(i))
                    .map(|i| strings.get(i))
            };
            stats.null_count = col.null_count() as u64;
            stats.min = valid().min().map(|s| Value::Utf8(s.to_owned()));
            stats.max = valid().max().map(|s| Value::Utf8(s.to_owned()));
            return stats;
        }
        for i in 0..col.len() {
            let v = col.value(i);
            if v.is_null() {
                stats.null_count += 1;
                continue;
            }
            match &stats.min {
                None => stats.min = Some(v.clone()),
                Some(m) if v.total_cmp(m).is_lt() => stats.min = Some(v.clone()),
                _ => {}
            }
            match &stats.max {
                None => stats.max = Some(v),
                Some(m) if v.total_cmp(m).is_gt() => stats.max = Some(v),
                _ => {}
            }
        }
        stats
    }

    /// Merge another chunk's statistics into this one (row-group -> file
    /// aggregation).
    pub fn merge(&mut self, other: &ColumnStats) {
        self.null_count += other.null_count;
        self.row_count += other.row_count;
        if let Some(omin) = &other.min {
            match &self.min {
                None => self.min = Some(omin.clone()),
                Some(m) if omin.total_cmp(m).is_lt() => self.min = Some(omin.clone()),
                _ => {}
            }
        }
        if let Some(omax) = &other.max {
            match &self.max {
                None => self.max = Some(omax.clone()),
                Some(m) if omax.total_cmp(m).is_gt() => self.max = Some(omax.clone()),
                _ => {}
            }
        }
    }

    /// Can any row in this chunk satisfy `value <op> x` for a comparison
    /// predicate? Conservative: returns `true` when unsure.
    pub fn may_match_range(&self, lower: Option<&Value>, upper: Option<&Value>) -> bool {
        if self.row_count == self.null_count {
            // All-null chunk can never match a comparison predicate.
            return false;
        }
        if let (Some(lo), Some(max)) = (lower, &self.max) {
            if max.sql_cmp(lo).is_some_and(|o| o.is_lt()) {
                return false; // every value < lower bound
            }
        }
        if let (Some(hi), Some(min)) = (upper, &self.min) {
            if min.sql_cmp(hi).is_some_and(|o| o.is_gt()) {
                return false; // every value > upper bound
            }
        }
        true
    }

    /// Does *every* row in this chunk satisfy the range predicate
    /// `lower <= value <= upper` (bounds optional, each inclusive or
    /// strict)? Conservative: returns `false` when unsure.
    ///
    /// Used to elide predicate evaluation entirely for chunks whose zone
    /// map proves the predicate true. Requirements for `true`:
    /// - no NULL rows (a NULL row never satisfies a comparison), and at
    ///   least one row;
    /// - min/max present and provably inside the bounds under `sql_cmp`;
    /// - no Float64 anywhere — `sql_cmp` treats `-0.0 == 0.0` while the
    ///   vectorized kernels compare with `total_cmp`, so float equality at
    ///   a bound could diverge from per-row evaluation.
    pub fn must_match_range(
        &self,
        lower: Option<(&Value, bool)>,
        upper: Option<(&Value, bool)>,
    ) -> bool {
        if self.row_count == 0 || self.null_count > 0 {
            return false;
        }
        let (Some(min), Some(max)) = (&self.min, &self.max) else {
            return false;
        };
        let is_float = |v: &Value| matches!(v, Value::Float64(_));
        if is_float(min)
            || is_float(max)
            || lower.is_some_and(|(v, _)| is_float(v))
            || upper.is_some_and(|(v, _)| is_float(v))
        {
            return false;
        }
        if let Some((lo, inclusive)) = lower {
            let ok = min
                .sql_cmp(lo)
                .is_some_and(|o| if inclusive { o.is_ge() } else { o.is_gt() });
            if !ok {
                return false;
            }
        }
        if let Some((hi, inclusive)) = upper {
            let ok = max
                .sql_cmp(hi)
                .is_some_and(|o| if inclusive { o.is_le() } else { o.is_lt() });
            if !ok {
                return false;
            }
        }
        true
    }

    pub fn encode(&self, w: &mut Writer) {
        match &self.min {
            Some(v) => {
                w.put_bool(true);
                w.put_value(v);
            }
            None => w.put_bool(false),
        }
        match &self.max {
            Some(v) => {
                w.put_bool(true);
                w.put_value(v);
            }
            None => w.put_bool(false),
        }
        w.put_u64(self.null_count);
        w.put_u64(self.row_count);
    }

    pub fn decode(r: &mut Reader<'_>) -> Result<Self> {
        let min = if r.get_bool()? {
            Some(r.get_value()?)
        } else {
            None
        };
        let max = if r.get_bool()? {
            Some(r.get_value()?)
        } else {
            None
        };
        Ok(ColumnStats {
            min,
            max,
            null_count: r.get_u64()?,
            row_count: r.get_u64()?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pixels_common::DataType;

    fn col(vals: &[Option<i64>]) -> Column {
        let values: Vec<Value> = vals
            .iter()
            .map(|v| v.map_or(Value::Null, Value::Int64))
            .collect();
        Column::from_values(DataType::Int64, &values).unwrap()
    }

    #[test]
    fn computes_min_max_nulls() {
        let s = ColumnStats::from_column(&col(&[Some(5), None, Some(-3), Some(9)]));
        assert_eq!(s.min, Some(Value::Int64(-3)));
        assert_eq!(s.max, Some(Value::Int64(9)));
        assert_eq!(s.null_count, 1);
        assert_eq!(s.row_count, 4);
    }

    #[test]
    fn all_null_column() {
        let s = ColumnStats::from_column(&col(&[None, None]));
        assert_eq!(s.min, None);
        assert_eq!(s.max, None);
        assert_eq!(s.null_count, 2);
        assert!(!s.may_match_range(Some(&Value::Int64(0)), None));
    }

    #[test]
    fn merge_widens_range() {
        let mut a = ColumnStats::from_column(&col(&[Some(1), Some(2)]));
        let b = ColumnStats::from_column(&col(&[Some(-5), None, Some(10)]));
        a.merge(&b);
        assert_eq!(a.min, Some(Value::Int64(-5)));
        assert_eq!(a.max, Some(Value::Int64(10)));
        assert_eq!(a.null_count, 1);
        assert_eq!(a.row_count, 5);
    }

    #[test]
    fn range_pruning() {
        let s = ColumnStats::from_column(&col(&[Some(10), Some(20)]));
        // chunk [10, 20]
        assert!(s.may_match_range(Some(&Value::Int64(15)), None)); // v >= 15 overlaps
        assert!(!s.may_match_range(Some(&Value::Int64(21)), None)); // v >= 21 impossible
        assert!(!s.may_match_range(None, Some(&Value::Int64(9)))); // v <= 9 impossible
        assert!(s.may_match_range(Some(&Value::Int64(10)), Some(&Value::Int64(10))));
        // unknown bounds are conservative
        assert!(s.may_match_range(None, None));
    }

    #[test]
    fn must_match_requires_proof() {
        let s = ColumnStats::from_column(&col(&[Some(10), Some(20)]));
        // chunk [10, 20], no nulls
        assert!(s.must_match_range(Some((&Value::Int64(10), true)), None));
        assert!(!s.must_match_range(Some((&Value::Int64(10), false)), None));
        assert!(s.must_match_range(Some((&Value::Int64(9), false)), None));
        assert!(s.must_match_range(None, Some((&Value::Int64(20), true))));
        assert!(!s.must_match_range(None, Some((&Value::Int64(20), false))));
        assert!(s.must_match_range(
            Some((&Value::Int64(10), true)),
            Some((&Value::Int64(20), true))
        ));
        assert!(!s.must_match_range(Some((&Value::Int64(11), true)), None));
        // Any NULL row defeats must-match.
        let with_null = ColumnStats::from_column(&col(&[Some(10), None, Some(20)]));
        assert!(!with_null.must_match_range(Some((&Value::Int64(0), true)), None));
        // Floats are always "unsure".
        let f = Column::from_values(
            DataType::Float64,
            &[Value::Float64(1.0), Value::Float64(2.0)],
        )
        .unwrap();
        let fs = ColumnStats::from_column(&f);
        assert!(!fs.must_match_range(Some((&Value::Float64(0.0), true)), None));
        // Empty chunk proves nothing.
        assert!(!ColumnStats::empty().must_match_range(None, None));
    }

    /// Zone maps of integer columns are exact where `f64` is not: the
    /// extremes are found, and the verdicts given, by integer comparison
    /// around ±2^53 and at the ends of `i64`.
    #[test]
    fn integer_zone_verdicts_are_exact_past_2_pow_53() {
        const P: i64 = 1 << 53;
        // Through f64, P and P + 1 tie and the first seen would stay.
        let s = ColumnStats::from_column(&col(&[Some(P), Some(P + 1), Some(P - 1)]));
        assert_eq!(
            (s.min, s.max),
            (Some(Value::Int64(P - 1)), Some(Value::Int64(P + 1)))
        );
        let s = ColumnStats::from_column(&col(&[Some(i64::MAX - 1), Some(i64::MAX)]));
        assert_eq!(s.min, Some(Value::Int64(i64::MAX - 1)));

        let v = Value::Int64;
        let at = |x: i64| ColumnStats::from_column(&col(&[Some(x)]));
        for edge in [-P, P - 1, P, i64::MAX - 1, i64::MIN + 1] {
            let (below, s, above) = (v(edge - 1), at(edge), v(edge + 1));
            // value > edge - 1 holds for the chunk {edge}; value > edge + 1,
            // value >= edge + 1 and value = edge + 1 cannot.
            assert!(s.must_match_range(Some((&below, false)), None), "{edge}");
            assert!(!s.may_match_range(Some(&above), None), "{edge}");
            assert!(!s.may_match_range(Some(&above), Some(&above)), "{edge}");
            assert!(!s.may_match_range(None, Some(&below)), "{edge}");
            assert!(s.must_match_range(None, Some((&above, false))), "{edge}");
            assert!(!s.must_match_range(Some((&above, true)), None), "{edge}");
        }
    }

    #[test]
    fn pruning_with_strings() {
        let c = Column::from_values(
            DataType::Utf8,
            &[Value::Utf8("beta".into()), Value::Utf8("delta".into())],
        )
        .unwrap();
        let s = ColumnStats::from_column(&c);
        assert!(!s.may_match_range(Some(&Value::Utf8("epsilon".into())), None));
        assert!(s.may_match_range(Some(&Value::Utf8("carol".into())), None));
    }

    #[test]
    fn encode_decode_roundtrip() {
        let s = ColumnStats::from_column(&col(&[Some(3), None, Some(7)]));
        let mut w = Writer::new();
        s.encode(&mut w);
        let bytes = w.into_bytes();
        let decoded = ColumnStats::decode(&mut Reader::new(&bytes)).unwrap();
        assert_eq!(decoded, s);

        let empty = ColumnStats::empty();
        let mut w = Writer::new();
        empty.encode(&mut w);
        let bytes = w.into_bytes();
        assert_eq!(
            ColumnStats::decode(&mut Reader::new(&bytes)).unwrap(),
            empty
        );
    }
}
