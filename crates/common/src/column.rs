//! Typed columnar vectors with optional validity (null) bitmaps.
//!
//! `Column` is the unit of vectorized execution: a contiguous, homogeneously
//! typed vector plus an optional per-row validity vector. All executor
//! operators and the storage encoders work on columns rather than on
//! individual values.
//!
//! Fixed-width types hold one `Vec<T>`. `Utf8` holds a [`StrVec`]: a shared,
//! immutable string pool plus one `u32` per row, so `filter`, `gather`,
//! `gather_or_null` and `slice` move indices and share the pool, and only
//! `concat` ever copies string bytes. A `String` is built only where a
//! [`Value::Utf8`] is ([`Column::value`]).

use crate::error::{Error, Result};
use crate::strvec::StrVec;
use crate::value::{DataType, Value};
use std::borrow::Borrow;

/// The typed payload of a column.
#[derive(Debug, Clone, PartialEq)]
pub enum ColumnData {
    Boolean(Vec<bool>),
    Int32(Vec<i32>),
    Int64(Vec<i64>),
    Float64(Vec<f64>),
    Utf8(StrVec),
    /// Days since the Unix epoch.
    Date(Vec<i32>),
    /// Milliseconds since the Unix epoch.
    Timestamp(Vec<i64>),
}

impl ColumnData {
    pub fn data_type(&self) -> DataType {
        match self {
            ColumnData::Boolean(_) => DataType::Boolean,
            ColumnData::Int32(_) => DataType::Int32,
            ColumnData::Int64(_) => DataType::Int64,
            ColumnData::Float64(_) => DataType::Float64,
            ColumnData::Utf8(_) => DataType::Utf8,
            ColumnData::Date(_) => DataType::Date,
            ColumnData::Timestamp(_) => DataType::Timestamp,
        }
    }

    pub fn len(&self) -> usize {
        match self {
            ColumnData::Boolean(v) => v.len(),
            ColumnData::Int32(v) => v.len(),
            ColumnData::Int64(v) => v.len(),
            ColumnData::Float64(v) => v.len(),
            ColumnData::Utf8(v) => v.len(),
            ColumnData::Date(v) => v.len(),
            ColumnData::Timestamp(v) => v.len(),
        }
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// An empty payload of the given type.
    pub fn empty(ty: DataType) -> ColumnData {
        match ty {
            DataType::Boolean => ColumnData::Boolean(Vec::new()),
            DataType::Int32 => ColumnData::Int32(Vec::new()),
            DataType::Int64 => ColumnData::Int64(Vec::new()),
            DataType::Float64 => ColumnData::Float64(Vec::new()),
            DataType::Utf8 => ColumnData::Utf8(StrVec::default()),
            DataType::Date => ColumnData::Date(Vec::new()),
            DataType::Timestamp => ColumnData::Timestamp(Vec::new()),
        }
    }
}

/// Run one row-selection kernel over whichever payload `$data` holds. The
/// kernel sees a slice (`$v`) and returns the selected `Vec`; for `Utf8` the
/// slice is the pool indices and the result shares the pool.
macro_rules! select_rows {
    ($data:expr, |$v:ident| $kernel:expr) => {
        match $data {
            ColumnData::Boolean($v) => ColumnData::Boolean($kernel),
            ColumnData::Int32($v) => ColumnData::Int32($kernel),
            ColumnData::Int64($v) => ColumnData::Int64($kernel),
            ColumnData::Float64($v) => ColumnData::Float64($kernel),
            ColumnData::Utf8(s) => {
                let $v = s.indices();
                ColumnData::Utf8(s.with_indices($kernel))
            }
            ColumnData::Date($v) => ColumnData::Date($kernel),
            ColumnData::Timestamp($v) => ColumnData::Timestamp($kernel),
        }
    };
}

/// A typed vector of values with an optional validity vector.
///
/// `validity == None` means every row is valid (non-null); otherwise
/// `validity[i] == false` marks row `i` as NULL. The payload slot of a NULL
/// row holds an unspecified (but type-correct) placeholder.
#[derive(Debug, Clone, PartialEq)]
pub struct Column {
    data: ColumnData,
    validity: Option<Vec<bool>>,
}

impl Column {
    /// Build a column from a payload with no NULLs.
    pub fn new(data: ColumnData) -> Self {
        Column {
            data,
            validity: None,
        }
    }

    /// Build a column from a payload and validity vector. The validity is
    /// dropped if it marks every row valid.
    pub fn with_validity(data: ColumnData, validity: Option<Vec<bool>>) -> Result<Self> {
        if let Some(v) = &validity {
            if v.len() != data.len() {
                return Err(Error::Invalid(format!(
                    "validity length {} != data length {}",
                    v.len(),
                    data.len()
                )));
            }
            if v.iter().all(|&b| b) {
                return Ok(Column {
                    data,
                    validity: None,
                });
            }
        }
        Ok(Column { data, validity })
    }

    /// Build a column of `ty` from scalar values, checking types row by row.
    pub fn from_values(ty: DataType, values: &[Value]) -> Result<Self> {
        let mut b = ColumnBuilder::new(ty);
        for v in values {
            b.push(v)?;
        }
        Ok(b.finish())
    }

    /// A column of `len` NULLs of the given type.
    pub fn nulls(ty: DataType, len: usize) -> Self {
        let mut b = ColumnBuilder::new(ty);
        for _ in 0..len {
            b.push_null();
        }
        b.finish()
    }

    pub fn data(&self) -> &ColumnData {
        &self.data
    }

    pub fn validity(&self) -> Option<&[bool]> {
        self.validity.as_deref()
    }

    /// The payload and validity vector, by value.
    pub fn into_parts(self) -> (ColumnData, Option<Vec<bool>>) {
        (self.data, self.validity)
    }

    pub fn data_type(&self) -> DataType {
        self.data.data_type()
    }

    pub fn len(&self) -> usize {
        self.data.len()
    }

    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    pub fn is_null(&self, i: usize) -> bool {
        self.validity.as_ref().is_some_and(|v| !v[i])
    }

    pub fn null_count(&self) -> usize {
        self.validity
            .as_ref()
            .map_or(0, |v| v.iter().filter(|&&b| !b).count())
    }

    /// The scalar at row `i`.
    pub fn value(&self, i: usize) -> Value {
        if self.is_null(i) {
            return Value::Null;
        }
        match &self.data {
            ColumnData::Boolean(v) => Value::Boolean(v[i]),
            ColumnData::Int32(v) => Value::Int32(v[i]),
            ColumnData::Int64(v) => Value::Int64(v[i]),
            ColumnData::Float64(v) => Value::Float64(v[i]),
            ColumnData::Utf8(v) => Value::Utf8(v.get(i).to_owned()),
            ColumnData::Date(v) => Value::Date(v[i]),
            ColumnData::Timestamp(v) => Value::Timestamp(v[i]),
        }
    }

    /// Keep only rows where `mask[i]` is true.
    pub fn filter(&self, mask: &[bool]) -> Result<Column> {
        if mask.len() != self.len() {
            return Err(Error::Invalid(format!(
                "filter mask length {} != column length {}",
                mask.len(),
                self.len()
            )));
        }
        let kept = mask.iter().filter(|&&m| m).count();
        if kept == mask.len() {
            return Ok(self.clone());
        }
        // Branch-free compaction: every row is written at the cursor and only
        // a kept row advances it, so the loop carries no data-dependent
        // branch. The spare slot takes the writes that follow the last kept
        // row.
        fn keep<T: Copy + Default>(v: &[T], mask: &[bool], kept: usize) -> Vec<T> {
            let mut out = vec![T::default(); kept + 1];
            let mut at = 0;
            for (&x, &m) in v.iter().zip(mask) {
                out[at] = x;
                at += m as usize;
            }
            out.truncate(kept);
            out
        }
        let data = select_rows!(&self.data, |v| keep(v, mask, kept));
        let validity = self.validity.as_ref().map(|v| keep(v, mask, kept));
        Column::with_validity(data, validity)
    }

    /// Select rows by index, in the given order (indices may repeat).
    pub fn gather(&self, indices: &[usize]) -> Result<Column> {
        let n = self.len();
        if let Some(&bad) = indices.iter().find(|&&i| i >= n) {
            return Err(Error::Invalid(format!(
                "gather index {bad} out of bounds for column of length {n}"
            )));
        }
        fn take<T: Copy>(v: &[T], idx: &[usize]) -> Vec<T> {
            idx.iter().map(|&i| v[i]).collect()
        }
        let data = select_rows!(&self.data, |v| take(v, indices));
        let validity = self.validity.as_ref().map(|v| take(v, indices));
        Column::with_validity(data, validity)
    }

    /// Like [`Column::gather`], but a negative index produces a NULL row.
    /// This is how outer joins null-extend the unmatched side without a
    /// row-at-a-time builder: one gather per column, with `-1` standing in
    /// for "no matching row".
    pub fn gather_or_null(&self, indices: &[i64]) -> Result<Column> {
        let n = self.len();
        if let Some(&bad) = indices.iter().find(|&&i| i >= 0 && i as usize >= n) {
            return Err(Error::Invalid(format!(
                "gather index {bad} out of bounds for column of length {n}"
            )));
        }
        fn take<T: Copy>(v: &[T], idx: &[i64], absent: T) -> Vec<T> {
            idx.iter()
                .map(|&i| if i < 0 { absent } else { v[i as usize] })
                .collect()
        }
        let data = match &self.data {
            ColumnData::Boolean(v) => ColumnData::Boolean(take(v, indices, false)),
            ColumnData::Int32(v) => ColumnData::Int32(take(v, indices, 0)),
            ColumnData::Int64(v) => ColumnData::Int64(take(v, indices, 0)),
            ColumnData::Float64(v) => ColumnData::Float64(take(v, indices, 0.0)),
            ColumnData::Utf8(v) => {
                ColumnData::Utf8(v.with_indices(take(v.indices(), indices, StrVec::NO_ENTRY)))
            }
            ColumnData::Date(v) => ColumnData::Date(take(v, indices, 0)),
            ColumnData::Timestamp(v) => ColumnData::Timestamp(take(v, indices, 0)),
        };
        let validity: Vec<bool> = indices
            .iter()
            .map(|&i| i >= 0 && !self.is_null(i as usize))
            .collect();
        Column::with_validity(data, Some(validity))
    }

    /// Rows `[offset, offset + len)` as a new column.
    pub fn slice(&self, offset: usize, len: usize) -> Result<Column> {
        if offset + len > self.len() {
            return Err(Error::Invalid(format!(
                "slice [{offset}, {}) out of bounds for column of length {}",
                offset + len,
                self.len()
            )));
        }
        let range = offset..offset + len;
        let data = select_rows!(&self.data, |v| v[range.clone()].to_vec());
        let validity = self.validity.as_ref().map(|v| v[range].to_vec());
        Column::with_validity(data, validity)
    }

    /// Concatenate columns of the same type into one. Payloads are extended
    /// slice-wise into pre-reserved vectors rather than rebuilt value by
    /// value; strings follow [`StrVec::concat`]. Accepts owned or borrowed
    /// columns.
    pub fn concat<C: Borrow<Column>>(columns: &[C]) -> Result<Column> {
        let columns: Vec<&Column> = columns.iter().map(|c| c.borrow()).collect();
        let ty = columns
            .first()
            .ok_or_else(|| Error::Invalid("concat of zero columns".into()))?
            .data_type();
        for c in &columns {
            if c.data_type() != ty {
                return Err(Error::Invalid(format!(
                    "concat type mismatch: {} vs {}",
                    ty,
                    c.data_type()
                )));
            }
        }
        let total: usize = columns.iter().map(|c| c.len()).sum();
        macro_rules! splice {
            ($variant:ident) => {{
                let mut out = Vec::with_capacity(total);
                for c in &columns {
                    match c.data() {
                        ColumnData::$variant(v) => out.extend_from_slice(v),
                        _ => unreachable!("types checked above"),
                    }
                }
                ColumnData::$variant(out)
            }};
        }
        let data = match ty {
            DataType::Boolean => splice!(Boolean),
            DataType::Int32 => splice!(Int32),
            DataType::Int64 => splice!(Int64),
            DataType::Float64 => splice!(Float64),
            DataType::Utf8 => {
                let parts: Vec<&StrVec> = columns
                    .iter()
                    .map(|c| match c.data() {
                        ColumnData::Utf8(v) => v,
                        _ => unreachable!("types checked above"),
                    })
                    .collect();
                ColumnData::Utf8(StrVec::concat(&parts)?)
            }
            DataType::Date => splice!(Date),
            DataType::Timestamp => splice!(Timestamp),
        };
        let validity = if columns.iter().any(|c| c.validity().is_some()) {
            let mut v = Vec::with_capacity(total);
            for c in &columns {
                match c.validity() {
                    Some(bits) => v.extend_from_slice(bits),
                    None => v.resize(v.len() + c.len(), true),
                }
            }
            Some(v)
        } else {
            None
        };
        Column::with_validity(data, validity)
    }
}

/// Incrementally builds a [`Column`] from scalar values.
#[derive(Debug)]
pub struct ColumnBuilder {
    data: ColumnData,
    validity: Vec<bool>,
    has_null: bool,
}

impl ColumnBuilder {
    pub fn new(ty: DataType) -> Self {
        ColumnBuilder {
            data: ColumnData::empty(ty),
            validity: Vec::new(),
            has_null: false,
        }
    }

    /// A builder with payload and validity capacity reserved for `cap`
    /// rows, so hot loops with a known output size never reallocate.
    pub fn with_capacity(ty: DataType, cap: usize) -> Self {
        fn vec<T>(cap: usize) -> Vec<T> {
            Vec::with_capacity(cap)
        }
        let data = match ty {
            DataType::Boolean => ColumnData::Boolean(vec(cap)),
            DataType::Int32 => ColumnData::Int32(vec(cap)),
            DataType::Int64 => ColumnData::Int64(vec(cap)),
            DataType::Float64 => ColumnData::Float64(vec(cap)),
            DataType::Utf8 => ColumnData::Utf8(StrVec::with_capacity(cap)),
            DataType::Date => ColumnData::Date(vec(cap)),
            DataType::Timestamp => ColumnData::Timestamp(vec(cap)),
        };
        ColumnBuilder {
            data,
            validity: Vec::with_capacity(cap),
            has_null: false,
        }
    }

    pub fn len(&self) -> usize {
        self.data.len()
    }

    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    pub fn push_null(&mut self) {
        self.has_null = true;
        self.validity.push(false);
        // Push a type-correct placeholder into the payload slot.
        match &mut self.data {
            ColumnData::Boolean(v) => v.push(false),
            ColumnData::Int32(v) => v.push(0),
            ColumnData::Int64(v) => v.push(0),
            ColumnData::Float64(v) => v.push(0.0),
            ColumnData::Utf8(v) => v.push_no_entry(),
            ColumnData::Date(v) => v.push(0),
            ColumnData::Timestamp(v) => v.push(0),
        }
    }

    /// Append one scalar; numeric values are widened to the builder's type
    /// when lossless (`Int32` into an `Int64` builder, integers into a
    /// `Float64` builder).
    pub fn push(&mut self, value: &Value) -> Result<()> {
        if value.is_null() {
            self.push_null();
            return Ok(());
        }
        let mismatch = |b: &ColumnBuilder| {
            Error::Invalid(format!(
                "cannot append {:?} to {} column",
                value.data_type(),
                b.data.data_type()
            ))
        };
        match (&mut self.data, value) {
            (ColumnData::Boolean(v), Value::Boolean(x)) => v.push(*x),
            (ColumnData::Int32(v), Value::Int32(x)) => v.push(*x),
            (ColumnData::Int64(v), Value::Int64(x)) => v.push(*x),
            (ColumnData::Int64(v), Value::Int32(x)) => v.push(*x as i64),
            (ColumnData::Float64(v), Value::Float64(x)) => v.push(*x),
            (ColumnData::Float64(v), Value::Int32(x)) => v.push(*x as f64),
            (ColumnData::Float64(v), Value::Int64(x)) => v.push(*x as f64),
            (ColumnData::Utf8(v), Value::Utf8(x)) => v.push(x)?,
            (ColumnData::Date(v), Value::Date(x)) => v.push(*x),
            (ColumnData::Timestamp(v), Value::Timestamp(x)) => v.push(*x),
            _ => return Err(mismatch(self)),
        }
        self.validity.push(true);
        Ok(())
    }

    pub fn finish(self) -> Column {
        let validity = if self.has_null {
            Some(self.validity)
        } else {
            None
        };
        Column {
            data: self.data,
            validity,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn int_col(vals: &[Option<i64>]) -> Column {
        let values: Vec<Value> = vals
            .iter()
            .map(|v| v.map_or(Value::Null, Value::Int64))
            .collect();
        Column::from_values(DataType::Int64, &values).unwrap()
    }

    #[test]
    fn build_and_read_back() {
        let c = int_col(&[Some(1), None, Some(3)]);
        assert_eq!(c.len(), 3);
        assert_eq!(c.null_count(), 1);
        assert_eq!(c.value(0), Value::Int64(1));
        assert_eq!(c.value(1), Value::Null);
        assert_eq!(c.value(2), Value::Int64(3));
    }

    #[test]
    fn all_valid_drops_validity() {
        let c = int_col(&[Some(1), Some(2)]);
        assert!(c.validity().is_none());
        assert_eq!(c.null_count(), 0);
    }

    #[test]
    fn builder_widens_integers() {
        let mut b = ColumnBuilder::new(DataType::Float64);
        b.push(&Value::Int32(2)).unwrap();
        b.push(&Value::Int64(3)).unwrap();
        b.push(&Value::Float64(4.5)).unwrap();
        let c = b.finish();
        assert_eq!(c.value(0), Value::Float64(2.0));
        assert_eq!(c.value(2), Value::Float64(4.5));
    }

    #[test]
    fn builder_rejects_type_mismatch() {
        let mut b = ColumnBuilder::new(DataType::Int32);
        assert!(b.push(&Value::Utf8("x".into())).is_err());
        assert!(
            b.push(&Value::Int64(1)).is_err(),
            "narrowing is not allowed"
        );
    }

    #[test]
    fn filter_keeps_nulls_aligned() {
        let c = int_col(&[Some(1), None, Some(3), None]);
        let f = c.filter(&[true, true, false, true]).unwrap();
        assert_eq!(f.len(), 3);
        assert_eq!(f.value(0), Value::Int64(1));
        assert_eq!(f.value(1), Value::Null);
        assert_eq!(f.value(2), Value::Null);
    }

    #[test]
    fn filter_compaction_matches_a_row_by_row_model() {
        // Every mask shape the compaction loop has an edge for: nothing
        // kept, everything kept (a plain copy), the last row kept or not.
        let n = 67;
        let vals: Vec<Option<i64>> = (0..n)
            .map(|i| (i % 5 != 0).then_some(i as i64 * 3))
            .collect();
        let c = int_col(&vals);
        let masks: Vec<Vec<bool>> = vec![
            vec![false; n],
            vec![true; n],
            (0..n).map(|i| i % 3 == 0).collect(),
            (0..n).map(|i| i % 7 != 0 || i == n - 1).collect(),
            (0..n).map(|i| i != n - 1).collect(),
        ];
        for mask in masks {
            let kept: Vec<Option<i64>> = (vals.iter().zip(&mask))
                .filter(|&(_, &m)| m)
                .map(|(v, _)| *v)
                .collect();
            assert_eq!(c.filter(&mask).unwrap(), int_col(&kept), "{mask:?}");
        }
    }

    #[test]
    fn filter_length_mismatch_errors() {
        let c = int_col(&[Some(1)]);
        assert!(c.filter(&[true, false]).is_err());
    }

    #[test]
    fn gather_repeats_and_reorders() {
        let c = int_col(&[Some(10), Some(20), None]);
        let g = c.gather(&[2, 0, 0]).unwrap();
        assert_eq!(g.value(0), Value::Null);
        assert_eq!(g.value(1), Value::Int64(10));
        assert_eq!(g.value(2), Value::Int64(10));
        assert!(c.gather(&[3]).is_err());
    }

    #[test]
    fn slice_bounds() {
        let c = int_col(&[Some(1), Some(2), Some(3)]);
        let s = c.slice(1, 2).unwrap();
        assert_eq!(s.value(0), Value::Int64(2));
        assert!(c.slice(2, 2).is_err());
    }

    #[test]
    fn concat_and_type_check() {
        let a = int_col(&[Some(1)]);
        let b = int_col(&[None, Some(2)]);
        let c = Column::concat(&[a, b]).unwrap();
        assert_eq!(c.len(), 3);
        assert_eq!(c.null_count(), 1);
        let s = Column::from_values(DataType::Utf8, &[Value::Utf8("x".into())]).unwrap();
        assert!(Column::concat(&[c, s]).is_err());
    }

    #[test]
    fn gather_or_null_extends_with_nulls() {
        let c = int_col(&[Some(10), None, Some(30)]);
        let g = c.gather_or_null(&[-1, 2, 1, 0, -1]).unwrap();
        assert_eq!(g.len(), 5);
        assert_eq!(g.value(0), Value::Null);
        assert_eq!(g.value(1), Value::Int64(30));
        assert_eq!(g.value(2), Value::Null, "source NULL stays NULL");
        assert_eq!(g.value(3), Value::Int64(10));
        assert_eq!(g.value(4), Value::Null);
        assert!(c.gather_or_null(&[3]).is_err());
        assert!(c.gather_or_null(&[-7]).is_ok(), "any negative means NULL");
    }

    #[test]
    fn concat_matches_builder_semantics() {
        // Mixed validity, strings, empties: slice-wise concat must agree
        // with the row-at-a-time construction it replaced.
        let a = Column::from_values(
            DataType::Utf8,
            &[Value::Utf8("x".into()), Value::Null, Value::Utf8("".into())],
        )
        .unwrap();
        let b = Column::from_values(DataType::Utf8, &[]).unwrap();
        let c = Column::from_values(DataType::Utf8, &[Value::Utf8("z".into())]).unwrap();
        let joined = Column::concat(&[a.clone(), b, c]).unwrap();
        assert_eq!(joined.len(), 4);
        assert_eq!(joined.value(1), Value::Null);
        assert_eq!(joined.value(2), Value::Utf8(String::new()));
        assert_eq!(joined.value(3), Value::Utf8("z".into()));
        // All-valid inputs drop the validity vector entirely.
        let v = int_col(&[Some(1)]);
        let joined = Column::concat(&[v.clone(), v]).unwrap();
        assert!(joined.validity().is_none());
    }

    #[test]
    fn with_capacity_builder_roundtrips() {
        let mut b = ColumnBuilder::with_capacity(DataType::Int32, 8);
        b.push(&Value::Int32(3)).unwrap();
        b.push_null();
        let c = b.finish();
        assert_eq!(c.len(), 2);
        assert_eq!(c.value(0), Value::Int32(3));
        assert!(c.is_null(1));
    }

    #[test]
    fn nulls_constructor() {
        let c = Column::nulls(DataType::Utf8, 4);
        assert_eq!(c.len(), 4);
        assert_eq!(c.null_count(), 4);
        assert_eq!(c.data_type(), DataType::Utf8);
    }
}
