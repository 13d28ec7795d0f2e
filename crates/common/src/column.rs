//! Typed columnar vectors with optional validity (null) bitmaps.
//!
//! `Column` is the unit of vectorized execution: a contiguous, homogeneously
//! typed vector plus, when some row is NULL, its validity: the [`Selection`]
//! of its valid rows, one bit per row. All executor operators and the
//! storage encoders work on columns rather than on individual values.
//!
//! Fixed-width types hold one `Vec<T>`. `Utf8` holds a [`StrVec`]: a shared,
//! immutable string pool plus one `u32` per row, so `select`, `gather`,
//! `gather_or_null` and `slice` move indices and share the pool, and only
//! `concat` ever copies string bytes. A `String` is built only where a
//! [`Value::Utf8`] is ([`Column::value`]). The same operations write the
//! validity's words directly.

use crate::error::{Error, Result};
use crate::selection::Selection;
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

    /// An empty payload of the given type, with room for `cap` rows.
    pub fn with_capacity(ty: DataType, cap: usize) -> ColumnData {
        match ty {
            DataType::Boolean => ColumnData::Boolean(Vec::with_capacity(cap)),
            DataType::Int32 => ColumnData::Int32(Vec::with_capacity(cap)),
            DataType::Int64 => ColumnData::Int64(Vec::with_capacity(cap)),
            DataType::Float64 => ColumnData::Float64(Vec::with_capacity(cap)),
            DataType::Utf8 => ColumnData::Utf8(StrVec::with_capacity(cap)),
            DataType::Date => ColumnData::Date(Vec::with_capacity(cap)),
            DataType::Timestamp => ColumnData::Timestamp(Vec::with_capacity(cap)),
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

/// A typed vector of values with an optional validity.
///
/// `validity == None` means every row is valid (non-null); otherwise row `i`
/// is NULL where the validity does not keep it. A validity always has a NULL:
/// one that keeps every row is dropped. The payload slot of a NULL row holds
/// an unspecified (but type-correct) placeholder.
#[derive(Debug, Clone, PartialEq)]
pub struct Column {
    data: ColumnData,
    validity: Option<Selection>,
}

impl Column {
    /// Build a column from a payload with no NULLs.
    pub fn new(data: ColumnData) -> Self {
        Column {
            data,
            validity: None,
        }
    }

    /// Build a column from a payload and the selection of its valid rows.
    /// The validity is dropped if it keeps every row.
    pub fn with_validity(data: ColumnData, validity: Option<Selection>) -> Result<Self> {
        if let Some(v) = &validity {
            if v.len() != data.len() {
                return Err(Error::Invalid(format!(
                    "validity length {} != data length {}",
                    v.len(),
                    data.len()
                )));
            }
        }
        Ok(Column {
            data,
            validity: validity.filter(|v| v.count() < v.len()),
        })
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

    /// The valid rows; `None` when no row is NULL.
    pub fn validity(&self) -> Option<&Selection> {
        self.validity.as_ref()
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
        self.validity.as_ref().is_some_and(|v| !v.contains(i))
    }

    pub fn null_count(&self) -> usize {
        self.validity.as_ref().map_or(0, |v| v.len() - v.count())
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

    /// Keep only the rows `selection` keeps: a run of whole words is one
    /// copy, any other word is walked by its set bits.
    pub fn select(&self, selection: &Selection) -> Result<Column> {
        if selection.len() != self.len() {
            return Err(Error::Invalid(format!(
                "selection of {} rows for a column of {}",
                selection.len(),
                self.len()
            )));
        }
        if selection.count() == self.len() {
            return Ok(self.clone());
        }
        let data = select_rows!(&self.data, |v| selection.gather(v));
        let validity = self.validity.as_ref().map(|v| v.select(selection));
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
        let validity = (self.validity.as_ref())
            .map(|v| Selection::from_fn(indices.len(), |k| v.contains(indices[k])));
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
        // Without a NULL slot or a NULL source row every row is valid, and a
        // column whose rows are all valid holds no validity.
        let padded = indices.iter().any(|&i| i < 0);
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
        let validity = (padded || self.validity.is_some()).then(|| {
            Selection::from_fn(indices.len(), |k| {
                indices[k] >= 0 && !self.is_null(indices[k] as usize)
            })
        });
        Column::with_validity(data, validity)
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
        let validity = self.validity.as_ref().map(|v| {
            let mut rows = Selection::with_capacity(len);
            rows.extend_from(v, range);
            rows
        });
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
        let validity = columns.iter().any(|c| c.validity().is_some()).then(|| {
            let mut v = Selection::with_capacity(total);
            for c in &columns {
                let all = Selection::all(c.len());
                v.extend_from(c.validity().unwrap_or(&all), 0..c.len());
            }
            v
        });
        Column::with_validity(data, validity)
    }
}

/// Incrementally builds a [`Column`] from scalar values.
#[derive(Debug)]
pub struct ColumnBuilder {
    data: ColumnData,
    validity: Selection,
}

impl ColumnBuilder {
    pub fn new(ty: DataType) -> Self {
        ColumnBuilder::with_capacity(ty, 0)
    }

    /// A builder with payload and validity capacity reserved for `cap`
    /// rows, so hot loops with a known output size never reallocate.
    pub fn with_capacity(ty: DataType, cap: usize) -> Self {
        ColumnBuilder {
            data: ColumnData::with_capacity(ty, cap),
            validity: Selection::with_capacity(cap),
        }
    }

    pub fn len(&self) -> usize {
        self.data.len()
    }

    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    pub fn push_null(&mut self) {
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
        Column::with_validity(self.data, Some(self.validity)).expect("one flag per pushed row")
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

    /// Every row-moving operation, on a nullable Int64 and a nullable Utf8
    /// column at lengths around a word, equals the same rows pushed one at a
    /// time through a `ColumnBuilder`: the validity words, `null_count` and
    /// `is_null` of each row.
    #[test]
    fn row_operations_equal_a_value_by_value_build() {
        let value = |ty: DataType, i: usize| match (i % 3 == 1, ty) {
            (true, _) => Value::Null,
            (_, DataType::Int64) => Value::Int64(i as i64 * 7 - 100),
            _ => Value::Utf8(format!("s{}", i % 5)),
        };
        let build = |ty: DataType, rows: &[usize]| {
            let mut b = ColumnBuilder::new(ty);
            rows.iter().for_each(|&i| b.push(&value(ty, i)).unwrap());
            b.finish()
        };
        let same = |got: &Column, want: &Column, what: &str| {
            assert_eq!(got, want, "{what}");
            assert_eq!(got.null_count(), want.null_count(), "{what}");
            for row in 0..want.len() {
                assert_eq!(got.is_null(row), want.is_null(row), "{what} row {row}");
                assert_eq!(got.value(row), want.value(row), "{what} row {row}");
            }
        };
        for ty in [DataType::Int64, DataType::Utf8] {
            for len in [0, 1, 63, 64, 65, 129] {
                let all: Vec<usize> = (0..len).collect();
                let col = build(ty, &all);
                let what = format!("{ty} len {len}");
                let keeps: [fn(usize) -> bool; 3] = [|i| i % 2 == 0, |i| i % 64 != 5, |i| i >= 63];
                for keep in keeps {
                    let kept: Vec<usize> = all.iter().copied().filter(|&i| keep(i)).collect();
                    let selection = Selection::from_fn(len, keep);
                    same(&col.select(&selection).unwrap(), &build(ty, &kept), &what);
                    same(&col.gather(&kept).unwrap(), &build(ty, &kept), &what);
                }
                let reversed: Vec<usize> = all.iter().rev().copied().collect();
                same(
                    &col.gather(&reversed).unwrap(),
                    &build(ty, &reversed),
                    &what,
                );
                // A NULL slot between every pair of rows, and at both ends.
                let padded: Vec<i64> = (0..=len as i64)
                    .flat_map(|i| [-1, i])
                    .take(2 * len + 1)
                    .collect();
                let mut b = ColumnBuilder::new(ty);
                for &i in &padded {
                    if i < 0 {
                        b.push_null();
                    } else {
                        b.push(&value(ty, i as usize)).unwrap();
                    }
                }
                same(&col.gather_or_null(&padded).unwrap(), &b.finish(), &what);
                for offset in [0, 1, 63, 64].into_iter().filter(|&o| o <= len) {
                    let rows = &all[offset..];
                    let what = format!("{what} slice at {offset}");
                    same(
                        &col.slice(offset, rows.len()).unwrap(),
                        &build(ty, rows),
                        &what,
                    );
                }
                let parts: Vec<usize> = vec![1, 63, 65];
                let mut next = 0;
                let pieces: Vec<Column> = (parts.iter())
                    .map(|&n| {
                        let rows: Vec<usize> = (next..next + n).map(|i| i % len.max(1)).collect();
                        next += n;
                        build(ty, if len == 0 { &[] } else { &rows })
                    })
                    .collect();
                let rows: Vec<usize> = (0..next).map(|i| i % len.max(1)).collect();
                let want = build(ty, if len == 0 { &[] } else { &rows });
                same(
                    &Column::concat(&pieces).unwrap(),
                    &want,
                    &format!("{what} concat"),
                );
            }
        }
    }
}
