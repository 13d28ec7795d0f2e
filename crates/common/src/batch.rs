//! `RecordBatch`: a horizontal slice of a table, stored column-wise.

use crate::column::{Column, ColumnBuilder};
use crate::error::{Error, Result};
use crate::schema::SchemaRef;
use crate::value::Value;
use std::fmt::Write as _;
use std::sync::Arc;

/// A set of equal-length columns conforming to a schema.
#[derive(Debug, Clone, PartialEq)]
pub struct RecordBatch {
    schema: SchemaRef,
    columns: Vec<Column>,
    num_rows: usize,
}

impl RecordBatch {
    /// Build a batch, validating column count, types, and lengths against the
    /// schema.
    pub fn try_new(schema: SchemaRef, columns: Vec<Column>) -> Result<Self> {
        if schema.len() != columns.len() {
            return Err(Error::Invalid(format!(
                "schema has {} fields but {} columns were provided",
                schema.len(),
                columns.len()
            )));
        }
        let num_rows = columns.first().map_or(0, |c| c.len());
        for (i, (f, c)) in schema.fields().iter().zip(&columns).enumerate() {
            if c.data_type() != f.data_type {
                return Err(Error::Invalid(format!(
                    "column {i} ({}) has type {} but schema declares {}",
                    f.name,
                    c.data_type(),
                    f.data_type
                )));
            }
            if c.len() != num_rows {
                return Err(Error::Invalid(format!(
                    "column {i} ({}) has {} rows but expected {num_rows}",
                    f.name,
                    c.len()
                )));
            }
        }
        Ok(RecordBatch {
            schema,
            columns,
            num_rows,
        })
    }

    /// An empty batch for a schema.
    pub fn empty(schema: SchemaRef) -> Self {
        let columns = schema
            .fields()
            .iter()
            .map(|f| ColumnBuilder::new(f.data_type).finish())
            .collect();
        RecordBatch {
            schema,
            columns,
            num_rows: 0,
        }
    }

    /// Build a batch from row-oriented values (convenient in tests and the
    /// VALUES operator).
    pub fn from_rows(schema: SchemaRef, rows: &[Vec<Value>]) -> Result<Self> {
        let mut builders: Vec<ColumnBuilder> = schema
            .fields()
            .iter()
            .map(|f| ColumnBuilder::new(f.data_type))
            .collect();
        for (r, row) in rows.iter().enumerate() {
            if row.len() != schema.len() {
                return Err(Error::Invalid(format!(
                    "row {r} has {} values but schema has {} fields",
                    row.len(),
                    schema.len()
                )));
            }
            for (b, v) in builders.iter_mut().zip(row) {
                b.push(v)?;
            }
        }
        let columns = builders.into_iter().map(|b| b.finish()).collect();
        RecordBatch::try_new(schema, columns)
    }

    pub fn schema(&self) -> &SchemaRef {
        &self.schema
    }

    pub fn columns(&self) -> &[Column] {
        &self.columns
    }

    pub fn column(&self, i: usize) -> &Column {
        &self.columns[i]
    }

    pub fn num_rows(&self) -> usize {
        self.num_rows
    }

    pub fn num_columns(&self) -> usize {
        self.columns.len()
    }

    pub fn is_empty(&self) -> bool {
        self.num_rows == 0
    }

    /// One row as scalars.
    pub fn row(&self, i: usize) -> Vec<Value> {
        self.columns.iter().map(|c| c.value(i)).collect()
    }

    /// All rows as scalars (test/sink helper).
    pub fn to_rows(&self) -> Vec<Vec<Value>> {
        (0..self.num_rows).map(|i| self.row(i)).collect()
    }

    /// Keep the columns at `indices`, in order.
    pub fn project(&self, indices: &[usize]) -> Result<RecordBatch> {
        for &i in indices {
            if i >= self.columns.len() {
                return Err(Error::Invalid(format!(
                    "projection index {i} out of bounds ({} columns)",
                    self.columns.len()
                )));
            }
        }
        let schema = Arc::new(self.schema.project(indices));
        let columns = indices.iter().map(|&i| self.columns[i].clone()).collect();
        RecordBatch::try_new(schema, columns)
    }

    /// Keep rows where `mask[i]` is true.
    pub fn filter(&self, mask: &[bool]) -> Result<RecordBatch> {
        let columns: Result<Vec<Column>> = self.columns.iter().map(|c| c.filter(mask)).collect();
        let columns = columns?;
        let num_rows = mask.iter().filter(|&&m| m).count();
        Ok(RecordBatch {
            schema: self.schema.clone(),
            columns,
            num_rows,
        })
    }

    /// Select rows by index, in order (indices may repeat).
    pub fn gather(&self, indices: &[usize]) -> Result<RecordBatch> {
        let columns: Result<Vec<Column>> = self.columns.iter().map(|c| c.gather(indices)).collect();
        Ok(RecordBatch {
            schema: self.schema.clone(),
            columns: columns?,
            num_rows: indices.len(),
        })
    }

    /// Rows `[offset, offset + len)`.
    pub fn slice(&self, offset: usize, len: usize) -> Result<RecordBatch> {
        let columns: Result<Vec<Column>> =
            self.columns.iter().map(|c| c.slice(offset, len)).collect();
        Ok(RecordBatch {
            schema: self.schema.clone(),
            columns: columns?,
            num_rows: len,
        })
    }

    /// Concatenate same-schema batches.
    pub fn concat(batches: &[RecordBatch]) -> Result<RecordBatch> {
        let first = batches
            .first()
            .ok_or_else(|| Error::Invalid("concat of zero batches".into()))?;
        let schema = first.schema.clone();
        let mut columns = Vec::with_capacity(schema.len());
        for i in 0..schema.len() {
            let cols: Vec<&Column> = batches.iter().map(|b| &b.columns[i]).collect();
            columns.push(Column::concat(&cols)?);
        }
        let num_rows = batches.iter().map(|b| b.num_rows).sum();
        Ok(RecordBatch {
            schema,
            columns,
            num_rows,
        })
    }

    /// Render as an ASCII table (used by Rover and the examples).
    pub fn pretty_format(&self) -> String {
        pretty_format_batches(std::slice::from_ref(self))
    }
}

/// Render several same-schema batches as one ASCII table.
pub fn pretty_format_batches(batches: &[RecordBatch]) -> String {
    let Some(first) = batches.first() else {
        return String::from("(no rows)\n");
    };
    let schema = first.schema();
    let headers: Vec<&str> = schema.fields().iter().map(|f| f.name.as_str()).collect();
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    let mut rows: Vec<Vec<String>> = Vec::new();
    for b in batches {
        for i in 0..b.num_rows() {
            let row: Vec<String> = b.row(i).iter().map(|v| v.to_string()).collect();
            for (w, cell) in widths.iter_mut().zip(&row) {
                *w = (*w).max(cell.len());
            }
            rows.push(row);
        }
    }
    let mut out = String::new();
    let sep = |out: &mut String| {
        out.push('+');
        for w in &widths {
            for _ in 0..w + 2 {
                out.push('-');
            }
            out.push('+');
        }
        out.push('\n');
    };
    sep(&mut out);
    out.push('|');
    for (h, w) in headers.iter().zip(&widths) {
        let _ = write!(out, " {h:<w$} |");
    }
    out.push('\n');
    sep(&mut out);
    for row in &rows {
        out.push('|');
        for (cell, w) in row.iter().zip(&widths) {
            let _ = write!(out, " {cell:<w$} |");
        }
        out.push('\n');
    }
    sep(&mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{Field, Schema};
    use crate::value::DataType;

    fn schema() -> SchemaRef {
        Arc::new(Schema::new(vec![
            Field::required("id", DataType::Int64),
            Field::nullable("name", DataType::Utf8),
        ]))
    }

    fn batch() -> RecordBatch {
        RecordBatch::from_rows(
            schema(),
            &[
                vec![Value::Int64(1), Value::Utf8("alice".into())],
                vec![Value::Int64(2), Value::Null],
                vec![Value::Int64(3), Value::Utf8("carol".into())],
            ],
        )
        .unwrap()
    }

    #[test]
    fn round_trip_rows() {
        let b = batch();
        assert_eq!(b.num_rows(), 3);
        assert_eq!(b.row(1), vec![Value::Int64(2), Value::Null]);
        assert_eq!(b.to_rows().len(), 3);
    }

    #[test]
    fn schema_mismatch_rejected() {
        let cols = vec![Column::from_values(DataType::Int32, &[Value::Int32(1)]).unwrap()];
        assert!(RecordBatch::try_new(schema(), cols).is_err());
    }

    #[test]
    fn type_mismatch_rejected() {
        let cols = vec![
            Column::from_values(DataType::Int32, &[Value::Int32(1)]).unwrap(),
            Column::from_values(DataType::Utf8, &[Value::Utf8("x".into())]).unwrap(),
        ];
        assert!(RecordBatch::try_new(schema(), cols).is_err());
    }

    #[test]
    fn length_mismatch_rejected() {
        let cols = vec![
            Column::from_values(DataType::Int64, &[Value::Int64(1), Value::Int64(2)]).unwrap(),
            Column::from_values(DataType::Utf8, &[Value::Utf8("x".into())]).unwrap(),
        ];
        assert!(RecordBatch::try_new(schema(), cols).is_err());
    }

    #[test]
    fn project_filter_gather_slice() {
        let b = batch();
        let p = b.project(&[1]).unwrap();
        assert_eq!(p.num_columns(), 1);
        assert_eq!(p.schema().field(0).name, "name");

        let f = b.filter(&[true, false, true]).unwrap();
        assert_eq!(f.num_rows(), 2);
        assert_eq!(f.row(1)[0], Value::Int64(3));

        let g = b.gather(&[2, 2, 0]).unwrap();
        assert_eq!(g.num_rows(), 3);
        assert_eq!(g.row(0)[0], Value::Int64(3));

        let s = b.slice(1, 1).unwrap();
        assert_eq!(s.row(0)[0], Value::Int64(2));
    }

    #[test]
    fn concat_batches() {
        let b = batch();
        let c = RecordBatch::concat(&[b.clone(), b]).unwrap();
        assert_eq!(c.num_rows(), 6);
    }

    #[test]
    fn empty_batch() {
        let b = RecordBatch::empty(schema());
        assert_eq!(b.num_rows(), 0);
        assert_eq!(b.num_columns(), 2);
    }

    #[test]
    fn pretty_format_contains_cells() {
        let s = batch().pretty_format();
        assert!(s.contains("alice"));
        assert!(s.contains("NULL"));
        assert!(s.contains("| id "));
    }
}
