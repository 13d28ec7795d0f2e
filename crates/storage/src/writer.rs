//! Writes record batches into a Pixels-format object.

use crate::codec::Writer as ByteWriter;
use crate::encoding::{self, bitpack};
use crate::format::{
    ColumnChunkMeta, Footer, RowGroupMeta, FORMAT_VERSION, MAGIC_HEAD, MAGIC_TAIL,
};
use crate::object_store::ObjectStore;
use crate::stats::ColumnStats;
use bytes::Bytes;
use pixels_common::{Column, Error, RecordBatch, Result, SchemaRef};

/// Streaming writer: buffer batches, cut a row group whenever the buffer
/// reaches `row_group_rows`, then `finish()` to append the footer and upload.
pub struct PixelsWriter<'a> {
    store: &'a dyn ObjectStore,
    path: String,
    schema: SchemaRef,
    row_group_rows: usize,
    buffered: Vec<RecordBatch>,
    buffered_rows: usize,
    file: ByteWriter,
    row_groups: Vec<RowGroupMeta>,
    finished: bool,
    /// When set, every chunk uses this encoding instead of the per-chunk
    /// chooser (used by the encoding ablation; plain always works, other
    /// overrides must be type-compatible).
    encoding_override: Option<encoding::Encoding>,
}

/// Default row-group size. Small enough that zone-map pruning has bite on
/// test-scale data, large enough to amortize per-chunk overhead.
pub const DEFAULT_ROW_GROUP_ROWS: usize = 64 * 1024;

impl<'a> PixelsWriter<'a> {
    pub fn new(store: &'a dyn ObjectStore, path: impl Into<String>, schema: SchemaRef) -> Self {
        Self::with_row_group_rows(store, path, schema, DEFAULT_ROW_GROUP_ROWS)
    }

    pub fn with_row_group_rows(
        store: &'a dyn ObjectStore,
        path: impl Into<String>,
        schema: SchemaRef,
        row_group_rows: usize,
    ) -> Self {
        let mut file = ByteWriter::new();
        file.put_raw(MAGIC_HEAD);
        PixelsWriter {
            store,
            path: path.into(),
            schema,
            row_group_rows: row_group_rows.max(1),
            buffered: Vec::new(),
            buffered_rows: 0,
            file,
            row_groups: Vec::new(),
            finished: false,
            encoding_override: None,
        }
    }

    /// Force a single encoding for every chunk (ablation hook).
    pub fn with_encoding_override(mut self, encoding: encoding::Encoding) -> Self {
        self.encoding_override = Some(encoding);
        self
    }

    /// Append a batch; row groups are cut automatically.
    pub fn write_batch(&mut self, batch: &RecordBatch) -> Result<()> {
        if self.finished {
            return Err(Error::Storage("writer already finished".into()));
        }
        if batch.schema().as_ref() != self.schema.as_ref() {
            return Err(Error::Storage(format!(
                "batch schema {} does not match writer schema {}",
                batch.schema(),
                self.schema
            )));
        }
        // Cut the batch at row-group boundaries as it arrives: each row is
        // copied into the buffer once, and the buffer never holds more than
        // one row group.
        let mut offset = 0;
        while offset < batch.num_rows() {
            let take = (self.row_group_rows - self.buffered_rows).min(batch.num_rows() - offset);
            self.buffered.push(batch.slice(offset, take)?);
            self.buffered_rows += take;
            offset += take;
            if self.buffered_rows == self.row_group_rows {
                self.flush_row_group()?;
            }
        }
        Ok(())
    }

    /// Encode the buffered rows (at most one row group's worth) as a row
    /// group.
    fn flush_row_group(&mut self) -> Result<()> {
        if self.buffered_rows == 0 {
            return Ok(());
        }
        let group = RecordBatch::concat(&self.buffered)?;
        self.buffered.clear();
        self.buffered_rows = 0;
        self.encode_row_group(&group)
    }

    fn encode_row_group(&mut self, group: &RecordBatch) -> Result<()> {
        let mut columns = Vec::with_capacity(group.num_columns());
        for col in group.columns() {
            columns.push(self.encode_chunk(col)?);
        }
        self.row_groups.push(RowGroupMeta {
            num_rows: group.num_rows() as u64,
            columns,
        });
        Ok(())
    }

    fn encode_chunk(&mut self, col: &Column) -> Result<ColumnChunkMeta> {
        let offset = self.file.len() as u64;
        let stats = ColumnStats::from_column(col);
        match col.validity() {
            Some(validity) => {
                self.file.put_u8(1);
                self.file.put_raw(&bitpack::pack_bools(validity));
            }
            None => self.file.put_u8(0),
        }
        let encoding = self
            .encoding_override
            .unwrap_or_else(|| encoding::choose_encoding(col.data()));
        encoding::encode(col.data(), encoding, &mut self.file)?;
        let len = self.file.len() as u64 - offset;
        Ok(ColumnChunkMeta {
            offset,
            len,
            encoding,
            stats,
        })
    }

    /// Flush remaining rows, append the footer, and upload the object.
    /// Returns the total file size in bytes.
    pub fn finish(mut self) -> Result<u64> {
        if self.finished {
            return Err(Error::Storage("writer already finished".into()));
        }
        self.finished = true;
        self.flush_row_group()?;
        let footer = Footer {
            version: FORMAT_VERSION,
            schema: self.schema.as_ref().clone(),
            row_groups: std::mem::take(&mut self.row_groups),
        };
        let footer_bytes = footer.encode();
        self.file.put_raw(&footer_bytes);
        self.file.put_u64(footer_bytes.len() as u64);
        self.file.put_raw(MAGIC_TAIL);
        let bytes = self.file.into_bytes();
        let size = bytes.len() as u64;
        self.store.put(&self.path, Bytes::from(bytes))?;
        Ok(size)
    }
}

/// One-shot helper: write `batches` to `path` and return the file size.
pub fn write_table(
    store: &dyn ObjectStore,
    path: &str,
    schema: SchemaRef,
    batches: &[RecordBatch],
) -> Result<u64> {
    let mut w = PixelsWriter::new(store, path, schema);
    for b in batches {
        w.write_batch(b)?;
    }
    w.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::object_store::InMemoryObjectStore;
    use pixels_common::{DataType, Field, Schema, Value};
    use std::sync::Arc;

    fn schema() -> SchemaRef {
        Arc::new(Schema::new(vec![
            Field::required("id", DataType::Int64),
            Field::nullable("tag", DataType::Utf8),
        ]))
    }

    fn batch(start: i64, n: usize) -> RecordBatch {
        let rows: Vec<Vec<Value>> = (0..n)
            .map(|i| {
                vec![
                    Value::Int64(start + i as i64),
                    if i % 5 == 0 {
                        Value::Null
                    } else {
                        Value::Utf8(format!("tag{}", i % 3))
                    },
                ]
            })
            .collect();
        RecordBatch::from_rows(schema(), &rows).unwrap()
    }

    #[test]
    fn writes_file_with_magic() {
        let store = InMemoryObjectStore::new();
        let size = write_table(&store, "t.pxl", schema(), &[batch(0, 100)]).unwrap();
        let data = store.get("t.pxl").unwrap();
        assert_eq!(data.len() as u64, size);
        assert_eq!(&data[..6], MAGIC_HEAD);
        assert_eq!(&data[data.len() - 4..], MAGIC_TAIL);
    }

    #[test]
    fn cuts_row_groups_at_capacity() {
        let store = InMemoryObjectStore::new();
        let mut w = PixelsWriter::with_row_group_rows(&store, "t.pxl", schema(), 64);
        for i in 0..3 {
            w.write_batch(&batch(i * 100, 100)).unwrap();
        }
        w.finish().unwrap();
        let data = store.get("t.pxl").unwrap();
        // Footer: last 12 bytes = footer_len + magic.
        let flen = u64::from_le_bytes(data[data.len() - 12..data.len() - 4].try_into().unwrap());
        let footer =
            Footer::decode(&data[data.len() - 12 - flen as usize..data.len() - 12]).unwrap();
        // 300 rows with 64-row groups => 5 groups of (64,64,64,64,44).
        assert_eq!(footer.row_groups.len(), 5);
        assert_eq!(footer.num_rows(), 300);
        assert_eq!(footer.row_groups[4].num_rows, 44);
    }

    #[test]
    fn schema_mismatch_rejected() {
        let store = InMemoryObjectStore::new();
        let other = Arc::new(Schema::new(vec![Field::required("x", DataType::Int32)]));
        let b = RecordBatch::from_rows(other, &[vec![Value::Int32(1)]]).unwrap();
        let mut w = PixelsWriter::new(&store, "t.pxl", schema());
        assert!(w.write_batch(&b).is_err());
    }

    #[test]
    fn empty_table_is_valid() {
        let store = InMemoryObjectStore::new();
        write_table(&store, "t.pxl", schema(), &[]).unwrap();
        let data = store.get("t.pxl").unwrap();
        let flen = u64::from_le_bytes(data[data.len() - 12..data.len() - 4].try_into().unwrap());
        let footer =
            Footer::decode(&data[data.len() - 12 - flen as usize..data.len() - 12]).unwrap();
        assert_eq!(footer.num_rows(), 0);
        assert!(footer.row_groups.is_empty());
    }
}
