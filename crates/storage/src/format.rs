//! On-disk layout of the Pixels columnar file format.
//!
//! ```text
//! +------------------+
//! | magic "PXLS1\0"  |
//! +------------------+
//! | row group 0      |  column chunk 0 | column chunk 1 | ...
//! | row group 1      |  ...
//! +------------------+
//! | footer           |  schema + per-row-group, per-chunk metadata
//! +------------------+
//! | footer_len (u64) |
//! | magic "PXLS"     |
//! +------------------+
//! ```
//!
//! Each column chunk is `[has_validity: u8][validity bitmap?][payload]` where
//! the payload is encoded per [`crate::encoding`]. The footer records every
//! chunk's absolute offset, length, encoding, and zone-map statistics, so a
//! reader can fetch exactly the chunks a query projects — that selectivity
//! is what the $/TB-scanned price model bills.

use crate::codec::{Reader, Writer};
use crate::encoding::Encoding;
use crate::stats::ColumnStats;
use pixels_common::{Error, Field, Result, Schema};

/// Leading file magic (with format version).
pub const MAGIC_HEAD: &[u8; 6] = b"PXLS1\0";
/// Trailing file magic.
pub const MAGIC_TAIL: &[u8; 4] = b"PXLS";
/// Current format version recorded in the footer.
pub const FORMAT_VERSION: u32 = 1;

/// Location and shape of one column chunk within the file.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnChunkMeta {
    /// Absolute byte offset of the chunk in the file.
    pub offset: u64,
    /// Length of the chunk in bytes.
    pub len: u64,
    pub encoding: Encoding,
    pub stats: ColumnStats,
}

/// Metadata for one row group.
#[derive(Debug, Clone, PartialEq)]
pub struct RowGroupMeta {
    pub num_rows: u64,
    /// One entry per schema column, in schema order.
    pub columns: Vec<ColumnChunkMeta>,
}

/// The file footer: schema plus all row-group metadata.
#[derive(Debug, Clone, PartialEq)]
pub struct Footer {
    pub version: u32,
    pub schema: Schema,
    pub row_groups: Vec<RowGroupMeta>,
}

impl Footer {
    /// Total rows across all row groups.
    pub fn num_rows(&self) -> u64 {
        self.row_groups.iter().map(|rg| rg.num_rows).sum()
    }

    /// File-level statistics for one column (merged across row groups).
    pub fn column_stats(&self, col: usize) -> ColumnStats {
        let mut stats = ColumnStats::empty();
        for rg in &self.row_groups {
            stats.merge(&rg.columns[col].stats);
        }
        stats
    }

    pub fn encode(&self) -> Vec<u8> {
        let mut w = Writer::new();
        w.put_u32(self.version);
        w.put_u32(self.schema.len() as u32);
        for f in self.schema.fields() {
            w.put_str(&f.name);
            w.put_data_type(f.data_type);
            w.put_bool(f.nullable);
        }
        w.put_u64(self.row_groups.len() as u64);
        for rg in &self.row_groups {
            w.put_u64(rg.num_rows);
            debug_assert_eq!(rg.columns.len(), self.schema.len());
            for c in &rg.columns {
                w.put_u64(c.offset);
                w.put_u64(c.len);
                w.put_u8(c.encoding.tag());
                c.stats.encode(&mut w);
            }
        }
        w.into_bytes()
    }

    pub fn decode(bytes: &[u8]) -> Result<Footer> {
        let mut r = Reader::new(bytes);
        let version = r.get_u32()?;
        if version != FORMAT_VERSION {
            return Err(Error::Storage(format!(
                "unsupported format version {version} (expected {FORMAT_VERSION})"
            )));
        }
        // Counts come off the file, so a corrupt one must give an `Err`, not
        // a huge allocation: no more entries can follow than the bytes left
        // hold (a field takes at least 6, a row group at least 8).
        let num_fields = r.get_u32()? as usize;
        let mut fields = Vec::with_capacity(num_fields.min(r.remaining() / 6));
        for _ in 0..num_fields {
            let name = r.get_str()?;
            let data_type = r.get_data_type()?;
            let nullable = r.get_bool()?;
            fields.push(Field::new(name, data_type, nullable));
        }
        let schema = Schema::new(fields);
        let num_rgs = r.get_u64()? as usize;
        let mut row_groups = Vec::with_capacity(num_rgs.min(r.remaining() / 8));
        for _ in 0..num_rgs {
            let num_rows = r.get_u64()?;
            let mut columns = Vec::with_capacity(schema.len());
            for _ in 0..schema.len() {
                let offset = r.get_u64()?;
                let len = r.get_u64()?;
                let encoding = Encoding::from_tag(r.get_u8()?)?;
                let stats = ColumnStats::decode(&mut r)?;
                columns.push(ColumnChunkMeta {
                    offset,
                    len,
                    encoding,
                    stats,
                });
            }
            row_groups.push(RowGroupMeta { num_rows, columns });
        }
        if !r.is_at_end() {
            return Err(Error::Storage("trailing bytes after footer".into()));
        }
        Ok(Footer {
            version,
            schema,
            row_groups,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pixels_common::{DataType, Value};

    fn sample_footer() -> Footer {
        let schema = Schema::new(vec![
            Field::required("id", DataType::Int64),
            Field::nullable("name", DataType::Utf8),
        ]);
        let stats_id = ColumnStats {
            min: Some(Value::Int64(1)),
            max: Some(Value::Int64(100)),
            null_count: 0,
            row_count: 100,
        };
        let stats_name = ColumnStats {
            min: Some(Value::Utf8("a".into())),
            max: Some(Value::Utf8("z".into())),
            null_count: 3,
            row_count: 100,
        };
        Footer {
            version: FORMAT_VERSION,
            schema,
            row_groups: vec![RowGroupMeta {
                num_rows: 100,
                columns: vec![
                    ColumnChunkMeta {
                        offset: 6,
                        len: 800,
                        encoding: Encoding::Rle,
                        stats: stats_id,
                    },
                    ColumnChunkMeta {
                        offset: 806,
                        len: 1200,
                        encoding: Encoding::Dictionary,
                        stats: stats_name,
                    },
                ],
            }],
        }
    }

    #[test]
    fn footer_roundtrip() {
        let f = sample_footer();
        let bytes = f.encode();
        let decoded = Footer::decode(&bytes).unwrap();
        assert_eq!(decoded, f);
    }

    #[test]
    fn footer_rejects_bad_version() {
        let mut f = sample_footer();
        f.version = 99;
        let bytes = f.encode();
        assert!(Footer::decode(&bytes).is_err());
    }

    #[test]
    fn footer_rejects_trailing_bytes() {
        let mut bytes = sample_footer().encode();
        bytes.push(0);
        assert!(Footer::decode(&bytes).is_err());
    }

    #[test]
    fn footer_with_corrupt_counts_is_an_error() {
        let footer = |fields: u32, row_groups: u64| {
            let mut w = Writer::new();
            w.put_u32(FORMAT_VERSION);
            w.put_u32(fields);
            w.put_u64(row_groups);
            w.into_bytes()
        };
        assert!(Footer::decode(&footer(0, 1 << 62)).is_err());
        assert!(Footer::decode(&footer(u32::MAX, 0)).is_err());
    }

    #[test]
    fn aggregate_helpers() {
        let f = sample_footer();
        assert_eq!(f.num_rows(), 100);
        let s = f.column_stats(1);
        assert_eq!(s.null_count, 3);
        assert_eq!(s.max, Some(Value::Utf8("z".into())));
    }
}
