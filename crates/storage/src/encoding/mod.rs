//! Column-chunk encodings and the heuristic that picks one per chunk.
//!
//! Three encodings are supported, mirroring the core of the Pixels format:
//! plain, run-length (RLE), and string dictionary. The writer analyzes each
//! chunk and picks the encoding expected to be smallest; the choice is
//! recorded in the chunk metadata so readers are self-describing.

pub mod bitpack;
pub mod dict;
pub mod plain;
pub mod rle;

use crate::codec::{Reader, Writer};
use pixels_common::{ColumnData, DataType, Error, Result};

/// The encoding applied to one column chunk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Encoding {
    Plain,
    Rle,
    Dictionary,
}

impl Encoding {
    pub fn tag(self) -> u8 {
        match self {
            Encoding::Plain => 0,
            Encoding::Rle => 1,
            Encoding::Dictionary => 2,
        }
    }

    pub fn from_tag(tag: u8) -> Result<Encoding> {
        Ok(match tag {
            0 => Encoding::Plain,
            1 => Encoding::Rle,
            2 => Encoding::Dictionary,
            t => return Err(Error::Storage(format!("unknown encoding tag {t}"))),
        })
    }
}

/// Pick an encoding for a chunk based on its shape:
/// - strings with < 50% distinct values → dictionary;
/// - fixed-width data with average run length ≥ 2 → RLE;
/// - everything else → plain.
pub fn choose_encoding(data: &ColumnData) -> Encoding {
    match data {
        ColumnData::Utf8(values) => {
            if values.len() >= 8 && dict::distinct_count(values) * 2 < values.len() {
                Encoding::Dictionary
            } else {
                Encoding::Plain
            }
        }
        _ => {
            if data.len() >= 8 && rle::avg_run_length(data) >= 2.0 {
                Encoding::Rle
            } else {
                Encoding::Plain
            }
        }
    }
}

/// Encode a chunk payload with the given encoding.
pub fn encode(data: &ColumnData, encoding: Encoding, w: &mut Writer) -> Result<()> {
    match encoding {
        Encoding::Plain => {
            plain::encode(data, w);
            Ok(())
        }
        Encoding::Rle => rle::encode(data, w),
        Encoding::Dictionary => dict::encode(data, w),
    }
}

/// Decode a chunk payload.
pub fn decode(
    r: &mut Reader<'_>,
    encoding: Encoding,
    ty: DataType,
    num_rows: usize,
) -> Result<ColumnData> {
    match encoding {
        Encoding::Plain => plain::decode(r, ty, num_rows),
        Encoding::Rle => rle::decode(r, ty, num_rows),
        Encoding::Dictionary => {
            if ty != DataType::Utf8 {
                return Err(Error::Storage(format!(
                    "dictionary encoding on non-string column of type {ty}"
                )));
            }
            dict::decode(r, num_rows).map(ColumnData::Utf8)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tag_roundtrip() {
        for e in [Encoding::Plain, Encoding::Rle, Encoding::Dictionary] {
            assert_eq!(Encoding::from_tag(e.tag()).unwrap(), e);
        }
        assert!(Encoding::from_tag(9).is_err());
    }

    #[test]
    fn chooser_picks_dictionary_for_repetitive_strings() {
        let data = ColumnData::Utf8((0..100).map(|i| format!("s{}", i % 3)).collect());
        assert_eq!(choose_encoding(&data), Encoding::Dictionary);
    }

    #[test]
    fn chooser_picks_plain_for_unique_strings() {
        let data = ColumnData::Utf8((0..100).map(|i| format!("s{i}")).collect());
        assert_eq!(choose_encoding(&data), Encoding::Plain);
    }

    #[test]
    fn chooser_picks_rle_for_runs() {
        let data = ColumnData::Int32(vec![1; 100]);
        assert_eq!(choose_encoding(&data), Encoding::Rle);
        let unique = ColumnData::Int32((0..100).collect());
        assert_eq!(choose_encoding(&unique), Encoding::Plain);
    }

    #[test]
    fn tiny_chunks_stay_plain() {
        let data = ColumnData::Int32(vec![1, 1, 1]);
        assert_eq!(choose_encoding(&data), Encoding::Plain);
    }

    #[test]
    fn roundtrip_through_every_encoding() {
        let ints = ColumnData::Int64(vec![5, 5, 5, 9, 9, 1, 1, 1]);
        for enc in [Encoding::Plain, Encoding::Rle] {
            let mut w = Writer::new();
            encode(&ints, enc, &mut w).unwrap();
            let bytes = w.into_bytes();
            let out = decode(&mut Reader::new(&bytes), enc, DataType::Int64, 8).unwrap();
            assert_eq!(out, ints);
        }
        let strings = ColumnData::Utf8(["a", "b", "a"].iter().collect());
        for enc in [Encoding::Plain, Encoding::Dictionary] {
            let mut w = Writer::new();
            encode(&strings, enc, &mut w).unwrap();
            let bytes = w.into_bytes();
            let out = decode(&mut Reader::new(&bytes), enc, DataType::Utf8, 3).unwrap();
            assert_eq!(out, strings);
        }
    }

    #[test]
    fn dictionary_on_ints_rejected() {
        let mut r = Reader::new(&[]);
        assert!(decode(&mut r, Encoding::Dictionary, DataType::Int32, 0).is_err());
    }
}
