//! Dictionary encoding for strings: distinct values stored once, rows stored
//! as bit-packed codes into the dictionary.
//!
//! [`decode`] is the one parser of a dictionary payload. What it returns is
//! already the in-memory form of a string column — pool = the dictionary,
//! one index per row = the codes — so decoding copies each distinct value
//! once and no row.

use super::{bitpack, plain};
use crate::codec::{Reader, Writer};
use pixels_common::{ColumnData, Error, Result, StrVec};
use std::collections::HashMap;
use std::sync::Arc;

/// The distinct values of `values` in first-appearance order, and each row's
/// code into them. When the pool is no larger than the column (a dictionary,
/// say), rows naming the same entry are hashed once.
fn distinct_codes(values: &StrVec) -> (Vec<&str>, Vec<u32>) {
    let mut index: HashMap<&str, u32> = HashMap::new();
    let mut dict: Vec<&str> = Vec::new();
    let mut code_of = |s| {
        *index.entry(s).or_insert_with(|| {
            dict.push(s);
            (dict.len() - 1) as u32
        })
    };
    let pool = values.pool();
    let mut by_entry = if pool.len() <= values.len() {
        vec![u32::MAX; pool.len()]
    } else {
        Vec::new()
    };
    let mut codes = Vec::with_capacity(values.len());
    for (row, &i) in values.indices().iter().enumerate() {
        codes.push(match by_entry.get_mut(i as usize) {
            Some(code) => {
                if *code == u32::MAX {
                    *code = code_of(pool.get(i));
                }
                *code
            }
            None => code_of(values.get(row)),
        });
    }
    (dict, codes)
}

/// Number of distinct values (cheap helper for the encoding chooser).
pub fn distinct_count(values: &StrVec) -> usize {
    distinct_codes(values).0.len()
}

pub fn encode(data: &ColumnData, w: &mut Writer) -> Result<()> {
    let ColumnData::Utf8(values) = data else {
        return Err(Error::Storage(
            "dictionary encoding only supports strings".into(),
        ));
    };
    // The dictionary is in first-appearance order so encoding is
    // deterministic.
    let (dict, codes) = distinct_codes(values);
    w.put_u32(dict.len() as u32);
    for s in &dict {
        w.put_str(s);
    }
    let width = bitpack::bit_width(dict.len().saturating_sub(1) as u32);
    w.put_u8(width);
    w.put_raw(&bitpack::pack_u32(&codes, width));
    Ok(())
}

/// Parse a dictionary payload of `num_rows` rows: the dictionary becomes the
/// pool and the unpacked codes the row indices, each checked against it
/// once, by [`StrVec::from_codes`].
pub fn decode(r: &mut Reader<'_>, num_rows: usize) -> Result<StrVec> {
    let dict_len = r.get_u32()? as usize;
    let dict = plain::read_pool(r, dict_len, None)?;
    let width = r.get_u8()?;
    if !(1..=32).contains(&width) {
        return Err(Error::Storage(format!(
            "corrupt dictionary bit width {width}"
        )));
    }
    let packed_len = (num_rows * width as usize).div_ceil(8);
    let packed = r.get_raw(packed_len)?;
    let codes = bitpack::unpack_u32(packed, num_rows, width);
    StrVec::from_codes(Arc::new(dict), codes).map_err(|code| {
        Error::Storage(format!(
            "dictionary code {code} out of range ({dict_len} entries)"
        ))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(values: Vec<&str>) {
        let data = ColumnData::Utf8(values.iter().collect());
        let n = data.len();
        let mut w = Writer::new();
        encode(&data, &mut w).unwrap();
        let bytes = w.into_bytes();
        let decoded = decode(&mut Reader::new(&bytes), n).unwrap();
        assert_eq!(ColumnData::Utf8(decoded), data);
    }

    #[test]
    fn roundtrips() {
        roundtrip(vec!["a", "b", "a", "a", "c", "b"]);
        roundtrip(vec!["only"]);
        roundtrip(vec![]);
        roundtrip(vec!["", "", "x"]);
    }

    #[test]
    fn compresses_low_cardinality() {
        let data = ColumnData::Utf8((0..10_000).map(|i| format!("status-{}", i % 4)).collect());
        let mut w = Writer::new();
        encode(&data, &mut w).unwrap();
        // 4 dictionary entries + 2 bits per row ≈ 2.5 KB, far below plain.
        assert!(w.len() < 4_000, "dict size was {}", w.len());
    }

    #[test]
    fn rejects_non_strings() {
        let mut w = Writer::new();
        assert!(encode(&ColumnData::Int32(vec![1]), &mut w).is_err());
    }

    #[test]
    fn corrupt_code_detected() {
        // dictionary of 1 entry but a code referencing entry 1 (out of range)
        let mut w = Writer::new();
        w.put_u32(1);
        w.put_str("a");
        w.put_u8(2); // 2-bit codes
        w.put_raw(&bitpack::pack_u32(&[1], 2));
        let bytes = w.into_bytes();
        assert!(decode(&mut Reader::new(&bytes), 1).is_err());
    }

    #[test]
    fn distinct_counts() {
        let v: StrVec = ["a", "b", "a"].iter().collect();
        assert_eq!(distinct_count(&v), 2);
        assert_eq!(distinct_count(&StrVec::default()), 0);
    }
}
