//! Run-length encoding for fixed-width types.
//!
//! Each run is `(count: u32, value)`. Effective for sorted key columns,
//! low-cardinality integer columns, and flag columns — common shapes in
//! TPC-H and web-log data.

use crate::codec::{Reader, Writer};
use pixels_common::{ColumnData, DataType, Error, Result};

fn encode_runs<T: PartialEq + Copy>(values: &[T], w: &mut Writer, put: impl Fn(&mut Writer, T)) {
    let mut i = 0;
    while i < values.len() {
        let v = values[i];
        let mut j = i + 1;
        while j < values.len() && values[j] == v {
            j += 1;
        }
        w.put_u32((j - i) as u32);
        put(w, v);
        i = j;
    }
}

fn decode_runs<T: Copy>(
    r: &mut Reader<'_>,
    num_rows: usize,
    get: impl Fn(&mut Reader<'_>) -> Result<T>,
) -> Result<Vec<T>> {
    let mut out: Vec<T> = Vec::with_capacity(num_rows);
    while out.len() < num_rows {
        let count = r.get_u32()? as usize;
        if count == 0 || out.len() + count > num_rows {
            return Err(Error::Storage(format!(
                "corrupt RLE run: count {count} with {} of {num_rows} rows decoded",
                out.len()
            )));
        }
        let v = get(r)?;
        out.extend(std::iter::repeat_n(v, count));
    }
    Ok(out)
}

/// Whether RLE supports this payload type.
pub fn supports(ty: DataType) -> bool {
    !matches!(ty, DataType::Utf8)
}

pub fn encode(data: &ColumnData, w: &mut Writer) -> Result<()> {
    match data {
        ColumnData::Boolean(v) => {
            encode_runs(v, w, |w, x| w.put_bool(x));
        }
        ColumnData::Int32(v) | ColumnData::Date(v) => {
            encode_runs(v, w, |w, x| w.put_i32(x));
        }
        ColumnData::Int64(v) | ColumnData::Timestamp(v) => {
            encode_runs(v, w, |w, x| w.put_i64(x));
        }
        ColumnData::Float64(v) => {
            // f64 runs compare by bit pattern so NaNs form runs too.
            let bits: Vec<u64> = v.iter().map(|x| x.to_bits()).collect();
            encode_runs(&bits, w, |w, x| w.put_u64(x));
        }
        ColumnData::Utf8(_) => {
            return Err(Error::Storage("RLE does not support strings".into()));
        }
    }
    Ok(())
}

pub fn decode(r: &mut Reader<'_>, ty: DataType, num_rows: usize) -> Result<ColumnData> {
    Ok(match ty {
        DataType::Boolean => ColumnData::Boolean(decode_runs(r, num_rows, |r| r.get_bool())?),
        DataType::Int32 => ColumnData::Int32(decode_runs(r, num_rows, |r| r.get_i32())?),
        DataType::Date => ColumnData::Date(decode_runs(r, num_rows, |r| r.get_i32())?),
        DataType::Int64 => ColumnData::Int64(decode_runs(r, num_rows, |r| r.get_i64())?),
        DataType::Timestamp => ColumnData::Timestamp(decode_runs(r, num_rows, |r| r.get_i64())?),
        DataType::Float64 => {
            let bits = decode_runs(r, num_rows, |r| r.get_u64())?;
            ColumnData::Float64(bits.into_iter().map(f64::from_bits).collect())
        }
        DataType::Utf8 => {
            return Err(Error::Storage("RLE does not support strings".into()));
        }
    })
}

/// Average run length, used by the encoding chooser.
pub fn avg_run_length(data: &ColumnData) -> f64 {
    fn runs<T: PartialEq>(v: &[T]) -> usize {
        if v.is_empty() {
            return 0;
        }
        1 + v.windows(2).filter(|w| w[0] != w[1]).count()
    }
    let (n, r) = match data {
        ColumnData::Boolean(v) => (v.len(), runs(v)),
        ColumnData::Int32(v) | ColumnData::Date(v) => (v.len(), runs(v)),
        ColumnData::Int64(v) | ColumnData::Timestamp(v) => (v.len(), runs(v)),
        ColumnData::Float64(v) => (v.len(), runs(v)),
        ColumnData::Utf8(_) => return 0.0, // strings are never run-length encoded
    };
    if r == 0 {
        0.0
    } else {
        n as f64 / r as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(data: ColumnData) {
        let n = data.len();
        let ty = data.data_type();
        let mut w = Writer::new();
        encode(&data, &mut w).unwrap();
        let bytes = w.into_bytes();
        let decoded = decode(&mut Reader::new(&bytes), ty, n).unwrap();
        assert_eq!(decoded, data);
    }

    #[test]
    fn roundtrips_runs() {
        roundtrip(ColumnData::Int32(vec![1, 1, 1, 2, 2, 3]));
        roundtrip(ColumnData::Int64(vec![7; 100]));
        roundtrip(ColumnData::Boolean(vec![true, true, false, false, false]));
        roundtrip(ColumnData::Date(vec![100, 100, 200]));
    }

    #[test]
    fn floats_roundtrip_bit_exact_including_nan() {
        let data = ColumnData::Float64(vec![1.5, 1.5, -0.0, -0.0, f64::NAN]);
        let mut w = Writer::new();
        encode(&data, &mut w).unwrap();
        let bytes = w.into_bytes();
        let decoded = decode(&mut Reader::new(&bytes), DataType::Float64, 5).unwrap();
        let (ColumnData::Float64(a), ColumnData::Float64(b)) = (&data, &decoded) else {
            panic!("wrong type");
        };
        // NaN != NaN under PartialEq, so compare bit patterns.
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(a), bits(b));
    }

    #[test]
    fn roundtrips_no_runs() {
        roundtrip(ColumnData::Int32((0..50).collect()));
    }

    #[test]
    fn empty() {
        roundtrip(ColumnData::Int64(vec![]));
    }

    #[test]
    fn compresses_long_runs() {
        let data = ColumnData::Int64(vec![42; 10_000]);
        let mut w = Writer::new();
        encode(&data, &mut w).unwrap();
        assert!(w.len() < 64, "10k identical values should fit in one run");
    }

    #[test]
    fn rejects_strings() {
        let data = ColumnData::Utf8(["a"].iter().collect());
        let mut w = Writer::new();
        assert!(encode(&data, &mut w).is_err());
        assert!(!supports(DataType::Utf8));
        assert!(supports(DataType::Int64));
    }

    #[test]
    fn corrupt_run_count_errors() {
        let mut w = Writer::new();
        w.put_u32(5); // claims 5 rows
        w.put_i32(1);
        let bytes = w.into_bytes();
        // but we only expect 3 rows
        assert!(decode(&mut Reader::new(&bytes), DataType::Int32, 3).is_err());
    }

    #[test]
    fn avg_run_lengths() {
        assert_eq!(avg_run_length(&ColumnData::Int32(vec![1, 1, 1, 1])), 4.0);
        assert_eq!(avg_run_length(&ColumnData::Int32(vec![1, 2, 3, 4])), 1.0);
        assert_eq!(avg_run_length(&ColumnData::Int32(vec![])), 0.0);
    }
}
