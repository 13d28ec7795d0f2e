//! Plain encoding: values stored back-to-back in their natural width.
//! Strings are length-prefixed; booleans are bit-packed.

use super::bitpack;
use crate::codec::{Reader, Writer};
use pixels_common::{ColumnData, DataType, Error, Result, StrPool, StrVec};

pub fn encode(data: &ColumnData, w: &mut Writer) {
    match data {
        ColumnData::Boolean(v) => w.put_raw(&bitpack::pack_bools(v)),
        ColumnData::Int32(v) | ColumnData::Date(v) => {
            for x in v {
                w.put_i32(*x);
            }
        }
        ColumnData::Int64(v) | ColumnData::Timestamp(v) => {
            for x in v {
                w.put_i64(*x);
            }
        }
        ColumnData::Float64(v) => {
            for x in v {
                w.put_f64(*x);
            }
        }
        ColumnData::Utf8(v) => {
            for s in v.iter() {
                w.put_str(s);
            }
        }
    }
}

/// Read `n` length-prefixed strings into a pool sized exactly for what it
/// holds. Every string is validated; under `keep` (one flag per string) only
/// the selected ones are copied, so the pool holds no byte it does not show.
pub(crate) fn read_pool(r: &mut Reader<'_>, n: usize, keep: Option<&[bool]>) -> Result<StrPool> {
    let kept = keep.map_or(n, |k| k.iter().filter(|&&k| k).count());
    // A string takes at least its 4-byte length in the input.
    let mut strings: Vec<&str> = Vec::with_capacity(kept.min(r.remaining() / 4));
    for i in 0..n {
        let s = r.get_str_ref()?;
        if keep.is_none_or(|k| k[i]) {
            strings.push(s);
        }
    }
    let bytes = strings.iter().map(|s| s.len()).sum();
    let mut pool = StrPool::with_capacity(strings.len(), bytes);
    for s in strings {
        pool.push(s)?;
    }
    Ok(pool)
}

/// Read `n` fixed-width values with one bounds check: the input is known to
/// hold all `n * W` bytes before anything is allocated for them. Under `keep`
/// (one flag per value) only the selected values are read out, into a vector
/// sized for them — the bounds check, and so the error, is the same.
fn read_fixed<const W: usize, T>(
    r: &mut Reader<'_>,
    n: usize,
    keep: Option<&[bool]>,
    from_le: impl Fn([u8; W]) -> T,
) -> Result<Vec<T>> {
    let len = n
        .checked_mul(W)
        .ok_or_else(|| Error::Storage(format!("chunk of {n} {W}-byte values is too large")))?;
    let bytes = r.get_raw(len)?;
    let value = |c: &[u8]| from_le(c.try_into().expect("chunks_exact yields W bytes"));
    Ok(match keep {
        None => bytes.chunks_exact(W).map(value).collect(),
        Some(keep) => {
            let mut out = Vec::with_capacity(keep.iter().filter(|&&k| k).count());
            // What a selective filter keeps comes in few, short stretches:
            // the rows between them are stepped over a block at a time. What
            // a lax one keeps comes in long stretches: a block it keeps whole
            // is copied whole.
            const BLOCK: usize = 32;
            for (block, keep) in bytes.chunks(W * BLOCK).zip(keep.chunks(BLOCK)) {
                let kept = keep.iter().fold(0, |n, &k| n + usize::from(k));
                if kept == keep.len() {
                    out.extend(block.chunks_exact(W).map(value));
                } else if kept > 0 {
                    out.extend(
                        (block.chunks_exact(W).zip(keep))
                            .filter(|(_, &k)| k)
                            .map(|(c, _)| value(c)),
                    );
                }
            }
            out
        }
    })
}

/// Decode a plain chunk; under `keep` (one flag per row) only the selected
/// rows, with exactly the validation of the full decode.
pub(crate) fn decode_kept(
    r: &mut Reader<'_>,
    ty: DataType,
    num_rows: usize,
    keep: Option<&[bool]>,
) -> Result<ColumnData> {
    Ok(match ty {
        DataType::Boolean => {
            let bytes = r.get_raw(num_rows.div_ceil(8))?;
            let all = bitpack::unpack_bools(bytes, num_rows);
            ColumnData::Boolean(match keep {
                None => all,
                Some(keep) => (all.iter().zip(keep))
                    .filter(|(_, &k)| k)
                    .map(|(&b, _)| b)
                    .collect(),
            })
        }
        DataType::Int32 => ColumnData::Int32(read_fixed(r, num_rows, keep, i32::from_le_bytes)?),
        DataType::Date => ColumnData::Date(read_fixed(r, num_rows, keep, i32::from_le_bytes)?),
        DataType::Int64 => ColumnData::Int64(read_fixed(r, num_rows, keep, i64::from_le_bytes)?),
        DataType::Timestamp => {
            ColumnData::Timestamp(read_fixed(r, num_rows, keep, i64::from_le_bytes)?)
        }
        DataType::Float64 => {
            ColumnData::Float64(read_fixed(r, num_rows, keep, f64::from_le_bytes)?)
        }
        DataType::Utf8 => ColumnData::Utf8(StrVec::from_pool(read_pool(r, num_rows, keep)?)),
    })
}

pub fn decode(r: &mut Reader<'_>, ty: DataType, num_rows: usize) -> Result<ColumnData> {
    decode_kept(r, ty, num_rows, None)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(data: ColumnData) {
        let n = data.len();
        let ty = data.data_type();
        let mut w = Writer::new();
        encode(&data, &mut w);
        let bytes = w.into_bytes();
        let decoded = decode(&mut Reader::new(&bytes), ty, n).unwrap();
        assert_eq!(decoded, data);
    }

    #[test]
    fn roundtrips_every_type() {
        roundtrip(ColumnData::Boolean(vec![true, false, true, true, false]));
        roundtrip(ColumnData::Int32(vec![-1, 0, i32::MAX]));
        roundtrip(ColumnData::Int64(vec![i64::MIN, 7]));
        roundtrip(ColumnData::Float64(vec![0.5, -2.25, f64::MAX]));
        roundtrip(ColumnData::Utf8(["", "abc", "日本"].iter().collect()));
        roundtrip(ColumnData::Date(vec![0, 19000]));
        roundtrip(ColumnData::Timestamp(vec![1_700_000_000_000]));
    }

    #[test]
    fn empty_columns() {
        roundtrip(ColumnData::Int32(vec![]));
        roundtrip(ColumnData::Utf8(StrVec::default()));
        roundtrip(ColumnData::Boolean(vec![]));
    }

    #[test]
    fn truncated_input_errors() {
        let mut w = Writer::new();
        encode(&ColumnData::Int64(vec![1, 2, 3]), &mut w);
        let bytes = w.into_bytes();
        let res = decode(&mut Reader::new(&bytes[..10]), DataType::Int64, 3);
        assert!(res.is_err());
    }

    #[test]
    fn oversized_row_counts_are_errors_before_any_allocation() {
        // A row count from a corrupt footer: far more values than the input
        // holds, and one whose byte length does not fit a usize.
        for ty in [DataType::Int32, DataType::Float64, DataType::Timestamp] {
            for n in [1 << 40, usize::MAX] {
                let err = decode(&mut Reader::new(&[0u8; 64]), ty, n).unwrap_err();
                assert!(matches!(err, Error::Storage(_)), "{ty} x {n}: {err}");
            }
        }
    }
}
