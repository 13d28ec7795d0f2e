//! Encoded column chunks as first-class values.
//!
//! The classic read path ([`crate::reader::PixelsReader::read_row_group`])
//! decodes every fetched chunk eagerly. Encoded execution instead keeps the
//! raw chunk bytes around as an [`EncodedChunk`] and lets the engine decide
//! per chunk how much to decode:
//!
//! - [`EncodedChunk::decode`] — the full decode, byte-identical to the
//!   classic path (it runs the very same [`crate::encoding::decode`]). A
//!   dictionary chunk decodes to *pool = its dictionary, indices = its
//!   codes*, so it is also the dictionary view: a predicate or MIN/MAX can
//!   run once per pool entry, and no row's string is copied.
//! - [`EncodedChunk::decode_filtered`] — materialize only selected rows. A
//!   dictionary chunk keeps the selected codes over the shared dictionary; a
//!   plain chunk reads only the selected rows out of the payload, so a
//!   one-row result neither decodes the chunk nor holds its strings alive.
//! - [`EncodedChunk::rle_runs`] — run headers + one value per run, so
//!   COUNT/SUM/MIN/MAX can fold runs without expanding them.
//!
//! Every view validates exactly what the full decode validates (run counts,
//! dictionary widths and codes, UTF-8 of every string), with identical error
//! text, so switching the execution path never changes which corrupt files
//! are detected.

use bytes::Bytes;
use pixels_common::{Column, ColumnData, DataType, Error, Result};

use crate::codec::Reader as ByteReader;
use crate::encoding::{self, bitpack, plain, Encoding};

/// One fetched-but-not-decoded column chunk.
#[derive(Debug, Clone)]
pub struct EncodedChunk {
    ty: DataType,
    encoding: Encoding,
    num_rows: usize,
    validity: Option<Vec<bool>>,
    /// Encoded payload, after the validity header.
    payload: Bytes,
}

/// An RLE chunk split into runs: `counts[i]` repetitions of `values[i]`.
/// Counts are validated to be nonzero and to sum to the chunk's row count.
#[derive(Debug)]
pub struct RleRuns {
    pub counts: Vec<u32>,
    /// One entry per run (f64 values are bit-exact).
    pub values: ColumnData,
}

impl EncodedChunk {
    /// Parse the chunk header (validity) of a fetched chunk, keeping the
    /// payload encoded.
    pub fn parse(chunk: Bytes, ty: DataType, encoding: Encoding, num_rows: usize) -> Result<Self> {
        let mut r = ByteReader::new(&chunk);
        let has_validity = r.get_u8()? == 1;
        let validity = if has_validity {
            let bytes = r.get_raw(num_rows.div_ceil(8))?;
            Some(bitpack::unpack_bools(bytes, num_rows))
        } else {
            None
        };
        let consumed = chunk.len() - r.remaining();
        Ok(EncodedChunk {
            ty,
            encoding,
            num_rows,
            validity,
            payload: chunk.slice(consumed..),
        })
    }

    pub fn data_type(&self) -> DataType {
        self.ty
    }

    pub fn encoding(&self) -> Encoding {
        self.encoding
    }

    pub fn num_rows(&self) -> usize {
        self.num_rows
    }

    /// Per-row validity, `None` when every row is valid.
    pub fn validity(&self) -> Option<&[bool]> {
        self.validity.as_deref()
    }

    pub fn null_count(&self) -> usize {
        match &self.validity {
            Some(v) => v.iter().filter(|&&b| !b).count(),
            None => 0,
        }
    }

    /// Number of non-null rows, without decoding the payload.
    pub fn count_valid(&self) -> usize {
        self.num_rows - self.null_count()
    }

    /// Fully decode the chunk. Byte-identical to the classic read path.
    pub fn decode(&self) -> Result<Column> {
        let mut r = ByteReader::new(&self.payload);
        let data = encoding::decode(&mut r, self.encoding, self.ty, self.num_rows)?;
        if data.len() != self.num_rows {
            return Err(Error::Storage(format!(
                "chunk decoded {} rows, expected {}",
                data.len(),
                self.num_rows
            )));
        }
        Column::with_validity(data, self.validity.clone())
    }

    /// Decode only the rows selected by `mask` (length = chunk rows).
    /// Equal to `decode()?.filter(mask)`, with the same validation, but RLE
    /// runs are never expanded for rejected rows and a plain chunk reads
    /// only the selected rows out of its payload.
    pub fn decode_filtered(&self, mask: &[bool]) -> Result<Column> {
        self.check_mask(mask)?;
        match self.encoding {
            // Only the selected rows are read out of the payload (for
            // strings: copied into the pool).
            Encoding::Plain => {
                let mut r = ByteReader::new(&self.payload);
                let data = plain::decode_kept(&mut r, self.ty, self.num_rows, Some(mask))?;
                Column::with_validity(data, self.kept_validity(Some(mask)))
            }
            Encoding::Dictionary => self.decode()?.filter(mask),
            Encoding::Rle => self.expand_runs(&self.rle_runs()?, Some(mask)),
        }
    }

    /// The rows of this RLE chunk from `runs`, its already parsed
    /// [`EncodedChunk::rle_runs`]: all of them, equal to
    /// [`EncodedChunk::decode`], or those `mask` keeps, equal to
    /// [`EncodedChunk::decode_filtered`]. A caller that read the runs to
    /// filter on them expands them without parsing the payload again.
    pub fn expand_runs(&self, runs: &RleRuns, mask: Option<&[bool]>) -> Result<Column> {
        if let Some(mask) = mask {
            self.check_mask(mask)?;
        }
        if runs.counts.iter().map(|&c| c as usize).sum::<usize>() != self.num_rows {
            return Err(Error::Storage(format!(
                "RLE runs do not cover the chunk's {} rows",
                self.num_rows
            )));
        }
        fn expand<T: Copy>(counts: &[u32], values: &[T], mask: Option<&[bool]>) -> Vec<T> {
            let Some(mask) = mask else {
                let mut out = Vec::with_capacity(counts.iter().map(|&c| c as usize).sum());
                for (&count, &v) in counts.iter().zip(values) {
                    out.extend(std::iter::repeat_n(v, count as usize));
                }
                return out;
            };
            // Each kept row takes the value of the run it falls in. The run
            // cursor only moves forward, so the walk costs O(runs + kept
            // rows), with no count per run: the mask is read as 32-row words
            // of bits, a word is walked by its set bits, and a word that
            // keeps every row is copied a run at a time.
            const BLOCK: usize = 32;
            let mut out = Vec::with_capacity(mask.iter().filter(|&&m| m).count());
            let mut run = 0usize;
            let mut end = counts.first().map_or(0, |&c| c as usize);
            let mut seek = |row: usize| {
                while row >= end {
                    run += 1;
                    end += counts[run] as usize;
                }
                (run, end)
            };
            for (start, block) in (0..).step_by(BLOCK).zip(mask.chunks(BLOCK)) {
                let mut bits = mask_bits(block);
                if bits.count_ones() as usize == block.len() {
                    let stop = start + block.len();
                    let mut row = start;
                    while row < stop {
                        let (run, end) = seek(row);
                        let upto = end.min(stop);
                        out.extend(std::iter::repeat_n(values[run], upto - row));
                        row = upto;
                    }
                    continue;
                }
                while bits != 0 {
                    let row = start + bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    out.push(values[seek(row).0]);
                }
            }
            out
        }
        let c = &runs.counts;
        let data = match &runs.values {
            ColumnData::Boolean(v) => ColumnData::Boolean(expand(c, v, mask)),
            ColumnData::Int32(v) => ColumnData::Int32(expand(c, v, mask)),
            ColumnData::Date(v) => ColumnData::Date(expand(c, v, mask)),
            ColumnData::Int64(v) => ColumnData::Int64(expand(c, v, mask)),
            ColumnData::Timestamp(v) => ColumnData::Timestamp(expand(c, v, mask)),
            ColumnData::Float64(v) => ColumnData::Float64(expand(c, v, mask)),
            ColumnData::Utf8(_) => {
                return Err(Error::Storage("RLE does not support strings".into()))
            }
        };
        Column::with_validity(data, self.kept_validity(mask))
    }

    fn check_mask(&self, mask: &[bool]) -> Result<()> {
        if mask.len() != self.num_rows {
            return Err(Error::Storage(format!(
                "filter mask has {} entries for a chunk of {} rows",
                mask.len(),
                self.num_rows
            )));
        }
        Ok(())
    }

    /// The validity of the rows `mask` keeps (all rows without one).
    fn kept_validity(&self, mask: Option<&[bool]>) -> Option<Vec<bool>> {
        let validity = self.validity.as_ref()?;
        Some(match mask {
            None => validity.clone(),
            Some(mask) => (validity.iter().zip(mask))
                .filter(|(_, &keep)| keep)
                .map(|(&b, _)| b)
                .collect(),
        })
    }

    /// Run headers and per-run values of an RLE chunk, validated like the
    /// full decode (nonzero counts summing exactly to the row count).
    pub fn rle_runs(&self) -> Result<RleRuns> {
        if self.encoding != Encoding::Rle {
            return Err(Error::Storage(format!(
                "rle_runs on a {:?}-encoded chunk",
                self.encoding
            )));
        }
        let mut r = ByteReader::new(&self.payload);
        fn parse<T: Copy>(
            r: &mut ByteReader<'_>,
            num_rows: usize,
            get: impl Fn(&mut ByteReader<'_>) -> Result<T>,
        ) -> Result<(Vec<u32>, Vec<T>)> {
            // A run takes its 4-byte count and its value in the input, so
            // the input bounds how many there can be.
            let runs = num_rows.min(r.remaining() / (4 + std::mem::size_of::<T>()));
            let mut counts = Vec::with_capacity(runs);
            let mut values = Vec::with_capacity(runs);
            let mut decoded = 0usize;
            while decoded < num_rows {
                let count = r.get_u32()? as usize;
                if count == 0 || decoded + count > num_rows {
                    return Err(Error::Storage(format!(
                        "corrupt RLE run: count {count} with {decoded} of {num_rows} rows decoded"
                    )));
                }
                values.push(get(r)?);
                counts.push(count as u32);
                decoded += count;
            }
            Ok((counts, values))
        }
        let n = self.num_rows;
        let (counts, values) = match self.ty {
            DataType::Boolean => {
                let (c, v) = parse(&mut r, n, |r| r.get_bool())?;
                (c, ColumnData::Boolean(v))
            }
            DataType::Int32 => {
                let (c, v) = parse(&mut r, n, |r| r.get_i32())?;
                (c, ColumnData::Int32(v))
            }
            DataType::Date => {
                let (c, v) = parse(&mut r, n, |r| r.get_i32())?;
                (c, ColumnData::Date(v))
            }
            DataType::Int64 => {
                let (c, v) = parse(&mut r, n, |r| r.get_i64())?;
                (c, ColumnData::Int64(v))
            }
            DataType::Timestamp => {
                let (c, v) = parse(&mut r, n, |r| r.get_i64())?;
                (c, ColumnData::Timestamp(v))
            }
            DataType::Float64 => {
                let (c, bits) = parse(&mut r, n, |r| r.get_u64())?;
                (
                    c,
                    ColumnData::Float64(bits.into_iter().map(f64::from_bits).collect()),
                )
            }
            DataType::Utf8 => {
                return Err(Error::Storage("RLE does not support strings".into()));
            }
        };
        Ok(RleRuns { counts, values })
    }
}

/// Up to 32 flags as the bits of a word, flag `i` at bit `i`: eight at a
/// time, by the multiply that gathers the low bit of each of eight bytes
/// into the top byte.
fn mask_bits(flags: &[bool]) -> u32 {
    let mut bits = 0u32;
    for (i, eight) in flags.chunks(8).enumerate() {
        let mut bytes = [0u8; 8];
        for (b, &f) in bytes.iter_mut().zip(eight) {
            *b = u8::from(f);
        }
        let packed = u64::from_le_bytes(bytes).wrapping_mul(0x0102_0408_1020_4080) >> 56;
        bits |= (packed as u32) << (8 * i);
    }
    bits
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::Writer;

    fn encode_chunk(data: &ColumnData, validity: Option<&[bool]>, encoding: Encoding) -> Bytes {
        // Mirrors the writer's chunk layout: validity header + payload.
        let mut w = Writer::new();
        match validity {
            Some(v) => {
                w.put_u8(1);
                w.put_raw(&bitpack::pack_bools(v));
            }
            None => w.put_u8(0),
        }
        encoding::encode(data, encoding, &mut w).unwrap();
        Bytes::from(w.into_bytes())
    }

    fn utf8(values: &[&str]) -> ColumnData {
        ColumnData::Utf8(values.iter().collect())
    }

    #[test]
    fn decode_matches_classic_path() {
        let data = ColumnData::Int64(vec![3, 3, 3, 9, 9, 1, 1, 1]);
        let raw = encode_chunk(&data, None, Encoding::Rle);
        let chunk = EncodedChunk::parse(raw, DataType::Int64, Encoding::Rle, 8).unwrap();
        assert_eq!(chunk.decode().unwrap(), Column::new(data));
        assert_eq!(chunk.count_valid(), 8);
    }

    #[test]
    fn validity_parsed_and_preserved() {
        let data = utf8(&["a", "b", "a", "c"]);
        let validity = [true, false, true, true];
        let raw = encode_chunk(&data, Some(&validity), Encoding::Plain);
        let chunk = EncodedChunk::parse(raw, DataType::Utf8, Encoding::Plain, 4).unwrap();
        assert_eq!(chunk.validity().unwrap(), &validity);
        assert_eq!(chunk.null_count(), 1);
        assert_eq!(chunk.count_valid(), 3);
        let col = chunk.decode().unwrap();
        assert_eq!(col.null_count(), 1);
    }

    #[test]
    fn decode_filtered_equals_decode_then_filter() {
        // Every fixed-width type, plain and RLE, with and without NULLs, at
        // 0 %, 1 %, 3 %, 50 %, 97 %, 99 % and 100 % of the rows kept; also
        // runs of one row, and a run across 32-row block boundaries.
        let n = 300usize;
        let run = |i: usize| (i / 7) as i64 - 20;
        let columns = [
            ColumnData::Boolean((0..n).map(|i| run(i) % 2 == 0).collect()),
            ColumnData::Int32((0..n).map(|i| run(i) as i32 * 3).collect()),
            ColumnData::Date((0..n).map(|i| 9000 + run(i) as i32).collect()),
            ColumnData::Int64((0..n).map(|i| run(i) << 40).collect()),
            ColumnData::Timestamp((0..n).map(|i| -run(i)).collect()),
            ColumnData::Float64(
                (0..n)
                    .map(|i| [-0.0, f64::NAN, 1.5][run(i) as usize % 3])
                    .collect(),
            ),
            ColumnData::Int64((0..n).map(|i| i as i64 * 5 - 700).collect()),
            ColumnData::Int32(
                (0..n)
                    .map(|i| if (20..90).contains(&i) { 7 } else { i as i32 })
                    .collect(),
            ),
        ];
        let validity: Vec<bool> = (0..n).map(|i| i % 5 != 2).collect();
        let masks = [
            vec![false; n],
            (0..n).map(|i| i % 100 == 42).collect(),
            (0..n).map(|i| i % 33 == 5).collect(),
            (0..n).map(|i| i % 2 == 0).collect(),
            (0..n).map(|i| i % 33 != 5).collect(),
            (0..n).map(|i| i % 100 != 42).collect(),
            vec![true; n],
        ];
        for data in &columns {
            for encoding in [Encoding::Plain, Encoding::Rle] {
                for validity in [None, Some(validity.as_slice())] {
                    let raw = encode_chunk(data, validity, encoding);
                    let chunk = EncodedChunk::parse(raw, data.data_type(), encoding, n).unwrap();
                    let what = format!("{} {encoding:?}", data.data_type());
                    let same = |direct: Column, oracle: Column| {
                        assert_eq!(direct.validity(), oracle.validity(), "{what}");
                        // Floats by bit pattern: NaN is not equal to itself.
                        match (direct.data(), oracle.data()) {
                            (ColumnData::Float64(a), ColumnData::Float64(b)) => assert_eq!(
                                a.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                                b.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                                "{what}"
                            ),
                            (a, b) => assert_eq!(a, b, "{what}"),
                        }
                    };
                    let runs = (encoding == Encoding::Rle).then(|| chunk.rle_runs().unwrap());
                    if let Some(runs) = &runs {
                        same(
                            chunk.expand_runs(runs, None).unwrap(),
                            chunk.decode().unwrap(),
                        );
                    }
                    for mask in &masks {
                        let oracle = chunk.decode().unwrap().filter(mask).unwrap();
                        same(chunk.decode_filtered(mask).unwrap(), oracle.clone());
                        if let Some(runs) = &runs {
                            same(chunk.expand_runs(runs, Some(mask)).unwrap(), oracle);
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn decode_filtered_dictionary() {
        let data = utf8(&["x", "y", "x", "z", "y", "x", "x", "z"]);
        let raw = encode_chunk(&data, None, Encoding::Dictionary);
        let chunk = EncodedChunk::parse(raw, DataType::Utf8, Encoding::Dictionary, 8).unwrap();
        let mask = [true, false, false, true, true, false, true, false];
        let direct = chunk.decode_filtered(&mask).unwrap();
        let oracle = chunk.decode().unwrap().filter(&mask).unwrap();
        assert_eq!(direct, oracle);
    }

    #[test]
    fn dictionary_chunk_decodes_to_its_dictionary_and_codes() {
        let data = utf8(&["b", "a", "b", "b", "c"]);
        let raw = encode_chunk(&data, None, Encoding::Dictionary);
        let chunk = EncodedChunk::parse(raw, DataType::Utf8, Encoding::Dictionary, 5).unwrap();
        let col = chunk.decode().unwrap();
        let ColumnData::Utf8(v) = col.data() else {
            panic!("wrong type");
        };
        // The pool is the dictionary, in first-appearance order.
        assert_eq!(v.pool().iter().collect::<Vec<_>>(), ["b", "a", "c"]);
        assert_eq!(v.indices(), [0, 1, 0, 0, 2]);
    }

    /// Every way a string chunk can be corrupt, and a fixed-width chunk be
    /// cut short, is the same error, with the same text, from the full decode
    /// and from the filtered one — also when the filter rejects the corrupt
    /// row.
    #[test]
    fn corrupt_string_chunks_fail_alike_on_every_decode_path() {
        let dictionary = |entries: &[&[u8]], width: u8, codes: &[u32]| {
            let mut w = Writer::new();
            w.put_u8(0); // no validity
            w.put_u32(entries.len() as u32);
            for e in entries {
                w.put_bytes(e);
            }
            w.put_u8(width);
            w.put_raw(&bitpack::pack_u32(codes, width.clamp(1, 32)));
            w.into_bytes()
        };
        let plain = |values: &[&[u8]]| {
            let mut w = Writer::new();
            w.put_u8(0);
            for v in values {
                w.put_bytes(v);
            }
            w.into_bytes()
        };
        let truncated = |mut bytes: Vec<u8>, by: usize| {
            bytes.truncate(bytes.len() - by);
            bytes
        };
        let fixed = |bytes: usize| {
            let mut payload = vec![0u8]; // no validity
            payload.resize(1 + bytes, 7);
            payload
        };
        use DataType::{Boolean, Date, Float64, Int32, Int64, Timestamp, Utf8};
        use Encoding::{Dictionary, Plain};
        let cases: Vec<(&str, Vec<u8>, DataType, Encoding, &str)> = vec![
            (
                "invalid UTF-8 in a dictionary entry",
                dictionary(&[b"ok", b"\xff\xfe"], 1, &[0, 1]),
                Utf8,
                Dictionary,
                "storage error: invalid UTF-8 in string",
            ),
            (
                "invalid UTF-8 in a plain value",
                plain(&[b"ok", b"\xc3"]),
                Utf8,
                Plain,
                "storage error: invalid UTF-8 in string",
            ),
            (
                "code past the dictionary",
                dictionary(&[b"a"], 2, &[0, 3]),
                Utf8,
                Dictionary,
                "storage error: dictionary code 3 out of range (1 entries)",
            ),
            (
                "bit width 0",
                dictionary(&[b"a"], 0, &[0, 0]),
                Utf8,
                Dictionary,
                "storage error: corrupt dictionary bit width 0",
            ),
            (
                "bit width 33",
                dictionary(&[b"a"], 33, &[0, 0]),
                Utf8,
                Dictionary,
                "storage error: corrupt dictionary bit width 33",
            ),
            (
                "dictionary cut inside an entry",
                truncated(dictionary(&[b"abcdef"], 1, &[0, 0]), 4),
                Utf8,
                Dictionary,
                "storage error: truncated data: needed 6 bytes, 4 remaining",
            ),
            (
                "codes cut short",
                truncated(dictionary(&[b"a", b"b"], 1, &[0, 1]), 1),
                Utf8,
                Dictionary,
                "storage error: truncated data: needed 1 bytes, 0 remaining",
            ),
            (
                "plain value cut short",
                truncated(plain(&[b"ok", b"abcdef"]), 2),
                Utf8,
                Plain,
                "storage error: truncated data: needed 6 bytes, 4 remaining",
            ),
            (
                "plain 32-bit integers cut short",
                fixed(7),
                Int32,
                Plain,
                "storage error: truncated data: needed 8 bytes, 7 remaining",
            ),
            (
                "plain dates cut short",
                fixed(4),
                Date,
                Plain,
                "storage error: truncated data: needed 8 bytes, 4 remaining",
            ),
            (
                "plain 64-bit integers cut short",
                fixed(15),
                Int64,
                Plain,
                "storage error: truncated data: needed 16 bytes, 15 remaining",
            ),
            (
                "plain timestamps cut to nothing",
                fixed(0),
                Timestamp,
                Plain,
                "storage error: truncated data: needed 16 bytes, 0 remaining",
            ),
            (
                "plain floats cut short",
                fixed(9),
                Float64,
                Plain,
                "storage error: truncated data: needed 16 bytes, 9 remaining",
            ),
            (
                "plain booleans cut to nothing",
                fixed(0),
                Boolean,
                Plain,
                "storage error: truncated data: needed 1 bytes, 0 remaining",
            ),
            (
                "dictionary on a non-string column",
                dictionary(&[b"a"], 1, &[0, 0]),
                Int32,
                Dictionary,
                "storage error: dictionary encoding on non-string column of type INTEGER",
            ),
        ];
        for (what, bytes, ty, encoding, expected) in cases {
            let chunk = EncodedChunk::parse(Bytes::from(bytes), ty, encoding, 2).unwrap();
            for (path, result) in [
                ("decode", chunk.decode()),
                (
                    "decode_filtered, all rows",
                    chunk.decode_filtered(&[true, true]),
                ),
                (
                    "decode_filtered, no row",
                    chunk.decode_filtered(&[false, false]),
                ),
            ] {
                let err = result.expect_err(what).to_string();
                assert_eq!(err, expected, "{what}, {path}");
            }
        }
    }

    #[test]
    fn rle_runs_exposes_runs_and_validates() {
        let data = ColumnData::Int64(vec![4, 4, 4, 9, 1, 1]);
        let raw = encode_chunk(&data, None, Encoding::Rle);
        let chunk = EncodedChunk::parse(raw, DataType::Int64, Encoding::Rle, 6).unwrap();
        let runs = chunk.rle_runs().unwrap();
        assert_eq!(runs.counts, vec![3, 1, 2]);
        assert_eq!(runs.values, ColumnData::Int64(vec![4, 9, 1]));

        // A run overshooting the row count errors like the full decode.
        let mut w = Writer::new();
        w.put_u8(0);
        w.put_u32(5);
        w.put_i64(1);
        let chunk = EncodedChunk::parse(
            Bytes::from(w.into_bytes()),
            DataType::Int64,
            Encoding::Rle,
            3,
        )
        .unwrap();
        assert!(chunk
            .rle_runs()
            .unwrap_err()
            .to_string()
            .contains("corrupt RLE run"));

        // Cut anywhere — inside a count, inside a value, between runs — the
        // runs fail with the full decode's error.
        let raw = encode_chunk(&data, None, Encoding::Rle);
        for cut in [1, 3, 5, 12, 13, 20, 24, 26, 35] {
            let chunk =
                EncodedChunk::parse(raw.slice(..cut), DataType::Int64, Encoding::Rle, 6).unwrap();
            let full = chunk.decode().unwrap_err().to_string();
            assert!(full.contains("truncated data"), "cut at {cut}: {full}");
            assert_eq!(
                chunk.rle_runs().unwrap_err().to_string(),
                full,
                "cut at {cut}"
            );
            let filtered = chunk.decode_filtered(&[true; 6]).unwrap_err().to_string();
            assert_eq!(filtered, full, "cut at {cut}");
        }
    }

    #[test]
    fn float_runs_are_bit_exact() {
        let data = ColumnData::Float64(vec![-0.0, -0.0, f64::NAN, f64::NAN, 1.5]);
        let raw = encode_chunk(&data, None, Encoding::Rle);
        let chunk = EncodedChunk::parse(raw, DataType::Float64, Encoding::Rle, 5).unwrap();
        let runs = chunk.rle_runs().unwrap();
        let ColumnData::Float64(values) = &runs.values else {
            panic!("wrong type");
        };
        assert_eq!(values[0].to_bits(), (-0.0f64).to_bits());
        assert!(values[1].is_nan());
        assert_eq!(runs.counts, vec![2, 2, 1]);
    }
}
