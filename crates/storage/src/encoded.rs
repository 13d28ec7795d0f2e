//! Encoded column chunks as first-class values.
//!
//! The classic read path ([`crate::reader::PixelsReader::read_row_group`])
//! decodes every fetched chunk eagerly. Encoded execution instead keeps the
//! chunk around as an [`EncodedChunk`] — its header parsed, its payload
//! still encoded — and lets the engine decide per chunk how much to decode:
//!
//! - [`EncodedChunk::decode`] — the full decode, equal to the classic path.
//! - [`EncodedChunk::decode_filtered`] — only the rows a [`Selection`]
//!   keeps, gathered word by word: a run of words that keep all their rows
//!   is one contiguous copy, any other word is walked by its set bits. A
//!   plain chunk reads the kept rows straight out of its payload (a string
//!   chunk copies only their bytes, so a one-row result neither decodes the
//!   chunk nor holds its strings alive), a dictionary chunk keeps the kept
//!   codes over the shared dictionary, and an RLE chunk expands only the
//!   runs the kept rows fall in.
//! - [`EncodedChunk::dictionary`] — a dictionary chunk decoded to *pool =
//!   its dictionary, indices = its codes*, so a predicate or MIN/MAX can run
//!   once per pool entry, and no row's string is copied.
//! - [`EncodedChunk::plain_fixed`] — a plain fixed-width chunk's payload as
//!   little-endian values in place, for a scan to compare without decoding.
//! - [`EncodedChunk::rle_runs`] — run headers + one value per run, so
//!   filters and COUNT/SUM/MIN/MAX can work per run without expanding.
//! - [`EncodedChunk::validity`] — the validity header as the [`Selection`]
//!   of the non-NULL rows, parsed once with the chunk.
//!
//! A chunk parses its dictionary or its runs at most once: both are kept in
//! the chunk's memo, which every clone of the chunk shares — the chunk cache
//! ([`crate::ChunkCache`]) holds parsed chunks, so a memo filled by one query
//! is borrowed by every later one. Only a successful parse fills the memo;
//! a failed one leaves it empty, so every read of a corrupt chunk fails
//! alike. Plain chunks have nothing to memoize: they are compared and
//! gathered in place.
//!
//! Every view validates exactly what the full decode validates (run counts,
//! dictionary widths and every code, UTF-8 of every string, the payload's
//! length), with identical error text, also for rows a selection does not
//! keep — so switching the execution path never changes which corrupt files
//! are detected. A chunk header's validity flag is 0 (no bitmap) or 1 (a
//! bitmap follows); any other byte is a corrupt chunk, never a payload read
//! one byte off.

use bytes::Bytes;
use pixels_common::{Column, ColumnData, DataType, Error, Result, Selection};
use std::mem::size_of_val;
use std::sync::{Arc, OnceLock};

use crate::codec::Reader as ByteReader;
use crate::encoding::{self, plain, rle, Encoding};
use crate::meta_cache::CachedAt;

/// One fetched-but-not-decoded column chunk. Cloning it shares the payload
/// and the memo.
#[derive(Debug, Clone)]
pub struct EncodedChunk(Arc<Parsed>);

#[derive(Debug)]
struct Parsed {
    ty: DataType,
    encoding: Encoding,
    num_rows: usize,
    /// The non-NULL rows; `None` when the chunk has no validity bitmap.
    validity: Option<Selection>,
    /// Encoded payload, after the validity header.
    payload: Bytes,
    /// Bytes of the chunk as fetched: header and payload.
    fetched_len: usize,
    memo: Memo,
    /// The cache entry that holds this chunk, once admitted to a cache: told
    /// when a memo slot fills, so the cache's budget counts the memo's bytes.
    cached: OnceLock<CachedAt>,
}

/// What parsing the payload found, kept for every later read of the chunk.
#[derive(Debug, Default)]
struct Memo {
    /// A dictionary chunk's [`EncodedChunk::dictionary`].
    dictionary: OnceLock<Column>,
    /// An RLE chunk's [`EncodedChunk::rle_runs`].
    runs: OnceLock<RleRuns>,
}

/// An RLE chunk split into runs: `counts[i]` repetitions of `values[i]`.
/// Counts are validated to be nonzero and to sum to the chunk's row count.
#[derive(Debug)]
pub struct RleRuns {
    pub counts: Vec<u32>,
    /// One entry per run (f64 values are bit-exact).
    pub values: ColumnData,
}

/// Heap bytes of a payload's values.
fn data_bytes(data: &ColumnData) -> usize {
    match data {
        ColumnData::Boolean(v) => size_of_val(v.as_slice()),
        ColumnData::Int32(v) | ColumnData::Date(v) => size_of_val(v.as_slice()),
        ColumnData::Int64(v) | ColumnData::Timestamp(v) => size_of_val(v.as_slice()),
        ColumnData::Float64(v) => size_of_val(v.as_slice()),
        ColumnData::Utf8(v) => v.pool().byte_len() + 4 * v.pool().len() + size_of_val(v.indices()),
    }
}

impl EncodedChunk {
    /// Parse the chunk header (validity) of a fetched chunk, keeping the
    /// payload encoded.
    pub fn parse(chunk: Bytes, ty: DataType, encoding: Encoding, num_rows: usize) -> Result<Self> {
        let mut r = ByteReader::new(&chunk);
        let validity = match r.get_u8()? {
            0 => None,
            1 => Some(Selection::from_bitmap(
                r.get_raw(num_rows.div_ceil(8))?,
                num_rows,
            )),
            flag => {
                return Err(Error::Storage(format!(
                    "corrupt validity flag {flag} in a chunk header"
                )))
            }
        };
        let consumed = chunk.len() - r.remaining();
        Ok(EncodedChunk(Arc::new(Parsed {
            ty,
            encoding,
            num_rows,
            validity,
            payload: chunk.slice(consumed..),
            fetched_len: chunk.len(),
            memo: Memo::default(),
            cached: OnceLock::new(),
        })))
    }

    pub fn data_type(&self) -> DataType {
        self.0.ty
    }

    pub fn encoding(&self) -> Encoding {
        self.0.encoding
    }

    pub fn num_rows(&self) -> usize {
        self.0.num_rows
    }

    /// The non-NULL rows, `None` when every row is valid.
    pub fn validity(&self) -> Option<&Selection> {
        self.0.validity.as_ref()
    }

    pub fn null_count(&self) -> usize {
        self.validity()
            .map_or(0, |valid| self.0.num_rows - valid.count())
    }

    /// Number of non-null rows, without decoding the payload.
    pub fn count_valid(&self) -> usize {
        self.0.num_rows - self.null_count()
    }

    /// Bytes this chunk holds: as fetched, its parsed validity, and what its
    /// memo holds so far. What a [`crate::ChunkCache`] entry costs.
    pub fn resident_bytes(&self) -> u64 {
        let memo = &self.0.memo;
        let words = |v: Option<&Selection>| v.map_or(0, |v| v.len().div_ceil(64) * 8);
        let validity = words(self.validity());
        let dictionary =
            (memo.dictionary.get()).map_or(0, |col| data_bytes(col.data()) + words(col.validity()));
        let runs = memo.runs.get().map_or(0, |runs| {
            size_of_val(runs.counts.as_slice()) + data_bytes(&runs.values)
        });
        (self.0.fetched_len + validity + dictionary + runs) as u64
    }

    /// Whether the memo already holds what reading this chunk parses: the
    /// dictionary of a dictionary chunk, the runs of an RLE chunk. Never for
    /// a plain chunk, which has nothing to memoize.
    pub fn memo_filled(&self) -> bool {
        match self.0.encoding {
            Encoding::Plain => false,
            Encoding::Dictionary => self.0.memo.dictionary.get().is_some(),
            Encoding::Rle => self.0.memo.runs.get().is_some(),
        }
    }

    /// Record the cache entry that holds this chunk. False when a cache
    /// holds it already: a chunk belongs to one entry at most.
    pub(crate) fn cache_at(&self, at: CachedAt) -> bool {
        self.0.cached.set(at).is_ok()
    }

    /// Whether `self` and `other` are clones of one parsed chunk.
    pub(crate) fn same(&self, other: &EncodedChunk) -> bool {
        Arc::ptr_eq(&self.0, &other.0)
    }

    /// The memo's `slot`, built by `build` if empty. Two threads may both
    /// build it; the first to finish fills the slot and both read that. An
    /// error leaves the slot empty.
    fn memoized<'a, T>(
        &'a self,
        slot: &'a OnceLock<T>,
        build: impl FnOnce() -> Result<T>,
    ) -> Result<&'a T> {
        if let Some(value) = slot.get() {
            return Ok(value);
        }
        if slot.set(build()?).is_ok() {
            if let Some(at) = self.0.cached.get() {
                at.remeasure(self);
            }
        }
        Ok(slot.get().expect("the slot was just filled"))
    }

    /// Fully decode the chunk. Equal to the classic read path.
    pub fn decode(&self) -> Result<Column> {
        match self.0.encoding {
            Encoding::Plain => self.decode_payload(),
            Encoding::Dictionary => self.dictionary().cloned(),
            Encoding::Rle => self.expand_runs(self.rle_runs()?, &Selection::all(self.0.num_rows)),
        }
    }

    /// The payload decoded whole by its encoding's one parser.
    fn decode_payload(&self) -> Result<Column> {
        let p = &self.0;
        let mut r = ByteReader::new(&p.payload);
        let data = encoding::decode(&mut r, p.encoding, p.ty, p.num_rows)?;
        if data.len() != p.num_rows {
            return Err(Error::Storage(format!(
                "chunk decoded {} rows, expected {}",
                data.len(),
                p.num_rows
            )));
        }
        Column::with_validity(data, p.validity.clone())
    }

    /// Decode only the rows `selection` keeps. Equal to
    /// `decode()?.select(selection)`, with the same validation — of every
    /// row, kept or not.
    pub fn decode_filtered(&self, selection: &Selection) -> Result<Column> {
        if selection.len() != self.0.num_rows {
            return Err(Error::Storage(format!(
                "a selection of {} rows for a chunk of {} rows",
                selection.len(),
                self.0.num_rows
            )));
        }
        match self.0.encoding {
            Encoding::Plain => {
                let mut r = ByteReader::new(&self.0.payload);
                let data = plain::decode_kept(&mut r, self.0.ty, self.0.num_rows, Some(selection))?;
                Column::with_validity(data, self.kept_validity(selection))
            }
            // The dictionary plus every code, each checked; the kept rows
            // are its kept codes.
            Encoding::Dictionary => self.dictionary()?.select(selection),
            Encoding::Rle => self.expand_runs(self.rle_runs()?, selection),
        }
    }

    /// The rows `selection` keeps of this RLE chunk, from its `runs`.
    ///
    /// The walk costs O(runs + kept rows): a run cursor that only moves
    /// forward gives each kept row the value of the run it falls in, and a
    /// range of whole words is copied a run at a time.
    fn expand_runs(&self, runs: &RleRuns, selection: &Selection) -> Result<Column> {
        fn expand<T: Copy>(counts: &[u32], values: &[T], selection: &Selection) -> Vec<T> {
            let mut out = Vec::with_capacity(selection.count());
            let (mut run, mut end) = (0usize, counts.first().map_or(0, |&c| c as usize));
            selection.for_each_range(|rows| {
                let mut row = rows.start;
                while row < rows.end {
                    while row >= end {
                        run += 1;
                        end += counts[run] as usize;
                    }
                    let upto = end.min(rows.end);
                    out.extend(std::iter::repeat_n(values[run], upto - row));
                    row = upto;
                }
            });
            out
        }
        let (c, s) = (&runs.counts, selection);
        let data = match &runs.values {
            ColumnData::Boolean(v) => ColumnData::Boolean(expand(c, v, s)),
            ColumnData::Int32(v) => ColumnData::Int32(expand(c, v, s)),
            ColumnData::Date(v) => ColumnData::Date(expand(c, v, s)),
            ColumnData::Int64(v) => ColumnData::Int64(expand(c, v, s)),
            ColumnData::Timestamp(v) => ColumnData::Timestamp(expand(c, v, s)),
            ColumnData::Float64(v) => ColumnData::Float64(expand(c, v, s)),
            ColumnData::Utf8(_) => {
                return Err(Error::Storage("RLE does not support strings".into()))
            }
        };
        Column::with_validity(data, self.kept_validity(selection))
    }

    /// The validity of the rows `selection` keeps.
    fn kept_validity(&self, selection: &Selection) -> Option<Selection> {
        Some(self.validity()?.select(selection))
    }

    /// A plain chunk's payload as its `num_rows` little-endian values of `W`
    /// bytes, in place, after the full decode's bounds check (same error).
    /// `None` for another encoding, and for a type that is not `W` bytes wide
    /// (Int32 and Date are 4, Int64, Timestamp and Float64 8; Boolean and
    /// Utf8 are neither).
    pub fn plain_fixed<const W: usize>(&self) -> Result<Option<&[[u8; W]]>> {
        let width = match self.0.ty {
            DataType::Int32 | DataType::Date => 4,
            DataType::Int64 | DataType::Timestamp | DataType::Float64 => 8,
            DataType::Boolean | DataType::Utf8 => 0,
        };
        if self.0.encoding != Encoding::Plain || width != W {
            return Ok(None);
        }
        plain::fixed_values::<W>(&mut ByteReader::new(&self.0.payload), self.0.num_rows).map(Some)
    }

    /// A dictionary chunk decoded: pool = its dictionary, indices = its
    /// codes, each checked against it. Parsed on the first read of any
    /// holder of the chunk, then borrowed from the memo.
    pub fn dictionary(&self) -> Result<&Column> {
        if self.0.encoding != Encoding::Dictionary {
            return Err(Error::Storage(format!(
                "dictionary on a {:?}-encoded chunk",
                self.0.encoding
            )));
        }
        self.memoized(&self.0.memo.dictionary, || self.decode_payload())
    }

    /// Run headers and per-run values of an RLE chunk, validated like the
    /// full decode (nonzero counts summing exactly to the row count).
    /// Parsed on the first read of any holder of the chunk, then borrowed
    /// from the memo.
    pub fn rle_runs(&self) -> Result<&RleRuns> {
        if self.0.encoding != Encoding::Rle {
            return Err(Error::Storage(format!(
                "rle_runs on a {:?}-encoded chunk",
                self.0.encoding
            )));
        }
        self.memoized(&self.0.memo.runs, || self.parse_runs())
    }

    fn parse_runs(&self) -> Result<RleRuns> {
        let mut r = ByteReader::new(&self.0.payload);
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
            rle::for_each_run(r, num_rows, get, |count, v| {
                counts.push(count as u32);
                values.push(v);
            })?;
            Ok((counts, values))
        }
        let n = self.0.num_rows;
        let (counts, values) = match self.0.ty {
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::Writer;
    use crate::encoding::bitpack;
    use pixels_common::Value;

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

    /// Equal columns, floats by bit pattern (NaN is not equal to itself).
    fn assert_same(direct: &Column, oracle: &Column, what: &str) {
        assert_eq!(direct.validity(), oracle.validity(), "{what}");
        match (direct.data(), oracle.data()) {
            (ColumnData::Float64(a), ColumnData::Float64(b)) => assert_eq!(
                a.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                b.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                "{what}"
            ),
            (a, b) => assert_eq!(a, b, "{what}"),
        }
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
        assert_eq!(
            chunk.validity(),
            Some(&Selection::from_fn(4, |row| row != 1))
        );
        assert_eq!(chunk.null_count(), 1);
        assert_eq!(chunk.count_valid(), 3);
        let col = chunk.decode().unwrap();
        assert_eq!(col.null_count(), 1);
    }

    /// Equal validity, and equal values in the valid rows, floats by bit
    /// pattern: what a NULL row's payload slot holds is not compared.
    fn assert_same_rows(direct: &Column, oracle: &Column, what: &str) {
        assert_eq!(direct.validity(), oracle.validity(), "{what}");
        assert_eq!(direct.len(), oracle.len(), "{what}");
        let key = |v: Value| match v {
            Value::Float64(f) => format!("{:x}", f.to_bits()),
            v => format!("{v:?}"),
        };
        for row in 0..oracle.len() {
            assert_eq!(
                key(direct.value(row)),
                key(oracle.value(row)),
                "{what}, row {row}"
            );
        }
    }

    /// Every selection gather — `decode_filtered` of a plain, RLE or
    /// dictionary chunk, the last two from their memoized runs and
    /// dictionary — equals the kept rows of the full decode built value by
    /// value: every type, with and without NULLs,
    /// NaN and `-0.0` among the floats, at 0, 1, 3, 50, 97, 99 and 100 % of
    /// the rows kept, over lengths around a word, lineitem's last row group
    /// (870 rows) and a full one (4,096); RLE runs of one or a few rows,
    /// runs across word boundaries, and runs spanning whole words.
    #[test]
    fn every_selection_gather_equals_decode_then_filter() {
        // Mostly runs of one or two rows, one of five (rows 1..5) — short
        // runs that end inside words.
        let run = |i: usize| (i / (1 + i % 6 / 2)) as i64 - 20;
        let columns = |n: usize| {
            vec![
                ColumnData::Boolean((0..n).map(|i| run(i) % 2 == 0).collect()),
                ColumnData::Int32((0..n).map(|i| run(i) as i32 * 3).collect()),
                ColumnData::Date((0..n).map(|i| 9000 + run(i) as i32).collect()),
                ColumnData::Int64((0..n).map(|i| run(i) << 40).collect()),
                ColumnData::Timestamp((0..n).map(|i| -run(i)).collect()),
                // One 70-row run (rows 20..90) across the first word boundary,
                // between runs of one row.
                ColumnData::Int32(
                    (0..n)
                        .map(|i| if (20..90).contains(&i) { 7 } else { i as i32 })
                        .collect(),
                ),
                // Runs of 150 rows: each covers whole words and starts and
                // ends inside others.
                ColumnData::Int64((0..n).map(|i| (i / 150) as i64).collect()),
                // Runs of 7 rows, some across word boundaries (rows 63..70).
                ColumnData::Date((0..n).map(|i| (i / 7) as i32).collect()),
                ColumnData::Float64(
                    (0..n)
                        .map(|i| [-0.0, f64::NAN, 1.5, 0.0][run(i).unsigned_abs() as usize % 4])
                        .collect(),
                ),
                ColumnData::Utf8(
                    (0..n)
                        .map(|i| format!("s{}", run(i).rem_euclid(9)))
                        .collect(),
                ),
            ]
        };
        // A pseudo-random row order, so kept rows neither line up with words
        // nor with runs.
        let scatter = |i: usize| ((i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 40) % 100;
        for n in [1usize, 63, 64, 65, 870, 4096] {
            let validity: Vec<bool> = (0..n).map(|i| i % 5 != 2).collect();
            for data in columns(n) {
                let encodings: &[Encoding] = match data {
                    ColumnData::Utf8(_) => &[Encoding::Plain, Encoding::Dictionary],
                    _ => &[Encoding::Plain, Encoding::Rle],
                };
                for &encoding in encodings {
                    for validity in [None, Some(validity.as_slice())] {
                        let raw = encode_chunk(&data, validity, encoding);
                        let chunk =
                            EncodedChunk::parse(raw, data.data_type(), encoding, n).unwrap();
                        // The payload's own parser is the oracle: `decode` of
                        // an RLE chunk expands its memoized runs instead.
                        let full = chunk.decode_payload().unwrap();
                        assert_same(&chunk.decode().unwrap(), &full, "decode");
                        for percent in [0, 1, 3, 50, 97, 99, 100] {
                            let keep = |i: usize| scatter(i) < percent;
                            let selection = Selection::from_fn(n, keep);
                            let what = format!(
                                "{} {encoding:?} n={n} nulls={} {percent} %",
                                data.data_type(),
                                validity.is_some()
                            );
                            let kept: Vec<Value> =
                                (0..n).filter(|&i| keep(i)).map(|i| full.value(i)).collect();
                            let oracle = Column::from_values(data.data_type(), &kept).unwrap();
                            let direct = chunk.decode_filtered(&selection).unwrap();
                            assert_same_rows(&direct, &oracle, &what);
                            assert_same_rows(&full.select(&selection).unwrap(), &oracle, &what);
                        }
                    }
                }
            }
        }
        let chunk = EncodedChunk::parse(
            encode_chunk(&ColumnData::Int32(vec![1, 2]), None, Encoding::Plain),
            DataType::Int32,
            Encoding::Plain,
            2,
        )
        .unwrap();
        let err = chunk.decode_filtered(&Selection::all(3)).unwrap_err();
        assert_eq!(
            err.to_string(),
            "storage error: a selection of 3 rows for a chunk of 2 rows"
        );
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

    /// `plain_fixed` at the chunk type's own width, as a scan reads it.
    fn plain_fixed_view(chunk: &EncodedChunk) -> Result<()> {
        match chunk.data_type() {
            DataType::Int32 | DataType::Date => chunk.plain_fixed::<4>().map(drop),
            _ => chunk.plain_fixed::<8>().map(drop),
        }
    }

    /// Every way a string chunk can be corrupt, and a fixed-width chunk be
    /// cut short, is the same error, with the same text, on every read, from
    /// the full decode,
    /// from the selection gather — also under a selection that keeps no row,
    /// or not the corrupt one — and, for a fixed-width chunk, from the
    /// in-place view a scan compares.
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
            // Twice: a failed parse leaves the memo empty, so the second
            // round parses again and fails alike.
            for _ in 0..2 {
                let mut paths = vec![
                    ("decode", chunk.decode()),
                    (
                        "decode_filtered, all rows",
                        chunk.decode_filtered(&Selection::all(2)),
                    ),
                    (
                        "decode_filtered, no row",
                        chunk.decode_filtered(&Selection::from_fn(2, |_| false)),
                    ),
                    (
                        "decode_filtered, the first row only",
                        chunk.decode_filtered(&Selection::from_fn(2, |row| row == 0)),
                    ),
                ];
                if encoding == Plain && !matches!(ty, Utf8 | Boolean) {
                    paths.push((
                        "plain_fixed",
                        plain_fixed_view(&chunk).map(|()| Column::nulls(ty, 0)),
                    ));
                }
                for (path, result) in paths {
                    let err = result.expect_err(what).to_string();
                    assert_eq!(err, expected, "{what}, {path}");
                }
            }
            assert!(!chunk.memo_filled(), "{what}");
        }
    }

    /// A validity flag other than 0 or 1 is a corrupt chunk. It used to read
    /// as "no bitmap", and a plain fixed-width chunk then decoded its bitmap
    /// bytes as the first value's, shifting every value by a byte, with no
    /// error: the bitmap bytes make up the payload length it checks.
    #[test]
    fn corrupt_validity_flag_is_an_error_on_every_decode_path() {
        let n = 16;
        let validity: Vec<bool> = (0..n).map(|i| i % 3 != 0).collect();
        let chunks = [
            (ColumnData::Int64((0..n as i64).collect()), Encoding::Plain),
            (ColumnData::Int32(vec![5; n]), Encoding::Rle),
            (
                ColumnData::Utf8((0..n).map(|i| format!("v{}", i % 2)).collect()),
                Encoding::Dictionary,
            ),
            (
                ColumnData::Utf8((0..n).map(|i| format!("v{i}")).collect()),
                Encoding::Plain,
            ),
        ];
        for (data, encoding) in chunks {
            let ty = data.data_type();
            let good = encode_chunk(&data, Some(&validity), encoding);
            let chunk = EncodedChunk::parse(good.clone(), ty, encoding, n).unwrap();
            assert_eq!(chunk.null_count(), 6);
            for flag in [2u8, 0x80, 0xff] {
                let mut bytes = good.to_vec();
                bytes[0] = flag;
                // Parsing is the first step of every decode path: the full
                // decode, the selection gather, the in-place view and the
                // runs all start from a parsed chunk.
                let err = EncodedChunk::parse(Bytes::from(bytes), ty, encoding, n).unwrap_err();
                assert_eq!(
                    err.to_string(),
                    format!("storage error: corrupt validity flag {flag} in a chunk header"),
                    "{ty} {encoding:?}"
                );
            }
        }
    }

    /// A nullable chunk of 65 rows (a 9-byte bitmap) in each encoding, cut
    /// at every length from inside its header through its first payload
    /// bytes: a cut header fails `parse`, and a cut payload fails the full
    /// decode, every selection gather and the encoding's own view with the
    /// error of the payload's parser. Nothing panics.
    #[test]
    fn nullable_chunks_cut_short_fail_alike_on_every_path() {
        let n: usize = 65;
        let validity: Vec<bool> = (0..n).map(|i| i % 4 != 1).collect();
        let chunks = [
            (ColumnData::Int64((0..n as i64).collect()), Encoding::Plain),
            (utf8(&["x"; 65]), Encoding::Plain),
            (
                ColumnData::Int64((0..n as i64).map(|i| i / 5).collect()),
                Encoding::Rle,
            ),
            (
                ColumnData::Utf8((0..n).map(|i| format!("v{}", i % 3)).collect()),
                Encoding::Dictionary,
            ),
        ];
        for (data, encoding) in chunks {
            let ty = data.data_type();
            let raw = encode_chunk(&data, Some(&validity), encoding);
            let header = 1 + n.div_ceil(8);
            assert_eq!(header, 10);
            for cut in 0..(header + 24).min(raw.len()) {
                let what = format!("{ty} {encoding:?} cut at {cut}");
                let parsed = EncodedChunk::parse(raw.slice(..cut), ty, encoding, n);
                if cut < header {
                    let err = parsed.expect_err(&what).to_string();
                    assert!(err.contains("truncated data"), "{what}: {err}");
                    continue;
                }
                let chunk = parsed.expect(&what);
                let expected = chunk.decode_payload().expect_err(&what).to_string();
                let view = match encoding {
                    Encoding::Plain if ty == DataType::Utf8 => chunk.decode().map(drop),
                    Encoding::Plain => chunk.plain_fixed::<8>().map(drop),
                    Encoding::Dictionary => chunk.dictionary().map(drop),
                    Encoding::Rle => chunk.rle_runs().map(drop),
                };
                let mut results = vec![("view", view), ("decode", chunk.decode().map(drop))];
                for keep in [|_| true, |_| false, |row: usize| row % 64 == 63] {
                    let selection = Selection::from_fn(n, keep);
                    results.push((
                        "decode_filtered",
                        chunk.decode_filtered(&selection).map(drop),
                    ));
                }
                for (path, result) in results {
                    assert_eq!(
                        result.expect_err(&what).to_string(),
                        expected,
                        "{what}, {path}"
                    );
                }
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
        // runs, and every decode through them, fail with the error of the
        // payload's own parser, on every read: a failed parse fills no memo.
        let raw = encode_chunk(&data, None, Encoding::Rle);
        for cut in [1, 3, 5, 12, 13, 20, 24, 26, 35] {
            let chunk =
                EncodedChunk::parse(raw.slice(..cut), DataType::Int64, Encoding::Rle, 6).unwrap();
            let full = chunk.decode_payload().unwrap_err().to_string();
            assert!(full.contains("truncated data"), "cut at {cut}: {full}");
            for _ in 0..2 {
                assert_eq!(chunk.decode().unwrap_err().to_string(), full);
                assert_eq!(
                    chunk.rle_runs().unwrap_err().to_string(),
                    full,
                    "cut at {cut}"
                );
                for selection in [Selection::all(6), Selection::from_fn(6, |_| false)] {
                    let filtered = chunk.decode_filtered(&selection).unwrap_err().to_string();
                    assert_eq!(filtered, full, "cut at {cut}");
                }
            }
            assert!(!chunk.memo_filled());
            assert_eq!(chunk.resident_bytes(), cut as u64);
        }
    }

    /// The first read of a dictionary or RLE chunk fills its memo, which
    /// every clone shares; later reads borrow it and answer the same. The
    /// memo's bytes count in the chunk's resident bytes.
    #[test]
    fn memo_fills_once_and_is_shared_by_clones() {
        let strings = utf8(&["b", "a", "b", "b", "c", "a"]);
        let ints = ColumnData::Int32(vec![7, 7, 7, 1, 1, 2]);
        for (data, encoding) in [(strings, Encoding::Dictionary), (ints, Encoding::Rle)] {
            let raw = encode_chunk(&data, None, encoding);
            let fetched = raw.len() as u64;
            let chunk = EncodedChunk::parse(raw, data.data_type(), encoding, 6).unwrap();
            let clone = chunk.clone();
            assert!(!chunk.memo_filled());
            assert_eq!(chunk.resident_bytes(), fetched);
            let first = chunk.decode().unwrap();
            assert!(clone.memo_filled(), "{encoding:?}: the clone sees the memo");
            assert!(clone.resident_bytes() > fetched);
            assert_eq!(clone.decode().unwrap(), first);
            let half = Selection::from_fn(6, |row| row % 2 == 0);
            assert_eq!(
                clone.decode_filtered(&half).unwrap(),
                first.select(&half).unwrap()
            );
            match encoding {
                Encoding::Dictionary => {
                    assert!(std::ptr::eq(
                        chunk.dictionary().unwrap(),
                        clone.dictionary().unwrap()
                    ));
                    assert!(chunk.rle_runs().is_err());
                }
                _ => {
                    assert!(std::ptr::eq(
                        chunk.rle_runs().unwrap(),
                        clone.rle_runs().unwrap()
                    ));
                    assert!(chunk.dictionary().is_err());
                }
            }
        }
        // A plain chunk keeps no memo.
        let raw = encode_chunk(&ColumnData::Int64(vec![1, 2]), None, Encoding::Plain);
        let chunk = EncodedChunk::parse(raw.clone(), DataType::Int64, Encoding::Plain, 2).unwrap();
        chunk.decode().unwrap();
        assert!(!chunk.memo_filled());
        assert_eq!(chunk.resident_bytes(), raw.len() as u64);
    }

    /// Threads that read one chunk's memo at the same time, while it is
    /// still empty, all get what a lone reader gets.
    #[test]
    fn concurrent_memo_builds_agree() {
        let strings = ColumnData::Utf8((0..4096).map(|i| format!("v{}", i % 37)).collect());
        let ints = ColumnData::Int64((0..4096).map(|i| i / 5).collect());
        for (data, encoding) in [(strings, Encoding::Dictionary), (ints, Encoding::Rle)] {
            let raw = encode_chunk(&data, None, encoding);
            let lone = EncodedChunk::parse(raw.clone(), data.data_type(), encoding, 4096)
                .unwrap()
                .decode()
                .unwrap();
            for _ in 0..20 {
                let chunk =
                    EncodedChunk::parse(raw.clone(), data.data_type(), encoding, 4096).unwrap();
                let barrier = std::sync::Barrier::new(4);
                let columns: Vec<Column> = std::thread::scope(|s| {
                    let readers: Vec<_> = (0..4)
                        .map(|_| {
                            s.spawn(|| {
                                barrier.wait();
                                chunk.decode().unwrap()
                            })
                        })
                        .collect();
                    readers.into_iter().map(|r| r.join().unwrap()).collect()
                });
                for col in columns {
                    assert_eq!(col, lone, "{encoding:?}");
                }
                assert!(chunk.memo_filled());
            }
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
