//! Compact key encoding and a raw-index hash table for join/aggregate keys.
//!
//! The row-at-a-time kernels used to key their hash tables on
//! `Vec<Value>`, paying one heap allocation (plus a string clone per text
//! column) and a SipHash pass per input row. This module replaces that with
//! a contiguous byte-row encoding compared by memcmp:
//!
//! ```text
//! [null bitmap: ceil(ncols/8) bytes][col 0][col 1]...
//! col (non-null) = class tag (1 byte) ++ payload
//!   FLOAT     tag 1, f64 bit pattern LE   (Float64, and integers joined with it)
//!   BOOLEAN   tag 2, 1 byte
//!   UTF8      tag 3, u32 LE length ++ bytes
//!   DATE      tag 4, i32 LE
//!   TIMESTAMP tag 5, i64 LE
//!   INTEGER   tag 6, i64 LE               (Int32/Int64 widened)
//! NULL columns contribute only their bitmap bit (no tag, no payload).
//! ```
//!
//! Byte equality of two encodings is [`Value`] tuple equality:
//!
//! - `Value::eq` compares two integers exactly, as `i64`s, and so does
//!   memcmp over INTEGER payloads. It compares an integer with a float after
//!   widening to `f64`, through `f64::total_cmp`, whose equality is bit
//!   equality: a join key pair with a float side is encoded as FLOAT on both
//!   sides ([`KeyEncoder::join`]), which also keeps the `-0.0 != 0.0` and
//!   `NaN == NaN`-same-payload corners.
//! - Every per-column encoding is uniquely decodable (fixed width or
//!   length-prefixed, discriminated by the class tag), so concatenations
//!   are injective and cross-class tuples can never collide byte-wise —
//!   e.g. a `Date` key never aliases a `Timestamp` key even when string
//!   columns shift the layout.
//! - Tuples with different null patterns differ in the bitmap prefix, and
//!   `Null == Null` tuples encode identically (group keys treat NULLs as
//!   equal; joins skip NULL keys before the table is consulted).
//!
//! Keys are encoded a run of rows at a time ([`KeyEncoder::encode`]): one
//! pass per key column sizes the rows, one more writes them, so the column's
//! type is matched once per run instead of once per row. One hash reads the
//! bytes: [`KeyTable`] indexes its buckets with the low bits of
//! [`hash_key`], and the exchange routes a key by the high half
//! ([`partition_of`]).
//!
//! [`Value`]: pixels_common::Value

use pixels_common::{Column, ColumnData, DataType};
use std::ops::Range;

/// Eight bytes of `key` starting at `at`, as a little-endian word.
#[inline]
fn word(key: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(key[at..at + 8].try_into().expect("an 8-byte range"))
}

/// The hash of a key's bytes: the key eight bytes at a time, each word
/// multiplied in and folded, then the 64-bit finaliser of MurmurHash3. The
/// last word is the key's last eight bytes, overlapping the one before it
/// when the length is no multiple of eight (the length is mixed in first, so
/// the overlap costs nothing); a key under eight bytes is one zero-padded
/// word.
///
/// Both halves must depend on every byte of the key: [`KeyTable`] indexes
/// with the low bits and the exchange routes with the high half
/// ([`partition_of`]). A multiply alone only carries bits upward, hence the
/// folds and the finaliser (`consecutive_integer_keys_probe_in_bounded_steps`).
/// Every stage-0 attempt must route a key alike, so this function is part
/// of the spill layout.
#[inline]
pub(crate) fn hash_key(key: &[u8]) -> u64 {
    const K: u64 = 0x9e37_79b9_7f4a_7c15;
    let fold = |h: u64, word: u64| {
        let h = (h ^ word).wrapping_mul(K);
        h ^ (h >> 32)
    };
    let len = key.len();
    let mut h = len as u64;
    if len >= 8 {
        let mut at = 0;
        while at + 8 < len {
            h = fold(h, word(key, at));
            at += 8;
        }
        h = fold(h, word(key, len - 8));
    } else {
        let short = (key.iter().rev()).fold(0, |w, &b| w << 8 | u64::from(b));
        h = fold(h, short);
    }
    h ^= h >> 33;
    h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
    h ^= h >> 33;
    h = h.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    h ^ (h >> 33)
}

/// Which of `partitions` exchange partitions the key with [`hash_key`]
/// `hash` goes to: the high half of the hash scaled to the count. Not the
/// low bits: a stage-1 partition interns its keys into a [`KeyTable`], which
/// indexes buckets by those, and keys routed by them would all share them.
#[inline]
pub(crate) fn partition_of(hash: u64, partitions: usize) -> usize {
    (((hash >> 32) * partitions as u64) >> 32) as usize
}

/// Equality class of a key column, and its tag in the encoding. Values from
/// different classes are never equal under `Value::eq`, except an integer
/// and a float, which [`KeyEncoder::join`] encodes alike. `Integer`, `Date`
/// and `Timestamp` compare as exact integers ([`KeyInts`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KeyClass {
    Float = 1,
    Boolean = 2,
    Utf8 = 3,
    Date = 4,
    Timestamp = 5,
    /// `Int32` and `Int64`, which join each other.
    Integer = 6,
}

impl KeyClass {
    pub fn of(ty: DataType) -> KeyClass {
        match ty {
            DataType::Int32 | DataType::Int64 => KeyClass::Integer,
            DataType::Float64 => KeyClass::Float,
            DataType::Boolean => KeyClass::Boolean,
            DataType::Utf8 => KeyClass::Utf8,
            DataType::Date => KeyClass::Date,
            DataType::Timestamp => KeyClass::Timestamp,
        }
    }
}

/// How many rows the operators encode at a time: enough to amortise the
/// per-column passes, few enough that the encoded bytes are still in cache
/// when the hash table reads them back.
const KEY_CHUNK: usize = 4096;

/// `rows` in runs of at most [`KEY_CHUNK`] rows.
pub fn key_chunks(rows: Range<usize>) -> impl Iterator<Item = Range<usize>> {
    (rows.clone())
        .step_by(KEY_CHUNK)
        .map(move |start| start..rows.end.min(start + KEY_CHUNK))
}

/// The encoded keys of a run of rows, end to end in one arena. Reused from
/// run to run so that encoding allocates nothing once warm.
#[derive(Debug, Default)]
pub struct EncodedKeys {
    arena: Vec<u8>,
    /// Key `i` is `arena[starts[i]..starts[i + 1]]`.
    starts: Vec<usize>,
    /// Where the next column of each key goes, while encoding.
    cursor: Vec<usize>,
    bitmap_len: usize,
}

impl EncodedKeys {
    /// Number of keys held.
    pub fn len(&self) -> usize {
        self.starts.len().saturating_sub(1)
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The bytes of key `i` (the `i`-th row of the encoded run).
    #[inline]
    pub fn key(&self, i: usize) -> &[u8] {
        &self.arena[self.starts[i]..self.starts[i + 1]]
    }

    /// Every key, in row order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = &[u8]> + '_ {
        (self.starts.windows(2)).map(|w| &self.arena[w[0]..w[1]])
    }

    /// True when any column of key `i` is NULL — joins use this to skip the
    /// table entirely, matching SQL's "NULL keys never match".
    #[inline]
    pub fn has_null(&self, i: usize) -> bool {
        let bitmap = &self.arena[self.starts[i]..self.starts[i] + self.bitmap_len];
        bitmap.iter().any(|&b| b != 0)
    }
}

/// Encodes the rows of a fixed set of key columns into the byte format
/// above. Built once per operator from the key expressions' static types.
#[derive(Debug)]
pub struct KeyEncoder {
    /// Per key column, the class its values are written in. Only an integer
    /// column reads it (FLOAT widens it to `f64`); any other column writes
    /// the class of its type.
    classes: Vec<KeyClass>,
    bitmap_len: usize,
}

impl KeyEncoder {
    /// The encoder of one side's keys (group keys, DISTINCT rows), each
    /// written in the class of its type.
    pub fn new(types: &[DataType]) -> KeyEncoder {
        KeyEncoder::join(types, types)
    }

    /// The one encoder of both sides of a join on `left[i] = right[i]`. A
    /// pair of integers is INTEGER; a pair with a float side is FLOAT on both
    /// sides, since `Value::sql_cmp` compares an integer with a float as
    /// `f64`s. Any other pair keeps its left class, and its values write their
    /// own tags, so a pair of two classes never matches.
    pub fn join(left: &[DataType], right: &[DataType]) -> KeyEncoder {
        debug_assert_eq!(left.len(), right.len());
        let pair = |(&l, &r): (&DataType, &DataType)| match (KeyClass::of(l), KeyClass::of(r)) {
            (KeyClass::Integer, KeyClass::Float) => KeyClass::Float,
            (class, _) => class,
        };
        let classes: Vec<KeyClass> = left.iter().zip(right).map(pair).collect();
        KeyEncoder {
            bitmap_len: classes.len().div_ceil(8),
            classes,
        }
    }

    pub fn num_columns(&self) -> usize {
        self.classes.len()
    }

    /// Encode rows `rows` of `cols` into `out` (replacing what it held), a
    /// column at a time. Accepts owned, borrowed, or `Cow` columns.
    pub fn encode<C: std::borrow::Borrow<Column>>(
        &self,
        cols: &[C],
        rows: Range<usize>,
        out: &mut EncodedKeys,
    ) {
        debug_assert_eq!(cols.len(), self.classes.len());
        let n = rows.len();
        out.bitmap_len = self.bitmap_len;

        // Size every key: `starts[i + 1]` first holds key `i`'s length, then
        // (after the running sum) its end.
        out.starts.clear();
        out.starts.resize(n + 1, self.bitmap_len);
        out.starts[0] = 0;
        for col in cols {
            let col = col.borrow();
            let lens = &mut out.starts[1..];
            let validity = col.validity().map(|v| &v[rows.clone()]);
            let width = match col.data() {
                ColumnData::Utf8(strings) => {
                    for (i, len) in lens.iter_mut().enumerate() {
                        if validity.is_none_or(|v| v[i]) {
                            *len += 5 + strings.get(rows.start + i).len();
                        }
                    }
                    continue;
                }
                ColumnData::Boolean(_) => 2,
                ColumnData::Date(_) => 5,
                ColumnData::Int32(_)
                | ColumnData::Int64(_)
                | ColumnData::Float64(_)
                | ColumnData::Timestamp(_) => 9,
            };
            match validity {
                None => lens.iter_mut().for_each(|len| *len += width),
                Some(valid) => (lens.iter_mut().zip(valid))
                    .for_each(|(len, &ok)| *len += if ok { width } else { 0 }),
            }
        }
        let mut end = 0;
        for s in &mut out.starts[1..] {
            end += *s;
            *s = end;
        }

        // Write every key: zeroed bitmaps first, then each column at its
        // keys' cursors.
        out.arena.clear();
        out.arena.resize(end, 0);
        out.cursor.clear();
        (out.cursor).extend(out.starts[..n].iter().map(|&s| s + self.bitmap_len));
        for (c, (col, &class)) in cols.iter().zip(&self.classes).enumerate() {
            let col = col.borrow();
            let validity = col.validity().map(|v| &v[rows.clone()]);
            let from = rows.start;
            const FIXED: &[u8] = &[];
            use KeyClass as K;
            match col.data() {
                ColumnData::Int32(v) if class == K::Float => {
                    put_column(out, K::Float, c, validity, |i| {
                        (f64::from(v[from + i]).to_bits().to_le_bytes(), FIXED)
                    })
                }
                ColumnData::Int64(v) if class == K::Float => {
                    put_column(out, K::Float, c, validity, |i| {
                        ((v[from + i] as f64).to_bits().to_le_bytes(), FIXED)
                    })
                }
                ColumnData::Int32(v) => put_column(out, K::Integer, c, validity, |i| {
                    (i64::from(v[from + i]).to_le_bytes(), FIXED)
                }),
                ColumnData::Int64(v) => put_column(out, K::Integer, c, validity, |i| {
                    (v[from + i].to_le_bytes(), FIXED)
                }),
                ColumnData::Float64(v) => put_column(out, K::Float, c, validity, |i| {
                    (v[from + i].to_bits().to_le_bytes(), FIXED)
                }),
                ColumnData::Boolean(v) => put_column(out, K::Boolean, c, validity, |i| {
                    ([v[from + i] as u8], FIXED)
                }),
                ColumnData::Date(v) => put_column(out, K::Date, c, validity, |i| {
                    (v[from + i].to_le_bytes(), FIXED)
                }),
                ColumnData::Timestamp(v) => put_column(out, K::Timestamp, c, validity, |i| {
                    (v[from + i].to_le_bytes(), FIXED)
                }),
                ColumnData::Utf8(v) => put_column(out, K::Utf8, c, validity, |i| {
                    let s = v.get(from + i).as_bytes();
                    ((s.len() as u32).to_le_bytes(), s)
                }),
            }
        }
    }
}

/// Write key column `column` of a run: for each valid row `i`, the class tag
/// and the two parts of `payload(i)` at the key's cursor; for a NULL row, the
/// key's bitmap bit.
fn put_column<'p, const W: usize>(
    keys: &mut EncodedKeys,
    class: KeyClass,
    column: usize,
    validity: Option<&[bool]>,
    payload: impl Fn(usize) -> ([u8; W], &'p [u8]),
) {
    let EncodedKeys {
        arena,
        starts,
        cursor,
        ..
    } = keys;
    let tag = class as u8;
    let put = |arena: &mut [u8], i: usize, at: &mut usize| {
        let (head, rest) = payload(i);
        let end = *at + 1 + W + rest.len();
        let dst = &mut arena[*at..end];
        dst[0] = tag;
        dst[1..1 + W].copy_from_slice(&head);
        dst[1 + W..].copy_from_slice(rest);
        *at = end;
    };
    match validity {
        None => (cursor.iter_mut().enumerate()).for_each(|(i, at)| put(arena, i, at)),
        Some(valid) => {
            for (i, at) in cursor.iter_mut().enumerate() {
                if valid[i] {
                    put(arena, i, at);
                } else {
                    arena[starts[i] + column / 8] |= 1 << (column % 8);
                }
            }
        }
    }
}

/// Two keys' bytes compared without a call into libc for the common sizes
/// (one or two fixed-width columns): the first and the last eight bytes
/// cover a key of 8 to 16 bytes between them.
#[inline]
fn key_eq(a: &[u8], b: &[u8]) -> bool {
    match a.len() {
        len if len != b.len() => false,
        len @ 8..=16 => word(a, 0) == word(b, 0) && word(a, len - 8) == word(b, len - 8),
        _ => a == b,
    }
}

/// What [`KeyTable::lookup_rows`] reports for a key that is absent or holds
/// a NULL. Never an entry index.
pub const NO_ENTRY: u32 = u32::MAX;

/// Zero, so that a fresh bucket array is untouched zero pages.
const EMPTY_BUCKET: u64 = 0;

/// An open-addressing hash table over interned key byte-rows.
///
/// Keys live contiguously in one arena; entries are dense indices in
/// insertion order (which is what gives aggregation its first-appearance
/// group order). A probe hashes the key a word at a time, walks buckets that
/// carry half of each entry's hash — so a bucket that does not hold the key
/// is almost always rejected without leaving the bucket array — and compares
/// the one candidate's bytes. No per-row allocation, no SipHash.
///
/// Operators hand it whole key columns ([`KeyTable::intern_rows`],
/// [`KeyTable::lookup_rows`]). It encodes them a run at a time and works
/// through a run in passes — hash every key, fetch every key's home bucket,
/// then resolve — so that neither the multiplies of one key nor the cache
/// miss of its bucket wait for the key before it.
#[derive(Debug, Default)]
pub struct KeyTable {
    /// Bucket array (power-of-two length, or empty before the first key):
    /// the high half of the entry's hash above its index plus one, or
    /// `EMPTY_BUCKET`. Indexed by the hash's low bits.
    buckets: Vec<u64>,
    /// Hash per entry, read on growth so keys are never rehashed.
    hashes: Vec<u64>,
    /// `(offset, len)` of each entry's key bytes in `arena`.
    spans: Vec<(usize, u32)>,
    arena: Vec<u8>,
    /// The run of rows being resolved: its keys, their hashes, and what their
    /// home buckets held when the run began.
    run: EncodedKeys,
    run_hashes: Vec<u64>,
    run_homes: Vec<u64>,
}

impl KeyTable {
    pub fn new() -> KeyTable {
        KeyTable::default()
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// The interned bytes of entry `i` (insertion-ordered).
    pub fn key_bytes(&self, i: usize) -> &[u8] {
        let (off, len) = self.spans[i];
        &self.arena[off..off + len as usize]
    }

    /// The [`hash_key`] of entry `i`'s bytes, as stored.
    pub fn hash(&self, i: usize) -> u64 {
        self.hashes[i]
    }

    /// `key`'s entry, or the empty bucket its probe run ends at. `home` is
    /// what the key's home bucket holds, when the caller has read it already.
    /// The table must have buckets.
    #[inline]
    fn find(&self, hash: u64, key: &[u8], home: Option<u64>) -> std::result::Result<usize, usize> {
        let mask = self.buckets.len() - 1;
        let mut idx = (hash as usize) & mask;
        let mut slot = home.unwrap_or_else(|| self.buckets[idx]);
        loop {
            if slot == EMPTY_BUCKET {
                return Err(idx);
            }
            let entry = (slot & u64::from(u32::MAX)) as usize - 1;
            if slot >> 32 == hash >> 32 && key_eq(self.key_bytes(entry), key) {
                return Ok(entry);
            }
            idx = (idx + 1) & mask;
            slot = self.buckets[idx];
        }
    }

    /// Make `key` the next entry, in the empty bucket `idx` that
    /// [`KeyTable::find`] ended at.
    fn insert_at(&mut self, idx: usize, hash: u64, key: &[u8]) -> usize {
        let entry = self.spans.len();
        assert!(entry < NO_ENTRY as usize, "key table is full");
        self.buckets[idx] = bucket(hash, entry);
        self.hashes.push(hash);
        self.spans.push((self.arena.len(), key.len() as u32));
        self.arena.extend_from_slice(key);
        entry
    }

    /// Find `key`'s entry index, or insert it and return the new index.
    /// The `bool` is true when the key was newly inserted.
    pub fn intern(&mut self, key: &[u8]) -> (usize, bool) {
        self.reserve(1);
        let hash = hash_key(key);
        match self.find(hash, key, None) {
            Ok(entry) => (entry, false),
            Err(idx) => (self.insert_at(idx, hash, key), true),
        }
    }

    /// [`KeyTable::intern`] for rows `rows` of key columns `cols`, appending
    /// each row's entry to `entries`. Entries are dense, so a row
    /// brought a new key exactly when its entry equals the number of entries
    /// before it.
    ///
    /// When the rows can be told apart by their string-pool indices alone
    /// ([`PoolSlots`]), a row whose indices were seen before takes the entry
    /// they led to, and only first appearances are encoded at all.
    pub fn intern_rows<C: std::borrow::Borrow<Column>>(
        &mut self,
        encoder: &KeyEncoder,
        cols: &[C],
        rows: Range<usize>,
        entries: &mut Vec<u32>,
    ) {
        entries.reserve(rows.len());
        let mut run = std::mem::take(&mut self.run);
        if let Some(slots) = PoolSlots::new(cols, rows.len()) {
            let mut seen = vec![NO_ENTRY; slots.len];
            for row in rows {
                let entry = &mut seen[slots.of(row)];
                if *entry == NO_ENTRY {
                    encoder.encode(cols, row..row + 1, &mut run);
                    *entry = self.intern(run.key(0)).0 as u32;
                }
                entries.push(*entry);
            }
        } else {
            for rows in key_chunks(rows) {
                encoder.encode(cols, rows, &mut run);
                self.resolve_run::<true>(&run, entries);
            }
        }
        self.run = run;
    }

    /// Look up rows `rows` of key columns `cols` without inserting, appending
    /// each row's entry to `entries`: [`NO_ENTRY`] for a key that is absent,
    /// and for one that holds a NULL — SQL's "NULL keys never match", which
    /// is why only joins look keys up.
    pub fn lookup_rows<C: std::borrow::Borrow<Column>>(
        &mut self,
        encoder: &KeyEncoder,
        cols: &[C],
        rows: Range<usize>,
        entries: &mut Vec<u32>,
    ) {
        entries.reserve(rows.len());
        let mut run = std::mem::take(&mut self.run);
        for rows in key_chunks(rows) {
            encoder.encode(cols, rows, &mut run);
            self.resolve_run::<false>(&run, entries);
        }
        self.run = run;
    }

    /// Append the entry of every key of `run`: interned when `INSERT`,
    /// otherwise looked up ([`NO_ENTRY`] when absent or holding a NULL).
    fn resolve_run<const INSERT: bool>(&mut self, run: &EncodedKeys, entries: &mut Vec<u32>) {
        if INSERT {
            self.reserve(run.len());
            self.arena.reserve(run.arena.len());
        } else if self.buckets.is_empty() {
            entries.extend(std::iter::repeat_n(NO_ENTRY, run.len()));
            return;
        }
        // Two loops whose loads depend on nothing the table does meanwhile:
        // the hashes pipeline, and the home buckets — the one random access
        // of a probe — are all in flight together.
        let mask = self.buckets.len() - 1;
        let mut hashes = std::mem::take(&mut self.run_hashes);
        hashes.clear();
        hashes.extend(run.iter().map(hash_key));
        let mut homes = std::mem::take(&mut self.run_homes);
        homes.clear();
        homes.extend(hashes.iter().map(|&h| self.buckets[h as usize & mask]));

        let (mut entry, mut prev) = (NO_ENTRY, &[][..]);
        for (i, (key, (&hash, &home))) in run.iter().zip(hashes.iter().zip(&homes)).enumerate() {
            // A key equal to the one before it (sorted and clustered inputs
            // are full of those) takes its entry unprobed.
            if i == 0 || !key_eq(key, prev) {
                // An occupied bucket stays as it was seen: nothing is ever
                // removed, and the table does not grow inside a run. One
                // seen empty may since have taken a key of this run.
                let home = (!INSERT || home != EMPTY_BUCKET).then_some(home);
                entry = if !INSERT && run.has_null(i) {
                    NO_ENTRY
                } else {
                    match self.find(hash, key, home) {
                        Ok(found) => found as u32,
                        Err(idx) if INSERT => self.insert_at(idx, hash, key) as u32,
                        Err(_) => NO_ENTRY,
                    }
                };
            }
            prev = key;
            entries.push(entry);
        }
        self.run_hashes = hashes;
        self.run_homes = homes;
    }

    /// Make room for `additional` more entries at a load factor of at most
    /// 3/4, rehashing (from the stored hashes) at most once.
    fn reserve(&mut self, additional: usize) {
        self.hashes.reserve(additional);
        self.spans.reserve(additional);
        let needed = ((self.spans.len() + additional) * 4).div_ceil(3);
        if needed <= self.buckets.len() {
            return;
        }
        let mask = needed.next_power_of_two().max(16) - 1;
        let mut buckets = vec![EMPTY_BUCKET; mask + 1];
        for (e, &hash) in self.hashes.iter().enumerate() {
            let mut idx = (hash as usize) & mask;
            while buckets[idx] != EMPTY_BUCKET {
                idx = (idx + 1) & mask;
            }
            buckets[idx] = bucket(hash, e);
        }
        self.buckets = buckets;
    }
}

/// What a bucket holds for entry `entry` with hash `hash`.
#[inline]
fn bucket(hash: u64, entry: usize) -> u64 {
    (hash >> 32) << 32 | (entry as u64 + 1)
}

/// Rows of key columns that are all strings, numbered by their pool indices.
///
/// Within one column every row names the same pool, so two rows with equal
/// indices in every column hold equal keys, and a row can be recognised
/// without reading a byte of its strings. Worth it only when the numbering
/// has no more slots than there are rows — dictionary-encoded and other
/// low-cardinality columns, which is what analytic group keys mostly are —
/// and trivially so for no key columns at all (a global aggregate: one slot).
struct PoolSlots<'a> {
    columns: Vec<SlotColumn<'a>>,
    len: usize,
}

/// One key column of [`PoolSlots`]: pool index per row, validity, and the
/// column's stride in the numbering.
type SlotColumn<'a> = (&'a [u32], Option<&'a [bool]>, usize);

impl<'a> PoolSlots<'a> {
    fn new<C: std::borrow::Borrow<Column>>(cols: &'a [C], num_rows: usize) -> Option<Self> {
        let mut len = 1usize;
        let mut columns = Vec::with_capacity(cols.len());
        for col in cols {
            let col = col.borrow();
            let ColumnData::Utf8(strings) = col.data() else {
                return None;
            };
            columns.push((strings.indices(), col.validity(), len));
            // Two slots beside the pool's entries: NULL, and a valid row
            // without an entry (the empty string).
            len = len.checked_mul(strings.pool().len() + 2)?;
            if len > num_rows {
                return None;
            }
        }
        (len <= num_rows).then_some(PoolSlots { columns, len })
    }

    #[inline]
    fn of(&self, row: usize) -> usize {
        (self.columns.iter())
            .map(|&(indices, validity, stride)| {
                let slot = match validity {
                    Some(valid) if !valid[row] => 0,
                    // `StrVec::NO_ENTRY` is `u32::MAX`: it wraps to slot 1.
                    _ => indices[row].wrapping_add(2) as usize,
                };
                slot * stride
            })
            .sum()
    }
}

/// A column's values as `i64`, when its class compares as exact integers.
#[derive(Clone, Copy)]
pub enum KeyInts<'a> {
    Narrow(&'a [i32]),
    Wide(&'a [i64]),
}

impl<'a> KeyInts<'a> {
    pub fn of(data: &'a ColumnData) -> Option<(KeyClass, KeyInts<'a>)> {
        let ints = match data {
            ColumnData::Int32(v) | ColumnData::Date(v) => KeyInts::Narrow(v),
            ColumnData::Int64(v) | ColumnData::Timestamp(v) => KeyInts::Wide(v),
            _ => return None,
        };
        Some((KeyClass::of(data.data_type()), ints))
    }

    /// `f` over the values in row order, the width matched once.
    pub fn for_each(self, mut f: impl FnMut(usize, i64)) {
        match self {
            KeyInts::Narrow(v) => (v.iter().enumerate()).for_each(|(i, &x)| f(i, i64::from(x))),
            KeyInts::Wide(v) => (v.iter().enumerate()).for_each(|(i, &x)| f(i, x)),
        }
    }
}

/// The widest `[min, max]` a [`KeyFilter`] holds as an exact set, one bit per
/// value: 512 KiB of bits, which covers the key range of a 4-million-row
/// dimension table and is small beside the probe side it spares.
const KEY_FILTER_BITMAP_SPAN: i128 = 1 << 22;

/// The closed range of one build key column, against the probe column it is
/// compared with. `min > max` when the build side has no key at all.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KeyRange {
    /// The probe scan's output column.
    pub column: usize,
    pub class: KeyClass,
    pub min: i64,
    pub max: i64,
}

/// What a hash join's build side tells its probe scan: a *necessary*
/// condition, in the join's own equality, for a probe row to find a match.
/// Per key column a closed range; for a single integer key whose range fits
/// [`KEY_FILTER_BITMAP_SPAN`], also the exact set of build values as bits
/// over that range. A NULL probe key never matches and passes no range. A
/// scan may drop every row that fails it when unmatched probe rows are not
/// part of the join's output (inner and right-outer joins).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KeyFilter {
    ranges: Vec<KeyRange>,
    /// Bit `v - ranges[0].min` is set when `v` is a build key. Never held
    /// when every value of the range is present: the range says as much.
    bitmap: Option<Vec<u64>>,
}

impl KeyFilter {
    /// The filter of build key columns `build`, where `probe[i]` is the
    /// probe scan's output column (index and type) that key `i` is compared
    /// with, or `None` when the probe key is not a bare column. `None` when
    /// no key column has a range to offer.
    ///
    /// A build row holding a NULL in any key column matches nothing and
    /// contributes nothing.
    pub fn from_build<C: std::borrow::Borrow<Column>>(
        build: &[C],
        probe: &[Option<(usize, DataType)>],
    ) -> Option<KeyFilter> {
        debug_assert_eq!(build.len(), probe.len());
        let mut valid: Option<Vec<bool>> = None;
        for col in build {
            if let Some(v) = col.borrow().validity() {
                match &mut valid {
                    None => valid = Some(v.to_vec()),
                    Some(all) => all.iter_mut().zip(v).for_each(|(a, &b)| *a &= b),
                }
            }
        }
        let is_valid = |row: usize| valid.as_ref().is_none_or(|v| v[row]);

        let mut ranges = Vec::new();
        let mut values = Vec::new();
        for (col, probe) in build.iter().zip(probe) {
            let Some((column, probe_ty)) = *probe else {
                continue;
            };
            let Some((class, ints)) = KeyInts::of(col.borrow().data()) else {
                continue;
            };
            if KeyClass::of(probe_ty) != class {
                continue;
            }
            let (mut min, mut max) = (i64::MAX, i64::MIN);
            ints.for_each(|row, v| {
                if is_valid(row) {
                    min = min.min(v);
                    max = max.max(v);
                }
            });
            ranges.push(KeyRange {
                column,
                class,
                min,
                max,
            });
            values.push(ints);
        }
        let first = ranges.first()?;

        let span = i128::from(first.max) - i128::from(first.min) + 1;
        let fits = build.len() == 1
            && first.class == KeyClass::Integer
            && (1..=KEY_FILTER_BITMAP_SPAN).contains(&span);
        let bitmap = fits.then(|| {
            let mut bits = vec![0u64; (span as usize).div_ceil(64)];
            values[0].for_each(|row, v| {
                if is_valid(row) {
                    let at = (v - first.min) as usize;
                    bits[at / 64] |= 1 << (at % 64);
                }
            });
            bits
        });
        let present = |bits: &Vec<u64>| bits.iter().map(|w| w.count_ones() as i128).sum::<i128>();
        let bitmap = bitmap.filter(|bits| present(bits) < span);
        Some(KeyFilter { ranges, bitmap })
    }

    /// One range per filtered key column, the bitmap's (if any) first.
    pub fn ranges(&self) -> &[KeyRange] {
        &self.ranges
    }

    /// Whether the first range carries the exact set of build values.
    pub fn is_exact(&self) -> bool {
        self.bitmap.is_some()
    }

    /// How the filter reads in a profile.
    pub fn kind(&self) -> &'static str {
        if self.is_exact() {
            "bitmap"
        } else {
            "min/max"
        }
    }

    /// Whether probe value `v` of range `at`'s column can match a build key.
    #[inline]
    pub fn admits(&self, at: usize, v: i64) -> bool {
        let range = &self.ranges[at];
        if v < range.min || v > range.max {
            return false;
        }
        match &self.bitmap {
            Some(bits) if at == 0 => {
                let bit = (v - range.min) as usize;
                bits[bit / 64] >> (bit % 64) & 1 == 1
            }
            _ => true,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pixels_common::{StrVec, Value};

    fn col(ty: DataType, vals: &[Value]) -> Column {
        Column::from_values(ty, vals).unwrap()
    }

    /// Row `row` of `cols` encoded on its own: `(key bytes, any NULL)`.
    fn encode(enc: &KeyEncoder, cols: &[Column], row: usize) -> (Vec<u8>, bool) {
        let mut keys = EncodedKeys::default();
        enc.encode(cols, row..row + 1, &mut keys);
        assert_eq!(keys.len(), 1);
        (keys.key(0).to_vec(), keys.has_null(0))
    }

    /// The documented byte format, written out one value at a time — what
    /// the per-row encoder this module used to have produced.
    fn reference_key(cols: &[Column], row: usize) -> Vec<u8> {
        let mut key = vec![0u8; cols.len().div_ceil(8)];
        for (c, col) in cols.iter().enumerate() {
            match col.value(row) {
                Value::Null => key[c / 8] |= 1 << (c % 8),
                Value::Int32(v) => {
                    key.push(6);
                    key.extend(i64::from(v).to_le_bytes());
                }
                Value::Int64(v) => {
                    key.push(6);
                    key.extend(v.to_le_bytes());
                }
                Value::Float64(v) => {
                    key.push(1);
                    key.extend(v.to_bits().to_le_bytes());
                }
                Value::Boolean(v) => key.extend([2, v as u8]),
                Value::Utf8(s) => {
                    key.push(3);
                    key.extend((s.len() as u32).to_le_bytes());
                    key.extend(s.as_bytes());
                }
                Value::Date(v) => {
                    key.push(4);
                    key.extend(v.to_le_bytes());
                }
                Value::Timestamp(v) => {
                    key.push(5);
                    key.extend(v.to_le_bytes());
                }
            }
        }
        key
    }

    #[test]
    fn batch_encoding_is_the_documented_format_for_every_type_and_null_pattern() {
        // Nine key columns (so the bitmap spans two bytes), every type, and
        // rows cycling through every null pattern of the first eight columns
        // plus an all-NULL and a no-NULL row; 3 x KEY_CHUNK rows so chunk
        // boundaries and non-zero range starts are crossed.
        let n = 3 * KEY_CHUNK + 17;
        let sample = |ty: DataType, i: usize| match ty {
            DataType::Boolean => Value::Boolean(i % 3 == 1),
            DataType::Int32 => Value::Int32(i as i32 - 7),
            DataType::Int64 => Value::Int64(i64::MAX - i as i64),
            DataType::Float64 => Value::Float64([0.0, -0.0, f64::NAN, 1.5][i % 4]),
            DataType::Utf8 => Value::Utf8(["", "a", "日本", "a longer string"][i % 4].into()),
            DataType::Date => Value::Date(i as i32 * 31),
            DataType::Timestamp => Value::Timestamp(-(i as i64)),
        };
        let types = [
            DataType::Utf8,
            DataType::Int32,
            DataType::Boolean,
            DataType::Float64,
            DataType::Date,
            DataType::Int64,
            DataType::Timestamp,
            DataType::Utf8,
            DataType::Int64,
        ];
        let cols: Vec<Column> = (types.iter().enumerate())
            .map(|(c, &ty)| {
                let null = |i: usize| match i % 258 {
                    256 => true,
                    257 => false,
                    pattern => c < 8 && pattern >> c & 1 == 1,
                };
                let values: Vec<Value> = (0..n)
                    .map(|i| if null(i) { Value::Null } else { sample(ty, i) })
                    .collect();
                col(ty, &values)
            })
            .collect();
        let enc = KeyEncoder::new(&types);
        let mut keys = EncodedKeys::default();
        let mut seen = 0;
        for rows in key_chunks(0..n) {
            enc.encode(&cols, rows.clone(), &mut keys);
            assert_eq!(keys.len(), rows.len());
            for (i, row) in rows.enumerate() {
                assert_eq!(keys.key(i), reference_key(&cols, row), "row {row}");
                let any_null = cols.iter().any(|c| c.is_null(row));
                assert_eq!(keys.has_null(i), any_null, "row {row}");
                seen += 1;
            }
        }
        assert_eq!(seen, n);
        // No key columns (a global aggregate): every key is empty.
        KeyEncoder::new(&[]).encode::<Column>(&[], 0..5, &mut keys);
        assert_eq!(keys.len(), 5);
        assert!((0..5).all(|i| keys.key(i).is_empty() && !keys.has_null(i)));
    }

    /// `intern_rows` must hand every row the entry that interning its
    /// reference bytes one row at a time would — whether it takes the
    /// pool-index shortcut (string-only columns) or encodes every row.
    #[test]
    fn row_interning_agrees_with_interning_each_rows_bytes() {
        let n = KEY_CHUNK + 100;
        // Dictionary columns: four pool entries (one a duplicate, one the
        // empty string), NULL every `nulls` rows, and in one of them valid
        // rows without a pool entry, which read as the empty string.
        let strings = |nulls: usize, step: usize| -> Column {
            let mut pool = pixels_common::StrPool::new();
            for entry in ["x", "", "yy", "x"] {
                pool.push(entry).unwrap();
            }
            let index = |i: usize| match (i / step) % 5 {
                4 => StrVec::NO_ENTRY,
                entry => entry as u32,
            };
            let strings = StrVec::new(std::sync::Arc::new(pool), (0..n).map(index).collect());
            let validity = (0..n).map(|i| i % nulls != 0).collect();
            Column::with_validity(ColumnData::Utf8(strings.unwrap()), Some(validity)).unwrap()
        };
        let ints = Column::new(ColumnData::Int64(
            (0..n as i64).map(|i| i / 3 % 50).collect(),
        ));
        let cases: Vec<(&str, Vec<Column>)> = vec![
            (
                "two dictionary columns",
                vec![strings(5, 1), strings(11, 7)],
            ),
            ("a string and an integer", vec![strings(5, 1), ints.clone()]),
            ("an integer, in runs of three", vec![ints]),
            ("no key column", vec![]),
        ];
        for (what, cols) in cases {
            let rows = cols.first().map_or(9, Column::len);
            let types: Vec<DataType> = cols.iter().map(Column::data_type).collect();
            let enc = KeyEncoder::new(&types);
            let (mut fast, mut slow) = (KeyTable::new(), KeyTable::new());
            let mut entries = vec![77]; // appended to, not cleared
            fast.intern_rows(&enc, &cols, 0..rows, &mut entries);
            assert_eq!(entries.len(), rows + 1, "{what}");
            for row in 0..rows {
                let (entry, _) = slow.intern(&reference_key(&cols, row));
                assert_eq!(entries[row + 1] as usize, entry, "{what}, row {row}");
            }
            assert_eq!(fast.len(), slow.len(), "{what}");
            for e in 0..slow.len() {
                assert_eq!(fast.key_bytes(e), slow.key_bytes(e), "{what}, entry {e}");
            }
            // Looked up again, every row finds its entry — unless it holds a
            // NULL, which never matches.
            let mut found = Vec::new();
            fast.lookup_rows(&enc, &cols, 0..rows, &mut found);
            for row in 0..rows {
                let expect = if cols.iter().any(|c| c.is_null(row)) {
                    NO_ENTRY
                } else {
                    entries[row + 1]
                };
                assert_eq!(found[row], expect, "{what}, lookup of row {row}");
            }
        }
        // Absent keys, and any key against an empty table.
        let enc = KeyEncoder::new(&[DataType::Int64]);
        let probe = [Column::new(ColumnData::Int64(vec![1, 1, 2, 3]))];
        let mut found = Vec::new();
        KeyTable::new().lookup_rows(&enc, &probe, 0..4, &mut found);
        assert_eq!(found, [NO_ENTRY; 4]);
        let mut table = KeyTable::new();
        table.intern_rows(
            &enc,
            &[Column::new(ColumnData::Int64(vec![2]))],
            0..1,
            &mut vec![],
        );
        found.clear();
        table.lookup_rows(&enc, &probe, 0..4, &mut found);
        assert_eq!(found, [NO_ENTRY, NO_ENTRY, 0, NO_ENTRY]);
    }

    /// Keys compare as `Value::eq` does: two integers exactly, whatever
    /// their widths; an integer and a float, in a join, as `f64`s.
    #[test]
    fn integer_keys_are_exact_and_a_float_pair_widens_both_sides() {
        let p53 = 1i64 << 53;
        let ints = col(
            DataType::Int64,
            &[Value::Int64(7), Value::Int64(p53), Value::Int64(p53 + 1)],
        );
        let narrow = col(DataType::Int32, &[Value::Int32(7)]);
        let floats = col(
            DataType::Float64,
            &[Value::Float64(7.0), Value::Float64(p53 as f64)],
        );
        let (i64s, i32s) = (&[DataType::Int64][..], &[DataType::Int32][..]);
        let key = |enc: &KeyEncoder, c: &Column, row| encode(enc, std::slice::from_ref(c), row).0;
        let exact = KeyEncoder::new(i64s);
        assert_eq!(
            key(&exact, &ints, 0),
            key(&KeyEncoder::new(i32s), &narrow, 0)
        );
        assert_eq!(
            key(&exact, &ints, 0),
            key(&KeyEncoder::join(i64s, i32s), &narrow, 0)
        );
        assert_ne!(
            key(&exact, &ints, 1),
            key(&exact, &ints, 2),
            "2^53 + 1 is not 2^53"
        );
        // Alone, a float is its own class; paired with one, an integer is
        // its `f64`, and past 2^53 several integers are one `f64`.
        let float = KeyEncoder::new(&[DataType::Float64]);
        assert_ne!(key(&exact, &ints, 0), key(&float, &floats, 0));
        let pair = KeyEncoder::join(i64s, &[DataType::Float64]);
        assert_eq!(key(&pair, &ints, 0), key(&pair, &floats, 0));
        assert_eq!(key(&pair, &ints, 1), key(&pair, &floats, 1));
        assert_eq!(key(&pair, &ints, 2), key(&pair, &floats, 1));
        let flipped = KeyEncoder::join(&[DataType::Float64], i32s);
        assert_eq!(key(&flipped, &narrow, 0), key(&flipped, &floats, 0));
    }

    #[test]
    fn zero_signs_and_nan_follow_total_cmp() {
        // Value::eq compares floats with total_cmp: -0.0 != 0.0, and NaN
        // equals NaN only with an identical bit pattern. The encoding must
        // preserve exactly that.
        let enc = KeyEncoder::new(&[DataType::Float64]);
        let c = col(
            DataType::Float64,
            &[
                Value::Float64(0.0),
                Value::Float64(-0.0),
                Value::Float64(f64::NAN),
                Value::Float64(f64::NAN),
            ],
        );
        let cols = std::slice::from_ref(&c);
        let (p0, _) = encode(&enc, cols, 0);
        let (m0, _) = encode(&enc, cols, 1);
        let (n1, _) = encode(&enc, cols, 2);
        let (n2, _) = encode(&enc, cols, 3);
        assert_ne!(p0, m0, "-0.0 and 0.0 are distinct keys (total_cmp)");
        assert_eq!(n1, n2, "same-payload NaNs are equal keys");
    }

    #[test]
    fn date_never_aliases_numeric_or_timestamp() {
        let d = col(DataType::Date, &[Value::Date(42)]);
        let t = col(DataType::Timestamp, &[Value::Timestamp(42)]);
        let i = col(DataType::Int32, &[Value::Int32(42)]);
        let (ed, _) = encode(
            &KeyEncoder::new(&[DataType::Date]),
            std::slice::from_ref(&d),
            0,
        );
        let (et, _) = encode(
            &KeyEncoder::new(&[DataType::Timestamp]),
            std::slice::from_ref(&t),
            0,
        );
        let (ei, _) = encode(
            &KeyEncoder::new(&[DataType::Int32]),
            std::slice::from_ref(&i),
            0,
        );
        assert_ne!(ed, et);
        assert_ne!(ed, ei);
        assert_ne!(et, ei);
    }

    #[test]
    fn empty_string_and_null_are_distinct() {
        let enc = KeyEncoder::new(&[DataType::Utf8]);
        let c = col(DataType::Utf8, &[Value::Utf8(String::new()), Value::Null]);
        let cols = std::slice::from_ref(&c);
        let (empty, empty_null) = encode(&enc, cols, 0);
        let (null, null_null) = encode(&enc, cols, 1);
        assert!(!empty_null);
        assert!(null_null);
        assert_ne!(empty, null);
    }

    #[test]
    fn string_boundaries_are_unambiguous() {
        // ("ab", "c") must not collide with ("a", "bc").
        let enc = KeyEncoder::new(&[DataType::Utf8, DataType::Utf8]);
        let a1 = col(DataType::Utf8, &[Value::Utf8("ab".into())]);
        let a2 = col(DataType::Utf8, &[Value::Utf8("c".into())]);
        let b1 = col(DataType::Utf8, &[Value::Utf8("a".into())]);
        let b2 = col(DataType::Utf8, &[Value::Utf8("bc".into())]);
        let (ea, _) = encode(&enc, &[a1, a2], 0);
        let (eb, _) = encode(&enc, &[b1, b2], 0);
        assert_ne!(ea, eb);
    }

    #[test]
    fn null_bitmap_distinguishes_patterns() {
        let enc = KeyEncoder::new(&[DataType::Int64, DataType::Int64]);
        let a = col(DataType::Int64, &[Value::Null, Value::Int64(5)]);
        let b = col(DataType::Int64, &[Value::Int64(5), Value::Null]);
        let cols = [a, b];
        let (e0, n0) = encode(&enc, &cols, 0); // (NULL, 5)
        let (e1, n1) = encode(&enc, &cols, 1); // (5, NULL)
        assert!(n0 && n1);
        assert_ne!(e0, e1);
    }

    #[test]
    fn table_interns_and_grows() {
        let mut t = KeyTable::new();
        let mut entries = Vec::new();
        for i in 0..1000u64 {
            let key = i.to_le_bytes();
            let (e, new) = t.intern(&key);
            assert!(new, "key {i} should be new");
            assert_eq!(e, i as usize, "entries are dense in insertion order");
            entries.push(key);
        }
        assert_eq!(t.len(), 1000);
        for (i, key) in entries.iter().enumerate() {
            let (e, new) = t.intern(key);
            assert!(!new);
            assert_eq!(e, i);
            assert_eq!(t.key_bytes(i), key);
        }
    }

    /// The longest run of buckets any entry sits behind its home bucket.
    fn max_probe_len(t: &KeyTable) -> usize {
        let mask = t.buckets.len() - 1;
        (t.buckets.iter().enumerate())
            .filter(|&(_, &slot)| slot != EMPTY_BUCKET)
            .map(|(at, &slot)| at.wrapping_sub(t.hashes[slot as u32 as usize - 1] as usize) & mask)
            .max()
            .unwrap_or(0)
    }

    /// `0..n` as Int64 keys, or as Float64 ones, encoded.
    fn consecutive_keys(n: usize, float: bool) -> Vec<Vec<u8>> {
        let ids = match float {
            false => Column::new(ColumnData::Int64((0..n as i64).collect())),
            true => Column::new(ColumnData::Float64((0..n).map(|i| i as f64).collect())),
        };
        let enc = KeyEncoder::new(&[ids.data_type()]);
        let mut keys = EncodedKeys::default();
        let mut out = Vec::with_capacity(n);
        for rows in key_chunks(0..n) {
            enc.encode(std::slice::from_ref(&ids), rows, &mut keys);
            out.extend(keys.iter().map(<[u8]>::to_vec));
        }
        out
    }

    /// A table of `keys`, each new.
    fn table_of<'k>(keys: impl IntoIterator<Item = &'k [u8]>) -> KeyTable {
        let mut table = KeyTable::new();
        for key in keys {
            assert!(table.intern(key).1);
        }
        table
    }

    #[test]
    fn consecutive_integer_keys_probe_in_bounded_steps() {
        // Consecutive integers are the join keys of every generated table.
        // As raw little-endian words and as INTEGER keys their entropy is in
        // the low bytes; as FLOAT keys it is in the exponent and the top of
        // the mantissa, and the low bytes are all zero. A hash that lets
        // either shape cluster shows up as a long probe run.
        let n = 100_000usize;
        let words: Vec<[u8; 8]> = (0..n as u64).map(u64::to_le_bytes).collect();
        let raw = table_of(words.iter().map(|w| &w[..]));
        let ints = table_of(consecutive_keys(n, false).iter().map(Vec::as_slice));
        let floats = table_of(consecutive_keys(n, true).iter().map(Vec::as_slice));
        for (what, table) in [("raw", &raw), ("INTEGER", &ints), ("FLOAT", &floats)] {
            assert_eq!(table.len(), n);
            // At a load factor under 3/4, linear probing over a uniform hash
            // keeps the longest run in the tens.
            let longest = max_probe_len(table);
            assert!(longest <= 64, "{what}: longest probe run {longest}");
        }
    }

    #[test]
    fn keys_routed_to_one_partition_probe_in_bounded_steps() {
        // A stage-1 partition interns only the keys routed to it: routed by
        // the high half of their hash, they are spread over its table's
        // buckets, which the low bits index, as well as all keys are.
        let keys = consecutive_keys(100_000, false);
        let parts = 4;
        for p in 0..parts {
            let mine = keys
                .iter()
                .filter(|k| partition_of(hash_key(k), parts) == p);
            let table = table_of(mine.map(Vec::as_slice));
            assert!(
                (20_000..30_000).contains(&table.len()),
                "partition {p}: {}",
                table.len()
            );
            let longest = max_probe_len(&table);
            assert!(longest <= 64, "partition {p}: longest probe run {longest}");
        }
    }

    fn ints(vals: &[Option<i64>]) -> Column {
        let vals: Vec<Value> = (vals.iter())
            .map(|v| v.map_or(Value::Null, Value::Int64))
            .collect();
        col(DataType::Int64, &vals)
    }

    /// The filter of one build key column against probe column 3 of `probe`.
    fn filter_of(build: &Column, probe: DataType) -> Option<KeyFilter> {
        KeyFilter::from_build(std::slice::from_ref(build), &[Some((3, probe))])
    }

    #[test]
    fn key_filter_holds_the_exact_set_of_a_small_integer_key() {
        let build = ints(&[Some(40), Some(-3), None, Some(10), Some(10)]);
        for probe in [DataType::Int64, DataType::Int32] {
            let f = filter_of(&build, probe).unwrap();
            let range = &f.ranges()[0];
            assert_eq!((range.column, range.min, range.max), (3, -3, 40));
            assert_eq!(range.class, KeyClass::Integer);
            assert!(f.is_exact());
            assert_eq!(f.kind(), "bitmap");
            for v in -10..50 {
                assert_eq!(f.admits(0, v), [40, -3, 10].contains(&v), "{v}");
            }
            assert!(!f.admits(0, i64::MIN) && !f.admits(0, i64::MAX));
        }
        // Every value of the range present: the range alone says as much.
        let full = filter_of(
            &ints(&[Some(2), Some(0), Some(1), Some(1)]),
            DataType::Int64,
        )
        .unwrap();
        assert!(!full.is_exact());
        assert_eq!(full.kind(), "min/max");
        assert!(full.admits(0, 0) && full.admits(0, 2) && !full.admits(0, 3));
        // A range one value wider than the bitmap may be: min/max only.
        let span = KEY_FILTER_BITMAP_SPAN as i64;
        assert!(
            filter_of(&ints(&[Some(5), Some(5 + span - 1)]), DataType::Int64)
                .unwrap()
                .is_exact()
        );
        let wide = filter_of(&ints(&[Some(5), Some(5 + span)]), DataType::Int64).unwrap();
        assert!(!wide.is_exact());
        assert!(wide.admits(0, 6) && !wide.admits(0, 4));
        // Integer keys are exact at every magnitude, so is their filter.
        let p53 = 1i64 << 53;
        let f = filter_of(&ints(&[Some(p53), Some(p53 + 2)]), DataType::Int64).unwrap();
        assert!(f.is_exact());
        assert!(f.admits(0, p53) && !f.admits(0, p53 + 1) && f.admits(0, p53 + 2));
        let f = filter_of(&ints(&[Some(p53)]), DataType::Int64).unwrap();
        assert!(f.admits(0, p53) && !f.admits(0, p53 + 1) && !f.admits(0, p53 - 1));
        for edge in [i64::MIN, i64::MAX] {
            let f = filter_of(&ints(&[Some(edge), Some(edge)]), DataType::Int64).unwrap();
            assert!(f.admits(0, edge) && !f.admits(0, edge ^ 1));
        }
    }

    #[test]
    fn key_filter_offers_nothing_where_join_equality_is_not_integer_equality() {
        // Floats on either side, strings, booleans: no range, so no filter.
        let floats = col(
            DataType::Float64,
            &[Value::Float64(1.0), Value::Float64(2.0)],
        );
        assert_eq!(filter_of(&floats, DataType::Int64), None);
        assert_eq!(filter_of(&ints(&[Some(1)]), DataType::Float64), None);
        let strings = col(DataType::Utf8, &[Value::Utf8("a".into())]);
        assert_eq!(filter_of(&strings, DataType::Utf8), None);
        // A date never equals a timestamp or an integer.
        let dates = col(DataType::Date, &[Value::Date(3)]);
        assert_eq!(filter_of(&dates, DataType::Timestamp), None);
        assert_eq!(filter_of(&dates, DataType::Int32), None);
        assert_eq!(filter_of(&dates, DataType::Date).unwrap().kind(), "min/max");
        // Timestamps are compared as the integers they are, end to end of
        // i64; the span of such a range does not fit an i64.
        let stamps = col(
            DataType::Timestamp,
            &[Value::Timestamp(i64::MIN), Value::Timestamp(i64::MAX)],
        );
        let f = filter_of(&stamps, DataType::Timestamp).unwrap();
        assert!(!f.is_exact() && f.admits(0, 0) && f.admits(0, i64::MIN));
        // A probe key that is not a bare column.
        assert_eq!(KeyFilter::from_build(&[ints(&[Some(1)])], &[None]), None);
    }

    #[test]
    fn key_filter_of_an_empty_or_all_null_build_side_admits_nothing() {
        for build in [ints(&[]), ints(&[None, None])] {
            let f = filter_of(&build, DataType::Int64).unwrap();
            assert!(!f.is_exact());
            for v in [i64::MIN, -1, 0, 1, i64::MAX] {
                assert!(!f.admits(0, v), "{v}");
            }
        }
    }

    #[test]
    fn key_filter_of_several_columns_is_a_range_per_rangeable_column() {
        // Keys (int, string, date); the row with the NULL string matches
        // nothing, so its 900 and its date do not widen the ranges.
        let a = ints(&[Some(5), Some(900), Some(7)]);
        let s = col(
            DataType::Utf8,
            &[
                Value::Utf8("x".into()),
                Value::Null,
                Value::Utf8("y".into()),
            ],
        );
        let d = col(
            DataType::Date,
            &[Value::Date(30), Value::Date(-4), Value::Date(10)],
        );
        let probe = [
            Some((2, DataType::Int32)),
            Some((0, DataType::Utf8)),
            Some((1, DataType::Date)),
        ];
        let f = KeyFilter::from_build(&[a, s, d], &probe).unwrap();
        assert!(!f.is_exact(), "an exact set is for a single key column");
        let ranges: Vec<_> = (f.ranges().iter())
            .map(|r| (r.column, r.class, r.min, r.max))
            .collect();
        assert_eq!(
            ranges,
            [(2, KeyClass::Integer, 5, 7), (1, KeyClass::Date, 10, 30)]
        );
        assert!(f.admits(0, 6) && !f.admits(0, 8));
        assert!(f.admits(1, 10) && !f.admits(1, 9));
    }
}
