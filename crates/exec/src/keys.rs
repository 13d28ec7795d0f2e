//! Compact key encoding and a raw-index hash table for join/aggregate keys.
//!
//! The row-at-a-time kernels used to key their hash tables on
//! `Vec<Value>`, paying one heap allocation (plus a string clone per text
//! column) and a SipHash pass per input row. This module replaces that with
//! a contiguous byte-row encoding hashed by FNV-1a and compared by memcmp:
//!
//! ```text
//! [null bitmap: ceil(ncols/8) bytes][col 0][col 1]...
//! col (non-null) = class tag (1 byte) ++ payload
//!   NUMERIC   tag 1, f64 bit pattern LE   (Int32/Int64/Float64 widened)
//!   BOOLEAN   tag 2, 1 byte
//!   UTF8      tag 3, u32 LE length ++ bytes
//!   DATE      tag 4, i32 LE
//!   TIMESTAMP tag 5, i64 LE
//! NULL columns contribute only their bitmap bit (no tag, no payload).
//! ```
//!
//! Byte equality of two encodings is exactly [`Value`] tuple equality:
//!
//! - `Value::eq` widens `Int32`/`Int64`/`Float64` through `f64::total_cmp`,
//!   and `total_cmp` equality is bit equality of the `f64` — so writing the
//!   raw widened bit pattern makes memcmp agree with `eq` (including the
//!   `-0.0 != 0.0` and `NaN == NaN`-same-payload corners).
//! - Every per-column encoding is uniquely decodable (fixed width or
//!   length-prefixed, discriminated by the class tag), so concatenations
//!   are injective and cross-class tuples can never collide byte-wise —
//!   e.g. a `Date` key never aliases a `Timestamp` key even when string
//!   columns shift the layout.
//! - Tuples with different null patterns differ in the bitmap prefix, and
//!   `Null == Null` tuples encode identically (group keys treat NULLs as
//!   equal; joins skip NULL keys before the table is consulted).

use pixels_common::{Column, ColumnData, DataType};

/// FNV-1a 64-bit: deterministic, allocation-free, and fast on the short
/// keys produced by [`KeyEncoder`]. Not cryptographic — it only has to
/// spread TPC-H-shaped keys across buckets.
#[inline]
pub fn hash_bytes(bytes: &[u8]) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = OFFSET;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(PRIME);
    }
    h
}

/// Equality class of a key column; values from different classes are never
/// equal under `Value::eq`, and all numeric types share one class because
/// they widen before comparing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum KeyClass {
    Numeric,
    Boolean,
    Utf8,
    Date,
    Timestamp,
}

impl KeyClass {
    fn of(ty: DataType) -> KeyClass {
        match ty {
            DataType::Int32 | DataType::Int64 | DataType::Float64 => KeyClass::Numeric,
            DataType::Boolean => KeyClass::Boolean,
            DataType::Utf8 => KeyClass::Utf8,
            DataType::Date => KeyClass::Date,
            DataType::Timestamp => KeyClass::Timestamp,
        }
    }

    fn tag(self) -> u8 {
        match self {
            KeyClass::Numeric => 1,
            KeyClass::Boolean => 2,
            KeyClass::Utf8 => 3,
            KeyClass::Date => 4,
            KeyClass::Timestamp => 5,
        }
    }
}

/// Encodes one row of a fixed set of key columns into the byte format
/// above. Built once per operator from the key expressions' static types;
/// the per-row cost is a bitmap write plus one branch-free append per
/// column.
#[derive(Debug)]
pub struct KeyEncoder {
    classes: Vec<KeyClass>,
    bitmap_len: usize,
}

impl KeyEncoder {
    pub fn new(types: &[DataType]) -> KeyEncoder {
        KeyEncoder {
            classes: types.iter().map(|&t| KeyClass::of(t)).collect(),
            bitmap_len: types.len().div_ceil(8),
        }
    }

    pub fn num_columns(&self) -> usize {
        self.classes.len()
    }

    /// Encode row `row` of `cols` into `buf` (cleared first). Returns true
    /// when any key column is NULL — joins use this to skip the table
    /// entirely, matching SQL's "NULL keys never match". Accepts owned,
    /// borrowed, or `Cow` columns.
    pub fn encode_row<C: std::borrow::Borrow<Column>>(
        &self,
        cols: &[C],
        row: usize,
        buf: &mut Vec<u8>,
    ) -> bool {
        debug_assert_eq!(cols.len(), self.classes.len());
        buf.clear();
        buf.resize(self.bitmap_len, 0);
        let mut any_null = false;
        for (i, (col, class)) in cols.iter().zip(&self.classes).enumerate() {
            let col = col.borrow();
            if col.is_null(row) {
                buf[i / 8] |= 1 << (i % 8);
                any_null = true;
                continue;
            }
            buf.push(class.tag());
            match col.data() {
                // Widen every numeric through its f64 bit pattern: equal
                // values (under Value::eq's total_cmp) have equal bits, and
                // integers are exact in f64 up to 2^53.
                ColumnData::Int32(v) => {
                    buf.extend_from_slice(&(v[row] as f64).to_bits().to_le_bytes())
                }
                ColumnData::Int64(v) => {
                    buf.extend_from_slice(&(v[row] as f64).to_bits().to_le_bytes())
                }
                ColumnData::Float64(v) => buf.extend_from_slice(&v[row].to_bits().to_le_bytes()),
                ColumnData::Boolean(v) => buf.push(v[row] as u8),
                ColumnData::Utf8(v) => {
                    let s = v.get(row).as_bytes();
                    buf.extend_from_slice(&(s.len() as u32).to_le_bytes());
                    buf.extend_from_slice(s);
                }
                ColumnData::Date(v) => buf.extend_from_slice(&v[row].to_le_bytes()),
                ColumnData::Timestamp(v) => buf.extend_from_slice(&v[row].to_le_bytes()),
            }
        }
        any_null
    }
}

const EMPTY_BUCKET: u32 = u32::MAX;

/// An open-addressing hash table over interned key byte-rows.
///
/// Keys live contiguously in one arena; entries are dense indices in
/// insertion order (which is what gives aggregation its first-appearance
/// group order). Lookup hashes with FNV-1a and compares candidates by
/// memcmp — no per-row allocation, no SipHash.
#[derive(Debug)]
pub struct KeyTable {
    /// Bucket array (power-of-two length); each slot holds an entry index
    /// or `EMPTY_BUCKET`.
    buckets: Vec<u32>,
    /// Cached hash per entry, reused on growth so keys are never rehashed.
    hashes: Vec<u64>,
    /// `(offset, len)` of each entry's key bytes in `arena`.
    spans: Vec<(usize, u32)>,
    arena: Vec<u8>,
}

impl Default for KeyTable {
    fn default() -> Self {
        KeyTable::new()
    }
}

impl KeyTable {
    pub fn new() -> KeyTable {
        KeyTable {
            buckets: vec![EMPTY_BUCKET; 16],
            hashes: Vec::new(),
            spans: Vec::new(),
            arena: Vec::new(),
        }
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

    /// Find `key`'s entry index, or insert it and return the new index.
    /// The `bool` is true when the key was newly inserted.
    pub fn intern(&mut self, key: &[u8]) -> (usize, bool) {
        if (self.spans.len() + 1) * 4 > self.buckets.len() * 3 {
            self.grow();
        }
        let hash = hash_bytes(key);
        let mask = self.buckets.len() - 1;
        let mut idx = (hash as usize) & mask;
        loop {
            let slot = self.buckets[idx];
            if slot == EMPTY_BUCKET {
                let entry = self.spans.len();
                self.buckets[idx] = entry as u32;
                self.hashes.push(hash);
                let off = self.arena.len();
                self.arena.extend_from_slice(key);
                self.spans.push((off, key.len() as u32));
                return (entry, true);
            }
            let e = slot as usize;
            if self.hashes[e] == hash && self.key_bytes(e) == key {
                return (e, false);
            }
            idx = (idx + 1) & mask;
        }
    }

    /// Find `key` without inserting.
    pub fn lookup(&self, key: &[u8]) -> Option<usize> {
        let hash = hash_bytes(key);
        let mask = self.buckets.len() - 1;
        let mut idx = (hash as usize) & mask;
        loop {
            let slot = self.buckets[idx];
            if slot == EMPTY_BUCKET {
                return None;
            }
            let e = slot as usize;
            if self.hashes[e] == hash && self.key_bytes(e) == key {
                return Some(e);
            }
            idx = (idx + 1) & mask;
        }
    }

    fn grow(&mut self) {
        let new_len = self.buckets.len() * 2;
        let mask = new_len - 1;
        let mut buckets = vec![EMPTY_BUCKET; new_len];
        for (e, &hash) in self.hashes.iter().enumerate() {
            let mut idx = (hash as usize) & mask;
            while buckets[idx] != EMPTY_BUCKET {
                idx = (idx + 1) & mask;
            }
            buckets[idx] = e as u32;
        }
        self.buckets = buckets;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pixels_common::Value;

    fn col(ty: DataType, vals: &[Value]) -> Column {
        Column::from_values(ty, vals).unwrap()
    }

    fn encode(enc: &KeyEncoder, cols: &[Column], row: usize) -> (Vec<u8>, bool) {
        let mut buf = Vec::new();
        let null = enc.encode_row(cols, row, &mut buf);
        (buf, null)
    }

    #[test]
    fn numeric_widening_encodes_equal() {
        // Int32(7), Int64(7), Float64(7.0) are all equal under Value::eq
        // and must intern to the same entry.
        let enc32 = KeyEncoder::new(&[DataType::Int32]);
        let enc64 = KeyEncoder::new(&[DataType::Int64]);
        let encf = KeyEncoder::new(&[DataType::Float64]);
        let c32 = col(DataType::Int32, &[Value::Int32(7)]);
        let c64 = col(DataType::Int64, &[Value::Int64(7)]);
        let cf = col(DataType::Float64, &[Value::Float64(7.0)]);
        let (a, _) = encode(&enc32, std::slice::from_ref(&c32), 0);
        let (b, _) = encode(&enc64, std::slice::from_ref(&c64), 0);
        let (c, _) = encode(&encf, std::slice::from_ref(&cf), 0);
        assert_eq!(a, b);
        assert_eq!(b, c);
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
            assert_eq!(t.lookup(key), Some(i));
            assert_eq!(t.key_bytes(i), key);
        }
        assert_eq!(t.lookup(&5000u64.to_le_bytes()), None);
    }

    #[test]
    fn hash_is_deterministic() {
        assert_eq!(hash_bytes(b"lineitem"), hash_bytes(b"lineitem"));
        assert_ne!(hash_bytes(b"a"), hash_bytes(b"b"));
        // FNV-1a reference vector.
        assert_eq!(hash_bytes(b""), 0xcbf2_9ce4_8422_2325);
    }
}
