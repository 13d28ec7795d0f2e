//! Little-endian binary primitives used by the Pixels file format.
//!
//! A `Writer` appends primitives to a growable buffer; a `Reader` walks a
//! byte slice with bounds checking, returning storage errors instead of
//! panicking on truncated input.

use pixels_common::{DataType, Error, Result, Value};

/// Append-only binary writer.
#[derive(Debug, Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    pub fn new() -> Self {
        Writer::default()
    }

    pub fn with_capacity(cap: usize) -> Self {
        Writer {
            buf: Vec::with_capacity(cap),
        }
    }

    pub fn len(&self) -> usize {
        self.buf.len()
    }

    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn put_i32(&mut self, v: i32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn put_i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn put_f64(&mut self, v: f64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn put_bool(&mut self, v: bool) {
        self.buf.push(v as u8);
    }

    /// Length-prefixed UTF-8 string.
    pub fn put_str(&mut self, s: &str) {
        self.put_u32(s.len() as u32);
        self.buf.extend_from_slice(s.as_bytes());
    }

    /// Length-prefixed raw bytes.
    pub fn put_bytes(&mut self, b: &[u8]) {
        self.put_u32(b.len() as u32);
        self.buf.extend_from_slice(b);
    }

    /// Raw bytes without a length prefix (caller tracks framing).
    pub fn put_raw(&mut self, b: &[u8]) {
        self.buf.extend_from_slice(b);
    }

    /// Type tag + payload for a scalar value (used for zone-map stats).
    pub fn put_value(&mut self, v: &Value) {
        match v {
            Value::Null => self.put_u8(0),
            Value::Boolean(b) => {
                self.put_u8(1);
                self.put_bool(*b);
            }
            Value::Int32(x) => {
                self.put_u8(2);
                self.put_i32(*x);
            }
            Value::Int64(x) => {
                self.put_u8(3);
                self.put_i64(*x);
            }
            Value::Float64(x) => {
                self.put_u8(4);
                self.put_f64(*x);
            }
            Value::Utf8(s) => {
                self.put_u8(5);
                self.put_str(s);
            }
            Value::Date(d) => {
                self.put_u8(6);
                self.put_i32(*d);
            }
            Value::Timestamp(t) => {
                self.put_u8(7);
                self.put_i64(*t);
            }
        }
    }

    pub fn put_data_type(&mut self, ty: DataType) {
        let tag = match ty {
            DataType::Boolean => 1u8,
            DataType::Int32 => 2,
            DataType::Int64 => 3,
            DataType::Float64 => 4,
            DataType::Utf8 => 5,
            DataType::Date => 6,
            DataType::Timestamp => 7,
        };
        self.put_u8(tag);
    }
}

/// Bounds-checked binary reader over a byte slice.
#[derive(Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    pub fn is_at_end(&self) -> bool {
        self.pos == self.buf.len()
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        if self.remaining() < n {
            return Err(Error::Storage(format!(
                "truncated data: needed {n} bytes, {} remaining",
                self.remaining()
            )));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    pub fn get_u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }

    pub fn get_u32(&mut self) -> Result<u32> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    pub fn get_u64(&mut self) -> Result<u64> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    pub fn get_i32(&mut self) -> Result<i32> {
        Ok(i32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    pub fn get_i64(&mut self) -> Result<i64> {
        Ok(i64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    pub fn get_f64(&mut self) -> Result<f64> {
        Ok(f64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    pub fn get_bool(&mut self) -> Result<bool> {
        Ok(self.get_u8()? != 0)
    }

    pub fn get_str(&mut self) -> Result<String> {
        self.get_str_ref().map(str::to_owned)
    }

    /// A length-prefixed string, validated and borrowed from the input.
    pub fn get_str_ref(&mut self) -> Result<&'a str> {
        let len = self.get_u32()? as usize;
        std::str::from_utf8(self.take(len)?)
            .map_err(|_| Error::Storage("invalid UTF-8 in string".into()))
    }

    pub fn get_bytes(&mut self) -> Result<&'a [u8]> {
        let len = self.get_u32()? as usize;
        self.take(len)
    }

    pub fn get_raw(&mut self, n: usize) -> Result<&'a [u8]> {
        self.take(n)
    }

    pub fn get_value(&mut self) -> Result<Value> {
        Ok(match self.get_u8()? {
            0 => Value::Null,
            1 => Value::Boolean(self.get_bool()?),
            2 => Value::Int32(self.get_i32()?),
            3 => Value::Int64(self.get_i64()?),
            4 => Value::Float64(self.get_f64()?),
            5 => Value::Utf8(self.get_str()?),
            6 => Value::Date(self.get_i32()?),
            7 => Value::Timestamp(self.get_i64()?),
            t => return Err(Error::Storage(format!("unknown value tag {t}"))),
        })
    }

    pub fn get_data_type(&mut self) -> Result<DataType> {
        Ok(match self.get_u8()? {
            1 => DataType::Boolean,
            2 => DataType::Int32,
            3 => DataType::Int64,
            4 => DataType::Float64,
            5 => DataType::Utf8,
            6 => DataType::Date,
            7 => DataType::Timestamp,
            t => return Err(Error::Storage(format!("unknown data type tag {t}"))),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitive_roundtrip() {
        let mut w = Writer::new();
        w.put_u8(7);
        w.put_u32(0xDEAD_BEEF);
        w.put_u64(u64::MAX);
        w.put_i32(-42);
        w.put_i64(i64::MIN);
        w.put_f64(3.5);
        w.put_bool(true);
        w.put_str("héllo");
        w.put_bytes(&[1, 2, 3]);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert_eq!(r.get_u8().unwrap(), 7);
        assert_eq!(r.get_u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.get_u64().unwrap(), u64::MAX);
        assert_eq!(r.get_i32().unwrap(), -42);
        assert_eq!(r.get_i64().unwrap(), i64::MIN);
        assert_eq!(r.get_f64().unwrap(), 3.5);
        assert!(r.get_bool().unwrap());
        assert_eq!(r.get_str().unwrap(), "héllo");
        assert_eq!(r.get_bytes().unwrap(), &[1, 2, 3]);
        assert!(r.is_at_end());
    }

    #[test]
    fn value_roundtrip() {
        let values = [
            Value::Null,
            Value::Boolean(false),
            Value::Int32(-1),
            Value::Int64(1 << 40),
            Value::Float64(-0.25),
            Value::Utf8("pixels".into()),
            Value::Date(19000),
            Value::Timestamp(1_234_567_890_123),
        ];
        let mut w = Writer::new();
        for v in &values {
            w.put_value(v);
        }
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        for v in &values {
            assert_eq!(&r.get_value().unwrap(), v);
        }
    }

    #[test]
    fn data_type_roundtrip() {
        let types = [
            DataType::Boolean,
            DataType::Int32,
            DataType::Int64,
            DataType::Float64,
            DataType::Utf8,
            DataType::Date,
            DataType::Timestamp,
        ];
        let mut w = Writer::new();
        for t in types {
            w.put_data_type(t);
        }
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        for t in types {
            assert_eq!(r.get_data_type().unwrap(), t);
        }
    }

    #[test]
    fn truncation_is_an_error_not_a_panic() {
        let mut w = Writer::new();
        w.put_u64(1);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes[..4]);
        assert!(r.get_u64().is_err());
        let mut r2 = Reader::new(&[5, 0, 0, 0, b'a']); // claims 5 bytes, has 1
        assert!(r2.get_str().is_err());
    }

    #[test]
    fn invalid_tags_error() {
        let mut r = Reader::new(&[99]);
        assert!(r.get_value().is_err());
        let mut r = Reader::new(&[0]);
        assert!(r.get_data_type().is_err());
    }
}
