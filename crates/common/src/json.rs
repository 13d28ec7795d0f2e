//! A small, dependency-free JSON codec.
//!
//! PixelsDB exchanges JSON messages between Pixels-Rover and the text-to-SQL
//! service (the paper's CodeS REST API) and uses JSON for query-status
//! payloads. To stay within the project's allowed dependency list this module
//! implements the subset of JSON we need (full parsing, object/array
//! construction, escaping) rather than pulling in `serde_json`.

use crate::error::{Error, Result};
use std::collections::BTreeMap;
use std::fmt;

/// A JSON document. Objects keep keys sorted (BTreeMap), which makes
/// serialized output deterministic — handy for golden tests.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Number(f64),
    String(String),
    Array(Vec<Json>),
    Object(BTreeMap<String, Json>),
}

impl Json {
    /// Parse a JSON document from text.
    pub fn parse(input: &str) -> Result<Json> {
        let mut p = Parser {
            bytes: input.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let v = p.parse_value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing characters after JSON document"));
        }
        Ok(v)
    }

    /// Build an object from key/value pairs.
    pub fn object(pairs: impl IntoIterator<Item = (impl Into<String>, Json)>) -> Json {
        Json::Object(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// Build an array.
    pub fn array(items: impl IntoIterator<Item = Json>) -> Json {
        Json::Array(items.into_iter().collect())
    }

    pub fn string(s: impl Into<String>) -> Json {
        Json::String(s.into())
    }

    pub fn number(n: impl Into<f64>) -> Json {
        Json::Number(n.into())
    }

    /// Member lookup on an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Object(m) => m.get(key),
            _ => None,
        }
    }

    /// Member lookup that fails with a descriptive error.
    pub fn get_or_err(&self, key: &str) -> Result<&Json> {
        self.get(key)
            .ok_or_else(|| Error::Invalid(format!("missing JSON field: {key}")))
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::String(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Number(n) => Some(*n),
            _ => None,
        }
    }

    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Json::Number(n) if n.fract() == 0.0 => Some(*n as i64),
            _ => None,
        }
    }

    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Array(a) => Some(a),
            _ => None,
        }
    }

    pub fn is_null(&self) -> bool {
        matches!(self, Json::Null)
    }

    /// Serialize compactly (no extra whitespace).
    pub fn to_compact_string(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Number(n) => write_number(*n, out),
            Json::String(s) => write_escaped(s, out),
            Json::Array(items) => {
                out.push('[');
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    v.write(out);
                }
                out.push(']');
            }
            Json::Object(map) => {
                out.push('{');
                for (i, (k, v)) in map.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_escaped(k, out);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_compact_string())
    }
}

/// Append `n` as JSON text, as [`Json::to_compact_string`] writes numbers:
/// integral values below 1e15 without a fraction, non-finite values as
/// `null`. Public so a writer that skips the [`Json`] tree stays
/// byte-identical to one that builds it.
pub fn write_number(n: f64, out: &mut String) {
    use fmt::Write as _;
    // Writing to a `String` cannot fail.
    let _ = if !n.is_finite() {
        // JSON has no Inf/NaN; emit null like most encoders.
        out.write_str("null")
    } else if n.fract() == 0.0 && n.abs() < 1e15 {
        write!(out, "{}", n as i64)
    } else {
        write!(out, "{n}")
    };
}

/// Append `s` as a quoted, escaped JSON string (see [`write_number`]).
pub fn write_escaped(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                use fmt::Write as _;
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, msg: &str) -> Error {
        Error::Invalid(format!("JSON parse error at byte {}: {msg}", self.pos))
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek()?;
        self.pos += 1;
        Some(b)
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<()> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected {:?}", b as char)))
        }
    }

    fn parse_value(&mut self) -> Result<Json> {
        self.skip_ws();
        match self.peek() {
            Some(b'n') => self.parse_lit("null", Json::Null),
            Some(b't') => self.parse_lit("true", Json::Bool(true)),
            Some(b'f') => self.parse_lit("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::String(self.parse_string()?)),
            Some(b'[') => self.parse_array(),
            Some(b'{') => self.parse_object(),
            Some(b'-' | b'0'..=b'9') => self.parse_number(),
            _ => Err(self.err("unexpected character")),
        }
    }

    fn parse_lit(&mut self, lit: &str, value: Json) -> Result<Json> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected literal {lit}")))
        }
    }

    fn parse_number(&mut self) -> Result<Json> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(
            self.peek(),
            Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
        ) {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("invalid number bytes"))?;
        text.parse::<f64>()
            .map(Json::Number)
            .map_err(|_| self.err(&format!("invalid number {text:?}")))
    }

    fn parse_string(&mut self) -> Result<String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.bump() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => return Ok(out),
                Some(b'\\') => match self.bump() {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let cp = self.parse_hex4()?;
                        // Handle surrogate pairs for non-BMP characters.
                        let c = if (0xD800..0xDC00).contains(&cp) {
                            if self.bump() != Some(b'\\') || self.bump() != Some(b'u') {
                                return Err(self.err("lone high surrogate"));
                            }
                            let low = self.parse_hex4()?;
                            if !(0xDC00..0xE000).contains(&low) {
                                return Err(self.err("invalid low surrogate"));
                            }
                            let combined = 0x10000 + ((cp - 0xD800) << 10) + (low - 0xDC00);
                            char::from_u32(combined)
                        } else {
                            char::from_u32(cp)
                        };
                        out.push(c.ok_or_else(|| self.err("invalid unicode escape"))?);
                    }
                    _ => return Err(self.err("invalid escape sequence")),
                },
                Some(b) if b < 0x80 => out.push(b as char),
                Some(b) => {
                    // Multi-byte UTF-8: copy the remaining continuation bytes.
                    let width = match b {
                        0xC0..=0xDF => 2,
                        0xE0..=0xEF => 3,
                        0xF0..=0xF7 => 4,
                        _ => return Err(self.err("invalid UTF-8 lead byte")),
                    };
                    let start = self.pos - 1;
                    let end = start + width;
                    if end > self.bytes.len() {
                        return Err(self.err("truncated UTF-8 sequence"));
                    }
                    let s = std::str::from_utf8(&self.bytes[start..end])
                        .map_err(|_| self.err("invalid UTF-8 sequence"))?;
                    out.push_str(s);
                    self.pos = end;
                }
            }
        }
    }

    fn parse_hex4(&mut self) -> Result<u32> {
        let mut cp = 0u32;
        for _ in 0..4 {
            let b = self
                .bump()
                .ok_or_else(|| self.err("truncated \\u escape"))?;
            let d = (b as char)
                .to_digit(16)
                .ok_or_else(|| self.err("invalid hex digit in \\u escape"))?;
            cp = cp * 16 + d;
        }
        Ok(cp)
    }

    fn parse_array(&mut self) -> Result<Json> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Array(items));
        }
        loop {
            items.push(self.parse_value()?);
            self.skip_ws();
            match self.bump() {
                Some(b',') => continue,
                Some(b']') => return Ok(Json::Array(items)),
                _ => return Err(self.err("expected ',' or ']' in array")),
            }
        }
    }

    fn parse_object(&mut self) -> Result<Json> {
        self.expect(b'{')?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Object(map));
        }
        loop {
            self.skip_ws();
            let key = self.parse_string()?;
            self.skip_ws();
            self.expect(b':')?;
            let value = self.parse_value()?;
            map.insert(key, value);
            self.skip_ws();
            match self.bump() {
                Some(b',') => continue,
                Some(b'}') => return Ok(Json::Object(map)),
                _ => return Err(self.err("expected ',' or '}' in object")),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_scalars() {
        assert_eq!(Json::parse("null").unwrap(), Json::Null);
        assert_eq!(Json::parse("true").unwrap(), Json::Bool(true));
        assert_eq!(Json::parse(" -12.5e1 ").unwrap(), Json::Number(-125.0));
        assert_eq!(
            Json::parse(r#""hi\nthere""#).unwrap(),
            Json::String("hi\nthere".into())
        );
    }

    #[test]
    fn parse_nested() {
        let j = Json::parse(r#"{"a": [1, 2, {"b": null}], "c": "x"}"#).unwrap();
        assert_eq!(j.get("c").unwrap().as_str(), Some("x"));
        let arr = j.get("a").unwrap().as_array().unwrap();
        assert_eq!(arr.len(), 3);
        assert!(arr[2].get("b").unwrap().is_null());
    }

    #[test]
    fn roundtrip_compact() {
        let j = Json::object([
            ("question", Json::string("how many orders?")),
            ("limit", Json::number(100.0)),
            ("tables", Json::array([Json::string("orders")])),
        ]);
        let text = j.to_compact_string();
        assert_eq!(Json::parse(&text).unwrap(), j);
        // BTreeMap keys are sorted, so output is deterministic.
        assert_eq!(
            text,
            r#"{"limit":100,"question":"how many orders?","tables":["orders"]}"#
        );
    }

    #[test]
    fn escapes_roundtrip() {
        let j = Json::String("quote \" slash \\ tab \t newline \n unicode é 你好".into());
        let text = j.to_compact_string();
        assert_eq!(Json::parse(&text).unwrap(), j);
    }

    #[test]
    fn unicode_escape_and_surrogates() {
        assert_eq!(Json::parse(r#""Aé""#).unwrap(), Json::String("Aé".into()));
        assert_eq!(Json::parse(r#""😀""#).unwrap(), Json::String("😀".into()));
        assert!(Json::parse(r#""\ud83d""#).is_err());
    }

    #[test]
    fn rejects_garbage() {
        assert!(Json::parse("{").is_err());
        assert!(Json::parse("[1,]").is_err());
        assert!(Json::parse("nul").is_err());
        assert!(Json::parse("1 2").is_err());
        assert!(Json::parse(r#"{"a" 1}"#).is_err());
    }

    #[test]
    fn integer_accessors() {
        let j = Json::parse("42").unwrap();
        assert_eq!(j.as_i64(), Some(42));
        assert_eq!(Json::parse("42.5").unwrap().as_i64(), None);
    }

    #[test]
    fn missing_field_error_names_field() {
        let j = Json::object([("a", Json::Null)]);
        let err = j.get_or_err("question").unwrap_err();
        assert!(err.message().contains("question"));
    }
}
