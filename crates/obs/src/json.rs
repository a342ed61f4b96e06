//! Hand-rolled JSON construction and parsing — no serde, no external
//! crates.
//!
//! The observability layer must stay inside the workspace's offline
//! build gate, so artifacts and JSONL events are serialized by this
//! writer instead of a serialization framework. Objects keep their
//! insertion order, which makes every emitted document
//! byte-deterministic for a given input. [`JsonValue::parse`] is the
//! matching recursive-descent reader (used by the campaign daemon's
//! wire protocol and cache spill files): it accepts exactly the JSON
//! grammar, reports structured [`JsonError`]s with byte offsets, and
//! round-trips everything this module writes.

use std::error::Error;
use std::fmt;
use std::fmt::Write as _;

/// Maximum nesting depth [`JsonValue::parse`] accepts, bounding the
/// parser's recursion on adversarial input.
pub const MAX_PARSE_DEPTH: usize = 128;

/// A JSON value with deterministic (insertion-ordered) objects.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A signed integer (serialized without a decimal point).
    Int(i64),
    /// An unsigned integer (serialized without a decimal point).
    UInt(u64),
    /// A finite float. Non-finite values serialize as `null` (JSON has
    /// no NaN/Infinity).
    Float(f64),
    /// A string (escaped on output).
    Str(String),
    /// An array.
    Array(Vec<JsonValue>),
    /// An object, in insertion order.
    Object(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// An empty object, ready for [`JsonValue::push`].
    pub fn object() -> JsonValue {
        JsonValue::Object(Vec::new())
    }

    /// Appends a key/value pair to an object (builder style).
    ///
    /// # Panics
    ///
    /// Panics if `self` is not an object.
    pub fn push(mut self, key: &str, value: impl Into<JsonValue>) -> JsonValue {
        match &mut self {
            JsonValue::Object(pairs) => pairs.push((key.to_string(), value.into())),
            other => panic!("push on non-object JSON value {other:?}"),
        }
        self
    }

    /// Serializes to a compact, single-line JSON string.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        self.write_json(&mut out);
        out
    }

    /// Serializes with two-space indentation (for human-read artifacts).
    pub fn to_json_pretty(&self) -> String {
        let mut out = String::new();
        self.write_pretty(&mut out, 0);
        out.push('\n');
        out
    }

    /// Appends the compact serialization ([`JsonValue::to_json`]) to
    /// `out`.
    pub fn write_json(&self, out: &mut String) {
        match self {
            JsonValue::Null => out.push_str("null"),
            JsonValue::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            JsonValue::Int(i) => {
                let _ = write!(out, "{i}");
            }
            JsonValue::UInt(u) => {
                let _ = write!(out, "{u}");
            }
            JsonValue::Float(f) => write_float(out, *f),
            JsonValue::Str(s) => write_escaped(out, s),
            JsonValue::Array(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write_json(out);
                }
                out.push(']');
            }
            JsonValue::Object(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_escaped(out, k);
                    out.push(':');
                    v.write_json(out);
                }
                out.push('}');
            }
        }
    }

    fn write_pretty(&self, out: &mut String, depth: usize) {
        match self {
            JsonValue::Array(items) if !items.is_empty() => {
                out.push_str("[\n");
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push_str(",\n");
                    }
                    indent(out, depth + 1);
                    item.write_pretty(out, depth + 1);
                }
                out.push('\n');
                indent(out, depth);
                out.push(']');
            }
            JsonValue::Object(pairs) if !pairs.is_empty() => {
                out.push_str("{\n");
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push_str(",\n");
                    }
                    indent(out, depth + 1);
                    write_escaped(out, k);
                    out.push_str(": ");
                    v.write_pretty(out, depth + 1);
                }
                out.push('\n');
                indent(out, depth);
                out.push('}');
            }
            other => other.write_json(out),
        }
    }
}

impl JsonValue {
    /// Parses one complete JSON document (trailing whitespace allowed,
    /// trailing garbage rejected).
    ///
    /// # Errors
    ///
    /// Returns a [`JsonError`] naming the problem and its byte offset.
    pub fn parse(text: &str) -> Result<JsonValue, JsonError> {
        let mut p = Parser { bytes: text.as_bytes(), pos: 0 };
        p.skip_ws();
        let value = p.value(0)?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.error("trailing characters after JSON document"));
        }
        Ok(value)
    }

    /// The value under `key` if `self` is an object containing it.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Object(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if `self` is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The boolean payload, if `self` is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            JsonValue::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as a `u64`, if it is a non-negative integer.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            JsonValue::UInt(u) => Some(*u),
            JsonValue::Int(i) if *i >= 0 => Some(*i as u64),
            _ => None,
        }
    }

    /// The value as an `i64`, if it is an integer in range.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            JsonValue::Int(i) => Some(*i),
            JsonValue::UInt(u) => i64::try_from(*u).ok(),
            _ => None,
        }
    }

    /// The value as an `f64`, if it is any number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Float(f) => Some(*f),
            JsonValue::Int(i) => Some(*i as f64),
            JsonValue::UInt(u) => Some(*u as f64),
            _ => None,
        }
    }

    /// The element slice, if `self` is an array.
    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Array(items) => Some(items),
            _ => None,
        }
    }

    /// The key/value pairs, if `self` is an object.
    pub fn as_object(&self) -> Option<&[(String, JsonValue)]> {
        match self {
            JsonValue::Object(pairs) => Some(pairs),
            _ => None,
        }
    }
}

/// A JSON parse failure: what went wrong and the byte offset at which
/// the parser gave up.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Human-readable description of the problem.
    pub message: String,
    /// Byte offset into the input at the point of failure.
    pub offset: usize,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON parse error at byte {}: {}", self.offset, self.message)
    }
}

impl Error for JsonError {}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn error(&self, message: &str) -> JsonError {
        JsonError { message: message.to_string(), offset: self.pos }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, byte: u8) -> Result<(), JsonError> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.error(&format!("expected '{}'", byte as char)))
        }
    }

    fn literal(&mut self, word: &str, value: JsonValue) -> Result<JsonValue, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.error(&format!("invalid literal (expected '{word}')")))
        }
    }

    fn value(&mut self, depth: usize) -> Result<JsonValue, JsonError> {
        if depth > MAX_PARSE_DEPTH {
            return Err(self.error("nesting deeper than MAX_PARSE_DEPTH"));
        }
        match self.peek() {
            None => Err(self.error("unexpected end of input")),
            Some(b'n') => self.literal("null", JsonValue::Null),
            Some(b't') => self.literal("true", JsonValue::Bool(true)),
            Some(b'f') => self.literal("false", JsonValue::Bool(false)),
            Some(b'"') => Ok(JsonValue::Str(self.string()?)),
            Some(b'[') => self.array(depth),
            Some(b'{') => self.object(depth),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(c) => Err(self.error(&format!("unexpected character '{}'", c as char))),
        }
    }

    fn array(&mut self, depth: usize) -> Result<JsonValue, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(JsonValue::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(JsonValue::Array(items));
                }
                _ => return Err(self.error("expected ',' or ']' in array")),
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<JsonValue, JsonError> {
        self.expect(b'{')?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(JsonValue::Object(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value(depth + 1)?;
            pairs.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(JsonValue::Object(pairs));
                }
                _ => return Err(self.error("expected ',' or '}' in object")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let Some(c) = self.peek() else {
                return Err(self.error("unterminated string"));
            };
            self.pos += 1;
            match c {
                b'"' => return Ok(out),
                b'\\' => {
                    let Some(esc) = self.peek() else {
                        return Err(self.error("unterminated escape"));
                    };
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let unit = self.hex4()?;
                            let scalar = if (0xD800..0xDC00).contains(&unit) {
                                // High surrogate: require the low half.
                                if self.peek() == Some(b'\\') {
                                    self.pos += 1;
                                    self.expect(b'u')?;
                                } else {
                                    return Err(self.error("unpaired surrogate"));
                                }
                                let low = self.hex4()?;
                                if !(0xDC00..0xE000).contains(&low) {
                                    return Err(self.error("invalid low surrogate"));
                                }
                                0x10000 + ((unit as u32 - 0xD800) << 10) + (low as u32 - 0xDC00)
                            } else if (0xDC00..0xE000).contains(&unit) {
                                return Err(self.error("unpaired low surrogate"));
                            } else {
                                unit as u32
                            };
                            match char::from_u32(scalar) {
                                Some(ch) => out.push(ch),
                                None => return Err(self.error("invalid unicode escape")),
                            }
                        }
                        _ => return Err(self.error("invalid escape character")),
                    }
                }
                c if c < 0x20 => return Err(self.error("raw control character in string")),
                c if c < 0x80 => out.push(c as char),
                _ => {
                    // Multi-byte UTF-8: the input is a &str, so the
                    // sequence is valid; copy it through.
                    let start = self.pos - 1;
                    let mut end = self.pos;
                    while end < self.bytes.len() && (self.bytes[end] & 0xC0) == 0x80 {
                        end += 1;
                    }
                    let chunk = std::str::from_utf8(&self.bytes[start..end])
                        .map_err(|_| self.error("invalid UTF-8 in string"))?;
                    out.push_str(chunk);
                    self.pos = end;
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u16, JsonError> {
        let mut v: u16 = 0;
        for _ in 0..4 {
            let Some(c) = self.peek() else {
                return Err(self.error("truncated \\u escape"));
            };
            let digit = match c {
                b'0'..=b'9' => c - b'0',
                b'a'..=b'f' => c - b'a' + 10,
                b'A'..=b'F' => c - b'A' + 10,
                _ => return Err(self.error("invalid hex digit in \\u escape")),
            };
            v = (v << 4) | digit as u16;
            self.pos += 1;
        }
        Ok(v)
    }

    fn number(&mut self) -> Result<JsonValue, JsonError> {
        let start = self.pos;
        let negative = self.peek() == Some(b'-');
        if negative {
            self.pos += 1;
        }
        let int_digits = self.digits()?;
        if int_digits > 1 && self.bytes[start + negative as usize] == b'0' {
            return Err(self.error("leading zero in number"));
        }
        let mut float = false;
        if self.peek() == Some(b'.') {
            float = true;
            self.pos += 1;
            self.digits()?;
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            float = true;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            self.digits()?;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ASCII number");
        if !float {
            if negative {
                if let Ok(i) = text.parse::<i64>() {
                    return Ok(JsonValue::Int(i));
                }
            } else if let Ok(u) = text.parse::<u64>() {
                return Ok(JsonValue::UInt(u));
            }
        }
        text.parse::<f64>()
            .map(JsonValue::Float)
            .map_err(|_| JsonError { message: "invalid number".into(), offset: start })
    }

    fn digits(&mut self) -> Result<usize, JsonError> {
        let start = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if self.pos == start {
            return Err(self.error("expected digits"));
        }
        Ok(self.pos - start)
    }
}

fn indent(out: &mut String, depth: usize) {
    for _ in 0..depth {
        out.push_str("  ");
    }
}

/// Floats print with enough precision to round-trip (`{:?}` on f64 is
/// the shortest representation that parses back exactly); non-finite
/// values become `null`.
fn write_float(out: &mut String, f: f64) {
    if f.is_finite() {
        let _ = write!(out, "{f:?}");
    } else {
        out.push_str("null");
    }
}

fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

impl From<bool> for JsonValue {
    fn from(v: bool) -> Self {
        JsonValue::Bool(v)
    }
}

impl From<i64> for JsonValue {
    fn from(v: i64) -> Self {
        JsonValue::Int(v)
    }
}

impl From<u32> for JsonValue {
    fn from(v: u32) -> Self {
        JsonValue::UInt(v as u64)
    }
}

impl From<u64> for JsonValue {
    fn from(v: u64) -> Self {
        JsonValue::UInt(v)
    }
}

impl From<usize> for JsonValue {
    fn from(v: usize) -> Self {
        JsonValue::UInt(v as u64)
    }
}

impl From<f64> for JsonValue {
    fn from(v: f64) -> Self {
        JsonValue::Float(v)
    }
}

impl From<&str> for JsonValue {
    fn from(v: &str) -> Self {
        JsonValue::Str(v.to_string())
    }
}

impl From<String> for JsonValue {
    fn from(v: String) -> Self {
        JsonValue::Str(v)
    }
}

impl<T: Into<JsonValue>> From<Vec<T>> for JsonValue {
    fn from(v: Vec<T>) -> Self {
        JsonValue::Array(v.into_iter().map(Into::into).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_serialize() {
        assert_eq!(JsonValue::Null.to_json(), "null");
        assert_eq!(JsonValue::Bool(true).to_json(), "true");
        assert_eq!(JsonValue::Int(-3).to_json(), "-3");
        assert_eq!(JsonValue::UInt(u64::MAX).to_json(), "18446744073709551615");
        assert_eq!(JsonValue::Float(0.5).to_json(), "0.5");
        assert_eq!(JsonValue::Float(f64::NAN).to_json(), "null");
        assert_eq!(JsonValue::Float(f64::INFINITY).to_json(), "null");
    }

    #[test]
    fn strings_escape_control_and_quote_characters() {
        let v = JsonValue::from("a\"b\\c\nd\te\r\u{1}");
        assert_eq!(v.to_json(), "\"a\\\"b\\\\c\\nd\\te\\r\\u0001\"");
    }

    #[test]
    fn objects_keep_insertion_order() {
        let v = JsonValue::object()
            .push("zebra", 1u64)
            .push("alpha", 2u64)
            .push("nested", JsonValue::from(vec![1i64, 2, 3]));
        assert_eq!(v.to_json(), "{\"zebra\":1,\"alpha\":2,\"nested\":[1,2,3]}");
    }

    #[test]
    fn floats_round_trip_shortest() {
        assert_eq!(JsonValue::Float(0.1).to_json(), "0.1");
        assert_eq!(JsonValue::Float(1.0).to_json(), "1.0");
        assert_eq!(JsonValue::Float(1e300).to_json(), "1e300");
    }

    #[test]
    fn pretty_output_is_indented_and_parses_the_same_shape() {
        let v = JsonValue::object()
            .push("a", 1u64)
            .push("b", JsonValue::Array(vec![JsonValue::Bool(false)]));
        let pretty = v.to_json_pretty();
        assert!(pretty.contains("\n  \"a\": 1"));
        assert!(pretty.ends_with("}\n"));
        // Empty containers stay compact.
        assert_eq!(JsonValue::object().to_json_pretty(), "{}\n");
        assert_eq!(JsonValue::Array(vec![]).to_json_pretty(), "[]\n");
    }

    #[test]
    #[should_panic(expected = "non-object")]
    fn push_on_array_panics() {
        let _ = JsonValue::Array(vec![]).push("k", 1u64);
    }

    #[test]
    fn parse_round_trips_written_documents() {
        let v = JsonValue::object()
            .push("name", "LFSR-D")
            .push("count", 4096u64)
            .push("neg", -17i64)
            .push("ratio", 0.125)
            .push("flag", true)
            .push("nothing", JsonValue::Null)
            .push("list", JsonValue::from(vec![1u64, 2, 3]))
            .push("nested", JsonValue::object().push("k", "v\n\"q\""));
        let compact = v.to_json();
        assert_eq!(JsonValue::parse(&compact).unwrap(), v);
        // Pretty output parses back to the same value too.
        assert_eq!(JsonValue::parse(&v.to_json_pretty()).unwrap(), v);
    }

    #[test]
    fn parse_classifies_numbers() {
        assert_eq!(JsonValue::parse("42").unwrap(), JsonValue::UInt(42));
        assert_eq!(JsonValue::parse("-42").unwrap(), JsonValue::Int(-42));
        assert_eq!(JsonValue::parse("0.5").unwrap(), JsonValue::Float(0.5));
        assert_eq!(JsonValue::parse("1e3").unwrap(), JsonValue::Float(1000.0));
        assert_eq!(JsonValue::parse("18446744073709551615").unwrap(), JsonValue::UInt(u64::MAX));
        // Beyond u64 falls back to f64 rather than failing.
        assert!(matches!(JsonValue::parse("184467440737095516150").unwrap(), JsonValue::Float(_)));
        assert!(JsonValue::parse("01").is_err());
        assert!(JsonValue::parse("1.").is_err());
        assert!(JsonValue::parse("-").is_err());
    }

    #[test]
    fn parse_handles_escapes_and_unicode() {
        assert_eq!(
            JsonValue::parse("\"a\\\"b\\\\c\\nd\\te\\u0041\"").unwrap(),
            JsonValue::Str("a\"b\\c\nd\teA".into())
        );
        // Surrogate pair for 😀 (U+1F600).
        assert_eq!(JsonValue::parse("\"\\ud83d\\ude00\"").unwrap(), JsonValue::Str("😀".into()));
        // Raw multi-byte UTF-8 passes through.
        assert_eq!(JsonValue::parse("\"héllo\"").unwrap(), JsonValue::Str("héllo".into()));
        assert!(JsonValue::parse("\"\\ud83d\"").is_err(), "unpaired surrogate");
        assert!(JsonValue::parse("\"\\q\"").is_err(), "bad escape");
        assert!(JsonValue::parse("\"abc").is_err(), "unterminated");
    }

    #[test]
    fn parse_rejects_malformed_documents_with_offsets() {
        for (text, needle) in [
            ("", "end of input"),
            ("{", "expected"),
            ("{\"a\":1,}", "expected"),
            ("[1 2]", "expected ',' or ']'"),
            ("{\"a\" 1}", "expected ':'"),
            ("nul", "invalid literal"),
            ("{} {}", "trailing characters"),
            ("\u{1}", "unexpected character"),
        ] {
            let err = JsonValue::parse(text).unwrap_err();
            assert!(err.to_string().contains(needle), "{text:?}: {err}");
            assert!(err.offset <= text.len());
        }
    }

    #[test]
    fn parse_bounds_nesting_depth() {
        let deep = "[".repeat(MAX_PARSE_DEPTH + 2) + &"]".repeat(MAX_PARSE_DEPTH + 2);
        let err = JsonValue::parse(&deep).unwrap_err();
        assert!(err.to_string().contains("MAX_PARSE_DEPTH"), "{err}");
        let ok = "[".repeat(64) + &"]".repeat(64);
        assert!(JsonValue::parse(&ok).is_ok());
    }

    #[test]
    fn accessors_select_by_shape() {
        let v = JsonValue::parse("{\"s\":\"x\",\"u\":7,\"i\":-7,\"f\":1.5,\"b\":true,\"a\":[1]}")
            .unwrap();
        assert_eq!(v.get("s").and_then(JsonValue::as_str), Some("x"));
        assert_eq!(v.get("u").and_then(JsonValue::as_u64), Some(7));
        assert_eq!(v.get("i").and_then(JsonValue::as_i64), Some(-7));
        assert_eq!(v.get("i").and_then(JsonValue::as_u64), None);
        assert_eq!(v.get("f").and_then(JsonValue::as_f64), Some(1.5));
        assert_eq!(v.get("u").and_then(JsonValue::as_f64), Some(7.0));
        assert_eq!(v.get("b").and_then(JsonValue::as_bool), Some(true));
        assert_eq!(v.get("a").and_then(JsonValue::as_array).map(<[_]>::len), Some(1));
        assert_eq!(v.as_object().map(<[_]>::len), Some(6));
        assert!(v.get("missing").is_none());
        assert!(JsonValue::Null.get("s").is_none());
    }
}
