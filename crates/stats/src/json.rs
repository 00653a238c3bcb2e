//! A small self-contained JSON value model, writer and parser.
//!
//! The experiment harness serializes its run records without external
//! dependencies (the build environment has no registry access), so this
//! module provides the whole round trip: [`JsonValue`] construction,
//! rendering via [`JsonValue::render`] / `Display`, and parsing via
//! [`JsonValue::parse`]. Object key order is preserved, and numbers are
//! written with Rust's shortest-round-trip float formatting so a
//! render→parse cycle reproduces values bit-exactly.

use std::fmt::{self, Write as _};

/// A JSON document node.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An integer that fits `u64` (kept exact; `f64` would lose precision
    /// above 2^53).
    U64(u64),
    /// A negative integer.
    I64(i64),
    /// A (finite) float. Non-finite values render as `null`.
    F64(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<JsonValue>),
    /// An object with preserved key order.
    Obj(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Convenience: an object from key/value pairs.
    pub fn obj<I>(pairs: I) -> Self
    where
        I: IntoIterator<Item = (String, JsonValue)>,
    {
        JsonValue::Obj(pairs.into_iter().collect())
    }

    /// Looks a key up in an object node.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The node as `u64` when it is a non-negative integer.
    pub fn as_u64(&self) -> Option<u64> {
        match *self {
            JsonValue::U64(x) => Some(x),
            JsonValue::I64(x) if x >= 0 => Some(x as u64),
            _ => None,
        }
    }

    /// The node as `i64` when it is an integer that fits.
    pub fn as_i64(&self) -> Option<i64> {
        match *self {
            JsonValue::I64(x) => Some(x),
            JsonValue::U64(x) => i64::try_from(x).ok(),
            _ => None,
        }
    }

    /// The node as `f64` for any numeric variant.
    pub fn as_f64(&self) -> Option<f64> {
        match *self {
            JsonValue::U64(x) => Some(x as f64),
            JsonValue::I64(x) => Some(x as f64),
            JsonValue::F64(x) => Some(x),
            _ => None,
        }
    }

    /// The node as `bool`.
    pub fn as_bool(&self) -> Option<bool> {
        match *self {
            JsonValue::Bool(b) => Some(b),
            _ => None,
        }
    }

    /// The node as a string slice.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The node as an array slice.
    pub fn as_arr(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Renders compact single-line JSON.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None, 0);
        out
    }

    /// Renders human-readable JSON indented by `indent` spaces per level.
    pub fn render_pretty(&self, indent: usize) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(indent), 0);
        out
    }

    fn write(&self, out: &mut String, indent: Option<usize>, depth: usize) {
        match self {
            JsonValue::Null => out.push_str("null"),
            JsonValue::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            JsonValue::U64(x) => {
                let _ = write!(out, "{x}");
            }
            JsonValue::I64(x) => {
                let _ = write!(out, "{x}");
            }
            JsonValue::F64(x) => write_f64(out, *x),
            JsonValue::Str(s) => write_str(out, s),
            JsonValue::Arr(items) => {
                write_seq(out, indent, depth, '[', ']', items.len(), |out, i, d| {
                    items[i].write(out, indent, d);
                });
            }
            JsonValue::Obj(pairs) => {
                write_seq(out, indent, depth, '{', '}', pairs.len(), |out, i, d| {
                    write_str(out, &pairs[i].0);
                    out.push(':');
                    if indent.is_some() {
                        out.push(' ');
                    }
                    pairs[i].1.write(out, indent, d);
                });
            }
        }
    }

    /// Parses a JSON document (full input must be consumed).
    ///
    /// # Errors
    ///
    /// [`JsonError`] with a byte offset and message.
    pub fn parse(text: &str) -> Result<JsonValue, JsonError> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing characters after document"));
        }
        Ok(v)
    }
}

fn write_seq(
    out: &mut String,
    indent: Option<usize>,
    depth: usize,
    open: char,
    close: char,
    len: usize,
    mut item: impl FnMut(&mut String, usize, usize),
) {
    out.push(open);
    for i in 0..len {
        if i > 0 {
            out.push(',');
        }
        if let Some(n) = indent {
            write_newline(out, n * (depth + 1));
        }
        item(out, i, depth + 1);
    }
    if len > 0 {
        if let Some(n) = indent {
            write_newline(out, n * depth);
        }
    }
    out.push(close);
}

/// Appends a newline and `spaces` spaces of indentation.
fn write_newline(out: &mut String, spaces: usize) {
    out.push('\n');
    out.extend(std::iter::repeat(' ').take(spaces));
}

/// Appends `x` as [`JsonValue::F64`] renders it: the shortest text that
/// parses back to the identical bits, with `.0` appended to a whole
/// number so it re-parses as a float; `null` when `x` is not finite.
pub fn write_f64(out: &mut String, x: f64) {
    if !x.is_finite() {
        out.push_str("null");
        return;
    }
    let start = out.len();
    let _ = write!(out, "{x}");
    if !out[start..].contains(['.', 'e', 'E']) {
        out.push_str(".0");
    }
}

/// Appends `s` as a quoted, escaped JSON string.
pub fn write_str(out: &mut String, s: &str) {
    out.push('"');
    // Every byte that needs an escape is ASCII, so the runs between them
    // are whole UTF-8 text and copy as they are.
    let mut run = 0;
    for (i, &b) in s.as_bytes().iter().enumerate() {
        let escape = match b {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            b'\n' => "\\n",
            b'\r' => "\\r",
            b'\t' => "\\t",
            0..=0x1f => "",
            _ => continue,
        };
        out.push_str(&s[run..i]);
        if escape.is_empty() {
            let _ = write!(out, "\\u{b:04x}");
        } else {
            out.push_str(escape);
        }
        run = i + 1;
    }
    out.push_str(&s[run..]);
    out.push('"');
}

/// JSON parse failure: byte offset and message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset of the failure.
    pub offset: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for JsonError {}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn err(&self, message: &str) -> JsonError {
        JsonError {
            offset: self.pos,
            message: message.to_string(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    fn literal(&mut self, word: &str, value: JsonValue) -> Result<JsonValue, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected `{word}`")))
        }
    }

    fn value(&mut self) -> Result<JsonValue, JsonError> {
        match self.peek() {
            Some(b'n') => self.literal("null", JsonValue::Null),
            Some(b't') => self.literal("true", JsonValue::Bool(true)),
            Some(b'f') => self.literal("false", JsonValue::Bool(false)),
            Some(b'"') => Ok(JsonValue::Str(self.string()?)),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    fn array(&mut self) -> Result<JsonValue, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(JsonValue::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(JsonValue::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn object(&mut self) -> Result<JsonValue, JsonError> {
        self.expect(b'{')?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(JsonValue::Obj(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            pairs.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(JsonValue::Obj(pairs));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or_else(|| self.err("truncated \\u escape"))?;
                            let hex = std::str::from_utf8(hex)
                                .map_err(|_| self.err("non-ASCII \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.err("invalid \\u escape"))?;
                            // Basic-plane escapes only: enough for the
                            // control characters the writer produces.
                            out.push(
                                char::from_u32(code)
                                    .ok_or_else(|| self.err("surrogate \\u escape"))?,
                            );
                            self.pos += 4;
                        }
                        _ => return Err(self.err("invalid escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 scalar (multi-byte safe).
                    let rest = &self.bytes[self.pos..];
                    let s = std::str::from_utf8(rest).map_err(|_| self.err("invalid UTF-8"))?;
                    let c = s.chars().next().expect("nonempty");
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn number(&mut self) -> Result<JsonValue, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        let mut is_float = false;
        if self.peek() == Some(b'.') {
            is_float = true;
            self.pos += 1;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            is_float = true;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let text =
            std::str::from_utf8(&self.bytes[start..self.pos]).expect("number bytes are ASCII");
        if !is_float {
            if let Ok(x) = text.parse::<u64>() {
                return Ok(JsonValue::U64(x));
            }
            if let Ok(x) = text.parse::<i64>() {
                return Ok(JsonValue::I64(x));
            }
        }
        text.parse::<f64>()
            .map(JsonValue::F64)
            .map_err(|_| self.err("invalid number"))
    }
}

impl fmt::Display for JsonValue {
    /// Writes the compact rendering.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_and_parse_roundtrip() {
        let v = JsonValue::obj([
            ("name".to_string(), JsonValue::Str("fpppp".to_string())),
            ("ipc".to_string(), JsonValue::F64(1.2345678901234567)),
            ("cycles".to_string(), JsonValue::U64(u64::MAX)),
            ("delta".to_string(), JsonValue::I64(-42)),
            ("halted".to_string(), JsonValue::Bool(true)),
            ("none".to_string(), JsonValue::Null),
            (
                "arr".to_string(),
                JsonValue::Arr(vec![JsonValue::U64(1), JsonValue::F64(0.5)]),
            ),
        ]);
        let text = v.render();
        assert_eq!(JsonValue::parse(&text).unwrap(), v);
    }

    #[test]
    fn pretty_rendering_parses_back() {
        let v = JsonValue::obj([
            ("a".to_string(), JsonValue::U64(1)),
            (
                "b".to_string(),
                JsonValue::Arr(vec![JsonValue::Bool(false), JsonValue::Str("x".into())]),
            ),
        ]);
        let pretty = v.render_pretty(2);
        assert!(pretty.contains('\n'));
        assert_eq!(JsonValue::parse(&pretty).unwrap(), v);
    }

    #[test]
    fn floats_stay_floats() {
        // A whole-valued f64 must re-parse as F64, not U64.
        let v = JsonValue::F64(2.0);
        assert_eq!(v.render(), "2.0");
        assert_eq!(JsonValue::parse("2.0").unwrap(), v);
        assert_eq!(JsonValue::parse("2").unwrap(), JsonValue::U64(2));
    }

    #[test]
    fn float_roundtrip_is_bit_exact() {
        for x in [1.0 / 3.0, 0.1 + 0.2, 1e-300, 6.02214076e23, -0.0] {
            let text = JsonValue::F64(x).render();
            match JsonValue::parse(&text).unwrap() {
                JsonValue::F64(y) => assert_eq!(x.to_bits(), y.to_bits(), "{text}"),
                other => panic!("{text} parsed as {other:?}"),
            }
        }
    }

    #[test]
    fn string_escapes_roundtrip() {
        let nasty = "quote \" backslash \\ newline \n tab \t nul \u{1} ünïcode";
        let v = JsonValue::Str(nasty.to_string());
        assert_eq!(JsonValue::parse(&v.render()).unwrap(), v);
    }

    #[test]
    fn accessors() {
        let v = JsonValue::obj([
            ("n".to_string(), JsonValue::U64(7)),
            ("s".to_string(), JsonValue::Str("x".into())),
            ("b".to_string(), JsonValue::Bool(true)),
            ("f".to_string(), JsonValue::F64(0.5)),
        ]);
        assert_eq!(v.get("n").and_then(JsonValue::as_u64), Some(7));
        assert_eq!(v.get("s").and_then(JsonValue::as_str), Some("x"));
        assert_eq!(v.get("b").and_then(JsonValue::as_bool), Some(true));
        assert_eq!(v.get("f").and_then(JsonValue::as_f64), Some(0.5));
        assert_eq!(v.get("missing"), None);
        assert_eq!(JsonValue::Null.get("n"), None);
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(JsonValue::parse("").is_err());
        assert!(JsonValue::parse("{\"a\":}").is_err());
        assert!(JsonValue::parse("[1,2").is_err());
        assert!(JsonValue::parse("true false").is_err());
        assert!(JsonValue::parse("\"unterminated").is_err());
        let err = JsonValue::parse("nope").unwrap_err();
        assert!(err.to_string().contains("byte 0"));
    }

    /// Numbers and strings as the writer first rendered them, through a
    /// `String` per number and per escape.
    fn reference_scalar(v: &JsonValue) -> String {
        match v {
            JsonValue::U64(x) => x.to_string(),
            JsonValue::I64(x) => x.to_string(),
            JsonValue::F64(x) if x.is_finite() => {
                let s = format!("{x}");
                if s.contains(['.', 'e', 'E']) {
                    s
                } else {
                    format!("{s}.0")
                }
            }
            JsonValue::F64(_) => "null".to_string(),
            JsonValue::Str(s) => {
                let mut out = String::from('"');
                for c in s.chars() {
                    match c {
                        '"' => out.push_str("\\\""),
                        '\\' => out.push_str("\\\\"),
                        '\n' => out.push_str("\\n"),
                        '\r' => out.push_str("\\r"),
                        '\t' => out.push_str("\\t"),
                        c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                        c => out.push(c),
                    }
                }
                out.push('"');
                out
            }
            other => unreachable!("{other:?} is not a scalar"),
        }
    }

    #[test]
    fn scalars_render_as_first_written() {
        let floats = [
            0.0,
            -0.0,
            2.0,
            -1.5,
            1e21,
            1e-7,
            5e-324,
            f64::MIN_POSITIVE / 3.0,
            f64::MAX,
            f64::MIN,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            0.1 + 0.2,
        ];
        let mut scalars: Vec<JsonValue> = floats.into_iter().map(JsonValue::F64).collect();
        scalars.extend([0, 7, u64::MAX].map(JsonValue::U64));
        scalars.extend([i64::MIN, -1].map(JsonValue::I64));
        scalars.extend(
            [
                "",
                "plain",
                "q\"b\\",
                "\n\r\t",
                "\u{1}\u{1f}",
                "ünï 日本 😀",
            ]
            .map(|s| JsonValue::Str(s.to_string())),
        );
        for v in &scalars {
            assert_eq!(v.render(), reference_scalar(v), "{v:?}");
        }
        // Indentation: one level per depth, `indent` spaces each.
        let nested = JsonValue::Arr(vec![JsonValue::obj([(
            "k".to_string(),
            JsonValue::Arr(vec![JsonValue::U64(1)]),
        )])]);
        assert_eq!(
            nested.render_pretty(3),
            "[\n   {\n      \"k\": [\n         1\n      ]\n   }\n]"
        );
    }

    #[test]
    fn nonfinite_floats_render_null() {
        assert_eq!(JsonValue::F64(f64::NAN).render(), "null");
        assert_eq!(JsonValue::F64(f64::INFINITY).render(), "null");
    }

    #[test]
    fn negative_and_large_integers() {
        assert_eq!(
            JsonValue::parse("-9223372036854775808").unwrap(),
            JsonValue::I64(i64::MIN)
        );
        assert_eq!(
            JsonValue::parse("18446744073709551615").unwrap(),
            JsonValue::U64(u64::MAX)
        );
    }
}
