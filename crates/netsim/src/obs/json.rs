//! A dependency-free JSON document model: serializer and (small)
//! parser.
//!
//! The crates-io registry is unreachable in the environments this
//! reproduction targets, so exports cannot lean on `serde`. This module
//! implements the subset the observability layer needs:
//!
//! * objects keep **insertion order** (a `Vec` of pairs, not a map), so
//!   serialization is deterministic — two identical runs produce
//!   byte-identical files, which is what makes traces diffable;
//! * floats serialize via Rust's shortest-roundtrip `Display`, and
//!   non-finite floats become `null`;
//! * the parser accepts exactly the documents the serializer writes
//!   (plus arbitrary whitespace), enough for `phastlane trace-dump` to
//!   re-read its own traces.

use std::fmt::{self, Write as _};

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An unsigned integer (the common case for counters/cycles).
    Uint(u64),
    /// A signed integer.
    Int(i64),
    /// A float (serialized shortest-roundtrip; non-finite → `null`).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<JsonValue>),
    /// An object with insertion-ordered keys.
    Obj(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Serializes compactly (no whitespace).
    pub fn to_string_compact(&self) -> String {
        let mut out = String::new();
        self.write_compact(&mut out);
        out
    }

    /// Serializes with two-space indentation.
    pub fn to_string_pretty(&self) -> String {
        let mut out = String::new();
        self.write_pretty(&mut out);
        out
    }

    /// Appends the compact form to `out`. Allocates nothing beyond
    /// `out`'s own growth.
    pub fn write_compact(&self, out: &mut String) {
        match self {
            JsonValue::Null => out.push_str("null"),
            JsonValue::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            JsonValue::Uint(n) => out.push_str(uint_text(*n, &mut [0; 20])),
            JsonValue::Int(n) => {
                if *n < 0 {
                    out.push('-');
                }
                out.push_str(uint_text(n.unsigned_abs(), &mut [0; 20]));
            }
            JsonValue::Num(x) => write_f64(*x, out),
            JsonValue::Str(s) => write_escaped(s, out),
            JsonValue::Arr(items) => {
                out.push('[');
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    v.write_compact(out);
                }
                out.push(']');
            }
            JsonValue::Obj(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_escaped(k, out);
                    out.push(':');
                    v.write_compact(out);
                }
                out.push('}');
            }
        }
    }

    /// Appends the indented form, newline-terminated, to `out`.
    /// Allocates nothing beyond `out`'s own growth.
    pub fn write_pretty(&self, out: &mut String) {
        self.write_indented(out, 0);
        out.push('\n');
    }

    fn write_indented(&self, out: &mut String, depth: usize) {
        match self {
            JsonValue::Arr(items) if !items.is_empty() => {
                out.push_str("[\n");
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        out.push_str(",\n");
                    }
                    indent(out, depth + 1);
                    v.write_indented(out, depth + 1);
                }
                out.push('\n');
                indent(out, depth);
                out.push(']');
            }
            JsonValue::Obj(pairs) if !pairs.is_empty() => {
                out.push_str("{\n");
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push_str(",\n");
                    }
                    indent(out, depth + 1);
                    write_escaped(k, out);
                    out.push_str(": ");
                    v.write_indented(out, depth + 1);
                }
                out.push('\n');
                indent(out, depth);
                out.push('}');
            }
            other => other.write_compact(out),
        }
    }

    /// Object field lookup (first match).
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a `u64`, when it is an integer.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            JsonValue::Uint(n) => Some(*n),
            JsonValue::Int(n) => u64::try_from(*n).ok(),
            _ => None,
        }
    }

    /// The value as an `f64`, when numeric.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Uint(n) => Some(*n as f64),
            JsonValue::Int(n) => Some(*n as f64),
            JsonValue::Num(x) => Some(*x),
            _ => None,
        }
    }

    /// The value as a string slice.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array slice.
    pub fn as_arr(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Arr(v) => Some(v),
            _ => None,
        }
    }
}

/// The decimal digits of `n`, written at the end of `buf`.
pub fn uint_text(mut n: u64, buf: &mut [u8; 20]) -> &str {
    let mut start = buf.len();
    loop {
        start -= 1;
        buf[start] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    std::str::from_utf8(&buf[start..]).expect("ascii digits")
}

fn indent(out: &mut String, depth: usize) {
    const SPACES: &str = "                                                                ";
    let mut width = 2 * depth;
    while width > 0 {
        let chunk = width.min(SPACES.len());
        out.push_str(&SPACES[..chunk]);
        width -= chunk;
    }
}

fn write_f64(x: f64, out: &mut String) {
    if !x.is_finite() {
        out.push_str("null");
    } else if x == x.trunc() && x.abs() < 1e15 {
        // Integral floats keep a trailing `.0`, so the type survives a
        // roundtrip (`3.0`, not `3`): the digits `{x:.1}` would print,
        // from the integer path. Below 1e15 the cast is exact, and
        // `-0.0` keeps its sign, as it does under `{x:.1}`.
        if x.is_sign_negative() {
            out.push('-');
        }
        out.push_str(uint_text(x.abs() as u64, &mut [0; 20]));
        out.push_str(".0");
    } else {
        // `fmt::Write` for `String` cannot fail.
        let _ = write!(out, "{x}");
    }
}

/// Appends `s` as a quoted JSON string. Runs of bytes that need no
/// escape are copied whole; every byte that does is ASCII, so each run
/// ends on a char boundary.
pub fn write_escaped(s: &str, out: &mut String) {
    out.push('"');
    let bytes = s.as_bytes();
    let mut run = 0;
    for (i, &b) in bytes.iter().enumerate() {
        if b >= 0x20 && b != b'"' && b != b'\\' {
            continue;
        }
        out.push_str(&s[run..i]);
        run = i + 1;
        match b {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\r' => out.push_str("\\r"),
            b'\t' => out.push_str("\\t"),
            _ => {
                const HEX: &[u8; 16] = b"0123456789abcdef";
                out.push_str("\\u00");
                out.push(char::from(HEX[usize::from(b >> 4)]));
                out.push(char::from(HEX[usize::from(b & 0xf)]));
            }
        }
    }
    out.push_str(&s[run..]);
    out.push('"');
}

/// A JSON parse error with byte offset.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset the error was detected at.
    pub offset: usize,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "json parse error at byte {}: {}",
            self.offset, self.message
        )
    }
}

impl std::error::Error for ParseError {}

/// Parses a JSON document.
///
/// # Errors
///
/// Returns a [`ParseError`] on malformed input or trailing garbage.
pub fn parse(text: &str) -> Result<JsonValue, ParseError> {
    let mut p = Parser {
        bytes: text.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing characters"));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn err(&self, msg: &str) -> ParseError {
        ParseError {
            offset: self.pos,
            message: msg.to_string(),
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

    fn expect(&mut self, b: u8) -> Result<(), ParseError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected {:?}", b as char)))
        }
    }

    fn literal(&mut self, word: &str, v: JsonValue) -> Result<JsonValue, ParseError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(self.err(&format!("expected {word}")))
        }
    }

    fn value(&mut self) -> Result<JsonValue, ParseError> {
        match self.peek() {
            Some(b'n') => self.literal("null", JsonValue::Null),
            Some(b't') => self.literal("true", JsonValue::Bool(true)),
            Some(b'f') => self.literal("false", JsonValue::Bool(false)),
            Some(b'"') => self.string().map(JsonValue::Str),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(self.err("expected a value")),
        }
    }

    fn array(&mut self) -> Result<JsonValue, ParseError> {
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

    fn object(&mut self) -> Result<JsonValue, ParseError> {
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

    fn string(&mut self) -> Result<String, ParseError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let Some(c) = self.peek() else {
                return Err(self.err("unterminated string"));
            };
            self.pos += 1;
            match c {
                b'"' => return Ok(out),
                b'\\' => {
                    let Some(e) = self.peek() else {
                        return Err(self.err("bad escape"));
                    };
                    self.pos += 1;
                    match e {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            if self.pos + 4 > self.bytes.len() {
                                return Err(self.err("truncated \\u escape"));
                            }
                            let hex = std::str::from_utf8(&self.bytes[self.pos..self.pos + 4])
                                .map_err(|_| self.err("bad \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.err("bad \\u escape"))?;
                            self.pos += 4;
                            out.push(
                                char::from_u32(code).ok_or_else(|| self.err("bad codepoint"))?,
                            );
                        }
                        _ => return Err(self.err("unknown escape")),
                    }
                }
                c if c < 0x80 => out.push(c as char),
                _ => {
                    // Multi-byte UTF-8: copy the full sequence.
                    let start = self.pos - 1;
                    let len = utf8_len(c);
                    let end = start + len;
                    if end > self.bytes.len() {
                        return Err(self.err("truncated utf-8"));
                    }
                    let s = std::str::from_utf8(&self.bytes[start..end])
                        .map_err(|_| self.err("invalid utf-8"))?;
                    out.push_str(s);
                    self.pos = end;
                }
            }
        }
    }

    fn number(&mut self) -> Result<JsonValue, ParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            self.pos += 1;
        }
        let mut is_float = false;
        if self.peek() == Some(b'.') {
            is_float = true;
            self.pos += 1;
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            is_float = true;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .expect("ascii digits are valid utf-8");
        if is_float {
            text.parse::<f64>()
                .map(JsonValue::Num)
                .map_err(|_| self.err("bad number"))
        } else if let Some(stripped) = text.strip_prefix('-') {
            stripped
                .parse::<u64>()
                .ok()
                .and_then(|_| text.parse::<i64>().ok())
                .map(JsonValue::Int)
                .ok_or_else(|| self.err("bad integer"))
        } else {
            text.parse::<u64>()
                .map(JsonValue::Uint)
                .map_err(|_| self.err("bad integer"))
        }
    }
}

fn utf8_len(first: u8) -> usize {
    match first {
        0xC0..=0xDF => 2,
        0xE0..=0xEF => 3,
        _ => 4,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SimRng;

    #[test]
    fn compact_roundtrip() {
        let doc = JsonValue::Obj(vec![
            ("n".into(), JsonValue::Uint(42)),
            ("neg".into(), JsonValue::Int(-7)),
            ("f".into(), JsonValue::Num(1.5)),
            ("s".into(), JsonValue::Str("hi \"there\"\n".into())),
            (
                "a".into(),
                JsonValue::Arr(vec![JsonValue::Bool(true), JsonValue::Null]),
            ),
            ("o".into(), JsonValue::Obj(vec![])),
        ]);
        let text = doc.to_string_compact();
        assert_eq!(parse(&text).unwrap(), doc);
    }

    #[test]
    fn pretty_roundtrip() {
        let doc = JsonValue::Arr(vec![
            JsonValue::Obj(vec![("k".into(), JsonValue::Uint(1))]),
            JsonValue::Arr(vec![]),
        ]);
        assert_eq!(parse(&doc.to_string_pretty()).unwrap(), doc);
    }

    #[test]
    fn insertion_order_preserved() {
        let doc = JsonValue::Obj(vec![
            ("z".into(), JsonValue::Uint(1)),
            ("a".into(), JsonValue::Uint(2)),
        ]);
        assert_eq!(doc.to_string_compact(), r#"{"z":1,"a":2}"#);
    }

    #[test]
    fn floats_stable() {
        assert_eq!(JsonValue::Num(3.0).to_string_compact(), "3.0");
        assert_eq!(JsonValue::Num(0.25).to_string_compact(), "0.25");
        assert_eq!(JsonValue::Num(f64::NAN).to_string_compact(), "null");
        assert_eq!(JsonValue::Num(f64::INFINITY).to_string_compact(), "null");
    }

    #[test]
    fn accessors() {
        let doc = parse(r#"{"a": [1, 2.5, "x"], "b": -3}"#).unwrap();
        assert_eq!(doc.get("b").unwrap().as_f64(), Some(-3.0));
        let arr = doc.get("a").unwrap().as_arr().unwrap();
        assert_eq!(arr[0].as_u64(), Some(1));
        assert_eq!(arr[1].as_f64(), Some(2.5));
        assert_eq!(arr[2].as_str(), Some("x"));
        assert_eq!(doc.get("missing"), None);
    }

    #[test]
    fn unicode_and_escapes() {
        let doc = JsonValue::Str("héllo → ω \u{1}".into());
        assert_eq!(parse(&doc.to_string_compact()).unwrap(), doc);
        assert_eq!(parse(r#""A""#).unwrap(), JsonValue::Str("A".into()));
    }

    #[test]
    fn malformed_rejected() {
        for bad in ["", "{", "[1,", "{\"k\" 1}", "tru", "1 2", "\"unterminated"] {
            assert!(parse(bad).is_err(), "{bad:?} accepted");
        }
    }

    /// The formatter this module had before it wrote in place: one
    /// `String` per number, one `format!` per float and per control
    /// character, escaping one `char` at a time. The writer must match
    /// it byte for byte.
    mod reference {
        use super::JsonValue;

        pub fn compact(v: &JsonValue) -> String {
            let mut out = String::new();
            write(v, &mut out);
            out
        }

        pub fn pretty(v: &JsonValue) -> String {
            let mut out = String::new();
            write_pretty(v, &mut out, 0);
            out.push('\n');
            out
        }

        fn write(v: &JsonValue, out: &mut String) {
            match v {
                JsonValue::Null => out.push_str("null"),
                JsonValue::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
                JsonValue::Uint(n) => out.push_str(&n.to_string()),
                JsonValue::Int(n) => out.push_str(&n.to_string()),
                JsonValue::Num(x) => {
                    if !x.is_finite() {
                        out.push_str("null");
                    } else if *x == x.trunc() && x.abs() < 1e15 {
                        out.push_str(&format!("{x:.1}"));
                    } else {
                        out.push_str(&format!("{x}"));
                    }
                }
                JsonValue::Str(s) => escaped(s, out),
                JsonValue::Arr(items) => {
                    out.push('[');
                    for (i, v) in items.iter().enumerate() {
                        if i > 0 {
                            out.push(',');
                        }
                        write(v, out);
                    }
                    out.push(']');
                }
                JsonValue::Obj(pairs) => {
                    out.push('{');
                    for (i, (k, v)) in pairs.iter().enumerate() {
                        if i > 0 {
                            out.push(',');
                        }
                        escaped(k, out);
                        out.push(':');
                        write(v, out);
                    }
                    out.push('}');
                }
            }
        }

        fn write_pretty(v: &JsonValue, out: &mut String, depth: usize) {
            let indent = |out: &mut String, depth: usize| {
                for _ in 0..depth {
                    out.push_str("  ");
                }
            };
            match v {
                JsonValue::Arr(items) if !items.is_empty() => {
                    out.push_str("[\n");
                    for (i, v) in items.iter().enumerate() {
                        if i > 0 {
                            out.push_str(",\n");
                        }
                        indent(out, depth + 1);
                        write_pretty(v, out, depth + 1);
                    }
                    out.push('\n');
                    indent(out, depth);
                    out.push(']');
                }
                JsonValue::Obj(pairs) if !pairs.is_empty() => {
                    out.push_str("{\n");
                    for (i, (k, v)) in pairs.iter().enumerate() {
                        if i > 0 {
                            out.push_str(",\n");
                        }
                        indent(out, depth + 1);
                        escaped(k, out);
                        out.push_str(": ");
                        write_pretty(v, out, depth + 1);
                    }
                    out.push('\n');
                    indent(out, depth);
                    out.push('}');
                }
                other => write(other, out),
            }
        }

        fn escaped(s: &str, out: &mut String) {
            out.push('"');
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
        }
    }

    fn assert_matches_reference(v: &JsonValue) {
        assert_eq!(v.to_string_compact(), reference::compact(v), "{v:?}");
        assert_eq!(v.to_string_pretty(), reference::pretty(v), "{v:?}");
    }

    #[test]
    fn scalars_match_the_reference_formatter() {
        for n in [
            0,
            9,
            10,
            99,
            100,
            u64::from(u32::MAX),
            u64::MAX - 1,
            u64::MAX,
        ] {
            assert_matches_reference(&JsonValue::Uint(n));
        }
        for n in [i64::MIN, i64::MIN + 1, -10, -9, -1, 0, 1, 9, 10, i64::MAX] {
            assert_matches_reference(&JsonValue::Int(n));
        }
        for x in [
            0.0,
            -0.0,
            1e15 - 1.0,
            1e15,
            1e15 + 1.0,
            -1e15,
            0.1 + 0.2,
            0.25,
            -3.0,
            f64::MIN_POSITIVE,
            f64::MIN_POSITIVE / 2.0,
            f64::from_bits(1),
            -f64::from_bits(1),
            f64::MAX,
            f64::MIN,
            f64::EPSILON,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
        ] {
            assert_matches_reference(&JsonValue::Num(x));
        }
    }

    #[test]
    fn strings_match_the_reference_formatter() {
        let every_control: String = (0u8..0x20).map(char::from).collect();
        for s in [
            String::new(),
            "plain".into(),
            every_control.clone(),
            format!("a{every_control}b"),
            "\"quoted\" and \\back\\slash\\".into(),
            "héllo → ω 𝄞 \u{7f} \u{1}\u{1f}".into(),
            "\"".into(),
            "ω\nω".into(),
        ] {
            assert_matches_reference(&JsonValue::Str(s.clone()));
            // The same text as an object key.
            assert_matches_reference(&JsonValue::Obj(vec![(s, JsonValue::Null)]));
        }
    }

    fn random_tree(rng: &mut SimRng, depth: u32) -> JsonValue {
        const CHARS: [char; 12] = [
            'a', 'Z', '0', ' ', '"', '\\', '\n', '\u{1}', '\u{1f}', 'é', '→', '𝄞',
        ];
        let text = |rng: &mut SimRng| -> String {
            (0..rng.gen_range(0..8usize))
                .map(|_| CHARS[rng.gen_range(0..CHARS.len())])
                .collect()
        };
        let kind = if depth == 0 {
            rng.gen_range(0..6u32)
        } else {
            rng.gen_range(0..8u32)
        };
        match kind {
            0 => JsonValue::Null,
            1 => JsonValue::Bool(rng.gen_bool(0.5)),
            2 => JsonValue::Uint(rng.next_u64() >> rng.gen_range(0..64u32)),
            3 => JsonValue::Int((rng.next_u64() as i64) >> rng.gen_range(0..64u32)),
            4 => JsonValue::Num(match rng.gen_range(0..5u32) {
                0 => f64::from_bits(rng.next_u64()),
                1 => rng.gen_range(0..2_000_000u32) as f64 - 1e6,
                // Integral, on both sides of the 1e15 cut.
                2 => (rng.gen_f64() * 4e15).trunc() - 2e15,
                3 => rng.gen_f64() * 1e17,
                _ => rng.gen_f64(),
            }),
            5 => JsonValue::Str(text(rng)),
            6 => JsonValue::Arr(
                (0..rng.gen_range(0..5usize))
                    .map(|_| random_tree(rng, depth - 1))
                    .collect(),
            ),
            _ => JsonValue::Obj(
                (0..rng.gen_range(0..5usize))
                    .map(|_| (text(rng), random_tree(rng, depth - 1)))
                    .collect(),
            ),
        }
    }

    #[test]
    fn random_trees_match_the_reference_formatter() {
        let mut rng = SimRng::seed_from_u64(0x0150_0038);
        for _ in 0..500 {
            assert_matches_reference(&random_tree(&mut rng, 5));
        }
        // Deeper than the static indentation slice covers in one push.
        let mut deep = JsonValue::Arr(vec![JsonValue::Uint(1)]);
        for _ in 0..40 {
            deep = JsonValue::Arr(vec![deep]);
        }
        assert_matches_reference(&deep);
    }

    #[test]
    fn large_u64_roundtrip() {
        let doc = JsonValue::Uint(u64::MAX);
        assert_eq!(
            parse(&doc.to_string_compact()).unwrap().as_u64(),
            Some(u64::MAX)
        );
    }
}
