//! A minimal, dependency-free JSON value with a parser and writer.
//!
//! The workspace depends on no JSON crate, yet two production paths
//! genuinely need JSON: model checkpoints (`unimatch-core::persist`,
//! human-inspectable and diff-able) and the HTTP bodies of the online serving layer
//! (`unimatch-serve`). This module is the single JSON implementation both
//! build on: a plain value tree, a recursive-descent parser over bytes, and
//! a writer whose float formatting round-trips exactly.
//!
//! Compatibility contract: the writer emits the same *shape* serde_json
//! would for the workspace's structs (struct → object in field order,
//! newtype → inner value, unit enum variant → string, struct variant →
//! single-key object), so checkpoints written by either implementation
//! parse under the other.
//!
//! Float exactness: `f32` values are written through Rust's shortest
//! round-trip `Display` (a finite `f32` always reparses to the same bits;
//! non-finite values are written as `null`, mirroring serde_json). Numbers
//! are parsed as `f64`; casting a parsed `f64` to `f32` is exact for any
//! string produced from an `f32`, because the shortest representation
//! uniquely identifies the original value.
//!
//! Number reading: the scan that checks a number's grammar also builds its
//! decimal mantissa and exponent. When the mantissa is below 2^53 and the
//! exponent within ±22 — every id, and nearly every float a checkpoint
//! holds — both are exact `f64`s and one IEEE multiply or divide gives the
//! correctly rounded value (Clinger's fast path), so the bits equal
//! `str::parse::<f64>`'s without reading the text again. Any other number
//! goes to `str::parse`. `tests/json_numbers.rs` pins both paths, and
//! every error offset and message, against the text-only scanner.
//!
//! ```
//! use unimatch_data::json::Json;
//!
//! let v = Json::parse(br#"{"k": 3, "history": [1, 2, 5]}"#).unwrap();
//! assert_eq!(v.get("k").and_then(Json::as_u64), Some(3));
//! let ids: Vec<u64> = v.get("history").unwrap().as_array().unwrap()
//!     .iter().filter_map(Json::as_u64).collect();
//! assert_eq!(ids, vec![1, 2, 5]);
//! ```

use std::fmt::Write as _;

/// Maximum nesting depth the parser accepts; beyond this the input is
/// rejected rather than risking a stack overflow on adversarial bodies.
const MAX_DEPTH: usize = 64;

/// A parsed JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number, held as `f64` (integers are exact up to 2^53).
    Num(f64),
    /// An `f32` written with `f32` shortest round-trip formatting. The
    /// parser never produces this variant; builders use it so tensor data
    /// and scores serialize compactly and reparse bit-exactly.
    F32(f32),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; insertion order is preserved by the writer.
    Obj(Vec<(String, Json)>),
}

/// A JSON syntax error with a byte offset into the input.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset where parsing failed.
    pub offset: usize,
    /// What went wrong.
    pub message: &'static str,
}

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid JSON at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for JsonError {}

impl Json {
    /// Parses a complete JSON document; trailing non-whitespace is an error.
    pub fn parse(bytes: &[u8]) -> Result<Json, JsonError> {
        let mut p = Parser { bytes, pos: 0 };
        p.skip_ws();
        let v = p.value(0)?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing characters after document"));
        }
        Ok(v)
    }

    /// Serializes to a JSON string.
    // Deliberately an inherent method, not `Display`: serialization is an
    // explicit operation here, and a `Display` impl would let callers
    // format checkpoints by accident.
    #[allow(clippy::inherent_to_string)]
    pub fn to_string(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    /// Serializes to JSON bytes.
    pub fn to_bytes(&self) -> Vec<u8> {
        self.to_string().into_bytes()
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(true) => out.push_str("true"),
            Json::Bool(false) => out.push_str("false"),
            Json::Num(x) => write_f64(*x, out),
            Json::F32(x) => write_f32(*x, out),
            Json::Str(s) => write_escaped(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (key, value)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_escaped(key, out);
                    out.push(':');
                    value.write(out);
                }
                out.push('}');
            }
        }
    }

    /// Object field lookup (first match; objects are small here).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The numeric value, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(x) => Some(*x),
            Json::F32(x) => Some(*x as f64),
            _ => None,
        }
    }

    /// The numeric value as `f32` (exact for checkpoint data written by
    /// [`Json::F32`]; see the module docs).
    pub fn as_f32(&self) -> Option<f32> {
        match self {
            Json::Num(x) => Some(*x as f32),
            Json::F32(x) => Some(*x),
            _ => None,
        }
    }

    /// The value as a non-negative integer, if it is one exactly.
    pub fn as_u64(&self) -> Option<u64> {
        let x = self.as_f64()?;
        if x >= 0.0 && x <= (1u64 << 53) as f64 && x.fract() == 0.0 {
            Some(x as u64)
        } else {
            None
        }
    }

    /// The string value, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s.as_str()),
            _ => None,
        }
    }

    /// The boolean value, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The items, if this is an array.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items.as_slice()),
            _ => None,
        }
    }

    /// Builds an object from `(key, value)` pairs, preserving order.
    pub fn obj(fields: Vec<(&str, Json)>) -> Json {
        Json::Obj(fields.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// Builds a string value.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// Builds an integer number (exact up to 2^53).
    pub fn int(n: usize) -> Json {
        Json::Num(n as f64)
    }
}

/// serde_json writes non-finite floats as `null`; match it so either
/// implementation can read the other's output.
fn write_f32(x: f32, out: &mut String) {
    if x.is_finite() {
        write!(out, "{x}").expect("write to String");
    } else {
        out.push_str("null");
    }
}

fn write_f64(x: f64, out: &mut String) {
    if x.is_finite() {
        write!(out, "{x}").expect("write to String");
    } else {
        out.push_str("null");
    }
}

fn write_escaped(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                write!(out, "\\u{:04x}", c as u32).expect("write to String");
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
    fn err(&self, message: &'static str) -> JsonError {
        JsonError { offset: self.pos, message }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, byte: u8, message: &'static str) -> Result<(), JsonError> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(message))
        }
    }

    fn literal(&mut self, lit: &'static [u8], value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(lit) {
            self.pos += lit.len();
            Ok(value)
        } else {
            Err(self.err("invalid literal"))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, JsonError> {
        if depth > MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        match self.peek() {
            None => Err(self.err("unexpected end of input")),
            Some(b'n') => self.literal(b"null", Json::Null),
            Some(b't') => self.literal(b"true", Json::Bool(true)),
            Some(b'f') => self.literal(b"false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[') => self.array(depth),
            Some(b'{') => self.object(depth),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(_) => Err(self.err("unexpected character")),
        }
    }

    fn array(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.expect(b'[', "expected [")?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected , or ] in array")),
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.expect(b'{', "expected {")?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':', "expected : after object key")?;
            self.skip_ws();
            let value = self.value(depth + 1)?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(self.err("expected , or } in object")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"', "expected string")?;
        let mut out = String::new();
        loop {
            let Some(b) = self.peek() else {
                return Err(self.err("unterminated string"));
            };
            self.pos += 1;
            match b {
                b'"' => return Ok(out),
                b'\\' => {
                    let Some(esc) = self.peek() else {
                        return Err(self.err("unterminated escape"));
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
                            let cp = self.hex4()?;
                            let c = if (0xd800..0xdc00).contains(&cp) {
                                // high surrogate: a \uXXXX low surrogate must follow
                                if self.peek() != Some(b'\\') {
                                    return Err(self.err("unpaired surrogate"));
                                }
                                self.pos += 1;
                                if self.peek() != Some(b'u') {
                                    return Err(self.err("unpaired surrogate"));
                                }
                                self.pos += 1;
                                let lo = self.hex4()?;
                                if !(0xdc00..0xe000).contains(&lo) {
                                    return Err(self.err("invalid low surrogate"));
                                }
                                let combined =
                                    0x10000 + ((cp - 0xd800) << 10) + (lo - 0xdc00);
                                char::from_u32(combined)
                                    .ok_or_else(|| self.err("invalid surrogate pair"))?
                            } else {
                                char::from_u32(cp)
                                    .ok_or_else(|| self.err("invalid code point"))?
                            };
                            out.push(c);
                        }
                        _ => return Err(self.err("invalid escape")),
                    }
                }
                b if b < 0x20 => return Err(self.err("control character in string")),
                _ => {
                    // re-decode UTF-8 starting at the byte we just consumed
                    let start = self.pos - 1;
                    let len = utf8_len(b).ok_or_else(|| self.err("invalid UTF-8"))?;
                    let end = start + len;
                    if end > self.bytes.len() {
                        return Err(self.err("truncated UTF-8"));
                    }
                    let s = std::str::from_utf8(&self.bytes[start..end])
                        .map_err(|_| self.err("invalid UTF-8"))?;
                    out.push_str(s);
                    self.pos = end;
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let mut cp = 0u32;
        for _ in 0..4 {
            let Some(b) = self.peek() else {
                return Err(self.err("truncated \\u escape"));
            };
            let d = (b as char).to_digit(16).ok_or_else(|| self.err("invalid hex digit"))?;
            cp = cp * 16 + d;
            self.pos += 1;
        }
        Ok(cp)
    }

    /// The next byte if it is a decimal digit, consumed.
    fn digit(&mut self) -> Option<u8> {
        let d = self.peek().filter(u8::is_ascii_digit)?;
        self.pos += 1;
        Some(d - b'0')
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        let negative = self.peek() == Some(b'-');
        if negative {
            self.pos += 1;
        }
        let mut decimal = Decimal::default();
        let digits_start = self.pos;
        while let Some(d) = self.digit() {
            decimal.push(d);
        }
        if self.pos == digits_start {
            return Err(self.err("expected digits"));
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            let frac_start = self.pos;
            while let Some(d) = self.digit() {
                decimal.push(d);
                decimal.exp10 -= 1;
            }
            if self.pos == frac_start {
                return Err(self.err("expected digits after decimal point"));
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            let exp_negative = self.peek() == Some(b'-');
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            let exp_start = self.pos;
            let mut exp = 0i64;
            while let Some(d) = self.digit() {
                // saturates far past any f64 exponent; the fallback reads the text
                exp = exp.saturating_mul(10).saturating_add(i64::from(d));
            }
            if self.pos == exp_start {
                return Err(self.err("expected digits in exponent"));
            }
            decimal.exp10 = decimal.exp10.saturating_add(if exp_negative { -exp } else { exp });
        }
        if let Some(x) = decimal.exact_f64() {
            return Ok(Json::Num(if negative { -x } else { x }));
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .expect("number bytes are ASCII");
        let x: f64 = text.parse().map_err(|_| JsonError {
            offset: start,
            message: "number out of range",
        })?;
        Ok(Json::Num(x))
    }
}

/// Mantissas below this are exact in an `f64` (its 53-bit significand).
const EXACT_MANTISSA: u64 = 1 << 53;

/// `10^0 ..= 10^22`: every one is exact in an `f64`, because `5^22 < 2^53`.
const POW10: [f64; 23] = [
    1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11, 1e12, 1e13, 1e14, 1e15,
    1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22,
];

/// A number's magnitude as the scanner reads it: `mantissa × 10^exp10`.
#[derive(Default)]
struct Decimal {
    /// The digits read so far as one integer, saturated to `u64::MAX`
    /// once it can no longer be exact.
    mantissa: u64,
    exp10: i64,
}

impl Decimal {
    /// Appends one digit (`0..=9`) to the mantissa. Leading zeros leave it
    /// at 0.
    fn push(&mut self, d: u8) {
        self.mantissa = if self.mantissa < EXACT_MANTISSA {
            self.mantissa * 10 + u64::from(d)
        } else {
            u64::MAX
        };
    }

    /// Clinger's fast path: with the mantissa and `10^|exp10|` both exact,
    /// one IEEE multiply or divide is the correctly rounded value, the
    /// same bits `str::parse::<f64>` gives. `None` when it does not apply.
    fn exact_f64(&self) -> Option<f64> {
        if self.mantissa >= EXACT_MANTISSA {
            return None;
        }
        let pow = *POW10.get(usize::try_from(self.exp10.unsigned_abs()).ok()?)?;
        let m = self.mantissa as f64;
        Some(if self.exp10 < 0 { m / pow } else { m * pow })
    }
}

fn utf8_len(first: u8) -> Option<usize> {
    match first {
        0x00..=0x7f => Some(1),
        0xc0..=0xdf => Some(2),
        0xe0..=0xef => Some(3),
        0xf0..=0xf7 => Some(4),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_structures() {
        let v = Json::obj(vec![
            ("a", Json::int(3)),
            ("b", Json::Arr(vec![Json::Bool(true), Json::Null, Json::str("x\"y\n")])),
            ("c", Json::obj(vec![("nested", Json::Num(-1.5))])),
        ]);
        let text = v.to_string();
        let back = Json::parse(text.as_bytes()).expect("reparse");
        assert_eq!(v, back);
    }

    #[test]
    fn f32_round_trip_is_exact() {
        let values = [
            0.1f32,
            -3.25,
            1.0,
            f32::MIN_POSITIVE,
            f32::MAX,
            1e-40, // subnormal
            0.15,
            std::f32::consts::PI,
        ];
        for &x in &values {
            let text = Json::F32(x).to_string();
            let back = Json::parse(text.as_bytes()).expect("parse");
            assert_eq!(back.as_f32(), Some(x), "{text}");
        }
        // non-finite writes null, like serde_json
        assert_eq!(Json::F32(f32::NAN).to_string(), "null");
        assert_eq!(Json::F32(f32::INFINITY).to_string(), "null");
    }

    #[test]
    fn parses_scientific_notation() {
        // serde_json (ryu) writes small floats with exponents
        let v = Json::parse(b"[1e-40, 2.5E3, -1.25e+2]").expect("parse");
        let items = v.as_array().expect("array");
        assert_eq!(items[0].as_f32(), Some(1e-40));
        assert_eq!(items[1].as_f64(), Some(2500.0));
        assert_eq!(items[2].as_f64(), Some(-125.0));
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in [
            &b"{"[..],
            b"[1,]",
            b"{\"a\":}",
            b"nul",
            b"1 2",
            b"\"unterminated",
            b"{\"a\" 1}",
            b"[1 2]",
            b"--1",
            b"1.",
            b"1e",
            b"\x01",
        ] {
            assert!(Json::parse(bad).is_err(), "{:?}", String::from_utf8_lossy(bad));
        }
    }

    #[test]
    fn depth_limit_holds() {
        let mut deep = String::new();
        for _ in 0..100 {
            deep.push('[');
        }
        for _ in 0..100 {
            deep.push(']');
        }
        assert!(Json::parse(deep.as_bytes()).is_err());
    }

    #[test]
    fn unicode_and_escapes() {
        let text = "\"caf\u{e9} \u{1f600} A\"";
        let v = Json::parse(text.as_bytes()).expect("parse");
        assert_eq!(v.as_str(), Some("caf\u{e9} \u{1f600} A"));
        let s = Json::str("tab\there\u{1}");
        let back = Json::parse(s.to_string().as_bytes()).expect("reparse");
        assert_eq!(back, s);
    }

    #[test]
    fn object_lookup_and_accessors() {
        let v = Json::parse(br#"{"k": 10, "name": "x", "flag": false}"#).expect("parse");
        assert_eq!(v.get("k").and_then(Json::as_u64), Some(10));
        assert_eq!(v.get("name").and_then(Json::as_str), Some("x"));
        assert_eq!(v.get("flag").and_then(Json::as_bool), Some(false));
        assert!(v.get("missing").is_none());
        assert_eq!(Json::Num(1.5).as_u64(), None);
        assert_eq!(Json::Num(-1.0).as_u64(), None);
    }
}
