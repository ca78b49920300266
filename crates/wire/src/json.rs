//! Hand-rolled JSON: a zero-alloc streaming writer and a strict parser, the
//! only JSON code in the workspace. The text rules, which the committed
//! corpora pin byte for byte:
//!
//! * compact output — no whitespace;
//! * numbers: integral values with `|n| < 9e15` render via `i64`, anything
//!   else uses Rust's shortest round-tripping float formatting; non-finite
//!   floats render as `null`;
//! * strings escape `"` `\` `\n` `\r` `\t`, other control characters as
//!   `\uXXXX`, and pass everything else through as UTF-8;
//! * the parser is strict (no trailing garbage, no control characters in
//!   strings, depth-capped) and keeps duplicate object keys, with lookups
//!   resolving to the **last** occurrence.

use crate::error::{Result, WireError};
use std::io::Write as _;

/// Maximum nesting depth; the wire fuzzer feeds arbitrary bytes here and a
/// recursive-descent parser must not blow the stack on `[[[[…`.
pub const MAX_DEPTH: usize = 128;

/// A parsed JSON document. Object fields keep their wire order (and any
/// duplicates); [`JsonValue::get`] resolves duplicate keys last-wins.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any number, always carried as `f64`.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<JsonValue>),
    /// An object, as ordered key/value pairs.
    Obj(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Object field lookup, scanning from the back so duplicate keys
    /// resolve to the last occurrence.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Obj(pairs) => pairs.iter().rev().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }
    /// The number, if this is one.
    pub fn as_num(&self) -> Option<f64> {
        match self {
            JsonValue::Num(n) => Some(*n),
            _ => None,
        }
    }
    /// The string, if this is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }
    /// The bool, if this is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            JsonValue::Bool(b) => Some(*b),
            _ => None,
        }
    }
    /// The elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Arr(items) => Some(items),
            _ => None,
        }
    }
}

// ---------------------------------------------------------------------------
// Streaming writer
// ---------------------------------------------------------------------------

/// Zero-alloc streaming JSON writer.
///
/// Appends compact JSON directly to a caller-owned byte buffer — no
/// intermediate value tree, no per-value allocation — so a serving loop can
/// reuse one buffer across messages. Structure (comma placement, key/value
/// alternation) is tracked in a fixed-size bitset; the caller is trusted to
/// call methods in a valid order (`debug_assert`s police it in tests).
pub struct JsonWriter<'a> {
    out: &'a mut Vec<u8>,
    /// One bit per open container depth, set once that container has
    /// written its first element (⇒ the next element needs a comma).
    comma: u128,
    depth: usize,
    after_key: bool,
}

impl<'a> JsonWriter<'a> {
    /// Starts writing at the end of `out` (which is *not* cleared — the
    /// caller may be framing, e.g. appending a trailing `\n` per message).
    pub fn new(out: &'a mut Vec<u8>) -> Self {
        JsonWriter { out, comma: 0, depth: 0, after_key: false }
    }

    fn sep(&mut self) {
        if self.after_key {
            self.after_key = false;
            return;
        }
        let bit = 1u128 << (self.depth % 128);
        if self.comma & bit != 0 {
            self.out.push(b',');
        } else {
            self.comma |= bit;
        }
    }

    /// Opens an object (`{`).
    pub fn begin_obj(&mut self) {
        self.sep();
        self.out.push(b'{');
        self.depth += 1;
        debug_assert!(self.depth < 128, "writer nesting exceeds the wire depth cap");
        self.comma &= !(1u128 << (self.depth % 128));
    }

    /// Closes the innermost object (`}`).
    pub fn end_obj(&mut self) {
        debug_assert!(self.depth > 0 && !self.after_key);
        self.depth -= 1;
        self.out.push(b'}');
    }

    /// Opens an array (`[`).
    pub fn begin_arr(&mut self) {
        self.sep();
        self.out.push(b'[');
        self.depth += 1;
        debug_assert!(self.depth < 128, "writer nesting exceeds the wire depth cap");
        self.comma &= !(1u128 << (self.depth % 128));
    }

    /// Closes the innermost array (`]`).
    pub fn end_arr(&mut self) {
        debug_assert!(self.depth > 0 && !self.after_key);
        self.depth -= 1;
        self.out.push(b']');
    }

    /// Writes an object key (with its `:`); the next value call is its value.
    pub fn key(&mut self, name: &str) {
        debug_assert!(!self.after_key);
        self.sep();
        escape_str(name, self.out);
        self.out.push(b':');
        self.after_key = true;
    }

    /// Writes a string value.
    pub fn str_val(&mut self, s: &str) {
        self.sep();
        escape_str(s, self.out);
    }

    /// Writes a number: non-finite → `null`, integral below 9e15 via `i64`,
    /// else shortest round-tripping `f64`.
    pub fn f64_val(&mut self, n: f64) {
        self.sep();
        if !n.is_finite() {
            self.out.extend_from_slice(b"null");
        } else if n.fract() == 0.0 && n.abs() < 9.0e15 {
            write!(self.out, "{}", n as i64).expect("write to Vec cannot fail");
        } else {
            write!(self.out, "{n}").expect("write to Vec cannot fail");
        }
    }

    /// Writes a `u64` as a JSON number, routed through `f64`: integers above
    /// 2^53 lose precision, so the CLI refuses seeds that large.
    pub fn u64_val(&mut self, v: u64) {
        self.f64_val(v as f64);
    }

    /// Writes a `usize` (via [`JsonWriter::u64_val`]).
    pub fn usize_val(&mut self, v: usize) {
        self.u64_val(v as u64);
    }

    /// Writes a `u32` (via [`JsonWriter::u64_val`]).
    pub fn u32_val(&mut self, v: u32) {
        self.u64_val(v as u64);
    }

    /// Writes `true`/`false`.
    pub fn bool_val(&mut self, b: bool) {
        self.sep();
        self.out.extend_from_slice(if b { b"true" } else { b"false" });
    }

    /// Writes `null`.
    pub fn null_val(&mut self) {
        self.sep();
        self.out.extend_from_slice(b"null");
    }
}

fn escape_str(s: &str, out: &mut Vec<u8>) {
    out.push(b'"');
    let mut start = 0;
    for (i, b) in s.bytes().enumerate() {
        let esc: &[u8] = match b {
            b'"' => b"\\\"",
            b'\\' => b"\\\\",
            b'\n' => b"\\n",
            b'\r' => b"\\r",
            b'\t' => b"\\t",
            c if c < 0x20 => {
                out.extend_from_slice(&s.as_bytes()[start..i]);
                write!(out, "\\u{:04x}", c).expect("write to Vec cannot fail");
                start = i + 1;
                continue;
            }
            _ => continue,
        };
        out.extend_from_slice(&s.as_bytes()[start..i]);
        out.extend_from_slice(esc);
        start = i + 1;
    }
    out.extend_from_slice(&s.as_bytes()[start..]);
    out.push(b'"');
}

// ---------------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------------

/// Parses one complete JSON document; trailing non-whitespace is an error.
pub fn parse(s: &str) -> Result<JsonValue> {
    let mut p = Parser { bytes: s.as_bytes(), pos: 0 };
    p.skip_ws();
    let v = p.value(0)?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(WireError::Malformed(format!("trailing characters at byte {}", p.pos)));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn eat(&mut self, b: u8) -> Result<()> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(WireError::Malformed(format!("expected `{}` at byte {}", b as char, self.pos)))
        }
    }

    fn eat_keyword(&mut self, kw: &str) -> Result<()> {
        if self.bytes[self.pos..].starts_with(kw.as_bytes()) {
            self.pos += kw.len();
            Ok(())
        } else {
            Err(WireError::Malformed(format!("invalid literal at byte {}", self.pos)))
        }
    }

    fn value(&mut self, depth: usize) -> Result<JsonValue> {
        if depth > MAX_DEPTH {
            return Err(WireError::malformed("document nested too deeply"));
        }
        match self.peek() {
            Some(b'n') => self.eat_keyword("null").map(|_| JsonValue::Null),
            Some(b't') => self.eat_keyword("true").map(|_| JsonValue::Bool(true)),
            Some(b'f') => self.eat_keyword("false").map(|_| JsonValue::Bool(false)),
            Some(b'"') => self.string().map(JsonValue::Str),
            Some(b'[') => {
                self.pos += 1;
                let mut items = Vec::new();
                self.skip_ws();
                if self.peek() == Some(b']') {
                    self.pos += 1;
                    return Ok(JsonValue::Arr(items));
                }
                loop {
                    self.skip_ws();
                    items.push(self.value(depth + 1)?);
                    self.skip_ws();
                    match self.peek() {
                        Some(b',') => self.pos += 1,
                        Some(b']') => {
                            self.pos += 1;
                            return Ok(JsonValue::Arr(items));
                        }
                        _ => {
                            return Err(WireError::Malformed(format!(
                                "expected `,` or `]` at byte {}",
                                self.pos
                            )))
                        }
                    }
                }
            }
            Some(b'{') => {
                self.pos += 1;
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
                    self.eat(b':')?;
                    self.skip_ws();
                    let value = self.value(depth + 1)?;
                    pairs.push((key, value));
                    self.skip_ws();
                    match self.peek() {
                        Some(b',') => self.pos += 1,
                        Some(b'}') => {
                            self.pos += 1;
                            return Ok(JsonValue::Obj(pairs));
                        }
                        _ => {
                            return Err(WireError::Malformed(format!(
                                "expected `,` or `}}` at byte {}",
                                self.pos
                            )))
                        }
                    }
                }
            }
            Some(b) if b == b'-' || b.is_ascii_digit() => self.number(),
            _ => Err(WireError::Malformed(format!("unexpected input at byte {}", self.pos))),
        }
    }

    fn number(&mut self) -> Result<JsonValue> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b) if b.is_ascii_digit()) {
            self.pos += 1;
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            while matches!(self.peek(), Some(b) if b.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e') | Some(b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+') | Some(b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(b) if b.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        let text =
            std::str::from_utf8(&self.bytes[start..self.pos]).map_err(|_| WireError::BadUtf8)?;
        let n: f64 =
            text.parse().map_err(|_| WireError::Malformed(format!("invalid number `{text}`")))?;
        if n.is_finite() {
            Ok(JsonValue::Num(n))
        } else {
            Err(WireError::Malformed(format!("number `{text}` overflows f64")))
        }
    }

    fn string(&mut self) -> Result<String> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(WireError::malformed("unterminated string")),
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
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .ok_or_else(|| WireError::malformed("truncated \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| WireError::malformed("invalid \\u escape"))?;
                            // Surrogates degrade to the replacement
                            // character; nothing in this workspace emits
                            // them — the writer never uses \u above 0x1F.
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        _ => return Err(WireError::malformed("invalid escape")),
                    }
                    self.pos += 1;
                }
                Some(b) if b < 0x80 => {
                    if b < 0x20 {
                        return Err(WireError::malformed("control character in string"));
                    }
                    out.push(b as char);
                    self.pos += 1;
                }
                Some(_) => {
                    // Multi-byte UTF-8: take the full scalar from the source.
                    let rest = std::str::from_utf8(&self.bytes[self.pos..])
                        .map_err(|_| WireError::BadUtf8)?;
                    let ch = rest.chars().next().expect("non-empty by construction");
                    out.push(ch);
                    self.pos += ch.len_utf8();
                }
            }
        }
    }
}

/// Renders a parsed value back to compact JSON (writer round-trip support;
/// the hot paths stream through [`JsonWriter`] instead).
pub fn render(v: &JsonValue, out: &mut Vec<u8>) {
    let mut w = JsonWriter::new(out);
    render_into(v, &mut w);
}

fn render_into(v: &JsonValue, w: &mut JsonWriter<'_>) {
    match v {
        JsonValue::Null => w.null_val(),
        JsonValue::Bool(b) => w.bool_val(*b),
        JsonValue::Num(n) => w.f64_val(*n),
        JsonValue::Str(s) => w.str_val(s),
        JsonValue::Arr(items) => {
            w.begin_arr();
            for item in items {
                render_into(item, w);
            }
            w.end_arr();
        }
        JsonValue::Obj(pairs) => {
            w.begin_obj();
            for (k, item) in pairs {
                w.key(k);
                render_into(item, w);
            }
            w.end_obj();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn written(f: impl FnOnce(&mut JsonWriter<'_>)) -> String {
        let mut buf = Vec::new();
        let mut w = JsonWriter::new(&mut buf);
        f(&mut w);
        String::from_utf8(buf).unwrap()
    }

    #[test]
    fn writer_produces_compact_nested_structures() {
        let s = written(|w| {
            w.begin_obj();
            w.key("a");
            w.f64_val(1.0);
            w.key("b");
            w.begin_arr();
            w.f64_val(0.5);
            w.null_val();
            w.begin_obj();
            w.key("c");
            w.str_val("x");
            w.end_obj();
            w.end_arr();
            w.key("d");
            w.bool_val(false);
            w.end_obj();
        });
        assert_eq!(s, r#"{"a":1,"b":[0.5,null,{"c":"x"}],"d":false}"#);
    }

    #[test]
    fn writer_number_formatting_matches_the_stub_rules() {
        let cases: [(f64, &str); 7] = [
            (0.0, "0"),
            (-0.0, "0"), // -0.0 is integral: renders via i64 as 0
            (3.0, "3"),
            (-17.0, "-17"),
            (0.5, "0.5"),
            (f64::NAN, "null"),
            (f64::INFINITY, "null"),
        ];
        for (n, want) in &cases {
            assert_eq!(written(|w| w.f64_val(*n)), *want, "formatting {n}");
        }
        // Rust's Display never uses scientific notation; huge magnitudes
        // expand fully.
        assert_eq!(written(|w| w.f64_val(1e300)), format!("{}", 1e300));
        // At exactly 9e15 the integral fast path is skipped (|n| < 9e15).
        assert_eq!(written(|w| w.f64_val(9.0e15)), format!("{}", 9.0e15));
    }

    #[test]
    fn writer_escapes_strings_like_the_stub() {
        let got = written(|w| w.str_val("a\"b\\c\nd\re\tf\u{1}g é"));
        assert_eq!(got, "\"a\\\"b\\\\c\\nd\\re\\tf\\u0001g é\"");
    }

    #[test]
    fn parse_round_trips_through_render() {
        let docs = [
            r#"{"cmd":"locate","site":"lab","y":[-50.5,null,3]}"#,
            r#"[1,2.5,-0.125,"x",true,false,null,{},[]]"#,
            r#""just a string""#,
            "12345",
            r#"{"dup":1,"dup":2}"#,
        ];
        for doc in docs {
            let v = parse(doc).unwrap();
            let mut out = Vec::new();
            render(&v, &mut out);
            assert_eq!(std::str::from_utf8(&out).unwrap(), doc, "round trip of {doc}");
        }
    }

    #[test]
    fn duplicate_keys_resolve_last_wins() {
        let v = parse(r#"{"k":1,"k":2}"#).unwrap();
        assert_eq!(v.get("k").unwrap().as_num(), Some(2.0));
    }

    #[test]
    fn parser_rejects_garbage_and_depth_bombs() {
        for bad in ["", "tru", "{", "[1,", r#"{"a"}"#, "1 2", "nul", "\"\u{1}\"", "1e999"] {
            assert!(parse(bad).is_err(), "{bad:?} must be rejected");
        }
        let deep = "[".repeat(200) + &"]".repeat(200);
        assert!(parse(&deep).is_err(), "depth bomb must be rejected");
        let ok_depth = "[".repeat(100) + "1" + &"]".repeat(100);
        assert!(parse(&ok_depth).is_ok(), "moderate nesting is fine");
    }

    #[test]
    fn null_decodes_to_nan_for_floats_and_errors_for_ints() {
        use crate::schema::Codec;
        let v = parse(r#"{"y":null}"#).unwrap();
        assert!(f64::read_json(v.get("y").unwrap()).unwrap().is_nan());
        assert!(u64::read_json(v.get("y").unwrap()).is_err());
        assert!(u64::read_json(&JsonValue::Num(1.5)).is_err());
        assert_eq!(u64::read_json(&JsonValue::Num(7.0)).unwrap(), 7);
        // Out-of-range integers fail instead of saturating or wrapping.
        assert!(u64::read_json(&JsonValue::Num(-12.0)).is_err());
        assert!(u64::read_json(&JsonValue::Num(1e20)).is_err());
        assert!(usize::read_json(&JsonValue::Num(-1.0)).is_err());
        assert!(u32::read_json(&JsonValue::Num(4_294_967_296.0)).is_err());
        assert_eq!(u32::read_json(&JsonValue::Num(4_294_967_295.0)).unwrap(), u32::MAX);
    }
}
