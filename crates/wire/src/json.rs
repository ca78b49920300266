//! Hand-rolled JSON: a zero-alloc streaming writer and a pull reader, the
//! only JSON code in the workspace. The text rules, which the committed
//! corpora pin byte for byte:
//!
//! * compact output — no whitespace;
//! * numbers: integral values with `|n| < 9e15` render via `i64`, anything
//!   else uses Rust's shortest round-tripping float formatting; non-finite
//!   floats render as `null`;
//! * strings escape `"` `\` `\n` `\r` `\t`, other control characters as
//!   `\uXXXX`, and pass everything else through as UTF-8.
//!
//! [`JsonReader`] is a cursor over one document's text that yields a token
//! at a time: object keys and strings borrowed from the text (copied only
//! when they hold escapes), numbers as `f64`. It builds nothing itself. The
//! schema's readers decode each value straight into its field, and [`parse`]
//! builds a [`JsonValue`] tree through the same cursor. The grammar is
//! RFC 8259's, with the leniencies and limits the v1 wire has always had:
//!
//! * a number is `-`? digits\* (`.` digits\*)? (`e`|`E` (`+`|`-`)? digits\*)?,
//!   read by Rust's `f64` parser, so `01`, `1.`, `-.5` and `1.e5` read as 1,
//!   1, -0.5 and 100000; text that parser refuses (`-`, `1e`) and numbers
//!   beyond `f64`'s range are errors;
//! * `\u` takes exactly four hex digits, and a surrogate reads as U+FFFD;
//! * strings may not hold raw control characters;
//! * whitespace (space, tab, `\n`, `\r`) may surround every token;
//! * a value inside more than [`MAX_DEPTH`] containers is an error, also
//!   inside a value that is being skipped;
//! * anything but whitespace after the document is an error.
//!
//! A repeated object key is not an error: [`JsonValue::get`] and the schema's
//! readers resolve it to its last occurrence.

use crate::error::{Result, WireError};
use std::borrow::Cow;
use std::io::Write as _;

/// Maximum nesting depth; the wire fuzzer feeds arbitrary bytes here, and
/// reading or skipping `[[[[…` recursively must not blow the stack.
pub const MAX_DEPTH: usize = 128;

/// A parsed JSON document, the form golden files are read and written in.
/// Object fields keep their wire order (and any duplicates);
/// [`JsonValue::get`] resolves duplicate keys last-wins.
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
            write_int(self.out, n as i64);
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

/// Writes `v` in decimal, the bytes `write!` would give, without going
/// through the formatting machinery.
fn write_int(out: &mut Vec<u8>, v: i64) {
    let mut digits = [0u8; 20];
    let mut start = digits.len();
    let mut rest = v.unsigned_abs();
    loop {
        start -= 1;
        digits[start] = b'0' + (rest % 10) as u8;
        rest /= 10;
        if rest == 0 {
            break;
        }
    }
    if v < 0 {
        out.push(b'-');
    }
    out.extend_from_slice(&digits[start..]);
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
// Reader
// ---------------------------------------------------------------------------

/// Parses one complete JSON document into a tree; trailing non-whitespace
/// is an error.
pub fn parse(s: &str) -> Result<JsonValue> {
    let mut r = JsonReader::new(s);
    let v = JsonValue::read(&mut r)?;
    r.finish()?;
    Ok(v)
}

impl JsonValue {
    /// Reads the value at the cursor into a tree.
    pub fn read(r: &mut JsonReader<'_>) -> Result<JsonValue> {
        Ok(match r.peek() {
            Some(b'{') => {
                r.begin_obj()?;
                let mut pairs = Vec::new();
                while let Some(key) = r.next_key()? {
                    pairs.push((key.into_owned(), JsonValue::read(r)?));
                }
                JsonValue::Obj(pairs)
            }
            Some(b'[') => {
                r.begin_arr()?;
                let mut items = Vec::new();
                while r.next_elem()? {
                    items.push(JsonValue::read(r)?);
                }
                JsonValue::Arr(items)
            }
            Some(b'"') => JsonValue::Str(r.str()?.into_owned()),
            Some(b'n') => {
                r.null()?;
                JsonValue::Null
            }
            Some(b't' | b'f') => JsonValue::Bool(r.bool()?),
            _ => JsonValue::Num(r.num()?),
        })
    }
}

/// A pull reader: a cursor over one JSON document's text.
///
/// Each method skips the whitespace before its token. Containers are read
/// with [`begin_obj`](Self::begin_obj) then [`next_key`](Self::next_key)
/// until it returns `None`, or [`begin_arr`](Self::begin_arr) then
/// [`next_elem`](Self::next_elem) until it returns `false`; the caller
/// reads or [`skip`](Self::skip)s each member's value in between. The
/// reader is `Copy`: a copy is a saved position to look ahead from.
#[derive(Debug, Clone, Copy)]
pub struct JsonReader<'a> {
    text: &'a str,
    pos: usize,
    /// Containers open at the cursor.
    depth: usize,
    /// Set when a container has just opened: its first item takes no comma.
    first: bool,
}

impl<'a> JsonReader<'a> {
    /// A reader at the start of `text`.
    pub fn new(text: &'a str) -> Self {
        JsonReader { text, pos: 0, depth: 0, first: false }
    }

    /// Skips whitespace and returns the next byte, without consuming it.
    pub fn peek(&mut self) -> Option<u8> {
        let bytes = self.text.as_bytes();
        while let Some(&b) = bytes.get(self.pos) {
            if !matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                return Some(b);
            }
            self.pos += 1;
        }
        None
    }

    /// Ends the document: only whitespace may follow the value just read.
    pub fn finish(&mut self) -> Result<()> {
        match self.peek() {
            None => Ok(()),
            Some(_) => {
                Err(WireError::Malformed(format!("trailing characters at byte {}", self.pos)))
            }
        }
    }

    fn expect(&mut self, b: u8) -> Result<()> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(WireError::Malformed(format!("expected `{}` at byte {}", b as char, self.pos)))
        }
    }

    fn unexpected(&self) -> WireError {
        WireError::Malformed(format!("unexpected input at byte {}", self.pos))
    }

    /// Opens the object at the cursor (`{`).
    pub fn begin_obj(&mut self) -> Result<()> {
        self.expect(b'{')?;
        self.depth += 1;
        self.first = true;
        Ok(())
    }

    /// Opens the array at the cursor (`[`).
    pub fn begin_arr(&mut self) -> Result<()> {
        self.expect(b'[')?;
        self.depth += 1;
        self.first = true;
        Ok(())
    }

    /// Moves to the next member of the open object and returns its key,
    /// with the `:` consumed; `None` once the closing `}` is consumed.
    pub fn next_key(&mut self) -> Result<Option<Cow<'a, str>>> {
        if !self.next_item(b'}')? {
            return Ok(None);
        }
        let key = self.str()?;
        self.expect(b':')?;
        Ok(Some(key))
    }

    /// Moves to the next element of the open array: `true` if there is one,
    /// `false` once the closing `]` is consumed.
    pub fn next_elem(&mut self) -> Result<bool> {
        self.next_item(b']')
    }

    /// Consumes the separator before the next item, or the `close` that
    /// ends the container.
    fn next_item(&mut self, close: u8) -> Result<bool> {
        let next = self.peek();
        if next == Some(close) {
            self.pos += 1;
            self.depth -= 1;
            // The container just closed was an item of the one around it.
            self.first = false;
            return Ok(false);
        }
        if self.first {
            self.first = false;
        } else if next == Some(b',') {
            self.pos += 1;
        } else {
            return Err(WireError::Malformed(format!(
                "expected `,` or `{}` at byte {}",
                close as char, self.pos
            )));
        }
        if self.depth > MAX_DEPTH {
            return Err(WireError::malformed("document nested too deeply"));
        }
        Ok(true)
    }

    /// Skips the value at the cursor, checking it as strictly as reading it.
    pub fn skip(&mut self) -> Result<()> {
        match self.peek() {
            Some(b'{') => {
                self.begin_obj()?;
                while self.next_key()?.is_some() {
                    self.skip()?;
                }
            }
            Some(b'[') => {
                self.begin_arr()?;
                while self.next_elem()? {
                    self.skip()?;
                }
            }
            Some(b'"') => drop(self.str()?),
            Some(b'n') => self.null()?,
            Some(b't' | b'f') => drop(self.bool()?),
            _ => drop(self.num()?),
        }
        Ok(())
    }

    fn literal(&mut self, word: &str) -> Result<()> {
        self.peek();
        if self.text.as_bytes()[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(())
        } else {
            Err(WireError::Malformed(format!("invalid literal at byte {}", self.pos)))
        }
    }

    /// Reads `null`.
    pub fn null(&mut self) -> Result<()> {
        self.literal("null")
    }

    /// Reads `true` or `false`.
    pub fn bool(&mut self) -> Result<bool> {
        match self.peek() {
            Some(b't') => self.literal("true").map(|()| true),
            Some(b'f') => self.literal("false").map(|()| false),
            _ => Err(self.unexpected()),
        }
    }

    /// Reads a number: the longest run the grammar in the
    /// [module docs](self) allows, parsed by Rust's `f64` parser, which
    /// must accept all of it and give a finite value.
    pub fn num(&mut self) -> Result<f64> {
        if !matches!(self.peek(), Some(b'-' | b'0'..=b'9')) {
            return Err(self.unexpected());
        }
        let bytes = self.text.as_bytes();
        let digits = |pos: &mut usize| {
            while bytes.get(*pos).is_some_and(u8::is_ascii_digit) {
                *pos += 1;
            }
        };
        let start = self.pos;
        if bytes[self.pos] == b'-' {
            self.pos += 1;
        }
        digits(&mut self.pos);
        if bytes.get(self.pos) == Some(&b'.') {
            self.pos += 1;
            digits(&mut self.pos);
        }
        if matches!(bytes.get(self.pos), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(bytes.get(self.pos), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            digits(&mut self.pos);
        }
        let text = &self.text[start..self.pos];
        let n: f64 =
            text.parse().map_err(|_| WireError::Malformed(format!("invalid number `{text}`")))?;
        if n.is_finite() {
            Ok(n)
        } else {
            Err(WireError::Malformed(format!("number `{text}` overflows f64")))
        }
    }

    /// Reads a string: borrowed from the text unless it holds escapes.
    pub fn str(&mut self) -> Result<Cow<'a, str>> {
        self.expect(b'"')?;
        let bytes = self.text.as_bytes();
        let start = self.pos;
        self.plain_run();
        if bytes.get(self.pos) == Some(&b'"') {
            self.pos += 1;
            return Ok(Cow::Borrowed(&self.text[start..self.pos - 1]));
        }
        let mut out = String::from(&self.text[start..self.pos]);
        loop {
            match bytes.get(self.pos) {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(Cow::Owned(out));
                }
                Some(b'\\') => {
                    self.pos += 1;
                    out.push(self.escape()?);
                }
                Some(_) => return Err(WireError::malformed("control character in string")),
                None => return Err(WireError::malformed("unterminated string")),
            }
            let run = self.pos;
            self.plain_run();
            out.push_str(&self.text[run..self.pos]);
        }
    }

    /// Advances over string content up to the next quote, backslash,
    /// control character or the end of the text.
    fn plain_run(&mut self) {
        let bytes = self.text.as_bytes();
        while let Some(&b) = bytes.get(self.pos) {
            if b == b'"' || b == b'\\' || b < 0x20 {
                break;
            }
            self.pos += 1;
        }
    }

    /// Decodes the escape after a backslash.
    fn escape(&mut self) -> Result<char> {
        let bytes = self.text.as_bytes();
        let kind = bytes.get(self.pos).copied();
        self.pos += 1;
        Ok(match kind {
            Some(b'"') => '"',
            Some(b'\\') => '\\',
            Some(b'/') => '/',
            Some(b'b') => '\u{8}',
            Some(b'f') => '\u{c}',
            Some(b'n') => '\n',
            Some(b'r') => '\r',
            Some(b't') => '\t',
            Some(b'u') => {
                let hex = bytes
                    .get(self.pos..self.pos + 4)
                    .ok_or_else(|| WireError::malformed("truncated \\u escape"))?;
                let mut code = 0;
                for &h in hex {
                    let digit = char::from(h)
                        .to_digit(16)
                        .ok_or_else(|| WireError::malformed("invalid \\u escape"))?;
                    code = code * 16 + digit;
                }
                self.pos += 4;
                // Surrogates degrade to the replacement character; nothing
                // in this workspace emits them — the writer never uses \u
                // above 0x1F.
                char::from_u32(code).unwrap_or('\u{fffd}')
            }
            _ => return Err(WireError::malformed("invalid escape")),
        })
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
        // The digit loop writes the bytes `i64`'s `Display` would.
        for n in [1.0, 9.0, 10.0, -10.0, 99.0, 100.0, 1234567.0, -9.0e15 + 1.0, 9.0e15 - 1.0] {
            assert_eq!(written(|w| w.f64_val(n)), (n as i64).to_string(), "formatting {n}");
        }
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
        // `\u` takes exactly four hex digits: no sign, no short forms.
        for bad in [r#""\u+041""#, r#""\u-041""#, r#""\u 041""#, r#""\u04""#, r#""\u04g1""#] {
            assert!(parse(bad).is_err(), "{bad:?} must be rejected");
        }
        assert_eq!(parse(r#""\u0041\u00e9""#).unwrap(), JsonValue::Str("Aé".into()));
        let deep = "[".repeat(200) + &"]".repeat(200);
        assert!(parse(&deep).is_err(), "depth bomb must be rejected");
        let ok_depth = "[".repeat(100) + "1" + &"]".repeat(100);
        assert!(parse(&ok_depth).is_ok(), "moderate nesting is fine");
        // A value may sit inside `MAX_DEPTH` containers but not one more; an
        // empty container at that depth holds no value.
        let nest = |n: usize, inner: &str| "[".repeat(n) + inner + &"]".repeat(n);
        assert!(parse(&nest(MAX_DEPTH, "1")).is_ok());
        assert!(parse(&nest(MAX_DEPTH + 1, "1")).is_err());
        assert!(parse(&nest(MAX_DEPTH + 1, "")).is_ok());
        assert!(parse(&nest(MAX_DEPTH + 2, "")).is_err());
    }

    #[test]
    fn null_decodes_to_nan_for_floats_and_errors_for_ints() {
        use crate::schema::from_json;
        assert!(from_json::<f64>("null").unwrap().is_nan());
        assert!(from_json::<u64>("null").is_err());
        assert!(from_json::<u64>("1.5").is_err());
        assert_eq!(from_json::<u64>("7").unwrap(), 7);
        // Out-of-range integers fail instead of saturating or wrapping.
        assert!(from_json::<u64>("-12").is_err());
        assert!(from_json::<u64>("1e20").is_err());
        assert!(from_json::<usize>("-1").is_err());
        assert!(from_json::<u32>("4294967296").is_err());
        assert_eq!(from_json::<u32>("4294967295").unwrap(), u32::MAX);
    }

    #[test]
    fn lenient_number_forms_read_as_the_grammar_says() {
        let cases = [
            ("01", 1.0),
            ("1.", 1.0),
            ("-.5", -0.5),
            ("1.e5", 100000.0),
            ("-0", 0.0),
            ("2E-3", 0.002),
            ("1e+2", 100.0),
        ];
        for (text, want) in cases {
            assert_eq!(parse(text).unwrap(), JsonValue::Num(want), "{text}");
        }
    }

    #[test]
    fn finite_numbers_survive_a_write_and_read_bit_for_bit() {
        let values = [
            0.1,
            1.0 / 3.0,
            -2.5e-7,
            1e-300,
            5e-324,
            f64::MAX,
            -f64::MIN_POSITIVE,
            123_456_789.123_456_79,
            9.0e15,
            -9.0e15 + 1.0,
            -61.25,
        ];
        for n in values {
            let text = written(|w| w.f64_val(n));
            let back = parse(&text).unwrap().as_num().unwrap();
            assert_eq!(back.to_bits(), n.to_bits(), "{n} wrote as {text}");
        }
        // The one exception: -0.0 is integral and writes as `0`.
        assert_eq!(parse(&written(|w| w.f64_val(-0.0))).unwrap().as_num().unwrap().to_bits(), 0);
    }

    #[test]
    fn numbers_the_f64_parser_refuses_are_errors() {
        for bad in ["-", "1e", "1e+", "-e5", "+1", ".5", "1.5.2", "0x10", "1e999", "-1e999"] {
            assert!(parse(bad).is_err(), "{bad:?} must be rejected");
        }
    }

    #[test]
    fn short_escapes_decode_and_unknown_ones_are_errors() {
        assert_eq!(
            parse(r#""\"\\\/\b\f\n\r\t""#).unwrap(),
            JsonValue::Str("\"\\/\u{8}\u{c}\n\r\t".into())
        );
        for bad in [r#""\x""#, r#""\'""#, r#""\u00""#, "\"\\", "\"open", "\"a\nb\"", "\"\t\""] {
            assert!(parse(bad).is_err(), "{bad:?} must be rejected");
        }
    }

    #[test]
    fn surrogate_escapes_read_as_the_replacement_character() {
        // A surrogate pair is two lone surrogates to this reader.
        assert_eq!(parse(r#""\ud83d\ude00""#).unwrap(), JsonValue::Str("\u{fffd}\u{fffd}".into()));
        assert_eq!(parse(r#""a\uDFFFb""#).unwrap(), JsonValue::Str("a\u{fffd}b".into()));
    }

    #[test]
    fn every_control_character_the_writer_escapes_reads_back() {
        for c in (0u8..0x20).map(char::from) {
            let s = format!("a{c}b");
            let text = written(|w| w.str_val(&s));
            assert_eq!(parse(&text).unwrap(), JsonValue::Str(s), "{text}");
        }
    }

    #[test]
    fn strings_without_escapes_are_borrowed_from_the_text() {
        let mut r = JsonReader::new(r#"{"plain":"text","esc\"key":"a\nb"}"#);
        r.begin_obj().unwrap();
        assert!(matches!(r.next_key().unwrap(), Some(Cow::Borrowed("plain"))));
        assert!(matches!(r.str().unwrap(), Cow::Borrowed("text")));
        match r.next_key().unwrap() {
            Some(Cow::Owned(key)) => assert_eq!(key, "esc\"key"),
            other => panic!("an escaped key must be copied, got {other:?}"),
        }
        match r.str().unwrap() {
            Cow::Owned(s) => assert_eq!(s, "a\nb"),
            Cow::Borrowed(s) => panic!("an escaped string must be copied, got {s:?}"),
        }
        assert_eq!(r.next_key().unwrap(), None);
        r.finish().unwrap();
    }

    #[test]
    fn the_four_whitespace_bytes_may_surround_every_token() {
        let text = " \t\r\n{ \"a\" :\n[ 1 ,\t2 ] , \"b\" : null }\r\n ";
        let want = JsonValue::Obj(vec![
            ("a".into(), JsonValue::Arr(vec![JsonValue::Num(1.0), JsonValue::Num(2.0)])),
            ("b".into(), JsonValue::Null),
        ]);
        assert_eq!(parse(text).unwrap(), want);
        // Form feed and no-break space are not JSON whitespace.
        for bad in ["\u{c}1", "1\u{a0}", "[1,\u{c}2]"] {
            assert!(parse(bad).is_err(), "{bad:?} must be rejected");
        }
    }

    #[test]
    fn text_after_the_document_is_an_error_naming_its_byte() {
        let err = parse("{} {}").unwrap_err().to_string();
        assert!(err.contains("trailing characters at byte 3"), "{err}");
        assert!(parse("[1]]").is_err());
        assert!(parse("\"a\"\"b\"").is_err());
    }

    #[test]
    fn separators_must_sit_between_items_only() {
        for bad in [
            "[1 2]",
            "[,1]",
            "[1,]",
            "[1,,2]",
            r#"{"a":1 "b":2}"#,
            r#"{"a" 1}"#,
            r#"{,"a":1}"#,
            r#"{"a":1,}"#,
            "{1:2}",
            "]",
            "}",
            "[}",
            "{]",
        ] {
            assert!(parse(bad).is_err(), "{bad:?} must be rejected");
        }
    }

    #[test]
    fn skip_moves_past_one_value_and_checks_it_like_a_read() {
        let mut r = JsonReader::new(r#"{"skip":{"a":[1,{"b":null}],"c":"A"},"keep":true}"#);
        r.begin_obj().unwrap();
        assert_eq!(r.next_key().unwrap().as_deref(), Some("skip"));
        r.skip().unwrap();
        assert_eq!(r.next_key().unwrap().as_deref(), Some("keep"));
        assert!(r.bool().unwrap());
        assert_eq!(r.next_key().unwrap(), None);
        r.finish().unwrap();

        for bad in ["[1,tru]", r#"{"a":}"#, r#"["\x"]"#, "[1 2]", "-", ""] {
            assert!(JsonReader::new(bad).skip().is_err(), "{bad:?} must be rejected");
        }
        let nest = |n: usize| "[".repeat(n) + "1" + &"]".repeat(n);
        assert!(JsonReader::new(&nest(MAX_DEPTH)).skip().is_ok());
        assert!(JsonReader::new(&nest(MAX_DEPTH + 1)).skip().is_err(), "skipping is depth-capped");
    }

    #[test]
    fn a_copied_reader_is_a_saved_position() {
        let mut r = JsonReader::new("[10, 20]");
        r.begin_arr().unwrap();
        assert!(r.next_elem().unwrap());
        let mut ahead = r;
        assert_eq!(ahead.num().unwrap(), 10.0);
        assert!(ahead.next_elem().unwrap());
        assert_eq!(ahead.num().unwrap(), 20.0);
        assert!(!ahead.next_elem().unwrap());
        // Reading ahead on the copy left the original where it was.
        assert_eq!(r.num().unwrap(), 10.0);
    }

    #[test]
    fn writer_appends_to_the_callers_buffer() {
        let mut buf = b"x\n".to_vec();
        let mut w = JsonWriter::new(&mut buf);
        w.begin_arr();
        w.usize_val(3);
        w.u32_val(u32::MAX);
        // Routed through f64: 2^53 + 1 is not representable and rounds down.
        w.u64_val((1 << 53) + 1);
        w.end_arr();
        // A second writer on the same buffer starts a fresh document.
        let mut w = JsonWriter::new(&mut buf);
        w.begin_obj();
        w.end_obj();
        assert_eq!(String::from_utf8(buf).unwrap(), "x\n[3,4294967295,9007199254740992]{}");
    }

    #[test]
    fn value_accessors_answer_only_for_their_own_kind() {
        let v = parse(r#"{"n":1,"s":"x","b":true,"z":null,"a":[1]}"#).unwrap();
        assert_eq!(v.get("n").and_then(JsonValue::as_num), Some(1.0));
        assert_eq!(v.get("s").and_then(JsonValue::as_str), Some("x"));
        assert_eq!(v.get("b").and_then(JsonValue::as_bool), Some(true));
        assert_eq!(v.get("n").and_then(JsonValue::as_str), None);
        assert_eq!(v.get("s").and_then(JsonValue::as_bool), None);
        assert_eq!(v.get("b").and_then(JsonValue::as_num), None);
        assert_eq!(v.get("z"), Some(&JsonValue::Null));
        assert_eq!(v.get("missing"), None);
        // Only objects have fields.
        assert_eq!(v.get("a").unwrap().get("0"), None);
        assert_eq!(JsonValue::Str("k".into()).get("k"), None);
    }
}
