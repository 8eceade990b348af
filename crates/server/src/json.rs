//! A minimal, dependency-free JSON value type with a parser, and the
//! [`JsonWriter`] push encoder every byte of output goes through.
//!
//! The container this workspace builds in has no network access, so
//! `serde`/`serde_json` are unavailable; the protocol only needs the small
//! subset implemented here (RFC 8259 values, UTF-8 input, `\uXXXX` escapes
//! including surrogate pairs). Numbers are kept as `f64`, which is exact
//! for every integer the protocol carries (row ids, session ids, counts
//! are all far below 2⁵³). [`Json`] is what requests parse into; replies
//! are pushed into a [`JsonWriter`] field by field and never become a tree.

use std::collections::BTreeMap;
use std::fmt::{self, Write as _};

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object. Ordered map, so serialization is deterministic.
    Obj(BTreeMap<String, Json>),
}

impl Json {
    /// Builds an object from `(key, value)` pairs.
    pub fn obj(pairs: Vec<(&str, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// Builds a string value.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// Builds a number value.
    pub fn num(n: f64) -> Json {
        Json::Num(n)
    }

    /// A member of an object (`None` for non-objects and missing keys).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(map) => map.get(key),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The numeric payload as a non-negative integer (rejects fractions
    /// and negatives — the shape of every id in the protocol).
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= u64::MAX as f64 => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// The boolean payload, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The element list, if this is an array.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Parses a JSON document (the whole input must be one value, nested
    /// at most [`MAX_NESTING`] deep).
    pub fn parse(input: &str) -> Result<Json, String> {
        let mut p = Parser { bytes: input.as_bytes(), pos: 0, depth: 0 };
        p.skip_ws();
        let value = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing characters at byte {}", p.pos));
        }
        Ok(value)
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut out = String::new();
        JsonWriter::new(&mut out).value(self);
        f.write_str(&out)
    }
}

/// The envelope of a protocol reply: the members every reply carries
/// beside its payload.
#[derive(Debug, Clone, Copy)]
struct Envelope<'a> {
    /// The request's `id`, echoed when present.
    id: Option<&'a Json>,
    /// The `ok` member: `true` until the reply [fails](JsonWriter::fail).
    ok: bool,
    /// How many of the members (`id`, then `ok`) are dealt with.
    written: u8,
}

/// A push encoder: the one place a JSON document is rendered, whether
/// from a [`Json`] tree ([`JsonWriter::value`], which is what `Display`
/// does) or field by field from typed results.
///
/// Values are appended to a caller-owned `String` as they are pushed;
/// separators are inferred from the last byte written, so there is no
/// scope stack to keep in step with the text. Object keys must be pushed
/// in ascending byte order — the order a `BTreeMap` would iterate them
/// in, which is what makes a reply byte-stable whichever way it was
/// built; debug builds assert it.
///
/// A writer made by [`JsonWriter::reply`] is a protocol reply: an object
/// whose envelope members (`id` when the request carried one, and `ok`)
/// are merged in at their sorted position between the payload keys, and
/// that [`JsonWriter::fail`] can truncate back to its start to become the
/// `ok:false` envelope instead.
#[derive(Debug)]
pub struct JsonWriter<'a> {
    out: &'a mut String,
    /// Where this writer's document begins in `out`.
    start: usize,
    depth: usize,
    /// `None` for a plain document.
    envelope: Option<Envelope<'a>>,
    /// The last key pushed in each open scope (arrays hold a `None`).
    #[cfg(debug_assertions)]
    last_keys: Vec<Option<String>>,
}

impl<'a> JsonWriter<'a> {
    /// A writer appending one document to `out`.
    pub fn new(out: &'a mut String) -> Self {
        let start = out.len();
        JsonWriter {
            out,
            start,
            depth: 0,
            envelope: None,
            #[cfg(debug_assertions)]
            last_keys: Vec::new(),
        }
    }

    /// Opens a success reply echoing `id`: push the payload members, then
    /// [`JsonWriter::end_object`].
    pub fn reply(out: &'a mut String, id: Option<&'a Json>) -> Self {
        let mut writer = JsonWriter::new(out);
        writer.envelope = Some(Envelope { id, ok: true, written: 0 });
        writer.begin_object();
        writer
    }

    /// Opens a reply as the next element of the array this writer is in
    /// (`batch`'s `results`), with its own start to truncate back to.
    pub fn element_reply<'b>(&'b mut self, id: Option<&'b Json>) -> JsonWriter<'b> {
        self.separate();
        JsonWriter::reply(self.out, id)
    }

    /// Discards whatever the reply holds so far and reopens it as a
    /// failure: push `error`, then [`JsonWriter::end_object`].
    pub fn fail(&mut self) {
        let id = self.envelope.expect("only a reply can fail").id;
        self.out.truncate(self.start);
        self.depth = 0;
        #[cfg(debug_assertions)]
        self.last_keys.clear();
        self.envelope = Some(Envelope { id, ok: false, written: 0 });
        self.begin_object();
    }

    /// Writes the `,` a value or key needs after a sibling.
    fn separate(&mut self) {
        let written = &self.out.as_bytes()[self.start..];
        if !matches!(written.last(), None | Some(b'{' | b'[' | b':')) {
            self.out.push(',');
        }
    }

    fn open(&mut self, bracket: char) {
        self.separate();
        self.out.push(bracket);
        self.depth += 1;
        #[cfg(debug_assertions)]
        self.last_keys.push(None);
    }

    fn close(&mut self, bracket: char) {
        self.out.push(bracket);
        self.depth -= 1;
        #[cfg(debug_assertions)]
        self.last_keys.pop();
    }

    /// Opens an object.
    pub fn begin_object(&mut self) {
        self.open('{');
    }

    /// Closes the innermost object (a reply's envelope members that are
    /// still unwritten go first).
    pub fn end_object(&mut self) {
        self.envelope_before(None);
        self.close('}');
    }

    /// Opens an array.
    pub fn begin_array(&mut self) {
        self.open('[');
    }

    /// Closes the innermost array.
    pub fn end_array(&mut self) {
        self.close(']');
    }

    /// Pushes a member key of the innermost object; its value comes next.
    pub fn key(&mut self, key: &str) -> &mut Self {
        self.envelope_before(Some(key));
        self.raw_key(key);
        self
    }

    fn raw_key(&mut self, key: &str) {
        #[cfg(debug_assertions)]
        {
            let last = self.last_keys.last_mut().expect("a key needs an open object");
            debug_assert!(
                last.as_deref().map_or(true, |last| last < key),
                "object keys must ascend: `{key}` after {last:?}"
            );
            *last = Some(key.to_string());
        }
        self.separate();
        write_string(self.out, key);
        self.out.push(':');
    }

    /// Writes the envelope members of a reply that sort before `key`
    /// (all that are left when the object ends).
    fn envelope_before(&mut self, key: Option<&str>) {
        if self.depth != 1 {
            return;
        }
        let Some(Envelope { id, ok, written }) = self.envelope else { return };
        let due = |name: &str| key.map_or(true, |k| k > name);
        if written == 0 && due("id") {
            self.envelope = Some(Envelope { id, ok, written: 1 });
            if let Some(id) = id {
                self.raw_key("id");
                self.value(id);
            }
        }
        if written <= 1 && due("ok") {
            self.envelope = Some(Envelope { id, ok, written: 2 });
            self.raw_key("ok");
            self.bool(ok);
        }
    }

    fn literal(&mut self, text: &str) {
        self.separate();
        self.out.push_str(text);
    }

    /// Pushes `null`.
    pub fn null(&mut self) {
        self.literal("null");
    }

    /// Pushes `true` / `false`.
    pub fn bool(&mut self, b: bool) {
        self.literal(if b { "true" } else { "false" });
    }

    /// Pushes a number: integers below 9e15 in magnitude without a
    /// fraction or exponent, every other finite value in Rust's shortest
    /// round-trip decimal form (what `{n}` prints), and `null` for NaN and
    /// the infinities (JSON has neither).
    pub fn num(&mut self, n: f64) {
        self.separate();
        write_number(self.out, n);
    }

    /// Pushes a string.
    pub fn str(&mut self, s: &str) {
        self.separate();
        write_string(self.out, s);
    }

    /// Pushes an array of scatter points, each the object
    /// `{"kind":kind,"ref":…,"x":…,"y":…}`: `points` is handed the
    /// [`PointWriter`] that writes them, with room reserved for `count`.
    pub fn points(&mut self, kind: &str, count: usize, points: impl FnOnce(&mut PointWriter<'_>)) {
        self.begin_array();
        points(&mut PointWriter::new(self.out, kind, count));
        self.end_array();
    }

    /// Pushes a whole [`Json`] value.
    pub fn value(&mut self, value: &Json) {
        match value {
            Json::Null => self.null(),
            Json::Bool(b) => self.bool(*b),
            Json::Num(n) => self.num(*n),
            Json::Str(s) => self.str(s),
            Json::Arr(items) => {
                self.begin_array();
                items.iter().for_each(|item| self.value(item));
                self.end_array();
            }
            Json::Obj(map) => {
                self.begin_object();
                for (k, v) in map {
                    self.key(k).value(v);
                }
                self.end_object();
            }
        }
    }
}

/// The most bytes [`plain_number`] writes: a sign and 16 digits (an
/// integer below 9e15), or a sign, 9 digits, a point and 6 places.
const PLAIN_NUMBER_BYTES: usize = 17;

/// The fixed buffer a point is formatted in.
const POINT_BUFFER: usize = 128;

/// A point's bytes after its prefix: three numbers, the `x` and `y` keys
/// and the closing brace.
const POINT_TAIL: usize = 3 * PLAIN_NUMBER_BYTES + 2 * r#","x":"#.len() + 1;

/// The writer of a scatter series' points ([`JsonWriter::points`]). Each
/// point is formatted from the end of a fixed buffer backwards — the
/// closing brace, then each number by `plain_number`, the rule of
/// [`JsonWriter::num`], between the pre-rendered keys, then the part
/// every point of the series shares, `,{"kind":"input","ref":` — and goes
/// onto the reply in one piece. A number that rule leaves to Rust's `{n}`,
/// which can run to hundreds of characters, sends its point the
/// key-by-key way instead.
///
/// While it is alive the writer holds the reply as bytes: a point is
/// ASCII, so what it pushes keeps the reply UTF-8, and the reply is
/// checked once, as it is handed back when the writer is dropped, instead
/// of once a point.
#[derive(Debug)]
pub struct PointWriter<'w> {
    out: &'w mut String,
    /// The reply taken out of `out`, with the points pushed so far.
    bytes: Vec<u8>,
    /// `,{"kind":…,"ref":`.
    prefix: String,
    /// 1, skipping the prefix's comma, until the first point is written.
    skip: usize,
    buffer: [u8; POINT_BUFFER],
}

impl<'w> PointWriter<'w> {
    /// # Panics
    /// When `kind`, escaped, leaves no room for a point in the buffer.
    fn new(out: &'w mut String, kind: &str, count: usize) -> Self {
        let mut prefix = String::from(r#",{"kind":"#);
        write_string(&mut prefix, kind);
        prefix.push_str(r#","ref":"#);
        assert!(prefix.len() + POINT_TAIL <= POINT_BUFFER, "point kind {kind:?} is too long");
        let mut bytes = std::mem::take(out).into_bytes();
        // ≈ 24 bytes a point behind the prefix (a row id and two
        // readings), at the power of two that growing by doubling would
        // reach: the allocator sees the block sizes it always saw.
        let want = bytes.len() + count * (prefix.len() + 24);
        bytes.reserve(want.next_power_of_two() - bytes.len());
        PointWriter { out, bytes, prefix, skip: 1, buffer: [0; POINT_BUFFER] }
    }

    /// Pushes the point `{"kind":…,"ref":reference,"x":x,"y":y}`, its
    /// numbers as [`JsonWriter::num`] writes them.
    pub fn point(&mut self, reference: f64, x: f64, y: f64) {
        let (buffer, prefix) = (&mut self.buffer, &self.prefix.as_bytes()[self.skip..]);
        let start = (|| {
            let at = put_before(buffer, POINT_BUFFER, b"}");
            let at = plain_number(y, buffer, at)?;
            let at = put_before(buffer, at, br#","y":"#);
            let at = plain_number(x, buffer, at)?;
            let at = put_before(buffer, at, br#","x":"#);
            let at = plain_number(reference, buffer, at)?;
            Some(put_before(buffer, at, prefix))
        })();
        match start {
            Some(start) => self.bytes.extend_from_slice(&self.buffer[start..]),
            None => {
                let mut text = self.prefix[self.skip..].to_string();
                write_number(&mut text, reference);
                text.push_str(r#","x":"#);
                write_number(&mut text, x);
                text.push_str(r#","y":"#);
                write_number(&mut text, y);
                text.push('}');
                self.bytes.extend_from_slice(text.as_bytes());
            }
        }
        self.skip = 0;
    }
}

impl Drop for PointWriter<'_> {
    fn drop(&mut self) {
        // Points are ASCII, so this never replaces a byte; it does not
        // panic either, which a drop while unwinding must not.
        let bytes = std::mem::take(&mut self.bytes);
        *self.out = String::from_utf8(bytes)
            .unwrap_or_else(|e| String::from_utf8_lossy(e.as_bytes()).into_owned());
    }
}

/// Copies `bytes` to end just before `text[end]`; returns where they start.
fn put_before<const N: usize>(text: &mut [u8; N], end: usize, bytes: &[u8]) -> usize {
    let at = end - bytes.len();
    text[at..end].copy_from_slice(bytes);
    at
}

/// Writes `n` by the rule of [`JsonWriter::num`].
fn write_number(out: &mut String, n: f64) {
    let mut text = [0u8; PLAIN_NUMBER_BYTES];
    match plain_number(n, &mut text, PLAIN_NUMBER_BYTES) {
        // Char by char: cheaper than validating a few bytes as UTF-8.
        Some(start) => out.extend(text[start..].iter().map(|&b| char::from(b))),
        None if n.is_finite() => write!(out, "{n}").expect("writing to a String cannot fail"),
        None => out.push_str("null"),
    }
}

/// Writes `n` by the rule of [`JsonWriter::num`] so that it ends just
/// before `text[end]` and returns where it starts, when that rule gives a
/// plain decimal: an integer below 9e15 in magnitude, or a
/// [`six_place_decimal`] without its trailing zeros — the shortest decimal
/// that reads back as `n`, so the digits `{n}` prints. At most
/// [`PLAIN_NUMBER_BYTES`] are written. `None` leaves the rest — `{n}`'s
/// longer forms and `null` — to the caller.
#[inline(always)]
fn plain_number<const N: usize>(n: f64, text: &mut [u8; N], end: usize) -> Option<usize> {
    let integer = n as i64;
    let (negative, mut at) = if integer as f64 == n && n.abs() < 9e15 {
        (integer < 0, put_digits(text, end, integer.unsigned_abs(), 1))
    } else {
        let millionths = six_place_decimal(n.abs())?;
        let mut at = end;
        let (mut fraction, mut places) = (millionths % 1_000_000, 6);
        if fraction > 0 {
            // Two zeros a step first: readings and money carry one or two
            // decimals, so most fractions shed four zeros in two steps.
            while fraction % 100 == 0 {
                (fraction, places) = (fraction / 100, places - 2);
            }
            if fraction % 10 == 0 {
                (fraction, places) = (fraction / 10, places - 1);
            }
            at = put_digits(text, end, fraction, places);
            at = put_before(text, at, b".");
        }
        (n < 0.0, put_digits(text, at, millionths / 1_000_000, 1))
    };
    if negative {
        at = put_before(text, at, b"-");
    }
    Some(at)
}

/// `n * 10^6`, rounded, when that six-place decimal reads back as `n` and
/// `n < 1e9`: raw readings and money, the bulk of a `zoom`. `None` sends
/// the caller to `{n}` itself.
///
/// Below 1e15 the product `n * 1e6` is off by less than 0.12 and floats
/// are spaced less than 0.23e-6 apart, so rounding it finds the only
/// six-place decimal that can read back as `n`; the division — correctly
/// rounded, exactly as parsing that decimal would be — tells whether it
/// does. Every shorter candidate is that same decimal with zeros at the
/// end, so dropping them gives the shortest.
fn six_place_decimal(n: f64) -> Option<u64> {
    let scaled = n * 1e6;
    // Through `i64`, which converts in one instruction: an accepted
    // product is below 1e15, and a NaN or infinite `n` fails the second
    // test (the cast gives 0 or saturates).
    let millionths = (scaled + 0.5) as i64;
    if scaled >= 1e15 || millionths as f64 / 1e6 != n {
        return None;
    }
    Some(millionths as u64)
}

/// `00`, `01`, …, `99`: two digits per division by 100.
const DIGIT_PAIRS: &[u8; 200] = b"\
    0001020304050607080910111213141516171819\
    2021222324252627282930313233343536373839\
    4041424344454647484950515253545556575859\
    6061626364656667686970717273747576777879\
    8081828384858687888990919293949596979899";

/// Writes `n` in decimal so that it ends just before `text[end]`,
/// zero-padded to at least `width` digits; returns where it starts.
#[inline(always)]
fn put_digits<const N: usize>(text: &mut [u8; N], end: usize, mut n: u64, width: usize) -> usize {
    let mut at = end;
    while n >= 10 {
        let pair = (n % 100) as usize * 2;
        n /= 100;
        at -= 2;
        text[at..at + 2].copy_from_slice(&DIGIT_PAIRS[pair..pair + 2]);
    }
    if n > 0 || at == end {
        at -= 1;
        text[at] = b'0' + n as u8;
    }
    while end - at < width {
        at -= 1;
        text[at] = b'0';
    }
    at
}

/// Writes `s` quoted, copying the runs between characters that need an
/// escape (`"`, `\`, control characters) in one piece. Those are all
/// ASCII, so a run never ends inside a multi-byte character.
fn write_string(out: &mut String, s: &str) {
    out.push('"');
    let mut rest = s;
    while let Some(at) = rest.bytes().position(|b| b < 0x20 || b == b'"' || b == b'\\') {
        out.push_str(&rest[..at]);
        match rest.as_bytes()[at] {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\r' => out.push_str("\\r"),
            b'\t' => out.push_str("\\t"),
            b => write!(out, "\\u{b:04x}").expect("writing to a String cannot fail"),
        }
        rest = &rest[at + 1..];
    }
    out.push_str(rest);
    out.push('"');
}

/// The deepest nesting of arrays and objects [`Json::parse`] accepts. The
/// parser recurses once per level, and a stack overflow is an abort, not a
/// panic the server's `catch_unwind` could contain — so the depth an
/// attacker-chosen line may reach is bounded here. The deepest legitimate
/// request (`batch` → command → `rows` → row → cell) is 5 deep and the
/// deepest reply (`batch` → `results` → series → points → point) under 10.
pub const MAX_NESTING: usize = 64;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects currently open around `pos`.
    depth: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected `{}` at byte {}", b as char, self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(open @ (b'{' | b'[')) => {
                if self.depth == MAX_NESTING {
                    return Err(format!(
                        "nesting deeper than {MAX_NESTING} levels at byte {}",
                        self.pos
                    ));
                }
                self.depth += 1;
                let value = if open == b'{' { self.object() } else { self.array() };
                self.depth -= 1;
                value
            }
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b) if b == b'-' || b.is_ascii_digit() => self.number(),
            Some(b) => Err(format!("unexpected `{}` at byte {}", b as char, self.pos)),
            None => Err("unexpected end of input".to_string()),
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while self.peek().is_some_and(|b| b.is_ascii_digit()) {
            self.pos += 1;
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            while self.peek().is_some_and(|b| b.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e') | Some(b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+') | Some(b'-')) {
                self.pos += 1;
            }
            while self.peek().is_some_and(|b| b.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii");
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| format!("invalid number `{text}` at byte {start}"))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".to_string()),
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
                            self.pos += 1;
                            let hi = self.hex4()?;
                            let c = if (0xD800..0xDC00).contains(&hi) {
                                // Surrogate pair: a following \uXXXX low half.
                                self.expect(b'\\')?;
                                self.expect(b'u')?;
                                let lo = self.hex4()?;
                                if !(0xDC00..0xE000).contains(&lo) {
                                    return Err("invalid low surrogate".to_string());
                                }
                                let code = 0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
                                char::from_u32(code).ok_or("invalid surrogate pair")?
                            } else {
                                char::from_u32(hi).ok_or("invalid \\u escape")?
                            };
                            out.push(c);
                            continue;
                        }
                        _ => return Err(format!("invalid escape at byte {}", self.pos)),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume the whole run of plain characters at once.
                    // The input is a &str, so the bytes are valid UTF-8 by
                    // construction, and the run delimiters (`"`, `\`,
                    // control bytes) are all < 0x80 — they can never be a
                    // byte *inside* a multi-byte sequence, so stopping on
                    // them cannot split a character. (Per-character
                    // consumption here used to re-validate the entire
                    // remaining input each step: O(n²) on the large
                    // documents the `batch` command carries.)
                    let start = self.pos;
                    while let Some(&b) = self.bytes.get(self.pos) {
                        if b == b'"' || b == b'\\' {
                            break;
                        }
                        if b < 0x20 {
                            return Err(format!("raw control character at byte {}", self.pos));
                        }
                        self.pos += 1;
                    }
                    let run = std::str::from_utf8(&self.bytes[start..self.pos])
                        .map_err(|_| "invalid utf-8".to_string())?;
                    out.push_str(run);
                }
            }
        }
    }

    /// Reads exactly four hex digits starting at the current position (the
    /// caller has already consumed the `\u` marker).
    fn hex4(&mut self) -> Result<u32, String> {
        let start = self.pos;
        let slice =
            self.bytes.get(start..start + 4).ok_or_else(|| "truncated \\u escape".to_string())?;
        let text = std::str::from_utf8(slice).map_err(|_| "invalid \\u escape".to_string())?;
        let code = u32::from_str_radix(text, 16).map_err(|_| "invalid \\u escape".to_string())?;
        self.pos = start + 4;
        Ok(code)
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(format!("expected `,` or `]` at byte {}", self.pos)),
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(map));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            map.insert(key, value);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(map));
                }
                _ => return Err(format!("expected `,` or `}}` at byte {}", self.pos)),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(text: &str) -> String {
        Json::parse(text).unwrap().to_string()
    }

    #[test]
    fn parses_scalars() {
        assert_eq!(Json::parse("null").unwrap(), Json::Null);
        assert_eq!(Json::parse("true").unwrap(), Json::Bool(true));
        assert_eq!(Json::parse("false").unwrap(), Json::Bool(false));
        assert_eq!(Json::parse("42").unwrap(), Json::Num(42.0));
        assert_eq!(Json::parse("-1.5e2").unwrap(), Json::Num(-150.0));
        assert_eq!(Json::parse("  \"hi\"  ").unwrap(), Json::str("hi"));
    }

    #[test]
    fn parses_nested_structures() {
        let v = Json::parse(r#"{"a":[1,2,{"b":null}],"c":{"d":true}}"#).unwrap();
        assert_eq!(v.get("a").unwrap().as_array().unwrap().len(), 3);
        assert_eq!(v.get("c").unwrap().get("d").unwrap().as_bool(), Some(true));
        assert_eq!(
            round_trip(r#"{"a":[1,2,{"b":null}],"c":{"d":true}}"#),
            r#"{"a":[1,2,{"b":null}],"c":{"d":true}}"#
        );
    }

    #[test]
    fn nesting_is_capped_not_recursed_into() {
        for (open, close) in [("[", "]"), (r#"{"a":"#, "}")] {
            let nested = |depth: usize| format!("{}1{}", open.repeat(depth), close.repeat(depth));
            assert!(Json::parse(&nested(MAX_NESTING)).is_ok());
            let error = Json::parse(&nested(MAX_NESTING + 1)).unwrap_err();
            let offset = open.len() * MAX_NESTING;
            assert_eq!(error, format!("nesting deeper than 64 levels at byte {offset}"));
        }
        // Siblings do not count as depth.
        assert!(Json::parse(&format!("[{}]", vec!["[[1]]"; 1000].join(","))).is_ok());
    }

    #[test]
    fn string_escapes_round_trip() {
        let v = Json::parse(r#""line\nquote\"slash\\tab\tunicode\u00e9\ud83d\ude00""#).unwrap();
        assert_eq!(v.as_str().unwrap(), "line\nquote\"slash\\tab\tunicodeé😀");
        let rendered = v.to_string();
        assert_eq!(Json::parse(&rendered).unwrap(), v);
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in [
            "",
            "{",
            "[1,",
            "{\"a\"}",
            "{\"a\":}",
            "tru",
            "1 2",
            "\"unterminated",
            "\"bad\\q\"",
            "\"\\ud800\"",
            "nan",
            "{'a':1}",
        ] {
            assert!(Json::parse(bad).is_err(), "should reject {bad:?}");
        }
    }

    #[test]
    fn number_rendering_is_integer_exact() {
        assert_eq!(Json::Num(3.0).to_string(), "3");
        assert_eq!(Json::Num(3.25).to_string(), "3.25");
        assert_eq!(Json::Num(-0.0).to_string(), "0");
        assert_eq!(Json::Num(f64::NAN).to_string(), "null");
        assert_eq!(Json::Num(1e18).to_string(), "1000000000000000000");
    }

    #[test]
    fn short_decimals_print_as_the_shortest_round_trip() {
        for (n, expected) in [
            (16.77, "16.77"),
            (-0.5, "-0.5"),
            (2.0005, "2.0005"),
            (0.000001, "0.000001"),
            (999_999_999.999999, "999999999.999999"),
            (0.1 + 0.2, "0.30000000000000004"),
            (1e-7, "0.0000001"),
            (1e9 + 0.5, "1000000000.5"),
        ] {
            assert_eq!(Json::Num(n).to_string(), expected);
            assert_eq!(format!("{n}"), expected, "the rule is `{{n}}`'s");
        }
    }

    #[test]
    fn fail_truncates_to_the_start_of_this_reply_only() {
        let mut out = String::new();
        let mut batch = JsonWriter::reply(&mut out, None);
        batch.key("results").begin_array();
        let mut first = batch.element_reply(None);
        first.key("pong").bool(true);
        first.end_object();
        let id = Json::Num(2.0);
        let mut second = batch.element_reply(Some(&id));
        second.key("rows").begin_array();
        second.begin_array();
        second.fail();
        second.key("error").str("boom");
        second.end_object();
        batch.end_array();
        batch.end_object();
        assert_eq!(
            out,
            r#"{"ok":true,"results":[{"ok":true,"pong":true},{"error":"boom","id":2,"ok":false}]}"#
        );
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "object keys must ascend")]
    fn keys_out_of_order_are_caught_in_debug_builds() {
        let mut out = String::new();
        let mut writer = JsonWriter::new(&mut out);
        writer.begin_object();
        writer.key("b").null();
        writer.key("a").null();
    }

    #[test]
    #[should_panic(expected = "is too long")]
    fn a_point_kind_that_leaves_no_room_is_refused() {
        let mut out = String::new();
        JsonWriter::new(&mut out).points(&"k".repeat(64), 0, |_| {});
    }

    #[test]
    fn typed_accessors() {
        let v = Json::parse(r#"{"n":7,"frac":7.5,"neg":-1,"s":"x","b":false,"a":[]}"#).unwrap();
        assert_eq!(v.get("n").unwrap().as_u64(), Some(7));
        assert_eq!(v.get("frac").unwrap().as_u64(), None);
        assert_eq!(v.get("neg").unwrap().as_u64(), None);
        assert_eq!(v.get("frac").unwrap().as_f64(), Some(7.5));
        assert_eq!(v.get("s").unwrap().as_str(), Some("x"));
        assert_eq!(v.get("b").unwrap().as_bool(), Some(false));
        assert!(v.get("a").unwrap().as_array().unwrap().is_empty());
        assert!(v.get("missing").is_none());
        assert!(Json::Null.get("x").is_none());
    }
}
