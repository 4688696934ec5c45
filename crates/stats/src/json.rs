//! A minimal no-serde JSON layer shared across the workspace.
//!
//! The build environment is offline, so the workspace cannot pull serde;
//! everything that speaks JSON — the serving tier's request/response
//! bodies, the `/metrics` endpoint, and the `BENCH_<name>.json` perf
//! artifacts — goes through this one module instead of hand-rolling a
//! parser per call site. It lives in `expred-stats` because that is the
//! workspace's leaf utility crate (it already hosts the shared
//! [`crate::hash`]): every other crate can depend on it without cycles.
//!
//! Everything the workspace *reads* goes through one pull tokenizer,
//! [`JsonReader`], over the text's bytes: [`JsonValue::parse`] builds a
//! tree on it (the full JSON grammar: objects, arrays, strings with
//! escapes, numbers, booleans, null), and the serving tier reads a
//! request's fields straight off it, with no tree. Everything the
//! workspace *emits* goes through one streaming [`JsonWriter`] — the only
//! integer formatter, float rule and string escaper there is:
//! [`JsonValue::render`] walks its tree onto it (compact output, stable
//! field order — objects preserve insertion order, no hashing, so output
//! is reproducible byte for byte), and producers that already hold their
//! data in another shape (an answer set's bit plane, a counter snapshot)
//! push events at it directly instead of building a tree first. A query's
//! answer reaches the wire through [`JsonWriter::id_plane`], the one id
//! array writer: it reads the plane's words, so no id list is ever built.

use crate::counters::CounterSet;
use std::borrow::Cow;
use std::fmt::Write as _;
use std::io::Write as _;
use std::sync::OnceLock;

/// One parsed JSON document node.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (always carried as `f64`).
    Number(f64),
    /// A string (unescaped).
    String(String),
    /// An array.
    Array(Vec<JsonValue>),
    /// An object, in document order. Duplicate keys are all kept, and
    /// [`JsonValue::get`] answers with the first.
    Object(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Parses one JSON document; trailing non-whitespace is an error.
    pub fn parse(text: &str) -> Result<JsonValue, JsonError> {
        let mut reader = JsonReader::new(text);
        let value = reader.value()?;
        reader.end()?;
        Ok(value)
    }

    /// Object field lookup (first match); `None` on non-objects.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The object's field names, in order (empty for non-objects).
    pub fn keys(&self) -> Vec<&str> {
        match self {
            JsonValue::Object(fields) => fields.iter().map(|(k, _)| k.as_str()).collect(),
            _ => Vec::new(),
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::String(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Number(n) => Some(*n),
            _ => None,
        }
    }

    /// The numeric payload as a non-negative integer, if it is one
    /// exactly (rejects fractions, negatives, and overflow).
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            JsonValue::Number(n) => exact_u64(*n),
            _ => None,
        }
    }

    /// The element list, if this is an array.
    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Array(items) => Some(items),
            _ => None,
        }
    }

    /// True for `null`.
    pub fn is_null(&self) -> bool {
        matches!(self, JsonValue::Null)
    }

    /// Renders compact JSON (no whitespace, stable field order).
    pub fn render(&self) -> String {
        let mut w = JsonWriter::new();
        w.value(self);
        w.finish()
    }
}

/// Why a document failed to parse: a message plus the character offset.
#[derive(Debug, Clone, PartialEq)]
pub struct JsonError {
    /// What went wrong.
    pub message: String,
    /// Character offset of the failure.
    pub offset: usize,
}

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} at offset {}", self.message, self.offset)
    }
}

impl std::error::Error for JsonError {}

/// Deepest container nesting a [`JsonReader`] accepts. Reading a value
/// recurses once per level, so this bound is what keeps an adversarial
/// body of nested `[` from overflowing the calling thread's stack (a
/// stack overflow aborts the process — `catch_unwind` cannot contain
/// it). 64 is far beyond any legitimate workspace document, and it is
/// also the width of the reader's container stack.
const MAX_DEPTH: usize = 64;

/// One token of a document as [`JsonReader::next`] reads it: a whole
/// scalar, or the opening of a container.
#[derive(Debug, Clone, PartialEq)]
pub enum Token<'a> {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number.
    Number(f64),
    /// A string, unescaped: borrowed from the text unless it held an
    /// escape.
    String(Cow<'a, str>),
    /// `{`: read its members with [`JsonReader::key`].
    BeginObject,
    /// `[`: read its elements with [`JsonReader::item`].
    BeginArray,
}

impl Token<'_> {
    /// The numeric payload, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Token::Number(n) => Some(*n),
            _ => None,
        }
    }

    /// The numeric payload as a non-negative integer, if it is one
    /// exactly (rejects fractions, negatives, and overflow).
    pub fn as_u64(&self) -> Option<u64> {
        self.as_f64().and_then(exact_u64)
    }
}

fn exact_u64(n: f64) -> Option<u64> {
    (n >= 0.0 && n.fract() == 0.0 && n <= u64::MAX as f64).then_some(n as u64)
}

/// A pull reader over a JSON text: the workspace's one tokenizer.
/// [`JsonValue::parse`] builds its tree on it, and a caller that wants a
/// few fields reads them straight off it instead, with no tree and no
/// allocation beyond strings that hold escapes:
///
/// ```
/// use expred_stats::json::{JsonReader, Token};
///
/// let mut r = JsonReader::new(r#"{"skip": [1, {"x": null}], "n": 7}"#);
/// assert_eq!(r.next().unwrap(), Token::BeginObject);
/// let mut n = None;
/// while let Some(key) = r.key().unwrap() {
///     if key == "n" {
///         n = r.next().unwrap().as_u64();
///     } // a value left unread is skipped by the next `key`
/// }
/// r.end().unwrap();
/// assert_eq!(n, Some(7));
/// ```
///
/// It walks the text's bytes but speaks in characters: any
/// `char::is_whitespace` may separate tokens, and an error's offset
/// counts characters. A reader can stop anywhere; [`JsonReader::end`]
/// then checks that the rest of the document is well-formed.
pub struct JsonReader<'a> {
    text: &'a str,
    /// Byte offset of the next unread byte.
    pos: usize,
    /// Containers open.
    depth: usize,
    /// Bit `d - 1` is set when the container at depth `d` is an object.
    objects: u64,
    /// The innermost container has just opened: no comma is owed.
    first: bool,
    /// A value is due next (the document's, an element's or a member's).
    pending: bool,
}

impl<'a> JsonReader<'a> {
    /// A reader at the start of `text`.
    pub fn new(text: &'a str) -> Self {
        Self {
            text,
            pos: 0,
            depth: 0,
            objects: 0,
            first: false,
            pending: true,
        }
    }

    /// How many containers are open.
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// Reads the next value's first token: a whole scalar, or a
    /// container's opening bracket.
    #[allow(clippy::should_implement_trait)]
    #[inline]
    pub fn next(&mut self) -> Result<Token<'a>, JsonError> {
        self.pending = false;
        match self.peek() {
            Some(b'{') => self.open(true).map(|()| Token::BeginObject),
            Some(b'[') => self.open(false).map(|()| Token::BeginArray),
            Some(b'"') => {
                self.pos += 1;
                self.string_body().map(Token::String)
            }
            Some(b't') if self.literal(b"true") => Ok(Token::Bool(true)),
            Some(b'f') if self.literal(b"false") => Ok(Token::Bool(false)),
            Some(b'n') if self.literal(b"null") => Ok(Token::Null),
            Some(b) if b.is_ascii_digit() || b == b'-' => self.number(),
            Some(_) => Err(self.fail("expected a JSON value")),
            None => Err(self.fail("unexpected end of document")),
        }
    }

    /// The next member's key in the object just opened or read into, or
    /// `None` once it closes. The member's value is due next; if it is
    /// not read, the following call skips it.
    #[inline]
    pub fn key(&mut self) -> Result<Option<Cow<'a, str>>, JsonError> {
        debug_assert!(self.in_object(), "key() outside an object");
        if !self.more(b'}')? {
            return Ok(None);
        }
        self.expect(b'"')?;
        let key = self.string_body()?;
        self.expect(b':')?;
        self.pending = true;
        Ok(Some(key))
    }

    /// Whether the array just opened or read into has another element
    /// (`false` once it closes). The element is due next; if it is not
    /// read, the following call skips it.
    #[inline]
    pub fn item(&mut self) -> Result<bool, JsonError> {
        debug_assert!(!self.in_object(), "item() outside an array");
        let more = self.more(b']')?;
        self.pending = more;
        Ok(more)
    }

    /// Reads and discards the next value.
    fn skip_value(&mut self) -> Result<(), JsonError> {
        match self.next()? {
            Token::BeginObject | Token::BeginArray => self.close_to(self.depth - 1),
            _ => Ok(()),
        }
    }

    /// Skips the rest of every container nested deeper than `depth`
    /// (and a value due first), leaving the reader just past the
    /// container that was open at `depth + 1`.
    pub fn close_to(&mut self, depth: usize) -> Result<(), JsonError> {
        if self.pending {
            self.skip_value()?;
        }
        while self.depth > depth {
            if self.in_object() {
                while self.key()?.is_some() {}
            } else {
                while self.item()? {}
            }
        }
        Ok(())
    }

    /// Skips whatever of the document is still unread, then requires
    /// nothing but whitespace after it.
    pub fn end(&mut self) -> Result<(), JsonError> {
        self.close_to(0)?;
        self.skip_ws();
        if self.pos < self.text.len() {
            return Err(self.fail("trailing characters after document"));
        }
        Ok(())
    }

    /// Reads the next value whole, as a tree.
    fn value(&mut self) -> Result<JsonValue, JsonError> {
        Ok(match self.next()? {
            Token::Null => JsonValue::Null,
            Token::Bool(b) => JsonValue::Bool(b),
            Token::Number(n) => JsonValue::Number(n),
            Token::String(s) => JsonValue::String(s.into_owned()),
            Token::BeginArray => {
                let mut items = Vec::new();
                while self.item()? {
                    items.push(self.value()?);
                }
                JsonValue::Array(items)
            }
            Token::BeginObject => {
                let mut fields = Vec::new();
                while let Some(key) = self.key()? {
                    fields.push((key.into_owned(), self.value()?));
                }
                JsonValue::Object(fields)
            }
        })
    }

    #[inline]
    fn in_object(&self) -> bool {
        self.depth > 0 && self.objects >> (self.depth - 1) & 1 == 1
    }

    /// Consumes a container's opening bracket.
    fn open(&mut self, object: bool) -> Result<(), JsonError> {
        self.pos += 1;
        self.depth += 1;
        if self.depth > MAX_DEPTH {
            return Err(self.fail(&format!("nesting deeper than {MAX_DEPTH} levels")));
        }
        let bit = 1 << (self.depth - 1);
        self.objects = if object {
            self.objects | bit
        } else {
            self.objects & !bit
        };
        self.first = true;
        Ok(())
    }

    /// Past a value due but unread and then `close` or the comma before
    /// the next entry: `false` once the container has closed.
    #[inline]
    fn more(&mut self, close: u8) -> Result<bool, JsonError> {
        if self.pending {
            self.skip_value()?;
        }
        if self.peek() == Some(close) {
            self.pos += 1;
            self.depth -= 1;
            self.first = false;
            return Ok(false);
        }
        if !std::mem::take(&mut self.first) {
            self.expect(b',')?;
        }
        Ok(true)
    }

    /// An error at the current position, as a character offset.
    fn fail(&self, message: &str) -> JsonError {
        // Every byte but a UTF-8 continuation byte starts a character.
        let chars = self.text.as_bytes()[..self.pos]
            .iter()
            .filter(|&&b| b & 0xc0 != 0x80)
            .count();
        JsonError {
            message: message.to_owned(),
            offset: chars,
        }
    }

    /// The character at the current position, if any.
    fn char_here(&self) -> Option<char> {
        self.text[self.pos..].chars().next()
    }

    #[inline]
    fn skip_ws(&mut self) {
        while let Some(&b) = self.text.as_bytes().get(self.pos) {
            if b.is_ascii() {
                if !(b as char).is_whitespace() {
                    return;
                }
                self.pos += 1;
            } else {
                match self.char_here() {
                    Some(c) if c.is_whitespace() => self.pos += c.len_utf8(),
                    _ => return,
                }
            }
        }
    }

    /// The first byte of the next token (a character's lead byte).
    #[inline]
    fn peek(&mut self) -> Option<u8> {
        self.skip_ws();
        self.text.as_bytes().get(self.pos).copied()
    }

    #[inline]
    fn expect(&mut self, want: u8) -> Result<(), JsonError> {
        if self.peek() == Some(want) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.fail(&format!("expected {:?}", want as char)))
        }
    }

    #[inline]
    fn literal(&mut self, literal: &[u8]) -> bool {
        let found = self.text.as_bytes()[self.pos..].starts_with(literal);
        if found {
            self.pos += literal.len();
        }
        found
    }

    #[inline]
    fn number(&mut self) -> Result<Token<'a>, JsonError> {
        let start = self.pos;
        let rest = &self.text.as_bytes()[start..];
        self.pos += rest
            .iter()
            .position(|&b| !(b.is_ascii_digit() || matches!(b, b'-' | b'+' | b'.' | b'e' | b'E')))
            .unwrap_or(rest.len());
        self.text[start..self.pos]
            .parse()
            .map(Token::Number)
            .map_err(|_| self.fail("expected a number"))
    }

    /// A string's contents and closing quote (the opening one consumed):
    /// a slice of the text, unless an escape forces a copy.
    #[inline]
    fn string_body(&mut self) -> Result<Cow<'a, str>, JsonError> {
        let mut owned: Option<String> = None;
        loop {
            let start = self.pos;
            let rest = &self.text.as_bytes()[start..];
            let Some(at) = rest.iter().position(|&b| b == b'"' || b == b'\\') else {
                self.pos = self.text.len();
                return Err(self.fail("unterminated string"));
            };
            self.pos += at + 1;
            let run = &self.text[start..start + at];
            if rest[at] == b'"' {
                return Ok(match owned {
                    None => Cow::Borrowed(run),
                    Some(mut out) => {
                        out.push_str(run);
                        Cow::Owned(out)
                    }
                });
            }
            let out = owned.get_or_insert_with(String::new);
            out.push_str(run);
            self.escape(out)?;
        }
    }

    /// Appends the character an escape stands for (its `\` consumed).
    fn escape(&mut self, out: &mut String) -> Result<(), JsonError> {
        let escape = self
            .char_here()
            .ok_or_else(|| self.fail("unterminated escape"))?;
        self.pos += escape.len_utf8();
        match escape {
            '"' | '\\' | '/' => out.push(escape),
            'n' => out.push('\n'),
            't' => out.push('\t'),
            'r' => out.push('\r'),
            'b' => out.push('\u{0008}'),
            'f' => out.push('\u{000c}'),
            'u' => {
                let code = self.hex4()?;
                // Non-BMP characters arrive as a UTF-16 surrogate pair of
                // \u escapes; combine the high unit with the mandatory
                // low unit.
                let code = if (0xd800..0xdc00).contains(&code) {
                    if !self.literal(b"\\u") {
                        return Err(self.fail("unpaired high surrogate \\u escape"));
                    }
                    let low = self.hex4()?;
                    if !(0xdc00..0xe000).contains(&low) {
                        return Err(self.fail("expected a low surrogate \\u escape"));
                    }
                    0x10000 + ((code - 0xd800) << 10) + (low - 0xdc00)
                } else {
                    code
                };
                out.push(char::from_u32(code).ok_or_else(|| self.fail("non-scalar \\u escape"))?);
            }
            other => return Err(self.fail(&format!("bad escape \\{other}"))),
        }
        Ok(())
    }

    /// The four characters after a `\u`, read as hex.
    fn hex4(&mut self) -> Result<u32, JsonError> {
        let rest = &self.text[self.pos..];
        let len = rest
            .char_indices()
            .nth(3)
            .map(|(at, c)| at + c.len_utf8())
            .ok_or_else(|| self.fail("truncated \\u escape"))?;
        self.pos += len;
        u32::from_str_radix(&rest[..len], 16).map_err(|_| self.fail("bad \\u escape"))
    }
}

/// Every two-digit decimal `00`..`99`, so the integer formatter peels
/// two digits per division.
const DIGIT_PAIRS: &[u8; 200] = b"0001020304050607080910111213141516171819\
      2021222324252627282930313233343536373839\
      4041424344454647484950515253545556575859\
      6061626364656667686970717273747576777879\
      8081828384858687888990919293949596979899";

/// The positions of `word`'s set bits, ascending.
#[inline]
fn set_bits(mut word: u64) -> impl Iterator<Item = u64> {
    std::iter::from_fn(move || {
        (word != 0).then(|| {
            let bit = u64::from(word.trailing_zeros());
            word &= word - 1;
            bit
        })
    })
}

/// How many decimal digits `v` prints as.
#[inline]
fn digit_count(v: u64) -> usize {
    v.checked_ilog10().map_or(1, |d| d as usize + 1)
}

/// Writes `v` in decimal into `dst`, which is exactly
/// [`digit_count`]`(v)` long: right to left, two digits per step, straight
/// into place (digits staged in a scratch buffer and copied out stall
/// every copy on store-to-load forwarding — twice the time per number).
#[inline]
fn write_digits(dst: &mut [u8], mut v: u64) {
    let mut pos = dst.len();
    while v >= 100 {
        let pair = (v % 100) as usize * 2;
        v /= 100;
        pos -= 2;
        dst[pos..pos + 2].copy_from_slice(&DIGIT_PAIRS[pair..pair + 2]);
    }
    if v >= 10 {
        let pair = v as usize * 2;
        dst[pos - 2..pos].copy_from_slice(&DIGIT_PAIRS[pair..pair + 2]);
    } else {
        dst[pos - 1] = b'0' + v as u8;
    }
}

/// Ids below this bound are written from [`id_texts`]; the table is one
/// `u64` per id, so the bound is its size: 2¹⁶ ids → 512 KB. A whole
/// number of 64-id plane words, so a word is wholly on one side.
const ID_TEXT_BOUND: usize = 1 << 16;

/// Ids per chunk of the id-text table: 64 plane words' worth (32 KB), so
/// a plane reaches a new chunk at most once per 64 words.
const ID_CHUNK: usize = 1 << 12;

/// The ids `chunk * ID_CHUNK ..` of the first [`ID_TEXT_BOUND`],
/// pre-rendered as `"<id>,"`: the text (at most five digits and the
/// comma) in the low bytes of a little-endian `u64`, its length in the
/// top byte — so writing an id is one 8-byte store and
/// `pos += entry >> 56`. Each chunk is built once per process, on the
/// first plane that reaches it, so a process whose planes stay small
/// keeps only the chunks they touch.
fn id_texts(chunk: usize) -> &'static [u64; ID_CHUNK] {
    static CHUNKS: [OnceLock<Box<[u64; ID_CHUNK]>>; ID_TEXT_BOUND / ID_CHUNK] =
        [const { OnceLock::new() }; ID_TEXT_BOUND / ID_CHUNK];
    CHUNKS[chunk].get_or_init(|| {
        let first = (chunk * ID_CHUNK) as u64;
        let texts: Vec<u64> = (first..first + ID_CHUNK as u64)
            .map(|id| {
                let n = digit_count(id);
                let mut entry = [0u8; 8];
                write_digits(&mut entry[..n], id);
                entry[n] = b',';
                entry[7] = n as u8 + 1;
                u64::from_le_bytes(entry)
            })
            .collect();
        texts
            .into_boxed_slice()
            .try_into()
            .expect("one entry per id of the chunk")
    })
}

/// Writes the ids of plane word `w` (its set bits are `word`) as
/// `"<id>,"` texts from `buf[pos..]` on, and returns the position past
/// the last. `put(window, id)` writes one id's text at the start of a
/// [`ID_WINDOW`]-byte window and returns its length. A word whose 64 ids
/// all print at one width — every word but the four below 10 000 that
/// hold 10, 100, 1 000 and 10 000, and the few past that hold a higher
/// power of ten — places each id one width past the one before, so no
/// store waits on a length read from the table; the others advance by
/// each length in turn.
#[inline(always)]
fn write_word(
    buf: &mut [u8],
    pos: usize,
    w: usize,
    word: u64,
    put: impl Fn(&mut [u8], u64) -> usize,
) -> usize {
    let first = w as u64 * 64;
    let width = digit_count(first) + 1;
    if width == digit_count(first + 63) + 1 {
        let ones = word.count_ones() as usize;
        // One bounds check for the word's span; each window's is elided.
        let span = &mut buf[pos..pos + ones * width + ID_WINDOW];
        let mut at = 0;
        for bit in set_bits(word) {
            put(&mut span[at..at + ID_WINDOW], first + bit);
            at += width;
        }
        pos + ones * width
    } else {
        set_bits(word).fold(pos, |pos, bit| {
            pos + put(&mut buf[pos..pos + ID_WINDOW], first + bit)
        })
    }
}

/// The bytes [`write_word`] lets one id's text touch: a table entry is
/// stored whole (8 bytes), and an id past the table has at most 15
/// digits before its comma (a plane with 10¹⁵ rows would be 125 TB).
const ID_WINDOW: usize = 16;

/// Upper bound on the bytes [`JsonWriter::id_plane`] writes between the
/// brackets: every set bit at the highest set bit's digit count, plus its
/// comma. Reads the plane's words (a popcount each), never its ids.
pub fn id_plane_len(words: &[u64]) -> usize {
    let Some(last) = words.iter().rposition(|&word| word != 0) else {
        return 0;
    };
    let widest = last as u64 * 64 + 63 - u64::from(words[last].leading_zeros());
    let ids: usize = words.iter().map(|word| word.count_ones() as usize).sum();
    ids * (digit_count(widest) + 1)
}

/// Appends `v` in decimal.
#[inline]
fn push_u64(out: &mut Vec<u8>, v: u64) {
    let at = out.len();
    out.resize(at + digit_count(v), 0);
    write_digits(&mut out[at..], v);
}

/// Appends `s` escaped for embedding between JSON double quotes: `"`,
/// `\` and control characters are rewritten, every other run of bytes is
/// copied as is (bytes ≥ 0x80 only occur inside multi-byte scalars, which
/// JSON carries verbatim).
fn push_escaped(out: &mut Vec<u8>, s: &str) {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    let bytes = s.as_bytes();
    let mut copied = 0;
    for (i, &b) in bytes.iter().enumerate() {
        if b >= 0x20 && b != b'"' && b != b'\\' {
            continue;
        }
        out.extend_from_slice(&bytes[copied..i]);
        copied = i + 1;
        match b {
            b'"' => out.extend_from_slice(b"\\\""),
            b'\\' => out.extend_from_slice(b"\\\\"),
            _ => out.extend_from_slice(&[
                b'\\',
                b'u',
                b'0',
                b'0',
                HEX[(b >> 4) as usize],
                HEX[(b & 0xf) as usize],
            ]),
        }
    }
    out.extend_from_slice(&bytes[copied..]);
}

fn into_string(out: Vec<u8>) -> String {
    String::from_utf8(out).expect("the JSON writer emits ASCII plus verbatim `&str` bytes")
}

/// Escapes a string for embedding between JSON double quotes.
pub fn escape(s: &str) -> String {
    let mut out = Vec::with_capacity(s.len());
    push_escaped(&mut out, s);
    into_string(out)
}

/// What the writer owes the output before the next element.
#[derive(Clone, Copy, Default)]
enum Sep {
    /// Nothing: the document just started, or an object key precedes.
    #[default]
    Nothing,
    /// A line break in pretty mode: the enclosing container just opened.
    Open,
    /// A comma: a sibling precedes.
    Comma,
}

/// A push-style JSON writer: the one number formatter and string escaper
/// behind every document the workspace emits, [`JsonValue::render`]
/// included. Events append straight to one byte buffer — no node tree,
/// no per-value `String` — and commas are tracked by the writer, so a
/// caller only states structure:
///
/// ```
/// use expred_stats::json::JsonWriter;
///
/// let mut w = JsonWriter::new();
/// w.begin_object().key("ids").begin_array();
/// for id in [3u64, 17] {
///     w.u64(id);
/// }
/// w.end_array().key("ok").bool(true).end_object();
/// assert_eq!(w.finish(), r#"{"ids":[3,17],"ok":true}"#);
/// ```
///
/// Balancing `begin_*`/`end_*` and writing a `key` before each object
/// member is the caller's job; the writer does not validate structure.
#[derive(Default)]
pub struct JsonWriter {
    out: Vec<u8>,
    sep: Sep,
    pretty: bool,
    depth: usize,
}

impl JsonWriter {
    /// A compact writer (no whitespace).
    pub fn new() -> Self {
        Self::default()
    }

    /// A compact writer over a buffer pre-sized to `bytes`.
    pub fn with_capacity(bytes: usize) -> Self {
        Self {
            out: Vec::with_capacity(bytes),
            ..Self::default()
        }
    }

    /// A writer for artifacts people read and diff: one element per line,
    /// two-space indent, `": "` after keys.
    pub fn pretty() -> Self {
        Self {
            pretty: true,
            ..Self::default()
        }
    }

    /// The finished document.
    pub fn finish(self) -> String {
        into_string(self.out)
    }

    /// The finished document's bytes, for a caller that sends them on as
    /// bytes: no UTF-8 re-check of what the writer itself emitted.
    pub fn finish_bytes(self) -> Vec<u8> {
        self.out
    }

    fn newline(&mut self) {
        if self.pretty {
            self.out.push(b'\n');
            self.out.resize(self.out.len() + 2 * self.depth, b' ');
        }
    }

    /// Separates the element about to be written from what precedes it.
    #[inline]
    fn element(&mut self) {
        match self.sep {
            Sep::Nothing => {}
            Sep::Open => self.newline(),
            Sep::Comma => {
                self.out.push(b',');
                self.newline();
            }
        }
        self.sep = Sep::Comma;
    }

    fn begin(&mut self, open: u8) -> &mut Self {
        self.element();
        self.out.push(open);
        self.depth += 1;
        self.sep = Sep::Open;
        self
    }

    fn end(&mut self, close: u8) -> &mut Self {
        self.depth -= 1;
        self.newline();
        self.out.push(close);
        self.sep = Sep::Comma;
        self
    }

    /// Opens an object.
    pub fn begin_object(&mut self) -> &mut Self {
        self.begin(b'{')
    }

    /// Closes the innermost object.
    pub fn end_object(&mut self) -> &mut Self {
        self.end(b'}')
    }

    /// Opens an array.
    pub fn begin_array(&mut self) -> &mut Self {
        self.begin(b'[')
    }

    /// Closes the innermost array.
    pub fn end_array(&mut self) -> &mut Self {
        self.end(b']')
    }

    /// Writes an object member's name; its value must follow.
    pub fn key(&mut self, name: &str) -> &mut Self {
        self.str(name);
        self.out
            .extend_from_slice(if self.pretty { b": " } else { b":" });
        self.sep = Sep::Nothing;
        self
    }

    /// Writes an integer, exactly (no detour through `f64`).
    #[inline]
    pub fn u64(&mut self, value: u64) -> &mut Self {
        self.element();
        push_u64(&mut self.out, value);
        self
    }

    /// Writes a set of row ids, given as its bit plane (word `w`, bit `i`
    /// is id `64 * w + i`), as an ascending array — the bulk of every
    /// answer body. The output is sized once from the plane, so the loop
    /// does no per-id capacity check; ids below 2¹⁶ are copied from a
    /// process-wide table of pre-rendered `"<id>,"` texts (32 KB per
    /// 4 096 ids, each chunk built on first use), the rest formatted in
    /// place. A 64-id word whose ids share one width is written with no
    /// store waiting on the one before.
    pub fn id_plane(&mut self, words: &[u64]) -> &mut Self {
        self.begin_array();
        let bound = id_plane_len(words);
        if self.pretty || bound == 0 {
            for (w, &word) in words.iter().enumerate() {
                for bit in set_bits(word) {
                    self.u64(w as u64 * 64 + bit);
                }
            }
            return self.end_array();
        }
        let at = self.out.len();
        // A window's worth past the bound: the last id's text is written
        // into a whole window.
        self.out.resize(at + bound + ID_WINDOW, 0);
        let buf = &mut self.out[at..];
        let table_words = words.len().min(ID_TEXT_BOUND / 64);
        let chunk_words = ID_CHUNK / 64;
        let mut pos = 0;
        for (chunk, chunk_of_words) in words[..table_words].chunks(chunk_words).enumerate() {
            let texts = id_texts(chunk);
            for (w, &word) in chunk_of_words.iter().enumerate() {
                pos = write_word(buf, pos, chunk * chunk_words + w, word, |dst, id| {
                    // `id` is in this chunk: the mask changes nothing but
                    // spares the load its bounds check.
                    let entry = texts[id as usize % ID_CHUNK];
                    dst[..8].copy_from_slice(&entry.to_le_bytes());
                    (entry >> 56) as usize
                });
            }
        }
        for (w, &word) in words.iter().enumerate().skip(table_words) {
            pos = write_word(buf, pos, w, word, |dst, id| {
                let n = digit_count(id);
                write_digits(&mut dst[..n], id);
                dst[n] = b',';
                n + 1
            });
        }
        // Every id wrote a comma after itself; the last one goes.
        self.out.truncate(at + pos - 1);
        self.sep = Sep::Comma;
        self.end_array()
    }

    /// Writes a number: integral values below 10¹⁵ print without a
    /// fraction, other finite values with full `f64` round-trip
    /// precision, non-finite as `null` (JSON has no NaN/Inf; by workspace
    /// convention a failed measurement is `null`).
    pub fn f64(&mut self, value: f64) -> &mut Self {
        if !value.is_finite() {
            return self.null();
        }
        if value.fract() == 0.0 && value.abs() < 1e15 {
            self.element();
            // `-0.0 < 0.0` is false: negative zero prints as `0`.
            if value < 0.0 {
                self.out.push(b'-');
            }
            push_u64(&mut self.out, value.abs() as u64);
            return self;
        }
        self.element();
        let _ = write!(self.out, "{value}");
        self
    }

    /// Writes a measurement at one decimal place (`null` when
    /// non-finite) — the artifact convention for timings and ratios.
    pub fn f64_tenths(&mut self, value: f64) -> &mut Self {
        if !value.is_finite() {
            return self.null();
        }
        self.element();
        let _ = write!(self.out, "{value:.1}");
        self
    }

    /// Writes a measurement (`null` when non-finite) to three
    /// significant digits below 100 and at one decimal place from 100
    /// up, dropping trailing zeros past the first decimal: 2.854 is
    /// `2.85`, 3.1 is `3.1`, 0.1234 is `0.123`. A value written by
    /// [`JsonWriter::f64_tenths`] re-renders unchanged.
    pub fn f64_sig3(&mut self, value: f64) -> &mut Self {
        if !value.is_finite() {
            return self.null();
        }
        let magnitude = value.abs();
        let decimals = if magnitude < 10.0 && magnitude > 0.0 {
            (2 - magnitude.log10().floor() as i32) as usize
        } else {
            1
        };
        let text = format!("{value:.decimals$}");
        let trimmed = text.trim_end_matches('0');
        self.element();
        self.out.extend_from_slice(trimmed.as_bytes());
        if trimmed.ends_with('.') {
            self.out.push(b'0');
        }
        self
    }

    /// Writes a string, escaped in place.
    pub fn str(&mut self, value: &str) -> &mut Self {
        self.element();
        self.out.push(b'"');
        push_escaped(&mut self.out, value);
        self.out.push(b'"');
        self
    }

    /// Writes `true` / `false`.
    pub fn bool(&mut self, value: bool) -> &mut Self {
        self.element();
        self.out
            .extend_from_slice(if value { b"true" } else { b"false" });
        self
    }

    /// Writes `null`.
    pub fn null(&mut self) -> &mut Self {
        self.element();
        self.out.extend_from_slice(b"null");
        self
    }

    /// Writes a whole document node.
    pub fn value(&mut self, value: &JsonValue) -> &mut Self {
        match value {
            JsonValue::Null => self.null(),
            JsonValue::Bool(b) => self.bool(*b),
            JsonValue::Number(n) => self.f64(*n),
            JsonValue::String(s) => self.str(s),
            JsonValue::Array(items) => {
                self.begin_array();
                for item in items {
                    self.value(item);
                }
                self.end_array()
            }
            JsonValue::Object(fields) => {
                self.begin_object();
                for (key, value) in fields {
                    self.key(key).value(value);
                }
                self.end_object()
            }
        }
    }

    /// Writes a counter set as one object of named `u64`s — the shared
    /// shape of every stats snapshot in `/metrics.json`.
    pub fn counters(&mut self, set: &dyn CounterSet) -> &mut Self {
        self.begin_object();
        set.visit(&mut |name, value| {
            self.key(name).u64(value);
        });
        self.end_object()
    }
}

/// Renders a counter set as exposition-format text lines:
/// `prefix_name{label="value",...} 123`, one per counter — the shared
/// text serializer behind `GET /metrics`.
pub fn counters_to_text(prefix: &str, labels: &[(&str, &str)], set: &dyn CounterSet) -> String {
    let mut out = String::new();
    let rendered_labels = if labels.is_empty() {
        String::new()
    } else {
        let inner: Vec<String> = labels
            .iter()
            .map(|(k, v)| format!("{k}=\"{}\"", escape(v)))
            .collect();
        format!("{{{}}}", inner.join(","))
    };
    set.visit(&mut |name, value| {
        let _ = writeln!(out, "{prefix}_{name}{rendered_labels} {value}");
    });
    out
}

#[cfg(test)]
mod tests;
