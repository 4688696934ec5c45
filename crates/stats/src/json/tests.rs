use super::*;
use crate::rng::Prng;
use proptest::prelude::*;

/// The tree renderer every document went through before [`JsonWriter`]
/// (one `String` per number and per escaped string), kept verbatim as
/// the reference the writer must match byte for byte.
mod oracle {
    use super::JsonValue;
    use std::fmt::Write as _;

    pub fn render(value: &JsonValue) -> String {
        let mut out = String::new();
        render_into(value, &mut out);
        out
    }

    fn render_into(value: &JsonValue, out: &mut String) {
        match value {
            JsonValue::Null => out.push_str("null"),
            JsonValue::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            JsonValue::Number(n) => out.push_str(&fmt_number(*n)),
            JsonValue::String(s) => {
                out.push('"');
                out.push_str(&escape(s));
                out.push('"');
            }
            JsonValue::Array(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    render_into(item, out);
                }
                out.push(']');
            }
            JsonValue::Object(fields) => {
                out.push('{');
                for (i, (key, value)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('"');
                    out.push_str(&escape(key));
                    out.push_str("\":");
                    render_into(value, out);
                }
                out.push('}');
            }
        }
    }

    pub fn escape(s: &str) -> String {
        let mut out = String::with_capacity(s.len());
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                c if (c as u32) < 0x20 => {
                    let _ = write!(out, "\\u{:04x}", c as u32);
                }
                c => out.push(c),
            }
        }
        out
    }

    fn fmt_number(value: f64) -> String {
        if !value.is_finite() {
            "null".to_owned()
        } else if value.fract() == 0.0 && value.abs() < 1e15 {
            format!("{}", value as i64)
        } else {
            format!("{value}")
        }
    }
}

/// The `Vec<char>` parser [`JsonReader`] replaced, kept verbatim as the
/// reference it must match: the same value, or the same error message at
/// the same character offset.
mod oracle_parser {
    use super::{JsonError, JsonValue, MAX_DEPTH};

    pub fn parse(text: &str) -> Result<JsonValue, JsonError> {
        let mut p = Parser::new(text);
        let value = p.parse_value()?;
        p.skip_ws();
        if p.pos < p.chars.len() {
            return Err(p.fail("trailing characters after document"));
        }
        Ok(value)
    }

    struct Parser {
        chars: Vec<char>,
        pos: usize,
        depth: usize,
    }

    impl Parser {
        fn new(text: &str) -> Self {
            Self {
                chars: text.chars().collect(),
                pos: 0,
                depth: 0,
            }
        }

        fn enter(&mut self) -> Result<(), JsonError> {
            self.depth += 1;
            if self.depth > MAX_DEPTH {
                Err(self.fail(&format!("nesting deeper than {MAX_DEPTH} levels")))
            } else {
                Ok(())
            }
        }

        fn fail(&self, message: &str) -> JsonError {
            JsonError {
                message: message.to_owned(),
                offset: self.pos,
            }
        }

        fn skip_ws(&mut self) {
            while self.chars.get(self.pos).is_some_and(|c| c.is_whitespace()) {
                self.pos += 1;
            }
        }

        fn peek(&mut self) -> Option<char> {
            self.skip_ws();
            self.chars.get(self.pos).copied()
        }

        fn expect(&mut self, want: char) -> Result<(), JsonError> {
            if self.peek() == Some(want) {
                self.pos += 1;
                Ok(())
            } else {
                Err(self.fail(&format!("expected {want:?}")))
            }
        }

        fn try_consume(&mut self, want: char) -> bool {
            if self.peek() == Some(want) {
                self.pos += 1;
                true
            } else {
                false
            }
        }

        fn consume_literal(&mut self, literal: &str) -> bool {
            let chars: Vec<char> = literal.chars().collect();
            if self.chars.get(self.pos..self.pos + chars.len()) == Some(&chars[..]) {
                self.pos += chars.len();
                true
            } else {
                false
            }
        }

        fn parse_value(&mut self) -> Result<JsonValue, JsonError> {
            match self.peek() {
                Some('{') => self.parse_object(),
                Some('[') => self.parse_array(),
                Some('"') => Ok(JsonValue::String(self.parse_string()?)),
                Some('t') if self.consume_literal("true") => Ok(JsonValue::Bool(true)),
                Some('f') if self.consume_literal("false") => Ok(JsonValue::Bool(false)),
                Some('n') if self.consume_literal("null") => Ok(JsonValue::Null),
                Some(c) if c.is_ascii_digit() || c == '-' => self.parse_number(),
                Some(_) => Err(self.fail("expected a JSON value")),
                None => Err(self.fail("unexpected end of document")),
            }
        }

        fn parse_object(&mut self) -> Result<JsonValue, JsonError> {
            self.expect('{')?;
            self.enter()?;
            let mut fields = Vec::new();
            if !self.try_consume('}') {
                loop {
                    let key = self.parse_string()?;
                    self.expect(':')?;
                    let value = self.parse_value()?;
                    fields.push((key, value));
                    if self.try_consume('}') {
                        break;
                    }
                    self.expect(',')?;
                }
            }
            self.depth -= 1;
            Ok(JsonValue::Object(fields))
        }

        fn parse_array(&mut self) -> Result<JsonValue, JsonError> {
            self.expect('[')?;
            self.enter()?;
            let mut items = Vec::new();
            if !self.try_consume(']') {
                loop {
                    items.push(self.parse_value()?);
                    if self.try_consume(']') {
                        break;
                    }
                    self.expect(',')?;
                }
            }
            self.depth -= 1;
            Ok(JsonValue::Array(items))
        }

        fn parse_string(&mut self) -> Result<String, JsonError> {
            self.expect('"')?;
            let mut out = String::new();
            loop {
                let c = *self
                    .chars
                    .get(self.pos)
                    .ok_or_else(|| self.fail("unterminated string"))?;
                self.pos += 1;
                match c {
                    '"' => return Ok(out),
                    '\\' => {
                        let escape = *self
                            .chars
                            .get(self.pos)
                            .ok_or_else(|| self.fail("unterminated escape"))?;
                        self.pos += 1;
                        match escape {
                            '"' | '\\' | '/' => out.push(escape),
                            'n' => out.push('\n'),
                            't' => out.push('\t'),
                            'r' => out.push('\r'),
                            'b' => out.push('\u{0008}'),
                            'f' => out.push('\u{000c}'),
                            'u' => {
                                let code = self.parse_hex4()?;
                                // Non-BMP characters arrive as a UTF-16
                                // surrogate pair of \u escapes; combine the
                                // high unit with the mandatory low unit.
                                let code = if (0xd800..0xdc00).contains(&code) {
                                    if !(self.consume_literal("\\u")) {
                                        return Err(self.fail("unpaired high surrogate \\u escape"));
                                    }
                                    let low = self.parse_hex4()?;
                                    if !(0xdc00..0xe000).contains(&low) {
                                        return Err(
                                            self.fail("expected a low surrogate \\u escape")
                                        );
                                    }
                                    0x10000 + ((code - 0xd800) << 10) + (low - 0xdc00)
                                } else {
                                    code
                                };
                                out.push(
                                    char::from_u32(code)
                                        .ok_or_else(|| self.fail("non-scalar \\u escape"))?,
                                );
                            }
                            other => return Err(self.fail(&format!("bad escape \\{other}"))),
                        }
                    }
                    other => out.push(other),
                }
            }
        }

        /// The four hex digits of a `\u` escape (the `\u` itself already
        /// consumed).
        fn parse_hex4(&mut self) -> Result<u32, JsonError> {
            let hex: String = self
                .chars
                .get(self.pos..self.pos + 4)
                .map(|w| w.iter().collect())
                .ok_or_else(|| self.fail("truncated \\u escape"))?;
            self.pos += 4;
            u32::from_str_radix(&hex, 16).map_err(|_| self.fail("bad \\u escape"))
        }

        fn parse_number(&mut self) -> Result<JsonValue, JsonError> {
            self.skip_ws();
            let start = self.pos;
            while self
                .chars
                .get(self.pos)
                .is_some_and(|c| c.is_ascii_digit() || matches!(c, '-' | '+' | '.' | 'e' | 'E'))
            {
                self.pos += 1;
            }
            let text: String = self.chars[start..self.pos].iter().collect();
            text.parse()
                .map(JsonValue::Number)
                .map_err(|_| self.fail("expected a number"))
        }
    }
}

/// Numbers on every branch of the float rule and next to its edges.
const EDGE_NUMBERS: [f64; 16] = [
    0.0,
    -0.0,
    -1.0,
    0.1,
    -2.5e-7,
    1e15 - 1.0,
    1e15,
    1e15 + 1.0,
    -1e15,
    -(1e15 - 1.0),
    u32::MAX as f64,
    9007199254740993.0,
    u64::MAX as f64,
    1e300,
    5e-324,
    f64::MIN,
];

/// Characters the escaper must rewrite or must leave alone.
const EDGE_CHARS: [char; 12] = [
    '"',
    '\\',
    '\n',
    '\t',
    '\u{1}',
    '\u{1f}',
    ' ',
    '/',
    'a',
    '\u{7f}',
    'é',
    '\u{1f600}',
];

fn arbitrary_string(rng: &mut Prng) -> String {
    (0..rng.below(8))
        .map(|_| EDGE_CHARS[rng.below(EDGE_CHARS.len())])
        .collect()
}

fn arbitrary_number(rng: &mut Prng, finite: bool) -> f64 {
    match rng.below(if finite { 4 } else { 5 }) {
        0 => EDGE_NUMBERS[rng.below(EDGE_NUMBERS.len())],
        1 => rng.below(1 << 40) as f64,
        2 => rng.range_f64(-1e6, 1e6),
        3 => f64::from_bits(rng.next_u64() & !(0x7ff << 52) | (rng.below(0x7ff) as u64) << 52),
        _ => [f64::NAN, f64::INFINITY, f64::NEG_INFINITY][rng.below(3)],
    }
}

fn arbitrary_value(rng: &mut Prng, depth: usize, finite: bool) -> JsonValue {
    let leaf_kinds = 4;
    match rng.below(if depth == 0 {
        leaf_kinds
    } else {
        leaf_kinds + 2
    }) {
        0 => JsonValue::Null,
        1 => JsonValue::Bool(rng.bernoulli(0.5)),
        2 => JsonValue::Number(arbitrary_number(rng, finite)),
        3 => JsonValue::String(arbitrary_string(rng)),
        4 => JsonValue::Array(
            (0..rng.below(5))
                .map(|_| arbitrary_value(rng, depth - 1, finite))
                .collect(),
        ),
        _ => JsonValue::Object(
            (0..rng.below(5))
                .map(|_| {
                    (
                        arbitrary_string(rng),
                        arbitrary_value(rng, depth - 1, finite),
                    )
                })
                .collect(),
        ),
    }
}

proptest! {
    #[test]
    fn writer_matches_the_tree_renderer(seed in any::<u64>()) {
        let value = arbitrary_value(&mut Prng::seeded(seed), 4, false);
        prop_assert_eq!(value.render(), oracle::render(&value));
    }

    #[test]
    fn finite_documents_round_trip(seed in any::<u64>()) {
        let value = arbitrary_value(&mut Prng::seeded(seed), 4, true);
        prop_assert_eq!(JsonValue::parse(&value.render()).expect("own output parses"), value);
    }

    #[test]
    fn escaper_matches_the_tree_renderer(seed in any::<u64>()) {
        let text = arbitrary_string(&mut Prng::seeded(seed));
        prop_assert_eq!(escape(&text), oracle::escape(&text));
    }
}

#[test]
fn every_edge_number_matches_the_tree_renderer() {
    for n in EDGE_NUMBERS.into_iter().chain([f64::NAN, f64::INFINITY]) {
        let value = JsonValue::Number(n);
        assert_eq!(value.render(), oracle::render(&value), "{n:e}");
    }
    let empties = JsonValue::Array(vec![JsonValue::Object(vec![]), JsonValue::Array(vec![])]);
    assert_eq!(empties.render(), "[{},[]]");
}

#[test]
fn integers_are_exact_at_every_digit_count() {
    let render = |v: u64| {
        let mut w = JsonWriter::new();
        w.u64(v);
        w.finish()
    };
    let mut power = 1u64;
    loop {
        for v in [power - 1, power, power + 1] {
            assert_eq!(render(v), v.to_string());
        }
        match power.checked_mul(10) {
            Some(next) => power = next,
            None => break,
        }
    }
    // Beyond 2^53 the integer path must not round through f64.
    assert_eq!(render((1 << 53) + 1), "9007199254740993");
    assert_eq!(render(u64::MAX - 1), "18446744073709551614");
    assert_eq!(render(u64::MAX), "18446744073709551615");
}

#[test]
fn pretty_mode_puts_one_element_per_line() {
    let mut w = JsonWriter::pretty();
    w.begin_object().key("a").begin_array();
    w.u64(1).begin_object().key("b").null().end_object();
    w.end_array().key("empty").begin_array().end_array();
    w.end_object();
    let text = w.finish();
    assert_eq!(
        text,
        "{\n  \"a\": [\n    1,\n    {\n      \"b\": null\n    }\n  ],\n  \"empty\": [\n  ]\n}"
    );
    assert!(JsonValue::parse(&text).is_ok());
}

#[test]
fn parses_the_full_grammar() {
    let doc = r#"{
        "s": "a\"b\\c\ndA",
        "n": -12.5e1,
        "i": 42,
        "t": true, "f": false, "z": null,
        "arr": [1, "two", {"three": 3}],
        "nested": {"empty_obj": {}, "empty_arr": []}
    }"#;
    let v = JsonValue::parse(doc).expect("parses");
    assert_eq!(v.get("s").unwrap().as_str(), Some("a\"b\\c\ndA"));
    assert_eq!(v.get("n").unwrap().as_f64(), Some(-125.0));
    assert_eq!(v.get("i").unwrap().as_u64(), Some(42));
    assert_eq!(v.get("t").unwrap(), &JsonValue::Bool(true));
    assert!(v.get("z").unwrap().is_null());
    let arr = v.get("arr").unwrap().as_array().unwrap();
    assert_eq!(arr.len(), 3);
    assert_eq!(arr[2].get("three").unwrap().as_u64(), Some(3));
    assert_eq!(
        v.get("nested").unwrap().get("empty_obj").unwrap(),
        &JsonValue::Object(vec![])
    );
}

#[test]
fn rejects_malformed_documents() {
    for bad in [
        "",
        "{",
        "[1,]",
        "{\"a\":}",
        "{\"a\" 1}",
        "{\"a\": 1} trailing",
        "\"unterminated",
        "{\"a\": oops}",
        "nul",
        "+5",
    ] {
        assert!(JsonValue::parse(bad).is_err(), "accepted: {bad}");
    }
}

#[test]
fn nesting_depth_is_bounded() {
    // One past the bound fails cleanly…
    let too_deep = format!("{}{}", "[".repeat(MAX_DEPTH + 1), "]".repeat(MAX_DEPTH + 1));
    let err = JsonValue::parse(&too_deep).expect_err("depth bound");
    assert!(err.message.contains("nesting"), "{err}");
    // …including a half-megabyte adversarial body, which must not
    // overflow the stack (an abort no test harness would survive).
    assert!(JsonValue::parse(&"[".repeat(500_000)).is_err());
    let mixed = "{\"a\":[".repeat(MAX_DEPTH);
    assert!(JsonValue::parse(&mixed).is_err());
    // …while the bound itself still parses.
    let at_bound = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
    assert!(JsonValue::parse(&at_bound).is_ok());
    // Depth is nesting, not total container count: many shallow
    // siblings are fine.
    let wide = format!("[{}]", vec!["[]"; 1000].join(","));
    assert!(JsonValue::parse(&wide).is_ok());
}

#[test]
fn surrogate_pairs_decode_to_supplementary_characters() {
    let v = JsonValue::parse("\"\\ud83d\\ude00\"").expect("surrogate pair");
    assert_eq!(v.as_str(), Some("\u{1f600}"));
    // Lone or malformed surrogates are rejected, not mangled.
    for bad in [
        r#""\ud83d""#,
        r#""\ud83dx""#,
        r#""\ud83d\n""#,
        r#""\ud83dA""#,
        r#""\ude00""#,
    ] {
        assert!(JsonValue::parse(bad).is_err(), "accepted: {bad}");
    }
}

#[test]
fn render_round_trips() {
    let doc = r#"{"a": [1, 2.5, "x\ny"], "b": {"c": null, "d": false}}"#;
    let v = JsonValue::parse(doc).unwrap();
    let compact = v.render();
    assert_eq!(JsonValue::parse(&compact).unwrap(), v);
    // Field order is preserved: rendering is deterministic.
    assert_eq!(compact, v.render());
    // Control characters render in \u form (matching the artifact
    // convention), and round-trip back to the raw character.
    assert!(compact.starts_with("{\"a\":[1,2.5,\"x\\u000ay\"]"));
}

#[test]
fn numbers_render_cleanly() {
    assert_eq!(JsonValue::Number(3.0).render(), "3");
    assert_eq!(JsonValue::Number(3.25).render(), "3.25");
    assert_eq!(JsonValue::Number(f64::NAN).render(), "null");
    let mut w = JsonWriter::new();
    w.begin_array()
        .f64_tenths(1.25)
        .f64_tenths(f64::INFINITY)
        .end_array();
    assert_eq!(w.finish(), "[1.2,null]");
}

#[test]
fn measurements_keep_three_significant_digits_below_100() {
    let cases = [
        (2.854, "2.85"),
        (3.1, "3.1"),
        (3.0, "3.0"),
        (0.1234, "0.123"),
        (0.00071, "0.00071"),
        (9.996, "10.0"),
        (42.37, "42.4"),
        (1234.56, "1234.6"),
        (0.0, "0.0"),
        (-2.5, "-2.5"),
    ];
    for (value, text) in cases {
        let mut w = JsonWriter::new();
        w.f64_sig3(value);
        assert_eq!(w.finish(), text, "{value}");
    }
    let mut w = JsonWriter::new();
    w.f64_sig3(f64::NAN);
    assert_eq!(w.finish(), "null");
    // Whatever one decimal place wrote reads back and re-renders as is.
    for tenths in 0..2_000u32 {
        let written = format!("{:.1}", f64::from(tenths) / 10.0);
        let mut w = JsonWriter::new();
        w.f64_sig3(written.parse().unwrap());
        assert_eq!(w.finish(), written);
    }
}

#[test]
fn as_u64_is_exact() {
    assert_eq!(JsonValue::Number(7.0).as_u64(), Some(7));
    assert_eq!(JsonValue::Number(7.5).as_u64(), None);
    assert_eq!(JsonValue::Number(-1.0).as_u64(), None);
}

#[test]
fn counters_serialize_both_ways() {
    let pairs = [("queries", 5u64), ("result_hits", 2)];
    let mut w = JsonWriter::new();
    w.counters(&pairs);
    assert_eq!(w.finish(), "{\"queries\":5,\"result_hits\":2}");
    let text = counters_to_text("engine", &[("tenant", "a\"b")], &pairs);
    assert_eq!(
        text,
        "engine_queries{tenant=\"a\\\"b\"} 5\nengine_result_hits{tenant=\"a\\\"b\"} 2\n"
    );
    let bare = counters_to_text("serve", &[], &[("shed", 1)]);
    assert_eq!(bare, "serve_shed 1\n");
}

/// The id-list writer [`JsonWriter::id_plane`] replaced, kept verbatim as
/// its reference (beside the element loop): sized from the widest id, one
/// `write_digits` per id.
fn oracle_u32_array<'w>(w: &'w mut JsonWriter, ids: &[u32]) -> &'w mut JsonWriter {
    w.begin_array();
    if w.pretty || ids.is_empty() {
        for &id in ids {
            w.u64(id.into());
        }
    } else {
        let widest = ids.iter().fold(0, |widest, &id| widest.max(id));
        let at = w.out.len();
        w.out
            .resize(at + ids.len() * (digit_count(widest.into()) + 1), 0);
        let buf = &mut w.out[at..];
        let mut pos = 0;
        for &id in ids {
            let n = digit_count(id.into());
            write_digits(&mut buf[pos..pos + n], id.into());
            buf[pos + n] = b',';
            pos += n + 1;
        }
        w.out.truncate(at + pos - 1);
        w.sep = Sep::Comma;
    }
    w.end_array()
}

/// The plane holding exactly `ids` (word `w`, bit `i` is id `64 * w + i`),
/// `spare` empty words past the last one needed.
fn plane_of(ids: &[u32], spare: usize) -> Vec<u64> {
    let top = ids.iter().max().map_or(0, |&id| id as usize / 64 + 1);
    let mut words = vec![0u64; top + spare];
    for &id in ids {
        words[id as usize / 64] |= 1 << (id % 64);
    }
    words
}

/// `id_plane` over `ids`' plane equals both references, with members on
/// either side so the separators are exercised too.
fn assert_plane_matches(ids: &[u32], spare: usize, pretty: bool) {
    let mut ids = ids.to_vec();
    ids.sort_unstable();
    ids.dedup();
    let words = plane_of(&ids, spare);
    let writer = || {
        let mut w = if pretty {
            JsonWriter::pretty()
        } else {
            JsonWriter::new()
        };
        w.begin_object().key("before").u64(0).key("ids");
        w
    };
    let finish = |mut w: JsonWriter| {
        w.key("after").u64(1).end_object();
        w.finish()
    };
    let mut plane = writer();
    plane.id_plane(&words);
    let plane = finish(plane);
    let mut looped = writer();
    looped.begin_array();
    for &id in &ids {
        looped.u64(id.into());
    }
    looped.end_array();
    assert_eq!(plane, finish(looped), "{ids:?} vs the element loop");
    let mut list = writer();
    oracle_u32_array(&mut list, &ids);
    assert_eq!(plane, finish(list), "{ids:?} vs the id-list writer");
    let between: usize = ids.iter().map(|id| id.to_string().len() + 1).sum();
    assert!(between <= id_plane_len(&words), "bound too small");
}

proptest! {
    #[test]
    fn id_plane_matches_the_element_loop(
        small in prop::collection::vec(0u32..1_200, 0..60),
        table in prop::collection::vec(0u32..ID_TEXT_BOUND as u32, 0..60),
        // Straddles the table's last word and the first formatted one.
        seam in prop::collection::vec(65_400u32..65_700, 0..40),
        past in prop::collection::vec(0u32..2_000_000, 0..40),
        full_words in prop::collection::vec(0u32..1_100, 0..4),
        spare in 0usize..3,
        pretty in any::<bool>(),
    ) {
        let ids: Vec<u32> = small
            .into_iter()
            .chain(table)
            .chain(seam)
            .chain(past)
            .chain(full_words.into_iter().flat_map(|w| w * 64..w * 64 + 64))
            .collect();
        assert_plane_matches(&ids, spare, pretty);
    }
}

#[test]
fn id_plane_handles_empty_single_and_full_planes() {
    for pretty in [false, true] {
        let mut empty = JsonWriter::new();
        empty.id_plane(&[]);
        assert_eq!(empty.finish(), "[]");
        assert_plane_matches(&[], 0, pretty);
        assert_plane_matches(&[], 3, pretty);
        for single in [0, 63, 64, 65_535, 65_536, 1_000_000] {
            assert_plane_matches(&[single], 1, pretty);
        }
    }
    // Every id of a plane that ends past the table bound: both paths, and
    // the seam between them, with no gap.
    let all: Vec<u32> = (0..70_000).collect();
    assert_plane_matches(&all, 0, false);
    assert_eq!(id_plane_len(&[]), 0);
    assert_eq!(id_plane_len(&[0, 0]), 0);
    assert_eq!(id_plane_len(&[0b101, 1 << 36]), 3 * 4, "3 ids, widest 100");
}

#[test]
fn id_plane_handles_every_width_boundary() {
    // 9/10, 99/100, … 99 999 999/100 000 000 (a 12.5 MB plane; the last
    // `u32` boundary, 10⁹, would need 125 MB and is left to the element
    // formatter's own width tests).
    let ids: Vec<u32> = (0..9)
        .flat_map(|p| {
            let power = 10u32.pow(p);
            [power - 1, power, power + 1]
        })
        .chain([0, 5, 65_535, 65_536])
        .collect();
    assert_plane_matches(&ids, 0, false);
    for power in (1..9).map(|p| 10u32.pow(p)) {
        assert_plane_matches(&[power - 1, power], 0, false);
        assert_plane_matches(&[power], 0, false);
        assert_plane_matches(&[power - 1], 0, false);
    }
}

#[test]
fn id_texts_hold_every_id_below_the_bound() {
    // Every id, through its chunk: the chunk seams (4 095/4 096, …) and
    // the width boundaries included.
    for id in 0..ID_TEXT_BOUND {
        let entry = id_texts(id / ID_CHUNK)[id % ID_CHUNK].to_le_bytes();
        let len = entry[7] as usize;
        assert_eq!(&entry[..len], format!("{id},").as_bytes());
    }
}

/// Whitespace the grammar accepts between tokens (`char::is_whitespace`):
/// ASCII, and Unicode such as U+00A0 and U+2028.
const SPACES: [&str; 8] = [
    " ", "\n", "\t\r", "\u{b}", "\u{85}", "\u{a0}", "\u{2028}", "\u{3000}",
];

fn space(rng: &mut Prng, out: &mut String) {
    if rng.bernoulli(0.3) {
        out.push_str(SPACES[rng.below(SPACES.len())]);
    }
}

/// `s` as a JSON string literal in a random spelling: each character
/// raw, in its short escape, or as `\u` escapes (a surrogate pair past
/// the BMP).
fn spelled_string(s: &str, rng: &mut Prng, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match (c, rng.below(3)) {
            (_, 0) => {
                let mut units = [0u16; 2];
                for unit in c.encode_utf16(&mut units) {
                    let _ = if rng.bernoulli(0.5) {
                        write!(out, "\\u{unit:04x}")
                    } else {
                        write!(out, "\\u{unit:04X}")
                    };
                }
            }
            ('"' | '\\', _) => {
                out.push('\\');
                out.push(c);
            }
            ('/', 1) => out.push_str("\\/"),
            ('\n', 1) => out.push_str("\\n"),
            ('\t', 1) => out.push_str("\\t"),
            _ => out.push(c),
        }
    }
    out.push('"');
}

/// `value` as text in a random spelling, with random whitespace between
/// its tokens.
fn spelled(value: &JsonValue, rng: &mut Prng, out: &mut String) {
    space(rng, out);
    match value {
        JsonValue::Null => out.push_str("null"),
        JsonValue::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        JsonValue::Number(n) if rng.bernoulli(0.5) => {
            let _ = write!(out, "{n:e}");
        }
        JsonValue::Number(n) => {
            let _ = write!(out, "{n}");
        }
        JsonValue::String(s) => spelled_string(s, rng, out),
        JsonValue::Array(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                spelled(item, rng, out);
            }
            space(rng, out);
            out.push(']');
        }
        JsonValue::Object(fields) => {
            out.push('{');
            for (i, (key, value)) in fields.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                space(rng, out);
                spelled_string(key, rng, out);
                space(rng, out);
                out.push(':');
                spelled(value, rng, out);
            }
            space(rng, out);
            out.push('}');
        }
    }
    space(rng, out);
}

/// Fragments a mutation splices in: broken and whole escapes, surrogate
/// halves and pairs, Unicode whitespace and letters, stray structure.
const SPLICES: [&str; 24] = [
    "\\u",
    "\\ud83d",
    "\\ude00",
    "\\ud83d\\ude00",
    "\\u00e9",
    "\\u+0a1",
    "\\u12",
    "\\x",
    "\\\u{e9}",
    "\\",
    "\"",
    "\u{a0}",
    "\u{2028}",
    "\u{e9}",
    "\u{1f600}",
    "[",
    "{",
    "]",
    "}",
    ",",
    ":",
    "-",
    "1e",
    "tru",
];

/// `text` after one to three mutations: a truncation, a bit flipped in
/// an ASCII byte (it stays ASCII), a splice, or a deleted character.
fn mutate(text: &str, rng: &mut Prng) -> String {
    let mut chars: Vec<char> = text.chars().collect();
    for _ in 0..1 + rng.below(3) {
        let at = rng.below(chars.len() + 1);
        match rng.below(4) {
            0 => chars.truncate(at),
            1 if at < chars.len() && chars[at].is_ascii() => {
                chars[at] = (chars[at] as u8 ^ 1 << rng.below(7)) as char;
            }
            2 => {
                let splice = SPLICES[rng.below(SPLICES.len())];
                chars.splice(at..at, splice.chars());
            }
            _ if at < chars.len() => {
                chars.remove(at);
            }
            _ => {}
        }
    }
    chars.into_iter().collect()
}

/// Reads up to `steps` tokens of `text` in document order and then ends
/// the reader: its verdict on the whole document, wherever it stopped.
fn skim(text: &str, steps: usize) -> Result<(), JsonError> {
    let mut r = JsonReader::new(text);
    for _ in 0..steps {
        if r.pending {
            r.next()?;
        } else if r.depth() == 0 {
            break;
        } else if r.in_object() {
            r.key()?;
        } else {
            r.item()?;
        }
    }
    r.end()
}

/// The reader against the char parser on `text`: the same value or the
/// same error, and the same verdict from a reader stopped after `steps`.
fn assert_matches_the_char_parser(text: &str, steps: usize) -> Result<(), TestCaseError> {
    let got = JsonValue::parse(text);
    let want = oracle_parser::parse(text);
    prop_assert_eq!(&got, &want, "{:?}: {:?} != {:?}", text, got, want);
    let skimmed = skim(text, steps);
    let verdict = got.map(|_| ());
    prop_assert_eq!(&skimmed, &verdict, "{:?} skimmed {} steps", text, steps);
    Ok(())
}

proptest! {
    #[test]
    fn reader_parses_as_the_char_parser_did(seed in any::<u64>()) {
        let mut rng = Prng::seeded(seed);
        let value = arbitrary_value(&mut rng, 4, true);
        let mut text = String::new();
        spelled(&value, &mut rng, &mut text);
        prop_assert_eq!(JsonValue::parse(&text), Ok(value), "{:?}", text);
        assert_matches_the_char_parser(&text, rng.below(24))?;
        for _ in 0..8 {
            assert_matches_the_char_parser(&mutate(&text, &mut rng), rng.below(24))?;
        }
    }
}

#[test]
fn reader_errors_match_the_char_parser_at_the_edges() {
    let deep = |n: usize| format!("{}{}", "[".repeat(n), "]".repeat(n));
    let cases = [
        String::new(),
        "\u{a0}\u{2028}{\u{3000}\"\u{e9}\":\u{85}[1 ,\u{a0}2]}\u{2029}".into(),
        "\u{1c}1".into(),
        "\u{e9}".into(),
        "[\"\u{e9}\u{1f600}\" x]".into(),
        "\"\u{e9}\\\u{e9}\"".into(),
        "\"\\u\u{e9}abc\"".into(),
        "\"\\u+0e9\"".into(),
        "\"\\u-0e9\"".into(),
        "\"\\ud83d\\u0041\"".into(),
        "\"\\ud83d\u{e9}\"".into(),
        "\"\\udc00\"".into(),
        "\"\u{e9}\\".into(),
        "[1e, 2]".into(),
        "-".into(),
        "01".into(),
        "1.".into(),
        "[tru]".into(),
        "{\"a\":1,}".into(),
        "{,}".into(),
        "[,1]".into(),
        "{\"a\" \u{a0}: 1 \u{e9}".into(),
        deep(MAX_DEPTH),
        deep(MAX_DEPTH + 1),
        "{\"a\":[".repeat(MAX_DEPTH),
    ];
    for text in &cases {
        for steps in [0, 1, 3, 100] {
            assert_matches_the_char_parser(text, steps).unwrap();
        }
    }
}

#[test]
fn strings_borrow_the_text_unless_they_hold_an_escape() {
    let mut r = JsonReader::new(r#"["plain é", "esc\naped", {"k\u0065y": 1}]"#);
    assert_eq!(r.next().unwrap(), Token::BeginArray);
    assert!(r.item().unwrap());
    assert!(matches!(
        r.next().unwrap(),
        Token::String(Cow::Borrowed("plain é"))
    ));
    assert!(r.item().unwrap());
    assert!(matches!(r.next().unwrap(), Token::String(Cow::Owned(s)) if s == "esc\naped"));
    assert!(r.item().unwrap());
    assert_eq!(r.next().unwrap(), Token::BeginObject);
    assert!(matches!(r.key().unwrap(), Some(Cow::Owned(k)) if k == "key"));
    r.end().unwrap();
}

#[test]
fn close_to_skips_back_out_to_a_depth() {
    let text = r#"{"a": {"b": [1, [2, {"c": 3}]], "d": 4}, "e": 5}"#;
    let mut r = JsonReader::new(text);
    assert_eq!(r.next().unwrap(), Token::BeginObject);
    assert_eq!(r.key().unwrap().as_deref(), Some("a"));
    assert_eq!(r.next().unwrap(), Token::BeginObject);
    assert_eq!(r.key().unwrap().as_deref(), Some("b"));
    assert_eq!(r.next().unwrap(), Token::BeginArray);
    assert!(r.item().unwrap());
    assert_eq!(r.depth(), 3);
    // The element due, the array and `a`'s object are skipped…
    r.close_to(1).unwrap();
    // …and the outer object reads on.
    assert_eq!(r.key().unwrap().as_deref(), Some("e"));
    assert_eq!(r.next().unwrap().as_u64(), Some(5));
    assert_eq!(r.key().unwrap(), None);
    r.end().unwrap();
    // A fresh reader's `end` checks the whole document.
    assert!(JsonReader::new(text).end().is_ok());
    let err = JsonReader::new("[1, }").end().unwrap_err();
    assert_eq!(err, oracle_parser::parse("[1, }").unwrap_err());
}
