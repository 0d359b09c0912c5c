//! Minimal JSON value model, parser and serialiser.
//!
//! The workspace has no network access and therefore no serde; `htc-serve`
//! needs only enough JSON to express align requests (edge lists, attribute
//! matrices, artifact paths) and responses (anchors, weights, timings), so a
//! small recursive-descent parser over a byte slice suffices.  Numbers are
//! kept as `f64` (the payloads are node indices, scores and counts — all
//! exactly representable well past any graph this server can hold in memory).
//!
//! The parser is defensive in the same spirit as `htc_core::persist`: inputs
//! are untrusted network bytes, so depth is bounded (no stack overflow from
//! `[[[[…`), errors carry positions, and nothing panics on malformed input.

use std::fmt::Write as _;

/// Maximum nesting depth accepted by the parser; deeper input is rejected
/// rather than risking the recursion eating the request thread's stack.
const MAX_DEPTH: usize = 64;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    /// Object members in source order (requests are small; linear lookup).
    Obj(Vec<(String, Json)>),
    /// An already-rendered JSON fragment, emitted verbatim — lets emitters
    /// that produce JSON text themselves (the `StageTimer` renderers) embed
    /// into a response without a parse round-trip.  Never produced by
    /// [`parse`]; the caller vouches for its validity.
    Raw(String),
}

impl Json {
    /// Member of an object by key (`None` for absent keys or non-objects).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as a non-negative integer, rejecting fractions and values
    /// beyond 2^53 (not exactly representable, hence ambiguous).
    pub fn as_usize(&self) -> Option<usize> {
        let n = self.as_f64()?;
        if n < 0.0 || n.fract() != 0.0 || n > 9_007_199_254_740_992.0 {
            return None;
        }
        Some(n as usize)
    }

    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Renders the value as compact JSON text.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_to(&mut out)
            .expect("writing to a String cannot fail");
        out
    }

    /// Renders the value as compact JSON text into any [`std::fmt::Write`]
    /// sink — a `String`, or a streaming response body that sends the text
    /// out in chunks instead of materialising it.
    pub fn render_to<W: std::fmt::Write>(&self, out: &mut W) -> std::fmt::Result {
        match self {
            Json::Null => out.write_str("null"),
            Json::Bool(b) => out.write_str(if *b { "true" } else { "false" }),
            Json::Num(n) => write_num(out, *n),
            Json::Str(s) => render_string(s, out),
            Json::Arr(items) => {
                out.write_char('[')?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.write_char(',')?;
                    }
                    item.render_to(out)?;
                }
                out.write_char(']')
            }
            Json::Obj(members) => {
                out.write_char('{')?;
                for (i, (k, v)) in members.iter().enumerate() {
                    if i > 0 {
                        out.write_char(',')?;
                    }
                    render_string(k, out)?;
                    out.write_char(':')?;
                    v.render_to(out)?;
                }
                out.write_char('}')
            }
            Json::Raw(fragment) => out.write_str(fragment),
        }
    }
}

/// Renders a network as the inline spec `POST /align` accepts
/// (`{"num_nodes", "edges": [[u,v],…], "attributes": [[…],…]}`) — the one
/// client-side encoder shared by the examples, the load generator and the
/// integration tests.
pub fn network_spec(network: &htc_graph::AttributedNetwork) -> String {
    let mut out = String::new();
    let _ = write!(out, "{{\"num_nodes\":{},\"edges\":[", network.num_nodes());
    for (i, &(u, v)) in network.graph().edges().iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "[{u},{v}]");
    }
    out.push_str("],\"attributes\":[");
    for u in 0..network.num_nodes() {
        if u > 0 {
            out.push(',');
        }
        out.push('[');
        for (i, &v) in network.node_attributes(u).iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{v}");
        }
        out.push(']');
    }
    out.push_str("]}");
    out
}

/// Writes a number exactly as [`Json::render`] would — the single source of
/// truth for number formatting, shared with streaming emitters that write
/// values without building a [`Json`] tree first.
pub fn write_num<W: std::fmt::Write>(out: &mut W, n: f64) -> std::fmt::Result {
    if n.is_finite() {
        // Integral values print without a trailing ".0" so node indices look
        // like indices.
        if n.fract() == 0.0 && n.abs() < 9e15 {
            write!(out, "{}", n as i64)
        } else {
            write!(out, "{n}")
        }
    } else {
        // JSON has no NaN/Infinity; null is the least-bad option.
        out.write_str("null")
    }
}

/// Convenience constructors used all over the response-building code.
pub fn obj(members: Vec<(&str, Json)>) -> Json {
    Json::Obj(
        members
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

pub fn arr(items: impl IntoIterator<Item = Json>) -> Json {
    Json::Arr(items.into_iter().collect())
}

pub fn num(n: f64) -> Json {
    Json::Num(n)
}

pub fn str(s: impl Into<String>) -> Json {
    Json::Str(s.into())
}

fn render_string<W: std::fmt::Write>(s: &str, out: &mut W) -> std::fmt::Result {
    out.write_char('"')?;
    for c in s.chars() {
        match c {
            '"' => out.write_str("\\\"")?,
            '\\' => out.write_str("\\\\")?,
            '\n' => out.write_str("\\n")?,
            '\r' => out.write_str("\\r")?,
            '\t' => out.write_str("\\t")?,
            c if (c as u32) < 0x20 => {
                write!(out, "\\u{:04x}", c as u32)?;
            }
            c => out.write_char(c)?,
        }
    }
    out.write_char('"')
}

/// Parses `text` as a single JSON value (trailing garbage is an error).
pub fn parse(text: &str) -> Result<Json, String> {
    let mut p = Parser {
        bytes: text.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let value = p.value(0)?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing characters at byte {}", p.pos));
    }
    Ok(value)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn skip_ws(&mut self) {
        while let Some(b) = self.bytes.get(self.pos) {
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
            Err(format!("expected {:?} at byte {}", b as char, self.pos))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, String> {
        if depth > MAX_DEPTH {
            return Err(format!("nesting deeper than {MAX_DEPTH} levels"));
        }
        match self.peek() {
            Some(b'{') => self.object(depth),
            Some(b'[') => self.array(depth),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b) if b == b'-' || b.is_ascii_digit() => self.number(),
            Some(b) => Err(format!(
                "unexpected character {:?} at byte {}",
                b as char, self.pos
            )),
            None => Err("unexpected end of input".into()),
        }
    }

    fn literal(&mut self, text: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(text.as_bytes()) {
            self.pos += text.len();
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
        while matches!(self.peek(), Some(b) if b.is_ascii_digit() || matches!(b, b'.' | b'e' | b'E' | b'+' | b'-'))
        {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii digits");
        let n: f64 = text
            .parse()
            .map_err(|e| format!("bad number {text:?} at byte {start}: {e}"))?;
        if !n.is_finite() {
            return Err(format!("non-finite number {text:?} at byte {start}"));
        }
        Ok(Json::Num(n))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let escape = self.peek().ok_or("unterminated escape")?;
                    self.pos += 1;
                    match escape {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'b' => out.push('\u{0008}'),
                        b'f' => out.push('\u{000c}'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .ok_or("truncated \\u escape")?;
                            let hex = std::str::from_utf8(hex)
                                .map_err(|_| "non-ascii \\u escape".to_string())?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| format!("bad \\u escape {hex:?}"))?;
                            self.pos += 4;
                            // Surrogate pairs are not needed by this server's
                            // payloads; map lone surrogates to U+FFFD.
                            out.push(char::from_u32(code).unwrap_or('\u{FFFD}'));
                        }
                        other => {
                            return Err(format!("unknown escape \\{}", other as char));
                        }
                    }
                }
                Some(_) => {
                    // Consume one UTF-8 scalar (multi-byte safe).
                    let rest = std::str::from_utf8(&self.bytes[self.pos..])
                        .map_err(|_| "invalid UTF-8 in string".to_string())?;
                    let c = rest.chars().next().expect("peeked non-empty");
                    if (c as u32) < 0x20 {
                        return Err(format!("raw control character at byte {}", self.pos));
                    }
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn array(&mut self, depth: usize) -> Result<Json, String> {
        self.expect(b'[')?;
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
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value(depth + 1)?;
            members.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(members));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::collection;
    use proptest::prelude::*;
    use proptest::TestRng;

    /// Fragments that reach every branch of the parser: structure, literals
    /// and their prefixes, number shapes (overflowing ones included), valid,
    /// truncated and unknown escapes, raw control and multi-byte characters.
    const TOKENS: &[&str] = &[
        "{", "}", "[", "]", ",", ":", " ", "\n", "\"", "\\", "\"k\"", "true", "tru", "false",
        "null", "nul", "0", "-", "-0", "12", "1.5", ".", "e", "E+", "1e309", "-1e-400", "01",
        "\\u", "\\u00e9", "\\uD800", "\\u12", "\\u+7f", "\\x", "\\n", "\u{1}", "é", "😀",
        "[[[[[[[[", "]]]]]]]]",
    ];

    /// Characters a string may carry through render → parse: quotes,
    /// backslashes, escaped and raw-rendered control characters, multi-byte
    /// scalars.
    const STRING_CHARS: &[char] = &[
        'a', 'Z', ' ', '"', '\\', '/', '\n', '\r', '\t', '\u{0}', '\u{8}', '\u{1f}', '\u{7f}', 'é',
        '€', '\u{2028}', '\u{fffd}', '😀',
    ];

    /// Finite numbers of every rendering shape: integers, fractions, the
    /// extremes, subnormals, `-0.0` and arbitrary bit patterns.
    fn random_number(rng: &mut TestRng) -> f64 {
        const SPECIAL: &[f64] = &[
            0.0,
            -0.0,
            0.1,
            9e15,
            -9e15,
            1e21,
            f64::MAX,
            f64::MIN,
            f64::MIN_POSITIVE,
            5e-324,
        ];
        match rng.next_u64() % 4 {
            0 => (rng.next_u64() % 2001) as f64 - 1000.0,
            1 => rng.next_f64() * 2.0 - 1.0,
            2 => SPECIAL[(rng.next_u64() % SPECIAL.len() as u64) as usize],
            _ => loop {
                let v = f64::from_bits(rng.next_u64());
                if v.is_finite() {
                    break v;
                }
            },
        }
    }

    fn random_string(rng: &mut TestRng) -> String {
        (0..rng.next_u64() % 6)
            .map(|_| STRING_CHARS[(rng.next_u64() % STRING_CHARS.len() as u64) as usize])
            .collect()
    }

    /// A random object nested up to `depth` levels, with finite numbers.
    fn random_object(rng: &mut TestRng, depth: usize) -> Json {
        Json::Obj(
            (0..rng.next_u64() % 4)
                .map(|_| (random_string(rng), random_value(rng, depth - 1)))
                .collect(),
        )
    }

    fn random_value(rng: &mut TestRng, depth: usize) -> Json {
        match rng.next_u64() % if depth == 0 { 4 } else { 6 } {
            0 => Json::Null,
            1 => Json::Bool(rng.next_u64().is_multiple_of(2)),
            2 => Json::Num(random_number(rng)),
            3 => Json::Str(random_string(rng)),
            4 => Json::Arr(
                (0..rng.next_u64() % 4)
                    .map(|_| random_value(rng, depth - 1))
                    .collect(),
            ),
            _ => random_object(rng, depth),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn random_token_strings_never_panic(picks in collection::vec(0usize..TOKENS.len(), 0..48)) {
            let text: String = picks.iter().map(|&i| TOKENS[i]).collect();
            // Any outcome but a panic is fine: the bytes are arbitrary.  Every
            // prefix is tried too, so input may end inside any token.
            for end in text.char_indices().map(|(i, _)| i).chain([text.len()]) {
                let _ = parse(&text[..end]);
            }
        }

        #[test]
        fn render_parse_render_is_a_fixpoint(seed in 0u64..u64::MAX) {
            let value = random_object(&mut TestRng::new(seed), 4);
            let text = value.render();
            let reparsed = parse(&text).map_err(TestCaseError::fail)?;
            // Compared as text: rendering is many-to-one (`-0.0` and `0.0`
            // both render as `0`).
            prop_assert_eq!(reparsed.render(), text);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn every_strict_prefix_of_an_object_is_rejected(seed in 0u64..u64::MAX) {
            let text = random_object(&mut TestRng::new(seed), 3).render();
            for (end, _) in text.char_indices() {
                prop_assert!(parse(&text[..end]).is_err(), "prefix {:?} parsed", &text[..end]);
            }
        }
    }

    #[test]
    fn parses_round_trippable_values() {
        let text = r#"{"a": [1, 2.5, -3], "b": {"nested": true}, "s": "x\"y", "n": null}"#;
        let v = parse(text).unwrap();
        assert_eq!(v.get("a").unwrap().as_arr().unwrap().len(), 3);
        assert_eq!(v.get("a").unwrap().as_arr().unwrap()[0].as_usize(), Some(1));
        assert_eq!(
            v.get("b").unwrap().get("nested").unwrap().as_bool(),
            Some(true)
        );
        assert_eq!(v.get("s").unwrap().as_str(), Some("x\"y"));
        assert_eq!(v.get("n"), Some(&Json::Null));
        // Render → parse is a fixpoint.
        let rendered = v.render();
        assert_eq!(parse(&rendered).unwrap(), v);
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in [
            "",
            "{",
            "[1,",
            "{\"a\"}",
            "tru",
            "1 2",
            "\"unterminated",
            "{\"a\": 01x}",
            "[1]]",
        ] {
            assert!(parse(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn rejects_pathological_nesting() {
        let deep = "[".repeat(500) + &"]".repeat(500);
        let err = parse(&deep).unwrap_err();
        assert!(err.contains("nesting"), "{err}");
    }

    #[test]
    fn as_usize_rejects_fractions_and_negatives() {
        assert_eq!(parse("3").unwrap().as_usize(), Some(3));
        assert_eq!(parse("3.5").unwrap().as_usize(), None);
        assert_eq!(parse("-1").unwrap().as_usize(), None);
    }

    #[test]
    fn render_escapes_strings() {
        assert_eq!(str("a\"b\n").render(), "\"a\\\"b\\n\"");
        assert_eq!(num(3.0).render(), "3");
        assert_eq!(num(0.25).render(), "0.25");
        assert_eq!(obj(vec![("k", Json::Null)]).render(), "{\"k\":null}");
    }

    #[test]
    fn raw_fragments_embed_verbatim() {
        let v = obj(vec![("stages", Json::Raw("[{\"stage\":\"x\"}]".into()))]);
        let rendered = v.render();
        assert_eq!(rendered, "{\"stages\":[{\"stage\":\"x\"}]}");
        // The embedded fragment round-trips through the parser as structure.
        assert!(parse(&rendered)
            .unwrap()
            .get("stages")
            .unwrap()
            .as_arr()
            .is_some());
    }
}
