//! A minimal JSON value model, emitter, and parser — the workspace's one
//! JSON codec.
//!
//! Report rendering *produces* JSON (machine-readable audit artifacts,
//! snapshots, checkpoints and lint reports); the parser
//! ([`Json::parse`]) reads those back, including bytes from outside the
//! process, so it is strict and bounded: nesting past [`MAX_DEPTH`] is
//! an error rather than a stack overflow, and `\u` escapes must form
//! valid scalar values. Object key order is insertion order, which keeps
//! emitted reports deterministic.

use std::fmt;

/// Deepest array/object nesting [`Json::parse`] accepts. Every document
/// the workspace writes nests a handful of levels; the cap keeps the
/// recursive parser's stack use bounded on hostile input.
pub const MAX_DEPTH: usize = 128;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// A finite number (NaN/inf serialize as `null`, matching common
    /// practice for JSON encoders).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object with insertion-ordered keys.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Build an object from key/value pairs.
    pub fn obj(pairs: impl IntoIterator<Item = (&'static str, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_owned(), v)).collect())
    }

    /// Build an array from values.
    pub fn arr(items: impl IntoIterator<Item = Json>) -> Json {
        Json::Arr(items.into_iter().collect())
    }

    /// Push a key/value pair onto an object. Panics if `self` is not an
    /// object (construction-time misuse, not a runtime condition).
    pub fn push(&mut self, key: impl Into<String>, value: Json) {
        match self {
            Json::Obj(pairs) => pairs.push((key.into(), value)),
            // fairem: allow(panic) — documented construction-time misuse contract, not a runtime condition
            _ => panic!("Json::push on non-object"),
        }
    }

    /// Parse JSON text into a value.
    ///
    /// Standard JSON with two liberties matching the emitter: duplicate
    /// object keys are kept (insertion order), and numbers are `f64`.
    /// Arrays and objects nested deeper than [`MAX_DEPTH`], lone or
    /// mismatched UTF-16 surrogate escapes, and trailing characters are
    /// errors.
    pub fn parse(text: &str) -> Result<Json, JsonError> {
        let mut p = Parser {
            chars: text.chars().peekable(),
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.chars.peek().is_some() {
            return Err(JsonError {
                pos: p.pos,
                message: "trailing characters".into(),
            });
        }
        Ok(v)
    }

    /// Look up a key in an object (first occurrence).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a finite number, if it is one.
    pub fn as_num(&self) -> Option<f64> {
        match self {
            Json::Num(n) if n.is_finite() => Some(*n),
            _ => None,
        }
    }

    /// The value as a non-negative integer, if it is one that `f64`
    /// holds exactly (at most 2^53).
    pub fn as_usize(&self) -> Option<usize> {
        let n = self.as_num()?;
        if n.fract() == 0.0 && (0.0..=9_007_199_254_740_992.0).contains(&n) {
            usize::try_from(n as u64).ok()
        } else {
            None
        }
    }

    /// The value as a boolean, if it is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as a string slice, if it is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value's items, if it is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Serialize to a compact JSON string.
    pub fn to_string_compact(&self) -> String {
        let mut s = String::new();
        self.write(&mut s, None, 0);
        s
    }

    /// Serialize to an indented (pretty) JSON string.
    pub fn to_string_pretty(&self) -> String {
        let mut s = String::new();
        self.write(&mut s, Some(2), 0);
        s
    }

    fn write(&self, out: &mut String, indent: Option<usize>, depth: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) => {
                if n.is_finite() {
                    if n.fract() == 0.0 && n.abs() < 1e15 {
                        out.push_str(&format!("{}", *n as i64));
                    } else {
                        out.push_str(&format!("{n}"));
                    }
                } else {
                    out.push_str("null");
                }
            }
            Json::Str(s) => write_escaped(out, s),
            Json::Arr(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline_indent(out, indent, depth + 1);
                    v.write(out, indent, depth + 1);
                }
                newline_indent(out, indent, depth);
                out.push(']');
            }
            Json::Obj(pairs) => {
                if pairs.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline_indent(out, indent, depth + 1);
                    write_escaped(out, k);
                    out.push(':');
                    if indent.is_some() {
                        out.push(' ');
                    }
                    v.write(out, indent, depth + 1);
                }
                newline_indent(out, indent, depth);
                out.push('}');
            }
        }
    }
}

fn newline_indent(out: &mut String, indent: Option<usize>, depth: usize) {
    if let Some(w) = indent {
        out.push('\n');
        for _ in 0..w * depth {
            out.push(' ');
        }
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
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Error from [`Json::parse`] with the character position.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// 0-based character offset of the failure.
    pub pos: usize,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "json parse error at {}: {}", self.pos, self.message)
    }
}

impl std::error::Error for JsonError {}

struct Parser<'a> {
    chars: std::iter::Peekable<std::str::Chars<'a>>,
    pos: usize,
    /// Arrays/objects currently open.
    depth: usize,
}

impl Parser<'_> {
    fn bump(&mut self) -> Option<char> {
        let c = self.chars.next();
        if c.is_some() {
            self.pos += 1;
        }
        c
    }

    fn skip_ws(&mut self) {
        while matches!(self.chars.peek(), Some(' ' | '\t' | '\n' | '\r')) {
            self.bump();
        }
    }

    fn fail<T>(&self, message: impl Into<String>) -> Result<T, JsonError> {
        Err(JsonError {
            pos: self.pos,
            message: message.into(),
        })
    }

    fn consume(&mut self, c: char) -> Result<(), JsonError> {
        match self.bump() {
            Some(got) if got == c => Ok(()),
            Some(got) => self.fail(format!("expected {c:?}, found {got:?}")),
            None => self.fail(format!("expected {c:?}, found end of input")),
        }
    }

    fn literal(&mut self, rest: &str, value: Json) -> Result<Json, JsonError> {
        for c in rest.chars() {
            self.consume(c)?;
        }
        Ok(value)
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        self.skip_ws();
        match self.chars.peek() {
            Some('n') => {
                self.bump();
                self.literal("ull", Json::Null)
            }
            Some('t') => {
                self.bump();
                self.literal("rue", Json::Bool(true))
            }
            Some('f') => {
                self.bump();
                self.literal("alse", Json::Bool(false))
            }
            Some('"') => self.string().map(Json::Str),
            Some(&open @ ('[' | '{')) => {
                if self.depth == MAX_DEPTH {
                    return self.fail(format!("nesting deeper than {MAX_DEPTH} levels"));
                }
                self.depth += 1;
                let v = if open == '[' {
                    self.array()
                } else {
                    self.object()
                };
                self.depth -= 1;
                v
            }
            Some(c) if *c == '-' || c.is_ascii_digit() => self.number(),
            Some(c) => {
                let c = *c;
                self.fail(format!("unexpected character {c:?}"))
            }
            None => self.fail("unexpected end of input"),
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.consume('"')?;
        let mut out = String::new();
        loop {
            match self.bump() {
                None => return self.fail("unterminated string"),
                Some('"') => return Ok(out),
                Some('\\') => match self.bump() {
                    Some('"') => out.push('"'),
                    Some('\\') => out.push('\\'),
                    Some('/') => out.push('/'),
                    Some('n') => out.push('\n'),
                    Some('t') => out.push('\t'),
                    Some('r') => out.push('\r'),
                    Some('b') => out.push('\u{8}'),
                    Some('f') => out.push('\u{c}'),
                    Some('u') => {
                        let mut code = self.hex4()?;
                        if (0xd800..0xdc00).contains(&code) {
                            // A high surrogate must be followed by an
                            // escaped low one; together they encode one
                            // scalar above the BMP.
                            if self.bump() != Some('\\') || self.bump() != Some('u') {
                                return self.fail("lone high surrogate");
                            }
                            let low = self.hex4()?;
                            if !(0xdc00..0xe000).contains(&low) {
                                return self.fail("bad low surrogate");
                            }
                            code = 0x10000 + ((code - 0xd800) << 10) + (low - 0xdc00);
                        }
                        match char::from_u32(code) {
                            Some(c) => out.push(c),
                            None => return self.fail("lone low surrogate"),
                        }
                    }
                    Some(other) => return self.fail(format!("bad escape \\{other}")),
                    None => return self.fail("unterminated escape"),
                },
                Some(c) => out.push(c),
            }
        }
    }

    /// The four hex digits of a `\u` escape.
    fn hex4(&mut self) -> Result<u32, JsonError> {
        let mut code = 0u32;
        for _ in 0..4 {
            let Some(d) = self.bump() else {
                return self.fail("truncated \\u escape");
            };
            let Some(digit) = d.to_digit(16) else {
                return self.fail(format!("bad hex digit {d:?}"));
            };
            code = code * 16 + digit;
        }
        Ok(code)
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let mut text = String::new();
        if self.chars.peek() == Some(&'-') {
            text.push('-');
            self.bump();
        }
        while let Some(&c) = self.chars.peek() {
            if !(c.is_ascii_digit() || matches!(c, '.' | 'e' | 'E' | '+' | '-')) {
                break;
            }
            text.push(c);
            self.bump();
        }
        text.parse::<f64>().map(Json::Num).map_err(|_| JsonError {
            pos: self.pos,
            message: format!("bad number {text:?}"),
        })
    }

    fn array(&mut self) -> Result<Json, JsonError> {
        self.consume('[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.chars.peek() == Some(&']') {
            self.bump();
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.bump() {
                Some(',') => continue,
                Some(']') => return Ok(Json::Arr(items)),
                _ => return self.fail("expected ',' or ']'"),
            }
        }
    }

    fn object(&mut self) -> Result<Json, JsonError> {
        self.consume('{')?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.chars.peek() == Some(&'}') {
            self.bump();
            return Ok(Json::Obj(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.consume(':')?;
            let value = self.value()?;
            pairs.push((key, value));
            self.skip_ws();
            match self.bump() {
                Some(',') => continue,
                Some('}') => return Ok(Json::Obj(pairs)),
                _ => return self.fail("expected ',' or '}'"),
            }
        }
    }
}

impl From<&str> for Json {
    fn from(s: &str) -> Self {
        Json::Str(s.to_owned())
    }
}

impl From<String> for Json {
    fn from(s: String) -> Self {
        Json::Str(s)
    }
}

impl From<f64> for Json {
    fn from(n: f64) -> Self {
        Json::Num(n)
    }
}

impl From<usize> for Json {
    fn from(n: usize) -> Self {
        Json::Num(n as f64)
    }
}

impl From<bool> for Json {
    fn from(b: bool) -> Self {
        Json::Bool(b)
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_string_compact())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compact_object() {
        let j = Json::obj([
            ("name", "cn".into()),
            ("disparity", 0.418.into()),
            ("unfair", true.into()),
            ("n", Json::Num(42.0)),
            ("note", Json::Null),
        ]);
        assert_eq!(
            j.to_string_compact(),
            r#"{"name":"cn","disparity":0.418,"unfair":true,"n":42,"note":null}"#
        );
    }

    #[test]
    fn escapes_strings() {
        let j = Json::Str("a\"b\\c\nd\u{1}".into());
        assert_eq!(j.to_string_compact(), "\"a\\\"b\\\\c\\nd\\u0001\"");
    }

    #[test]
    fn arrays_and_nesting() {
        let j = Json::arr([Json::Num(1.0), Json::arr([]), Json::obj([])]);
        assert_eq!(j.to_string_compact(), "[1,[],{}]");
    }

    #[test]
    fn nonfinite_serializes_as_null() {
        assert_eq!(Json::Num(f64::NAN).to_string_compact(), "null");
        assert_eq!(Json::Num(f64::INFINITY).to_string_compact(), "null");
    }

    #[test]
    fn pretty_is_indented_and_stable() {
        let j = Json::obj([("a", Json::arr([Json::Num(1.0)]))]);
        let p = j.to_string_pretty();
        assert!(p.contains("\n  \"a\": [\n    1\n  ]\n"), "{p}");
    }

    #[test]
    fn push_builds_incrementally() {
        let mut j = Json::obj([]);
        j.push("k", Json::Bool(false));
        assert_eq!(j.to_string_compact(), r#"{"k":false}"#);
    }

    #[test]
    fn parse_round_trips_compact_output() {
        let j = Json::obj([
            ("name", "cn".into()),
            ("disparity", 0.418.into()),
            ("unfair", true.into()),
            (
                "nested",
                Json::arr([Json::Null, Json::Num(-2.5), Json::obj([])]),
            ),
        ]);
        let back = Json::parse(&j.to_string_compact()).unwrap();
        assert_eq!(back, j);
        let back = Json::parse(&j.to_string_pretty()).unwrap();
        assert_eq!(back, j);
    }

    #[test]
    fn parse_handles_escapes_and_unicode() {
        let j = Json::parse(r#"{"k": "a\"b\\c\nd\u0041"}"#).unwrap();
        assert_eq!(j.get("k").unwrap().as_str().unwrap(), "a\"b\\c\ndA");
    }

    #[test]
    fn parse_numbers() {
        assert_eq!(Json::parse("-12.5e2").unwrap().as_num().unwrap(), -1250.0);
        assert_eq!(Json::parse("0").unwrap().as_num().unwrap(), 0.0);
    }

    #[test]
    fn parse_errors_carry_position() {
        let e = Json::parse("[1, 2").unwrap_err();
        assert!(e.message.contains("expected"), "{e}");
        let e = Json::parse("{\"a\": }").unwrap_err();
        assert!(e.pos > 0);
        assert!(Json::parse("").is_err());
        assert!(Json::parse("true false")
            .unwrap_err()
            .message
            .contains("trailing"));
        assert!(Json::parse("nul").is_err());
        for bad in ["{", "[1,]", "{\"a\":}", "tru", "1 2", "\"x", "{\"a\" 1}"] {
            let e = Json::parse(bad).unwrap_err();
            assert!(e.pos <= bad.chars().count(), "{bad}: {e}");
        }
    }

    #[test]
    fn parses_unicode_escapes_and_surrogates() {
        assert_eq!(Json::parse(r#""é 😀""#).unwrap(), Json::Str("é 😀".into()));
        assert_eq!(
            Json::parse(r#""\u00e9 \ud83d\ude00""#).unwrap(),
            Json::Str("é 😀".into())
        );
        for (bad, why) in [
            (r#""\ud83d""#, "lone high surrogate"),
            (r#""\ud83dx""#, "lone high surrogate"),
            (r#""\ud83d\u0041""#, "bad low surrogate"),
            (r#""\ude00""#, "lone low surrogate"),
        ] {
            let e = Json::parse(bad).unwrap_err();
            assert!(e.message.contains(why), "{bad}: {e}");
        }
    }

    fn nested(depth: usize) -> String {
        "[".repeat(depth) + &"]".repeat(depth)
    }

    #[test]
    fn nesting_is_capped_at_max_depth() {
        let at_cap = Json::parse(&nested(MAX_DEPTH)).unwrap();
        assert_eq!(at_cap.to_string_compact(), nested(MAX_DEPTH));
        let e = Json::parse(&nested(MAX_DEPTH + 1)).unwrap_err();
        assert!(e.message.contains("nesting"), "{e}");
        assert_eq!(e.pos, MAX_DEPTH);
        // Objects count toward the same cap as arrays.
        let mixed = "{\"k\":".repeat(MAX_DEPTH) + "[]" + &"}".repeat(MAX_DEPTH);
        assert!(Json::parse(&mixed).unwrap_err().message.contains("nesting"));
        // Far past the cap is the same error, not a stack overflow.
        let e = Json::parse(&"[".repeat(100_000)).unwrap_err();
        assert!(e.message.contains("nesting"), "{e}");
    }

    #[test]
    fn accessors_navigate_objects() {
        let j = Json::parse(r#"{"a": {"b": [1, "x"]}, "t": true}"#).unwrap();
        let inner = j.get("a").unwrap();
        let b = inner.get("b").and_then(Json::as_arr).unwrap();
        assert_eq!(b.len(), 2);
        assert_eq!(b[0].as_usize(), Some(1));
        assert_eq!(b[1].as_usize(), None);
        assert_eq!(j.get("t").and_then(Json::as_bool), Some(true));
        assert!(j.get("missing").is_none());
        assert!(j.as_num().is_none());
        assert!(j.as_arr().is_none());
        for not_an_index in [-1.0, 0.5, 1e300, f64::NAN] {
            assert_eq!(Json::Num(not_an_index).as_usize(), None, "{not_an_index}");
        }
    }

    #[test]
    #[should_panic(expected = "non-object")]
    fn push_on_array_panics() {
        let mut j = Json::arr([]);
        j.push("k", Json::Null);
    }
}
