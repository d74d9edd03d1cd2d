//! The workspace's one JSON reader and string escaper.
//!
//! The workspace builds with no crates.io access, so JSON is hand-rolled
//! the same way `aep-rng` replaced `rand`: a small recursive-descent
//! parser into a [`Value`] tree, plus [`escape`] for the writers. It
//! reads the daemon's wire protocol, stats snapshots and the committed
//! BENCH floor files. Numbers keep their raw text so callers can demand
//! an exact `u64` (seeds, counters) or a bit-exact `f64` instead of
//! round-tripping through one numeric type.
//!
//! Every input yields a [`Value`] or a typed [`JsonError`], never a
//! panic: nesting is capped at [`MAX_DEPTH`] levels so a hostile line
//! of `[[[[…` cannot overflow the reading thread's stack.

use std::collections::BTreeMap;
use std::fmt::{self, Write as _};

/// Deepest nesting of arrays and objects [`parse`] accepts. No document
/// the workspace writes nests deeper than 4.
pub const MAX_DEPTH: usize = 64;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number, kept as its raw token text.
    Number(String),
    /// A string (escapes resolved).
    String(String),
    /// An array.
    Array(Vec<Value>),
    /// An object. A sorted map keeps lookups simple and rendering
    /// deterministic; a repeated key keeps its last value.
    Object(BTreeMap<String, Value>),
}

impl Value {
    /// The string payload, if this is a string.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }

    /// The value parsed as an exact `u64`, if this is an unsigned
    /// integer token in range.
    #[must_use]
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Number(raw) => raw.parse().ok(),
            _ => None,
        }
    }

    /// The value parsed as an `f64`, if this is a number token.
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Number(raw) => raw.parse().ok(),
            _ => None,
        }
    }

    /// The object map, if this is an object.
    #[must_use]
    pub fn as_object(&self) -> Option<&BTreeMap<String, Value>> {
        match self {
            Value::Object(map) => Some(map),
            _ => None,
        }
    }

    /// The member `key`, if this is an object that has it.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.as_object()?.get(key)
    }
}

/// What went wrong in a [`JsonError`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JsonErrorKind {
    /// The input ended inside a value.
    UnexpectedEnd,
    /// A byte that cannot start a value.
    UnexpectedByte(u8),
    /// A byte other than the punctuation the grammar requires here.
    Expected {
        /// What the grammar allows at this point.
        expected: &'static str,
        /// The offending byte.
        found: u8,
    },
    /// A word starting with `t`, `f` or `n` that is not a literal.
    BadLiteral,
    /// A `\` followed by a byte that names no escape.
    BadEscape(u8),
    /// A `\u` escape with a non-hex digit.
    BadHexEscape,
    /// A `\u` escape naming no character (a lone surrogate).
    BadCodepoint,
    /// Non-whitespace after the end of the document.
    TrailingData,
    /// Arrays and objects nested deeper than [`MAX_DEPTH`].
    TooDeep,
}

/// A syntax error: what went wrong and the byte offset where it did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JsonError {
    /// What went wrong.
    pub kind: JsonErrorKind,
    /// Byte offset into the input.
    pub offset: usize,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let at = self.offset;
        // The daemon sends this text in its `malformed` replies, so the
        // wording is part of the wire protocol: keep it stable.
        match self.kind {
            JsonErrorKind::UnexpectedEnd => write!(f, "unexpected end of input"),
            JsonErrorKind::UnexpectedByte(b) => {
                write!(f, "unexpected byte {:?} at {at}", b as char)
            }
            JsonErrorKind::Expected { expected, found } => write!(
                f,
                "expected {expected} at byte {at}, found {:?}",
                found as char
            ),
            JsonErrorKind::BadLiteral => write!(f, "bad literal at byte {at}"),
            JsonErrorKind::BadEscape(b) => write!(f, "bad escape \\{} at {at}", b as char),
            JsonErrorKind::BadHexEscape => write!(f, "bad \\u escape at {at}"),
            JsonErrorKind::BadCodepoint => write!(f, "bad \\u codepoint at {at}"),
            JsonErrorKind::TrailingData => write!(f, "trailing data at byte {at}"),
            JsonErrorKind::TooDeep => {
                write!(f, "nesting deeper than {MAX_DEPTH} levels at byte {at}")
            }
        }
    }
}

impl From<JsonError> for String {
    fn from(e: JsonError) -> String {
        e.to_string()
    }
}

/// Parses one complete JSON document (trailing whitespace allowed,
/// trailing garbage rejected).
///
/// # Errors
///
/// Returns the first syntax error, or [`JsonErrorKind::TooDeep`] when
/// arrays and objects nest deeper than [`MAX_DEPTH`].
pub fn parse(text: &str) -> Result<Value, JsonError> {
    let mut p = Parser {
        text,
        pos: 0,
        depth: 0,
    };
    let value = p.value()?;
    p.skip_ws();
    if p.pos != text.len() {
        return Err(p.error(JsonErrorKind::TrailingData));
    }
    Ok(value)
}

/// Renders `s` as a JSON string literal (quotes included).
#[must_use]
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

struct Parser<'a> {
    text: &'a str,
    pos: usize,
    depth: usize,
}

impl<'a> Parser<'a> {
    fn error(&self, kind: JsonErrorKind) -> JsonError {
        JsonError {
            kind,
            offset: self.pos,
        }
    }

    fn value(&mut self) -> Result<Value, JsonError> {
        self.skip_ws();
        match self.peek()? {
            open @ (b'{' | b'[') => {
                if self.depth == MAX_DEPTH {
                    return Err(self.error(JsonErrorKind::TooDeep));
                }
                self.depth += 1;
                let value = if open == b'{' {
                    self.object()
                } else {
                    self.array()
                };
                self.depth -= 1;
                value
            }
            b'"' => Ok(Value::String(self.string()?)),
            b'-' | b'0'..=b'9' => Ok(Value::Number(
                self.take_while(|b| b.is_ascii_digit() || b"-+.eE".contains(&b))
                    .to_string(),
            )),
            b't' => self.literal("true", Value::Bool(true)),
            b'f' => self.literal("false", Value::Bool(false)),
            b'n' => self.literal("null", Value::Null),
            found => Err(self.error(JsonErrorKind::UnexpectedByte(found))),
        }
    }

    fn literal(&mut self, word: &str, value: Value) -> Result<Value, JsonError> {
        if self.text[self.pos..].starts_with(word) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.error(JsonErrorKind::BadLiteral))
        }
    }

    fn object(&mut self) -> Result<Value, JsonError> {
        let mut fields = BTreeMap::new();
        self.members(b'}', "',' or '}'", |p| {
            p.skip_ws();
            let key = p.string()?;
            p.skip_ws();
            match p.next()? {
                b':' => {}
                found => return Err(p.expected("':'", found)),
            }
            fields.insert(key, p.value()?);
            Ok(())
        })?;
        Ok(Value::Object(fields))
    }

    fn array(&mut self) -> Result<Value, JsonError> {
        let mut items = Vec::new();
        self.members(b']', "',' or ']'", |p| {
            items.push(p.value()?);
            Ok(())
        })?;
        Ok(Value::Array(items))
    }

    /// Steps over the opening bracket, then reads comma-separated
    /// members with `member` up to and including `close`.
    fn members(
        &mut self,
        close: u8,
        expected: &'static str,
        mut member: impl FnMut(&mut Self) -> Result<(), JsonError>,
    ) -> Result<(), JsonError> {
        self.pos += 1;
        self.skip_ws();
        if self.peek()? == close {
            self.pos += 1;
            return Ok(());
        }
        loop {
            member(self)?;
            self.skip_ws();
            match self.next()? {
                b',' => {}
                b if b == close => return Ok(()),
                found => return Err(self.expected(expected, found)),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        match self.next()? {
            b'"' => {}
            found => return Err(self.expected("'\"'", found)),
        }
        let mut out = String::new();
        loop {
            out.push_str(self.take_while(|b| b != b'"' && b != b'\\'));
            if self.next()? == b'"' {
                return Ok(out);
            }
            out.push(match self.next()? {
                b'"' => '"',
                b'\\' => '\\',
                b'/' => '/',
                b'n' => '\n',
                b't' => '\t',
                b'r' => '\r',
                b'b' => '\u{8}',
                b'f' => '\u{c}',
                b'u' => {
                    let mut code = 0;
                    for _ in 0..4 {
                        let digit = (self.next()? as char).to_digit(16);
                        code = code * 16 + digit.ok_or(self.error(JsonErrorKind::BadHexEscape))?;
                    }
                    char::from_u32(code).ok_or(self.error(JsonErrorKind::BadCodepoint))?
                }
                other => return Err(self.error(JsonErrorKind::BadEscape(other))),
            });
        }
    }

    /// Consumes the run of ASCII bytes satisfying `keep`. Every caller
    /// stops at an ASCII byte or the end, so the run is whole chars.
    fn take_while(&mut self, keep: impl Fn(u8) -> bool) -> &'a str {
        let start = self.pos;
        let rest = &self.text.as_bytes()[start..];
        self.pos += rest.iter().position(|&b| !keep(b)).unwrap_or(rest.len());
        &self.text[start..self.pos]
    }

    fn skip_ws(&mut self) {
        self.take_while(|b| matches!(b, b' ' | b'\t' | b'\n' | b'\r'));
    }

    fn peek(&self) -> Result<u8, JsonError> {
        self.text
            .as_bytes()
            .get(self.pos)
            .copied()
            .ok_or_else(|| self.error(JsonErrorKind::UnexpectedEnd))
    }

    fn next(&mut self) -> Result<u8, JsonError> {
        let b = self.peek()?;
        self.pos += 1;
        Ok(b)
    }

    /// The error for a byte [`Self::next`] consumed where the grammar
    /// wanted `expected`, reported at that byte's offset.
    fn expected(&self, expected: &'static str, found: u8) -> JsonError {
        JsonError {
            kind: JsonErrorKind::Expected { expected, found },
            offset: self.pos - 1,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aep_rng::SmallRng;

    #[test]
    fn parses_protocol_shapes() {
        let v =
            parse(r#"{"type":"submit","bench":"gzip","seed":2006,"scrub":null,"deep":[1,true]}"#)
                .expect("parses");
        let obj = v.as_object().expect("object");
        assert_eq!(obj["type"].as_str(), Some("submit"));
        assert_eq!(obj["seed"].as_u64(), Some(2006));
        assert_eq!(obj["scrub"], Value::Null);
        assert_eq!(
            obj["deep"],
            Value::Array(vec![Value::Number("1".into()), Value::Bool(true)])
        );
    }

    #[test]
    fn rejects_garbage() {
        let err = |text: &str| {
            let e = parse(text).unwrap_err();
            (e.kind, e.offset, e.to_string())
        };
        use JsonErrorKind::*;
        assert_eq!(
            err(""),
            (UnexpectedEnd, 0, "unexpected end of input".into())
        );
        assert_eq!(err("{").0, UnexpectedEnd);
        assert_eq!(
            err("{\"a\":}"),
            (UnexpectedByte(b'}'), 5, "unexpected byte '}' at 5".into())
        );
        assert_eq!(
            err("{\"a\" 1}"),
            (
                Expected {
                    expected: "':'",
                    found: b'1'
                },
                5,
                "expected ':' at byte 5, found '1'".into()
            )
        );
        assert_eq!(
            err("[1 2]").0,
            Expected {
                expected: "',' or ']'",
                found: b'2'
            }
        );
        assert_eq!(err("{} trailing").0, TrailingData);
        assert_eq!(err("nope").0, BadLiteral);
        assert_eq!(
            err(r#""\x""#),
            (BadEscape(b'x'), 3, "bad escape \\x at 3".into())
        );
        assert_eq!(err(r#""\u12g4""#).0, BadHexEscape);
        assert_eq!(err(r#""\ud800""#).0, BadCodepoint);
    }

    #[test]
    fn nesting_is_capped_at_max_depth() {
        let nested = |depth: usize| format!("{}{}", "[".repeat(depth), "]".repeat(depth));
        assert!(parse(&nested(MAX_DEPTH)).is_ok(), "depth 64 parses");
        let e = parse(&nested(MAX_DEPTH + 1)).unwrap_err();
        assert_eq!(e.kind, JsonErrorKind::TooDeep);
        assert_eq!(e.offset, MAX_DEPTH);
        let objects = format!(
            "{}1{}",
            "{\"a\":".repeat(MAX_DEPTH + 1),
            "}".repeat(MAX_DEPTH + 1)
        );
        assert_eq!(parse(&objects).unwrap_err().kind, JsonErrorKind::TooDeep);
        // A line far deeper than any stack could recurse is still an error.
        assert_eq!(
            parse(&"[".repeat(65_000)).unwrap_err().kind,
            JsonErrorKind::TooDeep
        );
    }

    #[test]
    fn repeated_keys_keep_the_last_value() {
        let v = parse(r#"{"k":1,"k":2}"#).unwrap();
        assert_eq!(v.get("k").and_then(Value::as_u64), Some(2));
    }

    #[test]
    fn u64_is_exact() {
        let v = parse(&format!("{{\"n\":{}}}", u64::MAX)).unwrap();
        assert_eq!(v.get("n").and_then(Value::as_u64), Some(u64::MAX));
        // Floats and negatives are not u64s.
        assert_eq!(parse("1.5").unwrap().as_u64(), None);
        assert_eq!(parse("-3").unwrap().as_u64(), None);
        assert_eq!(parse("-3.25e1").unwrap().as_f64(), Some(-32.5));
    }

    #[test]
    fn escape_roundtrips_through_parse() {
        let nasty = "line\nquote\"slash\\tab\tctrl\u{1}unicode\u{203d}";
        assert_eq!(parse(&escape(nasty)).unwrap().as_str(), Some(nasty));
    }

    #[test]
    fn escape_then_parse_is_identity_on_random_strings() {
        // Control characters, the escaped ASCII set, and 2-, 3- and
        // 4-byte UTF-8 all in the alphabet.
        let alphabet: Vec<char> = (0u32..0x20)
            .filter_map(char::from_u32)
            .chain("\"\\/ azAZ09{}[]:,".chars())
            .chain([
                '\u{7f}',
                'é',
                'ß',
                '‽',
                '中',
                '\u{fffd}',
                '😀',
                '\u{10ffff}',
            ])
            .collect();
        let mut rng = SmallRng::seed_from_u64(0x4a53_4f4e);
        for _ in 0..2_000 {
            let len = rng.gen_range(0..40usize);
            let s: String = (0..len)
                .map(|_| alphabet[rng.gen_range(0..alphabet.len())])
                .collect();
            let literal = escape(&s);
            assert_eq!(parse(&literal), Ok(Value::String(s.clone())), "{literal}");
        }
    }
}
