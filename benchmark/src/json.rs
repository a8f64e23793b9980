//! A small JSON value, writer and parser (no serde offline). Objects keep
//! insertion order so result files diff cleanly between runs.

use std::fmt::{self, Write as _};

#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    pub fn obj<K: Into<String>>(fields: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Obj(fields.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    pub fn nums(values: &[f64]) -> Json {
        Json::Arr(values.iter().map(|v| Json::Num(*v)).collect())
    }

    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn fields(&self) -> &[(String, Json)] {
        match self {
            Json::Obj(fields) => fields,
            _ => &[],
        }
    }

    pub fn items(&self) -> &[Json] {
        match self {
            Json::Arr(items) => items,
            _ => &[],
        }
    }

    /// `self[key]` as a number, 0 when absent: counters a child did not
    /// report read as "nothing happened".
    pub fn num(&self, key: &str) -> f64 {
        self.get(key).and_then(Json::as_f64).unwrap_or(0.0)
    }

    /// `self[key]` as a list of numbers, empty when absent.
    pub fn num_list(&self, key: &str) -> Vec<f64> {
        self.get(key)
            .map(|v| v.items().iter().filter_map(Json::as_f64).collect())
            .unwrap_or_default()
    }

    /// Multi-line rendering for result files: one top-level field per line
    /// group, nested values indented by two spaces.
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        self.write_pretty(&mut out, 0);
        out.push('\n');
        out
    }

    fn write_pretty(&self, out: &mut String, depth: usize) {
        let pad = |out: &mut String, depth: usize| out.push_str(&"  ".repeat(depth));
        match self {
            // Leaf-only containers stay on one line: a metric summary or a
            // sample list reads better unbroken.
            Json::Obj(fields) if !fields.is_empty() && fields.iter().any(|(_, v)| v.nests()) => {
                out.push_str("{\n");
                for (i, (key, value)) in fields.iter().enumerate() {
                    pad(out, depth + 1);
                    write_str(out, key);
                    out.push_str(": ");
                    value.write_pretty(out, depth + 1);
                    out.push_str(if i + 1 < fields.len() { ",\n" } else { "\n" });
                }
                pad(out, depth);
                out.push('}');
            }
            Json::Arr(items) if items.iter().any(Json::nests) => {
                out.push_str("[\n");
                for (i, item) in items.iter().enumerate() {
                    pad(out, depth + 1);
                    item.write_pretty(out, depth + 1);
                    out.push_str(if i + 1 < items.len() { ",\n" } else { "\n" });
                }
                pad(out, depth);
                out.push(']');
            }
            _ => {
                let _ = write!(out, "{self}");
            }
        }
    }

    fn nests(&self) -> bool {
        matches!(self, Json::Obj(_) | Json::Arr(_))
    }
}

impl From<u64> for Json {
    fn from(n: u64) -> Json {
        Json::Num(n as f64)
    }
}

impl From<usize> for Json {
    fn from(n: usize) -> Json {
        Json::Num(n as f64)
    }
}

impl From<bool> for Json {
    fn from(b: bool) -> Json {
        Json::Bool(b)
    }
}

fn write_str(out: &mut impl fmt::Write, s: &str) {
    let _ = out.write_char('"');
    for c in s.chars() {
        let _ = match c {
            '"' => out.write_str("\\\""),
            '\\' => out.write_str("\\\\"),
            '\n' => out.write_str("\\n"),
            '\r' => out.write_str("\\r"),
            '\t' => out.write_str("\\t"),
            c if (c as u32) < 0x20 => write!(out, "\\u{:04x}", c as u32),
            c => out.write_char(c),
        };
    }
    let _ = out.write_char('"');
}

/// Compact single-line rendering. Non-finite numbers have no JSON spelling
/// and are written as `null`.
impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Json::Null => f.write_str("null"),
            Json::Bool(b) => write!(f, "{b}"),
            Json::Num(n) if !n.is_finite() => f.write_str("null"),
            // Rust prints the shortest decimal that round-trips, never an
            // exponent, and whole numbers without a fraction.
            Json::Num(n) => write!(f, "{n}"),
            Json::Str(s) => {
                write_str(f, s);
                Ok(())
            }
            Json::Arr(items) => {
                f.write_str("[")?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_str(", ")?;
                    }
                    write!(f, "{item}")?;
                }
                f.write_str("]")
            }
            Json::Obj(fields) => {
                f.write_str("{")?;
                for (i, (key, value)) in fields.iter().enumerate() {
                    if i > 0 {
                        f.write_str(", ")?;
                    }
                    write_str(f, key);
                    write!(f, ": {value}")?;
                }
                f.write_str("}")
            }
        }
    }
}

/// Parses one JSON document.
///
/// # Errors
/// Describes the first syntax error with its byte offset.
pub fn parse(text: &str) -> Result<Json, String> {
    let mut parser = Parser { bytes: text.as_bytes(), pos: 0 };
    let value = parser.value(0)?;
    parser.skip_ws();
    if parser.pos != parser.bytes.len() {
        return Err(parser.error("trailing characters"));
    }
    Ok(value)
}

/// Result files nest four deep; anything far beyond that is not ours.
const MAX_DEPTH: usize = 32;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn error(&self, what: &str) -> String {
        format!("{what} at byte {}", self.pos)
    }

    fn skip_ws(&mut self) {
        while self.bytes.get(self.pos).is_some_and(u8::is_ascii_whitespace) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, byte: u8) -> bool {
        self.skip_ws();
        if self.bytes.get(self.pos) == Some(&byte) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.error("unknown literal"))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, String> {
        if depth > MAX_DEPTH {
            return Err(self.error("nesting too deep"));
        }
        self.skip_ws();
        match self.bytes.get(self.pos) {
            None => Err(self.error("unexpected end")),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => {
                self.pos += 1;
                let mut items = Vec::new();
                if self.eat(b']') {
                    return Ok(Json::Arr(items));
                }
                loop {
                    items.push(self.value(depth + 1)?);
                    if self.eat(b']') {
                        return Ok(Json::Arr(items));
                    }
                    if !self.eat(b',') {
                        return Err(self.error("expected ',' or ']'"));
                    }
                }
            }
            Some(b'{') => {
                self.pos += 1;
                let mut fields = Vec::new();
                if self.eat(b'}') {
                    return Ok(Json::Obj(fields));
                }
                loop {
                    self.skip_ws();
                    let key = self.string()?;
                    if !self.eat(b':') {
                        return Err(self.error("expected ':'"));
                    }
                    fields.push((key, self.value(depth + 1)?));
                    if self.eat(b'}') {
                        return Ok(Json::Obj(fields));
                    }
                    if !self.eat(b',') {
                        return Err(self.error("expected ',' or '}'"));
                    }
                }
            }
            Some(_) => {
                let start = self.pos;
                while self.bytes.get(self.pos).is_some_and(|b| {
                    b.is_ascii_digit() || matches!(b, b'-' | b'+' | b'.' | b'e' | b'E')
                }) {
                    self.pos += 1;
                }
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .ok()
                    .and_then(|s| s.parse::<f64>().ok())
                    .map(Json::Num)
                    .ok_or_else(|| self.error("bad number"))
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        if self.bytes.get(self.pos) != Some(&b'"') {
            return Err(self.error("expected string"));
        }
        self.pos += 1;
        let mut out = Vec::new();
        loop {
            let byte =
                *self.bytes.get(self.pos).ok_or_else(|| self.error("unterminated string"))?;
            self.pos += 1;
            match byte {
                b'"' => return String::from_utf8(out).map_err(|_| self.error("bad utf-8")),
                b'\\' => {
                    let esc = *self.bytes.get(self.pos).ok_or_else(|| self.error("bad escape"))?;
                    self.pos += 1;
                    match esc {
                        b'n' => out.push(b'\n'),
                        b'r' => out.push(b'\r'),
                        b't' => out.push(b'\t'),
                        b'b' => out.push(8),
                        b'f' => out.push(12),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or_else(|| self.error("bad \\u escape"))?;
                            self.pos += 4;
                            // Surrogate pairs never occur in our own files;
                            // a lone surrogate becomes the replacement char.
                            let c = char::from_u32(hex).unwrap_or('\u{fffd}');
                            out.extend_from_slice(c.encode_utf8(&mut [0; 4]).as_bytes());
                        }
                        other => out.push(other),
                    }
                }
                other => out.push(other),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writer_escapes_and_keeps_field_order() {
        let value = Json::obj([
            ("z", Json::str("a\"b\\c\nd\u{1}")),
            ("a", Json::Num(1.5)),
            ("whole", Json::from(42u64)),
            ("list", Json::nums(&[0.25, 3.0])),
            ("nan", Json::Num(f64::NAN)),
            ("flag", Json::from(true)),
            ("none", Json::Null),
        ]);
        assert_eq!(
            value.to_string(),
            r#"{"z": "a\"b\\c\nd\u0001", "a": 1.5, "whole": 42, "list": [0.25, 3], "nan": null, "flag": true, "none": null}"#
        );
    }

    #[test]
    fn numbers_keep_every_measured_digit_and_never_use_exponents() {
        assert_eq!(Json::Num(0.000_001_234_567_891).to_string(), "0.000001234567891");
        assert_eq!(Json::Num(1.203_456_789_012_3).to_string(), "1.2034567890123");
        assert_eq!(Json::Num(-0.5).to_string(), "-0.5");
    }

    #[test]
    fn parse_round_trips_compact_and_pretty_output() {
        let value = Json::obj([
            ("name", Json::str("tab\there")),
            ("nested", Json::obj([("k", Json::Arr(vec![Json::Null, Json::from(false)]))])),
            ("n", Json::Num(-12.75)),
            ("empty", Json::Arr(vec![])),
        ]);
        assert_eq!(parse(&value.to_string()).unwrap(), value);
        assert_eq!(parse(&value.pretty()).unwrap(), value);
        assert_eq!(parse("  [1e3, 2.5E-1]  ").unwrap(), Json::nums(&[1000.0, 0.25]));
    }

    #[test]
    fn parse_rejects_malformed_documents() {
        for bad in ["", "{", "[1,]", "{\"a\" 1}", "tru", "\"open", "1 2", "{\"a\":1,}"] {
            assert!(parse(bad).is_err(), "{bad:?} parsed");
        }
        assert!(parse(&"[".repeat(100)).is_err());
    }

    #[test]
    fn accessors_default_to_nothing() {
        let value = parse(r#"{"a": 2, "s": "x", "l": [1, 2], "b": true}"#).unwrap();
        assert_eq!(value.num("a"), 2.0);
        assert_eq!(value.num("missing"), 0.0);
        assert_eq!(value.num_list("l"), vec![1.0, 2.0]);
        assert!(value.num_list("missing").is_empty());
        assert_eq!(value.get("s").and_then(Json::as_str), Some("x"));
        assert_eq!(value.get("b"), Some(&Json::Bool(true)));
        assert_eq!(value.fields().len(), 4);
    }
}
