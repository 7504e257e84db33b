//! Offline JSON front-end for the `serde` shim: prints any
//! [`Serialize`] type with the usual `to_string` / `to_string_pretty` entry
//! points, and parses JSON text into a [`serde::Value`] tree with `from_str`.

#![forbid(unsafe_code)]

use serde::{Deserialize, Serialize, Value};

/// JSON serialization/deserialization error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Error {
    message: String,
}

impl Error {
    fn new(message: impl Into<String>) -> Self {
        Error {
            message: message.into(),
        }
    }
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.message)
    }
}

impl std::error::Error for Error {}

/// Serializes `value` as compact JSON.
pub fn to_string<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    write_value(&mut out, &value.to_value(), None, 0);
    Ok(out)
}

/// Serializes `value` as two-space-indented JSON.
pub fn to_string_pretty<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    write_value(&mut out, &value.to_value(), Some(2), 0);
    Ok(out)
}

/// Parses JSON text into a [`Value`] tree, the one `Deserialize` type.
pub fn from_str<T: Deserialize>(text: &str) -> Result<T, Error> {
    Ok(T::from_value(parse_value(text)?))
}

fn write_value(out: &mut String, value: &Value, indent: Option<usize>, depth: usize) {
    match value {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::U64(v) => out.push_str(&v.to_string()),
        Value::I64(v) => out.push_str(&v.to_string()),
        Value::F64(v) => {
            if v.is_finite() {
                // `{:?}` is Rust's shortest round-trip float formatting; it is
                // valid JSON for all finite values.
                out.push_str(&format!("{v:?}"));
            } else {
                out.push_str("null");
            }
        }
        Value::Str(s) => write_string(out, s),
        Value::Seq(items) => write_sequence(out, items, indent, depth),
        Value::Map(entries) => {
            write_map_entries(out, entries, indent, depth);
        }
    }
}

fn write_sequence(out: &mut String, items: &[Value], indent: Option<usize>, depth: usize) {
    if items.is_empty() {
        out.push_str("[]");
        return;
    }
    out.push('[');
    for (index, item) in items.iter().enumerate() {
        if index > 0 {
            out.push(',');
        }
        newline_indent(out, indent, depth + 1);
        write_value(out, item, indent, depth + 1);
    }
    newline_indent(out, indent, depth);
    out.push(']');
}

fn write_map_entries(
    out: &mut String,
    entries: &[(String, Value)],
    indent: Option<usize>,
    depth: usize,
) {
    if entries.is_empty() {
        out.push_str("{}");
        return;
    }
    out.push('{');
    for (index, (key, item)) in entries.iter().enumerate() {
        if index > 0 {
            out.push(',');
        }
        newline_indent(out, indent, depth + 1);
        write_string(out, key);
        out.push(':');
        if indent.is_some() {
            out.push(' ');
        }
        write_value(out, item, indent, depth + 1);
    }
    newline_indent(out, indent, depth);
    out.push('}');
}

fn newline_indent(out: &mut String, indent: Option<usize>, depth: usize) {
    if let Some(width) = indent {
        out.push('\n');
        for _ in 0..width * depth {
            out.push(' ');
        }
    }
}

fn write_string(out: &mut String, s: &str) {
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

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

fn parse_value(text: &str) -> Result<Value, Error> {
    let mut parser = Parser {
        bytes: text.as_bytes(),
        pos: 0,
    };
    let value = parser.value()?;
    parser.skip_whitespace();
    if parser.pos != parser.bytes.len() {
        return Err(Error::new(format!(
            "trailing characters at byte {}",
            parser.pos
        )));
    }
    Ok(value)
}

impl<'a> Parser<'a> {
    fn skip_whitespace(&mut self) {
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

    fn expect(&mut self, b: u8) -> Result<(), Error> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(Error::new(format!(
                "expected '{}' at byte {}",
                b as char, self.pos
            )))
        }
    }

    fn consume_literal(&mut self, literal: &str) -> bool {
        if self.bytes[self.pos..].starts_with(literal.as_bytes()) {
            self.pos += literal.len();
            true
        } else {
            false
        }
    }

    fn value(&mut self) -> Result<Value, Error> {
        self.skip_whitespace();
        match self.peek() {
            Some(b'n') => {
                if self.consume_literal("null") {
                    Ok(Value::Null)
                } else {
                    Err(Error::new("invalid literal"))
                }
            }
            Some(b't') => {
                if self.consume_literal("true") {
                    Ok(Value::Bool(true))
                } else {
                    Err(Error::new("invalid literal"))
                }
            }
            Some(b'f') => {
                if self.consume_literal("false") {
                    Ok(Value::Bool(false))
                } else {
                    Err(Error::new("invalid literal"))
                }
            }
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(b) if b == b'-' || b.is_ascii_digit() => self.number(),
            other => Err(Error::new(format!(
                "unexpected input {:?} at byte {}",
                other.map(|b| b as char),
                self.pos
            ))),
        }
    }

    fn array(&mut self) -> Result<Value, Error> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_whitespace();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Seq(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_whitespace();
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                }
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Seq(items));
                }
                _ => {
                    return Err(Error::new(format!(
                        "expected ',' or ']' at byte {}",
                        self.pos
                    )))
                }
            }
        }
    }

    fn object(&mut self) -> Result<Value, Error> {
        self.expect(b'{')?;
        let mut entries = Vec::new();
        self.skip_whitespace();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Map(entries));
        }
        loop {
            self.skip_whitespace();
            let key = self.string()?;
            self.skip_whitespace();
            self.expect(b':')?;
            let value = self.value()?;
            entries.push((key, value));
            self.skip_whitespace();
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                }
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Map(entries));
                }
                _ => {
                    return Err(Error::new(format!(
                        "expected ',' or '}}' at byte {}",
                        self.pos
                    )))
                }
            }
        }
    }

    fn string(&mut self) -> Result<String, Error> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            // Fast path: copy a run of plain bytes at once.
            while let Some(&b) = self.bytes.get(self.pos) {
                if b == b'"' || b == b'\\' {
                    break;
                }
                self.pos += 1;
            }
            out.push_str(
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| Error::new("invalid UTF-8 in string"))?,
            );
            match self.peek() {
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
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{0008}'),
                        Some(b'f') => out.push('\u{000c}'),
                        Some(b'u') => {
                            let code = self.unicode_escape()?;
                            out.push(code);
                            continue;
                        }
                        other => {
                            return Err(Error::new(format!("bad escape {other:?}")));
                        }
                    }
                    self.pos += 1;
                }
                _ => return Err(Error::new("unterminated string")),
            }
        }
    }

    fn unicode_escape(&mut self) -> Result<char, Error> {
        // self.pos is at the 'u'.
        let hex4 = |parser: &mut Self| -> Result<u32, Error> {
            parser.pos += 1; // consume 'u'
            let digits = parser
                .bytes
                .get(parser.pos..parser.pos + 4)
                .ok_or_else(|| Error::new("truncated \\u escape"))?;
            let s = std::str::from_utf8(digits).map_err(|_| Error::new("bad \\u escape"))?;
            let v = u32::from_str_radix(s, 16).map_err(|_| Error::new("bad \\u escape"))?;
            parser.pos += 4;
            Ok(v)
        };
        let high = hex4(self)?;
        if (0xD800..0xDC00).contains(&high) {
            // Surrogate pair: expect \uXXXX low surrogate.
            if self.peek() == Some(b'\\') {
                self.pos += 1;
                if self.peek() == Some(b'u') {
                    let low = hex4(self)?;
                    let code = 0x10000 + ((high - 0xD800) << 10) + (low - 0xDC00);
                    return char::from_u32(code).ok_or_else(|| Error::new("bad surrogate pair"));
                }
            }
            return Err(Error::new("lone high surrogate"));
        }
        char::from_u32(high).ok_or_else(|| Error::new("bad \\u escape"))
    }

    fn number(&mut self) -> Result<Value, Error> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut is_float = false;
        while let Some(&b) = self.bytes.get(self.pos) {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    is_float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| Error::new("bad number"))?;
        if !is_float {
            if text.starts_with('-') {
                if let Ok(v) = text.parse::<i64>() {
                    return Ok(Value::I64(v));
                }
            } else if let Ok(v) = text.parse::<u64>() {
                return Ok(Value::U64(v));
            }
        }
        text.parse::<f64>()
            .map(Value::F64)
            .map_err(|_| Error::new(format!("bad number {text:?}")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug)]
    struct Row {
        name: String,
        hits: u64,
        kind: Kind,
    }

    #[derive(Debug)]
    enum Kind {
        Hot,
        Cold,
    }

    serde::serialize_struct! { Row { name, hits, kind } }
    serde::serialize_unit_enum! { Kind { Hot, Cold } }

    fn compact(value: Value) -> String {
        to_string(&value).unwrap()
    }

    #[test]
    fn strings_escape_quotes_backslashes_and_control_characters() {
        let s = Value::Str("a\"b\\c\nd\re\tf\u{1}\u{1f}é".into());
        assert_eq!(compact(s), r#""a\"b\\c\nd\re\tf\u0001\u001fé""#);
    }

    #[test]
    fn non_finite_floats_print_as_null() {
        let floats = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY].map(Value::F64);
        assert_eq!(compact(Value::Seq(floats.to_vec())), "[null,null,null]");
    }

    #[test]
    fn integers_and_floats_keep_their_kind() {
        assert_eq!(compact(Value::U64(10)), "10");
        assert_eq!(compact(Value::I64(-10)), "-10");
        assert_eq!(compact(Value::F64(10.0)), "10.0");
        assert_eq!(compact(Value::F64(1e-7)), "1e-7");
    }

    #[test]
    fn empty_containers_print_without_whitespace() {
        let empty = Value::Seq(vec![Value::Seq(Vec::new()), Value::Map(Vec::new())]);
        assert_eq!(compact(empty.clone()), "[[],{}]");
        assert_eq!(to_string_pretty(&empty).unwrap(), "[\n  [],\n  {}\n]");
    }

    #[test]
    fn pretty_output_indents_two_spaces_per_level() {
        let value = Value::Map(vec![
            ("a".into(), Value::Seq(vec![Value::Bool(true), Value::Null])),
            ("b".into(), Value::Map(vec![("c".into(), Value::U64(1))])),
        ]);
        let expected = "{\n  \"a\": [\n    true,\n    null\n  ],\n  \"b\": {\n    \"c\": 1\n  }\n}";
        assert_eq!(to_string_pretty(&value).unwrap(), expected);
        assert_eq!(compact(value), r#"{"a":[true,null],"b":{"c":1}}"#);
    }

    #[test]
    fn macros_print_fields_in_order_and_variants_by_name() {
        let rows = vec![
            Row {
                name: "x".into(),
                hits: 3,
                kind: Kind::Hot,
            },
            Row {
                name: "y".into(),
                hits: 0,
                kind: Kind::Cold,
            },
        ];
        assert_eq!(
            to_string(&rows).unwrap(),
            r#"[{"name":"x","hits":3,"kind":"Hot"},{"name":"y","hits":0,"kind":"Cold"}]"#
        );
    }

    #[test]
    fn printed_text_parses_back_to_the_same_value() {
        let value = Value::Map(vec![
            ("s".into(), Value::Str("q\"\u{2}".into())),
            (
                "n".into(),
                Value::Seq(vec![Value::U64(7), Value::I64(-7), Value::F64(0.5)]),
            ),
        ]);
        let parsed: Value = from_str(&to_string_pretty(&value).unwrap()).unwrap();
        assert_eq!(parsed, value);
    }
}
