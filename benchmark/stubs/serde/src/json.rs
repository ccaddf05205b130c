//! The JSON data model of the stand-in: a text writer, a value tree, a
//! parser, and the lookup helpers the derive macros call.

use crate::{Deserialize, Serialize};
use std::fmt::{self, Write as _};

/// A serialization or deserialization failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Error {
    message: String,
}

impl Error {
    /// An error carrying `message`.
    pub fn new(message: impl Into<String>) -> Self {
        Error {
            message: message.into(),
        }
    }

    /// "expected X, found <kind of value>".
    pub fn expected(what: &str, found: &Value) -> Self {
        Error::new(format!("expected {what}, found {}", found.kind()))
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for Error {}

/// A JSON number, kept exact for integers.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Number {
    /// A non-negative integer.
    U(u64),
    /// A negative integer.
    I(i64),
    /// Anything with a fraction or exponent.
    F(f64),
}

impl Number {
    /// The number as a float (integers beyond 2^53 round).
    pub fn as_f64(&self) -> f64 {
        match *self {
            Number::U(u) => u as f64,
            Number::I(i) => i as f64,
            Number::F(f) => f,
        }
    }
}

/// Object fields in document order.
pub type Map = Vec<(String, Value)>;

/// A parsed JSON document.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// A number.
    Number(Number),
    /// A string.
    String(String),
    /// An array.
    Array(Vec<Value>),
    /// An object, fields in document order.
    Object(Map),
}

impl Value {
    fn kind(&self) -> &'static str {
        match self {
            Value::Null => "null",
            Value::Bool(_) => "a boolean",
            Value::Number(_) => "a number",
            Value::String(_) => "a string",
            Value::Array(_) => "an array",
            Value::Object(_) => "an object",
        }
    }

    /// Field `key` of an object (`None` for other values or no such key).
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The number as a float, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Number(n) => Some(n.as_f64()),
            _ => None,
        }
    }

    /// The number as an unsigned integer, if it is one.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Number(Number::U(u)) => Some(*u),
            _ => None,
        }
    }

    /// The string, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }

    /// The boolean, if this is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(items) => Some(items),
            _ => None,
        }
    }

    /// The fields, if this is an object.
    pub fn as_object(&self) -> Option<&Map> {
        match self {
            Value::Object(fields) => Some(fields),
            _ => None,
        }
    }

    /// The fields of an object, or an error naming the type being read.
    pub fn as_fields(&self, ty: &str) -> Result<&[(String, Value)], Error> {
        match self {
            Value::Object(fields) => Ok(fields),
            other => Err(Error::expected(&format!("an object for {ty}"), other)),
        }
    }

    /// The elements of an array of exactly `len` items.
    pub fn as_tuple(&self, len: usize) -> Result<&[Value], Error> {
        match self {
            Value::Array(items) if items.len() == len => Ok(items),
            other => Err(Error::expected(&format!("an array of {len}"), other)),
        }
    }

    /// An externally tagged enum value: `"Variant"` or `{"Variant": body}`.
    pub fn as_variant(&self, ty: &str) -> Result<(&str, Option<&Value>), Error> {
        match self {
            Value::String(s) => Ok((s, None)),
            Value::Object(fields) if fields.len() == 1 => Ok((&fields[0].0, Some(&fields[0].1))),
            other => Err(Error::expected(&format!("a variant of {ty}"), other)),
        }
    }

    /// Indented text.
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        self.write_pretty(&mut out, 0);
        out
    }

    fn write_pretty(&self, out: &mut String, depth: usize) {
        let pad = |out: &mut String, depth: usize| {
            out.push('\n');
            out.extend(std::iter::repeat("  ").take(depth));
        };
        match self {
            Value::Array(items) if !items.is_empty() => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    pad(out, depth + 1);
                    item.write_pretty(out, depth + 1);
                }
                pad(out, depth);
                out.push(']');
            }
            Value::Object(fields) if !fields.is_empty() => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    pad(out, depth + 1);
                    let mut w = JsonWriter::new();
                    w.string(k);
                    out.push_str(&w.into_string());
                    out.push_str(": ");
                    v.write_pretty(out, depth + 1);
                }
                pad(out, depth);
                out.push('}');
            }
            scalar => {
                let mut w = JsonWriter::new();
                scalar.serialize(&mut w);
                out.push_str(&w.into_string());
            }
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut w = JsonWriter::new();
        self.serialize(&mut w);
        f.write_str(&w.into_string())
    }
}

/// Read field `name` of a struct being deserialized; a missing field is
/// `None` for `Option` types and an error otherwise.
pub fn field<T: Deserialize>(fields: &[(String, Value)], name: &str) -> Result<T, Error> {
    match fields.iter().find(|(k, _)| k == name) {
        Some((_, v)) => T::deserialize(v).map_err(|e| Error::new(format!("{name}: {e}"))),
        None => T::missing().ok_or_else(|| Error::new(format!("missing field `{name}`"))),
    }
}

/// Read field `name`, or `T::default()` when it is absent
/// (`#[serde(default)]`).
pub fn field_or_default<T: Deserialize + Default>(
    fields: &[(String, Value)],
    name: &str,
) -> Result<T, Error> {
    match fields.iter().find(|(k, _)| k == name) {
        Some((_, v)) => T::deserialize(v).map_err(|e| Error::new(format!("{name}: {e}"))),
        None => Ok(T::default()),
    }
}

/// Read the tag field of an internally tagged enum.
pub fn tag<'a>(fields: &'a [(String, Value)], name: &str) -> Result<&'a str, Error> {
    match fields.iter().find(|(k, _)| k == name) {
        Some((_, Value::String(s))) => Ok(s),
        _ => Err(Error::new(format!("missing tag `{name}`"))),
    }
}

/// A compact JSON text writer that places the commas.
#[derive(Debug, Default)]
pub struct JsonWriter {
    buf: String,
    /// One flag per open array/object: nothing written in it yet.
    first: Vec<bool>,
}

impl JsonWriter {
    /// An empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// The text written so far, as bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf.into_bytes()
    }

    /// The text written so far.
    pub fn into_string(self) -> String {
        self.buf
    }

    fn comma(&mut self) {
        if let Some(first) = self.first.last_mut() {
            if *first {
                *first = false;
            } else {
                self.buf.push(',');
            }
        }
    }

    /// Write literal JSON text (`null`, `true`, a number).
    pub fn raw(&mut self, text: &str) {
        self.buf.push_str(text);
    }

    /// Write a value through its `Display` form (integers).
    pub fn display(&mut self, v: &dyn fmt::Display) {
        let _ = write!(self.buf, "{v}");
    }

    /// Write a value through its `Debug` form (finite floats).
    pub fn debug(&mut self, v: &dyn fmt::Debug) {
        let _ = write!(self.buf, "{v:?}");
    }

    /// Write a quoted, escaped string.
    pub fn string(&mut self, s: &str) {
        self.buf.push('"');
        for c in s.chars() {
            match c {
                '"' => self.buf.push_str("\\\""),
                '\\' => self.buf.push_str("\\\\"),
                '\n' => self.buf.push_str("\\n"),
                '\r' => self.buf.push_str("\\r"),
                '\t' => self.buf.push_str("\\t"),
                c if (c as u32) < 0x20 => {
                    let _ = write!(self.buf, "\\u{:04x}", c as u32);
                }
                c => self.buf.push(c),
            }
        }
        self.buf.push('"');
    }

    /// Open an array.
    pub fn begin_array(&mut self) {
        self.buf.push('[');
        self.first.push(true);
    }

    /// Start the next array element (writes the comma).
    pub fn element(&mut self) {
        self.comma();
    }

    /// Close the innermost array.
    pub fn end_array(&mut self) {
        self.first.pop();
        self.buf.push(']');
    }

    /// Open an object.
    pub fn begin_object(&mut self) {
        self.buf.push('{');
        self.first.push(true);
    }

    /// Write an object key; the value follows.
    pub fn key(&mut self, key: &str) {
        self.comma();
        self.string(key);
        self.buf.push(':');
    }

    /// Write a map key of any serializable type. JSON keys are strings,
    /// so a key that does not serialize to one (an integer, an integer
    /// newtype) is quoted.
    pub fn key_of<K: Serialize + ?Sized>(&mut self, key: &K) {
        self.comma();
        let start = self.buf.len();
        key.serialize(self);
        if !self.buf[start..].starts_with('"') {
            self.buf.insert(start, '"');
            self.buf.push('"');
        }
        self.buf.push(':');
    }

    /// Write `inner`'s fields into the currently open object (the body of
    /// an internally tagged newtype variant). `inner` must serialize to
    /// an object.
    pub fn flatten<T: Serialize + ?Sized>(&mut self, inner: &T) {
        let mut w = JsonWriter::new();
        inner.serialize(&mut w);
        let text = w.into_string();
        let body = text
            .strip_prefix('{')
            .and_then(|t| t.strip_suffix('}'))
            .expect("an internally tagged newtype variant must wrap a struct or tagged enum");
        if !body.is_empty() {
            self.comma();
            self.buf.push_str(body);
        }
    }

    /// Close the innermost object.
    pub fn end_object(&mut self) {
        self.first.pop();
        self.buf.push('}');
    }
}

/// Nesting beyond this is refused rather than recursed into.
const MAX_DEPTH: usize = 128;

/// Parse one JSON document (surrounding whitespace allowed).
pub fn parse(bytes: &[u8]) -> Result<Value, Error> {
    let text = std::str::from_utf8(bytes).map_err(|e| Error::new(format!("invalid UTF-8: {e}")))?;
    let mut p = Parser { text, pos: 0 };
    let value = p.value(0)?;
    p.skip_ws();
    if p.pos != text.len() {
        return Err(p.error("trailing characters"));
    }
    Ok(value)
}

struct Parser<'a> {
    text: &'a str,
    pos: usize,
}

impl Parser<'_> {
    fn error(&self, what: &str) -> Error {
        Error::new(format!("{what} at byte {}", self.pos))
    }

    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, literal: &str) -> bool {
        if self.text[self.pos..].starts_with(literal) {
            self.pos += literal.len();
            true
        } else {
            false
        }
    }

    fn value(&mut self, depth: usize) -> Result<Value, Error> {
        if depth > MAX_DEPTH {
            return Err(self.error("nesting too deep"));
        }
        self.skip_ws();
        match self.peek() {
            Some(b'n') if self.eat("null") => Ok(Value::Null),
            Some(b't') if self.eat("true") => Ok(Value::Bool(true)),
            Some(b'f') if self.eat("false") => Ok(Value::Bool(false)),
            Some(b'"') => self.string().map(Value::String),
            Some(b'[') => {
                self.pos += 1;
                let mut items = Vec::new();
                self.skip_ws();
                if self.eat("]") {
                    return Ok(Value::Array(items));
                }
                loop {
                    items.push(self.value(depth + 1)?);
                    self.skip_ws();
                    if self.eat(",") {
                        continue;
                    }
                    if self.eat("]") {
                        return Ok(Value::Array(items));
                    }
                    return Err(self.error("expected `,` or `]`"));
                }
            }
            Some(b'{') => {
                self.pos += 1;
                let mut fields = Vec::new();
                self.skip_ws();
                if self.eat("}") {
                    return Ok(Value::Object(fields));
                }
                loop {
                    self.skip_ws();
                    if self.peek() != Some(b'"') {
                        return Err(self.error("expected a string key"));
                    }
                    let key = self.string()?;
                    self.skip_ws();
                    if !self.eat(":") {
                        return Err(self.error("expected `:`"));
                    }
                    fields.push((key, self.value(depth + 1)?));
                    self.skip_ws();
                    if self.eat(",") {
                        continue;
                    }
                    if self.eat("}") {
                        return Ok(Value::Object(fields));
                    }
                    return Err(self.error("expected `,` or `}`"));
                }
            }
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.error("expected a value")),
        }
    }

    fn number(&mut self) -> Result<Value, Error> {
        let start = self.pos;
        let mut float = false;
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' | b'-' | b'+' => {}
                b'.' | b'e' | b'E' => float = true,
                _ => break,
            }
            self.pos += 1;
        }
        let token = &self.text[start..self.pos];
        let number = if float {
            None
        } else if token.starts_with('-') {
            token.parse().ok().map(Number::I)
        } else {
            token.parse().ok().map(Number::U)
        };
        // Integers too large for 64 bits fall back to a float, like
        // fractions and exponents.
        match number {
            Some(n) => Ok(Value::Number(n)),
            None => token
                .parse::<f64>()
                .map(|f| Value::Number(Number::F(f)))
                .map_err(|_| self.error("malformed number")),
        }
    }

    fn hex4(&mut self) -> Result<u32, Error> {
        let digits = self
            .text
            .get(self.pos..self.pos + 4)
            .ok_or_else(|| self.error("truncated \\u escape"))?;
        let code = u32::from_str_radix(digits, 16).map_err(|_| self.error("bad \\u escape"))?;
        self.pos += 4;
        Ok(code)
    }

    fn string(&mut self) -> Result<String, Error> {
        self.pos += 1; // opening quote
        let mut out = String::new();
        loop {
            let rest = &self.text[self.pos..];
            let stop = rest
                .find(|c| c == '"' || c == '\\')
                .ok_or_else(|| self.error("unterminated string"))?;
            out.push_str(&rest[..stop]);
            self.pos += stop + 1;
            if rest.as_bytes()[stop] == b'"' {
                return Ok(out);
            }
            let escape = self
                .peek()
                .ok_or_else(|| self.error("unterminated escape"))?;
            self.pos += 1;
            match escape {
                b'"' => out.push('"'),
                b'\\' => out.push('\\'),
                b'/' => out.push('/'),
                b'b' => out.push('\u{8}'),
                b'f' => out.push('\u{c}'),
                b'n' => out.push('\n'),
                b'r' => out.push('\r'),
                b't' => out.push('\t'),
                b'u' => {
                    let mut code = self.hex4()?;
                    if (0xd800..0xdc00).contains(&code) && self.eat("\\u") {
                        let low = self.hex4()?;
                        code = 0x10000 + ((code - 0xd800) << 10) + (low.wrapping_sub(0xdc00) & 0x3ff);
                    }
                    out.push(char::from_u32(code).ok_or_else(|| self.error("bad code point"))?);
                }
                _ => return Err(self.error("unknown escape")),
            }
        }
    }
}
