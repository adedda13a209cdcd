//! A small JSON writer and reader: the one format of the workspace's
//! reports, from the run-record JSONL files to the bench rows and the
//! checker's progress lines.
//!
//! The writer emits compact JSON: no whitespace, object fields in the
//! order the caller writes them, strings escaped the way `serde_json`
//! escapes them (`\"`, `\\`, `\b`, `\f`, `\n`, `\r`, `\t`, and `\u00XX`
//! for the other control characters; everything else verbatim). Types
//! opt in with [`ToJson`]; objects are written field by field with
//! [`ObjectWriter`]. The exported [`object!`](crate::object) and
//! [`unit_enum!`](crate::unit_enum) macros implement both directions for
//! plain structs and fieldless enums. Integers are written in full;
//! measured times and rates go through [`Fixed`], a number with a fixed
//! count of decimals.
//!
//! The reader is a recursive-descent parser ([`parse`]) into a [`Value`]
//! tree. It accepts exactly RFC 8259 JSON (whitespace between tokens
//! included), caps nesting at [`MAX_DEPTH`] so hostile input cannot
//! exhaust the stack, and reports every problem as an [`Error`] instead of
//! panicking. Types decode from a [`Value`] with [`FromJson`]; object
//! fields are fetched by name with [`Fields::get`], which ignores unknown
//! fields and rejects missing and duplicated ones.

use std::fmt::{self, Write as _};

/// Deepest array/object nesting [`parse`] accepts.
pub const MAX_DEPTH: usize = 128;

/// Why a text could not be read as the expected JSON.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Error {
    /// The text is not JSON.
    Syntax {
        /// Byte offset of the problem.
        offset: usize,
        /// What is wrong there.
        reason: &'static str,
    },
    /// The text is JSON, but not of the expected shape.
    Schema(String),
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Syntax { offset, reason } => write!(f, "{reason} at byte {offset}"),
            Error::Schema(message) => f.write_str(message),
        }
    }
}

impl std::error::Error for Error {}

/// A parsed JSON value.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` or `false`.
    Bool(bool),
    /// A number, kept as its (grammar-checked) text so that no precision
    /// is lost before the consumer picks a type.
    Number(String),
    /// A string, unescaped.
    String(String),
    /// An array.
    Array(Vec<Value>),
    /// An object's fields in input order.
    Object(Vec<(String, Value)>),
}

impl Value {
    fn expected<T>(&self, what: &str) -> Result<T, Error> {
        Err(Error::Schema(format!("expected {what}")))
    }

    /// The fields of an object.
    ///
    /// # Errors
    ///
    /// [`Error::Schema`] when the value is not an object.
    pub fn fields(&self) -> Result<Fields<'_>, Error> {
        match self {
            Value::Object(fields) => Ok(Fields(fields)),
            other => other.expected("an object"),
        }
    }

    /// The text of a string value.
    ///
    /// # Errors
    ///
    /// [`Error::Schema`] when the value is not a string.
    pub fn as_str(&self) -> Result<&str, Error> {
        match self {
            Value::String(s) => Ok(s),
            other => other.expected("a string"),
        }
    }
}

/// The fields of a JSON object, looked up by name.
#[derive(Clone, Copy, Debug)]
pub struct Fields<'a>(&'a [(String, Value)]);

impl Fields<'_> {
    /// Decodes the field `name`. Fields not asked for are ignored.
    ///
    /// # Errors
    ///
    /// [`Error::Schema`] when the field is missing, appears twice, or does
    /// not decode as `T`.
    pub fn get<T: FromJson>(&self, name: &str) -> Result<T, Error> {
        let mut matches = self.0.iter().filter(|(key, _)| key == name);
        match (matches.next(), matches.next()) {
            (Some((_, value)), None) => {
                T::from_json(value).map_err(|e| Error::Schema(format!("field `{name}`: {e}")))
            }
            (None, _) => Err(Error::Schema(format!("missing field `{name}`"))),
            (Some(_), Some(_)) => Err(Error::Schema(format!("duplicate field `{name}`"))),
        }
    }
}

/// A type that writes itself as compact JSON.
pub trait ToJson {
    /// Appends the JSON text of `self` to `out`.
    fn write_json(&self, out: &mut String);
}

/// A type that decodes itself from a parsed [`Value`].
pub trait FromJson: Sized {
    /// Decodes `value`.
    ///
    /// # Errors
    ///
    /// [`Error::Schema`] when `value` does not have the expected shape.
    fn from_json(value: &Value) -> Result<Self, Error>;
}

/// The compact JSON text of `value`.
pub fn to_string<T: ToJson + ?Sized>(value: &T) -> String {
    let mut out = String::new();
    value.write_json(&mut out);
    out
}

/// Parses `text` and decodes it as a `T`.
///
/// # Errors
///
/// [`Error::Syntax`] when `text` is not JSON, [`Error::Schema`] when it is
/// not a `T`.
pub fn from_str<T: FromJson>(text: &str) -> Result<T, Error> {
    T::from_json(&parse(text)?)
}

/// Writes one JSON object field by field:
/// `ObjectWriter::new(out).field("a", &1u64).finish()` appends `{"a":1}`.
#[derive(Debug)]
pub struct ObjectWriter<'a> {
    out: &'a mut String,
    empty: bool,
}

impl<'a> ObjectWriter<'a> {
    /// Opens an object at the end of `out`.
    pub fn new(out: &'a mut String) -> Self {
        out.push('{');
        ObjectWriter { out, empty: true }
    }

    /// Appends the field `name` with `value`.
    pub fn field<T: ToJson + ?Sized>(mut self, name: &str, value: &T) -> Self {
        self.key(name);
        value.write_json(self.out);
        self
    }

    /// Appends the field `name` with the nested object `fields` writes.
    pub fn object(
        mut self,
        name: &str,
        fields: impl FnOnce(ObjectWriter<'_>) -> ObjectWriter<'_>,
    ) -> Self {
        self.key(name);
        fields(ObjectWriter::new(self.out)).finish();
        self
    }

    fn key(&mut self, name: &str) {
        if !self.empty {
            self.out.push(',');
        }
        self.empty = false;
        name.write_json(self.out);
        self.out.push(':');
    }

    /// Closes the object.
    pub fn finish(self) {
        self.out.push('}');
    }
}

/// Implements [`ToJson`] and [`FromJson`] for a struct with public fields:
/// an object with the listed fields in the listed order. List every field
/// in declaration order, as `serde`'s derive writes them; a missing one
/// fails to compile.
#[macro_export]
macro_rules! object {
    ($ty:ty { $($field:ident),* $(,)? }) => {
        impl $crate::json::ToJson for $ty {
            fn write_json(&self, out: &mut String) {
                $crate::json::ObjectWriter::new(out)
                    $(.field(stringify!($field), &self.$field))*
                    .finish();
            }
        }

        impl $crate::json::FromJson for $ty {
            fn from_json(value: &$crate::json::Value) -> Result<Self, $crate::json::Error> {
                let fields = value.fields()?;
                Ok(Self { $($field: fields.get(stringify!($field))?),* })
            }
        }
    };
}

/// Implements [`ToJson`] and [`FromJson`] for a fieldless enum: each
/// variant is the string of its name.
#[macro_export]
macro_rules! unit_enum {
    ($ty:ident { $($variant:ident),* $(,)? }) => {
        impl $crate::json::ToJson for $ty {
            fn write_json(&self, out: &mut String) {
                let name = match self { $($ty::$variant => stringify!($variant)),* };
                $crate::json::ToJson::write_json(name, out);
            }
        }

        impl $crate::json::FromJson for $ty {
            fn from_json(value: &$crate::json::Value) -> Result<Self, $crate::json::Error> {
                match value.as_str()? {
                    $(stringify!($variant) => Ok($ty::$variant),)*
                    other => Err($crate::json::Error::Schema(format!("unknown variant `{other}`"))),
                }
            }
        }
    };
}

macro_rules! unsigned {
    ($($t:ty),*) => {$(
        impl ToJson for $t {
            fn write_json(&self, out: &mut String) {
                let _ = write!(out, "{self}");
            }
        }

        impl FromJson for $t {
            fn from_json(value: &Value) -> Result<Self, Error> {
                match value {
                    Value::Number(text) => text.parse().map_err(|_| {
                        Error::Schema(format!(
                            "expected an integer in 0..={}, found {text}",
                            <$t>::MAX
                        ))
                    }),
                    other => other.expected("an integer"),
                }
            }
        }
    )*};
}

unsigned!(u32, u64, usize);

/// A number written with `DECIMALS` digits after the point, rounded the
/// way `format!("{:.N}")` rounds: `Fixed::<3>(0.25)` writes `0.250` and
/// `Fixed::<0>(2.5)` writes `2`. A value that is not finite writes `null`,
/// which does not decode back.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct Fixed<const DECIMALS: usize>(pub f64);

impl<const DECIMALS: usize> ToJson for Fixed<DECIMALS> {
    fn write_json(&self, out: &mut String) {
        if self.0.is_finite() {
            let _ = write!(out, "{:.*}", DECIMALS, self.0);
        } else {
            out.push_str("null");
        }
    }
}

impl<const DECIMALS: usize> FromJson for Fixed<DECIMALS> {
    fn from_json(value: &Value) -> Result<Self, Error> {
        match value {
            Value::Number(text) => text
                .parse()
                .map(Fixed)
                .map_err(|_| Error::Schema(format!("expected a number, found {text}"))),
            other => other.expected("a number"),
        }
    }
}

impl ToJson for bool {
    fn write_json(&self, out: &mut String) {
        out.push_str(if *self { "true" } else { "false" });
    }
}

impl FromJson for bool {
    fn from_json(value: &Value) -> Result<Self, Error> {
        match value {
            Value::Bool(b) => Ok(*b),
            other => other.expected("a boolean"),
        }
    }
}

impl ToJson for str {
    fn write_json(&self, out: &mut String) {
        out.push('"');
        for c in self.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\u{8}' => out.push_str("\\b"),
                '\u{c}' => out.push_str("\\f"),
                '\n' => out.push_str("\\n"),
                '\r' => out.push_str("\\r"),
                '\t' => out.push_str("\\t"),
                c if c < ' ' => {
                    let _ = write!(out, "\\u{:04x}", c as u32);
                }
                c => out.push(c),
            }
        }
        out.push('"');
    }
}

impl ToJson for String {
    fn write_json(&self, out: &mut String) {
        self.as_str().write_json(out);
    }
}

impl FromJson for String {
    fn from_json(value: &Value) -> Result<Self, Error> {
        value.as_str().map(str::to_owned)
    }
}

impl<T: ToJson> ToJson for Option<T> {
    fn write_json(&self, out: &mut String) {
        match self {
            Some(value) => value.write_json(out),
            None => out.push_str("null"),
        }
    }
}

impl<T: FromJson> FromJson for Option<T> {
    fn from_json(value: &Value) -> Result<Self, Error> {
        match value {
            Value::Null => Ok(None),
            other => T::from_json(other).map(Some),
        }
    }
}

impl<T: ToJson> ToJson for [T] {
    fn write_json(&self, out: &mut String) {
        out.push('[');
        for (i, item) in self.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            item.write_json(out);
        }
        out.push(']');
    }
}

impl<T: ToJson> ToJson for Vec<T> {
    fn write_json(&self, out: &mut String) {
        self.as_slice().write_json(out);
    }
}

impl<T: FromJson> FromJson for Vec<T> {
    fn from_json(value: &Value) -> Result<Self, Error> {
        match value {
            Value::Array(items) => items.iter().map(T::from_json).collect(),
            other => other.expected("an array"),
        }
    }
}

impl ToJson for Value {
    fn write_json(&self, out: &mut String) {
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => b.write_json(out),
            Value::Number(text) => out.push_str(text),
            Value::String(s) => s.write_json(out),
            Value::Array(items) => items.write_json(out),
            Value::Object(fields) => {
                let mut object = ObjectWriter::new(out);
                for (name, value) in fields {
                    object = object.field(name, value);
                }
                object.finish();
            }
        }
    }
}

/// Parses one JSON text (surrounding whitespace allowed).
///
/// # Errors
///
/// [`Error::Syntax`] with the offset of the first byte that is not valid
/// JSON, of a truncation, of trailing characters, or of nesting deeper
/// than [`MAX_DEPTH`].
pub fn parse(text: &str) -> Result<Value, Error> {
    let mut parser = Parser {
        text,
        bytes: text.as_bytes(),
        pos: 0,
        depth: 0,
    };
    let value = parser.value()?;
    parser.skip_whitespace();
    if parser.pos < parser.bytes.len() {
        return Err(parser.error("trailing characters"));
    }
    Ok(value)
}

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

impl Parser<'_> {
    fn error(&self, reason: &'static str) -> Error {
        Error::Syntax {
            offset: self.pos,
            reason,
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_whitespace(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    /// Skips whitespace, then consumes `byte` if it comes next.
    fn eat(&mut self, byte: u8) -> bool {
        self.skip_whitespace();
        let hit = self.peek() == Some(byte);
        self.pos += usize::from(hit);
        hit
    }

    fn value(&mut self) -> Result<Value, Error> {
        self.skip_whitespace();
        match self.peek() {
            Some(b'{' | b'[') if self.depth == MAX_DEPTH => Err(self.error("nesting too deep")),
            Some(open @ (b'{' | b'[')) => {
                self.pos += 1;
                self.depth += 1;
                let value = if open == b'{' {
                    self.object()
                } else {
                    self.array()
                };
                self.depth -= 1;
                value
            }
            Some(b'"') => self.string().map(Value::String),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(_) => Err(self.error("expected a value")),
            None => Err(self.error("unexpected end of input")),
        }
    }

    fn object(&mut self) -> Result<Value, Error> {
        let mut fields = Vec::new();
        if self.eat(b'}') {
            return Ok(Value::Object(fields));
        }
        loop {
            self.skip_whitespace();
            if self.peek() != Some(b'"') {
                return Err(self.error("expected a string key"));
            }
            let key = self.string()?;
            if !self.eat(b':') {
                return Err(self.error("expected ':'"));
            }
            fields.push((key, self.value()?));
            if self.eat(b'}') {
                return Ok(Value::Object(fields));
            }
            if !self.eat(b',') {
                return Err(self.error("expected ',' or '}'"));
            }
        }
    }

    fn array(&mut self) -> Result<Value, Error> {
        let mut items = Vec::new();
        if self.eat(b']') {
            return Ok(Value::Array(items));
        }
        loop {
            items.push(self.value()?);
            if self.eat(b']') {
                return Ok(Value::Array(items));
            }
            if !self.eat(b',') {
                return Err(self.error("expected ',' or ']'"));
            }
        }
    }

    fn literal(&mut self, word: &'static str, value: Value) -> Result<Value, Error> {
        if !self.bytes[self.pos..].starts_with(word.as_bytes()) {
            return Err(self.error("invalid literal"));
        }
        self.pos += word.len();
        Ok(value)
    }

    fn digits(&mut self) -> usize {
        let start = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        self.pos - start
    }

    /// `-? (0 | [1-9][0-9]*) (. [0-9]+)? ([eE] [+-]? [0-9]+)?`
    fn number(&mut self) -> Result<Value, Error> {
        let start = self.pos;
        self.pos += usize::from(self.peek() == Some(b'-'));
        let int = self.pos;
        let mut valid = match self.digits() {
            0 => false,
            1 => true,
            _ => self.bytes[int] != b'0',
        };
        if valid && self.peek() == Some(b'.') {
            self.pos += 1;
            valid = self.digits() > 0;
        }
        if valid && matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            self.pos += usize::from(matches!(self.peek(), Some(b'+' | b'-')));
            valid = self.digits() > 0;
        }
        if !valid {
            return Err(self.error("invalid number"));
        }
        Ok(Value::Number(self.text[start..self.pos].to_owned()))
    }

    fn string(&mut self) -> Result<String, Error> {
        self.pos += 1; // opening quote
        let mut out = String::new();
        let mut run = self.pos;
        loop {
            match self.peek() {
                None => return Err(self.error("unterminated string")),
                Some(b'"') => {
                    out.push_str(&self.text[run..self.pos]);
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    out.push_str(&self.text[run..self.pos]);
                    self.pos += 1;
                    out.push(self.escape()?);
                    run = self.pos;
                }
                Some(0..=0x1f) => return Err(self.error("control character in string")),
                Some(_) => self.pos += 1,
            }
        }
    }

    /// Decodes the escape after a backslash.
    fn escape(&mut self) -> Result<char, Error> {
        let c = match self.peek() {
            Some(b'"') => '"',
            Some(b'\\') => '\\',
            Some(b'/') => '/',
            Some(b'b') => '\u{8}',
            Some(b'f') => '\u{c}',
            Some(b'n') => '\n',
            Some(b'r') => '\r',
            Some(b't') => '\t',
            Some(b'u') => {
                self.pos += 1;
                let mut code = self.hex4()?;
                if (0xd800..0xdc00).contains(&code) && self.bytes[self.pos..].starts_with(b"\\u") {
                    self.pos += 2;
                    let low = self.hex4()?;
                    if !(0xdc00..0xe000).contains(&low) {
                        return Err(self.error("unpaired surrogate"));
                    }
                    code = 0x10000 + ((code - 0xd800) << 10) + (low - 0xdc00);
                }
                // A lone surrogate is not a `char`.
                return char::from_u32(code).ok_or_else(|| self.error("unpaired surrogate"));
            }
            _ => return Err(self.error("invalid escape")),
        };
        self.pos += 1;
        Ok(c)
    }

    fn hex4(&mut self) -> Result<u32, Error> {
        let unit = (self.text.get(self.pos..self.pos + 4))
            .filter(|hex| hex.bytes().all(|b| b.is_ascii_hexdigit()))
            .and_then(|hex| u32::from_str_radix(hex, 16).ok())
            .ok_or_else(|| self.error("invalid \\u escape"))?;
        self.pos += 4;
        Ok(unit)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strings_escape_like_serde_json() {
        let s = "q\"b\\n\nr\rt\tb\u{8}f\u{c}c\u{1}d\u{7f}é/";
        let escaped = r#""q\"b\\n\nr\rt\tb\bf\fc\u0001d"#.to_owned() + "\u{7f}é/\"";
        assert_eq!(to_string(s), escaped);
        assert_eq!(from_str::<String>(&to_string(s)).unwrap(), s);
    }

    #[test]
    fn parser_reads_every_json_form() {
        let text =
            r#" {"a": [1, -2.5e+3, 0, true, false, null, []], "b": {"c": "é😀\/\ud83d\ude00"}} "#;
        assert_eq!(
            to_string(&parse(text).unwrap()),
            r#"{"a":[1,-2.5e+3,0,true,false,null,[]],"b":{"c":"é😀/😀"}}"#
        );
    }

    #[test]
    fn parser_rejects_malformed_text_with_an_offset() {
        for (text, offset) in [
            ("", 0),
            ("{", 1),
            (r#"{"a":1,}"#, 7),
            (r#"{"a" 1}"#, 5),
            ("[1 2]", 3),
            ("{} {}", 3),
            ("01", 2),
            ("1.", 2),
            ("-", 1),
            ("1e", 2),
            ("tru", 0),
            ("\"abc", 4),
            ("\"a\nb\"", 2),
            (r#""\x""#, 2),
            (r#""\ud800""#, 7),
            (r#""\ud800\u0041""#, 13),
            (r#""\udc00""#, 7),
        ] {
            match parse(text) {
                Err(Error::Syntax { offset: at, .. }) => assert_eq!(at, offset, "{text:?}"),
                other => panic!("{text:?} parsed as {other:?}"),
            }
        }
    }

    #[test]
    fn nesting_is_capped() {
        let ok = "[".repeat(MAX_DEPTH) + &"]".repeat(MAX_DEPTH);
        assert!(parse(&ok).is_ok());
        let deep = "[".repeat(100_000);
        assert!(matches!(
            parse(&deep),
            Err(Error::Syntax { offset, reason: "nesting too deep" }) if offset == MAX_DEPTH
        ));
    }

    #[test]
    fn typed_decoding_checks_shape_and_range() {
        assert_eq!(from_str::<u64>("18446744073709551615"), Ok(u64::MAX));
        for bad in ["18446744073709551616", "-1", "1.0", "1e2", "\"1\""] {
            assert!(
                matches!(from_str::<u64>(bad), Err(Error::Schema(_))),
                "{bad}"
            );
        }
        assert_eq!(from_str::<Option<u32>>("null"), Ok(None));
        assert_eq!(from_str::<Vec<bool>>("[true,false]"), Ok(vec![true, false]));
        let value = parse(r#"{"a":1,"a":2,"b":3}"#).unwrap();
        let fields = value.fields().unwrap();
        assert_eq!(fields.get::<u64>("b"), Ok(3));
        assert_eq!(
            fields.get::<u64>("a"),
            Err(Error::Schema("duplicate field `a`".into()))
        );
        assert_eq!(
            fields.get::<u64>("c"),
            Err(Error::Schema("missing field `c`".into()))
        );
    }

    #[test]
    fn fixed_numbers_keep_their_decimal_count() {
        for (text, expected) in [
            (to_string(&Fixed::<3>(1.0)), "1.000"),
            (to_string(&Fixed::<3>(0.0004)), "0.000"),
            (to_string(&Fixed::<3>(12.3456)), "12.346"),
            (to_string(&Fixed::<0>(582_118.6)), "582119"),
            (to_string(&Fixed::<2>(9.4455)), "9.45"),
            (to_string(&Fixed::<2>(f64::INFINITY)), "null"),
            (to_string(&Fixed::<0>(f64::NAN)), "null"),
        ] {
            assert_eq!(text, expected);
        }
        assert_eq!(from_str::<Fixed<3>>("0.250"), Ok(Fixed(0.25)));
        assert_eq!(from_str::<Fixed<0>>("-2.5e+3"), Ok(Fixed(-2500.0)));
        for bad in ["null", "\"1.0\"", "true"] {
            assert!(
                matches!(from_str::<Fixed<3>>(bad), Err(Error::Schema(_))),
                "{bad}"
            );
        }
    }
}
