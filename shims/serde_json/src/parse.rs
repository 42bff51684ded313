//! The JSON text reader: a recursive-descent byte parser that is itself a
//! [`serde::Deserializer`], so every value is built straight from the
//! input. String bodies without escapes reach the visitor as slices of
//! the input; escaped ones are decoded into one reused scratch buffer.

use crate::Error;
use serde::de::{self, DeserializeSeed, IgnoredAny, KeyDeserializer, Visitor};
use serde::Deserialize;

/// Nesting depth at which parsing stops with an error, as in serde_json:
/// up to 127 nested arrays/objects parse, the 128th is rejected.
const RECURSION_LIMIT: u8 = 128;

/// Parses one JSON document into `T`, rejecting trailing characters.
pub fn from_str<'de, T: Deserialize<'de>>(input: &'de str) -> Result<T, Error> {
    let mut p = Parser {
        src: input,
        pos: 0,
        remaining_depth: RECURSION_LIMIT,
        scratch: String::new(),
    };
    let value = T::deserialize(&mut p)?;
    p.skip_ws();
    if p.pos != p.src.len() {
        return Err(p.err("trailing characters"));
    }
    Ok(value)
}

struct Parser<'de> {
    src: &'de str,
    pos: usize,
    remaining_depth: u8,
    scratch: String,
}

impl<'de> Parser<'de> {
    fn err(&self, msg: &str) -> Error {
        Error(format!("{msg} at offset {}", self.pos))
    }

    fn peek(&self) -> Option<u8> {
        self.src.as_bytes().get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek()?;
        self.pos += 1;
        Some(b)
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    /// Skips whitespace and returns the next byte without consuming it.
    fn peek_value(&mut self) -> Result<u8, Error> {
        self.skip_ws();
        self.peek()
            .ok_or_else(|| self.err("unexpected end of input"))
    }

    fn expect(&mut self, b: u8) -> Result<(), Error> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    fn literal(&mut self, lit: &str) -> Result<(), Error> {
        if self.src.as_bytes()[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(())
        } else {
            Err(self.err(&format!("expected '{lit}'")))
        }
    }

    /// Consumes the opening bracket of a nested value, counting depth.
    fn enter(&mut self) -> Result<(), Error> {
        self.remaining_depth -= 1;
        if self.remaining_depth == 0 {
            return Err(self.err("recursion limit exceeded"));
        }
        self.pos += 1;
        Ok(())
    }

    /// Consumes the closing bracket of a nested value.
    fn leave(&mut self, close: u8) -> Result<(), Error> {
        self.skip_ws();
        self.expect(close)?;
        self.remaining_depth += 1;
        Ok(())
    }

    /// Reads a string (the cursor is on its opening quote). The result
    /// borrows the input when the body has no escapes, else the scratch
    /// buffer.
    fn string(&mut self) -> Result<&str, Error> {
        self.expect(b'"')?;
        let bytes = self.src.as_bytes();
        let start = self.pos;
        match find_quote_or_backslash(&bytes[start..]) {
            None => {
                self.pos = bytes.len();
                return Err(self.err("unterminated string"));
            }
            Some(n) if bytes[start + n] == b'"' => {
                self.pos = start + n + 1;
                return Ok(&self.src[start..start + n]);
            }
            Some(n) => self.pos = start + n,
        }
        self.scratch.clear();
        self.scratch.push_str(&self.src[start..self.pos]);
        loop {
            // The cursor is on a backslash.
            self.pos += 1;
            match self.bump() {
                Some(b'"') => self.scratch.push('"'),
                Some(b'\\') => self.scratch.push('\\'),
                Some(b'/') => self.scratch.push('/'),
                Some(b'n') => self.scratch.push('\n'),
                Some(b't') => self.scratch.push('\t'),
                Some(b'r') => self.scratch.push('\r'),
                Some(b'b') => self.scratch.push('\u{8}'),
                Some(b'f') => self.scratch.push('\u{c}'),
                Some(b'u') => {
                    let c = self.unicode_escape()?;
                    self.scratch.push(c);
                }
                _ => return Err(self.err("invalid escape")),
            }
            let chunk = self.pos;
            match find_quote_or_backslash(&bytes[chunk..]) {
                None => {
                    self.pos = bytes.len();
                    return Err(self.err("unterminated string"));
                }
                Some(n) => {
                    self.scratch.push_str(&self.src[chunk..chunk + n]);
                    self.pos = chunk + n;
                    if bytes[self.pos] == b'"' {
                        self.pos += 1;
                        return Ok(&self.scratch);
                    }
                }
            }
        }
    }

    /// Decodes the four hex digits after `\u`, plus the low half of a
    /// surrogate pair when the first is a high surrogate.
    fn unicode_escape(&mut self) -> Result<char, Error> {
        let code = self.hex4()?;
        let c = if (0xD800..0xDC00).contains(&code) {
            if self.bump() != Some(b'\\') || self.bump() != Some(b'u') {
                return Err(self.err("unpaired surrogate"));
            }
            let low = self.hex4()?;
            if !(0xDC00..0xE000).contains(&low) {
                return Err(self.err("unpaired surrogate"));
            }
            char::from_u32(0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00))
        } else {
            char::from_u32(code)
        };
        c.ok_or_else(|| self.err("invalid unicode escape"))
    }

    fn hex4(&mut self) -> Result<u32, Error> {
        let mut code = 0u32;
        for _ in 0..4 {
            let d = match self.bump() {
                Some(c @ b'0'..=b'9') => (c - b'0') as u32,
                Some(c @ b'a'..=b'f') => (c - b'a' + 10) as u32,
                Some(c @ b'A'..=b'F') => (c - b'A' + 10) as u32,
                _ => return Err(self.err("invalid \\u escape")),
            };
            code = code * 16 + d;
        }
        Ok(code)
    }

    /// Reads a number: `u64` if the text is a non-negative integer that
    /// fits, else `i64` if it fits, else `f64`.
    fn number<V: Visitor<'de>>(&mut self, visitor: V) -> Result<V::Value, Error> {
        let start = self.pos;
        let digits = |p: &mut Self| {
            while matches!(p.peek(), Some(c) if c.is_ascii_digit()) {
                p.pos += 1;
            }
        };
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        digits(self);
        let mut is_float = false;
        if self.peek() == Some(b'.') {
            is_float = true;
            self.pos += 1;
            digits(self);
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            is_float = true;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            digits(self);
        }
        let text = &self.src[start..self.pos];
        if !is_float {
            if let Ok(u) = text.parse::<u64>() {
                return visitor.visit_u64(u);
            }
            if let Ok(i) = text.parse::<i64>() {
                return visitor.visit_i64(i);
            }
        }
        match text.parse::<f64>() {
            Ok(f) => visitor.visit_f64(f),
            Err(_) => Err(self.err("invalid number")),
        }
    }

    fn kind_at(&self) -> &'static str {
        match self.peek() {
            Some(b'n') => "null",
            Some(b't' | b'f') => "bool",
            Some(b'[') => "array",
            Some(b'"') => "string",
            Some(b'{') => "object",
            _ => "number",
        }
    }
}

/// Position of the first `"` or `\\` in `bytes`.
fn find_quote_or_backslash(bytes: &[u8]) -> Option<usize> {
    bytes.iter().position(|&b| b == b'"' || b == b'\\')
}

impl<'de> de::Deserializer<'de> for &mut Parser<'de> {
    type Error = Error;

    fn deserialize_any<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, Error> {
        match self.peek_value()? {
            b'n' => {
                self.literal("null")?;
                visitor.visit_unit()
            }
            b't' => {
                self.literal("true")?;
                visitor.visit_bool(true)
            }
            b'f' => {
                self.literal("false")?;
                visitor.visit_bool(false)
            }
            b'"' => visitor.visit_str(self.string()?),
            b'[' => {
                self.enter()?;
                let value = visitor.visit_seq(Elements {
                    p: &mut *self,
                    first: true,
                })?;
                self.leave(b']')?;
                Ok(value)
            }
            b'{' => {
                self.enter()?;
                let value = visitor.visit_map(Entries {
                    p: &mut *self,
                    first: true,
                })?;
                self.leave(b'}')?;
                Ok(value)
            }
            c if c == b'-' || c.is_ascii_digit() => self.number(visitor),
            c => Err(self.err(&format!("unexpected character '{}'", c as char))),
        }
    }

    fn deserialize_option<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, Error> {
        if self.peek_value()? == b'n' {
            self.literal("null")?;
            visitor.visit_none()
        } else {
            visitor.visit_some(self)
        }
    }

    fn deserialize_enum<V: Visitor<'de>>(
        self,
        name: &'static str,
        _variants: &'static [&'static str],
        visitor: V,
    ) -> Result<V::Value, Error> {
        match self.peek_value()? {
            b'"' => visitor.visit_enum(KeyDeserializer::<Error>::new(self.string()?)),
            b'{' => {
                self.enter()?;
                if self.peek_value()? == b'}' {
                    return Err(self.err(&format!("empty object for enum {name}")));
                }
                let value = visitor.visit_enum(Variant { p: &mut *self })?;
                self.skip_ws();
                if self.peek() != Some(b'}') {
                    return Err(self.err(&format!("expected a single-key object for enum {name}")));
                }
                self.leave(b'}')?;
                Ok(value)
            }
            _ => Err(self.err(&format!(
                "expected string or object for enum {name}, found {}",
                self.kind_at()
            ))),
        }
    }
}

/// Array elements, comma-separated; the closing `]` is left for
/// [`Parser::leave`].
struct Elements<'a, 'de> {
    p: &'a mut Parser<'de>,
    first: bool,
}

impl<'de> de::SeqAccess<'de> for Elements<'_, 'de> {
    type Error = Error;

    fn next_element<T: Deserialize<'de>>(&mut self) -> Result<Option<T>, Error> {
        match self.p.peek_value() {
            Ok(b']') => return Ok(None),
            Ok(b',') if !self.first => self.p.pos += 1,
            Ok(_) if self.first => {}
            _ => return Err(self.p.err("expected ',' or ']'")),
        }
        self.first = false;
        T::deserialize(&mut *self.p).map(Some)
    }
}

/// Object entries, comma-separated; the closing `}` is left for
/// [`Parser::leave`].
struct Entries<'a, 'de> {
    p: &'a mut Parser<'de>,
    first: bool,
}

impl<'de> de::MapAccess<'de> for Entries<'_, 'de> {
    type Error = Error;

    fn next_key_seed<K: DeserializeSeed<'de>>(
        &mut self,
        seed: K,
    ) -> Result<Option<K::Value>, Error> {
        match self.p.peek_value() {
            Ok(b'}') => return Ok(None),
            Ok(b',') if !self.first => {
                self.p.pos += 1;
                self.p.skip_ws();
            }
            Ok(_) if self.first => {}
            _ => return Err(self.p.err("expected ',' or '}'")),
        }
        self.first = false;
        let key = seed.deserialize(KeyDeserializer::new(self.p.string()?))?;
        self.p.skip_ws();
        self.p.expect(b':')?;
        Ok(Some(key))
    }

    fn next_value<V: Deserialize<'de>>(&mut self) -> Result<V, Error> {
        V::deserialize(&mut *self.p)
    }
}

/// The `{"Variant": payload}` form: the tag, then the payload.
struct Variant<'a, 'de> {
    p: &'a mut Parser<'de>,
}

impl<'a, 'de> de::EnumAccess<'de> for Variant<'a, 'de> {
    type Error = Error;
    type Variant = Self;

    fn variant_seed<V: DeserializeSeed<'de>>(self, seed: V) -> Result<(V::Value, Self), Error> {
        let tag = seed.deserialize(KeyDeserializer::new(self.p.string()?))?;
        self.p.skip_ws();
        self.p.expect(b':')?;
        Ok((tag, self))
    }
}

impl<'de> de::VariantAccess<'de> for Variant<'_, 'de> {
    type Error = Error;

    fn unit_variant(self) -> Result<(), Error> {
        IgnoredAny::deserialize(self.p).map(|_| ())
    }

    fn newtype_variant<T: Deserialize<'de>>(self) -> Result<T, Error> {
        T::deserialize(self.p)
    }

    fn tuple_variant<V: Visitor<'de>>(self, _len: usize, visitor: V) -> Result<V::Value, Error> {
        de::Deserializer::deserialize_seq(self.p, visitor)
    }

    fn struct_variant<V: Visitor<'de>>(
        self,
        _fields: &'static [&'static str],
        visitor: V,
    ) -> Result<V::Value, Error> {
        de::Deserializer::deserialize_map(self.p, visitor)
    }
}
