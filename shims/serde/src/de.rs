//! Deserialization half of the shim: a trimmed subset of serde's visitor
//! model. A [`Deserializer`] drives a [`Visitor`] through one value,
//! handing it scalars directly and nested values through [`SeqAccess`],
//! [`MapAccess`] and [`EnumAccess`], so a format can build the target
//! type in one pass without materialising an intermediate tree.

use crate::content::{Content, Map, Number};
use std::fmt::{self, Display};
use std::marker::PhantomData;

/// Error constraint for deserializer errors (mirrors `serde::de::Error`).
pub trait Error: Sized + std::error::Error {
    /// Builds an error from a message.
    fn custom<T: Display>(msg: T) -> Self;
}

/// A data format that can drive a [`Visitor`] through one value.
///
/// Every format here is self-describing, so only `deserialize_any`,
/// `deserialize_option` and `deserialize_enum` are required; the other
/// methods are hints that default to `deserialize_any`. Map keys use the
/// number and bool hints to read those types out of string keys.
pub trait Deserializer<'de>: Sized {
    /// Error type.
    type Error: Error;

    /// Hands the next value to whichever `visit_*` method fits it.
    fn deserialize_any<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, Self::Error>;

    /// `null` becomes `visit_none`; anything else `visit_some(self)`.
    fn deserialize_option<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, Self::Error>;

    /// An externally tagged enum: `"Variant"` or `{"Variant": payload}`.
    fn deserialize_enum<V: Visitor<'de>>(
        self,
        name: &'static str,
        variants: &'static [&'static str],
        visitor: V,
    ) -> Result<V::Value, Self::Error>;

    /// Hint: a sequence is expected.
    fn deserialize_seq<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, Self::Error> {
        self.deserialize_any(visitor)
    }

    /// Hint: a map is expected.
    fn deserialize_map<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, Self::Error> {
        self.deserialize_any(visitor)
    }

    /// Hint: a struct with these field names is expected.
    fn deserialize_struct<V: Visitor<'de>>(
        self,
        name: &'static str,
        fields: &'static [&'static str],
        visitor: V,
    ) -> Result<V::Value, Self::Error> {
        let _ = (name, fields);
        self.deserialize_map(visitor)
    }

    /// Hint: a bool is expected.
    fn deserialize_bool<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, Self::Error> {
        self.deserialize_any(visitor)
    }

    /// Hint: an unsigned integer is expected.
    fn deserialize_u64<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, Self::Error> {
        self.deserialize_any(visitor)
    }

    /// Hint: a signed integer is expected.
    fn deserialize_i64<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, Self::Error> {
        self.deserialize_any(visitor)
    }
}

/// A value constructible from the shim's data model.
pub trait Deserialize<'de>: Sized {
    /// Deserializes `Self`.
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error>;
}

/// Owned-deserializable marker, as in real serde.
pub trait DeserializeOwned: for<'de> Deserialize<'de> {}
impl<T: for<'de> Deserialize<'de>> DeserializeOwned for T {}

/// Stateful deserialization: a value that knows how to read the next
/// item (the derive uses it to match keys against a field list).
pub trait DeserializeSeed<'de>: Sized {
    /// What the seed produces.
    type Value;
    /// Reads one value.
    fn deserialize<D: Deserializer<'de>>(self, deserializer: D) -> Result<Self::Value, D::Error>;
}

impl<'de, T: Deserialize<'de>> DeserializeSeed<'de> for PhantomData<T> {
    type Value = T;
    fn deserialize<D: Deserializer<'de>>(self, deserializer: D) -> Result<T, D::Error> {
        T::deserialize(deserializer)
    }
}

/// Receives one value from a [`Deserializer`]. Each `visit_*` method
/// defaults to a type error naming what was found and what
/// [`expecting`](Visitor::expecting) says was wanted.
pub trait Visitor<'de>: Sized {
    /// What the visitor produces.
    type Value;

    /// Completes "expected …" in error messages.
    fn expecting(&self, formatter: &mut fmt::Formatter<'_>) -> fmt::Result;

    /// A bool.
    fn visit_bool<E: Error>(self, v: bool) -> Result<Self::Value, E> {
        let _ = v;
        Err(invalid_type(&self, "bool"))
    }

    /// A non-negative integer.
    fn visit_u64<E: Error>(self, v: u64) -> Result<Self::Value, E> {
        let _ = v;
        Err(invalid_type(&self, "number"))
    }

    /// A negative integer.
    fn visit_i64<E: Error>(self, v: i64) -> Result<Self::Value, E> {
        let _ = v;
        Err(invalid_type(&self, "number"))
    }

    /// A float.
    fn visit_f64<E: Error>(self, v: f64) -> Result<Self::Value, E> {
        let _ = v;
        Err(invalid_type(&self, "number"))
    }

    /// A string the visitor may copy but not keep.
    fn visit_str<E: Error>(self, v: &str) -> Result<Self::Value, E> {
        let _ = v;
        Err(invalid_type(&self, "string"))
    }

    /// An owned string the visitor may keep.
    fn visit_string<E: Error>(self, v: String) -> Result<Self::Value, E> {
        self.visit_str(&v)
    }

    /// `null`.
    fn visit_unit<E: Error>(self) -> Result<Self::Value, E> {
        Err(invalid_type(&self, "null"))
    }

    /// `null` where an option was asked for.
    fn visit_none<E: Error>(self) -> Result<Self::Value, E> {
        self.visit_unit()
    }

    /// A present value where an option was asked for.
    fn visit_some<D: Deserializer<'de>>(self, deserializer: D) -> Result<Self::Value, D::Error> {
        let _ = deserializer;
        Err(invalid_type(&self, "value"))
    }

    /// An array.
    fn visit_seq<A: SeqAccess<'de>>(self, seq: A) -> Result<Self::Value, A::Error> {
        let _ = seq;
        Err(invalid_type(&self, "array"))
    }

    /// An object.
    fn visit_map<A: MapAccess<'de>>(self, map: A) -> Result<Self::Value, A::Error> {
        let _ = map;
        Err(invalid_type(&self, "object"))
    }

    /// An enum variant, from `deserialize_enum`.
    fn visit_enum<A: EnumAccess<'de>>(self, data: A) -> Result<Self::Value, A::Error> {
        let _ = data;
        Err(invalid_type(&self, "enum"))
    }
}

/// Element-by-element access to an array.
pub trait SeqAccess<'de> {
    /// Error type.
    type Error: Error;
    /// The next element, or `None` at the end (and on every call after).
    fn next_element<T: Deserialize<'de>>(&mut self) -> Result<Option<T>, Self::Error>;
}

/// Entry-by-entry access to an object: each key is followed by exactly
/// one `next_value`.
pub trait MapAccess<'de> {
    /// Error type.
    type Error: Error;
    /// The next key read through `seed`, or `None` at the end.
    fn next_key_seed<K: DeserializeSeed<'de>>(
        &mut self,
        seed: K,
    ) -> Result<Option<K::Value>, Self::Error>;
    /// The value of the key just read.
    fn next_value<V: Deserialize<'de>>(&mut self) -> Result<V, Self::Error>;
    /// The next key, or `None` at the end.
    fn next_key<K: Deserialize<'de>>(&mut self) -> Result<Option<K>, Self::Error> {
        self.next_key_seed(PhantomData)
    }
}

/// Access to an enum value: first the variant tag, then its payload.
pub trait EnumAccess<'de>: Sized {
    /// Error type.
    type Error: Error;
    /// Payload access.
    type Variant: VariantAccess<'de, Error = Self::Error>;
    /// Reads the tag through `seed`.
    fn variant_seed<V: DeserializeSeed<'de>>(
        self,
        seed: V,
    ) -> Result<(V::Value, Self::Variant), Self::Error>;
}

/// Access to the payload of the variant whose tag was just read.
pub trait VariantAccess<'de>: Sized {
    /// Error type.
    type Error: Error;
    /// No payload (`{"Variant": …}` ignores whatever it holds).
    fn unit_variant(self) -> Result<(), Self::Error>;
    /// One payload value.
    fn newtype_variant<T: Deserialize<'de>>(self) -> Result<T, Self::Error>;
    /// An array payload.
    fn tuple_variant<V: Visitor<'de>>(
        self,
        len: usize,
        visitor: V,
    ) -> Result<V::Value, Self::Error>;
    /// An object payload.
    fn struct_variant<V: Visitor<'de>>(
        self,
        fields: &'static [&'static str],
        visitor: V,
    ) -> Result<V::Value, Self::Error>;
}

struct Expecting<'a, V>(&'a V);

impl<'de, V: Visitor<'de>> Display for Expecting<'_, V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.0.expecting(f)
    }
}

fn invalid_type<'de, V: Visitor<'de>, E: Error>(visitor: &V, found: &str) -> E {
    E::custom(format_args!(
        "expected {}, found {found}",
        Expecting(visitor)
    ))
}

// ------------------------------------------------------ shared helpers --

/// Skips one value of any shape (its syntax is still checked).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct IgnoredAny;

impl<'de> Visitor<'de> for IgnoredAny {
    type Value = IgnoredAny;
    fn expecting(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("any value")
    }
    fn visit_bool<E: Error>(self, _: bool) -> Result<IgnoredAny, E> {
        Ok(IgnoredAny)
    }
    fn visit_u64<E: Error>(self, _: u64) -> Result<IgnoredAny, E> {
        Ok(IgnoredAny)
    }
    fn visit_i64<E: Error>(self, _: i64) -> Result<IgnoredAny, E> {
        Ok(IgnoredAny)
    }
    fn visit_f64<E: Error>(self, _: f64) -> Result<IgnoredAny, E> {
        Ok(IgnoredAny)
    }
    fn visit_str<E: Error>(self, _: &str) -> Result<IgnoredAny, E> {
        Ok(IgnoredAny)
    }
    fn visit_unit<E: Error>(self) -> Result<IgnoredAny, E> {
        Ok(IgnoredAny)
    }
    fn visit_some<D: Deserializer<'de>>(self, d: D) -> Result<IgnoredAny, D::Error> {
        IgnoredAny::deserialize(d)
    }
    fn visit_seq<A: SeqAccess<'de>>(self, mut seq: A) -> Result<IgnoredAny, A::Error> {
        while let Some(IgnoredAny) = seq.next_element()? {}
        Ok(IgnoredAny)
    }
    fn visit_map<A: MapAccess<'de>>(self, mut map: A) -> Result<IgnoredAny, A::Error> {
        while let Some(IgnoredAny) = map.next_key()? {
            map.next_value::<IgnoredAny>()?;
        }
        Ok(IgnoredAny)
    }
}

impl<'de> Deserialize<'de> for IgnoredAny {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        deserializer.deserialize_any(IgnoredAny)
    }
}

/// Matches a struct key against the field list: `Some(position)`, or
/// `None` for a key the struct does not have.
pub struct FieldSeed(pub &'static [&'static str]);

impl<'de> DeserializeSeed<'de> for FieldSeed {
    type Value = Option<usize>;
    fn deserialize<D: Deserializer<'de>>(self, deserializer: D) -> Result<Option<usize>, D::Error> {
        deserializer.deserialize_any(self)
    }
}

impl<'de> Visitor<'de> for FieldSeed {
    type Value = Option<usize>;
    fn expecting(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("field name")
    }
    fn visit_str<E: Error>(self, v: &str) -> Result<Option<usize>, E> {
        Ok(self.0.iter().position(|name| *name == v))
    }
}

/// Matches an enum tag against the variant list; an unknown tag is an
/// error naming the enum.
pub struct VariantSeed {
    /// The enum's name.
    pub name: &'static str,
    /// Its variants, in declaration order.
    pub variants: &'static [&'static str],
}

impl<'de> DeserializeSeed<'de> for VariantSeed {
    type Value = usize;
    fn deserialize<D: Deserializer<'de>>(self, deserializer: D) -> Result<usize, D::Error> {
        deserializer.deserialize_any(self)
    }
}

impl<'de> Visitor<'de> for VariantSeed {
    type Value = usize;
    fn expecting(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "variant name of enum {}", self.name)
    }
    fn visit_str<E: Error>(self, v: &str) -> Result<usize, E> {
        self.variants
            .iter()
            .position(|name| *name == v)
            .ok_or_else(|| E::custom(format_args!("unknown {} variant {v:?}", self.name)))
    }
}

/// A field the input does not carry deserializes as if it were `null`:
/// `None` for an `Option`, a type error otherwise.
pub fn missing_field<'de, T: Deserialize<'de>, E: Error>() -> Result<T, E> {
    T::deserialize(ContentDeserializer::<E>::new(Content::Null))
}

/// Deserializer over one map key. Keys are strings in every format the
/// shim reads; the number and bool hints parse them, so numeric and
/// bool keys round-trip through their string form.
pub struct KeyDeserializer<'a, E> {
    key: &'a str,
    _marker: PhantomData<E>,
}

impl<'a, E> KeyDeserializer<'a, E> {
    /// Wraps a key.
    pub fn new(key: &'a str) -> Self {
        KeyDeserializer {
            key,
            _marker: PhantomData,
        }
    }

    fn number<'de, V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, E>
    where
        E: Error,
    {
        if let Ok(u) = self.key.parse::<u64>() {
            visitor.visit_u64(u)
        } else if let Ok(i) = self.key.parse::<i64>() {
            visitor.visit_i64(i)
        } else {
            visitor.visit_str(self.key)
        }
    }
}

impl<'de, E: Error> Deserializer<'de> for KeyDeserializer<'_, E> {
    type Error = E;
    fn deserialize_any<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, E> {
        visitor.visit_str(self.key)
    }
    fn deserialize_option<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, E> {
        visitor.visit_some(self)
    }
    fn deserialize_enum<V: Visitor<'de>>(
        self,
        _name: &'static str,
        _variants: &'static [&'static str],
        visitor: V,
    ) -> Result<V::Value, E> {
        visitor.visit_enum(self)
    }
    fn deserialize_bool<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, E> {
        match self.key {
            "true" => visitor.visit_bool(true),
            "false" => visitor.visit_bool(false),
            _ => visitor.visit_str(self.key),
        }
    }
    fn deserialize_u64<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, E> {
        self.number(visitor)
    }
    fn deserialize_i64<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, E> {
        self.number(visitor)
    }
}

/// A bare string names a unit variant.
impl<'de, E: Error> EnumAccess<'de> for KeyDeserializer<'_, E> {
    type Error = E;
    type Variant = UnitOnly<E>;
    fn variant_seed<V: DeserializeSeed<'de>>(self, seed: V) -> Result<(V::Value, UnitOnly<E>), E> {
        let tag = seed.deserialize(self)?;
        Ok((tag, UnitOnly(PhantomData)))
    }
}

/// Payload access for a variant written as a bare string: only a unit
/// variant fits.
pub struct UnitOnly<E>(PhantomData<E>);

impl<E: Error> UnitOnly<E> {
    fn no_payload(&self) -> E {
        E::custom("expected an object with the variant's payload, found string")
    }
}

impl<'de, E: Error> VariantAccess<'de> for UnitOnly<E> {
    type Error = E;
    fn unit_variant(self) -> Result<(), E> {
        Ok(())
    }
    fn newtype_variant<T: Deserialize<'de>>(self) -> Result<T, E> {
        Err(self.no_payload())
    }
    fn tuple_variant<V: Visitor<'de>>(self, _len: usize, _visitor: V) -> Result<V::Value, E> {
        Err(self.no_payload())
    }
    fn struct_variant<V: Visitor<'de>>(
        self,
        _fields: &'static [&'static str],
        _visitor: V,
    ) -> Result<V::Value, E> {
        Err(self.no_payload())
    }
}

// ------------------------------------------- the tree as a Deserializer --

/// Deserializer over an in-memory tree (`serde_json::from_value`),
/// generic in its error type.
pub struct ContentDeserializer<E> {
    content: Content,
    _marker: PhantomData<E>,
}

impl<E> ContentDeserializer<E> {
    /// Wraps a tree.
    pub fn new(content: Content) -> Self {
        ContentDeserializer {
            content,
            _marker: PhantomData,
        }
    }
}

fn kind(c: &Content) -> &'static str {
    match c {
        Content::Null => "null",
        Content::Bool(_) => "bool",
        Content::Number(_) => "number",
        Content::String(_) => "string",
        Content::Array(_) => "array",
        Content::Object(_) => "object",
    }
}

impl<'de, E: Error> Deserializer<'de> for ContentDeserializer<E> {
    type Error = E;

    fn deserialize_any<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, E> {
        match self.content {
            Content::Null => visitor.visit_unit(),
            Content::Bool(b) => visitor.visit_bool(b),
            Content::Number(Number::PosInt(u)) => visitor.visit_u64(u),
            Content::Number(Number::NegInt(i)) => visitor.visit_i64(i),
            Content::Number(Number::Float(f)) => visitor.visit_f64(f),
            Content::String(s) => visitor.visit_string(s),
            Content::Array(items) => visitor.visit_seq(ContentSeq {
                items: items.into_iter(),
                _marker: PhantomData::<E>,
            }),
            Content::Object(map) => visitor.visit_map(ContentMap {
                entries: map.into_iter(),
                value: None,
                _marker: PhantomData::<E>,
            }),
        }
    }

    fn deserialize_option<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, E> {
        match self.content {
            Content::Null => visitor.visit_none(),
            _ => visitor.visit_some(self),
        }
    }

    fn deserialize_enum<V: Visitor<'de>>(
        self,
        name: &'static str,
        _variants: &'static [&'static str],
        visitor: V,
    ) -> Result<V::Value, E> {
        match self.content {
            Content::String(tag) => visitor.visit_enum(KeyDeserializer::<E>::new(&tag)),
            Content::Object(map) => {
                let mut entries = map.into_iter();
                match (entries.next(), entries.next()) {
                    (Some((tag, payload)), None) => visitor.visit_enum(ContentVariant {
                        tag,
                        payload,
                        _marker: PhantomData::<E>,
                    }),
                    (None, _) => Err(E::custom(format_args!("empty object for enum {name}"))),
                    (Some(_), Some(_)) => Err(E::custom(format_args!(
                        "expected a single-key object for enum {name}"
                    ))),
                }
            }
            other => Err(E::custom(format_args!(
                "expected string or object for enum {name}, found {}",
                kind(&other)
            ))),
        }
    }
}

struct ContentSeq<E> {
    items: std::vec::IntoIter<Content>,
    _marker: PhantomData<E>,
}

impl<'de, E: Error> SeqAccess<'de> for ContentSeq<E> {
    type Error = E;
    fn next_element<T: Deserialize<'de>>(&mut self) -> Result<Option<T>, E> {
        self.items
            .next()
            .map(|item| T::deserialize(ContentDeserializer::new(item)))
            .transpose()
    }
}

struct ContentMap<E> {
    entries: std::collections::btree_map::IntoIter<String, Content>,
    value: Option<Content>,
    _marker: PhantomData<E>,
}

impl<'de, E: Error> MapAccess<'de> for ContentMap<E> {
    type Error = E;
    fn next_key_seed<K: DeserializeSeed<'de>>(&mut self, seed: K) -> Result<Option<K::Value>, E> {
        match self.entries.next() {
            Some((key, value)) => {
                self.value = Some(value);
                seed.deserialize(KeyDeserializer::new(&key)).map(Some)
            }
            None => Ok(None),
        }
    }
    fn next_value<V: Deserialize<'de>>(&mut self) -> Result<V, E> {
        let value = self
            .value
            .take()
            .ok_or_else(|| E::custom("next_value called before next_key"))?;
        V::deserialize(ContentDeserializer::new(value))
    }
}

struct ContentVariant<E> {
    tag: String,
    payload: Content,
    _marker: PhantomData<E>,
}

impl<'de, E: Error> EnumAccess<'de> for ContentVariant<E> {
    type Error = E;
    type Variant = ContentDeserializer<E>;
    fn variant_seed<V: DeserializeSeed<'de>>(
        self,
        seed: V,
    ) -> Result<(V::Value, ContentDeserializer<E>), E> {
        let tag = seed.deserialize(KeyDeserializer::new(&self.tag))?;
        Ok((tag, ContentDeserializer::new(self.payload)))
    }
}

impl<'de, E: Error> VariantAccess<'de> for ContentDeserializer<E> {
    type Error = E;
    fn unit_variant(self) -> Result<(), E> {
        Ok(())
    }
    fn newtype_variant<T: Deserialize<'de>>(self) -> Result<T, E> {
        T::deserialize(self)
    }
    fn tuple_variant<V: Visitor<'de>>(self, _len: usize, visitor: V) -> Result<V::Value, E> {
        self.deserialize_seq(visitor)
    }
    fn struct_variant<V: Visitor<'de>>(
        self,
        _fields: &'static [&'static str],
        visitor: V,
    ) -> Result<V::Value, E> {
        self.deserialize_map(visitor)
    }
}

// ---------------------------------------------------------------- impls --

struct ContentVisitor;

impl<'de> Visitor<'de> for ContentVisitor {
    type Value = Content;
    fn expecting(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("any value")
    }
    fn visit_bool<E: Error>(self, v: bool) -> Result<Content, E> {
        Ok(Content::Bool(v))
    }
    fn visit_u64<E: Error>(self, v: u64) -> Result<Content, E> {
        Ok(Content::Number(Number::PosInt(v)))
    }
    fn visit_i64<E: Error>(self, v: i64) -> Result<Content, E> {
        Ok(Content::Number(Number::NegInt(v)))
    }
    fn visit_f64<E: Error>(self, v: f64) -> Result<Content, E> {
        Ok(Content::Number(Number::Float(v)))
    }
    fn visit_str<E: Error>(self, v: &str) -> Result<Content, E> {
        Ok(Content::String(v.to_owned()))
    }
    fn visit_string<E: Error>(self, v: String) -> Result<Content, E> {
        Ok(Content::String(v))
    }
    fn visit_unit<E: Error>(self) -> Result<Content, E> {
        Ok(Content::Null)
    }
    fn visit_some<D: Deserializer<'de>>(self, d: D) -> Result<Content, D::Error> {
        Content::deserialize(d)
    }
    fn visit_seq<A: SeqAccess<'de>>(self, mut seq: A) -> Result<Content, A::Error> {
        let mut items = Vec::new();
        while let Some(item) = seq.next_element()? {
            items.push(item);
        }
        Ok(Content::Array(items))
    }
    fn visit_map<A: MapAccess<'de>>(self, mut map: A) -> Result<Content, A::Error> {
        let mut out = Map::new();
        while let Some(key) = map.next_key::<String>()? {
            let value = map.next_value()?;
            out.insert(key, value);
        }
        Ok(Content::Object(out))
    }
}

impl<'de> Deserialize<'de> for Content {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        deserializer.deserialize_any(ContentVisitor)
    }
}

struct BoolVisitor;

impl<'de> Visitor<'de> for BoolVisitor {
    type Value = bool;
    fn expecting(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("bool")
    }
    fn visit_bool<E: Error>(self, v: bool) -> Result<bool, E> {
        Ok(v)
    }
}

impl<'de> Deserialize<'de> for bool {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        deserializer.deserialize_bool(BoolVisitor)
    }
}

/// Reads a string into any type built from `&str` (`String`, `Arc<str>`):
/// one allocation, copied straight from the input.
struct StrVisitor<T>(PhantomData<T>);

impl<'de, T: for<'a> From<&'a str>> Visitor<'de> for StrVisitor<T> {
    type Value = T;
    fn expecting(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("string")
    }
    fn visit_str<E: Error>(self, v: &str) -> Result<T, E> {
        Ok(T::from(v))
    }
}

impl<'de> Deserialize<'de> for String {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        deserializer.deserialize_any(StrVisitor(PhantomData))
    }
}

impl<'de> Deserialize<'de> for char {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        let s = String::deserialize(deserializer)?;
        let mut chars = s.chars();
        match (chars.next(), chars.next()) {
            (Some(c), None) => Ok(c),
            _ => Err(D::Error::custom("expected single-character string")),
        }
    }
}

/// Integer visitor: accepts any number exactly representable in `T`
/// (so `3.0` reads as `3`), by the rules of [`Number::as_u64`] and
/// [`Number::as_i64`].
struct IntVisitor<T>(PhantomData<T>);

trait FromNumber: Sized {
    const NAME: &'static str;
    fn from_number(n: Number) -> Option<Self>;
}

macro_rules! de_int {
    ($via:ident, $hint:ident; $($t:ty),*) => {$(
        impl FromNumber for $t {
            const NAME: &'static str = stringify!($t);
            fn from_number(n: Number) -> Option<Self> {
                n.$via().and_then(|v| <$t>::try_from(v).ok())
            }
        }
        impl<'de> Deserialize<'de> for $t {
            fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
                deserializer.$hint(IntVisitor::<$t>(PhantomData))
            }
        }
    )*};
}
de_int!(as_u64, deserialize_u64; u8, u16, u32, u64, usize);
de_int!(as_i64, deserialize_i64; i8, i16, i32, i64, isize);

impl<T: FromNumber> IntVisitor<T> {
    fn read<E: Error>(n: Number) -> Result<T, E> {
        T::from_number(n)
            .ok_or_else(|| E::custom(format_args!("number out of range for {}", T::NAME)))
    }
}

impl<'de, T: FromNumber> Visitor<'de> for IntVisitor<T> {
    type Value = T;
    fn expecting(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(T::NAME)
    }
    fn visit_u64<E: Error>(self, v: u64) -> Result<T, E> {
        Self::read(Number::PosInt(v))
    }
    fn visit_i64<E: Error>(self, v: i64) -> Result<T, E> {
        Self::read(Number::NegInt(v))
    }
    fn visit_f64<E: Error>(self, v: f64) -> Result<T, E> {
        Self::read(Number::Float(v))
    }
}

struct F64Visitor;

impl<'de> Visitor<'de> for F64Visitor {
    type Value = f64;
    fn expecting(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("f64")
    }
    fn visit_u64<E: Error>(self, v: u64) -> Result<f64, E> {
        Ok(v as f64)
    }
    fn visit_i64<E: Error>(self, v: i64) -> Result<f64, E> {
        Ok(v as f64)
    }
    fn visit_f64<E: Error>(self, v: f64) -> Result<f64, E> {
        Ok(v)
    }
}

impl<'de> Deserialize<'de> for f64 {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        deserializer.deserialize_any(F64Visitor)
    }
}

impl<'de> Deserialize<'de> for f32 {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        f64::deserialize(deserializer).map(|v| v as f32)
    }
}

struct UnitVisitor;

impl<'de> Visitor<'de> for UnitVisitor {
    type Value = ();
    fn expecting(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("null")
    }
    fn visit_unit<E: Error>(self) -> Result<(), E> {
        Ok(())
    }
}

impl<'de> Deserialize<'de> for () {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        deserializer.deserialize_any(UnitVisitor)
    }
}

struct OptionVisitor<T>(PhantomData<T>);

impl<'de, T: Deserialize<'de>> Visitor<'de> for OptionVisitor<T> {
    type Value = Option<T>;
    fn expecting(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("option")
    }
    fn visit_unit<E: Error>(self) -> Result<Option<T>, E> {
        Ok(None)
    }
    fn visit_some<D: Deserializer<'de>>(self, d: D) -> Result<Option<T>, D::Error> {
        T::deserialize(d).map(Some)
    }
}

impl<'de, T: Deserialize<'de>> Deserialize<'de> for Option<T> {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        deserializer.deserialize_option(OptionVisitor(PhantomData))
    }
}

/// Collects an array into any growable container.
struct SeqVisitor<C, T>(PhantomData<(C, T)>);

impl<'de, C: Default + Extend<T>, T: Deserialize<'de>> Visitor<'de> for SeqVisitor<C, T> {
    type Value = C;
    fn expecting(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("array")
    }
    fn visit_seq<A: SeqAccess<'de>>(self, mut seq: A) -> Result<C, A::Error> {
        let mut out = C::default();
        while let Some(item) = seq.next_element()? {
            out.extend(Some(item));
        }
        Ok(out)
    }
}

fn collect<'de, C: Default + Extend<T>, T: Deserialize<'de>, D: Deserializer<'de>>(
    deserializer: D,
) -> Result<C, D::Error> {
    deserializer.deserialize_seq(SeqVisitor(PhantomData))
}

impl<'de, T: Deserialize<'de>> Deserialize<'de> for Vec<T> {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        collect(deserializer)
    }
}

impl<'de, T: Deserialize<'de>> Deserialize<'de> for Box<T> {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        T::deserialize(deserializer).map(Box::new)
    }
}

impl<'de, T: Deserialize<'de>> Deserialize<'de> for std::sync::Arc<T> {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        T::deserialize(deserializer).map(std::sync::Arc::new)
    }
}

// Mirrors serde's `rc` feature for shared string slices (interned post
// bodies and the like).
impl<'de> Deserialize<'de> for std::sync::Arc<str> {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        deserializer.deserialize_any(StrVisitor(PhantomData))
    }
}

// Shared slices (peer lists, template sets): deserialize through an owned
// `Vec`, then move into the shared allocation.
impl<'de, T: Deserialize<'de>> Deserialize<'de> for std::sync::Arc<[T]> {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        Vec::<T>::deserialize(deserializer).map(std::sync::Arc::from)
    }
}

macro_rules! de_tuple {
    ($(($len:literal; $($t:ident),+))*) => {$(
        impl<'de, $($t: Deserialize<'de>),+> Deserialize<'de> for ($($t,)+) {
            fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
                struct TupleVisitor<$($t),+>(PhantomData<($($t,)+)>);
                impl<'de, $($t: Deserialize<'de>),+> Visitor<'de> for TupleVisitor<$($t),+> {
                    type Value = ($($t,)+);
                    fn expecting(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                        f.write_str(concat!("array of length ", $len))
                    }
                    fn visit_seq<A: SeqAccess<'de>>(self, mut seq: A) -> Result<Self::Value, A::Error> {
                        let short = || A::Error::custom(concat!("expected array of length ", $len, ", found a shorter one"));
                        let value = ($(seq.next_element::<$t>()?.ok_or_else(short)?,)+);
                        match seq.next_element::<IgnoredAny>()? {
                            None => Ok(value),
                            Some(_) => Err(A::Error::custom(concat!("expected array of length ", $len, ", found a longer one"))),
                        }
                    }
                }
                deserializer.deserialize_seq(TupleVisitor(PhantomData))
            }
        }
    )*};
}
de_tuple! {
    (1; T0)
    (2; T0, T1)
    (3; T0, T1, T2)
    (4; T0, T1, T2, T3)
}

/// Collects an object into any growable map.
struct MapVisitor<C, K, V>(PhantomData<(C, K, V)>);

impl<'de, C, K, V> Visitor<'de> for MapVisitor<C, K, V>
where
    C: Default + Extend<(K, V)>,
    K: Deserialize<'de>,
    V: Deserialize<'de>,
{
    type Value = C;
    fn expecting(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("object")
    }
    fn visit_map<A: MapAccess<'de>>(self, mut map: A) -> Result<C, A::Error> {
        let mut out = C::default();
        while let Some(key) = map.next_key()? {
            let value = map.next_value()?;
            out.extend(Some((key, value)));
        }
        Ok(out)
    }
}

impl<'de, K, V> Deserialize<'de> for std::collections::HashMap<K, V>
where
    K: Deserialize<'de> + std::hash::Hash + Eq,
    V: Deserialize<'de>,
{
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        deserializer.deserialize_map(MapVisitor(PhantomData))
    }
}

impl<'de, K, V> Deserialize<'de> for std::collections::BTreeMap<K, V>
where
    K: Deserialize<'de> + Ord,
    V: Deserialize<'de>,
{
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        deserializer.deserialize_map(MapVisitor(PhantomData))
    }
}

/// `&'static str` deserialization leaks the string. Only catalog metadata
/// types carry static strings, and they are deserialized rarely (if ever)
/// — real serde would demand borrowed input here instead.
impl<'de> Deserialize<'de> for &'static str {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        String::deserialize(deserializer).map(|s| -> &'static str { Box::leak(s.into_boxed_str()) })
    }
}

impl<'de, T> Deserialize<'de> for std::collections::HashSet<T>
where
    T: Deserialize<'de> + std::hash::Hash + Eq,
{
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        collect(deserializer)
    }
}

impl<'de, T> Deserialize<'de> for std::collections::BTreeSet<T>
where
    T: Deserialize<'de> + Ord,
{
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        collect(deserializer)
    }
}

struct DurationVisitor;

impl<'de> Visitor<'de> for DurationVisitor {
    type Value = std::time::Duration;
    fn expecting(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("duration")
    }
    fn visit_u64<E: Error>(self, secs: u64) -> Result<Self::Value, E> {
        Ok(std::time::Duration::from_secs(secs))
    }
    // A missing or non-integer `secs`/`nanos` reads as 0.
    fn visit_map<A: MapAccess<'de>>(self, mut map: A) -> Result<Self::Value, A::Error> {
        let (mut secs, mut nanos) = (0, 0);
        while let Some(key) = map.next_key::<String>()? {
            let value = map.next_value::<Content>()?.as_u64().unwrap_or(0);
            match key.as_str() {
                "secs" => secs = value,
                "nanos" => nanos = value,
                _ => {}
            }
        }
        Ok(std::time::Duration::new(secs, nanos as u32))
    }
}

impl<'de> Deserialize<'de> for std::time::Duration {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        deserializer.deserialize_any(DurationVisitor)
    }
}
