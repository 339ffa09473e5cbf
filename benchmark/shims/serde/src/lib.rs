//! Stand-in for `serde`, owned by the benchmark so the workspace builds
//! offline.
//!
//! The published crate is a visitor-driven framework generic over data
//! formats. The Servet crates only ever serialize to and from JSON, so
//! this stand-in collapses the data model to one JSON-shaped [`Value`]
//! tree: [`Serialize`] builds a tree, [`Deserialize`] consumes one, and
//! the `serde_json` stand-in reads and writes trees as text. Objects keep
//! insertion order (struct fields serialize in declaration order, as the
//! published crate's streaming serializer emits them).
//!
//! Only what the eight path dependencies use is implemented; the derive
//! (`serde_derive` stand-in) rejects anything else at compile time.

use std::collections::BTreeMap;
use std::fmt;

pub use serde_derive::{Deserialize, Serialize};

/// A JSON number. Integers stay exact; anything with a fraction or an
/// exponent, or beyond 64 bits, is a float.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Number {
    /// A non-negative integer.
    U(u64),
    /// A negative integer.
    I(i64),
    /// A floating-point number (always finite when parsed from text).
    F(f64),
}

/// An object's entries in insertion order.
pub type Map = Vec<(String, Value)>;

/// A JSON value.
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
    /// An object, entries in insertion order.
    Object(Map),
}

impl Value {
    fn kind(&self) -> &'static str {
        match self {
            Value::Null => "null",
            Value::Bool(_) => "a boolean",
            Value::Number(Number::F(_)) => "a float",
            Value::Number(_) => "an integer",
            Value::String(_) => "a string",
            Value::Array(_) => "an array",
            Value::Object(_) => "an object",
        }
    }

    /// Sort every object's keys, recursively — the shape
    /// `serde_json::to_value` yields with the published crate's default
    /// `BTreeMap`-backed map.
    pub fn sort_keys(&mut self) {
        match self {
            Value::Array(items) => items.iter_mut().for_each(Value::sort_keys),
            Value::Object(map) => {
                map.sort_by(|a, b| a.0.cmp(&b.0));
                map.iter_mut().for_each(|(_, v)| v.sort_keys());
            }
            _ => {}
        }
    }
}

/// Why a [`Value`] could not become the requested type.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeError(pub String);

impl DeError {
    fn invalid(found: &Value, expected: &str) -> Self {
        DeError(format!(
            "invalid type: {}, expected {expected}",
            found.kind()
        ))
    }
}

impl fmt::Display for DeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for DeError {}

/// Deserialization support named as in the published crate.
pub mod de {
    /// Construct an error from a message; implemented by [`crate::DeError`]
    /// and by `serde_json::Error`.
    pub trait Error: Sized {
        /// An error carrying `msg`.
        fn custom<T: std::fmt::Display>(msg: T) -> Self;
    }

    impl Error for crate::DeError {
        fn custom<T: std::fmt::Display>(msg: T) -> Self {
            crate::DeError(msg.to_string())
        }
    }

    /// The published crate distinguishes borrowing deserializers; this
    /// stand-in never borrows from its input, so every [`crate::Deserialize`]
    /// type qualifies.
    pub trait DeserializeOwned: crate::Deserialize {}
    impl<T: crate::Deserialize> DeserializeOwned for T {}
}

/// A type that can be written as a [`Value`] tree.
pub trait Serialize {
    /// The value tree of `self`.
    fn to_value(&self) -> Value;
}

/// A type that can be read from a [`Value`] tree.
pub trait Deserialize: Sized {
    /// Consume `value` into `Self`.
    fn from_value(value: Value) -> Result<Self, DeError>;

    /// What a struct field of this type becomes when the object has no
    /// such key and the field carries no `default`: an error, except for
    /// `Option`, which reads as `None` (the published crate's rule).
    fn missing(field: &str) -> Result<Self, DeError> {
        Err(DeError(format!("missing field `{field}`")))
    }
}

/// Helpers the derive expands to; not for direct use.
pub mod __private {
    use super::{DeError, Map, Value};

    pub fn expect_object(value: Value, ty: &str) -> Result<Map, DeError> {
        match value {
            Value::Object(map) => Ok(map),
            other => Err(DeError::invalid(&other, ty)),
        }
    }

    pub fn duplicate(field: &str) -> DeError {
        DeError(format!("duplicate field `{field}`"))
    }

    pub fn unknown_variant(name: &str, ty: &str) -> DeError {
        DeError(format!("unknown variant `{name}` of {ty}"))
    }

    /// Split an internally tagged enum's object into its tag and the
    /// remaining entries.
    pub fn take_tag(value: Value, tag: &str, ty: &str) -> Result<(String, Map), DeError> {
        let mut map = expect_object(value, ty)?;
        let at = map
            .iter()
            .position(|(k, _)| k == tag)
            .ok_or_else(|| DeError(format!("missing field `{tag}`")))?;
        match map.remove(at).1 {
            Value::String(name) => Ok((name, map)),
            other => Err(DeError::invalid(&other, "a variant name")),
        }
    }

    /// Split an externally tagged enum's value into the variant name and
    /// its content (`None` for the bare-string form of a unit variant).
    pub fn take_variant(value: Value, ty: &str) -> Result<(String, Option<Value>), DeError> {
        match value {
            Value::String(name) => Ok((name, None)),
            Value::Object(mut map) if map.len() == 1 => {
                let (name, content) = map.pop().expect("one entry");
                Ok((name, Some(content)))
            }
            other => Err(DeError::invalid(&other, ty)),
        }
    }

    pub fn expect_unit(content: Option<Value>, variant: &str) -> Result<(), DeError> {
        match content {
            None | Some(Value::Null) => Ok(()),
            Some(other) => Err(DeError::invalid(&other, &format!("unit variant {variant}"))),
        }
    }

    pub fn expect_content(content: Option<Value>, variant: &str) -> Result<Value, DeError> {
        content.ok_or_else(|| DeError(format!("variant {variant} needs content")))
    }

    /// The elements of a tuple variant's array, checked for length.
    pub fn expect_tuple(value: Value, len: usize, what: &str) -> Result<Vec<Value>, DeError> {
        match value {
            Value::Array(items) if items.len() == len => Ok(items),
            Value::Array(items) => Err(DeError(format!(
                "invalid length {}, expected {what} with {len} elements",
                items.len()
            ))),
            other => Err(DeError::invalid(&other, what)),
        }
    }
}

macro_rules! unsigned {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value {
                Value::Number(Number::U(*self as u64))
            }
        }
        impl Deserialize for $t {
            fn from_value(value: Value) -> Result<Self, DeError> {
                match value {
                    Value::Number(Number::U(n)) => <$t>::try_from(n).map_err(|_| {
                        DeError(format!("integer {n} out of range for {}", stringify!($t)))
                    }),
                    other => Err(DeError::invalid(&other, stringify!($t))),
                }
            }
        }
    )*};
}
unsigned!(u8, u16, u32, u64, usize);

impl Serialize for f64 {
    fn to_value(&self) -> Value {
        // JSON has no NaN or infinity; the published serde_json writes null.
        if self.is_finite() {
            Value::Number(Number::F(*self))
        } else {
            Value::Null
        }
    }
}

impl Deserialize for f64 {
    fn from_value(value: Value) -> Result<Self, DeError> {
        match value {
            Value::Number(Number::F(x)) => Ok(x),
            Value::Number(Number::U(n)) => Ok(n as f64),
            Value::Number(Number::I(n)) => Ok(n as f64),
            other => Err(DeError::invalid(&other, "f64")),
        }
    }
}

impl Serialize for bool {
    fn to_value(&self) -> Value {
        Value::Bool(*self)
    }
}

impl Deserialize for bool {
    fn from_value(value: Value) -> Result<Self, DeError> {
        match value {
            Value::Bool(b) => Ok(b),
            other => Err(DeError::invalid(&other, "a boolean")),
        }
    }
}

impl Serialize for str {
    fn to_value(&self) -> Value {
        Value::String(self.to_owned())
    }
}

impl Serialize for String {
    fn to_value(&self) -> Value {
        Value::String(self.clone())
    }
}

impl Deserialize for String {
    fn from_value(value: Value) -> Result<Self, DeError> {
        match value {
            Value::String(s) => Ok(s),
            other => Err(DeError::invalid(&other, "a string")),
        }
    }
}

impl Serialize for Value {
    fn to_value(&self) -> Value {
        self.clone()
    }
}

impl Deserialize for Value {
    fn from_value(value: Value) -> Result<Self, DeError> {
        Ok(value)
    }
}

impl<T: Serialize + ?Sized> Serialize for &T {
    fn to_value(&self) -> Value {
        (**self).to_value()
    }
}

impl<T: Serialize + ?Sized> Serialize for Box<T> {
    fn to_value(&self) -> Value {
        (**self).to_value()
    }
}

impl<T: Deserialize> Deserialize for Box<T> {
    fn from_value(value: Value) -> Result<Self, DeError> {
        T::from_value(value).map(Box::new)
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn to_value(&self) -> Value {
        self.as_ref().map_or(Value::Null, T::to_value)
    }
}

impl<T: Deserialize> Deserialize for Option<T> {
    fn from_value(value: Value) -> Result<Self, DeError> {
        match value {
            Value::Null => Ok(None),
            other => T::from_value(other).map(Some),
        }
    }

    fn missing(_field: &str) -> Result<Self, DeError> {
        Ok(None)
    }
}

impl<T: Serialize> Serialize for [T] {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(T::to_value).collect())
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn to_value(&self) -> Value {
        self.as_slice().to_value()
    }
}

impl<T: Deserialize> Deserialize for Vec<T> {
    fn from_value(value: Value) -> Result<Self, DeError> {
        match value {
            Value::Array(items) => items.into_iter().map(T::from_value).collect(),
            other => Err(DeError::invalid(&other, "an array")),
        }
    }
}

macro_rules! tuple {
    ($len:expr => $($t:ident $i:tt),*) => {
        impl<$($t: Serialize),*> Serialize for ($($t,)*) {
            fn to_value(&self) -> Value {
                Value::Array(vec![$(self.$i.to_value()),*])
            }
        }
        impl<$($t: Deserialize),*> Deserialize for ($($t,)*) {
            fn from_value(value: Value) -> Result<Self, DeError> {
                let mut items = __private::expect_tuple(value, $len, "a tuple")?.into_iter();
                Ok(($($t::from_value(items.next().expect("length checked"))?,)*))
            }
        }
    };
}
tuple!(2 => A 0, B 1);
tuple!(3 => A 0, B 1, C 2);

impl<V: Serialize> Serialize for BTreeMap<String, V> {
    fn to_value(&self) -> Value {
        Value::Object(
            self.iter()
                .map(|(k, v)| (k.clone(), v.to_value()))
                .collect(),
        )
    }
}

impl<V: Deserialize> Deserialize for BTreeMap<String, V> {
    fn from_value(value: Value) -> Result<Self, DeError> {
        __private::expect_object(value, "a map")?
            .into_iter()
            .map(|(k, v)| V::from_value(v).map(|v| (k, v)))
            .collect()
    }
}
