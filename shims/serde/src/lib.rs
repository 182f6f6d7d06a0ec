//! Offline stand-in for `serde`.
//!
//! The build environment has no access to crates.io, so this workspace
//! ships a minimal serde-compatible facade: the same `Serialize` /
//! `Deserialize` trait names and derive macros, backed by a single JSON
//! [`Value`] data model instead of serde's visitor machinery. The
//! `serde_json` shim provides the familiar `to_string` / `from_str` /
//! `json!` surface on top of it.
//!
//! Supported shapes (everything this workspace derives): structs with
//! named fields, newtype structs, and enums whose variants are unit or
//! carry one unnamed field (externally tagged) — plus impls for the std
//! types those structs contain: `u8`, `u32`, `u64`, `usize`, `i64`,
//! `f64`, `bool`, `String` (and `str` to serialize), `Option`, `Vec`,
//! `[T; N]`, pairs `(A, B)`, `BTreeMap` keyed by `String`/`u64`/`usize`,
//! and `Value` itself. A type the workspace does not reach has no impl.
//!
//! Any other derive shape fails to compile rather than serialize wrongly:
//!
//! ```compile_fail
//! #[derive(serde::Serialize)]
//! struct Unit;
//! ```
//!
//! ```compile_fail
//! #[derive(serde::Serialize)]
//! struct Pair(u64, u64);
//! ```
//!
//! ```compile_fail
//! #[derive(serde::Deserialize)]
//! enum Shape {
//!     Point(u64, u64),
//! }
//! ```

pub use serde_derive::{Deserialize, Serialize};

use std::collections::BTreeMap;

/// A parsed JSON document.
///
/// Numbers keep their lexical class (`U64`/`I64`/`F64`) so that 64-bit
/// counters and seeds round-trip exactly. Objects preserve insertion
/// order (lookup is linear — documents here are small).
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Non-negative integer.
    U64(u64),
    /// Negative integer.
    I64(i64),
    /// Any number with a fraction or exponent.
    F64(f64),
    /// A string.
    Str(String),
    /// An array.
    Array(Vec<Value>),
    /// An object, in insertion order.
    Object(Vec<(String, Value)>),
}

impl Value {
    /// Member lookup on an object value.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The object members, if this is an object.
    pub fn as_object(&self) -> Option<&[(String, Value)]> {
        match self {
            Value::Object(pairs) => Some(pairs),
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

    /// The string contents, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Numeric value as `u64`, when exactly representable.
    pub fn as_u64(&self) -> Option<u64> {
        match *self {
            Value::U64(n) => Some(n),
            Value::I64(n) => u64::try_from(n).ok(),
            Value::F64(x) if x >= 0.0 && x.fract() == 0.0 && x <= u64::MAX as f64 => Some(x as u64),
            _ => None,
        }
    }

    /// Numeric value as `i64`, when exactly representable.
    pub fn as_i64(&self) -> Option<i64> {
        match *self {
            Value::U64(n) => i64::try_from(n).ok(),
            Value::I64(n) => Some(n),
            Value::F64(x) if x.fract() == 0.0 && x.abs() <= i64::MAX as f64 => Some(x as i64),
            _ => None,
        }
    }

    /// Numeric value as `f64`.
    pub fn as_f64(&self) -> Option<f64> {
        match *self {
            Value::U64(n) => Some(n as f64),
            Value::I64(n) => Some(n as f64),
            Value::F64(x) => Some(x),
            _ => None,
        }
    }

    /// Boolean value.
    pub fn as_bool(&self) -> Option<bool> {
        match *self {
            Value::Bool(b) => Some(b),
            _ => None,
        }
    }
}

/// Serialization/deserialization error.
#[derive(Debug, Clone)]
pub struct Error(String);

impl Error {
    /// A new error with the given message.
    pub fn new(msg: impl Into<String>) -> Error {
        Error(msg.into())
    }
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "serde: {}", self.0)
    }
}

impl std::error::Error for Error {}

/// Types that can render themselves as a JSON [`Value`].
pub trait Serialize {
    /// Convert to the JSON data model.
    fn to_value(&self) -> Value;
}

/// Types that can be rebuilt from a JSON [`Value`].
pub trait Deserialize: Sized {
    /// Reconstruct from the JSON data model.
    fn from_value(v: &Value) -> Result<Self, Error>;
}

/// Fetch a struct field from an object value; missing members read as
/// `null` (so `Option` fields tolerate absence, like serde's `default`).
pub fn field<'v>(v: &'v Value, name: &str) -> &'v Value {
    v.get(name).unwrap_or(&Value::Null)
}

// ---------------------------------------------------------------------
// Primitive impls
// ---------------------------------------------------------------------

macro_rules! impl_unsigned {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value { Value::U64(*self as u64) }
        }
        impl Deserialize for $t {
            fn from_value(v: &Value) -> Result<Self, Error> {
                let n = v.as_u64().ok_or_else(|| Error::new(concat!("expected ", stringify!($t))))?;
                <$t>::try_from(n).map_err(|_| Error::new(concat!("out of range for ", stringify!($t))))
            }
        }
    )*};
}
impl_unsigned!(u8, u32, u64, usize);

impl Serialize for i64 {
    fn to_value(&self) -> Value {
        if *self >= 0 {
            Value::U64(*self as u64)
        } else {
            Value::I64(*self)
        }
    }
}
impl Deserialize for i64 {
    fn from_value(v: &Value) -> Result<Self, Error> {
        v.as_i64().ok_or_else(|| Error::new("expected i64"))
    }
}

impl Serialize for f64 {
    fn to_value(&self) -> Value {
        Value::F64(*self)
    }
}
impl Deserialize for f64 {
    fn from_value(v: &Value) -> Result<Self, Error> {
        v.as_f64().ok_or_else(|| Error::new("expected f64"))
    }
}

impl Serialize for bool {
    fn to_value(&self) -> Value {
        Value::Bool(*self)
    }
}
impl Deserialize for bool {
    fn from_value(v: &Value) -> Result<Self, Error> {
        v.as_bool().ok_or_else(|| Error::new("expected bool"))
    }
}

impl Serialize for String {
    fn to_value(&self) -> Value {
        Value::Str(self.clone())
    }
}
impl Deserialize for String {
    fn from_value(v: &Value) -> Result<Self, Error> {
        v.as_str()
            .map(str::to_string)
            .ok_or_else(|| Error::new("expected string"))
    }
}

impl Serialize for str {
    fn to_value(&self) -> Value {
        Value::Str(self.to_string())
    }
}

// ---------------------------------------------------------------------
// Containers
// ---------------------------------------------------------------------

impl<T: Serialize + ?Sized> Serialize for &T {
    fn to_value(&self) -> Value {
        (**self).to_value()
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn to_value(&self) -> Value {
        match self {
            Some(x) => x.to_value(),
            None => Value::Null,
        }
    }
}
impl<T: Deserialize> Deserialize for Option<T> {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Null => Ok(None),
            other => T::from_value(other).map(Some),
        }
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_value).collect())
    }
}
impl<T: Deserialize> Deserialize for Vec<T> {
    fn from_value(v: &Value) -> Result<Self, Error> {
        v.as_array()
            .ok_or_else(|| Error::new("expected array"))?
            .iter()
            .map(T::from_value)
            .collect()
    }
}

impl<T: Serialize, const N: usize> Serialize for [T; N] {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_value).collect())
    }
}
impl<T: Deserialize, const N: usize> Deserialize for [T; N] {
    fn from_value(v: &Value) -> Result<Self, Error> {
        let items = v.as_array().ok_or_else(|| Error::new("expected array"))?;
        let parsed: Vec<T> = items.iter().map(T::from_value).collect::<Result<_, _>>()?;
        parsed
            .try_into()
            .map_err(|_| Error::new(format!("expected array of length {N}")))
    }
}

impl<A: Serialize, B: Serialize> Serialize for (A, B) {
    fn to_value(&self) -> Value {
        Value::Array(vec![self.0.to_value(), self.1.to_value()])
    }
}
impl<A: Deserialize, B: Deserialize> Deserialize for (A, B) {
    fn from_value(v: &Value) -> Result<Self, Error> {
        let items = v
            .as_array()
            .ok_or_else(|| Error::new("expected tuple array"))?;
        let item = |i: usize| items.get(i).unwrap_or(&Value::Null);
        Ok((A::from_value(item(0))?, B::from_value(item(1))?))
    }
}

/// Map keys: JSON objects key by string, so map keys must round-trip
/// through one.
pub trait MapKey: Sized {
    /// Render the key.
    fn to_key(&self) -> String;
    /// Parse the key back.
    fn from_key(s: &str) -> Result<Self, Error>;
}

impl MapKey for String {
    fn to_key(&self) -> String {
        self.clone()
    }
    fn from_key(s: &str) -> Result<Self, Error> {
        Ok(s.to_string())
    }
}

macro_rules! impl_int_key {
    ($($t:ty),*) => {$(
        impl MapKey for $t {
            fn to_key(&self) -> String { self.to_string() }
            fn from_key(s: &str) -> Result<Self, Error> {
                s.parse().map_err(|_| Error::new(concat!("bad ", stringify!($t), " map key")))
            }
        }
    )*};
}
impl_int_key!(u64, usize);

impl<K: MapKey, V: Serialize> Serialize for BTreeMap<K, V> {
    fn to_value(&self) -> Value {
        Value::Object(
            self.iter()
                .map(|(k, v)| (k.to_key(), v.to_value()))
                .collect(),
        )
    }
}
impl<K: MapKey + Ord, V: Deserialize> Deserialize for BTreeMap<K, V> {
    fn from_value(v: &Value) -> Result<Self, Error> {
        v.as_object()
            .ok_or_else(|| Error::new("expected object"))?
            .iter()
            .map(|(k, v)| Ok((K::from_key(k)?, V::from_value(v)?)))
            .collect()
    }
}

impl Serialize for Value {
    fn to_value(&self) -> Value {
        self.clone()
    }
}
impl Deserialize for Value {
    fn from_value(v: &Value) -> Result<Self, Error> {
        Ok(v.clone())
    }
}
