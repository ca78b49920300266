//! Offline stand-in for `serde`.
//!
//! Instead of serde's visitor architecture this stub routes everything
//! through one order-preserving JSON [`Value`] model: `Serialize` renders a
//! type *to* a `Value`, `Deserialize` rebuilds a type *from* one, and the
//! companion `serde_json` stub converts between `Value` and text. The
//! surface is exactly what this workspace touches — no more.
//!
//! One deliberate gap: `u8` does not serialize, so
//! `serde_json::to_string(&0u8)` fails against the stub. Nothing in the
//! workspace probes for it any more.

use std::fmt;

pub use serde_derive::{Deserialize, Serialize};

/// A JSON document. Objects preserve insertion order so rendered output is
/// deterministic and matches the declared field order of derived types.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// JSON `null`.
    Null,
    /// A boolean.
    Bool(bool),
    /// Any JSON number (integers are whole-valued floats).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object, as ordered key/value pairs.
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// Looks a key up in an object (`None` for other variants).
    pub fn field(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(pairs) => pairs.iter().rev().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Mutable key lookup in an object.
    pub fn field_mut(&mut self, key: &str) -> Option<&mut Value> {
        match self {
            Value::Obj(pairs) => pairs.iter_mut().rev().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }
}

/// Serialization to the stub [`Value`] model. `None` means the type cannot
/// be serialized by the stub (the `u8` sentinel, or NaN keys etc.).
pub trait Serialize {
    /// Renders `self` as a JSON value.
    fn to_value(&self) -> Option<Value>;
}

/// A source of one borrowed [`Value`] to deserialize from.
pub trait Deserializer<'de> {
    /// Error type surfaced to the caller.
    type Error: de::Error;
    /// The parsed document this deserializer wraps.
    fn stub_value(&self) -> &'de Value;
}

/// Deserialization from the stub [`Value`] model.
pub trait Deserialize<'de>: Sized {
    /// Rebuilds `Self` from the deserializer's value.
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error>;
}

pub mod de {
    //! Deserialization error plumbing, mirroring `serde::de`.

    /// Errors constructible from a message, like `serde::de::Error`.
    pub trait Error: Sized {
        /// Builds an error from any displayable message.
        fn custom<T: core::fmt::Display>(msg: T) -> Self;
    }

    /// Marker for types deserializable without borrowing from the input.
    pub trait DeserializeOwned: for<'de> super::Deserialize<'de> {}
    impl<T: for<'de> super::Deserialize<'de>> DeserializeOwned for T {}
}

/// The stub's concrete deserialization error: a plain message.
#[derive(Debug, Clone)]
pub struct StubError(pub String);

impl fmt::Display for StubError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for StubError {}

impl de::Error for StubError {
    fn custom<T: fmt::Display>(msg: T) -> Self {
        StubError(msg.to_string())
    }
}

/// Deserializer over a borrowed [`Value`].
pub struct ValueDeserializer<'de> {
    /// The document to deserialize from.
    pub value: &'de Value,
}

impl<'de> Deserializer<'de> for ValueDeserializer<'de> {
    type Error = StubError;
    fn stub_value(&self) -> &'de Value {
        self.value
    }
}

// Helpers called by `serde_derive`-generated code.

/// Object field lookup (derive helper).
pub fn __stub_field<'a>(v: &'a Value, key: &str) -> Option<&'a Value> {
    v.field(key)
}

/// Deserializes a `Value` into any owned type (derive helper).
pub fn __stub_de<T: de::DeserializeOwned>(v: &Value) -> Result<T, StubError> {
    T::deserialize(ValueDeserializer { value: v })
}

/// True when `v` is an object (derive helper).
pub fn __stub_is_obj(v: &Value) -> bool {
    matches!(v, Value::Obj(_))
}

fn num_err<E: de::Error>(what: &str, v: &Value) -> E {
    E::custom(format!("expected {what}, got {v:?}"))
}

macro_rules! int_impls {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Option<Value> {
                Some(Value::Num(*self as f64))
            }
        }
        impl<'de> Deserialize<'de> for $t {
            fn deserialize<D: Deserializer<'de>>(d: D) -> Result<Self, D::Error> {
                match d.stub_value() {
                    Value::Num(n) if n.fract() == 0.0 => Ok(*n as $t),
                    v => Err(num_err("an integer", v)),
                }
            }
        }
    )*};
}

int_impls!(u16, u32, u64, usize, i16, i32, i64, isize);

// `u8` is the stub sentinel: serialization fails on purpose (see module docs).
impl Serialize for u8 {
    fn to_value(&self) -> Option<Value> {
        None
    }
}

impl Serialize for f64 {
    fn to_value(&self) -> Option<Value> {
        if self.is_finite() {
            Some(Value::Num(*self))
        } else {
            Some(Value::Null)
        }
    }
}

impl<'de> Deserialize<'de> for f64 {
    fn deserialize<D: Deserializer<'de>>(d: D) -> Result<Self, D::Error> {
        match d.stub_value() {
            Value::Num(n) => Ok(*n),
            Value::Null => Ok(f64::NAN),
            v => Err(num_err("a number", v)),
        }
    }
}

impl Serialize for bool {
    fn to_value(&self) -> Option<Value> {
        Some(Value::Bool(*self))
    }
}

impl<'de> Deserialize<'de> for bool {
    fn deserialize<D: Deserializer<'de>>(d: D) -> Result<Self, D::Error> {
        match d.stub_value() {
            Value::Bool(b) => Ok(*b),
            v => Err(num_err("a boolean", v)),
        }
    }
}

impl Serialize for String {
    fn to_value(&self) -> Option<Value> {
        Some(Value::Str(self.clone()))
    }
}

impl Serialize for str {
    fn to_value(&self) -> Option<Value> {
        Some(Value::Str(self.to_string()))
    }
}

impl<'de> Deserialize<'de> for String {
    fn deserialize<D: Deserializer<'de>>(d: D) -> Result<Self, D::Error> {
        match d.stub_value() {
            Value::Str(s) => Ok(s.clone()),
            v => Err(num_err("a string", v)),
        }
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn to_value(&self) -> Option<Value> {
        self.iter().map(Serialize::to_value).collect::<Option<Vec<Value>>>().map(Value::Arr)
    }
}

impl<'de, T: de::DeserializeOwned> Deserialize<'de> for Vec<T> {
    fn deserialize<D: Deserializer<'de>>(d: D) -> Result<Self, D::Error> {
        match d.stub_value() {
            Value::Arr(items) => items
                .iter()
                .map(|v| __stub_de::<T>(v).map_err(|e| de::Error::custom(e.0)))
                .collect(),
            v => Err(num_err("an array", v)),
        }
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn to_value(&self) -> Option<Value> {
        match self {
            Some(x) => x.to_value(),
            None => Some(Value::Null),
        }
    }
}

impl<'de, T: de::DeserializeOwned> Deserialize<'de> for Option<T> {
    fn deserialize<D: Deserializer<'de>>(d: D) -> Result<Self, D::Error> {
        match d.stub_value() {
            Value::Null => Ok(None),
            v => __stub_de::<T>(v).map(Some).map_err(|e| de::Error::custom(e.0)),
        }
    }
}

impl<T: Serialize + ?Sized> Serialize for Box<T> {
    fn to_value(&self) -> Option<Value> {
        (**self).to_value()
    }
}

impl<'de, T: de::DeserializeOwned> Deserialize<'de> for Box<T> {
    fn deserialize<D: Deserializer<'de>>(d: D) -> Result<Self, D::Error> {
        __stub_de::<T>(d.stub_value()).map(Box::new).map_err(|e| de::Error::custom(e.0))
    }
}

impl<T: Serialize + ?Sized> Serialize for &T {
    fn to_value(&self) -> Option<Value> {
        (**self).to_value()
    }
}

impl Serialize for Value {
    fn to_value(&self) -> Option<Value> {
        Some(self.clone())
    }
}

impl<'de> Deserialize<'de> for Value {
    fn deserialize<D: Deserializer<'de>>(d: D) -> Result<Self, D::Error> {
        Ok(d.stub_value().clone())
    }
}

// `From` conversions backing the `serde_json::json!` macro.
macro_rules! from_num {
    ($($t:ty),*) => {$(
        impl From<$t> for Value {
            fn from(v: $t) -> Value { Value::Num(v as f64) }
        }
    )*};
}
from_num!(i32, i64, u32, u64, usize, f64);

impl From<bool> for Value {
    fn from(v: bool) -> Value {
        Value::Bool(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Value {
        Value::Str(v.to_string())
    }
}

impl From<String> for Value {
    fn from(v: String) -> Value {
        Value::Str(v)
    }
}

// `value["key"]` / `value[idx]`, matching serde_json's Value indexing.
impl std::ops::Index<&str> for Value {
    type Output = Value;
    fn index(&self, key: &str) -> &Value {
        self.field(key).unwrap_or_else(|| panic!("no field `{key}` in {self:?}"))
    }
}

impl std::ops::IndexMut<&str> for Value {
    fn index_mut(&mut self, key: &str) -> &mut Value {
        if self.field(key).is_none() {
            if let Value::Obj(pairs) = self {
                pairs.push((key.to_string(), Value::Null));
            } else {
                panic!("cannot index non-object {self:?} with `{key}`");
            }
        }
        self.field_mut(key).unwrap()
    }
}

impl std::ops::Index<usize> for Value {
    type Output = Value;
    fn index(&self, idx: usize) -> &Value {
        match self {
            Value::Arr(items) => &items[idx],
            v => panic!("cannot index non-array {v:?} with {idx}"),
        }
    }
}

impl std::ops::IndexMut<usize> for Value {
    fn index_mut(&mut self, idx: usize) -> &mut Value {
        match self {
            Value::Arr(items) => &mut items[idx],
            v => panic!("cannot index non-array {v:?} with {idx}"),
        }
    }
}
