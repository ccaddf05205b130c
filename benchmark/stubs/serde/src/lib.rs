//! Offline stand-in for the subset of `serde` this repository uses.
//!
//! The container the benchmark builds in has no crate registry, so the
//! benchmark package patches `serde`, `serde_json` and `rand` to local
//! crates. The repository only ever serializes to and from JSON, through
//! `#[derive(Serialize, Deserialize)]` and `serde_json::{to_vec,
//! to_string, from_slice}`, so this stand-in drops serde's generic
//! serializer/visitor machinery: [`Serialize`] writes JSON text straight
//! into a [`json::JsonWriter`], [`Deserialize`] reads from a parsed
//! [`json::Value`] tree. The derive macros (in `serde_derive`) follow
//! serde's JSON shapes: structs as objects, newtypes transparent, enums
//! externally tagged unless `#[serde(tag = "...")]`, and they honour
//! `rename_all = "snake_case"` and `#[serde(default)]`.

pub mod json;

pub use serde_derive::{Deserialize, Serialize};

use json::{Error, JsonWriter, Number, Value};
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet, VecDeque};

/// A value that can write itself as JSON.
pub trait Serialize {
    /// Append this value's JSON text to `out`.
    fn serialize(&self, out: &mut JsonWriter);
}

/// A value that can be rebuilt from a parsed JSON tree.
pub trait Deserialize: Sized {
    /// Rebuild from `value`.
    fn deserialize(value: &Value) -> Result<Self, Error>;

    /// The value a missing object field stands for (`None` for `Option`,
    /// an error for everything else).
    fn missing() -> Option<Self> {
        None
    }

    /// Rebuild from an object key. JSON keys are strings; integer-keyed
    /// maps are written with the number quoted, so try the string first
    /// and then the number it spells.
    fn deserialize_key(key: &str) -> Result<Self, Error> {
        Self::deserialize(&Value::String(key.to_string())).or_else(|first| {
            match json::parse(key.as_bytes()) {
                Ok(v @ Value::Number(_)) => Self::deserialize(&v),
                _ => Err(first),
            }
        })
    }
}

impl<T: Serialize + ?Sized> Serialize for &T {
    fn serialize(&self, out: &mut JsonWriter) {
        (**self).serialize(out);
    }
}

impl<T: Serialize + ?Sized> Serialize for Box<T> {
    fn serialize(&self, out: &mut JsonWriter) {
        (**self).serialize(out);
    }
}

impl<T: Deserialize> Deserialize for Box<T> {
    fn deserialize(value: &Value) -> Result<Self, Error> {
        T::deserialize(value).map(Box::new)
    }
}

impl Serialize for str {
    fn serialize(&self, out: &mut JsonWriter) {
        out.string(self);
    }
}

impl Serialize for String {
    fn serialize(&self, out: &mut JsonWriter) {
        out.string(self);
    }
}

impl Deserialize for String {
    fn deserialize(value: &Value) -> Result<Self, Error> {
        match value {
            Value::String(s) => Ok(s.clone()),
            other => Err(Error::expected("a string", other)),
        }
    }
}

impl Serialize for char {
    fn serialize(&self, out: &mut JsonWriter) {
        out.string(self.encode_utf8(&mut [0u8; 4]));
    }
}

impl Deserialize for char {
    fn deserialize(value: &Value) -> Result<Self, Error> {
        let s = String::deserialize(value)?;
        let mut chars = s.chars();
        match (chars.next(), chars.next()) {
            (Some(c), None) => Ok(c),
            _ => Err(Error::new("expected a single character")),
        }
    }
}

impl Serialize for bool {
    fn serialize(&self, out: &mut JsonWriter) {
        out.raw(if *self { "true" } else { "false" });
    }
}

impl Deserialize for bool {
    fn deserialize(value: &Value) -> Result<Self, Error> {
        match value {
            Value::Bool(b) => Ok(*b),
            other => Err(Error::expected("a boolean", other)),
        }
    }
}

impl Serialize for () {
    fn serialize(&self, out: &mut JsonWriter) {
        out.raw("null");
    }
}

impl Deserialize for () {
    fn deserialize(value: &Value) -> Result<Self, Error> {
        match value {
            Value::Null => Ok(()),
            other => Err(Error::expected("null", other)),
        }
    }
}

macro_rules! int_impls {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn serialize(&self, out: &mut JsonWriter) {
                out.display(self);
            }
        }

        impl Deserialize for $t {
            fn deserialize(value: &Value) -> Result<Self, Error> {
                let converted = match value {
                    Value::Number(Number::U(u)) => <$t>::try_from(*u).ok(),
                    Value::Number(Number::I(i)) => <$t>::try_from(*i).ok(),
                    _ => None,
                };
                converted.ok_or_else(|| Error::expected(concat!("a ", stringify!($t)), value))
            }
        }
    )*};
}
int_impls!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

macro_rules! float_impls {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn serialize(&self, out: &mut JsonWriter) {
                if self.is_finite() {
                    // Debug prints the shortest text that parses back to
                    // the same bits, with a decimal point or exponent.
                    out.debug(self);
                } else {
                    out.raw("null");
                }
            }
        }

        impl Deserialize for $t {
            fn deserialize(value: &Value) -> Result<Self, Error> {
                match value {
                    Value::Number(n) => Ok(n.as_f64() as $t),
                    other => Err(Error::expected("a number", other)),
                }
            }
        }
    )*};
}
float_impls!(f32, f64);

impl<T: Serialize> Serialize for Option<T> {
    fn serialize(&self, out: &mut JsonWriter) {
        match self {
            Some(v) => v.serialize(out),
            None => out.raw("null"),
        }
    }
}

impl<T: Deserialize> Deserialize for Option<T> {
    fn deserialize(value: &Value) -> Result<Self, Error> {
        match value {
            Value::Null => Ok(None),
            other => T::deserialize(other).map(Some),
        }
    }

    fn missing() -> Option<Self> {
        Some(None)
    }
}

fn serialize_seq<'a, T: Serialize + 'a>(items: impl Iterator<Item = &'a T>, out: &mut JsonWriter) {
    out.begin_array();
    for item in items {
        out.element();
        item.serialize(out);
    }
    out.end_array();
}

fn deserialize_seq<T: Deserialize, C: FromIterator<T>>(value: &Value) -> Result<C, Error> {
    match value {
        Value::Array(items) => items.iter().map(T::deserialize).collect(),
        other => Err(Error::expected("an array", other)),
    }
}

impl<T: Serialize> Serialize for [T] {
    fn serialize(&self, out: &mut JsonWriter) {
        serialize_seq(self.iter(), out);
    }
}

impl<T: Serialize, const N: usize> Serialize for [T; N] {
    fn serialize(&self, out: &mut JsonWriter) {
        serialize_seq(self.iter(), out);
    }
}

impl<T: Deserialize, const N: usize> Deserialize for [T; N] {
    fn deserialize(value: &Value) -> Result<Self, Error> {
        let items: Vec<T> = deserialize_seq(value)?;
        items
            .try_into()
            .map_err(|_| Error::new(format!("expected an array of length {N}")))
    }
}

macro_rules! seq_impls {
    ($($c:ident $(: $bound:ident $(+ $more:ident)*)?),*) => {$(
        impl<T: Serialize> Serialize for $c<T> {
            fn serialize(&self, out: &mut JsonWriter) {
                serialize_seq(self.iter(), out);
            }
        }

        impl<T: Deserialize $(+ $bound $(+ $more)*)?> Deserialize for $c<T> {
            fn deserialize(value: &Value) -> Result<Self, Error> {
                deserialize_seq(value)
            }
        }
    )*};
}
use std::hash::Hash;
seq_impls!(Vec, VecDeque, BTreeSet: Ord, HashSet: Eq + Hash);

macro_rules! map_impls {
    ($($c:ident: $bound:ident $(+ $more:ident)*),*) => {$(
        impl<K: Serialize, V: Serialize> Serialize for $c<K, V> {
            fn serialize(&self, out: &mut JsonWriter) {
                out.begin_object();
                for (k, v) in self {
                    out.key_of(k);
                    v.serialize(out);
                }
                out.end_object();
            }
        }

        impl<K: Deserialize + $bound $(+ $more)*, V: Deserialize> Deserialize for $c<K, V> {
            fn deserialize(value: &Value) -> Result<Self, Error> {
                match value {
                    Value::Object(fields) => fields
                        .iter()
                        .map(|(k, v)| Ok((K::deserialize_key(k)?, V::deserialize(v)?)))
                        .collect(),
                    other => Err(Error::expected("an object", other)),
                }
            }
        }
    )*};
}
map_impls!(BTreeMap: Ord, HashMap: Eq + Hash);

macro_rules! tuple_impls {
    ($(($($name:ident . $idx:tt),+)),*) => {$(
        impl<$($name: Serialize),+> Serialize for ($($name,)+) {
            fn serialize(&self, out: &mut JsonWriter) {
                out.begin_array();
                $(out.element(); self.$idx.serialize(out);)+
                out.end_array();
            }
        }

        impl<$($name: Deserialize),+> Deserialize for ($($name,)+) {
            fn deserialize(value: &Value) -> Result<Self, Error> {
                let items = value.as_tuple([$($idx),+].len())?;
                Ok(($($name::deserialize(&items[$idx])?,)+))
            }
        }
    )*};
}
tuple_impls!(
    (A.0),
    (A.0, B.1),
    (A.0, B.1, C.2),
    (A.0, B.1, C.2, D.3),
    (A.0, B.1, C.2, D.3, E.4),
    (A.0, B.1, C.2, D.3, E.4, F.5)
);

impl Serialize for Value {
    fn serialize(&self, out: &mut JsonWriter) {
        match self {
            Value::Null => out.raw("null"),
            Value::Bool(b) => b.serialize(out),
            Value::Number(Number::U(u)) => u.serialize(out),
            Value::Number(Number::I(i)) => i.serialize(out),
            Value::Number(Number::F(f)) => f.serialize(out),
            Value::String(s) => out.string(s),
            Value::Array(items) => serialize_seq(items.iter(), out),
            Value::Object(fields) => {
                out.begin_object();
                for (k, v) in fields {
                    out.key(k);
                    v.serialize(out);
                }
                out.end_object();
            }
        }
    }
}

impl Deserialize for Value {
    fn deserialize(value: &Value) -> Result<Self, Error> {
        Ok(value.clone())
    }
}
