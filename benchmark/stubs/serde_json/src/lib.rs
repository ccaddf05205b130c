//! Offline stand-in for the subset of `serde_json` this repository uses.
//! The data model, writer and parser live in the `serde` stand-in; this
//! crate is the familiar function names over them.

pub use serde::json::{Error, Map, Value};
use serde::json::{parse, JsonWriter};
use serde::{Deserialize, Serialize};

/// Result alias matching the published crate.
pub type Result<T> = std::result::Result<T, Error>;

/// Serialize to compact JSON bytes.
pub fn to_vec<T: Serialize + ?Sized>(value: &T) -> Result<Vec<u8>> {
    let mut out = JsonWriter::new();
    value.serialize(&mut out);
    Ok(out.into_bytes())
}

/// Serialize to a compact JSON string.
pub fn to_string<T: Serialize + ?Sized>(value: &T) -> Result<String> {
    let bytes = to_vec(value)?;
    String::from_utf8(bytes).map_err(|e| Error::new(e.to_string()))
}

/// Serialize to an indented JSON string.
pub fn to_string_pretty<T: Serialize + ?Sized>(value: &T) -> Result<String> {
    Ok(to_value(value)?.pretty())
}

/// Serialize into a [`Value`] tree.
pub fn to_value<T: Serialize + ?Sized>(value: &T) -> Result<Value> {
    parse(&to_vec(value)?)
}

/// Deserialize from JSON bytes.
pub fn from_slice<T: Deserialize>(bytes: &[u8]) -> Result<T> {
    T::deserialize(&parse(bytes)?)
}

/// Deserialize from a JSON string.
pub fn from_str<T: Deserialize>(text: &str) -> Result<T> {
    from_slice(text.as_bytes())
}

/// Deserialize from a [`Value`] tree.
pub fn from_value<T: Deserialize>(value: Value) -> Result<T> {
    T::deserialize(&value)
}
