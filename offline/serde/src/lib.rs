//! Offline stand-in for the `serde` crate.
//!
//! The build environment for this repository has no access to crates.io, so
//! the workspace patches `serde` to this crate (see `[patch.crates-io]` in the
//! root `Cargo.toml` and `offline/README.md`). It implements the subset of
//! serde actually used by the workspace with a simplified data model:
//!
//! * [`Serialize`] lowers a value to a [`Content`] tree.
//! * [`Deserialize`] rebuilds a value from a [`Content`] tree.
//! * `#[derive(Serialize, Deserialize)]` is provided by the sibling
//!   `serde_derive` stand-in, which generates impls of these traits for
//!   plain structs, newtype structs, and externally tagged enums — the same
//!   JSON representation real serde produces for the types in this repo
//!   (none of which use `#[serde(...)]` attributes or generics).
//!
//! The API surface is intentionally minimal; anything the workspace does not
//! use is omitted. Values round-trip through `serde_json` (also patched)
//! byte-compatibly with real serde for the types in this repository.

#![allow(clippy::missing_errors_doc)]

pub use serde_derive::{Deserialize, Serialize};

use std::collections::{BTreeMap, HashMap};
use std::fmt;

/// Self-describing intermediate representation produced by [`Serialize`] and
/// consumed by [`Deserialize`]. Integers keep their signedness so formats can
/// render `3` and `3.0` differently, matching real serde_json.
#[derive(Debug, Clone, PartialEq)]
pub enum Content {
    Null,
    Bool(bool),
    U64(u64),
    I64(i64),
    F64(f64),
    Str(String),
    Seq(Vec<Content>),
    /// Insertion-ordered map (struct fields keep declaration order).
    Map(Vec<(String, Content)>),
}

impl Content {
    #[must_use]
    pub fn as_map_slice(&self) -> Option<&[(String, Content)]> {
        match self {
            Content::Map(m) => Some(m),
            _ => None,
        }
    }

    #[must_use]
    pub fn map_get(&self, key: &str) -> Option<&Content> {
        self.as_map_slice()
            .and_then(|m| m.iter().find(|(k, _)| k == key).map(|(_, v)| v))
    }
}

/// Deserialization error. Carries a human-readable message only.
#[derive(Debug, Clone)]
pub struct DeError(String);

impl DeError {
    #[must_use]
    pub fn custom(msg: impl Into<String>) -> Self {
        DeError(msg.into())
    }
}

impl fmt::Display for DeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for DeError {}

/// Serialize a value into the [`Content`] tree.
pub trait Serialize {
    fn to_content(&self) -> Content;
}

/// Deserialize a value from a [`Content`] tree.
pub trait Deserialize: Sized {
    fn from_content(content: &Content) -> Result<Self, DeError>;

    /// Hook used by derived struct impls when a field is absent from the
    /// input map. `Option<T>` overrides this to yield `None`; everything else
    /// reports a missing-field error, matching real serde's derive.
    #[doc(hidden)]
    fn missing_field(field: &str) -> Result<Self, DeError> {
        Err(DeError::custom(format!("missing field `{field}`")))
    }
}

/// Helper used by derived code: look up `key` in a struct map and
/// deserialize it, falling back to [`Deserialize::missing_field`].
#[doc(hidden)]
pub fn de_field<T: Deserialize>(map: &[(String, Content)], key: &str) -> Result<T, DeError> {
    match map.iter().find(|(k, _)| k == key) {
        Some((_, v)) => T::from_content(v)
            .map_err(|e| DeError::custom(format!("field `{key}`: {e}"))),
        None => T::missing_field(key),
    }
}

// ---------------------------------------------------------------------------
// Primitive impls
// ---------------------------------------------------------------------------

impl Serialize for bool {
    fn to_content(&self) -> Content {
        Content::Bool(*self)
    }
}

impl Deserialize for bool {
    fn from_content(content: &Content) -> Result<Self, DeError> {
        match content {
            Content::Bool(b) => Ok(*b),
            other => Err(DeError::custom(format!("expected bool, got {other:?}"))),
        }
    }
}

macro_rules! impl_unsigned {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_content(&self) -> Content {
                Content::U64(u64::from(*self))
            }
        }
        impl Deserialize for $t {
            fn from_content(content: &Content) -> Result<Self, DeError> {
                let raw = match content {
                    Content::U64(v) => *v,
                    Content::I64(v) if *v >= 0 => {
                        #[allow(clippy::cast_sign_loss)]
                        { *v as u64 }
                    }
                    other => {
                        return Err(DeError::custom(format!(
                            concat!("expected ", stringify!($t), ", got {:?}"),
                            other
                        )))
                    }
                };
                <$t>::try_from(raw).map_err(|_| {
                    DeError::custom(format!(
                        concat!("value {} out of range for ", stringify!($t)),
                        raw
                    ))
                })
            }
        }
    )*};
}

impl_unsigned!(u8, u16, u32);

impl Serialize for u64 {
    fn to_content(&self) -> Content {
        Content::U64(*self)
    }
}

impl Deserialize for u64 {
    fn from_content(content: &Content) -> Result<Self, DeError> {
        match content {
            Content::U64(v) => Ok(*v),
            Content::I64(v) if *v >= 0 => {
                #[allow(clippy::cast_sign_loss)]
                Ok(*v as u64)
            }
            other => Err(DeError::custom(format!("expected u64, got {other:?}"))),
        }
    }
}

impl Serialize for usize {
    fn to_content(&self) -> Content {
        Content::U64(*self as u64)
    }
}

impl Deserialize for usize {
    fn from_content(content: &Content) -> Result<Self, DeError> {
        let raw = u64::from_content(content)
            .map_err(|_| DeError::custom(format!("expected usize, got {content:?}")))?;
        usize::try_from(raw)
            .map_err(|_| DeError::custom(format!("value {raw} out of range for usize")))
    }
}

macro_rules! impl_signed {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_content(&self) -> Content {
                let v = i64::from(*self);
                if v >= 0 {
                    #[allow(clippy::cast_sign_loss)]
                    Content::U64(v as u64)
                } else {
                    Content::I64(v)
                }
            }
        }
        impl Deserialize for $t {
            fn from_content(content: &Content) -> Result<Self, DeError> {
                let raw: i64 = match content {
                    Content::I64(v) => *v,
                    Content::U64(v) => i64::try_from(*v).map_err(|_| {
                        DeError::custom(format!("value {} out of range for i64", v))
                    })?,
                    other => {
                        return Err(DeError::custom(format!(
                            concat!("expected ", stringify!($t), ", got {:?}"),
                            other
                        )))
                    }
                };
                <$t>::try_from(raw).map_err(|_| {
                    DeError::custom(format!(
                        concat!("value {} out of range for ", stringify!($t)),
                        raw
                    ))
                })
            }
        }
    )*};
}

impl_signed!(i8, i16, i32);

impl Serialize for i64 {
    fn to_content(&self) -> Content {
        if *self >= 0 {
            #[allow(clippy::cast_sign_loss)]
            Content::U64(*self as u64)
        } else {
            Content::I64(*self)
        }
    }
}

impl Deserialize for i64 {
    fn from_content(content: &Content) -> Result<Self, DeError> {
        match content {
            Content::I64(v) => Ok(*v),
            Content::U64(v) => i64::try_from(*v)
                .map_err(|_| DeError::custom(format!("value {v} out of range for i64"))),
            other => Err(DeError::custom(format!("expected i64, got {other:?}"))),
        }
    }
}

impl Serialize for isize {
    fn to_content(&self) -> Content {
        (*self as i64).to_content()
    }
}

impl Deserialize for isize {
    fn from_content(content: &Content) -> Result<Self, DeError> {
        let raw = i64::from_content(content)?;
        isize::try_from(raw)
            .map_err(|_| DeError::custom(format!("value {raw} out of range for isize")))
    }
}

impl Serialize for f64 {
    fn to_content(&self) -> Content {
        Content::F64(*self)
    }
}

impl Deserialize for f64 {
    fn from_content(content: &Content) -> Result<Self, DeError> {
        match content {
            Content::F64(v) => Ok(*v),
            #[allow(clippy::cast_precision_loss)]
            Content::U64(v) => Ok(*v as f64),
            #[allow(clippy::cast_precision_loss)]
            Content::I64(v) => Ok(*v as f64),
            other => Err(DeError::custom(format!("expected f64, got {other:?}"))),
        }
    }
}

impl Serialize for f32 {
    fn to_content(&self) -> Content {
        Content::F64(f64::from(*self))
    }
}

impl Deserialize for f32 {
    fn from_content(content: &Content) -> Result<Self, DeError> {
        #[allow(clippy::cast_possible_truncation)]
        f64::from_content(content).map(|v| v as f32)
    }
}

impl Serialize for String {
    fn to_content(&self) -> Content {
        Content::Str(self.clone())
    }
}

impl Deserialize for String {
    fn from_content(content: &Content) -> Result<Self, DeError> {
        match content {
            Content::Str(s) => Ok(s.clone()),
            other => Err(DeError::custom(format!("expected string, got {other:?}"))),
        }
    }
}

impl Serialize for str {
    fn to_content(&self) -> Content {
        Content::Str(self.to_string())
    }
}

impl Serialize for char {
    fn to_content(&self) -> Content {
        Content::Str(self.to_string())
    }
}

// ---------------------------------------------------------------------------
// Composite impls
// ---------------------------------------------------------------------------

impl<T: Serialize + ?Sized> Serialize for &T {
    fn to_content(&self) -> Content {
        (**self).to_content()
    }
}

impl<T: Serialize + ?Sized> Serialize for Box<T> {
    fn to_content(&self) -> Content {
        (**self).to_content()
    }
}

impl<T: Deserialize> Deserialize for Box<T> {
    fn from_content(content: &Content) -> Result<Self, DeError> {
        T::from_content(content).map(Box::new)
    }
}

/// Shared pointers serialize as their contents, as with real serde's `rc`
/// feature: a shared value is written out once per pointer, and reading it
/// back allocates a fresh one per field.
#[cfg(feature = "rc")]
impl<T: Serialize + ?Sized> Serialize for std::sync::Arc<T> {
    fn to_content(&self) -> Content {
        (**self).to_content()
    }
}

#[cfg(feature = "rc")]
impl Deserialize for std::sync::Arc<str> {
    fn from_content(content: &Content) -> Result<Self, DeError> {
        String::from_content(content).map(std::sync::Arc::from)
    }
}

#[cfg(feature = "rc")]
impl<T: Deserialize> Deserialize for std::sync::Arc<[T]> {
    fn from_content(content: &Content) -> Result<Self, DeError> {
        Vec::<T>::from_content(content).map(std::sync::Arc::from)
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn to_content(&self) -> Content {
        match self {
            Some(v) => v.to_content(),
            None => Content::Null,
        }
    }
}

impl<T: Deserialize> Deserialize for Option<T> {
    fn from_content(content: &Content) -> Result<Self, DeError> {
        match content {
            Content::Null => Ok(None),
            other => T::from_content(other).map(Some),
        }
    }

    fn missing_field(_field: &str) -> Result<Self, DeError> {
        Ok(None)
    }
}

impl<T: Serialize> Serialize for [T] {
    fn to_content(&self) -> Content {
        Content::Seq(self.iter().map(Serialize::to_content).collect())
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn to_content(&self) -> Content {
        self.as_slice().to_content()
    }
}

impl<T: Deserialize> Deserialize for Vec<T> {
    fn from_content(content: &Content) -> Result<Self, DeError> {
        match content {
            Content::Seq(items) => items.iter().map(T::from_content).collect(),
            other => Err(DeError::custom(format!("expected sequence, got {other:?}"))),
        }
    }
}

impl<T: Serialize, const N: usize> Serialize for [T; N] {
    fn to_content(&self) -> Content {
        self.as_slice().to_content()
    }
}

macro_rules! impl_tuple {
    ($(($($name:ident : $idx:tt),+))*) => {$(
        impl<$($name: Serialize),+> Serialize for ($($name,)+) {
            fn to_content(&self) -> Content {
                Content::Seq(vec![$(self.$idx.to_content()),+])
            }
        }
        impl<$($name: Deserialize),+> Deserialize for ($($name,)+) {
            fn from_content(content: &Content) -> Result<Self, DeError> {
                let items = match content {
                    Content::Seq(items) => items,
                    other => {
                        return Err(DeError::custom(format!(
                            "expected tuple sequence, got {other:?}"
                        )))
                    }
                };
                let expected = [$($idx,)+].len();
                if items.len() != expected {
                    return Err(DeError::custom(format!(
                        "expected tuple of {expected}, got {} elements",
                        items.len()
                    )));
                }
                Ok(($($name::from_content(&items[$idx])?,)+))
            }
        }
    )*};
}

impl_tuple! {
    (A: 0)
    (A: 0, B: 1)
    (A: 0, B: 1, C: 2)
    (A: 0, B: 1, C: 2, D: 3)
}

impl<V: Serialize> Serialize for BTreeMap<String, V> {
    fn to_content(&self) -> Content {
        Content::Map(self.iter().map(|(k, v)| (k.clone(), v.to_content())).collect())
    }
}

impl<V: Deserialize> Deserialize for BTreeMap<String, V> {
    fn from_content(content: &Content) -> Result<Self, DeError> {
        match content {
            Content::Map(entries) => entries
                .iter()
                .map(|(k, v)| V::from_content(v).map(|v| (k.clone(), v)))
                .collect(),
            other => Err(DeError::custom(format!("expected map, got {other:?}"))),
        }
    }
}

impl<V: Serialize> Serialize for HashMap<String, V> {
    fn to_content(&self) -> Content {
        // Sort for deterministic output, like serde_json's default BTreeMap-backed maps.
        let mut entries: Vec<(&String, &V)> = self.iter().collect();
        entries.sort_by(|a, b| a.0.cmp(b.0));
        Content::Map(
            entries
                .into_iter()
                .map(|(k, v)| (k.clone(), v.to_content()))
                .collect(),
        )
    }
}

impl<V: Deserialize> Deserialize for HashMap<String, V> {
    fn from_content(content: &Content) -> Result<Self, DeError> {
        match content {
            Content::Map(entries) => entries
                .iter()
                .map(|(k, v)| V::from_content(v).map(|v| (k.clone(), v)))
                .collect(),
            other => Err(DeError::custom(format!("expected map, got {other:?}"))),
        }
    }
}

impl Serialize for Content {
    fn to_content(&self) -> Content {
        self.clone()
    }
}

impl Deserialize for Content {
    fn from_content(content: &Content) -> Result<Self, DeError> {
        Ok(content.clone())
    }
}

impl Serialize for () {
    fn to_content(&self) -> Content {
        Content::Null
    }
}

impl Deserialize for () {
    fn from_content(content: &Content) -> Result<Self, DeError> {
        match content {
            Content::Null => Ok(()),
            other => Err(DeError::custom(format!("expected null, got {other:?}"))),
        }
    }
}
