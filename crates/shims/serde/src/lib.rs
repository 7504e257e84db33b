//! Offline, API-compatible subset of `serde` for this workspace.
//!
//! The build container has no crates.io access, so the workspace vendors the
//! thin slice of serde it actually uses: a JSON-shaped [`Value`] data model
//! that `serde_json` (the sibling shim) prints and parses, the [`Serialize`]
//! trait that lowers a report into it, and two macros that implement it for
//! report structs ([`serialize_struct!`]) and fieldless enums
//! ([`serialize_unit_enum!`]).
//!
//! JSON is write-only for the workspace's own types: reports and figure rows
//! serialize, nothing deserializes. The one [`Deserialize`] impl is for
//! [`Value`] itself, so JSON text can be parsed into a tree and inspected.
//! Stateful types persist through `capes-persist`, not through this shim.

#![forbid(unsafe_code)]

/// JSON-shaped intermediate value every serializable type lowers to.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// JSON `null`.
    Null,
    /// JSON boolean.
    Bool(bool),
    /// Unsigned integer (printed without a decimal point).
    U64(u64),
    /// Signed integer (printed without a decimal point).
    I64(i64),
    /// Floating-point number.
    F64(f64),
    /// String.
    Str(String),
    /// Array.
    Seq(Vec<Value>),
    /// Object; insertion order is preserved.
    Map(Vec<(String, Value)>),
}

impl Value {
    /// The entries of an object, if this value is one.
    pub fn as_map(&self) -> Option<&[(String, Value)]> {
        match self {
            Value::Map(entries) => Some(entries),
            _ => None,
        }
    }

    /// The elements of an array, if this value is one.
    pub fn as_seq(&self) -> Option<&[Value]> {
        match self {
            Value::Seq(items) => Some(items),
            _ => None,
        }
    }

    /// Numeric coercion: any of the three number variants as `f64`.
    pub fn as_f64(&self) -> Option<f64> {
        match *self {
            Value::U64(v) => Some(v as f64),
            Value::I64(v) => Some(v as f64),
            Value::F64(v) => Some(v),
            _ => None,
        }
    }

    /// Numeric coercion to `u64` (accepts integral floats).
    pub fn as_u64(&self) -> Option<u64> {
        match *self {
            Value::U64(v) => Some(v),
            Value::I64(v) if v >= 0 => Some(v as u64),
            Value::F64(v) if v >= 0.0 && v.fract() == 0.0 && v <= u64::MAX as f64 => Some(v as u64),
            _ => None,
        }
    }

    /// Numeric coercion to `i64` (accepts integral floats).
    pub fn as_i64(&self) -> Option<i64> {
        match *self {
            Value::U64(v) if v <= i64::MAX as u64 => Some(v as i64),
            Value::I64(v) => Some(v),
            Value::F64(v) if v.fract() == 0.0 && v.abs() <= i64::MAX as f64 => Some(v as i64),
            _ => None,
        }
    }

    /// The string payload, if this value is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The boolean payload, if this value is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match *self {
            Value::Bool(b) => Some(b),
            _ => None,
        }
    }
}

/// Looks up `key` in the entry list of an object value.
pub fn map_get<'a>(entries: &'a [(String, Value)], key: &str) -> Option<&'a Value> {
    entries.iter().find(|(k, _)| k == key).map(|(_, v)| v)
}

/// A type that can lower itself into the [`Value`] data model.
pub trait Serialize {
    /// Lowers `self` to a [`Value`] tree.
    fn to_value(&self) -> Value;
}

/// A type that can be built from a parsed [`Value`] tree. Only [`Value`]
/// implements it: JSON text parses into a tree and is inspected as one.
pub trait Deserialize {
    /// Builds `Self` from a [`Value`] tree.
    fn from_value(value: Value) -> Self;
}

/// Implements [`Serialize`] for a struct with named fields: a JSON object
/// whose keys are the listed fields, in the listed (declaration) order. The
/// generated body destructures `self` without `..`, so a field missing from
/// the list is a compile error.
#[macro_export]
macro_rules! serialize_struct {
    ($ty:ident { $($field:ident),+ $(,)? }) => {
        impl $crate::Serialize for $ty {
            fn to_value(&self) -> $crate::Value {
                let $ty { $($field),+ } = self;
                $crate::Value::Map(vec![
                    $((stringify!($field).to_string(), $crate::Serialize::to_value($field))),+
                ])
            }
        }
    };
}

/// Implements [`Serialize`] for a fieldless enum: each variant as a string
/// of its name. The match lists every variant, so one missing from the list
/// is a compile error.
#[macro_export]
macro_rules! serialize_unit_enum {
    ($ty:ident { $($variant:ident),+ $(,)? }) => {
        impl $crate::Serialize for $ty {
            fn to_value(&self) -> $crate::Value {
                let name = match self {
                    $($ty::$variant => stringify!($variant)),+
                };
                $crate::Value::Str(name.to_string())
            }
        }
    };
}

macro_rules! impl_serialize {
    ($variant:ident as $as:ty: $($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value {
                Value::$variant(*self as $as)
            }
        }
    )*};
}

impl_serialize!(U64 as u64: u64, usize);
impl_serialize!(F64 as f64: f64);

impl Serialize for bool {
    fn to_value(&self) -> Value {
        Value::Bool(*self)
    }
}

impl Serialize for String {
    fn to_value(&self) -> Value {
        Value::Str(self.clone())
    }
}

impl<T: Serialize> Serialize for [T] {
    fn to_value(&self) -> Value {
        Value::Seq(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn to_value(&self) -> Value {
        self.as_slice().to_value()
    }
}

impl<A: Serialize, B: Serialize> Serialize for (A, B) {
    fn to_value(&self) -> Value {
        Value::Seq(vec![self.0.to_value(), self.1.to_value()])
    }
}

impl Serialize for Value {
    fn to_value(&self) -> Value {
        self.clone()
    }
}

impl Deserialize for Value {
    fn from_value(value: Value) -> Self {
        value
    }
}
