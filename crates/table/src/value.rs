//! Dynamically typed cell values.

use std::fmt;

/// The type of a column.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DataType {
    /// Boolean values.
    Bool,
    /// 64-bit signed integers.
    Int,
    /// 64-bit floats.
    Float,
    /// UTF-8 strings.
    Str,
}

impl fmt::Display for DataType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            DataType::Bool => "bool",
            DataType::Int => "int",
            DataType::Float => "float",
            DataType::Str => "str",
        };
        f.write_str(s)
    }
}

/// One cell of a table: a typed scalar or NULL.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// SQL NULL.
    Null,
    /// Boolean.
    Bool(bool),
    /// Integer.
    Int(i64),
    /// Float.
    Float(f64),
    /// String.
    Str(String),
}

impl Value {
    /// The data type of this value, or `None` for NULL.
    pub fn data_type(&self) -> Option<DataType> {
        match self {
            Value::Null => None,
            Value::Bool(_) => Some(DataType::Bool),
            Value::Int(_) => Some(DataType::Int),
            Value::Float(_) => Some(DataType::Float),
            Value::Str(_) => Some(DataType::Str),
        }
    }

    /// Whether this value is NULL.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Extracts a bool, if the value is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Extracts an integer, if the value is one.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// Extracts a float; integers widen losslessly.
    pub fn as_float(&self) -> Option<f64> {
        match self {
            Value::Float(f) => Some(*f),
            Value::Int(i) => Some(*i as f64),
            _ => None,
        }
    }

    /// Extracts a string slice, if the value is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// A 64-bit content fingerprint, stable across processes.
    ///
    /// Feeds [`crate::table::Table`]'s version fingerprint: equal values
    /// (including NaN payload and type, so `Int(1)` ≠ `Float(1.0)`) hash
    /// equal, and the type tag keeps cross-type collisions structural
    /// rather than accidental.
    pub fn fingerprint(&self) -> u64 {
        self.sort_key().fingerprint()
    }

    /// A total-order key usable for grouping and sorting.
    ///
    /// NULLs sort first; floats order by IEEE total ordering so NaNs are
    /// grouped consistently rather than poisoning comparisons.
    pub fn sort_key(&self) -> ValueKey<'_> {
        match self {
            Value::Null => ValueKey::Null,
            Value::Bool(b) => ValueKey::Bool(*b),
            Value::Int(i) => ValueKey::Int(*i),
            Value::Float(f) => ValueKey::Float(total_order_bits(*f)),
            Value::Str(s) => ValueKey::Str(s),
        }
    }
}

/// SplitMix64 finalizer: diffuses a 64-bit word into a fingerprint.
fn splitmix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Maps a float to bits that order identically to IEEE total order.
///
/// Shared with the grouping kernels in [`crate::kernels`], which key float
/// dictionaries by these bits so distinct NaN payloads stay distinct groups
/// exactly as [`Value::sort_key`] would order them.
pub(crate) fn total_order_bits(f: f64) -> u64 {
    let bits = f.to_bits();
    if bits >> 63 == 0 {
        bits | (1 << 63)
    } else {
        !bits
    }
}

/// A borrowed, hashable, totally ordered key for a [`Value`].
///
/// Used as the group-by key: deriving `Ord`/`Hash` here is safe because the
/// float variant stores total-order bits instead of a raw `f64`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ValueKey<'a> {
    /// NULL (sorts first).
    Null,
    /// Boolean key.
    Bool(bool),
    /// Integer key.
    Int(i64),
    /// Float key in total-order bit representation.
    Float(u64),
    /// String key.
    Str(&'a str),
}

impl ValueKey<'_> {
    /// [`Value::fingerprint`] of the value this key was taken from,
    /// computed from the borrowed key — the columnar constructor
    /// fingerprints typed cells and dictionary entries without building
    /// an owned [`Value`] for each.
    pub fn fingerprint(self) -> u64 {
        const GOLDEN: u64 = 0x9E37_79B9_7F4A_7C15;
        let (tag, body) = match self {
            ValueKey::Null => (0u64, 0u64),
            ValueKey::Bool(b) => (1, b as u64),
            ValueKey::Int(i) => (2, i as u64),
            ValueKey::Float(bits) => (3, bits),
            ValueKey::Str(s) => (4, expred_stats::hash::fnv1a(s.as_bytes())),
        };
        splitmix(tag.wrapping_mul(GOLDEN) ^ body)
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => f.write_str(""),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Float(x) => write!(f, "{x}"),
            Value::Str(s) => f.write_str(s),
        }
    }
}

impl From<bool> for Value {
    fn from(b: bool) -> Self {
        Value::Bool(b)
    }
}

impl From<i64> for Value {
    fn from(i: i64) -> Self {
        Value::Int(i)
    }
}

impl From<f64> for Value {
    fn from(f: f64) -> Self {
        Value::Float(f)
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::Str(s.to_owned())
    }
}

impl From<String> for Value {
    fn from(s: String) -> Self {
        Value::Str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accessors_round_trip() {
        assert_eq!(Value::Bool(true).as_bool(), Some(true));
        assert_eq!(Value::Int(-3).as_int(), Some(-3));
        assert_eq!(Value::Float(2.5).as_float(), Some(2.5));
        assert_eq!(Value::Int(2).as_float(), Some(2.0));
        assert_eq!(Value::Str("hi".into()).as_str(), Some("hi"));
        assert!(Value::Null.is_null());
        assert_eq!(Value::Null.as_int(), None);
    }

    #[test]
    fn data_types() {
        assert_eq!(Value::Bool(false).data_type(), Some(DataType::Bool));
        assert_eq!(Value::Null.data_type(), None);
        assert_eq!(DataType::Str.to_string(), "str");
    }

    #[test]
    fn sort_keys_order_sensibly() {
        let mut vals = [
            Value::Float(2.0),
            Value::Float(-1.0),
            Value::Float(0.0),
            Value::Float(f64::NAN),
        ];
        vals.sort_by(|a, b| a.sort_key().cmp(&b.sort_key()));
        assert_eq!(vals[0].as_float(), Some(-1.0));
        assert_eq!(vals[1].as_float(), Some(0.0));
        assert_eq!(vals[2].as_float(), Some(2.0));
        assert!(vals[3].as_float().unwrap().is_nan());
    }

    #[test]
    fn null_sorts_first() {
        let a = Value::Null.sort_key();
        let b = Value::Int(i64::MIN).sort_key();
        assert!(a < b);
    }

    #[test]
    fn nan_keys_group_together() {
        let k1 = Value::Float(f64::NAN).sort_key();
        let k2 = Value::Float(f64::NAN).sort_key();
        assert_eq!(k1, k2);
    }

    #[test]
    fn conversions() {
        assert_eq!(Value::from(3i64), Value::Int(3));
        assert_eq!(Value::from(true), Value::Bool(true));
        assert_eq!(Value::from("x"), Value::Str("x".into()));
        assert_eq!(Value::from(1.5), Value::Float(1.5));
    }

    #[test]
    fn display_formats() {
        assert_eq!(Value::Int(7).to_string(), "7");
        assert_eq!(Value::Null.to_string(), "");
        assert_eq!(Value::Str("ab".into()).to_string(), "ab");
    }
}
