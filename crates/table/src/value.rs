//! The text view of a cell, and hashable join keys.

use std::fmt;

/// A single dynamically typed cell in a table.
///
/// `Value` is the read-only text view of one cell: row access
/// ([`crate::Column::get`], [`crate::Column::iter`]), display, CSV writing
/// and the catalog read. Columns are never built from `Value`s, and keys
/// never come from them: storage is the typed [`crate::ColumnData`] inside
/// each [`crate::Column`], and [`crate::Column::keys`] reads it directly.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// Missing value (SQL NULL).
    Null,
    /// 64-bit signed integer.
    Int(i64),
    /// 64-bit float.
    Float(f64),
    /// UTF-8 string (categorical or free text).
    Str(String),
    /// Boolean.
    Bool(bool),
    /// Timestamp as integer ticks (e.g. seconds since epoch). ARDA's soft
    /// time joins operate on this representation.
    Timestamp(i64),
}

impl Value {
    /// True when the value is [`Value::Null`].
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Integer view, if exact.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Int(v) => Some(*v),
            Value::Timestamp(v) => Some(*v),
            Value::Bool(b) => Some(*b as i64),
            _ => None,
        }
    }

    /// String view for categorical handling.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => write!(f, "null"),
            Value::Int(v) => write!(f, "{v}"),
            Value::Float(v) => write!(f, "{v}"),
            Value::Str(s) => write!(f, "{s}"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Timestamp(v) => write!(f, "@{v}"),
        }
    }
}

/// Hashable, equality-comparable key of one row, as [`crate::Column::keys`]
/// builds it from typed storage.
///
/// Floats are keyed by bit pattern, never NaN and with −0.0 stored as
/// +0.0, so the derived `Eq`/`Hash` are sound and the two zeros match.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Key {
    /// Integer (also used for timestamps).
    Int(i64),
    /// Float bits (never NaN, never −0.0).
    Float(u64),
    /// String.
    Str(String),
    /// Boolean.
    Bool(bool),
    /// Composite key for multi-column joins.
    Composite(Vec<Key>),
}

impl Key {
    /// Build a composite key from per-column keys; `None` (null) in any part
    /// poisons the whole key, matching SQL null-join semantics.
    pub fn composite(parts: Vec<Option<Key>>) -> Option<Key> {
        parts.into_iter().collect::<Option<_>>().map(Key::Composite)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Column;
    use std::collections::HashMap;

    #[test]
    fn null_detection() {
        assert!(Value::Null.is_null());
        assert!(!Value::Int(0).is_null());
    }

    #[test]
    fn numeric_views() {
        assert_eq!(Value::Int(3).as_i64(), Some(3));
        assert_eq!(Value::Timestamp(10).as_i64(), Some(10));
        assert_eq!(Value::Bool(true).as_i64(), Some(1));
        assert_eq!(Value::Float(2.0).as_i64(), None);
        assert_eq!(Value::Str("x".into()).as_i64(), None);
        assert_eq!(Value::Null.as_i64(), None);
        assert_eq!(Value::Str("x".into()).as_str(), Some("x"));
        assert_eq!(Value::Int(3).as_str(), None);
    }

    #[test]
    fn keys_match_across_hash_map() {
        let ints = Column::from_i64("i", vec![7]).keys();
        let strs = Column::from_str("s", vec!["a"]).keys();
        let mut m: HashMap<Key, usize> = HashMap::new();
        m.insert(ints[0].clone().unwrap(), 1);
        m.insert(strs[0].clone().unwrap(), 2);
        // A timestamp keys as an integer; a float never does.
        let ts = Column::from_timestamps("t", vec![7]).keys();
        assert_eq!(m.get(ts[0].as_ref().unwrap()), Some(&1));
        let fl = Column::from_f64("f", vec![7.0]).keys();
        assert_eq!(m.get(fl[0].as_ref().unwrap()), None);
        assert_eq!(m.get(&Key::Str("a".into())), Some(&2));
    }

    #[test]
    fn null_and_nan_have_no_key() {
        let f = Column::from_f64_opt("f", vec![None, Some(f64::NAN), Some(1.0)]).keys();
        assert_eq!(f[..2], [None, None]);
        assert!(f[2].is_some());
        let s = Column::from_str_opt("s", vec![None, Some("null".into())]).keys();
        assert_eq!(s, [None, Some(Key::Str("null".into()))]);
    }

    #[test]
    fn composite_key_poisoned_by_null() {
        let ok = Key::composite(vec![Some(Key::Int(1)), Some(Key::Int(2))]);
        assert_eq!(ok, Some(Key::Composite(vec![Key::Int(1), Key::Int(2)])));
        let bad = Key::composite(vec![Some(Key::Int(1)), None]);
        assert!(bad.is_none());
    }

    #[test]
    fn display_round_trip() {
        assert_eq!(Value::Int(5).to_string(), "5");
        assert_eq!(Value::Str("hi".into()).to_string(), "hi");
        assert_eq!(Value::Null.to_string(), "null");
        assert_eq!(Value::Timestamp(9).to_string(), "@9");
    }
}
