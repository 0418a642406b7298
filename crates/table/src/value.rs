//! Dynamically typed cell values and hashable join keys.

use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};

/// A single dynamically typed cell in a table.
///
/// `Value` is a read-only view of one cell (row access, join keys,
/// display). Columns are never built from `Value`s: storage is the typed
/// [`crate::ColumnData`] inside each [`crate::Column`].
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

    /// Numeric view of the value, if it has one. Timestamps are numeric so
    /// that soft (nearest-neighbour) joins can measure distances on them.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(v) => Some(*v as f64),
            Value::Float(v) => Some(*v),
            Value::Timestamp(v) => Some(*v as f64),
            Value::Bool(b) => Some(if *b { 1.0 } else { 0.0 }),
            _ => None,
        }
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

    /// An equality/hash key usable in hash joins. Returns `None` for nulls,
    /// which never match any key (SQL semantics).
    pub fn key(&self) -> Option<Key> {
        match self {
            Value::Null => None,
            Value::Int(v) => Some(Key::Int(*v)),
            Value::Float(v) => {
                if v.is_nan() {
                    None
                } else {
                    Some(Key::Float(v.to_bits()))
                }
            }
            Value::Str(s) => Some(Key::Str(s.clone())),
            Value::Bool(b) => Some(Key::Bool(*b)),
            Value::Timestamp(v) => Some(Key::Int(*v)),
        }
    }

    /// Total ordering used for sorting: Null < Bool < numeric < Str.
    /// Numeric types compare by value across Int/Float/Timestamp.
    pub fn total_cmp(&self, other: &Value) -> Ordering {
        fn rank(v: &Value) -> u8 {
            match v {
                Value::Null => 0,
                Value::Bool(_) => 1,
                Value::Int(_) | Value::Float(_) | Value::Timestamp(_) => 2,
                Value::Str(_) => 3,
            }
        }
        match (self, other) {
            (Value::Null, Value::Null) => Ordering::Equal,
            (Value::Bool(a), Value::Bool(b)) => a.cmp(b),
            (Value::Str(a), Value::Str(b)) => a.cmp(b),
            (a, b) => match (a.as_f64(), b.as_f64()) {
                (Some(x), Some(y)) => x.total_cmp(&y),
                _ => rank(a).cmp(&rank(b)),
            },
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

/// Hashable, equality-comparable join key derived from a [`Value`].
///
/// Floats are keyed by bit pattern (NaN is excluded at construction), so
/// `Key` can implement `Eq`/`Hash` soundly for hash joins.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Key {
    /// Integer (also used for timestamps).
    Int(i64),
    /// Float bits (never NaN).
    Float(u64),
    /// String.
    Str(String),
    /// Boolean.
    Bool(bool),
    /// Composite key for multi-column joins.
    Composite(Vec<Key>),
}

impl Hash for Key {
    fn hash<H: Hasher>(&self, state: &mut H) {
        match self {
            Key::Int(v) => {
                0u8.hash(state);
                v.hash(state);
            }
            Key::Float(v) => {
                // Normalise +0.0/-0.0 so they hash (and compare) identically
                // after the PartialEq below.
                1u8.hash(state);
                v.hash(state);
            }
            Key::Str(s) => {
                2u8.hash(state);
                s.hash(state);
            }
            Key::Bool(b) => {
                3u8.hash(state);
                b.hash(state);
            }
            Key::Composite(parts) => {
                4u8.hash(state);
                for p in parts {
                    p.hash(state);
                }
            }
        }
    }
}

impl Key {
    /// Build a composite key from per-column keys; `None` (null) in any part
    /// poisons the whole key, matching SQL null-join semantics.
    pub fn composite(parts: Vec<Option<Key>>) -> Option<Key> {
        let mut out = Vec::with_capacity(parts.len());
        for p in parts {
            out.push(p?);
        }
        Some(Key::Composite(out))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    #[test]
    fn null_detection() {
        assert!(Value::Null.is_null());
        assert!(!Value::Int(0).is_null());
    }

    #[test]
    fn numeric_views() {
        assert_eq!(Value::Int(3).as_f64(), Some(3.0));
        assert_eq!(Value::Float(2.5).as_f64(), Some(2.5));
        assert_eq!(Value::Timestamp(10).as_f64(), Some(10.0));
        assert_eq!(Value::Bool(true).as_f64(), Some(1.0));
        assert_eq!(Value::Str("x".into()).as_f64(), None);
        assert_eq!(Value::Null.as_f64(), None);
    }

    #[test]
    fn keys_match_across_hash_map() {
        let mut m: HashMap<Key, usize> = HashMap::new();
        m.insert(Value::Int(7).key().unwrap(), 1);
        m.insert(Value::Str("a".into()).key().unwrap(), 2);
        assert_eq!(m.get(&Value::Int(7).key().unwrap()), Some(&1));
        assert_eq!(m.get(&Value::Str("a".into()).key().unwrap()), Some(&2));
    }

    #[test]
    fn null_and_nan_have_no_key() {
        assert!(Value::Null.key().is_none());
        assert!(Value::Float(f64::NAN).key().is_none());
    }

    #[test]
    fn composite_key_poisoned_by_null() {
        let ok = Key::composite(vec![Value::Int(1).key(), Value::Int(2).key()]);
        assert!(ok.is_some());
        let bad = Key::composite(vec![Value::Int(1).key(), Value::Null.key()]);
        assert!(bad.is_none());
    }

    #[test]
    fn total_cmp_orders_numerics_together() {
        let mut vals = [
            Value::Float(2.5),
            Value::Int(1),
            Value::Timestamp(3),
            Value::Null,
        ];
        vals.sort_by(|a, b| a.total_cmp(b));
        assert_eq!(vals[0], Value::Null);
        assert_eq!(vals[1], Value::Int(1));
        assert_eq!(vals[2], Value::Float(2.5));
        assert_eq!(vals[3], Value::Timestamp(3));
    }

    #[test]
    fn display_round_trip() {
        assert_eq!(Value::Int(5).to_string(), "5");
        assert_eq!(Value::Str("hi".into()).to_string(), "hi");
        assert_eq!(Value::Null.to_string(), "null");
        assert_eq!(Value::Timestamp(9).to_string(), "@9");
    }
}
