//! Typed, named columns with null masks.

use crate::{DataType, Key, Value};

/// Physical storage for one column. Each variant stores values alongside an
/// implicit null mask via `Option`.
#[derive(Debug, Clone, PartialEq)]
pub enum ColumnData {
    /// Integers.
    Int(Vec<Option<i64>>),
    /// Floats.
    Float(Vec<Option<f64>>),
    /// Strings.
    Str(Vec<Option<String>>),
    /// Booleans.
    Bool(Vec<Option<bool>>),
    /// Integer timestamps.
    Timestamp(Vec<Option<i64>>),
}

impl ColumnData {
    /// Number of rows.
    pub fn len(&self) -> usize {
        match self {
            ColumnData::Int(v) => v.len(),
            ColumnData::Float(v) => v.len(),
            ColumnData::Str(v) => v.len(),
            ColumnData::Bool(v) => v.len(),
            ColumnData::Timestamp(v) => v.len(),
        }
    }

    /// True when there are no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The logical type of this storage.
    pub fn dtype(&self) -> DataType {
        match self {
            ColumnData::Int(_) => DataType::Int,
            ColumnData::Float(_) => DataType::Float,
            ColumnData::Str(_) => DataType::Str,
            ColumnData::Bool(_) => DataType::Bool,
            ColumnData::Timestamp(_) => DataType::Timestamp,
        }
    }
}

/// A named column of homogeneously typed values.
#[derive(Debug, Clone, PartialEq)]
pub struct Column {
    name: String,
    data: ColumnData,
}

impl Column {
    /// Create a column from raw storage.
    pub fn new(name: impl Into<String>, data: ColumnData) -> Self {
        Column {
            name: name.into(),
            data,
        }
    }

    /// Non-null integer column.
    pub fn from_i64(name: impl Into<String>, values: Vec<i64>) -> Self {
        Column::new(
            name,
            ColumnData::Int(values.into_iter().map(Some).collect()),
        )
    }

    /// Non-null float column.
    pub fn from_f64(name: impl Into<String>, values: Vec<f64>) -> Self {
        Column::new(
            name,
            ColumnData::Float(values.into_iter().map(Some).collect()),
        )
    }

    /// Nullable float column.
    pub fn from_f64_opt(name: impl Into<String>, values: Vec<Option<f64>>) -> Self {
        Column::new(name, ColumnData::Float(values))
    }

    /// Nullable integer column.
    pub fn from_i64_opt(name: impl Into<String>, values: Vec<Option<i64>>) -> Self {
        Column::new(name, ColumnData::Int(values))
    }

    /// Non-null string column.
    pub fn from_str(name: impl Into<String>, values: Vec<&str>) -> Self {
        Column::new(
            name,
            ColumnData::Str(values.into_iter().map(|s| Some(s.to_string())).collect()),
        )
    }

    /// Non-null owned-string column.
    pub fn from_strings(name: impl Into<String>, values: Vec<String>) -> Self {
        Column::new(
            name,
            ColumnData::Str(values.into_iter().map(Some).collect()),
        )
    }

    /// Nullable string column.
    pub fn from_str_opt(name: impl Into<String>, values: Vec<Option<String>>) -> Self {
        Column::new(name, ColumnData::Str(values))
    }

    /// Non-null boolean column.
    pub fn from_bool(name: impl Into<String>, values: Vec<bool>) -> Self {
        Column::new(
            name,
            ColumnData::Bool(values.into_iter().map(Some).collect()),
        )
    }

    /// Non-null timestamp column (integer ticks).
    pub fn from_timestamps(name: impl Into<String>, values: Vec<i64>) -> Self {
        Column::new(
            name,
            ColumnData::Timestamp(values.into_iter().map(Some).collect()),
        )
    }

    /// Column name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Rename in place (a join uses it to name the columns it adds).
    pub fn set_name(&mut self, name: impl Into<String>) {
        self.name = name.into();
    }

    /// Underlying storage.
    pub fn data(&self) -> &ColumnData {
        &self.data
    }

    /// Logical type.
    pub fn dtype(&self) -> DataType {
        self.data.dtype()
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when there are no rows.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Number of null entries.
    pub fn null_count(&self) -> usize {
        match &self.data {
            ColumnData::Int(v) => v.iter().filter(|x| x.is_none()).count(),
            ColumnData::Float(v) => v.iter().filter(|x| x.is_none()).count(),
            ColumnData::Str(v) => v.iter().filter(|x| x.is_none()).count(),
            ColumnData::Bool(v) => v.iter().filter(|x| x.is_none()).count(),
            ColumnData::Timestamp(v) => v.iter().filter(|x| x.is_none()).count(),
        }
    }

    /// Dynamically typed view of row `i` (panics if out of bounds).
    pub fn get(&self, i: usize) -> Value {
        match &self.data {
            ColumnData::Int(v) => v[i].map_or(Value::Null, Value::Int),
            ColumnData::Float(v) => v[i].map_or(Value::Null, Value::Float),
            ColumnData::Str(v) => v[i].clone().map_or(Value::Null, Value::Str),
            ColumnData::Bool(v) => v[i].map_or(Value::Null, Value::Bool),
            ColumnData::Timestamp(v) => v[i].map_or(Value::Null, Value::Timestamp),
        }
    }

    /// Numeric view of row `i` (`None` for nulls and non-numeric values).
    pub fn get_f64(&self, i: usize) -> Option<f64> {
        match &self.data {
            ColumnData::Int(v) => v[i].map(|x| x as f64),
            ColumnData::Float(v) => v[i],
            ColumnData::Timestamp(v) => v[i].map(|x| x as f64),
            ColumnData::Bool(v) => v[i].map(|b| if b { 1.0 } else { 0.0 }),
            ColumnData::Str(_) => None,
        }
    }

    /// Gather the rows at `indices` into a new column (repeats allowed —
    /// this is what LEFT joins and bootstrap sampling use).
    pub fn take(&self, indices: &[usize]) -> Column {
        fn gather<T: Clone>(v: &[Option<T>], idx: &[usize]) -> Vec<Option<T>> {
            idx.iter().map(|&i| v[i].clone()).collect()
        }
        let data = match &self.data {
            ColumnData::Int(v) => ColumnData::Int(gather(v, indices)),
            ColumnData::Float(v) => ColumnData::Float(gather(v, indices)),
            ColumnData::Str(v) => ColumnData::Str(gather(v, indices)),
            ColumnData::Bool(v) => ColumnData::Bool(gather(v, indices)),
            ColumnData::Timestamp(v) => ColumnData::Timestamp(gather(v, indices)),
        };
        Column {
            name: self.name.clone(),
            data,
        }
    }

    /// Gather rows at optional `indices`; `None` produces a null row. This is
    /// the primitive behind LEFT JOIN: unmatched base rows map to `None`.
    pub fn take_opt(&self, indices: &[Option<usize>]) -> Column {
        fn gather<T: Clone>(v: &[Option<T>], idx: &[Option<usize>]) -> Vec<Option<T>> {
            idx.iter().map(|i| i.and_then(|i| v[i].clone())).collect()
        }
        let data = match &self.data {
            ColumnData::Int(v) => ColumnData::Int(gather(v, indices)),
            ColumnData::Float(v) => ColumnData::Float(gather(v, indices)),
            ColumnData::Str(v) => ColumnData::Str(gather(v, indices)),
            ColumnData::Bool(v) => ColumnData::Bool(gather(v, indices)),
            ColumnData::Timestamp(v) => ColumnData::Timestamp(gather(v, indices)),
        };
        Column {
            name: self.name.clone(),
            data,
        }
    }

    /// Iterator over dynamically typed values.
    pub fn iter(&self) -> impl Iterator<Item = Value> + '_ {
        (0..self.len()).map(move |i| self.get(i))
    }

    /// Median of the non-null numeric values.
    pub fn median(&self) -> Option<f64> {
        let mut vals: Vec<f64> = (0..self.len()).filter_map(|i| self.get_f64(i)).collect();
        if vals.is_empty() {
            return None;
        }
        vals.sort_by(|a, b| a.total_cmp(b));
        let mid = vals.len() / 2;
        Some(if vals.len().is_multiple_of(2) {
            (vals[mid - 1] + vals[mid]) / 2.0
        } else {
            vals[mid]
        })
    }

    /// Each row's key: the one equality rule that hard joins, group-by,
    /// join statistics and class ids share. A null or NaN has no key, a
    /// Timestamp keys as [`Key::Int`], and a Float keys by its bits, with
    /// −0.0 taken as +0.0 so the two zeros are one key.
    pub fn keys(&self) -> Vec<Option<Key>> {
        fn each<T>(v: &[Option<T>], key: impl Fn(&T) -> Option<Key>) -> Vec<Option<Key>> {
            v.iter().map(|x| x.as_ref().and_then(&key)).collect()
        }
        match &self.data {
            ColumnData::Int(v) | ColumnData::Timestamp(v) => each(v, |&x| Some(Key::Int(x))),
            ColumnData::Float(v) => each(v, |&x| {
                let x = if x == 0.0 { 0.0 } else { x };
                (!x.is_nan()).then(|| Key::Float(x.to_bits()))
            }),
            ColumnData::Str(v) => each(v, |s| Some(Key::Str(s.clone()))),
            ColumnData::Bool(v) => each(v, |&b| Some(Key::Bool(b))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_and_lengths() {
        let c = Column::from_i64("a", vec![1, 2, 3]);
        assert_eq!(c.len(), 3);
        assert_eq!(c.dtype(), DataType::Int);
        assert_eq!(c.null_count(), 0);
        let c = Column::from_f64_opt("b", vec![Some(1.0), None]);
        assert_eq!(c.null_count(), 1);
    }

    #[test]
    fn get_and_take() {
        let c = Column::from_str("s", vec!["x", "y", "z"]);
        assert_eq!(c.get(1), Value::Str("y".into()));
        let t = c.take(&[2, 0, 0]);
        assert_eq!(t.get(0), Value::Str("z".into()));
        assert_eq!(t.get(1), Value::Str("x".into()));
        assert_eq!(t.get(2), Value::Str("x".into()));
    }

    #[test]
    fn take_opt_inserts_nulls() {
        let c = Column::from_i64("a", vec![10, 20]);
        let t = c.take_opt(&[Some(1), None, Some(0)]);
        assert_eq!(t.get(0), Value::Int(20));
        assert_eq!(t.get(1), Value::Null);
        assert_eq!(t.get(2), Value::Int(10));
        assert_eq!(t.null_count(), 1);
    }

    #[test]
    fn mean_median() {
        let c = Column::from_f64_opt("x", vec![Some(1.0), Some(3.0), None, Some(2.0)]);
        assert_eq!(c.median(), Some(2.0));
        let even = Column::from_f64("y", vec![1.0, 2.0, 3.0, 4.0]);
        assert_eq!(even.median(), Some(2.5));
        let empty = Column::from_f64_opt("z", vec![None, None]);
        assert_eq!(empty.median(), None);
    }

    #[test]
    fn keys_skip_nulls_and_join_the_zeros() {
        let s = Column::from_str_opt("s", vec![Some("a".into()), None, Some("a".into())]);
        let a = Some(Key::Str("a".into()));
        assert_eq!(s.keys(), [a.clone(), None, a]);
        let f = Column::from_f64_opt("f", vec![Some(-0.0), Some(0.0), Some(f64::NAN), None]);
        let zero = Some(Key::Float(0.0f64.to_bits()));
        assert_eq!(f.keys(), [zero.clone(), zero, None, None]);
        let b = Column::from_bool("b", vec![true]);
        assert_eq!(b.keys(), [Some(Key::Bool(true))]);
    }

    #[test]
    fn timestamp_numeric_view() {
        let c = Column::from_timestamps("t", vec![100, 200]);
        assert_eq!(c.dtype(), DataType::Timestamp);
        assert_eq!(c.get_f64(1), Some(200.0));
    }
}
