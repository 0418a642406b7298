//! The [`Table`]: equal-length named columns with relational operations.

use crate::{Column, Field, Key, Result, Schema, TableError};

/// An in-memory relational table: an ordered set of equal-length [`Column`]s
/// plus an optional table name (used to prefix columns after joins).
#[derive(Debug, Clone, PartialEq)]
pub struct Table {
    name: String,
    columns: Vec<Column>,
}

impl Table {
    /// Build a table, validating that all columns share one length and that
    /// names are unique.
    pub fn new(name: impl Into<String>, columns: Vec<Column>) -> Result<Self> {
        let name = name.into();
        if let Some(first) = columns.first() {
            let expected = first.len();
            for c in &columns {
                if c.len() != expected {
                    return Err(TableError::LengthMismatch {
                        expected,
                        actual: c.len(),
                        context: format!("table {name}"),
                    });
                }
            }
        }
        let mut seen = std::collections::HashSet::new();
        for c in &columns {
            if !seen.insert(c.name().to_string()) {
                return Err(TableError::DuplicateColumn(c.name().to_string()));
            }
        }
        Ok(Table { name, columns })
    }

    /// An empty, zero-column table.
    pub fn empty(name: impl Into<String>) -> Self {
        Table {
            name: name.into(),
            columns: Vec::new(),
        }
    }

    /// Table name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of rows (0 for a zero-column table).
    pub fn n_rows(&self) -> usize {
        self.columns.first().map_or(0, Column::len)
    }

    /// Number of columns.
    pub fn n_cols(&self) -> usize {
        self.columns.len()
    }

    /// Columns in order.
    pub fn columns(&self) -> &[Column] {
        &self.columns
    }

    /// The table's schema (derived from its columns).
    pub fn schema(&self) -> Schema {
        Schema::new(
            self.columns
                .iter()
                .map(|c| Field::new(c.name(), c.dtype()))
                .collect(),
        )
        .expect("table invariant guarantees unique column names")
    }

    /// Column lookup by name.
    pub fn column(&self, name: &str) -> Result<&Column> {
        self.columns
            .iter()
            .find(|c| c.name() == name)
            .ok_or_else(|| TableError::ColumnNotFound(name.to_string()))
    }

    /// Index of a column by name.
    pub fn column_index(&self, name: &str) -> Option<usize> {
        self.columns.iter().position(|c| c.name() == name)
    }

    /// Append a column (must match the row count unless the table is empty).
    pub fn add_column(&mut self, column: Column) -> Result<()> {
        if !self.columns.is_empty() && column.len() != self.n_rows() {
            return Err(TableError::LengthMismatch {
                expected: self.n_rows(),
                actual: column.len(),
                context: format!("add_column({})", column.name()),
            });
        }
        if self.column_index(column.name()).is_some() {
            return Err(TableError::DuplicateColumn(column.name().to_string()));
        }
        self.columns.push(column);
        Ok(())
    }

    /// Keep only the named columns, in the given order.
    pub fn select(&self, names: &[&str]) -> Result<Table> {
        let mut cols = Vec::with_capacity(names.len());
        for n in names {
            cols.push(self.column(n)?.clone());
        }
        Table::new(self.name.clone(), cols)
    }

    /// Gather the given row indices into a new table (repeats allowed).
    pub fn take(&self, indices: &[usize]) -> Result<Table> {
        let n = self.n_rows();
        if let Some(&bad) = indices.iter().find(|&&i| i >= n) {
            return Err(TableError::RowOutOfBounds { index: bad, len: n });
        }
        let cols = self.columns.iter().map(|c| c.take(indices)).collect();
        Table::new(self.name.clone(), cols)
    }

    /// First `n` rows.
    pub fn head(&self, n: usize) -> Table {
        let idx: Vec<usize> = (0..self.n_rows().min(n)).collect();
        self.take(&idx).expect("head indices in bounds")
    }

    /// Join keys for the given key columns, one entry per row, built by
    /// [`Column::keys`]. Several columns make a [`Key::Composite`]; `None`
    /// marks a row whose key contains a null or NaN (it never matches).
    pub fn keys(&self, key_columns: &[&str]) -> Result<Vec<Option<Key>>> {
        let mut per_column = key_columns
            .iter()
            .map(|n| self.column(n).map(Column::keys))
            .collect::<Result<Vec<_>>>()?;
        if let [single] = per_column.as_mut_slice() {
            return Ok(std::mem::take(single));
        }
        Ok((0..self.n_rows())
            .map(|i| Key::composite(per_column.iter_mut().map(|c| c[i].take()).collect()))
            .collect())
    }

    /// Horizontally concatenate `other`'s columns onto a copy of `self`,
    /// as [`Table::append`] does in place.
    pub fn hstack(&self, other: &Table) -> Result<Table> {
        let mut out = self.clone();
        out.append(other.clone())?;
        Ok(out)
    }

    /// Move `other`'s columns onto the end of `self`. Row counts must
    /// match, and a column name `self` already has is a
    /// [`TableError::DuplicateColumn`] error: nothing is renamed. On error
    /// the columns before the failing one stay appended.
    pub fn append(&mut self, other: Table) -> Result<()> {
        for col in other.columns {
            self.add_column(col)?;
        }
        Ok(())
    }

    /// Total null count across all columns.
    pub fn null_count(&self) -> usize {
        self.columns.iter().map(Column::null_count).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DataType, Value};

    fn sample() -> Table {
        Table::new(
            "t",
            vec![
                Column::from_i64("id", vec![1, 2, 3]),
                Column::from_f64("x", vec![0.5, 1.5, 2.5]),
                Column::from_str("cat", vec!["a", "b", "a"]),
            ],
        )
        .unwrap()
    }

    #[test]
    fn construction_validates_lengths() {
        let err = Table::new(
            "bad",
            vec![
                Column::from_i64("a", vec![1]),
                Column::from_i64("b", vec![1, 2]),
            ],
        );
        assert!(matches!(err, Err(TableError::LengthMismatch { .. })));
    }

    #[test]
    fn construction_validates_unique_names() {
        let err = Table::new(
            "bad",
            vec![
                Column::from_i64("a", vec![1]),
                Column::from_f64("a", vec![1.0]),
            ],
        );
        assert!(matches!(err, Err(TableError::DuplicateColumn(_))));
    }

    #[test]
    fn shape_and_lookup() {
        let t = sample();
        assert_eq!(t.n_rows(), 3);
        assert_eq!(t.n_cols(), 3);
        assert_eq!(t.column("x").unwrap().get_f64(2), Some(2.5));
        assert!(t.column("nope").is_err());
        assert_eq!(t.column_index("cat"), Some(2));
    }

    #[test]
    fn schema_reflects_columns() {
        let t = sample();
        let s = t.schema();
        assert_eq!(s.field("id").unwrap().dtype, DataType::Int);
        assert_eq!(s.field("cat").unwrap().dtype, DataType::Str);
    }

    #[test]
    fn take_and_filter() {
        let t = sample();
        let sub = t.take(&[2, 0]).unwrap();
        assert_eq!(sub.n_rows(), 2);
        assert_eq!(sub.column("id").unwrap().get(0), Value::Int(3));
        assert!(t.take(&[9]).is_err());
    }

    #[test]
    fn keys_single_and_composite() {
        let t = sample();
        let k = t.keys(&["id"]).unwrap();
        assert_eq!(k.len(), 3);
        assert!(k.iter().all(Option::is_some));
        let kc = t.keys(&["id", "cat"]).unwrap();
        assert!(matches!(kc[0], Some(Key::Composite(_))));
    }

    #[test]
    fn keys_null_rows_excluded() {
        let t = Table::new("t", vec![Column::from_i64_opt("k", vec![Some(1), None])]).unwrap();
        let keys = t.keys(&["k"]).unwrap();
        assert!(keys[0].is_some());
        assert!(keys[1].is_none());
    }

    #[test]
    fn hstack_rejects_duplicate_columns() {
        let a = sample();
        let b = Table::new("weather", vec![Column::from_f64("x", vec![9.0, 8.0, 7.0])]).unwrap();
        assert_eq!(a.hstack(&b), Err(TableError::DuplicateColumn("x".into())));
        let c = Table::new("weather", vec![Column::from_f64("y", vec![9.0, 8.0, 7.0])]).unwrap();
        let j = a.hstack(&c).unwrap();
        assert_eq!(j.n_cols(), 4);
        assert_eq!(j.column("y").unwrap(), c.column("y").unwrap());
    }

    #[test]
    fn append_moves_columns_and_rejects_duplicates() {
        let mut a = sample();
        let y = Table::new("w", vec![Column::from_f64("y", vec![9.0, 8.0, 7.0])]).unwrap();
        a.append(y.clone()).unwrap();
        assert_eq!(a, sample().hstack(&y).unwrap());
        assert_eq!(a.append(y), Err(TableError::DuplicateColumn("y".into())));
    }

    #[test]
    fn hstack_length_mismatch() {
        let a = sample();
        let b = Table::new("b", vec![Column::from_i64("y", vec![1])]).unwrap();
        assert!(a.hstack(&b).is_err());
    }

    #[test]
    fn add_drop_column() {
        let mut t = sample();
        t.add_column(Column::from_bool("flag", vec![true, false, true]))
            .unwrap();
        assert_eq!(t.n_cols(), 4);
        assert!(t
            .add_column(Column::from_bool("flag", vec![true, false, true]))
            .is_err());
        assert!(t
            .add_column(Column::from_bool("short", vec![true]))
            .is_err());
    }

    #[test]
    fn select_projects_in_order() {
        let t = sample();
        let p = t.select(&["cat", "id"]).unwrap();
        assert_eq!(p.schema().names(), vec!["cat", "id"]);
        assert!(t.select(&["missing"]).is_err());
    }
}
