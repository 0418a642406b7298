//! Column data types, fields and table schemas.

use crate::{Result, TableError};
use std::fmt;

/// Logical type of a column.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DataType {
    /// 64-bit signed integers.
    Int,
    /// 64-bit floats.
    Float,
    /// UTF-8 strings (categoricals).
    Str,
    /// Booleans.
    Bool,
    /// Integer timestamps (ticks). Distinguished from `Int` so join
    /// machinery can recognise soft time keys and resample granularity.
    Timestamp,
}

impl DataType {
    /// True for types with a meaningful numeric embedding.
    pub fn is_numeric(self) -> bool {
        matches!(
            self,
            DataType::Int | DataType::Float | DataType::Timestamp | DataType::Bool
        )
    }

    /// All data types, in their stable wire-tag order (see the `store`
    /// module: the binary shard format assigns tag `i` to `all()[i]`).
    pub fn all() -> [DataType; 5] {
        [
            DataType::Int,
            DataType::Float,
            DataType::Str,
            DataType::Bool,
            DataType::Timestamp,
        ]
    }
}

impl std::str::FromStr for DataType {
    type Err = TableError;

    /// Inverse of [`fmt::Display`]; used by the shard-catalog encoding.
    fn from_str(s: &str) -> Result<DataType> {
        match s {
            "int" => Ok(DataType::Int),
            "float" => Ok(DataType::Float),
            "str" => Ok(DataType::Str),
            "bool" => Ok(DataType::Bool),
            "timestamp" => Ok(DataType::Timestamp),
            other => Err(TableError::Invalid(format!("unknown dtype `{other}`"))),
        }
    }
}

impl fmt::Display for DataType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            DataType::Int => "int",
            DataType::Float => "float",
            DataType::Str => "str",
            DataType::Bool => "bool",
            DataType::Timestamp => "timestamp",
        };
        f.write_str(s)
    }
}

/// A named, typed column slot in a [`Schema`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Field {
    /// Column name (unique within a table).
    pub name: String,
    /// Column logical type.
    pub dtype: DataType,
}

impl Field {
    /// Create a field.
    pub fn new(name: impl Into<String>, dtype: DataType) -> Self {
        Field {
            name: name.into(),
            dtype,
        }
    }
}

/// Ordered collection of [`Field`]s describing a table's columns.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Schema {
    fields: Vec<Field>,
}

impl Schema {
    /// Build a schema from fields, rejecting duplicate names.
    pub fn new(fields: Vec<Field>) -> Result<Self> {
        let mut seen = std::collections::HashSet::new();
        for f in &fields {
            if !seen.insert(f.name.as_str()) {
                return Err(TableError::DuplicateColumn(f.name.clone()));
            }
        }
        Ok(Schema { fields })
    }

    /// Fields in column order.
    pub fn fields(&self) -> &[Field] {
        &self.fields
    }

    /// Number of columns.
    pub fn len(&self) -> usize {
        self.fields.len()
    }

    /// True when the schema has no columns.
    pub fn is_empty(&self) -> bool {
        self.fields.is_empty()
    }

    /// Field lookup by name.
    pub fn field(&self, name: &str) -> Option<&Field> {
        self.fields.iter().find(|f| f.name == name)
    }

    /// All column names in order.
    pub fn names(&self) -> Vec<&str> {
        self.fields.iter().map(|f| f.name.as_str()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schema_rejects_duplicates() {
        let err = Schema::new(vec![
            Field::new("a", DataType::Int),
            Field::new("a", DataType::Float),
        ]);
        assert_eq!(err.unwrap_err(), TableError::DuplicateColumn("a".into()));
    }

    #[test]
    fn index_and_field_lookup() {
        let s = Schema::new(vec![
            Field::new("a", DataType::Int),
            Field::new("b", DataType::Str),
        ])
        .unwrap();
        assert_eq!(s.field("a").unwrap().dtype, DataType::Int);
        assert!(s.field("z").is_none());
        assert_eq!(s.names(), vec!["a", "b"]);
        assert_eq!(s.len(), 2);
        assert!(!s.is_empty());
    }

    #[test]
    fn numeric_types() {
        assert!(DataType::Int.is_numeric());
        assert!(DataType::Float.is_numeric());
        assert!(DataType::Timestamp.is_numeric());
        assert!(DataType::Bool.is_numeric());
        assert!(!DataType::Str.is_numeric());
    }

    #[test]
    fn display_names() {
        assert_eq!(DataType::Timestamp.to_string(), "timestamp");
        assert_eq!(DataType::Str.to_string(), "str");
    }

    #[test]
    fn dtype_display_from_str_round_trip() {
        for dt in DataType::all() {
            assert_eq!(dt.to_string().parse::<DataType>().unwrap(), dt);
        }
        assert!("datetime".parse::<DataType>().is_err());
        assert!("".parse::<DataType>().is_err());
    }
}
