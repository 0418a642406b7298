//! Error type for table operations.

use std::fmt;

/// Errors produced by relational operations on [`crate::Table`]s.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TableError {
    /// A column with the given name was not found.
    ColumnNotFound(String),
    /// A column with the given name already exists.
    DuplicateColumn(String),
    /// Columns in a table (or an operation across tables) disagree on length.
    LengthMismatch {
        expected: usize,
        actual: usize,
        context: String,
    },
    /// A row index was out of bounds.
    RowOutOfBounds { index: usize, len: usize },
    /// CSV parsing failed.
    Csv(String),
    /// Binary shard store encode/decode failed (bad magic, truncated
    /// payload, corrupt offsets, ...). Always an error, never a panic.
    Store(String),
    /// Generic invalid-argument error.
    Invalid(String),
}

impl fmt::Display for TableError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TableError::ColumnNotFound(name) => write!(f, "column not found: {name}"),
            TableError::DuplicateColumn(name) => write!(f, "duplicate column: {name}"),
            TableError::LengthMismatch {
                expected,
                actual,
                context,
            } => {
                write!(
                    f,
                    "length mismatch in {context}: expected {expected}, got {actual}"
                )
            }
            TableError::RowOutOfBounds { index, len } => {
                write!(f, "row index {index} out of bounds for table of {len} rows")
            }
            TableError::Csv(msg) => write!(f, "csv error: {msg}"),
            TableError::Store(msg) => write!(f, "store error: {msg}"),
            TableError::Invalid(msg) => write!(f, "invalid operation: {msg}"),
        }
    }
}

impl std::error::Error for TableError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_column_not_found() {
        let e = TableError::ColumnNotFound("price".into());
        assert_eq!(e.to_string(), "column not found: price");
    }

    #[test]
    fn display_length_mismatch() {
        let e = TableError::LengthMismatch {
            expected: 3,
            actual: 5,
            context: "add_column".into(),
        };
        assert!(e.to_string().contains("expected 3"));
        assert!(e.to_string().contains("got 5"));
    }

    #[test]
    fn error_trait_object() {
        let e: Box<dyn std::error::Error> = Box::new(TableError::Csv("bad row".into()));
        assert!(e.to_string().contains("bad row"));
    }
}
