//! # arda-table
//!
//! Columnar table substrate for the ARDA reproduction.
//!
//! The ARDA pipeline (VLDB 2020) manipulates relational tables: it joins a
//! user's *base table* against candidate tables from a repository, aggregates
//! foreign tables to fix join cardinality, imputes missing values and finally
//! converts the augmented table into a numeric feature matrix. This crate
//! provides exactly that relational substrate, built from scratch:
//!
//! * [`Value`] — the read-only text view of one cell, including `Null`.
//!   Nothing builds a column from `Value`s.
//! * [`Column`] — a typed, named column with a null mask, built from its
//!   typed storage [`ColumnData`] (`Vec<Option<T>>` per [`DataType`]).
//!   [`Column::keys`] gives each row's [`Key`]: the one equality rule of
//!   joins, group-by, join statistics and class ids.
//! * [`Schema`] / [`Field`] — column names and [`DataType`]s.
//! * [`Table`] — a collection of equal-length columns with relational
//!   operations: projection, row `take`, keys and horizontal
//!   concatenation.
//! * [`GroupBy`] — ARDA's pre-aggregation: group on key columns, take the
//!   mean of numeric columns and the mode of the others.
//! * CSV ingestion with type inference: a quote-aware RFC-4180 reader
//!   that reads each file once and infers and builds typed columns in two
//!   passes on the calling thread (see the `csv` module docs), plus a
//!   round-trip-safe writer.
//! * A typed binary columnar shard format (`.arda`): length-prefixed
//!   little-endian columns with null bitmaps that round-trip every
//!   [`DataType`] bit-exactly, including the non-finite floats that CSV
//!   reads back as text (CSV keeps a `Timestamp` as `@<tick>`), with
//!   budget-parallel per-column encode/decode and a cheap header-only scan
//!   (see the [`store`] module docs for the byte layout).
//! * [`Repository`] — the data repository ARDA mines: resident tables or
//!   a directory of `.csv` / `.arda` shards indexed by a header-only
//!   manifest scan, loaded lazily behind an LRU cache, with a persistent
//!   `_catalog.arda` that makes a warm re-index free (see the
//!   [`repository`] module docs for the shard formats and the catalog's
//!   invalidation rules).
//!
//! The engine is deliberately small: ARDA needs LEFT-join-friendly row
//! addressing, mean/mode group-by and cheap columnar access, not a full
//! query engine.

mod column;
mod csv;
mod display;
mod error;
mod groupby;
pub mod repository;
mod schema;
pub mod store;
mod table;
mod value;

pub use column::{Column, ColumnData};
pub use csv::{read_csv, read_csv_str, write_csv};
pub use error::TableError;
pub use groupby::GroupBy;
pub use repository::Repository;
pub use schema::{DataType, Field, Schema};
pub use store::{read_arda_bytes, write_arda};
pub use table::Table;
pub use value::{Key, Value};

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, TableError>;

#[cfg(test)]
mod tests;
