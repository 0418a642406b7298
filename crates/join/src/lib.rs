//! # arda-join
//!
//! Join execution for the ARDA reproduction (§4 of the paper).
//!
//! ARDA's join machinery must (1) preserve every base-table row — only LEFT
//! joins are admissible — (2) join on *hard* keys (exact equality, single or
//! composite) and *soft* keys (numeric/time keys joined by proximity), (3)
//! fix join cardinality by pre-aggregating foreign tables so one-to-many and
//! many-to-many joins never duplicate training rows, (4) align mismatched
//! time granularities by resampling, and (5) impute the missing values that
//! LEFT-join semantics introduce.
//!
//! Public surface:
//!
//! * [`JoinSpec`] / [`JoinKind`] / [`SoftMethod`] — a declarative description
//!   of one candidate join.
//! * [`execute_join`] — run a spec: pre-aggregate, (optionally) resample,
//!   join, and return the block of foreign columns it adds.
//! * [`hard::left_hard_join`], [`soft::nearest_join`],
//!   [`soft::two_way_nearest_join`] — the individual algorithms.
//! * [`resample::detect_granularity`] / [`resample::resample_to_granularity`]
//!   — time alignment.
//! * [`impute::impute`] — median / uniform-random imputation (§4
//!   "Imputation").
//!
//! A join names each column it adds after its candidate and source column,
//! `<table>[<base_key>:<foreign_key>].<column>` (composite keys joined by
//! `+`), so the name never depends on what else is joined beside it.

pub mod hard;
pub mod impute;
pub mod resample;
pub mod soft;
pub mod stats;

use arda_table::{Column, Table, TableError};
use std::borrow::Cow;

/// Strategy for joining on a soft (numeric / time) key.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SoftMethod {
    /// Join each base row with the single nearest foreign row.
    Nearest,
    /// Interpolate between the nearest foreign rows below and above the base
    /// key (λ-weighted linear interpolation on numeric columns, uniform
    /// random choice for categoricals).
    TwoWayNearest,
}

/// How a candidate join should be executed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum JoinKind {
    /// Exact key equality (hash join).
    Hard,
    /// Proximity join on a single numeric/time key.
    Soft(SoftMethod),
    /// Resample the foreign table to the base key granularity, then hard
    /// join (the paper's preferred strategy for day-level Taxi data).
    HardTimeResampled,
    /// Resample, then soft join.
    SoftTimeResampled(SoftMethod),
}

/// A fully specified candidate join.
#[derive(Debug, Clone)]
pub struct JoinSpec {
    /// Key column names in the base table.
    pub base_keys: Vec<String>,
    /// Matching key column names in the foreign table.
    pub foreign_keys: Vec<String>,
    /// Join algorithm.
    pub kind: JoinKind,
}

impl JoinSpec {
    /// Hard equi-join on a single key pair.
    pub fn hard(base_key: impl Into<String>, foreign_key: impl Into<String>) -> Self {
        JoinSpec {
            base_keys: vec![base_key.into()],
            foreign_keys: vec![foreign_key.into()],
            kind: JoinKind::Hard,
        }
    }

    /// Soft join on a single key pair.
    pub fn soft(
        base_key: impl Into<String>,
        foreign_key: impl Into<String>,
        method: SoftMethod,
    ) -> Self {
        JoinSpec {
            base_keys: vec![base_key.into()],
            foreign_keys: vec![foreign_key.into()],
            kind: JoinKind::Soft(method),
        }
    }
}

/// Error type for join execution.
#[derive(Debug, Clone, PartialEq)]
pub enum JoinError {
    /// Underlying table operation failed.
    Table(TableError),
    /// The spec is inconsistent (key counts, soft join on composite key...).
    InvalidSpec(String),
    /// A soft join requires a numeric key.
    NonNumericSoftKey(String),
}

impl From<TableError> for JoinError {
    fn from(e: TableError) -> Self {
        JoinError::Table(e)
    }
}

impl std::fmt::Display for JoinError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JoinError::Table(e) => write!(f, "table error: {e}"),
            JoinError::InvalidSpec(msg) => write!(f, "invalid join spec: {msg}"),
            JoinError::NonNumericSoftKey(col) => {
                write!(f, "soft join requires a numeric key, got column {col}")
            }
        }
    }
}

impl std::error::Error for JoinError {}

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, JoinError>;

/// Execute a candidate join, returning the block of columns it adds.
///
/// The block holds the foreign non-key columns, one row per base row in
/// base order, named `<table>[<base_key>:<foreign_key>].<column>`; append
/// it with [`Table::append`]. The foreign table is pre-aggregated on its
/// keys first, so to-many joins cannot duplicate rows. `seed` drives the
/// random choices of categorical interpolation. The join runs on the
/// calling thread; the pipeline runs a batch's joins side by side.
pub fn execute_join(base: &Table, foreign: &Table, spec: &JoinSpec, seed: u64) -> Result<Table> {
    if spec.base_keys.len() != spec.foreign_keys.len() || spec.base_keys.is_empty() {
        return Err(JoinError::InvalidSpec(format!(
            "{} base keys vs {} foreign keys",
            spec.base_keys.len(),
            spec.foreign_keys.len()
        )));
    }
    let base_keys: Vec<&str> = spec.base_keys.iter().map(String::as_str).collect();
    let foreign_keys: Vec<&str> = spec.foreign_keys.iter().map(String::as_str).collect();

    let foreign = match spec.kind {
        JoinKind::HardTimeResampled | JoinKind::SoftTimeResampled(_) => {
            let (bk, fk) = single_key(&base_keys, &foreign_keys)?;
            resample::resample_to_base(base, foreign, bk, fk)?
        }
        JoinKind::Hard | JoinKind::Soft(_) => Cow::Borrowed(foreign),
    };
    match spec.kind {
        JoinKind::Hard | JoinKind::HardTimeResampled => {
            hard::left_hard_join(base, &foreign, &base_keys, &foreign_keys)
        }
        JoinKind::Soft(method) | JoinKind::SoftTimeResampled(method) => {
            let (bk, fk) = single_key(&base_keys, &foreign_keys)?;
            match method {
                SoftMethod::Nearest => soft::nearest_join(base, &foreign, bk, fk),
                SoftMethod::TwoWayNearest => {
                    soft::two_way_nearest_join(base, &foreign, bk, fk, seed)
                }
            }
        }
    }
}

fn single_key<'a>(base: &[&'a str], foreign: &[&'a str]) -> Result<(&'a str, &'a str)> {
    if base.len() != 1 {
        return Err(JoinError::InvalidSpec(
            "soft / resampled joins require a single key column".into(),
        ));
    }
    Ok((base[0], foreign[0]))
}

/// `foreign`'s non-key columns, in table order.
pub(crate) fn value_columns<'a>(foreign: &'a Table, foreign_keys: &[&str]) -> Vec<&'a Column> {
    foreign
        .columns()
        .iter()
        .filter(|c| !foreign_keys.contains(&c.name()))
        .collect()
}

/// The block a join returns: `values`, built in order from
/// [`value_columns`], each renamed `<label>.<source name>`.
pub(crate) fn joined_block(
    foreign: &Table,
    base_keys: &[&str],
    foreign_keys: &[&str],
    values: Vec<Column>,
) -> Result<Table> {
    let label = format!(
        "{}[{}:{}]",
        foreign.name(),
        base_keys.join("+"),
        foreign_keys.join("+")
    );
    let columns = values
        .into_iter()
        .map(|mut c| {
            c.set_name(format!("{label}.{}", c.name()));
            c
        })
        .collect();
    Ok(Table::new(foreign.name().to_string(), columns)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use arda_table::Column;

    fn base() -> Table {
        Table::new(
            "base",
            vec![
                Column::from_i64("id", vec![1, 2, 3]),
                Column::from_f64("v", vec![0.1, 0.2, 0.3]),
            ],
        )
        .unwrap()
    }

    fn foreign() -> Table {
        Table::new(
            "ext",
            vec![
                Column::from_i64("fid", vec![3, 1]),
                Column::from_f64("w", vec![30.0, 10.0]),
            ],
        )
        .unwrap()
    }

    #[test]
    fn execute_hard_spec() {
        let out = execute_join(&base(), &foreign(), &JoinSpec::hard("id", "fid"), 0).unwrap();
        assert_eq!(out.n_rows(), 3);
        assert_eq!(out.n_cols(), 1, "only the foreign value column");
        let w = out.column("ext[id:fid].w").unwrap();
        assert_eq!(w.get_f64(0), Some(10.0));
        assert!(w.get(1).is_null());
        assert_eq!(w.get_f64(2), Some(30.0));
    }

    #[test]
    fn key_count_mismatch_rejected() {
        let spec = JoinSpec {
            base_keys: vec!["id".into(), "v".into()],
            foreign_keys: vec!["fid".into()],
            kind: JoinKind::Hard,
        };
        assert!(execute_join(&base(), &foreign(), &spec, 0).is_err());
    }

    #[test]
    fn soft_spec_requires_single_key() {
        let spec = JoinSpec {
            base_keys: vec!["id".into(), "v".into()],
            foreign_keys: vec!["fid".into(), "w".into()],
            kind: JoinKind::Soft(SoftMethod::TwoWayNearest),
        };
        assert!(matches!(
            execute_join(&base(), &foreign(), &spec, 0),
            Err(JoinError::InvalidSpec(_))
        ));
    }

    #[test]
    fn execute_soft_nearest_spec() {
        let spec = JoinSpec::soft("id", "fid", SoftMethod::Nearest);
        let out = execute_join(&base(), &foreign(), &spec, 0).unwrap();
        assert_eq!(out.n_rows(), 3);
        // id=2 joins with nearest foreign key (1 or 3; tie → lower).
        assert!(out.column("ext[id:fid].w").unwrap().get_f64(1).is_some());
    }

    #[test]
    fn every_kind_names_columns_after_the_candidate() {
        let kinds = [
            JoinKind::Hard,
            JoinKind::HardTimeResampled,
            JoinKind::Soft(SoftMethod::Nearest),
            JoinKind::SoftTimeResampled(SoftMethod::TwoWayNearest),
        ];
        for kind in kinds {
            let spec = JoinSpec {
                kind,
                ..JoinSpec::hard("id", "fid")
            };
            let out = execute_join(&base(), &foreign(), &spec, 0).unwrap();
            let names: Vec<&str> = out.columns().iter().map(|c| c.name()).collect();
            assert_eq!(names, ["ext[id:fid].w"], "{kind:?}");
        }
    }

    #[test]
    fn error_display() {
        let e = JoinError::NonNumericSoftKey("name".into());
        assert!(e.to_string().contains("name"));
        let e2: JoinError = TableError::ColumnNotFound("x".into()).into();
        assert!(e2.to_string().contains("x"));
    }
}
