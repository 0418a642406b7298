//! # arda-core
//!
//! The end-to-end ARDA system (Figure 1 of the paper): from a base table, a
//! prediction target and a repository of candidate tables to an *augmented
//! dataset* whose extra features measurably improve a predictive model.
//!
//! Pipeline stages, in order:
//!
//! 1. **Join discovery** — [`arda_discovery::discover_joins`] (or caller-
//!    provided candidates) yields scored, ranked candidate joins.
//! 2. **Coreset construction** — sample base rows (uniform or stratified;
//!    [`arda_coreset`]).
//! 3. **Join plan** — group candidates into batches: one table at a time,
//!    *budget* batches (the default: as many features as the coreset
//!    size), or full materialization ([`plan`]).
//! 4. **Join execution** — hard keys hash-join, soft keys nearest /
//!    two-way-nearest with time resampling; one-to-many pre-aggregation;
//!    LEFT semantics preserve every base row ([`arda_join`]).
//! 5. **Imputation + featurization** — median/random imputation, categorical
//!    binarisation.
//! 6. **Feature selection** — RIFS by default, any [`arda_select`] method.
//! 7. **Final estimate** — refit the §7 estimators (random forest, plus an
//!    RBF-SVM for classification) on the augmented data and report the
//!    best base-vs-augmented holdout scores
//!    ([`arda_ml::model::best_holdout_score`]).

pub mod pipeline;
pub mod plan;

pub use pipeline::{join_kind_for, Arda, ArdaConfig, AugmentationReport, SelectedColumn};
pub use plan::{plan_batches, JoinPlan};

use arda_join::JoinError;
use arda_ml::MlError;
use arda_select::SelectError;
use arda_table::TableError;

/// Error type spanning the whole pipeline.
#[derive(Debug)]
pub enum ArdaError {
    /// Table-level failure.
    Table(TableError),
    /// Join failure.
    Join(JoinError),
    /// Model failure.
    Ml(MlError),
    /// Selection failure.
    Select(SelectError),
    /// Invalid configuration / usage.
    Invalid(String),
}

impl std::fmt::Display for ArdaError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ArdaError::Table(e) => write!(f, "table: {e}"),
            ArdaError::Join(e) => write!(f, "join: {e}"),
            ArdaError::Ml(e) => write!(f, "ml: {e}"),
            ArdaError::Select(e) => write!(f, "select: {e}"),
            ArdaError::Invalid(msg) => write!(f, "invalid: {msg}"),
        }
    }
}

impl std::error::Error for ArdaError {}

impl From<TableError> for ArdaError {
    fn from(e: TableError) -> Self {
        ArdaError::Table(e)
    }
}
impl From<JoinError> for ArdaError {
    fn from(e: JoinError) -> Self {
        ArdaError::Join(e)
    }
}
impl From<MlError> for ArdaError {
    fn from(e: MlError) -> Self {
        ArdaError::Ml(e)
    }
}
impl From<SelectError> for ArdaError {
    fn from(e: SelectError) -> Self {
        ArdaError::Select(e)
    }
}

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, ArdaError>;
