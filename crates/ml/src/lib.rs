//! # arda-ml
//!
//! Machine-learning substrate for the ARDA reproduction, built from scratch.
//!
//! The paper evaluates augmentation with a "lightly auto-optimized Random
//! Forest model for classification and regression tasks along with SVM with
//! RBF kernel for classification" (§7) and ranks features with Random
//! Forests, sparse regression, lasso, logistic regression, linear SVMs,
//! Relief, mutual information and F-tests. This crate supplies every
//! learning primitive those components need:
//!
//! * [`Dataset`] + [`featurize()`] — numeric feature matrices from relational
//!   tables (categoricals binarised, as in §3.1).
//! * [`DecisionTree`] / [`RandomForest`] — CART with Gini/variance splits,
//!   bootstrap bagging, parallel fitting and impurity-based importances.
//! * [`linear`] — ridge, lasso (coordinate descent), logistic regression and
//!   Pegasos linear SVM.
//! * [`svm`] — RBF-kernel SVM via SMO (one-vs-rest for multiclass).
//! * [`metrics`] — accuracy, MAE, RMSE, R².
//! * [`split`] — train/test and stratified splits.
//! * [`Model`] — a uniform fit/predict interface over all of the above, used
//!   by feature-selection wrappers and the AutoML-lite comparator.
//!
//! Every model has one shape: a constructor that takes the training rows
//! and the hyper-parameters and returns the fitted model
//! ([`RandomForest::fit_xy`], [`Ridge::fit`], [`RbfSvm::fit`], ...), then
//! `predict`. There is no un-fitted state. The five non-tree models share
//! one private scaling rule (standardise at fit, replay at predict) and one
//! one-vs-rest rule for their classifier heads.

// Numeric kernels below index several arrays with one loop variable;
// iterator rewrites would obscure the math.
#![allow(clippy::needless_range_loop)]

pub mod dataset;
pub mod featurize;
mod fitting;
pub mod forest;
pub mod knn;
pub mod linear;
pub mod metrics;
pub mod model;
pub mod split;
pub mod svm;
pub mod tree;

pub use dataset::{Dataset, Task};
pub use featurize::{encode_target, featurize, featurize_with_sources, FeaturizeOptions};
pub use forest::{ForestConfig, RandomForest};
pub use knn::nearest_neighbors;
pub use linear::{Lasso, LinearSvm, LogisticRegression, Ridge};
pub use model::{score_for_task, Model, ModelKind};
pub use split::{stratified_split, train_test_split};
pub use svm::RbfSvm;
pub use tree::{DecisionTree, MaxFeatures, TreeConfig};

/// Error type for ML operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MlError {
    /// Input shapes disagree (rows vs labels, train vs test width, ...).
    ShapeMismatch(String),
    /// Invalid configuration or data (e.g. empty training set).
    Invalid(String),
}

impl std::fmt::Display for MlError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MlError::ShapeMismatch(msg) => write!(f, "shape mismatch: {msg}"),
            MlError::Invalid(msg) => write!(f, "invalid: {msg}"),
        }
    }
}

impl std::error::Error for MlError {}

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, MlError>;
