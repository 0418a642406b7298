//! Scaffolding shared by the linear models and the RBF SVM: the one
//! scaling rule and the one one-vs-rest rule.
//!
//! Every non-tree model trains on standardised columns and replays the
//! training scaling at predict time. Classifiers train one head for binary
//! labels (label 1 vs 0) and one class-vs-rest head per class otherwise.

use crate::{MlError, Result};
use arda_linalg::stats::{apply_standardization, standardize_columns};
use arda_linalg::Matrix;

/// Per-column `(mean, std)` learnt at fit time.
#[derive(Debug, Clone)]
pub(crate) struct Standardizer(Vec<(f64, f64)>);

impl Standardizer {
    /// Check the training shapes, then return the scaling and a
    /// standardised copy of `x`.
    pub(crate) fn fit(x: &Matrix, y: &[f64]) -> Result<(Self, Matrix)> {
        if x.rows() == 0 {
            return Err(MlError::Invalid("empty training set".into()));
        }
        if x.rows() != y.len() {
            return Err(MlError::ShapeMismatch(format!(
                "{} rows vs {} labels",
                x.rows(),
                y.len()
            )));
        }
        let mut xs = x.clone();
        let scaling = standardize_columns(&mut xs);
        Ok((Standardizer(scaling), xs))
    }

    /// `x` scaled as the training rows were; its width must match theirs.
    pub(crate) fn apply(&self, x: &Matrix) -> Result<Matrix> {
        if x.cols() != self.0.len() {
            return Err(MlError::ShapeMismatch(format!(
                "predict: {} columns vs trained {}",
                x.cols(),
                self.0.len()
            )));
        }
        let mut xs = x.clone();
        apply_standardization(&mut xs, &self.0);
        Ok(xs)
    }
}

/// Targets of each one-vs-rest head: `1.0` for the head's positive rows
/// and `negative` for the rest.
pub(crate) fn one_vs_rest_targets(
    y: &[f64],
    n_classes: usize,
    negative: f64,
) -> Result<Vec<Vec<f64>>> {
    if n_classes < 2 {
        return Err(MlError::Invalid(
            "one-vs-rest classifier needs ≥2 classes".into(),
        ));
    }
    let heads = if n_classes == 2 { 1 } else { n_classes };
    Ok((0..heads)
        .map(|cls| {
            y.iter()
                .map(|&v| {
                    let positive = if n_classes == 2 {
                        v >= 1.0
                    } else {
                        (v as usize) == cls
                    };
                    if positive {
                        1.0
                    } else {
                        negative
                    }
                })
                .collect()
        })
        .collect())
}

/// Class ids for the rows of `xs` from `n_heads` one-vs-rest decision
/// values: the sign of the single binary head, else the argmax over heads
/// (ties go to the last maximal head).
pub(crate) fn one_vs_rest_predict(
    xs: &Matrix,
    n_heads: usize,
    decision: impl Fn(usize, &[f64]) -> f64,
) -> Vec<f64> {
    (0..xs.rows())
        .map(|r| {
            let row = xs.row(r);
            if n_heads == 1 {
                if decision(0, row) >= 0.0 {
                    1.0
                } else {
                    0.0
                }
            } else {
                (0..n_heads)
                    .map(|h| decision(h, row))
                    .enumerate()
                    .max_by(|a, b| a.1.total_cmp(&b.1))
                    .map(|(c, _)| c as f64)
                    .unwrap_or(0.0)
            }
        })
        .collect()
}
