//! Numeric datasets: a feature matrix, a target vector and a task type.

use crate::split::{stratified_split, train_test_split};
use crate::{MlError, Result};
use arda_linalg::Matrix;

/// The learning task. ARDA supports regression (Taxi, Pickup, Poverty) and
/// classification (School, Kraken, Digits).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Task {
    /// Real-valued target; scored by error metrics (MAE/RMSE).
    Regression,
    /// Integer class labels `0..n_classes`; scored by accuracy/F1.
    Classification {
        /// Number of distinct classes.
        n_classes: usize,
    },
}

impl Task {
    /// True for classification tasks.
    pub fn is_classification(self) -> bool {
        matches!(self, Task::Classification { .. })
    }

    /// Number of classes (1 for regression).
    pub fn n_classes(self) -> usize {
        match self {
            Task::Regression => 1,
            Task::Classification { n_classes } => n_classes,
        }
    }
}

/// A fully numeric dataset ready for model training.
///
/// Classification labels are stored as `f64` class ids (`0.0, 1.0, ...`) so
/// one matrix/vector representation serves both tasks.
#[derive(Debug, Clone)]
pub struct Dataset {
    /// `n × d` feature matrix.
    pub x: Matrix,
    /// Length-`n` target.
    pub y: Vec<f64>,
    /// Column names aligned with `x` (provenance: `table.column` after
    /// joins), used to report which augmentations were selected.
    pub feature_names: Vec<String>,
    /// Task type.
    pub task: Task,
}

impl Dataset {
    /// Build a dataset, validating shapes.
    pub fn new(x: Matrix, y: Vec<f64>, feature_names: Vec<String>, task: Task) -> Result<Self> {
        if x.rows() != y.len() {
            return Err(MlError::ShapeMismatch(format!(
                "{} rows vs {} labels",
                x.rows(),
                y.len()
            )));
        }
        if feature_names.len() != x.cols() {
            return Err(MlError::ShapeMismatch(format!(
                "{} names vs {} columns",
                feature_names.len(),
                x.cols()
            )));
        }
        Ok(Dataset {
            x,
            y,
            feature_names,
            task,
        })
    }

    /// The evaluation protocol's train/holdout split: label-stratified for
    /// classification, shuffled for regression, with 25% of the rows held
    /// out. Every holdout score of the pipeline is measured on it.
    pub fn holdout_split(&self, seed: u64) -> (Vec<usize>, Vec<usize>) {
        if self.task.is_classification() {
            stratified_split(&self.y, 0.25, seed)
        } else {
            train_test_split(self.n_samples(), 0.25, seed)
        }
    }

    /// Number of samples.
    pub fn n_samples(&self) -> usize {
        self.x.rows()
    }

    /// Number of features.
    pub fn n_features(&self) -> usize {
        self.x.cols()
    }

    /// Restrict to a feature subset (columns by index).
    pub fn select_features(&self, cols: &[usize]) -> Result<Dataset> {
        let x = self
            .x
            .select_columns(cols)
            .map_err(|e| MlError::ShapeMismatch(e.to_string()))?;
        let names = cols
            .iter()
            .map(|&c| self.feature_names[c].clone())
            .collect();
        Dataset::new(x, self.y.clone(), names, self.task)
    }

    /// Restrict to a row subset (repeats allowed).
    pub fn select_rows(&self, rows: &[usize]) -> Result<Dataset> {
        let x = self
            .x
            .select_rows(rows)
            .map_err(|e| MlError::ShapeMismatch(e.to_string()))?;
        let y = rows.iter().map(|&r| self.y[r]).collect();
        Dataset::new(x, y, self.feature_names.clone(), self.task)
    }

    /// Append extra feature columns (e.g. RIFS noise injections).
    pub fn append_features(&self, extra: &Matrix, names: Vec<String>) -> Result<Dataset> {
        if extra.cols() != names.len() {
            return Err(MlError::ShapeMismatch(format!(
                "{} extra columns vs {} names",
                extra.cols(),
                names.len()
            )));
        }
        let x = self
            .x
            .hcat(extra)
            .map_err(|e| MlError::ShapeMismatch(e.to_string()))?;
        let mut all_names = self.feature_names.clone();
        all_names.extend(names);
        Dataset::new(x, self.y.clone(), all_names, self.task)
    }

    /// Class counts for classification datasets (empty for regression).
    pub fn class_counts(&self) -> Vec<usize> {
        match self.task {
            Task::Regression => Vec::new(),
            Task::Classification { n_classes } => {
                let mut counts = vec![0usize; n_classes];
                for &y in &self.y {
                    let c = y as usize;
                    if c < n_classes {
                        counts[c] += 1;
                    }
                }
                counts
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy() -> Dataset {
        let x = Matrix::from_rows(&[vec![1.0, 10.0], vec![2.0, 20.0], vec![3.0, 30.0]]).unwrap();
        Dataset::new(
            x,
            vec![0.0, 1.0, 1.0],
            vec!["a".into(), "b".into()],
            Task::Classification { n_classes: 2 },
        )
        .unwrap()
    }

    #[test]
    fn validates_shapes() {
        let x = Matrix::zeros(2, 2);
        assert!(Dataset::new(
            x.clone(),
            vec![0.0],
            vec!["a".into(), "b".into()],
            Task::Regression
        )
        .is_err());
        assert!(Dataset::new(x, vec![0.0, 1.0], vec!["a".into()], Task::Regression).is_err());
    }

    #[test]
    fn select_features_keeps_names() {
        let d = toy();
        let s = d.select_features(&[1]).unwrap();
        assert_eq!(s.n_features(), 1);
        assert_eq!(s.feature_names, vec!["b"]);
        assert_eq!(s.x.get(2, 0), 30.0);
        assert!(d.select_features(&[5]).is_err());
    }

    #[test]
    fn select_rows_repeats() {
        let d = toy();
        let s = d.select_rows(&[2, 2, 0]).unwrap();
        assert_eq!(s.n_samples(), 3);
        assert_eq!(s.y, vec![1.0, 1.0, 0.0]);
    }

    #[test]
    fn append_features_extends_names() {
        let d = toy();
        let extra = Matrix::from_rows(&[vec![7.0], vec![8.0], vec![9.0]]).unwrap();
        let e = d.append_features(&extra, vec!["noise_0".into()]).unwrap();
        assert_eq!(e.n_features(), 3);
        assert_eq!(e.feature_names[2], "noise_0");
        assert!(d.append_features(&extra, vec![]).is_err());
    }

    #[test]
    fn class_counts() {
        let d = toy();
        assert_eq!(d.class_counts(), vec![1, 2]);
        let r = Dataset::new(
            Matrix::zeros(2, 1),
            vec![0.5, 0.7],
            vec!["a".into()],
            Task::Regression,
        )
        .unwrap();
        assert!(r.class_counts().is_empty());
        assert_eq!(r.task.n_classes(), 1);
        assert!(!r.task.is_classification());
    }
}
