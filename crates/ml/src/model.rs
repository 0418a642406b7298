//! A uniform fit/predict interface over every model in the substrate.
//!
//! ARDA is "agnostic to the ML training process" (§2): feature-selection
//! wrappers, the RIFS threshold search and the AutoML-lite comparator all
//! just need *some* estimator they can refit repeatedly. [`ModelKind`] names
//! a configuration; fitting yields a [`Model`] that predicts.
//! [`best_holdout_score`] is the paper's best-of-estimators score, shared
//! by the pipeline's estimates and the bench's AutoML-lite.

use crate::forest::{ForestConfig, RandomForest};
use crate::linear::{Lasso, LinearSvm, LogisticRegression, Ridge};
use crate::svm::RbfSvm;
use crate::tree::{DecisionTree, TreeConfig};
use crate::{metrics, Dataset, MlError, Result, Task};
use arda_linalg::Matrix;

/// An estimator configuration (un-fitted).
#[derive(Debug, Clone, PartialEq)]
pub enum ModelKind {
    /// Random forest (both tasks) — the paper's default estimator.
    RandomForest {
        /// Number of trees.
        n_trees: usize,
        /// Maximum tree depth.
        max_depth: usize,
    },
    /// Single CART tree (both tasks).
    DecisionTree {
        /// Maximum depth.
        max_depth: usize,
    },
    /// Ridge regression (regression only; classification rounds are invalid).
    Ridge {
        /// L2 penalty.
        lambda: f64,
    },
    /// Lasso (regression).
    Lasso {
        /// L1 penalty.
        alpha: f64,
    },
    /// Logistic regression (classification).
    Logistic {
        /// L2 penalty.
        lambda: f64,
    },
    /// Pegasos linear SVM (classification).
    LinearSvm {
        /// Regularisation λ.
        lambda: f64,
    },
    /// RBF-kernel SVM (classification) — the paper's alternate estimator.
    RbfSvm {
        /// Box constraint C.
        c: f64,
    },
}

impl ModelKind {
    /// True when this model kind can be fitted for `task`.
    pub fn supports(&self, task: Task) -> bool {
        match self {
            ModelKind::RandomForest { .. } | ModelKind::DecisionTree { .. } => true,
            ModelKind::Ridge { .. } | ModelKind::Lasso { .. } => !task.is_classification(),
            ModelKind::Logistic { .. } | ModelKind::LinearSvm { .. } | ModelKind::RbfSvm { .. } => {
                task.is_classification()
            }
        }
    }

    /// Fit this configuration on `(x, y)`.
    pub fn fit(&self, x: &Matrix, y: &[f64], task: Task, seed: u64) -> Result<Model> {
        if !self.supports(task) {
            return Err(MlError::Invalid(format!(
                "{self:?} does not support {task:?}"
            )));
        }
        match *self {
            ModelKind::RandomForest { n_trees, max_depth } => {
                let cfg = ForestConfig {
                    n_trees,
                    max_depth,
                    seed,
                };
                Ok(Model::RandomForest(RandomForest::fit_xy(x, y, task, &cfg)?))
            }
            ModelKind::DecisionTree { max_depth } => {
                let cfg = TreeConfig {
                    max_depth,
                    seed,
                    ..Default::default()
                };
                Ok(Model::DecisionTree(DecisionTree::fit_xy(x, y, task, &cfg)?))
            }
            ModelKind::Ridge { lambda } => Ok(Model::Ridge(Ridge::fit(x, y, lambda)?)),
            ModelKind::Lasso { alpha } => Ok(Model::Lasso(Lasso::fit(x, y, alpha)?)),
            ModelKind::Logistic { lambda } => Ok(Model::Logistic(LogisticRegression::fit(
                x,
                y,
                task.n_classes(),
                lambda,
            )?)),
            ModelKind::LinearSvm { lambda } => Ok(Model::LinearSvm(LinearSvm::fit(
                x,
                y,
                task.n_classes(),
                lambda,
                seed,
            )?)),
            ModelKind::RbfSvm { c } => Ok(Model::RbfSvm(Box::new(RbfSvm::fit(
                x,
                y,
                task.n_classes(),
                c,
                seed,
            )?))),
        }
    }
}

/// A fitted model.
#[derive(Debug, Clone)]
pub enum Model {
    /// Fitted forest.
    RandomForest(RandomForest),
    /// Fitted tree.
    DecisionTree(DecisionTree),
    /// Fitted ridge.
    Ridge(Ridge),
    /// Fitted lasso.
    Lasso(Lasso),
    /// Fitted logistic regression.
    Logistic(LogisticRegression),
    /// Fitted linear SVM.
    LinearSvm(LinearSvm),
    /// Fitted RBF SVM (boxed: it retains its training matrix).
    RbfSvm(Box<RbfSvm>),
}

impl Model {
    /// Predict rows of `x`.
    pub fn predict(&self, x: &Matrix) -> Result<Vec<f64>> {
        match self {
            Model::RandomForest(m) => m.predict(x),
            Model::DecisionTree(m) => m.predict(x),
            Model::Ridge(m) => m.predict(x),
            Model::Lasso(m) => m.predict(x),
            Model::Logistic(m) => m.predict(x),
            Model::LinearSvm(m) => m.predict(x),
            Model::RbfSvm(m) => m.predict(x),
        }
    }
}

/// Higher-is-better score for a task: accuracy for classification, R² for
/// regression.
pub fn score_for_task(task: Task, pred: &[f64], truth: &[f64]) -> f64 {
    match task {
        Task::Classification { .. } => metrics::accuracy(pred, truth),
        Task::Regression => metrics::r2(pred, truth),
    }
}

/// Fit `kind` on the `train` rows of `data` and score on the `test` rows.
pub fn holdout_score(
    data: &Dataset,
    kind: &ModelKind,
    train: &[usize],
    test: &[usize],
    seed: u64,
) -> Result<f64> {
    let tr = data.select_rows(train)?;
    let te = data.select_rows(test)?;
    let model = kind.fit(&tr.x, &tr.y, data.task, seed)?;
    let pred = model.predict(&te.x)?;
    Ok(score_for_task(data.task, &pred, &te.y))
}

/// The paper's §7 protocol: score each of `kinds` on
/// [`Dataset::holdout_split`] "such that the best score achieved was
/// reported". A tie keeps the earlier kind.
///
/// Before fitting anything it rejects a split that leaves fewer than 2
/// rows on a side, and a regression holdout whose target is constant: R²
/// is undefined there, and `r2` would score any exact prediction a
/// perfect 1.0.
pub fn best_holdout_score(
    data: &Dataset,
    kinds: &[ModelKind],
    seed: u64,
) -> Result<(f64, ModelKind)> {
    let (train, holdout) = data.holdout_split(seed);
    if train.len() < 2 || holdout.len() < 2 {
        return Err(MlError::Invalid(format!(
            "{} rows split into {} train / {} holdout; each side needs at least 2",
            data.n_samples(),
            train.len(),
            holdout.len()
        )));
    }
    let first = data.y[holdout[0]];
    if !data.task.is_classification() && holdout.iter().all(|&i| data.y[i] == first) {
        return Err(MlError::Invalid(format!(
            "holdout target is constant: all {} holdout rows equal {first}, so R² is undefined",
            holdout.len()
        )));
    }
    let mut best: Option<(f64, &ModelKind)> = None;
    for kind in kinds {
        let score = holdout_score(data, kind, &train, &holdout, seed)?;
        if best.is_none_or(|(s, _)| score > s) {
            best = Some((score, kind));
        }
    }
    best.map(|(score, kind)| (score, kind.clone()))
        .ok_or_else(|| MlError::Invalid("no estimator to score".into()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn toy_classification() -> Dataset {
        let mut rng = StdRng::seed_from_u64(0);
        let rows: Vec<Vec<f64>> = (0..60)
            .map(|i| vec![(i % 2) as f64 * 4.0 + rng.gen_range(-0.5..0.5)])
            .collect();
        let y: Vec<f64> = (0..60).map(|i| (i % 2) as f64).collect();
        Dataset::new(
            Matrix::from_rows(&rows).unwrap(),
            y,
            vec!["f".into()],
            Task::Classification { n_classes: 2 },
        )
        .unwrap()
    }

    fn toy_regression() -> Dataset {
        let rows: Vec<Vec<f64>> = (0..50).map(|i| vec![i as f64]).collect();
        let y: Vec<f64> = (0..50).map(|i| 2.0 * i as f64 + 1.0).collect();
        Dataset::new(
            Matrix::from_rows(&rows).unwrap(),
            y,
            vec!["f".into()],
            Task::Regression,
        )
        .unwrap()
    }

    #[test]
    fn supports_matrix() {
        let cls = Task::Classification { n_classes: 2 };
        let forest = ModelKind::RandomForest {
            n_trees: 64,
            max_depth: 12,
        };
        assert!(forest.supports(cls));
        assert!(forest.supports(Task::Regression));
        assert!(!ModelKind::Ridge { lambda: 1.0 }.supports(cls));
        assert!(!ModelKind::Logistic { lambda: 1.0 }.supports(Task::Regression));
        assert!(ModelKind::RbfSvm { c: 1.0 }.supports(cls));
    }

    #[test]
    fn every_classification_model_fits_and_predicts() {
        let d = toy_classification();
        for kind in [
            ModelKind::RandomForest {
                n_trees: 8,
                max_depth: 6,
            },
            ModelKind::DecisionTree { max_depth: 6 },
            ModelKind::Logistic { lambda: 1e-3 },
            ModelKind::LinearSvm { lambda: 0.01 },
            ModelKind::RbfSvm { c: 1.0 },
        ] {
            let m = kind.fit(&d.x, &d.y, d.task, 0).unwrap();
            let pred = m.predict(&d.x).unwrap();
            let acc = metrics::accuracy(&pred, &d.y);
            assert!(acc > 0.9, "{kind:?} acc {acc}");
        }
    }

    #[test]
    fn every_regression_model_fits_and_predicts() {
        let d = toy_regression();
        for kind in [
            ModelKind::RandomForest {
                n_trees: 8,
                max_depth: 10,
            },
            ModelKind::DecisionTree { max_depth: 10 },
            ModelKind::Ridge { lambda: 1e-6 },
            ModelKind::Lasso { alpha: 0.01 },
        ] {
            let m = kind.fit(&d.x, &d.y, d.task, 0).unwrap();
            let pred = m.predict(&d.x).unwrap();
            let score = metrics::r2(&pred, &d.y);
            assert!(score > 0.9, "{kind:?} r2 {score}");
        }
    }

    #[test]
    fn unsupported_task_errors() {
        let d = toy_regression();
        assert!(ModelKind::Logistic { lambda: 1.0 }
            .fit(&d.x, &d.y, d.task, 0)
            .is_err());
    }

    #[test]
    fn holdout_score_runs() {
        let d = toy_classification();
        let (train, test) = crate::split::train_test_split(d.n_samples(), 0.3, 0);
        let s = holdout_score(
            &d,
            &ModelKind::DecisionTree { max_depth: 4 },
            &train,
            &test,
            0,
        )
        .unwrap();
        assert!(s > 0.9, "score {s}");
    }

    #[test]
    fn best_holdout_score_keeps_the_first_of_tied_kinds() {
        let d = toy_classification();
        let shallow = ModelKind::DecisionTree { max_depth: 2 };
        let deep = ModelKind::DecisionTree { max_depth: 8 };
        let (score, kind) = best_holdout_score(&d, &[shallow.clone(), deep], 0).unwrap();
        assert_eq!(score, 1.0);
        assert_eq!(kind, shallow);
        assert!(best_holdout_score(&d, &[], 0).is_err(), "no kind to score");
    }

    #[test]
    fn best_holdout_score_rejects_a_side_under_two_rows() {
        for n in [2, 3] {
            let rows: Vec<Vec<f64>> = (0..n).map(|i| vec![i as f64]).collect();
            let y = (0..n).map(|i| i as f64).collect();
            let d = Dataset::new(
                Matrix::from_rows(&rows).unwrap(),
                y,
                vec!["f".into()],
                Task::Regression,
            )
            .unwrap();
            let err = best_holdout_score(&d, &[ModelKind::Ridge { lambda: 1.0 }], 0).unwrap_err();
            assert!(
                matches!(&err, MlError::Invalid(msg) if msg.contains("each side needs at least 2")),
                "{n} rows: {err}"
            );
        }
    }

    #[test]
    fn best_holdout_score_rejects_a_constant_regression_holdout() {
        let d = toy_regression();
        let (train, _) = d.holdout_split(0);
        // Only one training row differs, so every holdout row is 1.5.
        let y = (0..d.n_samples())
            .map(|i| if i == train[0] { 2.5 } else { 1.5 })
            .collect();
        let d = Dataset::new(d.x, y, d.feature_names, d.task).unwrap();
        let err = best_holdout_score(&d, &[ModelKind::Ridge { lambda: 1.0 }], 0).unwrap_err();
        assert!(
            matches!(&err, MlError::Invalid(msg) if msg.contains("holdout target is constant")),
            "{err}"
        );
    }

    /// FNV-1a over the bit patterns of `values`.
    fn bits_digest(values: &[f64]) -> u64 {
        values.iter().fold(0xcbf2_9ce4_8422_2325, |h, v| {
            v.to_bits()
                .to_le_bytes()
                .iter()
                .fold(h, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3))
        })
    }

    /// Fixed training rows, labels and held-out rows for `task`: three
    /// features, a noisy linear signal on the first two, and labels cut
    /// from that signal for classification.
    fn pin_data(task: Task) -> (Matrix, Vec<f64>, Matrix) {
        let mut rng = StdRng::seed_from_u64(41);
        let mut draw = |n: usize| {
            let rows: Vec<Vec<f64>> = (0..n)
                .map(|_| (0..3).map(|_| rng.gen_range(-2.0..2.0)).collect())
                .collect();
            let y: Vec<f64> = rows
                .iter()
                .map(|r| {
                    let s = 1.5 * r[0] - 0.7 * r[1] + rng.gen_range(-2.0..2.0);
                    match task.n_classes() {
                        1 => s,
                        2 => f64::from(u8::from(s > 0.0)),
                        _ => f64::from(u8::from(s > -1.0) + u8::from(s > 1.0)),
                    }
                })
                .collect();
            (Matrix::from_rows(&rows).unwrap(), y)
        };
        let (x, y) = draw(45);
        let (test, _) = draw(12);
        (x, y, test)
    }

    /// Every model's output, pinned bit for bit on regression, binary and
    /// 3-class data: a digest of the held-out predictions' `to_bits`, then
    /// a digest of the coefficients the linear rankings read, or the RBF
    /// SVM's support count. A change that moves any of them changes the
    /// numerics and must re-pin them in its own diff.
    #[test]
    fn outputs_are_pinned_bit_for_bit() {
        let kinds = [
            ModelKind::RandomForest {
                n_trees: 6,
                max_depth: 5,
            },
            ModelKind::DecisionTree { max_depth: 4 },
            ModelKind::Ridge { lambda: 0.1 },
            ModelKind::Lasso { alpha: 0.05 },
            ModelKind::Logistic { lambda: 1e-3 },
            ModelKind::LinearSvm { lambda: 0.01 },
            ModelKind::RbfSvm { c: 1.0 },
        ];
        let tasks = [
            ("regression", Task::Regression),
            ("binary", Task::Classification { n_classes: 2 }),
            ("3-class", Task::Classification { n_classes: 3 }),
        ];
        let mut got = Vec::new();
        for (name, task) in tasks {
            let (x, y, test) = pin_data(task);
            for kind in kinds.iter().filter(|k| k.supports(task)) {
                let model = kind.fit(&x, &y, task, 7).unwrap();
                let mut pins = vec![bits_digest(&model.predict(&test).unwrap())];
                match &model {
                    Model::Ridge(m) => pins.push(bits_digest(m.coefficients())),
                    Model::Lasso(m) => pins.push(bits_digest(m.coefficients())),
                    Model::Logistic(m) => pins.push(bits_digest(&m.coefficient_magnitudes())),
                    Model::LinearSvm(m) => pins.push(bits_digest(&m.coefficient_magnitudes())),
                    Model::RbfSvm(m) => pins.push(m.n_support() as u64),
                    Model::RandomForest(_) | Model::DecisionTree(_) => {}
                }
                got.push((format!("{kind:?} on {name}"), pins));
            }
        }
        let want: Vec<(String, Vec<u64>)> = [
            // (model on task, [predictions digest, coefficients digest or support count])
            (
                "RandomForest { n_trees: 6, max_depth: 5 } on regression",
                &[0xb291d1ff33b949fa][..],
            ),
            (
                "DecisionTree { max_depth: 4 } on regression",
                &[0x37c3fe6dfde7761b][..],
            ),
            (
                "Ridge { lambda: 0.1 } on regression",
                &[0x72e0686d9084292a, 0xd18a86cee8140c0b][..],
            ),
            (
                "Lasso { alpha: 0.05 } on regression",
                &[0xef7f5c8e39bce866, 0x6b2f85f177202aab][..],
            ),
            (
                "RandomForest { n_trees: 6, max_depth: 5 } on binary",
                &[0xb0e1d1d553e237d8][..],
            ),
            (
                "DecisionTree { max_depth: 4 } on binary",
                &[0xffd18d84ea264a18][..],
            ),
            (
                "Logistic { lambda: 0.001 } on binary",
                &[0xafd220d552fb8ae5, 0x6c2a912a4fb69677][..],
            ),
            (
                "LinearSvm { lambda: 0.01 } on binary",
                &[0xc3e5d2a9c0700bd8, 0x963d0ac4714017f3][..],
            ),
            ("RbfSvm { c: 1.0 } on binary", &[0x0317ae317fcc2798, 28][..]),
            (
                "RandomForest { n_trees: 6, max_depth: 5 } on 3-class",
                &[0x74fd7cd97ac89865][..],
            ),
            (
                "DecisionTree { max_depth: 4 } on 3-class",
                &[0xc4e1dafcd94cfc45][..],
            ),
            (
                "Logistic { lambda: 0.001 } on 3-class",
                &[0xb3cd1a247fc22265, 0x0d988cbbfbbf886d][..],
            ),
            (
                "LinearSvm { lambda: 0.01 } on 3-class",
                &[0x83207ffb816cd425, 0xc5fe1b3a272f6ec1][..],
            ),
            (
                "RbfSvm { c: 1.0 } on 3-class",
                &[0xc132781d71fa7745, 27][..],
            ),
        ]
        .iter()
        .map(|(k, v)| (k.to_string(), v.to_vec()))
        .collect();
        assert_eq!(got, want, "re-pin from: {got:#x?}");
    }

    #[test]
    fn score_for_task_dispatch() {
        let cls = Task::Classification { n_classes: 2 };
        assert_eq!(score_for_task(cls, &[1.0, 0.0], &[1.0, 1.0]), 0.5);
        let r = score_for_task(Task::Regression, &[1.0, 2.0], &[1.0, 2.0]);
        assert!((r - 1.0).abs() < 1e-12);
    }
}
