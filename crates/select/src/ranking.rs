//! Feature-ranking methods: each assigns every feature a relevance score
//! (higher = better). Rankings feed the exponential search, the wrappers and
//! the RIFS ensemble.

use crate::relief::{relief_scores, ReliefConfig};
use crate::sparse_regression::{l21_solve, target_matrix, L21Config};
use crate::{Result, SelectError};
use arda_linalg::stats::standardize_columns;
use arda_ml::{Dataset, ForestConfig, Lasso, LinearSvm, LogisticRegression, RandomForest, Task};

/// The ranking models of the paper's grid (§7: "Methods such as Random
/// Forest, Sparse Regression, Mutual Information, Logistic Regression,
/// Lasso, Relief, and Linear SVM return ranking\[s\]").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RankingMethod {
    /// Random-forest impurity importances.
    RandomForest,
    /// ℓ2,1 sparse-regression row norms (Equation 1).
    SparseRegression,
    /// Histogram mutual information.
    MutualInfo,
    /// ANOVA / correlation F statistic.
    FTest,
    /// |lasso coefficients| (regression only).
    Lasso,
    /// Logistic-regression coefficient magnitudes (classification only).
    LogisticRegression,
    /// Linear-SVM coefficient magnitudes (classification only).
    LinearSvc,
    /// ReliefF weights.
    Relief,
}

impl RankingMethod {
    /// Paper-facing name.
    pub fn name(&self) -> &'static str {
        match self {
            RankingMethod::RandomForest => "random forest",
            RankingMethod::SparseRegression => "sparse regression",
            RankingMethod::MutualInfo => "mutual info",
            RankingMethod::FTest => "f-test",
            RankingMethod::Lasso => "lasso",
            RankingMethod::LogisticRegression => "logistic reg",
            RankingMethod::LinearSvc => "linear svc",
            RankingMethod::Relief => "relief",
        }
    }

    /// Task compatibility (the `n/a` cells of Table 1).
    pub fn supports(&self, task: Task) -> bool {
        match self {
            RankingMethod::Lasso => !task.is_classification(),
            RankingMethod::LogisticRegression | RankingMethod::LinearSvc => {
                task.is_classification()
            }
            _ => true,
        }
    }

    /// All methods applicable to `task`, in the paper's table order.
    pub fn all_for(task: Task) -> Vec<RankingMethod> {
        [
            RankingMethod::SparseRegression,
            RankingMethod::RandomForest,
            RankingMethod::FTest,
            RankingMethod::Lasso,
            RankingMethod::MutualInfo,
            RankingMethod::Relief,
            RankingMethod::LinearSvc,
            RankingMethod::LogisticRegression,
        ]
        .into_iter()
        .filter(|m| m.supports(task))
        .collect()
    }
}

/// Compute per-feature scores with the given method on (all rows of) `data`.
pub fn rank_features(data: &Dataset, method: RankingMethod, seed: u64) -> Result<Vec<f64>> {
    if !method.supports(data.task) {
        return Err(SelectError::Invalid(format!(
            "{} does not support {:?}",
            method.name(),
            data.task
        )));
    }
    let x = &data.x;
    let y = &data.y;
    let scores = match method {
        RankingMethod::RandomForest => {
            let cfg = ForestConfig {
                n_trees: 32,
                max_depth: 10,
                seed,
                ..Default::default()
            };
            RandomForest::fit_xy(x, y, data.task, &cfg)?
                .importances()
                .to_vec()
        }
        RankingMethod::SparseRegression => {
            let mut xs = x.clone();
            standardize_columns(&mut xs);
            let ym = target_matrix(y, data.task);
            l21_solve(&xs, &ym, &L21Config::default())?.feature_scores
        }
        RankingMethod::MutualInfo => crate::mutual_info::mutual_info_scores(x, y, data.task, 10),
        RankingMethod::FTest => crate::ftest::f_scores(x, y, data.task),
        RankingMethod::Lasso => {
            let mut m = Lasso::new(0.05);
            m.fit(x, y)?;
            m.coefficients().iter().map(|c| c.abs()).collect()
        }
        RankingMethod::LogisticRegression => {
            let mut m = LogisticRegression::new(1e-3);
            m.fit(x, y, data.task.n_classes())?;
            m.coefficient_magnitudes()
        }
        RankingMethod::LinearSvc => {
            let mut m = LinearSvm::new(0.01);
            m.seed = seed;
            m.fit(x, y, data.task.n_classes())?;
            m.coefficient_magnitudes()
        }
        RankingMethod::Relief => {
            let cfg = ReliefConfig {
                seed,
                ..Default::default()
            };
            relief_scores(x, y, data.task, &cfg)
        }
    };
    debug_assert_eq!(scores.len(), data.n_features());
    Ok(scores)
}

/// Feature indices ordered best-first under `scores` (stable for ties).
pub fn order_by_scores(scores: &[f64]) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..scores.len()).collect();
    idx.sort_by(|&a, &b| scores[b].total_cmp(&scores[a]).then(a.cmp(&b)));
    idx
}

#[cfg(test)]
mod tests {
    use super::*;
    use arda_linalg::Matrix;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn classification_data(n: usize, seed: u64) -> Dataset {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut rows = Vec::with_capacity(n);
        let mut y = Vec::with_capacity(n);
        for i in 0..n {
            let cls = (i % 2) as f64;
            rows.push(vec![
                cls * 4.0 + rng.gen_range(-0.5..0.5),
                rng.gen_range(-1.0..1.0),
                rng.gen_range(-1.0..1.0),
            ]);
            y.push(cls);
        }
        Dataset::new(
            Matrix::from_rows(&rows).unwrap(),
            y,
            vec!["sig".into(), "n1".into(), "n2".into()],
            Task::Classification { n_classes: 2 },
        )
        .unwrap()
    }

    fn regression_data(n: usize, seed: u64) -> Dataset {
        let mut rng = StdRng::seed_from_u64(seed);
        let rows: Vec<Vec<f64>> = (0..n)
            .map(|_| vec![rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0)])
            .collect();
        let y: Vec<f64> = rows.iter().map(|r| 5.0 * r[0]).collect();
        Dataset::new(
            Matrix::from_rows(&rows).unwrap(),
            y,
            vec!["sig".into(), "noise".into()],
            Task::Regression,
        )
        .unwrap()
    }

    #[test]
    fn every_classification_ranker_puts_signal_first() {
        let d = classification_data(200, 0);
        for m in RankingMethod::all_for(d.task) {
            let s = rank_features(&d, m, 0).unwrap();
            let order = order_by_scores(&s);
            assert_eq!(order[0], 0, "{} misranked: {s:?}", m.name());
        }
    }

    #[test]
    fn every_regression_ranker_puts_signal_first() {
        let d = regression_data(200, 1);
        for m in RankingMethod::all_for(d.task) {
            let s = rank_features(&d, m, 0).unwrap();
            let order = order_by_scores(&s);
            assert_eq!(order[0], 0, "{} misranked: {s:?}", m.name());
        }
    }

    #[test]
    fn task_support_is_enforced() {
        let d = regression_data(50, 2);
        assert!(rank_features(&d, RankingMethod::LogisticRegression, 0).is_err());
        assert!(rank_features(&d, RankingMethod::LinearSvc, 0).is_err());
        let c = classification_data(50, 2);
        assert!(rank_features(&c, RankingMethod::Lasso, 0).is_err());
    }

    #[test]
    fn all_for_excludes_incompatible() {
        let cls = RankingMethod::all_for(Task::Classification { n_classes: 2 });
        assert!(!cls.contains(&RankingMethod::Lasso));
        assert!(cls.contains(&RankingMethod::LinearSvc));
        let reg = RankingMethod::all_for(Task::Regression);
        assert!(reg.contains(&RankingMethod::Lasso));
        assert!(!reg.contains(&RankingMethod::LogisticRegression));
    }

    #[test]
    fn order_by_scores_stable_desc() {
        assert_eq!(order_by_scores(&[0.1, 0.9, 0.9, 0.0]), vec![1, 2, 0, 3]);
        assert!(order_by_scores(&[]).is_empty());
    }
}
