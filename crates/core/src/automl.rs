//! AutoML-lite: a time-budgeted model + hyper-parameter search standing in
//! for the commercial AutoML systems the paper compares against (Microsoft
//! Azure AutoML and Alpine Meadow in Fig. 3 / Tables 1, 6).
//!
//! Given a featurized dataset it sweeps a fixed model zoo (forests of
//! several sizes, SVMs, linear models), evaluates each on a holdout split
//! and returns the best configuration found before the budget expires.

use crate::Result;
use arda_ml::model::holdout_score;
use arda_ml::{Dataset, ModelKind};
use std::time::{Duration, Instant};

/// Outcome of an AutoML-lite run.
#[derive(Debug, Clone)]
pub struct AutomlReport {
    /// Best holdout score found.
    pub best_score: f64,
    /// The winning configuration.
    pub best_model: ModelKind,
    /// Configurations actually evaluated before the budget ran out.
    pub evaluated: usize,
    /// Wall-clock seconds used.
    pub seconds: f64,
}

/// Candidate grid, ordered cheap → expensive so that small budgets still
/// produce an answer.
fn model_zoo(classification: bool) -> Vec<ModelKind> {
    let mut zoo = vec![
        ModelKind::DecisionTree { max_depth: 6 },
        ModelKind::DecisionTree { max_depth: 12 },
        ModelKind::RandomForest {
            n_trees: 16,
            max_depth: 8,
        },
        ModelKind::RandomForest {
            n_trees: 64,
            max_depth: 12,
        },
        ModelKind::RandomForest {
            n_trees: 128,
            max_depth: 16,
        },
    ];
    if classification {
        zoo.extend([
            ModelKind::Logistic { lambda: 1e-3 },
            ModelKind::Logistic { lambda: 1e-1 },
            ModelKind::LinearSvm { lambda: 1e-2 },
            ModelKind::RbfSvm { c: 1.0 },
            ModelKind::RbfSvm { c: 10.0 },
        ]);
    } else {
        zoo.extend([
            ModelKind::Ridge { lambda: 1e-3 },
            ModelKind::Ridge { lambda: 1.0 },
            ModelKind::Lasso { alpha: 0.01 },
            ModelKind::Lasso { alpha: 0.1 },
        ]);
    }
    zoo
}

/// Search the zoo within `budget`; always evaluates at least one model.
pub fn automl_search(data: &Dataset, budget: Duration, seed: u64) -> Result<AutomlReport> {
    let start = Instant::now();
    let (train, holdout) = data.holdout_split(seed);

    let mut best: Option<(f64, ModelKind)> = None;
    let mut evaluated = 0usize;
    for kind in model_zoo(data.task.is_classification()) {
        if !kind.supports(data.task) {
            continue;
        }
        let score = holdout_score(data, &kind, &train, &holdout, seed)?;
        evaluated += 1;
        if best.as_ref().is_none_or(|(s, _)| score > *s) {
            best = Some((score, kind));
        }
        if start.elapsed() >= budget {
            break;
        }
    }
    let (best_score, best_model) = best.expect("zoo is non-empty and first model always runs");
    Ok(AutomlReport {
        best_score,
        best_model,
        evaluated,
        seconds: start.elapsed().as_secs_f64(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use arda_linalg::Matrix;
    use arda_ml::Task;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn toy_cls(n: usize) -> Dataset {
        let mut rng = StdRng::seed_from_u64(0);
        let rows: Vec<Vec<f64>> = (0..n)
            .map(|i| vec![(i % 2) as f64 * 3.0 + rng.gen_range(-0.4..0.4)])
            .collect();
        let y = (0..n).map(|i| (i % 2) as f64).collect();
        Dataset::new(
            Matrix::from_rows(&rows).unwrap(),
            y,
            vec!["f".into()],
            Task::Classification { n_classes: 2 },
        )
        .unwrap()
    }

    #[test]
    fn finds_good_model_for_separable_data() {
        let d = toy_cls(80);
        let r = automl_search(&d, Duration::from_secs(30), 0).unwrap();
        assert!(r.best_score > 0.9, "score {}", r.best_score);
        assert!(r.evaluated >= 2);
    }

    #[test]
    fn tiny_budget_still_returns() {
        let d = toy_cls(60);
        let r = automl_search(&d, Duration::from_millis(0), 0).unwrap();
        assert_eq!(r.evaluated, 1, "stops after first evaluation");
        assert!(r.best_score.is_finite());
    }

    #[test]
    fn regression_zoo_used_for_regression() {
        let rows: Vec<Vec<f64>> = (0..60).map(|i| vec![i as f64]).collect();
        let y: Vec<f64> = (0..60).map(|i| 2.0 * i as f64).collect();
        let d = Dataset::new(
            Matrix::from_rows(&rows).unwrap(),
            y,
            vec!["f".into()],
            Task::Regression,
        )
        .unwrap();
        let r = automl_search(&d, Duration::from_secs(30), 0).unwrap();
        assert!(r.best_score > 0.9, "r2 {}", r.best_score);
    }
}
