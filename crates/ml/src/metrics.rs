//! Evaluation metrics: accuracy, MAE, RMSE, R².
//!
//! The paper reports accuracy for classification tasks and scaled Mean
//! Absolute Error for regression tasks (Table 1); all metric shapes used by
//! the benches live here.

/// Fraction of exact matches.
pub fn accuracy(pred: &[f64], truth: &[f64]) -> f64 {
    assert_eq!(pred.len(), truth.len(), "accuracy: length mismatch");
    if pred.is_empty() {
        return 0.0;
    }
    let hits = pred.iter().zip(truth).filter(|(p, t)| p == t).count();
    hits as f64 / pred.len() as f64
}

/// Mean absolute error.
pub fn mae(pred: &[f64], truth: &[f64]) -> f64 {
    assert_eq!(pred.len(), truth.len(), "mae: length mismatch");
    if pred.is_empty() {
        return 0.0;
    }
    pred.iter()
        .zip(truth)
        .map(|(p, t)| (p - t).abs())
        .sum::<f64>()
        / pred.len() as f64
}

/// Root mean squared error.
pub fn rmse(pred: &[f64], truth: &[f64]) -> f64 {
    assert_eq!(pred.len(), truth.len(), "rmse: length mismatch");
    if pred.is_empty() {
        return 0.0;
    }
    (pred
        .iter()
        .zip(truth)
        .map(|(p, t)| (p - t) * (p - t))
        .sum::<f64>()
        / pred.len() as f64)
        .sqrt()
}

/// Coefficient of determination; 0 when truth is constant and predictions
/// are imperfect.
pub fn r2(pred: &[f64], truth: &[f64]) -> f64 {
    assert_eq!(pred.len(), truth.len(), "r2: length mismatch");
    if pred.is_empty() {
        return 0.0;
    }
    let mean = truth.iter().sum::<f64>() / truth.len() as f64;
    let ss_tot: f64 = truth.iter().map(|t| (t - mean) * (t - mean)).sum();
    let ss_res: f64 = pred.iter().zip(truth).map(|(p, t)| (p - t) * (p - t)).sum();
    if ss_tot <= 0.0 {
        if ss_res <= 1e-12 {
            1.0
        } else {
            0.0
        }
    } else {
        1.0 - ss_res / ss_tot
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accuracy_counts_matches() {
        assert_eq!(accuracy(&[1.0, 0.0, 1.0], &[1.0, 1.0, 1.0]), 2.0 / 3.0);
        assert_eq!(accuracy(&[], &[]), 0.0);
    }

    #[test]
    fn regression_metrics() {
        let p = vec![1.0, 2.0, 3.0];
        let t = vec![2.0, 2.0, 2.0];
        assert!((mae(&p, &t) - 2.0 / 3.0).abs() < 1e-12);
        assert!((rmse(&p, &t) - (2.0f64 / 3.0).sqrt()).abs() < 1e-12);
    }

    #[test]
    fn r2_perfect_and_mean_baseline() {
        let t = vec![1.0, 2.0, 3.0];
        assert!((r2(&t, &t) - 1.0).abs() < 1e-12);
        let mean_pred = vec![2.0, 2.0, 2.0];
        assert!(r2(&mean_pred, &t).abs() < 1e-12);
        // Constant truth edge cases.
        assert_eq!(r2(&[5.0, 5.0], &[5.0, 5.0]), 1.0);
        assert_eq!(r2(&[4.0, 5.0], &[5.0, 5.0]), 0.0);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn length_mismatch_panics() {
        accuracy(&[1.0], &[1.0, 2.0]);
    }
}
