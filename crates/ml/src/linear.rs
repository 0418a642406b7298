//! Linear models: ridge, lasso (coordinate descent), logistic regression and
//! a Pegasos-style linear SVM.
//!
//! These provide both estimators and — through their coefficient magnitudes —
//! the linear feature rankers of ARDA's baseline grid (Lasso, Logistic
//! Regression, Linear SVC in Tables 1/6). Each model is built by its `fit`,
//! which returns the fitted model; all four share one fitted shape, a set of
//! linear heads over standardised features.

use crate::fitting::{one_vs_rest_predict, one_vs_rest_targets, Standardizer};
use crate::{MlError, Result};
use arda_linalg::{cholesky_solve, Matrix};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Lasso coordinate-descent sweeps.
const LASSO_MAX_SWEEPS: usize = 300;
/// Lasso stops once no coefficient moves by this much in a sweep.
const LASSO_TOL: f64 = 1e-6;
/// Logistic-regression gradient steps.
const LOGISTIC_STEPS: usize = 200;
/// Logistic-regression learning rate.
const LOGISTIC_LR: f64 = 0.5;
/// Pegasos epochs (each draws `n` rows).
const PEGASOS_EPOCHS: usize = 30;

/// `intercept + Σ xᵢ·wᵢ`.
fn linear_score(intercept: f64, weights: &[f64], row: &[f64]) -> f64 {
    intercept + row.iter().zip(weights).map(|(a, b)| a * b).sum::<f64>()
}

/// Fitted linear heads over standardised features: one head for the two
/// regressors and binary classifiers, one per class otherwise.
#[derive(Debug, Clone)]
struct LinearHeads {
    scaler: Standardizer,
    weights: Vec<Vec<f64>>,
    intercepts: Vec<f64>,
}

impl LinearHeads {
    /// The single head's score for each row of `x`.
    fn regress(&self, x: &Matrix) -> Result<Vec<f64>> {
        let xs = self.scaler.apply(x)?;
        Ok((0..xs.rows())
            .map(|r| linear_score(self.intercepts[0], &self.weights[0], xs.row(r)))
            .collect())
    }

    /// One-vs-rest class ids for each row of `x`.
    fn classify(&self, x: &Matrix) -> Result<Vec<f64>> {
        let xs = self.scaler.apply(x)?;
        Ok(one_vs_rest_predict(&xs, self.weights.len(), |h, row| {
            linear_score(self.intercepts[h], &self.weights[h], row)
        }))
    }

    /// Per-feature L2 norm of the coefficients across heads.
    fn coefficient_magnitudes(&self) -> Vec<f64> {
        (0..self.weights[0].len())
            .map(|j| self.weights.iter().map(|w| w[j] * w[j]).sum::<f64>().sqrt())
            .collect()
    }
}

/// Ridge regression `min ‖Xw − y‖² + λ‖w‖²`, solved exactly via Cholesky on
/// the regularised normal equations.
#[derive(Debug, Clone)]
pub struct Ridge(LinearHeads);

impl Ridge {
    /// Fit on `x`, `y` with L2 penalty `lambda`.
    pub fn fit(x: &Matrix, y: &[f64], lambda: f64) -> Result<Self> {
        let (scaler, xs) = Standardizer::fit(x, y)?;
        let y_mean = y.iter().sum::<f64>() / y.len() as f64;
        let yc: Vec<f64> = y.iter().map(|v| v - y_mean).collect();

        let mut gram = xs.gram();
        let d = gram.rows();
        for i in 0..d {
            let v = gram.get(i, i) + lambda.max(1e-9);
            gram.set(i, i, v);
        }
        // Xᵀy.
        let mut rhs = vec![0.0; d];
        for r in 0..xs.rows() {
            let row = xs.row(r);
            let yv = yc[r];
            for (acc, v) in rhs.iter_mut().zip(row) {
                *acc += v * yv;
            }
        }
        let w = cholesky_solve(&gram, &rhs).map_err(|e| MlError::Invalid(e.to_string()))?;
        Ok(Ridge(LinearHeads {
            scaler,
            weights: vec![w],
            intercepts: vec![y_mean],
        }))
    }

    /// Predict rows of `x`.
    pub fn predict(&self, x: &Matrix) -> Result<Vec<f64>> {
        self.0.regress(x)
    }

    /// Standardised coefficients (importance magnitudes).
    pub fn coefficients(&self) -> &[f64] {
        &self.0.weights[0]
    }
}

/// Lasso `min (1/2n)‖Xw − y‖² + α‖w‖₁` via cyclic coordinate descent on
/// standardised features.
#[derive(Debug, Clone)]
pub struct Lasso(LinearHeads);

impl Lasso {
    /// Fit on `x`, `y` with L1 penalty `alpha`.
    pub fn fit(x: &Matrix, y: &[f64], alpha: f64) -> Result<Self> {
        let (scaler, xs) = Standardizer::fit(x, y)?;
        let n = xs.rows();
        let d = xs.cols();
        let y_mean = y.iter().sum::<f64>() / n as f64;
        let yc: Vec<f64> = y.iter().map(|v| v - y_mean).collect();

        // Column views for fast coordinate updates.
        let cols: Vec<Vec<f64>> = (0..d).map(|c| xs.col(c)).collect();
        let col_sq: Vec<f64> = cols
            .iter()
            .map(|c| c.iter().map(|v| v * v).sum::<f64>() / n as f64)
            .collect();

        let mut w = vec![0.0; d];
        let mut residual = yc;
        let soft = |z: f64, g: f64| -> f64 {
            if z > g {
                z - g
            } else if z < -g {
                z + g
            } else {
                0.0
            }
        };
        for _ in 0..LASSO_MAX_SWEEPS {
            let mut max_delta: f64 = 0.0;
            for j in 0..d {
                if col_sq[j] <= 1e-12 {
                    continue;
                }
                let old = w[j];
                // ρ = (1/n) Σ x_ij (r_i + x_ij w_j)
                let mut rho = 0.0;
                for (xi, ri) in cols[j].iter().zip(&residual) {
                    rho += xi * ri;
                }
                rho = rho / n as f64 + col_sq[j] * old;
                let new = soft(rho, alpha) / col_sq[j];
                if new != old {
                    let delta = new - old;
                    for (ri, xi) in residual.iter_mut().zip(&cols[j]) {
                        *ri -= delta * xi;
                    }
                    w[j] = new;
                    max_delta = max_delta.max(delta.abs());
                }
            }
            if max_delta < LASSO_TOL {
                break;
            }
        }
        Ok(Lasso(LinearHeads {
            scaler,
            weights: vec![w],
            intercepts: vec![y_mean],
        }))
    }

    /// Predict rows of `x`.
    pub fn predict(&self, x: &Matrix) -> Result<Vec<f64>> {
        self.0.regress(x)
    }

    /// Sparse standardised coefficients.
    pub fn coefficients(&self) -> &[f64] {
        &self.0.weights[0]
    }
}

/// One-vs-rest L2-regularised logistic regression trained with gradient
/// descent on standardised features.
#[derive(Debug, Clone)]
pub struct LogisticRegression(LinearHeads);

impl LogisticRegression {
    /// Fit with class labels `0..n_classes` encoded in `y` and L2 penalty
    /// `lambda`.
    pub fn fit(x: &Matrix, y: &[f64], n_classes: usize, lambda: f64) -> Result<Self> {
        let (scaler, xs) = Standardizer::fit(x, y)?;
        let n = xs.rows();
        let d = xs.cols();
        let mut weights = Vec::new();
        let mut intercepts = Vec::new();
        for targets in one_vs_rest_targets(y, n_classes, 0.0)? {
            let mut w = vec![0.0; d];
            let mut b = 0.0;
            for _ in 0..LOGISTIC_STEPS {
                let mut grad_w = vec![0.0; d];
                let mut grad_b = 0.0;
                for r in 0..n {
                    let p = 1.0 / (1.0 + (-linear_score(b, &w, xs.row(r))).exp());
                    let err = p - targets[r];
                    for (g, v) in grad_w.iter_mut().zip(xs.row(r)) {
                        *g += err * v;
                    }
                    grad_b += err;
                }
                let inv_n = 1.0 / n as f64;
                for (wj, gj) in w.iter_mut().zip(&grad_w) {
                    *wj -= LOGISTIC_LR * (gj * inv_n + lambda * *wj);
                }
                b -= LOGISTIC_LR * grad_b * inv_n;
            }
            weights.push(w);
            intercepts.push(b);
        }
        Ok(LogisticRegression(LinearHeads {
            scaler,
            weights,
            intercepts,
        }))
    }

    /// Predicted class ids.
    pub fn predict(&self, x: &Matrix) -> Result<Vec<f64>> {
        self.0.classify(x)
    }

    /// Per-feature importance: L2 norm of the coefficient across heads.
    pub fn coefficient_magnitudes(&self) -> Vec<f64> {
        self.0.coefficient_magnitudes()
    }
}

/// Linear SVM via the Pegasos stochastic sub-gradient solver (binary, hinge
/// loss, L2 regularisation); one-vs-rest for multiclass.
#[derive(Debug, Clone)]
pub struct LinearSvm(LinearHeads);

impl LinearSvm {
    /// Fit with class labels `0..n_classes`, regularisation `lambda` and
    /// the RNG `seed` that draws the SGD rows.
    pub fn fit(x: &Matrix, y: &[f64], n_classes: usize, lambda: f64, seed: u64) -> Result<Self> {
        let (scaler, xs) = Standardizer::fit(x, y)?;
        let n = xs.rows();
        let d = xs.cols();
        let mut weights = Vec::new();
        let mut intercepts = Vec::new();
        let mut rng = StdRng::seed_from_u64(seed);
        for targets in one_vs_rest_targets(y, n_classes, -1.0)? {
            let mut w = vec![0.0; d];
            let mut b = 0.0;
            let mut t = 0usize;
            for _ in 0..PEGASOS_EPOCHS {
                for _ in 0..n {
                    t += 1;
                    let i = rng.gen_range(0..n);
                    let eta = 1.0 / (lambda * t as f64);
                    let margin = targets[i] * linear_score(b, &w, xs.row(i));
                    for wj in w.iter_mut() {
                        *wj *= 1.0 - eta * lambda;
                    }
                    if margin < 1.0 {
                        for (wj, v) in w.iter_mut().zip(xs.row(i)) {
                            *wj += eta * targets[i] * v;
                        }
                        b += eta * targets[i];
                    }
                }
            }
            weights.push(w);
            intercepts.push(b);
        }
        Ok(LinearSvm(LinearHeads {
            scaler,
            weights,
            intercepts,
        }))
    }

    /// Predicted class ids.
    pub fn predict(&self, x: &Matrix) -> Result<Vec<f64>> {
        self.0.classify(x)
    }

    /// Per-feature importance: L2 norm of coefficients across heads.
    pub fn coefficient_magnitudes(&self) -> Vec<f64> {
        self.0.coefficient_magnitudes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn linear_data(n: usize, seed: u64) -> (Matrix, Vec<f64>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let rows: Vec<Vec<f64>> = (0..n)
            .map(|_| vec![rng.gen_range(-3.0..3.0), rng.gen_range(-3.0..3.0)])
            .collect();
        let y: Vec<f64> = rows.iter().map(|r| 2.0 * r[0] - 1.0 * r[1] + 0.5).collect();
        (Matrix::from_rows(&rows).unwrap(), y)
    }

    fn binary_data(n: usize, seed: u64) -> (Matrix, Vec<f64>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut rows = Vec::with_capacity(n);
        let mut y = Vec::with_capacity(n);
        for i in 0..n {
            let cls = (i % 2) as f64;
            let c = if cls == 0.0 { -2.0 } else { 2.0 };
            rows.push(vec![c + rng.gen_range(-0.5..0.5), rng.gen_range(-1.0..1.0)]);
            y.push(cls);
        }
        (Matrix::from_rows(&rows).unwrap(), y)
    }

    #[test]
    fn ridge_recovers_linear_function() {
        let (x, y) = linear_data(100, 0);
        let m = Ridge::fit(&x, &y, 1e-6).unwrap();
        let preds = m.predict(&x).unwrap();
        for (p, t) in preds.iter().zip(&y) {
            assert!((p - t).abs() < 1e-6, "{p} vs {t}");
        }
    }

    #[test]
    fn ridge_shrinks_with_large_lambda() {
        let (x, y) = linear_data(100, 1);
        let weak = Ridge::fit(&x, &y, 1e-6).unwrap();
        let strong = Ridge::fit(&x, &y, 1e6).unwrap();
        let norm = |w: &[f64]| w.iter().map(|v| v * v).sum::<f64>();
        assert!(norm(strong.coefficients()) < norm(weak.coefficients()) * 1e-3);
    }

    #[test]
    fn lasso_zeroes_irrelevant_features() {
        let mut rng = StdRng::seed_from_u64(2);
        let rows: Vec<Vec<f64>> = (0..200)
            .map(|_| {
                vec![
                    rng.gen_range(-1.0..1.0),
                    rng.gen_range(-1.0..1.0),
                    rng.gen_range(-1.0..1.0),
                ]
            })
            .collect();
        let y: Vec<f64> = rows.iter().map(|r| 5.0 * r[0]).collect();
        let x = Matrix::from_rows(&rows).unwrap();
        let m = Lasso::fit(&x, &y, 0.5).unwrap();
        let w = m.coefficients();
        assert!(w[0].abs() > 1.0, "signal kept: {w:?}");
        assert!(
            w[1].abs() < 1e-6 && w[2].abs() < 1e-6,
            "noise zeroed: {w:?}"
        );
    }

    #[test]
    fn lasso_predicts_reasonably() {
        let (x, y) = linear_data(150, 3);
        let m = Lasso::fit(&x, &y, 0.01).unwrap();
        let preds = m.predict(&x).unwrap();
        let mse: f64 = preds
            .iter()
            .zip(&y)
            .map(|(p, t)| (p - t) * (p - t))
            .sum::<f64>()
            / y.len() as f64;
        assert!(mse < 0.1, "mse {mse}");
    }

    #[test]
    fn logistic_separates_blobs() {
        let (x, y) = binary_data(100, 4);
        let m = LogisticRegression::fit(&x, &y, 2, 1e-4).unwrap();
        let preds = m.predict(&x).unwrap();
        let acc = preds.iter().zip(&y).filter(|(p, t)| p == t).count() as f64 / y.len() as f64;
        assert!(acc > 0.95, "acc {acc}");
        let mags = m.coefficient_magnitudes();
        assert!(
            mags[0] > mags[1],
            "signal feature should dominate: {mags:?}"
        );
    }

    #[test]
    fn logistic_multiclass() {
        // Three separable clusters on one axis.
        let mut rows = Vec::new();
        let mut y = Vec::new();
        for i in 0..90 {
            let cls = i % 3;
            rows.push(vec![cls as f64 * 4.0 + (i as f64 % 7.0) * 0.05]);
            y.push(cls as f64);
        }
        let x = Matrix::from_rows(&rows).unwrap();
        let m = LogisticRegression::fit(&x, &y, 3, 1e-4).unwrap();
        let preds = m.predict(&x).unwrap();
        let acc = preds.iter().zip(&y).filter(|(p, t)| p == t).count() as f64 / y.len() as f64;
        assert!(acc > 0.9, "acc {acc}");
    }

    #[test]
    fn linear_svm_separates_blobs() {
        let (x, y) = binary_data(120, 5);
        let m = LinearSvm::fit(&x, &y, 2, 0.01, 0).unwrap();
        let preds = m.predict(&x).unwrap();
        let acc = preds.iter().zip(&y).filter(|(p, t)| p == t).count() as f64 / y.len() as f64;
        assert!(acc > 0.95, "acc {acc}");
    }

    #[test]
    fn shape_errors() {
        let x = Matrix::zeros(3, 2);
        let y = vec![0.0, 1.0];
        assert!(Ridge::fit(&x, &y, 1.0).is_err());
        assert!(LogisticRegression::fit(&x, &[0.0; 3], 1, 1.0).is_err());
        let (xt, yt) = binary_data(20, 6);
        let m = LinearSvm::fit(&xt, &yt, 2, 0.1, 0).unwrap();
        assert!(m.predict(&Matrix::zeros(1, 5)).is_err());
    }
}
