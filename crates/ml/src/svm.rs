//! RBF-kernel SVM trained with a simplified SMO solver.
//!
//! The paper's final estimator for classification tasks is "SVM with RBF
//! kernel" alongside the random forest, with the better score reported (§7).
//! This is a from-scratch binary SMO (Platt-style, simplified working-set
//! selection) lifted to multiclass with one-vs-rest. [`RbfSvm::fit`] builds
//! the kernel matrix once and shares it across the heads; scaling and the
//! one-vs-rest rules are the ones the linear models use.

use crate::fitting::{one_vs_rest_predict, one_vs_rest_targets, Standardizer};
use crate::Result;
use arda_linalg::Matrix;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// KKT tolerance.
const TOL: f64 = 1e-3;
/// Passes without an α change before a head stops.
const MAX_PASSES: usize = 3;
/// Hard cap on SMO passes per head.
const MAX_ITER: usize = 2000;

/// `exp(−γ‖a − b‖²)`.
fn rbf(gamma: f64, a: &[f64], b: &[f64]) -> f64 {
    let d2: f64 = a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum();
    (-gamma * d2).exp()
}

/// Binary SMO state for one one-vs-rest head.
#[derive(Debug, Clone)]
struct BinaryHead {
    alphas: Vec<f64>,
    bias: f64,
    support_rows: Vec<usize>,
    targets: Vec<f64>, // ±1 aligned with support_rows
}

/// RBF-kernel SVM (binary or one-vs-rest multiclass).
#[derive(Debug, Clone)]
pub struct RbfSvm {
    /// RBF width γ = 1/d.
    gamma: f64,
    scaler: Standardizer,
    train_x: Matrix,
    heads: Vec<BinaryHead>,
}

impl RbfSvm {
    /// Fit with labels `0..n_classes`, box constraint `c` and the RNG
    /// `seed` that picks SMO partners (each head restarts it).
    pub fn fit(x: &Matrix, y: &[f64], n_classes: usize, c: f64, seed: u64) -> Result<Self> {
        let (scaler, xs) = Standardizer::fit(x, y)?;
        let targets = one_vs_rest_targets(y, n_classes, -1.0)?;
        let gamma = 1.0 / xs.cols().max(1) as f64;

        // The kernel matrix depends only on X, so every head shares it
        // (training sets here are coreset-sized).
        let n = xs.rows();
        let mut k = Matrix::zeros(n, n);
        for i in 0..n {
            for j in i..n {
                let v = rbf(gamma, xs.row(i), xs.row(j));
                k.set(i, j, v);
                k.set(j, i, v);
            }
        }
        let heads = targets.iter().map(|t| smo(&k, t, c, seed)).collect();
        Ok(RbfSvm {
            gamma,
            scaler,
            train_x: xs,
            heads,
        })
    }

    fn decision(&self, head: &BinaryHead, row: &[f64]) -> f64 {
        let mut s = head.bias;
        for ((&sv, &a), &t) in head
            .support_rows
            .iter()
            .zip(&head.alphas)
            .zip(&head.targets)
        {
            s += a * t * rbf(self.gamma, self.train_x.row(sv), row);
        }
        s
    }

    /// Predicted class ids.
    pub fn predict(&self, x: &Matrix) -> Result<Vec<f64>> {
        let xs = self.scaler.apply(x)?;
        Ok(one_vs_rest_predict(&xs, self.heads.len(), |h, row| {
            self.decision(&self.heads[h], row)
        }))
    }

    /// Number of support vectors in the first head (diagnostics).
    pub fn n_support(&self) -> usize {
        self.heads.first().map_or(0, |h| h.support_rows.len())
    }
}

/// Simplified SMO on ±1 targets `t` over the kernel matrix `k`.
fn smo(k: &Matrix, t: &[f64], c: f64, seed: u64) -> BinaryHead {
    let n = t.len();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut alphas = vec![0.0; n];
    let mut b = 0.0;
    let f = |alphas: &[f64], b: f64, i: usize| -> f64 {
        let mut s = b;
        for j in 0..alphas.len() {
            if alphas[j] > 0.0 {
                s += alphas[j] * t[j] * k.get(j, i);
            }
        }
        s
    };

    let mut passes = 0usize;
    let mut iters = 0usize;
    while passes < MAX_PASSES && iters < MAX_ITER {
        iters += 1;
        let mut changed = 0usize;
        for i in 0..n {
            let ei = f(&alphas, b, i) - t[i];
            if (t[i] * ei < -TOL && alphas[i] < c) || (t[i] * ei > TOL && alphas[i] > 0.0) {
                // Random partner j ≠ i.
                let mut j = rng.gen_range(0..n - 1);
                if j >= i {
                    j += 1;
                }
                let ej = f(&alphas, b, j) - t[j];
                let (ai_old, aj_old) = (alphas[i], alphas[j]);
                let (lo, hi) = if t[i] != t[j] {
                    ((aj_old - ai_old).max(0.0), (c + aj_old - ai_old).min(c))
                } else {
                    ((ai_old + aj_old - c).max(0.0), (ai_old + aj_old).min(c))
                };
                if (hi - lo).abs() < 1e-12 {
                    continue;
                }
                let eta = 2.0 * k.get(i, j) - k.get(i, i) - k.get(j, j);
                if eta >= 0.0 {
                    continue;
                }
                let mut aj = aj_old - t[j] * (ei - ej) / eta;
                aj = aj.clamp(lo, hi);
                if (aj - aj_old).abs() < 1e-7 {
                    continue;
                }
                let ai = ai_old + t[i] * t[j] * (aj_old - aj);
                alphas[i] = ai;
                alphas[j] = aj;
                let b1 = b
                    - ei
                    - t[i] * (ai - ai_old) * k.get(i, i)
                    - t[j] * (aj - aj_old) * k.get(i, j);
                let b2 = b
                    - ej
                    - t[i] * (ai - ai_old) * k.get(i, j)
                    - t[j] * (aj - aj_old) * k.get(j, j);
                b = if ai > 0.0 && ai < c {
                    b1
                } else if aj > 0.0 && aj < c {
                    b2
                } else {
                    (b1 + b2) / 2.0
                };
                changed += 1;
            }
        }
        if changed == 0 {
            passes += 1;
        } else {
            passes = 0;
        }
    }

    let support_rows: Vec<usize> = (0..n).filter(|&i| alphas[i] > 1e-9).collect();
    BinaryHead {
        alphas: support_rows.iter().map(|&i| alphas[i]).collect(),
        bias: b,
        targets: support_rows.iter().map(|&i| t[i]).collect(),
        support_rows,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ring_data(n: usize, seed: u64) -> (Matrix, Vec<f64>) {
        // Inner cluster = class 0, outer ring = class 1 — not linearly
        // separable, requires the RBF kernel.
        let mut rng = StdRng::seed_from_u64(seed);
        let mut rows = Vec::with_capacity(n);
        let mut y = Vec::with_capacity(n);
        for i in 0..n {
            let cls = (i % 2) as f64;
            let radius = if cls == 0.0 {
                rng.gen_range(0.0..0.8)
            } else {
                rng.gen_range(2.0..3.0)
            };
            let theta: f64 = rng.gen_range(0.0..std::f64::consts::TAU);
            rows.push(vec![radius * theta.cos(), radius * theta.sin()]);
            y.push(cls);
        }
        (Matrix::from_rows(&rows).unwrap(), y)
    }

    #[test]
    fn separates_rings() {
        let (x, y) = ring_data(150, 0);
        let svm = RbfSvm::fit(&x, &y, 2, 5.0, 0).unwrap();
        let preds = svm.predict(&x).unwrap();
        let acc = preds.iter().zip(&y).filter(|(p, t)| p == t).count() as f64 / y.len() as f64;
        assert!(acc > 0.95, "acc {acc}");
        assert!(svm.n_support() > 0);
    }

    #[test]
    fn multiclass_one_vs_rest() {
        let mut rows = Vec::new();
        let mut y = Vec::new();
        for i in 0..120 {
            let cls = i % 3;
            let offset = cls as f64 * 5.0;
            rows.push(vec![
                offset + (i as f64 * 0.37).sin() * 0.3,
                (i as f64 * 0.73).cos() * 0.3,
            ]);
            y.push(cls as f64);
        }
        let x = Matrix::from_rows(&rows).unwrap();
        let svm = RbfSvm::fit(&x, &y, 3, 1.0, 0).unwrap();
        let preds = svm.predict(&x).unwrap();
        let acc = preds.iter().zip(&y).filter(|(p, t)| p == t).count() as f64 / y.len() as f64;
        assert!(acc > 0.9, "acc {acc}");
    }

    #[test]
    fn error_paths() {
        assert!(RbfSvm::fit(&Matrix::zeros(0, 1), &[], 2, 1.0, 0).is_err());
        assert!(RbfSvm::fit(&Matrix::zeros(2, 1), &[0.0, 1.0], 1, 1.0, 0).is_err());
        assert!(RbfSvm::fit(&Matrix::zeros(2, 1), &[0.0], 2, 1.0, 0).is_err());
        let svm = RbfSvm::fit(&Matrix::zeros(2, 1), &[0.0, 1.0], 2, 1.0, 0).unwrap();
        assert!(svm.predict(&Matrix::zeros(1, 2)).is_err());
    }

    #[test]
    fn deterministic_per_seed() {
        let (x, y) = ring_data(80, 3);
        let a = RbfSvm::fit(&x, &y, 2, 1.0, 1).unwrap();
        let b = RbfSvm::fit(&x, &y, 2, 1.0, 1).unwrap();
        assert_eq!(a.predict(&x).unwrap(), b.predict(&x).unwrap());
    }
}
