//! Random sampling: Box–Muller standard normals and the moment-matched
//! multivariate normal of ARDA's Algorithm 2.

use crate::Matrix;
use rand::Rng;

/// One standard-normal draw via Box–Muller.
pub fn standard_normal<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    // Guard against log(0).
    let u1: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
    let u2: f64 = rng.gen::<f64>();
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

/// Fill a vector with i.i.d. standard normals.
pub fn normal_vec<R: Rng + ?Sized>(rng: &mut R, len: usize) -> Vec<f64> {
    (0..len).map(|_| standard_normal(rng)).collect()
}

/// Moment-matched multivariate normal sampler — ARDA **Algorithm 2**.
///
/// Given a data matrix `A ∈ R^{n×d}` whose *columns* are feature vectors, fit
/// `N(µ, Σ)` with the empirical feature mean `µ = (1/d) Σ_i A_{*,i}` and
/// covariance `Σ = (1/d) Σ_i (A_{*,i} − µ)(A_{*,i} − µ)ᵀ`, then draw i.i.d.
/// samples. Σ is `n×n` and never materialised: with centred columns
/// `C = A − µ1ᵀ`, the draw `µ + C g / √d` for `g ~ N(0, I_d)` has exactly
/// covariance `(1/d) C Cᵀ = Σ`, so each sample costs `O(nd)`.
#[derive(Debug, Clone)]
pub struct MomentMatchedSampler {
    mu: Vec<f64>,
    /// Centred data, row-major `n×d`.
    centered: Matrix,
    inv_sqrt_d: f64,
}

impl MomentMatchedSampler {
    /// Fit the sampler to the columns of `a` (features as columns).
    pub fn fit(a: &Matrix) -> Self {
        let n = a.rows();
        let d = a.cols().max(1);
        let mu = crate::stats::feature_mean(a);
        let mut centered = a.clone();
        for r in 0..n {
            let m = mu[r];
            for v in centered.row_mut(r) {
                *v -= m;
            }
        }
        MomentMatchedSampler {
            mu,
            centered,
            inv_sqrt_d: 1.0 / (d as f64).sqrt(),
        }
    }

    /// Dimension of each sample (= number of rows of the fitted data).
    pub fn dim(&self) -> usize {
        self.mu.len()
    }

    /// Draw one sample from `N(µ, Σ)`.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> Vec<f64> {
        let g = normal_vec(rng, self.centered.cols());
        let mut out = self.mu.clone();
        for (r, o) in out.iter_mut().enumerate() {
            let dot: f64 = self
                .centered
                .row(r)
                .iter()
                .zip(&g)
                .map(|(a, b)| a * b)
                .sum();
            *o += dot * self.inv_sqrt_d;
        }
        out
    }

    /// Draw `k` samples as the columns of an `n×k` matrix (ready to append to
    /// a feature matrix as injected random features).
    pub fn sample_columns<R: Rng + ?Sized>(&self, rng: &mut R, k: usize) -> Matrix {
        let n = self.dim();
        let mut out = Matrix::zeros(n, k);
        for c in 0..k {
            let s = self.sample(rng);
            for (r, v) in s.into_iter().enumerate() {
                out.set(r, c, v);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn standard_normal_moments() {
        let mut rng = StdRng::seed_from_u64(42);
        let n = 20_000;
        let xs = normal_vec(&mut rng, n);
        let mean = xs.iter().sum::<f64>() / n as f64;
        let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.03, "mean {mean}");
        assert!((var - 1.0).abs() < 0.05, "var {var}");
    }

    #[test]
    fn sampler_matches_mean() {
        // 3 rows (sample dim), 4 feature columns.
        let a = Matrix::from_rows(&[
            vec![1.0, 2.0, 3.0, 4.0],
            vec![10.0, 10.0, 10.0, 10.0],
            vec![-1.0, 1.0, -1.0, 1.0],
        ])
        .unwrap();
        let s = MomentMatchedSampler::fit(&a);
        assert_eq!(s.mu, [2.5, 10.0, 0.0]);
        let mut rng = StdRng::seed_from_u64(7);
        let k = 4000;
        let mut sums = [0.0; 3];
        for _ in 0..k {
            for (acc, v) in sums.iter_mut().zip(s.sample(&mut rng)) {
                *acc += v;
            }
        }
        for (acc, mu) in sums.iter().zip(&s.mu) {
            let emp = acc / k as f64;
            assert!((emp - mu).abs() < 0.15, "empirical {emp} vs {mu}");
        }
    }

    #[test]
    fn sampler_matches_covariance_diag() {
        let a = Matrix::from_rows(&[vec![1.0, -1.0, 1.0, -1.0], vec![0.0, 0.0, 0.0, 0.0]]).unwrap();
        // Row 0 centred values ±1 → Σ_00 = 1; row 1 constant → Σ_11 = 0.
        let s = MomentMatchedSampler::fit(&a);
        let mut rng = StdRng::seed_from_u64(3);
        let k = 8000;
        let mut sq = [0.0; 2];
        for _ in 0..k {
            let v = s.sample(&mut rng);
            sq[0] += v[0] * v[0];
            sq[1] += (v[1] - 0.0) * (v[1] - 0.0);
        }
        let var0 = sq[0] / k as f64; // mean is 0 for row 0
        assert!((var0 - 1.0).abs() < 0.1, "var0 {var0}");
        assert!(
            sq[1] / (k as f64) < 1e-20,
            "constant row must stay constant"
        );
    }

    #[test]
    fn sample_columns_shape() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]).unwrap();
        let s = MomentMatchedSampler::fit(&a);
        let mut rng = StdRng::seed_from_u64(1);
        let m = s.sample_columns(&mut rng, 5);
        assert_eq!(m.rows(), 2);
        assert_eq!(m.cols(), 5);
    }

    #[test]
    fn deterministic_under_seed() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0, 3.0]]).unwrap();
        let s = MomentMatchedSampler::fit(&a);
        let x1 = s.sample(&mut StdRng::seed_from_u64(9));
        let x2 = s.sample(&mut StdRng::seed_from_u64(9));
        assert_eq!(x1, x2);
    }
}
