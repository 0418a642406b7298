//! Sparse subspace-embedding sketches (ARDA §3.1).
//!
//! ARDA's sketching coreset multiplies the (post-join, binarised) data matrix
//! by a sparse random matrix `Π ∈ R^{ℓ×n}` so that `‖ΠAx‖₂ ≈ ‖Ax‖₂` for all
//! `x` — an *oblivious subspace embedding* (Definition 1). Two constructions
//! are provided:
//!
//! * [`CountSketch`] — one ±1 entry per column (OSNAP with sparsity 1),
//!   computable in `nnz(A)` time.
//! * [`Osnap`] — `s = ⌈log₂ n⌉` ±1 entries per column scaled by `1/√s`
//!   (Definition 2), computable in `nnz(A)·s` time.

use crate::Matrix;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// CountSketch: each input row is hashed to one output row with a random
/// sign.
#[derive(Debug, Clone)]
pub struct CountSketch {
    /// Output rows ℓ.
    pub rows: usize,
    /// target row per input row
    targets: Vec<usize>,
    /// ±1 sign per input row
    signs: Vec<f64>,
}

impl CountSketch {
    /// Sample a sketch mapping `n` input rows to `rows` output rows.
    pub fn new(n: usize, rows: usize, seed: u64) -> Self {
        assert!(rows > 0, "sketch must have at least one row");
        let mut rng = StdRng::seed_from_u64(seed);
        let targets = (0..n).map(|_| rng.gen_range(0..rows)).collect();
        let signs = (0..n)
            .map(|_| if rng.gen::<bool>() { 1.0 } else { -1.0 })
            .collect();
        CountSketch {
            rows,
            targets,
            signs,
        }
    }

    /// Apply to a matrix: `ΠA` with `A` having one input row per sketch slot.
    pub fn apply(&self, a: &Matrix) -> Matrix {
        assert_eq!(a.rows(), self.targets.len(), "sketch/input row mismatch");
        let mut out = Matrix::zeros(self.rows, a.cols());
        for (i, (&t, &s)) in self.targets.iter().zip(&self.signs).enumerate() {
            let src = a.row(i);
            let dst = out.row_mut(t);
            for (d, v) in dst.iter_mut().zip(src) {
                *d += s * v;
            }
        }
        out
    }

    /// Apply to a target vector `y` (kept aligned with the sketched rows).
    pub fn apply_vec(&self, y: &[f64]) -> Vec<f64> {
        assert_eq!(y.len(), self.targets.len(), "sketch/vector mismatch");
        let mut out = vec![0.0; self.rows];
        for (i, (&t, &s)) in self.targets.iter().zip(&self.signs).enumerate() {
            out[t] += s * y[i];
        }
        out
    }
}

/// OSNAP sketch with `s` non-zeros per column of `Π` (Definition 2): repeat
/// the CountSketch hashing `s` times and scale by `1/√s`.
#[derive(Debug, Clone)]
pub struct Osnap {
    sketches: Vec<CountSketch>,
    scale: f64,
}

impl Osnap {
    /// Sketch with explicit sparsity `s`.
    pub fn with_sparsity(n: usize, rows: usize, s: usize, seed: u64) -> Self {
        let s = s.max(1);
        let sketches = (0..s)
            .map(|i| {
                CountSketch::new(
                    n,
                    rows,
                    seed.wrapping_add(i as u64).wrapping_mul(0x9E3779B97F4A7C15),
                )
            })
            .collect();
        Osnap {
            sketches,
            scale: 1.0 / (s as f64).sqrt(),
        }
    }

    /// Paper default: `s = ⌈log₂ n⌉`.
    pub fn new(n: usize, rows: usize, seed: u64) -> Self {
        let s = ((n.max(2) as f64).log2().ceil() as usize).max(1);
        Osnap::with_sparsity(n, rows, s, seed)
    }

    /// Number of output rows.
    pub fn rows(&self) -> usize {
        self.sketches[0].rows
    }

    /// Sparsity (non-zeros per column of Π).
    pub fn sparsity(&self) -> usize {
        self.sketches.len()
    }

    /// Apply to a matrix: `ΠA`.
    pub fn apply(&self, a: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(self.rows(), a.cols());
        for sk in &self.sketches {
            let part = sk.apply(a);
            for (o, p) in out.data_mut().iter_mut().zip(part.data()) {
                *o += p;
            }
        }
        out.scale(self.scale);
        out
    }

    /// Apply to a vector.
    pub fn apply_vec(&self, y: &[f64]) -> Vec<f64> {
        let mut out = vec![0.0; self.rows()];
        for sk in &self.sketches {
            for (o, p) in out.iter_mut().zip(sk.apply_vec(y)) {
                *o += p;
            }
        }
        out.iter_mut().for_each(|o| *o *= self.scale);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn random_matrix(rows: usize, cols: usize, seed: u64) -> Matrix {
        let mut rng = StdRng::seed_from_u64(seed);
        let data = (0..rows * cols)
            .map(|_| crate::random::standard_normal(&mut rng))
            .collect();
        Matrix::from_vec(rows, cols, data).unwrap()
    }

    #[test]
    fn count_sketch_shape() {
        let a = random_matrix(100, 4, 0);
        let cs = CountSketch::new(100, 20, 1);
        let b = cs.apply(&a);
        assert_eq!(b.rows(), 20);
        assert_eq!(b.cols(), 4);
    }

    #[test]
    fn count_sketch_preserves_norm_in_expectation() {
        // E‖Πx‖² = ‖x‖² for CountSketch; average over seeds to verify.
        let a = random_matrix(200, 1, 5);
        let true_norm: f64 = a.data().iter().map(|v| v * v).sum();
        let trials = 200;
        let mut acc = 0.0;
        for s in 0..trials {
            let cs = CountSketch::new(200, 50, s);
            let b = cs.apply(&a);
            acc += b.data().iter().map(|v| v * v).sum::<f64>();
        }
        let avg = acc / trials as f64;
        assert!(
            (avg / true_norm - 1.0).abs() < 0.15,
            "ratio {}",
            avg / true_norm
        );
    }

    #[test]
    fn osnap_norm_concentration() {
        // A single OSNAP application should already be close to isometric on
        // a fixed vector with ℓ = 256, s = log n.
        let a = random_matrix(500, 1, 9);
        let true_norm: f64 = a.data().iter().map(|v| v * v).sum();
        let os = Osnap::new(500, 256, 11);
        let b = os.apply(&a);
        let got: f64 = b.data().iter().map(|v| v * v).sum();
        assert!(
            (got / true_norm - 1.0).abs() < 0.5,
            "ratio {}",
            got / true_norm
        );
    }

    #[test]
    fn osnap_linear_consistency() {
        // Π(Ax) == (ΠA)x — sketching commutes with right multiplication.
        let a = random_matrix(60, 3, 2);
        let x = Matrix::from_vec(3, 1, vec![0.3, -0.7, 1.1]).unwrap();
        let os = Osnap::with_sparsity(60, 16, 4, 3);
        let ax = a.matmul(&x).unwrap();
        let left = os.apply_vec(ax.data());
        let right = os.apply(&a).matmul(&x).unwrap();
        for (l, r) in left.iter().zip(right.data()) {
            assert!((l - r).abs() < 1e-10);
        }
    }

    #[test]
    fn osnap_default_sparsity_is_log_n() {
        let os = Osnap::new(1024, 64, 0);
        assert_eq!(os.sparsity(), 10);
        assert_eq!(os.rows(), 64);
    }

    #[test]
    fn deterministic_per_seed() {
        let a = random_matrix(50, 2, 4);
        let b1 = Osnap::new(50, 10, 77).apply(&a);
        let b2 = Osnap::new(50, 10, 77).apply(&a);
        assert_eq!(b1, b2);
    }
}
