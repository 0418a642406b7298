//! Linear solvers: Cholesky for SPD systems (ridge / IRLS normal equations).

use crate::{LinalgError, Matrix, Result};

/// Cholesky factor `L` (lower triangular) with `A = L Lᵀ`.
///
/// Fails when `A` is not (numerically) positive definite. Callers that add a
/// ridge term `λI` with `λ > 0` are always safe.
///
/// Only the lower triangle of `A` (diagonal included) is read; the strict
/// upper triangle may hold anything, so a symmetric `A` can be built with
/// [`Matrix::matmul_lower`].
pub fn cholesky_decompose(a: &Matrix) -> Result<Matrix> {
    let n = a.rows();
    if a.cols() != n {
        return Err(LinalgError::DimensionMismatch {
            context: "cholesky: non-square".into(),
        });
    }
    let mut l = Matrix::zeros(n, n);
    for i in 0..n {
        for j in 0..=i {
            let mut sum = a.get(i, j);
            for k in 0..j {
                sum -= l.get(i, k) * l.get(j, k);
            }
            if i == j {
                if sum <= 0.0 {
                    return Err(LinalgError::NotSolvable(format!(
                        "cholesky: non-positive pivot {sum:.3e} at {i}"
                    )));
                }
                l.set(i, j, sum.sqrt());
            } else {
                l.set(i, j, sum / l.get(j, j));
            }
        }
    }
    Ok(l)
}

/// Solve `A x = b` for SPD `A` via Cholesky.
pub fn cholesky_solve(a: &Matrix, b: &[f64]) -> Result<Vec<f64>> {
    let l = cholesky_decompose(a)?;
    Ok(cholesky_back_substitute(&l, b))
}

/// Solve `A X = B` for SPD `A` and multiple right-hand sides (columns of
/// `B`). Factorises once.
pub fn cholesky_solve_multi(a: &Matrix, b: &Matrix) -> Result<Matrix> {
    if a.rows() != b.rows() {
        return Err(LinalgError::DimensionMismatch {
            context: format!(
                "cholesky_solve_multi: {}x{} vs {} rows",
                a.rows(),
                a.cols(),
                b.rows()
            ),
        });
    }
    let l = cholesky_decompose(a)?;
    let mut out = Matrix::zeros(b.rows(), b.cols());
    for c in 0..b.cols() {
        let col = b.col(c);
        let x = cholesky_back_substitute(&l, &col);
        for (r, v) in x.into_iter().enumerate() {
            out.set(r, c, v);
        }
    }
    Ok(out)
}

fn cholesky_back_substitute(l: &Matrix, b: &[f64]) -> Vec<f64> {
    let n = l.rows();
    // Forward solve L y = b.
    let mut y = vec![0.0; n];
    for i in 0..n {
        let mut sum = b[i];
        for k in 0..i {
            sum -= l.get(i, k) * y[k];
        }
        y[i] = sum / l.get(i, i);
    }
    // Back solve Lᵀ x = y.
    let mut x = vec![0.0; n];
    for i in (0..n).rev() {
        let mut sum = y[i];
        for k in i + 1..n {
            sum -= l.get(k, i) * x[k];
        }
        x[i] = sum / l.get(i, i);
    }
    x
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spd3() -> Matrix {
        // A = M Mᵀ + I for a random-ish M — guaranteed SPD.
        Matrix::from_rows(&[
            vec![4.0, 2.0, 0.6],
            vec![2.0, 5.0, 1.0],
            vec![0.6, 1.0, 3.0],
        ])
        .unwrap()
    }

    #[test]
    fn cholesky_reconstructs() {
        let a = spd3();
        let l = cholesky_decompose(&a).unwrap();
        let back = l.matmul(&l.transpose()).unwrap();
        for (x, y) in a.data().iter().zip(back.data()) {
            assert!((x - y).abs() < 1e-10);
        }
    }

    #[test]
    fn cholesky_solve_matches_residual() {
        let a = spd3();
        let b = vec![1.0, 2.0, 3.0];
        let x = cholesky_solve(&a, &b).unwrap();
        let ax = a.matvec(&x).unwrap();
        for (l, r) in ax.iter().zip(&b) {
            assert!((l - r).abs() < 1e-10);
        }
    }

    #[test]
    fn cholesky_reads_only_the_lower_triangle() {
        let a = spd3();
        let mut poisoned = a.clone();
        for i in 0..3 {
            for j in i + 1..3 {
                poisoned.set(i, j, f64::NAN);
            }
        }
        let bits = |m: &Matrix| m.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        let l = cholesky_decompose(&a).unwrap();
        assert_eq!(bits(&cholesky_decompose(&poisoned).unwrap()), bits(&l));
    }

    #[test]
    fn cholesky_rejects_indefinite() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![2.0, 1.0]]).unwrap();
        assert!(cholesky_decompose(&a).is_err());
        let bad = Matrix::zeros(2, 3);
        assert!(cholesky_decompose(&bad).is_err());
    }

    #[test]
    fn multi_rhs_matches_single() {
        let a = spd3();
        let b = Matrix::from_rows(&[vec![1.0, 0.0], vec![2.0, 1.0], vec![3.0, -1.0]]).unwrap();
        let x = cholesky_solve_multi(&a, &b).unwrap();
        let x0 = cholesky_solve(&a, &b.col(0)).unwrap();
        let x1 = cholesky_solve(&a, &b.col(1)).unwrap();
        for i in 0..3 {
            assert!((x.get(i, 0) - x0[i]).abs() < 1e-12);
            assert!((x.get(i, 1) - x1[i]).abs() < 1e-12);
        }
    }
}
