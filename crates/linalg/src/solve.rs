//! Linear solvers: Cholesky for SPD systems (ridge / IRLS normal equations).
//!
//! The factorisation runs column by column, so that each column's entries
//! below the diagonal, which depend only on earlier columns, are computed
//! four rows at a time as independent sums. Every element still takes the
//! same operations in the same order as the textbook row-by-row loop
//! (kept as the test oracle), so the factor and every solve are
//! bit-identical to it.

use crate::{LinalgError, Matrix, Result};

/// Cholesky factor `L` (lower triangular) with `A = L Lᵀ`.
///
/// Fails when `A` is not (numerically) positive definite. Callers that add a
/// ridge term `λI` with `λ > 0` are always safe.
///
/// Only the lower triangle of `A` (diagonal included) is read; the strict
/// upper triangle may hold anything, so a symmetric `A` can be built with
/// [`Matrix::matmul_lower`].
///
/// The factor is built column by column. Each element is
/// `A[i][j] − Σₖ L[i][k]·L[j][k]` over `k < j` in ascending order, then a
/// square root on the diagonal or a division by `L[j][j]` below it: the
/// same operations in the same order as the textbook row-by-row loop, so
/// `L` is bit-identical to it. The column order only changes which
/// elements are in flight together: column `j`'s entries below the
/// diagonal depend on earlier columns alone, so they run four rows at a
/// time as independent sums instead of one latency-bound chain after
/// another. Pivots are checked in ascending order, and the first
/// non-positive one is reported as the row loop reports it.
pub fn cholesky_decompose(a: &Matrix) -> Result<Matrix> {
    let n = a.rows();
    if a.cols() != n {
        return Err(LinalgError::DimensionMismatch {
            context: "cholesky: non-square".into(),
        });
    }
    let mut l = Matrix::zeros(n, n);
    for j in 0..n {
        // Rows `..=j` are final up to column `j`; rows below take column `j`.
        let (done, below) = l.data_mut().split_at_mut((j + 1) * n);
        let (l_j, diag) = done[j * n..].split_at_mut(j);
        let mut sum = a.get(j, j);
        for &v in l_j.iter() {
            sum -= v * v;
        }
        if sum <= 0.0 {
            return Err(LinalgError::NotSolvable(format!(
                "cholesky: non-positive pivot {sum:.3e} at {j}"
            )));
        }
        let pivot = sum.sqrt();
        diag[0] = pivot;
        let mut quads = below.chunks_exact_mut(4 * n);
        let mut i = j + 1;
        for quad in &mut quads {
            let mut sums: [f64; 4] = std::array::from_fn(|r| a.get(i + r, j));
            {
                let rows: [&[f64]; 4] = std::array::from_fn(|r| &quad[r * n..r * n + j]);
                for (k, &l_jk) in l_j.iter().enumerate() {
                    for (s, row) in sums.iter_mut().zip(&rows) {
                        *s -= row[k] * l_jk;
                    }
                }
            }
            for (r, s) in sums.into_iter().enumerate() {
                quad[r * n + j] = s / pivot;
            }
            i += 4;
        }
        for row in quads.into_remainder().chunks_exact_mut(n) {
            let mut sum = a.get(i, j);
            for (&l_ik, &l_jk) in row[..j].iter().zip(l_j.iter()) {
                sum -= l_ik * l_jk;
            }
            row[j] = sum / pivot;
            i += 1;
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
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn spd3() -> Matrix {
        // A = M Mᵀ + I for a random-ish M — guaranteed SPD.
        Matrix::from_rows(&[
            vec![4.0, 2.0, 0.6],
            vec![2.0, 5.0, 1.0],
            vec![0.6, 1.0, 3.0],
        ])
        .unwrap()
    }

    /// The row-by-row factorisation the column-ordered one replaced, kept
    /// verbatim as the oracle it must match bit for bit.
    fn cholesky_decompose_rows(a: &Matrix) -> Result<Matrix> {
        let n = a.rows();
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

    /// `M Mᵀ + ridge·I` for a random `n × (n + 3)` `M` with some zero
    /// entries, shaped like the ℓ2,1 solver's systems; only the lower
    /// triangle is filled, as `matmul_lower` leaves it.
    fn random_spd(n: usize, ridge: f64, rng: &mut StdRng) -> Matrix {
        let m = n + 3;
        let data = (0..n * m)
            .map(|_| {
                if rng.gen_range(0..4) == 0 {
                    0.0
                } else {
                    rng.gen_range(-1.0..1.0)
                }
            })
            .collect();
        let x = Matrix::from_vec(n, m, data).unwrap();
        let mut a = x.matmul_lower(&x.transpose()).unwrap();
        for i in 0..n {
            let v = a.get(i, i) + ridge;
            a.set(i, i, v);
        }
        a
    }

    fn bits(m: &Matrix) -> Vec<u64> {
        m.data().iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn column_order_matches_the_row_oracle_bit_for_bit() {
        // 1..=9 covers every remainder of the four-row groups; 75 is a
        // lake batch's dual system, 288 taxi's primal one.
        let mut rng = StdRng::seed_from_u64(17);
        for n in (1..=9).chain([75, 131, 288]) {
            for ridge in [1e-3, 0.5] {
                let a = random_spd(n, ridge, &mut rng);
                let oracle = cholesky_decompose_rows(&a).unwrap();
                let l = cholesky_decompose(&a).unwrap();
                assert_eq!(bits(&l), bits(&oracle), "L at n={n}");
                let rhs =
                    Matrix::from_vec(n, 3, (0..n * 3).map(|_| rng.gen_range(-2.0..2.0)).collect())
                        .unwrap();
                let mut want = Matrix::zeros(n, 3);
                for c in 0..3 {
                    for (r, v) in cholesky_back_substitute(&oracle, &rhs.col(c))
                        .into_iter()
                        .enumerate()
                    {
                        want.set(r, c, v);
                    }
                }
                let got = cholesky_solve_multi(&a, &rhs).unwrap();
                assert_eq!(bits(&got), bits(&want), "solve at n={n}");
            }
        }
    }

    #[test]
    fn column_order_reports_the_oracle_pivot_error() {
        // Pull one diagonal entry down so that pivot, or a later one, goes
        // non-positive; a NaN diagonal passes the check as the row loop
        // lets it, and poisons the factor from there on.
        let mut rng = StdRng::seed_from_u64(5);
        for n in [1, 2, 5, 8, 9, 75] {
            for at in [0, n / 2, n - 1] {
                for shift in [1e3, 1e9, f64::NAN] {
                    let mut a = random_spd(n, 0.1, &mut rng);
                    let v = a.get(at, at) - shift;
                    a.set(at, at, v);
                    let want = cholesky_decompose_rows(&a);
                    let got = cholesky_decompose(&a);
                    match (&got, &want) {
                        (Ok(l), Ok(oracle)) => assert_eq!(bits(l), bits(oracle), "n={n} at={at}"),
                        _ => assert_eq!(got, want, "n={n} at={at} shift={shift}"),
                    }
                    if !shift.is_nan() {
                        assert!(
                            matches!(want, Err(LinalgError::NotSolvable(_))),
                            "n={n} at={at} shift={shift}"
                        );
                    }
                }
            }
        }
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
        let ax = a.matmul(&Matrix::from_vec(3, 1, x).unwrap()).unwrap();
        for (l, r) in ax.data().iter().zip(&b) {
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
