//! ℓ2,1-norm sparse regression (ARDA §6.2, Equation 1).
//!
//! Solves `min_W ‖XW − Y‖₂,₁ + γ‖W‖₂,₁` where the ℓ2,1 norm sums the
//! Euclidean norms of matrix rows. Row-sparsity of `W` selects features
//! jointly across all targets. The solver is the standard IRLS fixed-point
//! iteration for this objective (Nie et al., "Efficient and Robust Feature
//! Selection via Joint ℓ2,1-Norms Minimization"; the ARDA paper cites the
//! gradient solver of Qian & Zhai for the same loss). Each step reweights
//! the rows of the residual `R = XW − Y` and of `W`, with row norms clamped
//! below at ε (the usual smoothed convergence guarantee):
//!
//! ```text
//! D₁ = diag(1 / 2‖Rᵢ‖)        B = D₁⁻¹       (n×n, residual rows)
//! D₂ = diag(1 / 2‖Wⱼ‖)        A = (γD₂)⁻¹    (d×d, coefficient rows)
//!
//! primal (d ≤ n or γ = 0):  W = (Xᵀ D₁ X + γ D₂)⁻¹ Xᵀ D₁ Y
//! dual   (d > n and γ > 0): W = A Xᵀ (X A Xᵀ + B)⁻¹ Y
//! ```
//!
//! The two forms are equal by the Woodbury identity. The primal factors a
//! d×d system (an `n·d²/2` weighted Gram plus a `d³/3` Cholesky); the dual
//! factors an n×n one (an `n²·d` product plus an `n³/3` Cholesky), so the
//! solver picks it whenever a batch has more features than rows. The ridge
//! start follows the same rule: `(XᵀX + γI)⁻¹XᵀY` or `Xᵀ(XXᵀ + γI)⁻¹Y`.
//! The choice depends only on the input's shape, and both forms run their
//! products through budget-independent kernels, so the output is
//! bit-identical at any thread budget.

use crate::{Result, SelectError};
use arda_linalg::{cholesky_solve_multi, Matrix};
use arda_ml::Task;

/// Configuration for the IRLS solver.
#[derive(Debug, Clone, PartialEq)]
pub struct L21Config {
    /// Regularisation weight γ.
    pub gamma: f64,
    /// Maximum IRLS iterations.
    pub max_iter: usize,
    /// Convergence tolerance on the relative objective change.
    pub tol: f64,
    /// Norm smoothing ε.
    pub eps: f64,
    /// Re-estimate labels inside the loop (the "modified objective from
    /// \[56\]" the paper uses for corrupted classification labels): after each
    /// W update, blend Y towards the model's own consistent labelling.
    pub robust_labels: bool,
    /// Blend factor for robust labels.
    pub label_blend: f64,
}

impl Default for L21Config {
    fn default() -> Self {
        L21Config {
            gamma: 0.1,
            max_iter: 30,
            tol: 1e-5,
            eps: 1e-8,
            robust_labels: false,
            label_blend: 0.3,
        }
    }
}

/// Result of the ℓ2,1 solve.
#[derive(Debug, Clone)]
pub struct L21Solution {
    /// Coefficient matrix `W` (d×c).
    pub w: Matrix,
    /// Row norms of `W` — the per-feature importance scores.
    pub feature_scores: Vec<f64>,
    /// Objective value at termination.
    pub objective: f64,
    /// Iterations performed.
    pub iterations: usize,
    /// Whether the relative objective change met `tol` before `max_iter`
    /// stopped the loop.
    pub converged: bool,
}

/// Build the target matrix `Y`: the raw column for regression, one-hot for
/// classification.
pub fn target_matrix(y: &[f64], task: Task) -> Matrix {
    match task {
        Task::Regression => {
            let mut m = Matrix::zeros(y.len(), 1);
            for (i, &v) in y.iter().enumerate() {
                m.set(i, 0, v);
            }
            m
        }
        Task::Classification { n_classes } => {
            let mut m = Matrix::zeros(y.len(), n_classes.max(1));
            for (i, &v) in y.iter().enumerate() {
                let c = (v as usize).min(n_classes.saturating_sub(1));
                m.set(i, c, 1.0);
            }
            m
        }
    }
}

fn l21_norm_rows(m: &Matrix) -> f64 {
    m.row_norms().iter().sum()
}

/// Weighted Gram matrix `Xᵀ D X` for diagonal `D = diag(weights)`.
fn weighted_gram(x: &Matrix, weights: &[f64]) -> Matrix {
    let d = x.cols();
    let mut out = Matrix::zeros(d, d);
    for r in 0..x.rows() {
        let wr = weights[r];
        if wr == 0.0 {
            continue;
        }
        let row = x.row(r);
        for i in 0..d {
            let a = wr * row[i];
            if a == 0.0 {
                continue;
            }
            for j in i..d {
                let v = a * row[j];
                out.data_mut()[i * d + j] += v;
            }
        }
    }
    for i in 0..d {
        for j in 0..i {
            out.data_mut()[i * d + j] = out.get(j, i);
        }
    }
    out
}

/// Weighted cross-product `Xᵀ D Y`.
fn weighted_cross(x: &Matrix, weights: &[f64], y: &Matrix) -> Matrix {
    let d = x.cols();
    let c = y.cols();
    let mut out = Matrix::zeros(d, c);
    for r in 0..x.rows() {
        let wr = weights[r];
        if wr == 0.0 {
            continue;
        }
        let xr = x.row(r);
        let yr = y.row(r);
        for i in 0..d {
            let a = wr * xr[i];
            if a == 0.0 {
                continue;
            }
            for j in 0..c {
                out.data_mut()[i * c + j] += a * yr[j];
            }
        }
    }
    out
}

/// Primal update `W = (Xᵀ D₁ X + diag(ridge))⁻¹ Xᵀ D₁ Y`.
fn primal_update(x: &Matrix, y: &Matrix, d1: &[f64], ridge: &[f64]) -> Result<Matrix> {
    let mut lhs = weighted_gram(x, d1);
    for (i, &r) in ridge.iter().enumerate() {
        let v = lhs.get(i, i) + r;
        lhs.set(i, i, v);
    }
    let rhs = weighted_cross(x, d1, y);
    cholesky_solve_multi(&lhs, &rhs).map_err(|e| SelectError::Invalid(e.to_string()))
}

/// Dual update `W = A Xᵀ (X A Xᵀ + B)⁻¹ Y` for diagonal `A = diag(a)`,
/// `B = diag(b)`, given `xt = Xᵀ`.
fn dual_update(x: &Matrix, xt: &Matrix, y: &Matrix, a: &[f64], b: &[f64]) -> Result<Matrix> {
    let mut axt = xt.clone();
    for (j, &aj) in a.iter().enumerate() {
        for v in axt.row_mut(j) {
            *v *= aj;
        }
    }
    let mut k = x.matmul(&axt).expect("dims");
    for (i, &bi) in b.iter().enumerate() {
        let v = k.get(i, i) + bi;
        k.set(i, i, v);
    }
    let z = cholesky_solve_multi(&k, y).map_err(|e| SelectError::Invalid(e.to_string()))?;
    Ok(axt.matmul(&z).expect("dims"))
}

/// `2·max(‖mᵢ‖, ε)` per row of `m`: the inverse IRLS weight of each row.
fn clamped_twice_norms(m: &Matrix, eps: f64) -> Vec<f64> {
    m.row_norms().iter().map(|r| 2.0 * r.max(eps)).collect()
}

/// Solve the ℓ2,1 objective on (standardised) `x` against targets `y`.
pub fn l21_solve(x: &Matrix, y: &Matrix, cfg: &L21Config) -> Result<L21Solution> {
    if x.rows() != y.rows() {
        return Err(SelectError::Invalid(format!(
            "l21: {} rows vs {} targets",
            x.rows(),
            y.rows()
        )));
    }
    let n = x.rows();
    let d = x.cols();
    if n == 0 || d == 0 {
        return Err(SelectError::Invalid("l21: empty input".into()));
    }
    // `Some(Xᵀ)` selects the dual form (see the module doc).
    let xt = (d > n && cfg.gamma > 0.0).then(|| x.transpose());
    let mut y_work = y.clone();

    // Ridge initialisation: W = (XᵀX + γI)⁻¹ XᵀY = Xᵀ (XXᵀ + γI)⁻¹ Y.
    let ridge = cfg.gamma.max(1e-9);
    let mut w = match &xt {
        None => primal_update(x, &y_work, &vec![1.0; n], &vec![ridge; d])?,
        Some(xt) => dual_update(x, xt, &y_work, &vec![1.0; d], &vec![ridge; n])?,
    };

    let predict = |w: &Matrix| x.matmul(w).expect("dims");
    let objective =
        |resid: &Matrix, w: &Matrix| l21_norm_rows(resid) + cfg.gamma * l21_norm_rows(w);
    // The residual of the current `W` against the current labels; each
    // iteration's objective check leaves it ready for the next reweighting.
    let mut resid = predict(&w).sub(&y_work).expect("dims");
    let mut prev_obj = objective(&resid, &w);
    let mut iterations = 0;
    let mut converged = false;

    for it in 0..cfg.max_iter {
        iterations = it + 1;
        let r2 = clamped_twice_norms(&resid, cfg.eps);
        let w2 = clamped_twice_norms(&w, cfg.eps);
        w = match &xt {
            None => {
                let d1: Vec<f64> = r2.iter().map(|v| 1.0 / v).collect();
                let ridge: Vec<f64> = w2.iter().map(|v| cfg.gamma * (1.0 / v)).collect();
                primal_update(x, &y_work, &d1, &ridge)?
            }
            Some(xt) => {
                let a: Vec<f64> = w2.iter().map(|v| v / cfg.gamma).collect();
                dual_update(x, xt, &y_work, &a, &r2)?
            }
        };
        let pred = predict(&w);

        // Optional robust-label refinement (classification): pull Y towards
        // the model's own hardened predictions.
        if cfg.robust_labels && y.cols() > 1 {
            for r in 0..n {
                let best = (0..y.cols())
                    .max_by(|&a, &b| pred.get(r, a).total_cmp(&pred.get(r, b)))
                    .unwrap_or(0);
                for c in 0..y.cols() {
                    let orig = y.get(r, c);
                    let hard = if c == best { 1.0 } else { 0.0 };
                    y_work.set(
                        r,
                        c,
                        (1.0 - cfg.label_blend) * orig + cfg.label_blend * hard,
                    );
                }
            }
        }

        resid = pred.sub(&y_work).expect("dims");
        let obj = objective(&resid, &w);
        let done = (prev_obj - obj).abs() <= cfg.tol * prev_obj.abs().max(1e-12);
        prev_obj = obj;
        if done {
            converged = true;
            break;
        }
    }

    let feature_scores = w.row_norms();
    Ok(L21Solution {
        w,
        feature_scores,
        objective: prev_obj,
        iterations,
        converged,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use arda_linalg::stats::standardize_columns;
    use arda_par::Budget;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn planted(n: usize, d: usize, seed: u64) -> (Matrix, Vec<f64>) {
        // y depends on features 0 and 1 only.
        let mut rng = StdRng::seed_from_u64(seed);
        let rows: Vec<Vec<f64>> = (0..n)
            .map(|_| (0..d).map(|_| rng.gen_range(-1.0..1.0)).collect())
            .collect();
        let y: Vec<f64> = rows
            .iter()
            .map(|r| 3.0 * r[0] - 2.0 * r[1] + rng.gen_range(-0.01..0.01))
            .collect();
        (Matrix::from_rows(&rows).unwrap(), y)
    }

    /// The solver before the dual form and the residual reuse: the primal
    /// IRLS loop, kept verbatim as the oracle the primal path must match
    /// bit for bit.
    fn seed_l21_solve(x: &Matrix, y: &Matrix, cfg: &L21Config) -> Result<(Matrix, f64, usize)> {
        let n = x.rows();
        let d = x.cols();
        let mut y_work = y.clone();
        let ones = vec![1.0; n];
        let mut gram = weighted_gram(x, &ones);
        for i in 0..d {
            let v = gram.get(i, i) + cfg.gamma.max(1e-9);
            gram.set(i, i, v);
        }
        let rhs = weighted_cross(x, &ones, &y_work);
        let mut w =
            cholesky_solve_multi(&gram, &rhs).map_err(|e| SelectError::Invalid(e.to_string()))?;
        let objective = |w: &Matrix, y_cur: &Matrix| -> f64 {
            let resid = x.matmul(w).expect("dims").sub(y_cur).expect("dims");
            l21_norm_rows(&resid) + cfg.gamma * l21_norm_rows(w)
        };
        let mut prev_obj = objective(&w, &y_work);
        let mut iterations = 0;
        for it in 0..cfg.max_iter {
            iterations = it + 1;
            let resid = x.matmul(&w).expect("dims").sub(&y_work).expect("dims");
            let d1: Vec<f64> = resid
                .row_norms()
                .iter()
                .map(|r| 1.0 / (2.0 * r.max(cfg.eps)))
                .collect();
            let d2: Vec<f64> = w
                .row_norms()
                .iter()
                .map(|r| 1.0 / (2.0 * r.max(cfg.eps)))
                .collect();
            let mut lhs = weighted_gram(x, &d1);
            for i in 0..d {
                let v = lhs.get(i, i) + cfg.gamma * d2[i];
                lhs.set(i, i, v);
            }
            let rhs = weighted_cross(x, &d1, &y_work);
            w = cholesky_solve_multi(&lhs, &rhs)
                .map_err(|e| SelectError::Invalid(e.to_string()))?;
            if cfg.robust_labels && y.cols() > 1 {
                let pred = x.matmul(&w).expect("dims");
                for r in 0..n {
                    let best = (0..y.cols())
                        .max_by(|&a, &b| pred.get(r, a).total_cmp(&pred.get(r, b)))
                        .unwrap_or(0);
                    for c in 0..y.cols() {
                        let orig = y.get(r, c);
                        let hard = if c == best { 1.0 } else { 0.0 };
                        y_work.set(
                            r,
                            c,
                            (1.0 - cfg.label_blend) * orig + cfg.label_blend * hard,
                        );
                    }
                }
            }
            let obj = objective(&w, &y_work);
            if (prev_obj - obj).abs() <= cfg.tol * prev_obj.abs().max(1e-12) {
                prev_obj = obj;
                break;
            }
            prev_obj = obj;
        }
        Ok((w, prev_obj, iterations))
    }

    fn bits(m: &Matrix) -> Vec<u64> {
        m.data().iter().map(|v| v.to_bits()).collect()
    }

    /// The standardised [`planted`] problem with targets for `task`: the
    /// raw signal for regression, its equal-width class bins otherwise.
    fn shaped(n: usize, d: usize, task: Task, seed: u64) -> (Matrix, Matrix) {
        let (mut x, signal) = planted(n, d, seed);
        standardize_columns(&mut x);
        let y: Vec<f64> = match task {
            Task::Regression => signal,
            Task::Classification { n_classes } => {
                let k = n_classes as f64;
                signal
                    .iter()
                    .map(|&s| ((s + 5.0) / 10.0 * k).floor().clamp(0.0, k - 1.0))
                    .collect()
            }
        };
        (x, target_matrix(&y, task))
    }

    /// Append zero rows to `m` until it has `rows` rows.
    fn pad_rows(m: &Matrix, rows: usize) -> Matrix {
        let mut data = m.data().to_vec();
        data.resize(rows * m.cols(), 0.0);
        Matrix::from_vec(rows, m.cols(), data).unwrap()
    }

    fn assert_scores_close(got: &[f64], want: &[f64], what: &str) {
        let scale = want.iter().fold(0.0_f64, |m, v| m.max(v.abs()));
        for (j, (g, w)) in got.iter().zip(want).enumerate() {
            assert!(
                (g - w).abs() <= 1e-8 * scale,
                "{what}: feature {j}: {g} vs {w} (scale {scale})"
            );
        }
    }

    const TASKS: [Task; 3] = [
        Task::Regression,
        Task::Classification { n_classes: 2 },
        Task::Classification { n_classes: 3 },
    ];

    #[test]
    fn primal_path_matches_seed_solver_bit_for_bit() {
        let configs = [
            L21Config::default(),
            L21Config {
                gamma: 2.0,
                ..Default::default()
            },
            L21Config {
                robust_labels: true,
                ..Default::default()
            },
            L21Config {
                max_iter: 3,
                ..Default::default()
            },
        ];
        // Tall, square (d = n stays primal) and γ = 0 on a wide input.
        let mut cases: Vec<(usize, usize, L21Config)> = Vec::new();
        for cfg in &configs {
            cases.push((90, 12, cfg.clone()));
            cases.push((25, 25, cfg.clone()));
        }
        cases.push((
            20,
            30,
            L21Config {
                gamma: 0.0,
                max_iter: 4,
                ..Default::default()
            },
        ));
        for (seed, (n, d, cfg)) in cases.into_iter().enumerate() {
            for task in TASKS {
                let (x, y) = shaped(n, d, task, seed as u64);
                let what = format!("{n}x{d} {task:?} {cfg:?}");
                match (l21_solve(&x, &y, &cfg), seed_l21_solve(&x, &y, &cfg)) {
                    (Ok(sol), Ok((w, objective, iterations))) => {
                        assert_eq!(bits(&sol.w), bits(&w), "{what}");
                        assert_eq!(sol.objective.to_bits(), objective.to_bits(), "{what}");
                        assert_eq!(sol.iterations, iterations, "{what}");
                    }
                    (Err(_), Err(_)) => {}
                    (got, want) => panic!("{what}: {:?} vs {:?}", got.is_ok(), want.is_ok()),
                }
            }
        }
    }

    /// Zero rows of X and Y add nothing to the objective, so padding a wide
    /// problem until it is tall gives the same optimum through the primal
    /// path.
    #[test]
    fn dual_path_matches_zero_padded_primal() {
        for (seed, task) in TASKS.into_iter().enumerate() {
            for gamma in [0.1, 1.0] {
                let (x, y) = shaped(30, 70, task, 10 + seed as u64);
                let cfg = L21Config {
                    gamma,
                    ..Default::default()
                };
                let dual = l21_solve(&x, &y, &cfg).unwrap();
                let primal = l21_solve(&pad_rows(&x, 80), &pad_rows(&y, 80), &cfg).unwrap();
                let what = format!("{task:?} gamma={gamma}");
                assert_scores_close(&dual.feature_scores, &primal.feature_scores, &what);
                assert_eq!(dual.iterations, primal.iterations, "{what}");
                assert_eq!(dual.converged, primal.converged, "{what}");
                assert!(
                    (dual.objective - primal.objective).abs() <= 1e-8 * primal.objective,
                    "{what}: {} vs {}",
                    dual.objective,
                    primal.objective
                );
            }
        }
    }

    /// Robust relabelling gives padded rows non-zero targets, so the padded
    /// problem is a different objective there; the oracle is the seed
    /// solver, which ran the primal form on the wide input directly.
    #[test]
    fn dual_path_matches_seed_solver_with_robust_labels() {
        for (seed, task) in TASKS.into_iter().enumerate() {
            let (x, y) = shaped(30, 70, task, 20 + seed as u64);
            let cfg = L21Config {
                robust_labels: true,
                ..Default::default()
            };
            let dual = l21_solve(&x, &y, &cfg).unwrap();
            let (w, _, iterations) = seed_l21_solve(&x, &y, &cfg).unwrap();
            let what = format!("{task:?}");
            assert_scores_close(&dual.feature_scores, &w.row_norms(), &what);
            assert_eq!(dual.iterations, iterations, "{what}");
        }
    }

    #[test]
    fn dual_path_identical_across_budgets() {
        let (x, y) = shaped(75, 220, Task::Classification { n_classes: 3 }, 30);
        let solve = |width| {
            let budget = Budget::isolated(width);
            let solution = budget.install(|| l21_solve(&x, &y, &L21Config::default()).unwrap());
            assert_eq!(budget.total_spawns() > 0, width > 1, "width={width}");
            solution
        };
        let (one, eight) = (solve(1), solve(8));
        assert_eq!(bits(&one.w), bits(&eight.w));
        assert_eq!(one.objective.to_bits(), eight.objective.to_bits());
        assert_eq!(one.iterations, eight.iterations);
    }

    /// At γ = 2 the planted problem needs about two dozen iterations
    /// (at γ = 0.1 the ridge start already meets `tol` after one).
    #[test]
    fn converged_reports_whether_tol_was_met() {
        let (mut x, y) = planted(200, 8, 0);
        standardize_columns(&mut x);
        let ym = target_matrix(&y, Task::Regression);
        let solve = |max_iter| {
            l21_solve(
                &x,
                &ym,
                &L21Config {
                    gamma: 2.0,
                    max_iter,
                    ..Default::default()
                },
            )
            .unwrap()
        };
        let capped = solve(1);
        assert!(!capped.converged, "stopped by max_iter: {capped:?}");
        let full = solve(L21Config::default().max_iter);
        assert!(full.converged, "meets tol at the default cap: {full:?}");
        assert!(full.iterations > 1);
    }

    #[test]
    fn recovers_row_sparse_support_regression() {
        let (mut x, y) = planted(200, 8, 0);
        standardize_columns(&mut x);
        let ym = target_matrix(&y, Task::Regression);
        let sol = l21_solve(
            &x,
            &ym,
            &L21Config {
                gamma: 2.0,
                ..Default::default()
            },
        )
        .unwrap();
        let s = &sol.feature_scores;
        assert!(s[0] > 0.5 && s[1] > 0.3, "signal rows large: {s:?}");
        for j in 2..8 {
            assert!(s[j] < s[0] / 5.0, "noise row {j} should be small: {s:?}");
        }
        assert!(sol.iterations >= 1);
    }

    #[test]
    fn classification_one_hot_targets() {
        let mut rng = StdRng::seed_from_u64(1);
        let n = 150;
        let mut rows = Vec::new();
        let mut y = Vec::new();
        for i in 0..n {
            let cls = (i % 3) as f64;
            rows.push(vec![
                cls + rng.gen_range(-0.2..0.2),
                rng.gen_range(-1.0..1.0),
                rng.gen_range(-1.0..1.0),
            ]);
            y.push(cls);
        }
        let mut x = Matrix::from_rows(&rows).unwrap();
        standardize_columns(&mut x);
        let ym = target_matrix(&y, Task::Classification { n_classes: 3 });
        assert_eq!(ym.cols(), 3);
        let sol = l21_solve(
            &x,
            &ym,
            &L21Config {
                gamma: 1.0,
                ..Default::default()
            },
        )
        .unwrap();
        assert!(
            sol.feature_scores[0] > 2.0 * sol.feature_scores[1],
            "class-separating feature must rank first: {:?}",
            sol.feature_scores
        );
    }

    #[test]
    fn larger_gamma_gives_sparser_rows() {
        let (mut x, y) = planted(150, 6, 2);
        standardize_columns(&mut x);
        let ym = target_matrix(&y, Task::Regression);
        let weak = l21_solve(
            &x,
            &ym,
            &L21Config {
                gamma: 0.01,
                ..Default::default()
            },
        )
        .unwrap();
        let strong = l21_solve(
            &x,
            &ym,
            &L21Config {
                gamma: 20.0,
                ..Default::default()
            },
        )
        .unwrap();
        let mass = |s: &[f64]| s.iter().sum::<f64>();
        assert!(mass(&strong.feature_scores) < mass(&weak.feature_scores));
    }

    #[test]
    fn objective_decreases_monotonically_enough() {
        let (mut x, y) = planted(100, 5, 3);
        standardize_columns(&mut x);
        let ym = target_matrix(&y, Task::Regression);
        let short = l21_solve(
            &x,
            &ym,
            &L21Config {
                max_iter: 1,
                ..Default::default()
            },
        )
        .unwrap();
        let long = l21_solve(
            &x,
            &ym,
            &L21Config {
                max_iter: 25,
                ..Default::default()
            },
        )
        .unwrap();
        assert!(long.objective <= short.objective + 1e-9);
    }

    #[test]
    fn robust_labels_still_finds_signal() {
        let mut rng = StdRng::seed_from_u64(4);
        let n = 120;
        let mut rows = Vec::new();
        let mut y = Vec::new();
        for i in 0..n {
            let cls = (i % 2) as f64;
            rows.push(vec![
                cls * 2.0 + rng.gen_range(-0.3..0.3),
                rng.gen_range(-1.0..1.0),
            ]);
            // 10% label noise.
            let noisy = if rng.gen::<f64>() < 0.1 {
                1.0 - cls
            } else {
                cls
            };
            y.push(noisy);
        }
        let mut x = Matrix::from_rows(&rows).unwrap();
        standardize_columns(&mut x);
        let ym = target_matrix(&y, Task::Classification { n_classes: 2 });
        let cfg = L21Config {
            robust_labels: true,
            ..Default::default()
        };
        let sol = l21_solve(&x, &ym, &cfg).unwrap();
        assert!(sol.feature_scores[0] > sol.feature_scores[1]);
    }

    #[test]
    fn shape_errors() {
        let x = Matrix::zeros(3, 2);
        let y = Matrix::zeros(2, 1);
        assert!(l21_solve(&x, &y, &L21Config::default()).is_err());
        assert!(l21_solve(
            &Matrix::zeros(0, 0),
            &Matrix::zeros(0, 1),
            &L21Config::default()
        )
        .is_err());
    }

    #[test]
    fn target_matrix_shapes() {
        let y = vec![0.0, 1.0, 2.0];
        let reg = target_matrix(&y, Task::Regression);
        assert_eq!((reg.rows(), reg.cols()), (3, 1));
        let cls = target_matrix(&y, Task::Classification { n_classes: 3 });
        assert_eq!((cls.rows(), cls.cols()), (3, 3));
        assert_eq!(cls.get(2, 2), 1.0);
        assert_eq!(cls.get(2, 0), 0.0);
    }
}
