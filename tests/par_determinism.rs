//! Parallel-vs-sequential determinism of the kernels and stages under the
//! pipeline: blocked matmul, gram and transpose, soft joins, forest fits,
//! featurization, RIFS fractions and the pipeline itself must produce
//! output identical to their sequential run across random shapes, seeds
//! and budgets {1, 2, 3, 8}.
//!
//! The `arda-par` primitives hand each worker contiguous, ordered chunks
//! and stitch results back in order, so these are *exact* equality
//! assertions (no tolerances). Each sweep runs under
//! `Budget::isolated(w).install(..)` and asserts that widths above 1
//! spawned, so every input sits above its kernel's small-input threshold
//! (32k scalar ops for the matrix kernels, 4096 base rows for soft-join
//! scans, 16k cells for featurization), with row counts that leave a
//! ragged last band at widths 2, 3 and 8.

mod common;

use arda::linalg::Matrix;
use arda::prelude::*;
use common::{assert_identical_across_budgets, ragged};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A row count in `lo..hi` whose bands are ragged at widths 2, 3 and 8.
fn ragged_rows(rng: &mut StdRng, lo: usize, hi: usize) -> usize {
    loop {
        let n = rng.gen_range(lo..hi);
        if ragged(n) {
            return n;
        }
    }
}

fn random_matrix(rng: &mut StdRng, rows: usize, cols: usize, sparse: bool) -> Matrix {
    let data = (0..rows * cols)
        .map(|_| {
            if sparse && rng.gen_bool(0.4) {
                0.0
            } else {
                rng.gen_range(-5.0..5.0)
            }
        })
        .collect();
    Matrix::from_vec(rows, cols, data).unwrap()
}

/// Naive i-k-j reference product, independent of the library kernels.
fn reference_matmul(a: &Matrix, b: &Matrix) -> Matrix {
    let mut out = Matrix::zeros(a.rows(), b.cols());
    for i in 0..a.rows() {
        for k in 0..a.cols() {
            let av = a.get(i, k);
            if av == 0.0 {
                continue;
            }
            for j in 0..b.cols() {
                out.set(i, j, out.get(i, j) + av * b.get(k, j));
            }
        }
    }
    out
}

#[test]
fn blocked_matmul_matches_reference_across_shapes_and_threads() {
    for case in 0..12u64 {
        let mut rng = StdRng::seed_from_u64(case);
        // n ≥ 20, k ≥ 60, m ≥ 30: at least 36k ops.
        let n = ragged_rows(&mut rng, 20, 90);
        let k = rng.gen_range(60usize..300);
        let m = rng.gen_range(30usize..90);
        let a = random_matrix(&mut rng, n, k, case % 2 == 0);
        let b = random_matrix(&mut rng, k, m, case % 3 == 0);
        let expect = reference_matmul(&a, &b);
        let what = format!("case {case}: {n}x{k} * {k}x{m}");
        let got = assert_identical_across_budgets(&what, || a.matmul(&b).unwrap());
        assert_eq!(got.data(), expect.data(), "{what}");
    }
}

#[test]
fn gram_matches_transpose_product_across_shapes_and_threads() {
    for case in 0..12u64 {
        let mut rng = StdRng::seed_from_u64(100 + case);
        // Bands run over the d output rows; n·d ≥ 34k for the transpose.
        let n = rng.gen_range(1_700usize..2_500);
        let d = ragged_rows(&mut rng, 20, 64);
        let x = random_matrix(&mut rng, n, d, case % 2 == 0);
        let what = format!("case {case}: {n}x{d}");
        let gram = assert_identical_across_budgets(&format!("gram {what}"), || x.gram());
        let xt = assert_identical_across_budgets(&format!("transpose {what}"), || x.transpose());
        // Mathematical oracle (different accumulation order → tolerance).
        let explicit = reference_matmul(&xt, &x);
        for (g, e) in gram.data().iter().zip(explicit.data()) {
            assert!(
                (g - e).abs() < 1e-9 * (1.0 + e.abs()),
                "{what}: gram vs XᵀX"
            );
        }
    }
}

/// Soft joins run their row scans in parallel above a 4096-row threshold;
/// results must be identical at every budget.
#[test]
fn soft_joins_identical_across_thread_counts() {
    for case in 0..3u64 {
        let mut rng = StdRng::seed_from_u64(200 + case);
        let n_base = 6_007;
        let n_foreign = 500;
        let base = Table::new(
            "b",
            vec![Column::from_i64(
                "k",
                (0..n_base)
                    .map(|_| rng.gen_range(-10_000i64..10_000))
                    .collect(),
            )],
        )
        .unwrap();
        let foreign = Table::new(
            "f",
            vec![
                Column::from_i64(
                    "k",
                    (0..n_foreign)
                        .map(|_| rng.gen_range(-10_000i64..10_000))
                        .collect(),
                ),
                Column::from_f64(
                    "v",
                    (0..n_foreign).map(|_| rng.gen_range(-3.0..3.0)).collect(),
                ),
                Column::from_str(
                    "c",
                    (0..n_foreign)
                        .map(|i| if i % 2 == 0 { "even" } else { "odd" })
                        .collect(),
                ),
            ],
        )
        .unwrap();

        let nearest = JoinSpec::soft(
            "k",
            "k",
            SoftMethod::Nearest {
                tolerance: Some(40.0),
            },
        );
        let two_way = JoinSpec::soft("k", "k", SoftMethod::TwoWayNearest);
        assert_identical_across_budgets(&format!("case {case}: nearest join"), || {
            execute_join(&base, &foreign, &nearest, case).unwrap()
        });
        assert_identical_across_budgets(&format!("case {case}: two-way join"), || {
            execute_join(&base, &foreign, &two_way, case).unwrap()
        });
    }
}

#[test]
fn forest_fit_identical_across_thread_counts() {
    for case in 0..3u64 {
        let mut rng = StdRng::seed_from_u64(300 + case);
        let n = 240;
        let rows: Vec<Vec<f64>> = (0..n)
            .map(|i| {
                let cls = (i % 2) as f64;
                vec![
                    cls * 2.0 + rng.gen_range(-1.0..1.0),
                    rng.gen_range(-1.0..1.0),
                    rng.gen_range(-1.0..1.0),
                ]
            })
            .collect();
        let x = Matrix::from_rows(&rows).unwrap();
        let y: Vec<f64> = (0..n).map(|i| (i % 2) as f64).collect();
        let cfg = arda::ml::ForestConfig {
            n_trees: 12,
            seed: case,
            ..Default::default()
        };
        assert_identical_across_budgets(&format!("case {case}: forest"), || {
            let rf =
                arda::ml::RandomForest::fit_xy(&x, &y, Task::Classification { n_classes: 2 }, &cfg)
                    .unwrap();
            (rf.predict(&x).unwrap(), rf.importances().to_vec())
        });
    }
}

#[test]
fn featurize_identical_across_thread_counts() {
    let mut rng = StdRng::seed_from_u64(400);
    // 3 source columns × 6007 rows: above the 16k-cell threshold.
    let n = 6_007;
    let cats = ["a", "b", "c", "d", "e"];
    let t = Table::new(
        "t",
        vec![
            Column::from_f64_opt(
                "num",
                (0..n)
                    .map(|_| {
                        if rng.gen_bool(0.1) {
                            None
                        } else {
                            Some(rng.gen_range(-9.0..9.0))
                        }
                    })
                    .collect(),
            ),
            Column::from_str(
                "cat",
                (0..n).map(|_| cats[rng.gen_range(0..cats.len())]).collect(),
            ),
            Column::from_i64("count", (0..n).map(|_| rng.gen_range(0i64..50)).collect()),
            Column::from_f64("target", (0..n).map(|_| rng.gen_range(0.0..1.0)).collect()),
        ],
    )
    .unwrap();
    assert_identical_across_budgets("featurize", || {
        let d = featurize(&t, "target", false, &FeaturizeOptions::default()).unwrap();
        (d.feature_names, d.x, d.y)
    });
}

#[test]
fn rifs_fractions_identical_across_thread_counts() {
    let mut rng = StdRng::seed_from_u64(500);
    let n = 120;
    let rows: Vec<Vec<f64>> = (0..n)
        .map(|i| {
            let cls = (i % 2) as f64;
            let mut row = vec![cls * 3.0 + rng.gen_range(-0.4..0.4)];
            for _ in 0..5 {
                row.push(rng.gen_range(-1.0..1.0));
            }
            row
        })
        .collect();
    let ds = Dataset::new(
        Matrix::from_rows(&rows).unwrap(),
        (0..n).map(|i| (i % 2) as f64).collect(),
        (0..6).map(|i| format!("f{i}")).collect(),
        Task::Classification { n_classes: 2 },
    )
    .unwrap();
    let cfg = RifsConfig {
        repeats: 4,
        rf_trees: 8,
        ..Default::default()
    };
    assert_identical_across_budgets("rifs_fractions", || {
        arda::select::rifs_fractions(&ds, &cfg, 7).unwrap()
    });
}

/// The full pipeline — coreset, parallel batch joins, imputation, parallel
/// featurization, RIFS, final estimate — is deterministic in the seed at
/// any budget.
#[test]
fn pipeline_identical_across_thread_counts() {
    let sc = arda::synth::taxi(&ScenarioConfig {
        n_rows: 140,
        n_decoys: 3,
        seed: 11,
    });
    let repo = Repository::from_tables(sc.repository.clone());
    let config = ArdaConfig {
        selector: SelectorKind::Rifs(RifsConfig {
            repeats: 3,
            rf_trees: 8,
            ..Default::default()
        }),
        seed: 11,
        ..Default::default()
    };
    assert_identical_across_budgets("pipeline", || {
        let report = Arda::new(config.clone())
            .run(&sc.base, &repo, &sc.target)
            .unwrap();
        (
            report.base_score.to_bits(),
            report.augmented_score.to_bits(),
            report
                .selected
                .iter()
                .map(|s| format!("{}.{}", s.table, s.column))
                .collect::<Vec<_>>(),
        )
    });
}
