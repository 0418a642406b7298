//! Parallel-vs-sequential determinism of the stages under the pipeline:
//! forest fits, featurization, RIFS fractions and the pipeline itself must
//! produce output identical to their sequential run across seeds and
//! budgets {1, 2, 3, 8}.
//!
//! The `arda-par` primitives hand each worker contiguous, ordered chunks
//! and stitch results back in order, so these are *exact* equality
//! assertions (no tolerances). Each sweep runs under
//! `Budget::isolated(w).install(..)` and asserts that widths above 1
//! spawned, so every input sits above its stage's small-input threshold
//! (16k cells for featurization). The matrix kernels run on the calling
//! thread; `arda-linalg`'s own tests pin them to naive oracles bit for bit.

mod common;

use arda::linalg::Matrix;
use arda::prelude::*;
use common::{assert_identical_across_budgets, assert_pipeline_identical_across_budgets};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

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
/// any budget, on a second taxi size and seed.
#[test]
fn pipeline_identical_across_thread_counts() {
    assert_pipeline_identical_across_budgets(140, 11);
}
