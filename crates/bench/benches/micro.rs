//! Micro-benchmarks of the performance-critical primitives: hard/soft join
//! throughput, group-by pre-aggregation, OSNAP sketching, the ℓ2,1 IRLS
//! solver, random-forest fitting, RIFS fractions and CSV / `.arda`
//! ingestion.
//!
//! Runs under `cargo bench -p arda-bench` with the in-repo timing harness
//! (`harness = false`; the build is offline, so no criterion), at the
//! budget `ARDA_THREADS` sets. End-to-end `Arda::run` timings, broken down
//! per layer, come from the `perfbench` package.

use arda_bench::timing::{print_measurements, time_op, Measurement};
use arda_bench::{bench_rifs, Scale};
use arda_coreset::sketch_xy;
use arda_join::{execute_join, JoinSpec, SoftMethod};
use arda_linalg::{stats::standardize_columns, Matrix};
use arda_ml::{Dataset, ForestConfig, RandomForest, Task};
use arda_select::rifs_fractions;
use arda_select::sparse_regression::{l21_solve, target_matrix, L21Config};
use arda_synth::{taxi, ScenarioConfig};
use arda_table::{
    read_arda_bytes, read_csv_str, write_arda, write_csv, Column, ColumnData, GroupBy, Table,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;

const WINDOW_SECS: f64 = 0.3;

fn tables(n_base: usize, n_foreign: usize) -> (Table, Table) {
    let mut rng = StdRng::seed_from_u64(0);
    let base = Table::new(
        "base",
        vec![
            Column::from_i64("k", (0..n_base).map(|i| (i % 500) as i64).collect()),
            Column::from_f64("v", (0..n_base).map(|_| rng.gen()).collect()),
        ],
    )
    .unwrap();
    let foreign = Table::new(
        "foreign",
        vec![
            Column::from_i64("k", (0..n_foreign).map(|i| i as i64).collect()),
            Column::from_f64("a", (0..n_foreign).map(|_| rng.gen()).collect()),
            Column::from_f64("b", (0..n_foreign).map(|_| rng.gen()).collect()),
        ],
    )
    .unwrap();
    (base, foreign)
}

fn bench_joins(out: &mut Vec<Measurement>) {
    let (base, foreign) = tables(2_000, 500);
    out.push(time_op("hard_join_2k_x_500", WINDOW_SECS, || {
        black_box(execute_join(&base, &foreign, &JoinSpec::hard("k", "k"), 0).unwrap());
    }));
    let spec = JoinSpec::soft("k", "k", SoftMethod::TwoWayNearest);
    out.push(time_op("soft_2way_join_2k_x_500", WINDOW_SECS, || {
        black_box(execute_join(&base, &foreign, &spec, 0).unwrap());
    }));
}

fn bench_groupby(out: &mut Vec<Measurement>) {
    let mut rng = StdRng::seed_from_u64(1);
    let t = Table::new(
        "t",
        vec![
            Column::from_i64("k", (0..5_000).map(|i| (i % 200) as i64).collect()),
            Column::from_f64("v", (0..5_000).map(|_| rng.gen()).collect()),
        ],
    )
    .unwrap();
    out.push(time_op(
        "groupby_aggregate_5k_rows_200_groups",
        WINDOW_SECS,
        || {
            black_box(GroupBy::new(&t, &["k"]).unwrap().aggregate().unwrap());
        },
    ));
}

fn bench_sketch(out: &mut Vec<Measurement>) {
    let mut rng = StdRng::seed_from_u64(2);
    let x = Matrix::from_vec(
        2_000,
        50,
        (0..2_000 * 50).map(|_| rng.gen::<f64>()).collect(),
    )
    .unwrap();
    let y: Vec<f64> = (0..2_000).map(|_| rng.gen()).collect();
    out.push(time_op("osnap_sketch_2000x50_to_200", WINDOW_SECS, || {
        black_box(sketch_xy(&x, &y, false, 200, 0));
    }));
}

/// One tall solve (primal form, d×d system) and one wide solve shaped like
/// a School (L) lake batch (dual form, n×n system).
fn bench_l21(out: &mut Vec<Measurement>) {
    let mut rng = StdRng::seed_from_u64(3);
    let cfg = L21Config {
        max_iter: 10,
        ..Default::default()
    };
    for (n, d) in [(400, 60), (75, 220)] {
        let mut x =
            Matrix::from_vec(n, d, (0..n * d).map(|_| rng.gen::<f64>() - 0.5).collect()).unwrap();
        standardize_columns(&mut x);
        let y: Vec<f64> = (0..n).map(|i| x.get(i, 0) * 3.0 - x.get(i, 1)).collect();
        let ym = target_matrix(&y, Task::Regression);
        out.push(time_op(
            &format!("l21_irls_{n}x{d}_10iter"),
            WINDOW_SECS,
            || {
                black_box(l21_solve(&x, &ym, &cfg).unwrap());
            },
        ));
    }
}

fn bench_forest(out: &mut Vec<Measurement>) {
    let mut rng = StdRng::seed_from_u64(4);
    let rows: Vec<Vec<f64>> = (0..500)
        .map(|i| {
            let cls = (i % 2) as f64;
            (0..20)
                .map(|f| {
                    if f == 0 {
                        cls * 2.0 + rng.gen::<f64>()
                    } else {
                        rng.gen()
                    }
                })
                .collect()
        })
        .collect();
    let x = Matrix::from_rows(&rows).unwrap();
    let y: Vec<f64> = (0..500).map(|i| (i % 2) as f64).collect();
    let cfg = ForestConfig {
        n_trees: 32,
        max_depth: 10,
        ..Default::default()
    };
    out.push(time_op(
        "random_forest_fit_500x20_32trees",
        WINDOW_SECS,
        || {
            black_box(
                RandomForest::fit_xy(&x, &y, Task::Classification { n_classes: 2 }, &cfg).unwrap(),
            );
        },
    ));
}

/// Shaped like one taxi RIFS round: 750×288 regression, 24 trees of depth
/// 10, with taxi's column mix of 56% binary, 13% with 3–20 distinct values
/// and 31% continuous columns.
fn bench_forest_taxi_round(out: &mut Vec<Measurement>) {
    let (n, d) = (750, 288);
    let mut rng = StdRng::seed_from_u64(8);
    let rows: Vec<Vec<f64>> = (0..n)
        .map(|_| {
            (0..d)
                .map(|f| match f {
                    0..=160 => (rng.gen::<f64>() < 0.05 + (f % 10) as f64 * 0.09) as u8 as f64,
                    161..=197 => rng.gen_range(0..3 + (f - 161) % 18) as f64,
                    _ => rng.gen_range(-1.0..1.0),
                })
                .collect()
        })
        .collect();
    let y: Vec<f64> = rows
        .iter()
        .map(|r| 3.0 * r[200] - 2.0 * r[201] + r[3] + 0.5 * r[170] + rng.gen_range(-0.5..0.5))
        .collect();
    let x = Matrix::from_rows(&rows).unwrap();
    let cfg = ForestConfig {
        n_trees: 24,
        max_depth: 10,
        ..Default::default()
    };
    out.push(time_op(
        "random_forest_fit_750x288_24trees",
        WINDOW_SECS,
        || {
            black_box(RandomForest::fit_xy(&x, &y, Task::Regression, &cfg).unwrap());
        },
    ));
}

fn bench_rifs_fractions(out: &mut Vec<Measurement>) {
    let mut rng = StdRng::seed_from_u64(5);
    let rows: Vec<Vec<f64>> = (0..200)
        .map(|i| {
            let cls = (i % 2) as f64;
            (0..15)
                .map(|f| {
                    if f < 2 {
                        cls * 2.0 + rng.gen::<f64>()
                    } else {
                        rng.gen()
                    }
                })
                .collect()
        })
        .collect();
    let ds = Dataset::new(
        Matrix::from_rows(&rows).unwrap(),
        (0..200).map(|i| (i % 2) as f64).collect(),
        (0..15).map(|i| format!("f{i}")).collect(),
        Task::Classification { n_classes: 2 },
    )
    .unwrap();
    let mut cfg = bench_rifs(Scale::Quick);
    cfg.repeats = 3;
    out.push(time_op("rifs_fractions_200x15_3rep", WINDOW_SECS, || {
        black_box(rifs_fractions(&ds, &cfg, 0).unwrap());
    }));
}

fn bench_pipeline(out: &mut Vec<Measurement>) {
    let sc = taxi(&ScenarioConfig {
        n_rows: 120,
        n_decoys: 3,
        seed: 6,
    });
    let repo = arda_discovery::Repository::from_tables(sc.repository.clone());
    let config = arda_core::ArdaConfig {
        selector: arda_select::SelectorKind::Ranking(arda_select::RankingMethod::RandomForest),
        ..Default::default()
    };
    out.push(time_op(
        "pipeline_taxi_120rows_5tables_rf_selector",
        WINDOW_SECS,
        || {
            black_box(
                arda_core::Arda::new(config.clone())
                    .run(&sc.base, &repo, &sc.target)
                    .unwrap(),
            );
        },
    ));
}

/// Reading one mixed-dtype table (every dtype, nulls, and strings with
/// commas, quotes and newlines for the quote-aware scanner) from memory:
/// the CSV parser vs the binary `.arda` decoder.
fn bench_ingest(out: &mut Vec<Measurement>) {
    let rows = 20_000;
    let mut rng = StdRng::seed_from_u64(7);
    let strs = (0..rows)
        .map(|i| {
            (i % 23 != 0).then(|| match i % 4 {
                0 => format!("plain_{i}"),
                1 => format!("with,comma_{i}"),
                2 => format!("say \"hi\" {i}"),
                _ => format!("line\nbreak_{i}"),
            })
        })
        .collect();
    let table = Table::new(
        "ingest",
        vec![
            Column::from_i64("id", (0..rows as i64).collect()),
            Column::from_timestamps("ts", (0..rows as i64).map(|i| i * 3_600).collect()),
            Column::from_f64("x", (0..rows).map(|_| rng.gen_range(-1e3..1e3)).collect()),
            Column::from_f64_opt(
                "y",
                (0..rows)
                    .map(|i| (i % 17 != 0).then(|| rng.gen::<f64>()))
                    .collect(),
            ),
            Column::from_bool("flag", (0..rows).map(|i| i % 3 == 0).collect()),
            Column::new("s", ColumnData::Str(strs)),
        ],
    )
    .unwrap();
    let mut csv = Vec::new();
    write_csv(&table, &mut csv).unwrap();
    let csv = String::from_utf8(csv).unwrap();
    let mut arda = Vec::new();
    write_arda(&table, &mut arda).unwrap();
    out.push(time_op("csv_read_20k_rows_6cols", WINDOW_SECS, || {
        black_box(read_csv_str("t", &csv).unwrap());
    }));
    out.push(time_op("arda_read_20k_rows_6cols", WINDOW_SECS, || {
        black_box(read_arda_bytes("t", &arda).unwrap());
    }));
}

fn main() {
    let mut results = Vec::new();
    bench_joins(&mut results);
    bench_groupby(&mut results);
    bench_sketch(&mut results);
    bench_l21(&mut results);
    bench_forest(&mut results);
    bench_forest_taxi_round(&mut results);
    bench_rifs_fractions(&mut results);
    bench_pipeline(&mut results);
    bench_ingest(&mut results);
    print_measurements(
        &format!("micro benchmarks ({} threads)", arda_par::default_threads()),
        &results,
    );
}
