//! The paper's evaluation (§7), one function per table or figure.
//!
//! Each function takes the scenarios or datasets it runs on plus the
//! [`Scale`], and returns one [`Artifact`] that [`print_table`] renders.
//! [`ARTIFACTS`] builds every artifact's inputs at a given scale; the
//! `paper` binary looks names up there. Tests call the functions directly
//! on smaller inputs.

use crate::{
    bench_rifs, evaluate_subset, featurized, full_materialized_dataset, real_world_scenarios,
    run_pipeline, selector_grid, Scale,
};
use arda_core::{ArdaConfig, JoinPlan};
use arda_coreset::{sketch_xy, stratified_indices, uniform_indices};
use arda_join::impute::impute;
use arda_join::{execute_join, JoinKind, JoinSpec, SoftMethod};
use arda_ml::model::best_holdout_score;
use arda_ml::{Dataset, ModelKind, Task};
use arda_select::{
    run_selector, InjectionDistribution, RankingMethod, RifsConfig, SelectionContext, SelectorKind,
};
use arda_synth::{
    append_noise_columns, digits, kraken, pickup, poverty, school, taxi, MicroDataset, Scenario,
    ScenarioConfig,
};
use std::time::Instant;

/// One regenerated table or figure, as a text table.
#[derive(Debug, Clone)]
pub struct Artifact {
    /// Caption printed above the table.
    pub title: &'static str,
    /// Column headers.
    pub headers: Vec<&'static str>,
    /// One row of formatted cells per line.
    pub rows: Vec<Vec<String>>,
}

/// Builds one artifact's inputs at a scale and runs it.
pub type Build = fn(Scale) -> Artifact;

/// Every artifact by name.
pub const ARTIFACTS: [(&str, Build); 11] = [
    ("fig3", |s| fig3(&real_world_scenarios(s), s)),
    ("fig4", |s| fig4(&real_world_scenarios(s), s)),
    ("fig5", |s| {
        let soft = |seed| ScenarioConfig {
            n_rows: 360,
            n_decoys: 0,
            seed,
        };
        fig5(
            &[
                (&pickup(&soft(61)), "weather_minute", "time"),
                (&taxi(&soft(62)), "weather", "date"),
            ],
            s,
        )
    }),
    ("fig6", |s| {
        let rows = match s {
            Scale::Quick => 400,
            Scale::Full => usize::MAX,
        };
        fig6(
            &[
                ("kraken", noisy_micro(&kraken(71), 10, 71, rows)),
                ("digits", noisy_micro(&digits(72), 10, 71, rows)),
            ],
            s,
        )
    }),
    ("table1", |s| table1(&real_world_scenarios(s), s)),
    ("table2", |s| {
        let school_s = school(
            &ScenarioConfig {
                n_rows: 400,
                n_decoys: 8,
                seed: 21,
            },
            false,
        );
        table2(
            &[
                ("school (S)", full_materialized_dataset(&school_s, 21)),
                ("digits", noisy_micro(&digits(22), 2, 22, usize::MAX)),
                ("kraken", noisy_micro(&kraken(23), 2, 23, usize::MAX)),
            ],
            s,
        )
    }),
    ("table3", |s| {
        let cfg = |seed| ScenarioConfig {
            n_rows: 380,
            n_decoys: 8,
            seed,
        };
        let scenarios = [taxi(&cfg(41)), pickup(&cfg(42)), poverty(&cfg(43))];
        let datasets: Vec<(&str, Dataset)> = scenarios
            .iter()
            .map(|sc| (sc.name.as_str(), full_materialized_dataset(sc, 41)))
            .collect();
        table3(&datasets, s)
    }),
    ("table4", |s| table4(&real_world_scenarios(s), s)),
    ("table5", |s| {
        let cfg = |seed| ScenarioConfig {
            n_rows: 300,
            n_decoys: 8,
            seed,
        };
        let scenarios = [
            taxi(&cfg(91)),
            pickup(&cfg(92)),
            poverty(&cfg(93)),
            school(&cfg(94), false),
        ];
        table5(&scenarios, s)
    }),
    ("table6", |s| {
        let (factor, rows) = match s {
            Scale::Quick => (4, 500),
            Scale::Full => (10, usize::MAX),
        };
        table6(
            &[
                ("kraken", noisy_micro(&kraken(95), factor, 95, rows)),
                ("digits", noisy_micro(&digits(96), factor, 95, rows)),
            ],
            s,
        )
    }),
    ("ablation", |s| {
        rifs_ablation(&noisy_micro(&kraken(99), 6, 99, 400), s)
    }),
];

/// Render an artifact as an aligned text table on stdout.
pub fn print_table(artifact: &Artifact) {
    println!("\n== {} ==", artifact.title);
    let mut widths: Vec<usize> = artifact.headers.iter().map(|h| h.len()).collect();
    for row in &artifact.rows {
        for (w, cell) in widths.iter_mut().zip(row) {
            *w = (*w).max(cell.len());
        }
    }
    let line = |cells: Vec<&str>| {
        let padded: Vec<String> = cells
            .iter()
            .zip(&widths)
            .map(|(c, w)| format!("{c:>w$}", w = w))
            .collect();
        println!("{}", padded.join("  "));
    };
    line(artifact.headers.clone());
    for row in &artifact.rows {
        line(row.iter().map(String::as_str).collect());
    }
}

/// **Figure 3**: achieved augmentation (% improvement over the base-table
/// score with the default estimator) and wall time per system.
///
/// Systems: ARDA (RIFS), all tables (full materialization, no selection),
/// the TR rule as a stand-alone filter, AutoML-lite on all features and on
/// the base table, and the base table itself (0% reference).
pub fn fig3(scenarios: &[Scenario], scale: Scale) -> Artifact {
    let mut rows = Vec::new();
    for scenario in scenarios {
        let arda = run_pipeline(
            scenario,
            ArdaConfig {
                selector: SelectorKind::Rifs(bench_rifs(scale)),
                ..Default::default()
            },
        );
        let all = run_pipeline(
            scenario,
            ArdaConfig {
                selector: SelectorKind::AllFeatures,
                join_plan: JoinPlan::FullMaterialization,
                ..Default::default()
            },
        );
        // τ = 20 is Kumar et al.'s default.
        let tr = run_pipeline(
            scenario,
            ArdaConfig {
                selector: SelectorKind::AllFeatures,
                join_plan: JoinPlan::FullMaterialization,
                tr_threshold: Some(20.0),
                ..Default::default()
            },
        );
        let t0 = Instant::now();
        let base_ds = featurized(&scenario.base, &scenario.target, false);
        let automl_base = automl(&base_ds, 7);
        let automl_base_secs = t0.elapsed().as_secs_f64();
        let t1 = Instant::now();
        let automl_all = automl(&full_materialized_dataset(scenario, 7), 7);
        let automl_all_secs = t1.elapsed().as_secs_f64();

        for (system, score, secs) in [
            ("ARDA (RIFS)", arda.augmented_score, arda.seconds),
            ("all tables", all.augmented_score, all.seconds),
            ("TR rule", tr.augmented_score, tr.seconds),
            ("AutoML (all)", automl_all, automl_all_secs),
            ("AutoML (base)", automl_base, automl_base_secs),
            ("base table", arda.base_score, 0.0),
        ] {
            rows.push(vec![
                scenario.name.clone(),
                system.to_string(),
                format!("{score:.3}"),
                format!("{:+.1}", pct_change(score, arda.base_score)),
                format!("{secs:.1}"),
            ]);
        }
    }
    Artifact {
        title: "Figure 3 — achieved augmentation (% improvement over base) and time",
        headers: vec!["dataset", "system", "score", "improv %", "time (s)"],
        rows,
    }
}

/// **Figure 4**: %-improvement over the base-table score against the run
/// time of the whole `Arda::run`, one point per (dataset, selector). The
/// paper's reading: RIFS sits on the accuracy frontier; forward selection
/// is competitive but an order of magnitude slower; pure filters are fast
/// but weaker.
pub fn fig4(scenarios: &[Scenario], scale: Scale) -> Artifact {
    let mut rows = Vec::new();
    for scenario in scenarios {
        let task = featurized(&scenario.base, &scenario.target, false).task;
        // On the 2-core quick profile the O(d)-refit wrappers only run on
        // one dataset (taxi); full scale includes them everywhere. The
        // paper's Fig. 4 point — forward selection competitive but an order
        // of magnitude slower — is visible either way.
        let slow_ok = scale == Scale::Full || scenario.name == "taxi";
        for (name, selector) in selector_grid(task, scale, slow_ok) {
            let report = run_pipeline(
                scenario,
                ArdaConfig {
                    selector,
                    seed: 13,
                    ..Default::default()
                },
            );
            rows.push(vec![
                scenario.name.clone(),
                name,
                format!("{:.2}", report.seconds),
                format!("{:+.1}", report.improvement_pct()),
            ]);
        }
    }
    Artifact {
        title: "Figure 4 — % improvement over base vs run time (x = time, y = %)",
        headers: vec!["dataset", "selector", "run time (s)", "improv %"],
        rows,
    }
}

/// **Figure 5**: soft-join strategies for time-series keys across feature
/// selectors. Each input is a scenario, its signal table and the time key
/// both sides share. Strategies: plain hard join, nearest neighbour,
/// two-way nearest neighbour, and time-resampled hard join. Expected
/// shape: on Pickup (mid-hour keys, smooth signal) the two-way NN
/// interpolation wins; on Taxi (day-aligned keys) the time-resampled hard
/// join wins.
pub fn fig5(inputs: &[(&Scenario, &str, &str)], scale: Scale) -> Artifact {
    let strategies = [
        ("hard", JoinKind::Hard),
        ("nearest", JoinKind::SoftTimeResampled(SoftMethod::Nearest)),
        (
            "2-way nearest",
            JoinKind::SoftTimeResampled(SoftMethod::TwoWayNearest),
        ),
        ("time-resampled", JoinKind::HardTimeResampled),
    ];
    let mut rows = Vec::new();
    for &(scenario, table, key) in inputs {
        let signal = scenario.table(table).expect("signal table");
        for (strategy, kind) in &strategies {
            let spec = JoinSpec {
                base_keys: vec![key.to_string()],
                foreign_keys: vec![key.to_string()],
                kind: *kind,
            };
            let block = execute_join(&scenario.base, signal, &spec, 61).expect("join");
            let joined = scenario.base.hstack(&block).expect("distinct names");
            let (imputed, _) = impute(&joined, 61).expect("impute");
            let ds = featurized(&imputed, &scenario.target, false);
            for (sel_name, selector) in selector_grid(ds.task, scale, false) {
                let (_, err) = select_and_score(&ds, &ds, &selector, 61);
                rows.push(vec![
                    scenario.name.clone(),
                    strategy.to_string(),
                    sel_name,
                    format!("{err:.3}"),
                ]);
            }
        }
    }
    Artifact {
        title: "Figure 5 — time-series soft-join strategies (error = MAE; lower is better)",
        headers: vec!["dataset", "strategy", "selector", "error"],
        rows,
    }
}

/// **Figure 6**: noise-filtering selectivity on noisy micro benchmarks —
/// the number of features each selector keeps and how many of them are
/// original (planted) vs synthetic noise. The planted ground truth makes
/// the split exact.
pub fn fig6(datasets: &[(&str, Dataset)], scale: Scale) -> Artifact {
    let mut rows = Vec::new();
    for (name, ds) in datasets {
        let n_noise = ds.feature_names.iter().filter(|f| is_noise(f)).count();
        let n_original = ds.n_features() - n_noise;
        for (sel_name, selector) in selector_grid(ds.task, scale, false) {
            let selected = select(ds, &selector, 71);
            let kept_noise = selected
                .iter()
                .filter(|&&f| is_noise(&ds.feature_names[f]))
                .count();
            let kept_original = selected.len() - kept_noise;
            let frac = if selected.is_empty() {
                0.0
            } else {
                kept_original as f64 / selected.len() as f64
            };
            rows.push(vec![
                name.to_string(),
                sel_name,
                format!("{}", selected.len()),
                format!("{kept_original}/{n_original}"),
                format!("{kept_noise}/{n_noise}"),
                format!("{frac:.2}"),
            ]);
        }
    }
    Artifact {
        title: "Figure 6 — features selected: original vs planted synthetic noise",
        headers: vec![
            "dataset",
            "method",
            "#selected",
            "original kept",
            "noise kept",
            "orig frac",
        ],
        rows,
    }
}

/// **Table 1**: error (MAE for regression, 1 − accuracy for
/// classification) and score of the default estimator on the augmented
/// output, plus run time, for every feature-selection method. `n/a` cells
/// (lasso on classification, linear svc/logistic on regression) are
/// skipped as in the paper.
pub fn table1(scenarios: &[Scenario], scale: Scale) -> Artifact {
    let mut rows = Vec::new();
    for scenario in scenarios {
        let base_ds = featurized(&scenario.base, &scenario.target, false);
        let (base_score, base_err) = evaluate_all(&base_ds, 11);
        rows.push(vec![
            scenario.name.clone(),
            "baseline".into(),
            format!("{base_err:.4}"),
            format!("{base_score:.3}"),
            "0.0".into(),
        ]);
        // Skip the O(d)-refit wrappers on School (L) at quick scale (the
        // paper's own Table 1 reports 17+ hours for backward selection
        // there).
        let slow_ok = scale == Scale::Full || scenario.name != "school_l";
        for (name, selector) in selector_grid(base_ds.task, scale, slow_ok) {
            let report = run_pipeline(
                scenario,
                ArdaConfig {
                    selector,
                    seed: 11,
                    ..Default::default()
                },
            );
            let aug_ds = featurized(&report.augmented, &scenario.target, false);
            let (score, err) = evaluate_all(&aug_ds, 11);
            rows.push(vec![
                scenario.name.clone(),
                name,
                format!("{err:.4}"),
                format!("{score:.3}"),
                format!("{:.1}", report.seconds),
            ]);
        }
    }
    Artifact {
        title: "Table 1 — real-world datasets, all feature selectors (error = MAE or 1-acc)",
        headers: vec!["dataset", "method", "error", "score", "time (s)"],
        rows,
    }
}

/// **Table 2**: coreset construction for classification — accuracy change
/// of *stratified sampling* and *sketching* (per-label OSNAP subspace
/// embedding) over uniform sampling, per feature selector.
pub fn table2(datasets: &[(&str, Dataset)], scale: Scale) -> Artifact {
    let coreset_rows = match scale {
        Scale::Quick => 240,
        Scale::Full => 500,
    };
    let mut rows = Vec::new();
    for (name, ds) in datasets {
        for (sel_name, selector) in selector_grid(ds.task, scale, false) {
            let (uni_score, sk_score) = uniform_and_sketch_scores(ds, &selector, coreset_rows, 31);
            let strat = ds
                .select_rows(&stratified_indices(&ds.y, coreset_rows, 31))
                .expect("stratified rows");
            let (strat_score, _) = select_and_score(&strat, &strat, &selector, 31);
            rows.push(vec![
                name.to_string(),
                sel_name,
                format!("{:+.2}%", (strat_score - uni_score) * 100.0),
                format!("{:+.2}%", (sk_score - uni_score) * 100.0),
            ]);
        }
    }
    Artifact {
        title: "Table 2 — coreset strategies for classification (accuracy change vs uniform)",
        headers: vec!["dataset", "method", "stratified", "sketch"],
        rows,
    }
}

/// **Table 3**: sketching (joint OSNAP over `[X | y]`) vs uniform sampling
/// for regression, per selector: change in the final score relative to
/// the uniform coreset.
pub fn table3(datasets: &[(&str, Dataset)], scale: Scale) -> Artifact {
    let coreset_rows = match scale {
        Scale::Quick => 200,
        Scale::Full => 400,
    };
    let mut rows = Vec::new();
    for (name, ds) in datasets {
        for (sel_name, selector) in selector_grid(ds.task, scale, false) {
            let (uni_score, sk_score) = uniform_and_sketch_scores(ds, &selector, coreset_rows, 51);
            rows.push(vec![
                name.to_string(),
                sel_name,
                format!("{uni_score:.3}"),
                format!("{:+.2}%", (sk_score - uni_score) * 100.0),
            ]);
        }
    }
    Artifact {
        title: "Table 3 — sketching vs uniform coresets, regression (% change of score)",
        headers: vec!["dataset", "method", "uniform score", "sketch Δ"],
        rows,
    }
}

/// **Table 4**: the Tuple-Ratio rule as a pre-filter before RIFS: score
/// change, speed-up and number of candidates removed, at a per-dataset
/// threshold τ (the paper tunes τ per dataset and reports it).
pub fn table4(scenarios: &[Scenario], scale: Scale) -> Artifact {
    // The paper's tuned values are 24, 17, 15, 15, 17 for
    // taxi/pickup/poverty/school-S/school-L. These scenarios share key
    // domains ≈ base rows, so smaller τ values bite; they are tuned per
    // dataset in the same spirit.
    let taus = [
        ("pickup", 3.0),
        ("poverty", 2.0),
        ("school_l", 2.0),
        ("school_s", 2.0),
        ("taxi", 4.0),
    ];
    let mut rows = Vec::new();
    for scenario in scenarios {
        let tau = taus
            .iter()
            .find(|(n, _)| *n == scenario.name)
            .map_or(3.0, |(_, t)| *t);
        let run = |tr_threshold| {
            run_pipeline(
                scenario,
                ArdaConfig {
                    selector: SelectorKind::Rifs(bench_rifs(scale)),
                    tr_threshold,
                    seed: 81,
                    ..Default::default()
                },
            )
        };
        let plain = run(None);
        let filtered = run(Some(tau));
        let change = pct_change(filtered.augmented_score, plain.augmented_score);
        rows.push(vec![
            scenario.name.clone(),
            format!("{change:+.2}%"),
            format!("{:.2}x", plain.seconds / filtered.seconds.max(1e-9)),
            format!("{}", filtered.tr_eliminated),
            format!("{tau}"),
        ]);
    }
    Artifact {
        title: "Table 4 — Tuple-Ratio prefiltering before RIFS",
        headers: vec![
            "dataset",
            "score change",
            "speed-up",
            "candidates removed",
            "tau",
        ],
        rows,
    }
}

/// **Table 5**: table-grouping strategies — final-score change of
/// *table-join* (one table at a time) and *full materialization* relative
/// to the default *budget-join*, for four selectors. Expected shape:
/// table-join loses co-predictors (worst on Poverty); full materialization
/// is occasionally competitive but never beats budget by a significant
/// margin under RIFS.
pub fn table5(scenarios: &[Scenario], scale: Scale) -> Artifact {
    let selectors = [
        ("RIFS", SelectorKind::Rifs(bench_rifs(scale))),
        ("forward selection", SelectorKind::ForwardSelection),
        (
            "random forest",
            SelectorKind::Ranking(RankingMethod::RandomForest),
        ),
        (
            "sparse regression",
            SelectorKind::Ranking(RankingMethod::SparseRegression),
        ),
    ];
    let mut rows = Vec::new();
    for scenario in scenarios {
        for (sel_name, selector) in &selectors {
            let run = |join_plan| {
                run_pipeline(
                    scenario,
                    ArdaConfig {
                        selector: selector.clone(),
                        join_plan,
                        seed: 91,
                        ..Default::default()
                    },
                )
                .augmented_score
            };
            let budget = run(JoinPlan::Budget);
            let table = run(JoinPlan::Table);
            let fullmat = run(JoinPlan::FullMaterialization);
            rows.push(vec![
                scenario.name.clone(),
                sel_name.to_string(),
                format!("{:+.2}%", pct_change(table, budget)),
                format!("{:+.2}%", pct_change(fullmat, budget)),
            ]);
        }
    }
    Artifact {
        title: "Table 5 — join-plan comparison (score change vs budget-join)",
        headers: vec!["dataset", "method", "table-join", "full-mat"],
        rows,
    }
}

/// **Table 6**: micro-benchmark results — accuracy and time of every
/// selector on noisy micro benchmarks, plus the no-selection baselines
/// and the AutoML-lite comparator.
pub fn table6(datasets: &[(&str, Dataset)], scale: Scale) -> Artifact {
    let mut rows = Vec::new();
    for (name, ds) in datasets {
        let mut push = |method: &str, acc: f64, start: Instant| {
            rows.push(vec![
                name.to_string(),
                method.to_string(),
                format!("{:.2}%", acc * 100.0),
                format!("{:.1}", start.elapsed().as_secs_f64()),
            ]);
        };
        // Baseline: an untuned small estimator on everything.
        let t = Instant::now();
        let tree = [ModelKind::DecisionTree { max_depth: 8 }];
        let (acc, _) = best_holdout_score(ds, &tree, 95).expect("baseline");
        push("baseline", acc, t);

        let t = Instant::now();
        push("all features", evaluate_all(ds, 95).0, t);

        let t = Instant::now();
        push("AutoML (all)", automl(ds, 95), t);

        for (sel_name, selector) in selector_grid(ds.task, scale, true) {
            if matches!(selector, SelectorKind::AllFeatures) {
                continue; // already reported
            }
            let t = Instant::now();
            push(&sel_name, select_and_score(ds, ds, &selector, 95).0, t);
        }
    }
    Artifact {
        title: "Table 6 — micro benchmarks (accuracy, time) with injected noise",
        headers: vec!["dataset", "method", "accuracy", "time (s)"],
        rows,
    }
}

/// **RIFS ablation**: the design choices of RIFS — ensemble weight ν
/// (RF-only / SR-only / mixed), injection distribution (moment-matched vs
/// standard), injection fraction η and repeat count k — on one noisy
/// micro benchmark.
pub fn rifs_ablation(ds: &Dataset, scale: Scale) -> Artifact {
    type Vary = fn(&mut RifsConfig);
    let variants: [(&str, Vary); 11] = [
        ("nu=0.5 (RF+SR, default)", |c| c.nu = 0.5),
        ("nu=1.0 (RF only)", |c| c.nu = 1.0),
        ("nu=0.0 (SR only)", |c| c.nu = 0.0),
        ("moment-matched (default)", |c| {
            c.distribution = InjectionDistribution::MomentMatched
        }),
        ("standard normal", |c| {
            c.distribution = InjectionDistribution::StandardNormal
        }),
        ("uniform(0,1)", |c| {
            c.distribution = InjectionDistribution::Uniform
        }),
        ("eta=0.1", |c| c.eta = 0.1),
        ("eta=0.2 (default)", |c| c.eta = 0.2),
        ("eta=0.5", |c| c.eta = 0.5),
        ("k=3", |c| c.repeats = 3),
        ("k=10 (paper)", |c| c.repeats = 10),
    ];
    let rows = variants
        .into_iter()
        .map(|(label, vary)| {
            let mut cfg = bench_rifs(scale);
            vary(&mut cfg);
            let t = Instant::now();
            let selected = select(ds, &SelectorKind::Rifs(cfg), 99);
            let (acc, _) = evaluate_subset(ds, &selected, 99);
            let kept_noise = selected
                .iter()
                .filter(|&&f| is_noise(&ds.feature_names[f]))
                .count();
            vec![
                label.to_string(),
                format!("{:.2}%", acc * 100.0),
                format!("{}", selected.len()),
                format!("{kept_noise}"),
                format!("{:.1}", t.elapsed().as_secs_f64()),
            ]
        })
        .collect();
    Artifact {
        title: "RIFS ablation — noisy Kraken (6x noise)",
        headers: vec!["variant", "accuracy", "#selected", "noise kept", "time (s)"],
        rows,
    }
}

/// A micro benchmark with `factor`× appended noise columns, featurized as
/// classification and cut to its first `max_rows` rows.
fn noisy_micro(micro: &MicroDataset, factor: usize, seed: u64, max_rows: usize) -> Dataset {
    let noisy = append_noise_columns(micro, factor, seed);
    let ds = featurized(&noisy.table, &noisy.target, true);
    if ds.n_samples() <= max_rows {
        return ds;
    }
    let idx: Vec<usize> = (0..max_rows).collect();
    ds.select_rows(&idx).expect("row prefix")
}

/// Whether a feature is one of [`append_noise_columns`]' noise columns.
fn is_noise(feature: &str) -> bool {
    feature.starts_with("synthnoise_")
}

/// Scores of `selector` on a uniform coreset of `rows` rows and on a
/// sketched one (per-label OSNAP for classification, joint OSNAP over
/// `[X | y]` for regression). Selection runs on each coreset, but both
/// subsets are scored on the real rows of the uniform coreset: sketched
/// rows are linear combinations of real rows, not real rows.
fn uniform_and_sketch_scores(
    ds: &Dataset,
    selector: &SelectorKind,
    rows: usize,
    seed: u64,
) -> (f64, f64) {
    let uni = ds
        .select_rows(&uniform_indices(ds.n_samples(), rows, seed))
        .expect("uniform rows");
    let (x, y) = sketch_xy(&ds.x, &ds.y, ds.task.is_classification(), rows, seed);
    let sk = Dataset::new(x, y, ds.feature_names.clone(), ds.task).expect("sketch shape");
    (
        select_and_score(&uni, &uni, selector, seed).0,
        select_and_score(&sk, &uni, selector, seed).0,
    )
}

/// The features `selector` keeps on `ds` under the standard selection
/// context.
fn select(ds: &Dataset, selector: &SelectorKind, seed: u64) -> Vec<usize> {
    let ctx = SelectionContext::standard(ds, seed);
    run_selector(ds, selector, &ctx).expect("selector").selected
}

/// Select features on `select_on`, then score them on `score_on` with
/// [`evaluate_subset`].
fn select_and_score(
    select_on: &Dataset,
    score_on: &Dataset,
    selector: &SelectorKind,
    seed: u64,
) -> (f64, f64) {
    evaluate_subset(score_on, &select(select_on, selector, seed), seed)
}

/// [`evaluate_subset`] on every feature.
fn evaluate_all(ds: &Dataset, seed: u64) -> (f64, f64) {
    let all: Vec<usize> = (0..ds.n_features()).collect();
    evaluate_subset(ds, &all, seed)
}

/// AutoML-lite, standing in for the AutoML systems the paper compares
/// against (Azure AutoML and Alpine Meadow in Fig. 3, Tables 1 and 6): the
/// best holdout score over [`automl_zoo`]. Every configuration is always
/// fitted, so the score does not depend on the machine.
fn automl(ds: &Dataset, seed: u64) -> f64 {
    best_holdout_score(ds, &automl_zoo(ds.task), seed)
        .expect("automl")
        .0
}

/// AutoML-lite's model and hyper-parameter grid for `task`: trees and
/// forests of several sizes, then the task's linear models and kernels.
fn automl_zoo(task: Task) -> Vec<ModelKind> {
    let mut zoo = vec![
        ModelKind::DecisionTree { max_depth: 6 },
        ModelKind::DecisionTree { max_depth: 12 },
        ModelKind::RandomForest {
            n_trees: 16,
            max_depth: 8,
        },
        ModelKind::RandomForest {
            n_trees: 64,
            max_depth: 12,
        },
        ModelKind::RandomForest {
            n_trees: 128,
            max_depth: 16,
        },
    ];
    if task.is_classification() {
        zoo.extend([
            ModelKind::Logistic { lambda: 1e-3 },
            ModelKind::Logistic { lambda: 1e-1 },
            ModelKind::LinearSvm { lambda: 1e-2 },
            ModelKind::RbfSvm { c: 1.0 },
            ModelKind::RbfSvm { c: 10.0 },
        ]);
    } else {
        zoo.extend([
            ModelKind::Ridge { lambda: 1e-3 },
            ModelKind::Ridge { lambda: 1.0 },
            ModelKind::Lasso { alpha: 0.01 },
            ModelKind::Lasso { alpha: 0.1 },
        ]);
    }
    zoo
}

/// `score`'s change relative to `reference`, in percent (0 when the
/// reference is 0).
fn pct_change(score: f64, reference: f64) -> f64 {
    if reference.abs() < 1e-12 {
        0.0
    } else {
        (score - reference) / reference.abs() * 100.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use arda_core::Arda;
    use arda_discovery::Repository;
    use arda_linalg::Matrix;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn cell(row: &[String], col: usize) -> f64 {
        row[col].parse().expect("numeric cell")
    }

    /// Fig. 5: on Pickup's mid-hour soft key, interpolating between the two
    /// nearest weather readings beats the hard join for every selector.
    #[test]
    fn fig5_two_way_nearest_beats_hard_join_on_pickup() {
        let p = pickup(&ScenarioConfig {
            n_rows: 120,
            n_decoys: 0,
            seed: 61,
        });
        let fig = fig5(&[(&p, "weather_minute", "time")], Scale::Quick);
        let error = |strategy: &str, selector: &str| {
            let row = fig
                .rows
                .iter()
                .find(|r| r[1] == strategy && r[2] == selector)
                .expect("grid cell");
            cell(row, 3)
        };
        let task = arda_ml::Task::Regression;
        for (selector, _) in selector_grid(task, Scale::Quick, false) {
            let (two_way, hard) = (error("2-way nearest", &selector), error("hard", &selector));
            assert!(two_way < hard, "{selector}: 2-way {two_way} vs hard {hard}");
        }
    }

    /// Table 4: a tight Tuple-Ratio threshold removes candidates before RIFS.
    #[test]
    fn table4_tight_tau_eliminates_candidates_on_taxi() {
        let t = taxi(&ScenarioConfig {
            n_rows: 120,
            n_decoys: 3,
            seed: 105,
        });
        let table = table4(&[t], Scale::Quick);
        assert_eq!(table.rows[0][4], "4", "taxi runs at τ = 4");
        let removed = cell(&table.rows[0], 3);
        assert!(removed >= 1.0, "TR removed {removed} candidates");
    }

    #[test]
    fn automl_zoo_configurations_support_their_task() {
        for task in [Task::Regression, Task::Classification { n_classes: 3 }] {
            for kind in automl_zoo(task) {
                assert!(kind.supports(task), "{kind:?} on {task:?}");
            }
        }
    }

    #[test]
    fn automl_finds_good_model_for_separable_data() {
        let mut rng = StdRng::seed_from_u64(0);
        let rows: Vec<Vec<f64>> = (0..80)
            .map(|i| vec![(i % 2) as f64 * 3.0 + rng.gen_range(-0.4..0.4)])
            .collect();
        let y = (0..80).map(|i| (i % 2) as f64).collect();
        let task = Task::Classification { n_classes: 2 };
        let d = Dataset::new(Matrix::from_rows(&rows).unwrap(), y, vec!["f".into()], task).unwrap();
        let score = automl(&d, 0);
        assert!(score > 0.9, "score {score}");
    }

    #[test]
    fn automl_regression_zoo_used_for_regression() {
        let rows: Vec<Vec<f64>> = (0..60).map(|i| vec![i as f64]).collect();
        let y: Vec<f64> = (0..60).map(|i| 2.0 * i as f64).collect();
        let x = Matrix::from_rows(&rows).unwrap();
        let d = Dataset::new(x, y, vec!["f".into()], Task::Regression).unwrap();
        let score = automl(&d, 0);
        assert!(score > 0.9, "r2 {score}");
    }

    #[test]
    fn automl_comparator_runs_on_augmented_output() {
        let sc = school(
            &ScenarioConfig {
                n_rows: 150,
                n_decoys: 2,
                seed: 9,
            },
            false,
        );
        let repo = Repository::from_tables(sc.repository.clone());
        let report = Arda::new(ArdaConfig {
            selector: SelectorKind::Ranking(RankingMethod::MutualInfo),
            seed: 9,
            ..Default::default()
        })
        .run(&sc.base, &repo, &sc.target)
        .unwrap();
        let ds = featurized(&report.augmented, &sc.target, false);
        let score = automl(&ds, 9);
        assert!(score > 0.5, "automl score {score}");
    }
}
