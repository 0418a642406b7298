//! # arda-bench
//!
//! Experiment harness regenerating every table and figure of the ARDA
//! paper's evaluation (§7). [`paper`] has one function per artifact; the
//! `paper` binary prints them by name (`paper all` prints every one):
//!
//! | name | paper artifact |
//! |---|---|
//! | `fig3` | Fig. 3 — achieved augmentation + time per system |
//! | `fig4` | Fig. 4 — score vs run time per selector |
//! | `fig5` | Fig. 5 — soft-join strategies × selectors |
//! | `fig6` | Fig. 6 — #features selected, original vs noise |
//! | `table1` | Table 1 — error/accuracy + time, full method grid |
//! | `table2` | Table 2 — stratified/sketch vs uniform |
//! | `table3` | Table 3 — sketch vs uniform (regression) |
//! | `table4` | Table 4 — Tuple-Ratio prefiltering |
//! | `table5` | Table 5 — table/budget/full-mat join plans |
//! | `table6` | Table 6 — micro-benchmark accuracy + time |
//! | `ablation` | RIFS design choices (ν, injection, η, k) |
//!
//! Scale: set `ARDA_BENCH_SCALE=full` for paper-sized repositories (School
//! (L) gets 350 tables); the default `quick` profile keeps every artifact
//! under a few minutes. Numbers are *shape*-comparable with the paper, not
//! absolute: the substrate is the in-repo simulator, not the authors'
//! testbed.

pub mod paper;
pub mod timing;

use arda_core::{join_kind_for, Arda, ArdaConfig};
use arda_discovery::{discover_joins, DiscoveryConfig, Repository};
use arda_join::impute::impute;
use arda_join::{execute_join, JoinSpec, SoftMethod};
use arda_ml::{featurize, metrics, score_for_task, Dataset, FeaturizeOptions, ModelKind};
use arda_select::{RifsConfig, SelectorKind};
use arda_synth::{pickup, poverty, school, taxi, Scenario, ScenarioConfig};
use arda_table::Table;

/// Benchmark scale.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// CI-friendly sizes (default).
    Quick,
    /// Paper-sized repositories.
    Full,
}

/// Read the scale from `ARDA_BENCH_SCALE` (`full` → [`Scale::Full`]).
pub fn bench_scale() -> Scale {
    match std::env::var("ARDA_BENCH_SCALE").as_deref() {
        Ok("full") => Scale::Full,
        _ => Scale::Quick,
    }
}

/// The five real-world scenarios of §7.1 at the requested scale, in the
/// paper's column order: pickup, poverty, school (L), school (S), taxi.
pub fn real_world_scenarios(scale: Scale) -> Vec<Scenario> {
    let rows = match scale {
        Scale::Quick => 260,
        Scale::Full => 500,
    };
    let decoys = |paper: usize| match scale {
        Scale::Quick => ((paper as f64 * 0.4) as usize).max(3),
        Scale::Full => paper,
    };
    vec![
        pickup(&ScenarioConfig {
            n_rows: rows,
            n_decoys: decoys(22),
            seed: 101,
        }),
        poverty(&ScenarioConfig {
            n_rows: rows,
            n_decoys: decoys(37),
            seed: 102,
        }),
        school(
            &ScenarioConfig {
                n_rows: rows,
                n_decoys: decoys(348),
                seed: 103,
            },
            true,
        ),
        school(
            &ScenarioConfig {
                n_rows: rows,
                n_decoys: decoys(14),
                seed: 104,
            },
            false,
        ),
        taxi(&ScenarioConfig {
            n_rows: rows,
            n_decoys: decoys(27),
            seed: 105,
        }),
    ]
}

/// RIFS configuration used by the harness (paper parameters, bounded solver
/// iterations for wall-clock sanity).
pub fn bench_rifs(scale: Scale) -> RifsConfig {
    match scale {
        Scale::Quick => RifsConfig {
            repeats: 5,
            rf_trees: 16,
            l21: arda_select::sparse_regression::L21Config {
                max_iter: 12,
                ..Default::default()
            },
            ..Default::default()
        },
        Scale::Full => RifsConfig {
            repeats: 10,
            rf_trees: 24,
            l21: arda_select::sparse_regression::L21Config {
                max_iter: 20,
                ..Default::default()
            },
            ..Default::default()
        },
    }
}

/// Run the ARDA pipeline on a scenario and return the report.
pub fn run_pipeline(scenario: &Scenario, config: ArdaConfig) -> arda_core::AugmentationReport {
    let repo = Repository::from_tables(scenario.repository.clone());
    Arda::new(config)
        .run(&scenario.base, &repo, &scenario.target)
        .expect("pipeline run")
}

/// Fully materialise a scenario: discover → join *every* candidate → impute
/// → featurize. Used by the coreset and micro experiments.
pub fn full_materialized_dataset(scenario: &Scenario, seed: u64) -> Dataset {
    let repo = Repository::from_tables(scenario.repository.clone());
    let candidates =
        discover_joins(&scenario.base, &repo, &DiscoveryConfig::default()).expect("discover");
    let mut joined = scenario.base.clone();
    for c in &candidates {
        let foreign = repo.table(c.table_index).expect("table");
        let spec = JoinSpec {
            base_keys: vec![c.base_key.clone()],
            foreign_keys: vec![c.foreign_key.clone()],
            kind: join_kind_for(&joined, c, SoftMethod::TwoWayNearest),
        };
        joined = execute_join(&joined, &foreign, &spec, seed).expect("join");
    }
    let (imputed, _) = impute(&joined, seed).expect("impute");
    featurized(&imputed, &scenario.target, false)
}

/// `table` as a [`Dataset`] predicting `target`, with the default
/// featurization options.
pub(crate) fn featurized(table: &Table, target: &str, force_classification: bool) -> Dataset {
    featurize(
        table,
        target,
        force_classification,
        &FeaturizeOptions::default(),
    )
    .expect("featurize")
}

/// Fit the paper's default estimator on a feature subset and return
/// `(higher-better score, error-metric)`: `(accuracy, 1−accuracy)` for
/// classification, `(R², MAE)` for regression.
pub fn evaluate_subset(data: &Dataset, selected: &[usize], seed: u64) -> (f64, f64) {
    let sub = data.select_features(selected).expect("subset");
    let (train, test) = data.holdout_split(seed);
    let kind = ModelKind::RandomForest {
        n_trees: 48,
        max_depth: 12,
    };
    let tr = sub.select_rows(&train).expect("rows");
    let te = sub.select_rows(&test).expect("rows");
    let model = kind.fit(&tr.x, &tr.y, sub.task, seed).expect("fit");
    let pred = model.predict(&te.x).expect("predict");
    let score = score_for_task(sub.task, &pred, &te.y);
    let err = if data.task.is_classification() {
        1.0 - metrics::accuracy(&pred, &te.y)
    } else {
        metrics::mae(&pred, &te.y)
    };
    (score, err)
}

/// The selector grid of Tables 1/6 and Fig. 4 applicable to `task`.
/// `include_slow` adds forward/backward/RFE (the order-of-magnitude-slower
/// wrappers).
pub fn selector_grid(
    task: arda_ml::Task,
    scale: Scale,
    include_slow: bool,
) -> Vec<(String, SelectorKind)> {
    let mut grid: Vec<(String, SelectorKind)> = vec![
        ("RIFS".into(), SelectorKind::Rifs(bench_rifs(scale))),
        ("all features".into(), SelectorKind::AllFeatures),
    ];
    for m in arda_select::RankingMethod::all_for(task) {
        grid.push((m.name().to_string(), SelectorKind::Ranking(m)));
    }
    if include_slow {
        grid.push(("forward selection".into(), SelectorKind::ForwardSelection));
        grid.push(("backward selection".into(), SelectorKind::BackwardSelection));
        grid.push(("RFE".into(), SelectorKind::Rfe));
    }
    grid
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_from_env_default_quick() {
        assert_eq!(bench_scale(), Scale::Quick);
    }

    #[test]
    fn scenarios_cover_all_five() {
        let s = real_world_scenarios(Scale::Quick);
        let names: Vec<&str> = s.iter().map(|x| x.name.as_str()).collect();
        assert_eq!(
            names,
            vec!["pickup", "poverty", "school_l", "school_s", "taxi"]
        );
    }

    #[test]
    fn full_materialization_produces_wide_dataset() {
        let sc = taxi(&ScenarioConfig {
            n_rows: 60,
            n_decoys: 3,
            seed: 0,
        });
        let base_ds = featurize(&sc.base, &sc.target, false, &FeaturizeOptions::default()).unwrap();
        let ds = full_materialized_dataset(&sc, 0);
        assert!(
            ds.n_features() > base_ds.n_features(),
            "join added features"
        );
        assert_eq!(ds.n_samples(), 60);
    }

    #[test]
    fn evaluate_subset_returns_score_and_error() {
        let sc = school(
            &ScenarioConfig {
                n_rows: 120,
                n_decoys: 1,
                seed: 1,
            },
            false,
        );
        let ds = full_materialized_dataset(&sc, 1);
        let all: Vec<usize> = (0..ds.n_features()).collect();
        let (score, err) = evaluate_subset(&ds, &all, 1);
        assert!((0.0..=1.0).contains(&score));
        assert!((score + err - 1.0).abs() < 1e-9, "cls: err = 1 - acc");
    }

    #[test]
    fn grid_respects_task() {
        let cls = selector_grid(
            arda_ml::Task::Classification { n_classes: 2 },
            Scale::Quick,
            true,
        );
        assert!(cls.iter().any(|(n, _)| n == "linear svc"));
        assert!(!cls.iter().any(|(n, _)| n == "lasso"));
        let reg = selector_grid(arda_ml::Task::Regression, Scale::Quick, false);
        assert!(reg.iter().any(|(n, _)| n == "lasso"));
        assert!(!reg.iter().any(|(n, _)| n == "RFE"));
    }
}
