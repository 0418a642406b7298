//! Integration tests spanning the whole workspace: synthetic scenarios →
//! discovery → join plans → joins → imputation → featurization → selection
//! → final estimate.

use arda::prelude::*;

fn fast_rifs() -> SelectorKind {
    SelectorKind::Rifs(RifsConfig {
        repeats: 4,
        rf_trees: 10,
        ..Default::default()
    })
}

#[test]
fn taxi_pipeline_beats_base_and_keeps_rows() {
    let sc = arda::synth::taxi(&ScenarioConfig {
        n_rows: 150,
        n_decoys: 5,
        seed: 0,
    });
    let repo = Repository::from_tables(sc.repository.clone());
    let report = Arda::new(ArdaConfig {
        selector: fast_rifs(),
        ..Default::default()
    })
    .run(&sc.base, &repo, &sc.target)
    .unwrap();
    assert_eq!(
        report.augmented.n_rows(),
        sc.base.n_rows(),
        "LEFT semantics: no fan-out"
    );
    assert!(
        report.augmented_score > report.base_score,
        "augmentation must help: {} vs {}",
        report.augmented_score,
        report.base_score
    );
    // Every base column must survive.
    for col in sc.base.columns() {
        assert!(
            report.augmented.column(col.name()).is_ok(),
            "{} retained",
            col.name()
        );
    }
}

#[test]
fn pickup_soft_join_pipeline_runs() {
    let sc = arda::synth::pickup(&ScenarioConfig {
        n_rows: 120,
        n_decoys: 3,
        seed: 1,
    });
    let repo = Repository::from_tables(sc.repository.clone());
    let report = Arda::new(ArdaConfig {
        selector: fast_rifs(),
        ..Default::default()
    })
    .run(&sc.base, &repo, &sc.target)
    .unwrap();
    assert!(report.joins_executed >= 1);
    assert!(report.augmented_score.is_finite());
}

#[test]
fn poverty_co_predictors_need_budget_join() {
    let sc = arda::synth::poverty(&ScenarioConfig {
        n_rows: 200,
        n_decoys: 4,
        seed: 2,
    });
    let repo = Repository::from_tables(sc.repository.clone());
    let budget = Arda::new(ArdaConfig {
        selector: SelectorKind::Ranking(RankingMethod::RandomForest),
        join_plan: JoinPlan::Budget,
        seed: 2,
        ..Default::default()
    })
    .run(&sc.base, &repo, &sc.target)
    .unwrap();
    assert!(
        budget.augmented_score > budget.base_score,
        "budget join finds the education × employment interaction: {} vs {}",
        budget.augmented_score,
        budget.base_score
    );
}

#[test]
fn school_classification_improves_accuracy() {
    let sc = arda::synth::school(
        &ScenarioConfig {
            n_rows: 220,
            n_decoys: 5,
            seed: 3,
        },
        false,
    );
    let repo = Repository::from_tables(sc.repository.clone());
    let report = Arda::new(ArdaConfig {
        selector: fast_rifs(),
        seed: 3,
        ..Default::default()
    })
    .run(&sc.base, &repo, &sc.target)
    .unwrap();
    assert!(report.base_score > 0.4, "base sane: {}", report.base_score);
    assert!(
        report.augmented_score >= report.base_score,
        "augmentation helps classification: {} vs {}",
        report.augmented_score,
        report.base_score
    );
}

#[test]
fn all_join_plans_produce_valid_outputs() {
    let sc = arda::synth::taxi(&ScenarioConfig {
        n_rows: 100,
        n_decoys: 3,
        seed: 4,
    });
    let repo = Repository::from_tables(sc.repository.clone());
    for plan in [
        JoinPlan::Table,
        JoinPlan::Budget,
        JoinPlan::FullMaterialization,
    ] {
        let report = Arda::new(ArdaConfig {
            selector: SelectorKind::Ranking(RankingMethod::RandomForest),
            join_plan: plan,
            seed: 4,
            ..Default::default()
        })
        .run(&sc.base, &repo, &sc.target)
        .unwrap();
        assert_eq!(report.augmented.n_rows(), 100, "{plan:?} preserves rows");
        assert!(report.augmented_score.is_finite(), "{plan:?} scored");
    }

    // A kept column's name depends only on its source: the candidate join
    // and the foreign column. The table and budget plans batch pickup's
    // candidates differently, and RIFS keeps many of the same sources.
    let sc = arda::synth::pickup(&ScenarioConfig {
        n_rows: 150,
        n_decoys: 3,
        seed: 4,
    });
    let repo = Repository::from_tables(sc.repository.clone());
    let candidates = discover_joins(&sc.base, &repo, &DiscoveryConfig::default()).unwrap();
    let mut names_by_plan = Vec::new();
    for plan in [JoinPlan::Table, JoinPlan::Budget] {
        let report = Arda::new(ArdaConfig {
            selector: fast_rifs(),
            join_plan: plan,
            seed: 4,
            ..Default::default()
        })
        .run(&sc.base, &repo, &sc.target)
        .unwrap();
        let mut names = std::collections::HashMap::new();
        for s in &report.selected {
            // `<table>[<base_key>:<foreign_key>].<column>` for one of the
            // table's candidates and one of its columns.
            let source = candidates
                .iter()
                .filter(|c| c.table_name == s.table)
                .find_map(|c| {
                    let label = format!("{}[{}:{}].", c.table_name, c.base_key, c.foreign_key);
                    let column = s.column.strip_prefix(&label)?;
                    let table = repo.table(c.table_index).unwrap();
                    table.column(column).is_ok().then(|| {
                        (
                            c.table_index,
                            c.base_key.clone(),
                            c.foreign_key.clone(),
                            column.to_string(),
                        )
                    })
                });
            let source = source.unwrap_or_else(|| panic!("{plan:?}: {s:?} names no source"));
            names.insert(source, s.column.clone());
        }
        names_by_plan.push(names);
    }
    let (table, budget) = (&names_by_plan[0], &names_by_plan[1]);
    let shared: Vec<_> = table.keys().filter(|k| budget.contains_key(*k)).collect();
    assert!(!shared.is_empty(), "both plans keep some source column");
    for source in shared {
        assert_eq!(table[source], budget[source], "{source:?}");
    }
}

#[test]
fn coreset_methods_flow_through_pipeline() {
    let sc = arda::synth::school(
        &ScenarioConfig {
            n_rows: 300,
            n_decoys: 2,
            seed: 5,
        },
        false,
    );
    let repo = Repository::from_tables(sc.repository.clone());
    for method in [CoresetMethod::Uniform, CoresetMethod::Stratified] {
        let report = Arda::new(ArdaConfig {
            selector: SelectorKind::Ranking(RankingMethod::FTest),
            coreset: CoresetSpec {
                method,
                size: Some(150),
                seed: 5,
            },
            seed: 5,
            ..Default::default()
        })
        .run(&sc.base, &repo, &sc.target)
        .unwrap();
        assert_eq!(
            report.augmented.n_rows(),
            150,
            "{method:?} coreset size respected"
        );
    }
}

#[test]
fn discovery_feeds_pipeline_with_ranked_candidates() {
    let sc = arda::synth::taxi(&ScenarioConfig {
        n_rows: 80,
        n_decoys: 6,
        seed: 6,
    });
    let repo = Repository::from_tables(sc.repository.clone());
    let cands = discover_joins(&sc.base, &repo, &DiscoveryConfig::default()).unwrap();
    assert!(!cands.is_empty());
    // Relevant tables rank above the median candidate.
    let weather_pos = cands.iter().position(|c| c.table_name == "weather");
    assert!(weather_pos.is_some(), "weather discovered");
    for w in cands.windows(2) {
        assert!(w[0].score >= w[1].score, "ranked descending");
    }
}

#[test]
fn micro_noise_injection_then_rifs_filters_noise() {
    use arda::select::{rifs_fractions, RifsConfig};
    let micro = arda::synth::kraken(7);
    let noisy = arda::synth::append_noise_columns(&micro, 2, 7);
    let ds = featurize(
        &noisy.table,
        &noisy.target,
        true,
        &FeaturizeOptions::default(),
    )
    .unwrap();
    // Subsample rows for test speed.
    let rows: Vec<usize> = (0..300).collect();
    let ds = ds.select_rows(&rows).unwrap();
    let cfg = RifsConfig {
        repeats: 4,
        rf_trees: 10,
        ..Default::default()
    };
    let fr = rifs_fractions(&ds, &cfg, 7).unwrap();

    // Average fraction of informative sensors must beat average fraction of
    // injected noise columns.
    let informative_avg: f64 = ds
        .feature_names
        .iter()
        .zip(&fr)
        .filter(|(n, _)| noisy.informative.contains(n))
        .map(|(_, &f)| f)
        .sum::<f64>()
        / noisy.informative.len() as f64;
    let noise_avg: f64 = ds
        .feature_names
        .iter()
        .zip(&fr)
        .filter(|(n, _)| n.starts_with("synthnoise_"))
        .map(|(_, &f)| f)
        .sum::<f64>()
        / ds.feature_names
            .iter()
            .filter(|n| n.starts_with("synthnoise_"))
            .count() as f64;
    assert!(
        informative_avg > noise_avg + 0.2,
        "informative {informative_avg:.2} vs noise {noise_avg:.2}"
    );
}

#[test]
fn csv_round_trip_through_pipeline() {
    let sc = arda::synth::taxi(&ScenarioConfig {
        n_rows: 60,
        n_decoys: 1,
        seed: 8,
    });
    // Serialise the base table to CSV and back, then run the pipeline on it.
    let mut buf = Vec::new();
    arda::table::write_csv(&sc.base, &mut buf).unwrap();
    let text = String::from_utf8(buf).unwrap();
    let base2 = arda::table::read_csv_str("taxi", &text).unwrap();
    assert_eq!(base2.n_rows(), sc.base.n_rows());
    let repo = Repository::from_tables(sc.repository.clone());
    // CSV loses the Timestamp dtype (becomes Int) — join keys still work as
    // hard keys.
    let report = Arda::new(ArdaConfig {
        selector: SelectorKind::Ranking(RankingMethod::RandomForest),
        seed: 8,
        ..Default::default()
    })
    .run(&base2, &repo, &sc.target)
    .unwrap();
    assert!(report.augmented_score.is_finite());
}
