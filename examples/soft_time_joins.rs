//! Soft time-key joins (§4, Fig. 5 in miniature): the Pickup scenario's
//! hourly base table against 5-minute weather. Compares raw hard join,
//! nearest-neighbour, two-way nearest-neighbour interpolation and
//! time-resampled hard join, reporting the regression error each produces.
//!
//! Run with: `cargo run --release --example soft_time_joins`

use arda::ml::metrics::{r2, rmse};
use arda::ml::model::best_holdout_score;
use arda::prelude::*;

const FOREST: ModelKind = ModelKind::RandomForest {
    n_trees: 48,
    max_depth: 12,
};

/// R² and, for the error view of Fig. 5, RMSE of one forest fit on the
/// holdout split.
fn evaluate(joined: &Table, target: &str, seed: u64) -> (f64, f64) {
    let (imputed, _) = arda::join::impute::impute(joined, seed).unwrap();
    let ds = featurize(&imputed, target, false, &FeaturizeOptions::default()).unwrap();
    let (train, test) = ds.holdout_split(seed);
    let tr = ds.select_rows(&train).unwrap();
    let te = ds.select_rows(&test).unwrap();
    let model = FOREST.fit(&tr.x, &tr.y, ds.task, seed).unwrap();
    let pred = model.predict(&te.x).unwrap();
    (r2(&pred, &te.y), rmse(&pred, &te.y))
}

fn main() {
    let scenario = arda::synth::pickup(&ScenarioConfig {
        n_rows: 400,
        n_decoys: 0,
        seed: 5,
    });
    let weather = scenario.table("weather_minute").unwrap().clone();
    println!(
        "pickup scenario: hourly base ({} rows) vs 5-minute weather ({} rows)\n",
        scenario.base.n_rows(),
        weather.n_rows(),
    );

    let strategies: Vec<(&str, JoinKind)> = vec![
        ("hard join (raw keys)", JoinKind::Hard),
        ("nearest neighbour", JoinKind::Soft(SoftMethod::Nearest)),
        (
            "2-way nearest (interp.)",
            JoinKind::Soft(SoftMethod::TwoWayNearest),
        ),
        ("time-resampled hard", JoinKind::HardTimeResampled),
        (
            "time-resampled 2-way NN",
            JoinKind::SoftTimeResampled(SoftMethod::TwoWayNearest),
        ),
    ];

    println!(
        "{:<26} {:>10} {:>10} {:>14}",
        "strategy", "R²", "RMSE", "null cells"
    );
    for (name, kind) in strategies {
        let spec = JoinSpec {
            base_keys: vec!["time".into()],
            foreign_keys: vec!["time".into()],
            kind,
        };
        let block = execute_join(&scenario.base, &weather, &spec, 5).unwrap();
        let joined = scenario.base.hstack(&block).unwrap();
        let nulls = joined.null_count();
        let (r2, err) = evaluate(&joined, &scenario.target, 5);
        println!("{name:<26} {r2:>10.3} {err:>10.3} {nulls:>14}");
    }

    println!("\nBaseline (no weather at all): R² {:.3}", {
        let ds = featurize(
            &scenario.base,
            &scenario.target,
            false,
            &FeaturizeOptions::default(),
        )
        .unwrap();
        best_holdout_score(&ds, &[FOREST], 5).unwrap().0
    });
}
