//! `Arda::run` pinned bit for bit on test-sized §7.1 scenarios.
//!
//! Each scenario runs twice: with the default budget plan and RIFS, and
//! with full materialization and no selection, which pre-aggregates and
//! resamples every candidate (minute-level weather included). A change
//! that moves any pinned value changes the pipeline's output and must
//! re-pin it in its own diff.

use arda::prelude::*;
use arda::synth::{pickup, poverty, school, taxi};

/// One line per run, in the order the test runs them: scenario, plan,
/// FNV-1a of `write_csv(report.augmented)`, base and augmented score
/// bits, joins executed, and the kept foreign columns as `table.column`.
const PINNED: &str = "\
taxi budget 95809ebf54bb5eca 3fe4ee561f673ccf 3fec85d18f4a831e 10 events.event_volume,weather.temp,weather.precip
taxi full 2f7c6f0fd4442f8e 3fe4ee561f673ccf 3fea813ea0bb1a1e 10 events.event_volume,events.permits,weather.temp,weather.precip,weather.wind,taxi_decoy_2.noise_c0,taxi_decoy_2.noise_i1,taxi_decoy_2.noise_f2,taxi_decoy_2.noise_i3,taxi_decoy_0.noise_f0,taxi_decoy_0.noise_f1,taxi_decoy_1.taxi_decoy_1.noise_c0,taxi_decoy_1.noise_c1,taxi_decoy_1.taxi_decoy_1.noise_f2,taxi_decoy_2.taxi_decoy_2.date,taxi_decoy_2.taxi_decoy_2.noise_c0,taxi_decoy_2.taxi_decoy_2.noise_f2,taxi_decoy_2.taxi_decoy_2.noise_i3,events.events.date,events.events.event_volume,weather.weather.temp,weather.weather.precip,weather.weather.wind,taxi_decoy_0.taxi_decoy_0.noise_f0,taxi_decoy_0.taxi_decoy_0.noise_f1,taxi_decoy_1.taxi_decoy_1.noise_c0_2,taxi_decoy_1.taxi_decoy_1.noise_c1,taxi_decoy_1.taxi_decoy_1.noise_f2_2
pickup budget f5b5c72aa7130c03 bfd015a4dfd1e468 3fe2ba36a723562d 6 pickup_decoy_2.noise_c0,pickup_decoy_2.noise_i1,pickup_decoy_2.noise_f2,pickup_decoy_0.noise_f1,weather_minute.temp,weather_minute.humidity,pickup_decoy_1.noise_f0,pickup_decoy_1.noise_c1,pickup_decoy_2.pickup_decoy_2.noise_i1
pickup full 70852510a1919064 bfd015a4dfd1e468 3fe0a00e9c0b752e 6 pickup_decoy_2.noise_c0,pickup_decoy_2.noise_i1,pickup_decoy_2.noise_f2,pickup_decoy_2.noise_i3,pickup_decoy_0.pickup_decoy_0.noise_c0,pickup_decoy_0.noise_f1,weather_minute.temp,weather_minute.humidity,pickup_decoy_1.noise_f0,pickup_decoy_1.noise_c1,pickup_decoy_1.noise_c2,pickup_decoy_2.pickup_decoy_2.time,pickup_decoy_2.pickup_decoy_2.noise_c0,pickup_decoy_2.pickup_decoy_2.noise_i1,pickup_decoy_2.pickup_decoy_2.noise_f2,weather_minute.weather_minute.temp,weather_minute.weather_minute.humidity
poverty budget 9419cb7d72cf90f3 bfd15f587b6d155c 3fe748ca432d1714 7 education.hs_completion,education.college_rate,employment.unemployment,employment.pop_change,poverty_decoy_1.noise_f2,poverty_decoy_1.poverty_decoy_1.county,poverty_decoy_2.poverty_decoy_2.county
poverty full 5d3eb74b32fd7ac6 bfd15f587b6d155c 3fe60dd17735df62 7 education.hs_completion,education.college_rate,employment.unemployment,employment.pop_change,poverty_decoy_0.noise_f0,poverty_decoy_0.noise_c1,poverty_decoy_1.noise_i0,poverty_decoy_1.noise_i1,poverty_decoy_1.noise_f2,poverty_decoy_2.poverty_decoy_2.noise_i0,poverty_decoy_2.poverty_decoy_2.noise_c1,poverty_decoy_2.noise_c2,poverty_decoy_2.noise_c3,poverty_decoy_1.poverty_decoy_1.county,poverty_decoy_1.poverty_decoy_1.noise_i1,poverty_decoy_1.poverty_decoy_1.noise_f2,poverty_decoy_2.poverty_decoy_2.county,poverty_decoy_2.poverty_decoy_2.noise_c1_2,poverty_decoy_2.poverty_decoy_2.noise_c2,poverty_decoy_2.poverty_decoy_2.noise_c3
school_s budget 2a87c82ae4edf72a 3fe3333333333333 3febbbbbbbbbbbbc 10 funding.per_student,demographics.median_income
school_s full 6d159b216fb5cb7d 3fe3333333333333 3fe999999999999a 10 funding.per_student,funding.grants,demographics.median_income,demographics.density,school_decoy_1.noise_c0,school_decoy_1.noise_i1,school_decoy_2.school_decoy_2.noise_c0,school_decoy_2.noise_f1,school_decoy_2.noise_i2,school_decoy_0.noise_f0,funding.funding.per_student,funding.funding.grants,school_decoy_1.school_decoy_1.noise_c0,school_decoy_1.school_decoy_1.noise_i1,school_decoy_2.school_decoy_2.noise_c0_2,school_decoy_2.school_decoy_2.noise_f1,school_decoy_2.school_decoy_2.noise_i2,demographics.demographics.median_income,demographics.demographics.density,school_decoy_0.school_decoy_0.noise_f0";

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3)
    })
}

/// Run `sc` and render the outcome as one line of [`PINNED`].
fn pin_line(sc: &Scenario, full: bool) -> String {
    let mut config = ArdaConfig {
        selector: SelectorKind::Rifs(RifsConfig {
            repeats: 3,
            rf_trees: 8,
            ..Default::default()
        }),
        seed: 5,
        ..Default::default()
    };
    if full {
        config.join_plan = JoinPlan::FullMaterialization;
        config.selector = SelectorKind::AllFeatures;
    }
    let repo = Repository::from_tables(sc.repository.clone());
    let report = Arda::new(config).run(&sc.base, &repo, &sc.target).unwrap();
    let mut csv = Vec::new();
    arda::table::write_csv(&report.augmented, &mut csv).unwrap();
    let selected: Vec<String> = report
        .selected
        .iter()
        .map(|s| format!("{}.{}", s.table, s.column))
        .collect();
    format!(
        "{} {} {:016x} {:016x} {:016x} {} {}",
        sc.name,
        if full { "full" } else { "budget" },
        fnv1a(&csv),
        report.base_score.to_bits(),
        report.augmented_score.to_bits(),
        report.joins_executed,
        selected.join(",")
    )
}

#[test]
fn arda_run_is_pinned_bit_for_bit() {
    let cfg = ScenarioConfig {
        n_rows: 120,
        n_decoys: 3,
        seed: 11,
    };
    let scenarios = [taxi(&cfg), pickup(&cfg), poverty(&cfg), school(&cfg, false)];
    let runs: Vec<(&Scenario, bool)> = scenarios
        .iter()
        .flat_map(|sc| [(sc, false), (sc, true)])
        .collect();
    let pinned: Vec<&str> = PINNED.lines().collect();
    assert_eq!(pinned.len(), runs.len());
    for ((sc, full), want) in runs.into_iter().zip(pinned) {
        assert_eq!(pin_line(sc, full), want);
    }
}
