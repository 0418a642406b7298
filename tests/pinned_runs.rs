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
/// bits, joins executed, and the kept foreign columns' output names
/// (`<table>[<base_key>:<foreign_key>].<column>`).
const PINNED: &str = "\
taxi budget 0f0f03758f4a479b 3fe4ee561f673ccf 3fec85d18f4a831e 10 events[date:date].event_volume,weather[date:date].temp,weather[date:date].precip
taxi full 93799b3825658313 3fe4ee561f673ccf 3fea813ea0bb1a1e 10 events[date:date].event_volume,events[date:date].permits,weather[date:date].temp,weather[date:date].precip,weather[date:date].wind,taxi_decoy_2[date:date].noise_c0,taxi_decoy_2[date:date].noise_i1,taxi_decoy_2[date:date].noise_f2,taxi_decoy_2[date:date].noise_i3,taxi_decoy_0[date:date].noise_f0,taxi_decoy_0[date:date].noise_f1,taxi_decoy_1[date:date].noise_c0,taxi_decoy_1[date:date].noise_c1,taxi_decoy_1[date:date].noise_f2,taxi_decoy_2[day_of_week:noise_i1].date,taxi_decoy_2[day_of_week:noise_i1].noise_c0,taxi_decoy_2[day_of_week:noise_i1].noise_f2,taxi_decoy_2[day_of_week:noise_i1].noise_i3,events[day_of_week:permits].date,events[day_of_week:permits].event_volume,weather[day_of_week:date].temp,weather[day_of_week:date].precip,weather[day_of_week:date].wind,taxi_decoy_0[day_of_week:date].noise_f0,taxi_decoy_0[day_of_week:date].noise_f1,taxi_decoy_1[day_of_week:date].noise_c0,taxi_decoy_1[day_of_week:date].noise_c1,taxi_decoy_1[day_of_week:date].noise_f2
pickup budget 49a10b903e160310 bfd015a4dfd1e468 3fe2ba36a723562d 6 pickup_decoy_2[time:time].noise_c0,pickup_decoy_2[time:time].noise_i1,pickup_decoy_2[time:time].noise_f2,pickup_decoy_0[time:time].noise_f1,weather_minute[time:time].temp,weather_minute[time:time].humidity,pickup_decoy_1[time:time].noise_f0,pickup_decoy_1[time:time].noise_c1,pickup_decoy_2[dow:noise_i3].noise_i1
pickup full ab65a620f65d8477 bfd015a4dfd1e468 3fe0a00e9c0b752e 6 pickup_decoy_2[time:time].noise_c0,pickup_decoy_2[time:time].noise_i1,pickup_decoy_2[time:time].noise_f2,pickup_decoy_2[time:time].noise_i3,pickup_decoy_0[time:time].noise_c0,pickup_decoy_0[time:time].noise_f1,weather_minute[time:time].temp,weather_minute[time:time].humidity,pickup_decoy_1[time:time].noise_f0,pickup_decoy_1[time:time].noise_c1,pickup_decoy_1[time:time].noise_c2,pickup_decoy_2[dow:noise_i3].time,pickup_decoy_2[dow:noise_i3].noise_c0,pickup_decoy_2[dow:noise_i3].noise_i1,pickup_decoy_2[dow:noise_i3].noise_f2,weather_minute[dow:time].temp,weather_minute[dow:time].humidity
poverty budget 6cba1ff878c32985 bfd15f587b6d155c 3fe748ca432d1714 7 education[county:county].hs_completion,education[county:county].college_rate,employment[county:county].unemployment,employment[county:county].pop_change,poverty_decoy_1[county:county].noise_f2,poverty_decoy_1[county:noise_i0].county,poverty_decoy_2[county:noise_i0].county
poverty full f55274aac714afb3 bfd15f587b6d155c 3fe60dd17735df62 7 education[county:county].hs_completion,education[county:county].college_rate,employment[county:county].unemployment,employment[county:county].pop_change,poverty_decoy_0[county:county].noise_f0,poverty_decoy_0[county:county].noise_c1,poverty_decoy_1[county:county].noise_i0,poverty_decoy_1[county:county].noise_i1,poverty_decoy_1[county:county].noise_f2,poverty_decoy_2[county:county].noise_i0,poverty_decoy_2[county:county].noise_c1,poverty_decoy_2[county:county].noise_c2,poverty_decoy_2[county:county].noise_c3,poverty_decoy_1[county:noise_i0].county,poverty_decoy_1[county:noise_i0].noise_i1,poverty_decoy_1[county:noise_i0].noise_f2,poverty_decoy_2[county:noise_i0].county,poverty_decoy_2[county:noise_i0].noise_c1,poverty_decoy_2[county:noise_i0].noise_c2,poverty_decoy_2[county:noise_i0].noise_c3
school_s budget a04ca0d710351ed5 3fe3333333333333 3febbbbbbbbbbbbc 10 funding[school_id:school_id].per_student,demographics[school_id:school_id].median_income
school_s full 01c80b60e3622fae 3fe3333333333333 3fe999999999999a 10 funding[school_id:school_id].per_student,funding[school_id:school_id].grants,demographics[school_id:school_id].median_income,demographics[school_id:school_id].density,school_decoy_1[school_id:school_id].noise_c0,school_decoy_1[school_id:school_id].noise_i1,school_decoy_2[school_id:school_id].noise_c0,school_decoy_2[school_id:school_id].noise_f1,school_decoy_2[school_id:school_id].noise_i2,school_decoy_0[school_id:school_id].noise_f0,funding[grade_span:school_id].per_student,funding[grade_span:school_id].grants,school_decoy_1[grade_span:school_id].noise_c0,school_decoy_1[grade_span:school_id].noise_i1,school_decoy_2[grade_span:school_id].noise_c0,school_decoy_2[grade_span:school_id].noise_f1,school_decoy_2[grade_span:school_id].noise_i2,demographics[grade_span:school_id].median_income,demographics[grade_span:school_id].density,school_decoy_0[grade_span:school_id].noise_f0";

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
    let selected: Vec<&str> = report
        .selected
        .iter()
        .map(|s| {
            assert!(s.column.starts_with(&format!("{}[", s.table)), "{s:?}");
            s.column.as_str()
        })
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
