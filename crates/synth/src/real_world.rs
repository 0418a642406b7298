//! Generators mirroring the paper's real-world scenarios (§7.1): Taxi,
//! Pickup, Poverty and School. Each plants signal in a few repository
//! tables and surrounds them with decoys.

use crate::decoys::decoy_table;
use crate::scenario::{Scenario, ScenarioConfig};
use arda_table::{Column, Table};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const DAY: i64 = 86_400;
const HOUR: i64 = 3_600;

fn shuffled(mut tables: Vec<Table>, seed: u64) -> Vec<Table> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5487_1CE5);
    for i in (1..tables.len()).rev() {
        tables.swap(i, rng.gen_range(0..=i));
    }
    tables
}

/// **Taxi**: daily vehicle-collision regression. The base table knows the
/// borough and weekday; the real drivers (precipitation, temperature, event
/// volume) live in two *daily* repository tables joinable on the date hard
/// key. Mirrors the NYPD collisions base + 29 Auctus tables.
pub fn taxi(cfg: &ScenarioConfig) -> Scenario {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let n = cfg.n_rows;
    let boroughs = ["bronx", "queens", "manhattan", "brooklyn", "staten"];

    let dates: Vec<i64> = (0..n).map(|i| (i as i64 / 5) * DAY).collect();
    let borough: Vec<&str> = (0..n).map(|i| boroughs[i % 5]).collect();
    let day_count = n / 5 + 1;
    let temp: Vec<f64> = (0..day_count)
        .map(|d| 15.0 + 10.0 * (d as f64 / 20.0).sin() + rng.gen_range(-2.0..2.0))
        .collect();
    let precip: Vec<f64> = (0..day_count)
        .map(|_| rng.gen_range(0.0f64..8.0).powi(2) / 8.0)
        .collect();
    let volume: Vec<f64> = (0..day_count).map(|_| rng.gen_range(0.0..5.0)).collect();

    let target: Vec<f64> = (0..n)
        .map(|i| {
            let d = i / 5;
            let borough_effect = (i % 5) as f64 * 2.0;
            let dow_effect = ((i / 5) % 7) as f64 * 0.8;
            20.0 + borough_effect
                + dow_effect
                + 3.0 * precip[d]
                + 0.8 * (temp[d] - 15.0).abs()
                + 2.5 * volume[d]
                + rng.gen_range(-2.0..2.0)
        })
        .collect();

    let base = Table::new(
        "taxi",
        vec![
            Column::from_timestamps("date", dates.clone()),
            Column::from_str("borough", borough),
            Column::from_i64(
                "day_of_week",
                (0..n).map(|i| ((i / 5) % 7) as i64).collect(),
            ),
            Column::from_f64("collisions", target),
        ],
    )
    .unwrap();

    let day_keys: Vec<i64> = (0..day_count).map(|d| d as i64 * DAY).collect();
    let weather = Table::new(
        "weather",
        vec![
            Column::from_timestamps("date", day_keys.clone()),
            Column::from_f64("temp", temp),
            Column::from_f64("precip", precip),
            Column::from_f64(
                "wind",
                (0..day_count).map(|_| rng.gen_range(0.0..30.0)).collect(),
            ),
        ],
    )
    .unwrap();
    let events = Table::new(
        "events",
        vec![
            Column::from_timestamps("date", day_keys),
            Column::from_f64("event_volume", volume),
            Column::from_i64(
                "permits",
                (0..day_count).map(|_| rng.gen_range(0..40)).collect(),
            ),
        ],
    )
    .unwrap();

    let key_domain = weather.column("date").unwrap().clone();
    let mut repository = vec![weather, events];
    for k in 0..cfg.n_decoys {
        repository.push(decoy_table(
            &format!("taxi_decoy_{k}"),
            "date",
            &key_domain,
            2 + k % 3,
            cfg.seed.wrapping_add(100 + k as u64),
        ));
    }

    Scenario {
        name: "taxi".into(),
        base,
        repository: shuffled(repository, cfg.seed),
        target: "collisions".into(),
        classification: false,
        relevant_tables: vec!["weather".into(), "events".into()],
    }
}

/// **Pickup**: hourly airport-pickup regression with a *soft* time key —
/// the weather table reports every 5 minutes while the base table is hourly,
/// and the temperature varies smoothly so two-way nearest-neighbour
/// interpolation beats both plain nearest and raw hard joins (Fig. 5).
pub fn pickup(cfg: &ScenarioConfig) -> Scenario {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let n = cfg.n_rows;
    // Hourly base timestamps, offset mid-hour so hard joins on raw keys miss.
    let times: Vec<i64> = (0..n).map(|i| i as i64 * HOUR + 1_830).collect();
    let smooth_temp =
        |t: i64| 10.0 + 8.0 * (t as f64 / (24.0 * HOUR as f64) * std::f64::consts::TAU).sin();

    let target: Vec<f64> = times
        .iter()
        .enumerate()
        .map(|(i, &t)| {
            let hour = (t / HOUR) % 24;
            let rush = if (7..10).contains(&hour) || (16..19).contains(&hour) {
                25.0
            } else {
                0.0
            };
            40.0 + rush - 1.5 * smooth_temp(t) + ((i % 7) as f64) + rng.gen_range(-3.0..3.0)
        })
        .collect();

    let base = Table::new(
        "pickup",
        vec![
            Column::from_timestamps("time", times),
            Column::from_i64("dow", (0..n).map(|i| (i % 7) as i64).collect()),
            Column::from_f64("passengers", target),
        ],
    )
    .unwrap();

    // Weather at 5-minute granularity covering the same span.
    let span = n as i64 * HOUR;
    let wtimes: Vec<i64> = (0..span / 300).map(|i| i * 300).collect();
    let weather = Table::new(
        "weather_minute",
        vec![
            Column::from_timestamps("time", wtimes.clone()),
            Column::from_f64(
                "temp",
                wtimes
                    .iter()
                    .map(|&t| smooth_temp(t) + rng.gen_range(-0.2..0.2))
                    .collect(),
            ),
            Column::from_f64(
                "humidity",
                wtimes.iter().map(|_| rng.gen_range(20.0..90.0)).collect(),
            ),
        ],
    )
    .unwrap();

    let key_domain = base.column("time").unwrap();
    let mut repository = vec![weather];
    for k in 0..cfg.n_decoys {
        repository.push(decoy_table(
            &format!("pickup_decoy_{k}"),
            "time",
            key_domain,
            2 + k % 3,
            cfg.seed.wrapping_add(500 + k as u64),
        ));
    }

    Scenario {
        name: "pickup".into(),
        base,
        repository: shuffled(repository, cfg.seed.wrapping_add(1)),
        target: "passengers".into(),
        classification: false,
        relevant_tables: vec!["weather_minute".into()],
    }
}

/// **Poverty**: county-level socio-economic regression whose dominant term
/// is an *interaction* between columns living in two different tables
/// (education × employment) — co-predictors that table-at-a-time join plans
/// cannot discover together (Table 5's motivation).
pub fn poverty(cfg: &ScenarioConfig) -> Scenario {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let n = cfg.n_rows;
    let county: Vec<i64> = (0..n as i64).collect();
    let regions = ["northeast", "south", "midwest", "west"];

    let edu: Vec<f64> = (0..n).map(|_| rng.gen_range(0.3..0.95)).collect();
    let unemp: Vec<f64> = (0..n).map(|_| rng.gen_range(0.02..0.2)).collect();
    let pop_change: Vec<f64> = (0..n).map(|_| rng.gen_range(-0.05..0.05)).collect();

    let target: Vec<f64> = (0..n)
        .map(|i| {
            // Interaction term dominates: high unemployment hurts far more
            // where education is low.
            10.0 + 60.0 * unemp[i] * (1.0 - edu[i]) + 5.0 * unemp[i] + 3.0 * (1.0 - edu[i])
                - 8.0 * pop_change[i]
                + rng.gen_range(-0.5..0.5)
        })
        .collect();

    let base = Table::new(
        "poverty",
        vec![
            Column::from_i64("county", county.clone()),
            Column::from_str("region", (0..n).map(|i| regions[i % 4]).collect()),
            Column::from_f64("poverty_rate", target),
        ],
    )
    .unwrap();

    let education = Table::new(
        "education",
        vec![
            Column::from_i64("county", county.clone()),
            Column::from_f64("hs_completion", edu),
            Column::from_f64(
                "college_rate",
                (0..n).map(|_| rng.gen_range(0.1..0.6)).collect(),
            ),
        ],
    )
    .unwrap();
    let employment = Table::new(
        "employment",
        vec![
            Column::from_i64("county", county.clone()),
            Column::from_f64("unemployment", unemp),
            Column::from_f64("pop_change", pop_change),
        ],
    )
    .unwrap();

    let key_domain = base.column("county").unwrap();
    let mut repository = vec![education, employment];
    for k in 0..cfg.n_decoys {
        repository.push(decoy_table(
            &format!("poverty_decoy_{k}"),
            "county",
            key_domain,
            2 + k % 4,
            cfg.seed.wrapping_add(900 + k as u64),
        ));
    }

    Scenario {
        name: "poverty".into(),
        base,
        repository: shuffled(repository, cfg.seed.wrapping_add(2)),
        target: "poverty_rate".into(),
        classification: false,
        relevant_tables: vec!["education".into(), "employment".into()],
    }
}

/// **School**: binary school-performance classification. Pass/fail depends
/// on per-student funding and neighbourhood income, both in repository
/// tables. `large = true` mirrors School (L) with its 350 candidate tables;
/// `false` mirrors School (S) with 16.
pub fn school(cfg: &ScenarioConfig, large: bool) -> Scenario {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let n = cfg.n_rows;
    let school_id: Vec<i64> = (0..n as i64).collect();

    let funding: Vec<f64> = (0..n).map(|_| rng.gen_range(4.0..20.0)).collect();
    let income: Vec<f64> = (0..n).map(|_| rng.gen_range(20.0..120.0)).collect();
    let enrollment: Vec<f64> = (0..n).map(|_| rng.gen_range(100.0..3000.0)).collect();

    let labels: Vec<&str> = (0..n)
        .map(|i| {
            let score = 0.4 * funding[i] + 0.08 * income[i] - 0.001 * enrollment[i]
                + rng.gen_range(-1.5..1.5);
            if score > 8.0 {
                "pass"
            } else {
                "fail"
            }
        })
        .collect();

    let base = Table::new(
        "school",
        vec![
            Column::from_i64("school_id", school_id.clone()),
            Column::from_f64("enrollment", enrollment),
            Column::from_i64("grade_span", (0..n).map(|_| rng.gen_range(6..13)).collect()),
            Column::from_str("result", labels),
        ],
    )
    .unwrap();

    let funding_table = Table::new(
        "funding",
        vec![
            Column::from_i64("school_id", school_id.clone()),
            Column::from_f64("per_student", funding),
            Column::from_f64("grants", (0..n).map(|_| rng.gen_range(0.0..5.0)).collect()),
        ],
    )
    .unwrap();
    let demographics = Table::new(
        "demographics",
        vec![
            Column::from_i64("school_id", school_id.clone()),
            Column::from_f64("median_income", income),
            Column::from_f64(
                "density",
                (0..n).map(|_| rng.gen_range(0.1..10.0)).collect(),
            ),
        ],
    )
    .unwrap();

    let n_decoys = if large {
        cfg.n_decoys.max(348)
    } else {
        cfg.n_decoys.min(14)
    };
    let key_domain = base.column("school_id").unwrap();
    let mut repository = vec![funding_table, demographics];
    for k in 0..n_decoys {
        repository.push(decoy_table(
            &format!("school_decoy_{k}"),
            "school_id",
            key_domain,
            1 + k % 3,
            cfg.seed.wrapping_add(1_300 + k as u64),
        ));
    }

    Scenario {
        name: if large {
            "school_l".into()
        } else {
            "school_s".into()
        },
        base,
        repository: shuffled(repository, cfg.seed.wrapping_add(3)),
        target: "result".into(),
        classification: true,
        relevant_tables: vec!["funding".into(), "demographics".into()],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(n_decoys: usize) -> ScenarioConfig {
        ScenarioConfig {
            n_rows: 120,
            n_decoys,
            seed: 42,
        }
    }

    #[test]
    fn taxi_shape() {
        let s = taxi(&cfg(10));
        assert_eq!(s.base.n_rows(), 120);
        assert_eq!(s.repository.len(), 12);
        assert!(!s.classification);
        assert!(s.table("weather").is_some());
        assert!(s.table("events").is_some());
        assert!(s.base.column("collisions").is_ok());
        assert!(s.decoy_fraction() > 0.7);
    }

    #[test]
    fn pickup_weather_is_finer_granularity() {
        let s = pickup(&cfg(5));
        let w = s.table("weather_minute").unwrap();
        assert!(
            w.n_rows() > s.base.n_rows(),
            "minute weather has more rows than hourly base"
        );
        // Base keys offset mid-hour: no exact matches with 5-min weather grid.
        let base_keys: Vec<i64> = s
            .base
            .column("time")
            .unwrap()
            .iter()
            .map(|v| v.as_i64().unwrap())
            .collect();
        assert!(base_keys.iter().all(|k| k % 300 != 0));
    }

    #[test]
    fn poverty_has_two_relevant_tables() {
        let s = poverty(&cfg(8));
        assert_eq!(s.relevant_tables.len(), 2);
        assert_eq!(s.repository.len(), 10);
        for t in &s.relevant_tables {
            assert!(s.table(t).is_some(), "{t} in repository");
        }
    }

    #[test]
    fn school_sizes() {
        let small = school(&cfg(14), false);
        assert_eq!(small.repository.len(), 16);
        assert!(small.classification);
        let large = school(
            &ScenarioConfig {
                n_rows: 60,
                n_decoys: 348,
                seed: 1,
            },
            true,
        );
        assert_eq!(large.repository.len(), 350);
        assert_eq!(large.name, "school_l");
    }

    #[test]
    fn school_labels_are_binary_strings() {
        let s = school(&cfg(2), false);
        let keys = s.base.column("result").unwrap().keys();
        let distinct: std::collections::HashSet<_> = keys.iter().flatten().collect();
        assert!(distinct.len() <= 2 && !distinct.is_empty());
    }

    #[test]
    fn generators_deterministic() {
        let a = taxi(&cfg(4));
        let b = taxi(&cfg(4));
        assert_eq!(a.base, b.base);
        assert_eq!(a.repository.len(), b.repository.len());
        for (x, y) in a.repository.iter().zip(&b.repository) {
            assert_eq!(x, y);
        }
    }

    #[test]
    fn decoy_keys_join_base_domain() {
        let s = poverty(&cfg(3));
        let decoy = s
            .repository
            .iter()
            .find(|t| t.name().starts_with("poverty_decoy"))
            .unwrap();
        let base_max = s.base.n_rows() as i64;
        for v in decoy.column("county").unwrap().iter() {
            assert!((0..base_max).contains(&v.as_i64().unwrap()));
        }
    }
}
