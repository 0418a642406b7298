//! Work-budget determinism properties: every budget-aware path in the
//! workspace must produce output identical to its sequential run, across
//! budgets {1, 2, 3, 8} and nested split shapes.
//!
//! Chunk layouts derive from a budget's *nominal width* — never from how
//! many spawn permits the pool actually granted — and results are stitched
//! in chunk order, so parallel output equals sequential output for any
//! budget, any split, and any permit availability. Each case runs under
//! `Budget::isolated(w).install(..)`, a scoped budget with its own permit
//! pool, so tests running side by side cannot change each other's width,
//! and every width above 1 must actually spawn (a sweep that silently ran
//! sequentially would prove nothing). Joins, group-by and CSV parsing run
//! on the calling thread; they are swept here inside the pipeline, whose
//! batch and discovery fan-outs do spawn. `tests/par_determinism.rs`
//! covers the kernels underneath.

mod common;

use arda::prelude::*;
use arda_par::Budget;
use common::{assert_identical_across_budgets, assert_pipeline_identical_across_budgets, BUDGETS};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// RIFS — including the now-parallel τ-threshold holdout sweep — selects
/// the same features, threshold and score at every budget.
#[test]
fn rifs_with_tau_sweep_identical_across_budgets() {
    let mut rng = StdRng::seed_from_u64(600);
    let n = 130;
    let rows: Vec<Vec<f64>> = (0..n)
        .map(|i| {
            let cls = (i % 2) as f64;
            let mut row = vec![
                cls * 3.0 + rng.gen_range(-0.4..0.4),
                -cls * 2.0 + rng.gen_range(-0.4..0.4),
            ];
            for _ in 0..7 {
                row.push(rng.gen_range(-1.0..1.0));
            }
            row
        })
        .collect();
    let ds = Dataset::new(
        arda::linalg::Matrix::from_rows(&rows).unwrap(),
        (0..n).map(|i| (i % 2) as f64).collect(),
        (0..9).map(|i| format!("f{i}")).collect(),
        Task::Classification { n_classes: 2 },
    )
    .unwrap();
    let ctx = SelectionContext::standard(&ds, 3);
    let cfg = RifsConfig {
        repeats: 4,
        rf_trees: 8,
        ..Default::default()
    };
    assert_identical_across_budgets("rifs_select", || {
        let r = arda::select::rifs_select(&ds, &ctx, &cfg).unwrap();
        (
            r.selected,
            r.fractions,
            r.threshold_used.to_bits(),
            r.holdout_score.to_bits(),
        )
    });
}

/// Join discovery mines and ranks the same candidate list at every budget.
#[test]
fn discovery_identical_across_budgets() {
    let mut rng = StdRng::seed_from_u64(800);
    let base = Table::new(
        "taxi",
        vec![
            Column::from_timestamps("date", (0..200).map(|i| i * 86_400).collect()),
            Column::from_str(
                "borough",
                (0..200)
                    .map(|i| ["bronx", "queens", "manhattan"][i % 3])
                    .collect::<Vec<_>>(),
            ),
            Column::from_f64("trips", (0..200).map(|_| rng.gen_range(0.0..9.0)).collect()),
        ],
    )
    .unwrap();
    let tables: Vec<Table> = (0..6)
        .map(|t| {
            Table::new(
                format!("ext{t}"),
                vec![
                    Column::from_timestamps("date", (0..300).map(|i| i * 43_200 + t * 7).collect()),
                    Column::from_str(
                        "borough",
                        (0..300)
                            .map(|i| {
                                ["bronx", "queens", "manhattan", "brooklyn"][(i + t as usize) % 4]
                            })
                            .collect::<Vec<_>>(),
                    ),
                    Column::from_f64("m", (0..300).map(|_| rng.gen_range(-1.0..1.0)).collect()),
                ],
            )
            .unwrap()
        })
        .collect();
    let repo = Repository::from_tables(tables);
    assert_identical_across_budgets("discover_joins", || {
        discover_joins(&base, &repo, &DiscoveryConfig::default())
            .unwrap()
            .into_iter()
            .map(|c| {
                (
                    c.table_index,
                    c.table_name,
                    c.base_key,
                    c.foreign_key,
                    c.kind,
                    c.score.to_bits(),
                )
            })
            .collect::<Vec<_>>()
    });
}

/// The full pipeline — discovery, batch joins with per-candidate budget
/// splits, group-by pre-aggregation, featurization, RIFS with the parallel
/// τ-sweep, final estimate — is deterministic in the seed at any budget.
#[test]
fn pipeline_identical_across_budgets() {
    assert_pipeline_identical_across_budgets(130, 21);
}

/// Directory-sharded repositories: manifest scan + lazy parallel shard
/// loads (with an LRU bound forcing reloads) discover identical
/// candidates and drive an identical pipeline at every budget.
#[test]
fn sharded_repository_identical_across_budgets() {
    let sc = arda::synth::school(
        &ScenarioConfig {
            n_rows: 90,
            n_decoys: 3,
            seed: 33,
        },
        false,
    );
    let dir = std::env::temp_dir().join(format!("arda_budget_shards_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    for t in &sc.repository {
        let f = std::fs::File::create(dir.join(format!("{}.csv", t.name()))).unwrap();
        arda::table::write_csv(t, f).unwrap();
    }
    let config = ArdaConfig {
        selector: SelectorKind::Rifs(RifsConfig {
            repeats: 3,
            rf_trees: 8,
            ..Default::default()
        }),
        seed: 33,
        ..Default::default()
    };
    assert_identical_across_budgets("sharded pipeline", || {
        // Fresh repository per run: every budget re-scans the manifest
        // and re-loads shards through its own cache (capacity 2 keeps
        // eviction/reload on the hot path).
        let repo = Repository::from_dir(&dir).unwrap().with_cache_capacity(2);
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
    std::fs::remove_dir_all(&dir).ok();
}

/// Explicit nested split shapes over isolated pools: an outer fan-out whose
/// body runs a nested budget-aware map produces the same result for every
/// (width, split) combination, including widths larger than the item count
/// and splits that starve the inner stage to one worker.
#[test]
fn nested_split_shapes_identical() {
    let groups: Vec<Vec<u64>> = (0..7)
        .map(|g| (0..53).map(|i| g * 100 + i).collect())
        .collect();
    let reference: Vec<Vec<u64>> = groups
        .iter()
        .map(|g| g.iter().map(|&x| x * 3 + 1).collect())
        .collect();
    for width in BUDGETS {
        for stages in [1usize, 2, 4, 16] {
            let budget = Budget::isolated(width);
            let got: Vec<Vec<u64>> = budget.split(stages).install(|| {
                arda_par::par_map(&groups, |_, g| {
                    // The nested stage picks the ambient split up.
                    arda_par::par_map(g, |_, &x| x * 3 + 1)
                })
            });
            assert_eq!(got, reference, "width={width} stages={stages}");
            assert_eq!(
                budget.live_workers(),
                0,
                "width={width} stages={stages}: permits returned"
            );
        }
    }
}
