//! Oversubscription regression: during a full pipeline run with nested
//! parallel stages (batch joins, RIFS rounds × forest fits, the parallel
//! τ-sweep), the total number of live workers — spawned workers plus the
//! calling thread — must never exceed the work budget.
//!
//! The run happens under an isolated budget, whose permit pool and
//! instrumentation counters belong to this test alone: sibling tests in the
//! same process cannot add spawns to the measurement, and nothing here
//! touches the process-wide budget.

use arda::prelude::*;
use arda_par::Budget;

#[test]
fn pipeline_never_exceeds_work_budget() {
    let sc = arda::synth::taxi(&ScenarioConfig {
        n_rows: 140,
        n_decoys: 3,
        seed: 31,
    });
    let repo = Repository::from_tables(sc.repository.clone());
    let config = ArdaConfig {
        selector: SelectorKind::Rifs(RifsConfig {
            repeats: 4,
            rf_trees: 10,
            ..Default::default()
        }),
        seed: 31,
        ..Default::default()
    };

    let run = |pool: &Budget| {
        pool.install(|| Arda::new(config.clone()).run(&sc.base, &repo, &sc.target))
            .unwrap()
    };
    for budget in [3usize, 8] {
        let pool = Budget::isolated(budget);
        let report = run(&pool);
        assert!(report.joins_executed > 0, "budget={budget}: pipeline ran");

        let peak = pool.peak_workers();
        assert!(
            peak < budget,
            "budget={budget}: peak {peak} spawned workers + caller exceeds the budget"
        );
        assert!(
            pool.total_spawns() > 0,
            "budget={budget}: the parallel paths never engaged, the test has no teeth"
        );
        assert_eq!(
            pool.live_workers(),
            0,
            "budget={budget}: every permit must be returned after the run"
        );
    }

    // A one-wide budget must never spawn at all, anywhere in the pipeline.
    let pool = Budget::isolated(1);
    run(&pool);
    assert_eq!(
        pool.total_spawns(),
        0,
        "budget=1: nested stages must all run inline"
    );
}
