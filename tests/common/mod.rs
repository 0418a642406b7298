//! Budget sweep shared by the determinism suites.

use arda::prelude::*;
use arda_par::Budget;

/// The budget widths every determinism sweep covers.
pub const BUDGETS: [usize; 4] = [1, 2, 3, 8];

/// Run `f` under `Budget::isolated(w).install(..)` for each width in
/// [`BUDGETS`], assert every output equals the first and that every width
/// above 1 spawned workers (a sweep that silently ran sequentially would
/// prove nothing), and return the width-1 output.
///
/// Isolated budgets carry their own permit pools, so sweeps running side
/// by side in one process neither change each other's width nor count each
/// other's spawns.
pub fn assert_identical_across_budgets<T: PartialEq + std::fmt::Debug>(
    what: &str,
    mut f: impl FnMut() -> T,
) -> T {
    let mut reference: Option<T> = None;
    for width in BUDGETS {
        let budget = Budget::isolated(width);
        let got = budget.install(&mut f);
        assert_eq!(
            budget.total_spawns() > 0,
            width > 1,
            "{what}: budget={width} spawned {} workers",
            budget.total_spawns()
        );
        match &reference {
            None => reference = Some(got),
            Some(r) => assert_eq!(&got, r, "{what}: budget={width}"),
        }
    }
    reference.expect("BUDGETS is not empty")
}

/// Run the full pipeline with RIFS on a taxi scenario of `n_rows` rows and
/// `seed` under every width in [`BUDGETS`], and assert the base score,
/// augmented score and selected features are bit-identical.
pub fn assert_pipeline_identical_across_budgets(n_rows: usize, seed: u64) {
    let sc = arda::synth::taxi(&ScenarioConfig {
        n_rows,
        n_decoys: 3,
        seed,
    });
    let repo = Repository::from_tables(sc.repository.clone());
    let config = ArdaConfig {
        selector: SelectorKind::Rifs(RifsConfig {
            repeats: 3,
            rf_trees: 8,
            ..Default::default()
        }),
        seed,
        ..Default::default()
    };
    assert_identical_across_budgets(&format!("pipeline taxi({n_rows}, {seed})"), || {
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
}
