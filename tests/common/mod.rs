//! Budget sweep shared by the determinism suites.

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

/// Whether `n` rows split into bands of `ceil(n / w)` leave a short last
/// band at every width in {2, 3, 8}.
pub fn ragged(n: usize) -> bool {
    [2usize, 3, 8]
        .iter()
        .all(|&w| !n.is_multiple_of(n.div_ceil(w)))
}
