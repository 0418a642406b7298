//! Join plans: table grouping strategies (ARDA §4 "Table grouping").
//!
//! * **Table-join** — one candidate at a time, in priority order. Cheap per
//!   step but blind to co-predictors split across tables.
//! * **Budget-join** (default) — as many candidates per batch as fit a
//!   feature budget: the coreset size. Trades co-predictor discovery
//!   against the noise the selector must tolerate.
//! * **Full materialization** — everything in one batch.

use arda_discovery::{CandidateJoin, Repository};

/// Table-grouping strategy.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum JoinPlan {
    /// One table per batch, priority order.
    Table,
    /// Batches capped at the coreset size in features.
    #[default]
    Budget,
    /// Single batch with every candidate.
    FullMaterialization,
}

/// Number of value (non-key) columns a candidate would contribute. Widths
/// come from the repository manifest, so planning over a directory-sharded
/// repository never forces a shard load.
fn candidate_width(c: &CandidateJoin, repo: &Repository) -> usize {
    repo.n_cols(c.table_index)
        .map(|n| n.saturating_sub(1))
        .unwrap_or(0)
}

/// Group ranked candidates into executable batches.
///
/// `coreset_rows` is the budget plan's feature budget, the coreset size
/// ("By default, budget equals coreset size"). A single table wider than
/// the whole budget still becomes its own batch ("in this case ARDA ships
/// an entire table to a feature selection pipeline").
pub fn plan_batches(
    candidates: &[CandidateJoin],
    repo: &Repository,
    plan: JoinPlan,
    coreset_rows: usize,
) -> Vec<Vec<CandidateJoin>> {
    match plan {
        JoinPlan::Table => candidates.iter().map(|c| vec![c.clone()]).collect(),
        JoinPlan::FullMaterialization => {
            if candidates.is_empty() {
                Vec::new()
            } else {
                vec![candidates.to_vec()]
            }
        }
        JoinPlan::Budget => {
            let budget = coreset_rows.max(1);
            let mut batches: Vec<Vec<CandidateJoin>> = Vec::new();
            let mut current: Vec<CandidateJoin> = Vec::new();
            let mut used = 0usize;
            for c in candidates {
                let w = candidate_width(c, repo).max(1);
                if w > budget && current.is_empty() {
                    // Oversized table ships alone.
                    batches.push(vec![c.clone()]);
                    continue;
                }
                if used + w > budget && !current.is_empty() {
                    batches.push(std::mem::take(&mut current));
                    used = 0;
                }
                if w > budget {
                    batches.push(vec![c.clone()]);
                } else {
                    used += w;
                    current.push(c.clone());
                }
            }
            if !current.is_empty() {
                batches.push(current);
            }
            batches
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use arda_discovery::KeyKind;
    use arda_table::Column;

    fn table(name: &str, cols: usize) -> arda_table::Table {
        let mut v = vec![Column::from_i64("k", vec![1, 2])];
        for c in 0..cols {
            v.push(Column::from_f64(format!("v{c}"), vec![0.0, 1.0]));
        }
        arda_table::Table::new(name, v).unwrap()
    }

    fn candidate(i: usize) -> CandidateJoin {
        CandidateJoin {
            table_index: i,
            table_name: format!("t{i}"),
            base_key: "k".into(),
            foreign_key: "k".into(),
            kind: KeyKind::Hard,
            score: 1.0 - i as f64 * 0.1,
        }
    }

    #[test]
    fn table_plan_one_per_batch() {
        let repo = Repository::from_tables(vec![table("t0", 2), table("t1", 3)]);
        let cands = vec![candidate(0), candidate(1)];
        let b = plan_batches(&cands, &repo, JoinPlan::Table, 100);
        assert_eq!(b.len(), 2);
        assert_eq!(b[0].len(), 1);
    }

    #[test]
    fn full_materialization_single_batch() {
        let repo = Repository::from_tables(vec![table("t0", 2), table("t1", 3)]);
        let cands = vec![candidate(0), candidate(1)];
        let b = plan_batches(&cands, &repo, JoinPlan::FullMaterialization, 100);
        assert_eq!(b.len(), 1);
        assert_eq!(b[0].len(), 2);
        assert!(plan_batches(&[], &repo, JoinPlan::FullMaterialization, 100).is_empty());
    }

    #[test]
    fn budget_plan_respects_budget() {
        // Widths: 2, 3, 2, 3 — a 5-row coreset → [2+3], [2+3].
        let repo = Repository::from_tables(vec![
            table("t0", 2),
            table("t1", 3),
            table("t2", 2),
            table("t3", 3),
        ]);
        let cands: Vec<CandidateJoin> = (0..4).map(candidate).collect();
        let b = plan_batches(&cands, &repo, JoinPlan::Budget, 5);
        assert_eq!(b.len(), 2);
        assert_eq!(b[0].len(), 2);
        assert_eq!(b[1].len(), 2);
    }

    #[test]
    fn oversized_table_ships_alone() {
        let repo = Repository::from_tables(vec![table("wide", 50), table("t1", 2)]);
        let cands = vec![candidate(0), candidate(1)];
        let b = plan_batches(&cands, &repo, JoinPlan::Budget, 10);
        assert_eq!(b.len(), 2);
        assert_eq!(b[0].len(), 1, "wide table alone");
        assert_eq!(b[0][0].table_name, "t0");
    }

    #[test]
    fn default_budget_is_coreset_rows() {
        let repo = Repository::from_tables(vec![table("t0", 4), table("t1", 4)]);
        let cands = vec![candidate(0), candidate(1)];
        // Coreset of 4 rows → each 4-wide table fills one batch.
        let b = plan_batches(&cands, &repo, JoinPlan::Budget, 4);
        assert_eq!(b.len(), 2);
    }

    #[test]
    fn default_plan_is_budget() {
        assert_eq!(JoinPlan::default(), JoinPlan::Budget);
    }
}
