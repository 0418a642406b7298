//! Join-key match statistics: intersection scores used to rank candidate
//! joins when the discovery system provides no relevance scores (§4 "Table
//! grouping": "ARDA computes intersection-score"), and the foreign-key
//! domain sizes needed by the Tuple-Ratio rule.

use crate::Result;
use arda_table::{Key, Table};
use std::collections::HashSet;

/// Statistics of one candidate (base, foreign, key) pairing.
#[derive(Debug, Clone, PartialEq)]
pub struct JoinStats {
    /// Base rows whose key value appears in the foreign key column.
    pub matched_rows: usize,
    /// Total base rows.
    pub base_rows: usize,
    /// Distinct non-null keys in the foreign column (the foreign-key domain
    /// size `nR` of the Tuple-Ratio rule).
    pub foreign_distinct: usize,
}

impl JoinStats {
    /// Fraction of base rows that would find a hard-join match.
    pub fn intersection_score(&self) -> f64 {
        if self.base_rows == 0 {
            0.0
        } else {
            self.matched_rows as f64 / self.base_rows as f64
        }
    }
}

/// Compute [`JoinStats`] for a hard-key candidate.
pub fn join_stats(
    base: &Table,
    foreign: &Table,
    base_keys: &[&str],
    foreign_keys: &[&str],
) -> Result<JoinStats> {
    let bkeys = base.keys(base_keys)?;
    let fkeys = foreign.keys(foreign_keys)?;
    Ok(match_stats(&bkeys, &key_set(&fkeys)))
}

/// The distinct non-null keys of one key vector (as `Table::keys` or
/// `Column::keys` builds it): the foreign side of [`match_stats`].
pub fn key_set(keys: &[Option<Key>]) -> HashSet<&Key> {
    keys.iter().flatten().collect()
}

/// [`JoinStats`] of base rows keyed `base_keys` (one entry per row)
/// against the foreign key domain `foreign`. [`join_stats`] is this on
/// freshly built keys; a caller that scores one key column against many
/// builds each side once and calls this per pair.
pub fn match_stats(base_keys: &[Option<Key>], foreign: &HashSet<&Key>) -> JoinStats {
    JoinStats {
        matched_rows: base_keys
            .iter()
            .flatten()
            .filter(|k| foreign.contains(k))
            .count(),
        base_rows: base_keys.len(),
        foreign_distinct: foreign.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use arda_table::Column;

    fn tables() -> (Table, Table) {
        let base = Table::new("b", vec![Column::from_i64("k", vec![1, 1, 2, 3])]).unwrap();
        let foreign = Table::new("f", vec![Column::from_i64("k", vec![1, 2, 9, 9])]).unwrap();
        (base, foreign)
    }

    #[test]
    fn counts_matches_and_domains() {
        let (b, f) = tables();
        let s = join_stats(&b, &f, &["k"], &["k"]).unwrap();
        assert_eq!(s.matched_rows, 3); // rows with k ∈ {1,1,2}
        assert_eq!(s.base_rows, 4);
        assert_eq!(s.foreign_distinct, 3); // {1,2,9}
        assert!((s.intersection_score() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn empty_foreign_gives_zero_score_and_infinite_ratio() {
        let b = Table::new("b", vec![Column::from_i64("k", vec![1])]).unwrap();
        let f = Table::new("f", vec![Column::from_i64("k", vec![])]).unwrap();
        let s = join_stats(&b, &f, &["k"], &["k"]).unwrap();
        assert_eq!(s.intersection_score(), 0.0);
        // An empty domain makes the Tuple-Ratio `nS / nR` infinite.
        assert_eq!(s.foreign_distinct, 0);
    }

    #[test]
    fn nulls_do_not_count() {
        let b = Table::new("b", vec![Column::from_i64_opt("k", vec![Some(1), None])]).unwrap();
        let f = Table::new("f", vec![Column::from_i64_opt("k", vec![Some(1), None])]).unwrap();
        let s = join_stats(&b, &f, &["k"], &["k"]).unwrap();
        assert_eq!(s.matched_rows, 1);
        assert_eq!(s.foreign_distinct, 1);
    }

    #[test]
    fn composite_key_stats() {
        let b = Table::new(
            "b",
            vec![
                Column::from_i64("a", vec![1, 1]),
                Column::from_i64("b", vec![2, 3]),
            ],
        )
        .unwrap();
        let f = Table::new(
            "f",
            vec![
                Column::from_i64("a", vec![1]),
                Column::from_i64("b", vec![2]),
            ],
        )
        .unwrap();
        let s = join_stats(&b, &f, &["a", "b"], &["a", "b"]).unwrap();
        assert_eq!(s.matched_rows, 1);
        assert_eq!(s.foreign_distinct, 1);
    }
}
