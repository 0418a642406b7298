//! Hard-key LEFT joins (hash join on exact key equality).

use crate::Result;
use arda_table::{GroupBy, Key, Table};
use std::collections::HashMap;

/// Base rows below which the probe scan stays sequential.
const PAR_MIN_ROWS: usize = 4_096;

/// Pre-aggregate `foreign` on its key columns so every key maps to exactly
/// one row (ARDA §4 "Join Cardinality": one-to-many / many-to-many joins are
/// reduced to to-one joins by aggregating the foreign side). Numeric columns
/// take group means, categoricals take the group mode; the per-column
/// aggregation scans fan out on the ambient `arda-par` work budget inside
/// [`GroupBy::aggregate`]. Tables whose keys are already unique are
/// returned as-is (cheap check first).
pub fn pre_aggregate(foreign: &Table, keys: &[&str]) -> Result<Table> {
    let key_values = foreign.keys(keys)?;
    let mut seen: std::collections::HashSet<&Key> = std::collections::HashSet::new();
    let mut duplicated = false;
    for k in key_values.iter().flatten() {
        if !seen.insert(k) {
            duplicated = true;
            break;
        }
    }
    if !duplicated {
        return Ok(foreign.clone());
    }
    Ok(GroupBy::new(foreign, keys)?.aggregate_default()?)
}

/// LEFT join `base` with `foreign` on exact key equality.
///
/// * Every base row is preserved exactly once (the paper's hard requirement).
/// * The foreign table is pre-aggregated on its keys first, so duplicate
///   foreign keys can never fan out base rows.
/// * Foreign *key* columns are dropped from the output (they duplicate the
///   base keys); remaining columns are appended, renamed on collision.
/// * Unmatched base rows get nulls (imputation handles them later).
pub fn left_hard_join(
    base: &Table,
    foreign: &Table,
    base_keys: &[&str],
    foreign_keys: &[&str],
) -> Result<Table> {
    let foreign = pre_aggregate(foreign, foreign_keys)?;

    // Map foreign key → row index (keys are unique after pre-aggregation).
    let fkeys = foreign.keys(foreign_keys)?;
    let mut index: HashMap<Key, usize> = HashMap::with_capacity(fkeys.len());
    for (row, key) in fkeys.into_iter().enumerate() {
        if let Some(k) = key {
            index.entry(k).or_insert(row);
        }
    }

    // Probe scan: each base row's lookup is independent, so large bases
    // fan out on the ambient work budget (results stay in row order).
    let bkeys = base.keys(base_keys)?;
    let matches: Vec<Option<usize>> = arda_par::sequential_below(bkeys.len(), PAR_MIN_ROWS, || {
        arda_par::par_map(&bkeys, |_, k| {
            k.as_ref().and_then(|k| index.get(k).copied())
        })
    });

    // Gather matched foreign rows (nulls where unmatched), minus key columns.
    let value_names: Vec<&str> = foreign
        .columns()
        .iter()
        .map(|c| c.name())
        .filter(|n| !foreign_keys.contains(n))
        .collect();
    let gathered = foreign.take_opt(&matches)?;
    let values = gathered.select(&value_names)?;
    Ok(base.hstack(&values)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use arda_table::{Column, Value};

    fn base() -> Table {
        Table::new(
            "base",
            vec![
                Column::from_str("city", vec!["nyc", "bos", "nyc", "sfo"]),
                Column::from_f64("target", vec![1.0, 2.0, 3.0, 4.0]),
            ],
        )
        .unwrap()
    }

    #[test]
    fn joins_and_preserves_base_rows() {
        let foreign = Table::new(
            "pop",
            vec![
                Column::from_str("city", vec!["nyc", "bos"]),
                Column::from_f64("population", vec![8.4, 0.7]),
            ],
        )
        .unwrap();
        let out = left_hard_join(&base(), &foreign, &["city"], &["city"]).unwrap();
        assert_eq!(out.n_rows(), 4);
        let p = out.column("population").unwrap();
        assert_eq!(p.get_f64(0), Some(8.4));
        assert_eq!(p.get_f64(1), Some(0.7));
        assert_eq!(p.get_f64(2), Some(8.4));
        assert!(p.get(3).is_null(), "sfo has no match → null");
        // Foreign key column is not duplicated.
        assert_eq!(out.n_cols(), 3);
    }

    #[test]
    fn one_to_many_pre_aggregates_instead_of_duplicating() {
        let foreign = Table::new(
            "sales",
            vec![
                Column::from_str("city", vec!["nyc", "nyc", "bos"]),
                Column::from_f64("amount", vec![10.0, 30.0, 5.0]),
            ],
        )
        .unwrap();
        let out = left_hard_join(&base(), &foreign, &["city"], &["city"]).unwrap();
        assert_eq!(out.n_rows(), 4, "base rows must never fan out");
        // nyc amount = mean(10, 30) = 20.
        assert_eq!(out.column("amount").unwrap().get_f64(0), Some(20.0));
    }

    #[test]
    fn composite_keys() {
        let b = Table::new(
            "b",
            vec![
                Column::from_i64("a", vec![1, 1, 2]),
                Column::from_i64("b", vec![1, 2, 1]),
            ],
        )
        .unwrap();
        let f = Table::new(
            "f",
            vec![
                Column::from_i64("a", vec![1, 2]),
                Column::from_i64("b", vec![2, 1]),
                Column::from_f64("v", vec![12.0, 21.0]),
            ],
        )
        .unwrap();
        let out = left_hard_join(&b, &f, &["a", "b"], &["a", "b"]).unwrap();
        let v = out.column("v").unwrap();
        assert!(v.get(0).is_null());
        assert_eq!(v.get_f64(1), Some(12.0));
        assert_eq!(v.get_f64(2), Some(21.0));
    }

    #[test]
    fn null_keys_never_match() {
        let b = Table::new("b", vec![Column::from_i64_opt("k", vec![Some(1), None])]).unwrap();
        let f = Table::new(
            "f",
            vec![
                Column::from_i64_opt("k", vec![Some(1), None]),
                Column::from_f64("v", vec![1.0, 99.0]),
            ],
        )
        .unwrap();
        let out = left_hard_join(&b, &f, &["k"], &["k"]).unwrap();
        assert_eq!(out.column("v").unwrap().get_f64(0), Some(1.0));
        assert!(
            out.column("v").unwrap().get(1).is_null(),
            "null keys must not match null keys"
        );
    }

    #[test]
    fn name_collisions_are_prefixed() {
        let foreign = Table::new(
            "ext",
            vec![
                Column::from_str("city", vec!["nyc"]),
                Column::from_f64("target", vec![0.5]),
            ],
        )
        .unwrap();
        let out = left_hard_join(&base(), &foreign, &["city"], &["city"]).unwrap();
        assert!(out.column("ext.target").is_ok());
        assert_eq!(
            out.column("target").unwrap().get_f64(0),
            Some(1.0),
            "base column unchanged"
        );
    }

    #[test]
    fn pre_aggregate_noop_for_unique_keys() {
        let foreign = Table::new(
            "f",
            vec![
                Column::from_i64("k", vec![1, 2]),
                Column::from_str("c", vec!["a", "b"]),
            ],
        )
        .unwrap();
        let agg = pre_aggregate(&foreign, &["k"]).unwrap();
        assert_eq!(agg, foreign);
    }

    #[test]
    fn pre_aggregate_mode_for_categoricals() {
        let foreign = Table::new(
            "f",
            vec![
                Column::from_i64("k", vec![1, 1, 1]),
                Column::from_str("c", vec!["x", "y", "x"]),
            ],
        )
        .unwrap();
        let agg = pre_aggregate(&foreign, &["k"]).unwrap();
        assert_eq!(agg.n_rows(), 1);
        assert_eq!(agg.column("c").unwrap().get(0), Value::Str("x".into()));
    }

    #[test]
    fn missing_key_column_errors() {
        let f = Table::new("f", vec![Column::from_i64("k", vec![1])]).unwrap();
        assert!(left_hard_join(&base(), &f, &["nope"], &["k"]).is_err());
        assert!(left_hard_join(&base(), &f, &["city"], &["nope"]).is_err());
    }
}
