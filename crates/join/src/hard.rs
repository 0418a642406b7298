//! Hard-key LEFT joins (hash join on exact key equality).

use crate::{joined_block, value_columns, Result};
use arda_table::{GroupBy, Key, Table};
use std::borrow::Cow;
use std::collections::HashMap;

/// Pre-aggregate `foreign` on its key columns so every key maps to exactly
/// one row (ARDA §4 "Join Cardinality": one-to-many / many-to-many joins are
/// reduced to to-one joins by aggregating the foreign side). Numeric columns
/// take group means, categoricals take the group mode
/// ([`GroupBy::aggregate`]). Tables whose keys are already unique are
/// borrowed as-is (cheap check first).
pub fn pre_aggregate<'a>(foreign: &'a Table, keys: &[&str]) -> Result<Cow<'a, Table>> {
    Ok(unique_rows(foreign, keys)?.0)
}

/// [`pre_aggregate`], plus the map from each key to its one row. The keys
/// of a table whose keys are already unique are built only once.
fn unique_rows<'a>(
    foreign: &'a Table,
    keys: &[&str],
) -> Result<(Cow<'a, Table>, HashMap<Key, usize>)> {
    if let Some(index) = row_index(foreign, keys)? {
        return Ok((Cow::Borrowed(foreign), index));
    }
    let aggregated = GroupBy::new(foreign, keys)?.aggregate()?;
    let index = row_index(&aggregated, keys)?.expect("aggregated keys are unique");
    Ok((Cow::Owned(aggregated), index))
}

/// Map each non-null key of `table` to its row, or `None` when a key
/// repeats.
fn row_index(table: &Table, keys: &[&str]) -> Result<Option<HashMap<Key, usize>>> {
    let mut index = HashMap::with_capacity(table.n_rows());
    for (row, key) in table.keys(keys)?.into_iter().enumerate() {
        if let Some(k) = key {
            if index.insert(k, row).is_some() {
                return Ok(None);
            }
        }
    }
    Ok(Some(index))
}

/// LEFT join `base` with `foreign` on exact key equality.
///
/// * Every base row is preserved exactly once (the paper's hard requirement).
/// * The foreign table is pre-aggregated on its keys first, so duplicate
///   foreign keys can never fan out base rows.
/// * Returns the foreign non-key columns, row-aligned with `base` and
///   named as [`crate::execute_join`] describes; the foreign key columns
///   duplicate the base keys and are left out.
/// * Unmatched base rows get nulls (imputation handles them later).
pub fn left_hard_join(
    base: &Table,
    foreign: &Table,
    base_keys: &[&str],
    foreign_keys: &[&str],
) -> Result<Table> {
    let (foreign, index) = unique_rows(foreign, foreign_keys)?;
    let matches: Vec<Option<usize>> = base
        .keys(base_keys)?
        .into_iter()
        .map(|k| index.get(&k?).copied())
        .collect();

    let values = value_columns(&foreign, foreign_keys)
        .into_iter()
        .map(|c| c.take_opt(&matches))
        .collect();
    joined_block(&foreign, base_keys, foreign_keys, values)
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
        let p = out.column("pop[city:city].population").unwrap();
        assert_eq!(p.get_f64(0), Some(8.4));
        assert_eq!(p.get_f64(1), Some(0.7));
        assert_eq!(p.get_f64(2), Some(8.4));
        assert!(p.get(3).is_null(), "sfo has no match → null");
        // Only the value column comes back; the foreign key is left out.
        assert_eq!(out.n_cols(), 1);
    }

    #[test]
    fn one_to_many_pre_aggregates_instead_of_duplicating() {
        let foreign = Table::new(
            "sales",
            vec![
                Column::from_str("city", vec!["nyc", "nyc", "bos", "nyc"]),
                Column::from_f64("amount", vec![10.0, 30.0, 5.0, 20.0]),
                Column::from_i64("qty", vec![1, 2, 3, 6]),
                Column::from_str("clerk", vec!["x", "y", "z", "y"]),
            ],
        )
        .unwrap();
        let out = left_hard_join(&base(), &foreign, &["city"], &["city"]).unwrap();
        assert_eq!(out.n_rows(), 4, "base rows must never fan out");
        // Every value column is aggregated per key: nyc amount =
        // mean(10, 30, 20) = 20, qty = mean(1, 2, 6) = 3, clerk = mode y.
        let col = |name: &str| out.column(&format!("sales[city:city].{name}")).unwrap();
        let rows = |name: &str| col(name).iter().collect::<Vec<Value>>();
        assert_eq!(col("amount").get_f64(0), Some(20.0));
        let (three, null) = (Value::Float(3.0), Value::Null);
        assert_eq!(rows("qty"), [three.clone(), three.clone(), three, null]);
        let (y, z) = (Value::Str("y".into()), Value::Str("z".into()));
        assert_eq!(rows("clerk"), [y.clone(), z, y, Value::Null]);
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
        let v = out.column("f[a+b:a+b].v").unwrap();
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
        let v = out.column("f[k:k].v").unwrap();
        assert_eq!(v.get_f64(0), Some(1.0));
        assert!(v.get(1).is_null(), "null keys must not match null keys");
    }

    #[test]
    fn foreign_column_named_like_a_base_column_arrives_labelled() {
        let foreign = Table::new(
            "ext",
            vec![
                Column::from_str("city", vec!["nyc"]),
                Column::from_f64("target", vec![0.5]),
            ],
        )
        .unwrap();
        let block = left_hard_join(&base(), &foreign, &["city"], &["city"]).unwrap();
        let out = base().hstack(&block).unwrap();
        assert_eq!(
            out.column("ext[city:city].target").unwrap().get_f64(0),
            Some(0.5)
        );
        assert_eq!(
            out.column("target").unwrap(),
            base().column("target").unwrap(),
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
        assert!(matches!(agg, Cow::Borrowed(t) if std::ptr::eq(t, &foreign)));
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
    fn negative_zero_key_matches_zero() {
        let b = Table::new("b", vec![Column::from_f64("k", vec![-0.0, 1.0])]).unwrap();
        let f = Table::new(
            "f",
            vec![
                Column::from_f64("k", vec![0.0, 1.0]),
                Column::from_f64("v", vec![5.0, 7.0]),
            ],
        )
        .unwrap();
        let out = left_hard_join(&b, &f, &["k"], &["k"]).unwrap();
        assert_eq!(out.column("f[k:k].v").unwrap().get_f64(0), Some(5.0));

        // The two zeros are one group, so they join as one row.
        let dup = Table::new(
            "g",
            vec![
                Column::from_f64("k", vec![0.0, -0.0]),
                Column::from_f64("v", vec![2.0, 4.0]),
            ],
        )
        .unwrap();
        let (keys, rows) = GroupBy::new(&dup, &["k"]).unwrap().groups().unwrap();
        assert_eq!((keys.len(), rows), (1, vec![vec![0, 1]]));
        let out = left_hard_join(&b, &dup, &["k"], &["k"]).unwrap();
        assert_eq!(out.column("g[k:k].v").unwrap().get_f64(0), Some(3.0));
    }

    #[test]
    fn missing_key_column_errors() {
        let f = Table::new("f", vec![Column::from_i64("k", vec![1])]).unwrap();
        assert!(left_hard_join(&base(), &f, &["nope"], &["k"]).is_err());
        assert!(left_hard_join(&base(), &f, &["city"], &["nope"]).is_err());
    }
}
