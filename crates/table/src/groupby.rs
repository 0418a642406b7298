//! ARDA's group-by pre-aggregation.
//!
//! ARDA pre-aggregates foreign tables on their join keys to turn one-to-many
//! and many-to-many joins into one-to-one / many-to-one joins (§4 "Join
//! Cardinality"), and resamples time-series tables to a coarser granularity
//! (§4 "Time-Resampling"). Both aggregate one way: numeric columns take
//! the group mean, other columns the group mode.

use crate::{Column, ColumnData, Key, Result, Table};
use std::collections::HashMap;

/// Group-by on key columns of a table, aggregated by ARDA's mean/mode rule.
pub struct GroupBy<'a> {
    table: &'a Table,
    key_columns: Vec<String>,
}

impl<'a> GroupBy<'a> {
    /// Start a group-by on the given key columns.
    pub fn new(table: &'a Table, key_columns: &[&str]) -> Result<Self> {
        for k in key_columns {
            table.column(k)?;
        }
        Ok(GroupBy {
            table,
            key_columns: key_columns.iter().map(|s| s.to_string()).collect(),
        })
    }

    /// Group rows by key; returns (group keys in first-appearance order,
    /// row-index lists per group). Rows with null keys are dropped, matching
    /// SQL GROUP BY over join keys.
    pub fn groups(&self) -> Result<(Vec<Key>, Vec<Vec<usize>>)> {
        let names: Vec<&str> = self.key_columns.iter().map(String::as_str).collect();
        let keys = self.table.keys(&names)?;
        let mut order: Vec<Key> = Vec::new();
        let mut index: HashMap<Key, usize> = HashMap::new();
        let mut rows: Vec<Vec<usize>> = Vec::new();
        for (i, k) in keys.into_iter().enumerate() {
            let Some(k) = k else { continue };
            match index.get(&k) {
                Some(&g) => rows[g].push(i),
                None => {
                    index.insert(k.clone(), rows.len());
                    order.push(k);
                    rows.push(vec![i]);
                }
            }
        }
        Ok((order, rows))
    }

    /// ARDA's pre-aggregation: one output row per group. Key columns
    /// carry their first-row values; every other column keeps its name and
    /// takes the group mean of its non-null values if numeric, else the
    /// group mode (ties broken by first appearance; null for a group of
    /// nulls).
    pub fn aggregate(&self) -> Result<Table> {
        let (_, groups) = self.groups()?;
        let first_rows: Vec<usize> = groups.iter().map(|g| g[0]).collect();
        let mut out_cols: Vec<Column> = Vec::new();
        for key_name in &self.key_columns {
            out_cols.push(self.table.column(key_name)?.take(&first_rows));
        }
        out_cols.extend(
            self.table
                .columns()
                .iter()
                .filter(|c| !self.key_columns.iter().any(|k| k == c.name()))
                .map(|src| aggregate_column(src, &groups)),
        );

        Table::new(self.table.name().to_string(), out_cols)
    }
}

fn aggregate_column(src: &Column, groups: &[Vec<usize>]) -> Column {
    if let ColumnData::Str(values) = src.data() {
        let modes: Vec<Option<usize>> = groups.iter().map(|g| mode_row(values, g)).collect();
        return src.take_opt(&modes);
    }
    let means = groups
        .iter()
        .map(|g| {
            let vals: Vec<f64> = g.iter().filter_map(|&i| src.get_f64(i)).collect();
            (!vals.is_empty()).then(|| vals.iter().sum::<f64>() / vals.len() as f64)
        })
        .collect();
    Column::new(src.name(), ColumnData::Float(means))
}

/// The first of `rows` holding their most frequent non-null value (ties go
/// to the value seen first), or `None` when every value is null.
fn mode_row(values: &[Option<String>], rows: &[usize]) -> Option<usize> {
    let mut counts: HashMap<&str, (usize, usize)> = HashMap::new(); // value -> (count, first row)
    for &i in rows {
        if let Some(v) = &values[i] {
            counts.entry(v).or_insert((0, i)).0 += 1;
        }
    }
    counts
        .into_values()
        .max_by(|a, b| a.0.cmp(&b.0).then(b.1.cmp(&a.1)))
        .map(|(_, row)| row)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Value;

    fn sample() -> Table {
        Table::new(
            "sales",
            vec![
                Column::from_str("store", vec!["a", "b", "a", "a", "b"]),
                Column::from_f64("amount", vec![10.0, 20.0, 30.0, 50.0, 40.0]),
                Column::from_str("clerk", vec!["x", "y", "x", "z", "y"]),
            ],
        )
        .unwrap()
    }

    #[test]
    fn groups_preserve_first_appearance_order() {
        let t = sample();
        let gb = GroupBy::new(&t, &["store"]).unwrap();
        let (keys, rows) = gb.groups().unwrap();
        assert_eq!(keys.len(), 2);
        assert_eq!(rows[0], vec![0, 2, 3]); // store "a"
        assert_eq!(rows[1], vec![1, 4]); // store "b"
    }

    #[test]
    fn mean_sum_count() {
        // The mean is the sum over the count of non-null values.
        let t = Table::new(
            "t",
            vec![
                Column::from_i64("k", vec![1, 1, 1, 2]),
                Column::from_f64_opt("v", vec![Some(10.0), None, Some(30.0), None]),
            ],
        )
        .unwrap();
        let out = GroupBy::new(&t, &["k"]).unwrap().aggregate().unwrap();
        assert_eq!(out.column("v").unwrap().get_f64(0), Some(20.0));
        assert!(out.column("v").unwrap().get(1).is_null());
    }

    #[test]
    fn mode_picks_most_frequent() {
        let t = sample();
        let out = GroupBy::new(&t, &["store"]).unwrap().aggregate().unwrap();
        assert_eq!(out.column("clerk").unwrap().get(0), Value::Str("x".into()));

        // Group 1 ties "q" and "p" twice each: "q" is seen first. Group 2
        // holds only nulls, so its mode is null.
        let some = |s: &str| Some(s.to_string());
        let t = Table::new(
            "t",
            vec![
                Column::from_i64("k", vec![1, 1, 2, 1, 2, 1]),
                Column::from_str_opt(
                    "c",
                    vec![some("q"), some("p"), None, some("p"), None, some("q")],
                ),
            ],
        )
        .unwrap();
        let out = GroupBy::new(&t, &["k"]).unwrap().aggregate().unwrap();
        let c = out.column("c").unwrap();
        assert_eq!(c.get(0), Value::Str("q".into()));
        assert!(c.get(1).is_null());
    }

    #[test]
    fn aggregate_default_covers_all_non_key_columns() {
        let t = sample();
        let out = GroupBy::new(&t, &["store"]).unwrap().aggregate().unwrap();
        assert_eq!(out.n_cols(), 3); // store + amount(mean) + clerk(mode)
        assert_eq!(out.n_rows(), 2);
        assert_eq!(out.column("amount").unwrap().get_f64(0), Some(30.0));
        assert_eq!(out.column("amount").unwrap().get_f64(1), Some(30.0));
    }

    #[test]
    fn null_keys_are_dropped() {
        let t = Table::new(
            "t",
            vec![
                Column::from_i64_opt("k", vec![Some(1), None, Some(1)]),
                Column::from_f64("v", vec![1.0, 2.0, 3.0]),
            ],
        )
        .unwrap();
        let out = GroupBy::new(&t, &["k"]).unwrap().aggregate().unwrap();
        assert_eq!(out.n_rows(), 1);
        assert_eq!(out.column("v").unwrap().get_f64(0), Some(2.0));
    }

    #[test]
    fn composite_key_grouping() {
        let t = Table::new(
            "t",
            vec![
                Column::from_i64("a", vec![1, 1, 2]),
                Column::from_str("b", vec!["x", "x", "x"]),
                Column::from_f64("v", vec![1.0, 3.0, 5.0]),
            ],
        )
        .unwrap();
        let out = GroupBy::new(&t, &["a", "b"]).unwrap().aggregate().unwrap();
        assert_eq!(out.n_rows(), 2);
        assert_eq!(out.column("v").unwrap().get_f64(0), Some(2.0));
    }
}
