//! Group-by aggregation.
//!
//! ARDA pre-aggregates foreign tables on their join keys to turn one-to-many
//! and many-to-many joins into one-to-one / many-to-one joins (§4 "Join
//! Cardinality"), and resamples time-series tables to a coarser granularity
//! (§4 "Time-Resampling"). Both reduce to the group-by implemented here.

use crate::{Column, ColumnData, DataType, Key, Result, Table, TableError, Value};
use std::collections::HashMap;

/// Cells (rows × aggregated columns) below which aggregation stays
/// sequential.
const PAR_MIN_AGG_CELLS: usize = 1 << 14;

/// Aggregation functions applicable to a grouped column.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Aggregation {
    /// Arithmetic mean of non-null numeric values.
    Mean,
    /// Sum of non-null numeric values.
    Sum,
    /// Minimum non-null value.
    Min,
    /// Maximum non-null value.
    Max,
    /// Number of non-null values.
    Count,
    /// Median of non-null numeric values.
    Median,
    /// Most frequent non-null value (ties broken by first appearance) —
    /// used for categorical columns when resampling.
    Mode,
    /// First non-null value in the group.
    First,
}

impl Aggregation {
    /// Default aggregation for a column dtype (mean for numeric, mode for
    /// strings), mirroring ARDA's resampling defaults.
    pub fn default_for(dtype: DataType) -> Aggregation {
        if dtype.is_numeric() {
            Aggregation::Mean
        } else {
            Aggregation::Mode
        }
    }
}

/// One aggregation request: `column` → `agg`, optionally renamed via `alias`.
#[derive(Debug, Clone)]
pub struct AggExpr {
    /// Source column name.
    pub column: String,
    /// Aggregation to apply.
    pub agg: Aggregation,
    /// Output column name; defaults to the source name (deduplicated with an
    /// aggregation suffix when several expressions target one column).
    pub alias: Option<String>,
}

impl AggExpr {
    /// Convenience constructor.
    pub fn new(column: impl Into<String>, agg: Aggregation) -> Self {
        AggExpr {
            column: column.into(),
            agg,
            alias: None,
        }
    }

    /// Set the output column name.
    pub fn with_alias(mut self, alias: impl Into<String>) -> Self {
        self.alias = Some(alias.into());
        self
    }
}

fn agg_suffix(agg: Aggregation) -> &'static str {
    match agg {
        Aggregation::Mean => "mean",
        Aggregation::Sum => "sum",
        Aggregation::Min => "min",
        Aggregation::Max => "max",
        Aggregation::Count => "count",
        Aggregation::Median => "median",
        Aggregation::Mode => "mode",
        Aggregation::First => "first",
    }
}

/// Lazily built group-by operation over a table.
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

    /// Apply aggregations, producing one output row per group. The key
    /// columns are carried through using their first-row values.
    pub fn aggregate(&self, exprs: &[AggExpr]) -> Result<Table> {
        let (_, groups) = self.groups()?;
        let mut out_cols: Vec<Column> = Vec::new();

        for key_name in &self.key_columns {
            let src = self.table.column(key_name)?;
            let first_rows: Vec<usize> = groups.iter().map(|g| g[0]).collect();
            out_cols.push(src.take(&first_rows));
        }

        // Output names dedupe sequentially (order-dependent), then each
        // aggregated column computes independently: the scan over all
        // groups × columns — ARDA's pre-aggregation hot loop for
        // high-cardinality foreign tables — fans out per column on the
        // ambient `arda-par` work budget, with results folded back in
        // expression order (identical to the sequential loop at any
        // budget).
        let mut used: std::collections::HashSet<String> =
            out_cols.iter().map(|c| c.name().to_string()).collect();
        let mut jobs: Vec<(&Column, Aggregation, String)> = Vec::with_capacity(exprs.len());
        for expr in exprs {
            let src = self.table.column(&expr.column)?;
            let mut name = expr.alias.clone().unwrap_or_else(|| expr.column.clone());
            if used.contains(&name) {
                name = format!("{}_{}", expr.column, agg_suffix(expr.agg));
            }
            let mut salt = 2usize;
            while used.contains(&name) {
                name = format!("{}_{}_{salt}", expr.column, agg_suffix(expr.agg));
                salt += 1;
            }
            used.insert(name.clone());
            jobs.push((src, expr.agg, name));
        }
        let cells = self.table.n_rows() * jobs.len().max(1);
        let agg_cols = arda_par::sequential_below(cells, PAR_MIN_AGG_CELLS, || {
            arda_par::par_map(&jobs, |_, (src, agg, name)| {
                aggregate_column(src, &groups, *agg, name)
            })
        });
        for col in agg_cols {
            out_cols.push(col?);
        }

        Table::new(self.table.name().to_string(), out_cols)
    }

    /// Aggregate every non-key column with its dtype default (mean/mode).
    /// This is the ARDA pre-aggregation used before high-cardinality joins.
    pub fn aggregate_default(&self) -> Result<Table> {
        let exprs: Vec<AggExpr> = self
            .table
            .columns()
            .iter()
            .filter(|c| !self.key_columns.iter().any(|k| k == c.name()))
            .map(|c| AggExpr::new(c.name(), Aggregation::default_for(c.dtype())))
            .collect();
        self.aggregate(&exprs)
    }
}

fn aggregate_column(
    src: &Column,
    groups: &[Vec<usize>],
    agg: Aggregation,
    name: &str,
) -> Result<Column> {
    match agg {
        Aggregation::Mean | Aggregation::Sum | Aggregation::Median => {
            if !src.dtype().is_numeric() {
                return Err(TableError::TypeMismatch {
                    column: name.to_string(),
                    expected: "numeric".into(),
                    actual: src.dtype().to_string(),
                });
            }
            let mut out = Vec::with_capacity(groups.len());
            for g in groups {
                let vals: Vec<f64> = g.iter().filter_map(|&i| src.get_f64(i)).collect();
                out.push(if vals.is_empty() {
                    None
                } else {
                    Some(match agg {
                        Aggregation::Sum => vals.iter().sum(),
                        Aggregation::Mean => vals.iter().sum::<f64>() / vals.len() as f64,
                        Aggregation::Median => median_of(vals),
                        _ => unreachable!(),
                    })
                });
            }
            Ok(Column::new(name, ColumnData::Float(out)))
        }
        Aggregation::Count => {
            let out: Vec<Option<i64>> = groups
                .iter()
                .map(|g| Some(g.iter().filter(|&&i| !src.get(i).is_null()).count() as i64))
                .collect();
            Ok(Column::new(name, ColumnData::Int(out)))
        }
        Aggregation::Min | Aggregation::Max => {
            let mut out: Vec<Value> = Vec::with_capacity(groups.len());
            for g in groups {
                let mut best: Option<Value> = None;
                for &i in g {
                    let v = src.get(i);
                    if v.is_null() {
                        continue;
                    }
                    best = Some(match best {
                        None => v,
                        Some(b) => {
                            let keep_new = match agg {
                                Aggregation::Min => v.total_cmp(&b).is_lt(),
                                _ => v.total_cmp(&b).is_gt(),
                            };
                            if keep_new {
                                v
                            } else {
                                b
                            }
                        }
                    });
                }
                out.push(best.unwrap_or(Value::Null));
            }
            Column::from_values(name, src.dtype(), out)
        }
        Aggregation::Mode => {
            let mut out: Vec<Value> = Vec::with_capacity(groups.len());
            for g in groups {
                out.push(mode_of(src, g));
            }
            Column::from_values(name, src.dtype(), out)
        }
        Aggregation::First => {
            let mut out: Vec<Value> = Vec::with_capacity(groups.len());
            for g in groups {
                out.push(
                    g.iter()
                        .map(|&i| src.get(i))
                        .find(|v| !v.is_null())
                        .unwrap_or(Value::Null),
                );
            }
            Column::from_values(name, src.dtype(), out)
        }
    }
}

fn median_of(mut vals: Vec<f64>) -> f64 {
    vals.sort_by(|a, b| a.total_cmp(b));
    let mid = vals.len() / 2;
    if vals.len().is_multiple_of(2) {
        (vals[mid - 1] + vals[mid]) / 2.0
    } else {
        vals[mid]
    }
}

fn mode_of(src: &Column, rows: &[usize]) -> Value {
    let mut counts: HashMap<Key, (usize, usize)> = HashMap::new(); // key -> (count, first_pos)
    let mut values: HashMap<Key, Value> = HashMap::new();
    for (pos, &i) in rows.iter().enumerate() {
        let v = src.get(i);
        if let Some(k) = v.key() {
            let e = counts.entry(k.clone()).or_insert((0, pos));
            e.0 += 1;
            values.entry(k).or_insert(v);
        }
    }
    counts
        .into_iter()
        .max_by(|a, b| a.1 .0.cmp(&b.1 .0).then(b.1 .1.cmp(&a.1 .1)))
        .and_then(|(k, _)| values.remove(&k))
        .unwrap_or(Value::Null)
}

#[cfg(test)]
mod tests {
    use super::*;

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
        let t = sample();
        let gb = GroupBy::new(&t, &["store"]).unwrap();
        let out = gb
            .aggregate(&[
                AggExpr::new("amount", Aggregation::Mean),
                AggExpr::new("amount", Aggregation::Count),
            ])
            .unwrap();
        // aggregate uses the source column name; second gets renamed on hstack
        // use positional access here.
        assert_eq!(out.n_rows(), 2);
        let mean = out.column_at(1).unwrap();
        assert_eq!(mean.get_f64(0), Some(30.0));
        assert_eq!(mean.get_f64(1), Some(30.0));
        let count = out.column_at(2).unwrap();
        assert_eq!(count.get(0), Value::Int(3));
    }

    #[test]
    fn duplicate_agg_columns_get_suffixed_names() {
        let t = sample();
        let gb = GroupBy::new(&t, &["store"]).unwrap();
        let out = gb
            .aggregate(&[
                AggExpr::new("amount", Aggregation::Mean),
                AggExpr::new("amount", Aggregation::Sum),
            ])
            .unwrap();
        assert!(out.column("amount").is_ok());
        assert_eq!(out.column("amount_sum").unwrap().get_f64(0), Some(90.0));
    }

    #[test]
    fn alias_renames_output() {
        let t = sample();
        let gb = GroupBy::new(&t, &["store"]).unwrap();
        let out = gb
            .aggregate(&[AggExpr::new("amount", Aggregation::Mean).with_alias("avg_amount")])
            .unwrap();
        assert!(out.column("avg_amount").is_ok());
    }

    #[test]
    fn min_max_median() {
        let t = sample();
        let gb = GroupBy::new(&t, &["store"]).unwrap();
        let out = gb
            .aggregate(&[AggExpr::new("amount", Aggregation::Max)])
            .unwrap();
        assert_eq!(out.column("amount").unwrap().get_f64(0), Some(50.0));
        let out = gb
            .aggregate(&[AggExpr::new("amount", Aggregation::Min)])
            .unwrap();
        assert_eq!(out.column("amount").unwrap().get_f64(1), Some(20.0));
        let out = gb
            .aggregate(&[AggExpr::new("amount", Aggregation::Median)])
            .unwrap();
        assert_eq!(out.column("amount").unwrap().get_f64(0), Some(30.0));
    }

    #[test]
    fn mode_picks_most_frequent() {
        let t = sample();
        let gb = GroupBy::new(&t, &["store"]).unwrap();
        let out = gb
            .aggregate(&[AggExpr::new("clerk", Aggregation::Mode)])
            .unwrap();
        assert_eq!(out.column("clerk").unwrap().get(0), Value::Str("x".into()));
    }

    #[test]
    fn aggregate_default_covers_all_non_key_columns() {
        let t = sample();
        let gb = GroupBy::new(&t, &["store"]).unwrap();
        let out = gb.aggregate_default().unwrap();
        assert_eq!(out.n_cols(), 3); // store + amount(mean) + clerk(mode)
        assert_eq!(out.n_rows(), 2);
        assert_eq!(out.column("amount").unwrap().get_f64(0), Some(30.0));
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
        let gb = GroupBy::new(&t, &["k"]).unwrap();
        let out = gb
            .aggregate(&[AggExpr::new("v", Aggregation::Sum)])
            .unwrap();
        assert_eq!(out.n_rows(), 1);
        assert_eq!(out.column("v").unwrap().get_f64(0), Some(4.0));
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
        let gb = GroupBy::new(&t, &["a", "b"]).unwrap();
        let out = gb
            .aggregate(&[AggExpr::new("v", Aggregation::Mean)])
            .unwrap();
        assert_eq!(out.n_rows(), 2);
        assert_eq!(out.column("v").unwrap().get_f64(0), Some(2.0));
    }

    #[test]
    fn mean_on_string_column_errors() {
        let t = sample();
        let gb = GroupBy::new(&t, &["store"]).unwrap();
        assert!(gb
            .aggregate(&[AggExpr::new("clerk", Aggregation::Mean)])
            .is_err());
    }

    #[test]
    fn first_skips_nulls() {
        let t = Table::new(
            "t",
            vec![
                Column::from_i64("k", vec![1, 1]),
                Column::from_f64_opt("v", vec![None, Some(7.0)]),
            ],
        )
        .unwrap();
        let gb = GroupBy::new(&t, &["k"]).unwrap();
        let out = gb
            .aggregate(&[AggExpr::new("v", Aggregation::First)])
            .unwrap();
        assert_eq!(out.column("v").unwrap().get_f64(0), Some(7.0));
    }
}
