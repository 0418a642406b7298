//! Table → [`Dataset`] conversion ("feature formatting" in Figure 1).
//!
//! ARDA "binarizes categorical features into a set of numerical features"
//! (§3.1) before sketching or model training. This module implements that
//! conversion: numeric columns pass through (nulls imputed with the column
//! median), string columns are one-hot encoded up to a cardinality cap
//! (rarer values fall into an `__other__` bucket), and the designated target
//! column becomes `y` (class ids for classification, raw values for
//! regression).

use crate::{Dataset, MlError, Result, Task};
use arda_linalg::Matrix;
use arda_table::{Column, ColumnData, DataType, Table};
use std::collections::HashMap;

/// Cells (rows × columns) below which encoding stays sequential.
const PAR_MIN_CELLS: usize = 1 << 14;

/// Options controlling featurization.
#[derive(Debug, Clone)]
pub struct FeaturizeOptions {
    /// Maximum one-hot categories per string column; less frequent values
    /// share an `__other__` indicator.
    pub max_categories: usize,
    /// Drop numeric columns that are entirely null instead of erroring.
    pub drop_all_null: bool,
}

impl Default for FeaturizeOptions {
    fn default() -> Self {
        FeaturizeOptions {
            max_categories: 16,
            drop_all_null: true,
        }
    }
}

/// Convert `table` into a [`Dataset`] predicting `target`.
///
/// The task is inferred from the target column: string/bool targets (or
/// integer targets when `force_classification`) become classification with
/// labels mapped to contiguous class ids; float targets become regression.
pub fn featurize(
    table: &Table,
    target: &str,
    force_classification: bool,
    opts: &FeaturizeOptions,
) -> Result<Dataset> {
    let target_col = table
        .column(target)
        .map_err(|e| MlError::Invalid(e.to_string()))?;
    let n = table.n_rows();
    if n == 0 {
        return Err(MlError::Invalid("cannot featurize an empty table".into()));
    }

    // ----- target -----
    let (y, task) = match target_col.dtype() {
        DataType::Float if !force_classification => {
            let mut y = Vec::with_capacity(n);
            let median = target_col.median().unwrap_or(0.0);
            for i in 0..n {
                y.push(target_col.get_f64(i).unwrap_or(median));
            }
            (y, Task::Regression)
        }
        DataType::Int | DataType::Timestamp if !force_classification => {
            let median = target_col.median().unwrap_or(0.0);
            let y = (0..n)
                .map(|i| target_col.get_f64(i).unwrap_or(median))
                .collect();
            (y, Task::Regression)
        }
        _ => {
            // Map distinct label values to contiguous class ids.
            let mut ids: HashMap<String, usize> = HashMap::new();
            let mut y = Vec::with_capacity(n);
            for i in 0..n {
                let v = target_col.get(i);
                let label = if v.is_null() {
                    "__null__".to_string()
                } else {
                    v.to_string()
                };
                let next = ids.len();
                let id = *ids.entry(label).or_insert(next);
                y.push(id as f64);
            }
            let k = ids.len();
            (y, Task::Classification { n_classes: k })
        }
    };

    // ----- features -----
    // Each source column encodes independently, so the per-column work runs
    // through `par_map` on the ambient work budget; the ordered results are
    // flattened in table column order, matching the sequential encoding
    // exactly at any budget size.
    let feature_cols: Vec<&Column> = table
        .columns()
        .iter()
        .filter(|c| c.name() != target)
        .collect();
    let encoded: Vec<Vec<(String, Vec<f64>)>> =
        arda_par::sequential_below(n * feature_cols.len().max(1), PAR_MIN_CELLS, || {
            arda_par::par_map(&feature_cols, |_, col| encode_column(col, n, opts))
        });

    let mut columns: Vec<Vec<f64>> = Vec::new();
    let mut names: Vec<String> = Vec::new();
    for (name, vals) in encoded.into_iter().flatten() {
        names.push(name);
        columns.push(vals);
    }

    // Columnar fast path: scatter the per-column buffers straight into the
    // row-major matrix (no per-cell indirection).
    let x = Matrix::from_columns(n, &columns).map_err(|e| MlError::ShapeMismatch(e.to_string()))?;
    Dataset::new(x, y, names, task)
}

/// Encode one feature column into zero or more named numeric columns,
/// reading the columnar storage directly (no per-cell [`arda_table::Value`]
/// boxing).
fn encode_column(col: &Column, n: usize, opts: &FeaturizeOptions) -> Vec<(String, Vec<f64>)> {
    match col.data() {
        ColumnData::Str(values) => {
            // Frequency-ranked one-hot encoding.
            let mut counts: HashMap<&str, usize> = HashMap::new();
            for v in values.iter().flatten() {
                *counts.entry(v.as_str()).or_insert(0) += 1;
            }
            let mut ranked: Vec<(&str, usize)> = counts.into_iter().collect();
            ranked.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(b.0)));
            let kept: Vec<&str> = ranked
                .iter()
                .take(opts.max_categories)
                .map(|(s, _)| *s)
                .collect();
            let has_other = ranked.len() > kept.len();
            let mut out = Vec::with_capacity(kept.len() + has_other as usize);
            for cat in &kept {
                let mut indicator = vec![0.0; n];
                for (i, v) in values.iter().enumerate() {
                    if v.as_deref() == Some(*cat) {
                        indicator[i] = 1.0;
                    }
                }
                out.push((format!("{}={}", col.name(), cat), indicator));
            }
            if has_other {
                let mut indicator = vec![0.0; n];
                for (i, v) in values.iter().enumerate() {
                    if let Some(v) = v.as_deref() {
                        if !kept.contains(&v) {
                            indicator[i] = 1.0;
                        }
                    }
                }
                out.push((format!("{}=__other__", col.name()), indicator));
            }
            out
        }
        data => match col.median() {
            None => {
                if opts.drop_all_null {
                    Vec::new()
                } else {
                    vec![(col.name().to_string(), vec![0.0; n])]
                }
            }
            Some(med) => {
                let vals: Vec<f64> = match data {
                    ColumnData::Float(v) => v.iter().map(|x| x.unwrap_or(med)).collect(),
                    ColumnData::Int(v) | ColumnData::Timestamp(v) => {
                        v.iter().map(|x| x.map_or(med, |x| x as f64)).collect()
                    }
                    ColumnData::Bool(v) => v
                        .iter()
                        .map(|x| x.map_or(med, |b| if b { 1.0 } else { 0.0 }))
                        .collect(),
                    ColumnData::Str(_) => unreachable!("handled above"),
                };
                vec![(col.name().to_string(), vals)]
            }
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use arda_table::Column;

    fn table() -> Table {
        Table::new(
            "t",
            vec![
                Column::from_f64_opt("num", vec![Some(1.0), None, Some(3.0), Some(2.0)]),
                Column::from_str("cat", vec!["a", "b", "a", "c"]),
                Column::from_f64("target", vec![0.1, 0.2, 0.3, 0.4]),
                Column::from_str("label", vec!["x", "y", "x", "y"]),
            ],
        )
        .unwrap()
    }

    #[test]
    fn regression_target_from_float() {
        let d = featurize(&table(), "target", false, &FeaturizeOptions::default()).unwrap();
        assert_eq!(d.task, Task::Regression);
        assert_eq!(d.y, vec![0.1, 0.2, 0.3, 0.4]);
        // num + cat one-hots (3) + label one-hots (2) = 6
        assert_eq!(d.n_features(), 6);
    }

    #[test]
    fn classification_target_from_string() {
        let d = featurize(&table(), "label", false, &FeaturizeOptions::default()).unwrap();
        assert_eq!(d.task, Task::Classification { n_classes: 2 });
        assert_eq!(d.y, vec![0.0, 1.0, 0.0, 1.0]);
    }

    #[test]
    fn force_classification_on_numeric() {
        let t = Table::new(
            "t",
            vec![
                Column::from_f64("f", vec![1.0, 2.0]),
                Column::from_i64("cls", vec![10, 20]),
            ],
        )
        .unwrap();
        let d = featurize(&t, "cls", true, &FeaturizeOptions::default()).unwrap();
        assert!(d.task.is_classification());
        assert_eq!(d.y, vec![0.0, 1.0]);
    }

    #[test]
    fn nulls_imputed_with_median() {
        let d = featurize(&table(), "target", false, &FeaturizeOptions::default()).unwrap();
        let num_idx = d.feature_names.iter().position(|n| n == "num").unwrap();
        // median of {1,3,2} = 2
        assert_eq!(d.x.get(1, num_idx), 2.0);
    }

    #[test]
    fn one_hot_names_and_values() {
        let d = featurize(&table(), "target", false, &FeaturizeOptions::default()).unwrap();
        let a_idx = d.feature_names.iter().position(|n| n == "cat=a").unwrap();
        assert_eq!(d.x.col(a_idx), vec![1.0, 0.0, 1.0, 0.0]);
    }

    #[test]
    fn category_cap_creates_other_bucket() {
        let t = Table::new(
            "t",
            vec![
                Column::from_str("c", vec!["a", "a", "b", "c", "d"]),
                Column::from_f64("y", vec![1.0, 2.0, 3.0, 4.0, 5.0]),
            ],
        )
        .unwrap();
        let opts = FeaturizeOptions {
            max_categories: 2,
            drop_all_null: true,
        };
        let d = featurize(&t, "y", false, &opts).unwrap();
        assert!(d.feature_names.iter().any(|n| n == "c=__other__"));
        // a (2×) kept; one of b/c/d kept; rest in other.
        assert_eq!(d.n_features(), 3);
    }

    #[test]
    fn all_null_numeric_dropped() {
        let t = Table::new(
            "t",
            vec![
                Column::from_f64_opt("dead", vec![None, None]),
                Column::from_f64("y", vec![1.0, 2.0]),
            ],
        )
        .unwrap();
        let d = featurize(&t, "y", false, &FeaturizeOptions::default()).unwrap();
        assert_eq!(d.n_features(), 0);
        let opts = FeaturizeOptions {
            drop_all_null: false,
            ..Default::default()
        };
        let d2 = featurize(&t, "y", false, &opts).unwrap();
        assert_eq!(d2.n_features(), 1);
    }

    #[test]
    fn missing_target_errors() {
        assert!(featurize(&table(), "nope", false, &FeaturizeOptions::default()).is_err());
    }
}
