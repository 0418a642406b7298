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
use arda_table::{Column, ColumnData, DataType, Key, Table};
use std::collections::HashMap;

/// Cells (rows × columns) below which encoding stays sequential.
const PAR_MIN_CELLS: usize = 1 << 14;

/// Options controlling featurization.
#[derive(Debug, Clone)]
pub struct FeaturizeOptions {
    /// Maximum one-hot categories per string column; less frequent values
    /// share an `__other__` indicator.
    pub max_categories: usize,
    /// Drop numeric columns that are entirely null; `false` keeps each as
    /// an all-zero feature.
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
    featurize_with_sources(table, target, force_classification, opts).map(|(data, _)| data)
}

/// [`featurize`], also returning each feature's source: the index in
/// `table.columns()` of the column it encodes. A one-hot feature is named
/// `<column>=<category>`, so its name alone cannot tell a column whose name
/// contains `=` from a category that does.
pub fn featurize_with_sources(
    table: &Table,
    target: &str,
    force_classification: bool,
    opts: &FeaturizeOptions,
) -> Result<(Dataset, Vec<usize>)> {
    let target_col = table
        .column(target)
        .map_err(|e| MlError::Invalid(e.to_string()))?;
    let n = table.n_rows();
    if n == 0 {
        return Err(MlError::Invalid("cannot featurize an empty table".into()));
    }

    let (y, task) = encode_target(target_col, force_classification);

    // ----- features -----
    // Each source column encodes independently, so the per-column work runs
    // through `par_map` on the ambient work budget; the ordered results are
    // flattened in table column order, matching the sequential encoding
    // exactly at any budget size.
    let feature_cols: Vec<(usize, &Column)> = table
        .columns()
        .iter()
        .enumerate()
        .filter(|(_, c)| c.name() != target)
        .collect();
    let encoded: Vec<Vec<(String, Vec<f64>)>> =
        arda_par::sequential_below(n * feature_cols.len().max(1), PAR_MIN_CELLS, || {
            arda_par::par_map(&feature_cols, |_, (_, col)| encode_column(col, n, opts))
        });

    let mut columns: Vec<Vec<f64>> = Vec::new();
    let mut names: Vec<String> = Vec::new();
    let mut sources: Vec<usize> = Vec::new();
    for ((source, _), block) in feature_cols.iter().zip(encoded) {
        for (name, vals) in block {
            names.push(name);
            columns.push(vals);
            sources.push(*source);
        }
    }

    // Columnar fast path: scatter the per-column buffers straight into the
    // row-major matrix (no per-cell indirection).
    let x = Matrix::from_columns(n, &columns).map_err(|e| MlError::ShapeMismatch(e.to_string()))?;
    Ok((Dataset::new(x, y, names, task)?, sources))
}

/// ARDA's target rule: a Float, Int or Timestamp target (unless
/// `force_classification`) is a regression target, its nulls taking the
/// median; any other target is a classification target. A class is a key
/// of [`Column::keys`], and class ids count keys in order of first
/// appearance. The rows without a key (nulls, and a NaN label under
/// `force_classification`) form one class of their own, apart from every
/// string, `"null"` and `"__null__"` included.
pub fn encode_target(target: &Column, force_classification: bool) -> (Vec<f64>, Task) {
    match target.dtype() {
        DataType::Float | DataType::Int | DataType::Timestamp if !force_classification => {
            let median = target.median().unwrap_or(0.0);
            let y = (0..target.len())
                .map(|i| target.get_f64(i).unwrap_or(median))
                .collect();
            (y, Task::Regression)
        }
        _ => {
            let mut ids: HashMap<Option<Key>, usize> = HashMap::new();
            let y = target
                .keys()
                .into_iter()
                .map(|key| {
                    let next = ids.len();
                    *ids.entry(key).or_insert(next) as f64
                })
                .collect();
            let n_classes = ids.len();
            (y, Task::Classification { n_classes })
        }
    }
}

/// Encode one feature column into zero or more named numeric columns,
/// reading the typed columnar storage directly.
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
    fn sources_name_each_feature_column() {
        let t = Table::new(
            "t",
            vec![
                Column::from_f64("a=b", vec![1.0, 2.0, 3.0]),
                Column::from_f64("y", vec![1.0, 2.0, 3.0]),
                Column::from_str("c", vec!["k=1", "k=2", "k=1"]),
            ],
        )
        .unwrap();
        let (d, sources) = featurize_with_sources(&t, "y", false, &Default::default()).unwrap();
        assert_eq!(d.feature_names, ["a=b", "c=k=1", "c=k=2"]);
        assert_eq!(sources, [0, 2, 2]);
    }

    #[test]
    fn encode_target_rule() {
        // A null is its own class, apart from the string "null".
        let labels = Column::from_str_opt(
            "y",
            vec![
                Some("null".into()),
                None,
                Some("a".into()),
                None,
                Some("null".into()),
            ],
        );
        let (y, task) = encode_target(&labels, false);
        assert_eq!(task, Task::Classification { n_classes: 3 });
        assert_eq!(y, vec![0.0, 1.0, 2.0, 1.0, 0.0]);

        // Nor does the string "__null__" share the null class.
        let labels = Column::from_str_opt(
            "y",
            vec![Some("__null__".into()), None, Some("a".into()), None],
        );
        let (y, task) = encode_target(&labels, false);
        assert_eq!(
            (y, task),
            (
                vec![0.0, 1.0, 2.0, 1.0],
                Task::Classification { n_classes: 3 }
            )
        );
        // Forced classification keys a Timestamp by its tick, and a NaN
        // label joins the null class.
        let ticks = Column::from_timestamps("t", vec![30, 10, 30]);
        let (y, task) = encode_target(&ticks, true);
        assert_eq!(
            (y, task),
            (vec![0.0, 1.0, 0.0], Task::Classification { n_classes: 2 })
        );
        let floats = Column::from_f64_opt("f", vec![Some(f64::NAN), None, Some(1.0)]);
        let (y, task) = encode_target(&floats, true);
        assert_eq!(
            (y, task),
            (vec![0.0, 0.0, 1.0], Task::Classification { n_classes: 2 })
        );

        let (y, task) = encode_target(&Column::from_bool("b", vec![true, false, true]), false);
        assert_eq!(
            (y, task),
            (vec![0.0, 1.0, 0.0], Task::Classification { n_classes: 2 })
        );
        let ints = Column::from_i64_opt("i", vec![Some(7), None, Some(5), Some(9)]);
        let (y, task) = encode_target(&ints, false);
        assert_eq!((y, task), (vec![7.0, 7.0, 5.0, 9.0], Task::Regression));
        let (y, task) = encode_target(&ints, true);
        assert_eq!(
            (y, task),
            (
                vec![0.0, 1.0, 2.0, 3.0],
                Task::Classification { n_classes: 4 }
            )
        );
    }

    #[test]
    fn missing_target_errors() {
        assert!(featurize(&table(), "nope", false, &FeaturizeOptions::default()).is_err());
    }
}
