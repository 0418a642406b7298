//! Missing-value imputation (ARDA §4 "Imputation").
//!
//! LEFT joins introduce nulls for unmatched base rows. Following the paper,
//! imputation is deliberately simple and fast. A column with some (but not
//! all) nulls is filled in its own type from its non-null values:
//!
//! * `Float` takes the median;
//! * `Int` and `Timestamp` take the median rounded to the nearest integer
//!   (halves away from zero);
//! * `Bool` takes `median >= 0.5` over false = 0 / true = 1, so an even
//!   split fills `true`;
//! * `Str` takes a uniform random draw from the observed values, one draw
//!   per null in row order, columns in table order.

use crate::Result;
use arda_table::{Column, ColumnData, Table};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Impute all nulls in `table`. Returns the imputed table and the number of
/// cells filled. Columns that are entirely null are left untouched (there is
/// nothing to impute from — drop them during featurization instead).
pub fn impute(table: &Table, seed: u64) -> Result<(Table, usize)> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out = Table::empty(table.name().to_string());
    let mut filled = 0usize;

    for col in table.columns() {
        let nulls = col.null_count();
        if nulls == 0 || nulls == col.len() {
            out.add_column(col.clone())?;
            continue;
        }
        filled += nulls;
        let median = || col.median().expect("non-null values exist");
        let data = match col.data() {
            ColumnData::Float(v) => ColumnData::Float(fill(v, median())),
            ColumnData::Int(v) => ColumnData::Int(fill(v, median().round() as i64)),
            ColumnData::Timestamp(v) => ColumnData::Timestamp(fill(v, median().round() as i64)),
            ColumnData::Bool(v) => ColumnData::Bool(fill(v, median() >= 0.5)),
            ColumnData::Str(v) => {
                let observed: Vec<&String> = v.iter().flatten().collect();
                let mut draw = || observed[rng.gen_range(0..observed.len())].clone();
                ColumnData::Str(
                    v.iter()
                        .map(|x| Some(x.clone().unwrap_or_else(&mut draw)))
                        .collect(),
                )
            }
        };
        out.add_column(Column::new(col.name(), data))?;
    }
    Ok((out, filled))
}

/// `values` with every null replaced by `with`.
fn fill<T: Clone>(values: &[Option<T>], with: T) -> Vec<Option<T>> {
    values
        .iter()
        .map(|x| Some(x.clone().unwrap_or_else(|| with.clone())))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use arda_table::Value;

    #[test]
    fn numeric_nulls_take_median() {
        let t = Table::new(
            "t",
            vec![Column::from_f64_opt(
                "x",
                vec![Some(1.0), None, Some(3.0), Some(10.0)],
            )],
        )
        .unwrap();
        let (out, filled) = impute(&t, 0).unwrap();
        assert_eq!(filled, 1);
        assert_eq!(out.column("x").unwrap().get_f64(1), Some(3.0)); // median of {1,3,10}
        assert_eq!(out.null_count(), 0);
    }

    #[test]
    fn integer_nulls_rounded_median() {
        let t = Table::new(
            "t",
            vec![Column::from_i64_opt("x", vec![Some(1), None, Some(2)])],
        )
        .unwrap();
        let (out, _) = impute(&t, 0).unwrap();
        // median of {1,2} = 1.5 → rounds to 2.
        assert_eq!(out.column("x").unwrap().get(1), Value::Int(2));
    }

    #[test]
    fn bool_and_timestamp_nulls_fill_in_their_own_type() {
        let t = Table::new(
            "t",
            vec![
                // Observed {false, true}: the median is exactly 0.5.
                Column::new(
                    "b",
                    ColumnData::Bool(vec![Some(false), None, Some(true), None]),
                ),
                // Observed {10, 11}: the median 10.5 rounds up.
                Column::new(
                    "ts",
                    ColumnData::Timestamp(vec![Some(11), None, Some(10), None]),
                ),
            ],
        )
        .unwrap();
        let (out, filled) = impute(&t, 0).unwrap();
        assert_eq!(filled, 4);
        assert_eq!(
            out.column("b").unwrap().data(),
            &ColumnData::Bool(vec![Some(false), Some(true), Some(true), Some(true)])
        );
        assert_eq!(
            out.column("ts").unwrap().data(),
            &ColumnData::Timestamp(vec![Some(11), Some(11), Some(10), Some(11)])
        );
    }

    #[test]
    fn categorical_nulls_sampled_from_observed() {
        let t = Table::new(
            "t",
            vec![Column::from_str_opt(
                "c",
                vec![Some("a".into()), None, Some("b".into()), None],
            )],
        )
        .unwrap();
        let (out, filled) = impute(&t, 7).unwrap();
        assert_eq!(filled, 2);
        for i in [1usize, 3] {
            let v = out.column("c").unwrap().get(i);
            assert!(
                v == Value::Str("a".into()) || v == Value::Str("b".into()),
                "imputed value must be observed, got {v:?}"
            );
        }
    }

    #[test]
    fn all_null_column_left_alone() {
        let t = Table::new("t", vec![Column::from_f64_opt("dead", vec![None, None])]).unwrap();
        let (out, filled) = impute(&t, 0).unwrap();
        assert_eq!(filled, 0);
        assert_eq!(out.column("dead").unwrap().null_count(), 2);
    }

    #[test]
    fn no_nulls_is_identity() {
        let t = Table::new(
            "t",
            vec![
                Column::from_f64("x", vec![1.0, 2.0]),
                Column::from_str("c", vec!["a", "b"]),
            ],
        )
        .unwrap();
        let (out, filled) = impute(&t, 0).unwrap();
        assert_eq!(filled, 0);
        assert_eq!(out, t);
    }

    #[test]
    fn deterministic_per_seed() {
        let t = Table::new(
            "t",
            vec![Column::from_str_opt(
                "c",
                vec![Some("a".into()), None, Some("b".into()), Some("c".into())],
            )],
        )
        .unwrap();
        let (a, _) = impute(&t, 3).unwrap();
        let (b, _) = impute(&t, 3).unwrap();
        assert_eq!(a, b);
    }
}
