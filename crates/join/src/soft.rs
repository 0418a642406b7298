//! Soft-key joins: nearest-neighbour and two-way nearest-neighbour with
//! λ-interpolation (ARDA §4 "Key Matches").
//!
//! Both joins build one `SoftKeyIndex` over the (pre-aggregated) foreign
//! key and binary-search it once per base row, on the calling thread: in
//! `Arda::run` the base is a coreset (at most 2 000 rows by default), and
//! the pipeline runs a batch's joins side by side. Both return the foreign non-key columns as one block, row-aligned
//! with the base and named as [`crate::execute_join`] describes.

use crate::hard::pre_aggregate;
use crate::{joined_block, value_columns, JoinError, Result};
use arda_table::{Column, ColumnData, Table};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A sorted index over a foreign table's soft (numeric) key: `(key value,
/// row index)` pairs ordered by key then row. Built once per join.
struct SoftKeyIndex {
    sorted: Vec<(f64, usize)>,
}

impl SoftKeyIndex {
    /// Build from the foreign table's key column.
    fn build(foreign: &Table, key: &str) -> Result<SoftKeyIndex> {
        let col = foreign.column(key)?;
        if !col.dtype().is_numeric() {
            return Err(JoinError::NonNumericSoftKey(key.to_string()));
        }
        let mut sorted: Vec<(f64, usize)> = (0..foreign.n_rows())
            .filter_map(|i| col.get_f64(i).map(|v| (v, i)))
            .collect();
        sorted.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        Ok(SoftKeyIndex { sorted })
    }

    /// Position of the entry closest to `x` (ties → smaller key).
    fn closest(&self, x: f64) -> Option<usize> {
        let sorted = &self.sorted;
        if sorted.is_empty() {
            return None;
        }
        let pos = sorted.partition_point(|(v, _)| *v < x);
        let mut best: Option<usize> = None;
        let mut best_dist = f64::INFINITY;
        for candidate in [pos.checked_sub(1), Some(pos)].into_iter().flatten() {
            if let Some(&(v, _)) = sorted.get(candidate) {
                let d = (v - x).abs();
                if d < best_dist {
                    best_dist = d;
                    best = Some(candidate);
                }
            }
        }
        best
    }

    /// Neighbours of `x`: (largest key ≤ x, smallest key ≥ x) as positions.
    /// Either side may be absent at the boundary.
    fn bracketing(&self, x: f64) -> (Option<usize>, Option<usize>) {
        let sorted = &self.sorted;
        if sorted.is_empty() {
            return (None, None);
        }
        let pos = sorted.partition_point(|(v, _)| *v < x);
        // `pos` is the first key ≥ x.
        let high = if pos < sorted.len() { Some(pos) } else { None };
        let low = if pos < sorted.len() && sorted[pos].0 == x {
            Some(pos) // exact match serves as both sides
        } else {
            pos.checked_sub(1)
        };
        (low, high)
    }
}

/// Nearest-neighbour soft LEFT join: each base row joins the foreign row
/// whose key is numerically closest.
pub fn nearest_join(
    base: &Table,
    foreign: &Table,
    base_key: &str,
    foreign_key: &str,
) -> Result<Table> {
    let base_col = base.column(base_key)?;
    if !base_col.dtype().is_numeric() {
        return Err(JoinError::NonNumericSoftKey(base_key.to_string()));
    }
    let foreign = pre_aggregate(foreign, &[foreign_key])?;
    let index = SoftKeyIndex::build(&foreign, foreign_key)?;

    let matches: Vec<Option<usize>> = (0..base.n_rows())
        .map(|i| {
            let c = index.closest(base_col.get_f64(i)?)?;
            Some(index.sorted[c].1)
        })
        .collect();

    let values = value_columns(&foreign, &[foreign_key])
        .into_iter()
        .map(|c| c.take_opt(&matches))
        .collect();
    joined_block(&foreign, &[base_key], &[foreign_key], values)
}

/// Two-way nearest-neighbour soft LEFT join (ARDA §4): for base key `x`,
/// find the foreign rows at `y_low ≤ x ≤ y_high` and join with the
/// λ-interpolated row `λ·r_low + (1−λ)·r_high` where `x = λ·y_low +
/// (1−λ)·y_high`. Categorical values are chosen uniformly at random between
/// the two rows; at the boundary (only one neighbour) that row is used
/// directly.
pub fn two_way_nearest_join(
    base: &Table,
    foreign: &Table,
    base_key: &str,
    foreign_key: &str,
    seed: u64,
) -> Result<Table> {
    let base_col = base.column(base_key)?;
    if !base_col.dtype().is_numeric() {
        return Err(JoinError::NonNumericSoftKey(base_key.to_string()));
    }
    let foreign = pre_aggregate(foreign, &[foreign_key])?;
    let index = SoftKeyIndex::build(&foreign, foreign_key)?;

    // Interpolation plan per base row: (row_low, row_high, λ).
    let plans: Vec<Option<(usize, usize, f64)>> = (0..base.n_rows())
        .map(|i| {
            let x = base_col.get_f64(i)?;
            match index.bracketing(x) {
                (Some(l), Some(h)) => {
                    let (yl, rl) = index.sorted[l];
                    let (yh, rh) = index.sorted[h];
                    let lambda = if yh > yl { (yh - x) / (yh - yl) } else { 1.0 };
                    Some((rl, rh, lambda))
                }
                (Some(l), None) => {
                    let (_, rl) = index.sorted[l];
                    Some((rl, rl, 1.0))
                }
                (None, Some(h)) => {
                    let (_, rh) = index.sorted[h];
                    Some((rh, rh, 1.0))
                }
                (None, None) => None,
            }
        })
        .collect();

    // Categorical neighbour picks consume the seeded RNG in (column, row)
    // order.
    let mut rng = StdRng::seed_from_u64(seed);
    let values: Vec<Column> = value_columns(&foreign, &[foreign_key])
        .into_iter()
        .map(|col| match col.data() {
            ColumnData::Str(cells) => {
                let values: Vec<Option<String>> = plans
                    .iter()
                    .map(|p| {
                        let (rl, rh, _) = (*p)?;
                        let row = if rl == rh || rng.gen::<bool>() {
                            rl
                        } else {
                            rh
                        };
                        cells[row].clone()
                    })
                    .collect();
                Column::from_str_opt(col.name(), values)
            }
            _ => {
                let values: Vec<Option<f64>> = plans
                    .iter()
                    .map(|p| {
                        let (rl, rh, lambda) = (*p)?;
                        match (col.get_f64(rl), col.get_f64(rh)) {
                            (Some(a), Some(b)) => Some(lambda * a + (1.0 - lambda) * b),
                            (Some(a), None) => Some(a),
                            (None, Some(b)) => Some(b),
                            (None, None) => None,
                        }
                    })
                    .collect();
                Column::from_f64_opt(col.name(), values)
            }
        })
        .collect();
    joined_block(&foreign, &[base_key], &[foreign_key], values)
}

#[cfg(test)]
mod tests {
    use super::*;
    use arda_table::Value;

    fn weather() -> Table {
        Table::new(
            "weather",
            vec![
                Column::from_timestamps("time", vec![0, 100, 200]),
                Column::from_f64("temp", vec![10.0, 20.0, 30.0]),
                Column::from_str("sky", vec!["clear", "rain", "snow"]),
            ],
        )
        .unwrap()
    }

    fn trips() -> Table {
        Table::new(
            "trips",
            vec![
                Column::from_timestamps("t", vec![10, 150, 400]),
                Column::from_f64("dur", vec![1.0, 2.0, 3.0]),
            ],
        )
        .unwrap()
    }

    #[test]
    fn nearest_picks_closest_key() {
        let out = nearest_join(&trips(), &weather(), "t", "time").unwrap();
        let temp = out.column("weather[t:time].temp").unwrap();
        assert_eq!(temp.get_f64(0), Some(10.0)); // t=10 → time=0
        assert_eq!(temp.get_f64(1), Some(20.0)); // t=150 → tie 100/200 → lower
        assert_eq!(temp.get_f64(2), Some(30.0)); // t=400 → time=200
    }

    #[test]
    fn two_way_interpolates_linearly() {
        let out = two_way_nearest_join(&trips(), &weather(), "t", "time", 0).unwrap();
        let temp = out.column("weather[t:time].temp").unwrap();
        // t=10 between 0 and 100: λ=(100-10)/100=0.9 → 0.9*10+0.1*20 = 11.
        assert!((temp.get_f64(0).unwrap() - 11.0).abs() < 1e-9);
        // t=150 between 100 and 200 → 25.
        assert!((temp.get_f64(1).unwrap() - 25.0).abs() < 1e-9);
        // t=400 beyond the last key → boundary row 200 → 30.
        assert!((temp.get_f64(2).unwrap() - 30.0).abs() < 1e-9);
    }

    #[test]
    fn two_way_exact_match_uses_that_row() {
        let base = Table::new("b", vec![Column::from_timestamps("t", vec![100])]).unwrap();
        let out = two_way_nearest_join(&base, &weather(), "t", "time", 0).unwrap();
        assert_eq!(
            out.column("weather[t:time].temp").unwrap().get_f64(0),
            Some(20.0)
        );
    }

    #[test]
    fn two_way_categorical_comes_from_a_neighbor() {
        let out = two_way_nearest_join(&trips(), &weather(), "t", "time", 42).unwrap();
        let sky = out.column("weather[t:time].sky").unwrap().get(0);
        assert!(
            sky == Value::Str("clear".into()) || sky == Value::Str("rain".into()),
            "sky must come from one of the bracketing rows, got {sky:?}"
        );
    }

    #[test]
    fn base_rows_preserved_and_null_keys_null_filled() {
        let base = Table::new("b", vec![Column::from_i64_opt("t", vec![Some(50), None])]).unwrap();
        let out = nearest_join(&base, &weather(), "t", "time").unwrap();
        assert_eq!(out.n_rows(), 2);
        assert!(out.column("weather[t:time].temp").unwrap().get(1).is_null());
        let out2 = two_way_nearest_join(&base, &weather(), "t", "time", 0).unwrap();
        assert!(out2
            .column("weather[t:time].temp")
            .unwrap()
            .get(1)
            .is_null());
    }

    #[test]
    fn non_numeric_keys_rejected() {
        let base = Table::new("b", vec![Column::from_str("k", vec!["a"])]).unwrap();
        assert!(matches!(
            nearest_join(&base, &weather(), "k", "time"),
            Err(JoinError::NonNumericSoftKey(_))
        ));
        let f = Table::new("f", vec![Column::from_str("k", vec!["a"])]).unwrap();
        let b2 = Table::new("b2", vec![Column::from_i64("t", vec![1])]).unwrap();
        assert!(matches!(
            two_way_nearest_join(&b2, &f, "t", "k", 0),
            Err(JoinError::NonNumericSoftKey(_))
        ));
    }

    #[test]
    fn duplicate_foreign_keys_are_pre_aggregated() {
        let f = Table::new(
            "f",
            vec![
                Column::from_i64("time", vec![100, 100, 100, 300]),
                Column::from_f64("temp", vec![10.0, 30.0, 50.0, 70.0]),
                Column::from_str("sky", vec!["rain", "snow", "rain", "clear"]),
            ],
        )
        .unwrap();
        let base = Table::new("b", vec![Column::from_i64("t", vec![100, 200])]).unwrap();
        let out = nearest_join(&base, &f, "t", "time").unwrap();
        assert_eq!(out.column("f[t:time].temp").unwrap().get_f64(0), Some(30.0));
        assert_eq!(
            out.column("f[t:time].sky").unwrap().get(0),
            Value::Str("rain".into())
        );
        // t=200 sits halfway between the aggregated row at 100 and 300.
        let out = two_way_nearest_join(&base, &f, "t", "time", 5).unwrap();
        let temp = out.column("f[t:time].temp").unwrap();
        assert_eq!((temp.get_f64(0), temp.get_f64(1)), (Some(30.0), Some(50.0)));
        let sky = out.column("f[t:time].sky").unwrap();
        assert_eq!(sky.get(0), Value::Str("rain".into()));
        assert!(matches!(sky.get(1), Value::Str(s) if s == "rain" || s == "clear"));
    }

    #[test]
    fn empty_foreign_yields_nulls() {
        let f = Table::new(
            "f",
            vec![
                Column::from_i64("time", vec![]),
                Column::from_f64("temp", vec![]),
            ],
        )
        .unwrap();
        let base = Table::new("b", vec![Column::from_i64("t", vec![1])]).unwrap();
        let out = nearest_join(&base, &f, "t", "time").unwrap();
        assert!(out.column("f[t:time].temp").unwrap().get(0).is_null());
        let out2 = two_way_nearest_join(&base, &f, "t", "time", 0).unwrap();
        assert!(out2.column("f[t:time].temp").unwrap().get(0).is_null());
    }
}
