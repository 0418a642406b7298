//! Time-granularity detection and resampling (ARDA §4 "Time-Resampling").
//!
//! When the base table carries day-level timestamps and a foreign table
//! carries minute-level ones, a plain join either misses matches or joins a
//! single arbitrary row. ARDA instead detects the coarser granularity and
//! aggregates the foreign table over each coarse bucket before joining.

use crate::{JoinError, Result};
use arda_table::{Column, ColumnData, DataType, GroupBy, Table};
use std::borrow::Cow;

/// Estimate the key granularity as the GCD of the gaps between consecutive
/// distinct (integer) key values — e.g. daily timestamps in seconds yield
/// 86 400. Returns 1 for fewer than two distinct keys or non-integral gaps.
pub fn detect_granularity(values: &[i64]) -> i64 {
    let mut distinct: Vec<i64> = values.to_vec();
    distinct.sort_unstable();
    distinct.dedup();
    if distinct.len() < 2 {
        return 1;
    }
    fn gcd(a: i64, b: i64) -> i64 {
        if b == 0 {
            a.abs()
        } else {
            gcd(b, a % b)
        }
    }
    let mut g = 0i64;
    for w in distinct.windows(2) {
        g = gcd(g, w[1] - w[0]);
        if g == 1 {
            return 1;
        }
    }
    g.max(1)
}

/// Integer key values of a (numeric) column, skipping nulls.
fn integer_keys(table: &Table, key: &str) -> Result<Vec<i64>> {
    let col = table.column(key)?;
    if !col.dtype().is_numeric() {
        return Err(JoinError::NonNumericSoftKey(key.to_string()));
    }
    Ok((0..table.n_rows())
        .filter_map(|i| col.get_f64(i).map(|v| v.round() as i64))
        .collect())
}

/// Bucket each foreign key down to the base granularity and aggregate all
/// non-key columns per bucket (mean / mode). When the base granularity is
/// not coarser than the foreign one the table is returned unchanged.
pub fn resample_to_granularity(
    foreign: &Table,
    foreign_key: &str,
    granularity: i64,
) -> Result<Table> {
    if granularity <= 1 {
        return Ok(foreign.clone());
    }
    let col = foreign.column(foreign_key)?;
    if !col.dtype().is_numeric() {
        return Err(JoinError::NonNumericSoftKey(foreign_key.to_string()));
    }
    let bucketed: Vec<Option<i64>> = (0..foreign.n_rows())
        .map(|i| {
            col.get_f64(i).map(|v| {
                let k = v.round() as i64;
                k.div_euclid(granularity) * granularity
            })
        })
        .collect();
    let bucket_col = match col.dtype() {
        DataType::Timestamp => Column::new(foreign_key, ColumnData::Timestamp(bucketed)),
        _ => Column::new(foreign_key, ColumnData::Int(bucketed)),
    };

    // Replace the key column with its bucketed version, then aggregate.
    let mut replaced = Table::empty(foreign.name().to_string());
    for c in foreign.columns() {
        if c.name() == foreign_key {
            replaced.add_column(bucket_col.clone())?;
        } else {
            replaced.add_column(c.clone())?;
        }
    }
    Ok(GroupBy::new(&replaced, &[foreign_key])?.aggregate()?)
}

/// Detect both granularities and resample `foreign` to the base's
/// granularity when the base is coarser (the paper's Taxi scenario:
/// day-level base, minute-level weather); otherwise `foreign` is borrowed
/// as-is.
pub fn resample_to_base<'a>(
    base: &Table,
    foreign: &'a Table,
    base_key: &str,
    foreign_key: &str,
) -> Result<Cow<'a, Table>> {
    let g_base = detect_granularity(&integer_keys(base, base_key)?);
    let g_foreign = detect_granularity(&integer_keys(foreign, foreign_key)?);
    if g_base > g_foreign {
        Ok(Cow::Owned(resample_to_granularity(
            foreign,
            foreign_key,
            g_base,
        )?))
    } else {
        Ok(Cow::Borrowed(foreign))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hard::left_hard_join;

    #[test]
    fn granularity_of_daily_keys() {
        let days: Vec<i64> = (0..10).map(|i| i * 86_400).collect();
        assert_eq!(detect_granularity(&days), 86_400);
    }

    #[test]
    fn granularity_of_mixed_keys_is_gcd() {
        assert_eq!(detect_granularity(&[0, 60, 180, 300]), 60);
        assert_eq!(detect_granularity(&[0, 7, 13]), 1);
        assert_eq!(detect_granularity(&[5]), 1);
        assert_eq!(detect_granularity(&[]), 1);
        assert_eq!(detect_granularity(&[10, 10, 10]), 1);
    }

    fn minute_weather() -> Table {
        // Two "days" of 3 readings each at granularity 10.
        Table::new(
            "weather",
            vec![
                Column::from_timestamps("time", vec![0, 10, 20, 100, 110, 120]),
                Column::from_f64("temp", vec![1.0, 2.0, 3.0, 10.0, 20.0, 30.0]),
            ],
        )
        .unwrap()
    }

    #[test]
    fn resample_aggregates_buckets() {
        let out = resample_to_granularity(&minute_weather(), "time", 100).unwrap();
        assert_eq!(out.n_rows(), 2);
        // Buckets come out in order of first appearance.
        assert_eq!(out.column("temp").unwrap().get_f64(0), Some(2.0)); // mean(1,2,3)
        assert_eq!(out.column("temp").unwrap().get_f64(1), Some(20.0)); // mean(10,20,30)
    }

    #[test]
    fn resample_noop_for_granularity_one() {
        let w = minute_weather();
        assert_eq!(resample_to_granularity(&w, "time", 1).unwrap(), w);
    }

    #[test]
    fn resample_to_base_detects_coarser_base() {
        let base = Table::new(
            "base",
            vec![
                Column::from_timestamps("day", vec![0, 100, 200]),
                Column::from_f64("y", vec![0.0, 1.0, 2.0]),
            ],
        )
        .unwrap();
        let weather = minute_weather();
        let resampled = resample_to_base(&base, &weather, "day", "time").unwrap();
        assert!(matches!(resampled, Cow::Owned(_)));
        assert_eq!(resampled.n_rows(), 2);
        // End-to-end: hard join after resampling hits both days.
        let joined = left_hard_join(&base, &resampled, &["day"], &["time"]).unwrap();
        let temp = joined.column("weather[day:time].temp").unwrap();
        assert_eq!(temp.get_f64(0), Some(2.0));
        assert_eq!(temp.get_f64(1), Some(20.0));
        assert!(temp.get(2).is_null());
    }

    #[test]
    fn resample_to_base_noop_when_base_finer() {
        let base =
            Table::new("base", vec![Column::from_timestamps("t", vec![0, 1, 2, 3])]).unwrap();
        let weather = minute_weather();
        let out = resample_to_base(&base, &weather, "t", "time").unwrap();
        assert!(matches!(out, Cow::Borrowed(t) if std::ptr::eq(t, &weather)));
    }

    #[test]
    fn negative_keys_bucket_correctly() {
        let f = Table::new(
            "f",
            vec![
                Column::from_i64("k", vec![-15, -5, 5]),
                Column::from_f64("v", vec![1.0, 2.0, 3.0]),
            ],
        )
        .unwrap();
        let out = resample_to_granularity(&f, "k", 10).unwrap();
        // -15 → -20, -5 → -10, 5 → 0 (floor division), in row order.
        let k = out.column("k").unwrap();
        assert_eq!(k.get_f64(0), Some(-20.0));
        assert_eq!(k.get_f64(1), Some(-10.0));
        assert_eq!(k.get_f64(2), Some(0.0));
    }

    #[test]
    fn non_numeric_key_rejected() {
        let f = Table::new("f", vec![Column::from_str("k", vec!["a"])]).unwrap();
        assert!(resample_to_granularity(&f, "k", 10).is_err());
    }
}
