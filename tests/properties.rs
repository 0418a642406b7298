//! Property-based tests on the core data-structure invariants: join row
//! preservation, group-by partitioning, coreset sizing and stratification,
//! sketch linearity, imputation completeness, ranking permutation validity
//! and CSV round-trips.
//!
//! The workspace builds offline (no proptest), so each property runs over a
//! seeded sweep of randomly generated inputs; failures print the case seed
//! for reproduction. Parallel-vs-sequential determinism properties live in
//! `tests/par_determinism.rs`.

use arda::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const CASES: u64 = 32;

/// Finite, modest-magnitude f64 (no NaN), mirroring the old proptest
/// strategy.
fn small_f64(rng: &mut StdRng) -> f64 {
    rng.gen_range(-1000i64..1000) as f64 / 10.0
}

fn vec_of<T>(
    rng: &mut StdRng,
    lo: usize,
    hi: usize,
    mut f: impl FnMut(&mut StdRng) -> T,
) -> Vec<T> {
    let len = rng.gen_range(lo..hi);
    (0..len).map(|_| f(rng)).collect()
}

/// LEFT hard joins return one row per base row, in base order, for ANY
/// foreign table content.
#[test]
fn hard_join_preserves_base_rows() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(case);
        let base_keys = vec_of(&mut rng, 1, 40, |r| r.gen_range(0i64..20));
        let foreign_keys = vec_of(&mut rng, 0, 40, |r| r.gen_range(0i64..20));
        let base = Table::new(
            "b",
            vec![
                Column::from_i64("k", base_keys.clone()),
                Column::from_f64("row_id", (0..base_keys.len()).map(|i| i as f64).collect()),
            ],
        )
        .unwrap();
        let foreign = Table::new(
            "f",
            vec![
                Column::from_i64("k", foreign_keys.clone()),
                Column::from_f64("v", foreign_keys.iter().map(|&k| k as f64 * 2.0).collect()),
            ],
        )
        .unwrap();
        let out = execute_join(&base, &foreign, &JoinSpec::hard("k", "k"), 0).unwrap();
        assert_eq!(out.n_rows(), base.n_rows(), "case {case}");
        assert!(out.column("row_id").is_err(), "base columns stay out");
        // Row i carries base key i's value iff the key exists in the
        // foreign side, so the block is in base row order.
        for (i, k) in base_keys.iter().enumerate() {
            let want = foreign_keys.contains(k).then_some(*k as f64 * 2.0);
            let got = out.column("f[k:k].v").unwrap().get_f64(i);
            assert_eq!(got, want, "case {case} row {i}");
        }
    }
}

/// Soft nearest joins never null-fill when the foreign
/// table is non-empty, and always pick a key minimising the distance.
#[test]
fn nearest_join_minimises_distance() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(1000 + case);
        let base_keys = vec_of(&mut rng, 1, 30, |r| r.gen_range(-500i64..500));
        let foreign_keys = vec_of(&mut rng, 1, 30, |r| r.gen_range(-500i64..500));
        let base = Table::new("b", vec![Column::from_i64("k", base_keys.clone())]).unwrap();
        let mut fk = foreign_keys.clone();
        fk.sort_unstable();
        fk.dedup();
        let foreign = Table::new(
            "f",
            vec![
                Column::from_i64("k", fk.clone()),
                Column::from_f64("fkey_copy", fk.iter().map(|&k| k as f64).collect()),
            ],
        )
        .unwrap();
        let out = arda::join::soft::nearest_join(&base, &foreign, "k", "k").unwrap();
        for (i, &bk) in base_keys.iter().enumerate() {
            let joined_key = out.column("f[k:k].fkey_copy").unwrap().get_f64(i).unwrap();
            let best = fk
                .iter()
                .map(|&f| (f as f64 - bk as f64).abs())
                .fold(f64::INFINITY, f64::min);
            assert!(
                ((joined_key - bk as f64).abs() - best).abs() < 1e-9,
                "case {case} row {i}: joined {joined_key}, base {bk}, best dist {best}"
            );
        }
    }
}

/// Group-by groups partition the non-null-key rows exactly.
#[test]
fn groupby_partitions_rows() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(2000 + case);
        let keys = vec_of(&mut rng, 1, 60, |r| r.gen_range(0i64..8));
        let vals = vec_of(&mut rng, 1, 60, small_f64);
        let n = keys.len().min(vals.len());
        let t = Table::new(
            "t",
            vec![
                Column::from_i64("k", keys[..n].to_vec()),
                Column::from_f64("v", vals[..n].to_vec()),
            ],
        )
        .unwrap();
        let gb = arda::table::GroupBy::new(&t, &["k"]).unwrap();
        let (group_keys, rows) = gb.groups().unwrap();
        assert_eq!(group_keys.len(), rows.len(), "case {case}");
        let mut seen: Vec<usize> = rows.iter().flatten().copied().collect();
        seen.sort_unstable();
        let expected: Vec<usize> = (0..n).collect();
        assert_eq!(
            seen, expected,
            "case {case}: every row in exactly one group"
        );
    }
}

/// Aggregated tables have one row per distinct key and mean within min/max
/// bounds.
#[test]
fn aggregate_mean_bounded() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(3000 + case);
        let keys = vec_of(&mut rng, 2, 40, |r| r.gen_range(0i64..5));
        let vals = vec_of(&mut rng, 2, 40, small_f64);
        let n = keys.len().min(vals.len());
        let t = Table::new(
            "t",
            vec![
                Column::from_i64("k", keys[..n].to_vec()),
                Column::from_f64("v", vals[..n].to_vec()),
            ],
        )
        .unwrap();
        let agg = arda::table::GroupBy::new(&t, &["k"])
            .unwrap()
            .aggregate()
            .unwrap();
        let mut distinct = keys[..n].to_vec();
        distinct.sort_unstable();
        distinct.dedup();
        assert_eq!(agg.n_rows(), distinct.len(), "case {case}");
        let lo = vals[..n].iter().copied().fold(f64::INFINITY, f64::min);
        let hi = vals[..n].iter().copied().fold(f64::NEG_INFINITY, f64::max);
        for i in 0..agg.n_rows() {
            let m = agg.column("v").unwrap().get_f64(i).unwrap();
            assert!(m >= lo - 1e-9 && m <= hi + 1e-9, "case {case}");
        }
    }
}

/// Uniform coresets produce sorted, distinct, in-bounds indices of the
/// requested size.
#[test]
fn uniform_coreset_invariants() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(4000 + case);
        let n = rng.gen_range(1usize..500);
        let size = rng.gen_range(1usize..200);
        let seed = rng.gen_range(0u64..50);
        let idx = arda::coreset::uniform_indices(n, size, seed);
        assert_eq!(idx.len(), size.min(n), "case {case}");
        assert!(
            idx.windows(2).all(|w| w[0] < w[1]),
            "case {case}: sorted distinct"
        );
        assert!(idx.iter().all(|&i| i < n), "case {case}");
    }
}

/// Stratified coresets represent every class when capacity allows.
#[test]
fn stratified_coreset_keeps_classes() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(5000 + case);
        let labels: Vec<f64> = vec_of(&mut rng, 8, 120, |r| r.gen_range(0i64..4))
            .iter()
            .map(|&v| v as f64)
            .collect();
        let seed = rng.gen_range(0u64..20);
        let mut classes: Vec<i64> = labels.iter().map(|&v| v as i64).collect();
        classes.sort_unstable();
        classes.dedup();
        let size = classes.len().max(labels.len() / 2);
        let idx = arda::coreset::stratified_indices(&labels, size, seed);
        for c in classes {
            assert!(
                idx.iter().any(|&i| labels[i] as i64 == c),
                "case {case}: class {c} represented in coreset"
            );
        }
    }
}

/// OSNAP sketching is linear: Π(Ax) == (ΠA)x.
#[test]
fn osnap_linearity() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(6000 + case);
        let rows = rng.gen_range(4usize..40);
        let x0 = small_f64(&mut rng);
        let x1 = small_f64(&mut rng);
        let seed = rng.gen_range(0u64..20);
        let data: Vec<Vec<f64>> = (0..rows)
            .map(|r| vec![(r as f64).sin(), (r as f64).cos()])
            .collect();
        let a = arda::linalg::Matrix::from_rows(&data).unwrap();
        let os = arda::linalg::Osnap::new(rows, (rows / 2).max(1), seed);
        let x = arda::linalg::Matrix::from_vec(2, 1, vec![x0, x1]).unwrap();
        let ax = a.matmul(&x).unwrap();
        let left = os.apply_vec(ax.data());
        let right = os.apply(&a).matmul(&x).unwrap();
        for (l, r) in left.iter().zip(right.data()) {
            assert!((l - r).abs() < 1e-8, "case {case}");
        }
    }
}

/// Imputation removes every null except in all-null columns.
#[test]
fn imputation_completeness() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(7000 + case);
        let vals = vec_of(&mut rng, 1, 60, |r| {
            if r.gen_bool(0.3) {
                None
            } else {
                Some(small_f64(r))
            }
        });
        let seed = rng.gen_range(0u64..20);
        let t = Table::new("t", vec![Column::from_f64_opt("x", vals.clone())]).unwrap();
        let (out, filled) = arda::join::impute::impute(&t, seed).unwrap();
        let n_null = vals.iter().filter(|v| v.is_none()).count();
        if n_null == vals.len() {
            assert_eq!(filled, 0, "case {case}: all-null column untouched");
        } else {
            assert_eq!(filled, n_null, "case {case}");
            assert_eq!(out.null_count(), 0, "case {case}");
        }
    }
}

/// Ranking orders are permutations of 0..d.
#[test]
fn ranking_order_is_permutation() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(8000 + case);
        let scores = vec_of(&mut rng, 0, 50, small_f64);
        let order = arda::select::ranking::order_by_scores(&scores);
        let mut sorted = order.clone();
        sorted.sort_unstable();
        let expected: Vec<usize> = (0..scores.len()).collect();
        assert_eq!(sorted, expected, "case {case}");
        // Scores along the order are non-increasing.
        for w in order.windows(2) {
            assert!(scores[w[0]] >= scores[w[1]], "case {case}");
        }
    }
}

/// CSV write→read round-trips row counts and null positions for numeric
/// tables.
#[test]
fn csv_round_trip() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(9000 + case);
        let vals = vec_of(&mut rng, 1, 50, |r| {
            if r.gen_bool(0.2) {
                None
            } else {
                Some(r.gen_range(-10_000i64..10_000))
            }
        });
        let t = Table::new("t", vec![Column::from_i64_opt("x", vals.clone())]).unwrap();
        let mut buf = Vec::new();
        arda::table::write_csv(&t, &mut buf).unwrap();
        let back = arda::table::read_csv_str("t", std::str::from_utf8(&buf).unwrap()).unwrap();
        assert_eq!(back.n_rows(), t.n_rows(), "case {case}");
        for (i, v) in vals.iter().enumerate() {
            match v {
                None => assert!(
                    back.column("x").unwrap().get(i).is_null(),
                    "case {case} row {i}"
                ),
                Some(x) => assert_eq!(
                    back.column("x").unwrap().get(i).as_i64(),
                    Some(*x),
                    "case {case} row {i}"
                ),
            }
        }
    }
}

/// Granularity detection divides every gap between distinct keys.
#[test]
fn granularity_divides_gaps() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(10_000 + case);
        let base = rng.gen_range(1i64..1000);
        let mults = vec_of(&mut rng, 2, 30, |r| r.gen_range(0i64..100));
        let keys: Vec<i64> = mults.iter().map(|&m| m * base).collect();
        let g = arda::join::resample::detect_granularity(&keys);
        let mut distinct = keys.clone();
        distinct.sort_unstable();
        distinct.dedup();
        if distinct.len() >= 2 {
            for w in distinct.windows(2) {
                assert_eq!(
                    (w[1] - w[0]) % g,
                    0,
                    "case {case}: granularity {} divides gap {}",
                    g,
                    w[1] - w[0]
                );
            }
        }
    }
}

/// Tables survive take(shuffle) without changing the multiset of values.
#[test]
fn take_is_multiset_stable() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(11_000 + case);
        let vals = vec_of(&mut rng, 1, 50, small_f64);
        let t = Table::new("t", vec![Column::from_f64("x", vals.clone())]).unwrap();
        let rev: Vec<usize> = (0..vals.len()).rev().collect();
        let taken = t.take(&rev).unwrap();
        let mut a = vals.clone();
        let mut b: Vec<f64> = (0..taken.n_rows())
            .map(|i| taken.column("x").unwrap().get_f64(i).unwrap())
            .collect();
        a.sort_by(|x, y| x.total_cmp(y));
        b.sort_by(|x, y| x.total_cmp(y));
        assert_eq!(a, b, "case {case}");
    }
}
