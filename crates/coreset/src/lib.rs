//! # arda-coreset
//!
//! Coreset constructions (ARDA §3.1): replace a large base table with a
//! small, representative set of rows before joining and feature selection.
//!
//! Three constructions from the paper:
//!
//! * **Uniform sampling** ([`uniform_indices`]) — cheap, data-oblivious.
//! * **Stratified sampling** ([`stratified_indices`]) — proportional per
//!   class, so no label is overlooked.
//! * **Sketching** ([`sketch_xy`] only) — an OSNAP subspace embedding
//!   applied to a featurized matrix *after* the join (sketching takes
//!   linear combinations of rows, so it cannot run before joins without
//!   corrupting key columns; §3.1). For classification the rows of each
//!   label are sketched independently, "analogous to stratified sampling".
//!
//! [`CoresetSpec`] bundles a sampling method + size; [`row_coreset`]
//! applies it to any row count.

use arda_linalg::{Matrix, Osnap};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::collections::BTreeMap;

/// Which row-sampling coreset to use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CoresetMethod {
    /// Uniform row sampling without replacement (the ARDA default).
    Uniform,
    /// Label-stratified sampling (classification) with proportional
    /// allocation; falls back to uniform when no labels are given.
    Stratified,
}

/// A coreset request: method plus target size (`None` → auto heuristic).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CoresetSpec {
    /// Construction method.
    pub method: CoresetMethod,
    /// Target number of rows (`None` → [`auto_size`]).
    pub size: Option<usize>,
    /// RNG seed.
    pub seed: u64,
}

impl Default for CoresetSpec {
    fn default() -> Self {
        CoresetSpec {
            method: CoresetMethod::Uniform,
            size: None,
            seed: 0,
        }
    }
}

impl CoresetSpec {
    /// Resolve the target size for `n` rows.
    pub fn resolve_size(&self, n: usize) -> usize {
        self.size
            .unwrap_or_else(|| auto_size(n))
            .min(n)
            .max(1.min(n))
    }
}

/// ARDA's "simple heuristic" for automatic coreset sizing: keep small tables
/// whole, cap large ones at 2 000 rows (large enough for stable feature
/// selection, small enough to keep repeated model fits cheap).
pub fn auto_size(n_rows: usize) -> usize {
    n_rows.min(2_000)
}

/// Uniformly sample `size` distinct row indices from `0..n` (sorted).
pub fn uniform_indices(n: usize, size: usize, seed: u64) -> Vec<usize> {
    let size = size.min(n);
    let mut idx: Vec<usize> = (0..n).collect();
    idx.shuffle(&mut StdRng::seed_from_u64(seed));
    idx.truncate(size);
    idx.sort_unstable();
    idx
}

/// Stratified sampling: allocate `size` slots across label strata
/// proportionally (each non-empty stratum gets at least one slot), then
/// sample uniformly within each stratum. Indices are sorted.
pub fn stratified_indices(labels: &[f64], size: usize, seed: u64) -> Vec<usize> {
    let n = labels.len();
    let size = size.min(n);
    if size == 0 {
        return Vec::new();
    }
    // BTreeMap for deterministic stratum ordering.
    let mut strata: BTreeMap<i64, Vec<usize>> = BTreeMap::new();
    for (i, &y) in labels.iter().enumerate() {
        strata.entry(y as i64).or_default().push(i);
    }
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out: Vec<usize> = Vec::with_capacity(size);

    // Proportional allocation with floor, then distribute the remainder to
    // the largest fractional parts.
    let mut allocations: Vec<(i64, usize, f64)> = strata
        .iter()
        .map(|(&label, rows)| {
            let exact = size as f64 * rows.len() as f64 / n as f64;
            (
                label,
                (exact.floor() as usize).max(1).min(rows.len()),
                exact - exact.floor(),
            )
        })
        .collect();
    let mut used: usize = allocations.iter().map(|a| a.1).sum();
    // Give remaining slots to strata with capacity, largest fraction first.
    allocations.sort_by(|a, b| b.2.total_cmp(&a.2));
    let mut i = 0;
    let n_alloc = allocations.len();
    while used < size && n_alloc > 0 {
        let slot = i % n_alloc;
        let cap = strata[&allocations[slot].0].len();
        if allocations[slot].1 < cap {
            allocations[slot].1 += 1;
            used += 1;
        }
        i += 1;
        if i > n_alloc * (size + 1) {
            break; // every stratum saturated
        }
    }
    // Trim overshoot (possible when `max(1)` floors exceeded `size`).
    allocations.sort_by_key(|a| std::cmp::Reverse(a.1));
    while used > size {
        if let Some(a) = allocations.iter_mut().find(|a| a.1 > 1) {
            a.1 -= 1;
            used -= 1;
        } else {
            break;
        }
    }

    for (label, alloc, _) in allocations {
        let mut rows = strata[&label].clone();
        rows.shuffle(&mut rng);
        out.extend(rows.into_iter().take(alloc));
    }
    out.sort_unstable();
    out
}

/// Dispatch the row-sampling method of a [`CoresetSpec`]. `labels` enables
/// stratification.
pub fn row_coreset(n: usize, labels: Option<&[f64]>, spec: &CoresetSpec) -> Vec<usize> {
    let size = spec.resolve_size(n);
    match (spec.method, labels) {
        (CoresetMethod::Stratified, Some(y)) => stratified_indices(y, size, spec.seed),
        _ => uniform_indices(n, size, spec.seed),
    }
}

/// Sketch a featurized dataset down to `target_rows` rows with OSNAP.
///
/// * Regression: one sketch is applied jointly to `x` and `y`, preserving
///   the regression subspace (`‖Π(Xw − y)‖ ≈ ‖Xw − y‖`).
/// * Classification: rows of each class are sketched independently and the
///   class label is retained for the sketched rows (§3.1: "ARDA sketch rows
///   independently within each label, analogous to stratified sampling").
pub fn sketch_xy(
    x: &Matrix,
    y: &[f64],
    is_classification: bool,
    target_rows: usize,
    seed: u64,
) -> (Matrix, Vec<f64>) {
    assert_eq!(x.rows(), y.len(), "sketch_xy: rows vs labels");
    let n = x.rows();
    let target_rows = target_rows.clamp(1, n.max(1));
    if n == 0 || target_rows >= n {
        return (x.clone(), y.to_vec());
    }

    if !is_classification {
        let os = Osnap::new(n, target_rows, seed);
        return (os.apply(x), os.apply_vec(y));
    }

    // Per-label sketching with proportional row budgets.
    let mut strata: BTreeMap<i64, Vec<usize>> = BTreeMap::new();
    for (i, &label) in y.iter().enumerate() {
        strata.entry(label as i64).or_default().push(i);
    }
    let mut out_x: Option<Matrix> = None;
    let mut out_y: Vec<f64> = Vec::with_capacity(target_rows);
    for (stratum_no, (label, rows)) in strata.iter().enumerate() {
        let share = ((target_rows as f64 * rows.len() as f64 / n as f64).round() as usize)
            .clamp(1, rows.len());
        let sub = x.select_rows(rows).expect("stratum rows in bounds");
        let os = Osnap::new(rows.len(), share, seed.wrapping_add(stratum_no as u64));
        let sk = os.apply(&sub);
        out_y.extend(std::iter::repeat_n(*label as f64, sk.rows()));
        out_x = Some(match out_x {
            None => sk,
            Some(acc) => {
                let mut rows_acc: Vec<Vec<f64>> =
                    (0..acc.rows()).map(|r| acc.row(r).to_vec()).collect();
                rows_acc.extend((0..sk.rows()).map(|r| sk.row(r).to_vec()));
                Matrix::from_rows(&rows_acc).expect("rectangular")
            }
        });
    }
    (out_x.expect("at least one stratum"), out_y)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_returns_distinct_sorted() {
        let idx = uniform_indices(100, 10, 0);
        assert_eq!(idx.len(), 10);
        let mut dedup = idx.clone();
        dedup.dedup();
        assert_eq!(dedup.len(), 10, "indices must be distinct");
        assert!(idx.windows(2).all(|w| w[0] < w[1]));
        assert!(idx.iter().all(|&i| i < 100));
    }

    #[test]
    fn uniform_caps_at_n() {
        assert_eq!(uniform_indices(5, 99, 0).len(), 5);
        assert!(uniform_indices(0, 3, 0).is_empty());
    }

    #[test]
    fn stratified_keeps_rare_labels() {
        // 95 of class 0, 5 of class 1: a 10-row uniform sample often misses
        // class 1, stratified never does.
        let labels: Vec<f64> = (0..100).map(|i| if i < 95 { 0.0 } else { 1.0 }).collect();
        let idx = stratified_indices(&labels, 10, 3);
        assert_eq!(idx.len(), 10);
        assert!(
            idx.iter().any(|&i| labels[i] == 1.0),
            "rare class must be represented"
        );
    }

    #[test]
    fn stratified_proportional_allocation() {
        let labels: Vec<f64> = (0..100).map(|i| if i < 80 { 0.0 } else { 1.0 }).collect();
        let idx = stratified_indices(&labels, 20, 0);
        let c1 = idx.iter().filter(|&&i| labels[i] == 1.0).count();
        assert!(
            (3..=5).contains(&c1),
            "≈20% of sample from class 1, got {c1}"
        );
    }

    #[test]
    fn stratified_handles_size_exceeding_n() {
        let labels = vec![0.0, 1.0, 1.0];
        let idx = stratified_indices(&labels, 50, 0);
        assert_eq!(idx.len(), 3);
    }

    #[test]
    fn row_coreset_dispatch() {
        let labels: Vec<f64> = (0..50).map(|i| (i % 2) as f64).collect();
        let spec = CoresetSpec {
            method: CoresetMethod::Stratified,
            size: Some(10),
            seed: 0,
        };
        let idx = row_coreset(50, Some(&labels), &spec);
        assert_eq!(idx.len(), 10);
        let spec_u = CoresetSpec {
            method: CoresetMethod::Uniform,
            size: Some(10),
            seed: 0,
        };
        assert_eq!(row_coreset(50, None, &spec_u).len(), 10);
    }

    #[test]
    fn auto_size_caps() {
        assert_eq!(auto_size(100), 100);
        assert_eq!(auto_size(1_000_000), 2_000);
        let spec = CoresetSpec::default();
        assert_eq!(spec.resolve_size(500), 500);
        assert_eq!(spec.resolve_size(10_000), 2_000);
    }

    #[test]
    fn sketch_regression_shrinks_rows() {
        let x = Matrix::from_rows(
            &(0..100)
                .map(|i| vec![i as f64, (i * i) as f64])
                .collect::<Vec<_>>(),
        )
        .unwrap();
        let y: Vec<f64> = (0..100).map(|i| i as f64).collect();
        let (sx, sy) = sketch_xy(&x, &y, false, 20, 0);
        assert_eq!(sx.rows(), 20);
        assert_eq!(sy.len(), 20);
        assert_eq!(sx.cols(), 2);
    }

    #[test]
    fn sketch_classification_preserves_labels_per_stratum() {
        let x = Matrix::from_rows(&(0..60).map(|i| vec![i as f64]).collect::<Vec<_>>()).unwrap();
        let y: Vec<f64> = (0..60).map(|i| (i % 3) as f64).collect();
        let (sx, sy) = sketch_xy(&x, &y, true, 15, 0);
        assert_eq!(sx.rows(), sy.len());
        for c in [0.0, 1.0, 2.0] {
            assert!(sy.contains(&c), "class {c} must survive sketching");
        }
    }

    #[test]
    fn sketch_noop_when_target_not_smaller() {
        let x = Matrix::from_rows(&[vec![1.0], vec![2.0]]).unwrap();
        let y = vec![0.0, 1.0];
        let (sx, sy) = sketch_xy(&x, &y, false, 10, 0);
        assert_eq!(sx, x);
        assert_eq!(sy, y);
    }

    #[test]
    fn sketch_preserves_least_squares_solution_approximately() {
        // y = 3x exactly: the sketched regression must recover w ≈ 3.
        let x = Matrix::from_rows(&(1..=200).map(|i| vec![i as f64 / 10.0]).collect::<Vec<_>>())
            .unwrap();
        let y: Vec<f64> = (1..=200).map(|i| 3.0 * i as f64 / 10.0).collect();
        let (sx, sy) = sketch_xy(&x, &y, false, 50, 1);
        // Solve 1-d least squares on the sketch.
        let num: f64 = (0..sx.rows()).map(|r| sx.get(r, 0) * sy[r]).sum();
        let den: f64 = (0..sx.rows()).map(|r| sx.get(r, 0) * sx.get(r, 0)).sum();
        let w = num / den;
        assert!((w - 3.0).abs() < 1e-9, "sketched LS solution {w}");
    }

    #[test]
    fn stratified_deterministic_per_seed() {
        let labels: Vec<f64> = (0..40).map(|i| (i % 2) as f64).collect();
        assert_eq!(
            stratified_indices(&labels, 8, 5),
            stratified_indices(&labels, 8, 5)
        );
    }
}
