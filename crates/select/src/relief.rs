//! ReliefF feature weighting (the "relief" baseline of Tables 1/6).
//!
//! Classic embedded selector: a feature scores well when it separates each
//! sample from its nearest *misses* (different class) but not from its
//! nearest *hits* (same class). The paper notes Relief degrades under noise
//! (§5) — the micro benchmarks (Fig. 6) reproduce that behaviour.
//!
//! Regression targets are quantile-binned first (a standard RReliefF
//! approximation; bins follow [`crate::mutual_info::discretize_target`]).

use crate::mutual_info::discretize_target;
use arda_linalg::Matrix;
use arda_ml::{nearest_neighbors, Task};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// Anchor·row·feature work units below which the anchor loop stays
/// sequential.
const PAR_MIN_WORK: usize = 1 << 15;

/// Neighbours per hit/miss search.
const K: usize = 5;

/// Anchor rows sampled (all rows when there are fewer).
const N_ANCHORS: usize = 100;

/// Quantile bins for regression targets.
const REGRESSION_BINS: usize = 4;

/// ReliefF weights for every feature (higher = more relevant); `seed`
/// draws the anchor rows.
pub fn relief_scores(x: &Matrix, y: &[f64], task: Task, seed: u64) -> Vec<f64> {
    let n = x.rows();
    let d = x.cols();
    if n == 0 || d == 0 {
        return vec![0.0; d];
    }
    let (classes, _) = discretize_target(y, task, REGRESSION_BINS);

    // Per-feature ranges for distance normalisation (one reused gather
    // buffer across the column sweep).
    let mut ranges = vec![0.0f64; d];
    let mut buf = Vec::new();
    for (c, range) in ranges.iter_mut().enumerate() {
        x.col_into(c, &mut buf);
        let lo = buf.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = buf.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        *range = (hi - lo).max(1e-12);
    }

    let mut anchors: Vec<usize> = (0..n).collect();
    if N_ANCHORS < n {
        anchors.shuffle(&mut StdRng::seed_from_u64(seed));
        anchors.truncate(N_ANCHORS);
    }

    // Each anchor's hit/miss search and weight delta is independent; the
    // deltas are reduced in anchor order afterwards, so the accumulated
    // weights match the sequential loop at any budget. Small
    // datasets stay sequential (the per-anchor scan costs ~n·d work).
    let anchor_delta = |_, &i: &usize| {
        // Inner scans run on this anchor's split of the shared work budget:
        // sequential when the anchor fan-out is wide, parallel when few
        // anchors leave budget to spare — never oversubscribed.
        let hits = nearest_neighbors(x, i, K, |j| classes[j] == classes[i]);
        let misses = nearest_neighbors(x, i, K, |j| classes[j] != classes[i]);
        if hits.is_empty() || misses.is_empty() {
            return None;
        }
        let anchor = x.row(i);
        let mut delta = vec![0.0f64; d];
        for (f, w) in delta.iter_mut().enumerate() {
            let hit_diff: f64 = hits
                .iter()
                .map(|&h| (anchor[f] - x.get(h, f)).abs() / ranges[f])
                .sum::<f64>()
                / hits.len() as f64;
            let miss_diff: f64 = misses
                .iter()
                .map(|&m| (anchor[f] - x.get(m, f)).abs() / ranges[f])
                .sum::<f64>()
                / misses.len() as f64;
            *w = miss_diff - hit_diff;
        }
        Some(delta)
    };
    let deltas: Vec<Option<Vec<f64>>> =
        arda_par::sequential_below(anchors.len() * n * d, PAR_MIN_WORK, || {
            arda_par::par_map(&anchors, anchor_delta)
        });

    let mut weights = vec![0.0f64; d];
    let mut updates = 0usize;
    for delta in deltas.into_iter().flatten() {
        updates += 1;
        for (w, v) in weights.iter_mut().zip(&delta) {
            *w += v;
        }
    }
    if updates > 0 {
        weights.iter_mut().for_each(|w| *w /= updates as f64);
    }
    weights
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    fn planted(n: usize, seed: u64) -> (Matrix, Vec<f64>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut rows = Vec::with_capacity(n);
        let mut y = Vec::with_capacity(n);
        for i in 0..n {
            let cls = (i % 2) as f64;
            rows.push(vec![
                cls * 2.0 + rng.gen_range(-0.3..0.3),
                rng.gen_range(-1.0..1.0),
            ]);
            y.push(cls);
        }
        (Matrix::from_rows(&rows).unwrap(), y)
    }

    #[test]
    fn signal_feature_outranks_noise() {
        let (x, y) = planted(200, 0);
        let w = relief_scores(&x, &y, Task::Classification { n_classes: 2 }, 0);
        assert!(w[0] > 0.2, "signal weight {w:?}");
        assert!(w[0] > w[1] * 3.0, "{w:?}");
    }

    #[test]
    fn regression_binning_path() {
        let mut rng = StdRng::seed_from_u64(1);
        let n = 150;
        let rows: Vec<Vec<f64>> = (0..n)
            .map(|i| vec![i as f64 / n as f64, rng.gen_range(-1.0..1.0)])
            .collect();
        let y: Vec<f64> = rows.iter().map(|r| r[0] * 10.0).collect();
        let x = Matrix::from_rows(&rows).unwrap();
        let w = relief_scores(&x, &y, Task::Regression, 0);
        assert!(w[0] > w[1], "{w:?}");
    }

    #[test]
    fn single_class_gives_zero_weights() {
        let x = Matrix::from_rows(&[vec![1.0], vec![2.0], vec![3.0]]).unwrap();
        let y = vec![0.0, 0.0, 0.0];
        let w = relief_scores(&x, &y, Task::Classification { n_classes: 2 }, 0);
        assert_eq!(w, vec![0.0]);
    }

    #[test]
    fn empty_input() {
        let x = Matrix::zeros(0, 3);
        let w = relief_scores(&x, &[], Task::Regression, 0);
        assert_eq!(w, vec![0.0; 3]);
    }

    #[test]
    fn sampling_is_deterministic() {
        // 120 rows > 100 anchors, so the seed draws a subset.
        let (x, y) = planted(120, 2);
        let a = relief_scores(&x, &y, Task::Classification { n_classes: 2 }, 9);
        let b = relief_scores(&x, &y, Task::Classification { n_classes: 2 }, 9);
        assert_eq!(a, b);
    }
}
