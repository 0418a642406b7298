//! RIFS — Random-Injection Feature Selection (ARDA §6, Algorithms 1–3).
//!
//! The key idea: append `η·d` *synthetic noise features* to the data, rank
//! real and injected features together with an ensemble of Random Forest and
//! ℓ2,1 Sparse Regression rankings, and count how often each real feature
//! out-ranks **every** injected feature across `k` fresh injections. Real
//! features that cannot consistently beat noise are pruned. A final wrapper
//! sweeps an increasing threshold `τ` over these fractions, keeping the last
//! subset whose holdout score still improved monotonically (Algorithm 3).
//!
//! Injection distributions: when features are mostly relevant, simple
//! standard distributions (normal/uniform) suffice; the adversarial regime
//! uses *moment-matched* noise `N(µ, Σ)` fitted to the
//! empirical feature mean/covariance (Algorithm 2) so the injected features
//! "look like" the input.

use crate::ranking::order_by_scores;
use crate::sparse_regression::{l21_solve, target_matrix, L21Config};
use crate::{Result, SelectionContext};
use arda_linalg::random::{normal_vec, MomentMatchedSampler};
use arda_linalg::stats::standardize_columns;
use arda_linalg::Matrix;
use arda_ml::{Dataset, ForestConfig, RandomForest};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Distribution of the injected random features (§6.1).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum InjectionDistribution {
    /// `N(µ, Σ)` moment-matched to the input features — Algorithm 2, the
    /// default for the adversarial "few relevant features" regime.
    MomentMatched,
    /// i.i.d. standard normal entries.
    StandardNormal,
    /// i.i.d. `U(0, 1)` entries.
    Uniform,
}

/// The wrapper's increasing threshold grid `T` (Algorithm 3).
const THRESHOLDS: [f64; 6] = [0.3, 0.5, 0.6, 0.7, 0.8, 0.9];

/// RIFS hyper-parameters. Defaults follow the paper's experiments: η = 0.2,
/// k = 10 repeats and an even RF/SR ensemble weight.
#[derive(Debug, Clone, PartialEq)]
pub struct RifsConfig {
    /// Fraction η of random features to inject.
    pub eta: f64,
    /// Number of injection rounds `k` (the paper's `t = 10`).
    pub repeats: usize,
    /// Ensemble weight ν: aggregate = ν·RF + (1−ν)·SR (§6.3).
    pub nu: f64,
    /// Injected-feature distribution.
    pub distribution: InjectionDistribution,
    /// ℓ2,1 solver settings for the SR half of the ensemble.
    pub l21: L21Config,
    /// Trees for the RF half of the ensemble.
    pub rf_trees: usize,
}

impl Default for RifsConfig {
    fn default() -> Self {
        RifsConfig {
            eta: 0.2,
            repeats: 10,
            nu: 0.5,
            distribution: InjectionDistribution::MomentMatched,
            l21: L21Config::default(),
            rf_trees: 24,
        }
    }
}

/// RIFS output: the selection plus diagnostics used by the benches.
#[derive(Debug, Clone)]
pub struct RifsReport {
    /// Selected feature indices.
    pub selected: Vec<usize>,
    /// Per-feature fraction of rounds in which the feature out-ranked every
    /// injected random feature (`r*` of Algorithm 1).
    pub fractions: Vec<f64>,
    /// Threshold τ the wrapper settled on.
    pub threshold_used: f64,
    /// Holdout score of the selected subset.
    pub holdout_score: f64,
}

/// Draw the `n×t` injected-feature block (Algorithm 2 or a standard
/// distribution).
pub fn inject_features(
    x: &Matrix,
    t: usize,
    distribution: InjectionDistribution,
    rng: &mut StdRng,
) -> Matrix {
    let n = x.rows();
    match distribution {
        InjectionDistribution::MomentMatched => MomentMatchedSampler::fit(x).sample_columns(rng, t),
        InjectionDistribution::StandardNormal => {
            let mut m = Matrix::zeros(n, t);
            for c in 0..t {
                for (r, v) in normal_vec(rng, n).into_iter().enumerate() {
                    m.set(r, c, v);
                }
            }
            m
        }
        InjectionDistribution::Uniform => {
            let mut m = Matrix::zeros(n, t);
            for r in 0..n {
                for c in 0..t {
                    m.set(r, c, rng.gen_range(0.0..1.0));
                }
            }
            m
        }
    }
}

/// Max-normalise scores to `[0, 1]` (all-zero stays all-zero).
fn max_normalize(scores: &mut [f64]) {
    let max = scores.iter().copied().fold(0.0f64, f64::max);
    if max > 0.0 {
        scores.iter_mut().for_each(|s| *s /= max);
    }
}

/// One ensemble ranking over the augmented matrix (Algorithm 1, step 2):
/// ν-weighted combination of RF importances and ℓ2,1 row norms.
///
/// The forest fit and ℓ2,1 solve run on the ambient work budget: when RIFS
/// fans its injection rounds out, each round's ambient budget is the
/// `arda-par` split of the whole, so a wide round fan-out makes these
/// sequential while a narrow one lets them use the freed budget — without
/// ever oversubscribing.
fn ensemble_scores(aug: &Dataset, cfg: &RifsConfig, seed: u64) -> Result<Vec<f64>> {
    let rf_cfg = ForestConfig {
        n_trees: cfg.rf_trees,
        max_depth: 10,
        seed,
    };
    let mut rf = RandomForest::fit_xy(&aug.x, &aug.y, aug.task, &rf_cfg)?
        .importances()
        .to_vec();
    max_normalize(&mut rf);

    let mut xs = aug.x.clone();
    standardize_columns(&mut xs);
    let ym = target_matrix(&aug.y, aug.task);
    let mut sr = l21_solve(&xs, &ym, &cfg.l21)?.feature_scores;
    max_normalize(&mut sr);

    Ok(rf
        .iter()
        .zip(&sr)
        .map(|(a, b)| cfg.nu * a + (1.0 - cfg.nu) * b)
        .collect())
}

/// Algorithm 1: compute `r*`, the fraction of rounds each real feature
/// out-ranks all injected features.
pub fn rifs_fractions(train_data: &Dataset, cfg: &RifsConfig, seed: u64) -> Result<Vec<f64>> {
    let d = train_data.n_features();
    if d == 0 {
        return Ok(Vec::new());
    }
    let t = ((cfg.eta * d as f64).ceil() as usize).max(1);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut counts = vec![0usize; d];
    let repeats = cfg.repeats.max(1);

    // Draw every round's injected noise up front from the single master RNG
    // (the stream is identical to the old one-round-at-a-time order), then
    // run the independent ensemble fits concurrently on the ambient work
    // budget; each round's nested fits plan with the per-round split. Count
    // aggregation walks the ordered results, so fractions match the
    // sequential run for any budget.
    let noises: Vec<Matrix> = (0..repeats)
        .map(|_| inject_features(&train_data.x, t, cfg.distribution, &mut rng))
        .collect();
    let names: Vec<String> = (0..t).map(|i| format!("__rifs_noise_{i}")).collect();
    let round_scores: Vec<Result<Vec<f64>>> = arda_par::par_map(&noises, |rep, noise| {
        let aug = train_data.append_features(noise, names.clone())?;
        ensemble_scores(&aug, cfg, seed.wrapping_add(rep as u64))
    });

    for scores in round_scores {
        let scores = scores?;
        // Threshold: the best-scoring injected feature.
        let noise_max = scores[d..]
            .iter()
            .copied()
            .fold(f64::NEG_INFINITY, f64::max);
        for (j, count) in counts.iter_mut().enumerate() {
            if scores[j] > noise_max {
                *count += 1;
            }
        }
    }
    Ok(counts.iter().map(|&c| c as f64 / repeats as f64).collect())
}

/// Algorithms 1+3: full RIFS selection with the threshold wrapper.
pub fn rifs_select(data: &Dataset, ctx: &SelectionContext, cfg: &RifsConfig) -> Result<RifsReport> {
    let train_data = data.select_rows(&ctx.train)?;
    let fractions = rifs_fractions(&train_data, cfg, ctx.seed)?;

    // Wrapper (Algorithm 3): sweep increasing τ while the holdout score is
    // monotone non-decreasing; keep the last improving subset.
    //
    // Subsets shrink monotonically as τ grows, so everything past the first
    // empty subset is empty too — exactly where the sequential loop stopped.
    let mut candidates: Vec<(f64, Vec<usize>)> = Vec::new(); // (τ, subset)
    for tau in THRESHOLDS {
        let subset: Vec<usize> = (0..fractions.len())
            .filter(|&j| fractions[j] >= tau)
            .collect();
        if subset.is_empty() {
            break;
        }
        candidates.push((tau, subset));
    }

    // The holdout evaluations per τ are independent given the fractions:
    // fan them out on the ambient work budget (a one-wide budget runs them
    // in order). Consecutive thresholds often select the same subset, so
    // only distinct subsets are evaluated; the estimator refit is
    // deterministic in (subset, seed), which keeps the monotone walk below
    // bit-identical to the sequential sweep.
    let mut distinct: Vec<Vec<usize>> = Vec::new();
    let mut subset_of: Vec<usize> = Vec::with_capacity(candidates.len());
    for (_, subset) in &candidates {
        if distinct.last() != Some(subset) {
            distinct.push(subset.clone());
        }
        subset_of.push(distinct.len() - 1);
    }
    let scores = arda_par::par_map(&distinct, |_, subset| ctx.evaluate(data, subset))
        .into_iter()
        .collect::<Result<Vec<f64>>>()?;

    let mut best: Option<(Vec<usize>, f64, f64)> = None; // (subset, τ, score)
    for ((tau, subset), d) in candidates.into_iter().zip(subset_of) {
        let score = scores[d];
        match &best {
            Some((_, _, prev)) if score < *prev => break,
            _ => best = Some((subset, tau, score)),
        }
    }

    // Fallback when no feature ever beat the noise at the lowest threshold:
    // keep the single most noise-resistant feature, if there is any.
    let (selected, threshold_used, holdout_score) = match best {
        Some(b) => b,
        None => {
            let subset: Vec<usize> = order_by_scores(&fractions).into_iter().take(1).collect();
            let score = ctx.evaluate(data, &subset)?;
            (subset, f64::NAN, score)
        }
    };

    Ok(RifsReport {
        selected,
        fractions,
        threshold_used,
        holdout_score,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use arda_ml::Task;

    /// 2 strong features + `n_noise` random ones.
    fn planted(n: usize, n_noise: usize, seed: u64) -> Dataset {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut rows = Vec::with_capacity(n);
        let mut y = Vec::with_capacity(n);
        for i in 0..n {
            let cls = (i % 2) as f64;
            let mut row = vec![
                cls * 3.0 + rng.gen_range(-0.4..0.4),
                -cls * 2.0 + rng.gen_range(-0.4..0.4),
            ];
            for _ in 0..n_noise {
                row.push(rng.gen_range(-1.0..1.0));
            }
            rows.push(row);
            y.push(cls);
        }
        let names = (0..2 + n_noise).map(|i| format!("f{i}")).collect();
        Dataset::new(
            Matrix::from_rows(&rows).unwrap(),
            y,
            names,
            Task::Classification { n_classes: 2 },
        )
        .unwrap()
    }

    fn fast_cfg() -> RifsConfig {
        RifsConfig {
            repeats: 5,
            rf_trees: 12,
            l21: L21Config {
                max_iter: 10,
                ..Default::default()
            },
            ..Default::default()
        }
    }

    #[test]
    fn signal_features_beat_injected_noise() {
        let d = planted(160, 8, 0);
        let fr = rifs_fractions(&d, &fast_cfg(), 0).unwrap();
        assert!(fr[0] >= 0.8, "signal f0 fraction {fr:?}");
        assert!(fr[1] >= 0.6, "signal f1 fraction {fr:?}");
        let noise_mean: f64 = fr[2..].iter().sum::<f64>() / 8.0;
        assert!(noise_mean < 0.5, "noise fractions should be low: {fr:?}");
    }

    #[test]
    fn full_selection_keeps_signal_prunes_noise() {
        let d = planted(160, 10, 1);
        let ctx = SelectionContext::standard(&d, 1);
        let report = rifs_select(&d, &ctx, &fast_cfg()).unwrap();
        assert!(
            report.selected.contains(&0),
            "f0 kept: {:?}",
            report.selected
        );
        assert!(
            report.selected.len() <= 6,
            "most of 10 noise features pruned: {:?}",
            report.selected
        );
        assert!(
            report.holdout_score > 0.85,
            "score {}",
            report.holdout_score
        );
    }

    #[test]
    fn every_distribution_runs() {
        let d = planted(80, 4, 2);
        let mut rng = StdRng::seed_from_u64(0);
        for dist in [
            InjectionDistribution::MomentMatched,
            InjectionDistribution::StandardNormal,
            InjectionDistribution::Uniform,
        ] {
            let m = inject_features(&d.x, 3, dist, &mut rng);
            assert_eq!(m.rows(), 80);
            assert_eq!(m.cols(), 3);
            let finite = m.data().iter().all(|v| v.is_finite());
            assert!(finite, "{dist:?} produced non-finite values");
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let d = planted(100, 5, 5);
        let fr1 = rifs_fractions(&d, &fast_cfg(), 7).unwrap();
        let fr2 = rifs_fractions(&d, &fast_cfg(), 7).unwrap();
        assert_eq!(fr1, fr2);
    }
}
