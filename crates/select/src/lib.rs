//! # arda-select
//!
//! Feature selection for the ARDA reproduction: the paper's contribution —
//! **RIFS** (Random-Injection Feature Selection, §6, Algorithms 1–3) — plus
//! every baseline selector of the experimental grid (§7): random-forest,
//! sparse-regression (ℓ2,1), mutual-information, F-test, lasso, logistic,
//! linear-SVM and Relief rankings (consumed through exponential search), the
//! forward/backward/RFE wrappers, and the Tuple-Ratio table-filtering rule
//! of Kumar et al.
//!
//! All selectors share one protocol ([`SelectionContext`]): rank/search on a
//! train split, validate on a holdout split, return the selected feature
//! indices with timing.

// Numeric kernels below index several arrays with one loop variable;
// iterator rewrites would obscure the math.
#![allow(clippy::needless_range_loop)]

pub mod ftest;
pub mod mutual_info;
pub mod ranking;
pub mod relief;
pub mod rifs;
pub mod search;
pub mod sparse_regression;
pub mod tuple_ratio;
pub mod wrappers;

pub use ranking::{rank_features, RankingMethod};
pub use rifs::{rifs_fractions, rifs_select, InjectionDistribution, RifsConfig, RifsReport};
pub use search::exponential_search;
pub use tuple_ratio::{tuple_ratio_filter, TupleRatioDecision};

use arda_ml::{Dataset, MlError, ModelKind};
use std::time::Instant;

/// Error type for selection.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SelectError {
    /// Underlying ML failure.
    Ml(MlError),
    /// Invalid configuration (e.g. selector/task mismatch).
    Invalid(String),
}

impl From<MlError> for SelectError {
    fn from(e: MlError) -> Self {
        SelectError::Ml(e)
    }
}

impl std::fmt::Display for SelectError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SelectError::Ml(e) => write!(f, "ml error: {e}"),
            SelectError::Invalid(msg) => write!(f, "invalid: {msg}"),
        }
    }
}

impl std::error::Error for SelectError {}

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, SelectError>;

/// Shared evaluation protocol: a dataset with fixed train/holdout splits and
/// the estimator used for wrapper evaluations.
#[derive(Debug, Clone)]
pub struct SelectionContext {
    /// Train-split row indices.
    pub train: Vec<usize>,
    /// Holdout-split row indices.
    pub holdout: Vec<usize>,
    /// Estimator refit during searches (paper default: random forest).
    pub estimator: ModelKind,
    /// Master seed.
    pub seed: u64,
}

impl SelectionContext {
    /// Standard context: the dataset's [`Dataset::holdout_split`] with the
    /// paper's random-forest estimator.
    pub fn standard(data: &Dataset, seed: u64) -> Self {
        let (train, holdout) = data.holdout_split(seed);
        SelectionContext {
            train,
            holdout,
            estimator: ModelKind::RandomForest {
                n_trees: 32,
                max_depth: 10,
            },
            seed,
        }
    }

    /// Holdout score of the estimator restricted to `features`.
    pub fn evaluate(&self, data: &Dataset, features: &[usize]) -> Result<f64> {
        if features.is_empty() {
            return Ok(f64::NEG_INFINITY);
        }
        let sub = data.select_features(features)?;
        Ok(arda_ml::model::holdout_score(
            &sub,
            &self.estimator,
            &self.train,
            &self.holdout,
            self.seed,
        )?)
    }
}

/// Every feature-selection method of the paper's evaluation grid.
#[derive(Debug, Clone, PartialEq)]
pub enum SelectorKind {
    /// Keep all features (the "all features" rows of Tables 1/6).
    AllFeatures,
    /// RIFS (§6) with the given configuration.
    Rifs(RifsConfig),
    /// Ranking + exponential search.
    Ranking(RankingMethod),
    /// Forward selection over the random-forest ranking.
    ForwardSelection,
    /// Backward elimination over the random-forest ranking.
    BackwardSelection,
    /// Recursive feature elimination (random-forest ranker).
    Rfe,
}

impl SelectorKind {
    /// Display name matching the paper's tables.
    pub fn name(&self) -> &'static str {
        match self {
            SelectorKind::AllFeatures => "all features",
            SelectorKind::Rifs(_) => "RIFS",
            SelectorKind::Ranking(m) => m.name(),
            SelectorKind::ForwardSelection => "forward selection",
            SelectorKind::BackwardSelection => "backward selection",
            SelectorKind::Rfe => "RFE",
        }
    }

    /// True when the selector can run on the given task (lasso is
    /// regression-only; logistic / linear SVC are classification-only —
    /// the `n/a` cells of Table 1).
    pub fn supports(&self, task: arda_ml::Task) -> bool {
        match self {
            SelectorKind::Ranking(m) => m.supports(task),
            _ => true,
        }
    }
}

/// Outcome of running one selector.
#[derive(Debug, Clone)]
pub struct SelectionResult {
    /// Chosen feature indices (into the dataset's columns).
    pub selected: Vec<usize>,
    /// Holdout score of the estimator on the chosen subset.
    pub holdout_score: f64,
    /// Wall-clock selection time in seconds.
    pub seconds: f64,
}

/// Run a selector end-to-end under the shared protocol.
pub fn run_selector(
    data: &Dataset,
    kind: &SelectorKind,
    ctx: &SelectionContext,
) -> Result<SelectionResult> {
    if !kind.supports(data.task) {
        return Err(SelectError::Invalid(format!(
            "{} does not support {:?}",
            kind.name(),
            data.task
        )));
    }
    let start = Instant::now();
    let selected = match kind {
        SelectorKind::AllFeatures => (0..data.n_features()).collect(),
        SelectorKind::Rifs(cfg) => rifs::rifs_select(data, ctx, cfg)?.selected,
        SelectorKind::Ranking(method) => {
            let train_data = data.select_rows(&ctx.train)?;
            let scores = rank_features(&train_data, *method, ctx.seed)?;
            exponential_search(data, ctx, &scores)?
        }
        SelectorKind::ForwardSelection => wrappers::forward_selection(data, ctx)?,
        SelectorKind::BackwardSelection => wrappers::backward_elimination(data, ctx)?,
        SelectorKind::Rfe => wrappers::rfe(data, ctx)?,
    };
    let seconds = start.elapsed().as_secs_f64();
    let holdout_score = ctx.evaluate(data, &selected)?;
    Ok(SelectionResult {
        selected,
        holdout_score,
        seconds,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use arda_linalg::Matrix;
    use arda_ml::Task;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// 2 informative + 8 noise features, binary labels.
    pub(crate) fn planted_classification(n: usize, seed: u64) -> Dataset {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut rows = Vec::with_capacity(n);
        let mut y = Vec::with_capacity(n);
        for i in 0..n {
            let cls = (i % 2) as f64;
            let mut row = vec![
                cls * 3.0 + rng.gen_range(-0.5..0.5),
                -cls * 2.0 + rng.gen_range(-0.5..0.5),
            ];
            for _ in 0..8 {
                row.push(rng.gen_range(-1.0..1.0));
            }
            rows.push(row);
            y.push(cls);
        }
        let names = (0..10).map(|i| format!("f{i}")).collect();
        Dataset::new(
            Matrix::from_rows(&rows).unwrap(),
            y,
            names,
            Task::Classification { n_classes: 2 },
        )
        .unwrap()
    }

    #[test]
    fn all_features_selects_everything() {
        let d = planted_classification(80, 0);
        let ctx = SelectionContext::standard(&d, 0);
        let r = run_selector(&d, &SelectorKind::AllFeatures, &ctx).unwrap();
        assert_eq!(r.selected.len(), 10);
        assert!(r.holdout_score > 0.8);
    }

    #[test]
    fn ranking_selector_finds_signal() {
        let d = planted_classification(120, 1);
        let ctx = SelectionContext::standard(&d, 1);
        let r = run_selector(
            &d,
            &SelectorKind::Ranking(RankingMethod::RandomForest),
            &ctx,
        )
        .unwrap();
        assert!(
            r.selected.contains(&0),
            "signal feature 0 selected: {:?}",
            r.selected
        );
        assert!(r.holdout_score > 0.85);
        assert!(r.seconds >= 0.0);
    }

    #[test]
    fn unsupported_selector_task_pairs_error() {
        let d = planted_classification(40, 2);
        let ctx = SelectionContext::standard(&d, 2);
        assert!(run_selector(&d, &SelectorKind::Ranking(RankingMethod::Lasso), &ctx).is_err());
    }

    #[test]
    fn context_evaluate_empty_is_neg_infinity() {
        let d = planted_classification(40, 3);
        let ctx = SelectionContext::standard(&d, 3);
        assert_eq!(ctx.evaluate(&d, &[]).unwrap(), f64::NEG_INFINITY);
    }

    #[test]
    fn selector_names_match_paper() {
        assert_eq!(SelectorKind::Rifs(RifsConfig::default()).name(), "RIFS");
        assert_eq!(SelectorKind::ForwardSelection.name(), "forward selection");
        assert_eq!(
            SelectorKind::Ranking(RankingMethod::SparseRegression).name(),
            "sparse regression"
        );
    }
}
