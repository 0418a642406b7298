//! Random forests: bootstrap-bagged CART trees fitted in parallel, with
//! impurity-based feature importances.
//!
//! A fit ranks the training matrix once into a `RankTable` that every
//! tree shares. A tree's bootstrap sample is a list of row *positions* into
//! that table, repeats included, not a copied matrix: position `p` trains
//! on table row `rows[p]`, and positions keep the order the bootstrap drew
//! them in, so ties split exactly as they would on the copied sample.
//!
//! ARDA uses Random Forests both as its default estimator ("lightly
//! auto-optimized Random Forest", §7) and as one of the two RIFS ranking
//! models (§6.2); the importances exposed here drive those rankings.

use crate::tree::{DecisionTree, MaxFeatures, RankTable, TreeConfig};
use crate::{Dataset, MlError, Result, Task};
use arda_linalg::Matrix;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Row·tree product below which `predict` stays sequential.
const PAR_MIN_PREDICTIONS: usize = 1 << 12;

/// Forest hyper-parameters.
#[derive(Debug, Clone)]
pub struct ForestConfig {
    /// Number of trees.
    pub n_trees: usize,
    /// Per-tree growth limits.
    pub max_depth: usize,
    /// Minimum samples to split a node.
    pub min_samples_split: usize,
    /// Minimum samples per leaf.
    pub min_samples_leaf: usize,
    /// Feature subsampling (`None` → √d for classification, d/3 for
    /// regression, the standard defaults).
    pub max_features: Option<MaxFeatures>,
    /// Bootstrap sample rows per tree.
    pub bootstrap: bool,
    /// Master RNG seed.
    pub seed: u64,
}

impl Default for ForestConfig {
    fn default() -> Self {
        ForestConfig {
            n_trees: 64,
            max_depth: 12,
            min_samples_split: 2,
            min_samples_leaf: 1,
            max_features: None,
            bootstrap: true,
            seed: 0,
        }
    }
}

/// A fitted random forest.
#[derive(Debug, Clone)]
pub struct RandomForest {
    trees: Vec<DecisionTree>,
    task: Task,
    importances: Vec<f64>,
}

impl RandomForest {
    /// Fit on a [`Dataset`].
    pub fn fit(data: &Dataset, cfg: &ForestConfig) -> Result<Self> {
        Self::fit_xy(&data.x, &data.y, data.task, cfg)
    }

    /// Fit from raw matrix/labels.
    pub fn fit_xy(x: &Matrix, y: &[f64], task: Task, cfg: &ForestConfig) -> Result<Self> {
        if x.rows() == 0 || cfg.n_trees == 0 {
            return Err(MlError::Invalid("empty training set or zero trees".into()));
        }
        if x.rows() != y.len() {
            return Err(MlError::ShapeMismatch(format!(
                "{} rows vs {} labels",
                x.rows(),
                y.len()
            )));
        }
        let (max_features, jobs) = plan(x.rows(), task, cfg);
        let table = RankTable::new(x);
        let tree_cfg = |seed: u64| TreeConfig {
            max_depth: cfg.max_depth,
            min_samples_split: cfg.min_samples_split,
            min_samples_leaf: cfg.min_samples_leaf,
            max_features,
            seed,
        };

        // Every tree is fully determined by its pre-drawn (seed, rows) job,
        // so `par_map`'s ordered results are identical at any work-budget
        // size; each tree fit plans with its split of the ambient budget, so
        // nesting a fit under RIFS rounds or the τ-sweep cannot
        // oversubscribe.
        let trees = arda_par::par_map(&jobs, |_, (seed, rows)| {
            DecisionTree::fit_rows(&table, y, rows, task, &tree_cfg(*seed))
        });

        // Mean impurity decrease, normalised to sum to 1 (when non-zero).
        let mut importances = vec![0.0; x.cols()];
        for t in &trees {
            for (acc, v) in importances.iter_mut().zip(t.importances()) {
                *acc += v;
            }
        }
        let total: f64 = importances.iter().sum();
        if total > 0.0 {
            importances.iter_mut().for_each(|v| *v /= total);
        }

        Ok(RandomForest {
            trees,
            task,
            importances,
        })
    }

    /// Predict rows of `x` (majority vote / mean over trees), fanning out
    /// over trees for prediction workloads large enough to amortise the
    /// thread spawn.
    pub fn predict(&self, x: &Matrix) -> Result<Vec<f64>> {
        let work = x.rows() * self.trees.len();
        let per_tree: Vec<Vec<f64>> = arda_par::sequential_below(work, PAR_MIN_PREDICTIONS, || {
            arda_par::par_map(&self.trees, |_, t| t.predict(x))
        })
        .into_iter()
        .collect::<Result<_>>()?;
        let n = x.rows();
        match self.task {
            Task::Regression => {
                let mut out = vec![0.0; n];
                for preds in &per_tree {
                    for (o, p) in out.iter_mut().zip(preds) {
                        *o += p;
                    }
                }
                out.iter_mut().for_each(|o| *o /= self.trees.len() as f64);
                Ok(out)
            }
            Task::Classification { n_classes } => {
                let mut votes = vec![vec![0usize; n_classes]; n];
                for preds in &per_tree {
                    for (row_votes, &p) in votes.iter_mut().zip(preds) {
                        let c = (p as usize).min(n_classes.saturating_sub(1));
                        row_votes[c] += 1;
                    }
                }
                Ok(votes
                    .into_iter()
                    .map(|v| {
                        v.iter()
                            .enumerate()
                            .max_by_key(|(_, &c)| c)
                            .map(|(k, _)| k as f64)
                            .unwrap_or(0.0)
                    })
                    .collect())
            }
        }
    }

    /// Normalised mean-impurity-decrease importances.
    pub fn importances(&self) -> &[f64] {
        &self.importances
    }

    /// Number of fitted trees.
    pub fn n_trees(&self) -> usize {
        self.trees.len()
    }

    /// Task the forest was trained for.
    pub fn task(&self) -> Task {
        self.task
    }
}

/// The feature-subsampling rule and each tree's pre-drawn `(seed, rows)`
/// job, drawn from `cfg.seed` alone so results are independent of thread
/// scheduling. `rows` lists the bootstrap's training rows, repeats
/// included (every row once without bootstrap).
pub(crate) fn plan(
    n: usize,
    task: Task,
    cfg: &ForestConfig,
) -> (MaxFeatures, Vec<(u64, Vec<usize>)>) {
    let max_features = cfg.max_features.unwrap_or(match task {
        Task::Classification { .. } => MaxFeatures::Sqrt,
        Task::Regression => MaxFeatures::Third,
    });
    let mut master = StdRng::seed_from_u64(cfg.seed);
    let jobs = (0..cfg.n_trees)
        .map(|_| {
            let seed: u64 = master.gen();
            let rows: Vec<usize> = if cfg.bootstrap {
                let mut r = StdRng::seed_from_u64(seed ^ 0xB00157);
                (0..n).map(|_| r.gen_range(0..n)).collect()
            } else {
                (0..n).collect()
            };
            (seed, rows)
        })
        .collect();
    (max_features, jobs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use arda_par::Budget;
    use rand::Rng;

    fn classification_blob(n: usize, seed: u64) -> Dataset {
        // Two Gaussian-ish blobs separated on feature 0; feature 1 is noise.
        let mut rng = StdRng::seed_from_u64(seed);
        let mut rows = Vec::with_capacity(n);
        let mut y = Vec::with_capacity(n);
        for i in 0..n {
            let cls = (i % 2) as f64;
            let center = if cls == 0.0 { -2.0 } else { 2.0 };
            rows.push(vec![
                center + rng.gen_range(-1.0..1.0),
                rng.gen_range(-1.0..1.0),
            ]);
            y.push(cls);
        }
        Dataset::new(
            Matrix::from_rows(&rows).unwrap(),
            y,
            vec!["signal".into(), "noise".into()],
            Task::Classification { n_classes: 2 },
        )
        .unwrap()
    }

    #[test]
    fn separable_blobs_fit_perfectly() {
        let d = classification_blob(200, 1);
        let rf = RandomForest::fit(
            &d,
            &ForestConfig {
                n_trees: 16,
                ..Default::default()
            },
        )
        .unwrap();
        let preds = rf.predict(&d.x).unwrap();
        let correct = preds.iter().zip(&d.y).filter(|(p, y)| p == y).count();
        assert!(correct as f64 / d.n_samples() as f64 > 0.97);
        assert_eq!(rf.n_trees(), 16);
    }

    #[test]
    fn importances_identify_signal() {
        let d = classification_blob(300, 2);
        let rf = RandomForest::fit(
            &d,
            &ForestConfig {
                n_trees: 32,
                ..Default::default()
            },
        )
        .unwrap();
        let imp = rf.importances();
        assert!(imp[0] > imp[1] * 3.0, "signal {} noise {}", imp[0], imp[1]);
        assert!((imp.iter().sum::<f64>() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn regression_recovers_linear_trend() {
        let mut rng = StdRng::seed_from_u64(3);
        let rows: Vec<Vec<f64>> = (0..300).map(|_| vec![rng.gen_range(0.0..10.0)]).collect();
        let y: Vec<f64> = rows.iter().map(|r| 3.0 * r[0]).collect();
        let x = Matrix::from_rows(&rows).unwrap();
        let rf = RandomForest::fit_xy(
            &x,
            &y,
            Task::Regression,
            &ForestConfig {
                n_trees: 32,
                ..Default::default()
            },
        )
        .unwrap();
        let test = Matrix::from_rows(&[vec![5.0]]).unwrap();
        let p = rf.predict(&test).unwrap()[0];
        assert!((p - 15.0).abs() < 2.0, "prediction {p}");
    }

    #[test]
    fn deterministic_given_seed_regardless_of_threads() {
        let d = classification_blob(120, 4);
        let cfg = ForestConfig {
            n_trees: 8,
            seed: 9,
            ..Default::default()
        };
        let fit = |width| Budget::isolated(width).install(|| RandomForest::fit(&d, &cfg).unwrap());
        let (rf1, rf2) = (fit(1), fit(4));
        assert_eq!(rf1.predict(&d.x).unwrap(), rf2.predict(&d.x).unwrap());
        assert_eq!(rf1.importances(), rf2.importances());
    }

    #[test]
    fn errors_on_bad_input() {
        let d = classification_blob(10, 5);
        assert!(RandomForest::fit(
            &d,
            &ForestConfig {
                n_trees: 0,
                ..Default::default()
            }
        )
        .is_err());
        let rf = RandomForest::fit(
            &d,
            &ForestConfig {
                n_trees: 2,
                ..Default::default()
            },
        )
        .unwrap();
        assert!(rf.predict(&Matrix::zeros(1, 7)).is_err());
    }

    #[test]
    fn trees_match_the_oracle_at_any_budget() {
        use crate::tree::oracle;
        for task in oracle::TASKS {
            let (x, y) = oracle::tricky_data(200, task, 31);
            let variants = [
                (true, 1, None),
                (true, 3, Some(MaxFeatures::Exact(4))),
                (false, 1, Some(MaxFeatures::All)),
            ];
            for (bootstrap, min_samples_leaf, max_features) in variants {
                let cfg = ForestConfig {
                    n_trees: 6,
                    max_depth: 10,
                    min_samples_leaf,
                    max_features,
                    bootstrap,
                    seed: 32,
                    ..Default::default()
                };
                let want = oracle::fit_forest(&x, &y, task, &cfg);
                for width in [1, 8] {
                    let budget = Budget::isolated(width);
                    let rf = budget.install(|| RandomForest::fit_xy(&x, &y, task, &cfg).unwrap());
                    assert_eq!(budget.total_spawns() > 0, width > 1, "width={width}");
                    assert_eq!(rf.trees.len(), want.len());
                    for (i, (got, want)) in rf.trees.iter().zip(&want).enumerate() {
                        let ctx = format!("{task:?} bootstrap={bootstrap} leaf={min_samples_leaf} width={width} tree {i}");
                        oracle::assert_same_tree(got, want, &ctx);
                    }
                }
            }
        }
    }
}
