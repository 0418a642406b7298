//! Test oracle: the split finder that sorts every node's `(value, target)`
//! pairs with a stable `total_cmp` sort, fed by copied bootstrap matrices.
//! The rank-table builder must grow the same trees bit for bit.

use super::{split_threshold, DecisionTree, MaxFeatures, Node, TreeConfig};
use crate::forest::ForestConfig;
use crate::Task;
use arda_linalg::Matrix;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

struct Builder<'a> {
    x: &'a Matrix,
    y: &'a [f64],
    task: Task,
    cfg: &'a TreeConfig,
    rng: StdRng,
    nodes: Vec<Node>,
    importances: Vec<f64>,
    n_total: usize,
}

/// Fit one tree with the sort-per-node finder.
pub(crate) fn fit_tree(x: &Matrix, y: &[f64], task: Task, cfg: &TreeConfig) -> DecisionTree {
    let mut b = Builder {
        x,
        y,
        task,
        cfg,
        rng: StdRng::seed_from_u64(cfg.seed),
        nodes: Vec::new(),
        importances: vec![0.0; x.cols()],
        n_total: x.rows(),
    };
    let mut indices: Vec<usize> = (0..x.rows()).collect();
    b.build(&mut indices, 0);
    DecisionTree {
        nodes: b.nodes,
        task,
        n_features: x.cols(),
        importances: b.importances,
    }
}

/// The trees of `RandomForest::fit_xy`, each fitted on a copy of its
/// bootstrap rows.
pub(crate) fn fit_forest(
    x: &Matrix,
    y: &[f64],
    task: Task,
    cfg: &ForestConfig,
) -> Vec<DecisionTree> {
    let (max_features, jobs) = crate::forest::plan(x.rows(), task, cfg);
    jobs.iter()
        .map(|(seed, rows)| {
            let xs = x.select_rows(rows).unwrap();
            let ys: Vec<f64> = rows.iter().map(|&i| y[i]).collect();
            let tree_cfg = TreeConfig {
                max_depth: cfg.max_depth,
                max_features,
                seed: *seed,
            };
            fit_tree(&xs, &ys, task, &tree_cfg)
        })
        .collect()
}

/// Assert two trees are identical: structure, split features, and the
/// bits of every threshold, leaf value and importance.
pub(crate) fn assert_same_tree(got: &DecisionTree, want: &DecisionTree, ctx: &str) {
    assert_eq!(got.n_features, want.n_features, "{ctx}: n_features");
    assert_eq!(got.task, want.task, "{ctx}: task");
    assert_eq!(got.nodes.len(), want.nodes.len(), "{ctx}: node count");
    for (i, (g, w)) in got.nodes.iter().zip(&want.nodes).enumerate() {
        let same = match (g, w) {
            (Node::Leaf { prediction: a }, Node::Leaf { prediction: b }) => {
                a.to_bits() == b.to_bits()
            }
            (
                Node::Split {
                    feature: fa,
                    threshold: ta,
                    left: la,
                    right: ra,
                },
                Node::Split {
                    feature: fb,
                    threshold: tb,
                    left: lb,
                    right: rb,
                },
            ) => fa == fb && ta.to_bits() == tb.to_bits() && la == lb && ra == rb,
            _ => false,
        };
        assert!(same, "{ctx}: node {i} differs: {g:?} vs {w:?}");
    }
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    assert_eq!(
        bits(&got.importances),
        bits(&want.importances),
        "{ctx}: importances"
    );
}

/// `n` rows built to stress the split ordering: binary, signed-zero,
/// heavily tied, continuous and partly-NaN columns, runs of repeated rows,
/// and a target with ties (`task` picks regression or `k`-class labels).
pub(crate) fn tricky_data(n: usize, task: Task, seed: u64) -> (Matrix, Vec<f64>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut rows: Vec<Vec<f64>> = (0..n)
        .map(|_| {
            (0..11)
                .map(|f| match f % 5 {
                    _ if f == 10 && rng.gen_bool(0.3) => f64::NAN,
                    0 => rng.gen_range(0..2) as f64,
                    1 => [-0.0, 0.0, 1.5, -2.0][rng.gen_range(0..4)],
                    2 => rng.gen_range(0..7) as f64 / 4.0,
                    3 => rng.gen_range(-1.0..1.0),
                    _ => (rng.gen_range(-1.0..1.0) * 40.0_f64).round(),
                })
                .collect()
        })
        .collect();
    for i in (3..n).step_by(7) {
        rows[i] = rows[i - 1].clone();
        rows[i - 2] = rows[i - 1].clone();
    }
    let y = rows
        .iter()
        .map(|r| {
            let signal = r[0] + r[2] - r[1] + 2.0 * r[3] + r[9] / 40.0;
            let noisy = signal + rng.gen_range(-0.5..0.5);
            match task {
                // Half the targets tie; the rest make sums order-sensitive.
                Task::Regression if rng.gen_bool(0.5) => (noisy * 4.0).round() / 4.0,
                Task::Regression => noisy,
                Task::Classification { n_classes } => {
                    (noisy.abs() * 1.5).floor().min(n_classes as f64 - 1.0)
                }
            }
        })
        .collect();
    (Matrix::from_rows(&rows).unwrap(), y)
}

/// The tasks the oracle comparisons cover.
pub(crate) const TASKS: [Task; 3] = [
    Task::Regression,
    Task::Classification { n_classes: 2 },
    Task::Classification { n_classes: 3 },
];

impl Builder<'_> {
    fn build(&mut self, indices: &mut [usize], depth: usize) -> usize {
        let node_impurity = self.impurity(indices);
        if depth < self.cfg.max_depth && node_impurity > 1e-12 {
            if let Some((feature, threshold, gain)) = self.best_split(indices, node_impurity) {
                let mut left: Vec<usize> = Vec::new();
                let mut right: Vec<usize> = Vec::new();
                for &i in indices.iter() {
                    if self.x.get(i, feature) <= threshold {
                        left.push(i);
                    } else {
                        right.push(i);
                    }
                }
                if !left.is_empty() && !right.is_empty() {
                    self.importances[feature] += gain * indices.len() as f64 / self.n_total as f64;
                    let id = self.nodes.len();
                    self.nodes.push(Node::Leaf { prediction: 0.0 });
                    let l = self.build(&mut left, depth + 1);
                    let r = self.build(&mut right, depth + 1);
                    self.nodes[id] = Node::Split {
                        feature,
                        threshold,
                        left: l,
                        right: r,
                    };
                    return id;
                }
            }
        }

        let prediction = self.leaf_value(indices);
        let id = self.nodes.len();
        self.nodes.push(Node::Leaf { prediction });
        id
    }

    fn leaf_value(&self, indices: &[usize]) -> f64 {
        match self.task {
            Task::Regression => {
                indices.iter().map(|&i| self.y[i]).sum::<f64>() / indices.len().max(1) as f64
            }
            Task::Classification { n_classes } => {
                let mut counts = vec![0usize; n_classes];
                for &i in indices {
                    counts[self.y[i] as usize] += 1;
                }
                counts
                    .iter()
                    .enumerate()
                    .max_by_key(|(_, &c)| c)
                    .map(|(k, _)| k as f64)
                    .unwrap_or(0.0)
            }
        }
    }

    fn impurity(&self, indices: &[usize]) -> f64 {
        let n = indices.len() as f64;
        if n == 0.0 {
            return 0.0;
        }
        match self.task {
            Task::Regression => {
                let mean = indices.iter().map(|&i| self.y[i]).sum::<f64>() / n;
                indices
                    .iter()
                    .map(|&i| (self.y[i] - mean).powi(2))
                    .sum::<f64>()
                    / n
            }
            Task::Classification { n_classes } => {
                let mut counts = vec![0usize; n_classes];
                for &i in indices {
                    counts[self.y[i] as usize] += 1;
                }
                1.0 - counts.iter().map(|&c| (c as f64 / n).powi(2)).sum::<f64>()
            }
        }
    }

    fn best_split(&mut self, indices: &[usize], parent_impurity: f64) -> Option<(usize, f64, f64)> {
        let d = self.x.cols();
        if d == 0 {
            return None;
        }
        let k = MaxFeatures::resolve(self.cfg.max_features, d);
        let mut features: Vec<usize> = (0..d).collect();
        if k < d {
            features.shuffle(&mut self.rng);
            features.truncate(k);
        }

        let n = indices.len() as f64;
        let mut best: Option<(usize, f64, f64)> = None;
        let mut pairs: Vec<(f64, f64)> = Vec::with_capacity(indices.len());

        for &f in &features {
            pairs.clear();
            pairs.extend(indices.iter().map(|&i| (self.x.get(i, f), self.y[i])));
            pairs.sort_by(|a, b| a.0.total_cmp(&b.0));
            if pairs[0].0 == pairs[pairs.len() - 1].0 {
                continue;
            }

            match self.task {
                Task::Regression => {
                    let total_sum: f64 = pairs.iter().map(|p| p.1).sum();
                    let total_sq: f64 = pairs.iter().map(|p| p.1 * p.1).sum();
                    let mut left_sum = 0.0;
                    let mut left_sq = 0.0;
                    for split in 1..pairs.len() {
                        let (v_prev, y_prev) = pairs[split - 1];
                        left_sum += y_prev;
                        left_sq += y_prev * y_prev;
                        let v_cur = pairs[split].0;
                        if v_cur == v_prev {
                            continue;
                        }
                        let nl = split as f64;
                        let nr = n - nl;
                        let var_l = left_sq / nl - (left_sum / nl).powi(2);
                        let right_sum = total_sum - left_sum;
                        let right_sq = total_sq - left_sq;
                        let var_r = right_sq / nr - (right_sum / nr).powi(2);
                        let gain = parent_impurity - (nl / n) * var_l - (nr / n) * var_r;
                        if best.is_none_or(|b| gain > b.2) && gain >= -1e-12 {
                            best = Some((f, split_threshold(v_prev, v_cur), gain.max(0.0)));
                        }
                    }
                }
                Task::Classification { n_classes } => {
                    let mut total = vec![0usize; n_classes];
                    for p in pairs.iter() {
                        total[p.1 as usize] += 1;
                    }
                    let mut left = vec![0usize; n_classes];
                    for split in 1..pairs.len() {
                        let (v_prev, y_prev) = pairs[split - 1];
                        left[y_prev as usize] += 1;
                        let v_cur = pairs[split].0;
                        if v_cur == v_prev {
                            continue;
                        }
                        let nl = split as f64;
                        let nr = n - nl;
                        let gini = |counts: &[usize], tot: f64| -> f64 {
                            1.0 - counts
                                .iter()
                                .map(|&c| (c as f64 / tot).powi(2))
                                .sum::<f64>()
                        };
                        let gini_l = gini(&left, nl);
                        let right: Vec<usize> =
                            total.iter().zip(&left).map(|(t, l)| t - l).collect();
                        let gini_r = gini(&right, nr);
                        let gain = parent_impurity - (nl / n) * gini_l - (nr / n) * gini_r;
                        if best.is_none_or(|b| gain > b.2) && gain >= -1e-12 {
                            best = Some((f, split_threshold(v_prev, v_cur), gain.max(0.0)));
                        }
                    }
                }
            }
        }
        best
    }
}
