//! CART decision trees for classification (Gini) and regression (variance
//! reduction), with random feature subsampling for forests.
//!
//! # Split search on ranks
//!
//! A fit starts by building one `RankTable`. For each feature it holds
//! each row's dense rank under [`f64::total_cmp`] (a column-major `u32`
//! table) and the feature's distinct values in rank order, so a row's value
//! is `sorted[rank]` and the distinct count is `sorted.len()`. A tree
//! trains on row *positions* into that table; a forest's bootstrap repeats
//! positions instead of copying rows. Ordering a node never compares floats:
//!
//! * the node caches its table rows and targets once, by *slot* (its
//!   positions in ascending order);
//! * a candidate feature whose ranks are all equal in the node is skipped
//!   before any sort;
//! * when the feature has at most as many distinct values as the node has
//!   rows, the node is counting-sorted by rank in O(rows + distinct);
//! * otherwise the `rank << 32 | slot` keys are sorted with
//!   `sort_unstable` (they are unique, so the result is deterministic).
//!
//! **Ties.** Both orderings visit equal ranks in slot order, i.e. in
//! ascending position. That is exactly the sequence a stable
//! `sort_by(total_cmp)` of the node's `(value, target)` pairs produces, so
//! the split scan sees the same pairs in the same order: sums, gains,
//! thresholds and importances come out the same bit for bit as sorting the
//! values at every node. Which ordering runs depends only on the input.

use crate::{Dataset, MlError, Result, Task};
use arda_linalg::Matrix;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

#[cfg(test)]
pub(crate) mod oracle;

/// How many candidate features each split considers.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum MaxFeatures {
    /// All features (plain CART).
    All,
    /// `⌈√d⌉` — the forest default for classification.
    Sqrt,
    /// `⌈d/3⌉` — the forest default for regression.
    Third,
    /// Explicit count (clamped to `d`).
    Exact(usize),
}

impl MaxFeatures {
    fn resolve(self, d: usize) -> usize {
        let k = match self {
            MaxFeatures::All => d,
            MaxFeatures::Sqrt => (d as f64).sqrt().ceil() as usize,
            MaxFeatures::Third => d.div_ceil(3),
            MaxFeatures::Exact(k) => k,
        };
        k.clamp(1, d.max(1))
    }
}

/// Tree growth hyper-parameters.
#[derive(Debug, Clone)]
pub struct TreeConfig {
    /// Maximum depth (root is depth 0).
    pub max_depth: usize,
    /// Minimum samples required to attempt a split.
    pub min_samples_split: usize,
    /// Minimum samples in each child.
    pub min_samples_leaf: usize,
    /// Feature subsampling rule.
    pub max_features: MaxFeatures,
    /// RNG seed for feature subsampling.
    pub seed: u64,
}

impl Default for TreeConfig {
    fn default() -> Self {
        TreeConfig {
            max_depth: 12,
            min_samples_split: 2,
            min_samples_leaf: 1,
            max_features: MaxFeatures::All,
            seed: 0,
        }
    }
}

#[derive(Debug, Clone)]
enum Node {
    Leaf {
        prediction: f64,
    },
    Split {
        feature: usize,
        threshold: f64,
        left: usize,
        right: usize,
    },
}

/// A fitted CART tree.
#[derive(Debug, Clone)]
pub struct DecisionTree {
    nodes: Vec<Node>,
    task: Task,
    n_features: usize,
    /// Total impurity decrease attributed to each feature (unnormalised).
    importances: Vec<f64>,
}

/// Every feature of a training matrix, ranked once per fit and shared by
/// all trees of a forest.
pub(crate) struct RankTable {
    /// Training rows.
    n: usize,
    /// `ranks[f * n + r]`: dense rank of `x[r, f]` in column `f` under
    /// `total_cmp` (equal ranks ⇔ bit-identical values).
    ranks: Vec<u32>,
    /// Each feature's distinct values in rank order, concatenated; feature
    /// `f` owns `sorted[starts[f]..starts[f + 1]]`.
    sorted: Vec<f64>,
    starts: Vec<usize>,
}

/// One feature's view of a [`RankTable`].
#[derive(Clone, Copy)]
struct RankedColumn<'a> {
    /// Rank of each table row.
    ranks: &'a [u32],
    /// Distinct values by rank: `x[r, f]` is `sorted[ranks[r]]`.
    sorted: &'a [f64],
}

impl RankedColumn<'_> {
    fn value(&self, row: usize) -> f64 {
        self.sorted[self.ranks[row] as usize]
    }
}

impl RankTable {
    pub(crate) fn new(x: &Matrix) -> Self {
        let (n, d) = (x.rows(), x.cols());
        assert!(u32::try_from(n).is_ok(), "ranks and slots are u32");
        let columns = x.transpose();
        let mut ranks = vec![0u32; n * d];
        let mut sorted = Vec::new();
        let mut starts = vec![0];
        let mut order: Vec<usize> = Vec::with_capacity(n);
        for f in 0..d {
            let (col, col_ranks) = (columns.row(f), &mut ranks[f * n..][..n]);
            order.clear();
            order.extend(0..n);
            order.sort_unstable_by(|&a, &b| col[a].total_cmp(&col[b]));
            for (w, &r) in order.iter().enumerate() {
                if w == 0 || col[r].total_cmp(&col[order[w - 1]]).is_ne() {
                    sorted.push(col[r]);
                }
                col_ranks[r] = (sorted.len() - 1 - starts[f]) as u32;
            }
            starts.push(sorted.len());
        }
        RankTable {
            n,
            ranks,
            sorted,
            starts,
        }
    }

    fn n_features(&self) -> usize {
        self.starts.len() - 1
    }

    fn column(&self, f: usize) -> RankedColumn<'_> {
        RankedColumn {
            ranks: &self.ranks[f * self.n..][..self.n],
            sorted: &self.sorted[self.starts[f]..self.starts[f + 1]],
        }
    }
}

/// Orders one node for one feature: the node's `(value, target)` pairs by
/// rank, ties in slot order (see the module docs).
#[derive(Default)]
struct NodeOrder {
    /// Counting-sort bucket cursors, one per distinct value.
    buckets: Vec<usize>,
    /// `rank << 32 | slot` sort keys.
    keys: Vec<u64>,
    /// The ordered pairs the split scan reads.
    pairs: Vec<(f64, f64)>,
}

impl NodeOrder {
    /// Fill `pairs` for the node whose table rows and targets are
    /// `node_rows`/`node_y` (non-empty). Returns `false` for a feature
    /// that is constant in the node and so has no split.
    fn fill(&mut self, col: RankedColumn<'_>, node_rows: &[usize], node_y: &[f64]) -> bool {
        let m = node_rows.len();
        let first = node_rows[0];
        self.pairs.clear();
        if node_rows.iter().all(|&r| col.ranks[r] == col.ranks[first]) {
            // Constant NaN is still scanned: NaN != NaN, so the scan's own
            // constant check and tie skips never fire on it.
            if !col.value(first).is_nan() {
                return false;
            }
            let pairs = node_rows
                .iter()
                .zip(node_y)
                .map(|(&r, &y)| (col.value(r), y));
            self.pairs.extend(pairs);
        } else if col.sorted.len() <= m {
            self.buckets.clear();
            self.buckets.resize(col.sorted.len(), 0);
            for &r in node_rows {
                self.buckets[col.ranks[r] as usize] += 1;
            }
            let mut start = 0;
            for b in self.buckets.iter_mut() {
                let count = *b;
                *b = start;
                start += count;
            }
            self.pairs.resize(m, (0.0, 0.0));
            for (&r, &y) in node_rows.iter().zip(node_y) {
                let rank = col.ranks[r] as usize;
                let cursor = &mut self.buckets[rank];
                self.pairs[*cursor] = (col.sorted[rank], y);
                *cursor += 1;
            }
        } else {
            self.keys.clear();
            let keys = node_rows
                .iter()
                .enumerate()
                .map(|(slot, &r)| (col.ranks[r] as u64) << 32 | slot as u64);
            self.keys.extend(keys);
            self.keys.sort_unstable();
            let pairs = self
                .keys
                .iter()
                .map(|&k| (col.sorted[(k >> 32) as usize], node_y[k as u32 as usize]));
            self.pairs.extend(pairs);
        }
        true
    }
}

/// Buffers every node of one fit reuses, so growing a tree allocates
/// nothing per node or per candidate split.
#[derive(Default)]
struct Scratch {
    /// The current node's table rows and targets, by slot.
    node_rows: Vec<usize>,
    node_y: Vec<f64>,
    /// Candidate features of the current node.
    features: Vec<usize>,
    order: NodeOrder,
    /// Class counts of the whole node, and left of the scan cursor.
    total: Vec<usize>,
    left: Vec<usize>,
    /// Right-child positions while a node is partitioned.
    spill: Vec<usize>,
}

struct Builder<'a> {
    table: &'a RankTable,
    y: &'a [f64],
    /// Table row of each position: a forest's bootstrap sample, or every
    /// row once for a plain tree.
    rows: &'a [usize],
    task: Task,
    cfg: &'a TreeConfig,
    rng: StdRng,
    nodes: Vec<Node>,
    importances: Vec<f64>,
    scratch: Scratch,
}

impl DecisionTree {
    /// Fit a tree on the dataset.
    pub fn fit(data: &Dataset, cfg: &TreeConfig) -> Result<Self> {
        Self::fit_xy(&data.x, &data.y, data.task, cfg)
    }

    /// Fit from raw matrix/labels.
    pub fn fit_xy(x: &Matrix, y: &[f64], task: Task, cfg: &TreeConfig) -> Result<Self> {
        if x.rows() == 0 {
            return Err(MlError::Invalid("empty training set".into()));
        }
        if x.rows() != y.len() {
            return Err(MlError::ShapeMismatch(format!(
                "{} rows vs {} labels",
                x.rows(),
                y.len()
            )));
        }
        let rows: Vec<usize> = (0..x.rows()).collect();
        Ok(Self::fit_rows(&RankTable::new(x), y, &rows, task, cfg))
    }

    /// Fit on the sample whose position `p` is table row `rows[p]`; `y` is
    /// indexed by table row. `rows` must be non-empty and in bounds, with
    /// fewer than 2³² entries (slots are packed into 32 bits).
    pub(crate) fn fit_rows(
        table: &RankTable,
        y: &[f64],
        rows: &[usize],
        task: Task,
        cfg: &TreeConfig,
    ) -> Self {
        let mut b = Builder {
            table,
            y,
            rows,
            task,
            cfg,
            rng: StdRng::seed_from_u64(cfg.seed),
            nodes: Vec::new(),
            importances: vec![0.0; table.n_features()],
            scratch: Scratch::default(),
        };
        assert!(u32::try_from(rows.len()).is_ok(), "slots are u32");
        let mut positions: Vec<usize> = (0..rows.len()).collect();
        b.build(&mut positions, 0);
        DecisionTree {
            nodes: b.nodes,
            task,
            n_features: table.n_features(),
            importances: b.importances,
        }
    }

    /// Predict a single row.
    pub fn predict_row(&self, row: &[f64]) -> f64 {
        let mut i = 0usize;
        loop {
            match &self.nodes[i] {
                Node::Leaf { prediction } => return *prediction,
                Node::Split {
                    feature,
                    threshold,
                    left,
                    right,
                } => {
                    i = if row[*feature] <= *threshold {
                        *left
                    } else {
                        *right
                    };
                }
            }
        }
    }

    /// Predict every row of `x`.
    pub fn predict(&self, x: &Matrix) -> Result<Vec<f64>> {
        if x.cols() != self.n_features {
            return Err(MlError::ShapeMismatch(format!(
                "predict: {} columns vs trained {}",
                x.cols(),
                self.n_features
            )));
        }
        Ok((0..x.rows()).map(|r| self.predict_row(x.row(r))).collect())
    }

    /// Unnormalised impurity-decrease importances.
    pub fn importances(&self) -> &[f64] {
        &self.importances
    }

    /// Number of nodes (for complexity diagnostics).
    pub fn n_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// The task this tree was trained for.
    pub fn task(&self) -> Task {
        self.task
    }
}

/// Threshold between adjacent distinct values `v_prev < v_cur`: their
/// midpoint, or `v_prev` when the midpoint rounds up to `v_cur` (adjacent
/// floats) or overflows (near `f64::MAX`), as scikit-learn does. Either
/// way `x <= threshold` sends `v_prev` left and `v_cur` right, which is the
/// partition the scan scored.
fn split_threshold(v_prev: f64, v_cur: f64) -> f64 {
    let mid = (v_prev + v_cur) / 2.0;
    if mid == v_cur || !mid.is_finite() {
        v_prev
    } else {
        mid
    }
}

/// Gini impurity of class counts summing to `tot`.
fn gini(counts: impl Iterator<Item = usize>, tot: f64) -> f64 {
    1.0 - counts.map(|c| (c as f64 / tot).powi(2)).sum::<f64>()
}

/// Fill `counts` with the class histogram of `ys`.
fn class_counts(counts: &mut Vec<usize>, n_classes: usize, ys: &[f64]) {
    counts.clear();
    counts.resize(n_classes, 0);
    for &y in ys {
        counts[y as usize] += 1;
    }
}

impl Builder<'_> {
    /// Recursively build the subtree over `positions` (ascending, and
    /// reordered in place into left then right); returns node id.
    fn build(&mut self, positions: &mut [usize], depth: usize) -> usize {
        let s = &mut self.scratch;
        s.node_rows.clear();
        s.node_rows.extend(positions.iter().map(|&p| self.rows[p]));
        s.node_y.clear();
        s.node_y.extend(s.node_rows.iter().map(|&r| self.y[r]));

        let node_impurity = self.impurity();
        let should_split = positions.len() >= self.cfg.min_samples_split
            && depth < self.cfg.max_depth
            && node_impurity > 1e-12;

        if should_split {
            if let Some((feature, threshold, gain)) = self.best_split(node_impurity) {
                // Stable partition, so both children stay ascending. A
                // rejected split leaves `positions` permuted, which nothing
                // reads: the leaf below uses the cached node.
                let (rows, col) = (self.rows, self.table.column(feature));
                let spill = &mut self.scratch.spill;
                spill.clear();
                let mut n_left = 0;
                for i in 0..positions.len() {
                    let p = positions[i];
                    if col.value(rows[p]) <= threshold {
                        positions[n_left] = p;
                        n_left += 1;
                    } else {
                        spill.push(p);
                    }
                }
                positions[n_left..].copy_from_slice(spill);
                if n_left >= self.cfg.min_samples_leaf
                    && positions.len() - n_left >= self.cfg.min_samples_leaf
                {
                    self.importances[feature] +=
                        gain * positions.len() as f64 / self.rows.len() as f64;
                    let id = self.nodes.len();
                    self.nodes.push(Node::Leaf { prediction: 0.0 }); // placeholder
                    let (left, right) = positions.split_at_mut(n_left);
                    let l = self.build(left, depth + 1);
                    let r = self.build(right, depth + 1);
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

        // No child was built, so the scratch still holds this node.
        let prediction = self.leaf_value();
        let id = self.nodes.len();
        self.nodes.push(Node::Leaf { prediction });
        id
    }

    /// Prediction of the cached node: mean target or majority class.
    fn leaf_value(&mut self) -> f64 {
        let s = &mut self.scratch;
        match self.task {
            Task::Regression => s.node_y.iter().sum::<f64>() / s.node_y.len().max(1) as f64,
            Task::Classification { n_classes } => {
                class_counts(&mut s.total, n_classes, &s.node_y);
                s.total
                    .iter()
                    .enumerate()
                    .max_by_key(|(_, &c)| c)
                    .map(|(k, _)| k as f64)
                    .unwrap_or(0.0)
            }
        }
    }

    /// Impurity of the cached node: target variance or Gini.
    fn impurity(&mut self) -> f64 {
        let s = &mut self.scratch;
        let n = s.node_y.len() as f64;
        if n == 0.0 {
            return 0.0;
        }
        match self.task {
            Task::Regression => {
                let mean = s.node_y.iter().sum::<f64>() / n;
                s.node_y.iter().map(|&y| (y - mean).powi(2)).sum::<f64>() / n
            }
            Task::Classification { n_classes } => {
                class_counts(&mut s.total, n_classes, &s.node_y);
                gini(s.total.iter().copied(), n)
            }
        }
    }

    /// Best (feature, threshold, impurity decrease) for the cached node
    /// over a random feature subset, or `None` when no valid split exists.
    fn best_split(&mut self, parent_impurity: f64) -> Option<(usize, f64, f64)> {
        let d = self.table.n_features();
        if d == 0 {
            return None;
        }
        let k = self.cfg.max_features.resolve(d);
        let s = &mut self.scratch;
        s.features.clear();
        s.features.extend(0..d);
        if k < d {
            s.features.shuffle(&mut self.rng);
            s.features.truncate(k);
        }

        let n = s.node_rows.len() as f64;
        let mut best: Option<(usize, f64, f64)> = None;

        for &f in &s.features {
            if !s.order.fill(self.table.column(f), &s.node_rows, &s.node_y) {
                continue;
            }
            let pairs = &s.order.pairs;
            if pairs[0].0 == pairs[pairs.len() - 1].0 {
                continue; // constant feature in this node
            }

            match self.task {
                Task::Regression => {
                    // Two sequential folds in one pass, from `-0.0` like
                    // `Iterator::sum`.
                    let (total_sum, total_sq) = pairs
                        .iter()
                        .fold((-0.0, -0.0), |(s, q), p| (s + p.1, q + p.1 * p.1));
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
                        if (split < self.cfg.min_samples_leaf)
                            || (pairs.len() - split < self.cfg.min_samples_leaf)
                        {
                            continue;
                        }
                        let var_l = left_sq / nl - (left_sum / nl).powi(2);
                        let right_sum = total_sum - left_sum;
                        let right_sq = total_sq - left_sq;
                        let var_r = right_sq / nr - (right_sum / nr).powi(2);
                        let gain = parent_impurity - (nl / n) * var_l - (nr / n) * var_r;
                        // Zero-gain splits are allowed on impure nodes (XOR
                        // needs them); ties keep the first candidate.
                        if best.is_none_or(|b| gain > b.2) && gain >= -1e-12 {
                            best = Some((f, split_threshold(v_prev, v_cur), gain.max(0.0)));
                        }
                    }
                }
                Task::Classification { n_classes } => {
                    let (total, left) = (&mut s.total, &mut s.left);
                    total.clear();
                    total.resize(n_classes, 0);
                    for p in pairs.iter() {
                        total[p.1 as usize] += 1;
                    }
                    left.clear();
                    left.resize(n_classes, 0);
                    for split in 1..pairs.len() {
                        let (v_prev, y_prev) = pairs[split - 1];
                        left[y_prev as usize] += 1;
                        let v_cur = pairs[split].0;
                        if v_cur == v_prev {
                            continue;
                        }
                        if (split < self.cfg.min_samples_leaf)
                            || (pairs.len() - split < self.cfg.min_samples_leaf)
                        {
                            continue;
                        }
                        let nl = split as f64;
                        let nr = n - nl;
                        let gini_l = gini(left.iter().copied(), nl);
                        let right = total.iter().zip(left.iter()).map(|(t, l)| t - l);
                        let gini_r = gini(right, nr);
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

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    fn xor_dataset() -> Dataset {
        // XOR needs depth ≥ 2: not linearly separable.
        let x = Matrix::from_rows(&[
            vec![0.0, 0.0],
            vec![0.0, 1.0],
            vec![1.0, 0.0],
            vec![1.0, 1.0],
            vec![0.1, 0.1],
            vec![0.1, 0.9],
            vec![0.9, 0.1],
            vec![0.9, 0.9],
        ])
        .unwrap();
        let y = vec![0.0, 1.0, 1.0, 0.0, 0.0, 1.0, 1.0, 0.0];
        Dataset::new(
            x,
            y,
            vec!["a".into(), "b".into()],
            Task::Classification { n_classes: 2 },
        )
        .unwrap()
    }

    #[test]
    fn fits_xor() {
        let d = xor_dataset();
        let tree = DecisionTree::fit(&d, &TreeConfig::default()).unwrap();
        let preds = tree.predict(&d.x).unwrap();
        assert_eq!(preds, d.y, "tree should perfectly fit XOR");
        assert!(tree.n_nodes() >= 5);
    }

    #[test]
    fn regression_step_function() {
        let x = Matrix::from_rows(&[
            vec![1.0],
            vec![2.0],
            vec![3.0],
            vec![10.0],
            vec![11.0],
            vec![12.0],
        ])
        .unwrap();
        let y = vec![1.0, 1.0, 1.0, 5.0, 5.0, 5.0];
        let tree = DecisionTree::fit_xy(&x, &y, Task::Regression, &TreeConfig::default()).unwrap();
        let test = Matrix::from_rows(&[vec![2.5], vec![11.5]]).unwrap();
        let p = tree.predict(&test).unwrap();
        assert!((p[0] - 1.0).abs() < 1e-9);
        assert!((p[1] - 5.0).abs() < 1e-9);
    }

    #[test]
    fn depth_zero_is_single_leaf() {
        let d = xor_dataset();
        let cfg = TreeConfig {
            max_depth: 0,
            ..Default::default()
        };
        let tree = DecisionTree::fit(&d, &cfg).unwrap();
        assert_eq!(tree.n_nodes(), 1);
        // Majority class of a balanced XOR set is class 0 (tie broken by max_by_key keeping last max? ensure deterministic)
        let p = tree.predict(&d.x).unwrap();
        assert!(p.iter().all(|&v| v == p[0]));
    }

    #[test]
    fn importances_focus_on_signal_feature() {
        // Feature 0 is pure signal, feature 1 is constant noise.
        let x = Matrix::from_rows(&[
            vec![0.0, 5.0],
            vec![1.0, 5.0],
            vec![0.0, 5.0],
            vec![1.0, 5.0],
        ])
        .unwrap();
        let y = vec![0.0, 1.0, 0.0, 1.0];
        let tree = DecisionTree::fit_xy(
            &x,
            &y,
            Task::Classification { n_classes: 2 },
            &TreeConfig::default(),
        )
        .unwrap();
        assert!(tree.importances()[0] > 0.0);
        assert_eq!(tree.importances()[1], 0.0);
    }

    #[test]
    fn min_samples_leaf_respected() {
        let x = Matrix::from_rows(&[vec![1.0], vec![2.0], vec![3.0], vec![4.0]]).unwrap();
        let y = vec![0.0, 0.0, 1.0, 1.0];
        let cfg = TreeConfig {
            min_samples_leaf: 3,
            ..Default::default()
        };
        let tree =
            DecisionTree::fit_xy(&x, &y, Task::Classification { n_classes: 2 }, &cfg).unwrap();
        // No split can give both children ≥ 3 samples with n=4.
        assert_eq!(tree.n_nodes(), 1);
    }

    #[test]
    fn shape_errors() {
        let x = Matrix::zeros(2, 2);
        assert!(
            DecisionTree::fit_xy(&x, &[0.0], Task::Regression, &TreeConfig::default()).is_err()
        );
        let tree = DecisionTree::fit_xy(&x, &[0.0, 1.0], Task::Regression, &TreeConfig::default())
            .unwrap();
        assert!(tree.predict(&Matrix::zeros(1, 3)).is_err());
        assert!(DecisionTree::fit_xy(
            &Matrix::zeros(0, 2),
            &[],
            Task::Regression,
            &TreeConfig::default()
        )
        .is_err());
    }

    #[test]
    fn max_features_resolution() {
        assert_eq!(MaxFeatures::All.resolve(10), 10);
        assert_eq!(MaxFeatures::Sqrt.resolve(100), 10);
        assert_eq!(MaxFeatures::Third.resolve(10), 4);
        assert_eq!(MaxFeatures::Exact(3).resolve(10), 3);
        assert_eq!(MaxFeatures::Exact(99).resolve(10), 10);
        assert_eq!(MaxFeatures::Exact(0).resolve(10), 1);
    }

    #[test]
    fn feature_subsampling_is_deterministic_per_seed() {
        let d = xor_dataset();
        let cfg = TreeConfig {
            max_features: MaxFeatures::Exact(1),
            seed: 5,
            ..Default::default()
        };
        let t1 = DecisionTree::fit(&d, &cfg).unwrap();
        let t2 = DecisionTree::fit(&d, &cfg).unwrap();
        assert_eq!(t1.predict(&d.x).unwrap(), t2.predict(&d.x).unwrap());
    }

    #[test]
    fn rank_ordering_grows_the_oracle_trees() {
        let features = [
            MaxFeatures::All,
            MaxFeatures::Sqrt,
            MaxFeatures::Third,
            MaxFeatures::Exact(2),
        ];
        for (ti, task) in oracle::TASKS.into_iter().enumerate() {
            for n in [1, 2, 9, 60, 300] {
                let (x, y) = oracle::tricky_data(n, task, 10 * n as u64 + ti as u64);
                for (fi, max_features) in features.into_iter().enumerate() {
                    for min_samples_leaf in [1, 3] {
                        let cfg = TreeConfig {
                            min_samples_leaf,
                            max_features,
                            seed: (n * 7 + fi) as u64,
                            ..Default::default()
                        };
                        let ctx =
                            format!("{task:?} n={n} {max_features:?} leaf={min_samples_leaf}");
                        let got = DecisionTree::fit_xy(&x, &y, task, &cfg).unwrap();
                        oracle::assert_same_tree(&got, &oracle::fit_tree(&x, &y, task, &cfg), &ctx);
                    }
                }
            }
        }
    }

    #[test]
    fn repeated_positions_match_a_copied_sample() {
        for task in oracle::TASKS {
            let (x, y) = oracle::tricky_data(120, task, 77);
            let mut rng = StdRng::seed_from_u64(78);
            let rows: Vec<usize> = (0..150).map(|_| rng.gen_range(0..40)).collect();
            let cfg = TreeConfig {
                max_features: MaxFeatures::Third,
                seed: 79,
                ..Default::default()
            };
            let got = DecisionTree::fit_rows(&RankTable::new(&x), &y, &rows, task, &cfg);
            let ys: Vec<f64> = rows.iter().map(|&r| y[r]).collect();
            let want = oracle::fit_tree(&x.select_rows(&rows).unwrap(), &ys, task, &cfg);
            oracle::assert_same_tree(&got, &want, &format!("{task:?}"));
        }
    }

    /// Each case's midpoint is not strictly between the two values (it
    /// rounds up to the larger one, or overflows), so a midpoint threshold
    /// would send both rows left and drop the split.
    fn assert_threshold_separates(x: [f64; 2]) {
        let m = Matrix::from_rows(&[vec![x[0]], vec![x[1]]]).unwrap();
        for task in [Task::Regression, Task::Classification { n_classes: 2 }] {
            let tree = DecisionTree::fit_xy(&m, &[0.0, 1.0], task, &TreeConfig::default()).unwrap();
            assert_eq!(tree.n_nodes(), 3, "{task:?} {x:?}");
            assert_eq!(tree.predict(&m).unwrap(), vec![0.0, 1.0], "{task:?} {x:?}");
        }
    }

    #[test]
    fn threshold_separates_adjacent_floats() {
        let one_up = 1.0 + f64::EPSILON;
        assert_threshold_separates([one_up, 1.0 + 2.0 * f64::EPSILON]);
        assert_eq!(split_threshold(one_up, 1.0 + 2.0 * f64::EPSILON), one_up);
    }

    #[test]
    fn threshold_separates_values_near_f64_max() {
        assert_threshold_separates([0.75 * f64::MAX, f64::MAX]);
        assert_eq!(split_threshold(f64::MAX / 2.0, f64::MAX), f64::MAX / 2.0);
        assert_eq!(split_threshold(1.0, 3.0), 2.0);
    }
}
