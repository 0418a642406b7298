//! Micro-benchmark datasets (ARDA §7.2): Kraken and Digits stand-ins plus
//! the 10× noise-feature injection used to stress feature selectors.

use arda_table::{Column, Table};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A single-table micro-benchmark dataset with planted ground truth.
#[derive(Debug, Clone)]
pub struct MicroDataset {
    /// The data (features + target column).
    pub table: Table,
    /// Target column name.
    pub target: String,
    /// Names of the truly informative feature columns.
    pub informative: Vec<String>,
}

/// **Kraken**: binary machine-failure classification from anonymised sensor
/// and usage statistics — 1 000 samples with the paper's 568/432 label
/// split; 8 of 20 sensor channels carry *weak* failure signal and 8% of
/// labels are flipped, putting achievable accuracy in the paper's 57–75%
/// band (Table 6) instead of saturating.
pub fn kraken(seed: u64) -> MicroDataset {
    let mut rng = StdRng::seed_from_u64(seed);
    let n = 1_000;
    let n_features = 20;
    let n_informative = 8;

    // Fixed per-feature class offsets for the informative channels.
    let offsets: Vec<f64> = (0..n_informative)
        .map(|_| rng.gen_range(0.15..0.5))
        .collect();

    // Exactly 568 zeros and 432 ones, shuffled.
    let mut labels: Vec<f64> = std::iter::repeat_n(0.0, 568)
        .chain(std::iter::repeat_n(1.0, 432))
        .collect();
    for i in (1..labels.len()).rev() {
        labels.swap(i, rng.gen_range(0..=i));
    }

    let mut feature_cols: Vec<Vec<f64>> = (0..n_features).map(|_| Vec::with_capacity(n)).collect();
    for &y in &labels {
        for (f, col) in feature_cols.iter_mut().enumerate() {
            let v = if f < n_informative {
                y * offsets[f] + rng.gen_range(-1.0..1.0)
            } else {
                rng.gen_range(-1.0..1.0)
            };
            col.push(v);
        }
    }
    // 8% label noise via cross-class swaps: the features reflect the true
    // state while the recorded label sometimes lies — and swapping one
    // label from each class preserves the exact 568/432 split.
    let zeros: Vec<usize> = (0..n).filter(|&i| labels[i] == 0.0).collect();
    let ones: Vec<usize> = (0..n).filter(|&i| labels[i] == 1.0).collect();
    for k in 0..40 {
        let a = zeros[rng.gen_range(0..zeros.len())];
        let b = ones[rng.gen_range(0..ones.len())];
        let _ = k;
        labels.swap(a, b);
    }

    let mut cols: Vec<Column> = feature_cols
        .into_iter()
        .enumerate()
        .map(|(f, v)| Column::from_f64(format!("sensor_{f}"), v))
        .collect();
    cols.push(Column::from_i64(
        "failure",
        labels.iter().map(|&y| y as i64).collect(),
    ));

    MicroDataset {
        table: Table::new("kraken", cols).unwrap(),
        target: "failure".into(),
        informative: (0..n_informative).map(|f| format!("sensor_{f}")).collect(),
    }
}

/// **Digits**: 10-class classification with ~180 samples per digit and 64
/// blob features (8×8 intensity grid stand-in). Class signal is spread over
/// a class-specific subset of pixels, like the sklearn digits set.
pub fn digits(seed: u64) -> MicroDataset {
    let mut rng = StdRng::seed_from_u64(seed);
    let per_class = 180;
    let n_classes = 10;
    let d = 64;

    // Class templates: each class lights up 12 pseudo-random pixels.
    let mut templates = vec![vec![0.0f64; d]; n_classes];
    for (c, t) in templates.iter_mut().enumerate() {
        let mut lit = 0;
        let mut k = 0usize;
        while lit < 10 {
            let p = (c * 17 + k * 29) % d;
            if t[p] == 0.0 {
                t[p] = rng.gen_range(4.0..9.0);
                lit += 1;
            }
            k += 1;
        }
    }

    let n = per_class * n_classes;
    let mut rows: Vec<Vec<f64>> = Vec::with_capacity(n);
    let mut labels: Vec<i64> = Vec::with_capacity(n);
    for c in 0..n_classes {
        for _ in 0..per_class {
            let row: Vec<f64> = templates[c]
                .iter()
                .map(|&t| (t + rng.gen_range(-5.0..5.0)).max(0.0))
                .collect();
            rows.push(row);
            labels.push(c as i64);
        }
    }
    // Shuffle rows.
    for i in (1..n).rev() {
        let j = rng.gen_range(0..=i);
        rows.swap(i, j);
        labels.swap(i, j);
    }

    let mut cols: Vec<Column> = (0..d)
        .map(|p| Column::from_f64(format!("px_{p}"), rows.iter().map(|r| r[p]).collect()))
        .collect();
    cols.push(Column::from_i64("digit", labels));

    MicroDataset {
        table: Table::new("digits", cols).unwrap(),
        target: "digit".into(),
        informative: (0..d).map(|p| format!("px_{p}")).collect(),
    }
}

/// Append `factor ×` as many noise columns as the table has feature columns
/// (excluding `target`), "sampled from standard distributions such as
/// uniform, Gaussian, and Bernoulli with randomly initialized parameters"
/// (§7.2). Returns the augmented dataset with the noise-column names added
/// so benches can measure exact noise recovery (Fig. 6).
pub fn append_noise_columns(data: &MicroDataset, factor: usize, seed: u64) -> MicroDataset {
    let mut rng = StdRng::seed_from_u64(seed);
    let n = data.table.n_rows();
    let n_original = data.table.n_cols() - 1; // minus target
    let n_noise = n_original * factor;

    let mut table = data.table.clone();
    for k in 0..n_noise {
        let name = format!("synthnoise_{k}");
        let col = match rng.gen_range(0..3) {
            0 => {
                let lo: f64 = rng.gen_range(-10.0..0.0);
                let hi: f64 = rng.gen_range(0.0..10.0);
                Column::from_f64(&name, (0..n).map(|_| rng.gen_range(lo..hi)).collect())
            }
            1 => {
                let mu: f64 = rng.gen_range(-5.0..5.0);
                let sigma: f64 = rng.gen_range(0.1..4.0);
                Column::from_f64(
                    &name,
                    (0..n)
                        .map(|_| mu + sigma * arda_linalg::standard_normal(&mut rng))
                        .collect(),
                )
            }
            _ => {
                let p: f64 = rng.gen_range(0.1..0.9);
                Column::from_f64(
                    &name,
                    (0..n)
                        .map(|_| if rng.gen::<f64>() < p { 1.0 } else { 0.0 })
                        .collect(),
                )
            }
        };
        table.add_column(col).expect("noise names are unique");
    }
    MicroDataset {
        table,
        target: data.target.clone(),
        informative: data.informative.clone(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kraken_label_split_matches_paper() {
        let k = kraken(0);
        assert_eq!(k.table.n_rows(), 1_000);
        let labels = k.table.column("failure").unwrap();
        let ones: i64 = labels.iter().map(|v| v.as_i64().unwrap()).sum();
        assert_eq!(ones, 432);
        assert_eq!(k.informative.len(), 8);
        assert_eq!(k.table.n_cols(), 21);
    }

    #[test]
    fn digits_shape() {
        let d = digits(0);
        assert_eq!(d.table.n_rows(), 1_800);
        assert_eq!(d.table.n_cols(), 65);
        let keys = d.table.column("digit").unwrap().keys();
        let distinct: std::collections::HashSet<_> = keys.iter().flatten().collect();
        assert_eq!(distinct.len(), 10);
    }

    #[test]
    fn noise_injection_is_10x() {
        let k = kraken(1);
        let noisy = append_noise_columns(&k, 10, 2);
        // 20 original features → 200 noise columns.
        assert_eq!(noisy.table.n_cols(), 21 + 200);
        assert!(noisy.table.column("synthnoise_0").is_ok());
        assert_eq!(noisy.informative, k.informative);
    }

    #[test]
    fn informative_features_separate_classes() {
        let k = kraken(3);
        let labels: Vec<f64> = k
            .table
            .column("failure")
            .unwrap()
            .iter()
            .map(|v| v.as_i64().unwrap() as f64)
            .collect();
        let sensor0 = k.table.column("sensor_0").unwrap();
        let mean = |cls: f64| {
            let vals: Vec<f64> = (0..k.table.n_rows())
                .filter(|&i| labels[i] == cls)
                .map(|i| sensor0.get_f64(i).unwrap())
                .collect();
            vals.iter().sum::<f64>() / vals.len() as f64
        };
        assert!(
            (mean(1.0) - mean(0.0)).abs() > 0.08,
            "informative channel separates classes"
        );
        let sensor19 = k.table.column("sensor_19").unwrap();
        let mean19 = |cls: f64| {
            let vals: Vec<f64> = (0..k.table.n_rows())
                .filter(|&i| labels[i] == cls)
                .map(|i| sensor19.get_f64(i).unwrap())
                .collect();
            vals.iter().sum::<f64>() / vals.len() as f64
        };
        assert!(
            (mean19(1.0) - mean19(0.0)).abs() < 0.25,
            "uninformative channel does not"
        );
    }

    #[test]
    fn deterministic_per_seed() {
        assert_eq!(kraken(5).table, kraken(5).table);
        assert_eq!(digits(5).table, digits(5).table);
        let k = kraken(5);
        assert_eq!(
            append_noise_columns(&k, 2, 9).table,
            append_noise_columns(&k, 2, 9).table
        );
    }
}
