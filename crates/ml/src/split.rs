//! Train/test splitting.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::collections::HashMap;

/// Shuffle `0..n` and split into (train, test) with `test_fraction` of rows
/// in the test side (at least 1 of each when `n ≥ 2`).
pub fn train_test_split(n: usize, test_fraction: f64, seed: u64) -> (Vec<usize>, Vec<usize>) {
    let mut idx: Vec<usize> = (0..n).collect();
    idx.shuffle(&mut StdRng::seed_from_u64(seed));
    let mut n_test = ((n as f64) * test_fraction).round() as usize;
    if n >= 2 {
        n_test = n_test.clamp(1, n - 1);
    } else {
        n_test = n_test.min(n);
    }
    let test = idx.split_off(n - n_test);
    (idx, test)
}

/// Label-stratified split: each class contributes ~`test_fraction` of its
/// rows to the test side, so rare classes are never absent from either side.
pub fn stratified_split(labels: &[f64], test_fraction: f64, seed: u64) -> (Vec<usize>, Vec<usize>) {
    let mut by_class: HashMap<i64, Vec<usize>> = HashMap::new();
    for (i, &y) in labels.iter().enumerate() {
        by_class.entry(y as i64).or_default().push(i);
    }
    let mut rng = StdRng::seed_from_u64(seed);
    let mut train = Vec::new();
    let mut test = Vec::new();
    // Iterate classes in sorted order for determinism.
    let mut classes: Vec<i64> = by_class.keys().copied().collect();
    classes.sort_unstable();
    for c in classes {
        let mut rows = by_class.remove(&c).expect("class present");
        rows.shuffle(&mut rng);
        let mut n_test = ((rows.len() as f64) * test_fraction).round() as usize;
        if rows.len() >= 2 {
            n_test = n_test.clamp(1, rows.len() - 1);
        } else {
            n_test = 0; // singleton classes stay in train
        }
        let split = rows.len() - n_test;
        test.extend_from_slice(&rows[split..]);
        train.extend_from_slice(&rows[..split]);
    }
    train.sort_unstable();
    test.sort_unstable();
    (train, test)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn split_partitions_rows() {
        let (train, test) = train_test_split(100, 0.25, 0);
        assert_eq!(train.len(), 75);
        assert_eq!(test.len(), 25);
        let mut all: Vec<usize> = train.iter().chain(&test).copied().collect();
        all.sort_unstable();
        assert_eq!(all, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn split_always_leaves_both_sides_nonempty() {
        let (train, test) = train_test_split(2, 0.01, 0);
        assert_eq!(train.len(), 1);
        assert_eq!(test.len(), 1);
        let (train, test) = train_test_split(2, 0.99, 0);
        assert_eq!(train.len(), 1);
        assert_eq!(test.len(), 1);
    }

    #[test]
    fn split_deterministic_per_seed() {
        assert_eq!(train_test_split(50, 0.2, 7), train_test_split(50, 0.2, 7));
        assert_ne!(
            train_test_split(50, 0.2, 7).1,
            train_test_split(50, 0.2, 8).1
        );
    }

    #[test]
    fn stratified_preserves_class_presence() {
        // 90 of class 0, 10 of class 1.
        let labels: Vec<f64> = (0..100).map(|i| if i < 90 { 0.0 } else { 1.0 }).collect();
        let (train, test) = stratified_split(&labels, 0.2, 1);
        let count = |rows: &[usize], c: f64| rows.iter().filter(|&&i| labels[i] == c).count();
        assert!(count(&test, 1.0) >= 1, "rare class must appear in test");
        assert!(count(&train, 1.0) >= 1);
        assert_eq!(train.len() + test.len(), 100);
        // Roughly 20% of each class in test.
        assert_eq!(count(&test, 0.0), 18);
        assert_eq!(count(&test, 1.0), 2);
    }

    #[test]
    fn stratified_keeps_singletons_in_train() {
        let labels = vec![0.0, 0.0, 0.0, 1.0];
        let (train, test) = stratified_split(&labels, 0.5, 0);
        assert!(train.contains(&3), "singleton class stays in train");
        assert!(!test.contains(&3));
    }
}
