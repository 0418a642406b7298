//! k-nearest-neighbour queries (linear scan), used by the Relief feature
//! selector's nearest-hit/nearest-miss searches. The distance scan runs in
//! parallel row bands for large matrices; candidate order (and therefore
//! the tie-break) is identical to the sequential scan at any budget.

use arda_linalg::Matrix;

/// Row count below which the scan stays sequential (thread spawn would
/// dominate the distance arithmetic).
const PAR_MIN_ROWS: usize = 2_048;

/// Squared Euclidean distance between two rows.
#[inline]
pub fn sq_dist(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum()
}

/// Indices of the `k` nearest rows of `x` to `x[query]`, excluding the query
/// itself, optionally restricted by a row filter.
///
/// `filter` receives each candidate row index; return `false` to skip it
/// (Relief uses this to search hits and misses separately). The scan runs
/// on the ambient `arda-par` work budget; callers running many scans
/// concurrently (Relief's anchor loop) give each its split of the shared
/// budget, so nesting cannot oversubscribe.
pub fn nearest_neighbors(
    x: &Matrix,
    query: usize,
    k: usize,
    filter: impl Fn(usize) -> bool + Sync,
) -> Vec<usize> {
    let q = x.row(query);
    let mut candidates: Vec<(f64, usize)> =
        arda_par::sequential_below(x.rows(), PAR_MIN_ROWS, || {
            arda_par::par_for_rows(x.rows(), |range| {
                range
                    .filter(|&i| i != query && filter(i))
                    .map(|i| (sq_dist(q, x.row(i)), i))
                    .collect()
            })
        });
    candidates.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
    candidates.truncate(k);
    candidates.into_iter().map(|(_, i)| i).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid() -> Matrix {
        Matrix::from_rows(&[
            vec![0.0, 0.0],
            vec![1.0, 0.0],
            vec![0.0, 1.0],
            vec![5.0, 5.0],
        ])
        .unwrap()
    }

    #[test]
    fn finds_closest_first() {
        let x = grid();
        let nn = nearest_neighbors(&x, 0, 2, |_| true);
        assert_eq!(nn.len(), 2);
        assert!(nn.contains(&1) && nn.contains(&2));
    }

    #[test]
    fn excludes_query_row() {
        let x = grid();
        let nn = nearest_neighbors(&x, 3, 3, |_| true);
        assert!(!nn.contains(&3));
    }

    #[test]
    fn filter_restricts_candidates() {
        let x = grid();
        let nn = nearest_neighbors(&x, 0, 2, |i| i == 3);
        assert_eq!(nn, vec![3]);
    }

    #[test]
    fn k_larger_than_population() {
        let x = grid();
        let nn = nearest_neighbors(&x, 0, 10, |_| true);
        assert_eq!(nn.len(), 3);
    }

    #[test]
    fn sq_dist_basic() {
        assert_eq!(sq_dist(&[0.0, 0.0], &[3.0, 4.0]), 25.0);
        assert_eq!(sq_dist(&[1.0], &[1.0]), 0.0);
    }

    #[test]
    fn large_scan_matches_sequential_order() {
        // Above the parallel threshold; ties broken by index exactly as in
        // the sequential scan.
        let rows: Vec<Vec<f64>> = (0..3_000)
            .map(|i| vec![(i % 7) as f64, ((i * 13) % 5) as f64])
            .collect();
        let x = Matrix::from_rows(&rows).unwrap();
        let nn = nearest_neighbors(&x, 0, 10, |_| true);
        // Sequential reference.
        let q = x.row(0);
        let mut expect: Vec<(f64, usize)> =
            (1..x.rows()).map(|i| (sq_dist(q, x.row(i)), i)).collect();
        expect.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        let expect: Vec<usize> = expect.into_iter().take(10).map(|(_, i)| i).collect();
        assert_eq!(nn, expect);
    }
}
