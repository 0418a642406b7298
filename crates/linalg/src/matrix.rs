//! Row-major dense matrix with cache-blocked, parallel hot-path kernels.
//!
//! `matmul`, `gram`, `transpose` and `matvec` split their *output* into
//! contiguous row bands processed concurrently via [`arda_par`]; within a
//! band the loops are blocked for cache reuse. Every kernel accumulates
//! each output element in the same (ascending) order regardless of band
//! size or budget, so results are **bit-identical** to the sequential
//! naive versions — a property the test suite asserts across random shapes
//! and budget widths.

use crate::{LinalgError, Result};

/// Columns per j-panel in `matmul`: bounds the streamed slice of the
/// right-hand matrix to a few KB so it stays in L1 across the k loop.
const MATMUL_JC: usize = 256;
/// Rows of the right-hand matrix per k-block in `matmul`: with `MATMUL_JC`
/// this keeps the active `B` panel (`KC × JC × 8B` = 256 KiB) around L2.
const MATMUL_KC: usize = 128;
/// Square tile edge for `transpose` (8 KiB per tile pair).
const TRANSPOSE_TILE: usize = 32;
/// Minimum scalar operations before a kernel bothers spawning workers;
/// below this the scoped-thread setup dominates.
const PAR_MIN_OPS: usize = 1 << 15;

/// Run a kernel touching `ops` scalar operations under the shared
/// `arda-par` small-input policy with this crate's op threshold. `f`
/// receives the width its budget plans with, from which the kernels derive
/// their band sizes.
fn kernel<R>(ops: usize, f: impl FnOnce(usize) -> R) -> R {
    arda_par::sequential_below(ops, PAR_MIN_OPS, || f(arda_par::current_budget().width()))
}

/// A dense `rows × cols` matrix of `f64` stored row-major.
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Zero matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m.set(i, i, 1.0);
        }
        m
    }

    /// Build from a flat row-major buffer.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Result<Self> {
        if data.len() != rows * cols {
            return Err(LinalgError::DimensionMismatch {
                context: format!("from_vec: {} elements for {rows}x{cols}", data.len()),
            });
        }
        Ok(Matrix { rows, cols, data })
    }

    /// Build from nested rows (must be rectangular).
    pub fn from_rows(rows: &[Vec<f64>]) -> Result<Self> {
        let r = rows.len();
        let c = rows.first().map_or(0, Vec::len);
        let mut data = Vec::with_capacity(r * c);
        for row in rows {
            if row.len() != c {
                return Err(LinalgError::DimensionMismatch {
                    context: format!("from_rows: ragged row of {} (expected {c})", row.len()),
                });
            }
            data.extend_from_slice(row);
        }
        Ok(Matrix {
            rows: r,
            cols: c,
            data,
        })
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Flat row-major data.
    pub fn data(&self) -> &[f64] {
        &self.data
    }

    /// Mutable flat data.
    pub fn data_mut(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Element access (debug-checked).
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f64 {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c]
    }

    /// Element assignment.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f64) {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c] = v;
    }

    /// Borrow row `r` as a slice.
    #[inline]
    pub fn row(&self, r: usize) -> &[f64] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutable row slice.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f64] {
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Copy of column `c` (strided gather over the flat buffer).
    pub fn col(&self, c: usize) -> Vec<f64> {
        let mut out = Vec::new();
        self.col_into(c, &mut out);
        out
    }

    /// Gather column `c` into `out` (cleared first), letting callers reuse
    /// one buffer across a column sweep instead of allocating per column.
    pub fn col_into(&self, c: usize, out: &mut Vec<f64>) {
        assert!(
            c < self.cols,
            "col {c} out of range for {} columns",
            self.cols
        );
        out.clear();
        out.reserve(self.rows);
        if self.rows > 0 {
            out.extend(self.data[c..].iter().step_by(self.cols).copied());
        }
    }

    /// Build from per-column buffers (all of length `rows`), scattering
    /// directly into the row-major buffer in parallel row bands. This is
    /// the fast path for columnar sources (featurization) that skips any
    /// per-cell indirection.
    pub fn from_columns(rows: usize, columns: &[Vec<f64>]) -> Result<Matrix> {
        let d = columns.len();
        if let Some(bad) = columns.iter().find(|c| c.len() != rows) {
            return Err(LinalgError::DimensionMismatch {
                context: format!(
                    "from_columns: column of {} values for {rows} rows",
                    bad.len()
                ),
            });
        }
        let mut out = Matrix::zeros(rows, d);
        if d == 0 || rows == 0 {
            return Ok(out);
        }
        kernel(rows * d, |width| {
            let band = rows.div_ceil(width).max(1) * d;
            arda_par::par_chunks_mut(&mut out.data, band, |start, chunk| {
                let r0 = start / d;
                for (local_r, out_row) in chunk.chunks_mut(d).enumerate() {
                    let r = r0 + local_r;
                    for (o, col) in out_row.iter_mut().zip(columns) {
                        *o = col[r];
                    }
                }
            })
        });
        Ok(out)
    }

    /// Transposed copy: tiled to keep both the source and destination
    /// access patterns cache-resident, parallel over output row bands.
    pub fn transpose(&self) -> Matrix {
        let (n, d) = (self.rows, self.cols);
        let mut out = Matrix::zeros(d, n);
        if n == 0 || d == 0 {
            return out;
        }
        let src = &self.data;
        let t = TRANSPOSE_TILE;
        kernel(n * d, |width| {
            // Output rows are input columns; hand each worker a band of them.
            let band_rows = d.div_ceil(width).max(1).min(t);
            arda_par::par_chunks_mut(&mut out.data, band_rows * n, |start, chunk| {
                let c0 = start / n;
                let c1 = c0 + chunk.len().div_ceil(n.max(1));
                for rr in (0..n).step_by(t) {
                    let r_end = (rr + t).min(n);
                    for c in c0..c1 {
                        let out_row = &mut chunk[(c - c0) * n..][..n];
                        for r in rr..r_end {
                            out_row[r] = src[r * d + c];
                        }
                    }
                }
            })
        });
        out
    }

    /// Matrix product `self * other`: cache-blocked over `k` and `j`,
    /// parallel over output row bands. Bit-identical to the sequential
    /// naive i-k-j product at every budget because each output element
    /// accumulates its `k` contributions in ascending order.
    pub fn matmul(&self, other: &Matrix) -> Result<Matrix> {
        if self.cols != other.rows {
            return Err(LinalgError::DimensionMismatch {
                context: format!(
                    "matmul: {}x{} * {}x{}",
                    self.rows, self.cols, other.rows, other.cols
                ),
            });
        }
        let (n, kd, m) = (self.rows, self.cols, other.cols);
        let mut out = Matrix::zeros(n, m);
        if n == 0 || kd == 0 || m == 0 {
            return Ok(out);
        }
        let a = &self.data;
        let b = &other.data;
        kernel(n * kd * m, |width| {
            // One contiguous row band per worker (par_chunks_mut assigns
            // contiguous spans statically, so finer bands would collapse
            // into the same partition); results are band-size-independent.
            let band_rows = n.div_ceil(width).max(1);
            arda_par::par_chunks_mut(&mut out.data, band_rows * m, |start, chunk| {
                let i0 = start / m;
                let rows_here = chunk.len() / m;
                for kk in (0..kd).step_by(MATMUL_KC) {
                    let k_end = (kk + MATMUL_KC).min(kd);
                    for jj in (0..m).step_by(MATMUL_JC) {
                        let j_end = (jj + MATMUL_JC).min(m);
                        for li in 0..rows_here {
                            let a_row = &a[(i0 + li) * kd..(i0 + li) * kd + kd];
                            let out_row = &mut chunk[li * m + jj..li * m + j_end];
                            for k in kk..k_end {
                                let av = a_row[k];
                                // One-hot featurized matrices are mostly
                                // zeros; adding an exact 0·x term is a
                                // bitwise no-op for finite x, so skipping
                                // keeps bit-identity.
                                if av == 0.0 {
                                    continue;
                                }
                                let b_row = &b[k * m + jj..k * m + j_end];
                                for (o, &bv) in out_row.iter_mut().zip(b_row) {
                                    *o += av * bv;
                                }
                            }
                        }
                    }
                }
            })
        });
        Ok(out)
    }

    /// Matrix-vector product, parallel over output rows.
    pub fn matvec(&self, v: &[f64]) -> Result<Vec<f64>> {
        if v.len() != self.cols {
            return Err(LinalgError::DimensionMismatch {
                context: format!("matvec: {}x{} * len {}", self.rows, self.cols, v.len()),
            });
        }
        Ok(kernel(self.rows * self.cols, |_| {
            arda_par::par_for_rows(self.rows, |range| {
                range
                    .map(|r| self.row(r).iter().zip(v).map(|(a, b)| a * b).sum())
                    .collect()
            })
        }))
    }

    /// `selfᵀ * self` (Gram matrix), computed without materialising the
    /// transpose, parallel over output rows.
    ///
    /// Each worker owns a band of output rows and streams the input once,
    /// accumulating `out[i][j] += x[r][i] · x[r][j]` in ascending `r` for
    /// both triangles. Since IEEE multiplication commutes exactly, the two
    /// triangles come out bitwise symmetric and the result matches the
    /// sequential upper-triangle + mirror oracle bit-for-bit at any budget
    /// — for *finite* inputs. With `±inf`/`NaN` cells the per-row
    /// zero-skip can produce `0 · inf = NaN` in the lower triangle where
    /// the mirrored oracle skipped it; no workspace data path produces
    /// non-finite features.
    pub fn gram(&self) -> Matrix {
        let (n, d) = (self.rows, self.cols);
        let mut out = Matrix::zeros(d, d);
        if n == 0 || d == 0 {
            return out;
        }
        let x = &self.data;
        kernel(n * d * d / 2, |width| {
            let band_rows = d.div_ceil(width).max(1);
            arda_par::par_chunks_mut(&mut out.data, band_rows * d, |start, chunk| {
                let i0 = start / d;
                let rows_here = chunk.len() / d;
                for r in 0..n {
                    let row = &x[r * d..(r + 1) * d];
                    for li in 0..rows_here {
                        let a = row[i0 + li];
                        if a == 0.0 {
                            continue;
                        }
                        let out_row = &mut chunk[li * d..(li + 1) * d];
                        for (o, &v) in out_row.iter_mut().zip(row) {
                            *o += a * v;
                        }
                    }
                }
            })
        });
        out
    }

    /// Elementwise scale in place.
    pub fn scale(&mut self, s: f64) {
        for v in &mut self.data {
            *v *= s;
        }
    }

    /// Sum of two matrices.
    pub fn add(&self, other: &Matrix) -> Result<Matrix> {
        if self.rows != other.rows || self.cols != other.cols {
            return Err(LinalgError::DimensionMismatch {
                context: "add".into(),
            });
        }
        let data = self
            .data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| a + b)
            .collect();
        Ok(Matrix {
            rows: self.rows,
            cols: self.cols,
            data,
        })
    }

    /// Difference `self - other`.
    pub fn sub(&self, other: &Matrix) -> Result<Matrix> {
        if self.rows != other.rows || self.cols != other.cols {
            return Err(LinalgError::DimensionMismatch {
                context: "sub".into(),
            });
        }
        let data = self
            .data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| a - b)
            .collect();
        Ok(Matrix {
            rows: self.rows,
            cols: self.cols,
            data,
        })
    }

    /// Select a subset of columns into a new matrix.
    pub fn select_columns(&self, cols: &[usize]) -> Result<Matrix> {
        if let Some(&bad) = cols.iter().find(|&&c| c >= self.cols) {
            return Err(LinalgError::DimensionMismatch {
                context: format!("select_columns: column {bad} >= {}", self.cols),
            });
        }
        let mut out = Matrix::zeros(self.rows, cols.len());
        for r in 0..self.rows {
            let src = self.row(r);
            let dst = out.row_mut(r);
            for (d, &c) in dst.iter_mut().zip(cols) {
                *d = src[c];
            }
        }
        Ok(out)
    }

    /// Select a subset of rows (repeats allowed).
    pub fn select_rows(&self, rows: &[usize]) -> Result<Matrix> {
        if let Some(&bad) = rows.iter().find(|&&r| r >= self.rows) {
            return Err(LinalgError::DimensionMismatch {
                context: format!("select_rows: row {bad} >= {}", self.rows),
            });
        }
        let mut out = Matrix::zeros(rows.len(), self.cols);
        for (i, &r) in rows.iter().enumerate() {
            out.row_mut(i).copy_from_slice(self.row(r));
        }
        Ok(out)
    }

    /// Horizontally concatenate two matrices with equal row counts.
    pub fn hcat(&self, other: &Matrix) -> Result<Matrix> {
        if self.rows != other.rows {
            return Err(LinalgError::DimensionMismatch {
                context: format!("hcat: {} vs {} rows", self.rows, other.rows),
            });
        }
        let mut out = Matrix::zeros(self.rows, self.cols + other.cols);
        for r in 0..self.rows {
            out.row_mut(r)[..self.cols].copy_from_slice(self.row(r));
            out.row_mut(r)[self.cols..].copy_from_slice(other.row(r));
        }
        Ok(out)
    }

    /// Frobenius norm.
    pub fn frobenius_norm(&self) -> f64 {
        self.data.iter().map(|v| v * v).sum::<f64>().sqrt()
    }

    /// Euclidean norms of each row.
    pub fn row_norms(&self) -> Vec<f64> {
        (0..self.rows)
            .map(|r| self.row(r).iter().map(|v| v * v).sum::<f64>().sqrt())
            .collect()
    }
}

/// The original sequential kernels, kept verbatim as correctness oracles
/// for the blocked/parallel versions above.
#[cfg(test)]
impl Matrix {
    pub(crate) fn matmul_naive(&self, other: &Matrix) -> Result<Matrix> {
        if self.cols != other.rows {
            return Err(LinalgError::DimensionMismatch {
                context: "matmul_naive".into(),
            });
        }
        let mut out = Matrix::zeros(self.rows, other.cols);
        // i-k-j loop order keeps the inner loop streaming over contiguous rows.
        for i in 0..self.rows {
            for k in 0..self.cols {
                let a = self.get(i, k);
                if a == 0.0 {
                    continue;
                }
                let other_row = other.row(k);
                let out_row = out.row_mut(i);
                for (o, &b) in out_row.iter_mut().zip(other_row) {
                    *o += a * b;
                }
            }
        }
        Ok(out)
    }

    pub(crate) fn transpose_naive(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                out.set(c, r, self.get(r, c));
            }
        }
        out
    }

    pub(crate) fn matvec_naive(&self, v: &[f64]) -> Result<Vec<f64>> {
        if v.len() != self.cols {
            return Err(LinalgError::DimensionMismatch {
                context: "matvec_naive".into(),
            });
        }
        Ok((0..self.rows)
            .map(|r| self.row(r).iter().zip(v).map(|(a, b)| a * b).sum())
            .collect())
    }

    pub(crate) fn gram_naive(&self) -> Matrix {
        let d = self.cols;
        let mut out = Matrix::zeros(d, d);
        for r in 0..self.rows {
            let row = self.row(r);
            for i in 0..d {
                let a = row[i];
                if a == 0.0 {
                    continue;
                }
                for j in i..d {
                    let v = a * row[j];
                    out.data[i * d + j] += v;
                }
            }
        }
        for i in 0..d {
            for j in 0..i {
                out.data[i * d + j] = out.data[j * d + i];
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use arda_par::Budget;

    #[test]
    fn construction_and_access() {
        let m = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]).unwrap();
        assert_eq!(m.rows(), 2);
        assert_eq!(m.cols(), 2);
        assert_eq!(m.get(1, 0), 3.0);
        assert_eq!(m.col(1), vec![2.0, 4.0]);
        assert!(Matrix::from_rows(&[vec![1.0], vec![1.0, 2.0]]).is_err());
        assert!(Matrix::from_vec(2, 2, vec![0.0; 3]).is_err());
    }

    #[test]
    fn matmul_small() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]).unwrap();
        let b = Matrix::from_rows(&[vec![5.0, 6.0], vec![7.0, 8.0]]).unwrap();
        let c = a.matmul(&b).unwrap();
        assert_eq!(c.row(0), &[19.0, 22.0]);
        assert_eq!(c.row(1), &[43.0, 50.0]);
        assert!(a.matmul(&Matrix::zeros(3, 3)).is_err());
    }

    #[test]
    fn identity_is_neutral() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]).unwrap();
        let i = Matrix::identity(2);
        assert_eq!(a.matmul(&i).unwrap(), a);
        assert_eq!(i.matmul(&a).unwrap(), a);
    }

    #[test]
    fn transpose_involution() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0]]).unwrap();
        let t = a.transpose();
        assert_eq!(t.rows(), 3);
        assert_eq!(t.get(2, 1), 6.0);
        assert_eq!(t.transpose(), a);
    }

    #[test]
    fn gram_equals_explicit() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0], vec![5.0, 6.0]]).unwrap();
        let g = a.gram();
        let explicit = a.transpose().matmul(&a).unwrap();
        for (x, y) in g.data().iter().zip(explicit.data()) {
            assert!((x - y).abs() < 1e-12);
        }
    }

    #[test]
    fn matvec_works() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]).unwrap();
        assert_eq!(a.matvec(&[1.0, 1.0]).unwrap(), vec![3.0, 7.0]);
        assert!(a.matvec(&[1.0]).is_err());
    }

    #[test]
    fn select_columns_and_rows() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0]]).unwrap();
        let c = a.select_columns(&[2, 0]).unwrap();
        assert_eq!(c.row(0), &[3.0, 1.0]);
        let r = a.select_rows(&[1, 1]).unwrap();
        assert_eq!(r.row(0), &[4.0, 5.0, 6.0]);
        assert_eq!(r.rows(), 2);
        assert!(a.select_columns(&[9]).is_err());
        assert!(a.select_rows(&[9]).is_err());
    }

    #[test]
    fn hcat_widths_add() {
        let a = Matrix::from_rows(&[vec![1.0], vec![2.0]]).unwrap();
        let b = Matrix::from_rows(&[vec![3.0, 4.0], vec![5.0, 6.0]]).unwrap();
        let h = a.hcat(&b).unwrap();
        assert_eq!(h.cols(), 3);
        assert_eq!(h.row(1), &[2.0, 5.0, 6.0]);
        assert!(a.hcat(&Matrix::zeros(3, 1)).is_err());
    }

    #[test]
    fn add_sub_scale() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0]]).unwrap();
        let b = Matrix::from_rows(&[vec![3.0, 4.0]]).unwrap();
        assert_eq!(a.add(&b).unwrap().row(0), &[4.0, 6.0]);
        assert_eq!(b.sub(&a).unwrap().row(0), &[2.0, 2.0]);
        let mut c = a.clone();
        c.scale(2.0);
        assert_eq!(c.row(0), &[2.0, 4.0]);
        assert!(a.add(&Matrix::zeros(2, 2)).is_err());
    }

    #[test]
    fn norms() {
        let a = Matrix::from_rows(&[vec![3.0, 4.0], vec![0.0, 0.0]]).unwrap();
        assert!((a.frobenius_norm() - 5.0).abs() < 1e-12);
        assert_eq!(a.row_norms(), vec![5.0, 0.0]);
    }

    #[test]
    fn kernel_width_follows_the_installed_budget() {
        // Band sizes derive from this width, so a kernel must plan with the
        // installed budget's width above the threshold and one band below.
        Budget::isolated(6).install(|| {
            assert_eq!(kernel(PAR_MIN_OPS * 2, |w| w), 6);
            assert_eq!(kernel(10, |w| w), 1, "small inputs stay sequential");
        });
    }

    #[test]
    fn col_into_reuses_buffer() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0], vec![5.0, 6.0]]).unwrap();
        let mut buf = vec![99.0; 10];
        a.col_into(0, &mut buf);
        assert_eq!(buf, vec![1.0, 3.0, 5.0]);
        a.col_into(1, &mut buf);
        assert_eq!(buf, vec![2.0, 4.0, 6.0]);
        assert!(Matrix::zeros(0, 3).col(1).is_empty());
    }

    #[test]
    fn from_columns_matches_from_rows() {
        let cols = vec![vec![1.0, 3.0, 5.0], vec![2.0, 4.0, 6.0]];
        let m = Matrix::from_columns(3, &cols).unwrap();
        let expect = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0], vec![5.0, 6.0]]).unwrap();
        assert_eq!(m, expect);
        assert_eq!(Matrix::from_columns(0, &[]).unwrap().rows(), 0);
        assert!(Matrix::from_columns(2, &[vec![1.0]]).is_err());
    }

    /// Pseudo-random but deterministic fill (no RNG dependency in this
    /// crate's tests).
    fn filled(rows: usize, cols: usize, salt: u64) -> Matrix {
        let mut state = salt.wrapping_mul(0x9E3779B97F4A7C15) | 1;
        let data = (0..rows * cols)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                if state.is_multiple_of(5) {
                    0.0 // exercise the sparsity skip
                } else {
                    ((state >> 11) as f64 / (1u64 << 53) as f64) * 8.0 - 4.0
                }
            })
            .collect();
        Matrix::from_vec(rows, cols, data).unwrap()
    }

    #[test]
    fn blocked_kernels_match_naive_oracles_across_shapes_and_threads() {
        // Shapes straddling every block/tile boundary constant. The last
        // one is above `PAR_MIN_OPS` for all four kernels, and its 131
        // rows and 257 columns leave a ragged last band at widths 2, 3, 8.
        let shapes = [
            (1, 1, 1),
            (3, 7, 2),
            (17, 33, 9),
            (40, 130, 70),
            (65, 257, 31),
            (131, 257, 31),
        ];
        for (si, &(n, k, m)) in shapes.iter().enumerate() {
            let a = filled(n, k, si as u64);
            let b = filled(k, m, si as u64 + 100);
            let v: Vec<f64> = (0..k).map(|i| (i as f64 * 0.37).sin()).collect();
            let mm_oracle = a.matmul_naive(&b).unwrap();
            let t_oracle = a.transpose_naive();
            let g_oracle = a.gram_naive();
            let mv_oracle = a.matvec_naive(&v).unwrap();
            for width in [1, 2, 3, 8] {
                let budget = Budget::isolated(width);
                // Runs one kernel against its oracle, checking that it
                // spawned exactly when the policy lets it fan out.
                let check =
                    |name: &str, ops: usize, kernel: &dyn Fn() -> Vec<f64>, oracle: &[f64]| {
                        let what = format!("{name} {n}x{k}x{m} width={width}");
                        budget.reset_counters();
                        assert_eq!(budget.install(kernel), oracle, "{what}");
                        let parallel = width > 1 && ops >= PAR_MIN_OPS;
                        assert_eq!(budget.total_spawns() > 0, parallel, "{what}");
                    };
                let matmul = || a.matmul(&b).unwrap().data().to_vec();
                check("matmul", n * k * m, &matmul, mm_oracle.data());
                check(
                    "transpose",
                    n * k,
                    &|| a.transpose().data().to_vec(),
                    t_oracle.data(),
                );
                check(
                    "gram",
                    n * k * k / 2,
                    &|| a.gram().data().to_vec(),
                    g_oracle.data(),
                );
                check("matvec", n * k, &|| a.matvec(&v).unwrap(), &mv_oracle);
            }
        }
    }
}
