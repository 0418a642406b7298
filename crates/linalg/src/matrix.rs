//! Row-major dense matrix with cache-blocked hot-path kernels.
//!
//! `matmul`, `gram` and `transpose` are blocked for cache reuse and run on
//! the calling thread, inside stages that already fan out (RIFS rounds,
//! forest fits, featurization). Every kernel accumulates each output
//! element in the same (ascending) order as the naive loop, so results are
//! **bit-identical** to the naive versions — a property the test suite
//! asserts across shapes straddling every block and tile edge.
//!
//! Two variants of the product keep that order while doing less work.
//! `matmul_lower` computes only the lower triangle of a square product
//! (the half a Cholesky factorisation reads). And a `matmul` whose
//! right-hand side is at most 4 wide keeps its output rows in register
//! accumulators instead of paying the blocked loop's per-`k` overhead on a
//! 1–4 element slice.
//!
//! Both run on register tiles when the right-hand factor is all finite:
//! four output rows at once, each row 4 (or the narrow width) elements
//! wide, so one load of a `b` row feeds sixteen independent sums. A tile
//! adds every term, with no zero skip. That is exact only because the
//! factor is finite: a zero `a` entry then adds ±0.0, and a sum that
//! starts at +0.0 can never be −0.0 (+0.0 + −0.0 is +0.0), so the term
//! changes no bit. Against an infinite or NaN `b` entry a zero `a` entry
//! would add `0 · inf = NaN`, so such a factor takes the skipping row
//! loops instead. One O(k·m) scan of the factor picks the path.

use crate::{LinalgError, Result};

/// Columns per j-panel in `matmul`: bounds the streamed slice of the
/// right-hand matrix to a few KB so it stays in L1 across the k loop.
const MATMUL_JC: usize = 256;
/// Rows of the right-hand matrix per k-block in `matmul`: with `MATMUL_JC`
/// this keeps the active `B` panel (`KC × JC × 8B` = 256 KiB) around L2.
const MATMUL_KC: usize = 128;
/// Square tile edge for `transpose` (8 KiB per tile pair).
const TRANSPOSE_TILE: usize = 32;

/// Accumulate the product `a * b` (`a` with `kd` columns, `b` and the
/// output `m` wide) into the zeroed row-major `out`, row `i` over its first
/// `row_len(i)` columns only. Blocked over `k` and `j`; every element adds
/// its `k` terms in ascending order and skips a term whose `a` factor is
/// zero.
fn blocked_product_rows(
    a: &[f64],
    b: &[f64],
    kd: usize,
    m: usize,
    out: &mut [f64],
    row_len: impl Fn(usize) -> usize,
) {
    let rows = out.len() / m;
    for kk in (0..kd).step_by(MATMUL_KC) {
        let k_end = (kk + MATMUL_KC).min(kd);
        for jj in (0..m).step_by(MATMUL_JC) {
            for i in 0..rows {
                let j_end = (jj + MATMUL_JC).min(row_len(i));
                if j_end <= jj {
                    continue;
                }
                let a_row = &a[i * kd..i * kd + kd];
                let out_row = &mut out[i * m + jj..i * m + j_end];
                for k in kk..k_end {
                    let av = a_row[k];
                    // One-hot featurized matrices are mostly zeros; adding
                    // an exact 0·x term is a bitwise no-op for finite x, so
                    // skipping keeps bit-identity.
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
}

/// Rows and columns of one register tile.
const TILE: usize = 4;

/// The `TILE × C` block of `rows · b[.., j0..j0 + C]`, where `b` is
/// row-major with row stride `stride` and has one row per entry of each
/// of `rows`. Each element adds its `k` terms in ascending order from
/// +0.0 with no zero skip, so `b` must be finite (see the module doc).
#[inline]
fn tile<const C: usize>(
    rows: [&[f64]; TILE],
    b: &[f64],
    stride: usize,
    j0: usize,
) -> [[f64; C]; TILE] {
    let kd = rows[0].len();
    let rows = rows.map(|row| &row[..kd]);
    let mut acc = [[0.0; C]; TILE];
    for k in 0..kd {
        let b_row: &[f64; C] = b[k * stride + j0..][..C]
            .try_into()
            .expect("the slice is C long");
        for (acc_row, row) in acc.iter_mut().zip(&rows) {
            let av = row[k];
            for (o, &bv) in acc_row.iter_mut().zip(b_row) {
                *o += av * bv;
            }
        }
    }
    acc
}

/// [`blocked_product_rows`] for an `M`-wide `b` (`M ≤ 4`): a `k` step over
/// a slice that narrow costs more in loop overhead than in arithmetic, so
/// the output rows accumulate in registers instead, with the same
/// ascending `k` order. With a finite `b` they go [`TILE`] rows at a time
/// without the zero skip; the rows left over, and every row of a
/// non-finite `b`, go one at a time with it.
fn narrow_product_rows<const M: usize>(
    a: &[f64],
    b: &[f64],
    kd: usize,
    out: &mut [f64],
    finite: bool,
) {
    let a_row = |i: usize| &a[i * kd..(i + 1) * kd];
    let tiled_rows = if finite {
        out.len() / M / TILE * TILE
    } else {
        0
    };
    let (tiled, rest) = out.split_at_mut(tiled_rows * M);
    for (q, out_rows) in tiled.chunks_exact_mut(TILE * M).enumerate() {
        let first = q * TILE;
        let acc = tile::<M>(std::array::from_fn(|r| a_row(first + r)), b, M, 0);
        for (out_row, acc_row) in out_rows.chunks_exact_mut(M).zip(&acc) {
            out_row.copy_from_slice(acc_row);
        }
    }
    for (li, out_row) in rest.chunks_exact_mut(M).enumerate() {
        let mut acc = [0.0; M];
        for (&av, b_row) in a_row(tiled_rows + li).iter().zip(b.chunks_exact(M)) {
            if av == 0.0 {
                continue;
            }
            for (o, &bv) in acc.iter_mut().zip(b_row) {
                *o += av * bv;
            }
        }
        out_row.copy_from_slice(&acc);
    }
}

/// The lower triangle of the n×n product `a * b` (`a` with `kd` columns,
/// `b` finite, `n ≥ TILE`) into the zeroed row-major `out`, one
/// [`TILE`]×[`TILE`] register tile at a time. A tile that would overhang
/// the last row or column is moved back to end on it; the elements it
/// computes again come out the same, and only those on or below the
/// diagonal are stored.
fn lower_tiled_rows(a: &[f64], b: &[f64], kd: usize, n: usize, out: &mut [f64]) {
    for i in (0..n).step_by(TILE) {
        let i0 = i.min(n - TILE);
        let rows = std::array::from_fn(|r| &a[(i0 + r) * kd..(i0 + r + 1) * kd]);
        // The block's last row bounds the columns it needs.
        for j in (0..i0 + TILE).step_by(TILE) {
            let j0 = j.min(n - TILE);
            let acc = tile::<TILE>(rows, b, n, j0);
            for (r, acc_row) in acc.iter().enumerate() {
                let row = i0 + r;
                let out_row = &mut out[row * n..(row + 1) * n];
                for (c, &v) in acc_row.iter().enumerate() {
                    if j0 + c <= row {
                        out_row[j0 + c] = v;
                    }
                }
            }
        }
    }
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
    /// directly into the row-major buffer. This is the fast path for
    /// columnar sources (featurization) that skips any per-cell
    /// indirection.
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
        if d == 0 {
            return Ok(out);
        }
        for (r, out_row) in out.data.chunks_exact_mut(d).enumerate() {
            for (o, col) in out_row.iter_mut().zip(columns) {
                *o = col[r];
            }
        }
        Ok(out)
    }

    /// Transposed copy, in 32×32 tiles that keep both the source and the
    /// destination access patterns cache-resident.
    pub fn transpose(&self) -> Matrix {
        let (n, d) = (self.rows, self.cols);
        let mut out = Matrix::zeros(d, n);
        let t = TRANSPOSE_TILE;
        // Output rows are input columns.
        for cc in (0..d).step_by(t) {
            let c_end = (cc + t).min(d);
            for rr in (0..n).step_by(t) {
                let r_end = (rr + t).min(n);
                for c in cc..c_end {
                    let out_row = &mut out.data[c * n..(c + 1) * n];
                    for r in rr..r_end {
                        out_row[r] = self.data[r * d + c];
                    }
                }
            }
        }
        out
    }

    /// Matrix product `self * other`, cache-blocked over `k` and `j` (a
    /// right-hand side at most 4 wide accumulates its output rows in
    /// registers instead, four rows at a time when it is finite).
    /// Bit-identical to the naive i-k-j product because each output element
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
        let (a, b, c) = (&self.data, &other.data, &mut out.data);
        let finite = m <= TILE && b.iter().all(|v| v.is_finite());
        match m {
            1 => narrow_product_rows::<1>(a, b, kd, c, finite),
            2 => narrow_product_rows::<2>(a, b, kd, c, finite),
            3 => narrow_product_rows::<3>(a, b, kd, c, finite),
            4 => narrow_product_rows::<4>(a, b, kd, c, finite),
            _ => blocked_product_rows(a, b, kd, m, c, |_| m),
        }
        Ok(out)
    }

    /// Lower triangle (diagonal included) of the square product
    /// `self * other`; the strict upper triangle is left `0.0`. Each kept
    /// element is bit-identical to the same element of [`Matrix::matmul`],
    /// at half its work. Suits a symmetric product consumed by a solver
    /// that reads one triangle, like `cholesky_decompose`. With a finite
    /// `other` and `n ≥ 4` it runs on 4×4 register tiles (see the module
    /// doc); otherwise on the blocked loop with its zero skip.
    pub fn matmul_lower(&self, other: &Matrix) -> Result<Matrix> {
        if self.cols != other.rows || self.rows != other.cols {
            return Err(LinalgError::DimensionMismatch {
                context: format!(
                    "matmul_lower: {}x{} * {}x{} is not square",
                    self.rows, self.cols, other.rows, other.cols
                ),
            });
        }
        let (n, kd) = (self.rows, self.cols);
        let mut out = Matrix::zeros(n, n);
        if n == 0 || kd == 0 {
            return Ok(out);
        }
        let (a, b) = (&self.data, &other.data);
        if n >= TILE && b.iter().all(|v| v.is_finite()) {
            lower_tiled_rows(a, b, kd, n, &mut out.data);
        } else {
            blocked_product_rows(a, b, kd, n, &mut out.data, |i| i + 1);
        }
        Ok(out)
    }

    /// `selfᵀ * self` (Gram matrix), computed without materialising the
    /// transpose: one pass over the rows accumulates
    /// `out[i][j] += x[r][i] · x[r][j]` in ascending `r` for the upper
    /// triangle only, skipping a zero `x[r][i]`, and the lower triangle is
    /// its mirror. On finite input that is bit-identical to
    /// `self.transpose().matmul(self)`, at half its multiply-adds.
    pub fn gram(&self) -> Matrix {
        let d = self.cols;
        let mut out = Matrix::zeros(d, d);
        if d == 0 {
            return out;
        }
        for row in self.data.chunks_exact(d) {
            for (i, &a) in row.iter().enumerate() {
                if a == 0.0 {
                    continue;
                }
                for (o, &v) in out.data[i * d + i..(i + 1) * d].iter_mut().zip(&row[i..]) {
                    *o += a * v;
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

    /// Euclidean norms of each row.
    pub fn row_norms(&self) -> Vec<f64> {
        (0..self.rows)
            .map(|r| self.row(r).iter().map(|v| v * v).sum::<f64>().sqrt())
            .collect()
    }
}

/// The original naive kernels, kept verbatim as correctness oracles for
/// the blocked and tiled versions above.
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
}

#[cfg(test)]
mod tests {
    use super::*;

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
        assert_eq!(a.row_norms(), vec![5.0, 0.0]);
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
        // Shapes straddling every block/tile boundary constant, then
        // right-hand sides 1 to 5 wide (the narrow `matmul` path and the
        // first shape past it), then an 89×299×89 product whose 299-long
        // `k` spans three k-blocks.
        let shapes = [
            (1, 1, 1),
            (3, 7, 2),
            (17, 33, 9),
            (40, 130, 70),
            (65, 257, 31),
            (131, 257, 31),
            (5, 9, 1),
            (17, 33, 2),
            (40, 130, 3),
            (29, 70, 4),
            (33, 65, 5),
            (131, 257, 1),
            (97, 130, 4),
            (89, 299, 89),
        ];
        for (si, &(n, k, m)) in shapes.iter().enumerate() {
            let a = filled(n, k, si as u64);
            let b = filled(k, m, si as u64 + 100);
            // `a * bt` is square, for the triangle kernel.
            let bt = filled(k, n, si as u64 + 200);
            let what = format!("{n}x{k}x{m}");
            let mm = a.matmul(&b).unwrap();
            assert_eq!(bits(&mm), bits(&a.matmul_naive(&b).unwrap()), "mm {what}");
            let gram_oracle = a.transpose_naive().matmul_naive(&a).unwrap();
            let lower = a.matmul_lower(&bt).unwrap();
            assert_eq!(bits(&lower), bits(&lower_naive(&a, &bt)), "lower {what}");
            assert_eq!(bits(&a.transpose()), bits(&a.transpose_naive()), "t {what}");
            assert_eq!(bits(&a.gram()), bits(&gram_oracle), "gram {what}");
        }
        // A tall input, like a featurized base: 2 003 rows leave a short
        // last transpose tile, and 63 columns a short column tile.
        let tall = filled(2_003, 63, 50);
        assert_eq!(bits(&tall.transpose()), bits(&tall.transpose_naive()));
        let gram_oracle = tall.transpose_naive().matmul_naive(&tall).unwrap();
        assert_eq!(bits(&tall.gram()), bits(&gram_oracle));
    }

    /// `a`'s rows × `b`'s columns, with the strict upper triangle zeroed:
    /// the `matmul_lower` oracle.
    fn lower_naive(a: &Matrix, b: &Matrix) -> Matrix {
        let mut out = a.matmul_naive(b).unwrap();
        for i in 0..out.rows() {
            for j in i + 1..out.cols() {
                out.set(i, j, 0.0);
            }
        }
        out
    }

    fn bits(m: &Matrix) -> Vec<u64> {
        m.data().iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn register_tiles_match_naive_oracles_at_every_remainder() {
        // n = 4..=12 puts each row and column remainder at a tile edge
        // (n < 4 takes the blocked loop); 75×228 is a lake batch's dual
        // product and 300×40 a longer run of tile rows.
        let shapes = [
            (4, 3),
            (5, 9),
            (6, 1),
            (7, 12),
            (8, 5),
            (9, 33),
            (10, 7),
            (11, 2),
            (12, 20),
            (75, 228),
            (300, 40),
        ];
        for (si, &(n, k)) in shapes.iter().enumerate() {
            let a = filled(n, k, 300 + si as u64);
            let bt = filled(k, n, 400 + si as u64);
            let lower = lower_naive(&a, &bt);
            let narrow: Vec<(Matrix, Matrix)> = (1..=4)
                .map(|m| {
                    let b = filled(k, m, 500 + (si * 4 + m) as u64);
                    let oracle = a.matmul_naive(&b).unwrap();
                    (b, oracle)
                })
                .collect();
            let what = format!("{n}x{k}");
            assert_eq!(bits(&a.matmul_lower(&bt).unwrap()), bits(&lower), "{what}");
            for (b, oracle) in &narrow {
                let got = a.matmul(b).unwrap();
                assert_eq!(bits(&got), bits(oracle), "{what} m={}", b.cols());
            }
        }
    }

    #[test]
    fn non_finite_factors_keep_the_zero_skip() {
        // Every row of `a` has a zero opposite each non-finite row of `b`,
        // and every third row also a nonzero, so the oracle skips some
        // `0 · inf` terms (finite outputs) and keeps others (inf or NaN
        // outputs). Adding the skipped terms would turn the finite ones
        // into NaN.
        for (n, k) in [(9, 13), (300, 40)] {
            let mut a = filled(n, k, 21);
            for i in 0..n {
                a.set(i, 2, if i % 3 == 0 { 1.5 } else { 0.0 });
                a.set(i, 5, 0.0);
                a.set(i, 7, -0.0);
            }
            let poison = |m: usize, salt: u64| {
                let mut b = filled(k, m, salt);
                for j in 0..m {
                    b.set(2, j, [f64::INFINITY, f64::NAN, f64::NEG_INFINITY][j % 3]);
                    b.set(5, j, f64::NAN);
                    b.set(7, j, f64::NEG_INFINITY);
                }
                b
            };
            let bt = poison(n, 22);
            let lower = lower_naive(&a, &bt);
            assert!(lower.data().iter().any(|v| v.is_nan()));
            assert!(
                lower.get(1, 0).is_finite(),
                "row 1 skips every poisoned term"
            );
            let narrow: Vec<(Matrix, Matrix)> = (1..=4)
                .map(|m| {
                    let b = poison(m, 30 + m as u64);
                    let oracle = a.matmul_naive(&b).unwrap();
                    (b, oracle)
                })
                .collect();
            let what = format!("{n}x{k}");
            assert_eq!(bits(&a.matmul_lower(&bt).unwrap()), bits(&lower), "{what}");
            for (b, oracle) in &narrow {
                let got = a.matmul(b).unwrap();
                assert_eq!(bits(&got), bits(oracle), "{what} m={}", b.cols());
            }
        }
    }

    #[test]
    fn matmul_lower_rejects_non_square_products() {
        let a = Matrix::zeros(3, 4);
        assert!(a.matmul_lower(&Matrix::zeros(4, 2)).is_err());
        assert!(a.matmul_lower(&Matrix::zeros(3, 3)).is_err());
        assert_eq!(a.matmul_lower(&Matrix::zeros(4, 3)).unwrap().rows(), 3);
        let empty = Matrix::zeros(2, 0)
            .matmul_lower(&Matrix::zeros(0, 2))
            .unwrap();
        assert_eq!(empty, Matrix::zeros(2, 2));
    }
}
