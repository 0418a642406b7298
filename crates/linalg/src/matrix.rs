//! Row-major dense matrix with cache-blocked, parallel hot-path kernels.
//!
//! `matmul`, `gram`, `transpose` and `matvec` split their *output* into
//! contiguous row bands processed concurrently via [`arda_par`]; within a
//! band the loops are blocked for cache reuse. Every kernel accumulates
//! each output element in the same (ascending) order regardless of band
//! size or budget, so results are **bit-identical** to the sequential
//! naive versions — a property the test suite asserts across random shapes
//! and budget widths.
//!
//! Two variants of the product keep that order while doing less work.
//! `matmul_lower` computes only the lower triangle of a square product
//! (the half a Cholesky factorisation reads), banding rows by equal
//! triangle area. And a `matmul` whose right-hand side is at most 4 wide
//! keeps its output rows in register accumulators instead of paying the
//! blocked loop's per-`k` overhead on a 1–4 element slice.
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

/// Accumulate rows `i0..` of the product `a * b` (`a` with `kd` columns,
/// `b` and the output `m` wide) into the zeroed row-major `out`, row `i`
/// over its first `row_len(i)` columns only. Blocked over `k` and `j`;
/// every element adds its `k` terms in ascending order and skips a term
/// whose `a` factor is zero.
fn blocked_product_rows(
    a: &[f64],
    b: &[f64],
    kd: usize,
    m: usize,
    i0: usize,
    out: &mut [f64],
    row_len: impl Fn(usize) -> usize,
) {
    let rows_here = out.len() / m;
    for kk in (0..kd).step_by(MATMUL_KC) {
        let k_end = (kk + MATMUL_KC).min(kd);
        for jj in (0..m).step_by(MATMUL_JC) {
            for li in 0..rows_here {
                let j_end = (jj + MATMUL_JC).min(row_len(i0 + li));
                if j_end <= jj {
                    continue;
                }
                let a_row = &a[(i0 + li) * kd..(i0 + li) * kd + kd];
                let out_row = &mut out[li * m + jj..li * m + j_end];
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
    i0: usize,
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
        let first = i0 + q * TILE;
        let acc = tile::<M>(std::array::from_fn(|r| a_row(first + r)), b, M, 0);
        for (out_row, acc_row) in out_rows.chunks_exact_mut(M).zip(&acc) {
            out_row.copy_from_slice(acc_row);
        }
    }
    for (li, out_row) in rest.chunks_exact_mut(M).enumerate() {
        let mut acc = [0.0; M];
        for (&av, b_row) in a_row(i0 + tiled_rows + li).iter().zip(b.chunks_exact(M)) {
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

/// Rows `lo..` of the lower triangle of the n×n product `a * b` (`a`
/// with `kd` columns, `b` finite, `n ≥ TILE`) into the zeroed row-major
/// `out`, one [`TILE`]×[`TILE`] register tile at a time. A tile that would
/// overhang the last row or column is moved back to end on it; the
/// elements it computes again come out the same, and only those in this
/// band on or below the diagonal are stored.
fn lower_tiled_rows(a: &[f64], b: &[f64], kd: usize, n: usize, lo: usize, out: &mut [f64]) {
    let hi = lo + out.len() / n;
    for i in (lo..hi).step_by(TILE) {
        let i0 = i.min(n - TILE);
        let rows = std::array::from_fn(|r| &a[(i0 + r) * kd..(i0 + r + 1) * kd]);
        // The block's last stored row bounds the columns it needs.
        let last = (i + TILE).min(hi) - 1;
        for j in (0..=last).step_by(TILE) {
            let j0 = j.min(n - TILE);
            let acc = tile::<TILE>(rows, b, n, j0);
            for (r, acc_row) in acc.iter().enumerate() {
                let row = i0 + r;
                if row < lo || row >= hi {
                    continue;
                }
                let out_row = &mut out[(row - lo) * n..(row - lo + 1) * n];
                for (c, &v) in acc_row.iter().enumerate() {
                    if j0 + c <= row {
                        out_row[j0 + c] = v;
                    }
                }
            }
        }
    }
}

/// Row bounds `0 = r₀ < r₁ < … = n` cutting the lower triangle of an n×n
/// output into at most `bands` runs of rows of near-equal area (row `i`
/// holds `i + 1` elements).
fn triangle_bands(n: usize, bands: usize) -> Vec<usize> {
    let total = n * (n + 1) / 2;
    let mut bounds = vec![0];
    let mut area = 0;
    for r in 1..n {
        area += r;
        // Close band `bounds.len() - 1` once it holds its share; since
        // `area < total` here, at most `bands - 1` bounds are pushed.
        if area * bands >= total * bounds.len() {
            bounds.push(r);
        }
    }
    bounds.push(n);
    bounds
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

    /// Matrix product `self * other`: cache-blocked over `k` and `j` (a
    /// right-hand side at most 4 wide accumulates its output rows in
    /// registers instead, four rows at a time when it is finite), parallel
    /// over output row bands. Bit-identical to the sequential naive i-k-j
    /// product at every budget because each output element accumulates
    /// its `k` contributions in ascending order.
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
        let finite = m <= TILE && b.iter().all(|v| v.is_finite());
        kernel(n * kd * m, |width| {
            // One contiguous row band per worker (par_chunks_mut assigns
            // contiguous spans statically, so finer bands would collapse
            // into the same partition); results are band-size-independent.
            let band_rows = n.div_ceil(width).max(1);
            arda_par::par_chunks_mut(&mut out.data, band_rows * m, |start, chunk| {
                let i0 = start / m;
                match m {
                    1 => narrow_product_rows::<1>(a, b, kd, i0, chunk, finite),
                    2 => narrow_product_rows::<2>(a, b, kd, i0, chunk, finite),
                    3 => narrow_product_rows::<3>(a, b, kd, i0, chunk, finite),
                    4 => narrow_product_rows::<4>(a, b, kd, i0, chunk, finite),
                    _ => blocked_product_rows(a, b, kd, m, i0, chunk, |_| m),
                }
            })
        });
        Ok(out)
    }

    /// Lower triangle (diagonal included) of the square product
    /// `self * other`; the strict upper triangle is left `0.0`. Each kept
    /// element is bit-identical to the same element of [`Matrix::matmul`],
    /// at half its work. Suits a symmetric product consumed by a solver
    /// that reads one triangle, like `cholesky_decompose`.
    ///
    /// Row `i` holds `i + 1` elements, so the rows are cut into at most
    /// one band per worker of near-equal triangle area rather than equal
    /// row count; the result does not depend on the bands. With a finite
    /// `other` and `n ≥ 4` each band runs on 4×4 register tiles (see the
    /// module doc); otherwise on the blocked loop with its zero skip.
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
        if n == 0 || kd == 0 {
            return Ok(Matrix::zeros(n, n));
        }
        let a = &self.data;
        let b = &other.data;
        let tiled = n >= TILE && b.iter().all(|v| v.is_finite());
        let data = kernel(n * (n + 1) / 2 * kd, |width| {
            let bounds = triangle_bands(n, width);
            // Each band index range returns its rows, full width, in order,
            // so the concatenation is the row-major output.
            arda_par::par_for_rows(bounds.len() - 1, |bands| {
                let (lo, hi) = (bounds[bands.start], bounds[bands.end]);
                let mut rows = vec![0.0; (hi - lo) * n];
                if tiled {
                    lower_tiled_rows(a, b, kd, n, lo, &mut rows);
                } else {
                    blocked_product_rows(a, b, kd, n, lo, &mut rows, |i| i + 1);
                }
                rows
            })
        });
        Matrix::from_vec(n, n, data)
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
        // Shapes straddling every block/tile boundary constant, then
        // right-hand sides 1 to 5 wide (the narrow `matmul` path and the
        // first shape past it). `(131, 257, 31)` is above `PAR_MIN_OPS`
        // for every kernel, and `(131, 257, 1)` and `(97, 130, 4)` for the
        // narrow products; their 131 and 97 rows leave a ragged last band
        // at widths 2, 3, 8.
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
        ];
        for (si, &(n, k, m)) in shapes.iter().enumerate() {
            let a = filled(n, k, si as u64);
            let b = filled(k, m, si as u64 + 100);
            // `a * bt` is square, for the triangle kernel.
            let bt = filled(k, n, si as u64 + 200);
            let v: Vec<f64> = (0..k).map(|i| (i as f64 * 0.37).sin()).collect();
            let mm_oracle = a.matmul_naive(&b).unwrap();
            let mut lower_oracle = a.matmul_naive(&bt).unwrap();
            for i in 0..n {
                for j in i + 1..n {
                    lower_oracle.set(i, j, 0.0);
                }
            }
            let t_oracle = a.transpose_naive();
            let g_oracle = a.gram_naive();
            let mv_oracle = a.matvec_naive(&v).unwrap();
            for width in [1, 2, 3, 8] {
                let budget = Budget::isolated(width);
                // Runs one kernel against its oracle bit for bit, checking
                // that it spawned exactly when the policy lets it fan out.
                let check =
                    |name: &str, ops: usize, kernel: &dyn Fn() -> Vec<f64>, oracle: &[f64]| {
                        let what = format!("{name} {n}x{k}x{m} width={width}");
                        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                        budget.reset_counters();
                        assert_eq!(bits(&budget.install(kernel)), bits(oracle), "{what}");
                        let parallel = width > 1 && ops >= PAR_MIN_OPS;
                        assert_eq!(budget.total_spawns() > 0, parallel, "{what}");
                    };
                let matmul = || a.matmul(&b).unwrap().data().to_vec();
                check("matmul", n * k * m, &matmul, mm_oracle.data());
                check(
                    "matmul_lower",
                    n * (n + 1) / 2 * k,
                    &|| a.matmul_lower(&bt).unwrap().data().to_vec(),
                    lower_oracle.data(),
                );
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
        // product and 300 rows cut into ragged bands at every width.
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
            for width in [1, 2, 3, 8] {
                Budget::isolated(width).install(|| {
                    let what = format!("{n}x{k} width={width}");
                    assert_eq!(bits(&a.matmul_lower(&bt).unwrap()), bits(&lower), "{what}");
                    for (b, oracle) in &narrow {
                        let got = a.matmul(b).unwrap();
                        assert_eq!(bits(&got), bits(oracle), "{what} m={}", b.cols());
                    }
                });
            }
        }
    }

    #[test]
    fn non_finite_factors_keep_the_zero_skip() {
        // Every row of `a` has a zero opposite each non-finite row of `b`,
        // and every third row also a nonzero, so the oracle skips some
        // `0 · inf` terms (finite outputs) and keeps others (inf or NaN
        // outputs). Adding the skipped terms would turn the finite ones
        // into NaN. 300 rows take the parallel bands at width > 1.
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
            for width in [1, 2, 3, 8] {
                Budget::isolated(width).install(|| {
                    let what = format!("{n}x{k} width={width}");
                    assert_eq!(bits(&a.matmul_lower(&bt).unwrap()), bits(&lower), "{what}");
                    for (b, oracle) in &narrow {
                        let got = a.matmul(b).unwrap();
                        assert_eq!(bits(&got), bits(oracle), "{what} m={}", b.cols());
                    }
                });
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

    #[test]
    fn triangle_bands_cover_rows_in_equal_area_runs() {
        for n in 1..60 {
            for bands in 1..10 {
                let bounds = triangle_bands(n, bands);
                assert_eq!((bounds[0], *bounds.last().unwrap()), (0, n));
                assert!(bounds.windows(2).all(|w| w[0] < w[1]), "{bounds:?}");
                assert!(bounds.len() - 1 <= bands.min(n), "n={n} {bounds:?}");
            }
        }
        // Later rows are longer, so later bands hold fewer of them.
        assert_eq!(triangle_bands(100, 2), vec![0, 71, 100]);
    }
}
