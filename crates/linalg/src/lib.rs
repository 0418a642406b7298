//! # arda-linalg
//!
//! Dense linear algebra substrate for the ARDA reproduction.
//!
//! ARDA's feature-selection machinery needs a small set of numeric
//! primitives, all implemented here from scratch:
//!
//! * [`Matrix`] — row-major dense matrix with multiplication, transpose and
//!   slicing helpers.
//! * [`cholesky_solve`] — SPD linear solves used by ridge regression and
//!   the ℓ2,1 IRLS solver.
//! * [`stats`] — column means/variances, covariance and Pearson correlation.
//! * [`random`] — Box–Muller normals and the *moment-matched multivariate
//!   normal sampler* of ARDA's Algorithm 2 (`N(µ, Σ)` with µ, Σ the empirical
//!   feature mean/covariance, sampled implicitly in `O(nd)` per draw without
//!   forming Σ).
//! * [`sketch`] — OSNAP / CountSketch sparse subspace embeddings (§3.1,
//!   Definition 2) used by sketching coresets.

// Numeric kernels below index several arrays with one loop variable;
// iterator rewrites would obscure the math.
#![allow(clippy::needless_range_loop)]

mod matrix;
pub mod random;
pub mod sketch;
mod solve;
pub mod stats;

pub use matrix::Matrix;
pub use random::{standard_normal, MomentMatchedSampler};
pub use sketch::{CountSketch, Osnap};
pub use solve::{cholesky_decompose, cholesky_solve, cholesky_solve_multi};

/// Error type for linear-algebra failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LinalgError {
    /// Matrix dimensions incompatible with the requested operation.
    DimensionMismatch { context: String },
    /// Matrix not (numerically) positive definite.
    NotSolvable(String),
}

impl std::fmt::Display for LinalgError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LinalgError::DimensionMismatch { context } => {
                write!(f, "dimension mismatch: {context}")
            }
            LinalgError::NotSolvable(msg) => write!(f, "not solvable: {msg}"),
        }
    }
}

impl std::error::Error for LinalgError {}

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, LinalgError>;
