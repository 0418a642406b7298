//! # arda-synth
//!
//! Synthetic scenario generators with planted ground truth.
//!
//! The paper's evaluation uses real datasets assembled through NYU Auctus
//! (Taxi, Pickup, Poverty, School) and two micro-benchmark sets (Kraken,
//! Digits). None of those are redistributable or reachable offline, so this
//! crate generates *structurally equivalent* scenarios:
//!
//! * a base table whose own features carry only part of the signal,
//! * a repository in which a few joinable tables carry the rest of the
//!   signal — including *co-predictors split across tables* (Poverty) and a
//!   *soft time key at finer granularity* (Pickup/Taxi weather),
//! * many *decoy* tables that join successfully but contain pure noise —
//!   exactly the failure mode RIFS exists to handle,
//! * micro-benchmark tables with known informative columns plus 10×
//!   appended noise features (Kraken, Digits).
//!
//! Because the ground truth is planted, the benches can measure noise
//! filtering exactly (Fig. 6) instead of eyeballing it.

// Numeric kernels below index several arrays with one loop variable;
// iterator rewrites would obscure the math.
#![allow(clippy::needless_range_loop)]

mod decoys;
mod micro;
mod real_world;
mod scenario;

pub use decoys::decoy_table;
pub use micro::{append_noise_columns, digits, kraken, MicroDataset};
pub use real_world::{pickup, poverty, school, taxi};
pub use scenario::{Scenario, ScenarioConfig};
