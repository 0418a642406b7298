//! # arda
//!
//! A from-scratch Rust reproduction of **ARDA: Automatic Relational Data
//! Augmentation for Machine Learning** (Chepurko et al., VLDB 2020,
//! arXiv:2003.09758).
//!
//! Given a base table with a prediction target and a repository of candidate
//! tables, ARDA discovers joins, executes them safely (soft time keys,
//! pre-aggregation, imputation), prunes the resulting feature flood with
//! **RIFS** — random-injection feature selection — and returns an augmented
//! dataset that trains a measurably better model.
//!
//! ## Quickstart
//!
//! ```
//! use arda::prelude::*;
//!
//! // A synthetic "taxi" scenario: base table + repository with 2 signal
//! // tables (weather, events) and decoys.
//! let scenario = arda::synth::taxi(&ScenarioConfig { n_rows: 120, n_decoys: 3, seed: 7 });
//! let repo = Repository::from_tables(scenario.repository.clone());
//!
//! // Run the full pipeline with fast settings.
//! let mut config = ArdaConfig::default();
//! config.selector = SelectorKind::Rifs(RifsConfig { repeats: 3, rf_trees: 8, ..Default::default() });
//! let report = Arda::new(config).run(&scenario.base, &repo, &scenario.target).unwrap();
//!
//! assert!(report.augmented_score >= report.base_score - 0.1);
//! println!("base {:.3} → augmented {:.3}", report.base_score, report.augmented_score);
//! ```
//!
//! ## Crate map
//!
//! | Module | Contents |
//! |---|---|
//! | [`table`] | columnar tables, CSV, group-by, `.arda` shards, the lazy sharded [`Repository`](table::Repository) and its catalog (`arda-table`) |
//! | [`linalg`] | dense matrix, solvers, MVN sampling, OSNAP sketches |
//! | [`ml`] | trees, forests, linear models, SVMs, metrics, splits |
//! | [`join`] | hard/soft joins, time resampling, imputation |
//! | [`coreset`] | uniform / stratified / sketch coresets |
//! | [`select`] | RIFS + all baseline feature selectors |
//! | [`discovery`] | join-discovery simulator (Aurum/Auctus stand-in): mines a repository for ranked candidate joins, stores nothing |
//! | [`synth`] | scenario generators with planted ground truth |
//! | [`core`] | the end-to-end pipeline, join plans, AutoML-lite |

pub use arda_core as core;
pub use arda_coreset as coreset;
pub use arda_discovery as discovery;
pub use arda_join as join;
pub use arda_linalg as linalg;
pub use arda_ml as ml;
pub use arda_select as select;
pub use arda_synth as synth;
pub use arda_table as table;

/// Commonly used items in one import.
pub mod prelude {
    pub use arda_core::{automl_search, Arda, ArdaConfig, AugmentationReport, JoinPlan};
    pub use arda_coreset::{CoresetMethod, CoresetSpec};
    pub use arda_discovery::{discover_joins, CandidateJoin, DiscoveryConfig, KeyKind};
    pub use arda_join::{execute_join, JoinKind, JoinSpec, SoftMethod};
    pub use arda_ml::{featurize, Dataset, FeaturizeOptions, ModelKind, Task};
    pub use arda_select::{
        rank_features, run_selector, RankingMethod, RifsConfig, SelectionContext, SelectorKind,
    };
    pub use arda_synth::{Scenario, ScenarioConfig};
    pub use arda_table::{Column, DataType, Field, Repository, Schema, Table, Value};
}

#[cfg(test)]
mod tests {
    #[test]
    fn facade_reexports_align() {
        use crate::prelude::*;
        let t = Table::new("t", vec![Column::from_i64("a", vec![1])]).unwrap();
        assert_eq!(t.n_rows(), 1);
        let _ = ArdaConfig::default();
        let _ = RifsConfig::default();
    }
}
