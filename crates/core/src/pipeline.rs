//! The ARDA augmentation workflow (§3): coreset → join plan → join
//! execution → imputation → featurization → feature selection → final
//! estimate.

use crate::plan::{plan_batches, JoinPlan};
use crate::{ArdaError, Result};
use arda_coreset::{row_coreset, CoresetSpec};
use arda_discovery::{discover_joins, CandidateJoin, DiscoveryConfig, KeyKind, Repository};
use arda_join::{execute_join, impute::impute, stats::join_stats, JoinKind, JoinSpec, SoftMethod};
use arda_ml::model::holdout_score;
use arda_ml::{featurize, Dataset, FeaturizeOptions, ModelKind};
use arda_select::{
    run_selector, tuple_ratio_filter, SelectionContext, SelectorKind, TupleRatioDecision,
};
use arda_table::{DataType, Table};
use std::collections::{HashMap, HashSet};
use std::time::Instant;

/// Configuration of an ARDA run.
#[derive(Debug, Clone)]
pub struct ArdaConfig {
    /// Coreset construction (method, size, seed).
    pub coreset: CoresetSpec,
    /// Table-grouping strategy (default: budget join).
    pub join_plan: JoinPlan,
    /// Soft-key strategy (default: two-way nearest neighbour, the paper's
    /// best performer in Fig. 5).
    pub soft_method: SoftMethod,
    /// Feature-selection method (default: RIFS).
    pub selector: SelectorKind,
    /// Optional Tuple-Ratio prefilter threshold τ (Table 4); `None` = off.
    pub tr_threshold: Option<f64>,
    /// Featurization options.
    pub featurize: FeaturizeOptions,
    /// Treat an integer target as class labels.
    pub force_classification: bool,
    /// Discovery settings used by [`Arda::run`].
    pub discovery: DiscoveryConfig,
    /// Stop processing batches once the selector's holdout score reaches
    /// this value.
    pub stop_at_score: Option<f64>,
    /// Master seed.
    pub seed: u64,
}

impl Default for ArdaConfig {
    fn default() -> Self {
        ArdaConfig {
            coreset: CoresetSpec::default(),
            join_plan: JoinPlan::default(),
            soft_method: SoftMethod::TwoWayNearest,
            selector: SelectorKind::Rifs(arda_select::RifsConfig::default()),
            tr_threshold: None,
            featurize: FeaturizeOptions::default(),
            force_classification: false,
            discovery: DiscoveryConfig::default(),
            stop_at_score: None,
            seed: 0,
        }
    }
}

/// A foreign column that survived feature selection.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SelectedColumn {
    /// Source repository table.
    pub table: String,
    /// Column name in the augmented output.
    pub column: String,
}

/// Outcome of an augmentation run.
#[derive(Debug, Clone)]
pub struct AugmentationReport {
    /// The augmented table: the full base coreset plus selected foreign
    /// columns ("containing all of the user's original dataset as well as
    /// additional features", §1).
    pub augmented: Table,
    /// Foreign columns kept, with provenance.
    pub selected: Vec<SelectedColumn>,
    /// Best holdout score of the estimator on the *base* features only.
    pub base_score: f64,
    /// Best holdout score on the augmented features.
    pub augmented_score: f64,
    /// Estimator that achieved `augmented_score`.
    pub best_estimator: ModelKind,
    /// Candidate joins actually executed.
    pub joins_executed: usize,
    /// Candidates eliminated by the Tuple-Ratio prefilter.
    pub tr_eliminated: usize,
    /// Total wall-clock seconds of the call that produced the report
    /// (discovery included for [`Arda::run`]).
    pub seconds: f64,
}

impl AugmentationReport {
    /// Percent improvement of the augmented score over the base score
    /// (the y-axis of Fig. 3 / Fig. 4).
    pub fn improvement_pct(&self) -> f64 {
        if self.base_score.abs() < 1e-12 {
            return 0.0;
        }
        (self.augmented_score - self.base_score) / self.base_score.abs() * 100.0
    }
}

/// The ARDA system.
#[derive(Debug, Clone, Default)]
pub struct Arda {
    /// Run configuration.
    pub config: ArdaConfig,
}

impl Arda {
    /// Build with a configuration.
    pub fn new(config: ArdaConfig) -> Self {
        Arda { config }
    }

    /// Full pipeline: discover candidate joins in `repo`, then augment.
    /// The report's `seconds` covers discovery too.
    pub fn run(&self, base: &Table, repo: &Repository, target: &str) -> Result<AugmentationReport> {
        let start = Instant::now();
        let candidates = discover_joins(base, repo, &self.config.discovery)?;
        let mut report = self.augment(base, repo, &candidates, target)?;
        report.seconds = start.elapsed().as_secs_f64();
        Ok(report)
    }

    /// Augment `base` using a caller-provided (discovery-system) candidate
    /// list.
    pub fn augment(
        &self,
        base: &Table,
        repo: &Repository,
        candidates: &[CandidateJoin],
        target: &str,
    ) -> Result<AugmentationReport> {
        let start = Instant::now();
        let cfg = &self.config;
        if base.column(target)?.distinct().len() < 2 {
            return Err(ArdaError::Invalid(format!(
                "target `{target}` has fewer than two distinct non-null values"
            )));
        }

        // ---- Coreset construction -------------------------------------
        let labels: Option<Vec<f64>> = {
            let tcol = base.column(target)?;
            let is_cls = cfg.force_classification
                || !tcol.dtype().is_numeric()
                || tcol.dtype() == DataType::Bool;
            if is_cls {
                // Map labels to ids for stratification.
                let mut ids: HashMap<String, usize> = HashMap::new();
                Some(
                    tcol.iter()
                        .map(|v| {
                            let key = v.to_string();
                            let next = ids.len();
                            *ids.entry(key).or_insert(next) as f64
                        })
                        .collect(),
                )
            } else {
                None
            }
        };
        let coreset_idx = row_coreset(base.n_rows(), labels.as_deref(), &cfg.coreset);
        let mut kept = base.take(&coreset_idx)?;
        let base_columns: HashSet<String> = kept
            .columns()
            .iter()
            .map(|c| c.name().to_string())
            .collect();

        // Bounds-check candidates against the manifest without touching
        // tables — on a sharded repository this must not force a load.
        for c in candidates {
            if c.table_index >= repo.len() {
                return Err(ArdaError::Invalid(format!(
                    "candidate references missing table {}",
                    c.table_index
                )));
            }
        }

        // ---- Base-only reference score ---------------------------------
        // `best_estimate` also rejects a coreset whose holdout split is too
        // small, before any join work starts.
        let base_ds = featurize(&kept, target, cfg.force_classification, &cfg.featurize)?;
        let (base_score, _) = best_estimate(&base_ds, cfg.seed)?;

        // ---- Tuple-Ratio prefilter (optional) --------------------------
        let mut active: Vec<CandidateJoin> = Vec::with_capacity(candidates.len());
        let mut tr_eliminated = 0usize;
        if let Some(tau) = cfg.tr_threshold {
            // Per-candidate stats are independent, so the prefilter fans
            // out on the work budget; on a sharded repository each worker
            // loads its candidate's shard concurrently (instead of a
            // sequential load-parse-evict walk on the critical path). The
            // fold below runs in candidate order, so `active`, the
            // eliminated count and the earliest error are identical to
            // the sequential scan.
            let verdicts: Vec<Result<TupleRatioDecision>> =
                arda_par::par_map(candidates, |_, c| {
                    let foreign = repo.table(c.table_index)?;
                    let stats = join_stats(
                        &kept,
                        &foreign,
                        &[c.base_key.as_str()],
                        &[c.foreign_key.as_str()],
                    )?;
                    Ok(tuple_ratio_filter(
                        kept.n_rows(),
                        stats.foreign_distinct,
                        tau,
                    ))
                });
            for (c, verdict) in candidates.iter().zip(verdicts) {
                if verdict? == TupleRatioDecision::Eliminate {
                    tr_eliminated += 1;
                } else {
                    active.push(c.clone());
                }
            }
        } else {
            active.extend(candidates.iter().cloned());
        }

        // ---- Join plan + batched execution ------------------------------
        let batches = plan_batches(&active, repo, cfg.join_plan, kept.n_rows());
        let mut provenance: HashMap<String, String> = HashMap::new();
        let mut joins_executed = 0usize;

        for (batch_no, batch) in batches.iter().enumerate() {
            // Every candidate in a batch joins against the same base
            // snapshot on a base-table key, so the joins are independent:
            // execute them concurrently, each yielding only its new
            // columns, then fold the column blocks back in candidate order.
            // Values are identical to the old sequential chaining; column
            // names too, except when the same foreign column name collides
            // twice in one batch (rename then happens at fold time with the
            // table-name prefix rather than hstack's numeric salt). Provenance
            // tracking below uses the folded names, so attribution stays
            // consistent either way. Each candidate's join runs with its
            // split of the shared `arda-par` work budget (installed by
            // `par_map`): a multi-candidate batch spreads the budget across
            // candidates, a lone candidate keeps all of it, and the permit
            // pool guarantees the nested scans never oversubscribe.
            let snapshot = &kept;
            let extra_tables: Vec<Result<Table>> = arda_par::par_map(batch, |_, cand| {
                // On a sharded repository this is where the foreign shard
                // is loaded — concurrently per candidate, under the
                // batch's split of the work budget.
                let foreign = repo.table(cand.table_index)?;
                let kind = join_kind_for(snapshot, cand, cfg.soft_method);
                let spec = JoinSpec {
                    base_keys: vec![cand.base_key.clone()],
                    foreign_keys: vec![cand.foreign_key.clone()],
                    kind,
                };
                let before: HashSet<&str> = snapshot.columns().iter().map(|c| c.name()).collect();
                let joined = execute_join(snapshot, &foreign, &spec, cfg.seed)?;
                let mut extras = Table::empty(cand.table_name.clone());
                for col in joined.columns() {
                    if !before.contains(col.name()) {
                        extras.add_column(col.clone()).map_err(ArdaError::from)?;
                    }
                }
                Ok(extras)
            });

            let mut joined = kept.clone();
            for (cand, extras) in batch.iter().zip(extra_tables) {
                let before: HashSet<String> = joined
                    .columns()
                    .iter()
                    .map(|c| c.name().to_string())
                    .collect();
                joined = joined.hstack(&extras?)?;
                joins_executed += 1;
                for col in joined.columns() {
                    if !before.contains(col.name()) {
                        provenance.insert(col.name().to_string(), cand.table_name.clone());
                    }
                }
            }

            // Impute the LEFT-join nulls, featurize, select.
            let (imputed, _) = impute(&joined, cfg.seed.wrapping_add(batch_no as u64))?;
            let ds = featurize(&imputed, target, cfg.force_classification, &cfg.featurize)?;
            let ctx = SelectionContext::standard(&ds, cfg.seed);
            let result = run_selector(&ds, &cfg.selector, &ctx)?;

            // Map selected features back to source columns; base columns
            // are always retained.
            let mut keep_cols: Vec<String> = Vec::new();
            let mut seen: HashSet<String> = HashSet::new();
            for col in imputed.columns() {
                if base_columns.contains(col.name()) {
                    keep_cols.push(col.name().to_string());
                    seen.insert(col.name().to_string());
                }
            }
            for &f in &result.selected {
                let feature_name = &ds.feature_names[f];
                let source = feature_name.split('=').next().unwrap_or(feature_name);
                if !base_columns.contains(source) && !seen.contains(source) {
                    keep_cols.push(source.to_string());
                    seen.insert(source.to_string());
                }
            }
            let keep_refs: Vec<&str> = keep_cols.iter().map(String::as_str).collect();
            kept = imputed.select(&keep_refs)?;

            if let Some(stop) = cfg.stop_at_score {
                if result.holdout_score >= stop {
                    break;
                }
            }
        }

        // ---- Final estimate ---------------------------------------------
        let augmented_ds = featurize(&kept, target, cfg.force_classification, &cfg.featurize)?;
        let (augmented_score, best_estimator) = best_estimate(&augmented_ds, cfg.seed)?;

        let selected: Vec<SelectedColumn> = kept
            .columns()
            .iter()
            .filter(|c| !base_columns.contains(c.name()))
            .map(|c| SelectedColumn {
                table: provenance.get(c.name()).cloned().unwrap_or_default(),
                column: c.name().to_string(),
            })
            .collect();

        Ok(AugmentationReport {
            augmented: kept,
            selected,
            base_score,
            augmented_score,
            best_estimator,
            joins_executed,
            tr_eliminated,
            seconds: start.elapsed().as_secs_f64(),
        })
    }
}

/// Pick the join algorithm for a candidate: soft keys use the configured
/// soft method with time resampling; hard keys on a Timestamp base column
/// get resampling too (a no-op when granularities already agree).
pub fn join_kind_for(base: &Table, cand: &CandidateJoin, soft: SoftMethod) -> JoinKind {
    let base_is_ts = base
        .column(&cand.base_key)
        .map(|c| c.dtype() == DataType::Timestamp)
        .unwrap_or(false);
    match cand.kind {
        KeyKind::Soft => JoinKind::SoftTimeResampled(soft),
        KeyKind::Hard if base_is_ts => JoinKind::HardTimeResampled,
        KeyKind::Hard => JoinKind::Hard,
    }
}

/// Paper §7 evaluation protocol: random forest for both tasks, plus an
/// RBF-kernel SVM for classification, "such that the best score achieved
/// was reported".
fn best_estimate(data: &Dataset, seed: u64) -> Result<(f64, ModelKind)> {
    let mut estimators = vec![ModelKind::RandomForest {
        n_trees: 64,
        max_depth: 12,
    }];
    if data.task.is_classification() {
        estimators.push(ModelKind::RbfSvm { c: 1.0 });
    }
    let (train, holdout) = data.holdout_split(seed);
    if train.len() < 2 || holdout.len() < 2 {
        return Err(ArdaError::Invalid(format!(
            "{} rows split into {} train / {} holdout; each side needs at least 2",
            data.n_samples(),
            train.len(),
            holdout.len()
        )));
    }
    // R² is undefined on a constant holdout target (`r2` would score any
    // exact prediction a perfect 1.0), so a regression holdout needs two
    // distinct values.
    let first = data.y[holdout[0]];
    if !data.task.is_classification() && holdout.iter().all(|&i| data.y[i] == first) {
        return Err(ArdaError::Invalid(format!(
            "holdout target is constant: all {} holdout rows equal {first}, so R² is undefined",
            holdout.len()
        )));
    }
    let mut best: Option<(f64, ModelKind)> = None;
    for kind in estimators {
        let score = holdout_score(data, &kind, &train, &holdout, seed)?;
        if best.as_ref().is_none_or(|(s, _)| score > *s) {
            best = Some((score, kind));
        }
    }
    Ok(best.expect("estimator list non-empty"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use arda_synth::{poverty, school, taxi, ScenarioConfig};

    fn fast_config(seed: u64) -> ArdaConfig {
        ArdaConfig {
            selector: SelectorKind::Rifs(arda_select::RifsConfig {
                repeats: 4,
                rf_trees: 12,
                ..Default::default()
            }),
            seed,
            ..Default::default()
        }
    }

    #[test]
    fn taxi_augmentation_improves_over_base() {
        let sc = taxi(&ScenarioConfig {
            n_rows: 150,
            n_decoys: 4,
            seed: 0,
        });
        let repo = Repository::from_tables(sc.repository.clone());
        let arda = Arda::new(fast_config(0));
        let report = arda.run(&sc.base, &repo, &sc.target).unwrap();
        assert!(
            report.augmented_score > report.base_score,
            "augmented {} vs base {}",
            report.augmented_score,
            report.base_score
        );
        assert!(report.joins_executed > 0);
        // Signal tables contribute at least one selected column.
        let tables: HashSet<&str> = report.selected.iter().map(|s| s.table.as_str()).collect();
        assert!(
            tables.contains("weather") || tables.contains("events"),
            "selected from signal tables: {:?}",
            report.selected
        );
    }

    #[test]
    fn school_classification_pipeline() {
        let sc = school(
            &ScenarioConfig {
                n_rows: 150,
                n_decoys: 4,
                seed: 1,
            },
            false,
        );
        let repo = Repository::from_tables(sc.repository.clone());
        let arda = Arda::new(fast_config(1));
        let report = arda.run(&sc.base, &repo, &sc.target).unwrap();
        assert!(report.augmented_score >= report.base_score - 0.05);
        assert!(report.augmented.n_rows() <= 150);
        assert!(
            report.augmented.column("result").is_ok(),
            "target column retained"
        );
    }

    #[test]
    fn tr_prefilter_eliminates_tables() {
        let sc = poverty(&ScenarioConfig {
            n_rows: 120,
            n_decoys: 3,
            seed: 2,
        });
        let repo = Repository::from_tables(sc.repository.clone());
        let mut cfg = fast_config(2);
        // county key domain == base rows → ratio 1; τ=0.5 eliminates all.
        cfg.tr_threshold = Some(0.5);
        let arda = Arda::new(cfg);
        let report = arda.run(&sc.base, &repo, &sc.target).unwrap();
        assert!(report.tr_eliminated > 0);
    }

    #[test]
    fn base_rows_never_fan_out() {
        let sc = taxi(&ScenarioConfig {
            n_rows: 100,
            n_decoys: 2,
            seed: 3,
        });
        let repo = Repository::from_tables(sc.repository.clone());
        let arda = Arda::new(fast_config(3));
        let report = arda.run(&sc.base, &repo, &sc.target).unwrap();
        assert_eq!(
            report.augmented.n_rows(),
            100,
            "coreset keeps all 100 rows (≤ auto cap)"
        );
    }

    #[test]
    fn table_plan_runs() {
        let sc = poverty(&ScenarioConfig {
            n_rows: 100,
            n_decoys: 2,
            seed: 4,
        });
        let repo = Repository::from_tables(sc.repository.clone());
        let mut cfg = fast_config(4);
        cfg.join_plan = JoinPlan::Table;
        cfg.selector = SelectorKind::Ranking(arda_select::RankingMethod::RandomForest);
        let report = Arda::new(cfg).run(&sc.base, &repo, &sc.target).unwrap();
        assert!(report.joins_executed > 0);
    }

    #[test]
    fn improvement_pct_math() {
        let sc = taxi(&ScenarioConfig {
            n_rows: 80,
            n_decoys: 1,
            seed: 5,
        });
        let repo = Repository::from_tables(sc.repository.clone());
        let report = Arda::new(fast_config(5))
            .run(&sc.base, &repo, &sc.target)
            .unwrap();
        let pct = report.improvement_pct();
        let manual = (report.augmented_score - report.base_score) / report.base_score.abs() * 100.0;
        assert!((pct - manual).abs() < 1e-9);
    }

    #[test]
    fn join_kind_covers_each_key_arm() {
        let base = Table::new(
            "base",
            vec![
                arda_table::Column::from_timestamps("t", vec![1, 2]),
                arda_table::Column::from_i64("id", vec![1, 2]),
            ],
        )
        .unwrap();
        let cand = |base_key: &str, kind| CandidateJoin {
            table_index: 0,
            table_name: "f".into(),
            base_key: base_key.into(),
            foreign_key: "k".into(),
            kind,
            score: 1.0,
        };
        let soft = SoftMethod::TwoWayNearest;
        assert_eq!(
            join_kind_for(&base, &cand("id", KeyKind::Soft), soft),
            JoinKind::SoftTimeResampled(soft)
        );
        assert_eq!(
            join_kind_for(&base, &cand("t", KeyKind::Hard), soft),
            JoinKind::HardTimeResampled
        );
        assert_eq!(
            join_kind_for(&base, &cand("id", KeyKind::Hard), soft),
            JoinKind::Hard
        );
    }

    #[test]
    fn missing_target_errors() {
        let sc = taxi(&ScenarioConfig {
            n_rows: 50,
            n_decoys: 1,
            seed: 6,
        });
        let repo = Repository::from_tables(sc.repository.clone());
        assert!(Arda::default().run(&sc.base, &repo, "nope").is_err());
    }

    /// PR 5 acceptance: a Timestamp-bearing repository survives
    /// `save_dir` → `from_dir` → pipeline with dtypes and values
    /// bit-identical to the in-memory original — soft time keys and all —
    /// and re-indexing an unchanged directory is a pure catalog hit.
    #[test]
    fn pipeline_identical_through_binary_store_round_trip() {
        let sc = taxi(&ScenarioConfig {
            n_rows: 120,
            n_decoys: 3,
            seed: 7,
        });
        // `from_dir` orders shards by file name, so build the eager
        // reference in the same order (names are unique and `.arda`-safe).
        let mut tables = sc.repository.clone();
        tables.sort_by_key(|t| t.name().to_string());
        assert!(
            tables.iter().any(|t| t
                .schema()
                .fields()
                .iter()
                .any(|f| f.dtype == arda_table::DataType::Timestamp)),
            "scenario must exercise the Timestamp round-trip"
        );
        let eager = Repository::from_tables(tables.clone());

        let dir = std::env::temp_dir().join(format!("arda_core_store_rt_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        eager.save_dir(&dir).unwrap();

        let sharded = Repository::from_dir(&dir).unwrap();
        assert_eq!(sharded.len(), eager.len());
        for (i, t) in tables.iter().enumerate() {
            let reloaded = sharded.table(i).unwrap();
            assert_eq!(
                *reloaded,
                *t,
                "shard {i} ({}) reloads bit-identically, dtypes included",
                t.name()
            );
        }

        // The pipeline over the reloaded store is bit-identical to the
        // in-memory run: same discovery, same joins, same scores.
        let a = Arda::new(fast_config(7))
            .run(&sc.base, &eager, &sc.target)
            .unwrap();
        let b = Arda::new(fast_config(7))
            .run(&sc.base, &sharded, &sc.target)
            .unwrap();
        assert_eq!(a.base_score.to_bits(), b.base_score.to_bits());
        assert_eq!(a.augmented_score.to_bits(), b.augmented_score.to_bits());
        assert_eq!(a.joins_executed, b.joins_executed);
        let cols = |r: &AugmentationReport| -> Vec<String> {
            r.selected
                .iter()
                .map(|s| format!("{}.{}", s.table, s.column))
                .collect()
        };
        assert_eq!(cols(&a), cols(&b));
        assert_eq!(a.augmented, b.augmented);

        // Warm re-index: zero per-shard header reads, pure catalog hit.
        let warm = Repository::from_dir(&dir).unwrap();
        assert!(warm.catalog_hit());
        assert_eq!(warm.header_scans(), 0);

        std::fs::remove_dir_all(&dir).ok();
    }
}
