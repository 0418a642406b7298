//! The ARDA augmentation workflow (§3): coreset → join plan → join
//! execution → imputation → featurization → feature selection → final
//! estimate.

use crate::plan::{plan_batches, JoinPlan};
use crate::{ArdaError, Result};
use arda_coreset::{row_coreset, CoresetSpec};
use arda_discovery::{discover_joins, CandidateJoin, DiscoveryConfig, KeyKind, Repository};
use arda_join::{execute_join, impute::impute, stats::join_stats, JoinKind, JoinSpec, SoftMethod};
use arda_ml::model::best_holdout_score;
use arda_ml::{
    encode_target, featurize, featurize_with_sources, Dataset, FeaturizeOptions, MlError, ModelKind,
};
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
    /// A NaN or negative τ is an error.
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
    /// Column name in the augmented output:
    /// `<table>[<base_key>:<foreign_key>].<column>`, naming the candidate
    /// join and the source column. It depends only on that source, not on
    /// the join plan.
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
    /// A candidate keyed on the target is dropped: it would look features
    /// up by the value being predicted. The report's `seconds` covers
    /// discovery too.
    pub fn run(&self, base: &Table, repo: &Repository, target: &str) -> Result<AugmentationReport> {
        let start = Instant::now();
        self.validate(base, target)?;
        let mut candidates = discover_joins(base, repo, &self.config.discovery)?;
        candidates.retain(|c| c.base_key != target);
        let mut report = self.augment(base, repo, &candidates, target)?;
        report.seconds = start.elapsed().as_secs_f64();
        Ok(report)
    }

    /// Reject a NaN or negative τ and a target with fewer than two
    /// distinct non-null values. [`Arda::run`] checks before discovery, so
    /// a bad input loads no shard.
    fn validate(&self, base: &Table, target: &str) -> Result<()> {
        // `ratio > τ` is never true for a NaN τ, so it would keep every
        // candidate without a word.
        if let Some(tau) = self.config.tr_threshold.filter(|t| t.is_nan() || *t < 0.0) {
            return Err(ArdaError::Invalid(format!(
                "Tuple-Ratio threshold τ = {tau} must be a non-negative number"
            )));
        }
        let keys = base.column(target)?.keys();
        let mut present = keys.iter().flatten();
        let first = present.next();
        if !first.is_some_and(|first| present.any(|k| k != first)) {
            return Err(ArdaError::Invalid(format!(
                "target `{target}` has fewer than two distinct non-null values"
            )));
        }
        Ok(())
    }

    /// Augment `base` using a caller-provided (discovery-system) candidate
    /// list. A candidate keyed on the target is an error.
    pub fn augment(
        &self,
        base: &Table,
        repo: &Repository,
        candidates: &[CandidateJoin],
        target: &str,
    ) -> Result<AugmentationReport> {
        let start = Instant::now();
        let cfg = &self.config;
        self.validate(base, target)?;

        // ---- Coreset construction -------------------------------------
        let (y, task) = encode_target(base.column(target)?, cfg.force_classification);
        let labels = task.is_classification().then_some(y);
        let coreset_idx = row_coreset(base.n_rows(), labels.as_deref(), &cfg.coreset);
        let mut kept = base.take(&coreset_idx)?;
        let base_columns: HashSet<String> = kept
            .columns()
            .iter()
            .map(|c| c.name().to_string())
            .collect();

        // Check candidates against the manifest without touching tables —
        // on a sharded repository this must not force a load. A joined
        // column is named after its table and key pair, so a repeated
        // candidate, or two tables sharing a name, would name two columns
        // alike; a join keyed on the target leaks it into the features.
        let mut table_by_name: HashMap<&str, usize> = HashMap::new();
        let mut pairs: HashSet<(usize, &str, &str)> = HashSet::new();
        for c in candidates {
            let problem = if c.table_index >= repo.len() {
                "references a missing table"
            } else if *table_by_name.entry(&c.table_name).or_insert(c.table_index) != c.table_index
            {
                "shares its table name with another table"
            } else if !pairs.insert((c.table_index, &c.base_key, &c.foreign_key)) {
                "is listed twice"
            } else if c.base_key == target {
                "is keyed on the target"
            } else {
                continue;
            };
            return Err(ArdaError::Invalid(format!(
                "candidate {}[{}:{}] on table {} {problem}",
                c.table_name, c.base_key, c.foreign_key, c.table_index
            )));
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
            // execute them concurrently, each yielding the block of columns
            // it adds, then fold the blocks in candidate order. A block's
            // names carry its candidate (`<table>[<keys>].<column>`), and
            // the checks above keep candidates distinct, so no two blocks
            // share a name. The batch fans out over its candidates on the
            // shared `arda-par` work budget; each candidate's shard load runs
            // under its split of the budget, and a join itself never spawns.
            let snapshot = &kept;
            let blocks: Vec<Result<Table>> = arda_par::par_map(batch, |_, cand| {
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
                Ok(execute_join(snapshot, &foreign, &spec, cfg.seed)?)
            });

            let mut joined = kept;
            for (cand, block) in batch.iter().zip(blocks) {
                let block = block?;
                for col in block.columns() {
                    provenance.insert(col.name().to_string(), cand.table_name.clone());
                }
                joined.append(block)?;
                joins_executed += 1;
            }

            // Impute the LEFT-join nulls, featurize, select.
            let (imputed, _) = impute(&joined, cfg.seed.wrapping_add(batch_no as u64))?;
            let (ds, sources) =
                featurize_with_sources(&imputed, target, cfg.force_classification, &cfg.featurize)?;
            let ctx = SelectionContext::standard(&ds, cfg.seed);
            let result = run_selector(&ds, &cfg.selector, &ctx)?;

            // Keep the base columns, then each selected feature's source
            // column once, in selection order.
            let columns = imputed.columns();
            let mut keep: Vec<bool> = columns
                .iter()
                .map(|c| base_columns.contains(c.name()))
                .collect();
            let mut keep_cols: Vec<&str> = columns
                .iter()
                .map(|c| c.name())
                .filter(|name| base_columns.contains(*name))
                .collect();
            for &f in &result.selected {
                let source = sources[f];
                if !keep[source] {
                    keep[source] = true;
                    keep_cols.push(columns[source].name());
                }
            }
            kept = imputed.select(&keep_cols)?;

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
/// was reported". A split too small to score, or a constant regression
/// holdout, is the caller's input at fault.
fn best_estimate(data: &Dataset, seed: u64) -> Result<(f64, ModelKind)> {
    let mut estimators = vec![ModelKind::RandomForest {
        n_trees: 64,
        max_depth: 12,
    }];
    if data.task.is_classification() {
        estimators.push(ModelKind::RbfSvm { c: 1.0 });
    }
    best_holdout_score(data, &estimators, seed).map_err(|e| match e {
        MlError::Invalid(msg) => ArdaError::Invalid(msg),
        e => ArdaError::Ml(e),
    })
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
    fn augment_rejects_a_nan_or_negative_tau() {
        let (sc, repo, candidates) = taxi_candidates();
        for tau in [f64::NAN, -1.0] {
            let mut cfg = fast_config(2);
            cfg.tr_threshold = Some(tau);
            let err = Arda::new(cfg)
                .augment(&sc.base, &repo, &candidates, &sc.target)
                .unwrap_err();
            assert!(
                matches!(&err, ArdaError::Invalid(msg) if msg.contains("τ")),
                "τ = {tau}: {err}"
            );
        }
    }

    /// `run` checks τ and the target before discovery, so a bad input
    /// leaves every CSV shard of a sharded repository unloaded.
    #[test]
    fn run_rejects_bad_inputs_before_loading_a_shard() {
        let sc = taxi(&ScenarioConfig {
            n_rows: 60,
            n_decoys: 2,
            seed: 4,
        });
        let dir = std::env::temp_dir().join(format!("arda_core_validate_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        for t in &sc.repository {
            let file = std::fs::File::create(dir.join(format!("{}.csv", t.name()))).unwrap();
            arda_table::write_csv(t, file).unwrap();
        }
        let mut nan_tau = fast_config(4);
        nan_tau.tr_threshold = Some(f64::NAN);
        let features: Vec<&str> = (sc.base.columns().iter())
            .map(|c| c.name())
            .filter(|name| *name != sc.target)
            .collect();
        let mut constant = sc.base.select(&features).unwrap();
        let n = constant.n_rows();
        constant
            .add_column(arda_table::Column::from_f64(&sc.target, vec![1.5; n]))
            .unwrap();
        for (label, arda, base) in [
            ("NaN τ", Arda::new(nan_tau), &sc.base),
            ("constant target", Arda::new(fast_config(4)), &constant),
        ] {
            let repo = Repository::from_dir(&dir).unwrap();
            let err = arda.run(base, &repo, &sc.target).unwrap_err();
            assert!(matches!(err, ArdaError::Invalid(_)), "{label}: {err}");
            assert_eq!(repo.resident_shards(), 0, "{label}: no shard loaded");
        }
        std::fs::remove_dir_all(&dir).ok();
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

    /// Candidates for a small taxi run, with its repository.
    fn taxi_candidates() -> (arda_synth::Scenario, Repository, Vec<CandidateJoin>) {
        let sc = taxi(&ScenarioConfig {
            n_rows: 60,
            n_decoys: 1,
            seed: 8,
        });
        let repo = Repository::from_tables(sc.repository.clone());
        let candidates = discover_joins(&sc.base, &repo, &DiscoveryConfig::default()).unwrap();
        (sc, repo, candidates)
    }

    #[test]
    fn augment_rejects_a_repeated_candidate() {
        let (sc, repo, mut candidates) = taxi_candidates();
        candidates.push(candidates[0].clone());
        let err = Arda::default()
            .augment(&sc.base, &repo, &candidates, &sc.target)
            .unwrap_err();
        assert!(
            matches!(&err, ArdaError::Invalid(msg) if msg.contains("listed twice")),
            "{err}"
        );
    }

    #[test]
    fn augment_rejects_two_tables_sharing_a_name() {
        let (sc, repo, mut candidates) = taxi_candidates();
        let other = candidates
            .iter()
            .position(|c| c.table_index != candidates[0].table_index)
            .unwrap();
        candidates[other].table_name = candidates[0].table_name.clone();
        let err = Arda::default()
            .augment(&sc.base, &repo, &candidates, &sc.target)
            .unwrap_err();
        assert!(
            matches!(&err, ArdaError::Invalid(msg) if msg.contains("shares its table name")),
            "{err}"
        );
    }

    /// A base of `key` and an Int target `y` whose values overlap the
    /// shard's `key`, so discovery mines `y` as a join key too. `y` follows
    /// the shard's `boost`; the base also has a numeric column named `a=b`,
    /// and the shard a category column whose values contain `=`.
    fn target_key_scenario() -> (Table, Repository) {
        let n = 80;
        let boost: Vec<i64> = (0..n).map(|k| k * 7 % 13).collect();
        let base = Table::new(
            "base",
            vec![
                arda_table::Column::from_i64("key", (0..n).collect()),
                arda_table::Column::from_i64("y", boost.iter().map(|b| 3 * b + 1).collect()),
                arda_table::Column::from_f64("a=b", (0..n).map(|k| (k % 5) as f64).collect()),
            ],
        )
        .unwrap();
        let tags: Vec<&str> = boost
            .iter()
            .map(|b| if b % 2 == 0 { "k=even" } else { "k=odd" })
            .collect();
        let ext = Table::new(
            "ext",
            vec![
                arda_table::Column::from_i64("key", (0..n).collect()),
                arda_table::Column::from_i64("boost", boost),
                arda_table::Column::from_str("tag", tags),
            ],
        )
        .unwrap();
        (base, Repository::from_tables(vec![ext]))
    }

    #[test]
    fn run_never_joins_on_the_target() {
        let (base, repo) = target_key_scenario();
        let mined = discover_joins(&base, &repo, &DiscoveryConfig::default()).unwrap();
        assert!(mined.iter().any(|c| c.base_key == "y"), "{mined:?}");
        let report = Arda::new(fast_config(0)).run(&base, &repo, "y").unwrap();
        let kept = mined.iter().filter(|c| c.base_key != "y").count();
        assert_eq!(report.joins_executed, kept);
        for s in &report.selected {
            assert!(!s.column.starts_with("ext[y:"), "{s:?}");
        }
    }

    #[test]
    fn augment_rejects_a_candidate_keyed_on_the_target() {
        let (base, repo) = target_key_scenario();
        let mined = discover_joins(&base, &repo, &DiscoveryConfig::default()).unwrap();
        let err = Arda::default()
            .augment(&base, &repo, &mined, "y")
            .unwrap_err();
        assert!(
            matches!(&err, ArdaError::Invalid(msg) if msg.contains("ext[y:key]") && msg.contains("keyed on the target")),
            "{err}"
        );
    }

    /// A kept feature maps back to its source column by featurize's own
    /// record, not by cutting its name at `=`.
    #[test]
    fn column_and_category_names_with_equals_signs_survive() {
        let (base, repo) = target_key_scenario();
        let cfg = ArdaConfig {
            selector: SelectorKind::AllFeatures,
            ..fast_config(0)
        };
        let report = Arda::new(cfg).run(&base, &repo, "y").unwrap();
        let names: Vec<&str> = report
            .augmented
            .columns()
            .iter()
            .map(|c| c.name())
            .collect();
        for want in ["key", "y", "a=b", "ext[key:key].boost", "ext[key:key].tag"] {
            assert!(names.contains(&want), "{want} kept: {names:?}");
        }
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
