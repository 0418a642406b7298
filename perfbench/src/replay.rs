//! The traced run: `Arda::run` replayed stage by stage through the crates'
//! public functions, with every call into a layer timed from here.
//!
//! The replay follows `Arda::augment` step for step (discovery, coreset,
//! base estimates, batch plan, then per batch the joins, fold, imputation,
//! featurization and RIFS, then the final estimates), so it reproduces the
//! pipeline's outputs bit for bit; `main` checks that against a real run
//! and marks the layer numbers stale when they differ. Probes that repeat
//! work to split a stage further (RIFS's fractions and one reconstructed
//! injection round per batch) are timed apart from the stage timers and
//! kept out of `core.replay_s`.

use arda_core::{plan_batches, ArdaConfig};
use arda_coreset::row_coreset;
use arda_discovery::{discover_joins, CandidateJoin, KeyKind, Repository};
use arda_join::{execute_join, impute::impute, JoinKind, JoinSpec, SoftMethod};
use arda_linalg::stats::standardize_columns;
use arda_ml::model::{score_for_task, Model};
use arda_ml::{featurize, Dataset, ForestConfig, ModelKind, RandomForest};
use arda_select::rifs::inject_features;
use arda_select::sparse_regression::{l21_solve, target_matrix};
use arda_select::{rifs_fractions, run_selector, RifsConfig, SelectionContext, SelectorKind};
use arda_table::{DataType, Table};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::{HashMap, HashSet};
use std::time::Instant;

/// Every per-layer metric with its unit, in report order. `BENCHMARK.json`
/// lists the same names and units (a self-test checks it).
pub const LAYER_METRICS: [(&str, &str); 30] = [
    ("select.rifs_s", "s"),
    ("select.fractions_s", "s"),
    ("select.round_inject_s", "s"),
    ("select.round_forest_s", "s"),
    ("select.round_l21_s", "s"),
    ("select.l21_iterations", "count"),
    ("select.features_in", "count"),
    ("select.features_kept", "count"),
    ("select.decoy_columns_kept", "count"),
    ("ml.base_score", "score"),
    ("ml.estimate_forest_s", "s"),
    ("ml.estimate_svm_s", "s"),
    ("ml.svm_support_vectors", "count"),
    ("ml.featurize_s", "s"),
    ("join.joins", "count"),
    ("join.exec_s", "s"),
    ("join.impute_s", "s"),
    ("discovery.candidates", "count"),
    ("discovery.discover_s", "s"),
    ("table.index_s", "s"),
    ("table.header_scans", "count"),
    ("table.shard_loads", "count"),
    ("table.shard_load_s", "s"),
    ("core.batches", "count"),
    ("coreset.rows", "count"),
    ("core.replay_s", "s"),
    ("par.width", "count"),
    ("par.peak_workers", "count"),
    ("par.cpu_s", "s"),
    ("replay.fidelity", "count"),
];

/// Per-layer totals of one traced run, keyed by the names above.
#[derive(Debug, Clone)]
pub struct Layers {
    values: Vec<f64>,
}

impl Default for Layers {
    fn default() -> Self {
        Layers {
            values: vec![0.0; LAYER_METRICS.len()],
        }
    }
}

impl Layers {
    fn slot(name: &str) -> usize {
        LAYER_METRICS
            .iter()
            .position(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("unknown layer metric {name}"))
    }

    /// Add `v` to metric `name`.
    pub fn add(&mut self, name: &str, v: f64) {
        self.values[Self::slot(name)] += v;
    }

    /// Set metric `name` to `v`.
    pub fn set(&mut self, name: &str, v: f64) {
        self.values[Self::slot(name)] = v;
    }

    #[cfg(test)]
    pub fn get(&self, name: &str) -> f64 {
        self.values[Self::slot(name)]
    }

    /// Run `f`, adding its wall time to metric `name`.
    fn time<R>(&mut self, name: &str, f: impl FnOnce() -> R) -> R {
        let start = Instant::now();
        let out = f();
        self.add(name, start.elapsed().as_secs_f64());
        out
    }

    /// `(name, unit, value)` in report order.
    pub fn entries(&self) -> impl Iterator<Item = (&'static str, &'static str, f64)> + '_ {
        LAYER_METRICS
            .iter()
            .zip(&self.values)
            .map(|(&(name, unit), &v)| (name, unit, v))
    }
}

/// The replay's outputs, for the fidelity check against `Arda::run`.
#[derive(Debug, Clone)]
pub struct Replayed {
    pub base_score: f64,
    pub augmented_score: f64,
    pub augmented: Table,
    /// `(table, column)` of each kept foreign column.
    pub selected: Vec<(String, String)>,
    pub joins_executed: usize,
}

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// Replay `Arda::run(base, repo, target)` under `cfg`, adding each stage's
/// time and counts to `layers`. Supports the configurations the benchmark
/// runs: no Tuple-Ratio prefilter and a RIFS selector.
pub fn replay(
    base: &Table,
    repo: &Repository,
    target: &str,
    cfg: &ArdaConfig,
    layers: &mut Layers,
) -> Result<Replayed, String> {
    if cfg.tr_threshold.is_some() {
        return Err("replay does not cover the Tuple-Ratio prefilter".into());
    }
    let SelectorKind::Rifs(rifs) = &cfg.selector else {
        return Err("replay covers the RIFS selector only".into());
    };
    let start = Instant::now();
    let mut probe_s = 0.0;

    // ---- Discovery ----------------------------------------------------
    let candidates = layers
        .time("discovery.discover_s", || {
            discover_joins(base, repo, &cfg.discovery)
        })
        .map_err(err)?;
    layers.set("discovery.candidates", candidates.len() as f64);

    // ---- Coreset ------------------------------------------------------
    let tcol = base.column(target).map_err(err)?;
    let is_cls =
        cfg.force_classification || !tcol.dtype().is_numeric() || tcol.dtype() == DataType::Bool;
    let labels: Option<Vec<f64>> = is_cls.then(|| {
        let mut ids: HashMap<String, usize> = HashMap::new();
        tcol.iter()
            .map(|v| {
                let next = ids.len();
                *ids.entry(v.to_string()).or_insert(next) as f64
            })
            .collect()
    });
    let coreset_idx = row_coreset(base.n_rows(), labels.as_deref(), &cfg.coreset);
    let mut kept = base.take(&coreset_idx).map_err(err)?;
    layers.set("coreset.rows", kept.n_rows() as f64);
    let base_columns: HashSet<String> = kept
        .columns()
        .iter()
        .map(|c| c.name().to_string())
        .collect();

    // ---- Base-only estimate -------------------------------------------
    let base_ds = layers
        .time("ml.featurize_s", || {
            featurize(&kept, target, cfg.force_classification, &cfg.featurize)
        })
        .map_err(err)?;
    let base_score = best_estimate(&base_ds, cfg.seed, layers, true)?;

    // ---- Plan + batches -----------------------------------------------
    let batches = plan_batches(&candidates, repo, cfg.join_plan, kept.n_rows());
    layers.set("core.batches", batches.len() as f64);
    let mut provenance: HashMap<String, String> = HashMap::new();
    let mut joins_executed = 0usize;

    for (batch_no, batch) in batches.iter().enumerate() {
        let mut extra_tables = Vec::with_capacity(batch.len());
        for cand in batch {
            let foreign = layers
                .time("table.shard_load_s", || repo.table(cand.table_index))
                .map_err(err)?;
            layers.add("table.shard_loads", 1.0);
            let spec = JoinSpec {
                base_keys: vec![cand.base_key.clone()],
                foreign_keys: vec![cand.foreign_key.clone()],
                kind: join_kind_for(&kept, cand, cfg.soft_method),
            };
            let joined = layers
                .time("join.exec_s", || {
                    execute_join(&kept, &foreign, &spec, cfg.seed)
                })
                .map_err(err)?;
            layers.add("join.joins", 1.0);
            let before: HashSet<&str> = kept.columns().iter().map(|c| c.name()).collect();
            let mut extras = Table::empty(cand.table_name.clone());
            for col in joined.columns() {
                if !before.contains(col.name()) {
                    extras.add_column(col.clone()).map_err(err)?;
                }
            }
            extra_tables.push(extras);
        }

        let mut joined = kept.clone();
        for (cand, extras) in batch.iter().zip(&extra_tables) {
            let before: HashSet<String> = joined
                .columns()
                .iter()
                .map(|c| c.name().to_string())
                .collect();
            joined = joined.hstack(extras).map_err(err)?;
            joins_executed += 1;
            for col in joined.columns() {
                if !before.contains(col.name()) {
                    provenance.insert(col.name().to_string(), cand.table_name.clone());
                }
            }
        }

        let (imputed, _) = layers
            .time("join.impute_s", || {
                impute(&joined, cfg.seed.wrapping_add(batch_no as u64))
            })
            .map_err(err)?;
        let ds = layers
            .time("ml.featurize_s", || {
                featurize(&imputed, target, cfg.force_classification, &cfg.featurize)
            })
            .map_err(err)?;
        let ctx = SelectionContext::standard(&ds, cfg.seed);
        let result = layers
            .time("select.rifs_s", || run_selector(&ds, &cfg.selector, &ctx))
            .map_err(err)?;
        layers.add("select.features_in", ds.n_features() as f64);
        layers.add("select.features_kept", result.selected.len() as f64);

        let probe_start = Instant::now();
        probe_rifs(&ds, &ctx, rifs, layers)?;
        probe_s += probe_start.elapsed().as_secs_f64();

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
        kept = imputed.select(&keep_refs).map_err(err)?;

        if cfg
            .stop_at_score
            .is_some_and(|stop| result.holdout_score >= stop)
        {
            break;
        }
    }

    // ---- Final estimate -----------------------------------------------
    let augmented_ds = layers
        .time("ml.featurize_s", || {
            featurize(&kept, target, cfg.force_classification, &cfg.featurize)
        })
        .map_err(err)?;
    let augmented_score = best_estimate(&augmented_ds, cfg.seed, layers, false)?;

    let selected = kept
        .columns()
        .iter()
        .filter(|c| !base_columns.contains(c.name()))
        .map(|c| {
            let table = provenance.get(c.name()).cloned().unwrap_or_default();
            (table, c.name().to_string())
        })
        .collect();
    layers.set("core.replay_s", start.elapsed().as_secs_f64() - probe_s);
    Ok(Replayed {
        base_score,
        augmented_score,
        augmented: kept,
        selected,
        joins_executed,
    })
}

/// The pipeline's join-kind rule: soft keys use the configured soft method
/// with time resampling; hard timestamp keys get resampling too.
fn join_kind_for(base: &Table, cand: &CandidateJoin, soft: SoftMethod) -> JoinKind {
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

/// The pipeline's estimate: a 64-tree forest, plus an RBF-SVM for
/// classification, best holdout score wins. Each `holdout_score` is spelled
/// out (rows, fit, predict, score) so the SVM's support vectors can be read
/// off the base fit.
fn best_estimate(
    data: &Dataset,
    seed: u64,
    layers: &mut Layers,
    base: bool,
) -> Result<f64, String> {
    let mut estimators = vec![(
        ModelKind::RandomForest {
            n_trees: 64,
            max_depth: 12,
        },
        "ml.estimate_forest_s",
    )];
    if data.task.is_classification() {
        estimators.push((ModelKind::RbfSvm { c: 1.0 }, "ml.estimate_svm_s"));
    }
    let (train, holdout) = if data.task.is_classification() {
        arda_ml::stratified_split(&data.y, 0.25, seed)
    } else {
        arda_ml::train_test_split(data.n_samples(), 0.25, seed)
    };
    let mut best: Option<f64> = None;
    for (kind, metric) in estimators {
        let start = Instant::now();
        let tr = data.select_rows(&train).map_err(err)?;
        let te = data.select_rows(&holdout).map_err(err)?;
        let model = kind.fit(&tr.x, &tr.y, data.task, seed).map_err(err)?;
        let pred = model.predict(&te.x).map_err(err)?;
        let score = score_for_task(data.task, &pred, &te.y);
        layers.add(metric, start.elapsed().as_secs_f64());
        if let (true, Model::RbfSvm(svm)) = (base, &model) {
            layers.set("ml.svm_support_vectors", svm.n_support() as f64);
        }
        if best.is_none_or(|s| score > s) {
            best = Some(score);
        }
    }
    Ok(best.expect("estimator list non-empty"))
}

/// Probes for one batch, outside the stage timers: RIFS's fractions on the
/// batch's train split, then its first injection round rebuilt from the
/// public kernels (injection, forest fit with RIFS's forest settings,
/// standardised ℓ2,1 solve), each timed on its own.
fn probe_rifs(
    ds: &Dataset,
    ctx: &SelectionContext,
    rifs: &RifsConfig,
    layers: &mut Layers,
) -> Result<(), String> {
    let train = ds.select_rows(&ctx.train).map_err(err)?;
    layers
        .time("select.fractions_s", || {
            rifs_fractions(&train, rifs, ctx.seed)
        })
        .map_err(err)?;

    let d = train.n_features();
    if d == 0 {
        return Ok(());
    }
    let t = ((rifs.eta * d as f64).ceil() as usize).max(1);
    let aug = layers
        .time("select.round_inject_s", || {
            let mut rng = StdRng::seed_from_u64(ctx.seed);
            let noise = inject_features(&train.x, t, rifs.distribution, &mut rng);
            let names = (0..t).map(|i| format!("__rifs_noise_{i}")).collect();
            train.append_features(&noise, names)
        })
        .map_err(err)?;
    let forest = ForestConfig {
        n_trees: rifs.rf_trees,
        max_depth: 10,
        seed: ctx.seed,
        ..Default::default()
    };
    layers
        .time("select.round_forest_s", || {
            RandomForest::fit_xy(&aug.x, &aug.y, aug.task, &forest)
        })
        .map_err(err)?;
    let solution = layers
        .time("select.round_l21_s", || {
            let mut xs = aug.x.clone();
            standardize_columns(&mut xs);
            l21_solve(&xs, &target_matrix(&aug.y, aug.task), &rifs.l21)
        })
        .map_err(err)?;
    layers.add("select.l21_iterations", solution.iterations as f64);
    Ok(())
}
