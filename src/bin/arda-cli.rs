//! `arda-cli` — run the ARDA augmentation pipeline on CSV files.
//!
//! ```text
//! arda-cli --base base.csv --target <column> --repo dir_of_shards/ \
//!          [--out augmented.csv] [--selector rifs|rf|ftest|mi|all] \
//!          [--plan budget|table|full] [--tr <tau>] [--seed <n>] \
//!          [--cache-tables <n>] [--save-repo <dir>]
//! ```
//!
//! The repository directory is ingested as a **sharded repository**: every
//! `*.csv` and `*.arda` file becomes a shard whose header is scanned up
//! front (the manifest) and whose body is loaded — CSV read once and
//! parsed quote-aware, binary shards decoded per column, both parallel on
//! the work budget — only when the pipeline first touches it. A fresh
//! `_catalog.arda` in the directory makes the manifest scan free: the
//! whole index (names, widths, dtypes, row counts) is validated against
//! file mtimes/sizes and reused with zero header reads. `--cache-tables`
//! bounds how many loaded shards stay resident (LRU eviction), so
//! repositories larger than memory still run. `--save-repo <dir>`
//! converts the repository into typed binary shards + catalog at `<dir>`
//! (Timestamps and every other dtype survive exactly; may be used alone,
//! without `--base`/`--target`, as a pure conversion). Otherwise the base
//! table is read with the same CSV reader, candidate joins are
//! discovered, the pipeline runs, and the augmented table (base coreset +
//! selected foreign columns) is written as CSV.

use arda::prelude::*;
use std::path::PathBuf;
use std::process::ExitCode;

struct Args {
    base: PathBuf,
    target: String,
    repo: PathBuf,
    out: Option<PathBuf>,
    selector: String,
    plan: String,
    tr: Option<f64>,
    seed: u64,
    cache_tables: Option<usize>,
    save_repo: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        base: PathBuf::new(),
        target: String::new(),
        repo: PathBuf::new(),
        out: None,
        selector: "rifs".into(),
        plan: "budget".into(),
        tr: None,
        seed: 0,
        cache_tables: None,
        save_repo: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("missing value for {name}"));
        match flag.as_str() {
            "--base" => args.base = PathBuf::from(value("--base")?),
            "--target" => args.target = value("--target")?,
            "--repo" => args.repo = PathBuf::from(value("--repo")?),
            "--out" => args.out = Some(PathBuf::from(value("--out")?)),
            "--selector" => args.selector = value("--selector")?,
            "--plan" => args.plan = value("--plan")?,
            "--tr" => {
                args.tr = Some(
                    value("--tr")?
                        .parse()
                        .map_err(|e| format!("--tr must be a number: {e}"))?,
                )
            }
            "--seed" => {
                args.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed must be an integer: {e}"))?
            }
            "--cache-tables" => {
                let n: usize = value("--cache-tables")?
                    .parse()
                    .map_err(|e| format!("--cache-tables must be an integer: {e}"))?;
                if n == 0 {
                    return Err("--cache-tables must be at least 1".into());
                }
                args.cache_tables = Some(n);
            }
            "--save-repo" => args.save_repo = Some(PathBuf::from(value("--save-repo")?)),
            "--help" | "-h" => return Err(USAGE.to_string()),
            other => return Err(format!("unknown flag {other}\n{USAGE}")),
        }
    }
    if args.repo.as_os_str().is_empty() {
        return Err(format!("--repo is required\n{USAGE}"));
    }
    // --base and --target come together or not at all; only a --save-repo
    // run may omit the pair (pure conversion). Supplying exactly one is
    // always a usage error — silently skipping the pipeline would let a
    // typo'd invocation exit 0 without the output the caller expected.
    let base_given = !args.base.as_os_str().is_empty();
    let target_given = !args.target.is_empty();
    if base_given != target_given {
        return Err(format!(
            "--base and --target must be given together\n{USAGE}"
        ));
    }
    if !base_given && args.save_repo.is_none() {
        return Err(format!(
            "--base and --target are required (unless only converting with --save-repo)\n{USAGE}"
        ));
    }
    Ok(args)
}

const USAGE: &str = "usage: arda-cli --base base.csv --target <column> --repo <dir> \
[--out augmented.csv] [--selector rifs|rf|ftest|mi|all] [--plan budget|table|full] \
[--tr <tau>] [--seed <n>] [--cache-tables <n>] [--save-repo <dir>]

  --repo <dir>       directory of .csv / .arda shards, ingested lazily:
                     headers are scanned up front (or, when a fresh
                     _catalog.arda covers the directory, skipped entirely),
                     bodies load in parallel on first use by discovery or
                     a join batch
  --cache-tables <n> keep at most <n> loaded shards resident (LRU); default
                     unbounded — use for repositories larger than memory
  --save-repo <dir>  convert the repository to typed binary .arda shards
                     plus a _catalog.arda at <dir>; preserves all dtypes
                     exactly (incl. timestamps, which CSV only keeps via
                     @tick text) and makes later runs start warm. With
                     --save-repo, --base/--target become optional: omit
                     them for a pure conversion run";

fn selector_from(name: &str) -> Result<SelectorKind, String> {
    Ok(match name {
        "rifs" => SelectorKind::Rifs(RifsConfig::default()),
        "rf" => SelectorKind::Ranking(RankingMethod::RandomForest),
        "ftest" => SelectorKind::Ranking(RankingMethod::FTest),
        "mi" => SelectorKind::Ranking(RankingMethod::MutualInfo),
        "all" => SelectorKind::AllFeatures,
        other => return Err(format!("unknown selector {other} (rifs|rf|ftest|mi|all)")),
    })
}

fn plan_from(name: &str) -> Result<JoinPlan, String> {
    Ok(match name {
        "budget" => JoinPlan::Budget { budget: None },
        "table" => JoinPlan::Table,
        "full" => JoinPlan::FullMaterialization,
        other => return Err(format!("unknown plan {other} (budget|table|full)")),
    })
}

fn run() -> Result<(), String> {
    let args = parse_args()?;
    let mut repo = Repository::from_dir(&args.repo).map_err(|e| e.to_string())?;
    if let Some(cap) = args.cache_tables {
        repo = repo.with_cache_capacity(cap);
    }
    if repo.is_empty() {
        return Err(format!(
            "no .csv or .arda files found in {}",
            args.repo.display()
        ));
    }
    eprintln!(
        "indexed {} repository shard(s) ({}; lazy{})",
        repo.len(),
        if repo.catalog_hit() {
            "catalog hit, 0 header reads".to_string()
        } else {
            format!("cold scan, {} header reads", repo.header_scans())
        },
        match args.cache_tables {
            Some(cap) => format!(", cache {cap}"),
            None => String::new(),
        }
    );

    if let Some(out_dir) = &args.save_repo {
        repo.save_dir(out_dir).map_err(|e| e.to_string())?;
        eprintln!(
            "saved {} shard(s) as typed binary .arda + _catalog.arda in {}",
            repo.len(),
            out_dir.display()
        );
        if args.base.as_os_str().is_empty() || args.target.is_empty() {
            return Ok(()); // pure conversion run
        }
    }

    let base = arda::table::read_csv(&args.base).map_err(|e| e.to_string())?;
    base.column(&args.target)
        .map_err(|_| format!("target column `{}` not found in base table", args.target))?;
    eprintln!("loaded base ({} rows)", base.n_rows());
    let config = ArdaConfig {
        selector: selector_from(&args.selector)?,
        join_plan: plan_from(&args.plan)?,
        tr_threshold: args.tr,
        seed: args.seed,
        ..Default::default()
    };
    let report = Arda::new(config)
        .run(&base, &repo, &args.target)
        .map_err(|e| e.to_string())?;

    eprintln!(
        "base score {:.4} → augmented {:.4} ({:+.1}%), {} joins, {:.1}s",
        report.base_score,
        report.augmented_score,
        report.improvement_pct(),
        report.joins_executed,
        report.seconds
    );
    for s in &report.selected {
        eprintln!("  selected {} (from {})", s.column, s.table);
    }

    match args.out {
        Some(path) => {
            let file = std::fs::File::create(&path).map_err(|e| e.to_string())?;
            arda::table::write_csv(&report.augmented, file).map_err(|e| e.to_string())?;
            eprintln!("wrote {}", path.display());
        }
        None => {
            arda::table::write_csv(&report.augmented, std::io::stdout().lock())
                .map_err(|e| e.to_string())?;
        }
    }
    Ok(())
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("{msg}");
            ExitCode::FAILURE
        }
    }
}
