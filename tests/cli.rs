//! End-to-end test of the `arda-cli` binary: CSV repository in, augmented
//! CSV out.

use std::path::PathBuf;
use std::process::Command;

fn write(path: &PathBuf, content: &str) {
    std::fs::write(path, content).unwrap();
}

#[test]
fn cli_augments_csv_repository() {
    let dir = std::env::temp_dir().join(format!("arda_cli_test_{}", std::process::id()));
    let repo = dir.join("repo");
    std::fs::create_dir_all(&repo).unwrap();

    // Base: y depends on `boost` from the repository table.
    let mut base_csv = String::from("key,y\n");
    let mut ext_csv = String::from("key,boost\n");
    for i in 0..60 {
        let boost = (i * 7 % 13) as f64;
        base_csv.push_str(&format!("{i},{}\n", 2.0 * boost + 1.0));
        ext_csv.push_str(&format!("{i},{boost}\n"));
    }
    write(&dir.join("base.csv"), &base_csv);
    write(&repo.join("ext.csv"), &ext_csv);

    // A second shard exercises the lazy directory ingest with an LRU
    // cache bound of one resident shard.
    let mut decoy_csv = String::from("code,junk\n");
    for i in 0..20 {
        decoy_csv.push_str(&format!("z{i},{}\n", i % 3));
    }
    write(&repo.join("decoy.csv"), &decoy_csv);

    let out = dir.join("augmented.csv");
    let output = Command::new(env!("CARGO_BIN_EXE_arda-cli"))
        .args([
            "--base",
            dir.join("base.csv").to_str().unwrap(),
            "--target",
            "y",
            "--repo",
            repo.to_str().unwrap(),
            "--out",
            out.to_str().unwrap(),
            "--selector",
            "rf",
            "--cache-tables",
            "1",
        ])
        .output()
        .expect("run arda-cli");
    assert!(
        output.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(
        stderr.contains("indexed 2 repository shard(s)") && stderr.contains("cache 1"),
        "sharded ingest reported: {stderr}"
    );

    let augmented = arda::table::read_csv(&out).unwrap();
    assert_eq!(augmented.n_rows(), 60);
    assert!(augmented.column("y").is_ok());
    assert!(
        augmented.column("boost").is_ok(),
        "signal column joined and selected"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// A repository shard above the CSV reader's 64 KiB single-run threshold
/// is cut into runs and parsed in parallel at a wide budget; the CLI's
/// output (the augmented CSV on stdout) is byte-identical at
/// `ARDA_THREADS=1` and `ARDA_THREADS=8`.
#[test]
fn cli_output_identical_across_thread_counts_above_parse_threshold() {
    let dir = std::env::temp_dir().join(format!("arda_cli_big_shard_{}", std::process::id()));
    let repo = dir.join("repo");
    std::fs::create_dir_all(&repo).unwrap();

    let mut base_csv = String::from("key,y\n");
    for i in 0..60 {
        base_csv.push_str(&format!("{i},{}\n", 2 * (i * 7 % 13) + 1));
    }
    // 200 keys × 25 rows each (group-by pre-aggregation runs), with
    // quoted cells that hold a comma, a newline and a CRLF.
    let mut ext_csv = String::from("key,boost,note\n");
    for i in 0..5_000 {
        let note = ["plain", "\"a,b\"", "\"two\nlines\"", "\"crlf\r\ncell\""][i % 4];
        ext_csv.push_str(&format!("{},{}.5,{note}\n", i % 200, i % 13));
    }
    assert!(
        ext_csv.len() > 64 * 1024,
        "shard is {} bytes",
        ext_csv.len()
    );
    write(&dir.join("base.csv"), &base_csv);
    write(&repo.join("ext.csv"), &ext_csv);

    let run = |threads: &str| {
        let output = Command::new(env!("CARGO_BIN_EXE_arda-cli"))
            .args([
                "--base",
                dir.join("base.csv").to_str().unwrap(),
                "--target",
                "y",
                "--repo",
                repo.to_str().unwrap(),
                "--selector",
                "all",
            ])
            .env("ARDA_THREADS", threads)
            .output()
            .expect("run arda-cli");
        assert!(
            output.status.success(),
            "ARDA_THREADS={threads}: {}",
            String::from_utf8_lossy(&output.stderr)
        );
        output.stdout
    };
    let narrow = run("1");
    let wide = run("8");
    assert!(
        String::from_utf8_lossy(&narrow).starts_with("key,y,"),
        "augmented CSV carries joined columns"
    );
    assert!(
        narrow == wide,
        "stdout differs between ARDA_THREADS=1 and 8"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// `--save-repo` without `--base`/`--target` is a pure conversion run:
/// CSV shards become typed binary `.arda` shards plus a `_catalog.arda`,
/// and a pipeline run over the converted directory starts warm (catalog
/// hit, zero header reads) and still augments.
#[test]
fn cli_save_repo_converts_and_reloads_via_catalog() {
    let dir = std::env::temp_dir().join(format!("arda_cli_save_{}", std::process::id()));
    let repo = dir.join("repo");
    let bin_repo = dir.join("repo_bin");
    std::fs::create_dir_all(&repo).unwrap();

    let mut base_csv = String::from("key,y\n");
    let mut ext_csv = String::from("key,boost\n");
    for i in 0..60 {
        let boost = (i * 7 % 13) as f64;
        base_csv.push_str(&format!("{i},{}\n", 2.0 * boost + 1.0));
        ext_csv.push_str(&format!("{i},{boost}\n"));
    }
    write(&dir.join("base.csv"), &base_csv);
    write(&repo.join("ext.csv"), &ext_csv);

    // Conversion-only: no --base / --target.
    let output = Command::new(env!("CARGO_BIN_EXE_arda-cli"))
        .args([
            "--repo",
            repo.to_str().unwrap(),
            "--save-repo",
            bin_repo.to_str().unwrap(),
        ])
        .output()
        .expect("run arda-cli");
    assert!(
        output.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    assert!(bin_repo.join("ext.arda").exists(), "binary shard written");
    assert!(bin_repo.join("_catalog.arda").exists(), "catalog written");

    // Pipeline over the converted directory: warm start, same signal.
    let out = dir.join("augmented.csv");
    let output = Command::new(env!("CARGO_BIN_EXE_arda-cli"))
        .args([
            "--base",
            dir.join("base.csv").to_str().unwrap(),
            "--target",
            "y",
            "--repo",
            bin_repo.to_str().unwrap(),
            "--out",
            out.to_str().unwrap(),
            "--selector",
            "rf",
        ])
        .output()
        .expect("run arda-cli");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(output.status.success(), "stderr: {stderr}");
    assert!(
        stderr.contains("catalog hit, 0 header reads"),
        "warm manifest reported: {stderr}"
    );
    let augmented = arda::table::read_csv(&out).unwrap();
    assert!(augmented.column("boost").is_ok(), "signal column selected");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn cli_reports_usage_errors() {
    let out = Command::new(env!("CARGO_BIN_EXE_arda-cli"))
        .args(["--base", "missing.csv"])
        .output()
        .expect("run arda-cli");
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("required") || stderr.contains("usage"),
        "stderr: {stderr}"
    );

    // --base without --target is a usage error even with --save-repo —
    // it must not silently convert-and-exit-0 while skipping the
    // pipeline the caller asked for.
    let out = Command::new(env!("CARGO_BIN_EXE_arda-cli"))
        .args(["--base", "b.csv", "--repo", "r", "--save-repo", "s"])
        .output()
        .expect("run arda-cli");
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("--base and --target must be given together"),
        "stderr: {stderr}"
    );
}

#[test]
fn cli_rejects_unknown_selector() {
    let dir = std::env::temp_dir().join(format!("arda_cli_sel_{}", std::process::id()));
    let repo = dir.join("repo");
    std::fs::create_dir_all(&repo).unwrap();
    write(&dir.join("base.csv"), "k,y\n1,2.0\n2,3.0\n");
    write(&repo.join("t.csv"), "k,v\n1,5\n2,6\n");
    let out = Command::new(env!("CARGO_BIN_EXE_arda-cli"))
        .args([
            "--base",
            dir.join("base.csv").to_str().unwrap(),
            "--target",
            "y",
            "--repo",
            repo.to_str().unwrap(),
            "--selector",
            "bogus",
        ])
        .output()
        .expect("run arda-cli");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown selector"));
    std::fs::remove_dir_all(&dir).ok();
}

/// Degenerate inputs are rejected before any model is fitted, with a
/// specific message: by the library as `ArdaError::Invalid`, and by the
/// CLI with exit code 1 and the message on stderr.
#[test]
fn degenerate_inputs_are_rejected_by_library_and_cli() {
    use arda::core::ArdaError;
    use arda::prelude::*;

    let dir = std::env::temp_dir().join(format!("arda_cli_degenerate_{}", std::process::id()));
    let repo_dir = dir.join("repo");
    std::fs::create_dir_all(&repo_dir).unwrap();
    let mut ext_csv = String::from("key,boost\n");
    for i in 0..40 {
        ext_csv.push_str(&format!("{i},{}\n", i % 7));
    }
    write(&repo_dir.join("ext.csv"), &ext_csv);
    let repo = Repository::from_dir(&repo_dir).unwrap();

    let base_csv = |n: usize, y: &dyn Fn(usize) -> String| -> String {
        let mut csv = String::from("key,y\n");
        for i in 0..n {
            csv.push_str(&format!("{i},{}\n", y(i)));
        }
        csv
    };
    let few_values = "fewer than two distinct non-null values";
    let small_split = "each side needs at least 2";
    let constant_holdout = "holdout target is constant";
    let cases: Vec<(&str, String, &str)> = vec![
        (
            "constant regression target",
            base_csv(40, &|_| "1.5".into()),
            few_values,
        ),
        (
            // Row 0 lands in the training side, so the holdout is all 1.5.
            "near-constant regression target",
            base_csv(40, &|i| if i == 0 { "2.5" } else { "1.5" }.into()),
            constant_holdout,
        ),
        (
            "all-null target",
            base_csv(40, &|_| String::new()),
            few_values,
        ),
        (
            "single-class target",
            base_csv(40, &|_| "yes".into()),
            few_values,
        ),
        ("one-row base", base_csv(1, &|i| i.to_string()), few_values),
        ("two-row base", base_csv(2, &|i| i.to_string()), small_split),
        (
            "three-row base",
            base_csv(3, &|i| format!("{i}.5")),
            small_split,
        ),
    ];

    for (case, csv, expected) in cases {
        let base = arda::table::read_csv_str("base", &csv).unwrap();
        match Arda::new(ArdaConfig::default()).run(&base, &repo, "y") {
            Err(ArdaError::Invalid(msg)) => {
                assert!(msg.contains(expected), "{case}: library said `{msg}`")
            }
            Err(e) => panic!("{case}: expected an invalid-input error, got `{e}`"),
            Ok(r) => panic!("{case}: accepted, scores {}", r.augmented_score),
        }

        let base_path = dir.join("base.csv");
        write(&base_path, &csv);
        let output = Command::new(env!("CARGO_BIN_EXE_arda-cli"))
            .args([
                "--base",
                base_path.to_str().unwrap(),
                "--target",
                "y",
                "--repo",
                repo_dir.to_str().unwrap(),
            ])
            .output()
            .expect("run arda-cli");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert_eq!(output.status.code(), Some(1), "{case}: stderr {stderr}");
        assert!(stderr.contains(expected), "{case}: CLI said {stderr}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Repository-side edge cases, through the library and the CLI: a ragged
/// base or shard and a truncated `.arda` shard are errors that name the
/// failing file once; a corrupt or garbage `_catalog.arda` is a cold
/// rescan with unchanged output; an empty directory is a CLI error; a
/// repository with no joinable table augments nothing.
#[test]
fn repository_edge_cases_through_library_and_cli() {
    use arda::prelude::*;

    let dir = std::env::temp_dir().join(format!("arda_cli_repo_edges_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let cli = |base: &PathBuf, repo: &PathBuf, out: &PathBuf| {
        let output = Command::new(env!("CARGO_BIN_EXE_arda-cli"))
            .args([
                "--base",
                base.to_str().unwrap(),
                "--target",
                "y",
                "--repo",
                repo.to_str().unwrap(),
                "--out",
                out.to_str().unwrap(),
                "--selector",
                "rf",
            ])
            .output()
            .expect("run arda-cli");
        let stderr = String::from_utf8_lossy(&output.stderr).into_owned();
        (output.status.code(), stderr)
    };
    let run = |base: &Table, repo: &Repository| {
        let config = ArdaConfig {
            selector: SelectorKind::Ranking(RankingMethod::RandomForest),
            ..Default::default()
        };
        Arda::new(config).run(base, repo, "y")
    };

    let base_path = dir.join("base.csv");
    let mut base_csv = String::from("key,y\n");
    let mut ext_csv = String::from("key,boost\n");
    for i in 0..40 {
        base_csv.push_str(&format!("{i},{}\n", 2 * (i * 7 % 13) + 1));
        ext_csv.push_str(&format!("{i},{}\n", i * 7 % 13));
    }
    write(&base_path, &base_csv);
    let base = arda::table::read_csv(&base_path).unwrap();
    let repo_dir = dir.join("repo");
    std::fs::create_dir_all(&repo_dir).unwrap();
    write(&repo_dir.join("ext.csv"), &ext_csv);

    // Ragged base CSV.
    let ragged_base = dir.join("ragged_base.csv");
    write(&ragged_base, "key,y\n0,1\n1,2,3\n2,5\n");
    let err = arda::table::read_csv(&ragged_base).unwrap_err();
    assert!(err.to_string().starts_with("csv error: "), "library: {err}");
    let (code, stderr) = cli(&ragged_base, &repo_dir, &dir.join("out.csv"));
    assert_eq!(code, Some(1), "ragged base: {stderr}");
    assert!(stderr.contains("csv error"), "ragged base: {stderr}");

    // Ragged CSV shard: the header scan passes, the body load fails.
    let ragged_dir = dir.join("ragged_repo");
    std::fs::create_dir_all(&ragged_dir).unwrap();
    let ragged_shard = ragged_dir.join("r.csv");
    write(&ragged_shard, "key,v\n0,1\n1,2,3\n2,5\n");
    let shard = ragged_shard.display().to_string();
    let err = run(&base, &Repository::from_dir(&ragged_dir).unwrap()).unwrap_err();
    let msg = err.to_string();
    assert!(
        msg.starts_with(&format!("table: csv error: shard {shard}: row ")),
        "library: {msg}"
    );
    let (code, stderr) = cli(&base_path, &ragged_dir, &dir.join("out.csv"));
    assert_eq!(code, Some(1), "ragged shard: {stderr}");
    assert!(stderr.contains(&msg), "ragged shard: {stderr}");
    assert_eq!(stderr.matches("csv error").count(), 1, "{stderr}");
    assert_eq!(stderr.matches(&shard).count(), 1, "{stderr}");

    // Truncated `.arda` shard: the catalog goes stale, the header scan
    // passes, and the body load names the shard and the error kind once.
    let bin_dir = dir.join("repo_bin");
    Repository::from_dir(&repo_dir)
        .unwrap()
        .save_dir(&bin_dir)
        .unwrap();
    let arda_shard = bin_dir.join("ext.arda");
    let bytes = std::fs::read(&arda_shard).unwrap();
    std::fs::write(&arda_shard, &bytes[..bytes.len() - 16]).unwrap();
    let shard = arda_shard.display().to_string();
    let err = run(&base, &Repository::from_dir(&bin_dir).unwrap()).unwrap_err();
    let msg = err.to_string();
    assert!(
        msg.starts_with(&format!("table: store error: shard {shard}: body is ")),
        "library: {msg}"
    );
    let (code, stderr) = cli(&base_path, &bin_dir, &dir.join("out.csv"));
    assert_eq!(code, Some(1), "truncated shard: {stderr}");
    assert!(stderr.contains(&msg), "truncated shard: {stderr}");
    assert_eq!(stderr.matches("store error").count(), 1, "{stderr}");
    assert_eq!(stderr.matches(&shard).count(), 1, "{stderr}");

    // Corrupt and garbage catalogs: a cold rescan, same output as a run
    // without a catalog.
    let fresh_dir = dir.join("fresh_repo");
    std::fs::create_dir_all(&fresh_dir).unwrap();
    write(&fresh_dir.join("ext.csv"), &ext_csv);
    let catalog = fresh_dir.join("_catalog.arda");
    let reference_out = dir.join("reference.csv");
    let reference = run(&base, &Repository::from_dir(&fresh_dir).unwrap()).unwrap();
    std::fs::remove_file(&catalog).unwrap();
    let (code, stderr) = cli(&base_path, &fresh_dir, &reference_out);
    assert_eq!(code, Some(0), "no catalog: {stderr}");
    assert!(stderr.contains("cold scan"), "no catalog: {stderr}");
    let good_catalog = std::fs::read(&catalog).unwrap();
    let corrupt = good_catalog[..good_catalog.len() / 2].to_vec();
    for (case, bytes) in [("corrupt", corrupt), ("garbage", b"not a catalog".to_vec())] {
        std::fs::write(&catalog, &bytes).unwrap();
        let repo = Repository::from_dir(&fresh_dir).unwrap();
        assert!(!repo.catalog_hit(), "{case} catalog");
        let report = run(&base, &repo).unwrap();
        assert_eq!(report.augmented, reference.augmented, "{case} catalog");
        std::fs::write(&catalog, &bytes).unwrap();
        let out = dir.join(format!("{case}.csv"));
        let (code, stderr) = cli(&base_path, &fresh_dir, &out);
        assert_eq!(code, Some(0), "{case} catalog: {stderr}");
        assert!(stderr.contains("cold scan"), "{case} catalog: {stderr}");
        assert_eq!(
            std::fs::read(&out).unwrap(),
            std::fs::read(&reference_out).unwrap(),
            "{case} catalog"
        );
    }

    // Empty repository directory.
    let empty_dir = dir.join("empty_repo");
    std::fs::create_dir_all(&empty_dir).unwrap();
    assert!(Repository::from_dir(&empty_dir).unwrap().is_empty());
    let (code, stderr) = cli(&base_path, &empty_dir, &dir.join("out.csv"));
    assert_eq!(code, Some(1), "empty repository: {stderr}");
    assert!(
        stderr.contains("no .csv or .arda files"),
        "empty repository: {stderr}"
    );

    // No joinable table: zero candidates, zero joins, and the output is
    // the base coreset.
    let unjoinable_dir = dir.join("unjoinable_repo");
    std::fs::create_dir_all(&unjoinable_dir).unwrap();
    let mut decoy_csv = String::from("code,junk\n");
    for i in 0..20 {
        decoy_csv.push_str(&format!("z{i},{i}.5\n"));
    }
    write(&unjoinable_dir.join("decoy.csv"), &decoy_csv);
    let repo = Repository::from_dir(&unjoinable_dir).unwrap();
    assert!(discover_joins(&base, &repo, &DiscoveryConfig::default())
        .unwrap()
        .is_empty());
    let report = run(&base, &repo).unwrap();
    assert_eq!(report.joins_executed, 0);
    let coreset = arda::coreset::row_coreset(base.n_rows(), None, &CoresetSpec::default());
    let base_coreset = base.take(&coreset).unwrap();
    assert_eq!(report.augmented, base_coreset);
    let out = dir.join("unjoinable.csv");
    let (code, stderr) = cli(&base_path, &unjoinable_dir, &out);
    assert_eq!(code, Some(0), "no joinable table: {stderr}");
    let mut expected = Vec::new();
    arda::table::write_csv(&base_coreset, &mut expected).unwrap();
    assert_eq!(std::fs::read(&out).unwrap(), expected);

    std::fs::remove_dir_all(&dir).ok();
}
