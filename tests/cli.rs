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
    let cases: Vec<(&str, String, &str)> = vec![
        (
            "constant regression target",
            base_csv(40, &|_| "1.5".into()),
            few_values,
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
