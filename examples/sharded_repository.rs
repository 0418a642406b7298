//! Directory-sharded repository: ARDA over a folder of shards, then the
//! same repository converted to the typed binary store and reloaded
//! through the persistent catalog.
//!
//! ARDA's repository is normally fed by a discovery system crawling
//! thousands of tables — far more than fit in memory at once. This example
//! writes a synthetic repository to disk as CSV shards, indexes it with
//! `Repository::from_dir` (a manifest scan that reads only headers), bounds
//! the lazy-load cache to two resident shards, and runs the full pipeline.
//! Each shard is read once and parsed — quote-aware, parallel on the work
//! budget — only when discovery or a join batch first touches it, and the
//! LRU bound evicts cold ones as mining moves on.
//!
//! It then converts the CSV shards to typed binary `.arda` shards with
//! `Repository::save_dir` — dtypes survive exactly, and the written
//! `_catalog.arda` means re-indexing the directory does **zero** header
//! reads — and reruns the pipeline over the binary store, checking the
//! result is bit-identical.
//!
//! Run with: `cargo run --release --example sharded_repository`

use arda::prelude::*;

fn main() {
    // The School scenario: base table + repository tables (funding,
    // demographics, decoys) with planted signal.
    let scenario = arda::synth::school(
        &ScenarioConfig {
            n_rows: 160,
            n_decoys: 4,
            seed: 11,
        },
        false,
    );

    // Write the repository to disk as one CSV shard per table — the form a
    // crawled data lake actually arrives in.
    let dir = std::env::temp_dir().join(format!("arda_sharded_example_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create shard dir");
    for table in &scenario.repository {
        let path = dir.join(format!("{}.csv", table.name()));
        let file = std::fs::File::create(&path).expect("create shard");
        arda::table::write_csv(table, file).expect("write shard");
    }

    // Manifest scan: headers only, nothing parsed yet. Cap residency at 2
    // loaded shards to demonstrate larger-than-memory repositories.
    let repo = Repository::from_dir(&dir)
        .expect("index shards")
        .with_cache_capacity(2);
    println!(
        "indexed {} shard(s) from {} — {} resident before any access",
        repo.len(),
        dir.display(),
        repo.resident_shards()
    );
    for i in 0..repo.len() {
        println!(
            "  shard {i}: {} ({} columns)",
            repo.name(i).unwrap(),
            repo.n_cols(i).unwrap()
        );
    }

    // Full pipeline: discovery lazily loads each shard as it mines.
    let config = ArdaConfig {
        selector: SelectorKind::Rifs(RifsConfig {
            repeats: 4,
            rf_trees: 10,
            ..Default::default()
        }),
        seed: 11,
        ..Default::default()
    };
    let report = Arda::new(config.clone())
        .run(&scenario.base, &repo, &scenario.target)
        .expect("pipeline");

    println!(
        "base {:.4} → augmented {:.4} ({:+.1}%), {} joins, {} shard(s) resident after run",
        report.base_score,
        report.augmented_score,
        report.improvement_pct(),
        report.joins_executed,
        repo.resident_shards()
    );
    for s in &report.selected {
        println!("  selected {} (from shard {})", s.column, s.table);
    }
    assert!(repo.resident_shards() <= 2, "LRU bound held during the run");

    // ---- Convert to the typed binary store + persistent catalog ---------
    // `save_dir` re-encodes every shard as a `.arda` binary columnar file
    // (all five dtypes survive bit-exactly — timestamps included, which
    // CSV only keeps via `@tick` text) and writes `_catalog.arda`.
    let bin_dir = dir.join("binary");
    repo.save_dir(&bin_dir)
        .expect("convert CSV shards to binary");

    // Re-indexing the converted directory is a pure catalog hit: the
    // manifest (names, widths, dtypes, row counts) loads without opening
    // a single shard.
    let bin_repo = Repository::from_dir(&bin_dir)
        .expect("index binary shards")
        .with_cache_capacity(2);
    println!(
        "reloaded {} binary shard(s) via catalog: hit={}, header reads={}",
        bin_repo.len(),
        bin_repo.catalog_hit(),
        bin_repo.header_scans()
    );
    assert!(bin_repo.catalog_hit(), "catalog satisfied the manifest");
    assert_eq!(bin_repo.header_scans(), 0, "zero per-shard header reads");

    let report_bin = Arda::new(config)
        .run(&scenario.base, &bin_repo, &scenario.target)
        .expect("pipeline over binary store");
    println!(
        "binary store rerun: base {:.4} → augmented {:.4} ({:+.1}%)",
        report_bin.base_score,
        report_bin.augmented_score,
        report_bin.improvement_pct()
    );
    assert_eq!(
        report.augmented_score.to_bits(),
        report_bin.augmented_score.to_bits(),
        "CSV and binary stores drive bit-identical pipelines"
    );

    std::fs::remove_dir_all(&dir).ok();
}
