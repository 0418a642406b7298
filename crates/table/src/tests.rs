//! Tests of the data [`Repository`]: lazy LRU shard loads, mixed `.csv` /
//! `.arda` directories, the `_catalog.arda` warm/cold contract and
//! `save_dir`.

use crate::csv::read_csv_header;
use crate::repository::CATALOG_FILE;
use crate::store::write_arda_file;
use crate::{read_csv, write_arda, write_csv, Column, DataType, Repository, Table};
use std::path::{Path, PathBuf};
use std::sync::Arc;

fn weather() -> Table {
    Table::new(
        "weather",
        vec![
            Column::from_timestamps("date", (0..720).map(|i| i * 3_600).collect()),
            Column::from_f64("temp", (0..720).map(|i| (i % 24) as f64).collect()),
        ],
    )
    .unwrap()
}

fn population() -> Table {
    Table::new(
        "population",
        vec![
            Column::from_str("borough", vec!["bronx", "queens", "manhattan", "brooklyn"]),
            Column::from_f64("pop", vec![1.4, 2.3, 1.6, 2.6]),
        ],
    )
    .unwrap()
}

fn junk() -> Table {
    Table::new(
        "junk",
        vec![
            Column::from_str("code", vec!["zz1", "zz2"]),
            Column::from_f64("x", vec![0.0, 1.0]),
        ],
    )
    .unwrap()
}

/// A fresh per-process scratch directory for one test.
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("arda_repo_{tag}_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

/// Write every table into `dir` as CSV shards.
fn write_shards(dir: &Path, tables: &[Table]) {
    std::fs::create_dir_all(dir).unwrap();
    for t in tables {
        let f = std::fs::File::create(dir.join(format!("{}.csv", t.name()))).unwrap();
        write_csv(t, f).unwrap();
    }
}

/// Encode a table's shard bytes (bit-exact comparison helper).
fn arda_bytes(t: &Table) -> Vec<u8> {
    let mut buf = Vec::new();
    write_arda(t, &mut buf).unwrap();
    buf
}

#[test]
fn repository_basics() {
    assert!(Repository::from_tables(Vec::new()).is_empty());
    let repo = Repository::from_tables(vec![junk()]);
    assert_eq!(repo.len(), 1);
    assert_eq!(repo.table(0).unwrap().name(), "junk");
    assert_eq!(repo.name(0), Some("junk"));
    assert_eq!(repo.n_cols(0), Some(2));
    assert_eq!(repo.name(9), None);
    assert!(repo.table(9).is_err());
}

#[test]
fn sharded_repository_loads_lazily_and_evicts() {
    let dir = scratch("shards");
    write_shards(&dir, &[junk(), population(), weather()]);

    let repo = Repository::from_dir(&dir).unwrap().with_cache_capacity(1);
    // Manifest only: sorted by file name, metadata available, nothing
    // loaded yet.
    assert_eq!(repo.len(), 3);
    assert_eq!(repo.name(0), Some("junk"));
    assert_eq!(repo.name(1), Some("population"));
    assert_eq!(repo.name(2), Some("weather"));
    assert_eq!(repo.n_cols(1), Some(2));
    assert_eq!(repo.resident_shards(), 0, "manifest scan loads nothing");

    // Loads on demand; the cache bound evicts the least recent shard.
    let pop = repo.table(1).unwrap();
    assert_eq!(pop.name(), "population");
    assert_eq!(pop.n_rows(), 4);
    assert_eq!(repo.resident_shards(), 1);
    let w = repo.table(2).unwrap();
    assert_eq!(w.n_rows(), 720);
    assert_eq!(repo.resident_shards(), 1, "capacity 1 evicted population");
    // The evicted Arc stays usable.
    assert_eq!(pop.column("borough").unwrap().len(), 4);

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn from_dir_missing_and_empty() {
    assert!(Repository::from_dir("/definitely/not/a/dir").is_err());
    let dir = scratch("empty");
    std::fs::create_dir_all(&dir).unwrap();
    let repo = Repository::from_dir(&dir).unwrap();
    assert!(repo.is_empty());
    std::fs::remove_dir_all(&dir).ok();
}

/// `.csv` and `.arda` shards mix behind one manifest; the binary shards
/// expose dtypes without loading.
#[test]
fn mixed_format_directory() {
    let dir = scratch("mixed");
    write_shards(&dir, &[population()]);
    write_arda_file(&weather(), dir.join("weather.arda")).unwrap();

    let repo = Repository::from_dir(&dir).unwrap();
    assert_eq!(repo.len(), 2);
    assert_eq!(repo.name(0), Some("population"));
    assert_eq!(repo.name(1), Some("weather"));
    // CSV shard: width known, dtypes unknown until parse.
    assert_eq!(repo.n_cols(0), Some(2));
    assert_eq!(repo.dtypes(0), None);
    // Binary shard: full schema from the header, nothing loaded.
    assert_eq!(repo.n_cols(1), Some(2));
    assert_eq!(
        repo.dtypes(1),
        Some(vec![DataType::Timestamp, DataType::Float])
    );
    assert_eq!(repo.resident_shards(), 0, "manifest scan loads nothing");

    // Both formats load to the expected tables; the binary one is
    // bit-identical to the original (dtypes included).
    assert_eq!(repo.table(0).unwrap().n_rows(), 4);
    assert_eq!(arda_bytes(&repo.table(1).unwrap()), arda_bytes(&weather()));

    std::fs::remove_dir_all(&dir).ok();
}

/// The acceptance-criterion pair: a cold scan reads one header per shard
/// and writes `_catalog.arda`; an unchanged directory then rebuilds the
/// manifest with **zero** per-shard header reads.
#[test]
fn warm_catalog_skips_all_header_reads() {
    let dir = scratch("warm");
    write_shards(&dir, &[junk(), population()]);
    write_arda_file(&weather(), dir.join("weather.arda")).unwrap();

    let cold = Repository::from_dir(&dir).unwrap();
    assert!(!cold.catalog_hit());
    assert_eq!(cold.header_scans(), 3, "one header read per shard");
    assert!(dir.join(CATALOG_FILE).exists(), "catalog persisted");

    let warm = Repository::from_dir(&dir).unwrap();
    assert!(warm.catalog_hit(), "unchanged directory hits the catalog");
    assert_eq!(warm.header_scans(), 0, "zero per-shard header reads");
    // The catalog-built manifest is identical to the scanned one.
    assert_eq!(warm.len(), cold.len());
    for i in 0..warm.len() {
        assert_eq!(warm.name(i), cold.name(i));
        assert_eq!(warm.n_cols(i), cold.n_cols(i));
        assert_eq!(warm.dtypes(i), cold.dtypes(i));
    }
    // And shards still load correctly through it.
    assert_eq!(arda_bytes(&warm.table(2).unwrap()), arda_bytes(&weather()));

    std::fs::remove_dir_all(&dir).ok();
}

/// Any modification — changed bytes, added shard, removed shard —
/// invalidates the catalog: the next scan is cold (and correct), and the
/// rewritten catalog makes the scan after it warm again.
#[test]
fn stale_catalog_forces_rescan() {
    let dir = scratch("stale");
    write_shards(&dir, &[junk(), population()]);
    assert!(!Repository::from_dir(&dir).unwrap().catalog_hit());
    assert!(Repository::from_dir(&dir).unwrap().catalog_hit());

    // Modify a shard (different size guarantees the pair changes even on
    // coarse-mtime filesystems).
    let bigger = Table::new(
        "junk",
        vec![
            Column::from_str("code", vec!["zz1", "zz2", "zz3"]),
            Column::from_f64("x", vec![0.0, 1.0, 2.0]),
        ],
    )
    .unwrap();
    write_shards(&dir, &[bigger]);
    let repo = Repository::from_dir(&dir).unwrap();
    assert!(!repo.catalog_hit(), "modified shard invalidates");
    assert_eq!(repo.header_scans(), 2);
    assert_eq!(repo.table(0).unwrap().n_rows(), 3, "fresh data served");
    assert!(Repository::from_dir(&dir).unwrap().catalog_hit());

    // Added shard invalidates.
    write_arda_file(&weather(), dir.join("weather.arda")).unwrap();
    assert!(!Repository::from_dir(&dir).unwrap().catalog_hit());
    assert!(Repository::from_dir(&dir).unwrap().catalog_hit());

    // Removed shard invalidates.
    std::fs::remove_file(dir.join("population.csv")).unwrap();
    let repo = Repository::from_dir(&dir).unwrap();
    assert!(!repo.catalog_hit());
    assert_eq!(repo.len(), 2);

    // A corrupt catalog is a cold scan, never an error.
    std::fs::write(dir.join(CATALOG_FILE), b"garbage").unwrap();
    let repo = Repository::from_dir(&dir).unwrap();
    assert!(!repo.catalog_hit());
    assert_eq!(repo.len(), 2);

    std::fs::remove_dir_all(&dir).ok();
}

/// `save_dir` → `from_dir` preserves every dtype bit-exactly — including
/// `Timestamp`, which CSV cannot carry — and the saved directory is born
/// warm (its catalog was written by `save_dir` itself).
#[test]
fn save_dir_round_trips_timestamps_bit_exactly() {
    let tables = [weather(), population(), junk()];
    let src = Repository::from_tables(tables.to_vec());
    let dir = scratch("save");
    src.save_dir(&dir).unwrap();

    let back = Repository::from_dir(&dir).unwrap();
    assert!(back.catalog_hit(), "save_dir writes the catalog");
    assert_eq!(back.header_scans(), 0);
    assert_eq!(back.len(), 3);
    // from_dir sorts by file name: junk, population, weather.
    let by_name = |name: &str| -> Arc<Table> {
        (0..back.len())
            .find(|&i| back.name(i) == Some(name))
            .map(|i| back.table(i).unwrap())
            .unwrap()
    };
    for t in &tables {
        let reloaded = by_name(t.name());
        assert_eq!(
            arda_bytes(&reloaded),
            arda_bytes(t),
            "{} round-trips bit-exactly",
            t.name()
        );
    }
    assert_eq!(
        by_name("weather").column("date").unwrap().dtype(),
        DataType::Timestamp,
        "dtypes survive storage"
    );

    std::fs::remove_dir_all(&dir).ok();
}

/// `save_dir` never lets one shard overwrite another: duplicate table
/// names, names that collide with a `<dup>_<i>` fallback, and even a table
/// named `_catalog` all land in distinct files, and every table survives
/// the round-trip.
#[test]
fn save_dir_resolves_hostile_name_collisions() {
    let t = |name: &str, v: i64| Table::new(name, vec![Column::from_i64("k", vec![v])]).unwrap();
    // Index 2's duplicate "a" falls back to "a_2.arda", which must not
    // clobber table "a_2"; "_catalog" must not clobber the catalog file
    // itself; path-separator and ".." names must stay inside the
    // directory.
    let src = Repository::from_tables(vec![
        t("a", 0),
        t("a_2", 1),
        t("a", 2),
        t("_catalog", 3),
        t("../escape", 4),
        t("..", 5),
    ]);
    let dir = scratch("names");
    src.save_dir(&dir).unwrap();
    assert!(
        !dir.parent().unwrap().join("escape.arda").exists(),
        "no shard escaped the target directory"
    );

    let back = Repository::from_dir(&dir).unwrap();
    assert!(back.catalog_hit(), "catalog survived the hostile names");
    assert_eq!(back.len(), 6, "no shard was overwritten");
    let mut values: Vec<i64> = (0..back.len())
        .map(|i| {
            back.table(i)
                .unwrap()
                .column("k")
                .unwrap()
                .get(0)
                .as_i64()
                .unwrap()
        })
        .collect();
    values.sort_unstable();
    assert_eq!(
        values,
        vec![0, 1, 2, 3, 4, 5],
        "every table's data survived"
    );

    std::fs::remove_dir_all(&dir).ok();
}

/// A second `save_dir` into the same directory removes the previous save's
/// shard files: the directory mirrors the repository exactly, so
/// `from_dir` can never serve phantom tables from an earlier save.
#[test]
fn save_dir_removes_stale_shards_from_earlier_saves() {
    let dir = scratch("resave");
    Repository::from_tables(vec![junk(), weather()])
        .save_dir(&dir)
        .unwrap();
    assert!(dir.join("weather.arda").exists());
    // A user file the catalog never recorded must survive the resave.
    std::fs::write(dir.join("user_data.csv"), "k,v\n1,2\n").unwrap();

    Repository::from_tables(vec![population()])
        .save_dir(&dir)
        .unwrap();
    assert!(!dir.join("junk.arda").exists(), "stale shard removed");
    assert!(!dir.join("weather.arda").exists(), "stale shard removed");
    assert!(
        dir.join("user_data.csv").exists(),
        "cleanup never touches files outside the previous catalog"
    );
    let back = Repository::from_dir(&dir).unwrap();
    assert_eq!(back.len(), 2, "population shard + the user's CSV");
    assert_eq!(back.name(0), Some("population"));
    assert_eq!(back.name(1), Some("user_data"));

    std::fs::remove_dir_all(&dir).ok();
}

/// Saving a CSV directory's tables into that same directory puts
/// `weather.arda` beside `weather.csv`; indexing it again is an error that
/// names both files rather than two tables called `weather`.
#[test]
fn from_dir_rejects_two_shards_with_one_stem() {
    let dir = scratch("stem");
    write_shards(&dir, &[weather()]);
    Repository::from_dir(&dir).unwrap().save_dir(&dir).unwrap();
    let err = Repository::from_dir(&dir).unwrap_err().to_string();
    for file in ["weather.arda", "weather.csv"] {
        assert!(err.contains(file), "{err}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// CSV shard edge cases through the header scan, the one-read
/// [`read_csv`] and [`Repository::from_dir`]: header shapes the scan must
/// read whole, an empty file, and non-UTF-8 bytes in the body (which the
/// header scan never reads) and in the header. A failing shard's error
/// names its path once.
#[test]
fn csv_shard_header_and_read_edge_cases() {
    let dir = scratch("csv_edges");
    std::fs::create_dir_all(&dir).unwrap();
    let shapes: [(&str, &str, [&str; 2]); 3] = [
        (
            "a_quoted_newline",
            "\"multi\nline\",v\n1,2\n",
            ["multi\nline", "v"],
        ),
        ("b_crlf", "k,\"v,w\"\r\n1,2\r\n", ["k", "v,w"]),
        ("c_no_trailing_newline", "k,v", ["k", "v"]),
    ];
    for (name, text, names) in shapes {
        let path = dir.join(format!("{name}.csv"));
        std::fs::write(&path, text).unwrap();
        assert_eq!(read_csv_header(&path).unwrap(), names, "{name}");
        let t = read_csv(&path).unwrap();
        assert_eq!(t.schema().names(), names, "{name}");
        assert_eq!(t.n_rows(), usize::from(name != "c_no_trailing_newline"));
    }
    let repo = Repository::from_dir(&dir).unwrap();
    assert_eq!(repo.len(), 3);
    for i in 0..3 {
        assert_eq!(repo.n_cols(i), Some(2));
        assert_eq!(repo.table(i).unwrap().n_cols(), 2);
    }

    let shard_error =
        |path: &Path, msg: &str| format!("csv error: shard {}: {msg}", path.display());

    let empty = dir.join("d_empty.csv");
    std::fs::write(&empty, "").unwrap();
    for err in [
        read_csv_header(&empty).unwrap_err(),
        read_csv(&empty).unwrap_err(),
    ] {
        assert_eq!(err.to_string(), "csv error: empty input");
    }
    let err = Repository::from_dir(&dir).unwrap_err().to_string();
    assert_eq!(err, shard_error(&empty, "empty input"));
    std::fs::remove_file(&empty).unwrap();

    // Latin-1 bytes in the body: the header scan succeeds, the load fails.
    let body = dir.join("e_latin1_body.csv");
    std::fs::write(&body, b"k,v\n1,caf\xe9\n").unwrap();
    assert_eq!(read_csv_header(&body).unwrap(), ["k", "v"]);
    let repo = Repository::from_dir(&dir).unwrap();
    let err = repo.table(3).unwrap_err().to_string();
    assert_eq!(err, shard_error(&body, "input is not valid UTF-8"));
    assert_eq!(err.matches(&*body.display().to_string()).count(), 1);

    // In the header, the scan itself fails with the same message.
    let head = dir.join("f_latin1_header.csv");
    std::fs::write(&head, b"k,caf\xe9\n1,2\n").unwrap();
    let err = Repository::from_dir(&dir).unwrap_err().to_string();
    assert_eq!(err, shard_error(&head, "input is not valid UTF-8"));

    std::fs::remove_dir_all(&dir).ok();
}
