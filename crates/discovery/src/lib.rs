//! # arda-discovery
//!
//! A join-discovery simulator standing in for Aurum / NYU Auctus.
//!
//! ARDA assumes "an external data discovery system automatically determines
//! a collection of candidate joins: columns in the base table that are
//! potentially foreign keys into another table" (§2), possibly *very noisy*
//! — most candidates are semantically meaningless. This crate reproduces
//! that artifact from a raw [`Repository`] of tables:
//!
//! * column-pair candidate mining with type-compatibility rules,
//! * value-overlap (intersection / Jaccard) scoring, with a bonus for
//!   matching column names,
//! * hard/soft key classification — timestamp-typed pairs and numeric pairs
//!   with range overlap but little exact-value overlap become *soft* keys
//!   (the weather-vs-taxi time-key situation), everything else *hard*,
//! * relevance-ranked output: a `Vec<CandidateJoin>` exactly like the input
//!   ARDA expects, including the ranking "ARDA can optionally make use of
//!   ... to prioritize its search" (§3).
//!
//! The repository itself — resident tables or lazily loaded `.csv` /
//! `.arda` shards behind a persistent catalog — is storage and lives in
//! `arda-table`; [`Repository`] is re-exported here because
//! [`discover_joins`] mines one. Mining only ever asks it for a table's
//! dtypes (when the manifest knows them) and its body.

use arda_join::stats::{key_set, match_stats};
pub use arda_table::Repository;
use arda_table::{Column, DataType, Key, Table, TableError};

/// Hard vs soft key classification of a candidate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KeyKind {
    /// Exact-equality joinable.
    Hard,
    /// Proximity-joinable (time, GPS, age, ...).
    Soft,
}

/// One discovered candidate join.
#[derive(Debug, Clone)]
pub struct CandidateJoin {
    /// Index of the foreign table in the repository.
    pub table_index: usize,
    /// Foreign table name.
    pub table_name: String,
    /// Base-table key column.
    pub base_key: String,
    /// Foreign-table key column.
    pub foreign_key: String,
    /// Hard or soft key.
    pub kind: KeyKind,
    /// Relevance score (higher = more promising).
    pub score: f64,
}

/// Discovery tuning knobs.
#[derive(Debug, Clone)]
pub struct DiscoveryConfig {
    /// Candidates scoring below this are dropped.
    pub min_score: f64,
    /// Keep at most this many candidates per foreign table (best first).
    pub max_candidates_per_table: usize,
    /// Emit soft-key candidates (numeric proximity joins).
    pub enable_soft_keys: bool,
    /// Name-match bonus added to the overlap score.
    pub name_bonus: f64,
}

impl Default for DiscoveryConfig {
    fn default() -> Self {
        DiscoveryConfig {
            min_score: 0.05,
            max_candidates_per_table: 2,
            enable_soft_keys: true,
            name_bonus: 0.25,
        }
    }
}

/// Column types that can key a join at all (floats of measurements are
/// excluded — joining on a measured value is meaningless).
fn keyable(dtype: DataType) -> bool {
    matches!(dtype, DataType::Int | DataType::Str | DataType::Timestamp)
}

fn compatible(a: DataType, b: DataType) -> bool {
    matches!(
        (a, b),
        (DataType::Str, DataType::Str)
            | (DataType::Int, DataType::Int)
            | (DataType::Timestamp, DataType::Timestamp)
            | (DataType::Timestamp, DataType::Int)
            | (DataType::Int, DataType::Timestamp)
    )
}

/// Numeric range overlap in `[0, 1]` (intersection over union of ranges).
fn range_overlap(base: &Table, bcol: &str, foreign: &Table, fcol: &str) -> f64 {
    let minmax = |t: &Table, c: &str| -> Option<(f64, f64)> {
        let col = t.column(c).ok()?;
        let mut lo = f64::INFINITY;
        let mut hi = f64::NEG_INFINITY;
        for i in 0..col.len() {
            if let Some(v) = col.get_f64(i) {
                lo = lo.min(v);
                hi = hi.max(v);
            }
        }
        if lo.is_finite() {
            Some((lo, hi))
        } else {
            None
        }
    };
    match (minmax(base, bcol), minmax(foreign, fcol)) {
        (Some((bl, bh)), Some((fl, fh))) => {
            let inter = (bh.min(fh) - bl.max(fl)).max(0.0);
            let union = (bh.max(fh) - bl.min(fl)).max(1e-12);
            inter / union
        }
        _ => 0.0,
    }
}

/// A keyable base column and its join keys, built once per
/// [`discover_joins`] and scored against every repository table.
type BaseKey<'a> = (&'a Column, Vec<Option<Key>>);

/// Mine and score every candidate of `base` against one repository table,
/// returning that table's best candidates (descending score, capped).
/// Each foreign column's key set is built once, and only when some base
/// key column can pair with it.
fn mine_table(
    base: &Table,
    base_keys: &[BaseKey],
    ti: usize,
    foreign: &Table,
    cfg: &DiscoveryConfig,
) -> Vec<CandidateJoin> {
    let foreign_keys: Vec<Option<Vec<Option<Key>>>> = foreign
        .columns()
        .iter()
        .map(|fcol| {
            base_keys
                .iter()
                .any(|(bcol, _)| compatible(bcol.dtype(), fcol.dtype()))
                .then(|| fcol.keys())
        })
        .collect();
    let foreign_sets: Vec<_> = foreign_keys
        .iter()
        .map(|keys| keys.as_deref().map(key_set))
        .collect();
    let mut per_table: Vec<CandidateJoin> = Vec::new();
    for (bcol, bkeys) in base_keys {
        for (fcol, fset) in foreign.columns().iter().zip(&foreign_sets) {
            let Some(fset) = fset else { continue };
            if !compatible(bcol.dtype(), fcol.dtype()) {
                continue;
            }
            let stats = match_stats(bkeys, fset);
            let exact = stats.intersection_score();
            let name_match = bcol.name().eq_ignore_ascii_case(fcol.name())
                || bcol
                    .name()
                    .to_lowercase()
                    .contains(&fcol.name().to_lowercase())
                || fcol
                    .name()
                    .to_lowercase()
                    .contains(&bcol.name().to_lowercase());

            let timey = bcol.dtype() == DataType::Timestamp || fcol.dtype() == DataType::Timestamp;
            let (kind, mut score) = if timey && cfg.enable_soft_keys {
                // Time keys: proximity matters more than exact equality.
                let overlap = range_overlap(base, bcol.name(), foreign, fcol.name());
                (KeyKind::Soft, overlap.max(exact))
            } else if exact <= 0.02
                && cfg.enable_soft_keys
                && bcol.dtype() == DataType::Int
                && fcol.dtype() == DataType::Int
            {
                // Near-zero exact overlap but overlapping ranges →
                // plausible soft key.
                let overlap = range_overlap(base, bcol.name(), foreign, fcol.name());
                if overlap > 0.3 {
                    (KeyKind::Soft, overlap * 0.5)
                } else {
                    (KeyKind::Hard, exact)
                }
            } else {
                (KeyKind::Hard, exact)
            };
            if name_match {
                score += cfg.name_bonus;
            }
            if score >= cfg.min_score {
                per_table.push(CandidateJoin {
                    table_index: ti,
                    table_name: foreign.name().to_string(),
                    base_key: bcol.name().to_string(),
                    foreign_key: fcol.name().to_string(),
                    kind,
                    score,
                });
            }
        }
    }
    per_table.sort_by(|a, b| b.score.total_cmp(&a.score));
    per_table.truncate(cfg.max_candidates_per_table);
    per_table
}

/// Mine, score and rank candidate joins of `base` against every repository
/// table. Results are sorted by descending score.
///
/// Each table's column-pair scoring (value-overlap statistics over every
/// compatible pair) is independent of every other table's, so the per-table
/// mining fans out on the ambient `arda-par` work budget; on a
/// directory-sharded repository each worker lazily loads (and, under a
/// cache bound, later evicts) its own shards concurrently. When the
/// manifest knows a shard's dtypes (`.arda` header or catalog), shards
/// with no column type-compatible with any keyable base column are
/// skipped **without loading** — exactly equivalent to mining them, since
/// such a table can contribute no candidate pair. The ordered results are
/// folded back in repository order before the global rank, so the
/// candidate list is identical to the sequential scan at any budget,
/// cache state, catalog state or load interleaving.
pub fn discover_joins(
    base: &Table,
    repo: &Repository,
    cfg: &DiscoveryConfig,
) -> Result<Vec<CandidateJoin>, TableError> {
    let base_keys: Vec<BaseKey> = base
        .columns()
        .iter()
        .filter(|c| keyable(c.dtype()))
        .map(|c| (c, c.keys()))
        .collect();
    let indices: Vec<usize> = (0..repo.len()).collect();
    let mined = arda_par::par_map(&indices, |_, &ti| {
        if let Some(dtypes) = repo.dtypes(ti) {
            let joinable = dtypes
                .iter()
                .any(|&fd| base_keys.iter().any(|(b, _)| compatible(b.dtype(), fd)));
            if !joinable {
                return Ok(Vec::new());
            }
        }
        let foreign = repo.table(ti)?;
        Ok(mine_table(base, &base_keys, ti, &foreign, cfg))
    });
    let mut all = Vec::new();
    for per_table in mined {
        all.extend(per_table?);
    }
    all.sort_by(|a, b| {
        b.score
            .total_cmp(&a.score)
            .then(a.table_index.cmp(&b.table_index))
    });
    Ok(all)
}

#[cfg(test)]
mod tests {
    use super::*;
    use arda_table::Column;

    fn base() -> Table {
        Table::new(
            "taxi",
            vec![
                Column::from_timestamps("date", (0..30).map(|i| i * 86_400).collect()),
                Column::from_str(
                    "borough",
                    (0..30)
                        .map(|i| ["bronx", "queens", "manhattan"][i % 3])
                        .collect(),
                ),
                Column::from_f64("trips", (0..30).map(|i| i as f64).collect()),
            ],
        )
        .unwrap()
    }

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

    #[test]
    fn finds_hard_and_soft_candidates() {
        let repo = Repository::from_tables(vec![weather(), population(), junk()]);
        let cands = discover_joins(&base(), &repo, &DiscoveryConfig::default()).unwrap();
        let names: Vec<&str> = cands.iter().map(|c| c.table_name.as_str()).collect();
        assert!(names.contains(&"weather"), "weather discovered: {names:?}");
        assert!(
            names.contains(&"population"),
            "population discovered: {names:?}"
        );
        assert!(!names.contains(&"junk"), "junk filtered: {names:?}");
        let w = cands.iter().find(|c| c.table_name == "weather").unwrap();
        assert_eq!(w.kind, KeyKind::Soft, "time keys are soft");
        let p = cands.iter().find(|c| c.table_name == "population").unwrap();
        assert_eq!(p.kind, KeyKind::Hard);
        assert_eq!(p.base_key, "borough");
    }

    #[test]
    fn hard_scores_equal_join_stats_per_pair() {
        // Keys built once per discovery and once per shard column must
        // score every pair as `join_stats` does on that pair alone. With
        // soft keys off, no name bonus and no floor, every compatible pair
        // is a candidate scored by its exact overlap.
        let base = Table::new(
            "base",
            vec![
                Column::from_i64("id", vec![1, 2, 3, 3, 7]),
                Column::from_str_opt(
                    "city",
                    [Some("a"), None, Some("b"), Some("c"), Some("a")]
                        .map(|v| v.map(String::from))
                        .to_vec(),
                ),
                Column::from_timestamps("t", vec![2, 4, 6, 8, 10]),
                Column::from_f64("y", vec![0.5; 5]),
            ],
        )
        .unwrap();
        let left = Table::new(
            "left",
            vec![
                Column::from_i64("k", vec![3, 7, 7, 9]),
                Column::from_str("name", vec!["b", "c", "z", "b"]),
                Column::from_timestamps("when", vec![4, 6, 100, 200]),
            ],
        )
        .unwrap();
        let right = Table::new(
            "right",
            vec![
                Column::from_str("city", vec!["a", "b"]),
                Column::from_i64("n", vec![2, 10]),
            ],
        )
        .unwrap();
        let repo = Repository::from_tables(vec![left.clone(), right.clone()]);
        let cfg = DiscoveryConfig {
            min_score: 0.0,
            max_candidates_per_table: usize::MAX,
            enable_soft_keys: false,
            name_bonus: 0.0,
        };
        let got = discover_joins(&base, &repo, &cfg).unwrap();
        let mut want = Vec::new();
        let tables = [left, right];
        for (ti, foreign) in tables.iter().enumerate() {
            let mut per_table = Vec::new();
            for bcol in base.columns().iter().filter(|c| keyable(c.dtype())) {
                for fcol in foreign.columns() {
                    if compatible(bcol.dtype(), fcol.dtype()) {
                        let stats = arda_join::stats::join_stats(
                            &base,
                            foreign,
                            &[bcol.name()],
                            &[fcol.name()],
                        )
                        .unwrap();
                        let score = stats.intersection_score();
                        per_table.push((ti, bcol.name(), fcol.name(), score.to_bits()));
                    }
                }
            }
            per_table.sort_by(|a, b| f64::from_bits(b.3).total_cmp(&f64::from_bits(a.3)));
            want.extend(per_table);
        }
        want.sort_by(|a, b| {
            f64::from_bits(b.3)
                .total_cmp(&f64::from_bits(a.3))
                .then(a.0.cmp(&b.0))
        });
        let got: Vec<_> = got
            .iter()
            .map(|c| {
                assert_eq!(c.kind, KeyKind::Hard);
                let (b, f) = (c.base_key.as_str(), c.foreign_key.as_str());
                (c.table_index, b, f, c.score.to_bits())
            })
            .collect();
        assert_eq!(got, want);
        assert_eq!(
            got.len(),
            8,
            "id×{{k, when}}, city×name, t×{{k, when}}; city×city, id×n, t×n"
        );
    }

    #[test]
    fn ranking_is_descending() {
        let repo = Repository::from_tables(vec![weather(), population()]);
        let cands = discover_joins(&base(), &repo, &DiscoveryConfig::default()).unwrap();
        for w in cands.windows(2) {
            assert!(w[0].score >= w[1].score);
        }
    }

    #[test]
    fn name_bonus_boosts_matching_columns() {
        let mut cfg = DiscoveryConfig {
            name_bonus: 0.0,
            ..Default::default()
        };
        let repo = Repository::from_tables(vec![population()]);
        let without = discover_joins(&base(), &repo, &cfg).unwrap();
        cfg.name_bonus = 0.5;
        let with = discover_joins(&base(), &repo, &cfg).unwrap();
        assert!(with[0].score > without[0].score + 0.4);
    }

    #[test]
    fn soft_keys_can_be_disabled() {
        let cfg = DiscoveryConfig {
            enable_soft_keys: false,
            ..Default::default()
        };
        let repo = Repository::from_tables(vec![weather()]);
        let cands = discover_joins(&base(), &repo, &cfg).unwrap();
        assert!(cands.iter().all(|c| c.kind == KeyKind::Hard));
    }

    #[test]
    fn measurement_floats_never_key() {
        let repo = Repository::from_tables(vec![weather()]);
        let cands = discover_joins(&base(), &repo, &DiscoveryConfig::default()).unwrap();
        assert!(cands
            .iter()
            .all(|c| c.base_key != "trips" && c.foreign_key != "temp"));
    }

    #[test]
    fn per_table_cap_respected() {
        let cfg = DiscoveryConfig {
            max_candidates_per_table: 1,
            ..Default::default()
        };
        let repo = Repository::from_tables(vec![weather(), population()]);
        let cands = discover_joins(&base(), &repo, &cfg).unwrap();
        for ti in [0usize, 1] {
            assert!(cands.iter().filter(|c| c.table_index == ti).count() <= 1);
        }
    }

    /// Write every table of an eager repository into `dir` as CSV shards.
    fn write_shards(dir: &std::path::Path, tables: &[Table]) {
        std::fs::create_dir_all(dir).unwrap();
        for t in tables {
            let f = std::fs::File::create(dir.join(format!("{}.csv", t.name()))).unwrap();
            arda_table::write_csv(t, f).unwrap();
        }
    }

    /// Candidates keyed without table indices, which differ between an
    /// eager repository and the same tables reloaded from a directory
    /// (`from_dir` orders shards by file name).
    fn index_free(cands: &[CandidateJoin]) -> Vec<(String, String, String, bool, u64)> {
        let mut k: Vec<_> = cands
            .iter()
            .map(|c| {
                (
                    c.table_name.clone(),
                    c.base_key.clone(),
                    c.foreign_key.clone(),
                    c.kind == KeyKind::Soft,
                    c.score.to_bits(),
                )
            })
            .collect();
        k.sort();
        k
    }

    #[test]
    fn sharded_discovery_matches_eager() {
        let dir = std::env::temp_dir().join(format!("arda_disc_eq_{}", std::process::id()));
        // Timestamps round-trip CSV via `@tick`, so reloaded shards equal
        // the originals; comparing against an eager repository built from
        // the reloaded tables keeps the test self-contained either way.
        write_shards(&dir, &[junk(), population(), weather()]);
        let sharded = Repository::from_dir(&dir).unwrap().with_cache_capacity(2);
        let eager = Repository::from_tables(
            (0..sharded.len())
                .map(|i| (*sharded.table(i).unwrap()).clone())
                .collect(),
        );

        let cfg = DiscoveryConfig::default();
        let a = discover_joins(&base(), &sharded, &cfg).unwrap();
        let b = discover_joins(&base(), &eager, &cfg).unwrap();
        let key = |cands: &[CandidateJoin]| {
            cands
                .iter()
                .map(|c| {
                    (
                        c.table_index,
                        c.table_name.clone(),
                        c.base_key.clone(),
                        c.foreign_key.clone(),
                        c.kind,
                        c.score.to_bits(),
                    )
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(key(&a), key(&b), "lazy shards mine identically");
        assert!(!a.is_empty(), "candidates found through sharded path");

        std::fs::remove_dir_all(&dir).ok();
    }

    /// With dtypes in the manifest, discovery skips shards that cannot
    /// key a join — without ever loading them. A float-only shard has no
    /// keyable column, so it stays on disk. The typed `.arda` shards keep
    /// every dtype (Timestamps included), so the loaded shards mine to
    /// bit-identical scores.
    #[test]
    fn dtype_aware_discovery_skips_unjoinable_shards() {
        let floats_only = Table::new(
            "sensors",
            vec![
                Column::from_f64("a", vec![0.1, 0.2]),
                Column::from_f64("b", vec![1.5, 2.5]),
            ],
        )
        .unwrap();
        let dir = std::env::temp_dir().join(format!("arda_disc_skip_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let eager = Repository::from_tables(vec![floats_only, population(), weather()]);
        eager.save_dir(&dir).unwrap();

        let repo = Repository::from_dir(&dir).unwrap();
        let cfg = DiscoveryConfig::default();
        let cands = discover_joins(&base(), &repo, &cfg).unwrap();
        assert!(cands.iter().any(|c| c.table_name == "population"));
        assert!(cands.iter().all(|c| c.table_name != "sensors"));
        assert_eq!(
            repo.resident_shards(),
            2,
            "the float-only shard was never loaded"
        );
        let from_memory = discover_joins(&base(), &eager, &cfg).unwrap();
        assert_eq!(index_free(&cands), index_free(&from_memory));

        std::fs::remove_dir_all(&dir).ok();
    }
}
