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
//! ## Sharded repositories
//!
//! A [`Repository`] is a pool of candidate tables addressed by index. Two
//! backing stores coexist behind one API:
//!
//! * **eager** — the original `Vec<Table>` path ([`Repository::from_tables`]
//!   / [`Repository::add`]), every table resident up front;
//! * **directory-sharded** — [`Repository::from_dir`] scans a directory of
//!   shards into a *manifest* (name, path, column count and — when the
//!   format records them — dtypes and row count per shard) and each shard
//!   is parsed lazily on first [`Repository::table`] access. Loaded shards
//!   are cached as [`Arc<Table>`] behind an LRU bound
//!   ([`Repository::with_cache_capacity`]), so repositories far larger
//!   than memory can be mined; eviction only drops the cache's reference,
//!   never a table a caller still holds.
//!
//! Two shard formats mix freely behind one manifest:
//!
//! * `*.csv` — header-only scan via [`arda_table::read_csv_header`]
//!   (names/width known, dtypes/rows unknown until a full parse), bodies
//!   streamed in by the budget-parallel CSV engine;
//! * `*.arda` — the typed binary columnar store: the header scan
//!   ([`arda_table::read_arda_header`]) also yields exact dtypes and row
//!   counts, so planning can be dtype-aware without loading anything, and
//!   every [`arda_table::DataType`] (Timestamps included) survives
//!   persistence bit-exactly. [`Repository::save_dir`] converts any
//!   repository into this form.
//!
//! ## The persistent catalog (`_catalog.arda`)
//!
//! A cold `from_dir` opens every shard for its header. To make warm runs
//! free, the manifest is persisted as `_catalog.arda` in the shard
//! directory — itself an `.arda` table with one row per shard: file name,
//! width, dtypes, row count, and the file's `(mtime_ns, size)` at scan
//! time. Invalidation rules:
//!
//! * the catalog is used **only** when it covers *exactly* the directory's
//!   current shard set and every shard's `(mtime_ns, size)` matches the
//!   recorded pair — then `from_dir` performs **zero** per-shard header
//!   reads ([`Repository::header_scans`] returns 0 and
//!   [`Repository::catalog_hit`] is true);
//! * any added, removed or modified shard invalidates the whole catalog:
//!   `from_dir` falls back to a full header scan and atomically rewrites
//!   `_catalog.arda` (temp file + rename), so a torn write can never be
//!   read back;
//! * a missing, unreadable or malformed catalog is simply a cold scan —
//!   never an error — and catalog *writing* is best-effort (a read-only
//!   shard directory still works, it is just always cold).
//!
//! The manifest is sorted by file name, and a reloaded shard parses to the
//! exact same table, so discovery and the downstream pipeline are
//! deterministic regardless of cache hits, evictions, catalog hits or
//! load order.

use arda_join::stats::join_stats;
use arda_table::{Column, CsvReadOptions, DataType, Table, TableError};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

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

/// One entry of a repository: either a resident table or a shard on disk,
/// loaded on demand.
#[derive(Debug, Clone)]
enum Source {
    Mem(Arc<Table>),
    Disk(ShardMeta),
}

/// On-disk shard encoding.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ShardFormat {
    /// Text shard parsed by the streaming CSV engine.
    Csv,
    /// Typed binary columnar shard (`arda_table::store`).
    Arda,
}

impl ShardFormat {
    fn from_path(path: &Path) -> Option<ShardFormat> {
        match path.extension().and_then(|e| e.to_str()) {
            Some("csv") => Some(ShardFormat::Csv),
            Some("arda") => Some(ShardFormat::Arda),
            _ => None,
        }
    }
}

/// Manifest entry for one on-disk shard (CSV or binary). The catalog
/// fields are embedded as one [`CatalogEntry`], so the warm path, the
/// cold path and the catalog rewrite all share a single source of truth.
#[derive(Debug, Clone)]
struct ShardMeta {
    name: String,
    path: PathBuf,
    format: ShardFormat,
    entry: CatalogEntry,
}

/// `(mtime_ns, size)` of a file; mtime falls back to 0 on filesystems
/// that cannot report one (such a shard then never catalog-validates as
/// fresh against a different size, but same-size rewrites go unseen —
/// the documented, degraded-but-safe-enough fallback).
fn stat_pair(path: &Path) -> Result<(i64, u64), TableError> {
    let md = std::fs::metadata(path)
        .map_err(|e| TableError::Store(format!("cannot stat {}: {e}", path.display())))?;
    let mtime_ns = md
        .modified()
        .ok()
        .and_then(|t| t.duration_since(std::time::UNIX_EPOCH).ok())
        .map(|d| d.as_nanos().min(i64::MAX as u128) as i64)
        .unwrap_or(0);
    Ok((mtime_ns, md.len()))
}

fn file_stem(path: &Path) -> String {
    path.file_stem()
        .and_then(|s| s.to_str())
        .unwrap_or("table")
        .to_string()
}

/// Make a table name safe to use as a shard file stem: path separators
/// and NUL become `_`, and stems that would escape or hide the file
/// (`..`, `.`, empty, leading `.`) fall back to a plain name. Keeps
/// `save_dir` writing strictly inside its target directory no matter
/// what a repository's tables are called.
fn sanitize_stem(name: &str) -> String {
    let cleaned: String = name
        .chars()
        .map(|c| match c {
            '/' | '\\' | '\0' => '_',
            c => c,
        })
        .collect();
    match cleaned.as_str() {
        "" | "." | ".." => "table".to_string(),
        s if s.starts_with('.') => format!("table{s}"),
        _ => cleaned,
    }
}

/// Name of the persistent shard-metadata catalog inside a shard
/// directory. Never listed as a shard itself.
pub const CATALOG_FILE: &str = "_catalog.arda";

/// One catalog row: everything the manifest scan would have learned about
/// a shard, plus the freshness pair.
#[derive(Debug, Clone)]
struct CatalogEntry {
    /// File name within the shard directory (the catalog key).
    file_name: String,
    n_cols: usize,
    /// Exact row count — known for `.arda` shards, unknown for CSV until
    /// a full parse.
    n_rows: Option<usize>,
    /// Exact column dtypes — known for `.arda` shards only.
    dtypes: Option<Vec<DataType>>,
    /// File modification time (ns since epoch) and byte size at scan
    /// time; the catalog invalidation pair.
    mtime_ns: i64,
    size: u64,
}

/// Read and decode `_catalog.arda`. Any failure — missing file, corrupt
/// bytes, unexpected schema, malformed dtype strings — yields `None`: a
/// bad catalog is a cold scan, never an error.
fn read_catalog(dir: &Path) -> Option<HashMap<String, CatalogEntry>> {
    let table = arda_table::read_arda(dir.join(CATALOG_FILE)).ok()?;
    let file = table.column("file").ok()?;
    let n_cols = table.column("n_cols").ok()?;
    let n_rows = table.column("n_rows").ok()?;
    let dtypes = table.column("dtypes").ok()?;
    let mtime_ns = table.column("mtime_ns").ok()?;
    let size = table.column("size").ok()?;
    let mut out = HashMap::with_capacity(table.n_rows());
    for i in 0..table.n_rows() {
        let file_name = file.get(i).as_str()?.to_string();
        // "?" = dtypes unknown (CSV shard); "" = known zero-column
        // schema; otherwise a comma-joined dtype list — so a warm
        // manifest reproduces the cold scan exactly, empty schemas
        // included.
        let dtypes = match dtypes.get(i).as_str()? {
            "?" => None,
            "" => Some(Vec::new()),
            joined => Some(
                joined
                    .split(',')
                    .map(|s| s.parse::<DataType>().ok())
                    .collect::<Option<Vec<_>>>()?,
            ),
        };
        let rows = n_rows.get(i).as_i64()?;
        out.insert(
            file_name.clone(),
            CatalogEntry {
                file_name,
                n_cols: usize::try_from(n_cols.get(i).as_i64()?).ok()?,
                n_rows: usize::try_from(rows).ok(),
                dtypes,
                mtime_ns: mtime_ns.get(i).as_i64()?,
                size: u64::try_from(size.get(i).as_i64()?).ok()?,
            },
        );
    }
    Some(out)
}

/// Serial number for catalog temp files, so concurrent writers in one
/// process never collide.
static CATALOG_TMP_SEQ: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);

/// Atomically (re)write `_catalog.arda`: encode to a temp file in the
/// same directory, then rename over the target, so a concurrent
/// [`read_catalog`] sees either the old or the new catalog — never a
/// torn one.
fn write_catalog(dir: &Path, entries: Vec<CatalogEntry>) -> Result<(), TableError> {
    let join_dtypes = |d: &Option<Vec<DataType>>| -> String {
        d.as_ref().map_or("?".to_string(), |v| {
            v.iter()
                .map(|t| t.to_string())
                .collect::<Vec<_>>()
                .join(",")
        })
    };
    let table = Table::new(
        "_catalog",
        vec![
            Column::from_strings(
                "file",
                entries.iter().map(|e| e.file_name.clone()).collect(),
            ),
            Column::from_i64("n_cols", entries.iter().map(|e| e.n_cols as i64).collect()),
            Column::from_i64(
                "n_rows",
                entries
                    .iter()
                    .map(|e| e.n_rows.map_or(-1, |n| n as i64))
                    .collect(),
            ),
            Column::from_strings(
                "dtypes",
                entries.iter().map(|e| join_dtypes(&e.dtypes)).collect(),
            ),
            Column::from_i64("mtime_ns", entries.iter().map(|e| e.mtime_ns).collect()),
            Column::from_i64("size", entries.iter().map(|e| e.size as i64).collect()),
        ],
    )?;
    let seq = CATALOG_TMP_SEQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    let tmp = dir.join(format!(".{CATALOG_FILE}.tmp-{}-{seq}", std::process::id()));
    if let Err(e) = arda_table::write_arda_file(&table, &tmp) {
        let _ = std::fs::remove_file(&tmp); // no stray temp on a failed write
        return Err(e);
    }
    std::fs::rename(&tmp, dir.join(CATALOG_FILE)).map_err(|e| {
        let _ = std::fs::remove_file(&tmp);
        TableError::Store(format!("cannot publish {CATALOG_FILE}: {e}"))
    })
}

/// LRU cache of lazily loaded shards, keyed by repository index.
#[derive(Debug, Default)]
struct ShardCache {
    loaded: HashMap<usize, Arc<Table>>,
    /// Access order, most recent last.
    lru: Vec<usize>,
}

impl ShardCache {
    fn touch(&mut self, index: usize) {
        self.lru.retain(|&i| i != index);
        self.lru.push(index);
    }

    fn evict_to(&mut self, capacity: usize) {
        while self.loaded.len() > capacity.max(1) {
            let oldest = self.lru.remove(0);
            self.loaded.remove(&oldest);
        }
    }
}

/// A pool of candidate tables (the "data repository" of Figure 1),
/// addressed by index. See the crate docs for the eager vs
/// directory-sharded backing stores.
#[derive(Debug, Clone)]
pub struct Repository {
    sources: Vec<Source>,
    cache: Arc<Mutex<ShardCache>>,
    /// Max shards resident in the cache (`usize::MAX` = unbounded).
    cache_capacity: usize,
    read_opts: CsvReadOptions,
    /// Per-shard header reads the constructing manifest scan performed
    /// (0 on a catalog hit or an eager repository).
    header_scans: usize,
    /// True when `from_dir` satisfied the whole manifest from a fresh
    /// `_catalog.arda`.
    catalog_hit: bool,
}

impl Default for Repository {
    fn default() -> Self {
        Repository::new()
    }
}

impl Repository {
    /// Empty repository.
    pub fn new() -> Self {
        Repository {
            sources: Vec::new(),
            cache: Arc::new(Mutex::new(ShardCache::default())),
            cache_capacity: usize::MAX,
            read_opts: CsvReadOptions::default(),
            header_scans: 0,
            catalog_hit: false,
        }
    }

    /// Build from resident tables (the eager path).
    pub fn from_tables(tables: Vec<Table>) -> Self {
        let mut repo = Repository::new();
        for t in tables {
            repo.sources.push(Source::Mem(Arc::new(t)));
        }
        repo
    }

    /// Build a directory-sharded repository: every `*.csv` and `*.arda`
    /// file directly in `dir` becomes one shard, named after its file stem
    /// and sorted by file name for determinism. Only headers are read here
    /// (the manifest scan) — and not even those when a fresh
    /// `_catalog.arda` covers the directory (see the crate docs for the
    /// invalidation rules). Table bodies are parsed lazily by
    /// [`Self::table`].
    pub fn from_dir(dir: impl AsRef<Path>) -> Result<Self, TableError> {
        Repository::from_dir_with(dir, &CsvReadOptions::default())
    }

    /// [`Self::from_dir`] with explicit streaming-read options for the
    /// lazy CSV shard loads.
    pub fn from_dir_with(dir: impl AsRef<Path>, opts: &CsvReadOptions) -> Result<Self, TableError> {
        let dir = dir.as_ref();
        let entries = std::fs::read_dir(dir).map_err(|e| {
            TableError::Csv(format!("cannot read repository dir {}: {e}", dir.display()))
        })?;
        let mut paths: Vec<(PathBuf, ShardFormat)> = Vec::new();
        for entry in entries {
            let path = entry.map_err(|e| TableError::Csv(e.to_string()))?.path();
            if !path.is_file() || path.file_name().and_then(|n| n.to_str()) == Some(CATALOG_FILE) {
                continue;
            }
            if let Some(format) = ShardFormat::from_path(&path) {
                paths.push((path, format));
            }
        }
        paths.sort_by(|a, b| a.0.cmp(&b.0));

        let mut repo = Repository::new();
        repo.read_opts = opts.clone();

        // Stat every shard up front: the pairs both validate the catalog
        // and (on a cold scan) become the next catalog's contents.
        let mut stats = Vec::with_capacity(paths.len());
        for (path, _) in &paths {
            stats.push(stat_pair(path)?);
        }

        // Warm path: a catalog that covers exactly this file set with
        // matching (mtime_ns, size) pairs supplies the whole manifest.
        if let Some(catalog) = read_catalog(dir) {
            if paths.len() == catalog.len() {
                let fresh = paths.iter().zip(&stats).all(|((path, _), &(mtime, size))| {
                    path.file_name()
                        .and_then(|n| n.to_str())
                        .and_then(|n| catalog.get(n))
                        .is_some_and(|e| e.mtime_ns == mtime && e.size == size)
                });
                if fresh {
                    for (path, format) in &paths {
                        let file_name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
                        repo.sources.push(Source::Disk(ShardMeta {
                            name: file_stem(path),
                            path: path.clone(),
                            format: *format,
                            entry: catalog[file_name].clone(),
                        }));
                    }
                    repo.catalog_hit = true;
                    return Ok(repo);
                }
            }
        }

        // Cold path: open every shard for its header, then persist what
        // was learned so the next scan is free.
        for ((path, format), (mtime_ns, size)) in paths.iter().zip(&stats) {
            let (n_cols, n_rows, dtypes) = match format {
                ShardFormat::Csv => {
                    let names = arda_table::read_csv_header(path)
                        .map_err(|e| TableError::Csv(format!("shard {}: {e}", path.display())))?;
                    (names.len(), None, None)
                }
                ShardFormat::Arda => {
                    let header = arda_table::read_arda_header(path)
                        .map_err(|e| TableError::Store(format!("shard {}: {e}", path.display())))?;
                    let dtypes: Vec<DataType> =
                        header.schema.fields().iter().map(|f| f.dtype).collect();
                    (header.schema.len(), Some(header.n_rows), Some(dtypes))
                }
            };
            repo.header_scans += 1;
            repo.sources.push(Source::Disk(ShardMeta {
                name: file_stem(path),
                path: path.clone(),
                format: *format,
                entry: CatalogEntry {
                    file_name: path
                        .file_name()
                        .and_then(|n| n.to_str())
                        .unwrap_or("")
                        .to_string(),
                    n_cols,
                    n_rows,
                    dtypes,
                    mtime_ns: *mtime_ns,
                    size: *size,
                },
            }));
        }
        if !repo.sources.is_empty() {
            // Best-effort: a read-only directory still works, just cold.
            let _ = write_catalog(dir, repo.disk_metas());
        }
        Ok(repo)
    }

    /// Persist every table of this repository into `dir` as typed binary
    /// `.arda` shards plus a fresh `_catalog.arda`, so a later
    /// [`Self::from_dir`] rebuilds the manifest — dtypes, row counts and
    /// all — without a single header read. Shards load through
    /// [`Self::table`], so a directory-sharded source converts
    /// (e.g. CSV → binary) under the configured cache bound; every
    /// [`arda_table::DataType`] survives bit-exactly, Timestamps included.
    ///
    /// Shard files are named `<table name>.arda`, with the name sanitized
    /// (path separators become `_`; `..`/empty/dot-leading stems fall
    /// back to `table…`) so a shard always lands inside `dir`. A name
    /// that collides — with another table (compared case-insensitively,
    /// so case-preserving filesystems like APFS/NTFS can't clobber
    /// either), or with the reserved `_catalog.arda` — gets its
    /// repository index (and, if still taken, a counter) appended, so no
    /// shard ever silently overwrites another.
    ///
    /// Saving twice into the same directory replaces the previous save:
    /// stale `.arda` shards recorded in the directory's existing
    /// `_catalog.arda` are removed (best-effort), so a later
    /// [`Self::from_dir`] cannot resurrect tables from an earlier save.
    /// Files the catalog never recorded — and `.csv` sources in
    /// particular — are **never** deleted; if unrelated shards sit in the
    /// directory, the next scan simply indexes the union, as for any
    /// hand-assembled shard directory.
    pub fn save_dir(&self, dir: impl AsRef<Path>) -> Result<(), TableError> {
        let dir = dir.as_ref();
        std::fs::create_dir_all(dir)
            .map_err(|e| TableError::Store(format!("cannot create {}: {e}", dir.display())))?;
        // Snapshot the previous save's manifest before overwriting it;
        // these are the only files cleanup may touch.
        let previous: Vec<String> = read_catalog(dir)
            .map(|cat| cat.into_keys().collect())
            .unwrap_or_default();
        // Collision set is case-folded so case-preserving filesystems
        // (APFS/NTFS) can't silently overwrite "Sales.arda" with
        // "sales.arda"; `written` keeps the exact names for cleanup.
        let mut used = std::collections::HashSet::new();
        used.insert(CATALOG_FILE.to_lowercase());
        let mut written = std::collections::HashSet::new();
        let mut entries = Vec::with_capacity(self.len());
        for i in 0..self.len() {
            let table = self.table(i)?;
            let stem = sanitize_stem(self.name(i).unwrap_or("table"));
            let mut file_name = format!("{stem}.arda");
            let mut salt = 0usize;
            while !used.insert(file_name.to_lowercase()) {
                file_name = match salt {
                    0 => format!("{stem}_{i}.arda"),
                    s => format!("{stem}_{i}_{s}.arda"),
                };
                salt += 1;
            }
            written.insert(file_name.clone());
            let path = dir.join(&file_name);
            arda_table::write_arda_file(&table, &path)?;
            let (mtime_ns, size) = stat_pair(&path)?;
            entries.push(CatalogEntry {
                file_name,
                n_cols: table.n_cols(),
                n_rows: Some(table.n_rows()),
                dtypes: Some(table.columns().iter().map(|c| c.dtype()).collect()),
                mtime_ns,
                size,
            });
        }
        // Remove binary shards left over from a previous save into this
        // directory: without this, the next `from_dir` would cold-scan
        // the union and silently mine phantom tables. Scope is strictly
        // "`.arda` files the old catalog recorded and this save did not
        // rewrite" — user files (CSV sources included) are never touched.
        // The rewrite check is case-folded like the collision set: on a
        // case-insensitive filesystem, old "Sales.arda" IS freshly
        // written "sales.arda", and deleting it would destroy the shard
        // this very save produced.
        let written_folded: std::collections::HashSet<String> =
            written.iter().map(|n| n.to_lowercase()).collect();
        for old in previous {
            if old.ends_with(".arda")
                && old != CATALOG_FILE
                && !written_folded.contains(&old.to_lowercase())
            {
                let _ = std::fs::remove_file(dir.join(&old));
            }
        }
        write_catalog(dir, entries)
    }

    /// Catalog entries for the disk-backed shards of this repository.
    fn disk_metas(&self) -> Vec<CatalogEntry> {
        self.sources
            .iter()
            .filter_map(|s| match s {
                Source::Disk(m) => Some(m.entry.clone()),
                Source::Mem(_) => None,
            })
            .collect()
    }

    /// Bound the lazy-load cache to at most `capacity` resident shards
    /// (LRU eviction; clamped to ≥ 1). Eager tables are unaffected.
    pub fn with_cache_capacity(mut self, capacity: usize) -> Self {
        self.cache_capacity = capacity.max(1);
        self.cache
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .evict_to(self.cache_capacity);
        self
    }

    /// Add a resident table, returning its index.
    pub fn add(&mut self, table: Table) -> usize {
        self.sources.push(Source::Mem(Arc::new(table)));
        self.sources.len() - 1
    }

    /// Table by index, loading a sharded table from disk on first access.
    /// The returned [`Arc`] stays valid even if the cache later evicts the
    /// shard.
    pub fn table(&self, index: usize) -> Result<Arc<Table>, TableError> {
        let source = self.sources.get(index).ok_or_else(|| {
            TableError::Invalid(format!(
                "repository table {index} out of range ({} tables)",
                self.sources.len()
            ))
        })?;
        match source {
            Source::Mem(t) => Ok(Arc::clone(t)),
            Source::Disk(meta) => {
                {
                    let mut cache = self.cache.lock().unwrap_or_else(|p| p.into_inner());
                    if let Some(t) = cache.loaded.get(&index) {
                        let t = Arc::clone(t);
                        cache.touch(index);
                        return Ok(t);
                    }
                }
                // Load outside the lock so distinct shards parse
                // concurrently; a racing duplicate load of the same shard
                // yields an identical table, so first-insert-wins is safe.
                let loaded = match meta.format {
                    ShardFormat::Csv => Arc::new(
                        arda_table::read_csv_with(&meta.path, &self.read_opts).map_err(|e| {
                            TableError::Csv(format!("shard {}: {e}", meta.path.display()))
                        })?,
                    ),
                    ShardFormat::Arda => {
                        Arc::new(arda_table::read_arda(&meta.path).map_err(|e| {
                            TableError::Store(format!("shard {}: {e}", meta.path.display()))
                        })?)
                    }
                };
                let mut cache = self.cache.lock().unwrap_or_else(|p| p.into_inner());
                let entry = cache
                    .loaded
                    .entry(index)
                    .or_insert_with(|| Arc::clone(&loaded));
                let out = Arc::clone(entry);
                cache.touch(index);
                cache.evict_to(self.cache_capacity);
                Ok(out)
            }
        }
    }

    /// Table by index; `None` when out of range or the shard fails to
    /// load. Prefer [`Self::table`] where the error matters.
    pub fn get(&self, index: usize) -> Option<Arc<Table>> {
        self.table(index).ok()
    }

    /// Table name by index (from the manifest — never loads a shard).
    pub fn name(&self, index: usize) -> Option<&str> {
        self.sources.get(index).map(|s| match s {
            Source::Mem(t) => t.name(),
            Source::Disk(meta) => meta.name.as_str(),
        })
    }

    /// Column count by index (from the manifest — never loads a shard).
    pub fn n_cols(&self, index: usize) -> Option<usize> {
        self.sources.get(index).map(|s| match s {
            Source::Mem(t) => t.n_cols(),
            Source::Disk(meta) => meta.entry.n_cols,
        })
    }

    /// Column dtypes by index, when the manifest knows them — resident
    /// tables and `.arda` shards (header or catalog), but not yet-unparsed
    /// CSV shards. Never loads a shard; this is what lets discovery skip
    /// type-incompatible shards without touching their bodies.
    pub fn dtypes(&self, index: usize) -> Option<Vec<DataType>> {
        match self.sources.get(index)? {
            Source::Mem(t) => Some(t.columns().iter().map(|c| c.dtype()).collect()),
            Source::Disk(meta) => meta.entry.dtypes.clone(),
        }
    }

    /// Row count by index, when the manifest knows it (resident tables and
    /// `.arda` shards). Never loads a shard.
    pub fn n_rows(&self, index: usize) -> Option<usize> {
        match self.sources.get(index)? {
            Source::Mem(t) => Some(t.n_rows()),
            Source::Disk(meta) => meta.entry.n_rows,
        }
    }

    /// Per-shard header reads performed while building this repository:
    /// one per shard on a cold `from_dir`, **zero** on a catalog hit (and
    /// always zero for eager repositories). Construction-time
    /// instrumentation for the catalog's whole point.
    pub fn header_scans(&self) -> usize {
        self.header_scans
    }

    /// True when `from_dir` rebuilt the entire manifest from a fresh
    /// `_catalog.arda` without opening any shard.
    pub fn catalog_hit(&self) -> bool {
        self.catalog_hit
    }

    /// Number of lazily loaded shards currently resident in the cache.
    pub fn resident_shards(&self) -> usize {
        self.cache
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .loaded
            .len()
    }

    /// Number of tables.
    pub fn len(&self) -> usize {
        self.sources.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.sources.is_empty()
    }
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

/// Mine and score every candidate of `base` against one repository table,
/// returning that table's best candidates (descending score, capped).
fn mine_table(
    base: &Table,
    ti: usize,
    foreign: &Table,
    cfg: &DiscoveryConfig,
) -> Result<Vec<CandidateJoin>, TableError> {
    let mut per_table: Vec<CandidateJoin> = Vec::new();
    for bcol in base.columns() {
        if !keyable(bcol.dtype()) {
            continue;
        }
        for fcol in foreign.columns() {
            if !keyable(fcol.dtype()) || !compatible(bcol.dtype(), fcol.dtype()) {
                continue;
            }
            let stats =
                join_stats(base, foreign, &[bcol.name()], &[fcol.name()]).map_err(|e| match e {
                    arda_join::JoinError::Table(t) => t,
                    other => TableError::Invalid(other.to_string()),
                })?;
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
    Ok(per_table)
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
    let base_key_dtypes: Vec<DataType> = base
        .columns()
        .iter()
        .map(|c| c.dtype())
        .filter(|&d| keyable(d))
        .collect();
    let indices: Vec<usize> = (0..repo.len()).collect();
    let mined = arda_par::par_map(&indices, |_, &ti| {
        if let Some(dtypes) = repo.dtypes(ti) {
            let joinable = dtypes
                .iter()
                .any(|&fd| keyable(fd) && base_key_dtypes.iter().any(|&bd| compatible(bd, fd)));
            if !joinable {
                return Ok(Vec::new());
            }
        }
        let foreign = repo.table(ti)?;
        mine_table(base, ti, &foreign, cfg)
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

    #[test]
    fn repository_basics() {
        let mut repo = Repository::new();
        assert!(repo.is_empty());
        let i = repo.add(junk());
        assert_eq!(repo.len(), 1);
        assert_eq!(repo.get(i).unwrap().name(), "junk");
        assert_eq!(repo.name(i), Some("junk"));
        assert_eq!(repo.n_cols(i), Some(2));
        assert!(repo.get(9).is_none());
        assert!(repo.table(9).is_err());
    }

    /// Write every table of an eager repository into `dir` as CSV shards.
    fn write_shards(dir: &std::path::Path, tables: &[Table]) {
        std::fs::create_dir_all(dir).unwrap();
        for t in tables {
            let f = std::fs::File::create(dir.join(format!("{}.csv", t.name()))).unwrap();
            arda_table::write_csv(t, f).unwrap();
        }
    }

    #[test]
    fn sharded_repository_loads_lazily_and_evicts() {
        let dir = std::env::temp_dir().join(format!("arda_disc_shards_{}", std::process::id()));
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
    fn sharded_discovery_matches_eager() {
        let dir = std::env::temp_dir().join(format!("arda_disc_eq_{}", std::process::id()));
        // Since PR 5 timestamps round-trip CSV via `@tick`, so reloaded
        // shards equal the originals; comparing against an eager
        // repository built from the reloaded tables keeps the test
        // self-contained either way.
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

    #[test]
    fn from_dir_missing_and_empty() {
        assert!(Repository::from_dir("/definitely/not/a/dir").is_err());
        let dir = std::env::temp_dir().join(format!("arda_disc_empty_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let repo = Repository::from_dir(&dir).unwrap();
        assert!(repo.is_empty());
        std::fs::remove_dir_all(&dir).ok();
    }

    // ---- PR 5: binary shards, catalog, dtype-aware planning --------------

    /// Encode a table's shard bytes (bit-exact comparison helper).
    fn arda_bytes(t: &Table) -> Vec<u8> {
        let mut buf = Vec::new();
        arda_table::write_arda(t, &mut buf).unwrap();
        buf
    }

    /// `.csv` and `.arda` shards mix behind one manifest; the binary
    /// shards expose dtypes and row counts without loading.
    #[test]
    fn mixed_format_directory() {
        let dir = std::env::temp_dir().join(format!("arda_disc_mixed_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let f = std::fs::File::create(dir.join("population.csv")).unwrap();
        arda_table::write_csv(&population(), f).unwrap();
        arda_table::write_arda_file(&weather(), dir.join("weather.arda")).unwrap();

        let repo = Repository::from_dir(&dir).unwrap();
        assert_eq!(repo.len(), 2);
        assert_eq!(repo.name(0), Some("population"));
        assert_eq!(repo.name(1), Some("weather"));
        // CSV shard: width known, dtypes/rows unknown until parse.
        assert_eq!(repo.n_cols(0), Some(2));
        assert_eq!(repo.dtypes(0), None);
        assert_eq!(repo.n_rows(0), None);
        // Binary shard: full schema from the header, nothing loaded.
        assert_eq!(repo.n_cols(1), Some(2));
        assert_eq!(
            repo.dtypes(1),
            Some(vec![DataType::Timestamp, DataType::Float])
        );
        assert_eq!(repo.n_rows(1), Some(720));
        assert_eq!(repo.resident_shards(), 0, "manifest scan loads nothing");

        // Both formats load to the expected tables; the binary one is
        // bit-identical to the original (dtypes included).
        assert_eq!(repo.table(0).unwrap().n_rows(), 4);
        assert_eq!(arda_bytes(&repo.table(1).unwrap()), arda_bytes(&weather()));

        std::fs::remove_dir_all(&dir).ok();
    }

    /// The acceptance-criterion pair: a cold scan reads one header per
    /// shard and writes `_catalog.arda`; an unchanged directory then
    /// rebuilds the manifest with **zero** per-shard header reads.
    #[test]
    fn warm_catalog_skips_all_header_reads() {
        let dir = std::env::temp_dir().join(format!("arda_disc_warm_{}", std::process::id()));
        write_shards(&dir, &[junk(), population()]);
        arda_table::write_arda_file(&weather(), dir.join("weather.arda")).unwrap();

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
            assert_eq!(warm.n_rows(i), cold.n_rows(i));
            assert_eq!(warm.dtypes(i), cold.dtypes(i));
        }
        // And shards still load correctly through it.
        assert_eq!(arda_bytes(&warm.table(2).unwrap()), arda_bytes(&weather()));

        std::fs::remove_dir_all(&dir).ok();
    }

    /// Any modification — changed bytes, added shard, removed shard —
    /// invalidates the catalog: the next scan is cold (and correct), and
    /// the rewritten catalog makes the scan after it warm again.
    #[test]
    fn stale_catalog_forces_rescan() {
        let dir = std::env::temp_dir().join(format!("arda_disc_stale_{}", std::process::id()));
        write_shards(&dir, &[junk(), population()]);
        assert!(!Repository::from_dir(&dir).unwrap().catalog_hit());
        assert!(Repository::from_dir(&dir).unwrap().catalog_hit());

        // Modify a shard (different size guarantees the pair changes even
        // on coarse-mtime filesystems).
        let bigger = Table::new(
            "junk",
            vec![
                Column::from_str("code", vec!["zz1", "zz2", "zz3"]),
                Column::from_f64("x", vec![0.0, 1.0, 2.0]),
            ],
        )
        .unwrap();
        let f = std::fs::File::create(dir.join("junk.csv")).unwrap();
        arda_table::write_csv(&bigger, f).unwrap();
        let repo = Repository::from_dir(&dir).unwrap();
        assert!(!repo.catalog_hit(), "modified shard invalidates");
        assert_eq!(repo.header_scans(), 2);
        assert_eq!(repo.table(0).unwrap().n_rows(), 3, "fresh data served");
        assert!(Repository::from_dir(&dir).unwrap().catalog_hit());

        // Added shard invalidates.
        arda_table::write_arda_file(&weather(), dir.join("weather.arda")).unwrap();
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

    /// `save_dir` → `from_dir` preserves every dtype bit-exactly —
    /// including `Timestamp`, which the old CSV-only path silently
    /// demoted — and the saved directory is born warm (its catalog was
    /// written by `save_dir` itself).
    #[test]
    fn save_dir_round_trips_timestamps_bit_exactly() {
        let tables = [weather(), population(), junk()];
        let src = Repository::from_tables(tables.to_vec());
        let dir = std::env::temp_dir().join(format!("arda_disc_save_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
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
            "the root fix: dtypes survive storage"
        );

        // Discovery over the reloaded repository finds the same
        // candidates with bit-identical scores — no more
        // Timestamp-degraded-to-Str drift. (Table *indices* differ —
        // `from_dir` orders by file name — so compare index-free keys.)
        let cfg = DiscoveryConfig::default();
        let key = |cands: &[CandidateJoin]| {
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
        };
        let a = discover_joins(&base(), &src, &cfg).unwrap();
        let b = discover_joins(&base(), &back, &cfg).unwrap();
        assert_eq!(key(&a), key(&b));

        std::fs::remove_dir_all(&dir).ok();
    }

    /// `save_dir` never lets one shard overwrite another: duplicate table
    /// names, names that collide with a `<dup>_<i>` fallback, and even a
    /// table named `_catalog` all land in distinct files, and every table
    /// survives the round-trip.
    #[test]
    fn save_dir_resolves_hostile_name_collisions() {
        let t =
            |name: &str, v: i64| Table::new(name, vec![Column::from_i64("k", vec![v])]).unwrap();
        // Index 2's duplicate "a" falls back to "a_2.arda", which must
        // not clobber table "a_2"; "_catalog" must not clobber the
        // catalog file itself; path-separator and ".." names must stay
        // inside the directory.
        let src = Repository::from_tables(vec![
            t("a", 0),
            t("a_2", 1),
            t("a", 2),
            t("_catalog", 3),
            t("../escape", 4),
            t("..", 5),
        ]);
        let dir = std::env::temp_dir().join(format!("arda_disc_names_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
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

    /// A second `save_dir` into the same directory removes the previous
    /// save's shard files: the directory mirrors the repository exactly,
    /// so `from_dir` can never mine phantom tables from an earlier save.
    #[test]
    fn save_dir_removes_stale_shards_from_earlier_saves() {
        let dir = std::env::temp_dir().join(format!("arda_disc_resave_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
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

    /// With dtypes in the manifest, discovery skips shards that cannot
    /// key a join — without ever loading them. A float-only shard has no
    /// keyable column, so it stays on disk.
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
        std::fs::create_dir_all(&dir).unwrap();
        arda_table::write_arda_file(&floats_only, dir.join("sensors.arda")).unwrap();
        arda_table::write_arda_file(&population(), dir.join("population.arda")).unwrap();

        let repo = Repository::from_dir(&dir).unwrap();
        let cands = discover_joins(&base(), &repo, &DiscoveryConfig::default()).unwrap();
        assert!(cands.iter().any(|c| c.table_name == "population"));
        assert!(cands.iter().all(|c| c.table_name != "sensors"));
        assert_eq!(
            repo.resident_shards(),
            1,
            "the float-only shard was never loaded"
        );

        std::fs::remove_dir_all(&dir).ok();
    }
}
