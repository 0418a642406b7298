//! The data repository: a pool of candidate tables addressed by index.
//!
//! ARDA takes the repository as an input and leaves mining it to an
//! external discovery system (§2–3). This module only stores it. Two
//! backing stores coexist behind one API:
//!
//! * **eager** — [`Repository::from_tables`], every table resident up
//!   front;
//! * **directory-sharded** — [`Repository::from_dir`] scans a directory of
//!   shards into a *manifest* (name, path, column count and — when the
//!   format records them — dtypes per shard) and each shard is parsed
//!   lazily on first [`Repository::table`] access. Loaded shards are
//!   cached as [`Arc<Table>`] behind an LRU bound
//!   ([`Repository::with_cache_capacity`]), so repositories far larger
//!   than memory can be mined; eviction only drops the cache's reference,
//!   never a table a caller still holds.
//!
//! Two shard formats mix freely behind one manifest:
//!
//! * `*.csv` — a header-only scan (names and width known, dtypes unknown
//!   until a full parse); a load reads the file once and parses it with
//!   the budget-parallel CSV reader;
//! * `*.arda` — the typed binary columnar store (see [`crate::store`]):
//!   the header scan also yields exact dtypes, so planning can be
//!   dtype-aware without loading anything, and every [`DataType`]
//!   (Timestamps included) survives persistence bit-exactly.
//!   [`Repository::save_dir`] converts any repository into this form.
//!
//! ## The persistent catalog (`_catalog.arda`)
//!
//! A cold `from_dir` opens every shard for its header. To make warm runs
//! free, the manifest is persisted as `_catalog.arda` in the shard
//! directory — itself an `.arda` table with one row per shard: file name,
//! width, dtypes, and the file's `(mtime_ns, size)` at scan time.
//! Invalidation rules:
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
//! exact same table, so everything downstream is deterministic regardless
//! of cache hits, evictions, catalog hits or load order.

use crate::csv::read_csv_header;
use crate::store::{read_arda, read_arda_header, write_arda_file};
use crate::{read_csv, Column, DataType, Table, TableError};
use std::collections::{HashMap, HashSet};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Name of the persistent shard-metadata catalog inside a shard
/// directory. Never listed as a shard itself.
pub(crate) const CATALOG_FILE: &str = "_catalog.arda";

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
    /// Text shard, read whole and parsed by the CSV reader.
    Csv,
    /// Typed binary columnar shard ([`crate::store`]).
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

    /// Name the shard a read error came from: the error becomes this
    /// format's kind with the path in front, so the message carries the
    /// kind and the path once each.
    fn error_in(self, path: &Path) -> impl Fn(TableError) -> TableError + '_ {
        move |e| {
            let msg = match e {
                TableError::Csv(m) | TableError::Store(m) => m,
                other => other.to_string(),
            };
            let msg = format!("shard {}: {msg}", path.display());
            match self {
                ShardFormat::Csv => TableError::Csv(msg),
                ShardFormat::Arda => TableError::Store(msg),
            }
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

fn file_name(path: &Path) -> &str {
    path.file_name().and_then(|n| n.to_str()).unwrap_or("")
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

/// One catalog row: everything the manifest scan would have learned about
/// a shard, plus the freshness pair.
#[derive(Debug, Clone)]
struct CatalogEntry {
    /// File name within the shard directory (the catalog key).
    file_name: String,
    n_cols: usize,
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
    let table = read_arda(dir.join(CATALOG_FILE)).ok()?;
    let file = table.column("file").ok()?;
    let n_cols = table.column("n_cols").ok()?;
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
        out.insert(
            file_name.clone(),
            CatalogEntry {
                file_name,
                n_cols: usize::try_from(n_cols.get(i).as_i64()?).ok()?,
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
static CATALOG_TMP_SEQ: AtomicU64 = AtomicU64::new(0);

/// Atomically (re)write `_catalog.arda`: encode to a temp file in the
/// same directory, then rename over the target, so a concurrent
/// [`read_catalog`] sees either the old or the new catalog — never a
/// torn one.
fn write_catalog(dir: &Path, entries: &[CatalogEntry]) -> Result<(), TableError> {
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
            Column::from_strings(
                "dtypes",
                entries.iter().map(|e| join_dtypes(&e.dtypes)).collect(),
            ),
            Column::from_i64("mtime_ns", entries.iter().map(|e| e.mtime_ns).collect()),
            Column::from_i64("size", entries.iter().map(|e| e.size as i64).collect()),
        ],
    )?;
    let seq = CATALOG_TMP_SEQ.fetch_add(1, Ordering::Relaxed);
    let tmp = dir.join(format!(".{CATALOG_FILE}.tmp-{}-{seq}", std::process::id()));
    if let Err(e) = write_arda_file(&table, &tmp) {
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
/// addressed by index. See the module docs for the eager vs
/// directory-sharded backing stores.
#[derive(Debug, Clone)]
pub struct Repository {
    sources: Vec<Source>,
    cache: Arc<Mutex<ShardCache>>,
    /// Max shards resident in the cache (`usize::MAX` = unbounded).
    cache_capacity: usize,
    /// Per-shard header reads the constructing manifest scan performed
    /// (0 on a catalog hit or an eager repository).
    header_scans: usize,
    /// True when `from_dir` satisfied the whole manifest from a fresh
    /// `_catalog.arda`.
    catalog_hit: bool,
}

impl Repository {
    fn with_sources(sources: Vec<Source>) -> Self {
        Repository {
            sources,
            cache: Arc::new(Mutex::new(ShardCache::default())),
            cache_capacity: usize::MAX,
            header_scans: 0,
            catalog_hit: false,
        }
    }

    /// Build from resident tables (the eager path).
    pub fn from_tables(tables: Vec<Table>) -> Self {
        Repository::with_sources(
            tables
                .into_iter()
                .map(|t| Source::Mem(Arc::new(t)))
                .collect(),
        )
    }

    /// Build a directory-sharded repository: every `*.csv` and `*.arda`
    /// file directly in `dir` becomes one shard, named after its file stem
    /// and sorted by file name for determinism. Only headers are read here
    /// (the manifest scan) — and not even those when a fresh
    /// `_catalog.arda` covers the directory (see the module docs for the
    /// invalidation rules). Table bodies are parsed lazily by
    /// [`Self::table`].
    pub fn from_dir(dir: impl AsRef<Path>) -> Result<Self, TableError> {
        let dir = dir.as_ref();
        let entries = std::fs::read_dir(dir).map_err(|e| {
            TableError::Csv(format!("cannot read repository dir {}: {e}", dir.display()))
        })?;
        let mut paths: Vec<(PathBuf, ShardFormat)> = Vec::new();
        for entry in entries {
            let path = entry.map_err(|e| TableError::Csv(e.to_string()))?.path();
            if !path.is_file() || file_name(&path) == CATALOG_FILE {
                continue;
            }
            if let Some(format) = ShardFormat::from_path(&path) {
                paths.push((path, format));
            }
        }
        paths.sort_by(|a, b| a.0.cmp(&b.0));

        // Stat every shard up front: the pairs both validate the catalog
        // and (on a cold scan) become the next catalog's contents.
        let mut stats = Vec::with_capacity(paths.len());
        for (path, _) in &paths {
            stats.push(stat_pair(path)?);
        }
        let shard = |path: &PathBuf, format: ShardFormat, entry: CatalogEntry| {
            Source::Disk(ShardMeta {
                name: file_stem(path),
                path: path.clone(),
                format,
                entry,
            })
        };

        // Warm path: a catalog that covers exactly this file set with
        // matching (mtime_ns, size) pairs supplies the whole manifest.
        if let Some(catalog) = read_catalog(dir) {
            let fresh = paths.len() == catalog.len()
                && paths.iter().zip(&stats).all(|((path, _), &(mtime, size))| {
                    catalog
                        .get(file_name(path))
                        .is_some_and(|e| e.mtime_ns == mtime && e.size == size)
                });
            if fresh {
                let sources = paths
                    .iter()
                    .map(|(path, format)| shard(path, *format, catalog[file_name(path)].clone()))
                    .collect();
                return Ok(Repository {
                    catalog_hit: true,
                    ..Repository::with_sources(sources)
                });
            }
        }

        // Cold path: open every shard for its header, then persist what
        // was learned so the next scan is free.
        let mut catalog = Vec::with_capacity(paths.len());
        for ((path, format), &(mtime_ns, size)) in paths.iter().zip(&stats) {
            let (n_cols, dtypes) = match format {
                ShardFormat::Csv => {
                    let names = read_csv_header(path).map_err(format.error_in(path))?;
                    (names.len(), None)
                }
                ShardFormat::Arda => {
                    let header = read_arda_header(path).map_err(format.error_in(path))?;
                    let dtypes = header.schema.fields().iter().map(|f| f.dtype).collect();
                    (header.schema.len(), Some(dtypes))
                }
            };
            catalog.push(CatalogEntry {
                file_name: file_name(path).to_string(),
                n_cols,
                dtypes,
                mtime_ns,
                size,
            });
        }
        if !catalog.is_empty() {
            // Best-effort: a read-only directory still works, just cold.
            let _ = write_catalog(dir, &catalog);
        }
        let sources: Vec<Source> = paths
            .iter()
            .zip(catalog)
            .map(|((path, format), entry)| shard(path, *format, entry))
            .collect();
        Ok(Repository {
            header_scans: sources.len(),
            ..Repository::with_sources(sources)
        })
    }

    /// Persist every table of this repository into `dir` as typed binary
    /// `.arda` shards plus a fresh `_catalog.arda`, so a later
    /// [`Self::from_dir`] rebuilds the manifest — dtypes and all — without
    /// a single header read. Shards load through [`Self::table`], so a
    /// directory-sharded source converts (e.g. CSV → binary) under the
    /// configured cache bound; every [`DataType`] survives bit-exactly,
    /// Timestamps included.
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
        // The collision set is case-folded so case-preserving filesystems
        // (APFS/NTFS) can't silently overwrite "Sales.arda" with
        // "sales.arda"; `written` keeps the exact names for cleanup.
        let mut used = HashSet::new();
        used.insert(CATALOG_FILE.to_lowercase());
        let mut written = HashSet::new();
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
            write_arda_file(&table, &path)?;
            let (mtime_ns, size) = stat_pair(&path)?;
            entries.push(CatalogEntry {
                file_name,
                n_cols: table.n_cols(),
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
        let written_folded: HashSet<String> = written.iter().map(|n| n.to_lowercase()).collect();
        for old in previous {
            if old.ends_with(".arda")
                && old != CATALOG_FILE
                && !written_folded.contains(&old.to_lowercase())
            {
                let _ = std::fs::remove_file(dir.join(&old));
            }
        }
        write_catalog(dir, &entries)
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
        let meta = match source {
            Source::Mem(t) => return Ok(Arc::clone(t)),
            Source::Disk(meta) => meta,
        };
        {
            let mut cache = self.cache.lock().unwrap_or_else(|p| p.into_inner());
            if let Some(t) = cache.loaded.get(&index) {
                let t = Arc::clone(t);
                cache.touch(index);
                return Ok(t);
            }
        }
        // Load outside the lock so distinct shards parse concurrently; a
        // racing duplicate load of the same shard yields an identical
        // table, so first-insert-wins is safe.
        let loaded = match meta.format {
            ShardFormat::Csv => read_csv(&meta.path),
            ShardFormat::Arda => read_arda(&meta.path),
        };
        let loaded = Arc::new(loaded.map_err(meta.format.error_in(&meta.path))?);
        let mut cache = self.cache.lock().unwrap_or_else(|p| p.into_inner());
        let out = Arc::clone(cache.loaded.entry(index).or_insert(loaded));
        cache.touch(index);
        cache.evict_to(self.cache_capacity);
        Ok(out)
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
