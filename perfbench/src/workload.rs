//! The benchmark's workloads and their set-up: scenario generation from the
//! seed, then an in-memory repository or, for the School (L) lake, CSV
//! shards on disk behind a cold `Repository::from_dir`.

use arda_discovery::Repository;
use arda_synth::{school, taxi, Scenario, ScenarioConfig};
use std::fs;
use std::io::{BufWriter, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

/// LRU bound on resident lake shards during a run.
const LAKE_CACHE_TABLES: usize = 16;

/// Shards the lake writes (`large` always yields 348 decoys plus the two
/// signal tables) and their mean CSV size in bytes at `LAKE_ROWS`, for the
/// file-system calibration that lake set-up times are scaled by.
pub const LAKE_SHARDS: usize = 350;
pub const LAKE_SHARD_BYTES: usize = 1850;

/// Base rows of the lake scenario. Still wide and short (about 15 batches of
/// ~190 features on 75 train rows), at 7–9 s a run instead of the 16 s of
/// 150 rows, so five instances fit in one run.
const LAKE_ROWS: usize = 100;

/// One set of inputs the benchmark runs through `Arda::run`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Regression over 22 in-memory tables with timestamp keys: the forest
    /// half of RIFS does most of the work, the SVM none.
    Taxi,
    /// Classification over 16 in-memory tables: the RBF-SVM estimates do
    /// most of the work. Not in `BENCHMARK.json`: the SMO solver's pass
    /// count varies so much between inputs that run time moves by 2.5×
    /// between instances, and six instances a run still spread by a third.
    School,
    /// Classification over 350 CSV shards, wide and short (d > n): the ℓ2,1
    /// half of RIFS dominates, and discovery, storage and joins do most of
    /// their work here.
    SchoolLLake,
}

/// Input sizes: `Full` is what the benchmark measures, `Tiny` what its
/// self-tests run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    Full,
    Tiny,
}

impl Workload {
    pub const ALL: [Workload; 3] = [Workload::Taxi, Workload::School, Workload::SchoolLLake];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Taxi => "taxi",
            Workload::School => "school",
            Workload::SchoolLLake => "school_l_lake",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// How many scenario instances a timed run covers. Run time and scores
    /// move by about a fifth between one generator seed and the next, so a
    /// run reports means over several instances.
    pub fn instances(self) -> usize {
        match self {
            Workload::Taxi => 8,
            Workload::School => 6,
            Workload::SchoolLLake => 5,
        }
    }

    /// Generator seed of instance `j` of a run with seed `seed`: runs with
    /// different seeds share no instance.
    pub fn instance_seed(seed: u64, j: usize) -> u64 {
        seed.wrapping_mul(1000).wrapping_add(j as u64)
    }

    /// Generate the scenario for `seed`.
    pub fn scenario(self, scale: Scale, seed: u64) -> Scenario {
        let tiny = scale == Scale::Tiny;
        let cfg = |n_rows, n_decoys| ScenarioConfig {
            n_rows,
            n_decoys,
            seed,
        };
        match self {
            Workload::Taxi => taxi(&if tiny { cfg(120, 4) } else { cfg(1000, 20) }),
            Workload::School => school(&if tiny { cfg(120, 4) } else { cfg(1000, 14) }, false),
            // `large` always yields 348 decoys plus the two signal tables.
            Workload::SchoolLLake => school(
                &if tiny {
                    cfg(40, 348)
                } else {
                    cfg(LAKE_ROWS, 348)
                },
                true,
            ),
        }
    }
}

/// A per-process shard directory, removed when dropped — on success, on an
/// error return and while unwinding from a panic.
#[derive(Debug)]
pub struct LakeDir {
    path: PathBuf,
}

impl LakeDir {
    /// Create an empty directory at a fresh per-process path under `root`.
    /// Anything already there (a crashed run's shards and `_catalog.arda`)
    /// is removed first, so the index that follows is always cold.
    fn create(root: &Path) -> Result<LakeDir, String> {
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        let k = NEXT.fetch_add(1, Ordering::Relaxed);
        let path = root.join(format!("lake-{}-{k}", std::process::id()));
        if path.exists() {
            fs::remove_dir_all(&path).map_err(|e| format!("clear {}: {e}", path.display()))?;
        }
        fs::create_dir_all(&path).map_err(|e| format!("create {}: {e}", path.display()))?;
        Ok(LakeDir { path })
    }

    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for LakeDir {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.path);
    }
}

/// A workload's inputs, ready to run.
#[derive(Debug)]
pub struct Inputs {
    /// The generated scenario. On the lake its `repository` is emptied
    /// once the shards are written: the run reads them through `repo`.
    pub scenario: Scenario,
    pub repo: Repository,
    /// Seconds of the cold `Repository::from_dir` (0 when in memory).
    pub index_s: f64,
    /// The shard directory backing `repo`; dropping it removes the shards.
    /// Held for that drop; only the self-tests read it.
    #[allow(dead_code)]
    pub lake: Option<LakeDir>,
}

/// Generate the scenario and build its repository. The returned seconds
/// cover all of it: generation, and on the lake the shard writes and the
/// cold index.
pub fn set_up(
    workload: Workload,
    scale: Scale,
    seed: u64,
    tmp_root: &Path,
) -> Result<(Inputs, f64), String> {
    let start = Instant::now();
    let mut scenario = workload.scenario(scale, seed);
    let inputs = match workload {
        Workload::Taxi | Workload::School => Inputs {
            repo: Repository::from_tables(scenario.repository.clone()),
            scenario,
            index_s: 0.0,
            lake: None,
        },
        Workload::SchoolLLake => {
            let lake = LakeDir::create(tmp_root)?;
            write_shards(&scenario, lake.path())?;
            let index_start = Instant::now();
            let repo = Repository::from_dir(lake.path()).map_err(|e| format!("index lake: {e}"))?;
            let index_s = index_start.elapsed().as_secs_f64();
            // The shards on disk are the repository now; keeping the
            // in-memory copy would only add to the measured peak RSS.
            let shards = std::mem::take(&mut scenario.repository).len();
            if repo.catalog_hit() || repo.header_scans() != shards || repo.len() != shards {
                return Err(format!(
                    "lake index not cold: catalog_hit={} header_scans={} tables={} (want {shards})",
                    repo.catalog_hit(),
                    repo.header_scans(),
                    repo.len()
                ));
            }
            Inputs {
                repo: repo.with_cache_capacity(LAKE_CACHE_TABLES),
                scenario,
                index_s,
                lake: Some(lake),
            }
        }
    };
    Ok((inputs, start.elapsed().as_secs_f64()))
}

/// Write every repository table as `<name>.csv` in `dir`.
fn write_shards(scenario: &Scenario, dir: &Path) -> Result<(), String> {
    for table in &scenario.repository {
        let path = dir.join(format!("{}.csv", table.name()));
        let file =
            fs::File::create(&path).map_err(|e| format!("create {}: {e}", path.display()))?;
        let mut out = BufWriter::new(file);
        arda_table::write_csv(table, &mut out)
            .map_err(|e| format!("write {}: {e}", path.display()))?;
        out.flush()
            .map_err(|e| format!("write {}: {e}", path.display()))?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_root() -> PathBuf {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../.bench_build/selftest-tmp");
        fs::create_dir_all(&root).unwrap();
        root
    }

    #[test]
    fn names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("pickup"), None);
    }

    #[test]
    fn lake_index_is_cold_and_dir_is_removed() {
        let (inputs, secs) = set_up(Workload::SchoolLLake, Scale::Tiny, 3, &tmp_root()).unwrap();
        assert!(secs > 0.0 && inputs.index_s > 0.0);
        assert_eq!(inputs.repo.len(), 350);
        assert_eq!(inputs.repo.header_scans(), 350);
        assert!(!inputs.repo.catalog_hit());
        let dir = inputs.lake.as_ref().unwrap().path().to_path_buf();
        assert!(
            dir.join("_catalog.arda").exists(),
            "cold index writes the catalog"
        );
        drop(inputs);
        assert!(!dir.exists(), "shard dir removed on drop");
    }

    #[test]
    fn lake_dir_is_removed_on_panic() {
        let root = tmp_root();
        let dir = std::panic::catch_unwind(|| {
            let lake = LakeDir::create(&root).unwrap();
            fs::write(lake.path().join("x.csv"), "a\n1\n").unwrap();
            let path = lake.path().to_path_buf();
            std::panic::panic_any(path);
        })
        .unwrap_err()
        .downcast::<PathBuf>()
        .unwrap();
        assert!(!dir.exists());
    }

    #[test]
    fn seed_changes_inputs() {
        for w in Workload::ALL {
            let a = w.scenario(Scale::Tiny, 1);
            let b = w.scenario(Scale::Tiny, 1);
            let c = w.scenario(Scale::Tiny, 2);
            assert_eq!(a.base, b.base, "{}: same seed, same inputs", w.name());
            assert_ne!(a.base, c.base, "{}: other seed, other inputs", w.name());
        }
    }
}
