//! Process-level measurements (CPU time and peak resident set, both from
//! `getrusage`), the run environment recorded with every result, and the
//! small JSON writer the result lines use.

use std::fmt::Write as _;
use std::path::Path;

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("perfbench reads the 64-bit Linux layout of `struct rusage`");

/// `struct timeval` on 64-bit Linux.
#[repr(C)]
#[derive(Default)]
struct Timeval {
    tv_sec: i64,
    tv_usec: i64,
}

/// `struct rusage` on 64-bit Linux: two timevals, then fourteen `long`s,
/// the first of which is `ru_maxrss` in KiB.
#[repr(C)]
#[derive(Default)]
struct Rusage {
    ru_utime: Timeval,
    ru_stime: Timeval,
    ru_maxrss: i64,
    _rest: [i64; 13],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
    fn sync();
}

const RUSAGE_SELF: i32 = 0;

/// Resource usage of this process so far.
#[derive(Debug, Clone, Copy)]
pub struct Usage {
    /// User plus system CPU seconds, summed over every thread.
    pub cpu_s: f64,
    /// Peak resident set in MiB.
    pub peak_rss_mb: f64,
}

/// Read this process's resource usage.
pub fn usage() -> Usage {
    let mut ru = Rusage::default();
    // SAFETY: `ru` is a live, writable `struct rusage` with the 64-bit Linux
    // layout (checked by the `compile_error!` gate above), and
    // `RUSAGE_SELF` is a valid `who`; `getrusage` writes only into it.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut ru) };
    assert_eq!(
        rc, 0,
        "getrusage(RUSAGE_SELF) cannot fail with a valid buffer"
    );
    let secs = |t: &Timeval| t.tv_sec as f64 + t.tv_usec as f64 * 1e-6;
    Usage {
        cpu_s: secs(&ru.ru_utime) + secs(&ru.ru_stime),
        peak_rss_mb: ru.ru_maxrss as f64 / 1024.0,
    }
}

/// Flush every dirty page to disk and wait, so that writeback left by
/// earlier file work does not land inside a later timed region.
pub fn flush_writeback() {
    // SAFETY: `sync` takes no arguments, touches no memory of ours and
    // cannot fail.
    unsafe { sync() }
}

/// Seconds one [`calibrate`] call takes on the reference machine (a
/// 2-vCPU Xeon VM at a quiet moment). Reported run times are scaled to it.
pub const CALIBRATION_REFERENCE_S: f64 = 0.027;

/// Seconds a fixed CPU-bound job takes with one thread per available core,
/// the median of three tries.
///
/// Each thread sorts and prefix-scans a column (like a forest's split
/// search), builds a Gram matrix and factors it (like the ℓ2,1 solve) and
/// sums exponentials (like the RBF kernel). Neither the job nor its thread
/// count comes from the measured crates (the count is
/// `available_parallelism`, not the `arda-par` budget), so no change to
/// them can move it: it only tracks how fast the machine runs right now.
pub fn calibrate() -> f64 {
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    median(&[0, 1, 2].map(|_| calibration_job(threads)))
}

fn calibration_job(threads: usize) -> f64 {
    let job = |seed: u64| {
        let mut x = seed | 1;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            (x >> 11) as f64 / (1u64 << 53) as f64
        };
        let mut col: Vec<f64> = (0..300_000).map(|_| next()).collect();
        col.sort_by(f64::total_cmp);
        let scan: f64 = col
            .iter()
            .scan(0.0, |acc, v| {
                *acc += v;
                Some(*acc)
            })
            .sum();

        let (n, d) = (400, 150);
        let a: Vec<f64> = (0..n * d).map(|_| next()).collect();
        let mut g = vec![0.0; d * d];
        for row in a.chunks_exact(d) {
            for i in 0..d {
                for j in i..d {
                    g[i * d + j] += row[i] * row[j];
                }
            }
        }
        for i in 0..d {
            g[i * d + i] += 1.0;
            for j in 0..i {
                g[i * d + j] = g[j * d + i];
            }
        }
        // In-place Cholesky factor, lower triangle.
        for j in 0..d {
            let mut diag = g[j * d + j];
            for k in 0..j {
                diag -= g[j * d + k] * g[j * d + k];
            }
            let diag = diag.sqrt();
            g[j * d + j] = diag;
            for i in j + 1..d {
                let mut v = g[i * d + j];
                for k in 0..j {
                    v -= g[i * d + k] * g[j * d + k];
                }
                g[i * d + j] = v / diag;
            }
        }
        let kernel: f64 = col.iter().map(|v| (-v * 3.0).exp()).sum();
        scan + g[d * d - 1] + kernel
    };
    let start = std::time::Instant::now();
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|i| s.spawn(move || job(i as u64 + 1)))
            .collect();
        for h in handles {
            std::hint::black_box(h.join().expect("calibration thread panicked"));
        }
    });
    start.elapsed().as_secs_f64()
}

/// Seconds one [`fs_calibrate`] call for the lake takes on the reference
/// machine at a quiet moment. Lake set-up times are scaled to it.
pub const FS_CALIBRATION_REFERENCE_S: f64 = 0.05;

/// Seconds it takes to write `files` files of `bytes` fixed bytes each into
/// a fresh directory under `root`: the file-system work of a set-up that
/// writes that many shards, without encoding them. The directory is
/// removed afterwards, untimed. Like [`calibrate`] it involves no measured
/// crate and only tracks how fast the machine's file system runs right
/// now, which on a shared disk moves by 3× over minutes.
pub fn fs_calibrate(root: &Path, files: usize, bytes: usize) -> Result<f64, String> {
    let dir = root.join(format!("fs-calibration-{}", std::process::id()));
    let io = |what: &str, e: std::io::Error| format!("{what} {}: {e}", dir.display());
    if dir.exists() {
        std::fs::remove_dir_all(&dir).map_err(|e| io("clear", e))?;
    }
    let body = vec![b'7'; bytes];
    let start = std::time::Instant::now();
    std::fs::create_dir(&dir).map_err(|e| io("create", e))?;
    for i in 0..files {
        std::fs::write(dir.join(format!("t{i}.csv")), &body).map_err(|e| io("write in", e))?;
    }
    let secs = start.elapsed().as_secs_f64();
    std::fs::remove_dir_all(&dir).map_err(|e| io("remove", e))?;
    Ok(secs)
}

/// The commit being measured, from `git rev-parse HEAD`; `"unknown"` when
/// the working directory is not a git checkout (no `.git` here, so a
/// repository further up is never reported) or git fails.
pub fn git_revision() -> String {
    if !Path::new(".git").exists() {
        return "unknown".into();
    }
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map_or_else(|| "unknown".into(), |rev| rev.trim().to_string())
}

/// Median of a non-empty sample.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// A JSON value, enough for the result lines.
#[derive(Debug, Clone)]
pub enum Json {
    Bool(bool),
    Num(f64),
    Str(String),
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// An object from `(key, value)` pairs, in order.
    pub fn obj<K: Into<String>>(entries: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Obj(entries.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            // Rust prints the shortest text that reads back to the same
            // f64, so every digit of a measurement survives.
            Json::Num(x) if x.is_finite() => write!(out, "{x}").expect("write to String"),
            Json::Num(_) => out.push_str("null"),
            Json::Str(s) => write_str(s, out),
            Json::Obj(entries) => {
                out.push('{');
                for (i, (k, v)) in entries.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    write_str(k, out);
                    out.push_str(": ");
                    v.write(out);
                }
                out.push('}');
            }
        }
    }
}

impl std::fmt::Display for Json {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut s = String::new();
        self.write(&mut s);
        f.write_str(&s)
    }
}

fn write_str(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => write!(out, "\\u{:04x}", c as u32).expect("write to String"),
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn usage_grows_with_work() {
        let before = usage();
        let mut acc = 0u64;
        for i in 0..20_000_000u64 {
            acc = std::hint::black_box(acc.wrapping_mul(31).wrapping_add(i));
        }
        std::hint::black_box(acc);
        let after = usage();
        assert!(after.cpu_s > before.cpu_s);
        assert!(after.peak_rss_mb > 0.0);
    }

    #[test]
    fn fs_calibration_writes_then_removes_its_files() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../.bench_build/selftest-tmp");
        std::fs::create_dir_all(&root).unwrap();
        assert!(fs_calibrate(&root, 20, 100).unwrap() > 0.0);
        let dir = root.join(format!("fs-calibration-{}", std::process::id()));
        assert!(!dir.exists());
    }

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn json_escapes_and_keeps_digits() {
        let j = Json::obj([
            ("a\"b", Json::Num(0.1 + 0.2)),
            ("ok", Json::Bool(true)),
            ("s", Json::Str("x\ny".into())),
        ]);
        assert_eq!(
            j.to_string(),
            r#"{"a\"b": 0.30000000000000004, "ok": true, "s": "x\u000ay"}"#
        );
    }
}
