//! A tiny self-contained timing harness (the workspace builds offline, so
//! no criterion). Used by the `micro` bench target.

use std::time::Instant;

/// One measured operation.
#[derive(Debug, Clone)]
pub struct Measurement {
    /// Benchmark name.
    pub name: String,
    /// Iterations timed (after warm-up).
    pub iters: usize,
    /// Total wall-clock seconds over `iters`.
    pub secs: f64,
    /// Throughput in operations per second.
    pub ops_per_sec: f64,
}

impl Measurement {
    /// Seconds per single operation.
    pub fn secs_per_op(&self) -> f64 {
        self.secs / self.iters.max(1) as f64
    }
}

/// Time `f`, adaptively choosing an iteration count so the measured window
/// is at least `min_secs` (one un-timed warm-up iteration first). The
/// closure must not be optimised away — return its result through
/// [`std::hint::black_box`] inside `f`.
pub fn time_op<F: FnMut()>(name: &str, min_secs: f64, mut f: F) -> Measurement {
    f(); // warm-up (page-in, allocator, branch predictors)
    let mut iters = 1usize;
    loop {
        let start = Instant::now();
        for _ in 0..iters {
            f();
        }
        let secs = start.elapsed().as_secs_f64();
        if secs >= min_secs || iters >= 1 << 20 {
            return Measurement {
                name: name.to_string(),
                iters,
                secs,
                ops_per_sec: iters as f64 / secs.max(1e-12),
            };
        }
        // Aim past the target window with headroom; at least double.
        let scale = (min_secs * 1.5 / secs.max(1e-9)).ceil() as usize;
        iters = (iters * scale.max(2)).min(1 << 20);
    }
}

/// Render measurements as an aligned text table.
pub fn print_measurements(title: &str, results: &[Measurement]) {
    println!("\n== {title} ==");
    let width = results
        .iter()
        .map(|m| m.name.len())
        .max()
        .unwrap_or(4)
        .max(4);
    println!(
        "{:width$}  {:>12}  {:>10}  {:>12}",
        "name", "ops/sec", "iters", "secs/op"
    );
    for m in results {
        println!(
            "{:width$}  {:>12.2}  {:>10}  {:>12.6}",
            m.name,
            m.ops_per_sec,
            m.iters,
            m.secs_per_op()
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_op_measures_and_scales() {
        let mut count = 0u64;
        let m = time_op("noop", 0.01, || {
            count += 1;
            std::hint::black_box(count);
        });
        assert!(m.iters >= 1);
        assert!(m.secs >= 0.01 || m.iters == 1 << 20);
        assert!(m.ops_per_sec > 0.0);
        assert!(m.secs_per_op() > 0.0);
        assert_eq!(m.name, "noop");
    }
}
