//! # arda-par
//!
//! The workspace-wide parallel execution substrate. Every parallel hot path
//! in the ARDA reproduction — forest fit and predict and featurization
//! (`arda-ml`), RIFS ensemble rounds, the τ-threshold sweep and Relief's
//! anchors (`arda-select`), `.arda` encode and decode (`arda-table`), join
//! discovery (`arda-discovery`) and join-plan batches (`arda-core`) —
//! funnels through the primitives in this crate instead of hand-rolling
//! threads. Joins, group-by, k-NN scans, CSV parsing and the `arda-linalg`
//! matrix kernels run on the calling thread: in `Arda::run` they see a
//! coreset of the base (at most 2 000 rows by default), one shard or one
//! RIFS round's design matrix, and their callers already fan out.
//!
//! ## The work-budget model
//!
//! ARDA's stages are embarrassingly parallel at several nesting levels at
//! once, e.g. join-plan batches × RIFS injection rounds × forest fits.
//! Letting every level spawn its own
//! full complement of workers oversubscribes the machine; pinning inner
//! levels to one worker (the pre-budget approach) starves them whenever the
//! outer level happens to be narrow.
//!
//! A [`Budget`] solves both ends. It combines
//!
//! * a **permit pool** shared by the whole process: the global pool holds
//!   `default_threads() - 1` *spawn permits* (the calling thread is always
//!   the `+1`). A primitive may only spawn a worker while it holds a
//!   [`Permit`]; permits are RAII guards, so a worker that panics or exits
//!   early returns its permit immediately. Total live workers therefore
//!   never exceed the budget, at any nesting depth.
//! * a **nominal width**: the share of the machine this stage should *plan*
//!   for. Chunk layout is computed from the width alone — never from how
//!   many permits were actually granted — so a run that finds the pool
//!   drained produces chunk-for-chunk the same work decomposition (and
//!   bit-identical output) as one that got every permit.
//!
//! [`Budget::split`]`(n)` derives the width a stage should hand each of its
//! `n` concurrent children (`max(1, width / n)`); the children share the
//! parent's pool, so splitting never mints new permits. The primitives do
//! this automatically: a worker executing the body of [`par_map`] sees an
//! *ambient* budget of `width / slots` via [`current_budget`], which every
//! nested primitive picks up. An 8-wide budget fanned over 4 RIFS rounds
//! gives each round's forest fit a 2-wide budget, while a stage with a
//! single child keeps all 8. Never pin inner stages to 1 worker "to be safe": the
//! pool already guarantees no oversubscription, and the pin wastes budget
//! when the outer fan-out is narrow.
//!
//! ## Design
//!
//! * **Dependency-free.** Built only on [`std::thread::scope`]; workers are
//!   spawned per call and joined before the call returns, so there is no
//!   pool state beyond three atomics, no channels and nothing to shut down.
//! * **Deterministic ordering.** Inputs are split into *contiguous, ordered
//!   chunks*; chunk boundaries depend only on the budget's nominal width.
//!   Workers pull whole chunks from a shared cursor and results are
//!   stitched back together in chunk order. A caller therefore observes the
//!   exact same output `Vec` (bit-for-bit, including floating-point
//!   accumulation order within an element) no matter how many workers ran.
//!   All parallel call sites in the workspace are written so that
//!   *per-element* work is independent, which makes "parallel output ==
//!   sequential output" an invariant the test suite asserts across budgets
//!   {1, 2, 3, 8} (`tests/budget_determinism.rs`, `tests/par_determinism.rs`).
//! * **One knob.** The global budget size is read **once** from the
//!   `ARDA_THREADS` environment variable (falling back to
//!   [`std::thread::available_parallelism`]). Nothing else sets it: the
//!   primitives take no worker count and always run on the ambient budget.
//!   Tests and benchmarks that need a different width in-process scope one
//!   with [`Budget::isolated`]`(w).`[`install`](Budget::install)`(|| …)`,
//!   which leaves the process-wide budget untouched.
//!
//! ## Choosing a primitive
//!
//! | Shape of work | Primitive |
//! |---|---|
//! | independent items → owned results | [`par_map`] |
//! | a call too small to be worth a spawn | wrap it in [`sequential_below`] |
//!
//! ```
//! use arda_par::{par_map, Budget};
//!
//! // On the ambient budget (`ARDA_THREADS` at top level).
//! let squares = par_map(&[1u64, 2, 3, 4], |_, &x| x * x);
//! assert_eq!(squares, vec![1, 4, 9, 16]);
//!
//! // A scoped budget with its own permit pool, for tests and benchmarks:
//! // the output is the same at any width.
//! let budget = Budget::isolated(4);
//! let doubled = budget.install(|| par_map(&[1u64, 2, 3], |_, &x| x * 2));
//! assert_eq!(doubled, vec![2, 4, 6]);
//! ```

use std::cell::RefCell;
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

/// The global budget size: `ARDA_THREADS` if set to a positive integer,
/// otherwise the machine's available parallelism. Read once and cached.
pub fn default_threads() -> usize {
    static DEFAULT: OnceLock<usize> = OnceLock::new();
    *DEFAULT.get_or_init(|| {
        std::env::var("ARDA_THREADS")
            .ok()
            .and_then(|s| s.trim().parse::<usize>().ok())
            .filter(|&n| n > 0)
            .unwrap_or_else(|| {
                std::thread::available_parallelism()
                    .map(|n| n.get())
                    .unwrap_or(1)
            })
    })
}

// ---------------------------------------------------------------------------
// Permit pool
// ---------------------------------------------------------------------------

/// A pool of spawn permits. `live` counts *extra* workers currently alive
/// (the calling thread never holds a permit), so the total worker count is
/// bounded by `capacity + 1 == budget`.
#[derive(Debug)]
struct Pool {
    /// Spawned workers currently live.
    live: AtomicUsize,
    /// High-water mark of `live` since the last counter reset.
    peak: AtomicUsize,
    /// Permits granted since the last counter reset.
    spawns: AtomicUsize,
    /// Spawn permits this pool can hand out at once.
    capacity: usize,
}

impl Pool {
    fn new(capacity: usize) -> Pool {
        Pool {
            live: AtomicUsize::new(0),
            peak: AtomicUsize::new(0),
            spawns: AtomicUsize::new(0),
            capacity,
        }
    }

    fn try_spawn(self: &Arc<Self>) -> Option<Permit> {
        let mut cur = self.live.load(Ordering::Relaxed);
        loop {
            if cur >= self.capacity {
                return None;
            }
            match self
                .live
                .compare_exchange_weak(cur, cur + 1, Ordering::AcqRel, Ordering::Relaxed)
            {
                Ok(_) => {
                    self.peak.fetch_max(cur + 1, Ordering::AcqRel);
                    self.spawns.fetch_add(1, Ordering::Relaxed);
                    return Some(Permit {
                        pool: Arc::clone(self),
                    });
                }
                Err(observed) => cur = observed,
            }
        }
    }
}

fn global_pool() -> &'static Arc<Pool> {
    static POOL: OnceLock<Arc<Pool>> = OnceLock::new();
    POOL.get_or_init(|| Arc::new(Pool::new(default_threads() - 1)))
}

/// RAII guard for one spawned worker. Dropping it — on normal worker exit,
/// early return, or unwind after a panic — returns the permit to the pool.
#[derive(Debug)]
pub struct Permit {
    pool: Arc<Pool>,
}

impl Drop for Permit {
    fn drop(&mut self) {
        self.pool.live.fetch_sub(1, Ordering::AcqRel);
    }
}

// ---------------------------------------------------------------------------
// Budget
// ---------------------------------------------------------------------------

/// A work budget: a nominal planning `width` plus a handle on the permit
/// pool that actually bounds spawning. See the crate docs for the model.
#[derive(Debug, Clone)]
pub struct Budget {
    pool: Arc<Pool>,
    width: usize,
}

impl Budget {
    /// The process-wide budget: width [`default_threads`], permits from the
    /// global pool.
    pub fn global() -> Budget {
        Budget {
            pool: Arc::clone(global_pool()),
            width: default_threads(),
        }
    }

    /// A budget with its own private permit pool of `width - 1` spawn
    /// permits. For tests and benchmarks that must not share permits with
    /// the rest of the process; run work on it with [`Budget::install`].
    pub fn isolated(width: usize) -> Budget {
        let width = width.max(1);
        Budget {
            pool: Arc::new(Pool::new(width - 1)),
            width,
        }
    }

    /// Nominal planning width (≥ 1). Chunk layouts derive from this alone.
    pub fn width(&self) -> usize {
        self.width
    }

    /// The budget each of `stages` concurrent children should plan with:
    /// same pool, width `max(1, width / stages)`. Deterministic — it never
    /// looks at pool occupancy.
    pub fn split(&self, stages: usize) -> Budget {
        Budget {
            pool: Arc::clone(&self.pool),
            width: (self.width / stages.max(1)).max(1),
        }
    }

    /// Run `f` with this budget as the calling thread's ambient budget (what
    /// [`current_budget`] and every primitive inside `f` see), restoring the
    /// previous ambient afterwards, also on unwind.
    pub fn install<R>(&self, f: impl FnOnce() -> R) -> R {
        struct Restore(Option<Budget>);
        impl Drop for Restore {
            fn drop(&mut self) {
                let prev = self.0.take();
                AMBIENT.with(|a| *a.borrow_mut() = prev);
            }
        }
        let prev = AMBIENT.with(|a| a.replace(Some(self.clone())));
        let _restore = Restore(prev);
        f()
    }

    /// Try to reserve one spawn permit. Non-blocking: `None` means the pool
    /// is at capacity and the caller should do the work inline instead.
    pub fn try_spawn(&self) -> Option<Permit> {
        self.pool.try_spawn()
    }

    /// Spawned workers currently live in this budget's pool.
    pub fn live_workers(&self) -> usize {
        self.pool.live.load(Ordering::Acquire)
    }

    /// High-water mark of live spawned workers since the last reset. The
    /// oversubscription invariant is `peak_workers() + 1 <= budget`.
    pub fn peak_workers(&self) -> usize {
        self.pool.peak.load(Ordering::Acquire)
    }

    /// Permits granted since the last reset (instrumentation: proves the
    /// parallel paths actually engaged).
    pub fn total_spawns(&self) -> usize {
        self.pool.spawns.load(Ordering::Acquire)
    }

    /// Reset the `peak` / `spawns` instrumentation counters (peak resets to
    /// the current live count).
    pub fn reset_counters(&self) {
        self.pool
            .peak
            .store(self.pool.live.load(Ordering::Acquire), Ordering::Release);
        self.pool.spawns.store(0, Ordering::Release);
    }
}

/// High-water mark of live spawned workers in the global pool since the
/// last [`reset_spawn_counters`]. Total concurrent workers (spawned +
/// calling thread) never exceed `peak_spawned_workers() + 1`.
pub fn peak_spawned_workers() -> usize {
    Budget::global().peak_workers()
}

/// Reset the global pool's instrumentation counters.
pub fn reset_spawn_counters() {
    Budget::global().reset_counters();
}

// ---------------------------------------------------------------------------
// Ambient budget propagation
// ---------------------------------------------------------------------------

thread_local! {
    static AMBIENT: RefCell<Option<Budget>> = const { RefCell::new(None) };
}

/// The budget ambient on this thread: the one installed by the enclosing
/// primitive or [`Budget::install`], or [`Budget::global`] at top level.
pub fn current_budget() -> Budget {
    AMBIENT
        .with(|a| a.borrow().clone())
        .unwrap_or_else(Budget::global)
}

/// The shared small-input policy for every parallel hot path: run `f`
/// sequentially — under a width-1 share of the ambient budget's pool — when
/// it touches fewer than `min_work` work units (thread spawn would
/// dominate), and on the ambient budget itself otherwise. `min_work` is
/// clamped to at least 1, so `work == 0` never plans a full budget's worth
/// of workers for nothing.
pub fn sequential_below<R>(work: usize, min_work: usize, f: impl FnOnce() -> R) -> R {
    if work < min_work.max(1) {
        current_budget().split(usize::MAX).install(f)
    } else {
        f()
    }
}

// ---------------------------------------------------------------------------
// Primitives (all on the ambient budget)
// ---------------------------------------------------------------------------

/// Map `f` over `items` on the ambient budget, returning results in input
/// order. `f` receives the item's index, so callers can derive per-item
/// seeds. Items are chunked, spawned and stitched like rows of a row
/// fan-out over `items.len()` rows, so the output is identical to the
/// sequential `items.iter().enumerate().map(..)` for any budget and any
/// permit availability.
pub fn par_map<T, U, F>(items: &[T], f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(usize, &T) -> U + Sync,
{
    par_for_rows(items.len(), |range| {
        let lo = range.start;
        items[range]
            .iter()
            .enumerate()
            .map(|(j, t)| f(lo + j, t))
            .collect()
    })
}

/// Split `0..n_rows` into `min(width, n_rows)` contiguous ranges under the
/// ambient budget, run `f` on each range concurrently and concatenate the
/// returned blocks in range order.
///
/// The caller plus up to `chunks - 1` permitted workers pull whole ranges
/// from a shared cursor; range boundaries are fixed by the width alone, so
/// the concatenation is deterministic for any budget. Each range body runs
/// with the ambient budget set to `budget.split(chunks)`.
fn par_for_rows<U, F>(n_rows: usize, f: F) -> Vec<U>
where
    U: Send,
    F: Fn(Range<usize>) -> Vec<U> + Sync,
{
    let budget = current_budget();
    let slots = budget.width().min(n_rows.max(1)).max(1);
    let inner = budget.split(slots);
    if slots <= 1 {
        return inner.install(|| f(0..n_rows));
    }
    let chunk = n_rows.div_ceil(slots);
    let n_chunks = n_rows.div_ceil(chunk);
    let permits: Vec<Permit> = (1..n_chunks).map_while(|_| budget.try_spawn()).collect();
    if permits.is_empty() {
        return inner.install(|| f(0..n_rows));
    }
    let next = AtomicUsize::new(0);
    // Pull whole chunks until the cursor runs out; chunk boundaries are
    // fixed by `slots`, only the chunk→worker assignment is dynamic.
    let run_chunks = || {
        let mut parts: Vec<(usize, Vec<U>)> = Vec::new();
        loop {
            let ci = next.fetch_add(1, Ordering::Relaxed);
            if ci >= n_chunks {
                return parts;
            }
            // Both ends clamp so a trailing chunk gets an empty range
            // (never an inverted one) when `chunk` over-covers `n_rows`.
            let lo = (ci * chunk).min(n_rows);
            let hi = ((ci + 1) * chunk).min(n_rows);
            parts.push((ci, f(lo..hi)));
        }
    };
    std::thread::scope(|scope| {
        let handles: Vec<_> = permits
            .into_iter()
            .map(|permit| {
                let run_chunks = &run_chunks;
                let inner = &inner;
                scope.spawn(move || {
                    let _permit = permit;
                    inner.install(run_chunks)
                })
            })
            .collect();
        let run_chunks = &run_chunks;
        let mut parts = inner.install(run_chunks);
        for h in handles {
            parts.extend(h.join().expect("par_for_rows worker panicked"));
        }
        parts.sort_unstable_by_key(|(ci, _)| *ci);
        let mut out = Vec::with_capacity(n_rows);
        for (_, mut p) in parts {
            out.append(&mut p);
        }
        out
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn par_map_preserves_order_across_thread_counts() {
        let items: Vec<u64> = (0..1000).collect();
        let expected: Vec<u64> = items.iter().map(|&x| x * 3 + 1).collect();
        for width in [1, 2, 3, 8, 64] {
            let b = Budget::isolated(width);
            let got = b.install(|| {
                par_map(&items, |i, &x| {
                    assert_eq!(i as u64, x, "index matches item position");
                    x * 3 + 1
                })
            });
            assert_eq!(got, expected, "width={width}");
            assert_eq!(b.total_spawns() > 0, width > 1, "width={width}");
        }
    }

    #[test]
    fn par_map_edge_cases() {
        Budget::isolated(4).install(|| {
            let empty: Vec<u32> = Vec::new();
            assert!(par_map(&empty, |_, &x| x).is_empty());
            assert_eq!(par_map(&[7u32], |_, &x| x + 1), vec![8]);
        });
        // A wider budget than items.
        let got = Budget::isolated(16).install(|| par_map(&[1u32, 2], |_, &x| x));
        assert_eq!(got, vec![1, 2]);
    }

    #[test]
    fn par_map_chunks_like_par_for_rows() {
        // `par_map` is a mapping over `par_for_rows`: for every length and
        // width both plan the same chunks, hand each chunk body the same
        // ambient split and spawn the same number of workers.
        for n in 0..40usize {
            for width in [1usize, 2, 3, 5, 8] {
                let (a, b) = (Budget::isolated(width), Budget::isolated(width));
                let items: Vec<usize> = (0..n).collect();
                let by_item = a.install(|| par_map(&items, |_, _| current_budget().width()));
                let by_row =
                    b.install(|| par_for_rows(n, |r| vec![current_budget().width(); r.len()]));
                assert_eq!(by_item, by_row, "n={n} width={width}");
                assert_eq!(a.total_spawns(), b.total_spawns(), "n={n} width={width}");
            }
        }
    }

    #[test]
    fn par_for_rows_concatenates_in_range_order() {
        for width in [1, 2, 5, 8] {
            let out = Budget::isolated(width)
                .install(|| par_for_rows(103, |range| range.collect::<Vec<usize>>()));
            assert_eq!(out, (0..103).collect::<Vec<_>>(), "width={width}");
        }
        let empty = Budget::isolated(4).install(|| par_for_rows(0, |r| r.collect::<Vec<usize>>()));
        assert!(empty.is_empty());
    }

    #[test]
    fn par_for_rows_never_hands_out_inverted_ranges() {
        // 5 rows over width 4: chunk = 2, the last chunk's span starts past
        // n_rows and must clamp to an empty range, not 6..5.
        let out = Budget::isolated(4).install(|| {
            par_for_rows(5, |range| {
                assert!(range.start <= range.end, "inverted range {range:?}");
                let v: Vec<usize> = (range.start..range.end).collect();
                // Slicing with the range must also be safe.
                let data = [0usize, 1, 2, 3, 4];
                assert_eq!(&data[range], v.as_slice());
                v
            })
        });
        assert_eq!(out, vec![0, 1, 2, 3, 4]);
    }

    // ---- Budget unit tests -------------------------------------------------

    #[test]
    fn budget_split_arithmetic() {
        let b = Budget::isolated(8);
        assert_eq!(b.width(), 8);
        assert_eq!(b.split(1).width(), 8);
        assert_eq!(b.split(2).width(), 4);
        assert_eq!(b.split(3).width(), 2);
        assert_eq!(b.split(8).width(), 1);
        assert_eq!(b.split(9).width(), 1, "splits never go below 1");
        assert_eq!(b.split(0).width(), 8, "0 stages clamps to 1");
        // Splits of splits keep dividing and share the pool.
        assert_eq!(b.split(2).split(2).width(), 2);
        assert_eq!(Budget::isolated(0).width(), 1, "zero width clamps to 1");
    }

    #[test]
    fn permits_are_bounded_and_returned_on_drop() {
        let b = Budget::isolated(3); // 2 spawn permits
        let p1 = b.try_spawn().expect("first permit");
        let p2 = b.try_spawn().expect("second permit");
        assert!(b.try_spawn().is_none(), "pool exhausted at width - 1");
        assert_eq!(b.live_workers(), 2);
        drop(p1);
        assert_eq!(b.live_workers(), 1);
        let p3 = b.try_spawn().expect("permit returned by drop is reusable");
        drop(p2);
        drop(p3);
        assert_eq!(b.live_workers(), 0);
        assert_eq!(b.peak_workers(), 2);
        assert_eq!(b.total_spawns(), 3);
        b.reset_counters();
        assert_eq!(b.peak_workers(), 0);
        assert_eq!(b.total_spawns(), 0);
    }

    #[test]
    fn split_budgets_share_one_pool() {
        let b = Budget::isolated(4); // 3 permits shared by every split
        let child = b.split(2);
        let _p1 = child.try_spawn().unwrap();
        let _p2 = child.try_spawn().unwrap();
        let _p3 = b.try_spawn().unwrap();
        assert!(b.try_spawn().is_none());
        assert!(child.try_spawn().is_none(), "children drain the same pool");
        assert_eq!(b.live_workers(), 3);
    }

    #[test]
    fn zero_and_one_permit_budgets_run_sequentially() {
        for width in [0usize, 1] {
            let b = Budget::isolated(width);
            let out = b.install(|| par_map(&[1u32, 2, 3], |_, &x| x * 10));
            assert_eq!(out, vec![10, 20, 30]);
            assert_eq!(b.total_spawns(), 0, "width {width} must not spawn");
            assert_eq!(b.live_workers(), 0);
        }
    }

    #[test]
    fn permit_returned_when_worker_panics() {
        let b = Budget::isolated(4);
        let items: Vec<u32> = (0..64).collect();
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            b.install(|| {
                par_map(&items, |i, &x| {
                    if i == 40 {
                        panic!("boom");
                    }
                    x
                })
            })
        }));
        assert!(result.is_err(), "worker panic propagates");
        assert_eq!(b.live_workers(), 0, "permits returned after panic unwind");
        assert_eq!(
            current_budget().width(),
            default_threads(),
            "install restores the ambient budget on unwind"
        );
    }

    #[test]
    fn budget_peak_never_exceeds_width_minus_one() {
        let b = Budget::isolated(4);
        let items: Vec<u64> = (0..256).collect();
        let expected: Vec<u64> = items.iter().map(|&x| x * x).collect();
        for _ in 0..8 {
            assert_eq!(b.install(|| par_map(&items, |_, &x| x * x)), expected);
        }
        assert!(b.peak_workers() <= 3, "peak {} > 3", b.peak_workers());
        assert_eq!(b.live_workers(), 0);
    }

    #[test]
    fn nested_calls_inherit_split_ambient_budget() {
        let b = Budget::isolated(8);
        b.install(|| {
            // 2 slots → each item body plans with width 8 / 2 = 4.
            let widths = par_map(&[0u8, 1], |_, _| current_budget().width());
            assert_eq!(widths, vec![4, 4]);
            // A lone item keeps the whole budget.
            let widths = par_map(&[0u8], |_, _| current_budget().width());
            assert_eq!(widths, vec![8]);
            // A nested par_map picks the ambient split up and splits again;
            // results stay ordered.
            let out = par_map(&[10u64, 20], |_, &base| {
                let inner: Vec<u64> = par_map(&[1u64, 2, 3], |_, &x| base + x);
                inner
            });
            assert_eq!(out, vec![vec![11, 12, 13], vec![21, 22, 23]]);
        });
        assert_eq!(b.live_workers(), 0);
    }

    #[test]
    fn sequential_below_clamps_empty_work() {
        let width = |work, min_work| sequential_below(work, min_work, || current_budget().width());
        Budget::isolated(8).install(|| {
            // work = 0 must never plan with the full budget, even with the
            // degenerate min_work = 0.
            assert_eq!(width(0, 0), 1);
            assert_eq!(width(0, 100), 1);
            // At or above the (clamped) threshold → the ambient budget.
            assert_eq!(width(1, 0), 8);
            assert_eq!(width(100, 100), 8);
            assert_eq!(width(99, 100), 1);
        });
    }

    #[test]
    fn sequential_below_feeds_budget_planning() {
        let b = Budget::isolated(4);
        b.install(|| {
            // Small work → one band, no spawns.
            let rows = sequential_below(10, 1000, || par_for_rows(10, |r| vec![r]));
            assert_eq!(rows, vec![0..10]);
            assert_eq!(b.total_spawns(), 0);
            // ... but still the same pool: a permit taken inside is the
            // outer budget's.
            sequential_below(10, 1000, || {
                let _p = current_budget().try_spawn().expect("shared pool");
                assert_eq!(b.live_workers(), 1);
            });
            // Large work → the ambient width.
            let rows = sequential_below(10_000, 1000, || par_for_rows(10, |r| vec![r]));
            assert_eq!(rows.len(), 4);
        });
    }

    #[test]
    fn budget_outputs_identical_across_widths_and_split_shapes() {
        let items: Vec<u64> = (0..145).collect();
        let reference: Vec<u64> = items
            .iter()
            .enumerate()
            .map(|(i, x)| x * 7 + i as u64)
            .collect();
        let run = |b: &Budget| b.install(|| par_map(&items, |i, &x| x * 7 + i as u64));
        for width in [1usize, 2, 3, 8] {
            let b = Budget::isolated(width);
            assert_eq!(run(&b), reference, "width={width}");
            for stages in [1usize, 2, 5] {
                assert_eq!(
                    run(&b.split(stages)),
                    reference,
                    "width={width} split={stages}"
                );
            }
        }
    }

    #[test]
    fn par_for_rows_and_chunks_mut_budget_variants_deterministic() {
        for width in [1usize, 2, 3, 8] {
            let b = Budget::isolated(width);
            let rows = b.install(|| par_for_rows(103, |r| r.collect::<Vec<usize>>()));
            assert_eq!(rows, (0..103).collect::<Vec<_>>(), "width={width}");
            assert_eq!(b.live_workers(), 0, "width={width}");
        }
    }
}
