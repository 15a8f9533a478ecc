//! Morsel-driven parallelism: the worker pool the hot CPU kernels run on.
//!
//! The paper's CPU baseline is a multi-core Xeon; a serial scalar loop is
//! not an honest stand-in. A kernel hands this module the length of the
//! row stream it reads — the dense rows of a chunk or the position list of
//! a selection vector — and a closure over an index range of that stream
//! (a "morsel", after HyPer's morsel-driven parallelism). [`ParallelCtx`]
//! decides how many workers that many rows of that [`KernelClass`] are
//! worth, fans the morsels across a scoped pool (`std::thread::scope` — no
//! external dependencies) and hands the partial results back **in morsel
//! order**, so a kernel's output never depends on the worker count:
//!
//! * [`ParallelCtx::run_morsels`] returns one value per morsel (the
//!   per-morsel groupings of `ops::agg::aggregate`);
//! * [`ParallelCtx::run_morsels_arena`] is for kernels whose output is a
//!   flat position (or position-pair) stream — selection and the join
//!   probe: each worker appends every morsel it claims into **one reused
//!   [`MorselArena`]** instead of allocating a `Vec` per morsel, and the
//!   merge pre-sizes the final buffer from the per-worker counts and
//!   copies each morsel's span exactly once, in morsel order.
//!
//! With one effective worker the whole stream is a single morsel run on
//! the calling thread with no pool and no merge: that *is* the serial
//! kernel, so no kernel keeps a serial twin. Work is distributed by an
//! atomic next-morsel counter (work stealing): scheduling order is
//! nondeterministic, result order never is.
//!
//! Parallelism changes only real wall-clock time. Simulated virtual time
//! (`robustq-sim`) is computed from the cost model and is unaffected, and
//! because results are bit-identical, checksums and figures are too.

use std::cell::RefCell;
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::thread::LocalKey;

/// Default rows per morsel.
///
/// Large enough that per-morsel overhead (range bookkeeping, one small
/// `Vec` per morsel) is negligible, small enough that a 1M-row chunk still
/// splits into ~16 units for load balancing.
pub const DEFAULT_MORSEL_ROWS: usize = 65_536;

/// Default minimum rows each worker must have before fan-out pays off.
///
/// Below `2 ×` this, kernels run serially: thread spawn/join plus
/// per-morsel bookkeeping cost more than a second thread buys a kernel of
/// a few hundred thousand rows (set to 40 000, `ssb_scan_heavy`'s 180 k-row
/// probes fan out and a slice takes 58 ms instead of 42: EXPERIMENTS.md,
/// "Not the lever: fanning the probe out").
pub const DEFAULT_MIN_ROWS_PER_WORKER: usize = 524_288;

/// Kernel classes with distinct parallel break-even points.
///
/// Fan-out overhead is roughly constant, so how many rows amortize it
/// depends on per-row kernel cost: block-vectorized selection is the
/// cheapest per row and needs the most rows, hash-probe joins (a
/// dependent load per row) the fewest.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KernelClass {
    /// Predicate evaluation / selection-vector refinement.
    Selection,
    /// Hash-join build + probe.
    Join,
    /// Group-by aggregation.
    Aggregation,
}

/// How kernel work is spread across CPU worker threads.
///
/// `workers == 1` (the [`Default`]) runs every kernel on the calling
/// thread, which is what tests and the library default use. Any result is
/// bit-identical across all `workers`, `morsel_rows` and
/// `min_rows_per_worker` settings.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParallelCtx {
    /// Number of worker threads to fan kernel work across (≥ 1).
    pub workers: usize,
    /// Rows per morsel (≥ 1).
    pub morsel_rows: usize,
    /// Minimum rows of input per effective worker; inputs smaller than
    /// `2 × min_rows_per_worker` run serially. `0` disables the threshold
    /// (always fan out), which tests use to exercise parallel paths on
    /// tiny chunks.
    pub min_rows_per_worker: usize,
}

impl Default for ParallelCtx {
    fn default() -> Self {
        ParallelCtx::serial()
    }
}

impl ParallelCtx {
    /// Strictly serial execution.
    pub fn serial() -> Self {
        ParallelCtx {
            workers: 1,
            morsel_rows: DEFAULT_MORSEL_ROWS,
            min_rows_per_worker: DEFAULT_MIN_ROWS_PER_WORKER,
        }
    }

    /// One worker per available hardware thread.
    pub fn auto() -> Self {
        let workers =
            std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
        ParallelCtx::serial().with_workers(workers)
    }

    /// Set the worker count (clamped to ≥ 1).
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers.max(1);
        self
    }

    /// Set the morsel size in rows (clamped to ≥ 1).
    pub fn with_morsel_rows(mut self, rows: usize) -> Self {
        self.morsel_rows = rows.max(1);
        self
    }

    /// Set the serial-fallback threshold (`0` disables it).
    pub fn with_min_rows_per_worker(mut self, rows: usize) -> Self {
        self.min_rows_per_worker = rows;
        self
    }

    /// True if kernels run on the calling thread only.
    pub fn is_serial(&self) -> bool {
        self.workers <= 1
    }

    /// Class-scaled minimum rows per worker (cost-aware threshold):
    /// vectorized selection needs `2×` the base rows to amortize fan-out,
    /// aggregation breaks even at the base, and join probes at half of it.
    /// `min_rows_per_worker == 0` still disables thresholds entirely.
    fn min_rows_for(&self, class: KernelClass) -> usize {
        match class {
            KernelClass::Selection => self.min_rows_per_worker.saturating_mul(2),
            KernelClass::Aggregation => self.min_rows_per_worker,
            KernelClass::Join => self.min_rows_per_worker / 2,
        }
    }

    /// The one fan-out decision: how many threads a `class` kernel over a
    /// `rows`-row stream runs on. One unless at least two workers would
    /// each get the class's minimum rows; otherwise the
    /// [`ParallelCtx::fans_out`] caps apply.
    pub fn workers_for(&self, rows: usize, class: KernelClass) -> usize {
        if self.is_serial() || rows < self.min_rows_for(class).saturating_mul(2) {
            1
        } else {
            self.effective_workers(rows)
        }
    }

    /// True if an input of `rows` rows can fan out to more than one
    /// thread at all: eight requested workers on a single-core host, or
    /// fewer than `2 × min_rows_per_worker` rows, cannot.
    pub fn fans_out(&self, rows: usize) -> bool {
        self.effective_workers(rows) > 1
    }

    /// `workers`, capped so each thread gets
    /// [`ParallelCtx::min_rows_per_worker`] rows, by the hardware thread
    /// count — threads beyond the cores are pure scheduling overhead on a
    /// saturated host (the 10M-row kernel bench measured net slowdowns
    /// from oversubscription) — and by the morsel count. With the
    /// threshold disabled (`min_rows_per_worker == 0` — the test
    /// configuration) the first two caps are off, so the merge paths stay
    /// exercised even on single-core CI hosts.
    fn effective_workers(&self, rows: usize) -> usize {
        let cap = match self.min_rows_per_worker {
            0 => self.workers,
            min => {
                let hw = std::thread::available_parallelism()
                    .map(|n| n.get())
                    .unwrap_or(usize::MAX);
                (rows / min).max(1).min(hw)
            }
        };
        self.workers.min(cap).clamp(1, self.num_morsels(rows).max(1))
    }

    fn num_morsels(&self, rows: usize) -> usize {
        rows.div_ceil(self.morsel_rows.max(1))
    }

    /// The `i`-th morsel of a `rows`-row stream.
    fn morsel(&self, i: usize, rows: usize) -> Range<usize> {
        let start = i * self.morsel_rows.max(1);
        start..(start + self.morsel_rows.max(1)).min(rows)
    }

    /// Apply `f` to every morsel of a `rows`-row stream across
    /// [`ParallelCtx::workers_for`]`(rows, class)` threads and return the
    /// per-morsel results **in morsel order** (deterministic regardless of
    /// scheduling). The first error in morsel order is returned, matching
    /// what a serial left-to-right scan would report.
    ///
    /// With one worker the whole stream is a single morsel: `f` runs once,
    /// on the calling thread (and not at all for an empty stream).
    pub fn run_morsels<T, F>(
        &self,
        rows: usize,
        class: KernelClass,
        f: F,
    ) -> Result<Vec<T>, String>
    where
        T: Send,
        F: Fn(Range<usize>) -> Result<T, String> + Sync,
    {
        let workers = self.workers_for(rows, class);
        if workers == 1 {
            return (rows > 0).then(|| f(0..rows)).into_iter().collect();
        }
        let num_morsels = self.num_morsels(rows);
        let next = AtomicUsize::new(0);
        let done = pool(workers, || {
            let mut done: Vec<(usize, Result<T, String>)> = Vec::new();
            while let Some(i) = claim(&next, num_morsels) {
                done.push((i, f(self.morsel(i, rows))));
            }
            done
        });
        let mut slots: Vec<Option<Result<T, String>>> =
            (0..num_morsels).map(|_| None).collect();
        for (i, result) in done.into_iter().flatten() {
            slots[i] = Some(result);
        }
        slots
            .into_iter()
            .map(|slot| slot.expect("every morsel index was claimed"))
            .collect()
    }

    /// Like [`ParallelCtx::run_morsels`], but for kernels whose output is
    /// a flat stream: instead of one allocation per morsel, every worker
    /// appends into a single reused [`MorselArena`] and records the span
    /// each morsel produced. The spans are then concatenated — in morsel
    /// order, pre-sized from the per-worker counts — into one buffer, so
    /// the result is bit-identical to a serial left-to-right scan.
    ///
    /// With one worker a stream of at most one morsel fills the calling
    /// thread's reused arena ([`MorselArena::scratch`]) and the result is
    /// an exact-size copy of it: one allocation, never a doubling series,
    /// and no capacity held beyond what qualified. A longer stream's arena
    /// grows by what qualified and is the result itself.
    pub fn run_morsels_arena<A, F>(
        &self,
        rows: usize,
        class: KernelClass,
        f: F,
    ) -> Result<A, String>
    where
        A: MorselArena,
        F: Fn(Range<usize>, &mut A) -> Result<(), String> + Sync,
    {
        let workers = self.workers_for(rows, class);
        if workers == 1 {
            if rows == 0 {
                return Ok(A::default());
            }
            if rows > self.morsel_rows {
                let mut arena = A::default();
                f(0..rows, &mut arena)?;
                return Ok(arena);
            }
            return with_scratch(A::scratch(), |arena| {
                arena.clear();
                f(0..rows, arena).map(|()| arena.clone())
            });
        }

        // Each worker returns its arena, the (morsel index, span) list of
        // what it claimed, and its first error (after which it stops
        // claiming).
        let num_morsels = self.num_morsels(rows);
        let next = AtomicUsize::new(0);
        let parts = pool(workers, || {
            let mut arena = A::default();
            let mut spans: Vec<(usize, Range<usize>)> = Vec::new();
            let mut err = None;
            while let Some(i) = claim(&next, num_morsels) {
                let start = arena.len();
                match f(self.morsel(i, rows), &mut arena) {
                    Ok(()) => spans.push((i, start..arena.len())),
                    Err(e) => {
                        err = Some((i, e));
                        break;
                    }
                }
            }
            (arena, spans, err)
        });

        // First error in morsel order, matching a serial scan: the claim
        // counter is monotonic, so every index below the smallest reported
        // error index was claimed and completed Ok (had it errored, it
        // would be the smaller report).
        if let Some((_, e)) = parts
            .iter()
            .filter_map(|(_, _, err)| err.as_ref())
            .min_by_key(|(i, _)| *i)
        {
            return Err(e.clone());
        }

        // Merge: pre-size the output from the per-worker counts, then
        // copy each morsel's span exactly once, in morsel order.
        let mut slots: Vec<Option<(usize, Range<usize>)>> = vec![None; num_morsels];
        let mut total = 0usize;
        for (w, (_, spans, _)) in parts.iter().enumerate() {
            for (i, span) in spans {
                total += span.len();
                slots[*i] = Some((w, span.clone()));
            }
        }
        let mut out = A::default();
        out.reserve(total);
        for slot in slots {
            let (w, span) = slot.expect("every morsel index was claimed");
            out.append_range(&parts[w].0, span);
        }
        Ok(out)
    }
}

/// Run `f` on the calling thread's reused buffer in `slot`: kernel
/// buffers sized by their input (keys, positions) allocate once per thread
/// instead of once per call. `mem::take` rather than holding the borrow,
/// so a kernel nested in `f` would simply see a fresh buffer.
pub(crate) fn with_scratch<T: Default, R>(
    slot: &'static LocalKey<RefCell<T>>,
    f: impl FnOnce(&mut T) -> R,
) -> R {
    slot.with(|cell| {
        let mut scratch = std::mem::take(&mut *cell.borrow_mut());
        let result = f(&mut scratch);
        *cell.borrow_mut() = scratch;
        result
    })
}

/// Work stealing: claim the next unclaimed morsel index, if any is left.
fn claim(next: &AtomicUsize, num_morsels: usize) -> Option<usize> {
    let i = next.fetch_add(1, Ordering::Relaxed);
    (i < num_morsels).then_some(i)
}

/// Run `work` on `workers` scoped threads and return what each produced
/// (a worker's panic resumes on the calling thread).
fn pool<W: Send>(workers: usize, work: impl Fn() -> W + Sync) -> Vec<W> {
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers).map(|_| scope.spawn(&work)).collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|p| std::panic::resume_unwind(p)))
            .collect()
    })
}

/// A per-worker output buffer [`ParallelCtx::run_morsels_arena`] can
/// append into and concatenate deterministically: a flat growable stream
/// where a morsel's output is the contiguous span it appended. `clone`
/// copies exactly the items held.
pub trait MorselArena: Default + Clone + Send + 'static {
    /// Items currently in the buffer (span endpoints index into this).
    fn len(&self) -> usize;

    /// True if the buffer holds no items.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drop every item, keeping the capacity.
    fn clear(&mut self);

    /// Pre-size for exactly `n` more items.
    fn reserve(&mut self, n: usize);

    /// Append `src[range]` onto `self`.
    fn append_range(&mut self, src: &Self, range: Range<usize>);

    /// The calling thread's reused arena of this type.
    fn scratch() -> &'static LocalKey<RefCell<Self>>;
}

thread_local! {
    static POSITIONS: RefCell<Vec<u32>> = const { RefCell::new(Vec::new()) };
    static PAIRS: RefCell<(Vec<u32>, Vec<u32>)> = const { RefCell::new((Vec::new(), Vec::new())) };
}

/// One stream of positions (a selection, a semi or anti join).
impl MorselArena for Vec<u32> {
    fn len(&self) -> usize {
        self.as_slice().len()
    }

    fn clear(&mut self) {
        Vec::clear(self);
    }

    fn reserve(&mut self, n: usize) {
        Vec::reserve_exact(self, n);
    }

    fn append_range(&mut self, src: &Self, range: Range<usize>) {
        self.extend_from_slice(&src[range]);
    }

    fn scratch() -> &'static LocalKey<RefCell<Self>> {
        &POSITIONS
    }
}

/// Two streams appended in lockstep (probe/build position pairs).
impl MorselArena for (Vec<u32>, Vec<u32>) {
    fn len(&self) -> usize {
        self.0.len()
    }

    fn clear(&mut self) {
        self.0.clear();
        self.1.clear();
    }

    fn reserve(&mut self, n: usize) {
        self.0.reserve_exact(n);
        self.1.reserve_exact(n);
    }

    fn append_range(&mut self, src: &Self, range: Range<usize>) {
        self.0.extend_from_slice(&src.0[range.clone()]);
        self.1.extend_from_slice(&src.1[range]);
    }

    fn scratch() -> &'static LocalKey<RefCell<Self>> {
        &PAIRS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const CLASS: KernelClass = KernelClass::Selection;

    fn ctx(workers: usize, morsel: usize) -> ParallelCtx {
        // Threshold disabled so tiny inputs still exercise the pool.
        ParallelCtx { workers, morsel_rows: morsel, min_rows_per_worker: 0 }
    }

    #[test]
    fn run_morsels_preserves_order_and_covers_all_rows() {
        let c = ctx(4, 10);
        let parts = c.run_morsels(95, CLASS, |r| Ok(r.clone())).unwrap();
        assert_eq!(parts.len(), 10);
        assert_eq!(parts[0], 0..10);
        assert_eq!(parts[9], 90..95);
        let total: usize = parts.iter().map(|r| r.len()).sum();
        assert_eq!(total, 95);
    }

    #[test]
    fn one_worker_runs_the_stream_as_a_single_morsel() {
        let parts = ctx(1, 10).run_morsels(95, CLASS, |r| Ok(r.clone())).unwrap();
        assert_eq!(parts, vec![0..95]);
        let out: Vec<u32> = ctx(1, 10)
            .run_morsels_arena(95, CLASS, |r, out: &mut Vec<u32>| {
                assert_eq!(r, 0..95);
                out.extend(r.map(|i| i as u32));
                Ok(())
            })
            .unwrap();
        assert_eq!(out, (0..95).collect::<Vec<u32>>());
    }

    #[test]
    fn empty_input_runs_no_morsel() {
        for workers in [1, 4] {
            let parts = ctx(workers, 8).run_morsels(0, CLASS, |r| Ok(r.len())).unwrap();
            assert!(parts.is_empty());
            let out: Vec<u32> = ctx(workers, 8)
                .run_morsels_arena(0, CLASS, |_r, _out: &mut Vec<u32>| {
                    panic!("no morsels to run")
                })
                .unwrap();
            assert!(out.is_empty());
        }
    }

    #[test]
    fn run_morsels_reports_first_error_in_morsel_order() {
        let c = ctx(4, 1);
        let err = c
            .run_morsels(10, CLASS, |r| {
                if r.start >= 3 {
                    Err(format!("boom at {}", r.start))
                } else {
                    Ok(r.start)
                }
            })
            .unwrap_err();
        assert_eq!(err, "boom at 3");
    }

    #[test]
    fn run_morsels_arena_concatenates_in_morsel_order() {
        let c = ctx(4, 10);
        let out: Vec<u32> = c
            .run_morsels_arena(95, CLASS, |r, out: &mut Vec<u32>| {
                out.extend(r.map(|i| i as u32));
                Ok(())
            })
            .unwrap();
        assert_eq!(out, (0..95).collect::<Vec<u32>>());
    }

    #[test]
    fn run_morsels_arena_reports_first_error_in_morsel_order() {
        let err = ctx(4, 1)
            .run_morsels_arena(10, CLASS, |r, out: &mut Vec<u32>| {
                if r.start >= 3 {
                    Err(format!("boom at {}", r.start))
                } else {
                    out.push(r.start as u32);
                    Ok(())
                }
            })
            .unwrap_err();
        assert_eq!(err, "boom at 3");
    }

    #[test]
    fn run_morsels_arena_pair_stays_in_lockstep() {
        let (a, b): (Vec<u32>, Vec<u32>) = ctx(3, 7)
            .run_morsels_arena(50, CLASS, |r, out: &mut (Vec<u32>, Vec<u32>)| {
                for i in r {
                    out.0.push(i as u32);
                    out.1.push(2 * i as u32);
                }
                Ok(())
            })
            .unwrap();
        assert_eq!(a, (0..50).collect::<Vec<u32>>());
        assert_eq!(b, (0..50).map(|i| 2 * i).collect::<Vec<u32>>());
    }

    #[test]
    fn default_ctx_is_serial() {
        assert!(ParallelCtx::default().is_serial());
        assert!(ParallelCtx::serial().is_serial());
        assert!(!ParallelCtx::serial().with_workers(4).is_serial());
        assert!(ParallelCtx::auto().workers >= 1);
    }

    #[test]
    fn min_rows_threshold_keeps_small_inputs_on_one_worker() {
        use KernelClass::{Aggregation, Join, Selection};
        let c = ParallelCtx::serial().with_workers(8);
        // 1M rows: below 2 × 524 288 per aggregation worker, above the
        // join's halved threshold (the hardware cap may still say 1).
        assert_eq!(c.workers_for(1_000_000, Aggregation), 1);
        assert_eq!(c.workers_for(1_000_000, Selection), 1);
        assert_eq!(c.workers_for(1_000_000, Join) > 1, c.fans_out(1_000_000));
        assert_eq!(ParallelCtx::serial().workers_for(10_000_000, Join), 1);
        // Threshold disabled: any multi-worker input fans out, capped by
        // the morsel count.
        let open = c.with_min_rows_per_worker(0).with_morsel_rows(4);
        assert_eq!(open.workers_for(10, Selection), 3);
        assert!(open.fans_out(10));
        // A thresholded run still covers every row.
        let parts = c
            .with_morsel_rows(100)
            .run_morsels(1_000, Aggregation, |r| Ok(r.len()))
            .unwrap();
        assert_eq!(parts.iter().sum::<usize>(), 1_000);
    }
}
