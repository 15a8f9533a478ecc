//! The discrete-event core: simulation state and the event loop.
//!
//! `Sim` owns the whole per-run state — task graph, device runtimes,
//! heaps, caches, links, fault plan, metrics and tracer — and drains the
//! event queue until the workload completes. The surrounding layers
//! contribute focused `impl Sim` blocks:
//!
//! * `device_rt` — per-device ready queues, worker slots and the
//!   processor-sharing compute sets,
//! * `transfer` — interconnect staging and cache consults,
//! * `memory` — staged heap allocation, aborts and completions,
//! * `admission` — session lifecycle and admission control.

use crate::batch::LazyChunk;
use crate::error::EngineError;
use crate::exec::device_rt::DeviceSet;
use crate::exec::executor::{Arrival, ExecOptions, RunOutcome};
use crate::exec::memory::HeapSet;
use crate::exec::metrics::{FaultCounters, QueryOutcome, RunMetrics, StagingStats};
use crate::exec::model::ModelUpdate;
use crate::exec::policy::{PlacementPolicy, TaskInfo};
use crate::exec::task::{Role, Window};
use crate::plan::{Op, PlanNode};
use robustq_sim::{
    CacheSet, CostModel as SimCostModel, DeviceId, Direction, EventQueue, FaultPlan,
    Interconnect, OpClass, SimConfig, VirtualTime,
};
use robustq_storage::{ColumnId, Database};
use robustq_trace::{TraceEvent, Tracer};
use std::collections::{BTreeMap, VecDeque};
use std::ops::{Index, IndexMut};
use std::sync::Arc;

pub(crate) struct TaskState {
    /// The operator, shared with the plan the query was admitted from.
    pub(crate) op: Arc<Op>,
    /// How much of `op` this task runs (whole, a shard pipeline's part,
    /// the merge).
    pub(crate) role: Role,
    /// Cost-model class of `op` run as `role`.
    pub(crate) class: OpClass,
    pub(crate) query: usize,
    /// Children / parent as *global* task indices.
    pub(crate) children: Vec<usize>,
    pub(crate) parent: Option<usize>,
    pub(crate) pending_children: usize,
    pub(crate) annotation: Option<DeviceId>,
    pub(crate) forced_cpu: bool,
    /// Bumped by every restart: a `ComputeStart` names the attempt it starts.
    pub(crate) epoch: u32,
    pub(crate) device: Option<DeviceId>,
    /// When the task last entered a ready queue (trace queue-wait).
    pub(crate) queued_at: VirtualTime,
    pub(crate) start_time: VirtualTime,
    pub(crate) kernel_duration: VirtualTime,
    pub(crate) bytes_in: u64,
    pub(crate) est_bytes_in: u64,
    pub(crate) est_bytes_out: u64,
    /// Remaining solo-execution nanoseconds (processor sharing).
    pub(crate) remaining_ns: f64,
    /// Pending allocation-stage thresholds.
    pub(crate) milestones: Milestones,
    /// Bytes allocated per remaining stage.
    pub(crate) stage_bytes: u64,
    /// Non-zero while the operator runs as a chunked out-of-core staging
    /// pipeline: the number of partitions its input/output stream in.
    pub(crate) staged_chunks: u32,
    pub(crate) base_columns: Vec<ColumnId>,
    /// The kernel result, kept lazy (base + selection vector) until a
    /// pipeline breaker or the query root forces materialization. Logical
    /// `num_rows`/`byte_size` are identical either way, so all simulated
    /// timing below is unaffected.
    pub(crate) output: Option<LazyChunk>,
    pub(crate) output_bytes: u64,
    pub(crate) output_rows: u64,
    pub(crate) output_device: Option<DeviceId>,
    pub(crate) load_contribution: VirtualTime,
}

impl TaskState {
    /// The policy's view of this task, global id `task`: its lists
    /// borrowed from the task, its children's devices and bytes from the
    /// caller. Only `bytes_in` differs between the compile-time pass (the
    /// estimate) and a run-time consult (the exact input).
    pub(crate) fn info<'a>(
        &'a self,
        task: usize,
        compile_time: bool,
        children_devices: &'a [DeviceId],
        children_bytes: &'a [u64],
    ) -> TaskInfo<'a> {
        TaskInfo {
            task,
            op_class: self.class,
            base_columns: &self.base_columns,
            bytes_in: if compile_time { self.est_bytes_in } else { self.bytes_in },
            bytes_out_estimate: self.est_bytes_out,
            children_devices,
            children_bytes,
            children_tasks: &self.children,
            was_aborted: self.forced_cpu,
            role: self.role,
        }
    }
}

/// The allocation-stage thresholds still pending for a computing task, in
/// remaining solo nanoseconds: a stage fires when `remaining_ns` drops to
/// the last one, which is then popped. A fixed array with a count, so
/// starting a task allocates nothing.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Milestones {
    at: [f64; 3],
    len: u8,
}

impl Milestones {
    /// The three growth stages of a co-processor kernel running `solo`
    /// nanoseconds alone: at a quarter, half and three quarters done.
    pub(crate) fn stages(solo: f64) -> Self {
        Milestones { at: [0.25 * solo, 0.5 * solo, 0.75 * solo], len: 3 }
    }

    /// The next threshold, if a stage is pending.
    pub(crate) fn last(&self) -> Option<f64> {
        self.at[..self.len as usize].last().copied()
    }

    /// Drop the next threshold (its stage fired).
    pub(crate) fn pop(&mut self) {
        self.len = self.len.saturating_sub(1);
    }

    /// Stages still pending.
    pub(crate) fn len(&self) -> usize {
        self.len as usize
    }
}

/// Buffers the executor refills on every placement consult and task
/// start instead of allocating them anew.
#[derive(Default)]
pub(crate) struct Scratch {
    /// The devices holding a ready task's children's outputs.
    pub(crate) child_devices: Vec<DeviceId>,
    /// A ready task's children's output bytes; in the compile-time pass,
    /// every task's children's estimates, back to back.
    pub(crate) child_bytes: Vec<u64>,
    /// A starting task's children's outputs, moved in for its kernel.
    pub(crate) child_chunks: Vec<LazyChunk>,
}

/// A table indexed by a global, monotonic id that holds only what is in
/// flight: items are pushed at the back, and [`InFlight::retire_while`]
/// drops finished ones from the front, so the table stays the size of the
/// work in flight whatever the run's length, and its buffer is reused.
pub(crate) struct InFlight<T> {
    items: VecDeque<T>,
    /// The id of `items[0]`: how many were retired.
    first: usize,
}

impl<T> InFlight<T> {
    pub(crate) fn new() -> Self {
        InFlight { items: VecDeque::new(), first: 0 }
    }

    /// One past the last id pushed: the next id, retired ones counted.
    pub(crate) fn len(&self) -> usize {
        self.first + self.items.len()
    }

    pub(crate) fn push(&mut self, item: T) {
        self.items.push_back(item);
    }

    /// The item with id `i`, unless it was retired.
    pub(crate) fn get(&self, i: usize) -> Option<&T> {
        self.items.get(i.checked_sub(self.first)?)
    }

    /// Drop items from the front while `done` holds of them; the id of
    /// the first one kept.
    pub(crate) fn retire_while(&mut self, done: impl Fn(&T) -> bool) -> usize {
        while self.items.front().is_some_and(&done) {
            self.items.pop_front();
            self.first += 1;
        }
        self.first
    }
}

impl<T> Index<usize> for InFlight<T> {
    type Output = T;

    fn index(&self, i: usize) -> &T {
        &self.items[i - self.first]
    }
}

impl<T> IndexMut<usize> for InFlight<T> {
    fn index_mut(&mut self, i: usize) -> &mut T {
        &mut self.items[i - self.first]
    }
}

/// The feed-table row range a windowed query execution scans:
/// `[lo, hi)` of the table at registration index `table`. Scans of any
/// other table (static dimensions) read in full.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct QueryWindow {
    /// Registration index of the windowed (fed) table.
    pub(crate) table: u32,
    /// First feed-table row in the window.
    pub(crate) lo: u64,
    /// One past the last feed-table row in the window.
    pub(crate) hi: u64,
}

impl QueryWindow {
    /// The window as the scan kernel and the estimates take it.
    pub(crate) fn rows(self, db: &Database) -> Window<'_> {
        (db.tables()[self.table as usize].name(), self.lo as usize, self.hi as usize)
    }
}

pub(crate) struct QueryState {
    pub(crate) session: usize,
    pub(crate) seq: usize,
    pub(crate) root: usize,
    /// The window this execution scans, for standing-query ticks.
    pub(crate) window: Option<QueryWindow>,
    /// When the session issued the query (queueing for admission counts
    /// toward latency — the paper's admission-control comparison measures
    /// response time from submission).
    pub(crate) submit_time: VirtualTime,
    /// When admission control let the query start executing
    /// (`admit_time - submit_time` is the admission wait).
    pub(crate) admit_time: VirtualTime,
    /// The faults injected into, and the recoveries of, its tasks.
    pub(crate) faults: FaultCounters,
    /// Whether its `QueryDone` fired.
    pub(crate) done: bool,
}

/// One query waiting for admission: who submitted it, its position in
/// that session's stream, the plan and the submission instant.
pub(crate) struct Submission {
    pub(crate) session: usize,
    pub(crate) seq: usize,
    pub(crate) plan: PlanNode,
    pub(crate) submit: VirtualTime,
    /// Feed-table window, for standing-query ticks (`seq` is the tick).
    pub(crate) window: Option<QueryWindow>,
    /// Standing-query registration index, for standing-query ticks.
    pub(crate) standing: Option<u32>,
}

pub(crate) enum Ev {
    /// Transfers finished; the operator joins its device's compute set.
    ComputeStart { task: usize, epoch: u32 },
    /// Re-evaluate a device's compute set (next completion or
    /// allocation-stage crossing under processor sharing).
    DeviceTick { device: DeviceId, version: u64 },
    QueryDone { query: usize },
    /// An open-loop arrival fires: the indexed entry of `Sim::arrivals`
    /// is submitted for admission (DESIGN.md §10).
    Arrive { arrival: usize },
    /// A feed append batch commits: the indexed entry of
    /// `Sim::feed.appends` bumps column epochs and invalidates stale
    /// cache residency (the data itself is pre-built; see `exec::feed`).
    Append { index: usize },
    /// A standing query's window closes: the indexed entry of
    /// `Sim::feed.fires` is submitted for admission.
    WindowFire { fire: usize },
}

pub(crate) struct Sim<'a, 'p> {
    pub(crate) db: &'a Database,
    pub(crate) config: &'a SimConfig,
    pub(crate) policy: &'p mut dyn PlacementPolicy,
    pub(crate) opts: &'a ExecOptions,
    pub(crate) cost: SimCostModel,
    /// One column cache per co-processor (caller-owned: warm across runs).
    pub(crate) caches: &'a mut CacheSet,
    /// One operator heap per co-processor.
    pub(crate) heaps: HeapSet,
    /// One host link per co-processor.
    pub(crate) link: Interconnect,
    pub(crate) fault: FaultPlan,
    pub(crate) events: EventQueue<Ev>,
    /// Every task by global id, from the oldest live query's first on.
    pub(crate) tasks: InFlight<TaskState>,
    /// The columns a fan-out's spine task hands on
    /// ([`LazyChunk::keep_live`]; DESIGN.md §6), by task, until it runs:
    /// a side table, so a task that is not pruned carries nothing.
    pub(crate) live: BTreeMap<usize, Arc<[String]>>,
    /// Every admitted query by id, from the oldest live one on.
    pub(crate) queries: InFlight<QueryState>,
    /// Per-device ready queues, worker slots and compute sets.
    pub(crate) devices: DeviceSet,
    pub(crate) sessions: Vec<VecDeque<PlanNode>>,
    /// Next per-session sequence number (submission order within the
    /// session, closed- and open-loop alike).
    pub(crate) session_seq: Vec<usize>,
    /// Open-loop arrival schedule, indexed by [`Ev::Arrive`]; entries are
    /// taken when their event fires. Empty in closed-loop runs.
    pub(crate) arrivals: Vec<Option<Arrival>>,
    pub(crate) admission_queue: VecDeque<Submission>,
    /// Feed replay and standing-query state (empty for batch runs).
    pub(crate) feed: crate::exec::feed::FeedRt,
    pub(crate) active_queries: usize,
    pub(crate) completed_since_update: usize,
    pub(crate) metrics: RunMetrics,
    pub(crate) outcomes: Vec<QueryOutcome>,
    /// Predicted-vs-actual samples from the policy's cost model, in
    /// operator-completion order (side data: not part of `RunMetrics`).
    pub(crate) model_samples: Vec<ModelUpdate>,
    /// Chunked-staging counters (side data: not part of `RunMetrics`).
    pub(crate) staging: StagingStats,
    /// Reused per-consult and per-start buffers.
    pub(crate) scratch: Scratch,
    pub(crate) now: VirtualTime,
    pub(crate) tracer: Tracer,
}

impl Sim<'_, '_> {
    /// Tolerance for floating-point progress comparisons (nanoseconds).
    pub(crate) const EPS_NS: f64 = 1.0;

    pub(crate) fn run(&mut self, total_queries: usize) -> Result<RunOutcome, EngineError> {
        // The caches may be warm from a previous run on the same handle;
        // metrics report this run's probes only (matching the trace).
        let (base_hits, base_misses) = self.cache_hit_miss();
        // Initial data placement from whatever statistics already exist
        // (the paper pre-loads access structures before each benchmark,
        // Section 6.1) — free of charge, like `ExecOptions::preload`.
        let _ = self.policy.update_data_placement(
            self.db,
            self.caches,
            &self.feed.col_epochs,
        );

        // Kick off. Closed loop: the first query of every session is a
        // candidate. Open loop: every arrival is scheduled at its instant
        // (the heap keeps insertion order at equal timestamps, so
        // same-instant arrivals submit in schedule order). Feed appends
        // are pushed before window fires so a window closing at the very
        // instant of an append observes the post-append epoch.
        for s in 0..self.sessions.len() {
            self.submit_next(s);
        }
        for i in 0..self.feed.appends.len() {
            self.events.push(self.feed.appends[i].at, Ev::Append { index: i });
        }
        for i in 0..self.feed.fires.len() {
            self.events.push(self.feed.fires[i].at, Ev::WindowFire { fire: i });
        }
        for (i, a) in self.arrivals.iter().enumerate() {
            let at = a.as_ref().expect("no arrival fired yet").at;
            self.events.push(at, Ev::Arrive { arrival: i });
        }
        self.process_admissions()?;

        while let Some((t, ev)) = self.events.pop() {
            self.now = t;
            match ev {
                Ev::ComputeStart { task, epoch } => self.on_compute_start(task, epoch)?,
                Ev::DeviceTick { device, version } => {
                    self.on_device_tick(device, version)?
                }
                Ev::QueryDone { query } => self.on_query_done(query)?,
                Ev::Arrive { arrival } => self.on_arrive(arrival)?,
                Ev::Append { index } => self.on_append(index),
                Ev::WindowFire { fire } => self.on_window_fire(fire)?,
            }
            #[cfg(debug_assertions)]
            self.audit();
        }

        if self.outcomes.len() + self.metrics.shed as usize != total_queries {
            return Err(EngineError::Stalled {
                completed: self.outcomes.len(),
                total: total_queries,
            });
        }
        debug_assert_eq!(
            self.heaps.used_total(),
            0,
            "device heaps must drain once every query completed"
        );
        // An independent cross-check, not double bookkeeping: the
        // simulated components keep their own books, and the cache,
        // heap, link and fault-plan figures reported are theirs. Debug
        // builds assert that the event fold agrees, so neither a missed
        // emit site nor a component's accounting can drift unnoticed;
        // `chaos --trace` makes the same comparison in release builds by
        // replaying the trace through `RunMetrics::from_events`.
        let folded = std::mem::take(&mut self.metrics);
        let (hits, misses) = self.cache_hit_miss();
        let metrics = RunMetrics {
            cache_hits: hits - base_hits,
            cache_misses: misses - base_misses,
            gpu_heap_peak: self.heaps.peak_max(),
            gpu_heap_leaked: self.heaps.used_total(),
            fault_stats: *self.fault.stats(),
            link_h2d: self.link.total_stats(Direction::HostToDevice),
            link_d2h: self.link.total_stats(Direction::DeviceToHost),
            ..folded.clone()
        };
        debug_assert_eq!(
            folded, metrics,
            "the event fold diverges from the components' own statistics"
        );
        Ok(RunOutcome {
            metrics,
            outcomes: std::mem::take(&mut self.outcomes),
            model_samples: std::mem::take(&mut self.model_samples),
            staging: self.staging,
        })
    }

    /// The one way an event takes effect: fold it into the run metrics,
    /// then hand it to the tracer (a single branch when tracing is off).
    #[inline]
    pub(crate) fn emit(&mut self, event: TraceEvent) {
        self.metrics.apply(&event);
        self.tracer.emit(event);
    }

    /// Cache hits/misses summed over every co-processor cache.
    pub(crate) fn cache_hit_miss(&self) -> (u64, u64) {
        let mut hits = 0;
        let mut misses = 0;
        for (_, cache) in self.caches.iter() {
            let (h, m) = cache.hit_miss();
            hits += h;
            misses += m;
        }
        (hits, misses)
    }

    /// Heap, cache and link accounting invariants, re-checked after
    /// every simulation event in debug builds (tests and chaos runs) —
    /// per co-processor, so a K-device fleet is audited device by device.
    #[cfg(debug_assertions)]
    pub(crate) fn audit(&self) {
        for (device, heap) in self.heaps.iter() {
            assert_eq!(
                heap.used(),
                heap.accounted_bytes(),
                "{device}: heap conservation: used must equal the sum of live tags"
            );
            assert!(heap.used() <= heap.capacity(), "{device}: heap overcommitted");
        }
        for (device, cache) in self.caches.iter() {
            assert_eq!(
                cache.used(),
                cache.accounted_bytes(),
                "{device}: cache accounting: used must equal the sum of resident entries"
            );
            assert!(
                cache.used() <= cache.capacity(),
                "{device}: cache overcommitted"
            );
        }
        for device in self.config.topology.coprocessors() {
            for dir in [Direction::HostToDevice, Direction::DeviceToHost] {
                let s = self.link.stats(device, dir);
                assert!(
                    s.transfers > 0 || (s.bytes == 0 && s.busy_time == VirtualTime::ZERO),
                    "{device}: link stats: traffic without transfers"
                );
                // Each transfer advances busy_until by at least its
                // service time, so the FIFO horizon dominates accumulated
                // service.
                assert!(
                    self.link.busy_until(device, dir) >= s.busy_time,
                    "{device}: link busy_until fell behind accumulated service time"
                );
            }
        }
    }
}

/// Construct a compile-time/run-time [`PolicyCtx`] from `$sim`'s fields.
///
/// A macro instead of a `&self` method so the borrows stay field-precise:
/// the context borrows `caches`/`heaps`/`devices` while the caller holds
/// `policy` mutably, which a whole-`Sim` borrow would forbid. The load,
/// running and heap-free tables are the ones the device set and the heaps
/// keep current, borrowed as they are.
macro_rules! policy_ctx {
    ($sim:expr) => {
        PolicyCtx {
            db: $sim.db,
            topology: &$sim.config.topology,
            caches: &*$sim.caches,
            queued_work: &$sim.devices.load,
            running: &$sim.devices.running,
            heap_free: $sim.heaps.free(),
            now: $sim.now,
            col_epochs: &$sim.feed.col_epochs,
        }
    };
}
pub(crate) use policy_ctx;

#[cfg(test)]
mod tests {
    use super::InFlight;

    #[test]
    fn a_table_in_flight_retires_its_front_and_keeps_its_ids() {
        let mut table = InFlight::new();
        (0..5).for_each(|i| table.push(i));
        assert_eq!(table.retire_while(|&i| i < 2 || i == 3), 2);
        assert_eq!((table.get(1), table.get(2), table[3], table.len()), (None, Some(&2), 3, 5));
        table[4] += 1;
        // Retired to nothing, the table still hands out the next id.
        assert_eq!(table.retire_while(|_| true), 5);
        table.push(6);
        assert_eq!((table.get(4), table[5], table.len()), (None, 6, 6));
    }
}
