//! The typed event model.
//!
//! Every event is a small `Copy` struct stamped with deterministic
//! virtual time, so event streams are byte-identical across repeated
//! runs, kernel worker counts and replayed fault plans. Events carry the
//! *why* behind the aggregates in `RunMetrics`: which operator ran where
//! and for how long, what crossed the bus, what the cache and heap did,
//! which faults fired, and — the paper's Section 3/5 decisions made
//! auditable — what each placement policy estimated and chose.

use robustq_sim::{CacheKey, DeviceId, Direction, OpClass, PerDevice, VirtualTime};

/// A compact, `Copy` per-device estimate vector for [`TraceEvent::Placement`].
///
/// [`PerDevice`] is heap-backed (topology-sized), so trace events can no
/// longer embed it without allocating. `EstVec` inlines up to
/// [`EstVec::MAX`] device estimates — plenty for the simulated fleets —
/// and silently drops estimates beyond that (the trace records the
/// decision; the policy still used every estimate).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EstVec {
    len: u8,
    vals: [VirtualTime; EstVec::MAX],
}

impl EstVec {
    /// Inline capacity (device 0 = CPU, 1.. = co-processors).
    pub const MAX: usize = 8;

    /// No estimates recorded (policies without a cost model).
    pub const EMPTY: EstVec = EstVec { len: 0, vals: [VirtualTime::ZERO; EstVec::MAX] };

    /// The classic CPU/GPU pair.
    pub fn pair(cpu: VirtualTime, gpu: VirtualTime) -> Self {
        let mut v = EstVec::EMPTY;
        v.push(cpu);
        v.push(gpu);
        v
    }

    /// Capture a topology-sized estimate table (entries past
    /// [`EstVec::MAX`] are dropped).
    pub fn from_per_device(est: &PerDevice<VirtualTime>) -> Self {
        let mut v = EstVec::EMPTY;
        for (_, &t) in est.iter() {
            v.push(t);
        }
        v
    }

    /// Append one device's estimate (dense device order); saturates at
    /// [`EstVec::MAX`].
    pub fn push(&mut self, t: VirtualTime) {
        if (self.len as usize) < EstVec::MAX {
            self.vals[self.len as usize] = t;
            self.len += 1;
        }
    }

    /// Number of recorded estimates.
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// True when no estimates were recorded.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The estimate for `device` (`ZERO` when absent — exporters print
    /// missing CPU/GPU estimates as zero, matching cost-model-free
    /// policies).
    pub fn get(&self, device: DeviceId) -> VirtualTime {
        if device.index() < self.len as usize {
            self.vals[device.index()]
        } else {
            VirtualTime::ZERO
        }
    }

    /// `(device, estimate)` pairs in dense device order.
    pub fn iter(&self) -> impl Iterator<Item = (DeviceId, VirtualTime)> + '_ {
        (0..self.len as usize).map(|i| (DeviceId::from_index(i), self.vals[i]))
    }
}

/// How an operator span ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OpOutcome {
    /// The kernel ran to completion on its device.
    Completed,
    /// The co-processor operator aborted mid-flight and will restart on
    /// the CPU; `injected` marks aborts forced by the fault plan.
    Aborted {
        /// True when the fault layer forced the abort.
        injected: bool,
    },
}

/// What a transfer was moving.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TransferKind {
    /// Operator inputs: base columns or intermediate results.
    Input,
    /// A query result returning to the host.
    Result,
    /// Background data-placement traffic (Section 3.2's manager).
    Placement,
}

/// The fault-plan decision behind a [`TraceEvent::Fault`] record.
///
/// Kinds mirror the plan's own `FaultStats` accounting (a device→host
/// "permanent" draw is counted — and reported here — as transient,
/// exactly as the plan degrades it).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultKind {
    /// A co-processor heap allocation was failed at `stage`.
    AllocFail {
        /// Staged-allocation step (0 = upfront, 1..=3 = growth).
        stage: u32,
    },
    /// A transfer attempt failed transiently (retryable).
    TransferTransient,
    /// A host→device transfer failed permanently (aborts the operator).
    TransferPermanent,
    /// A transfer was slowed by a latency spike.
    TransferSpike,
    /// A co-processor kernel aborted right before computing.
    KernelAbort,
    /// A kernel launch was deferred by a device stall window.
    Stall {
        /// Virtual time the launch waited for the window to close.
        wait: VirtualTime,
    },
}

/// Why an admission-control layer shed a submitted query instead of
/// executing it (open-loop serving, DESIGN.md §10).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ShedReason {
    /// The admission queue was at its configured depth cap when the
    /// query arrived.
    QueueFull,
}

/// When a placement decision was taken.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PlacePhase {
    /// At query admission (compile-time annotation, Section 2.5.2).
    Compile,
    /// When the task became ready (run-time placement, Section 4).
    Ready,
    /// Forced to the CPU after a co-processor abort (Section 2.5.1).
    Fallback,
}

/// Why a placement policy chose its device.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PlaceReason {
    /// A fixed rule (CPU-only, GPU-preferred, …) — no cost model.
    Static,
    /// A learned/analytical cost model compared per-device estimates.
    CostModel,
    /// Input-data residency decided (data-driven placement, Section 3).
    DataResidency,
    /// Device heap pressure vetoed the co-processor.
    HeapPressure,
    /// Under sharding, placed on its query's home device by data-driven
    /// chopping: a shard fan-in, or an unsharded scan whose columns the
    /// home holds (intra-operator sharding, §7).
    ShardSpread,
    /// The executor's abort recovery forced the CPU.
    AbortFallback,
}

/// One structured trace event, stamped in virtual time.
///
/// All payloads are scalar (`Copy`), so constructing an event never
/// allocates — the zero-overhead-when-disabled contract of the tracer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceEvent {
    /// A session submitted a query (admission waiting counts toward its
    /// latency, so `at` is the submission instant).
    QuerySubmit {
        /// Executor-wide query id.
        query: u32,
        /// Issuing session.
        session: u32,
        /// Position within the session's queue.
        seq: u32,
        /// Submission instant.
        at: VirtualTime,
    },
    /// A query's result reached the host.
    QueryDone {
        /// Executor-wide query id.
        query: u32,
        /// Issuing session.
        session: u32,
        /// Position within the session's queue.
        seq: u32,
        /// Submission instant (latency = `end - submit`).
        submit: VirtualTime,
        /// Admission instant (queue wait = `admit - submit`, service =
        /// `end - admit`).
        admit: VirtualTime,
        /// Completion instant.
        end: VirtualTime,
        /// Result row count.
        rows: u64,
    },
    /// A submitted query was shed by admission control instead of
    /// executing (open-loop overload protection, DESIGN.md §10). Shed
    /// queries produce no outcome and no operator activity.
    QueryShed {
        /// Issuing session.
        session: u32,
        /// Position within the session's queue.
        seq: u32,
        /// Submission instant.
        submit: VirtualTime,
        /// Why admission refused the query.
        reason: ShedReason,
        /// Shedding instant (`at - submit` is the time wasted queueing).
        at: VirtualTime,
    },
    /// One operator execution attempt on one device, from worker-slot
    /// acquisition (`start`) to completion or abort (`end`).
    OpSpan {
        /// Query the operator belongs to.
        query: u32,
        /// Executor-wide task id.
        task: u32,
        /// Cost-model class of the operator.
        op: OpClass,
        /// Device the attempt ran on.
        device: DeviceId,
        /// When the task entered the device's ready queue.
        queued_at: VirtualTime,
        /// Worker-slot acquisition (transfers and allocation included).
        start: VirtualTime,
        /// Completion or abort instant.
        end: VirtualTime,
        /// Exact input payload bytes.
        bytes_in: u64,
        /// Output payload bytes.
        bytes_out: u64,
        /// Output rows.
        rows_out: u64,
        /// How the span ended.
        outcome: OpOutcome,
    },
    /// One transfer attempt that occupied the link (clean, spiked, or a
    /// failed transient attempt; permanently failed attempts never move
    /// bytes and appear only as [`TraceEvent::Fault`]).
    Transfer {
        /// Co-processor whose host link carried the payload.
        device: DeviceId,
        /// Direction over the link.
        dir: Direction,
        /// What the payload was.
        kind: TransferKind,
        /// Query charged, when attributable (`u32::MAX` encodes "none",
        /// see [`TraceEvent::NO_QUERY`] — keeps the event `Copy`+compact).
        query: u32,
        /// Payload bytes.
        bytes: u64,
        /// When the transfer was requested.
        start: VirtualTime,
        /// When the payload (or failure) cleared the link.
        end: VirtualTime,
        /// Service time occupying the FIFO.
        service: VirtualTime,
        /// True for spiked or failed attempts.
        faulted: bool,
        /// Virtual time lost to the injection (spike excess, or a failed
        /// attempt's service plus its backoff).
        waste: VirtualTime,
    },
    /// A cache lookup by a co-processor operator.
    CacheProbe {
        /// Co-processor whose cache was probed.
        device: DeviceId,
        /// Base-column key.
        key: CacheKey,
        /// Column bytes.
        bytes: u64,
        /// Hit or miss.
        hit: bool,
        /// Lookup instant.
        at: VirtualTime,
    },
    /// A column entered the cache.
    CacheInsert {
        /// Co-processor whose cache admitted the column.
        device: DeviceId,
        /// Base-column key.
        key: CacheKey,
        /// Column bytes.
        bytes: u64,
        /// Insertion instant.
        at: VirtualTime,
    },
    /// A column was evicted to make room.
    CacheEvict {
        /// Co-processor whose cache evicted the column.
        device: DeviceId,
        /// Base-column key.
        key: CacheKey,
        /// Column bytes.
        bytes: u64,
        /// Eviction instant.
        at: VirtualTime,
    },
    /// A co-processor heap allocation attempt.
    HeapAlloc {
        /// Co-processor whose heap served the attempt.
        device: DeviceId,
        /// Engine-chosen allocation tag.
        tag: u64,
        /// Bytes requested.
        bytes: u64,
        /// Heap bytes in use after the attempt.
        used: u64,
        /// False when the heap could not satisfy the request.
        ok: bool,
        /// Attempt instant.
        at: VirtualTime,
    },
    /// A heap tag was released.
    HeapFree {
        /// Co-processor whose heap released the tag.
        device: DeviceId,
        /// Engine-chosen allocation tag.
        tag: u64,
        /// Bytes freed.
        bytes: u64,
        /// Heap bytes in use after the release.
        used: u64,
        /// Release instant.
        at: VirtualTime,
    },
    /// A fault-plan decision fired.
    Fault {
        /// What the plan injected.
        kind: FaultKind,
        /// Query charged (`u32::MAX` = not attributable).
        query: u32,
        /// Injection instant.
        at: VirtualTime,
    },
    /// A transfer retry was scheduled after a transient fault.
    Retry {
        /// Query charged (`u32::MAX` = not attributable).
        query: u32,
        /// Backoff waited before the retry.
        backoff: VirtualTime,
        /// Scheduling instant.
        at: VirtualTime,
    },
    /// A sharded scan fanned out at admission: `shards` shard tasks
    /// were created under merge-barrier task `task` (DESIGN.md §6).
    ShardFanout {
        /// Query the sharded operator belongs to.
        query: u32,
        /// Executor-wide task id of the merge barrier.
        task: u32,
        /// Number of shards the operator was split into.
        shards: u32,
        /// Fan-out instant (query admission).
        at: VirtualTime,
    },
    /// A merge barrier combined its shards' partial results back into the
    /// unsharded operator output.
    ShardMerge {
        /// Query the sharded operator belongs to.
        query: u32,
        /// Executor-wide task id of the merge barrier.
        task: u32,
        /// Number of shards merged.
        shards: u32,
        /// Merged output rows.
        rows: u64,
        /// Merged output bytes.
        bytes: u64,
        /// When the last shard's result was available.
        start: VirtualTime,
        /// Merge completion instant.
        end: VirtualTime,
    },
    /// A placement decision: the policy's per-device completion
    /// estimates and the device it chose.
    Placement {
        /// Query the operator belongs to.
        query: u32,
        /// Executor-wide task id.
        task: u32,
        /// Cost-model class of the operator.
        op: OpClass,
        /// When the decision was taken.
        phase: PlacePhase,
        /// Estimated completion per device in dense device order
        /// (empty when the policy does not model costs).
        est: EstVec,
        /// The chosen device.
        chosen: DeviceId,
        /// Why it was chosen.
        reason: PlaceReason,
        /// Decision instant.
        at: VirtualTime,
    },
    /// A larger-than-heap operator entered the chunked out-of-core
    /// staging pipeline instead of aborting to the CPU (DESIGN.md §6).
    OpStaged {
        /// Query the operator belongs to.
        query: u32,
        /// Executor-wide task id.
        task: u32,
        /// Co-processor running the staged pipeline.
        device: DeviceId,
        /// Number of partitions the operator streams through.
        chunks: u32,
        /// Fixed device-heap bytes held for the pipeline (worst-case
        /// chunk: input slice + working footprint + chunk result).
        chunk_bytes: u64,
        /// When the pipeline was set up (first chunk transfer request).
        at: VirtualTime,
    },
    /// A feed batch committed: rows appended to a base table mid-run,
    /// bumping the database epoch (streaming feeds, DESIGN.md §6).
    Append {
        /// Registration index of the table appended to.
        table: u32,
        /// Rows this batch added.
        rows: u64,
        /// Raw payload bytes the batch added.
        bytes: u64,
        /// The epoch the append committed under.
        epoch: u32,
        /// Commit instant.
        at: VirtualTime,
    },
    /// An append crossed the seal threshold: an open segment sealed.
    EpochSeal {
        /// Registration index of the table owning the segment.
        table: u32,
        /// Index of the sealed segment within the table.
        segment: u32,
        /// Rows in the sealed segment.
        rows: u64,
        /// The epoch the seal committed under.
        epoch: u32,
        /// Seal instant.
        at: VirtualTime,
    },
    /// A standing query fired for one window tick: the registered plan
    /// was re-submitted over the window's row range of the feed table.
    WindowFire {
        /// Standing-query registration index.
        standing: u32,
        /// Window tick number (0-based).
        tick: u32,
        /// Executor-wide query id of the submitted execution.
        query: u32,
        /// First feed-table row in the window.
        lo: u64,
        /// One past the last feed-table row in the window.
        hi: u64,
        /// Fire instant.
        at: VirtualTime,
    },
}

impl TraceEvent {
    /// Sentinel `query` value for events not attributable to one query
    /// (background placement traffic and its faults).
    pub const NO_QUERY: u32 = u32::MAX;

    /// The virtual-time stamp of the event (spans report their end).
    pub fn at(&self) -> VirtualTime {
        match *self {
            TraceEvent::QuerySubmit { at, .. }
            | TraceEvent::CacheProbe { at, .. }
            | TraceEvent::CacheInsert { at, .. }
            | TraceEvent::CacheEvict { at, .. }
            | TraceEvent::HeapAlloc { at, .. }
            | TraceEvent::HeapFree { at, .. }
            | TraceEvent::Fault { at, .. }
            | TraceEvent::Retry { at, .. }
            | TraceEvent::Placement { at, .. }
            | TraceEvent::ShardFanout { at, .. }
            | TraceEvent::QueryShed { at, .. }
            | TraceEvent::OpStaged { at, .. }
            | TraceEvent::Append { at, .. }
            | TraceEvent::EpochSeal { at, .. }
            | TraceEvent::WindowFire { at, .. } => at,
            TraceEvent::QueryDone { end, .. }
            | TraceEvent::OpSpan { end, .. }
            | TraceEvent::Transfer { end, .. }
            | TraceEvent::ShardMerge { end, .. } => end,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_are_copy_and_comparable() {
        let e = TraceEvent::Fault {
            kind: FaultKind::KernelAbort,
            query: 3,
            at: VirtualTime::from_micros(5),
        };
        let f = e; // Copy
        assert_eq!(e, f);
        assert_eq!(e.at(), VirtualTime::from_micros(5));
    }

    #[test]
    fn est_vec_pads_with_zero_and_saturates() {
        let mut v = EstVec::pair(VirtualTime::from_micros(10), VirtualTime::from_micros(4));
        assert_eq!(v.len(), 2);
        assert_eq!(v.get(DeviceId::Cpu), VirtualTime::from_micros(10));
        assert_eq!(v.get(DeviceId::Gpu), VirtualTime::from_micros(4));
        assert_eq!(v.get(DeviceId::coprocessor(2)), VirtualTime::ZERO);
        for _ in 0..20 {
            v.push(VirtualTime::from_micros(1));
        }
        assert_eq!(v.len(), EstVec::MAX);
        let pd = PerDevice::new(VirtualTime::from_micros(1), VirtualTime::from_micros(2));
        let w = EstVec::from_per_device(&pd);
        assert_eq!(w.iter().count(), 2);
        assert_eq!(w.get(DeviceId::Gpu), VirtualTime::from_micros(2));
        assert!(EstVec::EMPTY.is_empty());
    }

    #[test]
    fn span_events_stamp_their_end() {
        let e = TraceEvent::Transfer {
            device: DeviceId::Gpu,
            dir: Direction::HostToDevice,
            kind: TransferKind::Input,
            query: 0,
            bytes: 10,
            start: VirtualTime::from_micros(1),
            end: VirtualTime::from_micros(4),
            service: VirtualTime::from_micros(3),
            faulted: false,
            waste: VirtualTime::ZERO,
        };
        assert_eq!(e.at(), VirtualTime::from_micros(4));
    }
}
