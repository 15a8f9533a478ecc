//! Run metrics.
//!
//! Everything the paper's figures report: workload execution time
//! (makespan), per-query latencies, CPU→GPU and GPU→CPU transfer time and
//! bytes, aborted-operator counts and the *wasted time* metric of
//! Figure 20 (total time from operator begin to abort).
//!
//! The counters have one source: [`RunMetrics::apply`] folds a trace
//! event into them. The event loop applies every event it emits, traced
//! or not, and [`RunMetrics::from_events`] replays a recorded stream
//! through the same function — so a run's metrics and its trace cannot
//! drift apart.

use robustq_sim::{DeviceId, Direction, FaultStats, LinkStats, PerDevice, VirtualTime};
use robustq_trace::{FaultKind, OpOutcome, TraceEvent};

/// Fault-recovery counters, kept per query and aggregated per run.
///
/// `injected` counts fault-layer decisions that fired (all kinds);
/// `retries` counts transfer retry attempts scheduled by the bounded
/// backoff policy; `fallbacks` counts operators restarted on the CPU
/// after an abort (organic or injected); `injected_wasted` is virtual
/// time lost *because of injections*: abort waste of injected aborts,
/// stall-window waits, failed transfer attempts plus their backoff, and
/// the excess service time of latency spikes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultCounters {
    /// Fault-layer decisions that fired.
    pub injected: u64,
    /// Transfer retries scheduled (each preceded by a transient fault).
    pub retries: u64,
    /// Operators restarted on the CPU after an abort.
    pub fallbacks: u64,
    /// Virtual time lost to injected faults.
    pub injected_wasted: VirtualTime,
}

impl FaultCounters {
    /// Accumulate `other` into `self`.
    pub fn absorb(&mut self, other: &FaultCounters) {
        self.injected += other.injected;
        self.retries += other.retries;
        self.fallbacks += other.fallbacks;
        self.injected_wasted += other.injected_wasted;
    }
}

/// Chunked out-of-core staging counters (DESIGN.md §6).
///
/// Carried on `RunOutcome` beside [`RunMetrics`] — deliberately *not*
/// inside it, so the Debug fingerprint of default (non-staging) runs is
/// byte-identical to earlier releases.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StagingStats {
    /// Operators whose footprint exceeded the device heap and executed
    /// on-device via chunked staging.
    pub staged_ops: u64,
    /// Chunks transferred and executed across all staged operators.
    pub staged_chunks: u64,
    /// Oversize operators that still fell back to the CPU because even
    /// a single chunk could not fit the device heap.
    pub oversize_fallbacks: u64,
}

/// Outcome of one executed query.
#[derive(Debug, Clone)]
pub struct QueryOutcome {
    /// Session that issued the query.
    pub session: usize,
    /// Position within the session's queue.
    pub seq: usize,
    /// Time from submission to result on the host (admission waiting
    /// included).
    pub latency: VirtualTime,
    /// The admission-waiting share of `latency` (zero when the query was
    /// admitted the instant it was submitted).
    pub admit_wait: VirtualTime,
    /// Result row count.
    pub rows: usize,
    /// Order-insensitive result checksum.
    pub checksum: u64,
    /// Fault-recovery counters attributed to this query.
    pub faults: FaultCounters,
    /// Full result, when `ExecOptions::capture_results` is set.
    pub result: Option<crate::batch::Chunk>,
}

/// Aggregated metrics of one workload run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RunMetrics {
    /// Virtual time from start to the last query's completion.
    pub makespan: VirtualTime,
    /// Total CPU→GPU transfer service time / bytes.
    pub h2d_time: VirtualTime,
    /// Total CPU→GPU bytes moved.
    pub h2d_bytes: u64,
    /// Total GPU→CPU transfer service time / bytes.
    pub d2h_time: VirtualTime,
    /// Total GPU→CPU bytes moved.
    pub d2h_bytes: u64,
    /// Number of co-processor operator aborts.
    pub aborts: u64,
    /// Total time from operator begin to abort (Figure 20's metric).
    pub wasted_time: VirtualTime,
    /// Busy time per device.
    pub device_busy: PerDevice<VirtualTime>,
    /// Operators completed per device.
    pub ops_completed: PerDevice<u64>,
    /// Co-processor heap high-water mark in bytes.
    pub gpu_heap_peak: u64,
    /// Co-processor cache hits during this run.
    pub cache_hits: u64,
    /// Co-processor cache misses during this run.
    pub cache_misses: u64,
    /// Number of queries executed.
    pub queries: usize,
    /// Queries shed by admission control instead of executed (open-loop
    /// overload protection, DESIGN.md §10). Always zero in closed-loop
    /// runs with default options.
    pub shed: u64,
    /// Aggregated fault-recovery counters (sum of per-query counters
    /// plus injections not attributable to one query, e.g. on
    /// placement-update transfers).
    pub faults: FaultCounters,
    /// Injection counters straight from the fault plan; cross-checks
    /// `faults.injected` (chaos invariant: the two `injected` totals
    /// are equal).
    pub fault_stats: FaultStats,
    /// Host→device link statistics as accounted by the interconnect
    /// itself (chaos invariant: `link_h2d.bytes == h2d_bytes`).
    pub link_h2d: LinkStats,
    /// Device→host link statistics from the interconnect.
    pub link_d2h: LinkStats,
    /// Bytes still allocated on the co-processor heap after the run
    /// drained (chaos invariant: zero — no leaked tags).
    pub gpu_heap_leaked: u64,
}

impl RunMetrics {
    /// Record one completed operator. The per-device tables grow on
    /// demand so the same path serves the executor (topology-sized
    /// tables) and event-stream replay (tables learned from the data);
    /// padded equality makes the two comparable.
    fn record_op(&mut self, device: DeviceId, busy: VirtualTime) {
        *self.device_busy.get_mut_or_grow(device) += busy;
        *self.ops_completed.get_mut_or_grow(device) += 1;
    }

    /// Total transfer service time in both directions.
    pub fn total_transfer_time(&self) -> VirtualTime {
        self.h2d_time + self.d2h_time
    }

    /// Total device time: busy time across devices plus abort waste.
    /// By construction `wasted_time <= total_device_time()` — the
    /// metrics-consistency invariant the chaos harness checks.
    pub fn total_device_time(&self) -> VirtualTime {
        self.device_busy
            .values()
            .fold(self.wasted_time, |acc, &t| acc + t)
    }

    /// Mean query latency over `outcomes`.
    pub fn mean_latency(outcomes: &[QueryOutcome]) -> VirtualTime {
        if outcomes.is_empty() {
            return VirtualTime::ZERO;
        }
        let total: u64 = outcomes.iter().map(|o| o.latency.as_nanos()).sum();
        VirtualTime::from_nanos(total / outcomes.len() as u64)
    }

    /// Fold one trace event into the counters — the only code that knows
    /// how an event changes a counter. The event loop calls it at every
    /// emit site, traced or not; [`RunMetrics::from_events`] is a loop
    /// over it.
    ///
    /// Always inlined: every emit site passes a variant known at compile
    /// time, so the match folds to that variant's arm (to nothing, for
    /// the events that carry no counter) and the untraced path stays
    /// free of allocation, locking and dispatch.
    #[inline(always)]
    pub fn apply(&mut self, event: &TraceEvent) {
        match *event {
            TraceEvent::QueryDone { end, .. } => {
                self.queries += 1;
                self.makespan = self.makespan.max(end);
            }
            TraceEvent::QueryShed { .. } => self.shed += 1,
            TraceEvent::OpSpan { device, start, end, outcome, .. } => match outcome {
                OpOutcome::Completed => self.record_op(device, end.saturating_sub(start)),
                OpOutcome::Aborted { injected } => {
                    let wasted = end.saturating_sub(start);
                    self.aborts += 1;
                    self.wasted_time += wasted;
                    self.faults.fallbacks += 1;
                    if injected {
                        self.faults.injected_wasted += wasted;
                    }
                }
            },
            TraceEvent::Transfer { dir, bytes, service, waste, .. } => {
                let (time, total, link) = match dir {
                    Direction::HostToDevice => {
                        (&mut self.h2d_time, &mut self.h2d_bytes, &mut self.link_h2d)
                    }
                    Direction::DeviceToHost => {
                        (&mut self.d2h_time, &mut self.d2h_bytes, &mut self.link_d2h)
                    }
                };
                *time += service;
                *total += bytes;
                link.bytes += bytes;
                link.transfers += 1;
                link.busy_time += service;
                self.faults.injected_wasted += waste;
            }
            TraceEvent::CacheProbe { hit, .. } => {
                if hit {
                    self.cache_hits += 1;
                } else {
                    self.cache_misses += 1;
                }
            }
            // `used` is the occupancy of the one heap that served the
            // attempt, so the peak is the largest single-device
            // occupancy seen; the leak figure is the fleet-wide balance
            // of bytes allocated and freed.
            TraceEvent::HeapAlloc { bytes, used, ok, .. } => {
                if ok {
                    self.gpu_heap_peak = self.gpu_heap_peak.max(used);
                    self.gpu_heap_leaked += bytes;
                }
            }
            TraceEvent::HeapFree { bytes, .. } => {
                self.gpu_heap_leaked = self.gpu_heap_leaked.saturating_sub(bytes);
            }
            TraceEvent::Fault { kind, .. } => {
                self.faults.injected += 1;
                self.fault_stats.injected += 1;
                match kind {
                    FaultKind::AllocFail { .. } => self.fault_stats.alloc_failures += 1,
                    FaultKind::TransferTransient => self.fault_stats.transfer_transient += 1,
                    FaultKind::TransferPermanent => self.fault_stats.transfer_permanent += 1,
                    FaultKind::TransferSpike => self.fault_stats.transfer_spikes += 1,
                    FaultKind::KernelAbort => self.fault_stats.kernel_aborts += 1,
                    FaultKind::Stall { wait } => {
                        self.fault_stats.stall_time += wait;
                        self.faults.injected_wasted += wait;
                    }
                }
            }
            TraceEvent::Retry { .. } => self.faults.retries += 1,
            TraceEvent::QuerySubmit { .. }
            | TraceEvent::CacheInsert { .. }
            | TraceEvent::CacheEvict { .. }
            | TraceEvent::Placement { .. }
            | TraceEvent::ShardFanout { .. }
            | TraceEvent::ShardMerge { .. }
            // Model refinements, staging markers and feed activity are
            // side data (`RunOutcome::{model_samples, staging}`, the
            // feed report), not part of the counter set.
            | TraceEvent::ModelUpdate { .. }
            | TraceEvent::OpStaged { .. }
            | TraceEvent::Append { .. }
            | TraceEvent::EpochSeal { .. }
            | TraceEvent::WindowFire { .. } => {}
        }
    }

    /// The metrics of one run, replayed from its trace-event stream.
    /// Equal to the run's reported metrics whenever the stream is
    /// complete (nothing dropped from the ring): both are the same fold,
    /// and the figures the simulated components report for themselves
    /// (cache, heap, link and fault-plan statistics) are asserted equal
    /// to it at the end of every debug-build run.
    pub fn from_events(events: &[TraceEvent]) -> RunMetrics {
        let mut m = RunMetrics::default();
        for ev in events {
            m.apply(ev);
        }
        m
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_op_accumulates() {
        let mut m = RunMetrics::default();
        m.record_op(DeviceId::Cpu, VirtualTime::from_millis(2));
        m.record_op(DeviceId::Cpu, VirtualTime::from_millis(3));
        m.record_op(DeviceId::Gpu, VirtualTime::from_millis(1));
        assert_eq!(m.device_busy[DeviceId::Cpu], VirtualTime::from_millis(5));
        assert_eq!(m.ops_completed[DeviceId::Cpu], 2);
        assert_eq!(m.ops_completed[DeviceId::Gpu], 1);
    }

    #[test]
    fn transfer_total() {
        let m = RunMetrics {
            h2d_time: VirtualTime::from_millis(3),
            d2h_time: VirtualTime::from_millis(4),
            ..Default::default()
        };
        assert_eq!(m.total_transfer_time(), VirtualTime::from_millis(7));
    }

    #[test]
    fn mean_latency_of_outcomes() {
        let out = |l: u64| QueryOutcome {
            session: 0,
            seq: 0,
            latency: VirtualTime::from_millis(l),
            admit_wait: VirtualTime::ZERO,
            rows: 0,
            checksum: 0,
            faults: FaultCounters::default(),
            result: None,
        };
        assert_eq!(
            RunMetrics::mean_latency(&[out(10), out(20)]),
            VirtualTime::from_millis(15)
        );
        assert_eq!(RunMetrics::mean_latency(&[]), VirtualTime::ZERO);
    }

    #[test]
    fn from_events_rebuilds_counters() {
        use robustq_sim::OpClass;
        let t = VirtualTime::from_micros;
        let events = vec![
            TraceEvent::OpSpan {
                query: 0,
                task: 0,
                op: OpClass::Selection,
                device: DeviceId::Gpu,
                queued_at: t(0),
                start: t(0),
                end: t(5),
                bytes_in: 64,
                bytes_out: 32,
                rows_out: 8,
                outcome: OpOutcome::Completed,
            },
            TraceEvent::OpSpan {
                query: 0,
                task: 1,
                op: OpClass::HashJoin,
                device: DeviceId::Gpu,
                queued_at: t(0),
                start: t(2),
                end: t(4),
                bytes_in: 64,
                bytes_out: 0,
                rows_out: 0,
                outcome: OpOutcome::Aborted { injected: true },
            },
            TraceEvent::Transfer {
                device: DeviceId::Gpu,
                dir: Direction::HostToDevice,
                kind: robustq_trace::TransferKind::Input,
                query: 0,
                bytes: 64,
                start: t(0),
                end: t(1),
                service: t(1),
                faulted: false,
                waste: VirtualTime::ZERO,
            },
            TraceEvent::HeapAlloc {
                device: DeviceId::Gpu,
                tag: 0,
                bytes: 64,
                used: 64,
                ok: true,
                at: t(0),
            },
            TraceEvent::HeapFree { device: DeviceId::Gpu, tag: 0, bytes: 64, used: 0, at: t(5) },
            TraceEvent::Fault { kind: FaultKind::KernelAbort, query: 0, at: t(4) },
            TraceEvent::QueryDone { query: 0, session: 0, seq: 0, submit: t(0), admit: t(0), end: t(6), rows: 8 },
            TraceEvent::QueryShed {
                session: 1,
                seq: 0,
                submit: t(1),
                reason: robustq_trace::ShedReason::QueueFull,
                at: t(6),
            },
        ];
        let m = RunMetrics::from_events(&events);
        assert_eq!(m.queries, 1);
        assert_eq!(m.shed, 1);
        assert_eq!(m.makespan, t(6));
        assert_eq!(m.ops_completed[DeviceId::Gpu], 1);
        assert_eq!(m.device_busy[DeviceId::Gpu], t(5));
        assert_eq!(m.aborts, 1);
        assert_eq!(m.wasted_time, t(2));
        assert_eq!(m.faults.fallbacks, 1);
        assert_eq!(m.faults.injected, 1);
        assert_eq!(m.faults.injected_wasted, t(2));
        assert_eq!(m.h2d_bytes, 64);
        assert_eq!(m.h2d_time, t(1));
        assert_eq!(m.link_h2d.transfers, 1);
        assert_eq!(m.gpu_heap_peak, 64);
        assert_eq!(m.gpu_heap_leaked, 0);
        assert_eq!(m.fault_stats.kernel_aborts, 1);
        assert_eq!(m.fault_stats.injected, 1);
    }

    #[test]
    fn from_events_tracks_heaps_per_device() {
        let t = VirtualTime::from_micros;
        let g2 = DeviceId::coprocessor(2);
        let events = vec![
            TraceEvent::HeapAlloc {
                device: DeviceId::Gpu,
                tag: 0,
                bytes: 100,
                used: 100,
                ok: true,
                at: t(0),
            },
            TraceEvent::HeapAlloc { device: g2, tag: 2, bytes: 70, used: 70, ok: true, at: t(1) },
            TraceEvent::HeapFree { device: DeviceId::Gpu, tag: 0, bytes: 60, used: 40, at: t(2) },
        ];
        let m = RunMetrics::from_events(&events);
        // Peak is the largest single-device occupancy, not the fleet sum.
        assert_eq!(m.gpu_heap_peak, 100);
        // Leaked bytes sum across every device's heap: 40 + 70.
        assert_eq!(m.gpu_heap_leaked, 110);
    }
}
