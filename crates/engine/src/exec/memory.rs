//! Device memory: per-co-processor heaps, staged allocation, and the
//! operator abort/restart and completion paths.
//!
//! Every co-processor owns a byte-accurate [`HeapAllocator`]; operators
//! allocate working memory in stages (Section 2.5.1), so a mid-flight
//! allocation failure aborts the operator to the CPU — the paper's
//! heap-contention failure mode. Completion retains the result on the
//! producing device's heap until a consumer (or the host) pulls it.

use crate::error::EngineError;
use crate::exec::event_loop::{Sim, Status};
use crate::exec::task::Role;
use robustq_sim::{DeviceId, Direction, HeapAllocator, PerDevice, Topology};
use robustq_trace::{
    EstVec, FaultKind, OpOutcome, PlacePhase, PlaceReason, TraceEvent, TransferKind,
};

/// One operator heap per co-processor of the topology.
#[derive(Debug)]
pub(crate) struct HeapSet {
    /// `heaps[k]` serves co-processor `k + 1`.
    heaps: Vec<HeapAllocator>,
    /// Free bytes per device, `u64::MAX` for the CPU's unbounded host
    /// memory: kept current by every allocation and release, so a
    /// placement consult borrows it instead of rebuilding it.
    free: PerDevice<u64>,
}

impl HeapSet {
    pub(crate) fn for_topology(topology: &Topology) -> Self {
        let heaps: Vec<HeapAllocator> = topology
            .coprocessors()
            .map(|d| HeapAllocator::new(topology.spec(d).heap_bytes()))
            .collect();
        let mut free = PerDevice::splat(u64::MAX, topology.device_count());
        for (d, heap) in topology.coprocessors().zip(&heaps) {
            free[d] = heap.free_bytes();
        }
        HeapSet { heaps, free }
    }

    pub(crate) fn device(&self, device: DeviceId) -> &HeapAllocator {
        assert!(device.is_coprocessor(), "the CPU has no device heap");
        &self.heaps[device.index() - 1]
    }

    /// Free bytes per device (the CPU's read `u64::MAX`).
    pub(crate) fn free(&self) -> &PerDevice<u64> {
        &self.free
    }

    /// Try to allocate `bytes` under `tag` on `device`'s heap.
    pub(crate) fn try_alloc(&mut self, device: DeviceId, tag: u64, bytes: u64) -> bool {
        assert!(device.is_coprocessor(), "the CPU has no device heap");
        let heap = &mut self.heaps[device.index() - 1];
        let ok = heap.try_alloc(tag, bytes);
        self.free[device] = heap.free_bytes();
        ok
    }

    /// Release every byte held under `tag` on `device`'s heap; returns
    /// how many.
    pub(crate) fn free_tag(&mut self, device: DeviceId, tag: u64) -> u64 {
        assert!(device.is_coprocessor(), "the CPU has no device heap");
        let heap = &mut self.heaps[device.index() - 1];
        let bytes = heap.free_tag(tag);
        self.free[device] = heap.free_bytes();
        bytes
    }

    /// `(device, heap)` pairs in co-processor order (the debug-build
    /// per-event audit walks the fleet).
    #[cfg_attr(not(debug_assertions), allow(dead_code))]
    pub(crate) fn iter(&self) -> impl Iterator<Item = (DeviceId, &HeapAllocator)> {
        self.heaps
            .iter()
            .enumerate()
            .map(|(i, h)| (DeviceId::from_index(i + 1), h))
    }

    /// The largest single-device high-water mark (the reported heap peak
    /// keeps its one-heap meaning: how close *a* device came to capacity).
    pub(crate) fn peak_max(&self) -> u64 {
        self.heaps.iter().map(HeapAllocator::peak).max().unwrap_or(0)
    }

    /// Bytes still allocated, summed over the fleet (leak accounting).
    pub(crate) fn used_total(&self) -> u64 {
        self.heaps.iter().map(HeapAllocator::used).sum()
    }
}

impl Sim<'_, '_> {
    /// Heap tag for an operator's working allocations.
    pub(crate) fn working_tag(task: usize) -> u64 {
        (task as u64) * 2
    }

    /// Heap tag for an operator's retained result.
    pub(crate) fn result_tag(task: usize) -> u64 {
        (task as u64) * 2 + 1
    }

    /// A traced heap allocation attempt on `device`.
    pub(crate) fn heap_alloc(&mut self, device: DeviceId, tag: u64, bytes: u64) -> bool {
        let ok = self.heaps.try_alloc(device, tag, bytes);
        let used = self.heaps.device(device).used();
        self.emit(TraceEvent::HeapAlloc { device, tag, bytes, used, ok, at: self.now });
        ok
    }

    /// A traced heap release on `device` (no event for empty tags).
    pub(crate) fn heap_free(&mut self, device: DeviceId, tag: u64) {
        let bytes = self.heaps.free_tag(device, tag);
        let used = self.heaps.device(device).used();
        if bytes > 0 {
            self.emit(TraceEvent::HeapFree { device, tag, bytes, used, at: self.now });
        }
    }

    /// A heap allocation attempt on `device` that the fault layer may
    /// fail. `stage` is the staged-allocation step (0 = upfront slice,
    /// 1..=3 = mid-execution growth); on an injected failure `injected`
    /// is set so the abort's waste can be attributed to the injection.
    pub(crate) fn alloc_or_inject(
        &mut self,
        device: DeviceId,
        tag: u64,
        bytes: u64,
        stage: u32,
        query: usize,
        injected: &mut bool,
    ) -> bool {
        if self.fault.fail_alloc(stage) {
            self.note_injected(Some(query), FaultKind::AllocFail { stage }, self.now);
            *injected = true;
            return false;
        }
        self.heap_alloc(device, tag, bytes)
    }

    /// Report one finished execution attempt of `task` on its device,
    /// from worker-slot acquisition to now.
    fn emit_op_span(&mut self, task: usize, outcome: OpOutcome) {
        let t = &self.tasks[task];
        let span = TraceEvent::OpSpan {
            query: t.query as u32,
            task: task as u32,
            op: t.class,
            device: t.device.expect("a finished attempt ran somewhere"),
            queued_at: t.queued_at,
            start: t.start_time,
            end: self.now,
            bytes_in: t.bytes_in,
            bytes_out: t.output_bytes,
            rows_out: t.output_rows,
            outcome,
        };
        self.emit(span);
    }

    /// Abort a co-processor operator and restart it on the CPU. The
    /// caller removes the task from the device's compute set when it was
    /// already computing. `injected` marks aborts forced by the fault
    /// plan: the recovery path is identical (injected faults must be
    /// indistinguishable downstream), only the accounting differs.
    pub(crate) fn abort_task(&mut self, task: usize, injected: bool) -> Result<(), EngineError> {
        let device = self.tasks[task].device.expect("aborting a placed task");
        debug_assert!(device.is_coprocessor(), "only co-processor operators abort");
        let wasted = self.now - self.tasks[task].start_time;
        let query = self.tasks[task].query;
        self.query_faults[query].fallbacks += 1;
        if injected {
            self.note_injected_wasted(Some(query), wasted);
        }
        self.emit_op_span(task, OpOutcome::Aborted { injected });
        // The forced CPU restart is itself a placement decision.
        self.emit(TraceEvent::Placement {
            query: query as u32,
            task: task as u32,
            op: self.tasks[task].class,
            phase: PlacePhase::Fallback,
            est: EstVec::EMPTY,
            chosen: DeviceId::Cpu,
            reason: PlaceReason::AbortFallback,
            at: self.now,
        });
        self.heap_free(device, Self::working_tag(task));
        self.devices.running[device] -= 1;
        let t = &mut self.tasks[task];
        t.epoch += 1;
        t.forced_cpu = true;
        // A staged operator that still aborted (injected kernel fault,
        // failed chunk transfer) restarts whole on the CPU.
        t.staged_chunks = 0;
        // Restart on the CPU (CoGaDB's per-operator fallback, Section 2.5.1).
        self.enqueue(task, DeviceId::Cpu);
        self.dispatch(DeviceId::Cpu)?;
        self.dispatch(device)?;
        Ok(())
    }

    /// Bookkeeping for a completed operator (called from `settle` once the
    /// task's remaining work reached zero and it left the compute set).
    pub(crate) fn complete_task(&mut self, task: usize) -> Result<(), EngineError> {
        let device = self.tasks[task].device.expect("finishing a placed task");
        self.devices.running[device] -= 1;

        let staged_chunks = self.tasks[task].staged_chunks;
        if device.is_coprocessor() {
            // Release working memory; retain the result on the heap —
            // except for staged operators, whose output streams back to
            // the host chunk by chunk (the evict phase below).
            self.heap_free(device, Self::working_tag(task));
            if staged_chunks == 0 {
                let out_bytes = self.tasks[task].output_bytes;
                let ok = self.heap_alloc(device, Self::result_tag(task), out_bytes);
                debug_assert!(ok, "result reservation was covered by the working footprint");
            }
            // Inputs held on *this* device are consumed now (siblings'
            // outputs were already pulled to the host at start).
            for i in 0..self.tasks[task].children.len() {
                let c = self.tasks[task].children[i];
                if self.tasks[c].output_device == Some(device) {
                    self.heap_free(device, Self::result_tag(c));
                }
            }
        }

        let busy = self.now - self.tasks[task].start_time;
        self.emit_op_span(task, OpOutcome::Completed);
        let t = &self.tasks[task];
        // A completed shard merge closes its fan-out's trace window
        // (the lint pairs this with the admission-time ShardFanout).
        if t.role == Role::Merge {
            let merge = TraceEvent::ShardMerge {
                query: t.query as u32,
                task: task as u32,
                shards: t.children.len() as u32,
                rows: t.output_rows,
                bytes: t.output_bytes,
                start: t.start_time,
                end: self.now,
            };
            self.emit(merge);
        }
        let t = &self.tasks[task];
        if let Some(model) = self.policy.learned_model() {
            let update = model.observe(
                t.class,
                device,
                t.bytes_in,
                t.output_bytes,
                t.kernel_duration,
                busy,
            );
            self.model_samples.push(update);
        }

        self.tasks[task].status = Status::Done;
        let mut staged_arrival = self.now;
        if staged_chunks > 0 {
            // Evict phase of the staged pipeline: each chunk's result
            // returns to the host over the device link, costed per chunk
            // (durable, like any result transfer). Nothing stays
            // device-resident.
            let query = self.tasks[task].query;
            let bytes = self.d2h_consume_bytes(task);
            for i in 0..staged_chunks {
                let chunk = robustq_sim::partition_bytes(bytes, i, staged_chunks);
                if chunk == 0 {
                    continue;
                }
                let end = self
                    .xfer(
                        self.now,
                        device,
                        Direction::DeviceToHost,
                        TransferKind::Result,
                        chunk,
                        Some(query),
                        false,
                    )
                    .expect("non-abortable transfers always complete");
                staged_arrival = staged_arrival.max(end);
            }
            self.tasks[task].output_device = Some(DeviceId::Cpu);
            self.staging.staged_ops += 1;
            self.staging.staged_chunks += staged_chunks as u64;
        } else {
            self.tasks[task].output_device = Some(device);
        }

        match self.tasks[task].parent {
            Some(p) => {
                self.tasks[p].pending_children -= 1;
                if self.tasks[p].pending_children == 0 {
                    self.make_ready(p)?;
                }
            }
            None => {
                // Root: return the result to the host.
                let query = self.tasks[task].query;
                let mut done_at = staged_arrival;
                if self.tasks[task].output_device.is_some_and(DeviceId::is_coprocessor) {
                    let bytes = self.d2h_consume_bytes(task);
                    // Result transfers are durable: the fault layer only
                    // delays them, never loses them.
                    let end = self
                        .xfer(
                            self.now,
                            device,
                            Direction::DeviceToHost,
                            TransferKind::Result,
                            bytes,
                            Some(query),
                            false,
                        )
                        .expect("non-abortable transfers always complete");
                    self.heap_free(device, Self::result_tag(task));
                    self.tasks[task].output_device = Some(DeviceId::Cpu);
                    done_at = end;
                }
                self.events.push(done_at, crate::exec::event_loop::Ev::QueryDone { query });
            }
        }
        // A freed worker slot may unblock the queue.
        self.dispatch(device)?;
        Ok(())
    }
}
