//! Interconnect staging: transfers with fault injection and retry, and
//! the cache consults that decide what actually crosses a host link.
//!
//! Every byte entering or leaving a co-processor goes through
//! `Sim::xfer`, which schedules the payload on *that device's* host
//! link (links are independent FIFOs; traffic to one co-processor never
//! queues behind another's) and lets the fault layer fail, retry or slow
//! the attempt. Base-column inputs first consult the device's column
//! cache (`Sim::stage_base_columns`); sibling- or co-processor-resident
//! intermediates return to the host via `Sim::pull_child_to_host`.

use crate::error::EngineError;
use crate::exec::event_loop::Sim;
use crate::exec::policy::{key_bytes, read_key};
use crate::exec::task::Role;
use crate::plan::Op;
use robustq_sim::{DeviceId, Direction, RetryPolicy, Transfer, TransferFault, VirtualTime};
use robustq_trace::{FaultKind, TraceEvent, TransferKind};

impl Sim<'_, '_> {
    /// Bytes that cross the bus when the host consumes a device-resident
    /// output. Scan outputs — whole or a spine leaf's — travel as
    /// *position lists* (4 bytes/row): the host already holds every base
    /// column, so only the qualifying positions matter — CoGaDB's
    /// positional processing model. All other operators, merges
    /// included, materialize payloads that must move in full: what leaves
    /// a longer spine's pipelines is their join output.
    pub(crate) fn d2h_consume_bytes(&self, task: usize) -> u64 {
        let t = &self.tasks[task];
        match &*t.op {
            Op::Scan { .. } if t.role != Role::Merge => (t.output_rows * 4).min(t.output_bytes),
            _ => t.output_bytes,
        }
    }

    /// The trace id of an optionally attributable query.
    pub(crate) fn qid(query: Option<usize>) -> u32 {
        query.map_or(TraceEvent::NO_QUERY, |q| q as u32)
    }

    /// Record one fired injection, attributed to `query` when known.
    /// Emitted fault kinds mirror the plan's own `FaultStats` accounting
    /// one-to-one, so trace-derived stats reconcile exactly.
    pub(crate) fn note_injected(
        &mut self,
        query: Option<usize>,
        kind: FaultKind,
        at: VirtualTime,
    ) {
        if let Some(q) = query {
            self.queries[q].faults.injected += 1;
        }
        self.emit(TraceEvent::Fault { kind, query: Self::qid(query), at });
    }

    /// Record one scheduled transfer retry.
    pub(crate) fn note_retry(
        &mut self,
        query: Option<usize>,
        backoff: VirtualTime,
        at: VirtualTime,
    ) {
        if let Some(q) = query {
            self.queries[q].faults.retries += 1;
        }
        self.emit(TraceEvent::Retry { query: Self::qid(query), backoff, at });
    }

    /// Attribute virtual time lost to injections to `query` (the run
    /// total is folded from the event that reports the loss).
    pub(crate) fn note_injected_wasted(&mut self, query: Option<usize>, t: VirtualTime) {
        if let Some(q) = query {
            self.queries[q].faults.injected_wasted += t;
        }
    }

    /// One logical transfer over `device`'s host link, with fault
    /// injection and bounded retry-with-backoff in *virtual* time under
    /// [`RetryPolicy::default`] (every failed attempt occupies the FIFO for
    /// its full service window, then the retry waits out an exponential
    /// backoff).
    ///
    /// Returns `Some(end)` when the payload arrived. Returns `None` —
    /// only possible when `abortable` — for a permanent fault or for
    /// transient faults exhausting the retry budget; the caller then
    /// aborts the operator to the CPU. Non-abortable transfers (results
    /// returning to the host, background placement traffic) always
    /// complete: permanent faults degrade to transient and the fault
    /// layer stops injecting once the budget is spent.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn xfer(
        &mut self,
        now: VirtualTime,
        device: DeviceId,
        dir: Direction,
        kind: TransferKind,
        bytes: u64,
        query: Option<usize>,
        abortable: bool,
    ) -> Option<VirtualTime> {
        let qid = Self::qid(query);
        let retry = RetryPolicy::default();
        // The event reporting one attempt that occupied the link.
        let attempt = |tr: Transfer, faulted: bool, waste: VirtualTime| TraceEvent::Transfer {
            device,
            dir,
            kind,
            query: qid,
            bytes,
            start: tr.start,
            end: tr.end,
            service: tr.service,
            faulted,
            waste,
        };
        let mut at = now;
        let mut failures: u32 = 0;
        loop {
            // Capture the raw draw before the degradation below: the plan
            // already counted a permanent in its stats, and the trace
            // reports the same kind so the two always reconcile.
            let (decision, raw_kind) = if failures > retry.max_retries {
                (None, None) // budget spent: durable transfers complete clean
            } else {
                let raw = self.fault.transfer_fault(dir);
                let raw_kind = raw.map(|f| match f {
                    TransferFault::Transient => FaultKind::TransferTransient,
                    TransferFault::Permanent => FaultKind::TransferPermanent,
                    TransferFault::Spike(_) => FaultKind::TransferSpike,
                });
                let d = match raw {
                    Some(TransferFault::Permanent) if !abortable => {
                        Some(TransferFault::Transient)
                    }
                    d => d,
                };
                (d, raw_kind)
            };
            match decision {
                None => {
                    let tr = self.link.transfer(at, device, dir, bytes);
                    self.emit(attempt(tr, false, VirtualTime::ZERO));
                    return Some(tr.end);
                }
                Some(TransferFault::Spike(f)) => {
                    let tr = self.link.transfer_scaled(at, device, dir, bytes, f);
                    let clean = self.link.params(device).service_time(bytes);
                    let waste = tr.service.saturating_sub(clean);
                    self.note_injected(query, FaultKind::TransferSpike, at);
                    self.note_injected_wasted(query, waste);
                    self.emit(attempt(tr, true, waste));
                    return Some(tr.end);
                }
                Some(TransferFault::Permanent) => {
                    // The link errors out before the payload moves.
                    self.note_injected(query, FaultKind::TransferPermanent, at);
                    return None;
                }
                Some(TransferFault::Transient) => {
                    // The failed attempt still occupied the bus.
                    let tr = self.link.transfer(at, device, dir, bytes);
                    let fault_kind =
                        raw_kind.expect("a transient decision implies a fault draw");
                    self.note_injected(query, fault_kind, at);
                    failures += 1;
                    if abortable && failures > retry.max_retries {
                        self.note_injected_wasted(query, tr.service);
                        self.emit(attempt(tr, true, tr.service));
                        return None;
                    }
                    let backoff = retry.backoff(failures);
                    self.note_retry(query, backoff, tr.end);
                    self.note_injected_wasted(query, tr.service + backoff);
                    self.emit(attempt(tr, true, tr.service + backoff));
                    at = tr.end + backoff;
                }
            }
        }
    }

    /// Consult `device`'s column cache for every base column of `task`,
    /// transferring misses over its host link (and caching them when the
    /// policy uses operator-driven placement).
    ///
    /// Each column probes the key [`read_key`] picks, the one the
    /// policies' residency questions read: a shard's partition unless only
    /// the whole column is resident, so a full miss transfers just the
    /// shard's slice. The key is peeked without touching statistics, so
    /// the counted probe records one hit or miss per staged column. Only
    /// policies that never cache on a miss may shard, so no shard writes a
    /// cache.
    ///
    /// Returns `Ok(Some(ready_at))` once every column is resident,
    /// `Ok(None)` when a permanent transfer fault aborted the operator
    /// (the abort is already handled inside).
    pub(crate) fn stage_base_columns(
        &mut self,
        task: usize,
        device: DeviceId,
        now: VirtualTime,
    ) -> Result<Option<VirtualTime>, EngineError> {
        let query = self.tasks[task].query;
        let partition = self.tasks[task].role.partition();
        let caches_on_miss = self.policy.caches_on_miss();
        let mut ready_at = now;
        for i in 0..self.tasks[task].base_columns.len() {
            let col = self.tasks[task].base_columns[i];
            let key = read_key(self.caches.device(device), col, self.col_epoch(col), partition);
            let bytes = key_bytes(self.db, key);
            let hit = self.caches.device_mut(device).probe(key);
            self.emit(TraceEvent::CacheProbe { device, key, bytes, hit, at: now });
            if !hit {
                match self.xfer(
                    now,
                    device,
                    Direction::HostToDevice,
                    TransferKind::Input,
                    bytes,
                    Some(query),
                    true,
                ) {
                    Some(end) => ready_at = ready_at.max(end),
                    None => {
                        self.abort_task(task, true)?;
                        return Ok(None);
                    }
                }
                if caches_on_miss {
                    let outcome = self.caches.device_mut(device).insert(key, bytes);
                    for &(k, b) in &outcome.evicted {
                        self.emit(TraceEvent::CacheEvict {
                            device,
                            key: k,
                            bytes: b,
                            at: now,
                        });
                    }
                    if outcome.inserted {
                        self.emit(TraceEvent::CacheInsert {
                            device,
                            key,
                            bytes,
                            at: now,
                        });
                    }
                }
            }
        }
        Ok(Some(ready_at))
    }

    /// Return a co-processor-resident child output to the host: a durable
    /// device→host transfer over the child's link, releasing its retained
    /// result from that device's heap. Returns when the payload arrived.
    pub(crate) fn pull_child_to_host(
        &mut self,
        child: usize,
        query: usize,
        now: VirtualTime,
    ) -> VirtualTime {
        let source = self.tasks[child]
            .output_device
            .expect("pulling an unplaced output");
        debug_assert!(source.is_coprocessor(), "host-resident outputs need no pull");
        let bytes = self.d2h_consume_bytes(child);
        let end = self
            .xfer(
                now,
                source,
                Direction::DeviceToHost,
                TransferKind::Input,
                bytes,
                Some(query),
                false,
            )
            .expect("non-abortable transfers always complete");
        self.heap_free(source, Self::result_tag(child));
        self.tasks[child].output_device = Some(DeviceId::Cpu);
        end
    }
}
