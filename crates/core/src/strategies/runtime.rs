//! Run-time operator placement (Section 4).
//!
//! Placement is deferred to the moment an operator becomes ready: all
//! input cardinalities are exact, faults have already been observed (an
//! aborted child's output resides on the CPU, so the successor naturally
//! follows it there — avoiding the Figure 8 pathology), and HyPE's load
//! tracking per ready queue steers the choice. Every device in the
//! topology is a candidate: the placer ranks the CPU and all K
//! co-processors by estimated completion time.

use crate::strategies::RecurringMemo;
use robustq_engine::{
    LearnedModel, Placement, PlacementPolicy, PlaceReason, PolicyCtx, TaskInfo,
};
use robustq_sim::{DeviceId, PerDevice, VirtualTime};

/// The run-time heap veto: whether `device` has room for `task` next to
/// what it is already running (always true for the CPU's host memory).
///
/// One advantage of placing at run time (Section 4): current heap usage
/// and co-processor occupancy are observable. The check is deliberately
/// crude — it projects this task's input size onto the already-running
/// operators (2× input each, below the real 3.25× selection footprint)
/// — so heterogeneous workloads still cause aborts, just fewer than
/// blind compile-time placement (Figure 13's middle curve).
fn heap_admits(task: &TaskInfo, device: DeviceId, ctx: &PolicyCtx) -> bool {
    let projected = (1 + ctx.running.get_padded(device) as u64)
        .saturating_mul(task.bytes_in.saturating_mul(2));
    !device.is_coprocessor() || ctx.heap_free.get_padded(device) >= projected
}

/// The shared run-time placement logic: estimated-completion-time
/// minimization over all devices, using learned kernel models plus
/// measured transfer bandwidth.
#[derive(Debug, Clone, Default)]
pub struct RuntimePlacer {
    /// The learned kernel/transfer model (regressions on cold-start
    /// priors until the executor selects and trains it).
    model: LearnedModel,
    /// A standing query re-submits the same plan every window tick, so
    /// the first tick's ranked decision is reused for later ticks as
    /// long as the device stays viable.
    recurring: RecurringMemo,
}

impl RuntimePlacer {
    /// A placer with an unfitted model (cold-start priors).
    pub fn new() -> Self {
        Self::default()
    }

    /// The cost model the placer estimates with; the executor selects
    /// its kind and trains it through
    /// [`PlacementPolicy::learned_model`].
    pub fn model_mut(&mut self) -> &mut LearnedModel {
        &mut self.model
    }

    /// Bytes that would have to cross `device`'s host link host→device
    /// for `task` to run there: base columns (or shard slices) not yet
    /// resident, plus child outputs held elsewhere. A child resident on
    /// *another* co-processor has no direct link, so its output crosses
    /// twice (device→host, then host→device).
    fn h2d_bytes(&self, task: &TaskInfo, device: DeviceId, ctx: &PolicyCtx) -> u64 {
        let mut bytes = ctx.missing_bytes(device, task.base_columns, task.shard);
        for (&dev, &b) in task.children_devices.iter().zip(task.children_bytes) {
            if dev == device {
                continue;
            }
            bytes += if dev.is_coprocessor() { 2 * b } else { b };
        }
        bytes
    }

    /// Bytes that would have to cross back device→host if the task ran
    /// on the CPU (every child resident on a co-processor).
    fn d2h_bytes(&self, task: &TaskInfo) -> u64 {
        task.children_devices
            .iter()
            .zip(task.children_bytes)
            .filter(|(dev, _)| dev.is_coprocessor())
            .map(|(_, b)| b)
            .sum()
    }

    /// Estimated completion time of `task` on `device`.
    pub fn completion_estimate(
        &self,
        task: &TaskInfo,
        device: DeviceId,
        ctx: &PolicyCtx,
    ) -> VirtualTime {
        let kernel = self.model.estimate(
            task.op_class,
            device,
            task.bytes_in,
            task.bytes_out_estimate,
        );
        let transfer = if device.is_coprocessor() {
            self.model.estimate_transfer(self.h2d_bytes(task, device, ctx))
        } else {
            self.model.estimate_transfer(self.d2h_bytes(task))
        };
        ctx.queued_work.get_padded(device) + transfer + kernel
    }

    /// Pick the device with the smallest estimated completion time (ties
    /// go to the lower device index, so the CPU — the risk-free side —
    /// wins exact draws). The returned [`Placement`] carries all
    /// estimates so the decision is auditable from the trace.
    ///
    /// Each co-processor is vetoed independently by `heap_admits`;
    /// when every co-processor is under heap pressure the task falls
    /// back to the CPU with [`PlaceReason::HeapPressure`].
    pub fn choose(&self, task: &TaskInfo, ctx: &PolicyCtx) -> Placement {
        let est = PerDevice::from_fn(ctx.topology.device_count(), |d| {
            self.completion_estimate(task, d, ctx)
        });
        let coproc_count = ctx.topology.coprocessor_count();
        let eligible: Vec<DeviceId> =
            ctx.coprocessors().filter(|&d| heap_admits(task, d, ctx)).collect();
        if coproc_count > 0 && eligible.is_empty() {
            return Placement::modeled(DeviceId::Cpu, est)
                .because(PlaceReason::HeapPressure);
        }
        // Intra-operator sharding: sibling shards all become ready at
        // once with near-identical estimates, so argmin would pile every
        // one onto the same winner. Rank the eligible co-processors by
        // estimate and deal shard `i` to the `i`-th best (mod fleet),
        // spreading the pieces so the operator's makespan scales with K.
        if let Some(s) = task.shard {
            if !eligible.is_empty() {
                let mut ranked = eligible.clone();
                ranked.sort_by(|&a, &b| {
                    est[a].cmp(&est[b]).then(a.index().cmp(&b.index()))
                });
                let device = ranked[s.index as usize % ranked.len()];
                return Placement::modeled(device, est)
                    .because(PlaceReason::ShardSpread);
            }
        }
        let mut device = DeviceId::Cpu;
        for &d in &eligible {
            if est[d] < est[device] {
                device = d;
            }
        }
        Placement::modeled(device, est)
    }

    /// [`RuntimePlacer::choose`] with standing-query memoization: later
    /// window ticks replay the first tick's device — skipping the
    /// ranking — as long as it still passes the heap veto; an abort or a
    /// failed veto re-ranks (the fleet may have changed shape). Tasks of
    /// ordinary queries always take the plain path.
    pub fn choose_recurring(&mut self, task: &TaskInfo, ctx: &PolicyCtx) -> Placement {
        if let Some(replayed) = self.recurring.lookup(task, |d| heap_admits(task, d, ctx)) {
            return replayed;
        }
        let placed = self.choose(task, ctx);
        self.recurring.record(task, placed)
    }
}

/// Plain run-time placement: tactical decisions at execution time, no
/// concurrency bound (Section 4 / Figure 9).
#[derive(Debug, Clone, Default)]
pub struct RuntimePlacement {
    placer: RuntimePlacer,
}

impl RuntimePlacement {
    /// Run-time placement with unfitted models.
    pub fn new() -> Self {
        Self::default()
    }
}

impl PlacementPolicy for RuntimePlacement {
    fn name(&self) -> &'static str {
        "Run-Time Placement"
    }

    fn place_ready(&mut self, task: &TaskInfo, ctx: &PolicyCtx) -> Placement {
        self.placer.choose_recurring(task, ctx)
    }

    fn learned_model(&mut self) -> Option<&mut LearnedModel> {
        Some(self.placer.model_mut())
    }
}

#[cfg(test)]
pub(crate) mod test_support {
    use super::*;
    use robustq_sim::{
        CachePolicy, CacheSet, DataCache, DeviceSpec, LinkParams, OpClass, Topology,
    };
    use robustq_storage::Database;

    pub fn empty_db() -> Database {
        Database::new()
    }

    /// Owns the topology, caches and per-device tables a [`PolicyCtx`]
    /// borrows from. Every co-processor starts idle with unbounded heap.
    pub struct Fixture {
        pub topology: Topology,
        pub caches: CacheSet,
        pub queued_work: PerDevice<VirtualTime>,
        pub running: PerDevice<usize>,
        pub heap_free: PerDevice<u64>,
    }

    /// A 1-CPU + `k`-co-processor fixture; every co-processor cache has
    /// `cache_capacity` bytes.
    pub fn fixture_k(k: usize, cache_capacity: u64) -> Fixture {
        let mut topology = Topology::cpu_gpu(
            DeviceSpec::cpu(4),
            DeviceSpec::coprocessor(4, 1 << 30, cache_capacity),
            LinkParams::default(),
        );
        for _ in 1..k {
            topology = topology.with_coprocessor(
                DeviceSpec::coprocessor(4, 1 << 30, cache_capacity),
                LinkParams::default(),
            );
        }
        let caches = CacheSet::for_topology(&topology, CachePolicy::Lru);
        let n = topology.device_count();
        Fixture {
            topology,
            caches,
            queued_work: PerDevice::splat(VirtualTime::ZERO, n),
            running: PerDevice::splat(0, n),
            heap_free: PerDevice::splat(u64::MAX, n),
        }
    }

    /// The classic single-GPU fixture.
    pub fn fixture(cache_capacity: u64) -> Fixture {
        fixture_k(1, cache_capacity)
    }

    impl Fixture {
        pub fn ctx<'a>(&'a self, db: &'a Database) -> PolicyCtx<'a> {
            PolicyCtx {
                db,
                topology: &self.topology,
                caches: &self.caches,
                queued_work: &self.queued_work,
                running: &self.running,
                heap_free: &self.heap_free,
                now: VirtualTime::ZERO,
                col_epochs: &[],
            }
        }

        pub fn cache_mut(&mut self, device: DeviceId) -> &mut DataCache {
            self.caches.device_mut(device)
        }
    }

    pub fn task(bytes_in: u64) -> TaskInfo<'static> {
        TaskInfo {
            query: 0,
            task: 0,
            op_class: OpClass::Selection,
            base_columns: &[],
            bytes_in,
            bytes_out_estimate: bytes_in / 10,
            children_devices: &[],
            children_bytes: &[],
            children_tasks: &[],
            was_aborted: false,
            shard: None,
            recurring: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::test_support::*;
    use super::*;
    use robustq_sim::OpClass;

    /// Teach the estimator that a co-processor is much faster.
    fn trained_placer(devices: &[DeviceId]) -> RuntimePlacer {
        let mut p = RuntimePlacer::new();
        for mb in [1u64, 4, 16, 64] {
            let b = mb * 1_000_000;
            for &d in devices {
                let rate = if d.is_coprocessor() { 30.0e9 } else { 10.0e9 };
                let took = VirtualTime::from_secs_f64(b as f64 / rate);
                p.model_mut().observe(OpClass::Selection, d, b, 0, took, took);
            }
        }
        p
    }

    #[test]
    fn prefers_gpu_when_data_is_resident() {
        let db = empty_db();
        let fx = fixture(0);
        let ctx = fx.ctx(&db);
        let placer = trained_placer(&[DeviceId::Cpu, DeviceId::Gpu]);
        // No base columns, children on GPU: zero transfer either way in
        // h2d, but CPU placement would pull the child back.
        let mut t = task(8_000_000);
        t.children_devices = &[DeviceId::Gpu];
        t.children_bytes = &[8_000_000];
        assert_eq!(placer.choose(&t, &ctx).device, DeviceId::Gpu);
    }

    #[test]
    fn prefers_cpu_when_transfer_dominates() {
        let db = empty_db();
        let fx = fixture(0);
        let ctx = fx.ctx(&db);
        let placer = trained_placer(&[DeviceId::Cpu, DeviceId::Gpu]);
        // Child output is on the CPU: the GPU pays a 1.2 GB/s copy that
        // dwarfs the kernel speedup.
        let mut t = task(8_000_000);
        t.children_devices = &[DeviceId::Cpu];
        t.children_bytes = &[8_000_000];
        assert_eq!(placer.choose(&t, &ctx).device, DeviceId::Cpu);
    }

    #[test]
    fn load_balancing_diverts_from_busy_device() {
        let db = empty_db();
        let mut fx = fixture(0);
        let placer = trained_placer(&[DeviceId::Cpu, DeviceId::Gpu]);
        let mut t = task(8_000_000);
        t.children_devices = &[DeviceId::Gpu];
        t.children_bytes = &[8_000_000];
        assert_eq!(placer.choose(&t, &fx.ctx(&db)).device, DeviceId::Gpu);
        // Pile an hour of queued work on the GPU: go CPU despite transfer.
        fx.queued_work[DeviceId::Gpu] = VirtualTime::from_secs_f64(3_600.0);
        assert_eq!(placer.choose(&t, &fx.ctx(&db)).device, DeviceId::Cpu);
    }

    #[test]
    fn spreads_across_coprocessors_by_load() {
        let db = empty_db();
        let mut fx = fixture_k(2, 0);
        let g2 = DeviceId::coprocessor(2);
        let placer = trained_placer(&[DeviceId::Cpu, DeviceId::Gpu, g2]);
        let t = task(8_000_000);
        // Identical estimates: ties go to the lower index — GPU1.
        assert_eq!(placer.choose(&t, &fx.ctx(&db)).device, DeviceId::Gpu);
        // Load up GPU1: the second co-processor takes over.
        fx.queued_work[DeviceId::Gpu] = VirtualTime::from_secs_f64(3_600.0);
        assert_eq!(placer.choose(&t, &fx.ctx(&db)).device, g2);
    }

    #[test]
    fn sibling_coprocessor_residency_pays_two_hops() {
        let db = empty_db();
        let fx = fixture_k(2, 0);
        let ctx = fx.ctx(&db);
        let g2 = DeviceId::coprocessor(2);
        let placer = trained_placer(&[DeviceId::Cpu, DeviceId::Gpu, g2]);
        // Child output lives on GPU2: running on GPU2 is free of
        // transfers, running on GPU1 pays two bus crossings.
        let devices = [g2];
        let mut t = task(8_000_000);
        t.children_devices = &devices;
        t.children_bytes = &[8_000_000];
        let placed = placer.choose(&t, &ctx);
        assert_eq!(placed.device, g2);
        assert!(placed.est[DeviceId::Gpu] > placed.est[DeviceId::Cpu]);
    }

    #[test]
    fn per_device_heap_veto_falls_back() {
        let db = empty_db();
        let mut fx = fixture_k(2, 0);
        let g2 = DeviceId::coprocessor(2);
        let placer = trained_placer(&[DeviceId::Cpu, DeviceId::Gpu, g2]);
        let t = task(8_000_000);
        // GPU1 has no heap room: the fleet still absorbs the task on GPU2.
        fx.heap_free[DeviceId::Gpu] = 0;
        let placed = placer.choose(&t, &fx.ctx(&db));
        assert_eq!(placed.device, g2);
        assert_eq!(placed.reason, PlaceReason::CostModel);
        // All co-processors under pressure: CPU with an explicit reason.
        fx.heap_free[g2] = 0;
        let placed = placer.choose(&t, &fx.ctx(&db));
        assert_eq!(placed.device, DeviceId::Cpu);
        assert_eq!(placed.reason, PlaceReason::HeapPressure);
    }

    #[test]
    fn shards_deal_across_the_fleet_instead_of_argmin() {
        let db = empty_db();
        let fx = fixture_k(2, 0);
        let ctx = fx.ctx(&db);
        let g2 = DeviceId::coprocessor(2);
        let placer = trained_placer(&[DeviceId::Cpu, DeviceId::Gpu, g2]);
        // Two sibling shards with identical estimates: argmin would put
        // both on GPU1; the dealer hands shard 1 to GPU2.
        let mut devices = Vec::new();
        for index in 0..2u32 {
            let mut t = task(8_000_000);
            t.shard = Some(robustq_engine::ShardSpec { index, of: 2 });
            let placed = placer.choose(&t, &ctx);
            assert_eq!(placed.reason, PlaceReason::ShardSpread);
            devices.push(placed.device);
        }
        assert_eq!(devices, vec![DeviceId::Gpu, g2]);
    }

    #[test]
    fn untrained_placer_uses_priors_and_still_decides() {
        let db = empty_db();
        let fx = fixture(0);
        let ctx = fx.ctx(&db);
        let placer = RuntimePlacer::new();
        let t = task(1_000_000);
        // With the default priors (GPU 3× faster, no transfers needed)
        // the GPU wins.
        assert_eq!(placer.choose(&t, &ctx).device, DeviceId::Gpu);
    }

    #[test]
    fn runtime_placement_policy_delegates() {
        let db = empty_db();
        let fx = fixture(0);
        let ctx = fx.ctx(&db);
        let mut p = RuntimePlacement::new();
        assert_eq!(p.name(), "Run-Time Placement");
        assert_eq!(p.worker_slots(DeviceId::Gpu, 4), usize::MAX, "no chopping");
        let t = task(1_000_000);
        let placed = p.place_ready(&t, &ctx);
        assert_eq!(placed.device, DeviceId::Gpu);
        assert!(placed.est[DeviceId::Cpu] > placed.est[DeviceId::Gpu]);
        let model = p.learned_model().expect("run-time placement estimates with a model");
        assert_eq!(model.total_observations(), 0);
    }
}
