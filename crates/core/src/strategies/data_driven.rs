//! Data-driven operator placement (Section 3) and its combination with
//! query chopping (Section 5.4).
//!
//! The storage adviser (our [`DataPlacementManager`]) pins the most
//! frequently used columns into the co-processor caches; the query
//! processor places an operator on a co-processor *if and only if* its
//! input is resident there. Scans check the pinned caches; downstream
//! operators chain — they run on a co-processor exactly when all their
//! children ran on that same device, so the chain breaks at the first
//! operator with a non-resident input and the rest of the query stays on
//! the CPU (Section 3.3). With K co-processors, each column has one home
//! device and the chain follows whichever device holds the data. Under
//! sharding a partition has its home too, so a query's shard pipelines
//! fan out after their partitions, and their fan-in (the merge, its
//! children on several co-processors) breaks the chain like any other
//! operator with inputs on different devices: it and everything above it
//! run on the CPU, where the query's result is returned.

use crate::placement_mgr::{DataPlacementManager, PlacementPolicyKind};
use crate::strategies::price::{busiest_coprocessor, price};
use robustq_engine::{
    LearnedModel, Placement, PlacementPolicy, PlaceReason, PolicyCtx, TaskInfo,
};
use robustq_sim::{CacheKey, CacheSet, DeviceId, PerDevice, VirtualTime};
use robustq_storage::Database;

/// Shared chaining rule: a co-processor iff every input is resident on
/// that one device. A leaf scan follows its data
/// ([`PolicyCtx::resident_device`]; a shard its partition, so the
/// placement manager can home different partitions of one table on
/// different co-processors and the shards fan out after the data, and a
/// pipeline's replica of a build side the replica dealt to its shard, so
/// the spine's joins chain on the shard's device).
fn data_driven_device(task: &TaskInfo, ctx: &PolicyCtx) -> DeviceId {
    if task.children_devices.is_empty() && task.children_tasks.is_empty() {
        // Leaf scan: no resident device (or no columns) → CPU.
        ctx.resident_device(task).unwrap_or(DeviceId::Cpu)
    } else {
        // Chain: all children on the same co-processor → stay there.
        match task.children_devices.first() {
            Some(&first)
                if first.is_coprocessor()
                    && task.children_devices.iter().all(|&d| d == first) =>
            {
                first
            }
            _ => DeviceId::Cpu,
        }
    }
}

/// The chain residency builds for one query at admission, in buffers a
/// strategy keeps from query to query.
#[derive(Debug, Clone, Default)]
struct Chain {
    /// Each task's device, in the `plan_query` slice's order.
    devices: Vec<DeviceId>,
    /// The children's devices of the task being placed.
    children: Vec<DeviceId>,
    /// The whole query on the CPU, the plan the veto prices the chain
    /// against.
    on_cpu: Vec<DeviceId>,
}

impl Chain {
    /// Place `tasks` (one query, postorder) by the chaining rule, each
    /// task seeing its children's devices as decided before it.
    fn build(&mut self, tasks: &[TaskInfo], ctx: &PolicyCtx) -> &[DeviceId] {
        let base = tasks.first().map_or(0, |t| t.task);
        self.devices.clear();
        for t in tasks {
            self.children.clear();
            self.children.extend(t.children_tasks.iter().map(|&c| self.devices[c - base]));
            let resolved = TaskInfo { children_devices: &self.children, ..*t };
            self.devices.push(data_driven_device(&resolved, ctx));
        }
        &self.devices
    }
}

/// Data-driven operator placement at compile time (Section 3).
///
/// The whole chain is fixed when the query is admitted, based on cache
/// residency at that moment; aborted operators restart on the CPU but
/// their successors keep their annotation (this is why Data-Driven alone
/// does not solve heap contention — Figure 7).
#[derive(Debug, Clone)]
pub struct DataDriven {
    manager: DataPlacementManager,
    chain: Chain,
}

impl DataDriven {
    /// Data-driven placement with the given ranking criterion.
    pub fn new(kind: PlacementPolicyKind) -> Self {
        Self::with_manager(DataPlacementManager::new(kind))
    }

    /// Override the manager (e.g. to cap the pin budget in Figure 24).
    pub fn with_manager(manager: DataPlacementManager) -> Self {
        DataDriven { manager, chain: Chain::default() }
    }
}

impl PlacementPolicy for DataDriven {
    fn name(&self) -> &'static str {
        "Data-Driven"
    }

    fn plan_query(&mut self, tasks: &[TaskInfo], ctx: &PolicyCtx) -> Vec<Option<Placement>> {
        self.chain
            .build(tasks, ctx)
            .iter()
            .map(|&d| Some(Placement::fixed(d).because(PlaceReason::DataResidency)))
            .collect()
    }

    fn caches_on_miss(&self) -> bool {
        false
    }

    fn update_data_placement(
        &mut self,
        db: &Database,
        caches: &mut CacheSet,
        epochs: &[u64],
    ) -> Vec<(DeviceId, CacheKey)> {
        self.manager.update_set(db, caches, epochs)
    }
}

/// One query's two prices at admission, and the chain's co-processor
/// with the most queued work, whose queue the chain's price includes.
struct Prices {
    coprocessor: DeviceId,
    chain: VirtualTime,
    cpu: VirtualTime,
}

/// Data-driven query chopping (Section 5.4): the combined, robust
/// strategy. Placement follows the pinned data like [`DataDriven`], but
/// is decided at run time per ready operator (so aborts re-route the rest
/// of the query), and the per-device thread pool bounds concurrent heap
/// use.
///
/// Residency proposes and the learned model may veto: at admission a
/// query the model prices cheaper wholly on the CPU than on its chain is
/// placed there (a 1 k-row chain never wins back its result's return).
/// A query with a shard never is: sharding is already the bet on the
/// fleet.
#[derive(Debug, Clone)]
pub struct DataDrivenChopping {
    manager: DataPlacementManager,
    /// Trained by the executor; consulted only by the admission veto.
    model: LearnedModel,
    /// The chain the veto prices, in buffers reused across admissions.
    chain: Chain,
}

impl DataDrivenChopping {
    /// Data-driven chopping with the given ranking criterion.
    pub fn new(kind: PlacementPolicyKind) -> Self {
        Self::with_manager(DataPlacementManager::new(kind))
    }

    /// Override the manager (pin-budget sweeps).
    pub fn with_manager(manager: DataPlacementManager) -> Self {
        DataDrivenChopping {
            manager,
            model: LearnedModel::default(),
            chain: Chain::default(),
        }
    }

    /// The [`price()`] of `tasks` (one query, postorder) on the chain
    /// residency builds, against the whole query on the CPU. `None` when
    /// the query has a shard, the chain never leaves the CPU, or a kernel
    /// cell either price reads is still on its prior.
    fn prices(&mut self, tasks: &[TaskInfo], ctx: &PolicyCtx) -> Option<Prices> {
        if tasks.iter().any(|t| t.role.pipeline().is_some()) {
            return None;
        }
        let devices = self.chain.build(tasks, ctx);
        let coprocessor = busiest_coprocessor(devices, ctx)?;
        let fitted = |(t, &d): (&TaskInfo, &DeviceId)| {
            self.model.is_fitted(t.op_class, d) && self.model.is_fitted(t.op_class, DeviceId::Cpu)
        };
        if !tasks.iter().zip(devices).all(fitted) {
            return None;
        }
        let chain = price(&self.model, tasks, devices, ctx);
        let on_cpu = &mut self.chain.on_cpu;
        on_cpu.clear();
        on_cpu.resize(tasks.len(), DeviceId::Cpu);
        let cpu = price(&self.model, tasks, on_cpu, ctx);
        Some(Prices { coprocessor, chain, cpu })
    }
}

impl PlacementPolicy for DataDrivenChopping {
    fn name(&self) -> &'static str {
        "Data-Driven Chopping"
    }

    fn plan_query(&mut self, tasks: &[TaskInfo], ctx: &PolicyCtx) -> Vec<Option<Placement>> {
        let Some(p) = self.prices(tasks, ctx).filter(|p| p.cpu < p.chain) else {
            return vec![None; tasks.len()];
        };
        let est = PerDevice::from_fn(ctx.topology.device_count(), |d| match d {
            DeviceId::Cpu => p.cpu,
            d if d == p.coprocessor => p.chain,
            _ => VirtualTime::ZERO,
        });
        let vetoed = Placement::fixed(DeviceId::Cpu).because(PlaceReason::CostModel);
        let mut placed = vec![Some(vetoed); tasks.len()];
        if let Some(root) = placed.last_mut() {
            *root = Some(Placement::modeled(DeviceId::Cpu, est));
        }
        placed
    }

    fn place_ready(&mut self, task: &TaskInfo, ctx: &PolicyCtx) -> Placement {
        Placement::fixed(data_driven_device(task, ctx)).because(PlaceReason::DataResidency)
    }

    fn worker_slots(&self, _device: DeviceId, spec_slots: usize) -> usize {
        spec_slots
    }

    fn caches_on_miss(&self) -> bool {
        false
    }

    fn learned_model(&mut self) -> Option<&mut LearnedModel> {
        Some(&mut self.model)
    }

    fn update_data_placement(
        &mut self,
        db: &Database,
        caches: &mut CacheSet,
        epochs: &[u64],
    ) -> Vec<(DeviceId, CacheKey)> {
        self.manager.update_set(db, caches, epochs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::strategies::runtime::test_support::{empty_db, fixture, fixture_k, task};
    use robustq_engine::Role;
    use robustq_sim::OpClass;
    use robustq_storage::ColumnId;

    fn scan_task(cols: &[ColumnId]) -> TaskInfo<'_> {
        TaskInfo { base_columns: cols, ..task(1_000) }
    }

    #[test]
    fn scan_follows_pinned_data() {
        let db = empty_db();
        let mut fx = fixture(1_000);
        fx.cache_mut(DeviceId::Gpu)
            .set_pinned(&[(CacheKey(1), 10), (CacheKey(2), 10)]);
        let ctx = fx.ctx(&db);
        let mut p = DataDrivenChopping::new(PlacementPolicyKind::Lfu);
        // Both columns resident -> GPU.
        let t = scan_task(&[ColumnId(1), ColumnId(2)]);
        assert_eq!(p.place_ready(&t, &ctx).device, DeviceId::Gpu);
        // One missing -> CPU.
        let t = scan_task(&[ColumnId(1), ColumnId(3)]);
        assert_eq!(p.place_ready(&t, &ctx).device, DeviceId::Cpu);
    }

    #[test]
    fn scan_follows_data_to_the_sibling_coprocessor() {
        let db = empty_db();
        let mut fx = fixture_k(2, 1_000);
        let g2 = DeviceId::coprocessor(2);
        fx.cache_mut(g2).set_pinned(&[(CacheKey(1), 10)]);
        let ctx = fx.ctx(&db);
        // Sharding changes no rule: a shard fan-in's children sit on
        // different co-processors, so it breaks the chain like any join.
        let sharded = crate::DataPlacementManager::lfu().with_sharding(2, 0);
        for mut p in [
            DataDrivenChopping::new(PlacementPolicyKind::Lfu),
            DataDrivenChopping::with_manager(sharded),
        ] {
            let t = scan_task(&[ColumnId(1)]);
            assert_eq!(p.place_ready(&t, &ctx).device, g2, "data lives on GPU2");
            // A chain over GPU2 children stays on GPU2; mixed homes break it.
            let (same, mixed) = ([g2, g2], [DeviceId::Gpu, g2]);
            let mut join = task(2_000);
            join.children_tasks = &[0, 1];
            join.children_devices = &same;
            join.children_bytes = &[10, 10];
            assert_eq!(p.place_ready(&join, &ctx).device, g2);
            join.children_devices = &mixed;
            let placed = p.place_ready(&join, &ctx);
            let want = (DeviceId::Cpu, PlaceReason::DataResidency);
            assert_eq!((placed.device, placed.reason), want);
        }
    }

    #[test]
    fn chain_breaks_at_first_cpu_child() {
        let db = empty_db();
        let fx = fixture(0);
        let ctx = fx.ctx(&db);
        let mut p = DataDrivenChopping::new(PlacementPolicyKind::Lfu);
        let mut t = task(1_000);
        t.children_tasks = &[0, 1];
        t.children_devices = &[DeviceId::Gpu, DeviceId::Gpu];
        t.children_bytes = &[10, 10];
        assert_eq!(p.place_ready(&t, &ctx).device, DeviceId::Gpu);
        t.children_devices = &[DeviceId::Gpu, DeviceId::Cpu];
        assert_eq!(p.place_ready(&t, &ctx).device, DeviceId::Cpu);
    }

    #[test]
    fn compile_time_data_driven_chains_through_plan() {
        let db = empty_db();
        let mut fx = fixture(1_000);
        fx.cache_mut(DeviceId::Gpu).set_pinned(&[(CacheKey(7), 10)]);
        let ctx = fx.ctx(&db);
        let mut p = DataDriven::new(PlacementPolicyKind::Lfu);

        // Tasks 0,1 are scans; 2 joins them (postorder, ids offset by 40).
        let mut scan_hot = scan_task(&[ColumnId(7)]);
        scan_hot.task = 40;
        let mut scan_cold = scan_task(&[ColumnId(9)]);
        scan_cold.task = 41;
        let mut join = task(2_000);
        join.task = 42;
        join.children_tasks = &[40, 41];
        let out = p.plan_query(&[scan_hot, scan_cold, join], &ctx);
        let devices: Vec<DeviceId> =
            out.iter().map(|p| p.as_ref().unwrap().device).collect();
        assert_eq!(
            devices,
            vec![DeviceId::Gpu, DeviceId::Cpu, DeviceId::Cpu],
            "join chains to CPU because one input scan is cold"
        );
        assert!(out
            .iter()
            .all(|p| p.as_ref().unwrap().reason == PlaceReason::DataResidency));

        // If both scans are hot the whole chain goes to the co-processor.
        let mut scan_hot2 = scan_task(&[ColumnId(7)]);
        scan_hot2.task = 41;
        let out = p.plan_query(&[scan_hot, scan_hot2, join], &ctx);
        assert!(out.iter().all(|p| p.as_ref().unwrap().device == DeviceId::Gpu));
    }

    /// Column 7 is pinned on the GPU; column 9 is not.
    const HOT: &[ColumnId] = &[ColumnId(7)];
    const COLD: &[ColumnId] = &[ColumnId(9)];

    fn pinned_fixture() -> crate::strategies::runtime::test_support::Fixture {
        let mut fx = fixture(1_000);
        fx.cache_mut(DeviceId::Gpu).set_pinned(&[(CacheKey(7), 10)]);
        fx
    }

    /// Teach the strategy's model selections, joins and aggregates on the
    /// CPU at 5 GB/s and, with `gpu`, on the GPU at 15 GB/s: two work
    /// sizes each, so every taught cell is fitted.
    fn trained(gpu: bool) -> DataDrivenChopping {
        let mut p = DataDrivenChopping::new(PlacementPolicyKind::Lfu);
        let model = p.learned_model().expect("the strategy trains a model");
        for (device, rate) in [(DeviceId::Cpu, 5.0e9), (DeviceId::Gpu, 15.0e9)] {
            if device.is_coprocessor() && !gpu {
                continue;
            }
            for class in [OpClass::Selection, OpClass::HashJoin, OpClass::Aggregation] {
                for bytes in [1_000u64, 100_000] {
                    let d = VirtualTime::from_secs_f64(bytes as f64 / rate);
                    model.observe(class, device, bytes, 0, d, d);
                }
            }
        }
        p
    }

    /// A scan of the hot column reading `bytes` under an aggregate, as
    /// tasks 40 and 41; `child` holds the scan's estimated output.
    fn scan_then_aggregate(bytes: u64, child: &[u64]) -> [TaskInfo<'_>; 2] {
        let scan = TaskInfo { task: 40, base_columns: HOT, ..task(bytes) };
        let agg = TaskInfo {
            task: 41,
            op_class: OpClass::Aggregation,
            children_tasks: &[40],
            children_bytes: child,
            ..task(bytes / 10)
        };
        [scan, agg]
    }

    fn vetoed(placed: &[Option<Placement>]) -> bool {
        let (root, rest) = placed.split_last().expect("one placement per task");
        let cpu = |p: &Option<Placement>| {
            p.as_ref().is_some_and(|p| {
                p.device == DeviceId::Cpu && p.reason == PlaceReason::CostModel
            })
        };
        assert_eq!(cpu(root), rest.iter().all(cpu), "a veto places the whole query");
        cpu(root)
    }

    #[test]
    fn a_small_resident_query_is_vetoed_and_a_large_one_is_not() {
        let db = empty_db();
        let fx = pinned_fixture();
        let ctx = fx.ctx(&db);
        let mut p = trained(true);
        // 10 kB: 0.77 µs of GPU kernels plus the 2 µs result return
        // against 2.3 µs on the CPU.
        let small = scan_then_aggregate(10_000, &[1_000]);
        let placed = p.plan_query(&small, &ctx);
        assert!(vetoed(&placed), "{placed:?}");
        let est = &placed[1].as_ref().unwrap().est;
        assert!(est[DeviceId::Cpu] < est[DeviceId::Gpu], "the root carries both prices");
        assert!(est[DeviceId::Gpu] > ctx.topology.link(DeviceId::Gpu).latency);
        // 10 MB: the GPU's 1.4 ms saved outweighs the return.
        let large = scan_then_aggregate(10_000_000, &[1_000_000]);
        assert_eq!(p.plan_query(&large, &ctx), vec![None, None]);
    }

    #[test]
    fn no_veto_while_a_consulted_cell_is_on_its_prior() {
        let db = empty_db();
        let fx = pinned_fixture();
        let ctx = fx.ctx(&db);
        let query = scan_then_aggregate(10_000, &[1_000]);
        assert_eq!(trained(false).plan_query(&query, &ctx), vec![None, None]);
        let mut untrained = DataDrivenChopping::new(PlacementPolicyKind::Lfu);
        assert_eq!(untrained.plan_query(&query, &ctx), vec![None, None]);
    }

    #[test]
    fn a_query_with_a_shard_is_never_vetoed() {
        let db = empty_db();
        let fx = pinned_fixture();
        let ctx = fx.ctx(&db);
        let mut p = trained(true);
        let [scan, agg] = scan_then_aggregate(10_000, &[1_000]);
        let shard = robustq_engine::ShardSpec { index: 0, of: 2 };
        let sharded = [TaskInfo { role: Role::Spine(shard), ..scan }, agg];
        assert_eq!(p.plan_query(&sharded, &ctx), vec![None, None]);
    }

    #[test]
    fn a_chain_break_pull_is_priced() {
        let db = empty_db();
        let fx = pinned_fixture();
        let ctx = fx.ctx(&db);
        let mut p = trained(true);
        // The hot scan runs on the GPU, the cold one on the CPU, so the
        // join breaks the chain and pulls the hot scan's output home.
        let hot = TaskInfo { task: 40, base_columns: HOT, ..task(10_000) };
        let cold = TaskInfo { task: 41, base_columns: COLD, ..task(10_000) };
        let join = TaskInfo {
            task: 42,
            op_class: OpClass::HashJoin,
            children_tasks: &[40, 41],
            children_bytes: &[1_000, 1_000],
            ..task(2_000)
        };
        let placed = p.plan_query(&[hot, cold, join], &ctx);
        assert!(vetoed(&placed), "{placed:?}");
        let model = p.learned_model().unwrap();
        let kernel =
            |t: &TaskInfo, d| model.estimate(t.op_class, d, t.bytes_in, t.bytes_out_estimate);
        let pull = ctx.topology.link(DeviceId::Gpu).service_time(1_000);
        let (gpu, cpu) = (DeviceId::Gpu, DeviceId::Cpu);
        let chain = kernel(&hot, gpu) + kernel(&cold, cpu) + kernel(&join, cpu) + pull;
        let on_cpu = kernel(&hot, cpu) + kernel(&cold, cpu) + kernel(&join, cpu);
        let est = &placed[2].as_ref().unwrap().est;
        assert_eq!((est[gpu], est[cpu]), (chain, on_cpu));
    }

    #[test]
    fn the_result_return_is_priced_at_the_link_latency() {
        let db = empty_db();
        let fx = pinned_fixture();
        let ctx = fx.ctx(&db);
        let mut p = trained(true);
        // A resident 1 MB selection estimated to return all of it: the
        // return's bytes would cost 1.2 ms, the GPU saves 0.14 ms, but the
        // estimate of a result's size is a guess, so only the latency counts.
        let scan = TaskInfo {
            task: 40,
            base_columns: HOT,
            bytes_out_estimate: 1_000_000,
            ..task(1_000_000)
        };
        assert_eq!(p.plan_query(&[scan], &ctx), vec![None]);
    }

    #[test]
    fn queued_cpu_work_turns_a_veto_off() {
        let db = empty_db();
        let mut fx = pinned_fixture();
        let mut p = trained(true);
        let query = scan_then_aggregate(10_000, &[1_000]);
        assert!(vetoed(&p.plan_query(&query, &fx.ctx(&db))));
        fx.queued_work[DeviceId::Cpu] = VirtualTime::from_micros(1);
        assert_eq!(p.plan_query(&query, &fx.ctx(&db)), vec![None, None]);
        // Work queued on the GPU weighs on the chain's side instead.
        fx.queued_work[DeviceId::Gpu] = VirtualTime::from_micros(1);
        assert!(vetoed(&p.plan_query(&query, &fx.ctx(&db))));
    }

    #[test]
    fn data_driven_never_caches_on_miss() {
        assert!(!DataDriven::new(PlacementPolicyKind::Lfu).caches_on_miss());
        assert!(!DataDrivenChopping::new(PlacementPolicyKind::Lfu).caches_on_miss());
    }

    #[test]
    fn placement_update_delegates_to_manager() {
        use robustq_storage::{ColumnData, DataType, Field, Schema, Table};
        let mut db = Database::new();
        db.add_table(
            Table::new(
                "t",
                Schema::new(vec![Field::new("x", DataType::Int32)]),
                vec![ColumnData::Int32(vec![1, 2, 3])],
            )
            .unwrap(),
        )
        .unwrap();
        db.stats().record_access(0);
        let mut fx = fixture(1_000);
        let mut p = DataDrivenChopping::new(PlacementPolicyKind::Lfu);
        let newly = p.update_data_placement(&db, &mut fx.caches, &[]);
        assert_eq!(newly, vec![(DeviceId::Gpu, CacheKey(0))]);
        assert!(fx.caches.device(DeviceId::Gpu).contains(CacheKey(0)));
    }

    #[test]
    fn slot_bounds() {
        let p = DataDrivenChopping::new(PlacementPolicyKind::Lfu);
        assert_eq!(p.worker_slots(DeviceId::Gpu, 4), 4);
        // Compile-time DataDriven does not chop.
        let p = DataDriven::new(PlacementPolicyKind::Lfu);
        assert_eq!(p.worker_slots(DeviceId::Gpu, 4), usize::MAX);
    }

    #[test]
    fn scan_with_no_base_columns_stays_on_cpu() {
        let db = empty_db();
        let fx = fixture(0);
        let ctx = fx.ctx(&db);
        let mut p = DataDrivenChopping::new(PlacementPolicyKind::Lfu);
        assert_eq!(p.place_ready(&task(100), &ctx).device, DeviceId::Cpu);
    }
}
