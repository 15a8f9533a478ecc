//! The placement-policy interface.
//!
//! Strategies (crate `robustq-core`) implement [`PlacementPolicy`]; the
//! executor consults it at three points:
//!
//! 1. **query admission** — [`PlacementPolicy::plan_query`] may fix a
//!    compile-time placement per operator (the classic approach of
//!    Section 2.5.2) or defer by returning `None` entries;
//! 2. **task readiness** — deferred tasks are placed by
//!    [`PlacementPolicy::place_ready`] with *exact* input cardinalities
//!    (run-time placement, Section 4);
//! 3. **operator completion** — the executor feeds the sample to the
//!    strategy's [`PlacementPolicy::learned_model`], and periodically
//!    [`PlacementPolicy::update_data_placement`] lets a data-driven
//!    strategy re-pin the co-processor caches (Section 3.2, Algorithm 1).
//!
//! Policies return [`Placement`] records — the chosen device *plus* the
//! per-device cost estimates and the reason behind the pick — so the
//! tracer can emit a placement-decision event for every placed operator
//! without re-deriving the policy's internal state.
//!
//! Policies see the whole machine through [`PolicyCtx`]: the
//! [`Topology`] (1 CPU + K co-processors), one column cache and one
//! heap-free figure per co-processor, and per-device load signals.
//! Nothing in the interface assumes K = 1; strategies rank candidate
//! devices by iterating [`PolicyCtx::devices`].

use crate::exec::model::LearnedModel;
use crate::exec::task::{Role, ShardSpec};
use robustq_sim::{
    CacheKey, CacheSet, DataCache, DeviceId, OpClass, PerDevice, Topology, VirtualTime,
};
use robustq_storage::{ColumnId, Database};
pub use robustq_trace::PlaceReason;

/// A placement decision: the chosen device annotated with the evidence
/// behind it (estimated per-device cost and a categorical reason).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Placement {
    /// The device the operator should run on.
    pub device: DeviceId,
    /// Estimated runtime per device, in dense device order. Strategies
    /// without a cost model leave this empty (read back as `ZERO`).
    pub est: PerDevice<VirtualTime>,
    /// Why this device was picked.
    pub reason: PlaceReason,
}

impl Placement {
    /// A placement fixed by strategy structure, not a cost comparison.
    pub fn fixed(device: DeviceId) -> Self {
        Placement {
            device,
            est: PerDevice::empty(),
            reason: PlaceReason::Static,
        }
    }

    /// A placement backed by a cost-model comparison.
    pub fn modeled(device: DeviceId, est: PerDevice<VirtualTime>) -> Self {
        Placement { device, est, reason: PlaceReason::CostModel }
    }

    /// Override the reason, keeping device and estimates.
    pub fn because(mut self, reason: PlaceReason) -> Self {
        self.reason = reason;
        self
    }
}

/// Everything a policy may inspect when placing one task.
///
/// The lists are borrowed — from the executor's task table and from
/// buffers it reuses — so building one allocates nothing.
#[derive(Debug, Clone, Copy)]
pub struct TaskInfo<'a> {
    /// Task index within the executor.
    pub task: usize,
    /// Cost-model class of the operator.
    pub op_class: OpClass,
    /// Base columns read directly (non-empty only for scans).
    pub base_columns: &'a [ColumnId],
    /// Input payload bytes: an estimate at compile time, exact at run time.
    pub bytes_in: u64,
    /// Output payload bytes: an estimate at compile time, exact only
    /// after execution (so still an estimate in `place_ready`).
    pub bytes_out_estimate: u64,
    /// Devices holding each child's output (empty at compile time).
    pub children_devices: &'a [DeviceId],
    /// Output bytes per child: exact at run time, the child's estimate at
    /// compile time. Aligned with `children_tasks`.
    pub children_bytes: &'a [u64],
    /// Global task ids of the children (build side first for joins). In
    /// `plan_query` these index into the same `tasks` slice after
    /// subtracting the first task's id, exposing the plan tree to
    /// compile-time strategies like Critical Path.
    pub children_tasks: &'a [usize],
    /// True if this task was already aborted on the co-processor once.
    pub was_aborted: bool,
    /// How much of its operator the task runs (DESIGN.md §6). Two
    /// questions read it apart: which partition of its base columns the
    /// task reads ([`Role::partition`]: a shard's or a spine leaf's, never
    /// a replica's) and which shard pipeline it follows
    /// ([`Role::pipeline`]). Data-driven strategies place a shard on its
    /// partition's home and a replica beside it (DESIGN.md §7).
    pub role: Role,
}

/// Read-only view of execution state exposed to policies. Every table is
/// borrowed from state the executor keeps current, so a consult copies
/// nothing.
pub struct PolicyCtx<'a> {
    /// The database being queried.
    pub db: &'a Database,
    /// The machine's device and link tables.
    pub topology: &'a Topology,
    /// One column cache per co-processor (residency checks).
    pub caches: &'a CacheSet,
    /// Estimated outstanding work per device — HyPE's load tracking
    /// signal (Section 5.2): every queued operator, and every operator a
    /// compile-time pass placed there from the moment its query was
    /// admitted, so queries admitted at one instant see each other.
    pub queued_work: &'a PerDevice<VirtualTime>,
    /// Operators currently running per device.
    pub running: &'a PerDevice<usize>,
    /// Free heap bytes per device (`u64::MAX` for the CPU's unbounded
    /// host memory).
    pub heap_free: &'a PerDevice<u64>,
    /// Current virtual time.
    pub now: VirtualTime,
    /// Per-column data epoch (indexed by [`ColumnId::index`]): the epoch
    /// of the last append that touched the column, as tracked by the
    /// executor's feed replay. Empty for batch runs — every column then
    /// reads as epoch 0, which matches the pre-streaming cache keys.
    pub col_epochs: &'a [u64],
}

impl PolicyCtx<'_> {
    /// All device ids, CPU first.
    pub fn devices(&self) -> impl Iterator<Item = DeviceId> + '_ {
        self.topology.devices()
    }

    /// The co-processor ids, in dense order.
    pub fn coprocessors(&self) -> impl Iterator<Item = DeviceId> + '_ {
        self.topology.coprocessors()
    }

    /// The column cache of co-processor `device`.
    pub fn cache(&self, device: DeviceId) -> &DataCache {
        self.caches.device(device)
    }

    /// Current data epoch of column `col` (0 in batch runs).
    pub fn epoch_of(&self, col: ColumnId) -> u64 {
        self.col_epochs.get(col.index()).copied().unwrap_or(0)
    }

    /// The co-processor with the least queued work (ties: lowest
    /// index), or `None` on a CPU-only topology.
    pub fn least_loaded_coprocessor(&self) -> Option<DeviceId> {
        self.coprocessors()
            .min_by_key(|&d| (self.queued_work.get_padded(d), d))
    }

    /// The key each of `task`'s base-column reads probes on `device`
    /// ([`read_key`] of its partition, if it reads one), and whether it
    /// is resident there.
    fn reads<'t>(
        &'t self,
        device: DeviceId,
        task: &'t TaskInfo<'t>,
    ) -> impl Iterator<Item = (CacheKey, bool)> + 't {
        let ctx: &'t PolicyCtx<'t> = self;
        let cache = ctx.cache(device);
        task.base_columns.iter().map(move |&c| {
            let key = read_key(cache, c, ctx.epoch_of(c), task.role.partition());
            (key, cache.contains(key))
        })
    }

    /// True if everything `task` reads is resident on `device` at its
    /// live epoch: for a task reading a partition, that partition or the
    /// whole column; for any other, the whole column (vacuously true for
    /// a task that reads no base column).
    pub fn resident_on(&self, device: DeviceId, task: &TaskInfo) -> bool {
        self.reads(device, task).all(|(_, resident)| resident)
    }

    /// Bytes `task` would still stage on co-processor `device`: each read
    /// not resident there at its live epoch, a partition's slice or a
    /// whole column. The one residency arithmetic behind every transfer price;
    /// staging reads the same keys.
    pub fn missing_bytes(&self, device: DeviceId, task: &TaskInfo) -> u64 {
        self.reads(device, task)
            .filter(|&(_, resident)| !resident)
            .map(|(key, _)| key_bytes(self.db, key))
            .sum()
    }

    /// The co-processor `task`'s base columns are resident on, or `None`
    /// (also when it reads none: an empty input carries no signal).
    ///
    /// A task outside any shard pipeline takes the first such device. A
    /// shard's home is the device caching its *partition* keys, and wins
    /// outright; when only whole-column replicas exist (the placement
    /// manager replicates small tables into every cache) — always, for a
    /// pipeline's replica of a build side, which reads whole columns —
    /// the tasks of sibling pipelines deal themselves over the replicas
    /// round-robin by shard index, so the fan-out spreads instead of
    /// every pipeline picking the first, and pipeline `i`'s replicas
    /// meet partition `i` where the manager deals it.
    pub fn resident_device(&self, task: &TaskInfo) -> Option<DeviceId> {
        if task.base_columns.is_empty() {
            return None;
        }
        let Some(s) = task.role.pipeline() else {
            return self.coprocessors().find(|&d| self.resident_on(d, task));
        };
        let home = self.coprocessors().find(|&d| {
            self.reads(d, task).all(|(key, resident)| resident && key.partition_of().is_some())
        });
        if home.is_some() {
            return home;
        }
        let replicas = || self.coprocessors().filter(|&d| self.resident_on(d, task));
        match replicas().count() {
            0 => None,
            n => replicas().nth(s.index as usize % n),
        }
    }
}

/// The cache key reading `col`, live at `epoch`, probes in `cache`: the
/// key of the `partition` read ([`Role::partition`]), unless only the
/// whole column is resident there; the whole column's otherwise. Staging
/// probes this key, and the policies' residency questions ask of it.
pub(crate) fn read_key(
    cache: &DataCache,
    col: ColumnId,
    epoch: u64,
    partition: Option<ShardSpec>,
) -> CacheKey {
    let whole = CacheKey::column_at(col.0, epoch);
    match partition.map(|s| CacheKey::partition_at(col.0, s.index, s.of, epoch)) {
        Some(part) if cache.contains(part) || !cache.contains(whole) => part,
        _ => whole,
    }
}

/// Bytes a cache key holds: a partition key its shard's
/// [`ShardSpec::slice_bytes`] of the column, a column key all of it.
pub(crate) fn key_bytes(db: &Database, key: CacheKey) -> u64 {
    let full = db.column_size(ColumnId(key.column_id()));
    key.partition_of().map_or(full, |(index, of)| ShardSpec { index, of }.slice_bytes(full))
}

/// A placement strategy.
///
/// The default implementations describe a plain run-time CPU-only policy;
/// strategies override what they need.
pub trait PlacementPolicy {
    /// Human-readable strategy name (used in reports).
    fn name(&self) -> &'static str;

    /// Compile-time placement for a whole query. One entry per task (same
    /// order as `tasks`): `Some(placement)` fixes the placement, `None`
    /// defers to [`PlacementPolicy::place_ready`].
    fn plan_query(&mut self, tasks: &[TaskInfo], ctx: &PolicyCtx) -> Vec<Option<Placement>> {
        let _ = ctx;
        vec![None; tasks.len()]
    }

    /// Run-time placement of one ready task.
    fn place_ready(&mut self, task: &TaskInfo, ctx: &PolicyCtx) -> Placement {
        let _ = (task, ctx);
        Placement::fixed(DeviceId::Cpu)
    }

    /// Worker-slot bound for `device`; `spec_slots` is the device's
    /// configured thread-pool size. Non-chopping strategies return
    /// `usize::MAX` (operators are pushed, not pulled — Section 5.1).
    fn worker_slots(&self, device: DeviceId, spec_slots: usize) -> usize {
        let _ = (device, spec_slots);
        usize::MAX
    }

    /// Whether a co-processor scan inserts missing columns into the cache
    /// (operator-driven data placement). Data-driven strategies return
    /// `false`: only the placement manager writes the caches. This also
    /// decides whether the policy may shard: the executor rejects a
    /// sharded run on two or more co-processors under a policy that
    /// answers `true`.
    fn caches_on_miss(&self) -> bool {
        true
    }

    /// The learned cost model behind this policy's estimates, if it has
    /// one. The executor feeds every completed operator to it; the model
    /// persists from run to run. Model-free policies keep the default
    /// `None`.
    fn learned_model(&mut self) -> Option<&mut LearnedModel> {
        None
    }

    /// Periodic data-placement update (the background job of Section 3.2).
    /// May re-pin any co-processor cache; returns `(device, key)` pairs
    /// newly cached so the executor can charge each link's transfer time.
    /// `epochs` is the per-column data epoch table (empty in batch runs):
    /// data-driven strategies pin epoch-tagged keys so a fresh append
    /// re-stages only the touched columns.
    fn update_data_placement(
        &mut self,
        db: &Database,
        caches: &mut CacheSet,
        epochs: &[u64],
    ) -> Vec<(DeviceId, CacheKey)> {
        let _ = (db, caches, epochs);
        Vec::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use robustq_sim::{CachePolicy, DeviceSpec, LinkParams};

    fn topology() -> Topology {
        Topology::cpu_gpu(
            DeviceSpec::cpu(4),
            DeviceSpec::coprocessor(4, 1_000, 500),
            LinkParams::default(),
        )
    }

    /// Per-device tables for a context: queued work, running operators
    /// and free heap bytes, all zero.
    struct Tables {
        queued_work: PerDevice<VirtualTime>,
        running: PerDevice<usize>,
        heap_free: PerDevice<u64>,
    }

    impl Tables {
        fn zero(topology: &Topology) -> Self {
            let n = topology.device_count();
            Tables {
                queued_work: PerDevice::splat(VirtualTime::ZERO, n),
                running: PerDevice::splat(0, n),
                heap_free: PerDevice::splat(0, n),
            }
        }

        fn ctx<'a>(
            &'a self,
            db: &'a Database,
            topology: &'a Topology,
            caches: &'a CacheSet,
        ) -> PolicyCtx<'a> {
            PolicyCtx {
                db,
                topology,
                caches,
                queued_work: &self.queued_work,
                running: &self.running,
                heap_free: &self.heap_free,
                now: VirtualTime::ZERO,
                col_epochs: &[],
            }
        }
    }

    fn info() -> TaskInfo<'static> {
        TaskInfo {
            task: 0,
            op_class: OpClass::Selection,
            base_columns: &[],
            bytes_in: 0,
            bytes_out_estimate: 0,
            children_devices: &[],
            children_bytes: &[],
            children_tasks: &[],
            was_aborted: false,
            role: Role::Whole,
        }
    }

    #[test]
    fn default_trait_methods() {
        struct Noop;
        impl PlacementPolicy for Noop {
            fn name(&self) -> &'static str {
                "noop"
            }
        }
        let mut p = Noop;
        let db = Database::new();
        let t = topology();
        let caches = CacheSet::for_topology(&t, CachePolicy::Lru);
        let tables = Tables::zero(&t);
        let ctx = tables.ctx(&db, &t, &caches);
        let info = info();
        assert_eq!(p.plan_query(std::slice::from_ref(&info), &ctx), vec![None]);
        let placed = p.place_ready(&info, &ctx);
        assert_eq!(placed.device, DeviceId::Cpu);
        assert_eq!(placed.reason, PlaceReason::Static);
        assert_eq!(p.worker_slots(DeviceId::Gpu, 4), usize::MAX);
        assert!(p.caches_on_miss());
        assert!(p.learned_model().is_none(), "model-free by default");
        let mut caches2 = CacheSet::for_topology(&t, CachePolicy::Lru);
        assert!(p.update_data_placement(&db, &mut caches2, &[]).is_empty());
    }

    #[test]
    fn placement_constructors() {
        let est = PerDevice::new(VirtualTime::from_micros(10), VirtualTime::from_micros(2));
        let p = Placement::modeled(DeviceId::Gpu, est);
        assert_eq!(p.device, DeviceId::Gpu);
        assert_eq!(p.est[DeviceId::Cpu], VirtualTime::from_micros(10));
        assert_eq!(p.reason, PlaceReason::CostModel);
        let q = p.clone().because(PlaceReason::HeapPressure);
        assert_eq!(q.reason, PlaceReason::HeapPressure);
        assert_eq!(q.est, p.est);
        // The empty estimate table equals an all-zero one (padded
        // equality), so "no cost model" placements compare stable.
        assert_eq!(
            Placement::fixed(DeviceId::Cpu).est,
            PerDevice::splat(VirtualTime::ZERO, 2)
        );
    }

    /// A scan of `cols`, whole or one shard of a partitioned one.
    fn scan(cols: &[ColumnId], shard: Option<ShardSpec>) -> TaskInfo<'_> {
        TaskInfo { base_columns: cols, role: shard.map_or(Role::Whole, Role::Spine), ..info() }
    }

    /// One table `t` of two 100-row `Int64` columns, ids 0 and 1.
    fn two_columns() -> Database {
        use robustq_storage::{ColumnData, DataType, Field, Schema, Table};
        let mut db = Database::new();
        let fields = vec![Field::new("a", DataType::Int64), Field::new("b", DataType::Int64)];
        let cols = vec![ColumnData::Int64(vec![0; 100]), ColumnData::Int64(vec![0; 100])];
        db.add_table(Table::new("t", Schema::new(fields), cols).unwrap()).unwrap();
        db
    }

    #[test]
    fn residency_helpers_are_per_device() {
        let db = Database::new();
        let t = topology().with_coprocessor(
            DeviceSpec::coprocessor(4, 1_000, 500),
            LinkParams::default(),
        );
        let mut caches = CacheSet::for_topology(&t, CachePolicy::Lru);
        let g2 = DeviceId::coprocessor(2);
        caches.device_mut(g2).insert(CacheKey(1), 10);
        let tables = Tables::zero(&t);
        let ctx = tables.ctx(&db, &t, &caches);
        assert!(!ctx.resident_on(DeviceId::Gpu, &scan(&[ColumnId(1)], None)));
        assert!(ctx.resident_on(g2, &scan(&[ColumnId(1)], None)));
        assert_eq!(ctx.resident_device(&scan(&[ColumnId(1)], None)), Some(g2));
        assert_eq!(ctx.resident_device(&scan(&[ColumnId(1), ColumnId(2)], None)), None);
        assert_eq!(ctx.resident_device(&scan(&[], None)), None, "no residency signal");
        assert!(ctx.resident_on(DeviceId::Gpu, &scan(&[], None)));
    }

    #[test]
    fn missing_bytes_reads_residency_at_the_live_epoch() {
        let db = two_columns();
        let (a, b) = (ColumnId(0), ColumnId(1));
        let t = topology();
        let mut caches = CacheSet::for_topology(&t, CachePolicy::Lru);
        let gpu = caches.device_mut(DeviceId::Gpu);
        gpu.insert(CacheKey::column_at(0, 2), 80);
        gpu.insert(CacheKey::partition_at(1, 1, 4, 2), 20);

        // Both columns live at epoch 2: `a` is resident whole, `b` only
        // as partition 1 of 4, which stages nothing for a whole scan.
        let tables = Tables::zero(&t);
        let mut c = tables.ctx(&db, &t, &caches);
        c.col_epochs = &[2, 2];
        assert_eq!(c.missing_bytes(DeviceId::Gpu, &scan(&[a, b], None)), 800);
        assert_eq!(c.missing_bytes(DeviceId::Gpu, &scan(&[a], None)), 0);
        assert_eq!(c.missing_bytes(DeviceId::Gpu, &scan(&[], None)), 0);
        // A batch run reads epoch 0, where neither entry counts.
        c.col_epochs = &[];
        assert_eq!(c.missing_bytes(DeviceId::Gpu, &scan(&[a, b], None)), 1_600);
    }

    #[test]
    fn a_shard_reads_its_partition_or_the_whole_column() {
        let db = two_columns();
        let (a, b) = (ColumnId(0), ColumnId(1));
        let t = topology();
        let mut caches = CacheSet::for_topology(&t, CachePolicy::Lru);
        let gpu = caches.device_mut(DeviceId::Gpu);
        gpu.insert(CacheKey::partition_at(0, 2, 3, 1), 27);
        gpu.insert(CacheKey::column_at(1, 1), 80);
        let tables = Tables::zero(&t);
        let mut c = tables.ctx(&db, &t, &caches);
        c.col_epochs = &[1, 1];
        let (third, first) = (ShardSpec { index: 2, of: 3 }, ShardSpec { index: 0, of: 3 });
        let on_gpu = |task: &TaskInfo, c: &PolicyCtx| {
            (c.resident_on(DeviceId::Gpu, task), c.missing_bytes(DeviceId::Gpu, task))
        };

        // Its partition key is resident, or only the whole column is.
        assert_eq!(on_gpu(&scan(&[a], Some(third)), &c), (true, 0));
        assert_eq!(on_gpu(&scan(&[b], Some(first)), &c), (true, 0));
        assert_eq!(on_gpu(&scan(&[a, b], Some(third)), &c), (true, 0));
        // Neither is: the shard stages its slice, not the column. The
        // slices of 800 bytes split three ways are 266, 267 and 267.
        assert_eq!(first.slice_bytes(800), 266);
        assert_eq!(on_gpu(&scan(&[a], Some(first)), &c), (false, 266));
        assert_eq!(on_gpu(&scan(&[a, b], Some(first)), &c), (false, 266));
        // Both keys at a stale epoch: nothing is resident.
        c.col_epochs = &[2, 2];
        assert_eq!(on_gpu(&scan(&[a], Some(third)), &c), (false, 267));
        assert_eq!(on_gpu(&scan(&[b], Some(first)), &c), (false, 266));
    }

    #[test]
    fn a_shard_finds_its_partition_home_before_dealing_replicas() {
        let db = two_columns();
        let (a, b) = (ColumnId(0), ColumnId(1));
        let t = topology()
            .with_coprocessor(DeviceSpec::coprocessor(4, 1_000, 500), LinkParams::default())
            .with_coprocessor(DeviceSpec::coprocessor(4, 1_000, 500), LinkParams::default());
        let (g2, g3) = (DeviceId::coprocessor(2), DeviceId::coprocessor(3));
        let mut caches = CacheSet::for_topology(&t, CachePolicy::Lru);
        // `b` is replicated whole on every co-processor; partition 1 of 2
        // of `a` is homed on the third, where `b` is resident too.
        for d in t.coprocessors() {
            caches.device_mut(d).insert(CacheKey::column(1), 80);
        }
        caches.device_mut(g3).insert(CacheKey::partition(0, 1, 2), 40);
        let tables = Tables::zero(&t);
        let c = tables.ctx(&db, &t, &caches);
        let shard = |index| Some(ShardSpec { index, of: 2 });
        assert_eq!(c.resident_device(&scan(&[a, b], shard(1))), Some(g3));
        // `b` alone has no partition home: shards deal the replicas.
        assert_eq!(c.resident_device(&scan(&[b], shard(0))), Some(DeviceId::Gpu));
        assert_eq!(c.resident_device(&scan(&[b], shard(1))), Some(g2));
        // Partition 0 of `a` is nowhere; unsharded, `b` takes the first.
        assert_eq!(c.resident_device(&scan(&[a, b], shard(0))), None);
        assert_eq!(c.resident_device(&scan(&[b], None)), Some(DeviceId::Gpu));
    }

    #[test]
    fn a_replica_reads_the_whole_column_where_only_a_partition_is_cached() {
        let db = two_columns();
        let gpu = DeviceId::Gpu;
        let t = Topology::cpu_gpu(
            DeviceSpec::cpu(4),
            DeviceSpec::coprocessor(4, 4_000, 2_000),
            LinkParams::default(),
        );
        let mut caches = CacheSet::for_topology(&t, CachePolicy::Lru);
        // Partition 0 of 2 of column `a` (400 of its 800 bytes) is cached.
        caches.device_mut(gpu).insert(CacheKey::partition(0, 0, 2), 400);
        let spec = ShardSpec { index: 0, of: 2 };
        let cols = [ColumnId(0)];
        let leaf = TaskInfo { base_columns: &cols, role: Role::Spine(spec), ..info() };
        // A replica follows the same shard but reads the whole column.
        let replica = TaskInfo { role: Role::Replica(spec), ..leaf };
        let on_gpu = |task: &TaskInfo, c: &PolicyCtx| {
            (c.resident_on(gpu, task), c.missing_bytes(gpu, task), c.resident_device(task))
        };
        let tables = Tables::zero(&t);
        let c = tables.ctx(&db, &t, &caches);
        assert_eq!(on_gpu(&leaf, &c), (true, 0, Some(gpu)));
        assert_eq!(on_gpu(&replica, &c), (false, 800, None));
        // With the whole column cached too, both are resident.
        caches.device_mut(gpu).insert(CacheKey::column(0), 800);
        let c = tables.ctx(&db, &t, &caches);
        assert_eq!(on_gpu(&leaf, &c), (true, 0, Some(gpu)));
        assert_eq!(on_gpu(&replica, &c), (true, 0, Some(gpu)));
    }

    #[test]
    fn least_loaded_coprocessor_breaks_ties_low() {
        let db = Database::new();
        let t = topology().with_coprocessor(
            DeviceSpec::coprocessor(4, 1_000, 500),
            LinkParams::default(),
        );
        let caches = CacheSet::for_topology(&t, CachePolicy::Lru);
        let mut tables = Tables::zero(&t);
        let c = tables.ctx(&db, &t, &caches);
        assert_eq!(c.least_loaded_coprocessor(), Some(DeviceId::Gpu));
        tables.queued_work[DeviceId::Gpu] = VirtualTime::from_micros(10);
        let c = tables.ctx(&db, &t, &caches);
        assert_eq!(c.least_loaded_coprocessor(), Some(DeviceId::coprocessor(2)));
    }
}
