//! The one price every strategy places by (the paper's HyPE, §2.5.2 and
//! §4: one cost model, whichever strategy consults it).
//!
//! [`price()`] is the only place a strategy turns an assignment of tasks
//! to devices into time. The strategies differ only in which assignments
//! they price: Run-Time Placement a ready task on each device, Critical
//! Path its closures, Data-Driven Chopping's veto the chain residency
//! builds against the whole query on the CPU.

use robustq_engine::{LearnedModel, PolicyCtx, TaskInfo};
use robustq_sim::{DeviceId, VirtualTime};

/// The co-processor with the most queued work among `devices`, or `None`
/// when the assignment never leaves the CPU.
pub(crate) fn busiest_coprocessor(devices: &[DeviceId], ctx: &PolicyCtx) -> Option<DeviceId> {
    devices
        .iter()
        .copied()
        .filter(|d| d.is_coprocessor())
        .max_by_key(|&d| ctx.queued_work.get_padded(d))
}

/// Estimated time of `tasks` (postorder: one query, or one ready task as
/// a one-task slice) placed on `devices`, summed serially:
/// - the queued work of the busiest co-processor the assignment uses, or
///   the CPU's queue if it uses none;
/// - each task's kernel estimate from `model`, stretched by `1 + n` for
///   the `n` operators already running on its device: a device shares
///   itself among its tasks at rate `1/n`, so work in flight is pending
///   work too (HyPE, §5.2);
/// - the link's service time for every crossing: a co-processor task's
///   base-column bytes not resident there, and each child output held on
///   another device — up its co-processor's link, then down the task's,
///   so a pull between two co-processors pays two hops. A child in the
///   slice is held where the assignment puts it, one outside the slice
///   where `children_devices` says (nowhere yet at admission);
/// - the root's link latency when the root ends on a co-processor. The
///   result's bytes are not priced: its estimated size is a plan's least
///   certain number.
///
/// Allocates nothing: callers own `devices`.
pub fn price(
    model: &LearnedModel,
    tasks: &[TaskInfo],
    devices: &[DeviceId],
    ctx: &PolicyCtx,
) -> VirtualTime {
    let queue = busiest_coprocessor(devices, ctx).unwrap_or(DeviceId::Cpu);
    let mut total = ctx.queued_work.get_padded(queue);
    let base = tasks.first().map_or(0, |t| t.task);
    for (i, (t, &device)) in tasks.iter().zip(devices).enumerate() {
        let kernel = model.estimate(t.op_class, device, t.bytes_in, t.bytes_out_estimate);
        total += kernel.scale((1 + ctx.running.get_padded(device)) as f64);
        if device.is_coprocessor() {
            let missing = ctx.missing_bytes(device, t);
            if missing > 0 {
                total += ctx.topology.link(device).service_time(missing);
            }
        }
        for (k, (&c, &bytes)) in t.children_tasks.iter().zip(t.children_bytes).enumerate() {
            let held = match c.checked_sub(base) {
                Some(j) if j < i => devices[j],
                _ => match t.children_devices.get(k) {
                    Some(&d) => d,
                    None => continue,
                },
            };
            if held == device {
                continue;
            }
            for hop in [held, device].into_iter().filter(|d| d.is_coprocessor()) {
                total += ctx.topology.link(hop).service_time(bytes);
            }
        }
    }
    if let Some(&root) = devices.last().filter(|d| d.is_coprocessor()) {
        total += ctx.topology.link(root).latency;
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::strategies::runtime::test_support::{empty_db, fixture_k, task};
    use crate::strategies::RuntimePlacer;
    use robustq_sim::OpClass;
    use std::slice;

    const CPU: DeviceId = DeviceId::Cpu;
    const GPU: DeviceId = DeviceId::Gpu;

    /// A join (task 2) whose two children ran before it, outside the slice.
    fn join_of<'a>(held: &'a [DeviceId], bytes: &'a [u64]) -> TaskInfo<'a> {
        TaskInfo {
            task: 2,
            op_class: OpClass::HashJoin,
            children_tasks: &[0, 1],
            children_devices: held,
            children_bytes: bytes,
            ..task(2_000)
        }
    }

    #[test]
    fn a_child_on_a_sibling_coprocessor_costs_two_hops() {
        let db = empty_db();
        let fx = fixture_k(2, 0);
        let ctx = fx.ctx(&db);
        let model = LearnedModel::default();
        let g2 = DeviceId::coprocessor(2);
        let held = [g2, GPU];
        let on_g2 = join_of(&held, &[5_000, 0]);
        let local = join_of(&[GPU, GPU], &[5_000, 0]);
        let link = |d| ctx.topology.link(d);
        assert_eq!(
            price(&model, slice::from_ref(&on_g2), &[GPU], &ctx),
            price(&model, slice::from_ref(&local), &[GPU], &ctx)
                + link(g2).service_time(5_000)
                + link(GPU).service_time(5_000),
        );
    }

    #[test]
    fn a_zero_byte_child_pull_costs_the_link_latency() {
        let db = empty_db();
        let fx = fixture_k(1, 0);
        let ctx = fx.ctx(&db);
        let model = LearnedModel::default();
        let pulled = join_of(&[GPU, CPU], &[0, 0]);
        let local = join_of(&[CPU, CPU], &[0, 0]);
        assert_eq!(
            price(&model, slice::from_ref(&pulled), &[CPU], &ctx),
            price(&model, slice::from_ref(&local), &[CPU], &ctx)
                + ctx.topology.link(GPU).latency,
        );
    }

    #[test]
    fn a_child_in_the_slice_is_held_where_the_assignment_puts_it() {
        let db = empty_db();
        let mut fx = fixture_k(1, 0);
        fx.queued_work[GPU] = VirtualTime::from_micros(3);
        let ctx = fx.ctx(&db);
        let model = LearnedModel::default();
        let scan = TaskInfo { task: 40, ..task(10_000) };
        let agg = TaskInfo {
            task: 41,
            op_class: OpClass::Aggregation,
            children_tasks: &[40],
            children_bytes: &[1_000],
            ..task(1_000)
        };
        let kernel =
            |t: &TaskInfo, d| model.estimate(t.op_class, d, t.bytes_in, t.bytes_out_estimate);
        // The chain breaks after the scan: the GPU's queue, both kernels
        // and the scan's output pulled home.
        assert_eq!(
            price(&model, &[scan, agg], &[GPU, CPU], &ctx),
            VirtualTime::from_micros(3)
                + kernel(&scan, GPU)
                + kernel(&agg, CPU)
                + ctx.topology.link(GPU).service_time(1_000),
        );
        // Wholly on the CPU: its empty queue and the kernels, no crossing.
        assert_eq!(
            price(&model, &[scan, agg], &[CPU, CPU], &ctx),
            kernel(&scan, CPU) + kernel(&agg, CPU),
        );
    }

    #[test]
    fn a_cpu_running_n_tasks_prices_a_ready_task_above_an_idle_one() {
        let db = empty_db();
        let mut fx = fixture_k(1, 0);
        let model = LearnedModel::default();
        let ready = task(1_000_000);
        let idle = price(&model, slice::from_ref(&ready), &[CPU], &fx.ctx(&db));
        fx.running[CPU] = 3;
        let busy = price(&model, slice::from_ref(&ready), &[CPU], &fx.ctx(&db));
        assert!(busy > idle);
        // Nothing queued: shared four ways, the kernel takes four times
        // as long.
        assert_eq!(busy, idle.scale(4.0));
    }

    #[test]
    fn a_shard_is_charged_its_slice_not_the_column() {
        use robustq_engine::{Role, ShardSpec};
        use robustq_storage::{ColumnData, ColumnId, DataType, Database, Field, Schema, Table};
        // One 4 000-byte column; its third shard of three is 1 334 bytes.
        let mut db = Database::new();
        let schema = Schema::new(vec![Field::new("a", DataType::Int32)]);
        let table = Table::new("t", schema, vec![ColumnData::Int32(vec![0; 1_000])]);
        db.add_table(table.unwrap()).unwrap();
        let fx = fixture_k(1, 1 << 20);
        let ctx = fx.ctx(&db);
        let model = LearnedModel::default();
        let cols = [ColumnId(0)];
        let shard = ShardSpec { index: 2, of: 3 };
        let scan = TaskInfo { base_columns: &cols, role: Role::Spine(shard), ..task(1_334) };
        let link = ctx.topology.link(GPU);
        assert_eq!(
            price(&model, slice::from_ref(&scan), &[GPU], &ctx),
            model.estimate(scan.op_class, GPU, scan.bytes_in, scan.bytes_out_estimate)
                + link.service_time(1_334)
                + link.latency,
        );
    }

    #[test]
    fn the_runtime_estimate_is_the_price_of_a_one_task_slice() {
        let db = empty_db();
        let mut fx = fixture_k(2, 0);
        let held = [DeviceId::coprocessor(2), CPU];
        fx.queued_work[GPU] = VirtualTime::from_micros(5);
        let ctx = fx.ctx(&db);
        let mut placer = RuntimePlacer::new();
        let ready = join_of(&held, &[4_000, 1_000]);
        let placed = placer.choose(&ready, &ctx);
        for d in ctx.devices() {
            let sliced = price(placer.model_mut(), slice::from_ref(&ready), &[d], &ctx);
            assert_eq!(placed.est[d], sliced, "{d:?}");
        }
    }
}
