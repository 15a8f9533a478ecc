//! The Critical Path compile-time heuristic (Appendix D).
//!
//! CoGaDB's default optimizer: a cost-based iterative-refinement search
//! over hybrid plans. Only plans where a leaf-to-binary-parent path runs
//! entirely on one processor are considered (data transfers are expensive,
//! so processor changes mid-chain are never worth it), and a binary
//! operator runs on the co-processor only if both children do.
//!
//! Starting from an all-CPU plan, each round tries moving one more leaf
//! chain to the co-processor and keeps the cheapest candidate, where a
//! candidate's cost is the one [`price()`] every strategy shares: the
//! serial sum of the busiest queue the plan uses, its kernels and its
//! link crossings — quadratic in the number of leaves, with a fixed
//! iteration cap for very wide plans.

use crate::strategies::price;
use robustq_engine::{LearnedModel, Placement, PlacementPolicy, PolicyCtx, TaskInfo};
use robustq_sim::{DeviceId, PerDevice, VirtualTime};
use std::slice;

/// Cap on refinement rounds (Appendix D: "a fixed number of iterations
/// ... in case the plan contains too many leaf operators").
const MAX_ITERATIONS: usize = 16;

/// The Critical Path strategy.
#[derive(Debug, Clone, Default)]
pub struct CriticalPath {
    /// The learned cost model driving plan costing.
    model: LearnedModel,
}

impl CriticalPath {
    /// Critical Path on an unfitted model (cold-start priors).
    pub fn new() -> Self {
        Self::default()
    }

    /// Resolve placements from a set of co-processor leaves: leaves in the
    /// set go to `target`, and every operator whose children all run there
    /// follows (chaining; binary operators require both sides). The search
    /// considers one co-processor per query — chains never span devices,
    /// for the same reason they never span the bus.
    fn closure(
        gpu_leaves: &[bool],
        tasks: &[TaskInfo],
        base: usize,
        target: DeviceId,
    ) -> Vec<DeviceId> {
        let mut devices = Vec::with_capacity(tasks.len());
        for (i, t) in tasks.iter().enumerate() {
            let d = if t.children_tasks.is_empty() {
                if gpu_leaves[i] {
                    target
                } else {
                    DeviceId::Cpu
                }
            } else if t.children_tasks.iter().all(|&c| devices[c - base] == target) {
                target
            } else {
                DeviceId::Cpu
            };
            devices.push(d);
        }
        devices
    }
}

impl PlacementPolicy for CriticalPath {
    fn name(&self) -> &'static str {
        "Critical Path"
    }

    fn plan_query(&mut self, tasks: &[TaskInfo], ctx: &PolicyCtx) -> Vec<Option<Placement>> {
        if tasks.is_empty() {
            return Vec::new();
        }
        // One co-processor hosts this query's chains: the least-loaded one
        // at plan time (lowest index on ties — the single co-processor on
        // a classic machine). CPU-only topologies skip the search.
        let Some(target) = ctx.least_loaded_coprocessor() else {
            return tasks
                .iter()
                .map(|_| Some(Placement::fixed(DeviceId::Cpu)))
                .collect();
        };
        let base = tasks[0].task;
        let leaves: Vec<usize> = tasks
            .iter()
            .enumerate()
            .filter(|(_, t)| t.children_tasks.is_empty())
            .map(|(i, _)| i)
            .collect();

        // Appendix D: start all-CPU; each round examines all plans with
        // one more leaf chain on the co-processor and fixes the fastest,
        // walking the whole greedy path (not stopping at the first
        // non-improving round — the binary-join benefit only appears once
        // both sides moved). The best assignment seen anywhere wins.
        let mut chosen = vec![false; tasks.len()];
        let mut best_devices = Self::closure(&chosen, tasks, base, target);
        let mut best_cost = price(&self.model, tasks, &best_devices, ctx);

        for _round in 0..MAX_ITERATIONS.min(leaves.len()) {
            let mut round_best: Option<(usize, VirtualTime, Vec<DeviceId>)> = None;
            for &leaf in &leaves {
                if chosen[leaf] {
                    continue;
                }
                let mut cand = chosen.clone();
                cand[leaf] = true;
                let devices = Self::closure(&cand, tasks, base, target);
                let cost = price(&self.model, tasks, &devices, ctx);
                if round_best.as_ref().is_none_or(|(_, c, _)| cost < *c) {
                    round_best = Some((leaf, cost, devices));
                }
            }
            let Some((leaf, cost, devices)) = round_best else {
                break;
            };
            chosen[leaf] = true;
            if cost < best_cost {
                best_cost = cost;
                best_devices = devices;
            }
        }
        // Annotate each pick with the price of the task alone on each
        // device so the trace records what the search believed about
        // either side.
        let device_count = ctx.topology.device_count();
        best_devices
            .into_iter()
            .zip(tasks)
            .map(|(d, t)| {
                let est = PerDevice::from_fn(device_count, |dev| {
                    price(&self.model, slice::from_ref(t), &[dev], ctx)
                });
                Some(Placement::modeled(d, est))
            })
            .collect()
    }

    fn learned_model(&mut self) -> Option<&mut LearnedModel> {
        Some(&mut self.model)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::strategies::runtime::test_support::{empty_db, fixture, fixture_k, task};
    use robustq_sim::{CacheKey, OpClass};
    use robustq_storage::{ColumnData, DataType, Database, Field, Schema, Table};

    /// Bytes each scan reads: one 1 M-row `Int64` column.
    const BYTES: u64 = 8_000_000;

    /// A tiny 4-task plan: two scans (ids 0,1) joined (2), then
    /// aggregated (3). `col_a`/`col_b` are the scans' base columns; every
    /// operator but the aggregate returns half of what it reads.
    fn plan_tasks() -> Vec<TaskInfo<'static>> {
        let mut scan_a = task(BYTES);
        scan_a.task = 0;
        scan_a.base_columns = &[robustq_storage::ColumnId(0)];
        scan_a.bytes_out_estimate = BYTES / 2;
        let mut scan_b = task(BYTES);
        scan_b.task = 1;
        scan_b.base_columns = &[robustq_storage::ColumnId(1)];
        scan_b.bytes_out_estimate = BYTES / 2;
        let mut join = task(BYTES);
        join.task = 2;
        join.op_class = OpClass::HashJoin;
        join.children_tasks = &[0, 1];
        join.children_bytes = &[BYTES / 2, BYTES / 2];
        join.bytes_out_estimate = BYTES / 2;
        let mut agg = task(BYTES / 2);
        agg.task = 3;
        agg.op_class = OpClass::Aggregation;
        agg.children_tasks = &[2];
        agg.children_bytes = &[BYTES / 2];
        agg.bytes_out_estimate = 64;
        vec![scan_a, scan_b, join, agg]
    }

    fn db_with_two_columns(rows: usize) -> Database {
        let mut db = Database::new();
        db.add_table(
            Table::new(
                "t",
                Schema::new(vec![
                    Field::new("a", DataType::Int64),
                    Field::new("b", DataType::Int64),
                ]),
                vec![
                    ColumnData::Int64(vec![0; rows]),
                    ColumnData::Int64(vec![0; rows]),
                ],
            )
            .unwrap(),
        )
        .unwrap();
        db
    }

    fn trained() -> CriticalPath {
        let mut cp = CriticalPath::new();
        for class in robustq_sim::OpClass::ALL {
            for mb in [1u64, 8, 64] {
                let b = mb * 1_000_000;
                let cpu = VirtualTime::from_secs_f64(b as f64 / 8.0e9);
                cp.model.observe(class, DeviceId::Cpu, b, 0, cpu, cpu);
                let gpu = VirtualTime::from_secs_f64(b as f64 / 24.0e9);
                cp.model.observe(class, DeviceId::Gpu, b, 0, gpu, gpu);
            }
        }
        cp
    }

    #[test]
    fn cold_cache_with_big_columns_stays_on_cpu() {
        // 8 MB per column over the link (2 µs, then 1.5 and 2 GB/s in
        // series: 9.3 ms) dwarfs the kernel gain.
        let db = db_with_two_columns(1_000_000);
        let fx = fixture(0);
        let ctx = fx.ctx(&db);
        let mut cp = trained();
        let out = cp.plan_query(&plan_tasks(), &ctx);
        assert_eq!(out.len(), 4);
        assert!(out.iter().all(|p| p.as_ref().unwrap().device == DeviceId::Cpu));
    }

    #[test]
    fn hot_cache_moves_chains_to_gpu() {
        let db = db_with_two_columns(1_000_000);
        let mut fx = fixture(1 << 30);
        fx.cache_mut(DeviceId::Gpu)
            .set_pinned(&[(CacheKey(0), 8_000_000), (CacheKey(1), 8_000_000)]);
        let ctx = fx.ctx(&db);
        let mut cp = trained();
        let out = cp.plan_query(&plan_tasks(), &ctx);
        // Both scans cached: everything chains onto the co-processor.
        assert_eq!(out[0].as_ref().unwrap().device, DeviceId::Gpu);
        assert_eq!(out[1].as_ref().unwrap().device, DeviceId::Gpu);
        assert_eq!(
            out[2].as_ref().unwrap().device,
            DeviceId::Gpu,
            "binary op follows both children"
        );
        // Modeled estimates ride along for the trace.
        assert!(out[0].as_ref().unwrap().est[DeviceId::Cpu] > VirtualTime::ZERO);
    }

    #[test]
    fn single_cached_side_keeps_binary_on_cpu() {
        let db = db_with_two_columns(1_000_000);
        let mut fx = fixture(1 << 30);
        fx.cache_mut(DeviceId::Gpu).set_pinned(&[(CacheKey(0), 8_000_000)]);
        let ctx = fx.ctx(&db);
        let mut cp = trained();
        let out = cp.plan_query(&plan_tasks(), &ctx);
        // The cold side stays on the CPU, so the join cannot chain.
        assert_eq!(out[1].as_ref().unwrap().device, DeviceId::Cpu);
        assert_eq!(out[2].as_ref().unwrap().device, DeviceId::Cpu);
    }

    #[test]
    fn chains_land_on_the_least_loaded_coprocessor() {
        let db = db_with_two_columns(1_000_000);
        let g2 = DeviceId::coprocessor(2);
        let mut fx = fixture_k(2, 1 << 30);
        // Pin the scans' columns on *both* devices so residency is equal.
        for d in [DeviceId::Gpu, g2] {
            fx.cache_mut(d)
                .set_pinned(&[(CacheKey(0), 8_000_000), (CacheKey(1), 8_000_000)]);
        }
        fx.queued_work[DeviceId::Gpu] = VirtualTime::from_secs_f64(10.0);
        let ctx = fx.ctx(&db);
        let mut cp = trained();
        // Teach the second device too, so its estimates are fitted.
        for mb in [1u64, 8, 64] {
            let b = mb * 1_000_000;
            for class in robustq_sim::OpClass::ALL {
                let d = VirtualTime::from_secs_f64(b as f64 / 24.0e9);
                cp.model.observe(class, g2, b, 0, d, d);
            }
        }
        let out = cp.plan_query(&plan_tasks(), &ctx);
        assert!(
            out.iter()
                .take(3)
                .all(|p| p.as_ref().unwrap().device == g2),
            "busy GPU1 is skipped; the whole chain targets GPU2"
        );
    }

    #[test]
    fn closure_respects_binary_rule() {
        let tasks = plan_tasks();
        let devices =
            CriticalPath::closure(&[true, false, false, false], &tasks, 0, DeviceId::Gpu);
        assert_eq!(devices[0], DeviceId::Gpu);
        assert_eq!(devices[2], DeviceId::Cpu, "join needs both children on GPU");
        let devices =
            CriticalPath::closure(&[true, true, false, false], &tasks, 0, DeviceId::Gpu);
        assert_eq!(devices[2], DeviceId::Gpu);
        assert_eq!(devices[3], DeviceId::Gpu, "unary chain continues");
    }

    #[test]
    fn empty_plan_is_handled() {
        let db = empty_db();
        let fx = fixture(0);
        let ctx = fx.ctx(&db);
        let mut cp = CriticalPath::new();
        assert!(cp.plan_query(&[], &ctx).is_empty());
    }

    #[test]
    fn residency_is_read_at_the_live_epoch() {
        // After an append both columns live at epoch 3. Entries pinned at
        // that epoch are resident: the chains move to the co-processor.
        let db = db_with_two_columns(1_000_000);
        let epochs = [3u64, 3];
        let mut fx = fixture(1 << 30);
        fx.cache_mut(DeviceId::Gpu).set_pinned(&[
            (CacheKey::column_at(0, 3), 8_000_000),
            (CacheKey::column_at(1, 3), 8_000_000),
        ]);
        let mut ctx = fx.ctx(&db);
        ctx.col_epochs = &epochs;
        let out = trained().plan_query(&plan_tasks(), &ctx);
        assert!(
            out.iter().take(3).all(|p| p.as_ref().unwrap().device == DeviceId::Gpu),
            "columns pinned at their live epoch are costed as resident"
        );
        // Entries left over from epoch 0 are stale: the plan is costed
        // with both transfers and stays on the CPU.
        let mut fx = fixture(1 << 30);
        fx.cache_mut(DeviceId::Gpu)
            .set_pinned(&[(CacheKey(0), 8_000_000), (CacheKey(1), 8_000_000)]);
        let mut ctx = fx.ctx(&db);
        ctx.col_epochs = &epochs;
        let out = trained().plan_query(&plan_tasks(), &ctx);
        assert!(
            out.iter().all(|p| p.as_ref().unwrap().device == DeviceId::Cpu),
            "stale-epoch residency re-transfers"
        );
    }
}
