//! The vector-at-a-time comparator engine.
//!
//! Executes the same physical plans as the operator-at-a-time engine (the
//! kernels are shared, so results are bit-identical) but charges virtual
//! time under a vectorized cost model (Section 5.5):
//!
//! * pipelined operators (scans, selections, projections) process
//!   cache-resident vectors and avoid intermediate materialization, so
//!   only pipeline breakers (join builds, aggregations, sorts) pay
//!   materialization cost;
//! * on the co-processor, vector streams overlap transfer with compute,
//!   so a query pays `max(transfer, compute)` rather than their sum.

use crate::batch::Chunk;
use crate::exec::task::{flatten, run_postorder};
use crate::parallel::ParallelCtx;
use crate::plan::{Op, PlanNode};
use robustq_sim::{CostModel, DeviceId, OpClass, SimConfig, VirtualTime};
use robustq_storage::Database;

/// Timing report for one query under the vectorized engine.
#[derive(Debug, Clone)]
pub struct VectorizedReport {
    /// Total virtual execution time.
    pub time: VirtualTime,
    /// Portion spent on (overlapped) transfers; zero on the CPU.
    pub transfer_time: VirtualTime,
    /// The (correct) query result.
    pub result: Chunk,
}

/// A vector-at-a-time engine over the same database and machine model.
pub struct VectorizedEngine<'a> {
    db: &'a Database,
    config: SimConfig,
    cost: CostModel,
    /// Rows per vector (the classic 1024–16384 range).
    pub vector_size: usize,
}

/// Per-node size record collected during bottom-up execution (shared
/// with the compiled-execution comparator).
pub(crate) struct NodeSizes {
    pub(crate) class: OpClass,
    pub(crate) bytes_in: u64,
    pub(crate) bytes_out: u64,
    pub(crate) is_breaker: bool,
    pub(crate) base_bytes: u64,
}

impl<'a> VectorizedEngine<'a> {
    /// A vectorized engine over `db` and the given machine.
    pub fn new(db: &'a Database, config: SimConfig) -> Self {
        let cost = CostModel::new(config.cost.clone());
        VectorizedEngine { db, config, cost, vector_size: 4_096 }
    }

    /// Execute `plan` on `device` with a cold device cache (base columns
    /// stream over the link), returning timing and the result.
    pub fn run_query(
        &self,
        plan: &PlanNode,
        device: DeviceId,
    ) -> Result<VectorizedReport, String> {
        self.run_query_inner(plan, device, false)
    }

    /// Like [`VectorizedEngine::run_query`] but with the base columns
    /// already resident on the device (warm cache) — the configuration
    /// the Appendix A comparison measures.
    pub fn run_query_cached(
        &self,
        plan: &PlanNode,
        device: DeviceId,
    ) -> Result<VectorizedReport, String> {
        self.run_query_inner(plan, device, true)
    }

    fn run_query_inner(
        &self,
        plan: &PlanNode,
        device: DeviceId,
        cached: bool,
    ) -> Result<VectorizedReport, String> {
        let mut sizes = Vec::new();
        let result = self.collect(plan, &mut sizes)?;

        let kind = device.kind();
        let mut compute = VirtualTime::ZERO;
        let mut base_bytes = 0u64;
        for s in &sizes {
            // Pipelined operators stream vectors: full scan cost over the
            // input, but materialization (the half-weighted output term of
            // the bulk model) only at pipeline breakers.
            let out = if s.is_breaker { s.bytes_out } else { 0 };
            let d = self.cost.duration(s.class, kind, s.bytes_in, out);
            // Per-vector dispatch replaces the single bulk launch.
            let vectors = (s.bytes_in as usize / (self.vector_size * 8)).max(1) as u64;
            let dispatch = VirtualTime::from_nanos(vectors * 200);
            compute += d + dispatch;
            base_bytes += s.base_bytes;
        }

        let (time, transfer_time) = if device == DeviceId::Cpu {
            (compute, VirtualTime::ZERO)
        } else {
            let link = self.config.topology.link(device);
            let transfer = if cached {
                VirtualTime::ZERO
            } else {
                link.service_time(base_bytes)
            };
            let result_back = link.service_time(result.byte_size());
            // Streamed vectors overlap transfer and compute.
            (compute.max(transfer) + result_back, transfer + result_back)
        };
        Ok(VectorizedReport { time, transfer_time, result })
    }

    /// Bottom-up real execution (the flattened plan in postorder through
    /// [`Op::execute_ctx`], like `ops::execute_plan`), recording
    /// per-node sizes.
    pub(crate) fn collect(
        &self,
        plan: &PlanNode,
        out: &mut Vec<NodeSizes>,
    ) -> Result<Chunk, String> {
        run_postorder(&flatten(plan), |task, children: Vec<Chunk>| {
            let result = task.op.execute_ctx(&children, self.db, ParallelCtx::serial())?;
            let (bytes_in, base_bytes) = match task.op.scan_access() {
                Some((table, cols)) => {
                    let t = self
                        .db
                        .table(table)
                        .ok_or_else(|| format!("no table {table}"))?;
                    let b: u64 = cols
                        .iter()
                        .filter_map(|c| t.column(c))
                        .map(|c| c.byte_size())
                        .sum();
                    (b, b)
                }
                None => (children.iter().map(Chunk::byte_size).sum(), 0),
            };
            let is_breaker = matches!(
                *task.op,
                Op::HashJoin { .. } | Op::Aggregate { .. } | Op::Sort { .. }
            );
            out.push(NodeSizes {
                class: task.op.op_class(),
                bytes_in,
                bytes_out: result.byte_size(),
                is_breaker,
                base_bytes,
            });
            Ok(result)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::Expr;
    use crate::ops;
    use crate::plan::AggSpec;
    use crate::predicate::Predicate;
    use robustq_sim::DeviceKind;
    use robustq_storage::gen::ssb::SsbGenerator;

    fn setup() -> (Database, PlanNode) {
        let db = SsbGenerator::new(1).with_rows_per_sf(2_000).generate();
        let plan = PlanNode::scan("lineorder", ["lo_orderdate", "lo_revenue"])
            .filter(Predicate::between("lo_discount", 1, 3))
            .join(
                PlanNode::scan("date", ["d_datekey"]).filter(Predicate::eq("d_year", 1994)),
                "lo_orderdate",
                "d_datekey",
            )
            .aggregate([] as [&str; 0], vec![AggSpec::sum(Expr::col("lo_revenue"), "r")]);
        (db, plan)
    }

    #[test]
    fn results_match_bulk_engine() {
        let (db, plan) = setup();
        let bulk = ops::execute_plan(&plan, &db).unwrap();
        let eng = VectorizedEngine::new(&db, SimConfig::default());
        let cpu = eng.run_query(&plan, DeviceId::Cpu).unwrap();
        let gpu = eng.run_query(&plan, DeviceId::Gpu).unwrap();
        assert_eq!(cpu.result.checksum(), bulk.checksum());
        assert_eq!(gpu.result.checksum(), bulk.checksum());
    }

    #[test]
    fn cpu_pays_no_transfers() {
        let (db, plan) = setup();
        let eng = VectorizedEngine::new(&db, SimConfig::default());
        let cpu = eng.run_query(&plan, DeviceId::Cpu).unwrap();
        assert_eq!(cpu.transfer_time, VirtualTime::ZERO);
        assert!(cpu.time > VirtualTime::ZERO);
    }

    #[test]
    fn gpu_overlaps_but_still_pays_result_return() {
        let (db, plan) = setup();
        let eng = VectorizedEngine::new(&db, SimConfig::default());
        let gpu = eng.run_query(&plan, DeviceId::Gpu).unwrap();
        assert!(gpu.transfer_time > VirtualTime::ZERO);
        // Overlap: total time is below compute + full transfer.
        let cpu = eng.run_query(&plan, DeviceId::Cpu).unwrap();
        assert!(gpu.time < cpu.time + gpu.transfer_time);
    }

    #[test]
    fn vectorized_cpu_beats_bulk_style_materialization() {
        // The vectorized model must charge less than input+output over
        // every operator (the bulk model), because pipelined operators
        // skip materialization.
        let (db, plan) = setup();
        let eng = VectorizedEngine::new(&db, SimConfig::default());
        let v = eng.run_query(&plan, DeviceId::Cpu).unwrap();

        let cost = CostModel::new(SimConfig::default().cost);
        let mut sizes = Vec::new();
        let _ = eng.collect(&plan, &mut sizes).unwrap();
        let bulk: VirtualTime = sizes
            .iter()
            .map(|s| cost.duration(s.class, DeviceKind::Cpu, s.bytes_in, s.bytes_out))
            .sum();
        // Allow for the per-vector dispatch overhead.
        assert!(v.time < bulk + VirtualTime::from_millis(1));
    }
}
