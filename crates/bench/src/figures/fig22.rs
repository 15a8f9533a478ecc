//! Figure 22: per-query TPC-H times (SF 10, single user) for two engines'
//! CPU and GPU backends. The paper compares CoGaDB against
//! MonetDB/Ocelot; we substitute our vector-at-a-time comparator engine
//! for the closed-source Ocelot (DESIGN.md §2, item 23) — the comparison
//! still shows two independent engines whose GPU backends accelerate the
//! same queries.

use crate::machine::{Effort, WorkloadKind, WorkloadSetup};
use crate::table::{ms, FigTable};
use robustq_core::Strategy;
use robustq_engine::vectorized::VectorizedEngine;
use robustq_sim::DeviceId;
use robustq_workloads::{RunnerConfig, TpchQuery, WorkloadRunner};

pub fn run(effort: Effort) -> FigTable {
    let setup = WorkloadSetup::new(WorkloadKind::Tpch, effort);
    let db = setup.db(10);
    let sim = setup.sim();
    let runner = WorkloadRunner::new(&db, sim.clone());
    let vectorized = VectorizedEngine::new(&db, sim);

    let mut t = FigTable::new(
        "fig22",
        "TPC-H per-query times, SF 10: bulk engine vs vectorized comparator",
    )
    .with_columns([
        "query",
        "bulk CPU [ms]",
        "bulk GPU [ms]",
        "vectorized CPU [ms]",
        "vectorized GPU [ms]",
    ]);
    for q in TpchQuery::ALL {
        let plan = q.plan();
        let queries = std::slice::from_ref(&plan);
        let cpu = runner
            .run(queries, Strategy::CpuOnly, &RunnerConfig::default())
            .expect("bulk cpu");
        let gpu = runner
            .run(queries, Strategy::GpuPreferred, &RunnerConfig::default())
            .expect("bulk gpu");
        let vec_cpu = vectorized.run_query(&plan, DeviceId::Cpu).expect("vec cpu");
        let vec_gpu = vectorized.run_query_cached(&plan, DeviceId::Gpu).expect("vec gpu");
        t.push_row([
            q.name().to_string(),
            ms(cpu.metrics.makespan),
            ms(gpu.metrics.makespan),
            ms(vec_cpu.time),
            ms(vec_gpu.time),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn both_engines_produce_sane_per_query_times() {
        let t = run(Effort::Quick);
        assert_eq!(t.rows.len(), 6);
        for c in &t.columns[1..] {
            let times = t.column_values(c);
            assert!(times.len() == 6 && times.iter().all(|&ms| ms > 0.0), "{c}");
        }
    }
}
