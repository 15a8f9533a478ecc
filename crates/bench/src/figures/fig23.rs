//! Figure 23: per-query SSB times (SF 10, single user) for two engines'
//! CPU and GPU backends — the SSB counterpart of Figure 22, with the same
//! vectorized-comparator substitution for MonetDB/Ocelot (DESIGN.md §2).

use crate::machine::{Effort, WorkloadKind, WorkloadSetup};
use crate::table::{ms, FigTable};
use robustq_core::Strategy;
use robustq_engine::vectorized::VectorizedEngine;
use robustq_sim::DeviceId;
use robustq_workloads::{RunnerConfig, SsbQuery, WorkloadRunner};

pub fn run(effort: Effort) -> FigTable {
    let setup = WorkloadSetup::new(WorkloadKind::Ssb, effort);
    let db = setup.db(10);
    let sim = setup.sim();
    let runner = WorkloadRunner::new(&db, sim.clone());
    let vectorized = VectorizedEngine::new(&db, sim);

    let mut t = FigTable::new(
        "fig23",
        "SSBM per-query times, SF 10: bulk engine vs vectorized comparator",
    )
    .with_columns([
        "query",
        "bulk CPU [ms]",
        "bulk GPU [ms]",
        "vectorized CPU [ms]",
        "vectorized GPU [ms]",
    ]);
    for q in SsbQuery::ALL {
        let plan = q.plan(&db).expect("SSB query plans");
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
    fn thirteen_queries() {
        assert_eq!(run(Effort::Quick).rows.len(), 13);
    }
}
