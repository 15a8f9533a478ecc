//! Figure 1: SSB Q3.3 at scale factor 20 — CPU only vs. GPU with cold and
//! hot caches. The paper's headline: a hot-cache GPU is ~2.5× faster than
//! the CPU, but data transfer turns a cold-cache GPU into a >3× slowdown.

use crate::machine::{Effort, WorkloadKind, WorkloadSetup};
use crate::table::{ms, FigTable};
use robustq_core::Strategy;
use robustq_workloads::{RunnerConfig, SsbQuery, WorkloadRunner};

pub fn run(effort: Effort) -> FigTable {
    let setup = WorkloadSetup::new(WorkloadKind::Ssb, effort);
    let db = setup.db(20);
    let query = SsbQuery::Q3_3.plan(&db).expect("Q3.3 plans");
    let runner = WorkloadRunner::new(&db, setup.sim());

    let cpu = runner
        .run(std::slice::from_ref(&query), Strategy::CpuOnly, &RunnerConfig::default())
        .expect("cpu run");
    let cold = runner
        .run(
            std::slice::from_ref(&query),
            Strategy::GpuPreferred,
            &RunnerConfig::default().cold_cache(),
        )
        .expect("cold run");
    let hot = runner
        .run(std::slice::from_ref(&query), Strategy::GpuPreferred, &RunnerConfig::default())
        .expect("hot run");

    let mut t = FigTable::new(
        "fig01",
        "SSB Q3.3, SF 20: impact of execution strategy (times in virtual ms)",
    )
    .with_columns(["configuration", "exec time [ms]", "CPU→GPU transfer [ms]"]);
    t.push_row(["CPU".into(), ms(cpu.metrics.makespan), ms(cpu.metrics.h2d_time)]);
    t.push_row([
        "GPU (cold cache)".into(),
        ms(cold.metrics.makespan),
        ms(cold.metrics.h2d_time),
    ]);
    t.push_row([
        "GPU (hot cache)".into(),
        ms(hot.metrics.makespan),
        ms(hot.metrics.h2d_time),
    ]);
    t
}
