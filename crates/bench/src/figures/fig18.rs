//! Figure 18: average workload execution time of the SSBM and TPC-H
//! workloads for varying numbers of parallel users at scale factor 10.
//! Chopping's dynamic fault reaction and concurrency bound improve
//! performance over naive GPU use.

use crate::figures::sweeps::{self, entry};
use crate::machine::{Effort, WorkloadKind};
use crate::table::{ms, FigTable};
use robustq_core::Strategy;

pub fn run(effort: Effort) -> FigTable {
    let mut t = FigTable::new(
        "fig18",
        "Workload execution time vs parallel users, SF 10 (a: SSBM, b: TPC-H)",
    )
    .with_columns([
        "benchmark",
        "users",
        "CPU Only [ms]",
        "GPU Only [ms]",
        "Critical Path [ms]",
        "Data-Driven [ms]",
        "Chopping [ms]",
        "Data-Driven Chopping [ms]",
    ]);
    for kind in [WorkloadKind::Ssb, WorkloadKind::Tpch] {
        let sweep = sweeps::users_sweep(kind, effort);
        for p in sweep.iter() {
            let mut row = vec![kind.name().to_string(), format!("{}", p.users)];
            for s in Strategy::PAPER_SIX {
                row.push(ms(entry(&p.entries, s.name()).report.metrics.makespan));
            }
            t.push_row(row);
        }
    }
    t
}
