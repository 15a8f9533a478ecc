//! Figure 19: CPU→GPU transfer times for the Figure 18 sweep. Chopping
//! reduces IO dramatically with increasing parallelism (paper: up to 48×
//! for the SSBM).

use crate::figures::sweeps::{self, entry};
use crate::machine::{Effort, WorkloadKind};
use crate::table::{ms, FigTable};
use robustq_core::Strategy;

pub fn run(effort: Effort) -> FigTable {
    let mut t = FigTable::new(
        "fig19",
        "CPU→GPU transfer time vs parallel users, SF 10 (a: SSBM, b: TPC-H)",
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
                row.push(ms(entry(&p.entries, s.name()).report.metrics.h2d_time));
            }
            t.push_row(row);
        }
    }
    t
}
