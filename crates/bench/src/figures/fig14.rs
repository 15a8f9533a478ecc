//! Figure 14: average workload execution time of the SSBM (a) and the
//! TPC-H subset (b) while scaling the database. GPU-only falls off once
//! the working set exceeds the co-processor cache (paper: SF≈15);
//! Data-Driven Chopping improves performance and is never slower than the
//! other heuristics.

use crate::figures::sweeps::{self, entry};
use crate::machine::{Effort, WorkloadKind};
use crate::table::{ms, FigTable};
use robustq_core::Strategy;

pub fn run(effort: Effort) -> FigTable {
    let mut t = FigTable::new(
        "fig14",
        "Workload execution time vs scale factor (a: SSBM, b: TPC-H)",
    )
    .with_columns([
        "benchmark",
        "SF",
        "CPU Only [ms]",
        "GPU Only [ms]",
        "Critical Path [ms]",
        "Data-Driven [ms]",
        "Chopping [ms]",
        "Data-Driven Chopping [ms]",
    ]);
    for kind in [WorkloadKind::Ssb, WorkloadKind::Tpch] {
        let sweep = sweeps::workload_sweep(kind, effort);
        for p in sweep.iter() {
            let mut row = vec![kind.name().to_string(), format!("{}", p.sf)];
            for s in Strategy::PAPER_SIX {
                row.push(ms(entry(&p.entries, s.name()).report.metrics.makespan));
            }
            t.push_row(row);
        }
    }
    t
}
