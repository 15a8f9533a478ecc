//! Figure 15: CPU→GPU data transfer time for the Figure 14 sweep.
//! Data-Driven combined with Chopping saves the most IO.

use crate::figures::sweeps::{self, entry};
use crate::machine::{Effort, WorkloadKind};
use crate::table::{ms, FigTable};
use robustq_core::Strategy;

pub fn run(effort: Effort) -> FigTable {
    let mut t = FigTable::new(
        "fig15",
        "CPU→GPU transfer time vs scale factor (a: SSBM, b: TPC-H)",
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
                row.push(ms(entry(&p.entries, s.name()).report.metrics.h2d_time));
            }
            t.push_row(row);
        }
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_only_never_touches_the_bus() {
        let t = run(Effort::Quick);
        assert!(t.column_values("CPU Only [ms]").iter().all(|&ms| ms == 0.0));
    }
}
