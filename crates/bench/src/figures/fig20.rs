//! Figure 20: wasted time of aborted co-processor operators vs parallel
//! users (SSBM, SF 10). Without chopping, heap contention wastes large
//! amounts of partially executed operator time (paper: chopping reduces
//! it by up to 74×).

use crate::figures::sweeps::{self, entry};
use crate::machine::{Effort, WorkloadKind};
use crate::table::{ms, FigTable};
use robustq_core::Strategy;

pub fn run(effort: Effort) -> FigTable {
    let sweep = sweeps::users_sweep(WorkloadKind::Ssb, effort);
    let mut t = FigTable::new(
        "fig20",
        "Wasted time of aborted GPU operators vs users (SSBM, SF 10)",
    )
    .with_columns([
        "users",
        "GPU Only [ms]",
        "Critical Path [ms]",
        "Data-Driven [ms]",
        "Chopping [ms]",
        "Data-Driven Chopping [ms]",
    ]);
    for p in sweep.iter() {
        let mut row = vec![format!("{}", p.users)];
        for s in [
            Strategy::GpuPreferred,
            Strategy::CriticalPath,
            Strategy::DataDriven,
            Strategy::Chopping,
            Strategy::DataDrivenChopping,
        ] {
            row.push(ms(entry(&p.entries, s.name()).report.metrics.wasted_time));
        }
        t.push_row(row);
    }
    t
}
