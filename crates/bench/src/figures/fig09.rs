//! Figure 9: run-time operator placement reduces the contention penalty
//! (aborted operators no longer strand their successors on the GPU) but
//! stays well above the optimum — aborted operators still lose their
//! co-processor acceleration.

use crate::figures::sweeps::{self, entry};
use crate::machine::Effort;
use crate::table::{ms, FigTable};

pub fn run(effort: Effort) -> FigTable {
    let sweep = sweeps::parallel_sweep(effort);
    let mut t = FigTable::new(
        "fig09",
        "Parallel selection workload: run-time placement helps but is not optimal",
    )
    .with_columns([
        "users",
        "CPU Only [ms]",
        "GPU Only [ms]",
        "Run-Time Placement [ms]",
    ]);
    for p in sweep.iter() {
        t.push_row([
            format!("{}", p.users),
            ms(entry(&p.entries, "CPU Only").report.metrics.makespan),
            ms(entry(&p.entries, "GPU Only").report.metrics.makespan),
            ms(entry(&p.entries, "Run-Time Placement").report.metrics.makespan),
        ]);
    }
    t
}
