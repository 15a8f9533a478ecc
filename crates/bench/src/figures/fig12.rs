//! Figure 12: query chopping — run-time placement plus the per-device
//! thread pool — achieves near-optimal performance on the parallel
//! selection workload by bounding concurrent heap use.

use crate::figures::sweeps::{self, entry};
use crate::machine::Effort;
use crate::table::{ms, FigTable};

pub fn run(effort: Effort) -> FigTable {
    let sweep = sweeps::parallel_sweep(effort);
    let mut t = FigTable::new(
        "fig12",
        "Parallel selection workload: chopping is near-optimal",
    )
    .with_columns([
        "users",
        "CPU Only [ms]",
        "GPU Only [ms]",
        "Run-Time Placement [ms]",
        "Chopping [ms]",
        "Data-Driven Chopping [ms]",
    ]);
    for p in sweep.iter() {
        t.push_row([
            format!("{}", p.users),
            ms(entry(&p.entries, "CPU Only").report.metrics.makespan),
            ms(entry(&p.entries, "GPU Only").report.metrics.makespan),
            ms(entry(&p.entries, "Run-Time Placement").report.metrics.makespan),
            ms(entry(&p.entries, "Chopping").report.metrics.makespan),
            ms(entry(&p.entries, "Data-Driven Chopping").report.metrics.makespan),
        ]);
    }
    t
}
