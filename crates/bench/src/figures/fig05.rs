//! Figure 5: the Figure 2 sweep with data-driven operator placement.
//! Data-Driven eliminates the thrashing degradation: the co-processor is
//! only used for columns the placement manager pinned, so execution time
//! falls smoothly as more of the working set fits.

use crate::figures::sweeps::{self, entry};
use crate::machine::Effort;
use crate::table::{ms, FigTable};

pub fn run(effort: Effort) -> FigTable {
    let sweep = sweeps::serial_sweep(effort);
    let mut t = FigTable::new(
        "fig05",
        "Serial selection workload: data-driven placement avoids thrashing",
    )
    .with_columns([
        "cache/WS",
        "CPU Only [ms]",
        "GPU op-driven [ms]",
        "Data-Driven [ms]",
        "Data-Driven Chopping [ms]",
    ]);
    for p in sweep.iter() {
        t.push_row([
            format!("{:.2}", p.frac),
            ms(entry(&p.entries, "CPU Only").report.metrics.makespan),
            ms(entry(&p.entries, "GPU Only").report.metrics.makespan),
            ms(entry(&p.entries, "Data-Driven").report.metrics.makespan),
            ms(entry(&p.entries, "Data-Driven Chopping").report.metrics.makespan),
        ]);
    }
    t
}
