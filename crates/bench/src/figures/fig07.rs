//! Figure 7: the Figure 3 user sweep under data-driven placement —
//! Data-Driven alone does *not* fix heap contention: its compile-time
//! placements still flood the co-processor heap under parallelism.

use crate::figures::sweeps::{self, entry};
use crate::machine::Effort;
use crate::table::{ms, FigTable};

pub fn run(effort: Effort) -> FigTable {
    let sweep = sweeps::parallel_sweep(effort);
    let mut t = FigTable::new(
        "fig07",
        "Parallel selection workload: Data-Driven still hits heap contention",
    )
    .with_columns(["users", "CPU Only [ms]", "GPU Only [ms]", "Data-Driven [ms]"]);
    for p in sweep.iter() {
        t.push_row([
            format!("{}", p.users),
            ms(entry(&p.entries, "CPU Only").report.metrics.makespan),
            ms(entry(&p.entries, "GPU Only").report.metrics.makespan),
            ms(entry(&p.entries, "Data-Driven").report.metrics.makespan),
        ]);
    }
    t
}
