//! Figure 3: execution time of the parallel selection workload vs. number
//! of users, naive GPU execution. Past ~7 users the accumulated operator
//! footprints exceed the co-processor heap and performance degrades
//! (paper: up to 6×) — heap contention.

use crate::figures::sweeps::{self, entry};
use crate::machine::Effort;
use crate::table::{ms, FigTable};

pub fn run(effort: Effort) -> FigTable {
    let sweep = sweeps::parallel_sweep(effort);
    let mut t = FigTable::new(
        "fig03",
        "Parallel selection workload: exec time vs users (GPU preferred)",
    )
    .with_columns(["users", "CPU Only [ms]", "GPU Only [ms]"]);
    for p in sweep.iter() {
        t.push_row([
            format!("{}", p.users),
            ms(entry(&p.entries, "CPU Only").report.metrics.makespan),
            ms(entry(&p.entries, "GPU Only").report.metrics.makespan),
        ]);
    }
    t
}
