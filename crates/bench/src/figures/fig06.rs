//! Figure 6: time spent on CPU→GPU data transfers in the serial selection
//! workload — the transfer volume, not the kernels, explains Figure 2's
//! degradation; Data-Driven eliminates it.

use crate::figures::sweeps::{self, entry};
use crate::machine::Effort;
use crate::table::{ms, FigTable};

pub fn run(effort: Effort) -> FigTable {
    let sweep = sweeps::serial_sweep(effort);
    let mut t = FigTable::new(
        "fig06",
        "Serial selection workload: CPU→GPU transfer time",
    )
    .with_columns([
        "cache/WS",
        "GPU op-driven [ms]",
        "Data-Driven [ms]",
        "Data-Driven Chopping [ms]",
    ]);
    for p in sweep.iter() {
        t.push_row([
            format!("{:.2}", p.frac),
            ms(entry(&p.entries, "GPU Only").report.metrics.h2d_time),
            ms(entry(&p.entries, "Data-Driven").report.metrics.h2d_time),
            ms(entry(&p.entries, "Data-Driven Chopping").report.metrics.h2d_time),
        ]);
    }
    t
}
