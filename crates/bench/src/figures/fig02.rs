//! Figure 2: execution time of the serial selection workload vs.
//! co-processor buffer size, operator-driven placement. Performance
//! degrades by a large factor (paper: 24×) while the working set exceeds
//! the cache, because LRU evicts exactly the column the next query needs.

use crate::figures::sweeps::{self, entry};
use crate::machine::Effort;
use crate::table::{ms, FigTable};

pub fn run(effort: Effort) -> FigTable {
    let sweep = sweeps::serial_sweep(effort);
    let mut t = FigTable::new(
        "fig02",
        "Serial selection workload: exec time vs GPU buffer size (operator-driven)",
    )
    .with_columns(["cache/WS", "cache [KiB]", "CPU Only [ms]", "GPU op-driven [ms]"]);
    for p in sweep.iter() {
        t.push_row([
            format!("{:.2}", p.frac),
            format!("{}", p.cache_bytes / 1024),
            ms(entry(&p.entries, "CPU Only").report.metrics.makespan),
            ms(entry(&p.entries, "GPU Only").report.metrics.makespan),
        ]);
    }
    t
}
