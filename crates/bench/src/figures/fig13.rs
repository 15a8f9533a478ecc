//! Figure 13: number of aborted co-processor operators per strategy on
//! the parallel selection workload. Compile-time operator-driven
//! placement aborts most; run-time placement reduces aborts; chopping's
//! concurrency bound nearly eliminates them.

use crate::figures::sweeps::{self, entry};
use crate::machine::Effort;
use crate::table::FigTable;

pub fn run(effort: Effort) -> FigTable {
    let sweep = sweeps::parallel_sweep(effort);
    let mut t = FigTable::new(
        "fig13",
        "Parallel selection workload: aborted co-processor operators",
    )
    .with_columns([
        "users",
        "GPU Only",
        "Data-Driven",
        "Run-Time Placement",
        "Chopping",
        "Data-Driven Chopping",
    ]);
    for p in sweep.iter() {
        let aborts =
            |label: &str| format!("{}", entry(&p.entries, label).report.metrics.aborts);
        t.push_row([
            format!("{}", p.users),
            aborts("GPU Only"),
            aborts("Data-Driven"),
            aborts("Run-Time Placement"),
            aborts("Chopping"),
            aborts("Data-Driven Chopping"),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn contention_causes_aborts_for_gpu_only() {
        let t = run(Effort::Quick);
        assert!(*t.column_values("GPU Only").last().unwrap() > 0.0);
    }
}
