//! Figure 21: latencies for selected SSB queries at 20 parallel users,
//! scale factor 10 — including the GPU-only + admission-control reference
//! (one query at a time). Chopping matches or beats admission control
//! without serializing the workload.

use crate::figures::sweeps::{self, entry};
use crate::machine::{Effort, WorkloadKind};
use crate::table::{ms, FigTable};
use robustq_workloads::SsbQuery;

pub fn run(effort: Effort) -> FigTable {
    let sweep = sweeps::users_sweep(WorkloadKind::Ssb, effort);
    let point = sweep.last().expect("users sweep non-empty"); // most users
    let mut t = FigTable::new(
        "fig21",
        format!("Per-query latencies, SSBM SF 10, {} users", point.users),
    )
    .with_columns([
        "query",
        "GPU Only [ms]",
        "GPU Only + Admission [ms]",
        "Chopping [ms]",
        "Data-Driven Chopping [ms]",
    ]);
    for q in SsbQuery::SELECTED {
        let slot = SsbQuery::ALL.iter().position(|&x| x == q).expect("known query");
        let lat = |label: &str| {
            ms(entry(&point.entries, label)
                .report
                .mean_latency_of_slot(slot, point.workload_len))
        };
        t.push_row([
            q.name().to_string(),
            lat("GPU Only"),
            lat("GPU Only + Admission"),
            lat("Chopping"),
            lat("Data-Driven Chopping"),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_latencies_positive() {
        let t = run(Effort::Quick);
        assert_eq!(t.rows.len(), SsbQuery::SELECTED.len());
        for col in &t.columns[1..] {
            assert!(t.column_values(col).iter().all(|&ms| ms > 0.0), "{col}");
        }
    }
}
