//! Figure 17: per-query execution times for selected SSB queries, single
//! user, scale factor 30 (resources scarce). High-selectivity queries
//! (Q3.4, Q4.3) gain the most from Data-Driven Chopping; Critical Path
//! tracks the CPU.

use crate::figures::sweeps::{self, entry};
use crate::machine::{Effort, WorkloadKind};
use crate::table::{ms, FigTable};
use robustq_core::Strategy;
use robustq_workloads::SsbQuery;

pub fn run(effort: Effort) -> FigTable {
    let sweep = sweeps::workload_sweep(WorkloadKind::Ssb, effort);
    let point = sweep.last().expect("SF sweep non-empty"); // largest SF (30)
    let mut t = FigTable::new(
        "fig17",
        format!("Per-query times, SSBM SF {}, single user", point.sf),
    )
    .with_columns([
        "query",
        "CPU Only [ms]",
        "GPU Only [ms]",
        "Critical Path [ms]",
        "Data-Driven [ms]",
        "Chopping [ms]",
        "Data-Driven Chopping [ms]",
    ]);
    for q in SsbQuery::SELECTED {
        let slot = SsbQuery::ALL.iter().position(|&x| x == q).expect("known query");
        let mut row = vec![q.name().to_string()];
        for s in Strategy::PAPER_SIX {
            let report = &entry(&point.entries, s.name()).report;
            row.push(ms(report.mean_latency_of_slot(slot, SsbQuery::ALL.len())));
        }
        t.push_row(row);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn per_query_rows_cover_selection() {
        let t = run(Effort::Quick);
        assert_eq!(t.rows.len(), SsbQuery::SELECTED.len());
        // Every latency is positive.
        for col in &t.columns[1..] {
            for v in t.column_values(col) {
                assert!(v > 0.0);
            }
        }
    }
}
