//! Figure 25 (appendix): latencies of all 13 SSB queries for a varying
//! number of parallel users (SF 10), per strategy. Long-running queries
//! benefit from chopping; short ones may slow down slightly under the
//! concurrency bound.

use crate::figures::sweeps::{self, entry};
use crate::machine::{Effort, WorkloadKind};
use crate::table::{ms, FigTable};
use robustq_workloads::SsbQuery;

pub fn run(effort: Effort) -> FigTable {
    let sweep = sweeps::users_sweep(WorkloadKind::Ssb, effort);
    let mut t = FigTable::new(
        "fig25",
        "Latencies of all SSBM queries vs parallel users (SF 10)",
    );
    let mut cols = vec!["query".to_string(), "strategy".to_string()];
    for p in sweep.iter() {
        cols.push(format!("{} users [ms]", p.axis("users")));
    }
    t.columns = cols;
    for q in SsbQuery::ALL {
        let slot = SsbQuery::ALL.iter().position(|&x| x == q).expect("known query");
        for label in ["GPU Only", "Chopping", "Data-Driven Chopping"] {
            let mut row = vec![q.name().to_string(), label.to_string()];
            for p in sweep.iter() {
                let report = &entry(&p.entries, label).report;
                row.push(ms(report.mean_latency_of_slot(slot, SsbQuery::ALL.len())));
            }
            t.push_row(row);
        }
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn covers_all_queries_and_strategies() {
        let t = run(Effort::Quick);
        assert_eq!(t.rows.len(), 13 * 3);
        // Latencies grow (or stay similar) with more users for GPU Only.
        let first_cols = &t.columns[2..];
        for row in t.rows.iter().filter(|r| r[1] == "GPU Only") {
            let lo: f64 = row[2].parse().unwrap();
            let hi: f64 = row[t.columns.len() - 1].parse().unwrap();
            assert!(lo > 0.0 && hi > 0.0);
        }
        assert!(!first_cols.is_empty());
    }
}
