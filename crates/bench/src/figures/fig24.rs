//! Figure 24 (Appendix E): LFU vs LRU data placement under data-driven
//! chopping on an interleaved SSB workload, with the fraction of GPU
//! memory used as column cache swept from 0 to 100%. Both policies
//! perform nearly identically — the gain comes from the data-driven
//! strategy, not the ranking.

use crate::machine::{Effort, WorkloadKind, WorkloadSetup};
use crate::table::{ms, FigTable};
use robustq_core::strategies::DataDrivenChopping;
use robustq_core::{DataPlacementManager, PlacementPolicyKind};
use robustq_workloads::{RunnerConfig, WorkloadRunner};

pub fn run(effort: Effort) -> FigTable {
    let setup = WorkloadSetup::new(WorkloadKind::Ssb, effort);
    let db = setup.db(10);
    let sim = setup.sim();
    let queries = setup.queries(&db);
    let runner = WorkloadRunner::new(&db, sim.clone());

    let mut t = FigTable::new(
        "fig24",
        "Interleaved SSBM workload: LFU vs LRU data placement vs cache budget",
    )
    .with_columns(["cache budget [%]", "LFU [ms]", "LRU [ms]"]);
    for pct in [0u64, 25, 50, 75, 100] {
        let budget = sim.gpu().cache_bytes * pct / 100;
        let mut lfu = DataDrivenChopping::with_manager(
            DataPlacementManager::new(PlacementPolicyKind::Lfu).with_budget(budget),
        );
        let mut lru = DataDrivenChopping::with_manager(
            DataPlacementManager::new(PlacementPolicyKind::Lru).with_budget(budget),
        );
        let cfg = RunnerConfig::default().with_placement_period(queries.len());
        let lfu_report = runner
            .run_with_policy(&queries, &mut lfu, "DD-Chopping/LFU", &cfg)
            .expect("lfu run");
        let lru_report = runner
            .run_with_policy(&queries, &mut lru, "DD-Chopping/LRU", &cfg)
            .expect("lru run");
        t.push_row([
            format!("{pct}"),
            ms(lfu_report.metrics.makespan),
            ms(lru_report.metrics.makespan),
        ]);
    }
    t
}
