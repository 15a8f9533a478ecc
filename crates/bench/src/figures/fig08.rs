//! Figure 8: the flexibility of run-time placement, demonstrated.
//!
//! The paper's Figure 8 is an illustration: a plan placed entirely on the
//! GPU at compile time has its second operator abort; the third operator
//! is *still* annotated GPU, so the CPU-computed fallback result must be
//! copied to the device — overhead a run-time heuristic avoids by placing
//! the successor on the CPU after observing the abort.
//!
//! We reproduce it with data: a selection→join→aggregate chain on a
//! machine whose heap fits the selection but not the join. Under
//! compile-time GPU placement the post-abort operators drag data back to
//! the device; under run-time placement they follow the fallback to the
//! CPU.

use crate::machine::{ssb_db, Effort};
use crate::table::{ms, FigTable};
use robustq_core::Strategy;
use robustq_sim::SimConfig;
use robustq_workloads::{RunnerConfig, SsbQuery, WorkloadRunner};

pub fn run(effort: Effort) -> FigTable {
    let rows_per_sf = match effort {
        Effort::Quick => 3_000,
        Effort::Full => 9_000,
    };
    let db = ssb_db(10, rows_per_sf);
    // Q4.1 has a deep join chain over the biggest inputs. Size the heap so
    // the early selections fit but the fact-side joins cannot.
    let fact_cols = 4u64 * 30 * rows_per_sf as u64; // rough working bytes
    let sim = SimConfig::default()
        .with_gpu_memory(fact_cols * 4)
        .with_gpu_cache(fact_cols * 2);
    let query = SsbQuery::Q4_1.plan(&db).expect("Q4.1 plans");
    let runner = WorkloadRunner::new(&db, sim);
    let cfg = RunnerConfig::default().with_preload();

    let mut t = FigTable::new(
        "fig08",
        "Post-abort flexibility: compile-time vs run-time placement (SSB Q4.1)",
    )
    .with_columns([
        "placement",
        "aborts",
        "CPU→GPU [ms]",
        "GPU→CPU [ms]",
        "exec time [ms]",
    ]);
    for (label, strategy) in [
        ("compile-time (GPU preferred)", Strategy::GpuPreferred),
        ("run-time", Strategy::RuntimePlacement),
    ] {
        let report = runner.run(
            std::slice::from_ref(&query),
            strategy,
            &cfg,
        )
        .expect("fig08 run");
        t.push_row([
            label.to_string(),
            format!("{}", report.metrics.aborts),
            ms(report.metrics.h2d_time),
            ms(report.metrics.d2h_time),
            ms(report.metrics.makespan),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_machine_forces_an_abort() {
        let t = run(Effort::Quick);
        assert_eq!(t.rows.len(), 2);
        assert!(t.column_values("aborts")[0] > 0.0, "compile-time placement must abort");
    }
}
