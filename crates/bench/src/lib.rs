//! Figure/table regeneration harness.
//!
//! Every figure of the paper (see DESIGN.md §12 for the index) is a row
//! of [`FIGURES`] — a projection of a shared sweep, or a module of its
//! own — that yields a [`FigTable`]: the same rows/series the paper
//! plots, which the `figures` binary prints.
//!
//! ## Scaling
//!
//! All experiments run on linearly downscaled data (see DESIGN.md §1):
//! `Effort::Quick` (the default) uses small row counts so the full suite
//! finishes in minutes; `Effort::Full` uses 4× more rows
//! for smoother curves. Device parameters are downscaled with the data,
//! preserving every working-set/cache and footprint/heap *ratio* the
//! paper's effects depend on. Times are virtual milliseconds — shapes and
//! factors are comparable to the paper, absolute values are not.

pub mod args;
pub mod claims;
pub mod figures;
pub mod machine;
pub mod sweep;
pub mod table;

pub use figures::{Figure, FIGURES};
pub use machine::{Effort, MicroSetup, WorkloadKind, WorkloadSetup};
pub use table::FigTable;

/// One traced reference run: the SSB workload at SF 10 on the
/// full-workload machine under Data-Driven Chopping, with structured
/// tracing enabled. This is the run the `figures` binary exports with
/// `--trace` and CI pipes through `trace-lint`.
pub fn traced_reference_run(effort: Effort) -> robustq_workloads::RunReport {
    let setup = WorkloadSetup::new(WorkloadKind::Ssb, effort);
    let db = setup.db(10);
    let queries = setup.queries(&db);
    let runner = robustq_workloads::WorkloadRunner::new(&db, setup.sim());
    let cfg = robustq_workloads::RunnerConfig::default()
        .with_users(2)
        .with_parallel(machine::parallel_ctx())
        .with_trace();
    runner
        .run(&queries, robustq_core::Strategy::DataDrivenChopping, &cfg)
        .expect("traced reference run")
}

/// Run every figure at the given effort, in paper order.
pub fn all_figures(effort: Effort) -> Vec<FigTable> {
    FIGURES.iter().map(|f| f.run(effort)).collect()
}

/// Look up one figure by id (`"fig14"`; `"fig9"` also names `"fig09"`).
pub fn figure_by_id(id: &str, effort: Effort) -> Option<FigTable> {
    let unpadded = |known: &str| known.replacen("fig0", "fig", 1);
    let figure = FIGURES.iter().find(|f| f.id() == id || unpadded(f.id()) == id)?;
    Some(figure.run(effort))
}
