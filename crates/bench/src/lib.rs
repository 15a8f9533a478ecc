//! Figure/table regeneration harness.
//!
//! One module per figure of the paper (see DESIGN.md §12 for the index).
//! Each figure function returns a [`FigTable`] — the same rows/series the
//! paper plots — which the `figures` binary and the `figures` bench
//! target print.
//!
//! ## Scaling
//!
//! All experiments run on linearly downscaled data (see DESIGN.md §1):
//! `Effort::Quick` (default under `cargo bench`) uses small row counts so
//! the full suite finishes in minutes; `Effort::Full` uses 4× more rows
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

/// A figure's id and generator.
pub type Figure = (&'static str, fn(Effort) -> FigTable);

/// Every figure, in paper order.
pub const FIGURES: [Figure; 22] = [
    ("fig01", figures::fig01::run),
    ("fig02", figures::fig02::run),
    ("fig03", figures::fig03::run),
    ("fig05", figures::fig05::run),
    ("fig06", figures::fig06::run),
    ("fig07", figures::fig07::run),
    ("fig08", figures::fig08::run),
    ("fig09", figures::fig09::run),
    ("fig12", figures::fig12::run),
    ("fig13", figures::fig13::run),
    ("fig14", figures::fig14::run),
    ("fig15", figures::fig15::run),
    ("fig16", figures::fig16::run),
    ("fig17", figures::fig17::run),
    ("fig18", figures::fig18::run),
    ("fig19", figures::fig19::run),
    ("fig20", figures::fig20::run),
    ("fig21", figures::fig21::run),
    ("fig22", figures::fig22::run),
    ("fig23", figures::fig23::run),
    ("fig24", figures::fig24::run),
    ("fig25", figures::fig25::run),
];

/// Run every figure at the given effort, in paper order.
pub fn all_figures(effort: Effort) -> Vec<FigTable> {
    FIGURES.iter().map(|(_, run)| run(effort)).collect()
}

/// Look up one figure by id (`"fig14"`; `"fig9"` also names `"fig09"`).
pub fn figure_by_id(id: &str, effort: Effort) -> Option<FigTable> {
    let unpadded = |known: &str| known.replacen("fig0", "fig", 1);
    let (_, run) = FIGURES.iter().find(|(known, _)| *known == id || unpadded(known) == id)?;
    Some(run(effort))
}
