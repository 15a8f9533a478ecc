//! The regenerated figures, one row of [`FIGURES`] each (DESIGN.md §12
//! maps each to the paper).
//!
//! A figure that plots one metric of a shared sweep is a [`Projection`]:
//! [`Projection::render`] writes one table row per sweep point (per point
//! × benchmark where it spans SSBM and TPC-H) — the point's axis cells,
//! then the metric of each series' entry. The sweeps live in [`sweeps`]
//! and are memoized, so figures that plot different metrics of one
//! experiment (e.g. Figures 14 and 15) run it once. A figure of another
//! shape is a module of its own.

pub mod sweeps;

pub mod fig01;
pub mod fig08;
pub mod fig22;
pub mod fig23;
pub mod fig24;
pub mod fig25;

use crate::machine::{Effort, WorkloadKind};
use crate::table::{ms, FigTable};
use robustq_workloads::{RunReport, SsbQuery};
use std::sync::Arc;
use sweeps::{entry, Point};
use Figure::{Module, Projected};
use Metric::*;
use Sweep::*;

/// The experiment a projected figure reads; the axes each of its points
/// offers are listed at its function in [`sweeps`].
#[derive(Debug, Clone, Copy)]
pub enum Sweep {
    /// Serial selection over cache size (B.1).
    Serial,
    /// Parallel selection over users (B.2).
    Parallel,
    /// Full workloads over scale factor.
    ScaleFactor(&'static [WorkloadKind]),
    /// Full workloads over users at SF 10.
    Users(&'static [WorkloadKind]),
}

impl Sweep {
    /// The sweep's runs, one per benchmark.
    fn runs(self, effort: Effort) -> Vec<Arc<Vec<Point>>> {
        match self {
            Serial => vec![sweeps::serial_sweep(effort)],
            Parallel => vec![sweeps::parallel_sweep(effort)],
            ScaleFactor(kinds) => kinds.iter().map(|&k| sweeps::workload_sweep(k, effort)).collect(),
            Users(kinds) => kinds.iter().map(|&k| sweeps::users_sweep(k, effort)).collect(),
        }
    }

    /// Whether the figure's rows span more than one benchmark, which
    /// prefixes them with a `benchmark` column.
    fn spans_benchmarks(self) -> bool {
        matches!(self, ScaleFactor(kinds) | Users(kinds) if kinds.len() > 1)
    }
}

/// What a series' cell reads off its entry's run.
#[derive(Debug, Clone, Copy)]
pub enum Metric {
    Makespan,
    /// CPU→GPU transfer time.
    Transfer,
    /// Aborted co-processor operators, an integer.
    Aborts,
    /// Time aborted co-processor operators ran before their abort.
    Wasted,
    /// Mean latency of one query of the SSB workload. Its rows are the
    /// selected queries (axis `query`) at the sweep's last point.
    Latency,
}

impl Metric {
    /// The cell of `report`; `slot` is the SSB query a [`Latency`] reads.
    fn cell(self, report: &RunReport, slot: usize) -> String {
        let m = &report.metrics;
        match self {
            Makespan => ms(m.makespan),
            Transfer => ms(m.h2d_time),
            Aborts => m.aborts.to_string(),
            Wasted => ms(m.wasted_time),
            Latency => ms(report.mean_latency_of_slot(slot, SsbQuery::ALL.len())),
        }
    }
}

/// How one figure is generated.
#[derive(Debug, Clone, Copy)]
pub enum Figure {
    Projected(Projection),
    /// A figure of its own shape: its id and generator.
    Module(&'static str, fn(Effort) -> FigTable),
}

impl Figure {
    pub fn id(&self) -> &'static str {
        match *self {
            Projected(p) => p.id,
            Module(id, _) => id,
        }
    }

    pub fn run(&self, effort: Effort) -> FigTable {
        match *self {
            Projected(p) => p.render(effort),
            Module(_, run) => run(effort),
        }
    }
}

/// One figure projected from a shared sweep.
#[derive(Debug, Clone, Copy)]
pub struct Projection {
    pub id: &'static str,
    /// `{header}` stands for that axis' cell at the sweep's last point.
    pub title: &'static str,
    pub sweep: Sweep,
    /// Axis columns, by the headers of the sweep's points.
    pub axes: &'static [&'static str],
    /// One column per series: `(header, entry label)`.
    pub series: &'static [(&'static str, &'static str)],
    pub metric: Metric,
}

const fn row(
    id: &'static str,
    title: &'static str,
    sweep: Sweep,
    axes: &'static [&'static str],
    series: &'static [(&'static str, &'static str)],
    metric: Metric,
) -> Figure {
    Projected(Projection { id, title, sweep, axes, series, metric })
}

const BOTH: &[WorkloadKind] = &[WorkloadKind::Ssb, WorkloadKind::Tpch];
const SSBM: &[WorkloadKind] = &[WorkloadKind::Ssb];

// The strategy series, in milliseconds.
type Series = (&'static str, &'static str);
const CPU: Series = ("CPU Only [ms]", "CPU Only");
const GPU: Series = ("GPU Only [ms]", "GPU Only");
const GPU_OP: Series = ("GPU op-driven [ms]", "GPU Only");
const ADMIT: Series = ("GPU Only + Admission [ms]", "GPU Only + Admission");
const CP: Series = ("Critical Path [ms]", "Critical Path");
const DD: Series = ("Data-Driven [ms]", "Data-Driven");
const RT: Series = ("Run-Time Placement [ms]", "Run-Time Placement");
const CHOP: Series = ("Chopping [ms]", "Chopping");
const DDC: Series = ("Data-Driven Chopping [ms]", "Data-Driven Chopping");
/// The six strategies of Figures 14/18 (`Strategy::PAPER_SIX`).
const PAPER_SIX: &[Series] = &[CPU, GPU, CP, DD, CHOP, DDC];

/// Every figure, in paper order.
#[rustfmt::skip]
pub const FIGURES: &[Figure] = &[
    Module("fig01", fig01::run),
    // Fig 2: LRU evicts the column the next query needs — a cliff (paper: 24×) below the working set.
    row("fig02", "Serial selection workload: exec time vs GPU buffer size (operator-driven)", Serial, &["cache/WS", "cache [KiB]"], &[CPU, GPU_OP], Makespan),
    // Fig 3: past ~7 users the operators' footprints overflow the heap (paper: up to 6×).
    row("fig03", "Parallel selection workload: exec time vs users (GPU preferred)", Parallel, &["users"], &[CPU, GPU], Makespan),
    // Figs 5, 6: data-driven placement avoids the cliff, because the cliff is transfers.
    row("fig05", "Serial selection workload: data-driven placement avoids thrashing", Serial, &["cache/WS"], &[CPU, GPU_OP, DD, DDC], Makespan),
    row("fig06", "Serial selection workload: CPU→GPU transfer time", Serial, &["cache/WS"], &[GPU_OP, DD, DDC], Transfer),
    // Figs 7, 9, 12, 13: neither data-driven nor run-time placement bounds the heap;
    // chopping's concurrency bound does, and nearly stops the aborts.
    row("fig07", "Parallel selection workload: Data-Driven still hits heap contention", Parallel, &["users"], &[CPU, GPU, DD], Makespan),
    Module("fig08", fig08::run),
    row("fig09", "Parallel selection workload: run-time placement helps but is not optimal", Parallel, &["users"], &[CPU, GPU, RT], Makespan),
    row("fig12", "Parallel selection workload: chopping is near-optimal", Parallel, &["users"], &[CPU, GPU, RT, CHOP, DDC], Makespan),
    row("fig13", "Parallel selection workload: aborted co-processor operators", Parallel, &["users"],
        &[("GPU Only", "GPU Only"), ("Data-Driven", "Data-Driven"), ("Run-Time Placement", "Run-Time Placement"), ("Chopping", "Chopping"), ("Data-Driven Chopping", "Data-Driven Chopping")], Aborts),
    // Figs 14-17: GPU-only falls off once the footprint crosses the cache (SF≈15);
    // Data-Driven Chopping moves the least data and is never slower than the CPU.
    row("fig14", "Workload execution time vs scale factor (a: SSBM, b: TPC-H)", ScaleFactor(BOTH), &["SF"], PAPER_SIX, Makespan),
    row("fig15", "CPU→GPU transfer time vs scale factor (a: SSBM, b: TPC-H)", ScaleFactor(BOTH), &["SF"], PAPER_SIX, Transfer),
    row("fig16", "Workload memory footprint vs scale factor", ScaleFactor(BOTH), &["SF", "footprint [KiB]", "GPU cache [KiB]"], &[], Makespan),
    row("fig17", "Per-query times, SSBM SF {SF}, single user", ScaleFactor(SSBM), &["query"], PAPER_SIX, Latency),
    // Figs 18-21: under parallel users chopping saves time, transfers and the work of
    // aborted operators, and matches admission control without serializing.
    row("fig18", "Workload execution time vs parallel users, SF 10 (a: SSBM, b: TPC-H)", Users(BOTH), &["users"], PAPER_SIX, Makespan),
    row("fig19", "CPU→GPU transfer time vs parallel users, SF 10 (a: SSBM, b: TPC-H)", Users(BOTH), &["users"], PAPER_SIX, Transfer),
    row("fig20", "Wasted time of aborted GPU operators vs users (SSBM, SF 10)", Users(SSBM), &["users"], &[GPU, CP, DD, CHOP, DDC], Wasted),
    row("fig21", "Per-query latencies, SSBM SF 10, {users} users", Users(SSBM), &["query"], &[GPU, ADMIT, CHOP, DDC], Latency),
    Module("fig22", fig22::run),
    Module("fig23", fig23::run),
    Module("fig24", fig24::run),
    Module("fig25", fig25::run),
];

impl Projection {
    /// The figure's table: one row per sweep point — or, for a
    /// [`Latency`], per selected query — its axis cells, then one metric
    /// cell per series.
    pub fn render(&self, effort: Effort) -> FigTable {
        let runs = self.sweep.runs(effort);
        let points: Vec<&Point> = runs.iter().flat_map(|run| run.iter()).collect();
        let last = points.last().expect("a sweep has points");
        let title = last.axes.iter().fold(self.title.to_string(), |title, (header, cell)| {
            title.replace(&format!("{{{header}}}"), cell)
        });
        let benchmark = self.sweep.spans_benchmarks().then_some("benchmark");
        let series = self.series.iter().map(|&(header, _)| header);
        let columns = benchmark.into_iter().chain(self.axes.iter().copied()).chain(series);
        let mut t = FigTable::new(self.id, title).with_columns(columns);

        // Each row's leading cells, the point it reads and its query slot.
        let rows: Vec<(Vec<String>, &Point, usize)> = match self.metric {
            Latency => SsbQuery::SELECTED
                .iter()
                .map(|q| {
                    let slot = SsbQuery::ALL.iter().position(|x| x == q).expect("known query");
                    (vec![q.name().to_string()], *last, slot)
                })
                .collect(),
            _ => points
                .iter()
                .map(|p| {
                    let bench = benchmark.map(|_| p.benchmark.to_string());
                    let axes = self.axes.iter().map(|h| p.axis(h).to_string());
                    (bench.into_iter().chain(axes).collect(), *p, 0)
                })
                .collect(),
        };
        for (lead, p, slot) in rows {
            let cell = |&(_, label)| self.metric.cell(&entry(&p.entries, label).report, slot);
            t.push_row(lead.into_iter().chain(self.series.iter().map(cell)));
        }
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::{MicroSetup, ParallelSetup, WorkloadSetup};

    /// The rows a projection writes, counted from its sweep's setup.
    fn rows(p: &Projection) -> usize {
        let setup = |kind| WorkloadSetup::new(kind, Effort::Quick);
        match (p.metric, p.sweep) {
            (Latency, _) => SsbQuery::SELECTED.len(),
            (_, Serial) => MicroSetup::cache_fractions().len(),
            (_, Parallel) => ParallelSetup::new(Effort::Quick).users.len(),
            (_, ScaleFactor(kinds)) => kinds.iter().map(|&k| setup(k).scale_factors.len()).sum(),
            (_, Users(kinds)) => kinds.iter().map(|&k| setup(k).users.len()).sum(),
        }
    }

    /// The projected figure `id`'s table.
    fn project(id: &str) -> FigTable {
        crate::figure_by_id(id, Effort::Quick).unwrap()
    }

    #[test]
    fn projected_tables_have_one_numeric_row_per_point() {
        let projected = FIGURES.iter().filter_map(|f| match f {
            Projected(p) => Some(p),
            Module(..) => None,
        });
        assert_eq!(projected.clone().count(), 16);
        let ids: Vec<&str> = FIGURES.iter().map(Figure::id).collect();
        assert!(ids.len() == 22 && ids.windows(2).all(|w| w[0] < w[1]), "{ids:?}");
        assert_eq!(crate::figure_by_id("fig9", Effort::Quick).unwrap().id, "fig09");
        for p in projected {
            let t = p.render(Effort::Quick);
            assert_eq!(t.rows.len(), rows(p), "{}", p.id);
            // Only a benchmark or query name is text.
            let text = if let Latency = p.metric { 1 } else { usize::from(p.sweep.spans_benchmarks()) };
            for row in &t.rows {
                for cell in &row[text..] {
                    let value: f64 = cell.parse().unwrap_or_else(|_| panic!("{}: {row:?}", p.id));
                    assert!(!matches!(p.metric, Latency) || value > 0.0, "{}: {row:?}", p.id);
                }
            }
        }

        // The CPU never touches the bus.
        let fig15 = project("fig15");
        let cpu = fig15.column("CPU Only [ms]").unwrap();
        assert!(fig15.rows.iter().all(|r| r[cpu] == "0.000"), "{fig15}");

        // The SSBM footprint crosses the cache between SF 1 and SF 30.
        let fig16 = project("fig16");
        let at = |sf: &str| {
            let row = fig16.rows.iter().find(|r| r[0] == "SSBM" && r[1] == sf).unwrap();
            (row[2].parse::<f64>().unwrap(), row[3].parse::<f64>().unwrap())
        };
        let ((first, cache), (last, _)) = (at("1"), at("30"));
        assert!(first < cache, "SF 1 fits the cache: {fig16}");
        assert!(last > cache, "SF 30 exceeds the cache: {fig16}");
        assert!(last > first * 10.0, "the footprint scales with SF: {fig16}");
    }
}
