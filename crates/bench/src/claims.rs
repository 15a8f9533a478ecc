//! The paper's claims, as data (DESIGN.md §12).
//!
//! A claim is one row of [`CLAIMS`]: which table it reads, what it
//! compares, by what margin, and whether it is expected to hold. One
//! function, [`evaluate`], reads every kind off any [`FigTable`] — a
//! figure's wide table (one column per strategy) or a sweep bin's long
//! one (`K`, `Strategy`, sweep point, measurements) — and [`check`] turns
//! the verdict into pass or fail. `bench-diff`, `figures --verdicts` and
//! the tests below are that pair pointed at different tables. A
//! [`Status::KnownViolation`] is a strict expected-fail: once the claim
//! starts to hold it fails, so a fix has to edit this list.

use crate::table::FigTable;
use robustq_engine::EngineError;
use std::collections::BTreeMap;

/// One measured series of a table: the cells under `col` in the rows
/// whose cells equal every `(column, value)` of `only`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Series {
    pub col: &'static str,
    pub only: [(&'static str, &'static str); 2],
}

/// The series of every row's cell under `col`.
pub const fn col(col: &'static str) -> Series {
    Series { col, only: [("", ""); 2] }
}

impl Series {
    /// Keep only the rows whose `column` cell is `value`.
    pub const fn on(mut self, column: &'static str, value: &'static str) -> Series {
        let slot = if self.only[0].0.is_empty() { 0 } else { 1 };
        self.only[slot] = (column, value);
        self
    }
}

/// Which of a comparison's points a claim is about.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum At {
    First,
    Last,
    Every,
}

/// The direction a series moves in as its axis grows.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Dir {
    Up,
    Down,
}

/// What a claim asserts. Lower is better in every table, so "worse"
/// means larger.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Kind {
    /// `subject ≤ baseline · (1 + ε)` at every point.
    NeverWorse(Series, Series, f64),
    /// Along the key column `axis` the subject moves in one direction:
    /// each step is within `ε` of not moving the other way.
    Monotone(Series, &'static str, Dir, f64),
    /// `a < b`, strictly.
    Ordering(Series, Series, At),
    /// `a / b ≥ f`.
    FactorAtLeast(Series, Series, f64, At),
}

/// Whether the claim is expected to hold on this reproduction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Status {
    Holds,
    /// It does not, for the named reason (EXPERIMENTS.md cites the id).
    KnownViolation(&'static str),
}

/// One claim of the paper (or of DESIGN.md, for the sweeps beyond it).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Claim {
    pub id: &'static str,
    /// Where the claim is made: `"Fig 14a"`, `"§5.4"`, `"DESIGN §10"`.
    pub source: &'static str,
    /// Id of the [`FigTable`] it is read off.
    pub table: &'static str,
    pub kind: Kind,
    pub status: Status,
}

use At::{Every, First, Last};
use Kind::{FactorAtLeast, Monotone, NeverWorse, Ordering};
use Status::{Holds, KnownViolation};

const fn claim(id: &'static str, source: &'static str, table: &'static str, kind: Kind, status: Status) -> Claim {
    Claim { id, source, table, kind, status }
}

// The strategy columns of the figures' wide tables.
const CPU: Series = col("CPU Only [ms]");
const GPU: Series = col("GPU Only [ms]");
const GPU_OP: Series = col("GPU op-driven [ms]");
const DD: Series = col("Data-Driven [ms]");
const RT: Series = col("Run-Time Placement [ms]");
const CHOP: Series = col("Chopping [ms]");
const DDC: Series = col("Data-Driven Chopping [ms]");
const ADMIT: Series = col("GPU Only + Admission [ms]");
const LFU: Series = col("LFU [ms]");
const LRU: Series = col("LRU [ms]");

/// Fig 1's execution time under one configuration.
const fn exec(configuration: &'static str) -> Series {
    col("exec time [ms]").on("configuration", configuration)
}
/// A Fig 8 column under compile-time (`false`) or run-time placement.
const fn placed(column: &'static str, run_time: bool) -> Series {
    col(column).on("placement", if run_time { "run-time" } else { "compile-time (GPU preferred)" })
}
/// The SSBM / TPC-H panel of a two-benchmark figure.
const fn ssbm(s: Series) -> Series {
    s.on("benchmark", "SSBM")
}
const fn tpch(s: Series) -> Series {
    s.on("benchmark", "TPC-H")
}
/// Column `column` of one strategy's rows in a sweep bin's long table.
const fn of(column: &'static str, strategy: &'static str) -> Series {
    col(column).on("Strategy", strategy)
}
const SPAN: &str = "Makespan [ms]";
const DDC_NAME: &str = "Data-Driven Chopping";
const DDC_SHARD: &str = crate::machine::SHARDED;
/// Margin of the "never worse than CPU-only" claims on the fleet sweeps
/// and the §6.3 ablation.
const EPS: f64 = 0.05;

/// Every claim this repository checks, one row each.
#[rustfmt::skip]
pub const CLAIMS: &[Claim] = &[
    // Fig 1: a hot cache accelerates, a cold one is transfer-bound.
    claim("fig01-hot-gpu-beats-cpu", "Fig 1", "fig01", FactorAtLeast(exec("CPU"), exec("GPU (hot cache)"), 1.3, Every), Holds),
    claim("fig01-cold-gpu-loses", "Fig 1", "fig01", FactorAtLeast(exec("GPU (cold cache)"), exec("CPU"), 1.5, Every), Holds),
    claim("fig01-cold-run-is-transfer", "Fig 1", "fig01", FactorAtLeast(col("CPU→GPU transfer [ms]").on("configuration", "GPU (cold cache)"), exec("GPU (cold cache)"), 0.5, Every), Holds),
    // Figs 2, 5, 6: cache thrashing, and data-driven placement avoiding it.
    claim("fig02-thrashing-cliff", "Fig 2", "fig02", FactorAtLeast(GPU_OP.on("cache/WS", "0.00"), GPU_OP.on("cache/WS", "1.15"), 5.0, Every), Holds),
    claim("fig02-gpu-wins-once-cached", "Fig 2", "fig02", Ordering(GPU_OP, CPU, Last), Holds),
    claim("fig05-dd-never-worse-than-cpu", "Fig 5", "fig05", NeverWorse(DD, CPU, 0.15), Holds),
    claim("fig05-dd-within-half-above-gpu-optimum", "Fig 5", "fig05", NeverWorse(DD, GPU_OP, 0.5), Holds),
    claim("fig05-dd-within-half-below-gpu-optimum", "Fig 5", "fig05", FactorAtLeast(DD, GPU_OP, 0.5, Last), Holds),
    claim("fig05-dd-avoids-thrashing", "Fig 5", "fig05", FactorAtLeast(GPU_OP, DD, 3.0, First), Holds),
    claim("fig06-thrashing-is-transfer", "Fig 6", "fig06", FactorAtLeast(GPU_OP, DD, 10.0, First), Holds),
    claim("fig06-transfers-vanish-once-cached", "Fig 6", "fig06", FactorAtLeast(GPU_OP.on("cache/WS", "0.00"), GPU_OP.on("cache/WS", "1.15"), 5.0, Every), Holds),
    // Figs 3, 7, 9, 12, 13: heap contention, and chopping bounding it.
    claim("fig03-contention-degrades-gpu", "Fig 3", "fig03", FactorAtLeast(GPU.on("users", "20"), GPU.on("users", "2"), 1.5, Every), Holds),
    claim("fig07-dd-alone-degrades-too", "Fig 7", "fig07", FactorAtLeast(DD.on("users", "20"), DD.on("users", "2"), 1.4, Every), Holds),
    claim("fig09-runtime-beats-gpu-under-contention", "Fig 9", "fig09", Ordering(RT, GPU, Last), Holds),
    claim("fig09-runtime-never-worse-than-gpu", "Fig 9", "fig09", NeverWorse(RT, GPU, 0.0), Holds),
    claim("fig12-ddc-beats-gpu-under-contention", "Fig 12", "fig12", Ordering(DDC, GPU, Last), Holds),
    claim("fig12-ddc-is-near-flat", "Fig 12", "fig12", NeverWorse(DDC, DDC.on("users", "2"), 1.5), Holds),
    claim("fig12-chopping-never-worse-than-gpu", "Fig 12", "fig12", NeverWorse(CHOP, GPU, 0.0), Holds),
    claim("fig13-chopping-aborts-less-than-gpu", "Fig 13", "fig13", Ordering(col("Chopping"), col("GPU Only"), Last), Holds),
    claim("fig13-ddc-aborts-no-more-than-chopping", "Fig 13", "fig13", NeverWorse(col("Data-Driven Chopping"), col("Chopping"), 0.0), Holds),
    claim("fig13-chopping-aborts-less-than-runtime", "Fig 13", "fig13", Ordering(col("Chopping"), col("Run-Time Placement"), Last), Holds),
    // Fig 8: run-time placement follows an abort to the CPU.
    claim("fig08-runtime-moves-less-to-gpu", "Fig 8", "fig08", Ordering(placed("CPU→GPU [ms]", true), placed("CPU→GPU [ms]", false), Every), Holds),
    claim("fig08-runtime-moves-less-back", "Fig 8", "fig08", Ordering(placed("GPU→CPU [ms]", true), placed("GPU→CPU [ms]", false), Every), Holds),
    claim("fig08-runtime-is-no-slower", "Fig 8", "fig08", NeverWorse(placed("exec time [ms]", true), placed("exec time [ms]", false), 0.05), Holds),
    // Figs 14, 15, 17: scaling the database past the cache.
    claim("fig14a-gpu-accelerates-small-scale", "Fig 14a", "fig14", Ordering(ssbm(GPU), ssbm(CPU), First), Holds),
    claim("fig14a-gpu-falls-behind-at-scale", "Fig 14a", "fig14", Ordering(ssbm(CPU), ssbm(GPU), Last), Holds),
    claim("fig14a-ddc-never-worse-than-cpu", "Fig 14a", "fig14", NeverWorse(ssbm(DDC), ssbm(CPU), 0.1), Holds),
    claim("fig14b-ddc-never-worse-than-cpu", "Fig 14b", "fig14", NeverWorse(tpch(DDC), tpch(CPU), 0.1), Holds),
    claim("fig15-ddc-saves-io-at-scale", "Fig 15", "fig15", Ordering(ssbm(DDC), ssbm(GPU), Last), Holds),
    claim("fig17-gpu-slows-q1.1", "Fig 17", "fig17", Ordering(CPU.on("query", "Q1.1"), GPU.on("query", "Q1.1"), Every), Holds),
    claim("fig17-gpu-slows-q4.1", "Fig 17", "fig17", Ordering(CPU.on("query", "Q4.1"), GPU.on("query", "Q4.1"), Every), Holds),
    claim("fig17-gpu-slows-q4.2", "Fig 17", "fig17", Ordering(CPU.on("query", "Q4.2"), GPU.on("query", "Q4.2"), Every), Holds),
    claim("fig17-gpu-slows-q4.3", "Fig 17", "fig17", Ordering(CPU.on("query", "Q4.3"), GPU.on("query", "Q4.3"), Every), Holds),
    claim("fig17-gpu-slows-every-query", "Fig 17", "fig17", Ordering(CPU, GPU, Every),
        KnownViolation("GPU-Only is 1.7x faster on Q2.1, Q2.3, Q3.1 and Q3.4")),
    claim("fig17-ddc-never-worse-than-cpu", "Fig 17", "fig17", NeverWorse(DDC, CPU, 0.1), Holds),
    // Figs 18-21: parallel users on the full workloads.
    claim("fig18a-ddc-beats-gpu-at-max-users", "Fig 18a", "fig18", Ordering(ssbm(DDC), ssbm(GPU), Last), Holds),
    claim("fig18b-ddc-beats-gpu-at-max-users", "Fig 18b", "fig18", Ordering(tpch(DDC), tpch(GPU), Last), Holds),
    claim("fig19-ddc-saves-io", "Fig 19", "fig19", FactorAtLeast(ssbm(GPU), ssbm(DDC), 3.0, Last), Holds),
    claim("fig20-chopping-wastes-no-more-than-gpu", "Fig 20", "fig20", NeverWorse(CHOP, GPU, 0.0), Holds),
    claim("fig20-waste-grows-with-users", "Fig 20", "fig20", Monotone(GPU, "users", Dir::Up, 0.0),
        KnownViolation("GPU-Only wastes 7.609 ms at 10 users, 2.480 ms at 20")),
    claim("fig21-admission-helps-q2.1", "Fig 21", "fig21", Ordering(ADMIT.on("query", "Q2.1"), GPU.on("query", "Q2.1"), Every), Holds),
    claim("fig21-chopping-matches-admission", "Fig 21", "fig21", NeverWorse(CHOP, ADMIT, 0.1),
        KnownViolation("deviation 4: serializing the 39-query workload is cheap")),
    // Figs 22, 23: two engines, both accelerated.
    claim("fig22-gpu-backend-accelerates", "Fig 22", "fig22", Ordering(col("bulk GPU [ms]"), col("bulk CPU [ms]"), Every), Holds),
    claim("fig22-gpu-backend-doubles-speed", "Fig 22", "fig22", FactorAtLeast(col("bulk CPU [ms]"), col("bulk GPU [ms]"), 2.0, Every),
        KnownViolation("the warm co-processor gains 1.4-1.7x per query")),
    claim("fig23-bulk-cpu-is-competitive", "Fig 23", "fig23", NeverWorse(col("bulk CPU [ms]"), col("vectorized CPU [ms]"), 1.0), Holds),
    claim("fig23-vectorized-cpu-is-competitive", "Fig 23", "fig23", NeverWorse(col("vectorized CPU [ms]"), col("bulk CPU [ms]"), 1.0), Holds),
    // Fig 24: the cache budget. With none of it and with all of it the
    // pinned sets are the same, so the policies are equal both ways.
    claim("fig24-full-budget-beats-none", "Fig 24", "fig24", Ordering(LFU.on("cache budget [%]", "100"), LFU.on("cache budget [%]", "0"), Every), Holds),
    claim("fig24-more-budget-never-hurts", "Fig 24", "fig24", Monotone(LFU, "cache budget [%]", Dir::Down, 0.05), Holds),
    claim("fig24-lfu-tracks-lru", "Fig 24", "fig24", NeverWorse(LFU, LRU, 1.0), Holds),
    claim("fig24-lru-tracks-lfu", "Fig 24", "fig24", NeverWorse(LRU, LFU, 1.0), Holds),
    claim("fig24-lfu-no-slower-with-no-budget", "Fig 24", "fig24", FactorAtLeast(LRU, LFU, 1.0, First), Holds),
    claim("fig24-lru-no-slower-with-no-budget", "Fig 24", "fig24", FactorAtLeast(LFU, LRU, 1.0, First), Holds),
    claim("fig24-lfu-no-slower-at-full-budget", "Fig 24", "fig24", FactorAtLeast(LRU, LFU, 1.0, Last), Holds),
    claim("fig24-lru-no-slower-at-full-budget", "Fig 24", "fig24", FactorAtLeast(LFU, LRU, 1.0, Last), Holds),
    // §6.3 on one machine: sharding over two co-processors breaks one GPU's
    // collapse, and stays under the CPU, and four stay under two.
    claim("ablation-multigpu-k2-never-worse-than-cpu", "§6.3", "ablation-multigpu", NeverWorse(col("K=2 [ms]"), CPU, EPS), Holds),
    claim("ablation-multigpu-k4-never-worse-than-k2", "§6.3", "ablation-multigpu", NeverWorse(col("K=4 [ms]"), col("K=2 [ms]"), EPS), Holds),
    claim("ablation-multigpu-k2-beats-one-gpu", "§6.3", "ablation-multigpu", FactorAtLeast(GPU, col("K=2 [ms]"), 2.0, Last), Holds),
    // BENCH_multigpu.json: co-processors have to pay (DESIGN §6), and no
    // robust strategy may fall behind the CPU, or behind itself with fewer.
    claim("multigpu-ssb-sharding-scales", "DESIGN §6", "multigpu-ssb", FactorAtLeast(of(SPAN, DDC_SHARD).on("K", "1"), of(SPAN, DDC_SHARD).on("K", "4"), 1.053, Every), Holds),
    claim("multigpu-ssb-sharding-pays-at-k2", "DESIGN §6", "multigpu-ssb", FactorAtLeast(of(SPAN, DDC_SHARD).on("K", "1"), of(SPAN, DDC_SHARD).on("K", "2"), 1.053, Every), Holds),
    claim("multigpu-ssb-ddc-shard-never-worse-than-cpu", "§5.4", "multigpu-ssb", NeverWorse(of(SPAN, DDC_SHARD), of(SPAN, "CPU Only"), EPS), Holds),
    claim("multigpu-ssb-ddc-never-worse-than-cpu", "§5.4", "multigpu-ssb", NeverWorse(of(SPAN, DDC_NAME), of(SPAN, "CPU Only"), EPS), Holds),
    claim("multigpu-ssb-ddc-improves-with-k", "§6", "multigpu-ssb", Monotone(of(SPAN, DDC_NAME), "K", Dir::Down, EPS),
        KnownViolation("0.264 -> 0.322 -> 0.322 ms over K = 1, 2, 4: more joins find their inputs apart")),
    claim("multigpu-ssb-gpu-only-uses-the-fleet", "§6", "multigpu-ssb", FactorAtLeast(of(SPAN, "GPU Only").on("K", "1"), of(SPAN, "GPU Only").on("K", "4"), 1.053, Every), Holds),
    claim("multigpu-tpch-sharding-scales", "DESIGN §6", "multigpu-tpch", FactorAtLeast(of(SPAN, DDC_SHARD).on("K", "1"), of(SPAN, DDC_SHARD).on("K", "4"), 1.053, Every), Holds),
    claim("multigpu-tpch-sharding-pays-at-k2", "DESIGN §6", "multigpu-tpch", FactorAtLeast(of(SPAN, DDC_SHARD).on("K", "1"), of(SPAN, DDC_SHARD).on("K", "2"), 1.053, Every), Holds),
    claim("multigpu-tpch-ddc-shard-never-worse-than-cpu", "§5.4", "multigpu-tpch", NeverWorse(of(SPAN, DDC_SHARD), of(SPAN, "CPU Only"), EPS), Holds),
    claim("multigpu-tpch-ddc-never-worse-than-cpu", "§5.4", "multigpu-tpch", NeverWorse(of(SPAN, DDC_NAME), of(SPAN, "CPU Only"), EPS), Holds),
    claim("multigpu-tpch-ddc-improves-with-k", "§6", "multigpu-tpch", Monotone(of(SPAN, DDC_NAME), "K", Dir::Down, EPS),
        KnownViolation("0.106 -> 0.126 -> 0.136 ms over K = 1, 2, 4")),
    // multigpu-staging: staging absorbs the over-heap operators (a row
    // with staging off never stages, so its Oversize is 0) in a regime
    // that does force aborts (DESIGN §6).
    claim("staging-never-falls-back", "DESIGN §6", "multigpu-staging", NeverWorse(col("Oversize").on("Staging", "on"), col("Oversize").on("Staging", "off"), 0.0), Holds),
    claim("staging-aborts-no-more", "DESIGN §6", "multigpu-staging", NeverWorse(col("Aborts").on("Staging", "on"), col("Aborts").on("Staging", "off"), 0.0), Holds),
    claim("staging-regime-forces-aborts", "DESIGN §6", "multigpu-staging", Ordering(of("Aborts", "GPU Only").on("Staging", "on"), of("Aborts", "GPU Only").on("Staging", "off"), Every), Holds),
    // BENCH_serving.json: the tail under open-loop load (DESIGN §10).
    claim("serving-ddc-tail-never-worse-than-gpu", "DESIGN §10", "serving-ssb", NeverWorse(of("p99 [ms]", DDC_NAME), of("p99 [ms]", "GPU Only"), 0.0), Holds),
    claim("serving-ddc-tail-never-worse-than-cpu", "§5.4", "serving-ssb", NeverWorse(of("p99 [ms]", DDC_NAME), of("p99 [ms]", "CPU Only"), EPS), Holds),
    // BENCH_streaming.json: standing results stay fresh (DESIGN §10).
    claim("streaming-ddc-completes-every-tick", "DESIGN §10", "streaming-ssb", NeverWorse(of("Ticks", DDC_NAME), of("Ticks done", DDC_NAME), 0.0), Holds),
    claim("streaming-ddc-tick-tail-never-worse-than-gpu", "DESIGN §10", "streaming-ssb", NeverWorse(of("Tick p99 [ms]", DDC_NAME), of("Tick p99 [ms]", "GPU Only"), 0.0), Holds),
    claim("streaming-ddc-tick-tail-never-worse-than-cpu", "§5.4", "streaming-ssb", NeverWorse(of("Tick p99 [ms]", DDC_NAME), of("Tick p99 [ms]", "CPU Only"), EPS), Holds),
    claim("streaming-ddc-sheds-no-more-than-chopping", "§5.4", "streaming-ssb", NeverWorse(of("Shed", DDC_NAME), of("Shed", "Chopping"), 0.0), Holds),
];

/// The committed sweep files the non-figure tables are read from.
pub const BENCH_FILES: [&str; 3] =
    ["BENCH_multigpu.json", "BENCH_serving.json", "BENCH_streaming.json"];

/// What [`evaluate`] measured: whether the claim holds at every compared
/// point, how many there were, and the point closest to or furthest past it.
#[derive(Debug, Clone, PartialEq)]
pub struct Verdict {
    pub holds: bool,
    pub compared: usize,
    pub witness: String,
}

/// One comparison `x / y` against a claim's limit, at the labelled point.
struct Cmp {
    at: String,
    x: f64,
    y: f64,
}

impl Cmp {
    /// `x / y`; equal values (0 and 0 included) are at ratio 1.
    fn ratio(&self) -> f64 {
        if self.x == self.y { 1.0 } else { self.x / self.y }
    }
}

/// One row of a series: its point's label, its cell under the axis (if
/// one is asked for), and its value — `None` for a `-` cell.
type Point<'a> = (String, &'a str, Option<f64>);

/// The points of `s` in row order. A row's key is its cells in the
/// table's shortest leading run of columns that tells every row apart
/// (`users`; `benchmark, SF`; `K, Strategy, Rate [qps]`); its label names
/// the key cells that neither `s`'s filter nor `axis` accounts for.
fn points<'a>(t: &'a FigTable, s: Series, axis: Option<&str>) -> Result<Vec<Point<'a>>, EngineError> {
    let distinct = |n: usize| {
        let mut seen = std::collections::BTreeSet::new();
        t.rows.iter().all(|r| seen.insert(&r[..n]))
    };
    let keys = (1..t.columns.len()).find(|&n| distinct(n)).unwrap_or(t.columns.len());
    let value = t.column(s.col)?;
    let axis = axis.map(|a| t.column(a)).transpose()?;
    if axis.is_some_and(|a| a >= keys) {
        return Err(EngineError::config(format!("table {:?}: the axis is no key column", t.id)));
    }
    let mut only = Vec::new();
    for (column, cell) in s.only.into_iter().filter(|(column, _)| !column.is_empty()) {
        only.push((t.column(column)?, cell));
    }
    let mut points = Vec::new();
    for row in t.rows.iter().filter(|r| only.iter().all(|&(c, cell)| r[c] == cell)) {
        let label: Vec<String> = (0..keys)
            .filter(|&c| Some(c) != axis && only.iter().all(|&(o, _)| o != c))
            .map(|c| format!("{}={}", t.columns[c], row[c]))
            .collect();
        let value = match row[value].as_str() {
            "-" => None,
            cell => Some(cell.parse().map_err(|e| {
                EngineError::config(format!("table {:?}: {} {cell:?}: {e}", t.id, s.col))
            })?),
        };
        points.push((label.join(" "), axis.map_or("", |a| row[a].as_str()), value));
    }
    Ok(points)
}

/// `a` against `b` point by point, matched by label. A series its filter
/// pins to one point (no label left) is compared against every point of
/// the other; a point either side reports `-` at is skipped.
fn pairs(t: &FigTable, a: Series, b: Series, at: At) -> Result<Vec<Cmp>, EngineError> {
    let (a_points, b_points) = (points(t, a, None)?, points(t, b, None)?);
    let mut cmps = Vec::new();
    for (label, _, x) in a_points {
        let found = b_points.iter().find(|(other, ..)| *other == label || other.is_empty());
        let (_, _, y) = found.ok_or_else(|| {
            EngineError::config(format!("table {:?}: {b:?} has no row at {label}", t.id))
        })?;
        if let (Some(x), Some(y)) = (x, *y) {
            cmps.push(Cmp { at: label, x, y });
        }
    }
    Ok(match at {
        Every => cmps,
        First => cmps.into_iter().take(1).collect(),
        Last => cmps.into_iter().last().into_iter().collect(),
    })
}

/// Each step of `s` along the key column `axis` (all other key cells
/// equal), laid out so that a step in direction `dir` has ratio ≤ 1.
fn steps(t: &FigTable, s: Series, axis: &str, dir: Dir) -> Result<Vec<Cmp>, EngineError> {
    let mut runs: BTreeMap<String, Vec<(f64, &str, f64)>> = BTreeMap::new();
    for (label, cell, value) in points(t, s, Some(axis))? {
        let position: f64 = cell.parse().map_err(|e| {
            EngineError::config(format!("table {:?}: {axis} {cell:?}: {e}", t.id))
        })?;
        if let Some(value) = value {
            runs.entry(label).or_default().push((position, cell, value));
        }
    }
    let mut cmps = Vec::new();
    for (label, mut run) in runs {
        run.sort_by(|a, b| a.0.total_cmp(&b.0));
        for step in run.windows(2) {
            let ((_, from, prev), (_, to, next)) = (step[0], step[1]);
            let (x, y) = if dir == Dir::Down { (next, prev) } else { (prev, next) };
            cmps.push(Cmp { at: format!("{label} {axis}={from}→{to}").trim().to_string(), x, y });
        }
    }
    Ok(cmps)
}

/// Read `claim` off `table`: every kind is a set of ratios against one
/// limit. Comparing no cell at all is an error, never a pass.
pub fn evaluate(claim: &Claim, table: &FigTable) -> Result<Verdict, EngineError> {
    let (cmps, op, limit) = match claim.kind {
        NeverWorse(subject, baseline, eps) => (pairs(table, subject, baseline, Every)?, "<=", 1.0 + eps),
        Monotone(subject, axis, dir, eps) => (steps(table, subject, axis, dir)?, "<=", 1.0 + eps),
        Ordering(a, b, at) => (pairs(table, a, b, at)?, "<", 1.0),
        FactorAtLeast(a, b, f, at) => (pairs(table, a, b, at)?, ">=", f),
    };
    // The worst point is the largest ratio under an upper limit, the
    // smallest over a lower one.
    let badness = |c: &Cmp| if op == ">=" { -c.ratio() } else { c.ratio() };
    let worst = cmps.iter().max_by(|a, b| badness(a).total_cmp(&badness(b))).ok_or_else(|| {
        EngineError::config(format!("claim {} compares no cell of table {:?}", claim.id, table.id))
    })?;
    let ratio = worst.ratio();
    let holds = match op {
        "<=" => ratio <= limit,
        "<" => ratio < limit,
        _ => ratio >= limit,
    };
    let (Cmp { at, x, y }, colon) = (worst, if worst.at.is_empty() { "" } else { ": " });
    let witness =
        format!("{at}{colon}{x:.3} / {y:.3} = {ratio:.3} (claimed {op} {limit:.3}, {} compared)", cmps.len());
    Ok(Verdict { holds, compared: cmps.len(), witness })
}

/// One report line for `claim`, read off its table among `tables`: `Ok`
/// when the verdict is the one its status expects, `Err` when a `Holds`
/// does not hold, a `KnownViolation` does, or nothing could be compared.
pub fn check(claim: &Claim, tables: &[FigTable]) -> Result<String, String> {
    let status = match claim.status {
        Holds => "holds".to_string(),
        KnownViolation(why) => format!("known violation ({why})"),
    };
    let line = |verdict: &str| format!("{:<50} {:<10} {status}: {verdict}", claim.id, claim.source);
    let verdict = match tables.iter().find(|t| t.id == claim.table) {
        Some(table) => evaluate(claim, table),
        None => Err(EngineError::config(format!("no table with id {:?}", claim.table))),
    };
    match verdict {
        Err(e) => Err(line(&format!("FAIL: {e}"))),
        Ok(v) if v.holds == (claim.status == Holds) => Ok(line(&v.witness)),
        Ok(v) if v.holds => Err(line(&format!("FAIL: it holds now, edit CLAIMS — {}", v.witness))),
        Ok(v) => Err(line(&format!("FAIL: {}", v.witness))),
    }
}

/// Print [`check`]'s line for each of `claims`; whether all of them passed.
pub fn report<'a>(claims: impl IntoIterator<Item = &'a Claim>, tables: &[FigTable]) -> bool {
    let mut all_ok = true;
    for claim in claims {
        let line = check(claim, tables);
        all_ok &= line.is_ok();
        println!("{}", line.unwrap_or_else(|failed| failed));
    }
    all_ok
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::{read_tables, tables_from_json, tables_json};
    use crate::{all_figures, Effort, FIGURES};
    use std::sync::OnceLock;

    /// A wide table in a figure's shape.
    fn wide() -> FigTable {
        let mut t = FigTable::new("t", "demo").with_columns(["users", "A [ms]", "B [ms]"]);
        t.push_row(["1", "1.000", "1.000"]);
        t.push_row(["5", "3.000", "2.000"]);
        t.push_row(["10", "-", "2.000"]);
        t.push_row(["20", "2.200", "2.000"]);
        t
    }

    /// A long table in a sweep bin's shape.
    fn long() -> FigTable {
        let mut t = FigTable::new("t", "demo").with_columns(["K", "Strategy", "Rate", "p99"]);
        for (k, strategy, rate, p99) in [
            ("1", "X", "100", "1.0"),
            ("1", "Y", "100", "2.0"),
            ("1", "X", "200", "3.0"),
            ("1", "Y", "200", "4.0"),
            ("2", "X", "100", "0.5"),
            ("2", "Y", "100", "2.0"),
            ("2", "X", "200", "5.0"),
            ("2", "Y", "200", "4.0"),
        ] {
            t.push_row([k, strategy, rate, p99]);
        }
        t
    }

    const A: Series = col("A [ms]");
    const B: Series = col("B [ms]");

    fn on(kind: Kind, status: Status) -> Claim {
        claim("demo", "Fig 0", "t", kind, status)
    }

    fn verdict(kind: Kind, table: &FigTable) -> Verdict {
        evaluate(&on(kind, Holds), table).unwrap()
    }

    #[test]
    fn never_worse_names_the_worst_point_and_skips_dashes() {
        let v = verdict(NeverWorse(A, B, 0.2), &wide());
        // 3 of 4 rows: the `-` is skipped, not read as 0 (which would pass).
        assert_eq!((v.holds, v.compared), (false, 3));
        assert!(v.witness.starts_with("users=5: 3.000 / 2.000 = 1.500"), "{}", v.witness);
        // Within the margin at every point: the witness is the tightest.
        let v = verdict(NeverWorse(A, B, 0.5), &wide());
        assert!(v.holds && v.witness.starts_with("users=5:"), "{}", v.witness);
        // The other way round the dash row still does not count.
        assert_eq!(verdict(NeverWorse(B, A, 0.0), &wide()).compared, 3);
    }

    #[test]
    fn ordering_is_strict_and_reads_first_last_or_every_point() {
        assert!(!verdict(Ordering(B, A, First), &wide()).holds, "1.000 < 1.000 is false");
        assert!(verdict(Ordering(B, A, Last), &wide()).holds);
        let every = verdict(Ordering(B, A, Every), &wide());
        assert!(!every.holds && every.witness.starts_with("users=1:"), "{}", every.witness);
    }

    #[test]
    fn factor_at_least_reads_the_smallest_ratio() {
        let v = verdict(FactorAtLeast(A, B, 1.1, Every), &wide());
        assert!(!v.holds && v.witness.starts_with("users=1: 1.000 / 1.000"), "{}", v.witness);
        assert!(verdict(FactorAtLeast(A, B, 1.1, Last), &wide()).holds);
        assert!(verdict(FactorAtLeast(A, B, 1.0, Every), &wide()).holds);
        // Between two single points a filter pins.
        let (first, last) = (A.on("users", "1"), A.on("users", "20"));
        assert!(verdict(FactorAtLeast(last, first, 2.0, Every), &wide()).holds);
        assert!(!verdict(FactorAtLeast(first, last, 2.0, Every), &wide()).holds);
    }

    #[test]
    fn a_pinned_series_is_compared_against_every_point() {
        let v = verdict(NeverWorse(A, A.on("users", "1"), 1.5), &wide());
        assert_eq!((v.holds, v.compared), (false, 3));
        assert!(v.witness.starts_with("users=5: 3.000 / 1.000"), "{}", v.witness);
    }

    #[test]
    fn monotone_steps_along_the_axis_within_each_group() {
        // A: 1.0 → 3.0 → (dash) → 2.2: up, then down.
        let up = verdict(Monotone(A, "users", Dir::Up, 0.0), &wide());
        assert_eq!((up.holds, up.compared), (false, 2));
        assert!(up.witness.starts_with("users=5→20: 3.000 / 2.200"), "{}", up.witness);
        assert!(verdict(Monotone(B, "users", Dir::Up, 0.0), &wide()).holds);
        assert!(!verdict(Monotone(B, "users", Dir::Down, 0.0), &wide()).holds);
        assert!(verdict(Monotone(B, "users", Dir::Down, 1.0), &wide()).holds);
        // Long table: X's p99 along Rate per K, along K per Rate.
        let x = col("p99").on("Strategy", "X");
        let v = verdict(Monotone(x, "Rate", Dir::Up, 0.0), &long());
        assert_eq!((v.holds, v.compared), (true, 2));
        let v = verdict(Monotone(x, "K", Dir::Down, 0.0), &long());
        assert!(!v.holds && v.witness.starts_with("Rate=200 K=1→2: 5.000 / 3.000"), "{}", v.witness);
        // The axis has to be a key column of the series.
        assert!(evaluate(&on(Monotone(x, "p99", Dir::Up, 0.0), Holds), &long()).is_err());
        assert!(evaluate(&on(Monotone(x, "Strategy", Dir::Up, 0.0), Holds), &long()).is_err());
    }

    #[test]
    fn long_tables_pair_rows_by_their_remaining_key() {
        let (x, y) = (col("p99").on("Strategy", "X"), col("p99").on("Strategy", "Y"));
        let v = verdict(NeverWorse(x, y, 0.0), &long());
        assert_eq!((v.holds, v.compared), (false, 4));
        assert!(v.witness.starts_with("K=2 Rate=200: 5.000 / 4.000"), "{}", v.witness);
        // Two filters pin single points.
        let v = verdict(Ordering(x.on("K", "2"), y.on("K", "2"), First), &long());
        assert!(v.holds && v.witness.starts_with("Rate=100: 0.500 / 2.000"), "{}", v.witness);
        // A series with no counterpart at some point is an error.
        let mut short = long();
        short.rows.pop();
        let err = evaluate(&on(NeverWorse(x, y, 0.0), Holds), &short).unwrap_err();
        assert!(err.to_string().contains("has no row at K=2 Rate=200"), "{err}");
    }

    #[test]
    fn comparing_nothing_or_naming_an_unknown_column_is_an_error() {
        let table = tables_from_json(&tables_json(&[wide()])).unwrap().remove(0);
        for kind in [
            NeverWorse(A.on("users", "10"), B.on("users", "10"), 0.0), // only a dash
            NeverWorse(A.on("users", "7"), B, 0.0),                    // no such row
            Monotone(A.on("users", "1"), "users", Dir::Up, 0.0),       // a single point
            NeverWorse(col("C [ms]"), B, 0.0),                         // no such column
            NeverWorse(A, B.on("cache", "1"), 0.0),                    // no such filter column
            Monotone(A, "cache", Dir::Up, 0.0),                        // no such axis
        ] {
            for status in [Holds, KnownViolation("demo")] {
                let err = evaluate(&on(kind, status), &table).unwrap_err();
                assert!(matches!(err, EngineError::Config(_)), "{kind:?}: {err}");
                assert!(check(&on(kind, status), std::slice::from_ref(&table)).is_err(), "{kind:?}");
            }
        }
        // A cell that is neither a number nor a dash is not skipped.
        let mut table = wide();
        table.rows[0][1] = "fast".to_string();
        assert!(evaluate(&on(NeverWorse(A, B, 0.0), Holds), &table).is_err());
    }

    #[test]
    fn expected_fail_is_strict_in_both_directions() {
        let (holds, broken) = (NeverWorse(A, B, 0.5), NeverWorse(A, B, 0.2));
        let tables = [wide()];
        assert!(check(&on(holds, Holds), &tables).is_ok());
        assert!(check(&on(broken, KnownViolation("demo")), &tables).is_ok());
        let regressed = check(&on(broken, Holds), &tables).unwrap_err();
        assert!(regressed.contains("FAIL: users=5"), "{regressed}");
        let cured = check(&on(holds, KnownViolation("demo")), &tables).unwrap_err();
        assert!(cured.contains("it holds now, edit CLAIMS"), "{cured}");
        // A claim on a table nobody produced fails as well.
        assert!(check(&on(holds, Holds), &[]).unwrap_err().contains("no table with id"));
    }

    /// Every table a claim can name: the figures at `Quick` effort and
    /// the committed sweep files.
    fn tables() -> &'static [FigTable] {
        static TABLES: OnceLock<Vec<FigTable>> = OnceLock::new();
        TABLES.get_or_init(|| {
            let mut tables = all_figures(Effort::Quick);
            tables.extend(bench_tables());
            tables
        })
    }

    fn bench_tables() -> Vec<FigTable> {
        let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
        BENCH_FILES.iter().flat_map(|f| read_tables(&format!("{root}/{f}")).unwrap()).collect()
    }

    /// What tier-1 gates of the four `bench-diff` CI steps: the claims on
    /// the committed sweep files, without running a figure.
    #[test]
    fn bench_file_claims_have_their_expected_status() {
        let tables = bench_tables();
        let figure = |c: &&Claim| FIGURES.iter().any(|f| f.id() == c.table);
        let claims: Vec<&Claim> = CLAIMS.iter().filter(|c| !figure(c)).collect();
        assert!(claims.len() >= 18, "{}", claims.len());
        for claim in claims {
            check(claim, &tables).unwrap_or_else(|failed| panic!("{failed}"));
        }
    }

    #[test]
    fn every_claim_has_its_expected_status_and_flipping_it_fails() {
        for c in CLAIMS {
            check(c, tables()).unwrap_or_else(|failed| panic!("{failed}"));
            let flipped = match c.status {
                Holds => KnownViolation("flipped"),
                KnownViolation(_) => Holds,
            };
            assert!(check(&Claim { status: flipped, ..*c }, tables()).is_err(), "{}", c.id);
        }
    }

    #[test]
    fn every_claim_names_a_table_and_columns_that_exist() {
        let mut ids: Vec<&str> = CLAIMS.iter().map(|c| c.id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), CLAIMS.len(), "claim ids are unique");
        for c in CLAIMS {
            if c.table.starts_with("fig") || c.table.starts_with("ablation-") {
                assert!(FIGURES.iter().any(|f| f.id() == c.table), "{}: {}", c.id, c.table);
                assert!(c.id.starts_with(c.table), "{} is read off {}", c.id, c.table);
            }
            let table = tables().iter().find(|t| t.id == c.table);
            let table = table.unwrap_or_else(|| panic!("{}: no table {}", c.id, c.table));
            let (series, axis) = match c.kind {
                NeverWorse(a, b, _) | Ordering(a, b, _) | FactorAtLeast(a, b, _, _) => (vec![a, b], None),
                Monotone(s, axis, _, _) => (vec![s], Some(axis)),
            };
            let filters = series.iter().flat_map(|s| s.only).map(|(column, _)| column);
            let named = series.iter().map(|s| s.col).chain(filters).chain(axis);
            for column in named.filter(|column| !column.is_empty()) {
                assert!(table.column(column).is_ok(), "{}: {} has no {column:?}", c.id, c.table);
            }
        }
    }

    /// EXPERIMENTS.md and the list agree on what is broken: every known
    /// violation is cited by id on a line that says it does not hold, and
    /// every "does not hold" of its tables cites one. Per id, so a cure
    /// needs no count lowered.
    #[test]
    fn experiments_md_cites_every_known_violation_and_nothing_else() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../EXPERIMENTS.md");
        let doc = std::fs::read_to_string(path).unwrap();
        let known: Vec<&str> = CLAIMS
            .iter()
            .filter(|c| matches!(c.status, KnownViolation(_)))
            .map(|c| c.id)
            .collect();
        let verdicts: Vec<&str> = doc.lines().filter(|l| l.contains("does not hold")).collect();
        for id in &known {
            let cited = verdicts.iter().any(|line| line.contains(&format!("`{id}`")));
            assert!(cited, "no line of EXPERIMENTS.md says {id} does not hold");
        }
        for line in verdicts {
            let cited = known.iter().any(|id| line.contains(&format!("`{id}`")));
            assert!(cited, "a 'does not hold' cites no known violation: {line}");
        }
        // And no id is cited as broken that the list says holds.
        for c in CLAIMS.iter().filter(|c| c.status == Holds) {
            assert!(!doc.contains(&format!("`{}` does not hold", c.id)), "{}", c.id);
        }
    }
}
