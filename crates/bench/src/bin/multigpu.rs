//! Multi-GPU sweep: the same workload at K ∈ {1, 2, 4} co-processors.
//!
//! The paper evaluates one CPU and one GPU; its conclusion names
//! multiple co-processors as the natural extension. With the N-device
//! topology the co-processor count is a configuration axis
//! ([`SimConfig::with_coprocessors`]): this sweep runs an SSB and a
//! TPC-H workload at each K under a static and a learned placement
//! strategy, prints the per-device utilisation, and writes
//! `BENCH_multigpu.json` at the repository root so the scaling
//! trajectory is tracked across commits.
//!
//! Every run's query results are checked against the K = 1 baseline —
//! adding co-processors must never change *what* a query returns, only
//! where its operators run.
//!
//! ```text
//! cargo run -p robustq-bench --release --bin multigpu
//! cargo run -p robustq-bench --release --bin multigpu -- --users 8 --ks 1,2,4
//! cargo run -p robustq-bench --release --bin multigpu -- --ks 2 --trace multigpu-trace.json
//! cargo run -p robustq-bench --release --bin multigpu -- --shard --replicate-max-bytes 65536
//! ```
//!
//! `--trace PATH` traces the largest-K SSB run under the learned
//! strategy, writes its Chrome JSON to PATH (CI feeds it to
//! `trace-lint`), and asserts the written file carries one kernel lane
//! per device.
//!
//! `--shard` adds intra-operator sharding rows (DESIGN.md §6): each K
//! is additionally swept with `K`-way sharded leaf scans under the two
//! shard-aware strategies, and `--replicate-max-bytes` bounds how large
//! a table the data placement manager replicates into every cache
//! instead of partitioning. Sharded rows must reproduce the unsharded
//! K = 1 result fingerprints bit for bit.
//!
//! `--adaptive` adds the DESIGN.md §7 comparison table
//! (`multigpu-adaptive`): the SSB workload on a deliberately small
//! co-processor heap, once under the static cost model with chunked
//! staging off (over-heap operators abort to the CPU) and once under the
//! adaptive model with chunked staging on (they complete on-device in
//! chunks). `bench-diff --adaptive` gates the table (the `adaptive-*`
//! rows of `robustq_bench::claims::CLAIMS`).

use robustq_bench::args::{or_exit, ArgStream, CommonArgs};
use robustq_bench::machine::{fleet_sim, FLEET_STRATEGIES};
use robustq_bench::table::{ms, FigTable};
use robustq_bench::{export_trace, finish_sweep};
use robustq_engine::EngineError;
use robustq::prelude::*;
use robustq_storage::gen::ssb::SsbGenerator;
use robustq_storage::gen::tpch::TpchGenerator;
use robustq_storage::Database;
use robustq_workloads::{ssb, tpch, ResultFingerprints, RunReport, WorkloadRunner};

struct Args {
    common: CommonArgs,
    shard: bool,
    adaptive: bool,
    replicate_max_bytes: u64,
}

fn parse_args() -> Result<Args, EngineError> {
    let mut args = Args {
        common: CommonArgs::new("BENCH_multigpu.json"),
        shard: false,
        adaptive: false,
        replicate_max_bytes: 64 * 1024,
    };
    let mut it = ArgStream::from_env();
    while let Some(flag) = it.next_flag() {
        if args.common.accept(&flag, &mut it)? {
            continue;
        }
        match flag.as_str() {
            "--shard" => args.shard = true,
            "--adaptive" => args.adaptive = true,
            "--replicate-max-bytes" => {
                args.replicate_max_bytes = it.parsed("--replicate-max-bytes")?
            }
            other => return Err(ArgStream::unknown_flag(other)),
        }
    }
    Ok(args)
}

/// Per-device busy times as one readable cell: `CPU 1.2 | GPU 3.4 | …`.
fn busy_cell(m: &RunMetrics) -> String {
    m.device_busy
        .iter()
        .map(|(d, t)| format!("{d} {}", ms(*t)))
        .collect::<Vec<_>>()
        .join(" | ")
}

/// One failure unless `report` returns what the sweep's first run (which
/// sets `baseline`) did: placement may move work, never change answers.
fn drift(baseline: &mut Option<ResultFingerprints>, report: &RunReport, run: &str) -> u64 {
    let results = report.result_fingerprints();
    let want = baseline.get_or_insert_with(|| results.clone());
    if *want == results {
        return 0;
    }
    eprintln!("multigpu: FAIL: {run} drifted from the baseline results");
    1
}

/// One workload's sweep state: the result table, the first run's
/// fingerprints every later point must reproduce, and failure count.
struct Sweep {
    name: &'static str,
    table: FigTable,
    baseline: Option<ResultFingerprints>,
    failures: u64,
}

impl Sweep {
    /// Check the result fingerprints and append one table row.
    fn record(&mut self, k: usize, label: &str, report: &RunReport) {
        let run = format!("{} K={k} {label}", self.name);
        self.failures += drift(&mut self.baseline, report, &run);
        let m = &report.metrics;
        let probes = m.cache_hits + m.cache_misses;
        self.table.push_row([
            k.to_string(),
            label.to_string(),
            ms(m.makespan),
            ms(RunMetrics::mean_latency(&report.outcomes)),
            m.aborts.to_string(),
            if probes == 0 {
                "-".to_string()
            } else {
                format!("{:.1}", 100.0 * m.cache_hits as f64 / probes as f64)
            },
            busy_cell(m),
        ]);
    }

    /// Write the traced run's Chrome export, then assert the written
    /// document carries one kernel lane per device (a failed write is
    /// already counted).
    fn export_trace(&mut self, path: &str, report: &RunReport) {
        let trace = report.trace.as_ref().expect("traced run records events");
        self.failures += export_trace("multigpu", path, trace);
        let Ok(chrome) = std::fs::read_to_string(path) else { return };
        for (d, _) in report.metrics.device_busy.iter() {
            let lane = format!("{d} kernels");
            if !chrome.contains(&lane) {
                eprintln!("multigpu: FAIL: trace has no lane {lane:?}");
                self.failures += 1;
            }
        }
    }
}

/// Median est-vs-actual relative error over a run's model samples, in
/// percent; `None` when the policy records no samples (e.g. plan-time
/// pinning strategies that never consult a cost model).
fn median_err_pct(report: &RunReport) -> Option<f64> {
    let mut errs: Vec<f64> =
        report.model_samples.iter().map(ModelUpdate::relative_error).collect();
    if errs.is_empty() {
        return None;
    }
    errs.sort_by(|a, b| a.partial_cmp(b).expect("finite errors"));
    Some(100.0 * errs[errs.len() / 2])
}

/// The DESIGN.md §7 comparison: static model + abort-to-CPU versus
/// adaptive model + chunked staging, on a heap small enough that the SSB
/// join footprints exceed it. Returns the `multigpu-adaptive` table and
/// the number of runs whose results [`drift`]ed.
fn adaptive_sweep(
    db: &Database,
    queries: &[PlanNode],
    ks: &[usize],
    users: usize,
) -> (FigTable, u64) {
    let mut table = FigTable::new(
        "multigpu-adaptive",
        "SSB on a 128 KiB-heap fleet: static model + CPU fallback vs \
         adaptive model + chunked staging",
    )
    .with_columns([
        "K",
        "Strategy",
        "Model",
        "Makespan [ms]",
        "Aborts",
        "Oversize",
        "MedianErr %",
    ]);
    // A heap a fraction of the scaling sweep's (memory minus cache =
    // 128 KiB): the fact-table joins' working footprints no longer fit,
    // so placement either aborts them mid-flight (static rows) or stages
    // them in chunks (adaptive rows).
    let sim_base =
        SimConfig::default().with_gpu_memory(384 * 1024).with_gpu_cache(256 * 1024);
    let mut failures = 0u64;
    let mut baseline: Option<ResultFingerprints> = None;
    for &k in ks {
        let runner = WorkloadRunner::new(db, sim_base.clone().with_coprocessors(k));
        for strategy in [Strategy::GpuPreferred, Strategy::Chopping] {
            for (model, kind, staged) in [
                ("static", CostModelKind::Static, false),
                ("adaptive", CostModelKind::Adaptive { seed: 42 }, true),
            ] {
                let mut cfg =
                    RunnerConfig::default().with_users(users).with_cost_model(kind);
                if staged {
                    cfg = cfg.with_chunked_staging();
                }
                let report =
                    runner.run(queries, strategy, &cfg).expect("adaptive sweep run");
                let run = format!("adaptive K={k} {} {model}", strategy.name());
                failures += drift(&mut baseline, &report, &run);
                table.push_row([
                    k.to_string(),
                    strategy.name().to_string(),
                    model.to_string(),
                    ms(report.metrics.makespan),
                    report.metrics.aborts.to_string(),
                    report.staging.oversize_fallbacks.to_string(),
                    match median_err_pct(&report) {
                        Some(pct) => format!("{pct:.2}"),
                        None => "-".to_string(),
                    },
                ]);
            }
        }
    }
    (table, failures)
}

fn main() {
    let args = or_exit("multigpu", parse_args());
    let max_k = *args.common.ks.iter().max().expect("ks non-empty");

    let ssb_db: Database = SsbGenerator::new(1).with_rows_per_sf(args.common.rows).generate();
    let tpch_db: Database = TpchGenerator::new(1).with_rows_per_sf(args.common.rows).generate();
    let workloads: [(&str, &Database, Vec<PlanNode>); 2] = [
        ("ssb", &ssb_db, ssb::workload(&ssb_db).expect("SSB plans")),
        ("tpch", &tpch_db, tpch::workload()),
    ];

    let mut tables = Vec::new();
    let mut failures = 0u64;
    for (name, db, queries) in &workloads {
        let table = FigTable::new(
            format!("multigpu-{name}"),
            format!("{name} workload swept over K co-processors (shared-queue executor)"),
        )
        .with_columns([
            "K",
            "Strategy",
            "Makespan [ms]",
            "Mean latency [ms]",
            "Aborts",
            "Cache hit %",
            "Busy per device [ms]",
        ]);
        let mut sweep = Sweep { name, table, baseline: None, failures: 0 };
        for &k in &args.common.ks {
            let runner = WorkloadRunner::new(db, fleet_sim().with_coprocessors(k));
            for strategy in FLEET_STRATEGIES {
                // With --shard the traced run is the sharded one below,
                // so the shard lanes reach trace-lint.
                let trace_this = args.common.trace.is_some()
                    && !args.shard
                    && *name == "ssb"
                    && k == max_k
                    && strategy == Strategy::DataDrivenChopping;
                let mut cfg = RunnerConfig::default().with_users(args.common.users);
                if trace_this {
                    cfg = cfg.with_trace();
                }
                let report = runner.run(queries, strategy, &cfg).expect("sweep run");
                sweep.record(k, strategy.name(), &report);
                if trace_this {
                    let path = args.common.trace.as_deref().expect("trace path");
                    sweep.export_trace(path, &report);
                }
            }
            if args.shard {
                // K-way sharded leaf scans under the shard-aware
                // strategies. The data-placement manager partitions large
                // tables with the same `ways` so shards find their slice.
                let sharded: [(&'static str, Box<dyn PlacementPolicy>); 2] = [
                    ("Chopping + Shard", Box::new(Chopping::new())),
                    (
                        "Data-Driven Chopping + Shard",
                        Box::new(DataDrivenChopping::with_manager(
                            DataPlacementManager::lfu()
                                .with_sharding(k, args.replicate_max_bytes),
                        )),
                    ),
                ];
                for (label, mut policy) in sharded {
                    let trace_this = args.common.trace.is_some()
                        && *name == "ssb"
                        && k == max_k
                        && label == "Data-Driven Chopping + Shard";
                    let mut cfg = RunnerConfig::default()
                        .with_users(args.common.users)
                        .with_sharding(k, 0.0);
                    if trace_this {
                        cfg = cfg.with_trace();
                    }
                    let report = runner
                        .run_with_policy(queries, policy.as_mut(), label, &cfg)
                        .expect("sharded sweep run");
                    sweep.record(k, label, &report);
                    if trace_this {
                        let path = args.common.trace.as_deref().expect("trace path");
                        sweep.export_trace(path, &report);
                    }
                }
            }
        }
        failures += sweep.failures;
        tables.push(sweep.table);
    }

    if args.adaptive {
        let ssb_queries = &workloads[0].2;
        let (table, fails) =
            adaptive_sweep(&ssb_db, ssb_queries, &args.common.ks, args.common.users);
        failures += fails;
        tables.push(table);
    }

    finish_sweep("multigpu", &args.common.out, &tables, failures);
}
