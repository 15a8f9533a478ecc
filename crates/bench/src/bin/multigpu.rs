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
//! cargo run -p robustq-bench --release --bin multigpu -- --shard --adaptive
//! ```
//!
//! `--trace PATH` traces the largest-K SSB run under the learned
//! strategy and writes its Chrome JSON to PATH (CI feeds it to
//! `trace-lint`); the written file must carry a kernel lane per busy
//! device.
//!
//! `--shard` adds intra-operator sharding rows (DESIGN.md §6): each K
//! is additionally swept with `K`-way sharded leaf scans under
//! Data-Driven Chopping, the one strategy that shards, its data placement
//! manager replicating tables of at most [`REPLICATE_MAX_BYTES`] into
//! every cache instead of partitioning them. Sharded rows must reproduce
//! the unsharded K = 1 result fingerprints bit for bit.
//!
//! `--adaptive` adds the DESIGN.md §7 comparison table
//! (`multigpu-adaptive`): the SSB workload on a deliberately small
//! co-processor heap, once under the static cost model with chunked
//! staging off (over-heap operators abort to the CPU) and once under the
//! adaptive model with chunked staging on (they complete on-device in
//! chunks). `bench-diff --adaptive` gates the table (the `adaptive-*`
//! rows of `robustq_bench::claims::CLAIMS`).

use robustq::prelude::*;
use robustq_bench::args::{or_exit, ArgStream, CommonArgs};
use robustq_bench::machine::{fleet_sim, FLEET_STRATEGIES};
use robustq_bench::sweep::{Column, Driver, Sweep};
use robustq_bench::table::ms;
use robustq_storage::gen::ssb::SsbGenerator;
use robustq_storage::gen::tpch::TpchGenerator;
use robustq_workloads::{ssb, tpch};

/// The largest table, in accessed bytes, the sharded rows' data
/// placement manager replicates into every co-processor cache; larger
/// ones are partitioned.
const REPLICATE_MAX_BYTES: u64 = 64 * 1024;

struct Args {
    common: CommonArgs,
    shard: bool,
    adaptive: bool,
}

fn parse_args() -> Result<Args, EngineError> {
    let (mut shard, mut adaptive) = (false, false);
    let common = CommonArgs::new("BENCH_multigpu.json").parse(ArgStream::from_env(), |flag, _| {
        match flag {
            "--shard" => shard = true,
            "--adaptive" => adaptive = true,
            _ => return Ok(false),
        }
        Ok(true)
    })?;
    Ok(Args { common, shard, adaptive })
}

/// A fleet contender: a strategy, and whether its leaf scans shard K
/// ways.
type Contender = (Strategy, bool);

const FLEET_COLUMNS: [Column<(), Contender, RunReport>; 7] = [
    ("K", |p, _| p.k.to_string()),
    ("Strategy", |_, r| r.strategy.to_string()),
    ("Makespan [ms]", |_, r| ms(r.metrics.makespan)),
    ("Mean latency [ms]", |_, r| ms(r.mean_latency())),
    ("Aborts", |_, r| r.metrics.aborts.to_string()),
    ("Cache hit %", |_, r| {
        let probes = r.metrics.cache_hits + r.metrics.cache_misses;
        if probes == 0 {
            return "-".to_string();
        }
        format!("{:.1}", 100.0 * r.metrics.cache_hits as f64 / probes as f64)
    }),
    ("Busy per device [ms]", |_, r| {
        let busy = r.metrics.device_busy.iter().map(|(d, t)| format!("{d} {}", ms(*t)));
        busy.collect::<Vec<_>>().join(" | ")
    }),
];

/// The §7 comparison's contenders. Each row of the adaptive model also
/// stages over-heap operators in chunks; the static rows abort them to
/// the CPU.
const MODELS: [CostModelKind; 2] = [CostModelKind::Static, CostModelKind::Adaptive { seed: 42 }];

const ADAPTIVE_COLUMNS: [Column<Strategy, CostModelKind, RunReport>; 7] = [
    ("K", |p, _| p.k.to_string()),
    ("Strategy", |p, _| p.value.name().to_string()),
    ("Model", |p, _| {
        let model = if p.contender == CostModelKind::Static { "static" } else { "adaptive" };
        model.to_string()
    }),
    ("Makespan [ms]", |_, r| ms(r.metrics.makespan)),
    ("Aborts", |_, r| r.metrics.aborts.to_string()),
    ("Oversize", |_, r| r.staging.oversize_fallbacks.to_string()),
    // Median est-vs-actual relative error over the run's model samples;
    // `-` when the policy records none (plan-time pinning strategies
    // never consult a cost model).
    ("MedianErr %", |_, r| {
        let mut errs: Vec<f64> = r.model_samples.iter().map(ModelUpdate::relative_error).collect();
        errs.sort_by(|a, b| a.partial_cmp(b).expect("finite errors"));
        errs.get(errs.len() / 2).map_or("-".to_string(), |e| format!("{:.2}", 100.0 * e))
    }),
];

fn main() {
    let args = or_exit("multigpu", parse_args());

    let ssb_db: Database = SsbGenerator::new(1).with_rows_per_sf(args.common.rows).generate();
    let tpch_db: Database = TpchGenerator::new(1).with_rows_per_sf(args.common.rows).generate();
    let workloads: [(&str, &Database, Vec<PlanNode>); 2] = [
        ("ssb", &ssb_db, ssb::workload(&ssb_db).expect("SSB plans")),
        ("tpch", &tpch_db, tpch::workload()),
    ];

    let mut contenders: Vec<Contender> = FLEET_STRATEGIES.iter().map(|&s| (s, false)).collect();
    if args.shard {
        contenders.push((Strategy::DataDrivenChopping, true));
    }
    let mut driver = Driver::new("multigpu", &args.common);
    for (name, db, queries) in &workloads {
        let sweep = Sweep {
            id: format!("multigpu-{name}"),
            title: format!("{name} workload swept over K co-processors (shared-queue executor)"),
            columns: &FLEET_COLUMNS,
            values: &[()],
            contenders: &contenders,
            // With --shard the traced run is the sharded one, so the
            // shard lanes reach trace-lint.
            traced: (*name == "ssb").then_some(((), (Strategy::DataDrivenChopping, args.shard))),
            same_results: Some(RunReport::result_fingerprints),
        };
        driver.sweep(sweep, |p, trace| {
            let runner = WorkloadRunner::new(db, fleet_sim().with_coprocessors(p.k));
            let mut cfg = RunnerConfig::default().with_users(args.common.users);
            cfg.trace = trace;
            let (strategy, shard) = p.contender;
            if !shard {
                return runner.run(queries, strategy, &cfg).expect("sweep run");
            }
            // K-way sharded leaf scans; the data placement manager
            // partitions large tables the same `ways` so shards find
            // their slice.
            let manager = DataPlacementManager::lfu().with_sharding(p.k, REPLICATE_MAX_BYTES);
            let mut policy = DataDrivenChopping::with_manager(manager);
            let cfg = cfg.with_sharding(p.k, 0.0);
            let label = "Data-Driven Chopping + Shard";
            runner.run_with_policy(queries, &mut policy, label, &cfg).expect("sharded sweep run")
        });
    }

    if args.adaptive {
        // A heap a fraction of the scaling sweep's (memory minus cache =
        // 128 KiB): the fact-table joins' working footprints no longer
        // fit, so placement either aborts them mid-flight (static rows)
        // or stages them in chunks (adaptive rows).
        let sim = SimConfig::default().with_gpu_memory(384 * 1024).with_gpu_cache(256 * 1024);
        let sweep = Sweep {
            id: "multigpu-adaptive".to_string(),
            title: "SSB on a 128 KiB-heap fleet: static model + CPU fallback vs \
                    adaptive model + chunked staging"
                .to_string(),
            columns: &ADAPTIVE_COLUMNS,
            values: &[Strategy::GpuPreferred, Strategy::Chopping],
            contenders: &MODELS,
            traced: None,
            same_results: Some(RunReport::result_fingerprints),
        };
        driver.sweep(sweep, |p, _| {
            let mut cfg =
                RunnerConfig::default().with_users(args.common.users).with_cost_model(p.contender);
            cfg.exec.chunked_staging = p.contender != CostModelKind::Static;
            let runner = WorkloadRunner::new(&ssb_db, sim.clone().with_coprocessors(p.k));
            runner.run(&workloads[0].2, p.value, &cfg).expect("adaptive sweep run")
        });
    }
    driver.finish();
}
