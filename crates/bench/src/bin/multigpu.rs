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
//! cargo run -p robustq-bench --release --bin multigpu -- --shard --staging
//! ```
//!
//! `--trace PATH` traces the largest-K SSB run under the learned
//! strategy and writes its Chrome JSON to PATH (CI feeds it to
//! `trace-lint`); the written file must carry a kernel lane per busy
//! device.
//!
//! `--shard` adds intra-operator sharding rows (DESIGN.md §6): each K
//! is additionally swept with every query's probe spine fanned out `K`
//! ways under Data-Driven Chopping, the one strategy that shards
//! ([`robustq_bench::machine::run_sharded`], the same contender the §6.3
//! ablation runs). Sharded rows must reproduce the unsharded K = 1
//! result fingerprints bit for bit.
//!
//! `--staging` adds the DESIGN.md §6 chunked-staging table
//! (`multigpu-staging`): the SSB workload on a deliberately small
//! co-processor heap, once with chunked staging off (over-heap operators
//! abort to the CPU) and once with it on (they complete on-device in
//! chunks). `bench-diff --staging` gates the table (the `staging-*` rows
//! of `robustq_bench::claims::CLAIMS`).

use robustq::prelude::*;
use robustq_bench::args::{or_exit, ArgStream, CommonArgs};
use robustq_bench::machine::{fleet_sim, run_sharded, FLEET_STRATEGIES};
use robustq_bench::sweep::{Column, Driver, Sweep};
use robustq_bench::table::ms;
use robustq_storage::gen::ssb::SsbGenerator;
use robustq_storage::gen::tpch::TpchGenerator;
use robustq_workloads::{ssb, tpch};

struct Args {
    common: CommonArgs,
    shard: bool,
    staging: bool,
}

fn parse_args() -> Result<Args, EngineError> {
    let (mut shard, mut staging) = (false, false);
    let common = CommonArgs::new("BENCH_multigpu.json").parse(ArgStream::from_env(), |flag, _| {
        match flag {
            "--shard" => shard = true,
            "--staging" => staging = true,
            _ => return Ok(false),
        }
        Ok(true)
    })?;
    Ok(Args { common, shard, staging })
}

/// A fleet contender: a strategy, or `None` for the sharded contender
/// ([`run_sharded`]: Data-Driven Chopping, its probe spines sharded K
/// ways), which runs no other strategy.
type Contender = Option<Strategy>;

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

/// The staging table's contenders: whether chunked staging is on. Off,
/// over-heap operators abort to the CPU; on, they run in chunks.
const STAGING: [bool; 2] = [false, true];

const STAGING_COLUMNS: [Column<Strategy, bool, RunReport>; 6] = [
    ("K", |p, _| p.k.to_string()),
    ("Strategy", |p, _| p.value.name().to_string()),
    ("Staging", |p, _| if p.contender { "on" } else { "off" }.to_string()),
    ("Makespan [ms]", |_, r| ms(r.metrics.makespan)),
    ("Aborts", |_, r| r.metrics.aborts.to_string()),
    ("Oversize", |_, r| r.staging.oversize_fallbacks.to_string()),
];

fn main() {
    let args = or_exit("multigpu", parse_args());

    let ssb_db: Database = SsbGenerator::new(1).with_rows_per_sf(args.common.rows).generate();
    let tpch_db: Database = TpchGenerator::new(1).with_rows_per_sf(args.common.rows).generate();
    let workloads: [(&str, &Database, Vec<PlanNode>); 2] = [
        ("ssb", &ssb_db, ssb::workload(&ssb_db).expect("SSB plans")),
        ("tpch", &tpch_db, tpch::workload()),
    ];

    let mut contenders: Vec<Contender> = FLEET_STRATEGIES.iter().copied().map(Some).collect();
    if args.shard {
        contenders.push(None);
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
            traced: (*name == "ssb")
                .then_some(((), (!args.shard).then_some(Strategy::DataDrivenChopping))),
            same_results: Some(RunReport::result_fingerprints),
        };
        driver.sweep(sweep, |p, trace| {
            let runner = WorkloadRunner::new(db, fleet_sim().with_coprocessors(p.k));
            let mut cfg = RunnerConfig::default().with_users(args.common.users);
            cfg.trace = trace;
            match p.contender {
                Some(strategy) => runner.run(queries, strategy, &cfg).expect("sweep run"),
                None => run_sharded(&runner, queries, &cfg).expect("sharded sweep run"),
            }
        });
    }

    if args.staging {
        // A heap a fraction of the scaling sweep's (memory minus cache =
        // 128 KiB): the fact-table joins' working footprints no longer
        // fit, so placement either aborts them mid-flight (staging off)
        // or stages them in chunks (staging on).
        let sim = SimConfig::default().with_gpu_memory(384 * 1024).with_gpu_cache(256 * 1024);
        let sweep = Sweep {
            id: "multigpu-staging".to_string(),
            title: "SSB on a 128 KiB-heap fleet: CPU fallback vs chunked staging".to_string(),
            columns: &STAGING_COLUMNS,
            values: &[Strategy::GpuPreferred, Strategy::Chopping],
            contenders: &STAGING,
            traced: None,
            same_results: Some(RunReport::result_fingerprints),
        };
        driver.sweep(sweep, |p, _| {
            let mut cfg = RunnerConfig::default().with_users(args.common.users);
            cfg.exec.chunked_staging = p.contender;
            let runner = WorkloadRunner::new(&ssb_db, sim.clone().with_coprocessors(p.k));
            runner.run(&workloads[0].2, p.value, &cfg).expect("staging sweep run")
        });
    }
    driver.finish();
}
