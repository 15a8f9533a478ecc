//! Chaos sweep over seeded fault plans (DESIGN.md §12).
//!
//! Runs a workload once fault-free, then once per seed under a seeded
//! [`FaultPlan`], and checks the differential and accounting invariants
//! after every run. Exit status 1 if any invariant is violated.
//!
//! ```text
//! cargo run -p robustq-bench --release --bin chaos
//! cargo run -p robustq-bench --release --bin chaos -- --seeds 200 --base-seed 0
//! cargo run -p robustq-bench --release --bin chaos -- --workload micro --users 4
//! cargo run -p robustq-bench --release --bin chaos -- --trace chaos-trace.json
//! ```
//!
//! Shared flags (`--out`, `--trace`, `--ks`, `--rows`, `--users`) parse
//! as everywhere else in the bench suite: `--ks` repeats the whole sweep
//! per co-processor count (baselined per K), `--rows` sizes the
//! generated database, and the per-shape fault summary is written to
//! `--out` as a FigTable JSON document. `--seeds N` sweeps the fault
//! plans `--base-seed .. --base-seed + N`.
//!
//! `--trace PATH` traces the first faulted seed's run, cross-checks the
//! metrics replayed from the trace against the reported ones (the
//! debug-build invariant, enforced here in release too), and writes the
//! Chrome `trace_event` JSON to PATH.

use robustq_bench::args::{or_exit, ArgStream, CommonArgs};
use robustq_bench::table::FigTable;
use robustq_bench::{export_trace, write_tables};
use robustq_engine::EngineError;
use robustq::prelude::*;
use robustq_storage::gen::ssb::SsbGenerator;
use robustq_workloads::chaos::{self, fault_shape, FAULT_SHAPES};
use robustq_workloads::{micro, ssb};

struct Args {
    common: CommonArgs,
    seeds: u64,
    base_seed: u64,
    workload: String,
}

fn parse_args() -> Result<Args, EngineError> {
    let mut args = Args {
        common: CommonArgs::new("BENCH_chaos.json")
            .with_ks(&[1])
            .with_rows(1_000)
            .with_users(2),
        seeds: 100,
        base_seed: 0,
        workload: "ssb".to_string(),
    };
    let mut it = ArgStream::from_env();
    while let Some(flag) = it.next_flag() {
        if args.common.accept(&flag, &mut it)? {
            continue;
        }
        match flag.as_str() {
            "--seeds" => args.seeds = it.parsed("--seeds")?,
            "--base-seed" => args.base_seed = it.parsed("--base-seed")?,
            "--workload" => args.workload = it.value("--workload")?,
            other => return Err(ArgStream::unknown_flag(other)),
        }
    }
    Ok(args)
}

fn main() {
    let args = or_exit("chaos", parse_args());

    let db: Database =
        SsbGenerator::new(1).with_rows_per_sf(args.common.rows).generate();
    let queries: Vec<PlanNode> = match args.workload.as_str() {
        "ssb" => ssb::workload(&db).expect("SSB plans"),
        "micro" => micro::parallel_selection_workload(12),
        other => {
            eprintln!("chaos: unknown workload {other:?}; known: ssb, micro");
            std::process::exit(2);
        }
    };

    println!(
        "chaos: workload={} users={} seeds={}..{} ks={:?}",
        args.workload,
        args.common.users,
        args.base_seed,
        args.base_seed + args.seeds,
        args.common.ks,
    );

    // Totals per fault-model shape, printed as a deterministic summary.
    let mut injected = [0u64; 5];
    let mut retries = [0u64; 5];
    let mut fallbacks = [0u64; 5];
    let mut runs = [0u64; 5];
    let mut violations = 0u64;
    for (ki, &k) in args.common.ks.iter().enumerate() {
        let sim = SimConfig::default()
            .with_gpu_memory(512 * 1024)
            .with_gpu_cache(256 * 1024)
            .with_coprocessors(k);
        let runner = WorkloadRunner::new(&db, sim);
        let cfg = RunnerConfig::default().with_users(args.common.users);
        let baseline = runner
            .run(&queries, Strategy::GpuPreferred, &cfg)
            .expect("fault-free baseline run");
        let map = baseline.result_fingerprints();
        let horizon = baseline.metrics.makespan.max(VirtualTime::from_micros(1));

        for i in 0..args.seeds {
            let seed = args.base_seed + i;
            let shape = (seed % 5) as usize;
            let plan = FaultPlan::new(seed, fault_shape(seed, horizon));
            let mut cfg = RunnerConfig::default()
                .with_users(args.common.users)
                .with_fault_plan(plan);
            // Trace the first faulted seed (at the first K) when asked.
            let trace_this = args.common.trace.is_some() && ki == 0 && i == 0;
            if trace_this {
                cfg = cfg.with_trace();
            }
            let report = match runner.run(&queries, Strategy::GpuPreferred, &cfg) {
                Ok(r) => r,
                Err(e) => {
                    println!("seed {seed}: run failed: {e}");
                    violations += 1;
                    continue;
                }
            };
            for msg in chaos::violations(&report, &map) {
                println!("seed {seed}: VIOLATION: {msg}");
                violations += 1;
            }
            if trace_this {
                let path = args.common.trace.as_deref().expect("trace path present");
                let trace = report.trace.as_ref().expect("traced run records events");
                // The fold the event loop ran, replayed from the recorded
                // stream, against the components' own end-of-run figures:
                // the debug-build cross-check, enforced in release too.
                // (Over a truncated stream it would compare garbage; the
                // export below reports a ring overflow as a violation.)
                if RunMetrics::from_events(&trace.events) != report.metrics {
                    println!("seed {seed}: VIOLATION: trace-derived metrics diverge");
                    violations += 1;
                }
                violations += export_trace("chaos", path, trace);
            }
            runs[shape] += 1;
            injected[shape] += report.metrics.faults.injected;
            retries[shape] += report.metrics.faults.retries;
            fallbacks[shape] += report.metrics.faults.fallbacks;
        }
    }

    let mut table = FigTable::new(
        "chaos-faults",
        format!(
            "Chaos sweep ({} workload): injected faults, retries and fallbacks \
             per fault-model shape",
            args.workload
        ),
    )
    .with_columns(["Shape", "Runs", "Injected", "Retries", "Fallbacks"]);
    println!("shape      runs   injected   retries   fallbacks");
    for (i, name) in FAULT_SHAPES.iter().enumerate() {
        println!(
            "{name:<9} {:>5} {:>10} {:>9} {:>11}",
            runs[i], injected[i], retries[i], fallbacks[i]
        );
        table.push_row([
            name.to_string(),
            runs[i].to_string(),
            injected[i].to_string(),
            retries[i].to_string(),
            fallbacks[i].to_string(),
        ]);
    }
    violations += write_tables("chaos", &args.common.out, &[table]);
    let total: u64 = injected.iter().sum();
    println!("total injected: {total}, violations: {violations}");
    if violations > 0 {
        std::process::exit(1);
    }
    if total == 0 {
        eprintln!("chaos: sweep injected nothing — vacuous configuration");
        std::process::exit(1);
    }
}
