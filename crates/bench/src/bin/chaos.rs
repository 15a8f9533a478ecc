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
//! Every run also passes the sweep driver's check list
//! (`robustq_bench::sweep`). `--trace PATH` traces the first faulted
//! seed's run: the list then also replays the metrics from the trace
//! against the reported ones (the debug-build invariant, enforced here in
//! release too) and writes the Chrome `trace_event` JSON to PATH.

use robustq_bench::args::{or_exit, ArgStream, CommonArgs};
use robustq_bench::sweep::Driver;
use robustq_bench::table::FigTable;
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

fn parse_args(it: ArgStream) -> Result<Args, EngineError> {
    let (mut seeds, mut base_seed, mut workload) = (100u64, 0u64, "ssb".to_string());
    let defaults =
        CommonArgs { ks: vec![1], rows: 1_000, users: 2, ..CommonArgs::new("BENCH_chaos.json") };
    let common = defaults.parse(it, |flag, it| {
        match flag {
            "--seeds" => seeds = it.parsed("--seeds")?,
            "--base-seed" => base_seed = it.parsed("--base-seed")?,
            "--workload" => workload = it.value("--workload")?,
            _ => return Ok(false),
        }
        Ok(true)
    })?;
    // Past u64::MAX the seed range would wrap and re-run seeds.
    if base_seed.checked_add(seeds).is_none() {
        return Err(EngineError::config("--base-seed + --seeds overflows u64"));
    }
    Ok(Args { common, seeds, base_seed, workload })
}

fn main() {
    let args = or_exit("chaos", parse_args(ArgStream::from_env()));
    let driver = Driver::new("chaos", &args.common);

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

    // Per fault-model shape: runs, injected faults, retries and
    // fallbacks, printed as a deterministic summary.
    let mut totals = [[0u64; 4]; FAULT_SHAPES.len()];
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
            let (shape, spec) = fault_shape(seed, horizon);
            let mut cfg = RunnerConfig::default()
                .with_users(args.common.users)
                .with_fault_plan(FaultPlan::new(seed, spec));
            // Trace the first faulted seed (at the first K) when asked.
            cfg.trace = args.common.trace.is_some() && ki == 0 && i == 0;
            let report = match runner.run(&queries, Strategy::GpuPreferred, &cfg) {
                Ok(r) => r,
                Err(e) => {
                    println!("seed {seed}: run failed: {e}");
                    violations += 1;
                    continue;
                }
            };
            // The fault invariants, then every sweep point's check list
            // (which exports the traced seed).
            let mut bad = chaos::violations(&report, &map);
            bad.extend(driver.check(&report));
            for msg in bad {
                println!("seed {seed}: VIOLATION: {msg}");
                violations += 1;
            }
            let f = &report.metrics.faults;
            for (t, n) in totals[shape].iter_mut().zip([1, f.injected, f.retries, f.fallbacks]) {
                *t += n;
            }
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
    for (name, counts) in FAULT_SHAPES.iter().zip(totals) {
        let [runs, injected, retries, fallbacks] = counts;
        println!("{name:<9} {runs:>5} {injected:>10} {retries:>9} {fallbacks:>11}");
        table.push_row([name.to_string()].into_iter().chain(counts.map(|n| n.to_string())));
    }
    violations += driver.write(&[table]);
    let total: u64 = totals.iter().map(|[_, injected, ..]| injected).sum();
    println!("total injected: {total}, violations: {violations}");
    if violations > 0 {
        std::process::exit(1);
    }
    if total == 0 {
        eprintln!("chaos: sweep injected nothing — vacuous configuration");
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Args, EngineError> {
        parse_args(ArgStream::from_args(args.iter().map(|s| s.to_string())))
    }

    #[test]
    fn a_seed_range_past_u64_max_is_a_config_error() {
        let max = u64::MAX.to_string();
        let wrapping: [&[&str]; 2] = [
            &["--base-seed", &max, "--seeds", "1"],
            &["--seeds", "2", "--base-seed", "18446744073709551614"],
        ];
        for bad in wrapping {
            let err = parse(bad).err().expect("wrapping range");
            assert!(err.to_string().contains("overflows"), "{err}");
        }
        let last = parse(&["--base-seed", "18446744073709551614", "--seeds", "1"]).unwrap();
        assert_eq!((last.base_seed, last.seeds), (u64::MAX - 1, 1));
    }
}
