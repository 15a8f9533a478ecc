//! Open-loop serving sweep: arrival rate × strategy × K co-processors.
//!
//! The closed-loop sweeps (`figures`, `multigpu`) measure makespan on a
//! fixed query count; this sweep measures what a *serving* deployment
//! cares about — latency percentiles and goodput as the offered arrival
//! rate approaches and passes capacity (DESIGN.md §10). Each sweep
//! point runs a Poisson arrival schedule over a Zipf-skewed SSB query
//! mix through [`ServingRunner`], with admission control plus a finite
//! admission-queue cap so overload sheds instead of queueing without
//! bound. Results land in `BENCH_serving.json`; `bench-diff --serving`
//! then gates the `serving-*` claims of `robustq_bench::claims`.
//!
//! ```text
//! cargo run -p robustq-bench --release --bin loadgen
//! cargo run -p robustq-bench --release --bin loadgen -- --rates 200,800,3200 --ks 1,2
//! cargo run -p robustq-bench --release --bin loadgen -- --trace serving-trace.json
//! ```
//!
//! Shared flags (`--out`, `--trace`, `--ks`, `--rows`, `--users`) parse
//! as everywhere else in the bench suite; `--users` is the admission
//! limit (concurrently executing queries). The sweep is single-seeded.
//!
//! `--trace PATH` traces the highest-rate max-K Data-Driven Chopping
//! run and writes its Chrome export to PATH (CI feeds it to
//! `trace-lint` — the open-loop exporter degrades overlapping session
//! spans to complete events, which must stay lint-clean).

use robustq_bench::args::{or_exit, ArgStream, CommonArgs};
use robustq_bench::machine::{fleet_sim, FLEET_STRATEGIES};
use robustq_bench::table::{ms, FigTable};
use robustq_bench::{export_trace, finish_sweep};
use robustq_engine::EngineError;
use robustq::prelude::*;
use robustq_storage::gen::ssb::SsbGenerator;
use robustq_workloads::ssb;

/// The sweep's fixed shape: virtual horizon, session pool, seed,
/// admission-queue cap, and the Zipf skew of the query mix.
const HORIZON_MS: u64 = 50;
const SESSIONS: usize = 100_000;
const SEED: u64 = 42;
const QUEUE_CAP: usize = 32;
const THETA: f64 = 0.8;

struct Args {
    common: CommonArgs,
    rates: Vec<f64>,
}

fn parse_args() -> Result<Args, EngineError> {
    let mut args = Args {
        common: CommonArgs::new("BENCH_serving.json").with_ks(&[1, 2]),
        rates: vec![25_000.0, 100_000.0, 400_000.0],
    };
    let mut it = ArgStream::from_env();
    while let Some(flag) = it.next_flag() {
        if args.common.accept(&flag, &mut it)? {
            continue;
        }
        match flag.as_str() {
            "--rates" => {
                args.rates = it.parsed_list("--rates")?;
                if args.rates.iter().any(|&r| r <= 0.0) {
                    return Err(EngineError::config(
                        "--rates needs a comma list of rates > 0",
                    ));
                }
            }
            other => return Err(ArgStream::unknown_flag(other)),
        }
    }
    Ok(args)
}

fn push_row(table: &mut FigTable, k: usize, rate: f64, report: &ServingReport) {
    table.push_row([
        k.to_string(),
        report.strategy.to_string(),
        format!("{rate:.0}"),
        report.offered.to_string(),
        report.completed().to_string(),
        report.metrics.shed.to_string(),
        ms(report.p50()),
        ms(report.p95()),
        ms(report.p99()),
        ms(report.p999()),
        format!("{:.1}", report.qps()),
    ]);
}

fn main() {
    let args = or_exit("loadgen", parse_args());
    let max_k = *args.common.ks.iter().max().expect("ks non-empty");
    let max_rate = args.rates.iter().cloned().fold(0.0f64, f64::max);

    let db: Database =
        SsbGenerator::new(1).with_rows_per_sf(args.common.rows).generate();
    let mix = QueryMix::zipf(ssb::workload(&db).expect("SSB plans"), THETA);

    let mut table = FigTable::new(
        "serving-ssb",
        "Open-loop SSB serving: latency percentiles vs Poisson arrival rate",
    )
    .with_columns([
        "K",
        "Strategy",
        "Rate [qps]",
        "Offered",
        "Completed",
        "Shed",
        "p50 [ms]",
        "p95 [ms]",
        "p99 [ms]",
        "p999 [ms]",
        "Goodput [qps]",
    ]);
    let mut failures = 0u64;

    for &k in &args.common.ks {
        let runner = ServingRunner::new(&db, fleet_sim().with_coprocessors(k));
        for &rate in &args.rates {
            for strategy in FLEET_STRATEGIES {
                let trace_this = args.common.trace.is_some()
                    && k == max_k
                    && rate == max_rate
                    && strategy == Strategy::DataDrivenChopping;
                let mut cfg = ServeConfig::new(
                    ArrivalProcess::Poisson { rate_qps: rate },
                    VirtualTime::from_millis(HORIZON_MS),
                )
                .with_sessions(SESSIONS)
                .with_seed(SEED)
                .with_admission_limit(args.common.users)
                .with_queue_cap(QUEUE_CAP);
                if trace_this {
                    cfg = cfg.with_trace();
                }
                let report = runner.run(&mix, strategy, &cfg).expect("sweep run");
                if report.offered != report.completed() + report.metrics.shed as usize {
                    eprintln!(
                        "loadgen: FAIL: K={k} rate={rate} {}: offered {} != \
                         completed {} + shed {}",
                        report.strategy,
                        report.offered,
                        report.completed(),
                        report.metrics.shed,
                    );
                    failures += 1;
                }
                push_row(&mut table, k, rate, &report);
                if trace_this {
                    let path = args.common.trace.as_deref().expect("trace path");
                    let trace = report.trace.as_ref().expect("traced run records events");
                    failures += export_trace("loadgen", path, trace);
                }
            }
        }
    }

    finish_sweep("loadgen", &args.common.out, &[table], failures);
}
