//! Streaming sweep: standing-query windows over an append feed,
//! strategy × window period × K co-processors.
//!
//! The open-loop sweep (`loadgen`) measures ad-hoc tail latency under
//! load; this sweep measures what a *streaming* deployment cares about —
//! how stale a standing result gets. Each sweep point replays the
//! SSB-stream feed (DESIGN.md §10) in virtual time, fires two standing
//! SSB queries (Q1.1 tumbling, Q3.3 sliding over twice the period) per
//! window tick, and interleaves a Poisson ad-hoc arrival stream so the
//! ticks compete for admission like any other query. Results land in
//! `BENCH_streaming.json`; `bench-diff --streaming` then gates the
//! robustness claim (Data-Driven Chopping's tick p99 must not exceed
//! GPU Only's at the tightest window period).
//!
//! ```text
//! cargo run -p robustq-bench --release --bin streaming
//! cargo run -p robustq-bench --release --bin streaming -- --windows-us 500,1000 --ks 1,2
//! cargo run -p robustq-bench --release --bin streaming -- --trace streaming-trace.json
//! ```
//!
//! Shared flags (`--out`, `--trace`, `--ks`, `--rows`, `--users`) parse
//! as everywhere else in the bench suite; `--users` is the admission
//! limit. `--windows-us` lists the window periods to sweep
//! (microseconds of virtual time), `--rate` the background Poisson
//! arrival rate, `--batches` the number of feed append batches (one
//! tumbling tick ingests exactly one batch).
//!
//! `--trace PATH` traces the tightest-window max-K Data-Driven Chopping
//! run and writes its Chrome export to PATH (the feed lane's `Append` /
//! `WindowFire` instants ride along; CI feeds it to `trace-lint`).

use robustq::prelude::*;
use robustq_bench::args::{ArgStream, CommonArgs};
use robustq_bench::machine::{fleet_sim, FLEET_STRATEGIES};
use robustq_bench::table::{ms, FigTable};
use robustq_bench::{export_trace, finish_sweep};
use robustq_trace::MetricsRegistry;
use robustq_workloads::{ssb, SsbQuery, SsbStreamGen};

struct Args {
    common: CommonArgs,
    windows_us: Vec<u64>,
    rate: f64,
    batches: usize,
    seal_rows: usize,
    seed: u64,
    queue_cap: usize,
    theta: f64,
}

fn parse_args() -> Result<Args, EngineError> {
    let mut args = Args {
        common: CommonArgs::new("BENCH_streaming.json"),
        windows_us: vec![500, 1_000, 2_000],
        rate: 50_000.0,
        batches: 8,
        seal_rows: 512,
        seed: 42,
        queue_cap: 32,
        theta: 0.8,
    };
    let mut it = ArgStream::from_env();
    while let Some(flag) = it.next_flag() {
        if args.common.accept(&flag, &mut it)? {
            continue;
        }
        match flag.as_str() {
            "--windows-us" => {
                args.windows_us = it.parsed_list("--windows-us")?;
                if args.windows_us.contains(&0) {
                    return Err(EngineError::config(
                        "--windows-us needs a comma list of periods ≥ 1",
                    ));
                }
            }
            "--rate" => {
                args.rate = it.parsed("--rate")?;
                if args.rate < 0.0 {
                    return Err(EngineError::config("--rate must be ≥ 0"));
                }
            }
            "--batches" => args.batches = it.parsed("--batches")?,
            "--seal-rows" => args.seal_rows = it.parsed("--seal-rows")?,
            "--seed" => args.seed = it.parsed("--seed")?,
            "--queue-cap" => args.queue_cap = it.parsed("--queue-cap")?,
            "--theta" => args.theta = it.parsed("--theta")?,
            other => return Err(ArgStream::unknown_flag(other)),
        }
    }
    Ok(args)
}

fn push_row(table: &mut FigTable, k: usize, window_us: u64, report: &StreamingReport) {
    table.push_row([
        k.to_string(),
        report.strategy.to_string(),
        format!("{:.3}", window_us as f64 / 1e3),
        report.offered_ticks.to_string(),
        report.window_outcomes.len().to_string(),
        report.offered_arrivals.to_string(),
        report.metrics.shed.to_string(),
        ms(report.tick_percentile(50.0)),
        ms(report.tick_p99()),
        ms(report.arrival_percentile(99.0)),
    ]);
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("streaming: {e}");
            std::process::exit(2);
        }
    };
    let max_k = *args.common.ks.iter().max().expect("ks non-empty");
    let min_window = *args.windows_us.iter().min().expect("windows non-empty");

    let data = SsbStreamGen::new(1)
        .with_rows_per_sf(args.common.rows)
        .with_batches(args.batches)
        .with_seal_rows(args.seal_rows)
        .build()
        .expect("SSB-stream build");
    let mix =
        QueryMix::zipf(ssb::workload(&data.db).expect("SSB plans"), args.theta);

    let mut table = FigTable::new(
        "streaming-ssb",
        "SSB-stream standing queries: window-tick latency vs window period",
    )
    .with_columns([
        "K",
        "Strategy",
        "Window [ms]",
        "Ticks",
        "Ticks done",
        "Arrivals",
        "Shed",
        "Tick p50 [ms]",
        "Tick p99 [ms]",
        "Arrival p99 [ms]",
    ]);
    let mut failures = 0u64;

    for &k in &args.common.ks {
        let runner = ServingRunner::new(&data.db, fleet_sim().with_coprocessors(k));
        for &window_us in &args.windows_us {
            let period = VirtualTime::from_micros(window_us);
            let ticks = args.batches as u32;
            // One batch per tumbling tick; horizon leaves the last tick
            // room to drain.
            let horizon =
                VirtualTime::from_nanos(period.as_nanos() * (ticks as u64 + 2));
            let feed = data.feed_schedule(period, period);
            let standing = vec![
                data.standing_query(SsbQuery::Q1_1, WindowKind::Tumbling, period, ticks)
                    .expect("Q1.1 plans"),
                data.standing_query(
                    SsbQuery::Q3_3,
                    WindowKind::Sliding {
                        length: VirtualTime::from_nanos(2 * period.as_nanos()),
                    },
                    period,
                    ticks,
                )
                .expect("Q3.3 plans"),
            ];
            for strategy in FLEET_STRATEGIES {
                let trace_this = args.common.trace.is_some()
                    && k == max_k
                    && window_us == min_window
                    && strategy == Strategy::DataDrivenChopping;
                let mut cfg = ServeConfig::new(
                    ArrivalProcess::Poisson { rate_qps: args.rate },
                    horizon,
                )
                .with_seed(args.seed)
                .with_admission_limit(args.common.users)
                .with_queue_cap(args.queue_cap);
                if trace_this {
                    cfg = cfg.with_trace();
                }
                let report = runner
                    .run_streaming(&mix, feed.clone(), standing.clone(), strategy, &cfg)
                    .expect("sweep run");
                let offered = report.offered_arrivals + report.offered_ticks;
                if offered != report.completed() + report.metrics.shed as usize {
                    eprintln!(
                        "streaming: FAIL: K={k} window={window_us}us {}: offered \
                         {offered} != completed {} + shed {}",
                        report.strategy,
                        report.completed(),
                        report.metrics.shed,
                    );
                    failures += 1;
                }
                if report.window_outcomes.is_empty() {
                    eprintln!(
                        "streaming: FAIL: K={k} window={window_us}us {}: no window \
                         tick completed",
                        report.strategy,
                    );
                    failures += 1;
                }
                push_row(&mut table, k, window_us, &report);
                if trace_this {
                    let path = args.common.trace.as_deref().expect("trace path");
                    let trace = report.trace.as_ref().expect("traced run records events");
                    let registry = MetricsRegistry::from_events(&trace.events);
                    if registry.counter("appends") == 0
                        || registry.counter("window_fires") == 0
                    {
                        eprintln!(
                            "streaming: FAIL: traced run recorded no appends or \
                             window fires"
                        );
                        failures += 1;
                    }
                    failures += export_trace("streaming", path, trace);
                }
            }
        }
    }

    finish_sweep("streaming", &args.common.out, &[table], failures);
}
