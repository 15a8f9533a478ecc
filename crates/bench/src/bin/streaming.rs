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
//! `streaming-*` claims of `robustq_bench::claims`.
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
//! (microseconds of virtual time).
//!
//! `--trace PATH` traces the tightest-window max-K Data-Driven Chopping
//! run and writes its Chrome export to PATH (the feed lane's `Append` /
//! `WindowFire` instants ride along; CI feeds it to `trace-lint`).

use robustq::prelude::*;
use robustq_bench::args::{or_exit, ArgStream, CommonArgs};
use robustq_bench::machine::{fleet_sim, FLEET_STRATEGIES};
use robustq_bench::table::{ms, FigTable};
use robustq_bench::{export_trace, finish_sweep};
use robustq_trace::MetricsRegistry;
use robustq_workloads::{ssb, SsbQuery, SsbStreamGen};

/// The sweep's fixed shape: background Poisson arrival rate, feed
/// append batches (one tumbling tick ingests exactly one), rows per
/// sealed segment, seed, admission-queue cap, and the mix's Zipf skew.
const RATE_QPS: f64 = 50_000.0;
const BATCHES: usize = 8;
const SEAL_ROWS: usize = 512;
const SEED: u64 = 42;
const QUEUE_CAP: usize = 32;
const THETA: f64 = 0.8;

struct Args {
    common: CommonArgs,
    windows_us: Vec<u64>,
}

fn parse_args() -> Result<Args, EngineError> {
    let mut args = Args {
        common: CommonArgs::new("BENCH_streaming.json"),
        windows_us: vec![500, 1_000, 2_000],
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
    let args = or_exit("streaming", parse_args());
    let max_k = *args.common.ks.iter().max().expect("ks non-empty");
    let min_window = *args.windows_us.iter().min().expect("windows non-empty");

    let data = SsbStreamGen::new(1)
        .with_rows_per_sf(args.common.rows)
        .with_batches(BATCHES)
        .with_seal_rows(SEAL_ROWS)
        .build()
        .expect("SSB-stream build");
    let mix = QueryMix::zipf(ssb::workload(&data.db).expect("SSB plans"), THETA);

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
            let ticks = BATCHES as u32;
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
                    ArrivalProcess::Poisson { rate_qps: RATE_QPS },
                    horizon,
                )
                .with_seed(SEED)
                .with_admission_limit(args.common.users)
                .with_queue_cap(QUEUE_CAP);
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
