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
use robustq_bench::args::{check_arrivals, or_exit, ArgStream, CommonArgs};
use robustq_bench::machine::{fleet_sim, FLEET_STRATEGIES};
use robustq_bench::sweep::{Column, Driver, Sweep};
use robustq_bench::table::ms;
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

fn parse_args(it: ArgStream) -> Result<Args, EngineError> {
    let mut windows_us = vec![500, 1_000, 2_000];
    let common = CommonArgs::new("BENCH_streaming.json").parse(it, |flag, it| {
        if flag != "--windows-us" {
            return Ok(false);
        }
        windows_us = it.parsed_list("--windows-us")?;
        if windows_us.contains(&0) {
            return Err(EngineError::config("--windows-us needs a comma list of periods ≥ 1"));
        }
        for &us in &windows_us {
            let ns = horizon_ns(us).ok_or_else(|| {
                EngineError::config("--windows-us: a period's horizon overflows u64 nanoseconds")
            })?;
            check_arrivals("--windows-us", RATE_QPS, ns)?;
        }
        Ok(true)
    })?;
    Ok(Args { common, windows_us })
}

/// The run's horizon for a `window_us` period, in nanoseconds: one batch
/// per tumbling tick, and room for the last tick to drain. `None` where
/// it overflows u64.
fn horizon_ns(window_us: u64) -> Option<u64> {
    window_us.checked_mul(1_000)?.checked_mul(BATCHES as u64 + 2)
}

const COLUMNS: [Column<u64, Strategy, StreamingReport>; 10] = [
    ("K", |p, _| p.k.to_string()),
    ("Strategy", |_, r| r.strategy.to_string()),
    ("Window [ms]", |p, _| format!("{:.3}", p.value as f64 / 1e3)),
    ("Ticks", |_, r| r.offered_ticks.to_string()),
    ("Ticks done", |_, r| r.window_outcomes.len().to_string()),
    ("Arrivals", |_, r| r.offered_arrivals.to_string()),
    ("Shed", |_, r| r.metrics.shed.to_string()),
    ("Tick p50 [ms]", |_, r| ms(r.tick_percentile(50.0))),
    ("Tick p99 [ms]", |_, r| ms(r.tick_p99())),
    ("Arrival p99 [ms]", |_, r| ms(r.arrival_percentile(99.0))),
];

fn main() {
    let args = or_exit("streaming", parse_args(ArgStream::from_env()));
    let min_window = *args.windows_us.iter().min().expect("windows non-empty");

    let data = SsbStreamGen::new(1)
        .with_rows_per_sf(args.common.rows)
        .with_batches(BATCHES)
        .with_seal_rows(SEAL_ROWS)
        .build()
        .expect("SSB-stream build");
    let mix = QueryMix::zipf(ssb::workload(&data.db).expect("SSB plans"), THETA);

    let mut driver = Driver::new("streaming", &args.common);
    let sweep = Sweep {
        id: "streaming-ssb".to_string(),
        title: "SSB-stream standing queries: window-tick latency vs window period".to_string(),
        columns: &COLUMNS,
        values: &args.windows_us,
        contenders: &FLEET_STRATEGIES,
        traced: Some((min_window, Strategy::DataDrivenChopping)),
        same_results: None,
    };
    driver.sweep(sweep, |p, trace| {
        let period = VirtualTime::from_micros(p.value);
        let ticks = BATCHES as u32;
        let sliding = WindowKind::Sliding { length: VirtualTime::from_micros(2 * p.value) };
        let standing = vec![
            data.standing_query(SsbQuery::Q1_1, WindowKind::Tumbling, period, ticks)
                .expect("Q1.1 plans"),
            data.standing_query(SsbQuery::Q3_3, sliding, period, ticks).expect("Q3.3 plans"),
        ];
        let horizon = VirtualTime::from_nanos(horizon_ns(p.value).expect("checked when parsed"));
        let mut cfg = ServeConfig::new(ArrivalProcess::Poisson { rate_qps: RATE_QPS }, horizon)
            .with_seed(SEED)
            .with_admission_limit(args.common.users)
            .with_queue_cap(QUEUE_CAP);
        cfg.trace = trace;
        let runner = ServingRunner::new(&data.db, fleet_sim().with_coprocessors(p.k));
        let feed = data.feed_schedule(period, period);
        runner.run_streaming(&mix, feed, standing, p.contender, &cfg).expect("sweep run")
    });
    driver.finish();
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Args, EngineError> {
        parse_args(ArgStream::from_args(args.iter().map(|s| s.to_string())))
    }

    #[test]
    fn periods_whose_horizon_wraps_are_config_errors() {
        // Ten periods of the first are just past u64::MAX nanoseconds;
        // the second wraps on its own.
        for bad in ["1844674407370956", "500,18446744073709552"] {
            let err = parse(&["--windows-us", bad]).err().expect(bad);
            assert!(err.to_string().contains("overflows"), "{bad}: {err}");
        }
        // The longest period that does not wrap asks for far too many
        // arrivals instead.
        let wraps_not = (u64::MAX / 10_000).to_string();
        let err = parse(&["--windows-us", &wraps_not]).err().expect("too many arrivals");
        assert!(err.to_string().contains("arrivals"), "{err}");
    }

    #[test]
    fn periods_whose_arrivals_would_exhaust_memory_are_config_errors() {
        // Ten periods of 1e9 µs at 50 k qps is 5e8 arrivals.
        for bad in ["1000000000", "500,20000001"] {
            let err = parse(&["--windows-us", bad]).err().expect(bad);
            assert!(matches!(err, EngineError::Config(_)), "{bad}: {err}");
            assert!(err.to_string().contains("arrivals"), "{bad}: {err}");
        }
        // A 13.421 772 s period is just under the ceiling of 6 710 886
        // arrivals: 134.217 72 s of 50 k qps; a microsecond more is over.
        assert_eq!(parse(&["--windows-us", "13421772"]).unwrap().windows_us, [13_421_772]);
        assert!(parse(&["--windows-us", "13421773"]).is_err());
    }
}
