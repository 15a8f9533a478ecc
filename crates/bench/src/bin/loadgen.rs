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

use robustq::prelude::*;
use robustq_bench::args::{check_arrivals, or_exit, ArgStream, CommonArgs};
use robustq_bench::machine::{fleet_sim, FLEET_STRATEGIES};
use robustq_bench::sweep::{Column, Driver, Sweep};
use robustq_bench::table::ms;
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

fn parse_args(it: ArgStream) -> Result<Args, EngineError> {
    let mut rates: Vec<f64> = vec![25_000.0, 100_000.0, 400_000.0];
    let defaults = CommonArgs { ks: vec![1, 2], ..CommonArgs::new("BENCH_serving.json") };
    let common = defaults.parse(it, |flag, it| {
        if flag != "--rates" {
            return Ok(false);
        }
        rates = it.parsed_list("--rates")?;
        if rates.iter().any(|&r| r <= 0.0) {
            return Err(EngineError::config("--rates needs a comma list of rates > 0"));
        }
        // NaN passes the test above; it and inf would never let the
        // arrival generator reach the horizon.
        if rates.iter().any(|r| !r.is_finite()) {
            return Err(EngineError::config("--rates needs finite rates"));
        }
        let horizon_ns = VirtualTime::from_millis(HORIZON_MS).as_nanos();
        rates.iter().try_for_each(|&r| check_arrivals("--rates", r, horizon_ns))?;
        Ok(true)
    })?;
    Ok(Args { common, rates })
}

const COLUMNS: [Column<f64, Strategy, ServingReport>; 11] = [
    ("K", |p, _| p.k.to_string()),
    ("Strategy", |_, r| r.strategy.to_string()),
    ("Rate [qps]", |p, _| format!("{:.0}", p.value)),
    ("Offered", |_, r| r.offered.to_string()),
    ("Completed", |_, r| r.completed().to_string()),
    ("Shed", |_, r| r.metrics.shed.to_string()),
    ("p50 [ms]", |_, r| ms(r.p50())),
    ("p95 [ms]", |_, r| ms(r.p95())),
    ("p99 [ms]", |_, r| ms(r.p99())),
    ("p999 [ms]", |_, r| ms(r.p999())),
    ("Goodput [qps]", |_, r| format!("{:.1}", r.qps())),
];

fn main() {
    let args = or_exit("loadgen", parse_args(ArgStream::from_env()));
    let max_rate = args.rates.iter().cloned().fold(0.0f64, f64::max);

    let db: Database =
        SsbGenerator::new(1).with_rows_per_sf(args.common.rows).generate();
    let mix = QueryMix::zipf(ssb::workload(&db).expect("SSB plans"), THETA);

    let mut driver = Driver::new("loadgen", &args.common);
    let sweep = Sweep {
        id: "serving-ssb".to_string(),
        title: "Open-loop SSB serving: latency percentiles vs Poisson arrival rate".to_string(),
        columns: &COLUMNS,
        values: &args.rates,
        contenders: &FLEET_STRATEGIES,
        traced: Some((max_rate, Strategy::DataDrivenChopping)),
        same_results: None,
    };
    driver.sweep(sweep, |p, trace| {
        let mut cfg = ServeConfig::new(
            ArrivalProcess::Poisson { rate_qps: p.value },
            VirtualTime::from_millis(HORIZON_MS),
        )
        .with_sessions(SESSIONS)
        .with_seed(SEED)
        .with_admission_limit(args.common.users)
        .with_queue_cap(QUEUE_CAP);
        cfg.trace = trace;
        let runner = ServingRunner::new(&db, fleet_sim().with_coprocessors(p.k));
        runner.run(&mix, p.contender, &cfg).expect("sweep run")
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
    fn rates_that_never_reach_the_horizon_are_config_errors() {
        for bad in ["NaN", "inf", "100,-inf", "1e3,NaN"] {
            let err = parse(&["--rates", bad]).err().expect(bad);
            assert!(matches!(err, EngineError::Config(_)), "{bad}: {err}");
        }
        assert_eq!(parse(&["--rates", "1e3,2.5e4"]).unwrap().rates, [1e3, 2.5e4]);
    }

    #[test]
    fn rates_whose_arrivals_would_exhaust_memory_are_config_errors() {
        // 1e12 qps over the 50 ms horizon is 5e10 arrivals.
        for bad in ["1e12", "200,2.1e8"] {
            let err = parse(&["--rates", bad]).err().expect(bad);
            assert!(matches!(err, EngineError::Config(_)), "{bad}: {err}");
            assert!(err.to_string().contains("arrivals"), "{bad}: {err}");
        }
        // 2e8 qps is exactly the ceiling.
        assert_eq!(parse(&["--rates", "2e8"]).unwrap().rates, [2e8]);
    }
}
