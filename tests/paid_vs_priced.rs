//! The one price against what an operator paid (DESIGN.md "One learned
//! cost model"): on the Figure 9 machine at 20 users, Run-Time
//! Placement's chosen device must cost about what it was priced at.
//!
//! *Paid ÷ priced* of one operator is the time from entering its
//! device's ready queue to completing there, over the price of that
//! device in its `Placement` event. A device shares itself among the
//! operators it runs at rate `1/n`, so a price that ignores work in
//! flight sends every selection to a CPU already running a score of
//! them, and the median ratio reads about 21. Charging the running
//! operators brings it to about 0.9.

use robustq::core::Strategy;
use robustq::sim::{DeviceId, SimConfig};
use robustq::storage::gen::ssb::SsbGenerator;
use robustq::trace::{OpOutcome, PlacePhase, TraceEvent};
use robustq::workloads::{micro, RunnerConfig, WorkloadRunner};
use std::collections::HashMap;

#[test]
fn run_time_placement_pays_about_its_price_at_20_users() {
    // The Quick Figure 9 point: SSB SF 10 at 4 000 rows per SF, 40
    // copies of the parallel selection query, a heap of seven selection
    // footprints beside a cache of twice the two filter columns.
    let db = SsbGenerator::new(10).with_rows_per_sf(4_000).generate();
    let column_bytes: u64 = ["lo_discount", "lo_quantity"]
        .iter()
        .map(|c| db.column_size(db.column_id("lineorder", c).expect("SSB column")))
        .sum();
    let cache = 2 * column_bytes;
    let heap = 7 * (3.45 * column_bytes as f64) as u64;
    let sim = SimConfig::default().with_gpu_memory(cache + heap).with_gpu_cache(cache);
    let queries = micro::parallel_selection_workload(40);
    let cfg = RunnerConfig::default()
        .with_users(20)
        .with_placement_period(queries.len())
        .with_preload()
        .with_trace();
    let report = WorkloadRunner::new(&db, sim)
        .run(&queries, Strategy::RuntimePlacement, &cfg)
        .expect("Figure 9 run");
    let trace = report.trace.expect("traced run");
    assert_eq!(trace.dropped, 0);

    let mut priced: HashMap<u32, (DeviceId, u64)> = HashMap::new();
    let mut ratios = Vec::new();
    for e in &trace.events {
        match *e {
            TraceEvent::Placement { task, phase: PlacePhase::Ready, est, chosen, .. } => {
                priced.insert(task, (chosen, est.get(chosen).as_nanos()));
            }
            TraceEvent::OpSpan {
                task, device, queued_at, end, outcome: OpOutcome::Completed, ..
            } => {
                if let Some(&(chosen, price)) = priced.get(&task) {
                    if chosen == device && price > 0 {
                        let paid = (end - queued_at).as_nanos();
                        ratios.push(paid as f64 / price as f64);
                    }
                }
            }
            _ => {}
        }
    }
    assert!(ratios.len() >= 100, "only {} priced operators completed", ratios.len());
    ratios.sort_by(f64::total_cmp);
    let median = ratios[ratios.len() / 2];
    assert!(
        median <= 4.0,
        "median paid ÷ priced is {median:.2} over {} operators: the price misses work in flight",
        ratios.len()
    );
}
