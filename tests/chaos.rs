//! Chaos/differential tests for the fault-injection subsystem
//! (DESIGN.md §12): hundreds of seeded fault plans are thrown at full
//! workload runs, and after every run the harness
//! (`robustq::workloads::chaos::{violations, conservation}`) asserts that
//!
//!  1. query results are bit-identical to the fault-free run — faults
//!     change timing and placement, never answers;
//!  2. resource accounting balances: no co-processor heap bytes leak
//!     past the drain, and the executor's transfer metrics agree with
//!     the interconnect's own statistics;
//!  3. the fault metrics are internally consistent: the executor's
//!     injection count matches the plan's, retries never exceed the
//!     transient faults that caused them, aborts cover fallbacks, and
//!     wasted time stays within total device time.
//!
//! The per-event invariants (heap/cache byte conservation, link FIFO
//! sanity) are additionally asserted after *every* simulator event by
//! the executor's debug-build audit hook, which these tests exercise
//! across every seed.

use robustq::core::Strategy;
use robustq::sim::{FaultPlan, FaultSpec, SimConfig, VirtualTime};
use robustq::storage::gen::ssb::SsbGenerator;
use robustq::storage::Database;
use robustq::workloads::chaos::{conservation, fault_shape, violations, FAULT_SHAPES};
use robustq::workloads::{micro, ssb, RunnerConfig, WorkloadRunner};

/// Seeds per workload; two workloads give ≥ 200 fault plans total.
const SEEDS_PER_WORKLOAD: u64 = 100;

fn db() -> Database {
    SsbGenerator::new(1).with_rows_per_sf(1_000).generate()
}

/// A tight machine: small heap and cache so organic aborts mix with
/// injected ones.
fn tight_sim() -> SimConfig {
    SimConfig::default().with_gpu_memory(512 * 1024).with_gpu_cache(256 * 1024)
}

/// Sweep `SEEDS_PER_WORKLOAD` fault plans over one workload and return
/// the total number of injections observed (for vacuity checks).
fn chaos_sweep(
    db: &Database,
    queries: &[robustq::engine::plan::PlanNode],
    users: usize,
    base_seed: u64,
    label: &str,
) -> u64 {
    let runner = WorkloadRunner::new(db, tight_sim());
    let cfg = RunnerConfig::default().with_users(users);
    let baseline =
        runner.run(queries, Strategy::GpuPreferred, &cfg).expect("fault-free baseline");
    let map = baseline.result_fingerprints();
    let horizon = baseline.metrics.makespan.max(VirtualTime::from_micros(1));

    let mut injected_total = 0;
    for i in 0..SEEDS_PER_WORKLOAD {
        let seed = base_seed + i;
        let (shape, spec) = fault_shape(seed, horizon);
        let shape = FAULT_SHAPES[shape];
        let cfg = RunnerConfig::default()
            .with_users(users)
            .with_fault_plan(FaultPlan::new(seed, spec));
        let report = runner
            .run(queries, Strategy::GpuPreferred, &cfg)
            .unwrap_or_else(|e| panic!("{label}: seed {seed} ({shape}) failed: {e}"));
        let mut bad = violations(&report, &map);
        bad.extend(conservation(&report.metrics));
        assert!(bad.is_empty(), "{label} seed {seed} ({shape}): {bad:#?}");
        injected_total += report.metrics.faults.injected;
    }
    injected_total
}

#[test]
fn chaos_ssb_workload() {
    let db = db();
    let queries = ssb::workload(&db).expect("SSB plans");
    let injected = chaos_sweep(&db, &queries, 2, 0, "ssb");
    assert!(injected > 0, "the SSB sweep never injected a fault — vacuous chaos test");
}

#[test]
fn chaos_micro_workload() {
    let db = db();
    let queries = micro::parallel_selection_workload(12);
    let injected = chaos_sweep(&db, &queries, 4, 10_000, "micro");
    assert!(injected > 0, "the micro sweep never injected a fault — vacuous chaos test");
}

/// The sweep must exercise the recovery paths, not just clean runs:
/// across a few seeds of the mixed/transfer shapes there are retries
/// and injected fallbacks.
#[test]
fn chaos_recovery_paths_are_exercised() {
    let db = db();
    let queries = ssb::workload(&db).expect("SSB plans");
    let runner = WorkloadRunner::new(&db, tight_sim());
    let mut retries = 0;
    let mut fallbacks = 0;
    let mut wasted = VirtualTime::ZERO;
    for seed in [1u64, 6, 11, 2, 7, 12, 4, 9, 14] {
        let plan = FaultPlan::new(seed, fault_shape(seed, VirtualTime::from_millis(10)).1);
        let cfg = RunnerConfig::default().with_users(2).with_fault_plan(plan);
        let report = runner.run(&queries, Strategy::GpuPreferred, &cfg).expect("runs");
        retries += report.metrics.faults.retries;
        fallbacks += report.metrics.faults.fallbacks;
        wasted += report.metrics.faults.injected_wasted;
    }
    assert!(retries > 0, "no transient fault was ever retried");
    assert!(fallbacks > 0, "no operator ever fell back to the CPU");
    assert!(wasted > VirtualTime::ZERO, "injections never cost any virtual time");
}

/// With the fault layer disabled the run is *byte-identical* to one
/// without any fault plumbing: identical metrics (including the debug
/// representation) and identical outcomes. This is the zero-cost-when-
/// disabled guarantee — the fault layer must not perturb the golden
/// figures.
#[test]
fn empty_fault_plan_is_byte_identical() {
    let db = db();
    let queries = ssb::workload(&db).expect("SSB plans");
    let runner = WorkloadRunner::new(&db, tight_sim());
    let plain = RunnerConfig::default().with_users(2);
    let with_disabled_plan =
        RunnerConfig::default().with_users(2).with_fault_plan(FaultPlan::disabled());
    // A plan with a default (all-zero) spec must also behave as a no-op.
    let with_null_plan = RunnerConfig::default()
        .with_users(2)
        .with_fault_plan(FaultPlan::new(42, FaultSpec::default()));

    let a = runner.run(&queries, Strategy::GpuPreferred, &plain).expect("plain");
    for cfg in [&with_disabled_plan, &with_null_plan] {
        let b = runner.run(&queries, Strategy::GpuPreferred, cfg).expect("faultless plan");
        assert_eq!(
            format!("{:?}", a.metrics),
            format!("{:?}", b.metrics),
            "a no-op fault plan changed the run metrics"
        );
        assert_eq!(
            format!("{:?}", a.outcomes),
            format!("{:?}", b.outcomes),
            "a no-op fault plan changed the outcomes"
        );
    }
}
