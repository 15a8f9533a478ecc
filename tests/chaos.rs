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
use robustq::engine::{Arrival, ExecOptions, Executor, RunOutcome};
use robustq::sim::{CacheSet, FaultPlan, FaultSpec, SimConfig, VirtualTime};
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

/// A finished query leaves the executor, tasks and all, while later ones
/// run (DESIGN.md §6). Kernel aborts restart a task under a new epoch and
/// stall windows defer its start, so a `ComputeStart` can name an attempt
/// that is gone: the executor ignores it, whether its task restarted or
/// its query retired. Under both faults an open-loop run with queries
/// retiring throughout completes, answers as the fault-free run does,
/// attributes every injection and fallback to a query, drains its heaps
/// and balances its link accounting; the debug-build audit checks heap
/// and cache conservation after every event.
#[test]
fn retiring_finished_queries_survives_stalls_and_kernel_aborts() {
    let db = db();
    let queries = ssb::workload(&db).expect("SSB plans");
    let sim = tight_sim();
    let executor = Executor::new(&db, sim.clone());
    let run = |fault: FaultPlan| -> RunOutcome {
        let arrivals = (0..20 * queries.len())
            .map(|i| Arrival {
                at: VirtualTime::from_micros(5 * i as u64),
                session: i as u32,
                seq: 0,
                plan: queries[i % queries.len()].clone(),
            })
            .collect::<Vec<_>>();
        let opts = ExecOptions { max_concurrent_queries: 4, fault, ..ExecOptions::default() };
        let mut policy = Strategy::GpuPreferred.build();
        let mut caches = CacheSet::for_topology(&sim.topology, sim.cache_policy);
        executor.run_with_cache(arrivals, policy.as_mut(), &opts, &mut caches).expect("completes")
    };
    let clean = run(FaultPlan::disabled());
    let spec = FaultSpec {
        kernel_abort_prob: 0.3,
        random_stalls: 16,
        stall_horizon: clean.metrics.makespan,
        stall_len: (VirtualTime::from_micros(20), VirtualTime::from_micros(200)),
        ..FaultSpec::default()
    };
    let faulty = run(FaultPlan::new(7, spec));
    let stats = faulty.metrics.fault_stats;
    assert!(stats.kernel_aborts > 0 && stats.stall_time > VirtualTime::ZERO, "{stats:?}");

    let answers = |out: &RunOutcome| {
        let mut a: Vec<_> = out.outcomes.iter().map(|o| (o.session, o.rows, o.checksum)).collect();
        a.sort_unstable();
        a
    };
    assert_eq!(answers(&faulty), answers(&clean), "faults changed an answer");
    let per_query = faulty
        .outcomes
        .iter()
        .fold((0, 0), |(i, f), o| (i + o.faults.injected, f + o.faults.fallbacks));
    let run_faults = faulty.metrics.faults;
    assert_eq!(per_query, (run_faults.injected, run_faults.fallbacks));
    assert_eq!(conservation(&faulty.metrics), Vec::<String>::new());
}
