//! Chunked staging invariants (DESIGN.md §6), and the executor-owned
//! learning loop of the one cost model (DESIGN.md §7).
//!
//! The small-heap regime these tests run in is the `multigpu --staging`
//! sweep's: a co-processor heap of 128 KiB (memory minus cache), small
//! enough that the SSB fact-table joins' working footprints exceed it.
//! Under that pressure the tests pin:
//!
//!  1. **Virtual-time determinism** — the model's sample stream (and
//!     therefore everything learned from it) and the query results are
//!     byte-identical across real-CPU worker counts;
//!  2. **Staging completes oversized operators on-device** — with
//!     chunked staging on, operators whose footprint exceeds the heap
//!     execute in chunks instead of aborting to the CPU, without
//!     changing any query result;
//!  3. **Staging conserves resources under faults** — seeded fault
//!     plans interrupting partial chunk sequences still drain every
//!     heap byte, keep the executor's transfer accounting in agreement
//!     with the interconnect's, and never change answers;
//!  4. **The executor drives the model** — a strategy only exposes its
//!     `LearnedModel`: model-free strategies report no samples, every
//!     model-backed one reports exactly one per completed operator, and
//!     a reused policy keeps what it learned from run to run.

use proptest::prelude::*;
use robustq::core::Strategy;
use robustq::engine::parallel::ParallelCtx;
use robustq::prelude::*;
use robustq::sim::FaultSpec;
use robustq::trace::{OpOutcome, TraceEvent};
use robustq::storage::gen::ssb::SsbGenerator;
use robustq::workloads::ssb;

fn db() -> Database {
    // The sweep's row count: at 1 000 rows the fact-table joins fit the
    // 128 KiB heap and nothing stages.
    SsbGenerator::new(1).with_rows_per_sf(8_000).generate()
}

/// The DESIGN.md §6 staging regime: heap = memory − cache = 128 KiB.
fn small_heap_sim() -> SimConfig {
    SimConfig::default().with_gpu_memory(384 * 1024).with_gpu_cache(256 * 1024)
}

fn staged_chopping_run(db: &Database, users: usize, passes: usize, workers: usize) -> RunReport {
    let flight = ssb::workload(db).expect("SSB plans");
    let queries: Vec<_> =
        std::iter::repeat_with(|| flight.clone()).take(passes).flatten().collect();
    let runner = WorkloadRunner::new(db, small_heap_sim());
    let cfg = RunnerConfig::default()
        .cold_cache()
        .with_users(users)
        .with_parallel(ParallelCtx::serial().with_workers(workers))
        .with_chunked_staging();
    runner.run(&queries, Strategy::Chopping, &cfg).expect("staged run")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Invariant 1: the sample stream and the results are identical at
    /// 1 and 4 workers.
    #[test]
    fn model_samples_and_results_are_worker_invariant(
        users in 1usize..=4,
        passes in 1usize..=4,
    ) {
        let db = db();
        let narrow = staged_chopping_run(&db, users, passes, 1);
        prop_assert!(!narrow.model_samples.is_empty(), "the run records samples");
        let wide = staged_chopping_run(&db, users, passes, 4);
        prop_assert_eq!(&narrow.model_samples, &wide.model_samples);
        prop_assert_eq!(narrow.result_fingerprints(), wide.result_fingerprints());
    }
}

/// Invariant 2: on the small heap, GPU-preferred placement without
/// staging aborts over-heap operators to the CPU; with staging they
/// complete on-device in chunks — more device residency, same answers.
#[test]
fn staging_completes_oversized_operators_on_device() {
    let db = db();
    let queries = ssb::workload(&db).expect("SSB plans");
    let runner = WorkloadRunner::new(&db, small_heap_sim());

    let base_cfg = RunnerConfig::default().with_users(4);
    let unstaged =
        runner.run(&queries, Strategy::GpuPreferred, &base_cfg).expect("unstaged");
    assert_eq!(unstaged.staging, StagingStats::default(), "staging off by default");
    assert!(
        unstaged.metrics.aborts > 0,
        "regime sanity: the small heap must force over-heap aborts"
    );

    let staged_cfg = RunnerConfig::default().with_users(4).with_chunked_staging();
    let staged =
        runner.run(&queries, Strategy::GpuPreferred, &staged_cfg).expect("staged");
    assert!(staged.staging.staged_ops > 0, "over-heap operators staged");
    assert!(
        staged.staging.staged_chunks >= 2 * staged.staging.staged_ops,
        "staged operators split into multiple chunks ({} chunks / {} ops)",
        staged.staging.staged_chunks,
        staged.staging.staged_ops
    );
    assert_eq!(
        staged.staging.oversize_fallbacks, 0,
        "every over-heap operator fit chunk-wise"
    );
    assert!(
        staged.metrics.aborts < unstaged.metrics.aborts,
        "staging must absorb aborts: {} staged vs {} unstaged",
        staged.metrics.aborts,
        unstaged.metrics.aborts
    );
    assert_eq!(
        staged.result_fingerprints(),
        unstaged.result_fingerprints(),
        "staging moved work, never changed answers"
    );
}

/// Invariant 3: chunk sequences interrupted mid-flight by fault
/// injection still conserve heap and link accounting and reproduce the
/// fault-free results.
#[test]
fn staging_conserves_resources_under_faults() {
    let db = db();
    let queries = ssb::workload(&db).expect("SSB plans");
    let runner = WorkloadRunner::new(&db, small_heap_sim());
    let cfg = RunnerConfig::default().with_users(4).with_chunked_staging();
    let baseline =
        runner.run(&queries, Strategy::GpuPreferred, &cfg).expect("fault-free");
    assert!(baseline.staging.staged_ops > 0, "regime sanity: staging active");
    let want = baseline.result_fingerprints();

    for seed in 0..40u64 {
        // Transfer and allocation faults land inside chunk sequences
        // (each chunk is an alloc + H2D + kernel + D2H); kernel aborts
        // interrupt the staged execution itself.
        let mut spec = FaultSpec::default();
        match seed % 3 {
            0 => spec.alloc_fail_prob = 0.2,
            1 => {
                spec.transfer_transient_prob = 0.15;
                spec.transfer_spike_prob = 0.10;
                spec.transfer_spike_factor = 4.0;
            }
            _ => {
                spec.kernel_abort_prob = 0.15;
                spec.alloc_fail_prob = 0.05;
                spec.transfer_transient_prob = 0.05;
            }
        }
        let cfg = RunnerConfig::default()
            .with_users(4)
            .with_chunked_staging()
            .with_fault_plan(FaultPlan::new(seed, spec));
        let report = runner
            .run(&queries, Strategy::GpuPreferred, &cfg)
            .expect("faulted staged run");
        let m = &report.metrics;
        assert_eq!(
            report.result_fingerprints(),
            want,
            "seed {seed}: faults changed staged results"
        );
        assert_eq!(m.gpu_heap_leaked, 0, "seed {seed}: heap bytes leaked");
        assert_eq!(m.h2d_bytes, m.link_h2d.bytes, "seed {seed}: H2D bytes split");
        assert_eq!(m.d2h_bytes, m.link_d2h.bytes, "seed {seed}: D2H bytes split");
        assert_eq!(m.h2d_time, m.link_h2d.busy_time, "seed {seed}: H2D time split");
        assert_eq!(m.d2h_time, m.link_d2h.busy_time, "seed {seed}: D2H time split");
    }
}

/// Invariant 4a: the sample stream is the executor's, one sample per
/// completed operator, for exactly the strategies that carry a model.
#[test]
fn one_sample_per_completed_operator_of_model_backed_strategies() {
    let db = db();
    let queries = ssb::workload(&db).expect("SSB plans");
    let runner = WorkloadRunner::new(&db, small_heap_sim());
    let cfg = RunnerConfig::default().with_users(2).with_trace();
    for strategy in Strategy::ALL {
        let report = runner.run(&queries, strategy, &cfg).expect("traced run");
        let model_free = matches!(
            strategy,
            Strategy::CpuOnly | Strategy::GpuPreferred | Strategy::DataDriven
        );
        assert_eq!(
            strategy.build().learned_model().is_none(),
            model_free,
            "{}: which strategies carry a model",
            strategy.name()
        );
        if model_free {
            assert!(report.model_samples.is_empty(), "{}: no model", strategy.name());
            continue;
        }
        let trace = report.trace.as_ref().expect("traced");
        assert_eq!(trace.dropped, 0, "the ring kept every event");
        let completed = trace
            .events
            .iter()
            .filter(|e| matches!(e, TraceEvent::OpSpan { outcome: OpOutcome::Completed, .. }))
            .count();
        assert!(completed > 0);
        assert_eq!(
            report.model_samples.len(),
            completed,
            "{}: one sample per completed operator",
            strategy.name()
        );
    }
}

/// Invariant 4b: a policy carries its model from run to run.
#[test]
fn reused_policy_keeps_what_it_learned() {
    let db = db();
    let queries = ssb::workload(&db).expect("SSB plans");
    let runner = WorkloadRunner::new(&db, small_heap_sim());
    let seen = |policy: &mut dyn PlacementPolicy| {
        policy.learned_model().expect("chopping carries a model").total_observations()
    };
    let run = |policy: &mut dyn PlacementPolicy, cfg: &RunnerConfig| {
        runner.run_with_policy(&queries, policy, "Chopping", cfg).expect("run").model_samples
    };

    // The same run twice: the second starts from what the first learned.
    let cold = RunnerConfig::default().cold_cache().with_users(2);
    let mut policy = Strategy::Chopping.build();
    let first = run(policy.as_mut(), &cold);
    assert_eq!(seen(policy.as_mut()), first.len() as u64);
    let second = run(policy.as_mut(), &cold);
    assert_eq!(seen(policy.as_mut()), (first.len() + second.len()) as u64);
    assert_ne!(first, second, "a trained model predicts differently");

    // Warm-up is the same mechanism: the measured run inherits the
    // warm-up pass's observations.
    let warmed = RunnerConfig::default().with_users(2);
    let mut fresh = Strategy::Chopping.build();
    let measured = run(fresh.as_mut(), &warmed);
    assert!(seen(fresh.as_mut()) > measured.len() as u64, "warm-up samples are kept");
}
