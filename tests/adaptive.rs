//! Adaptive cost model + chunked staging invariants (DESIGN.md §6, §7),
//! and the executor-owned learning loop behind them.
//!
//! The small-heap regime these tests run in is the `multigpu --adaptive`
//! sweep's: a co-processor heap of 128 KiB (memory minus cache), small
//! enough that the SSB fact-table joins' working footprints exceed it.
//! Under that pressure the tests pin:
//!
//!  1. **Online refinement pays** — under the adaptive model, the
//!     median est-vs-actual relative error over the *last* quartile of
//!     a run's model samples never exceeds the first quartile's (the
//!     EWMA converges onto the contended span durations), across seeds;
//!  2. **Virtual-time determinism** — the sample stream (and therefore
//!     everything learned from it) is byte-identical across real-CPU
//!     worker counts;
//!  3. **Staging completes oversized operators on-device** — with
//!     chunked staging on, operators whose footprint exceeds the heap
//!     execute in chunks instead of aborting to the CPU, without
//!     changing any query result;
//!  4. **Staging conserves resources under faults** — seeded fault
//!     plans interrupting partial chunk sequences still drain every
//!     heap byte, keep the executor's transfer accounting in agreement
//!     with the interconnect's, and never change answers;
//!  5. **The executor drives the model** — a strategy only exposes its
//!     `LearnedModel`: model-free strategies report no samples, every
//!     model-backed one reports exactly one per completed operator, and
//!     a reused policy keeps what it learned exactly as long as the
//!     run's `CostModelKind` stays the same.

use proptest::prelude::*;
use robustq::core::Strategy;
use robustq::engine::parallel::ParallelCtx;
use robustq::prelude::*;
use robustq::sim::{FaultSpec, OpClass};
use robustq::trace::{OpOutcome, TraceEvent};
use robustq::storage::gen::ssb::SsbGenerator;
use robustq::workloads::ssb;

fn db() -> Database {
    // The sweep's row count: at 1 000 rows the fact-table joins fit the
    // 128 KiB heap and nothing stages.
    SsbGenerator::new(1).with_rows_per_sf(8_000).generate()
}

/// The DESIGN.md §7 regime: heap = memory − cache = 128 KiB.
fn small_heap_sim() -> SimConfig {
    SimConfig::default().with_gpu_memory(384 * 1024).with_gpu_cache(256 * 1024)
}

/// Median est-vs-actual relative error over a sample slice.
fn median_err(samples: &[ModelUpdate]) -> f64 {
    assert!(!samples.is_empty(), "quartile has samples");
    let mut errs: Vec<f64> =
        samples.iter().map(ModelUpdate::relative_error).collect();
    errs.sort_by(|a, b| a.partial_cmp(b).expect("finite errors"));
    errs[errs.len() / 2]
}

fn adaptive_run(db: &Database, seed: u64, workers: usize) -> RunReport {
    // Cycle the SSB flight list so the sample stream is stationary: a
    // single pass front-loads the cheap selections and ends on the
    // 4-way joins, which would conflate workload phase with model
    // convergence. Over repeated passes the quartiles see the same
    // query mix and the quartile comparison isolates learning.
    let flight = ssb::workload(db).expect("SSB plans");
    let queries: Vec<_> =
        std::iter::repeat_with(|| flight.clone()).take(4).flatten().collect();
    let runner = WorkloadRunner::new(db, small_heap_sim());
    // Cold start: with warm-up on, the model enters the measured run
    // already converged and the first quartile has nothing left to
    // improve on.
    let cfg = RunnerConfig::default()
        .cold_cache()
        .with_users(2)
        .with_parallel(ParallelCtx::serial().with_workers(workers))
        .with_cost_model(CostModelKind::Adaptive { seed })
        .with_chunked_staging();
    runner.run(&queries, Strategy::Chopping, &cfg).expect("adaptive run")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Invariants 1 + 2, per adaptive seed: the last quartile's median
    /// error never exceeds the first's, and the sample stream is
    /// identical at 1 and 4 workers.
    #[test]
    fn adaptive_error_shrinks_and_is_worker_invariant(seed in 0u64..1_000) {
        let db = db();
        let report = adaptive_run(&db, seed, 1);
        let samples = &report.model_samples;
        prop_assert!(
            samples.len() >= 8,
            "run records enough samples to quarter ({})",
            samples.len()
        );
        let q = samples.len() / 4;
        let first = median_err(&samples[..q]);
        let last = median_err(&samples[samples.len() - q..]);
        prop_assert!(
            last <= first + 1e-12,
            "median error grew over the run: first quartile {first:.4}, \
             last quartile {last:.4} (seed {seed})"
        );

        let wide = adaptive_run(&db, seed, 4);
        prop_assert_eq!(
            wide.model_samples.len(),
            samples.len(),
            "worker count changed the sample count"
        );
        for (a, b) in samples.iter().zip(&wide.model_samples) {
            prop_assert!(
                a.class == b.class
                    && a.device == b.device
                    && a.predicted == b.predicted
                    && a.actual == b.actual
                    && a.refined == b.refined,
                "sample diverged across worker counts: {a:?} vs {b:?}"
            );
        }
        prop_assert_eq!(report.result_fingerprints(), wide.result_fingerprints());
    }
}

/// Invariant 3: on the small heap, GPU-preferred placement without
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

/// Invariant 4: chunk sequences interrupted mid-flight by fault
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

/// The sweep's headline comparison, pinned as a test: on the same
/// contended run, the adaptive model's median est-vs-actual error
/// undercuts the static model's (which only ever learns uncontended
/// kernel durations and so systematically underestimates spans).
#[test]
fn adaptive_median_error_beats_static() {
    let db = db();
    let queries = ssb::workload(&db).expect("SSB plans");
    let runner = WorkloadRunner::new(&db, small_heap_sim());

    let run = |kind: CostModelKind| {
        let cfg = RunnerConfig::default().with_users(4).with_cost_model(kind);
        runner.run(&queries, Strategy::Chopping, &cfg).expect("model run")
    };
    let st = run(CostModelKind::Static);
    let ad = run(CostModelKind::Adaptive { seed: 42 });
    assert!(!st.model_samples.is_empty() && !ad.model_samples.is_empty());
    // Static samples never refine; adaptive ones do (zero-work
    // operators aside).
    assert!(st.model_samples.iter().all(|u| !u.refined));
    assert!(ad.model_samples.iter().any(|u| u.refined));
    // Both streams audit real span durations for real operator classes.
    assert!(st
        .model_samples
        .iter()
        .any(|u| u.class == OpClass::HashJoin && u.actual > VirtualTime::ZERO));
    let se = median_err(&st.model_samples);
    let ae = median_err(&ad.model_samples);
    assert!(
        ae < se,
        "adaptive must beat static on median error: adaptive {ae:.4} vs static {se:.4}"
    );
}

/// Invariant 5a: the sample stream is the executor's, one sample per
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

/// Invariant 5b: a policy carries its model from run to run, and the
/// executor rebuilds it only when the requested kind changes.
#[test]
fn reused_policy_keeps_observations_while_the_kind_is_unchanged() {
    let db = db();
    let queries = ssb::workload(&db).expect("SSB plans");
    let runner = WorkloadRunner::new(&db, small_heap_sim());
    let cfg = |kind: CostModelKind| {
        RunnerConfig::default().cold_cache().with_users(2).with_cost_model(kind)
    };
    let seen = |policy: &mut dyn PlacementPolicy| {
        policy.learned_model().expect("chopping carries a model").total_observations()
    };
    let mut policy = Strategy::Chopping.build();
    let run = |policy: &mut dyn PlacementPolicy, cfg: &RunnerConfig| {
        runner.run_with_policy(&queries, policy, "Chopping", cfg).expect("run").model_samples
    };

    // Same kind twice: the second run starts from what the first learned.
    let first = run(policy.as_mut(), &cfg(CostModelKind::Static));
    assert_eq!(seen(policy.as_mut()), first.len() as u64);
    let second = run(policy.as_mut(), &cfg(CostModelKind::Static));
    assert_eq!(seen(policy.as_mut()), (first.len() + second.len()) as u64);
    assert_ne!(first, second, "a trained model predicts differently");

    // Warm-up is the same mechanism: the measured run inherits the
    // warm-up pass's observations.
    let warmed = RunnerConfig::default().with_users(2);
    let mut fresh = Strategy::Chopping.build();
    let measured = run(fresh.as_mut(), &warmed);
    assert!(seen(fresh.as_mut()) > measured.len() as u64, "warm-up samples are kept");

    // A changed kind — or just a changed adaptive seed — starts over: the
    // reused policy reproduces a brand-new policy's sample stream.
    for kind in [CostModelKind::Adaptive { seed: 1 }, CostModelKind::Adaptive { seed: 2 }] {
        let reused = run(policy.as_mut(), &cfg(kind));
        assert_eq!(seen(policy.as_mut()), reused.len() as u64, "{kind:?}: fresh model");
        let brand_new = run(Strategy::Chopping.build().as_mut(), &cfg(kind));
        assert_eq!(reused, brand_new, "{kind:?}: fresh priors");
    }
}
