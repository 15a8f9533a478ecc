//! Cross-crate integration: every placement strategy must produce
//! *identical query results* — placement changes timing, never answers —
//! and runs must be deterministic.

use robustq::core::Strategy;
use robustq::engine::ops;
use robustq::sim::SimConfig;
use robustq::storage::gen::ssb::SsbGenerator;
use robustq::storage::gen::tpch::TpchGenerator;
use robustq::workloads::{ssb, tpch, RunnerConfig, WorkloadRunner};

#[test]
fn all_strategies_agree_on_every_ssb_query() {
    let db = SsbGenerator::new(1).with_rows_per_sf(3_000).generate();
    let queries = ssb::workload(&db).expect("SSB plans");
    // Reference answers from direct host execution.
    let expected: Vec<u64> = queries
        .iter()
        .map(|q| ops::execute_plan(q, &db).expect("reference execution").checksum())
        .collect();

    // A deliberately tight machine so strategies diverge in placement
    // and some co-processor operators abort.
    let sim = SimConfig::default().with_gpu_memory(512 * 1024).with_gpu_cache(256 * 1024);
    let runner = WorkloadRunner::new(&db, sim);
    for strategy in Strategy::ALL {
        let cfg = RunnerConfig::default();
        let report = runner.run(&queries, strategy, &cfg).expect("workload runs");
        assert_eq!(report.outcomes.len(), queries.len(), "{}", strategy.name());
        for outcome in &report.outcomes {
            // Round-robin with one session: seq is the workload index.
            assert_eq!(
                outcome.checksum,
                expected[outcome.seq],
                "{}: query {} returned a different result",
                strategy.name(),
                outcome.seq
            );
        }
    }
}

#[test]
fn all_strategies_agree_on_tpch_queries() {
    let db = TpchGenerator::new(1).with_rows_per_sf(3_000).generate();
    let queries = tpch::workload();
    let expected: Vec<u64> = queries
        .iter()
        .map(|q| ops::execute_plan(q, &db).expect("reference execution").checksum())
        .collect();
    let runner = WorkloadRunner::new(&db, SimConfig::default());
    for strategy in [Strategy::GpuPreferred, Strategy::CriticalPath, Strategy::DataDrivenChopping]
    {
        let report = runner
            .run(&queries, strategy, &RunnerConfig::default())
            .expect("workload runs");
        for outcome in &report.outcomes {
            assert_eq!(outcome.checksum, expected[outcome.seq], "{}", strategy.name());
        }
    }
}

#[test]
fn runs_are_deterministic_across_invocations() {
    let db = SsbGenerator::new(1).with_rows_per_sf(2_000).generate();
    let queries = ssb::workload(&db).expect("SSB plans");
    let runner = WorkloadRunner::new(&db, SimConfig::default());
    let cfg = RunnerConfig::default().with_users(4);
    let a = runner.run(&queries, Strategy::DataDrivenChopping, &cfg).expect("first");
    let b = runner.run(&queries, Strategy::DataDrivenChopping, &cfg).expect("second");
    assert_eq!(a.metrics.makespan, b.metrics.makespan);
    assert_eq!(a.metrics.h2d_bytes, b.metrics.h2d_bytes);
    assert_eq!(a.metrics.aborts, b.metrics.aborts);
    assert_eq!(a.metrics.wasted_time, b.metrics.wasted_time);
}

#[test]
fn multi_user_preserves_results_under_contention() {
    let db = SsbGenerator::new(2).with_rows_per_sf(2_000).generate();
    let queries = ssb::workload(&db).expect("SSB plans");
    let expected: Vec<u64> = queries
        .iter()
        .map(|q| ops::execute_plan(q, &db).expect("reference").checksum())
        .collect();
    // Small heap: heavy contention at 8 users.
    let sim = SimConfig::default().with_gpu_memory(1 << 20).with_gpu_cache(1 << 19);
    let runner = WorkloadRunner::new(&db, sim);
    let cfg = RunnerConfig::default().with_users(8);
    let report = runner.run(&queries, Strategy::GpuPreferred, &cfg).expect("runs");
    for outcome in &report.outcomes {
        let original = (0..queries.len())
            .find(|k| k % 8 == outcome.session && k / 8 == outcome.seq)
            .expect("outcome maps to a workload slot");
        assert_eq!(outcome.checksum, expected[original]);
    }
}
