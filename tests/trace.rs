//! Integration tests for the virtual-time tracing subsystem
//! (DESIGN.md §11): determinism of the event stream across worker
//! counts and fault plans, the observer-effect-free contract, metric
//! re-derivation from events on SSB and TPC-H, and Chrome-export
//! validity under `trace-lint`'s rules.

use robustq::core::Strategy;
use robustq::engine::{ParallelCtx, RunMetrics};
use robustq::sim::{DeviceId, FaultPlan, FaultSpec, SimConfig};
use robustq::storage::gen::ssb::SsbGenerator;
use robustq::storage::Database;
use robustq::trace::lint_chrome_trace;
use robustq::workloads::{ssb, tpch, RunReport, RunnerConfig, WorkloadRunner};

fn db() -> Database {
    SsbGenerator::new(1).with_rows_per_sf(1_000).generate()
}

/// A tight machine so co-processor aborts and cache evictions occur
/// organically and the trace covers every event kind.
fn tight_sim() -> SimConfig {
    SimConfig::default().with_gpu_memory(512 * 1024).with_gpu_cache(256 * 1024)
}

/// A mixed fault plan touching every injection path.
fn fault_plan() -> FaultPlan {
    let spec = FaultSpec {
        alloc_fail_prob: 0.1,
        transfer_transient_prob: 0.1,
        transfer_spike_prob: 0.05,
        transfer_spike_factor: 4.0,
        kernel_abort_prob: 0.1,
        ..Default::default()
    };
    FaultPlan::new(42, spec)
}

fn ssb_run(workers: usize, trace: bool, fault: Option<FaultPlan>) -> RunReport {
    let db = db();
    let queries = ssb::workload(&db).expect("SSB plans");
    let runner = WorkloadRunner::new(&db, tight_sim());
    let mut cfg = RunnerConfig::default()
        .with_users(2)
        .with_parallel(ParallelCtx::serial().with_workers(workers));
    if trace {
        cfg = cfg.with_trace();
    }
    if let Some(f) = fault {
        cfg = cfg.with_fault_plan(f);
    }
    runner.run(&queries, Strategy::GpuPreferred, &cfg).expect("SSB run")
}

#[test]
fn event_stream_identical_across_worker_counts() {
    let a = ssb_run(1, true, None);
    let b = ssb_run(8, true, None);
    let (ta, tb) = (a.trace.unwrap(), b.trace.unwrap());
    assert_eq!(ta.dropped, 0);
    assert_eq!(ta, tb, "worker count must not perturb the event stream");
}

#[test]
fn event_stream_identical_across_worker_counts_under_faults() {
    let a = ssb_run(1, true, Some(fault_plan()));
    let b = ssb_run(8, true, Some(fault_plan()));
    assert!(a.metrics.faults.injected > 0, "fault plan must fire");
    assert_eq!(
        a.trace.unwrap(),
        b.trace.unwrap(),
        "fault replay must be worker-count independent"
    );
}

#[test]
fn tracing_is_observer_effect_free() {
    let traced = ssb_run(1, true, Some(fault_plan()));
    let bare = ssb_run(1, false, Some(fault_plan()));
    assert!(bare.trace.is_none());
    assert_eq!(traced.metrics, bare.metrics, "tracing must not change the run");
    assert_eq!(traced.outcomes.len(), bare.outcomes.len());
    for (t, b) in traced.outcomes.iter().zip(&bare.outcomes) {
        assert_eq!((t.session, t.seq, t.rows, t.checksum), (b.session, b.seq, b.rows, b.checksum));
        assert_eq!(t.latency, b.latency);
    }
}

#[test]
fn metrics_rederive_from_events_on_ssb() {
    for fault in [None, Some(fault_plan())] {
        let report = ssb_run(2, true, fault);
        let trace = report.trace.as_ref().unwrap();
        assert_eq!(trace.dropped, 0, "default ring must hold the run");
        assert_eq!(
            RunMetrics::from_events(&trace.events),
            report.metrics,
            "trace-derived metrics must equal the legacy counters"
        );
    }
}

#[test]
fn metrics_rederive_from_events_on_tpch() {
    let db = robustq::storage::gen::tpch::TpchGenerator::new(1)
        .with_rows_per_sf(1_000)
        .generate();
    let queries = tpch::workload();
    let runner = WorkloadRunner::new(&db, tight_sim());
    let cfg = RunnerConfig::default().with_users(2).with_trace();
    let report = runner
        .run(&queries, Strategy::DataDrivenChopping, &cfg)
        .expect("TPC-H run");
    let trace = report.trace.as_ref().unwrap();
    assert_eq!(RunMetrics::from_events(&trace.events), report.metrics);
}

#[test]
fn chrome_export_passes_lint() {
    for fault in [None, Some(fault_plan())] {
        let report = ssb_run(1, true, fault);
        let json = report.chrome_trace().expect("traced run exports");
        let rep = lint_chrome_trace(&json).expect("exported trace must lint clean");
        assert!(rep.events > 0);
        assert!(rep.lanes >= 3, "device + session lanes expected");
        assert!(rep.span_pairs >= report.metrics.queries, "one B/E pair per query");
    }
}

#[test]
fn registry_counters_match_run_metrics() {
    let report = ssb_run(1, true, Some(fault_plan()));
    let reg = report.metrics_registry().expect("traced run has a registry");
    let m = &report.metrics;
    assert_eq!(reg.counter("queries"), m.queries as u64);
    assert_eq!(reg.counter("ops_completed_cpu"), m.ops_completed[DeviceId::Cpu]);
    assert_eq!(reg.counter("ops_completed_gpu"), m.ops_completed[DeviceId::Gpu]);
    assert_eq!(reg.counter("op_aborts"), m.aborts);
    assert_eq!(reg.counter("cache_hits"), m.cache_hits);
    assert_eq!(reg.counter("cache_misses"), m.cache_misses);
    assert_eq!(reg.counter("faults_injected"), m.faults.injected);
    assert_eq!(reg.counter("transfer_retries"), m.faults.retries);
    let lat = reg.get_histogram("query_latency_ns").expect("latency histogram");
    assert_eq!(lat.count(), m.queries as u64);
    assert!(reg.counter("placement_decisions") > 0);
}

/// A sharded fleet run (DESIGN.md §6) exercises the shard-span lint
/// rule for real: the Chrome export must lint clean with a nonzero
/// `shard_spans` count, the registry's fan-out/merge counters must be
/// consistent, and metric re-derivation must survive the shard events.
/// Sharding is data-driven only, so the run is Data-Driven Chopping over
/// a manager that partitions for the same `k`.
#[test]
fn sharded_chrome_export_passes_shard_span_lint() {
    use robustq::core::{DataDrivenChopping, DataPlacementManager};
    let db = db();
    let queries = ssb::workload(&db).expect("SSB plans");
    let k = 4;
    let runner = WorkloadRunner::new(&db, tight_sim().with_coprocessors(k));
    let cfg = RunnerConfig::default()
        .with_users(2)
        .with_sharding(k, 0.0)
        .with_trace();
    let mut policy =
        DataDrivenChopping::with_manager(DataPlacementManager::lfu().with_sharding(k, 64 * 1024));
    let report = runner
        .run_with_policy(&queries, &mut policy, "Data-Driven Chopping + Shard", &cfg)
        .expect("sharded traced run");
    let trace = report.trace.as_ref().unwrap();
    assert_eq!(trace.dropped, 0);
    assert_eq!(RunMetrics::from_events(&trace.events), report.metrics);

    let json = report.chrome_trace().expect("traced run exports");
    let rep = lint_chrome_trace(&json).expect("sharded trace must lint clean");
    assert!(
        rep.shard_spans > 0,
        "sharded run produced no shard spans — the lint rule never engaged"
    );

    let reg = report.metrics_registry().expect("traced run has a registry");
    let fanouts = reg.counter("shard_fanouts");
    assert!(fanouts > 0, "no shard fan-outs counted");
    assert_eq!(
        reg.counter("shard_merges"),
        fanouts,
        "every fan-out must be closed by exactly one merge"
    );
    assert!(
        reg.counter("shards_spawned") >= 2 * fanouts,
        "a fan-out spawns at least two shards"
    );
    assert_eq!(
        rep.shard_spans as u64, fanouts,
        "lint's span count must agree with the registry's fan-out count"
    );
}

#[test]
fn untraced_report_has_no_trace_artifacts() {
    let report = ssb_run(1, false, None);
    assert!(report.trace.is_none());
    assert!(report.chrome_trace().is_none());
    assert!(report.metrics_registry().is_none());
}
