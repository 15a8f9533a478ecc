//! Multi-device (1 CPU + K co-processor) invariants, swept over
//! K ∈ {1, 2, 4}.
//!
//! The N-device topology generalises the paper's {CPU, GPU} pair; these
//! tests pin what that generalisation must preserve:
//!
//!  1. **Result invariance** — adding co-processors changes where
//!     operators run, never what a query returns, under every strategy;
//!  2. **Conservation** — per-fleet heap bytes drain, and the executor's
//!     transfer metrics agree with the interconnect's own per-link
//!     statistics summed over the fleet, at every K;
//!  3. **Determinism** — virtual time is independent of real-CPU worker
//!     counts: the same run at workers ∈ {1, 2, 8} is byte-identical;
//!  4. **Chaos differential** — seeded fault plans at K > 1 still yield
//!     bit-identical results to that K's fault-free baseline;
//!  5. **Tracing** — a traced K-device run exports one kernel lane per
//!     device in the Chrome trace;
//!  6. **Sharding** — intra-operator sharding (DESIGN.md §6) is purely
//!     a placement concern, and data-driven only: a strategy that caches
//!     on a miss is refused at K ≥ 2; under every other strategy and K
//!     sharded runs reproduce the unsharded result fingerprints byte for
//!     byte, conserve heap and link bytes across the shard transfers, and
//!     stay bit-identical under seeded faults on the shards' devices.
//!
//! (Byte-identity of the K = 1 default against the pre-topology executor
//! is pinned separately by `tests/topology_golden.rs`.)

use robustq::core::{DataDrivenChopping, DataPlacementManager, Strategy};
use robustq::engine::parallel::ParallelCtx;
use robustq::sim::{FaultPlan, FaultSpec, SimConfig, VirtualTime};
use robustq::storage::gen::ssb::SsbGenerator;
use robustq::storage::Database;
use robustq::workloads::{ssb, ResultFingerprints, RunReport, RunnerConfig, WorkloadRunner};

const KS: [usize; 3] = [1, 2, 4];

const DDC_SHARD: &str = "Data-Driven Chopping + Shard";

/// The strategy the chaos and tracing fleet tests run. GPU Only places
/// each admitted query on the least-loaded co-processor, so it reaches
/// every device of the fleet on this 1 k-row fixture; Chopping, whose
/// price charges each transfer on the link, keeps it on the CPU.
const FLEET: Strategy = Strategy::GpuPreferred;

/// The one sharded placement path: Data-Driven Chopping whose manager
/// partitions large tables `k` ways and replicates small ones.
fn sharded_ddc(k: usize) -> DataDrivenChopping {
    DataDrivenChopping::with_manager(DataPlacementManager::lfu().with_sharding(k, 64 * 1024))
}

fn db() -> Database {
    SsbGenerator::new(1).with_rows_per_sf(1_000).generate()
}

/// A tight machine so placement has real heap/cache pressure, scaled out
/// to `k` identical co-processors.
fn sim_k(k: usize) -> SimConfig {
    SimConfig::default()
        .with_gpu_memory(512 * 1024)
        .with_gpu_cache(256 * 1024)
        .with_coprocessors(k)
}

/// Heap/link conservation at any K: the fleet heap drained and the
/// executor's transfer accounting matches the interconnect's totals.
fn assert_conservation(report: &RunReport, k: usize, label: &str) {
    let m = &report.metrics;
    assert_eq!(m.gpu_heap_leaked, 0, "{label}: fleet heap leaked bytes");
    assert_eq!(m.h2d_bytes, m.link_h2d.bytes, "{label}: H2D byte accounting split");
    assert_eq!(m.d2h_bytes, m.link_d2h.bytes, "{label}: D2H byte accounting split");
    assert_eq!(m.h2d_time, m.link_h2d.busy_time, "{label}: H2D time accounting split");
    assert_eq!(m.d2h_time, m.link_d2h.busy_time, "{label}: D2H time accounting split");
    assert_eq!(m.device_busy.len(), k + 1, "{label}: device table is not CPU + K");
    assert_eq!(m.ops_completed.len(), k + 1, "{label}: op table is not CPU + K");
    let total_ops: u64 = m.ops_completed.iter().map(|(_, n)| *n).sum();
    assert!(total_ops > 0, "{label}: no operator ever completed");
}

/// (1) + (2): every strategy returns identical results at every K, and
/// every run conserves heap and link bytes.
#[test]
fn results_are_invariant_in_the_coprocessor_count() {
    let db = db();
    let queries = ssb::workload(&db).expect("SSB plans");
    let cfg = RunnerConfig::default().with_users(2);
    for strategy in Strategy::ALL {
        let mut baseline: Option<ResultFingerprints> = None;
        for k in KS {
            let runner = WorkloadRunner::new(&db, sim_k(k));
            let report = runner.run(&queries, strategy, &cfg).expect("sweep run");
            let label = format!("{} K={k}", strategy.name());
            assert_conservation(&report, k, &label);
            match &baseline {
                None => baseline = Some(report.result_fingerprints()),
                Some(want) => assert_eq!(
                    want,
                    &report.result_fingerprints(),
                    "{label}: results drifted from the K=1 baseline"
                ),
            }
        }
    }
}

/// (3): virtual-time behaviour is independent of real-CPU parallelism —
/// the whole run (metrics and outcomes, down to the debug repr) is
/// byte-identical at workers ∈ {1, 2, 8}, for every K.
#[test]
fn runs_are_deterministic_across_worker_counts() {
    let db = db();
    let queries = ssb::workload(&db).expect("SSB plans");
    for k in KS {
        let runner = WorkloadRunner::new(&db, sim_k(k));
        let mut baseline: Option<(String, String)> = None;
        for workers in [1usize, 2, 8] {
            let cfg = RunnerConfig::default()
                .with_users(2)
                .with_parallel(ParallelCtx::serial().with_workers(workers));
            let report =
                runner.run(&queries, Strategy::DataDrivenChopping, &cfg).expect("runs");
            let snap =
                (format!("{:?}", report.metrics), format!("{:?}", report.outcomes));
            match &baseline {
                None => baseline = Some(snap),
                Some(want) => assert_eq!(
                    want, &snap,
                    "K={k}: run not byte-identical at workers={workers}"
                ),
            }
        }
    }
}

/// (4): the chaos differential holds on a fleet — seeded fault plans at
/// every K keep results bit-identical to that K's fault-free baseline,
/// with conservation intact. At least one sweep point must actually
/// inject (vacuity guard).
#[test]
fn chaos_differential_holds_on_a_fleet() {
    let db = db();
    let queries = ssb::workload(&db).expect("SSB plans");
    let mut injected_total = 0;
    for k in KS {
        let runner = WorkloadRunner::new(&db, sim_k(k));
        let cfg = RunnerConfig::default().with_users(2);
        let baseline = runner
            .run(&queries, FLEET, &cfg)
            .expect("fault-free baseline");
        let want = baseline.result_fingerprints();
        let horizon = baseline.metrics.makespan.max(VirtualTime::from_micros(1));
        for seed in 0..10u64 {
            let spec = FaultSpec {
                alloc_fail_prob: 0.10,
                transfer_transient_prob: 0.10,
                transfer_spike_prob: 0.05,
                transfer_spike_factor: 3.0,
                kernel_abort_prob: 0.10,
                random_stalls: 1,
                stall_horizon: horizon,
                stall_len: (
                    VirtualTime::from_nanos(1 + horizon.as_nanos() / 20),
                    VirtualTime::ZERO,
                ),
                ..Default::default()
            };
            let plan = FaultPlan::new(seed, spec);
            let cfg = RunnerConfig::default().with_users(2).with_fault_plan(plan);
            let report = runner
                .run(&queries, FLEET, &cfg)
                .unwrap_or_else(|e| panic!("K={k} seed {seed} failed: {e}"));
            let label = format!("K={k} seed {seed}");
            assert_conservation(&report, k, &label);
            assert_eq!(
                want,
                report.result_fingerprints(),
                "{label}: results drifted under faults"
            );
            injected_total += report.metrics.faults.injected;
        }
    }
    assert!(injected_total > 0, "the fleet chaos sweep never injected — vacuous");
}

/// (6), the rule and invariance: at K ≥ 2 a strategy that caches on a
/// miss is refused with a configuration error naming sharding; every
/// other strategy's sharded runs return byte-identical results to the
/// unsharded K = 1 reference, per query, at every K — and conserve
/// heap/link bytes across the extra shard transfers.
#[test]
fn sharded_results_are_byte_identical_to_unsharded() {
    use robustq::engine::EngineError;
    let db = db();
    let queries = ssb::workload(&db).expect("SSB plans");
    let mut refused = Vec::new();
    for strategy in Strategy::ALL {
        let want = WorkloadRunner::new(&db, sim_k(1))
            .run(&queries, strategy, &RunnerConfig::default().with_users(2))
            .expect("unsharded baseline")
            .result_fingerprints();
        let caches_on_miss = strategy.build().caches_on_miss();
        if caches_on_miss {
            refused.push(strategy.name());
        }
        for k in KS {
            let runner = WorkloadRunner::new(&db, sim_k(k));
            let cfg = RunnerConfig::default().with_users(2).with_sharding(k, 0.0);
            let label = format!("{} K={k} sharded", strategy.name());
            let run = runner.run(&queries, strategy, &cfg);
            if k >= 2 && caches_on_miss {
                match run {
                    Err(EngineError::Config(msg)) if msg.contains("sharding") => continue,
                    other => panic!("{label}: not refused as a sharding error: {:?}", other.err()),
                }
            }
            let report = run.expect("sharded run");
            assert_conservation(&report, k, &label);
            assert_eq!(
                want,
                report.result_fingerprints(),
                "{label}: drifted from the unsharded results"
            );
        }
    }
    assert_eq!(refused, ["GPU Only", "Critical Path", "Run-Time Placement", "Chopping"]);
}

/// (6), invariance under the learned shard-aware policy: the data
/// placement manager that partitions/replicates tables across the fleet
/// must not change results either. A traced K = 4 run must actually
/// contain shard spans (vacuity guard: `with_sharding` did shard).
#[test]
fn sharded_placement_manager_matches_unsharded() {
    let db = db();
    let queries = ssb::workload(&db).expect("SSB plans");
    let want = WorkloadRunner::new(&db, sim_k(1))
        .run(&queries, Strategy::DataDrivenChopping, &RunnerConfig::default().with_users(2))
        .expect("unsharded baseline")
        .result_fingerprints();
    for k in KS {
        let runner = WorkloadRunner::new(&db, sim_k(k));
        let cfg = RunnerConfig::default()
            .with_users(2)
            .with_sharding(k, 0.0)
            .with_trace();
        let report = runner
            .run_with_policy(&queries, &mut sharded_ddc(k), DDC_SHARD, &cfg)
            .expect("sharded managed run");
        let label = format!("managed K={k} sharded");
        assert_conservation(&report, k, &label);
        assert_eq!(want, report.result_fingerprints(), "{label}: drifted from unsharded");
        if k >= 2 {
            let chrome = report.chrome_trace().expect("traced run exports");
            assert!(
                chrome.contains("shard"),
                "{label}: no shard spans in the trace — sharding never engaged"
            );
        }
    }
}

/// (6), accounting: a sharded scan is its own `Op` run in parts, and only
/// the shards read base columns. Every read column counts one access and
/// one cache probe per shard; the merge — the same `Op` as `Role::Merge` —
/// adds neither.
#[test]
fn a_shard_merge_reads_no_base_column() {
    use robustq::engine::plan::PlanNode;
    use robustq::engine::predicate::Predicate;
    use robustq::engine::{ExecOptions, Executor};
    use robustq::sim::CacheSet;
    use robustq::trace::{TraceEvent, Tracer};

    let db = db();
    let plan = PlanNode::scan("lineorder", ["lo_revenue"])
        .filter(Predicate::between("lo_discount", 1, 3));
    let read = ["lo_revenue", "lo_discount"].map(|c| db.column_id("lineorder", c).unwrap());
    let sim = sim_k(2);
    let mut caches = CacheSet::for_topology(&sim.topology, sim.cache_policy);
    let tracer = Tracer::new();
    let opts = ExecOptions { shard_ways: 2, tracer: tracer.clone(), ..ExecOptions::default() };
    // Data-driven placement pins from the access statistics when the run
    // starts: one earlier access each homes the read columns on a
    // co-processor, and the shards follow them there.
    db.stats().reset();
    read.iter().for_each(|col| db.stats().record_access(col.index()));
    Executor::new(&db, sim)
        .run_with_cache(vec![vec![plan]], &mut *Strategy::DataDriven.build(), &opts, &mut caches)
        .expect("sharded scan");

    let events = tracer.take().events;
    let count = |f: fn(&TraceEvent) -> bool| events.iter().filter(|e| f(e)).count();
    assert_eq!(count(|e| matches!(e, TraceEvent::ShardMerge { shards: 2, .. })), 1);
    assert_eq!(count(|e| matches!(e, TraceEvent::OpSpan { .. })), 3, "two shards and a merge");
    assert_eq!(count(|e| matches!(e, TraceEvent::CacheProbe { .. })), 2 * read.len());
    let merge = events.iter().find_map(|e| match e {
        TraceEvent::ShardMerge { task, .. } => Some(*task),
        _ => None,
    });
    let shards_on_coprocessors = events
        .iter()
        .filter(|e| {
            matches!(e, TraceEvent::OpSpan { task, device, .. }
                if Some(*task) != merge && device.is_coprocessor())
        })
        .count();
    assert_eq!(shards_on_coprocessors, 2, "both shards run on a co-processor");
    for col in read {
        assert_eq!(db.stats().access_count(col.index()), 1 + 2, "one access per shard");
    }
}

/// (6), bytes: a shard reads the slice it stages. A 1 000-row
/// `lineorder` does not split evenly three ways, so the slices of its two
/// 4 000-byte columns are 2 666, 2 666 and 2 668 bytes a shard: each
/// shard span's input must be the sum of `partition_bytes` over the
/// columns it reads, and its cache probes must stage exactly that.
#[test]
fn a_shard_reads_the_slice_it_stages() {
    use robustq::engine::plan::PlanNode;
    use robustq::engine::predicate::Predicate;
    use robustq::engine::{ExecOptions, Executor};
    use robustq::sim::{partition_bytes, CacheSet};
    use robustq::trace::{TraceEvent, Tracer};

    let db = db();
    assert_eq!(db.table("lineorder").unwrap().num_rows(), 1_000);
    let plan = PlanNode::scan("lineorder", ["lo_quantity"])
        .filter(Predicate::between("lo_discount", 1, 3));
    let read = ["lo_quantity", "lo_discount"].map(|c| db.column_id("lineorder", c).unwrap());
    let sim = sim_k(3);
    let mut caches = CacheSet::for_topology(&sim.topology, sim.cache_policy);
    let tracer = Tracer::new();
    let opts = ExecOptions { shard_ways: 3, tracer: tracer.clone(), ..ExecOptions::default() };
    // One earlier access each: the manager partitions the read columns
    // three ways (nothing is small enough to replicate), one partition
    // per co-processor, and each shard follows its partition.
    db.stats().reset();
    read.iter().for_each(|col| db.stats().record_access(col.index()));
    let mut policy =
        DataDrivenChopping::with_manager(DataPlacementManager::lfu().with_sharding(3, 0));
    Executor::new(&db, sim)
        .run_with_cache(vec![vec![plan]], &mut policy, &opts, &mut caches)
        .expect("sharded scan");

    let events = tracer.take().events;
    let merge = events.iter().find_map(|e| match e {
        TraceEvent::ShardFanout { task, shards: 3, .. } => Some(*task),
        _ => None,
    });
    let merge = merge.expect("the scan fans out three ways");
    let mut slices = Vec::new();
    for index in 0..3u32 {
        // Shard expansion puts a scan's shards right before its merge.
        let shard = merge - 3 + index;
        let want: u64 =
            read.iter().map(|&c| partition_bytes(db.column_size(c), index, 3)).sum();
        let span = events.iter().find_map(|e| match e {
            TraceEvent::OpSpan { task, device, bytes_in, .. } if *task == shard => {
                Some((*device, *bytes_in))
            }
            _ => None,
        });
        let (device, bytes_in) = span.expect("every shard runs");
        assert!(device.is_coprocessor(), "shard {index} follows its partition");
        assert_eq!(bytes_in, want, "shard {index}: its input is not its slice");
        let staged: u64 = events
            .iter()
            .filter_map(|e| match e {
                TraceEvent::CacheProbe { device: d, bytes, .. } if *d == device => Some(*bytes),
                _ => None,
            })
            .sum();
        assert_eq!(staged, want, "shard {index}: its probes stage another slice");
        slices.push(want);
    }
    assert_eq!(slices, [2_666, 2_666, 2_668], "the split is uneven");
}

/// (6), chaos: seeded faults on a sharded fleet — allocation failures,
/// transfer faults and kernel aborts landing on individual shards'
/// devices — must recover without corrupting the merge: results stay
/// bit-identical to the sharded fault-free baseline at the same K.
#[test]
fn chaos_differential_holds_under_sharding() {
    let db = db();
    let queries = ssb::workload(&db).expect("SSB plans");
    let mut injected_total = 0;
    for k in [2usize, 4] {
        let runner = WorkloadRunner::new(&db, sim_k(k));
        let cfg = RunnerConfig::default().with_users(2).with_sharding(k, 0.0);
        let baseline = runner
            .run_with_policy(&queries, &mut sharded_ddc(k), DDC_SHARD, &cfg)
            .expect("sharded fault-free baseline");
        let want = baseline.result_fingerprints();
        let horizon = baseline.metrics.makespan.max(VirtualTime::from_micros(1));
        for seed in 0..6u64 {
            let spec = FaultSpec {
                alloc_fail_prob: 0.10,
                transfer_transient_prob: 0.10,
                transfer_spike_prob: 0.05,
                transfer_spike_factor: 3.0,
                kernel_abort_prob: 0.10,
                random_stalls: 1,
                stall_horizon: horizon,
                stall_len: (
                    VirtualTime::from_nanos(1 + horizon.as_nanos() / 20),
                    VirtualTime::ZERO,
                ),
                ..Default::default()
            };
            let cfg = RunnerConfig::default()
                .with_users(2)
                .with_sharding(k, 0.0)
                .with_fault_plan(FaultPlan::new(seed, spec));
            let report = runner
                .run_with_policy(&queries, &mut sharded_ddc(k), DDC_SHARD, &cfg)
                .unwrap_or_else(|e| panic!("sharded K={k} seed {seed} failed: {e}"));
            let label = format!("sharded K={k} seed {seed}");
            assert_conservation(&report, k, &label);
            assert_eq!(
                want,
                report.result_fingerprints(),
                "{label}: faults corrupted the shard merge"
            );
            injected_total += report.metrics.faults.injected;
        }
    }
    assert!(injected_total > 0, "the sharded chaos sweep never injected — vacuous");
}

/// A fact table of `rows` rows (0 or 1: fewer than any fan-out's ways)
/// beside a one-row dimension.
fn tiny_db(rows: usize) -> Database {
    use robustq::storage::{ColumnData, DataType, Field, Schema, Table};
    let table = |name: &str, fields: &[(&str, DataType)], columns: Vec<ColumnData>| {
        let schema = Schema::new(fields.iter().map(|&(f, t)| Field::new(f, t)).collect());
        Table::new(name, schema, columns).expect("valid table")
    };
    let n = rows as i64;
    let mut db = Database::new();
    let fact = table(
        "t",
        &[("k", DataType::Int64), ("v", DataType::Int64), ("f", DataType::Int32)],
        vec![
            ColumnData::Int64((0..n).collect()),
            ColumnData::Int64((0..n).map(|i| 7 + i).collect()),
            ColumnData::Int32((0..rows as i32).collect()),
        ],
    );
    let dim = table(
        "d",
        &[("dk", DataType::Int64), ("dg", DataType::Int64)],
        vec![ColumnData::Int64(vec![0]), ColumnData::Int64(vec![3])],
    );
    db.add_table(fact).expect("fresh database");
    db.add_table(dim).expect("fresh database");
    db
}

/// (6), fewer rows than ways: a spine leaf whose range covers its whole
/// base hands on a dense part, and the merge concatenates dense parts
/// with selections. K = 2 and K = 4 sharded runs over a fact table of 0
/// and of 1 row — a leaf-only spine under an aggregate, under a join and
/// as the root, and a spine through a join — return the unsharded run's
/// results, fan every query out and keep the conservation invariants.
#[test]
fn a_fact_table_with_fewer_rows_than_ways_shards_like_the_unsharded_run() {
    use robustq::engine::plan::{AggSpec, PlanNode};
    use robustq::engine::expr::Expr;
    use robustq::engine::predicate::Predicate;
    use robustq::trace::TraceEvent;
    use robustq::workloads::chaos;

    let sum = || vec![AggSpec::sum(Expr::col("v"), "s")];
    let queries = [
        PlanNode::scan("t", ["v"])
            .filter(Predicate::between("f", 0, 10))
            .aggregate([] as [&str; 0], sum()),
        PlanNode::scan("t", ["k", "v"])
            .join(PlanNode::scan("d", ["dk", "dg"]), "k", "dk")
            .aggregate(["dg"], sum()),
        PlanNode::scan("d", ["dk"]).join(PlanNode::scan("t", ["k", "v"]), "dk", "k"),
        PlanNode::scan("t", ["k", "v"]),
    ];
    for rows in [0, 1] {
        let db = tiny_db(rows);
        let cfg = RunnerConfig::default().with_users(2);
        let strategies = [(Strategy::CpuOnly, "CPU Only"), (Strategy::DataDrivenChopping, DDC_SHARD)];
        for (strategy, label) in strategies {
            let want = WorkloadRunner::new(&db, sim_k(1))
                .run(&queries, strategy, &cfg)
                .expect("unsharded baseline")
                .result_fingerprints();
            for k in [2, 4] {
                let mut policy: Box<dyn robustq::engine::PlacementPolicy> = match strategy {
                    Strategy::CpuOnly => strategy.build(),
                    _ => Box::new(DataDrivenChopping::with_manager(
                        DataPlacementManager::lfu().with_sharding(k, 0),
                    )),
                };
                let sharded = cfg.clone().with_sharding(k, 0.0).with_trace();
                let report = WorkloadRunner::new(&db, sim_k(k))
                    .run_with_policy(&queries, &mut *policy, label, &sharded)
                    .unwrap_or_else(|e| panic!("{label} K={k} rows={rows}: {e}"));
                let at = format!("{label} K={k} rows={rows}");
                assert_eq!(want, report.result_fingerprints(), "{at}: drifted from unsharded");
                assert_eq!(chaos::conservation(&report.metrics), Vec::<String>::new(), "{at}");
                let events = report.trace.expect("traced run").events;
                let fan_out = |e: &&TraceEvent| {
                    matches!(e, TraceEvent::ShardMerge { shards, .. } if *shards == k as u32)
                };
                let merges = events.iter().filter(fan_out).count();
                assert_eq!(merges, report.outcomes.len(), "{at}: every query fans out once");
            }
        }
    }
}

/// Load counts from admission: a compile-time placement is charged to its
/// device when its query is admitted, not when its leaves become ready. So
/// of two queries GPU Only admits at one instant on an idle K = 2 fleet,
/// the second sees the first's plan on GPU 1 and takes GPU 2.
#[test]
fn queries_admitted_at_one_instant_spread_over_the_fleet() {
    use robustq::engine::{ExecOptions, Executor};
    use robustq::sim::CacheSet;
    use robustq::trace::{PlacePhase, TraceEvent, Tracer};
    use std::collections::BTreeMap;

    let db = db();
    let plan = ssb::workload(&db).expect("SSB plans").swap_remove(0);
    let sim = sim_k(2);
    let mut caches = CacheSet::for_topology(&sim.topology, sim.cache_policy);
    let tracer = Tracer::new();
    let opts = ExecOptions { tracer: tracer.clone(), ..ExecOptions::default() };
    Executor::new(&db, sim)
        .run_with_cache(
            vec![vec![plan.clone()], vec![plan]],
            &mut *Strategy::GpuPreferred.build(),
            &opts,
            &mut caches,
        )
        .expect("two sessions");
    let mut devices = BTreeMap::new();
    for e in tracer.take().events {
        if let TraceEvent::Placement { query, phase: PlacePhase::Compile, chosen, at, .. } = e {
            assert_eq!(at, VirtualTime::ZERO, "both queries are admitted at once");
            devices.entry(query).or_insert_with(Vec::new).push(chosen);
        }
    }
    let homes: Vec<_> = devices.values().map(|d| d[0]).collect();
    assert!(devices.values().all(|d| d.iter().all(|&x| x == d[0])), "{devices:?}");
    assert_eq!(homes.len(), 2);
    assert_ne!(homes[0], homes[1], "both queries went to {:?}", homes[0]);
}

/// (5): a traced fleet run exports one kernel lane per device, and the
/// extra co-processors actually appear in the busy table.
#[test]
fn traced_fleet_run_has_one_lane_per_device() {
    let db = db();
    let queries = ssb::workload(&db).expect("SSB plans");
    for k in [2usize, 4] {
        let runner = WorkloadRunner::new(&db, sim_k(k));
        // One session per co-processor: GPU Only admits each onto its
        // own least-loaded device.
        let cfg = RunnerConfig::default().with_users(k).with_trace();
        let report =
            runner.run(&queries, FLEET, &cfg).expect("traced run");
        let chrome = report.chrome_trace().expect("traced run exports chrome JSON");
        assert_eq!(report.metrics.device_busy.len(), k + 1);
        for (d, _) in report.metrics.device_busy.iter() {
            let lane = format!("{d} kernels");
            assert!(chrome.contains(&lane), "K={k}: trace missing lane {lane:?}");
        }
    }
}

/// (6), a spine runs where its shard does. K = 2, 2-way sharded
/// Data-Driven Chopping on `multigpu --shard`'s machine, caches warmed
/// by its warm-up pass, runs SSB Q3.1 alone: the query fans out once,
/// into two pipelines, each a partition of `lineorder` probing its own
/// replicas of the dimensions. Every spine join runs on the co-processor
/// of its shard's scan, the query's only transfers are the pipelines'
/// join outputs into the one merge and the result, and the merged answer
/// is the unsharded one.
#[test]
fn a_spine_joins_on_its_shards_coprocessor_and_moves_only_its_output() {
    use robustq::engine::exec::task::{flatten, TaskNode};
    use robustq::engine::plan::Op;
    use robustq::sim::{DeviceId, Direction};
    use robustq::trace::{OpOutcome, TraceEvent, TransferKind};

    let db = SsbGenerator::new(1).with_rows_per_sf(8_000).generate();
    let plan = ssb::SsbQuery::Q3_1.plan(&db).expect("Q3.1");
    let sim = SimConfig::default()
        .with_gpu_memory(2 * 1024 * 1024)
        .with_gpu_cache(256 * 1024)
        .with_coprocessors(2);
    let runner = WorkloadRunner::new(&db, sim);
    let queries = [plan];
    let unsharded = runner.run(&queries, Strategy::CpuOnly, &RunnerConfig::default());
    let cfg = RunnerConfig::default().with_sharding(2, 0.0).with_trace();
    let report = runner
        .run_with_policy(&queries, &mut sharded_ddc(2), DDC_SHARD, &cfg)
        .expect("sharded run");
    let want = unsharded.expect("unsharded run").result_fingerprints();
    assert_eq!(report.result_fingerprints(), want, "the merged answer drifted");

    let events = &report.trace.as_ref().expect("traced run").events;
    let fanouts: Vec<u32> = events
        .iter()
        .filter_map(|e| match e {
            TraceEvent::ShardFanout { task, shards: 2, .. } => Some(*task),
            _ => None,
        })
        .collect();
    let [merge] = fanouts[..] else { panic!("one fan-out per query, got {fanouts:?}") };
    // The spine top's subtree is every task below the aggregate, so shard
    // `p`'s pipeline is tasks `p * len..(p + 1) * len`, laid out as the
    // template's are, and the merge follows them.
    let template = flatten(&queries[0]);
    let len = merge as usize / 2;
    assert!(matches!(*template[len].op, Op::Aggregate { .. }), "the spine stops at the aggregate");
    let reads_lineorder = |t: &TaskNode| t.op.scan_access().is_some_and(|(t, _)| t == "lineorder");
    let leaf = template.iter().position(reads_lineorder);
    let leaf = leaf.expect("a lineorder scan");
    let joins: Vec<usize> =
        (0..len).filter(|&i| matches!(*template[i].op, Op::HashJoin { .. })).collect();
    assert_eq!(joins.len(), 3);
    let span = |task: usize| {
        let found = events.iter().find_map(|e| match e {
            TraceEvent::OpSpan {
                task: t, device, start, bytes_out, outcome: OpOutcome::Completed, ..
            } if *t as usize == task => Some((*device, *start, *bytes_out)),
            _ => None,
        });
        found.unwrap_or_else(|| panic!("task {task} never completed"))
    };
    let (merge_device, merge_start, _) = span(merge as usize);
    let mut tops = Vec::new();
    for p in 0..2 {
        let (shard_device, ..) = span(p * len + leaf);
        assert!(shard_device.is_coprocessor(), "shard {p} follows its partition");
        for &j in &joins {
            assert_eq!(span(p * len + j).0, shard_device, "shard {p}: join {j} left its shard");
        }
        let (device, _, bytes) = span(p * len + len - 1);
        tops.push((device, bytes));
    }
    assert_ne!(tops[0].0, tops[1].0, "the pipelines spread over the fleet");

    // What the query is charged besides its result: each pipeline's join
    // output pulled off its co-processor into the merge (and, onto a
    // co-processor merge, pushed in again) — no base column, no replica.
    let mut want: Vec<(DeviceId, bool, u64)> = Vec::new();
    let pulled: u64 = tops.iter().filter(|(d, _)| *d != merge_device).map(|(_, b)| b).sum();
    for &(device, bytes) in tops.iter().filter(|(d, _)| *d != merge_device) {
        want.push((device, true, bytes));
    }
    if merge_device.is_coprocessor() {
        want.push((merge_device, false, pulled));
    }
    let mut inputs = Vec::new();
    let mut results = 0;
    for e in events {
        if let TraceEvent::Transfer { device, dir, kind, query: 0, bytes, start, .. } = *e {
            match kind {
                TransferKind::Result => results += 1,
                _ => {
                    assert_eq!((kind, start), (TransferKind::Input, merge_start), "{e:?}");
                    inputs.push((device, dir == Direction::DeviceToHost, bytes));
                }
            }
        }
    }
    want.sort();
    inputs.sort();
    assert_eq!(inputs, want, "the merge moves the pipelines' output, nothing else crosses");
    assert!(results <= 1);
}

/// (7), a shard fan-in follows the chain rule. A traced SSB closed loop
/// at K = 2 under 2-way sharded Data-Driven Chopping: every merge's
/// children sit on different co-processors, so each merge is placed on
/// the CPU by data residency, as any operator with inputs on two devices
/// is — there is no per-query home to send it elsewhere.
#[test]
fn a_shard_fan_in_runs_on_the_cpu() {
    use robustq::sim::DeviceId;
    use robustq::trace::{PlaceReason, TraceEvent};
    use std::collections::BTreeSet;

    let db = db();
    let queries = ssb::workload(&db).expect("SSB plans");
    let cfg = RunnerConfig::default().with_users(2).with_sharding(2, 0.0).with_trace();
    let report = WorkloadRunner::new(&db, sim_k(2))
        .run_with_policy(&queries, &mut sharded_ddc(2), DDC_SHARD, &cfg)
        .expect("sharded closed loop");
    let events = report.trace.expect("traced run").events;
    let merges: BTreeSet<u32> = events
        .iter()
        .filter_map(|e| match e {
            TraceEvent::ShardFanout { task, .. } => Some(*task),
            _ => None,
        })
        .collect();
    assert!(!merges.is_empty(), "no query fanned out");
    let mut placed = BTreeSet::new();
    for e in &events {
        if let TraceEvent::Placement { task, chosen, reason, .. } = *e {
            if merges.contains(&task) {
                let want = (DeviceId::Cpu, PlaceReason::DataResidency);
                assert_eq!((chosen, reason), want, "merge {task}");
                placed.insert(task);
            }
        }
    }
    assert_eq!(placed, merges, "every merge is placed");
}

/// (8), live columns: every SSB and TPC-H template, sharded 2 and 4 ways
/// under Data-Driven Chopping, returns the unsharded K = 1 run's rows
/// and checksums, and every query fans out once — each spine hands on
/// only the columns read above it, and nothing an ancestor reads is lost.
#[test]
fn every_template_sharded_returns_the_unsharded_rows() {
    use robustq::storage::gen::tpch::TpchGenerator;
    use robustq::trace::TraceEvent;
    use robustq::workloads::tpch;

    let ssb_db = SsbGenerator::new(1).with_rows_per_sf(3_000).generate();
    let tpch_db = TpchGenerator::new(1).with_rows_per_sf(3_000).generate();
    let workloads = [
        ("SSB", &ssb_db, ssb::workload(&ssb_db).expect("SSB plans")),
        ("TPC-H", &tpch_db, tpch::workload()),
    ];
    for (name, db, queries) in workloads {
        let cfg = RunnerConfig::default().with_users(2);
        let want = WorkloadRunner::new(db, sim_k(1))
            .run(&queries, Strategy::DataDrivenChopping, &cfg)
            .expect("unsharded run")
            .result_fingerprints();
        for k in [2, 4] {
            let sharded = cfg.clone().with_sharding(k, 0.0).with_trace();
            let report = WorkloadRunner::new(db, sim_k(k))
                .run_with_policy(&queries, &mut sharded_ddc(k), DDC_SHARD, &sharded)
                .unwrap_or_else(|e| panic!("{name} K={k}: {e}"));
            assert_eq!(want, report.result_fingerprints(), "{name} K={k}: drifted from unsharded");
            assert_conservation(&report, k, name);
            let events = report.trace.expect("traced run").events;
            let merges =
                events.iter().filter(|e| matches!(e, TraceEvent::ShardMerge { .. })).count();
            assert_eq!(merges, queries.len(), "{name} K={k}: every query fans out once");
        }
    }
}

/// A fact table `t(k, k2, v: Int64, f: Int32)` of 1 000 rows and two
/// dimensions whose payload columns share the name `g`: `d1(dk, g)`
/// (50 keys, `g = 10·dk`) and `d2(dk2, g)` (20 keys, `g = 1 000 + dk2`).
fn shared_name_db() -> Database {
    use robustq::storage::{ColumnData, DataType, Field, Schema, Table};
    let int64 = |name: &str, values: Vec<i64>| {
        (Field::new(name, DataType::Int64), ColumnData::Int64(values))
    };
    let table = |name: &str, columns: Vec<(Field, ColumnData)>| {
        let (fields, data) = columns.into_iter().unzip();
        Table::new(name, Schema::new(fields), data).expect("valid table")
    };
    let n = 1_000i64;
    let mut db = Database::new();
    let fact = table(
        "t",
        vec![
            int64("k", (0..n).map(|i| i % 50).collect()),
            int64("k2", (0..n).map(|i| i % 20).collect()),
            int64("v", (0..n).collect()),
            (Field::new("f", DataType::Int32), ColumnData::Int32((0..n as i32).collect())),
        ],
    );
    let d1 = vec![int64("dk", (0..50).collect()), int64("g", (0..50).map(|i| 10 * i).collect())];
    let d2 =
        vec![int64("dk2", (0..20).collect()), int64("g", (0..20).map(|i| 1_000 + i).collect())];
    let (d1, d2) = (table("d1", d1), table("d2", d2));
    for t in [fact, d1, d2] {
        db.add_table(t).expect("fresh database");
    }
    db
}

/// Each query of `queries` run unsharded at K = 1 and 2-way sharded at
/// K = 2 under Data-Driven Chopping: the sharded run's results must be
/// the unsharded ones; returns each fan-out's merged `(rows, bytes)`.
fn merged_rows_and_bytes(
    db: &Database,
    queries: &[robustq::engine::plan::PlanNode],
) -> Vec<(u64, u64)> {
    use robustq::trace::TraceEvent;
    let cfg = RunnerConfig::default();
    let want = WorkloadRunner::new(db, sim_k(1))
        .run(queries, Strategy::DataDrivenChopping, &cfg)
        .expect("unsharded run")
        .result_fingerprints();
    let sharded = cfg.with_sharding(2, 0.0).with_trace();
    let report = WorkloadRunner::new(db, sim_k(2))
        .run_with_policy(queries, &mut sharded_ddc(2), DDC_SHARD, &sharded)
        .expect("sharded run");
    assert_eq!(want, report.result_fingerprints(), "the sharded results drifted");
    let events = report.trace.expect("traced run").events;
    let merges: Vec<(u64, u64)> = events
        .iter()
        .filter_map(|e| match *e {
            TraceEvent::ShardMerge { rows, bytes, .. } => Some((rows, bytes)),
            _ => None,
        })
        .collect();
    assert_eq!(merges.len(), queries.len(), "every query fans out once");
    merges
}

/// (8), pruning renames nothing: two build sides share the column name
/// `g`, so the join that reads the second names its `g` `g_r`. Without
/// a dead column the join might name it `g`, and an aggregate that reads
/// `g_r` would find nothing; a fan-out under a join that renames prunes
/// nothing, whichever `g` is read. Down the chain `t ⋈ d1 ⋈ d2` the merge
/// carries all 7 columns (56 B a row); with the merge the build side of
/// `d1 ⋈ (t ⋈ d2)`, all 5 of `t ⋈ d2` (40 B), though the aggregate reads
/// the `g` that the outer join renames. Every run returns the unsharded
/// rows.
#[test]
fn pruning_never_changes_a_name_an_ancestor_reads() {
    use robustq::engine::expr::Expr;
    use robustq::engine::plan::{AggSpec, PlanNode};

    let db = shared_name_db();
    let chain = || {
        PlanNode::scan("t", ["k", "k2", "v"])
            .join(PlanNode::scan("d1", ["dk", "g"]), "k", "dk")
            .join(PlanNode::scan("d2", ["dk2", "g"]), "k2", "dk2")
    };
    let sum = || vec![AggSpec::sum(Expr::col("v"), "s")];
    let probe_t = ["g", "g_r"].map(|key| chain().aggregate([key], sum()));
    let t_d2 = PlanNode::scan("t", ["k", "k2", "v"])
        .join(PlanNode::scan("d2", ["dk2", "g"]), "k2", "dk2");
    let build_t = PlanNode::scan("d1", ["dk", "g"]).join(t_d2, "dk", "k").aggregate(["g_r"], sum());
    let queries = [probe_t[0].clone(), probe_t[1].clone(), build_t];
    let merged = merged_rows_and_bytes(&db, &queries);
    assert_eq!(merged, [(1_000, 56_000), (1_000, 56_000), (1_000, 40_000)]);
}

/// (8), a `count(*)` over a sharded join reads no column, so every one
/// the spine top hands on is dead. Over the join alone the leaf hands on
/// the key `k` (nothing reads `f`) and the join the narrowest of `k` and
/// `dk` (8 B each: the first); over a select of `f` above the join, the
/// join hands on `f` and the select keeps it, 4 B. Each count still
/// counts every joined row.
#[test]
fn a_count_over_a_join_whose_every_column_is_dead_still_counts() {
    use robustq::engine::plan::{AggSpec, PlanNode};
    use robustq::engine::predicate::Predicate;

    let db = shared_name_db();
    let join = || PlanNode::scan("t", ["k", "f"]).join(PlanNode::scan("d1", ["dk"]), "k", "dk");
    let count = |spine: PlanNode| spine.aggregate([] as [&str; 0], vec![AggSpec::count("n")]);
    let queries =
        [count(join()), count(join().select(Predicate::between("f", 0, 999)))];
    let merged = merged_rows_and_bytes(&db, &queries);
    assert_eq!(merged, [(1_000, 8_000), (1_000, 4_000)], "the narrowest column alone");
}

/// (8), the bytes a merge moves — a gate with no clock in it. Sharded 2
/// ways, SSB Q3.1's spine hands the merge `c_nation`, `s_nation`,
/// `d_year` (4 B each) and `lo_revenue` (8 B): 20 B a merged row, not the
/// 44 B of every column its three joins carry. Q4.1's hands on `d_year`,
/// `c_nation`, `lo_revenue` and `lo_supplycost`: 24 B, not 56.
#[test]
fn a_merge_moves_the_live_columns_alone() {
    let db = SsbGenerator::new(1).with_rows_per_sf(8_000).generate();
    for (query, width) in [(ssb::SsbQuery::Q3_1, 20), (ssb::SsbQuery::Q4_1, 24)] {
        let plan = query.plan(&db).expect("SSB plan");
        let [(rows, bytes)] = merged_rows_and_bytes(&db, &[plan])[..] else {
            panic!("{}: one fan-out", query.name())
        };
        assert!(rows > 0, "{}: nothing merged", query.name());
        assert_eq!(bytes, rows * width, "{}: {} B a merged row", query.name(), bytes / rows);
    }
}
