//! Streaming acceptance pins (DESIGN.md §10).
//!
//! The tentpole invariant: a standing query's per-window results are
//! *value-identical* (sorted row sets) to a one-shot execution against a
//! static database holding exactly the window's rows — under every
//! placement strategy, fleet size K ∈ {1, 2, 4}, real-CPU worker counts
//! 1 vs 8, and seeded fault plans. Placement, sharding, retries and
//! faults shift virtual time; they must never change what a window
//! returns.
//!
//! Alongside the identity matrix:
//!
//! * appends invalidate only the fed table's staged columns — dimension
//!   residency (and its bytes) survives every batch;
//! * ad-hoc open-loop arrivals interleave with window ticks through one
//!   admission path, with conserved offered/completed/shed accounting
//!   and `Append`/`WindowFire` visible in the trace registry;
//! * one schedule may mix closed-loop sessions, open-loop arrivals and
//!   window ticks, and still conserves queries, heaps and results;
//! * a feed schedule that cannot mean what it says is a configuration
//!   error in every build profile, never a silently wrong window.

use std::collections::{BTreeMap, HashMap};

use robustq::core::Strategy;
use robustq::engine::ops::execute_plan;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use robustq::engine::{
    Arrival, Chunk, EngineError, ExecOptions, Executor, FeedEvent, FeedSchedule, ParallelCtx,
    Schedule, StandingQuery, WindowKind,
};
use robustq::serve::{ArrivalProcess, QueryMix, ServeConfig, ServingRunner};
use robustq::sim::{CacheSet, FaultPlan, FaultSpec, SimConfig, VirtualTime};
use robustq::engine::plan::{JoinKind, Op, PlanNode};
use robustq::engine::LazyChunk;
use robustq::storage::{ColumnData, DataType, Database, Field, Schema, Table, Value};
use robustq::trace::MetricsRegistry;
use robustq::workloads::ssb_stream::{SsbStreamData, SsbStreamGen};
use robustq::workloads::SsbQuery;

const PERIOD: VirtualTime = VirtualTime::from_millis(2);
const TICKS: u32 = 4;
const BATCHES: usize = 4;

fn stream() -> SsbStreamData {
    SsbStreamGen::new(1)
        .with_rows_per_sf(800)
        .with_batches(BATCHES)
        .with_seal_rows(250)
        .build()
        .expect("stream build")
}

fn sim_k(k: usize) -> SimConfig {
    SimConfig::default()
        .with_gpu_memory(2 * 1024 * 1024)
        .with_gpu_cache(1024 * 1024)
        .with_coprocessors(k)
}

fn cold_caches(k: usize) -> CacheSet {
    let sim = sim_k(k);
    CacheSet::for_topology(&sim.topology, sim.cache_policy)
}

/// The two standing queries of the matrix: a flight-1 aggregate
/// (tumbling) and a multi-join group-by (sliding, two periods long).
fn standing(data: &SsbStreamData) -> Vec<StandingQuery> {
    let mut tumbling = data
        .standing_query(SsbQuery::Q1_1, WindowKind::Tumbling, PERIOD, TICKS)
        .expect("Q1.1 plan");
    tumbling.session = 1_000;
    let mut sliding = data
        .standing_query(
            SsbQuery::Q3_3,
            WindowKind::Sliding { length: VirtualTime::from_nanos(2 * PERIOD.as_nanos()) },
            PERIOD,
            TICKS,
        )
        .expect("Q3.3 plan");
    sliding.session = 1_001;
    vec![tumbling, sliding]
}

/// The feed replay plus both standing queries, no ad-hoc arrivals.
fn windows_only(data: &SsbStreamData) -> Schedule {
    Schedule {
        feed: data.feed_schedule(PERIOD, PERIOD),
        standing: standing(data),
        ..Schedule::default()
    }
}

/// Expected `[lo, hi)` lineorder rows of standing query `s`'s tick `k`
/// under the batch-per-period feed: batch `j` commits exactly when tick
/// `j` closes, so tick `k` sees batches `0..=k`.
fn expected_window(data: &SsbStreamData, s: usize, k: usize) -> (usize, usize) {
    let hi = data.visible_after(k + 1);
    let lo = match s {
        0 => data.visible_after(k),           // tumbling: one period back
        _ => data.visible_after(k.saturating_sub(1)), // sliding 2·period
    };
    (lo.min(hi), hi)
}

/// One-shot oracle: the standing query executed against a static
/// database holding exactly the window's rows.
fn oracle_chunk(data: &SsbStreamData, s: usize, k: usize) -> Chunk {
    let q = [SsbQuery::Q1_1, SsbQuery::Q3_3][s];
    let (lo, hi) = expected_window(data, s, k);
    let snap = data.window_db(lo, hi);
    let plan = q.plan(&snap).expect("window plan");
    execute_plan(&plan, &snap).expect("window oracle")
}

/// The oracle's result as sorted row values.
fn oracle(data: &SsbStreamData, s: usize, k: usize) -> Vec<Vec<Value>> {
    oracle_chunk(data, s, k).sorted_rows()
}

/// All `(standing, tick) -> sorted rows` of one streaming run.
fn run_windows(
    data: &SsbStreamData,
    strategy: Strategy,
    k: usize,
    workers: usize,
    fault: FaultPlan,
) -> BTreeMap<(usize, usize), Vec<Vec<Value>>> {
    let executor = Executor::new(&data.db, sim_k(k));
    let mut policy = strategy.build();
    // Sharding is data-driven only: a policy that caches on a miss runs
    // its windows unsharded.
    let opts = ExecOptions {
        capture_results: true,
        parallel: ParallelCtx::serial().with_workers(workers),
        fault,
        shard_ways: if k >= 2 && !policy.caches_on_miss() { k } else { 0 },
        ..ExecOptions::default()
    };
    let mut caches = cold_caches(k);
    let out = executor
        .run_with_cache(windows_only(data), policy.as_mut(), &opts, &mut caches)
        .expect("streaming run");
    let expected: usize = 2 * TICKS as usize;
    assert_eq!(out.outcomes.len(), expected, "{}: tick went missing", strategy.name());
    out.outcomes
        .into_iter()
        .map(|o| {
            let rows =
                o.result.as_ref().expect("captured window result").sorted_rows();
            ((o.session - 1_000, o.seq), rows)
        })
        .collect()
}

/// The tentpole matrix: every strategy × K ∈ {1, 2, 4} reproduces the
/// static-snapshot oracle for every window of both standing queries.
#[test]
fn window_results_match_static_snapshots_under_all_strategies_and_k() {
    let data = stream();
    let oracles: BTreeMap<(usize, usize), Vec<Vec<Value>>> = (0..2usize)
        .flat_map(|s| (0..TICKS as usize).map(move |k| ((s, k), ())))
        .map(|((s, k), ())| ((s, k), oracle(&data, s, k)))
        .collect();
    // Windows must not be degenerate: every tick scans a non-empty,
    // strictly growing prefix range.
    for k in 0..TICKS as usize {
        let (lo, hi) = expected_window(&data, 0, k);
        assert!(hi > lo, "tick {k}: empty tumbling window");
    }
    for strategy in Strategy::ALL {
        for k in [1usize, 2, 4] {
            let got = run_windows(&data, strategy, k, 1, FaultPlan::disabled());
            for ((s, tick), rows) in &got {
                assert_eq!(
                    rows,
                    &oracles[&(*s, *tick)],
                    "{} K={k}: standing {s} tick {tick} drifted from its \
                     static-snapshot oracle",
                    strategy.name()
                );
            }
        }
    }
}

/// Virtual time and window results are independent of real-CPU worker
/// counts.
#[test]
fn streaming_runs_are_deterministic_across_worker_counts() {
    let data = stream();
    let one = run_windows(&data, Strategy::DataDrivenChopping, 2, 1, FaultPlan::disabled());
    let eight =
        run_windows(&data, Strategy::DataDrivenChopping, 2, 8, FaultPlan::disabled());
    assert_eq!(one, eight, "worker count changed a window result");
}

/// Seeded fault plans (allocation failures, transfer faults, kernel
/// aborts, mixed) perturb placement and retries, never window contents.
#[test]
fn window_results_survive_seeded_faults() {
    let data = stream();
    let baseline = run_windows(&data, Strategy::DataDrivenChopping, 2, 1, FaultPlan::disabled());
    for seed in [1u64, 2, 3] {
        let mut spec = FaultSpec::default();
        match seed % 3 {
            0 => spec.alloc_fail_prob = 0.2,
            1 => {
                spec.transfer_transient_prob = 0.1;
                spec.kernel_abort_prob = 0.1;
            }
            _ => {
                spec.alloc_fail_prob = 0.05;
                spec.transfer_transient_prob = 0.05;
                spec.kernel_abort_prob = 0.05;
            }
        }
        let faulty =
            run_windows(&data, Strategy::DataDrivenChopping, 2, 1, FaultPlan::new(seed, spec));
        assert_eq!(baseline, faulty, "seed {seed}: faults changed a window result");
    }
}

/// Appends drop only the fed table's staged columns: after the run every
/// resident lineorder key carries the final epoch (stale copies are
/// gone), and dimension residency — hence surviving resident bytes —
/// outlives every batch.
#[test]
fn appends_invalidate_only_feed_columns() {
    let data = stream();
    let lineorder = data.db.table_position("lineorder").expect("lineorder registered");
    let final_epoch = data.epochs.last().expect("at least one batch").0;
    let executor = Executor::new(&data.db, sim_k(1));
    let mut policy = Strategy::DataDrivenChopping.build();
    let mut caches = cold_caches(1);
    let opts = ExecOptions { capture_results: false, ..ExecOptions::default() };
    executor
        .run_with_cache(windows_only(&data), policy.as_mut(), &opts, &mut caches)
        .expect("streaming run");
    let gpu = robustq::sim::DeviceId::Gpu;
    let cache = caches.device(gpu);
    assert!(cache.used() > 0, "nothing resident after the run");
    let mut dim_resident = 0u64;
    for key in cache.resident_keys() {
        let id = robustq::storage::ColumnId(key.column_id());
        if data.db.table_of(id) == lineorder {
            assert_eq!(
                key.epoch(),
                final_epoch,
                "stale lineorder copy (column {}, epoch {}) survived invalidation",
                key.column_id(),
                key.epoch()
            );
        } else {
            assert_eq!(key.epoch(), 0, "never-appended column got a non-zero epoch");
            dim_resident += 1;
        }
    }
    assert!(
        dim_resident > 0,
        "append invalidation wiped dimension residency — it must only touch \
         the fed table's columns"
    );
}

/// A dimension's key index follows its appends: a row appended after a
/// join built the index joins at once, and a reader still holding the
/// pre-append scan keeps its answer — it reads its own buffer, which the
/// table's index no longer describes. Every answer is the oracle's.
#[test]
fn a_dimension_append_reaches_the_key_index_and_spares_old_readers() {
    let ints = |values: &[i32]| ColumnData::Int32(values.to_vec());
    let table = |name: &str, columns: [&str; 2], keys: &[i32]| {
        let schema = Schema::new(columns.map(|c| Field::new(c, DataType::Int32)).to_vec());
        let payload: Vec<i32> = keys.iter().map(|k| 10 * k).collect();
        Table::new(name, schema, vec![ints(keys), ints(&payload)]).expect("valid table")
    };
    let mut db = Database::new();
    db.add_table(table("d", ["k", "v"], &[1, 2, 3, 4, 5])).expect("fresh database");
    db.add_table(table("f", ["fk", "w"], &[6, 2, 6, 5, 1, 9])).expect("fresh database");
    let ctx = ParallelCtx::serial();
    let scan = |db: &Database, table: &str, columns: [&str; 2]| {
        let columns = columns.map(String::from).to_vec();
        Op::scan(table, columns, None).execute_lazy(&[], db, ctx).expect("scan")
    };
    let join = |db: &Database, dim: LazyChunk| {
        let op = Op::HashJoin { build_key: "k".into(), probe_key: "fk".into(), kind: JoinKind::Inner };
        op.execute_lazy(&[dim, scan(db, "f", ["fk", "w"])], db, ctx).expect("join").materialize()
    };
    let oracle = |db: &Database| {
        let plan = PlanNode::scan("f", ["fk", "w"]).join(PlanNode::scan("d", ["k", "v"]), "fk", "k");
        execute_plan(&plan, db).expect("oracle")
    };
    let indexed = |db: &Database| db.key_index(db.table("d").unwrap().column("k").unwrap()).is_some();
    let before = join(&db, scan(&db, "d", ["k", "v"]));
    assert_eq!(before, oracle(&db));
    assert_eq!(before.num_rows(), 3);
    assert!(indexed(&db), "the join indexed k");

    let held = scan(&db, "d", ["k", "v"]);
    db.append_batch("d", vec![ints(&[6]), ints(&[60])]).expect("append");
    let after = join(&db, scan(&db, "d", ["k", "v"]));
    assert_eq!(after, oracle(&db));
    assert_eq!(after.num_rows(), 5, "both fact rows with key 6 join the appended row");
    assert!(indexed(&db), "the appended column is indexed anew");
    assert_eq!(join(&db, held), before, "the pre-append reader keeps its answer");
}

/// Ad-hoc arrivals and window ticks share one admission path: offered
/// accounting conserves, every tick completes, and the trace registry
/// sees the feed (`appends`, `window_fires`, epoch-keyed evictions).
#[test]
fn streaming_interleaves_arrivals_and_window_ticks() {
    let data = stream();
    let queries: Vec<_> = [SsbQuery::Q1_2, SsbQuery::Q2_3]
        .iter()
        .map(|q| q.plan(&data.db).expect("plan"))
        .collect();
    let runner = ServingRunner::new(&data.db, sim_k(2));
    let horizon = VirtualTime::from_nanos(PERIOD.as_nanos() * (TICKS as u64 + 1));
    let cfg = ServeConfig::new(ArrivalProcess::Poisson { rate_qps: 2_000.0 }, horizon)
        .with_sessions(8)
        .with_seed(11)
        .with_trace();
    let report = runner
        .run_streaming(
            &QueryMix::uniform(queries),
            data.feed_schedule(PERIOD, PERIOD),
            standing(&data),
            Strategy::DataDrivenChopping,
            &cfg,
        )
        .expect("streaming serve");
    assert!(report.offered_arrivals > 0, "horizon produced no arrivals");
    assert_eq!(report.offered_ticks, 2 * TICKS as usize);
    assert_eq!(
        report.offered_arrivals + report.offered_ticks,
        report.completed() + report.metrics.shed as usize,
        "offered/completed/shed accounting drifted"
    );
    assert_eq!(report.window_outcomes.len(), 2 * TICKS as usize, "a tick was shed");
    assert!(report.tick_p99() > VirtualTime::ZERO);
    let trace = report.trace.as_ref().expect("traced run");
    let registry = MetricsRegistry::from_events(&trace.events);
    assert_eq!(registry.counter("appends"), BATCHES as u64);
    assert_eq!(registry.counter("window_fires"), 2 * TICKS as u64);
    assert!(
        registry.counter("cache_evictions") > 0,
        "appends never invalidated a staged column"
    );
}

/// A streaming run with an empty feed and no standing queries is the
/// plain open-loop run — the two runner entry points must agree
/// bit-for-bit.
#[test]
fn empty_feed_degenerates_to_open_loop() {
    let data = stream();
    let queries: Vec<_> =
        [SsbQuery::Q1_1].iter().map(|q| q.plan(&data.db).expect("plan")).collect();
    let mix = QueryMix::uniform(queries);
    let cfg = ServeConfig::new(
        ArrivalProcess::Uniform { rate_qps: 1_000.0 },
        VirtualTime::from_millis(4),
    )
    .with_sessions(4);
    let runner = ServingRunner::new(&data.db, sim_k(1));
    let open = runner.run(&mix, Strategy::GpuPreferred, &cfg).expect("open loop");
    let streaming = runner
        .run_streaming(
            &mix,
            robustq::engine::FeedSchedule::default(),
            Vec::new(),
            Strategy::GpuPreferred,
            &cfg,
        )
        .expect("degenerate streaming");
    assert_eq!(open.metrics, streaming.metrics, "degenerate metrics drifted");
    assert_eq!(
        format!("{:?}", open.outcomes),
        format!("{:?}", streaming.arrival_outcomes),
        "degenerate outcomes drifted"
    );
    assert!(streaming.window_outcomes.is_empty());
}

/// One run mixing every kind of schedule entry — closed-loop sessions,
/// open-loop arrivals, a feed replay and standing-query ticks — which
/// only the single executor entry can express. Over seeded schedules at
/// K ∈ {1, 2}, under an admission limit and a queue cap tight enough to
/// shed: every offered query completes or is shed, the device heaps
/// drain, and every completed query returns what the reference kernels
/// return for its plan (its window's static snapshot, for a tick).
#[test]
fn mixed_schedules_conserve_queries_heaps_and_results() {
    let data = stream();
    let templates: Vec<_> = [SsbQuery::Q1_2, SsbQuery::Q2_3, SsbQuery::Q3_1, SsbQuery::Q4_1]
        .iter()
        .map(|q| q.plan(&data.db).expect("plan"))
        .collect();
    let truth: Vec<u64> = templates
        .iter()
        .map(|p| execute_plan(p, &data.db).expect("reference execution").checksum())
        .collect();
    let (mut shed, mut ticks_done, mut closed_done, mut arrivals_done) = (0u64, 0, 0, 0);
    for seed in [1u64, 2, 3, 4] {
        for k in [1usize, 2] {
            let mut rng = StdRng::seed_from_u64(seed);
            // `(session, seq)` → the checksum that query must return.
            let mut expected: HashMap<(usize, usize), u64> = HashMap::new();
            let n_sessions = rng.gen_range(1..4usize);
            let sessions: Vec<Vec<_>> = (0..n_sessions)
                .map(|session| {
                    (0..rng.gen_range(1..5usize))
                        .map(|seq| {
                            let t = rng.gen_range(0..templates.len());
                            expected.insert((session, seq), truth[t]);
                            templates[t].clone()
                        })
                        .collect()
                })
                .collect();
            // Arrivals come in bursts at the instants batches commit and
            // windows close, so they contend with the ticks for admission
            // and overflow the queue. Their one session label sits above
            // the closed sessions' indices.
            let mut times: Vec<u64> = (0..rng.gen_range(8..40usize))
                .map(|_| PERIOD.as_nanos() * rng.gen_range(0..=TICKS as u64))
                .collect();
            times.sort_unstable();
            let arrivals: Vec<Arrival> = times
                .into_iter()
                .enumerate()
                .map(|(seq, at)| {
                    let t = rng.gen_range(0..templates.len());
                    expected.insert((n_sessions, seq), truth[t]);
                    Arrival {
                        at: VirtualTime::from_nanos(at),
                        session: n_sessions as u32,
                        seq: seq as u32,
                        plan: templates[t].clone(),
                    }
                })
                .collect();
            let schedule = Schedule {
                sessions,
                arrivals,
                feed: data.feed_schedule(PERIOD, PERIOD),
                standing: standing(&data),
            };
            let offered = schedule.offered();
            let mut policy = Strategy::DataDrivenChopping.build();
            let opts = ExecOptions {
                max_concurrent_queries: 2,
                queue_cap: 3,
                shard_ways: if k >= 2 && !policy.caches_on_miss() { k } else { 0 },
                ..ExecOptions::default()
            };
            let mut caches = cold_caches(k);
            let out = Executor::new(&data.db, sim_k(k))
                .run_with_cache(schedule, policy.as_mut(), &opts, &mut caches)
                .expect("mixed run");
            assert_eq!(
                offered,
                out.outcomes.len() + out.metrics.shed as usize,
                "seed {seed} K={k}: offered != completed + shed"
            );
            assert_eq!(out.metrics.gpu_heap_leaked, 0, "seed {seed} K={k}: heap leaked");
            for o in &out.outcomes {
                let want = if o.session >= 1_000 {
                    ticks_done += 1;
                    oracle_chunk(&data, o.session - 1_000, o.seq).checksum()
                } else {
                    if o.session < n_sessions {
                        closed_done += 1;
                    } else {
                        arrivals_done += 1;
                    }
                    expected[&(o.session, o.seq)]
                };
                assert_eq!(
                    o.checksum, want,
                    "seed {seed} K={k}: query ({}, {}) returned a different result",
                    o.session, o.seq
                );
            }
            shed += out.metrics.shed;
        }
    }
    assert!(shed > 0, "the queue cap never shed — the conservation check was vacuous");
    assert!(
        ticks_done > 0 && closed_done > 0 && arrivals_done > 0,
        "a population never completed a query"
    );
}

/// The schedule is caller input. What would make the window-bound lookup
/// or the session bookkeeping silently wrong is rejected up front as a
/// configuration error — by a real check, so `cargo test --release`
/// passes this too — and never produces a result.
#[test]
fn inconsistent_schedules_are_config_errors() {
    let data = stream();
    let run = |schedule: Schedule| {
        let mut caches = cold_caches(1);
        let mut policy = Strategy::CpuOnly.build();
        Executor::new(&data.db, sim_k(1))
            .run_with_cache(schedule, policy.as_mut(), &ExecOptions::default(), &mut caches)
            .map(|out| out.outcomes.len())
    };
    let is_config = |r: Result<usize, EngineError>| matches!(r, Err(EngineError::Config(_)));
    let sorted = data.feed_schedule(PERIOD, PERIOD).events;

    // Commit instants out of order.
    let mut unsorted = sorted.clone();
    unsorted.swap(0, 2);
    assert!(is_config(run(Schedule {
        feed: FeedSchedule { events: unsorted },
        standing: standing(&data),
        ..Schedule::default()
    })));

    // Time-sorted, but a table's epochs replayed out of order.
    let mut swapped_epochs = sorted.clone();
    let (e0, e1) = (swapped_epochs[0].epoch, swapped_epochs[1].epoch);
    swapped_epochs[0].epoch = e1;
    swapped_epochs[1].epoch = e0;
    assert!(is_config(run(Schedule {
        feed: FeedSchedule { events: swapped_epochs },
        standing: standing(&data),
        ..Schedule::default()
    })));

    // An epoch no append committed under.
    let phantom = robustq::storage::DbEpoch(data.epochs.last().expect("batches").0 + 1);
    assert!(is_config(run(Schedule {
        feed: FeedSchedule { events: vec![FeedEvent { at: PERIOD, epoch: phantom }] },
        ..Schedule::default()
    })));

    // A standing query over a table the database does not have.
    let mut lost = standing(&data);
    lost[0].table = "no_such_table".to_owned();
    assert!(is_config(run(Schedule { standing: lost, ..Schedule::default() })));

    // An arrival labelled with a closed-loop session's index.
    let plan = SsbQuery::Q1_1.plan(&data.db).expect("plan");
    assert!(is_config(run(Schedule {
        sessions: vec![vec![plan.clone()]],
        arrivals: vec![Arrival { at: PERIOD, session: 0, seq: 0, plan }],
        ..Schedule::default()
    })));

    // The sorted schedule itself runs.
    assert_eq!(
        run(Schedule {
            feed: FeedSchedule { events: sorted },
            standing: standing(&data),
            ..Schedule::default()
        }),
        Ok(2 * TICKS as usize)
    );
}
