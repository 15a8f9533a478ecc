//! Every call from the harness into a `robustq-*` crate goes through this
//! file, so a later API change (ROADMAP item 2) has one file to follow.
//!
//! The functions here take and return plain harness types: a run of the
//! system is reduced to a [`Slice`] (per-query outcomes, summed virtual
//! counters and, when traced, the event stream), and a trace to the
//! counters and samples the per-layer metrics are made of. Nothing in this
//! file reads a wall clock: the callers time these calls from outside.

use robustq_core::{DataDrivenChopping, DataPlacementManager, Strategy};
use robustq_engine::exec::metrics::QueryOutcome;
use robustq_engine::exec::task::flatten;
use robustq_engine::plan::PlanNode;
use robustq_engine::{
    execute_plan_fused, ExecOptions, Executor, LazyChunk, ModelUpdate, PlacementPolicy, RunMetrics,
    StagingStats, WindowKind,
};
use robustq_serve::{ArrivalProcess, QueryMix, ServeConfig, ServingRunner};
use robustq_sim::{CacheSet, VirtualTime};
use robustq_sql::{lexer, parser, planner};
use robustq_storage::gen::ssb::SsbGenerator;
use robustq_storage::gen::tpch::TpchGenerator;
use robustq_trace::{chrome_trace_json, MetricsRegistry, TraceEvent, Tracer};
use robustq_workloads::{
    RunPhase, RunnerConfig, SsbQuery, SsbStreamData, SsbStreamGen, TpchQuery, WorkloadRunner,
};
use std::collections::BTreeMap;

pub use robustq_engine::ParallelCtx;
pub use robustq_sim::SimConfig;
pub use robustq_sql::ast::Query;
pub use robustq_storage::Database;
pub use robustq_trace::json::{parse as parse_json, write_escaped as write_json_string, Json};
pub use robustq_trace::TraceData;

/// A planned query.
pub type Plan = PlanNode;

/// The placement strategy of a pass: the one under test (Data-Driven
/// Chopping, the paper's §5.4 combination and the CLI default) or the
/// CPU-only reference every robustness claim is measured against.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Strat {
    DataDrivenChopping,
    CpuOnly,
}

impl Strat {
    fn strategy(self) -> Strategy {
        match self {
            Strat::DataDrivenChopping => Strategy::DataDrivenChopping,
            Strat::CpuOnly => Strategy::CpuOnly,
        }
    }
}

/// One completed query, reduced to what the harness compares and ranks.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Done {
    /// A standing-query window tick (false: an ad-hoc or closed-loop query).
    pub tick: bool,
    pub session: usize,
    pub seq: usize,
    pub latency_ns: u64,
    pub admit_wait_ns: u64,
    pub rows: usize,
    pub checksum: u64,
}

impl Done {
    fn new(o: &QueryOutcome, tick: bool, session: usize) -> Done {
        Done {
            tick,
            session,
            seq: o.seq,
            latency_ns: o.latency.as_nanos(),
            admit_wait_ns: o.admit_wait.as_nanos(),
            rows: o.rows,
            checksum: o.checksum,
        }
    }
}

/// Virtual-time counters of a slice, summed over its executor runs (one
/// run for the batch and serving workloads, one per statement for
/// `sql_adhoc`). All of them repeat exactly for a given seed.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Counters {
    pub makespan_ns: u64,
    pub h2d_bytes: u64,
    pub d2h_bytes: u64,
    pub aborts: u64,
    pub wasted_ns: u64,
    pub busy_cpu_ns: u64,
    pub busy_all_ns: u64,
    pub ops_cpu: u64,
    pub ops_all: u64,
    pub heap_peak_b: u64,
    pub heap_leaked_b: u64,
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub shed: u64,
}

impl Counters {
    fn absorb(&mut self, m: &RunMetrics) {
        self.makespan_ns += m.makespan.as_nanos();
        self.h2d_bytes += m.h2d_bytes;
        self.d2h_bytes += m.d2h_bytes;
        self.aborts += m.aborts;
        self.wasted_ns += m.wasted_time.as_nanos();
        for (i, (_, t)) in m.device_busy.iter().enumerate() {
            if i == 0 {
                self.busy_cpu_ns += t.as_nanos();
            }
            self.busy_all_ns += t.as_nanos();
        }
        for (i, (_, n)) in m.ops_completed.iter().enumerate() {
            if i == 0 {
                self.ops_cpu += n;
            }
            self.ops_all += n;
        }
        self.heap_peak_b = self.heap_peak_b.max(m.gpu_heap_peak);
        self.heap_leaked_b += m.gpu_heap_leaked;
        self.cache_hits += m.cache_hits;
        self.cache_misses += m.cache_misses;
        self.shed += m.shed;
    }
}

/// What one pass over a workload's fixed schedule produced.
#[derive(Debug, Default)]
pub struct Slice {
    /// Queries the host executed, a runner's built-in warm-up pass
    /// included (the numerator of `wall_queries_per_s`).
    pub executed: u64,
    /// Queries and window ticks offered to the measured run.
    pub offered: u64,
    /// Window ticks among `offered`.
    pub offered_ticks: u64,
    /// Completed queries, sorted by (tick, session, seq).
    pub done: Vec<Done>,
    pub counters: Counters,
    /// `|predicted − actual|` of every cost-model observation.
    pub model_abs_err_ns: Vec<u64>,
    pub staged_ops: u64,
    /// The measured run's events, when the pass was traced.
    pub trace: Option<TraceData>,
    /// Whether `RunMetrics::from_events` over the trace equalled the
    /// reported metrics of every executor run (traced passes only).
    pub reconciled: bool,
}

impl Slice {
    /// The part of a slice every runner's report fills the same way: the
    /// counters, the model errors, the staging count, and the trace with
    /// its reconciliation. The caller adds the offered and completed work.
    fn of_run(
        metrics: &RunMetrics,
        samples: &[ModelUpdate],
        staging: StagingStats,
        trace: Option<TraceData>,
    ) -> Slice {
        let mut slice = Slice {
            model_abs_err_ns: model_errs(samples).collect(),
            staged_ops: staging.staged_ops,
            reconciled: trace
                .as_ref()
                .is_some_and(|t| RunMetrics::from_events(&t.events) == *metrics),
            trace,
            ..Slice::default()
        };
        slice.counters.absorb(metrics);
        slice
    }

    fn finish(mut self) -> Slice {
        self.done.sort_by_key(|d| (d.tick, d.session, d.seq));
        self
    }
}

fn model_errs(samples: &[ModelUpdate]) -> impl Iterator<Item = u64> + '_ {
    samples
        .iter()
        .map(|s| s.predicted.as_nanos().abs_diff(s.actual.as_nanos()))
}

// ---------------------------------------------------------------- storage

/// The SSB database with `rows` lineorder rows.
pub fn gen_ssb(rows: usize, seed: u64) -> Database {
    SsbGenerator::new(1)
        .with_rows_per_sf(rows)
        .with_seed(seed)
        .generate()
}

/// The TPC-H database with `rows` lineitem rows.
pub fn gen_tpch(rows: usize, seed: u64) -> Database {
    TpchGenerator::new(1)
        .with_rows_per_sf(rows)
        .with_seed(seed)
        .generate()
}

pub fn db_bytes(db: &Database) -> u64 {
    db.byte_size()
}

/// Rows of the largest table (the fact table of both benchmarks).
pub fn fact_rows(db: &Database) -> usize {
    db.tables().iter().map(|t| t.num_rows()).max().unwrap_or(0)
}

/// The simulated machine scaled to a database as `loadgen` and `multigpu`
/// scale theirs: each of `k` co-processors gets a column cache of 0.47 ×
/// and device memory of 3.8 × the database bytes, so the working set
/// overflows one cache and placement decides the virtual numbers.
pub fn tight_machine(db: &Database, k: usize) -> SimConfig {
    let bytes = db.byte_size() as f64;
    SimConfig::default()
        .with_gpu_memory((3.8 * bytes) as u64)
        .with_gpu_cache((0.47 * bytes) as u64)
        .with_coprocessors(k)
}

/// The machine `robustq-cli` starts with.
pub fn default_machine() -> SimConfig {
    SimConfig::default()
}

// -------------------------------------------------------------------- sql

/// The 13 SSB query texts.
pub fn ssb_texts() -> Vec<&'static str> {
    SsbQuery::ALL.iter().map(|q| q.sql()).collect()
}

/// Every TPC-H query text the SQL subset can express.
pub fn tpch_texts() -> Vec<&'static str> {
    TpchQuery::ALL.iter().filter_map(|q| q.sql()).collect()
}

/// Tokens in `sql` (the lexer alone; `parse` tokenizes again itself).
pub fn tokenize(sql: &str) -> Result<usize, String> {
    lexer::tokenize(sql)
        .map(|t| t.len())
        .map_err(|e| e.to_string())
}

pub fn parse(sql: &str) -> Result<Query, String> {
    parser::parse(sql).map_err(|e| e.to_string())
}

pub fn plan(query: &Query, db: &Database) -> Result<Plan, String> {
    planner::plan(query, db).map_err(|e| e.to_string())
}

/// The 13 SSB plans against `db`, in flight order.
pub fn ssb_plans(db: &Database) -> Result<Vec<Plan>, String> {
    robustq_workloads::ssb::workload(db).map_err(|e| e.to_string())
}

// ------------------------------------------------------------ engine::ops

/// `(rows, checksum)` of a plan executed directly by the reference
/// kernels, with no simulator: what every executor result must equal.
pub fn direct(plan: &Plan, db: &Database) -> Result<(usize, u64), String> {
    robustq_engine::ops::execute_plan(plan, db).map(|c| (c.num_rows(), c.checksum()))
}

/// Run `plan` through the fused production kernels only, with no
/// simulator around them.
pub fn kernels_only(plan: &Plan, db: &Database, ctx: ParallelCtx) -> Result<(), String> {
    std::hint::black_box(execute_plan_fused(plan, db, ctx)?);
    Ok(())
}

/// Run `plan` one operator at a time through the kernels the executor
/// itself calls (`TaskOp::execute_lazy` over the flattened plan, late
/// materialization included), with no simulator and no sharding around
/// them: what `exec.non_kernel_wall_share_pct` counts as kernel time.
pub fn kernels_unfused(plan: &Plan, db: &Database, ctx: ParallelCtx) -> Result<(), String> {
    let tasks = flatten(plan);
    let mut outputs: Vec<Option<LazyChunk>> = vec![None; tasks.len()];
    for (i, task) in tasks.iter().enumerate() {
        // Postorder: every child ran before its one parent.
        let children: Vec<LazyChunk> = task
            .children
            .iter()
            .map(|&c| outputs[c].take().ok_or("child output missing"))
            .collect::<Result<_, _>>()?;
        outputs[i] = Some(task.op.execute_lazy(&children, db, ctx)?);
    }
    std::hint::black_box(outputs.pop());
    Ok(())
}

/// Worker threads a kernel over `rows` rows actually fans out to.
pub fn workers_effective(ctx: ParallelCtx, rows: usize) -> usize {
    if ctx.fans_out(rows) {
        (rows / ctx.min_rows_per_worker.max(1)).clamp(1, ctx.workers)
    } else {
        1
    }
}

// ------------------------------------------------- closed loop (workloads)

/// The closed-loop batch set-up of `multigpu --shard`.
pub struct ClosedLoop<'a> {
    pub db: &'a Database,
    pub sim: SimConfig,
    pub queries: &'a [Plan],
    pub users: usize,
    /// Shard leaf scans this many ways (also the partitioning degree of
    /// the data placement manager).
    pub shard_ways: usize,
    pub parallel: ParallelCtx,
}

impl ClosedLoop<'_> {
    fn config(&self, trace: bool) -> RunnerConfig {
        let mut cfg = RunnerConfig::default()
            .with_users(self.users)
            .with_sharding(self.shard_ways, 0.0)
            .with_parallel(self.parallel);
        cfg.trace = trace;
        cfg
    }

    fn policy(&self, strat: Strat) -> Box<dyn PlacementPolicy> {
        match strat {
            Strat::DataDrivenChopping => Box::new(DataDrivenChopping::with_manager(
                DataPlacementManager::lfu().with_sharding(self.shard_ways, self.db.byte_size() / 8),
            )),
            Strat::CpuOnly => Strategy::CpuOnly.build(),
        }
    }

    /// Fresh policy, fresh caches, the runner's warm-up pass, then the
    /// measured run of `queries`.
    pub fn run(&self, strat: Strat, trace: bool) -> Result<Slice, String> {
        let cfg = self.config(trace);
        let mut policy = self.policy(strat);
        let report = WorkloadRunner::new(self.db, self.sim.clone())
            .run_with_policy(self.queries, policy.as_mut(), strat.strategy().name(), &cfg)
            .map_err(|e| e.to_string())?;
        let slice = Slice {
            executed: (self.queries.len() * (1 + cfg.warmup_runs)) as u64,
            offered: self.queries.len() as u64,
            done: report
                .outcomes
                .iter()
                .map(|o| Done::new(o, false, o.session))
                .collect(),
            ..Slice::of_run(
                &report.metrics,
                &report.model_samples,
                report.staging,
                report.trace,
            )
        };
        Ok(slice.finish())
    }

    /// Only the runner's built-in warm-up pass (fresh policy and caches),
    /// so its share of a slice can be timed from outside.
    pub fn warmup_pass_only(&self) -> Result<usize, String> {
        let cfg = self.config(false);
        let mut policy = self.policy(Strat::DataDrivenChopping);
        let mut cache = CacheSet::for_topology(&self.sim.topology, self.sim.cache_policy);
        self.db.stats().reset();
        Executor::new(self.db, self.sim.clone())
            .run_with_cache(
                WorkloadRunner::sessions(self.queries, self.users),
                policy.as_mut(),
                &cfg.exec_options(RunPhase::Warmup),
                &mut cache,
            )
            .map(|out| out.outcomes.len())
            .map_err(|e| e.to_string())
    }
}

// ------------------------------------------------------ open loop (serve)

/// The open-loop serving set-up of `loadgen`.
#[derive(Debug, Clone)]
pub struct OpenLoop {
    pub rate_qps: f64,
    pub horizon_ns: u64,
    pub seed: u64,
    pub sessions: usize,
    pub admission_limit: usize,
    pub queue_cap: usize,
}

impl OpenLoop {
    fn config(&self, trace: bool) -> ServeConfig {
        let mut cfg = ServeConfig::new(
            ArrivalProcess::Poisson {
                rate_qps: self.rate_qps,
            },
            VirtualTime::from_nanos(self.horizon_ns),
        )
        .with_sessions(self.sessions)
        .with_seed(self.seed)
        .with_admission_limit(self.admission_limit)
        .with_queue_cap(self.queue_cap);
        cfg.trace = trace;
        cfg
    }
}

/// A Zipf-skewed mix over plan templates.
pub struct Mix(QueryMix);

impl Mix {
    pub fn zipf(templates: Vec<Plan>, theta: f64) -> Mix {
        Mix(QueryMix::zipf(templates, theta))
    }

    pub fn templates(&self) -> &[Plan] {
        self.0.templates()
    }
}

/// One scheduled open-loop submission.
#[derive(Debug, Clone)]
pub struct Scheduled {
    pub session: usize,
    pub seq: usize,
    pub plan: Plan,
}

/// The arrival schedule `open` draws over `mix` — what
/// `ServingRunner::run` will submit — in arrival order.
pub fn arrivals(mix: &Mix, open: &OpenLoop) -> Vec<Scheduled> {
    ServingRunner::arrivals(&mix.0, &open.config(false))
        .into_iter()
        .map(|a| Scheduled {
            session: a.session as usize,
            seq: a.seq as usize,
            plan: a.plan,
        })
        .collect()
}

/// Serve `mix` open loop: fresh policy and caches, one warm-up pass over
/// the templates, then the measured arrival schedule.
pub fn serve_open(
    db: &Database,
    sim: &SimConfig,
    mix: &Mix,
    open: &OpenLoop,
    strat: Strat,
    trace: bool,
) -> Result<Slice, String> {
    let cfg = open.config(trace);
    let report = ServingRunner::new(db, sim.clone())
        .run(&mix.0, strat.strategy(), &cfg)
        .map_err(|e| e.to_string())?;
    let slice = Slice {
        executed: (report.completed() + mix.0.len() * cfg.warmup_runs) as u64,
        offered: report.offered as u64,
        done: report
            .outcomes
            .iter()
            .map(|o| Done::new(o, false, o.session))
            .collect(),
        ..Slice::of_run(
            &report.metrics,
            &report.model_samples,
            report.staging,
            report.trace,
        )
    };
    Ok(slice.finish())
}

/// Only the serving runner's warm-up work: the templates once, closed
/// loop, on a fresh policy and fresh caches.
pub fn serve_warmup_only(
    db: &Database,
    sim: &SimConfig,
    templates: &[Plan],
) -> Result<usize, String> {
    let mut policy = Strategy::DataDrivenChopping.build();
    let mut cache = CacheSet::for_topology(&sim.topology, sim.cache_policy);
    db.stats().reset();
    Executor::new(db, sim.clone())
        .run_with_cache(
            WorkloadRunner::sessions(templates, 1),
            policy.as_mut(),
            &ExecOptions::default(),
            &mut cache,
        )
        .map(|out| out.outcomes.len())
        .map_err(|e| e.to_string())
}

// ------------------------------------------------------------- sql ad hoc

/// One `robustq-cli` session: a database, a machine, and the policy and
/// co-processor caches that persist from statement to statement.
pub struct SqlSession<'a> {
    db: &'a Database,
    sim: SimConfig,
    policy: Box<dyn PlacementPolicy>,
    cache: CacheSet,
    tracer: Tracer,
}

impl<'a> SqlSession<'a> {
    pub fn new(db: &'a Database, sim: SimConfig, strat: Strat, trace: bool) -> Self {
        // A new shell is a new process: no access statistics yet. (The
        // runners reset them themselves at the start of every run.)
        db.stats().reset();
        let cache = CacheSet::for_topology(&sim.topology, sim.cache_policy);
        SqlSession {
            db,
            sim,
            policy: strat.strategy().build(),
            cache,
            tracer: if trace {
                Tracer::new()
            } else {
                Tracer::disabled()
            },
        }
    }

    pub fn db(&self) -> &'a Database {
        self.db
    }

    /// Execute one planned statement exactly as the shell does — a fresh
    /// `Executor`, results captured — and fold it into `slice`.
    pub fn execute(&mut self, plan: Plan, seq: usize, slice: &mut Slice) -> Result<(), String> {
        let executor = Executor::new(self.db, self.sim.clone());
        let opts = ExecOptions {
            capture_results: true,
            tracer: self.tracer.clone(),
            ..Default::default()
        };
        let mark = self.tracer.mark();
        let out = executor
            .run_with_cache(
                vec![vec![plan]],
                self.policy.as_mut(),
                &opts,
                &mut self.cache,
            )
            .map_err(|e| e.to_string())?;
        let outcome = out
            .outcomes
            .first()
            .ok_or("statement produced no outcome")?;
        let result = outcome.result.as_ref().ok_or("result was not captured")?;
        let mut done = Done::new(outcome, false, 0);
        done.seq = seq;
        done.rows = result.num_rows();
        slice.done.push(done);
        slice.executed += 1;
        slice.offered += 1;
        slice.counters.absorb(&out.metrics);
        slice
            .model_abs_err_ns
            .extend(model_errs(&out.model_samples));
        slice.staged_ops += out.staging.staged_ops;
        if self.tracer.is_enabled() {
            let events = self.tracer.events_since(mark);
            slice.reconciled &=
                events.is_some_and(|ev| RunMetrics::from_events(&ev) == out.metrics);
        }
        Ok(())
    }

    /// Drain the session's trace (empty when tracing is off).
    pub fn take_trace(&self) -> TraceData {
        self.tracer.take()
    }
}

// ---------------------------------------------------------------- streams

/// The SSB append feed: static dimensions, a `lineorder` base and the
/// rest of the fact table arriving in append batches.
#[derive(Debug, Clone)]
pub struct StreamSpec {
    pub rows: usize,
    pub batches: usize,
    pub seal_rows: usize,
    pub seed: u64,
}

/// A built stream database with its append history.
pub struct Stream(SsbStreamData);

/// Build the stream database: the base fraction registered, then every
/// batch appended through `Database::append_batch`.
pub fn build_stream(spec: &StreamSpec) -> Result<Stream, String> {
    SsbStreamGen::new(1)
        .with_rows_per_sf(spec.rows)
        .with_seed(spec.seed)
        .with_batches(spec.batches)
        .with_seal_rows(spec.seal_rows)
        .build()
        .map(Stream)
        .map_err(|e| e.to_string())
}

/// The standing queries of the streaming workload: Q1.1 over a tumbling
/// window and Q3.3 over a sliding window of two periods.
const STANDING: [SsbQuery; 2] = [SsbQuery::Q1_1, SsbQuery::Q3_3];

impl Stream {
    pub fn db(&self) -> &Database {
        &self.0.db
    }

    pub fn appends(&self) -> usize {
        self.0.epochs.len()
    }

    pub fn appended_rows(&self) -> usize {
        self.0.db.append_log().iter().map(|r| r.rows).sum()
    }

    /// `(rows, checksum)` the tick `tick` of standing query `standing`
    /// must produce: its plan run one-shot, by the reference kernels, on
    /// a static database cut to the window's rows.
    pub fn tick_oracle(&self, standing: usize, tick: usize) -> Result<(usize, u64), String> {
        // Batch k commits at (k+1)·period: the tumbling tick k sees batch
        // k alone, the sliding one (two periods long) batches k−1 and k.
        let first_batch = if standing == 0 {
            tick
        } else {
            tick.saturating_sub(1)
        };
        let (lo, hi) = (
            self.0.visible_after(first_batch),
            self.0.visible_after(tick + 1),
        );
        let window = self.0.window_db(lo, hi);
        let plan = STANDING[standing]
            .plan(&window)
            .map_err(|e| e.to_string())?;
        direct(&plan, &window)
    }

    /// Replay the feed in virtual time — one batch and one tick of each
    /// standing query per `period_ns` — beside the Poisson ad-hoc arrivals
    /// of `open`. Fresh policy and caches; the runner warms up on the
    /// templates and the standing plans first.
    pub fn replay(
        &self,
        sim: &SimConfig,
        mix: &Mix,
        open: &OpenLoop,
        period_ns: u64,
        strat: Strat,
        trace: bool,
    ) -> Result<Slice, String> {
        let period = VirtualTime::from_nanos(period_ns);
        let ticks = self.appends() as u32;
        let kinds = [
            WindowKind::Tumbling,
            WindowKind::Sliding {
                length: VirtualTime::from_nanos(2 * period_ns),
            },
        ];
        let mut standing = Vec::new();
        for (q, kind) in STANDING.into_iter().zip(kinds) {
            standing.push(
                self.0
                    .standing_query(q, kind, period, ticks)
                    .map_err(|e| e.to_string())?,
            );
        }
        let cfg = open.config(trace);
        let pool = cfg.sessions;
        let warm = (mix.0.len() + standing.len()) * cfg.warmup_runs;
        let report = ServingRunner::new(&self.0.db, sim.clone())
            .run_streaming(
                &mix.0,
                self.0.feed_schedule(period, period),
                standing,
                strat.strategy(),
                &cfg,
            )
            .map_err(|e| e.to_string())?;
        let arrivals = report
            .arrival_outcomes
            .iter()
            .map(|o| Done::new(o, false, o.session));
        let ticks_done = report
            .window_outcomes
            .iter()
            .map(|o| Done::new(o, true, o.session - pool));
        let slice = Slice {
            executed: (report.completed() + warm) as u64,
            offered: (report.offered_arrivals + report.offered_ticks) as u64,
            offered_ticks: report.offered_ticks as u64,
            done: arrivals.chain(ticks_done).collect(),
            ..Slice::of_run(
                &report.metrics,
                &report.model_samples,
                report.staging,
                report.trace,
            )
        };
        Ok(slice.finish())
    }

    /// The plans a replay executes beyond the mix templates.
    pub fn standing_plans(&self) -> Result<Vec<Plan>, String> {
        STANDING
            .iter()
            .map(|q| q.plan(&self.0.db).map_err(|e| e.to_string()))
            .collect()
    }
}

// ------------------------------------------------------------------ trace

/// The counters `MetricsRegistry::from_events` derives from a trace.
pub fn registry_counters(trace: &TraceData) -> BTreeMap<String, u64> {
    MetricsRegistry::from_events(&trace.events)
        .counters()
        .map(|(k, v)| (k.to_owned(), v))
        .collect()
}

/// Length of the Chrome `trace_event` export of a trace.
pub fn chrome_export_len(trace: &TraceData) -> usize {
    chrome_trace_json(&trace.events).len()
}

/// Exact virtual-time samples read off the event stream (the registry
/// keeps them in power-of-two buckets only).
#[derive(Debug, Default)]
pub struct EventSamples {
    pub op_queue_wait_ns: Vec<u64>,
    pub shard_merge_ns: Vec<u64>,
    pub transfer_service_ns: Vec<u64>,
}

pub fn event_samples(trace: &TraceData) -> EventSamples {
    let mut s = EventSamples::default();
    for ev in &trace.events {
        match *ev {
            TraceEvent::OpSpan {
                queued_at, start, ..
            } => s
                .op_queue_wait_ns
                .push(start.saturating_sub(queued_at).as_nanos()),
            TraceEvent::ShardMerge { start, end, .. } => {
                s.shard_merge_ns.push(end.saturating_sub(start).as_nanos())
            }
            TraceEvent::Transfer { service, .. } => s.transfer_service_ns.push(service.as_nanos()),
            _ => {}
        }
    }
    s
}
