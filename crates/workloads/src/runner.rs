//! The paper's measured-run procedure, and the closed-loop multi-user
//! workloads that run through it.
//!
//! Section 6.1: workloads are run twice to warm up (populating access
//! statistics, the strategy's learned cost model — one regression per
//! operator class and device, which the measured run keeps using — and
//! the data placement), access
//! structures are pre-loaded into the co-processor memory until the
//! buffer is full, and then the measured run executes a *fixed total
//! number of queries* distributed over `users` parallel sessions.
//! [`WorkloadRunner::run_schedule`] is that procedure for any
//! [`Schedule`]; the serving runner passes it arrival and streaming
//! schedules, so every measured run in the repository goes through it.

use robustq_core::Strategy;
use robustq_engine::exec::metrics::QueryOutcome;
use robustq_engine::plan::PlanNode;
use robustq_engine::{
    EngineError, ExecOptions, Executor, ModelUpdate, ParallelCtx, PlacementPolicy,
    RunMetrics, Schedule, StagingStats,
};
use robustq_sim::{CacheSet, FaultPlan, SimConfig, VirtualTime};
use robustq_storage::{ColumnId, Database};
use robustq_trace::{chrome_trace_json, MetricsRegistry, TraceData, Tracer};
use std::collections::BTreeMap;

/// Runner options: what the Section 6.1 procedure itself decides, plus
/// the executor options every run of the procedure shares.
#[derive(Debug, Clone)]
pub struct RunnerConfig {
    /// Parallel closed-loop sessions: the warm-up passes distribute
    /// their plans over this many, and so does a closed-loop measured
    /// run.
    pub users: usize,
    /// Warm-up executions of the full workload before measuring.
    pub warmup_runs: usize,
    /// Pin the hottest columns into the co-processor cache before the
    /// measured run. Usually unnecessary — warm-up runs already leave the
    /// cache warm (it persists across runs) — but useful for hot-cache
    /// scenarios without warm-up, like Figure 1's hot case.
    pub preload_hot_columns: bool,
    /// Record a structured trace of the *measured* run (warm-up runs are
    /// never traced). Read it back from [`RunReport::trace`].
    pub trace: bool,
    /// The executor options of the measured run, declared once in
    /// [`ExecOptions`]. Warm-up runs get the same options minus what
    /// would spoil the trained state or the report (see
    /// [`RunnerConfig::exec_options`]); `tracer` is the procedure's to
    /// set, from `trace`, and `preload` is replaced by the ranked hot
    /// columns when `preload_hot_columns` is set.
    pub exec: ExecOptions,
}

/// Which phase of the Section 6.1 run procedure an [`ExecOptions`] set
/// is built for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunPhase {
    /// Warm-up executions: fault-free, untraced, never shedding, no
    /// pre-load, results dropped.
    Warmup,
    /// The measured run: faults, tracing, shedding and result capture
    /// apply.
    Measured,
}

impl Default for RunnerConfig {
    fn default() -> Self {
        RunnerConfig {
            users: 1,
            warmup_runs: 1,
            preload_hot_columns: false,
            trace: false,
            exec: ExecOptions::default(),
        }
    }
}

impl RunnerConfig {
    /// Set the number of parallel sessions.
    pub fn with_users(mut self, users: usize) -> Self {
        self.users = users.max(1);
        self
    }

    /// Fully cold start: no warm-up, no pre-load.
    pub fn cold_cache(mut self) -> Self {
        self.preload_hot_columns = false;
        self.warmup_runs = 0;
        self
    }

    /// Pin the hottest columns before the measured run.
    pub fn with_preload(mut self) -> Self {
        self.preload_hot_columns = true;
        self
    }

    /// Record a structured trace of the measured run.
    pub fn with_trace(mut self) -> Self {
        self.trace = true;
        self
    }

    /// Admit at most `n` queries concurrently (admission control).
    pub fn with_admission_limit(mut self, n: usize) -> Self {
        self.exec.max_concurrent_queries = n.max(1);
        self
    }

    /// Run the data-placement background job every `n` completed queries.
    pub fn with_placement_period(mut self, n: usize) -> Self {
        self.exec.placement_update_period = n;
        self
    }

    /// Run the hot kernels with the given parallelism context.
    pub fn with_parallel(mut self, parallel: ParallelCtx) -> Self {
        self.exec.parallel = parallel;
        self
    }

    /// Inject faults from `plan` during the measured run (warm-up runs
    /// are always fault-free so the trained state matches the clean run).
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> Self {
        self.exec.fault = plan;
        self
    }

    /// Shard qualifying leaf scans `ways` ways across the co-processor
    /// fleet; only scans of at least `min_bytes` estimated input qualify.
    /// At two or more ways a run under a strategy that caches on a miss
    /// fails with [`EngineError::Config`]: sharding is data-driven only.
    pub fn with_sharding(mut self, ways: usize, min_bytes: f64) -> Self {
        self.exec.shard_ways = ways;
        self.exec.shard_min_bytes = min_bytes;
        self
    }

    /// Stage over-heap operators through the co-processor in chunks
    /// instead of aborting them to the CPU.
    pub fn with_chunked_staging(mut self) -> Self {
        self.exec.chunked_staging = true;
        self
    }

    /// The executor options for one phase of the run procedure — the
    /// single place runner configuration maps onto [`ExecOptions`], and
    /// the single place that knows what a warm-up run must not do:
    /// inject faults, trace, shed, pre-load or keep results.
    pub fn exec_options(&self, phase: RunPhase) -> ExecOptions {
        match phase {
            RunPhase::Measured => ExecOptions {
                tracer: if self.trace { Tracer::new() } else { Tracer::disabled() },
                ..self.exec.clone()
            },
            RunPhase::Warmup => ExecOptions {
                capture_results: false,
                preload: Vec::new(),
                fault: FaultPlan::disabled(),
                tracer: Tracer::disabled(),
                queue_cap: usize::MAX,
                ..self.exec.clone()
            },
        }
    }
}

/// Nearest-rank `p`-th percentile (`0.0 < p <= 100.0`) over unsorted
/// virtual-time samples; zero for an empty set.
pub fn percentile(values: impl Iterator<Item = VirtualTime>, p: f64) -> VirtualTime {
    let mut v: Vec<VirtualTime> = values.collect();
    if v.is_empty() {
        return VirtualTime::ZERO;
    }
    v.sort();
    let p = p.clamp(f64::MIN_POSITIVE, 100.0);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.saturating_sub(1)]
}

/// Result of one measured run, whatever its schedule: closed-loop batch
/// workloads and open-loop serving runs report through this one type
/// (`robustq_serve::ServingReport` is its serving name).
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Display name of the strategy that ran.
    pub strategy: &'static str,
    /// Number of parallel closed-loop sessions ([`RunnerConfig::users`]).
    pub users: usize,
    /// Queries the measured schedule offered: the workload length (closed
    /// loop), the scheduled arrivals (open loop), window ticks included.
    /// `offered == completed() + metrics.shed` always holds.
    pub offered: usize,
    /// Aggregated run metrics.
    pub metrics: RunMetrics,
    /// Per-query outcomes, in completion order. Latency spans
    /// *submission* to completion, so it includes admission queueing
    /// ([`QueryOutcome::admit_wait`] is the queueing share).
    pub outcomes: Vec<QueryOutcome>,
    /// The measured run's event stream, when [`RunnerConfig::trace`] was
    /// set (`None` otherwise).
    pub trace: Option<TraceData>,
    /// Every cost-model observation of the measured run, in completion
    /// order (est-vs-actual audit: `predicted` against the `actual` span).
    pub model_samples: Vec<ModelUpdate>,
    /// Chunked-staging counters of the measured run.
    pub staging: StagingStats,
}

/// `(session, seq) -> (rows, checksum)`: what every query of a run
/// returned, keyed by its slot in the schedule.
pub type ResultFingerprints = BTreeMap<(usize, usize), (usize, u64)>;

impl RunReport {
    /// Queries that completed.
    pub fn completed(&self) -> usize {
        self.outcomes.len()
    }

    /// The result fingerprint of the run — what a differential check
    /// (faults, co-processor count, sharding, staging) must reproduce.
    pub fn result_fingerprints(&self) -> ResultFingerprints {
        self.outcomes
            .iter()
            .map(|o| ((o.session, o.seq), (o.rows, o.checksum)))
            .collect()
    }

    /// The Chrome `trace_event` JSON for the measured run (load it in
    /// Perfetto or `chrome://tracing`). `None` when the run was untraced.
    pub fn chrome_trace(&self) -> Option<String> {
        self.trace.as_ref().map(|t| chrome_trace_json(&t.events))
    }

    /// Counters and histograms derived from the measured run's event
    /// stream. `None` when the run was untraced.
    pub fn metrics_registry(&self) -> Option<MetricsRegistry> {
        self.trace.as_ref().map(|t| MetricsRegistry::from_events(&t.events))
    }

    /// Mean query latency (completed queries only).
    pub fn mean_latency(&self) -> VirtualTime {
        RunMetrics::mean_latency(&self.outcomes)
    }

    /// The `p`-th latency percentile (see [`percentile`]).
    pub fn latency_percentile(&self, p: f64) -> VirtualTime {
        percentile(self.outcomes.iter().map(|o| o.latency), p)
    }

    /// The `p`-th admission-wait percentile — the queueing share of
    /// latency.
    pub fn admit_wait_percentile(&self, p: f64) -> VirtualTime {
        percentile(self.outcomes.iter().map(|o| o.admit_wait), p)
    }

    /// Median latency.
    pub fn p50(&self) -> VirtualTime {
        self.latency_percentile(50.0)
    }

    /// 95th-percentile latency — the tail the paper's worst-case-execution
    /// -time argument is about.
    pub fn p95(&self) -> VirtualTime {
        self.latency_percentile(95.0)
    }

    /// 99th-percentile latency — the serving-SLO headline number.
    pub fn p99(&self) -> VirtualTime {
        self.latency_percentile(99.0)
    }

    /// 99.9th-percentile latency.
    pub fn p999(&self) -> VirtualTime {
        self.latency_percentile(99.9)
    }

    /// Completed queries per virtual second (goodput), over the run's
    /// makespan.
    pub fn qps(&self) -> f64 {
        let secs = self.metrics.makespan.as_nanos() as f64 / 1e9;
        if secs > 0.0 {
            self.outcomes.len() as f64 / secs
        } else {
            0.0
        }
    }

    /// Latency of the `k`-th query of the original workload list (queries
    /// are distributed round-robin over sessions).
    pub fn latency_of_query(&self, k: usize) -> Option<VirtualTime> {
        let session = k % self.users;
        let seq = k / self.users;
        self.outcomes
            .iter()
            .find(|o| o.session == session && o.seq == seq)
            .map(|o| o.latency)
    }

    /// Mean latency over every repetition of original workload index
    /// `k mod workload_len` (useful when the workload list is the same
    /// query set repeated).
    pub fn mean_latency_of_slot(&self, slot: usize, workload_len: usize) -> VirtualTime {
        let mut total = 0u64;
        let mut n = 0u64;
        let mut k = slot;
        while let Some(l) = self.latency_of_query(k) {
            total += l.as_nanos();
            n += 1;
            k += workload_len;
        }
        match total.checked_div(n) {
            Some(mean) => VirtualTime::from_nanos(mean),
            None => VirtualTime::ZERO,
        }
    }
}

/// The workload runner: a database plus a simulated machine.
pub struct WorkloadRunner<'a> {
    db: &'a Database,
    config: SimConfig,
}

impl<'a> WorkloadRunner<'a> {
    /// A runner over `db` and the given machine.
    pub fn new(db: &'a Database, config: SimConfig) -> Self {
        WorkloadRunner { db, config }
    }

    /// The simulated machine configuration.
    pub fn config(&self) -> &SimConfig {
        &self.config
    }

    /// Distribute `queries` round-robin over `users` sessions.
    pub fn sessions(queries: &[PlanNode], users: usize) -> Vec<Vec<PlanNode>> {
        let users = users.max(1);
        let mut sessions: Vec<Vec<PlanNode>> = vec![Vec::new(); users];
        for (i, q) in queries.iter().enumerate() {
            sessions[i % users].push(q.clone());
        }
        sessions
    }

    /// The hottest columns by access count, greedily packed into
    /// `capacity` bytes (the Section 6.1 pre-load).
    pub fn hot_columns(db: &Database, capacity: u64) -> Vec<ColumnId> {
        let stats = db.stats();
        let mut ranked: Vec<(ColumnId, u64)> = db
            .all_column_ids()
            .map(|id| (id, stats.access_count(id.index())))
            .filter(|&(_, c)| c > 0)
            .collect();
        ranked.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        let mut budget = capacity;
        let mut out = Vec::new();
        for (id, _) in ranked {
            let bytes = db.column_size(id);
            if bytes <= budget {
                budget -= bytes;
                out.push(id);
            }
        }
        out
    }

    /// Run `queries` (the fixed total workload) closed-loop under
    /// `strategy`, by [`WorkloadRunner::run_schedule`].
    pub fn run(
        &self,
        queries: &[PlanNode],
        strategy: Strategy,
        cfg: &RunnerConfig,
    ) -> Result<RunReport, EngineError> {
        let mut policy = strategy.build();
        self.run_with_policy(queries, policy.as_mut(), strategy.name(), cfg)
    }

    /// Like [`WorkloadRunner::run`] with a caller-constructed policy
    /// (custom data-placement budgets, slot overrides, …).
    pub fn run_with_policy(
        &self,
        queries: &[PlanNode],
        policy: &mut dyn PlacementPolicy,
        label: &'static str,
        cfg: &RunnerConfig,
    ) -> Result<RunReport, EngineError> {
        let schedule = || Self::sessions(queries, cfg.users).into();
        self.run_schedule(queries, schedule, policy, label, cfg)
    }

    /// The measured-run procedure of Section 6.1, for any schedule:
    /// reset the access statistics (so strategies are compared fairly),
    /// start from cold co-processor caches, execute the `warmup` plans
    /// closed-loop [`RunnerConfig::warmup_runs`] times (repopulating the
    /// statistics, the learned cost models and the data placement), then
    /// run the schedule measured and report it. Closed-loop, open-loop
    /// and streaming runs differ only in the schedule they pass.
    ///
    /// `schedule` is called once the warm-up passes are over. An arrival
    /// list of thousands of plans built before them would be allocated
    /// underneath their garbage; on the `ssb_serve_open` benchmark
    /// workload that order put the peak RSS in the allocator's high mode
    /// (+11 %) in 10 runs of 10, against 5–9 of 10 with the schedule
    /// built last.
    pub fn run_schedule(
        &self,
        warmup: &[PlanNode],
        schedule: impl FnOnce() -> Schedule,
        policy: &mut dyn PlacementPolicy,
        label: &'static str,
        cfg: &RunnerConfig,
    ) -> Result<RunReport, EngineError> {
        self.db.stats().reset();
        let executor = Executor::new(self.db, self.config.clone());
        // The caches persist across warm-up and measured runs, exactly
        // like device memory across the paper's warm-up executions.
        let mut cache = CacheSet::for_topology(&self.config.topology, self.config.cache_policy);

        let warm_opts = cfg.exec_options(RunPhase::Warmup);
        for _ in 0..cfg.warmup_runs {
            executor.run_with_cache(
                Self::sessions(warmup, cfg.users),
                policy,
                &warm_opts,
                &mut cache,
            )?;
        }

        let mut opts = cfg.exec_options(RunPhase::Measured);
        if cfg.preload_hot_columns {
            opts.preload = Self::hot_columns(self.db, self.config.gpu().cache_bytes);
        }
        let schedule = schedule();
        let offered = schedule.offered();
        let out = executor.run_with_cache(schedule, policy, &opts, &mut cache)?;
        Ok(RunReport {
            strategy: label,
            users: cfg.users,
            offered,
            metrics: out.metrics,
            outcomes: out.outcomes,
            trace: opts.tracer.is_enabled().then(|| opts.tracer.take()),
            model_samples: out.model_samples,
            staging: out.staging,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::micro;
    use robustq_storage::gen::ssb::SsbGenerator;

    fn db() -> Database {
        SsbGenerator::new(1).with_rows_per_sf(2_000).generate()
    }

    #[test]
    fn sessions_distribute_round_robin() {
        let q = micro::parallel_selection_workload(7);
        let s = WorkloadRunner::sessions(&q, 3);
        assert_eq!(s.len(), 3);
        assert_eq!(s[0].len(), 3);
        assert_eq!(s[1].len(), 2);
        assert_eq!(s[2].len(), 2);
    }

    #[test]
    fn run_cpu_only_micro_workload() {
        let db = db();
        let runner = WorkloadRunner::new(&db, SimConfig::default());
        let queries = micro::parallel_selection_workload(6);
        let report = runner
            .run(&queries, Strategy::CpuOnly, &RunnerConfig::default().with_users(2))
            .unwrap();
        assert_eq!(report.outcomes.len(), 6);
        assert_eq!(report.metrics.h2d_bytes, 0);
        assert!(report.mean_latency() > VirtualTime::ZERO);
    }

    #[test]
    fn latency_slot_mapping() {
        let db = db();
        let runner = WorkloadRunner::new(&db, SimConfig::default());
        let queries = micro::parallel_selection_workload(4);
        let report = runner
            .run(&queries, Strategy::CpuOnly, &RunnerConfig::default().with_users(2))
            .unwrap();
        for k in 0..4 {
            assert!(report.latency_of_query(k).is_some(), "query {k}");
        }
        assert!(report.latency_of_query(4).is_none());
        assert!(report.mean_latency_of_slot(0, 4) > VirtualTime::ZERO);
    }

    #[test]
    fn warmup_trains_data_driven_placement() {
        let db = db();
        let runner = WorkloadRunner::new(&db, SimConfig::default());
        let queries = micro::serial_selection_workload(2);
        let report =
            runner.run(&queries, Strategy::DataDriven, &RunnerConfig::default()).unwrap();
        assert_eq!(report.outcomes.len(), 16);
        // After warmup the filter columns are pinned, so the measured run
        // executes selections on the GPU. (Data-Driven Chopping's model
        // would rightly keep these 2 000-row selections on the CPU: the
        // result's 2 µs return outweighs what the GPU saves.)
        assert!(
            report.metrics.ops_completed[robustq_sim::DeviceId::Gpu] > 0,
            "expected co-processor work after warmup"
        );
    }

    /// Every report percentile is the one nearest-rank [`percentile`].
    #[test]
    fn percentiles_are_nearest_rank() {
        let report = |n: u64| RunReport {
            strategy: "test",
            users: 1,
            offered: n as usize,
            metrics: RunMetrics::default(),
            outcomes: (1..=n)
                .map(|ms| QueryOutcome {
                    session: 0,
                    seq: 0,
                    latency: VirtualTime::from_millis(ms),
                    admit_wait: VirtualTime::from_millis(ms / 2),
                    rows: 0,
                    checksum: 0,
                    faults: Default::default(),
                    result: None,
                })
                .collect(),
            trace: None,
            model_samples: vec![],
            staging: StagingStats::default(),
        };
        let full = report(100);
        assert_eq!(full.latency_percentile(1.0), VirtualTime::from_millis(1));
        assert_eq!(full.p50(), VirtualTime::from_millis(50));
        assert_eq!(full.p95(), VirtualTime::from_millis(95));
        assert_eq!(full.p99(), VirtualTime::from_millis(99));
        assert_eq!(full.p999(), VirtualTime::from_millis(100));
        assert_eq!(full.latency_percentile(100.0), VirtualTime::from_millis(100));
        assert_eq!(full.admit_wait_percentile(50.0), VirtualTime::from_millis(25));
        assert_eq!(report(0).p95(), VirtualTime::ZERO);
    }

    #[test]
    fn hot_columns_respect_budget() {
        let db = db();
        for (c, _, _) in micro::SERIAL_SELECTIONS {
            let id = db.column_id("lineorder", c).unwrap();
            db.stats().record_access(id.index());
        }
        let cols = WorkloadRunner::hot_columns(&db, 3 * 8_000);
        assert!(!cols.is_empty());
        let total: u64 = cols.iter().map(|&c| db.column_size(c)).sum();
        assert!(total <= 3 * 8_000);
    }

    #[test]
    fn admission_control_config_plumbs_through() {
        let db = db();
        let runner = WorkloadRunner::new(&db, SimConfig::default());
        let queries = micro::parallel_selection_workload(4);
        let cfg = RunnerConfig::default().with_users(4).with_admission_limit(1);
        let report = runner.run(&queries, Strategy::GpuPreferred, &cfg).unwrap();
        assert_eq!(report.outcomes.len(), 4);
    }
}
