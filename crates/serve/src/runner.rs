//! The open-loop serving runner.
//!
//! [`ServingRunner`] runs the same procedure as the closed-loop
//! [`WorkloadRunner`] (Section 6.1: reset statistics → warm-up runs on
//! persistent caches → measured run — literally the same function,
//! [`WorkloadRunner::run_schedule`]), but the measured schedule is an
//! *arrival schedule* instead of per-session query queues: an
//! [`ArrivalProcess`] decides *when* queries arrive, a [`QueryMix`]
//! decides *what* arrives, and a virtual session pool decides *who*
//! submits it. Latency under open-loop load includes queueing delay, so
//! tail percentiles (p99/p999) expose robustness differences that
//! closed-loop makespans hide (DESIGN.md §10).
//!
//! [`ArrivalProcess::Closed`] is the degenerate case: its schedule is
//! the mix's templates distributed over `users` closed-loop sessions, so
//! a `Closed { users }` serving run is *bit-identical* to the classic
//! runner (pinned by `tests/serving.rs`).

use crate::arrival::ArrivalProcess;
use crate::mix::QueryMix;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use robustq_core::Strategy;
use robustq_engine::exec::metrics::QueryOutcome;
use robustq_engine::{
    Arrival, EngineError, ExecOptions, FeedSchedule, ModelUpdate, ParallelCtx, PlacementPolicy,
    RunMetrics, Schedule, StagingStats, StandingQuery,
};
use robustq_sim::{SimConfig, VirtualTime};
use robustq_storage::Database;
use robustq_trace::TraceData;
use robustq_workloads::runner::percentile;
use robustq_workloads::{RunReport, RunnerConfig, WorkloadRunner};

/// Serving-run options: the arrival process and the load window, plus
/// the executor options (admission limit, queue cap, …) of the run.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// When queries arrive.
    pub process: ArrivalProcess,
    /// Arrival-generation window `[0, horizon)` in virtual time. Ignored
    /// by [`ArrivalProcess::Closed`] (closed-loop load is
    /// feedback-driven, not time-driven).
    pub horizon: VirtualTime,
    /// Virtual session pool size. Each arrival is attributed to a
    /// uniformly drawn session; sessions are labels, so pools of
    /// 10⁵–10⁶ cost one counter each.
    pub sessions: usize,
    /// Seed for arrival times, session assignment and mix sampling. A
    /// `(process, horizon, seed)` triple fully determines the schedule.
    pub seed: u64,
    /// Warm-up executions of the template list before measuring
    /// (closed-loop, fault-free, untraced, never shedding).
    pub warmup_runs: usize,
    /// Record a structured trace of the measured run.
    pub trace: bool,
    /// The executor options of the measured run — the same
    /// [`ExecOptions`] the closed-loop [`RunnerConfig`] holds, with the
    /// same defaults; warm-up runs get them as
    /// [`RunnerConfig::exec_options`] strips them.
    pub exec: ExecOptions,
}

impl ServeConfig {
    /// Serving options for `process` over `[0, horizon)` with the same
    /// defaults as the closed-loop [`RunnerConfig`].
    pub fn new(process: ArrivalProcess, horizon: VirtualTime) -> Self {
        ServeConfig {
            process,
            horizon,
            sessions: 1_000,
            seed: 0,
            warmup_runs: 1,
            trace: false,
            exec: ExecOptions::default(),
        }
    }

    /// Set the virtual session pool size.
    pub fn with_sessions(mut self, sessions: usize) -> Self {
        self.sessions = sessions.max(1);
        self
    }

    /// Set the schedule seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Record a structured trace of the measured run.
    pub fn with_trace(mut self) -> Self {
        self.trace = true;
        self
    }

    /// Admit at most `n` queries concurrently.
    pub fn with_admission_limit(mut self, n: usize) -> Self {
        self.exec.max_concurrent_queries = n.max(1);
        self
    }

    /// Overload shedding: arrivals that find `cap` queries already
    /// waiting for admission are shed (`usize::MAX`, the default, never
    /// sheds).
    pub fn with_queue_cap(mut self, cap: usize) -> Self {
        self.exec.queue_cap = cap;
        self
    }

    /// Run the hot kernels with the given parallelism context.
    pub fn with_parallel(mut self, parallel: ParallelCtx) -> Self {
        self.exec.parallel = parallel;
        self
    }

    /// The run procedure's configuration for this serving run, its
    /// warm-up passes distributed over `users` closed-loop sessions.
    fn runner_config(&self, users: usize) -> RunnerConfig {
        RunnerConfig {
            users: users.max(1),
            warmup_runs: self.warmup_runs,
            preload_hot_columns: false,
            trace: self.trace,
            exec: self.exec.clone(),
        }
    }
}

/// Result of one measured serving run: the one [`RunReport`], under its
/// serving name. `offered` counts the scheduled arrivals (open loop) or
/// the workload length (closed loop).
pub type ServingReport = RunReport;

/// Result of one measured *streaming* serving run: ad-hoc open-loop
/// arrivals interleaved with a feed replay and standing-query window
/// ticks (DESIGN.md §10) — a [`RunReport`] with its outcomes and its
/// offered count split by population. Ticks flow through the same
/// admission control as arrivals, so both populations share one shed
/// budget: `offered_arrivals + offered_ticks == completed() +
/// metrics.shed`.
#[derive(Debug, Clone)]
pub struct StreamingReport {
    /// Display name of the strategy that ran.
    pub strategy: &'static str,
    /// Ad-hoc queries offered by the arrival process.
    pub offered_arrivals: usize,
    /// Standing-query window ticks scheduled over the horizon.
    pub offered_ticks: usize,
    /// Aggregated run metrics over both populations.
    pub metrics: RunMetrics,
    /// Ad-hoc arrival outcomes, in completion order.
    pub arrival_outcomes: Vec<QueryOutcome>,
    /// Window-tick outcomes, sorted by (standing query, tick). The
    /// outcome's `session - sessions_pool` is the standing-query index
    /// and its `seq` the tick number.
    pub window_outcomes: Vec<QueryOutcome>,
    /// The measured run's event stream (includes `Append`, `EpochSeal`
    /// and `WindowFire`), when tracing was enabled.
    pub trace: Option<TraceData>,
    /// Cost-model observations of the measured run.
    pub model_samples: Vec<ModelUpdate>,
    /// Chunked-staging counters of the measured run.
    pub staging: StagingStats,
}

impl StreamingReport {
    /// Completed queries across both populations.
    pub fn completed(&self) -> usize {
        self.arrival_outcomes.len() + self.window_outcomes.len()
    }

    /// The `p`-th window-tick latency percentile (nearest-rank) — the
    /// streaming SLO headline: how stale a standing result gets.
    pub fn tick_percentile(&self, p: f64) -> VirtualTime {
        percentile(self.window_outcomes.iter().map(|o| o.latency), p)
    }

    /// 99th-percentile window-tick latency.
    pub fn tick_p99(&self) -> VirtualTime {
        self.tick_percentile(99.0)
    }

    /// The `p`-th ad-hoc arrival latency percentile (nearest-rank).
    pub fn arrival_percentile(&self, p: f64) -> VirtualTime {
        percentile(self.arrival_outcomes.iter().map(|o| o.latency), p)
    }
}

/// The live bytes an open-loop run of the executor holds per arrival until
/// it returns, whatever the run's length: its schedule and its report, not
/// its queries' tasks (DESIGN.md §6). `tests/alloc_budget.rs` itemises it
/// and fails a run whose high-water mark grows by more.
pub const BYTES_PER_ARRIVAL: u64 = 640;

/// The serving runner: a database plus a simulated machine, driven by an
/// arrival process.
pub struct ServingRunner<'a> {
    runner: WorkloadRunner<'a>,
}

impl<'a> ServingRunner<'a> {
    /// A runner over `db` and the given machine.
    pub fn new(db: &'a Database, config: SimConfig) -> Self {
        ServingRunner { runner: WorkloadRunner::new(db, config) }
    }

    /// The simulated machine configuration.
    pub fn config(&self) -> &SimConfig {
        self.runner.config()
    }

    /// Generate the full arrival list for `cfg` over `mix` — times from
    /// the arrival process, then per arrival a uniformly drawn session
    /// and a mix-sampled template, all from one seeded generator.
    /// Empty for [`ArrivalProcess::Closed`].
    pub fn arrivals(mix: &QueryMix, cfg: &ServeConfig) -> Vec<Arrival> {
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let times = cfg.process.schedule_with(cfg.horizon, &mut rng);
        let mut next_seq = vec![0u32; cfg.sessions.max(1)];
        times
            .into_iter()
            .map(|at| {
                let session = rng.gen_range(0..cfg.sessions.max(1));
                let template = mix.sample(&mut rng);
                let seq = next_seq[session];
                next_seq[session] += 1;
                Arrival {
                    at,
                    session: session as u32,
                    seq,
                    plan: mix.template(template).clone(),
                }
            })
            .collect()
    }

    /// Serve `mix` under `strategy`.
    pub fn run(
        &self,
        mix: &QueryMix,
        strategy: Strategy,
        cfg: &ServeConfig,
    ) -> Result<ServingReport, EngineError> {
        let mut policy = strategy.build();
        self.run_with_policy(mix, policy.as_mut(), strategy.name(), cfg)
    }

    /// Like [`ServingRunner::run`] with a caller-constructed policy.
    pub fn run_with_policy(
        &self,
        mix: &QueryMix,
        policy: &mut dyn PlacementPolicy,
        label: &'static str,
        cfg: &ServeConfig,
    ) -> Result<ServingReport, EngineError> {
        // Warm-up is the template list once per run either way; an open
        // loop warms up on a single session.
        let users = match cfg.process {
            ArrivalProcess::Closed { users } => users,
            _ => 1,
        };
        let schedule = || match cfg.process {
            ArrivalProcess::Closed { users } => {
                WorkloadRunner::sessions(mix.templates(), users).into()
            }
            _ => Self::arrivals(mix, cfg).into(),
        };
        self.runner.run_schedule(
            mix.templates(),
            schedule,
            policy,
            label,
            &cfg.runner_config(users),
        )
    }

    /// Serve `mix` under `strategy` while replaying `feed` and firing
    /// `standing` window ticks (DESIGN.md §10).
    ///
    /// The database must be pre-built with every scheduled append batch
    /// already committed; the feed schedule replays those epochs in
    /// virtual time, interleaved with the arrival process's ad-hoc
    /// queries. Standing-query sessions are re-numbered above the
    /// arrival session pool (`cfg.sessions + index`), so the report can
    /// split the two populations. [`ArrivalProcess::Closed`] contributes
    /// no ad-hoc arrivals here — a pure standing-window run.
    pub fn run_streaming(
        &self,
        mix: &QueryMix,
        feed: FeedSchedule,
        standing: Vec<StandingQuery>,
        strategy: Strategy,
        cfg: &ServeConfig,
    ) -> Result<StreamingReport, EngineError> {
        let mut policy = strategy.build();
        self.run_streaming_with_policy(mix, feed, standing, policy.as_mut(), strategy.name(), cfg)
    }

    /// Like [`ServingRunner::run_streaming`] with a caller-constructed
    /// policy.
    pub fn run_streaming_with_policy(
        &self,
        mix: &QueryMix,
        feed: FeedSchedule,
        mut standing: Vec<StandingQuery>,
        policy: &mut dyn PlacementPolicy,
        label: &'static str,
        cfg: &ServeConfig,
    ) -> Result<StreamingReport, EngineError> {
        let pool = cfg.sessions.max(1);
        for (i, sq) in standing.iter_mut().enumerate() {
            sq.session = (pool + i) as u32;
        }
        // Warm caches on the ad-hoc templates *and* the standing plans:
        // a standing query's first tick should find its columns resident
        // just like a repeated ad-hoc template would.
        let mut warmup = mix.templates().to_vec();
        warmup.extend(standing.iter().map(|s| s.plan.clone()));

        let mut offered_arrivals = 0;
        let schedule = || {
            let arrivals = match cfg.process {
                ArrivalProcess::Closed { .. } => Vec::new(),
                _ => Self::arrivals(mix, cfg),
            };
            offered_arrivals = arrivals.len();
            Schedule { arrivals, feed, standing, ..Schedule::default() }
        };
        let report =
            self.runner.run_schedule(&warmup, schedule, policy, label, &cfg.runner_config(1))?;
        let (mut window_outcomes, arrival_outcomes): (Vec<_>, Vec<_>) =
            report.outcomes.into_iter().partition(|o| o.session >= pool);
        window_outcomes.sort_by_key(|o| (o.session, o.seq));
        Ok(StreamingReport {
            strategy: report.strategy,
            offered_arrivals,
            offered_ticks: report.offered - offered_arrivals,
            metrics: report.metrics,
            arrival_outcomes,
            window_outcomes,
            trace: report.trace,
            model_samples: report.model_samples,
            staging: report.staging,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use robustq_storage::gen::ssb::SsbGenerator;
    use robustq_workloads::micro;

    fn db() -> Database {
        SsbGenerator::new(1).with_rows_per_sf(2_000).generate()
    }

    fn mix() -> QueryMix {
        QueryMix::uniform(micro::parallel_selection_workload(4))
    }

    #[test]
    fn open_loop_completes_all_arrivals_when_unloaded() {
        let db = db();
        let runner = ServingRunner::new(&db, SimConfig::default());
        let cfg = ServeConfig::new(
            ArrivalProcess::Uniform { rate_qps: 50.0 },
            VirtualTime::from_millis(100),
        )
        .with_sessions(8);
        let report = runner.run(&mix(), Strategy::CpuOnly, &cfg).unwrap();
        assert_eq!(report.offered, 5);
        assert_eq!(report.completed(), 5);
        assert_eq!(report.metrics.shed, 0);
        assert!(report.p99() >= report.p50());
        assert!(report.qps() > 0.0);
    }

    #[test]
    fn offered_equals_completed_plus_shed_under_overload() {
        let db = db();
        let runner = ServingRunner::new(&db, SimConfig::default());
        let cfg = ServeConfig::new(
            ArrivalProcess::Poisson { rate_qps: 2_000_000.0 },
            VirtualTime::from_millis(5),
        )
        .with_seed(9)
        .with_admission_limit(1)
        .with_queue_cap(2);
        let report = runner.run(&mix(), Strategy::CpuOnly, &cfg).unwrap();
        assert!(report.offered > 0);
        assert_eq!(report.offered, report.completed() + report.metrics.shed as usize);
        assert!(report.metrics.shed > 0, "expected overload shedding");
    }

    #[test]
    fn same_seed_reproduces_the_schedule() {
        let cfg = ServeConfig::new(
            ArrivalProcess::Poisson { rate_qps: 10_000.0 },
            VirtualTime::from_millis(20),
        )
        .with_seed(7);
        let a = ServingRunner::arrivals(&mix(), &cfg);
        let b = ServingRunner::arrivals(&mix(), &cfg);
        assert_eq!(a.len(), b.len());
        assert!(a
            .iter()
            .zip(&b)
            .all(|(x, y)| x.at == y.at && x.session == y.session && x.seq == y.seq));
    }

    #[test]
    fn closed_process_runs_closed_loop_sessions() {
        let db = db();
        let runner = ServingRunner::new(&db, SimConfig::default());
        let cfg = ServeConfig::new(ArrivalProcess::Closed { users: 2 }, VirtualTime::ZERO);
        let report = runner.run(&mix(), Strategy::CpuOnly, &cfg).unwrap();
        assert_eq!(report.completed(), 4);
        assert_eq!(report.metrics.shed, 0);
        assert_eq!(report.offered, 4);
    }
}
