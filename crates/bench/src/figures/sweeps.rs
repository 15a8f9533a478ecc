//! Shared, memoized parameter sweeps.
//!
//! Several figures plot different metrics of the same experiment; each
//! sweep runs once per effort level and its reports are reused.

use crate::machine::{Effort, MicroSetup, ParallelSetup, WorkloadKind, WorkloadSetup};
use robustq_core::Strategy;
use robustq_engine::PlanNode;
use robustq_workloads::{micro, RunReport, RunnerConfig, WorkloadRunner};
use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};

/// One labelled run.
#[derive(Debug, Clone)]
pub struct Entry {
    pub label: &'static str,
    pub report: RunReport,
}

/// One point of a sweep: the benchmark it ran, its axis cells, and one
/// labelled run per strategy.
#[derive(Debug, Clone)]
pub struct Point {
    /// `SSBM` or `TPC-H`; empty for the selection micro-benchmarks.
    pub benchmark: &'static str,
    /// `(header, cell)` of each axis the figures print, e.g. `("SF", "30")`.
    pub axes: Vec<(&'static str, String)>,
    pub entries: Vec<Entry>,
}

impl Point {
    /// The cell of axis `header`.
    pub fn axis(&self, header: &str) -> &str {
        let cell = self.axes.iter().find(|(h, _)| *h == header);
        &cell.unwrap_or_else(|| panic!("no axis {header:?}")).1
    }
}

fn kib(bytes: u64) -> String {
    (bytes / 1024).to_string()
}

/// One static memo map per sweep family.
macro_rules! memo_map {
    ($name:ident, $key:ty, $value:ty) => {
        fn $name() -> &'static Mutex<HashMap<$key, Arc<$value>>> {
            static CELL: OnceLock<Mutex<HashMap<$key, Arc<$value>>>> = OnceLock::new();
            CELL.get_or_init(|| Mutex::new(HashMap::new()))
        }
    };
}

memo_map!(serial_memo, Effort, Vec<Point>);
memo_map!(parallel_memo, Effort, Vec<Point>);
memo_map!(sf_memo, (WorkloadKind, Effort), Vec<Point>);
memo_map!(users_memo, (WorkloadKind, Effort), Vec<Point>);

fn memoized<K, V>(
    map: &'static Mutex<HashMap<K, Arc<V>>>,
    key: K,
    compute: impl FnOnce() -> V,
) -> Arc<V>
where
    K: std::hash::Hash + Eq + Clone,
{
    if let Some(v) = map.lock().expect("memo lock").get(&key) {
        return Arc::clone(v);
    }
    let v = Arc::new(compute());
    map.lock().expect("memo lock").insert(key, Arc::clone(&v));
    v
}

/// One entry per strategy: a run of `queries` under `cfg`.
fn run_each(
    runner: &WorkloadRunner,
    queries: &[PlanNode],
    strategies: &[Strategy],
    cfg: &RunnerConfig,
) -> Vec<Entry> {
    let run = |s: Strategy| runner.run(queries, s, cfg).unwrap_or_else(|e| panic!("{s:?}: {e}"));
    strategies.iter().map(|&s| Entry { label: s.name(), report: run(s) }).collect()
}

/// The serial-selection cache-size sweep (operator-driven thrashing vs
/// data-driven placement): axes `cache/WS`, `cache [KiB]`.
pub fn serial_sweep(effort: Effort) -> Arc<Vec<Point>> {
    memoized(serial_memo(), effort, || {
        let setup = MicroSetup::new(effort);
        let queries = micro::serial_selection_workload(setup.reps);
        let strategies = [
            Strategy::CpuOnly,
            Strategy::GpuPreferred,
            Strategy::DataDriven,
            Strategy::DataDrivenChopping,
        ];
        MicroSetup::cache_fractions()
            .iter()
            .map(|&frac| {
                let cache_bytes = (setup.working_set as f64 * frac) as u64;
                let sim = setup.sim(cache_bytes);
                let runner = WorkloadRunner::new(&setup.db, sim);
                // The placement background job runs once per workload
                // round, not after every query ("periodically", §3.2).
                let cfg = RunnerConfig::default()
                    .with_placement_period(queries.len())
                    .with_parallel(crate::machine::parallel_ctx());
                let entries = run_each(&runner, &queries, &strategies, &cfg);
                let axes =
                    vec![("cache/WS", format!("{frac:.2}")), ("cache [KiB]", kib(cache_bytes))];
                Point { benchmark: "", axes, entries }
            })
            .collect()
    })
}

/// The parallel-selection user sweep (heap contention): axis `users`.
pub fn parallel_sweep(effort: Effort) -> Arc<Vec<Point>> {
    memoized(parallel_memo(), effort, || {
        let setup = ParallelSetup::new(effort);
        let queries = micro::parallel_selection_workload(setup.total_queries);
        let sim = setup.sim();
        let runner = WorkloadRunner::new(&setup.db, sim);
        let strategies = [
            Strategy::CpuOnly,
            Strategy::GpuPreferred,
            Strategy::DataDriven,
            Strategy::RuntimePlacement,
            Strategy::Chopping,
            Strategy::DataDrivenChopping,
        ];
        setup
            .users
            .iter()
            .map(|&users| {
                // Section 6.1: access structures are pre-loaded into the
                // co-processor memory before the measured run.
                let cfg = RunnerConfig::default()
                    .with_users(users)
                    .with_placement_period(queries.len())
                    .with_preload()
                    .with_parallel(crate::machine::parallel_ctx());
                let entries = run_each(&runner, &queries, &strategies, &cfg);
                Point { benchmark: "", axes: vec![("users", users.to_string())], entries }
            })
            .collect()
    })
}

/// The scale-factor sweep over a full workload, six strategies: axes
/// `SF`, `footprint [KiB]`, `GPU cache [KiB]`.
pub fn workload_sweep(kind: WorkloadKind, effort: Effort) -> Arc<Vec<Point>> {
    memoized(sf_memo(), (kind, effort), || {
        let setup = WorkloadSetup::new(kind, effort);
        let sim = setup.sim();
        setup
            .scale_factors
            .iter()
            .map(|&sf| {
                let db = setup.db(sf);
                let queries = setup.queries(&db);
                let footprint = crate::machine::workload_footprint(&db, &queries);
                let runner = WorkloadRunner::new(&db, sim.clone());
                let cfg = RunnerConfig::default()
                    .with_placement_period(queries.len())
                    .with_preload()
                    .with_parallel(crate::machine::parallel_ctx());
                let entries = run_each(&runner, &queries, &Strategy::PAPER_SIX, &cfg);
                let axes = vec![
                    ("SF", sf.to_string()),
                    ("footprint [KiB]", kib(footprint)),
                    ("GPU cache [KiB]", kib(sim.gpu().cache_bytes)),
                ];
                Point { benchmark: kind.name(), axes, entries }
            })
            .collect()
    })
}

/// The multi-user sweep over a full workload at scale factor 10; includes
/// the GPU-only + admission-control reference of Section 6.2.2. Axis
/// `users`.
pub fn users_sweep(kind: WorkloadKind, effort: Effort) -> Arc<Vec<Point>> {
    memoized(users_memo(), (kind, effort), || {
        let setup = WorkloadSetup::new(kind, effort);
        let sim = setup.sim();
        let db = setup.db(10);
        let base = setup.queries(&db);
        let mut queries = Vec::with_capacity(base.len() * setup.multiuser_reps);
        for _ in 0..setup.multiuser_reps {
            queries.extend(base.iter().cloned());
        }
        let runner = WorkloadRunner::new(&db, sim);
        setup
            .users
            .iter()
            .map(|&users| {
                let cfg = RunnerConfig::default()
                    .with_users(users)
                    .with_placement_period(queries.len())
                    .with_preload()
                    .with_parallel(crate::machine::parallel_ctx());
                let mut entries = run_each(&runner, &queries, &Strategy::PAPER_SIX, &cfg);
                let admission_cfg = cfg.clone().with_admission_limit(1);
                entries.push(Entry {
                    label: "GPU Only + Admission",
                    report: runner
                        .run(&queries, Strategy::GpuPreferred, &admission_cfg)
                        .expect("admission run"),
                });
                Point { benchmark: kind.name(), axes: vec![("users", users.to_string())], entries }
            })
            .collect()
    })
}

/// Find one labelled entry at a sweep point.
pub fn entry<'a>(entries: &'a [Entry], label: &str) -> &'a Entry {
    entries
        .iter()
        .find(|e| e.label == label)
        .unwrap_or_else(|| panic!("no entry labelled {label}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn memoization_returns_same_arc() {
        fn test_map() -> &'static Mutex<HashMap<u32, Arc<Vec<i32>>>> {
            static CELL: OnceLock<Mutex<HashMap<u32, Arc<Vec<i32>>>>> = OnceLock::new();
            CELL.get_or_init(|| Mutex::new(HashMap::new()))
        }
        let a = memoized(test_map(), 1u32, || vec![1, 2, 3]);
        let b = memoized(test_map(), 1u32, || vec![9, 9, 9]);
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(*b, vec![1, 2, 3]);
        let c = memoized(test_map(), 2u32, || vec![4]);
        assert_eq!(*c, vec![4]);
    }

    #[test]
    #[should_panic(expected = "no entry labelled")]
    fn entry_panics_on_unknown_label() {
        entry(&[], "nope");
    }
}
