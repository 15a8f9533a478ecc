//! Experiment machine configurations and database caching.
//!
//! The simulated machine is shaped per experiment family so the paper's
//! resource *ratios* hold at our data downscale (DESIGN.md §1):
//!
//! * **serial micro** (Figs 2/5/6): co-processor cache swept around the
//!   8-column working set, heap large enough that no contention occurs;
//! * **parallel micro** (Figs 3/7/9/12/13): cache fits the two filter
//!   columns, heap sized so ~7 concurrent selections exhaust it — the
//!   paper's `n = M / (3.25·|C|) ≈ 7` break-even (Section 3.4);
//! * **full workloads** (Figs 14–21, 24, 25): cache sized to the SSB
//!   working set at scale factor 15, where the paper's cache-thrashing
//!   crossover sits (Figure 16);
//! * **scale-out** (the §6.3 ablation, and the `multigpu` sweep's
//!   sharded rows): the same machine with K co-processors, each query's
//!   probe spine fanned out over all of them ([`run_sharded`]).

use robustq_core::strategies::DataDrivenChopping;
use robustq_core::{DataPlacementManager, Strategy};
use robustq_engine::plan::PlanNode;
use robustq_engine::{EngineError, ParallelCtx};
use robustq_sim::SimConfig;
use robustq_storage::gen::ssb::SsbGenerator;
use robustq_storage::gen::tpch::TpchGenerator;
use robustq_storage::Database;
use robustq_workloads::{RunReport, RunnerConfig, WorkloadRunner};
use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};

/// How much work to spend regenerating figures.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Effort {
    /// Small row counts; the full suite runs in a few minutes.
    Quick,
    /// ~3× more rows and repetitions for smoother curves.
    Full,
}

impl Effort {
    /// Read from `ROBUSTQ_EFFORT` (`full` selects [`Effort::Full`]).
    pub fn from_env() -> Effort {
        match std::env::var("ROBUSTQ_EFFORT").as_deref() {
            Ok("full") | Ok("FULL") => Effort::Full,
            _ => Effort::Quick,
        }
    }
}

/// Real-CPU parallelism for the benches' kernel execution: worker count
/// from `ROBUSTQ_WORKERS`, defaulting to all available hardware threads.
/// Results and virtual-time figures are bit-identical across settings —
/// this only changes how long the benches take on the wall clock.
pub fn parallel_ctx() -> ParallelCtx {
    match std::env::var("ROBUSTQ_WORKERS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
    {
        Some(w) => ParallelCtx::serial().with_workers(w),
        None => ParallelCtx::auto(),
    }
}

/// The fleet sweeps' machine (`multigpu`, `loadgen`, `streaming`), per
/// co-processor: tight caches, roomy heaps. At the sweeps' default row
/// count one fact table overflows a single 256 KiB cache (so K = 1
/// degrades to the CPU or thrashes) while its K-way partitions fit across
/// the fleet — the regime where placement quality, not raw device count,
/// decides makespan and tail. The 2 MiB heap keeps downstream joins from
/// aborting once they follow the data out.
pub fn fleet_sim() -> SimConfig {
    SimConfig::default().with_gpu_memory(2 * 1024 * 1024).with_gpu_cache(256 * 1024)
}

/// The strategies every fleet sweep compares: the CPU-only floor the
/// robustness claims are read against, the static baseline, query
/// chopping, and the learned data-driven placement.
pub const FLEET_STRATEGIES: [Strategy; 4] = [
    Strategy::CpuOnly,
    Strategy::GpuPreferred,
    Strategy::Chopping,
    Strategy::DataDrivenChopping,
];

/// Which benchmark a sweep runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WorkloadKind {
    Ssb,
    Tpch,
}

impl WorkloadKind {
    pub fn name(self) -> &'static str {
        match self {
            WorkloadKind::Ssb => "SSBM",
            WorkloadKind::Tpch => "TPC-H",
        }
    }
}

type DbCache = Mutex<HashMap<(WorkloadKind, u32, usize), Arc<Database>>>;

fn db_cache() -> &'static DbCache {
    static CACHE: OnceLock<DbCache> = OnceLock::new();
    CACHE.get_or_init(|| Mutex::new(HashMap::new()))
}

/// Memoized database of `kind` at scale factor `sf`.
pub fn cached_db(kind: WorkloadKind, sf: u32, rows_per_sf: usize) -> Arc<Database> {
    let mut cache = db_cache().lock().expect("db cache lock");
    let generate = || match kind {
        WorkloadKind::Ssb => SsbGenerator::new(sf).with_rows_per_sf(rows_per_sf).generate(),
        WorkloadKind::Tpch => TpchGenerator::new(sf).with_rows_per_sf(rows_per_sf).generate(),
    };
    Arc::clone(cache.entry((kind, sf, rows_per_sf)).or_insert_with(|| Arc::new(generate())))
}

/// Memoized SSB database.
pub fn ssb_db(sf: u32, rows_per_sf: usize) -> Arc<Database> {
    cached_db(WorkloadKind::Ssb, sf, rows_per_sf)
}

/// Sum of distinct base-column bytes the workload's plans read — the
/// working-set / memory-footprint measure of Figure 16.
pub fn workload_footprint(db: &Database, queries: &[PlanNode]) -> u64 {
    let mut seen = std::collections::HashSet::new();
    let mut total = 0u64;
    for q in queries {
        collect_footprint(q, db, &mut seen, &mut total);
    }
    total
}

fn collect_footprint(
    node: &PlanNode,
    db: &Database,
    seen: &mut std::collections::HashSet<robustq_storage::ColumnId>,
    total: &mut u64,
) {
    if let Some((table, cols)) = node.op().scan_access() {
        for c in cols {
            if let Some(id) = db.column_id(table, c) {
                if seen.insert(id) {
                    *total += db.column_size(id);
                }
            }
        }
    }
    for c in node.children() {
        collect_footprint(c, db, seen, total);
    }
}

/// Setup for the serial selection micro-benchmark (B.1).
pub struct MicroSetup {
    pub db: Arc<Database>,
    /// Bytes of the eight filter columns (the working set).
    pub working_set: u64,
    /// Measured repetitions of the 8-query round.
    pub reps: usize,
}

impl MicroSetup {
    pub fn new(effort: Effort) -> Self {
        let rows_per_sf = match effort {
            Effort::Quick => 4_000,
            Effort::Full => 12_000,
        };
        let db = ssb_db(10, rows_per_sf);
        let queries = robustq_workloads::micro::serial_selection_workload(1);
        let working_set = workload_footprint(&db, &queries);
        let reps = match effort {
            Effort::Quick => 6,
            Effort::Full => 12,
        };
        MicroSetup { db, working_set, reps }
    }

    /// Machine with the given co-processor cache size and a heap generous
    /// enough that no heap contention interferes.
    pub fn sim(&self, cache_bytes: u64) -> SimConfig {
        let heap = 6 * self.working_set;
        SimConfig::default()
            .with_gpu_memory(cache_bytes + heap)
            .with_gpu_cache(cache_bytes)
    }

    /// The cache-size sweep as fractions of the working set (Figure 2's
    /// x-axis around the 1.9 GB working set).
    pub fn cache_fractions() -> &'static [f64] {
        &[0.0, 0.25, 0.5, 0.75, 0.9, 1.0, 1.15]
    }
}

/// Setup for the parallel selection micro-benchmark (B.2).
pub struct ParallelSetup {
    pub db: Arc<Database>,
    /// Bytes of the two filter columns (`|C|`).
    pub column_bytes: u64,
    /// Total queries in the fixed workload.
    pub total_queries: usize,
    /// The user counts swept.
    pub users: Vec<usize>,
}

impl ParallelSetup {
    pub fn new(effort: Effort) -> Self {
        let rows_per_sf = match effort {
            Effort::Quick => 4_000,
            Effort::Full => 12_000,
        };
        let db = ssb_db(10, rows_per_sf);
        let query = robustq_workloads::micro::parallel_selection_query();
        let column_bytes = workload_footprint(&db, std::slice::from_ref(&query));
        let total_queries = match effort {
            Effort::Quick => 40,
            Effort::Full => 100,
        };
        let users = match effort {
            Effort::Quick => vec![1, 2, 4, 6, 8, 12, 16, 20],
            Effort::Full => vec![1, 2, 4, 6, 7, 8, 10, 12, 14, 16, 18, 20],
        };
        ParallelSetup { db, column_bytes, total_queries, users }
    }

    /// Machine whose heap fits ~7 concurrent selection footprints —
    /// the paper's break-even point (Section 3.4).
    pub fn sim(&self) -> SimConfig {
        let footprint = (3.45 * self.column_bytes as f64) as u64;
        let heap = 7 * footprint;
        let cache = self.column_bytes * 2;
        SimConfig::default()
            .with_gpu_memory(cache + heap)
            .with_gpu_cache(cache)
    }
}

/// Setup for the full SSB / TPC-H workload experiments.
pub struct WorkloadSetup {
    pub kind: WorkloadKind,
    pub rows_per_sf: usize,
    /// Scale factors swept in the Figure 14–16 experiments.
    pub scale_factors: Vec<u32>,
    /// User counts swept in the Figure 18–21/25 experiments (at SF 10).
    pub users: Vec<usize>,
    /// Workload repetitions per run in multi-user experiments.
    pub multiuser_reps: usize,
}

impl WorkloadSetup {
    pub fn new(kind: WorkloadKind, effort: Effort) -> Self {
        let rows_per_sf = match effort {
            Effort::Quick => 1_500,
            Effort::Full => 4_000,
        };
        let scale_factors = match kind {
            WorkloadKind::Ssb => vec![1, 5, 10, 15, 20, 25, 30],
            WorkloadKind::Tpch => vec![1, 5, 10, 15, 20],
        };
        let users = match effort {
            Effort::Quick => vec![1, 5, 10, 20],
            Effort::Full => vec![1, 5, 10, 15, 20],
        };
        let multiuser_reps = match effort {
            Effort::Quick => 3,
            Effort::Full => 6,
        };
        WorkloadSetup { kind, rows_per_sf, scale_factors, users, multiuser_reps }
    }

    /// Database at scale factor `sf`.
    pub fn db(&self, sf: u32) -> Arc<Database> {
        cached_db(self.kind, sf, self.rows_per_sf)
    }

    /// The workload's query plans against `db`.
    pub fn queries(&self, db: &Database) -> Vec<PlanNode> {
        match self.kind {
            WorkloadKind::Ssb => {
                robustq_workloads::ssb::workload(db).expect("SSB queries plan")
            }
            WorkloadKind::Tpch => robustq_workloads::tpch::workload(),
        }
    }

    /// Machine whose cache crosses the workload's working set at the
    /// paper's SF≈15 crossover point (Figure 16).
    pub fn sim(&self) -> SimConfig {
        let db15 = self.db(15);
        let cache = workload_footprint(&db15, &self.queries(&db15));
        let heap = cache * 4;
        SimConfig::default()
            .with_gpu_memory(cache + heap)
            .with_gpu_cache(cache)
    }
}

/// The largest table, in accessed bytes, that [`run_sharded`]'s data
/// placement manager replicates into every co-processor cache; larger
/// ones are partitioned.
pub const REPLICATE_MAX_BYTES: u64 = 64 * 1024;

/// The label of [`run_sharded`]'s reports.
pub const SHARDED: &str = "Data-Driven Chopping + Shard";

/// The sharded contender (DESIGN.md §6): `queries` under Data-Driven
/// Chopping with each query's probe spine fanned out over the runner's K
/// co-processors. Its data placement manager partitions tables the same
/// K ways, so a shard finds its slice, and replicates those of at most
/// [`REPLICATE_MAX_BYTES`]. At K = 1 nothing shards.
pub fn run_sharded(
    runner: &WorkloadRunner,
    queries: &[PlanNode],
    cfg: &RunnerConfig,
) -> Result<RunReport, EngineError> {
    let k = runner.config().topology.coprocessor_count();
    let manager = DataPlacementManager::lfu().with_sharding(k, REPLICATE_MAX_BYTES);
    let mut policy = DataDrivenChopping::with_manager(manager);
    runner.run_with_policy(queries, &mut policy, SHARDED, &cfg.clone().with_sharding(k, 0.0))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn db_memoization_returns_same_instance() {
        let a = ssb_db(1, 500);
        let b = ssb_db(1, 500);
        assert!(Arc::ptr_eq(&a, &b));
        let c = ssb_db(2, 500);
        assert!(!Arc::ptr_eq(&a, &c));
    }

    #[test]
    fn footprint_counts_distinct_columns_once() {
        let db = ssb_db(1, 500);
        let q = robustq_workloads::micro::serial_selection_workload(3);
        let once = robustq_workloads::micro::serial_selection_workload(1);
        assert_eq!(workload_footprint(&db, &q), workload_footprint(&db, &once));
        // Eight columns: 4×i32 + 4×f64 per row.
        assert_eq!(workload_footprint(&db, &once), 500 * (4 * 4 + 4 * 8));
    }

    #[test]
    fn micro_setup_ratios() {
        let s = MicroSetup::new(Effort::Quick);
        let sim = s.sim(s.working_set / 2);
        assert_eq!(sim.gpu().cache_bytes, s.working_set / 2);
        assert!(sim.gpu().heap_bytes() >= 6 * s.working_set);
    }

    #[test]
    fn parallel_setup_heap_fits_about_seven() {
        let s = ParallelSetup::new(Effort::Quick);
        let sim = s.sim();
        let per_op = (3.45 * s.column_bytes as f64) as u64;
        let fit = sim.gpu().heap_bytes() / per_op;
        assert!((6..=8).contains(&fit), "heap fits {fit} ops, want ~7");
    }

    #[test]
    fn workload_setup_cache_crosses_at_sf15() {
        let s = WorkloadSetup::new(WorkloadKind::Ssb, Effort::Quick);
        let sim = s.sim();
        let db10 = s.db(10);
        let db20 = s.db(20);
        let ws10 = workload_footprint(&db10, &s.queries(&db10));
        let ws20 = workload_footprint(&db20, &s.queries(&db20));
        assert!(ws10 <= sim.gpu().cache_bytes, "SF10 fits the cache");
        assert!(ws20 > sim.gpu().cache_bytes, "SF20 exceeds the cache");
    }

    #[test]
    fn one_coprocessor_shards_nothing() {
        // What lets the §6.3 ablation read K = 1 off the Figure 14 sweep.
        let setup = WorkloadSetup::new(WorkloadKind::Ssb, Effort::Quick);
        let db = setup.db(20);
        let queries = setup.queries(&db);
        let cfg = RunnerConfig::default().with_placement_period(queries.len()).with_preload();
        let sharded = run_sharded(&WorkloadRunner::new(&db, setup.sim()), &queries, &cfg).unwrap();
        let sweep = crate::figures::sweeps::workload_sweep(WorkloadKind::Ssb, Effort::Quick);
        let point = sweep.iter().find(|p| p.axis("SF") == "20").unwrap();
        let ddc = crate::figures::sweeps::entry(&point.entries, Strategy::DataDrivenChopping.name());
        assert_eq!(sharded.metrics.makespan, ddc.report.metrics.makespan);
    }

    #[test]
    fn effort_from_env_defaults_quick() {
        // Unless the variable is set in the environment, Quick.
        if std::env::var("ROBUSTQ_EFFORT").is_err() {
            assert_eq!(Effort::from_env(), Effort::Quick);
        }
    }
}
