//! Ablation studies for the design choices DESIGN.md §12 calls out, one
//! [`super::FIGURES`] row each, after the figures:
//!
//! 1. chopping thread-pool size (the Section 5.2 concurrency bound),
//! 2. operator-driven cache eviction policy (LRU vs LFU under thrashing),
//! 3. admission-control limit vs chopping (Section 6.2.2),
//! 4. interconnect bandwidth sensitivity of the Figure 1 crossover,
//! 5. transparent compression shifting the Figure 14 break-down point
//!    (the Section 6.3 discussion),
//! 6. processing models (bulk / vectorized / compiled, Section 5.5):
//!    cache thrashing is inherent to all three,
//! 7. scale-out over K co-processors (Section 6.3: more GPUs shift the
//!    break-down point further): one machine, each query's probe spine
//!    sharded over its K co-processors.
//!
//! The two Section 6.3 tables read their CPU Only, GPU Only and K = 1
//! cells off the Figure 14 sweep, which ran them on the same machine.

use super::sweeps::{entry, workload_sweep};
use crate::machine::{self, Effort, MicroSetup, ParallelSetup, WorkloadKind, WorkloadSetup};
use crate::table::{ms, FigTable};
use robustq_core::strategies::Chopping;
use robustq_core::Strategy;
use robustq_sim::CachePolicy;
use robustq_workloads::{micro, RunnerConfig, SsbQuery, WorkloadRunner};

pub fn chopping_slots(effort: Effort) -> FigTable {
    let setup = ParallelSetup::new(effort);
    let queries = micro::parallel_selection_workload(setup.total_queries);
    let runner = WorkloadRunner::new(&setup.db, setup.sim());
    let cfg = RunnerConfig::default()
        .with_users(20)
        .with_placement_period(queries.len())
        .with_preload();
    let mut t = FigTable::new(
        "ablation-slots",
        "Chopping thread-pool size, parallel selection workload, 20 users",
    )
    .with_columns(["GPU worker slots", "exec time [ms]", "aborts"]);
    for slots in [1usize, 2, 4, 8, 16, 64] {
        let mut policy = Chopping::new().with_slots(slots);
        let report = runner
            .run_with_policy(&queries, &mut policy, "Chopping", &cfg)
            .expect("slots ablation run");
        t.push_row([
            format!("{slots}"),
            ms(report.metrics.makespan),
            format!("{}", report.metrics.aborts),
        ]);
    }
    t
}

pub fn cache_policy(effort: Effort) -> FigTable {
    let setup = MicroSetup::new(effort);
    let queries = micro::serial_selection_workload(setup.reps);
    let cache = setup.working_set / 2;
    let mut t = FigTable::new(
        "ablation-cache-policy",
        "Operator-driven eviction policy at 50% of the working set",
    )
    .with_columns(["policy", "exec time [ms]", "CPU→GPU transfer [ms]"]);
    for (name, policy) in [("LRU", CachePolicy::Lru), ("LFU", CachePolicy::Lfu)] {
        let sim = setup.sim(cache).with_cache_policy(policy);
        let runner = WorkloadRunner::new(&setup.db, sim);
        let report = runner
            .run(
                &queries,
                Strategy::GpuPreferred,
                &RunnerConfig::default().with_placement_period(queries.len()),
            )
            .expect("cache policy run");
        t.push_row([
            name.to_string(),
            ms(report.metrics.makespan),
            ms(report.metrics.h2d_time),
        ]);
    }
    t
}

pub fn admission_limits(effort: Effort) -> FigTable {
    let setup = WorkloadSetup::new(WorkloadKind::Ssb, effort);
    let db = setup.db(10);
    let queries = setup.queries(&db);
    let runner = WorkloadRunner::new(&db, setup.sim());
    let mut t = FigTable::new(
        "ablation-admission",
        "GPU-only with admission limits vs chopping (SSBM, SF 10, 20 users)",
    )
    .with_columns(["configuration", "exec time [ms]", "mean latency [ms]"]);
    let cfg = RunnerConfig::default()
        .with_users(20)
        .with_placement_period(queries.len())
        .with_preload();
    for limit in [1usize, 2, 4, 8, usize::MAX] {
        let report = runner
            .run(&queries, Strategy::GpuPreferred, &cfg.clone().with_admission_limit(limit))
            .expect("admission run");
        let label =
            if limit == usize::MAX { "unbounded".to_string() } else { format!("limit {limit}") };
        t.push_row([label, ms(report.metrics.makespan), ms(report.mean_latency())]);
    }
    let chop = runner
        .run(&queries, Strategy::DataDrivenChopping, &cfg)
        .expect("chopping run");
    t.push_row([
        "Data-Driven Chopping".to_string(),
        ms(chop.metrics.makespan),
        ms(chop.mean_latency()),
    ]);
    t
}

pub fn link_bandwidth(effort: Effort) -> FigTable {
    let setup = WorkloadSetup::new(WorkloadKind::Ssb, effort);
    let db = setup.db(20);
    let query = [SsbQuery::Q3_3.plan(&db).expect("Q3.3 plans")];
    let mut t = FigTable::new(
        "ablation-link",
        "Figure 1 crossover vs interconnect bandwidth (SSB Q3.3, SF 20)",
    )
    .with_columns(["bandwidth scale", "CPU [ms]", "GPU cold [ms]", "GPU hot [ms]"]);
    for scale in [0.5, 1.0, 2.0, 4.0] {
        let mut sim = setup.sim();
        let link = sim.topology.link_mut(robustq_sim::DeviceId::Gpu);
        link.bus_bandwidth *= scale;
        link.staging_bandwidth *= scale;
        let runner = WorkloadRunner::new(&db, sim);
        let run = |strategy, cfg: &RunnerConfig| {
            runner.run(&query, strategy, cfg).expect("link ablation run").metrics.makespan
        };
        let cfg = RunnerConfig::default();
        t.push_row([
            format!("{scale}x"),
            ms(run(Strategy::CpuOnly, &cfg)),
            ms(run(Strategy::GpuPreferred, &cfg.clone().cold_cache())),
            ms(run(Strategy::GpuPreferred, &cfg)),
        ]);
    }
    t
}

pub fn compression(effort: Effort) -> FigTable {
    use robustq_storage::gen::ssb::SsbGenerator;

    let setup = WorkloadSetup::new(WorkloadKind::Ssb, effort);
    let sim = setup.sim();
    let sweep = workload_sweep(WorkloadKind::Ssb, effort);
    let mut t = FigTable::new(
        "ablation-compression",
        "Section 6.3: compression shifts the GPU-only break-down point",
    )
    .with_columns(["SF", "CPU Only [ms]", "GPU raw [ms]", "GPU compressed [ms]", "ratio"]);
    for (&sf, point) in setup.scale_factors.iter().zip(sweep.iter()) {
        // A fresh database: compression mutates effective sizes.
        let mut compressed =
            SsbGenerator::new(sf).with_rows_per_sf(setup.rows_per_sf).generate();
        let ratio = compressed.apply_compression();
        let queries = setup.queries(&setup.db(sf));
        let cfg = RunnerConfig::default()
            .with_placement_period(queries.len())
            .with_preload();
        let gpu_compressed = WorkloadRunner::new(&compressed, sim.clone())
            .run(&queries, Strategy::GpuPreferred, &cfg)
            .expect("compressed run");
        let makespan = |label| ms(entry(&point.entries, label).report.metrics.makespan);
        t.push_row([
            format!("{sf}"),
            makespan(Strategy::CpuOnly.name()),
            makespan(Strategy::GpuPreferred.name()),
            ms(gpu_compressed.metrics.makespan),
            format!("{ratio:.2}"),
        ]);
    }
    t
}

pub fn processing_models(effort: Effort) -> FigTable {
    use robustq_engine::vectorized::{CompiledEngine, VectorizedEngine};
    use robustq_sim::DeviceId;

    let setup = WorkloadSetup::new(WorkloadKind::Ssb, effort);
    let db = setup.db(10);
    let sim = setup.sim();
    let query = SsbQuery::Q3_3.plan(&db).expect("Q3.3 plans");

    let mut t = FigTable::new(
        "ablation-models",
        "Section 5.5: cold-cache penalty across processing models (SSB Q3.3, SF 10)",
    )
    .with_columns(["model", "CPU [ms]", "GPU cold [ms]", "GPU hot [ms]", "cold/hot"]);

    // Bulk (operator-at-a-time) through the executor.
    let runner = WorkloadRunner::new(&db, sim.clone());
    let bulk = |strategy, cfg: &RunnerConfig| {
        let report = runner.run(std::slice::from_ref(&query), strategy, cfg);
        report.expect("bulk run").metrics.makespan
    };
    let cfg = RunnerConfig::default();
    let (bulk_cpu, bulk_cold, bulk_hot) = (
        bulk(Strategy::CpuOnly, &cfg),
        bulk(Strategy::GpuPreferred, &cfg.clone().cold_cache()),
        bulk(Strategy::GpuPreferred, &cfg),
    );
    t.push_row([
        "operator-at-a-time".to_string(),
        ms(bulk_cpu),
        ms(bulk_cold),
        ms(bulk_hot),
        format!("{:.1}", bulk_cold.as_secs_f64() / bulk_hot.as_secs_f64()),
    ]);

    let vectorized = VectorizedEngine::new(&db, sim.clone());
    let v_cpu = vectorized.run_query(&query, DeviceId::Cpu).expect("vec cpu");
    let v_cold = vectorized.run_query(&query, DeviceId::Gpu).expect("vec cold");
    let v_hot = vectorized.run_query_cached(&query, DeviceId::Gpu).expect("vec hot");
    t.push_row([
        "vector-at-a-time".to_string(),
        ms(v_cpu.time),
        ms(v_cold.time),
        ms(v_hot.time),
        format!("{:.1}", v_cold.time.as_secs_f64() / v_hot.time.as_secs_f64()),
    ]);

    let compiled = CompiledEngine::new(&db, sim);
    let c_cpu = compiled.run_query(&query, DeviceId::Cpu).expect("comp cpu");
    let c_cold = compiled.run_query(&query, DeviceId::Gpu).expect("comp cold");
    let c_hot = compiled.run_query_cached(&query, DeviceId::Gpu).expect("comp hot");
    t.push_row([
        "compiled".to_string(),
        ms(c_cpu.time),
        ms(c_cold.time),
        ms(c_hot.time),
        format!("{:.1}", c_cold.time.as_secs_f64() / c_hot.time.as_secs_f64()),
    ]);
    t
}

pub fn multigpu(effort: Effort) -> FigTable {
    let setup = WorkloadSetup::new(WorkloadKind::Ssb, effort);
    let sim = setup.sim();
    let sweep = workload_sweep(WorkloadKind::Ssb, effort);
    let mut t = FigTable::new(
        "ablation-multigpu",
        "Section 6.3: Data-Driven Chopping + Shard over K co-processors, one machine (SSBM)",
    )
    .with_columns([
        "SF",
        "CPU Only [ms]",
        "GPU Only [ms]",
        "K=1 [ms]",
        "K=2 [ms]",
        "K=4 [ms]",
    ]);
    for (&sf, point) in setup.scale_factors.iter().zip(sweep.iter()) {
        // K = 1 shards nothing: it is the sweep's Data-Driven Chopping run.
        let swept = [Strategy::CpuOnly, Strategy::GpuPreferred, Strategy::DataDrivenChopping];
        let mut row = vec![format!("{sf}")];
        row.extend(swept.map(|s| ms(entry(&point.entries, s.name()).report.metrics.makespan)));
        let db = setup.db(sf);
        let queries = setup.queries(&db);
        let cfg = RunnerConfig::default()
            .with_placement_period(queries.len())
            .with_preload()
            .with_parallel(machine::parallel_ctx());
        for k in [2, 4] {
            let runner = WorkloadRunner::new(&db, sim.clone().with_coprocessors(k));
            let report = machine::run_sharded(&runner, &queries, &cfg).expect("sharded run");
            row.push(ms(report.metrics.makespan));
        }
        t.push_row(row);
    }
    t
}
