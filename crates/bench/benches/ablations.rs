//! `cargo bench --bench ablations` — ablation studies for the design
//! choices DESIGN.md §12 calls out. Custom harness (deterministic virtual
//! time, like the figures bench).
//!
//! 1. chopping thread-pool size (the Section 5.2 concurrency bound),
//! 2. operator-driven cache eviction policy (LRU vs LFU under thrashing),
//! 3. admission-control limit vs chopping (Section 6.2.2),
//! 4. interconnect bandwidth sensitivity of the Figure 1 crossover,
//! 5. transparent compression shifting the Figure 14 break-down point
//!    (the Section 6.3 discussion),
//! 6. processing models (bulk / vectorized / compiled, Section 5.5):
//!    cache thrashing is inherent to all three,
//! 7. multi-co-processor scale-up via horizontal partitioning
//!    (Section 6.3: more GPUs shift the break-down point further): one
//!    machine per fact-table partition, the makespan the slowest one's.

use robustq_bench::machine::{
    partitioned_makespan, Effort, MicroSetup, ParallelSetup, WorkloadKind, WorkloadSetup,
};
use robustq_bench::table::{ms, FigTable};
use robustq_core::strategies::Chopping;
use robustq_core::Strategy;
use robustq_sim::CachePolicy;
use robustq_workloads::{micro, RunnerConfig, SsbQuery, WorkloadRunner};

fn chopping_slots(effort: Effort) -> FigTable {
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
        let label: &'static str = Box::leak(format!("chopping/{slots}").into_boxed_str());
        let report = runner
            .run_with_policy(&queries, &mut policy, label, &cfg)
            .expect("slots ablation run");
        t.push_row([
            format!("{slots}"),
            ms(report.metrics.makespan),
            format!("{}", report.metrics.aborts),
        ]);
    }
    t
}

fn cache_policy(effort: Effort) -> FigTable {
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

fn admission_limits(effort: Effort) -> FigTable {
    let setup = WorkloadSetup::new(WorkloadKind::Ssb, effort);
    let db = setup.db(10);
    let queries = setup.queries(&db);
    let runner = WorkloadRunner::new(&db, setup.sim());
    let mut t = FigTable::new(
        "ablation-admission",
        "GPU-only with admission limits vs chopping (SSBM, SF 10, 20 users)",
    )
    .with_columns(["configuration", "exec time [ms]", "mean latency [ms]"]);
    for limit in [1usize, 2, 4, 8, usize::MAX] {
        let cfg = RunnerConfig::default()
            .with_users(20)
            .with_placement_period(queries.len())
            .with_preload()
            .with_admission_limit(limit);
        let report = runner
            .run(&queries, Strategy::GpuPreferred, &cfg)
            .expect("admission run");
        let label =
            if limit == usize::MAX { "unbounded".to_string() } else { format!("limit {limit}") };
        t.push_row([
            label,
            ms(report.metrics.makespan),
            ms(report.mean_latency()),
        ]);
    }
    let cfg = RunnerConfig::default()
        .with_users(20)
        .with_placement_period(queries.len())
        .with_preload();
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

fn link_bandwidth(effort: Effort) -> FigTable {
    let setup = WorkloadSetup::new(WorkloadKind::Ssb, effort);
    let db = setup.db(20);
    let query = SsbQuery::Q3_3.plan(&db).expect("Q3.3 plans");
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
        let cpu = runner
            .run(std::slice::from_ref(&query), Strategy::CpuOnly, &RunnerConfig::default())
            .expect("cpu");
        let cold = runner
            .run(
                std::slice::from_ref(&query),
                Strategy::GpuPreferred,
                &RunnerConfig::default().cold_cache(),
            )
            .expect("cold");
        let hot = runner
            .run(
                std::slice::from_ref(&query),
                Strategy::GpuPreferred,
                &RunnerConfig::default(),
            )
            .expect("hot");
        t.push_row([
            format!("{scale}x"),
            ms(cpu.metrics.makespan),
            ms(cold.metrics.makespan),
            ms(hot.metrics.makespan),
        ]);
    }
    t
}

fn compression_shifts_crossover(effort: Effort) -> FigTable {
    use robustq_storage::gen::ssb::SsbGenerator;

    let setup = WorkloadSetup::new(WorkloadKind::Ssb, effort);
    let sim = setup.sim();
    let mut t = FigTable::new(
        "ablation-compression",
        "Section 6.3: compression shifts the GPU-only break-down point",
    )
    .with_columns([
        "SF",
        "CPU Only [ms]",
        "GPU raw [ms]",
        "GPU compressed [ms]",
        "ratio",
    ]);
    for &sf in &setup.scale_factors {
        // Fresh databases: compression mutates effective sizes.
        let raw_db =
            SsbGenerator::new(sf).with_rows_per_sf(setup.rows_per_sf).generate();
        let mut comp_db =
            SsbGenerator::new(sf).with_rows_per_sf(setup.rows_per_sf).generate();
        let ratio = comp_db.apply_compression();
        let queries = robustq_workloads::ssb::workload(&raw_db).expect("SSB plans");
        let cfg = RunnerConfig::default()
            .with_placement_period(queries.len())
            .with_preload();

        let cpu = WorkloadRunner::new(&raw_db, sim.clone())
            .run(&queries, Strategy::CpuOnly, &cfg)
            .expect("cpu run");
        let gpu_raw = WorkloadRunner::new(&raw_db, sim.clone())
            .run(&queries, Strategy::GpuPreferred, &cfg)
            .expect("raw run");
        let gpu_comp = WorkloadRunner::new(&comp_db, sim.clone())
            .run(&queries, Strategy::GpuPreferred, &cfg)
            .expect("compressed run");
        t.push_row([
            format!("{sf}"),
            ms(cpu.metrics.makespan),
            ms(gpu_raw.metrics.makespan),
            ms(gpu_comp.metrics.makespan),
            format!("{ratio:.2}"),
        ]);
    }
    t
}

fn processing_models(effort: Effort) -> FigTable {
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
    let bulk_cpu = runner
        .run(std::slice::from_ref(&query), Strategy::CpuOnly, &RunnerConfig::default())
        .expect("bulk cpu");
    let bulk_cold = runner
        .run(
            std::slice::from_ref(&query),
            Strategy::GpuPreferred,
            &RunnerConfig::default().cold_cache(),
        )
        .expect("bulk cold");
    let bulk_hot = runner
        .run(std::slice::from_ref(&query), Strategy::GpuPreferred, &RunnerConfig::default())
        .expect("bulk hot");
    t.push_row([
        "operator-at-a-time".to_string(),
        ms(bulk_cpu.metrics.makespan),
        ms(bulk_cold.metrics.makespan),
        ms(bulk_hot.metrics.makespan),
        format!(
            "{:.1}",
            bulk_cold.metrics.makespan.as_secs_f64() / bulk_hot.metrics.makespan.as_secs_f64()
        ),
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

fn multi_gpu_partitioning(effort: Effort) -> FigTable {
    let setup = WorkloadSetup::new(WorkloadKind::Ssb, effort);
    let sim = setup.sim();
    let mut t = FigTable::new(
        "ablation-multigpu",
        "Section 6.3: horizontal partitioning across co-processors",
    )
    .with_columns(["SF", "CPU Only [ms]", "1 GPU [ms]", "2 GPUs [ms]", "4 GPUs [ms]"]);
    for &sf in &setup.scale_factors {
        let db = setup.db(sf);
        let queries = setup.queries(&db);
        let cfg = RunnerConfig::default()
            .with_placement_period(queries.len())
            .with_preload();
        let cpu = WorkloadRunner::new(&db, sim.clone())
            .run(&queries, Strategy::CpuOnly, &cfg)
            .expect("cpu run");
        let mut row = vec![format!("{sf}"), ms(cpu.metrics.makespan)];
        for n in [1, 2, 4] {
            let gpu = Strategy::GpuPreferred;
            let makespan = partitioned_makespan(&db, "lineorder", n, &sim, &queries, gpu, &cfg)
                .expect("partitioned run");
            row.push(ms(makespan));
        }
        t.push_row(row);
    }
    t
}

fn main() {
    let effort = Effort::from_env();
    for table in [
        chopping_slots(effort),
        cache_policy(effort),
        admission_limits(effort),
        link_bandwidth(effort),
        compression_shifts_crossover(effort),
        processing_models(effort),
        multi_gpu_partitioning(effort),
    ] {
        println!("{table}");
    }
}
