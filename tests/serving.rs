//! Serving-layer integration pins (DESIGN.md §10).
//!
//! Three suites:
//!
//! * **Differential** — a closed-loop `N`-user run expressed as the
//!   degenerate [`ArrivalProcess::Closed`] process must reproduce the
//!   classic `WorkloadRunner` results *bit-identically*: same
//!   `RunMetrics` (makespan included), same per-query outcomes. Both
//!   runners build a schedule for the one run procedure, so this pins
//!   that their schedules and warm-ups agree.
//! * **Golden percentiles** — a fixed `(seed, workload, machine)`
//!   triple pins p50/p95/p99 and the outcome stream against a fixture
//!   (FNV-1a fingerprint, `ROBUSTQ_BLESS=1` to re-capture), and the
//!   same run repeated under different real-CPU worker counts must
//!   yield identical percentiles — virtual time never depends on host
//!   parallelism.
//! * **Overload** — at an arrival rate past GPU Only's capacity but
//!   within Data-Driven Chopping's, the learned strategy completes the
//!   whole schedule while GPU Only sheds, and the learned p99 stays at
//!   or below GPU Only's — graceful degradation instead of collapse.

use robustq::core::Strategy;
use robustq::engine::ParallelCtx;
use robustq::serve::{ArrivalProcess, QueryMix, ServeConfig, ServingRunner};
use robustq::sim::{SimConfig, VirtualTime};
use robustq::storage::gen::ssb::SsbGenerator;
use robustq::storage::Database;
use robustq::workloads::{ssb, RunnerConfig, WorkloadRunner};

const FIXTURE: &str =
    concat!(env!("CARGO_MANIFEST_DIR"), "/tests/fixtures/serving_golden.txt");

/// FNV-1a over the raw bytes.
fn fnv64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

fn small_db() -> Database {
    SsbGenerator::new(1).with_rows_per_sf(1_000).generate()
}

/// The tight-cache machine of the loadgen sweep: the SSB working set
/// overflows a single co-processor cache, so placement quality decides
/// the tail.
fn tight_sim() -> SimConfig {
    SimConfig::default().with_gpu_memory(2 * 1024 * 1024).with_gpu_cache(256 * 1024)
}

#[test]
fn closed_arrival_process_is_bit_identical_to_workload_runner() {
    let db = small_db();
    let queries = ssb::workload(&db).expect("SSB plans");
    for strategy in [Strategy::GpuPreferred, Strategy::DataDrivenChopping] {
        for users in [1usize, 3] {
            let classic = WorkloadRunner::new(&db, tight_sim())
                .run(&queries, strategy, &RunnerConfig::default().with_users(users))
                .expect("closed-loop run");
            let serving = ServingRunner::new(&db, tight_sim())
                .run(
                    &QueryMix::uniform(queries.clone()),
                    strategy,
                    &ServeConfig::new(
                        ArrivalProcess::Closed { users },
                        VirtualTime::ZERO,
                    ),
                )
                .expect("serving run");
            assert_eq!(
                classic.metrics, serving.metrics,
                "{} users={users}: metrics must be bit-identical",
                strategy.name()
            );
            assert_eq!(
                format!("{:?}", classic.outcomes),
                format!("{:?}", serving.outcomes),
                "{} users={users}: outcomes must be bit-identical",
                strategy.name()
            );
            assert_eq!(serving.metrics.shed, 0);
            assert_eq!(serving.offered, queries.len());
        }
    }
}

/// The golden serving run: one open-loop sweep point, fully pinned.
fn fingerprint() -> String {
    let db = small_db();
    let mix = QueryMix::zipf(ssb::workload(&db).expect("SSB plans"), 0.8);
    let runner = ServingRunner::new(&db, tight_sim());
    let mut out = String::new();
    for strategy in [Strategy::GpuPreferred, Strategy::DataDrivenChopping] {
        let cfg = ServeConfig::new(
            ArrivalProcess::Poisson { rate_qps: 20_000.0 },
            VirtualTime::from_millis(20),
        )
        .with_sessions(64)
        .with_seed(7)
        .with_admission_limit(4)
        .with_queue_cap(16);
        let report = runner.run(&mix, strategy, &cfg).expect("golden serving run");
        out.push_str(&format!("strategy: {}\n", report.strategy));
        out.push_str(&format!(
            "offered: {} completed: {} shed: {}\n",
            report.offered,
            report.completed(),
            report.metrics.shed
        ));
        out.push_str(&format!(
            "p50: {:?} p95: {:?} p99: {:?} p999: {:?}\n",
            report.p50(),
            report.p95(),
            report.p99(),
            report.p999()
        ));
        out.push_str(&format!(
            "outcomes: {:#018x}\n",
            fnv64(format!("{:?}", report.outcomes).as_bytes())
        ));
    }
    out
}

#[test]
fn golden_percentiles_are_pinned() {
    let got = fingerprint();
    if std::env::var("ROBUSTQ_BLESS").is_ok() {
        std::fs::create_dir_all(
            std::path::Path::new(FIXTURE).parent().expect("fixture dir"),
        )
        .expect("create fixture dir");
        std::fs::write(FIXTURE, &got).expect("write fixture");
        return;
    }
    let want = std::fs::read_to_string(FIXTURE)
        .expect("serving fixture missing — run with ROBUSTQ_BLESS=1 to capture");
    assert_eq!(got, want, "serving percentiles drifted from the golden fixture");
}

#[test]
fn percentiles_are_identical_across_worker_counts() {
    let db = small_db();
    let mix = QueryMix::zipf(ssb::workload(&db).expect("SSB plans"), 0.8);
    let runner = ServingRunner::new(&db, tight_sim());
    let run = |workers: usize| {
        let cfg = ServeConfig::new(
            ArrivalProcess::Poisson { rate_qps: 10_000.0 },
            VirtualTime::from_millis(10),
        )
        .with_seed(3)
        .with_parallel(ParallelCtx::serial().with_workers(workers));
        let report = runner
            .run(&mix, Strategy::DataDrivenChopping, &cfg)
            .expect("worker-count run");
        (
            report.p50(),
            report.p95(),
            report.p99(),
            report.metrics.shed,
            fnv64(format!("{:?}", report.outcomes).as_bytes()),
        )
    };
    let base = run(1);
    for workers in [2usize, 8] {
        assert_eq!(
            run(workers),
            base,
            "virtual-time percentiles must not depend on host workers={workers}"
        );
    }
}

#[test]
fn overload_sheds_gracefully_under_learned_placement() {
    let db = SsbGenerator::new(1).with_rows_per_sf(8_000).generate();
    let mix = QueryMix::zipf(ssb::workload(&db).expect("SSB plans"), 0.8);
    let runner = ServingRunner::new(&db, tight_sim());
    // 25k qps: past GPU Only's thrashing capacity (~8k qps on this
    // machine), comfortably inside Data-Driven Chopping's (~25k+).
    let cfg = ServeConfig::new(
        ArrivalProcess::Poisson { rate_qps: 25_000.0 },
        VirtualTime::from_millis(20),
    )
    .with_seed(42)
    .with_admission_limit(4)
    .with_queue_cap(32);
    let gpu = runner.run(&mix, Strategy::GpuPreferred, &cfg).expect("gpu run");
    let learned =
        runner.run(&mix, Strategy::DataDrivenChopping, &cfg).expect("learned run");

    assert!(gpu.metrics.shed > 0, "GPU Only should shed past its capacity");
    assert_eq!(gpu.offered, gpu.completed() + gpu.metrics.shed as usize);
    assert_eq!(
        learned.metrics.shed, 0,
        "Data-Driven Chopping should absorb the same offered load"
    );
    assert_eq!(learned.completed(), learned.offered);
    assert!(
        learned.p99() <= gpu.p99(),
        "learned p99 {:?} must not exceed GPU Only p99 {:?}",
        learned.p99(),
        gpu.p99()
    );
    // The queue cap bounds the tail even for the overloaded strategy:
    // no query waits behind more than queue_cap + in-flight queries.
    assert!(
        gpu.p99() < VirtualTime::from_millis(300),
        "shedding must keep the overloaded tail bounded, got {:?}",
        gpu.p99()
    );
}
