//! Golden pin of the Chrome export for the shapes the K = 1 golden
//! (`topology_golden.rs`) never reaches: a second co-processor and the
//! shard lane, open-loop degraded spans and shed instants, the feed
//! lane, and the fault lane with retries, injected aborts and chunked
//! staging. Each shape records its event count and an FNV-1a hash of
//! the exported document, and asserts the records that distinguish it
//! are present — so a pin that stopped covering its shape fails loudly
//! instead of hashing a blander trace.
//!
//! Re-bless (only for an intentional change of the exported bytes):
//! `ROBUSTQ_BLESS=1 cargo test --test chrome_golden`

use robustq::prelude::*;
use robustq::sim::FaultSpec;
use robustq::storage::gen::ssb::SsbGenerator;
use robustq::trace::{chrome_trace_json, lint_chrome_trace, TraceData};
use robustq::workloads::ssb;
use robustq::workloads::ssb_stream::SsbStreamGen;
use robustq::workloads::SsbQuery;

const FIXTURE: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/fixtures/chrome_shapes.txt");

/// FNV-1a over the raw bytes.
fn fnv64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

fn tight_sim() -> SimConfig {
    SimConfig::default().with_gpu_memory(512 * 1024).with_gpu_cache(256 * 1024)
}

/// K = 2, 2-way sharded Data-Driven Chopping + Shard.
fn sharded_k2() -> TraceData {
    let db = SsbGenerator::new(1).with_rows_per_sf(1_000).generate();
    let queries = ssb::workload(&db).expect("SSB plans");
    let runner = WorkloadRunner::new(&db, tight_sim().with_coprocessors(2));
    let mut policy =
        DataDrivenChopping::with_manager(DataPlacementManager::lfu().with_sharding(2, 64 * 1024));
    let cfg = RunnerConfig::default().with_users(2).with_sharding(2, 0.0).with_trace();
    let report = runner
        .run_with_policy(&queries, &mut policy, "Data-Driven Chopping + Shard", &cfg)
        .expect("sharded run");
    report.trace.expect("traced run")
}

/// Open loop over two sessions, past capacity, with a queue cap of one.
fn open_loop_shedding() -> TraceData {
    let db = SsbGenerator::new(1).with_rows_per_sf(1_000).generate();
    let mix = QueryMix::zipf(ssb::workload(&db).expect("SSB plans"), 0.8);
    let cfg = ServeConfig::new(
        ArrivalProcess::Poisson { rate_qps: 100_000.0 },
        VirtualTime::from_millis(2),
    )
    .with_sessions(2)
    .with_seed(7)
    .with_admission_limit(1)
    .with_queue_cap(1)
    .with_trace();
    let report = ServingRunner::new(&db, tight_sim())
        .run(&mix, Strategy::DataDrivenChopping, &cfg)
        .expect("open-loop run");
    report.trace.expect("traced run")
}

/// A feed replay with one standing query beside ad-hoc arrivals.
fn streaming_feed() -> TraceData {
    let period = VirtualTime::from_millis(2);
    let data = SsbStreamGen::new(1)
        .with_rows_per_sf(800)
        .with_batches(3)
        .with_seal_rows(250)
        .build()
        .expect("stream build");
    let standing = vec![data
        .standing_query(SsbQuery::Q1_1, WindowKind::Tumbling, period, 3)
        .expect("Q1.1 plan")];
    let mix = QueryMix::uniform(vec![SsbQuery::Q1_2.plan(&data.db).expect("plan")]);
    let cfg = ServeConfig::new(
        ArrivalProcess::Poisson { rate_qps: 2_000.0 },
        VirtualTime::from_millis(8),
    )
    .with_sessions(4)
    .with_seed(11)
    .with_trace();
    let report = ServingRunner::new(&data.db, tight_sim())
        .run_streaming(
            &mix,
            data.feed_schedule(period, period),
            standing,
            Strategy::DataDrivenChopping,
            &cfg,
        )
        .expect("streaming run");
    report.trace.expect("traced run")
}

/// A seeded fault plan on a 128 KiB heap with chunked staging.
fn faulted_staged() -> TraceData {
    let db = SsbGenerator::new(1).with_rows_per_sf(1_000).generate();
    let queries = ssb::workload(&db).expect("SSB plans");
    let sim = SimConfig::default().with_gpu_memory(384 * 1024).with_gpu_cache(256 * 1024);
    let spec = FaultSpec {
        alloc_fail_prob: 0.1,
        transfer_transient_prob: 0.1,
        transfer_spike_prob: 0.05,
        transfer_spike_factor: 4.0,
        kernel_abort_prob: 0.1,
        ..Default::default()
    };
    let cfg = RunnerConfig::default()
        .with_users(2)
        .with_cost_model(CostModelKind::Adaptive { seed: 42 })
        .with_chunked_staging()
        .with_fault_plan(FaultPlan::new(42, spec))
        .with_trace();
    let report = WorkloadRunner::new(&db, sim)
        .run(&queries, Strategy::GpuPreferred, &cfg)
        .expect("faulted run");
    report.trace.expect("traced run")
}

type Shape = (&'static str, fn() -> TraceData, &'static [&'static str]);

/// Each shape with the record fragments its export must carry.
const SHAPES: [Shape; 4] = [
    (
        "sharded_k2",
        sharded_k2,
        &[
            "\"name\":\"shard fan-out\"",
            "\"name\":\"GPU2 kernels\"",
            "\"name\":\"shard q",
            "\"name\":\"merge q",
        ],
    ),
    (
        "open_loop_shedding",
        open_loop_shedding,
        &["\"cat\":\"query\",\"ph\":\"X\"", "\"name\":\"shed ("],
    ),
    (
        "streaming_feed",
        streaming_feed,
        &[
            "\"name\":\"feed\"",
            "\"name\":\"append +",
            "\"name\":\"seal s",
            "\"name\":\"fire s",
        ],
    ),
    (
        "faulted_staged",
        faulted_staged,
        &[
            "\"cat\":\"fault\"",
            "\"name\":\"retry\"",
            "(injected abort)",
            "\"name\":\"staged ×",
        ],
    ),
];

fn fingerprint() -> String {
    let mut out = String::new();
    for (name, run, must_carry) in SHAPES {
        let trace = run();
        assert_eq!(trace.dropped, 0, "{name}: ring overflowed");
        let chrome = chrome_trace_json(&trace.events);
        lint_chrome_trace(&chrome).unwrap_or_else(|e| panic!("{name}: lint: {e}"));
        for fragment in must_carry {
            assert!(chrome.contains(fragment), "{name}: export lacks {fragment:?}");
        }
        out.push_str(&format!("shape: {name}\n"));
        out.push_str(&format!("events: {}\n", trace.events.len()));
        out.push_str(&format!("chrome_fnv64: {:#018x}\n", fnv64(chrome.as_bytes())));
    }
    out
}

#[test]
fn chrome_exports_are_byte_identical_to_the_pinned_shapes() {
    let got = fingerprint();
    if std::env::var("ROBUSTQ_BLESS").is_ok() {
        std::fs::write(FIXTURE, &got).expect("write fixture");
        return;
    }
    let want = std::fs::read_to_string(FIXTURE)
        .expect("chrome fixture missing — run with ROBUSTQ_BLESS=1 to capture");
    assert_eq!(got, want, "a Chrome export drifted from its pinned bytes");
}
