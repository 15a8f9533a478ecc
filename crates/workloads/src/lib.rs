#![warn(missing_docs)]

//! Benchmark workloads and the multi-user workload runner.
//!
//! * [`ssb`] — the 13 Star Schema Benchmark queries Q1.1–Q4.3 (as SQL,
//!   planned through `robustq-sql`),
//! * [`tpch`] — the evaluated TPC-H subset Q2–Q7 (built programmatically;
//!   Q2/Q4 need decorrelated / semi-join forms outside the SQL subset),
//! * [`micro`] — the appendix micro-benchmarks: the serial selection
//!   workload (B.1, cache thrashing) and the parallel selection query
//!   (B.2, heap contention),
//! * [`runner`] — closed-loop multi-user execution with warmup, pre-load
//!   and metric collection, mirroring the paper's experimental procedure
//!   (Section 6.1),
//! * [`chaos`] — the seeded fault shapes and run invariants of the chaos
//!   harness.

pub mod chaos;
pub mod micro;
pub mod runner;
pub mod ssb;
pub mod ssb_stream;
pub mod tpch;

pub use runner::{ResultFingerprints, RunPhase, RunReport, RunnerConfig, WorkloadRunner};
pub use ssb::SsbQuery;
pub use ssb_stream::{SsbStreamData, SsbStreamGen};
pub use tpch::TpchQuery;
