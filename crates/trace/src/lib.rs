#![warn(missing_docs)]

//! Structured tracing and metrics keyed to virtual time (DESIGN.md §11).
//!
//! The paper's whole argument is about *explaining* where virtual time
//! goes — transfer stalls, aborted co-processor operators, placement
//! decisions. This crate records those explanations as typed events:
//!
//! * [`event::TraceEvent`] — operator/transfer/query spans, cache and
//!   heap activity, fault injections and placement-decision records,
//!   every one stamped with deterministic [`robustq_sim::VirtualTime`];
//! * [`tracer::Tracer`] — the cheap cloneable handle the executor
//!   threads through the simulation: a single-branch no-op when disabled
//!   (no allocations, runs byte-identical to untraced builds), a bounded
//!   ring buffer when enabled;
//! * [`chrome`] — a Chrome `trace_event` JSON exporter streaming to an
//!   `io::Write` (a lane per device, transfer direction and session;
//!   loads in Perfetto);
//! * [`registry::MetricsRegistry`] — counters and power-of-two-bucket
//!   histograms (latency, queue wait, transfer sizes) derived from the
//!   event stream;
//! * [`lint`] — the validation behind the `trace-lint` tool: well-formed
//!   JSON, monotone timestamps per lane, balanced span nesting, one
//!   `thread_name` per used lane.
//!
//! Because events carry only virtual-time stamps and scalar payloads,
//! the stream for a given seed is byte-identical across kernel worker
//! counts and replayable under fault plans.

pub mod chrome;
pub mod event;
pub mod json;
pub mod lint;
pub mod registry;
pub mod tracer;

pub use chrome::{chrome_trace_json, write_chrome_trace};
pub use event::{
    EstVec, FaultKind, OpOutcome, PlacePhase, PlaceReason, ShedReason, TraceEvent, TransferKind,
};
pub use lint::{lint_chrome_trace, LintReport};
pub use registry::{Histogram, MetricsRegistry};
pub use tracer::{TraceData, Tracer};
