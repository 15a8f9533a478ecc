//! Open-loop serving layer (DESIGN.md §10).
//!
//! The closed-loop runner in `robustq-workloads` models a fixed set of
//! users who each wait for their previous query before issuing the
//! next — throughput-oriented, and self-throttling under overload. A
//! *serving* system sees the opposite: queries arrive on their own
//! clock, indifferent to how the backlog is doing, and the question is
//! what happens to latency percentiles when the offered rate brushes
//! against (or exceeds) capacity. That open-loop regime is where the
//! paper's robustness argument bites hardest: a single mis-placed
//! operator stalls every query queued behind it, so heuristic
//! placement's occasional disasters surface as p99/p999 blow-ups rather
//! than a slightly worse mean.
//!
//! This crate provides the three pieces the closed-loop stack lacks:
//!
//! * [`ArrivalProcess`] — seeded virtual-time load generators (Poisson,
//!   bursty, ramp, uniform, plus the degenerate closed-loop case);
//! * [`QueryMix`] — weighted/Zipf template sampling over any plan list;
//! * [`ServingRunner`] — the §6.1-style procedure (reset → warm-up →
//!   measured run) driving the executor's open-loop entry points, with
//!   [`ServingReport`] exposing p50/p95/p99/p999, goodput and shed
//!   counts.
//!
//! Determinism: all randomness flows from one `u64` seed through the
//! vendored xoshiro generator, and the transcendentals (`ln` for
//! exponential gaps, `pow` for Zipf weights) are the platform-portable
//! fixed-iteration versions in [`detmath`] — so a serving schedule, and
//! therefore every derived percentile, is byte-identical across
//! machines, libc versions and worker counts.

pub mod arrival;
pub mod detmath;
pub mod mix;
pub mod runner;

// Re-exported so downstream tests can drive [`QueryMix::sample`] with
// the exact generator the serving runner uses.
pub use rand;

pub use arrival::ArrivalProcess;
pub use mix::QueryMix;
pub use runner::{ServeConfig, ServingReport, ServingRunner, StreamingReport, BYTES_PER_ARRIVAL};
