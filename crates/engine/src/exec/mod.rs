//! The discrete-event executor.
//!
//! * [`task`] — flattened task graphs built from physical plans,
//! * [`policy`] — the [`policy::PlacementPolicy`] trait the placement
//!   strategies implement,
//! * [`model`] — the learned cost model ([`model::LearnedModel`]: one
//!   regression per operator class and device) the executor trains and
//!   the strategies estimate with,
//! * [`metrics`] — run metrics (makespan, transfer times, aborts, wasted
//!   time),
//! * [`executor`] — the thin public facade ([`executor::Executor`],
//!   [`executor::ExecOptions`]) over the layered runtime:
//!   * [`event_loop`] — the discrete-event core driving virtual time,
//!   * [`device_rt`] — per-device worker slots and FIFO ready queues,
//!   * [`transfer`] — interconnect staging and column-cache consults,
//!   * [`memory`] — staged heap allocation, operator aborts, restarts,
//!   * [`admission`] — session lifecycle and query admission control.

pub mod admission;
pub mod device_rt;
pub mod feed;
#[path = "loop.rs"]
pub mod event_loop;
pub mod executor;
pub mod memory;
pub mod metrics;
pub mod model;
pub mod policy;
pub mod task;
pub mod transfer;
