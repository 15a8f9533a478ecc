#![warn(missing_docs)]

//! Discrete-event co-processor simulation substrate.
//!
//! The paper's experiments run on a physical GPU behind a PCIe bus. This
//! crate replaces that hardware with a deterministic simulator (see
//! DESIGN.md §1 for the substitution argument):
//!
//! * [`time::VirtualTime`] — a nanosecond-resolution virtual clock,
//! * [`events::EventQueue`] — a deterministic discrete-event queue,
//! * [`device`] — device descriptions with worker slots, and the dense
//!   [`device::PerDevice`] table,
//! * [`topology::Topology`] — the machine shape: 1 host CPU + K
//!   co-processors, each behind its own host link,
//! * [`heap::HeapAllocator`] — a byte-accurate device heap whose
//!   allocations *fail* when capacity is exceeded (the paper's
//!   out-of-memory aborts),
//! * [`cache::DataCache`] — the device column cache with LRU/LFU eviction
//!   and pinning (Section 3.2 / Algorithm 1),
//! * [`link::Interconnect`] — the PCIe model: latency, staging copy and
//!   bus bandwidth, FIFO contention per direction,
//! * [`costmodel::CostModel`] — ground-truth kernel durations and device
//!   memory footprints per operator class,
//! * [`fault::FaultPlan`] — seeded deterministic fault injection: heap
//!   allocation failures, transfer errors and latency spikes, device
//!   stall windows and kernel aborts, all triggered in virtual time
//!   (DESIGN.md §4).
//!
//! Nothing in this crate knows about relational operators or plans; the
//! engine crate drives the simulation.

pub mod cache;
pub mod config;
pub mod costmodel;
pub mod device;
pub mod events;
pub mod fault;
pub mod heap;
pub mod link;
pub mod time;
pub mod topology;

pub use cache::{partition_bytes, CacheKey, CachePolicy, CacheSet, DataCache, EvictionReasons};
pub use config::SimConfig;
pub use costmodel::{CostModel, CostParams, OpClass};
pub use device::{DeviceId, DeviceKind, DeviceSpec, PerDevice};
pub use events::EventQueue;
pub use fault::{FaultPlan, FaultSpec, FaultStats, RetryPolicy, StallWindow, TransferFault};
pub use heap::HeapAllocator;
pub use link::{Direction, Interconnect, LinkParams, LinkStats, Transfer};
pub use time::VirtualTime;
pub use topology::Topology;
