#![warn(missing_docs)]

//! Robust operator placement for co-processor-accelerated databases.
//!
//! This crate is the paper's primary contribution, rebuilt as a library:
//!
//! * [`placement_mgr`] — the data placement manager: access-frequency
//!   statistics drive Algorithm 1, pinning the hottest columns into the
//!   co-processor cache (Section 3.2), with LFU and LRU variants
//!   (Appendix E);
//! * [`strategies`] — the placement strategies compared in the paper's
//!   evaluation:
//!   - [`strategies::CpuOnly`] / [`strategies::GpuPreferred`] — the
//!     single-device references,
//!   - [`strategies::CriticalPath`] — CoGaDB's default compile-time
//!     iterative-refinement optimizer (Appendix D),
//!   - [`strategies::DataDriven`] — data-driven operator placement
//!     (Section 3),
//!   - [`strategies::RuntimePlacement`] — tactical run-time placement
//!     (Section 4),
//!   - [`strategies::Chopping`] — query chopping: run-time placement plus
//!     a per-device thread pool (Section 5),
//!   - [`strategies::DataDrivenChopping`] — the combined, robust strategy
//!     (Section 5.4).
//!
//! The HyPE-style *learned* cost model the strategies estimate with
//! (Sections 2.5, 5.2) is `robustq_engine::LearnedModel`, next to the
//! [`robustq_engine::PlacementPolicy`] trait: the executor trains it, a
//! strategy only exposes it.

pub mod placement_mgr;
pub mod strategies;

pub use placement_mgr::{DataPlacementManager, PlacementPolicyKind};
pub use strategies::{
    Chopping, CpuOnly, CriticalPath, DataDriven, DataDrivenChopping, GpuPreferred,
    RuntimePlacement, Strategy,
};
