//! The placement strategies compared in the paper's evaluation.
//!
//! | Strategy | Placement time | Data placement | Concurrency bound |
//! |---|---|---|---|
//! | [`CpuOnly`] | compile | — | none |
//! | [`GpuPreferred`] | compile | operator-driven | none |
//! | [`CriticalPath`] | compile | operator-driven | none |
//! | [`DataDriven`] | compile | **data-driven** | none |
//! | [`RuntimePlacement`] | run time | operator-driven | none |
//! | [`Chopping`] | run time | operator-driven | **thread pool** |
//! | [`DataDrivenChopping`] | run time | **data-driven** | **thread pool** |

pub mod chopping;
pub mod critical_path;
pub mod data_driven;
mod price;
pub mod runtime;
pub mod simple;

pub use chopping::Chopping;
pub use critical_path::CriticalPath;
pub use data_driven::{DataDriven, DataDrivenChopping};
pub use price::price;
pub use runtime::{RuntimePlacement, RuntimePlacer};
pub use simple::{CpuOnly, GpuPreferred};

use crate::placement_mgr::PlacementPolicyKind;
use robustq_engine::PlacementPolicy;

/// Strategy selector used by workload runners and the figure harness.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Strategy {
    /// Everything on the CPU.
    CpuOnly,
    /// Everything on the co-processor, CPU only on aborts.
    GpuPreferred,
    /// CoGaDB's compile-time iterative-refinement optimizer.
    CriticalPath,
    /// Data-driven operator placement (Section 3).
    DataDriven,
    /// Tactical placement at execution time (Section 4).
    RuntimePlacement,
    /// Run-time placement plus the thread pool (Section 5).
    Chopping,
    /// The combined robust strategy (Section 5.4).
    DataDrivenChopping,
}

impl Strategy {
    /// All strategies in the order the paper's figures list them.
    pub const ALL: [Strategy; 7] = [
        Strategy::CpuOnly,
        Strategy::GpuPreferred,
        Strategy::CriticalPath,
        Strategy::DataDriven,
        Strategy::RuntimePlacement,
        Strategy::Chopping,
        Strategy::DataDrivenChopping,
    ];

    /// The six strategies of Figure 14/18 (no plain run-time placement).
    pub const PAPER_SIX: [Strategy; 6] = [
        Strategy::CpuOnly,
        Strategy::GpuPreferred,
        Strategy::CriticalPath,
        Strategy::DataDriven,
        Strategy::Chopping,
        Strategy::DataDrivenChopping,
    ];

    /// Display name matching the paper's terminology.
    pub fn name(self) -> &'static str {
        match self {
            Strategy::CpuOnly => "CPU Only",
            Strategy::GpuPreferred => "GPU Only",
            Strategy::CriticalPath => "Critical Path",
            Strategy::DataDriven => "Data-Driven",
            Strategy::RuntimePlacement => "Run-Time Placement",
            Strategy::Chopping => "Chopping",
            Strategy::DataDrivenChopping => "Data-Driven Chopping",
        }
    }

    /// Instantiate a fresh policy (LFU data placement where applicable).
    pub fn build(self) -> Box<dyn PlacementPolicy> {
        match self {
            Strategy::CpuOnly => Box::new(CpuOnly),
            Strategy::GpuPreferred => Box::new(GpuPreferred),
            Strategy::CriticalPath => Box::new(CriticalPath::new()),
            Strategy::DataDriven => Box::new(DataDriven::new(PlacementPolicyKind::Lfu)),
            Strategy::RuntimePlacement => Box::new(RuntimePlacement::new()),
            Strategy::Chopping => Box::new(Chopping::new()),
            Strategy::DataDrivenChopping => {
                Box::new(DataDrivenChopping::new(PlacementPolicyKind::Lfu))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_all_strategies() {
        for s in Strategy::ALL {
            let p = s.build();
            assert!(!p.name().is_empty());
        }
    }

    #[test]
    fn names_match_paper_terms() {
        assert_eq!(Strategy::DataDrivenChopping.name(), "Data-Driven Chopping");
        assert_eq!(Strategy::GpuPreferred.name(), "GPU Only");
        assert_eq!(Strategy::PAPER_SIX.len(), 6);
    }
}
