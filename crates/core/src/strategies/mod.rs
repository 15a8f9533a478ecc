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
use robustq_engine::{Placement, PlacementPolicy, PlaceReason, TaskInfo};
use robustq_sim::DeviceId;
use std::collections::BTreeMap;

/// The recurring-placement memo: the device chosen per `(standing query,
/// task slot)`. A standing query re-submits the same plan every window
/// tick, so the slot identifies "the same operator as last tick" and a
/// run-time strategy replays its decision ([`PlaceReason::Recurring`])
/// instead of re-deriving it each fire. Tasks of ordinary queries
/// (`recurring == None`) pass straight through.
#[derive(Debug, Clone, Default)]
pub(crate) struct RecurringMemo(BTreeMap<(u32, u32), DeviceId>);

impl RecurringMemo {
    /// The memoized placement of `task`'s slot, if there is one and its
    /// device is still `viable`. An aborted task or a failed viability
    /// check drops the memo, so the caller decides afresh.
    pub(crate) fn lookup(
        &mut self,
        task: &TaskInfo,
        viable: impl FnOnce(DeviceId) -> bool,
    ) -> Option<Placement> {
        let slot = task.recurring?;
        let device = *self.0.get(&slot)?;
        if !task.was_aborted && viable(device) {
            return Some(Placement::fixed(device).because(PlaceReason::Recurring));
        }
        self.0.remove(&slot);
        None
    }

    /// Memoize a fresh decision for `task`'s slot (a retry after an
    /// abort is not one — the next tick decides again) and hand it back.
    pub(crate) fn record(&mut self, task: &TaskInfo, placed: Placement) -> Placement {
        if let (Some(slot), false) = (task.recurring, task.was_aborted) {
            self.0.insert(slot, placed.device);
        }
        placed
    }
}

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
    fn recurring_memo_replays_until_abort_or_veto() {
        use crate::strategies::runtime::test_support::task;
        let gpu = || Placement::fixed(DeviceId::Gpu);
        let mut memo = RecurringMemo::default();
        // Ordinary queries pass straight through, unrecorded.
        let plain = task(100);
        assert_eq!(memo.record(&plain, gpu()), gpu());
        assert_eq!(memo.lookup(&plain, |_| true), None);
        // A standing-query slot replays its first decision...
        let mut tick = task(100);
        tick.recurring = Some((0, 3));
        assert_eq!(memo.lookup(&tick, |_| true), None, "first tick decides");
        memo.record(&tick, gpu());
        let replayed = memo.lookup(&tick, |d| d == DeviceId::Gpu).expect("memoized");
        assert_eq!(replayed, gpu().because(PlaceReason::Recurring));
        // ...per slot...
        let other = TaskInfo { recurring: Some((0, 4)), ..tick };
        assert_eq!(memo.lookup(&other, |_| true), None);
        // ...until the device stops being viable: the memo is dropped,
        // not just skipped.
        assert_eq!(memo.lookup(&tick, |_| false), None);
        assert_eq!(memo.lookup(&tick, |_| true), None);
        // An abort drops it too, and the CPU retry is not memoized.
        memo.record(&tick, gpu());
        tick.was_aborted = true;
        assert_eq!(memo.lookup(&tick, |_| true), None);
        memo.record(&tick, Placement::fixed(DeviceId::Cpu));
        tick.was_aborted = false;
        assert_eq!(memo.lookup(&tick, |_| true), None);
    }

    #[test]
    fn names_match_paper_terms() {
        assert_eq!(Strategy::DataDrivenChopping.name(), "Data-Driven Chopping");
        assert_eq!(Strategy::GpuPreferred.name(), "GPU Only");
        assert_eq!(Strategy::PAPER_SIX.len(), 6);
    }
}
