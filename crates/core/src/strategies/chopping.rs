//! Query chopping (Section 5).
//!
//! Chopping is run-time placement *plus* the thread-pool pattern: each
//! device has a bounded pool of worker slots pulling operators from its
//! ready queue, which puts an upper bound on the number of operators that
//! concurrently allocate co-processor heap memory — the fix for heap
//! contention. The progressive aspect (leaves enter the operator stream
//! first, parents follow as children finish) is the executor's task-graph
//! mechanic; the strategy contributes the placement decisions and the
//! concurrency bound.

use crate::strategies::runtime::RuntimePlacer;
use robustq_engine::{LearnedModel, Placement, PlacementPolicy, PolicyCtx, TaskInfo};
use robustq_sim::DeviceId;

/// Query chopping with operator-driven data placement.
#[derive(Debug, Clone)]
pub struct Chopping {
    placer: RuntimePlacer,
    /// Optional override of the per-device slot bound; `None` uses the
    /// device's configured thread-pool size.
    slot_override: Option<usize>,
}

impl Default for Chopping {
    fn default() -> Self {
        Self::new()
    }
}

impl Chopping {
    /// Chopping with the device-configured thread-pool sizes.
    pub fn new() -> Self {
        Chopping { placer: RuntimePlacer::new(), slot_override: None }
    }

    /// Fix the worker-slot bound on both devices (ablation experiments).
    pub fn with_slots(mut self, slots: usize) -> Self {
        self.slot_override = Some(slots);
        self
    }
}

impl PlacementPolicy for Chopping {
    fn name(&self) -> &'static str {
        "Chopping"
    }

    fn place_ready(&mut self, task: &TaskInfo, ctx: &PolicyCtx) -> Placement {
        self.placer.choose(task, ctx)
    }

    fn worker_slots(&self, _device: DeviceId, spec_slots: usize) -> usize {
        self.slot_override.unwrap_or(spec_slots)
    }

    fn learned_model(&mut self) -> Option<&mut LearnedModel> {
        Some(self.placer.model_mut())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::strategies::runtime::test_support::{empty_db, fixture, task};

    #[test]
    fn chopping_bounds_worker_slots() {
        let p = Chopping::new();
        assert_eq!(p.worker_slots(DeviceId::Gpu, 4), 4);
        assert_eq!(p.worker_slots(DeviceId::Cpu, 8), 8);
        let p = Chopping::new().with_slots(2);
        assert_eq!(p.worker_slots(DeviceId::Gpu, 4), 2);
    }

    #[test]
    fn chopping_places_at_runtime() {
        let db = empty_db();
        let fx = fixture(0);
        let ctx = fx.ctx(&db);
        let mut p = Chopping::new();
        // No compile-time annotations.
        let infos = vec![task(1_000), task(2_000)];
        assert_eq!(p.plan_query(&infos, &ctx), vec![None, None]);
        // Placement happens per ready task.
        let d = p.place_ready(&task(1_000_000), &ctx);
        assert!(matches!(d.device, DeviceId::Cpu | DeviceId::Gpu));
    }

    #[test]
    fn chopping_uses_operator_driven_caching() {
        assert!(Chopping::new().caches_on_miss());
    }
}
