//! Single-device reference strategies.

use robustq_engine::{Placement, PlacementPolicy, PolicyCtx, TaskInfo};
use robustq_sim::DeviceId;

/// Execute everything on the CPU (the paper's CPU-Only reference).
#[derive(Debug, Default, Clone)]
pub struct CpuOnly;

impl PlacementPolicy for CpuOnly {
    fn name(&self) -> &'static str {
        "CPU Only"
    }

    fn plan_query(&mut self, tasks: &[TaskInfo], _ctx: &PolicyCtx) -> Vec<Option<Placement>> {
        vec![Some(Placement::fixed(DeviceId::Cpu)); tasks.len()]
    }

    /// Nothing runs on a co-processor, so nothing is staged and no cache
    /// is ever written.
    fn caches_on_miss(&self) -> bool {
        false
    }
}

/// Execute everything on a co-processor, falling back to the CPU only
/// when an operator aborts (the paper's *GPU Preferred* / GPU-Only
/// reference, Section 6.2). Operator-driven data placement at compile
/// time: columns are cached on access, and successors of an aborted
/// operator stay on the GPU — the Figure 8 pathology.
///
/// On a multi-co-processor topology each query is pinned whole to the
/// least-loaded co-processor at admission (ties to the lowest index, so
/// a single-GPU machine behaves exactly as before); the strategy still
/// never places anything on the CPU deliberately.
#[derive(Debug, Default, Clone)]
pub struct GpuPreferred;

impl PlacementPolicy for GpuPreferred {
    fn name(&self) -> &'static str {
        "GPU Only"
    }

    fn plan_query(&mut self, tasks: &[TaskInfo], ctx: &PolicyCtx) -> Vec<Option<Placement>> {
        let device = ctx.least_loaded_coprocessor().unwrap_or(DeviceId::Cpu);
        vec![Some(Placement::fixed(device)); tasks.len()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::strategies::runtime::test_support::{empty_db, fixture, fixture_k, task};
    use robustq_sim::VirtualTime;

    #[test]
    fn cpu_only_annotates_cpu() {
        let db = empty_db();
        let fx = fixture(0);
        let mut p = CpuOnly;
        assert_eq!(
            p.plan_query(&[task(100), task(100)], &fx.ctx(&db)),
            vec![Some(Placement::fixed(DeviceId::Cpu)); 2]
        );
        assert!(!p.caches_on_miss(), "CPU Only never writes a co-processor cache");
    }

    #[test]
    fn gpu_preferred_annotates_gpu_and_caches_on_miss() {
        let db = empty_db();
        let fx = fixture(0);
        let mut p = GpuPreferred;
        assert_eq!(
            p.plan_query(&[task(100)], &fx.ctx(&db)),
            vec![Some(Placement::fixed(DeviceId::Gpu))]
        );
        assert!(p.caches_on_miss());
        assert_eq!(p.worker_slots(DeviceId::Gpu, 4), usize::MAX);
    }

    #[test]
    fn gpu_preferred_spreads_queries_across_the_fleet() {
        let db = empty_db();
        let mut fx = fixture_k(2, 0);
        let mut p = GpuPreferred;
        let g2 = DeviceId::coprocessor(2);
        // Idle fleet: ties to the lowest index (GPU1).
        assert_eq!(
            p.plan_query(&[task(100)], &fx.ctx(&db)),
            vec![Some(Placement::fixed(DeviceId::Gpu))]
        );
        // GPU1 busy: the next query lands whole on GPU2.
        fx.queued_work[DeviceId::Gpu] = VirtualTime::from_micros(50);
        assert_eq!(
            p.plan_query(&[task(100), task(100)], &fx.ctx(&db)),
            vec![Some(Placement::fixed(g2)); 2]
        );
    }
}
