//! Simulation configuration.

use crate::cache::CachePolicy;
use crate::costmodel::CostParams;
use crate::device::{DeviceSpec, PerDevice};
use crate::link::LinkParams;
use crate::topology::Topology;

/// Everything the simulated machine needs: the device topology (1 CPU +
/// K co-processors with their host links), the ground-truth cost model
/// and the cache policy.
///
/// The `with_gpu_*` builders apply to *every* co-processor — the
/// simulated fleets are uniform, which keeps the K = 1 configuration's
/// spelling unchanged while making K a one-call sweep axis
/// ([`SimConfig::with_coprocessors`]).
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// The machine's device and interconnect tables.
    pub topology: Topology,
    /// Ground-truth kernel durations and footprints.
    pub cost: CostParams,
    /// Eviction policy of the co-processor column caches.
    pub cache_policy: CachePolicy,
}

impl Default for SimConfig {
    /// A machine shaped like the paper's testbed, scaled to the default
    /// generator downscale: 4 CPU worker slots (the Xeon E5-1607's four
    /// cores), one co-processor with 40 MB device memory (4 GB ÷ 100,
    /// the default data downscale), 60 % of which is column cache.
    fn default() -> Self {
        let memory = 40 * 1024 * 1024;
        SimConfig {
            topology: Topology::cpu_gpu(
                DeviceSpec::cpu(4),
                DeviceSpec::coprocessor(4, memory, memory * 6 / 10),
                LinkParams::default(),
            ),
            cost: CostParams::default(),
            cache_policy: CachePolicy::Lru,
        }
    }
}

impl SimConfig {
    /// The host CPU's spec.
    pub fn cpu(&self) -> &DeviceSpec {
        self.topology.cpu()
    }

    /// The first co-processor's spec (the default machine's GPU).
    pub fn gpu(&self) -> &DeviceSpec {
        self.topology.gpu()
    }

    /// The spec of any device.
    pub fn spec(&self, device: crate::device::DeviceId) -> &DeviceSpec {
        self.topology.spec(device)
    }

    /// Per-device worker-slot counts, topology-sized.
    pub fn worker_slots(&self) -> PerDevice<usize> {
        PerDevice::from_fn(self.topology.device_count(), |d| {
            self.topology.spec(d).worker_slots
        })
    }

    /// Replace every co-processor's total memory, keeping each one's
    /// cache fraction.
    pub fn with_gpu_memory(mut self, memory_bytes: u64) -> Self {
        for d in self.topology.devices().skip(1).collect::<Vec<_>>() {
            let spec = self.topology.spec_mut(d);
            let frac = if spec.memory_bytes == 0 {
                0.6
            } else {
                spec.cache_bytes as f64 / spec.memory_bytes as f64
            };
            spec.memory_bytes = memory_bytes;
            spec.cache_bytes = (memory_bytes as f64 * frac) as u64;
        }
        self
    }

    /// Replace every co-processor's cache size in bytes.
    ///
    /// # Panics
    /// Panics if larger than the device memory.
    pub fn with_gpu_cache(mut self, cache_bytes: u64) -> Self {
        for d in self.topology.devices().skip(1).collect::<Vec<_>>() {
            let spec = self.topology.spec_mut(d);
            assert!(cache_bytes <= spec.memory_bytes);
            spec.cache_bytes = cache_bytes;
        }
        self
    }

    /// Replace every co-processor's worker-slot count (the chopping
    /// thread-pool bound).
    pub fn with_gpu_workers(mut self, slots: usize) -> Self {
        for d in self.topology.devices().skip(1).collect::<Vec<_>>() {
            self.topology.spec_mut(d).worker_slots = slots;
        }
        self
    }

    /// Replace the number of CPU worker slots.
    pub fn with_cpu_workers(mut self, slots: usize) -> Self {
        self.topology.spec_mut(crate::device::DeviceId::Cpu).worker_slots = slots;
        self
    }

    /// Replace the cache eviction policy.
    pub fn with_cache_policy(mut self, policy: CachePolicy) -> Self {
        self.cache_policy = policy;
        self
    }

    /// Set the co-processor count to `k`, cloning the first
    /// co-processor's spec and link for the added devices (a uniform
    /// fleet). `k = 1` is the default machine.
    ///
    /// # Panics
    /// Panics if `k` is zero — the executor needs at least one
    /// co-processor (use the CPU-only *strategy* to ignore it).
    pub fn with_coprocessors(mut self, k: usize) -> Self {
        assert!(k >= 1, "at least one co-processor is required");
        let template_spec = self.topology.gpu().clone();
        let template_link = *self.topology.link(crate::device::DeviceId::Gpu);
        let mut t = Topology::cpu_only(self.topology.cpu().clone());
        for i in 0..k {
            let d = crate::device::DeviceId::coprocessor(1 + i as u16);
            let (spec, link) = if self.topology.contains(d) {
                (self.topology.spec(d).clone(), *self.topology.link(d))
            } else {
                (template_spec.clone(), template_link)
            };
            t = t.with_coprocessor(spec, link);
        }
        self.topology = t;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::DeviceId;

    #[test]
    fn default_is_self_consistent() {
        let c = SimConfig::default();
        assert_eq!(c.topology.coprocessor_count(), 1);
        assert!(c.gpu().cache_bytes < c.gpu().memory_bytes);
        assert!(c.gpu().heap_bytes() > 0);
        assert!(c.cpu().worker_slots > 0);
    }

    #[test]
    fn with_gpu_memory_preserves_cache_fraction() {
        let c = SimConfig::default().with_gpu_memory(1_000);
        assert_eq!(c.gpu().memory_bytes, 1_000);
        assert_eq!(c.gpu().cache_bytes, 600);
    }

    #[test]
    fn builders_apply() {
        let c = SimConfig::default()
            .with_gpu_memory(10_000)
            .with_gpu_cache(1_234)
            .with_gpu_workers(2)
            .with_cpu_workers(8)
            .with_cache_policy(CachePolicy::Lfu);
        assert_eq!(c.gpu().cache_bytes, 1_234);
        assert_eq!(c.gpu().worker_slots, 2);
        assert_eq!(c.cpu().worker_slots, 8);
        assert_eq!(c.cache_policy, CachePolicy::Lfu);
    }

    #[test]
    fn coprocessor_fleet_is_uniform() {
        let c = SimConfig::default()
            .with_gpu_memory(10_000)
            .with_coprocessors(4)
            .with_gpu_workers(3);
        assert_eq!(c.topology.coprocessor_count(), 4);
        for d in c.topology.coprocessors() {
            assert_eq!(c.spec(d).memory_bytes, 10_000);
            assert_eq!(c.spec(d).worker_slots, 3);
        }
        // Shrinking keeps the leading devices.
        let c = c.with_coprocessors(2);
        assert_eq!(c.topology.coprocessor_count(), 2);
        assert_eq!(c.spec(DeviceId::Gpu).memory_bytes, 10_000);
    }

    #[test]
    fn gpu_builders_apply_to_every_coprocessor() {
        let c = SimConfig::default().with_coprocessors(3).with_gpu_cache(2_048);
        for d in c.topology.coprocessors() {
            assert_eq!(c.spec(d).cache_bytes, 2_048);
        }
        assert_eq!(c.worker_slots().len(), 4);
    }

    #[test]
    #[should_panic]
    fn oversized_cache_panics() {
        let _ = SimConfig::default().with_gpu_memory(100).with_gpu_cache(200);
    }

    #[test]
    #[should_panic(expected = "at least one co-processor")]
    fn zero_coprocessors_panics() {
        let _ = SimConfig::default().with_coprocessors(0);
    }
}
