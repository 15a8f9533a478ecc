//! Ground-truth device cost model.
//!
//! This is the simulator's stand-in for physical silicon: it decides how
//! long a kernel *actually* takes and how much device memory it *actually*
//! needs. The optimizer never reads it — HyPE-style strategies learn their
//! own estimates from observed durations (crate `robustq-core`), exactly as
//! the paper separates learned cost models from real hardware.
//!
//! Calibration: throughputs are set so that (a) co-processor kernels beat
//! the CPU per byte once data is resident — by ~1.7–2× for the classes
//! the block-evaluated SIMD CPU kernels cover (selection, hash join,
//! aggregation; see DESIGN.md §5 and `BENCH_kernels.json`) and ~2.5×
//! for the rest — and (b) the effective link bandwidth is ~20× below the
//! co-processor's selection throughput — the ratios behind Figure 1 and
//! the 24× cache-thrashing degradation of Figure 2. EXPERIMENTS.md
//! records measured vs paper numbers for every figure.

use crate::device::DeviceKind;
use crate::time::VirtualTime;

/// Operator classes distinguished by the cost model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OpClass {
    /// Predicate evaluation + materialization of qualifying rows.
    Selection,
    /// Hash join (build + probe).
    HashJoin,
    /// Group-by aggregation.
    Aggregation,
    /// Sort / top-k ordering.
    Sort,
    /// Column arithmetic / projection.
    Projection,
}

impl OpClass {
    /// All classes, for building per-class tables.
    pub const ALL: [OpClass; 5] = [
        OpClass::Selection,
        OpClass::HashJoin,
        OpClass::Aggregation,
        OpClass::Sort,
        OpClass::Projection,
    ];

    /// Dense index (for per-class tables).
    pub fn index(self) -> usize {
        match self {
            OpClass::Selection => 0,
            OpClass::HashJoin => 1,
            OpClass::Aggregation => 2,
            OpClass::Sort => 3,
            OpClass::Projection => 4,
        }
    }

    /// Snake-case class name.
    pub fn name(self) -> &'static str {
        match self {
            OpClass::Selection => "selection",
            OpClass::HashJoin => "hash_join",
            OpClass::Aggregation => "aggregation",
            OpClass::Sort => "sort",
            OpClass::Projection => "projection",
        }
    }
}

/// Per-class device parameters.
#[derive(Debug, Clone, Copy)]
pub struct ClassParams {
    /// Processing throughput in bytes/second (over input + half output).
    pub throughput: f64,
    /// Fixed per-invocation overhead (dispatch, kernel launch).
    pub overhead: VirtualTime,
}

/// Device memory footprint factors for one operator class.
///
/// `footprint = in_factor·bytes_in + out_factor·bytes_out`. The selection
/// factor 3.25 is the constant the paper reports for the He et al. GPU
/// selection (Section 3.4), which makes the heap-contention break-even
/// point land where the paper's does.
#[derive(Debug, Clone, Copy)]
pub struct FootprintParams {
    /// Multiplier on input bytes.
    pub in_factor: f64,
    /// Multiplier on output bytes.
    pub out_factor: f64,
}

/// The full ground-truth cost model.
#[derive(Debug, Clone)]
pub struct CostParams {
    /// Per-class CPU parameters, indexed by [`OpClass::index`].
    pub cpu: [ClassParams; 5],
    /// Per-class co-processor parameters, indexed by [`OpClass::index`].
    pub gpu: [ClassParams; 5],
    /// Co-processor heap footprints per class (CPU footprints are not
    /// modelled: host memory is never the bottleneck in the paper).
    pub gpu_footprint: [FootprintParams; 5],
}

impl Default for CostParams {
    fn default() -> Self {
        // Overheads are scaled down with the data downscale (DESIGN.md
        // §1): what matters is the overhead-to-kernel-duration ratio, and
        // real kernels are ~1000x longer than launch overheads.
        let ns = VirtualTime::from_nanos;
        CostParams {
            // CPU throughputs reflect the block-evaluated SIMD kernels
            // (branch-free selection, flat-array join probe, column-wise
            // aggregation accumulators): selection/join/aggregation run
            // ~1.4–1.5× the scalar-reference rates this table used to
            // encode — enough to shift placement break-evens without
            // erasing the resident co-processor advantage Figure 14
            // depends on. Sort is untouched by the kernel work and keeps
            // its rate.
            cpu: [
                ClassParams { throughput: 20.0e9, overhead: ns(20) }, // selection
                ClassParams { throughput: 12.0e9, overhead: ns(20) }, // hash join
                ClassParams { throughput: 15.0e9, overhead: ns(20) }, // aggregation
                ClassParams { throughput: 4.0e9, overhead: ns(20) },  // sort
                ClassParams { throughput: 16.0e9, overhead: ns(10) }, // projection
            ],
            gpu: [
                ClassParams { throughput: 40.0e9, overhead: ns(100) },
                ClassParams { throughput: 20.0e9, overhead: ns(100) },
                ClassParams { throughput: 25.0e9, overhead: ns(100) },
                ClassParams { throughput: 10.0e9, overhead: ns(100) },
                ClassParams { throughput: 45.0e9, overhead: ns(80) },
            ],
            gpu_footprint: [
                FootprintParams { in_factor: 3.25, out_factor: 0.0 }, // selection
                FootprintParams { in_factor: 2.0, out_factor: 1.0 },  // hash join
                FootprintParams { in_factor: 1.0, out_factor: 2.0 },  // aggregation
                FootprintParams { in_factor: 2.0, out_factor: 1.0 },  // sort
                FootprintParams { in_factor: 1.0, out_factor: 1.0 },  // projection
            ],
        }
    }
}

/// Ground-truth durations and footprints.
#[derive(Debug, Clone, Default)]
pub struct CostModel {
    params: CostParams,
}

impl CostModel {
    /// A model over the given parameters.
    pub fn new(params: CostParams) -> Self {
        CostModel { params }
    }

    /// The underlying parameters.
    pub fn params(&self) -> &CostParams {
        &self.params
    }

    fn class_params(&self, class: OpClass, kind: DeviceKind) -> ClassParams {
        match kind {
            DeviceKind::Cpu => self.params.cpu[class.index()],
            DeviceKind::CoProcessor => self.params.gpu[class.index()],
        }
    }

    /// True execution time of one operator invocation.
    ///
    /// Charged over `bytes_in + bytes_out/2`: operators read their whole
    /// input and materialize their output, but writes are roughly half as
    /// expensive as the processing itself in a bulk engine.
    pub fn duration(
        &self,
        class: OpClass,
        kind: DeviceKind,
        bytes_in: u64,
        bytes_out: u64,
    ) -> VirtualTime {
        let p = self.class_params(class, kind);
        let work = bytes_in as f64 + bytes_out as f64 / 2.0;
        p.overhead + VirtualTime::from_secs_f64(work / p.throughput)
    }

    /// Device heap bytes an operator of `class` needs on the co-processor,
    /// excluding its (separately retained) output.
    pub fn gpu_working_footprint(&self, class: OpClass, bytes_in: u64, bytes_out: u64) -> u64 {
        let f = self.params.gpu_footprint[class.index()];
        (f.in_factor * bytes_in as f64 + f.out_factor * bytes_out as f64).ceil() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gpu_kernels_beat_cpu_when_resident() {
        let m = CostModel::default();
        for class in OpClass::ALL {
            let cpu = m.duration(class, DeviceKind::Cpu, 100_000_000, 10_000_000);
            let gpu = m.duration(class, DeviceKind::CoProcessor, 100_000_000, 10_000_000);
            assert!(gpu < cpu, "{}: GPU {} !< CPU {}", class.name(), gpu, cpu);
        }
    }

    #[test]
    fn tiny_inputs_favor_cpu_due_to_launch_overhead() {
        let m = CostModel::default();
        let cpu = m.duration(OpClass::Selection, DeviceKind::Cpu, 1_000, 100);
        let gpu = m.duration(OpClass::Selection, DeviceKind::CoProcessor, 1_000, 100);
        assert!(cpu < gpu);
    }

    #[test]
    fn selection_footprint_matches_paper_constant() {
        let m = CostModel::default();
        assert_eq!(m.gpu_working_footprint(OpClass::Selection, 1_000, 500), 3_250);
    }

    #[test]
    fn duration_scales_with_bytes() {
        let m = CostModel::default();
        let small = m.duration(OpClass::HashJoin, DeviceKind::Cpu, 1_000_000, 0);
        let large = m.duration(OpClass::HashJoin, DeviceKind::Cpu, 10_000_000, 0);
        assert!(large.as_nanos() > 5 * small.as_nanos());
    }

    #[test]
    fn output_bytes_cost_half() {
        let m = CostModel::default();
        let in_only = m.duration(OpClass::Projection, DeviceKind::Cpu, 1_000_000, 0);
        let with_out = m.duration(OpClass::Projection, DeviceKind::Cpu, 1_000_000, 2_000_000);
        let in_double = m.duration(OpClass::Projection, DeviceKind::Cpu, 2_000_000, 0);
        assert!(with_out > in_only);
        assert_eq!(with_out, in_double);
    }

    #[test]
    fn class_indices_are_dense() {
        for (i, c) in OpClass::ALL.iter().enumerate() {
            assert_eq!(c.index(), i);
        }
    }
}
