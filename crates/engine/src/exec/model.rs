//! The learned operator cost model — the one HyPE component every
//! placement strategy consults (Sections 4 and 5.2).
//!
//! CoGaDB delegates operator placement to HyPE, whose cost models are
//! *learned* from observed executions rather than derived analytically.
//! [`LearnedModel`] is that component: one exact least-squares
//! [`LinearModel`] (`duration ≈ a + b·work`) per (operator class,
//! device) cell, fed the *uncontended kernel* duration of every
//! completed operator. It never reads the simulator's ground-truth
//! `robustq_sim::CostModel`; a cell answers from a deliberately rough
//! prior until it has seen two distinct work sizes — the cold-start
//! behaviour learning-based optimizers exhibit.
//!
//! The model learns the kernel; the price adds contention
//! (`strategies::price` stretches each estimate by the operators already
//! running on its device), so processor sharing is charged once.
//!
//! The executor owns the learning loop. A strategy that estimates with a
//! model only exposes it through
//! [`PlacementPolicy::learned_model`](crate::exec::policy::PlacementPolicy::learned_model);
//! the event loop feeds one sample per completed operator
//! ([`LearnedModel::observe`]), collecting the returned [`ModelUpdate`]s
//! so estimation error is auditable per run. A policy's model persists
//! from run to run: warm-up runs train the model the measured run uses.

use robustq_sim::{DeviceId, OpClass, VirtualTime};

/// One predicted-vs-actual sample from a completed operator.
///
/// `predicted` is the model's estimate *before* ingesting the sample, so
/// the sequence of updates is exactly the model's online error curve.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ModelUpdate {
    /// Operator class observed.
    pub class: OpClass,
    /// Device the operator ran on.
    pub device: DeviceId,
    /// The model's estimate before this sample was ingested.
    pub predicted: VirtualTime,
    /// The observed operator *span* (start → completion in virtual
    /// time): the duration placement actually paid, including processor
    /// sharing with concurrent operators — not the idealized
    /// uncontended kernel duration.
    pub actual: VirtualTime,
}

/// Online simple linear regression through accumulated sufficient
/// statistics (exact least squares, O(1) per update).
#[derive(Debug, Clone, Default)]
pub struct LinearModel {
    n: f64,
    sum_x: f64,
    sum_y: f64,
    sum_xx: f64,
    sum_xy: f64,
}

impl LinearModel {
    /// Add one observation `(x, y)`.
    pub fn observe(&mut self, x: f64, y: f64) {
        self.n += 1.0;
        self.sum_x += x;
        self.sum_y += y;
        self.sum_xx += x * x;
        self.sum_xy += x * y;
    }

    /// Current `(intercept, slope)`; `None` until two distinct x values
    /// have been seen.
    pub fn coefficients(&self) -> Option<(f64, f64)> {
        if self.n < 2.0 {
            return None;
        }
        let det = self.n * self.sum_xx - self.sum_x * self.sum_x;
        if det.abs() < f64::EPSILON * self.n * self.sum_xx.max(1.0) {
            return None;
        }
        let slope = (self.n * self.sum_xy - self.sum_x * self.sum_y) / det;
        let intercept = (self.sum_y - slope * self.sum_x) / self.n;
        Some((intercept, slope))
    }

    /// Predict `y` for `x` (clamped at zero); `None` until fitted.
    pub fn predict(&self, x: f64) -> Option<f64> {
        let (a, b) = self.coefficients()?;
        Some((a + b * x).max(0.0))
    }
}

/// Cold-start throughput priors (bytes/s): a co-processor is assumed
/// roughly 3× faster than the host.
const PRIOR_CPU: f64 = 5.0e9;
const PRIOR_GPU: f64 = 15.0e9;

/// The work measure every cell learns against (mirrors the shape, not
/// the constants, of the real cost): reads plus half-weighted writes.
fn work(bytes_in: u64, bytes_out: u64) -> f64 {
    bytes_in as f64 + bytes_out as f64 / 2.0
}

fn prior_rate(device: DeviceId) -> f64 {
    if device.is_coprocessor() {
        PRIOR_GPU
    } else {
        PRIOR_CPU
    }
}

/// The learned cost model: estimates kernel durations and refines
/// itself from observed executions (module docs). Transfers are priced
/// on the link itself, never learned.
#[derive(Debug, Clone, Default)]
pub struct LearnedModel {
    /// `cells[device.index()][class.index()]`, grown on demand so one
    /// model serves any topology size — a device never observed stays
    /// on priors.
    cells: Vec<[LinearModel; OpClass::ALL.len()]>,
    observations: u64,
}

impl LearnedModel {
    fn cell(&self, class: OpClass, device: DeviceId) -> Option<&LinearModel> {
        self.cells.get(device.index()).map(|per_dev| &per_dev[class.index()])
    }

    /// Estimated kernel duration of one operator.
    pub fn estimate(
        &self,
        class: OpClass,
        device: DeviceId,
        bytes_in: u64,
        bytes_out: u64,
    ) -> VirtualTime {
        let work = work(bytes_in, bytes_out);
        VirtualTime::from_secs_f64(
            self.cell(class, device)
                .and_then(|m| m.predict(work))
                .unwrap_or_else(|| work / prior_rate(device)),
        )
    }

    /// True once the `(class, device)` cell answers from what it learned,
    /// not from its prior: its regression has coefficients (two distinct
    /// work sizes seen).
    pub fn is_fitted(&self, class: OpClass, device: DeviceId) -> bool {
        self.cell(class, device).is_some_and(|m| m.coefficients().is_some())
    }

    /// Ingest one completed operator and report the predicted-vs-actual
    /// sample (prediction taken before the update, so the reported error
    /// is the error the placement decision actually paid).
    ///
    /// The cell learns `kernel`, the uncontended kernel duration; `span`,
    /// the traced operator span including processor sharing, is the
    /// `actual` the returned [`ModelUpdate`] audits against.
    pub fn observe(
        &mut self,
        class: OpClass,
        device: DeviceId,
        bytes_in: u64,
        bytes_out: u64,
        kernel: VirtualTime,
        span: VirtualTime,
    ) -> ModelUpdate {
        let predicted = self.estimate(class, device, bytes_in, bytes_out);
        let idx = device.index();
        if self.cells.len() <= idx {
            self.cells.resize_with(idx + 1, Default::default);
        }
        self.cells[idx][class.index()].observe(work(bytes_in, bytes_out), kernel.as_secs_f64());
        self.observations += 1;
        ModelUpdate { class, device, predicted, actual: span }
    }

    /// Total samples ingested across all (class, device) cells.
    pub fn total_observations(&self) -> u64 {
        self.observations
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(v: u64) -> VirtualTime {
        VirtualTime::from_micros(v * 1_000)
    }

    fn secs(s: f64) -> VirtualTime {
        VirtualTime::from_secs_f64(s)
    }

    /// Feed `model` three sizes of `class` on `device` at `rate` bytes/s.
    fn teach(model: &mut LearnedModel, class: OpClass, device: DeviceId, rate: f64) {
        for mb in [1u64, 10, 100] {
            let bytes = mb * 1_000_000;
            let d = secs(bytes as f64 / rate);
            model.observe(class, device, bytes, 0, d, d);
        }
    }

    #[test]
    fn linear_model_recovers_line() {
        let mut m = LinearModel::default();
        for x in [1.0, 2.0, 5.0, 10.0] {
            m.observe(x, 3.0 + 2.0 * x);
        }
        let (a, b) = m.coefficients().unwrap();
        assert!((a - 3.0).abs() < 1e-9);
        assert!((b - 2.0).abs() < 1e-9);
        assert!((m.predict(7.0).unwrap() - 17.0).abs() < 1e-9);
    }

    #[test]
    fn unfitted_model_predicts_none() {
        let mut m = LinearModel::default();
        assert!(m.predict(1.0).is_none());
        m.observe(4.0, 2.0);
        assert!(m.predict(1.0).is_none(), "one point is not a line");
        // Two observations at the same x are still degenerate.
        m.observe(4.0, 3.0);
        assert!(m.predict(1.0).is_none());
    }

    #[test]
    fn prediction_clamps_negative_durations() {
        let mut m = LinearModel::default();
        m.observe(10.0, 1.0);
        m.observe(20.0, 3.0);
        // Extrapolating to x=0 gives a negative intercept; clamp to 0.
        assert_eq!(m.predict(0.0).unwrap(), 0.0);
    }

    #[test]
    fn regression_uses_priors_then_learns() {
        let mut m = LearnedModel::default();
        let cold = m.estimate(OpClass::Selection, DeviceId::Cpu, 5_000_000_000, 0);
        assert_eq!(cold, secs(1.0), "prior is 5 GB/s");
        teach(&mut m, OpClass::Selection, DeviceId::Cpu, 10.0e9);
        let warm = m.estimate(OpClass::Selection, DeviceId::Cpu, 5_000_000_000, 0);
        assert!((warm.as_secs_f64() - 0.5).abs() < 0.01, "learned 10 GB/s");
    }

    #[test]
    fn regression_learns_the_kernel_and_audits_the_span() {
        let mut m = LearnedModel::default();
        let pre = m.estimate(OpClass::Selection, DeviceId::Cpu, 1_000, 0);
        let u = m.observe(OpClass::Selection, DeviceId::Cpu, 1_000, 0, ms(1), ms(2));
        assert_eq!(u.predicted, pre, "prediction is captured before the update");
        assert_eq!(u.actual, ms(2), "the audit sample is against the span");
        // A second, distinct size fits the line through the *kernel*
        // durations (1 ms per 1 000 bytes), not the 2 ms spans.
        m.observe(OpClass::Selection, DeviceId::Cpu, 2_000, 0, ms(2), ms(4));
        assert_eq!(m.estimate(OpClass::Selection, DeviceId::Cpu, 3_000, 0), ms(3));
        assert_eq!(m.total_observations(), 2);
    }

    #[test]
    fn a_cell_is_fitted_only_once_it_has_learned() {
        let (sel, cpu, us) = (OpClass::Selection, DeviceId::Cpu, VirtualTime::from_micros(1));
        let mut m = LearnedModel::default();
        assert!(!m.is_fitted(sel, cpu), "priors are not fitted");
        m.observe(sel, cpu, 1_000, 0, us, us);
        m.observe(sel, cpu, 1_000, 0, us, us);
        assert!(!m.is_fitted(sel, cpu), "one work size is not a line");
        let us2 = VirtualTime::from_micros(2);
        m.observe(sel, cpu, 2_000, 0, us2, us2);
        assert!(m.is_fitted(sel, cpu), "two distinct work sizes fit the regression");
        assert!(!m.is_fitted(sel, DeviceId::Gpu), "cells are per device");
        assert!(!m.is_fitted(OpClass::Sort, cpu), "and per class");
    }

    #[test]
    fn cells_are_per_class_and_device() {
        let mut m = LearnedModel::default();
        let g2 = DeviceId::coprocessor(2);
        // Cold: any co-processor falls back to the GPU prior (15 GB/s).
        assert_eq!(m.estimate(OpClass::Selection, g2, 15_000_000_000, 0), secs(1.0));
        // Teach GPU2 a 5 GB/s selection rate.
        teach(&mut m, OpClass::Selection, g2, 5.0e9);
        let warm = m.estimate(OpClass::Selection, g2, 15_000_000_000, 0);
        assert!((warm.as_secs_f64() - 3.0).abs() < 0.05, "learned 5 GB/s");
        assert_eq!(m.total_observations(), 3);
        // GPU1, the CPU and GPU2's other classes are untouched.
        let g1 = m.estimate(OpClass::Selection, DeviceId::Gpu, 15_000_000_000, 0);
        assert_eq!(g1, secs(1.0), "GPU1 unaffected");
        let cpu = m.estimate(OpClass::Selection, DeviceId::Cpu, 5_000_000_000, 0);
        assert_eq!(cpu, secs(1.0), "CPU unaffected");
        assert_eq!(m.estimate(OpClass::Sort, g2, 15_000_000_000, 0), secs(1.0));
    }

    #[test]
    fn output_bytes_contribute_half_work() {
        let m = LearnedModel::default();
        let with_out = m.estimate(OpClass::Projection, DeviceId::Cpu, 1_000_000, 2_000_000);
        let doubled_in = m.estimate(OpClass::Projection, DeviceId::Cpu, 2_000_000, 0);
        assert_eq!(with_out, doubled_in);
    }
}
