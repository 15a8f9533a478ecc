//! The learned operator cost model — the one HyPE component every
//! placement strategy consults (Sections 4 and 5.2).
//!
//! CoGaDB delegates operator placement to HyPE, whose cost models are
//! *learned* from observed executions rather than derived analytically.
//! [`LearnedModel`] is that component: per-(operator class, device)
//! cells that estimate kernel durations and refine themselves from every
//! completed operator. It never reads the simulator's ground-truth
//! `robustq_sim::CostModel`; before a cell has learned anything it
//! answers from deliberately rough priors — the cold-start behaviour
//! learning-based optimizers exhibit. Two kinds of cell, chosen per run
//! by [`CostModelKind`]:
//!
//! * **regression** ([`CostModelKind::Static`], the default) — one exact
//!   least-squares [`LinearModel`] (`duration ≈ a + b·work`) per cell,
//!   fed the *uncontended kernel* duration. A cell stays on its prior
//!   until it has seen two distinct work sizes.
//! * **EWMA** ([`CostModelKind::Adaptive`]) — an exponentially-weighted
//!   moving average of per-cell throughput and dispatch overhead, fed
//!   the traced operator *span*. The span includes processor sharing
//!   with concurrent operators — the duration a placement decision
//!   really pays — so under load these estimates track the contended
//!   rates the regressions structurally cannot represent. Priors carry a
//!   seeded ±10 % jitter: deterministic per seed, without every cell
//!   starting from the identical number.
//!
//! The executor owns the learning loop. A strategy that estimates with a
//! model only exposes it through
//! [`PlacementPolicy::learned_model`](crate::exec::policy::PlacementPolicy::learned_model);
//! the event loop selects the kind when a run starts
//! ([`LearnedModel::select`]) and feeds one sample per completed
//! operator ([`LearnedModel::observe`]), collecting the returned
//! [`ModelUpdate`]s so estimation error is auditable per run.

use robustq_sim::{DeviceId, OpClass, VirtualTime};

/// Which kind of cell a run's [`LearnedModel`] learns with.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CostModelKind {
    /// Per-cell linear regressions over uncontended kernel durations —
    /// the default (golden fixtures pin bit-identity).
    #[default]
    Static,
    /// Online EWMA throughput refinement from traced span durations,
    /// deterministic for a given seed.
    Adaptive {
        /// Seed for the deterministic prior perturbation (distinct seeds
        /// model distinct cold-start calibrations).
        seed: u64,
    },
}

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
    /// True when the sample refined an adaptive cell and should be
    /// surfaced as a `ModelUpdate` trace event. Regression samples are
    /// `false`: still collected for run-level auditing, but nothing new
    /// enters the default trace stream (golden fixtures stay
    /// byte-identical).
    pub refined: bool,
}

impl ModelUpdate {
    /// Relative estimation error `|predicted − actual| / actual`
    /// (zero when the actual duration is zero).
    pub fn relative_error(&self) -> f64 {
        let actual = self.actual.as_secs_f64();
        if actual <= 0.0 {
            return 0.0;
        }
        (self.predicted.as_secs_f64() - actual).abs() / actual
    }
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
/// EWMA smoothing factor: weight of the newest observation.
const ALPHA: f64 = 0.25;
/// Per-dispatch overhead priors (seconds): launching on a co-processor
/// costs roughly an order of magnitude more than a host dispatch.
const PRIOR_OVERHEAD_CPU: f64 = 20e-9;
const PRIOR_OVERHEAD_GPU: f64 = 100e-9;

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

/// splitmix64 — the standard 64-bit seed scrambler (deterministic,
/// dependency-free).
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// One EWMA cell: observed throughput (bytes/s) and per-dispatch
/// overhead (seconds: queueing + launch).
#[derive(Debug, Clone, Copy)]
struct Throughput {
    rate: f64,
    overhead: f64,
}

/// `cells[device.index()][class.index()]`, grown on demand so one model
/// serves any topology size — a device never observed stays on priors.
type Cells<T> = Vec<[T; OpClass::ALL.len()]>;

fn cell<T>(cells: &Cells<T>, class: OpClass, device: DeviceId) -> Option<&T> {
    cells.get(device.index()).map(|per_dev| &per_dev[class.index()])
}

fn cell_mut<T: Default>(cells: &mut Cells<T>, class: OpClass, device: DeviceId) -> &mut T {
    let idx = device.index();
    if cells.len() <= idx {
        cells.resize_with(idx + 1, Default::default);
    }
    &mut cells[idx][class.index()]
}

/// The EWMA cell of `(class, device)`, or its seeded prior while it has
/// learned nothing: the base priors with the rate scaled by a
/// deterministic factor in `[0.9, 1.1)`.
fn throughput(
    seed: u64,
    cells: &Cells<Option<Throughput>>,
    class: OpClass,
    device: DeviceId,
) -> Throughput {
    if let Some(&Some(learned)) = cell(cells, class, device) {
        return learned;
    }
    let index = (device.index() * OpClass::ALL.len() + class.index()) as u64;
    let h = splitmix64(seed ^ splitmix64(index));
    let unit = (h >> 11) as f64 / (1u64 << 53) as f64; // [0, 1)
    Throughput {
        rate: prior_rate(device) * (0.9 + 0.2 * unit),
        overhead: if device.is_coprocessor() {
            PRIOR_OVERHEAD_GPU
        } else {
            PRIOR_OVERHEAD_CPU
        },
    }
}

#[derive(Debug, Clone)]
enum Learner {
    Regression(Cells<LinearModel>),
    Ewma { seed: u64, cells: Cells<Option<Throughput>> },
}

/// The learned cost model: estimates kernel durations and refines
/// itself from observed executions (module docs). Transfers are priced
/// on the link itself, never learned.
#[derive(Debug, Clone)]
pub struct LearnedModel {
    learner: Learner,
    observations: u64,
}

impl Default for LearnedModel {
    fn default() -> Self {
        Self::new(CostModelKind::default())
    }
}

impl LearnedModel {
    /// A model of `kind` on its cold-start priors.
    pub fn new(kind: CostModelKind) -> Self {
        let learner = match kind {
            CostModelKind::Static => Learner::Regression(Vec::new()),
            CostModelKind::Adaptive { seed } => Learner::Ewma { seed, cells: Vec::new() },
        };
        LearnedModel { learner, observations: 0 }
    }

    /// The kind this model learns with.
    pub fn kind(&self) -> CostModelKind {
        match self.learner {
            Learner::Regression(_) => CostModelKind::Static,
            Learner::Ewma { seed, .. } => CostModelKind::Adaptive { seed },
        }
    }

    /// Make this a model of `kind`. The learned state survives when the
    /// kind (adaptive seed included) is already active — warm-up runs
    /// train the model the measured run uses; any change starts over
    /// from fresh priors.
    pub fn select(&mut self, kind: CostModelKind) {
        if self.kind() != kind {
            *self = Self::new(kind);
        }
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
        VirtualTime::from_secs_f64(match &self.learner {
            Learner::Regression(cells) => cell(cells, class, device)
                .and_then(|m| m.predict(work))
                .unwrap_or_else(|| work / prior_rate(device)),
            Learner::Ewma { seed, cells } => {
                let t = throughput(*seed, cells, class, device);
                t.overhead + work / t.rate
            }
        })
    }

    /// True once the `(class, device)` cell answers from what it learned,
    /// not from its prior: a regression with coefficients (two distinct
    /// work sizes seen), or an EWMA cell refined at least once.
    pub fn is_fitted(&self, class: OpClass, device: DeviceId) -> bool {
        match &self.learner {
            Learner::Regression(cells) => {
                cell(cells, class, device).is_some_and(|m| m.coefficients().is_some())
            }
            Learner::Ewma { cells, .. } => matches!(cell(cells, class, device), Some(Some(_))),
        }
    }

    /// Ingest one completed operator and report the predicted-vs-actual
    /// sample (prediction taken before the update, so the reported error
    /// is the error the placement decision actually paid).
    ///
    /// Two durations arrive because the two kinds learn from different
    /// signals: `kernel` is the uncontended kernel duration the
    /// regressions are fed, `span` the traced operator span including
    /// processor sharing — what the EWMA refines from, and the `actual`
    /// every [`ModelUpdate`] audits against.
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
        let work = work(bytes_in, bytes_out);
        let refined = match &mut self.learner {
            Learner::Regression(cells) => {
                cell_mut(cells, class, device).observe(work, kernel.as_secs_f64());
                false
            }
            Learner::Ewma { seed, cells } => {
                let secs = span.as_secs_f64();
                // A zero-duration operator teaches nothing; a positive
                // span refines either the overhead (work-free or
                // overhead-dominated dispatches) or the throughput.
                if secs > 0.0 {
                    let mut t = throughput(*seed, cells, class, device);
                    let effective = secs - t.overhead;
                    if work > 0.0 && effective > 0.0 {
                        t.rate = (1.0 - ALPHA) * t.rate + ALPHA * (work / effective);
                    } else {
                        // The whole span was overhead: no throughput signal.
                        t.overhead = (1.0 - ALPHA) * t.overhead + ALPHA * secs;
                    }
                    *cell_mut(cells, class, device) = Some(t);
                }
                secs > 0.0
            }
        };
        self.observations += 1;
        ModelUpdate { class, device, predicted, actual: span, refined }
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

    fn adaptive(seed: u64) -> LearnedModel {
        LearnedModel::new(CostModelKind::Adaptive { seed })
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
    fn default_kind_is_static() {
        assert_eq!(CostModelKind::default(), CostModelKind::Static);
        assert_eq!(LearnedModel::default().kind(), CostModelKind::Static);
        assert_eq!(adaptive(3).kind(), CostModelKind::Adaptive { seed: 3 });
    }

    #[test]
    fn relative_error_is_symmetric_in_sign() {
        let upd = |p: u64, a: u64| ModelUpdate {
            class: OpClass::Selection,
            device: DeviceId::Cpu,
            predicted: VirtualTime::from_nanos(p),
            actual: VirtualTime::from_nanos(a),
            refined: true,
        };
        assert!((upd(150, 100).relative_error() - 0.5).abs() < 1e-9);
        assert!((upd(50, 100).relative_error() - 0.5).abs() < 1e-9);
        assert_eq!(upd(10, 0).relative_error(), 0.0);
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
        assert!(!u.refined, "regression samples never refine");
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

        let mut a = adaptive(1);
        assert!(!a.is_fitted(sel, cpu), "adaptive priors are not fitted");
        a.observe(sel, cpu, 0, 0, VirtualTime::ZERO, VirtualTime::ZERO);
        assert!(!a.is_fitted(sel, cpu), "a zero span refines nothing");
        a.observe(sel, cpu, 1_000, 0, us, us);
        assert!(a.is_fitted(sel, cpu), "one refine fits an EWMA cell");
        assert!(!a.is_fitted(sel, DeviceId::Gpu));
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

    #[test]
    fn ewma_converges_on_repeated_identical_sizes() {
        // The degenerate-regression case: every operator has the same
        // work, so the regression never fits. The EWMA converges.
        let mut m = adaptive(42);
        let bytes = 10_000_000u64;
        let actual = secs(bytes as f64 / 2.0e9); // 2 GB/s device
        let cold_err = m
            .observe(OpClass::Sort, DeviceId::Gpu, bytes, 0, actual, actual)
            .relative_error();
        for _ in 0..40 {
            m.observe(OpClass::Sort, DeviceId::Gpu, bytes, 0, actual, actual);
        }
        let warm = m.estimate(OpClass::Sort, DeviceId::Gpu, bytes, 0);
        let warm_err =
            (warm.as_secs_f64() - actual.as_secs_f64()).abs() / actual.as_secs_f64();
        assert!(warm_err < 0.01, "EWMA converged to the observed rate");
        assert!(warm_err < cold_err, "cold prior error was larger");
    }

    #[test]
    fn ewma_is_deterministic_per_seed_and_jittered_across_seeds() {
        let est =
            |m: &LearnedModel| m.estimate(OpClass::HashJoin, DeviceId::Gpu, 1 << 20, 0);
        assert_eq!(est(&adaptive(7)), est(&adaptive(7)), "same seed, same priors");
        assert_ne!(est(&adaptive(7)), est(&adaptive(8)), "different seed, different jitter");
        // Jitter stays within ±10 % of the base prior.
        let base = (1u64 << 20) as f64 / 15.0e9;
        assert!((base / 1.1..=base / 0.9).contains(&est(&adaptive(7)).as_secs_f64()));
    }

    #[test]
    fn ewma_refines_and_counts() {
        let mut m = adaptive(0);
        let cold = m.estimate(OpClass::Projection, DeviceId::Cpu, 4_096, 4_096);
        let u = m.observe(OpClass::Projection, DeviceId::Cpu, 4_096, 4_096, ms(1), ms(1));
        assert!(u.refined);
        assert_ne!(
            m.estimate(OpClass::Projection, DeviceId::Cpu, 4_096, 4_096),
            cold,
            "cell warmed"
        );
        let z = m.observe(OpClass::Projection, DeviceId::Cpu, 0, 0, ms(1), ms(1));
        assert!(z.refined, "a work-free span still refines the overhead");
        let zero = VirtualTime::ZERO;
        let z = m.observe(OpClass::Projection, DeviceId::Cpu, 0, 0, zero, zero);
        assert!(!z.refined, "a zero-duration span teaches nothing");
        assert_eq!(m.total_observations(), 3);
    }

    #[test]
    fn ewma_learns_dispatch_overhead_from_work_free_spans() {
        let mut m = adaptive(3);
        // Overhead-only dispatches: 100 ns spans with no bytes moved.
        let oh = VirtualTime::from_nanos(100);
        for _ in 0..30 {
            m.observe(OpClass::Aggregation, DeviceId::Gpu, 0, 0, oh, oh);
        }
        let est = m.estimate(OpClass::Aggregation, DeviceId::Gpu, 0, 0);
        let err = (est.as_secs_f64() - oh.as_secs_f64()).abs() / oh.as_secs_f64();
        assert!(err < 0.05, "overhead converged: estimate {est:?} vs {oh:?}");
    }

    #[test]
    fn ewma_tracks_contended_spans_where_regression_cannot() {
        // Ground truth: kernels take `work / 10 GB/s` uncontended, but
        // processor sharing stretches every span 3x. The regression (fed
        // kernel durations) predicts the kernel time and keeps a ~200 %
        // span error forever; the EWMA converges onto the contended rate.
        let mut st = LearnedModel::default();
        let mut ad = adaptive(5);
        let mut last_errs = (0.0f64, 0.0f64);
        for i in 1..=40u64 {
            let bytes = 1_000_000 + i * 10_000; // distinct sizes: regression fits
            let kernel = secs(bytes as f64 / 10.0e9);
            let span = secs(3.0 * bytes as f64 / 10.0e9);
            let us = st.observe(OpClass::HashJoin, DeviceId::Gpu, bytes, 0, kernel, span);
            let ua = ad.observe(OpClass::HashJoin, DeviceId::Gpu, bytes, 0, kernel, span);
            last_errs = (us.relative_error(), ua.relative_error());
        }
        assert!(last_errs.0 > 0.5, "regression stays ~3x off the span: {last_errs:?}");
        assert!(last_errs.1 < 0.05, "EWMA converged on the span: {last_errs:?}");
    }

    #[test]
    fn select_rebuilds_only_on_kind_change() {
        let mut m = LearnedModel::default();
        let us = VirtualTime::from_micros(1);
        m.observe(OpClass::Selection, DeviceId::Gpu, 8, 4, us, us);
        // Same kind: learned state survives (warm-up → measured run).
        m.select(CostModelKind::Static);
        assert_eq!(m.total_observations(), 1);
        let trained = m.clone();
        // Kind change: fresh model of the new kind.
        m.select(CostModelKind::Adaptive { seed: 11 });
        assert_eq!(m.kind(), CostModelKind::Adaptive { seed: 11 });
        assert_eq!(m.total_observations(), 0);
        assert!(m.observe(OpClass::Selection, DeviceId::Gpu, 8, 4, us, us).refined);
        // Same adaptive seed again: still no rebuild; another seed: fresh.
        m.select(CostModelKind::Adaptive { seed: 11 });
        assert_eq!(m.total_observations(), 1);
        m.select(CostModelKind::Adaptive { seed: 12 });
        assert_eq!(m.total_observations(), 0);
        // A clone carries the learned state with it.
        assert_eq!(trained.total_observations(), 1);
        assert_eq!(trained.kind(), CostModelKind::Static);
    }
}
