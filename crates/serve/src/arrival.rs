//! Seeded virtual-time arrival processes.
//!
//! An [`ArrivalProcess`] turns a seed and a horizon into a sorted list
//! of submission instants — the open-loop traffic the serving layer
//! feeds the executor (DESIGN.md §10). All sampling is integer-seeded
//! xoshiro plus the deterministic `ln` of [`crate::detmath`], so a
//! given `(process, horizon, seed)` triple produces a byte-identical
//! schedule on every platform and worker count.
//!
//! Semantics:
//!
//! * **Poisson** — memoryless arrivals at a constant mean rate
//!   (exponential inter-arrival gaps via inverse-CDF sampling).
//! * **Bursty** — piecewise-constant Poisson: within every `period`, the
//!   first `burst_len` runs at `burst_qps`, the remainder at `base_qps`.
//!   Generation restarts at each phase boundary (the memoryless property
//!   makes that free), so *no arrival ever leaks across a boundary* —
//!   burst windows are exact in virtual time.
//! * **Ramp** — a linear rate sweep from `start_qps` to `end_qps` over
//!   the horizon, sampled by Lewis–Shedler thinning against the peak
//!   rate.
//! * **Uniform** — deterministic evenly spaced arrivals (no randomness);
//!   the degenerate baseline for capacity probing.
//! * **Closed** — not a schedule at all: the classic closed-loop
//!   `users`-session run expressed in serving-layer terms, routed to the
//!   closed-loop executor path by the runner (the backward-compatibility
//!   differential in `tests/serving.rs` pins that the two are
//!   bit-identical).

use crate::detmath::det_ln;
use rand::rngs::StdRng;
use rand::SeedableRng;
use robustq_sim::VirtualTime;

/// A seeded virtual-time arrival process.
#[derive(Debug, Clone, PartialEq)]
pub enum ArrivalProcess {
    /// Constant-rate memoryless arrivals.
    Poisson {
        /// Mean arrival rate in queries per virtual second.
        rate_qps: f64,
    },
    /// Periodic bursts over a base load (piecewise-constant Poisson).
    Bursty {
        /// Rate outside burst windows (may be zero).
        base_qps: f64,
        /// Rate inside burst windows.
        burst_qps: f64,
        /// Window repetition period.
        period: VirtualTime,
        /// Burst length at the start of each period (`<= period`).
        burst_len: VirtualTime,
    },
    /// Linear rate sweep from `start_qps` to `end_qps` across the
    /// horizon.
    Ramp {
        /// Rate at virtual time zero.
        start_qps: f64,
        /// Rate at the horizon.
        end_qps: f64,
    },
    /// Deterministic evenly spaced arrivals (first at time zero).
    Uniform {
        /// Arrival rate in queries per virtual second.
        rate_qps: f64,
    },
    /// The degenerate case: a closed-loop `users`-session run. Produces
    /// no schedule ([`ArrivalProcess::schedule`] returns empty); the
    /// serving runner routes it to the closed-loop executor path.
    Closed {
        /// Number of closed-loop sessions.
        users: usize,
    },
}

/// One exponential inter-arrival gap in nanoseconds at `rate_qps`.
///
/// The uniform draw is `((next_u64 >> 11) + 1) · 2⁻⁵³ ∈ (0, 1]`, so the
/// logarithm never sees zero and a gap is never infinite.
fn exp_gap_ns(rng: &mut StdRng, rate_qps: f64) -> f64 {
    let u = ((rng.next_u64() >> 11) + 1) as f64 * (1.0 / (1u64 << 53) as f64);
    -det_ln(u) / rate_qps * 1e9
}

/// A uniform draw in `[0, 1)`.
fn unit(rng: &mut StdRng) -> f64 {
    (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// Append Poisson arrivals at `rate_qps` within `[from_ns, to_ns)`.
fn fill_poisson(
    rng: &mut StdRng,
    rate_qps: f64,
    from_ns: u64,
    to_ns: u64,
    out: &mut Vec<VirtualTime>,
) {
    if rate_qps <= 0.0 {
        return;
    }
    let mut offset = 0.0f64;
    loop {
        offset += exp_gap_ns(rng, rate_qps);
        if offset >= (to_ns - from_ns) as f64 {
            return;
        }
        out.push(VirtualTime::from_nanos(from_ns + offset as u64));
    }
}

impl ArrivalProcess {
    /// The mean offered rate in queries per virtual second (zero for
    /// [`ArrivalProcess::Closed`], whose load is feedback-driven).
    pub fn mean_qps(&self) -> f64 {
        match *self {
            ArrivalProcess::Poisson { rate_qps } | ArrivalProcess::Uniform { rate_qps } => {
                rate_qps
            }
            ArrivalProcess::Bursty { base_qps, burst_qps, period, burst_len } => {
                if period == VirtualTime::ZERO {
                    return base_qps;
                }
                let frac = burst_len.as_nanos() as f64 / period.as_nanos() as f64;
                burst_qps * frac + base_qps * (1.0 - frac)
            }
            ArrivalProcess::Ramp { start_qps, end_qps } => (start_qps + end_qps) / 2.0,
            ArrivalProcess::Closed { .. } => 0.0,
        }
    }

    /// Generate the sorted arrival schedule over `[0, horizon)` from a
    /// seed (convenience over [`ArrivalProcess::schedule_with`]).
    pub fn schedule(&self, horizon: VirtualTime, seed: u64) -> Vec<VirtualTime> {
        self.schedule_with(horizon, &mut StdRng::seed_from_u64(seed))
    }

    /// Generate the sorted arrival schedule over `[0, horizon)`, drawing
    /// from `rng`.
    pub fn schedule_with(&self, horizon: VirtualTime, rng: &mut StdRng) -> Vec<VirtualTime> {
        let h_ns = horizon.as_nanos();
        let mut out = Vec::new();
        match *self {
            ArrivalProcess::Poisson { rate_qps } => {
                fill_poisson(rng, rate_qps, 0, h_ns, &mut out);
            }
            ArrivalProcess::Bursty { base_qps, burst_qps, period, burst_len } => {
                let p_ns = period.as_nanos();
                let b_ns = burst_len.as_nanos().min(p_ns);
                assert!(p_ns > 0, "bursty arrivals need a non-zero period");
                let mut start = 0u64;
                while start < h_ns {
                    let burst_end = (start + b_ns).min(h_ns);
                    fill_poisson(rng, burst_qps, start, burst_end, &mut out);
                    let period_end = (start + p_ns).min(h_ns);
                    fill_poisson(rng, base_qps, burst_end, period_end, &mut out);
                    start += p_ns;
                }
            }
            ArrivalProcess::Ramp { start_qps, end_qps } => {
                let peak = start_qps.max(end_qps);
                if peak > 0.0 && h_ns > 0 {
                    // Lewis–Shedler: propose at the peak rate, keep a
                    // proposal at t with probability rate(t)/peak.
                    let mut t_ns = 0.0f64;
                    loop {
                        t_ns += exp_gap_ns(rng, peak);
                        if t_ns >= h_ns as f64 {
                            break;
                        }
                        let rate =
                            start_qps + (end_qps - start_qps) * (t_ns / h_ns as f64);
                        if unit(rng) * peak < rate {
                            out.push(VirtualTime::from_nanos(t_ns as u64));
                        }
                    }
                }
            }
            ArrivalProcess::Uniform { rate_qps } => {
                if rate_qps > 0.0 {
                    let gap_ns = 1e9 / rate_qps;
                    let mut k = 0u64;
                    loop {
                        let t = (k as f64 * gap_ns) as u64;
                        if t >= h_ns {
                            break;
                        }
                        out.push(VirtualTime::from_nanos(t));
                        k += 1;
                    }
                }
            }
            ArrivalProcess::Closed { .. } => {}
        }
        debug_assert!(out.windows(2).all(|w| w[0] <= w[1]), "schedule sorted");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn h() -> VirtualTime {
        VirtualTime::from_millis(50)
    }

    #[test]
    fn poisson_schedule_is_sorted_and_bounded() {
        let s = ArrivalProcess::Poisson { rate_qps: 100_000.0 }.schedule(h(), 7);
        assert!(!s.is_empty());
        assert!(s.windows(2).all(|w| w[0] <= w[1]));
        assert!(s.iter().all(|&t| t < h()));
    }

    #[test]
    fn zero_rate_yields_no_arrivals() {
        assert!(ArrivalProcess::Poisson { rate_qps: 0.0 }.schedule(h(), 1).is_empty());
        assert!(ArrivalProcess::Uniform { rate_qps: 0.0 }.schedule(h(), 1).is_empty());
        assert!(ArrivalProcess::Closed { users: 4 }.schedule(h(), 1).is_empty());
    }

    #[test]
    fn uniform_is_evenly_spaced_from_zero() {
        let s = ArrivalProcess::Uniform { rate_qps: 1_000.0 }
            .schedule(VirtualTime::from_millis(5), 0);
        assert_eq!(s.len(), 5);
        assert_eq!(s[0], VirtualTime::ZERO);
        assert_eq!(s[1], VirtualTime::from_millis(1));
    }

    #[test]
    fn mean_qps_mixes_burst_and_base() {
        let p = ArrivalProcess::Bursty {
            base_qps: 100.0,
            burst_qps: 900.0,
            period: VirtualTime::from_millis(10),
            burst_len: VirtualTime::from_millis(5),
        };
        assert!((p.mean_qps() - 500.0).abs() < 1e-9);
        assert_eq!(ArrivalProcess::Ramp { start_qps: 0.0, end_qps: 10.0 }.mean_qps(), 5.0);
    }
}
