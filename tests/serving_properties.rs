//! Property tests for the open-loop arrival generators (DESIGN.md §10).
//!
//! Three families of properties:
//!
//! * **Determinism** — a `(process, horizon, seed)` triple fully
//!   determines the schedule: regenerating must reproduce every instant
//!   exactly, and schedules are sorted and strictly inside the horizon.
//! * **Statistics** — the Poisson generator's empirical inter-arrival
//!   mean matches `1/rate` within a tolerance far wider than the
//!   sampling error at the generated counts.
//! * **Phase boundaries** — bursty and ramp processes respect their
//!   phase edges *exactly* in virtual time: a burst-only schedule never
//!   places an arrival outside a burst window, and no process ever
//!   emits at or past the horizon.

use proptest::prelude::*;
use robustq::serve::{ArrivalProcess, QueryMix};
use robustq::sim::VirtualTime;
use robustq::workloads::micro;

/// The process variants under test, sized so every case generates a
/// meaningful number of arrivals without dominating test time.
fn process_for(which: usize, rate: f64, period_ms: u64, burst_ms: u64) -> ArrivalProcess {
    match which % 4 {
        0 => ArrivalProcess::Poisson { rate_qps: rate },
        1 => ArrivalProcess::Bursty {
            base_qps: rate / 4.0,
            burst_qps: rate * 4.0,
            period: VirtualTime::from_millis(period_ms),
            burst_len: VirtualTime::from_millis(burst_ms.min(period_ms)),
        },
        2 => ArrivalProcess::Ramp { start_qps: rate / 2.0, end_qps: rate * 2.0 },
        _ => ArrivalProcess::Uniform { rate_qps: rate },
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Same `(process, horizon, seed)` ⇒ byte-identical schedule; and
    /// every schedule is sorted with all instants strictly below the
    /// horizon.
    #[test]
    fn schedules_are_seed_deterministic_sorted_and_bounded(
        which in 0usize..4,
        rate_k in 1u64..50,
        period_ms in 1u64..20,
        burst_ms in 1u64..20,
        horizon_ms in 1u64..100,
        seed in 0u64..1_000,
    ) {
        let process = process_for(which, rate_k as f64 * 1_000.0, period_ms, burst_ms);
        let horizon = VirtualTime::from_millis(horizon_ms);
        let a = process.schedule(horizon, seed);
        let b = process.schedule(horizon, seed);
        prop_assert_eq!(&a, &b, "same seed must reproduce the schedule");
        prop_assert!(a.windows(2).all(|w| w[0] <= w[1]), "schedule sorted");
        prop_assert!(a.iter().all(|&t| t < horizon), "arrivals inside [0, horizon)");
    }

    /// The Poisson empirical inter-arrival mean is `1/rate` within 10%.
    /// At `rate >= 5k qps` over one virtual second a schedule holds
    /// thousands of gaps, so the sampling error of the mean is well
    /// under a percent — 10% only trips on a broken generator.
    #[test]
    fn poisson_inter_arrival_mean_matches_rate(
        rate_k in 5u64..50,
        seed in 0u64..1_000,
    ) {
        let rate = rate_k as f64 * 1_000.0;
        let horizon = VirtualTime::from_secs_f64(1.0);
        let s = ArrivalProcess::Poisson { rate_qps: rate }.schedule(horizon, seed);
        prop_assert!(s.len() > 100, "expected a dense schedule, got {}", s.len());
        let span_ns = (s[s.len() - 1] - s[0]).as_nanos() as f64;
        let mean_gap_ns = span_ns / (s.len() - 1) as f64;
        let want_ns = 1e9 / rate;
        let err = (mean_gap_ns - want_ns).abs() / want_ns;
        prop_assert!(
            err < 0.10,
            "mean gap {mean_gap_ns:.1}ns vs expected {want_ns:.1}ns (err {err:.3})"
        );
    }

    /// A burst-only process (zero base rate) never emits outside a
    /// burst window: for every arrival `t`, `t mod period < burst_len`
    /// holds exactly in integer nanoseconds.
    #[test]
    fn burst_windows_are_exact_in_virtual_time(
        rate_k in 5u64..50,
        period_ms in 2u64..20,
        burst_frac in 1u64..9,
        seed in 0u64..1_000,
    ) {
        let period = VirtualTime::from_millis(period_ms);
        let burst_len = VirtualTime::from_nanos(
            period.as_nanos() * burst_frac / 10,
        );
        let process = ArrivalProcess::Bursty {
            base_qps: 0.0,
            burst_qps: rate_k as f64 * 1_000.0,
            period,
            burst_len,
        };
        let s = process.schedule(VirtualTime::from_millis(100), seed);
        for &t in &s {
            let phase = t.as_nanos() % period.as_nanos();
            prop_assert!(
                phase < burst_len.as_nanos(),
                "arrival at {t:?} lies outside the burst window \
                 (phase {phase}ns, burst {}ns)",
                burst_len.as_nanos()
            );
        }
    }

    /// A rising ramp loads the second half of the horizon more heavily
    /// than the first (and both halves split exactly at `horizon/2` in
    /// virtual time). With thousands of arrivals the expected 1:3 split
    /// makes a reversed count astronomically unlikely for a correct
    /// thinning sampler.
    #[test]
    fn ramp_loads_the_late_phase(seed in 0u64..1_000) {
        let horizon = VirtualTime::from_secs_f64(1.0);
        let process = ArrivalProcess::Ramp { start_qps: 0.0, end_qps: 20_000.0 };
        let s = process.schedule(horizon, seed);
        prop_assert!(s.len() > 1_000, "expected a dense schedule, got {}", s.len());
        let mid = VirtualTime::from_nanos(horizon.as_nanos() / 2);
        let early = s.iter().filter(|&&t| t < mid).count();
        let late = s.len() - early;
        prop_assert!(
            late > 2 * early,
            "rising ramp should back-load arrivals: {early} early vs {late} late"
        );
    }

    /// The uniform process is exact: `ceil(horizon · rate)` arrivals at
    /// multiples of the gap, starting from zero.
    #[test]
    fn uniform_count_is_exact(rate in 1u64..2_000, horizon_ms in 1u64..200) {
        let horizon = VirtualTime::from_millis(horizon_ms);
        let s = ArrivalProcess::Uniform { rate_qps: rate as f64 }
            .schedule(horizon, 0);
        // Arrivals at k/rate for k = 0, 1, … strictly below the horizon.
        let span_s = horizon_ms as f64 / 1e3;
        let want = (span_s * rate as f64).ceil() as usize;
        prop_assert!(
            s.len() == want || s.len() == want.saturating_sub(1),
            "uniform count {} vs expected ~{want}",
            s.len()
        );
        prop_assert_eq!(s.first().copied(), Some(VirtualTime::ZERO));
    }

    /// Mix sampling is deterministic under a fixed seed and always
    /// yields a valid template index.
    #[test]
    fn mix_sampling_is_deterministic_and_in_range(
        n in 1usize..12,
        theta_tenths in 0u64..20,
        seed in 0u64..1_000,
    ) {
        use robustq::serve::detmath::det_pow;
        let templates = micro::parallel_selection_workload(n);
        let mix = QueryMix::zipf(templates, theta_tenths as f64 / 10.0);
        // Weights must mirror the deterministic pow exactly.
        prop_assert!(det_pow(1.0, -(theta_tenths as f64) / 10.0) == 1.0);
        let draw = |seed: u64| -> Vec<usize> {
            use robustq::serve::rand::{rngs::StdRng, SeedableRng};
            let mut rng = StdRng::seed_from_u64(seed);
            (0..200).map(|_| mix.sample(&mut rng)).collect()
        };
        let a = draw(seed);
        let b = draw(seed);
        prop_assert_eq!(&a, &b);
        prop_assert!(a.iter().all(|&i| i < mix.len()));
    }
}
