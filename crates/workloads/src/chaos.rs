//! The chaos harness (DESIGN.md §12): the seeded fault shapes and the
//! invariants every faulted run must keep, shared by `tests/chaos.rs` and
//! the `chaos` sweep bin; the sweep driver applies [`conservation`] to
//! every sweep point.

use crate::runner::{ResultFingerprints, RunReport};
use robustq_engine::exec::metrics::FaultCounters;
use robustq_engine::RunMetrics;
use robustq_sim::{FaultSpec, VirtualTime};

/// Names of the fault-model shapes, indexed by `seed % 5`.
pub const FAULT_SHAPES: [&str; 5] = ["alloc", "transfer", "kernel", "stall", "mixed"];

/// One of the five [`FAULT_SHAPES`], cycled over the seed range so a
/// sweep covers allocation faults, transfer faults, kernel aborts, stalls
/// and a mixed plan: the shape's index into [`FAULT_SHAPES`] and its
/// spec. `horizon` (the fault-free makespan) scales the stall windows.
pub fn fault_shape(seed: u64, horizon: VirtualTime) -> (usize, FaultSpec) {
    let shape = (seed % FAULT_SHAPES.len() as u64) as usize;
    let mut spec = FaultSpec::default();
    match shape {
        0 => spec.alloc_fail_prob = 0.25,
        1 => {
            spec.transfer_transient_prob = 0.15;
            spec.transfer_permanent_prob = 0.05;
            spec.transfer_spike_prob = 0.10;
            spec.transfer_spike_factor = 5.0;
        }
        2 => spec.kernel_abort_prob = 0.25,
        3 => {
            spec.random_stalls = 4;
            spec.stall_horizon = horizon;
            spec.stall_len = (
                VirtualTime::from_nanos(1 + horizon.as_nanos() / 50),
                VirtualTime::from_nanos(1 + horizon.as_nanos() / 10),
            );
        }
        _ => {
            spec.alloc_fail_prob = 0.05;
            spec.alloc_fail_stages = vec![2];
            spec.transfer_transient_prob = 0.05;
            spec.transfer_spike_prob = 0.05;
            spec.transfer_spike_factor = 3.0;
            spec.kernel_abort_prob = 0.05;
            spec.random_stalls = 1;
            spec.stall_horizon = horizon;
            spec.stall_len =
                (VirtualTime::from_nanos(1 + horizon.as_nanos() / 20), VirtualTime::ZERO);
        }
    }
    (shape, spec)
}

/// The conservation invariants every run keeps, faulted or not: the
/// co-processor heap drained, and the executor's transfer accounting
/// equals the interconnect's own statistics. Returns what failed; the
/// sweep driver's check list applies it to every sweep point.
pub fn conservation(m: &RunMetrics) -> Vec<String> {
    let checks = [
        (m.gpu_heap_leaked == 0, format!("heap leaked {} bytes", m.gpu_heap_leaked)),
        (m.h2d_bytes == m.link_h2d.bytes, "H2D byte accounting split".to_string()),
        (m.d2h_bytes == m.link_d2h.bytes, "D2H byte accounting split".to_string()),
        (m.h2d_time == m.link_h2d.busy_time, "H2D time accounting split".to_string()),
        (m.d2h_time == m.link_d2h.busy_time, "D2H time accounting split".to_string()),
    ];
    checks.into_iter().filter(|(ok, _)| !ok).map(|(_, msg)| msg).collect()
}

/// The invariants particular to a faulted run, against the fault-free
/// `baseline` fingerprints; returns human-readable violations (empty =
/// the run is clean). A faulted run keeps [`conservation`] too.
///
///  1. Differential: results are bit-identical per `(session, seq)` —
///     faults change timing and placement, never answers.
///  2. Fault-metric consistency: the executor's injection count matches
///     the plan's, retries never exceed the transient faults that caused
///     them, aborts cover fallbacks, wasted time stays within total
///     device time, and the per-query counters never exceed the run
///     totals (placement transfers are counted at run level only).
pub fn violations(report: &RunReport, baseline: &ResultFingerprints) -> Vec<String> {
    let m = &report.metrics;
    let mut bad = Vec::new();
    let mut push = |cond: bool, msg: String| {
        if !cond {
            bad.push(msg);
        }
    };

    push(
        report.outcomes.len() == baseline.len(),
        format!("outcome count {} != {}", report.outcomes.len(), baseline.len()),
    );
    for o in &report.outcomes {
        match baseline.get(&(o.session, o.seq)) {
            Some(&(rows, checksum)) => {
                push(
                    o.rows == rows && o.checksum == checksum,
                    format!("query ({}, {}) result drifted under faults", o.session, o.seq),
                );
            }
            None => push(false, format!("unknown slot ({}, {})", o.session, o.seq)),
        }
    }

    push(
        m.faults.injected == m.fault_stats.injected,
        format!(
            "executor injected {} != plan injected {}",
            m.faults.injected, m.fault_stats.injected
        ),
    );
    push(
        m.faults.retries <= m.fault_stats.transfer_transient,
        "more retries than transient faults".into(),
    );
    push(m.aborts >= m.faults.fallbacks, "fallbacks without aborts".into());
    push(m.wasted_time <= m.total_device_time(), "wasted time exceeds device time".into());
    push(
        m.faults.injected > 0 || m.faults.injected_wasted == VirtualTime::ZERO,
        "injected waste without injections".into(),
    );
    let mut q = FaultCounters::default();
    for o in &report.outcomes {
        q.absorb(&o.faults);
    }
    push(q.injected <= m.faults.injected, "per-query injected overflow".into());
    push(q.retries <= m.faults.retries, "per-query retries overflow".into());
    push(q.fallbacks <= m.faults.fallbacks, "per-query fallbacks overflow".into());
    push(q.injected_wasted <= m.faults.injected_wasted, "per-query waste overflow".into());
    bad
}
