//! Counter / histogram registry derived from the event stream.
//!
//! The registry is a *view* over [`TraceEvent`]s — build it after a run
//! with [`MetricsRegistry::from_events`]. Histograms use power-of-two
//! buckets (bucket `i` holds values in `[2^(i-1), 2^i)`), which is exact
//! enough for latency/queue-wait/transfer-size distributions while
//! staying allocation-light and deterministic.

use crate::event::{OpOutcome, TraceEvent};
use robustq_sim::{Direction, DeviceId};
use std::collections::BTreeMap;
use std::fmt;

/// A power-of-two-bucket histogram over `u64` samples.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    /// `buckets[i]` counts samples with `bit_length(v) == i` (bucket 0 is
    /// exactly the value zero).
    buckets: [u64; 65],
    count: u64,
    sum: u128,
    min: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram { buckets: [0; 65], count: 0, sum: 0, min: 0, max: 0 }
    }
}

impl Histogram {
    /// Record one sample.
    pub fn record(&mut self, value: u64) {
        let idx = (64 - value.leading_zeros()) as usize;
        self.buckets[idx] += 1;
        if self.count == 0 || value < self.min {
            self.min = value;
        }
        self.max = self.max.max(value);
        self.count += 1;
        self.sum += value as u128;
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of samples.
    pub fn sum(&self) -> u128 {
        self.sum
    }

    /// Smallest sample (zero when empty).
    pub fn min(&self) -> u64 {
        self.min
    }

    /// Largest sample (zero when empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Mean sample value (zero when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Non-empty `(bucket_upper_bound, count)` pairs, ascending. The
    /// upper bound of bucket `i` is `2^i - 1`... i.e. all values with at
    /// most `i` significant bits.
    pub fn nonzero_buckets(&self) -> Vec<(u64, u64)> {
        self.buckets
            .iter()
            .enumerate()
            .filter(|&(_, &c)| c > 0)
            .map(|(i, &c)| {
                let hi = if i >= 64 { u64::MAX } else { (1u64 << i) - 1 };
                (hi, c)
            })
            .collect()
    }
}

/// Counters and histograms derived from one run's event stream.
///
/// Counter names are owned strings because per-device counters
/// (`ops_completed_gpu2`, …) are minted from the device ordinal; the
/// classic `ops_completed_cpu`/`ops_completed_gpu` names are stable.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MetricsRegistry {
    counters: BTreeMap<String, u64>,
    histograms: BTreeMap<&'static str, Histogram>,
}

impl MetricsRegistry {
    /// Build the registry from an event stream.
    pub fn from_events(events: &[TraceEvent]) -> Self {
        let mut reg = MetricsRegistry::default();
        for ev in events {
            match *ev {
                TraceEvent::QueryDone { submit, admit, end, .. } => {
                    reg.bump("queries", 1);
                    reg.histogram("query_latency_ns")
                        .record(end.saturating_sub(submit).as_nanos());
                    reg.histogram("admission_wait_ns")
                        .record(admit.saturating_sub(submit).as_nanos());
                    reg.histogram("query_service_ns")
                        .record(end.saturating_sub(admit).as_nanos());
                }
                TraceEvent::QueryShed { submit, at, .. } => {
                    reg.bump("queries_shed", 1);
                    reg.histogram("shed_wait_ns")
                        .record(at.saturating_sub(submit).as_nanos());
                }
                TraceEvent::OpSpan { device, queued_at, start, end, outcome, .. } => {
                    reg.histogram("op_queue_wait_ns")
                        .record(start.saturating_sub(queued_at).as_nanos());
                    match outcome {
                        OpOutcome::Completed => {
                            if device == DeviceId::Cpu {
                                reg.bump("ops_completed_cpu", 1);
                            } else if device == DeviceId::Gpu {
                                reg.bump("ops_completed_gpu", 1);
                            } else {
                                reg.bump_owned(
                                    format!("ops_completed_gpu{}", device.index()),
                                    1,
                                );
                            }
                            reg.histogram("op_span_ns")
                                .record(end.saturating_sub(start).as_nanos());
                        }
                        OpOutcome::Aborted { .. } => reg.bump("op_aborts", 1),
                    }
                }
                TraceEvent::Transfer { dir, bytes, service, .. } => {
                    reg.histogram(match dir {
                        Direction::HostToDevice => "transfer_bytes_h2d",
                        Direction::DeviceToHost => "transfer_bytes_d2h",
                    })
                    .record(bytes);
                    reg.histogram("transfer_service_ns").record(service.as_nanos());
                }
                TraceEvent::CacheProbe { hit, .. } => {
                    reg.bump(if hit { "cache_hits" } else { "cache_misses" }, 1)
                }
                TraceEvent::CacheEvict { .. } => reg.bump("cache_evictions", 1),
                TraceEvent::Fault { .. } => reg.bump("faults_injected", 1),
                TraceEvent::Retry { .. } => reg.bump("transfer_retries", 1),
                TraceEvent::Placement { .. } => reg.bump("placement_decisions", 1),
                TraceEvent::ShardFanout { shards, .. } => {
                    reg.bump("shard_fanouts", 1);
                    reg.bump("shards_spawned", shards as u64);
                }
                TraceEvent::ShardMerge { start, end, .. } => {
                    reg.bump("shard_merges", 1);
                    reg.histogram("shard_merge_ns")
                        .record(end.saturating_sub(start).as_nanos());
                }
                TraceEvent::OpStaged { chunks, .. } => {
                    reg.bump("staged_ops", 1);
                    reg.bump("staged_chunks", chunks as u64);
                }
                TraceEvent::Append { rows, bytes, .. } => {
                    reg.bump("appends", 1);
                    reg.bump("append_rows", rows);
                    reg.histogram("append_bytes").record(bytes);
                }
                TraceEvent::EpochSeal { .. } => reg.bump("epoch_seals", 1),
                TraceEvent::WindowFire { lo, hi, .. } => {
                    reg.bump("window_fires", 1);
                    reg.histogram("window_rows").record(hi.saturating_sub(lo));
                }
                TraceEvent::QuerySubmit { .. }
                | TraceEvent::CacheInsert { .. }
                | TraceEvent::HeapAlloc { .. }
                | TraceEvent::HeapFree { .. } => {}
            }
        }
        reg
    }

    fn bump(&mut self, name: &str, by: u64) {
        if let Some(v) = self.counters.get_mut(name) {
            *v += by;
        } else {
            self.counters.insert(name.to_string(), by);
        }
    }

    fn bump_owned(&mut self, name: String, by: u64) {
        *self.counters.entry(name).or_insert(0) += by;
    }

    fn histogram(&mut self, name: &'static str) -> &mut Histogram {
        self.histograms.entry(name).or_default()
    }

    /// The counter `name` (zero when never bumped).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// The histogram `name`, if any samples were recorded.
    pub fn get_histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms.get(name)
    }

    /// All counters, sorted by name.
    pub fn counters(&self) -> impl Iterator<Item = (&str, u64)> + '_ {
        self.counters.iter().map(|(k, &v)| (k.as_str(), v))
    }

    /// All histograms, sorted by name.
    pub fn histograms(&self) -> impl Iterator<Item = (&'static str, &Histogram)> + '_ {
        self.histograms.iter().map(|(&k, v)| (k, v))
    }
}

impl fmt::Display for MetricsRegistry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "counters:")?;
        for (name, v) in &self.counters {
            writeln!(f, "  {name:<24} {v}")?;
        }
        writeln!(f, "histograms:")?;
        for (name, h) in &self.histograms {
            writeln!(
                f,
                "  {name:<24} n={} min={} mean={:.1} max={}",
                h.count(),
                h.min(),
                h.mean(),
                h.max()
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use robustq_sim::{CacheKey, OpClass, VirtualTime};

    #[test]
    fn histogram_buckets_by_bit_length() {
        let mut h = Histogram::default();
        for v in [0, 1, 2, 3, 4, 1000] {
            h.record(v);
        }
        assert_eq!(h.count(), 6);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 1000);
        assert_eq!(h.sum(), 1010);
        // 0 → bucket 0; 1 → 1; 2,3 → 2; 4 → 3; 1000 → 10.
        assert_eq!(
            h.nonzero_buckets(),
            vec![(0, 1), (1, 1), (3, 2), (7, 1), (1023, 1)]
        );
    }

    #[test]
    fn registry_counts_by_kind() {
        let t = VirtualTime::from_micros;
        let events = vec![
            TraceEvent::CacheProbe { device: DeviceId::Gpu, key: CacheKey(1), bytes: 8, hit: false, at: t(0) },
            TraceEvent::CacheProbe { device: DeviceId::Gpu, key: CacheKey(1), bytes: 8, hit: true, at: t(1) },
            TraceEvent::OpSpan {
                query: 0,
                task: 0,
                op: OpClass::Selection,
                device: DeviceId::Gpu,
                queued_at: t(0),
                start: t(1),
                end: t(3),
                bytes_in: 8,
                bytes_out: 4,
                rows_out: 1,
                outcome: OpOutcome::Completed,
            },
            TraceEvent::QueryDone {
                query: 0,
                session: 0,
                seq: 0,
                submit: t(0),
                admit: t(1),
                end: t(4),
                rows: 1,
            },
            TraceEvent::QueryShed {
                session: 1,
                seq: 0,
                submit: t(2),
                reason: crate::event::ShedReason::QueueFull,
                at: t(5),
            },
        ];
        let reg = MetricsRegistry::from_events(&events);
        assert_eq!(reg.counter("cache_hits"), 1);
        assert_eq!(reg.counter("cache_misses"), 1);
        assert_eq!(reg.counter("ops_completed_gpu"), 1);
        assert_eq!(reg.counter("queries"), 1);
        assert_eq!(reg.counter("queries_shed"), 1);
        assert_eq!(reg.counter("never_bumped"), 0);
        let lat = reg.get_histogram("query_latency_ns").unwrap();
        assert_eq!(lat.count(), 1);
        assert_eq!(lat.max(), 4_000);
        assert_eq!(reg.get_histogram("admission_wait_ns").unwrap().max(), 1_000);
        assert_eq!(reg.get_histogram("query_service_ns").unwrap().max(), 3_000);
        assert_eq!(reg.get_histogram("shed_wait_ns").unwrap().max(), 3_000);
        assert_eq!(reg.get_histogram("op_queue_wait_ns").unwrap().max(), 1_000);
        assert!(reg.to_string().contains("query_latency_ns"));
    }
}
