//! Per-column access statistics.
//!
//! The query processor bumps a counter every time an operator reads a base
//! column (Section 3.2 of the paper: "Each column in the database has an
//! access counter, which is incremented each time an operator accesses a
//! column"). The data placement manager reads these counters to decide
//! which columns to pin on the co-processor (LFU), and the recency ticks
//! support the LRU variant compared in Appendix E.

use std::sync::atomic::{AtomicU64, Ordering};

/// Lock-free access counters and recency ticks, one slot per base column.
#[derive(Debug)]
pub struct AccessStats {
    counts: Vec<AtomicU64>,
    last_access: Vec<AtomicU64>,
    clock: AtomicU64,
}

impl AccessStats {
    /// Statistics for `n` columns, all counters zeroed.
    pub fn new(n: usize) -> Self {
        AccessStats {
            counts: (0..n).map(|_| AtomicU64::new(0)).collect(),
            last_access: (0..n).map(|_| AtomicU64::new(0)).collect(),
            clock: AtomicU64::new(0),
        }
    }

    /// Number of tracked columns.
    pub fn len(&self) -> usize {
        self.counts.len()
    }

    /// True if no columns are tracked.
    pub fn is_empty(&self) -> bool {
        self.counts.is_empty()
    }

    /// Record one access to column `idx`, advancing the logical clock.
    pub fn record_access(&self, idx: usize) {
        let tick = self.clock.fetch_add(1, Ordering::Relaxed) + 1;
        self.counts[idx].fetch_add(1, Ordering::Relaxed);
        self.last_access[idx].store(tick, Ordering::Relaxed);
    }

    /// Total accesses to column `idx`.
    pub fn access_count(&self, idx: usize) -> u64 {
        self.counts[idx].load(Ordering::Relaxed)
    }

    /// Logical tick of the most recent access to column `idx` (0 = never).
    pub fn last_access_tick(&self, idx: usize) -> u64 {
        self.last_access[idx].load(Ordering::Relaxed)
    }

    /// Current value of the logical clock.
    pub fn clock(&self) -> u64 {
        self.clock.load(Ordering::Relaxed)
    }

    /// Reset all counters and ticks (used between workload phases).
    pub fn reset(&self) {
        for c in &self.counts {
            c.store(0, Ordering::Relaxed);
        }
        for t in &self.last_access {
            t.store(0, Ordering::Relaxed);
        }
        self.clock.store(0, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_and_read() {
        let s = AccessStats::new(3);
        s.record_access(1);
        s.record_access(1);
        s.record_access(2);
        assert_eq!(s.access_count(0), 0);
        assert_eq!(s.access_count(1), 2);
        assert_eq!(s.access_count(2), 1);
        assert_eq!(s.clock(), 3);
    }

    #[test]
    fn recency_ordering() {
        let s = AccessStats::new(2);
        s.record_access(0);
        s.record_access(1);
        assert!(s.last_access_tick(1) > s.last_access_tick(0));
        s.record_access(0);
        assert!(s.last_access_tick(0) > s.last_access_tick(1));
    }

    #[test]
    fn reset_clears_everything() {
        let s = AccessStats::new(2);
        s.record_access(0);
        s.reset();
        assert_eq!(s.access_count(0), 0);
        assert_eq!(s.last_access_tick(0), 0);
        assert_eq!(s.clock(), 0);
    }

    #[test]
    fn concurrent_updates_are_counted() {
        use std::sync::Arc;
        let s = Arc::new(AccessStats::new(1));
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let s = Arc::clone(&s);
                std::thread::spawn(move || {
                    for _ in 0..1000 {
                        s.record_access(0);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(s.access_count(0), 4000);
        assert_eq!(s.clock(), 4000);
    }
}
