//! Order statistics the harness reports: medians and quartiles of slice
//! times, and the tail percentile a sample is large enough to support.

/// Nearest-rank percentile of an ascending slice, in tenths of a percent
/// (`990` is p99, `999` p99.9) so that ranks are exact integers. Zero for
/// an empty sample.
pub fn percentile(sorted: &[u64], per_mille: usize) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (per_mille * sorted.len()).div_ceil(1000);
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Nearest-rank median of an unsorted sample.
pub fn p50(values: &[u64]) -> u64 {
    let mut v = values.to_vec();
    v.sort_unstable();
    percentile(&v, 500)
}

/// The percentiles a tail may be reported at, ascending, per mille.
pub const TAIL_CANDIDATES: [usize; 5] = [750, 900, 950, 990, 999];

/// The reported tail of a latency sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile chosen (100 = the maximum, for samples too small to
    /// leave ten beyond p75).
    pub percentile: f64,
    pub value: u64,
    pub samples: usize,
}

/// The highest of p75/p90/p95/p99/p99.9 that leaves at least ten samples
/// beyond it; the maximum when even p75 does not.
pub fn tail(values: &[u64]) -> Tail {
    let mut v = values.to_vec();
    v.sort_unstable();
    let n = v.len();
    let chosen = TAIL_CANDIDATES
        .iter()
        .rev()
        .find(|&&pm| n * (1000 - pm) >= 10 * 1000)
        .copied()
        .unwrap_or(1000);
    Tail {
        percentile: chosen as f64 / 10.0,
        value: percentile(&v, chosen),
        samples: n,
    }
}

/// Median and quartiles of a sample of seconds, as Python's
/// `statistics.quantiles(values, n=4)` gives them (exclusive method), so
/// the spread printed here is the spread the benchmark's driver computes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quartiles {
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
}

impl Quartiles {
    pub fn of(values: &[f64]) -> Quartiles {
        let mut v = values.to_vec();
        v.sort_by(|a, b| a.total_cmp(b));
        let n = v.len();
        let cut = |k: usize| -> f64 {
            match n {
                0 => 0.0,
                1 => v[0],
                _ => {
                    // Position k·(n+1)/4 on a 1-based scale, clamped so a
                    // short sample interpolates between its end points.
                    let j = (k * (n + 1) / 4).clamp(1, n - 1);
                    let delta = (k * (n + 1)) as f64 / 4.0 - j as f64;
                    v[j - 1] + (v[j] - v[j - 1]) * delta
                }
            }
        };
        Quartiles {
            q1: cut(1),
            median: cut(2),
            q3: cut(3),
        }
    }

    /// Interquartile range as a share of the median.
    pub fn spread(&self) -> f64 {
        if self.median > 0.0 {
            (self.q3 - self.q1) / self.median
        } else {
            0.0
        }
    }
}

/// A sample is flagged noisy when its quartiles lie further apart than a
/// tenth of its median.
pub const NOISY_SPREAD: f64 = 0.10;

/// Whether `name` is a legal metric or workload name: it starts with a
/// letter or digit and holds at most 64 letters, digits, `_`, `.`, `-`.
#[cfg(test)]
pub fn valid_name(name: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name.chars().all(ok)
}

/// FNV-1a over a stream of words: the fingerprint that must repeat
/// byte for byte from slice to slice and from run to run of one seed.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(pub u64);

impl Fnv {
    pub fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    pub fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// SplitMix64: the harness's own generator for the inputs it draws
/// itself (SQL literals), so they depend on `--seed` and nothing else.
#[derive(Debug, Clone)]
pub struct SplitMix(pub u64);

impl SplitMix {
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_needs_ten_samples_beyond() {
        let sample = |n: u64| (1..=n).collect::<Vec<u64>>();
        // 52 latencies: p75 leaves 13 beyond, p90 only 5.2.
        assert_eq!(tail(&sample(52)).percentile, 75.0);
        assert_eq!(tail(&sample(100)).percentile, 90.0);
        assert_eq!(tail(&sample(999)).percentile, 95.0);
        assert_eq!(tail(&sample(1_000)).percentile, 99.0);
        assert_eq!(tail(&sample(9_999)).percentile, 99.0);
        let t = tail(&sample(10_000));
        assert_eq!((t.percentile, t.value, t.samples), (99.9, 9_990, 10_000));
        // Too small for any candidate: the maximum.
        let t = tail(&sample(39));
        assert_eq!((t.percentile, t.value), (100.0, 39));
        assert_eq!(tail(&[]).value, 0);
    }

    #[test]
    fn percentiles_are_nearest_rank() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 500), 50);
        assert_eq!(percentile(&v, 990), 99);
        assert_eq!(percentile(&v, 999), 100);
        assert_eq!(p50(&[9, 1, 5]), 5);
        assert_eq!(p50(&[]), 0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let q = Quartiles::of(&v);
        assert_eq!((q.q1, q.median, q.q3), (2.75, 5.5, 8.25));
        assert!((q.spread() - 1.0).abs() < 1e-12);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        let q = Quartiles::of(&[3.0, 1.0, 2.0]);
        assert_eq!((q.q1, q.median, q.q3), (1.0, 2.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let q = Quartiles::of(&[1.0, 2.0]);
        assert_eq!((q.q1, q.median, q.q3), (0.75, 1.5, 2.25));
        // statistics.quantiles([2,4,4,5,9], n=4) == [3.0, 4.0, 7.0]
        let q = Quartiles::of(&[2.0, 4.0, 4.0, 5.0, 9.0]);
        assert_eq!((q.q1, q.median, q.q3), (3.0, 4.0, 7.0));
        assert_eq!(Quartiles::of(&[]).spread(), 0.0);
    }

    #[test]
    fn names_are_restricted() {
        for good in ["setup_s", "serve.rate_lo.tail_ms", "ssb-scan", "9lives"] {
            assert!(valid_name(good), "{good}");
        }
        let long = "x".repeat(65);
        for bad in ["", "_x", ".x", "a b", "a/b", "é", long.as_str()] {
            assert!(!valid_name(bad), "{bad}");
        }
    }

    #[test]
    fn generator_and_fingerprint_are_deterministic() {
        let (mut a, mut b, mut c) = (SplitMix(7), SplitMix(7), SplitMix(8));
        let (x, y, z) = (a.next(), b.next(), c.next());
        assert_eq!(x, y);
        assert_ne!(x, z);
        assert!(a.below(3) < 3);
        let mut f = Fnv::new();
        f.word(1);
        let mut g = Fnv::new();
        g.word(2);
        assert_ne!(f.0, g.0);
    }
}
