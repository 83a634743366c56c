//! Fixed-bucket latency histograms for per-op wire timing.
//!
//! The staging wire needs percentiles, not means: one slow put behind a
//! retry loop hides in an average but shows in p99. A [`Hist`] records
//! nanosecond samples into 252 fixed log-spaced buckets (power-of-two
//! decades, four sub-buckets each, ~25 % resolution). Quantiles are read
//! back as the lower bound of the covering bucket, so reported values
//! never overstate the observed latency.
//!
//! Timing sources live in the *callers* — a load generator times its own
//! ops into its own `Hist` (`xbench::agent`), a benchmark times from
//! outside (`xmark`); the clients themselves carry no clock reads, and the
//! histogram never reads one.

/// Number of buckets: 8 exact low buckets + 4 sub-buckets for each of
/// the 61 remaining power-of-two decades of a u64 (8 + 61*4); every
/// index is reachable and every floor fits in a u64.
const NBUCKETS: usize = 252;

/// Bucket index of a nanosecond sample.
fn bucket_of(ns: u64) -> usize {
    if ns < 8 {
        return ns as usize;
    }
    let e = 63 - ns.leading_zeros() as u64; // >= 3
    let sub = (ns >> (e - 2)) & 3;
    (8 + (e - 3) * 4 + sub) as usize
}

/// Lower bound (ns) of bucket `idx` — the value quantiles report.
fn bucket_floor(idx: usize) -> u64 {
    if idx < 8 {
        return idx as u64;
    }
    let e = 3 + ((idx - 8) / 4) as u64;
    let sub = ((idx - 8) % 4) as u64;
    (1u64 << e) + (sub << (e - 2))
}

/// An owned, mergeable, fixed-memory latency histogram (nanoseconds).
///
/// Also the transport/aggregation form: a load-generation agent
/// serialises its per-op histograms as sparse `(bucket, count)` pairs, a
/// controller rebuilds them with [`Hist::add_bucket`] and folds many
/// agents together with [`Hist::merge`].
#[derive(Clone, PartialEq, Eq)]
pub struct Hist {
    buckets: [u64; NBUCKETS],
    count: u64,
    max: u64,
}

impl Default for Hist {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for Hist {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = self.snapshot();
        f.debug_struct("Hist")
            .field("count", &s.count)
            .field("p50_ns", &s.p50_ns)
            .field("p99_ns", &s.p99_ns)
            .field("max_ns", &s.max_ns)
            .finish()
    }
}

impl Hist {
    /// An empty histogram.
    pub fn new() -> Self {
        Hist {
            buckets: [0; NBUCKETS],
            count: 0,
            max: 0,
        }
    }

    /// Record one nanosecond sample.
    pub fn record(&mut self, ns: u64) {
        if let Some(b) = self.buckets.get_mut(bucket_of(ns)) {
            *b = b.saturating_add(1);
        }
        self.count = self.count.saturating_add(1);
        self.max = self.max.max(ns);
    }

    /// Fold `other` into `self`: bucket-wise saturating add, counts
    /// summed, max reconciled to the larger of the two.
    pub fn merge(&mut self, other: &Hist) {
        for (mine, theirs) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *mine = mine.saturating_add(*theirs);
        }
        self.count = self.count.saturating_add(other.count);
        self.max = self.max.max(other.max);
    }

    /// Samples recorded so far.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Largest sample recorded (exact, not bucketed). 0 when empty.
    pub fn max_ns(&self) -> u64 {
        self.max
    }

    /// The `q`-quantile (`0.0..=1.0`) as the lower bound of the covering
    /// bucket; 0 when empty.
    pub fn quantile_ns(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let target = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut cum = 0u64;
        for (idx, n) in self.buckets.iter().enumerate() {
            cum = cum.saturating_add(*n);
            if cum >= target {
                return bucket_floor(idx);
            }
        }
        self.max
    }

    /// Percentile summary.
    pub fn snapshot(&self) -> LatencySnapshot {
        LatencySnapshot {
            count: self.count,
            p50_ns: self.quantile_ns(0.50),
            p95_ns: self.quantile_ns(0.95),
            p99_ns: self.quantile_ns(0.99),
            max_ns: self.max,
        }
    }

    /// Non-empty buckets as `(index, count)` pairs, ascending by index —
    /// the sparse wire form (most histograms occupy a handful of the 252
    /// buckets).
    pub fn nonzero_buckets(&self) -> impl Iterator<Item = (u16, u64)> + '_ {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, n)| **n > 0)
            .map(|(idx, n)| (idx as u16, *n))
    }

    /// Add `count` samples directly into bucket `idx` (wire decode path).
    /// Returns `false` — and records nothing — if `idx` is out of range.
    pub fn add_bucket(&mut self, idx: u16, count: u64) -> bool {
        match self.buckets.get_mut(idx as usize) {
            Some(b) => {
                *b = b.saturating_add(count);
                self.count = self.count.saturating_add(count);
                true
            }
            None => false,
        }
    }

    /// Raise the recorded maximum to at least `ns` (wire decode path —
    /// the exact max travels beside the sparse buckets).
    pub fn raise_max(&mut self, ns: u64) {
        self.max = self.max.max(ns);
    }
}

/// Point-in-time percentile summary of a [`Hist`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LatencySnapshot {
    /// Samples recorded.
    pub count: u64,
    /// Median, ns (bucket floor).
    pub p50_ns: u64,
    /// 95th percentile, ns (bucket floor).
    pub p95_ns: u64,
    /// 99th percentile, ns (bucket floor).
    pub p99_ns: u64,
    /// Largest sample, ns (exact).
    pub max_ns: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_are_monotone_and_cover_u64() {
        let mut prev = 0;
        for idx in 1..NBUCKETS {
            let f = bucket_floor(idx);
            assert!(f > prev, "bucket {idx} floor {f} <= {prev}");
            prev = f;
        }
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(7), 7);
        assert!(bucket_of(u64::MAX) < NBUCKETS);
    }

    #[test]
    fn bucket_floor_is_a_true_lower_bound() {
        for ns in [0u64, 1, 7, 8, 9, 100, 1000, 123_456, 1 << 40, u64::MAX] {
            let idx = bucket_of(ns);
            assert!(bucket_floor(idx) <= ns, "floor of bucket({ns}) exceeds it");
            if idx + 1 < NBUCKETS {
                assert!(bucket_floor(idx + 1) > ns);
            }
        }
    }

    #[test]
    fn quantiles_of_uniform_ramp() {
        let mut h = Hist::new();
        for ns in 1..=1000u64 {
            h.record(ns * 1000); // 1 µs .. 1 ms
        }
        let s = h.snapshot();
        assert_eq!(s.count, 1000);
        assert_eq!(s.max_ns, 1_000_000);
        // Bucket resolution is ~25 %: check within a factor of 1.5.
        assert!(s.p50_ns >= 300_000 && s.p50_ns <= 550_000, "{}", s.p50_ns);
        assert!(s.p99_ns >= 600_000 && s.p99_ns <= 1_000_000, "{}", s.p99_ns);
        assert!(s.p50_ns <= s.p95_ns && s.p95_ns <= s.p99_ns && s.p99_ns <= s.max_ns);
    }

    #[test]
    fn empty_histogram_reports_zero() {
        assert_eq!(Hist::new().snapshot(), LatencySnapshot::default());
    }

    #[test]
    fn hist_merge_equals_combined_samples() {
        // Recording the union of two sample sets into one Hist must give
        // the same quantiles as recording each half and merging.
        let samples_a = [100u64, 2_000, 40_000, 40_001, 1 << 30];
        let samples_b = [7u64, 900, 40_002, 5_000_000];
        let mut merged = Hist::new();
        let mut left = Hist::new();
        let mut right = Hist::new();
        for ns in samples_a {
            merged.record(ns);
            left.record(ns);
        }
        for ns in samples_b {
            merged.record(ns);
            right.record(ns);
        }
        left.merge(&right);
        assert_eq!(left.count(), merged.count());
        assert_eq!(left.max_ns(), merged.max_ns());
        for q in [0.0, 0.25, 0.5, 0.95, 0.99, 1.0] {
            assert_eq!(left.quantile_ns(q), merged.quantile_ns(q), "q={q}");
        }
        assert_eq!(left.snapshot(), merged.snapshot());
    }

    #[test]
    fn hist_merge_reconciles_count_and_max() {
        let mut a = Hist::new();
        let mut b = Hist::new();
        a.record(500);
        a.record(600);
        b.record(9_999_999);
        a.merge(&b);
        assert_eq!(a.count(), 3);
        assert_eq!(a.max_ns(), 9_999_999);
        // Merging an empty histogram is a no-op.
        a.merge(&Hist::new());
        assert_eq!(a.count(), 3);
        assert_eq!(a.max_ns(), 9_999_999);
    }

    #[test]
    fn hist_sparse_pairs_roundtrip() {
        let mut h = Hist::new();
        for ns in [3u64, 3, 77, 1_000_000, u64::MAX] {
            h.record(ns);
        }
        let mut rebuilt = Hist::new();
        for (idx, n) in h.nonzero_buckets() {
            assert!(rebuilt.add_bucket(idx, n));
        }
        rebuilt.raise_max(h.max_ns());
        assert_eq!(rebuilt.snapshot(), h.snapshot());
        // Out-of-range bucket indices are rejected without effect.
        let before = rebuilt.count();
        assert!(!rebuilt.add_bucket(NBUCKETS as u16, 5));
        assert_eq!(rebuilt.count(), before);
    }
}
