//! Log-scaled (HDR-style) histograms for latency and blocking-time tails.
//!
//! The paper reports means; tail behaviour (p95/p99 blocking time) is what
//! separates the protocols under contention, so every run also accumulates
//! values into a fixed bucket layout. Plain power-of-two buckets saturate
//! at large scales — at `fig_scale`'s million-transaction runs a bucket
//! spanning `[2^19, 2^20)` collapses the whole tail into one value — so
//! each power-of-two range is split into 32 linear sub-buckets, bounding
//! the relative quantile error at `1/32` (~3%) across the full `u64`
//! range while values below 32 stay exact. The layout is `Copy` and allocation-free so per-run metrics can
//! carry and merge histograms cheaply, and all percentile arithmetic is
//! integral — the same inputs produce the same percentiles on every
//! platform.

use serde::{Deserialize, Serialize};

/// Linear sub-buckets per power-of-two range (HDR "precision"). Values
/// below this are recorded exactly in the first [`SUB_BUCKETS`] buckets.
const SUB_BUCKETS: usize = 32;

/// log2 of [`SUB_BUCKETS`].
const SUB_BITS: u32 = 5;

/// Total bucket count: the exact low range plus 32 sub-buckets for each
/// of the 59 power-of-two ranges `[2^5, 2^6) … [2^63, 2^64)`.
const BUCKETS: usize = SUB_BUCKETS * 60;

/// A fixed-layout log-scaled histogram over `u64` samples.
///
/// # Example
///
/// ```
/// use monitor::Histogram;
/// let mut h = Histogram::new();
/// for v in [0, 3, 40, 41, 1000] {
///     h.record(v);
/// }
/// assert_eq!(h.count(), 5);
/// assert_eq!(h.max(), 1000);
/// assert!(h.percentile(50) <= h.percentile(99));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Histogram {
    buckets: [u64; BUCKETS],
    count: u64,
    total: u64,
    max: u64,
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Histogram {
            buckets: [0; BUCKETS],
            count: 0,
            total: 0,
            max: 0,
        }
    }

    fn bucket_of(value: u64) -> usize {
        if value < SUB_BUCKETS as u64 {
            return value as usize;
        }
        // `h` is the index of the value's highest set bit (≥ SUB_BITS);
        // the sub-bucket is the next SUB_BITS bits below it.
        let h = 63 - value.leading_zeros();
        let sub = (value >> (h - SUB_BITS)) & (SUB_BUCKETS as u64 - 1);
        SUB_BUCKETS * (h - SUB_BITS + 1) as usize + sub as usize
    }

    /// Upper bound (inclusive) of bucket `i`, used as the percentile
    /// representative.
    fn bucket_top(i: usize) -> u64 {
        if i < SUB_BUCKETS {
            return i as u64;
        }
        let h = (i / SUB_BUCKETS) as u32 + SUB_BITS - 1;
        let sub = (i % SUB_BUCKETS) as u64;
        let low = (1u64 << h) + (sub << (h - SUB_BITS));
        low + ((1u64 << (h - SUB_BITS)) - 1)
    }

    /// Adds one sample.
    pub fn record(&mut self, value: u64) {
        self.buckets[Self::bucket_of(value)] += 1;
        self.count += 1;
        self.total = self.total.saturating_add(value);
        self.max = self.max.max(value);
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all samples (saturating).
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Largest sample recorded (0 when empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Mean sample value (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total as f64 / self.count as f64
        }
    }

    /// The `pct`-th percentile (0–100), as the inclusive upper bound of the
    /// bucket where the cumulative count crosses `ceil(count × pct / 100)`,
    /// clamped to the observed maximum. Purely integral, hence
    /// deterministic. Returns 0 for an empty histogram.
    ///
    /// # Panics
    ///
    /// Panics if `pct > 100`.
    pub fn percentile(&self, pct: u8) -> u64 {
        assert!(pct <= 100, "percentile out of range");
        if self.count == 0 {
            return 0;
        }
        let target = (self.count as u128 * pct as u128).div_ceil(100).max(1) as u64;
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= target {
                return Self::bucket_top(i).min(self.max);
            }
        }
        self.max
    }

    /// Folds another histogram into this one.
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += b;
        }
        self.count += other.count;
        self.total = self.total.saturating_add(other.total);
        self.max = self.max.max(other.max);
    }
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_is_all_zero() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.percentile(50), 0);
        assert_eq!(h.percentile(99), 0);
        assert_eq!(h.mean(), 0.0);
    }

    #[test]
    fn zeros_land_in_bucket_zero() {
        let mut h = Histogram::new();
        for _ in 0..10 {
            h.record(0);
        }
        assert_eq!(h.percentile(50), 0);
        assert_eq!(h.percentile(100), 0);
        assert_eq!(h.total(), 0);
    }

    #[test]
    fn small_values_are_exact() {
        let mut h = Histogram::new();
        for v in 0..SUB_BUCKETS as u64 {
            h.record(v);
        }
        for v in 0..SUB_BUCKETS as u64 {
            let pct = ((v + 1) * 100).div_ceil(SUB_BUCKETS as u64) as u8;
            assert!(h.percentile(pct) >= v);
        }
        assert_eq!(h.percentile(100), SUB_BUCKETS as u64 - 1);
    }

    #[test]
    fn percentiles_are_monotone_and_bounded_by_max() {
        let mut h = Histogram::new();
        for v in [1u64, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144, 1000, 40_000] {
            h.record(v);
        }
        let p50 = h.percentile(50);
        let p95 = h.percentile(95);
        let p99 = h.percentile(99);
        assert!(p50 <= p95 && p95 <= p99);
        assert!(p99 <= h.max());
    }

    #[test]
    fn single_sample_percentiles_hit_its_bucket() {
        let mut h = Histogram::new();
        h.record(41);
        // 41 lands in the exact sub-bucket [41, 41] of the [32, 64)
        // range, clamped to the observed max.
        assert_eq!(h.percentile(50), 41);
        assert_eq!(h.percentile(99), 41);
    }

    #[test]
    fn bucket_bounds_cover_u64_without_gaps() {
        // Every bucket's top + 1 must be the next bucket's low value,
        // i.e. bucket_of(bucket_top(i)) == i and
        // bucket_of(bucket_top(i) + 1) == i + 1.
        for i in 0..BUCKETS - 1 {
            let top = Histogram::bucket_top(i);
            assert_eq!(Histogram::bucket_of(top), i, "top of bucket {i}");
            assert_eq!(Histogram::bucket_of(top + 1), i + 1, "succ of bucket {i}");
        }
        assert_eq!(Histogram::bucket_top(BUCKETS - 1), u64::MAX);
        assert_eq!(Histogram::bucket_of(u64::MAX), BUCKETS - 1);
    }

    #[test]
    fn relative_error_is_bounded() {
        // A lone large sample's reported percentile must sit within
        // 1/SUB_BUCKETS of the true value — the saturation the old
        // power-of-two layout failed at fig_scale magnitudes.
        for v in [1_000u64, 123_456, 9_876_543, 1 << 40, (1 << 55) + 12345] {
            let mut h = Histogram::new();
            h.record(v);
            h.record(v * 2); // keep the max clamp away from v's bucket
            let p50 = h.percentile(50);
            assert!(p50 >= v);
            assert!(p50 - v <= v / SUB_BUCKETS as u64 + 1, "p50={p50} v={v}");
        }
    }

    #[test]
    fn merge_equals_recording_everything() {
        let (mut a, mut b, mut both) = (Histogram::new(), Histogram::new(), Histogram::new());
        for v in [3u64, 9, 27] {
            a.record(v);
            both.record(v);
        }
        for v in [81u64, 243] {
            b.record(v);
            both.record(v);
        }
        a.merge(&b);
        assert_eq!(a, both);
    }

    #[test]
    fn huge_values_use_top_buckets() {
        let mut h = Histogram::new();
        h.record(u64::MAX);
        h.record(1u64 << 40);
        assert_eq!(h.count(), 2);
        assert_eq!(h.percentile(100), u64::MAX);
    }
}
