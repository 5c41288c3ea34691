//! A simple fixed-bucket histogram used for latency distributions.

use serde::{Deserialize, Serialize};

/// A histogram with uniform buckets of width `bucket_width`, plus an
/// overflow bucket.
///
/// Used to record per-fetch L1-miss latencies so the experiments can report
/// distribution shape, not just means.
///
/// # Example
///
/// ```
/// use gpumem_types::Histogram;
///
/// let mut h = Histogram::new(100, 8);
/// h.record(40);
/// h.record(250);
/// h.record(10_000); // overflow
/// assert_eq!(h.count(), 3);
/// assert_eq!(h.bucket_count(0), 1);
/// assert_eq!(h.bucket_count(2), 1);
/// assert_eq!(h.overflow(), 1);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Histogram {
    bucket_width: u64,
    buckets: Vec<u64>,
    overflow: u64,
    count: u64,
}

impl Histogram {
    /// Creates a histogram with `buckets` uniform buckets of `bucket_width`.
    ///
    /// # Panics
    ///
    /// Panics if `bucket_width` is zero or `buckets` is zero.
    pub fn new(bucket_width: u64, buckets: usize) -> Self {
        assert!(bucket_width > 0, "bucket width must be positive");
        assert!(buckets > 0, "bucket count must be positive");
        Histogram {
            bucket_width,
            buckets: vec![0; buckets],
            overflow: 0,
            count: 0,
        }
    }

    /// Records one sample.
    pub fn record(&mut self, value: u64) {
        self.count += 1;
        let idx = (value / self.bucket_width) as usize;
        if idx < self.buckets.len() {
            self.buckets[idx] += 1;
        } else {
            self.overflow += 1;
        }
    }

    /// Total samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Samples in bucket `idx` (covering `[idx*w, (idx+1)*w)`).
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    pub fn bucket_count(&self, idx: usize) -> u64 {
        self.buckets[idx]
    }

    /// Number of buckets (excluding overflow).
    pub fn num_buckets(&self) -> usize {
        self.buckets.len()
    }

    /// Samples beyond the last bucket.
    pub fn overflow(&self) -> u64 {
        self.overflow
    }

    /// The smallest value `v` such that at least `q` (0..=1) of samples are
    /// `< v + bucket_width`, i.e. an upper-bound quantile estimate at bucket
    /// resolution. Returns `None` if empty.
    pub fn quantile_upper_bound(&self, q: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let target = (q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64;
        let mut seen = 0;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= target {
                return Some((i as u64 + 1) * self.bucket_width);
            }
        }
        Some(u64::MAX)
    }

    /// Merges another histogram with identical geometry.
    ///
    /// # Panics
    ///
    /// Panics if the two histograms have different bucket width or count.
    pub fn merge(&mut self, other: &Histogram) {
        assert_eq!(
            self.bucket_width, other.bucket_width,
            "bucket width mismatch"
        );
        assert_eq!(
            self.buckets.len(),
            other.buckets.len(),
            "bucket count mismatch"
        );
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.overflow += other.overflow;
        self.count += other.count;
    }
}

/// A histogram with power-of-two bucket boundaries, used by the fetch-trace
/// latency breakdown where stage durations span five orders of magnitude.
///
/// Bucket `i` covers values `v` with `floor(log2(v)) == i` (value 0 lands in
/// bucket 0 alongside 1). The bucket vector grows on demand, so an empty or
/// low-latency histogram stays tiny; [`merge`](Log2Histogram::merge) is an
/// element-wise sum and therefore commutative and associative — merging
/// per-core histograms in any order yields the same result.
///
/// # Example
///
/// ```
/// use gpumem_types::Log2Histogram;
///
/// let mut h = Log2Histogram::new();
/// h.record(1);
/// h.record(300); // floor(log2(300)) == 8
/// assert_eq!(h.count(), 2);
/// assert_eq!(h.bucket_count(0), 1);
/// assert_eq!(h.bucket_count(8), 1);
/// assert_eq!(h.min(), Some(1));
/// assert_eq!(h.max(), Some(300));
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Log2Histogram {
    buckets: Vec<u64>,
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Log2Histogram {
    /// Creates an empty histogram. Allocation-free until the first sample.
    pub fn new() -> Self {
        Self::default()
    }

    /// Bucket index for `value`: `floor(log2(value))`, with 0 mapped to
    /// bucket 0.
    #[inline]
    pub(crate) fn bucket_of(value: u64) -> usize {
        if value == 0 {
            0
        } else {
            63 - value.leading_zeros() as usize
        }
    }

    /// Records one sample. Count and sum saturate instead of wrapping.
    pub fn record(&mut self, value: u64) {
        let idx = Self::bucket_of(value);
        if idx >= self.buckets.len() {
            self.buckets.resize(idx + 1, 0);
        }
        self.buckets[idx] = self.buckets[idx].saturating_add(1);
        if self.count == 0 {
            self.min = value;
            self.max = value;
        } else {
            self.min = self.min.min(value);
            self.max = self.max.max(value);
        }
        self.count = self.count.saturating_add(1);
        self.sum = self.sum.saturating_add(value);
    }

    /// Total samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all samples.
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Mean sample value, or 0.0 if empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Smallest sample, if any.
    pub fn min(&self) -> Option<u64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest sample, if any.
    pub fn max(&self) -> Option<u64> {
        (self.count > 0).then_some(self.max)
    }

    /// Samples in bucket `idx`; zero for buckets past the populated range.
    pub fn bucket_count(&self, idx: usize) -> u64 {
        self.buckets.get(idx).copied().unwrap_or(0)
    }

    /// Number of populated buckets (highest occupied index + 1).
    pub fn num_buckets(&self) -> usize {
        self.buckets.len()
    }

    /// Merges another histogram into this one (element-wise sum; the two
    /// need not have the same populated range).
    pub fn merge(&mut self, other: &Log2Histogram) {
        if other.count == 0 {
            return;
        }
        if other.buckets.len() > self.buckets.len() {
            self.buckets.resize(other.buckets.len(), 0);
        }
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a = a.saturating_add(*b);
        }
        if self.count == 0 {
            self.min = other.min;
            self.max = other.max;
        } else {
            self.min = self.min.min(other.min);
            self.max = self.max.max(other.max);
        }
        self.count = self.count.saturating_add(other.count);
        self.sum = self.sum.saturating_add(other.sum);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries() {
        let mut h = Histogram::new(10, 3);
        h.record(0);
        h.record(9);
        h.record(10);
        h.record(29);
        h.record(30);
        assert_eq!(h.bucket_count(0), 2);
        assert_eq!(h.bucket_count(1), 1);
        assert_eq!(h.bucket_count(2), 1);
        assert_eq!(h.overflow(), 1);
        assert_eq!(h.count(), 5);
    }

    #[test]
    fn quantiles() {
        let mut h = Histogram::new(10, 10);
        for v in [5, 15, 25, 35] {
            h.record(v);
        }
        assert_eq!(h.quantile_upper_bound(0.5), Some(20));
        assert_eq!(h.quantile_upper_bound(1.0), Some(40));
        assert_eq!(Histogram::new(10, 1).quantile_upper_bound(0.5), None);
    }

    #[test]
    fn merge_combines() {
        let mut a = Histogram::new(10, 2);
        a.record(5);
        let mut b = Histogram::new(10, 2);
        b.record(15);
        b.record(100);
        a.merge(&b);
        assert_eq!(a.count(), 3);
        assert_eq!(a.bucket_count(1), 1);
        assert_eq!(a.overflow(), 1);
    }

    #[test]
    #[should_panic(expected = "bucket width mismatch")]
    fn merge_rejects_mismatch() {
        let mut a = Histogram::new(10, 2);
        let b = Histogram::new(20, 2);
        a.merge(&b);
    }

    #[test]
    fn log2_bucket_mapping() {
        assert_eq!(Log2Histogram::bucket_of(0), 0);
        assert_eq!(Log2Histogram::bucket_of(1), 0);
        assert_eq!(Log2Histogram::bucket_of(2), 1);
        assert_eq!(Log2Histogram::bucket_of(3), 1);
        assert_eq!(Log2Histogram::bucket_of(4), 2);
        assert_eq!(Log2Histogram::bucket_of(1023), 9);
        assert_eq!(Log2Histogram::bucket_of(1024), 10);
        assert_eq!(Log2Histogram::bucket_of(u64::MAX), 63);
    }

    #[test]
    fn log2_record_and_stats() {
        let mut h = Log2Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.min(), None);
        h.record(0);
        h.record(7);
        h.record(900);
        assert_eq!(h.count(), 3);
        assert_eq!(h.sum(), 907);
        assert_eq!(h.min(), Some(0));
        assert_eq!(h.max(), Some(900));
        assert_eq!(h.bucket_count(0), 1);
        assert_eq!(h.bucket_count(2), 1);
        assert_eq!(h.bucket_count(9), 1);
        assert_eq!(h.bucket_count(40), 0, "unpopulated bucket reads zero");
    }

    #[test]
    fn log2_merge_is_commutative() {
        let mut a = Log2Histogram::new();
        a.record(3);
        a.record(5_000);
        let mut b = Log2Histogram::new();
        b.record(1);
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, ba);
        assert_eq!(ab.count(), 3);
        assert_eq!(ab.min(), Some(1));
        assert_eq!(ab.max(), Some(5_000));
        // Merging an empty histogram is the identity.
        let mut id = a.clone();
        id.merge(&Log2Histogram::new());
        assert_eq!(id, a);
    }
}
