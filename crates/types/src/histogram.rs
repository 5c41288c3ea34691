//! A power-of-two-bucket histogram used for latency distributions.

use serde::{Deserialize, Serialize};

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
        let mut buckets = vec![0; 10];
        (buckets[0], buckets[2], buckets[9]) = (1, 1, 1);
        assert_eq!(h.buckets, buckets, "the vector stops at the top bucket");
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
