//! Order statistics for benchmark samples.
//!
//! Quartiles use the same rule as Python's `statistics.quantiles(v, n=4)`
//! (the "exclusive" method), because that is what the acceptance driver
//! computes over repeated runs; matching it keeps `e2e --check` and the
//! driver in agreement on what "spread" means.

/// Median, quartiles and sample count of one metric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// The median (second quartile).
    pub median: f64,
    /// First quartile.
    pub q1: f64,
    /// Third quartile.
    pub q3: f64,
    /// Number of samples.
    pub n: usize,
}

impl Summary {
    /// A single measurement: every quartile is the value itself.
    pub fn single(value: f64) -> Summary {
        Summary {
            median: value,
            q1: value,
            q3: value,
            n: 1,
        }
    }

    /// Inter-quartile distance as a share of the median (0 for a zero
    /// median, which only a degenerate sample set produces).
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The three quartile cut points of `values` by the exclusive method.
/// One sample yields itself three times; an empty slice yields zeros.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let v = sorted(values);
    let n = v.len();
    match n {
        0 => return [0.0; 3],
        1 => return [v[0]; 3],
        _ => {}
    }
    let m = n + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..=3usize) {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    out
}

/// Median of `values` (mean of the middle two for an even count).
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Median, quartiles and count of `values`.
pub fn summarize(values: &[f64]) -> Summary {
    let [q1, _, q3] = quartiles(values);
    Summary {
        median: median(values),
        q1,
        q3,
        n: values.len(),
    }
}

/// Nearest-rank percentile `p` (in 0..=1) of `values`, and how many
/// samples lie strictly beyond the chosen rank. A percentile is only
/// reportable as a tail figure when at least [`MIN_TAIL_SAMPLES`] lie
/// beyond it; callers record the count so a short run is visible as such.
pub fn percentile(values: &[f64], p: f64) -> (f64, usize) {
    let v = sorted(values);
    if v.is_empty() {
        return (0.0, 0);
    }
    let rank = ((p * v.len() as f64).ceil() as usize).clamp(1, v.len());
    (v[rank - 1], v.len() - rank)
}

/// Samples that must lie beyond a percentile for it to count as measured.
pub const MIN_TAIL_SAMPLES: usize = 10;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_unsorted() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(quartiles(&[16.0, 1.0, 8.0, 2.0, 4.0]), [1.5, 4.0, 12.0]);
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        assert_eq!(quartiles(&[10.0, 20.0]), [7.5, 15.0, 22.5]);
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[1.0, 2.0, 3.0]), [1.0, 2.0, 3.0]);
        assert_eq!(quartiles(&[5.0]), [5.0; 3]);
    }

    #[test]
    fn summary_spread_is_iqr_over_median() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = summarize(&v);
        assert_eq!((s.median, s.q1, s.q3, s.n), (5.5, 2.75, 8.25, 10));
        assert_eq!(s.spread(), 1.0);
        assert_eq!(Summary::single(3.0).spread(), 0.0);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), (50.0, 50));
        assert_eq!(percentile(&v, 0.8), (80.0, 20));
        assert_eq!(percentile(&v, 1.0), (100.0, 0));
        assert_eq!(percentile(&[9.0], 0.8), (9.0, 0));
    }

    #[test]
    fn p80_needs_fifty_samples_for_ten_beyond() {
        let beyond = |n: usize| {
            let v: Vec<f64> = (0..n).map(|i| i as f64).collect();
            percentile(&v, 0.8).1
        };
        assert!(beyond(49) < MIN_TAIL_SAMPLES);
        assert_eq!(beyond(50), MIN_TAIL_SAMPLES);
        assert!(beyond(55) >= MIN_TAIL_SAMPLES);
    }
}
