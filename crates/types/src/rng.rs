//! Deterministic pseudo-random number generation.
//!
//! The simulator must be exactly reproducible from a seed (a property-tested
//! invariant), so workload generators use this small self-contained
//! xoshiro256** implementation rather than a thread-seeded source.

/// A deterministic xoshiro256** PRNG seeded via SplitMix64.
///
/// # Example
///
/// ```
/// use gpumem_types::SimRng;
///
/// let mut a = SimRng::new(42);
/// let mut b = SimRng::new(42);
/// assert_eq!(a.next_u64(), b.next_u64());
/// let x = a.gen_range(10);
/// assert!(x < 10);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimRng {
    state: [u64; 4],
}

impl SimRng {
    /// Creates a generator from a seed. Any seed (including 0) is valid.
    pub fn new(seed: u64) -> Self {
        // SplitMix64 to expand the seed into a full non-zero state.
        let mut sm = seed;
        let mut next = || {
            sm = sm.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = sm;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        SimRng {
            state: [next(), next(), next(), next()],
        }
    }

    /// Derives an independent stream for a sub-component (e.g. one warp),
    /// keyed by `stream`. Deterministic in (self-seed, stream).
    pub fn fork(&self, stream: u64) -> SimRng {
        SimRng::new(
            self.state[0]
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add(stream.wrapping_mul(0xD1B5_4A32_D192_ED03)),
        )
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.state;
        let result = s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// Uniform value in `[0, bound)`. Returns 0 when `bound` is 0.
    pub fn gen_range(&mut self, bound: u64) -> u64 {
        if bound == 0 {
            return 0;
        }
        // Lemire's multiply-shift rejection-free approximation is fine here;
        // bias is negligible for simulation bounds (< 2^40).
        let x = self.next_u64();
        ((x as u128 * bound as u128) >> 64) as u64
    }

    /// Uniform float in `[0, 1)`.
    pub(crate) fn gen_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Bernoulli draw with probability `p` (clamped to `[0, 1]`).
    pub fn gen_bool(&mut self, p: f64) -> bool {
        self.gen_f64() < p.clamp(0.0, 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_from_seed() {
        let mut a = SimRng::new(123);
        let mut b = SimRng::new(123);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = SimRng::new(1);
        let mut b = SimRng::new(2);
        let same = (0..16).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 2);
    }

    #[test]
    fn fork_streams_are_independent_and_deterministic() {
        let root = SimRng::new(9);
        let mut f1 = root.fork(0);
        let mut f2 = root.fork(1);
        let mut f1b = root.fork(0);
        assert_eq!(f1.next_u64(), f1b.next_u64());
        assert_ne!(f1.next_u64(), f2.next_u64());
    }

    #[test]
    fn ranges_respect_bounds() {
        let mut r = SimRng::new(7);
        for _ in 0..1000 {
            assert!(r.gen_range(10) < 10);
            let f = r.gen_f64();
            assert!((0.0..1.0).contains(&f));
        }
        assert_eq!(r.gen_range(0), 0);
    }

    #[test]
    fn bool_probabilities_extreme() {
        let mut r = SimRng::new(5);
        assert!(!r.gen_bool(0.0));
        assert!(r.gen_bool(1.0));
    }

    #[test]
    fn range_is_roughly_uniform() {
        let mut r = SimRng::new(11);
        let mut counts = [0u32; 4];
        for _ in 0..4000 {
            counts[r.gen_range(4) as usize] += 1;
        }
        for c in counts {
            assert!((800..1200).contains(&c), "count {c} out of tolerance");
        }
    }
}
