//! SplitMix64 — seed expansion and cheap integer mixing.
//!
//! SplitMix64 (Steele, Lea & Flood, OOPSLA 2014) serves two roles here:
//!
//! 1. [`splitmix64`] is a strong, branch-free bijective mixer used to derive
//!    the per-copy seeds of a [`crate::family::HashFamily`] from a single
//!    master seed — guaranteeing distinct, well-separated seeds without any
//!    RNG dependency — and, keyed ([`splitmix64_keyed`]), to route tenants
//!    to engine shards.
//! 2. [`SplitMix64`] is a tiny deterministic PRNG for tests and data
//!    generators, keeping the workspace free of external RNG dependencies.

/// One application of the SplitMix64 output mixer to `x + GOLDEN_GAMMA`.
///
/// Bijective on `u64`; successive calls on an incrementing counter produce
/// a sequence indistinguishable from uniform for our purposes.
#[must_use]
#[inline]
pub fn splitmix64(state: u64) -> u64 {
    let mut z = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Mix `x` with a seed: a keyed variant of [`splitmix64`] for quick keyed
/// integer hashing (not adversarially robust: a client that learns the
/// key can pick inputs that collide).
#[must_use]
#[inline]
pub fn splitmix64_keyed(x: u64, seed: u64) -> u64 {
    splitmix64(x ^ splitmix64(seed))
}

/// A minimal deterministic PRNG built on SplitMix64.
///
/// Satisfies the needs of tests and synthetic-data generation seeding
/// without pulling `rand` into foundational crates.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Create a generator from a seed. Different seeds give independent
    /// streams for all practical purposes.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        Self { state: seed }
    }

    /// Next 64 uniformly distributed bits.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Next `f64` uniform in `[0, 1)` (53-bit precision).
    #[inline]
    pub fn next_f64(&mut self) -> f64 {
        // Take the top 53 bits: the mantissa width of f64.
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform integer in `[0, bound)` via Lemire's multiply-shift rejection.
    ///
    /// # Panics
    /// Panics if `bound == 0`.
    #[inline]
    pub fn next_below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "bound must be positive");
        // Unbiased: reject the short range of the multiply-high mapping.
        let threshold = bound.wrapping_neg() % bound;
        loop {
            let x = self.next_u64();
            let m = u128::from(x) * u128::from(bound);
            let lo = m as u64;
            if lo >= threshold {
                return (m >> 64) as u64;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix64_reference_sequence() {
        // Golden vectors from the reference Java implementation seeded with
        // 1234567: the first three outputs of SplitMix64.
        let mut rng = SplitMix64::new(1234567);
        let v: Vec<u64> = (0..3).map(|_| rng.next_u64()).collect();
        assert_eq!(v[0], 6_457_827_717_110_365_317);
        assert_eq!(v[1], 3_203_168_211_198_807_973);
        assert_eq!(v[2], 9_817_491_932_198_370_423);
    }

    #[test]
    fn keyed_variant_differs_by_seed() {
        assert_ne!(splitmix64_keyed(42, 1), splitmix64_keyed(42, 2));
        assert_eq!(splitmix64_keyed(42, 1), splitmix64_keyed(42, 1));
    }

    #[test]
    fn next_f64_in_unit_interval() {
        let mut rng = SplitMix64::new(8);
        for _ in 0..10_000 {
            let x = rng.next_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn next_below_is_in_range_and_roughly_uniform() {
        let mut rng = SplitMix64::new(99);
        let bound = 10;
        let mut counts = [0u32; 10];
        let n = 100_000;
        for _ in 0..n {
            let x = rng.next_below(bound);
            counts[x as usize] += 1;
        }
        let expected = n as f64 / bound as f64;
        for (i, &c) in counts.iter().enumerate() {
            let rel = (f64::from(c) - expected).abs() / expected;
            assert!(rel < 0.05, "bucket {i} off by {rel}");
        }
    }

    #[test]
    #[should_panic(expected = "bound must be positive")]
    fn next_below_zero_panics() {
        SplitMix64::new(1).next_below(0);
    }

    #[test]
    fn mixer_bijective_on_counter_samples() {
        let mut seen = std::collections::HashSet::new();
        for i in 0u64..50_000 {
            assert!(seen.insert(splitmix64(i)));
        }
    }
}
