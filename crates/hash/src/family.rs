//! Seeded hash families — "s parallel copies, each with a different hash
//! function" (paper, §3, Sampling With Replacement).
//!
//! A [`HashFamily`] deterministically derives any number of mutually
//! independent [`SeededHash`]s from one master seed. Site `i` and the
//! coordinator construct the family from the same master seed and therefore
//! agree on every `h_j`, realising Algorithm 1's "Receive hash function h
//! from the coordinator" initialisation without shipping code.

use crate::murmur2::murmur64a_u64;
use crate::splitmix::splitmix64;
use crate::unit::{UnitHash, UnitValue};

/// A single hash function `h : u64 → [0,1)` drawn from a [`HashFamily`]:
/// MurmurHash64A of the element's little-endian bytes under this
/// member's seed.
///
/// Copyable and cheap: hashing is a handful of multiply/xor/shifts with no
/// allocation, satisfying the paper's `O(1)` processing-time-per-element
/// bound (Theorem 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SeededHash {
    seed: u64,
}

impl SeededHash {
    /// The member that hashes under `seed`.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        Self { seed }
    }

    /// The seed (for diagnostics / serialization of experiment configs).
    #[must_use]
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Raw 64-bit hash of an element.
    #[must_use]
    #[inline]
    pub fn hash_u64(&self, element: u64) -> u64 {
        murmur64a_u64(element, self.seed)
    }

    /// Hash a whole batch of elements in one pass into `out` (cleared
    /// first). Byte-identical to per-element [`SeededHash::hash_u64`]
    /// calls. No sampler calls it: each hashes inline, one element at a
    /// time; the repository benchmark's isolated hash row times it.
    pub fn hash_u64_batch_into(&self, elements: impl IntoIterator<Item = u64>, out: &mut Vec<u64>) {
        let seed = self.seed;
        out.clear();
        out.extend(elements.into_iter().map(|x| murmur64a_u64(x, seed)));
    }
}

impl UnitHash for SeededHash {
    #[inline]
    fn unit(&self, element: u64) -> UnitValue {
        UnitValue(self.hash_u64(element))
    }
}

/// A family of mutually independent unit hashes derived from a master seed.
///
/// Derivation is `seed_j = splitmix64(master ⊕ splitmix64(j))`, giving
/// well-separated seeds for every index without storing state; index `j`
/// can be arbitrarily large.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HashFamily {
    master: u64,
}

impl HashFamily {
    /// The family derived from `master`.
    #[must_use]
    pub fn new(master: u64) -> Self {
        Self { master }
    }

    /// The `j`-th member hash of the family.
    #[must_use]
    pub fn member(&self, j: usize) -> SeededHash {
        // Two rounds of mixing decorrelate adjacent indices thoroughly.
        SeededHash::new(splitmix64(self.master ^ splitmix64(j as u64)))
    }

    /// The first member — the single hash used by without-replacement
    /// bottom-`s` sampling.
    #[must_use]
    pub fn primary(&self) -> SeededHash {
        self.member(0)
    }

    /// Iterator over the first `n` members.
    pub fn members(&self, n: usize) -> impl Iterator<Item = SeededHash> + '_ {
        (0..n).map(move |j| self.member(j))
    }
}

impl Default for HashFamily {
    /// The family of a fixed, documented seed — deterministic runs out
    /// of the box, matching the reproducibility needs of the benches.
    fn default() -> Self {
        Self::new(0x5eed_0fd1_5a11_c7e5)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::unit::UnitHash;

    #[test]
    fn members_are_deterministic() {
        let f = HashFamily::new(42);
        for j in 0..32 {
            assert_eq!(f.member(j), f.member(j));
        }
    }

    #[test]
    fn members_have_distinct_seeds() {
        let f = HashFamily::new(42);
        let seeds: std::collections::HashSet<u64> = f.members(1000).map(|h| h.seed()).collect();
        assert_eq!(seeds.len(), 1000);
    }

    #[test]
    fn different_masters_give_different_families() {
        let a = HashFamily::new(1).member(0);
        let b = HashFamily::new(2).member(0);
        assert_ne!(a.seed(), b.seed());
        assert_ne!(a.unit(7), b.unit(7));
    }

    #[test]
    fn members_decorrelated_on_same_input() {
        // The same element hashed by 100 members should give ~uniform
        // values: check the mean is near 1/2 and min/max spread out.
        let f = HashFamily::new(7);
        let vals: Vec<f64> = f.members(100).map(|h| h.unit(123456).as_f64()).collect();
        let mean = vals.iter().sum::<f64>() / vals.len() as f64;
        assert!((0.4..=0.6).contains(&mean), "mean {mean}");
        assert!(vals.iter().cloned().fold(f64::MAX, f64::min) < 0.1);
        assert!(vals.iter().cloned().fold(f64::MIN, f64::max) > 0.9);
    }

    #[test]
    fn batch_hashing_matches_per_element() {
        let elements: Vec<u64> = (0..257u64)
            .map(|i| i.wrapping_mul(0x9e37_79b9) ^ 11)
            .collect();
        let h = HashFamily::new(7).member(3);
        let mut out = vec![0xdead]; // must be cleared, not appended to
        h.hash_u64_batch_into(elements.iter().copied(), &mut out);
        assert_eq!(out.len(), elements.len());
        for (&x, &v) in elements.iter().zip(&out) {
            assert_eq!(v, h.hash_u64(x));
        }
    }

    /// Every tenant's sampler holds one or more members inline, so a
    /// field added here would add bytes to every hosted tenant.
    #[test]
    fn seeded_hash_is_its_seed() {
        assert_eq!(std::mem::size_of::<SeededHash>(), 8);
    }

    #[test]
    fn primary_is_member_zero() {
        let f = HashFamily::default();
        assert_eq!(f.primary(), f.member(0));
    }
}
