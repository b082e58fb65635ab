//! Property-based tests for the hashing substrate: the "mutually
//! independent uniform random variables" idealisation the sampling
//! analysis rests on, probed mechanically.

use dds_hash::family::HashFamily;
use dds_hash::murmur2::{murmur64a, murmur64a_u64};
use dds_hash::unit::UnitHash;
use proptest::prelude::*;

proptest! {
    /// The one-word MurmurHash64A every sampler runs per element is the
    /// byte-slice hash of the element's eight little-endian bytes.
    #[test]
    fn murmur64a_u64_is_the_byte_hash(x in any::<u64>(), seed in any::<u64>()) {
        prop_assert_eq!(murmur64a_u64(x, seed), murmur64a(&x.to_le_bytes(), seed));
    }

    /// Distinct inputs (almost) never collide under 64-bit hashes; for a
    /// random pair the probability is 2⁻⁶⁴, so any observed collision is
    /// a bug, not bad luck.
    #[test]
    fn no_casual_collisions(a in any::<u64>(), b in any::<u64>(), seed in any::<u64>()) {
        prop_assume!(a != b);
        let h = dds_hash::SeededHash::new(seed);
        prop_assert_ne!(h.hash_u64(a), h.hash_u64(b));
    }

    /// Seed sensitivity: different family members disagree on any input.
    #[test]
    fn family_members_disagree(x in any::<u64>(), master in any::<u64>(), j in 0usize..64, l in 0usize..64) {
        prop_assume!(j != l);
        let family = HashFamily::new(master);
        prop_assert_ne!(family.member(j).unit(x), family.member(l).unit(x));
    }

    /// Unit-interval mapping preserves the raw order and stays in [0,1).
    #[test]
    fn unit_values_ordered_and_bounded(x in any::<u64>(), y in any::<u64>()) {
        let h = HashFamily::default().primary();
        let (ux, uy) = (h.unit(x), h.unit(y));
        prop_assert!(ux.as_f64() >= 0.0 && ux.as_f64() < 1.0);
        if ux < uy {
            prop_assert!(ux.as_f64() <= uy.as_f64());
        }
    }

    /// Bottom-s semantics sanity at the hash level: among any set of
    /// distinct inputs, the minimum-hash element is invariant under
    /// input order (it is a pure function of the set).
    #[test]
    fn min_hash_is_order_invariant(mut xs in prop::collection::vec(any::<u64>(), 2..40)) {
        let h = HashFamily::default().primary();
        let min1 = xs.iter().copied().min_by_key(|&x| h.unit(x)).unwrap();
        xs.reverse();
        let min2 = xs.iter().copied().min_by_key(|&x| h.unit(x)).unwrap();
        prop_assert_eq!(min1, min2);
    }
}

/// Uniformity of each family member over a fixed input set: mean of the
/// unit values near 1/2, occupancy of each quartile near 25%.
#[test]
fn member_uniformity_over_inputs() {
    let family = HashFamily::default();
    for j in 0..8 {
        let h = family.member(j);
        let n = 20_000u64;
        let mut quartiles = [0u32; 4];
        let mut sum = 0.0;
        for x in 0..n {
            let v = h.unit(x * 2_654_435_761 + 11).as_f64();
            sum += v;
            quartiles[((v * 4.0) as usize).min(3)] += 1;
        }
        let mean = sum / n as f64;
        assert!((0.49..=0.51).contains(&mean), "member {j} mean {mean}");
        for (q, &c) in quartiles.iter().enumerate() {
            let share = f64::from(c) / n as f64;
            assert!(
                (0.23..=0.27).contains(&share),
                "member {j} quartile {q} share {share}"
            );
        }
    }
}
