//! FNV-1a 64 — the Fowler–Noll–Vo byte hash.
//!
//! The workspace digests a cluster spec with it (`ClusterSpec::digest`
//! in `dds-proto`), and the wire-pin tests fingerprint encodings with
//! it. It is byte-serial, so nothing on a hot path uses it: frames and
//! checkpoints are sealed with MurmurHash64A instead.

/// FNV-1a 64-bit offset basis.
pub const FNV1A_64_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a 64-bit prime.
pub const FNV1A_64_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a over a byte slice, 64-bit.
#[must_use]
pub fn fnv1a_64(data: &[u8]) -> u64 {
    fnv1a_64_update(FNV1A_64_OFFSET, data)
}

/// Incremental FNV-1a 64-bit: fold `data` into a running `state`.
///
/// Starting from [`FNV1A_64_OFFSET`] and folding consecutive slices
/// produces exactly [`fnv1a_64`] of their concatenation — which lets
/// callers checksum logically-concatenated regions without allocating a
/// contiguous copy.
#[must_use]
pub fn fnv1a_64_update(mut state: u64, data: &[u8]) -> u64 {
    for &b in data {
        state ^= u64::from(b);
        state = state.wrapping_mul(FNV1A_64_PRIME);
    }
    state
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn incremental_update_matches_one_shot() {
        let data = b"distinct stream sampling";
        for split in 0..=data.len() {
            let (a, b) = data.split_at(split);
            let state = fnv1a_64_update(FNV1A_64_OFFSET, a);
            assert_eq!(fnv1a_64_update(state, b), fnv1a_64(data), "split {split}");
        }
        assert_eq!(fnv1a_64_update(FNV1A_64_OFFSET, b""), fnv1a_64(b""));
    }

    #[test]
    fn fnv1a_published_vectors() {
        // Canonical vectors from the FNV reference page.
        assert_eq!(fnv1a_64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a_64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a_64(b"foobar"), 0x8594_4171_f739_67e8);
    }
}
