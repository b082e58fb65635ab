//! Frozen golden vectors for every hash in the crate.
//!
//! These outputs were captured from this implementation and cross-checked
//! against an independent reference implementation of each algorithm. They
//! are frozen so that any future refactor that silently changes hash output
//! — which would invisibly change every sample, test, and experiment in the
//! workspace — fails loudly here instead.

use dds_hash::family::HashFamily;
use dds_hash::fnv::fnv1a_64;
use dds_hash::murmur2::{murmur64a, murmur64a_u64};
use dds_hash::splitmix::splitmix64;
use dds_hash::UnitHash;

#[test]
fn murmur64a_frozen() {
    assert_eq!(murmur64a(b"", 1), 0xc6a4_a793_5bd0_64dc);
    assert_eq!(murmur64a(b"a", 0), 0x0717_17d2_d36b_6b11);
    assert_eq!(murmur64a(b"abc", 0), 0x9cc9_c334_98a9_5efb);
    assert_eq!(murmur64a(b"hello world", 42), 0x58ec_5901_27de_6711);
    assert_eq!(
        murmur64a(b"The quick brown fox jumps over the lazy dog", 7),
        0xbbce_fcd1_cba3_ae7f
    );
}

#[test]
fn murmur64a_u64_frozen() {
    assert_eq!(murmur64a_u64(0, 3), 0x29de_944e_0037_abd2);
    assert_eq!(murmur64a_u64(1, 3), 0x1be1_cf92_bd40_fd85);
    assert_eq!(murmur64a_u64(42, 3), 0xb20e_4427_2b89_51ea);
    assert_eq!(murmur64a_u64(0xdead_beef, 3), 0x15ba_9e1d_7e1c_60ba);
    assert_eq!(murmur64a_u64(u64::MAX, 3), 0xb498_a4c2_c834_4cc6);
}

#[test]
fn fnv_frozen() {
    assert_eq!(fnv1a_64(b"foobar"), 0x8594_4171_f739_67e8);
}

#[test]
fn splitmix_frozen() {
    // First output for seed 1234567 (reference Java sequence).
    assert_eq!(splitmix64(1_234_567), 6_457_827_717_110_365_317);
}

#[test]
fn family_member_seeds_frozen() {
    // The experiment suite's default family: if these drift, every recorded
    // experiment output changes meaning. The golden report pins more
    // `(master, j)` pairs, each with one hash value.
    let family = HashFamily::default();
    assert_eq!(family.member(0).seed(), 0xecc5_a784_8c09_b28d);
    assert_eq!(family.member(1).seed(), 0xbdf2_5461_1785_a503);
    assert_eq!(family.member(0).unit(42).0, 0x5848_b253_e14b_9b01);
}

/// The committed golden file must equal the canonical report in
/// [`dds_hash::golden::golden_vector_report`] (which is exactly what
/// `examples/gen_golden.rs` prints). Regenerate with
/// `cargo run -p dds-hash --example gen_golden > crates/hash/tests/golden_vectors.txt`
/// after any *intentional* hash change — and expect every sample, test,
/// and experiment in the workspace to change meaning when you do.
#[test]
fn golden_file_matches_regenerated_vectors() {
    let committed = include_str!("golden_vectors.txt");
    assert_eq!(
        committed,
        dds_hash::golden::golden_vector_report(),
        "golden_vectors.txt is stale; see this test's doc comment"
    );
}
