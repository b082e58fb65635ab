//! The canonical golden-vector report.
//!
//! One function renders every frozen vector; `examples/gen_golden.rs`
//! prints it and `tests/golden_vectors.rs` asserts the committed
//! `golden_vectors.txt` equals it, so the regeneration tool and the
//! freshness check can never drift apart.

use std::fmt::Write as _;

use crate::murmur2::{murmur64a, murmur64a_u64};
use crate::{HashFamily, UnitHash};

/// Render the golden-vector report: every input/seed pair the workspace
/// freezes, one `name label = value` line each.
#[must_use]
pub fn golden_vector_report() -> String {
    let mut out = String::new();
    for (label, data, seed) in [
        ("empty/1", b"".as_slice(), 1u64),
        ("a/0", b"a".as_slice(), 0),
        ("abc/0", b"abc".as_slice(), 0),
        ("hello/42", b"hello world".as_slice(), 42),
        (
            "fox/7",
            b"The quick brown fox jumps over the lazy dog".as_slice(),
            7,
        ),
    ] {
        let _ = writeln!(out, "m64a {label} = 0x{:016x}", murmur64a(data, seed));
    }
    for x in [0u64, 1, 42, 0xdead_beef, u64::MAX] {
        let _ = writeln!(out, "m64a_u64 {x} seed3 = 0x{:016x}", murmur64a_u64(x, 3));
    }
    // Family derivation: member seeds and one hash each. `7` is the
    // family of `SamplerSpec::new(SamplerKind::Infinite, 8, 7)`; member 7
    // is the last copy a with-replacement spec of that `s` and seed runs.
    for (label, family, j) in [
        ("default", HashFamily::default(), 0usize),
        ("default", HashFamily::default(), 1),
        ("7", HashFamily::new(7), 0),
        ("7", HashFamily::new(7), 7),
        ("0", HashFamily::new(0), 0),
        ("max", HashFamily::new(u64::MAX), 1_000),
    ] {
        let h = family.member(j);
        let _ = writeln!(
            out,
            "family {label}/{j} seed = 0x{:016x} unit 42 = 0x{:016x}",
            h.seed(),
            h.unit(42).0
        );
    }
    out
}
