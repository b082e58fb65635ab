//! Mapping hashes to the unit interval — the `h : U → [0,1)` of the paper.
//!
//! All sampling logic in `dds-core` compares hash values; none of it does
//! arithmetic on them. We therefore represent a "unit interval value" as a
//! raw `u64` ([`UnitValue`]) whose *order* is the order of the real numbers
//! `v / 2⁶⁴`, and convert to `f64` only for reporting. This keeps the full
//! 64 bits of discrimination (an `f64` mantissa would truncate to 53 bits
//! and create avoidable ties on billion-element streams).

/// A point in `[0, 1)` with 64-bit resolution: the value is `raw / 2⁶⁴`.
///
/// `Ord` on `UnitValue` is exactly the order of the corresponding reals, so
/// "the `s` smallest hash values" is well-defined with no floating-point
/// subtleties. `UnitValue::ONE` is the supremum used to initialise site
/// thresholds (`uᵢ ← 1` in Algorithm 1); it is encoded as `u64::MAX` which
/// compares greater than every achievable hash output for our purposes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct UnitValue(pub u64);

impl UnitValue {
    /// The supremum of the interval, playing the role of the initial
    /// threshold `u = 1` in the paper's pseudocode.
    pub const ONE: UnitValue = UnitValue(u64::MAX);
    /// The infimum, `0`.
    pub const ZERO: UnitValue = UnitValue(0);

    /// The value as an `f64` in `[0, 1)` (53-bit precision; reporting only).
    ///
    /// Uses the top 53 bits so the result is always strictly below 1.0
    /// (a naive `raw / 2⁶⁴` would round `u64::MAX` up to exactly 1.0).
    #[must_use]
    pub fn as_f64(self) -> f64 {
        (self.0 >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

impl std::fmt::Display for UnitValue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:.6}", self.as_f64())
    }
}

/// Convert a raw 64-bit hash to an `f64` in `[0, 1)`.
#[must_use]
#[inline]
pub fn unit_f64(hash: u64) -> f64 {
    UnitValue(hash).as_f64()
}

/// A hash function from `u64` element identifiers to the unit interval.
///
/// Implementations must be pure: the same element always maps to the same
/// [`UnitValue`] for the lifetime of the hasher. The distributed protocols
/// additionally require every site and the coordinator to hold *identical*
/// hashers ("Receive hash function h from the coordinator" — Algorithm 1,
/// line 1), which is what [`crate::family::HashFamily`] provides.
pub trait UnitHash {
    /// Hash an element to the unit interval.
    fn unit(&self, element: u64) -> UnitValue;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unit_value_order_matches_f64_order() {
        let vals = [
            0u64,
            1,
            1 << 20,
            1 << 40,
            u64::MAX / 2,
            u64::MAX - 1,
            u64::MAX,
        ];
        for &a in &vals {
            for &b in &vals {
                let (ua, ub) = (UnitValue(a), UnitValue(b));
                // f64 conversion is lossy, so only the strict orders must
                // agree; equal f64s say nothing about the raw order.
                if ua.as_f64() < ub.as_f64() {
                    assert!(ua < ub, "order mismatch for {a} vs {b}");
                } else if ua.as_f64() > ub.as_f64() {
                    assert!(ua > ub, "order mismatch for {a} vs {b}");
                }
            }
        }
    }

    #[test]
    fn as_f64_in_unit_interval() {
        assert_eq!(UnitValue::ZERO.as_f64(), 0.0);
        assert!(UnitValue::ONE.as_f64() < 1.0);
        assert!(UnitValue::ONE.as_f64() > 0.999_999);
    }

    #[test]
    fn display_formats_as_decimal() {
        let s = format!("{}", UnitValue(u64::MAX / 2));
        assert!(s.starts_with("0.5"), "got {s}");
    }
}
