//! Core model types: elements, site identifiers, and time slots.

/// A stream element.
///
/// The paper's universe `U` is abstract; concretely we use a 64-bit
/// identifier (the workload generators in `dds-data` map structured records
/// — e.g. src/dst IP pairs or sender/recipient e-mail pairs — into this
/// space by hashing). Equality of `Element`s is *distinctness* in the
/// paper's sense.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Element(pub u64);

impl std::fmt::Display for Element {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "e{}", self.0)
    }
}

impl From<u64> for Element {
    fn from(v: u64) -> Self {
        Element(v)
    }
}

/// Identifier of one of the `k` sites, `0 ..= k-1`.
///
/// (The paper numbers sites `1..k`; we use zero-based indices and keep the
/// coordinator out of the site id space entirely.)
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SiteId(pub usize);

impl std::fmt::Display for SiteId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "site{}", self.0)
    }
}

/// A discrete time slot.
///
/// Chapter 4: "time is divided into slots where the slots are numbered
/// consecutively in an increasing sequence", synchronized across sites.
/// Slots drive sliding-window semantics; the infinite-window protocol
/// ignores them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Slot(pub u64);

impl Slot {
    /// The slot `n` steps later.
    #[must_use]
    pub fn plus(self, n: u64) -> Slot {
        Slot(self.0 + n)
    }

    /// The next slot.
    #[must_use]
    pub fn next(self) -> Slot {
        Slot(self.0 + 1)
    }
}

impl std::fmt::Display for Slot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "t{}", self.0)
    }
}

/// The live span of an element observed at `observed` under window size `w`:
/// slots `[observed, observed + w - 1]` inclusive; `expiry_slot` is the
/// first slot at which it is no longer in the window.
///
/// This pins down the off-by-one that pseudocode usually leaves implicit:
/// Algorithm 3 inserts `(e, t + w)` and treats a stored timestamp `< t` as
/// expired; we use `expiry <= now` ⇔ "dead", i.e. an element observed at
/// slot `t` with window `w` is present for exactly `w` slots.
#[must_use]
pub fn expiry_slot(observed: Slot, window: u64) -> Slot {
    Slot(observed.0 + window)
}

/// True if a tuple with the given expiry slot is outside the window at `now`.
#[must_use]
pub fn is_expired(expiry: Slot, now: Slot) -> bool {
    expiry <= now
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn element_roundtrip_and_display() {
        let e: Element = 42u64.into();
        assert_eq!(e, Element(42));
        assert_eq!(e.to_string(), "e42");
        assert_eq!(SiteId(3).to_string(), "site3");
        assert_eq!(Slot(9).to_string(), "t9");
    }

    #[test]
    fn slot_arithmetic() {
        assert_eq!(Slot(5).next(), Slot(6));
        assert_eq!(Slot(5).plus(10), Slot(15));
    }

    #[test]
    fn window_semantics_element_lives_exactly_w_slots() {
        let w = 3;
        let observed = Slot(10);
        let expiry = expiry_slot(observed, w);
        // Live at slots 10, 11, 12; dead from 13 on.
        assert!(!is_expired(expiry, Slot(10)));
        assert!(!is_expired(expiry, Slot(11)));
        assert!(!is_expired(expiry, Slot(12)));
        assert!(is_expired(expiry, Slot(13)));
        assert!(is_expired(expiry, Slot(14)));
    }

    #[test]
    fn window_of_one_slot() {
        let expiry = expiry_slot(Slot(4), 1);
        assert!(!is_expired(expiry, Slot(4)));
        assert!(is_expired(expiry, Slot(5)));
    }

    #[test]
    fn ordering_is_total_and_matches_raw() {
        assert!(Slot(1) < Slot(2));
        assert!(Element(1) < Element(2));
        assert!(SiteId(0) < SiteId(1));
    }
}
