//! Straight-from-the-definition candidate set — the test oracle.
//!
//! Stores tuples in a plain `Vec` and re-derives the dominance invariant by
//! quadratic scan after every mutation. Obviously correct, obviously slow;
//! its only job is to adjudicate differential tests against
//! [`crate::FlatStaircase`].

use dds_sim::{Element, Slot};

use crate::candidate::{CandidateEntry, CandidateSet};

/// The oracle implementation.
#[derive(Debug, Clone, Default)]
pub struct NaiveCandidateSet {
    entries: Vec<CandidateEntry>,
}

impl NaiveCandidateSet {
    /// An empty set.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Drop every entry dominated by another (quadratic, by definition).
    fn prune(&mut self) {
        let snapshot = self.entries.clone();
        self.entries.retain(|a| {
            !snapshot
                .iter()
                .any(|b| b.element != a.element && b.dominates(a))
        });
    }
}

impl CandidateSet for NaiveCandidateSet {
    fn insert_or_refresh(&mut self, e: Element, hash: u64, expiry: Slot) {
        if let Some(existing) = self.entries.iter_mut().find(|c| c.element == e) {
            debug_assert_eq!(existing.hash, hash);
            if existing.expiry >= expiry {
                return;
            }
            existing.expiry = expiry;
        } else {
            self.entries.push(CandidateEntry::new(e, hash, expiry));
        }
        self.prune();
    }

    fn expire(&mut self, now: Slot) {
        self.entries.retain(|c| c.expiry > now);
    }

    fn min_entry(&self) -> Option<CandidateEntry> {
        self.entries
            .iter()
            .min_by_key(|c| (c.hash, c.element))
            .copied()
    }

    fn len(&self) -> usize {
        self.entries.len()
    }

    fn contains(&self, e: Element) -> bool {
        self.entries.iter().any(|c| c.element == e)
    }

    fn entries_sorted(&self) -> Vec<CandidateEntry> {
        let mut v = self.entries.clone();
        v.sort_by_key(|c| (c.expiry, c.element));
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::candidate::conformance;

    #[test]
    fn conformance_suite() {
        conformance::run_all::<NaiveCandidateSet>();
    }

    #[test]
    fn prune_is_by_definition() {
        let mut s = NaiveCandidateSet::new();
        // b dominates a (later expiry, smaller hash); c unrelated.
        s.insert_or_refresh(Element(1), 100, Slot(5)); // a
        s.insert_or_refresh(Element(2), 50, Slot(9)); // b dominates a
        s.insert_or_refresh(Element(3), 70, Slot(12)); // c: later, larger hash than b
        assert!(!s.contains(Element(1)));
        assert!(s.contains(Element(2)));
        assert!(s.contains(Element(3)));
    }
}
