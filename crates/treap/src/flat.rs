//! Flat sorted-vec staircase — the small-`s` fast path for `Tᵢ`.
//!
//! Lemma 10 bounds the expected candidate-set size by `H_{|Dᵢ|}` — a few
//! dozen entries even for million-element windows. At that size the
//! treap's pointer-chasing (arena indices + a `HashMap` element index)
//! costs more than it saves: a single contiguous `Vec<CandidateEntry>`
//! kept in key order fits in one or two cache lines, and every operation
//! is a binary search plus a `memmove`.
//!
//! The representation leans on the staircase invariant directly: entries
//! are sorted by `(expiry, element)`, and among survivors of the
//! dominance rule hashes ascend along the vec. That gives:
//!
//! * **membership / refresh** — linear scan of a tiny vec (no index map
//!   to allocate, rehash, or keep in sync);
//! * **dominance check** — the earliest entry living at least as long as
//!   a new arrival carries the minimum hash of that whole suffix, so one
//!   `partition_point` + one compare decides "dominated?";
//! * **dominance sweep** — the entries a new arrival kills form a
//!   contiguous run (`expiry ≤ ours`, `hash > ours`), removed with one
//!   `drain`;
//! * **expiry** — dead entries are a prefix; one `drain`;
//! * **min-hash query** — the front of the vec, `O(1)`.
//!
//! Every local observation arrives with the newest expiry (`now + w`),
//! at or past every stored one, so it lands at the back: a same-slot
//! arrival with a larger hash than the back entry is dominated in one
//! compare, and otherwise one `partition_point` over the ascending
//! hashes finds the cut, everything above it is dominated, and
//! `truncate` plus `push` finishes. Only coordinator echoes with older
//! expiries and distinct elements that share a hash take the general
//! path.
//!
//! Semantics are identical to [`crate::Treap`] and
//! [`crate::StaircaseSet`] (same conformance suite, differential-tested
//! at the sliding-window protocol level), so `SwSite` can pick a backend
//! purely on performance.

use dds_sim::{Element, Slot};

use crate::candidate::{CandidateEntry, CandidateSet};

/// The flat, inline candidate set: one sorted `Vec`, no per-node
/// allocation, no side index.
#[derive(Debug, Clone, Default)]
pub struct FlatStaircase {
    /// Sorted by `(expiry, element)`; hashes ascend (non-strictly only
    /// under hash collisions) along the vec.
    entries: Vec<CandidateEntry>,
}

impl FlatStaircase {
    /// An empty set.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Remove all entries, keeping the allocation.
    pub fn clear(&mut self) {
        self.entries.clear();
    }

    fn position(&self, e: Element) -> Option<usize> {
        self.entries.iter().position(|en| en.element == e)
    }

    /// Test/debug helper: verify key order and the staircase invariant.
    pub fn validate(&self) {
        for w in self.entries.windows(2) {
            assert!(
                (w[0].expiry, w[0].element) < (w[1].expiry, w[1].element),
                "key order violated: {:?} then {:?}",
                w[0],
                w[1]
            );
            assert!(
                w[0].hash <= w[1].hash,
                "staircase violated: {:?} then {:?}",
                w[0],
                w[1]
            );
        }
    }

    /// [`CandidateSet::insert_or_refresh`] past its inlined first check.
    #[inline(never)]
    fn insert_slow(&mut self, e: Element, hash: u64, expiry: Slot) {
        if self.entries.last().map_or(true, |b| b.expiry <= expiry) {
            // In order: one cut over the ascending hashes.
            let cut = self.entries.partition_point(|en| en.hash < hash);
            let mut above = self.entries[cut..].iter();
            let collides = match above.next() {
                Some(en) if en.element == e => {
                    debug_assert_eq!(
                        en.hash, hash,
                        "element {e} presented with two different hashes"
                    );
                    if en.expiry == expiry {
                        return; // refresh to the expiry it already has
                    }
                    above.next().is_some_and(|next| next.hash == hash)
                }
                Some(en) => en.hash == hash,
                None => false,
            };
            if !collides {
                // Everything from the cut up expires no later and hashes
                // larger (or is this element's older copy): dominated.
                self.entries.truncate(cut);
                self.entries.push(CandidateEntry::new(e, hash, expiry));
                return;
            }
        }
        if let Some(i) = self.position(e) {
            let old = self.entries[i];
            debug_assert_eq!(
                old.hash, hash,
                "element {e} presented with two different hashes"
            );
            if old.expiry >= expiry {
                return; // stale echo: never shorten a life
            }
            self.entries.remove(i);
        }
        // Dominated? The earliest entry expiring no earlier than ours
        // has the minimum hash of that whole suffix.
        let from = self.entries.partition_point(|en| en.expiry < expiry);
        if self.entries.get(from).is_some_and(|en| en.hash < hash) {
            return;
        }
        // Sweep everything we dominate: among entries expiring no later
        // than ours (the prefix below `upto`), those with a strictly
        // larger hash are a contiguous run at its top.
        let upto = self.entries.partition_point(|en| en.expiry <= expiry);
        let start = self.entries[..upto].partition_point(|en| en.hash <= hash);
        self.entries.drain(start..upto);
        let at = self
            .entries
            .partition_point(|en| (en.expiry, en.element) < (expiry, e));
        self.entries
            .insert(at, CandidateEntry::new(e, hash, expiry));
    }
}

impl CandidateSet for FlatStaircase {
    #[inline]
    fn insert_or_refresh(&mut self, e: Element, hash: u64, expiry: Slot) {
        // A same-slot arrival hashing above the back entry is dominated.
        // Entries sharing the back's expiry share its hash (a smaller one
        // would dominate the rest), and none expires later, so the back
        // alone decides.
        if self
            .entries
            .last()
            .is_some_and(|b| b.expiry == expiry && b.hash < hash)
        {
            return;
        }
        self.insert_slow(e, hash, expiry);
    }

    fn expire(&mut self, now: Slot) {
        let dead = self.entries.partition_point(|en| en.expiry <= now);
        self.entries.drain(..dead);
    }

    fn min_entry(&self) -> Option<CandidateEntry> {
        // Staircase front: earliest-expiring survivor = minimum hash.
        self.entries.first().copied()
    }

    fn len(&self) -> usize {
        self.entries.len()
    }

    fn contains(&self, e: Element) -> bool {
        self.position(e).is_some()
    }

    fn entries_sorted(&self) -> Vec<CandidateEntry> {
        self.entries.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::candidate::conformance;
    use crate::naive::NaiveCandidateSet;

    #[test]
    fn conformance_suite() {
        conformance::run_all::<FlatStaircase>();
    }

    #[test]
    fn validate_after_heavy_churn_and_agree_with_naive() {
        let mut flat = FlatStaircase::new();
        let mut naive = NaiveCandidateSet::default();
        let mut x: u64 = 0x1234_5678_9abc_def0;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        let mut now = 0u64;
        for step in 0..5_000 {
            let r = next();
            if r % 13 == 0 {
                now += 1;
                flat.expire(Slot(now));
                naive.expire(Slot(now));
            } else {
                let e = (r >> 8) % 256;
                let expiry = now + 1 + (r >> 48) % 100;
                flat.insert_or_refresh(Element(e), conformance::h(e), Slot(expiry));
                naive.insert_or_refresh(Element(e), conformance::h(e), Slot(expiry));
            }
            if step % 251 == 0 {
                flat.validate();
                conformance::check_staircase(&flat, Slot(now));
                assert_eq!(flat.entries_sorted(), naive.entries_sorted());
            }
        }
        flat.validate();
        assert_eq!(flat.entries_sorted(), naive.entries_sorted());
    }

    /// The in-order path against the oracle: arrivals carry the newest
    /// expiry, as every local observation does, with same-slot runs,
    /// repeats (refreshes), equal-expiry echoes, older-expiry echoes
    /// (the general path), `expire` calls, and distinct elements that
    /// share a hash (the general path's collision fallback).
    #[test]
    fn in_order_stream_agrees_with_naive() {
        let distinct: fn(u64) -> u64 = conformance::h;
        // Few hash values over a small universe: collisions are common.
        let shared: fn(u64) -> u64 = |e| conformance::h(e / 3) % 40;
        for (seed, hash_of) in [
            (0x9e37_79b9_7f4a_7c15_u64, distinct),
            (0x2545_f491_4f6c_dd1d, shared),
        ] {
            let mut flat = FlatStaircase::new();
            let mut naive = NaiveCandidateSet::default();
            let mut x = seed;
            let mut next = move || {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x
            };
            let mut now = 0u64;
            let window = 8;
            for _ in 0..20_000 {
                let r = next();
                let e = (r >> 8) % 48;
                let (e, expiry) = match r % 16 {
                    // Slot boundary, with the sweep the protocol runs.
                    0 => {
                        now += 1 + (r >> 40) % 2;
                        flat.expire(Slot(now));
                        naive.expire(Slot(now));
                        continue;
                    }
                    // An older-expiry echo of a stored element (or a
                    // fresh one), as a coordinator reply would carry.
                    1 => {
                        let older = now + 1 + (r >> 40) % window;
                        let stored = flat.entries_sorted();
                        let e = if stored.is_empty() {
                            e
                        } else {
                            stored[(r >> 20) as usize % stored.len()].element.0
                        };
                        (e, older)
                    }
                    // An equal-expiry echo of the back entry.
                    2 => match flat.entries_sorted().last() {
                        Some(b) => (b.element.0, b.expiry.0),
                        None => (e, now + window),
                    },
                    // A repeat of a stored element: a refresh.
                    3 => match flat.entries_sorted().first() {
                        Some(f) => (f.element.0, now + window),
                        None => (e, now + window),
                    },
                    // A local observation in the current slot.
                    _ => (e, now + window),
                };
                let before = flat.entries_sorted();
                flat.insert_or_refresh(Element(e), hash_of(e), Slot(expiry));
                naive.insert_or_refresh(Element(e), hash_of(e), Slot(expiry));
                flat.validate();
                assert_eq!(
                    flat.entries_sorted(),
                    naive.entries_sorted(),
                    "insert ({e}, {}, {expiry}) into {before:?}",
                    hash_of(e)
                );
            }
        }
    }

    #[test]
    fn clear_resets_and_keeps_capacity() {
        let mut s = FlatStaircase::new();
        for e in 0..32u64 {
            s.insert_or_refresh(Element(e), conformance::h(e), Slot(e + 1));
        }
        let cap = s.entries.capacity();
        s.clear();
        assert!(s.is_empty());
        assert_eq!(s.min_entry(), None);
        assert_eq!(s.entries.capacity(), cap, "clear must keep the buffer");
        s.insert_or_refresh(Element(2), conformance::h(2), Slot(10));
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn expected_size_is_logarithmic() {
        // Lemma 10: E[|Tᵢ|] ≤ H_M — same bound the treap test pins.
        let mut s = FlatStaircase::new();
        let mut rng = dds_hash::splitmix::SplitMix64::new(5);
        let m = 1024u64;
        for j in 0..m {
            s.insert_or_refresh(Element(j), rng.next_u64(), Slot(j + 1));
        }
        let h_m: f64 = (1..=m).map(|i| 1.0 / i as f64).sum();
        assert!(
            (s.len() as f64) < 4.0 * h_m,
            "flat staircase size {} far exceeds H_M = {h_m:.1}",
            s.len()
        );
        s.validate();
    }
}
