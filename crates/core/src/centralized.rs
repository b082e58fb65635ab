//! Centralized bottom-`s` distinct sampling — the paper's "basic sampling
//! strategy" (Chapter 3) and the correctness oracle for every distributed
//! protocol in this crate.
//!
//! The distinct sample at time `t` is the set of elements attaining the
//! `s` smallest values of `h(S(t))`. For any size-`s` subset `T` of the
//! distinct elements, `P[T is the sample] = 1/C(d, s)` — a uniform random
//! sample without replacement, independent of element frequencies.
//!
//! [`BottomS`] is the frequency-oblivious bottom-`s` structure (also known
//! as a KMV sketch); [`CentralizedSampler`] binds it to a hash function;
//! [`SlidingOracle`] answers exact sliding-window queries by brute force
//! for differential tests.

use std::collections::BTreeMap;

use dds_hash::{SeededHash, UnitHash, UnitValue};
use dds_sim::{Element, Slot};

use crate::checkpoint::{CheckpointError, StateReader, StateWriter, Wire};

/// The `s` smallest `(hash, element)` pairs seen so far, with the
/// threshold `u` = largest retained hash once full (else 1).
///
/// One sorted `Vec` of at most `s` pairs: the protocols keep `s` small
/// (8 in the serving workloads), so a binary search and a short shift
/// beat any tree or hash map, and the whole sample sits in a few cache
/// lines.
///
/// Inserting the same element twice is a no-op (distinctness is what the
/// structure is *for*), making every protocol built on it idempotent
/// against duplicate message delivery. Membership is decided on the
/// `(hash, element)` pair, so callers must offer each element with the
/// same hash every time — which every protocol does, since the hash is
/// a function of the element.
#[derive(Debug, Clone)]
pub struct BottomS {
    s: usize,
    /// The retained pairs, strictly ascending.
    sorted: Vec<(UnitValue, Element)>,
}

impl BottomS {
    /// An empty bottom-`s` structure.
    ///
    /// # Panics
    /// Panics if `s == 0`.
    #[must_use]
    pub fn new(s: usize) -> Self {
        assert!(s > 0, "sample size must be at least 1");
        // No capacity from `s`: it may come from a decoded checkpoint,
        // and the sample grows only as elements arrive.
        Self {
            s,
            sorted: Vec::new(),
        }
    }

    /// Capacity `s`.
    #[must_use]
    pub fn s(&self) -> usize {
        self.s
    }

    /// Current sample size, `min(s, d)`.
    #[must_use]
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// True if no elements have been offered yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// Offer an element with its hash. Returns `true` iff the sample
    /// changed (the element was admitted).
    pub fn offer(&mut self, element: Element, hash: UnitValue) -> bool {
        let key = (hash, element);
        let full = self.sorted.len() >= self.s;
        if full && self.sorted.last().is_some_and(|&max| key >= max) {
            return false;
        }
        match self.sorted.binary_search(&key) {
            Ok(_) => false,
            Err(at) => {
                if full {
                    self.sorted.pop();
                }
                self.sorted.insert(at, key);
                true
            }
        }
    }

    /// The threshold `u(t)`: the `s`-th smallest hash seen so far, or 1
    /// while fewer than `s` distinct elements have been seen.
    #[must_use]
    pub fn threshold(&self) -> UnitValue {
        match self.sorted.last() {
            Some(&(h, _)) if self.sorted.len() >= self.s => h,
            _ => UnitValue::ONE,
        }
    }

    /// Whether `element` is currently in the sample (a scan of at most
    /// `s` pairs).
    #[must_use]
    pub fn contains(&self, element: Element) -> bool {
        self.sorted.iter().any(|&(_, e)| e == element)
    }

    /// The sampled elements in ascending hash order.
    #[must_use]
    pub fn elements(&self) -> Vec<Element> {
        self.sorted.iter().map(|&(_, e)| e).collect()
    }

    /// The sample as `(element, hash)` pairs in ascending hash order.
    #[must_use]
    pub fn entries(&self) -> Vec<(Element, UnitValue)> {
        self.sorted.iter().map(|&(h, e)| (e, h)).collect()
    }

    /// The fewest bytes [`BottomS::encode_state`] writes.
    pub(crate) const MIN_STATE_BYTES: usize = 4 + 4;

    /// Checkpoint encoding: capacity (a `u32`) plus the sampled elements
    /// in hash order. Hashes are *not* stored — they are derived state,
    /// and the decoder recomputes them from the protocol hash function.
    pub(crate) fn encode_state(&self, w: &mut StateWriter) {
        w.put_len(self.s);
        w.put_iter(self.sorted.iter().map(|&(_, e)| e));
    }

    /// Rebuild from [`BottomS::encode_state`] output, recomputing hashes
    /// under `hasher`.
    pub(crate) fn decode_state(
        r: &mut StateReader<'_>,
        hasher: &impl UnitHash,
    ) -> Result<Self, CheckpointError> {
        // The capacity is a scalar, not a collection length: `s` may far
        // exceed the stored (≤ s) element count and must not be bounds-
        // checked against the remaining payload bytes.
        let s = r.get_u32()? as usize;
        if s == 0 {
            return Err(CheckpointError::Corrupt("bottom-s capacity is zero"));
        }
        let mut bottom = Self::new(s);
        let mut held = 0;
        r.get_each(|e: Element| {
            held += 1;
            if held > s {
                return Err(CheckpointError::Corrupt("bottom-s holds more than s"));
            }
            if !bottom.offer(e, hasher.unit(e.0)) {
                return Err(CheckpointError::Corrupt("duplicate bottom-s element"));
            }
            Ok(())
        })?;
        Ok(bottom)
    }
}

/// A single-node distinct sampler: [`BottomS`] + a concrete hash function.
///
/// This is what one would run if the whole stream were visible at one
/// processor; the distributed protocols must agree with it exactly (same
/// hash function ⇒ same sample), which is the crate's central test.
#[derive(Debug, Clone)]
pub struct CentralizedSampler {
    bottom: BottomS,
    hasher: SeededHash,
    distinct_seen: u64,
    total_seen: u64,
    seen: std::collections::HashSet<Element>,
}

impl CentralizedSampler {
    /// A sampler of size `s` using `hasher`.
    #[must_use]
    pub fn new(s: usize, hasher: SeededHash) -> Self {
        Self {
            bottom: BottomS::new(s),
            hasher,
            distinct_seen: 0,
            total_seen: 0,
            seen: std::collections::HashSet::new(),
        }
    }

    /// Observe one element.
    pub fn observe(&mut self, e: Element) {
        self.total_seen += 1;
        if self.seen.insert(e) {
            self.distinct_seen += 1;
        }
        self.bottom.offer(e, self.hasher.unit(e.0));
    }

    /// The current sample, ascending by hash.
    #[must_use]
    pub fn sample(&self) -> Vec<Element> {
        self.bottom.elements()
    }

    /// The current threshold `u(t)`.
    #[must_use]
    pub fn threshold(&self) -> UnitValue {
        self.bottom.threshold()
    }

    /// Exact number of distinct elements observed (oracle bookkeeping; a
    /// real deployment would not pay this memory).
    #[must_use]
    pub fn distinct_seen(&self) -> u64 {
        self.distinct_seen
    }

    /// Total elements observed.
    #[must_use]
    pub fn total_seen(&self) -> u64 {
        self.total_seen
    }

    /// Access the underlying bottom-`s` structure.
    #[must_use]
    pub fn bottom(&self) -> &BottomS {
        &self.bottom
    }
}

/// Checkpoint layout: hash function, bottom-`s` sample, counters, and
/// the (sorted, so encoding is deterministic) exact distinct set — the
/// O(d) oracle bookkeeping is part of the state by design.
impl Wire for CentralizedSampler {
    const MIN_BYTES: usize = SeededHash::MIN_BYTES + BottomS::MIN_STATE_BYTES + 8 + 4;

    fn put(&self, w: &mut StateWriter) {
        w.put(&self.hasher);
        self.bottom.encode_state(w);
        w.put(&self.total_seen);
        let mut seen: Vec<Element> = self.seen.iter().copied().collect();
        seen.sort_unstable();
        w.put(&seen);
    }

    fn get(r: &mut StateReader<'_>) -> Result<Self, CheckpointError> {
        let hasher: SeededHash = r.get()?;
        let bottom = BottomS::decode_state(r, &hasher)?;
        let total_seen: u64 = r.get()?;
        let mut seen = std::collections::HashSet::new();
        r.get_each(|e: Element| {
            if seen.insert(e) {
                Ok(())
            } else {
                Err(CheckpointError::Corrupt("duplicate in distinct set"))
            }
        })?;
        if total_seen < seen.len() as u64 {
            return Err(CheckpointError::Corrupt("total below distinct count"));
        }
        if bottom.len() > seen.len() {
            return Err(CheckpointError::Corrupt("sample larger than distinct set"));
        }
        Ok(Self {
            bottom,
            hasher,
            distinct_seen: seen.len() as u64,
            total_seen,
            seen,
        })
    }
}

/// Exact sliding-window distinct state, by brute force.
///
/// Tracks the latest observation slot of every element; queries scan all
/// live elements. Memory is `O(d_w)` and queries are `O(d_w log d_w)` —
/// the thing the real protocols exist to avoid — which is precisely what
/// makes it a trustworthy oracle.
#[derive(Debug, Clone)]
pub struct SlidingOracle {
    window: u64,
    hasher: SeededHash,
    /// element → expiry slot (last observation + window).
    live: BTreeMap<Element, Slot>,
}

impl SlidingOracle {
    /// An oracle for window size `window ≥ 1`.
    ///
    /// # Panics
    /// Panics if `window == 0`.
    #[must_use]
    pub fn new(window: u64, hasher: SeededHash) -> Self {
        assert!(window >= 1, "window must be at least one slot");
        Self {
            window,
            hasher,
            live: BTreeMap::new(),
        }
    }

    /// Observe `e` at slot `now`.
    pub fn observe(&mut self, e: Element, now: Slot) {
        let expiry = Slot(now.0 + self.window);
        let entry = self.live.entry(e).or_insert(expiry);
        *entry = (*entry).max(expiry);
    }

    /// Drop expired elements (also done lazily by queries).
    pub fn expire(&mut self, now: Slot) {
        self.live.retain(|_, &mut expiry| expiry > now);
    }

    /// Number of distinct elements in the window at `now`.
    #[must_use]
    pub fn distinct_in_window(&self, now: Slot) -> usize {
        self.live.values().filter(|&&t| t > now).count()
    }

    /// The true minimum-hash element of the window at `now`, with its hash
    /// and expiry.
    #[must_use]
    pub fn min_in_window(&self, now: Slot) -> Option<(Element, UnitValue, Slot)> {
        self.live
            .iter()
            .filter(|&(_, &t)| t > now)
            .map(|(&e, &t)| (self.hasher.unit(e.0), e, t))
            .min()
            .map(|(h, e, t)| (e, h, t))
    }

    /// The true bottom-`s` elements of the window at `now`, ascending by
    /// hash.
    #[must_use]
    pub fn bottom_s_in_window(&self, now: Slot, s: usize) -> Vec<Element> {
        let mut v: Vec<(UnitValue, Element)> = self
            .live
            .iter()
            .filter(|&(_, &t)| t > now)
            .map(|(&e, _)| (self.hasher.unit(e.0), e))
            .collect();
        v.sort();
        v.truncate(s);
        v.into_iter().map(|(_, e)| e).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dds_hash::family::HashFamily;
    use proptest::prelude::*;
    use std::collections::BTreeSet;

    fn hasher() -> SeededHash {
        HashFamily::default().primary()
    }

    #[test]
    fn bottom_s_keeps_smallest() {
        let mut b = BottomS::new(2);
        assert!(b.offer(Element(1), UnitValue(100)));
        assert!(b.offer(Element(2), UnitValue(50)));
        assert_eq!(b.threshold(), UnitValue(100));
        assert!(b.offer(Element(3), UnitValue(75))); // evicts 100
        assert_eq!(b.elements(), vec![Element(2), Element(3)]);
        assert!(!b.offer(Element(4), UnitValue(80))); // above threshold
        assert_eq!(b.threshold(), UnitValue(75));
    }

    #[test]
    fn bottom_s_duplicate_offers_are_noops() {
        let mut b = BottomS::new(2);
        assert!(b.offer(Element(1), UnitValue(10)));
        assert!(!b.offer(Element(1), UnitValue(10)));
        assert_eq!(b.len(), 1);
        // Idempotent even when full.
        b.offer(Element(2), UnitValue(20));
        assert!(!b.offer(Element(2), UnitValue(20)));
        assert_eq!(b.elements(), vec![Element(1), Element(2)]);
    }

    #[test]
    fn threshold_is_one_until_full() {
        let mut b = BottomS::new(3);
        assert_eq!(b.threshold(), UnitValue::ONE);
        b.offer(Element(1), UnitValue(10));
        b.offer(Element(2), UnitValue(20));
        assert_eq!(b.threshold(), UnitValue::ONE, "not full yet");
        b.offer(Element(3), UnitValue(30));
        assert_eq!(b.threshold(), UnitValue(30));
    }

    #[test]
    fn centralized_sample_is_true_bottom_s() {
        let h = hasher();
        let mut c = CentralizedSampler::new(5, h);
        let elems: Vec<Element> = (0..1000).map(Element).collect();
        for &e in &elems {
            c.observe(e);
            c.observe(e); // repeats must not matter
        }
        let mut expected: Vec<(UnitValue, Element)> =
            elems.iter().map(|&e| (h.unit(e.0), e)).collect();
        expected.sort();
        let expected: Vec<Element> = expected[..5].iter().map(|&(_, e)| e).collect();
        assert_eq!(c.sample(), expected);
        assert_eq!(c.distinct_seen(), 1000);
        assert_eq!(c.total_seen(), 2000);
    }

    #[test]
    fn sample_smaller_than_s_when_d_small() {
        let mut c = CentralizedSampler::new(10, hasher());
        for e in 0..4 {
            c.observe(Element(e));
        }
        assert_eq!(c.sample().len(), 4);
        assert_eq!(c.threshold(), UnitValue::ONE);
    }

    #[test]
    fn sliding_oracle_window_semantics() {
        let h = hasher();
        let mut o = SlidingOracle::new(3, h);
        o.observe(Element(1), Slot(0)); // live 0..=2
        o.observe(Element(2), Slot(1)); // live 1..=3
        assert_eq!(o.distinct_in_window(Slot(1)), 2);
        assert_eq!(o.distinct_in_window(Slot(2)), 2);
        assert_eq!(o.distinct_in_window(Slot(3)), 1);
        assert_eq!(o.distinct_in_window(Slot(4)), 0);
        // Re-observation extends.
        o.observe(Element(1), Slot(2)); // live through 4
        assert_eq!(o.distinct_in_window(Slot(3)), 2);
        let (e, _, expiry) = o.min_in_window(Slot(4)).unwrap();
        assert_eq!(e, Element(1));
        assert_eq!(expiry, Slot(5));
    }

    #[test]
    fn sliding_oracle_bottom_s_sorted_by_hash() {
        let h = hasher();
        let mut o = SlidingOracle::new(10, h);
        for e in 0..50 {
            o.observe(Element(e), Slot(0));
        }
        let bs = o.bottom_s_in_window(Slot(5), 7);
        assert_eq!(bs.len(), 7);
        let hashes: Vec<UnitValue> = bs.iter().map(|&e| h.unit(e.0)).collect();
        for w in hashes.windows(2) {
            assert!(w[0] < w[1]);
        }
        assert!(o.bottom_s_in_window(Slot(10), 7).is_empty());
    }

    #[test]
    fn expire_frees_oracle_memory() {
        let mut o = SlidingOracle::new(2, hasher());
        for e in 0..100 {
            o.observe(Element(e), Slot(0));
        }
        o.expire(Slot(2));
        assert_eq!(o.distinct_in_window(Slot(2)), 0);
        assert_eq!(o.live.len(), 0);
    }

    #[test]
    #[should_panic(expected = "sample size must be at least 1")]
    fn zero_s_rejected() {
        let _ = BottomS::new(0);
    }

    /// A hash onto `bits` bits that also maps `twin.1` onto `twin.0`'s
    /// hash, so two distinct elements always share one.
    struct CollidingHash {
        bits: u32,
        twin: (u64, u64),
    }

    impl UnitHash for CollidingHash {
        fn unit(&self, element: u64) -> UnitValue {
            let e = if element == self.twin.1 {
                self.twin.0
            } else {
                element
            };
            UnitValue(dds_hash::splitmix::splitmix64(e) >> (64 - self.bits))
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// `BottomS` against a brute-force oracle: the sorted distinct
        /// `(hash, element)` pairs offered so far, cut to `s`.
        #[test]
        fn bottom_s_matches_the_sorted_distinct_prefix(
            s in prop_oneof![Just(1usize), Just(2), Just(8), Just(100)],
            offers in prop::collection::vec(0u64..160, 0..300),
            bits in 1u32..65,
            twin in (0u64..160, 0u64..160),
        ) {
            prop_assume!(twin.0 != twin.1);
            let hash = CollidingHash { bits, twin };
            let mut bottom = BottomS::new(s);
            let mut seen: BTreeSet<(UnitValue, Element)> = BTreeSet::new();
            let mut prefix: Vec<(UnitValue, Element)> = Vec::new();
            for &x in &offers {
                let e = Element(x);
                let h = hash.unit(x);
                seen.insert((h, e));
                let want: Vec<(UnitValue, Element)> = seen.iter().copied().take(s).collect();
                let changed = want != prefix;
                prefix = want;
                prop_assert_eq!(bottom.offer(e, h), changed, "offer of {:?}", e);
                let elements: Vec<Element> = prefix.iter().map(|&(_, e)| e).collect();
                prop_assert_eq!(bottom.elements(), elements);
                prop_assert_eq!(bottom.len(), prefix.len());
                let threshold = if prefix.len() < s { UnitValue::ONE } else { prefix[s - 1].0 };
                prop_assert_eq!(bottom.threshold(), threshold);
                for &(_, y) in &seen {
                    prop_assert_eq!(bottom.contains(y), prefix.iter().any(|&(_, p)| p == y));
                }
                let mut w = crate::checkpoint::StateWriter::new();
                bottom.encode_state(&mut w);
                let bytes = w.into_bytes();
                let mut r = crate::checkpoint::StateReader::new(&bytes);
                let back = BottomS::decode_state(&mut r, &hash).expect("round trip decodes");
                r.expect_end().expect("round trip consumes every byte");
                prop_assert_eq!(back.s(), s);
                prop_assert_eq!(back.entries(), bottom.entries());
                prop_assert_eq!(back.threshold(), bottom.threshold());
            }
        }
    }
}
