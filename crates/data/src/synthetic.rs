//! Calibrated synthetic streams standing in for the paper's datasets.
//!
//! [`TraceLikeStream`] reproduces the *statistics that drive the
//! algorithms' cost*: exactly `total` elements containing exactly
//! `distinct` distinct values (matching Table 5.1), with new-value arrivals
//! spread uniformly over the stream (hypergeometric scheduling) and repeats
//! drawn with a heavy-tailed bias toward early elements (old flows are the
//! heavy flows, as in real packet traces).
//!
//! [`PairStream`] generates structured `(src, dst)` pairs from two Zipf
//! popularity laws — the shape of the original OC48/Enron element
//! construction ("concatenation of the sender's and receiver's address").
//! Its distinct ratio is emergent rather than calibrated, so the figure
//! benches use [`TraceLikeStream`]; `PairStream` powers the examples that
//! demonstrate predicate queries over sampled pairs (e.g. "distinct flows
//! from subnet X").

use dds_hash::splitmix::{splitmix64, SplitMix64};
use dds_sim::Element;

use crate::zipf::Zipf;

/// Element/distinct calibration of a trace (one row of Table 5.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceProfile {
    /// Human-readable dataset name.
    pub name: &'static str,
    /// Total number of elements (stream length).
    pub total: u64,
    /// Number of distinct elements.
    pub distinct: u64,
}

/// The OC48 IP-trace profile from Table 5.1.
pub const OC48: TraceProfile = TraceProfile {
    name: "oc48",
    total: 42_268_510,
    distinct: 4_337_768,
};

/// The Enron e-mail profile from Table 5.1.
pub const ENRON: TraceProfile = TraceProfile {
    name: "enron",
    total: 1_557_491,
    distinct: 374_330,
};

impl TraceProfile {
    /// The profile shrunk by an integer factor (for laptop-scale runs):
    /// both counts divide, preserving the repeat ratio.
    #[must_use]
    pub fn scaled_down(&self, factor: u64) -> TraceProfile {
        assert!(factor >= 1);
        TraceProfile {
            name: self.name,
            total: (self.total / factor).max(1),
            distinct: (self.distinct / factor)
                .max(1)
                .min(self.total / factor.max(1)),
        }
    }

    /// Mean occurrences per distinct element (`total / distinct`).
    #[must_use]
    pub fn repeat_factor(&self) -> f64 {
        self.total as f64 / self.distinct as f64
    }
}

/// A stream with *exactly* `profile.total` elements of which *exactly*
/// `profile.distinct` are distinct.
///
/// New-value positions are scheduled hypergeometrically (each remaining
/// position equally likely to host a remaining new value), so the `j`-th
/// distinct element appears around position `j · total/distinct` — the
/// steady dilution that makes the message curves flatten exactly as in
/// Figure 5.1. Repeats pick an existing element with probability density
/// biased by `repeat_bias` toward the oldest (heaviest) values.
#[derive(Debug, Clone)]
pub struct TraceLikeStream {
    profile: TraceProfile,
    remaining_total: u64,
    remaining_new: u64,
    pool: Vec<Element>,
    rng: SplitMix64,
    id_salt: u64,
    next_id: u64,
    repeat_bias: f64,
}

impl TraceLikeStream {
    /// Default heavy-tail bias exponent: repeats choose pool index
    /// `⌊len · r^bias⌋` for uniform `r`, so bias 2 makes the oldest decile
    /// of elements receive ~32% of repeats.
    pub const DEFAULT_REPEAT_BIAS: f64 = 2.0;

    /// A stream realising `profile`, deterministic under `seed`.
    #[must_use]
    pub fn new(profile: TraceProfile, seed: u64) -> Self {
        Self::with_bias(profile, seed, Self::DEFAULT_REPEAT_BIAS)
    }

    /// As [`TraceLikeStream::new`] with an explicit repeat bias ≥ 1.
    ///
    /// # Panics
    /// Panics if the profile is inconsistent (`distinct` of 0 or above
    /// `total`) or `repeat_bias < 1`.
    #[must_use]
    pub fn with_bias(profile: TraceProfile, seed: u64, repeat_bias: f64) -> Self {
        assert!(
            profile.distinct >= 1 && profile.distinct <= profile.total,
            "inconsistent profile {profile:?}"
        );
        assert!(repeat_bias >= 1.0, "repeat bias must be >= 1");
        Self {
            profile,
            remaining_total: profile.total,
            remaining_new: profile.distinct,
            pool: Vec::with_capacity(profile.distinct.min(1 << 24) as usize),
            rng: SplitMix64::new(seed),
            id_salt: splitmix64(seed ^ 0xc0ff_ee00_dead_beef),
            next_id: 0,
            repeat_bias,
        }
    }

    /// The profile this stream realises.
    #[must_use]
    pub fn profile(&self) -> TraceProfile {
        self.profile
    }

    fn fresh_element(&mut self) -> Element {
        // splitmix64 is a bijection: distinct counters → distinct ids.
        let e = Element(splitmix64(self.id_salt.wrapping_add(self.next_id)));
        self.next_id += 1;
        self.pool.push(e);
        e
    }
}

impl Iterator for TraceLikeStream {
    type Item = Element;

    fn next(&mut self) -> Option<Element> {
        if self.remaining_total == 0 {
            return None;
        }
        // Exact scheduling: of the remaining positions, `remaining_new`
        // must be new; each remaining position is equally likely.
        let draw_new = self.remaining_new > 0
            && (self.rng.next_below(self.remaining_total) < self.remaining_new
                || self.pool.is_empty());
        self.remaining_total -= 1;
        if draw_new {
            self.remaining_new -= 1;
            Some(self.fresh_element())
        } else {
            let r = self.rng.next_f64().powf(self.repeat_bias);
            let idx = ((r * self.pool.len() as f64) as usize).min(self.pool.len() - 1);
            Some(self.pool[idx])
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = self.remaining_total as usize;
        (n, Some(n))
    }
}

impl ExactSizeIterator for TraceLikeStream {}

/// A stream of `(src, dst)` pairs, each drawn from its own Zipf law —
/// the structural shape of the paper's element construction.
///
/// The element encodes the pair as `src << 32 | dst`; [`PairStream::src`]
/// and [`PairStream::dst`] recover the halves for predicate queries.
#[derive(Debug, Clone)]
pub struct PairStream {
    remaining: u64,
    src_law: Zipf,
    dst_law: Zipf,
    rng: SplitMix64,
}

impl PairStream {
    /// A stream of `n` pairs with `sources`/`destinations` universe sizes
    /// and Zipf exponents `alpha_src` / `alpha_dst`.
    #[must_use]
    pub fn new(
        n: u64,
        sources: u64,
        alpha_src: f64,
        destinations: u64,
        alpha_dst: f64,
        seed: u64,
    ) -> Self {
        assert!(sources <= u64::from(u32::MAX) && destinations <= u64::from(u32::MAX));
        Self {
            remaining: n,
            src_law: Zipf::new(sources, alpha_src),
            dst_law: Zipf::new(destinations, alpha_dst),
            rng: SplitMix64::new(seed),
        }
    }

    /// An OC48-flavoured pair stream: many hosts, strong skew.
    #[must_use]
    pub fn oc48_flavour(n: u64, seed: u64) -> Self {
        Self::new(n, 1 << 20, 1.05, 1 << 20, 1.05, seed)
    }

    /// An Enron-flavoured pair stream: few senders, moderate skew.
    #[must_use]
    pub fn enron_flavour(n: u64, seed: u64) -> Self {
        Self::new(n, 50_000, 1.2, 70_000, 1.1, seed)
    }

    /// Source half of an encoded pair element.
    #[must_use]
    pub fn src(e: Element) -> u32 {
        (e.0 >> 32) as u32
    }

    /// Destination half of an encoded pair element.
    #[must_use]
    pub fn dst(e: Element) -> u32 {
        e.0 as u32
    }
}

impl Iterator for PairStream {
    type Item = Element;

    fn next(&mut self) -> Option<Element> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        let s = self.src_law.sample(&mut self.rng);
        let d = self.dst_law.sample(&mut self.rng);
        Some(Element((s << 32) | d))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.remaining as usize, Some(self.remaining as usize))
    }
}

impl ExactSizeIterator for PairStream {}

/// `n` pairwise-distinct elements — the all-new worst case for distinct
/// counting (every arrival is a "j-th new distinct element").
#[derive(Debug, Clone)]
pub struct DistinctOnlyStream {
    remaining: u64,
    salt: u64,
    next_id: u64,
}

impl DistinctOnlyStream {
    /// A stream of `n` distinct elements, deterministic under `seed`.
    #[must_use]
    pub fn new(n: u64, seed: u64) -> Self {
        Self {
            remaining: n,
            salt: splitmix64(seed ^ 0x0dd5_ba11_0f_u64),
            next_id: 0,
        }
    }
}

impl Iterator for DistinctOnlyStream {
    type Item = Element;

    fn next(&mut self) -> Option<Element> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        let e = Element(splitmix64(self.salt.wrapping_add(self.next_id)));
        self.next_id += 1;
        Some(e)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.remaining as usize, Some(self.remaining as usize))
    }
}

impl ExactSizeIterator for DistinctOnlyStream {}

/// The message-complexity lower-bound input of Lemma 9.
///
/// Round `i` hands one *brand-new* element to **every** site (flooding a
/// fresh element each round is exactly the adversarial construction
/// `I(Dᵢ)` from Lemma 8: whichever site the algorithm "expects", the new
/// element forces an expected `s/(2(d+1))` send per site). Against this
/// input, any correct algorithm transmits `Ω(ks·ln(de/s))` messages in
/// expectation — the bench `ext_bounds` measures our algorithm against it.
#[derive(Debug, Clone)]
pub struct AdversarialLowerBound {
    inner: DistinctOnlyStream,
}

impl AdversarialLowerBound {
    /// `rounds` rounds of the adversarial input (one new element each).
    #[must_use]
    pub fn new(rounds: u64, seed: u64) -> Self {
        Self {
            inner: DistinctOnlyStream::new(rounds, seed),
        }
    }
}

impl Iterator for AdversarialLowerBound {
    type Item = Element;

    fn next(&mut self) -> Option<Element> {
        // Routing to all sites is the router's job (use `Routing::Flooding`);
        // the stream itself supplies one fresh element per round.
        self.inner.next()
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.inner.size_hint()
    }
}

impl ExactSizeIterator for AdversarialLowerBound {}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn profiles_match_table_5_1() {
        assert_eq!(OC48.total, 42_268_510);
        assert_eq!(OC48.distinct, 4_337_768);
        assert_eq!(ENRON.total, 1_557_491);
        assert_eq!(ENRON.distinct, 374_330);
        assert!((OC48.repeat_factor() - 9.744).abs() < 0.01);
        assert!((ENRON.repeat_factor() - 4.161).abs() < 0.01);
    }

    #[test]
    fn trace_like_is_exactly_calibrated() {
        for factor in [500u64, 100] {
            let profile = ENRON.scaled_down(factor);
            let stream = TraceLikeStream::new(profile, 42);
            let mut total = 0u64;
            let mut distinct = HashSet::new();
            for e in stream {
                total += 1;
                distinct.insert(e);
            }
            assert_eq!(total, profile.total);
            assert_eq!(distinct.len() as u64, profile.distinct);
        }
    }

    #[test]
    fn trace_like_is_deterministic() {
        let profile = OC48.scaled_down(10_000);
        let a: Vec<Element> = TraceLikeStream::new(profile, 7).collect();
        let b: Vec<Element> = TraceLikeStream::new(profile, 7).collect();
        let c: Vec<Element> = TraceLikeStream::new(profile, 8).collect();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn repeats_are_biased_toward_old_elements() {
        let profile = TraceProfile {
            name: "test",
            total: 100_000,
            distinct: 1_000,
        };
        let stream = TraceLikeStream::new(profile, 3);
        let mut first_seen: Vec<Element> = Vec::new();
        let mut counts: std::collections::HashMap<Element, u64> = std::collections::HashMap::new();
        for e in stream {
            if !counts.contains_key(&e) {
                first_seen.push(e);
            }
            *counts.entry(e).or_insert(0) += 1;
        }
        let first_decile: u64 = first_seen[..100].iter().map(|e| counts[e]).sum();
        let last_decile: u64 = first_seen[900..].iter().map(|e| counts[e]).sum();
        assert!(
            first_decile > 3 * last_decile,
            "heavy tail missing: first {first_decile} vs last {last_decile}"
        );
    }

    #[test]
    fn new_arrivals_spread_over_stream() {
        // The j-th distinct element should arrive near position
        // j·(total/distinct): check the middle distinct element arrives in
        // the middle half of the stream.
        let profile = TraceProfile {
            name: "test",
            total: 40_000,
            distinct: 4_000,
        };
        let stream = TraceLikeStream::new(profile, 9);
        let mut seen = HashSet::new();
        let mut arrival_of_2000th = None;
        for (pos, e) in stream.enumerate() {
            if seen.insert(e) && seen.len() == 2_000 {
                arrival_of_2000th = Some(pos);
            }
        }
        let pos = arrival_of_2000th.unwrap();
        assert!(
            (10_000..30_000).contains(&pos),
            "2000th distinct at position {pos}"
        );
    }

    #[test]
    fn pair_stream_recovers_halves() {
        let mut s = PairStream::new(1000, 100, 1.1, 100, 1.1, 5);
        let e = s.next().unwrap();
        let (src, dst) = (PairStream::src(e), PairStream::dst(e));
        assert!(src >= 1 && src <= 100);
        assert!(dst >= 1 && dst <= 100);
        assert_eq!(e.0, (u64::from(src) << 32) | u64::from(dst));
    }

    #[test]
    fn pair_stream_has_repeats_and_skew() {
        let s = PairStream::enron_flavour(50_000, 2);
        let mut counts: std::collections::HashMap<Element, u64> = std::collections::HashMap::new();
        for e in s {
            *counts.entry(e).or_insert(0) += 1;
        }
        let total: u64 = counts.values().sum();
        assert_eq!(total, 50_000);
        assert!(
            counts.len() < 50_000,
            "a skewed pair stream must contain repeats"
        );
        let max = counts.values().max().unwrap();
        assert!(*max > 10, "expected heavy pairs, max count {max}");
    }

    #[test]
    fn distinct_only_is_distinct() {
        let v: Vec<Element> = DistinctOnlyStream::new(10_000, 1).collect();
        let set: HashSet<Element> = v.iter().copied().collect();
        assert_eq!(set.len(), 10_000);
    }

    #[test]
    fn adversarial_stream_is_distinct_per_round() {
        let v: Vec<Element> = AdversarialLowerBound::new(500, 4).collect();
        assert_eq!(v.len(), 500);
        let set: HashSet<Element> = v.iter().copied().collect();
        assert_eq!(set.len(), 500);
    }

    #[test]
    fn scaled_down_preserves_ratio() {
        let p = OC48.scaled_down(100);
        let ratio_full = OC48.repeat_factor();
        let ratio_scaled = p.repeat_factor();
        assert!((ratio_full - ratio_scaled).abs() / ratio_full < 0.01);
    }

    #[test]
    fn exact_size_iterators_report_len() {
        assert_eq!(DistinctOnlyStream::new(42, 0).len(), 42);
        assert_eq!(TraceLikeStream::new(ENRON.scaled_down(1000), 0).len(), 1557);
        assert_eq!(PairStream::oc48_flavour(7, 0).len(), 7);
    }
}
