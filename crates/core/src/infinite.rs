//! Algorithms 1 & 2 — the paper's primary contribution.
//!
//! **Site `i`** (Algorithm 1) keeps one number: `uᵢ`, its last-known copy
//! of the coordinator's threshold (initially 1). When it observes `e` with
//! `h(e) < uᵢ` it sends `e` up; the coordinator's reply refreshes `uᵢ`.
//! Per-site state is O(1) and per-element work is one hash + one compare.
//!
//! **The coordinator** (Algorithm 2) keeps the bottom-`s` sample `P` and
//! `u = s`-th smallest hash seen. Every received element is offered to
//! `P`; the (unconditional) reply carries the current `u`.
//!
//! The key invariant — `uᵢ ≥ u` at every site, always — holds because `u`
//! never increases and every `uᵢ` update copies a current `u`. Therefore
//! any element that *should* enter the global sample (`h(e) < u ≤ uᵢ`)
//! passes the site filter: the coordinator's sample is exactly the
//! bottom-`s` of all distinct elements observed anywhere, at all times.
//! Staleness of `uᵢ` costs only extra messages, never correctness — this
//! is also why the protocol stays correct under asynchronous delivery
//! (exercised by `dds-cluster`'s unit tests in `src/tests.rs`).
//!
//! Expected messages: `E[Y] ≤ 2ks(1 + H_d − H_s) ≈ 2ks(1 + ln(d/s))`
//! (Lemma 4), with the per-site refinement of Observation 1; the matching
//! lower bound (Lemma 9) makes the algorithm optimal within a factor ≈ 4.

use dds_hash::family::HashFamily;
use dds_hash::{SeededHash, UnitHash, UnitValue};
use dds_sim::{Cluster, CoordinatorNode, Destination, Element, SiteId, SiteNode, Slot};

use crate::centralized::BottomS;
use crate::checkpoint::{self, CheckpointError, StateReader, StateWriter, Wire};
use crate::messages::{DownThreshold, UpElem};
use crate::sampler::{sealed, FusedSite};

/// Everything needed to instantiate the protocol identically at every
/// node: the sample size and the shared hash function (the "receive hash
/// function from the coordinator" step of Algorithm 1).
#[derive(Debug, Clone, Copy)]
pub struct InfiniteConfig {
    /// Sample size `s ≥ 1`.
    pub s: usize,
    /// Hash family; `family.primary()` is the shared `h`.
    pub family: HashFamily,
}

impl InfiniteConfig {
    /// Config with the default Murmur2 family.
    #[must_use]
    pub fn new(s: usize) -> Self {
        Self {
            s,
            family: HashFamily::default(),
        }
    }

    /// Config with an explicit family seed (for repeated-run averaging).
    #[must_use]
    pub fn with_seed(s: usize, seed: u64) -> Self {
        Self {
            s,
            family: HashFamily::new(seed),
        }
    }

    /// The shared hash function.
    #[must_use]
    pub fn hasher(&self) -> SeededHash {
        self.family.primary()
    }

    /// Build the `k` site state machines.
    #[must_use]
    pub fn sites(&self, k: usize) -> Vec<LazySite> {
        (0..k).map(|_| LazySite::new(self.hasher())).collect()
    }

    /// Build the coordinator.
    #[must_use]
    pub fn coordinator(&self) -> LazyCoordinator {
        LazyCoordinator::new(self.s, self.hasher())
    }

    /// Assemble a ready-to-run cluster of `k` sites.
    #[must_use]
    pub fn cluster(&self, k: usize) -> Cluster<LazySite, LazyCoordinator> {
        Cluster::new(self.sites(k), self.coordinator())
    }

    /// Cluster with the reply-only-on-change coordinator ablation.
    #[must_use]
    pub fn cluster_reply_on_change(&self, k: usize) -> Cluster<LazySite, LazyCoordinator> {
        Cluster::new(self.sites(k), self.coordinator().reply_only_on_change())
    }
}

/// Algorithm 1 — the per-site state machine.
#[derive(Debug, Clone)]
pub struct LazySite {
    hasher: SeededHash,
    u_i: UnitValue,
    /// Sends performed by this site (diagnostics; the authoritative count
    /// lives in the network counters).
    sends: u64,
}

impl LazySite {
    /// A site sharing the protocol-wide hash function.
    #[must_use]
    pub fn new(hasher: SeededHash) -> Self {
        Self {
            hasher,
            u_i: UnitValue::ONE,
            sends: 0,
        }
    }

    /// The site's current threshold view `uᵢ`.
    #[must_use]
    pub fn threshold(&self) -> UnitValue {
        self.u_i
    }

    /// Number of elements this site has sent up.
    #[must_use]
    pub fn sends(&self) -> u64 {
        self.sends
    }
}

// Checkpoint layout: the whole Algorithm 1 state — hash function, `uᵢ`,
// and the send diagnostic.
crate::wire_record! { LazySite { hasher: SeededHash, u_i: UnitValue, sends: u64 } }

impl SiteNode for LazySite {
    type Up = UpElem;
    type Down = DownThreshold;

    fn observe(&mut self, e: Element, now: Slot, out: &mut Vec<UpElem>) {
        out.extend(self.observe_lane(0, e, now));
    }

    fn handle(&mut self, msg: DownThreshold, _now: Slot, _out: &mut Vec<UpElem>) {
        // uᵢ ← u. The coordinator's u is non-increasing, so this preserves
        // uᵢ ≥ u; it can only lower uᵢ (debug-checked).
        debug_assert!(
            UnitValue(msg.u) <= self.u_i,
            "threshold refresh may never raise uᵢ"
        );
        self.u_i = UnitValue(msg.u);
    }

    fn memory_tuples(&self) -> usize {
        1 // uᵢ is the whole state: O(1) per site (Theorem 1).
    }
}

impl sealed::Sealed for LazySite {}

impl FusedSite for LazySite {
    type Coordinator = LazyCoordinator;
    const KIND: u8 = checkpoint::kind::INFINITE;
    const CLOCKED: bool = false;

    /// Algorithm 1's observation step: send `e` up if `h(e)` beats `uᵢ`.
    #[inline]
    fn observe_lane(&mut self, _lane: usize, e: Element, _now: Slot) -> Option<UpElem> {
        (self.hasher.unit(e.0) < self.u_i).then(|| {
            self.sends += 1;
            UpElem { element: e }
        })
    }

    fn threshold(coordinator: &LazyCoordinator) -> Option<UnitValue> {
        Some(coordinator.threshold())
    }
}

/// Algorithm 2 — the coordinator.
#[derive(Debug, Clone)]
pub struct LazyCoordinator {
    hasher: SeededHash,
    sample: BottomS,
    reply_only_on_change: bool,
}

impl LazyCoordinator {
    /// A coordinator with sample size `s` sharing the protocol hash.
    #[must_use]
    pub fn new(s: usize, hasher: SeededHash) -> Self {
        Self {
            hasher,
            sample: BottomS::new(s),
            reply_only_on_change: false,
        }
    }

    /// Ablation variant: reply only when the threshold actually changed.
    ///
    /// Algorithm 2 replies unconditionally (line 11). Suppressing the
    /// no-change replies halves the cost of every useless exchange but
    /// leaves sites stale longer; the `ext_ablation` bench quantifies the
    /// trade. Correctness is unaffected — `uᵢ ≥ u` still holds, since a
    /// site that gets no reply simply keeps its older (larger) threshold.
    #[must_use]
    pub fn reply_only_on_change(mut self) -> Self {
        self.reply_only_on_change = true;
        self
    }

    /// The global threshold `u(t)`.
    #[must_use]
    pub fn threshold(&self) -> UnitValue {
        self.sample.threshold()
    }

    /// The bottom-`s` structure (entries with hashes, for estimators).
    #[must_use]
    pub fn bottom(&self) -> &BottomS {
        &self.sample
    }
}

/// Checkpoint layout: hash function, reply policy, and the bottom-`s`
/// sample `P` (Algorithm 2's entire state).
impl Wire for LazyCoordinator {
    const MIN_BYTES: usize = SeededHash::MIN_BYTES + 1 + BottomS::MIN_STATE_BYTES;

    fn put(&self, w: &mut StateWriter) {
        w.put(&self.hasher);
        w.put(&self.reply_only_on_change);
        self.sample.encode_state(w);
    }

    fn get(r: &mut StateReader<'_>) -> Result<Self, CheckpointError> {
        let hasher: SeededHash = r.get()?;
        let reply_only_on_change = r.get()?;
        let sample = BottomS::decode_state(r, &hasher)?;
        Ok(Self {
            hasher,
            sample,
            reply_only_on_change,
        })
    }
}

impl CoordinatorNode for LazyCoordinator {
    type Up = UpElem;
    type Down = DownThreshold;

    fn handle(
        &mut self,
        from: SiteId,
        msg: UpElem,
        _now: Slot,
        out: &mut Vec<(Destination, DownThreshold)>,
    ) {
        let h = self.hasher.unit(msg.element.0);
        let before = self.threshold();
        // Offer admits iff h beats the threshold (or P is not yet full)
        // and the element is new — Algorithm 2 lines 4–9.
        self.sample.offer(msg.element, h);
        let after = self.threshold();
        // Line 11: reply (always) with the current u — unless the
        // reply-on-change ablation is active and u is unchanged.
        if !self.reply_only_on_change || after != before {
            out.push((Destination::Site(from), DownThreshold { u: after.0 }));
        }
    }

    fn sample(&self) -> Vec<Element> {
        self.sample.elements()
    }

    fn memory_tuples(&self) -> usize {
        self.sample.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::centralized::CentralizedSampler;
    use dds_data::{RouteTarget, Router, Routing, TraceLikeStream, TraceProfile};

    fn run_against_oracle(routing: Routing, k: usize, s: usize, seed: u64) {
        let config = InfiniteConfig::with_seed(s, 0xabc0 + seed);
        let mut cluster = config.cluster(k);
        let mut oracle = CentralizedSampler::new(s, config.hasher());
        let profile = TraceProfile {
            name: "t",
            total: 20_000,
            distinct: 5_000,
        };
        let stream = TraceLikeStream::new(profile, seed);
        let mut router = Router::new(routing, k, seed ^ 1);
        for e in stream {
            oracle.observe(e);
            match router.route() {
                RouteTarget::One(site) => cluster.observe(site, e),
                RouteTarget::All => cluster.observe_at_all(e),
            }
            debug_assert_eq!(cluster.sample(), oracle.sample());
        }
        assert_eq!(
            cluster.sample(),
            oracle.sample(),
            "distributed sample must equal centralized bottom-s"
        );
        assert_eq!(cluster.sample().len(), s.min(5_000));
        // Threshold invariant: every site's uᵢ ≥ the coordinator's u.
        let u = cluster.coordinator().threshold();
        for i in 0..k {
            assert!(cluster.site(SiteId(i)).threshold() >= u);
        }
    }

    #[test]
    fn matches_oracle_random_routing() {
        run_against_oracle(Routing::Random, 5, 10, 1);
    }

    #[test]
    fn matches_oracle_flooding() {
        run_against_oracle(Routing::Flooding, 4, 8, 2);
    }

    #[test]
    fn matches_oracle_round_robin() {
        run_against_oracle(Routing::RoundRobin, 7, 3, 3);
    }

    #[test]
    fn matches_oracle_dominate() {
        run_against_oracle(Routing::Dominate { alpha: 50.0 }, 6, 5, 4);
    }

    #[test]
    fn matches_oracle_single_site() {
        run_against_oracle(Routing::Random, 1, 10, 5);
    }

    #[test]
    fn matches_oracle_s_one() {
        run_against_oracle(Routing::Random, 5, 1, 6);
    }

    #[test]
    fn sample_grows_to_min_s_d() {
        let config = InfiniteConfig::new(10);
        let mut cluster = config.cluster(3);
        for e in 0..4u64 {
            cluster.observe(SiteId((e % 3) as usize), Element(e));
        }
        assert_eq!(cluster.sample().len(), 4, "sample is min(s, d) = d");
    }

    #[test]
    fn repeats_at_same_site_are_mostly_free() {
        let config = InfiniteConfig::new(4);
        let mut cluster = config.cluster(1);
        for e in 0..1000u64 {
            cluster.observe(SiteId(0), Element(e));
        }
        let before = cluster.counters().total_messages();
        // Repeat the whole stream: only in-sample elements may trigger
        // (useless) sends; with s=4 and d=1000 that is at most 2·4·2
        // messages per full replay — tiny compared to `before`.
        for e in 0..1000u64 {
            cluster.observe(SiteId(0), Element(e));
        }
        let extra = cluster.counters().total_messages() - before;
        assert!(
            extra <= 2 * 4,
            "repeats caused {extra} messages; expected at most 2 per in-sample element"
        );
        assert!(before > 25, "sanity: the first pass must have communicated");
    }

    /// The fidelity note in the crate docs, measured: on a stream whose
    /// distinct set has saturated, the verbatim protocol keeps paying
    /// ≈ 2·n·(s-1)/d messages for repeats of in-sample elements.
    #[test]
    fn in_sample_repeat_cost_matches_prediction() {
        let (s, d) = (10usize, 1_000u64);
        let config = InfiniteConfig::with_seed(s, 77);
        let mut cluster = config.cluster(1);
        let elems: Vec<Element> = dds_data::DistinctOnlyStream::new(d, 3).collect();
        for &e in &elems {
            cluster.observe(SiteId(0), e);
        }
        let before = cluster.counters().total_messages();
        // Replay the whole distinct set r times: d stays fixed, n grows.
        let rounds = 20u64;
        for _ in 0..rounds {
            for &e in &elems {
                cluster.observe(SiteId(0), e);
            }
        }
        let extra = (cluster.counters().total_messages() - before) as f64;
        // Exactly s-1 of the d elements are sampled-non-threshold; each
        // replay round re-sends each of them once (2 messages per send).
        let predicted = (rounds * 2 * (s as u64 - 1)) as f64;
        let rel = (extra - predicted).abs() / predicted;
        assert!(
            rel < 0.05,
            "repeat-spam measured {extra} vs predicted {predicted} (rel {rel:.3})"
        );
    }

    /// [`crate::bounds::repeat_overhead`] is a *model*, not just a shape:
    /// on a repeat-heavy stream (n/d = 20, the quickstart's regime) the
    /// measured message count must match Lemma 4 + the repeat tax to
    /// within tolerance, and must exceed Lemma 4 alone — the published
    /// bound undercounts exactly as the fidelity note in the crate docs
    /// says.
    #[test]
    fn repeat_overhead_matches_measured_on_repeat_heavy_stream() {
        let k = 4;
        let s = 16;
        let profile = TraceProfile {
            name: "repeat-heavy",
            total: 60_000,
            distinct: 3_000,
        };
        let bound = crate::bounds::lemma4_upper(k, s, profile.distinct);
        let tax = crate::bounds::repeat_overhead(s, profile.total, profile.distinct);
        assert!(tax > bound, "n/d = 20 puts the tax above the bound itself");
        let predicted = bound + tax;
        // Average a few seeded runs: the prediction is an expectation.
        let runs = 3u64;
        let mut measured_total = 0.0;
        for seed in 0..runs {
            let config = InfiniteConfig::with_seed(s, 0xbeef + seed);
            let mut cluster = config.cluster(k);
            let mut router = Router::new(Routing::Random, k, seed ^ 5);
            for e in TraceLikeStream::new(profile, 42 + seed) {
                match router.route() {
                    RouteTarget::One(site) => cluster.observe(site, e),
                    RouteTarget::All => cluster.observe_at_all(e),
                }
            }
            let total = cluster.counters().total_messages() as f64;
            assert!(
                total > bound,
                "measured {total:.0} under Lemma 4 bound {bound:.0}: the repeat \
                 tax should make the bound unreachable on this stream"
            );
            measured_total += total;
        }
        let measured = measured_total / runs as f64;
        let rel = (measured - predicted).abs() / predicted;
        assert!(
            rel < 0.25,
            "measured {measured:.0} vs predicted {predicted:.0} \
             (bound {bound:.0} + tax {tax:.0}); rel error {rel:.3}"
        );
    }

    #[test]
    fn flooding_costs_about_k_times_random() {
        // Observation 1's consequence, and the headline of Figure 5.1.
        let k = 5;
        let s = 10;
        let profile = TraceProfile {
            name: "t",
            total: 30_000,
            distinct: 10_000,
        };
        let total_for = |routing: Routing| {
            let config = InfiniteConfig::with_seed(s, 99);
            let mut cluster = config.cluster(k);
            let mut router = Router::new(routing, k, 7);
            for e in TraceLikeStream::new(profile, 13) {
                match router.route() {
                    RouteTarget::One(site) => cluster.observe(site, e),
                    RouteTarget::All => cluster.observe_at_all(e),
                }
            }
            cluster.counters().total_messages() as f64
        };
        let flood = total_for(Routing::Flooding);
        let random = total_for(Routing::Random);
        let ratio = flood / random;
        assert!(
            ratio > 2.0,
            "flooding should cost several times random routing, got {ratio:.2}"
        );
    }

    #[test]
    fn messages_within_lemma4_bound() {
        let k = 5;
        let s = 10;
        let d = 10_000u64;
        let config = InfiniteConfig::with_seed(s, 5);
        let mut cluster = config.cluster(k);
        let mut router = Router::new(Routing::Random, k, 3);
        for e in dds_data::DistinctOnlyStream::new(d, 11) {
            match router.route() {
                RouteTarget::One(site) => cluster.observe(site, e),
                RouteTarget::All => cluster.observe_at_all(e),
            }
        }
        let measured = cluster.counters().total_messages() as f64;
        let bound = crate::bounds::lemma4_upper(k, s, d);
        assert!(
            measured <= bound,
            "measured {measured} exceeds Lemma 4 bound {bound}"
        );
    }

    #[test]
    fn deterministic_given_seeds() {
        let run = || {
            let config = InfiniteConfig::with_seed(5, 1);
            let mut cluster = config.cluster(3);
            let mut router = Router::new(Routing::Random, 3, 2);
            for e in dds_data::DistinctOnlyStream::new(2_000, 3) {
                match router.route() {
                    RouteTarget::One(site) => cluster.observe(site, e),
                    RouteTarget::All => cluster.observe_at_all(e),
                }
            }
            (
                cluster.sample(),
                cluster.counters().total_messages(),
                cluster.counters().total_bytes(),
            )
        };
        assert_eq!(run(), run());
    }
}
