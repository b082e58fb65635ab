//! Distributed *random* sampling (DRS) — the non-distinct baseline for the
//! introduction's DDS-vs-DRS comparison.
//!
//! DRS samples uniformly from all *occurrences*: an element appearing 100
//! times is 100× more likely to be sampled than one appearing once.
//! The paper contrasts the message complexities — DRS costs roughly
//! `max{k, s}·log(n/s)` (Cormode–Muthukrishnan–Yi–Zhang, Tirthapura–
//! Woodruff) while DDS inherently needs `ks·ln(de/s)` — and attributes
//! the gap to the extra coordination distinctness forces.
//!
//! Two DRS variants are provided:
//!
//! * [`DrsConfig`] — *lazy-threshold* DRS: each occurrence draws a fresh
//!   uniform priority at its site; a site forwards occurrences whose
//!   priority beats its threshold view; the coordinator keeps the
//!   bottom-`s` priorities and replies with the threshold. This is
//!   deliberately the **same protocol skeleton as our DDS algorithm with
//!   per-occurrence randomness instead of per-element hashing** — it
//!   isolates the `s/n` vs `s/d` inclusion-decay difference, but it pays
//!   the same `k·s` product in messages, so it cannot exhibit the
//!   `max{k, s}` scaling the optimal DRS enjoys.
//! * [`HalvingConfig`] — the *halving-broadcast* DRS in the spirit of
//!   Cormode–Muthukrishnan–Yi–Zhang: the coordinator maintains a global
//!   threshold `z` that it halves (and broadcasts) whenever the sample's
//!   `s`-th smallest priority drops below `z/2`; sites send occurrences
//!   with priority below the broadcast `z` and receive **no unicast
//!   replies**. Expected messages `≈ 2s·ln(n/s) + k·log₂(n/s)` — the
//!   `(k + s)·log` *sum* shape versus DDS's inherent `k·s·log` *product*
//!   (Theorem 1), which is precisely the contrast the introduction draws.
//!   The bench `ext_dds_vs_drs` plots both against
//!   [`crate::bounds::drs_theta`].

use dds_hash::splitmix::SplitMix64;
use dds_hash::UnitValue;
use dds_sim::{Cluster, CoordinatorNode, Destination, Element, SiteId, SiteNode, Slot};

use crate::messages::DownThreshold;
use dds_sim::message::{put_element, put_hash};
use dds_sim::WireMessage;

/// Site → coordinator: an occurrence and its drawn priority.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DrsUp {
    /// The element (occurrence) observed.
    pub element: Element,
    /// The uniform priority drawn for this occurrence.
    pub priority: u64,
}

impl WireMessage for DrsUp {
    fn encode(&self, buf: &mut Vec<u8>) {
        put_element(buf, self.element);
        put_hash(buf, self.priority);
    }

    fn wire_bytes(&self) -> usize {
        16
    }
}

/// Configuration for the lazy DRS baseline.
#[derive(Debug, Clone, Copy)]
pub struct DrsConfig {
    /// Sample size `s ≥ 1`.
    pub s: usize,
    /// Master seed for the per-site priority generators.
    pub seed: u64,
}

impl DrsConfig {
    /// Config with sample size and seed.
    ///
    /// # Panics
    /// Panics if `s == 0`.
    #[must_use]
    pub fn new(s: usize, seed: u64) -> Self {
        assert!(s > 0, "sample size must be at least 1");
        Self { s, seed }
    }

    /// Assemble a cluster of `k` sites.
    #[must_use]
    pub fn cluster(&self, k: usize) -> Cluster<DrsSite, DrsCoordinator> {
        let sites = (0..k)
            .map(|i| DrsSite::new(self.seed ^ (0x9e37 + i as u64)))
            .collect();
        Cluster::new(sites, DrsCoordinator::new(self.s))
    }
}

/// DRS site: fresh priority per occurrence, lazy threshold.
#[derive(Debug, Clone)]
pub struct DrsSite {
    rng: SplitMix64,
    z_i: UnitValue,
}

impl DrsSite {
    /// A site with its own priority stream.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        Self {
            rng: SplitMix64::new(seed),
            z_i: UnitValue::ONE,
        }
    }

    /// The site's current threshold view.
    #[must_use]
    pub fn threshold(&self) -> UnitValue {
        self.z_i
    }
}

impl SiteNode for DrsSite {
    type Up = DrsUp;
    type Down = DownThreshold;

    fn observe(&mut self, e: Element, _now: Slot, out: &mut Vec<DrsUp>) {
        let priority = self.rng.next_u64();
        if UnitValue(priority) < self.z_i {
            out.push(DrsUp {
                element: e,
                priority,
            });
        }
    }

    fn handle(&mut self, msg: DownThreshold, _now: Slot, _out: &mut Vec<DrsUp>) {
        self.z_i = UnitValue(msg.u);
    }
}

/// DRS coordinator: bottom-`s` priorities across all forwarded occurrences.
#[derive(Debug, Clone)]
pub struct DrsCoordinator {
    s: usize,
    /// (priority, tie-break counter) → element. Distinct occurrences of
    /// the same element coexist (this is occurrence sampling).
    sample: std::collections::BTreeMap<(u64, u64), Element>,
    arrivals: u64,
}

impl DrsCoordinator {
    /// A coordinator with sample size `s`.
    #[must_use]
    pub fn new(s: usize) -> Self {
        Self {
            s,
            sample: std::collections::BTreeMap::new(),
            arrivals: 0,
        }
    }

    /// Current threshold `z`: the `s`-th smallest priority (1 if the
    /// sample is not yet full).
    #[must_use]
    pub fn threshold(&self) -> UnitValue {
        if self.sample.len() < self.s {
            UnitValue::ONE
        } else {
            self.sample
                .keys()
                .next_back()
                .map(|&(p, _)| UnitValue(p))
                .expect("non-empty")
        }
    }
}

impl CoordinatorNode for DrsCoordinator {
    type Up = DrsUp;
    type Down = DownThreshold;

    fn handle(
        &mut self,
        from: SiteId,
        msg: DrsUp,
        _now: Slot,
        out: &mut Vec<(Destination, DownThreshold)>,
    ) {
        self.arrivals += 1;
        if UnitValue(msg.priority) < self.threshold() {
            self.sample
                .insert((msg.priority, self.arrivals), msg.element);
            while self.sample.len() > self.s {
                let last = *self.sample.keys().next_back().expect("over-full");
                self.sample.remove(&last);
            }
        }
        out.push((
            Destination::Site(from),
            DownThreshold {
                u: self.threshold().0,
            },
        ));
    }

    fn sample(&self) -> Vec<Element> {
        self.sample.values().copied().collect()
    }

    fn memory_tuples(&self) -> usize {
        self.sample.len()
    }
}

/// Configuration for the halving-broadcast DRS.
#[derive(Debug, Clone, Copy)]
pub struct HalvingConfig {
    /// Sample size `s ≥ 1`.
    pub s: usize,
    /// Master seed for the per-site priority generators.
    pub seed: u64,
}

impl HalvingConfig {
    /// Config with sample size and seed.
    ///
    /// # Panics
    /// Panics if `s == 0`.
    #[must_use]
    pub fn new(s: usize, seed: u64) -> Self {
        assert!(s > 0, "sample size must be at least 1");
        Self { s, seed }
    }

    /// Assemble a cluster of `k` sites.
    #[must_use]
    pub fn cluster(&self, k: usize) -> Cluster<HalvingSite, HalvingCoordinator> {
        let sites = (0..k)
            .map(|i| HalvingSite::new(self.seed ^ (0x51de + i as u64)))
            .collect();
        Cluster::new(sites, HalvingCoordinator::new(self.s))
    }
}

/// Halving-DRS site: forwards occurrences whose fresh priority beats the
/// last *broadcast* threshold; receives no unicast traffic.
#[derive(Debug, Clone)]
pub struct HalvingSite {
    rng: SplitMix64,
    z: UnitValue,
}

impl HalvingSite {
    /// A site with its own priority stream.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        Self {
            rng: SplitMix64::new(seed),
            z: UnitValue::ONE,
        }
    }
}

impl SiteNode for HalvingSite {
    type Up = DrsUp;
    type Down = DownThreshold;

    fn observe(&mut self, e: Element, _now: Slot, out: &mut Vec<DrsUp>) {
        let priority = self.rng.next_u64();
        if UnitValue(priority) < self.z {
            out.push(DrsUp {
                element: e,
                priority,
            });
        }
    }

    fn handle(&mut self, msg: DownThreshold, _now: Slot, _out: &mut Vec<DrsUp>) {
        self.z = UnitValue(msg.u);
    }
}

/// Halving-DRS coordinator: bottom-`s` priorities plus the broadcast
/// threshold `z`, halved whenever the `s`-th smallest priority falls
/// below `z/2` (so `z` stays within 2× of the true sampling threshold).
#[derive(Debug, Clone)]
pub struct HalvingCoordinator {
    s: usize,
    sample: std::collections::BTreeMap<(u64, u64), Element>,
    arrivals: u64,
    z: u64,
    halvings: u64,
}

impl HalvingCoordinator {
    /// A coordinator with sample size `s`.
    #[must_use]
    pub fn new(s: usize) -> Self {
        Self {
            s,
            sample: std::collections::BTreeMap::new(),
            arrivals: 0,
            z: u64::MAX,
            halvings: 0,
        }
    }

    /// Number of threshold halvings broadcast so far.
    #[must_use]
    pub fn halvings(&self) -> u64 {
        self.halvings
    }

    /// The current broadcast threshold.
    #[must_use]
    pub fn z(&self) -> UnitValue {
        UnitValue(self.z)
    }
}

impl CoordinatorNode for HalvingCoordinator {
    type Up = DrsUp;
    type Down = DownThreshold;

    fn handle(
        &mut self,
        _from: SiteId,
        msg: DrsUp,
        _now: Slot,
        out: &mut Vec<(Destination, DownThreshold)>,
    ) {
        self.arrivals += 1;
        if msg.priority < self.z {
            self.sample
                .insert((msg.priority, self.arrivals), msg.element);
            while self.sample.len() > self.s {
                let last = *self.sample.keys().next_back().expect("over-full");
                self.sample.remove(&last);
            }
        }
        // Halve while the s-th smallest priority sits below z/2; the
        // invariant z > s-th smallest keeps every future sample candidate
        // inside the sites' send filter.
        if self.sample.len() == self.s {
            let max_priority = self.sample.keys().next_back().expect("full").0;
            let mut changed = false;
            while self.z / 2 > max_priority {
                self.z /= 2;
                self.halvings += 1;
                changed = true;
            }
            if changed {
                out.push((Destination::Broadcast, DownThreshold { u: self.z }));
            }
        }
    }

    fn sample(&self) -> Vec<Element> {
        self.sample.values().copied().collect()
    }

    fn memory_tuples(&self) -> usize {
        self.sample.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dds_data::{RouteTarget, Router, Routing};

    #[test]
    fn sample_size_is_min_s_n() {
        let config = DrsConfig::new(10, 1);
        let mut cluster = config.cluster(2);
        for e in 0..4u64 {
            cluster.observe(SiteId(0), Element(e));
        }
        assert_eq!(cluster.sample().len(), 4);
        for e in 0..100u64 {
            cluster.observe(SiteId(1), Element(e % 7));
        }
        assert_eq!(cluster.sample().len(), 10);
    }

    #[test]
    fn heavy_elements_are_oversampled() {
        // Element 0 is half the stream: it should occupy ≈ half the DRS
        // sample, averaged over runs — the frequency sensitivity that
        // distinct sampling removes.
        let mut zero_share = 0.0;
        let runs = 60;
        for run in 0..runs {
            let config = DrsConfig::new(20, run);
            let mut cluster = config.cluster(4);
            let mut rng = SplitMix64::new(run ^ 0xF00);
            for i in 0..4_000u64 {
                let e = if rng.next_below(2) == 0 {
                    Element(0)
                } else {
                    Element(1 + (i % 997))
                };
                cluster.observe(SiteId(rng.next_below(4) as usize), e);
            }
            let sample = cluster.sample();
            zero_share +=
                sample.iter().filter(|&&e| e == Element(0)).count() as f64 / sample.len() as f64;
        }
        zero_share /= f64::from(runs as u32);
        assert!(
            (0.4..=0.6).contains(&zero_share),
            "heavy element share {zero_share:.3}, expected ≈ 0.5"
        );
    }

    #[test]
    fn repeats_keep_costing_messages() {
        // Unlike DDS, re-observing the same element still triggers sends
        // (fresh priorities): messages grow ~ s·ln(n), not s·ln(d).
        let config = DrsConfig::new(5, 3);
        let mut cluster = config.cluster(1);
        for _ in 0..2_000u64 {
            cluster.observe(SiteId(0), Element(1)); // d = 1 forever
        }
        let msgs = cluster.counters().total_messages();
        // DDS on this input would send exactly 2 messages (first arrival);
        // DRS sends ~ 2·s·ln(2000/s) ≈ 60.
        assert!(
            msgs > 20,
            "DRS must keep communicating on repeats, got {msgs}"
        );
    }

    #[test]
    fn halving_drs_sample_is_uniform_over_occurrences() {
        // Element 0 is half the stream; averaged over seeds its share of
        // the halving-DRS sample must be ≈ 1/2.
        let mut zero_share = 0.0;
        let runs = 60;
        for run in 0..runs {
            let config = HalvingConfig::new(20, run);
            let mut cluster = config.cluster(4);
            let mut rng = SplitMix64::new(run ^ 0xBEE);
            for i in 0..4_000u64 {
                let e = if rng.next_below(2) == 0 {
                    Element(0)
                } else {
                    Element(1 + (i % 997))
                };
                cluster.observe(SiteId(rng.next_below(4) as usize), e);
            }
            let sample = cluster.sample();
            zero_share +=
                sample.iter().filter(|&&e| e == Element(0)).count() as f64 / sample.len() as f64;
        }
        zero_share /= f64::from(runs as u32);
        assert!(
            (0.4..=0.6).contains(&zero_share),
            "heavy element share {zero_share:.3}, expected ≈ 0.5"
        );
    }

    #[test]
    fn halving_broadcast_count_is_logarithmic() {
        let s = 10usize;
        let n = 40_000u64;
        let config = HalvingConfig::new(s, 3);
        let mut cluster = config.cluster(8);
        let mut rng = SplitMix64::new(5);
        for e in dds_data::DistinctOnlyStream::new(n, 2) {
            cluster.observe(SiteId(rng.next_below(8) as usize), e);
        }
        let halvings = cluster.coordinator().halvings();
        // log2(n/s) = log2(4000) ≈ 12; allow slack for randomness.
        assert!(
            (8..=16).contains(&halvings),
            "expected ≈ log2(n/s) ≈ 12 halvings, got {halvings}"
        );
        assert_eq!(
            cluster.counters().down_messages(),
            halvings * 8,
            "each halving must be charged k broadcast messages"
        );
    }

    #[test]
    fn halving_drs_beats_lazy_dds_under_flooding() {
        // The introduction's comparison, measured in the regime where it
        // bites. Under *random* routing, lazy DDS is nearly k-independent
        // (the paper's own Figure 5.3 observation), so no product-vs-sum
        // gap appears there. The k·s product is a worst-case phenomenon —
        // the lower bound's construction floods fresh elements to every
        // site — and under flooding DDS must pay ~2ks·ln(d/s) while the
        // halving DRS still pays only ~2s·ln(nk/s) + k·log₂(nk/s).
        let k = 50;
        let s = 10;
        let n = 10_000u64;
        let mut drs = HalvingConfig::new(s, 7).cluster(k);
        let mut dds = crate::infinite::InfiniteConfig::with_seed(s, 7).cluster(k);
        for e in dds_data::DistinctOnlyStream::new(n, 9) {
            drs.observe_at_all(e);
            dds.observe_at_all(e);
        }
        let drs_msgs = drs.counters().total_messages();
        let dds_msgs = dds.counters().total_messages();
        assert!(
            dds_msgs > 2 * drs_msgs,
            "under flooding at k={k}, product-shaped DDS ({dds_msgs}) must far \
             exceed sum-shaped DRS ({drs_msgs})"
        );
    }

    #[test]
    fn lazy_dds_is_nearly_k_independent_under_random_routing() {
        // The flip side (and Figure 5.3's message): with random routing the
        // lazy DDS cost barely moves as k grows.
        let msgs_at = |k: usize| {
            let mut dds = crate::infinite::InfiniteConfig::with_seed(10, 7).cluster(k);
            let mut router = Router::new(Routing::Random, k, 5);
            for e in dds_data::DistinctOnlyStream::new(20_000, 9) {
                match router.route() {
                    RouteTarget::One(site) => dds.observe(site, e),
                    RouteTarget::All => dds.observe_at_all(e),
                }
            }
            dds.counters().total_messages() as f64
        };
        let at_5 = msgs_at(5);
        let at_50 = msgs_at(50);
        assert!(
            at_50 < 3.0 * at_5,
            "random-routing DDS should grow far sublinearly in k: \
             k=5 → {at_5}, k=50 → {at_50}"
        );
    }

    #[test]
    fn threshold_invariant_sites_never_below_coordinator() {
        let config = DrsConfig::new(8, 11);
        let mut cluster = config.cluster(3);
        for i in 0..5_000u64 {
            cluster.observe(SiteId((i % 3) as usize), Element(i % 50));
        }
        let z = cluster.coordinator().threshold();
        for i in 0..3 {
            assert!(cluster.site(SiteId(i)).threshold() >= z);
        }
    }
}
