//! Algorithm *Broadcast* — the eager-synchronisation baseline of §5.2.
//!
//! Identical sampling semantics to [`crate::infinite`], different refresh
//! policy: "Algorithm Broadcast will broadcast the current value of `u` to
//! all sites whenever there is an update to `u`. This version has the
//! advantage that fewer messages are sent from the sites to the
//! coordinator, since the `uᵢ`s are always in sync with the coordinator.
//! However, this has the downside of requiring a broadcast each time `u`
//! changes."
//!
//! Charging model: one broadcast = `k` coordinator→site messages (each
//! site must receive its copy). No unicast acknowledgement is sent — the
//! whole point of the baseline is that sites are kept in sync by the
//! broadcasts alone. The experiments of Figures 5.4–5.6 compare this
//! against the lazy protocol.

use dds_hash::family::HashFamily;
use dds_hash::{SeededHash, UnitHash, UnitValue};
use dds_sim::{Cluster, CoordinatorNode, Destination, Element, SiteId, SiteNode, Slot};

use crate::centralized::BottomS;
use crate::messages::{DownThreshold, UpElem};

/// Configuration for the Broadcast baseline (mirrors
/// [`crate::infinite::InfiniteConfig`]).
#[derive(Debug, Clone, Copy)]
pub struct BroadcastConfig {
    /// Sample size `s ≥ 1`.
    pub s: usize,
    /// Shared hash family.
    pub family: HashFamily,
}

impl BroadcastConfig {
    /// Config with an explicit family seed.
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

    /// Assemble a ready-to-run cluster of `k` sites.
    #[must_use]
    pub fn cluster(&self, k: usize) -> Cluster<BroadcastSite, BroadcastCoordinator> {
        let sites = (0..k).map(|_| BroadcastSite::new(self.hasher())).collect();
        Cluster::new(sites, BroadcastCoordinator::new(self.s, self.hasher()))
    }
}

/// Site half of Algorithm Broadcast: same filter as the lazy site, but
/// `uᵢ` is refreshed solely by broadcasts.
#[derive(Debug, Clone)]
pub struct BroadcastSite {
    hasher: SeededHash,
    u_i: UnitValue,
}

impl BroadcastSite {
    /// A site sharing the protocol hash function.
    #[must_use]
    pub fn new(hasher: SeededHash) -> Self {
        Self {
            hasher,
            u_i: UnitValue::ONE,
        }
    }

    /// The site's threshold (always equal to the coordinator's `u` in
    /// synchronous execution).
    #[must_use]
    pub fn threshold(&self) -> UnitValue {
        self.u_i
    }
}

impl SiteNode for BroadcastSite {
    type Up = UpElem;
    type Down = DownThreshold;

    fn observe(&mut self, e: Element, _now: Slot, out: &mut Vec<UpElem>) {
        if self.hasher.unit(e.0) < self.u_i {
            out.push(UpElem { element: e });
        }
    }

    fn handle(&mut self, msg: DownThreshold, _now: Slot, _out: &mut Vec<UpElem>) {
        self.u_i = UnitValue(msg.u);
    }
}

/// Coordinator half of Algorithm Broadcast.
#[derive(Debug, Clone)]
pub struct BroadcastCoordinator {
    hasher: SeededHash,
    sample: BottomS,
    broadcasts: u64,
}

impl BroadcastCoordinator {
    /// A coordinator with sample size `s`.
    #[must_use]
    pub fn new(s: usize, hasher: SeededHash) -> Self {
        Self {
            hasher,
            sample: BottomS::new(s),
            broadcasts: 0,
        }
    }

    /// Number of broadcasts performed (each costing `k` messages).
    #[must_use]
    pub fn broadcasts(&self) -> u64 {
        self.broadcasts
    }

    /// The global threshold.
    #[must_use]
    pub fn threshold(&self) -> UnitValue {
        self.sample.threshold()
    }
}

impl CoordinatorNode for BroadcastCoordinator {
    type Up = UpElem;
    type Down = DownThreshold;

    fn handle(
        &mut self,
        _from: SiteId,
        msg: UpElem,
        _now: Slot,
        out: &mut Vec<(Destination, DownThreshold)>,
    ) {
        let before = self.sample.threshold();
        self.sample
            .offer(msg.element, self.hasher.unit(msg.element.0));
        let after = self.sample.threshold();
        if after != before {
            self.broadcasts += 1;
            out.push((Destination::Broadcast, DownThreshold { u: after.0 }));
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
    use crate::infinite::InfiniteConfig;
    use dds_data::{RouteTarget, Router, Routing, TraceLikeStream, TraceProfile};

    #[test]
    fn broadcast_matches_oracle() {
        let k = 6;
        let s = 7;
        let config = BroadcastConfig::with_seed(s, 21);
        let mut cluster = config.cluster(k);
        let mut oracle = CentralizedSampler::new(s, config.hasher());
        let mut router = Router::new(Routing::Random, k, 3);
        let profile = TraceProfile {
            name: "t",
            total: 15_000,
            distinct: 4_000,
        };
        for e in TraceLikeStream::new(profile, 5) {
            oracle.observe(e);
            match router.route() {
                RouteTarget::One(site) => cluster.observe(site, e),
                RouteTarget::All => cluster.observe_at_all(e),
            }
        }
        assert_eq!(cluster.sample(), oracle.sample());
    }

    #[test]
    fn sites_stay_in_sync() {
        let k = 4;
        let config = BroadcastConfig::with_seed(3, 2);
        let mut cluster = config.cluster(k);
        for e in dds_data::DistinctOnlyStream::new(500, 9) {
            cluster.observe(SiteId((e.0 % k as u64) as usize), e);
            let u = cluster.coordinator().threshold();
            for i in 0..k {
                assert_eq!(
                    cluster.site(SiteId(i)).threshold(),
                    u,
                    "broadcast must keep every site in sync"
                );
            }
        }
    }

    #[test]
    fn broadcast_costs_k_per_update() {
        let k = 10;
        let config = BroadcastConfig::with_seed(2, 4);
        let mut cluster = config.cluster(k);
        for e in dds_data::DistinctOnlyStream::new(300, 1) {
            cluster.observe(SiteId(0), e);
        }
        let bcasts = cluster.coordinator().broadcasts();
        assert!(bcasts > 0);
        assert_eq!(
            cluster.counters().down_messages(),
            bcasts * k as u64,
            "each broadcast must be charged k messages"
        );
    }

    #[test]
    fn broadcast_beats_lazy_on_upstream_but_loses_overall_at_large_k() {
        // The shape of Figure 5.4: at k = 100 the broadcast traffic
        // dominates and the lazy protocol wins overall.
        let k = 100;
        let s = 20;
        let profile = TraceProfile {
            name: "t",
            total: 40_000,
            distinct: 12_000,
        };
        let mut lazy_cluster = InfiniteConfig::with_seed(s, 8).cluster(k);
        let mut bc_cluster = BroadcastConfig::with_seed(s, 8).cluster(k);
        let mut router_a = Router::new(Routing::Random, k, 17);
        let mut router_b = Router::new(Routing::Random, k, 17);
        for e in TraceLikeStream::new(profile, 3) {
            match router_a.route() {
                RouteTarget::One(site) => lazy_cluster.observe(site, e),
                RouteTarget::All => lazy_cluster.observe_at_all(e),
            }
            match router_b.route() {
                RouteTarget::One(site) => bc_cluster.observe(site, e),
                RouteTarget::All => bc_cluster.observe_at_all(e),
            }
        }
        let lazy_total = lazy_cluster.counters().total_messages();
        let bc_total = bc_cluster.counters().total_messages();
        let bc_up = bc_cluster.counters().up_messages();
        let lazy_up = lazy_cluster.counters().up_messages();
        assert!(
            bc_up <= lazy_up,
            "synced thresholds must reduce site sends ({bc_up} vs {lazy_up})"
        );
        assert!(
            bc_total > lazy_total,
            "broadcast must lose overall at k=100 ({bc_total} vs {lazy_total})"
        );
    }

    #[test]
    fn both_agree_with_each_other() {
        // Same hash seed ⇒ identical samples regardless of protocol.
        let k = 3;
        let s = 5;
        let mut a = InfiniteConfig::with_seed(s, 11).cluster(k);
        let mut b = BroadcastConfig::with_seed(s, 11).cluster(k);
        for e in dds_data::DistinctOnlyStream::new(2_000, 2) {
            let site = SiteId((e.0 % 3) as usize);
            a.observe(site, e);
            b.observe(site, e);
        }
        assert_eq!(a.sample(), b.sample());
    }
}
