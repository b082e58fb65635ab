//! Element→site distribution strategies (§5.1 and §5.2 of the paper).
//!
//! The theoretical analysis is worst-case over adversarial distributions;
//! the experiments then measure three natural ones — *flooding* (every
//! element observed by every site), *random* (one uniformly random site),
//! and *round-robin* — plus the *dominate-rate* skew of §5.2 where site 0
//! is `α` times more likely than any other site to receive an element.

use dds_hash::splitmix::SplitMix64;
use dds_sim::SiteId;

/// Which site(s) observe the next stream element.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RouteTarget {
    /// Exactly one site observes the element.
    One(SiteId),
    /// Every site observes the element (flooding).
    All,
}

/// A data-distribution strategy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Routing {
    /// Each element is assigned to every site.
    Flooding,
    /// Each element is sent to a single site chosen uniformly at random.
    Random,
    /// The `j`-th element is monitored by site `j mod k`.
    RoundRobin,
    /// Each element goes to a single site; site 0 is `alpha` times more
    /// likely than each other site (the paper's "dominate rate": with
    /// `alpha = 200`, site 0 is 200× more likely than any other site).
    Dominate {
        /// The dominate rate α ≥ 1.
        alpha: f64,
    },
}

impl Routing {
    /// Short label used in figure legends.
    #[must_use]
    pub fn label(&self) -> String {
        match self {
            Routing::Flooding => "flooding".into(),
            Routing::Random => "random".into(),
            Routing::RoundRobin => "round-robin".into(),
            Routing::Dominate { alpha } => format!("dominate({alpha})"),
        }
    }
}

/// A stateful router: applies a [`Routing`] to a stream of elements.
#[derive(Debug, Clone)]
pub struct Router {
    routing: Routing,
    k: usize,
    rng: SplitMix64,
    next_rr: usize,
}

impl Router {
    /// A router over `k ≥ 1` sites, deterministic under `seed`.
    ///
    /// # Panics
    /// Panics if `k == 0`, or if a dominate rate below 1 is configured.
    #[must_use]
    pub fn new(routing: Routing, k: usize, seed: u64) -> Self {
        assert!(k >= 1, "need at least one site");
        if let Routing::Dominate { alpha } = routing {
            assert!(
                alpha.is_finite() && alpha >= 1.0,
                "dominate rate must be >= 1"
            );
        }
        Self {
            routing,
            k,
            rng: SplitMix64::new(seed),
            next_rr: 0,
        }
    }

    /// Number of sites.
    #[must_use]
    pub fn k(&self) -> usize {
        self.k
    }

    /// The strategy in force.
    #[must_use]
    pub fn routing(&self) -> Routing {
        self.routing
    }

    /// Route the next element.
    pub fn route(&mut self) -> RouteTarget {
        match self.routing {
            Routing::Flooding => RouteTarget::All,
            Routing::Random => {
                RouteTarget::One(SiteId(self.rng.next_below(self.k as u64) as usize))
            }
            Routing::RoundRobin => {
                let site = SiteId(self.next_rr);
                self.next_rr = (self.next_rr + 1) % self.k;
                RouteTarget::One(site)
            }
            Routing::Dominate { alpha } => {
                // Site 0 has weight alpha, the k-1 others weight 1.
                let total = alpha + (self.k - 1) as f64;
                let x = self.rng.next_f64() * total;
                if x < alpha || self.k == 1 {
                    RouteTarget::One(SiteId(0))
                } else {
                    let rest = ((x - alpha) as usize).min(self.k - 2);
                    RouteTarget::One(SiteId(1 + rest))
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flooding_targets_all() {
        let mut r = Router::new(Routing::Flooding, 5, 0);
        for _ in 0..10 {
            assert_eq!(r.route(), RouteTarget::All);
        }
    }

    #[test]
    fn round_robin_cycles() {
        let mut r = Router::new(Routing::RoundRobin, 3, 0);
        let sites: Vec<usize> = (0..7)
            .map(|_| match r.route() {
                RouteTarget::One(SiteId(i)) => i,
                RouteTarget::All => panic!("unexpected flood"),
            })
            .collect();
        assert_eq!(sites, vec![0, 1, 2, 0, 1, 2, 0]);
    }

    #[test]
    fn random_is_roughly_uniform() {
        let mut r = Router::new(Routing::Random, 4, 9);
        let mut counts = [0u32; 4];
        for _ in 0..40_000 {
            match r.route() {
                RouteTarget::One(SiteId(i)) => counts[i] += 1,
                RouteTarget::All => panic!(),
            }
        }
        for c in counts {
            assert!((9_000..=11_000).contains(&c), "count {c}");
        }
    }

    #[test]
    fn dominate_rate_skews_to_site_zero() {
        let alpha = 50.0;
        let k = 11;
        let mut r = Router::new(Routing::Dominate { alpha }, k, 2);
        let mut counts = vec![0u64; k];
        let n = 60_000;
        for _ in 0..n {
            match r.route() {
                RouteTarget::One(SiteId(i)) => counts[i] += 1,
                RouteTarget::All => panic!(),
            }
        }
        let p0 = counts[0] as f64 / n as f64;
        let expected0 = alpha / (alpha + (k - 1) as f64);
        assert!(
            (p0 - expected0).abs() < 0.02,
            "site0 share {p0} vs expected {expected0}"
        );
        // Each other site ~ uniform share of the remainder.
        let expected_other = 1.0 / (alpha + (k - 1) as f64);
        for (i, &c) in counts.iter().enumerate().skip(1) {
            let p = c as f64 / n as f64;
            assert!(
                (p - expected_other).abs() < 0.01,
                "site{i} share {p} vs {expected_other}"
            );
        }
    }

    #[test]
    fn dominate_with_one_site_is_total() {
        let mut r = Router::new(Routing::Dominate { alpha: 100.0 }, 1, 5);
        for _ in 0..100 {
            assert_eq!(r.route(), RouteTarget::One(SiteId(0)));
        }
    }

    #[test]
    fn dominate_rate_one_is_uniform() {
        let mut r = Router::new(Routing::Dominate { alpha: 1.0 }, 5, 11);
        let mut counts = [0u64; 5];
        for _ in 0..50_000 {
            match r.route() {
                RouteTarget::One(SiteId(i)) => counts[i] += 1,
                RouteTarget::All => panic!(),
            }
        }
        for c in counts {
            let p = c as f64 / 50_000.0;
            assert!((p - 0.2).abs() < 0.02, "share {p}");
        }
    }

    #[test]
    fn labels() {
        assert_eq!(Routing::Flooding.label(), "flooding");
        assert_eq!(Routing::Dominate { alpha: 200.0 }.label(), "dominate(200)");
    }

    #[test]
    #[should_panic(expected = "need at least one site")]
    fn zero_sites_rejected() {
        let _ = Router::new(Routing::Random, 0, 0);
    }

    #[test]
    #[should_panic(expected = "dominate rate must be >= 1")]
    fn bad_dominate_rate_rejected() {
        let _ = Router::new(Routing::Dominate { alpha: 0.5 }, 3, 0);
    }

    #[test]
    fn deterministic_under_seed() {
        let run = |seed| {
            let mut r = Router::new(Routing::Random, 7, seed);
            (0..100)
                .map(|_| match r.route() {
                    RouteTarget::One(SiteId(i)) => i,
                    RouteTarget::All => usize::MAX,
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(run(3), run(3));
        assert_ne!(run(3), run(4));
    }
}
