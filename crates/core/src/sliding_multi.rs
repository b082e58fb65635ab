//! Sliding-window sampling *with replacement* for `s > 1` — the paper's
//! parallel-copies recipe (§3) applied to Algorithms 3 & 4.
//!
//! `s` independent single-sample sliding protocols run side by side, copy
//! `j` under hash `h_j`; the answer is the vector of copy samples — `s`
//! independent uniform draws from the window's distinct elements. Message
//! cost is `s ×` the single-copy cost; per-site memory is the sum of `s`
//! candidate sets, i.e. expected `O(s·log|Dᵢ(t,w)|)`.
//!
//! Together with [`crate::sliding_nofeedback`] (bottom-`s` *without*
//! replacement via the s-skyband) this completes the sliding-window
//! sample-size story: both generalisations the paper waves at ("the
//! extension to larger sample sizes is straightforward") exist in
//! executable, tested form.

use dds_hash::family::HashFamily;
use dds_hash::{SeededHash, UnitValue};
use dds_sim::{Cluster, CoordinatorNode, Destination, Element, SiteId, SiteNode, Slot};

use crate::checkpoint::{self, CheckpointError, StateReader, StateWriter, Wire};
use crate::messages::{CopyDown, CopyUp, SwDown, SwUp};
use crate::sampler::{sealed, FusedSite};
use crate::sliding::{CoordinatorMode, SwCoordinator, SwSite};

/// Configuration: `s` sliding copies over a hash family.
#[derive(Debug, Clone, Copy)]
pub struct MultiSlidingConfig {
    /// Number of independent copies (= sample size, with replacement).
    pub s: usize,
    /// Window length in slots.
    pub window: u64,
    /// Family supplying `h_0 … h_{s-1}`.
    pub family: HashFamily,
    /// Coordinator mode for every copy.
    pub mode: CoordinatorMode,
}

impl MultiSlidingConfig {
    /// Config with an explicit family seed.
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
            mode: CoordinatorMode::Registry,
        }
    }

    /// The `s` copy hash functions.
    #[must_use]
    pub fn hashers(&self) -> Vec<SeededHash> {
        self.family.members(self.s).collect()
    }

    /// Assemble a cluster of `k` sites.
    #[must_use]
    pub fn cluster(&self, k: usize) -> Cluster<MultiSwSite, MultiSwCoordinator> {
        let sites = (0..k)
            .map(|_| MultiSwSite::new(self.window, self.hashers()))
            .collect();
        Cluster::new(sites, MultiSwCoordinator::new(self.hashers(), k, self.mode))
    }
}

/// Site: `s` independent [`SwSite`]s.
#[derive(Debug, Clone)]
pub struct MultiSwSite {
    copies: Vec<SwSite>,
}

impl MultiSwSite {
    /// A site given the copy hash functions.
    #[must_use]
    pub fn new(window: u64, hashers: Vec<SeededHash>) -> Self {
        Self {
            copies: hashers
                .into_iter()
                .map(|h| SwSite::new(window, h))
                .collect(),
        }
    }

    fn fan_out(copy: usize, inner: Vec<SwUp>, out: &mut Vec<CopyUp<SwUp>>) {
        out.extend(inner.into_iter().map(|m| CopyUp {
            copy: copy as u32,
            inner: m,
        }));
    }
}

/// Checkpoint layout: the `s` per-copy site states (at least one).
impl Wire for MultiSwSite {
    const MIN_BYTES: usize = 4;

    fn put(&self, w: &mut StateWriter) {
        w.put(&self.copies);
    }

    fn get(r: &mut StateReader<'_>) -> Result<Self, CheckpointError> {
        let copies: Vec<SwSite> = r.get()?;
        if copies.is_empty() {
            return Err(CheckpointError::Corrupt(
                "multi-sliding site has zero copies",
            ));
        }
        Ok(Self { copies })
    }
}

impl SiteNode for MultiSwSite {
    type Up = CopyUp<SwUp>;
    type Down = CopyDown<SwDown>;

    fn observe(&mut self, e: Element, now: Slot, out: &mut Vec<Self::Up>) {
        for j in 0..self.lanes() {
            out.extend(self.observe_lane(j, e, now));
        }
    }

    fn handle(&mut self, msg: Self::Down, now: Slot, out: &mut Vec<Self::Up>) {
        let j = msg.copy as usize;
        let mut inner = Vec::new();
        self.copies[j].handle(msg.inner, now, &mut inner);
        Self::fan_out(j, inner, out);
    }

    fn on_slot_start(&mut self, now: Slot, out: &mut Vec<Self::Up>) {
        let mut inner = Vec::new();
        for (j, site) in self.copies.iter_mut().enumerate() {
            site.on_slot_start(now, &mut inner);
            Self::fan_out(j, std::mem::take(&mut inner), out);
        }
    }

    fn memory_tuples(&self) -> usize {
        self.copies.iter().map(SiteNode::memory_tuples).sum()
    }
}

impl sealed::Sealed for MultiSwSite {}

impl FusedSite for MultiSwSite {
    type Coordinator = MultiSwCoordinator;
    const KIND: u8 = checkpoint::kind::SLIDING_MULTI;
    const CLOCKED: bool = true;

    fn lanes(&self) -> usize {
        self.copies.len()
    }

    /// Copy `lane`'s Algorithm 3 step, its up-message tagged with the
    /// copy.
    #[inline]
    fn observe_lane(&mut self, lane: usize, e: Element, now: Slot) -> Option<Self::Up> {
        self.copies[lane]
            .observe_lane(0, e, now)
            .map(|inner| CopyUp {
                copy: lane as u32,
                inner,
            })
    }

    fn threshold(_: &MultiSwCoordinator) -> Option<UnitValue> {
        None // each of the s copies has its own threshold
    }

    /// Every copy is idle (see [`SwSite`]'s idle test).
    fn idle(&self, coordinator: &MultiSwCoordinator, now: Slot) -> bool {
        self.copies
            .iter()
            .zip(&coordinator.copies)
            .all(|(site, coordinator)| site.idle(coordinator, now))
    }
}

/// Coordinator: `s` independent [`SwCoordinator`]s.
#[derive(Debug, Clone)]
pub struct MultiSwCoordinator {
    copies: Vec<SwCoordinator>,
}

impl MultiSwCoordinator {
    /// A coordinator given the copy hash functions.
    #[must_use]
    pub fn new(hashers: Vec<SeededHash>, k: usize, mode: CoordinatorMode) -> Self {
        Self {
            copies: hashers
                .into_iter()
                .map(|h| SwCoordinator::new(h, k, mode))
                .collect(),
        }
    }

    /// The with-replacement window sample: one element per copy whose
    /// window is non-empty.
    #[must_use]
    pub fn sample_with_replacement(&self) -> Vec<Element> {
        self.copies
            .iter()
            .filter_map(|c| c.current().map(|t| t.element))
            .collect()
    }
}

/// Checkpoint layout: the `s` per-copy coordinator states (at least
/// one).
impl Wire for MultiSwCoordinator {
    const MIN_BYTES: usize = 4;

    fn put(&self, w: &mut StateWriter) {
        w.put(&self.copies);
    }

    fn get(r: &mut StateReader<'_>) -> Result<Self, CheckpointError> {
        let copies: Vec<SwCoordinator> = r.get()?;
        if copies.is_empty() {
            return Err(CheckpointError::Corrupt(
                "multi-sliding coordinator has zero copies",
            ));
        }
        Ok(Self { copies })
    }
}

impl CoordinatorNode for MultiSwCoordinator {
    type Up = CopyUp<SwUp>;
    type Down = CopyDown<SwDown>;

    fn handle(
        &mut self,
        from: SiteId,
        msg: Self::Up,
        now: Slot,
        out: &mut Vec<(Destination, Self::Down)>,
    ) {
        let j = msg.copy as usize;
        let mut inner = Vec::new();
        self.copies[j].handle(from, msg.inner, now, &mut inner);
        out.extend(inner.into_iter().map(|(dest, m)| {
            (
                dest,
                CopyDown {
                    copy: msg.copy,
                    inner: m,
                },
            )
        }));
    }

    fn on_slot_start(&mut self, now: Slot, out: &mut Vec<(Destination, Self::Down)>) {
        let mut inner = Vec::new();
        for (j, c) in self.copies.iter_mut().enumerate() {
            c.on_slot_start(now, &mut inner);
            out.extend(std::mem::take(&mut inner).into_iter().map(|(dest, m)| {
                (
                    dest,
                    CopyDown {
                        copy: j as u32,
                        inner: m,
                    },
                )
            }));
        }
    }

    fn sample(&self) -> Vec<Element> {
        self.sample_with_replacement()
    }

    fn memory_tuples(&self) -> usize {
        self.copies.iter().map(CoordinatorNode::memory_tuples).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::centralized::SlidingOracle;
    use dds_data::{DistinctOnlyStream, SlottedInput, TraceLikeStream, TraceProfile};

    #[test]
    fn each_copy_tracks_its_windows_minimum() {
        let s = 5;
        let window = 30;
        let k = 4;
        let config = MultiSlidingConfig::with_seed(s, window, 99);
        let mut cluster = config.cluster(k);
        let mut oracles: Vec<SlidingOracle> = config
            .hashers()
            .into_iter()
            .map(|h| SlidingOracle::new(window, h))
            .collect();

        let profile = TraceProfile {
            name: "t",
            total: 2_000,
            distinct: 700,
        };
        let input = SlottedInput::new(TraceLikeStream::new(profile, 1), k, 5, 3);
        for (slot, batch) in input {
            while cluster.now() < slot {
                cluster.advance_slot();
                for o in &mut oracles {
                    o.expire(cluster.now());
                }
            }
            for (site, e) in batch {
                cluster.observe(site, e);
                for o in &mut oracles {
                    o.observe(e, slot);
                }
            }
            let got = cluster.coordinator().sample_with_replacement();
            let want: Vec<Element> = oracles
                .iter()
                .filter_map(|o| o.min_in_window(slot).map(|(e, _, _)| e))
                .collect();
            assert_eq!(got, want, "copy minima mismatch at slot {slot}");
        }
    }

    #[test]
    fn copies_expire_independently_and_fully() {
        let config = MultiSlidingConfig::with_seed(3, 5, 7);
        let mut cluster = config.cluster(2);
        cluster.observe(SiteId(0), Element(42));
        assert_eq!(
            cluster.sample().len(),
            3,
            "every copy samples the lone element"
        );
        cluster.advance_slots(5);
        assert!(cluster.sample().is_empty(), "all copies must drain");
    }

    #[test]
    fn message_cost_scales_with_copies() {
        let run = |s: usize| {
            let config = MultiSlidingConfig::with_seed(s, 20, 5);
            let mut cluster = config.cluster(3);
            let input = SlottedInput::new(DistinctOnlyStream::new(3_000, 8), 3, 5, 11);
            for (slot, batch) in input {
                while cluster.now() < slot {
                    cluster.advance_slot();
                }
                for (site, e) in batch {
                    cluster.observe(site, e);
                }
            }
            cluster.counters().total_messages() as f64
        };
        let ratio = run(8) / run(1);
        assert!(
            (4.0..=16.0).contains(&ratio),
            "8 sliding copies should cost ≈8× one copy, got {ratio:.2}×"
        );
    }

    #[test]
    fn per_site_memory_is_s_times_logarithmic() {
        let s = 4;
        let config = MultiSlidingConfig::with_seed(s, 256, 3);
        let mut cluster = config.cluster(1);
        let mut peak = 0usize;
        for (i, e) in DistinctOnlyStream::new(2_000, 2).enumerate() {
            cluster.observe(SiteId(0), e);
            cluster.advance_slot();
            if i > 500 {
                peak = peak.max(cluster.site_memory_tuples()[0]);
            }
        }
        let h_m: f64 = (1..=256u64).map(|i| 1.0 / i as f64).sum();
        assert!(
            (peak as f64) < 6.0 * s as f64 * h_m,
            "peak {peak} far above s·H_w = {:.1}",
            s as f64 * h_m
        );
    }
}
