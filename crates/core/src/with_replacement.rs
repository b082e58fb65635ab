//! Sampling *with replacement* — §3's closing construction.
//!
//! "One solution to distinct sampling with replacement is to repeat `s`
//! parallel copies of the single element sampling algorithm, each copy
//! using a different hash function." Each copy `j` is an independent
//! `s = 1` instance of Algorithms 1–2 under `h_j`; the coordinator's
//! answer is the vector of the `s` copy-minima — `s` independent uniform
//! draws from the distinct elements (the same element may appear in
//! several copies, hence *with* replacement).
//!
//! Message cost is `s ×` the single-element cost, `O(sk·log(de))` — close
//! to the without-replacement `O(ks·log(de/s))` (compare
//! [`crate::bounds::with_replacement_upper`]). The paper also notes the
//! reduction in the other direction: running with-replacement with
//! slightly more than `s` copies yields a without-replacement sample,
//! transferring the Ω(ks·ln(de/s)) lower bound to both variants.

use dds_hash::family::HashFamily;
use dds_hash::{SeededHash, UnitHash, UnitValue};
use dds_sim::{Cluster, CoordinatorNode, Destination, Element, SiteId, SiteNode, Slot};

use crate::centralized::BottomS;
use crate::checkpoint::{self, CheckpointError, StateReader, StateWriter, Wire};
use crate::messages::{CopyDown, CopyUp, DownThreshold, UpElem};
use crate::sampler::{sealed, FusedSite};

/// Configuration: `s` copies over a hash family.
#[derive(Debug, Clone, Copy)]
pub struct WrConfig {
    /// Number of independent copies (= sample size).
    pub s: usize,
    /// Family supplying `h_0 … h_{s-1}`.
    pub family: HashFamily,
}

impl WrConfig {
    /// Config with an explicit family seed.
    ///
    /// # Panics
    /// Panics if `s == 0`.
    #[must_use]
    pub fn with_seed(s: usize, seed: u64) -> Self {
        assert!(s > 0, "sample size must be at least 1");
        Self {
            s,
            family: HashFamily::new(seed),
        }
    }

    /// The `s` copy hash functions.
    #[must_use]
    pub fn hashers(&self) -> Vec<SeededHash> {
        self.family.members(self.s).collect()
    }

    /// Assemble a cluster of `k` sites.
    #[must_use]
    pub fn cluster(&self, k: usize) -> Cluster<WrSite, WrCoordinator> {
        let sites = (0..k).map(|_| WrSite::new(self.hashers())).collect();
        Cluster::new(sites, WrCoordinator::new(self.hashers()))
    }
}

/// Site: one threshold per copy.
#[derive(Debug, Clone)]
pub struct WrSite {
    copies: Vec<(SeededHash, UnitValue)>,
}

impl WrSite {
    /// A site given the `s` copy hash functions.
    #[must_use]
    pub fn new(hashers: Vec<SeededHash>) -> Self {
        Self {
            copies: hashers.into_iter().map(|h| (h, UnitValue::ONE)).collect(),
        }
    }

    /// Threshold view of copy `j`.
    #[must_use]
    pub fn threshold(&self, j: usize) -> UnitValue {
        self.copies[j].1
    }
}

/// Checkpoint layout: per copy, the hash function and `uᵢ` (at least
/// one copy).
impl Wire for WrSite {
    const MIN_BYTES: usize = 4;

    fn put(&self, w: &mut StateWriter) {
        w.put(&self.copies);
    }

    fn get(r: &mut StateReader<'_>) -> Result<Self, CheckpointError> {
        let copies: Vec<(SeededHash, UnitValue)> = r.get()?;
        if copies.is_empty() {
            return Err(CheckpointError::Corrupt(
                "with-replacement site has zero copies",
            ));
        }
        Ok(Self { copies })
    }
}

impl SiteNode for WrSite {
    type Up = CopyUp<UpElem>;
    type Down = CopyDown<DownThreshold>;

    fn observe(&mut self, e: Element, now: Slot, out: &mut Vec<Self::Up>) {
        for j in 0..self.lanes() {
            out.extend(self.observe_lane(j, e, now));
        }
    }

    fn handle(&mut self, msg: Self::Down, _now: Slot, _out: &mut Vec<Self::Up>) {
        self.copies[msg.copy as usize].1 = UnitValue(msg.inner.u);
    }

    fn memory_tuples(&self) -> usize {
        self.copies.len() // s thresholds: O(s) per site.
    }
}

impl sealed::Sealed for WrSite {}

impl FusedSite for WrSite {
    type Coordinator = WrCoordinator;
    const KIND: u8 = checkpoint::kind::WITH_REPLACEMENT;
    const CLOCKED: bool = false;

    fn lanes(&self) -> usize {
        self.copies.len()
    }

    /// Copy `lane` is Algorithm 1 under `h_lane`: send `e` if it beats
    /// the copy's threshold.
    #[inline]
    fn observe_lane(&mut self, lane: usize, e: Element, _now: Slot) -> Option<Self::Up> {
        let (hasher, u_i) = self.copies[lane];
        (hasher.unit(e.0) < u_i).then_some(CopyUp {
            copy: lane as u32,
            inner: UpElem { element: e },
        })
    }

    fn threshold(_: &WrCoordinator) -> Option<UnitValue> {
        None // each of the s copies has its own threshold
    }
}

/// Coordinator: one single-element bottom structure per copy.
#[derive(Debug, Clone)]
pub struct WrCoordinator {
    copies: Vec<(SeededHash, BottomS)>,
}

impl WrCoordinator {
    /// A coordinator given the `s` copy hash functions.
    #[must_use]
    pub fn new(hashers: Vec<SeededHash>) -> Self {
        Self {
            copies: hashers.into_iter().map(|h| (h, BottomS::new(1))).collect(),
        }
    }

    /// The with-replacement sample: one element per copy (copies that have
    /// seen nothing yield nothing).
    #[must_use]
    pub fn sample_with_replacement(&self) -> Vec<Element> {
        self.copies
            .iter()
            .filter_map(|(_, b)| b.elements().first().copied())
            .collect()
    }
}

/// One coordinator copy: its hash function, then its single-element
/// bottom structure, whose hashes are recomputed under that function.
impl Wire for (SeededHash, BottomS) {
    const MIN_BYTES: usize = SeededHash::MIN_BYTES + BottomS::MIN_STATE_BYTES;

    fn put(&self, w: &mut StateWriter) {
        w.put(&self.0);
        self.1.encode_state(w);
    }

    fn get(r: &mut StateReader<'_>) -> Result<Self, CheckpointError> {
        let h: SeededHash = r.get()?;
        let bottom = BottomS::decode_state(r, &h)?;
        Ok((h, bottom))
    }
}

/// Checkpoint layout: the `s` copies (at least one).
impl Wire for WrCoordinator {
    const MIN_BYTES: usize = 4;

    fn put(&self, w: &mut StateWriter) {
        w.put(&self.copies);
    }

    fn get(r: &mut StateReader<'_>) -> Result<Self, CheckpointError> {
        let copies: Vec<(SeededHash, BottomS)> = r.get()?;
        if copies.is_empty() {
            return Err(CheckpointError::Corrupt(
                "with-replacement coordinator has zero copies",
            ));
        }
        Ok(Self { copies })
    }
}

impl CoordinatorNode for WrCoordinator {
    type Up = CopyUp<UpElem>;
    type Down = CopyDown<DownThreshold>;

    fn handle(
        &mut self,
        from: SiteId,
        msg: Self::Up,
        _now: Slot,
        out: &mut Vec<(Destination, Self::Down)>,
    ) {
        let j = msg.copy as usize;
        let (hasher, bottom) = &mut self.copies[j];
        let h = hasher.unit(msg.inner.element.0);
        bottom.offer(msg.inner.element, h);
        out.push((
            Destination::Site(from),
            CopyDown {
                copy: msg.copy,
                inner: DownThreshold {
                    u: bottom.threshold().0,
                },
            },
        ));
    }

    fn sample(&self) -> Vec<Element> {
        self.sample_with_replacement()
    }

    fn memory_tuples(&self) -> usize {
        self.copies.iter().map(|(_, b)| b.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dds_data::{DistinctOnlyStream, RouteTarget, Router, Routing};

    #[test]
    fn each_copy_tracks_its_own_minimum() {
        let config = WrConfig::with_seed(8, 3);
        let mut cluster = config.cluster(4);
        let elems: Vec<Element> = DistinctOnlyStream::new(2_000, 1).collect();
        let mut router = Router::new(Routing::Random, 4, 2);
        for &e in &elems {
            match router.route() {
                RouteTarget::One(site) => cluster.observe(site, e),
                RouteTarget::All => cluster.observe_at_all(e),
            }
        }
        let sample = cluster.sample();
        assert_eq!(sample.len(), 8);
        // Copy j's sample must be the true argmin of h_j over all elements.
        let hashers: Vec<SeededHash> = config.family.members(8).collect();
        for (j, hasher) in hashers.iter().enumerate() {
            let want = elems
                .iter()
                .copied()
                .min_by_key(|&e| hasher.unit(e.0))
                .unwrap();
            assert_eq!(sample[j], want, "copy {j} minimum mismatch");
        }
    }

    #[test]
    fn copies_are_nearly_independent() {
        // With 1000 distinct elements and 16 copies, the probability that
        // two given copies pick the same element is ~1/1000: seeing any
        // large amount of agreement would indicate correlated hashes.
        let config = WrConfig::with_seed(16, 9);
        let mut cluster = config.cluster(2);
        for e in DistinctOnlyStream::new(1_000, 4) {
            cluster.observe(SiteId((e.0 % 2) as usize), e);
        }
        let sample = cluster.sample();
        let unique: std::collections::HashSet<Element> = sample.iter().copied().collect();
        assert!(
            unique.len() >= 14,
            "excessive collisions across copies: {} unique of 16",
            unique.len()
        );
    }

    #[test]
    fn message_cost_scales_with_copies() {
        let run = |s: usize| {
            let config = WrConfig::with_seed(s, 5);
            let mut cluster = config.cluster(3);
            for e in DistinctOnlyStream::new(3_000, 8) {
                cluster.observe(SiteId((e.0 % 3) as usize), e);
            }
            cluster.counters().total_messages() as f64
        };
        let m1 = run(1);
        let m8 = run(8);
        let ratio = m8 / m1;
        assert!(
            (4.0..=16.0).contains(&ratio),
            "8 copies should cost ≈8× one copy, got {ratio:.2}×"
        );
    }

    #[test]
    fn within_theoretical_bound() {
        let (k, s, d) = (3usize, 8usize, 3_000u64);
        let config = WrConfig::with_seed(s, 5);
        let mut cluster = config.cluster(k);
        for e in DistinctOnlyStream::new(d, 8) {
            cluster.observe(SiteId((e.0 % 3) as usize), e);
        }
        let measured = cluster.counters().total_messages() as f64;
        let bound = crate::bounds::with_replacement_upper(k, s, d);
        assert!(measured <= bound, "measured {measured} > bound {bound}");
    }

    #[test]
    #[should_panic(expected = "sample size must be at least 1")]
    fn zero_copies_rejected() {
        let _ = WrConfig::with_seed(0, 1);
    }
}
