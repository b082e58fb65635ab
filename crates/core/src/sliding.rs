//! Algorithms 3 & 4 — distinct sampling over time-based sliding windows
//! (`s = 1`).
//!
//! Each site keeps the candidate set `Tᵢ` (a [`FlatStaircase`]: Lemma 10
//! keeps it logarithmic, so one sorted `Vec` serves where the paper
//! suggests a treap) plus its view `(eᵢ, uᵢ, tᵢ)` of the global sample.
//! A site contacts the coordinator when (a) a new element beats `uᵢ`, or
//! (b) its sample view expires, in which case it falls back to its local
//! minimum and announces it. The coordinator keeps the winning tuple
//! `(e*, u*, t*)` and replies to every sender with it — the lazy feedback
//! that replaces the expensive broadcast-on-increase alternative (§4.1).
//!
//! ## A correctness gap in the published pseudocode — found by this
//! reproduction's differential tests
//!
//! Mostly, the protocol self-stabilises through its replies: every reply
//! carries the coordinator's current sample tuple, so recent contacts
//! hold its exact expiry and *wake* (fall back and re-announce) in the
//! very slot the global minimum dies. But the chain has a hole, hit
//! reliably by randomized differential tests against the brute-force
//! window oracle:
//!
//! 1. the coordinator holds `(v, t_v)`; other sites hold views of it;
//! 2. site `j`'s view expires; its *fallback announcement* carries an
//!    older local element `y` with `h(y) < h(v)` but `t_y < t_v` (it
//!    entered `Tⱼ` before `v` was sampled, so it expires earlier);
//!    Algorithm 4 adopts it — smaller hash wins;
//! 3. at `t_y` the coordinator's sample dies, but the sites holding
//!    `(v, t_v)` views — including `v`'s actual holder — sleep until
//!    `t_v`. If `j`'s window is now empty (or holds only large hashes),
//!    nobody announces `v`, and for the interval `[t_y, t_v)` the
//!    coordinator serves an element that may have left the window —
//!    while `v` is live and should be the answer.
//!
//! [`CoordinatorMode::Registry`] (the default) closes the hole with
//! `O(k)` coordinator memory and **zero extra messages**: the coordinator
//! remembers each site's last announcement and, when `(e*, t*)` expires,
//! falls back to the minimum live remembered tuple — mirroring the sites'
//! own candidate-set fallback. Every differential test passes in this mode.
//! [`CoordinatorMode::Faithful`] keeps the published behaviour; the test
//! `faithful_mode_diverges_from_oracle` pins the gap so the finding
//! stays reproducible. Message *counts* are essentially unchanged between
//! modes (the registry never transmits), so the figures reflect
//! the paper's protocol either way.

use dds_hash::family::HashFamily;
use dds_hash::{SeededHash, UnitHash, UnitValue};
use dds_sim::model::is_expired;
use dds_sim::{Cluster, CoordinatorNode, Destination, Element, SiteId, SiteNode, Slot};
use dds_treap::{CandidateSet, FlatStaircase};

use crate::checkpoint::{self, CheckpointError, StateReader, StateWriter, Wire};
use crate::messages::{SwDown, SwUp};
use crate::sampler::{sealed, FusedSite};

/// A sample tuple as tracked by sites and coordinator: element, its hash,
/// and its expiry slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SampleTuple {
    /// The element.
    pub element: Element,
    /// `h(element)`.
    pub hash: UnitValue,
    /// First slot at which the element is out of the window.
    pub expiry: Slot,
}

impl SampleTuple {
    /// Rebuild from its checkpoint form, `(element, expiry)`: the hash
    /// is derived state, recomputed under the protocol hash function.
    fn rehash((element, expiry): (Element, Slot), hasher: &SeededHash) -> Self {
        Self {
            element,
            hash: hasher.unit(element.0),
            expiry,
        }
    }

    /// The checkpoint form: element and expiry only.
    fn unhashed(&self) -> (Element, Slot) {
        (self.element, self.expiry)
    }
}

/// Coordinator fallback behaviour at sample expiry (see module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CoordinatorMode {
    /// Corrected protocol (default): remember per-site last announcements
    /// and fall back to their live minimum when `(e*, t*)` expires.
    /// `O(k)` coordinator memory, zero extra messages.
    #[default]
    Registry,
    /// Algorithm 4 verbatim (plus an expiry check at query time): can
    /// serve expired samples — see the module docs. Kept to document the
    /// published pseudocode's behaviour.
    Faithful,
}

/// Protocol parameters shared by every node.
#[derive(Debug, Clone, Copy)]
pub struct SlidingConfig {
    /// Window length in slots (`w ≥ 1`).
    pub window: u64,
    /// Shared hash family.
    pub family: HashFamily,
    /// Coordinator expiry behaviour.
    pub mode: CoordinatorMode,
}

impl SlidingConfig {
    /// Config with the default family and the corrected coordinator.
    #[must_use]
    pub fn new(window: u64) -> Self {
        Self {
            window,
            family: HashFamily::default(),
            mode: CoordinatorMode::Registry,
        }
    }

    /// Config with an explicit hash seed.
    #[must_use]
    pub fn with_seed(window: u64, seed: u64) -> Self {
        Self {
            window,
            family: HashFamily::new(seed),
            mode: CoordinatorMode::Registry,
        }
    }

    /// Switch coordinator mode.
    #[must_use]
    pub fn mode(mut self, mode: CoordinatorMode) -> Self {
        self.mode = mode;
        self
    }

    /// The shared hash function.
    #[must_use]
    pub fn hasher(&self) -> SeededHash {
        self.family.primary()
    }

    /// Assemble a cluster of `k` sites.
    #[must_use]
    pub fn cluster(&self, k: usize) -> Cluster<SwSite, SwCoordinator> {
        let sites = (0..k)
            .map(|_| SwSite::new(self.window, self.hasher()))
            .collect();
        Cluster::new(sites, SwCoordinator::new(self.hasher(), k, self.mode))
    }
}

/// Algorithm 3 — the per-site state machine.
#[derive(Debug, Clone)]
pub struct SwSite {
    hasher: SeededHash,
    window: u64,
    candidates: FlatStaircase,
    /// `(eᵢ, uᵢ, tᵢ)`; `None` encodes "no sample known" (`uᵢ = 1`).
    view: Option<SampleTuple>,
}

impl SwSite {
    /// A site with window `w` sharing the protocol hash function.
    #[must_use]
    pub fn new(window: u64, hasher: SeededHash) -> Self {
        assert!(window >= 1, "window must be at least one slot");
        Self {
            hasher,
            window,
            candidates: FlatStaircase::new(),
            view: None,
        }
    }

    /// The site's current threshold `uᵢ`.
    #[must_use]
    pub fn threshold(&self) -> UnitValue {
        self.view.map_or(UnitValue::ONE, |v| v.hash)
    }

    /// The candidate set `Tᵢ` (for memory probes and tests).
    #[must_use]
    pub fn candidates(&self) -> &FlatStaircase {
        &self.candidates
    }

    /// The site's sample view.
    #[must_use]
    pub fn view(&self) -> Option<SampleTuple> {
        self.view
    }
}

/// Checkpoint layout: hash function, window, sample view, and the
/// candidate staircase (sorted entries; elements + expiries only —
/// hashes and structure are rebuilt on decode through the ordinary
/// insertion path, and an entry list that is not a valid staircase, one
/// entry dominating another, is corrupt).
impl Wire for SwSite {
    const MIN_BYTES: usize = SeededHash::MIN_BYTES + 8 + 1 + 4;

    fn put(&self, w: &mut StateWriter) {
        w.put(&self.hasher);
        w.put(&self.window);
        w.put(&self.view.as_ref().map(SampleTuple::unhashed));
        let entries = self.candidates.entries_sorted();
        w.put_iter(entries.iter().map(|e| (e.element, e.expiry)));
    }

    fn get(r: &mut StateReader<'_>) -> Result<Self, CheckpointError> {
        let hasher: SeededHash = r.get()?;
        let window = r.get()?;
        if window == 0 {
            return Err(CheckpointError::Corrupt("sliding window of zero slots"));
        }
        let view = r
            .get::<Option<_>>()?
            .map(|t| SampleTuple::rehash(t, &hasher));
        let mut candidates = FlatStaircase::new();
        let n = r.get_each(|(e, expiry): (Element, Slot)| {
            candidates.insert_or_refresh(e, hasher.unit(e.0).0, expiry);
            Ok(())
        })?;
        if candidates.len() != n {
            return Err(CheckpointError::Corrupt("candidate list not a staircase"));
        }
        Ok(Self {
            hasher,
            window,
            candidates,
            view,
        })
    }
}

impl SiteNode for SwSite {
    type Up = SwUp;
    type Down = SwDown;

    fn observe(&mut self, e: Element, now: Slot, out: &mut Vec<SwUp>) {
        out.extend(self.observe_lane(0, e, now));
    }

    fn handle(&mut self, msg: SwDown, _now: Slot, _out: &mut Vec<SwUp>) {
        let h = self.hasher.unit(msg.element.0);
        // Lines 17–19: adopt the coordinator's sample and remember the
        // tuple as a candidate too.
        self.view = Some(SampleTuple {
            element: msg.element,
            hash: h,
            expiry: msg.expiry,
        });
        self.candidates
            .insert_or_refresh(msg.element, h.0, msg.expiry);
    }

    fn on_slot_start(&mut self, now: Slot, out: &mut Vec<SwUp>) {
        // Line 10 / 22: purge expired candidates.
        self.candidates.expire(now);
        // Lines 21–25: when the sample view expires, fall back to the
        // local minimum and announce it (or to "no sample" if the local
        // window is empty).
        if let Some(view) = self.view {
            if is_expired(view.expiry, now) {
                match self.candidates.min_entry() {
                    Some(m) => {
                        self.view = Some(SampleTuple {
                            element: m.element,
                            hash: UnitValue(m.hash),
                            expiry: m.expiry,
                        });
                        out.push(SwUp {
                            element: m.element,
                            expiry: m.expiry,
                        });
                    }
                    None => self.view = None,
                }
            }
        }
    }

    fn memory_tuples(&self) -> usize {
        self.candidates.len()
    }
}

impl sealed::Sealed for SwSite {}

impl FusedSite for SwSite {
    type Coordinator = SwCoordinator;
    const KIND: u8 = checkpoint::kind::SLIDING;
    const CLOCKED: bool = true;

    /// Algorithm 3's observation step; never more than one up-message.
    #[inline]
    fn observe_lane(&mut self, _lane: usize, e: Element, now: Slot) -> Option<SwUp> {
        let h = self.hasher.unit(e.0);
        let expiry = Slot(now.0 + self.window);
        // Algorithm 3 lines 4–11: insert or refresh; expiry and dominance
        // maintenance live inside the candidate set.
        self.candidates.insert_or_refresh(e, h.0, expiry);
        // Line 12: compare against the threshold view.
        (h < self.threshold()).then_some(SwUp { element: e, expiry })
    }

    fn threshold(coordinator: &SwCoordinator) -> Option<UnitValue> {
        Some(coordinator.threshold())
    }

    /// The site holds no state at all (no candidates, no view), and the
    /// coordinator no *live* state at `now`: its sample is absent or
    /// expired and every remembered announcement is expired. Stepping
    /// such a pair can emit no message and can only perform the
    /// coordinator's dead-state bookkeeping (fallback-to-`None`, registry
    /// cleanup), which one `on_slot_start` call replays. Covers
    /// `Faithful` mode too, where an expired `sample` lingers forever by
    /// design.
    fn idle(&self, coordinator: &SwCoordinator, now: Slot) -> bool {
        let expired = |t: &SampleTuple| is_expired(t.expiry, now);
        self.view.is_none()
            && self.candidates.is_empty()
            && coordinator.sample.as_ref().map_or(true, expired)
            && coordinator.registry.iter().flatten().all(expired)
    }
}

/// Algorithm 4 — the coordinator (with the optional registry extension).
#[derive(Debug, Clone)]
pub struct SwCoordinator {
    hasher: SeededHash,
    sample: Option<SampleTuple>,
    now: Slot,
    mode: CoordinatorMode,
    /// Last announcement per site (Registry mode only).
    registry: Vec<Option<SampleTuple>>,
}

impl SwCoordinator {
    /// A coordinator for `k` sites.
    #[must_use]
    pub fn new(hasher: SeededHash, k: usize, mode: CoordinatorMode) -> Self {
        Self {
            hasher,
            sample: None,
            now: Slot(0),
            mode,
            registry: vec![None; k],
        }
    }

    /// The current sample tuple (if live).
    #[must_use]
    pub fn current(&self) -> Option<SampleTuple> {
        self.sample.filter(|t| !is_expired(t.expiry, self.now))
    }

    /// The global threshold of the single-sample protocol: the live
    /// sample's hash, or 1 when the window holds no sample.
    #[must_use]
    pub fn threshold(&self) -> UnitValue {
        self.current().map_or(UnitValue::ONE, |t| t.hash)
    }

    /// Re-derive the sample from the live registry minimum.
    fn registry_fallback(&mut self) {
        self.sample = self
            .registry
            .iter()
            .flatten()
            .filter(|t| !is_expired(t.expiry, self.now))
            .min_by_key(|t| (t.hash, t.element))
            .copied();
    }
}

/// Checkpoint layout: hash function, mode, clock, sample tuple, and the
/// per-site announcement registry; tuple hashes are recomputed.
impl Wire for SwCoordinator {
    const MIN_BYTES: usize = SeededHash::MIN_BYTES + 1 + 8 + 1 + 4;

    fn put(&self, w: &mut StateWriter) {
        w.put(&self.hasher);
        w.put_u8(match self.mode {
            CoordinatorMode::Registry => 0,
            CoordinatorMode::Faithful => 1,
        });
        w.put(&self.now);
        w.put(&self.sample.as_ref().map(SampleTuple::unhashed));
        w.put_iter(
            self.registry
                .iter()
                .map(|entry| entry.as_ref().map(SampleTuple::unhashed)),
        );
    }

    fn get(r: &mut StateReader<'_>) -> Result<Self, CheckpointError> {
        let hasher: SeededHash = r.get()?;
        let mode = match r.get_u8()? {
            0 => CoordinatorMode::Registry,
            1 => CoordinatorMode::Faithful,
            _ => return Err(CheckpointError::Corrupt("unknown coordinator mode")),
        };
        let now = r.get()?;
        let rehash = |t: Option<(Element, Slot)>| t.map(|t| SampleTuple::rehash(t, &hasher));
        let sample = rehash(r.get()?);
        let mut registry = Vec::new();
        r.get_each(|entry| {
            registry.push(rehash(entry));
            Ok(())
        })?;
        Ok(Self {
            hasher,
            sample,
            now,
            mode,
            registry,
        })
    }
}

impl CoordinatorNode for SwCoordinator {
    type Up = SwUp;
    type Down = SwDown;

    fn handle(&mut self, from: SiteId, msg: SwUp, now: Slot, out: &mut Vec<(Destination, SwDown)>) {
        self.now = self.now.max(now);
        let h = self.hasher.unit(msg.element.0);
        let incoming = SampleTuple {
            element: msg.element,
            hash: h,
            expiry: msg.expiry,
        };
        if self.mode == CoordinatorMode::Registry {
            self.registry[from.0] = Some(incoming);
        }
        // Algorithm 4 line 3: (u* > h(e')) or (t* < t) — plus the refresh
        // case e' == e* with a later expiry, which re-announcement of the
        // same element after a fallback makes routine.
        let replace = match self.sample {
            None => true,
            Some(cur) => {
                cur.hash > h
                    || is_expired(cur.expiry, self.now)
                    || (cur.element == incoming.element && incoming.expiry > cur.expiry)
            }
        };
        if replace {
            self.sample = Some(incoming);
        }
        let reply = self.sample.expect("sample set on this path");
        out.push((
            Destination::Site(from),
            SwDown {
                element: reply.element,
                expiry: reply.expiry,
            },
        ));
    }

    fn on_slot_start(&mut self, now: Slot, _out: &mut Vec<(Destination, SwDown)>) {
        self.now = self.now.max(now);
        if self.mode == CoordinatorMode::Registry {
            if let Some(cur) = self.sample {
                if is_expired(cur.expiry, now) {
                    self.registry_fallback();
                }
            }
            // Expired remembered announcements can never win a fallback;
            // dropping them keeps `memory_tuples` equal to *live* state,
            // so a drained coordinator reports zero.
            for slot_entry in &mut self.registry {
                if slot_entry.is_some_and(|t| is_expired(t.expiry, self.now)) {
                    *slot_entry = None;
                }
            }
        }
    }

    fn sample(&self) -> Vec<Element> {
        // `t*` is "the time at which this sample expires": an expired
        // tuple means the window has drained and there is no sample.
        self.current().map(|t| t.element).into_iter().collect()
    }

    fn memory_tuples(&self) -> usize {
        match self.mode {
            CoordinatorMode::Faithful => usize::from(self.sample.is_some()),
            CoordinatorMode::Registry => self.registry.iter().flatten().count(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::centralized::SlidingOracle;
    use dds_data::{DistinctOnlyStream, SlottedInput, TraceLikeStream, TraceProfile};

    /// Drive a cluster + oracle over a slotted input; check the
    /// coordinator's answer against the true window minimum after every
    /// completed slot.
    fn run_against_oracle(mode: CoordinatorMode, window: u64, k: usize, slots: u64, seed: u64) {
        let config = SlidingConfig::with_seed(window, 7_000 + seed).mode(mode);
        let mut cluster = config.cluster(k);
        let mut oracle = SlidingOracle::new(window, config.hasher());
        let profile = TraceProfile {
            name: "t",
            total: slots * 5,
            distinct: (slots * 2).max(1),
        };
        let input = SlottedInput::new(TraceLikeStream::new(profile, seed), k, 5, seed ^ 9);
        for (slot, batch) in input {
            while cluster.now() < slot {
                cluster.advance_slot();
                oracle.expire(cluster.now());
                // Check *between* arrivals too: expiry slots with no
                // arrivals are where stale answers would hide.
                let got = cluster.sample();
                let want = oracle.min_in_window(cluster.now()).map(|(e, _, _)| e);
                assert_eq!(got, want.into_iter().collect::<Vec<_>>());
            }
            for (site, e) in batch {
                oracle.observe(e, slot);
                cluster.observe(site, e);
            }
            let got = cluster.sample();
            let want = oracle.min_in_window(slot).map(|(e, _, _)| e);
            assert_eq!(
                got,
                want.into_iter().collect::<Vec<_>>(),
                "window sample mismatch at slot {slot} (k={k}, w={window})"
            );
        }
        // Drain: after the last arrivals expire, the sample must vanish.
        for _ in 0..=window {
            cluster.advance_slot();
        }
        assert!(
            cluster.sample().is_empty(),
            "sample must expire with the window"
        );
    }

    #[test]
    fn matches_oracle_small_window() {
        run_against_oracle(CoordinatorMode::Registry, 4, 3, 300, 1);
    }

    #[test]
    fn matches_oracle_medium_window() {
        run_against_oracle(CoordinatorMode::Registry, 25, 5, 400, 2);
    }

    #[test]
    fn matches_oracle_large_window() {
        run_against_oracle(CoordinatorMode::Registry, 100, 10, 300, 3);
    }

    #[test]
    fn matches_oracle_flat_backend() {
        run_against_oracle(CoordinatorMode::Registry, 25, 5, 400, 6);
    }

    #[test]
    fn matches_oracle_single_site_even_faithful() {
        // With one site, every reply syncs the lone site to the
        // coordinator exactly, so even the published pseudocode is
        // airtight.
        run_against_oracle(CoordinatorMode::Faithful, 10, 1, 300, 4);
    }

    #[test]
    fn matches_oracle_window_one() {
        run_against_oracle(CoordinatorMode::Registry, 1, 4, 200, 5);
    }

    /// The published pseudocode's gap (see module docs): on multi-site
    /// runs with repeats, the Faithful coordinator eventually serves an
    /// answer differing from the true window minimum, while the Registry
    /// coordinator never does. This pins the finding.
    #[test]
    fn faithful_mode_diverges_from_oracle() {
        let window = 4;
        let k = 3;
        let seed = 1; // same workload that trips the differential test
        let config = SlidingConfig::with_seed(window, 7_001).mode(CoordinatorMode::Faithful);
        let mut cluster = config.cluster(k);
        let mut oracle = SlidingOracle::new(window, config.hasher());
        let profile = TraceProfile {
            name: "t",
            total: 1_500,
            distinct: 600,
        };
        let input = SlottedInput::new(TraceLikeStream::new(profile, seed), k, 5, seed ^ 9);
        let mut divergences = 0u32;
        for (slot, batch) in input {
            while cluster.now() < slot {
                cluster.advance_slot();
                oracle.expire(cluster.now());
                let want: Vec<Element> = oracle
                    .min_in_window(cluster.now())
                    .map(|(e, _, _)| e)
                    .into_iter()
                    .collect();
                if cluster.sample() != want {
                    divergences += 1;
                }
            }
            for (site, e) in batch {
                oracle.observe(e, slot);
                cluster.observe(site, e);
            }
        }
        assert!(
            divergences > 0,
            "expected the pseudocode-faithful coordinator to diverge; \
             if this fails the gap analysis in the module docs is wrong"
        );
    }

    #[test]
    fn faithful_and_registry_agree_with_one_site() {
        let run = |mode: CoordinatorMode| {
            let config = SlidingConfig::with_seed(20, 77).mode(mode);
            let mut c = config.cluster(1);
            let profile = TraceProfile {
                name: "t",
                total: 2_000,
                distinct: 800,
            };
            let input = SlottedInput::new(TraceLikeStream::new(profile, 3), 1, 5, 11);
            let mut samples = Vec::new();
            for (slot, batch) in input {
                while c.now() < slot {
                    c.advance_slot();
                    samples.push(c.sample());
                }
                for (site, e) in batch {
                    c.observe(site, e);
                }
                samples.push(c.sample());
            }
            (samples, c.counters().total_messages())
        };
        assert_eq!(
            run(CoordinatorMode::Faithful),
            run(CoordinatorMode::Registry)
        );
    }

    #[test]
    fn wake_chain_recovers_after_min_expiry() {
        // x (larger hash) at site 0, refreshed so it outlives y (smaller
        // hash) at site 1. When y leaves the window, the coordinator must
        // recover x through site announcements — the wake-chain.
        let config = SlidingConfig::with_seed(10, 123);
        let hasher = config.hasher();
        let mut elems = DistinctOnlyStream::new(64, 5);
        let x = elems.next().unwrap();
        let y = elems
            .find(|&e| hasher.unit(e.0) < hasher.unit(x.0))
            .expect("some element hashes below x");

        let mut c = config.cluster(2);
        c.observe(SiteId(0), x); // slot 0: x → expiry 10, becomes sample
        c.advance_slots(2); // slot 2
        c.observe(SiteId(1), y); // y → expiry 12, smaller hash: new sample
        assert_eq!(c.sample(), vec![y]);
        c.advance_slots(3); // slot 5
        c.observe(SiteId(0), x); // silent refresh: x → expiry 15
        c.advance_slots(7); // slot 12: y just left the window
        assert_eq!(
            c.sample(),
            vec![x],
            "coordinator must recover the surviving element at y's expiry"
        );
        c.advance_slots(3); // slot 15: x gone too
        assert!(c.sample().is_empty());
    }

    #[test]
    fn per_site_memory_is_logarithmic_in_window() {
        // Lemma 10: E[|Tᵢ|] ≤ H_M. One site, all-distinct stream, window
        // 512: steady-state memory ~H_512 ≈ 6.8; assert well below 6×.
        let config = SlidingConfig::with_seed(512, 9);
        let mut cluster = config.cluster(1);
        let mut peak = 0usize;
        for (i, e) in DistinctOnlyStream::new(4_000, 2).enumerate() {
            cluster.observe(SiteId(0), e);
            cluster.advance_slot();
            if i > 1_000 {
                peak = peak.max(cluster.site_memory_tuples()[0]);
            }
        }
        let h_m: f64 = (1..=512u64).map(|i| 1.0 / i as f64).sum();
        assert!(
            (peak as f64) < 6.0 * h_m,
            "peak per-site memory {peak} far above H_512 = {h_m:.1}"
        );
    }

    #[test]
    fn message_rate_decreases_with_window_size() {
        // Figure 5.8's shape: larger windows ⇒ fewer messages.
        let messages_for = |window: u64| {
            let config = SlidingConfig::with_seed(window, 31);
            let mut cluster = config.cluster(5);
            let profile = TraceProfile {
                name: "t",
                total: 5_000,
                distinct: 2_500,
            };
            let input = SlottedInput::new(TraceLikeStream::new(profile, 7), 5, 5, 13);
            for (slot, batch) in input {
                while cluster.now() < slot {
                    cluster.advance_slot();
                }
                for (site, e) in batch {
                    cluster.observe(site, e);
                }
            }
            cluster.counters().total_messages()
        };
        let small = messages_for(5);
        let large = messages_for(200);
        assert!(
            large < small,
            "messages must fall as the window grows: w=5 → {small}, w=200 → {large}"
        );
    }

    #[test]
    fn empty_window_has_empty_sample_and_silent_sites() {
        let config = SlidingConfig::with_seed(3, 17);
        let mut cluster = config.cluster(3);
        cluster.observe(SiteId(1), Element(42));
        assert_eq!(cluster.sample(), vec![Element(42)]);
        cluster.advance_slots(3);
        assert!(cluster.sample().is_empty());
        let quiet_before = cluster.counters().total_messages();
        cluster.advance_slots(50);
        assert_eq!(
            cluster.counters().total_messages(),
            quiet_before,
            "an empty system must stay silent"
        );
    }

    #[test]
    fn deterministic_under_seeds() {
        let run = || {
            let config = SlidingConfig::with_seed(25, 3);
            let mut cluster = config.cluster(4);
            let input = SlottedInput::new(DistinctOnlyStream::new(3_000, 1), 4, 5, 2);
            for (slot, batch) in input {
                while cluster.now() < slot {
                    cluster.advance_slot();
                }
                for (site, e) in batch {
                    cluster.observe(site, e);
                }
            }
            (
                cluster.sample(),
                cluster.counters().total_messages(),
                cluster.site_memory_tuples(),
            )
        };
        assert_eq!(run(), run());
    }
}
