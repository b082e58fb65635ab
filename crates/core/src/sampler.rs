//! A unified, object-safe sampler interface — the substrate of the
//! multi-tenant serving layer (`dds-engine`).
//!
//! Every protocol in this crate is a *pair* of state machines designed to
//! run apart (sites + coordinator). A serving layer that hosts thousands
//! of independent sampling instances needs the opposite shape: one opaque
//! object per tenant with an `observe`/`sample` surface and nothing else.
//! [`DistinctSampler`] is that surface, and one host, [`Fused`], provides
//! it for every protocol by wiring its two halves together in-process:
//! site output feeds the coordinator, the coordinator's replies feed
//! back, and the would-be wire traffic is tallied in
//! [`DistinctSampler::protocol_messages`]. What differs between the
//! protocols — coordinator type, kind tag, slot clock, parallel copies,
//! threshold, idle test — is the sealed [`FusedSite`] trait that each
//! protocol's site implements beside its protocol; [`FusedInfinite`],
//! [`FusedWr`], [`FusedSliding`] and [`FusedSlidingMulti`] name the four
//! hosts. The queues of the in-process pump live for one call, so a host
//! holds protocol state, a clock and a message counter and nothing more.
//! Fusing changes *where* the halves run, not *what* they compute — a
//! fused instance produces exactly the sample (and exactly the message
//! count) of a `k = 1` deployment, which the tests pin down.
//!
//! [`SamplerSpec`] is the value-level description of an instance
//! (protocol + sample size + hash seed) from which a serving layer can
//! build samplers per tenant without being generic over protocols:
//! [`SamplerSpec::instance`] gives the closed [`AnySampler`] enum, which
//! a host of many tenants stores by value, and [`SamplerSpec::build`]
//! boxes it behind the trait for everything else.
//!
//! ## Time
//!
//! The interface is *time-aware*: every instance carries a slot clock
//! driven by [`DistinctSampler::advance`], and observations may be
//! timestamped via [`DistinctSampler::observe_at`]. Infinite-window
//! samplers ignore time entirely (their clock stays at 0), so the
//! pre-existing protocols serve unchanged; the sliding-window hosts
//! ([`FusedSliding`], [`FusedSlidingMulti`] — Algorithms 3 & 4 and their
//! parallel-copies generalisation) use the clock to expire candidates
//! exactly as a distributed deployment would at its slot boundaries.

use std::fmt::Debug;

use dds_hash::family::HashFamily;
use dds_hash::{SeededHash, UnitValue};
use dds_sim::{CoordinatorNode, Destination, Element, SiteId, SiteNode, Slot};

use crate::centralized::{CentralizedSampler, SlidingOracle};
use crate::checkpoint::{self, CheckpointError, StateReader, StateWriter, Wire};
use crate::infinite::{InfiniteConfig, LazySite};
use crate::sliding::{SlidingConfig, SwCoordinator, SwSite};
use crate::sliding_multi::{MultiSlidingConfig, MultiSwCoordinator, MultiSwSite};
use crate::with_replacement::{WrConfig, WrCoordinator, WrSite};

/// One self-contained distinct-sampling instance.
///
/// Object-safe and `Send`, so callers can hold `Box<dyn DistinctSampler>`
/// and move instances between worker threads; [`AnySampler`] implements
/// it by `match` for hosts that store instances by value.
pub trait DistinctSampler: Send {
    /// Observe one element of the instance's stream at the current clock.
    fn observe(&mut self, e: Element);

    /// Advance the instance's slot clock to `now`, expiring whatever the
    /// backing protocol expires at slot boundaries. Monotonic: a `now` at
    /// or before the current clock is a no-op, so out-of-order callers
    /// cannot rewind time. Infinite-window samplers have no clock and
    /// ignore this entirely (the default).
    fn advance(&mut self, now: Slot) {
        let _ = now;
    }

    /// The instance's current slot clock: the highest slot it has been
    /// advanced to. Clockless (infinite-window) samplers answer
    /// `Slot(0)` forever, so no timestamp ever reads as stale for them.
    ///
    /// Serving layers use this for slot-ordered replay: an observation
    /// stamped *below* this clock cannot land at its own slot any more —
    /// [`DistinctSampler::observe_at`] would silently attribute it to
    /// the current clock — so a caller that must not misattribute late
    /// data checks `now >= clock()` first and accounts the stale
    /// observation instead of delivering it.
    fn clock(&self) -> Slot {
        Slot(0)
    }

    /// Timestamped observation: advance the clock to `now`, then observe
    /// `e`. Equivalent to `advance(now); observe(e)` — provided so
    /// serving layers can drive every protocol through one entry point.
    /// A `now` below [`DistinctSampler::clock`] observes at the current
    /// clock (the monotonic clamp); callers that must not misattribute
    /// late data check the clock first.
    fn observe_at(&mut self, e: Element, now: Slot) {
        self.advance(now);
        self.observe(e);
    }

    /// Observe a whole batch at the current clock. Observationally
    /// identical to `for e in batch { observe(e) }` — the default *is*
    /// that loop — but [`Fused`] overrides it with one call per batch
    /// instead of one per element: each parallel copy in turn runs its
    /// hash-and-compare step over the whole batch, and only threshold
    /// beats reach the message pump. Samples, thresholds, memory,
    /// message counts and checkpoint bytes are identical either way,
    /// which the twin tests pin.
    fn observe_batch(&mut self, batch: &[Element]) {
        for &e in batch {
            self.observe(e);
        }
    }

    /// Timestamped batch observation: advance the clock to `now`, then
    /// observe the batch — the batched [`DistinctSampler::observe_at`].
    fn observe_batch_at(&mut self, now: Slot, batch: &[Element]) {
        self.advance(now);
        self.observe_batch(batch);
    }

    /// The current distinct sample. For bottom-`s` samplers this is
    /// ascending by hash; for with-replacement it is the per-copy minima
    /// in copy order. Window samplers answer as of the current clock.
    fn sample(&self) -> Vec<Element>;

    /// The bottom-`s` threshold `u(t)`, where the protocol maintains a
    /// single one (`None` for with-replacement, whose `s` copies each
    /// have their own).
    fn threshold(&self) -> Option<UnitValue>;

    /// Memory footprint in stored tuples.
    fn memory_tuples(&self) -> usize;

    /// Site ↔ coordinator messages this instance would have exchanged had
    /// its halves been deployed apart (0 for inherently single-node
    /// samplers).
    fn protocol_messages(&self) -> u64 {
        0
    }

    /// Serialize the instance's complete internal state — hash seeds,
    /// thresholds, candidate sets, clocks, message counters — as a
    /// versioned, checksummed binary envelope appended to `out`. The
    /// inverse is [`crate::checkpoint::restore_sampler`]; a restored
    /// instance is observationally identical to this one on any suffix
    /// of observations, advances, and queries.
    fn checkpoint(&self, out: &mut Vec<u8>);
}

impl DistinctSampler for CentralizedSampler {
    fn observe(&mut self, e: Element) {
        CentralizedSampler::observe(self, e);
    }

    fn sample(&self) -> Vec<Element> {
        CentralizedSampler::sample(self)
    }

    fn threshold(&self) -> Option<UnitValue> {
        Some(CentralizedSampler::threshold(self))
    }

    fn memory_tuples(&self) -> usize {
        self.bottom().len()
    }

    fn checkpoint(&self, out: &mut Vec<u8>) {
        checkpoint::seal_state(checkpoint::kind::CENTRALIZED, self, out);
    }
}

pub(crate) mod sealed {
    /// Only this crate's protocol sites are hosted by [`super::Fused`].
    pub trait Sealed {}
}

/// The site half of a protocol that [`Fused`] hosts, with what differs
/// between the protocols and nothing else. Sealed: [`LazySite`],
/// [`WrSite`], [`SwSite`] and [`MultiSwSite`] implement it, each beside
/// its protocol.
pub trait FusedSite: SiteNode + Wire + Clone + Debug + Send + sealed::Sealed {
    /// The coordinator half.
    type Coordinator: CoordinatorNode<Up = Self::Up, Down = Self::Down>
        + Wire
        + Clone
        + Debug
        + Send;

    /// The checkpoint envelope's kind tag (see [`checkpoint::kind`]).
    const KIND: u8;

    /// Whether the protocol runs a slot clock. A clockless host ignores
    /// [`DistinctSampler::advance`] and leaves its clock out of its
    /// checkpoint.
    const CLOCKED: bool;

    /// The parallel copies: 1, or `s` for sampling with replacement.
    fn lanes(&self) -> usize {
        1
    }

    /// Lane `lane`'s observation step at slot `now`: hash `e` under the
    /// lane's hash function and return the up-message if it beats the
    /// lane's threshold. [`SiteNode::observe`] is this step over every
    /// lane in order.
    fn observe_lane(&mut self, lane: usize, e: Element, now: Slot) -> Option<Self::Up>;

    /// The single bottom-`s` threshold, or `None` when each lane keeps
    /// its own.
    fn threshold(coordinator: &Self::Coordinator) -> Option<UnitValue>;

    /// True when neither half holds live state at `now`, so that every
    /// further slot boundary is silent: the licence to fast-forward the
    /// clock. Asked only of clocked protocols.
    fn idle(&self, coordinator: &Self::Coordinator, now: Slot) -> bool {
        let _ = (coordinator, now);
        false
    }
}

/// One protocol's two halves fused into one [`DistinctSampler`]: a
/// single site wired directly to its coordinator, with the slot clock
/// and the message count owned by the host.
///
/// The site filter still runs in front of the coordinator, so the hot
/// path for an out-of-sample element is one inline hash and one compare
/// per lane — the same O(1) work a remote site would do — and
/// `protocol_messages` reports the traffic a `k = 1` deployment would
/// have put on the wire.
///
/// For clocked protocols, [`DistinctSampler::advance`] replays the
/// deployment's slot-boundary protocol one slot at a time — coordinator
/// hook first, then the site's expiry/fallback hook, with every
/// triggered exchange settled inside the boundary — so a host produces
/// exactly the sample *and* message count of a `k = 1` cluster driven
/// to the same slot. When neither half holds live state
/// ([`FusedSite::idle`]: a fresh or fully drained window, in either
/// coordinator mode), the rest of the gap is fast-forwarded in O(1):
/// the protocol is silent on an empty system, so jumping and replaying
/// the coordinator's slot hook once is observationally identical to
/// stepping — which keeps `advance` cheap for serving layers whose idle
/// tenants wake up far in the future.
#[derive(Debug, Clone)]
pub struct Fused<S: FusedSite> {
    site: S,
    coordinator: S::Coordinator,
    now: Slot,
    messages: u64,
}

/// Algorithms 1 & 2 fused: a single [`LazySite`] wired to its
/// [`crate::LazyCoordinator`].
pub type FusedInfinite = Fused<LazySite>;

/// §3's with-replacement construction fused: a single [`WrSite`] (`s`
/// per-copy thresholds) wired to its [`WrCoordinator`].
pub type FusedWr = Fused<WrSite>;

/// Algorithms 3 & 4 fused: a single [`SwSite`] wired to its
/// [`SwCoordinator`].
pub type FusedSliding = Fused<SwSite>;

/// The multi-window (`s > 1`, with replacement) variant of
/// [`FusedSliding`]: one [`MultiSwSite`] wired to its
/// [`MultiSwCoordinator`] — `s` independent copies of Algorithms 3 & 4
/// advanced by one shared clock.
pub type FusedSlidingMulti = Fused<MultiSwSite>;

impl FusedInfinite {
    /// Build from the same config a distributed deployment would use.
    #[must_use]
    pub fn new(config: &InfiniteConfig) -> Self {
        Self::from_halves(LazySite::new(config.hasher()), config.coordinator())
    }
}

impl FusedWr {
    /// Build `s` fused copies from a deployment config.
    #[must_use]
    pub fn new(config: &WrConfig) -> Self {
        Self::from_halves(
            WrSite::new(config.hashers()),
            WrCoordinator::new(config.hashers()),
        )
    }
}

impl FusedSliding {
    /// Build from the same config a distributed deployment would use
    /// (`k = 1` registry sizing, same hash, same coordinator mode).
    #[must_use]
    pub fn new(config: &SlidingConfig) -> Self {
        Self::from_halves(
            SwSite::new(config.window, config.hasher()),
            SwCoordinator::new(config.hasher(), 1, config.mode),
        )
    }
}

impl FusedSlidingMulti {
    /// Build `s` fused sliding copies from a deployment config.
    #[must_use]
    pub fn new(config: &MultiSlidingConfig) -> Self {
        Self::from_halves(
            MultiSwSite::new(config.window, config.hashers()),
            MultiSwCoordinator::new(config.hashers(), 1, config.mode),
        )
    }
}

impl<S: FusedSite> Fused<S> {
    fn from_halves(site: S, coordinator: S::Coordinator) -> Self {
        Self {
            site,
            coordinator,
            now: Slot(0),
            messages: 0,
        }
    }

    /// The host's slot clock (the last slot passed to `advance` /
    /// `observe_at`, or 0 initially; always 0 when clockless).
    #[must_use]
    pub fn now(&self) -> Slot {
        self.now
    }

    /// Deliver `downs` to the site, then every pending up-message and
    /// everything it triggers — the `k = 1` specialization of the
    /// simulator's `settle` loop, with identical per-message accounting.
    /// Termination: site replies never generate new up-messages in these
    /// protocols, and each up-message produces at most one reply.
    ///
    /// The queues are the caller's locals, not fields of the host:
    /// `Vec::new` does not allocate, so a call that sends nothing costs
    /// nothing, and a hosted tenant keeps no pump heap between calls.
    /// Messages are rare after warm-up (Lemma 4: O(s log n) over a
    /// stream's life), so the allocation a message does pay is off the
    /// hot path.
    fn settle(&mut self, mut ups: Vec<S::Up>, mut downs: Vec<(Destination, S::Down)>) {
        loop {
            while let Some((_, down)) = downs.pop() {
                self.messages += 1;
                self.site.handle(down, self.now, &mut ups);
            }
            let Some(up) = ups.pop() else { return };
            self.messages += 1;
            self.coordinator.handle(SiteId(0), up, self.now, &mut downs);
        }
    }

    /// One slot boundary, in the simulator's order: coordinator hook,
    /// deliver its output, site hook, settle.
    fn step_slot(&mut self) {
        self.now = self.now.next();
        let mut downs = Vec::new();
        self.coordinator.on_slot_start(self.now, &mut downs);
        self.settle(Vec::new(), downs);
        let mut ups = Vec::new();
        self.site.on_slot_start(self.now, &mut ups);
        self.settle(ups, Vec::new());
    }
}

/// Checkpoint layout: site, coordinator, clock (clocked protocols
/// only), message counter.
impl<S: FusedSite> Wire for Fused<S> {
    const MIN_BYTES: usize = S::MIN_BYTES
        + <S::Coordinator as Wire>::MIN_BYTES
        + if S::CLOCKED { Slot::MIN_BYTES } else { 0 }
        + u64::MIN_BYTES;

    fn put(&self, w: &mut StateWriter) {
        w.put(&self.site);
        w.put(&self.coordinator);
        if S::CLOCKED {
            w.put(&self.now);
        }
        w.put(&self.messages);
    }

    fn get(r: &mut StateReader<'_>) -> Result<Self, CheckpointError> {
        Ok(Self {
            site: r.get()?,
            coordinator: r.get()?,
            now: if S::CLOCKED { r.get()? } else { Slot(0) },
            messages: r.get()?,
        })
    }
}

impl<S: FusedSite> DistinctSampler for Fused<S> {
    fn clock(&self) -> Slot {
        self.now
    }

    fn observe(&mut self, e: Element) {
        let mut ups = Vec::new();
        self.site.observe(e, self.now, &mut ups);
        // Most observations send nothing; they skip the pump's call.
        if !ups.is_empty() {
            self.settle(ups, Vec::new());
        }
    }

    fn observe_batch(&mut self, batch: &[Element]) {
        // Copy-major: each lane runs its hash-and-compare step over the
        // whole batch before the next lane starts. The lanes are fully
        // independent protocols (coordinator copy j handles only copy-j
        // traffic), so reordering elements *across* lanes — while
        // preserving their order within each lane — leaves every lane's
        // state, sample and message count as element-major observation
        // would; the twin tests pin this. Only threshold beats (rare
        // after warm-up) touch the message pump.
        for lane in 0..self.site.lanes() {
            for &e in batch {
                if let Some(up) = self.site.observe_lane(lane, e, self.now) {
                    self.settle(vec![up], Vec::new());
                }
            }
        }
    }

    fn advance(&mut self, now: Slot) {
        if !S::CLOCKED {
            return;
        }
        while self.now < now {
            if self.site.idle(&self.coordinator, self.now) {
                // Empty system ⇒ every remaining step is silent. Jump,
                // then run the coordinator's slot hook once so its clock
                // and dead-state bookkeeping (fallback-to-none, registry
                // cleanup) land exactly where stepping would leave them.
                self.now = now;
                let mut downs = Vec::new();
                self.coordinator.on_slot_start(now, &mut downs);
                debug_assert!(downs.is_empty(), "idle coordinator spoke");
                return;
            }
            self.step_slot();
        }
    }

    fn sample(&self) -> Vec<Element> {
        self.coordinator.sample()
    }

    fn threshold(&self) -> Option<UnitValue> {
        S::threshold(&self.coordinator)
    }

    fn memory_tuples(&self) -> usize {
        self.site.memory_tuples() + self.coordinator.memory_tuples()
    }

    fn protocol_messages(&self) -> u64 {
        self.messages
    }

    fn checkpoint(&self, out: &mut Vec<u8>) {
        checkpoint::seal_state(S::KIND, self, out);
    }
}

/// Every sampler a [`SamplerSpec`] builds, as one closed enum.
///
/// A serving layer that hosts thousands of instances holds this by
/// value: each call is a `match` over five known kinds rather than a
/// vtable call, and the state sits inline in the host's table instead of
/// behind a pointer. It is built only by [`SamplerSpec::instance`] and
/// [`crate::checkpoint::restore_instance`]; [`SamplerSpec::build`] and
/// [`crate::checkpoint::restore_sampler`] box it for callers that want
/// a `Box<dyn DistinctSampler>`.
///
/// The enum is as large as its largest inline kind, and every hosted
/// tenant pays that size. Four kinds sit inline, the largest being
/// [`CentralizedSampler`] at 104 bytes. [`FusedSliding`] is boxed: at
/// 168 bytes it is well over that, and it serves only `s = 1` sliding
/// tenants, so holding it inline would make every other kind's tenants
/// pay for it. A `Sliding` call pays one pointer chase instead.
#[derive(Debug, Clone)]
pub enum AnySampler {
    /// [`SamplerKind::Centralized`].
    Centralized(CentralizedSampler),
    /// [`SamplerKind::Infinite`].
    Infinite(FusedInfinite),
    /// [`SamplerKind::WithReplacement`].
    WithReplacement(FusedWr),
    /// [`SamplerKind::Sliding`], boxed (see above).
    Sliding(Box<FusedSliding>),
    /// [`SamplerKind::SlidingMulti`].
    SlidingMulti(FusedSlidingMulti),
}

/// Forward one [`DistinctSampler`] call to whichever kind `$any` holds,
/// binding `$inner` to it: mutably for the `mut` form, and through the
/// box for `Sliding`.
macro_rules! dispatch {
    (@ $any:expr, $boxed:ident => $unbox:expr, $inner:ident => $call:expr) => {
        match $any {
            AnySampler::Centralized($inner) => $call,
            AnySampler::Infinite($inner) => $call,
            AnySampler::WithReplacement($inner) => $call,
            AnySampler::Sliding($boxed) => {
                let $inner = $unbox;
                $call
            }
            AnySampler::SlidingMulti($inner) => $call,
        }
    };
    (mut $any:expr, $inner:ident => $call:expr) => {
        dispatch!(@ $any, boxed => &mut **boxed, $inner => $call)
    };
    ($any:expr, $inner:ident => $call:expr) => {
        dispatch!(@ $any, boxed => &**boxed, $inner => $call)
    };
}

impl DistinctSampler for AnySampler {
    fn observe(&mut self, e: Element) {
        dispatch!(mut self, s => DistinctSampler::observe(s, e));
    }

    fn advance(&mut self, now: Slot) {
        dispatch!(mut self, s => DistinctSampler::advance(s, now));
    }

    fn clock(&self) -> Slot {
        dispatch!(self, s => DistinctSampler::clock(s))
    }

    fn observe_at(&mut self, e: Element, now: Slot) {
        dispatch!(mut self, s => DistinctSampler::observe_at(s, e, now));
    }

    fn observe_batch(&mut self, batch: &[Element]) {
        dispatch!(mut self, s => DistinctSampler::observe_batch(s, batch));
    }

    fn observe_batch_at(&mut self, now: Slot, batch: &[Element]) {
        dispatch!(mut self, s => DistinctSampler::observe_batch_at(s, now, batch));
    }

    fn sample(&self) -> Vec<Element> {
        dispatch!(self, s => DistinctSampler::sample(s))
    }

    fn threshold(&self) -> Option<UnitValue> {
        dispatch!(self, s => DistinctSampler::threshold(s))
    }

    fn memory_tuples(&self) -> usize {
        dispatch!(self, s => DistinctSampler::memory_tuples(s))
    }

    fn protocol_messages(&self) -> u64 {
        dispatch!(self, s => DistinctSampler::protocol_messages(s))
    }

    fn checkpoint(&self, out: &mut Vec<u8>) {
        dispatch!(self, s => DistinctSampler::checkpoint(s, out));
    }
}

/// Which protocol backs an instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SamplerKind {
    /// [`CentralizedSampler`] — exact bottom-`s` with O(d) oracle
    /// bookkeeping; the correctness reference.
    Centralized,
    /// [`FusedInfinite`] — Algorithms 1 & 2, O(s) state, the default.
    Infinite,
    /// [`FusedWr`] — `s` independent single-element copies (sampling
    /// *with* replacement).
    WithReplacement,
    /// [`FusedSliding`] — Algorithms 3 & 4 over a time-based window of
    /// `window` slots (`s = 1`; the single-sample protocol).
    Sliding {
        /// Window length in slots (`≥ 1`).
        window: u64,
    },
    /// [`FusedSlidingMulti`] — `s` parallel sliding copies over a
    /// `window`-slot window (sampling *with* replacement).
    SlidingMulti {
        /// Window length in slots (`≥ 1`).
        window: u64,
    },
}

impl SamplerKind {
    /// The window length for window-bounded kinds (`None` for the
    /// infinite-window protocols).
    #[must_use]
    pub fn window(&self) -> Option<u64> {
        match *self {
            SamplerKind::Sliding { window } | SamplerKind::SlidingMulti { window } => Some(window),
            _ => None,
        }
    }
}

/// A value-level description of one sampling instance: protocol, sample
/// size, and the seed of the shared hash family.
///
/// Two specs that are equal build samplers that agree exactly on every
/// stream — which is what lets a serving layer check any instance against
/// a [`CentralizedSampler`] oracle built from the same spec.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SamplerSpec {
    /// Protocol choice.
    pub kind: SamplerKind,
    /// Sample size `s ≥ 1` (number of copies for with-replacement).
    pub s: usize,
    /// Seed of the Murmur2 hash family shared by the instance.
    pub seed: u64,
}

impl SamplerSpec {
    /// The largest sample size a spec accepts. Building an instance
    /// allocates per copy or per tuple of `s`, so a spec decoded from
    /// outside the program must not name more.
    pub const MAX_S: usize = 1 << 20;

    /// A spec for the given protocol.
    ///
    /// # Panics
    /// Where [`SamplerSpec::try_new`] refuses.
    #[must_use]
    pub fn new(kind: SamplerKind, s: usize, seed: u64) -> Self {
        Self::try_new(kind, s, seed).unwrap_or_else(|reason| panic!("{reason}"))
    }

    /// A spec for the given protocol, or the rule it breaks: every
    /// decoder of a spec builds it here.
    ///
    /// # Errors
    /// If `s == 0` or `s >` [`SamplerSpec::MAX_S`], if a window-bounded
    /// kind has `window == 0`, or if `kind` is [`SamplerKind::Sliding`]
    /// with `s != 1` (the single-sample protocol; use
    /// [`SamplerKind::SlidingMulti`] for larger window samples).
    pub fn try_new(kind: SamplerKind, s: usize, seed: u64) -> Result<Self, &'static str> {
        if s == 0 {
            return Err("sample size must be at least 1");
        }
        if s > Self::MAX_S {
            return Err("sample size above SamplerSpec::MAX_S");
        }
        if kind.window() == Some(0) {
            return Err("window must be at least one slot");
        }
        if matches!(kind, SamplerKind::Sliding { .. }) && s != 1 {
            return Err(
                "Sliding is the single-sample protocol (s = 1); use SlidingMulti for s > 1",
            );
        }
        Ok(Self { kind, s, seed })
    }

    /// The window length in slots, for window-bounded specs.
    #[must_use]
    pub fn window(&self) -> Option<u64> {
        self.kind.window()
    }

    /// The hash family all builds of this spec share.
    #[must_use]
    pub fn family(&self) -> HashFamily {
        HashFamily::new(self.seed)
    }

    /// The primary hash function (what a bottom-`s` oracle should use).
    #[must_use]
    pub fn hasher(&self) -> SeededHash {
        self.family().primary()
    }

    /// Build one sampler instance as the closed [`AnySampler`] enum —
    /// what a host of many instances stores by value.
    #[must_use]
    pub fn instance(&self) -> AnySampler {
        match self.kind {
            SamplerKind::Centralized => {
                AnySampler::Centralized(CentralizedSampler::new(self.s, self.hasher()))
            }
            SamplerKind::Infinite => AnySampler::Infinite(FusedInfinite::new(&InfiniteConfig {
                s: self.s,
                family: self.family(),
            })),
            SamplerKind::WithReplacement => AnySampler::WithReplacement(FusedWr::new(&WrConfig {
                s: self.s,
                family: self.family(),
            })),
            SamplerKind::Sliding { window } => AnySampler::Sliding(Box::new(FusedSliding::new(
                &SlidingConfig::with_seed(window, self.seed),
            ))),
            SamplerKind::SlidingMulti { window } => AnySampler::SlidingMulti(
                FusedSlidingMulti::new(&MultiSlidingConfig::with_seed(self.s, window, self.seed)),
            ),
        }
    }

    /// Build one sampler instance behind the unified interface: a boxed
    /// [`SamplerSpec::instance`].
    #[must_use]
    pub fn build(&self) -> Box<dyn DistinctSampler> {
        Box::new(self.instance())
    }

    /// The exact-oracle twin of this spec: a [`CentralizedSampler`] over
    /// the same hash function. For `Centralized` and `Infinite` specs the
    /// oracle's sample matches [`SamplerSpec::build`]'s output exactly;
    /// for `WithReplacement` it provides the without-replacement
    /// reference.
    #[must_use]
    pub fn oracle(&self) -> CentralizedSampler {
        CentralizedSampler::new(self.s, self.hasher())
    }

    /// Brute-force window oracles for window-bounded specs: one
    /// [`SlidingOracle`] per copy (a single oracle for `Sliding`, `s`
    /// for `SlidingMulti`, none for the infinite-window kinds). Feeding
    /// an oracle the same timestamped stream as
    /// [`DistinctSampler::observe_at`] makes copy `j`'s
    /// `min_in_window(now)` the exact expected `j`-th sample entry.
    #[must_use]
    pub fn sliding_oracles(&self) -> Vec<SlidingOracle> {
        match self.kind {
            SamplerKind::Sliding { window } => {
                vec![SlidingOracle::new(window, self.hasher())]
            }
            SamplerKind::SlidingMulti { window } => self
                .family()
                .members(self.s)
                .map(|h| SlidingOracle::new(window, h))
                .collect(),
            _ => Vec::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dds_hash::UnitHash;
    use dds_sim::Cluster;

    fn stream(n: u64, modulus: u64) -> impl Iterator<Item = Element> {
        // Repeat-heavy deterministic stream exercising in-sample repeats.
        (0..n).map(move |i| Element((i * i + 7 * i) % modulus))
    }

    #[test]
    fn fused_infinite_matches_oracle_and_k1_cluster() {
        let config = InfiniteConfig::with_seed(8, 42);
        let mut fused = FusedInfinite::new(&config);
        let mut oracle = CentralizedSampler::new(8, config.hasher());
        let mut sim = config.cluster(1);
        for e in stream(5_000, 900) {
            DistinctSampler::observe(&mut fused, e);
            oracle.observe(e);
            sim.observe(SiteId(0), e);
        }
        assert_eq!(DistinctSampler::sample(&fused), oracle.sample());
        assert_eq!(DistinctSampler::sample(&fused), sim.sample());
        assert_eq!(DistinctSampler::threshold(&fused), Some(oracle.threshold()));
        // Fusing must not change the would-be wire traffic of k = 1.
        assert_eq!(
            fused.protocol_messages(),
            sim.counters().total_messages(),
            "fused adapter and k=1 simulator disagree on message count"
        );
        assert!(fused.protocol_messages() > 0);
    }

    #[test]
    fn fused_wr_matches_k1_cluster() {
        let s = 6;
        let family = HashFamily::new(7);
        let mut fused = FusedWr::new(&WrConfig { s, family });
        let hashers: Vec<SeededHash> = family.members(s).collect();
        let mut sim: Cluster<WrSite, WrCoordinator> = Cluster::new(
            vec![WrSite::new(hashers.clone())],
            WrCoordinator::new(hashers.clone()),
        );
        let elems: Vec<Element> = stream(3_000, 700).collect();
        for &e in &elems {
            DistinctSampler::observe(&mut fused, e);
            sim.observe(SiteId(0), e);
        }
        let sample = DistinctSampler::sample(&fused);
        assert_eq!(sample, sim.sample());
        assert_eq!(sample.len(), s);
        // Each copy's entry is the true argmin of its hash function.
        for (j, hasher) in hashers.iter().enumerate() {
            let want = elems.iter().copied().min_by_key(|&e| hasher.unit(e.0));
            assert_eq!(Some(sample[j]), want, "copy {j}");
        }
        assert_eq!(fused.protocol_messages(), sim.counters().total_messages());
        assert_eq!(DistinctSampler::threshold(&fused), None);
    }

    #[test]
    fn spec_builds_agree_with_their_direct_counterparts() {
        for kind in [
            SamplerKind::Centralized,
            SamplerKind::Infinite,
            SamplerKind::WithReplacement,
        ] {
            let spec = SamplerSpec::new(kind, 5, 99);
            let mut a = spec.build();
            let mut b = spec.build();
            for e in stream(2_000, 333) {
                a.observe(e);
                b.observe(e);
            }
            assert_eq!(a.sample(), b.sample(), "{kind:?} build not deterministic");
            assert!(a.memory_tuples() > 0);
        }
    }

    #[test]
    fn centralized_and_infinite_specs_match_the_shared_oracle() {
        let spec_c = SamplerSpec::new(SamplerKind::Centralized, 7, 5);
        let spec_i = SamplerSpec::new(SamplerKind::Infinite, 7, 5);
        let mut c = spec_c.build();
        let mut i = spec_i.build();
        let mut oracle = spec_c.oracle();
        for e in stream(4_000, 1_000) {
            c.observe(e);
            i.observe(e);
            oracle.observe(e);
        }
        assert_eq!(c.sample(), oracle.sample());
        assert_eq!(i.sample(), oracle.sample());
        assert_eq!(c.threshold(), Some(oracle.threshold()));
        assert_eq!(i.threshold(), Some(oracle.threshold()));
    }

    #[test]
    fn boxed_samplers_are_send() {
        fn assert_send<T: Send + ?Sized>() {}
        assert_send::<dyn DistinctSampler>();
        let sampler = SamplerSpec::new(SamplerKind::Infinite, 2, 1).build();
        std::thread::spawn(move || drop(sampler)).join().unwrap();
    }

    #[test]
    #[should_panic(expected = "sample size must be at least 1")]
    fn zero_s_spec_rejected() {
        let _ = SamplerSpec::new(SamplerKind::Infinite, 0, 1);
    }

    #[test]
    #[should_panic(expected = "window must be at least one slot")]
    fn zero_window_spec_rejected() {
        let _ = SamplerSpec::new(SamplerKind::Sliding { window: 0 }, 1, 1);
    }

    #[test]
    #[should_panic(expected = "single-sample protocol")]
    fn sliding_spec_with_s_above_one_rejected() {
        let _ = SamplerSpec::new(SamplerKind::Sliding { window: 8 }, 2, 1);
    }

    /// Drive a fused sliding adapter and a k = 1 cluster through the same
    /// slotted input; samples must agree at *every* query point (after
    /// each slot boundary and after each observation) and message counts
    /// must agree continuously — the fused adapter is the deployment,
    /// relocated.
    #[test]
    fn fused_sliding_matches_oracle_and_k1_cluster() {
        use dds_data::{SlottedInput, TraceLikeStream, TraceProfile};
        let window = 12;
        let config = SlidingConfig::with_seed(window, 404);
        let mut fused = FusedSliding::new(&config);
        let mut sim = config.cluster(1);
        let mut oracle = SlidingOracle::new(window, config.hasher());
        let profile = TraceProfile {
            name: "t",
            total: 2_500,
            distinct: 900,
        };
        let input = SlottedInput::new(TraceLikeStream::new(profile, 11), 1, 5, 3);
        for (slot, batch) in input {
            while sim.now() < slot {
                sim.advance_slot();
                fused.advance(sim.now());
                oracle.expire(sim.now());
                assert_eq!(fused.sample(), sim.sample(), "slot {slot} boundary");
                assert_eq!(
                    fused.protocol_messages(),
                    sim.counters().total_messages(),
                    "messages diverged at slot boundary {slot}"
                );
            }
            for (_, e) in batch {
                DistinctSampler::observe(&mut fused, e);
                sim.observe(SiteId(0), e);
                oracle.observe(e, slot);
                assert_eq!(fused.sample(), sim.sample(), "after {e} at slot {slot}");
            }
            let want: Vec<Element> = oracle
                .min_in_window(slot)
                .map(|(e, _, _)| e)
                .into_iter()
                .collect();
            assert_eq!(fused.sample(), want, "oracle mismatch at slot {slot}");
        }
        assert_eq!(fused.protocol_messages(), sim.counters().total_messages());
        assert!(fused.protocol_messages() > 0);
        // Drain both: the fused window must empty exactly like the
        // cluster's, and an empty system must stay silent.
        let drained = Slot(fused.now().0 + window + 1);
        sim.advance_slots(window + 1);
        fused.advance(drained);
        assert!(fused.sample().is_empty());
        assert_eq!(fused.protocol_messages(), sim.counters().total_messages());
        assert_eq!(fused.threshold(), Some(UnitValue::ONE));
        assert_eq!(fused.memory_tuples(), 0, "drained window must free state");
    }

    /// The quiescent fast-forward must be invisible: a sampler advanced
    /// across a huge idle gap behaves exactly like a cluster stepped
    /// through every slot of that gap.
    #[test]
    fn fused_sliding_fast_forward_is_exact() {
        let config = SlidingConfig::with_seed(10, 77);
        let mut fused = FusedSliding::new(&config);
        let mut sim = config.cluster(1);
        // Gap 1: from pristine state.
        fused.advance(Slot(5_000));
        sim.advance_slots(5_000);
        for e in [3u64, 9, 41, 3, 7].map(Element) {
            DistinctSampler::observe(&mut fused, e);
            sim.observe(SiteId(0), e);
            assert_eq!(fused.sample(), sim.sample());
        }
        // Gap 2: across a drained window (state dies mid-gap).
        fused.advance(Slot(15_000));
        sim.advance_slots(10_000);
        assert!(fused.sample().is_empty());
        assert_eq!(fused.sample(), sim.sample());
        DistinctSampler::observe(&mut fused, Element(100));
        sim.observe(SiteId(0), Element(100));
        assert_eq!(fused.sample(), sim.sample());
        assert_eq!(fused.protocol_messages(), sim.counters().total_messages());
    }

    /// The multi-window adapter against a k = 1 multi-sliding cluster and
    /// the per-copy brute-force window oracles.
    #[test]
    fn fused_sliding_multi_matches_k1_cluster_and_copy_oracles() {
        use dds_data::{SlottedInput, TraceLikeStream, TraceProfile};
        let spec = SamplerSpec::new(SamplerKind::SlidingMulti { window: 20 }, 4, 909);
        let config = MultiSlidingConfig::with_seed(4, 20, 909);
        let mut fused = FusedSlidingMulti::new(&config);
        let mut sim = config.cluster(1);
        let mut oracles = spec.sliding_oracles();
        assert_eq!(oracles.len(), 4);
        let profile = TraceProfile {
            name: "t",
            total: 1_500,
            distinct: 500,
        };
        let input = SlottedInput::new(TraceLikeStream::new(profile, 5), 1, 5, 8);
        for (slot, batch) in input {
            while sim.now() < slot {
                sim.advance_slot();
                fused.advance(sim.now());
                for o in &mut oracles {
                    o.expire(sim.now());
                }
                assert_eq!(fused.sample(), sim.sample(), "slot {slot} boundary");
            }
            for (_, e) in batch {
                DistinctSampler::observe(&mut fused, e);
                sim.observe(SiteId(0), e);
                for o in &mut oracles {
                    o.observe(e, slot);
                }
            }
            let want: Vec<Element> = oracles
                .iter()
                .filter_map(|o| o.min_in_window(slot).map(|(e, _, _)| e))
                .collect();
            assert_eq!(fused.sample(), want, "copy oracles mismatch at slot {slot}");
            assert_eq!(
                fused.protocol_messages(),
                sim.counters().total_messages(),
                "messages diverged at slot {slot}"
            );
        }
        assert_eq!(fused.threshold(), None);
    }

    /// Spec-built sliding samplers are deterministic and advance through
    /// the boxed trait object.
    #[test]
    fn sliding_specs_build_and_replay_deterministically() {
        for kind in [
            SamplerKind::Sliding { window: 16 },
            SamplerKind::SlidingMulti { window: 16 },
        ] {
            let s = if matches!(kind, SamplerKind::Sliding { .. }) {
                1
            } else {
                3
            };
            let spec = SamplerSpec::new(kind, s, 55);
            assert_eq!(spec.window(), Some(16));
            let mut a = spec.build();
            let mut b = spec.build();
            for i in 0..2_000u64 {
                let now = Slot(i / 5);
                a.observe_at(Element((i * i) % 311), now);
                b.observe_at(Element((i * i) % 311), now);
            }
            assert_eq!(a.sample(), b.sample(), "{kind:?} build not deterministic");
            assert_eq!(a.protocol_messages(), b.protocol_messages());
            assert!(a.memory_tuples() > 0);
            // Advancing past the window drains the sample and the state.
            a.advance(Slot(2_000 / 5 + 17));
            assert!(a.sample().is_empty(), "{kind:?} failed to drain");
            assert_eq!(a.memory_tuples(), 0, "{kind:?} kept state past expiry");
        }
    }

    /// Faithful mode keeps its expired sample tuple forever by design;
    /// the fast-forward must still engage once the window has drained —
    /// a billion-slot advance must return promptly and answer empty —
    /// and stay exact against a cluster stepped the same distance.
    #[test]
    fn faithful_mode_fast_forwards_after_drain() {
        use crate::sliding::CoordinatorMode;
        let config = SlidingConfig::with_seed(5, 3).mode(CoordinatorMode::Faithful);
        let mut fused = FusedSliding::new(&config);
        let mut sim = config.cluster(1);
        DistinctSampler::observe(&mut fused, Element(9));
        sim.observe(SiteId(0), Element(9));
        // Cross-check at a cluster-steppable distance first…
        fused.advance(Slot(2_000));
        sim.advance_slots(2_000);
        assert!(fused.sample().is_empty());
        assert_eq!(fused.sample(), sim.sample());
        assert_eq!(fused.protocol_messages(), sim.counters().total_messages());
        // …then jump a distance only the fast path can cover.
        fused.advance(Slot(1_000_000_000));
        assert_eq!(fused.now(), Slot(1_000_000_000));
        assert!(fused.sample().is_empty());
    }

    /// `advance` must be monotonic: a stale timestamp never rewinds.
    #[test]
    fn advance_is_monotonic() {
        let spec = SamplerSpec::new(SamplerKind::Sliding { window: 4 }, 1, 3);
        let mut sampler = spec.build();
        sampler.observe_at(Element(1), Slot(10));
        sampler.advance(Slot(2)); // stale: must not rewind
        sampler.observe_at(Element(2), Slot(3)); // stale observe: lands at clock 10
        assert_eq!(sampler.sample().len(), 1);
        sampler.advance(Slot(14));
        assert!(sampler.sample().is_empty(), "window must expire at 14");
    }

    /// Every hosted tenant pays `size_of::<AnySampler>()`, so a field
    /// added to any kind must fail here rather than silently add bytes
    /// to every tenant. The pins are the measured sizes on a 64-bit
    /// target; `FusedSliding` is the boxed kind, well over the inline
    /// bound (see the `AnySampler` docs).
    #[test]
    fn any_sampler_stays_at_its_inline_bound() {
        use std::mem::size_of;
        for (kind, size, pin) in [
            ("AnySampler", size_of::<AnySampler>(), 104),
            ("CentralizedSampler", size_of::<CentralizedSampler>(), 104),
            ("FusedInfinite", size_of::<FusedInfinite>(), 88),
            ("FusedWr", size_of::<FusedWr>(), 64),
            ("FusedSlidingMulti", size_of::<FusedSlidingMulti>(), 64),
            ("FusedSliding", size_of::<FusedSliding>(), 168),
        ] {
            assert_eq!(size, pin, "{kind} is {size} B, pinned at {pin} B");
        }
    }

    /// `clock()` tracks the slot clock on windowed kinds and stays 0 on
    /// clockless ones — the hook serving layers use to detect stale
    /// timestamps *before* `observe_at` clamps them.
    #[test]
    fn clock_reports_the_slot_clock() {
        for kind in [
            SamplerKind::Centralized,
            SamplerKind::Infinite,
            SamplerKind::WithReplacement,
            SamplerKind::Sliding { window: 6 },
            SamplerKind::SlidingMulti { window: 6 },
        ] {
            let s = if matches!(kind, SamplerKind::Sliding { .. }) {
                1
            } else {
                2
            };
            let spec = SamplerSpec::new(kind, s, 11);
            let mut sampler = spec.build();
            assert_eq!(sampler.clock(), Slot(0), "{kind:?} starts at 0");
            sampler.observe_at(Element(7), Slot(9));
            sampler.advance(Slot(4)); // stale: clock must not rewind
            let expected = if kind.window().is_some() { 9 } else { 0 };
            assert_eq!(sampler.clock(), Slot(expected), "{kind:?} clock");
        }
    }
}
