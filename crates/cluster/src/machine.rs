//! Kind-dispatched protocol state machines.
//!
//! A cluster node hosts exactly the `dds_core` site/coordinator types
//! the simulator runs — [`SiteMachine`] and [`CoordMachine`] wrap them
//! behind the wire vocabulary ([`SiteUp`] / [`CoordDown`]), converting
//! losslessly in both directions. Nothing protocol-relevant is added or
//! dropped in the conversion, which is what makes byte-exactness
//! against the fused twin possible at all.
//!
//! Two invariants of the paper's protocols are *enforced* here rather
//! than assumed: every coordinator reply is unicast to the sender
//! (Algorithms 2 and 4 never broadcast), and the coordinator's
//! slot-start hook emits nothing (registry-mode fallback is local).
//! A violation turns into a typed [`ClusterError::Protocol`] instead
//! of silently skewing the message accounting.

use dds_core::infinite::{InfiniteConfig, LazyCoordinator, LazySite};
use dds_core::messages::{CopyDown, CopyUp, DownThreshold, SwDown, SwUp, UpElem};
use dds_core::sampler::SamplerKind;
use dds_core::sliding::{SwCoordinator, SwSite};
use dds_core::sliding_multi::{MultiSlidingConfig, MultiSwCoordinator, MultiSwSite};
use dds_core::with_replacement::{WrConfig, WrCoordinator, WrSite};
use dds_hash::UnitValue;
use dds_proto::cluster::{ClusterError, ClusterSpec, CoordDown, SiteUp};
use dds_sim::{CoordinatorNode as CoordinatorTrait, Destination, Element, SiteId, SiteNode, Slot};
use dds_treap::FlatStaircase;

/// The per-site half of the configured protocol. Sliding sites keep
/// their candidate sets on [`FlatStaircase`], the engine's backend; the
/// candidate set is invisible to the protocol, so the Treap-based
/// `dds-sim` twin stays byte-exact.
#[derive(Debug)]
pub(crate) enum SiteMachine {
    Infinite(LazySite),
    Wr(WrSite),
    Sliding(SwSite<FlatStaircase>),
    SlidingMulti(MultiSwSite<FlatStaircase>),
}

impl SiteMachine {
    /// Build the site half exactly as `ClusterSpec.sampler`'s
    /// `cluster(k)` twin would.
    pub(crate) fn new(spec: &ClusterSpec) -> Self {
        let s = spec.sampler;
        match s.kind {
            SamplerKind::Infinite => {
                let cfg = InfiniteConfig::with_seed(s.s, s.seed);
                SiteMachine::Infinite(LazySite::new(cfg.hasher()))
            }
            SamplerKind::WithReplacement => {
                let cfg = WrConfig::with_seed(s.s, s.seed);
                SiteMachine::Wr(WrSite::new(cfg.family.members(cfg.s).collect()))
            }
            SamplerKind::Sliding { window } => {
                let cfg = dds_core::sliding::SlidingConfig::with_seed(window, s.seed);
                SiteMachine::Sliding(SwSite::new(window, cfg.hasher()))
            }
            SamplerKind::SlidingMulti { window } => {
                let cfg = MultiSlidingConfig::with_seed(s.s, window, s.seed);
                SiteMachine::SlidingMulti(MultiSwSite::new(window, cfg.hashers()))
            }
            SamplerKind::Centralized => unreachable!("rejected by ClusterSpec::new"),
        }
    }

    pub(crate) fn observe(&mut self, e: Element, now: Slot) -> Vec<SiteUp> {
        match self {
            SiteMachine::Infinite(site) => {
                let mut ups = Vec::new();
                site.observe(e, now, &mut ups);
                ups.into_iter().map(up_from_infinite).collect()
            }
            SiteMachine::Wr(site) => {
                let mut ups = Vec::new();
                site.observe(e, now, &mut ups);
                ups.into_iter().map(up_from_wr).collect()
            }
            SiteMachine::Sliding(site) => {
                let mut ups = Vec::new();
                site.observe(e, now, &mut ups);
                ups.into_iter().map(up_from_sliding).collect()
            }
            SiteMachine::SlidingMulti(site) => {
                let mut ups = Vec::new();
                site.observe(e, now, &mut ups);
                ups.into_iter().map(up_from_sliding_multi).collect()
            }
        }
    }

    pub(crate) fn on_slot_start(&mut self, now: Slot) -> Vec<SiteUp> {
        match self {
            SiteMachine::Infinite(site) => {
                let mut ups = Vec::new();
                site.on_slot_start(now, &mut ups);
                ups.into_iter().map(up_from_infinite).collect()
            }
            SiteMachine::Wr(site) => {
                let mut ups = Vec::new();
                site.on_slot_start(now, &mut ups);
                ups.into_iter().map(up_from_wr).collect()
            }
            SiteMachine::Sliding(site) => {
                let mut ups = Vec::new();
                site.on_slot_start(now, &mut ups);
                ups.into_iter().map(up_from_sliding).collect()
            }
            SiteMachine::SlidingMulti(site) => {
                let mut ups = Vec::new();
                site.on_slot_start(now, &mut ups);
                ups.into_iter().map(up_from_sliding_multi).collect()
            }
        }
    }

    /// Apply one coordinator reply; any triggered re-sends come back
    /// as new ups.
    ///
    /// # Errors
    /// [`ClusterError::Protocol`] when the reply's kind does not match
    /// this machine's protocol.
    pub(crate) fn handle(
        &mut self,
        down: CoordDown,
        now: Slot,
    ) -> Result<Vec<SiteUp>, ClusterError> {
        match (self, down) {
            (SiteMachine::Infinite(site), CoordDown::Infinite { u }) => {
                let mut ups = Vec::new();
                site.handle(DownThreshold { u }, now, &mut ups);
                Ok(ups.into_iter().map(up_from_infinite).collect())
            }
            (SiteMachine::Wr(site), CoordDown::Wr { copy, u }) => {
                let mut ups = Vec::new();
                site.handle(
                    CopyDown {
                        copy,
                        inner: DownThreshold { u },
                    },
                    now,
                    &mut ups,
                );
                Ok(ups.into_iter().map(up_from_wr).collect())
            }
            (SiteMachine::Sliding(site), CoordDown::Sliding { element, expiry }) => {
                let mut ups = Vec::new();
                site.handle(SwDown { element, expiry }, now, &mut ups);
                Ok(ups.into_iter().map(up_from_sliding).collect())
            }
            (
                SiteMachine::SlidingMulti(site),
                CoordDown::SlidingMulti {
                    copy,
                    element,
                    expiry,
                },
            ) => {
                let mut ups = Vec::new();
                site.handle(
                    CopyDown {
                        copy,
                        inner: SwDown { element, expiry },
                    },
                    now,
                    &mut ups,
                );
                Ok(ups.into_iter().map(up_from_sliding_multi).collect())
            }
            _ => Err(ClusterError::Protocol(
                "coordinator reply kind does not match the site protocol".into(),
            )),
        }
    }

    pub(crate) fn memory_tuples(&self) -> usize {
        match self {
            SiteMachine::Infinite(site) => SiteNode::memory_tuples(site),
            SiteMachine::Wr(site) => SiteNode::memory_tuples(site),
            SiteMachine::Sliding(site) => SiteNode::memory_tuples(site),
            SiteMachine::SlidingMulti(site) => SiteNode::memory_tuples(site),
        }
    }
}

/// The coordinator half of the configured protocol.
#[derive(Debug)]
pub(crate) enum CoordMachine {
    Infinite(LazyCoordinator),
    Wr(WrCoordinator),
    Sliding(SwCoordinator),
    SlidingMulti(MultiSwCoordinator),
}

impl CoordMachine {
    /// Build the coordinator half exactly as `cluster(k)` would.
    pub(crate) fn new(spec: &ClusterSpec) -> Self {
        let s = spec.sampler;
        match s.kind {
            SamplerKind::Infinite => {
                let cfg = InfiniteConfig::with_seed(s.s, s.seed);
                CoordMachine::Infinite(cfg.coordinator())
            }
            SamplerKind::WithReplacement => {
                let cfg = WrConfig::with_seed(s.s, s.seed);
                CoordMachine::Wr(WrCoordinator::new(cfg.family.members(cfg.s).collect()))
            }
            SamplerKind::Sliding { window } => {
                let cfg = dds_core::sliding::SlidingConfig::with_seed(window, s.seed);
                CoordMachine::Sliding(SwCoordinator::new(cfg.hasher(), spec.k, cfg.mode))
            }
            SamplerKind::SlidingMulti { window } => {
                let cfg = MultiSlidingConfig::with_seed(s.s, window, s.seed);
                CoordMachine::SlidingMulti(MultiSwCoordinator::new(cfg.hashers(), spec.k, cfg.mode))
            }
            SamplerKind::Centralized => unreachable!("rejected by ClusterSpec::new"),
        }
    }

    /// Apply one site up; returns the protocol replies (all unicast to
    /// `from`).
    ///
    /// # Errors
    /// [`ClusterError::Protocol`] on kind mismatch or — defensively —
    /// if a reply were addressed anywhere but the sender.
    pub(crate) fn handle(
        &mut self,
        from: SiteId,
        up: SiteUp,
        now: Slot,
    ) -> Result<Vec<CoordDown>, ClusterError> {
        match (self, up) {
            (CoordMachine::Infinite(coord), SiteUp::Infinite { element }) => {
                let mut out = Vec::new();
                coord.handle(from, UpElem { element }, now, &mut out);
                out.into_iter()
                    .map(|(dest, down)| {
                        expect_unicast(dest, from)?;
                        Ok(CoordDown::Infinite { u: down.u })
                    })
                    .collect()
            }
            (CoordMachine::Wr(coord), SiteUp::Wr { copy, element }) => {
                let mut out = Vec::new();
                coord.handle(
                    from,
                    CopyUp {
                        copy,
                        inner: UpElem { element },
                    },
                    now,
                    &mut out,
                );
                out.into_iter()
                    .map(|(dest, down)| {
                        expect_unicast(dest, from)?;
                        Ok(CoordDown::Wr {
                            copy: down.copy,
                            u: down.inner.u,
                        })
                    })
                    .collect()
            }
            (CoordMachine::Sliding(coord), SiteUp::Sliding { element, expiry }) => {
                let mut out = Vec::new();
                coord.handle(from, SwUp { element, expiry }, now, &mut out);
                out.into_iter()
                    .map(|(dest, down)| {
                        expect_unicast(dest, from)?;
                        Ok(CoordDown::Sliding {
                            element: down.element,
                            expiry: down.expiry,
                        })
                    })
                    .collect()
            }
            (
                CoordMachine::SlidingMulti(coord),
                SiteUp::SlidingMulti {
                    copy,
                    element,
                    expiry,
                },
            ) => {
                let mut out = Vec::new();
                coord.handle(
                    from,
                    CopyUp {
                        copy,
                        inner: SwUp { element, expiry },
                    },
                    now,
                    &mut out,
                );
                out.into_iter()
                    .map(|(dest, down)| {
                        expect_unicast(dest, from)?;
                        Ok(CoordDown::SlidingMulti {
                            copy: down.copy,
                            element: down.inner.element,
                            expiry: down.inner.expiry,
                        })
                    })
                    .collect()
            }
            _ => Err(ClusterError::Protocol(
                "site up kind does not match the coordinator protocol".into(),
            )),
        }
    }

    /// The coordinator's slot-start hook. The deployed protocols emit
    /// nothing here (registry fallback is local); anything else would
    /// desynchronize the message accounting, so it is a typed error.
    pub(crate) fn on_slot_start(&mut self, now: Slot) -> Result<(), ClusterError> {
        let emitted = match self {
            CoordMachine::Infinite(coord) => {
                let mut out = Vec::new();
                coord.on_slot_start(now, &mut out);
                out.len()
            }
            CoordMachine::Wr(coord) => {
                let mut out = Vec::new();
                coord.on_slot_start(now, &mut out);
                out.len()
            }
            CoordMachine::Sliding(coord) => {
                let mut out = Vec::new();
                coord.on_slot_start(now, &mut out);
                out.len()
            }
            CoordMachine::SlidingMulti(coord) => {
                let mut out = Vec::new();
                coord.on_slot_start(now, &mut out);
                out.len()
            }
        };
        if emitted != 0 {
            return Err(ClusterError::Protocol(
                "coordinator emitted messages at slot start".into(),
            ));
        }
        Ok(())
    }

    pub(crate) fn sample(&self) -> Vec<Element> {
        match self {
            CoordMachine::Infinite(coord) => coord.sample(),
            CoordMachine::Wr(coord) => coord.sample(),
            CoordMachine::Sliding(coord) => coord.sample(),
            CoordMachine::SlidingMulti(coord) => coord.sample(),
        }
    }

    pub(crate) fn memory_tuples(&self) -> usize {
        match self {
            CoordMachine::Infinite(coord) => CoordinatorTrait::memory_tuples(coord),
            CoordMachine::Wr(coord) => CoordinatorTrait::memory_tuples(coord),
            CoordMachine::Sliding(coord) => CoordinatorTrait::memory_tuples(coord),
            CoordMachine::SlidingMulti(coord) => CoordinatorTrait::memory_tuples(coord),
        }
    }

    /// The global threshold, for kinds that expose one — mirrors
    /// `DistinctSampler::threshold` on the fused adapters.
    pub(crate) fn threshold(&self) -> Option<u64> {
        match self {
            CoordMachine::Infinite(coord) => Some(coord.threshold().0),
            CoordMachine::Wr(_) | CoordMachine::SlidingMulti(_) => None,
            CoordMachine::Sliding(coord) => {
                Some(coord.current().map_or(UnitValue::ONE, |t| t.hash).0)
            }
        }
    }
}

fn expect_unicast(dest: Destination, from: SiteId) -> Result<(), ClusterError> {
    if dest == Destination::Site(from) {
        Ok(())
    } else {
        Err(ClusterError::Protocol(
            "coordinator reply not unicast to the sending site".into(),
        ))
    }
}

fn up_from_infinite(up: UpElem) -> SiteUp {
    SiteUp::Infinite {
        element: up.element,
    }
}

fn up_from_wr(up: CopyUp<UpElem>) -> SiteUp {
    SiteUp::Wr {
        copy: up.copy,
        element: up.inner.element,
    }
}

fn up_from_sliding(up: SwUp) -> SiteUp {
    SiteUp::Sliding {
        element: up.element,
        expiry: up.expiry,
    }
}

fn up_from_sliding_multi(up: CopyUp<SwUp>) -> SiteUp {
    SiteUp::SlidingMulti {
        copy: up.copy,
        element: up.inner.element,
        expiry: up.inner.expiry,
    }
}
