//! The two halves of a deployed protocol, behind the wire vocabulary.
//!
//! A cluster node hosts exactly the `dds_core` site/coordinator types
//! the simulator runs. [`SiteMachine`] and [`CoordMachine`] are written
//! once, over any [`SiteNode`] / [`CoordinatorNode`] whose messages
//! convert to and from [`SiteUp`] / [`CoordDown`] (the twin conversions
//! declared beside those enums). Nothing protocol-relevant is added or
//! dropped in the conversion, which is what makes byte-exactness
//! against the fused twin possible at all. Only [`site_machine`] and
//! [`coord_machine`] know the kinds: they build the two halves of a
//! [`ClusterSpec`] exactly as its `cluster(k)` twin would.
//!
//! Three rules of the paper's protocols are *enforced* here rather than
//! assumed: a message belongs to the deployment's protocol kind, every
//! coordinator reply is unicast to the sender (Algorithms 2 and 4 never
//! broadcast), and the coordinator's slot-start hook emits nothing
//! (registry-mode fallback is local). A violation turns into a typed
//! [`ClusterError::Protocol`] instead of silently skewing the message
//! accounting.

use std::fmt::Debug;

use dds_core::infinite::{InfiniteConfig, LazySite};
use dds_core::sampler::SamplerKind;
use dds_core::sliding::{SlidingConfig, SwCoordinator, SwSite};
use dds_core::sliding_multi::{MultiSlidingConfig, MultiSwCoordinator, MultiSwSite};
use dds_core::with_replacement::{WrConfig, WrCoordinator, WrSite};
use dds_hash::UnitValue;
use dds_proto::cluster::{ClusterError, ClusterSpec, CoordDown, SiteUp};
use dds_sim::{CoordinatorNode, Destination, Element, SiteId, SiteNode, Slot};

/// The per-site half of the deployed protocol.
pub(crate) trait SiteMachine: Send {
    /// Observe `e` at `now`; the ups it sends.
    fn observe(&mut self, e: Element, now: Slot) -> Vec<SiteUp>;

    /// Start slot `now`; the ups it sends.
    fn on_slot_start(&mut self, now: Slot) -> Vec<SiteUp>;

    /// Apply one coordinator reply; any triggered re-sends come back
    /// as new ups.
    ///
    /// # Errors
    /// [`ClusterError::Protocol`] when the reply is of another kind.
    fn handle(&mut self, down: CoordDown, now: Slot) -> Result<Vec<SiteUp>, ClusterError>;

    /// Stored tuples.
    fn memory_tuples(&self) -> usize;
}

impl<S> SiteMachine for S
where
    S: SiteNode + Send,
    S::Up: Into<SiteUp>,
    S::Down: TryFrom<CoordDown, Error = CoordDown>,
{
    fn observe(&mut self, e: Element, now: Slot) -> Vec<SiteUp> {
        ups(|out| SiteNode::observe(self, e, now, out))
    }

    fn on_slot_start(&mut self, now: Slot) -> Vec<SiteUp> {
        ups(|out| SiteNode::on_slot_start(self, now, out))
    }

    fn handle(&mut self, down: CoordDown, now: Slot) -> Result<Vec<SiteUp>, ClusterError> {
        let down = S::Down::try_from(down).map_err(wrong_kind)?;
        Ok(ups(|out| SiteNode::handle(self, down, now, out)))
    }

    fn memory_tuples(&self) -> usize {
        SiteNode::memory_tuples(self)
    }
}

/// The ups `send` pushes, in the wire vocabulary.
fn ups<U: Into<SiteUp>>(send: impl FnOnce(&mut Vec<U>)) -> Vec<SiteUp> {
    let mut out = Vec::new();
    send(&mut out);
    out.into_iter().map(Into::into).collect()
}

/// The coordinator half of the deployed protocol.
pub(crate) trait CoordMachine: Send {
    /// Apply one site up; returns the protocol replies, all unicast to
    /// `from`.
    ///
    /// # Errors
    /// [`ClusterError::Protocol`] when the up is of another kind, or if
    /// a reply were addressed anywhere but the sender.
    fn handle(
        &mut self,
        from: SiteId,
        up: SiteUp,
        now: Slot,
    ) -> Result<Vec<CoordDown>, ClusterError>;

    /// The coordinator's slot-start hook.
    ///
    /// # Errors
    /// [`ClusterError::Protocol`] if it emitted anything: the deployed
    /// protocols emit nothing here, and a message would desynchronize
    /// the message accounting.
    fn on_slot_start(&mut self, now: Slot) -> Result<(), ClusterError>;

    /// The current sample.
    fn sample(&self) -> Vec<Element>;

    /// Stored tuples.
    fn memory_tuples(&self) -> usize;

    /// The global threshold, for kinds that keep one — as
    /// `DistinctSampler::threshold` on the fused adapters.
    fn threshold(&self) -> Option<u64>;
}

/// A coordinator, with how to read its global threshold.
struct Coord<C> {
    node: C,
    threshold: fn(&C) -> Option<UnitValue>,
}

impl<C> CoordMachine for Coord<C>
where
    C: CoordinatorNode + Send,
    C::Up: TryFrom<SiteUp, Error = SiteUp>,
    C::Down: Into<CoordDown>,
{
    fn handle(
        &mut self,
        from: SiteId,
        up: SiteUp,
        now: Slot,
    ) -> Result<Vec<CoordDown>, ClusterError> {
        let up = C::Up::try_from(up).map_err(wrong_kind)?;
        let mut out = Vec::new();
        self.node.handle(from, up, now, &mut out);
        out.into_iter()
            .map(|(dest, down)| match dest {
                Destination::Site(to) if to == from => Ok(down.into()),
                _ => Err(ClusterError::Protocol(
                    "coordinator reply not unicast to the sending site".into(),
                )),
            })
            .collect()
    }

    fn on_slot_start(&mut self, now: Slot) -> Result<(), ClusterError> {
        let mut out = Vec::new();
        self.node.on_slot_start(now, &mut out);
        if out.is_empty() {
            Ok(())
        } else {
            Err(ClusterError::Protocol(
                "coordinator emitted messages at slot start".into(),
            ))
        }
    }

    fn sample(&self) -> Vec<Element> {
        self.node.sample()
    }

    fn memory_tuples(&self) -> usize {
        self.node.memory_tuples()
    }

    fn threshold(&self) -> Option<u64> {
        (self.threshold)(&self.node).map(|u| u.0)
    }
}

/// A message of another protocol kind than the deployment's.
fn wrong_kind(message: impl Debug) -> ClusterError {
    ClusterError::Protocol(format!(
        "{message:?} is not a message of this deployment's protocol"
    ))
}

/// Build the site half exactly as `spec.sampler`'s `cluster(k)` twin
/// would.
pub(crate) fn site_machine(spec: &ClusterSpec) -> Box<dyn SiteMachine> {
    let s = spec.sampler;
    match s.kind {
        SamplerKind::Infinite => Box::new(LazySite::new(
            InfiniteConfig::with_seed(s.s, s.seed).hasher(),
        )),
        SamplerKind::WithReplacement => {
            let cfg = WrConfig::with_seed(s.s, s.seed);
            Box::new(WrSite::new(cfg.family.members(cfg.s).collect()))
        }
        SamplerKind::Sliding { window } => Box::new(SwSite::new(
            window,
            SlidingConfig::with_seed(window, s.seed).hasher(),
        )),
        SamplerKind::SlidingMulti { window } => Box::new(MultiSwSite::new(
            window,
            MultiSlidingConfig::with_seed(s.s, window, s.seed).hashers(),
        )),
        SamplerKind::Centralized => unreachable!("rejected by ClusterSpec::new"),
    }
}

/// Build the coordinator half exactly as `cluster(k)` would.
pub(crate) fn coord_machine(spec: &ClusterSpec) -> Box<dyn CoordMachine> {
    let s = spec.sampler;
    match s.kind {
        SamplerKind::Infinite => Box::new(Coord {
            node: InfiniteConfig::with_seed(s.s, s.seed).coordinator(),
            threshold: |c| Some(c.threshold()),
        }),
        SamplerKind::WithReplacement => {
            let cfg = WrConfig::with_seed(s.s, s.seed);
            Box::new(Coord {
                node: WrCoordinator::new(cfg.family.members(cfg.s).collect()),
                threshold: |_| None,
            })
        }
        SamplerKind::Sliding { window } => {
            let cfg = SlidingConfig::with_seed(window, s.seed);
            Box::new(Coord {
                node: SwCoordinator::new(cfg.hasher(), spec.k, cfg.mode),
                threshold: |c| Some(c.threshold()),
            })
        }
        SamplerKind::SlidingMulti { window } => {
            let cfg = MultiSlidingConfig::with_seed(s.s, window, s.seed);
            Box::new(Coord {
                node: MultiSwCoordinator::new(cfg.hashers(), spec.k, cfg.mode),
                threshold: |_| None,
            })
        }
        SamplerKind::Centralized => unreachable!("rejected by ClusterSpec::new"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dds_core::sampler::SamplerSpec;

    #[test]
    fn a_site_half_refuses_a_reply_of_another_kind() {
        let spec = ClusterSpec::new(SamplerSpec::new(SamplerKind::Infinite, 4, 7), 2);
        let mut site = site_machine(&spec);
        let down = CoordDown::Sliding {
            element: Element(3),
            expiry: Slot(9),
        };
        assert!(matches!(
            site.handle(down, Slot(0)),
            Err(ClusterError::Protocol(_))
        ));
        assert_eq!(
            site.handle(CoordDown::Infinite { u: 5 }, Slot(0)),
            Ok(Vec::new())
        );
    }
}
