//! The coordinator's ordering, without sockets: events go in, actions
//! come out.
//!
//! A [`Sequencer`] owns the protocol state ([`CoordMachine`], the slot
//! clock, the paper's [`MessageCounters`]), one seat per site with its
//! held up, the announced slot advances and the waiting `Sync`s. Events
//! go in — a site joins, sends an up (numbered or not) or a `Done`
//! marker, leaves or fails; a driver's `Sync` announces a barrier — and
//! actions come out: send this site its up's outcome, answer this
//! `Sync`. The coordinator's connection loop turns frames into events
//! and actions into frames; tests drive it directly, so which
//! interleavings they reach does not depend on timing.
//!
//! ## The hold rule
//!
//! A driver numbers every event of the stream — each observed element,
//! and each slot boundary's coordinator start followed by every site's
//! slot start — in the order `dds_sim::Cluster` would run them, and
//! sites stamp each up with the number of the event that caused it
//! ([`ClusterRequest::SeqUp`](dds_proto::cluster::ClusterRequest::SeqUp)).
//! The sequencer applies stamped ups and slot advances strictly in that
//! order. It holds an up numbered `n` until every other live site has
//! sent a later up or a `Done` marker past `n`, and until a `Sync` has
//! announced every slot advance up to `n`. This is conservative
//! (Chandy–Misra) synchronization, and it is exact here because
//! `machine.rs` enforces that every reply is unicast to the sender and
//! that coordinator slot starts are silent: a site's state changes only
//! through its own events and the replies to its own ups, so the order
//! in which ups are applied is the only coupling between sites. A
//! `Sync` is answered once everything numbered up to it is applied.
//! Each site has at most one up in flight, so at most `k` ups are ever
//! held. An up without a number is applied on arrival.
//!
//! A seat no site has joined yet holds like a live site, because a
//! driver's first barrier may race a site's `Join`. A failed or
//! departed site holds no one, and its held up is dropped.

use std::collections::VecDeque;
use std::sync::Arc;
use std::time::Instant;

use dds_obs::{Counter, Histogram, Registry};
use dds_proto::cluster::{ClusterError, ClusterResponse, ClusterSpec, ClusterStats, SiteUp};
use dds_sim::{Direction, Element, MessageCounters, SiteId, Slot};

use crate::machine::{coord_machine, CoordMachine};

/// What the coordinator must send after an event.
pub(crate) enum Action<W> {
    /// A site's up is settled: its `Downs`, or the error that ends the
    /// site (which the sequencer has already marked failed).
    Reply(SiteId, Result<ClusterResponse, ClusterError>),
    /// The `Sync` that `W` sent is answered.
    Answer(W, Result<ClusterResponse, ClusterError>),
}

/// What a site seat is doing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Membership {
    Vacant,
    Joined,
    Departed,
    Failed,
}

#[derive(Debug, Clone)]
struct Seat {
    membership: Membership,
    /// The smallest sequence number this site may still stamp on an up.
    clock: u64,
    /// Its sequenced up waiting for the other sites, with its sequence
    /// number and arrival time.
    held: Option<(u64, SiteUp, Option<Instant>)>,
}

impl Seat {
    const VACANT: Seat = Seat {
        membership: Membership::Vacant,
        clock: 0,
        held: None,
    };

    /// Vacant seats count too: a site that has not joined yet will
    /// still run its share of the stream.
    fn holds_others(&self) -> bool {
        matches!(self.membership, Membership::Vacant | Membership::Joined)
    }
}

/// Lifecycle and synchronization metrics registered under the
/// coordinator's registry.
struct CoordObs {
    joins: Counter,
    leaves: Counter,
    faults: Counter,
    /// Per-site count of sliding-family ups whose candidate was
    /// already out of the window (`expiry <= now`) when it reached the
    /// coordinator — the coordinator-visible late-data signal, the
    /// cluster analogue of the engine's `engine_late_dropped_total`.
    late_ups: Vec<Counter>,
    /// How long each sequenced up waited for the other sites.
    hold_nanos: Histogram,
    /// Per-site `Done` markers: transport control, counted apart from
    /// the paper's messages.
    sync_msgs: Vec<Counter>,
}

impl CoordObs {
    fn register(registry: &Registry, k: usize) -> Self {
        let per_site = |name: &str| -> Vec<Counter> {
            (0..k)
                .map(|i| registry.counter_with(name, &[("site", i.to_string().as_str())]))
                .collect()
        };
        Self {
            joins: registry.counter("cluster_joins_total"),
            leaves: registry.counter("cluster_leaves_total"),
            faults: registry.counter("cluster_faults_total"),
            late_ups: per_site("cluster_late_up_msgs_total"),
            hold_nanos: registry.histogram("cluster_up_hold_nanos"),
            sync_msgs: per_site("cluster_sync_msgs_total"),
        }
    }
}

/// A sliding-family up whose candidate expires at or before the
/// coordinator's current slot arrived too late to ever be sampled.
/// Kinds without expiry are never late.
fn is_late(up: &SiteUp, now: Slot) -> bool {
    match *up {
        SiteUp::Sliding { expiry, .. } | SiteUp::SlidingMulti { expiry, .. } => expiry <= now,
        SiteUp::Infinite { .. } | SiteUp::Wr { .. } => false,
    }
}

/// The coordinator's protocol state and hold rule; `W` names whoever
/// sent a `Sync`.
pub(crate) struct Sequencer<W> {
    registry: Arc<Registry>,
    obs: CoordObs,
    machine: Box<dyn CoordMachine>,
    now: Slot,
    /// The paper's exact message accounting (`Y` / `Yᵢ`).
    counters: MessageCounters,
    seats: Vec<Seat>,
    /// Every slot advance numbered below this has been announced.
    announced: u64,
    /// Announced slot advances not yet applied, in sequence order.
    advances: VecDeque<(u64, Slot)>,
    /// A slot start that emitted messages; every later `Sync` reports it.
    broken: Option<ClusterError>,
    /// `Sync`s waiting for everything through their number.
    syncs: Vec<(W, u64)>,
    actions: Vec<Action<W>>,
}

impl<W: Copy> Sequencer<W> {
    pub(crate) fn new(spec: &ClusterSpec, registry: Arc<Registry>) -> Self {
        Sequencer {
            obs: CoordObs::register(&registry, spec.k),
            registry,
            machine: coord_machine(spec),
            now: Slot(0),
            counters: MessageCounters::new(spec.k),
            seats: vec![Seat::VACANT; spec.k],
            announced: 0,
            advances: VecDeque::new(),
            broken: None,
            syncs: Vec::new(),
            actions: Vec::new(),
        }
    }

    /// The actions the events so far produced, in order.
    pub(crate) fn actions(&mut self) -> std::vec::Drain<'_, Action<W>> {
        self.actions.drain(..)
    }

    /// Seat `site`.
    pub(crate) fn join(&mut self, site: SiteId) -> Result<(), ClusterError> {
        let seat = self
            .seats
            .get_mut(site.0)
            .ok_or(ClusterError::UnknownSite(site))?;
        if seat.membership != Membership::Vacant {
            return Err(ClusterError::DuplicateSite(site));
        }
        seat.membership = Membership::Joined;
        self.obs.joins.inc();
        self.registry
            .events()
            .note("site_join", format!("site {} joined", site.0));
        Ok(())
    }

    /// An unnumbered up: applied on arrival.
    pub(crate) fn up(&mut self, site: SiteId, up: SiteUp) {
        let outcome = self.apply_up(site, up);
        self.settle_up(site, outcome);
        self.pump();
    }

    /// An up stamped with the number of the event that caused it: held
    /// until the hold rule frees it.
    pub(crate) fn seq_up(&mut self, site: SiteId, seq: u64, up: SiteUp) {
        let seat = &mut self.seats[site.0];
        if seq < seat.clock || seat.held.is_some() {
            let outcome = Err(ClusterError::Protocol(format!(
                "up numbered {seq} after the site reached {}",
                seat.clock
            )));
            self.settle_up(site, outcome);
        } else {
            seat.clock = seq;
            seat.held = Some((seq, up, dds_obs::maybe_now()));
        }
        self.pump();
    }

    /// `site` ran everything numbered up to `through`.
    pub(crate) fn done(&mut self, site: SiteId, through: u64) {
        let seat = &mut self.seats[site.0];
        seat.clock = seat.clock.max(through.saturating_add(1));
        self.obs.sync_msgs[site.0].inc();
        self.pump();
    }

    /// A barrier: everything through `through` is known, and `advance`
    /// starts its slot at its number. `waiter` is answered once
    /// everything through `through` is applied — possibly at once.
    ///
    /// # Errors
    /// An advance to any but the next slot, or numbered outside the
    /// barrier; nothing is recorded then.
    pub(crate) fn sync(
        &mut self,
        waiter: W,
        through: u64,
        advance: Option<(u64, Slot)>,
    ) -> Result<(), ClusterError> {
        if let Some((seq, slot)) = advance {
            let next = self.advances.back().map_or(self.now, |&(_, s)| s).next();
            if slot != next || seq < self.announced || seq > through {
                return Err(ClusterError::Protocol(format!(
                    "advance to slot {} at {seq} but the next slot is {} from {}",
                    slot.0, next.0, self.announced
                )));
            }
            self.advances.push_back((seq, slot));
        }
        self.announced = self.announced.max(through.saturating_add(1));
        self.syncs.push((waiter, through));
        self.pump();
        Ok(())
    }

    /// `site` left gracefully: it holds no one any more.
    pub(crate) fn leave(&mut self, site: SiteId) {
        let seat = &mut self.seats[site.0];
        seat.membership = Membership::Departed;
        seat.held = None;
        self.obs.leaves.inc();
        self.registry
            .events()
            .note("site_leave", format!("site {} left gracefully", site.0));
        self.pump();
    }

    /// `site`'s connection ended without a `Leave`, or broke the
    /// protocol. A joined site is marked failed and holds no one.
    pub(crate) fn fail(&mut self, site: SiteId) {
        self.mark_failed(site);
        self.pump();
    }

    fn mark_failed(&mut self, site: SiteId) {
        let seat = &mut self.seats[site.0];
        if seat.membership != Membership::Joined {
            return;
        }
        seat.membership = Membership::Failed;
        seat.held = None;
        self.obs.faults.inc();
        self.registry.events().note(
            "site_fault",
            format!("site {} failed without Leave", site.0),
        );
    }

    fn first_failure(&self) -> Option<SiteId> {
        self.seats
            .iter()
            .position(|s| s.membership == Membership::Failed)
            .map(SiteId)
    }

    /// The current sample, unless a site has failed.
    ///
    /// # Errors
    /// [`ClusterError::SiteDown`] naming the first failed site.
    pub(crate) fn sample(&self) -> Result<Vec<Element>, ClusterError> {
        match self.first_failure() {
            Some(down) => Err(ClusterError::SiteDown(down)),
            None => Ok(self.machine.sample()),
        }
    }

    pub(crate) fn stats(&self) -> ClusterStats {
        let count = |m: Membership| self.seats.iter().filter(|s| s.membership == m).count();
        ClusterStats {
            k: self.seats.len(),
            now: self.now,
            joined: count(Membership::Joined),
            departed: count(Membership::Departed),
            failed: self
                .seats
                .iter()
                .enumerate()
                .filter(|(_, s)| s.membership == Membership::Failed)
                .map(|(i, _)| SiteId(i))
                .collect(),
            counters: self.counters.clone(),
            memory_tuples: self.machine.memory_tuples(),
            threshold: self.machine.threshold(),
        }
    }

    fn apply_up(&mut self, site: SiteId, up: SiteUp) -> Result<ClusterResponse, ClusterError> {
        self.counters
            .record(Direction::Up, site, up.protocol_bytes());
        if is_late(&up, self.now) {
            self.obs.late_ups[site.0].inc();
        }
        let downs = self.machine.handle(site, up, self.now)?;
        for down in &downs {
            self.counters
                .record(Direction::Down, site, down.protocol_bytes());
        }
        Ok(ClusterResponse::Downs { downs })
    }

    /// Send an up's outcome; a site that broke the protocol has failed.
    fn settle_up(&mut self, site: SiteId, outcome: Result<ClusterResponse, ClusterError>) {
        if outcome.is_err() {
            self.mark_failed(site);
        }
        self.actions.push(Action::Reply(site, outcome));
    }

    // -- ordering ----------------------------------------------------

    /// Apply, in sequence order, every held up and announced slot
    /// advance that nothing can still precede; then answer the
    /// barriers this completes.
    fn pump(&mut self) {
        loop {
            let next_up = self
                .seats
                .iter()
                .enumerate()
                .filter_map(|(i, seat)| seat.held.as_ref().map(|h| (h.0, i)))
                .min();
            let next_advance = self.advances.front().map(|&(seq, _)| seq);
            let (seq, source) = match (next_up, next_advance) {
                (Some((seq, i)), None) => (seq, Some(i)),
                (Some((seq, i)), Some(a)) if seq < a => (seq, Some(i)),
                (_, Some(a)) => (a, None),
                (None, None) => break,
            };
            let free =
                seq < self.announced
                    && self.seats.iter().enumerate().all(|(i, seat)| {
                        Some(i) == source || !seat.holds_others() || seat.clock > seq
                    });
            if !free {
                break;
            }
            match source {
                Some(i) => self.release(SiteId(i)),
                None => self.start_slot(),
            }
        }
        self.answer_syncs();
    }

    fn release(&mut self, site: SiteId) {
        let (_, up, since) = self.seats[site.0].held.take().expect("released up is held");
        self.obs.hold_nanos.observe(dds_obs::nanos_since(since));
        let outcome = self.apply_up(site, up);
        self.settle_up(site, outcome);
    }

    fn start_slot(&mut self) {
        let (_, slot) = self.advances.pop_front().expect("announced advance");
        self.now = slot;
        if let Err(e) = self.machine.on_slot_start(slot) {
            self.broken.get_or_insert(e);
        }
    }

    /// Is every event numbered `<= through` applied?
    fn applied_through(&self, through: u64) -> bool {
        self.advances
            .front()
            .map_or(true, |&(seq, _)| seq > through)
            && self
                .seats
                .iter()
                .all(|seat| !seat.holds_others() || seat.clock > through)
    }

    fn answer_syncs(&mut self) {
        let mut i = 0;
        while let Some(&(waiter, through)) = self.syncs.get(i) {
            if !self.applied_through(through) {
                i += 1;
                continue;
            }
            self.syncs.remove(i);
            let outcome = match (&self.broken, self.first_failure()) {
                (Some(e), _) => Err(e.clone()),
                (None, Some(down)) => Err(ClusterError::SiteDown(down)),
                (None, None) => Ok(ClusterResponse::Ack),
            };
            self.actions.push(Action::Answer(waiter, outcome));
        }
    }
}
