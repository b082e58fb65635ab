//! A deterministic schedule explorer over the [`Sequencer`]: timing no
//! longer decides which interleavings the hold rule meets.
//!
//! One thread plays every party of a deployment. A driver numbers its
//! stream as [`ClusterHandle`](crate::ClusterHandle) does (one number
//! per element, `k + 1` per slot boundary) and ships barriers: a `Sync`
//! on the control channel, one batch per site, then waits for at most
//! one unanswered barrier (a read waits for none). `k` [`SiteMachine`]s
//! run their batches and settle one up at a time, as site daemons do.
//! Every channel is FIFO, like the socket it models, and the control
//! channel is parked while its `Sync` waits, like the coordinator's
//! connection. A seeded scheduler picks which party moves next: the
//! driver, a site, the delivery of a site's next frame (`Join`,
//! `SeqUp`, `Done`) or of the driver's next `Sync` — so ups often
//! arrive ahead of the barrier that announces them, and `Done`s in any
//! order. At every answered `Sync` the sequencer's sample and message
//! counters must equal the in-process `dds_sim::Cluster` fed the same
//! stream up to that barrier. Every protocol kind runs, each through
//! the same generic world.

use std::collections::VecDeque;
use std::sync::Arc;

use dds_core::infinite::InfiniteConfig;
use dds_core::sampler::{SamplerKind, SamplerSpec};
use dds_core::sliding::SlidingConfig;
use dds_core::sliding_multi::MultiSlidingConfig;
use dds_core::with_replacement::WrConfig;
use dds_hash::splitmix::SplitMix64;
use dds_obs::Registry;
use dds_proto::cluster::{ClusterResponse, ClusterSpec, CoordDown, SiteUp};
use dds_sim::{
    Cluster, CoordinatorNode, Element, MessageCounters, SiteId, SiteNode, Slot, WireMessage,
};

use crate::machine::{site_machine, SiteMachine};
use crate::sequencer::{Action, Sequencer};

/// Schedules per protocol kind.
const SCHEDULES: u64 = 1_500;

/// How a kind's deployment is drawn: from the scheduler's coin, the
/// seed and `k`, its sampler spec and its in-process twin.
type Deploy<S, C> = fn(&mut SplitMix64, u64, usize) -> (SamplerSpec, Cluster<S, C>);

/// A frame on its way from a site to the coordinator.
enum Uplink {
    Join,
    SeqUp(u64, SiteUp),
    Done(u64),
}

/// One event of a site's batch, with its sequence number.
enum Event {
    Observe(u64, Element),
    Slot(u64, Slot),
}

/// A site daemon: its protocol half, the batches shipped to it, and
/// the settle loop it runs one up at a time.
struct Site {
    machine: Box<dyn SiteMachine>,
    now: Slot,
    batches: VecDeque<(Vec<Event>, u64)>,
    /// The batch it runs, and the barrier its `Done` names.
    events: VecDeque<Event>,
    through: Option<u64>,
    /// The event whose ups are settling, and the ups left to send.
    seq: u64,
    queue: VecDeque<SiteUp>,
    /// An up is out; its `Downs` have not come back.
    waiting: bool,
    uplink: VecDeque<Uplink>,
    downlink: VecDeque<Vec<CoordDown>>,
}

impl Site {
    fn can_run(&self) -> bool {
        if self.waiting {
            !self.downlink.is_empty()
        } else {
            !self.queue.is_empty()
                || !self.events.is_empty()
                || self.through.is_some()
                || !self.batches.is_empty()
        }
    }

    /// Run until the site waits for a reply or for a batch.
    fn run(&mut self) {
        loop {
            if self.waiting {
                let Some(downs) = self.downlink.pop_front() else {
                    return;
                };
                self.waiting = false;
                for down in downs {
                    let ups = self.machine.handle(down, self.now).expect("reply kind");
                    self.queue.extend(ups);
                }
            }
            if let Some(up) = self.queue.pop_front() {
                self.uplink.push_back(Uplink::SeqUp(self.seq, up));
                self.waiting = true;
            } else if let Some(event) = self.events.pop_front() {
                let ups = match event {
                    Event::Observe(seq, e) => {
                        self.seq = seq;
                        self.machine.observe(e, self.now)
                    }
                    Event::Slot(seq, slot) => {
                        self.seq = seq;
                        self.now = slot;
                        self.machine.on_slot_start(slot)
                    }
                };
                self.queue.extend(ups);
            } else if let Some(through) = self.through.take() {
                self.uplink.push_back(Uplink::Done(through));
            } else if let Some((events, through)) = self.batches.pop_front() {
                self.events = events.into();
                self.through = Some(through);
            } else {
                return;
            }
        }
    }
}

/// What the driver does next.
#[derive(Clone, Copy)]
enum Op {
    Observe(SiteId, Element),
    Advance,
    Read,
}

/// One seeded schedule: every party, the scheduler's coin, and the
/// twin's state at each barrier still owed an answer.
struct World<S, C>
where
    S: SiteNode,
    C: CoordinatorNode<Up = S::Up, Down = S::Down>,
{
    rng: SplitMix64,
    k: usize,
    seq: Sequencer<u64>,
    sites: Vec<Site>,
    twin: Cluster<S, C>,
    script: VecDeque<Op>,
    /// Ship a barrier once a site buffers this many elements.
    cap: usize,
    next_seq: u64,
    now: Slot,
    buffers: Vec<Vec<(u64, Element)>>,
    /// The driver may go on once at most this many barriers are owed.
    gate: Option<usize>,
    /// Barriers not answered yet, oldest first, with the twin's state
    /// after everything through them.
    owed: VecDeque<(u64, Vec<Element>, MessageCounters)>,
    /// `Sync`s not yet delivered, and whether one waits for its answer.
    control: VecDeque<(u64, Option<(u64, Slot)>)>,
    parked: bool,
    answered: usize,
}

impl<S, C> World<S, C>
where
    S: SiteNode,
    C: CoordinatorNode<Up = S::Up, Down = S::Down>,
    S::Up: WireMessage + Clone,
    S::Down: WireMessage + Clone,
{
    fn new(deploy: Deploy<S, C>, seed: u64) -> Self {
        let mut rng = SplitMix64::new(seed);
        let k = 2 + rng.next_below(2) as usize;
        let (sampler, twin) = deploy(&mut rng, seed, k);
        let spec = ClusterSpec::new(sampler, k);
        let distinct = 4 + rng.next_below(24);
        let script = (0..10 + rng.next_below(40))
            .map(|_| match rng.next_below(20) {
                0..=2 => Op::Advance,
                3 => Op::Read,
                _ => Op::Observe(
                    SiteId(rng.next_below(k as u64) as usize),
                    Element(rng.next_below(distinct)),
                ),
            })
            .collect();
        let sites = (0..k)
            .map(|_| Site {
                machine: site_machine(&spec),
                now: Slot(0),
                batches: VecDeque::new(),
                events: VecDeque::new(),
                through: None,
                seq: 0,
                queue: VecDeque::new(),
                waiting: false,
                uplink: VecDeque::from([Uplink::Join]),
                downlink: VecDeque::new(),
            })
            .collect();
        World {
            cap: 1 + rng.next_below(6) as usize,
            rng,
            k,
            seq: Sequencer::new(&spec, Arc::new(Registry::new())),
            sites,
            twin,
            script,
            next_seq: 0,
            now: Slot(0),
            buffers: vec![Vec::new(); k],
            gate: None,
            owed: VecDeque::new(),
            control: VecDeque::new(),
            parked: false,
            answered: 0,
        }
    }

    /// Ship what is buffered (and, with `advance`, start that slot),
    /// as `ClusterHandle::ship` does.
    fn ship(&mut self, advance: Option<Slot>) {
        if advance.is_none() && self.buffers.iter().all(Vec::is_empty) {
            return;
        }
        let advance = advance.map(|slot| {
            let seq = self.next_seq;
            self.next_seq += 1 + self.k as u64;
            self.now = slot;
            (seq, slot)
        });
        let through = self.next_seq - 1;
        self.control.push_back((through, advance));
        for (i, (site, buffer)) in self.sites.iter_mut().zip(&mut self.buffers).enumerate() {
            let mut events: Vec<Event> = buffer
                .drain(..)
                .map(|(seq, e)| Event::Observe(seq, e))
                .collect();
            if let Some((seq, slot)) = advance {
                events.push(Event::Slot(seq + 1 + i as u64, slot));
            }
            site.batches.push_back((events, through));
        }
        let (sample, counters) = (self.twin.sample(), self.twin.counters().clone());
        self.owed.push_back((through, sample, counters));
    }

    /// The driver's next move, unless it waits for answers.
    fn drive(&mut self) {
        if let Some(keep) = self.gate {
            if self.owed.len() > keep {
                return;
            }
            self.gate = None;
        }
        let Some(op) = self.script.pop_front() else {
            return;
        };
        match op {
            Op::Observe(site, e) => {
                self.twin.observe(site, e);
                self.buffers[site.0].push((self.next_seq, e));
                self.next_seq += 1;
                if self.buffers[site.0].len() >= self.cap {
                    self.ship(None);
                    self.gate = Some(1);
                }
            }
            Op::Advance => {
                self.twin.advance_slot();
                self.ship(Some(self.now.next()));
                self.gate = Some(1);
            }
            Op::Read => {
                self.ship(None);
                self.gate = Some(0);
            }
        }
    }

    fn driver_can_move(&self) -> bool {
        !self.script.is_empty() && self.gate.map_or(true, |keep| self.owed.len() <= keep)
    }

    /// Deliver site `i`'s next frame to the sequencer.
    fn deliver_up(&mut self, i: usize) {
        let site = SiteId(i);
        match self.sites[i]
            .uplink
            .pop_front()
            .expect("a frame on the way")
        {
            Uplink::Join => self.seq.join(site).expect("a vacant seat"),
            Uplink::SeqUp(seq, up) => self.seq.seq_up(site, seq, up),
            Uplink::Done(through) => self.seq.done(site, through),
        }
    }

    fn deliver_sync(&mut self) {
        let (through, advance) = self.control.pop_front().expect("a Sync on the way");
        self.parked = true;
        self.seq
            .sync(through, through, advance)
            .expect("a well-formed barrier");
    }

    /// Carry out the sequencer's actions; check every answered barrier.
    fn perform(&mut self, seed: u64) {
        let actions: Vec<Action<u64>> = self.seq.actions().collect();
        for action in actions {
            match action {
                Action::Reply(site, Ok(ClusterResponse::Downs { downs })) => {
                    self.sites[site.0].downlink.push_back(downs);
                }
                Action::Reply(site, other) => {
                    panic!("seed {seed}: site {} got {other:?}", site.0)
                }
                Action::Answer(through, outcome) => {
                    assert_eq!(outcome, Ok(ClusterResponse::Ack), "seed {seed}");
                    let (owed, sample, counters) = self.owed.pop_front().expect("owed");
                    assert_eq!(through, owed, "seed {seed}: barriers answered in order");
                    let at = format!("seed {seed}, barrier through {through}");
                    assert_eq!(self.seq.sample(), Ok(sample), "sample at {at}");
                    assert_eq!(self.seq.stats().counters, counters, "counters at {at}");
                    self.parked = false;
                    self.answered += 1;
                }
            }
        }
    }

    /// Run the schedule to its end; returns the barriers answered.
    fn run(mut self, seed: u64) -> usize {
        self.script.push_back(Op::Read);
        let mut moves = Vec::new();
        loop {
            moves.clear();
            if self.driver_can_move() {
                moves.push(Move::Drive);
            }
            if !self.parked && !self.control.is_empty() {
                moves.push(Move::Sync);
            }
            for (i, site) in self.sites.iter().enumerate() {
                if site.can_run() {
                    moves.push(Move::Site(i));
                }
                if !site.uplink.is_empty() {
                    moves.push(Move::Deliver(i));
                }
            }
            if moves.is_empty() {
                break;
            }
            match moves[self.rng.next_below(moves.len() as u64) as usize] {
                Move::Drive => self.drive(),
                Move::Sync => self.deliver_sync(),
                Move::Site(i) => self.sites[i].run(),
                Move::Deliver(i) => self.deliver_up(i),
            }
            self.perform(seed);
        }
        assert!(
            self.script.is_empty() && self.owed.is_empty(),
            "seed {seed}: stuck with {} barriers owed and {} moves left",
            self.owed.len(),
            self.script.len()
        );
        self.answered
    }
}

/// Which party moves next.
#[derive(Clone, Copy)]
enum Move {
    Drive,
    Sync,
    Site(usize),
    Deliver(usize),
}

/// Run [`SCHEDULES`] seeded schedules of one kind; panics unless
/// every schedule checked barriers.
fn explore<S, C>(salt: u64, deploy: Deploy<S, C>)
where
    S: SiteNode,
    C: CoordinatorNode<Up = S::Up, Down = S::Down>,
    S::Up: WireMessage + Clone,
    S::Down: WireMessage + Clone,
{
    let checked: usize = (0..SCHEDULES)
        .map(|seed| World::new(deploy, seed ^ salt).run(seed ^ salt))
        .sum();
    assert!(checked as u64 > 2 * SCHEDULES, "{checked} barriers checked");
}

#[test]
fn seeded_schedules_of_the_infinite_protocol_match_the_twin_at_every_barrier() {
    explore(0x1f1f_0000, |rng, seed, k| {
        let s = 1 + rng.next_below(3) as usize;
        (
            SamplerSpec::new(SamplerKind::Infinite, s, seed),
            InfiniteConfig::with_seed(s, seed).cluster(k),
        )
    });
}

#[test]
fn seeded_schedules_of_the_with_replacement_protocol_match_the_twin_at_every_barrier() {
    explore(0x3a3a_0000, |rng, seed, k| {
        let s = 1 + rng.next_below(3) as usize;
        (
            SamplerSpec::new(SamplerKind::WithReplacement, s, seed),
            WrConfig::with_seed(s, seed).cluster(k),
        )
    });
}

#[test]
fn seeded_schedules_of_the_sliding_protocol_match_the_twin_at_every_barrier() {
    explore(0x5151_0000, |rng, seed, k| {
        let window = 2 + rng.next_below(3);
        (
            SamplerSpec::new(SamplerKind::Sliding { window }, 1, seed),
            SlidingConfig::with_seed(window, seed).cluster(k),
        )
    });
}

#[test]
fn seeded_schedules_of_the_sliding_multi_protocol_match_the_twin_at_every_barrier() {
    explore(0x7c7c_0000, |rng, seed, k| {
        let s = 1 + rng.next_below(3) as usize;
        let window = 2 + rng.next_below(3);
        (
            SamplerSpec::new(SamplerKind::SlidingMulti { window }, s, seed),
            MultiSlidingConfig::with_seed(s, window, seed).cluster(k),
        )
    });
}
