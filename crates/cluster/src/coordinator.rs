//! The coordinator node: one event loop, `k` site connections, one
//! protocol state.
//!
//! Accepts framed connections over TCP or a Unix socket (the same
//! [`Listener`] plumbing as `dds-server`). The first frame on every
//! connection is a handshake — [`ClusterRequest::Join`] for a site,
//! [`ClusterRequest::Control`] for a driver — carrying the
//! [`ClusterSpec::digest`] so a peer built against different protocol
//! parameters is rejected with a typed
//! [`ClusterError::ConfigMismatch`] before it can touch the sample.
//!
//! ## The loop
//!
//! One thread blocks in [`dds_reactor::Poller::wait`] over the listener
//! and every site and control connection. It owns the protocol state
//! ([`CoordMachine`], the slot clock, the paper's
//! [`MessageCounters`]), the membership table and the held ups, so
//! nothing here takes a lock per request. In-process callers
//! ([`ClusterCoordinator::stats`], [`ClusterCoordinator::telemetry`])
//! post a query to the loop and wake it.
//!
//! ## The hold rule
//!
//! A driver numbers every event of the stream — each observed element,
//! and each slot boundary's coordinator start followed by every site's
//! slot start — in the order `dds_sim::Cluster` would run them, and
//! sites stamp each up with the number of the event that caused it
//! ([`ClusterRequest::SeqUp`]). The coordinator applies stamped ups and
//! slot advances strictly in that order. It holds an up numbered `n`
//! until every other live site has sent a later up or a one-way
//! [`ClusterRequest::Done`] marker past `n`, and until the driver's
//! [`ClusterRequest::Sync`] has announced every slot advance up to `n`.
//! This is conservative (Chandy–Misra) synchronization, and it is exact
//! here because `machine.rs` enforces that every reply is unicast to
//! the sender and that coordinator slot starts are silent: a site's
//! state changes only through its own events and the replies to its
//! own ups, so the order in which ups are applied is the only coupling
//! between sites. A `Sync` is answered once everything numbered up to
//! it is applied, and the control connection's later requests wait
//! behind it, so a `Sample` or `Stats` after a barrier sees exactly the
//! in-process twin's state. Each site has at most one up in flight, so
//! at most `k` ups are ever held.
//!
//! ## Pipelined barriers
//!
//! A driver does not wait for a slot advance's `Sync` before it ships
//! the next barrier, so a control connection usually carries the next
//! `Sync` (or a read) behind the one that waits. A site sends its
//! `Done` after running a batch and before reading the next one, so
//! the answer to a `Sync` proves every live site ran its batch, and a
//! successful batch needs no reply of its own. While its `Sync` waits,
//! a control connection is not read: its next `Sync` is picked up when
//! the answer goes out, from bytes already decoded or on the next turn
//! of the loop. Reading the socket while the `Sync` waits, or right
//! after answering it, was measured and bought no throughput on
//! `cluster_sliding`, so the loop keeps the simpler rule: nothing
//! behind a waiting `Sync` is read or dispatched. Ups the next batch
//! stamps past the announced barrier are held until its `Sync`
//! announces them.
//!
//! An up without a number ([`ClusterRequest::Up`], sent by a directly
//! driven [`SiteDaemon`](crate::SiteDaemon)) is applied on arrival.
//! Every applied up is answered with exactly one
//! [`ClusterResponse::Downs`] frame carrying its protocol replies.
//!
//! ## Failure model
//!
//! A seat no site has joined yet holds like a live site, because a
//! driver's first barrier may race a site's `Join`. A site connection
//! that ends without a graceful `Leave`, or breaks the protocol, marks
//! the site *failed*. The coordinator neither hangs
//! nor panics: a failed site stops holding anyone (its own held up is
//! dropped), so surviving sites finish their batches; every later
//! `Sync` and `Sample` answers [`ClusterError::SiteDown`] (the
//! continuous query can no longer be trusted cluster-wide), while
//! `Stats` keeps working so an operator can see exactly which site
//! died and what it had contributed.

use std::collections::VecDeque;
use std::io::{Read, Write};
use std::net::SocketAddr;
use std::os::unix::io::AsRawFd;
#[cfg(unix)]
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, Receiver, Sender, SyncSender};
use std::sync::{Arc, Mutex, OnceLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use dds_obs::{Counter, Histogram, Registry, TelemetrySnapshot};
use dds_proto::cluster::{
    encode_cluster_outcome, ClusterError, ClusterRequest, ClusterResponse, ClusterSpec,
    ClusterStats, SiteUp,
};
use dds_proto::frame::FrameDecoder;
use dds_reactor::{Events, Interest, Poller, Token, Waker};
use dds_server::net::{Endpoint, Listener, Stream};
use dds_sim::{Direction, MessageCounters, SiteId, Slot};

use crate::machine::CoordMachine;

/// Token of the listening socket.
const LISTENER: Token = Token(0);
/// Token of the waker (local queries, shutdown).
const WAKER: Token = Token(1);
/// Connection `slot` is registered as `FIRST_CONN + slot`.
const FIRST_CONN: usize = 2;
/// How long accepting pauses after an accept error.
const ACCEPT_BACKOFF: Duration = Duration::from_millis(10);

/// Lifecycle and synchronization metrics registered under the
/// coordinator's registry.
struct CoordObs {
    joins: Counter,
    leaves: Counter,
    faults: Counter,
    accept_errors: Counter,
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
            accept_errors: registry.counter("cluster_accept_errors_total"),
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

/// The coordinator's full telemetry: its registry (lifecycle counters,
/// late-data and `Done`-marker counters, the up-hold histogram, events)
/// plus the exact per-site protocol message/byte tallies and
/// protocol-state gauges (`cluster_memory_tuples` is the coordinator's
/// buffered-candidate gauge). The registry merge works exactly like an
/// engine server's `Telemetry` reply: everything registered shows up in
/// the scrape, no second bookkeeping path.
fn telemetry(registry: &Registry, stats: &ClusterStats) -> TelemetrySnapshot {
    let mut snap = registry.snapshot();
    snap.push_gauge("cluster_now_slot", &[], stats.now.0);
    snap.push_gauge("cluster_joined_sites", &[], stats.joined as u64);
    snap.push_gauge("cluster_memory_tuples", &[], stats.memory_tuples as u64);
    let counters = &stats.counters;
    for i in 0..stats.k {
        let site = i.to_string();
        let labels = [("site", site.as_str())];
        let id = SiteId(i);
        snap.push_counter(
            "cluster_up_msgs_total",
            &labels,
            counters.up_messages_for(id),
        );
        snap.push_counter(
            "cluster_down_msgs_total",
            &labels,
            counters.down_messages_for(id),
        );
        snap.push_counter("cluster_up_bytes_total", &labels, counters.up_bytes_for(id));
        snap.push_counter(
            "cluster_down_bytes_total",
            &labels,
            counters.down_bytes_for(id),
        );
    }
    snap
}

/// A running coordinator: the aggregation half of Algorithms 2/4
/// reachable over sockets.
pub struct ClusterCoordinator {
    spec: ClusterSpec,
    endpoint: Endpoint,
    registry: Arc<Registry>,
    queries: Sender<SyncSender<ClusterStats>>,
    waker: Waker,
    stop: Arc<AtomicBool>,
    /// The loop thread, until something waits for its final stats.
    thread: Mutex<Option<JoinHandle<ClusterStats>>>,
    /// The stats the loop returned when it exited.
    ended: OnceLock<ClusterStats>,
}

impl ClusterCoordinator {
    /// Bind a TCP listener (port `0` for ephemeral) and start
    /// accepting site and control connections.
    ///
    /// # Errors
    /// Propagates bind and poller failures.
    pub fn bind_tcp(addr: &str, spec: ClusterSpec) -> std::io::Result<ClusterCoordinator> {
        Self::serve(Listener::bind_tcp(addr)?, spec)
    }

    /// Bind a Unix-domain socket at `path` and start accepting.
    ///
    /// # Errors
    /// Propagates bind and poller failures.
    #[cfg(unix)]
    pub fn bind_unix(
        path: impl AsRef<Path>,
        spec: ClusterSpec,
    ) -> std::io::Result<ClusterCoordinator> {
        Self::serve(Listener::bind_unix(path)?, spec)
    }

    fn serve(listener: Listener, spec: ClusterSpec) -> std::io::Result<ClusterCoordinator> {
        listener.set_nonblocking(true)?;
        let poller = Poller::new()?;
        poller.register(listener.as_raw_fd(), LISTENER, Interest::READABLE)?;
        let waker = poller.waker(WAKER)?;
        let endpoint = listener.endpoint();
        let registry = Arc::new(Registry::new());
        let (queries, query_rx) = mpsc::channel();
        let stop = Arc::new(AtomicBool::new(false));
        let state = CoordLoop {
            obs: CoordObs::register(&registry, spec.k),
            registry: Arc::clone(&registry),
            poller,
            listener,
            spec,
            machine: CoordMachine::new(&spec),
            now: Slot(0),
            counters: MessageCounters::new(spec.k),
            seats: vec![Seat::VACANT; spec.k],
            announced: 0,
            advances: VecDeque::new(),
            broken: None,
            conns: Vec::new(),
            free: Vec::new(),
            freed: Vec::new(),
            queries: query_rx,
            stop: Arc::clone(&stop),
            exiting: false,
            accept_paused_until: None,
        };
        let thread = std::thread::spawn(move || state.run());
        Ok(ClusterCoordinator {
            spec,
            endpoint,
            registry,
            queries,
            waker,
            stop,
            thread: Mutex::new(Some(thread)),
            ended: OnceLock::new(),
        })
    }

    /// Where sites and controllers dial this coordinator.
    #[must_use]
    pub fn endpoint(&self) -> Endpoint {
        self.endpoint.clone()
    }

    /// The bound TCP address (`None` for Unix-socket coordinators).
    #[must_use]
    pub fn local_addr(&self) -> Option<SocketAddr> {
        match self.endpoint {
            Endpoint::Tcp(addr) => Some(addr),
            #[cfg(unix)]
            Endpoint::Unix(_) => None,
        }
    }

    /// The deployment this coordinator serves.
    #[must_use]
    pub fn spec(&self) -> ClusterSpec {
        self.spec
    }

    /// Local (in-process) stats snapshot — what a control connection's
    /// `Stats` would answer. Once the loop has stopped, its final
    /// stats.
    #[must_use]
    pub fn stats(&self) -> ClusterStats {
        let (reply, answer) = mpsc::sync_channel(1);
        if self.queries.send(reply).is_ok() {
            self.waker.wake();
            if let Ok(stats) = answer.recv() {
                return stats;
            }
        }
        self.final_stats()
    }

    /// Local telemetry snapshot — what a control connection's
    /// `Telemetry` would answer.
    #[must_use]
    pub fn telemetry(&self) -> TelemetrySnapshot {
        telemetry(&self.registry, &self.stats())
    }

    /// The coordinator's metric registry (lifecycle counters and the
    /// structured event ring).
    #[must_use]
    pub fn registry(&self) -> &Arc<Registry> {
        &self.registry
    }

    /// Block until a control connection sends `Shutdown` (how the
    /// standalone node binary parks its main thread).
    pub fn wait(&self) {
        let _ = self.final_stats();
    }

    /// The stats the loop returned when it exited, waiting for it.
    fn final_stats(&self) -> ClusterStats {
        self.ended
            .get_or_init(|| {
                let thread = self.thread.lock().expect("coordinator thread").take();
                let thread = thread.expect("the loop is joined once");
                thread.join().expect("coordinator loop panicked")
            })
            .clone()
    }

    fn begin_stop(&self) {
        self.stop.store(true, Ordering::SeqCst);
        self.waker.wake();
    }

    /// Stop the loop, close every connection, and return the final
    /// stats.
    #[must_use = "final stats carry the message accounting"]
    pub fn shutdown(self) -> ClusterStats {
        self.begin_stop();
        self.final_stats()
    }
}

impl Drop for ClusterCoordinator {
    fn drop(&mut self) {
        self.begin_stop();
        if let Some(thread) = self.thread.get_mut().ok().and_then(Option::take) {
            let _ = thread.join();
        }
        self.endpoint.cleanup();
    }
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
    /// The site's connection slot while joined.
    conn: usize,
    /// The smallest sequence number this site may still stamp on an up.
    clock: u64,
    /// Its sequenced up waiting for the other sites, with its sequence
    /// number and arrival time.
    held: Option<(u64, SiteUp, Option<Instant>)>,
}

impl Seat {
    const VACANT: Seat = Seat {
        membership: Membership::Vacant,
        conn: 0,
        clock: 0,
        held: None,
    };

    /// Vacant seats count too: a site that has not joined yet will
    /// still run its share of the stream.
    fn holds_others(&self) -> bool {
        matches!(self.membership, Membership::Vacant | Membership::Joined)
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Role {
    Handshake,
    Site(SiteId),
    Control,
}

struct Conn {
    socket: Stream,
    role: Role,
    decoder: FrameDecoder,
    /// Encoded replies not yet on the wire.
    out: Vec<u8>,
    interest: Interest,
    /// A control connection's `Sync` waiting for everything through
    /// this number to be applied; its later frames wait unread.
    awaiting: Option<u64>,
    /// Close once `out` drains.
    closing: bool,
}

impl Conn {
    /// Write what the socket takes without blocking. A hard error drops
    /// the rest; the reader side sees the dead socket and closes it.
    fn write_out(&mut self) {
        while !self.out.is_empty() {
            match self.socket.write(&self.out) {
                Ok(0) => break,
                Ok(n) => drop(self.out.drain(..n)),
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(_) => break,
            }
        }
        self.out.clear();
    }
}

/// Everything the coordinator owns, run by one thread.
struct CoordLoop {
    poller: Poller,
    listener: Listener,
    spec: ClusterSpec,
    registry: Arc<Registry>,
    obs: CoordObs,
    machine: CoordMachine,
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
    conns: Vec<Option<Conn>>,
    free: Vec<usize>,
    /// Slots closed during this event batch, reusable after it (a stale
    /// event of the batch must not reach a new connection).
    freed: Vec<usize>,
    queries: Receiver<SyncSender<ClusterStats>>,
    stop: Arc<AtomicBool>,
    /// A control connection asked to stop: exit after this batch.
    exiting: bool,
    accept_paused_until: Option<Instant>,
}

impl CoordLoop {
    fn run(mut self) -> ClusterStats {
        let mut events = Events::with_capacity(64);
        loop {
            let timeout = self
                .accept_paused_until
                .map(|t| t.saturating_duration_since(Instant::now()));
            if self.poller.wait(&mut events, timeout).is_err() {
                std::thread::yield_now();
            }
            if self.stop.load(Ordering::SeqCst) {
                break;
            }
            for ev in &events {
                match ev.token {
                    LISTENER => self.accept_ready(),
                    WAKER => {}
                    Token(t) => self.read_ready(t - FIRST_CONN),
                }
            }
            self.maybe_resume_accept();
            while let Ok(reply) = self.queries.try_recv() {
                let _ = reply.send(self.stats());
            }
            self.settle_conns();
            self.free.append(&mut self.freed);
            if self.exiting {
                break;
            }
        }
        // Goodbyes are tiny; let them reach their peers before the
        // sockets close.
        for conn in self.conns.iter_mut().flatten() {
            if !conn.out.is_empty() && conn.socket.set_nonblocking(false).is_ok() {
                let _ = conn.socket.write_all(&conn.out);
            }
        }
        self.stats()
    }

    fn stats(&self) -> ClusterStats {
        let count = |m: Membership| self.seats.iter().filter(|s| s.membership == m).count();
        ClusterStats {
            k: self.spec.k,
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

    fn first_failure(&self) -> Option<SiteId> {
        self.seats
            .iter()
            .position(|s| s.membership == Membership::Failed)
            .map(SiteId)
    }

    // -- connections -------------------------------------------------

    fn accept_ready(&mut self) {
        if self.accept_paused_until.is_some() {
            return;
        }
        loop {
            match self.listener.accept() {
                Ok(stream) => self.install(stream),
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(_) => {
                    // EMFILE and friends: pause accepting (through the
                    // wait timeout), keep serving connected peers.
                    self.obs.accept_errors.inc();
                    let _ = self.poller.deregister(self.listener.as_raw_fd());
                    self.accept_paused_until = Some(Instant::now() + ACCEPT_BACKOFF);
                    return;
                }
            }
        }
    }

    fn maybe_resume_accept(&mut self) {
        match self.accept_paused_until {
            Some(until) if Instant::now() >= until => {}
            _ => return,
        }
        self.accept_paused_until = None;
        let _ = self
            .poller
            .register(self.listener.as_raw_fd(), LISTENER, Interest::READABLE);
        self.accept_ready();
    }

    fn install(&mut self, socket: Stream) {
        if socket.set_nonblocking(true).is_err() {
            return;
        }
        let slot = self.free.pop().unwrap_or_else(|| {
            self.conns.push(None);
            self.conns.len() - 1
        });
        let token = Token(FIRST_CONN + slot);
        if self
            .poller
            .register(socket.as_raw_fd(), token, Interest::READABLE)
            .is_err()
        {
            self.free.push(slot);
            return;
        }
        self.conns[slot] = Some(Conn {
            socket,
            role: Role::Handshake,
            decoder: FrameDecoder::new(),
            out: Vec::new(),
            interest: Interest::READABLE,
            awaiting: None,
            closing: false,
        });
    }

    fn read_ready(&mut self, slot: usize) {
        let mut chunk = [0u8; 16 << 10];
        loop {
            let Some(conn) = self.conns.get_mut(slot).and_then(Option::as_mut) else {
                return;
            };
            if conn.closing || conn.awaiting.is_some() {
                return;
            }
            match conn.socket.read(&mut chunk) {
                Ok(0) => return self.close(slot),
                Ok(n) => {
                    conn.decoder.push(&chunk[..n]);
                    self.drain(slot);
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(_) => return self.close(slot),
            }
        }
    }

    /// Handle every complete frame a connection has buffered, stopping
    /// at a `Sync` that must wait.
    fn drain(&mut self, slot: usize) {
        let mut payload = Vec::new();
        loop {
            let Some(conn) = self.conns[slot].as_mut() else {
                return;
            };
            if conn.closing || conn.awaiting.is_some() {
                return;
            }
            let request = match conn.decoder.next_frame(&mut payload) {
                Ok(Some(op)) => ClusterRequest::decode(op, &payload),
                Ok(None) => return,
                Err(e) => Err(e),
            };
            match request {
                Ok(request) => self.dispatch(slot, request),
                // Framing cannot resync: the connection is over.
                Err(_) => return self.close(slot),
            }
        }
    }

    fn reply(&mut self, slot: usize, outcome: &Result<ClusterResponse, ClusterError>) {
        let Some(conn) = self.conns[slot].as_mut() else {
            return;
        };
        conn.out.extend_from_slice(&encode_cluster_outcome(outcome));
        conn.write_out();
        self.sync_interest(slot);
    }

    /// Reply, then close the connection once the reply is out.
    fn reply_and_close(&mut self, slot: usize, outcome: &Result<ClusterResponse, ClusterError>) {
        self.reply(slot, outcome);
        if let Some(conn) = self.conns[slot].as_mut() {
            conn.closing = true;
        }
    }

    fn sync_interest(&mut self, slot: usize) {
        let Some(conn) = self.conns[slot].as_mut() else {
            return;
        };
        let mut want = Interest::NONE;
        if conn.awaiting.is_none() && !conn.closing {
            want = want | Interest::READABLE;
        }
        if !conn.out.is_empty() {
            want = want | Interest::WRITABLE;
        }
        if want != conn.interest
            && self
                .poller
                .modify(conn.socket.as_raw_fd(), Token(FIRST_CONN + slot), want)
                .is_ok()
        {
            conn.interest = want;
        }
    }

    /// Flush, close drained closing connections, reconcile interest.
    fn settle_conns(&mut self) {
        for slot in 0..self.conns.len() {
            let Some(conn) = self.conns[slot].as_mut() else {
                continue;
            };
            conn.write_out();
            if conn.closing && conn.out.is_empty() {
                self.close(slot);
            } else {
                self.sync_interest(slot);
            }
        }
    }

    /// The connection is over. A joined site that did not `Leave` has
    /// failed, and stops holding anyone.
    fn close(&mut self, slot: usize) {
        let Some(conn) = self.conns[slot].take() else {
            return;
        };
        let _ = self.poller.deregister(conn.socket.as_raw_fd());
        self.freed.push(slot);
        if let Role::Site(site) = conn.role {
            self.fail(site);
            self.pump();
        }
    }

    fn fail(&mut self, site: SiteId) {
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

    // -- requests ----------------------------------------------------

    fn dispatch(&mut self, slot: usize, request: ClusterRequest) {
        let role = self.conns[slot].as_ref().map(|c| c.role);
        match role {
            Some(Role::Handshake) => self.handshake(slot, request),
            Some(Role::Site(site)) => self.site_request(slot, site, request),
            Some(Role::Control) => self.control_request(slot, request),
            None => {}
        }
    }

    fn handshake(&mut self, slot: usize, request: ClusterRequest) {
        let expected = self.spec.digest();
        let outcome = match request {
            ClusterRequest::Join { digest, .. } | ClusterRequest::Control { digest }
                if digest != expected =>
            {
                Err(ClusterError::ConfigMismatch {
                    expected,
                    got: digest,
                })
            }
            ClusterRequest::Join { site, .. } => self.admit(slot, site),
            ClusterRequest::Control { .. } => {
                self.set_role(slot, Role::Control);
                Ok(ClusterResponse::Welcome { k: self.spec.k })
            }
            _ => Err(ClusterError::Protocol(
                "first frame must be Join or Control".into(),
            )),
        };
        if outcome.is_ok() {
            self.reply(slot, &outcome);
        } else {
            self.reply_and_close(slot, &outcome);
        }
    }

    fn set_role(&mut self, slot: usize, role: Role) {
        if let Some(conn) = self.conns[slot].as_mut() {
            conn.role = role;
        }
    }

    fn admit(&mut self, slot: usize, site: SiteId) -> Result<ClusterResponse, ClusterError> {
        let seat = self
            .seats
            .get_mut(site.0)
            .ok_or(ClusterError::UnknownSite(site))?;
        if seat.membership != Membership::Vacant {
            return Err(ClusterError::DuplicateSite(site));
        }
        seat.membership = Membership::Joined;
        seat.conn = slot;
        self.set_role(slot, Role::Site(site));
        self.obs.joins.inc();
        self.registry
            .events()
            .note("site_join", format!("site {} joined", site.0));
        Ok(ClusterResponse::Welcome { k: self.spec.k })
    }

    fn site_request(&mut self, slot: usize, site: SiteId, request: ClusterRequest) {
        match request {
            ClusterRequest::Up(up) => {
                let outcome = self.apply_up(site, up);
                self.answer_up(slot, site, &outcome);
            }
            ClusterRequest::SeqUp { seq, up } => {
                let seat = &mut self.seats[site.0];
                if seq < seat.clock || seat.held.is_some() {
                    let outcome = Err(ClusterError::Protocol(format!(
                        "up numbered {seq} after the site reached {}",
                        seat.clock
                    )));
                    return self.answer_up(slot, site, &outcome);
                }
                seat.clock = seq;
                seat.held = Some((seq, up, dds_obs::maybe_now()));
                self.pump();
            }
            ClusterRequest::Done { through } => {
                let seat = &mut self.seats[site.0];
                seat.clock = seat.clock.max(through.saturating_add(1));
                self.obs.sync_msgs[site.0].inc();
                self.pump();
            }
            ClusterRequest::Leave => {
                let seat = &mut self.seats[site.0];
                seat.membership = Membership::Departed;
                seat.held = None;
                self.obs.leaves.inc();
                self.registry
                    .events()
                    .note("site_leave", format!("site {} left gracefully", site.0));
                self.reply_and_close(slot, &Ok(ClusterResponse::Goodbye));
                self.pump();
            }
            _ => {
                let outcome = Err(ClusterError::Protocol("not a site request".into()));
                self.answer_up(slot, site, &outcome);
            }
        }
    }

    /// Send an up's outcome; a site that broke the protocol has failed.
    fn answer_up(
        &mut self,
        slot: usize,
        site: SiteId,
        outcome: &Result<ClusterResponse, ClusterError>,
    ) {
        if outcome.is_ok() {
            return self.reply(slot, outcome);
        }
        self.reply_and_close(slot, outcome);
        self.fail(site);
        self.pump();
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

    fn control_request(&mut self, slot: usize, request: ClusterRequest) {
        let outcome = match request {
            ClusterRequest::Sync { through, advance } => match self.announce(through, advance) {
                Ok(()) => {
                    if let Some(conn) = self.conns[slot].as_mut() {
                        conn.awaiting = Some(through);
                    }
                    // Answers this barrier at once if nothing is left.
                    return self.pump();
                }
                Err(e) => Err(e),
            },
            ClusterRequest::Sample => match self.first_failure() {
                Some(down) => Err(ClusterError::SiteDown(down)),
                None => Ok(ClusterResponse::Sample {
                    sample: self.machine.sample(),
                }),
            },
            ClusterRequest::Stats => Ok(ClusterResponse::Stats {
                stats: self.stats(),
            }),
            ClusterRequest::Telemetry => Ok(ClusterResponse::Telemetry {
                snapshot: telemetry(&self.registry, &self.stats()),
            }),
            ClusterRequest::Shutdown => {
                self.exiting = true;
                Ok(ClusterResponse::Goodbye)
            }
            _ => Err(ClusterError::Protocol("not a control request".into())),
        };
        self.reply(slot, &outcome);
    }

    /// Record a barrier: its slot advance, if any, and that every
    /// coordinator event through `through` is now known.
    fn announce(&mut self, through: u64, advance: Option<(u64, Slot)>) -> Result<(), ClusterError> {
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
        Ok(())
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
        let seat = &mut self.seats[site.0];
        let (_, up, since) = seat.held.take().expect("released up is held");
        let slot = seat.conn;
        self.obs.hold_nanos.observe(dds_obs::nanos_since(since));
        let outcome = self.apply_up(site, up);
        self.answer_up(slot, site, &outcome);
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
        for slot in 0..self.conns.len() {
            let Some(through) = self.conns[slot].as_ref().and_then(|c| c.awaiting) else {
                continue;
            };
            if !self.applied_through(through) {
                continue;
            }
            if let Some(conn) = self.conns[slot].as_mut() {
                conn.awaiting = None;
            }
            let outcome = match (&self.broken, self.first_failure()) {
                (Some(e), _) => Err(e.clone()),
                (None, Some(down)) => Err(ClusterError::SiteDown(down)),
                (None, None) => Ok(ClusterResponse::Ack),
            };
            self.reply(slot, &outcome);
            // Requests pipelined behind the barrier.
            self.drain(slot);
        }
    }
}
