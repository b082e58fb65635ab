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
//! The coordinator runs `dds-server`'s [`EventLoop`], the engine
//! server's own: the same read budget, write high- and low-water marks,
//! typed answer to a malformed frame, non-blocking exit and loop
//! telemetry, here under the `cluster_` prefix
//! (`cluster_loop_turn_nanos`, `cluster_loop_conn_bytes`, …). This
//! module is its [`Handler`]: frames become events for the `Sequencer`
//! (`sequencer.rs`), which owns the protocol state and the hold rule,
//! and its actions become frames. In-process callers
//! ([`ClusterCoordinator::stats`], [`ClusterCoordinator::telemetry`])
//! post a query to the loop and wake it.
//!
//! ## Pipelined barriers
//!
//! A driver does not wait for a slot advance's `Sync` before it ships
//! the next barrier, so a control connection usually carries the next
//! `Sync` (or a read) behind the one that waits. A site sends its
//! `Done` after running a batch and before reading the next one, so
//! the answer to a `Sync` proves every live site ran its batch, and a
//! successful batch needs no reply of its own. While its `Sync` waits,
//! the control connection is parked: the frames behind it are decoded,
//! up to the loop's `PENDING_MAX`, not dispatched, and the answer
//! dispatches them in the same turn. So a `Sample` or `Stats` after a
//! barrier sees exactly the in-process twin's state.
//!
//! Every applied up is answered with exactly one
//! [`ClusterResponse::Downs`] frame carrying its protocol replies.
//!
//! ## Failure model
//!
//! A site connection that ends without a graceful `Leave`, or breaks
//! the protocol, marks the site *failed*; a malformed frame is first
//! answered with a typed [`ClusterError`]. A failed site stops holding
//! anyone, so surviving sites finish their batches; every later `Sync`
//! and `Sample` answers [`ClusterError::SiteDown`], while `Stats` keeps
//! working so an operator can see which site died and what it had
//! contributed.

use std::net::SocketAddr;
#[cfg(unix)]
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, Receiver, Sender, SyncSender};
use std::sync::{Arc, Mutex, OnceLock};
use std::thread::JoinHandle;

use dds_core::checkpoint::CheckpointError;
use dds_obs::{Registry, TelemetrySnapshot};
use dds_proto::cluster::{
    ClusterError, ClusterRequest, ClusterResponse, ClusterSpec, ClusterStats,
};
use dds_proto::encode_outcome;
use dds_reactor::Waker;
use dds_server::evented::{ConnId, EventLoop, Handler, Io};
use dds_server::net::{Endpoint, Listener};
use dds_sim::SiteId;

use crate::sequencer::{Action, Sequencer};

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
        let endpoint = listener.endpoint();
        let registry = Arc::new(Registry::new());
        let (queries, query_rx) = mpsc::channel();
        let stop = Arc::new(AtomicBool::new(false));
        let coordinator = Coordinator {
            spec,
            registry: Arc::clone(&registry),
            seq: Sequencer::new(&spec, Arc::clone(&registry)),
            roles: Vec::new(),
            sites: vec![None; spec.k],
            queries: query_rx,
            stop: Arc::clone(&stop),
        };
        let (event_loop, waker) = EventLoop::new(listener, &registry, "cluster", coordinator)?;
        let thread = std::thread::spawn(move || event_loop.run().seq.stats());
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
    /// stats. Never waits on a peer: each connection gets one
    /// non-blocking write of what it is owed, then closes.
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

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Role {
    Handshake,
    Site(SiteId),
    Control,
}

/// The coordinator's side of the event loop: frames in, sequencer
/// events; sequencer actions out, frames.
struct Coordinator {
    spec: ClusterSpec,
    registry: Arc<Registry>,
    seq: Sequencer<ConnId>,
    /// Each connection's role, by slot.
    roles: Vec<Role>,
    /// Each joined site's connection.
    sites: Vec<Option<ConnId>>,
    queries: Receiver<SyncSender<ClusterStats>>,
    stop: Arc<AtomicBool>,
}

impl Handler for Coordinator {
    fn opened(&mut self, conn: ConnId) {
        if self.roles.len() <= conn.slot() {
            self.roles.resize(conn.slot() + 1, Role::Handshake);
        }
        self.roles[conn.slot()] = Role::Handshake;
    }

    fn frame(&mut self, io: &mut Io, conn: ConnId, op: u8, payload: Vec<u8>) {
        let request = ClusterRequest::decode(op, &payload);
        io.recycle(payload);
        match (request, self.roles[conn.slot()]) {
            (Ok(request), Role::Handshake) => self.handshake(io, conn, request),
            (Ok(request), Role::Site(site)) => self.site_request(io, conn, site, request),
            (Ok(request), Role::Control) => self.control_request(io, conn, request),
            // A payload that does not decode ends the connection.
            (Err(e), _) => {
                io.close_after(
                    conn,
                    encode_outcome(&Err::<ClusterResponse, ClusterError>(e.into())),
                );
            }
        }
        self.perform(io);
    }

    fn wake(&mut self, io: &mut Io) {
        if self.stop.load(Ordering::SeqCst) {
            return io.exit();
        }
        while let Ok(reply) = self.queries.try_recv() {
            let _ = reply.send(self.seq.stats());
        }
    }

    /// A site whose connection ends without a `Leave` has failed.
    fn closed(&mut self, io: &mut Io, conn: ConnId) {
        if let Role::Site(site) = self.roles[conn.slot()] {
            self.seq.fail(site);
            self.perform(io);
        }
    }

    fn malformed(&mut self, error: CheckpointError) -> Vec<u8> {
        encode_outcome(&Err::<ClusterResponse, ClusterError>(error.into()))
    }
}

impl Coordinator {
    /// Send what the sequencer decided: an up's outcome to its site (an
    /// error ends the site's connection), a `Sync`'s answer to its
    /// control connection, which may then dispatch what waits behind.
    fn perform(&mut self, io: &mut Io) {
        for action in self.seq.actions() {
            match action {
                Action::Reply(site, outcome) => {
                    let Some(conn) = self.sites[site.0] else {
                        continue;
                    };
                    let frame = encode_outcome(&outcome);
                    if outcome.is_ok() {
                        io.reply(conn, &frame);
                    } else {
                        io.close_after(conn, frame);
                    }
                }
                Action::Answer(conn, outcome) => {
                    io.reply(conn, &encode_outcome(&outcome));
                    io.unpark(conn);
                }
            }
        }
    }

    fn handshake(&mut self, io: &mut Io, conn: ConnId, request: ClusterRequest) {
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
            ClusterRequest::Join { site, .. } => self.seq.join(site).map(|()| {
                self.roles[conn.slot()] = Role::Site(site);
                self.sites[site.0] = Some(conn);
            }),
            ClusterRequest::Control { .. } => {
                self.roles[conn.slot()] = Role::Control;
                Ok(())
            }
            _ => Err(ClusterError::Protocol(
                "first frame must be Join or Control".into(),
            )),
        };
        match outcome {
            Ok(()) => {
                let welcome: Result<_, ClusterError> =
                    Ok(ClusterResponse::Welcome { k: self.spec.k });
                io.reply(conn, &encode_outcome(&welcome));
            }
            Err(e) => io.close_after(conn, encode_outcome(&Err::<ClusterResponse, _>(e))),
        }
    }

    fn site_request(&mut self, io: &mut Io, conn: ConnId, site: SiteId, request: ClusterRequest) {
        match request {
            ClusterRequest::Up(up) => self.seq.up(site, up),
            ClusterRequest::SeqUp { seq, up } => self.seq.seq_up(site, seq, up),
            ClusterRequest::Done { through } => self.seq.done(site, through),
            ClusterRequest::Leave => {
                io.close_after(
                    conn,
                    encode_outcome(&Ok::<_, ClusterError>(ClusterResponse::Goodbye)),
                );
                self.seq.leave(site);
            }
            _ => {
                let refusal: Result<ClusterResponse, _> =
                    Err(ClusterError::Protocol("not a site request".into()));
                io.close_after(conn, encode_outcome(&refusal));
                self.seq.fail(site);
            }
        }
    }

    fn control_request(&mut self, io: &mut Io, conn: ConnId, request: ClusterRequest) {
        let outcome = match request {
            ClusterRequest::Sync { through, advance } => {
                match self.seq.sync(conn, through, advance) {
                    // Nothing behind the barrier is dispatched until its
                    // answer unparks the connection (maybe at once).
                    Ok(()) => return io.park(conn),
                    Err(e) => Err(e),
                }
            }
            ClusterRequest::Sample => self
                .seq
                .sample()
                .map(|sample| ClusterResponse::Sample { sample }),
            ClusterRequest::Stats => Ok(ClusterResponse::Stats {
                stats: self.seq.stats(),
            }),
            ClusterRequest::Telemetry => Ok(ClusterResponse::Telemetry {
                snapshot: telemetry(&self.registry, &self.seq.stats()),
            }),
            ClusterRequest::Shutdown => {
                io.exit();
                Ok(ClusterResponse::Goodbye)
            }
            _ => Err(ClusterError::Protocol("not a control request".into())),
        };
        io.reply(conn, &encode_outcome(&outcome));
    }
}
