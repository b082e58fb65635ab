//! The site daemon: local ingest, remote protocol.
//!
//! A [`SiteDaemon`] owns the per-site half of the configured protocol
//! (Algorithm 1 or 3, possibly `s` parallel copies) and a framed
//! connection to the coordinator. Observing an element runs the site
//! algorithm locally; whatever the algorithm decides to send goes up
//! the wire one frame at a time, each answered by a `Downs` frame whose
//! replies are applied immediately — the same FIFO settle loop
//! `dds_sim::Cluster` runs in process, which is why the per-site
//! message and byte counters here match the simulator's
//! [`MessageCounters`](dds_sim::MessageCounters) exactly.
//!
//! A daemon can be driven two ways. Directly, through its `observe` /
//! `advance` methods (used when the whole cluster lives in one test
//! process): its ups go out unsequenced and the coordinator applies
//! them on arrival. Or over its own driver socket
//! ([`SiteDaemon::serve`], used by the standalone node binary and by
//! every [`ClusterHandle`](crate::ClusterHandle)): the driver sends one
//! `SiteBatch` per barrier, the daemon runs the whole batch locally,
//! stamps every up with the global sequence number of the element or
//! slot start that caused it, and tells the coordinator it is done
//! through the barrier with a one-way `Done` marker before it reads the
//! next batch. The coordinator applies stamped ups in sequence order,
//! so the batch leaves the same trace as observing the elements one at
//! a time.
//!
//! A batch that succeeds is one-way, like `Done`: the daemon does not
//! answer it. The coordinator answers the barrier's `Sync` only once
//! every live site's `Done` is past it, so that answer already proves
//! the batch ran, and the driver reads nothing from this socket until
//! it asks for stats or telemetry. A batch that fails is answered with
//! its error, and the daemon then returns from `serve`.
//!
//! A daemon whose driver connection ends returns from `serve` and drops
//! its coordinator uplink with it, so the coordinator learns of the
//! loss and stops waiting on this site.

use std::collections::VecDeque;
use std::net::SocketAddr;
#[cfg(unix)]
use std::path::Path;
use std::sync::Arc;

use dds_obs::{Histogram, Registry, TelemetrySnapshot};
use dds_proto::cluster::{
    ClusterError, ClusterRequest, ClusterResponse, ClusterSpec, SiteDaemonStats, SiteUp,
};
use dds_server::net::{Endpoint, Listener, Stream};
use dds_sim::{Element, SiteId, Slot};

use crate::conn::Framed;
use crate::machine::SiteMachine;

/// The site daemon's accounting: plain tallies of the wire, which
/// [`SiteDaemon::stats`] reports and [`SiteDaemon::telemetry`] pushes
/// into its snapshot. Plain fields, not registry counters, so they
/// stay exact in an `obs-noop` build.
#[derive(Default)]
struct SiteTally {
    observations: u64,
    up_msgs: u64,
    down_msgs: u64,
    up_bytes: u64,
    down_bytes: u64,
}

/// One site of a distributed deployment: local sampler state plus the
/// coordinator uplink.
pub struct SiteDaemon {
    id: SiteId,
    machine: SiteMachine,
    now: Slot,
    registry: Arc<Registry>,
    tally: SiteTally,
    settle_nanos: Histogram,
    coord: Framed,
}

impl SiteDaemon {
    /// Dial the coordinator at `endpoint` and join as site `id`.
    ///
    /// # Errors
    /// Transport errors, a [`ClusterError::ConfigMismatch`] when the
    /// coordinator was built from a different [`ClusterSpec`], or
    /// `UnknownSite`/`DuplicateSite` when `id` is out of range or
    /// already taken.
    pub fn connect(
        endpoint: &Endpoint,
        id: SiteId,
        spec: &ClusterSpec,
    ) -> Result<SiteDaemon, ClusterError> {
        let stream = endpoint
            .connect()
            .map_err(|e| ClusterError::Transport(e.to_string()))?;
        Self::join(stream, id, spec)
    }

    /// [`connect`](SiteDaemon::connect) over TCP.
    ///
    /// # Errors
    /// As [`connect`](SiteDaemon::connect).
    pub fn connect_tcp(
        addr: SocketAddr,
        id: SiteId,
        spec: &ClusterSpec,
    ) -> Result<SiteDaemon, ClusterError> {
        Self::connect(&Endpoint::Tcp(addr), id, spec)
    }

    /// [`connect`](SiteDaemon::connect) over a Unix socket.
    ///
    /// # Errors
    /// As [`connect`](SiteDaemon::connect).
    #[cfg(unix)]
    pub fn connect_unix(
        path: impl AsRef<Path>,
        id: SiteId,
        spec: &ClusterSpec,
    ) -> Result<SiteDaemon, ClusterError> {
        Self::connect(&Endpoint::Unix(path.as_ref().to_path_buf()), id, spec)
    }

    fn join(stream: Stream, id: SiteId, spec: &ClusterSpec) -> Result<SiteDaemon, ClusterError> {
        let mut coord = Framed::new(stream)?;
        match coord.call(&ClusterRequest::Join {
            site: id,
            digest: spec.digest(),
        })? {
            ClusterResponse::Welcome { k } if k == spec.k => {
                let registry = Arc::new(Registry::new());
                let site = id.0.to_string();
                let settle_nanos =
                    registry.histogram_with("site_settle_nanos", &[("site", site.as_str())]);
                Ok(SiteDaemon {
                    id,
                    machine: SiteMachine::new(spec),
                    now: Slot(0),
                    registry,
                    tally: SiteTally::default(),
                    settle_nanos,
                    coord,
                })
            }
            ClusterResponse::Welcome { k } => Err(ClusterError::Protocol(format!(
                "coordinator runs k={k} but this site expected k={}",
                spec.k
            ))),
            other => Err(ClusterError::Protocol(format!(
                "expected Welcome to a Join, got {other:?}"
            ))),
        }
    }

    /// This site's id.
    #[must_use]
    pub fn id(&self) -> SiteId {
        self.id
    }

    /// Observe one local element: run the site algorithm, then settle
    /// every triggered protocol exchange with the coordinator.
    ///
    /// # Errors
    /// Transport errors talking to the coordinator, or a typed protocol
    /// error if the exchange goes off-script.
    pub fn observe(&mut self, e: Element) -> Result<(), ClusterError> {
        self.observe_numbered(None, e)
    }

    fn observe_numbered(&mut self, seq: Option<u64>, e: Element) -> Result<(), ClusterError> {
        self.tally.observations += 1;
        let ups = self.machine.observe(e, self.now);
        self.settle(seq, ups)
    }

    /// Advance the local slot clock to `now` (must be the next slot)
    /// and settle any expiry-driven re-sends.
    ///
    /// # Errors
    /// [`ClusterError::Protocol`] on a clock skip; otherwise as
    /// [`observe`](SiteDaemon::observe).
    pub fn advance(&mut self, now: Slot) -> Result<(), ClusterError> {
        self.advance_numbered(None, now)
    }

    fn advance_numbered(&mut self, seq: Option<u64>, now: Slot) -> Result<(), ClusterError> {
        if now != self.now.next() {
            return Err(ClusterError::Protocol(format!(
                "advance to slot {} but the next slot is {}",
                now.0,
                self.now.next().0
            )));
        }
        self.now = now;
        let ups = self.machine.on_slot_start(now);
        self.settle(seq, ups)
    }

    /// Run one driver batch: every element in order, then this site's
    /// slot start, each settling its ups stamped with its sequence
    /// number; then the one-way `Done` marker through the barrier.
    fn run_batch(
        &mut self,
        elements: &[(u64, Element)],
        then_slot: Option<(u64, Slot)>,
        through: u64,
    ) -> Result<(), ClusterError> {
        for &(seq, e) in elements {
            self.observe_numbered(Some(seq), e)?;
        }
        if let Some((seq, slot)) = then_slot {
            self.advance_numbered(Some(seq), slot)?;
        }
        self.coord.send_request(&ClusterRequest::Done { through })
    }

    /// The FIFO settle loop: send each pending up, apply the unicast
    /// replies immediately, queue any re-sends they trigger. Identical
    /// order to `dds_sim::Cluster` settling an in-process batch. Every
    /// up, re-sends included, carries the sequence number `seq` of the
    /// event that started the loop, if it has one.
    fn settle(&mut self, seq: Option<u64>, ups: Vec<SiteUp>) -> Result<(), ClusterError> {
        let mut queue: VecDeque<SiteUp> = ups.into();
        if queue.is_empty() {
            return Ok(());
        }
        let start = dds_obs::maybe_now();
        while let Some(up) = queue.pop_front() {
            self.tally.up_msgs += 1;
            self.tally.up_bytes += up.protocol_bytes() as u64;
            let request = match seq {
                Some(seq) => ClusterRequest::SeqUp { seq, up },
                None => ClusterRequest::Up(up),
            };
            match self.coord.call(&request)? {
                ClusterResponse::Downs { downs } => {
                    for down in downs {
                        self.tally.down_msgs += 1;
                        self.tally.down_bytes += down.protocol_bytes() as u64;
                        queue.extend(self.machine.handle(down, self.now)?);
                    }
                }
                other => {
                    return Err(ClusterError::Protocol(format!(
                        "expected Downs to an Up, got {other:?}"
                    )))
                }
            }
        }
        let nanos = dds_obs::nanos_since(start);
        self.settle_nanos.observe(nanos);
        self.registry
            .events()
            .record_slow("slow_settle", nanos, || {
                format!("site {} settle round took {nanos} ns", self.id.0)
            });
        Ok(())
    }

    /// Local accounting snapshot.
    #[must_use]
    pub fn stats(&self) -> SiteDaemonStats {
        SiteDaemonStats {
            site: self.id,
            now: self.now,
            observations: self.tally.observations,
            memory_tuples: self.machine.memory_tuples(),
            up_msgs: self.tally.up_msgs,
            down_msgs: self.tally.down_msgs,
            up_bytes: self.tally.up_bytes,
            down_bytes: self.tally.down_bytes,
        }
    }

    /// Local telemetry snapshot — the registry (settle-latency
    /// histogram, events) plus the per-site tallies and protocol-state
    /// gauges.
    #[must_use]
    pub fn telemetry(&self) -> TelemetrySnapshot {
        let mut snap = self.registry.snapshot();
        let site = self.id.0.to_string();
        let labels = [("site", site.as_str())];
        let t = &self.tally;
        for (name, value) in [
            ("site_down_bytes_total", t.down_bytes),
            ("site_down_msgs_total", t.down_msgs),
            ("site_observations_total", t.observations),
            ("site_up_bytes_total", t.up_bytes),
            ("site_up_msgs_total", t.up_msgs),
        ] {
            snap.push_counter(name, &labels, value);
        }
        snap.push_gauge("site_now_slot", &labels, self.now.0);
        snap.push_gauge(
            "site_memory_tuples",
            &labels,
            self.machine.memory_tuples() as u64,
        );
        snap
    }

    /// The daemon's metric registry.
    #[must_use]
    pub fn registry(&self) -> &Arc<Registry> {
        &self.registry
    }

    /// Leave the cluster gracefully; the coordinator marks this site
    /// departed rather than failed.
    ///
    /// # Errors
    /// Transport errors, or a protocol error if the coordinator does
    /// not answer with `Goodbye`.
    pub fn leave(mut self) -> Result<(), ClusterError> {
        match self.coord.call(&ClusterRequest::Leave)? {
            ClusterResponse::Goodbye => Ok(()),
            other => Err(ClusterError::Protocol(format!(
                "expected Goodbye to a Leave, got {other:?}"
            ))),
        }
    }

    /// Serve one driver connection from `listener`: the standalone node
    /// binary's main loop. A batch that succeeds gets no reply; every
    /// other request, and a batch that fails, gets one. Returns after
    /// `SiteShutdown` (graceful leave first), `SiteCrash` (sockets
    /// dropped with **no** leave — fault injection), a failed request,
    /// or driver EOF.
    ///
    /// # Errors
    /// Transport errors on the driver socket; coordinator-side errors
    /// are reported to the driver, then end the loop.
    pub fn serve(mut self, listener: &Listener) -> Result<(), ClusterError> {
        let stream = listener
            .accept()
            .map_err(|e| ClusterError::Transport(e.to_string()))?;
        let mut driver = Framed::new(stream)?;
        loop {
            let request = match driver.recv_request()? {
                Some(request) => request,
                None => return Ok(()),
            };
            let outcome = match request {
                ClusterRequest::SiteBatch {
                    elements,
                    then_slot,
                    through,
                } => match self.run_batch(&elements, then_slot, through) {
                    // One-way: the coordinator's answer to the barrier
                    // is the driver's proof that this batch ran.
                    Ok(()) => continue,
                    Err(e) => Err(e),
                },
                ClusterRequest::SiteStats => Ok(ClusterResponse::SiteStats {
                    stats: self.stats(),
                }),
                ClusterRequest::SiteTelemetry => Ok(ClusterResponse::Telemetry {
                    snapshot: self.telemetry(),
                }),
                ClusterRequest::SiteShutdown => {
                    let left = self.leave();
                    let _ = driver.send_outcome(&left.map(|()| ClusterResponse::Goodbye));
                    return Ok(());
                }
                ClusterRequest::SiteCrash => {
                    // Simulated failure: drop every socket on the floor
                    // without a Leave. No reply — a crashing process
                    // does not say goodbye.
                    return Ok(());
                }
                _ => Err(ClusterError::Protocol("not a site-driver request".into())),
            };
            let broken = outcome.is_err();
            driver.send_outcome(&outcome)?;
            if broken {
                return outcome.map(|_| ());
            }
        }
    }
}
