//! The driver's view of a running cluster.
//!
//! [`ClusterHandle`] owns one control connection to the coordinator and
//! one driver connection per site daemon. It deliberately does **not**
//! implement `DistinctSampler` — every method is fallible, because in a
//! real deployment any peer can be gone — but it exposes the same
//! moves: observe at a site, advance the window clock, query the
//! sample, read the accounting.
//!
//! ## Barriers
//!
//! [`observe`](ClusterHandle::observe) only appends the element to its
//! site's buffer and gives it the next global sequence number, the
//! position `dds_sim::Cluster::observe` would give it. Every other call
//! ends a *barrier*, and so does a site buffer reaching
//! [`SITE_BUFFER_CAP`] elements. Shipping a barrier with work to do
//! sends the coordinator one `Sync` naming the barrier's last sequence
//! number, then every site, all at once, one `SiteBatch` with its
//! buffered elements and (for
//! [`advance_slot`](ClusterHandle::advance_slot)) the slot to start.
//! The sites run their batches in parallel and answer nothing; the
//! coordinator applies their ups in sequence order and answers the
//! `Sync` once everything through it is applied, which proves every
//! live site ran its batch. A barrier with nothing buffered ships
//! nothing.
//!
//! Calls differ in what they wait for:
//!
//! * **Shipping calls** — [`advance_slot`](ClusterHandle::advance_slot),
//!   and an [`observe`](ClusterHandle::observe) that fills a buffer —
//!   ship their barrier and return once the *previous* barrier is
//!   answered. At most one barrier is unanswered when they return, so
//!   the sites run one batch while the driver gathers the next.
//! * **Coordinator reads** — [`sample`](ClusterHandle::sample),
//!   [`stats`](ClusterHandle::stats) and
//!   [`telemetry`](ClusterHandle::telemetry) — ship what is buffered,
//!   write their own request right behind it on the control
//!   connection, then read the owed `Sync` answers and their own reply
//!   in order. The coordinator answers nothing behind a `Sync` that
//!   waits, so the read sees exactly what the in-process twin shows at
//!   the same point of the stream, at the cost of one round trip.
//! * **Everything else** — [`site_stats`](ClusterHandle::site_stats),
//!   [`site_telemetry`](ClusterHandle::site_telemetry),
//!   [`crash_site`](ClusterHandle::crash_site) and
//!   [`shutdown`](ClusterHandle::shutdown) — ships and waits for every
//!   barrier to be answered first.
//!
//! A slot boundary takes `k + 1` sequence numbers in
//! `dds_sim::Cluster::advance_slot`'s order: the **coordinator** starts
//! the new slot first, then each site in site order (settling as it
//! goes). Numbering it differently would not deadlock anything — it
//! would silently produce a different, non-twin protocol trace, which
//! the twin-exactness tests would catch.
//!
//! ## Errors
//!
//! Because `observe` only buffers and a shipping call does not wait for
//! its own barrier, an error on the way to a site — a dead site, a
//! transport failure, a protocol violation — surfaces at the next call
//! that waits for the barrier that met it. A site that refuses its
//! batch makes the shipping call wait for every barrier, so the
//! coordinator's typed verdict takes precedence over the transport
//! error on the site's driver socket, and a killed site shows up as
//! [`ClusterError::SiteDown`].
//!
//! A `SiteDown` verdict is permanent: a failed seat never rejoins. The
//! handle remembers the first one it reads, and every later shipping
//! call and [`sample`](ClusterHandle::sample) still ships its barrier,
//! then returns that verdict. The other reads keep answering.
//!
//! ## Drop
//!
//! Dropping the handle loses the elements still buffered, and no one
//! waits for the barrier in flight: the sites still run it before they
//! see the driver go, but whether the coordinator applied it is never
//! reported. [`shutdown`](ClusterHandle::shutdown) ships and waits for
//! both.

use std::net::SocketAddr;
#[cfg(unix)]
use std::path::Path;

use dds_proto::cluster::{
    ClusterError, ClusterRequest, ClusterResponse, ClusterSpec, ClusterStats, SiteDaemonStats,
};
use dds_server::net::Endpoint;
use dds_sim::{Element, SiteId, Slot};

use crate::conn::Framed;

/// Fetch a running coordinator's telemetry over a one-shot control
/// connection — what `dds-cluster-node telemetry` uses, so an operator
/// can scrape a live deployment without holding site channels.
///
/// # Errors
/// Transport errors, [`ClusterError::ConfigMismatch`] on a spec digest
/// mismatch, or protocol errors if the peer answers off-script.
pub fn fetch_telemetry(
    coordinator: &Endpoint,
    spec: &ClusterSpec,
) -> Result<dds_obs::TelemetrySnapshot, ClusterError> {
    let stream = coordinator
        .connect()
        .map_err(|e| ClusterError::Transport(e.to_string()))?;
    let mut control = Framed::new(stream)?;
    match control.call(&ClusterRequest::Control {
        digest: spec.digest(),
    })? {
        ClusterResponse::Welcome { .. } => {}
        other => {
            return Err(ClusterError::Protocol(format!(
                "expected Welcome to Control, got {other:?}"
            )))
        }
    }
    match control.call(&ClusterRequest::Telemetry)? {
        ClusterResponse::Telemetry { snapshot } => Ok(snapshot),
        other => Err(ClusterError::Protocol(format!(
            "expected Telemetry reply, got {other:?}"
        ))),
    }
}

/// Elements a site's buffer holds before [`ClusterHandle::observe`]
/// ships every buffer in one barrier.
pub const SITE_BUFFER_CAP: usize = 1024;

/// A typed driver for one coordinator and its `k` site daemons.
pub struct ClusterHandle {
    control: Framed,
    sites: Vec<Framed>,
    k: usize,
    now: Slot,
    next_rr: usize,
    /// The global sequence number the next event gets.
    next_seq: u64,
    /// Per site: `(sequence number, element)` not yet shipped.
    buffers: Vec<Vec<(u64, Element)>>,
    /// Shipped barriers whose `Sync` answer is still owed, oldest
    /// first on the control connection.
    unanswered: usize,
    /// The first `SiteDown` verdict read from the coordinator.
    site_down: Option<SiteId>,
}

impl ClusterHandle {
    /// Connect the control channel to `coordinator` and a driver
    /// channel to each of the `site` endpoints (one per site, in site
    /// order).
    ///
    /// # Errors
    /// Transport errors, or [`ClusterError::ConfigMismatch`] when the
    /// coordinator was built from a different [`ClusterSpec`].
    pub fn connect(
        coordinator: &Endpoint,
        site_endpoints: &[Endpoint],
        spec: &ClusterSpec,
    ) -> Result<ClusterHandle, ClusterError> {
        if site_endpoints.len() != spec.k {
            return Err(ClusterError::Protocol(format!(
                "{} site endpoints for a k={} cluster",
                site_endpoints.len(),
                spec.k
            )));
        }
        let stream = coordinator
            .connect()
            .map_err(|e| ClusterError::Transport(e.to_string()))?;
        let mut control = Framed::new(stream)?;
        match control.call(&ClusterRequest::Control {
            digest: spec.digest(),
        })? {
            ClusterResponse::Welcome { k } if k == spec.k => {}
            ClusterResponse::Welcome { k } => {
                return Err(ClusterError::Protocol(format!(
                    "coordinator runs k={k} but this driver expected k={}",
                    spec.k
                )))
            }
            other => {
                return Err(ClusterError::Protocol(format!(
                    "expected Welcome to Control, got {other:?}"
                )))
            }
        }
        let mut sites = Vec::with_capacity(spec.k);
        for endpoint in site_endpoints {
            let stream = endpoint
                .connect()
                .map_err(|e| ClusterError::Transport(e.to_string()))?;
            sites.push(Framed::new(stream)?);
        }
        Ok(ClusterHandle {
            control,
            sites,
            k: spec.k,
            now: Slot(0),
            next_rr: 0,
            next_seq: 0,
            buffers: vec![Vec::new(); spec.k],
            unanswered: 0,
            site_down: None,
        })
    }

    /// [`connect`](ClusterHandle::connect) with TCP addresses.
    ///
    /// # Errors
    /// As [`connect`](ClusterHandle::connect).
    pub fn connect_tcp(
        coordinator: SocketAddr,
        sites: &[SocketAddr],
        spec: &ClusterSpec,
    ) -> Result<ClusterHandle, ClusterError> {
        let site_endpoints: Vec<Endpoint> = sites.iter().map(|&a| Endpoint::Tcp(a)).collect();
        Self::connect(&Endpoint::Tcp(coordinator), &site_endpoints, spec)
    }

    /// [`connect`](ClusterHandle::connect) with Unix-socket paths.
    ///
    /// # Errors
    /// As [`connect`](ClusterHandle::connect).
    #[cfg(unix)]
    pub fn connect_unix(
        coordinator: impl AsRef<Path>,
        sites: &[impl AsRef<Path>],
        spec: &ClusterSpec,
    ) -> Result<ClusterHandle, ClusterError> {
        let site_endpoints: Vec<Endpoint> = sites
            .iter()
            .map(|p| Endpoint::Unix(p.as_ref().to_path_buf()))
            .collect();
        Self::connect(
            &Endpoint::Unix(coordinator.as_ref().to_path_buf()),
            &site_endpoints,
            spec,
        )
    }

    /// Number of sites.
    #[must_use]
    pub fn k(&self) -> usize {
        self.k
    }

    /// The driver's slot clock (every node has reached it once its
    /// barrier is answered).
    #[must_use]
    pub fn now(&self) -> Slot {
        self.now
    }

    /// Observe `e` at site `site`: buffered until the next barrier.
    /// Elements still buffered when the handle is dropped are lost;
    /// [`shutdown`](ClusterHandle::shutdown) ships them first.
    ///
    /// # Errors
    /// [`ClusterError::UnknownSite`] for a site outside `0..k`; when
    /// the buffer reaches [`SITE_BUFFER_CAP`], as
    /// [`advance_slot`](ClusterHandle::advance_slot).
    pub fn observe(&mut self, site: SiteId, e: Element) -> Result<(), ClusterError> {
        let buffer = self
            .buffers
            .get_mut(site.0)
            .ok_or(ClusterError::UnknownSite(site))?;
        buffer.push((self.next_seq, e));
        self.next_seq += 1;
        if buffer.len() >= SITE_BUFFER_CAP {
            self.ship_barrier(None)?;
        }
        Ok(())
    }

    /// Observe `e` at the next site round-robin — the standard way to
    /// spread a logical stream across the deployment.
    ///
    /// # Errors
    /// As [`observe`](ClusterHandle::observe).
    pub fn observe_routed(&mut self, e: Element) -> Result<SiteId, ClusterError> {
        let site = SiteId(self.next_rr);
        self.next_rr = (self.next_rr + 1) % self.k;
        self.observe(site, e)?;
        Ok(site)
    }

    /// Advance the whole deployment one slot: ship a barrier whose last
    /// `k + 1` sequence numbers start the slot, coordinator first,
    /// then each site in site order — `dds_sim::Cluster::advance_slot`'s
    /// exact order. Returns once the previous barrier is answered; this
    /// one is answered at the next call that waits.
    ///
    /// # Errors
    /// [`ClusterError::SiteDown`] once the coordinator has reported a
    /// failed site; the previous barrier's transport/protocol errors
    /// otherwise.
    pub fn advance_slot(&mut self) -> Result<Slot, ClusterError> {
        let next = self.now.next();
        self.ship_barrier(Some(next))?;
        Ok(next)
    }

    /// Advance slot by slot until the clock reads `slot`.
    ///
    /// # Errors
    /// As [`advance_slot`](ClusterHandle::advance_slot).
    pub fn advance_to(&mut self, slot: Slot) -> Result<(), ClusterError> {
        while self.now < slot {
            self.advance_slot()?;
        }
        Ok(())
    }

    /// A shipping call: ship the barrier, wait until at most this one
    /// is unanswered, then report a remembered `SiteDown`.
    fn ship_barrier(&mut self, advance: Option<Slot>) -> Result<(), ClusterError> {
        self.ship(advance)?;
        self.await_answers(1)?;
        self.site_down
            .map_or(Ok(()), |site| Err(ClusterError::SiteDown(site)))
    }

    /// Send every buffer (and, with `advance`, start that slot): the
    /// `Sync`, then one batch per site. Sends nothing when there is
    /// nothing to do. A site that refuses its batch is going down, so
    /// the call then waits for every answer, and the coordinator's
    /// verdict wins over the site's transport error.
    fn ship(&mut self, advance: Option<Slot>) -> Result<(), ClusterError> {
        if advance.is_none() && self.buffers.iter().all(Vec::is_empty) {
            return Ok(());
        }
        let advance = advance.map(|slot| {
            let seq = self.next_seq;
            self.next_seq += 1 + self.k as u64;
            (seq, slot)
        });
        let through = self.next_seq - 1;
        if let Some((_, slot)) = advance {
            // Live nodes start the slot even if the barrier then reports
            // a failed site.
            self.now = slot;
        }
        self.control
            .send_request(&ClusterRequest::Sync { through, advance })?;
        self.unanswered += 1;
        let mut site_error = None;
        for (i, (conn, buffer)) in self.sites.iter_mut().zip(&mut self.buffers).enumerate() {
            let batch = ClusterRequest::SiteBatch {
                elements: std::mem::take(buffer),
                then_slot: advance.map(|(seq, slot)| (seq + 1 + i as u64, slot)),
                through,
            };
            if let Err(e) = conn.send_request(&batch) {
                site_error.get_or_insert(e);
            }
        }
        match site_error {
            None => Ok(()),
            Some(e) => Err(self.await_answers(0).err().unwrap_or(e)),
        }
    }

    /// Read owed `Sync` answers, oldest first, until at most `keep`
    /// are unanswered. Returns the first error read, after reading the
    /// rest.
    fn await_answers(&mut self, keep: usize) -> Result<(), ClusterError> {
        let mut first_error = None;
        while self.unanswered > keep {
            self.unanswered -= 1;
            if let Err(e) = self.expect_ack() {
                first_error.get_or_insert(e);
            }
        }
        first_error.map_or(Ok(()), Err)
    }

    /// Read one outcome frame on the control connection, remembering a
    /// `SiteDown` verdict.
    fn recv_control(&mut self) -> Result<ClusterResponse, ClusterError> {
        let outcome = self.control.recv_outcome();
        if let Err(ClusterError::SiteDown(site)) = outcome {
            self.site_down.get_or_insert(site);
        }
        outcome
    }

    fn expect_ack(&mut self) -> Result<(), ClusterError> {
        match self.recv_control()? {
            ClusterResponse::Ack => Ok(()),
            other => Err(ClusterError::Protocol(format!(
                "expected Ack to Sync, got {other:?}"
            ))),
        }
    }

    /// Ship what is buffered and wait for every barrier to be
    /// answered.
    fn sync_all(&mut self) -> Result<(), ClusterError> {
        self.ship(None)?;
        self.await_answers(0)
    }

    /// A coordinator read: ship what is buffered, write `request`
    /// behind it, then read the owed answers and the reply, in order.
    /// Returns the reply, or the first error read; with `tolerate`, a
    /// barrier's `SiteDown` is not an error.
    fn read(
        &mut self,
        request: &ClusterRequest,
        tolerate: bool,
    ) -> Result<ClusterResponse, ClusterError> {
        let screen = |outcome| {
            if tolerate {
                tolerate_site_down(outcome)
            } else {
                outcome
            }
        };
        screen(self.ship(None))?;
        self.control.send_request(request)?;
        let barriers = screen(self.await_answers(0));
        let reply = self.recv_control();
        barriers.and(reply)
    }

    /// The coordinator's current sample, after a barrier.
    ///
    /// # Errors
    /// [`ClusterError::SiteDown`] once any site has failed; transport
    /// errors, or an error from a barrier shipped before, otherwise.
    pub fn sample(&mut self) -> Result<Vec<Element>, ClusterError> {
        let reply = self.read(&ClusterRequest::Sample, false)?;
        if let Some(site) = self.site_down {
            return Err(ClusterError::SiteDown(site));
        }
        match reply {
            ClusterResponse::Sample { sample } => Ok(sample),
            other => Err(ClusterError::Protocol(format!(
                "expected Sample reply, got {other:?}"
            ))),
        }
    }

    /// The coordinator's stats after a barrier: message counters,
    /// memory, membership, failures. Keeps answering after a site
    /// failure.
    ///
    /// # Errors
    /// Transport or protocol errors.
    pub fn stats(&mut self) -> Result<ClusterStats, ClusterError> {
        match self.read(&ClusterRequest::Stats, true)? {
            ClusterResponse::Stats { stats } => Ok(stats),
            other => Err(ClusterError::Protocol(format!(
                "expected Stats reply, got {other:?}"
            ))),
        }
    }

    /// The coordinator's telemetry snapshot after a barrier: lifecycle
    /// counters, per-site protocol message/byte totals, protocol-state
    /// gauges, and recent structured events.
    ///
    /// # Errors
    /// Transport or protocol errors.
    pub fn telemetry(&mut self) -> Result<dds_obs::TelemetrySnapshot, ClusterError> {
        match self.read(&ClusterRequest::Telemetry, true)? {
            ClusterResponse::Telemetry { snapshot } => Ok(snapshot),
            other => Err(ClusterError::Protocol(format!(
                "expected Telemetry reply, got {other:?}"
            ))),
        }
    }

    /// One site daemon's telemetry snapshot over its driver channel,
    /// after a barrier.
    ///
    /// # Errors
    /// Transport or protocol errors.
    pub fn site_telemetry(
        &mut self,
        site: SiteId,
    ) -> Result<dds_obs::TelemetrySnapshot, ClusterError> {
        match self.site_call(site, &ClusterRequest::SiteTelemetry)? {
            ClusterResponse::Telemetry { snapshot } => Ok(snapshot),
            other => Err(ClusterError::Protocol(format!(
                "expected Telemetry reply, got {other:?}"
            ))),
        }
    }

    /// One site daemon's local accounting, after a barrier.
    ///
    /// # Errors
    /// Transport or protocol errors.
    pub fn site_stats(&mut self, site: SiteId) -> Result<SiteDaemonStats, ClusterError> {
        match self.site_call(site, &ClusterRequest::SiteStats)? {
            ClusterResponse::SiteStats { stats } => Ok(stats),
            other => Err(ClusterError::Protocol(format!(
                "expected SiteStats reply, got {other:?}"
            ))),
        }
    }

    fn site_call(
        &mut self,
        site: SiteId,
        request: &ClusterRequest,
    ) -> Result<ClusterResponse, ClusterError> {
        if site.0 >= self.k {
            return Err(ClusterError::UnknownSite(site));
        }
        tolerate_site_down(self.sync_all())?;
        self.sites[site.0].call(request)
    }

    /// After every barrier is answered, tell site `site` to crash:
    /// drop its sockets without a `Leave`. No reply is awaited (a
    /// crashing process sends none). The coordinator will mark the site
    /// failed as soon as it sees the dead uplink.
    ///
    /// # Errors
    /// A barrier's error, or transport errors sending the crash order.
    pub fn crash_site(&mut self, site: SiteId) -> Result<(), ClusterError> {
        if site.0 >= self.k {
            return Err(ClusterError::UnknownSite(site));
        }
        self.sync_all()?;
        self.sites[site.0].send_request(&ClusterRequest::SiteCrash)
    }

    /// Gracefully tear the deployment down once a last barrier and
    /// every one before it are answered: each site leaves (in site
    /// order), then the coordinator is told to stop.
    ///
    /// # Errors
    /// The first transport/protocol error hit; later peers are still
    /// attempted.
    pub fn shutdown(mut self) -> Result<(), ClusterError> {
        let mut first_err = self.sync_all().err();
        for conn in &mut self.sites {
            let outcome = conn
                .call(&ClusterRequest::SiteShutdown)
                .and_then(|reply| match reply {
                    ClusterResponse::Goodbye => Ok(()),
                    other => Err(ClusterError::Protocol(format!(
                        "expected Goodbye to SiteShutdown, got {other:?}"
                    ))),
                });
            if let Err(e) = outcome {
                first_err.get_or_insert(e);
            }
        }
        let outcome = self
            .control
            .call(&ClusterRequest::Shutdown)
            .and_then(|reply| match reply {
                ClusterResponse::Goodbye => Ok(()),
                other => Err(ClusterError::Protocol(format!(
                    "expected Goodbye to Shutdown, got {other:?}"
                ))),
            });
        if let Err(e) = outcome {
            first_err.get_or_insert(e);
        }
        match first_err {
            None => Ok(()),
            Some(e) => Err(e),
        }
    }
}

fn tolerate_site_down(outcome: Result<(), ClusterError>) -> Result<(), ClusterError> {
    match outcome {
        Err(ClusterError::SiteDown(_)) => Ok(()),
        other => other,
    }
}
