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
//! is a *barrier*, and so is a site buffer reaching
//! [`SITE_BUFFER_CAP`] elements. A barrier with work to do sends every
//! site, all at once, one `SiteObserveBatch` with its buffered elements
//! and (for [`advance_slot`](ClusterHandle::advance_slot)) the slot to
//! start, sends the coordinator one `Sync` naming the barrier's last
//! sequence number, then waits for every reply. The sites run their
//! batches in parallel; the coordinator applies their ups in sequence
//! order and answers the `Sync` once everything through it is applied,
//! so whatever the call then reads is what the in-process twin shows at
//! the same point of the stream. A barrier with nothing buffered sends
//! nothing, so a `sample` right after an `advance_slot` costs one
//! round trip to the coordinator.
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
//! Because `observe` only buffers, an error on the way to a site — a
//! dead site, a transport failure, a protocol violation — surfaces at
//! the next barrier, not at the `observe` whose element met it. At a
//! barrier the coordinator's typed verdict takes precedence over a
//! transport error on a site's driver socket, so a killed site shows up
//! as [`ClusterError::SiteDown`].

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

    /// The driver's slot clock (every node reaches it at the next
    /// barrier).
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
            self.barrier(None)?;
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

    /// Advance the whole deployment one slot: a barrier whose last
    /// `k + 1` sequence numbers start the slot, coordinator first,
    /// then each site in site order — `dds_sim::Cluster::advance_slot`'s
    /// exact order.
    ///
    /// # Errors
    /// [`ClusterError::SiteDown`] if the coordinator has detected a
    /// failed site; transport/protocol errors otherwise.
    pub fn advance_slot(&mut self) -> Result<Slot, ClusterError> {
        let next = self.now.next();
        self.barrier(Some(next))?;
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

    /// Ship every buffer (and, with `advance`, start that slot) and wait
    /// until the sites have run their batches and the coordinator has
    /// applied everything through the barrier. Sends nothing when there
    /// is nothing to do.
    fn barrier(&mut self, advance: Option<Slot>) -> Result<(), ClusterError> {
        if advance.is_none() && self.buffers.iter().all(Vec::is_empty) {
            return Ok(());
        }
        let advance = advance.map(|slot| {
            let seq = self.next_seq;
            self.next_seq += 1 + self.k as u64;
            (seq, slot)
        });
        let through = self.next_seq - 1;
        let verdict = self
            .control
            .send_request(&ClusterRequest::Sync { through, advance });
        if let Some((_, slot)) = advance {
            // Live nodes start the slot even if the barrier then reports
            // a failed site.
            self.now = slot;
        }
        let mut site_error = None;
        for (i, (conn, buffer)) in self.sites.iter_mut().zip(&mut self.buffers).enumerate() {
            let batch = ClusterRequest::SiteObserveBatch {
                elements: std::mem::take(buffer),
                then_slot: advance.map(|(seq, slot)| (seq + 1 + i as u64, slot)),
                through,
            };
            if let Err(e) = conn.send_request(&batch) {
                site_error.get_or_insert(e);
            }
        }
        // A socket that refused the batch is broken, so its read fails
        // at once instead of blocking.
        for conn in &mut self.sites {
            if let Err(e) = expect_ack(conn.recv_outcome(), "SiteObserveBatch") {
                site_error.get_or_insert(e);
            }
        }
        verdict.and_then(|()| expect_ack(self.control.recv_outcome(), "Sync"))?;
        site_error.map_or(Ok(()), Err)
    }

    /// A barrier for calls that keep answering after a site failure:
    /// the coordinator's `SiteDown` verdict is not their error.
    fn barrier_tolerating_failures(&mut self) -> Result<(), ClusterError> {
        match self.barrier(None) {
            Err(ClusterError::SiteDown(_)) => Ok(()),
            other => other,
        }
    }

    /// The coordinator's current sample, after a barrier.
    ///
    /// # Errors
    /// [`ClusterError::SiteDown`] once any site has failed; transport
    /// errors otherwise.
    pub fn sample(&mut self) -> Result<Vec<Element>, ClusterError> {
        self.barrier(None)?;
        match self.control.call(&ClusterRequest::Sample)? {
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
        self.barrier_tolerating_failures()?;
        match self.control.call(&ClusterRequest::Stats)? {
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
        self.barrier_tolerating_failures()?;
        match self.control.call(&ClusterRequest::Telemetry)? {
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
        self.barrier_tolerating_failures()?;
        self.sites[site.0].call(request)
    }

    /// After a barrier, tell site `site` to crash: drop its sockets
    /// without a `Leave`. No reply is awaited (a crashing process sends
    /// none). The coordinator will mark the site failed as soon as it
    /// sees the dead uplink.
    ///
    /// # Errors
    /// The barrier's error, or transport errors sending the crash
    /// order.
    pub fn crash_site(&mut self, site: SiteId) -> Result<(), ClusterError> {
        if site.0 >= self.k {
            return Err(ClusterError::UnknownSite(site));
        }
        self.barrier(None)?;
        self.sites[site.0].send_request(&ClusterRequest::SiteCrash)
    }

    /// Gracefully tear the deployment down after a last barrier: each
    /// site leaves (in site order), then the coordinator is told to
    /// stop.
    ///
    /// # Errors
    /// The first transport/protocol error hit; later peers are still
    /// attempted.
    pub fn shutdown(mut self) -> Result<(), ClusterError> {
        let mut first_err = self.barrier(None).err();
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

fn expect_ack(
    outcome: Result<ClusterResponse, ClusterError>,
    request: &str,
) -> Result<(), ClusterError> {
    match outcome? {
        ClusterResponse::Ack => Ok(()),
        other => Err(ClusterError::Protocol(format!(
            "expected Ack to {request}, got {other:?}"
        ))),
    }
}
