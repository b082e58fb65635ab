//! The wire server: an [`EngineService`] behind a listening socket.
//!
//! One readiness-driven event loop owns the listener and every
//! connection; a small worker pool runs the requests that can block
//! (the `evented` module holds both). Each connection is a framed
//! stream: decode one request frame, dispatch it into the service,
//! answer with one outcome frame, in order. Because responses go out
//! strictly in request order, a client may *pipeline*: send any number
//! of requests before reading, and pair responses back up by position
//! (exactly what [`crate::Client`] does for ingest acks).
//!
//! A malformed frame (bad magic, bad checksum, oversized length) is
//! answered with a typed error frame and the connection is closed —
//! after a framing error the byte stream can no longer be trusted. A
//! malformed *payload* in a well-formed frame only fails that request;
//! the stream stays aligned and the connection stays up. So does a
//! request that panics inside the service: it is answered with a typed
//! error and counted on `server_request_panics_total`.
//!
//! Graceful shutdown ([`Server::shutdown`]): stop the loop, close every
//! open connection, and join the loop and its workers. The hosted
//! service is left untouched — its owner decides whether the engine
//! dies with the transport.
//!
//! The socket mechanics (TCP/Unix listeners, connection handles) live
//! in [`crate::net`], shared with the cluster nodes in `dds-cluster`.

use std::net::SocketAddr;
use std::panic::{catch_unwind, AssertUnwindSafe};
#[cfg(unix)]
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use dds_engine::{EngineError, TenantId};
use dds_obs::{Counter, Histogram, Registry, TelemetrySnapshot};
use dds_proto::message::{decode_batch_request, encode_outcome_checked, Request, Response};
use dds_proto::{opcode, EngineService};
use dds_sim::Element;

use crate::net::{Endpoint, Listener};

/// Byte and frame counters, shared across all connections. The server
/// and the client count the same frames, so `client.bytes_sent ==
/// server.bytes_received` on a quiet loopback — the equality the wire
/// tests pin.
#[derive(Debug, Default)]
pub(crate) struct Counters {
    pub(crate) connections: AtomicU64,
    pub(crate) requests: AtomicU64,
    pub(crate) bytes_received: AtomicU64,
    pub(crate) bytes_sent: AtomicU64,
}

/// Point-in-time copy of a server's traffic counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServerStats {
    /// Connections accepted since bind.
    pub connections: u64,
    /// Request frames decoded (malformed frames are not requests).
    pub requests: u64,
    /// Bytes read off the wire (frame overhead included).
    pub bytes_received: u64,
    /// Bytes written to the wire (frame overhead included).
    pub bytes_sent: u64,
}

/// Registered transport-telemetry handles (the registry keys stay
/// queryable; these are the hot-path clones).
pub(crate) struct Telemetry {
    pub(crate) accept_errors: Counter,
    pub(crate) connections_opened: Counter,
    pub(crate) connections_closed: Counter,
    pub(crate) connections_failed: Counter,
    pub(crate) request_panics: Counter,
    pub(crate) decode_nanos: Histogram,
    pub(crate) handle_nanos: Histogram,
    pub(crate) respond_nanos: Histogram,
}

impl Telemetry {
    fn register(registry: &Registry) -> Self {
        Self {
            accept_errors: registry.counter("server_accept_errors_total"),
            connections_opened: registry.counter("server_connections_opened_total"),
            connections_closed: registry.counter("server_connections_closed_total"),
            connections_failed: registry.counter("server_connections_failed_total"),
            request_panics: registry.counter("server_request_panics_total"),
            decode_nanos: registry.histogram("server_decode_nanos"),
            handle_nanos: registry.histogram("server_handle_nanos"),
            respond_nanos: registry.histogram("server_respond_nanos"),
        }
    }
}

pub(crate) struct Shared {
    pub(crate) service: Arc<dyn EngineService>,
    pub(crate) stop: AtomicBool,
    pub(crate) counters: Counters,
    pub(crate) registry: Arc<Registry>,
    pub(crate) obs: Telemetry,
}

impl Shared {
    pub(crate) fn new(service: Arc<dyn EngineService>) -> Shared {
        let registry = Arc::new(Registry::new());
        let obs = Telemetry::register(&registry);
        Shared {
            service,
            stop: AtomicBool::new(false),
            counters: Counters::default(),
            registry,
            obs,
        }
    }
}

/// How a [`Server`] schedules its connections.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServerConfig {
    /// One readiness-driven event loop (`dds-reactor`) owning every
    /// connection plus a small shared worker pool executing requests:
    /// an idle client costs one fd and a few hundred bytes of state, so
    /// thousands of mostly-idle connections fit on one listener.
    Evented {
        /// Worker threads executing requests (`0` = one per available
        /// core, capped at 4).
        workers: usize,
    },
}

/// A running wire server: an [`EngineService`] reachable over TCP or a
/// Unix socket.
pub struct Server {
    shared: Arc<Shared>,
    handle: crate::evented::Handle,
    endpoint: Endpoint,
}

impl Server {
    /// Bind a TCP listener (use port `0` for an ephemeral port; read it
    /// back with [`Server::local_addr`]) and start serving with one
    /// worker per core, up to 4.
    ///
    /// # Errors
    /// Propagates bind failures.
    pub fn bind_tcp(addr: &str, service: Arc<dyn EngineService>) -> std::io::Result<Server> {
        Self::bind_tcp_with(addr, service, ServerConfig::Evented { workers: 0 })
    }

    /// Bind a TCP listener under an explicit [`ServerConfig`].
    ///
    /// # Errors
    /// Propagates bind failures.
    pub fn bind_tcp_with(
        addr: &str,
        service: Arc<dyn EngineService>,
        config: ServerConfig,
    ) -> std::io::Result<Server> {
        Self::serve(Listener::bind_tcp(addr)?, service, config)
    }

    /// Bind a Unix-domain socket at `path` (removed and re-created) and
    /// start serving with one worker per core, up to 4.
    ///
    /// # Errors
    /// Propagates bind failures.
    #[cfg(unix)]
    pub fn bind_unix(
        path: impl AsRef<Path>,
        service: Arc<dyn EngineService>,
    ) -> std::io::Result<Server> {
        Self::bind_unix_with(path, service, ServerConfig::Evented { workers: 0 })
    }

    /// Bind a Unix-domain socket under an explicit [`ServerConfig`].
    ///
    /// # Errors
    /// Propagates bind failures.
    #[cfg(unix)]
    pub fn bind_unix_with(
        path: impl AsRef<Path>,
        service: Arc<dyn EngineService>,
        config: ServerConfig,
    ) -> std::io::Result<Server> {
        Self::serve(Listener::bind_unix(path)?, service, config)
    }

    fn serve(
        listener: Listener,
        service: Arc<dyn EngineService>,
        config: ServerConfig,
    ) -> std::io::Result<Server> {
        let ServerConfig::Evented { workers } = config;
        let endpoint = listener.endpoint();
        let shared = Arc::new(Shared::new(service));
        let handle = crate::evented::spawn(listener, Arc::clone(&shared), workers)?;
        Ok(Server {
            shared,
            handle,
            endpoint,
        })
    }

    /// The bound TCP address (`None` for Unix-socket servers) — how a
    /// test that bound port `0` learns where to connect.
    #[must_use]
    pub fn local_addr(&self) -> Option<SocketAddr> {
        match self.endpoint {
            Endpoint::Tcp(addr) => Some(addr),
            #[cfg(unix)]
            Endpoint::Unix(_) => None,
        }
    }

    /// The server's own metric registry: accept/connection lifecycle
    /// counters, per-opcode frame tallies, and decode/handle/respond
    /// latency histograms.
    #[must_use]
    pub fn registry(&self) -> &Arc<Registry> {
        &self.shared.registry
    }

    /// A point-in-time snapshot of the server's transport telemetry
    /// (the same readings a remote `Request::Telemetry` gets merged
    /// into its reply).
    #[must_use]
    pub fn telemetry(&self) -> TelemetrySnapshot {
        self.shared.registry.snapshot()
    }

    /// Current traffic counters.
    #[must_use]
    pub fn stats(&self) -> ServerStats {
        let c = &self.shared.counters;
        ServerStats {
            connections: c.connections.load(Ordering::Relaxed),
            requests: c.requests.load(Ordering::Relaxed),
            bytes_received: c.bytes_received.load(Ordering::Relaxed),
            bytes_sent: c.bytes_sent.load(Ordering::Relaxed),
        }
    }

    /// Stop accepting, close every open connection, and join all
    /// threads. Final counters are returned; the hosted service is not
    /// shut down (send [`Request::Shutdown`] first for that).
    pub fn shutdown(mut self) -> ServerStats {
        self.stop_in_place();
        self.stats()
    }

    fn stop_in_place(&mut self) {
        if self.shared.stop.swap(true, Ordering::SeqCst) {
            return;
        }
        self.handle.stop();
        self.endpoint.cleanup();
    }
}

impl Drop for Server {
    /// Dropping a server stops it (tests that panic mid-suite must not
    /// leak event loops).
    fn drop(&mut self) {
        self.stop_in_place();
    }
}

/// Lazily registered per-opcode `(frames, bytes)` counters, cached per
/// event loop so the hot path is one `Vec` index after the first frame
/// of each opcode (the registry lock is only taken on a cache miss).
pub(crate) struct OpcodeCounters {
    cells: Vec<Option<(Counter, Counter)>>,
}

impl OpcodeCounters {
    pub(crate) fn new() -> Self {
        Self {
            cells: (0..=u8::MAX as usize).map(|_| None).collect(),
        }
    }

    pub(crate) fn record(&mut self, registry: &Registry, op: u8, bytes: u64) {
        let Some(name) = opcode::name(op) else {
            return; // unknown opcode: the decode error is the signal
        };
        let (frames, bts) = self.cells[op as usize].get_or_insert_with(|| {
            let labels = [("opcode", name)];
            (
                registry.counter_with("server_frames_total", &labels),
                registry.counter_with("server_frame_bytes_total", &labels),
            )
        });
        frames.inc();
        bts.add(bytes);
    }
}

/// Execute one well-formed frame and encode its outcome frame — the
/// one path every request takes, on the loop thread or a pool worker.
///
/// A request that panics inside the service is answered, not lost:
/// the panic is caught, counted on `server_request_panics_total`, and
/// answered with [`EngineError::Unsupported`] naming the request. That
/// variant says the service could not perform a well-formed request;
/// a retry would panic again, so the transport error (bytes lost on
/// the way) would be the wrong answer.
pub(crate) fn respond(
    shared: &Shared,
    op: u8,
    payload: &[u8],
    batch_scratch: &mut Vec<(TenantId, Element)>,
) -> Vec<u8> {
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        execute_frame(shared, op, payload, batch_scratch)
    }))
    .unwrap_or_else(|panic| {
        shared.obs.request_panics.inc();
        let what = panic
            .downcast_ref::<&str>()
            .copied()
            .or_else(|| panic.downcast_ref::<String>().map(String::as_str))
            .unwrap_or("no message");
        let name = opcode::name(op).unwrap_or("unknown");
        Err(EngineError::Unsupported(format!(
            "{name} request panicked in the service: {what}"
        )))
    });
    encode_outcome_checked(&outcome)
}

/// Execute one well-formed frame: decode its payload, dispatch into
/// the service, and merge the server's registry into telemetry
/// replies.
///
/// A bad *payload* inside a good frame fails only this request; the
/// stream stays aligned, so the connection stays up.
fn execute_frame(
    shared: &Shared,
    op: u8,
    payload: &[u8],
    batch_scratch: &mut Vec<(TenantId, Element)>,
) -> Result<Response, EngineError> {
    let outcome = if op == opcode::OBSERVE_BATCH || op == opcode::OBSERVE_BATCH_AT {
        // Ingest fast path: decode straight into the caller's batch
        // buffer and hand it to the service's zero-copy seam — no
        // `Request` value, no per-frame batch allocation.
        let decode_start = dds_obs::maybe_now();
        let decoded = decode_batch_request(op, payload, batch_scratch);
        shared
            .obs
            .decode_nanos
            .observe(dds_obs::nanos_since(decode_start));
        match decoded {
            Ok(now) => dispatch_timed(shared, op, || {
                shared.service.observe_batch_slice(now, batch_scratch)
            }),
            Err(e) => Err(EngineError::Format(e.to_string())),
        }
    } else {
        let decode_start = dds_obs::maybe_now();
        let decoded = Request::decode(op, payload);
        shared
            .obs
            .decode_nanos
            .observe(dds_obs::nanos_since(decode_start));
        match decoded {
            Ok(request) => dispatch_timed(shared, op, || shared.service.call(request)),
            Err(e) => Err(EngineError::Format(e.to_string())),
        }
    };
    // A telemetry reply carries the whole stack's view: the served
    // engine's registry (already in the snapshot) plus this server's
    // transport metrics, merged into one payload.
    match outcome {
        Ok(Response::Telemetry { mut snapshot }) => {
            snapshot.merge(shared.registry.snapshot());
            Ok(Response::Telemetry { snapshot })
        }
        other => other,
    }
}

/// Run one dispatched request under the service-latency telemetry: the
/// handle histogram and the slow-request event log, shared by the
/// general route and the ingest fast path.
fn dispatch_timed(
    shared: &Shared,
    op: u8,
    dispatch: impl FnOnce() -> Result<Response, EngineError>,
) -> Result<Response, EngineError> {
    shared.counters.requests.fetch_add(1, Ordering::Relaxed);
    let handle_start = dds_obs::maybe_now();
    let outcome = dispatch();
    let nanos = dds_obs::nanos_since(handle_start);
    shared.obs.handle_nanos.observe(nanos);
    shared
        .registry
        .events()
        .record_slow("slow_request", nanos, || {
            let name = opcode::name(op).unwrap_or("unknown");
            format!("{name} request took {nanos} ns in the service")
        });
    outcome
}
