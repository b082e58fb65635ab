//! The accept loop: an [`EngineService`] behind a listening socket.
//!
//! One thread accepts; each connection gets its own handler thread
//! running a framed decode loop — read one request frame, dispatch into
//! the service, write one outcome frame, in order. Because responses
//! are written strictly in request order, a client may *pipeline*: send
//! any number of requests before reading, and pair responses back up by
//! position (exactly what [`crate::Client`] does for ingest acks).
//!
//! A malformed frame (bad magic, bad checksum, oversized length) is
//! answered with a typed error frame and the connection is closed —
//! after a framing error the byte stream can no longer be trusted. A
//! malformed *payload* in a well-formed frame only fails that request;
//! the stream stays aligned and the connection stays up.
//!
//! Graceful shutdown ([`Server::shutdown`]): stop accepting, shut down
//! every open connection's socket (which wakes its blocked read), and
//! join all handler threads. The hosted service is left untouched — its
//! owner decides whether the engine dies with the transport.
//!
//! The socket mechanics (TCP/Unix listeners, connection handles,
//! accept wake-up) live in [`crate::net`], shared with the cluster
//! nodes in `dds-cluster`.

use std::io::{BufReader, BufWriter, Write};
use std::net::SocketAddr;
#[cfg(unix)]
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

use dds_engine::{EngineError, TenantId};
use dds_obs::{Counter, Histogram, Registry, TelemetrySnapshot};
use dds_proto::frame::{read_frame_into, write_frame_to, FrameError, OVERHEAD_BYTES};
use dds_proto::message::{decode_batch_request, encode_outcome_checked, Request, Response};
use dds_proto::{opcode, EngineService};
use dds_sim::Element;

use crate::net::{Endpoint, Listener, Stream};

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
    conns: Mutex<Vec<(Stream, JoinHandle<()>)>>,
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
            conns: Mutex::new(Vec::new()),
        }
    }
}

/// How a [`Server`] schedules its connections.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ServerConfig {
    /// Thread per connection (the original architecture): every client
    /// gets a dedicated handler thread blocking on its socket. Simple,
    /// lowest latency per connection, but each idle client pins a
    /// thread and its stack — concurrency is capped in the hundreds.
    #[default]
    Threaded,
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

enum Mode {
    Threaded { accept: Option<JoinHandle<()>> },
    Evented { handle: crate::evented::Handle },
}

/// A running wire server: an [`EngineService`] reachable over TCP or a
/// Unix socket.
pub struct Server {
    shared: Arc<Shared>,
    mode: Mode,
    endpoint: Endpoint,
}

impl Server {
    /// Bind a TCP listener (use port `0` for an ephemeral port; read it
    /// back with [`Server::local_addr`]) and start serving
    /// thread-per-connection ([`ServerConfig::Threaded`]).
    ///
    /// # Errors
    /// Propagates bind failures.
    pub fn bind_tcp(addr: &str, service: Arc<dyn EngineService>) -> std::io::Result<Server> {
        Self::serve(Listener::bind_tcp(addr)?, service, ServerConfig::Threaded)
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
    /// start serving thread-per-connection ([`ServerConfig::Threaded`]).
    ///
    /// # Errors
    /// Propagates bind failures.
    #[cfg(unix)]
    pub fn bind_unix(
        path: impl AsRef<Path>,
        service: Arc<dyn EngineService>,
    ) -> std::io::Result<Server> {
        Self::serve(Listener::bind_unix(path)?, service, ServerConfig::Threaded)
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
        let endpoint = listener.endpoint();
        let shared = Arc::new(Shared::new(service));
        let mode = match config {
            ServerConfig::Threaded => {
                let accept_shared = Arc::clone(&shared);
                let accept = std::thread::spawn(move || loop {
                    let stream = match listener.accept() {
                        Ok(stream) => stream,
                        // Persistent accept errors (e.g. EMFILE) must not
                        // busy-spin a core; back off briefly and retry — but
                        // count every one, so a quietly failing listener shows
                        // up in telemetry instead of presenting as "no load".
                        Err(_) => {
                            if accept_shared.stop.load(Ordering::SeqCst) {
                                break;
                            }
                            accept_shared.obs.accept_errors.inc();
                            std::thread::sleep(std::time::Duration::from_millis(10));
                            continue;
                        }
                    };
                    if accept_shared.stop.load(Ordering::SeqCst) {
                        break;
                    }
                    spawn_conn(&accept_shared, stream);
                });
                Mode::Threaded {
                    accept: Some(accept),
                }
            }
            ServerConfig::Evented { workers } => Mode::Evented {
                handle: crate::evented::spawn(listener, Arc::clone(&shared), workers)?,
            },
        };
        Ok(Server {
            shared,
            mode,
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
        match &mut self.mode {
            Mode::Threaded { accept } => {
                // Wake the accept loop with a throwaway connection.
                let _ = self.endpoint.connect();
                if let Some(accept) = accept.take() {
                    let _ = accept.join();
                }
                // Unblock and join every connection handler.
                let conns = std::mem::take(&mut *self.shared.conns.lock().expect("conn registry"));
                for (socket, handle) in conns {
                    socket.shutdown();
                    let _ = handle.join();
                }
            }
            Mode::Evented { handle } => handle.stop(),
        }
        self.endpoint.cleanup();
    }
}

impl Drop for Server {
    /// Dropping a server stops it (tests that panic mid-suite must not
    /// leak accept loops).
    fn drop(&mut self) {
        self.stop_in_place();
    }
}

fn spawn_conn(shared: &Arc<Shared>, socket: Stream) {
    let Ok(keeper) = socket.try_clone() else {
        shared.obs.connections_failed.inc();
        return;
    };
    shared.counters.connections.fetch_add(1, Ordering::Relaxed);
    shared.obs.connections_opened.inc();
    let conn_shared = Arc::clone(shared);
    let handle = std::thread::spawn(move || serve_conn(&conn_shared, socket));
    let mut conns = shared.conns.lock().expect("conn registry");
    // Prune finished connections while we hold the lock: dropping an
    // entry closes the kept socket clone and detaches the (already
    // exited) handler, so a long-lived server with churning clients
    // does not leak FDs or JoinHandles.
    conns.retain(|(_, handle)| !handle.is_finished());
    conns.push((keeper, handle));
}

/// One connection's lifetime: framed decode → dispatch → framed reply,
/// strictly in order (the pipelining contract).
fn serve_conn(shared: &Arc<Shared>, socket: Stream) {
    let Ok(read_half) = socket.try_clone() else {
        shared.obs.connections_failed.inc();
        shared.obs.connections_closed.inc();
        return;
    };
    serve_streams(shared, read_half, socket);
    shared.obs.connections_closed.inc();
}

/// Lazily registered per-opcode `(frames, bytes)` counters, cached per
/// connection (threaded) or per event loop (evented) so the hot path is
/// one `Vec` index after the first frame of each opcode (the registry
/// lock is only taken on a cache miss).
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

fn serve_streams<R, W>(shared: &Arc<Shared>, read_half: R, write_half: W)
where
    R: std::io::Read,
    W: Write,
{
    let mut reader = BufReader::new(read_half);
    let mut writer = BufWriter::new(write_half);
    let mut per_opcode = OpcodeCounters::new();
    // Per-connection scratch: the frame payload and the decoded ingest
    // batch are read into these same two buffers every iteration, so a
    // steady-state ingest connection allocates nothing per frame.
    let mut payload: Vec<u8> = Vec::new();
    let mut batch_scratch: Vec<(TenantId, Element)> = Vec::new();
    loop {
        if shared.stop.load(Ordering::SeqCst) {
            return;
        }
        let op = match read_frame_into(&mut reader, &mut payload) {
            Ok(Some(op)) => op,
            // Clean EOF, or the socket was shut down under us.
            Ok(None) | Err(FrameError::Io(_)) => return,
            Err(FrameError::Format(e)) => {
                // The stream is desynchronized: answer once, then close
                // — and count the connection as failed, so a peer that
                // never spoke the protocol (a port scan, a mismatched
                // client) is visible in telemetry.
                shared.obs.connections_failed.inc();
                let outcome = Err(EngineError::Format(e.to_string()));
                let _ = write_outcome(shared, &mut writer, &outcome);
                return;
            }
        };
        let frame_bytes = (OVERHEAD_BYTES + payload.len()) as u64;
        shared
            .counters
            .bytes_received
            .fetch_add(frame_bytes, Ordering::Relaxed);
        per_opcode.record(&shared.registry, op, frame_bytes);

        let outcome = execute_frame(shared, op, &payload, &mut batch_scratch);
        let respond_start = dds_obs::maybe_now();
        let write_result = write_outcome(shared, &mut writer, &outcome);
        shared
            .obs
            .respond_nanos
            .observe(dds_obs::nanos_since(respond_start));
        if write_result.is_err() {
            return;
        }
    }
}

/// Execute one well-formed frame: decode its payload, dispatch into
/// the service, and merge the server's registry into telemetry
/// replies. This is the seam both server modes share — a threaded
/// connection handler and an evented worker produce identical outcomes
/// for identical frames, which is what the twin-exactness suites pin.
///
/// A bad *payload* inside a good frame fails only this request; the
/// stream stays aligned, so the connection stays up.
pub(crate) fn execute_frame(
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

fn write_outcome<W: Write>(
    shared: &Arc<Shared>,
    writer: &mut BufWriter<W>,
    outcome: &Result<dds_proto::Response, EngineError>,
) -> std::io::Result<()> {
    // The ingest hot path answers `Ack` for every batch: stream its
    // empty-payload frame straight into the buffered writer instead of
    // materializing a frame Vec per response.
    if matches!(outcome, Ok(Response::Ack)) {
        shared
            .counters
            .bytes_sent
            .fetch_add(OVERHEAD_BYTES as u64, Ordering::SeqCst);
        write_frame_to(&mut *writer, opcode::ACK, &[])?;
        writer.flush()?;
        return Ok(());
    }
    // Checked: an oversized response (a huge checkpoint document) turns
    // into a typed error frame instead of a panic in this thread.
    let frame = encode_outcome_checked(outcome);
    // Count before writing: a client that has read this response must
    // find it already reflected in the server's counters.
    shared
        .counters
        .bytes_sent
        .fetch_add(frame.len() as u64, Ordering::SeqCst);
    writer.write_all(&frame)?;
    writer.flush()?;
    Ok(())
}
