//! The wire server: an [`EngineService`] behind a listening socket.
//!
//! One readiness-driven [`EventLoop`] owns the listener and every
//! connection; this module is its engine [`Handler`], plus a small
//! worker pool for the requests that can block. Each connection is a
//! framed stream: decode one request frame, dispatch it into the
//! service, answer with one outcome frame, in order. Because responses
//! go out strictly in request order, a client may *pipeline*: send any
//! number of requests before reading, and pair responses back up by
//! position (exactly what [`crate::Client`] does for ingest acks).
//!
//! The non-blocking ingest family (observe/advance) executes inline on
//! the loop — a worker round trip costs more than the request — while
//! anything that can block or burn CPU (flush barriers, snapshots,
//! checkpoints) goes to the pool, and its connection is parked until
//! the answer comes back. One request per connection in the pool keeps
//! responses, and the connection's engine effects, in request order, so
//! a served engine stays byte-exact with an in-process twin fed the same
//! requests (the loopback suite pins it).
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
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::JoinHandle;

use dds_core::checkpoint::CheckpointError;
use dds_engine::{EngineError, TenantId};
use dds_obs::{Counter, Histogram, Registry, TelemetrySnapshot};
use dds_proto::encode_outcome;
use dds_proto::frame::OVERHEAD_BYTES;
use dds_proto::message::{decode_batch_request, Request, Response};
use dds_proto::{opcode, EngineService};
use dds_reactor::Waker;
use dds_sim::Element;

use crate::evented::{ConnId, EventLoop, Handler, Io};
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

/// What the loop thread and the pool workers share. The request
/// series are hot-path clones of registry handles; the loop registers
/// its own (accepts, connection lifecycle, turns, buffers, writes)
/// under the same `server_` prefix.
pub(crate) struct Shared {
    pub(crate) service: Arc<dyn EngineService>,
    pub(crate) stop: AtomicBool,
    pub(crate) counters: Counters,
    pub(crate) registry: Arc<Registry>,
    request_panics: Counter,
    decode_nanos: Histogram,
    handle_nanos: Histogram,
}

impl Shared {
    pub(crate) fn new(service: Arc<dyn EngineService>) -> Shared {
        let registry = Arc::new(Registry::new());
        Shared {
            service,
            stop: AtomicBool::new(false),
            counters: Counters::default(),
            request_panics: registry.counter("server_request_panics_total"),
            decode_nanos: registry.histogram("server_decode_nanos"),
            handle_nanos: registry.histogram("server_handle_nanos"),
            registry,
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
    waker: Arc<Waker>,
    loop_thread: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
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
        let worker_count = if workers == 0 {
            std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1)
                .min(4)
        } else {
            workers
        };
        let (job_tx, job_rx) = mpsc::channel::<Job>();
        let job_rx = Arc::new(Mutex::new(job_rx));
        let (done_tx, done_rx) = mpsc::channel::<Completion>();
        let serve = Serve::new(Arc::clone(&shared), job_tx, done_rx);
        // Built here, not on the loop thread, so the loop's instruments
        // are registered before `bind_*` returns and a first scrape sees
        // them.
        let (event_loop, waker) = EventLoop::new(listener, &shared.registry, "server", serve)?;
        let waker = Arc::new(waker);
        let workers = (0..worker_count)
            .map(|_| {
                let shared = Arc::clone(&shared);
                let job_rx = Arc::clone(&job_rx);
                let done_tx = done_tx.clone();
                let waker = Arc::clone(&waker);
                std::thread::spawn(move || worker(&shared, &job_rx, &done_tx, &waker))
            })
            .collect();
        let loop_thread = std::thread::spawn(move || drop(event_loop.run()));
        Ok(Server {
            shared,
            waker,
            loop_thread: Some(loop_thread),
            workers,
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
        self.waker.wake();
        if let Some(t) = self.loop_thread.take() {
            let _ = t.join();
        }
        // The loop dropped its handler, and with it the job sender, on
        // exit, so workers drain their queue and see the disconnect.
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
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

/// A decoded request on its way to the worker pool.
pub(crate) struct Job {
    conn: ConnId,
    op: u8,
    payload: Vec<u8>,
}

/// An executed request on its way back: the fully encoded response
/// frame, plus the payload buffer for recycling.
pub(crate) struct Completion {
    conn: ConnId,
    frame: Vec<u8>,
    payload: Vec<u8>,
}

/// One pool worker: execute requests, send back encoded frames. All
/// request semantics live in [`respond`], shared byte-for-byte with
/// the loop's inline path.
///
/// The workers share one receiver: the one holding the lock waits on
/// the queue, the rest wait on the lock. Nothing panics while holding
/// it, but a poisoned lock is recovered rather than taking the pool
/// down with it.
fn worker(
    shared: &Arc<Shared>,
    job_rx: &Mutex<Receiver<Job>>,
    done_tx: &Sender<Completion>,
    waker: &Arc<Waker>,
) {
    // Worker-local batch scratch, reused by every job it runs.
    let mut batch_scratch = Vec::new();
    loop {
        let job = job_rx.lock().unwrap_or_else(PoisonError::into_inner).recv();
        let Ok(job) = job else {
            return; // loop gone: shutdown
        };
        let frame = respond(shared, job.op, &job.payload, &mut batch_scratch);
        let done = Completion {
            conn: job.conn,
            frame,
            payload: job.payload,
        };
        if done_tx.send(done).is_err() {
            return; // loop gone: shutdown
        }
        waker.wake();
    }
}

/// A request the loop thread executes itself: the non-blocking ingest
/// family, whose engine calls are cheap channel pushes. A worker round
/// trip costs two context switches plus an eventfd wake per frame —
/// more than the request itself — so pooling these halves small-batch
/// pipelined throughput.
fn inline_op(op: u8) -> bool {
    matches!(
        op,
        opcode::OBSERVE
            | opcode::OBSERVE_AT
            | opcode::OBSERVE_BATCH
            | opcode::OBSERVE_BATCH_AT
            | opcode::ADVANCE
    )
}

/// The engine server's [`Handler`]: ingest inline, everything else on
/// the pool with its connection parked until the answer returns.
pub(crate) struct Serve {
    pub(crate) shared: Arc<Shared>,
    job_tx: Sender<Job>,
    done_rx: Receiver<Completion>,
    /// Batch-decode scratch for requests executed inline on the loop.
    batch_scratch: Vec<(TenantId, Element)>,
    per_opcode: OpcodeCounters,
}

impl Serve {
    pub(crate) fn new(
        shared: Arc<Shared>,
        job_tx: Sender<Job>,
        done_rx: Receiver<Completion>,
    ) -> Serve {
        Serve {
            shared,
            job_tx,
            done_rx,
            batch_scratch: Vec::new(),
            per_opcode: OpcodeCounters::new(),
        }
    }

    /// Queue a response, counting it before the client can observe it.
    fn reply(&self, io: &mut Io, conn: ConnId, frame: &[u8]) {
        if io.reply(conn, frame) {
            self.shared
                .counters
                .bytes_sent
                .fetch_add(frame.len() as u64, Ordering::SeqCst);
        }
    }
}

impl Handler for Serve {
    fn opened(&mut self, _conn: ConnId) {
        self.shared
            .counters
            .connections
            .fetch_add(1, Ordering::Relaxed);
    }

    fn frame(&mut self, io: &mut Io, conn: ConnId, op: u8, payload: Vec<u8>) {
        let frame_bytes = (OVERHEAD_BYTES + payload.len()) as u64;
        self.shared
            .counters
            .bytes_received
            .fetch_add(frame_bytes, Ordering::Relaxed);
        self.per_opcode
            .record(&self.shared.registry, op, frame_bytes);
        if !inline_op(op) {
            io.park(conn);
            let _ = self.job_tx.send(Job { conn, op, payload });
            return;
        }
        let frame = respond(&self.shared, op, &payload, &mut self.batch_scratch);
        io.recycle(payload);
        self.reply(io, conn, &frame);
    }

    fn wake(&mut self, io: &mut Io) {
        if self.shared.stop.load(Ordering::SeqCst) {
            return io.exit();
        }
        while let Ok(done) = self.done_rx.try_recv() {
            io.recycle(done.payload);
            self.reply(io, done.conn, &done.frame);
            io.unpark(done.conn);
        }
    }

    fn malformed(&mut self, error: CheckpointError) -> Vec<u8> {
        let frame = encode_outcome(&Err::<Response, _>(EngineError::Format(error.to_string())));
        self.shared
            .counters
            .bytes_sent
            .fetch_add(frame.len() as u64, Ordering::SeqCst);
        frame
    }
}

/// Lazily registered per-opcode `(frames, bytes)` counters, cached per
/// event loop so the hot path is one `Vec` index after the first frame
/// of each opcode (the registry lock is only taken on a cache miss).
struct OpcodeCounters {
    cells: Vec<Option<(Counter, Counter)>>,
}

impl OpcodeCounters {
    fn new() -> Self {
        Self {
            cells: (0..=u8::MAX as usize).map(|_| None).collect(),
        }
    }

    fn record(&mut self, registry: &Registry, op: u8, bytes: u64) {
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
fn respond(
    shared: &Shared,
    op: u8,
    payload: &[u8],
    batch_scratch: &mut Vec<(TenantId, Element)>,
) -> Vec<u8> {
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        execute_frame(shared, op, payload, batch_scratch)
    }))
    .unwrap_or_else(|panic| {
        shared.request_panics.inc();
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
    encode_outcome(&outcome)
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
    shared.handle_nanos.observe(nanos);
    shared
        .registry
        .events()
        .record_slow("slow_request", nanos, || {
            let name = opcode::name(op).unwrap_or("unknown");
            format!("{name} request took {nanos} ns in the service")
        });
    outcome
}
