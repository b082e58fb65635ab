//! The server's event loop: one readiness-driven loop owning every
//! connection, a shared worker pool executing requests.
//!
//! A thread per connection would spend a stack and a scheduler slot
//! per client, idle or not. Here a single event loop blocks in
//! [`dds_reactor::Poller::wait`] over *all* sockets, so an idle
//! connection costs one fd plus the few hundred bytes of [`Conn`]
//! below, and 10k mostly-idle clients are just 10k slab slots. The
//! `server_loop_conn_bytes` gauge counts those bytes: the slab's slots
//! plus every live connection's buffers.
//!
//! ## Anatomy
//!
//! ```text
//!            ┌──────────────── event loop (1 thread) ───────────────┐
//!  accept ──▶│ slab of Conn state machines:                         │
//!  readable ─▶  nonblocking read → FrameDecoder → pending queue     │
//!            │  pending (light) → respond() inline                  │
//!            │  pending (heavy) → Job ──────▶ worker pool (N threads)
//!            │  Completion ◀── encoded frame ──── respond()         │
//!  writable ─▶  write_buf drain (in-order, partial-write safe)      │
//!            └──────────────────────────────────────────────────────┘
//! ```
//!
//! The non-blocking ingest family (observe/advance) executes inline on
//! the loop — a worker round trip costs more than the request — while
//! anything that can block or burn CPU (flush barriers, snapshots,
//! checkpoints) goes to the pool so other sockets keep being served.
//!
//! ## The contracts the loop preserves
//!
//! * **Pipelining**: responses go out strictly in request order per
//!   connection. One request per connection is in flight in the pool
//!   at a time (`busy`); later decoded frames wait in `pending`. This
//!   also serializes each connection's engine effects in request order,
//!   so a served engine stays byte-exact with an in-process twin fed the
//!   same requests (the loopback suite pins it).
//! * **Backpressure**: when a connection's write buffer crosses the
//!   high-water mark, or its pending queue fills, the loop drops its
//!   read interest — a slow reader throttles itself, not the server.
//!   Interest returns below the low-water mark.
//! * **Fairness**: a *turn* is one return from
//!   [`dds_reactor::Poller::wait`] plus the work done before the next
//!   wait. In a turn each readable connection reads at most
//!   `READ_BUDGET` (32 KiB) and runs the ingest it decoded inline, so
//!   a firehose connection holds the loop for about 0.1 ms (some 31
//!   frames of 64-element batches) before queries, pool completions
//!   and other connections get their turn; level-triggered
//!   registration re-delivers the bytes it left in the socket on the
//!   next wait. `server_loop_turn_nanos` records every turn.
//! * **Accept resilience**: an accept error (EMFILE storms) counts on
//!   `server_accept_errors_total` and pauses *only accepting* — the
//!   listener is deregistered and re-registered after a poll-timeout
//!   backoff, while connected clients keep being served. A sleep would
//!   stall every connection, so the backoff rides the wait timeout.
//! * **Panics**: a request that panics in the service is answered with
//!   a typed error by `respond`, on a worker and inline alike, so
//!   `busy` always clears and no worker is lost.
//!
//! A malformed frame poisons the stream (framing cannot resync), so the
//! connection answers with one typed error frame after its in-flight
//! responses drain, then closes — the order a sequential reader would
//! produce.

use std::collections::VecDeque;
use std::io::{Read, Write};
use std::os::unix::io::{AsRawFd, RawFd};
use std::sync::atomic::Ordering;
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use dds_engine::{EngineError, TenantId};
use dds_obs::{Counter, Gauge, Histogram};
use dds_proto::frame::{FrameDecoder, OVERHEAD_BYTES};
use dds_proto::message::{encode_outcome_checked, opcode};
use dds_reactor::{Events, Interest, Poller, Token, Waker};
use dds_sim::Element;

use crate::net::{Listener, Stream};
use crate::server::{respond, OpcodeCounters, Shared};

/// Token of the listening socket.
const LISTENER_TOKEN: Token = Token(0);
/// Token of the cross-thread waker (completions ready, shutdown).
const WAKER_TOKEN: Token = Token(1);
/// First connection token; connection `slot` maps to `FIRST_CONN + slot`.
const FIRST_CONN: usize = 2;

/// Readiness events drained per wait.
const EVENTS_CAPACITY: usize = 1024;
/// Connections accepted per listener readiness event.
const ACCEPT_BATCH: usize = 64;
/// How long accepting pauses after an accept error.
const ACCEPT_BACKOFF: Duration = Duration::from_millis(10);
/// Bytes one connection may read per readiness event. Ingest decoded
/// in a turn runs inline before the loop waits again, so this budget
/// sets how long a query, a pool completion or another connection
/// waits behind an ingest burst. 32 KiB is two reads of the 16 KiB
/// chunk: about 31 frames of 64-element batches, or 0.13–0.15 ms of
/// loop time. Bytes left in the socket wait for the next turn.
///
/// Measured on `perfbench`'s `wire_serve` (one pipelined ingest
/// connection beside 100 reads/s; 2-vCPU VM; read p50 and ingest are
/// medians over alternating 20 s pairs against 256 KiB, turn p50 from
/// traced runs):
///
/// | budget | frames a turn | turn p50 | read p50 | ingest |
/// |---|---|---|---|---|
/// | 256 KiB | ~133 | 1.2–1.3 ms | 3.0 ms | — |
/// | 32 KiB | ~31 | 0.13–0.15 ms | 1.3 ms (−57 %) | −4.6 % |
/// | 16 KiB | ~15 | — | 0.9 ms (−65 to −69 %) | −1.4 to −8 % |
///
/// At 256 KiB the budget never bound: `PENDING_MAX` ended a turn
/// first. Each halving buys less read latency for more turns, each a
/// loop wake-up and a shorter burst for the shard threads; the 16 KiB
/// ingest cost read −1.4 % in one set of pairs and −8 % in another,
/// so 32 KiB, which meets the latency aim, is the value.
const READ_BUDGET: usize = 32 << 10;
/// Decoded-but-undispatched frames per connection before its reads
/// pause (bounds memory under a pipelining firehose).
const PENDING_MAX: usize = 128;
/// Pending depth at which paused reads resume.
const PENDING_RESUME: usize = PENDING_MAX / 2;
/// Outstanding write bytes above which reads pause (slow reader).
const WRITE_HIGH_WATER: usize = 1 << 20;
/// Outstanding write bytes below which paused reads resume.
const WRITE_LOW_WATER: usize = 128 << 10;
/// Consumed write-buffer prefix reclaimed above this size.
const WRITE_COMPACT_BYTES: usize = 64 << 10;
/// Recycled payload buffers kept around (per loop).
const SPARE_BUFFERS: usize = 256;

/// A decoded request on its way to the worker pool.
struct Job {
    slot: usize,
    epoch: u64,
    op: u8,
    payload: Vec<u8>,
}

/// An executed request on its way back: the fully encoded response
/// frame, plus the payload buffer for recycling.
struct Completion {
    slot: usize,
    epoch: u64,
    frame: Vec<u8>,
    payload: Vec<u8>,
}

/// Handle to a running evented server (owned by [`crate::Server`]).
pub(crate) struct Handle {
    waker: Arc<Waker>,
    loop_thread: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl Handle {
    /// Stop the loop and join everything. The caller has already set
    /// `Shared::stop`; this wakes the loop so it notices.
    pub(crate) fn stop(&mut self) {
        self.waker.wake();
        if let Some(t) = self.loop_thread.take() {
            let _ = t.join();
        }
        // The loop thread dropped the job sender on exit, so workers
        // drain their queue and see the disconnect.
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

/// Spawn the event loop and its worker pool over a bound listener.
pub(crate) fn spawn(
    listener: Listener,
    shared: Arc<Shared>,
    workers: usize,
) -> std::io::Result<Handle> {
    listener.set_nonblocking(true)?;
    let poller = Poller::new()?;
    let waker = Arc::new(poller.waker(WAKER_TOKEN)?);
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
    let worker_threads = (0..worker_count)
        .map(|_| {
            let shared = Arc::clone(&shared);
            let job_rx = Arc::clone(&job_rx);
            let done_tx = done_tx.clone();
            let waker = Arc::clone(&waker);
            std::thread::spawn(move || worker(&shared, &job_rx, &done_tx, &waker))
        })
        .collect();
    // Built here, not on the loop thread, so the loop's instruments are
    // registered before `bind_*` returns and a first scrape sees them.
    let event_loop = EventLoop::new(poller, listener, shared, job_tx, done_rx);
    let loop_thread = std::thread::spawn(move || event_loop.run());
    Ok(Handle {
        waker,
        loop_thread: Some(loop_thread),
        workers: worker_threads,
    })
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
        if done_tx
            .send(Completion {
                slot: job.slot,
                epoch: job.epoch,
                frame,
                payload: job.payload,
            })
            .is_err()
        {
            return; // loop gone: shutdown
        }
        waker.wake();
    }
}

/// Per-connection state machine.
struct Conn {
    socket: Stream,
    fd: RawFd,
    /// Stale-completion guard: a slot may be reused by a later
    /// connection; completions carry the epoch they were dispatched
    /// under and are dropped on mismatch.
    epoch: u64,
    decoder: FrameDecoder,
    /// Decoded frames awaiting dispatch (one at a time — the
    /// pipelining contract).
    pending: VecDeque<(u8, Vec<u8>)>,
    /// A job for this connection is in the pool.
    busy: bool,
    /// In-order encoded responses not yet on the wire; `write_pos..`
    /// is unsent.
    write_buf: Vec<u8>,
    write_pos: usize,
    /// Interest currently registered with the poller.
    interest: Interest,
    /// Reads paused by backpressure (pending queue or write buffer).
    read_paused: bool,
    /// Read side saw EOF: finish outstanding work, flush, close.
    peer_closed: bool,
    /// The stream desynchronized: the typed error frame to send once
    /// in-flight responses drain, then close.
    fatal: Option<Vec<u8>>,
    /// The fatal frame has been queued; close when writes drain.
    fatal_queued: bool,
    /// `buffer_bytes()` as of the last report to `conn_bytes`.
    reported_bytes: usize,
}

impl Conn {
    fn outstanding_write(&self) -> usize {
        self.write_buf.len() - self.write_pos
    }

    /// Heap bytes the connection holds in its buffers: decoder, write
    /// buffer, and the pending queue with its payloads.
    fn buffer_bytes(&self) -> usize {
        self.decoder.capacity()
            + self.write_buf.capacity()
            + self.pending.capacity() * std::mem::size_of::<(u8, Vec<u8>)>()
            + self
                .pending
                .iter()
                .map(|(_, p)| p.capacity())
                .sum::<usize>()
    }
}

/// Loop-level instrumentation.
struct LoopObs {
    poll_wakeups: Counter,
    ready_events: Histogram,
    /// Loop busy time: poller return to the next wait.
    loop_turn: Histogram,
    loop_connections: Gauge,
    /// Buffer bytes of every live connection plus the slab's slots.
    conn_bytes: Gauge,
    write_high_water: Gauge,
}

/// Move a gauge by the change from `old` to `new`.
fn report_delta(gauge: &Gauge, old: usize, new: usize) {
    if new >= old {
        gauge.add((new - old) as u64);
    } else {
        gauge.sub((old - new) as u64);
    }
}

struct EventLoop {
    poller: Poller,
    listener: Listener,
    shared: Arc<Shared>,
    job_tx: Sender<Job>,
    done_rx: Receiver<Completion>,
    slots: Vec<Option<Conn>>,
    /// Reusable slot indices.
    free: Vec<usize>,
    /// Slots freed during the current event batch: handed to `free`
    /// only once the batch ends, so a stale readiness event from the
    /// same batch can never hit a freshly accepted connection.
    freed_this_batch: Vec<usize>,
    /// Recycled payload buffers (decoder scratch ↔ completed jobs).
    spare_bufs: Vec<Vec<u8>>,
    /// Batch-decode scratch for requests executed inline on the loop.
    batch_scratch: Vec<(TenantId, Element)>,
    per_opcode: OpcodeCounters,
    epoch_counter: u64,
    open: usize,
    /// Accepting is paused until this instant (accept-error backoff,
    /// realized as the wait timeout — never a thread sleep).
    accept_paused_until: Option<Instant>,
    listener_registered: bool,
    obs: LoopObs,
}

impl EventLoop {
    fn new(
        poller: Poller,
        listener: Listener,
        shared: Arc<Shared>,
        job_tx: Sender<Job>,
        done_rx: Receiver<Completion>,
    ) -> EventLoop {
        let obs = LoopObs {
            poll_wakeups: shared.registry.counter("server_poll_wakeups_total"),
            ready_events: shared.registry.histogram("server_poll_ready_events"),
            loop_turn: shared.registry.histogram("server_loop_turn_nanos"),
            loop_connections: shared.registry.gauge("server_loop_connections"),
            conn_bytes: shared.registry.gauge("server_loop_conn_bytes"),
            write_high_water: shared
                .registry
                .gauge("server_write_buffer_high_water_bytes"),
        };
        EventLoop {
            poller,
            listener,
            shared,
            job_tx,
            done_rx,
            slots: Vec::new(),
            free: Vec::new(),
            freed_this_batch: Vec::new(),
            spare_bufs: Vec::new(),
            batch_scratch: Vec::new(),
            per_opcode: OpcodeCounters::new(),
            epoch_counter: 0,
            open: 0,
            accept_paused_until: None,
            listener_registered: false,
            obs,
        }
    }

    fn run(mut self) {
        if self
            .poller
            .register(
                self.listener.as_raw_fd(),
                LISTENER_TOKEN,
                Interest::READABLE,
            )
            .is_err()
        {
            return;
        }
        self.listener_registered = true;
        let mut events = Events::with_capacity(EVENTS_CAPACITY);
        loop {
            let timeout = self
                .accept_paused_until
                .map(|t| t.saturating_duration_since(Instant::now()));
            if self.poller.wait(&mut events, timeout).is_err() {
                // A failed wait with no backoff would busy-spin; this
                // does not happen with a healthy poller fd.
                std::thread::yield_now();
            }
            let turn_start = dds_obs::maybe_now();
            self.obs.poll_wakeups.inc();
            self.obs.ready_events.observe(events.len() as u64);
            if self.shared.stop.load(Ordering::SeqCst) {
                return;
            }
            self.turn(&events);
            self.obs.loop_turn.observe(dds_obs::nanos_since(turn_start));
        }
    }

    /// Everything the loop does with one batch of readiness events
    /// before it waits again.
    fn turn(&mut self, events: &Events) {
        self.drain_completions();
        for ev in events {
            match ev.token {
                LISTENER_TOKEN => self.accept_ready(),
                WAKER_TOKEN => {} // completions drained around the batch
                Token(t) => {
                    let slot = t - FIRST_CONN;
                    if ev.is_error {
                        self.close(slot);
                        continue;
                    }
                    if ev.readable {
                        self.read_ready(slot);
                    }
                    if ev.writable {
                        self.try_flush(slot);
                    }
                    self.dispatch(slot);
                    self.settle(slot);
                }
            }
        }
        self.drain_completions();
        self.maybe_resume_accept();
        self.free.append(&mut self.freed_this_batch);
    }

    // -- accept ------------------------------------------------------

    fn accept_ready(&mut self) {
        if self.accept_paused_until.is_some() {
            return;
        }
        for _ in 0..ACCEPT_BATCH {
            match self.listener.accept() {
                Ok(stream) => self.install(stream),
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(_) => {
                    // EMFILE and friends: count it, pause *accepting*
                    // for a beat (via the wait timeout), keep serving
                    // every connected client meanwhile.
                    self.shared.obs.accept_errors.inc();
                    if self.listener_registered
                        && self.poller.deregister(self.listener.as_raw_fd()).is_ok()
                    {
                        self.listener_registered = false;
                    }
                    self.accept_paused_until = Some(Instant::now() + ACCEPT_BACKOFF);
                    break;
                }
            }
        }
    }

    fn maybe_resume_accept(&mut self) {
        let Some(until) = self.accept_paused_until else {
            return;
        };
        if Instant::now() < until {
            return;
        }
        self.accept_paused_until = None;
        if !self.listener_registered
            && self
                .poller
                .register(
                    self.listener.as_raw_fd(),
                    LISTENER_TOKEN,
                    Interest::READABLE,
                )
                .is_ok()
        {
            self.listener_registered = true;
        }
        // A backlog queued during the pause is still readable; don't
        // wait for the next listener event to notice it.
        self.accept_ready();
    }

    fn install(&mut self, stream: Stream) {
        if stream.set_nonblocking(true).is_err() {
            self.shared.obs.connections_failed.inc();
            return;
        }
        let fd = stream.as_raw_fd();
        let slab_before = self.slab_bytes();
        let slot = self.free.pop().unwrap_or_else(|| {
            self.slots.push(None);
            self.slots.len() - 1
        });
        report_delta(&self.obs.conn_bytes, slab_before, self.slab_bytes());
        if self
            .poller
            .register(fd, Token(FIRST_CONN + slot), Interest::READABLE)
            .is_err()
        {
            self.shared.obs.connections_failed.inc();
            self.free.push(slot);
            return;
        }
        self.epoch_counter += 1;
        self.slots[slot] = Some(Conn {
            socket: stream,
            fd,
            epoch: self.epoch_counter,
            decoder: FrameDecoder::new(),
            pending: VecDeque::new(),
            busy: false,
            write_buf: Vec::new(),
            write_pos: 0,
            interest: Interest::READABLE,
            read_paused: false,
            peer_closed: false,
            fatal: None,
            fatal_queued: false,
            reported_bytes: 0, // every buffer starts unallocated
        });
        self.open += 1;
        self.obs.loop_connections.set(self.open as u64);
        self.shared
            .counters
            .connections
            .fetch_add(1, Ordering::Relaxed);
        self.shared.obs.connections_opened.inc();
    }

    // -- read side ---------------------------------------------------

    fn read_ready(&mut self, slot: usize) {
        let Some(conn) = self.slots[slot].as_mut() else {
            return;
        };
        if conn.peer_closed || conn.fatal.is_some() {
            return;
        }
        let mut chunk = [0u8; 16 << 10];
        let mut budget = READ_BUDGET;
        loop {
            // Backpressure check inside the loop: a firehose peer must
            // not bloat `pending`/`write_buf` within one event either.
            if conn.pending.len() >= PENDING_MAX || conn.outstanding_write() >= WRITE_HIGH_WATER {
                break;
            }
            match conn.socket.read(&mut chunk) {
                Ok(0) => {
                    conn.peer_closed = true;
                    if conn.decoder.is_mid_frame() && conn.fatal.is_none() {
                        // EOF inside a frame: answer a typed Truncated
                        // error, as a blocking frame reader would.
                        self.shared.obs.connections_failed.inc();
                        let outcome = Err(EngineError::Format(
                            dds_core::checkpoint::CheckpointError::Truncated.to_string(),
                        ));
                        conn.fatal = Some(encode_outcome_checked(&outcome));
                    }
                    break;
                }
                Ok(n) => {
                    conn.decoder.push(&chunk[..n]);
                    budget = budget.saturating_sub(n);
                    let poisoned = Self::drain_decoder(
                        conn,
                        &self.shared,
                        &mut self.per_opcode,
                        &mut self.spare_bufs,
                    );
                    if poisoned || budget == 0 {
                        break;
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(_) => {
                    // Transport error: just close (no frame can be
                    // trusted to arrive).
                    self.close(slot);
                    return;
                }
            }
        }
    }

    /// Pull every complete frame out of a connection's decoder into its
    /// pending queue. Returns true if the stream desynchronized (the
    /// connection now owes one fatal frame and must stop reading).
    fn drain_decoder(
        conn: &mut Conn,
        shared: &Shared,
        per_opcode: &mut OpcodeCounters,
        spare_bufs: &mut Vec<Vec<u8>>,
    ) -> bool {
        loop {
            let mut scratch = spare_bufs.pop().unwrap_or_default();
            match conn.decoder.next_frame(&mut scratch) {
                Ok(Some(op)) => {
                    let frame_bytes = (OVERHEAD_BYTES + scratch.len()) as u64;
                    shared
                        .counters
                        .bytes_received
                        .fetch_add(frame_bytes, Ordering::Relaxed);
                    per_opcode.record(&shared.registry, op, frame_bytes);
                    conn.pending.push_back((op, scratch));
                }
                Ok(None) => {
                    spare_bufs.push(scratch);
                    return false;
                }
                Err(e) => {
                    spare_bufs.push(scratch);
                    // Count the connection as failed, answer once,
                    // close after.
                    shared.obs.connections_failed.inc();
                    let outcome = Err(EngineError::Format(e.to_string()));
                    conn.fatal = Some(encode_outcome_checked(&outcome));
                    return true;
                }
            }
        }
    }

    // -- execution ---------------------------------------------------

    /// A request the loop thread executes itself: the non-blocking
    /// ingest family, whose engine calls are cheap channel pushes. A
    /// worker round trip costs two context switches plus an eventfd
    /// wake per frame — more than the request itself — so pooling
    /// these halves small-batch pipelined throughput. Everything else
    /// (snapshots, flush barriers, checkpoints) can block or burn CPU
    /// and goes to the pool so the loop keeps serving other sockets.
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

    /// Run the connection's pending frames: light requests execute
    /// inline right here, the first heavy one goes to the pool and
    /// stops the drain. One in-flight job per connection keeps
    /// responses (and engine effects) in request order — the inline
    /// path preserves it trivially by completing before returning.
    fn dispatch(&mut self, slot: usize) {
        loop {
            let (op, payload, epoch) = {
                let Some(conn) = self.slots[slot].as_mut() else {
                    return;
                };
                if conn.busy {
                    return;
                }
                let Some((op, payload)) = conn.pending.pop_front() else {
                    return;
                };
                (op, payload, conn.epoch)
            };
            if !Self::inline_op(op) {
                self.slots[slot].as_mut().expect("checked above").busy = true;
                let _ = self.job_tx.send(Job {
                    slot,
                    epoch,
                    op,
                    payload,
                });
                return;
            }
            let frame = respond(&self.shared, op, &payload, &mut self.batch_scratch);
            if self.spare_bufs.len() < SPARE_BUFFERS {
                self.spare_bufs.push(payload);
            }
            // Same accounting order as the completion path: count
            // before the client can observe the response bytes.
            self.shared
                .counters
                .bytes_sent
                .fetch_add(frame.len() as u64, Ordering::SeqCst);
            let conn = self.slots[slot]
                .as_mut()
                .expect("slot lives across execute");
            conn.write_buf.extend_from_slice(&frame);
            self.obs
                .write_high_water
                .record_max(conn.outstanding_write() as u64);
        }
    }

    fn drain_completions(&mut self) {
        while let Ok(done) = self.done_rx.try_recv() {
            if self.spare_bufs.len() < SPARE_BUFFERS {
                self.spare_bufs.push(done.payload);
            }
            let slot = done.slot;
            let stale = match self.slots.get_mut(slot) {
                Some(Some(conn)) => conn.epoch != done.epoch,
                _ => true,
            };
            if stale {
                continue;
            }
            let conn = self.slots[slot].as_mut().expect("checked above");
            conn.busy = false;
            // Count before the client can observe the response.
            self.shared
                .counters
                .bytes_sent
                .fetch_add(done.frame.len() as u64, Ordering::SeqCst);
            conn.write_buf.extend_from_slice(&done.frame);
            self.obs
                .write_high_water
                .record_max(conn.outstanding_write() as u64);
            self.dispatch(slot);
            self.try_flush(slot);
            self.settle(slot);
        }
    }

    // -- write side --------------------------------------------------

    fn try_flush(&mut self, slot: usize) {
        let Some(conn) = self.slots[slot].as_mut() else {
            return;
        };
        if conn.outstanding_write() == 0 {
            return;
        }
        let respond_start = dds_obs::maybe_now();
        loop {
            let unsent = &conn.write_buf[conn.write_pos..];
            if unsent.is_empty() {
                break;
            }
            match conn.socket.write(unsent) {
                Ok(0) => {
                    self.close(slot);
                    return;
                }
                Ok(n) => conn.write_pos += n,
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(_) => {
                    self.close(slot);
                    return;
                }
            }
        }
        // Reclaim the sent prefix lazily (same policy as the decoder).
        if conn.write_pos == conn.write_buf.len() {
            conn.write_buf.clear();
            conn.write_pos = 0;
        } else if conn.write_pos >= WRITE_COMPACT_BYTES {
            conn.write_buf.drain(..conn.write_pos);
            conn.write_pos = 0;
        }
        self.shared
            .obs
            .respond_nanos
            .observe(dds_obs::nanos_since(respond_start));
    }

    // -- lifecycle ---------------------------------------------------

    /// Post-I/O bookkeeping: queue the fatal frame once the connection
    /// drains, close finished connections, and reconcile poller
    /// interest with the state machine.
    fn settle(&mut self, slot: usize) {
        {
            let Some(conn) = self.slots[slot].as_mut() else {
                return;
            };
            if conn.fatal.is_some() && !conn.busy && conn.pending.is_empty() {
                let frame = conn.fatal.take().expect("just checked");
                self.shared
                    .counters
                    .bytes_sent
                    .fetch_add(frame.len() as u64, Ordering::SeqCst);
                conn.write_buf.extend_from_slice(&frame);
                conn.fatal_queued = true;
            }
        }
        self.try_flush(slot); // no-op when nothing is queued
        let Some(conn) = self.slots[slot].as_mut() else {
            return; // flush hit an error and closed the slot
        };
        let drained = conn.pending.is_empty() && !conn.busy && conn.outstanding_write() == 0;
        if drained && (conn.fatal_queued || conn.peer_closed) {
            self.close(slot);
            return;
        }
        let bytes = conn.buffer_bytes();
        report_delta(&self.obs.conn_bytes, conn.reported_bytes, bytes);
        conn.reported_bytes = bytes;
        self.sync_interest(slot);
    }

    fn sync_interest(&mut self, slot: usize) {
        let Some(conn) = self.slots[slot].as_mut() else {
            return;
        };
        let outstanding = conn.outstanding_write();
        // Hysteresis: pause at the high-water marks, resume only once
        // comfortably below, so interest does not flap per frame.
        if !conn.read_paused
            && (conn.pending.len() >= PENDING_MAX || outstanding >= WRITE_HIGH_WATER)
        {
            conn.read_paused = true;
        } else if conn.read_paused
            && conn.pending.len() <= PENDING_RESUME
            && outstanding <= WRITE_LOW_WATER
        {
            conn.read_paused = false;
        }
        let mut desired = Interest::NONE;
        if !conn.read_paused && !conn.peer_closed && conn.fatal.is_none() && !conn.fatal_queued {
            desired = desired | Interest::READABLE;
        }
        if outstanding > 0 {
            desired = desired | Interest::WRITABLE;
        }
        if desired != conn.interest
            && self
                .poller
                .modify(conn.fd, Token(FIRST_CONN + slot), desired)
                .is_ok()
        {
            conn.interest = desired;
        }
    }

    /// The slab's own footprint: every slot, live or free, is a whole
    /// `Option<Conn>`, and the slab never shrinks.
    fn slab_bytes(&self) -> usize {
        self.slots.capacity() * std::mem::size_of::<Option<Conn>>()
    }

    fn close(&mut self, slot: usize) {
        let Some(conn) = self.slots.get_mut(slot).and_then(Option::take) else {
            return;
        };
        let _ = self.poller.deregister(conn.fd);
        self.obs.conn_bytes.sub(conn.reported_bytes as u64);
        drop(conn); // closes the socket
        self.open -= 1;
        self.obs.loop_connections.set(self.open as u64);
        self.shared.obs.connections_closed.inc();
        // Reusable only after this event batch: stale events for this
        // slot may still sit in the current batch.
        self.freed_this_batch.push(slot);
    }
}

#[cfg(test)]
mod tests {
    use std::os::unix::net::UnixStream;

    use dds_core::sampler::{SamplerKind, SamplerSpec};
    use dds_engine::{Engine, EngineConfig};
    use dds_proto::message::{Request, Response};
    use dds_proto::EngineHost;

    use super::*;

    /// A loop over a one-shard engine that the test turns by hand
    /// instead of `run`. Every request it sees executes inline, so it
    /// needs no worker pool.
    fn hand_turned_loop() -> EventLoop {
        let spec = SamplerSpec::new(SamplerKind::Infinite, 8, 4_243);
        let engine = Engine::spawn(EngineConfig::new(spec).with_shards(1));
        let shared = Arc::new(Shared::new(Arc::new(EngineHost::new(engine))));
        let listener = Listener::bind_tcp("127.0.0.1:0").expect("bind");
        let (job_tx, _) = mpsc::channel();
        let (_, done_rx) = mpsc::channel();
        let poller = Poller::new().expect("poller");
        EventLoop::new(poller, listener, shared, job_tx, done_rx)
    }

    /// `wire_serve`'s ingest shape: 64-element batches, about 1 KiB a
    /// frame, filling 128 KiB.
    fn ingest_burst() -> Vec<Vec<u8>> {
        let mut frames = Vec::new();
        let mut bytes = 0;
        for i in 0u64.. {
            let batch = (0..64)
                .map(|j| (TenantId(j % 16), Element(i * 64 + j)))
                .collect();
            let frame = Request::ObserveBatch { batch }.encode();
            bytes += frame.len();
            if bytes > 128 << 10 {
                return frames;
            }
            frames.push(frame);
        }
        unreachable!("the burst fills up long before u64 runs out")
    }

    #[test]
    fn one_readiness_event_reads_at_most_the_budget_and_later_turns_take_the_rest() {
        let frames = ingest_burst();
        let wire = frames.concat();
        let (mut peer, server_end) = UnixStream::pair().expect("socket pair");
        // The whole burst sits in the socket before the loop looks.
        peer.set_nonblocking(true).expect("nonblocking peer");
        peer.write_all(&wire)
            .expect("128 KiB fits in a socket pair's buffer");

        let mut el = hand_turned_loop();
        el.install(Stream::Unix(server_end));
        let slot = 0;
        let bytes_read = |el: &EventLoop| {
            let conn = el.slots[slot].as_ref().expect("connection stays open");
            el.shared.counters.bytes_received.load(Ordering::Relaxed) as usize
                + conn.decoder.buffered_bytes()
        };
        let requests = |el: &EventLoop| el.shared.counters.requests.load(Ordering::Relaxed);

        let mut events = Events::with_capacity(8);
        let mut turns = 0;
        let mut read_before = 0;
        while requests(&el) < frames.len() as u64 {
            el.poller
                .wait(&mut events, Some(Duration::ZERO))
                .expect("wait");
            assert!(
                !events.is_empty(),
                "bytes left in the socket must be re-delivered"
            );
            el.turn(&events);
            let read = bytes_read(&el);
            assert!(
                read - read_before <= READ_BUDGET,
                "turn {turns} read {} bytes",
                read - read_before
            );
            if turns == 0 {
                assert!(
                    read < wire.len(),
                    "one readiness event read the whole {} B burst",
                    wire.len()
                );
            }
            read_before = read;
            turns += 1;
        }
        assert_eq!(read_before, wire.len());
        assert!(turns >= wire.len().div_ceil(READ_BUDGET), "{turns} turns");

        // One ack per frame and nothing else, and every element applied
        // once.
        peer.set_nonblocking(false).expect("blocking peer");
        for i in 0..frames.len() {
            let (op, payload) = dds_proto::frame::read_frame(&mut peer)
                .expect("ack frame")
                .expect("peer still open");
            assert_eq!(op, opcode::ACK, "response {i}");
            assert!(payload.is_empty());
        }
        peer.set_nonblocking(true).expect("nonblocking peer");
        let mut rest = [0u8; 1];
        assert_eq!(
            peer.read(&mut rest).map_err(|e| e.kind()),
            Err(std::io::ErrorKind::WouldBlock),
            "no response beyond one per frame"
        );
        let Ok(Response::Goodbye { report }) = el.shared.service.call(Request::Shutdown) else {
            panic!("engine shuts down");
        };
        assert_eq!(report.metrics.total_elements(), frames.len() as u64 * 64);
    }
}
