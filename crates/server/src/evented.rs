//! The framed-connection event loop: one readiness-driven thread owning
//! a listener and every connection it accepts, shared by the engine
//! server and the cluster coordinator.
//!
//! A single [`EventLoop`] blocks in [`dds_reactor::Poller::wait`] over
//! *all* sockets, so an idle connection costs one fd plus the few
//! hundred bytes of its slab slot, and 10k mostly-idle clients are just
//! 10k slots. The loop owns framing, buffers and sockets; a [`Handler`]
//! gives the frames their meaning (the engine server's dispatch into
//! its service and pool, or the coordinator's cluster protocol), and
//! each caller runs its own monomorphized loop.
//!
//! ```text
//!            ┌──────────────── event loop (1 thread) ───────────────┐
//!  accept ──▶│ slab of connections, named by generation-checked ids │
//!  readable ─▶  nonblocking read → FrameDecoder → pending queue     │
//!            │  pending → Handler::frame, unless the handler parked │
//!            │  replies (to any live connection) → write buffers    │
//!  waker ───▶│  Handler::wake: cross-thread work, a stop request    │
//!  writable ─▶  write buffer drain (in order, partial-write safe)   │
//!            └──────────────────────────────────────────────────────┘
//! ```
//!
//! ## The contracts the loop keeps
//!
//! * **Order**: a connection's frames reach the handler in arrival
//!   order. A handler that must answer one before the next *parks* the
//!   connection (the server while a request runs in its pool, the
//!   coordinator while a `Sync` waits); later frames are decoded, up to
//!   `PENDING_MAX`, and wait. Unparking dispatches them in the same
//!   turn: no further bytes may be on the way to trigger it.
//! * **One flush per readiness event**: once an event is handled, every
//!   connection written to is flushed, so a drained batch of pipelined
//!   frames leaves in one write, and a reply to another connection (a
//!   `Downs` released by another site's `Done`) leaves in the same turn.
//! * **Backpressure**: above the write high-water mark, or with a full
//!   pending queue, a connection loses read interest — a slow reader
//!   throttles itself, not the loop — until it is below the low marks.
//! * **Fairness**: a *turn* is one return from the wait plus the work
//!   before the next. In a turn each readable connection reads at most
//!   `READ_BUDGET` (32 KiB), so a firehose holds the loop for about
//!   0.1 ms; level-triggered registration re-delivers what it left.
//! * **Accept resilience**: an accept error (EMFILE storms) is counted
//!   and pauses *only accepting*, for a backoff that rides the wait
//!   timeout, while connected clients keep being served.
//! * **Malformed frames**: framing cannot resync, so the connection
//!   sends the handler's typed error frame once its dispatched frames
//!   are answered, then closes — the order a sequential reader sees.
//! * **Exit never blocks**: each connection gets one non-blocking write
//!   of what it owes, then every socket closes.
//!
//! Every series is registered under the caller's prefix (`server`,
//! `cluster`): `_poll_wakeups_total`, `_poll_ready_events`,
//! `_loop_turn_nanos` (poller return to the next wait),
//! `_loop_connections`, `_loop_conn_bytes` (slab slots plus live
//! buffers), `_write_buffer_high_water_bytes`, `_accept_errors_total`,
//! `_connections_{opened,closed,failed}_total` and `_respond_nanos`.

use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::os::unix::io::AsRawFd;
use std::time::{Duration, Instant};

use dds_core::checkpoint::CheckpointError;
use dds_obs::{Counter, Gauge, Histogram, Registry};
use dds_proto::frame::FrameDecoder;
use dds_reactor::{Events, Interest, Poller, Token, Waker};

use crate::net::{Listener, Stream};

/// Token of the listening socket.
const LISTENER_TOKEN: Token = Token(0);
/// Token of the cross-thread waker.
const WAKER_TOKEN: Token = Token(1);
/// First connection token; connection `slot` maps to `FIRST_CONN + slot`.
const FIRST_CONN: usize = 2;

/// Readiness events drained per wait. `dds_reactor` fills a buffer of
/// this many events on every wait, so the size is a cost of every turn:
/// 1024 cost ~140 ns more per wait than 64 or 256 (best of 30 × 20 000
/// wake-and-wait rounds, 2-vCPU VM). Readiness a wait leaves behind is
/// re-delivered by the next one.
const EVENTS_CAPACITY: usize = 256;
/// Connections accepted per listener readiness event.
const ACCEPT_BATCH: usize = 64;
/// How long accepting pauses after an accept error.
const ACCEPT_BACKOFF: Duration = Duration::from_millis(10);
/// Bytes one connection may read per readiness event. Frames decoded
/// in a turn are dispatched before the loop waits again, so this budget
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
/// pause (bounds memory under a pipelining firehose or a parked
/// connection).
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

/// A connection as a [`Handler`] names it: its slab slot plus the
/// generation it was accepted under. An id outlives its connection
/// harmlessly: every [`Io`] call checks the generation, so a late
/// reply (a pool completion, a released up) to a closed connection is
/// dropped rather than delivered to the slot's next occupant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConnId {
    slot: usize,
    epoch: u64,
}

impl ConnId {
    /// The connection's slab slot: dense, and reused once the
    /// connection closes, so a handler can keep per-connection state in
    /// a `Vec` indexed by it (resetting it in [`Handler::opened`]).
    #[must_use]
    pub fn slot(self) -> usize {
        self.slot
    }
}

/// What a caller of the loop supplies: the meaning of its frames.
///
/// Every method runs on the loop thread. Replies written through
/// [`Io`] leave at the end of the readiness event (or wake-up) that
/// produced them.
pub trait Handler {
    /// A connection was accepted.
    fn opened(&mut self, _conn: ConnId) {}

    /// One frame of `conn`, in arrival order. `payload` is the loop's
    /// buffer; hand it back with [`Io::recycle`] when done with it.
    fn frame(&mut self, io: &mut Io, conn: ConnId, op: u8, payload: Vec<u8>);

    /// Cross-thread work: called before and after every turn's
    /// readiness events, so whatever woke the loop (pool completions,
    /// in-process queries, a stop request) is picked up in that turn.
    fn wake(&mut self, io: &mut Io);

    /// A connection closed — by its peer, by a transport error, or
    /// after its last frame. Replies to it are dropped from now on.
    fn closed(&mut self, _io: &mut Io, _conn: ConnId) {}

    /// The typed error frame a connection whose byte stream broke
    /// sends before it closes.
    fn malformed(&mut self, error: CheckpointError) -> Vec<u8>;
}

/// The loop's connections as a [`Handler`] reaches them. A call naming
/// a connection that has closed does nothing.
pub struct Io {
    slots: Vec<Option<Conn>>,
    /// Reusable slot indices.
    free: Vec<usize>,
    /// Slots freed during the current event batch: handed to `free`
    /// only once the batch ends, so a stale readiness event from the
    /// same batch can never hit a freshly accepted connection.
    freed_this_batch: Vec<usize>,
    /// Recycled payload buffers (decoder scratch ↔ handled frames).
    spare_bufs: Vec<Vec<u8>>,
    epoch_counter: u64,
    open: usize,
    /// Connections to settle (dispatch, flush, close if finished,
    /// reconcile interest) before the loop moves on.
    touched: Vec<usize>,
    exit: bool,
    obs: LoopObs,
}

impl Io {
    fn live(&mut self, id: ConnId) -> Option<&mut Conn> {
        self.slots
            .get_mut(id.slot)?
            .as_mut()
            .filter(|conn| conn.epoch == id.epoch)
    }

    /// Queue `frame` on `conn` behind everything queued before it.
    /// Returns false, queuing nothing, if `conn` has closed.
    pub fn reply(&mut self, conn: ConnId, frame: &[u8]) -> bool {
        let Some(c) = self.live(conn) else {
            return false;
        };
        c.write_buf.extend_from_slice(frame);
        let outstanding = c.outstanding_write() as u64;
        self.obs.write_high_water.record_max(outstanding);
        self.touch(conn.slot);
        true
    }

    /// Stop handing `conn`'s frames to the handler until
    /// [`Io::unpark`].
    pub fn park(&mut self, conn: ConnId) {
        if let Some(c) = self.live(conn) {
            c.parked = true;
        }
    }

    /// Resume dispatch: frames `conn` already decoded reach the handler
    /// in this turn.
    pub fn unpark(&mut self, conn: ConnId) {
        if let Some(c) = self.live(conn) {
            c.parked = false;
            self.touch(conn.slot);
        }
    }

    /// End `conn` with `frame`: its undispatched frames are dropped, it
    /// reads no more, and it closes once `frame` and everything queued
    /// before it are written.
    pub fn close_after(&mut self, conn: ConnId, frame: Vec<u8>) {
        let Some(c) = self.live(conn) else {
            return;
        };
        c.pending.clear();
        c.last_frame = Some(frame);
        self.touch(conn.slot);
    }

    /// Return a payload buffer for the decoder to reuse.
    pub fn recycle(&mut self, payload: Vec<u8>) {
        if self.spare_bufs.len() < SPARE_BUFFERS {
            self.spare_bufs.push(payload);
        }
    }

    /// Stop the loop once this turn is over.
    pub fn exit(&mut self) {
        self.exit = true;
    }

    fn touch(&mut self, slot: usize) {
        if let Some(Some(conn)) = self.slots.get_mut(slot) {
            if !conn.touched {
                conn.touched = true;
                self.touched.push(slot);
            }
        }
    }

    /// The slab's own footprint: every slot, live or free, is a whole
    /// `Option<Conn>`, and the slab never shrinks.
    fn slab_bytes(&self) -> usize {
        self.slots.capacity() * std::mem::size_of::<Option<Conn>>()
    }
}

/// Per-connection state machine.
struct Conn {
    socket: Stream,
    /// The generation its [`ConnId`] carries.
    epoch: u64,
    decoder: FrameDecoder,
    /// Decoded frames awaiting dispatch.
    pending: VecDeque<(u8, Vec<u8>)>,
    /// The handler parked the connection: `pending` waits.
    parked: bool,
    /// In-order encoded replies not yet on the wire; `write_pos..` is
    /// unsent.
    write_buf: Vec<u8>,
    write_pos: usize,
    /// Interest currently registered with the poller.
    interest: Interest,
    /// Reads paused by backpressure (pending queue or write buffer).
    read_paused: bool,
    /// Read side saw EOF: finish outstanding work, flush, close.
    peer_closed: bool,
    /// The frame to send last, once the frames before it are
    /// dispatched: a typed fatal frame, or the handler's
    /// [`Io::close_after`].
    last_frame: Option<Vec<u8>>,
    /// The last frame is queued: close when writes drain.
    closing: bool,
    /// Listed in `Io::touched`.
    touched: bool,
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
    accept_errors: Counter,
    opened: Counter,
    closed: Counter,
    failed: Counter,
    respond_nanos: Histogram,
}

impl LoopObs {
    fn register(registry: &Registry, prefix: &str) -> LoopObs {
        let name = |series: &str| format!("{prefix}_{series}");
        LoopObs {
            poll_wakeups: registry.counter(&name("poll_wakeups_total")),
            ready_events: registry.histogram(&name("poll_ready_events")),
            loop_turn: registry.histogram(&name("loop_turn_nanos")),
            loop_connections: registry.gauge(&name("loop_connections")),
            conn_bytes: registry.gauge(&name("loop_conn_bytes")),
            write_high_water: registry.gauge(&name("write_buffer_high_water_bytes")),
            accept_errors: registry.counter(&name("accept_errors_total")),
            opened: registry.counter(&name("connections_opened_total")),
            closed: registry.counter(&name("connections_closed_total")),
            failed: registry.counter(&name("connections_failed_total")),
            respond_nanos: registry.histogram(&name("respond_nanos")),
        }
    }
}

/// Move a gauge by the change from `old` to `new`.
fn report_delta(gauge: &Gauge, old: usize, new: usize) {
    if new >= old {
        gauge.add((new - old) as u64);
    } else {
        gauge.sub((old - new) as u64);
    }
}

/// Pull every complete frame out of a connection's decoder into its
/// pending queue; an error means the stream desynchronized.
fn drain_decoder(conn: &mut Conn, spare_bufs: &mut Vec<Vec<u8>>) -> Result<(), CheckpointError> {
    loop {
        let mut scratch = spare_bufs.pop().unwrap_or_default();
        match conn.decoder.next_frame(&mut scratch) {
            Ok(Some(op)) => conn.pending.push_back((op, scratch)),
            Ok(None) => {
                spare_bufs.push(scratch);
                return Ok(());
            }
            Err(e) => {
                spare_bufs.push(scratch);
                return Err(e);
            }
        }
    }
}

/// One framed-connection event loop over a listener, driving a
/// [`Handler`].
pub struct EventLoop<H> {
    poller: Poller,
    listener: Listener,
    /// Accepting is paused until this instant (accept-error backoff,
    /// realized as the wait timeout — never a thread sleep).
    accept_paused_until: Option<Instant>,
    io: Io,
    handler: H,
}

impl<H: Handler> EventLoop<H> {
    /// Build a loop over `listener`, registering its telemetry in
    /// `registry` under `prefix` (so a first scrape sees it before
    /// [`EventLoop::run`] starts), plus the [`Waker`] other threads use
    /// to have [`Handler::wake`] called.
    ///
    /// # Errors
    /// Poller, waker and listener-registration failures.
    pub fn new(
        listener: Listener,
        registry: &Registry,
        prefix: &str,
        handler: H,
    ) -> io::Result<(EventLoop<H>, Waker)> {
        listener.set_nonblocking(true)?;
        let poller = Poller::new()?;
        poller.register(listener.as_raw_fd(), LISTENER_TOKEN, Interest::READABLE)?;
        let waker = poller.waker(WAKER_TOKEN)?;
        let io = Io {
            slots: Vec::new(),
            free: Vec::new(),
            freed_this_batch: Vec::new(),
            spare_bufs: Vec::new(),
            epoch_counter: 0,
            open: 0,
            touched: Vec::new(),
            exit: false,
            obs: LoopObs::register(registry, prefix),
        };
        let event_loop = EventLoop {
            poller,
            listener,
            accept_paused_until: None,
            io,
            handler,
        };
        Ok((event_loop, waker))
    }

    /// Serve until the handler calls [`Io::exit`], then give each
    /// connection one non-blocking write of what it still owes, close
    /// every socket, and return the handler.
    pub fn run(mut self) -> H {
        let mut events = Events::with_capacity(EVENTS_CAPACITY);
        while !self.io.exit {
            let timeout = self
                .accept_paused_until
                .map(|t| t.saturating_duration_since(Instant::now()));
            if self.poller.wait(&mut events, timeout).is_err() {
                // A failed wait with no backoff would busy-spin; this
                // does not happen with a healthy poller fd.
                std::thread::yield_now();
            }
            let turn_start = dds_obs::maybe_now();
            self.io.obs.poll_wakeups.inc();
            self.io.obs.ready_events.observe(events.len() as u64);
            self.turn(&events);
            self.io
                .obs
                .loop_turn
                .observe(dds_obs::nanos_since(turn_start));
        }
        for conn in self.io.slots.iter_mut().flatten() {
            let _ = conn.socket.write(&conn.write_buf[conn.write_pos..]);
        }
        self.handler
    }

    /// Everything the loop does with one batch of readiness events
    /// before it waits again.
    fn turn(&mut self, events: &Events) {
        self.handler.wake(&mut self.io);
        self.settle_touched();
        if self.io.exit {
            return;
        }
        for ev in events {
            match ev.token {
                LISTENER_TOKEN => self.accept_ready(),
                WAKER_TOKEN => {} // cross-thread work runs around the batch
                Token(t) => {
                    let slot = t - FIRST_CONN;
                    if ev.is_error {
                        self.close(slot);
                    } else {
                        if ev.readable {
                            self.read_ready(slot);
                        }
                        self.io.touch(slot);
                    }
                    self.settle_touched();
                }
            }
        }
        self.handler.wake(&mut self.io);
        self.settle_touched();
        self.maybe_resume_accept();
        self.io.free.append(&mut self.io.freed_this_batch);
    }

    // -- accept ------------------------------------------------------

    fn accept_ready(&mut self) {
        if self.accept_paused_until.is_some() {
            return;
        }
        for _ in 0..ACCEPT_BATCH {
            match self.listener.accept() {
                Ok(stream) => self.install(stream),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => {
                    // EMFILE and friends: count it, pause *accepting*
                    // for a beat (via the wait timeout), keep serving
                    // every connected peer meanwhile.
                    self.io.obs.accept_errors.inc();
                    let _ = self.poller.deregister(self.listener.as_raw_fd());
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
        let _ = self.poller.register(
            self.listener.as_raw_fd(),
            LISTENER_TOKEN,
            Interest::READABLE,
        );
        // A backlog queued during the pause is still readable; don't
        // wait for the next listener event to notice it.
        self.accept_ready();
    }

    fn install(&mut self, stream: Stream) {
        let io = &mut self.io;
        if stream.set_nonblocking(true).is_err() {
            io.obs.failed.inc();
            return;
        }
        let slab_before = io.slab_bytes();
        let slot = io.free.pop().unwrap_or_else(|| {
            io.slots.push(None);
            io.slots.len() - 1
        });
        report_delta(&io.obs.conn_bytes, slab_before, io.slab_bytes());
        if self
            .poller
            .register(
                stream.as_raw_fd(),
                Token(FIRST_CONN + slot),
                Interest::READABLE,
            )
            .is_err()
        {
            io.obs.failed.inc();
            io.free.push(slot);
            return;
        }
        io.epoch_counter += 1;
        io.slots[slot] = Some(Conn {
            socket: stream,
            epoch: io.epoch_counter,
            decoder: FrameDecoder::new(),
            pending: VecDeque::new(),
            parked: false,
            write_buf: Vec::new(),
            write_pos: 0,
            interest: Interest::READABLE,
            read_paused: false,
            peer_closed: false,
            last_frame: None,
            closing: false,
            touched: false,
            reported_bytes: 0, // every buffer starts unallocated
        });
        io.open += 1;
        io.obs.loop_connections.set(io.open as u64);
        io.obs.opened.inc();
        let id = ConnId {
            slot,
            epoch: io.epoch_counter,
        };
        self.handler.opened(id);
    }

    // -- read side ---------------------------------------------------

    fn read_ready(&mut self, slot: usize) {
        let Some(conn) = self.io.slots[slot].as_mut() else {
            return;
        };
        if conn.peer_closed || conn.last_frame.is_some() || conn.closing {
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
                    if conn.decoder.is_mid_frame() {
                        // EOF inside a frame: answer a typed Truncated
                        // error, as a blocking frame reader would.
                        self.io.obs.failed.inc();
                        conn.last_frame = Some(self.handler.malformed(CheckpointError::Truncated));
                    }
                    break;
                }
                Ok(n) => {
                    conn.decoder.push(&chunk[..n]);
                    budget = budget.saturating_sub(n);
                    if let Err(e) = drain_decoder(conn, &mut self.io.spare_bufs) {
                        self.io.obs.failed.inc();
                        conn.last_frame = Some(self.handler.malformed(e));
                        break;
                    }
                    if budget == 0 {
                        break;
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => {
                    // Transport error: just close (no frame can be
                    // trusted to arrive).
                    self.close(slot);
                    return;
                }
            }
        }
    }

    /// Hand the connection's pending frames to the handler until it
    /// parks or finishes the connection.
    fn dispatch(&mut self, slot: usize) {
        loop {
            let Some(conn) = self.io.slots[slot].as_mut() else {
                return;
            };
            if conn.parked || conn.closing {
                return;
            }
            let Some((op, payload)) = conn.pending.pop_front() else {
                return;
            };
            let id = ConnId {
                slot,
                epoch: conn.epoch,
            };
            self.handler.frame(&mut self.io, id, op, payload);
        }
    }

    // -- write side --------------------------------------------------

    /// Settle every touched connection, in the order they were
    /// touched, until settling (whose frames and closes the handler
    /// hears) touches no more. In order, because a peer blocked on a
    /// reply (a site whose up was released) should not wait behind the
    /// dispatch of a connection touched after it. A connection touched
    /// while it settles is not listed again: its own flush comes after
    /// its dispatch.
    fn settle_touched(&mut self) {
        let mut next = 0;
        while let Some(&slot) = self.io.touched.get(next) {
            next += 1;
            self.settle(slot);
            if let Some(conn) = self.io.slots[slot].as_mut() {
                conn.touched = false;
            }
        }
        self.io.touched.clear();
    }

    /// Dispatch what the connection may, queue its last frame once the
    /// frames before it are answered, flush, close it if finished, and
    /// reconcile poller interest with the state machine.
    fn settle(&mut self, slot: usize) {
        self.dispatch(slot);
        let Some(conn) = self.io.slots[slot].as_mut() else {
            return;
        };
        if !conn.parked && conn.pending.is_empty() {
            if let Some(frame) = conn.last_frame.take() {
                conn.write_buf.extend_from_slice(&frame);
                conn.closing = true;
            }
        }
        if !self.flush(slot) {
            return; // the flush hit an error and closed the slot
        }
        let Some(conn) = self.io.slots[slot].as_mut() else {
            return;
        };
        let drained = conn.pending.is_empty() && !conn.parked && conn.outstanding_write() == 0;
        if drained && (conn.closing || conn.peer_closed) {
            self.close(slot);
            return;
        }
        let bytes = conn.buffer_bytes();
        report_delta(&self.io.obs.conn_bytes, conn.reported_bytes, bytes);
        conn.reported_bytes = bytes;
        self.sync_interest(slot);
    }

    /// Write what the socket takes without blocking. Returns false if
    /// the connection is gone.
    fn flush(&mut self, slot: usize) -> bool {
        let Some(conn) = self.io.slots[slot].as_mut() else {
            return false;
        };
        if conn.outstanding_write() == 0 {
            return true;
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
                    return false;
                }
                Ok(n) => conn.write_pos += n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => {
                    self.close(slot);
                    return false;
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
        self.io
            .obs
            .respond_nanos
            .observe(dds_obs::nanos_since(respond_start));
        true
    }

    // -- lifecycle ---------------------------------------------------

    fn sync_interest(&mut self, slot: usize) {
        let Some(conn) = self.io.slots[slot].as_mut() else {
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
        if !conn.read_paused && !conn.peer_closed && conn.last_frame.is_none() && !conn.closing {
            desired = desired | Interest::READABLE;
        }
        if outstanding > 0 {
            desired = desired | Interest::WRITABLE;
        }
        if desired != conn.interest
            && self
                .poller
                .modify(conn.socket.as_raw_fd(), Token(FIRST_CONN + slot), desired)
                .is_ok()
        {
            conn.interest = desired;
        }
    }

    fn close(&mut self, slot: usize) {
        let Some(conn) = self.io.slots.get_mut(slot).and_then(Option::take) else {
            return;
        };
        let _ = self.poller.deregister(conn.socket.as_raw_fd());
        let io = &mut self.io;
        io.obs.conn_bytes.sub(conn.reported_bytes as u64);
        let id = ConnId {
            slot,
            epoch: conn.epoch,
        };
        drop(conn); // closes the socket
        io.open -= 1;
        io.obs.loop_connections.set(io.open as u64);
        io.obs.closed.inc();
        // Reusable only after this event batch: stale events for this
        // slot may still sit in the current batch.
        io.freed_this_batch.push(slot);
        self.handler.closed(io, id);
    }
}

#[cfg(test)]
mod tests {
    use std::os::unix::net::UnixStream;
    use std::sync::atomic::Ordering;
    use std::sync::{mpsc, Arc};

    use dds_core::sampler::{SamplerKind, SamplerSpec};
    use dds_engine::{Engine, EngineConfig, TenantId};
    use dds_proto::message::{opcode, Request, Response};
    use dds_proto::EngineHost;
    use dds_sim::Element;

    use super::*;
    use crate::server::{Serve, Shared};

    /// The engine server's loop over a one-shard engine, turned by hand
    /// instead of `run`. Every request it sees executes inline, so it
    /// needs no worker pool.
    fn hand_turned_loop() -> EventLoop<Serve> {
        let spec = SamplerSpec::new(SamplerKind::Infinite, 8, 4_243);
        let engine = Engine::spawn(EngineConfig::new(spec).with_shards(1));
        let shared = Arc::new(Shared::new(Arc::new(EngineHost::new(engine))));
        let listener = Listener::bind_tcp("127.0.0.1:0").expect("bind");
        let (job_tx, _) = mpsc::channel();
        let (_, done_rx) = mpsc::channel();
        let registry = Arc::clone(&shared.registry);
        let serve = Serve::new(shared, job_tx, done_rx);
        EventLoop::new(listener, &registry, "server", serve)
            .expect("loop")
            .0
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
        let bytes_read = |el: &EventLoop<Serve>| {
            let conn = el.io.slots[slot].as_ref().expect("connection stays open");
            el.handler
                .shared
                .counters
                .bytes_received
                .load(Ordering::Relaxed) as usize
                + conn.decoder.buffered_bytes()
        };
        let requests =
            |el: &EventLoop<Serve>| el.handler.shared.counters.requests.load(Ordering::Relaxed);

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
        let Ok(Response::Goodbye { report }) = el.handler.shared.service.call(Request::Shutdown)
        else {
            panic!("engine shuts down");
        };
        // Engine metrics are telemetry: an obs-noop build reads 0.
        if !dds_obs::IS_NOOP {
            assert_eq!(report.metrics.total_elements(), frames.len() as u64 * 64);
        }
    }
}
