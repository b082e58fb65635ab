//! The event loop's own contract suite: byte-exactness with an
//! in-process twin under an explicit worker count, pipelining through
//! the loop, many idle connections on one listener, the
//! connection-bytes gauge, malformed-frame handling, a request that
//! panics in the service, and the loop's reactor telemetry.

use std::sync::Arc;
use std::time::Duration;

use dds_core::sampler::{SamplerKind, SamplerSpec};
use dds_data::{MultiTenantStream, TraceProfile};
use dds_engine::{Engine, EngineConfig, EngineError, TenantId};
use dds_proto::{EngineHost, EngineService, Request, Response};
use dds_server::{Client, Server, ServerConfig};
use dds_sim::{Element, Slot};

fn infinite_spec() -> SamplerSpec {
    SamplerSpec::new(SamplerKind::Infinite, 8, 20_260_728)
}

fn serve_evented(spec: SamplerSpec, shards: usize) -> (Server, Client) {
    let engine = Engine::spawn(EngineConfig::new(spec).with_shards(shards));
    let server = Server::bind_tcp_with(
        "127.0.0.1:0",
        Arc::new(EngineHost::new(engine)),
        ServerConfig::Evented { workers: 2 },
    )
    .expect("bind");
    let addr = server.local_addr().expect("tcp endpoint");
    let client = Client::connect_tcp(addr).expect("connect");
    (server, client)
}

fn feed(tenants: u64, seed: u64) -> Vec<(TenantId, Element)> {
    let per_tenant = TraceProfile {
        name: "evented-loopback",
        total: 60,
        distinct: 25,
    };
    MultiTenantStream::new(tenants, per_tenant, seed)
        .with_shared_ids(200)
        .map(|(t, e)| (TenantId(t), e))
        .collect()
}

#[test]
fn evented_server_is_byte_exact_with_in_process_twin() {
    const TENANTS: u64 = 120;
    let (server, client) = serve_evented(infinite_spec(), 4);
    let client = client.with_batch_capacity(64);
    let twin = Engine::spawn(EngineConfig::new(infinite_spec()).with_shards(4));

    for (t, e) in feed(TENANTS, 9) {
        client.observe(t, e).expect("wire ingest");
        twin.observe(t, e);
    }
    client.flush().expect("wire barrier");
    twin.flush();

    for t in 0..TENANTS {
        let remote = client.snapshot(TenantId(t)).expect("tenant hosted");
        assert_eq!(remote, twin.snapshot(TenantId(t)).expect("twin hosts"));
        let rv = client.snapshot_view(TenantId(t), None).expect("view");
        let tv = twin.snapshot_view(TenantId(t), None).expect("twin view");
        assert_eq!(rv, tv, "tenant {t} views diverged");
    }
    assert_eq!(client.snapshot_all().expect("census"), twin.snapshot_all());

    let remote_metrics = client.metrics().expect("metrics");
    let twin_metrics = twin.metrics();
    assert_eq!(
        remote_metrics.total_elements(),
        twin_metrics.total_elements()
    );
    assert_eq!(remote_metrics.tenants(), twin_metrics.tenants());

    // Byte accounting holds through the event loop: client and server
    // counted the same frames.
    let cs = client.stats();
    let ss = server.stats();
    assert_eq!(cs.bytes_sent, ss.bytes_received, "request bytes disagree");
    assert_eq!(cs.bytes_received, ss.bytes_sent, "response bytes disagree");
    assert_eq!(cs.elements_observed, TENANTS * 60);

    let _ = twin.shutdown();
    let _ = client.shutdown_engine().expect("served engine stops");
    let _ = server.shutdown();
}

#[test]
fn many_idle_connections_stay_live_on_one_listener() {
    let engine = Engine::spawn(EngineConfig::new(infinite_spec()));
    let server = Server::bind_tcp_with(
        "127.0.0.1:0",
        Arc::new(EngineHost::new(engine)),
        ServerConfig::Evented { workers: 1 },
    )
    .expect("bind");
    let addr = server.local_addr().expect("addr");

    // A crowd of idle clients, then one active client doing real work
    // through the same loop.
    let idle: Vec<Client> = (0..256)
        .map(|_| Client::connect_tcp(addr).expect("idle connect"))
        .collect();
    let active = Client::connect_tcp(addr).expect("active connect");
    for x in 0..500u64 {
        active.observe(TenantId(x % 7), Element(x)).expect("ingest");
    }
    active.flush().expect("barrier");
    assert_eq!(active.snapshot(TenantId(3)).expect("snapshot").len(), 8);

    // Every idle connection still answers a request.
    for (i, c) in idle.iter().enumerate() {
        assert!(
            c.metrics().is_ok(),
            "idle connection {i} died while another was served"
        );
    }

    // The loop's gauge sees the whole crowd (an obs-noop build has no
    // gauge to read).
    if !dds_obs::IS_NOOP {
        let page = server.telemetry().render_text();
        let gauge_line = page
            .lines()
            .find(|l| l.starts_with("server_loop_connections"))
            .expect("loop connection gauge exported");
        let count: u64 = gauge_line
            .rsplit(' ')
            .next()
            .expect("gauge value")
            .parse()
            .expect("numeric gauge");
        assert!(count >= 257, "gauge shows {count}, expected >= 257");
    }

    drop(idle);
    drop(active);
    let _ = server.shutdown();
}

/// Poll a server gauge until `done` accepts it (the loop updates it on
/// its own thread), or fail naming what it last read. The loop's
/// gauges are registered by the time `bind_*` returns. An obs-noop
/// build has no gauge to read: it reads 0 and waits for nothing.
fn await_gauge(server: &Server, name: &str, what: &str, done: impl Fn(u64) -> bool) -> u64 {
    if dds_obs::IS_NOOP {
        return 0;
    }
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    loop {
        let value = server
            .telemetry()
            .gauge_value(name, &[])
            .expect("loop gauges are registered at bind");
        if done(value) {
            return value;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "{name} stuck at {value}, waiting for {what}"
        );
        std::thread::yield_now();
    }
}

#[test]
fn connection_bytes_gauge_counts_idle_connections_and_returns_on_close() {
    use std::io::Write;

    /// A slab slot holds a socket, a decoder, a pending queue, a write
    /// buffer and their bookkeeping: far more than this.
    const SLOT_FLOOR: u64 = 64;
    const N: u64 = 200;
    let engine = Engine::spawn(EngineConfig::new(infinite_spec()));
    let server = Server::bind_tcp_with(
        "127.0.0.1:0",
        Arc::new(EngineHost::new(engine)),
        ServerConfig::Evented { workers: 1 },
    )
    .expect("bind");
    let addr = server.local_addr().expect("addr");
    let baseline = await_gauge(&server, "server_loop_conn_bytes", "a reading", |_| true);

    // An idle crowd that sent nothing holds no buffers: the rise is the
    // slab alone, at least one slot per connection.
    let mut idle: Vec<std::net::TcpStream> = (0..N)
        .map(|_| std::net::TcpStream::connect(addr).expect("idle connect"))
        .collect();
    await_gauge(&server, "server_loop_connections", "the crowd", |n| n == N);
    let slab = await_gauge(&server, "server_loop_conn_bytes", "the slab", |b| {
        b >= baseline + N * SLOT_FLOOR
    });

    // Half a header each: every decoder now buffers bytes.
    for s in &mut idle {
        s.write_all(&[0u8; 5]).expect("partial header");
    }
    await_gauge(&server, "server_loop_conn_bytes", "decoder buffers", |b| {
        b >= slab + N * 5
    });

    // Closing returns every connection's bytes; the slab keeps its
    // capacity, so the gauge settles exactly where the crowd put it.
    drop(idle);
    await_gauge(&server, "server_loop_connections", "the closes", |n| n == 0);
    await_gauge(&server, "server_loop_conn_bytes", "the slab alone", |b| {
        b == slab
    });
    let _ = server.shutdown();
}

#[test]
fn malformed_frame_gets_typed_error_then_close() {
    use std::io::{Read, Write};

    let engine = Engine::spawn(EngineConfig::new(infinite_spec()));
    let server = Server::bind_tcp_with(
        "127.0.0.1:0",
        Arc::new(EngineHost::new(engine)),
        ServerConfig::Evented { workers: 1 },
    )
    .expect("bind");
    let addr = server.local_addr().expect("addr");

    let mut raw = std::net::TcpStream::connect(addr).expect("connect");
    raw.write_all(b"GET / HTTP/1.1\r\n\r\n")
        .expect("write junk");
    // The server answers exactly one typed error frame, then closes.
    let mut reply = Vec::new();
    raw.read_to_end(&mut reply).expect("read until close");
    let (op, _payload) = dds_proto::frame::decode_frame(&reply).expect("one well-formed frame");
    assert_eq!(op, dds_proto::opcode::ERROR);

    // The loop is unharmed: a real client still gets served.
    let client = Client::connect_tcp(addr).expect("connect");
    client.metrics().expect("server alive after garbage peer");
    let _ = server.shutdown();
}

/// An engine whose `Snapshot` (run on a pool worker) and `Advance`
/// (run inline on the loop) panic; every other request is served.
struct PanickingService(Engine);

impl EngineService for PanickingService {
    fn call(&self, request: Request) -> Result<Response, EngineError> {
        match request {
            Request::Snapshot { .. } => panic!("snapshot blew up"),
            Request::Advance { .. } => panic!("advance blew up"),
            other => self.0.call(other),
        }
    }
}

#[test]
fn a_panicking_request_is_answered_and_its_connection_keeps_serving() {
    let engine = Engine::spawn(EngineConfig::new(infinite_spec()).with_shards(1));
    // One worker: if a panic cost the pool its worker, every later
    // pooled request would hang.
    let server = Server::bind_tcp_with(
        "127.0.0.1:0",
        Arc::new(PanickingService(engine)),
        ServerConfig::Evented { workers: 1 },
    )
    .expect("bind");
    let addr = server.local_addr().expect("addr");

    // The exchange runs on its own thread and the test waits with a
    // deadline, so a hung connection fails the test instead of hanging
    // the suite.
    let (done, outcome) = std::sync::mpsc::channel();
    let exchange = std::thread::spawn(move || {
        let first = Client::connect_tcp(addr).expect("connect");
        first.observe(TenantId(1), Element(7)).expect("ingest");
        first.flush().expect("barrier");
        let pooled = first.snapshot(TenantId(1));
        let inline = first.call_remote(&Request::Advance { now: Slot(3) });
        let same_connection = first.snapshot_all().map(|census| census.len());
        let second = Client::connect_tcp(addr).expect("second connect");
        let other_connection = second.snapshot_all().map(|census| census.len());
        let _ = done.send((pooled, inline, same_connection, other_connection));
    });
    let (pooled, inline, same_connection, other_connection) = outcome
        .recv_timeout(Duration::from_secs(20))
        .expect("a panicking request hung its connection");
    exchange.join().expect("the exchange thread finishes");

    fn answered<T>(outcome: &Result<T, EngineError>, what: &str) -> bool {
        matches!(outcome, Err(EngineError::Unsupported(m)) if m.contains(what))
    }
    assert!(answered(&pooled, "snapshot blew up"), "{pooled:?}");
    assert!(answered(&inline, "advance blew up"), "{inline:?}");
    assert_eq!(same_connection, Ok(1), "the worker and connection live");
    assert_eq!(other_connection, Ok(1), "a second connection is served");
    if !dds_obs::IS_NOOP {
        assert_eq!(
            server
                .telemetry()
                .counter_value("server_request_panics_total", &[]),
            Some(2)
        );
    }
    let _ = server.shutdown();
}

#[test]
fn reactor_telemetry_is_exported_and_merged_over_the_wire() {
    let (server, client) = serve_evented(infinite_spec(), 1);
    for x in 0..200u64 {
        client.observe(TenantId(0), Element(x)).expect("ingest");
    }
    client.flush().expect("barrier");

    // Local scrape: the loop's own instruments are registered.
    let page = server.telemetry().render_text();
    for name in [
        "server_poll_wakeups_total",
        "server_poll_ready_events",
        "server_loop_turn_nanos",
        "server_loop_connections",
        "server_loop_conn_bytes",
        "server_write_buffer_high_water_bytes",
    ] {
        assert!(page.contains(name), "missing {name} in:\n{page}");
    }

    // Remote scrape: a Telemetry request merges the same registry into
    // its reply, so the wire view includes the reactor metrics too.
    let snapshot = client.telemetry().expect("telemetry over the wire");
    let wire_page = snapshot.render_text();
    assert!(wire_page.contains("server_poll_wakeups_total"));
    assert!(wire_page.contains("server_loop_connections"));

    let _ = server.shutdown();
}
