//! The end-to-end wire contract: a [`Client`]-driven engine behind a
//! real socket is **exactly** the in-process engine.
//!
//! Every suite runs the same traffic through a served engine (TCP
//! loopback or Unix socket) and an in-process twin built from the same
//! spec, then demands byte-exact agreement — samples at every query
//! point, per-tenant protocol message counts, memory, and engine
//! metrics — for infinite- and sliding-window sampler kinds. Traffic
//! itself is byte-accounted: the client's `bytes_sent` must equal the
//! server's `bytes_received` exactly (frame overhead included), the
//! served analogue of the paper's message counters.

use std::sync::Arc;

use dds_core::sampler::{SamplerKind, SamplerSpec};
use dds_data::{MultiTenantStream, TraceProfile};
use dds_engine::{Engine, EngineConfig, EngineError, TenantId};
use dds_proto::{EngineHost, EngineService, Request, Response};
use dds_server::{Client, Server};
use dds_sim::{Element, Slot};

fn infinite_spec() -> SamplerSpec {
    SamplerSpec::new(SamplerKind::Infinite, 8, 20_260_728)
}

fn sliding_spec() -> SamplerSpec {
    SamplerSpec::new(SamplerKind::Sliding { window: 16 }, 1, 515)
}

/// Serve `spec` over loopback TCP; return the running server and a
/// connected client.
fn serve(spec: SamplerSpec, shards: usize) -> (Server, Client) {
    let engine = Engine::spawn(EngineConfig::new(spec).with_shards(shards));
    let server = Server::bind_tcp("127.0.0.1:0", Arc::new(EngineHost::new(engine))).expect("bind");
    let addr = server.local_addr().expect("tcp endpoint");
    let client = Client::connect_tcp(addr).expect("connect");
    (server, client)
}

/// Feed: multi-tenant trace with shared element ids so tenants collide
/// on identity (any cross-tenant leakage over the wire would corrupt a
/// sample).
fn feed(tenants: u64, seed: u64) -> Vec<(TenantId, Element)> {
    let per_tenant = TraceProfile {
        name: "loopback",
        total: 60,
        distinct: 25,
    };
    MultiTenantStream::new(tenants, per_tenant, seed)
        .with_shared_ids(200)
        .map(|(t, e)| (TenantId(t), e))
        .collect()
}

#[test]
fn infinite_kind_is_byte_exact_with_in_process_twin() {
    const TENANTS: u64 = 120;
    let (server, client) = serve(infinite_spec(), 4);
    let client = client.with_batch_capacity(64);
    let twin = Engine::spawn(EngineConfig::new(infinite_spec()).with_shards(4));

    for (t, e) in feed(TENANTS, 9) {
        client.observe(t, e).expect("wire ingest");
        twin.observe(t, e);
    }
    client.flush().expect("wire barrier");
    twin.flush();

    // Sample parity for every tenant, plus full views: the message
    // counter inside each tenant's sampler must agree exactly — the
    // wire transport may not change what the protocol "would have sent".
    for t in 0..TENANTS {
        let remote = client.snapshot(TenantId(t)).expect("tenant hosted");
        assert_eq!(remote, twin.snapshot(TenantId(t)).expect("twin hosts"));
        let rv = client.snapshot_view(TenantId(t), None).expect("view");
        let tv = twin.snapshot_view(TenantId(t), None).expect("twin view");
        assert_eq!(rv, tv, "tenant {t} views diverged");
    }

    // Census parity in one request.
    assert_eq!(client.snapshot_all().expect("census"), twin.snapshot_all());

    // Engine metrics parity (same elements, batches differ by batching
    // shape — compare the content-determined aggregates).
    let remote_metrics = client.metrics().expect("metrics");
    let twin_metrics = twin.metrics();
    assert_eq!(
        remote_metrics.total_elements(),
        twin_metrics.total_elements()
    );
    assert_eq!(remote_metrics.tenants(), twin_metrics.tenants());

    // Byte accounting: client and server counted the same frames.
    let cs = client.stats();
    let ss = server.stats();
    assert_eq!(cs.bytes_sent, ss.bytes_received, "request bytes disagree");
    assert_eq!(cs.bytes_received, ss.bytes_sent, "response bytes disagree");
    assert_eq!(cs.elements_observed, TENANTS * 60);
    assert!(
        cs.acks_pending == 0,
        "synchronous queries must drain the pipeline"
    );

    let _ = twin.shutdown();
    let _ = client.shutdown_engine().expect("served engine stops");
    let _ = server.shutdown();
}

#[test]
fn sliding_kind_is_byte_exact_at_every_query_point() {
    const TENANTS: u64 = 80;
    let (server, client) = serve(sliding_spec(), 3);
    let twin = Engine::spawn(EngineConfig::new(sliding_spec()).with_shards(3));

    let per_tenant = TraceProfile {
        name: "loopback-sliding",
        total: 50,
        distinct: 20,
    };
    let slotted = MultiTenantStream::new(TENANTS, per_tenant, 77)
        .with_shared_ids(150)
        .slotted(100);
    let mut last = Slot(0);
    for (slot, batch) in slotted {
        let batch: Vec<(TenantId, Element)> =
            batch.into_iter().map(|(t, e)| (TenantId(t), e)).collect();
        client
            .observe_batch_at(slot, batch.iter().copied())
            .expect("wire ingest");
        twin.observe_batch_at(slot, batch);
        last = slot;
        // Sparse mid-stream checks: exact agreement *during* the
        // stream, not only at the end.
        if slot.0 % 7 == 0 {
            let probe = TenantId(slot.0 % TENANTS);
            assert_eq!(
                client.snapshot_at(probe, slot).expect("hosted"),
                twin.snapshot_at(probe, slot).expect("twin hosts"),
                "mid-stream divergence at {slot:?}"
            );
        }
    }

    // Windowed census: everything alive at `last`, then everything
    // expired once the clock passes every window.
    assert_eq!(
        client.snapshot_all_at(last).expect("census"),
        twin.snapshot_all_at(last)
    );
    let beyond = Slot(last.0 + 1_000);
    client.advance(beyond).expect("advance");
    twin.advance(beyond);
    client.flush().expect("barrier");
    twin.flush();
    for (t, sample) in client.snapshot_all().expect("census") {
        assert!(sample.is_empty(), "tenant {} survived the window", t.0);
    }
    assert_eq!(
        client.metrics().expect("metrics").total_evictions(),
        twin.metrics().total_evictions(),
        "eviction parity"
    );

    let _ = twin.shutdown();
    let _ = client.shutdown_engine().expect("served engine stops");
    let _ = server.shutdown();
}

#[test]
fn typed_errors_travel_the_wire() {
    let (server, client) = serve(infinite_spec(), 2);
    client.observe(TenantId(1), Element(5)).expect("ingest");
    client.flush().expect("barrier");

    // Unknown tenant: the same typed error an in-process caller gets.
    assert_eq!(
        client.snapshot(TenantId(404)),
        Err(EngineError::UnknownTenant(TenantId(404)))
    );

    // Shutdown, then everything answers ShutDown — across the wire.
    let report = client.shutdown_engine().expect("stops");
    if !dds_obs::IS_NOOP {
        assert_eq!(report.metrics.total_elements(), 1);
    }
    assert_eq!(client.snapshot(TenantId(1)), Err(EngineError::ShutDown));
    assert_eq!(
        client
            .observe(TenantId(1), Element(6))
            .and_then(|()| client.flush()),
        Err(EngineError::ShutDown),
        "pipelined ingest surfaces the deferred shutdown error"
    );
    assert_eq!(client.shutdown_engine(), Err(EngineError::ShutDown));
    let _ = server.shutdown();
}

#[test]
fn checkpoint_and_restore_roundtrip_over_the_wire() {
    let (server, client) = serve(infinite_spec(), 2);
    for (t, e) in feed(40, 3) {
        client.observe(t, e).expect("ingest");
    }
    let want = client.snapshot(TenantId(7)).expect("hosted");
    let document = client.checkpoint().expect("checkpoint travels");

    // Keep mutating, then roll back: the document restores the exact
    // pre-mutation state, remotely.
    client.observe(TenantId(7), Element(9_999)).expect("ingest");
    client.restore(&document).expect("restore travels");
    assert_eq!(client.snapshot(TenantId(7)).expect("hosted"), want);

    // The same document restores in-process to the same samples: the
    // wire carries checkpoints losslessly.
    let local = Engine::restore(&document).expect("document valid");
    assert_eq!(local.snapshot(TenantId(7)).expect("hosted"), want);
    let _ = local.shutdown();

    // A corrupt document is rejected with a Format error and the
    // served engine keeps serving.
    let mut bad = document.clone();
    bad[10] ^= 0x40;
    assert!(matches!(client.restore(&bad), Err(EngineError::Format(_))));
    assert_eq!(client.snapshot(TenantId(7)).expect("still serving"), want);

    let _ = client.shutdown_engine().expect("stops");
    let _ = server.shutdown();
}

#[test]
fn pipelining_many_clients_and_graceful_shutdown() {
    const CLIENTS: usize = 4;
    const PER_CLIENT: u64 = 2_000;
    let (server, probe) = serve(infinite_spec(), 4);
    let addr = server.local_addr().expect("tcp endpoint");

    let workers: Vec<_> = (0..CLIENTS)
        .map(|c| {
            std::thread::spawn(move || {
                let client = Client::connect_tcp(addr)
                    .expect("connect")
                    .with_batch_capacity(128);
                for i in 0..PER_CLIENT {
                    // Disjoint tenant ranges per client; shared element
                    // ids.
                    client
                        .observe(TenantId(c as u64 * 100 + i % 10), Element(i % 50))
                        .expect("ingest");
                }
                client.flush().expect("barrier");
                let stats = client.stats();
                assert_eq!(stats.acks_pending, 0);
                // 128-element batching: ingest frames ≈ elements / 128.
                assert!(
                    stats.requests_sent <= PER_CLIENT / 128 + 2,
                    "batching did not amortize: {} frames",
                    stats.requests_sent
                );
                stats.bytes_sent + stats.bytes_received
            })
        })
        .collect();
    let mut client_bytes: u64 = 0;
    for worker in workers {
        client_bytes += worker.join().expect("worker succeeds");
    }

    // All four clients' traffic landed in one engine.
    let metrics = probe.metrics().expect("metrics");
    if !dds_obs::IS_NOOP {
        assert_eq!(metrics.total_elements(), CLIENTS as u64 * PER_CLIENT);
    }

    // Server-side byte accounting covers every connection (the probe's
    // own traffic included).
    let ss = server.stats();
    let ps = probe.stats();
    assert_eq!(
        ss.bytes_received + ss.bytes_sent,
        client_bytes + ps.bytes_sent + ps.bytes_received,
        "byte accounting must cover all connections exactly"
    );
    assert_eq!(ss.connections as usize, CLIENTS + 1);

    // Graceful shutdown with a live connection open: server closes it;
    // the probe then reports a transport error, not a hang.
    let _ = server.shutdown();
    assert!(matches!(
        probe.snapshot(TenantId(0)),
        Err(EngineError::Transport(_))
    ));
}

#[cfg(unix)]
#[test]
fn unix_socket_serves_the_same_protocol() {
    let dir = std::env::temp_dir().join(format!("dds-wire-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("tmp dir");
    let path = dir.join("engine.sock");
    let engine = Engine::spawn(EngineConfig::new(infinite_spec()).with_shards(2));
    let server = Server::bind_unix(&path, Arc::new(EngineHost::new(engine))).expect("bind unix");
    let client = Client::connect_unix(&path)
        .expect("connect unix")
        .with_batch_capacity(32);
    let twin = Engine::spawn(EngineConfig::new(infinite_spec()).with_shards(2));
    for (t, e) in feed(30, 5) {
        client.observe(t, e).expect("ingest");
        twin.observe(t, e);
    }
    client.flush().expect("barrier");
    for t in 0..30 {
        assert_eq!(
            client.snapshot(TenantId(t)).expect("hosted"),
            twin.snapshot(TenantId(t)).expect("twin hosts")
        );
    }
    let _ = twin.shutdown();
    let _ = client.shutdown_engine().expect("stops");
    let _ = server.shutdown();
    assert!(!path.exists(), "socket file cleaned up");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn telemetry_over_the_wire_matches_the_in_process_registry() {
    const TENANTS: u64 = 50;
    let engine = Engine::spawn(EngineConfig::new(infinite_spec()).with_shards(4));
    let host = Arc::new(EngineHost::new(engine));
    let service: Arc<dyn EngineService> = host.clone();
    let server = Server::bind_tcp("127.0.0.1:0", service).expect("bind");
    let addr = server.local_addr().expect("tcp endpoint");
    let client = Client::connect_tcp(addr)
        .expect("connect")
        .with_batch_capacity(64);

    for (t, e) in feed(TENANTS, 21) {
        client.observe(t, e).expect("ingest");
    }
    client.flush().expect("barrier");

    // One request: the engine's registry plus the server's own metrics,
    // merged into a single snapshot.
    let wire = client.telemetry().expect("telemetry travels");
    let local = match host.call(Request::Telemetry).expect("in-process telemetry") {
        Response::Telemetry { snapshot } => snapshot,
        other => panic!("unexpected outcome {other:?}"),
    };

    // The engine section of the wire snapshot must be *identical* to
    // what the in-process registry reports — same counters, same
    // histogram buckets, same per-shard labels. Rendered text is a
    // deterministic serialization of all of that.
    let engine_lines = |text: &str| -> Vec<String> {
        text.lines()
            .filter(|l| l.contains("engine_"))
            .map(str::to_owned)
            .collect()
    };
    assert_eq!(
        engine_lines(&wire.render_text()),
        engine_lines(&local.render_text()),
        "wire-fetched engine telemetry diverged from the in-process registry"
    );

    if !dds_obs::IS_NOOP {
        // Counters agree with the metrics endpoint (two independent
        // read paths over the same shard cells).
        let metrics = client.metrics().expect("metrics");
        assert_eq!(
            wire.counter_total("engine_elements_total"),
            metrics.total_elements()
        );
        assert_eq!(
            wire.counter_total("engine_batches_total"),
            metrics.total_batches()
        );
        // The server section rode along in the same reply.
        assert_eq!(
            wire.counter_value("server_connections_opened_total", &[]),
            Some(1)
        );
        assert!(
            wire.counter_total("server_frames_total") > 0,
            "per-opcode frame accounting missing"
        );
        assert!(
            wire.histogram("server_handle_nanos", &[])
                .is_some_and(|h| h.hist.count > 0),
            "handle latency histogram missing"
        );
        // The in-process snapshot has no server section — it never
        // crossed the wire.
        assert_eq!(
            local.counter_value("server_connections_opened_total", &[]),
            None
        );
    }

    let _ = client.shutdown_engine().expect("stops");
    let _ = server.shutdown();
}

#[test]
fn failed_handshake_increments_the_failure_counter() {
    use std::io::{Read, Write};

    // Regression: the server used to back off on accept errors and drop
    // garbage connections without counting either. A connection that
    // fails its first frame must show up in telemetry.
    let (server, client) = serve(infinite_spec(), 2);
    let addr = server.local_addr().expect("tcp endpoint");

    let mut garbage = std::net::TcpStream::connect(addr).expect("connect raw");
    garbage
        .write_all(b"NOT-A-DDSP-FRAME-AT-ALL-0123456789")
        .expect("write garbage");
    garbage
        .shutdown(std::net::Shutdown::Write)
        .expect("half-close");
    // Wait for the error reply — the counter is incremented before the
    // server answers, so once bytes arrive the failure is recorded.
    // (No EOF wait: the server's connection registry keeps a keeper fd
    // open until shutdown.)
    let mut first = [0u8; 64];
    let n = garbage.read(&mut first).expect("error reply");
    assert!(n > 0, "server closed without answering");

    if !dds_obs::IS_NOOP {
        // The handler thread races this assertion; poll briefly.
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
        loop {
            let snap = server.telemetry();
            if snap.counter_value("server_connections_failed_total", &[]) == Some(1) {
                // The probe client plus the garbage connection.
                assert_eq!(
                    snap.counter_value("server_connections_opened_total", &[]),
                    Some(2)
                );
                break;
            }
            assert!(
                std::time::Instant::now() < deadline,
                "failed handshake never counted: {}",
                snap.render_text()
            );
            std::thread::sleep(std::time::Duration::from_millis(10));
        }
    }

    let _ = client.shutdown_engine().expect("stops");
    let _ = server.shutdown();
}

#[test]
fn unbounded_unbatched_ingest_does_not_deadlock() {
    // Regression: a caller that only ingests never reads; without the
    // client's ack window the server's ack backlog eventually fills
    // both socket buffers and the connection deadlocks. 60 000
    // unbatched observes (60 000 ack frames) is far past where that
    // bites.
    let (server, client) = serve(infinite_spec(), 2);
    for i in 0..60_000u64 {
        client
            .observe(TenantId(i % 40), Element(i % 300))
            .expect("ingest never stalls");
    }
    client.flush().expect("barrier");
    let stats = client.stats();
    assert_eq!(stats.acks_pending, 0);
    assert_eq!(stats.elements_observed, 60_000);
    let metrics = client.metrics().expect("metrics");
    if !dds_obs::IS_NOOP {
        assert_eq!(metrics.total_elements(), 60_000);
    }
    let _ = client.shutdown_engine().expect("stops");
    let _ = server.shutdown();
}

#[test]
fn a_remote_service_is_indistinguishable_through_the_trait() {
    // The point of the redesign: code generic over `dyn EngineService`
    // works identically against an in-process engine and a socket.
    fn exercise(service: &dyn EngineService) -> Vec<Element> {
        for i in 0..200u64 {
            let response = service
                .call(Request::Observe {
                    tenant: TenantId(i % 5),
                    element: Element(i % 40),
                })
                .expect("ingest accepted");
            assert_eq!(response, Response::Ack);
        }
        match service.call(Request::Snapshot {
            tenant: TenantId(2),
        }) {
            Ok(Response::Sample { sample }) => sample,
            other => panic!("unexpected outcome {other:?}"),
        }
    }

    let local = Engine::spawn(EngineConfig::new(infinite_spec()).with_shards(2));
    let local_sample = exercise(&local);

    let (server, client) = serve(infinite_spec(), 2);
    let remote_sample = exercise(&client);

    assert_eq!(local_sample, remote_sample);
    let _ = local.shutdown();
    let _ = client.shutdown_engine().expect("stops");
    let _ = server.shutdown();
}

/// Time robustness over the wire: a served engine with a lateness
/// horizon refuses beyond-horizon data with the typed error (surfaced
/// through the pipelined ack stream), counts the drop, and exposes it
/// through both wire-fetched observability surfaces — never silently
/// re-stamping the element.
#[test]
fn late_data_is_refused_and_observable_over_the_wire() {
    let engine = Engine::spawn(
        EngineConfig::new(sliding_spec())
            .with_shards(2)
            .with_lateness(8),
    );
    let server = Server::bind_tcp("127.0.0.1:0", Arc::new(EngineHost::new(engine))).expect("bind");
    let client = Client::connect_tcp(server.local_addr().expect("tcp endpoint")).expect("connect");

    client
        .observe_at(TenantId(1), Element(5), Slot(100))
        .expect("in-horizon ingest");
    client.flush().expect("barrier publishes the watermark");

    // Beyond the horizon: the send itself pipelines fine; the typed
    // refusal surfaces at the next synchronous barrier.
    client
        .observe_at(TenantId(1), Element(6), Slot(50))
        .expect("pipelined send");
    let err = client
        .flush()
        .expect_err("deferred LateData must outrank the barrier ack");
    assert_eq!(
        err,
        EngineError::LateData {
            slot: Slot(50),
            watermark: Slot(100),
        }
    );

    // The drop is visible in the structured metrics endpoint…
    let metrics = client.metrics().expect("metrics");
    if !dds_obs::IS_NOOP {
        assert_eq!(metrics.total_late_dropped(), 1);
    }
    // …and in the scrape-shaped telemetry exposition.
    let text = client.telemetry_text().expect("telemetry");
    assert!(
        text.contains("engine_late_dropped_total"),
        "late-drop counter missing from wire telemetry:\n{text}"
    );

    // The refused element never polluted the sample.
    assert_eq!(
        client.snapshot(TenantId(1)).expect("hosted"),
        vec![Element(5)]
    );
    let _ = client.shutdown_engine().expect("served engine stops");
    let _ = server.shutdown();
}
