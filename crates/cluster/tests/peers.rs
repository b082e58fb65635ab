//! The coordinator's connections hold it to the same rules as the
//! engine server's: a control peer that pipelines requests and never
//! reads its replies is throttled by backpressure instead of growing
//! the coordinator's memory; shutting the coordinator down never waits
//! on such a peer; a malformed frame, or a site's up of another protocol
//! kind, is answered with one typed error before the connection closes;
//! and the scrape carries the loop's series under `cluster_`. Every
//! assertion is made from the peer's side of the socket, on series
//! names or on membership, never on a telemetry value, so the suite
//! holds with telemetry compiled out.

use std::io::{ErrorKind, Read, Write};
use std::os::unix::net::UnixStream;
use std::sync::mpsc;
use std::time::{Duration, Instant};

use dds_cluster::ClusterCoordinator;
use dds_core::sampler::{SamplerKind, SamplerSpec};
use dds_proto::cluster::{ClusterError, ClusterRequest, ClusterResponse, ClusterSpec, SiteUp};
use dds_proto::decode_outcome;
use dds_proto::frame::read_frame;
use dds_sim::{Element, SiteId, Slot};

/// Bytes of pipelined requests a throttled peer must not get past.
const STALL_BEFORE: usize = 4 << 20;
/// How long the peer's writes must keep failing to count as a stall.
const STALL_FOR: Duration = Duration::from_secs(1);

fn spec() -> ClusterSpec {
    ClusterSpec::new(SamplerSpec::new(SamplerKind::Infinite, 4, 2_323), 2)
}

fn coordinator(name: &str) -> ClusterCoordinator {
    let path = std::env::temp_dir().join(format!("dds-peers-{name}-{}.sock", std::process::id()));
    ClusterCoordinator::bind_unix(path, spec()).expect("bind")
}

/// Dial the coordinator and complete a handshake.
fn dial(coordinator: &ClusterCoordinator, hello: &ClusterRequest) -> UnixStream {
    let mut stream = coordinator.endpoint().connect().expect("dial");
    stream.write_all(&hello.encode()).expect("handshake");
    let (op, payload) = read_frame(&mut stream).expect("welcome").expect("reply");
    assert!(matches!(
        decode_outcome::<ClusterResponse, ClusterError>(op, &payload),
        Ok(Ok(ClusterResponse::Welcome { k: 2 }))
    ));
    match stream {
        dds_server::net::Stream::Unix(stream) => stream,
        dds_server::net::Stream::Tcp(_) => unreachable!("a Unix-socket coordinator"),
    }
}

fn control(coordinator: &ClusterCoordinator) -> UnixStream {
    dial(
        coordinator,
        &ClusterRequest::Control {
            digest: spec().digest(),
        },
    )
}

/// Pipeline `Stats` requests without reading a reply until the writes
/// have failed with `WouldBlock` for [`STALL_FOR`], or until
/// [`STALL_BEFORE`] bytes went out. Returns the bytes written and
/// whether the peer stalled.
fn pipeline_stats_unread(peer: &mut UnixStream) -> (usize, bool) {
    let burst = ClusterRequest::Stats.encode().repeat(64);
    peer.set_nonblocking(true).expect("nonblocking peer");
    let mut written = 0;
    let mut at = 0;
    let mut blocked_since: Option<Instant> = None;
    while written < STALL_BEFORE {
        match peer.write(&burst[at..]) {
            Ok(n) => {
                written += n;
                at = (at + n) % burst.len();
                blocked_since = None;
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => {
                let since = *blocked_since.get_or_insert_with(Instant::now);
                if since.elapsed() >= STALL_FOR {
                    return (written, true);
                }
                std::thread::sleep(Duration::from_millis(5));
            }
            Err(e) => panic!("the coordinator dropped the peer: {e}"),
        }
    }
    (written, false)
}

#[test]
fn a_control_peer_that_never_reads_is_backpressured() {
    let coordinator = coordinator("backpressure");
    let mut peer = control(&coordinator);
    let (written, stalled) = pipeline_stats_unread(&mut peer);
    assert!(
        stalled,
        "the peer wrote {written} B of requests without a {STALL_FOR:?} stall"
    );
    // Everything the peer got in is still answered, in order, once it
    // reads.
    peer.set_nonblocking(false).expect("blocking peer");
    let (op, payload) = read_frame(&mut peer).expect("reply").expect("open");
    assert!(matches!(
        decode_outcome::<ClusterResponse, ClusterError>(op, &payload),
        Ok(Ok(ClusterResponse::Stats { .. }))
    ));
}

#[test]
fn shutdown_never_waits_on_a_peer_that_does_not_read() {
    let coordinator = coordinator("shutdown");
    let mut peer = control(&coordinator);
    let _ = pipeline_stats_unread(&mut peer);
    let (done, stopped) = mpsc::channel();
    let stopping = std::thread::spawn(move || {
        let _ = done.send(coordinator.shutdown());
    });
    let stats = stopped
        .recv_timeout(Duration::from_secs(10))
        .expect("shutdown waited on a peer that does not read");
    stopping.join().expect("the shutdown thread finishes");
    assert_eq!(stats.k, 2);
    drop(peer);
}

#[test]
fn the_coordinator_scrape_carries_the_loop_series() {
    let coordinator = coordinator("scrape");
    let _peer = control(&coordinator);
    let page = coordinator.telemetry().render_text();
    for name in [
        "cluster_poll_wakeups_total",
        "cluster_poll_ready_events",
        "cluster_loop_turn_nanos",
        "cluster_loop_connections",
        "cluster_loop_conn_bytes",
        "cluster_write_buffer_high_water_bytes",
        "cluster_accept_errors_total",
        "cluster_connections_opened_total",
        "cluster_respond_nanos",
    ] {
        assert!(page.contains(name), "missing {name} in:\n{page}");
    }
    assert!(!page.contains("server_"), "a server series in:\n{page}");
}

/// Everything the peer reads until EOF: the frames, decoded.
fn read_until_eof(peer: &mut UnixStream) -> Vec<Result<ClusterResponse, ClusterError>> {
    peer.set_read_timeout(Some(Duration::from_secs(10)))
        .expect("read timeout");
    let mut bytes = Vec::new();
    peer.read_to_end(&mut bytes).expect("read until close");
    let mut frames = Vec::new();
    let mut rest = &bytes[..];
    while !rest.is_empty() {
        let (op, payload) = read_frame(&mut rest).expect("framed").expect("whole");
        frames.push(
            decode_outcome::<ClusterResponse, ClusterError>(op, &payload).expect("an outcome"),
        );
    }
    frames
}

#[test]
fn a_malformed_frame_gets_a_typed_error_then_close() {
    let coordinator = coordinator("malformed");
    let mut peer = control(&coordinator);
    peer.write_all(b"GET / HTTP/1.1\r\n\r\n").expect("junk");
    let frames = read_until_eof(&mut peer);
    assert!(
        matches!(frames[..], [Err(ClusterError::Format(_))]),
        "{frames:?}"
    );

    // A site that does the same is answered the same way and has failed.
    let mut site = dial(
        &coordinator,
        &ClusterRequest::Join {
            site: SiteId(1),
            digest: spec().digest(),
        },
    );
    site.write_all(&[0xAB; 32]).expect("junk");
    let frames = read_until_eof(&mut site);
    assert!(
        matches!(frames[..], [Err(ClusterError::Format(_))]),
        "{frames:?}"
    );
    assert_eq!(coordinator.stats().failed, vec![SiteId(1)]);

    // The loop is unharmed: a new control connection is served.
    let mut again = control(&coordinator);
    again
        .write_all(&ClusterRequest::Stats.encode())
        .expect("stats");
    let (op, payload) = read_frame(&mut again).expect("reply").expect("open");
    assert!(matches!(
        decode_outcome::<ClusterResponse, ClusterError>(op, &payload),
        Ok(Ok(ClusterResponse::Stats { .. }))
    ));
}

#[test]
fn an_up_of_another_kind_fails_its_site_with_a_typed_error() {
    let coordinator = coordinator("wrong-kind");
    let mut peer = control(&coordinator);
    let mut site = dial(
        &coordinator,
        &ClusterRequest::Join {
            site: SiteId(0),
            digest: spec().digest(),
        },
    );
    // The deployment runs the infinite-window protocol, but a joined
    // peer can send any up the codec knows.
    let up = SiteUp::Sliding {
        element: Element(5),
        expiry: Slot(9),
    };
    site.write_all(&ClusterRequest::Up(up).encode())
        .expect("up");
    let frames = read_until_eof(&mut site);
    assert!(
        matches!(frames[..], [Err(ClusterError::Protocol(_))]),
        "{frames:?}"
    );
    assert_eq!(coordinator.stats().failed, vec![SiteId(0)]);

    // The control connection keeps answering.
    peer.write_all(&ClusterRequest::Stats.encode())
        .expect("stats");
    let (op, payload) = read_frame(&mut peer).expect("reply").expect("open");
    match decode_outcome::<ClusterResponse, ClusterError>(op, &payload) {
        Ok(Ok(ClusterResponse::Stats { stats })) => assert_eq!(stats.failed, vec![SiteId(0)]),
        other => panic!("expected Stats, got {other:?}"),
    }
}
