//! The site daemon's driver dialect, spoken raw: a batch that succeeds
//! is one-way, so the next frame on the driver socket answers the next
//! request; a batch that fails is answered with its error, after which
//! the daemon stops serving and the coordinator lists it as failed.

use std::io::Write;
use std::net::TcpStream;
use std::time::{Duration, Instant};

use dds_cluster::{ClusterCoordinator, SiteDaemon};
use dds_core::sampler::{SamplerKind, SamplerSpec};
use dds_proto::cluster::{ClusterError, ClusterRequest, ClusterResponse, ClusterSpec};
use dds_proto::decode_outcome;
use dds_proto::frame::read_frame;
use dds_server::net::Listener;
use dds_sim::{Element, SiteId, Slot};

fn send(stream: &mut TcpStream, request: &ClusterRequest) {
    stream.write_all(&request.encode()).expect("send frame");
}

fn recv(stream: &mut TcpStream) -> Result<ClusterResponse, ClusterError> {
    // Generous: a reply that never comes is a failure, not a hang.
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("read timeout");
    let (op, payload) = read_frame(stream)
        .expect("read reply")
        .expect("peer owed a reply");
    decode_outcome::<ClusterResponse, ClusterError>(op, &payload).expect("well-formed outcome")
}

#[test]
fn a_good_batch_is_unanswered_and_a_bad_one_ends_the_site() {
    let spec = ClusterSpec::new(SamplerSpec::new(SamplerKind::Infinite, 4, 9_191), 1);
    let coordinator = ClusterCoordinator::bind_tcp("127.0.0.1:0", spec).expect("bind");
    let coord = coordinator.endpoint();
    let listener = Listener::bind_tcp("127.0.0.1:0").expect("bind site");
    let site_addr = listener.local_addr().expect("tcp listener");
    let site =
        std::thread::spawn(move || SiteDaemon::connect(&coord, SiteId(0), &spec)?.serve(&listener));

    let mut control = TcpStream::connect(coordinator.local_addr().expect("tcp")).expect("dial");
    send(
        &mut control,
        &ClusterRequest::Control {
            digest: spec.digest(),
        },
    );
    assert_eq!(recv(&mut control), Ok(ClusterResponse::Welcome { k: 1 }));
    let mut driver = TcpStream::connect(site_addr).expect("dial site");

    // A good batch, announced by its barrier: the barrier's answer
    // proves the site ran it, and the site itself says nothing.
    send(
        &mut driver,
        &ClusterRequest::SiteBatch {
            elements: vec![(0, Element(11)), (1, Element(12))],
            then_slot: None,
            through: 1,
        },
    );
    send(
        &mut control,
        &ClusterRequest::Sync {
            through: 1,
            advance: None,
        },
    );
    assert_eq!(recv(&mut control), Ok(ClusterResponse::Ack));
    send(&mut driver, &ClusterRequest::SiteStats);
    match recv(&mut driver) {
        Ok(ClusterResponse::SiteStats { stats }) => {
            assert_eq!(stats.observations, 2);
            assert!(stats.up_msgs >= 1, "the first element beats the threshold");
        }
        other => panic!("expected the SiteStats reply next, got {other:?}"),
    }

    // A batch that skips slot 1 breaks the protocol: answered with the
    // error, then the daemon returns from `serve`.
    send(
        &mut driver,
        &ClusterRequest::SiteBatch {
            elements: Vec::new(),
            then_slot: Some((2, Slot(2))),
            through: 2,
        },
    );
    match recv(&mut driver) {
        Err(ClusterError::Protocol(_)) => {}
        other => panic!("expected a Protocol error, got {other:?}"),
    }
    match site.join().expect("site thread") {
        Err(ClusterError::Protocol(_)) => {}
        other => panic!("serve should return the batch's error, got {other:?}"),
    }

    // The daemon's uplink went with it: the coordinator lists the seat
    // as failed.
    let deadline = Instant::now() + Duration::from_secs(10);
    while coordinator.stats().failed.is_empty() {
        assert!(Instant::now() < deadline, "the failure was never noticed");
        std::thread::sleep(Duration::from_millis(5));
    }
    assert_eq!(coordinator.stats().failed, vec![SiteId(0)]);
}
