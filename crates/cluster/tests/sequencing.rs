//! The coordinator's hold rule, spoken raw: sequenced ups delivered in
//! adversarial arrival orders (later numbers first, ups ahead of the
//! barrier that announces them) must be applied in sequence order. The
//! order is read off the protocol replies, compared with a reference
//! coordinator fed in sequence order, and the test first checks that
//! arrival order would have produced different replies.

use std::io::{ErrorKind, Write};
use std::net::TcpStream;
use std::time::Duration;

use dds_cluster::ClusterCoordinator;
use dds_core::infinite::InfiniteConfig;
use dds_core::messages::{SwUp, UpElem};
use dds_core::sampler::{SamplerKind, SamplerSpec};
use dds_core::sliding::SlidingConfig;
use dds_proto::cluster::{
    decode_cluster_outcome, ClusterRequest, ClusterResponse, ClusterSpec, CoordDown, SiteUp,
};
use dds_proto::frame::read_frame;
use dds_sim::{CoordinatorNode, Element, SiteId, Slot};

fn send(stream: &mut TcpStream, request: &ClusterRequest) {
    stream.write_all(&request.encode()).expect("send frame");
}

fn recv(stream: &mut TcpStream) -> ClusterResponse {
    // Generous: a reply that never comes is a failure, not a hang.
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("read timeout");
    let (op, payload) = read_frame(stream)
        .expect("read reply")
        .expect("peer owed a reply");
    decode_cluster_outcome(op, &payload)
        .expect("well-formed outcome")
        .expect("coordinator accepted the request")
}

fn downs(stream: &mut TcpStream) -> Vec<CoordDown> {
    match recv(stream) {
        ClusterResponse::Downs { downs } => downs,
        other => panic!("expected Downs, got {other:?}"),
    }
}

/// Nothing may arrive on `stream` for a while: its request is held.
fn assert_held(stream: &mut TcpStream, what: &str) {
    stream
        .set_read_timeout(Some(Duration::from_millis(150)))
        .expect("read timeout");
    let mut byte = [0u8; 1];
    match stream.peek(&mut byte) {
        Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {}
        other => panic!("{what} was answered early: {other:?}"),
    }
}

/// A raw connection that completed its handshake.
fn dial(coordinator: &ClusterCoordinator, hello: &ClusterRequest) -> TcpStream {
    let mut stream = TcpStream::connect(coordinator.local_addr().expect("tcp")).expect("connect");
    stream.set_nodelay(true).expect("nodelay");
    send(&mut stream, hello);
    assert!(matches!(recv(&mut stream), ClusterResponse::Welcome { .. }));
    stream
}

fn site(coordinator: &ClusterCoordinator, spec: &ClusterSpec, i: usize) -> TcpStream {
    dial(
        coordinator,
        &ClusterRequest::Join {
            site: SiteId(i),
            digest: spec.digest(),
        },
    )
}

fn control(coordinator: &ClusterCoordinator, spec: &ClusterSpec) -> TcpStream {
    dial(
        coordinator,
        &ClusterRequest::Control {
            digest: spec.digest(),
        },
    )
}

/// Infinite-window replies of a reference coordinator fed `(site, element)`
/// ups in the given order.
fn infinite_replies(spec: &ClusterSpec, ups: &[(usize, u64)]) -> Vec<Vec<CoordDown>> {
    let mut coord = InfiniteConfig::with_seed(spec.sampler.s, spec.sampler.seed).coordinator();
    ups.iter()
        .map(|&(site, element)| {
            let mut out = Vec::new();
            coord.handle(
                SiteId(site),
                UpElem {
                    element: Element(element),
                },
                Slot(0),
                &mut out,
            );
            out.into_iter()
                .map(|(_, d)| CoordDown::Infinite { u: d.u })
                .collect()
        })
        .collect()
}

#[test]
fn later_numbers_first_are_applied_in_sequence_order() {
    let spec = ClusterSpec::new(SamplerSpec::new(SamplerKind::Infinite, 1, 4_077), 3);
    let coordinator = ClusterCoordinator::bind_tcp("127.0.0.1:0", spec).expect("bind");
    let mut sites: Vec<TcpStream> = (0..3).map(|i| site(&coordinator, &spec, i)).collect();
    let mut ctl = control(&coordinator, &spec);
    // (sequence number, site, element): site 2's event is the latest.
    let events = [(2u64, 0usize, 11u64), (6, 1, 12), (9, 2, 13)];
    let in_order: Vec<(usize, u64)> = events.iter().map(|&(_, s, e)| (s, e)).collect();
    let arrival: Vec<(usize, u64)> = in_order.iter().rev().copied().collect();
    let expected = infinite_replies(&spec, &in_order);
    let mut by_arrival = infinite_replies(&spec, &arrival);
    by_arrival.reverse();
    assert_ne!(
        expected, by_arrival,
        "the scenario must tell the orders apart"
    );

    // Ups arrive latest first, and before the barrier announcing them.
    for &(seq, i, element) in events.iter().rev() {
        let up = SiteUp::Infinite {
            element: Element(element),
        };
        send(&mut sites[i], &ClusterRequest::SeqUp { seq, up });
    }
    assert_held(&mut sites[0], "an up beyond every announced number");
    send(
        &mut ctl,
        &ClusterRequest::Sync {
            through: 10,
            advance: None,
        },
    );
    // Site 0's up is first; site 1's waits until site 0 is past 6.
    assert_eq!(downs(&mut sites[0]), expected[0]);
    assert_held(
        &mut sites[1],
        "an up while an earlier site may still re-send",
    );
    send(&mut sites[0], &ClusterRequest::Done { through: 10 });
    assert_eq!(downs(&mut sites[1]), expected[1]);
    assert_held(&mut sites[2], "the latest up");
    send(&mut sites[1], &ClusterRequest::Done { through: 10 });
    assert_eq!(downs(&mut sites[2]), expected[2]);
    assert_held(&mut ctl, "a barrier a site has not finished");
    send(&mut sites[2], &ClusterRequest::Done { through: 10 });
    assert_eq!(recv(&mut ctl), ClusterResponse::Ack);

    if !dds_obs::IS_NOOP {
        let snap = coordinator.telemetry();
        let hold = snap
            .histogram("cluster_up_hold_nanos", &[])
            .expect("hold histogram registered");
        assert_eq!(hold.hist.count, 3, "every sequenced up is timed");
        for i in 0..3 {
            let label = i.to_string();
            assert_eq!(
                snap.counter_value("cluster_sync_msgs_total", &[("site", label.as_str())]),
                Some(1),
                "site {i} sent one Done marker"
            );
        }
        // Done markers are transport control, not protocol messages.
        assert_eq!(coordinator.stats().counters.up_messages(), 3);
    }
}

#[test]
fn a_slot_advance_is_applied_between_the_ups_around_it() {
    // One slot boundary at 4 (coordinator) + 5, 6 (site slot starts).
    // Site 0's up at 3 belongs to slot 0 and site 1's up at 7 to slot 1,
    // but site 1's arrives first.
    let spec = ClusterSpec::new(
        SamplerSpec::new(SamplerKind::Sliding { window: 4 }, 1, 9_091),
        2,
    );
    let coordinator = ClusterCoordinator::bind_tcp("127.0.0.1:0", spec).expect("bind");
    let mut s0 = site(&coordinator, &spec, 0);
    let mut s1 = site(&coordinator, &spec, 1);
    let mut ctl = control(&coordinator, &spec);
    let early = SwUp {
        element: Element(21),
        expiry: Slot(1),
    };
    let late = SwUp {
        element: Element(22),
        expiry: Slot(5),
    };
    let replies = |ops: &[(usize, SwUp, bool)]| -> Vec<Vec<CoordDown>> {
        let cfg = SlidingConfig::with_seed(4, spec.sampler.seed);
        let mut coord = dds_core::sliding::SwCoordinator::new(cfg.hasher(), 2, cfg.mode);
        let mut now = Slot(0);
        ops.iter()
            .map(|&(site, up, advance_first)| {
                let mut out = Vec::new();
                if advance_first {
                    now = now.next();
                    coord.on_slot_start(now, &mut out);
                }
                coord.handle(SiteId(site), up, now, &mut out);
                out.into_iter()
                    .map(|(_, d)| CoordDown::Sliding {
                        element: d.element,
                        expiry: d.expiry,
                    })
                    .collect()
            })
            .collect()
    };
    let expected = replies(&[(0, early, false), (1, late, true)]);
    let mut by_arrival = replies(&[(1, late, false), (0, early, false)]);
    by_arrival.reverse();
    assert_ne!(
        expected, by_arrival,
        "the scenario must tell the orders apart"
    );

    send(
        &mut ctl,
        &ClusterRequest::Sync {
            through: 8,
            advance: Some((4, Slot(1))),
        },
    );
    let up = |sw: SwUp| SiteUp::Sliding {
        element: sw.element,
        expiry: sw.expiry,
    };
    send(
        &mut s1,
        &ClusterRequest::SeqUp {
            seq: 7,
            up: up(late),
        },
    );
    send(
        &mut s0,
        &ClusterRequest::SeqUp {
            seq: 3,
            up: up(early),
        },
    );
    assert_eq!(downs(&mut s0), expected[0]);
    assert_held(&mut s1, "an up behind an unapplied slot advance");
    send(&mut s0, &ClusterRequest::Done { through: 8 });
    assert_eq!(downs(&mut s1), expected[1]);
    send(&mut s1, &ClusterRequest::Done { through: 8 });
    assert_eq!(recv(&mut ctl), ClusterResponse::Ack);
    send(&mut ctl, &ClusterRequest::Stats);
    match recv(&mut ctl) {
        ClusterResponse::Stats { stats } => assert_eq!(stats.now, Slot(1)),
        other => panic!("expected Stats, got {other:?}"),
    }
}
