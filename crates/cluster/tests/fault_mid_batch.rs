//! A site that dies mid-batch, while the coordinator holds another
//! site's up waiting for it, must not hang anyone. The slot advance
//! that ships the batch returns before the death, without waiting for
//! its barrier; the read that follows returns a typed `SiteDown` for
//! the dead site within a bounded time, the survivor's daemon keeps
//! serving, and tearing everything down returns.

use std::io::Write;
use std::net::TcpStream;
use std::sync::mpsc::{self, TryRecvError};
use std::time::{Duration, Instant};

use dds_cluster::{ClusterCoordinator, ClusterHandle, SiteDaemon};
use dds_core::sampler::{SamplerKind, SamplerSpec};
use dds_proto::cluster::{
    decode_cluster_outcome, ClusterError, ClusterRequest, ClusterResponse, ClusterSpec,
};
use dds_proto::frame::read_frame;
use dds_server::net::Listener;
use dds_sim::{Element, SiteId, Slot};

/// How long the doomed site sits on its batch before dying.
const DOOM: Duration = Duration::from_millis(300);

#[test]
fn a_site_dying_while_another_sites_up_is_held_surfaces_as_site_down() {
    let spec = ClusterSpec::new(SamplerSpec::new(SamplerKind::Infinite, 4, 6_061), 2);
    let coordinator = ClusterCoordinator::bind_tcp("127.0.0.1:0", spec).expect("bind");
    let coord = coordinator.endpoint();

    // Site 0: a real daemon.
    let survivor_driver = Listener::bind_tcp("127.0.0.1:0").expect("bind site 0");
    let survivor_endpoint = survivor_driver.endpoint();
    let survivor_coord = coord.clone();
    let survivor = std::thread::spawn(move || {
        SiteDaemon::connect(&survivor_coord, SiteId(0), &spec)?.serve(&survivor_driver)
    });

    // Site 1: joins, takes its batch, and dies on it without a word.
    let mut uplink = TcpStream::connect(coordinator.local_addr().expect("tcp")).expect("dial");
    let join = ClusterRequest::Join {
        site: SiteId(1),
        digest: spec.digest(),
    };
    uplink.write_all(&join.encode()).expect("join");
    let (op, payload) = read_frame(&mut uplink).expect("welcome").expect("reply");
    assert!(matches!(
        decode_cluster_outcome(op, &payload),
        Ok(Ok(ClusterResponse::Welcome { k: 2 }))
    ));
    let doomed_driver = Listener::bind_tcp("127.0.0.1:0").expect("bind site 1");
    let doomed_endpoint = doomed_driver.endpoint();
    let (dying, died) = mpsc::channel();
    let doomed = std::thread::spawn(move || {
        let mut driver = doomed_driver.accept().expect("driver dials");
        let batch = read_frame(&mut driver)
            .expect("read batch")
            .expect("a batch");
        assert!(matches!(
            ClusterRequest::decode(batch.0, &batch.1),
            Ok(ClusterRequest::SiteBatch { .. })
        ));
        std::thread::sleep(DOOM);
        let _ = dying.send(());
        drop(uplink);
        drop(driver);
    });

    let mut handle = ClusterHandle::connect(&coord, &[survivor_endpoint, doomed_endpoint], &spec)
        .expect("connect");
    // Element 0 goes to the doomed site and element 1 to the survivor,
    // whose first element always beats the threshold: its up, numbered
    // 1, must wait for site 1 to get past 0 — which it never does.
    handle.observe(SiteId(1), Element(500)).expect("buffer");
    handle.observe(SiteId(0), Element(501)).expect("buffer");
    let start = Instant::now();
    // The advance ships its barrier and returns: no earlier barrier is
    // owed, and it does not wait for its own.
    assert_eq!(handle.advance_slot(), Ok(Slot(1)));
    assert_eq!(
        died.try_recv(),
        Err(TryRecvError::Empty),
        "the slot advance waited for the death"
    );
    // The read behind it waits for the barrier, which the coordinator
    // answers only once the death releases the held up.
    let (returned, read_done) = mpsc::channel();
    let driver = std::thread::spawn(move || {
        let outcome = handle.sample();
        let _ = returned.send(());
        (handle, outcome)
    });
    read_done
        .recv_timeout(Duration::from_secs(10))
        .expect("the read hung");
    let took = start.elapsed();
    let (mut handle, outcome) = driver.join().expect("driver thread");
    match outcome {
        Err(ClusterError::SiteDown(site)) => assert_eq!(site, SiteId(1)),
        other => panic!("expected SiteDown(1), got {other:?}"),
    }
    assert!(took >= DOOM, "the read cannot finish before the death");
    doomed.join().expect("doomed site thread");

    if !dds_obs::IS_NOOP {
        let snap = coordinator.telemetry();
        let hold = snap
            .histogram("cluster_up_hold_nanos", &[])
            .expect("hold histogram");
        assert_eq!(hold.hist.count, 1, "the survivor's up was held");
        assert!(
            hold.hist.max >= DOOM.as_nanos() as u64 / 2,
            "the up was released only by the death ({} ns)",
            hold.hist.max
        );
    }

    // The survivor finished its batch and keeps serving.
    let ss = handle.site_stats(SiteId(0)).expect("survivor answers");
    assert_eq!(ss.observations, 1);
    assert_eq!((ss.up_msgs, ss.down_msgs), (1, 1));
    let stats = handle.stats().expect("stats keep answering");
    assert_eq!(stats.failed, vec![SiteId(1)]);
    assert_eq!(stats.counters.up_messages_for(SiteId(0)), 1);

    // Tearing everything down returns.
    let (done, finished) = mpsc::channel();
    std::thread::spawn(move || {
        drop(handle);
        let _ = survivor.join();
        drop(coordinator);
        let _ = done.send(());
    });
    finished
        .recv_timeout(Duration::from_secs(10))
        .expect("teardown hung");
}
