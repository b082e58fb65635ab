//! Late-data telemetry in the coordinator scrape: a sliding-family up
//! whose candidate is already out of the window when it arrives is
//! counted per site as `cluster_late_up_msgs_total{site}` and merged
//! into the `ClusterRequest::Telemetry` reply through the registry,
//! exactly like engine servers merge theirs. The test speaks the site
//! wire dialect raw so it can stamp an up with an expiry in the past.

use std::io::Write;
use std::net::TcpStream;

use dds_cluster::{fetch_telemetry, ClusterCoordinator};
use dds_core::sampler::{SamplerKind, SamplerSpec};
use dds_proto::cluster::{ClusterError, ClusterRequest, ClusterResponse, ClusterSpec, SiteUp};
use dds_proto::decode_outcome;
use dds_proto::frame::read_frame;
use dds_sim::{Element, SiteId, Slot};

/// One lock-step exchange on a raw site connection.
fn call(stream: &mut TcpStream, request: &ClusterRequest) -> ClusterResponse {
    stream.write_all(&request.encode()).expect("send frame");
    let (op, payload) = read_frame(stream)
        .expect("read reply")
        .expect("peer owed a reply");
    decode_outcome::<ClusterResponse, ClusterError>(op, &payload)
        .expect("well-formed outcome")
        .expect("coordinator accepted the request")
}

#[test]
fn late_sliding_ups_are_counted_per_site_and_scraped_over_the_wire() {
    let spec = ClusterSpec::new(
        SamplerSpec::new(SamplerKind::Sliding { window: 4 }, 1, 808),
        2,
    );
    let coordinator = ClusterCoordinator::bind_tcp("127.0.0.1:0", spec).expect("bind");
    let addr = coordinator.local_addr().expect("tcp coordinator");

    let mut site = TcpStream::connect(addr).expect("site connect");
    let welcome = call(
        &mut site,
        &ClusterRequest::Join {
            site: SiteId(0),
            digest: spec.digest(),
        },
    );
    assert!(matches!(welcome, ClusterResponse::Welcome { k: 2 }));

    // Coordinator `now` is slot 0. An up expiring at slot 0 is already
    // out of the window — late. One expiring later is on time.
    let late = ClusterRequest::Up(SiteUp::Sliding {
        element: Element(7),
        expiry: Slot(0),
    });
    let on_time = ClusterRequest::Up(SiteUp::Sliding {
        element: Element(8),
        expiry: Slot(3),
    });
    assert!(matches!(
        call(&mut site, &late),
        ClusterResponse::Downs { .. }
    ));
    assert!(matches!(
        call(&mut site, &on_time),
        ClusterResponse::Downs { .. }
    ));

    if !dds_obs::IS_NOOP {
        // Local scrape: site 0 has one late up, site 1 (never joined,
        // never late) is registered at zero.
        let snap = coordinator.telemetry();
        assert_eq!(
            snap.counter_value("cluster_late_up_msgs_total", &[("site", "0")]),
            Some(1)
        );
        assert_eq!(
            snap.counter_value("cluster_late_up_msgs_total", &[("site", "1")]),
            Some(0)
        );

        // Wire scrape: `ClusterRequest::Telemetry` carries the merged
        // registry; pin the rendered page line for line.
        let wire = fetch_telemetry(&coordinator.endpoint(), &spec).expect("telemetry over wire");
        let page = wire.render_text();
        assert!(
            page.contains("cluster_late_up_msgs_total{site=\"0\"} 1"),
            "missing late counter in:\n{page}"
        );
        assert!(
            page.contains("cluster_late_up_msgs_total{site=\"1\"} 0"),
            "missing zero-valued late counter in:\n{page}"
        );
        assert!(
            page.contains("cluster_memory_tuples"),
            "missing buffered-candidate gauge in:\n{page}"
        );
    }

    drop(site);
    let _ = coordinator.shutdown();
}
