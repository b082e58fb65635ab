//! Cross-crate integration: every distributed protocol, on every routing
//! strategy, against the centralized oracle — plus system-level
//! invariants (thresholds, byte accounting, fault tolerance).

use std::io::Write;
use std::net::TcpStream;

use dds_cluster::ClusterCoordinator;
use dds_proto::cluster::{ClusterRequest, ClusterResponse};
use dds_proto::decode_outcome;
use dds_proto::frame::read_frame;
use dds_sim::fault::DuplicateAndReorder;
use distinct_stream_sampling::prelude::*;

fn drive_with_routing(
    cluster: &mut Cluster<LazySite, LazyCoordinator>,
    oracle: &mut CentralizedSampler,
    routing: Routing,
    profile: TraceProfile,
    seed: u64,
) {
    let mut router = Router::new(routing, cluster.k(), seed);
    for e in TraceLikeStream::new(profile, seed ^ 0x5a5a) {
        oracle.observe(e);
        match router.route() {
            RouteTarget::One(site) => cluster.observe(site, e),
            RouteTarget::All => cluster.observe_at_all(e),
        }
    }
}

#[test]
fn lazy_protocol_matches_oracle_on_all_routings() {
    let profile = TraceProfile {
        name: "e2e",
        total: 30_000,
        distinct: 8_000,
    };
    for (i, routing) in [
        Routing::Flooding,
        Routing::Random,
        Routing::RoundRobin,
        Routing::Dominate { alpha: 120.0 },
    ]
    .into_iter()
    .enumerate()
    {
        let config = InfiniteConfig::with_seed(25, 5_000 + i as u64);
        let mut cluster = config.cluster(6);
        let mut oracle = CentralizedSampler::new(25, config.hasher());
        drive_with_routing(&mut cluster, &mut oracle, routing, profile, i as u64);
        assert_eq!(
            cluster.sample(),
            oracle.sample(),
            "sample mismatch under {routing:?}"
        );
    }
}

#[test]
fn threshold_invariant_holds_at_every_site() {
    let config = InfiniteConfig::with_seed(10, 77);
    let mut cluster = config.cluster(9);
    let mut oracle = CentralizedSampler::new(10, config.hasher());
    let profile = TraceProfile {
        name: "inv",
        total: 20_000,
        distinct: 6_000,
    };
    drive_with_routing(&mut cluster, &mut oracle, Routing::Random, profile, 3);
    let u = cluster.coordinator().threshold();
    assert_eq!(u, oracle.threshold(), "coordinator must hold the true u(t)");
    for i in 0..9 {
        assert!(
            cluster.site(SiteId(i)).threshold() >= u,
            "site {i} threshold below the coordinator's"
        );
    }
}

#[test]
fn message_size_is_constant_bytes_track_messages() {
    // Chapter 2's footnote, verified: bytes / messages is a constant (8),
    // independent of workload.
    for seed in [1u64, 2, 3] {
        let config = InfiniteConfig::with_seed(8, seed);
        let mut cluster = config.cluster(4);
        let mut oracle = CentralizedSampler::new(8, config.hasher());
        let profile = TraceProfile {
            name: "bytes",
            total: 10_000,
            distinct: 2_000 + seed * 997,
        };
        drive_with_routing(&mut cluster, &mut oracle, Routing::Random, profile, seed);
        let c = cluster.counters();
        assert_eq!(c.total_bytes(), 8 * c.total_messages());
    }
}

#[test]
fn duplicate_and_reordered_delivery_cannot_corrupt_the_sample() {
    // Idempotence of the bottom-s merge, end to end, under a hostile
    // delivery layer that duplicates ~30% of messages and reverses
    // batches.
    let config = InfiniteConfig::with_seed(12, 9);
    let mut cluster = config
        .cluster(5)
        .with_fault(Box::new(DuplicateAndReorder::new(3, 10, 1234)));
    let mut oracle = CentralizedSampler::new(12, config.hasher());
    let profile = TraceProfile {
        name: "fault",
        total: 15_000,
        distinct: 4_000,
    };
    drive_with_routing(&mut cluster, &mut oracle, Routing::Random, profile, 7);
    assert_eq!(cluster.sample(), oracle.sample());
    // And it must actually have duplicated something.
    let clean = {
        let config = InfiniteConfig::with_seed(12, 9);
        let mut c = config.cluster(5);
        let mut o = CentralizedSampler::new(12, config.hasher());
        drive_with_routing(&mut c, &mut o, Routing::Random, profile, 7);
        c.counters().total_messages()
    };
    assert!(
        cluster.counters().total_messages() > clean,
        "fault plan was a no-op"
    );
}

#[test]
fn sliding_window_protocol_matches_oracle_end_to_end() {
    let window = 40;
    let k = 6;
    let config = SlidingConfig::with_seed(window, 31);
    let mut cluster = config.cluster(k);
    let mut oracle = SlidingOracle::new(window, config.hasher());
    let profile = TraceProfile {
        name: "sw",
        total: 12_000,
        distinct: 3_500,
    };
    let input = SlottedInput::paper_default(TraceLikeStream::new(profile, 13), k, 17);
    for (slot, batch) in input {
        while cluster.now() < slot {
            cluster.advance_slot();
            oracle.expire(cluster.now());
            let want: Vec<Element> = oracle
                .min_in_window(cluster.now())
                .map(|(e, _, _)| e)
                .into_iter()
                .collect();
            assert_eq!(cluster.sample(), want);
        }
        for (site, e) in batch {
            oracle.observe(e, slot);
            cluster.observe(site, e);
        }
        let want: Vec<Element> = oracle
            .min_in_window(slot)
            .map(|(e, _, _)| e)
            .into_iter()
            .collect();
        assert_eq!(cluster.sample(), want);
    }
}

#[test]
fn broadcast_and_lazy_agree_on_samples_everywhere() {
    let profile = TraceProfile {
        name: "agree",
        total: 10_000,
        distinct: 3_000,
    };
    let lazy_cfg = InfiniteConfig::with_seed(15, 55);
    let bc_cfg = BroadcastConfig::with_seed(15, 55);
    let mut lazy = lazy_cfg.cluster(7);
    let mut bc = bc_cfg.cluster(7);
    let mut router_a = Router::new(Routing::RoundRobin, 7, 1);
    let mut router_b = Router::new(Routing::RoundRobin, 7, 1);
    for e in TraceLikeStream::new(profile, 2) {
        match router_a.route() {
            RouteTarget::One(site) => lazy.observe(site, e),
            RouteTarget::All => lazy.observe_at_all(e),
        }
        match router_b.route() {
            RouteTarget::One(site) => bc.observe(site, e),
            RouteTarget::All => bc.observe_at_all(e),
        }
        assert_eq!(lazy.sample(), bc.sample());
    }
}

#[test]
fn threaded_and_simulated_agree() {
    // Site daemons on their own threads settle their ups with a real
    // coordinator in whatever order the threads reach it; the simulated
    // cluster settles every element in stream order.
    let (k, s, seed) = (6, 20, 808);
    let profile = TraceProfile {
        name: "threads",
        total: 25_000,
        distinct: 7_000,
    };
    let mut sim = InfiniteConfig::with_seed(s, seed).cluster(k);
    let mut shares = vec![Vec::new(); k];
    let mut router = Router::new(Routing::Random, k, 4);
    for e in TraceLikeStream::new(profile, 6) {
        let RouteTarget::One(site) = router.route() else {
            unreachable!("random routing picks one site");
        };
        sim.observe(site, e);
        shares[site.0].push(e);
    }

    let spec = ClusterSpec::new(SamplerSpec::new(SamplerKind::Infinite, s, seed), k);
    let coordinator = ClusterCoordinator::bind_tcp("127.0.0.1:0", spec).expect("bind");
    let addr = coordinator.local_addr().expect("tcp coordinator");
    std::thread::scope(|scope| {
        for (i, share) in shares.into_iter().enumerate() {
            scope.spawn(move || {
                let mut site = SiteDaemon::connect_tcp(addr, SiteId(i), &spec).expect("join");
                for e in share {
                    site.observe(e).expect("observe");
                }
                site.leave().expect("graceful leave");
            });
        }
    });

    // The coordinator's sample, read over a raw control connection.
    let mut control = TcpStream::connect(addr).expect("control connect");
    let mut call = |request: ClusterRequest| {
        control.write_all(&request.encode()).expect("send frame");
        let (op, payload) = read_frame(&mut control).expect("read").expect("a reply");
        decode_outcome::<ClusterResponse, ClusterError>(op, &payload)
            .expect("decode")
            .expect("accepted")
    };
    let digest = spec.digest();
    assert!(matches!(
        call(ClusterRequest::Control { digest }),
        ClusterResponse::Welcome { .. }
    ));
    let ClusterResponse::Sample { sample } = call(ClusterRequest::Sample) else {
        panic!("a Sample request is answered with a sample");
    };
    assert_eq!(sample, sim.sample());
    let _ = coordinator.shutdown();
}

#[test]
fn with_replacement_sampler_is_s_independent_minima() {
    let config = WrConfig::with_seed(6, 21);
    let mut cluster = config.cluster(3);
    let elems: Vec<Element> = (0..2_000).map(|i| Element(i * 31 + 7)).collect();
    for (i, &e) in elems.iter().enumerate() {
        cluster.observe(SiteId(i % 3), e);
    }
    let sample = cluster.sample();
    assert_eq!(sample.len(), 6);
    for (j, &picked) in sample.iter().enumerate() {
        let h = config.family.members(6).nth(j).unwrap();
        let want = elems.iter().copied().min_by_key(|e| h.unit(e.0)).unwrap();
        assert_eq!(picked, want, "copy {j}");
    }
}
