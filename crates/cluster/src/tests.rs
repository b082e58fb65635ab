//! Asynchrony costs messages, never the infinite-window sample.
//!
//! `k` site daemons run on `k` threads against one coordinator and are
//! driven directly: each observation settles its ups unnumbered, and the
//! coordinator applies every up on arrival, in whatever order seeded
//! random pauses between the sites' observations make them arrive. Two
//! properties of the protocol make that safe. A site's threshold is
//! only ever a copy of an earlier coordinator threshold, which never
//! rises, so a stale site forwards more than it must but never less;
//! and the coordinator's bottom-`s` merge does not depend on the order
//! its inputs arrive in. So at every phase barrier the coordinator's
//! sample equals a centralized sampler fed the same elements, read over
//! a raw control connection, and the message count stays inside the
//! Lemma 4 envelope `ext_cluster_messages` gates on.

use std::collections::HashSet;
use std::io::Write;
use std::net::TcpStream;
use std::sync::{Arc, Barrier};
use std::time::Duration;

use dds_core::bounds::lemma4_upper;
use dds_core::infinite::InfiniteConfig;
use dds_core::sampler::{SamplerKind, SamplerSpec};
use dds_core::CentralizedSampler;
use dds_data::{RouteTarget, Router, Routing, TraceLikeStream, TraceProfile};
use dds_hash::splitmix::SplitMix64;
use dds_proto::cluster::{ClusterError, ClusterRequest, ClusterResponse};
use dds_proto::decode_outcome;
use dds_proto::frame::read_frame;
use dds_sim::{Element, SiteId};

use crate::{ClusterCoordinator, ClusterSpec, SiteDaemon};

/// The slack `ext_cluster_messages` allows over the Lemma 4
/// expectation bound.
const LEMMA4_SLACK: f64 = 3.0;

/// One lock-step exchange on a raw control connection.
fn call(stream: &mut TcpStream, request: &ClusterRequest) -> ClusterResponse {
    stream.write_all(&request.encode()).expect("send frame");
    let (op, payload) = read_frame(stream)
        .expect("read reply")
        .expect("peer owed a reply");
    decode_outcome::<ClusterResponse, ClusterError>(op, &payload)
        .expect("well-formed outcome")
        .expect("coordinator accepted the request")
}

/// A seeded pause after an observation: usually none, sometimes a
/// yield, sometimes a sleep of up to 200 µs.
fn pause(rng: &mut SplitMix64) {
    match rng.next_below(16) {
        0 => std::thread::sleep(Duration::from_micros(rng.next_below(200))),
        1..=3 => std::thread::yield_now(),
        _ => {}
    }
}

/// Route a `total`-element trace with `distinct` distinct elements at
/// random to `k` sites and cut it into `phases` equal phases; run site
/// `i` on its own thread over its share, phase by phase, against an
/// Infinite-kind coordinator of sample size `s`. At every phase
/// barrier the coordinator's sample must equal the centralized
/// sampler's over every element so far; at the end no site has failed
/// and the message count is positive and inside the Lemma 4 envelope.
fn run(k: usize, s: usize, seed: u64, total: u64, distinct: u64, phases: usize) {
    let profile = TraceProfile {
        name: "asynchrony",
        total,
        distinct,
    };
    let per_phase = (total as usize).div_ceil(phases);
    // shares[phase][site]
    let mut shares = vec![vec![Vec::new(); k]; phases];
    let mut router = Router::new(Routing::Random, k, seed ^ 0x5eed);
    for (i, e) in TraceLikeStream::new(profile, seed).enumerate() {
        let RouteTarget::One(site) = router.route() else {
            unreachable!("random routing picks one site");
        };
        shares[i / per_phase][site.0].push(e);
    }

    let spec = ClusterSpec::new(SamplerSpec::new(SamplerKind::Infinite, s, seed), k);
    let coordinator = ClusterCoordinator::bind_tcp("127.0.0.1:0", spec).expect("bind");
    let addr = coordinator.local_addr().expect("tcp coordinator");
    // Two waits per phase: every site has settled its phase, then the
    // phase has been checked and the sites may go on.
    let barrier = Arc::new(Barrier::new(k + 1));
    let sites: Vec<_> = (0..k)
        .map(|i| {
            let phases: Vec<Vec<Element>> = shares.iter().map(|p| p[i].clone()).collect();
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                let mut site = SiteDaemon::connect_tcp(addr, SiteId(i), &spec).expect("join");
                let mut rng = SplitMix64::new(seed.wrapping_mul(1_000_003) + i as u64);
                for phase in phases {
                    for e in phase {
                        site.observe(e).expect("observe");
                        pause(&mut rng);
                    }
                    barrier.wait();
                    barrier.wait();
                }
                site.leave().expect("graceful leave");
            })
        })
        .collect();

    let mut control = TcpStream::connect(addr).expect("control connect");
    let welcome = call(
        &mut control,
        &ClusterRequest::Control {
            digest: spec.digest(),
        },
    );
    assert!(matches!(welcome, ClusterResponse::Welcome { .. }));
    let mut oracle = CentralizedSampler::new(s, InfiniteConfig::with_seed(s, seed).hasher());
    let mut seen = HashSet::new();
    for (phase, by_site) in shares.iter().enumerate() {
        for &e in by_site.iter().flatten() {
            oracle.observe(e);
            seen.insert(e);
        }
        barrier.wait();
        let ClusterResponse::Sample { sample } = call(&mut control, &ClusterRequest::Sample) else {
            panic!("a Sample request is answered with a sample");
        };
        assert_eq!(sample, oracle.sample(), "seed {seed}, k {k}, phase {phase}");
        barrier.wait();
    }
    for site in sites {
        site.join().expect("site thread finishes");
    }

    let stats = coordinator.shutdown();
    assert!(stats.failed.is_empty(), "seed {seed}: {:?}", stats.failed);
    let messages = stats.counters.total_messages();
    let envelope = LEMMA4_SLACK * lemma4_upper(k, s, seen.len() as u64);
    assert!(
        messages > 0 && messages as f64 <= envelope,
        "seed {seed}, k {k}: {messages} messages, envelope {envelope:.0}"
    );
}

#[test]
fn threaded_matches_oracle_exactly() {
    run(4, 16, 404, 50_000, 12_000, 1);
}

/// Eight seeds, four phase barriers each.
#[test]
fn intermediate_snapshots_are_exact_too() {
    for seed in 1..=8 {
        run(4 + (seed % 3) as usize, 16, seed, 8_000, 3_000, 4);
    }
}

#[test]
fn heavy_concurrency_stress() {
    run(16, 32, 3131, 40_000, 15_000, 4);
}
