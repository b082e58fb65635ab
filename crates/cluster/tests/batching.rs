//! Exactness under random batching: however a driver's stream is cut
//! into barriers — slot advances, samples, stats, per-site reads, and
//! full site buffers — a socket-connected cluster stays byte-identical
//! to the in-process `dds_sim::Cluster` at every barrier: same sample,
//! same threshold, same [`MessageCounters`], same coordinator and
//! per-site memory. Runs of slot advances with no read between them
//! keep one shipped barrier unanswered while the next one ships.

use dds_cluster::{ClusterHandle, LocalCluster, SITE_BUFFER_CAP};
use dds_core::infinite::{InfiniteConfig, LazyCoordinator, LazySite};
use dds_core::sampler::{SamplerKind, SamplerSpec};
use dds_core::sliding::{SlidingConfig, SwCoordinator, SwSite};
use dds_core::sliding_multi::{MultiSlidingConfig, MultiSwCoordinator, MultiSwSite};
use dds_core::with_replacement::{WrConfig, WrCoordinator, WrSite};
use dds_hash::splitmix::SplitMix64;
use dds_hash::UnitValue;
use dds_proto::cluster::ClusterSpec;
use dds_sim::{Cluster, CoordinatorNode, Element, MessageCounters, SiteId};
use proptest::prelude::*;

/// The in-process reference deployment, one variant per protocol kind.
enum Twin {
    Infinite(Cluster<LazySite, LazyCoordinator>),
    Wr(Cluster<WrSite, WrCoordinator>),
    Sliding(Cluster<SwSite, SwCoordinator>),
    SlidingMulti(Cluster<MultiSwSite, MultiSwCoordinator>),
}

/// Run `$body` with `$c` bound to whichever cluster the twin holds.
macro_rules! with_twin {
    ($twin:expr, $c:ident => $body:expr) => {
        match $twin {
            Twin::Infinite($c) => $body,
            Twin::Wr($c) => $body,
            Twin::Sliding($c) => $body,
            Twin::SlidingMulti($c) => $body,
        }
    };
}

impl Twin {
    fn new(spec: &ClusterSpec) -> Twin {
        let s = spec.sampler;
        match s.kind {
            SamplerKind::Infinite => {
                Twin::Infinite(InfiniteConfig::with_seed(s.s, s.seed).cluster(spec.k))
            }
            SamplerKind::WithReplacement => {
                Twin::Wr(WrConfig::with_seed(s.s, s.seed).cluster(spec.k))
            }
            SamplerKind::Sliding { window } => {
                Twin::Sliding(SlidingConfig::with_seed(window, s.seed).cluster(spec.k))
            }
            SamplerKind::SlidingMulti { window } => Twin::SlidingMulti(
                MultiSlidingConfig::with_seed(s.s, window, s.seed).cluster(spec.k),
            ),
            SamplerKind::Centralized => unreachable!("rejected by ClusterSpec::new"),
        }
    }

    fn observe(&mut self, site: SiteId, e: Element) {
        with_twin!(self, c => c.observe(site, e));
    }

    fn advance_slot(&mut self) {
        with_twin!(self, c => c.advance_slot());
    }

    fn sample(&self) -> Vec<Element> {
        with_twin!(self, c => c.sample())
    }

    fn counters(&self) -> &MessageCounters {
        with_twin!(self, c => c.counters())
    }

    fn site_memory(&self) -> Vec<usize> {
        with_twin!(self, c => c.site_memory_tuples())
    }

    fn coord_memory(&self) -> usize {
        with_twin!(self, c => CoordinatorNode::memory_tuples(c.coordinator()))
    }

    /// Mirror of the cluster coordinator's `threshold` report.
    fn threshold(&self) -> Option<u64> {
        match self {
            Twin::Infinite(c) => Some(c.coordinator().threshold().0),
            Twin::Wr(_) | Twin::SlidingMulti(_) => None,
            Twin::Sliding(c) => Some(
                c.coordinator()
                    .current()
                    .map_or(UnitValue::ONE, |t| t.hash)
                    .0,
            ),
        }
    }
}

fn spec_for(kind: u8, k: usize, seed: u64) -> ClusterSpec {
    let sampler = match kind % 4 {
        0 => SamplerSpec::new(SamplerKind::Infinite, 4, seed),
        1 => SamplerSpec::new(SamplerKind::WithReplacement, 3, seed),
        2 => SamplerSpec::new(SamplerKind::Sliding { window: 4 }, 1, seed),
        _ => SamplerSpec::new(SamplerKind::SlidingMulti { window: 5 }, 3, seed),
    };
    ClusterSpec::new(sampler, k)
}

/// Everything observable must agree, exactly. Each read is itself a
/// barrier with nothing buffered.
fn assert_exact(handle: &mut ClusterHandle, twin: &Twin, k: usize, at: &str) {
    assert_eq!(
        handle.sample().expect("sample"),
        twin.sample(),
        "sample {at}"
    );
    let stats = handle.stats().expect("stats");
    assert_eq!(&stats.counters, twin.counters(), "counters {at}");
    assert_eq!(
        stats.memory_tuples,
        twin.coord_memory(),
        "coordinator memory {at}"
    );
    assert_eq!(stats.threshold, twin.threshold(), "threshold {at}");
    assert_eq!(stats.now, handle.now(), "coordinator clock {at}");
    let site_memory = twin.site_memory();
    for (i, &memory) in site_memory.iter().enumerate().take(k) {
        let ss = handle.site_stats(SiteId(i)).expect("site stats");
        assert_eq!(ss.memory_tuples, memory, "site {i} memory {at}");
        assert_eq!(ss.now, handle.now(), "site {i} clock {at}");
    }
}

/// One step of a driver schedule.
#[derive(Debug, Clone)]
enum Step {
    Observe(SiteId, Element),
    Advance,
    Sample,
    Stats,
    SiteStats(SiteId),
    /// Slots with no read among them: each slot's observations, then
    /// its `advance_slot`.
    Slots(Vec<Vec<(SiteId, Element)>>),
}

fn step_from(code: u8, word: u64, k: usize, domain: u64) -> Step {
    let site = SiteId((word % k as u64) as usize);
    match code {
        0..=15 => Step::Observe(site, Element((word >> 8) % domain)),
        16 => Step::Advance,
        17 => Step::Sample,
        18 => Step::Stats,
        19 => Step::SiteStats(site),
        _ => slot_run(word, k, domain),
    }
}

/// A run of 2–32 slots drawn from `word`, each with 0–4 observations
/// at random sites.
fn slot_run(word: u64, k: usize, domain: u64) -> Step {
    let mut rng = SplitMix64::new(word);
    let slots = 2 + rng.next_below(31);
    Step::Slots(
        (0..slots)
            .map(|_| {
                (0..rng.next_below(5))
                    .map(|_| {
                        let site = SiteId(rng.next_below(k as u64) as usize);
                        (site, Element(rng.next_below(domain)))
                    })
                    .collect()
            })
            .collect(),
    )
}

/// Drive `steps` through a fresh deployment and its twin; after every
/// barrier step, compare everything.
fn run_schedule(spec: ClusterSpec, steps: &[Step]) {
    let mut cluster = LocalCluster::spawn(spec).expect("spawn cluster");
    let mut twin = Twin::new(&spec);
    let handle = cluster.handle();
    for (i, step) in steps.iter().enumerate() {
        match *step {
            Step::Observe(site, e) => {
                handle.observe(site, e).expect("observe");
                twin.observe(site, e);
                continue;
            }
            Step::Advance => {
                handle.advance_slot().expect("advance");
                twin.advance_slot();
            }
            Step::Sample => {
                assert_eq!(handle.sample().expect("sample"), twin.sample());
            }
            Step::Stats => {
                let stats = handle.stats().expect("stats");
                assert_eq!(&stats.counters, twin.counters());
            }
            Step::SiteStats(site) => {
                let ss = handle.site_stats(site).expect("site stats");
                assert_eq!(ss.memory_tuples, twin.site_memory()[site.0]);
            }
            Step::Slots(ref slots) => {
                for slot in slots {
                    for &(site, e) in slot {
                        handle.observe(site, e).expect("observe");
                        twin.observe(site, e);
                    }
                    handle.advance_slot().expect("advance");
                    twin.advance_slot();
                }
            }
        }
        assert_exact(handle, &twin, spec.k, &format!("after step {i} ({step:?})"));
    }
    assert_exact(handle, &twin, spec.k, "at the end");
    cluster.shutdown().expect("graceful shutdown");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Random kinds, k ∈ {1, 2, 3}, a random site per element and
    /// random barriers, some of them runs of slot advances with no read
    /// inside; one case in four first runs past the site buffer cap, so
    /// a full buffer ships mid-stream.
    #[test]
    fn random_batching_is_byte_exact_with_the_sim_twin(
        kind in 0u8..4,
        k in 1usize..4,
        seed in any::<u64>(),
        long in 0u8..4,
        domain in 8u64..200,
        codes in prop::collection::vec((0u8..21, any::<u64>()), 0..300),
    ) {
        let spec = spec_for(kind, k, seed);
        let mut steps: Vec<Step> = Vec::new();
        if long == 0 {
            // More elements than k full buffers: some site must ship
            // at the cap, with no barrier in sight.
            let run = (SITE_BUFFER_CAP + 1) * k + 1;
            steps.extend((0..run as u64).map(|x| {
                let word = x.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ seed;
                Step::Observe(SiteId((word % k as u64) as usize), Element((word >> 8) % domain))
            }));
        }
        steps.extend(codes.iter().map(|&(code, word)| step_from(code, word, k, domain)));
        run_schedule(spec, &steps);
    }
}

#[test]
fn one_site_past_the_buffer_cap_stays_exact() {
    // Every element at one site: its buffer fills three times before
    // the first barrier the driver asks for.
    let spec = spec_for(3, 2, 0x5eed);
    let mut steps: Vec<Step> = (0..3 * SITE_BUFFER_CAP as u64 + 9)
        .map(|x| Step::Observe(SiteId(1), Element(x % 97)))
        .collect();
    steps.push(Step::Advance);
    steps.extend((0..40).map(|x| Step::Observe(SiteId(x % 2), Element(x as u64))));
    run_schedule(spec, &steps);
}

#[test]
fn five_hundred_slots_without_a_read_stay_exact() {
    // Every barrier but the last is answered only while the next one is
    // in flight. Every fifth slot is empty, and the middle 100 slots
    // send every element to site 2.
    let spec = spec_for(3, 3, 0x0b5e_55ed);
    let slots = (0..500u64)
        .map(|t| {
            (0..t % 5)
                .map(|j| {
                    let x = 5 * t + j;
                    let site = if (200..300).contains(&t) { 2 } else { x % 3 };
                    (SiteId(site as usize), Element(x.wrapping_mul(0x9e37) % 97))
                })
                .collect()
        })
        .collect();
    run_schedule(spec, &[Step::Slots(slots)]);
}
