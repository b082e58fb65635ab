//! Property: fusing the sliding-window protocol is *relocation*, not
//! reimplementation.
//!
//! Over arbitrary interleavings of slot advances and observations, a
//! [`FusedSliding`] instance must agree with a `k = 1`
//! [`SlidingConfig::cluster`] deployment at **every query point** — the
//! same sample after every slot boundary and after every observation,
//! and the same cumulative message count (the traffic the fused halves
//! *would* have put on the wire). The multi-copy adapter carries the
//! same contract against the multi-sliding cluster, and `observe_batch`
//! must be indistinguishable from the per-element loop it replaces.

use dds_core::sampler::{DistinctSampler, FusedSliding, FusedSlidingMulti};
use dds_core::sliding::SlidingConfig;
use dds_core::sliding_multi::MultiSlidingConfig;
use dds_sim::{CoordinatorNode, Element, SiteId, Slot};
use proptest::prelude::*;

/// Single-sample sliding vs the k = 1 cluster: exact sample, message,
/// and memory agreement at every step, through drain.
fn check_tracks_k1_cluster(ops: &[(u64, u64)], window: u64, seed: u64) {
    let config = SlidingConfig::with_seed(window, 9_000 + seed);
    let mut fused = FusedSliding::new(&config);
    let mut sim = config.cluster(1);
    for &(gap, e) in ops {
        for _ in 0..gap {
            sim.advance_slot();
        }
        fused.advance(sim.now());
        assert_eq!(
            fused.sample(),
            sim.sample(),
            "after advancing to {}",
            sim.now()
        );
        assert_eq!(
            fused.protocol_messages(),
            sim.counters().total_messages(),
            "messages diverged after advancing to {}",
            sim.now()
        );
        fused.observe(Element(e));
        sim.observe(SiteId(0), Element(e));
        assert_eq!(
            fused.sample(),
            sim.sample(),
            "after observing {} at {}",
            e,
            sim.now()
        );
        assert_eq!(
            fused.protocol_messages(),
            sim.counters().total_messages(),
            "messages diverged after observing {} at {}",
            e,
            sim.now()
        );
        assert_eq!(
            fused.memory_tuples(),
            sim.site_memory_tuples()[0] + CoordinatorNode::memory_tuples(sim.coordinator()),
            "memory diverged at {}",
            sim.now()
        );
    }
    // Drain past the window: both must empty, in the same slots.
    for _ in 0..=window {
        sim.advance_slot();
        fused.advance(sim.now());
        assert_eq!(fused.sample(), sim.sample(), "drain at {}", sim.now());
    }
    assert!(fused.sample().is_empty());
    assert_eq!(fused.protocol_messages(), sim.counters().total_messages());
}

proptest! {
    #[test]
    fn fused_sliding_tracks_k1_cluster_exactly_flat(
        ops in prop::collection::vec((0u64..4, 0u64..60), 1..250),
        window in 1u64..40,
        seed in 0u64..500,
    ) {
        check_tracks_k1_cluster(&ops, window, seed);
    }

    /// `observe_batch` must be indistinguishable from the per-element
    /// loop it replaces — same samples, memory, and message counts under
    /// arbitrary batch splits.
    #[test]
    fn observe_batch_equals_per_element_loop(
        ops in prop::collection::vec((0u64..3, prop::collection::vec(0u64..60, 0..20)), 1..40),
        window in 1u64..30,
        seed in 0u64..200,
    ) {
        let config = SlidingConfig::with_seed(window, 33_000 + seed);
        let mut batched = FusedSliding::new(&config);
        let mut looped = FusedSliding::new(&config);
        let mut now = 0u64;
        for (gap, raw) in &ops {
            now += gap;
            let batch: Vec<Element> = raw.iter().copied().map(Element).collect();
            batched.observe_batch_at(Slot(now), &batch);
            looped.advance(Slot(now));
            for &e in &batch {
                looped.observe(e);
            }
            prop_assert_eq!(batched.sample(), looped.sample(), "sample at {}", now);
            prop_assert_eq!(batched.memory_tuples(), looped.memory_tuples(), "memory at {}", now);
            prop_assert_eq!(
                batched.protocol_messages(),
                looped.protocol_messages(),
                "messages at {}", now
            );
        }
    }

    /// The multi-copy batched path (copy-major hashing) against the
    /// element-major loop: final samples and message totals must match
    /// for every interleaving and copy count.
    #[test]
    fn multi_observe_batch_equals_per_element_loop(
        ops in prop::collection::vec((0u64..3, prop::collection::vec(0u64..40, 0..12)), 1..25),
        s in 1usize..5,
        window in 1u64..20,
    ) {
        let config = MultiSlidingConfig::with_seed(s, window, 47);
        let mut batched = FusedSlidingMulti::new(&config);
        let mut looped = FusedSlidingMulti::new(&config);
        let mut now = 0u64;
        for (gap, raw) in &ops {
            now += gap;
            let batch: Vec<Element> = raw.iter().copied().map(Element).collect();
            batched.observe_batch_at(Slot(now), &batch);
            looped.advance(Slot(now));
            for &e in &batch {
                looped.observe(e);
            }
            prop_assert_eq!(batched.sample(), looped.sample(), "sample at {}", now);
            prop_assert_eq!(
                batched.protocol_messages(),
                looped.protocol_messages(),
                "messages at {}", now
            );
            prop_assert_eq!(batched.memory_tuples(), looped.memory_tuples(), "memory at {}", now);
        }
    }

    /// Multi-copy sliding: same contract against the multi-sliding
    /// cluster, checked at every slot boundary and observation.
    #[test]
    fn fused_sliding_multi_tracks_k1_cluster_exactly(
        ops in prop::collection::vec((0u64..3, 0u64..40), 1..120),
        s in 1usize..5,
        window in 1u64..25,
    ) {
        let config = MultiSlidingConfig::with_seed(s, window, 31);
        let mut fused = FusedSlidingMulti::new(&config);
        let mut sim = config.cluster(1);
        for &(gap, e) in &ops {
            for _ in 0..gap {
                sim.advance_slot();
            }
            fused.advance(sim.now());
            prop_assert_eq!(fused.sample(), sim.sample(), "after advancing to {}", sim.now());
            fused.observe(Element(e));
            sim.observe(SiteId(0), Element(e));
            prop_assert_eq!(fused.sample(), sim.sample(), "after observing {} at {}", e, sim.now());
            prop_assert_eq!(
                fused.protocol_messages(),
                sim.counters().total_messages(),
                "messages diverged at {}", sim.now()
            );
        }
    }

    /// Fast-forwarding across idle gaps (where the fused adapter skips
    /// slots wholesale) never desynchronizes the pair.
    #[test]
    fn idle_gaps_cannot_desynchronize(
        gaps in prop::collection::vec(1u64..200, 1..20),
        window in 1u64..10,
    ) {
        let config = SlidingConfig::with_seed(window, 77);
        let mut fused = FusedSliding::new(&config);
        let mut sim = config.cluster(1);
        for (i, &gap) in gaps.iter().enumerate() {
            fused.observe(Element(i as u64 % 7));
            sim.observe(SiteId(0), Element(i as u64 % 7));
            // Gaps routinely exceed the window, draining the system and
            // exercising the quiescent fast-forward.
            for _ in 0..gap {
                sim.advance_slot();
            }
            fused.advance(Slot(sim.now().0));
            prop_assert_eq!(fused.sample(), sim.sample(), "gap {} at {}", gap, sim.now());
            prop_assert_eq!(fused.protocol_messages(), sim.counters().total_messages());
            prop_assert_eq!(fused.now(), sim.now());
        }
    }
}
