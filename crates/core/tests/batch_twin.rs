//! Property: for every kind a [`SamplerSpec`] builds, a batch call is
//! the per-element loop it replaces.
//!
//! One sampler takes each batch through `observe_batch` (or
//! `observe_batch_at`), its twin takes the same elements one
//! `observe` (or `observe_at`) at a time. After every batch the two
//! must agree on sample, threshold, memory, message count, clock and
//! checkpoint bytes — under arbitrary batch splits, clock gaps and
//! copy counts. The fused host walks a batch copy-major, so this is
//! what licenses that reordering for every kind, with-replacement
//! included.

use dds_core::sampler::{SamplerKind, SamplerSpec};
use dds_sim::{Element, Slot};
use proptest::prelude::*;

fn kind() -> impl Strategy<Value = SamplerKind> {
    prop_oneof![
        Just(SamplerKind::Centralized),
        Just(SamplerKind::Infinite),
        Just(SamplerKind::WithReplacement),
        (1u64..24).prop_map(|window| SamplerKind::Sliding { window }),
        (1u64..24).prop_map(|window| SamplerKind::SlidingMulti { window }),
    ]
}

proptest! {
    #[test]
    fn every_kind_batches_like_its_per_element_loop(
        kind in kind(),
        s in 1usize..6,
        seed in 0u64..1_000,
        ops in prop::collection::vec(
            (0u64..4, any::<bool>(), prop::collection::vec(0u64..80, 0..24)),
            1..30,
        ),
    ) {
        let s = if matches!(kind, SamplerKind::Sliding { .. }) { 1 } else { s };
        let spec = SamplerSpec::new(kind, s, seed);
        let mut batched = spec.build();
        let mut looped = spec.build();
        let mut now = 0u64;
        for (step, (gap, stamped, raw)) in ops.iter().enumerate() {
            now += gap;
            let batch: Vec<Element> = raw.iter().copied().map(Element).collect();
            if *stamped {
                // An empty batch still advances the clock.
                batched.observe_batch_at(Slot(now), &batch);
                looped.advance(Slot(now));
                for &e in &batch {
                    looped.observe_at(e, Slot(now));
                }
            } else {
                batched.observe_batch(&batch);
                for &e in &batch {
                    looped.observe(e);
                }
            }
            prop_assert_eq!(batched.sample(), looped.sample(), "{:?} sample at step {}", kind, step);
            prop_assert_eq!(batched.threshold(), looped.threshold(), "{:?} threshold at step {}", kind, step);
            prop_assert_eq!(
                batched.memory_tuples(),
                looped.memory_tuples(),
                "{:?} memory at step {}", kind, step
            );
            prop_assert_eq!(
                batched.protocol_messages(),
                looped.protocol_messages(),
                "{:?} messages at step {}", kind, step
            );
            prop_assert_eq!(batched.clock(), looped.clock(), "{:?} clock at step {}", kind, step);
            let (mut a, mut b) = (Vec::new(), Vec::new());
            batched.checkpoint(&mut a);
            looped.checkpoint(&mut b);
            prop_assert_eq!(a, b, "{:?} checkpoint bytes at step {}", kind, step);
        }
    }
}
