//! A `DDSC` envelope names each hash function by a tag byte ahead of its
//! seed, and MurmurHash64A, tag 0, is the only hash a sampler runs. An
//! envelope whose hash tag is anything else is refused, even when its
//! checksum holds; decoding it under MurmurHash64A would hand back a
//! sampler whose stored sample disagrees with its own hash.

use dds_core::checkpoint::{read_envelope, restore_instance, write_envelope, CheckpointError};
use dds_core::sampler::{DistinctSampler, SamplerKind, SamplerSpec};
use dds_sim::{Element, Slot};

#[test]
fn envelopes_naming_another_hash_are_refused() {
    for (kind, s) in [
        (SamplerKind::Centralized, 4),
        (SamplerKind::Infinite, 4),
        (SamplerKind::WithReplacement, 4),
        (SamplerKind::Sliding { window: 8 }, 1),
        (SamplerKind::SlidingMulti { window: 8 }, 4),
    ] {
        let spec = SamplerSpec::new(kind, s, 99);
        let mut sampler = spec.instance();
        for x in 0..50u64 {
            sampler.observe_at(Element(x), Slot(x / 10));
        }
        let mut sealed = Vec::new();
        sampler.checkpoint(&mut sealed);
        assert!(restore_instance(&sealed).is_ok());

        let (tag, payload) = read_envelope(&sealed).expect("a sealed envelope reads back");
        // The spec's primary hash as the codec lays it out: tag, seed.
        let mut hash = vec![0u8];
        hash.extend_from_slice(&spec.hasher().seed().to_le_bytes());
        let at = payload
            .windows(hash.len())
            .position(|w| w == hash)
            .unwrap_or_else(|| panic!("{kind:?}: no tag-0 hash in the payload"));
        for other in 1..=4u8 {
            let mut mutated = payload.to_vec();
            mutated[at] = other;
            let mut resealed = Vec::new();
            write_envelope(tag, &mutated, &mut resealed);
            assert_eq!(
                restore_instance(&resealed).err(),
                Some(CheckpointError::Corrupt("unknown hash kind tag")),
                "{kind:?}: hash tag {other} decoded"
            );
        }
    }
}
