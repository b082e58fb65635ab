//! Frozen integrity trailers for the checksummed formats: a `DDSP`
//! frame, a `DDSC` sampler envelope, a `DDSD` delta document and two
//! full `DDSE` engine documents (one of bottom-`s` tenants, one with
//! parked tenants).
//!
//! Each trailer is MurmurHash64A seeded with the format's dispatch tag
//! (the opcode, the kind tag, the document magic). The pinned values
//! make any change to the checksum or to the bytes it covers fail here,
//! where a format version bump belongs, instead of surfacing as peers
//! and stored checkpoints that no longer agree. Every single-bit flip
//! of each document must be rejected, and the same bytes stamped as the
//! previous format version wrote them must be refused with
//! `UnsupportedVersion`, never misread.

use std::io;

use dds_core::checkpoint::{self as envelope, restore_sampler, CheckpointError};
use dds_core::sampler::{SamplerKind, SamplerSpec};
use dds_engine::checkpoint::{self as container, compact};
use dds_engine::{Engine, EngineConfig, TenantId};
use dds_hash::fnv::{fnv1a_64, fnv1a_64_update, FNV1A_64_OFFSET};
use dds_proto::frame::{self, decode_frame, read_frame, FrameDecoder, FrameError};
use dds_proto::Request;
use dds_sim::{Element, Slot};

const FRAME_TRAILER: u64 = 0x71cf_041d_8520_b43f;
const ENVELOPE_TRAILER: u64 = 0x544f_a3e5_7986_43f1;
const DELTA_TRAILER: u64 = 0x5cb1_7235_af0d_ebe7;
const INFINITE_DOCUMENT_TRAILER: u64 = 0x5ddb_8120_2ac4_4bb6;
const WINDOWED_DOCUMENT_TRAILER: u64 = 0xe453_71e7_9e25_fa76;

fn trailer(bytes: &[u8]) -> u64 {
    u64::from_le_bytes(bytes[bytes.len() - 8..].try_into().expect("8-byte trailer"))
}

/// Byte offset of the `u16` version in all three formats (after the
/// `u32` magic).
const VERSION_AT: usize = 4;

/// Rewrite `bytes` as the previous format version wrote them: the old
/// version number and the FNV-1a 64 trailer over what it covered.
fn restamp_previous(bytes: &[u8], version: u16, old_check: impl Fn(&[u8]) -> u64) -> Vec<u8> {
    let mut old = bytes.to_vec();
    old[VERSION_AT..VERSION_AT + 2].copy_from_slice(&(version - 1).to_le_bytes());
    let body = old.len() - 8;
    let check = old_check(&old[..body]);
    old[body..].copy_from_slice(&check.to_le_bytes());
    old
}

/// Every copy of `bytes` with one bit flipped.
fn bit_flips(bytes: &[u8]) -> impl Iterator<Item = (usize, Vec<u8>)> + '_ {
    (0..bytes.len() * 8).map(move |bit| {
        let mut bad = bytes.to_vec();
        bad[bit / 8] ^= 1 << (bit % 8);
        (bit, bad)
    })
}

fn golden_frame() -> Vec<u8> {
    let request = Request::ObserveBatchAt {
        now: Slot(12),
        batch: (0..6u64)
            .map(|i| (TenantId(i % 3), Element(100 + i)))
            .collect(),
    };
    request.encode()
}

#[test]
fn frame_trailer_is_frozen_and_every_bit_flip_is_rejected() {
    let bytes = golden_frame();
    let (opcode, _) = decode_frame(&bytes).expect("golden frame decodes");
    assert_eq!(
        trailer(&bytes),
        FRAME_TRAILER,
        "frame trailer drifted: {:#018x}",
        trailer(&bytes)
    );
    for (bit, bad) in bit_flips(&bytes) {
        assert!(decode_frame(&bad).is_err(), "flip of bit {bit} accepted");
        assert!(
            read_frame(&mut io::Cursor::new(&bad)).is_err(),
            "flip of bit {bit} read"
        );
    }

    // The previous version's trailer was FNV-1a 64 over opcode ‖ payload.
    let old = restamp_previous(&bytes, frame::VERSION, |body| {
        let payload = &body[frame::HEADER_BYTES..];
        fnv1a_64_update(fnv1a_64_update(FNV1A_64_OFFSET, &[opcode]), payload)
    });
    let refused = CheckpointError::UnsupportedVersion(frame::VERSION - 1);
    assert_eq!(decode_frame(&old), Err(refused));
    assert!(matches!(
        read_frame(&mut io::Cursor::new(&old)),
        Err(FrameError::Format(e)) if e == refused
    ));
    let mut decoder = FrameDecoder::new();
    decoder.push(&old);
    assert_eq!(decoder.next_frame(&mut Vec::new()), Err(refused));
}

fn golden_envelope() -> Vec<u8> {
    let spec = SamplerSpec::new(SamplerKind::SlidingMulti { window: 16 }, 4, 2015);
    let mut sampler = spec.build();
    for i in 0..40u64 {
        sampler.observe_at(Element(i * 7 % 23), Slot(1 + i / 4));
    }
    let mut out = Vec::new();
    sampler.checkpoint(&mut out);
    out
}

#[test]
fn envelope_trailer_is_frozen_and_every_bit_flip_is_rejected() {
    let bytes = golden_envelope();
    let (kind, _) = envelope::read_envelope(&bytes).expect("golden envelope reads");
    restore_sampler(&bytes).expect("golden envelope restores");
    assert_eq!(
        trailer(&bytes),
        ENVELOPE_TRAILER,
        "envelope trailer drifted: {:#018x}",
        trailer(&bytes)
    );
    for (bit, bad) in bit_flips(&bytes) {
        assert!(restore_sampler(&bad).is_err(), "flip of bit {bit} restored");
    }

    // The previous version's trailer was FNV-1a 64 over kind ‖ payload;
    // the payload starts after magic, version, kind and length.
    let old = restamp_previous(&bytes, envelope::VERSION, |body| {
        fnv1a_64_update(fnv1a_64_update(FNV1A_64_OFFSET, &[kind]), &body[11..])
    });
    let refused = CheckpointError::UnsupportedVersion(envelope::VERSION - 1);
    assert_eq!(envelope::read_envelope(&old).err(), Some(refused));
    assert_eq!(restore_sampler(&old).err(), Some(refused));
}

/// A base document and a delta over it, from a small deterministic run.
fn golden_documents() -> (Vec<u8>, Vec<u8>) {
    let spec = SamplerSpec::new(SamplerKind::Sliding { window: 8 }, 1, 77);
    let engine = Engine::spawn(EngineConfig::new(spec).with_shards(2));
    for t in 0..12u64 {
        engine.observe_at(TenantId(t), Element(t * 5), Slot(1));
    }
    engine.flush();
    let base = engine.checkpoint();
    for t in 0..3u64 {
        engine.observe_at(TenantId(t), Element(500 + t), Slot(2));
    }
    engine.flush();
    let delta = engine.checkpoint_delta(&base).expect("delta over base");
    let _ = engine.shutdown();
    (base, delta)
}

#[test]
fn delta_trailer_is_frozen_and_every_bit_flip_is_rejected() {
    let (base, delta) = golden_documents();
    let folded = compact(&base, std::slice::from_ref(&delta)).expect("golden delta folds");
    assert_eq!(
        trailer(&delta),
        DELTA_TRAILER,
        "delta trailer drifted: {:#018x}",
        trailer(&delta)
    );
    for (bit, bad) in bit_flips(&delta) {
        assert!(
            compact(&base, &[bad]).is_err(),
            "flip of bit {bit} compacted"
        );
    }

    // The previous versions' trailer was FNV-1a 64 over every preceding
    // byte, for full and delta documents alike.
    let old_delta = restamp_previous(&delta, container::DELTA_VERSION, fnv1a_64);
    assert_eq!(
        compact(&base, &[old_delta]).err(),
        Some(CheckpointError::UnsupportedVersion(
            container::DELTA_VERSION - 1
        ))
    );
    let old_full = restamp_previous(&folded, container::VERSION, fnv1a_64);
    let refused = CheckpointError::UnsupportedVersion(container::VERSION - 1);
    assert_eq!(Engine::restore(&old_full).err(), Some(refused));
    assert_eq!(compact(&old_full, &[]).err(), Some(refused));
}

/// A full document of an `Infinite` s = 8 engine over 20 tenants: every
/// tenant record carries a bottom-`s` sample.
fn golden_infinite_document() -> Vec<u8> {
    let spec = SamplerSpec::new(SamplerKind::Infinite, 8, 2015);
    let engine = Engine::spawn(EngineConfig::new(spec).with_shards(2));
    for round in 0..4u64 {
        let batch: Vec<(TenantId, Element)> = (0..100u64)
            .map(|i| (TenantId(i % 20), Element((round * 100 + i) * 7_919 % 1_009)))
            .collect();
        engine.observe_batch(batch);
    }
    engine.observe(TenantId(3), Element(4_242));
    engine.flush();
    let doc = engine.checkpoint();
    let _ = engine.shutdown();
    doc
}

/// A full document of a windowed engine after an `advance` that parked
/// the tenants whose window drained (half of the twelve).
fn golden_windowed_document() -> Vec<u8> {
    let spec = SamplerSpec::new(SamplerKind::Sliding { window: 4 }, 1, 77);
    let engine = Engine::spawn(EngineConfig::new(spec).with_shards(2));
    for t in 0..12u64 {
        engine.observe_at(TenantId(t), Element(t * 5), Slot(1 + (t % 2) * 4));
    }
    engine.advance(Slot(7));
    engine.flush();
    assert_eq!(engine.metrics().total_evictions(), 6, "the advance parks");
    let doc = engine.checkpoint();
    let _ = engine.shutdown();
    doc
}

#[test]
fn engine_document_trailers_are_frozen_and_restore_byte_exact() {
    for (doc, pinned) in [
        (golden_infinite_document(), INFINITE_DOCUMENT_TRAILER),
        (golden_windowed_document(), WINDOWED_DOCUMENT_TRAILER),
    ] {
        assert_eq!(
            trailer(&doc),
            pinned,
            "engine document trailer drifted: {:#018x}",
            trailer(&doc)
        );
        assert_eq!(compact(&doc, &[]).expect("golden document folds"), doc);
        let restored = Engine::restore(&doc).expect("golden document restores");
        assert_eq!(restored.checkpoint(), doc, "restore changed the document");
        let _ = restored.shutdown();
    }
}
