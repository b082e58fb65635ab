//! Decoders below the checksum.
//!
//! A frame, an envelope and a document each carry a MurmurHash64A
//! trailer, so a bit flip inside one is refused by the trailer before
//! any payload decoder runs. The trailer is an integrity check, not a
//! MAC: a peer that computes it reaches every payload decoder with any
//! bytes it likes. These tests go below the checksum. Every encoding of
//! the fixed corpus (`corpus/mod.rs`), every `DDSC` sampler envelope
//! re-sealed around its mutated payload, and `DDSE`/`DDSD` documents
//! re-sealed around their mutated bodies, must decode to a value or to
//! an error — never panic or abort — under every truncation, every
//! single-bit flip, and seeded rewrites of length words and tag bytes.

mod corpus;

use dds_core::checkpoint::{
    read_envelope, restore_instance, write_envelope, StateReader, StateWriter, Wire,
};
use dds_core::sampler::{SamplerKind, SamplerSpec};
use dds_engine::checkpoint::{compact, DELTA_MAGIC, MAGIC};
use dds_engine::{Engine, EngineConfig, EngineError, TenantId};
use dds_hash::murmur2::murmur64a;
use dds_proto::cluster::{ClusterError, ClusterResponse};
use dds_proto::{Request, Response};
use dds_sim::{Element, Slot};
use proptest::prelude::*;

/// A decoder run for its verdict alone.
type Decoder = Box<dyn Fn(&[u8])>;

/// One decoder and the valid bytes it is fed mutations of.
struct Target {
    name: String,
    bytes: Vec<u8>,
    decode: Decoder,
}

impl Target {
    /// Run the decoder on `bytes`. A panic fails the test with the
    /// target and mutation named; a length taken without its bound
    /// reserves gigabytes for a flipped high bit and aborts the run.
    fn check(&self, bytes: &[u8], what: &str) {
        let outcome =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| (self.decode)(bytes)));
        assert!(
            outcome.is_ok(),
            "{}: {what}: the decoder panicked",
            self.name
        );
    }
}

/// A value's `Wire` encoding, decoded back as `T`.
fn wire<T: Wire + 'static>(name: String, value: &T) -> Target {
    let mut w = StateWriter::new();
    w.put(value);
    Target {
        name,
        bytes: w.into_bytes(),
        decode: Box::new(|bytes| {
            let mut r = StateReader::new(bytes);
            let _ = r.get::<T>().and_then(|_| r.expect_end());
        }),
    }
}

/// A sampler envelope's payload, re-sealed around each mutation and
/// restored.
fn envelope(name: String, sealed: &[u8]) -> Target {
    let (kind, payload) = read_envelope(sealed).expect("corpus envelope is valid");
    Target {
        name,
        bytes: payload.to_vec(),
        decode: Box::new(move |payload| {
            let mut out = Vec::new();
            write_envelope(kind, payload, &mut out);
            let _ = restore_instance(&out);
        }),
    }
}

/// The bytes between a document's `magic ‖ version` header and its
/// trailer, re-sealed around each mutation and handed to `open`.
fn document(name: &str, sealed: &[u8], magic: u32, open: impl Fn(&[u8]) + 'static) -> Target {
    let header = sealed[..6].to_vec();
    Target {
        name: name.to_string(),
        bytes: sealed[6..sealed.len() - 8].to_vec(),
        decode: Box::new(move |body| {
            let mut doc = header.clone();
            doc.extend_from_slice(body);
            let check = murmur64a(&doc, u64::from(magic));
            doc.extend_from_slice(&check.to_le_bytes());
            open(&doc);
        }),
    }
}

/// A windowed engine's full document and a delta on top of it, with
/// live, parked and reorder-buffered state.
fn documents() -> (Vec<u8>, Vec<u8>) {
    let spec = SamplerSpec::new(SamplerKind::SlidingMulti { window: 4 }, 2, 9);
    let engine = Engine::spawn(EngineConfig::new(spec).with_shards(2).with_lateness(4));
    engine.observe_batch_at(Slot(1), (0..6).map(|t| (TenantId(t), Element(t * 11))));
    engine.observe_batch_at(Slot(12), (4..8).map(|t| (TenantId(t), Element(t * 13))));
    engine.observe_batch_at(Slot(10), [(TenantId(5), Element(99))]);
    engine.flush();
    let base = engine.checkpoint();
    engine.observe_batch_at(
        Slot(13),
        [(TenantId(6), Element(7)), (TenantId(9), Element(8))],
    );
    engine.flush();
    let delta = engine.checkpoint_delta(&base).expect("delta");
    let _ = engine.shutdown();
    (base, delta)
}

fn targets() -> Vec<Target> {
    let mut out = Vec::new();
    for (i, request) in corpus::requests().into_iter().enumerate() {
        out.push(wire(format!("request {i}"), &request));
    }
    for (i, response) in corpus::responses().into_iter().enumerate() {
        out.push(wire(format!("response {i}"), &response));
    }
    for (i, error) in corpus::engine_errors().into_iter().enumerate() {
        out.push(wire(format!("engine error {i}"), &error));
    }
    for (i, request) in corpus::cluster_requests().into_iter().enumerate() {
        out.push(wire(format!("cluster request {i}"), &request));
    }
    out.push(wire(
        "cluster response".into(),
        &ClusterResponse::Telemetry {
            snapshot: corpus::telemetry(),
        },
    ));
    out.push(wire(
        "cluster error".into(),
        &ClusterError::Protocol("out of turn".into()),
    ));
    for (i, spec) in corpus::specs().into_iter().enumerate() {
        out.push(wire(format!("cluster spec {i}"), &spec));
    }
    out.push(wire("telemetry".into(), &corpus::telemetry()));
    for (i, sealed) in corpus::envelopes().iter().enumerate() {
        out.push(envelope(format!("envelope {i}"), sealed));
    }
    let (base, delta) = documents();
    out.push(document("DDSE", &base, MAGIC, |doc| {
        let _ = compact(doc, &[]);
    }));
    let base_for_delta = base.clone();
    out.push(document("DDSD", &delta, DELTA_MAGIC, move |delta| {
        let _ = compact(&base_for_delta, &[delta.to_vec()]);
    }));
    // The messages' decoders are reached through their frame opcode,
    // too: `Request::decode` and the outcome decoder.
    let request = corpus::requests().swap_remove(3);
    out.push(Target {
        name: "ObserveBatchAt payload".into(),
        bytes: request.payload(),
        decode: Box::new(move |payload| {
            let _ = Request::decode(request.opcode(), payload);
            let _ = dds_proto::decode_outcome::<Response, EngineError>(0x7F, payload);
        }),
    });
    out
}

#[test]
fn every_truncation_and_bit_flip_decodes_or_refuses() {
    for target in targets() {
        target.check(&target.bytes, "the valid encoding");
        for cut in 0..target.bytes.len() {
            target.check(&target.bytes[..cut], &format!("prefix {cut}"));
        }
        for bit in 0..target.bytes.len() * 8 {
            let mut bad = target.bytes.clone();
            bad[bit / 8] ^= 1 << (bit % 8);
            target.check(&bad, &format!("bit {bit} flipped"));
        }
    }
}

/// Length words a mutation writes: the edges, the input's own size and
/// its neighbours, and whatever the seed draws.
fn length_word(seed: u64, len: usize) -> u32 {
    let len = len as u32;
    match seed % 8 {
        0 => u32::MAX,
        1 => u32::MAX - 1,
        2 => 1 << 31,
        3 => len,
        4 => len + 1,
        5 => len.saturating_sub(1),
        6 => (seed >> 32) as u32 % 256,
        _ => (seed >> 16) as u32,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn seeded_length_words_and_tags_decode_or_refuse(seed in any::<u64>()) {
        let mut rng = seed;
        let mut next = move || {
            rng = rng.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = rng;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        for target in targets() {
            let len = target.bytes.len();
            for _ in 0..64 {
                let mut bad = target.bytes.clone();
                let draw = next();
                let at = (draw as usize) % len.max(1);
                if draw & (1 << 40) == 0 && len >= 4 {
                    // A length word (or any u32) anywhere in the input.
                    let at = at.min(len - 4);
                    bad[at..at + 4].copy_from_slice(&length_word(next(), len).to_le_bytes());
                } else if len > 0 {
                    // A tag byte.
                    bad[at] = next() as u8;
                }
                target.check(&bad, &format!("seed {seed}: rewrite at {at}"));
            }
        }
    }
}
