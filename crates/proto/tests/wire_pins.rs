//! Frozen bytes of every wire format: the length and FNV-1a 64 of each
//! encoding in a fixed corpus (`corpus/mod.rs`).
//!
//! Round-trip properties pass for any change made to an encoder and
//! its decoder at once, so they cannot see a byte change. These pins
//! can. A failure here means the bytes on the wire or on disk moved: a
//! peer or a stored checkpoint of the same format VERSION would no
//! longer be read. If the move is intended, bump the format's VERSION
//! and re-pin in the same change; never re-pin alone.

mod corpus;

use dds_engine::EngineError;
use dds_hash::fnv::fnv1a_64;
use dds_proto::{encode_outcome, Response};

/// `(name, length, FNV-1a 64)` of every corpus encoding.
const PINS: &[(&str, usize, u64)] = &[
    ("request 0x01", 35, 0x311e3568d0385268),
    ("request 0x02", 43, 0x65b8c87a79c00db0),
    ("request 0x03", 55, 0x3a94cddd2628cc74),
    ("request 0x04", 63, 0x8efd43d9599c8038),
    ("request 0x05", 27, 0xdb0445e5cd631e3b),
    ("request 0x06", 27, 0xe23bac42de727558),
    ("request 0x07", 35, 0x430ae29b0348df9c),
    ("request 0x08", 36, 0x7d697f057aacd23e),
    ("request 0x09", 28, 0xe3d46f6e7113dbd5),
    ("request 0x0a", 19, 0x47325f49b0910a3b),
    ("request 0x0b", 19, 0x8b4049133b5211cd),
    ("request 0x0c", 19, 0xd7ee87fc52876d02),
    ("request 0x0d", 28, 0xb6ea53c28bff9e3f),
    ("request 0x0e", 19, 0x0fc4c56e2967306a),
    ("request 0x0f", 19, 0xa0127057113db4a1),
    ("response 0x41", 19, 0xd37bac70b19cef02),
    ("response 0x42", 47, 0xf5488ba6ad04fd8b),
    ("response 0x43", 47, 0x8dd79063ea2884ad),
    ("response 0x44", 63, 0xd3b8c8de93afa606),
    ("response 0x45", 263, 0x72e45381dfb0af36),
    ("response 0x46", 26, 0xa3d981427659030a),
    ("response 0x47", 283, 0x7ba13ae040136960),
    ("response 0x48", 343, 0x8b2de7b6e9c71078),
    ("engine error 0", 28, 0xd721ba67cf28c965),
    ("engine error 1", 20, 0x7fede8b20de869c5),
    ("engine error 2", 28, 0x726b3852bd58075d),
    ("engine error 3", 33, 0x069f6b2ae380bb2a),
    ("engine error 4", 36, 0xe9041fdf369ba061),
    ("engine error 5", 37, 0x3fcdb31cb1458678),
    ("engine error 6", 36, 0x345ffc542bb6c5eb),
    ("cluster request 0", 36, 0x693dcdadc37613fa),
    ("cluster request 1", 40, 0x856e42e3de3791c6),
    ("cluster request 2", 44, 0x545879968fb9448f),
    ("cluster request 3", 48, 0x23a01df0ee1bba0e),
    ("cluster request 4", 27, 0x9130eb2f6f8b267e),
    ("cluster request 5", 44, 0xdf2f0f569220ea3d),
    ("cluster request 6", 28, 0xfb93ef4fd2d57230),
    ("cluster request 7", 80, 0x9ad61bcade2f707f),
    ("cluster request 8", 48, 0x132744b9366c446e),
    ("cluster spec 0", 33, 0x51a466da8b8c58ce),
    ("cluster spec 1", 33, 0x3043433a018242d3),
    ("cluster spec 2", 33, 0xdfc3968c50aa55a8),
    ("cluster spec 3", 33, 0x89ff9ae28f724e7d),
    ("envelope 0", 224, 0x7f58c78068465204),
    ("envelope 1", 102, 0x90e202fd2770abd8),
    ("envelope 2", 161, 0x5cc879525b4890a0),
    ("envelope 3", 161, 0x53a979da42682804),
    ("envelope 4", 295, 0x4f2d5d04ba75572b),
];

fn encodings() -> Vec<(String, Vec<u8>)> {
    let mut out = Vec::new();
    for request in corpus::requests() {
        out.push((
            format!("request {:#04x}", request.opcode()),
            request.encode(),
        ));
    }
    for response in corpus::responses() {
        let op = response.opcode();
        let frame = encode_outcome(&Ok::<Response, EngineError>(response));
        out.push((format!("response {op:#04x}"), frame));
    }
    for (tag, error) in corpus::engine_errors().into_iter().enumerate() {
        let frame = encode_outcome(&Err::<Response, EngineError>(error));
        out.push((format!("engine error {tag}"), frame));
    }
    for (i, request) in corpus::cluster_requests().into_iter().enumerate() {
        out.push((format!("cluster request {i}"), request.encode()));
    }
    for (i, spec) in corpus::specs().into_iter().enumerate() {
        out.push((format!("cluster spec {i}"), spec.encode()));
    }
    for (i, envelope) in corpus::envelopes().into_iter().enumerate() {
        out.push((format!("envelope {i}"), envelope));
    }
    out
}

#[test]
fn every_format_keeps_its_bytes() {
    let actual: Vec<(String, usize, u64)> = encodings()
        .into_iter()
        .map(|(name, bytes)| (name, bytes.len(), fnv1a_64(&bytes)))
        .collect();
    let table: String = actual
        .iter()
        .map(|(name, len, hash)| format!("    ({name:?}, {len}, {hash:#018x}),\n"))
        .collect();
    let pinned: Vec<(String, usize, u64)> = PINS
        .iter()
        .map(|&(name, len, hash)| (name.to_string(), len, hash))
        .collect();
    assert_eq!(actual, pinned, "the encodings are now:\n{table}");
}
