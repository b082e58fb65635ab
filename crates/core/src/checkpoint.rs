//! Durable sampler state — the versioned, checksummed binary envelope
//! behind [`DistinctSampler::checkpoint`] and [`restore_sampler`].
//!
//! The paper's samplers are tiny, self-describing state machines: a
//! fused instance is completely determined by its hash function(s), its
//! candidate/sample structures, its clock, and its message counter. That
//! makes them ideal checkpoint material — a serving layer can persist
//! every tenant in a few dozen bytes and rebuild it, bit for bit, after
//! a crash. This module is the codec; `dds-engine`'s `checkpoint` module
//! stacks the multi-tenant container format on top.
//!
//! ## Envelope format (version 2)
//!
//! All integers little-endian, in the `dds_core::messages` fixed-layout
//! style:
//!
//! ```text
//! magic    u32   0x4353_4444  ("DDSC")
//! version  u16   2
//! kind     u8    sampler kind tag (see `kind::*`)
//! len      u32   payload byte length
//! payload  [u8]  kind-specific state (below)
//! check    u64   MurmurHash64A of the payload, seeded with the kind tag
//! ```
//!
//! The checksum covers the kind tag and the payload: for a fixed payload
//! MurmurHash64A is a bijection of its seed, and for a fixed seed and
//! length any change confined to one 8-byte word changes the hash, so
//! *any* single-bit corruption of the state or its dispatch tag is
//! detected; corruption of `magic`/`version`/`len` is caught by their
//! own validation (and `len` is bounds-checked against the buffer
//! before any allocation).
//! Restoring a valid envelope with trailing bytes after it is an error
//! too — an envelope is a complete document, not a prefix.
//!
//! ## Payloads
//!
//! Hash functions serialize as `(kind u8, seed u64)` — state, not code,
//! exactly like Algorithm 1's "receive hash function from the
//! coordinator" step. Derived values (per-element hashes) are *not*
//! stored: decoders recompute them from the serialized hash function, so
//! an envelope cannot smuggle in an inconsistent `(element, hash)` pair.
//! Candidate sets serialize as their sorted staircase entries and are
//! rebuilt through the ordinary [`CandidateSet::insert_or_refresh`]
//! path, which re-establishes every structural invariant.
//!
//! The restored instance is *observationally identical* to the original:
//! same samples, same thresholds, same memory, and the same message
//! counts on any suffix stream — the engine's recovery suite pins this
//! byte-exactly against uninterrupted twins.
//!
//! [`DistinctSampler::checkpoint`]: crate::sampler::DistinctSampler::checkpoint
//! [`CandidateSet::insert_or_refresh`]: dds_treap::CandidateSet::insert_or_refresh

use dds_hash::unit::HashKind;
use dds_hash::SeededHash;
use dds_sim::{Element, Slot};

use crate::sampler::{AnySampler, DistinctSampler};

/// Envelope magic: `b"DDSC"` read as a little-endian `u32`.
pub const MAGIC: u32 = u32::from_le_bytes(*b"DDSC");

/// Current envelope format version.
///
/// History: v1 → v2 replaced the byte-serial FNV-1a 64 trailer with
/// MurmurHash64A; v1 envelopes are refused with
/// [`CheckpointError::UnsupportedVersion`].
pub const VERSION: u16 = 2;

/// Sampler kind tags (the envelope's dispatch byte).
pub mod kind {
    /// [`crate::CentralizedSampler`].
    pub const CENTRALIZED: u8 = 0;
    /// [`crate::FusedInfinite`].
    pub const INFINITE: u8 = 1;
    /// [`crate::FusedWr`].
    pub const WITH_REPLACEMENT: u8 = 2;
    /// [`crate::FusedSliding`].
    pub const SLIDING: u8 = 3;
    /// [`crate::FusedSlidingMulti`].
    pub const SLIDING_MULTI: u8 = 4;
}

/// Why a checkpoint could not be decoded.
///
/// Every decode path returns one of these — truncated, bit-flipped, or
/// otherwise malformed input must never panic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CheckpointError {
    /// The input ended before the declared structure did.
    Truncated,
    /// The envelope does not start with [`MAGIC`].
    BadMagic(u32),
    /// The envelope's version is not one this build can read.
    UnsupportedVersion(u16),
    /// The kind tag names no known sampler.
    UnknownKind(u8),
    /// The checksum over kind + payload does not match.
    ChecksumMismatch,
    /// Bytes remain after a complete envelope.
    TrailingBytes(usize),
    /// A structurally valid read produced semantically impossible state.
    Corrupt(&'static str),
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            CheckpointError::Truncated => write!(f, "checkpoint truncated"),
            CheckpointError::BadMagic(m) => write!(f, "bad checkpoint magic {m:#010x}"),
            CheckpointError::UnsupportedVersion(v) => {
                write!(f, "unsupported checkpoint version {v}")
            }
            CheckpointError::UnknownKind(k) => write!(f, "unknown sampler kind tag {k}"),
            CheckpointError::ChecksumMismatch => write!(f, "checkpoint checksum mismatch"),
            CheckpointError::TrailingBytes(n) => {
                write!(f, "{n} trailing bytes after checkpoint envelope")
            }
            CheckpointError::Corrupt(what) => write!(f, "corrupt checkpoint: {what}"),
        }
    }
}

impl std::error::Error for CheckpointError {}

/// Append-only little-endian state encoder (the writing half of the
/// envelope payloads; `dds-engine` reuses it for its container format).
#[derive(Debug, Default)]
pub struct StateWriter {
    buf: Vec<u8>,
}

impl StateWriter {
    /// An empty writer.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// The encoded bytes.
    #[must_use]
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Bytes written so far.
    #[must_use]
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True if nothing has been written.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Reserve room for at least `additional` more bytes, so a writer
    /// that knows its size up front grows its buffer once.
    pub fn reserve(&mut self, additional: usize) {
        self.buf.reserve(additional);
    }

    /// Append one byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Append a `u16`.
    pub fn put_u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a `u32`.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a `u64`.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a boolean as one byte.
    pub fn put_bool(&mut self, v: bool) {
        self.put_u8(u8::from(v));
    }

    /// Append a collection length as a `u32`.
    ///
    /// # Panics
    /// Panics if `n` exceeds `u32::MAX` (no realistic sampler state
    /// does).
    pub fn put_len(&mut self, n: usize) {
        self.put_u32(u32::try_from(n).expect("checkpoint collection exceeds u32 length"));
    }

    /// Append an [`Element`].
    pub fn put_element(&mut self, e: Element) {
        self.put_u64(e.0);
    }

    /// Append a [`Slot`].
    pub fn put_slot(&mut self, s: Slot) {
        self.put_u64(s.0);
    }

    /// Append a hash function as `(kind, seed)`.
    pub fn put_hasher(&mut self, h: SeededHash) {
        self.put_u8(hash_kind_tag(h.kind()));
        self.put_u64(h.seed());
    }

    /// Append raw bytes verbatim (no length prefix).
    pub fn put_bytes(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }
}

/// Cursor over encoded state (the reading half). Every accessor is
/// bounds-checked and returns [`CheckpointError::Truncated`] rather than
/// reading past the end.
#[derive(Debug)]
pub struct StateReader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> StateReader<'a> {
    /// A reader over `bytes`, positioned at the start.
    #[must_use]
    pub fn new(bytes: &'a [u8]) -> Self {
        Self { bytes, pos: 0 }
    }

    /// Bytes not yet consumed.
    #[must_use]
    pub fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], CheckpointError> {
        if self.remaining() < n {
            return Err(CheckpointError::Truncated);
        }
        let out = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// Read one byte.
    pub fn get_u8(&mut self) -> Result<u8, CheckpointError> {
        Ok(self.take(1)?[0])
    }

    /// Read a `u16`.
    pub fn get_u16(&mut self) -> Result<u16, CheckpointError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().expect("len 2")))
    }

    /// Read a `u32`.
    pub fn get_u32(&mut self) -> Result<u32, CheckpointError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("len 4")))
    }

    /// Read a `u64`.
    pub fn get_u64(&mut self) -> Result<u64, CheckpointError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("len 8")))
    }

    /// Read a boolean (any non-`0`/`1` byte is corrupt).
    pub fn get_bool(&mut self) -> Result<bool, CheckpointError> {
        match self.get_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(CheckpointError::Corrupt("boolean byte out of range")),
        }
    }

    /// Read a collection length and bound it: decoding `len` items of at
    /// least `min_item_bytes` each must fit in the remaining input, so a
    /// corrupted length can never trigger a huge allocation.
    pub fn get_len(&mut self, min_item_bytes: usize) -> Result<usize, CheckpointError> {
        let n = self.get_u32()? as usize;
        if n.saturating_mul(min_item_bytes.max(1)) > self.remaining() {
            return Err(CheckpointError::Truncated);
        }
        Ok(n)
    }

    /// Read an [`Element`].
    pub fn get_element(&mut self) -> Result<Element, CheckpointError> {
        Ok(Element(self.get_u64()?))
    }

    /// Read a [`Slot`].
    pub fn get_slot(&mut self) -> Result<Slot, CheckpointError> {
        Ok(Slot(self.get_u64()?))
    }

    /// Read a hash function.
    pub fn get_hasher(&mut self) -> Result<SeededHash, CheckpointError> {
        let kind = hash_kind_from_tag(self.get_u8()?)?;
        let seed = self.get_u64()?;
        Ok(SeededHash::new(kind, seed))
    }

    /// Read exactly `n` raw bytes.
    pub fn get_bytes(&mut self, n: usize) -> Result<&'a [u8], CheckpointError> {
        self.take(n)
    }

    /// Assert the input is fully consumed.
    pub fn expect_end(&self) -> Result<(), CheckpointError> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(CheckpointError::TrailingBytes(self.remaining()))
        }
    }
}

fn hash_kind_tag(kind: HashKind) -> u8 {
    match kind {
        HashKind::Murmur2 => 0,
        HashKind::Murmur3 => 1,
        HashKind::SplitMix => 2,
        HashKind::Sip13 => 3,
        HashKind::Fmix => 4,
    }
}

fn hash_kind_from_tag(tag: u8) -> Result<HashKind, CheckpointError> {
    Ok(match tag {
        0 => HashKind::Murmur2,
        1 => HashKind::Murmur3,
        2 => HashKind::SplitMix,
        3 => HashKind::Sip13,
        4 => HashKind::Fmix,
        _ => return Err(CheckpointError::Corrupt("unknown hash kind tag")),
    })
}

/// Wrap a kind tag + payload in the versioned envelope and append it to
/// `out` (the writing half of [`restore_sampler`]).
pub fn write_envelope(kind_tag: u8, payload: &[u8], out: &mut Vec<u8>) {
    let mut w = StateWriter::new();
    w.put_u32(MAGIC);
    w.put_u16(VERSION);
    w.put_u8(kind_tag);
    w.put_len(payload.len());
    w.put_bytes(payload);
    w.put_u64(checksum(kind_tag, payload));
    out.extend_from_slice(&w.into_bytes());
}

/// MurmurHash64A of the payload seeded with the kind tag — this runs
/// once per tenant on both the checkpoint and restore paths, so it must
/// not copy the payload.
fn checksum(kind_tag: u8, payload: &[u8]) -> u64 {
    dds_hash::murmur2::murmur64a(payload, u64::from(kind_tag))
}

/// Validate one envelope occupying *all* of `bytes`; return the kind tag
/// and payload slice.
pub fn read_envelope(bytes: &[u8]) -> Result<(u8, &[u8]), CheckpointError> {
    let mut r = StateReader::new(bytes);
    let magic = r.get_u32()?;
    if magic != MAGIC {
        return Err(CheckpointError::BadMagic(magic));
    }
    let version = r.get_u16()?;
    if version != VERSION {
        return Err(CheckpointError::UnsupportedVersion(version));
    }
    let kind_tag = r.get_u8()?;
    let len = r.get_len(1)?;
    let payload = r.get_bytes(len)?;
    let check = r.get_u64()?;
    if check != checksum(kind_tag, payload) {
        return Err(CheckpointError::ChecksumMismatch);
    }
    r.expect_end()?;
    Ok((kind_tag, payload))
}

/// Rebuild a sampler from an envelope produced by
/// [`DistinctSampler::checkpoint`], as the closed [`AnySampler`] enum.
///
/// The returned instance is observationally identical to the one that
/// was checkpointed: same sample, threshold, memory, clock, and message
/// counter, and identical behaviour on any suffix of observations and
/// clock advances. Truncated or corrupted input returns a clean
/// [`CheckpointError`]; this function never panics on untrusted bytes.
///
/// [`DistinctSampler::checkpoint`]: crate::sampler::DistinctSampler::checkpoint
pub fn restore_instance(bytes: &[u8]) -> Result<AnySampler, CheckpointError> {
    use crate::sampler::{FusedInfinite, FusedSliding, FusedSlidingMulti, FusedWr};
    let (kind_tag, payload) = read_envelope(bytes)?;
    let mut r = StateReader::new(payload);
    let sampler = match kind_tag {
        kind::CENTRALIZED => AnySampler::Centralized(
            crate::centralized::CentralizedSampler::decode_state(&mut r)?,
        ),
        kind::INFINITE => AnySampler::Infinite(FusedInfinite::decode_state(&mut r)?),
        kind::WITH_REPLACEMENT => AnySampler::WithReplacement(FusedWr::decode_state(&mut r)?),
        kind::SLIDING => AnySampler::Sliding(Box::new(FusedSliding::decode_state(&mut r)?)),
        kind::SLIDING_MULTI => AnySampler::SlidingMulti(FusedSlidingMulti::decode_state(&mut r)?),
        other => return Err(CheckpointError::UnknownKind(other)),
    };
    r.expect_end()?;
    Ok(sampler)
}

/// [`restore_instance`] behind the unified interface, boxed.
///
/// # Errors
/// As [`restore_instance`].
pub fn restore_sampler(bytes: &[u8]) -> Result<Box<dyn DistinctSampler>, CheckpointError> {
    Ok(Box::new(restore_instance(bytes)?))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writer_reader_roundtrip_primitives() {
        let mut w = StateWriter::new();
        w.put_u8(7);
        w.put_u16(300);
        w.put_u32(70_000);
        w.put_u64(u64::MAX - 1);
        w.put_bool(true);
        w.put_len(3);
        w.put_element(Element(42));
        w.put_slot(Slot(99));
        w.put_hasher(SeededHash::new(HashKind::Murmur2, 1234));
        let bytes = w.into_bytes();
        let mut r = StateReader::new(&bytes);
        assert_eq!(r.get_u8().unwrap(), 7);
        assert_eq!(r.get_u16().unwrap(), 300);
        assert_eq!(r.get_u32().unwrap(), 70_000);
        assert_eq!(r.get_u64().unwrap(), u64::MAX - 1);
        assert!(r.get_bool().unwrap());
        assert_eq!(r.get_len(1).unwrap(), 3);
        assert_eq!(r.get_element().unwrap(), Element(42));
        assert_eq!(r.get_slot().unwrap(), Slot(99));
        assert_eq!(
            r.get_hasher().unwrap(),
            SeededHash::new(HashKind::Murmur2, 1234)
        );
        r.expect_end().unwrap();
    }

    #[test]
    fn reads_past_end_are_truncation_errors() {
        let mut r = StateReader::new(&[1, 2, 3]);
        assert_eq!(r.get_u64(), Err(CheckpointError::Truncated));
        // A failed read consumes nothing.
        assert_eq!(r.get_u8().unwrap(), 1);
    }

    #[test]
    fn length_prefix_is_bounded_by_remaining_bytes() {
        let mut w = StateWriter::new();
        w.put_len(1_000_000); // claims a million 8-byte items…
        w.put_u64(0); // …but only 8 bytes follow.
        let bytes = w.into_bytes();
        let mut r = StateReader::new(&bytes);
        assert_eq!(r.get_len(8), Err(CheckpointError::Truncated));
    }

    #[test]
    fn envelope_roundtrip_and_validation() {
        let mut out = Vec::new();
        write_envelope(kind::INFINITE, &[1, 2, 3, 4], &mut out);
        let (tag, payload) = read_envelope(&out).unwrap();
        assert_eq!(tag, kind::INFINITE);
        assert_eq!(payload, &[1, 2, 3, 4]);

        // Trailing garbage after a complete envelope is rejected.
        let mut long = out.clone();
        long.push(0);
        assert_eq!(read_envelope(&long), Err(CheckpointError::TrailingBytes(1)));

        // Every truncation fails cleanly.
        for cut in 0..out.len() {
            assert!(read_envelope(&out[..cut]).is_err(), "prefix {cut} accepted");
        }

        // Every single-byte corruption fails cleanly.
        for i in 0..out.len() {
            let mut bad = out.clone();
            bad[i] ^= 0x40;
            assert!(read_envelope(&bad).is_err(), "flip at byte {i} accepted");
        }
    }

    #[test]
    fn bad_bool_and_bad_hash_kind_are_corrupt() {
        let mut r = StateReader::new(&[9]);
        assert_eq!(
            r.get_bool(),
            Err(CheckpointError::Corrupt("boolean byte out of range"))
        );
        let bytes = [200u8, 0, 0, 0, 0, 0, 0, 0, 0];
        let mut r = StateReader::new(&bytes);
        assert_eq!(
            r.get_hasher(),
            Err(CheckpointError::Corrupt("unknown hash kind tag"))
        );
    }

    #[test]
    fn errors_display_distinctly() {
        let msgs: Vec<String> = [
            CheckpointError::Truncated,
            CheckpointError::BadMagic(7),
            CheckpointError::UnsupportedVersion(9),
            CheckpointError::UnknownKind(42),
            CheckpointError::ChecksumMismatch,
            CheckpointError::TrailingBytes(3),
            CheckpointError::Corrupt("x"),
        ]
        .iter()
        .map(ToString::to_string)
        .collect();
        let unique: std::collections::HashSet<&String> = msgs.iter().collect();
        assert_eq!(unique.len(), msgs.len());
    }
}
