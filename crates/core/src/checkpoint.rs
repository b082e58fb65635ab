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
//! ## One codec: [`Wire`]
//!
//! Every byte layout in the workspace is declared once, as a [`Wire`]
//! impl: `put` appends a value to a [`StateWriter`], `get` reads it
//! back from a [`StateReader`], and `MIN_BYTES` is the fewest bytes any
//! encoding of the type takes. Integers are little-endian and
//! fixed-width, `bool` is one `0`/`1` byte, `usize` is a `u64`,
//! `String` and `Vec<T>` are a `u32` length then the items, tuples and
//! arrays are their fields in order, and `Option<T>` is a presence flag
//! then the value when present ([`Padded`] names the fixed-width
//! variant that writes zeros for `None`). A decoded length is bounded
//! by the item type's `MIN_BYTES` against the remaining input, so a
//! lying length word cannot allocate beyond the bytes it arrived in.
//! Records and closed enums are laid out by [`wire_record!`](crate::wire_record) and
//! [`wire_enum!`](crate::wire_enum), which list each field once for
//! both directions; a field whose layout differs from its type's names
//! the layout at the field (`at: Option<Slot> as Padded<Slot>`).
//! `dds-engine`, `dds-obs` and `dds-proto` implement it for their own
//! types, and the sampler states below are `Wire` too.
//!
//! ## Payloads
//!
//! Hash functions serialize as `(kind u8, seed u64)` — state, not code,
//! exactly like Algorithm 1's "receive hash function from the
//! coordinator" step; the kind byte is always 0, MurmurHash64A. Derived
//! values (per-element hashes) are *not* stored: decoders recompute them
//! from the serialized hash function, so an envelope cannot smuggle in
//! an inconsistent `(element, hash)` pair.
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

use dds_hash::unit::UnitValue;
use dds_hash::SeededHash;
use dds_sim::{Element, MessageCounters, SiteId, Slot};

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

/// Append-only little-endian state encoder: the writing half of every
/// [`Wire`] layout.
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
    #[inline]
    pub fn reserve(&mut self, additional: usize) {
        self.buf.reserve(additional);
    }

    /// Append one byte.
    #[inline]
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Append a `u16`.
    #[inline]
    pub fn put_u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a `u32`.
    #[inline]
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a `u64`.
    #[inline]
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a boolean as one byte.
    #[inline]
    pub fn put_bool(&mut self, v: bool) {
        self.put_u8(u8::from(v));
    }

    /// Append a collection length as a `u32`.
    ///
    /// # Panics
    /// Panics if `n` exceeds `u32::MAX` (no realistic sampler state
    /// does).
    #[inline]
    pub fn put_len(&mut self, n: usize) {
        self.put_u32(u32::try_from(n).expect("checkpoint collection exceeds u32 length"));
    }

    /// Append raw bytes verbatim (no length prefix).
    #[inline]
    pub fn put_bytes(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Append any [`Wire`] value.
    #[inline]
    pub fn put<T: Wire>(&mut self, value: &T) {
        value.put(self);
    }

    /// Append a sequence: its length as a `u32`, then each item. Room
    /// for the whole sequence at its items' `MIN_BYTES` is reserved
    /// once, up front.
    #[inline]
    pub fn put_slice<T: Wire>(&mut self, items: &[T]) {
        self.reserve(4 + items.len() * T::MIN_BYTES);
        self.put_len(items.len());
        T::put_all(items, self);
    }

    /// Append a sequence produced by an iterator, laid out as
    /// [`StateWriter::put_slice`] lays out a slice of the same items.
    pub fn put_iter<T: Wire>(&mut self, items: impl ExactSizeIterator<Item = T>) {
        self.put_len(items.len());
        for item in items {
            item.put(self);
        }
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
    #[inline]
    pub fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    #[inline]
    fn take(&mut self, n: usize) -> Result<&'a [u8], CheckpointError> {
        if self.remaining() < n {
            return Err(CheckpointError::Truncated);
        }
        let out = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// Read one byte.
    #[inline]
    pub fn get_u8(&mut self) -> Result<u8, CheckpointError> {
        Ok(self.take(1)?[0])
    }

    /// Read a `u16`.
    #[inline]
    pub fn get_u16(&mut self) -> Result<u16, CheckpointError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().expect("len 2")))
    }

    /// Read a `u32`.
    #[inline]
    pub fn get_u32(&mut self) -> Result<u32, CheckpointError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("len 4")))
    }

    /// Read a `u64`.
    #[inline]
    pub fn get_u64(&mut self) -> Result<u64, CheckpointError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("len 8")))
    }

    /// Read a boolean (any non-`0`/`1` byte is corrupt).
    #[inline]
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
    #[inline]
    pub fn get_len(&mut self, min_item_bytes: usize) -> Result<usize, CheckpointError> {
        let n = self.get_u32()? as usize;
        if n.saturating_mul(min_item_bytes.max(1)) > self.remaining() {
            return Err(CheckpointError::Truncated);
        }
        Ok(n)
    }

    /// Read the length of a sequence of `T` and bound it by
    /// `T::MIN_BYTES` — for a format whose count and items are not
    /// adjacent; [`StateReader::get_vec_into`] reads an adjacent one.
    #[inline]
    pub fn get_len_of<T: Wire>(&mut self) -> Result<usize, CheckpointError> {
        self.get_len(T::MIN_BYTES)
    }

    /// Read any [`Wire`] value.
    #[inline]
    pub fn get<T: Wire>(&mut self) -> Result<T, CheckpointError> {
        T::get(self)
    }

    /// Read a sequence into a caller-owned buffer, cleared and refilled
    /// in place, so a caller that reuses one buffer allocates nothing
    /// once it has grown. The length is bounded by `T::MIN_BYTES`.
    #[inline]
    pub fn get_vec_into<T: Wire>(&mut self, out: &mut Vec<T>) -> Result<(), CheckpointError> {
        let n = self.get_len_of::<T>()?;
        out.clear();
        T::get_all(n, self, out)
    }

    /// Read a sequence item by item, handing each to `each` instead of
    /// collecting it (for a decoder that rebuilds a structure as it
    /// reads). The length is bounded by `T::MIN_BYTES`; returns it.
    pub fn get_each<T: Wire>(
        &mut self,
        mut each: impl FnMut(T) -> Result<(), CheckpointError>,
    ) -> Result<usize, CheckpointError> {
        let n = self.get_len_of::<T>()?;
        for _ in 0..n {
            each(T::get(self)?)?;
        }
        Ok(n)
    }

    /// Read exactly `n` raw bytes.
    #[inline]
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

/// A type laid out once for both directions: [`Wire::put`] appends it
/// to a [`StateWriter`], [`Wire::get`] reads it back from a
/// [`StateReader`] (never panicking on malformed input), and
/// [`Wire::MIN_BYTES`] is the floor that bounds a decoded length.
pub trait Wire: Sized {
    /// The fewest bytes any encoding of `Self` occupies. A sequence of
    /// `n` items is refused as truncated unless `n * MIN_BYTES` bytes
    /// remain, so a lying length word never allocates past its input.
    const MIN_BYTES: usize;

    /// Append `self`.
    fn put(&self, w: &mut StateWriter);

    /// Read one value.
    ///
    /// # Errors
    /// A clean [`CheckpointError`] on truncated or malformed input.
    fn get(r: &mut StateReader<'_>) -> Result<Self, CheckpointError>;

    /// Append the items of a sequence (its length is already written).
    /// Bytes override this with one copy.
    #[doc(hidden)]
    fn put_all(items: &[Self], w: &mut StateWriter) {
        for item in items {
            item.put(w);
        }
    }

    /// Read `n` items onto `out`; `n` is already bounded by
    /// `MIN_BYTES`. Bytes override this with one copy.
    #[doc(hidden)]
    fn get_all(
        n: usize,
        r: &mut StateReader<'_>,
        out: &mut Vec<Self>,
    ) -> Result<(), CheckpointError> {
        out.reserve(n);
        for _ in 0..n {
            out.push(Self::get(r)?);
        }
        Ok(())
    }
}

macro_rules! wire_int {
    ($($ty:ty => $put:ident, $get:ident;)*) => {$(
        impl Wire for $ty {
            const MIN_BYTES: usize = std::mem::size_of::<$ty>();
            #[inline]
            fn put(&self, w: &mut StateWriter) {
                w.$put(*self);
            }
            #[inline]
            fn get(r: &mut StateReader<'_>) -> Result<Self, CheckpointError> {
                r.$get()
            }
        }
    )*};
}

wire_int! {
    u16 => put_u16, get_u16;
    u32 => put_u32, get_u32;
    u64 => put_u64, get_u64;
    bool => put_bool, get_bool;
}

impl Wire for u8 {
    const MIN_BYTES: usize = 1;
    #[inline]
    fn put(&self, w: &mut StateWriter) {
        w.put_u8(*self);
    }
    #[inline]
    fn get(r: &mut StateReader<'_>) -> Result<Self, CheckpointError> {
        r.get_u8()
    }
    fn put_all(items: &[Self], w: &mut StateWriter) {
        w.put_bytes(items);
    }
    fn get_all(
        n: usize,
        r: &mut StateReader<'_>,
        out: &mut Vec<Self>,
    ) -> Result<(), CheckpointError> {
        out.extend_from_slice(r.get_bytes(n)?);
        Ok(())
    }
}

/// A count or size, as a `u64` (the dialects' layout; a format that
/// writes one as a `u32` names that at the field).
impl Wire for usize {
    const MIN_BYTES: usize = 8;
    #[inline]
    fn put(&self, w: &mut StateWriter) {
        w.put_u64(*self as u64);
    }
    #[inline]
    fn get(r: &mut StateReader<'_>) -> Result<Self, CheckpointError> {
        usize::try_from(r.get_u64()?).map_err(|_| CheckpointError::Corrupt("count exceeds usize"))
    }
}

/// UTF-8 bytes behind a `u32` length.
impl Wire for String {
    const MIN_BYTES: usize = 4;
    fn put(&self, w: &mut StateWriter) {
        w.put_slice(self.as_bytes());
    }
    fn get(r: &mut StateReader<'_>) -> Result<Self, CheckpointError> {
        String::from_utf8(r.get()?)
            .map_err(|_| CheckpointError::Corrupt("string is not valid utf-8"))
    }
}

impl<T: Wire> Wire for Vec<T> {
    const MIN_BYTES: usize = 4;
    fn put(&self, w: &mut StateWriter) {
        w.put_slice(self);
    }
    fn get(r: &mut StateReader<'_>) -> Result<Self, CheckpointError> {
        let mut out = Vec::new();
        r.get_vec_into(&mut out)?;
        Ok(out)
    }
}

/// A presence flag, then the value only when present.
impl<T: Wire> Wire for Option<T> {
    const MIN_BYTES: usize = 1;
    fn put(&self, w: &mut StateWriter) {
        w.put_bool(self.is_some());
        if let Some(v) = self {
            v.put(w);
        }
    }
    fn get(r: &mut StateReader<'_>) -> Result<Self, CheckpointError> {
        if r.get_bool()? {
            Ok(Some(T::get(r)?))
        } else {
            Ok(None)
        }
    }
}

/// An `Option<T>` at a fixed width: a presence flag, then the value, or
/// `T::default()` when absent. Name it at a field whose format reserves
/// the value's bytes either way (`at: Option<Slot> as Padded<Slot>`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Padded<T>(pub Option<T>);

impl<T> From<Option<T>> for Padded<T> {
    fn from(v: Option<T>) -> Self {
        Padded(v)
    }
}

impl<T> From<Padded<T>> for Option<T> {
    fn from(v: Padded<T>) -> Self {
        v.0
    }
}

impl<T: Wire + Default + Copy> Wire for Padded<T> {
    const MIN_BYTES: usize = 1 + T::MIN_BYTES;
    fn put(&self, w: &mut StateWriter) {
        w.put_bool(self.0.is_some());
        self.0.unwrap_or_default().put(w);
    }
    fn get(r: &mut StateReader<'_>) -> Result<Self, CheckpointError> {
        let present = r.get_bool()?;
        let v = T::get(r)?;
        Ok(Padded(present.then_some(v)))
    }
}

macro_rules! wire_tuple {
    ($(($($name:ident),+))*) => {$(
        impl<$($name: Wire),+> Wire for ($($name,)+) {
            const MIN_BYTES: usize = 0 $(+ $name::MIN_BYTES)+;
            #[allow(non_snake_case)]
            fn put(&self, w: &mut StateWriter) {
                let ($($name,)+) = self;
                $($name.put(w);)+
            }
            fn get(r: &mut StateReader<'_>) -> Result<Self, CheckpointError> {
                Ok(($($name::get(r)?,)+))
            }
        }
    )*};
}

wire_tuple! {
    (A, B)
    (A, B, C)
    (A, B, C, D)
}

/// `N` values back to back, with no length.
impl<T: Wire + Default + Copy, const N: usize> Wire for [T; N] {
    const MIN_BYTES: usize = N * T::MIN_BYTES;
    fn put(&self, w: &mut StateWriter) {
        T::put_all(self, w);
    }
    fn get(r: &mut StateReader<'_>) -> Result<Self, CheckpointError> {
        let mut out = [T::default(); N];
        for v in &mut out {
            *v = T::get(r)?;
        }
        Ok(out)
    }
}

macro_rules! wire_word {
    ($($ty:ident),*) => {$(
        /// A `u64`.
        impl Wire for $ty {
            const MIN_BYTES: usize = 8;
            #[inline]
            fn put(&self, w: &mut StateWriter) {
                w.put_u64(self.0);
            }
            #[inline]
            fn get(r: &mut StateReader<'_>) -> Result<Self, CheckpointError> {
                Ok($ty(r.get_u64()?))
            }
        }
    )*};
}

wire_word!(Element, Slot, UnitValue);

/// A `u32`.
///
/// # Panics
/// `put` panics on a site id above `u32::MAX` (no deployment has one).
impl Wire for SiteId {
    const MIN_BYTES: usize = 4;
    fn put(&self, w: &mut StateWriter) {
        w.put_u32(u32::try_from(self.0).expect("site id fits u32"));
    }
    fn get(r: &mut StateReader<'_>) -> Result<Self, CheckpointError> {
        Ok(SiteId(r.get_u32()? as usize))
    }
}

/// A hash function as `(kind tag u8, seed u64)` — state, not code. The
/// tag names the algorithm; the one sampling hash, MurmurHash64A, is
/// tag 0, and any other tag is refused.
impl Wire for SeededHash {
    const MIN_BYTES: usize = 9;
    fn put(&self, w: &mut StateWriter) {
        w.put_u8(0);
        w.put_u64(self.seed());
    }
    fn get(r: &mut StateReader<'_>) -> Result<Self, CheckpointError> {
        if r.get_u8()? != 0 {
            return Err(CheckpointError::Corrupt("unknown hash kind tag"));
        }
        Ok(SeededHash::new(r.get_u64()?))
    }
}

/// Per-site rows of `(up messages, down messages, up bytes, down
/// bytes)` behind a `u32` site count.
impl Wire for MessageCounters {
    const MIN_BYTES: usize = 4;
    fn put(&self, w: &mut StateWriter) {
        w.put_iter((0..self.sites()).map(|i| {
            let site = SiteId(i);
            (
                self.up_messages_for(site),
                self.down_messages_for(site),
                self.up_bytes_for(site),
                self.down_bytes_for(site),
            )
        }));
    }
    fn get(r: &mut StateReader<'_>) -> Result<Self, CheckpointError> {
        let rows: Vec<(u64, u64, u64, u64)> = r.get()?;
        let mut cols: [Vec<u64>; 4] = Default::default();
        for (um, dm, ub, db) in rows {
            for (col, v) in cols.iter_mut().zip([um, dm, ub, db]) {
                col.push(v);
            }
        }
        let [um, dm, ub, db] = cols;
        Ok(MessageCounters::from_parts(um, dm, ub, db))
    }
}

/// A closed enum whose variant one tag byte names, laid out by
/// [`wire_enum!`](crate::wire_enum). As a [`Wire`] value the tag is
/// written first; a frame carries it out of band instead, as its
/// opcode, followed by [`Tagged::put_fields`].
pub trait Tagged: Sized {
    /// The fewest bytes any variant's fields occupy.
    const MIN_FIELDS: usize;

    /// This value's tag.
    fn tag(&self) -> u8;

    /// Append the variant's fields (not the tag).
    fn put_fields(&self, w: &mut StateWriter);

    /// Read the fields of the variant `tag` names.
    ///
    /// # Errors
    /// [`CheckpointError::UnknownKind`] for a tag no variant has, or as
    /// the fields' own decoders.
    fn get_fields(tag: u8, r: &mut StateReader<'_>) -> Result<Self, CheckpointError>;
}

impl<T: Tagged> Wire for T {
    const MIN_BYTES: usize = 1 + T::MIN_FIELDS;
    fn put(&self, w: &mut StateWriter) {
        w.put_u8(self.tag());
        self.put_fields(w);
    }
    fn get(r: &mut StateReader<'_>) -> Result<Self, CheckpointError> {
        let tag = r.get_u8()?;
        T::get_fields(tag, r)
    }
}

/// The smallest of `sizes` (a [`Tagged`] enum's `MIN_FIELDS`).
#[doc(hidden)]
#[must_use]
pub const fn min_of(sizes: &[usize]) -> usize {
    let mut min = usize::MAX;
    let mut i = 0;
    while i < sizes.len() {
        if sizes[i] < min {
            min = sizes[i];
        }
        i += 1;
    }
    min
}

/// Lay out a record once: a [`Wire`] impl that writes and reads the
/// listed fields in the listed order. A field whose format differs
/// from its type's layout names the layout with `as`.
///
/// ```
/// use dds_core::checkpoint::{Padded, StateReader, StateWriter};
/// #[derive(Debug, PartialEq)]
/// struct Stamp { seq: u64, at: Option<u64> }
/// dds_core::wire_record! { Stamp { seq: u64, at: Option<u64> as Padded<u64> } }
///
/// let mut w = StateWriter::new();
/// w.put(&Stamp { seq: 1, at: None });
/// let bytes = w.into_bytes();
/// assert_eq!(bytes.len(), 8 + 1 + 8);
/// assert_eq!(StateReader::new(&bytes).get(), Ok(Stamp { seq: 1, at: None }));
/// ```
#[macro_export]
macro_rules! wire_record {
    ($ty:ident { $($field:ident : $fty:ty $(as $wty:ty)?),* $(,)? }) => {
        impl $crate::checkpoint::Wire for $ty {
            const MIN_BYTES: usize = 0 $(+ $crate::__wire_min!($fty $(as $wty)?))*;
            fn put(&self, w: &mut $crate::checkpoint::StateWriter) {
                $($crate::__wire_put!(w, (&self.$field) $(as $wty)?);)*
            }
            fn get(
                r: &mut $crate::checkpoint::StateReader<'_>,
            ) -> Result<Self, $crate::checkpoint::CheckpointError> {
                Ok(Self { $($field: $crate::__wire_get!(r, $fty $(as $wty)?),)* })
            }
        }
    };
}

/// Lay out a closed enum once: a [`Tagged`] impl (and so a [`Wire`]
/// one) from one line per variant, `TAG => Variant`,
/// `TAG => Variant(binding: Type, …)` or `TAG => Variant { field: Type,
/// … }`, fields in wire order, each optionally `as` another layout. A
/// last `else Variant(Inner)` arm wraps another [`Tagged`] enum whose
/// tags it shares.
///
/// ```
/// use dds_core::checkpoint::{StateReader, StateWriter};
/// #[derive(Debug, PartialEq)]
/// enum Verdict { Pass, Fail(u64), Retry { after: u32 } }
/// dds_core::wire_enum! { Verdict {
///     0 => Pass,
///     1 => Fail(code: u64),
///     2 => Retry { after: u32 },
/// } }
///
/// let mut w = StateWriter::new();
/// w.put(&Verdict::Retry { after: 5 });
/// let bytes = w.into_bytes();
/// assert_eq!(bytes, [2, 5, 0, 0, 0]);
/// assert_eq!(StateReader::new(&bytes).get(), Ok(Verdict::Retry { after: 5 }));
/// ```
#[macro_export]
macro_rules! wire_enum {
    ($ty:ident {
        $($tag:expr => $variant:ident
            $(( $($tb:ident : $tty:ty $(as $twty:ty)?),* ))?
            $({ $($sb:ident : $sty:ty $(as $swty:ty)?),* })?
        ),*
        $(, else $dv:ident ( $dty:ty ))?
        $(,)?
    }) => {
        impl $crate::checkpoint::Tagged for $ty {
            const MIN_FIELDS: usize = $crate::checkpoint::min_of(&[
                $(0 $($(+ $crate::__wire_min!($tty $(as $twty)?))*)?
                    $($(+ $crate::__wire_min!($sty $(as $swty)?))*)?,)*
                $(<$dty as $crate::checkpoint::Tagged>::MIN_FIELDS,)?
            ]);
            fn tag(&self) -> u8 {
                match self {
                    $(Self::$variant { .. } => $tag,)*
                    $(Self::$dv(inner) => $crate::checkpoint::Tagged::tag(inner),)?
                }
            }
            fn put_fields(&self, w: &mut $crate::checkpoint::StateWriter) {
                match self {
                    $(Self::$variant $(( $($tb),* ))? $({ $($sb),* })? => {
                        $($($crate::__wire_put!(w, $tb $(as $twty)?);)*)?
                        $($($crate::__wire_put!(w, $sb $(as $swty)?);)*)?
                    })*
                    $(Self::$dv(inner) => $crate::checkpoint::Tagged::put_fields(inner, w),)?
                }
            }
            #[allow(unreachable_code)]
            fn get_fields(
                tag: u8,
                r: &mut $crate::checkpoint::StateReader<'_>,
            ) -> Result<Self, $crate::checkpoint::CheckpointError> {
                $(if tag == $tag {
                    return Ok(Self::$variant
                        $(( $($crate::__wire_get!(r, $tty $(as $twty)?)),* ))?
                        $({ $($sb: $crate::__wire_get!(r, $sty $(as $swty)?)),* })?);
                })*
                $(return Ok(Self::$dv(
                    <$dty as $crate::checkpoint::Tagged>::get_fields(tag, r)?,
                ));)?
                Err($crate::checkpoint::CheckpointError::UnknownKind(tag))
            }
        }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __wire_min {
    ($ty:ty as $wty:ty) => {
        <$wty as $crate::checkpoint::Wire>::MIN_BYTES
    };
    ($ty:ty) => {
        <$ty as $crate::checkpoint::Wire>::MIN_BYTES
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __wire_put {
    ($w:ident, $v:tt as $wty:ty) => {
        $crate::checkpoint::Wire::put(&<$wty>::from(*$v), $w)
    };
    ($w:ident, $v:tt) => {
        $crate::checkpoint::Wire::put($v, $w)
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __wire_get {
    ($r:ident, $ty:ty as $wty:ty) => {
        <$wty as $crate::checkpoint::Wire>::get($r)?.into()
    };
    ($r:ident, $ty:ty) => {
        <$ty as $crate::checkpoint::Wire>::get($r)?
    };
}

/// Wrap a kind tag + payload in the versioned envelope and append it to
/// `out` (the writing half of [`restore_sampler`]).
pub fn write_envelope(kind_tag: u8, payload: &[u8], out: &mut Vec<u8>) {
    seal(kind_tag, out, |w| w.put_bytes(payload));
}

/// Encode `state` and wrap it in the envelope under `kind_tag` (the
/// body of every [`DistinctSampler::checkpoint`]).
pub(crate) fn seal_state<T: Wire>(kind_tag: u8, state: &T, out: &mut Vec<u8>) {
    seal(kind_tag, out, |w| w.put(state));
}

/// Append an envelope to `out` with `payload` writing its payload in
/// place: the length word is patched once the payload is written, and
/// the trailer checksums the payload where it lies, so no byte is
/// copied twice.
fn seal(kind_tag: u8, out: &mut Vec<u8>, payload: impl FnOnce(&mut StateWriter)) {
    let mut w = StateWriter {
        buf: std::mem::take(out),
    };
    w.put_u32(MAGIC);
    w.put_u16(VERSION);
    w.put_u8(kind_tag);
    let len_at = w.len();
    w.put_len(0);
    let start = w.len();
    payload(&mut w);
    let len = u32::try_from(w.len() - start).expect("checkpoint payload exceeds u32 length");
    w.buf[len_at..start].copy_from_slice(&len.to_le_bytes());
    let check = checksum(kind_tag, &w.buf[start..]);
    w.put_u64(check);
    *out = w.buf;
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
    let len = r.get_len_of::<u8>()?;
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
    let (kind_tag, payload) = read_envelope(bytes)?;
    let mut r = StateReader::new(payload);
    let sampler = match kind_tag {
        kind::CENTRALIZED => AnySampler::Centralized(r.get()?),
        kind::INFINITE => AnySampler::Infinite(r.get()?),
        kind::WITH_REPLACEMENT => AnySampler::WithReplacement(r.get()?),
        kind::SLIDING => AnySampler::Sliding(Box::new(r.get()?)),
        kind::SLIDING_MULTI => AnySampler::SlidingMulti(r.get()?),
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
        w.put(&Element(42));
        w.put(&Slot(99));
        w.put(&SeededHash::new(1234));
        let bytes = w.into_bytes();
        let mut r = StateReader::new(&bytes);
        assert_eq!(r.get_u8().unwrap(), 7);
        assert_eq!(r.get_u16().unwrap(), 300);
        assert_eq!(r.get_u32().unwrap(), 70_000);
        assert_eq!(r.get_u64().unwrap(), u64::MAX - 1);
        assert!(r.get_bool().unwrap());
        assert_eq!(r.get_len(1).unwrap(), 3);
        assert_eq!(r.get::<Element>().unwrap(), Element(42));
        assert_eq!(r.get::<Slot>().unwrap(), Slot(99));
        assert_eq!(r.get::<SeededHash>().unwrap(), SeededHash::new(1234));
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
            r.get::<SeededHash>(),
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
