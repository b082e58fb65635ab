//! The length-prefixed, checksummed frame every protocol message rides
//! in.
//!
//! Chapter 2's cost model counts messages and bytes; the served system
//! must be measurable the same way, so the frame layout is fixed and
//! self-describing — `wire_bytes = OVERHEAD_BYTES + payload.len()`,
//! with no compression, no padding, and no out-of-band state:
//!
//! ```text
//! magic    u32   0x5053_4444  ("DDSP")
//! version  u16   3
//! opcode   u8    request/response discriminator (see `crate::opcode`)
//! len      u32   payload byte length (≤ MAX_PAYLOAD)
//! payload  [u8]  opcode-specific body (StateWriter layout)
//! check    u64   MurmurHash64A of the payload, seeded with the opcode
//! ```
//!
//! The checksum covers the opcode and the payload. For a fixed payload
//! MurmurHash64A is a bijection of its seed, and for a fixed seed and
//! length any change confined to one 8-byte word changes the hash, so
//! every single-bit corruption of a message or its dispatch byte is
//! detected; `magic`/`version`/`len` corruption is caught by their own
//! validation, and `len` is bounded *before* any allocation, so a
//! hostile peer cannot request a huge buffer with a 4-byte header.
//! Magic and version are checked before the checksum, so a peer of
//! another version is refused as such. This mirrors the
//! checkpoint envelope of `dds_core::checkpoint` — same primitives, same
//! failure taxonomy ([`CheckpointError`]) — one binary dialect across
//! durability and transport.

use std::io::{self, Read, Write};

use dds_core::checkpoint::{CheckpointError, StateReader};
use dds_hash::murmur2::murmur64a;

/// Frame magic: `b"DDSP"` read as a little-endian `u32`.
pub const MAGIC: u32 = u32::from_le_bytes(*b"DDSP");

/// Current protocol version. A peer speaking any other version is
/// rejected with [`CheckpointError::UnsupportedVersion`] before its
/// payload is interpreted.
///
/// History: v1 → v2 widened the per-shard `Metrics` payload from 11 to
/// 15 words (late drops, stale advances, sweeps, reorder-buffer depth)
/// and added the `LateData` engine-error tag — a v1 peer would misread
/// both, so mixed versions are rejected at the frame layer instead.
/// v2 → v3 replaced the byte-serial FNV-1a 64 trailer with
/// MurmurHash64A, which folds eight bytes per step; a v2 peer fails
/// every v3 checksum, so the version names the change.
pub const VERSION: u16 = 3;

/// Fixed bytes before the payload: magic + version + opcode + len.
pub const HEADER_BYTES: usize = 4 + 2 + 1 + 4;

/// Fixed bytes after the payload: the MurmurHash64A checksum.
pub const TRAILER_BYTES: usize = 8;

/// Per-frame overhead: `wire_bytes = OVERHEAD_BYTES + payload len`.
pub const OVERHEAD_BYTES: usize = HEADER_BYTES + TRAILER_BYTES;

/// Upper bound on a frame payload (64 MiB). Large enough for any
/// realistic checkpoint document or census, small enough that a crafted
/// `len` cannot exhaust memory.
pub const MAX_PAYLOAD: usize = 64 << 20;

/// I/O-capable decode failure: transport errors and format errors stay
/// distinct so callers can retry one and must drop the other.
#[derive(Debug)]
pub enum FrameError {
    /// Reading or writing the underlying stream failed.
    Io(io::Error),
    /// The bytes read do not form a valid frame.
    Format(CheckpointError),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Io(e) => write!(f, "frame i/o failed: {e}"),
            FrameError::Format(e) => write!(f, "frame malformed: {e}"),
        }
    }
}

impl std::error::Error for FrameError {}

impl From<io::Error> for FrameError {
    fn from(e: io::Error) -> Self {
        FrameError::Io(e)
    }
}

impl From<CheckpointError> for FrameError {
    fn from(e: CheckpointError) -> Self {
        FrameError::Format(e)
    }
}

impl From<FrameError> for dds_engine::EngineError {
    fn from(e: FrameError) -> Self {
        match e {
            FrameError::Io(e) => dds_engine::EngineError::Transport(e.to_string()),
            FrameError::Format(e) => dds_engine::EngineError::Format(e.to_string()),
        }
    }
}

/// MurmurHash64A of the payload seeded with the opcode (allocation-free
/// — this runs on every message both ways).
fn checksum(opcode: u8, payload: &[u8]) -> u64 {
    murmur64a(payload, u64::from(opcode))
}

/// Wrap an opcode + payload into one complete frame.
///
/// # Panics
/// Panics if `payload` exceeds [`MAX_PAYLOAD`] (no legitimate protocol
/// message does; the limit exists to bound *decoder* allocations).
#[must_use]
pub fn frame_bytes(opcode: u8, payload: &[u8]) -> Vec<u8> {
    let mut frame = Vec::with_capacity(OVERHEAD_BYTES + payload.len());
    write_frame_to(&mut frame, opcode, payload).expect("writing into a Vec cannot fail");
    frame
}

/// Validate one frame occupying *all* of `bytes`; return the opcode and
/// payload slice.
///
/// # Errors
/// A clean [`CheckpointError`] on truncated, oversized, corrupted, or
/// trailing-garbage input — never a panic.
pub fn decode_frame(bytes: &[u8]) -> Result<(u8, &[u8]), CheckpointError> {
    let mut r = StateReader::new(bytes);
    let magic = r.get_u32()?;
    if magic != MAGIC {
        return Err(CheckpointError::BadMagic(magic));
    }
    let version = r.get_u16()?;
    if version != VERSION {
        return Err(CheckpointError::UnsupportedVersion(version));
    }
    let opcode = r.get_u8()?;
    // Raw scalar read: the MAX_PAYLOAD verdict must come before the
    // remaining-bytes bound so oversized claims are named as such.
    let len = r.get_u32()? as usize;
    if len > MAX_PAYLOAD {
        return Err(CheckpointError::Corrupt("frame payload exceeds maximum"));
    }
    let payload = r.get_bytes(len)?;
    let check = r.get_u64()?;
    if check != checksum(opcode, payload) {
        return Err(CheckpointError::ChecksumMismatch);
    }
    r.expect_end()?;
    Ok((opcode, payload))
}

/// Write one frame to a stream, returning the bytes put on the wire
/// (`OVERHEAD_BYTES + payload.len()` — the number every byte counter
/// accumulates).
///
/// # Errors
/// Propagates the writer's I/O errors.
pub fn write_frame<W: Write + ?Sized>(w: &mut W, opcode: u8, payload: &[u8]) -> io::Result<usize> {
    let frame = frame_bytes(opcode, payload);
    w.write_all(&frame)?;
    Ok(frame.len())
}

/// Stream one frame to a writer without materializing it: a
/// stack-allocated header, the caller's payload slice, and a trailer
/// whose checksum is hashed straight from that slice — no intermediate
/// `Vec`, byte-identical to [`frame_bytes`] output.
///
/// This is the encode half of the zero-copy hot path: a buffered writer
/// sees three `write_all` calls instead of one heap-allocated copy of
/// the whole frame per message.
///
/// # Errors
/// Propagates the writer's I/O errors.
///
/// # Panics
/// Panics if `payload` exceeds [`MAX_PAYLOAD`], like [`frame_bytes`].
pub fn write_frame_to<W: Write + ?Sized>(
    w: &mut W,
    opcode: u8,
    payload: &[u8],
) -> io::Result<usize> {
    assert!(
        payload.len() <= MAX_PAYLOAD,
        "frame payload exceeds MAX_PAYLOAD"
    );
    let mut header = [0u8; HEADER_BYTES];
    header[0..4].copy_from_slice(&MAGIC.to_le_bytes());
    header[4..6].copy_from_slice(&VERSION.to_le_bytes());
    header[6] = opcode;
    #[allow(clippy::cast_possible_truncation)] // bounded by MAX_PAYLOAD
    header[7..11].copy_from_slice(&(payload.len() as u32).to_le_bytes());
    w.write_all(&header)?;
    w.write_all(payload)?;
    w.write_all(&checksum(opcode, payload).to_le_bytes())?;
    Ok(OVERHEAD_BYTES + payload.len())
}

/// Read one frame from a stream.
///
/// Returns `Ok(None)` on a clean end-of-stream (the peer closed between
/// frames) and the opcode + payload otherwise. EOF *inside* a frame is
/// a [`CheckpointError::Truncated`] format error, and the payload
/// length is bounds-checked against [`MAX_PAYLOAD`] before any
/// allocation.
///
/// # Errors
/// [`FrameError::Io`] on transport failure, [`FrameError::Format`] on
/// malformed bytes.
pub fn read_frame<R: Read + ?Sized>(r: &mut R) -> Result<Option<(u8, Vec<u8>)>, FrameError> {
    let mut payload = Vec::new();
    Ok(read_frame_into(r, &mut payload)?.map(|opcode| (opcode, payload)))
}

/// Read one frame from a stream into a caller-owned payload buffer,
/// returning the opcode (`Ok(None)` on clean end-of-stream).
///
/// The zero-copy decode primitive: `payload` is cleared and refilled in
/// place, so a connection loop that reuses one buffer allocates nothing
/// per frame once the buffer has grown to the connection's working
/// frame size. Semantics are otherwise identical to [`read_frame`] —
/// same clean-EOF detection, the same [`MAX_PAYLOAD`] bound *before*
/// the buffer is grown, and the same truncation mapping.
///
/// On any error the buffer's contents are unspecified (but the buffer
/// stays reusable).
///
/// # Errors
/// [`FrameError::Io`] on transport failure, [`FrameError::Format`] on
/// malformed bytes.
pub fn read_frame_into<R: Read + ?Sized>(
    r: &mut R,
    payload: &mut Vec<u8>,
) -> Result<Option<u8>, FrameError> {
    let mut header = [0u8; HEADER_BYTES];
    // First byte alone, to tell "peer closed between frames" (clean
    // `None`) from "peer died mid-frame" (truncation).
    let mut first = [0u8; 1];
    loop {
        match r.read(&mut first) {
            Ok(0) => return Ok(None),
            Ok(_) => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(FrameError::Io(e)),
        }
    }
    header[0] = first[0];
    r.read_exact(&mut header[1..]).map_err(map_eof)?;

    let mut h = StateReader::new(&header);
    let magic = h.get_u32().expect("header buffered");
    if magic != MAGIC {
        return Err(CheckpointError::BadMagic(magic).into());
    }
    let version = h.get_u16().expect("header buffered");
    if version != VERSION {
        return Err(CheckpointError::UnsupportedVersion(version).into());
    }
    let opcode = h.get_u8().expect("header buffered");
    let len = h.get_u32().expect("header buffered") as usize;
    if len > MAX_PAYLOAD {
        return Err(CheckpointError::Corrupt("frame payload exceeds maximum").into());
    }

    payload.clear();
    payload.resize(len, 0);
    r.read_exact(payload).map_err(map_eof)?;
    let mut trailer = [0u8; TRAILER_BYTES];
    r.read_exact(&mut trailer).map_err(map_eof)?;
    if u64::from_le_bytes(trailer) != checksum(opcode, payload) {
        return Err(CheckpointError::ChecksumMismatch.into());
    }
    Ok(Some(opcode))
}

/// An EOF mid-frame is a protocol truncation, not a transport error.
fn map_eof(e: io::Error) -> FrameError {
    if e.kind() == io::ErrorKind::UnexpectedEof {
        FrameError::Format(CheckpointError::Truncated)
    } else {
        FrameError::Io(e)
    }
}

/// Incremental, push-based frame decoder for non-blocking transports.
///
/// [`read_frame_into`] assumes a blocking reader it can park on until a
/// whole frame arrives; an evented connection instead receives bytes in
/// arbitrary fragments whenever the poller says the socket is readable.
/// This decoder buffers those fragments ([`FrameDecoder::push`]) and
/// yields complete frames ([`FrameDecoder::next_frame`]) as they close,
/// with the same validation order and failure taxonomy as the blocking
/// path:
///
/// * the header (magic, version, length bound) is validated as soon as
///   its [`HEADER_BYTES`] arrive — a hostile or confused peer is
///   rejected *before* the decoder waits for (or buffers) a claimed
///   payload;
/// * the checksum is verified once the trailer closes the frame;
/// * payload bytes are copied into a caller-owned scratch buffer, so a
///   connection reusing one buffer allocates nothing per frame at
///   steady state (mirroring [`read_frame_into`]).
///
/// A format error means the stream is unrecoverable — framing is
/// byte-positional, there is no resync point — so the decoder stays
/// poisoned and the caller is
/// expected to drop the connection. Clean end-of-stream detection is the
/// caller's: on EOF, [`FrameDecoder::is_mid_frame`] distinguishes "peer
/// closed between frames" from "peer died mid-frame" (truncation).
#[derive(Debug, Default)]
pub struct FrameDecoder {
    /// Unconsumed wire bytes; `pos..` is live, `..pos` is consumed and
    /// reclaimed lazily (amortizing the memmove over many frames).
    buf: Vec<u8>,
    pos: usize,
    poisoned: bool,
}

/// Consumed-prefix threshold above which the buffer is compacted.
const DECODER_COMPACT_BYTES: usize = 8 << 10;

impl FrameDecoder {
    /// An empty decoder.
    #[must_use]
    pub fn new() -> FrameDecoder {
        FrameDecoder::default()
    }

    /// Buffer a fragment of wire bytes (any length, including empty).
    pub fn push(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Bytes buffered but not yet consumed as frames.
    #[must_use]
    pub fn buffered_bytes(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Is a partial frame buffered? On end-of-stream this is the
    /// truncation verdict: `true` means the peer died mid-frame.
    #[must_use]
    pub fn is_mid_frame(&self) -> bool {
        self.buffered_bytes() > 0
    }

    /// Yield the next complete frame, if one is buffered: the payload is
    /// copied into `payload` (cleared first) and the opcode returned.
    /// `Ok(None)` means "need more bytes" — push another fragment and
    /// retry.
    ///
    /// # Errors
    /// The same [`CheckpointError`]s as [`decode_frame`]; after any
    /// error the decoder is poisoned (every later call returns
    /// [`CheckpointError::Corrupt`]) because framing cannot resynchronize
    /// mid-stream.
    pub fn next_frame(&mut self, payload: &mut Vec<u8>) -> Result<Option<u8>, CheckpointError> {
        if self.poisoned {
            return Err(CheckpointError::Corrupt("frame decoder poisoned"));
        }
        match self.next_frame_inner(payload) {
            Ok(v) => Ok(v),
            Err(e) => {
                self.poisoned = true;
                Err(e)
            }
        }
    }

    fn next_frame_inner(&mut self, payload: &mut Vec<u8>) -> Result<Option<u8>, CheckpointError> {
        let live = &self.buf[self.pos..];
        if live.len() < HEADER_BYTES {
            return Ok(None);
        }
        // Header first, validated eagerly: a bad peer is rejected on 11
        // bytes, never after buffering a 64 MiB payload claim.
        let magic = u32::from_le_bytes(live[0..4].try_into().expect("header buffered"));
        if magic != MAGIC {
            return Err(CheckpointError::BadMagic(magic));
        }
        let version = u16::from_le_bytes(live[4..6].try_into().expect("header buffered"));
        if version != VERSION {
            return Err(CheckpointError::UnsupportedVersion(version));
        }
        let opcode = live[6];
        let len = u32::from_le_bytes(live[7..11].try_into().expect("header buffered")) as usize;
        if len > MAX_PAYLOAD {
            return Err(CheckpointError::Corrupt("frame payload exceeds maximum"));
        }
        let total = HEADER_BYTES + len + TRAILER_BYTES;
        if live.len() < total {
            return Ok(None);
        }
        let body = &live[HEADER_BYTES..HEADER_BYTES + len];
        let trailer = &live[HEADER_BYTES + len..total];
        if u64::from_le_bytes(trailer.try_into().expect("trailer buffered"))
            != checksum(opcode, body)
        {
            return Err(CheckpointError::ChecksumMismatch);
        }
        payload.clear();
        payload.extend_from_slice(body);
        self.pos += total;
        // Reclaim the consumed prefix once it dominates the buffer or
        // crosses the compaction threshold.
        if self.pos == self.buf.len() {
            self.buf.clear();
            self.pos = 0;
        } else if self.pos >= DECODER_COMPACT_BYTES {
            self.buf.drain(..self.pos);
            self.pos = 0;
        }
        Ok(Some(opcode))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dds_core::checkpoint::StateWriter;

    #[test]
    fn roundtrip_through_bytes_and_streams() {
        let frame = frame_bytes(7, b"hello");
        assert_eq!(frame.len(), OVERHEAD_BYTES + 5);
        let (op, payload) = decode_frame(&frame).expect("decodes");
        assert_eq!((op, payload), (7, &b"hello"[..]));

        let mut cursor = io::Cursor::new(&frame);
        let (op, payload) = read_frame(&mut cursor).expect("reads").expect("one frame");
        assert_eq!((op, payload.as_slice()), (7, &b"hello"[..]));
        assert_eq!(read_frame(&mut cursor).expect("clean eof"), None);
    }

    #[test]
    fn streamed_encode_is_byte_identical_to_frame_bytes() {
        for payload in [&b""[..], b"x", &[0u8; 1024][..], b"streamed"] {
            for opcode in [0u8, 7, 0x41, 0x7F] {
                let contiguous = frame_bytes(opcode, payload);
                let mut streamed = Vec::new();
                let n = write_frame_to(&mut streamed, opcode, payload).expect("vec write");
                assert_eq!(streamed, contiguous, "opcode {opcode:#04x}");
                assert_eq!(n, contiguous.len());
                assert_eq!(n, OVERHEAD_BYTES + payload.len());
            }
        }
    }

    #[test]
    fn read_frame_into_reuses_one_buffer_across_frames() {
        let mut wire = Vec::new();
        write_frame_to(&mut wire, 1, &[7u8; 300]).expect("vec write");
        write_frame_to(&mut wire, 2, b"tiny").expect("vec write");
        write_frame_to(&mut wire, 3, &[9u8; 120]).expect("vec write");
        let mut cursor = io::Cursor::new(&wire);
        let mut payload = Vec::new();
        assert_eq!(
            read_frame_into(&mut cursor, &mut payload).expect("frame 1"),
            Some(1)
        );
        assert_eq!(payload, vec![7u8; 300]);
        let grown = payload.capacity();
        assert_eq!(
            read_frame_into(&mut cursor, &mut payload).expect("frame 2"),
            Some(2)
        );
        assert_eq!(payload, b"tiny");
        assert_eq!(
            read_frame_into(&mut cursor, &mut payload).expect("frame 3"),
            Some(3)
        );
        assert_eq!(payload, vec![9u8; 120]);
        assert_eq!(
            payload.capacity(),
            grown,
            "later smaller frames must reuse the grown buffer, not reallocate"
        );
        assert_eq!(
            read_frame_into(&mut cursor, &mut payload).expect("clean eof"),
            None
        );
    }

    #[test]
    fn read_frame_into_rejects_corruption_and_stays_reusable() {
        let good = frame_bytes(5, b"payload");
        // Truncations mid-frame are format errors, never clean EOFs.
        for cut in 1..good.len() {
            let mut cursor = io::Cursor::new(&good[..cut]);
            let mut buf = Vec::new();
            assert!(
                matches!(
                    read_frame_into(&mut cursor, &mut buf),
                    Err(FrameError::Format(CheckpointError::Truncated))
                ),
                "stream prefix {cut} not a truncation"
            );
        }
        // A corrupt frame errors; the same buffer then reads a good one.
        let mut bad = good.clone();
        let last = bad.len() - 1;
        bad[last] ^= 0x40;
        let mut wire = bad;
        wire.extend_from_slice(&good);
        let mut cursor = io::Cursor::new(&wire);
        let mut buf = Vec::new();
        assert!(matches!(
            read_frame_into(&mut cursor, &mut buf),
            Err(FrameError::Format(CheckpointError::ChecksumMismatch))
        ));
        assert_eq!(
            read_frame_into(&mut cursor, &mut buf).expect("recovers"),
            Some(5)
        );
        assert_eq!(buf, b"payload");
    }

    #[test]
    fn every_truncation_and_bitflip_fails_cleanly() {
        let frame = frame_bytes(3, &[1, 2, 3, 4, 5, 6, 7, 8]);
        for cut in 0..frame.len() {
            assert!(
                decode_frame(&frame[..cut]).is_err(),
                "prefix {cut} accepted"
            );
            if cut > 0 {
                let mut cursor = io::Cursor::new(&frame[..cut]);
                assert!(
                    matches!(
                        read_frame(&mut cursor),
                        Err(FrameError::Format(CheckpointError::Truncated))
                    ),
                    "stream prefix {cut} not a truncation"
                );
            }
        }
        for i in 0..frame.len() {
            let mut bad = frame.clone();
            bad[i] ^= 0x10;
            assert!(decode_frame(&bad).is_err(), "flip at byte {i} accepted");
        }
    }

    #[test]
    fn oversized_length_is_rejected_before_allocation() {
        let mut w = StateWriter::new();
        w.put_u32(MAGIC);
        w.put_u16(VERSION);
        w.put_u8(1);
        w.put_u32(u32::MAX); // claims a 4 GiB payload
        let bytes = w.into_bytes();
        assert_eq!(
            decode_frame(&bytes),
            Err(CheckpointError::Corrupt("frame payload exceeds maximum"))
        );
        let mut cursor = io::Cursor::new(&bytes);
        assert!(matches!(
            read_frame(&mut cursor),
            Err(FrameError::Format(CheckpointError::Corrupt(_)))
        ));
    }

    #[test]
    fn decoder_yields_frames_across_arbitrary_fragmentation() {
        let mut wire = Vec::new();
        write_frame_to(&mut wire, 1, b"first").expect("vec write");
        write_frame_to(&mut wire, 2, &[]).expect("vec write");
        write_frame_to(&mut wire, 3, &[0xAB; 300]).expect("vec write");

        // Byte-at-a-time: the cruelest fragmentation.
        let mut dec = FrameDecoder::new();
        let mut payload = Vec::new();
        let mut got = Vec::new();
        for &b in &wire {
            dec.push(&[b]);
            while let Some(op) = dec.next_frame(&mut payload).expect("valid stream") {
                got.push((op, payload.clone()));
            }
        }
        assert_eq!(
            got,
            vec![
                (1, b"first".to_vec()),
                (2, Vec::new()),
                (3, vec![0xAB; 300]),
            ]
        );
        assert!(!dec.is_mid_frame(), "stream ended on a frame boundary");

        // All at once: several frames per push drain in order.
        let mut dec = FrameDecoder::new();
        dec.push(&wire);
        let mut ops = Vec::new();
        while let Some(op) = dec.next_frame(&mut payload).expect("valid stream") {
            ops.push(op);
        }
        assert_eq!(ops, vec![1, 2, 3]);
        assert_eq!(dec.buffered_bytes(), 0);
    }

    #[test]
    fn decoder_rejects_bad_header_before_payload_arrives() {
        // Bad magic with only the header pushed: rejected immediately,
        // without waiting for the claimed payload.
        let mut frame = frame_bytes(1, &[0u8; 1024]);
        frame[0] ^= 0xFF;
        let mut dec = FrameDecoder::new();
        dec.push(&frame[..HEADER_BYTES]);
        let mut payload = Vec::new();
        assert!(matches!(
            dec.next_frame(&mut payload),
            Err(CheckpointError::BadMagic(_))
        ));
        // Poisoned thereafter — framing cannot resync.
        assert!(dec.next_frame(&mut payload).is_err());

        // Oversized length claim: rejected on the header alone.
        let mut w = StateWriter::new();
        w.put_u32(MAGIC);
        w.put_u16(VERSION);
        w.put_u8(1);
        w.put_u32(u32::MAX);
        let mut dec = FrameDecoder::new();
        dec.push(&w.into_bytes());
        assert_eq!(
            dec.next_frame(&mut payload),
            Err(CheckpointError::Corrupt("frame payload exceeds maximum"))
        );

        // Wrong version likewise.
        let mut frame = frame_bytes(1, b"x");
        frame[4] = 0xFE;
        let mut dec = FrameDecoder::new();
        dec.push(&frame[..HEADER_BYTES]);
        assert!(matches!(
            dec.next_frame(&mut payload),
            Err(CheckpointError::UnsupportedVersion(_))
        ));
    }

    #[test]
    fn decoder_detects_checksum_corruption() {
        let mut frame = frame_bytes(9, b"checksummed");
        let last = frame.len() - 1;
        frame[last] ^= 0x01;
        let mut dec = FrameDecoder::new();
        dec.push(&frame);
        let mut payload = Vec::new();
        assert_eq!(
            dec.next_frame(&mut payload),
            Err(CheckpointError::ChecksumMismatch)
        );
    }

    #[test]
    fn decoder_mid_frame_flag_tracks_partial_input() {
        let frame = frame_bytes(4, b"partial");
        let mut dec = FrameDecoder::new();
        let mut payload = Vec::new();
        assert!(!dec.is_mid_frame());
        dec.push(&frame[..frame.len() - 1]);
        assert_eq!(dec.next_frame(&mut payload).expect("incomplete"), None);
        assert!(dec.is_mid_frame(), "EOF here must read as truncation");
        dec.push(&frame[frame.len() - 1..]);
        assert_eq!(dec.next_frame(&mut payload).expect("complete"), Some(4));
        assert_eq!(payload, b"partial");
        assert!(!dec.is_mid_frame());
    }

    #[test]
    fn decoder_compacts_consumed_prefix() {
        // Push many frames in one burst, drain them all: the consumed
        // prefix must be reclaimed rather than growing forever.
        let frame = frame_bytes(1, &[7u8; 1000]);
        let mut dec = FrameDecoder::new();
        for _ in 0..32 {
            dec.push(&frame);
        }
        let mut payload = Vec::new();
        let mut n = 0;
        while let Some(_op) = dec.next_frame(&mut payload).expect("valid") {
            n += 1;
        }
        assert_eq!(n, 32);
        assert_eq!(dec.buffered_bytes(), 0);
        assert_eq!(dec.pos, 0, "fully drained decoder must reset its cursor");
        assert!(dec.buf.is_empty());
    }

    #[test]
    fn foreign_magic_and_versions_are_rejected() {
        let mut frame = frame_bytes(1, b"x");
        frame[0] ^= 0xFF;
        assert!(matches!(
            decode_frame(&frame),
            Err(CheckpointError::BadMagic(_))
        ));
        let mut frame = frame_bytes(1, b"x");
        frame[4] = 0xFE; // low version byte mangled ≠ VERSION
        assert!(matches!(
            decode_frame(&frame),
            Err(CheckpointError::UnsupportedVersion(_))
        ));
    }
}
