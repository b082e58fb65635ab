//! Wire-format accounting for protocol messages.
//!
//! Chapter 2 (footnote): "The message size is constant, assuming that each
//! stream element can be stored in a constant number of bytes", so message
//! *count* doubles as a byte measure. We don't take that on faith: every
//! protocol message implements [`WireMessage`] with an actual encoding, and
//! [`crate::network::MessageCounters`] accumulates encoded bytes alongside
//! counts. The benches then report both, letting the constant-size claim be
//! checked rather than assumed.

use crate::model::{Element, Slot};

/// A message with a concrete wire encoding.
///
/// Encodings are length-prefix-free (fixed layout per type) because each
/// protocol's up/down types are known statically on each link.
pub trait WireMessage {
    /// Append this message's encoding to `buf`.
    fn encode(&self, buf: &mut Vec<u8>);

    /// Encoded size in bytes.
    fn wire_bytes(&self) -> usize {
        let mut buf = Vec::with_capacity(32);
        self.encode(&mut buf);
        buf.len()
    }
}

/// Encode an element (8 bytes).
pub fn put_element(buf: &mut Vec<u8>, e: Element) {
    buf.extend_from_slice(&e.0.to_le_bytes());
}

/// Encode a slot (8 bytes).
pub fn put_slot(buf: &mut Vec<u8>, s: Slot) {
    buf.extend_from_slice(&s.0.to_le_bytes());
}

/// Encode a raw hash / threshold value (8 bytes).
pub fn put_hash(buf: &mut Vec<u8>, h: u64) {
    buf.extend_from_slice(&h.to_le_bytes());
}

impl WireMessage for () {
    fn encode(&self, _buf: &mut Vec<u8>) {}

    fn wire_bytes(&self) -> usize {
        0
    }
}

impl WireMessage for Element {
    fn encode(&self, buf: &mut Vec<u8>) {
        put_element(buf, *self);
    }

    fn wire_bytes(&self) -> usize {
        8
    }
}

impl WireMessage for u64 {
    fn encode(&self, buf: &mut Vec<u8>) {
        put_hash(buf, *self);
    }

    fn wire_bytes(&self) -> usize {
        8
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Probe {
        e: Element,
        t: Slot,
        u: u64,
    }

    impl WireMessage for Probe {
        fn encode(&self, buf: &mut Vec<u8>) {
            put_element(buf, self.e);
            put_slot(buf, self.t);
            put_hash(buf, self.u);
        }
    }

    #[test]
    fn wire_bytes_matches_encoding() {
        let p = Probe {
            e: Element(7),
            t: Slot(9),
            u: u64::MAX,
        };
        assert_eq!(p.wire_bytes(), 24);
        let mut buf = Vec::new();
        p.encode(&mut buf);
        assert_eq!(buf.len(), 24);
        assert_eq!(&buf[0..8], &7u64.to_le_bytes());
        assert_eq!(&buf[8..16], &9u64.to_le_bytes());
        assert_eq!(&buf[16..24], &u64::MAX.to_le_bytes());
    }

    #[test]
    fn unit_message_is_zero_bytes() {
        assert_eq!(().wire_bytes(), 0);
    }
}
