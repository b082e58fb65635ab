//! Protocol message types and their wire encodings.
//!
//! Chapter 2's cost model treats messages as constant-size ("each stream
//! element can be stored in a constant number of bytes"). Every message
//! here has a fixed encoding — 8 to 16 bytes — so the byte counters in
//! [`dds_sim::MessageCounters`] rise in lock-step with the message
//! counters, which `ext_ablation` verifies empirically.

use dds_sim::message::{put_element, put_hash, put_slot};
use dds_sim::{Element, Slot, WireMessage};

/// Site → coordinator (infinite window): "I observed `element`, whose hash
/// beats my threshold." The hash itself is *not* shipped — the coordinator
/// holds the same hash function (Algorithm 1's initialisation step).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UpElem {
    /// The observed element.
    pub element: Element,
}

impl WireMessage for UpElem {
    fn encode(&self, buf: &mut Vec<u8>) {
        put_element(buf, self.element);
    }

    fn wire_bytes(&self) -> usize {
        8
    }
}

/// Coordinator → site (infinite window): the refreshed global threshold
/// `u` (Algorithm 2, line 11).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DownThreshold {
    /// Raw 64-bit threshold (`dds_hash::UnitValue` order).
    pub u: u64,
}

impl WireMessage for DownThreshold {
    fn encode(&self, buf: &mut Vec<u8>) {
        put_hash(buf, self.u);
    }

    fn wire_bytes(&self) -> usize {
        8
    }
}

/// Site → coordinator (sliding window): a candidate sample with its expiry
/// slot (Algorithm 3, lines 13 & 24).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SwUp {
    /// The candidate element.
    pub element: Element,
    /// First slot at which the candidate is out of the window.
    pub expiry: Slot,
}

impl WireMessage for SwUp {
    fn encode(&self, buf: &mut Vec<u8>) {
        put_element(buf, self.element);
        put_slot(buf, self.expiry);
    }

    fn wire_bytes(&self) -> usize {
        16
    }
}

/// Coordinator → site (sliding window): the current global sample and its
/// expiry (Algorithm 4, line 6).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SwDown {
    /// The global sample element.
    pub element: Element,
    /// Its expiry slot.
    pub expiry: Slot,
}

impl WireMessage for SwDown {
    fn encode(&self, buf: &mut Vec<u8>) {
        put_element(buf, self.element);
        put_slot(buf, self.expiry);
    }

    fn wire_bytes(&self) -> usize {
        16
    }
}

/// Site → coordinator for the `s`-parallel-copies samplers: the copy index
/// plus the inner message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CopyUp<M> {
    /// Which of the `s` independent copies this belongs to.
    pub copy: u32,
    /// The single-copy message.
    pub inner: M,
}

impl<M: WireMessage> WireMessage for CopyUp<M> {
    fn encode(&self, buf: &mut Vec<u8>) {
        buf.extend_from_slice(&self.copy.to_le_bytes());
        self.inner.encode(buf);
    }
}

/// Coordinator → site for the parallel-copies samplers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CopyDown<M> {
    /// Which copy this belongs to.
    pub copy: u32,
    /// The single-copy message.
    pub inner: M,
}

impl<M: WireMessage> WireMessage for CopyDown<M> {
    fn encode(&self, buf: &mut Vec<u8>) {
        buf.extend_from_slice(&self.copy.to_le_bytes());
        self.inner.encode(buf);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sizes_are_constant_and_small() {
        assert_eq!(
            UpElem {
                element: Element(1)
            }
            .wire_bytes(),
            8
        );
        assert_eq!(DownThreshold { u: 5 }.wire_bytes(), 8);
        assert_eq!(
            SwUp {
                element: Element(1),
                expiry: Slot(2)
            }
            .wire_bytes(),
            16
        );
        assert_eq!(
            SwDown {
                element: Element(1),
                expiry: Slot(2)
            }
            .wire_bytes(),
            16
        );
        assert_eq!(
            CopyUp {
                copy: 3,
                inner: UpElem {
                    element: Element(9)
                }
            }
            .wire_bytes(),
            12
        );
        assert_eq!(
            CopyDown {
                copy: 3,
                inner: DownThreshold { u: 1 }
            }
            .wire_bytes(),
            12
        );
    }

    #[test]
    fn encodings_are_fixed_layout() {
        let mut buf = Vec::new();
        SwUp {
            element: Element(0x0102),
            expiry: Slot(0x0304),
        }
        .encode(&mut buf);
        assert_eq!(&buf[0..8], &0x0102u64.to_le_bytes());
        assert_eq!(&buf[8..16], &0x0304u64.to_le_bytes());
    }
}
