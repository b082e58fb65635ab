//! The frame codec both dialects share.
//!
//! A message is a closed enum laid out once by `dds_core`'s
//! `wire_enum!`: its tag is the frame's opcode, and its fields are the
//! payload. A service outcome is `Result<Response, Error>`: a response
//! travels under its own opcode, an error under its dialect's
//! [`Refusal::OPCODE`]. The engine dialect (`Request`, `Response`,
//! `EngineError`) and the cluster dialect (`ClusterRequest`,
//! `ClusterResponse`, `ClusterError`) go through the same functions.

use dds_core::checkpoint::{CheckpointError, StateReader, StateWriter, Tagged, Wire};
use dds_engine::EngineError;

use crate::frame::{self, MAX_PAYLOAD};

/// The error half of a dialect's outcome.
pub trait Refusal: Wire {
    /// The opcode an error frame travels under.
    const OPCODE: u8;

    /// The typed refusal that answers in place of a reply too large for
    /// one frame.
    fn unsupported(reason: String) -> Self;
}

impl Refusal for EngineError {
    const OPCODE: u8 = crate::message::opcode::ERROR;

    fn unsupported(reason: String) -> Self {
        EngineError::Unsupported(reason)
    }
}

/// A message's frame payload: its fields, without the tag.
#[must_use]
pub fn payload<M: Tagged>(message: &M) -> Vec<u8> {
    let mut w = StateWriter::new();
    message.put_fields(&mut w);
    w.into_bytes()
}

/// Encode a message into one complete frame.
///
/// # Panics
/// If the payload exceeds [`MAX_PAYLOAD`] (see [`frame::frame_bytes`]);
/// a reply goes through [`encode_outcome`], which refuses instead.
#[must_use]
pub fn encode<M: Tagged>(message: &M) -> Vec<u8> {
    frame::frame_bytes(message.tag(), &payload(message))
}

/// Decode a message from an opcode and a payload it must consume whole.
///
/// # Errors
/// A clean [`CheckpointError`] on an unknown opcode, truncated or
/// trailing bytes, or corrupt field values.
pub fn decode<M: Tagged>(op: u8, payload: &[u8]) -> Result<M, CheckpointError> {
    let mut r = StateReader::new(payload);
    let message = M::get_fields(op, &mut r)?;
    r.expect_end()?;
    Ok(message)
}

/// Decode a message from one complete frame.
///
/// # Errors
/// As [`decode`], plus the frame layer's own validation.
pub fn decode_frame<M: Tagged>(bytes: &[u8]) -> Result<M, CheckpointError> {
    let (op, payload) = frame::decode_frame(bytes)?;
    decode(op, payload)
}

/// Encode a service outcome — success or error — into one frame,
/// without ever panicking: an outcome whose payload exceeds
/// [`MAX_PAYLOAD`] (the checkpoint document of a many-million-tenant
/// engine, a sample of millions of elements) is answered with the
/// dialect's typed `Unsupported` refusal instead, tiny by construction,
/// so a connection degrades to a clean error rather than a crash.
#[must_use]
pub fn encode_outcome<R: Tagged, E: Refusal>(outcome: &Result<R, E>) -> Vec<u8> {
    let (op, payload) = match outcome {
        Ok(response) => (response.tag(), payload(response)),
        Err(error) => (E::OPCODE, refusal_payload(error)),
    };
    if payload.len() > MAX_PAYLOAD {
        let refusal = E::unsupported(format!(
            "response payload of {} bytes exceeds the {} byte frame limit",
            payload.len(),
            MAX_PAYLOAD
        ));
        return frame::frame_bytes(E::OPCODE, &refusal_payload(&refusal));
    }
    frame::frame_bytes(op, &payload)
}

fn refusal_payload<E: Refusal>(error: &E) -> Vec<u8> {
    let mut w = StateWriter::new();
    w.put(error);
    w.into_bytes()
}

/// Decode a service outcome from an opcode and a payload.
///
/// The outer `Result` is *decode* failure (malformed bytes); the inner
/// one is the service's own verdict, reproduced losslessly.
///
/// # Errors
/// A clean [`CheckpointError`] on malformed bytes.
pub fn decode_outcome<R: Tagged, E: Refusal>(
    op: u8,
    payload: &[u8],
) -> Result<Result<R, E>, CheckpointError> {
    if op == E::OPCODE {
        let mut r = StateReader::new(payload);
        let error = r.get()?;
        r.expect_end()?;
        Ok(Err(error))
    } else {
        decode(op, payload).map(Ok)
    }
}

/// Decode a service outcome from one complete frame.
///
/// # Errors
/// As [`decode_outcome`], plus frame validation.
pub fn decode_outcome_frame<R: Tagged, E: Refusal>(
    bytes: &[u8],
) -> Result<Result<R, E>, CheckpointError> {
    let (op, payload) = frame::decode_frame(bytes)?;
    decode_outcome(op, payload)
}

/// Lay out a dialect's message enum once (`dds_core::wire_enum!`, tags
/// as opcodes) and give it the frame codec as inherent methods.
macro_rules! message {
    ($ty:ident { $($arms:tt)* }) => {
        dds_core::wire_enum! { $ty { $($arms)* } }

        impl $ty {
            /// This message's frame opcode.
            #[must_use]
            pub fn opcode(&self) -> u8 {
                dds_core::checkpoint::Tagged::tag(self)
            }

            /// This message's frame payload.
            #[must_use]
            pub fn payload(&self) -> Vec<u8> {
                $crate::codec::payload(self)
            }

            /// Encode into one complete frame.
            #[must_use]
            pub fn encode(&self) -> Vec<u8> {
                $crate::codec::encode(self)
            }

            /// Decode from an opcode + payload (as the frame layer
            /// yields them).
            ///
            /// # Errors
            /// A clean `CheckpointError` on an unknown opcode, truncated
            /// or trailing bytes, or corrupt field values.
            pub fn decode(
                op: u8,
                payload: &[u8],
            ) -> Result<Self, dds_core::checkpoint::CheckpointError> {
                $crate::codec::decode(op, payload)
            }

            /// Decode from one complete frame.
            ///
            /// # Errors
            /// As `decode`, plus the frame layer's own validation.
            pub fn decode_frame(bytes: &[u8]) -> Result<Self, dds_core::checkpoint::CheckpointError> {
                $crate::codec::decode_frame(bytes)
            }

            /// Bytes this message occupies on the wire.
            #[must_use]
            pub fn wire_bytes(&self) -> usize {
                $crate::frame::OVERHEAD_BYTES + self.payload().len()
            }
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::{ClusterError, ClusterResponse};
    use crate::message::Response;
    use dds_sim::Element;

    /// A sample one element past what a frame can carry (8 bytes each
    /// behind a `u32` count).
    fn oversized_sample() -> Vec<Element> {
        (0..(MAX_PAYLOAD / 8) as u64).map(Element).collect()
    }

    #[test]
    fn an_oversized_reply_is_refused_in_both_dialects() {
        // One dialect at a time, so no more than one sample and its
        // payload are alive at once.
        let engine = Ok::<_, EngineError>(Response::Sample {
            sample: oversized_sample(),
        });
        let frame = encode_outcome(&engine);
        drop(engine);
        let verdict = decode_outcome_frame::<Response, EngineError>(&frame).expect("decodes");
        assert!(
            matches!(&verdict, Err(EngineError::Unsupported(why)) if why.contains("frame limit")),
            "{verdict:?}"
        );

        let cluster = Ok::<_, ClusterError>(ClusterResponse::Sample {
            sample: oversized_sample(),
        });
        let frame = encode_outcome(&cluster);
        drop(cluster);
        let verdict =
            decode_outcome_frame::<ClusterResponse, ClusterError>(&frame).expect("decodes");
        assert!(
            matches!(&verdict, Err(ClusterError::Unsupported(why)) if why.contains("frame limit")),
            "{verdict:?}"
        );
    }
}
