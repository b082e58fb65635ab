//! The unified service-level error type.
//!
//! Before the formal service API, the engine's failure modes were split
//! between `Option` returns (`snapshot*` on an unknown tenant) and
//! panics (`expect("shard worker alive")` on sends after a worker was
//! gone). A wire client can provoke both from the other side of a
//! socket, so they must be *values*: every fallible engine operation —
//! in-process or remote — now answers `Result<_, EngineError>`, and the
//! error itself is wire-codable (see `dds_proto`), so a remote caller
//! sees exactly the error the engine raised.

use crate::TenantId;
use dds_core::checkpoint::CheckpointError;
use dds_sim::Slot;

/// Why an engine request failed — in-process and over the wire alike.
///
/// Every variant round-trips through the `dds_proto` codec unchanged,
/// so the error a remote client observes is the error the engine (or
/// the transport) actually produced.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EngineError {
    /// The queried tenant has never been observed by this engine.
    UnknownTenant(TenantId),
    /// The engine has been shut down and accepts no further requests.
    ShutDown,
    /// A shard worker is gone (its thread exited or panicked), so the
    /// request could not be delivered or answered.
    ShardDown(usize),
    /// Bytes — a request frame, a response frame, or a checkpoint
    /// document — failed to decode. Carries the decoder's rendering of
    /// the underlying [`CheckpointError`].
    Format(String),
    /// The request is valid but this service implementation cannot
    /// perform it (e.g. `Restore` on a bare in-process [`Engine`],
    /// which cannot replace itself).
    ///
    /// [`Engine`]: crate::Engine
    Unsupported(String),
    /// The transport failed (connect, read, or write I/O errors, or a
    /// connection closed mid-response).
    Transport(String),
    /// A timestamped observation arrived beyond the engine's lateness
    /// horizon: `slot + lateness < watermark`. The data was counted in
    /// `engine_late_dropped_total` and dropped — never silently
    /// re-stamped to the current slot.
    LateData {
        /// The stale slot the observation was stamped with.
        slot: Slot,
        /// The shard watermark it fell behind.
        watermark: Slot,
    },
}

// The payload of an error frame: a tag byte, then the variant's fields.
dds_core::wire_enum! { EngineError {
    0 => UnknownTenant(tenant: TenantId),
    1 => ShutDown,
    2 => ShardDown(shard: usize),
    3 => Format(msg: String),
    4 => Unsupported(msg: String),
    5 => Transport(msg: String),
    6 => LateData { slot: Slot, watermark: Slot },
} }

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineError::UnknownTenant(t) => write!(f, "unknown tenant {}", t.0),
            EngineError::ShutDown => write!(f, "engine is shut down"),
            EngineError::ShardDown(i) => write!(f, "shard worker {i} is gone"),
            EngineError::Format(what) => write!(f, "malformed bytes: {what}"),
            EngineError::Unsupported(what) => write!(f, "unsupported request: {what}"),
            EngineError::Transport(what) => write!(f, "transport failure: {what}"),
            EngineError::LateData { slot, watermark } => write!(
                f,
                "late data: slot {} is beyond the lateness horizon (watermark {})",
                slot.0, watermark.0
            ),
        }
    }
}

impl std::error::Error for EngineError {}

impl From<CheckpointError> for EngineError {
    fn from(e: CheckpointError) -> Self {
        EngineError::Format(e.to_string())
    }
}

impl From<std::io::Error> for EngineError {
    fn from(e: std::io::Error) -> Self {
        EngineError::Transport(e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_are_distinct_and_informative() {
        let msgs: Vec<String> = [
            EngineError::UnknownTenant(TenantId(7)),
            EngineError::ShutDown,
            EngineError::ShardDown(2),
            EngineError::Format("truncated".into()),
            EngineError::Unsupported("restore".into()),
            EngineError::Transport("connection reset".into()),
            EngineError::LateData {
                slot: Slot(3),
                watermark: Slot(90),
            },
        ]
        .iter()
        .map(ToString::to_string)
        .collect();
        let unique: std::collections::HashSet<&String> = msgs.iter().collect();
        assert_eq!(unique.len(), msgs.len());
        assert!(msgs[0].contains('7'));
    }

    #[test]
    fn conversions_preserve_the_underlying_message() {
        let e: EngineError = CheckpointError::Truncated.into();
        assert_eq!(e, EngineError::Format("checkpoint truncated".into()));
        let io = std::io::Error::new(std::io::ErrorKind::ConnectionReset, "peer gone");
        assert_eq!(
            EngineError::from(io),
            EngineError::Transport("peer gone".into())
        );
    }
}
