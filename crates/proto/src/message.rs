//! The protocol's vocabulary: [`Request`] and [`Response`], their
//! opcode assignments, and their payload layouts.
//!
//! Every variant covers exactly one method of the engine's public
//! surface, so a remote caller can do anything an in-process caller
//! can. Each enum's layout is declared once, one line per variant, on
//! `dds_core`'s `Wire` codec — the one checkpoints use: fixed-width
//! little-endian integers, `u32` collection lengths bounds-checked
//! against the remaining input, and no self-describing metadata; the
//! version byte in the frame header governs the whole dialect. The
//! engine's own records (`TenantId`, `TenantView`, `EngineMetrics`,
//! `EngineReport`, `EngineError`) are laid out in `dds-engine`, beside
//! the types.
//!
//! Server-side failures travel as a dedicated error frame
//! ([`opcode::ERROR`]) carrying a structurally encoded
//! [`EngineError`], so `Result<Response, EngineError>` round-trips the
//! wire losslessly in both directions, through the codec both dialects
//! share (`crate::codec`).

use dds_core::checkpoint::{CheckpointError, Padded, StateReader};
use dds_engine::{EngineMetrics, EngineReport, TenantId, TenantView};
use dds_obs::TelemetrySnapshot;
use dds_sim::{Element, Slot};

#[cfg(doc)]
use dds_engine::EngineError;

/// Opcode assignments. Requests and responses live in disjoint ranges
/// so a frame routed to the wrong decoder fails loudly
/// ([`CheckpointError::UnknownKind`]) instead of mis-parsing.
pub mod opcode {
    /// [`super::Request::Observe`].
    pub const OBSERVE: u8 = 0x01;
    /// [`super::Request::ObserveAt`].
    pub const OBSERVE_AT: u8 = 0x02;
    /// [`super::Request::ObserveBatch`].
    pub const OBSERVE_BATCH: u8 = 0x03;
    /// [`super::Request::ObserveBatchAt`].
    pub const OBSERVE_BATCH_AT: u8 = 0x04;
    /// [`super::Request::Advance`].
    pub const ADVANCE: u8 = 0x05;
    /// [`super::Request::Snapshot`].
    pub const SNAPSHOT: u8 = 0x06;
    /// [`super::Request::SnapshotAt`].
    pub const SNAPSHOT_AT: u8 = 0x07;
    /// [`super::Request::SnapshotView`].
    pub const SNAPSHOT_VIEW: u8 = 0x08;
    /// [`super::Request::SnapshotAll`].
    pub const SNAPSHOT_ALL: u8 = 0x09;
    /// [`super::Request::Flush`].
    pub const FLUSH: u8 = 0x0A;
    /// [`super::Request::Metrics`].
    pub const METRICS: u8 = 0x0B;
    /// [`super::Request::Checkpoint`].
    pub const CHECKPOINT: u8 = 0x0C;
    /// [`super::Request::Restore`].
    pub const RESTORE: u8 = 0x0D;
    /// [`super::Request::Shutdown`].
    pub const SHUTDOWN: u8 = 0x0E;
    /// [`super::Request::Telemetry`].
    pub const TELEMETRY: u8 = 0x0F;

    /// [`super::Response::Ack`].
    pub const ACK: u8 = 0x41;
    /// [`super::Response::Sample`].
    pub const SAMPLE: u8 = 0x42;
    /// [`super::Response::View`].
    pub const VIEW: u8 = 0x43;
    /// [`super::Response::Census`].
    pub const CENSUS: u8 = 0x44;
    /// [`super::Response::Metrics`].
    pub const METRICS_REPLY: u8 = 0x45;
    /// [`super::Response::CheckpointDocument`].
    pub const CHECKPOINT_DOCUMENT: u8 = 0x46;
    /// [`super::Response::Goodbye`].
    pub const GOODBYE: u8 = 0x47;
    /// [`super::Response::Telemetry`].
    pub const TELEMETRY_REPLY: u8 = 0x48;
    /// An `Err(EngineError)` outcome (not a [`super::Response`]
    /// variant: errors are the `Err` arm of the service result).
    pub const ERROR: u8 = 0x7F;

    /// Human-readable name of a *request* opcode — the `opcode` label
    /// value the server's per-opcode telemetry uses.
    #[must_use]
    pub fn name(op: u8) -> Option<&'static str> {
        Some(match op {
            OBSERVE => "observe",
            OBSERVE_AT => "observe_at",
            OBSERVE_BATCH => "observe_batch",
            OBSERVE_BATCH_AT => "observe_batch_at",
            ADVANCE => "advance",
            SNAPSHOT => "snapshot",
            SNAPSHOT_AT => "snapshot_at",
            SNAPSHOT_VIEW => "snapshot_view",
            SNAPSHOT_ALL => "snapshot_all",
            FLUSH => "flush",
            METRICS => "metrics",
            CHECKPOINT => "checkpoint",
            RESTORE => "restore",
            SHUTDOWN => "shutdown",
            TELEMETRY => "telemetry",
            _ => return None,
        })
    }
}

/// One request to an engine service — the full public surface of
/// `dds_engine::Engine`, as data.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Ingest one element at the tenant's current clock.
    Observe {
        /// The observed tenant.
        tenant: TenantId,
        /// The observed element.
        element: Element,
    },
    /// Ingest one element stamped at slot `now`.
    ObserveAt {
        /// The observed tenant.
        tenant: TenantId,
        /// The observed element.
        element: Element,
        /// The observation's slot.
        now: Slot,
    },
    /// Ingest a batch of (tenant, element) observations.
    ObserveBatch {
        /// The observations, in per-tenant order.
        batch: Vec<(TenantId, Element)>,
    },
    /// Ingest a batch all stamped at one slot.
    ObserveBatchAt {
        /// The batch's slot.
        now: Slot,
        /// The observations, in per-tenant order.
        batch: Vec<(TenantId, Element)>,
    },
    /// Raise every shard's watermark to `now` (idle-tenant expiry).
    Advance {
        /// The new global clock.
        now: Slot,
    },
    /// One tenant's sample at the shard watermark.
    Snapshot {
        /// The queried tenant.
        tenant: TenantId,
    },
    /// One tenant's sample as of an explicit slot.
    SnapshotAt {
        /// The queried tenant.
        tenant: TenantId,
        /// Answer as of this slot.
        now: Slot,
    },
    /// One tenant's full operational view, optionally as of a slot.
    SnapshotView {
        /// The queried tenant.
        tenant: TenantId,
        /// Answer as of this slot (watermark if `None`).
        at: Option<Slot>,
    },
    /// Every hosted tenant's sample, optionally as of a slot — the
    /// consistent windowed census in one request.
    SnapshotAll {
        /// Answer as of this slot (per-shard watermarks if `None`).
        at: Option<Slot>,
    },
    /// Block until all previously enqueued commands are processed.
    Flush,
    /// Current per-shard operational metrics.
    Metrics,
    /// Serialize the whole engine into a checkpoint document.
    Checkpoint,
    /// Replace the served engine with one restored from a checkpoint
    /// document.
    Restore {
        /// `Engine::checkpoint` output.
        document: Vec<u8>,
    },
    /// Stop the engine and return the final accounting.
    Shutdown,
    /// Current telemetry: every registered counter, gauge, histogram,
    /// and retained event, as a versioned snapshot. Transports layer
    /// their own metrics onto the engine's before replying.
    Telemetry,
}

/// One successful answer from an engine service.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Response {
    /// The request was applied (ingest, advance, flush, restore).
    Ack,
    /// A tenant's sample.
    Sample {
        /// The distinct sample.
        sample: Vec<Element>,
    },
    /// A tenant's full operational view.
    View {
        /// Sample plus memory and message accounting.
        view: TenantView,
    },
    /// Every hosted tenant's sample, ascending by tenant id.
    Census {
        /// `(tenant, sample)` rows.
        tenants: Vec<(TenantId, Vec<Element>)>,
    },
    /// Per-shard operational metrics.
    Metrics {
        /// One snapshot per shard.
        metrics: EngineMetrics,
    },
    /// A whole-engine checkpoint document.
    CheckpointDocument {
        /// `Engine::checkpoint` output.
        document: Vec<u8>,
    },
    /// The engine stopped; final accounting.
    Goodbye {
        /// Metrics and tenants-per-shard at shutdown.
        report: EngineReport,
    },
    /// A versioned telemetry snapshot.
    Telemetry {
        /// Every registered metric and retained event.
        snapshot: dds_obs::TelemetrySnapshot,
    },
}

message! { Request {
    opcode::OBSERVE => Observe { tenant: TenantId, element: Element },
    opcode::OBSERVE_AT => ObserveAt { tenant: TenantId, element: Element, now: Slot },
    opcode::OBSERVE_BATCH => ObserveBatch { batch: Vec<(TenantId, Element)> },
    opcode::OBSERVE_BATCH_AT => ObserveBatchAt { now: Slot, batch: Vec<(TenantId, Element)> },
    opcode::ADVANCE => Advance { now: Slot },
    opcode::SNAPSHOT => Snapshot { tenant: TenantId },
    opcode::SNAPSHOT_AT => SnapshotAt { tenant: TenantId, now: Slot },
    opcode::SNAPSHOT_VIEW => SnapshotView { tenant: TenantId, at: Option<Slot> as Padded<Slot> },
    opcode::SNAPSHOT_ALL => SnapshotAll { at: Option<Slot> as Padded<Slot> },
    opcode::FLUSH => Flush,
    opcode::METRICS => Metrics,
    opcode::CHECKPOINT => Checkpoint,
    opcode::RESTORE => Restore { document: Vec<u8> },
    opcode::SHUTDOWN => Shutdown,
    opcode::TELEMETRY => Telemetry,
} }

message! { Response {
    opcode::ACK => Ack,
    opcode::SAMPLE => Sample { sample: Vec<Element> },
    opcode::VIEW => View { view: TenantView },
    opcode::CENSUS => Census { tenants: Vec<(TenantId, Vec<Element>)> },
    opcode::METRICS_REPLY => Metrics { metrics: EngineMetrics },
    opcode::CHECKPOINT_DOCUMENT => CheckpointDocument { document: Vec<u8> },
    opcode::GOODBYE => Goodbye { report: EngineReport },
    opcode::TELEMETRY_REPLY => Telemetry { snapshot: TelemetrySnapshot },
} }

/// Decode an [`opcode::OBSERVE_BATCH`] or [`opcode::OBSERVE_BATCH_AT`]
/// payload straight into a reusable buffer, returning the timed shape's
/// slot (`None` for the untimed shape).
///
/// This is the server's ingest fast path: the whole request is consumed
/// without building a [`Request`] value or allocating a fresh batch
/// `Vec` — the buffer is cleared and refilled in place, so a
/// steady-state connection decodes batches with no per-frame
/// allocation once it has grown.
///
/// # Errors
/// [`CheckpointError::UnknownKind`] for any other opcode; otherwise as
/// [`Request::decode`] (truncated, corrupt, or trailing bytes).
pub fn decode_batch_request(
    op: u8,
    payload: &[u8],
    batch: &mut Vec<(TenantId, Element)>,
) -> Result<Option<Slot>, CheckpointError> {
    let mut r = StateReader::new(payload);
    let now = match op {
        opcode::OBSERVE_BATCH => None,
        opcode::OBSERVE_BATCH_AT => Some(r.get()?),
        other => return Err(CheckpointError::UnknownKind(other)),
    };
    r.get_vec_into(batch)?;
    r.expect_end()?;
    Ok(now)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::{decode_outcome_frame, encode_outcome};
    use crate::frame;
    use dds_engine::EngineError;

    #[test]
    fn fixed_size_requests_are_small() {
        let observe = Request::Observe {
            tenant: TenantId(1),
            element: Element(2),
        };
        // 19 bytes of frame + two u64 fields: the per-observe wire cost
        // a capacity planner multiplies out.
        assert_eq!(observe.wire_bytes(), frame::OVERHEAD_BYTES + 16);
        assert_eq!(Request::Flush.wire_bytes(), frame::OVERHEAD_BYTES);
    }

    #[test]
    fn request_opcodes_and_frames_roundtrip() {
        let requests = vec![
            Request::Observe {
                tenant: TenantId(1),
                element: Element(2),
            },
            Request::ObserveBatchAt {
                now: Slot(9),
                batch: vec![(TenantId(3), Element(4)), (TenantId(5), Element(6))],
            },
            Request::SnapshotView {
                tenant: TenantId(8),
                at: Some(Slot(11)),
            },
            Request::Restore {
                document: vec![1, 2, 3],
            },
            Request::Shutdown,
        ];
        for request in requests {
            let frame = request.encode();
            assert_eq!(Request::decode_frame(&frame), Ok(request.clone()));
            assert_eq!(frame.len(), request.wire_bytes());
        }
    }

    #[test]
    fn outcomes_roundtrip_success_and_error() {
        let ok: Result<Response, EngineError> = Ok(Response::Sample {
            sample: vec![Element(1), Element(2)],
        });
        assert_eq!(decode_outcome_frame(&encode_outcome(&ok)), Ok(ok.clone()));
        let err: Result<Response, EngineError> = Err(EngineError::UnknownTenant(TenantId(404)));
        assert_eq!(decode_outcome_frame(&encode_outcome(&err)), Ok(err.clone()));
    }

    #[test]
    fn unknown_opcodes_fail_cleanly() {
        assert_eq!(
            Request::decode(0xEE, &[]),
            Err(CheckpointError::UnknownKind(0xEE))
        );
        assert_eq!(
            Response::decode(0xEE, &[]),
            Err(CheckpointError::UnknownKind(0xEE))
        );
        // A response opcode routed into the request decoder (and vice
        // versa) is an unknown kind, never a mis-parse.
        assert!(Request::decode(opcode::SAMPLE, &[0, 0, 0, 0]).is_err());
        assert!(Response::decode(opcode::OBSERVE, &[0; 16]).is_err());
    }

    #[test]
    fn batch_fast_path_decode_matches_the_general_decoder() {
        let batch = vec![(TenantId(3), Element(4)), (TenantId(5), Element(6))];
        let mut scratch = vec![(TenantId(0), Element(0)); 8]; // stale contents must be discarded
        let untimed = Request::ObserveBatch {
            batch: batch.clone(),
        };
        let now = decode_batch_request(untimed.opcode(), &untimed.payload(), &mut scratch)
            .expect("untimed decodes");
        assert_eq!(now, None);
        assert_eq!(scratch, batch);
        let timed = Request::ObserveBatchAt {
            now: Slot(9),
            batch: batch.clone(),
        };
        let now = decode_batch_request(timed.opcode(), &timed.payload(), &mut scratch)
            .expect("timed decodes");
        assert_eq!(now, Some(Slot(9)));
        assert_eq!(scratch, batch);
        // Non-batch opcodes are refused, and corrupt payloads fail like
        // the general decoder.
        assert_eq!(
            decode_batch_request(opcode::ADVANCE, &[0; 8], &mut scratch),
            Err(CheckpointError::UnknownKind(opcode::ADVANCE))
        );
        let mut trailing = untimed.payload();
        trailing.push(0);
        assert_eq!(
            decode_batch_request(opcode::OBSERVE_BATCH, &trailing, &mut scratch),
            Err(CheckpointError::TrailingBytes(1))
        );
    }

    #[test]
    fn trailing_bytes_after_a_message_are_rejected() {
        let mut payload = Request::Advance { now: Slot(3) }.payload();
        payload.push(0);
        assert_eq!(
            Request::decode(opcode::ADVANCE, &payload),
            Err(CheckpointError::TrailingBytes(1))
        );
    }
}
