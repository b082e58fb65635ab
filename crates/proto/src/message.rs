//! The protocol's vocabulary: [`Request`] and [`Response`], their
//! opcode assignments, and the payload codecs.
//!
//! Every variant covers exactly one method of the engine's public
//! surface, so a remote caller can do anything an in-process caller
//! can. Payloads are encoded with the same little-endian
//! `StateWriter`/`StateReader` primitives as checkpoints: fixed-width
//! integers, `u32` collection lengths bounds-checked against the
//! remaining input, and no self-describing metadata — the version byte
//! in the frame header governs the whole dialect.
//!
//! Server-side failures travel as a dedicated error frame
//! ([`opcode::ERROR`]) carrying a structurally encoded
//! [`EngineError`], so `Result<Response, EngineError>` round-trips the
//! wire losslessly in both directions.

use dds_core::checkpoint::{CheckpointError, StateReader, StateWriter};
use dds_engine::{
    EngineError, EngineMetrics, EngineReport, ShardMetricsSnapshot, TenantId, TenantView,
};
use dds_sim::{Element, Slot};

use crate::frame;

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

// ---------------------------------------------------------------------
// Shared field codecs.
// ---------------------------------------------------------------------

fn put_batch(w: &mut StateWriter, batch: &[(TenantId, Element)]) {
    w.reserve(4 + 16 * batch.len());
    w.put_len(batch.len());
    for &(t, e) in batch {
        w.put_u64(t.0);
        w.put_element(e);
    }
}

fn get_batch(r: &mut StateReader<'_>) -> Result<Vec<(TenantId, Element)>, CheckpointError> {
    let mut batch = Vec::new();
    get_batch_into(r, &mut batch)?;
    Ok(batch)
}

/// Decode a `(tenant, element)` batch into a caller-owned buffer —
/// cleared and refilled in place, so a steady-state connection decodes
/// batches with zero per-frame allocation once the buffer has grown.
///
/// # Errors
/// A clean [`CheckpointError`] on truncated or corrupt input.
pub fn get_batch_into(
    r: &mut StateReader<'_>,
    batch: &mut Vec<(TenantId, Element)>,
) -> Result<(), CheckpointError> {
    let n = r.get_len(16)?;
    batch.clear();
    batch.reserve(n);
    for _ in 0..n {
        let t = TenantId(r.get_u64()?);
        let e = r.get_element()?;
        batch.push((t, e));
    }
    Ok(())
}

/// Decode an [`opcode::OBSERVE_BATCH`] or [`opcode::OBSERVE_BATCH_AT`]
/// payload straight into a reusable buffer, returning the timed shape's
/// slot (`None` for the untimed shape).
///
/// This is the server's ingest fast path: the whole request is consumed
/// without building a [`Request`] value or allocating a fresh batch
/// `Vec` — the two allocations the general decode route pays per frame.
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
        opcode::OBSERVE_BATCH_AT => Some(r.get_slot()?),
        other => return Err(CheckpointError::UnknownKind(other)),
    };
    get_batch_into(&mut r, batch)?;
    r.expect_end()?;
    Ok(now)
}

fn put_opt_slot(w: &mut StateWriter, at: Option<Slot>) {
    w.put_bool(at.is_some());
    w.put_slot(at.unwrap_or(Slot(0)));
}

fn get_opt_slot(r: &mut StateReader<'_>) -> Result<Option<Slot>, CheckpointError> {
    let present = r.get_bool()?;
    let slot = r.get_slot()?;
    Ok(present.then_some(slot))
}

fn put_elements(w: &mut StateWriter, sample: &[Element]) {
    w.put_len(sample.len());
    for &e in sample {
        w.put_element(e);
    }
}

fn get_elements(r: &mut StateReader<'_>) -> Result<Vec<Element>, CheckpointError> {
    let n = r.get_len(8)?;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        out.push(r.get_element()?);
    }
    Ok(out)
}

fn put_document(w: &mut StateWriter, document: &[u8]) {
    w.put_len(document.len());
    w.put_bytes(document);
}

fn get_document(r: &mut StateReader<'_>) -> Result<Vec<u8>, CheckpointError> {
    let n = r.get_len(1)?;
    Ok(r.get_bytes(n)?.to_vec())
}

fn put_string(w: &mut StateWriter, s: &str) {
    w.put_len(s.len());
    w.put_bytes(s.as_bytes());
}

fn get_string(r: &mut StateReader<'_>) -> Result<String, CheckpointError> {
    let n = r.get_len(1)?;
    String::from_utf8(r.get_bytes(n)?.to_vec())
        .map_err(|_| CheckpointError::Corrupt("string is not valid utf-8"))
}

fn put_usize(w: &mut StateWriter, n: usize) {
    w.put_u64(n as u64);
}

fn get_usize(r: &mut StateReader<'_>) -> Result<usize, CheckpointError> {
    usize::try_from(r.get_u64()?).map_err(|_| CheckpointError::Corrupt("count exceeds usize"))
}

/// Per-shard metric snapshots: 15 fixed-width words per shard.
const SHARD_METRICS_BYTES: usize = 15 * 8;

fn put_metrics(w: &mut StateWriter, metrics: &EngineMetrics) {
    w.put_len(metrics.shards.len());
    for s in &metrics.shards {
        put_usize(w, s.shard);
        w.put_u64(s.batches);
        w.put_u64(s.elements);
        w.put_u64(s.snapshots);
        w.put_u64(s.snapshot_nanos);
        w.put_u64(s.backpressure);
        put_usize(w, s.tenants);
        w.put_u64(s.advances);
        w.put_u64(s.evictions);
        w.put_u64(s.watermark);
        put_usize(w, s.queue_depth);
        w.put_u64(s.late_dropped);
        w.put_u64(s.stale_advances);
        w.put_u64(s.sweeps);
        put_usize(w, s.buffered);
    }
}

fn get_metrics(r: &mut StateReader<'_>) -> Result<EngineMetrics, CheckpointError> {
    let n = r.get_len(SHARD_METRICS_BYTES)?;
    let mut shards = Vec::with_capacity(n);
    for _ in 0..n {
        shards.push(ShardMetricsSnapshot {
            shard: get_usize(r)?,
            batches: r.get_u64()?,
            elements: r.get_u64()?,
            snapshots: r.get_u64()?,
            snapshot_nanos: r.get_u64()?,
            backpressure: r.get_u64()?,
            tenants: get_usize(r)?,
            advances: r.get_u64()?,
            evictions: r.get_u64()?,
            watermark: r.get_u64()?,
            queue_depth: get_usize(r)?,
            late_dropped: r.get_u64()?,
            stale_advances: r.get_u64()?,
            sweeps: r.get_u64()?,
            buffered: get_usize(r)?,
        });
    }
    Ok(EngineMetrics { shards })
}

// ---------------------------------------------------------------------
// EngineError codec (the payload behind `opcode::ERROR`).
// ---------------------------------------------------------------------

/// Encode an [`EngineError`] into `w` (tag byte + variant fields).
pub fn put_engine_error(w: &mut StateWriter, error: &EngineError) {
    match error {
        EngineError::UnknownTenant(t) => {
            w.put_u8(0);
            w.put_u64(t.0);
        }
        EngineError::ShutDown => w.put_u8(1),
        EngineError::ShardDown(i) => {
            w.put_u8(2);
            put_usize(w, *i);
        }
        EngineError::Format(msg) => {
            w.put_u8(3);
            put_string(w, msg);
        }
        EngineError::Unsupported(msg) => {
            w.put_u8(4);
            put_string(w, msg);
        }
        EngineError::Transport(msg) => {
            w.put_u8(5);
            put_string(w, msg);
        }
        EngineError::LateData { slot, watermark } => {
            w.put_u8(6);
            w.put_u64(slot.0);
            w.put_u64(watermark.0);
        }
    }
}

/// Decode an [`EngineError`] from `r`.
///
/// # Errors
/// A clean [`CheckpointError`] on malformed input.
pub fn get_engine_error(r: &mut StateReader<'_>) -> Result<EngineError, CheckpointError> {
    Ok(match r.get_u8()? {
        0 => EngineError::UnknownTenant(TenantId(r.get_u64()?)),
        1 => EngineError::ShutDown,
        2 => EngineError::ShardDown(get_usize(r)?),
        3 => EngineError::Format(get_string(r)?),
        4 => EngineError::Unsupported(get_string(r)?),
        5 => EngineError::Transport(get_string(r)?),
        6 => EngineError::LateData {
            slot: Slot(r.get_u64()?),
            watermark: Slot(r.get_u64()?),
        },
        other => return Err(CheckpointError::UnknownKind(other)),
    })
}

// ---------------------------------------------------------------------
// Request codec.
// ---------------------------------------------------------------------

impl Request {
    /// This request's frame opcode.
    #[must_use]
    pub fn opcode(&self) -> u8 {
        match self {
            Request::Observe { .. } => opcode::OBSERVE,
            Request::ObserveAt { .. } => opcode::OBSERVE_AT,
            Request::ObserveBatch { .. } => opcode::OBSERVE_BATCH,
            Request::ObserveBatchAt { .. } => opcode::OBSERVE_BATCH_AT,
            Request::Advance { .. } => opcode::ADVANCE,
            Request::Snapshot { .. } => opcode::SNAPSHOT,
            Request::SnapshotAt { .. } => opcode::SNAPSHOT_AT,
            Request::SnapshotView { .. } => opcode::SNAPSHOT_VIEW,
            Request::SnapshotAll { .. } => opcode::SNAPSHOT_ALL,
            Request::Flush => opcode::FLUSH,
            Request::Metrics => opcode::METRICS,
            Request::Checkpoint => opcode::CHECKPOINT,
            Request::Restore { .. } => opcode::RESTORE,
            Request::Shutdown => opcode::SHUTDOWN,
            Request::Telemetry => opcode::TELEMETRY,
        }
    }

    /// This request's frame payload.
    #[must_use]
    pub fn payload(&self) -> Vec<u8> {
        let mut w = StateWriter::new();
        match self {
            Request::Observe { tenant, element } => {
                w.put_u64(tenant.0);
                w.put_element(*element);
            }
            Request::ObserveAt {
                tenant,
                element,
                now,
            } => {
                w.put_u64(tenant.0);
                w.put_element(*element);
                w.put_slot(*now);
            }
            Request::ObserveBatch { batch } => put_batch(&mut w, batch),
            Request::ObserveBatchAt { now, batch } => {
                w.put_slot(*now);
                put_batch(&mut w, batch);
            }
            Request::Advance { now } => w.put_slot(*now),
            Request::Snapshot { tenant } => w.put_u64(tenant.0),
            Request::SnapshotAt { tenant, now } => {
                w.put_u64(tenant.0);
                w.put_slot(*now);
            }
            Request::SnapshotView { tenant, at } => {
                w.put_u64(tenant.0);
                put_opt_slot(&mut w, *at);
            }
            Request::SnapshotAll { at } => put_opt_slot(&mut w, *at),
            Request::Flush
            | Request::Metrics
            | Request::Checkpoint
            | Request::Shutdown
            | Request::Telemetry => {}
            Request::Restore { document } => put_document(&mut w, document),
        }
        w.into_bytes()
    }

    /// Encode into one complete wire frame.
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        frame::frame_bytes(self.opcode(), &self.payload())
    }

    /// Decode from an opcode + payload (as produced by the frame
    /// layer).
    ///
    /// # Errors
    /// A clean [`CheckpointError`] on unknown opcodes, truncated or
    /// trailing bytes, or corrupt field values.
    pub fn decode(op: u8, payload: &[u8]) -> Result<Request, CheckpointError> {
        let mut r = StateReader::new(payload);
        let request = match op {
            opcode::OBSERVE => Request::Observe {
                tenant: TenantId(r.get_u64()?),
                element: r.get_element()?,
            },
            opcode::OBSERVE_AT => Request::ObserveAt {
                tenant: TenantId(r.get_u64()?),
                element: r.get_element()?,
                now: r.get_slot()?,
            },
            opcode::OBSERVE_BATCH => Request::ObserveBatch {
                batch: get_batch(&mut r)?,
            },
            opcode::OBSERVE_BATCH_AT => Request::ObserveBatchAt {
                now: r.get_slot()?,
                batch: get_batch(&mut r)?,
            },
            opcode::ADVANCE => Request::Advance { now: r.get_slot()? },
            opcode::SNAPSHOT => Request::Snapshot {
                tenant: TenantId(r.get_u64()?),
            },
            opcode::SNAPSHOT_AT => Request::SnapshotAt {
                tenant: TenantId(r.get_u64()?),
                now: r.get_slot()?,
            },
            opcode::SNAPSHOT_VIEW => Request::SnapshotView {
                tenant: TenantId(r.get_u64()?),
                at: get_opt_slot(&mut r)?,
            },
            opcode::SNAPSHOT_ALL => Request::SnapshotAll {
                at: get_opt_slot(&mut r)?,
            },
            opcode::FLUSH => Request::Flush,
            opcode::METRICS => Request::Metrics,
            opcode::CHECKPOINT => Request::Checkpoint,
            opcode::RESTORE => Request::Restore {
                document: get_document(&mut r)?,
            },
            opcode::SHUTDOWN => Request::Shutdown,
            opcode::TELEMETRY => Request::Telemetry,
            other => return Err(CheckpointError::UnknownKind(other)),
        };
        r.expect_end()?;
        Ok(request)
    }

    /// Decode from one complete wire frame.
    ///
    /// # Errors
    /// As [`Request::decode`], plus the frame layer's own validation.
    pub fn decode_frame(bytes: &[u8]) -> Result<Request, CheckpointError> {
        let (op, payload) = frame::decode_frame(bytes)?;
        Request::decode(op, payload)
    }

    /// Bytes this request occupies on the wire.
    #[must_use]
    pub fn wire_bytes(&self) -> usize {
        frame::OVERHEAD_BYTES + self.payload().len()
    }
}

// ---------------------------------------------------------------------
// Response codec (over `Result<Response, EngineError>`, the service
// outcome that actually travels).
// ---------------------------------------------------------------------

impl Response {
    /// This response's frame opcode.
    #[must_use]
    pub fn opcode(&self) -> u8 {
        match self {
            Response::Ack => opcode::ACK,
            Response::Sample { .. } => opcode::SAMPLE,
            Response::View { .. } => opcode::VIEW,
            Response::Census { .. } => opcode::CENSUS,
            Response::Metrics { .. } => opcode::METRICS_REPLY,
            Response::CheckpointDocument { .. } => opcode::CHECKPOINT_DOCUMENT,
            Response::Goodbye { .. } => opcode::GOODBYE,
            Response::Telemetry { .. } => opcode::TELEMETRY_REPLY,
        }
    }

    /// This response's frame payload.
    #[must_use]
    pub fn payload(&self) -> Vec<u8> {
        let mut w = StateWriter::new();
        match self {
            Response::Ack => {}
            Response::Sample { sample } => put_elements(&mut w, sample),
            Response::View { view } => {
                put_elements(&mut w, &view.sample);
                put_usize(&mut w, view.memory_tuples);
                w.put_u64(view.protocol_messages);
            }
            Response::Census { tenants } => {
                w.put_len(tenants.len());
                for (t, sample) in tenants {
                    w.put_u64(t.0);
                    put_elements(&mut w, sample);
                }
            }
            Response::Metrics { metrics } => put_metrics(&mut w, metrics),
            Response::CheckpointDocument { document } => put_document(&mut w, document),
            Response::Goodbye { report } => {
                put_metrics(&mut w, &report.metrics);
                w.put_len(report.tenants_per_shard.len());
                for &n in &report.tenants_per_shard {
                    put_usize(&mut w, n);
                }
            }
            Response::Telemetry { snapshot } => crate::telemetry::put_telemetry(&mut w, snapshot),
        }
        w.into_bytes()
    }

    /// Encode into one complete wire frame.
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        frame::frame_bytes(self.opcode(), &self.payload())
    }

    /// Decode from an opcode + payload.
    ///
    /// # Errors
    /// As [`Request::decode`].
    pub fn decode(op: u8, payload: &[u8]) -> Result<Response, CheckpointError> {
        let mut r = StateReader::new(payload);
        let response = match op {
            opcode::ACK => Response::Ack,
            opcode::SAMPLE => Response::Sample {
                sample: get_elements(&mut r)?,
            },
            opcode::VIEW => Response::View {
                view: TenantView {
                    sample: get_elements(&mut r)?,
                    memory_tuples: get_usize(&mut r)?,
                    protocol_messages: r.get_u64()?,
                },
            },
            opcode::CENSUS => {
                let n = r.get_len(12)?;
                let mut tenants = Vec::with_capacity(n);
                for _ in 0..n {
                    let t = TenantId(r.get_u64()?);
                    tenants.push((t, get_elements(&mut r)?));
                }
                Response::Census { tenants }
            }
            opcode::METRICS_REPLY => Response::Metrics {
                metrics: get_metrics(&mut r)?,
            },
            opcode::CHECKPOINT_DOCUMENT => Response::CheckpointDocument {
                document: get_document(&mut r)?,
            },
            opcode::GOODBYE => {
                let metrics = get_metrics(&mut r)?;
                let n = r.get_len(8)?;
                let mut tenants_per_shard = Vec::with_capacity(n);
                for _ in 0..n {
                    tenants_per_shard.push(get_usize(&mut r)?);
                }
                Response::Goodbye {
                    report: EngineReport {
                        metrics,
                        tenants_per_shard,
                    },
                }
            }
            opcode::TELEMETRY_REPLY => Response::Telemetry {
                snapshot: crate::telemetry::get_telemetry(&mut r)?,
            },
            other => return Err(CheckpointError::UnknownKind(other)),
        };
        r.expect_end()?;
        Ok(response)
    }

    /// Bytes this response occupies on the wire.
    #[must_use]
    pub fn wire_bytes(&self) -> usize {
        frame::OVERHEAD_BYTES + self.payload().len()
    }
}

/// Encode a service outcome — success or error — into one wire frame.
#[must_use]
pub fn encode_outcome(outcome: &Result<Response, EngineError>) -> Vec<u8> {
    match outcome {
        Ok(response) => response.encode(),
        Err(error) => {
            let mut w = StateWriter::new();
            put_engine_error(&mut w, error);
            frame::frame_bytes(opcode::ERROR, &w.into_bytes())
        }
    }
}

/// Encode a service outcome without ever panicking: a response whose
/// payload exceeds [`frame::MAX_PAYLOAD`] (e.g. the checkpoint document
/// of a many-million-tenant engine) is replaced by a typed
/// [`EngineError::Unsupported`] error frame — tiny by construction — so
/// a connection handler degrades to a clean error instead of crashing.
#[must_use]
pub fn encode_outcome_checked(outcome: &Result<Response, EngineError>) -> Vec<u8> {
    if let Ok(response) = outcome {
        let payload = response.payload();
        if payload.len() > frame::MAX_PAYLOAD {
            let error = EngineError::Unsupported(format!(
                "response payload of {} bytes exceeds the {} byte frame limit",
                payload.len(),
                frame::MAX_PAYLOAD
            ));
            return encode_outcome(&Err(error));
        }
        return frame::frame_bytes(response.opcode(), &payload);
    }
    encode_outcome(outcome)
}

/// Decode a service outcome from an opcode + payload.
///
/// The outer `Result` is *decode* failure (malformed bytes); the inner
/// one is the service's own verdict, reproduced losslessly.
///
/// # Errors
/// A clean [`CheckpointError`] on malformed bytes.
pub fn decode_outcome(
    op: u8,
    payload: &[u8],
) -> Result<Result<Response, EngineError>, CheckpointError> {
    if op == opcode::ERROR {
        let mut r = StateReader::new(payload);
        let error = get_engine_error(&mut r)?;
        r.expect_end()?;
        Ok(Err(error))
    } else {
        Response::decode(op, payload).map(Ok)
    }
}

/// Decode a service outcome from one complete wire frame.
///
/// # Errors
/// As [`decode_outcome`], plus frame validation.
pub fn decode_outcome_frame(
    bytes: &[u8],
) -> Result<Result<Response, EngineError>, CheckpointError> {
    let (op, payload) = frame::decode_frame(bytes)?;
    decode_outcome(op, payload)
}

#[cfg(test)]
mod tests {
    use super::*;

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
