//! Engine-level checkpoint & restore — durable snapshots of the whole
//! multi-tenant serving layer.
//!
//! [`Engine::checkpoint`] drives a [`ShardCmd::Checkpoint`] through each
//! shard's FIFO queue: by the time a shard answers, every batch, clock
//! advance, and query enqueued before the checkpoint call is reflected
//! in its state — the same in-band barrier that makes snapshots
//! consistent makes checkpoints consistent, with no stop-the-world
//! pause and no locks. The result is a single self-describing byte
//! document; [`Engine::restore`] rebuilds a fully equivalent engine from
//! it: same spec, same shard layout, same per-shard watermarks, same
//! tenants (live instances *and* eviction-parked blobs), and the same
//! operational counters.
//!
//! ## Container format (version 4)
//!
//! All integers little-endian, stacked on the primitive codec of
//! [`dds_core::checkpoint`]:
//!
//! ```text
//! magic          u32   0x4553_4444  ("DDSE")
//! version        u16   4
//! shards         u32
//! queue_capacity u32
//! spec           kind u8 ‖ window u64 ‖ s u32 ‖ seed u64
//! lateness       present u8 ‖ slots u64   (EngineConfig::lateness)
//! per shard:
//!   watermark    u64
//!   seq          u64   mutation sequence number (delta reference point)
//!   counters     elements ‖ batches ‖ advances ‖ evictions ‖
//!                snapshots ‖ snapshot_nanos ‖ backpressure ‖
//!                late_dropped ‖ stale_advances ‖ sweeps      (u64 each)
//!   tenants      count u32, then per tenant:
//!                id u64 ‖ parked u8 ‖ stamp u64 ‖ blob_len u32 ‖ blob
//!   buffer       slot count u32, then per slot ascending:
//!                slot u64 ‖ entry count u32 ‖ entries (tenant u64 ‖
//!                element u64) — the reorder buffer, so a checkpoint
//!                taken between a late element's arrival and its replay
//!                loses nothing
//! check          u64   MurmurHash64A of every preceding byte, seeded
//!                      with the magic
//! ```
//!
//! Decoders read `magic` and `version` before they verify `check`, so a
//! document of another version is refused as
//! [`CheckpointError::UnsupportedVersion`], never as a checksum
//! mismatch and never misread. Version 4 replaced version 3's
//! byte-serial FNV-1a 64 trailer with MurmurHash64A, which folds eight
//! bytes per step.
//!
//! ## Incremental checkpoints
//!
//! Each shard bumps a **mutation sequence number** once per state-
//! changing command and stamps every touched tenant with it. A full
//! document records both, so [`Engine::checkpoint_delta`] can ask each
//! shard for exactly the tenants stamped after the base document's
//! `seq` — at low churn the delta is a few percent of the full
//! document's bytes. Deltas are their own container (`"DDSD"`,
//! version 3): the same header, then per shard
//! `base_seq ‖ new_seq ‖ watermark ‖ counters ‖ changed tenants ‖
//! buffer` (the buffer is tiny — at most one horizon's worth of late
//! data — so deltas carry it whole and application replaces the base's
//! copy) and the same trailer, seeded with the delta magic.
//! [`compact`] folds a base plus an in-order delta chain back into a
//! full current-version document — byte-identical to the full checkpoint the
//! engine would have produced at the last delta — and
//! [`Engine::restore_with_deltas`] restores straight from the chain.
//!
//! Each tenant `blob` is the sampler's own versioned, checksummed
//! envelope (see `dds_core::checkpoint`), so tenant state is doubly
//! protected: the outer checksum catches container corruption, the
//! inner one catches blob corruption, and every decode path returns a
//! clean [`CheckpointError`] instead of panicking. Restore re-routes
//! tenants through the engine's own `tenant → shard` hash rather than
//! trusting the file's grouping, so a checkpoint remains valid even if
//! its shard sections are reordered by hand.
//!
//! The recovery contract — checkpoint → drop → restore → replay the
//! suffix produces byte-exact samples, memory, and message counts
//! against an engine that never crashed — is pinned by
//! `crates/engine/tests/recovery.rs` for all four sampler kinds.

use std::collections::{BTreeMap, HashSet};
use std::io;

use crossbeam::channel::{unbounded, Receiver};

use dds_core::checkpoint::{kind, restore_instance, CheckpointError, StateReader, StateWriter};
use dds_core::sampler::{SamplerKind, SamplerSpec};
use dds_hash::murmur2::murmur64a;
use dds_sim::Slot;

use crate::shard::{ShardCmd, ShardState, TenantState};
use crate::{Engine, EngineConfig, EngineError, TenantId};

/// Container magic: `b"DDSE"` read as a little-endian `u32`.
pub const MAGIC: u32 = u32::from_le_bytes(*b"DDSE");

/// Current container format version.
pub const VERSION: u16 = 4;

/// Delta-container magic: `b"DDSD"` read as a little-endian `u32`.
pub const DELTA_MAGIC: u32 = u32::from_le_bytes(*b"DDSD");

/// Current delta-container format version.
pub const DELTA_VERSION: u16 = 3;

/// Bytes of the `magic ‖ version` header every document opens with.
const HEADER_BYTES: usize = 4 + 2;

/// Bytes of the checksum trailer every document closes with.
const TRAILER_BYTES: usize = 8;

/// Per-shard counters carried by the container, in encode order.
const COUNTERS: usize = 10;

/// Minimum encoded size of a full-document shard section (watermark,
/// seq, counters, tenant count, buffer slot count) — the per-item floor
/// for the shard-count length check.
const SHARD_SECTION_MIN: usize = 8 + 8 + COUNTERS * 8 + 4 + 4;

/// Minimum encoded size of a delta-document shard section (base_seq,
/// new_seq, watermark, counters, changed-tenant count, buffer slot
/// count).
const DELTA_SHARD_SECTION_MIN: usize = 8 + 8 + 8 + COUNTERS * 8 + 4 + 4;

/// Minimum encoded size of one tenant record (id, parked flag, stamp,
/// blob length; the blob itself may not be empty but is bounded by its
/// own length check).
const TENANT_RECORD_MIN: usize = 8 + 1 + 8 + 4;

/// Minimum encoded size of one reorder-buffer slot record (slot, entry
/// count).
const BUFFER_SLOT_MIN: usize = 8 + 4;

/// Encoded size of one reorder-buffer entry (tenant, element).
const BUFFER_ENTRY_BYTES: usize = 8 + 8;

/// Why an engine checkpoint could not be restored: a format error
/// ([`CheckpointError`]) or, for the reader-based API, an I/O error.
#[derive(Debug)]
pub enum RestoreError {
    /// The bytes do not form a valid engine checkpoint.
    Format(CheckpointError),
    /// Reading the checkpoint source failed.
    Io(io::Error),
}

impl std::fmt::Display for RestoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RestoreError::Format(e) => write!(f, "restore failed: {e}"),
            RestoreError::Io(e) => write!(f, "restore failed: {e}"),
        }
    }
}

impl std::error::Error for RestoreError {}

impl From<CheckpointError> for RestoreError {
    fn from(e: CheckpointError) -> Self {
        RestoreError::Format(e)
    }
}

impl From<io::Error> for RestoreError {
    fn from(e: io::Error) -> Self {
        RestoreError::Io(e)
    }
}

fn spec_kind_tag(kind_of: SamplerKind) -> u8 {
    match kind_of {
        SamplerKind::Centralized => kind::CENTRALIZED,
        SamplerKind::Infinite => kind::INFINITE,
        SamplerKind::WithReplacement => kind::WITH_REPLACEMENT,
        SamplerKind::Sliding { .. } => kind::SLIDING,
        SamplerKind::SlidingMulti { .. } => kind::SLIDING_MULTI,
    }
}

fn encode_spec(spec: &SamplerSpec, w: &mut StateWriter) {
    w.put_u8(spec_kind_tag(spec.kind));
    w.put_u64(spec.window().unwrap_or(0));
    w.put_len(spec.s);
    w.put_u64(spec.seed);
}

fn encode_lateness(lateness: Option<u64>, w: &mut StateWriter) {
    w.put_bool(lateness.is_some());
    w.put_u64(lateness.unwrap_or(0));
}

fn decode_lateness(r: &mut StateReader<'_>) -> Result<Option<u64>, CheckpointError> {
    let present = r.get_bool()?;
    let slots = r.get_u64()?;
    Ok(present.then_some(slots))
}

/// Encode one tenant record (shared by full and delta sections).
fn encode_tenant(w: &mut StateWriter, tenant: u64, parked: bool, stamp: u64, blob: &[u8]) {
    w.put_u64(tenant);
    w.put_bool(parked);
    w.put_u64(stamp);
    w.put_len(blob.len());
    w.put_bytes(blob);
}

/// The refusal for a document that names one tenant twice.
const REPEATED_TENANT: CheckpointError = CheckpointError::Corrupt("tenant listed twice");

/// Encode one shard's reorder buffer (ascending by slot; entries keep
/// arrival order).
fn encode_buffer(buffer: &[(u64, Vec<(u64, u64)>)], w: &mut StateWriter) {
    w.put_len(buffer.len());
    for (slot, entries) in buffer {
        w.put_u64(*slot);
        w.put_len(entries.len());
        for (tenant, element) in entries {
            w.put_u64(*tenant);
            w.put_u64(*element);
        }
    }
}

/// Decode one shard's reorder buffer into its overlay form.
fn decode_buffer(
    r: &mut StateReader<'_>,
) -> Result<BTreeMap<u64, Vec<(u64, u64)>>, CheckpointError> {
    let slots = r.get_len(BUFFER_SLOT_MIN)?;
    let mut buffer = BTreeMap::new();
    for _ in 0..slots {
        let slot = r.get_u64()?;
        let count = r.get_len(BUFFER_ENTRY_BYTES)?;
        let mut entries = Vec::with_capacity(count);
        for _ in 0..count {
            let tenant = r.get_u64()?;
            let element = r.get_u64()?;
            entries.push((tenant, element));
        }
        if buffer.insert(slot, entries).is_some() {
            return Err(CheckpointError::Corrupt("duplicate reorder-buffer slot"));
        }
    }
    Ok(buffer)
}

/// [`encode_buffer`] for the overlay form — iterates the map ascending
/// by slot, the same order a live shard's buffer section emits.
fn encode_buffer_map(buffer: &BTreeMap<u64, Vec<(u64, u64)>>, w: &mut StateWriter) {
    w.put_len(buffer.len());
    for (slot, entries) in buffer {
        w.put_u64(*slot);
        w.put_len(entries.len());
        for (tenant, element) in entries {
            w.put_u64(*tenant);
            w.put_u64(*element);
        }
    }
}

/// Upper bound on the spec sample size accepted from a checkpoint: `s`
/// drives per-tenant allocations when new tenants are built, so a
/// crafted (but correctly checksummed) document must not be able to
/// request an absurd one.
const MAX_SPEC_S: usize = 1 << 20;

fn decode_spec(r: &mut StateReader<'_>) -> Result<SamplerSpec, CheckpointError> {
    let tag = r.get_u8()?;
    let window = r.get_u64()?;
    // A scalar, not a collection length — it must not be bounds-checked
    // against the remaining document bytes.
    let s = r.get_u32()? as usize;
    let seed = r.get_u64()?;
    if s == 0 {
        return Err(CheckpointError::Corrupt("spec sample size is zero"));
    }
    if s > MAX_SPEC_S {
        return Err(CheckpointError::Corrupt(
            "spec sample size implausibly large",
        ));
    }
    let kind_of = match tag {
        kind::CENTRALIZED => SamplerKind::Centralized,
        kind::INFINITE => SamplerKind::Infinite,
        kind::WITH_REPLACEMENT => SamplerKind::WithReplacement,
        kind::SLIDING => SamplerKind::Sliding { window },
        kind::SLIDING_MULTI => SamplerKind::SlidingMulti { window },
        other => return Err(CheckpointError::UnknownKind(other)),
    };
    if kind_of.window() == Some(0) {
        return Err(CheckpointError::Corrupt("spec window is zero"));
    }
    if matches!(kind_of, SamplerKind::Sliding { .. }) && s != 1 {
        return Err(CheckpointError::Corrupt("sliding spec with s above one"));
    }
    Ok(SamplerSpec::new(kind_of, s, seed))
}

impl Engine {
    /// Serialize the entire engine — spec, shard layout, per-shard
    /// watermarks and counters, and every tenant's full sampler state —
    /// into one self-describing, checksummed byte document.
    ///
    /// Consistency: the checkpoint request travels each shard's FIFO
    /// command queue, so the snapshot reflects every ingest batch, clock
    /// advance, and query whose call returned before this call began.
    /// Concurrent producers may land traffic after the barrier; like
    /// [`Engine::flush`], call sites that need a quiescent image should
    /// stop producers first.
    ///
    /// # Errors
    /// [`EngineError::ShutDown`] after [`Engine::begin_shutdown`];
    /// [`EngineError::ShardDown`] if a worker is gone.
    pub fn try_checkpoint(&self) -> Result<Vec<u8>, EngineError> {
        self.guard()?;
        // Fan the barrier out to all shards first, then collect — the
        // shards serialize their tenant maps concurrently.
        let replies: Vec<Receiver<ShardState>> = self
            .shards
            .iter()
            .enumerate()
            .map(|(i, shard)| {
                let (reply_tx, reply_rx) = unbounded();
                shard
                    .tx
                    .send(ShardCmd::Checkpoint { reply: reply_tx })
                    .map_err(|_| self.down_error(i))
                    .map(|()| reply_rx)
            })
            .collect::<Result<_, _>>()?;

        let mut w = StateWriter::new();
        w.put_u32(MAGIC);
        w.put_u16(VERSION);
        w.put_len(self.shards.len());
        w.put_len(self.queue_capacity);
        encode_spec(&self.spec, &mut w);
        encode_lateness(self.lateness, &mut w);
        for (i, (shard, rx)) in self.shards.iter().zip(replies).enumerate() {
            let state = rx.recv().map_err(|_| self.down_error(i))?;
            let m = shard.metrics.snapshot(0, 0);
            w.put_slot(state.watermark);
            w.put_u64(state.seq);
            for counter in [
                m.elements,
                m.batches,
                m.advances,
                m.evictions,
                m.snapshots,
                m.snapshot_nanos,
                m.backpressure,
                m.late_dropped,
                m.stale_advances,
                m.sweeps,
            ] {
                w.put_u64(counter);
            }
            w.put_len(state.tenants.len());
            for (tenant, parked, stamp, blob) in &state.tenants {
                encode_tenant(&mut w, *tenant, *parked, *stamp, blob);
            }
            encode_buffer(&state.buffer, &mut w);
        }
        Ok(seal(MAGIC, w))
    }

    /// Infallible wrapper over [`Engine::try_checkpoint`].
    ///
    /// # Panics
    /// Panics if the engine is shut down or a worker is gone.
    #[must_use]
    pub fn checkpoint(&self) -> Vec<u8> {
        self.try_checkpoint().expect("engine checkpoints")
    }

    /// Stream [`Engine::checkpoint`] to a writer (a file, a socket, …).
    ///
    /// # Errors
    /// Propagates the writer's I/O errors.
    pub fn checkpoint_to<W: io::Write>(&self, w: &mut W) -> io::Result<()> {
        w.write_all(&self.checkpoint())
    }

    /// Serialize only what changed since `base` (a full document from
    /// [`Engine::checkpoint`] or [`compact`] of this same deployment):
    /// each shard answers with the tenants whose dirty stamp postdates
    /// the base's sequence number, plus its current watermark, sequence
    /// number, and counters. At low churn the delta is a few percent of
    /// a full document. Fold deltas back into a full document with
    /// [`compact`], or restore directly with
    /// [`Engine::restore_with_deltas`].
    ///
    /// Consistency is the same FIFO barrier as [`Engine::checkpoint`].
    ///
    /// # Errors
    /// Returns a [`CheckpointError`] if `base` is not a valid full
    /// document or describes a different deployment shape (shards,
    /// queue capacity, or spec).
    ///
    /// # Panics
    /// Panics if the engine is shut down or a worker is gone (like
    /// [`Engine::checkpoint`]).
    pub fn checkpoint_delta(&self, base: &[u8]) -> Result<Vec<u8>, CheckpointError> {
        let doc = parse_full(base)?;
        if doc.shards != self.shards.len()
            || doc.queue_capacity != self.queue_capacity
            || doc.spec != self.spec
            || doc.lateness != self.lateness
        {
            return Err(CheckpointError::Corrupt(
                "base checkpoint is from a different deployment shape",
            ));
        }
        self.guard().expect("engine checkpoints");
        let replies: Vec<Receiver<ShardState>> = self
            .shards
            .iter()
            .enumerate()
            .map(|(i, shard)| {
                let (reply_tx, reply_rx) = unbounded();
                shard
                    .tx
                    .send(ShardCmd::CheckpointDelta {
                        since: doc.per_shard[i].seq,
                        reply: reply_tx,
                    })
                    .expect("shard worker alive");
                reply_rx
            })
            .collect();

        let mut w = StateWriter::new();
        w.put_u32(DELTA_MAGIC);
        w.put_u16(DELTA_VERSION);
        w.put_len(self.shards.len());
        w.put_len(self.queue_capacity);
        encode_spec(&self.spec, &mut w);
        encode_lateness(self.lateness, &mut w);
        for (i, (shard, rx)) in self.shards.iter().zip(replies).enumerate() {
            let state = rx.recv().expect("shard worker answers");
            let m = shard.metrics.snapshot(0, 0);
            w.put_u64(doc.per_shard[i].seq);
            w.put_u64(state.seq);
            w.put_slot(state.watermark);
            for counter in [
                m.elements,
                m.batches,
                m.advances,
                m.evictions,
                m.snapshots,
                m.snapshot_nanos,
                m.backpressure,
                m.late_dropped,
                m.stale_advances,
                m.sweeps,
            ] {
                w.put_u64(counter);
            }
            w.put_len(state.tenants.len());
            for (tenant, parked, stamp, blob) in &state.tenants {
                encode_tenant(&mut w, *tenant, *parked, *stamp, blob);
            }
            encode_buffer(&state.buffer, &mut w);
        }
        Ok(seal(DELTA_MAGIC, w))
    }

    /// Rebuild an engine from a base document plus an in-order chain of
    /// [`Engine::checkpoint_delta`] documents — equivalent to restoring
    /// [`compact`]`(base, deltas)`.
    ///
    /// # Errors
    /// As [`Engine::restore`], plus the chain-validation errors of
    /// [`compact`].
    pub fn restore_with_deltas(base: &[u8], deltas: &[Vec<u8>]) -> Result<Engine, CheckpointError> {
        Engine::restore(&compact(base, deltas)?)
    }

    /// Rebuild an engine from [`Engine::checkpoint`] output: respawn the
    /// shard workers, reinstall every tenant (live instances rebuilt
    /// from their envelopes; eviction-parked tenants kept parked), and
    /// restore watermarks and operational counters. The returned engine
    /// is ready for traffic and behaves byte-exactly like the original
    /// would have on any suffix of ingest and queries.
    ///
    /// Tenants are re-routed through the engine's own `tenant → shard`
    /// hash, so a hostable checkpoint never places a tenant on a shard
    /// that queries would not reach.
    ///
    /// # Errors
    /// Returns a [`CheckpointError`] on truncated, corrupted, or
    /// semantically invalid input — including a tenant listed twice,
    /// in one shard section or across two; never panics on untrusted
    /// bytes.
    pub fn restore(bytes: &[u8]) -> Result<Engine, CheckpointError> {
        let mut r = open(bytes, MAGIC, VERSION)?;
        // `shards` counts the shard records that follow (each at least
        // `SHARD_SECTION_MIN` bytes), so the collection-length bound
        // caps it against the document size — no thread is spawned for
        // a count the document cannot actually contain.
        let (shards, queue_capacity, spec, lateness) = parse_shape(&mut r, SHARD_SECTION_MIN)?;

        struct ShardRecord {
            watermark: Slot,
            seq: u64,
            counters: [u64; COUNTERS],
        }
        let mut records = Vec::with_capacity(shards);
        // Tenants (and buffered late elements) re-routed by the engine's
        // own placement hash.
        let mut tenants: Vec<Vec<(u64, u64, TenantState)>> = Vec::new();
        let mut buffers: Vec<BTreeMap<u64, Vec<(u64, u64)>>> = Vec::new();
        tenants.resize_with(shards, Vec::new);
        buffers.resize_with(shards, BTreeMap::new);
        // Re-routing can bring one id from two shard sections together,
        // so repeats are caught across the whole document.
        let mut seen = HashSet::new();

        let engine = Engine::spawn(EngineConfig {
            shards,
            queue_capacity,
            spec,
            lateness,
        });

        for _ in 0..shards {
            let watermark = r.get_slot()?;
            let seq = r.get_u64()?;
            let mut counters = [0u64; COUNTERS];
            for c in &mut counters {
                *c = r.get_u64()?;
            }
            let tenant_count = r.get_len(TENANT_RECORD_MIN)?;
            for _ in 0..tenant_count {
                let tenant = r.get_u64()?;
                let is_parked = r.get_bool()?;
                let stamp = r.get_u64()?;
                let blob_len = r.get_len(1)?;
                let blob = r.get_bytes(blob_len)?;
                if !seen.insert(tenant) {
                    return Err(REPEATED_TENANT);
                }
                // A parked blob is validated now too, so a corrupt one
                // fails the restore, not a later rehydration inside a
                // shard worker.
                let sampler = restore_instance(blob)?;
                let state = if is_parked {
                    TenantState::Parked(blob.to_vec())
                } else {
                    TenantState::Live(sampler)
                };
                tenants[engine.shard_of(TenantId(tenant))].push((tenant, stamp, state));
            }
            for (slot, entries) in decode_buffer(&mut r)? {
                for (tenant, element) in entries {
                    let home = engine.shard_of(TenantId(tenant));
                    buffers[home]
                        .entry(slot)
                        .or_default()
                        .push((tenant, element));
                }
            }
            records.push(ShardRecord {
                watermark,
                seq,
                counters,
            });
        }
        r.expect_end()?;

        for (i, (record, (tenants, buffer))) in records
            .iter()
            .zip(tenants.into_iter().zip(buffers))
            .enumerate()
        {
            let shard = &engine.shards[i];
            shard
                .tx
                .send(ShardCmd::Install {
                    watermark: record.watermark,
                    seq: record.seq,
                    tenants,
                    buffer: buffer.into_iter().collect(),
                })
                .expect("shard worker alive");
            let [elements, batches, advances, evictions, snapshots, snapshot_nanos, backpressure, late_dropped, stale_advances, sweeps] =
                record.counters;
            shard.metrics.elements.set(elements);
            shard.metrics.batches.set(batches);
            shard.metrics.advances.set(advances);
            shard.metrics.evictions.set(evictions);
            shard.metrics.snapshots.set(snapshots);
            shard.metrics.snapshot_nanos.set(snapshot_nanos);
            shard.metrics.backpressure.set(backpressure);
            shard.metrics.late_dropped.set(late_dropped);
            shard.metrics.stale_advances.set(stale_advances);
            shard.metrics.sweeps.set(sweeps);
        }
        // Barrier: the Installs have landed (and the tenant/watermark
        // gauges are set) before the engine is handed to the caller.
        engine.flush();
        Ok(engine)
    }

    /// Read a checkpoint to its end from `r` and [`Engine::restore`] it.
    ///
    /// # Errors
    /// Returns [`RestoreError::Io`] if reading fails, or
    /// [`RestoreError::Format`] if the bytes do not restore.
    pub fn restore_from<R: io::Read>(r: &mut R) -> Result<Engine, RestoreError> {
        let mut bytes = Vec::new();
        r.read_to_end(&mut bytes)?;
        Ok(Engine::restore(&bytes)?)
    }
}

/// One shard's section of a parsed full document.
struct DocShard {
    watermark: Slot,
    seq: u64,
    counters: [u64; COUNTERS],
    /// tenant id → (parked, stamp, sampler envelope). A `BTreeMap` so
    /// re-encoding iterates ascending by tenant id — byte-identical to
    /// the order a live engine's [`ShardCmd::Checkpoint`] emits.
    tenants: BTreeMap<u64, (bool, u64, Vec<u8>)>,
    /// The shard's reorder buffer: slot → buffered `(tenant, element)`
    /// pairs, in arrival order within a slot. Ascending by slot so
    /// re-encoding matches a live checkpoint byte for byte.
    buffer: BTreeMap<u64, Vec<(u64, u64)>>,
}

/// A fully parsed engine checkpoint (the in-memory form [`compact`]
/// overlays deltas onto).
struct Doc {
    shards: usize,
    queue_capacity: usize,
    spec: SamplerSpec,
    lateness: Option<u64>,
    per_shard: Vec<DocShard>,
}

/// The trailer of a document: MurmurHash64A of its body, seeded with
/// its magic.
fn checksum(magic: u32, body: &[u8]) -> u64 {
    murmur64a(body, u64::from(magic))
}

/// Append the trailer to an encoded document body.
fn seal(magic: u32, w: StateWriter) -> Vec<u8> {
    let mut out = w.into_bytes();
    let check = checksum(magic, &out);
    out.extend_from_slice(&check.to_le_bytes());
    out
}

/// Check a document's magic and version, then its trailer, and return a
/// reader over the body past the header. The header comes first so a
/// document of another version is refused as such, not as a checksum
/// mismatch.
fn open(bytes: &[u8], magic: u32, version: u16) -> Result<StateReader<'_>, CheckpointError> {
    let mut r = StateReader::new(bytes);
    let found = r.get_u32()?;
    if found != magic {
        return Err(CheckpointError::BadMagic(found));
    }
    let found = r.get_u16()?;
    if found != version {
        return Err(CheckpointError::UnsupportedVersion(found));
    }
    if bytes.len() < HEADER_BYTES + TRAILER_BYTES {
        return Err(CheckpointError::Truncated);
    }
    let (body, trailer) = bytes.split_at(bytes.len() - TRAILER_BYTES);
    let check = u64::from_le_bytes(trailer.try_into().expect("trailer length"));
    if check != checksum(magic, body) {
        return Err(CheckpointError::ChecksumMismatch);
    }
    Ok(StateReader::new(&body[HEADER_BYTES..]))
}

/// Decode the shared deployment-shape header (shard count, queue
/// capacity, spec, lateness); `min_shard_bytes` is the per-shard-section
/// floor that bounds the shard count against the document size.
#[allow(clippy::type_complexity)]
fn parse_shape(
    r: &mut StateReader<'_>,
    min_shard_bytes: usize,
) -> Result<(usize, usize, SamplerSpec, Option<u64>), CheckpointError> {
    let shards = r.get_len(min_shard_bytes)?;
    let queue_capacity = r.get_u32()? as usize;
    if shards == 0 || queue_capacity == 0 {
        return Err(CheckpointError::Corrupt("zero shards or queue capacity"));
    }
    if queue_capacity > 1 << 20 {
        return Err(CheckpointError::Corrupt("queue capacity implausibly large"));
    }
    let spec = decode_spec(r)?;
    let lateness = decode_lateness(r)?;
    Ok((shards, queue_capacity, spec, lateness))
}

/// Decode one tenant record (shared by full and delta sections).
fn parse_tenant(r: &mut StateReader<'_>) -> Result<(u64, (bool, u64, Vec<u8>)), CheckpointError> {
    let tenant = r.get_u64()?;
    let parked = r.get_bool()?;
    let stamp = r.get_u64()?;
    let blob_len = r.get_len(1)?;
    let blob = r.get_bytes(blob_len)?.to_vec();
    Ok((tenant, (parked, stamp, blob)))
}

/// Parse a full current-version document into its overlay form. Validates the
/// checksum and structure — a tenant may appear once in the whole
/// document — but not the tenant blobs (restore does that).
fn parse_full(bytes: &[u8]) -> Result<Doc, CheckpointError> {
    let mut r = open(bytes, MAGIC, VERSION)?;
    let (shards, queue_capacity, spec, lateness) = parse_shape(&mut r, SHARD_SECTION_MIN)?;
    let mut per_shard = Vec::with_capacity(shards);
    let mut seen = HashSet::new();
    for _ in 0..shards {
        let watermark = r.get_slot()?;
        let seq = r.get_u64()?;
        let mut counters = [0u64; COUNTERS];
        for c in &mut counters {
            *c = r.get_u64()?;
        }
        let tenant_count = r.get_len(TENANT_RECORD_MIN)?;
        let mut tenants = BTreeMap::new();
        for _ in 0..tenant_count {
            let (tenant, record) = parse_tenant(&mut r)?;
            if !seen.insert(tenant) {
                return Err(REPEATED_TENANT);
            }
            tenants.insert(tenant, record);
        }
        let buffer = decode_buffer(&mut r)?;
        per_shard.push(DocShard {
            watermark,
            seq,
            counters,
            tenants,
            buffer,
        });
    }
    r.expect_end()?;
    Ok(Doc {
        shards,
        queue_capacity,
        spec,
        lateness,
        per_shard,
    })
}

/// Re-encode an overlay as a full current-version document — the exact byte
/// layout [`Engine::try_checkpoint`] produces for the same state.
fn encode_full(doc: &Doc) -> Vec<u8> {
    let mut w = StateWriter::new();
    w.put_u32(MAGIC);
    w.put_u16(VERSION);
    w.put_len(doc.shards);
    w.put_len(doc.queue_capacity);
    encode_spec(&doc.spec, &mut w);
    encode_lateness(doc.lateness, &mut w);
    for shard in &doc.per_shard {
        w.put_slot(shard.watermark);
        w.put_u64(shard.seq);
        for c in shard.counters {
            w.put_u64(c);
        }
        w.put_len(shard.tenants.len());
        for (&tenant, (parked, stamp, blob)) in &shard.tenants {
            encode_tenant(&mut w, tenant, *parked, *stamp, blob);
        }
        encode_buffer_map(&shard.buffer, &mut w);
    }
    seal(MAGIC, w)
}

/// Overlay one delta document onto a parsed base. Rejects deltas for a
/// different deployment shape and chains applied out of order: a
/// delta's `base_seq` must not postdate the overlay's current sequence
/// number (a predecessor is missing), and its `new_seq` must not
/// predate it (the delta is stale). A tenant may appear once per delta
/// section, and never in a section other than the one the overlay
/// already holds it in.
fn apply_delta(doc: &mut Doc, delta: &[u8]) -> Result<(), CheckpointError> {
    let mut r = open(delta, DELTA_MAGIC, DELTA_VERSION)?;
    let (shards, queue_capacity, spec, lateness) = parse_shape(&mut r, DELTA_SHARD_SECTION_MIN)?;
    if shards != doc.shards
        || queue_capacity != doc.queue_capacity
        || spec != doc.spec
        || lateness != doc.lateness
    {
        return Err(CheckpointError::Corrupt(
            "delta is for a different deployment shape",
        ));
    }
    for i in 0..doc.per_shard.len() {
        let base_seq = r.get_u64()?;
        let shard = &doc.per_shard[i];
        let new_seq = r.get_u64()?;
        if base_seq > shard.seq {
            return Err(CheckpointError::Corrupt(
                "delta applied out of order: its base postdates the chain",
            ));
        }
        if new_seq < shard.seq {
            return Err(CheckpointError::Corrupt(
                "delta predates the state it is applied to",
            ));
        }
        let watermark = r.get_slot()?;
        let mut counters = [0u64; COUNTERS];
        for c in &mut counters {
            *c = r.get_u64()?;
        }
        let changed = r.get_len(TENANT_RECORD_MIN)?;
        let mut seen = HashSet::new();
        for _ in 0..changed {
            let (tenant, record) = parse_tenant(&mut r)?;
            let elsewhere = doc
                .per_shard
                .iter()
                .enumerate()
                .any(|(j, other)| j != i && other.tenants.contains_key(&tenant));
            if !seen.insert(tenant) || elsewhere {
                return Err(REPEATED_TENANT);
            }
            doc.per_shard[i].tenants.insert(tenant, record);
        }
        let shard = &mut doc.per_shard[i];
        shard.watermark = watermark;
        shard.seq = new_seq;
        shard.counters = counters;
        // The buffer is tiny and carried whole in every delta, so it
        // replaces rather than merges.
        shard.buffer = decode_buffer(&mut r)?;
    }
    r.expect_end()?;
    Ok(())
}

/// Fold a base document and an in-order chain of
/// [`Engine::checkpoint_delta`] documents into one full document —
/// byte-identical to the full checkpoint the engine would have produced
/// at the moment the last delta was taken. The building block for
/// checkpoint retention: keep one periodic full document, stream cheap
/// deltas between, and compact when the chain grows long.
///
/// # Errors
/// Returns a [`CheckpointError`] if the base or any delta is invalid,
/// shapes mismatch, or the chain is out of order.
pub fn compact(base: &[u8], deltas: &[Vec<u8>]) -> Result<Vec<u8>, CheckpointError> {
    let mut doc = parse_full(base)?;
    for delta in deltas {
        apply_delta(&mut doc, delta)?;
    }
    Ok(encode_full(&doc))
}

#[cfg(test)]
mod tests {
    use super::*;
    use dds_core::sampler::DistinctSampler;
    use dds_sim::Element;

    fn sliding_spec() -> SamplerSpec {
        SamplerSpec::new(SamplerKind::Sliding { window: 8 }, 1, 77)
    }

    #[test]
    fn empty_engine_roundtrips() {
        let engine = Engine::spawn(EngineConfig::new(sliding_spec()).with_shards(3));
        let bytes = engine.checkpoint();
        let _ = engine.shutdown();
        let restored = Engine::restore(&bytes).expect("empty checkpoint restores");
        assert_eq!(restored.shards(), 3);
        assert_eq!(restored.spec(), sliding_spec());
        assert_eq!(restored.snapshot(TenantId(1)), None);
        let _ = restored.shutdown();
    }

    #[test]
    fn tenants_watermark_and_metrics_survive() {
        let engine = Engine::spawn(EngineConfig::new(sliding_spec()).with_shards(2));
        for t in 0..20u64 {
            engine.observe_at(TenantId(t), Element(t), Slot(5));
        }
        engine.advance(Slot(6));
        let _ = engine.snapshot(TenantId(0));
        engine.flush();
        let before = engine.metrics();
        let bytes = engine.checkpoint();
        let _ = engine.shutdown();

        let restored = Engine::restore(&bytes).expect("restores");
        let after = restored.metrics();
        assert_eq!(after.total_elements(), before.total_elements());
        assert_eq!(after.total_batches(), before.total_batches());
        assert_eq!(after.total_advances(), before.total_advances());
        assert_eq!(after.total_snapshots(), before.total_snapshots());
        assert_eq!(after.watermark(), before.watermark());
        assert_eq!(after.tenants(), 20);
        for t in 0..20u64 {
            assert_eq!(
                restored.snapshot(TenantId(t)),
                Some(vec![Element(t)]),
                "tenant {t} lost its window sample"
            );
        }
        let _ = restored.shutdown();
    }

    #[test]
    fn checkpoints_are_deterministic_given_quiescence() {
        let engine = Engine::spawn(EngineConfig::new(sliding_spec()).with_shards(2));
        for t in 0..10u64 {
            engine.observe_at(TenantId(t), Element(t * 3), Slot(2));
        }
        engine.flush();
        let a = engine.checkpoint();
        let b = engine.checkpoint();
        assert_eq!(a, b, "same state produced different checkpoints");
        let _ = engine.shutdown();
    }

    #[test]
    fn default_queue_capacity_and_large_scalars_restore() {
        // Regression: queue_capacity and spec.s are scalars, not
        // collection lengths — a checkpoint whose byte length is smaller
        // than either value must still restore. The original decoder
        // rejected every default-config (capacity 128) empty-engine
        // checkpoint as truncated.
        let engine = Engine::spawn(EngineConfig::new(sliding_spec()));
        let bytes = engine.checkpoint();
        let _ = engine.shutdown();
        let restored = Engine::restore(&bytes).expect("default-config empty engine restores");
        let _ = restored.shutdown();

        let spec = SamplerSpec::new(SamplerKind::Infinite, 512, 3);
        let engine = Engine::spawn(
            EngineConfig::new(spec)
                .with_shards(1)
                .with_queue_capacity(4_096),
        );
        engine.observe(TenantId(1), Element(5));
        engine.flush();
        let want = engine.snapshot(TenantId(1));
        let bytes = engine.checkpoint();
        let _ = engine.shutdown();
        let restored = Engine::restore(&bytes).expect("large s + queue capacity restores");
        assert_eq!(restored.snapshot(TenantId(1)), want);
        let _ = restored.shutdown();
    }

    #[test]
    fn truncations_and_corruptions_fail_cleanly() {
        let engine = Engine::spawn(EngineConfig::new(sliding_spec()).with_shards(2));
        for t in 0..6u64 {
            engine.observe_at(TenantId(t), Element(t), Slot(1));
        }
        engine.flush();
        let bytes = engine.checkpoint();
        let _ = engine.shutdown();
        assert!(Engine::restore(&bytes).is_ok());
        for cut in 0..bytes.len() {
            assert!(
                Engine::restore(&bytes[..cut]).is_err(),
                "truncation at {cut} restored"
            );
        }
        for i in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[i] ^= 0x20;
            assert!(Engine::restore(&bad).is_err(), "flip at {i} restored");
        }
    }

    #[test]
    fn empty_delta_compacts_to_the_identical_document() {
        // No mutations between base and delta: the delta carries zero
        // tenant records, and compaction reproduces the base (and the
        // live engine's current full checkpoint) byte for byte.
        let engine = Engine::spawn(EngineConfig::new(sliding_spec()).with_shards(2));
        for t in 0..30u64 {
            engine.observe_at(TenantId(t), Element(t), Slot(3));
        }
        engine.flush();
        let base = engine.checkpoint();
        let delta = engine.checkpoint_delta(&base).expect("delta");
        assert!(
            delta.len() * 4 < base.len(),
            "empty delta ({}) not much smaller than base ({})",
            delta.len(),
            base.len()
        );
        let compacted = compact(&base, &[delta]).expect("compacts");
        assert_eq!(compacted, base, "no-change delta altered the document");
        assert_eq!(
            compacted,
            engine.checkpoint(),
            "compaction diverged from live"
        );
        let _ = engine.shutdown();
    }

    #[test]
    fn delta_chain_compacts_byte_exactly() {
        let engine = Engine::spawn(EngineConfig::new(sliding_spec()).with_shards(3));
        for t in 0..40u64 {
            engine.observe_at(TenantId(t), Element(t), Slot(1));
        }
        engine.flush();
        let base = engine.checkpoint();

        // Two churn rounds, each sealed by a chained delta.
        let mut durable = base.clone();
        let mut deltas = Vec::new();
        for round in 1..=2u64 {
            for t in 0..5u64 {
                engine.observe_at(TenantId(t), Element(100 * round + t), Slot(round + 1));
            }
            engine.flush();
            let d = engine.checkpoint_delta(&durable).expect("delta");
            durable = compact(&durable, std::slice::from_ref(&d)).expect("chain compacts");
            deltas.push(d);
        }

        // The whole chain folded over the original base equals the
        // incremental compaction *and* a fresh full checkpoint.
        let folded = compact(&base, &deltas).expect("folds");
        assert_eq!(folded, durable);
        assert_eq!(folded, engine.checkpoint());

        // And it restores to an engine that answers identically.
        let restored = Engine::restore_with_deltas(&base, &deltas).expect("restores");
        for t in 0..40u64 {
            assert_eq!(
                restored.snapshot(TenantId(t)),
                engine.snapshot(TenantId(t)),
                "tenant {t} diverged after delta restore"
            );
        }
        let _ = engine.shutdown();
        let _ = restored.shutdown();
    }

    #[test]
    fn delta_against_foreign_base_is_rejected() {
        let engine = Engine::spawn(EngineConfig::new(sliding_spec()).with_shards(2));
        let other = Engine::spawn(EngineConfig::new(sliding_spec()).with_shards(3));
        let foreign = other.checkpoint();
        assert!(
            engine.checkpoint_delta(&foreign).is_err(),
            "delta accepted a base with a different shard count"
        );
        assert!(engine.checkpoint_delta(b"junk").is_err());
        let _ = engine.shutdown();
        let _ = other.shutdown();
    }

    #[test]
    fn out_of_order_and_corrupt_deltas_fail_cleanly() {
        let engine = Engine::spawn(EngineConfig::new(sliding_spec()).with_shards(2));
        for t in 0..10u64 {
            engine.observe_at(TenantId(t), Element(t), Slot(1));
        }
        engine.flush();
        let base = engine.checkpoint();
        engine.observe_at(TenantId(0), Element(50), Slot(2));
        engine.flush();
        let d1 = engine.checkpoint_delta(&base).expect("first delta");
        let mid = compact(&base, &[d1.clone()]).expect("compacts");
        engine.observe_at(TenantId(1), Element(51), Slot(3));
        engine.flush();
        let d2 = engine.checkpoint_delta(&mid).expect("second delta");

        // In order: fine. d2 before d1: its base postdates the chain.
        assert!(compact(&base, &[d1.clone(), d2.clone()]).is_ok());
        assert!(
            compact(&base, &[d2.clone()]).is_err(),
            "chain with a missing predecessor compacted"
        );
        // Re-applying the same delta is an idempotent no-op…
        assert_eq!(
            compact(&mid, &[d1.clone()]).expect("idempotent re-apply"),
            mid
        );
        // …but a delta older than the state it lands on is stale.
        let newer = compact(&mid, &[d2.clone()]).expect("compacts");
        assert!(
            compact(&newer, &[d1.clone()]).is_err(),
            "stale delta re-applied over newer state"
        );

        // Any corruption of a delta fails the checksum or the decode.
        for i in 0..d1.len() {
            let mut bad = d1.clone();
            bad[i] ^= 0x40;
            assert!(
                compact(&base, &[bad]).is_err(),
                "bit flip at {i} still compacted"
            );
        }
        for cut in 0..d2.len() {
            assert!(
                compact(&mid, &[d2[..cut].to_vec()]).is_err(),
                "truncation at {cut} still compacted"
            );
        }
        let _ = engine.shutdown();
    }

    /// A live and a parked envelope of `sliding_spec()` tenants.
    fn tenant_blobs() -> (Vec<u8>, Vec<u8>) {
        let mut live = sliding_spec().instance();
        live.observe_at(Element(5), Slot(3));
        let mut drained = sliding_spec().instance();
        drained.observe_at(Element(6), Slot(1));
        drained.advance(Slot(20));
        let (mut live_blob, mut parked_blob) = (Vec::new(), Vec::new());
        live.checkpoint(&mut live_blob);
        drained.checkpoint(&mut parked_blob);
        (live_blob, parked_blob)
    }

    /// A document sealed with this module's own encoders: shard section
    /// `i` lists `sections[i]` as `(tenant, parked, blob)` records, at
    /// seq 1 for a full document or from seq 1 to 2 for a delta.
    fn hand_sealed(delta: bool, sections: &[Vec<(u64, bool, Vec<u8>)>]) -> Vec<u8> {
        let (magic, version) = if delta {
            (DELTA_MAGIC, DELTA_VERSION)
        } else {
            (MAGIC, VERSION)
        };
        let mut w = StateWriter::new();
        w.put_u32(magic);
        w.put_u16(version);
        w.put_len(sections.len());
        w.put_len(8);
        encode_spec(&sliding_spec(), &mut w);
        encode_lateness(None, &mut w);
        for tenants in sections {
            if delta {
                w.put_u64(1);
                w.put_u64(2);
                w.put_slot(Slot(3));
            } else {
                w.put_slot(Slot(3));
                w.put_u64(1);
            }
            for _ in 0..COUNTERS {
                w.put_u64(0);
            }
            w.put_len(tenants.len());
            for (tenant, parked, blob) in tenants {
                encode_tenant(&mut w, *tenant, *parked, 1, blob);
            }
            encode_buffer(&[], &mut w);
        }
        seal(magic, w)
    }

    #[test]
    fn a_tenant_listed_twice_is_refused() {
        let (live, parked) = tenant_blobs();
        let distinct = hand_sealed(
            false,
            &[
                vec![(7, false, live.clone())],
                vec![(8, true, parked.clone())],
            ],
        );
        let restored = Engine::restore(&distinct).expect("distinct ids restore");
        assert_eq!(restored.metrics().tenants(), 2);
        let _ = restored.shutdown();

        // Once live and once parked, in two shard sections (restore
        // re-routes both copies to one shard) or in one.
        for doc in [
            hand_sealed(
                false,
                &[
                    vec![(7, false, live.clone())],
                    vec![(7, true, parked.clone())],
                ],
            ),
            hand_sealed(
                false,
                &[
                    vec![(7, false, live.clone()), (7, true, parked.clone())],
                    vec![],
                ],
            ),
        ] {
            assert_eq!(Engine::restore(&doc).err(), Some(REPEATED_TENANT));
            assert_eq!(compact(&doc, &[]).err(), Some(REPEATED_TENANT));
        }

        // A delta may name a tenant once per section, and only in the
        // section the base already holds it in.
        let base = hand_sealed(false, &[vec![(7, false, live.clone())], vec![]]);
        let once = hand_sealed(true, &[vec![(7, true, parked.clone())], vec![]]);
        assert!(compact(&base, &[once]).is_ok());
        let twice = hand_sealed(
            true,
            &[
                vec![(7, true, parked.clone()), (7, false, live.clone())],
                vec![],
            ],
        );
        let moved = hand_sealed(true, &[vec![], vec![(7, true, parked)]]);
        for delta in [twice, moved] {
            assert_eq!(compact(&base, &[delta]).err(), Some(REPEATED_TENANT));
        }
    }

    #[test]
    fn restore_from_reader_works_and_reports_io() {
        let engine = Engine::spawn(EngineConfig::new(sliding_spec()).with_shards(1));
        engine.observe_at(TenantId(3), Element(9), Slot(1));
        let mut buf = Vec::new();
        engine.checkpoint_to(&mut buf).unwrap();
        let _ = engine.shutdown();
        let restored = Engine::restore_from(&mut buf.as_slice()).expect("reader restore");
        assert_eq!(restored.snapshot(TenantId(3)), Some(vec![Element(9)]));
        let _ = restored.shutdown();

        let Err(err) = Engine::restore_from(&mut io::empty()) else {
            panic!("empty reader restored an engine");
        };
        assert!(matches!(err, RestoreError::Format(_)));
        assert!(!err.to_string().is_empty());
    }
}
