//! Engine-level checkpoint & restore — durable snapshots of the whole
//! multi-tenant serving layer.
//!
//! [`Engine::checkpoint`] drives a `ShardCmd::Checkpoint` through each
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
//! All integers little-endian, laid out once by the [`Wire`] codec of
//! [`dds_core::checkpoint`]; one writer ([`Engine::checkpoint`] and
//! [`compact`] both encode the same in-memory document) and one reader
//! serve both containers, and a delta's shard section shares its
//! counters, tenants and buffer with the full document's:
//!
//! ```text
//! magic          u32   0x4553_4444  ("DDSE")
//! version        u16   4
//! shards         u32   (the count of shard sections below)
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

use std::sync::mpsc::{channel, Sender};

use dds_core::checkpoint::{
    kind, restore_instance, CheckpointError, Padded, StateReader, StateWriter, Wire,
};
use dds_core::sampler::{SamplerKind, SamplerSpec};
use dds_core::wire_record;
use dds_hash::murmur2::murmur64a;
use dds_obs::Counter;
use dds_sim::Slot;

use crate::metrics::ShardMetrics;
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

/// One tenant record: `(id, parked, stamp, sampler envelope)`.
type Tenant = (u64, bool, u64, Vec<u8>);

/// One reorder-buffer slot: `(slot, [(tenant, element)])`, entries in
/// arrival order.
type BufferSlot = (u64, Vec<(u64, u64)>);

/// The refusal for a document that names one tenant twice.
const REPEATED_TENANT: CheckpointError = CheckpointError::Corrupt("tenant listed twice");

/// The body both containers' shard sections share: counters, tenants
/// ascending by id, and the reorder buffer ascending by slot. Decoding
/// sorts both lists and refuses a repeated tenant or slot, so a
/// re-encoded section matches a live shard's byte for byte.
struct Section {
    counters: [u64; COUNTERS],
    tenants: Vec<Tenant>,
    buffer: Vec<BufferSlot>,
}

impl Wire for Section {
    const MIN_BYTES: usize = COUNTERS * 8 + 4 + 4;

    fn put(&self, w: &mut StateWriter) {
        w.put(&self.counters);
        w.put(&self.tenants);
        w.put(&self.buffer);
    }

    fn get(r: &mut StateReader<'_>) -> Result<Self, CheckpointError> {
        let counters = r.get()?;
        let mut tenants: Vec<Tenant> = r.get()?;
        let mut buffer: Vec<BufferSlot> = r.get()?;
        tenants.sort_unstable_by_key(|t| t.0);
        if tenants.windows(2).any(|w| w[0].0 == w[1].0) {
            return Err(REPEATED_TENANT);
        }
        buffer.sort_unstable_by_key(|b| b.0);
        if buffer.windows(2).any(|w| w[0].0 == w[1].0) {
            return Err(CheckpointError::Corrupt("duplicate reorder-buffer slot"));
        }
        Ok(Section {
            counters,
            tenants,
            buffer,
        })
    }
}

/// A full document's shard section.
struct FullShard {
    watermark: Slot,
    /// The shard's mutation sequence number (a delta's reference point).
    seq: u64,
    section: Section,
}

wire_record! { FullShard { watermark: Slot, seq: u64, section: Section } }

/// A delta document's shard section.
struct DeltaShard {
    base_seq: u64,
    new_seq: u64,
    watermark: Slot,
    section: Section,
}

wire_record! { DeltaShard { base_seq: u64, new_seq: u64, watermark: Slot, section: Section } }

/// A whole document in memory: the deployment shape, then one section
/// per shard (`FullShard` for `DDSE`, `DeltaShard` for `DDSD`).
struct Document<S> {
    queue_capacity: usize,
    spec: SamplerSpec,
    lateness: Option<u64>,
    shards: Vec<S>,
}

impl<S: Wire> Document<S> {
    /// What a delta must share with its base: shard count, queue
    /// capacity, spec and lateness.
    fn shape(&self) -> (usize, usize, SamplerSpec, Option<u64>) {
        (
            self.shards.len(),
            self.queue_capacity,
            self.spec,
            self.lateness,
        )
    }

    /// Encode under `magic ‖ version` and seal with the trailer.
    fn encode(&self, magic: u32, version: u16) -> Vec<u8> {
        let mut w = StateWriter::new();
        w.put_u32(magic);
        w.put_u16(version);
        // The shape header writes its two counts as `u32`s.
        w.put_len(self.shards.len());
        w.put_len(self.queue_capacity);
        w.put_u8(match self.spec.kind {
            SamplerKind::Centralized => kind::CENTRALIZED,
            SamplerKind::Infinite => kind::INFINITE,
            SamplerKind::WithReplacement => kind::WITH_REPLACEMENT,
            SamplerKind::Sliding { .. } => kind::SLIDING,
            SamplerKind::SlidingMulti { .. } => kind::SLIDING_MULTI,
        });
        w.put(&self.spec.window().unwrap_or(0));
        w.put_len(self.spec.s);
        w.put(&self.spec.seed);
        w.put(&Padded(self.lateness));
        for shard in &self.shards {
            w.put(shard);
        }
        let mut out = w.into_bytes();
        let check = checksum(magic, &out);
        out.extend_from_slice(&check.to_le_bytes());
        out
    }

    /// Check the header and trailer, then decode and validate the body.
    fn parse(bytes: &[u8], magic: u32, version: u16) -> Result<Self, CheckpointError> {
        let mut r = open(bytes, magic, version)?;
        // `shards` counts the sections that follow, so it is bounded
        // like a sequence length: no shard is spawned for a count the
        // document cannot actually contain.
        let shards = r.get_len_of::<S>()?;
        let queue_capacity = r.get_u32()? as usize;
        if shards == 0 || queue_capacity == 0 {
            return Err(CheckpointError::Corrupt("zero shards or queue capacity"));
        }
        if queue_capacity > 1 << 20 {
            return Err(CheckpointError::Corrupt("queue capacity implausibly large"));
        }
        let tag = r.get_u8()?;
        let window = r.get()?;
        // A scalar, not a collection length — it must not be bounds-
        // checked against the remaining document bytes.
        let s = r.get_u32()? as usize;
        let seed = r.get()?;
        let kind_of = match tag {
            kind::CENTRALIZED => SamplerKind::Centralized,
            kind::INFINITE => SamplerKind::Infinite,
            kind::WITH_REPLACEMENT => SamplerKind::WithReplacement,
            kind::SLIDING => SamplerKind::Sliding { window },
            kind::SLIDING_MULTI => SamplerKind::SlidingMulti { window },
            other => return Err(CheckpointError::UnknownKind(other)),
        };
        let spec = SamplerSpec::try_new(kind_of, s, seed).map_err(CheckpointError::Corrupt)?;
        let lateness = r.get::<Padded<u64>>()?.0;
        let mut sections = Vec::with_capacity(shards);
        for _ in 0..shards {
            sections.push(r.get()?);
        }
        r.expect_end()?;
        Ok(Document {
            queue_capacity,
            spec,
            lateness,
            shards: sections,
        })
    }
}

/// Parse a full current-version document. Validates the checksum and
/// structure — a tenant may appear once in the whole document — but
/// not the tenant blobs (restore does that).
fn parse_full(bytes: &[u8]) -> Result<Document<FullShard>, CheckpointError> {
    let doc = Document::<FullShard>::parse(bytes, MAGIC, VERSION)?;
    let mut seen = HashSet::new();
    for shard in &doc.shards {
        if !shard.section.tenants.iter().all(|t| seen.insert(t.0)) {
            return Err(REPEATED_TENANT);
        }
    }
    Ok(doc)
}

/// The shard counters a document carries, in container order.
fn counter_cells(m: &ShardMetrics) -> [&Counter; COUNTERS] {
    [
        &m.elements,
        &m.batches,
        &m.advances,
        &m.evictions,
        &m.snapshots,
        &m.snapshot_nanos,
        &m.backpressure,
        &m.late_dropped,
        &m.stale_advances,
        &m.sweeps,
    ]
}

impl Engine {
    /// Send every shard the checkpoint command `cmd` builds for it,
    /// then collect the answers in shard order — the shards serialize
    /// their tenants concurrently. Each answer is paired with the
    /// shard's counters read as it arrives.
    fn shard_states(
        &self,
        cmd: impl Fn(usize, Sender<ShardState>) -> ShardCmd,
    ) -> Result<Vec<(ShardState, [u64; COUNTERS])>, EngineError> {
        self.guard()?;
        let replies = self
            .shards
            .iter()
            .enumerate()
            .map(|(i, shard)| {
                let (reply_tx, reply_rx) = channel();
                shard
                    .tx
                    .send(cmd(i, reply_tx))
                    .map_err(|_| self.down_error(i))
                    .map(|()| reply_rx)
            })
            .collect::<Result<Vec<_>, _>>()?;
        replies
            .into_iter()
            .zip(&self.shards)
            .enumerate()
            .map(|(i, (rx, shard))| {
                let state = rx.recv().map_err(|_| self.down_error(i))?;
                Ok((state, counter_cells(&shard.metrics).map(Counter::get)))
            })
            .collect()
    }

    /// This engine's shape around `shards` sections.
    fn document<S>(&self, shards: Vec<S>) -> Document<S> {
        Document {
            queue_capacity: self.queue_capacity,
            spec: self.spec,
            lateness: self.lateness,
            shards,
        }
    }

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
        let states = self.shard_states(|_, reply| ShardCmd::Checkpoint { reply })?;
        let shards = states
            .into_iter()
            .map(|(state, counters)| FullShard {
                watermark: state.watermark,
                seq: state.seq,
                section: Section {
                    counters,
                    tenants: state.tenants,
                    buffer: state.buffer,
                },
            })
            .collect();
        Ok(self.document(shards).encode(MAGIC, VERSION))
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
        let base = parse_full(base)?;
        let shape = (
            self.shards.len(),
            self.queue_capacity,
            self.spec,
            self.lateness,
        );
        if base.shape() != shape {
            return Err(CheckpointError::Corrupt(
                "base checkpoint is from a different deployment shape",
            ));
        }
        let states = self
            .shard_states(|i, reply| ShardCmd::CheckpointDelta {
                since: base.shards[i].seq,
                reply,
            })
            .expect("engine checkpoints");
        let shards = states
            .into_iter()
            .zip(&base.shards)
            .map(|((state, counters), base)| DeltaShard {
                base_seq: base.seq,
                new_seq: state.seq,
                watermark: state.watermark,
                section: Section {
                    counters,
                    tenants: state.tenants,
                    buffer: state.buffer,
                },
            })
            .collect();
        Ok(self.document(shards).encode(DELTA_MAGIC, DELTA_VERSION))
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
        let doc = parse_full(bytes)?;
        let shards = doc.shards.len();
        let engine = Engine::spawn(EngineConfig {
            shards,
            queue_capacity: doc.queue_capacity,
            spec: doc.spec,
            lateness: doc.lateness,
        });
        // Tenants (and buffered late elements) re-routed by the engine's
        // own placement hash.
        let mut tenants: Vec<Vec<(u64, u64, TenantState)>> = Vec::new();
        let mut buffers: Vec<BTreeMap<u64, Vec<(u64, u64)>>> = Vec::new();
        tenants.resize_with(shards, Vec::new);
        buffers.resize_with(shards, BTreeMap::new);
        let mut records = Vec::with_capacity(shards);
        for shard in doc.shards {
            for (tenant, is_parked, stamp, blob) in shard.section.tenants {
                // A parked blob is validated now too, so a corrupt one
                // fails the restore, not a later rehydration inside a
                // shard worker.
                let sampler = restore_instance(&blob)?;
                let state = if is_parked {
                    TenantState::Parked(blob)
                } else {
                    TenantState::Live(sampler)
                };
                tenants[engine.shard_of(TenantId(tenant))].push((tenant, stamp, state));
            }
            for (slot, entries) in shard.section.buffer {
                for (tenant, element) in entries {
                    let home = engine.shard_of(TenantId(tenant));
                    buffers[home]
                        .entry(slot)
                        .or_default()
                        .push((tenant, element));
                }
            }
            records.push((shard.watermark, shard.seq, shard.section.counters));
        }

        for (i, ((watermark, seq, counters), (tenants, buffer))) in records
            .into_iter()
            .zip(tenants.into_iter().zip(buffers))
            .enumerate()
        {
            let shard = &engine.shards[i];
            shard
                .tx
                .send(ShardCmd::Install {
                    watermark,
                    seq,
                    tenants,
                    buffer: buffer.into_iter().collect(),
                })
                .expect("shard worker alive");
            for (cell, value) in counter_cells(&shard.metrics).into_iter().zip(counters) {
                cell.set(value);
            }
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

/// The trailer of a document: MurmurHash64A of its body, seeded with
/// its magic.
fn checksum(magic: u32, body: &[u8]) -> u64 {
    murmur64a(body, u64::from(magic))
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

/// `base` with `changed` laid over it: both ascending by tenant id, a
/// changed record replacing the base's record of the same id. Blobs move;
/// none is copied.
fn overlay(base: Vec<Tenant>, changed: Vec<Tenant>) -> Vec<Tenant> {
    let mut out = Vec::with_capacity(base.len() + changed.len());
    let mut changed = changed.into_iter().peekable();
    for tenant in base {
        while let Some(c) = changed.next_if(|c| c.0 < tenant.0) {
            out.push(c);
        }
        out.push(changed.next_if(|c| c.0 == tenant.0).unwrap_or(tenant));
    }
    out.extend(changed);
    out
}

/// Overlay one delta document onto a parsed base. Rejects deltas for a
/// different deployment shape and chains applied out of order: a
/// delta's `base_seq` must not postdate the overlay's current sequence
/// number (a predecessor is missing), and its `new_seq` must not
/// predate it (the delta is stale). A tenant may appear once per delta
/// section, and never in a section other than the one the overlay
/// already holds it in.
fn apply_delta(doc: &mut Document<FullShard>, delta: &[u8]) -> Result<(), CheckpointError> {
    let delta = Document::<DeltaShard>::parse(delta, DELTA_MAGIC, DELTA_VERSION)?;
    if doc.shape() != delta.shape() {
        return Err(CheckpointError::Corrupt(
            "delta is for a different deployment shape",
        ));
    }
    for (i, changed) in delta.shards.into_iter().enumerate() {
        let seq = doc.shards[i].seq;
        if changed.base_seq > seq {
            return Err(CheckpointError::Corrupt(
                "delta applied out of order: its base postdates the chain",
            ));
        }
        if changed.new_seq < seq {
            return Err(CheckpointError::Corrupt(
                "delta predates the state it is applied to",
            ));
        }
        let elsewhere = |id: u64| {
            doc.shards.iter().enumerate().any(|(j, other)| {
                j != i
                    && other
                        .section
                        .tenants
                        .binary_search_by_key(&id, |t| t.0)
                        .is_ok()
            })
        };
        if changed.section.tenants.iter().any(|t| elsewhere(t.0)) {
            return Err(REPEATED_TENANT);
        }
        let shard = &mut doc.shards[i];
        let base = std::mem::take(&mut shard.section.tenants);
        shard.section.tenants = overlay(base, changed.section.tenants);
        shard.watermark = changed.watermark;
        shard.seq = changed.new_seq;
        shard.section.counters = changed.section.counters;
        // The buffer is tiny and carried whole in every delta, so it
        // replaces rather than merges.
        shard.section.buffer = changed.section.buffer;
    }
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
    Ok(doc.encode(MAGIC, VERSION))
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

    /// `engine_parked_blob_bytes{shard}` is the summed length of the
    /// shard's parked blobs — the very blobs a full checkpoint stores
    /// for its parked tenants — after a sweep parks them, after a
    /// restore installs them, and back at 0 once every one rehydrates.
    #[test]
    fn parked_blob_bytes_gauge_tracks_the_parked_blobs() {
        fn gauges(engine: &Engine) -> Vec<u64> {
            let snap = engine.telemetry();
            (0..engine.shards())
                .map(|i| {
                    let shard = i.to_string();
                    snap.gauge_value("engine_parked_blob_bytes", &[("shard", &shard)])
                        .expect("registered")
                })
                .collect()
        }
        fn parked_bytes_in(doc: &[u8]) -> Vec<u64> {
            parse_full(doc)
                .expect("parses")
                .shards
                .iter()
                .map(|shard| {
                    shard
                        .section
                        .tenants
                        .iter()
                        .filter(|(_, parked, _, _)| *parked)
                        .map(|(_, _, _, blob)| blob.len() as u64)
                        .sum()
                })
                .collect()
        }

        let config = EngineConfig::new(sliding_spec())
            .with_shards(2)
            .with_lateness(0);
        let engine = Engine::spawn(config);
        let parked: Vec<TenantId> = (0..40).map(TenantId).collect();
        engine.observe_batch_at(Slot(1), parked.iter().map(|&t| (t, Element(t.0))));
        // Two windows later, the cut crosses a sweep stride on both
        // shards: the first 40 windows have drained and are parked.
        engine.observe_batch_at(Slot(20), (100..120).map(|t| (TenantId(t), Element(t))));
        engine.flush();
        let doc = engine.checkpoint();
        let total: u64 = parked_bytes_in(&doc).iter().sum();
        assert!(total > 0);
        if dds_obs::IS_NOOP {
            return; // gauges intentionally read 0 in measurement builds
        }
        assert_eq!(engine.metrics().total_evictions(), 40);
        assert_eq!(gauges(&engine), parked_bytes_in(&doc));
        let _ = engine.shutdown();

        let restored = Engine::restore(&doc).expect("restores");
        assert_eq!(gauges(&restored), parked_bytes_in(&restored.checkpoint()));
        assert_eq!(gauges(&restored).iter().sum::<u64>(), total);
        for &t in &parked {
            restored.observe_at(t, Element(t.0 + 1), Slot(21));
        }
        restored.flush();
        assert_eq!(gauges(&restored), vec![0, 0]);
        assert_eq!(parked_bytes_in(&restored.checkpoint()), vec![0, 0]);
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

    /// A document sealed with this module's own encoder: shard section
    /// `i` lists `sections[i]` as `(tenant, parked, blob)` records, at
    /// seq 1 for a full document or from seq 1 to 2 for a delta.
    fn hand_sealed(delta: bool, sections: &[Vec<(u64, bool, Vec<u8>)>]) -> Vec<u8> {
        let section = |tenants: &Vec<(u64, bool, Vec<u8>)>| Section {
            counters: [0; COUNTERS],
            tenants: tenants
                .iter()
                .map(|(tenant, parked, blob)| (*tenant, *parked, 1, blob.clone()))
                .collect(),
            buffer: Vec::new(),
        };
        fn shaped<S>(shards: Vec<S>) -> Document<S> {
            Document {
                queue_capacity: 8,
                spec: sliding_spec(),
                lateness: None,
                shards,
            }
        }
        if delta {
            let shards = sections.iter().map(|tenants| DeltaShard {
                base_seq: 1,
                new_seq: 2,
                watermark: Slot(3),
                section: section(tenants),
            });
            shaped(shards.collect()).encode(DELTA_MAGIC, DELTA_VERSION)
        } else {
            let shards = sections.iter().map(|tenants| FullShard {
                watermark: Slot(3),
                seq: 1,
                section: section(tenants),
            });
            shaped(shards.collect()).encode(MAGIC, VERSION)
        }
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
